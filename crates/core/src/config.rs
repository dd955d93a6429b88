//! The chain state: a circle configuration with incremental caches.
//!
//! `Configuration` owns the circle list, the coverage grid, the spatial
//! index and two running sums (log-likelihood relative to the empty
//! configuration, and total pairwise overlap area). All moves are applied
//! through [`Edit`]s, which return a [`Receipt`] carrying the cache deltas
//! needed by the Metropolis–Hastings ratio and enough information to build
//! the exact inverse edit when a proposal is rejected.

use crate::coverage::{disk_row_range, disk_row_span, for_each_disk_row, CoverageGrid, SpanTally};
use crate::likelihood::Gain;
use crate::model::NucleiModel;
use crate::spatial::SpatialGrid;
use pmcmc_imaging::{Circle, Rect};

/// Maximum disks the stack-allocated span walker of
/// [`Configuration::delta_log_lik_readonly`] handles (every built-in move
/// touches at most 3).
const SPAN_DISKS: usize = 4;

/// One disk's pixels `x0..=x1` on a row, and whether the disk is added.
type Span = (i64, i64, bool);

/// A reversible state change: remove some circles (by index), then add some
/// circles. Every move kind reduces to an `Edit`.
#[derive(Debug, Clone, PartialEq)]
pub struct Edit {
    /// Indices of circles to remove (must be distinct).
    pub remove: Vec<usize>,
    /// Circles to add.
    pub add: Vec<Circle>,
}

impl Edit {
    /// An edit that only adds one circle.
    #[must_use]
    pub fn add_one(c: Circle) -> Self {
        Self {
            remove: Vec::new(),
            add: vec![c],
        }
    }

    /// An edit that only removes one circle.
    #[must_use]
    pub fn remove_one(i: usize) -> Self {
        Self {
            remove: vec![i],
            add: Vec::new(),
        }
    }

    /// An edit replacing circle `i` with `c`.
    #[must_use]
    pub fn replace_one(i: usize, c: Circle) -> Self {
        Self {
            remove: vec![i],
            add: vec![c],
        }
    }

    /// Net change in circle count.
    #[must_use]
    pub fn dimension_delta(&self) -> i64 {
        self.add.len() as i64 - self.remove.len() as i64
    }

    /// Clears both lists, keeping their heap buffers. The in-place setters
    /// below exist for the samplers' scratch proposals: a reused `Edit`
    /// never reallocates, so the per-iteration proposal path is
    /// allocation-free in steady state.
    pub fn clear(&mut self) {
        self.remove.clear();
        self.add.clear();
    }

    /// In-place form of [`Edit::add_one`].
    pub fn set_add_one(&mut self, c: Circle) {
        self.clear();
        self.add.push(c);
    }

    /// In-place form of [`Edit::remove_one`].
    pub fn set_remove_one(&mut self, i: usize) {
        self.clear();
        self.remove.push(i);
    }

    /// In-place form of [`Edit::replace_one`].
    pub fn set_replace_one(&mut self, i: usize, c: Circle) {
        self.clear();
        self.remove.push(i);
        self.add.push(c);
    }

    /// In-place split edit: replace circle `i` with children `c1`, `c2`.
    pub fn set_split(&mut self, i: usize, c1: Circle, c2: Circle) {
        self.clear();
        self.remove.push(i);
        self.add.push(c1);
        self.add.push(c2);
    }

    /// In-place merge edit: replace circles `i`, `j` with `merged`.
    pub fn set_merge(&mut self, i: usize, j: usize, merged: Circle) {
        self.clear();
        self.remove.push(i);
        self.remove.push(j);
        self.add.push(merged);
    }
}

/// The cache deltas and undo information produced by applying an [`Edit`].
#[derive(Debug, Clone)]
pub struct Receipt {
    /// The circles that were removed (in removal order).
    pub removed: Vec<Circle>,
    /// How many circles were added (they sit at the end of the list).
    pub n_added: usize,
    /// Log-likelihood change.
    pub d_log_lik: f64,
    /// Pairwise-overlap-area change.
    pub d_overlap: f64,
}

impl Receipt {
    /// The edit that exactly undoes the applied edit. The restored circles
    /// may land at different indices (configurations are sets; index
    /// permutation is immaterial to the chain).
    #[must_use]
    pub fn inverse(&self, config_len_after: usize) -> Edit {
        Edit {
            remove: (config_len_after - self.n_added..config_len_after).collect(),
            add: self.removed.clone(),
        }
    }
}

/// The mutable chain state.
#[derive(Debug)]
pub struct Configuration {
    circles: Vec<Circle>,
    coverage: CoverageGrid,
    spatial: SpatialGrid,
    log_lik: f64,
    overlap_area: f64,
    /// Memoised close-pair list from the last enumeration, invalidated by
    /// any circle-list mutation. Split proposals query the *same* base
    /// count every iteration (the after-edit count starts from it) and a
    /// merge proposal picks one pair of the same list, so between accepted
    /// moves this turns an O(k) spatial sweep into a load. A `Mutex`
    /// (uncontended: one lock per query) rather than a `Cell` so
    /// `Configuration` stays `Sync` for the speculative lanes that share
    /// `&Configuration`.
    pair_cache: std::sync::Mutex<PairMemo>,
}

/// The unordered close pairs `(i, j)`, `i < j`, of a configuration for one
/// `max_dist`, in enumeration order (ascending `i`, then spatial-index
/// order). `key` is `max_dist.to_bits()`, `None` while stale; the list
/// keeps its allocation across invalidations.
#[derive(Debug, Clone, Default)]
struct PairMemo {
    key: Option<u64>,
    pairs: Vec<(usize, usize)>,
}

impl Clone for Configuration {
    fn clone(&self) -> Self {
        Self {
            circles: self.circles.clone(),
            coverage: self.coverage.clone(),
            spatial: self.spatial.clone(),
            log_lik: self.log_lik,
            overlap_area: self.overlap_area,
            pair_cache: std::sync::Mutex::new(self.pair_cache.lock().unwrap().clone()),
        }
    }
}

impl Configuration {
    /// The empty configuration for `model`'s image.
    #[must_use]
    pub fn empty(model: &NucleiModel) -> Self {
        let (w, h) = (model.params.width, model.params.height);
        Self {
            circles: Vec::new(),
            coverage: CoverageGrid::new(Rect::of_image(w, h)),
            spatial: SpatialGrid::new(w, h, 2.0 * model.r_max()),
            log_lik: 0.0,
            overlap_area: 0.0,
            pair_cache: std::sync::Mutex::new(PairMemo::default()),
        }
    }

    /// A configuration holding the given circles.
    #[must_use]
    pub fn from_circles(model: &NucleiModel, circles: &[Circle]) -> Self {
        let mut cfg = Self::empty(model);
        for &c in circles {
            cfg.apply(&Edit::add_one(c), model);
        }
        cfg
    }

    /// A random initial state: `k ~ Poisson(λ)` circles with uniform
    /// positions and prior radii ("a random configuration is generated and
    /// used as the initial state of the Markov Chain" — §III).
    #[must_use]
    pub fn random_init(model: &NucleiModel, rng: &mut impl rand::Rng) -> Self {
        let k = sample_poisson(model.params.expected_count, rng);
        let mut circles = Vec::with_capacity(k);
        for _ in 0..k {
            circles.push(Circle::new(
                rng.gen_range(0.0..f64::from(model.params.width)),
                rng.gen_range(0.0..f64::from(model.params.height)),
                model.params.radius_prior.sample(rng),
            ));
        }
        Self::from_circles(model, &circles)
    }

    /// Number of circles.
    #[must_use]
    pub fn len(&self) -> usize {
        self.circles.len()
    }

    /// Whether the configuration is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.circles.is_empty()
    }

    /// The circles.
    #[must_use]
    pub fn circles(&self) -> &[Circle] {
        &self.circles
    }

    /// One circle.
    #[must_use]
    pub fn circle(&self, i: usize) -> Circle {
        self.circles[i]
    }

    /// Log-likelihood relative to the empty configuration.
    #[must_use]
    pub const fn log_lik(&self) -> f64 {
        self.log_lik
    }

    /// Total pairwise overlap (lens) area.
    #[must_use]
    pub const fn overlap_area(&self) -> f64 {
        self.overlap_area
    }

    /// Read access to the coverage grid.
    #[must_use]
    pub const fn coverage(&self) -> &CoverageGrid {
        &self.coverage
    }

    /// Log-prior of the configuration under `model` (Poisson point-process
    /// count term + radius prior + uniform positions + overlap penalty).
    ///
    /// States are unordered sets, so the count term is the point-process
    /// *set density* `k·ln λ − λ` — the `1/k!` of the Poisson pmf is
    /// accounted for by the uniform selection probabilities in the move
    /// proposal ratios (standard spatial birth–death convention; the count
    /// *marginal* under this density is still Poisson(λ)).
    #[must_use]
    pub fn log_prior(&self, model: &NucleiModel) -> f64 {
        let p = &model.params;
        count_log_prior(self.len(), p.expected_count)
            + self
                .circles
                .iter()
                .map(|c| p.radius_prior.logpdf(c.r))
                .sum::<f64>()
            + self.len() as f64 * p.position_log_density()
            - p.overlap_gamma * self.overlap_area
    }

    /// Log-posterior (up to the Gaussian normalisation constant, which is
    /// configuration-independent).
    #[must_use]
    pub fn log_posterior(&self, model: &NucleiModel) -> f64 {
        self.log_prior(model) + self.log_lik + model.gain.log_lik_empty()
    }

    /// Sum of lens areas between the hypothetical circle `c` and all
    /// currently indexed circles except those in `exclude`.
    #[must_use]
    pub fn overlap_with(&self, c: &Circle, exclude: &[usize], model: &NucleiModel) -> f64 {
        let mut total = 0.0;
        self.spatial
            .for_neighbors(c.x, c.y, c.r + model.r_max(), |id| {
                if exclude.contains(&id) {
                    return;
                }
                total += c.intersection_area(&self.circles[id]);
            });
        total
    }

    /// Applies an edit, updating all caches, and returns the receipt.
    ///
    /// # Panics
    /// Panics if removal indices are out of range or duplicated.
    pub fn apply(&mut self, edit: &Edit, model: &NucleiModel) -> Receipt {
        self.invalidate_pair_cache();
        let gain = &model.gain;
        let mut d_log_lik = 0.0;
        let mut d_overlap = 0.0;

        // Remove in descending index order so earlier removals don't shift
        // later indices.
        let mut remove = edit.remove.clone();
        remove.sort_unstable_by(|a, b| b.cmp(a));
        for w in remove.windows(2) {
            assert_ne!(w[0], w[1], "duplicate removal index");
        }
        let mut removed = Vec::with_capacity(remove.len());
        for &i in &remove {
            let c = self.circles[i];
            // Pairs with all *still indexed* circles: pairs among removed
            // circles are thereby counted exactly once.
            d_overlap -= self.overlap_with(&c, &[i], model);
            d_log_lik += self.coverage.remove_circle(&c, gain);
            self.remove_at(i);
            removed.push(c);
        }
        for &c in &edit.add {
            d_overlap += self.overlap_with(&c, &[], model);
            d_log_lik += self.coverage.add_circle(&c, gain);
            let id = self.circles.len();
            self.circles.push(c);
            self.spatial.insert(id, &c);
        }
        self.log_lik += d_log_lik;
        self.overlap_area += d_overlap;
        Receipt {
            removed,
            n_added: edit.add.len(),
            d_log_lik,
            d_overlap,
        }
    }

    /// Reverts a just-applied edit (rejected proposal).
    pub fn revert(&mut self, receipt: &Receipt, model: &NucleiModel) {
        let inverse = receipt.inverse(self.len());
        let inv_receipt = self.apply(&inverse, model);
        debug_assert!(
            (inv_receipt.d_log_lik + receipt.d_log_lik).abs() < 1e-6,
            "revert log-lik mismatch"
        );
    }

    /// Replaces circle `idx` (which must currently equal `old`) with `new`
    /// on the circle list, the spatial index and the coverage grid. Used
    /// when merging tile results: the tile's own accumulated deltas feed
    /// the likelihood/overlap caches, so the grid's returned gains are
    /// dropped.
    pub(crate) fn update_circle_in_place(
        &mut self,
        idx: usize,
        old: Circle,
        new: Circle,
        gain: &Gain,
    ) {
        debug_assert_eq!(self.circles[idx], old, "tile update against stale master");
        self.invalidate_pair_cache();
        self.coverage.remove_circle(&old, gain);
        self.coverage.add_circle(&new, gain);
        self.spatial.relocate(idx, &old, &new);
        self.circles[idx] = new;
    }

    fn invalidate_pair_cache(&mut self) {
        self.pair_cache.get_mut().unwrap().key = None;
    }

    /// Adds externally computed cache deltas (tile merging).
    pub(crate) fn add_cache_deltas(&mut self, d_log_lik: f64, d_overlap: f64) {
        self.log_lik += d_log_lik;
        self.overlap_area += d_overlap;
    }

    fn remove_at(&mut self, i: usize) {
        let c = self.circles[i];
        self.spatial.remove(i, &c);
        let last = self.circles.len() - 1;
        if i != last {
            let moved = self.circles[last];
            self.spatial.rename(last, i, &moved);
        }
        self.circles.swap_remove(i);
    }

    /// Log-likelihood delta of `edit` computed **without mutating** the
    /// configuration. Used by speculative moves, where several proposals of
    /// the same state are evaluated concurrently (ref. \[11\]) and must not
    /// touch shared state, and by the sequential sampler (rejections never
    /// pay for an apply + revert).
    ///
    /// A pixel's model value flips only when its cover count crosses 0↔1;
    /// the hypothetical post-count is
    /// `count − #removed disks covering it + #added disks covering it`.
    #[must_use]
    pub fn delta_log_lik_readonly(&self, edit: &Edit, model: &NucleiModel) -> f64 {
        // Every RJMCMC move touches at most three disks (merge: 2 removed +
        // 1 added; split: 1 removed + 2 added); the allocation-free span
        // walker handles up to four. Larger edits (batch manipulations from
        // drivers) fall back to the general per-pixel scan.
        if edit.remove.len() + edit.add.len() <= SPAN_DISKS {
            self.delta_log_lik_spans(edit, model)
        } else {
            self.delta_log_lik_general(edit, model)
        }
    }

    /// Allocation-free row-span evaluation of the likelihood delta for
    /// edits touching at most [`SPAN_DISKS`] disks: builds the disk array
    /// and hands it to [`span_delta_log_lik`].
    fn delta_log_lik_spans(&self, edit: &Edit, model: &NucleiModel) -> f64 {
        // (circle, is_add), removed first — order is immaterial, each union
        // pixel is visited exactly once.
        let mut disks = [(Circle::new(0.0, 0.0, 0.0), false); SPAN_DISKS];
        let mut nd = 0;
        for &i in &edit.remove {
            disks[nd] = (self.circles[i], false);
            nd += 1;
        }
        for &c in &edit.add {
            disks[nd] = (c, true);
            nd += 1;
        }
        span_delta_log_lik(&self.coverage, &disks[..nd], &model.gain)
    }

    /// General evaluation (any disk count): per image row some disk
    /// reaches, collect the spans of the disks whose row range holds it,
    /// and resolve the row through [`sweep_row`] — the same run merging,
    /// segment cutting and resolution as the span walker, without its
    /// fixed-size arrays and its shortcuts.
    fn delta_log_lik_general(&self, edit: &Edit, model: &NucleiModel) -> f64 {
        let gain = &model.gain;
        let frame = self.coverage.rect();
        // (circle, squared radius, clipped row range, is_add) of the disks
        // that reach the frame's rows at all.
        let disks: Vec<(Circle, f64, (i64, i64), bool)> = edit
            .remove
            .iter()
            .map(|&i| (self.circles[i], false))
            .chain(edit.add.iter().map(|&c| (c, true)))
            .map(|(c, is_add)| (c, c.r * c.r, disk_row_range(&c, &frame), is_add))
            .filter(|(_, _, (lo, hi), _)| lo <= hi)
            .collect();
        let y0 = disks.iter().map(|&(.., (lo, _), _)| lo).min();
        let y1 = disks.iter().map(|&(.., (_, hi), _)| hi).max();
        let (y0, y1) = (y0.unwrap_or(i64::MAX), y1.unwrap_or(i64::MIN));
        let mut delta = 0.0;
        let mut tally = SpanTally::default();
        let mut spans: Vec<Span> = Vec::with_capacity(disks.len());
        for py in y0..=y1 {
            spans.clear();
            for (c, r2, (lo, hi), is_add) in &disks {
                if (*lo..=*hi).contains(&py) {
                    if let Some((x0, x1)) = disk_row_span(c, *r2, py, &frame) {
                        spans.push((x0, x1, *is_add));
                    }
                }
            }
            spans.sort_unstable_by_key(|s| s.0);
            sweep_row(&self.coverage, gain, py, &spans, &mut delta, &mut tally);
        }
        tally.flush();
        delta
    }

    /// Pairwise-overlap-area delta of `edit`, computed without mutating the
    /// configuration. Matches the accounting of [`Configuration::apply`].
    #[must_use]
    pub fn delta_overlap_readonly(&self, edit: &Edit, model: &NucleiModel) -> f64 {
        let mut d = 0.0;
        // Pairs lost: removed × survivors, plus pairs among removed.
        for (pos, &ri) in edit.remove.iter().enumerate() {
            let c = self.circles[ri];
            d -= self.overlap_with(&c, &edit.remove, model);
            for &rj in &edit.remove[pos + 1..] {
                d -= c.intersection_area(&self.circles[rj]);
            }
        }
        // Pairs gained: added × survivors, plus pairs among added.
        for (pos, a) in edit.add.iter().enumerate() {
            d += self.overlap_with(a, &edit.remove, model);
            for b in &edit.add[pos + 1..] {
                d += a.intersection_area(b);
            }
        }
        d
    }

    /// Number of close pairs (< `max_dist`) the configuration would have
    /// after applying `edit`, computed without mutating it. Needed by the
    /// split move's reverse-merge selection probability.
    #[must_use]
    pub fn count_close_pairs_after_edit(&self, edit: &Edit, max_dist: f64) -> usize {
        let mut n = self.count_close_pairs(max_dist) as i64;
        // Pairs lost with removed circles (removed-removed counted once).
        for (pos, &ri) in edit.remove.iter().enumerate() {
            let c = self.circles[ri];
            self.spatial.for_neighbors(c.x, c.y, max_dist, |j| {
                if j == ri {
                    return;
                }
                let earlier_removed = edit.remove[..pos].contains(&j);
                if !earlier_removed && c.centre_distance(&self.circles[j]) < max_dist {
                    n -= 1;
                }
            });
        }
        // Pairs gained: added × survivors.
        for (pos, a) in edit.add.iter().enumerate() {
            self.spatial.for_neighbors(a.x, a.y, max_dist, |j| {
                if !edit.remove.contains(&j) && a.centre_distance(&self.circles[j]) < max_dist {
                    n += 1;
                }
            });
            // Added × added.
            for b in &edit.add[pos + 1..] {
                if a.centre_distance(b) < max_dist {
                    n += 1;
                }
            }
        }
        n.max(0) as usize
    }

    /// Counts unordered pairs of circles with centre distance below
    /// `max_dist` (merge candidates), through the memoised pair list.
    #[must_use]
    pub fn count_close_pairs(&self, max_dist: f64) -> usize {
        let mut memo = self.pair_cache.lock().unwrap();
        crate::perf::record_pair_count_query(memo.key == Some(max_dist.to_bits()));
        self.refresh_pairs(&mut memo, max_dist);
        memo.pairs.len()
    }

    /// Enumerates the close pairs for `max_dist` into `memo` unless it
    /// already holds them.
    fn refresh_pairs(&self, memo: &mut PairMemo, max_dist: f64) {
        let key = Some(max_dist.to_bits());
        if memo.key == key {
            return;
        }
        memo.pairs.clear();
        for (i, c) in self.circles.iter().enumerate() {
            self.spatial.for_neighbors(c.x, c.y, max_dist, |j| {
                if j > i && c.centre_distance(&self.circles[j]) < max_dist {
                    memo.pairs.push((i, j));
                }
            });
        }
        memo.key = key;
    }

    /// The `n`-th (0-based) unordered close pair in the enumeration order
    /// of [`Configuration::list_close_pairs`] — with the memoised
    /// [`Configuration::count_close_pairs`] and one index draw, the merge
    /// proposal's uniform pair pick. It reads the memo the count left
    /// behind: walking the spatial index to the drawn pair instead cost a
    /// merge proposal up to 6 µs, depending on where in the circle list
    /// the scene's close pairs happened to sit. `None` when fewer than
    /// `n + 1` pairs exist (callers treat that as an invalid proposal).
    #[must_use]
    pub fn nth_close_pair(&self, max_dist: f64, n: usize) -> Option<(usize, usize)> {
        let mut memo = self.pair_cache.lock().unwrap();
        self.refresh_pairs(&mut memo, max_dist);
        memo.pairs.get(n).copied()
    }

    /// Lists unordered pairs `(i, j)`, `i < j`, with centre distance below
    /// `max_dist`. Counting callers should use
    /// [`Configuration::count_close_pairs`].
    #[must_use]
    pub fn list_close_pairs(&self, max_dist: f64) -> Vec<(usize, usize)> {
        let mut memo = self.pair_cache.lock().unwrap();
        self.refresh_pairs(&mut memo, max_dist);
        memo.pairs.clone()
    }

    /// Full cache-consistency check against from-scratch recomputation.
    /// Used by tests and by the samplers' debug assertions.
    ///
    /// # Errors
    /// Describes the first inconsistent cache found.
    pub fn verify_consistency(&self, model: &NucleiModel) -> Result<(), String> {
        let frame = Rect::of_image(model.params.width, model.params.height);
        let (fresh_cov, fresh_lik) = CoverageGrid::from_circles(frame, &self.circles, &model.gain);
        if fresh_cov != self.coverage {
            return Err("coverage grid out of sync".into());
        }
        if (fresh_lik - self.log_lik).abs() > 1e-6 * (1.0 + fresh_lik.abs()) {
            return Err(format!(
                "log-lik cache {} vs recomputed {}",
                self.log_lik, fresh_lik
            ));
        }
        let mut fresh_overlap = 0.0;
        for (i, a) in self.circles.iter().enumerate() {
            for b in self.circles.iter().skip(i + 1) {
                fresh_overlap += a.intersection_area(b);
            }
        }
        if (fresh_overlap - self.overlap_area).abs() > 1e-6 * (1.0 + fresh_overlap.abs()) {
            return Err(format!(
                "overlap cache {} vs recomputed {}",
                self.overlap_area, fresh_overlap
            ));
        }
        if self.spatial.len() != self.circles.len() {
            return Err(format!(
                "spatial index holds {} entries for {} circles",
                self.spatial.len(),
                self.circles.len()
            ));
        }
        Ok(())
    }
}

/// Read-only row-span evaluation of the log-likelihood delta of removing
/// and adding at most [`SPAN_DISKS`] disks (`(circle, is_add)`) on `grid` —
/// the one evaluator behind [`Configuration::delta_log_lik_readonly`] and
/// the tile workers' local moves.
///
/// **Rows.** Each disk has its own clipped row range
/// ([`crate::coverage::disk_row_range`]); the walker visits, in ascending
/// `y`, only the rows inside some range and jumps over the rest — a
/// replace whose old and new circle sit hundreds of rows apart pays for
/// two disks, not for the gap. A disk wholly above or below the frame has
/// an empty range and is neither walked nor jumped to.
///
/// **Segments.** A row's spans ([`crate::coverage::disk_row_span`]) are
/// merged into contiguous runs ([`sweep_row`]), each run is cut where a
/// span starts or ends ([`sweep_run`]), and every constant-net segment is
/// resolved by
/// [`CoverageGrid::segment_delta`] — from the occupancy bitsets alone
/// unless two removed disks overlap there.
///
/// **Cold rows.** An added disk that no removed disk is near — a birth or
/// a replace — lands on table rows that are in nobody's cache, and the
/// walk would miss on them one row after the other. Its prefix-table and
/// occupancy lines are therefore prefetched before the walk starts. Disks
/// that overlap a removed one (translate, resize, split, merge) find
/// their rows in L2, where a prefetch only costs a load slot.
pub(crate) fn span_delta_log_lik(
    grid: &CoverageGrid,
    disks: &[(Circle, bool)],
    gain: &Gain,
) -> f64 {
    debug_assert!(
        disks.len() <= SPAN_DISKS,
        "span walker holds {SPAN_DISKS} disks"
    );
    let frame = grid.rect();
    let nd = disks.len();
    // Per disk: clipped row range — (MAX, MIN) when empty, which holds no
    // row and is never the nearest range ahead — and squared radius.
    let mut rows = [(i64::MAX, i64::MIN); SPAN_DISKS];
    let mut r2 = [0.0f64; SPAN_DISKS];
    let mut y_last = i64::MIN;
    for (k, (c, is_add)) in disks.iter().enumerate() {
        let (lo, hi) = disk_row_range(c, &frame);
        if lo > hi {
            continue;
        }
        rows[k] = (lo, hi);
        r2[k] = c.r * c.r;
        y_last = y_last.max(hi);
        let cold = *is_add
            && disks.iter().all(|(d, d_add)| {
                let apart = c.r + d.r + 1.0;
                *d_add || (c.x - d.x).abs() > apart || (c.y - d.y).abs() > apart
            });
        if cold {
            for_each_disk_row(c, &frame, |y, x0, x1| {
                gain.prefetch_span_prefix(y as u32, x0 as usize, x1 as usize);
                grid.prefetch_occupancy(y, x0, x1);
            });
        }
    }
    let mut delta = 0.0;
    let mut tally = SpanTally::default();
    let mut py = rows[..nd].iter().map(|r| r.0).min().unwrap_or(i64::MAX);
    while py <= y_last {
        // This row's spans, and the nearest range that starts below it.
        let mut spans: [Span; SPAN_DISKS] = [(0, 0, false); SPAN_DISKS];
        let mut ns = 0;
        let mut reached = false;
        let mut ahead = i64::MAX;
        for k in 0..nd {
            let (lo, hi) = rows[k];
            if py < lo {
                ahead = ahead.min(lo);
            } else if py <= hi {
                reached = true;
                let (c, is_add) = &disks[k];
                if let Some((x0, x1)) = disk_row_span(c, r2[k], py, &frame) {
                    spans[ns] = (x0, x1, *is_add);
                    ns += 1;
                }
            }
        }
        if !reached {
            // Between two disks (`y_last` ends a range, so one is ahead).
            py = ahead;
            continue;
        }
        let (a, b) = (spans[0], spans[1]);
        if ns == 1 {
            delta += grid.one_disk_delta(gain, py, (a.0, a.1), a.2, &mut tally);
        } else if ns == 2 && a.2 != b.2 && a.0.max(b.0) <= a.1.min(b.1) + 1 {
            // The move shape — a removed and an added span that touch.
            // Where both lie nothing can flip, which leaves a sliver of
            // the span that starts first and a sliver of the one that ends
            // last. (`sweep_run` would find the same three segments; going
            // straight to them takes 15 % off a translate or resize.)
            let (both0, both1) = (a.0.max(b.0), a.1.min(b.1));
            if a.0 != b.0 {
                let (x0, is_add) = if a.0 < b.0 { (a.0, a.2) } else { (b.0, b.2) };
                let sliver = (x0, both0 - 1);
                delta += grid.one_disk_delta(gain, py, sliver, is_add, &mut tally);
            }
            tally.skipped += (both1 - both0 + 1) as u64;
            if a.1 != b.1 {
                let (x1, is_add) = if a.1 > b.1 { (a.1, a.2) } else { (b.1, b.2) };
                let sliver = (both1 + 1, x1);
                delta += grid.one_disk_delta(gain, py, sliver, is_add, &mut tally);
            }
        } else {
            // Insertion sort by start (at most four spans).
            for i in 1..ns {
                let mut j = i;
                while j > 0 && spans[j - 1].0 > spans[j].0 {
                    spans.swap(j - 1, j);
                    j -= 1;
                }
            }
            sweep_row(grid, gain, py, &spans[..ns], &mut delta, &mut tally);
        }
        py += 1;
    }
    tally.flush();
    delta
}

/// Resolves one row's spans (sorted by start): splits them into maximal
/// runs of touching or overlapping spans and sweeps each, left to right.
#[inline]
fn sweep_row(
    grid: &CoverageGrid,
    gain: &Gain,
    py: i64,
    spans: &[Span],
    delta: &mut f64,
    tally: &mut SpanTally,
) {
    let mut i = 0;
    while i < spans.len() {
        let mut hi = spans[i].1;
        let mut j = i + 1;
        while j < spans.len() && spans[j].0 <= hi + 1 {
            hi = hi.max(spans[j].1);
            j += 1;
        }
        sweep_run(grid, gain, py, &spans[i..j], hi, delta, tally);
        i = j;
    }
}

/// Sweeps one merged run of row `py` — `spans`, sorted by start, which
/// together cover every pixel up to `hi`: cuts it into segments over which
/// the set of active spans — hence the numbers of added and removed disks
/// over every pixel — is constant, and adds each segment's
/// [`CoverageGrid::segment_delta`] to `delta`, left to right. A run of one
/// span is one segment; a move's removed/added pair is at most a sliver on
/// either side of an intersection that resolves to nothing.
#[inline]
fn sweep_run(
    grid: &CoverageGrid,
    gain: &Gain,
    py: i64,
    spans: &[Span],
    hi: i64,
    delta: &mut f64,
    tally: &mut SpanTally,
) {
    let mut x = spans[0].0;
    while x <= hi {
        // Next segment boundary: the nearest span start or end beyond `x`.
        let mut next = hi + 1;
        let mut minus = 0;
        let mut plus = 0;
        for &(sx0, sx1, is_add) in spans {
            if sx0 > x {
                next = next.min(sx0);
                continue;
            }
            if sx1 >= x {
                if is_add {
                    plus += 1;
                } else {
                    minus += 1;
                }
                next = next.min(sx1 + 1);
            }
        }
        *delta += grid.segment_delta(gain, py, (x, next - 1), (plus, minus), tally);
        x = next;
    }
}

/// Point-process count log-density for `k` circles under intensity
/// `lambda`: `k·ln λ − λ` (set convention, see
/// [`Configuration::log_prior`]).
#[must_use]
pub fn count_log_prior(k: usize, lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return if k == 0 { 0.0 } else { f64::NEG_INFINITY };
    }
    k as f64 * lambda.ln() - lambda
}

/// Samples `Poisson(lambda)` (Knuth's method with a normal approximation
/// for large means).
pub fn sample_poisson(lambda: f64, rng: &mut impl rand::Rng) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda > 400.0 {
        // Normal approximation, adequate for initial-state generation.
        let z = crate::rng::standard_normal(rng);
        return (lambda + lambda.sqrt() * z).round().max(0.0) as usize;
    }
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ModelParams;
    use crate::rng::Xoshiro256;
    use pmcmc_imaging::GrayImage;
    use rand::Rng;

    fn test_model(w: u32, h: u32) -> NucleiModel {
        let params = ModelParams::new(w, h, 6.0, 8.0);
        let img = GrayImage::from_fn(w, h, |x, y| ((x * 7 + y * 3) % 11) as f32 / 11.0);
        NucleiModel::new(&img, params)
    }

    #[test]
    fn empty_configuration_has_zero_caches() {
        let m = test_model(64, 64);
        let cfg = Configuration::empty(&m);
        assert!(cfg.is_empty());
        assert_eq!(cfg.log_lik(), 0.0);
        assert_eq!(cfg.overlap_area(), 0.0);
        cfg.verify_consistency(&m).unwrap();
    }

    #[test]
    fn apply_add_updates_caches() {
        let m = test_model(64, 64);
        let mut cfg = Configuration::empty(&m);
        let r = cfg.apply(&Edit::add_one(Circle::new(30.0, 30.0, 8.0)), &m);
        assert_eq!(cfg.len(), 1);
        assert_eq!(r.n_added, 1);
        assert!((cfg.log_lik() - r.d_log_lik).abs() < 1e-12);
        cfg.verify_consistency(&m).unwrap();
    }

    #[test]
    fn apply_then_revert_restores_caches() {
        let m = test_model(64, 64);
        let mut cfg = Configuration::from_circles(
            &m,
            &[
                Circle::new(20.0, 20.0, 8.0),
                Circle::new(26.0, 22.0, 7.0),
                Circle::new(50.0, 50.0, 6.0),
            ],
        );
        let lik0 = cfg.log_lik();
        let ov0 = cfg.overlap_area();
        // A merge-like edit: remove two, add one.
        let edit = Edit {
            remove: vec![0, 1],
            add: vec![Circle::new(23.0, 21.0, 7.5)],
        };
        let receipt = cfg.apply(&edit, &m);
        assert_eq!(cfg.len(), 2);
        cfg.verify_consistency(&m).unwrap();
        cfg.revert(&receipt, &m);
        assert_eq!(cfg.len(), 3);
        assert!((cfg.log_lik() - lik0).abs() < 1e-6);
        assert!((cfg.overlap_area() - ov0).abs() < 1e-6);
        cfg.verify_consistency(&m).unwrap();
    }

    #[test]
    fn overlap_counted_once_per_pair() {
        let m = test_model(64, 64);
        let a = Circle::new(30.0, 30.0, 8.0);
        let b = Circle::new(36.0, 30.0, 8.0);
        let cfg = Configuration::from_circles(&m, &[a, b]);
        assert!((cfg.overlap_area() - a.intersection_area(&b)).abs() < 1e-9);
    }

    #[test]
    fn random_edits_keep_caches_consistent() {
        let m = test_model(96, 96);
        let mut rng = Xoshiro256::new(99);
        let mut cfg = Configuration::empty(&m);
        for step in 0..300 {
            let choice: f64 = rng.gen();
            if cfg.is_empty() || choice < 0.5 {
                let c = Circle::new(
                    rng.gen_range(0.0..96.0),
                    rng.gen_range(0.0..96.0),
                    rng.gen_range(3.3..16.0),
                );
                cfg.apply(&Edit::add_one(c), &m);
            } else if choice < 0.8 {
                let i = rng.gen_range(0..cfg.len());
                cfg.apply(&Edit::remove_one(i), &m);
            } else {
                let i = rng.gen_range(0..cfg.len());
                let c = Circle::new(
                    rng.gen_range(0.0..96.0),
                    rng.gen_range(0.0..96.0),
                    rng.gen_range(3.3..16.0),
                );
                cfg.apply(&Edit::replace_one(i, c), &m);
            }
            if step % 37 == 0 {
                cfg.verify_consistency(&m)
                    .unwrap_or_else(|e| panic!("step {step}: {e}"));
            }
        }
        cfg.verify_consistency(&m).unwrap();
    }

    #[test]
    fn log_prior_penalises_overlap() {
        let m = test_model(64, 64);
        let apart = Configuration::from_circles(
            &m,
            &[Circle::new(15.0, 15.0, 8.0), Circle::new(50.0, 50.0, 8.0)],
        );
        let together = Configuration::from_circles(
            &m,
            &[Circle::new(30.0, 30.0, 8.0), Circle::new(33.0, 30.0, 8.0)],
        );
        assert!(apart.log_prior(&m) > together.log_prior(&m));
    }

    #[test]
    fn close_pairs_enumeration() {
        let m = test_model(128, 128);
        let cfg = Configuration::from_circles(
            &m,
            &[
                Circle::new(20.0, 20.0, 8.0),
                Circle::new(28.0, 20.0, 8.0), // 8 away from first
                Circle::new(100.0, 100.0, 8.0),
            ],
        );
        assert_eq!(cfg.count_close_pairs(10.0), 1);
        let pairs = cfg.list_close_pairs(10.0);
        assert_eq!(pairs, vec![(0, 1)]);
        assert_eq!(cfg.count_close_pairs(200.0), 3);
        assert_eq!(cfg.count_close_pairs(1.0), 0);
    }

    /// Read-only delta (the span walker, up to [`SPAN_DISKS`] disks) ≡
    /// general path ≡ what applying the edit reports, on both lane
    /// backends; the configuration is left as it was found.
    fn assert_readonly_matches_apply(cfg: &mut Configuration, edit: &Edit, m: &NucleiModel) {
        let detected = crate::simd::backend();
        for backend in [crate::simd::Backend::Scalar, crate::simd::Backend::Avx2] {
            crate::simd::force_backend(backend);
            let fast = cfg.delta_log_lik_readonly(edit, m);
            let slow = cfg.delta_log_lik_general(edit, m);
            let receipt = cfg.apply(edit, m);
            cfg.revert(&receipt, m);
            assert!(
                (fast - slow).abs() < 1e-9,
                "{backend:?}: span {fast} vs general {slow} for {edit:?}"
            );
            assert!(
                (fast - receipt.d_log_lik).abs() < 1e-9,
                "{backend:?}: span {fast} vs applied {} for {edit:?}",
                receipt.d_log_lik
            );
        }
        crate::simd::force_backend(detected);
    }

    #[test]
    fn span_walker_matches_general_path() {
        let m = test_model(96, 96);
        let mut rng = Xoshiro256::new(21);
        let mut cfg = Configuration::empty(&m);
        for _ in 0..12 {
            cfg.apply(
                &Edit::add_one(Circle::new(
                    rng.gen_range(-4.0..100.0),
                    rng.gen_range(-4.0..100.0),
                    rng.gen_range(3.3..16.0),
                )),
                &m,
            );
        }
        for _ in 0..300 {
            let n_remove = rng.gen_range(0..2usize.min(cfg.len()) + 1);
            let mut remove = Vec::new();
            while remove.len() < n_remove {
                let i = rng.gen_range(0..cfg.len());
                if !remove.contains(&i) {
                    remove.push(i);
                }
            }
            let n_add = rng.gen_range(0..SPAN_DISKS - n_remove + 1);
            let add: Vec<Circle> = (0..n_add)
                .map(|_| {
                    Circle::new(
                        rng.gen_range(-4.0..100.0),
                        rng.gen_range(-4.0..100.0),
                        rng.gen_range(0.4..16.0),
                    )
                })
                .collect();
            assert_readonly_matches_apply(&mut cfg, &Edit { remove, add }, &m);
        }
    }

    /// The `(plus, minus)` pairs an edit produces somewhere on the image:
    /// per pixel, how many added and how many removed disks cover it.
    fn segment_shapes(cfg: &Configuration, edit: &Edit, m: &NucleiModel) -> Vec<(usize, usize)> {
        let mut shapes = Vec::new();
        for y in 0..i64::from(m.params.height) {
            for x in 0..i64::from(m.params.width) {
                let plus = edit.add.iter().filter(|c| c.covers_pixel(x, y)).count();
                let minus = edit
                    .remove
                    .iter()
                    .filter(|&&i| cfg.circle(i).covers_pixel(x, y))
                    .count();
                if plus + minus > 0 && !shapes.contains(&(plus, minus)) {
                    shapes.push((plus, minus));
                }
            }
        }
        shapes.sort_unstable();
        shapes
    }

    /// The shapes the walker treats specially, each pinned to the apply
    /// receipt: rows nobody reaches between two disks, disks off the frame
    /// on every side, and split/merge triples through every kind of
    /// segment — over ground that is part empty, part singly and part
    /// doubly covered.
    #[test]
    fn span_walker_handles_gaps_off_frame_disks_and_every_segment_shape() {
        let m = test_model(64, 640);
        let mut cfg = Configuration::from_circles(
            &m,
            &[
                Circle::new(30.0, 50.0, 9.0),   // 0: replaced far away
                Circle::new(30.0, 300.0, 10.0), // 1: split parent / merge partner
                Circle::new(41.0, 300.0, 9.0),  // 2: merge partner, overlaps 1
                Circle::new(33.0, 291.0, 8.0),  // 3: bystander over 1 and 2
                Circle::new(2.0, 620.0, 7.0),   // 4: clipped by the left edge
            ],
        );

        // A replace whose circles are ~490 rows apart, and one that leaves
        // the frame altogether.
        let far = Edit::replace_one(0, Circle::new(34.0, 540.0, 8.5));
        assert_readonly_matches_apply(&mut cfg, &far, &m);
        let gone = Edit::replace_one(0, Circle::new(30.0, 700.0, 9.0));
        assert_readonly_matches_apply(&mut cfg, &gone, &m);

        // Disks wholly above, below and beside the frame (and all of them
        // at once, which takes the general path), each with one inside.
        let inside = Circle::new(20.0, 400.0, 6.0);
        let off_frame = [
            Circle::new(30.0, -40.0, 10.0),
            Circle::new(30.0, 700.0, 10.0),
            Circle::new(-30.0, 320.0, 10.0),
            Circle::new(95.0, 320.0, 10.0),
        ];
        for c in off_frame {
            let edit = Edit {
                remove: vec![4],
                add: vec![c, inside],
            };
            assert_readonly_matches_apply(&mut cfg, &edit, &m);
            assert_eq!(cfg.delta_log_lik_spans(&Edit::add_one(c), &m), 0.0);
        }
        let mut all = off_frame.to_vec();
        all.push(inside);
        let edit = Edit {
            remove: vec![4],
            add: all,
        };
        assert_readonly_matches_apply(&mut cfg, &edit, &m);

        // Split: children that overlap each other inside the parent (+2
        // under a removed disk), outside it (+2), and stick out alone (+1).
        let split = Edit {
            remove: vec![1],
            add: vec![Circle::new(27.0, 293.0, 9.0), Circle::new(34.0, 293.0, 9.0)],
        };
        assert_eq!(
            segment_shapes(&cfg, &split, &m),
            [(0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
        );
        assert_readonly_matches_apply(&mut cfg, &split, &m);

        // Merge: partners that overlap outside the merged disk (−2) and
        // under it (−1 under an added disk), and a merged disk that sticks
        // out (+1).
        let merge = Edit {
            remove: vec![1, 2],
            add: vec![Circle::new(35.0, 306.0, 7.0)],
        };
        assert_eq!(
            segment_shapes(&cfg, &merge, &m),
            [(0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
        );
        assert_readonly_matches_apply(&mut cfg, &merge, &m);
        cfg.verify_consistency(&m).unwrap();
    }

    #[test]
    fn pair_cache_survives_queries_and_invalidates_on_mutation() {
        let m = test_model(128, 128);
        let mut cfg = Configuration::from_circles(
            &m,
            &[
                Circle::new(20.0, 20.0, 8.0),
                Circle::new(28.0, 20.0, 8.0),
                Circle::new(100.0, 100.0, 8.0),
            ],
        );
        // Repeated queries at one distance agree; switching distances
        // (cache keyed on the exact bits) recomputes correctly.
        assert_eq!(cfg.count_close_pairs(10.0), 1);
        assert_eq!(cfg.count_close_pairs(10.0), 1);
        assert_eq!(cfg.count_close_pairs(200.0), 3);
        assert_eq!(cfg.count_close_pairs(10.0), 1);
        // list primes the memo with its own distance.
        assert_eq!(cfg.list_close_pairs(200.0).len(), 3);
        assert_eq!(cfg.count_close_pairs(200.0), 3);
        // Mutation invalidates: a new close pair must be seen.
        cfg.apply(&Edit::add_one(Circle::new(102.0, 100.0, 8.0)), &m);
        assert_eq!(cfg.count_close_pairs(10.0), 2);
        cfg.apply(&Edit::remove_one(3), &m);
        assert_eq!(cfg.count_close_pairs(10.0), 1);
        // The n-th pair is the list's n-th entry, whichever distance the
        // memo held before, and a mutation is seen there too.
        let pairs = cfg.list_close_pairs(200.0);
        assert_eq!(cfg.nth_close_pair(10.0, 0), Some((0, 1)));
        for (n, &pair) in pairs.iter().enumerate() {
            assert_eq!(cfg.nth_close_pair(200.0, n), Some(pair));
        }
        assert_eq!(cfg.nth_close_pair(200.0, pairs.len()), None);
        cfg.apply(&Edit::remove_one(0), &m);
        assert_eq!(cfg.nth_close_pair(10.0, 0), None);
    }

    #[test]
    fn poisson_sampler_mean() {
        let mut rng = Xoshiro256::new(4);
        for &lambda in &[0.5, 4.0, 30.0, 150.0] {
            let n = 3000;
            let mean: f64 = (0..n)
                .map(|_| sample_poisson(lambda, &mut rng) as f64)
                .sum::<f64>()
                / n as f64;
            assert!(
                (mean - lambda).abs() < 4.0 * (lambda / n as f64).sqrt() + 0.1,
                "lambda {lambda}: mean {mean}"
            );
        }
        assert_eq!(sample_poisson(0.0, &mut rng), 0);
    }

    #[test]
    fn random_init_roughly_poisson() {
        let m = test_model(128, 128);
        let mut rng = Xoshiro256::new(10);
        let counts: Vec<usize> = (0..200)
            .map(|_| Configuration::random_init(&m, &mut rng).len())
            .collect();
        let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        assert!((mean - 6.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "duplicate removal")]
    fn duplicate_removal_panics() {
        let m = test_model(64, 64);
        let mut cfg = Configuration::from_circles(&m, &[Circle::new(20.0, 20.0, 8.0)]);
        let edit = Edit {
            remove: vec![0, 0],
            add: vec![],
        };
        cfg.apply(&edit, &m);
    }
}
