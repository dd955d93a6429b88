//! The chain state: a circle configuration with incremental caches.
//!
//! A chain's state is in two parts. The grid-free part, `ChainState`, holds
//! the circles, the row spans each was added with, a spatial index and, per
//! circle, its total lens area with all the others — what lets the samplers
//! bound a proposal's overlap term before computing it. It is the one
//! implementation of neighbour lens sums, of an edit's overlap and
//! likelihood deltas and of replace-in-place, each handed the coverage grid
//! it reads or writes. [`Configuration`] is that state over the image plus
//! its own coverage grid, two running sums (log-likelihood relative to the
//! empty configuration, and total pairwise overlap area) and a memo of
//! close pairs; a local phase's [`crate::tile::TileState`] is the same state
//! over the circles centred in one tile, run on a grid it is lent. All moves
//! are applied through [`Edit`]s, which return a [`Receipt`] carrying the
//! cache deltas needed by the Metropolis–Hastings ratio and enough
//! information to build the exact inverse edit when a proposal is rejected.
//!
//! A proposal's likelihood delta is computed read-only, by
//! `span_delta_log_lik` — the one evaluator of the sequential sampler,
//! the tile workers, the speculative lanes and the (MC)³ chains. It hands
//! the edit's disks, as span tables, to the kernel for their shape in
//! [`crate::coverage`]; every live circle keeps the table it was added
//! with, so an evaluation tabulates only the circles it proposes. The
//! kernels answer as the row walker `walk_delta_log_lik` does, bit for
//! bit and count for count (**same segments, same order, same formula** —
//! see [`crate::coverage`]); the walker stays as the fallback for disks no
//! table holds and as the oracle the tests hold the kernels to.

use crate::coverage::{
    disk_row_range, disk_row_span, sweep_row, CoverageGrid, EditDisk, Span, SpanTally, SPAN_DISKS,
};
use crate::likelihood::Gain;
use crate::model::NucleiModel;
use crate::spans::SpanTable;
use crate::spatial::SpatialGrid;
use pmcmc_imaging::{Circle, Rect};

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

/// The grid-free part of a chain state: the circles, the row spans each one
/// was added with, a spatial index over their centres (slot numbers as ids)
/// and each one's summed lens area with every other circle. A
/// [`Configuration`] holds one over the image; a local phase's tile holds
/// one over the circles centred in it, copied from the master. It is the
/// one implementation of neighbour lens sums, of an edit's overlap and
/// likelihood deltas and of replace-in-place; whatever reads or writes
/// cover counts takes the grid it works on.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ChainState {
    circles: Vec<Circle>,
    /// Slot for slot the row spans of `circles`, each filled when its
    /// circle was added.
    spans: Vec<SpanTable>,
    spatial: SpatialGrid,
    /// Slot for slot each circle's summed lens area with all the other
    /// circles, kept up to date from the pairwise areas the edits compute
    /// anyway.
    overlap_of: Vec<f64>,
    /// The largest radius: a circle's lens partners are centred within its
    /// own radius plus this.
    r_max: f64,
}

impl ChainState {
    /// No circles, indexed over `rect`.
    pub(crate) fn over(rect: Rect, r_max: f64) -> Self {
        Self {
            circles: Vec::new(),
            spans: Vec::new(),
            spatial: SpatialGrid::over(rect, 2.0 * r_max),
            overlap_of: Vec::new(),
            r_max,
        }
    }

    /// Drops every circle and indexes `rect` instead, keeping the storage.
    pub(crate) fn reset(&mut self, rect: Rect) {
        self.circles.clear();
        self.spans.clear();
        self.overlap_of.clear();
        self.spatial.reset(rect, 2.0 * self.r_max);
    }

    /// Appends `c` with its row spans and its summed lens area, both
    /// already known (a tile copies them from the master).
    pub(crate) fn push(&mut self, c: Circle, spans: SpanTable, overlap: f64) {
        self.spatial.insert(self.circles.len(), &c);
        self.circles.push(c);
        self.spans.push(spans);
        self.overlap_of.push(overlap);
    }

    pub(crate) fn len(&self) -> usize {
        self.circles.len()
    }

    pub(crate) fn circles(&self) -> &[Circle] {
        &self.circles
    }

    pub(crate) fn overlap_of(&self, i: usize) -> f64 {
        self.overlap_of[i]
    }

    pub(crate) fn span_table(&self, i: usize) -> &SpanTable {
        &self.spans[i]
    }

    /// Calls `f(j, area)` with the lens area of `c` and every indexed circle
    /// `j` in reach but those in `exclude`, in the spatial index's order:
    /// the one neighbour lens sum, whatever the sum is for.
    fn lenses(&self, c: &Circle, exclude: &[usize], mut f: impl FnMut(usize, f64)) {
        self.spatial.for_neighbors(c.x, c.y, c.r + self.r_max, |j| {
            if !exclude.contains(&j) {
                f(j, c.intersection_area(&self.circles[j]));
            }
        });
    }

    /// The lens areas of `c` with every indexed circle but `skip`, summed,
    /// and added `sign ×` to each neighbour's `overlap_of` entry: `+1.0`
    /// when `c` joins, `−1.0` when it leaves.
    fn link(&mut self, c: &Circle, skip: usize, sign: f64) -> f64 {
        let mut overlap_of = std::mem::take(&mut self.overlap_of);
        let mut total = 0.0;
        self.lenses(c, &[skip], |j, a| {
            overlap_of[j] += sign * a;
            total += a;
        });
        self.overlap_of = overlap_of;
        total
    }

    /// Adds `c`, its spans tabulated on `grid`, to the state and the grid;
    /// returns its summed lens area and the log-likelihood change.
    fn add(&mut self, grid: &mut CoverageGrid, c: Circle, gain: &Gain) -> (f64, f64) {
        let overlap = self.link(&c, usize::MAX, 1.0);
        let spans = SpanTable::of(&c, &grid.rect());
        let d_log_lik = grid.add_disk(&c, &spans, gain);
        self.push(c, spans, overlap);
        (overlap, d_log_lik)
    }

    /// Removes circle `i` from the state and the grid (the last circle takes
    /// its slot); returns it, its summed lens area with the circles still
    /// indexed and the log-likelihood change.
    fn remove(&mut self, grid: &mut CoverageGrid, i: usize, gain: &Gain) -> (Circle, f64, f64) {
        let c = self.circles[i];
        let overlap = self.link(&c, i, -1.0);
        let d_log_lik = grid.remove_disk(&c, &self.spans[i], gain);
        self.spatial.remove(i, &c);
        let last = self.circles.len() - 1;
        if i != last {
            self.spatial.rename(last, i, &self.circles[last]);
        }
        self.circles.swap_remove(i);
        self.spans.swap_remove(i);
        self.overlap_of.swap_remove(i);
        (c, overlap, d_log_lik)
    }

    /// Replaces circle `i` with `new`, whose row spans on `grid` are
    /// `spans`, on the grid, the spatial index and the lens areas — an
    /// accepted local move, and its replay on the master. The grid's gains
    /// are dropped: the move was priced before it was made.
    pub(crate) fn replace(
        &mut self,
        grid: &mut CoverageGrid,
        i: usize,
        new: Circle,
        spans: &SpanTable,
        gain: &Gain,
    ) {
        let old = self.circles[i];
        grid.remove_disk(&old, &self.spans[i], gain);
        self.spans[i] = *spans;
        grid.add_disk(&new, spans, gain);
        self.link(&old, i, -1.0);
        self.spatial.relocate(i, &old, &new);
        self.circles[i] = new;
        self.overlap_of[i] = self.link(&new, i, 1.0);
    }

    /// Log-likelihood delta of `edit` on `grid`, read-only, the work counted
    /// into `scratch.tally` and the added disks' spans left in
    /// `scratch.added`.
    #[inline]
    pub(crate) fn delta_log_lik(
        &self,
        grid: &CoverageGrid,
        edit: &Edit,
        gain: &Gain,
        scratch: &mut EvalScratch,
    ) -> f64 {
        let EvalScratch { tally, added } = scratch;
        // Every RJMCMC move removes at most two disks and adds at most two
        // (merge: 2 − 1; split: 1 − 2). Larger edits (batch manipulations
        // from drivers) have their rows walked.
        if edit.remove.len() > 2 || edit.add.len() > added.len() {
            let disks = self.edit_disks(edit);
            return walk_delta_log_lik(grid, gain, &disks, tally);
        }
        let frame = grid.rect();
        // One disk out and one in — translate, resize, replace, every tile
        // move — in an array of known length: the kernel for the shape is
        // picked at compile time, which took a few percent off a tile
        // iteration.
        if let ([i], [c]) = (edit.remove.as_slice(), edit.add.as_slice()) {
            added[0].fill(c, &frame);
            let removed = EditDisk {
                circle: self.circles[*i],
                spans: &self.spans[*i],
                is_add: false,
            };
            let added = EditDisk {
                circle: *c,
                spans: &added[0],
                is_add: true,
            };
            return span_delta_log_lik(grid, gain, &[removed, added], tally);
        }
        let mut disks = [EditDisk::NONE; SPAN_DISKS];
        let mut nd = 0;
        for &i in &edit.remove {
            disks[nd] = EditDisk {
                circle: self.circles[i],
                spans: &self.spans[i],
                is_add: false,
            };
            nd += 1;
        }
        for (&circle, spans) in edit.add.iter().zip(added.iter_mut()) {
            spans.fill(&circle, &frame);
            disks[nd] = EditDisk {
                circle,
                spans,
                is_add: true,
            };
            nd += 1;
        }
        span_delta_log_lik(grid, gain, &disks[..nd], tally)
    }

    /// The disks of `edit` as the row walker takes them: `(circle, is_add)`,
    /// removed ones first.
    fn edit_disks(&self, edit: &Edit) -> Vec<(Circle, bool)> {
        let removed = edit.remove.iter().map(|&i| (self.circles[i], false));
        removed.chain(edit.add.iter().map(|&c| (c, true))).collect()
    }

    /// Pairwise-overlap-area delta of `edit`, read-only: the lens areas
    /// gained, then those lost, one at a time in the spatial index's order.
    pub(crate) fn delta_overlap(&self, edit: &Edit) -> f64 {
        let mut d = 0.0;
        // Pairs gained: added × survivors, plus pairs among added.
        for (pos, a) in edit.add.iter().enumerate() {
            self.lenses(a, &edit.remove, |_, area| d += area);
            for b in &edit.add[pos + 1..] {
                d += a.intersection_area(b);
            }
        }
        // Pairs lost: removed × survivors, plus pairs among removed.
        for (pos, &ri) in edit.remove.iter().enumerate() {
            let c = self.circles[ri];
            self.lenses(&c, &edit.remove, |_, area| d -= area);
            for &rj in &edit.remove[pos + 1..] {
                d -= c.intersection_area(&self.circles[rj]);
            }
        }
        d
    }

    /// Checks the kept lens areas and row spans of the circles `ids`
    /// against a from-scratch recomputation over the state's circles, the
    /// spans clipped to `frame`, and the index's size.
    pub(crate) fn verify(
        &self,
        ids: impl Iterator<Item = usize>,
        frame: &Rect,
    ) -> Result<(), String> {
        let n = self.circles.len();
        if (self.spans.len(), self.overlap_of.len(), self.spatial.len()) != (n, n, n) {
            return Err(format!(
                "{} span tables, {} lens areas and {} indexed for {n} circles",
                self.spans.len(),
                self.overlap_of.len(),
                self.spatial.len()
            ));
        }
        for i in ids {
            let c = self.circles[i];
            let fresh: f64 = (self.circles.iter().enumerate())
                .filter(|&(j, _)| j != i)
                .map(|(_, b)| c.intersection_area(b))
                .sum();
            let kept = self.overlap_of[i];
            if (fresh - kept).abs() > 1e-9 * (1.0 + fresh) {
                return Err(format!(
                    "overlap of circle {i}: kept {kept} vs recomputed {fresh}"
                ));
            }
            if self.spans[i] != SpanTable::of(&c, frame) {
                return Err(format!("spans of circle {i} out of date"));
            }
        }
        Ok(())
    }
}

/// The mutable chain state over the whole image: its circles with their
/// row spans, spatial index and lens areas, the coverage grid, the two
/// running sums and a memo of close pairs.
#[derive(Debug)]
pub struct Configuration {
    state: ChainState,
    coverage: CoverageGrid,
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
            state: self.state.clone(),
            coverage: self.coverage.clone(),
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
        let frame = Rect::of_image(model.params.width, model.params.height);
        Self {
            state: ChainState::over(frame, model.r_max()),
            coverage: CoverageGrid::new(frame),
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
        self.state.len()
    }

    /// Whether the configuration is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.state.circles.is_empty()
    }

    /// The circles.
    #[must_use]
    pub fn circles(&self) -> &[Circle] {
        &self.state.circles
    }

    /// One circle.
    #[must_use]
    pub fn circle(&self, i: usize) -> Circle {
        self.state.circles[i]
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

    /// Summed lens area of circle `i` with every other circle. Over the
    /// circles an edit removes, it bounds the overlap area the edit can
    /// lose: `Σ overlap_of(i) ≥ −delta_overlap_readonly`.
    #[must_use]
    pub fn overlap_of(&self, i: usize) -> f64 {
        self.state.overlap_of(i)
    }

    /// The grid-free part of the state.
    pub(crate) const fn state(&self) -> &ChainState {
        &self.state
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
        model.count_log_prior(self.len())
            + self
                .circles()
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
            // Pairs with all *still indexed* circles: pairs among removed
            // circles are thereby counted exactly once.
            let (c, overlap, d) = self.state.remove(&mut self.coverage, i, gain);
            d_overlap -= overlap;
            d_log_lik += d;
            removed.push(c);
        }
        for &c in &edit.add {
            let (overlap, d) = self.state.add(&mut self.coverage, c, gain);
            d_overlap += overlap;
            d_log_lik += d;
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

    /// Merges the moves of a finished tile: each `(index, old, new, spans)`
    /// replaces circle `index`, which must still be `old`, with `new`, whose
    /// row spans on the image are `spans` ([`ChainState::replace`]); then
    /// the tile's accumulated deltas are added to the caches.
    pub(crate) fn absorb<'a>(
        &mut self,
        moves: impl Iterator<Item = (usize, Circle, Circle, &'a SpanTable)>,
        (d_log_lik, d_overlap): (f64, f64),
        gain: &Gain,
    ) {
        for (i, old, new, spans) in moves {
            self.invalidate_pair_cache();
            debug_assert_eq!(self.circle(i), old, "tile update against stale master");
            debug_assert!(
                *spans == SpanTable::of(&new, &self.coverage.rect()),
                "tile table differs from the image's"
            );
            self.state.replace(&mut self.coverage, i, new, spans, gain);
        }
        self.log_lik += d_log_lik;
        self.overlap_area += d_overlap;
    }

    fn invalidate_pair_cache(&mut self) {
        self.pair_cache.get_mut().unwrap().key = None;
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
        let mut scratch = EvalScratch::new();
        let delta = (self.state).delta_log_lik(&self.coverage, edit, &model.gain, &mut scratch);
        scratch.tally.flush();
        delta
    }

    /// Pairwise-overlap-area delta of `edit`, computed without mutating the
    /// configuration. Matches the accounting of [`Configuration::apply`]
    /// up to the order of the float additions.
    #[must_use]
    pub fn delta_overlap_readonly(&self, edit: &Edit, _model: &NucleiModel) -> f64 {
        self.state.delta_overlap(edit)
    }

    /// Number of close pairs (< `max_dist`) the configuration would have
    /// after applying `edit`, computed without mutating it. Needed by the
    /// split move's reverse-merge selection probability.
    #[must_use]
    pub fn count_close_pairs_after_edit(&self, edit: &Edit, max_dist: f64) -> usize {
        let (circles, spatial) = (&self.state.circles, &self.state.spatial);
        let mut n = self.count_close_pairs(max_dist) as i64;
        // Pairs lost with removed circles (removed-removed counted once).
        for (pos, &ri) in edit.remove.iter().enumerate() {
            let c = circles[ri];
            spatial.for_neighbors(c.x, c.y, max_dist, |j| {
                if j == ri {
                    return;
                }
                let earlier_removed = edit.remove[..pos].contains(&j);
                if !earlier_removed && c.centre_distance(&circles[j]) < max_dist {
                    n -= 1;
                }
            });
        }
        // Pairs gained: added × survivors.
        for (pos, a) in edit.add.iter().enumerate() {
            spatial.for_neighbors(a.x, a.y, max_dist, |j| {
                if !edit.remove.contains(&j) && a.centre_distance(&circles[j]) < max_dist {
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
        let (circles, spatial) = (&self.state.circles, &self.state.spatial);
        for (i, c) in circles.iter().enumerate() {
            spatial.for_neighbors(c.x, c.y, max_dist, |j| {
                if j > i && c.centre_distance(&circles[j]) < max_dist {
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
        let circles = self.circles();
        let (fresh_cov, fresh_lik) = CoverageGrid::from_circles(frame, circles, &model.gain);
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
        for (i, a) in circles.iter().enumerate() {
            for b in circles.iter().skip(i + 1) {
                fresh_overlap += a.intersection_area(b);
            }
        }
        if (fresh_overlap - self.overlap_area).abs() > 1e-6 * (1.0 + fresh_overlap.abs()) {
            return Err(format!(
                "overlap cache {} vs recomputed {}",
                self.overlap_area, fresh_overlap
            ));
        }
        self.state.verify(0..circles.len(), &frame)
    }
}

/// What a caller that evaluates many proposals keeps between them: the
/// work counted so far and room for the tables of a proposal's added disks,
/// so that an evaluation neither touches the process-wide counters nor
/// initialises 800 bytes of table. Each chain, and each speculative lane,
/// owns one and hands its counts to [`crate::perf`] once per run.
#[derive(Debug, Clone)]
pub struct EvalScratch {
    /// Work since the last [`EvalScratch::flush`].
    pub(crate) tally: SpanTally,
    /// The tables of the last evaluated edit's added disks.
    pub(crate) added: [SpanTable; 2],
}

impl Default for EvalScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl EvalScratch {
    /// Fresh scratch with nothing counted.
    #[must_use]
    pub fn new() -> Self {
        Self {
            tally: SpanTally::default(),
            added: [SpanTable::EMPTY; 2],
        }
    }

    /// Adds the work counted since the last flush to [`crate::perf`].
    pub fn flush(&mut self) {
        self.tally.flush();
    }
}

/// Read-only log-likelihood delta of removing and adding `disks` (removed
/// ones first) on `grid`, the work counted into `tally` — the one evaluator
/// behind [`Configuration::delta_log_lik_readonly`], the samplers and the
/// tile workers' local moves. Up to [`SPAN_DISKS`] disks whose tables are
/// held go to the kernel for their shape ([`CoverageGrid::delta_one`],
/// [`CoverageGrid::delta_pair`], [`CoverageGrid::delta_sweep`]); anything
/// else has its rows walked by [`walk_delta_log_lik`], to the same bits.
pub(crate) fn span_delta_log_lik(
    grid: &CoverageGrid,
    gain: &Gain,
    disks: &[EditDisk<'_>],
    tally: &mut SpanTally,
) -> f64 {
    if disks.len() > SPAN_DISKS || !disks.iter().all(|d| d.spans.held()) {
        let disks: Vec<_> = disks.iter().map(|d| (d.circle, d.is_add)).collect();
        return walk_delta_log_lik(grid, gain, &disks, tally);
    }
    match disks {
        [one] => grid.delta_one(gain, one.spans, one.is_add, tally),
        [removed, added] if !removed.is_add && added.is_add => {
            grid.delta_pair(gain, removed.spans, added.spans, tally)
        }
        _ => grid.delta_sweep(gain, disks, tally),
    }
}

/// The row walker: the log-likelihood delta of any number of `disks`
/// (`(circle, is_add)`) straight from the span arithmetic. Per image row
/// some disk reaches, it collects the spans
/// ([`crate::coverage::disk_row_span`]) of the disks whose row range
/// ([`crate::coverage::disk_row_range`]) holds it, merges them into
/// contiguous runs, cuts each run where a span starts or ends, and
/// resolves every constant-net segment by [`CoverageGrid::segment_delta`],
/// rows ascending, left to right. This is the definition the kernels of
/// [`span_delta_log_lik`] are held to, and what evaluates the disks they
/// cannot take.
#[inline(never)]
pub(crate) fn walk_delta_log_lik(
    grid: &CoverageGrid,
    gain: &Gain,
    disks: &[(Circle, bool)],
    tally: &mut SpanTally,
) -> f64 {
    let frame = grid.rect();
    // (circle, squared radius, clipped row range, is_add) of the disks
    // that reach the frame's rows at all.
    let disks: Vec<(Circle, f64, (i64, i64), bool)> = disks
        .iter()
        .map(|&(c, is_add)| (c, c.r * c.r, disk_row_range(&c, &frame), is_add))
        .filter(|(_, _, (lo, hi), _)| lo <= hi)
        .collect();
    let y0 = disks.iter().map(|&(.., (lo, _), _)| lo).min();
    let y1 = disks.iter().map(|&(.., (_, hi), _)| hi).max();
    let (y0, y1) = (y0.unwrap_or(i64::MAX), y1.unwrap_or(i64::MIN));
    let mut delta = 0.0;
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
        sweep_row(&spans, &mut delta, |segment, net| {
            grid.segment_delta(gain, py, segment, net, tally)
        });
    }
    delta
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

    /// What the row walker makes of `edit`, and the work it counted.
    fn walked(cfg: &Configuration, edit: &Edit, m: &NucleiModel) -> (f64, SpanTally) {
        let mut tally = SpanTally::default();
        let disks = cfg.state.edit_disks(edit);
        let delta = walk_delta_log_lik(&cfg.coverage, &m.gain, &disks, &mut tally);
        (delta, tally)
    }

    /// Read-only delta (the kernels, where tables hold the disks) ≡ row
    /// walker, to the bit and to the count of work ≡ what applying the edit
    /// reports, on both lane backends; the configuration is left as it was
    /// found.
    fn assert_readonly_matches_apply(cfg: &mut Configuration, edit: &Edit, m: &NucleiModel) {
        let detected = crate::simd::backend();
        for backend in [crate::simd::Backend::Scalar, crate::simd::Backend::Avx2] {
            crate::simd::force_backend(backend);
            let mut scratch = EvalScratch::new();
            let fast = (cfg.state).delta_log_lik(&cfg.coverage, edit, &m.gain, &mut scratch);
            let tally = scratch.tally;
            let (slow, slow_tally) = walked(cfg, edit, m);
            let receipt = cfg.apply(edit, m);
            cfg.revert(&receipt, m);
            assert_eq!(
                fast.to_bits(),
                slow.to_bits(),
                "{backend:?}: kernel {fast} vs walker {slow} for {edit:?}"
            );
            assert_eq!(tally, slow_tally, "{backend:?}: work counted for {edit:?}");
            assert!(
                (fast - receipt.d_log_lik).abs() < 1e-9,
                "{backend:?}: span {fast} vs applied {} for {edit:?}",
                receipt.d_log_lik
            );
        }
        crate::simd::force_backend(detected);
    }

    /// A crowded 128 × 96 scene — the width a whole number of bitset words,
    /// so that spans end on a row's last bit — with circles over every
    /// edge: most segments of an edit come out partly covered.
    fn crowded(m: &NucleiModel, seed: u64) -> Configuration {
        let mut rng = Xoshiro256::new(seed);
        let circles: Vec<Circle> = (0..14)
            .map(|_| {
                Circle::new(
                    rng.gen_range(-4.0..132.0),
                    rng.gen_range(-4.0..100.0),
                    rng.gen_range(3.3..16.0),
                )
            })
            .collect();
        Configuration::from_circles(m, &circles)
    }

    /// The ways a proposed disk can lie relative to a live one, `u` and `v`
    /// in `-1.0..1.0`.
    const PLACEMENTS: usize = 8;

    fn placed(c: Circle, how: usize, u: f64, v: f64) -> Circle {
        let beside = |gap: f64| c.x + (2.0 * c.r + gap).copysign(v);
        match how {
            // A translate: a sliver on either side of most rows.
            0 => Circle::new(c.x + 2.0 * u, c.y + 2.0 * v, c.r),
            // A resize: one span nested in the other on every row.
            1 => Circle::new(c.x, c.y, (c.r + 3.0 * u).max(0.3)),
            // Side by side: spans that overlap by a pixel, touch, or miss by
            // one on the rows around the centre.
            2 => Circle::new(beside(1.5 * u), c.y + v, c.r),
            // Side by side with pixels between them.
            3 => Circle::new(beside(3.0 + 8.0 * u.abs()), c.y, c.r * (1.0 + 0.3 * u)),
            // Above or below: few rows or none in common.
            4 => Circle::new(
                c.x + 3.0 * u,
                c.y + (c.r * (1.0 + u.abs())).copysign(v),
                c.r,
            ),
            // A split's child.
            5 => Circle::new(c.x + c.r * u, c.y + c.r * v, c.r * 0.7),
            // Too tall for a table: the whole edit goes to the walker.
            6 => Circle::new(c.x + 9.0 * u, c.y + 9.0 * v, 24.0 + 10.0 * u.abs()),
            // Anywhere, any size down to less than a pixel.
            _ => Circle::new(64.0 + 70.0 * u, 48.0 + 55.0 * v, 8.2 + 7.8 * u * v),
        }
    }

    #[test]
    fn placements_are_what_they_say() {
        let frame = Rect::new(0, 0, 128, 96);
        let c = Circle::new(60.0, 48.0, 10.0);
        let rows = |c: Circle| -> Vec<_> { crate::coverage::disk_rows(&c, &frame).collect() };
        // Rows both disks reach, as (removed span, added span).
        let common = |a: Circle| -> Vec<((i64, i64), (i64, i64))> {
            let added = rows(a);
            rows(c)
                .iter()
                .filter_map(|&(y, r0, r1)| {
                    let &(_, a0, a1) = added.iter().find(|row| row.0 == y)?;
                    Some(((r0, r1), (a0, a1)))
                })
                .collect()
        };
        let translate = common(placed(c, 0, 0.6, -0.4));
        assert!(translate
            .iter()
            .any(|&((r0, r1), (a0, a1))| r0 < a0 && r1 < a1));
        let nested = common(placed(c, 1, -0.7, 0.0));
        assert!(nested
            .iter()
            .all(|&((r0, r1), (a0, a1))| r0 <= a0 && a1 <= r1));
        assert!(nested
            .iter()
            .any(|&((r0, r1), (a0, a1))| r0 < a0 && a1 < r1));
        let beside: Vec<_> = [-0.9, -0.3, 0.3, 0.9]
            .iter()
            .flat_map(|&u| common(placed(c, 2, u, 0.2)))
            .collect();
        // One pixel shared, touching, one pixel between.
        for gap in [0, 1, 2] {
            assert!(
                beside.iter().any(|&((_, r1), (a0, _))| a0 == r1 + gap),
                "{gap}"
            );
        }
        let apart = common(placed(c, 3, 0.5, -1.0));
        assert!(!apart.is_empty() && apart.iter().all(|&((r0, _), (_, a1))| a1 + 1 < r0));
        assert!(common(placed(c, 4, 1.0, 0.5)).is_empty());
        assert!(!common(placed(c, 4, 0.1, 0.5)).is_empty());
        assert!(!SpanTable::of(&placed(c, 6, 0.0, 0.0), &frame).held());
    }

    proptest::proptest! {
        /// Kernels ≡ row walker, to the bit and to the count of work, on
        /// both backends, over edits of up to two removed and two added
        /// disks in every relative position, on crowded scenes.
        #[test]
        fn kernels_match_the_row_walker(
            scene in 0u64..6,
            n_remove in 0usize..3,
            picks in (0usize..14, 1usize..14),
            n_add in 0usize..3,
            hows in (0..PLACEMENTS, 0..PLACEMENTS),
            first in (-1.0f64..1.0, -1.0f64..1.0),
            second in (-1.0f64..1.0, -1.0f64..1.0),
        ) {
            let m = test_model(128, 96);
            let mut cfg = crowded(&m, scene);
            let remove = [picks.0, (picks.0 + picks.1) % 14];
            let anchor = cfg.circle(remove[0]);
            let add = [
                placed(anchor, hows.0, first.0, first.1),
                placed(anchor, hows.1, second.0, second.1),
            ];
            let edit = Edit {
                remove: remove[..n_remove].to_vec(),
                add: add[..n_add].to_vec(),
            };
            assert_readonly_matches_apply(&mut cfg, &edit, &m);
        }
    }

    /// Edits no kernel takes — more than two disks of a kind — are walked.
    #[test]
    fn larger_edits_are_walked() {
        let m = test_model(128, 96);
        let mut cfg = crowded(&m, 3);
        let c = cfg.circle(5);
        let add: Vec<Circle> = (0..3).map(|k| placed(c, k, 0.4, -0.8)).collect();
        let three_added = Edit {
            remove: vec![5],
            add,
        };
        assert_readonly_matches_apply(&mut cfg, &three_added, &m);
        let three_removed = Edit {
            remove: vec![1, 5, 9],
            add: vec![placed(c, 0, 0.4, -0.8)],
        };
        assert_readonly_matches_apply(&mut cfg, &three_removed, &m);
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

    /// The shapes the kernels treat specially, each pinned to the row walker
    /// and the apply receipt: rows nobody reaches between two disks, disks off the frame
    /// on every side, and split/merge triples through every kind of
    /// segment — over ground that is part empty, part singly and part
    /// doubly covered.
    #[test]
    fn kernels_handle_gaps_off_frame_disks_and_every_segment_shape() {
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
            assert_eq!(cfg.delta_log_lik_readonly(&Edit::add_one(c), &m), 0.0);
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
