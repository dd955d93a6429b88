//! Tile state for the parallel `Ml` (local move) phases.
//!
//! §V: during a local phase the image is tiled by a random-offset grid and
//! each tile runs translate/resize moves concurrently, under the safeguard
//! that only features whose full prior/likelihood "considered area"
//! (disk + interaction margin) lies strictly inside the tile may be
//! selected or created by a move. The paper's "duplicate, arrange for
//! parallel execution, and merge" is kept incremental here, so a phase
//! costs O(circles in the tiles) rather than O(pixels), and a tile
//! iteration costs what a chain iteration of the same kind costs (§VI
//! prices both at τ_l):
//!
//! * a [`TilePlan`] buckets the master's circles into the tiles of one
//!   phase's grid in a single pass: which circles each tile holds, which
//!   of them it may modify, and so the per-tile eligible counts that the
//!   iteration allocation is proportional to;
//! * a [`Replica`] is a persistent full-image copy of the master's
//!   coverage grid together with the circle list that grid encodes.
//!   **Invariant:** `coverage` is exactly the grid of `circles` (integer
//!   cover counts, so "exactly" is bit-for-bit). [`Replica::sync`] restores
//!   `circles == master` by a *positional* diff of the two lists: every
//!   index whose circle differs is removed from the grid, then the master's
//!   circle at that index is added. The diff is positional because a tile
//!   addresses circles by their master index, so the lists must agree slot
//!   by slot anyway; a `swap_remove` in a global phase costs two spurious
//!   replays, which is cheaper than matching the lists as sets. Nothing is
//!   logged by whoever mutates the master — the diff also covers the
//!   sequential fallback, speculative global lanes and a replica that sat
//!   out any number of phases;
//! * a [`TileState`] is one tile's chain state: the circles centred in the
//!   tile, a spatial index over them, each one's lens area with the others
//!   and each eligible one's row spans — the last two copied from the
//!   master, whose values they are — and the accumulated deltas. It is
//!   rebuilt in place every phase ([`TileState::build`]), so its storage
//!   outlives the phase. It runs **in place** on a grid that contains its
//!   rectangle — a replica's ([`Replica::run_local`]; the safeguard keeps
//!   every written disk `margin` inside the tile, so tiles sharing a
//!   replica cannot interfere) or the private crop of a standalone
//!   [`TileWorkspace`];
//! * a proposal's likelihood delta is evaluated read-only by the span
//!   evaluator behind [`Configuration::delta_log_lik_readonly`], and the
//!   step rejects before the overlap term when it can, as
//!   [`crate::sampler::decide`] does; the grid is written only on accept;
//! * [`Configuration::absorb_tile`] merges by replaying the tile's changed
//!   circles, with their final span tables, on the master grid.

use crate::config::{span_delta_log_lik, Configuration};
use crate::coverage::{CoverageGrid, EditDisk, SpanTally};
use crate::diagnostics::AcceptanceStats;
use crate::likelihood::Gain;
use crate::model::NucleiModel;
use crate::params::MoveKind;
use crate::rng::{standard_normal, Xoshiro256};
use crate::spans::SpanTable;
use crate::spatial::SpatialGrid;
use pmcmc_imaging::{Circle, PartitionGrid, Rect};
use rand::Rng;

/// Whether the §V safeguard lets a local move in tile `rect` modify `c`:
/// its considered area (disk + `margin`) lies inside the tile.
fn modifiable(rect: &Rect, c: &Circle, margin: f64) -> bool {
    rect.contains_point(c.x, c.y) && rect.contains_circle(c, margin)
}

/// Number of `circles` a local phase may modify in tile `rect` — the
/// paper's per-partition iteration allocation weight ("in the same
/// proportion as the number of model features contained within the
/// partition's boundaries and that may be legitimately modified"). Equals
/// the count a [`TilePlan`] gives the same tile, one rectangle at a time.
#[must_use]
pub fn eligible_count(circles: &[Circle], model: &NucleiModel, rect: Rect) -> usize {
    let margin = model.interaction_margin();
    circles
        .iter()
        .filter(|c| modifiable(&rect, c, margin))
        .count()
}

/// One local phase's tiling of the master's circles: the tiles of a
/// [`PartitionGrid`] over the image, and per tile the circles centred in
/// it, found in one pass over the circle list. Kept across phases, so its
/// lists stop allocating once they have grown.
#[derive(Debug, Clone, Default)]
pub struct TilePlan {
    rects: Vec<Rect>,
    /// Per tile, `(master index, eligible)` of every circle centred in it,
    /// by ascending master index. Lists past `rects.len()` are empty and
    /// only keep their storage.
    members: Vec<Vec<(usize, bool)>>,
    eligible: Vec<usize>,
}

impl TilePlan {
    /// Plans the tiles of `grid` over `model`'s image for `circles` (the
    /// master's list): each circle centred on the image goes to the tile
    /// that contains its centre and is marked eligible when the §V
    /// safeguard lets a local move modify it there.
    pub fn plan(&mut self, grid: &PartitionGrid, circles: &[Circle], model: &NucleiModel) {
        let (w, h) = (model.params.width, model.params.height);
        let margin = model.interaction_margin();
        self.rects = grid.tiles(w, h);
        let n = self.rects.len();
        self.members.iter_mut().for_each(Vec::clear);
        if self.members.len() < n {
            self.members.resize_with(n, Vec::new);
        }
        self.eligible.clear();
        self.eligible.resize(n, 0);
        // The tiles are row-major and cover the image, so a centre's column
        // and row are how many tile edges lie at or before it: a few
        // comparisons, where `PartitionGrid::tile_of` divides.
        let frame = Rect::of_image(w, h);
        let cols = (self.rects.iter())
            .take_while(|r| r.y0 == self.rects[0].y0)
            .count();
        let rows = n / cols.max(1);
        for (i, c) in circles.iter().enumerate() {
            if !frame.contains_point(c.x, c.y) {
                continue;
            }
            let col = (1..cols)
                .take_while(|&k| self.rects[k].x0 as f64 <= c.x)
                .count();
            let row = (1..rows)
                .take_while(|&k| self.rects[k * cols].y0 as f64 <= c.y)
                .count();
            let t = row * cols + col;
            debug_assert!(
                self.rects[t].contains_point(c.x, c.y),
                "{c:?} outside tile {t}"
            );
            let ok = self.rects[t].contains_circle(c, margin);
            self.members[t].push((i, ok));
            self.eligible[t] += usize::from(ok);
        }
    }

    /// The tiles, in [`PartitionGrid::tiles`] order.
    #[must_use]
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// Per tile, how many circles a local move may modify
    /// ([`eligible_count`]).
    #[must_use]
    pub fn eligible_counts(&self) -> &[usize] {
        &self.eligible
    }

    /// `(master index, eligible)` of every circle centred in `tile`, by
    /// ascending master index.
    #[must_use]
    pub fn members(&self, tile: usize) -> &[(usize, bool)] {
        &self.members[tile]
    }
}

/// One circle tracked by a tile worker.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TileEntry {
    /// Index of this circle in the master configuration.
    master_idx: usize,
    /// Current (possibly moved) circle.
    circle: Circle,
    /// Original circle at phase start (to detect changes).
    original: Circle,
    /// Whether the §V safeguard allows modifying it.
    eligible: bool,
}

/// One tile's chain state for a local phase: tile-local circles plus the
/// deltas its accepted moves accumulated. The coverage grid it runs on is
/// lent per call, so a finished tile can leave its worker while the grid
/// stays behind.
#[derive(Debug, Clone)]
pub struct TileState<'m> {
    /// Kept for [`Configuration::absorb_tile`], which replays on the master
    /// with no model at hand.
    model: &'m NucleiModel,
    rect: Rect,
    margin: f64,
    entries: Vec<TileEntry>,
    eligible: Vec<usize>,
    /// Slot for slot the row spans of the `eligible` circles, copied from
    /// the master and kept up to date by [`TileState::local_step`]. An
    /// eligible disk lies inside the tile, so its table is the same on any
    /// grid that contains the tile, the image's included.
    spans: Vec<SpanTable>,
    /// Slot for slot with `entries`, each circle's summed lens area with
    /// every other circle of the configuration: the master's
    /// [`Configuration::overlap_of`] at phase start, kept up to date on
    /// accept. Nothing centred outside the tile reaches an eligible
    /// circle, so for one of those it is also the sum over the tile's
    /// entries — what bounds the overlap term of its moves.
    overlap: Vec<f64>,
    /// Spatial index over entry circles (entry indices as ids), so overlap
    /// sums cost O(neighbours) rather than O(tile circles) — with the
    /// rejection-first step and the borrowed tables, what keeps a tile
    /// iteration at the master sampler's cost, as the §VI model assumes
    /// (τ_l identical in and out of tiles). Sized to the tile.
    spatial: SpatialGrid,
    /// Accumulated log-likelihood delta since phase start.
    pub d_log_lik: f64,
    /// Accumulated pairwise-overlap-area delta since phase start.
    pub d_overlap: f64,
    /// Accumulated radius-prior log-density delta since phase start.
    pub d_radius_logprior: f64,
    /// Acceptance accounting for this worker.
    pub stats: AcceptanceStats,
    /// Evaluation work not yet flushed to [`crate::perf`].
    tally: SpanTally,
    /// Room for the candidate's row spans.
    candidate_spans: SpanTable,
    /// Rejections after the support check: decided before the overlap
    /// term, and after it.
    #[cfg(test)]
    rejects: (u64, u64),
}

impl<'m> TileState<'m> {
    /// An empty tile of `model`; [`TileState::build`] makes it a phase's.
    #[must_use]
    pub fn new(model: &'m NucleiModel) -> Self {
        let empty = Rect::new(0, 0, 0, 0);
        Self {
            model,
            rect: empty,
            margin: model.interaction_margin(),
            entries: Vec::new(),
            eligible: Vec::new(),
            spans: Vec::new(),
            overlap: Vec::new(),
            spatial: SpatialGrid::over(empty, 2.0 * model.r_max()),
            d_log_lik: 0.0,
            d_overlap: 0.0,
            d_radius_logprior: 0.0,
            stats: AcceptanceStats::new(),
            tally: SpanTally::default(),
            candidate_spans: SpanTable::EMPTY,
            #[cfg(test)]
            rejects: (0, 0),
        }
    }

    /// The state of tile `rect` over `master`, its circles found by a scan
    /// of the master's list.
    ///
    /// All circles *centred* in the tile are pulled in (circles centred
    /// elsewhere cannot interact with any eligible circle: an eligible
    /// circle's considered area keeps a distance of at least `r + r_max`
    /// from the boundary).
    #[must_use]
    pub fn of(master: &Configuration, model: &'m NucleiModel, rect: Rect) -> Self {
        let mut tile = Self::new(model);
        let margin = tile.margin;
        let members = (master.circles().iter().enumerate())
            .filter(|(_, c)| rect.contains_point(c.x, c.y))
            .map(|(i, c)| (i, modifiable(&rect, c, margin)));
        tile.fill(master, rect, members);
        tile
    }

    /// Makes this the state of tile `tile` of `plan`, which must have been
    /// planned over `master`'s current circle list. Everything the tile
    /// held before is dropped; the storage is kept.
    pub fn build(&mut self, master: &Configuration, plan: &TilePlan, tile: usize) {
        self.fill(master, plan.rects[tile], plan.members(tile).iter().copied());
    }

    fn fill(
        &mut self,
        master: &Configuration,
        rect: Rect,
        members: impl Iterator<Item = (usize, bool)>,
    ) {
        self.rect = rect;
        self.entries.clear();
        self.eligible.clear();
        self.spans.clear();
        self.overlap.clear();
        self.spatial.reset(rect, 2.0 * self.model.r_max());
        for (i, ok) in members {
            let c = master.circle(i);
            if ok {
                self.eligible.push(self.entries.len());
                self.spans.push(*master.span_table(i));
            }
            self.spatial.insert(self.entries.len(), &c);
            self.overlap.push(master.overlap_of(i));
            self.entries.push(TileEntry {
                master_idx: i,
                circle: c,
                original: c,
                eligible: ok,
            });
        }
        self.d_log_lik = 0.0;
        self.d_overlap = 0.0;
        self.d_radius_logprior = 0.0;
        self.stats = AcceptanceStats::new();
        debug_assert_eq!(self.tally, SpanTally::default(), "tile work not flushed");
        #[cfg(test)]
        {
            self.rejects = (0, 0);
        }
    }

    /// The tile rectangle.
    #[must_use]
    pub const fn rect(&self) -> Rect {
        self.rect
    }

    /// Number of modifiable features (see [`eligible_count`]).
    #[must_use]
    pub fn eligible_count(&self) -> usize {
        self.eligible.len()
    }

    /// Total circles tracked (eligible + frozen).
    #[must_use]
    pub fn circle_count(&self) -> usize {
        self.entries.len()
    }

    /// Draws a local move: its kind, the eligible slot it moves and the
    /// candidate circle; `None` (recorded as invalid) when the tile has
    /// nothing it may modify.
    fn propose(
        &mut self,
        p_translate: f64,
        model: &NucleiModel,
        rng: &mut Xoshiro256,
    ) -> Option<(MoveKind, usize, Circle)> {
        let translate = rng.gen::<f64>() < p_translate;
        let kind = if translate {
            MoveKind::Translate
        } else {
            MoveKind::Resize
        };
        if self.eligible.is_empty() {
            self.stats.record_invalid(kind);
            return None;
        }
        let slot = rng.gen_range(0..self.eligible.len());
        debug_assert!(
            self.entries[self.eligible[slot]].eligible,
            "eligible list out of sync"
        );
        let old = self.entries[self.eligible[slot]].circle;
        let candidate = if translate {
            let sd = model.scales.translate_sd;
            Circle::new(
                old.x + sd * standard_normal(rng),
                old.y + sd * standard_normal(rng),
                old.r,
            )
        } else {
            Circle::new(
                old.x,
                old.y,
                old.r + model.scales.resize_sd * standard_normal(rng),
            )
        };
        Some((kind, slot, candidate))
    }

    /// Support + safeguard: the candidate must stay in the radius prior's
    /// support and keep its considered area inside the tile (which keeps
    /// the eligible set invariant for the whole phase).
    fn admissible(&self, candidate: &Circle, model: &NucleiModel) -> bool {
        model.params.radius_prior.in_support(candidate.r)
            && self.rect.contains_circle(candidate, self.margin)
    }

    /// Log-likelihood delta of moving slot `slot` to `candidate` on
    /// `grid`, read-only; leaves the candidate's spans in
    /// `self.candidate_spans`.
    fn likelihood_delta(
        &mut self,
        grid: &CoverageGrid,
        gain: &Gain,
        slot: usize,
        old: Circle,
        candidate: Circle,
    ) -> f64 {
        self.candidate_spans.fill(&candidate, &self.rect);
        let removed = EditDisk {
            circle: old,
            spans: &self.spans[slot],
            is_add: false,
        };
        let added = EditDisk {
            circle: candidate,
            spans: &self.candidate_spans,
            is_add: true,
        };
        span_delta_log_lik(grid, gain, &[removed, added], &mut self.tally)
    }

    /// Pairwise-overlap-area delta of entry `ei` moving from `old` to
    /// `new`: the lens areas gained against neighbouring entries, then
    /// those lost (only entries within interaction reach can contribute).
    fn overlap_delta(&self, ei: usize, old: &Circle, new: &Circle, r_max: f64) -> f64 {
        let mut d_overlap = 0.0;
        self.spatial
            .for_neighbors(new.x, new.y, new.r + r_max, |j| {
                if j != ei {
                    d_overlap += new.intersection_area(&self.entries[j].circle);
                }
            });
        self.spatial
            .for_neighbors(old.x, old.y, old.r + r_max, |j| {
                if j != ei {
                    d_overlap -= old.intersection_area(&self.entries[j].circle);
                }
            });
        d_overlap
    }

    /// Adds `sign ×` the lens area of `c` with each neighbouring entry but
    /// `skip` to that entry's kept overlap, and returns their sum.
    fn link(&mut self, c: &Circle, skip: usize, sign: f64, r_max: f64) -> f64 {
        let Self {
            spatial,
            entries,
            overlap,
            ..
        } = self;
        let mut total = 0.0;
        spatial.for_neighbors(c.x, c.y, c.r + r_max, |j| {
            if j != skip {
                let area = c.intersection_area(&entries[j].circle);
                overlap[j] += sign * area;
                total += area;
            }
        });
        total
    }

    /// Writes an accepted move of slot `slot` (entry `ei`) from `old` to
    /// `candidate`, whose spans are in `self.candidate_spans`, to `grid` and
    /// to the tile's state.
    fn commit(
        &mut self,
        grid: &mut CoverageGrid,
        gain: &Gain,
        (slot, ei): (usize, usize),
        old: Circle,
        candidate: Circle,
        (d_log_lik, d_overlap, d_radius): (f64, f64, f64),
    ) {
        let r_max = self.model.r_max();
        grid.remove_disk(&old, &self.spans[slot], gain);
        grid.add_disk(&candidate, &self.candidate_spans, gain);
        self.spans[slot] = self.candidate_spans;
        self.link(&old, ei, -1.0, r_max);
        self.overlap[ei] = self.link(&candidate, ei, 1.0, r_max);
        self.spatial.relocate(ei, &old, &candidate);
        self.entries[ei].circle = candidate;
        self.d_log_lik += d_log_lik;
        self.d_overlap += d_overlap;
        self.d_radius_logprior += d_radius;
    }

    /// One local iteration on `grid`, which must contain the tile's
    /// rectangle and encode the circles the tile was built over plus this
    /// tile's accepted moves; returns whether the move was accepted. The
    /// proposal is evaluated read-only; `grid` is written only on accept.
    /// The evaluation's work stays in `self.tally` until
    /// [`TileState::run_local`] flushes it.
    ///
    /// The likelihood and radius terms come first. A move can gain at most
    /// the lens area the moved circle has now, so with γ ≥ 0
    ///
    /// ```text
    /// B = Δlik + Δradius + γ·overlap[moved]  ≥  log α
    /// ```
    ///
    /// When `B + ε < 0`, `log α < 0` for certain, so the exact test draws
    /// `u` here in any case: it is drawn, and the move is rejected when
    /// `B + ε ≤ ln u`. Otherwise the overlap delta and `log α` are computed
    /// in full, in the exact step's float order, against that same `u` (or
    /// one drawn only when `log α < 0`). ε = 10⁻⁹ × (1 + the terms'
    /// magnitudes), as in [`crate::sampler::decide`]. Decisions and the
    /// random stream are the exact step's; only the work to reach them
    /// differs.
    fn local_step(
        &mut self,
        grid: &mut CoverageGrid,
        p_translate: f64,
        model: &NucleiModel,
        rng: &mut Xoshiro256,
    ) -> bool {
        let Some((kind, slot, candidate)) = self.propose(p_translate, model, rng) else {
            return false;
        };
        if !self.admissible(&candidate, model) {
            self.stats.record_reject(kind);
            return false;
        }
        let ei = self.eligible[slot];
        let old = self.entries[ei].circle;
        let gain = &model.gain;
        let d_log_lik = self.likelihood_delta(grid, gain, slot, old, candidate);
        let d_radius =
            model.params.radius_prior.logpdf(candidate.r) - model.params.radius_prior.logpdf(old.r);
        let gamma = model.params.overlap_gamma;

        let mut log_u = None;
        if gamma >= 0.0 {
            let kept = self.overlap[ei];
            let bound = d_log_lik + d_radius + gamma * kept;
            let slack = 1e-9 * (1.0 + d_log_lik.abs() + d_radius.abs() + gamma * kept.abs());
            if bound + slack < 0.0 {
                let u = rng.gen::<f64>().ln();
                if bound + slack <= u {
                    #[cfg(test)]
                    {
                        self.rejects.0 += 1;
                    }
                    self.stats.record_reject(kind);
                    return false;
                }
                log_u = Some(u);
            }
        }

        let d_overlap = self.overlap_delta(ei, &old, &candidate, model.r_max());
        let log_alpha = d_log_lik + d_radius - gamma * d_overlap;
        debug_assert!(
            log_u.is_none() || log_alpha < 0.0,
            "log α {log_alpha} above its bound"
        );
        let accept = log_alpha >= 0.0 || log_u.unwrap_or_else(|| rng.gen::<f64>().ln()) < log_alpha;
        if accept {
            let deltas = (d_log_lik, d_overlap, d_radius);
            self.commit(grid, gain, (slot, ei), old, candidate, deltas);
            self.stats.record_accept(kind);
        } else {
            #[cfg(test)]
            {
                self.rejects.1 += 1;
            }
            self.stats.record_reject(kind);
        }
        accept
    }

    /// `n` local iterations on `grid` (see [`TileState::local_step`]). The
    /// [`crate::perf`] counters see their work when the call returns.
    fn run_local(
        &mut self,
        grid: &mut CoverageGrid,
        n: u64,
        p_translate: f64,
        model: &NucleiModel,
        rng: &mut Xoshiro256,
    ) {
        for _ in 0..n {
            self.local_step(grid, p_translate, model, rng);
        }
        self.tally.flush();
    }

    /// The `(master index, old circle, new circle)` updates accumulated in
    /// this phase.
    #[must_use]
    pub fn updates(&self) -> Vec<(usize, Circle, Circle)> {
        self.entries
            .iter()
            .filter(|e| e.circle != e.original)
            .map(|e| (e.master_idx, e.original, e.circle))
            .collect()
    }

    /// Checks what the tile keeps per eligible circle against a
    /// from-scratch recomputation: its lens area with the tile's other
    /// circles, and its row spans.
    ///
    /// # Errors
    /// Describes the first kept value that is out of date.
    pub fn verify_consistency(&self) -> Result<(), String> {
        for (&ei, spans) in self.eligible.iter().zip(&self.spans) {
            let c = self.entries[ei].circle;
            let fresh: f64 = (self.entries.iter().enumerate())
                .filter(|&(j, _)| j != ei)
                .map(|(_, e)| c.intersection_area(&e.circle))
                .sum();
            let kept = self.overlap[ei];
            if (fresh - kept).abs() > 1e-9 * (1.0 + fresh) {
                return Err(format!(
                    "overlap of entry {ei}: kept {kept} vs recomputed {fresh}"
                ));
            }
            if *spans != SpanTable::of(&c, &self.rect) {
                return Err(format!("spans of entry {ei} out of date"));
            }
        }
        Ok(())
    }
}

/// A standalone tile: a [`TileState`] (reachable through `Deref`) plus a
/// private crop of the master's coverage over the tile. The periodic
/// sampler runs its tiles on [`Replica`]s instead and never pays the crop.
#[derive(Debug, Clone)]
pub struct TileWorkspace<'m> {
    state: TileState<'m>,
    coverage: CoverageGrid,
}

impl<'m> TileWorkspace<'m> {
    /// Builds a workspace for `rect` from the master configuration. The
    /// coverage sub-grid is copied as-is, so the contributions of outside
    /// circles whose disks spill into the tile are preserved.
    #[must_use]
    pub fn new(master: &Configuration, model: &'m NucleiModel, rect: Rect) -> Self {
        Self {
            state: TileState::of(master, model, rect),
            coverage: master.coverage().crop(rect),
        }
    }

    /// Runs `n` local iterations (translate with probability
    /// `p_translate`, else resize).
    pub fn run_local(
        &mut self,
        n: u64,
        p_translate: f64,
        model: &NucleiModel,
        rng: &mut Xoshiro256,
    ) {
        self.state
            .run_local(&mut self.coverage, n, p_translate, model, rng);
    }

    /// One local iteration; returns whether the move was accepted.
    pub fn local_step(
        &mut self,
        p_translate: f64,
        model: &NucleiModel,
        rng: &mut Xoshiro256,
    ) -> bool {
        let accepted = self
            .state
            .local_step(&mut self.coverage, p_translate, model, rng);
        self.state.tally.flush();
        accepted
    }

    /// The mutated coverage sub-grid.
    #[must_use]
    pub const fn coverage(&self) -> &CoverageGrid {
        &self.coverage
    }
}

impl<'m> std::ops::Deref for TileWorkspace<'m> {
    type Target = TileState<'m>;
    fn deref(&self) -> &TileState<'m> {
        &self.state
    }
}

/// A persistent full-image copy of the master's coverage grid, owned by
/// one worker of the periodic sampler across phases (see the module docs
/// for the invariant and the sync protocol).
#[derive(Debug, Clone)]
pub struct Replica {
    coverage: CoverageGrid,
    /// The circle list `coverage` encodes, slot for slot the master's once
    /// synced.
    circles: Vec<Circle>,
}

impl Replica {
    /// Clones the master's grid and circle list — the only O(pixels) step
    /// in a replica's life.
    #[must_use]
    pub fn new(master: &Configuration) -> Self {
        Self {
            coverage: master.coverage().clone(),
            circles: master.circles().to_vec(),
        }
    }

    /// The replica's coverage grid.
    #[must_use]
    pub const fn coverage(&self) -> &CoverageGrid {
        &self.coverage
    }

    /// Catches up with the master's circle list: every slot whose circle
    /// differs (or that only one list has) is replayed on the grid. All
    /// removes come strictly before all adds, so no cover count can
    /// underflow on the way. Afterwards the grid equals the master's.
    pub fn sync(&mut self, master: &[Circle], gain: &Gain) {
        for (i, mine) in self.circles.iter().enumerate() {
            if master.get(i) != Some(mine) {
                self.coverage.remove_circle(mine, gain);
            }
        }
        for (i, theirs) in master.iter().enumerate() {
            if self.circles.get(i) != Some(theirs) {
                self.coverage.add_circle(theirs, gain);
            }
        }
        self.circles.clear();
        self.circles.extend_from_slice(master);
    }

    /// Runs `n` local iterations of `tile` (built over the master this
    /// replica is synced with) in place on this replica's grid, then
    /// records the tile's updates in the replica's own circle list, so the
    /// next [`Replica::sync`] skips them.
    pub fn run_local(
        &mut self,
        tile: &mut TileState<'_>,
        n: u64,
        p_translate: f64,
        model: &NucleiModel,
        rng: &mut Xoshiro256,
    ) {
        debug_assert_eq!(
            tile.rect.intersect(&self.coverage.rect()),
            tile.rect,
            "tile outside the replica"
        );
        tile.run_local(&mut self.coverage, n, p_translate, model, rng);
        for e in &tile.entries {
            self.circles[e.master_idx] = e.circle;
        }
    }
}

impl Configuration {
    /// Merges a finished tile back into the master state: replays the
    /// tile's changed circles, with the span tables the tile kept for
    /// them, on the master grid and circle list, then adds the tile's
    /// accumulated cache deltas. Tiles are disjoint, so the merged grid
    /// does not depend on the order; the float caches do, so drivers merge
    /// in tile-index order.
    pub fn absorb_tile(&mut self, tile: &TileState<'_>) {
        // Only eligible entries move, and `eligible` lists them in entry
        // order.
        for (&ei, spans) in tile.eligible.iter().zip(&tile.spans) {
            let e = &tile.entries[ei];
            if e.circle != e.original {
                self.update_circle_in_place(e.master_idx, e.original, e.circle, spans, tile.model);
            }
        }
        self.add_cache_deltas(tile.d_log_lik, tile.d_overlap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Edit;
    use crate::params::ModelParams;
    use crate::sampler::Sampler;
    use crate::simd::{backend, force_backend, Backend};
    use pmcmc_imaging::synth::{generate, SceneSpec};
    use pmcmc_imaging::GrayImage;

    fn model_with_image(size: u32) -> NucleiModel {
        let params = ModelParams::new(size, size, 8.0, 8.0);
        let img = GrayImage::from_fn(size, size, |x, y| {
            // Two bright blobs.
            let d1 = ((x as f32 - 32.0).powi(2) + (y as f32 - 32.0).powi(2)).sqrt();
            let d2 = ((x as f32 - 96.0).powi(2) + (y as f32 - 96.0).powi(2)).sqrt();
            if d1 < 8.0 || d2 < 8.0 {
                0.9
            } else {
                0.1
            }
        });
        NucleiModel::new(&img, params)
    }

    fn master_config(model: &NucleiModel) -> Configuration {
        Configuration::from_circles(
            model,
            &[
                Circle::new(30.0, 30.0, 7.0),  // in left tile, interior
                Circle::new(62.0, 62.0, 7.0),  // near tile boundary
                Circle::new(96.0, 96.0, 8.0),  // right tile interior
                Circle::new(100.0, 90.0, 7.5), // right tile interior
            ],
        )
    }

    /// A 192² synthetic scene and a chain state burnt in on it for 30 000
    /// iterations, at the default overlap penalty — or, when `steep`, at
    /// γ = 2 and with a partner overlapping every third circle, so that
    /// the overlap term decides many moves.
    fn burnt_in(steep: bool) -> (NucleiModel, Configuration) {
        let spec = SceneSpec {
            width: 192,
            height: 192,
            n_circles: 14,
            radius_mean: 8.0,
            radius_sd: 0.8,
            radius_min: 5.0,
            radius_max: 12.0,
            noise_sd: 0.05,
            ..SceneSpec::default()
        };
        let mut rng = Xoshiro256::new(5);
        let scene = generate(&spec, &mut rng);
        let img = scene.render(&mut rng);
        let mut params = ModelParams::new(192, 192, 14.0, 8.0);
        params.noise_sd = 0.15;
        if steep {
            params.overlap_gamma = 2.0;
        }
        let model = NucleiModel::new(&img, params);
        let mut chain = Sampler::new(&model, 11);
        chain.run(30_000);
        let mut config = chain.config.clone();
        if steep {
            let partners: Vec<Circle> = (config.circles().iter().step_by(3))
                .map(|c| Circle::new(c.x + 0.8 * c.r, c.y - 0.3 * c.r, c.r * 0.9))
                .collect();
            for c in partners {
                config.apply(&Edit::add_one(c), &model);
            }
        }
        (model, config)
    }

    impl TileState<'_> {
        /// The step as it was before rejections came first: both overlap
        /// sums, then the likelihood, then `log α` against a `u` drawn only
        /// when `log α < 0`. The oracle [`TileState::local_step`] is held to.
        fn local_step_oracle(
            &mut self,
            grid: &mut CoverageGrid,
            p_translate: f64,
            model: &NucleiModel,
            rng: &mut Xoshiro256,
        ) -> bool {
            let Some((kind, slot, candidate)) = self.propose(p_translate, model, rng) else {
                return false;
            };
            if !self.admissible(&candidate, model) {
                self.stats.record_reject(kind);
                return false;
            }
            let ei = self.eligible[slot];
            let old = self.entries[ei].circle;
            let d_overlap = self.overlap_delta(ei, &old, &candidate, model.r_max());
            let d_log_lik = self.likelihood_delta(grid, &model.gain, slot, old, candidate);
            let d_radius = model.params.radius_prior.logpdf(candidate.r)
                - model.params.radius_prior.logpdf(old.r);
            let log_alpha = d_log_lik + d_radius - model.params.overlap_gamma * d_overlap;
            let accept = log_alpha >= 0.0 || rng.gen::<f64>().ln() < log_alpha;
            if accept {
                let deltas = (d_log_lik, d_overlap, d_radius);
                self.commit(grid, &model.gain, (slot, ei), old, candidate, deltas);
                self.stats.record_accept(kind);
            } else {
                self.stats.record_reject(kind);
            }
            accept
        }
    }

    /// Field for field, apart from the candidate's scratch table.
    fn assert_same_tile(a: &TileState<'_>, b: &TileState<'_>) {
        assert!(std::ptr::eq(a.model, b.model));
        assert_eq!((a.rect, a.margin.to_bits()), (b.rect, b.margin.to_bits()));
        assert_eq!(a.entries, b.entries);
        assert_eq!(a.eligible, b.eligible);
        assert!(a.spans == b.spans, "span tables differ");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.overlap), bits(&b.overlap));
        assert!(a.spatial == b.spatial, "spatial indexes differ");
        let deltas = |t: &TileState<'_>| bits(&[t.d_log_lik, t.d_overlap, t.d_radius_logprior]);
        assert_eq!(deltas(a), deltas(b));
        assert_eq!(a.stats, b.stats);
        assert_eq!((a.tally, a.rejects), (b.tally, b.rejects));
    }

    #[test]
    fn eligibility_respects_margin() {
        let model = model_with_image(128);
        let master = master_config(&model);
        let tile = Rect::new(0, 0, 64, 64);
        let ws = TileWorkspace::new(&master, &model, tile);
        assert_eq!(ws.circle_count(), 2, "two circles centred in tile");
        // Circle at (30,30) r=7: needs 7 + r_max(16) = 23 clearance: fits.
        // Circle at (62,62) r=7: 23 > 2 from boundary: frozen.
        assert_eq!(ws.eligible_count(), 1);
    }

    #[test]
    fn eligible_circles_confirmed_by_safeguard_predicate() {
        let model = model_with_image(128);
        let master = master_config(&model);
        for rect in [Rect::new(0, 0, 64, 64), Rect::new(64, 64, 128, 128)] {
            let ws = TileWorkspace::new(&master, &model, rect);
            for &ei in &ws.eligible {
                let e = &ws.entries[ei];
                assert!(rect.contains_circle(&e.circle, model.interaction_margin()));
            }
        }
    }

    #[test]
    fn local_steps_keep_master_consistent_after_merge() {
        let model = model_with_image(128);
        let mut master = master_config(&model);
        let lik0 = master.log_lik();
        let tiles = [Rect::new(0, 0, 64, 64), Rect::new(64, 64, 128, 128)];
        let mut workspaces: Vec<TileWorkspace> = tiles
            .iter()
            .map(|&r| TileWorkspace::new(&master, &model, r))
            .collect();
        let mut rng0 = Xoshiro256::new(100);
        let mut rng1 = Xoshiro256::new(101);
        workspaces[0].run_local(500, 0.5, &model, &mut rng0);
        workspaces[1].run_local(500, 0.5, &model, &mut rng1);
        for ws in &workspaces {
            master.absorb_tile(ws);
        }
        master
            .verify_consistency(&model)
            .expect("master consistent after tile merge");
        // Something should have happened.
        let moved = workspaces.iter().map(|w| w.updates().len()).sum::<usize>();
        assert!(moved > 0, "no circle moved in 1000 local iterations");
        assert!((master.log_lik() - lik0).abs() > 1e-12 || moved == 0);
    }

    #[test]
    fn moves_never_leave_considered_area() {
        let model = model_with_image(128);
        let master = master_config(&model);
        let tile = Rect::new(64, 64, 128, 128);
        let mut ws = TileWorkspace::new(&master, &model, tile);
        let mut rng = Xoshiro256::new(7);
        ws.run_local(2000, 0.5, &model, &mut rng);
        for e in &ws.entries {
            if e.eligible {
                assert!(
                    tile.contains_circle(&e.circle, model.interaction_margin()),
                    "circle escaped its safeguard area"
                );
            } else {
                assert_eq!(e.circle, e.original, "frozen circle was modified");
            }
        }
    }

    #[test]
    fn empty_tile_records_invalid() {
        let model = model_with_image(128);
        let master = Configuration::empty(&model);
        let tile = Rect::new(0, 0, 64, 64);
        let mut ws = TileWorkspace::new(&master, &model, tile);
        let mut rng = Xoshiro256::new(3);
        assert!(!ws.local_step(0.5, &model, &mut rng));
        assert_eq!(ws.stats.total_proposed(), 1);
        assert_eq!(ws.eligible_count(), 0);
    }

    #[test]
    fn frozen_circle_interactions_are_counted() {
        // An eligible circle overlapping a frozen one: the overlap delta of
        // moving the eligible circle must be reflected in d_overlap.
        let model = model_with_image(128);
        let master = Configuration::from_circles(
            &model,
            &[
                Circle::new(32.0, 32.0, 7.0), // eligible
                Circle::new(40.0, 32.0, 7.0), // also in tile
            ],
        );
        let tile = Rect::new(0, 0, 64, 64);
        let mut ws = TileWorkspace::new(&master, &model, tile);
        let mut rng = Xoshiro256::new(5);
        ws.run_local(1000, 1.0, &model, &mut rng);
        ws.verify_consistency().expect("kept overlaps and spans");
        let mut master2 = master.clone();
        master2.absorb_tile(&ws);
        master2
            .verify_consistency(&model)
            .expect("overlap bookkeeping incl. frozen circles");
    }

    /// The rejection-first step against the step it replaced, from the same
    /// seed on the same tiles of a burnt-in scene, on both lane backends:
    /// the same decisions, updates, statistics, deltas to the bit and
    /// random stream — at the default overlap penalty and at a steep one.
    /// At the default, at least 95 % of the rejections that pass the
    /// support check are decided before the overlap term.
    #[test]
    fn rejection_first_step_is_the_exact_step() {
        let detected = backend();
        for steep in [false, true] {
            let (model, master) = burnt_in(steep);
            let gamma = model.params.overlap_gamma;
            let (mut early, mut late) = (0u64, 0u64);
            for lanes in [Backend::Scalar, Backend::Avx2] {
                force_backend(lanes);
                let mut plan = TilePlan::default();
                for (k, (ox, oy)) in [(70, 101), (130, 45), (96, 96)].into_iter().enumerate() {
                    plan.plan(
                        &PartitionGrid::new(192, 192, ox, oy),
                        master.circles(),
                        &model,
                    );
                    for (t, &rect) in plan.rects().iter().enumerate() {
                        let mut fast = TileWorkspace::new(&master, &model, rect);
                        let mut oracle = fast.clone();
                        let seed = (k * 8 + t) as u64;
                        let (mut rng_a, mut rng_b) = (Xoshiro256::new(seed), Xoshiro256::new(seed));
                        for i in 0..3000 {
                            let a =
                                fast.state
                                    .local_step(&mut fast.coverage, 0.5, &model, &mut rng_a);
                            let b = (oracle.state).local_step_oracle(
                                &mut oracle.coverage,
                                0.5,
                                &model,
                                &mut rng_b,
                            );
                            assert_eq!(a, b, "γ {gamma}, {lanes:?}, {rect:?}, step {i}");
                        }
                        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "streams apart");
                        assert_eq!(fast.updates(), oracle.updates());
                        assert_eq!(fast.stats, oracle.stats);
                        let bits = |t: &TileState<'_>| {
                            [t.d_log_lik, t.d_overlap, t.d_radius_logprior].map(f64::to_bits)
                        };
                        assert_eq!(bits(&fast), bits(&oracle));
                        assert!(fast.coverage == oracle.coverage);
                        fast.verify_consistency().unwrap();
                        early += fast.rejects.0;
                        late += fast.rejects.1;
                    }
                }
            }
            force_backend(detected);
            assert!(
                early + late > 1000,
                "γ {gamma}: {early} + {late} rejections"
            );
            if !steep {
                assert!(
                    early as f64 >= 0.95 * (early + late) as f64,
                    "γ {gamma}: {early} of {} rejections decided early",
                    early + late
                );
            }
        }
    }

    /// A tile rebuilt from a plan holds what a fresh tile of the same
    /// rectangle holds, whatever it ran before, phase after phase.
    #[test]
    fn a_recycled_tile_is_a_fresh_one() {
        let (model, mut master) = burnt_in(false);
        let mut plan = TilePlan::default();
        let mut shells: Vec<TileState<'_>> = Vec::new();
        for (phase, (xm, ox, oy)) in [(192, 70, 101), (64, 5, 60), (192, 130, 45), (50, 0, 0)]
            .into_iter()
            .enumerate()
        {
            plan.plan(
                &PartitionGrid::new(xm, xm, ox, oy),
                master.circles(),
                &model,
            );
            let mut tiles = Vec::new();
            for (t, &rect) in plan.rects().iter().enumerate() {
                let mut tile = shells.pop().unwrap_or_else(|| TileState::new(&model));
                tile.build(&master, &plan, t);
                assert_same_tile(&tile, &TileState::of(&master, &model, rect));
                let mut grid = master.coverage().crop(rect);
                let mut rng = Xoshiro256::new((phase * 64 + t) as u64);
                tile.run_local(&mut grid, 400, 0.5, &model, &mut rng);
                tiles.push(tile);
            }
            for tile in &tiles {
                master.absorb_tile(tile);
            }
            master.verify_consistency(&model).unwrap();
            shells.extend(tiles);
        }
    }

    proptest::proptest! {
        /// The table a master keeps for a circle a tile may modify is the
        /// one the tile would tabulate itself: clipping to the tile or to
        /// the image gives the same rows. Tiles come from random grids, so
        /// many are clipped by the frame; a fifth of the radii are below a
        /// pixel.
        #[test]
        fn an_eligible_circles_master_table_is_its_tile_table(
            circles in proptest::collection::vec(
                (0.0f64..160.0, 0.0f64..144.0, 0u8..5, 0.01f64..1.0),
                1..40,
            ),
            spacing in (30i64..200, 30i64..200),
            offset in (0i64..200, 0i64..200),
        ) {
            let model = model_with_image(160);
            let circles: Vec<Circle> = circles
                .iter()
                .map(|&(x, y, size, u)| {
                    let r = if size == 0 { u } else { 3.4 + 12.5 * u };
                    Circle::new(x, y + 8.0 * u, r)
                })
                .collect();
            let master = Configuration::from_circles(&model, &circles);
            let grid = PartitionGrid::new(spacing.0, spacing.1, offset.0, offset.1);
            let margin = model.interaction_margin();
            for rect in grid.tiles(160, 160) {
                for (i, c) in master.circles().iter().enumerate() {
                    if modifiable(&rect, c, margin) {
                        proptest::prop_assert!(
                            *master.span_table(i) == SpanTable::of(c, &rect),
                            "{:?} on {:?}", c, rect
                        );
                    }
                }
            }
        }
    }
}
