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
//! * a [`TileState`] is one tile's chain state: the master's own chain
//!   state type (circles, row spans, spatial index, lens areas) over the
//!   circles centred in the tile, indexed over the tile with entry indices
//!   as ids, its spans and lens areas copied from the master, plus the
//!   accumulated deltas. It is rebuilt in place every phase
//!   ([`TileState::build`]), so its storage outlives the phase. It runs
//!   **in place** on a grid that contains its rectangle — a replica's
//!   ([`Replica::run_local`]; the safeguard keeps every written disk
//!   `margin` inside the tile, so tiles sharing a replica cannot interfere)
//!   or the private crop of a standalone [`TileWorkspace`];
//! * a step draws its move as a tile always has — translate coin, eligible
//!   entry, normals, and `u` only when `log α < 0` — and decides it with the
//!   chain's own code: the read-only likelihood delta behind
//!   [`Configuration::delta_log_lik_readonly`], the bound and the exact
//!   `log α` of [`crate::sampler::decide`], and on accept the
//!   replace-in-place that also replays the move on the master; the grid is
//!   written only on accept;
//! * [`Configuration::absorb_tile`] merges by replaying the tile's changed
//!   circles, with their final span tables, on the master grid.

use crate::config::{ChainState, Configuration, EvalScratch};
use crate::coverage::{CoverageGrid, SpanTally};
use crate::diagnostics::AcceptanceStats;
use crate::likelihood::Gain;
use crate::model::NucleiModel;
use crate::moves::Proposal;
use crate::params::MoveKind;
use crate::rng::{standard_normal, Xoshiro256};
use crate::sampler::prior_and_likelihood;
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

/// One tile's chain state for a local phase: the master's chain state
/// restricted to the circles centred in the tile, plus the deltas its
/// accepted moves accumulated. The coverage grid it runs on is lent per
/// call, so a finished tile can leave its worker while the grid stays
/// behind.
#[derive(Debug, Clone)]
pub struct TileState<'m> {
    /// Kept for [`Configuration::absorb_tile`], which replays on the master
    /// with no model at hand.
    model: &'m NucleiModel,
    rect: Rect,
    margin: f64,
    /// The circles centred in the tile, entry indices as ids, indexed over
    /// the tile, with the master's span tables and lens areas. An eligible
    /// circle's table is the same on any grid that contains the tile, the
    /// image's included, and nothing centred outside the tile reaches it,
    /// so its lens area is also the sum over the tile's entries.
    state: ChainState,
    /// Per entry, its master index and its circle at phase start.
    origin: Vec<(usize, Circle)>,
    /// The entries the §V safeguard lets a local move modify.
    eligible: Vec<usize>,
    /// Accumulated log-likelihood delta since phase start.
    pub d_log_lik: f64,
    /// Accumulated pairwise-overlap-area delta since phase start.
    pub d_overlap: f64,
    /// Acceptance accounting for this worker.
    pub stats: AcceptanceStats,
    /// Evaluation work not yet flushed to [`crate::perf`], and the
    /// candidate's row spans.
    scratch: EvalScratch,
    /// The move being decided, as an edit of the entries.
    proposal: Proposal,
    /// Rejections decided by the bound, before the overlap term.
    #[cfg(test)]
    early_rejects: u64,
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
            state: ChainState::over(empty, model.r_max()),
            origin: Vec::new(),
            eligible: Vec::new(),
            d_log_lik: 0.0,
            d_overlap: 0.0,
            stats: AcceptanceStats::new(),
            scratch: EvalScratch::new(),
            proposal: Proposal::scratch(),
            #[cfg(test)]
            early_rejects: 0,
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
        self.state.reset(rect);
        self.origin.clear();
        self.eligible.clear();
        let from = master.state();
        for (i, ok) in members {
            let c = master.circle(i);
            if ok {
                self.eligible.push(self.origin.len());
            }
            self.origin.push((i, c));
            self.state.push(c, *from.span_table(i), from.overlap_of(i));
        }
        self.d_log_lik = 0.0;
        self.d_overlap = 0.0;
        self.stats = AcceptanceStats::new();
        #[cfg(test)]
        {
            self.early_rejects = 0;
        }
        debug_assert_eq!(
            self.scratch.tally,
            SpanTally::default(),
            "tile work not flushed"
        );
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
        self.state.len()
    }

    /// Draws a local move: its kind and, unless the tile has nothing it may
    /// modify, the eligible entry it moves and the candidate circle.
    fn propose(
        &self,
        p_translate: f64,
        model: &NucleiModel,
        rng: &mut Xoshiro256,
    ) -> (MoveKind, Option<(usize, Circle)>) {
        let translate = rng.gen::<f64>() < p_translate;
        let kind = if translate {
            MoveKind::Translate
        } else {
            MoveKind::Resize
        };
        if self.eligible.is_empty() {
            return (kind, None);
        }
        let ei = self.eligible[rng.gen_range(0..self.eligible.len())];
        let old = self.state.circles()[ei];
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
        (kind, Some((ei, candidate)))
    }

    /// One local iteration on `grid`, which must contain the tile's
    /// rectangle and encode the circles the tile was built over plus this
    /// tile's accepted moves; returns whether the move was accepted. The
    /// evaluation's work stays in `self.scratch` until
    /// [`TileState::run_local`] flushes it.
    fn local_step(
        &mut self,
        grid: &mut CoverageGrid,
        p_translate: f64,
        model: &NucleiModel,
        rng: &mut Xoshiro256,
    ) -> bool {
        let (kind, drawn) = self.propose(p_translate, model, rng);
        let Some((ei, candidate)) = drawn else {
            self.stats.record_invalid(kind);
            return false;
        };
        // The safeguard keeps the candidate's considered area inside the
        // tile, and with it the eligible set for the whole phase.
        let accepted = self.rect.contains_circle(&candidate, self.margin)
            && self.decide(grid, ei, candidate, model, rng);
        if accepted {
            self.stats.record_accept(kind);
        } else {
            self.stats.record_reject(kind);
        }
        accepted
    }

    /// Decides the move of entry `ei` to `candidate` with the bound and the
    /// exact `log α` of [`crate::sampler::decide`], and makes it on `grid`
    /// and the tile's state when accepted. The proposal is evaluated
    /// read-only; `grid` is written only on accept.
    ///
    /// The tile's stream draws `u` only when `log α < 0`. When the bound
    /// `B + ε` is negative, `log α < 0` for certain, so `u` is drawn there
    /// and the move rejected when `B + ε ≤ ln u`; otherwise the overlap
    /// delta and `log α` are computed in full, against that same `u` (or
    /// one drawn only when `log α < 0`). Decisions and the random stream
    /// are the exact step's; only the work to reach them differs.
    fn decide(
        &mut self,
        grid: &mut CoverageGrid,
        ei: usize,
        candidate: Circle,
        model: &NucleiModel,
        rng: &mut Xoshiro256,
    ) -> bool {
        let proposal = &mut self.proposal;
        proposal.edit.set_replace_one(ei, candidate);
        let Some(part) =
            prior_and_likelihood(&self.state, grid, model, proposal, &mut self.scratch)
        else {
            return false;
        };
        let bound = part.bound(&self.state, model, proposal, 1.0);
        let mut log_u = None;
        if bound < 0.0 {
            let u = rng.gen::<f64>().ln();
            if bound <= u {
                #[cfg(test)]
                {
                    self.early_rejects += 1;
                }
                return false;
            }
            log_u = Some(u);
        }
        let d_overlap = self.state.delta_overlap(&proposal.edit);
        let log_alpha = part
            .evaluation(model, d_overlap, proposal.log_q)
            .log_alpha(1.0);
        debug_assert!(
            log_u.is_none() || log_alpha < 0.0,
            "log α {log_alpha} above its bound"
        );
        let accept = log_alpha >= 0.0 || log_u.unwrap_or_else(|| rng.gen::<f64>().ln()) < log_alpha;
        if !accept {
            return false;
        }
        let spans = &self.scratch.added[0];
        self.state.replace(grid, ei, candidate, spans, &model.gain);
        self.d_log_lik += part.d_log_lik;
        self.d_overlap += d_overlap;
        true
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
        self.scratch.flush();
    }

    /// The `(master index, old circle, new circle)` updates accumulated in
    /// this phase.
    #[must_use]
    pub fn updates(&self) -> Vec<(usize, Circle, Circle)> {
        (self.origin.iter().zip(self.state.circles()))
            .filter(|&(&(_, original), c)| *c != original)
            .map(|(&(i, original), &c)| (i, original, c))
            .collect()
    }

    /// Checks what the tile keeps per eligible circle against a
    /// from-scratch recomputation: its lens area with the tile's other
    /// circles, and its row spans.
    ///
    /// # Errors
    /// Describes the first kept value that is out of date.
    pub fn verify_consistency(&self) -> Result<(), String> {
        self.state.verify(self.eligible.iter().copied(), &self.rect)
    }
}

/// A standalone tile: a [`TileState`] (reachable through `Deref`) plus a
/// private crop of the master's coverage over the tile. The periodic
/// sampler runs its tiles on [`Replica`]s instead and never pays the crop.
#[derive(Debug, Clone)]
pub struct TileWorkspace<'m> {
    tile: TileState<'m>,
    coverage: CoverageGrid,
}

impl<'m> TileWorkspace<'m> {
    /// Builds a workspace for `rect` from the master configuration. The
    /// coverage sub-grid is copied as-is, so the contributions of outside
    /// circles whose disks spill into the tile are preserved.
    #[must_use]
    pub fn new(master: &Configuration, model: &'m NucleiModel, rect: Rect) -> Self {
        Self {
            tile: TileState::of(master, model, rect),
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
        (self.tile).run_local(&mut self.coverage, n, p_translate, model, rng);
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
        &self.tile
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
        for (&(i, _), &c) in tile.origin.iter().zip(tile.state.circles()) {
            self.circles[i] = c;
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
        let moves = tile.eligible.iter().filter_map(|&ei| {
            let (i, original) = tile.origin[ei];
            let c = tile.state.circles()[ei];
            (c != original).then(|| (i, original, c, tile.state.span_table(ei)))
        });
        self.absorb(moves, (tile.d_log_lik, tile.d_overlap), &tile.model.gain);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Edit;
    use crate::params::ModelParams;
    use crate::sampler::{evaluate_proposal, Sampler};
    use crate::simd::{backend, force_backend, Backend};
    use crate::spans::SpanTable;
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

    /// Field for field, apart from the scratch buffers.
    fn assert_same_tile(a: &TileState<'_>, b: &TileState<'_>) {
        assert!(std::ptr::eq(a.model, b.model));
        assert_eq!((a.rect, a.margin.to_bits()), (b.rect, b.margin.to_bits()));
        assert!(a.state == b.state, "chain states differ");
        assert_eq!((&a.origin, &a.eligible), (&b.origin, &b.eligible));
        let deltas = |t: &TileState<'_>| [t.d_log_lik, t.d_overlap].map(f64::to_bits);
        assert_eq!(deltas(a), deltas(b));
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.scratch.tally, b.scratch.tally);
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
                let c = ws.state.circles()[ei];
                assert!(rect.contains_circle(&c, model.interaction_margin()));
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
        for (ei, (&(_, original), c)) in ws.origin.iter().zip(ws.state.circles()).enumerate() {
            if ws.eligible.contains(&ei) {
                assert!(
                    tile.contains_circle(c, model.interaction_margin()),
                    "circle escaped its safeguard area"
                );
            } else {
                assert_eq!(*c, original, "frozen circle was modified");
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
        ws.run_local(1, 0.5, &model, &mut rng);
        assert_eq!(ws.stats.total_proposed(), 1);
        assert_eq!(ws.stats.total_accepted(), 0);
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

    /// The exact step of `tile` at image scope, on `shadow`, the master
    /// with the tile's accepted moves made in place: the tile's draws and
    /// safeguard, then the `log α` of [`evaluate_proposal`] against a `u`
    /// drawn only when `log α < 0`. Returns whether it accepts and, for a
    /// rejection that passes the safeguard and the support check, whether
    /// the tile's bound settles it before the overlap term.
    fn exact_step(
        tile: &TileWorkspace<'_>,
        shadow: &mut Configuration,
        model: &NucleiModel,
        rng: &mut Xoshiro256,
    ) -> (bool, Option<bool>) {
        let (_, Some((ei, candidate))) = tile.propose(0.5, model, rng) else {
            return (false, None);
        };
        if !tile.rect.contains_circle(&candidate, tile.margin)
            || !model.params.in_support(&candidate)
        {
            return (false, None);
        }
        let at = |i| Proposal {
            edit: Edit::replace_one(i, candidate),
            ..Proposal::scratch()
        };
        let (i, _) = tile.origin[ei];
        let log_alpha = evaluate_proposal(shadow, model, &at(i)).log_alpha(1.0);
        let accept = |shadow: &mut Configuration| {
            let spans = SpanTable::of(&candidate, &shadow.coverage().rect());
            let old = shadow.circle(i);
            let moved = std::iter::once((i, old, candidate, &spans));
            shadow.absorb(moved, (0.0, 0.0), &model.gain);
            (true, None)
        };
        if log_alpha >= 0.0 {
            return accept(shadow);
        }
        let log_u = rng.gen::<f64>().ln();
        if log_u < log_alpha {
            return accept(shadow);
        }
        let (state, grid) = (&tile.state, &tile.coverage);
        let mut scratch = EvalScratch::new();
        let part = prior_and_likelihood(state, grid, model, &at(ei), &mut scratch);
        let early = part.is_some_and(|part| part.bound(state, model, &at(ei), 1.0) <= log_u);
        (false, Some(early))
    }

    /// The rejection-first tile step against the exact step at image scope,
    /// from the same seed on the tiles of three grids over a burnt-in
    /// scene, on both lane backends: the same decisions and random stream,
    /// and a merge that lands the master on the image-scope chain — at the
    /// default overlap penalty and at a steep one. The tile's own count of
    /// rejections decided before the overlap term must be the ones its
    /// bound settles, and at the default they must be at least 95 % of the
    /// rejections that pass the safeguard and the support check.
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
                        let mut tile = TileWorkspace::new(&master, &model, rect);
                        let mut shadow = master.clone();
                        let mut rng = Xoshiro256::new((k * 8 + t) as u64);
                        let early_before = early;
                        for i in 0..3000 {
                            let mut oracle = rng.clone();
                            let (expected, settled_early) =
                                exact_step(&tile, &mut shadow, &model, &mut oracle);
                            let accepted =
                                (tile.tile).local_step(&mut tile.coverage, 0.5, &model, &mut rng);
                            assert_eq!(
                                accepted, expected,
                                "γ {gamma}, {lanes:?}, {rect:?}, step {i}"
                            );
                            assert_eq!(rng, oracle, "streams apart at step {i}");
                            match settled_early {
                                Some(true) => early += 1,
                                Some(false) => late += 1,
                                None => {}
                            }
                        }
                        assert_eq!(
                            tile.early_rejects,
                            early - early_before,
                            "γ {gamma}, {lanes:?}, {rect:?}: early rejections"
                        );
                        tile.verify_consistency().unwrap();
                        assert!(tile.coverage == shadow.coverage().crop(rect));
                        let mut merged = master.clone();
                        merged.absorb_tile(&tile);
                        assert_eq!(merged.circles(), shadow.circles());
                        merged.verify_consistency(&model).unwrap();
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
                            *master.state().span_table(i) == SpanTable::of(c, &rect),
                            "{:?} on {:?}", c, rect
                        );
                    }
                }
            }
        }
    }
}
