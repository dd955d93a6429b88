//! Tile state for the parallel `Ml` (local move) phases.
//!
//! §V: during a local phase the image is tiled by a random-offset grid and
//! each tile runs translate/resize moves concurrently, under the safeguard
//! that only features whose full prior/likelihood "considered area"
//! (disk + interaction margin) lies strictly inside the tile may be
//! selected or created by a move. The paper's "duplicate, arrange for
//! parallel execution, and merge" is kept incremental here, so a phase
//! costs O(circles that changed) rather than O(pixels):
//!
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
//!   tile, a spatial index over them and the accumulated deltas. It runs
//!   **in place** on a grid that contains its rectangle — a replica's
//!   ([`Replica::run_local`]; the safeguard keeps every written disk
//!   `margin` inside the tile, so tiles sharing a replica cannot interfere)
//!   or the private crop of a standalone [`TileWorkspace`];
//! * proposals are evaluated read-only by the span evaluator behind
//!   [`Configuration::delta_log_lik_readonly`]; the grid is written only on
//!   accept;
//! * [`Configuration::absorb_tile`] merges by replaying the tile's changed
//!   circles on the master grid.

use crate::config::{span_delta_log_lik, Configuration};
use crate::coverage::{CoverageGrid, EditDisk, SpanTally};
use crate::diagnostics::AcceptanceStats;
use crate::likelihood::Gain;
use crate::model::NucleiModel;
use crate::params::MoveKind;
use crate::rng::{standard_normal, Xoshiro256};
use crate::spans::SpanTable;
use crate::spatial::SpatialGrid;
use pmcmc_imaging::{Circle, Rect};
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
/// [`TileState::eligible_count`] of a tile built over the same inputs,
/// without building it.
#[must_use]
pub fn eligible_count(circles: &[Circle], model: &NucleiModel, rect: Rect) -> usize {
    let margin = model.interaction_margin();
    circles
        .iter()
        .filter(|c| modifiable(&rect, c, margin))
        .count()
}

/// One circle tracked by a tile worker.
#[derive(Debug, Clone, Copy)]
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
    /// grid with no model at hand.
    gain: &'m Gain,
    rect: Rect,
    margin: f64,
    entries: Vec<TileEntry>,
    eligible: Vec<usize>,
    /// Slot for slot the row spans of the `eligible` circles, kept up to
    /// date by [`TileState::local_step`]. An eligible disk lies inside the
    /// tile, so its table is the same on any grid that contains the tile.
    spans: Vec<SpanTable>,
    /// Spatial index over entry circles (entry indices as ids), so overlap
    /// deltas cost O(neighbours) rather than O(tile circles) — matching
    /// the master sampler's per-iteration cost, which the §VI model
    /// assumes (τ_l identical in and out of tiles). Sized to the tile.
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
}

impl<'m> TileState<'m> {
    /// Builds the state of tile `rect` over `circles` (the master's list,
    /// or a synced replica's copy of it).
    ///
    /// All circles *centred* in the tile are pulled in (circles centred
    /// elsewhere cannot interact with any eligible circle: an eligible
    /// circle's considered area keeps a distance of at least `r + r_max`
    /// from the boundary).
    fn new(circles: &[Circle], model: &'m NucleiModel, rect: Rect) -> Self {
        let margin = model.interaction_margin();
        let mut entries = Vec::new();
        let mut spans = Vec::new();
        let mut eligible = Vec::new();
        let mut spatial = SpatialGrid::over(rect, 2.0 * model.r_max());
        for (i, &c) in circles.iter().enumerate() {
            if rect.contains_point(c.x, c.y) {
                let ok = modifiable(&rect, &c, margin);
                if ok {
                    eligible.push(entries.len());
                    spans.push(SpanTable::of(&c, &rect));
                }
                spatial.insert(entries.len(), &c);
                entries.push(TileEntry {
                    master_idx: i,
                    circle: c,
                    original: c,
                    eligible: ok,
                });
            }
        }
        Self {
            gain: &model.gain,
            rect,
            margin,
            entries,
            eligible,
            spans,
            spatial,
            d_log_lik: 0.0,
            d_overlap: 0.0,
            d_radius_logprior: 0.0,
            stats: AcceptanceStats::new(),
            tally: SpanTally::default(),
            candidate_spans: SpanTable::EMPTY,
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

    /// One local iteration on `grid`, which must contain the tile's
    /// rectangle and encode the circles the tile was built over plus this
    /// tile's accepted moves; returns whether the move was accepted. The
    /// proposal is evaluated read-only; `grid` is written only on accept.
    /// The evaluation's work stays in `self.tally` until
    /// [`TileState::run_local`] flushes it.
    fn local_step(
        &mut self,
        grid: &mut CoverageGrid,
        p_translate: f64,
        model: &NucleiModel,
        rng: &mut Xoshiro256,
    ) -> bool {
        let translate = rng.gen::<f64>() < p_translate;
        let kind = if translate {
            MoveKind::Translate
        } else {
            MoveKind::Resize
        };
        if self.eligible.is_empty() {
            self.stats.record_invalid(kind);
            return false;
        }
        let slot = rng.gen_range(0..self.eligible.len());
        let ei = self.eligible[slot];
        debug_assert!(self.entries[ei].eligible, "eligible list out of sync");
        let old = self.entries[ei].circle;
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

        // Support + safeguard: the candidate must stay in the radius
        // prior's support and keep its considered area inside the tile
        // (which keeps the eligible set invariant for the whole phase).
        if !model.params.radius_prior.in_support(candidate.r)
            || !self.rect.contains_circle(&candidate, self.margin)
        {
            self.stats.record_reject(kind);
            return false;
        }

        // Overlap delta against neighbouring tile circles (only entries
        // within interaction reach can contribute a non-zero lens term).
        let mut d_overlap = 0.0;
        let reach_new = candidate.r + model.r_max();
        self.spatial
            .for_neighbors(candidate.x, candidate.y, reach_new, |j| {
                if j != ei {
                    d_overlap += candidate.intersection_area(&self.entries[j].circle);
                }
            });
        let reach_old = old.r + model.r_max();
        self.spatial.for_neighbors(old.x, old.y, reach_old, |j| {
            if j != ei {
                d_overlap -= old.intersection_area(&self.entries[j].circle);
            }
        });

        let gain = &model.gain;
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
        let d_log_lik = span_delta_log_lik(grid, gain, &[removed, added], &mut self.tally);

        let d_radius =
            model.params.radius_prior.logpdf(candidate.r) - model.params.radius_prior.logpdf(old.r);

        let log_alpha = d_log_lik + d_radius - model.params.overlap_gamma * d_overlap;
        let accept = log_alpha >= 0.0 || rng.gen::<f64>().ln() < log_alpha;
        if accept {
            grid.remove_disk(&old, &self.spans[slot], gain);
            grid.add_disk(&candidate, &self.candidate_spans, gain);
            self.spans[slot] = self.candidate_spans;
            self.spatial.relocate(ei, &old, &candidate);
            self.entries[ei].circle = candidate;
            self.d_log_lik += d_log_lik;
            self.d_overlap += d_overlap;
            self.d_radius_logprior += d_radius;
            self.stats.record_accept(kind);
        } else {
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
            state: TileState::new(master.circles(), model, rect),
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

    /// Builds the state of tile `rect` over this replica's circle list.
    /// The replica must be synced, so that the tile's master indices are
    /// the master's.
    #[must_use]
    pub fn tile<'m>(&self, model: &'m NucleiModel, rect: Rect) -> TileState<'m> {
        TileState::new(&self.circles, model, rect)
    }

    /// Runs `n` local iterations of `tile` (built by [`Replica::tile`]) in
    /// place on this replica's grid, then records the tile's updates in
    /// the replica's own circle list, so the next [`Replica::sync`] skips
    /// them.
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
    /// tile's changed circles on the master grid and circle list, then
    /// adds the tile's accumulated cache deltas. Tiles are disjoint, so
    /// the merged grid does not depend on the order; the float caches do,
    /// so drivers merge in tile-index order.
    pub fn absorb_tile(&mut self, tile: &TileState<'_>) {
        for (idx, old, new) in tile.updates() {
            self.update_circle_in_place(idx, old, new, tile.gain);
        }
        self.add_cache_deltas(tile.d_log_lik, tile.d_overlap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ModelParams;
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
        let mut master2 = master.clone();
        master2.absorb_tile(&ws);
        master2
            .verify_consistency(&model)
            .expect("overlap bookkeeping incl. frozen circles");
    }
}
