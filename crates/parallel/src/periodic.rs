//! Periodic partitioning (§V) — the paper's primary contribution.
//!
//! The sampler alternates two phases:
//!
//! * an **`Mg` phase**: `i_g` iterations of global moves (birth, death,
//!   split, merge, replace) run sequentially on the whole image;
//! * an **`Ml` phase**: `i_l = i_g · (1 − q_g)/q_g` local-move iterations,
//!   distributed over the tiles of a *randomly offset* uniform grid
//!   proportionally to each tile's count of modifiable features, executed
//!   in parallel with the §V safeguards (see [`TileState`] and [`Replica`]).
//!
//! The iteration split leaves the long-run move-proposal probabilities
//! unchanged, and the random grid offset (redrawn every cycle) prevents
//! persistent partition-boundary bias.
//!
//! # What an `Ml` phase costs
//!
//! The §VI overhead term — "duplicate, arrange for parallel execution, and
//! merge" — is O(circles that changed), not O(pixels). The sampler keeps
//! up to `min(pool threads, tiles)` persistent [`Replica`]s of the master's
//! coverage grid. A phase
//!
//! 1. plans on the owning thread from the master's circle list alone: one
//!    pass ([`TilePlan::plan`]) puts every circle in the tile that holds its
//!    centre and counts the eligible ones, then come the iteration
//!    allocation and an LPT bundling of the tiles that received iterations
//!    onto the replicas (a tile with none gets no task). A phase gets one
//!    bundle per `MIN_BUNDLE_ITERS` local iterations at most: below that a
//!    second bundle was measured to cost more than it saves (see the
//!    constant), and the whole phase runs on the owning thread with no
//!    hand-off at all;
//! 2. runs one task per bundle: the replica catches up with the master by
//!    a positional diff of circle lists ([`Replica::sync`] — this also
//!    picks up whatever the `Mg` phase, the sequential fallback or
//!    speculative lanes did in between, so nothing logs edits), then each
//!    of the bundle's tiles is rebuilt in place from the plan — the
//!    master's own chain state over the circles centred in the tile, span
//!    tables and lens areas copied ([`TileState::build`]) — and runs in
//!    place on it with its own `(seed, phase, tile index)` random stream,
//!    deciding each move with the sequential chain's bound and `log α`.
//!    The heaviest bundle runs on the owning thread itself
//!    ([`WorkerPool::run_batch`]);
//! 3. merges on the owning thread by replaying each tile's changed circles
//!    on the master grid ([`Configuration::absorb_tile`]), in tile-index
//!    order, and keeps the finished tiles for the next phase to rebuild.
//!
//! What a tile computes depends on the master state, its rectangle and its
//! seed only, and the merge order is fixed, so reports do not depend on
//! the pool size, the bundling or which thread ran what.

use pmcmc_core::diagnostics::AcceptanceStats;
use pmcmc_core::rng::derive_seed;
use pmcmc_core::{
    Configuration, MoveWeights, NucleiModel, Replica, Sampler, TilePlan, TileState, Xoshiro256,
};
use pmcmc_imaging::PartitionGrid;
use pmcmc_runtime::{lpt_bundles, WorkerPool};
use rand::Rng;
use std::time::{Duration, Instant};

/// Local iterations a phase must have per bundle before it is split over
/// another thread. A bundle beyond the first wakes a parked worker and the
/// owner then waits for its result. The hand-off itself is cheap: on a
/// virtualised 2-core x86-64 host a woken worker starts 7–9 µs into
/// `run_batch` (p50), and two 57 µs tasks after a 150 µs gap take 70–74 µs
/// (63–66 µs on a `SpinTeam`). Two bundles still lose at the default phase
/// of 192 local iterations on that host. With this constant at 64,
/// `PeriodicSampler::run(500 000)` on the 1024²/150-cell scene spent
/// 1.31–1.36× its global-phase time in local phases, against 1.17–1.19× at
/// 256 (medians of 5 to 9 alternating runs, identical posteriors). In the
/// runs where that was checked, the woken worker started on the owner's
/// CPU in every two-bundle phase and preempted the owner, whose bundle
/// began ≈ 60 µs late: the two bundles ran one after the other. Where the
/// worker started on the other CPU, two bundles won 5 of 9 runs (≤ 1.11×
/// against 1.13–1.17×), all in a slow phase of the host (≥ 837 ns a tile
/// iteration), and lost the other 4 (1.16–1.27× against 1.14–1.21×). Why
/// the scheduler puts the worker beside its waker, and what decides the
/// other runs, is not explained by these measurements.
const MIN_BUNDLE_ITERS: u64 = 256;

/// How the image is tiled during `Ml` phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionScheme {
    /// Uniform grid of `xm × ym` tiles with per-phase random offsets (§V).
    Grid {
        /// Spacing along x (pixels).
        xm: i64,
        /// Spacing along y (pixels).
        ym: i64,
    },
    /// The §VII configuration: grid spacing larger than the image, so each
    /// phase cuts the image into (at most) four rectangles meeting at one
    /// random interior point.
    Corner,
}

impl PartitionScheme {
    fn grid(self, width: u32, height: u32, rng: &mut impl Rng) -> PartitionGrid {
        let (xm, ym) = match self {
            PartitionScheme::Grid { xm, ym } => (xm, ym),
            PartitionScheme::Corner => (i64::from(width), i64::from(height)),
        };
        PartitionGrid::new(xm, ym, rng.gen_range(0..xm), rng.gen_range(0..ym))
    }
}

/// Configuration of the periodic-partitioning sampler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodicOptions {
    /// Iterations per global (`Mg`) phase.
    pub global_phase_iters: u64,
    /// Tiling scheme for local phases.
    pub scheme: PartitionScheme,
    /// Worker threads for local phases.
    pub threads: usize,
    /// Speculative lanes for the `Mg` phases (≤ 1 disables). This realises
    /// eq. (3): "we can obtain further performance improvements by
    /// implementing speculative moves during the Mg phases".
    pub speculative_global_lanes: usize,
}

impl Default for PeriodicOptions {
    fn default() -> Self {
        Self {
            global_phase_iters: 128,
            scheme: PartitionScheme::Corner,
            threads: 4,
            speculative_global_lanes: 1,
        }
    }
}

/// Timing and accounting of one run.
#[derive(Debug, Clone, Default)]
pub struct PeriodicReport {
    /// Completed global/local cycles.
    pub cycles: u64,
    /// Iterations spent in `Mg` phases.
    pub global_iters: u64,
    /// Iterations spent in `Ml` phases (summed over tiles).
    pub local_iters: u64,
    /// Wall time inside `Mg` phases.
    pub global_time: Duration,
    /// Wall time inside `Ml` phases, from the plan to the last thing a
    /// phase frees (overhead included).
    pub local_time: Duration,
    /// The §VI overhead term, a part of `local_time`: per phase, planning
    /// and the merge on the owning thread (handing the finished tiles back
    /// for the next phase included), plus the slowest bundle's replica
    /// sync and tile builds.
    pub overhead_time: Duration,
    /// Total wall time of the run.
    pub total_time: Duration,
    /// Largest number of tiles any single `Ml` phase fanned out over
    /// (tile counts vary per phase with the random grid offset).
    pub max_tiles: usize,
}

impl PeriodicReport {
    /// Total iterations (global + local).
    #[must_use]
    pub fn total_iters(&self) -> u64 {
        self.global_iters + self.local_iters
    }
}

/// The worker pool a [`PeriodicSampler`] runs its local phases on: either
/// its own (the historical behaviour of [`PeriodicSampler::new`]) or one
/// shared with other samplers through the engine layer
/// ([`PeriodicSampler::with_pool`]).
enum PoolHandle<'p> {
    Owned(WorkerPool),
    Shared(&'p WorkerPool),
}

impl std::ops::Deref for PoolHandle<'_> {
    type Target = WorkerPool;
    fn deref(&self) -> &WorkerPool {
        match self {
            PoolHandle::Owned(p) => p,
            PoolHandle::Shared(p) => p,
        }
    }
}

/// The periodic-partitioning sampler.
pub struct PeriodicSampler<'m> {
    model: &'m NucleiModel,
    /// Master chain used for the sequential `Mg` phases; its configuration
    /// is the authoritative state between phases.
    pub master: Sampler<'m>,
    weights: MoveWeights,
    options: PeriodicOptions,
    pool: PoolHandle<'m>,
    spec_engine: Option<crate::speculative::SpeculativeEngine>,
    /// Merged acceptance statistics over global and local phases.
    pub stats: AcceptanceStats,
    seed: u64,
    phase_counter: u64,
    /// Persistent coverage replicas the tiles of a local phase run on, one
    /// per concurrently running bundle; created on first use.
    replicas: Vec<Replica>,
    /// The current local phase's tiling, kept for its storage.
    plan: TilePlan,
    /// Tiles of past local phases, handed back after the merge for the
    /// next phase to rebuild in place.
    spare_tiles: Vec<TileState<'m>>,
}

impl<'m> PeriodicSampler<'m> {
    /// Creates the sampler with a random initial configuration and its own
    /// worker pool of `options.threads` workers.
    #[must_use]
    pub fn new(model: &'m NucleiModel, seed: u64, options: PeriodicOptions) -> Self {
        let master = Sampler::new(model, seed);
        Self::with_master(model, master, seed, options)
    }

    /// Creates the sampler from an existing master chain (e.g. to continue
    /// a sequential burn-in).
    #[must_use]
    pub fn with_master(
        model: &'m NucleiModel,
        master: Sampler<'m>,
        seed: u64,
        options: PeriodicOptions,
    ) -> Self {
        let pool = PoolHandle::Owned(WorkerPool::new(options.threads.max(1)));
        Self::build(model, master, seed, options, pool)
    }

    /// Creates the sampler on a shared [`WorkerPool`] instead of spawning
    /// its own; `options.threads` is ignored in favour of the pool's size.
    /// This is what the [`crate::engine`] layer uses so every strategy in a
    /// sweep runs on the same pool.
    #[must_use]
    pub fn with_pool(
        model: &'m NucleiModel,
        seed: u64,
        options: PeriodicOptions,
        pool: &'m WorkerPool,
    ) -> Self {
        let master = Sampler::new(model, seed);
        Self::build(model, master, seed, options, PoolHandle::Shared(pool))
    }

    fn build(
        model: &'m NucleiModel,
        master: Sampler<'m>,
        seed: u64,
        options: PeriodicOptions,
        pool: PoolHandle<'m>,
    ) -> Self {
        let spec_engine = if options.speculative_global_lanes > 1 {
            Some(crate::speculative::SpeculativeEngine::new(
                derive_seed(seed, 0xEC3),
                options.speculative_global_lanes,
            ))
        } else {
            None
        };
        Self {
            model,
            master,
            weights: MoveWeights::default(),
            options,
            pool,
            spec_engine,
            stats: AcceptanceStats::new(),
            seed,
            phase_counter: 0,
            replicas: Vec::new(),
            plan: TilePlan::default(),
            spare_tiles: Vec::new(),
        }
    }

    /// Overrides the overall move weights (determines `q_g`).
    pub fn set_weights(&mut self, weights: MoveWeights) {
        self.weights = weights;
    }

    /// The current configuration.
    #[must_use]
    pub fn config(&self) -> &Configuration {
        &self.master.config
    }

    /// Runs at least `total_iters` iterations (whole cycles; may overshoot
    /// by at most one cycle) and reports phase timings. The cancel token
    /// and deadline of `ctx` are polled once per global/local cycle, and
    /// progress/checkpoint events are emitted at the same granularity.
    ///
    /// # Errors
    /// [`crate::job::RunError::Cancelled`] /
    /// [`crate::job::RunError::DeadlineExceeded`] when the context stops
    /// the run between cycles (the master configuration stays consistent —
    /// cycles are never interrupted midway).
    pub fn run(
        &mut self,
        total_iters: u64,
        ctx: &crate::job::RunCtx,
    ) -> Result<PeriodicReport, crate::job::RunError> {
        let mut report = PeriodicReport::default();
        let start = Instant::now();
        let qg = self.weights.qg();
        let i_g = self.options.global_phase_iters.max(1);
        // i_l chosen so the long-run proposal mix matches q_g (§V):
        // i_g global per i_g·(1−q_g)/q_g local.
        let i_l = if qg > 0.0 {
            ((i_g as f64) * (1.0 - qg) / qg).round().max(0.0) as u64
        } else {
            i_g
        };
        ctx.phase("cycles");
        let mut checkpoints = ctx.checkpointer();
        while report.total_iters() < total_iters {
            self.run_cycle(i_g, i_l, &mut report);
            report.cycles += 1;
            let done = report.total_iters();
            ctx.progress(done, total_iters)?;
            if checkpoints.due(done) {
                ctx.checkpoint(
                    done,
                    self.master.config.len(),
                    self.master.config.log_posterior(self.model),
                );
            }
        }
        report.total_time = start.elapsed();
        Ok(report)
    }

    // Kept out of line: inlined into `run` together with the `Mg` loop's
    // `Sampler::step` chain, the global phase compiled ~19 % slower
    // (`dense_periodic` wall_s +10 %, global_share 0.505 → 0.54, 2-core
    // sandbox, thin LTO); as a function of its own it matches the
    // pre-`StrategySpec::run` binary.
    #[inline(never)]
    fn run_cycle(&mut self, i_g: u64, i_l: u64, report: &mut PeriodicReport) {
        // ---- Mg phase: global moves on the full image — sequential, or
        // speculative when lanes were requested (eq. 3).
        let t0 = Instant::now();
        if i_g > 0 && self.weights.qg() > 0.0 {
            let global_weights = self.weights.global_only();
            if let Some(engine) = self.spec_engine.as_mut() {
                let consumed = engine.run(
                    &mut self.master.config,
                    self.model,
                    &global_weights,
                    &mut self.stats,
                    i_g,
                );
                report.global_iters += consumed;
            } else {
                self.master.set_weights(global_weights);
                self.master.run(i_g);
                report.global_iters += i_g;
            }
        }
        report.global_time += t0.elapsed();

        // ---- Ml phase: parallel local moves on a freshly offset grid,
        // timed from the plan to the last thing the phase frees.
        if i_l == 0 {
            return;
        }
        let t1 = Instant::now();
        self.local_phase(i_l, report);
        report.local_time += t1.elapsed();
    }

    /// One `Ml` phase of `i_l` local iterations; adds its iterations and
    /// its §VI overhead to `report`.
    fn local_phase(&mut self, i_l: u64, report: &mut PeriodicReport) {
        self.phase_counter += 1;
        let model = self.model;
        let (w, h) = (model.params.width, model.params.height);
        let grid = self.options.scheme.grid(w, h, &mut self.master.rng);

        // Plan on the owning thread, from the master's circle list alone:
        // one pass for tile membership and eligible counts, then the
        // iteration allocation and the bundling.
        let t_plan = Instant::now();
        self.plan.plan(&grid, self.master.config.circles(), model);
        let tiles = self.plan.rects();
        report.max_tiles = report.max_tiles.max(tiles.len());
        let eligible: Vec<f64> = (self.plan.eligible_counts().iter())
            .map(|&e| e as f64)
            .collect();
        if eligible.iter().all(|&e| e == 0.0) {
            // No modifiable feature anywhere (e.g. a nearly empty chain):
            // fall back to sequential local moves on the full image, which
            // is always statistically valid.
            report.overhead_time += t_plan.elapsed();
            self.master.set_weights(self.weights.local_only());
            self.master.run(i_l);
            report.local_iters += i_l;
            return;
        }

        // Allocate iterations ∝ modifiable features (§V). A tile with no
        // iterations gets no task; the rest are LPT-bundled, one bundle
        // per replica, with no more bundles than the phase can keep busy
        // for `MIN_BUNDLE_ITERS` each.
        let allocations = largest_remainder_allocation(i_l, &eligible);
        let active: Vec<usize> = (0..tiles.len()).filter(|&i| allocations[i] > 0).collect();
        let loads: Vec<f64> = active.iter().map(|&i| allocations[i] as f64).collect();
        let worthwhile = usize::try_from(i_l / MIN_BUNDLE_ITERS).unwrap_or(usize::MAX);
        let bundle_count = self.pool.threads().min(active.len()).min(worthwhile.max(1));
        let bundles: Vec<Vec<usize>> = lpt_bundles(&loads, bundle_count)
            .into_iter()
            .map(|bundle| bundle.into_iter().map(|a| active[a]).collect())
            .collect();
        while self.replicas.len() < bundles.len() {
            self.replicas.push(Replica::new(&self.master.config));
        }
        // Each bundle takes one tile from the last phase per tile it runs.
        let shells: Vec<Vec<TileState<'m>>> = (bundles.iter())
            .map(|bundle| {
                (bundle.iter())
                    .map(|_| {
                        self.spare_tiles
                            .pop()
                            .unwrap_or_else(|| TileState::new(model))
                    })
                    .collect()
            })
            .collect();

        // Local move mix within Ml: translate vs resize proportions.
        let local = self.weights.local_only();
        let p_translate = if local.translate + local.resize > 0.0 {
            local.translate / (local.translate + local.resize)
        } else {
            0.5
        };
        let mut overhead = t_plan.elapsed();

        // One task per bundle, each on its own replica: catch up with the
        // master, then build the bundle's tiles from the master and the
        // plan and run them in place. What a tile computes depends on the
        // master state, its rectangle and its (phase, tile index) seed
        // only — never on the bundling.
        let phase = self.phase_counter;
        let seed = self.seed;
        let master = &self.master.config;
        let (plan, allocations) = (&self.plan, &allocations);
        let tasks: Vec<(f64, _)> = (self.replicas.iter_mut())
            .zip(bundles.iter().zip(shells))
            .map(|(replica, (bundle, shells))| {
                let load = bundle.iter().map(|&idx| allocations[idx]).sum::<u64>() as f64;
                let task = move || {
                    let t_sync = Instant::now();
                    replica.sync(master.circles(), &model.gain);
                    debug_assert!(
                        replica.coverage() == master.coverage(),
                        "replica out of sync with the master"
                    );
                    let mut prep = t_sync.elapsed();
                    let mut finished = Vec::with_capacity(bundle.len());
                    for (&idx, mut tile) in bundle.iter().zip(shells) {
                        let t_build = Instant::now();
                        tile.build(master, plan, idx);
                        prep += t_build.elapsed();
                        let mut rng = Xoshiro256::new(derive_seed(
                            seed,
                            phase.wrapping_mul(8192) + idx as u64,
                        ));
                        replica.run_local(
                            &mut tile,
                            allocations[idx],
                            p_translate,
                            model,
                            &mut rng,
                        );
                        finished.push((idx, tile));
                    }
                    (prep, finished)
                };
                (load, task)
            })
            .collect();
        let results = self.pool.run_batch(tasks);

        // Merge by replay, in tile-index order so the float caches and the
        // statistics accumulate the same way whatever the bundling was;
        // the finished tiles then go back for the next phase to rebuild.
        let t_merge = Instant::now();
        let mut finished = Vec::with_capacity(active.len());
        let mut slowest_prep = Duration::ZERO;
        for (prep, bundle) in results {
            slowest_prep = slowest_prep.max(prep);
            finished.extend(bundle);
        }
        finished.sort_unstable_by_key(|&(idx, _)| idx);
        for (_, tile) in &finished {
            self.master.config.absorb_tile(tile);
            self.stats.merge(&tile.stats);
        }
        self.spare_tiles
            .extend(finished.into_iter().map(|(_, tile)| tile));
        overhead += t_merge.elapsed() + slowest_prep;
        report.overhead_time += overhead;
        report.local_iters += allocations.iter().sum::<u64>();
    }

    /// Merged statistics including the master chain's.
    #[must_use]
    pub fn merged_stats(&self) -> AcceptanceStats {
        let mut s = self.stats.clone();
        s.merge(&self.master.stats);
        s
    }
}

/// Splits `total` into integer parts proportional to `weights` using the
/// largest-remainder method (parts sum exactly to `total`).
#[must_use]
pub fn largest_remainder_allocation(total: u64, weights: &[f64]) -> Vec<u64> {
    let sum: f64 = weights.iter().sum();
    if sum <= 0.0 || weights.is_empty() {
        return vec![0; weights.len()];
    }
    let exact: Vec<f64> = weights.iter().map(|w| total as f64 * w / sum).collect();
    let mut parts: Vec<u64> = exact.iter().map(|e| e.floor() as u64).collect();
    let assigned: u64 = parts.iter().sum();
    let mut remainders: Vec<(f64, usize)> = exact
        .iter()
        .enumerate()
        .map(|(i, e)| (e - e.floor(), i))
        .collect();
    remainders.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    for k in 0..(total - assigned) as usize {
        parts[remainders[k % remainders.len()].1] += 1;
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::RunCtx;
    use pmcmc_core::ModelParams;
    use pmcmc_imaging::synth::{generate, SceneSpec};

    fn scene_model(size: u32, n: usize, seed: u64) -> (NucleiModel, Vec<pmcmc_imaging::Circle>) {
        let spec = SceneSpec {
            width: size,
            height: size,
            n_circles: n,
            radius_mean: 8.0,
            radius_sd: 0.8,
            radius_min: 5.0,
            radius_max: 12.0,
            noise_sd: 0.05,
            ..SceneSpec::default()
        };
        let mut rng = Xoshiro256::new(seed);
        let scene = generate(&spec, &mut rng);
        let img = scene.render(&mut rng);
        let mut params = ModelParams::new(size, size, n as f64, 8.0);
        params.noise_sd = 0.15;
        (NucleiModel::new(&img, params), scene.circles)
    }

    #[test]
    fn allocation_sums_to_total() {
        let parts = largest_remainder_allocation(100, &[1.0, 2.0, 3.0, 0.5]);
        assert_eq!(parts.iter().sum::<u64>(), 100);
        assert!(parts[2] > parts[0]);
        assert_eq!(largest_remainder_allocation(7, &[0.0, 0.0]), vec![0, 0]);
        assert_eq!(largest_remainder_allocation(10, &[1.0]), vec![10]);
    }

    #[test]
    fn allocation_proportionality() {
        let parts = largest_remainder_allocation(1000, &[10.0, 20.0, 70.0]);
        assert_eq!(parts, vec![100, 200, 700]);
    }

    #[test]
    fn run_reaches_iteration_budget_and_stays_consistent() {
        let (model, _) = scene_model(128, 10, 1);
        let mut ps = PeriodicSampler::new(
            &model,
            7,
            PeriodicOptions {
                global_phase_iters: 64,
                scheme: PartitionScheme::Corner,
                threads: 2,
                ..PeriodicOptions::default()
            },
        );
        let report = ps.run(5_000, &RunCtx::default()).unwrap();
        assert!(report.total_iters() >= 5_000);
        assert!(report.cycles > 0);
        assert!(report.global_iters > 0);
        assert!(report.local_iters > 0);
        ps.config()
            .verify_consistency(&model)
            .expect("master consistent after periodic run");
        // Long-run proposal mix ≈ q_g.
        let frac_global = report.global_iters as f64 / report.total_iters() as f64;
        assert!(
            (frac_global - 0.4).abs() < 0.05,
            "global fraction {frac_global}"
        );
    }

    #[test]
    fn grid_scheme_produces_many_tiles() {
        let (model, _) = scene_model(128, 10, 2);
        let mut ps = PeriodicSampler::new(
            &model,
            3,
            PeriodicOptions {
                global_phase_iters: 32,
                scheme: PartitionScheme::Grid { xm: 48, ym: 48 },
                threads: 4,
                ..PeriodicOptions::default()
            },
        );
        let report = ps.run(3_000, &RunCtx::default()).unwrap();
        assert!(report.total_iters() >= 3_000);
        ps.config().verify_consistency(&model).unwrap();
    }

    #[test]
    fn short_phases_stay_on_the_owning_thread_and_long_ones_fan_out() {
        let (model, _) = scene_model(128, 10, 2);
        let run = |global_phase_iters| {
            let mut ps = PeriodicSampler::new(
                &model,
                3,
                PeriodicOptions {
                    global_phase_iters,
                    scheme: PartitionScheme::Corner,
                    threads: 3,
                    ..PeriodicOptions::default()
                },
            );
            let report = ps.run(20_000, &RunCtx::default()).unwrap();
            ps.config().verify_consistency(&model).unwrap();
            (ps.replicas.len(), ps.pool.stats().tasks, report.cycles)
        };
        // 192 local iterations a phase: one bundle, one replica, one task
        // a cycle at most — and that one runs on the caller.
        let (replicas, tasks, cycles) = run(128);
        assert_eq!(replicas, 1);
        assert!(tasks <= cycles, "{tasks} tasks in {cycles} cycles");
        // 1536 a phase: enough for every worker the tiles can feed.
        let (replicas, tasks, cycles) = run(1024);
        assert!(replicas >= 2, "{replicas} replicas");
        assert!(tasks > cycles, "{tasks} tasks in {cycles} cycles");
    }

    /// The phase timers cover the run: nothing a cycle does — planning,
    /// merging, handing the tiles back, freeing the phase's lists — falls
    /// between them.
    #[test]
    fn phase_timers_account_for_the_run() {
        let (model, _) = scene_model(160, 14, 5);
        let mut ps = PeriodicSampler::new(&model, 13, PeriodicOptions::default());
        let report = ps.run(60_000, &RunCtx::default()).unwrap();
        let phases = report.global_time + report.local_time;
        assert!(
            phases.as_secs_f64() >= 0.95 * report.total_time.as_secs_f64(),
            "phases {phases:?} of {:?}",
            report.total_time
        );
        assert!(report.overhead_time < report.local_time);
    }

    #[test]
    fn deterministic_given_seed_and_threads() {
        let (model, _) = scene_model(96, 8, 3);
        let opts = PeriodicOptions {
            global_phase_iters: 50,
            scheme: PartitionScheme::Corner,
            threads: 3,
            ..PeriodicOptions::default()
        };
        let run = |seed| {
            let mut ps = PeriodicSampler::new(&model, seed, opts);
            ps.run(2_000, &RunCtx::default()).unwrap();
            (ps.config().len(), ps.config().log_posterior(&model))
        };
        let (k1, lp1) = run(11);
        let (k2, lp2) = run(11);
        assert_eq!(k1, k2);
        assert!((lp1 - lp2).abs() < 1e-9, "{lp1} vs {lp2}");
    }

    #[test]
    fn detects_planted_circles_like_sequential() {
        let (model, truth) = scene_model(128, 10, 4);
        let mut ps = PeriodicSampler::new(
            &model,
            5,
            PeriodicOptions {
                global_phase_iters: 100,
                scheme: PartitionScheme::Corner,
                threads: 4,
                ..PeriodicOptions::default()
            },
        );
        ps.run(40_000, &RunCtx::default()).unwrap();
        let detected = ps.config().circles().to_vec();
        let m = pmcmc_core::match_circles(&truth, &detected, 5.0);
        assert!(
            m.recall() >= 0.8,
            "recall {} (found {}/{})",
            m.recall(),
            m.matches.len(),
            truth.len()
        );
    }

    #[test]
    fn speculative_global_phases_preserve_quality() {
        // eq. (3) realised: periodic partitioning with 4-lane speculative
        // Mg phases is still an exact sampler.
        let (model, truth) = scene_model(128, 10, 6);
        let mut ps = PeriodicSampler::new(
            &model,
            21,
            PeriodicOptions {
                global_phase_iters: 100,
                scheme: PartitionScheme::Corner,
                threads: 4,
                speculative_global_lanes: 4,
            },
        );
        let report = ps.run(40_000, &RunCtx::default()).unwrap();
        assert!(report.total_iters() >= 40_000);
        ps.config().verify_consistency(&model).unwrap();
        let m = pmcmc_core::match_circles(&truth, ps.config().circles(), 5.0);
        assert!(m.recall() >= 0.8, "recall {}", m.recall());
        // The speculative engine's iterations were accounted as global.
        assert!(report.global_iters > 0);
        let frac_global = report.global_iters as f64 / report.total_iters() as f64;
        assert!(
            (frac_global - 0.4).abs() < 0.06,
            "global fraction {frac_global}"
        );
    }

    #[test]
    fn empty_configuration_falls_back_to_sequential_local() {
        // λ tiny and a dark image: the chain may be empty when a local
        // phase starts; the driver must not dead-lock or lose iterations.
        let params = ModelParams::new(64, 64, 0.5, 8.0);
        let img = pmcmc_imaging::GrayImage::filled(64, 64, 0.1);
        let model = NucleiModel::new(&img, params);
        let mut ps = PeriodicSampler::new(
            &model,
            9,
            PeriodicOptions {
                global_phase_iters: 20,
                scheme: PartitionScheme::Corner,
                threads: 2,
                ..PeriodicOptions::default()
            },
        );
        let report = ps.run(1_000, &RunCtx::default()).unwrap();
        assert!(report.total_iters() >= 1_000);
        ps.config().verify_consistency(&model).unwrap();
    }
}
