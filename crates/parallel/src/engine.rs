//! The unified strategy engine: every parallelisation scheme of the paper
//! behind one typed API.
//!
//! The paper's entire argument is a *comparison* of parallelisation
//! schemes on the same RJMCMC workload; this module is the comparison
//! harness. A scheme is described by a typed [`StrategySpec`] (one variant
//! per scheme, carrying that scheme's options, with `FromStr`/`Display`
//! for CLI round-tripping) and run by [`StrategySpec::run`], which takes a
//! [`RunRequest`] (image, model parameters, shared worker pool, seed,
//! iteration budget) plus a [`RunCtx`] (cancellation, deadline, progress
//! observer) and produces a [`RunReport`] (final [`Configuration`],
//! per-phase timings, diagnostics and a statistical [`Validity`] tag) —
//! or a structured [`RunError`]:
//!
//! ```
//! use pmcmc_core::ModelParams;
//! use pmcmc_imaging::GrayImage;
//! use pmcmc_parallel::engine::{RunRequest, StrategySpec};
//! use pmcmc_parallel::job::RunCtx;
//! use pmcmc_runtime::WorkerPool;
//!
//! let image = GrayImage::filled(64, 64, 0.1);
//! let params = ModelParams::new(64, 64, 2.0, 8.0);
//! let pool = WorkerPool::new(2);
//! let req = RunRequest::new(&image, &params, &pool, 7).iterations(2_000);
//!
//! // Sweep everything…
//! for spec in StrategySpec::all() {
//!     let report = spec.run(&req, &RunCtx::default()).unwrap();
//!     println!("{}: {} circles", report.strategy, report.detected().len());
//! }
//! // …or pick one scheme from its CLI spelling.
//! let spec: StrategySpec = "periodic".parse().unwrap();
//! assert!(spec.run(&req, &RunCtx::default()).unwrap().validity.is_exact());
//! ```
//!
//! **Who validates.** [`StrategySpec::run`] is the single place a run is
//! validated — the workload ([`RunRequest::validate`]) and the scheme
//! options ([`StrategySpec::validate`]) — so directly constructed requests
//! and options get the same [`RunError::InvalidSpec`] as parsed ones; the
//! job layer repeats the same two checks at submission only to fail fast.
//! `run` does not catch panics: that is the job runner's business
//! ([`crate::job::run_blueprint`]).
//!
//! **Who owns what.** The request is the only source of a run's pool,
//! budget and seed: a [`StrategySpec`] carries neither a thread count nor
//! an iteration cap of its own, so every scheme in a sweep runs at the
//! same budget on the same pool. [`PeriodicSampler::new`] takes the pool;
//! the partition pipelines ([`run_intelligent`], [`run_blind`],
//! [`run_naive`]) take the request and run every partition chain through
//! one function, [`crate::subchain::run_partition_chain`], capped at
//! [`RunRequest::iterations`].
//!
//! Service-style execution — owned job descriptions, background submission,
//! live events, cancellation, batches — lives one layer up in
//! [`crate::job`]. The scheme pipelines remain public for callers that
//! need scheme-specific outputs; the arms of `run` are thin wrappers over
//! them.

use crate::blind::{run_blind, BlindOptions};
use crate::intelligent::{run_intelligent, IntelligentPartitioner};
use crate::job::{RunCtx, RunError};
use crate::mc3par::run_mc3_parallel;
use crate::naive::{run_naive, NaiveOptions, NaivePrior};
use crate::periodic::{PartitionScheme, PeriodicOptions, PeriodicSampler};
use crate::speculative::SpeculativeSampler;
use crate::subchain::{SubChainOptions, SubChainResult};
use pmcmc_core::{Configuration, Mc3, ModelParams, NucleiModel, Sampler};
use pmcmc_imaging::{Circle, GrayImage};
use pmcmc_runtime::{NodeId, WorkerPool};
use std::fmt;
use std::str::FromStr;
use std::time::{Duration, Instant};

/// Statistical validity of a scheme, as classified by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Validity {
    /// Samples the exact posterior (sequential, periodic, speculative,
    /// (MC)³).
    Exact,
    /// Approximates the posterior with a principled heuristic
    /// (intelligent/blind partitioning).
    Heuristic,
    /// Known-broken baseline kept for comparison (naive partitioning).
    Broken,
}

impl Validity {
    /// Whether the scheme samples the exact posterior.
    #[must_use]
    pub fn is_exact(self) -> bool {
        self == Validity::Exact
    }

    /// Short lower-case label for tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Validity::Exact => "exact",
            Validity::Heuristic => "heuristic",
            Validity::Broken => "broken",
        }
    }
}

/// Everything a scheme needs to run: the shared workload description.
#[derive(Clone, Copy)]
pub struct RunRequest<'a> {
    /// The input intensity image.
    pub image: &'a GrayImage,
    /// Model parameters for the full image (schemes derive per-partition
    /// parameters themselves).
    pub params: &'a ModelParams,
    /// The worker pool shared by every scheme in a sweep, and the only
    /// source of a run's threads: no scheme option carries a thread count.
    pub pool: &'a WorkerPool,
    /// Master seed; schemes derive their internal streams from it.
    pub seed: u64,
    /// Iteration budget — the only one a run has: no scheme option
    /// carries a budget of its own. Exact single-chain schemes run this
    /// many chain iterations; (MC)³ gives this budget to every coupled
    /// chain; partition schemes cap each partition chain at it (a chain
    /// that converged then settles for `settle_frac` of its convergence
    /// iteration).
    pub iterations: u64,
}

impl<'a> RunRequest<'a> {
    /// Creates a request with the default iteration budget (60 000).
    #[must_use]
    pub fn new(
        image: &'a GrayImage,
        params: &'a ModelParams,
        pool: &'a WorkerPool,
        seed: u64,
    ) -> Self {
        Self {
            image,
            params,
            pool,
            seed,
            iterations: 60_000,
        }
    }

    /// Sets the iteration budget.
    #[must_use]
    pub fn iterations(mut self, iterations: u64) -> Self {
        self.iterations = iterations;
        self
    }

    /// Builds the full-image model this request describes.
    #[must_use]
    pub fn model(&self) -> NucleiModel {
        NucleiModel::new(self.image, self.params.clone())
    }

    /// Checks the request for impossible workloads; [`StrategySpec::run`]
    /// calls this before touching the image, so bad inputs surface as
    /// [`RunError::InvalidSpec`] instead of a panic deep inside a scheme.
    ///
    /// # Errors
    /// [`RunError::InvalidSpec`] for a zero iteration budget, an empty
    /// image, or image/parameter dimension mismatch.
    pub fn validate(&self) -> Result<(), RunError> {
        validate_workload(self.iterations, self.image, self.params)
    }
}

/// The one workload validity check, shared by [`RunRequest::validate`] and
/// `JobSpec::validate` so the two surfaces cannot drift apart.
pub(crate) fn validate_workload(
    iterations: u64,
    image: &GrayImage,
    params: &ModelParams,
) -> Result<(), RunError> {
    if iterations == 0 {
        return Err(RunError::InvalidSpec(
            "iteration budget must be at least 1".to_owned(),
        ));
    }
    if image.width() == 0 || image.height() == 0 {
        return Err(RunError::InvalidSpec(format!(
            "image must be non-empty, got {}x{}",
            image.width(),
            image.height()
        )));
    }
    if params.width != image.width() || params.height != image.height() {
        return Err(RunError::InvalidSpec(format!(
            "model parameters sized {}x{} do not match the {}x{} image",
            params.width,
            params.height,
            image.width(),
            image.height()
        )));
    }
    Ok(())
}

/// One named phase of a run and the wall time spent in it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTiming {
    /// Phase label (e.g. `"global"`, `"chains"`, `"merge"`).
    pub phase: &'static str,
    /// Wall time spent in the phase.
    pub duration: Duration,
}

impl PhaseTiming {
    pub(crate) fn new(phase: &'static str, duration: Duration) -> Self {
        Self { phase, duration }
    }
}

/// Wall-clock accounting of one cluster node's share of a run: how long
/// the work waited for a slot and how long the node was busy executing
/// it. The regression target for these numbers is
/// [`theory::eq4_time`](crate::theory::eq4_time) — summing `busy` over a
/// batch and comparing makespans across topologies is how the §VI cluster
/// model is validated against measured execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeTiming {
    /// The node the work ran on.
    pub node: NodeId,
    /// Time between submission and a node picking the work up: the job's
    /// wait in its backend's backlog for a free slot (on the distributed
    /// backend, until the coordinator ships it).
    pub queued: Duration,
    /// Wall time the node spent executing the work, the model build
    /// included.
    pub busy: Duration,
}

/// Run accounting beyond the final state: everything the examples'
/// tables and the benchmark's per-layer metrics report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunDiagnostics {
    /// Number of partitions / tiles / chains the scheme fanned out over
    /// (1 for purely sequential execution).
    pub partitions: usize,
    /// Overall move-acceptance rate, when the scheme tracks one.
    pub acceptance_rate: Option<f64>,
    /// Log-posterior of the final configuration under the full-image
    /// model.
    pub log_posterior: f64,
    /// Free-form scheme-specific notes (convergence iterations, merge
    /// counts, …).
    pub notes: Vec<String>,
    /// Hot-path perf counters accumulated during the run (§VI overhead
    /// accounting): proposals evaluated, pixels visited by the likelihood
    /// walkers, pair-count cache traffic, RNG refills, speculative rounds
    /// and helper spin-wait time. Counters are process-global, so the
    /// numbers are exact only when runs don't overlap; concurrent runs
    /// (e.g. parallel tests) see each other's traffic.
    pub perf: Option<pmcmc_core::PerfSnapshot>,
}

/// The shared result shape every scheme produces.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Name of the strategy that produced this report.
    pub strategy: String,
    /// Statistical validity of the scheme.
    pub validity: Validity,
    /// Final chain state, expressed as a configuration over the
    /// *full-image* model (partition schemes re-assemble it from their
    /// merged detections).
    pub config: Configuration,
    /// Per-phase wall-time breakdown.
    pub phases: Vec<PhaseTiming>,
    /// Wall time of the scheme itself, for all seven schemes alike: the
    /// clock starts once the request is validated and the full-image model
    /// is built (the model build is setup, not scheme time) and stops when
    /// the scheme has produced its final configuration, before the final
    /// log-posterior evaluation.
    pub total_time: Duration,
    /// Iterations actually executed (summed over partitions/chains).
    pub iterations: u64,
    /// Scheme diagnostics.
    pub diagnostics: RunDiagnostics,
    /// Per-node wall-clock accounting, filled in by the execution
    /// backends: one entry, for the node the job was placed on. Empty for
    /// direct [`StrategySpec::run`] calls that bypass the job layer.
    pub node_timings: Vec<NodeTiming>,
}

impl RunReport {
    /// Final detections in global coordinates (the circles of
    /// [`RunReport::config`]).
    #[must_use]
    pub fn detected(&self) -> &[Circle] {
        self.config.circles()
    }

    /// Wall time of one named phase, if the scheme reported it.
    #[must_use]
    pub fn phase(&self, name: &str) -> Option<Duration> {
        self.phases
            .iter()
            .find(|p| p.phase == name)
            .map(|p| p.duration)
    }

    /// Assembles a report around a final configuration. `model` must be
    /// the full-image model of the request (callers pass the one they
    /// already built rather than paying a second O(width·height) gain
    /// construction).
    pub(crate) fn finish(
        strategy: &str,
        validity: Validity,
        model: &NucleiModel,
        config: Configuration,
        total_time: Duration,
        iterations: u64,
    ) -> Self {
        let log_posterior = config.log_posterior(model);
        Self {
            strategy: strategy.to_owned(),
            validity,
            config,
            phases: Vec::new(),
            total_time,
            iterations,
            diagnostics: RunDiagnostics {
                partitions: 1,
                acceptance_rate: None,
                log_posterior,
                notes: Vec::new(),
                perf: None,
            },
            node_timings: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// StrategySpec — the typed registry.

/// A typed, serialisable description of one parallelisation scheme and its
/// options — the only way to name a scheme, and, through
/// [`StrategySpec::run`], the only way to run one.
///
/// The CLI grammar is `name[:key=value[,key=value]…]`; `Display` renders
/// the canonical spelling (options are emitted only when they differ from
/// the scheme's defaults), so specs round-trip:
///
/// ```
/// use pmcmc_parallel::engine::StrategySpec;
///
/// let spec: StrategySpec = "mc3:chains=4,heat=0.5".parse().unwrap();
/// assert_eq!(spec, StrategySpec::Mc3 { chains: 4, heat: 0.5, segment_len: 500 });
/// assert_eq!(spec.to_string(), "mc3:chains=4,heat=0.5");
/// assert_eq!(spec.to_string().parse::<StrategySpec>().unwrap(), spec);
///
/// // Defaults render as the bare name.
/// assert_eq!("periodic".parse::<StrategySpec>().unwrap().to_string(), "periodic");
///
/// // Unknown names and malformed options are structured errors, not panics.
/// assert!("warp-drive".parse::<StrategySpec>().is_err());
/// assert!("blind:cols=zero".parse::<StrategySpec>().is_err());
/// ```
///
/// Options outside the grammar (e.g. the periodic tiling scheme or the
/// partition chains' convergence knobs) keep their defaults when parsed
/// and are not rendered; construct the variant directly to set them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StrategySpec {
    /// The sequential RJMCMC baseline.
    Sequential,
    /// Periodic partitioning (§V). Keys: `global` (iterations per `Mg`
    /// phase), `lanes` (speculative lanes for the `Mg` phases).
    Periodic(PeriodicOptions),
    /// Speculative moves. Key: `lanes` (0 derives from the pool).
    Speculative {
        /// Speculative lanes; 0 derives the count from the request's pool.
        lanes: usize,
    },
    /// Metropolis-coupled MCMC (§IV). Keys: `chains`, `heat`, `segment`.
    Mc3 {
        /// Number of coupled chains (including the cold one).
        chains: usize,
        /// Temperature spacing (heat increment per chain).
        heat: f64,
        /// Iterations between swap attempts.
        segment_len: u64,
    },
    /// Intelligent partitioning (§VIII). Keys: `theta` (pre-processor
    /// threshold), `gap` (minimum empty-corridor width).
    Intelligent {
        /// The guillotine pre-processor.
        partitioner: IntelligentPartitioner,
        /// Per-partition chain options.
        chain: SubChainOptions,
    },
    /// Blind partitioning (§VIII/§IX). Keys: `cols`, `rows`.
    Blind(BlindOptions),
    /// The naive anti-baseline (§II). Keys: `cols`, `rows`, `prior`
    /// (`uniform` or `density`).
    Naive(NaiveOptions),
}

/// Default number of coupled (MC)³ chains (including the cold one).
const MC3_CHAINS: usize = 3;
/// Default (MC)³ temperature spacing (heat increment per chain).
const MC3_HEAT: f64 = 0.4;
/// Default iterations between (MC)³ swap attempts.
const MC3_SEGMENT_LEN: u64 = 500;

impl StrategySpec {
    /// The (MC)³ variant with the defaults below — what the bare `mc3`
    /// spelling parses to and what [`StrategySpec::all`] sweeps.
    const MC3_DEFAULT: StrategySpec = StrategySpec::Mc3 {
        chains: MC3_CHAINS,
        heat: MC3_HEAT,
        segment_len: MC3_SEGMENT_LEN,
    };

    /// Registry name of the scheme.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            StrategySpec::Sequential => "sequential",
            StrategySpec::Periodic(_) => "periodic",
            StrategySpec::Speculative { .. } => "speculative",
            StrategySpec::Mc3 { .. } => "mc3",
            StrategySpec::Intelligent { .. } => "intelligent",
            StrategySpec::Blind(_) => "blind",
            StrategySpec::Naive(_) => "naive",
        }
    }

    /// The paper's statistical-validity classification of the scheme.
    #[must_use]
    pub fn validity(&self) -> Validity {
        match self {
            StrategySpec::Sequential
            | StrategySpec::Periodic(_)
            | StrategySpec::Speculative { .. }
            | StrategySpec::Mc3 { .. } => Validity::Exact,
            StrategySpec::Intelligent { .. } | StrategySpec::Blind(_) => Validity::Heuristic,
            StrategySpec::Naive(_) => Validity::Broken,
        }
    }

    /// Runs the scheme on the request's workload under the given context —
    /// the one entry point of every scheme. The prologue (request and
    /// option validation, the full-image model build, perf snapshot, timer)
    /// and the epilogue ([`RunReport`] assembly, perf delta) are shared; the
    /// arms in between only drive their scheme and say what it produced.
    /// Every scheme polls `ctx` for cancellation/deadline inside its
    /// iteration loop and emits progress events through it, so every scheme
    /// is observable and stoppable through the [`crate::job`] layer.
    ///
    /// # Errors
    /// [`RunError::InvalidSpec`] when the request or the scheme options
    /// fail validation; [`RunError::Cancelled`] /
    /// [`RunError::DeadlineExceeded`] when the context stopped the run
    /// early.
    pub fn run(&self, req: &RunRequest<'_>, ctx: &RunCtx) -> Result<RunReport, RunError> {
        req.validate()?;
        self.validate()?;
        let model = &req.model();
        let perf_start = pmcmc_core::perf::snapshot();
        let start = Instant::now();
        let phase = PhaseTiming::new;
        let (config, iterations, phases, partitions, acceptance_rate, notes) = match *self {
            StrategySpec::Sequential => {
                // Random initial configuration (§III), matching the start
                // state of every other scheme so sweeps compare schemes,
                // not initializations.
                let mut sampler = Sampler::new(model, req.seed);
                ctx.phase("chain");
                let stride = ctx.progress_stride();
                let mut checkpoints = ctx.checkpointer();
                let mut done = 0u64;
                while done < req.iterations {
                    let step = stride.min(req.iterations - done);
                    sampler.run(step);
                    done += step;
                    ctx.progress(done, req.iterations)?;
                    if checkpoints.due(done) {
                        ctx.checkpoint(done, sampler.config.len(), sampler.log_posterior());
                    }
                }
                let acceptance = sampler.stats.acceptance_rate();
                let phases = vec![phase("chain", start.elapsed())];
                (sampler.config, done, phases, 1, Some(acceptance), vec![])
            }
            StrategySpec::Periodic(options) => {
                let mut sampler = PeriodicSampler::new(model, req.seed, options, req.pool);
                let ran = sampler.run(req.iterations, ctx)?;
                let phases = vec![
                    phase("global", ran.global_time),
                    phase("local", ran.local_time),
                    phase("overhead", ran.overhead_time),
                ];
                let acceptance = sampler.merged_stats().acceptance_rate();
                let notes = vec![format!("cycles={}", ran.cycles)];
                let (iters, tiles) = (ran.total_iters(), ran.max_tiles.max(1));
                let config = sampler.master.config;
                (config, iters, phases, tiles, Some(acceptance), notes)
            }
            StrategySpec::Speculative { lanes } => {
                // 0 = the request pool's thread count, capped at 8 — beyond
                // that the eq. (3) returns diminish on commodity SMP.
                let lanes = match lanes {
                    0 => req.pool.threads().clamp(1, 8),
                    n => n,
                };
                let mut sampler = SpeculativeSampler::new(model, req.seed, lanes);
                ctx.phase("rounds");
                let stride = ctx.progress_stride();
                let mut checkpoints = ctx.checkpointer();
                while sampler.iterations() < req.iterations {
                    sampler.run(stride.min(req.iterations - sampler.iterations()));
                    let done = sampler.iterations();
                    ctx.progress(done, req.iterations)?;
                    if checkpoints.due(done) {
                        ctx.checkpoint(done, sampler.config.len(), sampler.log_posterior());
                    }
                }
                let acceptance = sampler.stats.acceptance_rate();
                let phases = vec![phase("rounds", start.elapsed())];
                let notes = vec![format!("rounds={}", sampler.rounds())];
                let done = sampler.iterations();
                (sampler.config, done, phases, lanes, Some(acceptance), notes)
            }
            StrategySpec::Mc3 {
                chains,
                heat,
                segment_len,
            } => {
                let segments = (req.iterations / segment_len).max(1);
                let mut mc3 = Mc3::new(model, chains, heat, req.seed);
                let ran = run_mc3_parallel(&mut mc3, req.pool, segments, segment_len, ctx)?;
                let cold = mc3.cold();
                let swaps = &mc3.swap_stats;
                (
                    cold.config.clone(),
                    ran.iters_per_chain * chains as u64,
                    vec![phase("segments", ran.total_time)],
                    chains,
                    Some(cold.stats.acceptance_rate()),
                    vec![format!("swaps={}/{}", swaps.accepted, swaps.attempted)],
                )
            }
            StrategySpec::Intelligent { partitioner, chain } => {
                let found = run_intelligent(model, req, &partitioner, &chain, ctx)?;
                let parts = &found.partitions;
                let note = |p: &SubChainResult| {
                    format!(
                        "partition {:?}: eq5={:.1}, converged_at={:?}",
                        p.rect, p.expected_count, p.converged_at
                    )
                };
                (
                    Configuration::from_circles(model, &found.merged),
                    parts.iter().map(|p| p.iterations).sum(),
                    vec![
                        phase("preprocess", found.preprocess_time),
                        phase("chains", found.chains_time),
                    ],
                    parts.len(),
                    None,
                    parts.iter().map(note).collect(),
                )
            }
            StrategySpec::Blind(options) => {
                let found = run_blind(model, req, &options, ctx)?;
                let parts = &found.partitions;
                (
                    Configuration::from_circles(model, &found.merged),
                    parts.iter().map(|p| p.chain.iterations).sum(),
                    vec![
                        phase("chains", found.chains_time),
                        phase("merge", found.merge_time),
                    ],
                    parts.len(),
                    None,
                    vec![format!(
                        "merged_pairs={}, disputed={}",
                        found.merged_pairs, found.disputed
                    )],
                )
            }
            StrategySpec::Naive(options) => {
                let found = run_naive(model, req, &options, ctx)?;
                let parts = &found.partitions;
                (
                    Configuration::from_circles(model, &found.merged),
                    parts.iter().map(|p| p.iterations).sum(),
                    vec![phase("chains", found.chains_time)],
                    parts.len(),
                    None,
                    vec![],
                )
            }
        };
        let total = start.elapsed();
        let mut report = RunReport::finish(
            self.name(),
            self.validity(),
            model,
            config,
            total,
            iterations,
        );
        report.phases = phases;
        report.diagnostics.partitions = partitions;
        report.diagnostics.acceptance_rate = acceptance_rate;
        report.diagnostics.notes = notes;
        report.diagnostics.perf = Some(pmcmc_core::perf::snapshot().since(&perf_start));
        Ok(report)
    }

    /// Checks the scheme options for values that would otherwise panic
    /// deep inside a scheme (zero-sized partition grids, zero or absurd
    /// speculative lane counts), hang it (a partition chain that never
    /// advances or settles far beyond its budget) or be clamped by it
    /// (fewer than two (MC)³ chains, empty (MC)³ segments or `Mg` phases),
    /// so they surface as [`RunError::InvalidSpec`] at parse/submit time
    /// instead. Called by the `FromStr` grammar, by `JobSpec::validate`,
    /// and by [`StrategySpec::run`] (covering directly constructed options
    /// and the ones a daemon decodes).
    ///
    /// # Errors
    /// [`RunError::InvalidSpec`] naming the offending option.
    pub fn validate(&self) -> Result<(), RunError> {
        /// SpinTeam spawns one OS thread per extra lane (it spins between
        /// back-to-back rounds and parks when idle); beyond this the
        /// eq. (3) returns are long gone and the only effect is resource
        /// exhaustion.
        const MAX_LANES: usize = 64;
        let require = |ok: bool, why: String| ok.then_some(()).ok_or(RunError::InvalidSpec(why));
        let lanes_ok = |lanes: usize, what: &str| {
            let why = format!("{what} must be at most {MAX_LANES}, got {lanes}");
            require(lanes <= MAX_LANES, why)
        };
        let grid_ok = |cols: u32, rows: u32, what: &str| {
            let why = format!("{what} grid must be at least 1x1, got {cols}x{rows}");
            require(cols > 0 && rows > 0, why)
        };
        let chain_ok = |c: &SubChainOptions| {
            let why = "partition chain `conv_stride` must be at least 1";
            require(c.conv_stride > 0, why.to_owned())?;
            let why = format!(
                "partition chain `settle_frac` must be in [0, 1], got {}",
                c.settle_frac
            );
            require((0.0..=1.0).contains(&c.settle_frac), why)
        };
        match self {
            StrategySpec::Sequential => Ok(()),
            StrategySpec::Periodic(o) => {
                if let PartitionScheme::Grid { xm, ym } = o.scheme {
                    let why = format!("periodic grid spacing must be positive, got {xm}x{ym}");
                    require(xm > 0 && ym > 0, why)?;
                }
                let why = "periodic `global` must be at least 1";
                require(o.global_phase_iters > 0, why.to_owned())?;
                lanes_ok(o.speculative_global_lanes, "periodic `lanes`")
            }
            StrategySpec::Speculative { lanes } => lanes_ok(*lanes, "speculative `lanes`"),
            StrategySpec::Mc3 {
                chains,
                heat,
                segment_len,
            } => {
                let why = format!("mc3 `chains` must be at least 2, got {chains}");
                require(*chains >= 2, why)?;
                // One full sampler per chain and one pool task per chain
                // per segment: the same resource argument as the lane cap.
                lanes_ok(*chains, "mc3 `chains`")?;
                let why = format!("mc3 `heat` must be finite and non-negative, got {heat}");
                require(heat.is_finite() && *heat >= 0.0, why)?;
                let why = "mc3 `segment` must be at least 1";
                require(*segment_len > 0, why.to_owned())
            }
            StrategySpec::Intelligent { chain, .. } => chain_ok(chain),
            StrategySpec::Blind(o) => grid_ok(o.cols, o.rows, "blind").and(chain_ok(&o.chain)),
            StrategySpec::Naive(o) => grid_ok(o.cols, o.rows, "naive").and(chain_ok(&o.chain)),
        }
    }

    /// Every scheme with default options, in canonical sweep order
    /// (reference first, exact schemes, then heuristics, then the broken
    /// baseline).
    #[must_use]
    pub fn all() -> Vec<StrategySpec> {
        vec![
            StrategySpec::Sequential,
            StrategySpec::Periodic(PeriodicOptions::default()),
            StrategySpec::Speculative { lanes: 0 },
            Self::MC3_DEFAULT,
            StrategySpec::Intelligent {
                partitioner: IntelligentPartitioner::default(),
                chain: SubChainOptions::default(),
            },
            StrategySpec::Blind(BlindOptions::default()),
            StrategySpec::Naive(NaiveOptions::default()),
        ]
    }
}

impl fmt::Display for StrategySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())?;
        // Options are rendered only where they differ from the default.
        let mut opts: Vec<String> = Vec::new();
        let mut opt = |differs: bool, key: &str, value: &dyn fmt::Display| {
            if differs {
                opts.push(format!("{key}={value}"));
            }
        };
        match self {
            StrategySpec::Sequential => {}
            StrategySpec::Periodic(o) => {
                let d = PeriodicOptions::default();
                let (global, lanes) = (o.global_phase_iters, o.speculative_global_lanes);
                opt(global != d.global_phase_iters, "global", &global);
                opt(lanes != d.speculative_global_lanes, "lanes", &lanes);
            }
            StrategySpec::Speculative { lanes } => opt(*lanes != 0, "lanes", lanes),
            StrategySpec::Mc3 {
                chains,
                heat,
                segment_len,
            } => {
                opt(*chains != MC3_CHAINS, "chains", chains);
                opt((*heat - MC3_HEAT).abs() > f64::EPSILON, "heat", heat);
                opt(*segment_len != MC3_SEGMENT_LEN, "segment", segment_len);
            }
            StrategySpec::Intelligent { partitioner: p, .. } => {
                let d = IntelligentPartitioner::default();
                opt((p.theta - d.theta).abs() > f32::EPSILON, "theta", &p.theta);
                opt(p.min_gap != d.min_gap, "gap", &p.min_gap);
            }
            StrategySpec::Blind(o) => {
                let d = BlindOptions::default();
                opt(o.cols != d.cols, "cols", &o.cols);
                opt(o.rows != d.rows, "rows", &o.rows);
            }
            StrategySpec::Naive(o) => {
                let d = NaiveOptions::default();
                opt(o.cols != d.cols, "cols", &o.cols);
                opt(o.rows != d.rows, "rows", &o.rows);
                opt(o.prior != d.prior, "prior", &"uniform");
            }
        }
        if !opts.is_empty() {
            write!(f, ":{}", opts.join(","))?;
        }
        Ok(())
    }
}

/// Parses one `key=value` option, with a structured error naming the
/// offending key.
fn parse_opt<T: FromStr>(scheme: &str, key: &str, value: &str) -> Result<T, RunError> {
    value.parse().map_err(|_| {
        RunError::InvalidSpec(format!(
            "invalid value `{value}` for option `{key}` of `{scheme}`"
        ))
    })
}

impl FromStr for StrategySpec {
    type Err = RunError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (name, opts) = match s.split_once(':') {
            Some((n, o)) => (n, o),
            None => (s, ""),
        };
        let pairs: Vec<(&str, &str)> = opts
            .split(',')
            .filter(|kv| !kv.is_empty())
            .map(|kv| {
                kv.split_once('=').ok_or_else(|| {
                    RunError::InvalidSpec(format!("malformed option `{kv}` (expected key=value)"))
                })
            })
            .collect::<Result<_, _>>()?;
        let unknown = |key: &str| {
            RunError::InvalidSpec(format!("unknown option `{key}` for strategy `{name}`"))
        };
        let mut spec = match name {
            "sequential" => StrategySpec::Sequential,
            "periodic" => StrategySpec::Periodic(PeriodicOptions::default()),
            "speculative" => StrategySpec::Speculative { lanes: 0 },
            // `mc3par` is the historical module name, kept as an alias.
            "mc3" | "mc3par" => Self::MC3_DEFAULT,
            "intelligent" => StrategySpec::Intelligent {
                partitioner: IntelligentPartitioner::default(),
                chain: SubChainOptions::default(),
            },
            "blind" => StrategySpec::Blind(BlindOptions::default()),
            "naive" => StrategySpec::Naive(NaiveOptions::default()),
            other => return Err(RunError::UnknownStrategy(other.to_owned())),
        };
        for (key, value) in pairs {
            match (&mut spec, key) {
                (StrategySpec::Periodic(o), "global") => {
                    o.global_phase_iters = parse_opt(name, key, value)?;
                }
                (StrategySpec::Periodic(o), "lanes") => {
                    o.speculative_global_lanes = parse_opt(name, key, value)?;
                }
                (StrategySpec::Speculative { lanes }, "lanes") => {
                    *lanes = parse_opt(name, key, value)?;
                }
                (StrategySpec::Mc3 { chains, .. }, "chains") => {
                    *chains = parse_opt(name, key, value)?;
                }
                (StrategySpec::Mc3 { heat, .. }, "heat") => {
                    *heat = parse_opt(name, key, value)?;
                }
                (StrategySpec::Mc3 { segment_len, .. }, "segment") => {
                    *segment_len = parse_opt(name, key, value)?;
                }
                (StrategySpec::Intelligent { partitioner, .. }, "theta") => {
                    partitioner.theta = parse_opt(name, key, value)?;
                }
                (StrategySpec::Intelligent { partitioner, .. }, "gap") => {
                    partitioner.min_gap = parse_opt(name, key, value)?;
                }
                (StrategySpec::Blind(o), "cols") => o.cols = parse_opt(name, key, value)?,
                (StrategySpec::Blind(o), "rows") => o.rows = parse_opt(name, key, value)?,
                (StrategySpec::Naive(o), "cols") => o.cols = parse_opt(name, key, value)?,
                (StrategySpec::Naive(o), "rows") => o.rows = parse_opt(name, key, value)?,
                (StrategySpec::Naive(o), "prior") => {
                    o.prior = match value {
                        "uniform" => NaivePrior::UniformSplit,
                        "density" => NaivePrior::DensityEstimate,
                        _ => {
                            return Err(RunError::InvalidSpec(format!(
                                "invalid value `{value}` for option `prior` (uniform|density)"
                            )))
                        }
                    };
                }
                _ => return Err(unknown(key)),
            }
        }
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcmc_core::Xoshiro256;
    use pmcmc_imaging::synth::{generate, SceneSpec};

    fn small_workload() -> (GrayImage, ModelParams) {
        let spec = SceneSpec {
            width: 96,
            height: 96,
            n_circles: 5,
            radius_mean: 8.0,
            radius_sd: 0.8,
            radius_min: 5.0,
            radius_max: 12.0,
            noise_sd: 0.05,
            ..SceneSpec::default()
        };
        let mut rng = Xoshiro256::new(3);
        let scene = generate(&spec, &mut rng);
        let img = scene.render(&mut rng);
        let mut params = ModelParams::new(96, 96, 5.0, 8.0);
        params.noise_sd = 0.15;
        (img, params)
    }

    #[test]
    fn every_scheme_name_resolves_to_its_own_spec() {
        let names: Vec<&str> = StrategySpec::all().iter().map(StrategySpec::name).collect();
        assert_eq!(
            names,
            [
                "sequential",
                "periodic",
                "speculative",
                "mc3",
                "intelligent",
                "blind",
                "naive"
            ]
        );
        for spec in StrategySpec::all() {
            let parsed: StrategySpec = spec.name().parse().expect("every published name resolves");
            assert_eq!(parsed, spec);
        }
        assert!("mc3par".parse::<StrategySpec>().is_ok(), "historical alias");
        assert!("nope".parse::<StrategySpec>().is_err());
    }

    #[test]
    fn validity_tags_match_the_paper() {
        let tag = |n: &str| n.parse::<StrategySpec>().unwrap().validity();
        assert_eq!(tag("sequential"), Validity::Exact);
        assert_eq!(tag("periodic"), Validity::Exact);
        assert_eq!(tag("speculative"), Validity::Exact);
        assert_eq!(tag("mc3"), Validity::Exact);
        assert_eq!(tag("intelligent"), Validity::Heuristic);
        assert_eq!(tag("blind"), Validity::Heuristic);
        assert_eq!(tag("naive"), Validity::Broken);
    }

    #[test]
    fn spec_display_round_trips_through_from_str() {
        let specs = [
            StrategySpec::Sequential,
            StrategySpec::Periodic(PeriodicOptions {
                global_phase_iters: 256,
                speculative_global_lanes: 4,
                ..PeriodicOptions::default()
            }),
            StrategySpec::Speculative { lanes: 8 },
            StrategySpec::Mc3 {
                chains: 5,
                heat: 0.25,
                segment_len: 250,
            },
            StrategySpec::Intelligent {
                partitioner: IntelligentPartitioner {
                    theta: 0.25,
                    min_gap: 5,
                },
                chain: SubChainOptions::default(),
            },
            StrategySpec::Blind(BlindOptions {
                cols: 3,
                rows: 4,
                ..BlindOptions::default()
            }),
            StrategySpec::Naive(NaiveOptions {
                prior: NaivePrior::UniformSplit,
                ..NaiveOptions::default()
            }),
        ];
        for spec in specs {
            let rendered = spec.to_string();
            let parsed: StrategySpec = rendered.parse().unwrap_or_else(|e| {
                panic!("`{rendered}` failed to re-parse: {e}");
            });
            assert_eq!(parsed, spec, "round-trip of `{rendered}`");
        }
        // Defaults render as bare names.
        for spec in StrategySpec::all() {
            assert_eq!(spec.to_string(), spec.name());
        }
    }

    #[test]
    fn spec_parse_rejects_bad_input_with_structured_errors() {
        assert_eq!(
            "warp-drive".parse::<StrategySpec>(),
            Err(RunError::UnknownStrategy("warp-drive".to_owned()))
        );
        assert!(matches!(
            "mc3:warp=9".parse::<StrategySpec>(),
            Err(RunError::InvalidSpec(_))
        ));
        assert!(matches!(
            "blind:cols".parse::<StrategySpec>(),
            Err(RunError::InvalidSpec(_))
        ));
        assert!(matches!(
            "speculative:lanes=many".parse::<StrategySpec>(),
            Err(RunError::InvalidSpec(_))
        ));
        assert!(matches!(
            "naive:prior=chaotic".parse::<StrategySpec>(),
            Err(RunError::InvalidSpec(_))
        ));
        // Options on a scheme that has none in the grammar.
        assert!(matches!(
            "sequential:x=1".parse::<StrategySpec>(),
            Err(RunError::InvalidSpec(_))
        ));
        // Values a scheme would clamp are rejected, not silently raised.
        for clamped in [
            "mc3:chains=0",
            "mc3:chains=1",
            "mc3:segment=0",
            "periodic:global=0",
        ] {
            assert!(
                matches!(
                    clamped.parse::<StrategySpec>(),
                    Err(RunError::InvalidSpec(_))
                ),
                "`{clamped}` parsed"
            );
        }
        assert!("mc3:chains=2,segment=1".parse::<StrategySpec>().is_ok());
        assert!("periodic:global=1".parse::<StrategySpec>().is_ok());
    }

    #[test]
    fn panic_prone_scheme_options_are_rejected_as_invalid_spec() {
        // Parse-time rejection: these spellings would otherwise assert
        // deep inside regular_tiles / exhaust threads in SpinTeam.
        for bad in [
            "blind:cols=0",
            "blind:rows=0",
            "naive:cols=0",
            "speculative:lanes=1000000",
            "periodic:lanes=1000000",
            "mc3:chains=100000000",
            "mc3:heat=nan",
            "mc3:heat=-1",
        ] {
            assert!(
                matches!(bad.parse::<StrategySpec>(), Err(RunError::InvalidSpec(_))),
                "`{bad}` parsed despite panic-prone options"
            );
        }
        // Run-time rejection for directly constructed options.
        let (img, params) = small_workload();
        let pool = WorkerPool::new(2);
        let req = RunRequest::new(&img, &params, &pool, 1).iterations(500);
        let ctx = RunCtx::default();
        let bad_runs = [
            StrategySpec::Blind(BlindOptions {
                cols: 0,
                ..BlindOptions::default()
            }),
            StrategySpec::Naive(NaiveOptions {
                rows: 0,
                ..NaiveOptions::default()
            }),
            // A chain that never advances, so never converges.
            StrategySpec::Blind(BlindOptions {
                chain: SubChainOptions {
                    conv_stride: 0,
                    conv_tol: 0.0,
                    ..SubChainOptions::default()
                },
                ..BlindOptions::default()
            }),
            // A settle 10¹² times the convergence iteration.
            StrategySpec::Intelligent {
                partitioner: IntelligentPartitioner::default(),
                chain: SubChainOptions {
                    settle_frac: 1e12,
                    ..SubChainOptions::default()
                },
            },
            StrategySpec::Naive(NaiveOptions {
                chain: SubChainOptions {
                    settle_frac: f64::NAN,
                    ..SubChainOptions::default()
                },
                ..NaiveOptions::default()
            }),
            StrategySpec::Speculative { lanes: 1_000_000 },
            StrategySpec::Periodic(PeriodicOptions {
                scheme: PartitionScheme::Grid { xm: 0, ym: 48 },
                ..PeriodicOptions::default()
            }),
            StrategySpec::Mc3 {
                chains: 1,
                heat: MC3_HEAT,
                segment_len: 0,
            },
        ];
        for spec in bad_runs {
            assert!(
                matches!(spec.run(&req, &ctx), Err(RunError::InvalidSpec(_))),
                "{} ran with panic-prone options",
                spec.name()
            );
        }
    }

    #[test]
    fn invalid_requests_error_instead_of_panicking() {
        let (img, params) = small_workload();
        let pool = WorkerPool::new(2);
        let ctx = RunCtx::default();

        let zero_iters = RunRequest::new(&img, &params, &pool, 1).iterations(0);
        let wrong_params = ModelParams::new(32, 32, 2.0, 8.0);
        let mismatched = RunRequest::new(&img, &wrong_params, &pool, 1);
        for spec in StrategySpec::all() {
            assert!(
                matches!(spec.run(&zero_iters, &ctx), Err(RunError::InvalidSpec(_))),
                "{} accepted a zero budget",
                spec.name()
            );
            assert!(
                matches!(spec.run(&mismatched, &ctx), Err(RunError::InvalidSpec(_))),
                "{} accepted mismatched params",
                spec.name()
            );
        }
    }

    #[test]
    fn every_scheme_produces_consistent_reports_on_shared_request() {
        let (img, params) = small_workload();
        let pool = WorkerPool::new(2);
        let req = RunRequest::new(&img, &params, &pool, 11).iterations(3_000);
        let model = req.model();
        for spec in StrategySpec::all() {
            let report = spec
                .run(&req, &RunCtx::default())
                .expect("detached run succeeds");
            assert_eq!(report.strategy, spec.name());
            assert_eq!(report.validity, spec.validity());
            assert!(
                report.iterations > 0,
                "{} ran no iterations",
                report.strategy
            );
            assert!(report.total_time > Duration::ZERO);
            assert!(report.diagnostics.partitions >= 1);
            assert!(
                report.diagnostics.log_posterior.is_finite(),
                "{} log-posterior not finite",
                report.strategy
            );
            report
                .config
                .verify_consistency(&model)
                .unwrap_or_else(|e| panic!("{} inconsistent config: {e}", report.strategy));
            let perf = report
                .diagnostics
                .perf
                .as_ref()
                .unwrap_or_else(|| panic!("{} reported no perf snapshot", report.strategy));
            // The counters are process-global, so concurrent tests can only
            // inflate the deltas — a lower bound is the safe assertion.
            assert!(
                perf.proposals_evaluated > 0,
                "{} evaluated no proposals",
                report.strategy
            );
            assert!(
                perf.pixels_visited > 0,
                "{} visited no pixels",
                report.strategy
            );
        }
    }

    #[test]
    fn phase_lookup_finds_reported_phases() {
        let (img, params) = small_workload();
        let pool = WorkerPool::new(2);
        let req = RunRequest::new(&img, &params, &pool, 5).iterations(1_500);
        let report = "periodic"
            .parse::<StrategySpec>()
            .unwrap()
            .run(&req, &RunCtx::default())
            .expect("detached run succeeds");
        assert!(report.phase("global").is_some());
        assert!(report.phase("local").is_some());
        assert!(report.phase("overhead").is_some());
        assert!(report.phase("nonexistent").is_none());
    }
}
