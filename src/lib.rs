//! # pmcmc — Parallel MCMC Image Processing
//!
//! A Rust reproduction of *"On the Parallelisation of MCMC-based Image
//! Processing"* (J. M. R. Byrd, S. A. Jarvis, A. H. Bhalerao — IEEE IPDPS
//! Workshops, 2010).
//!
//! The paper parallelises a reversible-jump MCMC application — detecting
//! stained cell nuclei, abstracted to *finding circles of high intensity*
//! — along the data axis, and this workspace implements all of it behind
//! one engine:
//!
//! | Strategy spec | Module | Statistical validity |
//! |---|---|---|
//! | `sequential` (baseline) | [`core::sampler`] | exact |
//! | `periodic` (§V) | [`parallel::periodic`] | exact |
//! | `speculative` (ref. \[11\]) | [`parallel::speculative`] | exact |
//! | `mc3` — (MC)³ (§IV) | [`core::mc3`] + [`parallel::mc3par`] | exact |
//! | `intelligent` (§VIII) | [`parallel::intelligent`] | heuristic |
//! | `blind` (§VIII) | [`parallel::blind`] | heuristic |
//! | `naive` (anti-baseline, §II) | [`parallel::naive`] | broken (by design) |
//!
//! ## Quickstart: jobs on the engine
//!
//! Work is described by a typed [`JobSpec`](prelude::JobSpec) — which
//! strategy (a [`StrategySpec`](prelude::StrategySpec) variant, or its CLI
//! spelling like `"mc3:chains=4"`), which image, seed, iteration budget,
//! optional deadline and checkpoint interval — and submitted onto a shared
//! [`Engine`](prelude::Engine). The returned
//! [`JobHandle`](prelude::JobHandle) streams progress
//! [`Event`](prelude::Event)s, supports cooperative cancellation, and
//! resolves to `Result<RunReport, RunError>`:
//!
//! ```
//! use pmcmc::prelude::*;
//!
//! // Generate a synthetic cell image with known ground truth.
//! let spec = SceneSpec { width: 96, height: 96, n_circles: 4, ..SceneSpec::default() };
//! let mut rng = Xoshiro256::new(7);
//! let scene = generate(&spec, &mut rng);
//! let image = scene.render(&mut rng);
//! let params = ModelParams::new(96, 96, 4.0, 9.0);
//!
//! // One engine, one shared worker pool, any number of jobs.
//! let engine = Engine::new(2).unwrap();
//!
//! // Submit a job and observe it while it runs.
//! let strategy: StrategySpec = "periodic".parse().unwrap();
//! let job = JobSpec::new(strategy, image.clone(), params.clone())
//!     .seed(42)
//!     .iterations(3_000)
//!     .checkpoint_interval(1_000);
//! let handle = engine.submit(job).unwrap();
//! while let Ok(event) = handle.events().recv() {
//!     if let Event::Checkpoint { iterations, circles, .. } = event {
//!         println!("{iterations} iterations in, {circles} circles");
//!     }
//! }
//! let report = handle.wait().unwrap();
//! assert!(report.validity.is_exact());
//!
//! // …or batch N workloads across the same pool and stream reports as
//! // they finish.
//! let batch = engine
//!     .submit_batch(
//!         StrategySpec::all()
//!             .into_iter()
//!             .take(3)
//!             .map(|s| JobSpec::new(s, image.clone(), params.clone()).iterations(2_000))
//!             .collect(),
//!     )
//!     .unwrap();
//! for result in batch.wait_all() {
//!     println!("{} circles", result.unwrap().detected().len());
//! }
//! ```
//!
//! Handles cancel cooperatively — [`JobHandle::cancel`](prelude::JobHandle::cancel)
//! stops the run at its next token poll with
//! [`RunError::Cancelled`](prelude::RunError::Cancelled) — and invalid
//! workloads (zero iterations, empty images, mismatched dimensions) fail
//! fast with [`RunError::InvalidSpec`](prelude::RunError::InvalidSpec)
//! instead of panicking inside a scheme.
//!
//! The layers below stay public for callers that need richer control:
//! [`parallel::engine`] for synchronous borrowed-data runs
//! ([`StrategySpec::run`](prelude::StrategySpec::run) on a
//! [`RunRequest`](prelude::RunRequest) + [`RunCtx`](prelude::RunCtx)),
//! [`core::Sampler`] for bare chains, [`parallel::PeriodicSampler`] for
//! phase-level accounting, or [`parallel::run_blind`] for seam-merge
//! details.
//!
//! See `examples/` for the full pipelines: one example per claim of the
//! paper, each printing the paper's published numbers beside its own
//! (`strategy_sweep` drives every registered strategy through the job API
//! with live progress). Speed is measured by `benchmark/` alone.

pub use pmcmc_core as core;
pub use pmcmc_imaging as imaging;
pub use pmcmc_parallel as parallel;
pub use pmcmc_runtime as runtime;

/// Prints the provenance line every paper-reproduction example opens with
/// and returns `(logical cores, quick mode)`. A sweep row wider than the
/// cores time-slices its threads and says nothing about eqs. (2)/(3): the
/// examples flag such a row, and skip it in quick mode (`PMCMC_QUICK`).
#[must_use]
pub fn example_header(title: &str) -> (usize, bool) {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let quick = std::env::var_os("PMCMC_QUICK").is_some();
    let simd = pmcmc_core::simd::backend().name();
    let mode = if quick { "quick" } else { "full" };
    println!("# {title} [{cores} logical cores, {simd} kernels, {mode} mode]");
    (cores, quick)
}

/// One-stop imports for applications.
pub mod prelude {
    pub use pmcmc_core::{
        match_circles, Configuration, ConvergenceDetector, Mc3, ModelParams, MoveKind, MoveWeights,
        NucleiModel, ProposalScales, Sampler, Trace, Xoshiro256,
    };
    pub use pmcmc_imaging::synth::{generate, generate_clustered, ClusterSpec, Scene, SceneSpec};
    pub use pmcmc_imaging::{Circle, GrayImage, Mask, PartitionGrid, Rect};
    pub use pmcmc_parallel::{
        run_blind, run_intelligent, run_naive, Batch, BlindOptions, CancelToken, DisputePolicy,
        DistributedBackend, DistributedConfig, Engine, Event, ExecutionBackend, InProcessDaemon,
        IntelligentPartitioner, JobHandle, JobId, JobSpec, NaiveOptions, NodeDaemon, NodeTiming,
        PartitionScheme, PeriodicOptions, PeriodicSampler, RunCtx, RunError, RunReport, RunRequest,
        ShardedBackend, SpeculativeSampler, StrategySpec, SubChainOptions, Validity,
    };
    pub use pmcmc_runtime::{ClusterTopology, NodeId, WorkerPool};
}
