//! # pmcmc-parallel
//!
//! The parallelisation schemes of *"On the Parallelisation of MCMC-based
//! Image Processing"* (Byrd, Jarvis & Bhalerao, IPDPS-W 2010):
//!
//! * [`periodic`] — **periodic partitioning** (§V): alternating sequential
//!   global-move phases and parallel local-move phases over a
//!   randomly-offset grid; statistically equivalent to sequential MCMC.
//! * [`speculative`] — **speculative moves** (ref. \[11\], §IV): `n` proposals of
//!   the same state evaluated concurrently, first acceptance wins.
//! * [`intelligent`] — **intelligent partitioning** (§VIII): a threshold
//!   pre-processor cuts the image along empty corridors so artifacts never
//!   span partitions; independent chains per partition.
//! * [`blind`] — **blind partitioning** (§VIII): plain grid + overlap
//!   margin + heuristic merge of the seams.
//! * [`naive`] — the anomaly-prone baseline the paper motivates against.
//! * [`subchain`] — shared per-partition chain machinery (eq. 5 priors,
//!   convergence detection).
//! * [`theory`] — the runtime models of §VI (eqs. 2–4, Fig. 1).
//!
//! All of the schemes are additionally exposed through the unified
//! [`engine`] layer — a typed [`engine::StrategySpec`] (with
//! `FromStr`/`Display` for CLI round-tripping) whose
//! [`run`](engine::StrategySpec::run) maps a shared
//! [`engine::RunRequest`] to the shared [`engine::RunReport`] shape — and
//! through the service-style [`job`] layer on top of it: an owned,
//! validated [`job::JobSpec`] submitted onto a shared [`job::Engine`]
//! returns a
//! [`job::JobHandle`] with live progress [`job::Event`]s, cooperative
//! cancellation ([`job::CancelToken`]) and structured [`job::RunError`]s;
//! [`job::Engine::submit_batch`] streams per-job reports across N images.
//! *Where* jobs run is pluggable ([`job::backend`]):
//! [`job::ShardedBackend`] runs the eq. (4) `s × t` cluster in-process —
//! per-node worker pools, one placement queue, LPT placement, and
//! per-node [`engine::NodeTiming`]s in every report; one machine
//! ([`job::Engine::new`]) is its one-node case — and
//! [`job::DistributedBackend`] coordinates *real* nodes: one
//! [`job::NodeDaemon`] process per machine, reached over TCP with the
//! versioned [`job::wire`] format, heartbeat failure detection and
//! failure-aware rescheduling.

#![warn(missing_docs)]

pub mod blind;
pub mod engine;
pub mod intelligent;
pub mod job;
pub mod mc3par;
pub mod naive;
pub mod periodic;
pub mod speculative;
pub mod subchain;
pub mod theory;

pub use blind::{
    cluster_duplicates, merge_sources, run_blind, BlindOptions, BlindResult, DisputePolicy,
    MergeCandidate, MergeOutcome,
};
pub use engine::{
    NodeTiming, PhaseTiming, RunDiagnostics, RunReport, RunRequest, StrategySpec, Validity,
};
pub use intelligent::{run_intelligent, IntelligentPartitioner, IntelligentResult};
pub use job::{
    Batch, CancelToken, Checkpointer, DistributedBackend, DistributedConfig, Engine, Event,
    ExecutionBackend, InProcessDaemon, JobHandle, JobId, JobSpec, NodeDaemon, ProgressCounter,
    RunCtx, RunError, ShardedBackend,
};
pub use mc3par::{run_mc3_parallel, Mc3Report};
pub use naive::{run_naive, NaiveOptions, NaivePrior, NaiveResult};
pub use periodic::{PartitionScheme, PeriodicOptions, PeriodicReport, PeriodicSampler};
pub use speculative::{SpeculativeEngine, SpeculativeSampler};
pub use subchain::{eq5_estimate, run_partition_chain, SubChainOptions, SubChainResult};
