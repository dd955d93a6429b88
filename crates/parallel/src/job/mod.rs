//! The typed, observable job layer: `JobSpec` → [`Engine::submit`] →
//! [`JobHandle`].
//!
//! The [`crate::engine`] module defines *what* runs
//! ([`StrategySpec::run`](crate::engine::StrategySpec::run) on a
//! [`RunRequest`](crate::engine::RunRequest)); this module defines *how a
//! service runs it*: jobs are described by an owned, validated [`JobSpec`]
//! (strategy, image, parameters, seed, iteration budget, deadline,
//! checkpoint interval), submitted onto a shared [`Engine`] and observed
//! while in flight through a [`JobHandle`] — progress [`Event`]s via an
//! observer callback or a channel, cooperative cancellation via
//! [`CancelToken`], and a final `wait() -> Result<RunReport, RunError>`
//! with structured errors instead of panics. [`Engine::submit_batch`]
//! fans N jobs out over the same backend and streams per-job reports
//! as they finish.
//!
//! *Where* jobs run is pluggable (the [`backend`] module):
//! [`backend::ShardedBackend`] runs the eq. (4) `s × t` cluster
//! in-process — per-node worker pools, one placement queue, LPT
//! placement — and one machine is its one-node case, which
//! [`Engine::new`] builds. [`backend::DistributedBackend`] makes the
//! cluster real: it coordinates remote [`daemon::NodeDaemon`] processes
//! over TCP sockets using the versioned [`wire`] format, with
//! heartbeat-based failure detection and rescheduling, behind the same
//! `JobSpec`/`JobHandle` surface.
//!
//! The module tree mirrors the job lifecycle: [`spec`](JobSpec) (what to
//! run) → [`engine`](Engine) (validate and wire up) → [`backend`] (where
//! to run) → [`runner`](run_blueprint) (the one way it runs there) →
//! [`ctx`](RunCtx) (what the running strategy sees) →
//! [`handle`](JobHandle) (what the caller holds).
//!
//! One payload, one runner: a [`JobSpec`] is a
//! [`JobBlueprint`](wire::JobBlueprint) plus an observer callback, the
//! blueprint is what every backend carries (and the distributed one puts
//! on the wire), and [`run_blueprint`] is the only function that turns
//! one into a [`RunReport`](crate::engine::RunReport) — it builds the
//! [`RunCtx`], is the job layer's single panic boundary (scheme panics
//! become [`RunError::Panicked`]) and stamps the node timing. Specs are
//! validated at submission ([`JobSpec::validate`]) to fail fast; the
//! authoritative check is the one `StrategySpec::run` repeats on whatever
//! node runs the job.
//!
//! ```
//! use pmcmc_core::ModelParams;
//! use pmcmc_imaging::GrayImage;
//! use pmcmc_parallel::engine::StrategySpec;
//! use pmcmc_parallel::job::{Engine, Event, JobSpec};
//!
//! let engine = Engine::new(2).unwrap();
//! let image = GrayImage::filled(64, 64, 0.1);
//! let params = ModelParams::new(64, 64, 2.0, 8.0);
//!
//! let spec = JobSpec::new(StrategySpec::Sequential, image, params)
//!     .seed(7)
//!     .iterations(2_000)
//!     .observer(|ev| {
//!         if let Event::PhaseStarted { phase } = ev {
//!             println!("entering phase {phase}");
//!         }
//!     });
//! let handle = engine.submit(spec).unwrap();
//! let report = handle.wait().unwrap();
//! assert_eq!(report.strategy, "sequential");
//! ```

pub mod backend;
mod ctx;
pub mod daemon;
mod engine;
mod error;
mod handle;
mod runner;
mod spec;
pub mod wire;

pub use backend::{DistributedBackend, DistributedConfig, ExecutionBackend, ShardedBackend};
pub use ctx::{CancelToken, Checkpointer, Event, Observer, ProgressCounter, RunCtx};
pub use daemon::{InProcessDaemon, NodeDaemon};
pub use engine::Engine;
pub use error::RunError;
pub use handle::{Batch, JobHandle};
pub use runner::run_blueprint;
pub use spec::{JobId, JobSpec};
