//! Pluggable execution backends: *where* a submitted job runs.
//!
//! The [`Engine`](crate::job::Engine) validates specs, mints ids and wires
//! up handles; everything after that — which node and thread run the job,
//! which [`WorkerPool`] its parallel stages fan onto — is the
//! [`ExecutionBackend`]'s decision. Three backends ship:
//!
//! * [`LocalBackend`] — one shared pool of W workers and at most W jobs
//!   running at once, the rest waiting in submission order.
//! * [`ShardedBackend`] — a simulated `s × t` cluster in the shape of
//!   eq. (4): `s` nodes, each owning a private pool of `t` workers, with
//!   batches launched in LPT order.
//! * [`DistributedBackend`] — the real thing: eq. (4)'s `s` nodes as
//!   remote [`NodeDaemon`](crate::job::daemon::NodeDaemon) processes
//!   reached over TCP, with heartbeat failure detection and
//!   failure-aware rescheduling.
//!
//! **Where a job goes.** Every backend places through one
//! [`SlotTable`](pmcmc_runtime::SlotTable): a node runs at most
//! `max_in_flight` jobs at once, a job starts on the least-committed node
//! with a free slot, and any other waits in one FIFO backlog whose head
//! goes to whichever node frees a slot first, so no node idles while work
//! waits. Submission never blocks.
//!
//! **Which thread runs a job.** A node's [`WorkerPool`] is its only set of
//! job threads. In-process nodes place their jobs through a
//! [`JobExecutor`](pmcmc_runtime::JobExecutor) over the table (the local
//! backend's one node as wide as its pool, the sharded backend's `s`
//! nodes, a daemon's one node as wide as its capacity): each job runs as a
//! task on a worker of its node's pool, fans its parallel stages onto the
//! same workers, and when it finishes, that worker runs the backlog's
//! head. So a node runs at most `min(max_in_flight, t)` jobs at once. The
//! distributed coordinator holds no job thread: a node's reader thread
//! ships the next job when a result frees that node's slot.
//!
//! **What a backend is handed.** A [`PreparedJob`] is a
//! [`JobBlueprint`] — strategy, image, parameters, seed, budget, deadline
//! budget, event cadences; the very struct that crosses the wire to a
//! daemon — plus the handle plumbing. **How it runs** is the same
//! everywhere: [`run_blueprint`] on some node's pool, which builds the
//! scheme's context, catches panics and stamps the node timing. The local
//! backend and the sharded backend's whole-job path reach it through
//! [`PreparedJob::execute`], a sharded stripe is a blueprint with a
//! cropped image run by the same call, and the distributed backend ships
//! the blueprint to a daemon that makes that call remotely.

mod distributed;
mod local;
mod sharded;

pub use distributed::{DistributedBackend, DistributedConfig};
pub use local::LocalBackend;
pub use sharded::{ShardPlacement, ShardedBackend};

use crate::engine::{RunReport, StrategySpec};
use crate::job::ctx::{CancelToken, Event, Observer};
use crate::job::error::RunError;
use crate::job::runner::{run_blueprint, stamp_wait};
use crate::job::spec::JobId;
use crate::job::wire::JobBlueprint;
use crossbeam::channel::Sender;
use pmcmc_runtime::{ClusterTopology, Finish, NodeId, WorkerPool};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One (submission index, result) pair streamed onto a batch's
/// completion channel.
pub(crate) type BatchResult = (usize, Result<RunReport, RunError>);

/// The plumbing that resolves a job's handle exactly once: the finished
/// flag, the batch stream (when batched) and the completion channel.
/// Every terminal path — success, structured error, caught panic — goes
/// through [`JobCompletion::resolve`], so the one-result-per-job contract
/// `JobHandle::wait` and `Batch::next_finished` rely on cannot be
/// half-performed.
pub(crate) struct JobCompletion {
    pub(crate) done: Sender<Result<RunReport, RunError>>,
    pub(crate) batch: Option<(usize, Sender<BatchResult>)>,
    pub(crate) finished: Arc<AtomicBool>,
}

impl JobCompletion {
    /// Marks the job finished, streams the result to its batch (if any)
    /// and feeds the handle's completion channel. Consumes the
    /// completion: a job cannot resolve twice.
    pub(crate) fn resolve(self, result: Result<RunReport, RunError>) {
        self.finished.store(true, Ordering::Release);
        if let Some((idx, tx)) = self.batch {
            let _ = tx.send((idx, result.clone()));
        }
        let _ = self.done.send(result);
    }
}

/// Where a job's events go: the spec's observer callback (if any) and the
/// handle's event channel. A dropped handle just disconnects the channel
/// and sends become no-ops.
pub(crate) struct EventSink {
    pub(crate) observer: Option<Box<Observer>>,
    pub(crate) events: Sender<Event>,
}

impl EventSink {
    pub(crate) fn emit(&self, event: &Event) {
        if let Some(cb) = &self.observer {
            cb(event);
        }
        let _ = self.events.send(event.clone());
    }
}

/// A fully wired, ready-to-run job: the validated spec's [`JobBlueprint`]
/// — the same payload a node daemon receives over the wire — plus the
/// plumbing the [`Engine`](crate::job::Engine) already connected to the
/// caller's [`JobHandle`](crate::job::JobHandle) (cancel token, event
/// sink, completion). Backends receive one per submission and decide where
/// and when to run it; [`PreparedJob::execute`] performs the run itself
/// and resolves the handle, so a backend's only real job is choosing a
/// thread and a pool.
pub struct PreparedJob {
    pub(crate) id: JobId,
    /// What to run. Until the job is placed, `remaining_deadline` is the
    /// spec's whole deadline, measured from `submitted_at`.
    pub(crate) work: JobBlueprint,
    pub(crate) submitted_at: Instant,
    pub(crate) cancel: CancelToken,
    pub(crate) sink: EventSink,
    pub(crate) completion: JobCompletion,
}

impl PreparedJob {
    /// The job's engine-unique id.
    #[must_use]
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The strategy the job runs.
    #[must_use]
    pub fn strategy(&self) -> &StrategySpec {
        &self.work.strategy
    }

    /// The placement weight of the job for LPT scheduling — its iteration
    /// budget (chain iterations dominate every scheme's cost).
    #[must_use]
    pub fn weight(&self) -> f64 {
        self.work.iterations as f64
    }

    /// Runs the job to completion on the current thread, fanning its
    /// parallel stages onto `pool`, then resolves the caller's handle
    /// (completion channel fed, batch notified). Scheme panics are caught
    /// by the runner and surface as [`RunError::Panicked`], so calling
    /// this is enough to uphold the handle contract — every submitted job
    /// reports exactly one result.
    ///
    /// `node` names the cluster node the run is accounted to; the queue
    /// wait (submission until this call) and the run's wall time are
    /// stamped into the report's
    /// [`node_timings`](crate::engine::RunReport::node_timings). Deadlines
    /// are measured from submission (the spec's contract), so time spent
    /// queued on a saturated node counts against them.
    pub fn execute(self, pool: &Arc<WorkerPool>, node: NodeId) {
        self.run(pool, node)();
    }

    /// [`PreparedJob::execute`] up to the handle's resolution, which it
    /// returns.
    pub(crate) fn run(self, pool: &Arc<WorkerPool>, node: NodeId) -> Finish {
        let mut work = self.work;
        stamp_wait(&mut work, self.submitted_at);
        let sink = self.sink;
        let observer = Box::new(move |event: &Event| sink.emit(event));
        let result = run_blueprint(&work, pool, node, Some(&self.cancel), Some(observer));
        let completion = self.completion;
        Box::new(move || completion.resolve(result))
    }
}

/// Where and how submitted jobs run — the seam between the typed
/// [`Engine`](crate::job::Engine) surface and the machinery underneath
/// it. Implementations own their threads and pools; the engine only hands
/// them [`PreparedJob`]s.
///
/// # Worked example: a thread per job
///
/// A backend that runs every job on a thread of its own, with no bound on
/// how many run at once, is a dozen lines — [`PreparedJob::execute`] does
/// all of the heavy lifting:
///
/// ```
/// use std::sync::Arc;
/// use pmcmc_core::ModelParams;
/// use pmcmc_imaging::GrayImage;
/// use pmcmc_parallel::engine::StrategySpec;
/// use pmcmc_parallel::job::backend::{ExecutionBackend, PreparedJob};
/// use pmcmc_parallel::job::{Engine, JobSpec, RunError};
/// use pmcmc_runtime::{ClusterTopology, Finish, NodeId, WorkerPool};
///
/// struct ThreadPerJob {
///     pool: Arc<WorkerPool>,
/// }
///
/// impl ExecutionBackend for ThreadPerJob {
///     fn name(&self) -> &'static str {
///         "thread-per-job"
///     }
///
///     fn topology(&self) -> ClusterTopology {
///         ClusterTopology::new(1, self.pool.threads())
///     }
///
///     fn primary_pool(&self) -> &Arc<WorkerPool> {
///         &self.pool
///     }
///
///     fn launch(&self, job: PreparedJob) -> Result<(), RunError> {
///         // Return at once: the thread resolves the handle the engine
///         // has already returned.
///         let pool = Arc::clone(&self.pool);
///         std::thread::spawn(move || job.execute(&pool, NodeId(0)));
///         Ok(())
///     }
/// }
///
/// let engine = Engine::with_backend(ThreadPerJob {
///     pool: WorkerPool::shared(2),
/// });
/// let spec = JobSpec::new(
///     StrategySpec::Sequential,
///     GrayImage::filled(48, 48, 0.1),
///     ModelParams::new(48, 48, 2.0, 8.0),
/// )
/// .seed(7)
/// .iterations(500);
/// let report = engine.submit(spec).unwrap().wait().unwrap();
/// assert_eq!(report.strategy, "sequential");
/// assert_eq!(report.node_timings.len(), 1);
/// ```
pub trait ExecutionBackend: Send + Sync {
    /// Short diagnostic name of the backend (`"local"`, `"sharded"`, …).
    fn name(&self) -> &'static str;

    /// The `s × t` shape of the backend, in eq. (4) terms (a local
    /// backend is a 1-node cluster of its pool's width).
    fn topology(&self) -> ClusterTopology;

    /// The pool a caller gets from
    /// [`Engine::pool`](crate::job::Engine::pool) — for multi-node
    /// backends, node 0's pool.
    fn primary_pool(&self) -> &Arc<WorkerPool>;

    /// Accepts one job for execution. The call must not block: a job that
    /// cannot start at once waits in the backend's backlog. The backend
    /// must eventually resolve the job — upholding the one-result contract
    /// via [`PreparedJob::execute`] — or return an error, in which case the
    /// engine reports the failure to the submitter.
    ///
    /// # Errors
    /// Backend-specific launch failures (e.g. thread spawn exhaustion),
    /// reported as [`RunError::InvalidSpec`].
    fn launch(&self, job: PreparedJob) -> Result<(), RunError>;

    /// The order in which a batch's jobs should be launched, given their
    /// [`weights`](PreparedJob::weight). Defaults to submission order;
    /// cluster backends return LPT order so heavy jobs place first.
    fn batch_order(&self, weights: &[f64]) -> Vec<usize> {
        (0..weights.len()).collect()
    }
}
