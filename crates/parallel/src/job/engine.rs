//! The submission front-end: validation, id minting, handle wiring.

use crate::job::backend::{
    BatchResult, Delivery, DistributedBackend, EventSink, ExecutionBackend, JobCompletion,
    PreparedJob, ShardedBackend,
};
use crate::job::ctx::CancelToken;
use crate::job::error::RunError;
use crate::job::handle::{Batch, JobHandle};
use crate::job::spec::{JobId, JobSpec};
use crossbeam::channel::{unbounded, Sender};
use pmcmc_runtime::{lpt_order, ClusterTopology, WorkerPool};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The shared execution service: jobs are validated and wired up here,
/// then handed to a pluggable [`ExecutionBackend`] that decides where
/// they run. A [`ShardedBackend`] runs the eq. (4) `s × t` cluster
/// in-process: per-node pools, at most `min(max_in_flight, t)` jobs
/// running per node, each on a worker of its node's pool and fanning its
/// parallel stages onto the same workers. [`Engine::new`] is its one-node
/// case: one pool of W workers running at most W jobs at once, the rest
/// waiting in submission order. Submission never blocks on any backend: a
/// job that finds no free slot waits in the backend's backlog.
pub struct Engine {
    backend: Arc<dyn ExecutionBackend>,
    next_id: AtomicU64,
}

impl Engine {
    /// Creates an engine for one machine: a one-node [`ShardedBackend`]
    /// with its own pool of `threads` workers, running at most `threads`
    /// jobs at once.
    ///
    /// # Errors
    /// [`RunError::InvalidSpec`] when `threads` is zero.
    pub fn new(threads: usize) -> Result<Self, RunError> {
        Self::sharded(ClusterTopology::new(1, threads).max_in_flight(threads))
    }

    /// Creates an engine on a [`ShardedBackend`] simulating the given
    /// `s × t` cluster.
    ///
    /// # Errors
    /// [`RunError::InvalidSpec`] for a degenerate topology.
    pub fn sharded(topology: ClusterTopology) -> Result<Self, RunError> {
        Ok(Self::with_backend(ShardedBackend::new(topology)?))
    }

    /// Creates an engine on a [`DistributedBackend`] coordinating one
    /// remote [`NodeDaemon`](crate::job::daemon::NodeDaemon) per address.
    ///
    /// # Errors
    /// [`RunError::Transport`] when a daemon cannot be reached or
    /// handshaken.
    pub fn distributed<A: std::net::ToSocketAddrs>(addrs: &[A]) -> Result<Self, RunError> {
        Ok(Self::with_backend(DistributedBackend::connect(addrs)?))
    }

    /// Creates an engine on any execution backend.
    #[must_use]
    pub fn with_backend(backend: impl ExecutionBackend + 'static) -> Self {
        Self {
            backend: Arc::new(backend),
            next_id: AtomicU64::new(0),
        }
    }

    /// The backend this engine submits to.
    #[must_use]
    pub fn backend(&self) -> &dyn ExecutionBackend {
        &*self.backend
    }

    /// The backend's primary worker pool (node 0's pool; the only one on
    /// an engine from [`Engine::new`]).
    #[must_use]
    pub fn pool(&self) -> &WorkerPool {
        self.backend.primary_pool()
    }

    /// Validates and submits one job and returns its handle at once, on
    /// every backend: a job that finds every node busy waits in the
    /// backend's backlog, where it can be cancelled through the handle.
    /// Failures after submission (a cluster that has lost every node, for
    /// one) resolve the handle.
    ///
    /// # Errors
    /// [`RunError::InvalidSpec`] when the spec fails validation or the
    /// backend cannot launch the job.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, RunError> {
        spec.validate()?;
        let (job, handle) = self.prepare(spec, None);
        self.backend.launch(job)?;
        Ok(handle)
    }

    /// Validates and submits N jobs as a batch sharing the backend;
    /// per-job reports stream through [`Batch::next_finished`] as they
    /// complete. Jobs launch in LPT order of their
    /// [`weights`](PreparedJob::weight), heaviest first and ties in
    /// submission order, while results keep their submission indices.
    ///
    /// # Errors
    /// [`RunError::InvalidSpec`] when any spec fails validation (no job
    /// is started in that case). If the backend fails to launch a job
    /// mid-batch, the already-started jobs are cancelled before the error
    /// returns.
    pub fn submit_batch(&self, specs: Vec<JobSpec>) -> Result<Batch, RunError> {
        for spec in &specs {
            spec.validate()?;
        }
        let (done_tx, done_rx) = unbounded();
        let mut jobs: Vec<Option<PreparedJob>> = Vec::with_capacity(specs.len());
        let mut handles: Vec<JobHandle> = Vec::with_capacity(specs.len());
        for (idx, spec) in specs.into_iter().enumerate() {
            let (job, handle) = self.prepare(spec, Some((idx, done_tx.clone())));
            jobs.push(Some(job));
            handles.push(handle);
        }
        drop(done_tx);
        let weights: Vec<f64> = jobs
            .iter()
            .map(|j| j.as_ref().expect("not launched yet").weight())
            .collect();
        for idx in lpt_order(&weights) {
            let job = jobs[idx].take().expect("each job launched once");
            if let Err(e) = self.backend.launch(job) {
                for started in &handles {
                    started.cancel();
                }
                return Err(e);
            }
        }
        Ok(Batch {
            results: handles.iter().map(|_| None).collect(),
            handles,
            finished: done_rx,
        })
    }

    /// Wires up the cancel token, event channel and completion for one
    /// validated spec, pairing the backend-bound [`PreparedJob`] with the
    /// caller's [`JobHandle`]. A batched job's result goes to the batch
    /// stream, so its handle's completion channel is never fed.
    fn prepare(
        &self,
        spec: JobSpec,
        batch: Option<(usize, Sender<BatchResult>)>,
    ) -> (PreparedJob, JobHandle) {
        let id = JobId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let cancel = CancelToken::new();
        let (event_tx, event_rx) = unbounded();
        let (done_tx, done_rx) = unbounded();
        let finished = Arc::new(AtomicBool::new(false));
        let handle = JobHandle {
            id,
            strategy: spec.strategy().name(),
            cancel: cancel.clone(),
            events: event_rx,
            done: done_rx,
            finished: Arc::clone(&finished),
        };
        let job = PreparedJob {
            id,
            work: spec.work,
            submitted_at: Instant::now(),
            cancel,
            sink: EventSink {
                observer: spec.observer,
                events: event_tx,
            },
            completion: JobCompletion {
                to: match batch {
                    Some((idx, tx)) => Delivery::Batch(idx, tx),
                    None => Delivery::Handle(done_tx),
                },
                finished,
            },
        };
        (job, handle)
    }
}
