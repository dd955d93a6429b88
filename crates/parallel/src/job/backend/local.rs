//! The single-machine backend: one shared pool, at most W jobs at once.

use crate::job::backend::{ExecutionBackend, PreparedJob};
use crate::job::error::RunError;
use pmcmc_runtime::{ClusterTopology, JobExecutor, NodeId, WorkerPool};
use std::sync::Arc;

/// One machine as a backend: jobs run on a [`JobExecutor`] as wide as the
/// shared [`WorkerPool`] they fan their parallel stages onto, so at most W
/// jobs run at once, each on a thread of its own, and the rest wait in
/// submission order. Submission returns at once and never throttles; the
/// backlog is unbounded, so callers bound memory by bounding how many jobs
/// they keep in flight. For back-pressure on submission use
/// [`ShardedBackend`](crate::job::backend::ShardedBackend).
pub struct LocalBackend {
    pool: Arc<WorkerPool>,
    jobs: JobExecutor,
}

impl LocalBackend {
    /// Creates a backend with its own pool of `threads` workers.
    ///
    /// # Errors
    /// [`RunError::InvalidSpec`] when `threads` is zero.
    pub fn new(threads: usize) -> Result<Self, RunError> {
        if threads == 0 {
            return Err(RunError::InvalidSpec(
                "worker count must be at least 1".to_owned(),
            ));
        }
        Ok(Self::with_pool(WorkerPool::shared(threads)))
    }

    /// Creates a backend on an existing shared pool.
    #[must_use]
    pub fn with_pool(pool: Arc<WorkerPool>) -> Self {
        let jobs = JobExecutor::new("pmcmc-job", pool.threads());
        Self { pool, jobs }
    }
}

impl ExecutionBackend for LocalBackend {
    fn name(&self) -> &'static str {
        "local"
    }

    fn topology(&self) -> ClusterTopology {
        // One machine, pool-width threads; admission is unbounded (the
        // backend never blocks submission).
        ClusterTopology::new(1, self.pool.threads()).max_in_flight(usize::MAX)
    }

    fn primary_pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    fn launch(&self, job: PreparedJob) -> Result<(), RunError> {
        let pool = Arc::clone(&self.pool);
        self.jobs
            .launch(move || job.execute(&pool, NodeId(0)))
            .map_err(|e| RunError::InvalidSpec(format!("failed to spawn job thread: {e}")))
    }
}
