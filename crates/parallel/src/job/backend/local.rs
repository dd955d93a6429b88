//! The single-machine backend: one shared pool, at most W jobs at once.

use crate::job::backend::{ExecutionBackend, PreparedJob};
use crate::job::error::RunError;
use pmcmc_runtime::{ClusterTopology, JobExecutor, WorkerPool};
use std::sync::Arc;

/// One machine as a backend: a 1-node [`JobExecutor`] over one shared
/// [`WorkerPool`] of W workers. At most W jobs run at once, each on a
/// worker, fanning its parallel stages onto the same workers; the rest
/// wait in submission order. Submission returns at once, as on every
/// backend; the backlog is unbounded, so callers bound memory by bounding
/// how many jobs they keep in flight. Dropping the backend waits for every
/// submitted job.
pub struct LocalBackend {
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
        let width = pool.threads();
        Self {
            jobs: JobExecutor::new(vec![pool], width),
        }
    }
}

impl ExecutionBackend for LocalBackend {
    fn name(&self) -> &'static str {
        "local"
    }

    fn topology(&self) -> ClusterTopology {
        // One machine running at most pool-width jobs at once.
        let width = self.primary_pool().threads();
        ClusterTopology::new(1, width).max_in_flight(width)
    }

    fn primary_pool(&self) -> &Arc<WorkerPool> {
        &self.jobs.pools()[0]
    }

    fn launch(&self, job: PreparedJob) -> Result<(), RunError> {
        (self.jobs).launch(job.weight(), move |node, pool| job.run(pool, node));
        Ok(())
    }
}
