//! The in-process `s × t` cluster backend for eq. (4).
//!
//! §VI's scaling argument culminates in eq. (4): a cluster of `s` machines
//! with `t` threads each. [`ShardedBackend`] gives that model an execution
//! counterpart: `s` *private* [`WorkerPool`]s of `t` workers, one per node,
//! and one [`JobExecutor`] that places whole jobs over the `s` nodes by the
//! rule every backend shares (see the [`backend`](super) docs). A job runs
//! on a worker of its node's pool and fans out onto the same workers, so a
//! node holds `t` threads and runs at most `min(max_in_flight, t)` jobs at
//! once. That is the greedy rule of
//! [`list_schedule_makespan`](pmcmc_runtime::list_schedule_makespan), and
//! batches launch in [`lpt_order`](pmcmc_runtime::lpt_order) so heavy jobs
//! place first — the classic Graham bound then applies to the cluster's
//! makespan. One machine is the `s = 1` case, which is what
//! [`Engine::new`](crate::job::Engine::new) builds. To stripe one job's
//! image over the nodes, run it as `blind:cols=s,rows=1`.

use crate::job::backend::{ExecutionBackend, PreparedJob};
use crate::job::error::RunError;
use pmcmc_runtime::{ClusterTopology, JobExecutor, WorkerPool};
use std::sync::Arc;

/// The eq. (4) cluster as an [`ExecutionBackend`]: `s` node pools × `t`
/// workers and one executor placing whole jobs over them. See the module
/// docs for the execution model. Submission returns at once; the backlog
/// is unbounded, so callers bound memory by bounding how many jobs they
/// keep in flight. Dropping the backend waits for every submitted job.
pub struct ShardedBackend {
    topology: ClusterTopology,
    jobs: JobExecutor,
}

impl ShardedBackend {
    /// Spins up the cluster: `s` node pools of `t` workers each. A node runs
    /// at most `min(max_in_flight, t)` jobs at once, each on one of its
    /// workers.
    ///
    /// # Errors
    /// [`RunError::InvalidSpec`] for a degenerate topology (zero nodes,
    /// threads, or jobs at once).
    pub fn new(topology: ClusterTopology) -> Result<Self, RunError> {
        topology.validate().map_err(RunError::InvalidSpec)?;
        let t = topology.threads_per_node();
        let pools = (0..topology.nodes())
            .map(|_| WorkerPool::shared(t))
            .collect();
        Ok(Self {
            topology,
            jobs: JobExecutor::new(pools, topology.max_in_flight_per_node().min(t)),
        })
    }
}

impl ExecutionBackend for ShardedBackend {
    fn name(&self) -> &'static str {
        "sharded"
    }

    fn topology(&self) -> ClusterTopology {
        self.topology
    }

    fn primary_pool(&self) -> &Arc<WorkerPool> {
        &self.jobs.pools()[0]
    }

    fn launch(&self, job: PreparedJob) -> Result<(), RunError> {
        // Whole, on the least-committed node with a free slot, or queued
        // for the first node to free one.
        (self.jobs).launch(job.weight(), move |node, pool| job.run(pool, node));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn a_node_never_runs_more_than_min_max_in_flight_t_jobs_at_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let topology = ClusterTopology::new(1, 2).max_in_flight(10_000);
        let backend = ShardedBackend::new(topology).unwrap();
        assert_eq!(backend.topology().max_in_flight_per_node(), 10_000);
        // 40 jobs that hold their worker until the gate opens: 2 run, the
        // rest wait in the backlog.
        let gate = Arc::new(std::sync::RwLock::new(()));
        let closed = gate.write().unwrap();
        let (running, most) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        for _ in 0..40 {
            let (gate, running, most) =
                (Arc::clone(&gate), Arc::clone(&running), Arc::clone(&most));
            backend.jobs.launch(1.0, move |_, _| {
                most.fetch_max(running.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                drop(gate.read());
                running.fetch_sub(1, Ordering::SeqCst);
                Box::new(|| ())
            });
        }
        let waited = Instant::now();
        while running.load(Ordering::SeqCst) < 2 {
            assert!(
                waited.elapsed() < Duration::from_secs(10),
                "2 jobs never started"
            );
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(running.load(Ordering::SeqCst), 2);
        drop(closed);
        backend.jobs.wait_idle();
        assert_eq!(most.load(Ordering::SeqCst), 2);
    }
}
