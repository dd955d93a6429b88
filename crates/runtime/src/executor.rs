//! Job placement over the worker pools of one or more nodes: at most
//! `limit` jobs run at once on each node, each as a task on one of that
//! node's workers, and the rest wait in one [`SlotTable`]'s FIFO backlog.
//! The executor has no thread of its own: a node's [`WorkerPool`] is its
//! one thread set. The worker that has run a job releases its slot, then
//! completes the job (its [`Finish`]), then runs what the release handed
//! back, the backlog's head placed on the node it freed.

use crate::cluster::{NodeId, Offer, Placed, SlotTable};
use crate::pool::WorkerPool;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// What completes a job once it has run: resolving its handle, sending its
/// result.
pub type Finish = Box<dyn FnOnce() + Send>;

type Task = Box<dyn FnOnce(NodeId, &Arc<WorkerPool>) -> Finish + Send>;

struct Nodes {
    table: SlotTable<Task>,
    pools: Vec<Arc<WorkerPool>>,
}

/// How many launched tasks have not finished, and a signal for when none
/// is left.
type Unfinished = (Mutex<usize>, Condvar);

fn lock(unfinished: &Unfinished) -> MutexGuard<'_, usize> {
    // Nothing panics under the lock.
    unfinished.0.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Places jobs on the pools of its nodes, at most `limit` at once per
/// node, in launch order. See the module docs. Dropping it waits until
/// every launched job has finished.
pub struct JobExecutor {
    nodes: Arc<Nodes>,
    unfinished: Arc<Unfinished>,
}

impl JobExecutor {
    /// An executor over one node per pool (at least one pool) running at
    /// most `limit` jobs at once on each (at least 1).
    #[must_use]
    pub fn new(pools: Vec<Arc<WorkerPool>>, limit: usize) -> Self {
        Self {
            nodes: Arc::new(Nodes {
                table: SlotTable::new(pools.len(), limit.max(1)),
                pools,
            }),
            unfinished: Arc::default(),
        }
    }

    /// The nodes' pools, in node order.
    #[must_use]
    pub fn pools(&self) -> &[Arc<WorkerPool>] {
        &self.nodes.pools
    }

    /// Starts `task` on the least-committed node with a free slot,
    /// charging `weight` to it, or queues it behind the tasks already
    /// waiting. The task is called on one of the node's workers, with the
    /// node and its pool, and what it returns is called once its slot is
    /// free. Never blocks. A panicking task is caught, so it neither leaks
    /// its slot nor strands the tasks queued behind it.
    pub fn launch(
        &self,
        weight: f64,
        task: impl FnOnce(NodeId, &Arc<WorkerPool>) -> Finish + Send + 'static,
    ) {
        *lock(&self.unfinished) += 1;
        // The table retires no node, so an offer is never `Closed`.
        let Offer::Start(placed) = self.nodes.table.offer(weight, Box::new(task)) else {
            return;
        };
        let (nodes, unfinished) = (Arc::clone(&self.nodes), Arc::clone(&self.unfinished));
        self.nodes.pools[placed.node.index()].spawn(move || {
            let (mut next, mut ran) = (Some(placed), 0);
            while let Some(Placed { node, weight, job }) = next {
                let pool = &nodes.pools[node.index()];
                let finish = catch_unwind(AssertUnwindSafe(|| job(node, pool)));
                next = nodes.table.release(node, weight);
                if next.is_none() {
                    // Before the job is seen done, whose owner may submit
                    // the next one at once: see `WorkerPool::idle_early`.
                    pool.idle_early();
                }
                if let Ok(finish) = finish {
                    let _ = catch_unwind(AssertUnwindSafe(finish));
                }
                ran += 1;
            }
            // Give up this worker's hold on the pools before the count can
            // reach zero: the executor's owner may drop them as soon as it
            // does, and a worker cannot join itself.
            drop(nodes);
            let mut count = lock(&unfinished);
            *count -= ran;
            if *count == 0 {
                unfinished.1.notify_all();
            }
        });
    }

    /// Blocks until every launched task has finished.
    pub fn wait_idle(&self) {
        let mut count = lock(&self.unfinished);
        while *count > 0 {
            count = (self.unfinished.1.wait(count)).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Drop for JobExecutor {
    fn drop(&mut self) {
        self.wait_idle();
    }
}
