//! A persistent fixed-size worker pool with scoped, weighted task batches.
//!
//! The periodic-partitioning sampler runs one batch per local phase: one
//! task per partition, weighted by the partition's iteration budget. The
//! pool keeps its threads alive across phases so that per-phase overhead is
//! limited to queue traffic (the paper's "overhead required to duplicate,
//! arrange for parallel execution, and merge the partitions").
//!
//! Who runs which task: the thread that calls [`WorkerPool::run_batch`]
//! runs the heaviest task of its batch itself and hands only the others to
//! the queue, so a batch of `n` tasks wakes at most `n − 1` workers and a
//! one-task batch wakes none. The owner of a periodic chain used to sleep
//! through every local phase and be woken at its end (1563 times in a 500k
//! run); now it does a bundle's work instead, and the global phase that
//! follows starts on a warm core. Every task is counted in [`PoolStats`]
//! whichever thread ran it.
//!
//! Tasks may borrow from the caller's stack: [`WorkerPool::run_batch`]
//! blocks until every task in the batch has finished, which makes the
//! lifetime extension sound (same argument as `std::thread::scope`).

use crate::scheduler::lpt_order;
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Runs one task of a batch under `catch_unwind` and adds it to the pool's
/// task and busy-time counters, on whichever thread it runs.
fn run_counted<R>(
    f: impl FnOnce() -> R,
    tasks: &AtomicU64,
    busy_nanos: &AtomicU64,
) -> std::thread::Result<R> {
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(f));
    busy_nanos.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    tasks.fetch_add(1, Ordering::Relaxed);
    outcome
}

/// Cumulative execution statistics for a pool.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Total tasks executed.
    pub tasks: u64,
    /// Total busy nanoseconds summed over all workers.
    pub busy_nanos: u64,
    /// Number of batches run.
    pub batches: u64,
}

/// A fixed-size thread pool executing batches of borrowed tasks.
pub struct WorkerPool {
    sender: Option<Sender<Job>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
    tasks: Arc<AtomicU64>,
    busy_nanos: Arc<AtomicU64>,
    batches: AtomicU64,
}

impl WorkerPool {
    /// Spawns a pool with `threads` workers (at least 1).
    ///
    /// # Panics
    /// When the OS refuses to spawn a worker thread. Long-running services
    /// (the node daemon) use [`WorkerPool::try_new`] / [`WorkerPool::try_shared`]
    /// and surface the failure as an `io::Error` instead.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        // Panic-audit allowlisted: local drivers have no recovery path for
        // a machine that cannot spawn threads at startup.
        Self::try_new(threads).expect("failed to spawn pool worker")
    }

    /// Spawns a pool with `threads` workers (at least 1), surfacing
    /// thread-spawn failure as an error instead of panicking. If any
    /// worker fails to spawn, the already-started workers are shut down
    /// cleanly before the error is returned.
    ///
    /// # Errors
    /// The `io::Error` from `std::thread::Builder::spawn`.
    pub fn try_new(threads: usize) -> std::io::Result<Self> {
        let threads = threads.max(1);
        let (sender, receiver): (Sender<Job>, Receiver<Job>) = unbounded();
        let tasks = Arc::new(AtomicU64::new(0));
        let busy = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::with_capacity(threads);
        for i in 0..threads {
            let rx = receiver.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("pmcmc-worker-{i}"))
                .spawn(move || {
                    // Task/busy accounting happens inside the job itself
                    // (see `run_batch`), *before* the job's result is sent:
                    // accounting here, after `job()` returns, would race
                    // with the batch owner reading `stats()` right after
                    // `run_batch` unblocks.
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                });
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    // Partially spawned: close the queue so the started
                    // workers exit, join them, then report the failure.
                    drop(sender);
                    drop(receiver);
                    for h in handles {
                        let _ = h.join();
                    }
                    return Err(e);
                }
            }
        }
        Ok(Self {
            sender: Some(sender),
            handles,
            threads,
            tasks,
            busy_nanos: busy,
            batches: AtomicU64::new(0),
        })
    }

    /// Spawns a pool wrapped in an [`Arc`] — the shape the job engine
    /// shares one pool across concurrently running jobs. Batches from
    /// different threads interleave safely: each `run_batch` call collects
    /// results on its own private channel.
    ///
    /// # Panics
    /// As [`WorkerPool::new`]; see [`WorkerPool::try_shared`].
    #[must_use]
    pub fn shared(threads: usize) -> Arc<Self> {
        Arc::new(Self::new(threads))
    }

    /// Fallible variant of [`WorkerPool::shared`] for long-running
    /// services that must report startup failure over their control
    /// channel rather than die.
    ///
    /// # Errors
    /// The `io::Error` from `std::thread::Builder::spawn`.
    pub fn try_shared(threads: usize) -> std::io::Result<Arc<Self>> {
        Ok(Arc::new(Self::try_new(threads)?))
    }

    /// Number of worker threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            tasks: self.tasks.load(Ordering::Relaxed),
            busy_nanos: self.busy_nanos.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
        }
    }

    /// Runs a batch of weighted tasks to completion and returns their
    /// results in task order. The heaviest task runs on the calling thread
    /// — the caller would otherwise sleep through the batch and be woken
    /// at its end, once per periodic-sampler phase; the rest are submitted
    /// in LPT (descending weight) order so that greedy pickup by free
    /// workers approximates optimal load balancing when there are more
    /// tasks than threads. A one-task batch never touches the queue.
    ///
    /// Tasks may borrow data from the caller: this function does not return
    /// until every task has run, so borrows cannot dangle.
    ///
    /// # Panics
    /// Re-raises the first panic (in task order) raised by any task, after
    /// every task of the batch has finished.
    pub fn run_batch<'env, R, F>(&self, tasks: Vec<(f64, F)>) -> Vec<R>
    where
        R: Send + 'env,
        F: FnOnce() -> R + Send + 'env,
    {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        self.batches.fetch_add(1, Ordering::Relaxed);

        let weights: Vec<f64> = tasks.iter().map(|(w, _)| *w).collect();
        let order = lpt_order(&weights);

        type TaskResult<R> = (usize, std::thread::Result<R>);
        let (result_tx, result_rx) = unbounded::<TaskResult<R>>();

        let mut slot_fns: Vec<Option<F>> = tasks.into_iter().map(|(_, f)| Some(f)).collect();
        let sender = self.sender.as_ref().expect("pool alive");
        let own = order[0];
        let own_fn = slot_fns[own].take().expect("each task submitted once");

        for &i in &order[1..] {
            let f = slot_fns[i].take().expect("each task submitted once");
            let tx = result_tx.clone();
            let task_ctr = Arc::clone(&self.tasks);
            let busy_ctr = Arc::clone(&self.busy_nanos);
            // Build the job with its true (non-'static) lifetime first.
            let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                // Accounted before the result is sent: once the batch
                // owner has collected every result, `stats()` must already
                // reflect the whole batch.
                let outcome = run_counted(f, &task_ctr, &busy_ctr);
                // The batch owner blocks on the receiver, so it is alive.
                let _ = tx.send((i, outcome));
            });
            // SAFETY: `run_batch` blocks below until it has received one
            // result per queued task, and each result is sent only after
            // its task's closure has returned. The task the caller runs in
            // between is wrapped in `catch_unwind`, so its panic cannot
            // skip that wait. All `'env` borrows captured by `job`
            // therefore strictly outlive the job's execution; the queue
            // never holds a job past that point. This is the same
            // soundness argument as `std::thread::scope`.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
            sender.send(job).expect("pool workers alive");
        }
        drop(result_tx);

        let mut results: Vec<Option<std::thread::Result<R>>> = (0..n).map(|_| None).collect();
        results[own] = Some(run_counted(own_fn, &self.tasks, &self.busy_nanos));
        for _ in 1..n {
            let (i, outcome) = result_rx.recv().expect("one result per task");
            results[i] = Some(outcome);
        }
        let mut first_panic = None;
        let mut out = Vec::with_capacity(n);
        for r in results {
            match r.expect("all slots filled") {
                Ok(v) => out.push(v),
                Err(p) => {
                    if first_panic.is_none() {
                        first_panic = Some(p);
                    }
                }
            }
        }
        if let Some(p) = first_panic {
            resume_unwind(p);
        }
        out
    }

    /// Convenience: maps `f` over `items` in parallel (unit weights) and
    /// returns outputs in input order.
    pub fn map<'env, T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'env,
        R: Send + 'env,
        F: Fn(T) -> R + Sync + Send + 'env,
    {
        let fref = &f;
        self.run_batch(
            items
                .into_iter()
                .map(|item| (1.0, move || fref(item)))
                .collect(),
        )
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel stops the workers after the queue drains.
        self.sender.take();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn empty_batch_is_noop() {
        let pool = WorkerPool::new(2);
        let out: Vec<i32> = pool.run_batch(Vec::<(f64, fn() -> i32)>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn results_in_task_order_despite_lpt() {
        let pool = WorkerPool::new(3);
        // Weights deliberately unsorted; results must match input order.
        let tasks: Vec<(f64, Box<dyn FnOnce() -> usize + Send>)> = (0..10usize)
            .map(|i| {
                let w = ((i * 7 % 5) as f64) + 0.5;
                (
                    w,
                    Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>,
                )
            })
            .collect();
        let out = pool.run_batch(tasks);
        assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn tasks_can_borrow_caller_state() {
        let pool = WorkerPool::new(4);
        let data: Vec<u64> = (0..100).collect();
        let chunks: Vec<&[u64]> = data.chunks(10).collect();
        let sums = pool.map(chunks, |c| c.iter().sum::<u64>());
        assert_eq!(sums.iter().sum::<u64>(), 4950);
    }

    #[test]
    fn all_tasks_execute_exactly_once() {
        let pool = WorkerPool::new(4);
        let counter = AtomicUsize::new(0);
        let tasks: Vec<(f64, _)> = (0..64)
            .map(|_| {
                let c = &counter;
                (1.0, move || {
                    c.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        pool.run_batch(tasks);
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn more_tasks_than_threads() {
        let pool = WorkerPool::new(2);
        let out = pool.map((0..50).collect::<Vec<i64>>(), |i| i * 2);
        assert_eq!(out, (0..50).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_batches_reuse_pool() {
        let pool = WorkerPool::new(3);
        for round in 0..20 {
            let out = pool.map(vec![round; 5], |x: i32| x + 1);
            assert_eq!(out, vec![round + 1; 5]);
        }
        let stats = pool.stats();
        assert_eq!(stats.tasks, 100);
        assert_eq!(stats.batches, 20);
    }

    #[test]
    fn panics_propagate_to_caller() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_batch(vec![
                (
                    1.0,
                    Box::new(|| 1usize) as Box<dyn FnOnce() -> usize + Send>,
                ),
                (
                    1.0,
                    Box::new(|| -> usize { panic!("boom") }) as Box<dyn FnOnce() -> usize + Send>,
                ),
            ]);
        }));
        assert!(result.is_err());
        // Pool still usable afterwards.
        let out = pool.map(vec![1, 2, 3], |x: i32| x);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn heaviest_task_runs_on_the_caller_and_results_keep_task_order() {
        let pool = WorkerPool::new(2);
        let caller = std::thread::current().id();
        let tasks: Vec<(f64, _)> = [1.0, 5.0, 3.0]
            .into_iter()
            .enumerate()
            .map(|(i, w)| (w, move || (i, std::thread::current().id())))
            .collect();
        let out = pool.run_batch(tasks);
        assert_eq!(out.iter().map(|r| r.0).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(out[1].1, caller, "the heaviest task runs on the caller");
        assert_ne!(out[0].1, caller, "lighter tasks go to the queue");
        assert_ne!(out[2].1, caller, "lighter tasks go to the queue");
        assert_eq!(pool.stats().tasks, 3, "caller-run tasks are counted");
    }

    #[test]
    fn one_task_batch_completes_on_the_caller_without_a_worker() {
        let pool = WorkerPool::new(1);
        // Park the only worker for the whole test: were the batch queued,
        // it would never run.
        let (release_tx, release_rx) = unbounded::<()>();
        let (parked_tx, parked_rx) = unbounded::<()>();
        let caller = std::thread::current().id();
        std::thread::scope(|scope| {
            let pool = &pool;
            // A two-task batch from a helper thread: the helper runs one
            // task, the pool's worker the other — and blocks in it.
            let blocker = scope.spawn(move || {
                pool.run_batch(vec![
                    (
                        1.0,
                        Box::new(move || {
                            parked_tx.send(()).expect("test alive");
                            release_rx.recv().expect("test alive");
                        }) as Box<dyn FnOnce() + Send>,
                    ),
                    (2.0, Box::new(|| ()) as Box<dyn FnOnce() + Send>),
                ]);
            });
            parked_rx.recv().expect("worker parked");
            let before = pool.stats();
            let ran_on = pool.run_batch(vec![(1.0, || std::thread::current().id())]);
            assert_eq!(ran_on, vec![caller]);
            let after = pool.stats();
            assert_eq!(after.tasks, before.tasks + 1, "still counted in PoolStats");
            assert_eq!(after.batches, before.batches + 1);
            release_tx.send(()).expect("worker waiting");
            blocker.join().expect("blocker batch");
        });
    }

    #[test]
    fn caller_run_panic_is_reraised_after_queued_tasks_finish() {
        let pool = WorkerPool::new(2);
        let caller = std::thread::current().id();
        let queued_done = std::sync::atomic::AtomicBool::new(false);
        let (started_tx, started_rx) = unbounded::<()>();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_batch(vec![
                (
                    1.0,
                    Box::new(|| {
                        // Finish only once the caller-run task is about to
                        // panic, so the panic is in flight while this task
                        // is still running.
                        started_rx.recv().expect("caller task started");
                        queued_done.store(true, Ordering::SeqCst);
                        1usize
                    }) as Box<dyn FnOnce() -> usize + Send>,
                ),
                (
                    2.0,
                    Box::new(|| -> usize {
                        assert_eq!(std::thread::current().id(), caller);
                        started_tx.send(()).expect("queued task waiting");
                        panic!("boom on the caller")
                    }) as Box<dyn FnOnce() -> usize + Send>,
                ),
            ]);
        }));
        let payload = result.expect_err("the caller-run task's panic propagates");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("boom on the caller")
        );
        assert!(
            queued_done.load(Ordering::SeqCst),
            "run_batch returned before its queued task finished"
        );
        assert_eq!(pool.stats().tasks, 2, "the panicking task is counted too");
        // Pool still usable afterwards.
        assert_eq!(pool.map(vec![1, 2, 3], |x: i32| x), vec![1, 2, 3]);
    }

    #[test]
    fn busy_time_accumulates() {
        let pool = WorkerPool::new(2);
        pool.map(vec![(); 4], |()| {
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        assert!(pool.stats().busy_nanos >= 4 * 4_000_000);
    }

    #[test]
    fn concurrent_batches_from_multiple_threads_do_not_cross_talk() {
        // The job engine's usage pattern: several driver threads fan their
        // own batches onto one shared pool concurrently. Every batch must
        // get exactly its own results back, in its own task order.
        let pool = WorkerPool::shared(3);
        let mut drivers = Vec::new();
        for driver in 0..4u64 {
            let pool = Arc::clone(&pool);
            drivers.push(std::thread::spawn(move || {
                for round in 0..10u64 {
                    let base = driver * 1_000 + round * 100;
                    let items: Vec<u64> = (base..base + 20).collect();
                    let out = pool.map(items.clone(), |x| x * 2);
                    assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
                }
            }));
        }
        for d in drivers {
            d.join().expect("driver thread");
        }
        assert_eq!(pool.stats().tasks, 4 * 10 * 20);
    }

    #[test]
    fn single_thread_pool_works() {
        let pool = WorkerPool::new(1);
        let out = pool.map((0..10).collect::<Vec<i32>>(), |i| i - 1);
        assert_eq!(out, (-1..9).collect::<Vec<_>>());
    }
}
