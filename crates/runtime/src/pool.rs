//! A persistent fixed-size worker pool: a node's one set of threads. It
//! runs whole jobs ([`WorkerPool::spawn`]) and the weighted task batches
//! those jobs fan their stages onto ([`WorkerPool::run_batch`]).
//!
//! The periodic-partitioning sampler runs one batch per local phase: one
//! task per partition, weighted by the partition's iteration budget. The
//! pool keeps its threads alive across phases so that per-phase overhead is
//! limited to queue traffic (the paper's "overhead required to duplicate,
//! arrange for parallel execution, and merge the partitions").
//!
//! Batches are work-first: the caller runs its batch's heaviest task, then
//! every queued task no worker has started, and waits only for those a
//! worker did start. So a batch never waits for a free worker, and a job
//! that runs *on* a worker and fans out onto its own busy pool finishes
//! its batch alone.

use crate::scheduler::lpt_order;
use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::Thread;
use std::time::Instant;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The pool's task queue. A new task goes to the idle worker with the
/// lowest index, and only to it, so that one job after another runs on
/// the same worker and allocates from one malloc arena while the others
/// take its fan-out; with no worker idle it waits, in FIFO order, for the
/// first worker to finish. Taken by whichever worker woke first, jobs
/// moved between workers, each arena kept a job's freed memory, and the
/// `dense_periodic` benchmark's peak resident set read 78 instead of 56 MB
/// (2-core x86-64 host).
struct Queue {
    tasks: VecDeque<Job>,
    /// Worker `i`'s handle while it is parked.
    idle: Vec<Option<Thread>>,
    /// The task worker `i` was woken for.
    handed: Vec<Option<Job>>,
    /// Workers from this index on exit once the queue is empty.
    open: usize,
}

fn lock(queue: &Mutex<Queue>) -> MutexGuard<'_, Queue> {
    // No task runs under the lock.
    queue.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Queue {
    fn push(&mut self, job: Job) {
        let Some(i) = self.idle.iter().position(Option::is_some) else {
            return self.tasks.push_back(job);
        };
        self.handed[i] = Some(job);
        if let Some(worker) = self.idle[i].take() {
            worker.unpark();
        }
    }

    /// Lets the workers from index `first` on exit once the queue is empty.
    fn close_from(&mut self, first: usize) {
        self.open = first;
        (self.idle[first..].iter_mut())
            .filter_map(Option::take)
            .for_each(|w| w.unpark());
    }
}

/// Worker `me`'s life, from its first time on the idle list: wait to be
/// taken off it, run its task and then the queue's until it is empty, and
/// exit or go back.
fn work(queue: &Mutex<Queue>, me: usize) {
    loop {
        // A park may also end early.
        while lock(queue).idle[me].is_some() {
            std::thread::park();
        }
        let mut state = lock(queue);
        while let Some(job) = state.handed[me].take().or_else(|| state.tasks.pop_front()) {
            drop(state);
            job();
            state = lock(queue);
        }
        if me >= state.open {
            return;
        }
        state.idle[me] = Some(std::thread::current());
    }
}

thread_local! {
    /// The counters of the pool task this thread is timing, if any.
    static TIMING: Cell<*const Counters> = const { Cell::new(std::ptr::null()) };
}

/// A pool's task and busy-time counters, shared with its queued tasks.
#[derive(Default)]
struct Counters {
    tasks: AtomicU64,
    busy_nanos: AtomicU64,
}

impl Counters {
    /// Runs one task under `catch_unwind` and counts it, on whichever
    /// thread it runs. A task run inside another task of the same pool (a
    /// job's share of its own batch) is inside its parent's busy time and
    /// is not timed twice.
    fn run<R>(&self, f: impl FnOnce() -> R) -> std::thread::Result<R> {
        let (outer, start) = (TIMING.replace(self), Instant::now());
        let outcome = catch_unwind(AssertUnwindSafe(f));
        TIMING.set(outer);
        if !std::ptr::eq(outer, self) {
            let busy = start.elapsed().as_nanos() as u64;
            self.busy_nanos.fetch_add(busy, Ordering::Relaxed);
        }
        self.tasks.fetch_add(1, Ordering::Relaxed);
        outcome
    }
}

/// Cumulative execution statistics for a pool.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Total tasks executed: batch tasks, on whichever thread ran them,
    /// and [spawned](WorkerPool::spawn) tasks, such as the jobs of an
    /// in-process node (a worker runs a job and then the jobs waiting
    /// behind it as one task).
    pub tasks: u64,
    /// Total busy nanoseconds summed over the threads that ran tasks. A
    /// batch task that a job runs on its own worker is inside the job's
    /// time.
    pub busy_nanos: u64,
    /// Number of batches run.
    pub batches: u64,
}

/// One task of a batch and, once it has run, its outcome. Only the party
/// that claimed the task touches it.
type Slot<F, R> = UnsafeCell<(Option<F>, Option<std::thread::Result<R>>)>;

/// Runs the task in slot `i` of a batch's slots and stores its outcome
/// there. The slots' type is erased so that a queue entry calling this
/// can be `'static`.
///
/// # Safety
/// `slots` points to the live `Slot<F, R>`s of a batch, and the caller
/// holds slot `i`'s claim, so no other thread touches that slot.
unsafe fn run_slot<F: FnOnce() -> R, R>(slots: *const (), i: usize, counters: &Counters) {
    // SAFETY: as the caller guarantees.
    let (task, outcome) = unsafe { &mut *(*slots.cast::<Slot<F, R>>().add(i)).get() };
    if let Some(f) = task.take() {
        *outcome = Some(counters.run(f));
    }
}

/// A batch's slots as a pointer a queue entry can carry.
struct SlotsPtr(*const ());

// SAFETY: only `run_slot` dereferences it, on the thread that won a
// slot's claim, while `run_batch` waits for that slot.
unsafe impl Send for SlotsPtr {}

/// A fixed-size thread pool executing detached jobs and batches of
/// borrowed tasks.
pub struct WorkerPool {
    queue: Arc<Mutex<Queue>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    counters: Arc<Counters>,
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
    /// cleanly before the error is returned. Returns once every worker is
    /// running.
    ///
    /// # Errors
    /// The `io::Error` from `std::thread::Builder::spawn`.
    pub fn try_new(threads: usize) -> std::io::Result<Self> {
        let threads = threads.max(1);
        let queue = Arc::new(Mutex::new(Queue {
            tasks: VecDeque::new(),
            idle: vec![None; threads],
            handed: (0..threads).map(|_| None).collect(),
            open: threads,
        }));
        let mut handles = Vec::with_capacity(threads);
        let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
        // Start the workers one at a time. Under glibc a thread takes a
        // malloc arena at its first allocation, from a last-in-first-out
        // list of the arenas exited threads left, and `Drop` stops worker 0
        // last. So worker 0, which takes the jobs (see `Queue`), inherits
        // the arena, and the job memory in it, of the last pool's worker 0.
        // The `dense_periodic` benchmark sets up three pools in turn: when
        // another worker took that arena, its peak resident set read 78
        // instead of 56 MB (2-core x86-64 host).
        for i in 0..threads {
            let (own_queue, ready) = (Arc::clone(&queue), ready_tx.clone());
            let spawned = std::thread::Builder::new()
                .name(format!("pmcmc-worker-{i}"))
                .spawn(move || {
                    lock(&own_queue).idle[i] = Some(std::thread::current());
                    let _ = ready.send(());
                    drop(ready);
                    // Every entry counts its task itself, before the batch
                    // owner can see it finished: counting here, after the
                    // task returns, would race with the owner reading
                    // `stats()` right after `run_batch` returns.
                    work(&own_queue, i);
                });
            match spawned {
                Ok(handle) => {
                    handles.push(handle);
                    let _ = ready_rx.recv();
                }
                Err(e) => {
                    // Partially spawned: close the queue so the started
                    // workers exit, join them, then report the failure.
                    lock(&queue).close_from(0);
                    for h in handles {
                        let _ = h.join();
                    }
                    return Err(e);
                }
            }
        }
        Ok(Self {
            queue,
            handles,
            counters: Arc::default(),
            batches: AtomicU64::new(0),
        })
    }

    /// Spawns a pool wrapped in an [`Arc`] — the shape the job engine
    /// shares one pool across concurrently running jobs. Batches from
    /// different threads interleave safely: each `run_batch` call keeps
    /// its tasks and outcomes to itself.
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
        self.handles.len()
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            tasks: self.counters.tasks.load(Ordering::Relaxed),
            busy_nanos: self.counters.busy_nanos.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
        }
    }

    /// Puts the calling worker of this pool back on the idle list while its
    /// task still runs, so that the next task goes to it. A job's worker
    /// does so before the job is seen done: the job's owner may submit the
    /// next one at once and wake up first, and a job that went to another
    /// worker kept a second malloc arena full (see `Queue`).
    ///
    /// Not while a task is handed to it or queued: handing it another would
    /// drop the first, or run the new task before the queued ones.
    pub(crate) fn idle_early(&self) {
        let me = std::thread::current();
        if let Some(i) = (self.handles.iter()).position(|h| h.thread().id() == me.id()) {
            let mut state = lock(&self.queue);
            if state.handed[i].is_none() && state.tasks.is_empty() {
                state.idle[i] = Some(me);
            }
        }
    }

    /// Queues `task` to run on a worker, behind the tasks queued before it,
    /// and returns at once. A panic in `task` is caught; the task is
    /// counted in [`PoolStats`] like a batch task.
    ///
    /// A task that holds an `Arc` of this pool must not drop the last one:
    /// the pool's `Drop` joins the workers, and a worker cannot join
    /// itself.
    pub fn spawn(&self, task: impl FnOnce() + Send + 'static) {
        let counters = Arc::clone(&self.counters);
        lock(&self.queue).push(Box::new(move || drop(counters.run(task))));
    }

    /// Runs a batch of weighted tasks to completion and returns their
    /// results in task order. The heaviest task runs on the calling thread;
    /// the rest are queued in LPT (descending weight) order, so that greedy
    /// pickup by free workers approximates optimal load balancing. Then the
    /// caller runs, in that order, every queued task no worker has started,
    /// and waits only for the ones a worker did start: taking a task is one
    /// atomic claim, won by the caller or by exactly one worker. A batch of
    /// `n` tasks wakes at most `n − 1` workers, and a one-task batch never
    /// touches the queue. Every task is counted in [`PoolStats`], whichever
    /// thread ran it.
    ///
    /// Tasks may borrow data from the caller: a queued entry touches its
    /// task only after winning the claim, and this function does not return
    /// until every claimed task has run, so borrows cannot dangle.
    ///
    /// # Panics
    /// Re-raises the first panic (in task order) raised by any task, after
    /// every started task of the batch has finished.
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
        let slots: Vec<Slot<F, R>> = (tasks.into_iter())
            .map(|(_, f)| UnsafeCell::new((Some(f), None)))
            .collect();
        let base = slots.as_ptr().cast::<()>();
        // Who took which task: one atomic claim each. The queue entries
        // share it, so a stale entry can read it after the batch returned.
        let taken: Arc<[AtomicBool]> = (0..n).map(|_| AtomicBool::new(false)).collect();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();

        for &i in &order[1..] {
            let (taken, done) = (Arc::clone(&taken), done_tx.clone());
            let (counters, ptr) = (Arc::clone(&self.counters), SlotsPtr(base));
            // SAFETY: called below only by the entry that wins slot i.
            let run: unsafe fn(*const (), usize, &Counters) = run_slot::<F, R>;
            lock(&self.queue).push(Box::new(move || {
                let ptr = ptr;
                if !taken[i].swap(true, Ordering::AcqRel) {
                    // SAFETY: this entry won slot i's claim, so no other
                    // thread touches the slot. `run_batch` has not
                    // returned: it waits below for every claim it lost,
                    // and it cannot unwind before that, since every task
                    // runs under `catch_unwind`. So the slots, and every
                    // `'env` borrow a task holds, are alive. An entry that
                    // lost the claim touches only what it owns.
                    unsafe { run(ptr.0, i, &counters) };
                    let _ = done.send(());
                }
            }));
        }
        drop(done_tx);

        // SAFETY: the heaviest task was never queued; the caller alone
        // touches its slot.
        unsafe { run_slot::<F, R>(base, order[0], &self.counters) };
        let mut started_elsewhere = 0;
        for &i in &order[1..] {
            if taken[i].swap(true, Ordering::AcqRel) {
                started_elsewhere += 1;
            } else {
                // SAFETY: the caller won slot i's claim.
                unsafe { run_slot::<F, R>(base, i, &self.counters) };
            }
        }
        for _ in 0..started_elsewhere {
            done_rx.recv().expect("a claimed task reports");
        }

        let mut first_panic = None;
        let mut out = Vec::with_capacity(n);
        for slot in slots {
            match slot.into_inner().1.expect("every claimed task ran") {
                Ok(v) => out.push(v),
                Err(p) => {
                    first_panic.get_or_insert(p);
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
        // One at a time, worker 0 last (see `try_new`).
        for (i, h) in self.handles.drain(..).enumerate().rev() {
            lock(&self.queue).close_from(i);
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
        // Every task waits for the other two, so the caller cannot take a
        // queued one back: each of the three runs on its own thread.
        let all_started = std::sync::Barrier::new(3);
        let tasks: Vec<(f64, _)> = [1.0, 5.0, 3.0]
            .into_iter()
            .enumerate()
            .map(|(i, w)| {
                let all_started = &all_started;
                (w, move || {
                    all_started.wait();
                    (i, std::thread::current().id())
                })
            })
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
        let (parked_tx, parked_rx) = std::sync::mpsc::channel::<()>();
        let caller = std::thread::current().id();
        std::thread::scope(|scope| {
            let pool = &pool;
            // Park the only worker for the whole test: were the batch
            // queued, it would never run. The sender lives inside the
            // scope, so a failing assertion drops it and frees the worker
            // instead of leaving the scope waiting on it.
            let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
            // A two-task batch from a helper thread: the helper runs one
            // task, the pool's worker the other — and blocks in it. The
            // helper's task waits for the worker's to start, so the helper
            // cannot take it back.
            let both_started = std::sync::Barrier::new(2);
            let blocker = scope.spawn(move || {
                let both_started = &both_started;
                pool.run_batch(vec![
                    (
                        1.0,
                        Box::new(move || {
                            both_started.wait();
                            parked_tx.send(()).expect("test alive");
                            release_rx.recv().expect("test alive");
                        }) as Box<dyn FnOnce() + Send>,
                    ),
                    (
                        2.0,
                        Box::new(move || {
                            both_started.wait();
                        }) as Box<dyn FnOnce() + Send>,
                    ),
                ]);
            });
            parked_rx.recv().expect("worker parked");
            // The helper's own task has returned; wait until it is counted.
            while pool.stats().tasks < 1 {
                std::thread::yield_now();
            }
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
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        let queued_done = &queued_done;
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_batch(vec![
                (
                    1.0,
                    Box::new(move || {
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
                    // `move`: a failing assertion drops `started_tx`, so the
                    // queued task's `recv` fails instead of blocking.
                    Box::new(move || -> usize {
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

    /// Runs `f` on a thread of its own; `None` when it has not returned
    /// within a minute (the thread is then left behind).
    fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> Option<T> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(std::time::Duration::from_secs(60)).ok()
    }

    #[test]
    fn a_batch_on_a_fully_held_pool_returns_on_the_caller_alone() {
        let pool = Arc::new(WorkerPool::new(2));
        // A batch from a helper thread holds both workers (and the helper)
        // until after the batch under test has returned.
        let release = Arc::new(std::sync::RwLock::new(()));
        let held = release.write().expect("test lock");
        let (parked_tx, parked_rx) = std::sync::mpsc::channel::<()>();
        let holder = {
            let (pool, release) = (Arc::clone(&pool), Arc::clone(&release));
            std::thread::spawn(move || {
                let hold = || {
                    parked_tx.send(()).expect("test alive");
                    drop(release.read());
                };
                pool.run_batch((0..3).map(|_| (1.0, &hold)).collect());
            })
        };
        for _ in 0..3 {
            parked_rx.recv().expect("holder task parked");
        }
        let ran = {
            let pool = Arc::clone(&pool);
            within_a_minute(move || {
                let caller = std::thread::current().id();
                let tasks: Vec<(f64, _)> = (0..3usize)
                    .map(|i| (1.0 + i as f64, move || (i, std::thread::current().id())))
                    .collect();
                (caller, pool.run_batch(tasks))
            })
        };
        drop(held);
        holder.join().expect("holder batch");
        let (caller, out) = ran.expect("run_batch waited for a held worker");
        assert_eq!(out.iter().map(|r| r.0).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert!(out.iter().all(|r| r.1 == caller), "{out:?}");
        assert_eq!(pool.stats().tasks, 6, "every task is counted");
    }

    /// A job's worker marks itself idle before its job ends. When it then
    /// took a queued task, the stale mark got it handed a spawned task, and
    /// that task's `idle_early` let the next spawn replace the handed one,
    /// which never ran: a distributed daemon lost a job and its coordinator
    /// waited for it forever. Spawned tasks also run in spawn order.
    #[test]
    fn a_spawned_task_is_never_lost_or_overtaken() {
        let pool = Arc::new(WorkerPool::new(1));
        let (release_a, a_released) = std::sync::mpsc::channel::<()>();
        let (b_started, b_is_running) = std::sync::mpsc::channel::<()>();
        let (release_b, b_released) = std::sync::mpsc::channel::<()>();
        let (b_marked, b_is_marked) = std::sync::mpsc::channel::<()>();
        let (end_b, b_ended) = std::sync::mpsc::channel::<()>();
        let (ran, ran_rx) = std::sync::mpsc::channel::<char>();
        // A holds the only worker until B is queued, then ends as a job does.
        let a_pool = Arc::clone(&pool);
        pool.spawn(move || {
            let _ = a_released.recv();
            a_pool.idle_early();
        });
        // B runs next, from the queue, and ends as a job does while `c` and
        // `d` are spawned around its end.
        let b_pool = Arc::clone(&pool);
        pool.spawn(move || {
            let _ = b_started.send(());
            let _ = b_released.recv();
            b_pool.idle_early();
            let _ = b_marked.send(());
            let _ = b_ended.recv();
        });
        let spawn_named = |name: char| {
            let ran = ran.clone();
            pool.spawn(move || ran.send(name).expect("test alive"));
        };
        release_a.send(()).expect("A waits");
        b_is_running.recv().expect("B starts");
        spawn_named('c');
        release_b.send(()).expect("B waits");
        b_is_marked.recv().expect("B marks its worker idle");
        spawn_named('d');
        end_b.send(()).expect("B waits");
        let got: Vec<char> = (0..2)
            .map_while(|_| ran_rx.recv_timeout(std::time::Duration::from_secs(10)).ok())
            .collect();
        assert_eq!(got, ['c', 'd'], "a spawned task was lost or overtaken");
    }

    /// A task handed to a worker waits for the worker's current task to
    /// end. Were that task to mark its worker idle a second time, the next
    /// spawn would be handed to the worker too, in the first one's place.
    #[test]
    fn a_second_idle_mark_replaces_no_handed_task() {
        let pool = Arc::new(WorkerPool::new(1));
        let (marked_tx, marked) = std::sync::mpsc::channel::<()>();
        let (go, go_rx) = std::sync::mpsc::channel::<()>();
        let (ran, ran_rx) = std::sync::mpsc::channel::<char>();
        let own_pool = Arc::clone(&pool);
        pool.spawn(move || {
            own_pool.idle_early();
            let _ = marked_tx.send(());
            let _ = go_rx.recv();
            own_pool.idle_early();
            let _ = marked_tx.send(());
            let _ = go_rx.recv();
        });
        let spawn_named = |name: char| {
            let ran = ran.clone();
            pool.spawn(move || ran.send(name).expect("test alive"));
        };
        marked.recv().expect("first mark");
        spawn_named('c');
        go.send(()).expect("task waits");
        marked.recv().expect("second mark");
        spawn_named('d');
        go.send(()).expect("task waits");
        let got: Vec<char> = (0..2)
            .map_while(|_| ran_rx.recv_timeout(std::time::Duration::from_secs(10)).ok())
            .collect();
        assert_eq!(got, ['c', 'd'], "a handed task was replaced");
    }

    #[test]
    fn spawned_tasks_run_on_workers_and_a_panic_kills_no_worker() {
        let pool = WorkerPool::new(2);
        let (tx, rx) = std::sync::mpsc::channel();
        for i in 0..4 {
            let tx = tx.clone();
            pool.spawn(move || {
                assert!(i != 2, "task {i} panics");
                let name = std::thread::current().name().map(str::to_owned);
                tx.send((i, name)).expect("test alive");
            });
        }
        drop(tx);
        let mut ran: Vec<_> = rx.iter().collect();
        ran.sort();
        assert_eq!(ran.iter().map(|r| r.0).collect::<Vec<_>>(), vec![0, 1, 3]);
        assert!((ran.iter()).all(|r| r
            .1
            .as_deref()
            .is_some_and(|n| n.starts_with("pmcmc-worker-"))));
        // A panicking task kills no worker: the pool still runs batches.
        assert_eq!(pool.map(vec![1, 2, 3], |x: i32| x), vec![1, 2, 3]);
    }

    #[test]
    fn a_task_run_inside_a_task_of_the_same_pool_is_timed_once() {
        let pool = WorkerPool::new(1);
        // Hold the only worker, so the caller runs every task below.
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        pool.spawn(move || {
            started_tx.send(()).expect("test alive");
            let _ = release_rx.recv();
        });
        started_rx.recv().expect("worker held");
        pool.run_batch(vec![(1.0, || {
            pool.map(vec![(); 2], |()| {
                std::thread::sleep(std::time::Duration::from_millis(20));
            });
        })]);
        let stats = pool.stats();
        drop(release_tx);
        assert_eq!(stats.tasks, 3);
        assert!(stats.busy_nanos >= 40_000_000, "{stats:?}");
        assert!(
            stats.busy_nanos < 80_000_000,
            "nested time counted twice: {stats:?}"
        );
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
