//! A bounded, on-demand job executor: at most `limit` tasks run at once,
//! each on a thread of its own, and the rest wait in a FIFO backlog.
//!
//! Eq. (4) prices a node as `t` threads running chains. Every job a node
//! runs goes through one [`JobExecutor`]: the local backend's (with `limit`
//! = pool threads), a sharded node's (its driver count) and a node
//! daemon's (its capacity). [`JobExecutor::launch`] never blocks. Below the
//! limit it spawns a thread for the task; at the limit it queues the task
//! and returns. A thread that finishes a task takes the next one from the
//! backlog. Once the backlog is empty it waits `LINGER` (1 ms) for another
//! task and then exits, so an idle executor holds no thread at all.
//!
//! Why not persistent drivers: under glibc a thread takes a malloc arena at
//! its first allocation, from a last-in-first-out list of the arenas exited
//! threads left behind. Drivers spawned eagerly and kept alive captured
//! the arenas of the threads that built a benchmark's scene, and the
//! `dense_periodic` peak resident set read 99–107 instead of 68 MB; drivers
//! spawned lazily but never exiting made the benchmark's set-up wait for
//! them. Why the linger: a cluster node gets its next job only once its
//! last one has given back its admission slot, which happens as the task
//! returns, so the thread always finds the backlog empty; the submitter
//! that slot woke launches the next job a few microseconds later. Without
//! the linger every such job would find its thread gone and run on a new
//! one (a new stack and a new malloc arena): with `LINGER` at zero,
//! `batch_small_sharded` read 1.11 s against 0.81 s with it (slower in 6
//! of 6 alternating 8 s pairs at seed 42 on a 2-core x86-64 host).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long a thread whose backlog ran dry waits for another task before
/// it exits: long enough for a submitter woken by the task it just
/// finished to launch the next one, short next to anything that waits for
/// the executor to go idle.
const LINGER: Duration = Duration::from_millis(1);

type Task = Box<dyn FnOnce() + Send + 'static>;

/// Counters of a [`JobExecutor`], read under its lock.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Threads alive now: each runs one task or waits for the next one.
    pub threads: usize,
    /// The most threads ever alive at once; never above the limit.
    pub peak_threads: usize,
    /// Threads spawned so far.
    pub spawned: u64,
    /// Tasks waiting in the backlog.
    pub queued: usize,
}

#[derive(Default)]
struct State {
    backlog: VecDeque<Task>,
    /// Threads waiting out [`LINGER`] for a task.
    lingering: usize,
    stats: ExecutorStats,
}

#[derive(Default)]
struct Shared {
    state: Mutex<State>,
    /// Signalled when a task is queued.
    queued: Condvar,
    /// Signalled when the last thread exits.
    idle: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        // No task runs under the lock, so a poisoned lock still holds a
        // consistent state.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Gives up one thread slot; the caller holds the lock.
    fn retire(&self, state: &mut State) {
        state.stats.threads -= 1;
        if state.stats.threads == 0 {
            self.idle.notify_all();
        }
    }

    /// A thread's life: run `task`, then whatever the backlog holds, and
    /// exit once it has stayed empty for [`LINGER`]. A panicking task is
    /// caught, so it neither leaks its slot nor strands the tasks queued
    /// behind it.
    fn drive(&self, mut task: Task) {
        loop {
            let _ = catch_unwind(AssertUnwindSafe(task));
            let mut state = self.lock();
            let exit_at = Instant::now() + LINGER;
            state.lingering += 1;
            let next = loop {
                if let Some(next) = state.backlog.pop_front() {
                    break Some(next);
                }
                let now = Instant::now();
                if now >= exit_at {
                    break None;
                }
                state = (self.queued.wait_timeout(state, exit_at - now))
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            };
            state.lingering -= 1;
            match next {
                Some(next) => task = next,
                None => {
                    self.retire(&mut state);
                    return;
                }
            }
        }
    }
}

/// Runs tasks on at most `limit` threads at once, spawning them on demand
/// and letting them exit soon after the backlog runs dry. Tasks start in
/// launch order. See the module docs.
pub struct JobExecutor {
    name: String,
    limit: usize,
    shared: Arc<Shared>,
}

impl JobExecutor {
    /// An executor running at most `limit` tasks at once (at least 1);
    /// its threads are named `{name}-{n}`.
    #[must_use]
    pub fn new(name: impl Into<String>, limit: usize) -> Self {
        Self {
            name: name.into(),
            limit: limit.max(1),
            shared: Arc::default(),
        }
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> ExecutorStats {
        let state = self.shared.lock();
        ExecutorStats {
            queued: state.backlog.len(),
            ..state.stats
        }
    }

    /// Hands `task` to a lingering thread, runs it on a new thread when
    /// fewer than `limit` are alive, or queues it behind the tasks already
    /// waiting. Never blocks.
    ///
    /// # Errors
    /// The `io::Error` from `std::thread::Builder::spawn`; the task is
    /// dropped unrun, and so is the backlog if no thread is left to run
    /// it.
    pub fn launch(&self, task: impl FnOnce() + Send + 'static) -> std::io::Result<()> {
        let task: Task = Box::new(task);
        let n = {
            let mut state = self.shared.lock();
            if state.stats.threads >= self.limit || state.lingering > state.backlog.len() {
                state.backlog.push_back(task);
                self.shared.queued.notify_one();
                return Ok(());
            }
            let stats = &mut state.stats;
            stats.threads += 1;
            stats.peak_threads = stats.peak_threads.max(stats.threads);
            stats.spawned += 1;
            stats.spawned
        };
        // The thread is detached: it catches its tasks' panics itself, and
        // a kept handle would keep its stack after it has exited.
        let shared = Arc::clone(&self.shared);
        let spawned = std::thread::Builder::new()
            .name(format!("{}-{n}", self.name))
            .spawn(move || shared.drive(task));
        spawned.map(drop).inspect_err(|_| {
            // Tasks queued against the slot that never came up would wait
            // for a thread that does not exist: drop them too (outside the
            // lock, since dropping a task runs its captures' destructors).
            let stranded = {
                let mut state = self.shared.lock();
                self.shared.retire(&mut state);
                if state.stats.threads == 0 {
                    std::mem::take(&mut state.backlog)
                } else {
                    VecDeque::new()
                }
            };
            drop(stranded);
        })
    }

    /// Blocks until every launched task has run and every thread has
    /// given up its slot.
    pub fn wait_idle(&self) {
        let mut state = self.shared.lock();
        while state.stats.threads > 0 {
            state = self
                .shared
                .idle
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}
