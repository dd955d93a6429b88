//! A bounded, on-demand job executor over the nodes of one [`SlotTable`]:
//! at most `limit` tasks run at once on each node, each on a thread of its
//! own, and the rest wait in the table's FIFO backlog.
//!
//! Every job an in-process node runs goes through one [`JobExecutor`]: the
//! local backend's (one node as wide as its pool), the sharded backend's
//! (one node per simulated machine) and a node daemon's (one node as wide
//! as its capacity). [`JobExecutor::launch`] never blocks: a task that
//! finds a free slot starts on the least-committed node, on a lingering
//! thread or a new one, and any other waits in the backlog. A task is
//! called with the [`NodeId`] it was placed on; threads are not tied to
//! nodes. A thread that finishes a task releases its slot and runs what
//! the release hands back, the backlog's head placed on the node it freed.
//! When nothing comes back it waits `LINGER` (1 ms) for another task and
//! then exits, so an idle executor holds no thread at all.
//!
//! Why not persistent drivers: under glibc a thread takes a malloc arena at
//! its first allocation, from a last-in-first-out list of the arenas exited
//! threads left behind. Drivers spawned eagerly and kept alive captured
//! the arenas of the threads that built a benchmark's scene, and the
//! `dense_periodic` peak resident set read 99–107 instead of 68 MB; drivers
//! spawned lazily but never exiting made the benchmark's set-up wait for
//! them. Why the linger: without it a job arriving just after its thread
//! found nothing to run gets a new thread (a new stack and a new malloc
//! arena). In-process nodes rarely do, since the thread that frees a slot
//! starts the next waiting job itself; a node daemon does every time, as
//! its next `Assign` arrives a loopback round trip (≈ 31–33 µs), a 17 µs
//! encode and a 48 µs decode after its last `Result`.

use crate::cluster::{NodeId, Offer, Placed, SlotTable};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long a thread that found nothing to run waits for another task
/// before it exits: long enough for a job that a just-sent result
/// triggers to arrive, short next to anything that waits for the executor
/// to go idle.
const LINGER: Duration = Duration::from_millis(1);

type Task = Box<dyn FnOnce(NodeId) + Send + 'static>;

/// Counters of a [`JobExecutor`], read under its lock.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Threads alive now: each runs one task or waits for the next one.
    pub threads: usize,
    /// The most threads ever alive at once; never above the slot count.
    pub peak_threads: usize,
    /// Threads spawned so far.
    pub spawned: u64,
    /// Tasks waiting to start.
    pub queued: usize,
}

#[derive(Default)]
struct State {
    /// Tasks placed on a node that a thread without a task will take.
    handoff: VecDeque<Placed<Task>>,
    /// Threads waiting out [`LINGER`] for a task.
    lingering: usize,
    stats: ExecutorStats,
}

struct Shared {
    table: SlotTable<Task>,
    /// Every node's slots: the most threads the executor holds.
    slots: usize,
    state: Mutex<State>,
    /// Signalled when a task is handed off.
    handed: Condvar,
    /// Signalled when the last thread exits.
    idle: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        // No task runs under the lock, so a poisoned lock still holds a
        // consistent state.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Gives up one thread; the caller holds the lock.
    fn retire(&self, state: &mut State) {
        state.stats.threads -= 1;
        if state.stats.threads == 0 {
            self.idle.notify_all();
        }
    }

    /// Hands a placed task to a thread that has none.
    fn hand_off(&self, state: &mut State, placed: Placed<Task>) {
        state.handoff.push_back(placed);
        self.handed.notify_one();
    }

    /// A thread's life: run `placed`, then whatever releasing its slot
    /// hands back, and exit once nothing has come for [`LINGER`]. A
    /// panicking task is caught, so it neither leaks its slot nor strands
    /// the tasks queued behind it.
    fn drive(&self, mut placed: Placed<Task>) {
        loop {
            let Placed { node, weight, job } = placed;
            let _ = catch_unwind(AssertUnwindSafe(|| job(node)));
            match self.table.release(node, weight).or_else(|| self.linger()) {
                Some(next) => placed = next,
                None => return,
            }
        }
    }

    /// Waits up to [`LINGER`] for a handed-off task; gives up the thread
    /// when none comes.
    fn linger(&self) -> Option<Placed<Task>> {
        let mut state = self.lock();
        let exit_at = Instant::now() + LINGER;
        state.lingering += 1;
        let next = loop {
            if let Some(next) = state.handoff.pop_front() {
                break Some(next);
            }
            let now = Instant::now();
            if now >= exit_at {
                break None;
            }
            state = (self.handed.wait_timeout(state, exit_at - now))
                .unwrap_or_else(|e| e.into_inner())
                .0;
        };
        state.lingering -= 1;
        if next.is_none() {
            self.retire(&mut state);
        }
        next
    }
}

/// Runs tasks on at most `limit` threads at once per node, spawning them
/// on demand and letting them exit soon after the backlog runs dry. Tasks
/// start in launch order. See the module docs.
pub struct JobExecutor {
    name: String,
    shared: Arc<Shared>,
}

impl JobExecutor {
    /// An executor over `nodes` nodes (at least 1) running at most `limit`
    /// tasks at once on each (at least 1); its threads are named
    /// `{name}-{n}`.
    #[must_use]
    pub fn new(name: impl Into<String>, nodes: usize, limit: usize) -> Self {
        let (nodes, limit) = (nodes.max(1), limit.max(1));
        Self {
            name: name.into(),
            shared: Arc::new(Shared {
                table: SlotTable::new(nodes, limit),
                slots: nodes * limit,
                state: Mutex::default(),
                handed: Condvar::new(),
                idle: Condvar::new(),
            }),
        }
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> ExecutorStats {
        let state = self.shared.lock();
        ExecutorStats {
            queued: self.shared.table.queued() + state.handoff.len(),
            ..state.stats
        }
    }

    /// Starts `task` on the least-committed node with a free slot,
    /// charging `weight` to it, or queues it behind the tasks already
    /// waiting. The task is called with the node it runs on. Never
    /// blocks.
    ///
    /// # Errors
    /// The `io::Error` from `std::thread::Builder::spawn`; the task is
    /// dropped unrun, and so is the backlog if no thread is left to run
    /// it.
    pub fn launch(
        &self,
        weight: f64,
        task: impl FnOnce(NodeId) + Send + 'static,
    ) -> std::io::Result<()> {
        let placed = match self.shared.table.offer(weight, Box::new(task)) {
            Offer::Start(placed) => placed,
            Offer::Queued => return Ok(()),
            Offer::Closed(_) => return Err(std::io::Error::other("the executor has no node")),
        };
        let (node, weight) = (placed.node, placed.weight);
        let n = {
            let mut state = self.shared.lock();
            if state.stats.threads >= self.shared.slots || state.lingering > state.handoff.len() {
                // A thread without a task exists (there are more threads
                // than tasks holding slots), and it checks the hand-off
                // before it exits.
                self.shared.hand_off(&mut state, placed);
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
            .spawn(move || shared.drive(placed));
        spawned.map(drop).inspect_err(|_| {
            // Give the dropped task's slot back. A task that takes it goes
            // to a live thread; with none left, it and the rest of the
            // backlog are dropped too (outside the lock, since dropping a
            // task runs its captures' destructors).
            let mut state = self.shared.lock();
            self.shared.retire(&mut state);
            let mut next = self.shared.table.release(node, weight);
            if state.stats.threads > 0 {
                if let Some(placed) = next {
                    self.shared.hand_off(&mut state, placed);
                }
                return;
            }
            drop(state);
            while let Some(placed) = next {
                next = self.shared.table.release(placed.node, placed.weight);
            }
        })
    }

    /// Blocks until every launched task has run and every thread has
    /// exited.
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
