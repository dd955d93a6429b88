//! Stress and property tests for the execution substrate.

use pmcmc_runtime::{
    list_schedule_makespan, lpt_makespan, lpt_order, makespan_lower_bound, JobExecutor, NodeId,
    SpinTeam, WorkerPool,
};
use proptest::prelude::*;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

#[test]
fn pool_survives_many_heterogeneous_batches() {
    let pool = WorkerPool::new(6);
    let total = AtomicU64::new(0);
    for round in 0..50u64 {
        let n = (round % 13 + 1) as usize;
        let tasks: Vec<(f64, _)> = (0..n)
            .map(|i| {
                let t = &total;
                let w = (i % 3) as f64 + 0.5;
                (w, move || {
                    // Mix of trivial and slightly heavier work.
                    let mut acc = 0u64;
                    for k in 0..(i as u64 % 5) * 1000 + 10 {
                        acc = acc.wrapping_add(k * k);
                    }
                    t.fetch_add(1, Ordering::Relaxed);
                    acc
                })
            })
            .collect();
        let out = pool.run_batch(tasks);
        assert_eq!(out.len(), n);
    }
    assert_eq!(
        total.load(Ordering::Relaxed),
        (0..50u64).map(|r| r % 13 + 1).sum::<u64>()
    );
    let stats = pool.stats();
    assert_eq!(stats.batches, 50);
}

#[test]
fn pool_nested_parallelism_via_two_pools() {
    // A pool task may itself submit to a different pool (periodic sampler's
    // local phases inside an application pool, for instance).
    let outer = WorkerPool::new(2);
    let inner = std::sync::Arc::new(WorkerPool::new(2));
    let results = outer.run_batch(
        (0..4)
            .map(|i| {
                let inner = std::sync::Arc::clone(&inner);
                (1.0, move || {
                    let out = inner.map(vec![i; 3], |x: i32| x * 2);
                    out.iter().sum::<i32>()
                })
            })
            .collect(),
    );
    assert_eq!(results, vec![0, 6, 12, 18]);
}

#[test]
fn spin_team_interleaved_with_pool() {
    // Both substrates active at once, as in periodic + speculative runs.
    let pool = WorkerPool::new(4);
    let team = SpinTeam::new(4);
    for _ in 0..20 {
        let hits = AtomicUsize::new(0);
        team.broadcast(|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4);
        let out = pool.map(vec![1u64, 2, 3], |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }
}

#[test]
fn spin_team_heavy_round_count() {
    let team = SpinTeam::new(3);
    let counter = AtomicU64::new(0);
    for _ in 0..10_000 {
        team.broadcast(|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
    }
    assert_eq!(counter.load(Ordering::Relaxed), 30_000);
}

#[test]
fn spin_team_zero_members_clamps_to_one() {
    // `SpinTeam::new(0)` must not underflow the helper count: it clamps to
    // a single-member team whose broadcasts run inline on the caller.
    let team = SpinTeam::new(0);
    assert_eq!(team.members(), 1);
    let out = team.broadcast_map(|id| id + 100);
    assert_eq!(out, vec![100]);
}

#[test]
fn spin_team_single_member_reusable_after_empty_workloads() {
    let team = SpinTeam::new(1);
    // Broadcasting a no-op many times must neither hang nor leak rounds.
    for _ in 0..100 {
        team.broadcast(|_| {});
    }
    let out = team.broadcast_map(|id| id);
    assert_eq!(out, vec![0]);
}

/// Launches a task that runs `first`, then holds its executor thread
/// until the returned sender fires (or is dropped); returns once the task
/// runs.
fn occupy(executor: &JobExecutor, first: impl FnOnce(NodeId) + Send + 'static) -> Sender<()> {
    let (release_tx, release_rx) = channel::<()>();
    let (started_tx, started_rx) = channel::<()>();
    executor
        .launch(1.0, move |node| {
            first(node);
            started_tx.send(()).expect("test alive");
            let _ = release_rx.recv();
        })
        .expect("spawn");
    started_rx.recv().expect("occupying task started");
    release_tx
}

#[test]
fn executor_never_runs_more_than_its_limit() {
    let executor = JobExecutor::new("stress-bound", 1, 3);
    let running = Arc::new(AtomicUsize::new(0));
    let most = Arc::new(AtomicUsize::new(0));
    let done = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for _ in 0..250 {
                    let (running, most, done) =
                        (Arc::clone(&running), Arc::clone(&most), Arc::clone(&done));
                    executor
                        .launch(1.0, move |_| {
                            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                            most.fetch_max(now, Ordering::SeqCst);
                            std::thread::yield_now();
                            running.fetch_sub(1, Ordering::SeqCst);
                            done.fetch_add(1, Ordering::SeqCst);
                        })
                        .expect("spawn");
                }
            });
        }
    });
    executor.wait_idle();
    assert_eq!(done.load(Ordering::SeqCst), 1_000);
    assert!(
        most.load(Ordering::SeqCst) <= 3,
        "more tasks ran than the limit"
    );
    let stats = executor.stats();
    assert!(stats.peak_threads <= 3, "{stats:?}");
    assert_eq!((stats.threads, stats.queued), (0, 0), "{stats:?}");
}

#[test]
fn executor_backlog_starts_in_launch_order() {
    let executor = JobExecutor::new("stress-fifo", 1, 1);
    let release = occupy(&executor, |_| ());
    let order = Arc::new(Mutex::new(Vec::new()));
    for i in 0..100 {
        let order = Arc::clone(&order);
        executor
            .launch(1.0, move |_| order.lock().expect("order").push(i))
            .expect("launch never fails once the slot is taken");
    }
    assert_eq!(executor.stats().queued, 100);
    drop(release);
    executor.wait_idle();
    assert_eq!(*order.lock().expect("order"), (0..100).collect::<Vec<_>>());
    assert_eq!(
        executor.stats().spawned,
        1,
        "one thread ran the whole backlog"
    );
}

#[test]
fn a_freed_node_runs_the_backlog_while_the_other_stays_busy() {
    let executor = JobExecutor::new("stress-nodes", 2, 1);
    let ran = Arc::new(Mutex::new(Vec::new()));
    let record = |i: usize| {
        let ran = Arc::clone(&ran);
        move |node: NodeId| ran.lock().expect("ran").push((i, node.index()))
    };
    // Tasks 0 and 1 take one node each; 2..6 wait in the backlog.
    let hold0 = occupy(&executor, record(0));
    let hold1 = occupy(&executor, record(1));
    for i in 2..6 {
        executor.launch(1.0, record(i)).expect("queued");
    }
    assert_eq!(executor.stats().queued, 4);
    // Node 1 frees its slot: its thread runs the whole backlog there, in
    // launch order, while node 0 stays held.
    drop(hold1);
    let waited = std::time::Instant::now();
    while ran.lock().expect("ran").len() < 6 {
        assert!(
            waited.elapsed() < Duration::from_secs(10),
            "the backlog did not run on the freed node"
        );
        std::thread::yield_now();
    }
    drop(hold0);
    executor.wait_idle();
    let ran = ran.lock().expect("ran").clone();
    assert_eq!(ran, vec![(0, 0), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1)]);
    let stats = executor.stats();
    assert_eq!((stats.peak_threads, stats.queued), (2, 0), "{stats:?}");
}

/// Reports its thread's exit: thread-local destructors run as a thread
/// exits.
struct ExitSignal(Sender<ThreadId>, ThreadId);

impl Drop for ExitSignal {
    fn drop(&mut self) {
        let _ = self.0.send(self.1);
    }
}

thread_local! {
    static EXIT_SIGNAL: RefCell<Option<ExitSignal>> = const { RefCell::new(None) };
}

/// A task that arms its thread's exit signal (once per thread).
fn arm_exit_signal(exits: &Sender<ThreadId>) -> impl FnOnce(NodeId) + Send + 'static {
    let exits = exits.clone();
    move |_| {
        EXIT_SIGNAL.with(|slot| {
            slot.borrow_mut()
                .get_or_insert_with(|| ExitSignal(exits, std::thread::current().id()));
        });
    }
}

fn exited_threads(exits: &Receiver<ThreadId>, n: usize) -> Vec<ThreadId> {
    (0..n)
        .map(|_| {
            exits
                .recv_timeout(Duration::from_secs(10))
                .expect("an executor thread did not exit after the backlog ran dry")
        })
        .collect()
}

#[test]
fn executor_threads_exit_once_the_backlog_is_empty() {
    let executor = JobExecutor::new("stress-exit", 1, 2);
    let (exits_tx, exits_rx) = channel();
    let releases = [
        occupy(&executor, arm_exit_signal(&exits_tx)),
        occupy(&executor, arm_exit_signal(&exits_tx)),
    ];
    for _ in 0..20 {
        executor
            .launch(1.0, arm_exit_signal(&exits_tx))
            .expect("queued");
    }
    assert_eq!(executor.stats().queued, 20);
    drop(releases);
    let exited = exited_threads(&exits_rx, 2);
    assert_ne!(exited[0], exited[1]);
    assert_eq!(executor.stats().threads, 0);

    // Idle, the executor holds no thread: the next task gets a new one.
    executor
        .launch(1.0, arm_exit_signal(&exits_tx))
        .expect("spawn");
    let fresh = exited_threads(&exits_rx, 1)[0];
    assert!(!exited.contains(&fresh));
    executor.wait_idle();
    assert_eq!(executor.stats().spawned, 3);
}

#[test]
fn a_panicking_task_neither_leaks_its_slot_nor_strands_the_backlog() {
    let executor = JobExecutor::new("stress-panic", 1, 1);
    let release = occupy(&executor, |_| ());
    let ran = Arc::new(AtomicUsize::new(0));
    for i in 0..10 {
        let ran = Arc::clone(&ran);
        executor
            .launch(1.0, move |_| {
                assert!(i % 3 != 0, "task {i} panics");
                ran.fetch_add(1, Ordering::SeqCst);
            })
            .expect("queued");
    }
    drop(release);
    executor.wait_idle();
    assert_eq!(
        ran.load(Ordering::SeqCst),
        6,
        "tasks behind a panic must run"
    );
    assert_eq!(executor.stats().threads, 0, "a panic leaked a slot");

    // The slot is free: a new task runs at once.
    let (done_tx, done_rx) = channel();
    executor
        .launch(1.0, move |_| done_tx.send(()).expect("test alive"))
        .expect("spawn");
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the executor still runs tasks after panics");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Results always return in task order regardless of weights/threads.
    #[test]
    fn pool_preserves_result_order(
        threads in 1usize..8,
        weights in prop::collection::vec(0.0f64..10.0, 1..40),
    ) {
        let pool = WorkerPool::new(threads);
        let tasks: Vec<(f64, _)> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| (w, move || i))
            .collect();
        let out = pool.run_batch(tasks);
        prop_assert_eq!(out, (0..weights.len()).collect::<Vec<_>>());
    }

    /// LPT order is a permutation sorted by descending weight.
    #[test]
    fn lpt_order_is_sorted_permutation(weights in prop::collection::vec(0.0f64..100.0, 0..50)) {
        let order = lpt_order(&weights);
        let mut seen = vec![false; weights.len()];
        for &i in &order {
            prop_assert!(!seen[i]);
            seen[i] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
        for w in order.windows(2) {
            prop_assert!(weights[w[0]] >= weights[w[1]]);
        }
    }

    /// The Graham bound: LPT makespan ≤ (4/3 − 1/(3m))·OPT ≤ (4/3)·LB…
    /// checked against the lower bound, and LPT never loses to the
    /// identity (FIFO) order by more than the bound either.
    #[test]
    fn lpt_respects_graham_bound(
        workers in 1usize..10,
        weights in prop::collection::vec(0.01f64..100.0, 1..60),
    ) {
        let lpt = lpt_makespan(&weights, workers);
        let lb = makespan_lower_bound(&weights, workers);
        prop_assert!(lpt >= lb - 1e-9, "makespan below lower bound");
        let bound = (4.0 / 3.0 - 1.0 / (3.0 * workers as f64)) * lb * (1.0 + 1e-9);
        // LB ≤ OPT, so LPT ≤ (4/3−1/3m)·OPT ≤ … may exceed (4/3−1/3m)·LB in
        // theory; Graham's bound is vs OPT. Use the safe 4/3·LB + max as an
        // envelope: makespan ≤ total/m + max.
        let total: f64 = weights.iter().sum();
        let max = weights.iter().copied().fold(0.0, f64::max);
        prop_assert!(lpt <= total / workers as f64 + max + 1e-9);
        let _ = bound;
    }

    /// Greedy list scheduling never idles a worker while tasks wait:
    /// makespan ≤ total/m + max for any order.
    #[test]
    fn list_scheduling_envelope(
        workers in 1usize..8,
        weights in prop::collection::vec(0.01f64..50.0, 1..40),
    ) {
        let order: Vec<usize> = (0..weights.len()).collect();
        let ms = list_schedule_makespan(&weights, &order, workers);
        let total: f64 = weights.iter().sum();
        let max = weights.iter().copied().fold(0.0, f64::max);
        prop_assert!(ms <= total / workers as f64 + max + 1e-9);
        prop_assert!(ms >= makespan_lower_bound(&weights, workers) - 1e-9);
    }

    /// broadcast_map returns every member's value in member order.
    #[test]
    fn team_broadcast_map_order(members in 1usize..6, base in 0usize..1000) {
        let team = SpinTeam::new(members);
        let out = team.broadcast_map(|id| base + id);
        prop_assert_eq!(out, (base..base + members).collect::<Vec<_>>());
    }
}
