//! Stress and property tests for the execution substrate.

use pmcmc_runtime::{
    list_schedule_makespan, lpt_makespan, lpt_order, makespan_lower_bound, SpinTeam, WorkerPool,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

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
