//! Weighted task ordering and makespan prediction.
//!
//! §VI of the paper: partitions receive different iteration budgets, so
//! "the time taken to complete the assigned iterations will vary
//! considerably ... The processor dead-time that results can be reclaimed
//! through the use of a task scheduler, allowing more partitions than there
//! are available processors to be employed."
//!
//! With a shared work queue, submitting tasks in longest-processing-time
//! (LPT) order yields the classic Graham list-scheduling bound of
//! `(4/3 − 1/(3m))·OPT` on the makespan.

/// Returns task indices ordered by descending weight (LPT submission
/// order). Ties keep the original relative order (stable).
#[must_use]
pub fn lpt_order(weights: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..weights.len()).collect();
    idx.sort_by(|&a, &b| {
        weights[b]
            .partial_cmp(&weights[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    idx
}

/// Greedy LPT assignment of weighted tasks to `workers` bundles: tasks in
/// [`lpt_order`] each join the least-loaded bundle (the first such bundle
/// on ties). Returns the task indices of each bundle; with positive
/// weights and `workers ≤ tasks` no bundle is empty. For callers that pin
/// a bundle to a resource (a periodic-sampler replica) instead of letting
/// free workers pull from a shared queue.
#[must_use]
pub fn lpt_bundles(weights: &[f64], workers: usize) -> Vec<Vec<usize>> {
    assert!(workers >= 1, "need at least one worker");
    let mut bundles = vec![Vec::new(); workers];
    let mut loads = vec![0.0f64; workers];
    for i in lpt_order(weights) {
        let mut least = 0;
        for (b, &load) in loads.iter().enumerate() {
            if load < loads[least] {
                least = b;
            }
        }
        loads[least] += weights[i];
        bundles[least].push(i);
    }
    bundles
}

/// A machine's running load, ordered so a min-heap pops the least-loaded
/// machine — ties broken by the lowest worker index, matching the "first
/// minimum" the naive linear scan picks (so the two implementations make
/// identical placement decisions, float-for-float).
#[derive(PartialEq)]
struct Slot {
    load: f64,
    worker: usize,
}

impl Eq for Slot {}

impl PartialOrd for Slot {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Slot {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.load
            .total_cmp(&other.load)
            .then(self.worker.cmp(&other.worker))
    }
}

/// Simulates greedy list scheduling of `weights` (in the given order) onto
/// `workers` identical machines and returns the resulting makespan.
///
/// Runs in `O(n log m)` via a binary min-heap over machine loads; the
/// `O(n·m)` linear-scan reference survives as a test oracle and the two
/// are property-tested to agree exactly on random weight vectors.
#[must_use]
pub fn list_schedule_makespan(weights: &[f64], order: &[usize], workers: usize) -> f64 {
    assert!(workers >= 1, "need at least one worker");
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<Reverse<Slot>> = (0..workers)
        .map(|worker| Reverse(Slot { load: 0.0, worker }))
        .collect();
    for &i in order {
        // Next task goes to the least-loaded machine.
        let Reverse(Slot { load, worker }) = heap.pop().expect("workers >= 1");
        heap.push(Reverse(Slot {
            load: load + weights[i],
            worker,
        }));
    }
    heap.into_iter()
        .map(|Reverse(slot)| slot.load)
        .fold(0.0, f64::max)
}

/// The original `O(n·m)` linear-min-scan list scheduler: the oracle the
/// heap version is property-tested against.
#[cfg(test)]
fn list_schedule_makespan_naive(weights: &[f64], order: &[usize], workers: usize) -> f64 {
    assert!(workers >= 1, "need at least one worker");
    let mut loads = vec![0.0f64; workers];
    for &i in order {
        // Next task goes to the least-loaded machine.
        let (min_idx, _) = loads
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .expect("workers >= 1");
        loads[min_idx] += weights[i];
    }
    loads.iter().copied().fold(0.0, f64::max)
}

/// Predicted makespan of LPT scheduling `weights` onto `workers` machines.
#[must_use]
pub fn lpt_makespan(weights: &[f64], workers: usize) -> f64 {
    list_schedule_makespan(weights, &lpt_order(weights), workers)
}

/// A trivial lower bound on the optimal makespan:
/// `max(max weight, total / workers)`.
#[must_use]
pub fn makespan_lower_bound(weights: &[f64], workers: usize) -> f64 {
    assert!(workers >= 1, "need at least one worker");
    let total: f64 = weights.iter().sum();
    let max = weights.iter().copied().fold(0.0, f64::max);
    max.max(total / workers as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpt_order_descending() {
        let w = [1.0, 5.0, 3.0, 5.0];
        assert_eq!(lpt_order(&w), vec![1, 3, 2, 0]);
    }

    #[test]
    fn lpt_order_empty() {
        assert!(lpt_order(&[]).is_empty());
    }

    #[test]
    fn lpt_order_ties_are_stable() {
        // Equal weights keep their original relative order.
        let w = [2.0, 1.0, 2.0, 1.0, 2.0];
        assert_eq!(lpt_order(&w), vec![0, 2, 4, 1, 3]);
        let uniform = [3.5; 6];
        assert_eq!(lpt_order(&uniform), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn lpt_bundles_partition_the_tasks_and_match_the_predicted_makespan() {
        let w = [7.0, 7.0, 6.0, 6.0, 5.0, 4.0, 4.0, 4.0, 3.0];
        for m in 1..=5 {
            let bundles = lpt_bundles(&w, m);
            assert_eq!(bundles.len(), m);
            assert!(bundles.iter().all(|b| !b.is_empty()), "m={m}");
            let mut seen: Vec<usize> = bundles.iter().flatten().copied().collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..w.len()).collect::<Vec<_>>(), "m={m}");
            let heaviest = bundles
                .iter()
                .map(|b| b.iter().map(|&i| w[i]).sum::<f64>())
                .fold(0.0, f64::max);
            assert_eq!(heaviest, lpt_makespan(&w, m), "m={m}");
        }
        // Ties go to the first least-loaded bundle.
        assert_eq!(lpt_bundles(&[2.0, 2.0, 1.0], 2), vec![vec![0, 2], vec![1]]);
    }

    #[test]
    fn empty_weights_schedule_to_zero_makespan() {
        assert_eq!(lpt_makespan(&[], 4), 0.0);
        assert_eq!(list_schedule_makespan(&[], &[], 1), 0.0);
        assert_eq!(list_schedule_makespan_naive(&[], &[], 3), 0.0);
        // The lower bound of an empty task set is zero too.
        assert_eq!(makespan_lower_bound(&[], 2), 0.0);
    }

    #[test]
    fn single_worker_lpt_hits_the_exact_bound() {
        // With m = 1 the Graham bound degenerates to LPT = OPT = Σw.
        let w = [0.5, 9.0, 2.25, 4.0, 1.125];
        let total: f64 = w.iter().sum();
        assert_eq!(lpt_makespan(&w, 1), total);
        assert_eq!(makespan_lower_bound(&w, 1), total);
    }

    #[test]
    fn heap_and_naive_agree_on_known_inputs() {
        let w = [7.0, 7.0, 6.0, 6.0, 5.0, 4.0, 4.0, 4.0, 3.0];
        let order = lpt_order(&w);
        for m in 1..=5 {
            assert_eq!(
                list_schedule_makespan(&w, &order, m),
                list_schedule_makespan_naive(&w, &order, m),
                "m={m}"
            );
        }
    }

    #[test]
    fn single_worker_makespan_is_total() {
        let w = [2.0, 3.0, 4.0];
        assert!((lpt_makespan(&w, 1) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn classic_lpt_example() {
        // Weights 7,7,6,6,5,4,4,4,3 on 3 machines: LPT gives 16 (OPT 15.33 LB).
        let w = [7.0, 7.0, 6.0, 6.0, 5.0, 4.0, 4.0, 4.0, 3.0];
        let ms = lpt_makespan(&w, 3);
        assert!(ms <= 17.0, "LPT makespan {ms}");
        assert!(ms >= makespan_lower_bound(&w, 3));
    }

    #[test]
    fn lpt_beats_or_matches_fifo_here() {
        // Adversarial FIFO order: big task last forces imbalance.
        let w = [1.0, 1.0, 1.0, 9.0];
        let fifo = list_schedule_makespan(&w, &[0, 1, 2, 3], 2);
        let lpt = lpt_makespan(&w, 2);
        assert!(lpt <= fifo);
        assert!((lpt - 9.0).abs() < 1e-12);
    }

    #[test]
    fn lower_bound_dominated_by_largest_task() {
        let w = [10.0, 1.0, 1.0];
        assert!((makespan_lower_bound(&w, 4) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn graham_bound_holds_on_random_inputs() {
        // LPT ≤ (4/3 − 1/(3m))·OPT ≤ (4/3)·LB is implied; check vs LB.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64) / f64::from(u32::MAX) * 10.0 + 0.01
        };
        for m in 1..=8usize {
            let w: Vec<f64> = (0..23).map(|_| next()).collect();
            let ms = lpt_makespan(&w, m);
            let lb = makespan_lower_bound(&w, m);
            assert!(
                ms <= (4.0 / 3.0) * lb + 1e-9,
                "m={m}: LPT {ms} vs 4/3·LB {}",
                (4.0 / 3.0) * lb
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The heap-based list scheduler and the naive O(n·m) reference make
        /// identical placement decisions, so their makespans agree exactly —
        /// in both FIFO and LPT submission order.
        #[test]
        fn heap_and_naive_list_schedulers_agree(
            workers in 1usize..9,
            weights in proptest::collection::vec(0.01f64..10.0, 0..40),
        ) {
            let fifo: Vec<usize> = (0..weights.len()).collect();
            let lpt = lpt_order(&weights);
            for order in [&fifo, &lpt] {
                let heap = list_schedule_makespan(&weights, order, workers);
                let naive = list_schedule_makespan_naive(&weights, order, workers);
                proptest::prop_assert_eq!(
                    heap.to_bits(),
                    naive.to_bits(),
                    "heap {} vs naive {} (workers {})",
                    heap,
                    naive,
                    workers
                );
            }
        }
    }
}
