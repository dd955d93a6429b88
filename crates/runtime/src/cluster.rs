//! Cluster topology and admission-control types for multi-node execution.
//!
//! Eq. (4) of the paper models a cluster of `s` machines with `t` threads
//! each. The sharded execution backend (in `pmcmc-parallel`) simulates
//! that cluster in-process: `s` node structs, each owning a private
//! [`WorkerPool`](crate::WorkerPool) of `t` workers. The *shape* of such a
//! cluster — [`ClusterTopology`] — and the per-node back-pressure
//! primitive — [`Admission`], a counting semaphore bounding how many jobs
//! a node accepts concurrently — live here so any backend (or test) can
//! reuse them without depending on the job layer, as does the one
//! placement ordering the cluster backends share
//! ([`least_committed_order`]).

use std::fmt;
use std::sync::{Condvar, Mutex, PoisonError};

/// Identifier of one node ("machine") in a simulated cluster; node ids are
/// dense indices `0..s`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The dense index of the node.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

/// The `s × t` shape of a simulated cluster (eq. (4)'s symbols): `s` nodes
/// with `t` worker threads each, plus the per-node admission bound that
/// back-pressures submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterTopology {
    nodes: usize,
    threads_per_node: usize,
    max_in_flight: usize,
}

impl ClusterTopology {
    /// A topology of `nodes` machines (`s`) with `threads_per_node`
    /// workers each (`t`), admitting at most 2 jobs per node by default
    /// (see [`ClusterTopology::max_in_flight`]).
    #[must_use]
    pub fn new(nodes: usize, threads_per_node: usize) -> Self {
        Self {
            nodes,
            threads_per_node,
            max_in_flight: 2,
        }
    }

    /// Sets the per-node admission bound: how many jobs one node will hold
    /// in flight (queued on a driver or running) before further
    /// submissions to it block.
    #[must_use]
    pub fn max_in_flight(mut self, max_in_flight: usize) -> Self {
        self.max_in_flight = max_in_flight;
        self
    }

    /// Number of nodes (`s`).
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Worker threads per node (`t`).
    #[must_use]
    pub fn threads_per_node(&self) -> usize {
        self.threads_per_node
    }

    /// Per-node admission bound.
    #[must_use]
    pub fn max_in_flight_per_node(&self) -> usize {
        self.max_in_flight
    }

    /// Total worker threads across the cluster (`s · t`).
    #[must_use]
    pub fn total_threads(&self) -> usize {
        self.nodes * self.threads_per_node
    }

    /// Checks the topology for degenerate shapes.
    ///
    /// # Errors
    /// A human-readable message when any dimension is zero.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("cluster must have at least 1 node".to_owned());
        }
        if self.threads_per_node == 0 {
            return Err("cluster nodes must have at least 1 worker thread".to_owned());
        }
        if self.max_in_flight == 0 {
            return Err("per-node admission bound must be at least 1".to_owned());
        }
        Ok(())
    }
}

impl fmt::Display for ClusterTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} cluster (≤{} in flight/node)",
            self.nodes, self.threads_per_node, self.max_in_flight
        )
    }
}

/// A counting semaphore bounding how many jobs a node holds in flight.
///
/// [`Admission::acquire`] blocks the submitting thread while the node is
/// saturated — this is the back-pressure that fixes the job layer's
/// documented "submission itself does not throttle" gap. Built on
/// `std::sync::{Mutex, Condvar}` (the `parking_lot` stub has no condvar).
#[derive(Debug)]
pub struct Admission {
    limit: usize,
    in_flight: Mutex<usize>,
    freed: Condvar,
}

impl Admission {
    /// A semaphore admitting at most `limit` concurrent holders.
    ///
    /// # Panics
    /// Panics when `limit` is zero (nothing could ever be admitted).
    #[must_use]
    pub fn new(limit: usize) -> Self {
        assert!(limit >= 1, "admission limit must be at least 1");
        Self {
            limit,
            in_flight: Mutex::new(0),
            freed: Condvar::new(),
        }
    }

    /// The admission bound.
    #[must_use]
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Holders currently admitted.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        *self
            .in_flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires one slot, blocking while the node is saturated.
    pub fn acquire(&self) {
        let mut n = self
            .in_flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while *n >= self.limit {
            n = self.freed.wait(n).unwrap_or_else(PoisonError::into_inner);
        }
        *n += 1;
    }

    /// Acquires one slot only if one is free right now.
    #[must_use]
    pub fn try_acquire(&self) -> bool {
        let mut n = self
            .in_flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if *n >= self.limit {
            return false;
        }
        *n += 1;
        true
    }

    /// Releases one slot, waking one blocked submitter.
    ///
    /// # Panics
    /// Panics on release without a matching acquire.
    pub fn release(&self) {
        let mut n = self
            .in_flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        assert!(*n > 0, "release without matching acquire");
        *n -= 1;
        drop(n);
        self.freed.notify_one();
    }
}

/// The placement preference of greedy list scheduling over cluster nodes:
/// `candidates` (node indices into `committed`, the weight already placed
/// on each node) ordered least-committed first, ties to the lower index.
/// Weights compare by `f64::total_cmp`, so the order is total — a NaN
/// weight sorts after every finite one instead of poisoning the sort.
/// Callers walk the order with their own admission and liveness rules.
///
/// # Panics
/// Panics if a candidate is not an index into `committed`.
#[must_use]
pub fn least_committed_order(
    committed: &[f64],
    candidates: impl IntoIterator<Item = usize>,
) -> Vec<usize> {
    let mut order: Vec<usize> = candidates.into_iter().collect();
    order.sort_by(|&a, &b| committed[a].total_cmp(&committed[b]).then(a.cmp(&b)));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn topology_accessors_and_validation() {
        let t = ClusterTopology::new(3, 4).max_in_flight(2);
        assert_eq!(t.nodes(), 3);
        assert_eq!(t.threads_per_node(), 4);
        assert_eq!(t.max_in_flight_per_node(), 2);
        assert_eq!(t.total_threads(), 12);
        assert!(t.validate().is_ok());
        assert!(ClusterTopology::new(0, 4).validate().is_err());
        assert!(ClusterTopology::new(2, 0).validate().is_err());
        assert!(ClusterTopology::new(2, 2)
            .max_in_flight(0)
            .validate()
            .is_err());
        assert_eq!(t.to_string(), "3x4 cluster (≤2 in flight/node)");
        assert_eq!(NodeId(5).to_string(), "node-5");
        assert_eq!(NodeId(5).index(), 5);
    }

    #[test]
    fn least_committed_order_is_total_and_stable() {
        // Ties break to the lower index, whatever order candidates come in.
        assert_eq!(
            least_committed_order(&[2.0, 1.0, 2.0, 1.0], [3, 2, 1, 0]),
            [1, 3, 0, 2]
        );
        // A NaN weight sorts last rather than comparing "equal" to all.
        assert_eq!(
            least_committed_order(&[f64::NAN, 5.0, 0.5], 0..3),
            [2, 1, 0]
        );
        // Only the candidates are ranked; none gives none.
        assert_eq!(least_committed_order(&[3.0, 1.0, 2.0], [2, 0]), [2, 0]);
        assert!(least_committed_order(&[1.0, 2.0], std::iter::empty()).is_empty());
    }

    #[test]
    fn admission_try_acquire_respects_limit() {
        let a = Admission::new(2);
        assert!(a.try_acquire());
        assert!(a.try_acquire());
        assert!(!a.try_acquire());
        assert_eq!(a.in_flight(), 2);
        a.release();
        assert!(a.try_acquire());
        assert_eq!(a.limit(), 2);
    }

    #[test]
    fn admission_acquire_blocks_until_release() {
        let a = Arc::new(Admission::new(1));
        a.acquire();
        let admitted = Arc::new(AtomicUsize::new(0));
        let (a2, adm2) = (Arc::clone(&a), Arc::clone(&admitted));
        let waiter = std::thread::spawn(move || {
            a2.acquire();
            adm2.store(1, Ordering::SeqCst);
            a2.release();
        });
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(
            admitted.load(Ordering::SeqCst),
            0,
            "acquire did not block on a saturated node"
        );
        a.release();
        waiter.join().expect("waiter thread");
        assert_eq!(admitted.load(Ordering::SeqCst), 1);
    }

    #[test]
    #[should_panic(expected = "release without matching acquire")]
    fn unbalanced_release_panics() {
        Admission::new(1).release();
    }
}
