//! Cluster topology and admission for multi-node execution.
//!
//! Eq. (4) of the paper models a cluster of `s` machines with `t` threads
//! each. The sharded execution backend (in `pmcmc-parallel`) simulates
//! that cluster in-process and the distributed backend drives real node
//! daemons. The *shape* of such a cluster — [`ClusterTopology`] — and the
//! one admission and placement rule both backends share — [`SlotTable`]:
//! a bounded number of jobs in flight per node, each job placed on the
//! least-committed node with a free slot — live here so any backend (or
//! test) can reuse them without depending on the job layer.

use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

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

/// Cluster-wide admission: each node's in-flight slot count and committed
/// weight under one lock, and one condvar that a slot freed on *any* node
/// (or a node retired) signals.
///
/// Both cluster backends place jobs through it. [`SlotTable::acquire`]
/// takes the least-committed open node with a free slot and, while every
/// open node is full, waits for the next slot freed anywhere, so a node
/// that finishes first gets the next job. [`SlotTable::acquire_on`] is
/// the targeted acquire of a split job's stripes. A node's committed
/// weight is the weight of the jobs it holds in flight: a [`Slot`] gives
/// its weight back with its slot when it drops.
#[derive(Debug)]
pub struct SlotTable {
    limit: usize,
    nodes: Mutex<Vec<NodeLoad>>,
    changed: Condvar,
}

#[derive(Debug, Clone, Copy, Default)]
struct NodeLoad {
    in_flight: usize,
    committed: f64,
    retired: bool,
}

impl SlotTable {
    /// A table of `nodes` nodes with `limit` slots each.
    ///
    /// # Panics
    /// Panics when `limit` is zero (nothing could ever be admitted).
    #[must_use]
    pub fn new(nodes: usize, limit: usize) -> Arc<Self> {
        assert!(limit >= 1, "admission limit must be at least 1");
        Arc::new(Self {
            limit,
            nodes: Mutex::new(vec![NodeLoad::default(); nodes]),
            changed: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Vec<NodeLoad>> {
        self.nodes.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, nodes: MutexGuard<'a, Vec<NodeLoad>>) -> MutexGuard<'a, Vec<NodeLoad>> {
        self.changed
            .wait(nodes)
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn take(self: &Arc<Self>, nodes: &mut [NodeLoad], node: usize, weight: f64) -> Slot {
        nodes[node].in_flight += 1;
        nodes[node].committed += weight;
        Slot {
            table: Arc::clone(self),
            node,
            weight,
        }
    }

    /// Takes a slot on the least-committed open node that has one free
    /// (weights compare by `f64::total_cmp`, ties go to the lower index)
    /// and charges `weight` to it. While every open node is full it waits
    /// for the next slot freed on any node.
    ///
    /// Returns `None` once every node is retired.
    pub fn acquire(self: &Arc<Self>, weight: f64) -> Option<Slot> {
        let mut nodes = self.lock();
        loop {
            let free = (nodes.iter().enumerate())
                .filter(|(_, n)| !n.retired && n.in_flight < self.limit)
                .min_by(|(_, a), (_, b)| a.committed.total_cmp(&b.committed));
            if let Some((node, _)) = free {
                return Some(self.take(&mut nodes, node, weight));
            }
            if nodes.iter().all(|n| n.retired) {
                return None;
            }
            nodes = self.wait(nodes);
        }
    }

    /// Takes a slot on `node` and charges `weight` to it, waiting while
    /// the node is full. Callers that acquire on several nodes do so in
    /// node order, so two of them cannot hold-and-wait in a cycle.
    pub fn acquire_on(self: &Arc<Self>, node: usize, weight: f64) -> Slot {
        let mut nodes = self.lock();
        while nodes[node].in_flight >= self.limit {
            nodes = self.wait(nodes);
        }
        self.take(&mut nodes, node, weight)
    }

    /// Places no further job on `node` and wakes every waiter, so one that
    /// was waiting for a slot sees the change. The slots its jobs hold are
    /// still given back when they drop.
    pub fn retire(&self, node: usize) {
        self.lock()[node].retired = true;
        self.changed.notify_all();
    }
}

/// One admitted job's hold on a node of a [`SlotTable`]: a slot and the
/// job's weight, both given back when it drops.
#[derive(Debug)]
pub struct Slot {
    table: Arc<SlotTable>,
    node: usize,
    weight: f64,
}

impl Slot {
    /// The node the slot is on.
    #[must_use]
    pub fn node(&self) -> usize {
        self.node
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        let mut nodes = self.table.lock();
        let load = &mut nodes[self.node];
        load.in_flight -= 1;
        load.committed = (load.committed - self.weight).max(0.0);
        drop(nodes);
        self.table.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn topology_accessors_and_validation() {
        let t = ClusterTopology::new(3, 4).max_in_flight(2);
        assert_eq!(t.nodes(), 3);
        assert_eq!(t.threads_per_node(), 4);
        assert_eq!(t.max_in_flight_per_node(), 2);
        assert_eq!(t.nodes() * t.threads_per_node(), 12);
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
    fn placement_is_least_committed_first_with_ties_to_the_lower_index() {
        let table = SlotTable::new(3, 2);
        let a = table.acquire(2.0).unwrap();
        let b = table.acquire(1.0).unwrap();
        let c = table.acquire(1.0).unwrap();
        assert_eq!((a.node(), b.node(), c.node()), (0, 1, 2));
        // Node 1 and node 2 tie at 1.0; the lower index wins.
        let d = table.acquire(5.0).unwrap();
        assert_eq!(d.node(), 1);
        assert_eq!(table.lock()[1].committed, 6.0);
        // A full node is skipped however little it holds.
        let e = table.acquire(0.0).unwrap();
        assert_eq!(e.node(), 2);
        assert_eq!(table.lock()[2].in_flight, 2);
        // Dropping a slot gives its weight back with it.
        drop(d);
        let load = table.lock()[1];
        assert_eq!((load.in_flight, load.committed), (1, 1.0));
        // A NaN weight sorts after every finite one.
        drop((a, b, c, e));
        let nan = table.acquire(f64::NAN).unwrap();
        assert_eq!(nan.node(), 0);
        assert_eq!(table.acquire(0.0).unwrap().node(), 1);
    }

    #[test]
    fn a_full_cluster_admits_on_whichever_node_frees_a_slot_first() {
        let table = SlotTable::new(2, 1);
        let light = table.acquire(1.0).unwrap();
        let heavy = table.acquire(1.0).unwrap();
        assert_eq!((light.node(), heavy.node()), (0, 1));
        let placed = Arc::new(AtomicUsize::new(usize::MAX));
        let waiter = {
            let (table, placed) = (Arc::clone(&table), Arc::clone(&placed));
            std::thread::spawn(move || {
                let slot = table.acquire(1.0).unwrap();
                placed.store(slot.node(), Ordering::SeqCst);
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(
            placed.load(Ordering::SeqCst),
            usize::MAX,
            "acquire did not wait on a full cluster"
        );
        // Node 1 frees first: the waiter goes there, not to node 0.
        drop(heavy);
        waiter.join().expect("waiter thread");
        assert_eq!(placed.load(Ordering::SeqCst), 1);
        assert_eq!(light.node(), 0);
    }

    #[test]
    fn a_targeted_acquire_waits_for_its_own_node() {
        let table = SlotTable::new(2, 1);
        let held = table.acquire_on(1, 1.0);
        let other = table.acquire_on(0, 1.0);
        let waiter = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || table.acquire_on(1, 1.0).node())
        };
        // A slot freed on node 0 does not satisfy it.
        drop(other);
        std::thread::sleep(Duration::from_millis(30));
        assert!(!waiter.is_finished(), "acquire_on took another node's slot");
        drop(held);
        assert_eq!(waiter.join().expect("waiter thread"), 1);
    }

    #[test]
    fn retiring_every_node_ends_a_wait() {
        let table = SlotTable::new(2, 1);
        let slots = [table.acquire(1.0).unwrap(), table.acquire(1.0).unwrap()];
        let waiter = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || table.acquire(1.0).map(|s| s.node()))
        };
        // Retiring one node leaves the waiter waiting for the other.
        table.retire(0);
        std::thread::sleep(Duration::from_millis(30));
        assert!(!waiter.is_finished());
        table.retire(1);
        assert_eq!(waiter.join().expect("waiter thread"), None);
        // A retired node's slots are still given back.
        drop(slots);
        assert!(table.lock().iter().all(|load| load.in_flight == 0));
        assert!(table.acquire(0.0).is_none());
    }
}
