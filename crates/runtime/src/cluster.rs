//! Cluster topology and job placement for multi-node execution.
//!
//! Eq. (4) of the paper models a cluster of `s` machines with `t` threads
//! each. The sharded execution backend (in `pmcmc-parallel`) simulates
//! that cluster in-process and the distributed backend drives real node
//! daemons. The *shape* of such a cluster — [`ClusterTopology`] — and the
//! one placement queue every backend shares — [`SlotTable`]: a bounded
//! number of jobs running per node, each job started on the least-committed
//! node with a free slot or queued until a slot frees — live here so any
//! backend (or test) can reuse them without depending on the job layer.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};

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
/// with `t` worker threads each, plus how many jobs a node runs at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterTopology {
    nodes: usize,
    threads_per_node: usize,
    max_in_flight: usize,
}

impl ClusterTopology {
    /// A topology of `nodes` machines (`s`) with `threads_per_node`
    /// workers each (`t`), running at most 2 jobs per node by default
    /// (see [`ClusterTopology::max_in_flight`]).
    #[must_use]
    pub fn new(nodes: usize, threads_per_node: usize) -> Self {
        Self {
            nodes,
            threads_per_node,
            max_in_flight: 2,
        }
    }

    /// Sets how many jobs one node runs at once. Jobs submitted while
    /// every node runs that many wait in the cluster's backlog; submission
    /// itself never waits. A job runs on one of its node's `t` workers, so
    /// an in-process node runs at most `min(max_in_flight, t)` jobs at
    /// once.
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

    /// How many jobs one node runs at once.
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
            return Err("a node must run at least 1 job at once".to_owned());
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

/// The placement queue of a cluster: each node's load (jobs running,
/// committed weight, retired flag) and one FIFO backlog, under one lock.
/// Nothing in it blocks.
///
/// [`SlotTable::offer`] starts a job on the least-committed open node with
/// a free slot (weights compare by `f64::total_cmp`, ties go to the lower
/// index) or, when every open node is full, appends it to the backlog.
/// [`SlotTable::release`] gives a slot back and, when the backlog is not
/// empty, charges its head to the freed node at once, so whoever frees a
/// slot starts the next waiting job there. [`SlotTable::retire`] closes a
/// node. A node's committed weight is the weight of the jobs it runs.
///
/// Invariant: a non-empty backlog means every open node is full. A job is
/// queued only when no open node has a free slot, and a slot freed on an
/// open node goes to the backlog's head before anything else can see it.
#[derive(Debug)]
pub struct SlotTable<T> {
    limit: usize,
    state: Mutex<Queue<T>>,
}

#[derive(Debug)]
struct Queue<T> {
    nodes: Vec<NodeLoad>,
    backlog: VecDeque<(f64, T)>,
}

#[derive(Debug, Clone, Copy, Default)]
struct NodeLoad {
    in_flight: usize,
    committed: f64,
    retired: bool,
}

/// A job started on a node. Whoever runs it gives the slot back with
/// [`SlotTable::release`]`(node, weight)` once it is done.
#[derive(Debug)]
pub struct Placed<T> {
    /// The node the job holds a slot on.
    pub node: NodeId,
    /// The weight charged to that node.
    pub weight: f64,
    /// The job itself.
    pub job: T,
}

/// What [`SlotTable::offer`] did with a job.
#[derive(Debug)]
pub enum Offer<T> {
    /// A slot was free: the caller starts the job on `node` now.
    Start(Placed<T>),
    /// Every open node is full: the job waits in the backlog, and the next
    /// [`SlotTable::release`] on an open node hands it out.
    Queued,
    /// No node is open: the job is handed back to be failed.
    Closed(T),
}

impl<T> SlotTable<T> {
    /// A table of `nodes` nodes with `limit` slots each.
    ///
    /// # Panics
    /// Panics when `limit` is zero (nothing could ever start).
    #[must_use]
    pub fn new(nodes: usize, limit: usize) -> Self {
        assert!(limit >= 1, "a node must run at least 1 job at once");
        Self {
            limit,
            state: Mutex::new(Queue {
                nodes: vec![NodeLoad::default(); nodes],
                backlog: VecDeque::new(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Queue<T>> {
        // Nothing runs under the lock, so a poisoned lock still holds a
        // consistent state.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Starts `job` on the least-committed open node with a free slot and
    /// charges `weight` to it, or queues it behind the jobs already
    /// waiting. Never blocks.
    pub fn offer(&self, weight: f64, job: T) -> Offer<T> {
        let mut queue = self.lock();
        let free = (queue.nodes.iter().enumerate())
            .filter(|(_, n)| !n.retired && n.in_flight < self.limit)
            .min_by(|(_, a), (_, b)| a.committed.total_cmp(&b.committed))
            .map(|(node, _)| node);
        match free {
            Some(node) => Offer::Start(queue.charge(node, weight, job)),
            None if queue.nodes.iter().all(|n| n.retired) => Offer::Closed(job),
            None => {
                queue.backlog.push_back((weight, job));
                Offer::Queued
            }
        }
    }

    /// Gives back the slot a job of `weight` held on `node`. When `node` is
    /// open and the backlog is not empty, its head takes the slot at once
    /// and is returned for the caller to start on `node`.
    pub fn release(&self, node: NodeId, weight: f64) -> Option<Placed<T>> {
        let mut queue = self.lock();
        let load = &mut queue.nodes[node.0];
        load.in_flight -= 1;
        load.committed = (load.committed - weight).max(0.0);
        if load.retired {
            return None;
        }
        let (weight, job) = queue.backlog.pop_front()?;
        Some(queue.charge(node.0, weight, job))
    }

    /// Starts nothing more on `node`; the slots its jobs hold are still
    /// given back with [`SlotTable::release`]. Once no node is open the
    /// backlog can never start, so it is returned for its jobs to be
    /// failed.
    pub fn retire(&self, node: NodeId) -> Vec<T> {
        let mut queue = self.lock();
        queue.nodes[node.0].retired = true;
        if queue.nodes.iter().all(|n| n.retired) {
            queue.backlog.drain(..).map(|(_, job)| job).collect()
        } else {
            Vec::new()
        }
    }

    /// Jobs waiting in the backlog.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.lock().backlog.len()
    }
}

impl<T> Queue<T> {
    fn charge(&mut self, node: usize, weight: f64, job: T) -> Placed<T> {
        self.nodes[node].in_flight += 1;
        self.nodes[node].committed += weight;
        Placed {
            node: NodeId(node),
            weight,
            job,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Offers one job per weight, numbered from 0, and returns the node
    /// each started on.
    fn start_all(table: &SlotTable<usize>, weights: &[f64]) -> Vec<usize> {
        (weights.iter().enumerate())
            .map(|(job, &w)| match table.offer(w, job) {
                Offer::Start(placed) => {
                    assert_eq!(placed.job, job);
                    placed.node.index()
                }
                other => panic!("job {job} did not start: {other:?}"),
            })
            .collect()
    }

    /// The backlog invariant: a non-empty backlog means every open node is
    /// full.
    fn assert_invariant<T>(table: &SlotTable<T>) {
        let queue = table.lock();
        if !queue.backlog.is_empty() {
            for (i, load) in queue.nodes.iter().enumerate() {
                assert!(
                    load.retired || load.in_flight == table.limit,
                    "node {i} has a free slot while {} jobs wait",
                    queue.backlog.len()
                );
            }
        }
    }

    #[test]
    fn placement_is_least_committed_first_with_ties_to_the_lower_index() {
        let table = SlotTable::new(3, 2);
        assert_eq!(start_all(&table, &[2.0, 1.0, 1.0]), vec![0, 1, 2]);
        // Node 1 and node 2 tie at 1.0; the lower index wins.
        assert_eq!(start_all(&table, &[5.0]), vec![1]);
        assert_eq!(table.lock().nodes[1].committed, 6.0);
        // A full node is skipped however little it holds.
        assert_eq!(start_all(&table, &[0.0]), vec![2]);
        assert_eq!(table.lock().nodes[2].in_flight, 2);
        // Releasing a slot gives its weight back with it.
        assert!(table.release(NodeId(1), 5.0).is_none());
        let load = table.lock().nodes[1];
        assert_eq!((load.in_flight, load.committed), (1, 1.0));
        // A NaN weight sorts after every finite one.
        let table = SlotTable::new(2, 2);
        assert_eq!(start_all(&table, &[f64::NAN, 0.0, 0.0]), vec![0, 1, 1]);
    }

    #[test]
    fn a_full_cluster_queues_and_a_release_hands_the_head_to_the_freeing_node() {
        let table = SlotTable::new(2, 1);
        assert_eq!(start_all(&table, &[1.0, 1.0]), vec![0, 1]);
        for job in 2..5 {
            assert!(matches!(table.offer(job as f64, job), Offer::Queued));
            assert_invariant(&table);
        }
        assert_eq!(table.queued(), 3);
        // Node 1 frees first: the head goes there, whatever node 0 holds.
        let next = table.release(NodeId(1), 1.0).expect("the head starts");
        assert_eq!((next.node, next.weight, next.job), (NodeId(1), 2.0, 2));
        assert_invariant(&table);
        let next = table.release(NodeId(0), 1.0).expect("the head starts");
        assert_eq!((next.node, next.job), (NodeId(0), 3));
        assert_eq!(table.lock().nodes[0].committed, 3.0);
        let next = table.release(NodeId(0), 3.0).expect("the head starts");
        assert_eq!((next.node, next.job), (NodeId(0), 4));
        // The backlog is empty: a release only frees the slot.
        assert!(table.release(NodeId(1), 2.0).is_none());
        assert_eq!(start_all(&table, &[0.0]), vec![1]);
    }

    #[test]
    fn a_retired_node_starts_nothing_and_the_last_retirement_returns_the_backlog() {
        let table = SlotTable::new(2, 1);
        assert_eq!(start_all(&table, &[1.0, 1.0]), vec![0, 1]);
        assert!(matches!(table.offer(1.0, 2), Offer::Queued));
        assert!(matches!(table.offer(1.0, 3), Offer::Queued));
        // Node 0 retires with node 1 open: the backlog stays, and a slot
        // the retired node gives back starts nothing.
        assert!(table.retire(NodeId(0)).is_empty());
        assert!(table.release(NodeId(0), 1.0).is_none());
        assert_eq!(table.queued(), 2);
        assert_invariant(&table);
        // Node 1 still takes the head when it frees a slot.
        let next = table.release(NodeId(1), 1.0).expect("the head starts");
        assert_eq!((next.node, next.job), (NodeId(1), 2));
        // Retiring the last open node hands back what waits.
        assert_eq!(table.retire(NodeId(1)), vec![3]);
        assert!(table.release(NodeId(1), 1.0).is_none());
        assert!(table.lock().nodes.iter().all(|load| load.in_flight == 0));
        assert!(matches!(table.offer(0.0, 4), Offer::Closed(4)));
    }

    #[test]
    fn concurrent_offers_and_releases_lose_no_job() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        // Four threads offer 200 jobs each onto 3 × 2 slots and run what
        // they start, plus whatever each release hands back; every job must
        // run exactly once.
        let table = Arc::new(SlotTable::new(3, 2));
        let ran: Arc<Vec<AtomicUsize>> = Arc::new((0..800).map(|_| AtomicUsize::new(0)).collect());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let (table, ran) = (Arc::clone(&table), Arc::clone(&ran));
                std::thread::spawn(move || {
                    for job in (t * 200)..(t * 200 + 200) {
                        let Offer::Start(mut placed) = table.offer(1.0, job) else {
                            continue;
                        };
                        loop {
                            ran[placed.job].fetch_add(1, Ordering::SeqCst);
                            std::thread::yield_now();
                            match table.release(placed.node, placed.weight) {
                                Some(next) => placed = next,
                                None => break,
                            }
                        }
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().expect("worker thread");
        }
        assert_eq!(table.queued(), 0);
        assert!(ran.iter().all(|n| n.load(Ordering::SeqCst) == 1));
        assert!(table.lock().nodes.iter().all(|load| load.in_flight == 0));
    }
}
