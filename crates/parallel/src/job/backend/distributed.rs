//! The socket-backed cluster backend: eq. (4)'s `s` nodes made real.
//!
//! Where [`ShardedBackend`](super::ShardedBackend) *simulates* the
//! `s × t` cluster with in-process pools, [`DistributedBackend`]
//! coordinates actual [`NodeDaemon`](crate::job::daemon::NodeDaemon)
//! processes over TCP using the versioned [`wire`](crate::job::wire)
//! format. Placement is the same — one [`SlotTable`] over the nodes (see
//! the [`backend`](super) docs) and LPT batch ordering — so eq. (4)'s cost
//! model carries over. On each `Result`, the node's reader thread ships
//! the backlog's head to that node before it builds the finished job's
//! report. What this backend adds is *failure awareness*:
//!
//! * every daemon streams heartbeats; a monitor thread retires any node
//!   silent for longer than [`DistributedConfig::heartbeat_timeout`];
//! * a retired node's in-flight jobs are offered to the survivors again
//!   (noted in the final report's diagnostics), so killing a daemon
//!   mid-batch loses no jobs;
//! * only when *no* node survives does a job fail, with
//!   [`RunError::Transport`] naming the outage; so do the jobs still
//!   waiting in the backlog, through their handles.

use super::{ExecutionBackend, PreparedJob};
use crate::engine::RunReport;
use crate::job::error::RunError;
use crate::job::runner::stamp_wait;
use crate::job::wire::{Assign, JobResult, WireReport};
use pmcmc_runtime::net::FrameConn;
use pmcmc_runtime::wire::{FrameKind, Heartbeat, Hello, Requeue, Wire, WireError, WIRE_VERSION};
use pmcmc_runtime::{lpt_order, ClusterTopology, NodeId, Offer, Placed, SlotTable, WorkerPool};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// Tunables of the distributed coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistributedConfig {
    /// Jobs a node runs at once (eq. (4)'s per-node bound; matches the
    /// daemons' capacity by default). Further jobs wait in the
    /// coordinator's backlog.
    pub max_in_flight: usize,
    /// How long a node may go without a heartbeat before the coordinator
    /// declares it dead and requeues its jobs.
    pub heartbeat_timeout: Duration,
    /// How long to retry the initial connection to each daemon
    /// (coordinator and daemons race at startup).
    pub connect_timeout: Duration,
}

impl Default for DistributedConfig {
    fn default() -> Self {
        Self {
            max_in_flight: 2,
            heartbeat_timeout: Duration::from_secs(2),
            connect_timeout: Duration::from_secs(5),
        }
    }
}

/// A job submitted to the coordinator: the wired-up job itself (its
/// blueprint is the payload to (re-)send, its completion resolves the
/// handle, and holding its event sink keeps the handle's event channel
/// connected — remote runs do not stream events back) plus the requeue
/// bookkeeping. The map entry's removal is the atomic "this job is
/// resolved" claim — a late duplicate `Result` (possible after a requeue
/// race) finds the entry gone and is dropped.
struct Pending {
    job: PreparedJob,
    /// The spec's original deadline, measured from submission; each
    /// (re-)shipment carries the remainder in the blueprint.
    deadline: Option<Duration>,
    notes: Vec<String>,
}

/// One connected daemon.
struct NodeLink {
    /// Coordinator-assigned index (`NodeId` space).
    index: usize,
    addr: SocketAddr,
    /// Writer half, shared by every thread that ships a job.
    writer: Mutex<FrameConn>,
    /// Control clone used to shut the socket down from the monitor,
    /// unblocking the reader thread parked in `recv`.
    control: FrameConn,
    alive: AtomicBool,
    last_heartbeat: Mutex<Instant>,
    /// Worker threads the daemon advertised in its `Hello`.
    workers: usize,
    /// Jobs shipped to this node, with the weight their slot is charged.
    /// Removing a job from this map is the atomic claim on its slot:
    /// exactly one of the completion, bounce, failed-send and death paths
    /// wins, so a slot is never given back twice.
    in_flight: Mutex<HashMap<u64, f64>>,
}

struct Shared {
    nodes: Vec<Arc<NodeLink>>,
    /// Placement over the nodes, holding the backlog's job ids; a retired
    /// node is retired here too.
    slots: SlotTable<u64>,
    pending: Mutex<HashMap<u64, Pending>>,
    cfg: DistributedConfig,
    shutting_down: AtomicBool,
}

/// [`ExecutionBackend`] that coordinates remote node daemons over TCP.
///
/// ```no_run
/// use pmcmc_parallel::job::{DistributedBackend, Engine};
///
/// let backend = DistributedBackend::connect(&["127.0.0.1:4301", "127.0.0.1:4302"]).unwrap();
/// let engine = Engine::with_backend(backend);
/// ```
pub struct DistributedBackend {
    shared: Arc<Shared>,
    local_pool: Arc<WorkerPool>,
    readers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    monitor: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl DistributedBackend {
    /// Connects to one daemon per address with the default
    /// [`DistributedConfig`].
    ///
    /// # Errors
    /// [`RunError::Transport`] when an address cannot be resolved or a
    /// daemon cannot be reached / handshaken within the connect timeout.
    pub fn connect<A: std::net::ToSocketAddrs>(addrs: &[A]) -> Result<Self, RunError> {
        Self::connect_with(addrs, DistributedConfig::default())
    }

    /// Connects with explicit tunables.
    ///
    /// # Errors
    /// As [`DistributedBackend::connect`], and [`RunError::InvalidSpec`]
    /// when `cfg.max_in_flight` is zero, before any daemon is dialled.
    pub fn connect_with<A: std::net::ToSocketAddrs>(
        addrs: &[A],
        cfg: DistributedConfig,
    ) -> Result<Self, RunError> {
        if addrs.is_empty() {
            return Err(RunError::Transport(
                "a distributed backend needs at least one node address".to_owned(),
            ));
        }
        (ClusterTopology::new(addrs.len(), 1).max_in_flight(cfg.max_in_flight))
            .validate()
            .map_err(RunError::InvalidSpec)?;
        let mut nodes = Vec::with_capacity(addrs.len());
        for (index, addr) in addrs.iter().enumerate() {
            let addr = addr
                .to_socket_addrs()
                .map_err(|e| RunError::Transport(format!("node {index}: bad address: {e}")))?
                .next()
                .ok_or_else(|| {
                    RunError::Transport(format!("node {index}: address resolved to nothing"))
                })?;
            nodes.push(Arc::new(handshake(index, addr, &cfg)?));
        }
        let shared = Arc::new(Shared {
            slots: SlotTable::new(nodes.len(), cfg.max_in_flight),
            nodes,
            pending: Mutex::new(HashMap::new()),
            cfg,
            shutting_down: AtomicBool::new(false),
        });

        let mut readers = Vec::with_capacity(shared.nodes.len());
        for node in &shared.nodes {
            let shared = Arc::clone(&shared);
            let node = Arc::clone(node);
            let mut reader = node.control.try_clone().map_err(|e| {
                RunError::Transport(format!("node {}: clone for reader failed: {e}", node.index))
            })?;
            readers.push(
                std::thread::Builder::new()
                    .name(format!("pmcmc-dist-reader{}", node.index))
                    .spawn(move || reader_loop(&shared, &node, &mut reader))
                    .map_err(|e| RunError::Transport(format!("reader spawn failed: {e}")))?,
            );
        }
        let monitor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("pmcmc-dist-monitor".to_owned())
                .spawn(move || monitor_loop(&shared))
                .map_err(|e| RunError::Transport(format!("monitor spawn failed: {e}")))?
        };

        Ok(Self {
            shared,
            local_pool: WorkerPool::shared(1),
            readers: Mutex::new(readers),
            monitor: Mutex::new(Some(monitor)),
        })
    }
}

/// Dials one daemon and exchanges `Hello`s.
fn handshake(
    index: usize,
    addr: SocketAddr,
    cfg: &DistributedConfig,
) -> Result<NodeLink, RunError> {
    let transport =
        |e: &dyn std::fmt::Display| RunError::Transport(format!("node {index} ({addr}): {e}"));
    let mut conn =
        FrameConn::connect_timeout(&addr, cfg.connect_timeout).map_err(|e| transport(&e))?;
    conn.send(
        FrameKind::Hello,
        &Hello {
            version: WIRE_VERSION,
            node: index as u64,
            workers: 0,
        }
        .to_wire_bytes(),
    )
    .map_err(|e| transport(&e))?;
    let reply = conn.recv().map_err(|e| transport(&e))?;
    if reply.kind != FrameKind::Hello {
        return Err(transport(&format!(
            "daemon opened with {:?} instead of Hello",
            reply.kind
        )));
    }
    let hello = Hello::from_wire_bytes(&reply.payload).map_err(|e| transport(&e))?;
    if hello.version != WIRE_VERSION {
        return Err(transport(&format!(
            "daemon speaks wire v{}, coordinator v{WIRE_VERSION}",
            hello.version
        )));
    }
    let control = conn.try_clone().map_err(|e| transport(&e))?;
    Ok(NodeLink {
        index,
        addr,
        writer: Mutex::new(conn),
        control,
        alive: AtomicBool::new(true),
        last_heartbeat: Mutex::new(Instant::now()),
        workers: (hello.workers.max(1)) as usize,
        in_flight: Mutex::new(HashMap::new()),
    })
}

/// Consumes every frame a daemon sends for its session, and retires the
/// node when the session breaks.
fn reader_loop(shared: &Arc<Shared>, node: &Arc<NodeLink>, reader: &mut FrameConn) {
    let why = loop {
        let Ok(frame) = reader.recv() else {
            break "connection lost";
        };
        match frame.kind {
            FrameKind::Heartbeat if Heartbeat::from_wire_bytes(&frame.payload).is_ok() => {
                *node.last_heartbeat.lock() = Instant::now();
            }
            FrameKind::Result => match JobResult::from_wire_bytes(&frame.payload) {
                Ok(result) => complete(shared, node, result.job, result.outcome),
                // A protocol breach; retiring the node requeues the job it
                // answered.
                Err(_) => break "sent an undecodable result",
            },
            // A daemon at capacity declined a job it never started, so
            // offering it again risks no duplicate run.
            FrameKind::Requeue => {
                if let Ok(declined) = Requeue::from_wire_bytes(&frame.payload) {
                    let why = format!("declined: {}", declined.reason);
                    requeue(shared, node, declined.job, &why);
                }
            }
            // A malformed heartbeat (the timeout decides), a Hello after the
            // handshake, or daemon-bound kinds echoed back: ignore.
            _ => {}
        }
    };
    retire(shared, node, why);
}

/// Watches heartbeats; shuts down the socket of any silent node, which
/// fails its reader's `recv` and funnels retirement through the single
/// [`retire`] path.
fn monitor_loop(shared: &Arc<Shared>) {
    let tick = Duration::from_millis(50);
    while !shared.shutting_down.load(Ordering::Acquire) {
        for node in &shared.nodes {
            if !node.alive.load(Ordering::Acquire) {
                continue;
            }
            let silent_for = node.last_heartbeat.lock().elapsed();
            if silent_for > shared.cfg.heartbeat_timeout {
                // The reader sees the failed recv and runs `retire`.
                let _ = node.control.shutdown();
            }
        }
        std::thread::sleep(tick);
    }
}

/// Why a job fails once no node is left to run it.
const NO_NODE_ALIVE: &str = "no cluster node is alive to run the job";

/// Resolves a pending job with [`RunError::Transport`].
fn fail(shared: &Shared, job: u64, why: &str) {
    let pending = shared.pending.lock().remove(&job);
    if let Some(p) = pending {
        p.job
            .completion
            .resolve(Err(RunError::Transport(why.to_owned())));
    }
}

/// Offers a pending job to the [`SlotTable`]: ships it when a node has a
/// free slot, leaves it in the backlog when every open node is full, and
/// fails it when no node is open.
fn offer(shared: &Shared, job: u64, weight: f64) {
    match shared.slots.offer(weight, job) {
        Offer::Start(placed) => ship(shared, placed),
        Offer::Queued => {}
        Offer::Closed(job) => fail(shared, job, NO_NODE_ALIVE),
    }
}

/// Ships a placed job to its node, and whatever each release on the way
/// hands back. A job resolved meanwhile, or cancelled while it waited,
/// is never shipped (a cancelled one resolves as
/// `Cancelled { completed_iterations: 0 }`) and gives its slot straight
/// back. The payload is encoded here, not at submission, so the backlog
/// holds job ids rather than encoded images.
fn ship(shared: &Shared, placed: Placed<u64>) {
    let mut next = Some(placed);
    while let Some(Placed { node, weight, job }) = next.take() {
        let mut pending = shared.pending.lock();
        let unshipped = match pending.get_mut(&job) {
            Some(p) if !p.job.cancel.is_cancelled() => {
                // Every (re-)shipment charges the whole wait since
                // submission against the spec's original deadline.
                p.job.work.remaining_deadline = p.deadline;
                stamp_wait(&mut p.job.work, p.job.submitted_at);
                let payload = Assign::payload(job, &p.job.work);
                drop(pending);
                send(shared, &shared.nodes[node.index()], job, weight, &payload);
                continue;
            }
            _ => pending.remove(&job),
        };
        drop(pending);
        if let Some(p) = unshipped {
            p.job.completion.resolve(Err(RunError::Cancelled {
                completed_iterations: 0,
            }));
        }
        next = shared.slots.release(node, weight);
    }
}

/// Sends one encoded `Assign` to `link`. A failed send retires the node,
/// which offers its in-flight jobs again, this one included.
fn send(shared: &Shared, link: &NodeLink, job: u64, weight: f64, payload: &[u8]) {
    link.in_flight.lock().insert(job, weight);
    if link.writer.lock().send(FrameKind::Assign, payload).is_err() {
        retire(shared, link, "send failed");
        // A retirement that had already drained the node missed this job.
        requeue(shared, link, job, "send failed");
    }
}

/// Claims `job`'s slot on `link`, gives it back (starting whatever takes
/// it) and offers the job again, noting why in its report. A job another
/// path has already claimed is left alone.
fn requeue(shared: &Shared, link: &NodeLink, job: u64, why: &str) {
    let Some(weight) = link.in_flight.lock().remove(&job) else {
        return;
    };
    if let Some(p) = shared.pending.lock().get_mut(&job) {
        let note = format!("node-{} ({}) {why}; requeued", link.index, link.addr);
        p.notes.push(note);
    }
    if let Some(next) = shared.slots.release(NodeId(link.index), weight) {
        ship(shared, next);
    }
    offer(shared, job, weight);
}

/// Declares a node dead (idempotently) and retires it from placement. Its
/// in-flight jobs are offered to the survivors again, or failed with
/// [`RunError::Transport`] when no node survives; so is the backlog once
/// the last node is gone. While the coordinator shuts down, its `Drop`
/// fails whatever is left instead.
fn retire(shared: &Shared, link: &NodeLink, why: &str) {
    if link
        .alive
        .compare_exchange(true, false, Ordering::AcqRel, Ordering::Acquire)
        .is_err()
    {
        return;
    }
    let _ = link.control.shutdown();
    // Retired before its slots are given back, so none of them starts a
    // job on it.
    for job in shared.slots.retire(NodeId(link.index)) {
        fail(shared, job, NO_NODE_ALIVE);
    }
    if shared.shutting_down.load(Ordering::Acquire) {
        return;
    }
    let orphans: Vec<u64> = link.in_flight.lock().keys().copied().collect();
    for job in orphans {
        requeue(shared, link, job, &format!("{why} mid-run"));
    }
}

/// Terminal path for a `Result` frame. It frees the node's slot and ships
/// the job that takes it first, and only then builds this job's report
/// and resolves its handle, so the next job's run overlaps the build.
/// Duplicate results (after a requeue race) find the pending entry gone
/// and are dropped.
fn complete(shared: &Shared, link: &NodeLink, job: u64, outcome: Result<WireReport, RunError>) {
    let weight = link.in_flight.lock().remove(&job);
    if let Some(next) = weight.and_then(|w| shared.slots.release(NodeId(link.index), w)) {
        ship(shared, next);
    }
    let pending = shared.pending.lock().remove(&job);
    let Some(p) = pending else {
        return;
    };
    let result: Result<RunReport, RunError> = outcome.map(|wire| {
        let mut report = wire.into_report(&p.job.work.image, &p.job.work.params);
        report.diagnostics.notes.extend(p.notes.iter().cloned());
        report
    });
    p.job.completion.resolve(result);
}

impl ExecutionBackend for DistributedBackend {
    fn name(&self) -> &'static str {
        "distributed"
    }

    fn topology(&self) -> ClusterTopology {
        let workers = self.shared.nodes.first().map_or(1, |n| n.workers);
        ClusterTopology::new(self.shared.nodes.len(), workers)
            .max_in_flight(self.shared.cfg.max_in_flight)
    }

    fn primary_pool(&self) -> &Arc<WorkerPool> {
        // Jobs run on the daemons' pools; this pool only serves direct
        // `Engine::pool` callers on the coordinator side.
        &self.local_pool
    }

    fn launch(&self, job: PreparedJob) -> Result<(), RunError> {
        let (id, weight) = (job.id.0, job.weight());
        let pending = Pending {
            deadline: job.work.remaining_deadline,
            job,
            notes: Vec::new(),
        };
        self.shared.pending.lock().insert(id, pending);
        offer(&self.shared, id, weight);
        Ok(())
    }

    fn batch_order(&self, weights: &[f64]) -> Vec<usize> {
        lpt_order(weights)
    }
}

impl Drop for DistributedBackend {
    fn drop(&mut self) {
        self.shared.shutting_down.store(true, Ordering::Release);
        for node in &self.shared.nodes {
            if node.alive.load(Ordering::Acquire) {
                let _ = node.writer.lock().send(FrameKind::Shutdown, &[]);
            }
            let _ = node.control.shutdown();
        }
        for reader in self.readers.lock().drain(..) {
            let _ = reader.join();
        }
        if let Some(monitor) = self.monitor.lock().take() {
            let _ = monitor.join();
        }
        // Anything still pending (jobs the daemons never answered, or the
        // backlog) must not leave a handle waiting forever.
        let leftovers: Vec<Pending> = {
            let mut pending = self.shared.pending.lock();
            pending.drain().map(|(_, p)| p).collect()
        };
        for p in leftovers {
            p.job.completion.resolve(Err(RunError::Transport(
                "coordinator shut down before the job finished".to_owned(),
            )));
        }
    }
}

/// Returns [`WireError`] as a transport [`RunError`] — shared by the
/// daemon binary and tests.
impl From<WireError> for RunError {
    fn from(e: WireError) -> Self {
        RunError::Transport(e.to_string())
    }
}
