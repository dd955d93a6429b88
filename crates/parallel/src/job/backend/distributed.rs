//! The socket-backed cluster backend: eq. (4)'s `s` nodes made real.
//!
//! Where [`ShardedBackend`](super::ShardedBackend) *simulates* the
//! `s × t` cluster with in-process pools, [`DistributedBackend`]
//! coordinates actual [`NodeDaemon`](crate::job::daemon::NodeDaemon)
//! processes over TCP using the versioned [`wire`](crate::job::wire)
//! format. Admission and placement are the same — one [`SlotTable`] over
//! the alive nodes (bounded per-node admission, least-committed first, a
//! job that finds every node full goes to whichever frees a slot first)
//! and LPT batch ordering — so eq. (4)'s cost model carries over. What
//! this backend adds is *failure awareness*:
//!
//! * every daemon streams heartbeats; a monitor thread retires any node
//!   silent for longer than [`DistributedConfig::heartbeat_timeout`];
//! * a retired node's in-flight jobs are requeued onto the survivors
//!   (noted in the final report's diagnostics), so killing a daemon
//!   mid-batch loses no jobs;
//! * only when *no* node survives does a job fail, with
//!   [`RunError::Transport`] naming the outage.

use super::{ExecutionBackend, PreparedJob};
use crate::engine::RunReport;
use crate::job::error::RunError;
use crate::job::runner::stamp_wait;
use crate::job::wire::{Assign, JobResult, WireReport};
use pmcmc_runtime::net::FrameConn;
use pmcmc_runtime::wire::{FrameKind, Heartbeat, Hello, Requeue, Wire, WireError, WIRE_VERSION};
use pmcmc_runtime::{lpt_order, ClusterTopology, Slot, SlotTable, WorkerPool};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// Tunables of the distributed coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistributedConfig {
    /// Jobs admitted per node before placement blocks (eq. (4)'s bounded
    /// per-node queue; matches the daemons' capacity by default).
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

/// A job in flight on a remote node: the wired-up job itself (its
/// blueprint is the payload to (re-)send, its completion resolves the
/// handle, and holding its event sink keeps the handle's event channel
/// connected — remote runs do not stream events back) plus the requeue
/// bookkeeping. The map entry's removal is the atomic "this job is
/// resolved" claim — a late duplicate `Result` (possible after a requeue
/// race) finds the entry gone and is dropped.
struct Pending {
    job: PreparedJob,
    /// The spec's original deadline, measured from submission; each
    /// (re-)dispatch ships the remainder in the blueprint.
    deadline: Option<Duration>,
    notes: Vec<String>,
}

/// One connected daemon.
struct NodeLink {
    /// Coordinator-assigned index (`NodeId` space).
    index: usize,
    addr: SocketAddr,
    /// Writer half, shared by the dispatcher and the monitor.
    writer: Mutex<FrameConn>,
    /// Control clone used to shut the socket down from the monitor,
    /// unblocking the reader thread parked in `recv`.
    control: FrameConn,
    alive: AtomicBool,
    last_heartbeat: Mutex<Instant>,
    /// Worker threads the daemon advertised in its `Hello`.
    workers: usize,
    /// Jobs currently assigned to this node, with their admission slots.
    /// Removing a job from this map is the atomic claim on its slot (which
    /// drops with the entry): exactly one of the completion path and the
    /// death path wins, so a slot is never given back twice.
    in_flight: Mutex<HashMap<u64, Slot>>,
}

struct Shared {
    nodes: Vec<Arc<NodeLink>>,
    /// Admission and placement over the nodes; a retired node is retired
    /// here too.
    slots: Arc<SlotTable>,
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
    /// As [`DistributedBackend::connect`].
    pub fn connect_with<A: std::net::ToSocketAddrs>(
        addrs: &[A],
        cfg: DistributedConfig,
    ) -> Result<Self, RunError> {
        if addrs.is_empty() {
            return Err(RunError::Transport(
                "a distributed backend needs at least one node address".to_owned(),
            ));
        }
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

/// Consumes every frame a daemon sends for its session.
fn reader_loop(shared: &Arc<Shared>, node: &Arc<NodeLink>, reader: &mut FrameConn) {
    loop {
        match reader.recv() {
            Ok(frame) => match frame.kind {
                FrameKind::Heartbeat if Heartbeat::from_wire_bytes(&frame.payload).is_ok() => {
                    *node.last_heartbeat.lock() = Instant::now();
                }
                FrameKind::Heartbeat => {} // malformed beat: ignore, the timeout decides
                FrameKind::Result => match JobResult::from_wire_bytes(&frame.payload) {
                    Ok(result) => complete(shared, node, result.job, result.outcome),
                    Err(_) => {
                        // An undecodable result is a protocol breach; the
                        // job it answered will be requeued when the node
                        // is retired.
                        retire(shared, node, "sent an undecodable result");
                        return;
                    }
                },
                FrameKind::Requeue => {
                    if let Ok(requeue) = Requeue::from_wire_bytes(&frame.payload) {
                        bounce(shared, node, requeue.job, &requeue.reason);
                    }
                }
                // Hello after the handshake, or daemon-bound kinds echoed
                // back: ignore.
                _ => {}
            },
            Err(_) => {
                retire(shared, node, "connection lost");
                return;
            }
        }
    }
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

/// A daemon refused an assignment (at capacity); put the job back on the
/// market. The daemon never started it, so there is no duplicate risk.
fn bounce(shared: &Arc<Shared>, node: &Arc<NodeLink>, job: u64, reason: &str) {
    if node.in_flight.lock().remove(&job).is_none() {
        return;
    }
    if let Some(p) = shared.pending.lock().get_mut(&job) {
        p.notes
            .push(format!("node-{} declined: {reason}; requeued", node.index));
    }
    respawn_dispatch(shared, vec![job]);
}

/// Declares a node dead (idempotently), retires it from placement, frees
/// its admission slots and
/// requeues its in-flight jobs onto the survivors — or fails them with
/// [`RunError::Transport`] when the coordinator is shutting down or no
/// node survives.
fn retire(shared: &Arc<Shared>, node: &Arc<NodeLink>, why: &str) {
    if node
        .alive
        .compare_exchange(true, false, Ordering::AcqRel, Ordering::Acquire)
        .is_err()
    {
        return;
    }
    let _ = node.control.shutdown();
    // Retired before its slots drop, so a waiter they wake never picks it.
    shared.slots.retire(node.index);
    let orphans: Vec<u64> = node.in_flight.lock().drain().map(|(job, _)| job).collect();
    if orphans.is_empty() {
        return;
    }
    let shutting_down = shared.shutting_down.load(Ordering::Acquire);
    let mut requeued = Vec::new();
    {
        let mut pending = shared.pending.lock();
        for job in orphans {
            if shutting_down {
                if let Some(p) = pending.remove(&job) {
                    p.job.completion.resolve(Err(RunError::Transport(format!(
                        "node-{} ({}) {why} during shutdown",
                        node.index, node.addr
                    ))));
                }
            } else if let Some(p) = pending.get_mut(&job) {
                p.notes.push(format!(
                    "node-{} ({}) {why} mid-run; requeued",
                    node.index, node.addr
                ));
                requeued.push(job);
            }
        }
    }
    respawn_dispatch(shared, requeued);
}

/// Re-dispatches requeued jobs off the reader/monitor thread (dispatch
/// can block on admission, and the reader must keep consuming frames).
fn respawn_dispatch(shared: &Arc<Shared>, jobs: Vec<u64>) {
    if jobs.is_empty() {
        return;
    }
    let bg_shared = Arc::clone(shared);
    let bg_jobs = jobs.clone();
    let spawned = std::thread::Builder::new()
        .name("pmcmc-dist-requeue".to_owned())
        .spawn(move || {
            for job in bg_jobs {
                if let Err(e) = dispatch(&bg_shared, job) {
                    if let Some(p) = bg_shared.pending.lock().remove(&job) {
                        p.job.completion.resolve(Err(e));
                    }
                }
            }
        });
    // Spawn failure: fail the requeued jobs rather than leak their
    // handles unresolved.
    if spawned.is_err() {
        for job in jobs {
            if let Some(p) = shared.pending.lock().remove(&job) {
                p.job.completion.resolve(Err(RunError::Transport(
                    "could not spawn a requeue dispatcher".to_owned(),
                )));
            }
        }
    }
}

/// Terminal path for a `Result` frame: frees the node's slot and
/// resolves the handle. Duplicate results (after a requeue race) find
/// the pending entry gone and are dropped.
fn complete(
    shared: &Arc<Shared>,
    node: &Arc<NodeLink>,
    job: u64,
    outcome: Result<WireReport, RunError>,
) {
    drop(node.in_flight.lock().remove(&job));
    let Some(p) = shared.pending.lock().remove(&job) else {
        return;
    };
    let result: Result<RunReport, RunError> = outcome.map(|wire| {
        let mut report = wire.into_report(&p.job.work.image, &p.job.work.params);
        report.diagnostics.notes.extend(p.notes.iter().cloned());
        report
    });
    p.job.completion.resolve(result);
}

/// Places and ships one pending job through the [`SlotTable`]: on the
/// least-committed alive node with a free slot or, while every survivor
/// is saturated, on whichever frees one first (a node's death also ends
/// the wait).
///
/// # Errors
/// [`RunError::Transport`] when no node is left alive, and
/// [`RunError::Cancelled`] when the job's token fired before placement.
fn dispatch(shared: &Arc<Shared>, job: u64) -> Result<(), RunError> {
    loop {
        let (cancelled, payload, weight) = {
            let mut pending = shared.pending.lock();
            let Some(p) = pending.get_mut(&job) else {
                // Resolved concurrently (e.g. duplicate execution after a
                // requeue race finished first): nothing to do.
                return Ok(());
            };
            if p.job.cancel.is_cancelled() {
                (true, Vec::new(), 0.0)
            } else {
                // Every (re-)dispatch charges the whole wait since
                // submission against the spec's original deadline.
                p.job.work.remaining_deadline = p.deadline;
                stamp_wait(&mut p.job.work, p.job.submitted_at);
                (false, Assign::payload(job, &p.job.work), p.job.weight())
            }
        };
        if cancelled {
            if let Some(p) = shared.pending.lock().remove(&job) {
                p.job.completion.resolve(Err(RunError::Cancelled {
                    completed_iterations: 0,
                }));
            }
            return Ok(());
        }

        let slot = shared.slots.acquire(weight).ok_or_else(|| {
            RunError::Transport("no cluster node is alive to run the job".to_owned())
        })?;
        let node = Arc::clone(&shared.nodes[slot.node()]);
        node.in_flight.lock().insert(job, slot);
        let sent = node.writer.lock().send(FrameKind::Assign, &payload);
        match sent {
            Ok(()) => return Ok(()),
            Err(_) => {
                // The node died under us; undo the claim and let the
                // retire path (driven by the reader) clean the rest up,
                // then try the next survivor.
                drop(node.in_flight.lock().remove(&job));
                retire(shared, &node, "send failed");
            }
        }
    }
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
        let id = job.id.0;
        let pending = Pending {
            deadline: job.work.remaining_deadline,
            job,
            notes: Vec::new(),
        };
        self.shared.pending.lock().insert(id, pending);
        match dispatch(&self.shared, id) {
            Ok(()) => Ok(()),
            Err(e) => {
                // Not resolved: surface the failure to the submitter via
                // the engine (the handle was never returned).
                self.shared.pending.lock().remove(&id);
                Err(e)
            }
        }
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
        // Anything still pending (jobs the daemons never answered) must
        // not leave a handle waiting forever.
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
