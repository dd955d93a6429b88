//! The node-daemon side of distributed execution: a socket server that
//! turns one machine into one eq. (4) cluster node.
//!
//! A [`NodeDaemon`] listens on a TCP socket, accepts one coordinator
//! connection at a time, and speaks the [`pmcmc_runtime::wire`] protocol:
//! it answers the coordinator's `Hello` with its worker count, runs each
//! `Assign`ed job on a local [`WorkerPool`] of `t` workers (on a
//! [`JobExecutor`] as wide as its capacity, so a daemon is internally
//! concurrent up to it and holds no runner thread once idle), streams a
//! `Result` frame per job, and beats a `Heartbeat` every few hundred
//! milliseconds so the coordinator can tell a busy node from a dead one.
//! Jobs arriving beyond the daemon's capacity are bounced back with
//! `Requeue` for the coordinator to place elsewhere.
//!
//! The binary wrapper is this crate's `node_daemon` (`src/bin/`); this
//! module keeps the logic in-library so tests and examples can run
//! daemons in-process on loopback sockets.

use crate::job::error::RunError;
use crate::job::runner::run_blueprint;
use crate::job::wire::{Assign, JobResult, WireReport};
use pmcmc_runtime::net::FrameConn;
use pmcmc_runtime::wire::{FrameKind, Heartbeat, Hello, Requeue, Wire, WireError, WIRE_VERSION};
use pmcmc_runtime::{JobExecutor, NodeId, WorkerPool};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

/// Name prefix of a daemon's job runner threads.
const RUNNER_NAME: &str = "pmcmc-daemon-job";

/// One node's worth of the distributed runtime: a listener plus the `t`
/// local workers that eq. (4) calls one machine.
pub struct NodeDaemon {
    listener: TcpListener,
    pool: Arc<WorkerPool>,
    capacity: u32,
    /// Runs admitted jobs, at most `capacity` at once.
    runners: JobExecutor,
    heartbeat_every: Duration,
}

/// Why one coordinator session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEnd {
    /// The coordinator sent `Shutdown`: the daemon should exit.
    Shutdown,
    /// The connection dropped (coordinator crashed or finished without a
    /// farewell): the daemon may serve the next coordinator.
    Disconnected,
}

impl NodeDaemon {
    /// Binds a daemon of `workers` local worker threads to `addr` (use
    /// port 0 to let the OS pick; read it back with
    /// [`NodeDaemon::local_addr`]).
    ///
    /// # Errors
    /// Propagates bind and worker-thread-spawn failures.
    pub fn bind(addr: impl ToSocketAddrs, workers: usize) -> std::io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            pool: WorkerPool::try_shared(workers.max(1))?,
            capacity: 2,
            runners: JobExecutor::new(RUNNER_NAME, 2),
            heartbeat_every: Duration::from_millis(200),
        })
    }

    /// Sets how many jobs the daemon runs concurrently before bouncing
    /// assignments back with `Requeue` (default 2, matching
    /// [`ClusterTopology`](pmcmc_runtime::ClusterTopology)'s default
    /// per-node admission bound).
    #[must_use]
    pub fn capacity(mut self, capacity: u32) -> Self {
        self.capacity = capacity.max(1);
        self.runners = JobExecutor::new(RUNNER_NAME, self.capacity as usize);
        self
    }

    /// Sets the heartbeat cadence (default 200 ms). Coordinators time
    /// nodes out after several missed beats, so keep this well under the
    /// coordinator's timeout.
    #[must_use]
    pub fn heartbeat_every(mut self, every: Duration) -> Self {
        self.heartbeat_every = every;
        self
    }

    /// The bound address.
    ///
    /// # Errors
    /// Propagates socket failures.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Worker threads per job (eq. (4)'s `t`).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.pool.threads()
    }

    /// Accepts and serves one coordinator connection to its end.
    ///
    /// # Errors
    /// [`WireError`] on accept failures or a handshake that is not a
    /// valid `Hello`.
    pub fn serve_one(&self) -> Result<SessionEnd, WireError> {
        let (stream, _) = self.listener.accept().map_err(WireError::from)?;
        let mut conn = FrameConn::from_stream(stream)?;

        // Handshake: the coordinator assigns this connection its NodeId.
        let frame = conn.recv()?;
        if frame.kind != FrameKind::Hello {
            return Err(WireError::Malformed(format!(
                "expected Hello to open the session, got {:?}",
                frame.kind
            )));
        }
        let hello = Hello::from_wire_bytes(&frame.payload)?;
        if hello.version > WIRE_VERSION {
            return Err(WireError::UnsupportedVersion(hello.version));
        }
        let node = hello.node;
        conn.send(
            FrameKind::Hello,
            &Hello {
                version: WIRE_VERSION,
                node,
                workers: self.pool.threads() as u32,
            }
            .to_wire_bytes(),
        )?;

        // One clone of the socket per concern: senders share a mutexed
        // writer, the session loop keeps the reader.
        let writer = Arc::new(Mutex::new(conn.try_clone()?));
        let in_flight = Arc::new(AtomicU32::new(0));
        let stop = Arc::new(AtomicBool::new(false));

        let beat = {
            let writer = Arc::clone(&writer);
            let in_flight = Arc::clone(&in_flight);
            let stop = Arc::clone(&stop);
            let every = self.heartbeat_every;
            std::thread::Builder::new()
                .name(format!("pmcmc-daemon{node}-heartbeat"))
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        let payload = Heartbeat {
                            node,
                            in_flight: in_flight.load(Ordering::Acquire),
                        }
                        .to_wire_bytes();
                        if writer.lock().send(FrameKind::Heartbeat, &payload).is_err() {
                            // Coordinator gone; the session loop will see
                            // the same failure and wind down.
                            return;
                        }
                        std::thread::sleep(every);
                    }
                })
                .map_err(|e| WireError::Io(format!("failed to spawn heartbeat thread: {e}")))?
        };

        // Every job answers with exactly one `Result` frame.
        let send_result = |writer: &Mutex<FrameConn>, job, outcome| {
            let payload = JobResult { job, outcome }.to_wire_bytes();
            let _ = writer.lock().send(FrameKind::Result, &payload);
        };
        let end = loop {
            match conn.recv() {
                Ok(frame) => match frame.kind {
                    FrameKind::Assign => {
                        match Assign::from_wire_bytes(&frame.payload) {
                            Ok(assign) => {
                                if in_flight.load(Ordering::Acquire) >= self.capacity {
                                    let requeue = Requeue {
                                        job: assign.job,
                                        reason: format!(
                                            "node {node} at capacity {}",
                                            self.capacity
                                        ),
                                    }
                                    .to_wire_bytes();
                                    let _ = writer.lock().send(FrameKind::Requeue, &requeue);
                                    continue;
                                }
                                in_flight.fetch_add(1, Ordering::AcqRel);
                                let job_id = assign.job;
                                let pool = Arc::clone(&self.pool);
                                let job_writer = Arc::clone(&writer);
                                let job_in_flight = Arc::clone(&in_flight);
                                let launched = self.runners.launch(move || {
                                    // Same runner as every in-process node;
                                    // remote runs have no cancel token and
                                    // stream no events.
                                    let outcome = run_blueprint(
                                        &assign.blueprint,
                                        &pool,
                                        NodeId(node as usize),
                                        None,
                                        None,
                                    )
                                    .map(|report| WireReport::from_report(&report));
                                    send_result(&job_writer, job_id, outcome);
                                    job_in_flight.fetch_sub(1, Ordering::AcqRel);
                                });
                                if let Err(e) = launched {
                                    in_flight.fetch_sub(1, Ordering::AcqRel);
                                    let why =
                                        format!("node {node} could not spawn a job runner: {e}");
                                    send_result(&writer, job_id, Err(RunError::Transport(why)));
                                }
                            }
                            Err(e) => {
                                // The job id is the first u64 of the
                                // payload; salvage it so the coordinator
                                // can fail the job instead of timing out.
                                if let Ok(job) =
                                    pmcmc_runtime::wire::WireReader::new(&frame.payload).u64()
                                {
                                    let why =
                                        format!("node {node} could not decode assignment: {e}");
                                    send_result(&writer, job, Err(RunError::Transport(why)));
                                }
                            }
                        }
                    }
                    FrameKind::Shutdown => break SessionEnd::Shutdown,
                    // Hello/Heartbeat/Result/Requeue from the coordinator
                    // carry nothing for a daemon; ignore rather than kill
                    // the session.
                    _ => {}
                },
                Err(_) => break SessionEnd::Disconnected,
            }
        };

        stop.store(true, Ordering::Release);
        self.runners.wait_idle();
        let _ = beat.join();
        Ok(end)
    }

    /// Serves coordinator sessions until one sends `Shutdown`.
    ///
    /// # Errors
    /// The first [`WireError`] from [`NodeDaemon::serve_one`].
    pub fn serve_forever(&self) -> Result<(), WireError> {
        loop {
            if self.serve_one()? == SessionEnd::Shutdown {
                return Ok(());
            }
        }
    }
}

/// A daemon running on a background thread of this process — what the
/// tests, the benchmark and `examples/cluster.rs` use to stand up
/// loopback clusters without spawning processes.
pub struct InProcessDaemon {
    addr: SocketAddr,
    thread: Option<std::thread::JoinHandle<Result<(), WireError>>>,
}

impl InProcessDaemon {
    /// Binds a daemon on `127.0.0.1:0` and serves it on a background
    /// thread until a coordinator sends `Shutdown` (or the process
    /// exits).
    ///
    /// # Errors
    /// Propagates bind/spawn failures as [`RunError::Transport`].
    pub fn spawn(workers: usize, capacity: u32) -> Result<Self, RunError> {
        let daemon = NodeDaemon::bind("127.0.0.1:0", workers)
            .map_err(|e| RunError::Transport(format!("daemon bind failed: {e}")))?
            .capacity(capacity);
        let addr = daemon
            .local_addr()
            .map_err(|e| RunError::Transport(format!("daemon addr failed: {e}")))?;
        let thread = std::thread::Builder::new()
            .name(format!("pmcmc-daemon-{addr}"))
            .spawn(move || daemon.serve_forever())
            .map_err(|e| RunError::Transport(format!("daemon spawn failed: {e}")))?;
        Ok(Self {
            addr,
            thread: Some(thread),
        })
    }

    /// The daemon's loopback address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the daemon to exit (after a coordinator `Shutdown`).
    pub fn join(mut self) {
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for InProcessDaemon {
    fn drop(&mut self) {
        // Detach: serve_forever exits on coordinator Shutdown; tests that
        // want a clean join call `join()` explicitly.
        drop(self.thread.take());
    }
}

// Re-exported here so daemon users see the heartbeat payload type next
// to the daemon that emits it.
pub use pmcmc_runtime::wire::Heartbeat as HeartbeatPayload;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StrategySpec;
    use crate::job::{Engine, JobSpec};
    use pmcmc_core::ModelParams;
    use pmcmc_imaging::GrayImage;
    use std::time::Instant;

    #[test]
    fn a_long_session_never_holds_more_runners_than_its_capacity() {
        let daemon = NodeDaemon::bind("127.0.0.1:0", 1)
            .expect("daemon binds")
            .capacity(2);
        let addr = daemon.local_addr().expect("bound address");
        std::thread::scope(|scope| {
            let session = scope.spawn(|| daemon.serve_one());
            let engine = Engine::distributed(&[addr]).expect("coordinator connects");
            let specs = (0..300)
                .map(|seed| {
                    let image = GrayImage::filled(48, 48, 0.1);
                    JobSpec::new(
                        StrategySpec::Sequential,
                        image,
                        ModelParams::new(48, 48, 2.0, 8.0),
                    )
                    .seed(seed)
                    .iterations(200)
                })
                .collect();
            for result in engine.submit_batch(specs).expect("batch").wait_all() {
                result.expect("remote job completes");
            }
            // Dropping the coordinator sends `Shutdown`.
            drop(engine);
            let end = session.join().expect("session thread");
            assert_eq!(end.expect("session"), SessionEnd::Shutdown);
        });
        let stats = daemon.runners.stats();
        assert!(stats.peak_threads <= 2, "{stats:?}");
        assert_eq!((stats.threads, stats.queued), (0, 0), "{stats:?}");
    }

    #[test]
    fn daemon_handshakes_and_heartbeats() {
        let daemon = InProcessDaemon::spawn(1, 2).expect("daemon spawns");
        let mut conn = FrameConn::connect_timeout(&daemon.addr(), Duration::from_secs(5))
            .expect("coordinator connects");
        conn.send(
            FrameKind::Hello,
            &Hello {
                version: WIRE_VERSION,
                node: 4,
                workers: 0,
            }
            .to_wire_bytes(),
        )
        .expect("hello out");
        let reply = conn.recv().expect("hello back");
        assert_eq!(reply.kind, FrameKind::Hello);
        let hello = Hello::from_wire_bytes(&reply.payload).expect("decode");
        assert_eq!(hello.node, 4);
        assert_eq!(hello.workers, 1);

        // At least one heartbeat arrives without prompting.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let frame = conn.recv().expect("frame");
            if frame.kind == FrameKind::Heartbeat {
                let beat = Heartbeat::from_wire_bytes(&frame.payload).expect("decode beat");
                assert_eq!(beat.node, 4);
                break;
            }
            assert!(Instant::now() < deadline, "no heartbeat within 5s");
        }
        conn.send(FrameKind::Shutdown, &[]).expect("shutdown");
        daemon.join();
    }
}
