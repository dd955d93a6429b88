//! The node-daemon side of distributed execution: a socket server that
//! turns one machine into one eq. (4) cluster node.
//!
//! A [`NodeDaemon`] listens on a TCP socket, accepts one coordinator
//! connection at a time, and speaks the [`pmcmc_runtime::wire`] protocol:
//! it answers the coordinator's `Hello` with its worker count, runs each
//! `Assign`ed job as a task on its local [`WorkerPool`] of `t` workers,
//! fanning the job's parallel stages onto the same workers, streams a
//! `Result` frame per job, and beats a `Heartbeat` every few hundred
//! milliseconds so the coordinator can tell a busy node from a dead one.
//! The pool is the daemon's one set of job threads: it admits up to its
//! capacity, runs at most `min(capacity, t)` jobs at once, and the rest of
//! what it admitted waits in the pool's queue. Jobs arriving beyond the
//! capacity are bounced back with `Requeue` for the coordinator to place
//! elsewhere.
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

/// One node's worth of the distributed runtime: a listener plus the `t`
/// local workers that eq. (4) calls one machine.
pub struct NodeDaemon {
    listener: TcpListener,
    pool: Arc<WorkerPool>,
    capacity: u32,
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
            heartbeat_every: Duration::from_millis(200),
        })
    }

    /// Sets how many jobs the daemon admits before bouncing assignments
    /// back with `Requeue` (default 2, matching
    /// [`ClusterTopology`](pmcmc_runtime::ClusterTopology)'s default
    /// jobs a node runs at once). At most `min(capacity, workers)` of them
    /// run at once, each on a worker; the rest wait in the pool's queue.
    #[must_use]
    pub fn capacity(mut self, capacity: u32) -> Self {
        self.capacity = capacity.max(1);
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
        // Runs admitted jobs on the pool; dropping it waits for them.
        let runners = JobExecutor::new(vec![Arc::clone(&self.pool)], self.capacity as usize);

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
            let Ok(frame) = conn.recv() else {
                break SessionEnd::Disconnected;
            };
            match frame.kind {
                FrameKind::Assign => {}
                FrameKind::Shutdown => break SessionEnd::Shutdown,
                // Hello/Heartbeat/Result/Requeue from the coordinator carry
                // nothing for a daemon; ignore rather than kill the session.
                _ => continue,
            }
            let assign = match Assign::from_wire_bytes(&frame.payload) {
                Ok(assign) => assign,
                Err(e) => {
                    // The job id is the first u64 of the payload; salvage it
                    // so the coordinator can fail the job instead of timing
                    // out.
                    if let Ok(job) = pmcmc_runtime::wire::WireReader::new(&frame.payload).u64() {
                        let why = format!("node {node} could not decode assignment: {e}");
                        send_result(&writer, job, Err(RunError::Transport(why)));
                    }
                    continue;
                }
            };
            if in_flight.load(Ordering::Acquire) >= self.capacity {
                let reason = format!("node {node} at capacity {}", self.capacity);
                let requeue = Requeue {
                    job: assign.job,
                    reason,
                };
                let _ = writer
                    .lock()
                    .send(FrameKind::Requeue, &requeue.to_wire_bytes());
                continue;
            }
            in_flight.fetch_add(1, Ordering::AcqRel);
            let (writer, in_flight) = (Arc::clone(&writer), Arc::clone(&in_flight));
            runners.launch(1.0, move |_, pool| {
                // Same runner as every in-process node; remote runs have no
                // cancel token and stream no events.
                let node_id = NodeId(node as usize);
                let outcome = run_blueprint(&assign.blueprint, pool, node_id, None, None)
                    .map(|report| WireReport::from_report(&report));
                // Free the slot before the coordinator can see the result:
                // it places the next job on this node as soon as the result
                // lands, and an `Assign` that beat the release would bounce.
                in_flight.fetch_sub(1, Ordering::AcqRel);
                Box::new(move || send_result(&writer, assign.job, outcome))
            });
        };

        stop.store(true, Ordering::Release);
        drop(runners);
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
/// loopback clusters without spawning processes. Dropping it detaches
/// the thread, which serves until a coordinator sends `Shutdown`.
pub struct InProcessDaemon {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<Result<(), WireError>>,
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
        Ok(Self { addr, thread })
    }

    /// The daemon's loopback address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the daemon to exit (after a coordinator `Shutdown`).
    pub fn join(self) {
        let _ = self.thread.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StrategySpec;
    use crate::job::{Engine, JobSpec};
    use pmcmc_core::ModelParams;
    use pmcmc_imaging::GrayImage;
    use std::time::Instant;

    #[test]
    fn a_daemon_runs_its_jobs_on_its_pool_at_most_min_capacity_workers_at_once() {
        let daemon = NodeDaemon::bind("127.0.0.1:0", 1)
            .expect("daemon binds")
            .capacity(2);
        let addr = daemon.local_addr().expect("bound address");
        // Hold the daemon's only worker: no job can run until it is free.
        let gate = Arc::new(std::sync::RwLock::new(()));
        let closed = gate.write().expect("gate");
        let held = Arc::clone(&gate);
        daemon.pool.spawn(move || drop(held.read()));
        std::thread::scope(|scope| {
            let session = scope.spawn(|| daemon.serve_one());
            let engine = Engine::distributed(&[addr]).expect("coordinator connects");
            let specs = (0..40)
                .map(|seed| {
                    let image = GrayImage::filled(48, 48, 0.1);
                    JobSpec::new(
                        StrategySpec::Sequential,
                        image,
                        ModelParams::new(48, 48, 2.0, 8.0),
                    )
                    .seed(seed)
                    .iterations(5_000)
                })
                .collect();
            let batch = engine.submit_batch(specs).expect("batch");
            std::thread::sleep(Duration::from_millis(200));
            assert!(
                !batch
                    .handles()
                    .iter()
                    .any(crate::job::JobHandle::is_finished),
                "a job ran off the daemon's held pool"
            );
            let released = Instant::now();
            drop(closed);
            let results = batch.wait_all();
            let wall = released.elapsed();
            // Capacity 2 on 1 worker: one job at a time, so their run times
            // are disjoint and fit in the wall time since the release.
            let busy: Duration = (results.into_iter())
                .map(|result| result.expect("remote job completes").node_timings[0].busy)
                .sum();
            assert!(busy <= wall, "jobs overlapped: {busy:?} busy in {wall:?}");
            // Dropping the coordinator sends `Shutdown`.
            drop(engine);
            let end = session.join().expect("session thread");
            assert_eq!(end.expect("session"), SessionEnd::Shutdown);
        });
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
