//! Chaos and lifecycle tests for the distributed backend against *real*
//! `node_daemon` processes on loopback sockets: the coordinator must
//! survive a daemon dying mid-batch without losing a single job, and the
//! affected reports must say which node was lost.

use pmcmc_core::rng::Xoshiro256;
use pmcmc_core::ModelParams;
use pmcmc_imaging::synth::{generate, SceneSpec};
use pmcmc_imaging::GrayImage;
use pmcmc_parallel::engine::StrategySpec;
use pmcmc_parallel::job::{DistributedBackend, DistributedConfig, Engine, JobSpec};
use std::io::BufRead;
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// One `node_daemon` child process, killed on drop so a failing test
/// does not leak daemons.
struct DaemonProcess {
    child: Child,
    addr: SocketAddr,
}

impl DaemonProcess {
    fn spawn(workers: usize) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_node_daemon"))
            .args([
                "--listen",
                "127.0.0.1:0",
                "--workers",
                &workers.to_string(),
                "--heartbeat-ms",
                "100",
            ])
            .stdout(Stdio::piped())
            .spawn()
            .expect("node_daemon spawns");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .expect("daemon announces its address");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected daemon banner: {line:?}"))
            .parse()
            .expect("daemon address parses");
        Self { child, addr }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for DaemonProcess {
    fn drop(&mut self) {
        self.kill();
    }
}

fn workload(size: u32, n: usize, seed: u64) -> (GrayImage, ModelParams) {
    let spec = SceneSpec {
        width: size,
        height: size,
        n_circles: n,
        radius_mean: 8.0,
        radius_sd: 0.8,
        radius_min: 5.0,
        radius_max: 12.0,
        noise_sd: 0.05,
        ..SceneSpec::default()
    };
    let mut rng = Xoshiro256::new(seed);
    let scene = generate(&spec, &mut rng);
    let img = scene.render(&mut rng);
    let mut params = ModelParams::new(size, size, n as f64, 8.0);
    params.noise_sd = 0.15;
    (img, params)
}

#[test]
fn killing_a_daemon_mid_batch_loses_no_jobs() {
    let mut victim = DaemonProcess::spawn(1);
    let survivor = DaemonProcess::spawn(1);
    let backend = DistributedBackend::connect_with(
        &[survivor.addr, victim.addr],
        DistributedConfig {
            max_in_flight: 2,
            heartbeat_timeout: Duration::from_millis(700),
            connect_timeout: Duration::from_secs(10),
        },
    )
    .expect("coordinator connects to both daemons");
    let engine = Engine::with_backend(backend);
    assert_eq!(engine.backend().name(), "distributed");

    // Four jobs exactly fill 2 nodes x 2 slots, so none waits in the
    // backlog and every node holds work when the victim dies. The budget
    // keeps each job running for most of a second (≈ 0.3 µs an iteration
    // on this scene since the span-table kernels) — several times the
    // kill delay — so the victim is guaranteed to die mid-run.
    let (img, params) = workload(96, 5, 5);
    let specs: Vec<JobSpec> = (0..4)
        .map(|i| {
            JobSpec::new(StrategySpec::Sequential, img.clone(), params.clone())
                .seed(i as u64)
                .iterations(2_000_000)
        })
        .collect();
    let batch = engine.submit_batch(specs).expect("batch admitted");

    std::thread::sleep(Duration::from_millis(250));
    victim.kill();

    let results = batch.wait_all();
    assert_eq!(results.len(), 4, "every submitted job must resolve");
    let mut requeued = 0;
    for (i, result) in results.iter().enumerate() {
        let report = result
            .as_ref()
            .unwrap_or_else(|e| panic!("job {i} lost to the dead node: {e}"));
        assert_eq!(report.strategy, "sequential");
        assert!(report.iterations > 0);
        if report
            .diagnostics
            .notes
            .iter()
            .any(|n| n.contains("requeued"))
        {
            requeued += 1;
            // A rescheduled job must name the node it was lost from.
            assert!(
                report
                    .diagnostics
                    .notes
                    .iter()
                    .any(|n| n.contains("node-1")),
                "job {i} requeue note does not name the lost node: {:?}",
                report.diagnostics.notes
            );
        }
    }
    assert!(
        requeued >= 1,
        "the victim held in-flight jobs; at least one report must carry a requeue note"
    );
}

#[test]
fn distributed_engine_runs_a_two_daemon_sweep() {
    let a = DaemonProcess::spawn(2);
    let b = DaemonProcess::spawn(2);
    let engine = Engine::distributed(&[a.addr, b.addr]).expect("coordinator connects");
    assert_eq!(engine.backend().topology().nodes(), 2);

    let (img, params) = workload(96, 5, 9);
    let specs: Vec<JobSpec> = ["sequential", "periodic", "mc3", "speculative"]
        .iter()
        .map(|name| {
            let spec: StrategySpec = name.parse().expect("registered name");
            JobSpec::new(spec, img.clone(), params.clone())
                .seed(17)
                .iterations(3_000)
        })
        .collect();
    let results = engine
        .submit_batch(specs)
        .expect("batch admitted")
        .wait_all();
    assert_eq!(results.len(), 4);
    for result in &results {
        let report = result.as_ref().expect("job completes");
        assert!(report.iterations > 0);
        assert_eq!(
            report.node_timings.len(),
            1,
            "whole-job distributed placement stamps exactly one node"
        );
        assert!(report.node_timings[0].node.index() < 2);
    }
}

#[test]
fn dead_cluster_fails_jobs_with_transport_errors() {
    let mut only = DaemonProcess::spawn(1);
    let backend = DistributedBackend::connect_with(
        &[only.addr],
        DistributedConfig {
            max_in_flight: 2,
            heartbeat_timeout: Duration::from_millis(400),
            connect_timeout: Duration::from_secs(10),
        },
    )
    .expect("coordinator connects");
    let engine = Engine::with_backend(backend);

    // Two long jobs take both slots, and two more wait in the backlog when
    // the only daemon dies: every handle must fail with a transport error.
    let (img, params) = workload(96, 4, 3);
    let handles: Vec<_> = (0..4)
        .map(|seed| {
            engine
                .submit(
                    JobSpec::new(StrategySpec::Sequential, img.clone(), params.clone())
                        .seed(seed)
                        .iterations(500_000_000)
                        .progress_stride(256),
                )
                .expect("job submitted")
        })
        .collect();
    std::thread::sleep(Duration::from_millis(200));
    only.kill();
    for (i, handle) in handles.into_iter().enumerate() {
        match handle.wait() {
            Err(pmcmc_parallel::job::RunError::Transport(msg)) => {
                assert!(
                    msg.contains("node-0") || msg.contains("alive"),
                    "job {i}: transport error should name the outage: {msg}"
                );
            }
            other => {
                panic!("job {i}: expected a transport failure with no survivors, got {other:?}")
            }
        }
    }
}
