//! Contract tests for the socket-backed distributed backend: a 1-node
//! distributed cluster (an in-process daemon on a loopback socket) must
//! produce reports byte-identical to a one-machine engine for the same
//! seed — the wire format transmits, it must never perturb.

use pmcmc::prelude::*;

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

/// Everything deterministic a report carries, with float fields captured
/// bit-for-bit (wall times and node timings are excluded — they are the
/// only non-deterministic fields by design).
fn report_fingerprint(r: &RunReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(
        out,
        "{}|{:?}|iters={}",
        r.strategy, r.validity, r.iterations
    );
    let _ = write!(
        out,
        "|parts={}|lp={:016x}",
        r.diagnostics.partitions,
        r.diagnostics.log_posterior.to_bits()
    );
    if let Some(acc) = r.diagnostics.acceptance_rate {
        let _ = write!(out, "|acc={:016x}", acc.to_bits());
    }
    for note in &r.diagnostics.notes {
        let _ = write!(out, "|note={note}");
    }
    for p in &r.phases {
        let _ = write!(out, "|phase={}", p.phase);
    }
    for c in r.detected() {
        let _ = write!(
            out,
            "|c={:016x},{:016x},{:016x}",
            c.x.to_bits(),
            c.y.to_bits(),
            c.r.to_bits()
        );
    }
    out
}

#[test]
fn local_and_one_node_distributed_reports_are_byte_identical() {
    let (img, params) = workload(160, 9, 77);
    // Matching worker counts matter: speculative lane derivation reads the
    // pool width, and it must see 3 on both sides.
    let local = Engine::new(3).expect("local engine");
    let daemon = InProcessDaemon::spawn(3, 2).expect("loopback daemon");
    let distributed = Engine::distributed(&[daemon.addr()]).expect("1-node distributed cluster");
    assert_eq!(distributed.backend().name(), "distributed");
    for strategy in ["periodic", "speculative", "mc3", "blind"] {
        let run = |engine: &Engine| {
            let spec: StrategySpec = strategy.parse().expect("registered name");
            let report = engine
                .submit(
                    JobSpec::new(spec, img.clone(), params.clone())
                        .seed(33)
                        .iterations(8_000),
                )
                .expect("spec validates")
                .wait()
                .expect("job completes");
            report_fingerprint(&report)
        };
        assert_eq!(
            run(&local),
            run(&distributed),
            "{strategy}: local vs 1-node distributed reports differ"
        );
    }
}

#[test]
fn distributed_reports_stamp_remote_node_timings() {
    let (img, params) = workload(96, 5, 11);
    let daemon = InProcessDaemon::spawn(2, 2).expect("loopback daemon");
    let engine = Engine::distributed(&[daemon.addr()]).expect("1-node distributed cluster");
    let report = engine
        .submit(
            JobSpec::new(StrategySpec::Sequential, img, params)
                .seed(9)
                .iterations(2_000),
        )
        .expect("spec validates")
        .wait()
        .expect("job completes");
    assert_eq!(report.strategy, "sequential");
    assert_eq!(report.iterations, 2_000);
    assert_eq!(
        report.node_timings.len(),
        1,
        "the daemon stamps exactly one node timing"
    );
    assert_eq!(report.node_timings[0].node.index(), 0);
    assert!(report.node_timings[0].busy <= report.total_time + report.node_timings[0].busy);
}

/// A daemon frees a job's slot before it sends the job's result, so the
/// coordinator's next `Assign` to that node never finds it at capacity:
/// with one slot per node and one job admitted per node, a long batch of
/// short jobs must finish with no job bounced back ("declined") by a
/// daemon.
#[test]
fn a_batch_of_short_jobs_is_never_bounced_by_a_full_daemon() {
    let daemons: Vec<_> = (0..2)
        .map(|_| InProcessDaemon::spawn(1, 1).expect("loopback daemon"))
        .collect();
    let addrs: Vec<_> = daemons.iter().map(InProcessDaemon::addr).collect();
    let config = DistributedConfig {
        max_in_flight: 1,
        ..DistributedConfig::default()
    };
    let engine = Engine::with_backend(
        DistributedBackend::connect_with(&addrs, config).expect("2-node distributed cluster"),
    );
    let (img, params) = workload(96, 3, 5);
    let specs = (0..200)
        .map(|seed| {
            JobSpec::new(StrategySpec::Sequential, img.clone(), params.clone())
                .seed(seed)
                .iterations(1_000)
        })
        .collect();
    let batch = engine.submit_batch(specs).expect("specs validate");
    let declined: Vec<String> = batch
        .wait_all()
        .into_iter()
        .flat_map(|result| result.expect("job completes").diagnostics.notes)
        .filter(|note| note.contains("declined"))
        .collect();
    assert!(
        declined.is_empty(),
        "{} bounces by a daemon at capacity in 200 jobs, e.g. {:?}",
        declined.len(),
        declined.first()
    );
}

#[test]
fn a_zero_max_in_flight_is_rejected_as_an_invalid_spec() {
    let daemon = InProcessDaemon::spawn(1, 1).expect("loopback daemon");
    let config = DistributedConfig {
        max_in_flight: 0,
        ..DistributedConfig::default()
    };
    let connected = DistributedBackend::connect_with(&[daemon.addr()], config);
    assert!(
        matches!(connected, Err(RunError::InvalidSpec(_))),
        "{:?}",
        connected.err()
    );
}

/// Scheme options that once hung a job are rejected by a daemon too. Sent
/// as raw `Assign`s, past the coordinator's submit-time check, each comes
/// back within seconds as an `InvalidSpec` result: a remote run has no
/// cancel token, so a job that hung on a daemon was lost.
#[test]
fn a_daemon_answers_a_hanging_spec_with_invalid_spec() {
    use pmcmc::parallel::job::wire::{Assign, JobBlueprint, JobResult};
    use pmcmc::runtime::wire::{FrameKind, Hello, Wire, WIRE_VERSION};
    use pmcmc::runtime::FrameConn;
    use std::time::Duration;

    let daemon = InProcessDaemon::spawn(1, 2).expect("loopback daemon");
    let mut conn = FrameConn::connect_timeout(&daemon.addr(), Duration::from_secs(5))
        .expect("coordinator connects");
    let hello = Hello {
        version: WIRE_VERSION,
        node: 0,
        workers: 0,
    };
    conn.send(FrameKind::Hello, &hello.to_wire_bytes())
        .expect("hello out");
    assert_eq!(conn.recv().expect("hello back").kind, FrameKind::Hello);

    // A chain that never advances, and a settle 10¹² times the
    // convergence iteration.
    let frozen = SubChainOptions {
        conv_stride: 0,
        conv_tol: 0.0,
        ..SubChainOptions::default()
    };
    let endless = SubChainOptions {
        settle_frac: 1e12,
        ..SubChainOptions::default()
    };
    let (image, params) = workload(48, 2, 3);
    for (job, chain) in (1u64..).zip([frozen, endless]) {
        let blueprint = JobBlueprint {
            strategy: StrategySpec::Blind(BlindOptions {
                chain,
                ..BlindOptions::default()
            }),
            image: image.clone(),
            params: params.clone(),
            seed: 7,
            iterations: 20_000,
            remaining_deadline: None,
            checkpoint_interval: None,
            progress_stride: 512,
            queued_so_far: Duration::ZERO,
        };
        conn.send(FrameKind::Assign, &Assign::payload(job, &blueprint))
            .expect("assign out");
    }

    // Results are read on a thread of their own: a daemon that runs such
    // a job never answers, and the test must fail rather than hang.
    let (tx, rx) = std::sync::mpsc::channel();
    let mut reader = conn.try_clone().expect("socket clones");
    std::thread::spawn(move || {
        while let Ok(frame) = reader.recv() {
            if frame.kind == FrameKind::Result
                && tx.send(JobResult::from_wire_bytes(&frame.payload)).is_err()
            {
                return;
            }
        }
    });
    let mut answered: Vec<u64> = (0..2)
        .map(|_| {
            let result = (rx.recv_timeout(Duration::from_secs(10)))
                .expect("the daemon answers within seconds")
                .expect("the result decodes");
            assert!(
                matches!(result.outcome, Err(RunError::InvalidSpec(_))),
                "job {}: {:?}",
                result.job,
                result.outcome
            );
            result.job
        })
        .collect();
    answered.sort_unstable();
    assert_eq!(answered, [1, 2]);
    conn.send(FrameKind::Shutdown, &[]).expect("shutdown");
    daemon.join();
}
