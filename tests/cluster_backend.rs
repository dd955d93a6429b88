//! Contract tests for the sharded (eq. 4) execution backend: byte-for-byte
//! equivalence of `Engine::new` and a 1-node `Engine::sharded`, full strategy
//! coverage behind the unchanged `JobSpec`/`JobHandle` surface, submission
//! that never waits for a slot (on the sharded and the distributed
//! backend), and the "more nodes is no slower" regression against
//! `theory::eq4_time`.

use pmcmc::parallel::theory::eq4_time;
use pmcmc::prelude::*;
use std::time::{Duration, Instant};

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
fn local_and_one_node_sharded_reports_are_byte_identical() {
    let (img, params) = workload(160, 9, 77);
    let local = Engine::new(3).expect("local engine");
    let sharded = Engine::sharded(ClusterTopology::new(1, 3)).expect("1-node cluster");
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
            run(&sharded),
            "{strategy}: local vs 1-node sharded reports differ"
        );
    }
}

#[test]
fn sharded_backend_runs_every_registered_strategy() {
    let (img, params) = workload(96, 5, 3);
    let engine = Engine::sharded(ClusterTopology::new(2, 2)).expect("2x2 cluster");
    assert_eq!(engine.backend().name(), "sharded");
    let topology = engine.backend().topology();
    assert_eq!(topology.nodes() * topology.threads_per_node(), 4);
    let specs: Vec<JobSpec> = StrategySpec::all()
        .into_iter()
        .map(|s| {
            JobSpec::new(s, img.clone(), params.clone())
                .seed(11)
                .iterations(2_000)
        })
        .collect();
    let batch = engine.submit_batch(specs).expect("batch validates");
    let results = batch.wait_all();
    assert_eq!(results.len(), StrategySpec::all().len());
    for (result, spec) in results.iter().zip(StrategySpec::all()) {
        let report = result
            .as_ref()
            .unwrap_or_else(|e| panic!("{} failed on the cluster: {e}", spec.name()));
        assert_eq!(report.strategy, spec.name());
        assert!(report.iterations > 0);
        assert_eq!(
            report.node_timings.len(),
            1,
            "{}: whole-job placement stamps exactly one node",
            spec.name()
        );
        assert!(report.node_timings[0].node.index() < 2);
    }
}

/// A 1×1 sharded cluster and a 1-node distributed cluster on a one-slot
/// loopback daemon, each by name, the daemon kept beside its engine.
#[test]
fn every_event_of_a_local_or_sharded_job_arrives_on_a_pool_worker() {
    // A node's pool is its only set of job threads: a job runs on one of
    // the workers and fans its stages onto the same workers.
    let (img, params) = workload(96, 5, 21);
    let engines = [
        Engine::new(2).unwrap(),
        Engine::sharded(ClusterTopology::new(2, 2).max_in_flight(4)).unwrap(),
    ];
    for engine in engines {
        let threads = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let specs = (StrategySpec::all().into_iter())
            .map(|spec| {
                let threads = std::sync::Arc::clone(&threads);
                JobSpec::new(spec, img.clone(), params.clone())
                    .seed(4)
                    .iterations(4_000)
                    .observer(move |_| {
                        let name = std::thread::current().name().map(str::to_owned);
                        threads.lock().unwrap().push(name.unwrap_or_default());
                    })
            })
            .collect();
        let batch = engine.submit_batch(specs).unwrap();
        for result in batch.wait_all() {
            result.expect("job completes");
        }
        let threads = threads.lock().unwrap();
        assert!(!threads.is_empty());
        let off_pool: Vec<_> = (threads.iter())
            .filter(|name| !name.starts_with("pmcmc-worker-"))
            .collect();
        let backend = engine.backend().name();
        assert!(off_pool.is_empty(), "{backend}: events on {off_pool:?}");
    }
}

fn one_slot_clusters() -> Vec<(&'static str, Engine, Option<InProcessDaemon>)> {
    let sharded =
        ShardedBackend::new(ClusterTopology::new(1, 1).max_in_flight(1)).expect("1x1 cluster");
    let daemon = InProcessDaemon::spawn(1, 1).expect("loopback daemon");
    let config = DistributedConfig {
        max_in_flight: 1,
        ..DistributedConfig::default()
    };
    let distributed = DistributedBackend::connect_with(&[daemon.addr()], config)
        .expect("1-node distributed cluster");
    vec![
        ("sharded", Engine::with_backend(sharded), None),
        (
            "distributed",
            Engine::with_backend(distributed),
            Some(daemon),
        ),
    ]
}

/// How long the first job of the backlog tests holds the only slot. A
/// coordinator cannot stop a remote run, so on both backends the job's
/// deadline ends it.
const HOLD: Duration = Duration::from_millis(400);

fn holding_job(img: &GrayImage, params: &ModelParams) -> JobSpec {
    JobSpec::new(StrategySpec::Sequential, img.clone(), params.clone())
        .seed(1)
        .iterations(500_000_000)
        .progress_stride(256)
        .deadline(HOLD)
}

#[test]
fn submission_never_waits_for_a_free_slot() {
    let (img, params) = workload(96, 5, 5);
    for (name, engine, _daemon) in one_slot_clusters() {
        let start = Instant::now();
        let first = engine
            .submit(holding_job(&img, &params))
            .expect("first job submitted");
        // Three more jobs find the only slot held: each submit returns at
        // once, and the jobs wait in the backlog.
        let mut waiting = Vec::new();
        for seed in 2..5 {
            let before = Instant::now();
            let handle = engine
                .submit(
                    JobSpec::new(StrategySpec::Sequential, img.clone(), params.clone())
                        .seed(seed)
                        .iterations(20_000),
                )
                .expect("job submitted");
            let after = Instant::now();
            assert!(
                after - before < Duration::from_millis(100),
                "{name}: submit waited {:?} for a slot",
                after - before
            );
            waiting.push((before, after, handle));
        }
        assert!(
            matches!(first.wait(), Err(RunError::DeadlineExceeded { .. })),
            "{name}: the holding job should end at its deadline"
        );
        // (earliest start, latest start, earliest end) of each run.
        let mut runs = Vec::new();
        for (before, after, handle) in waiting {
            let report = handle.wait().expect("queued job completes");
            assert_eq!(report.iterations, 20_000);
            let timing = &report.node_timings[0];
            assert!(
                timing.queued >= HOLD.saturating_sub(after - start),
                "{name}: a job started after {:?}, while the first held the slot",
                timing.queued
            );
            let started = before + timing.queued;
            runs.push((started, after + timing.queued, started + timing.busy));
        }
        // One slot: no two runs overlap.
        runs.sort_unstable_by_key(|run| run.0);
        for pair in runs.windows(2) {
            assert!(
                pair[1].1 >= pair[0].2,
                "{name}: two jobs ran at once on a one-slot node"
            );
        }
    }
}

#[test]
fn a_job_cancelled_in_the_backlog_resolves_without_running() {
    let (img, params) = workload(96, 5, 7);
    for (name, engine, _daemon) in one_slot_clusters() {
        let first = engine
            .submit(holding_job(&img, &params))
            .expect("first job submitted");
        let queued = engine
            .submit(
                JobSpec::new(StrategySpec::Sequential, img.clone(), params.clone())
                    .seed(2)
                    .iterations(50_000),
            )
            .expect("second job submitted");
        queued.cancel();
        assert!(matches!(
            first.wait(),
            Err(RunError::DeadlineExceeded { .. })
        ));
        // A daemon never sees the token: a shipped job would finish.
        assert_eq!(
            queued.wait().unwrap_err(),
            RunError::Cancelled {
                completed_iterations: 0
            },
            "{name}: a job cancelled in the backlog must not run"
        );
    }
}

#[test]
fn a_slow_job_does_not_stall_the_other_node() {
    let (img, params) = workload(64, 3, 29);
    // Two nodes with one slot each. The first job's observer holds its
    // node's driver for 300 ms; every other job must go to the node that
    // frees a slot first, not wait behind the slow one.
    let engine = Engine::with_backend(
        ShardedBackend::new(ClusterTopology::new(2, 1).max_in_flight(1)).expect("2x1 cluster"),
    );
    let job = |seed: u64| {
        JobSpec::new(StrategySpec::Sequential, img.clone(), params.clone())
            .seed(seed)
            .iterations(1_000)
    };
    let slept = std::sync::Once::new();
    let slow = job(0)
        .observer(move |_| slept.call_once(|| std::thread::sleep(Duration::from_millis(300))));
    let specs: Vec<JobSpec> = std::iter::once(slow).chain((1..7).map(job)).collect();
    let mut batch = engine.submit_batch(specs).expect("batch validates");

    let mut finished = Vec::new();
    while let Some((idx, result)) = batch.next_finished() {
        let report = result.expect("job completes");
        finished.push((idx, report.node_timings[0].node.index()));
    }
    let order: Vec<usize> = finished.iter().map(|&(idx, _)| idx).collect();
    assert_eq!(
        order.last(),
        Some(&0),
        "a fast job waited behind the slow one: finish order {order:?}"
    );
    let slow_node = finished[6].1;
    for &(idx, node) in &finished[..6] {
        assert_ne!(node, slow_node, "job {idx} ran on the slow job's node");
    }
}

#[test]
fn more_nodes_is_no_slower_and_matches_eq4_ordering() {
    let (img, params) = workload(96, 5, 9);
    const JOBS: usize = 4;

    // Calibrate the per-job budget so one job costs enough wall time for
    // scheduling differences to dominate noise.
    let mut budget: u64 = 20_000;
    let calib = Engine::sharded(ClusterTopology::new(1, 2).max_in_flight(1)).expect("cluster");
    let t0 = Instant::now();
    calib
        .submit(
            JobSpec::new(StrategySpec::Sequential, img.clone(), params.clone())
                .seed(1)
                .iterations(budget),
        )
        .expect("calibration job")
        .wait()
        .expect("calibration completes");
    let per_job = t0.elapsed();
    if per_job < Duration::from_millis(100) {
        let scale = (100.0 / per_job.as_secs_f64().max(1e-4) / 1_000.0).ceil() as u64;
        budget *= scale.max(1);
    }

    // A partitionable workload: JOBS independent same-budget jobs. With
    // one slot per node, an s-node cluster runs s of them at a
    // time — greedy list scheduling over jobs.
    let run_cluster = |nodes: usize| -> (Duration, Vec<usize>) {
        let engine =
            Engine::sharded(ClusterTopology::new(nodes, 2).max_in_flight(1)).expect("cluster");
        let specs: Vec<JobSpec> = (0..JOBS)
            .map(|i| {
                JobSpec::new(StrategySpec::Sequential, img.clone(), params.clone())
                    .seed(i as u64)
                    .iterations(budget)
            })
            .collect();
        let t0 = Instant::now();
        let results = engine.submit_batch(specs).expect("batch").wait_all();
        let elapsed = t0.elapsed();
        let nodes_used: Vec<usize> = results
            .iter()
            .map(|r| {
                r.as_ref().expect("job completes").node_timings[0]
                    .node
                    .index()
            })
            .collect();
        (elapsed, nodes_used)
    };

    // Two interleaved measurements per topology, keeping the minimum:
    // this test shares the process with CPU-heavy siblings, and min-of-two
    // filters out a transient load spike landing on one measurement.
    let (t1a, nodes1) = run_cluster(1);
    let (t2a, nodes2) = run_cluster(2);
    let (t1b, _) = run_cluster(1);
    let (t2b, _) = run_cluster(2);
    let t1 = t1a.min(t1b);
    let t2 = t2a.min(t2b);
    assert!(nodes1.iter().all(|&n| n == 0));
    assert!(
        nodes2.contains(&1),
        "2-node cluster never used its second node: {nodes2:?}"
    );

    // eq. (4) with everything parallelisable (q_g = 0, no speculation):
    // the predicted makespan of N total iterations on s single-slot
    // machines is N·τ/s — prediction says 2 nodes strictly beat 1.
    let tau = 1e-6;
    let total_iters = (JOBS as u64 * budget) as f64;
    let pred1 = eq4_time(total_iters, 0.0, tau, tau, 1, 1, 0.0, 0.0);
    let pred2 = eq4_time(total_iters, 0.0, tau, tau, 2, 1, 0.0, 0.0);
    assert!(pred2 < pred1, "eq4 must predict a speedup from more nodes");

    // The measured ordering must agree with the prediction: more nodes is
    // no slower on a partitionable workload. The ideal ratio is 0.5; on a
    // core-starved machine concurrent nodes time-slice one CPU and the
    // ratio approaches 1.0, so the assertion is "no slower" with
    // scheduling-noise slack rather than "twice as fast".
    assert!(
        t2 <= t1.mul_f64(1.25),
        "2-node cluster slower than 1-node: {t2:?} vs {t1:?} \
         (eq4 predicted {pred2:.3}s vs {pred1:.3}s)"
    );
}
