//! Cluster execution quickstart: run jobs on the eq. (4) sharded backend.
//!
//! The paper's §VI scaling argument ends at eq. (4) — a cluster of `s`
//! machines with `t` threads each. This example drives its execution
//! counterpart: an `Engine` on a `ShardedBackend` simulating that
//! topology with per-node worker pools and one placement queue,
//! behind the exact same `JobSpec` → `JobHandle` surface as local runs.
//!
//! Run with: `cargo run --release --example cluster`
//! (`PMCMC_QUICK=1` shrinks the budget for CI smoke runs).
//!
//! Pass `--distributed` (or set `PMCMC_DISTRIBUTED=1`) to run the same
//! sweep on the *socket-backed* distributed backend instead: the example
//! stands up two in-process node daemons on loopback TCP and coordinates
//! them through the versioned wire protocol — the exact deployment shape
//! of one `node_daemon` process per machine, minus the machines.

use pmcmc::parallel::theory::eq4_time;
use pmcmc::prelude::*;

fn main() {
    let distributed = std::env::args().any(|a| a == "--distributed")
        || std::env::var_os("PMCMC_DISTRIBUTED").is_some();
    let budget: u64 = if std::env::var_os("PMCMC_QUICK").is_some() {
        5_000
    } else {
        50_000
    };

    // A synthetic scene, as in the quickstart.
    let spec = SceneSpec {
        width: 256,
        height: 256,
        n_circles: 16,
        radius_mean: 9.0,
        radius_sd: 1.0,
        radius_min: 5.0,
        radius_max: 14.0,
        noise_sd: 0.06,
        ..SceneSpec::default()
    };
    let mut rng = Xoshiro256::new(7);
    let scene = generate(&spec, &mut rng);
    let image = scene.render(&mut rng);
    let params = ModelParams::new(256, 256, 16.0, 9.0);

    // 1. Choose a backend. `Engine::new(t)` is a single machine;
    //    `Engine::sharded` simulates an s × t cluster in-process; with
    //    `--distributed`, `Engine::distributed` coordinates real node
    //    daemons over TCP sockets. Topologies also carry how many jobs a
    //    node runs at once: with `max_in_flight(1)`, jobs beyond one per
    //    node wait in the cluster's backlog instead of oversubscribing a
    //    node, and submission still returns at once.
    let topology = ClusterTopology::new(2, 2).max_in_flight(1);
    // Daemons live for the whole sweep; dropping them after main ends the
    // processes' threads with the process.
    let mut daemons: Vec<InProcessDaemon> = Vec::new();
    let engine = if distributed {
        for _ in 0..topology.nodes() {
            daemons.push(InProcessDaemon::spawn(2, 1).expect("loopback daemon starts"));
        }
        let addrs: Vec<std::net::SocketAddr> = daemons.iter().map(|d| d.addr()).collect();
        println!(
            "distributed mode: {} node daemons on {:?}",
            daemons.len(),
            addrs
        );
        Engine::with_backend(
            DistributedBackend::connect_with(
                &addrs,
                DistributedConfig {
                    max_in_flight: 1,
                    ..DistributedConfig::default()
                },
            )
            .expect("coordinator connects"),
        )
    } else {
        Engine::sharded(topology).expect("topology is valid")
    };
    println!(
        "cluster: {topology} via the `{}` backend",
        engine.backend().name()
    );

    // 2. Submit a batch exactly as on a local engine — the backend places
    //    jobs on nodes in LPT order and streams reports as they finish.
    let jobs = |n: u64| -> Vec<JobSpec> {
        (0..n)
            .map(|i| {
                JobSpec::new(StrategySpec::Sequential, image.clone(), params.clone())
                    .seed(i)
                    .iterations(budget)
            })
            .collect()
    };
    let start = std::time::Instant::now();
    let mut batch = engine.submit_batch(jobs(4)).expect("specs validate");
    while let Some((idx, result)) = batch.next_finished() {
        let report = result.expect("job completes");
        // 3. Read per-node timings: which node ran the job, how long it
        //    waited in the backlog, how long the node was busy.
        let nt = &report.node_timings[0];
        println!(
            "job {idx}: {} on {} (queued {:.1}ms, busy {:.1}ms, {} circles)",
            report.strategy,
            nt.node,
            nt.queued.as_secs_f64() * 1e3,
            nt.busy.as_secs_f64() * 1e3,
            report.detected().len()
        );
    }
    let makespan = start.elapsed().as_secs_f64();

    // 4. Compare the measured makespan against eq. (4). Calibrate the
    //    per-iteration time τ from an independent 1-node baseline run,
    //    then let the model predict the s-node makespan: the batch is
    //    fully partitionable (q_g = 0) and sequential jobs use no
    //    speculative lanes (t = 1 in the formula), so the prediction is
    //    baseline/s.
    let baseline_engine =
        Engine::sharded(ClusterTopology::new(1, 2).max_in_flight(1)).expect("topology is valid");
    let t0 = std::time::Instant::now();
    for result in baseline_engine
        .submit_batch(jobs(4))
        .expect("specs validate")
        .wait_all()
    {
        result.expect("baseline job completes");
    }
    let baseline = t0.elapsed().as_secs_f64();
    let total_iters = (4 * budget) as f64;
    let tau = baseline / total_iters;
    let predicted = eq4_time(total_iters, 0.0, tau, tau, topology.nodes(), 1, 0.0, 0.0);
    println!(
        "batch makespan {:.1}ms on {} nodes vs eq4 prediction {:.1}ms \
         (from a {:.1}ms 1-node baseline; close on an idle multi-core \
         host, while a core-starved host time-slices the nodes back \
         toward the baseline)",
        makespan * 1e3,
        topology.nodes(),
        predicted * 1e3,
        baseline * 1e3
    );

    // 5. Striping ONE job: blind partitioning with one column per node
    //    (`blind:cols=2,rows=1`). Its stripes fan out over the engine's
    //    workers, and their detections are merged at the seam by the blind
    //    duplicate-clustering path.
    let engine = Engine::new(4).expect("worker count is valid");
    let striped: StrategySpec = "blind:cols=2,rows=1".parse().expect("registered spelling");
    let report = engine
        .submit(
            JobSpec::new(striped, image.clone(), params.clone())
                .seed(7)
                .iterations(budget),
        )
        .expect("spec validates")
        .wait()
        .expect("striped job completes");
    println!(
        "striped run: {} stripes merged into {} detections (validity: {})",
        report.diagnostics.partitions,
        report.detected().len(),
        report.validity.label()
    );
    let truth = match_circles(&scene.circles, report.detected(), 5.0);
    println!(
        "striped-run quality vs ground truth: F1 {:.3} ({} planted)",
        truth.f1(),
        scene.circles.len()
    );
}
