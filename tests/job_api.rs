//! Contract tests for the typed job API: `JobSpec` validation, live
//! observer events, cooperative cancellation (without poisoning the
//! shared pool), deadlines, batch streaming, and the one result each job
//! delivers.

use pmcmc::parallel::job::backend::PreparedJob;
use pmcmc::prelude::*;
use std::sync::{Arc, Mutex};
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

#[test]
fn invalid_specs_are_rejected_up_front() {
    let (img, params) = workload(64, 3, 1);
    let engine = Engine::new(2).unwrap();

    // Worker count 0.
    assert!(matches!(Engine::new(0), Err(RunError::InvalidSpec(_))));

    // Zero iteration budget.
    let zero = JobSpec::new(StrategySpec::Sequential, img.clone(), params.clone()).iterations(0);
    assert!(matches!(zero.validate(), Err(RunError::InvalidSpec(_))));
    let zero = JobSpec::new(StrategySpec::Sequential, img.clone(), params.clone()).iterations(0);
    assert!(matches!(engine.submit(zero), Err(RunError::InvalidSpec(_))));

    // Empty image.
    let empty = JobSpec::new(
        StrategySpec::Sequential,
        GrayImage::filled(0, 0, 0.0),
        params.clone(),
    );
    assert!(matches!(
        engine.submit(empty),
        Err(RunError::InvalidSpec(_))
    ));

    // Image / parameter dimension mismatch.
    let mismatched = JobSpec::new(
        StrategySpec::Sequential,
        img,
        ModelParams::new(32, 32, 3.0, 8.0),
    );
    assert!(matches!(
        engine.submit(mismatched),
        Err(RunError::InvalidSpec(_))
    ));

    // A bad batch starts nothing.
    let (img2, params2) = workload(64, 3, 2);
    let batch = engine.submit_batch(vec![
        JobSpec::new(StrategySpec::Sequential, img2.clone(), params2.clone()).iterations(500),
        JobSpec::new(StrategySpec::Sequential, img2, params2).iterations(0),
    ]);
    assert!(matches!(batch, Err(RunError::InvalidSpec(_))));
}

#[test]
fn cancellation_stops_a_running_job_without_poisoning_the_pool() {
    let (img, params) = workload(96, 5, 3);
    let engine = Engine::new(2).unwrap();

    // A job whose budget is far beyond what could finish quickly.
    let budget = 200_000_000u64;
    let handle = engine
        .submit(
            JobSpec::new(StrategySpec::Sequential, img.clone(), params.clone())
                .seed(5)
                .iterations(budget)
                .progress_stride(256),
        )
        .unwrap();

    // Wait until the chain demonstrably runs, then pull the plug.
    let first = handle.events().recv().expect("job emits events");
    assert_eq!(first, Event::PhaseStarted { phase: "chain" });
    let _ = handle.events().recv().expect("progress while running");
    handle.cancel();
    match handle.wait() {
        Err(RunError::Cancelled {
            completed_iterations,
        }) => {
            assert!(completed_iterations > 0, "chain never ran");
            assert!(
                completed_iterations < budget,
                "cancellation did not stop early"
            );
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }

    // The shared pool must survive: the same engine runs a fresh job to
    // completion afterwards.
    let report = engine
        .submit(
            JobSpec::new(
                StrategySpec::Periodic(PeriodicOptions::default()),
                img,
                params,
            )
            .seed(5)
            .iterations(2_000),
        )
        .unwrap()
        .wait()
        .expect("pool still serves jobs after a cancellation");
    assert!(report.iterations >= 2_000);
}

#[test]
fn cancellation_stops_partition_schemes_mid_phase() {
    // Partition chains poll the token at every convergence stride, so a
    // cancel lands *inside* the chains phase — long before the per-chain
    // iteration caps are reached.
    let (img, params) = workload(128, 6, 4);
    let engine = Engine::new(2).unwrap();
    let handle = engine
        .submit(
            JobSpec::new(StrategySpec::Blind(BlindOptions::default()), img, params)
                .seed(9)
                .iterations(200_000_000),
        )
        .unwrap();
    // First phase event proves the job is inside run_blind.
    assert_eq!(
        handle.events().recv().expect("job emits events"),
        Event::PhaseStarted { phase: "chains" }
    );
    handle.cancel();
    match handle.wait() {
        Err(RunError::Cancelled { .. }) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
}

#[test]
fn a_job_cancelled_while_queued_stops_before_its_first_stride() {
    let (img, params) = workload(64, 3, 29);
    let engine = Engine::new(1).unwrap();
    let long = engine
        .submit(
            JobSpec::new(StrategySpec::Sequential, img.clone(), params.clone())
                .seed(1)
                .iterations(200_000_000)
                .progress_stride(256),
        )
        .unwrap();
    // The long job holds the engine's only worker…
    assert_eq!(
        long.events().recv().expect("job emits events"),
        Event::PhaseStarted { phase: "chain" }
    );
    // …so this one waits in the backlog, and is cancelled there.
    let queued = engine
        .submit(
            JobSpec::new(StrategySpec::Sequential, img, params)
                .seed(2)
                .iterations(50_000),
        )
        .unwrap();
    queued.cancel();
    long.cancel();
    assert!(matches!(long.wait(), Err(RunError::Cancelled { .. })));
    assert_eq!(
        queued.wait().unwrap_err(),
        RunError::Cancelled {
            completed_iterations: 0
        },
        "a job cancelled before it started must not run a stride"
    );
}

#[test]
fn a_large_batch_runs_at_most_pool_width_jobs_at_once() {
    let (img, params) = workload(48, 2, 31);
    let engine = Engine::new(2).unwrap();
    // The first two jobs hold the engine's two workers, without using
    // the cores, until submission has returned; the rest wait behind them.
    let gate = Arc::new(std::sync::RwLock::new(()));
    let closed = gate.write().unwrap();
    // Each job's first and last event, stamped on its worker.
    type Span = Arc<Mutex<Option<(Instant, Instant)>>>;
    let spans: Vec<Span> = (0..1_000).map(|_| Span::default()).collect();
    let specs: Vec<JobSpec> = (0..1_000)
        .map(|seed| {
            let (gate, span) = (Arc::clone(&gate), Arc::clone(&spans[seed as usize]));
            JobSpec::new(StrategySpec::Sequential, img.clone(), params.clone())
                .seed(seed)
                .iterations(10_000)
                .observer(move |_| {
                    let now = Instant::now();
                    let mut span = span.lock().unwrap();
                    *span = Some((span.map_or(now, |(first, _)| first), now));
                    drop(span);
                    if seed < 2 {
                        drop(gate.read());
                    }
                })
        })
        .collect();
    let before = Instant::now();
    let batch = engine.submit_batch(specs).unwrap();
    assert!(
        !batch.handles().iter().any(JobHandle::is_finished),
        "submit_batch returned only after a job had finished"
    );
    drop(closed);
    let results = batch.wait_all();

    // A job's run starts after its stamp, which is no earlier than
    // `before`, plus `queued`, and lasts `busy`; its events fall inside the
    // run. So from its first event to the later of its last event and
    // `before + queued + busy`, the job was running.
    let mut edges = Vec::new();
    for (result, span) in results.into_iter().zip(&spans) {
        let timing = &result.expect("batch job completes").node_timings[0];
        let (first, last) = span.lock().unwrap().expect("the job emitted events");
        edges.push((first, 1i32));
        edges.push((last.max(before + timing.queued + timing.busy), -1));
    }
    edges.sort_unstable();
    let (mut running, mut most) = (0, 0);
    for (_, step) in edges {
        running += step;
        most = most.max(running);
    }
    assert!(most <= 2, "{most} jobs ran at once on a 2-thread engine");
    // The topology reports that bound: one node running pool-width jobs.
    let topology = engine.backend().topology();
    assert_eq!(
        (topology.nodes(), topology.max_in_flight_per_node()),
        (1, 2)
    );
}

#[test]
fn observer_events_are_ordered_and_progress_is_monotone() {
    let (img, params) = workload(96, 5, 7);
    let engine = Engine::new(3).unwrap();
    let events: std::sync::Arc<Mutex<Vec<Event>>> = std::sync::Arc::default();
    let sink = std::sync::Arc::clone(&events);
    let report = engine
        .submit(
            JobSpec::new(
                StrategySpec::Periodic(PeriodicOptions::default()),
                img,
                params,
            )
            .seed(11)
            .iterations(6_000)
            .progress_stride(512)
            .checkpoint_interval(1_500)
            .observer(move |ev| sink.lock().unwrap().push(ev.clone())),
        )
        .unwrap()
        .wait()
        .expect("job completes");

    let events = events.lock().unwrap();
    assert!(
        matches!(events.first(), Some(Event::PhaseStarted { .. })),
        "first event must open a phase, got {:?}",
        events.first()
    );
    let progress: Vec<(u64, u64)> = events
        .iter()
        .filter_map(|e| match e {
            Event::Progress { done, total } => Some((*done, *total)),
            _ => None,
        })
        .collect();
    assert!(!progress.is_empty(), "no progress events observed");
    for pair in progress.windows(2) {
        assert!(pair[1].0 >= pair[0].0, "progress not monotone: {pair:?}");
    }
    let (final_done, total) = *progress.last().unwrap();
    assert_eq!(total, 6_000);
    assert!(final_done >= total, "job finished below its budget");
    assert_eq!(
        final_done, report.iterations,
        "progress disagrees with report"
    );

    let checkpoints: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            Event::Checkpoint { iterations, .. } => Some(*iterations),
            _ => None,
        })
        .collect();
    assert!(!checkpoints.is_empty(), "no checkpoints observed");
    for pair in checkpoints.windows(2) {
        assert!(pair[1] > pair[0], "checkpoints not increasing: {pair:?}");
    }
}

#[test]
fn handle_channel_streams_the_same_events_as_the_observer() {
    let (img, params) = workload(64, 3, 13);
    let engine = Engine::new(2).unwrap();
    let handle = engine
        .submit(
            JobSpec::new(StrategySpec::Sequential, img, params)
                .seed(3)
                .iterations(2_000)
                .progress_stride(500),
        )
        .unwrap();
    let mut streamed = Vec::new();
    while let Ok(ev) = handle.events().recv() {
        streamed.push(ev);
    }
    assert_eq!(
        streamed.first(),
        Some(&Event::PhaseStarted { phase: "chain" })
    );
    assert_eq!(
        streamed
            .iter()
            .filter(|e| matches!(e, Event::Progress { .. }))
            .count(),
        4,
        "2000 iterations at stride 500"
    );
    assert!(handle.wait().is_ok());
}

#[test]
fn deadline_is_a_structured_error() {
    let (img, params) = workload(96, 5, 17);
    let engine = Engine::new(2).unwrap();
    let result = engine
        .submit(
            JobSpec::new(StrategySpec::Sequential, img, params)
                .seed(1)
                .iterations(200_000_000)
                .progress_stride(256)
                .deadline(Duration::from_millis(50)),
        )
        .unwrap()
        .wait();
    match result {
        Err(RunError::DeadlineExceeded {
            completed_iterations,
        }) => assert!(completed_iterations < 200_000_000),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

#[test]
fn batch_streams_reports_as_jobs_finish() {
    let (img, params) = workload(96, 5, 19);
    let engine = Engine::new(4).unwrap();
    // Deliberately unequal budgets so completion order differs from
    // submission order.
    let budgets = [9_000u64, 1_000, 4_000];
    let specs: Vec<JobSpec> = budgets
        .iter()
        .map(|&iters| {
            JobSpec::new(StrategySpec::Sequential, img.clone(), params.clone())
                .seed(iters)
                .iterations(iters)
        })
        .collect();
    let mut batch = engine.submit_batch(specs).unwrap();
    assert_eq!(batch.len(), 3);

    let mut seen = Vec::new();
    while let Some((idx, result)) = batch.next_finished() {
        let report = result.expect("batch job completes");
        assert_eq!(report.iterations, budgets[idx]);
        seen.push(idx);
    }
    assert_eq!(seen.len(), 3);
    let mut sorted = seen.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, vec![0, 1, 2], "every job reported exactly once");
}

#[test]
fn batch_wait_all_returns_submission_order() {
    let (img, params) = workload(64, 3, 23);
    let engine = Engine::new(2).unwrap();
    let strategies = [
        StrategySpec::Sequential,
        StrategySpec::Speculative { lanes: 2 },
    ];
    let batch = engine
        .submit_batch(
            strategies
                .iter()
                .map(|&s| {
                    JobSpec::new(s, img.clone(), params.clone())
                        .seed(2)
                        .iterations(1_500)
                })
                .collect(),
        )
        .unwrap();
    let results = batch.wait_all();
    assert_eq!(results.len(), 2);
    for (result, spec) in results.iter().zip(strategies.iter()) {
        assert_eq!(result.as_ref().unwrap().strategy, spec.name());
    }
}

#[test]
fn wait_all_after_a_streamed_drain_returns_every_report_again() {
    let (img, params) = workload(64, 3, 29);
    let engine = Engine::new(2).unwrap();
    let specs = (0..3)
        .map(|seed| {
            JobSpec::new(StrategySpec::Sequential, img.clone(), params.clone())
                .seed(seed)
                .iterations(1_500)
        })
        .collect();
    let mut batch = engine.submit_batch(specs).unwrap();
    // `Debug` prints every field, timings included, and every f64 exactly.
    let mut streamed = vec![None; 3];
    while let Some((idx, result)) = batch.next_finished() {
        streamed[idx] = Some(format!("{:?}", result.expect("batch job completes")));
    }
    let results = batch.wait_all();
    assert_eq!(results.len(), 3);
    for (idx, result) in results.iter().enumerate() {
        let report = result.as_ref().expect("wait_all keeps the streamed report");
        assert_eq!(Some(format!("{report:?}")), streamed[idx], "job {idx}");
    }
}

/// A backend that drops every job it is handed without running it.
struct DropsEveryJob(Arc<WorkerPool>);

impl ExecutionBackend for DropsEveryJob {
    fn name(&self) -> &'static str {
        "drops-every-job"
    }

    fn topology(&self) -> ClusterTopology {
        ClusterTopology::new(1, self.0.threads())
    }

    fn primary_pool(&self) -> &Arc<WorkerPool> {
        &self.0
    }

    fn launch(&self, job: PreparedJob) -> Result<(), RunError> {
        drop(job);
        Ok(())
    }
}

#[test]
fn a_job_its_backend_drops_resolves_as_dropped() {
    let (img, params) = workload(48, 2, 31);
    let engine = Engine::with_backend(DropsEveryJob(WorkerPool::shared(1)));
    let spec =
        || JobSpec::new(StrategySpec::Sequential, img.clone(), params.clone()).iterations(1_000);
    let dropped =
        RunError::Panicked("job was dropped by its backend without reporting a result".to_owned());

    assert_eq!(engine.submit(spec()).unwrap().wait().unwrap_err(), dropped);

    let mut batch = engine.submit_batch(vec![spec(), spec(), spec()]).unwrap();
    assert!(batch.next_finished().is_none(), "nothing was streamed");
    let results = batch.wait_all();
    assert_eq!(results.len(), 3);
    for result in results {
        assert_eq!(result.unwrap_err(), dropped);
    }
}

#[test]
fn strategy_spec_round_trips_through_cli_spelling() {
    for spec in StrategySpec::all() {
        let spelled = spec.to_string();
        let reparsed: StrategySpec = spelled.parse().expect("canonical spelling parses");
        assert_eq!(reparsed, spec, "round-trip of `{spelled}`");
    }
    assert!(matches!(
        "tachyonic".parse::<StrategySpec>(),
        Err(RunError::UnknownStrategy(_))
    ));
}
