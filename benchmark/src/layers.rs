//! Per-layer metrics, all measured from outside the program: values the
//! traced units' reports and counters already carry, and micro-timings of
//! public functions on the workload's own image, configuration and report.

use crate::stats::{median, tail};
use crate::trace::{uncovered_ns, Trace};
use crate::workload::{Rig, Unit};
use pmcmc_core::coverage::CoverageGrid;
use pmcmc_core::{
    Configuration, Edit, NucleiModel, PerfSnapshot, Sampler, TileWorkspace, Xoshiro256,
};
use pmcmc_imaging::{corner_tiles, Circle, Rect};
use pmcmc_parallel::engine::RunReport;
use pmcmc_parallel::job::wire::{Assign, JobBlueprint, JobResult, WireReport};
use pmcmc_runtime::net::FrameConn;
use pmcmc_runtime::wire::{read_frame, write_frame, FrameKind, Wire};
use pmcmc_runtime::{lpt_order, PoolStats, SpinTeam, WorkerPool};
use std::hint::black_box;
use std::time::{Duration, Instant};

pub type Metrics = Vec<(&'static str, f64)>;

/// One traced unit with what was read around it.
pub struct TracedUnit {
    pub unit: Unit,
    /// Process-wide perf counters spent during the unit.
    pub perf: PerfSnapshot,
    /// The engine's primary pool before and after the unit.
    pub pool: (PoolStats, PoolStats),
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

fn reports(unit: &Unit) -> impl Iterator<Item = &RunReport> {
    unit.results.iter().filter_map(|r| r.as_ref().ok())
}

/// Queue wait and busy time of a job, in seconds.
fn queued_busy(report: &RunReport) -> (f64, f64) {
    let (queued, busy) = crate::trace::queued_busy(report);
    (queued.as_secs_f64(), busy.as_secs_f64())
}

fn phase_s(report: &RunReport, name: &str) -> f64 {
    report.phase(name).map_or(0.0, |d| d.as_secs_f64())
}

/// Registry name of each scheme, its wall-share metric, and its F1 metric
/// where the scheme has no workload of its own to report one.
const SCHEMES: [(&str, &str, Option<&str>); 6] = [
    ("sequential", "parallel.sequential.wall_share", None),
    ("periodic", "parallel.periodic.wall_share", None),
    (
        "speculative",
        "parallel.speculative.wall_share",
        Some("parallel.speculative.f1"),
    ),
    (
        "mc3",
        "parallel.mc3par.wall_share",
        Some("parallel.mc3par.f1"),
    ),
    (
        "intelligent",
        "parallel.intelligent.wall_share",
        Some("parallel.intelligent.f1"),
    ),
    (
        "blind",
        "parallel.blind.wall_share",
        Some("parallel.blind.f1"),
    ),
];

/// Metrics read off the traced units: spans, reports, counters.
pub fn unit_metrics(
    rig: &Rig,
    trace: &Trace,
    traced: &[TracedUnit],
    untraced_wall_s: &[f64],
) -> Metrics {
    let mut out: Metrics = Vec::new();
    let per_unit = |f: &dyn Fn(&TracedUnit) -> f64| -> f64 {
        median(&traced.iter().map(f).collect::<Vec<_>>())
    };
    let per_job = |f: &dyn Fn(&RunReport) -> f64| -> Vec<f64> {
        traced
            .iter()
            .flat_map(|t| reports(&t.unit))
            .map(f)
            .collect()
    };

    // parallel.job: the engine, handles and backends as the caller sees them.
    out.push((
        "parallel.job.submit_ms",
        per_unit(&|t| t.unit.submit_s * 1e3),
    ));
    let queued_ms = per_job(&|r| queued_busy(r).0 * 1e3);
    let busy_ms = per_job(&|r| queued_busy(r).1 * 1e3);
    out.push(("parallel.job.queued_ms.p50", median(&queued_ms)));
    out.push(("parallel.job.queued_ms.p95", tail(&queued_ms, 0.95)));
    out.push(("parallel.job.busy_ms.p50", median(&busy_ms)));
    out.push(("parallel.job.busy_ms.p95", tail(&busy_ms, 0.95)));
    // A batch's results can only be taken once `submit_batch` has returned,
    // and on a backend with bounded admission it returns when the last job
    // has been admitted: this is what a caller streaming results waits for.
    out.push((
        "parallel.job.first_result_ms",
        per_unit(&|t| {
            let first = t.unit.stamps.iter().map(|s| s.done_ns).min();
            first.map_or(0.0, |done| (done - t.unit.start_ns) as f64 / 1e6)
        }),
    ));
    out.push((
        "parallel.job.node_busy_imbalance",
        per_unit(&|t| {
            let mut per_node: Vec<f64> = Vec::new();
            for timing in reports(&t.unit).flat_map(|r| &r.node_timings) {
                let node = timing.node.index();
                per_node.resize(per_node.len().max(node + 1), 0.0);
                per_node[node] += timing.busy.as_secs_f64();
            }
            let mean = per_node.iter().sum::<f64>() / per_node.len().max(1) as f64;
            ratio(per_node.iter().copied().fold(0.0, f64::max), mean)
        }),
    ));
    // The part of a unit's wall time that no job spent queued or busy:
    // validation, model build, thread spawn, codecs, sockets, hand-back.
    let unattributed_ns = |t: &TracedUnit| -> f64 {
        let covered = t
            .unit
            .stamps
            .iter()
            .zip(&t.unit.results)
            .filter_map(|(s, r)| {
                let (queued, busy) = queued_busy(r.as_ref().ok()?);
                Some((s.submit_ns, s.submit_ns + ((queued + busy) * 1e9) as u64))
            });
        uncovered_ns(t.unit.start_ns, t.unit.end_ns, covered.collect()) as f64
    };
    out.push((
        "parallel.job.unattributed_ms",
        per_unit(&|t| unattributed_ns(t) / 1e6),
    ));
    out.push((
        "parallel.job.unattributed_share",
        per_unit(&|t| ratio(unattributed_ns(t), (t.unit.end_ns - t.unit.start_ns) as f64)),
    ));
    out.push((
        "parallel.job.ns_per_budget_iter",
        per_unit(&|t| t.unit.wall_s * 1e9 / rig.workload.budget() as f64),
    ));

    // Per scheme: its share of the unit's busy time and its own F1.
    for (scheme, wall_share, f1) in SCHEMES {
        let of_scheme = |r: &&RunReport| r.strategy == scheme;
        out.push((
            wall_share,
            per_unit(&|t| {
                let busy = |r: &RunReport| queued_busy(r).1;
                let all: f64 = reports(&t.unit).map(busy).sum();
                ratio(reports(&t.unit).filter(of_scheme).map(busy).sum(), all)
            }),
        ));
        if let Some(f1) = f1 {
            // Detections repeat between units, so the first one speaks for all.
            let first = traced.first().map(|t| &t.unit);
            let scores: Vec<f64> = first
                .into_iter()
                .flat_map(|unit| rig.plan.iter().zip(&unit.results))
                .filter_map(|(job, r)| Some((job, r.as_ref().ok()?)))
                .filter(|(_, r)| r.strategy == scheme)
                .map(|(job, r)| crate::check::f1(&rig.scenes[job.scene].truth, r.detected()))
                .collect();
            out.push((f1, ratio(scores.iter().sum(), scores.len() as f64)));
        }
    }
    let of = |scheme: &'static str, f: &dyn Fn(&RunReport) -> f64| -> f64 {
        let jobs = traced.iter().flat_map(|t| reports(&t.unit));
        median(
            &jobs
                .filter(|r| r.strategy == scheme)
                .map(f)
                .collect::<Vec<_>>(),
        )
    };
    let total = |r: &RunReport| r.total_time.as_secs_f64();
    out.push((
        "parallel.periodic.global_share",
        of("periodic", &|r| ratio(phase_s(r, "global"), total(r))),
    ));
    out.push((
        "parallel.periodic.overhead_share",
        of("periodic", &|r| ratio(phase_s(r, "overhead"), total(r))),
    ));
    out.push((
        "parallel.periodic.cycles",
        of("periodic", &|r| {
            let note = r
                .diagnostics
                .notes
                .iter()
                .find_map(|n| n.strip_prefix("cycles="));
            note.and_then(|n| n.parse().ok()).unwrap_or(0.0)
        }),
    ));
    out.push((
        "parallel.periodic.max_tiles",
        of("periodic", &|r| r.diagnostics.partitions as f64),
    ));
    out.push((
        "parallel.speculative.rounds_per_kiter",
        of("speculative", &|r| {
            let rounds = r.diagnostics.perf.map_or(0, |p| p.spec_rounds);
            ratio(rounds as f64 * 1e3, r.iterations as f64)
        }),
    ));
    out.push((
        "parallel.intelligent.preprocess_share",
        of("intelligent", &|r| {
            ratio(phase_s(r, "preprocess"), total(r))
        }),
    ));
    out.push((
        "parallel.intelligent.partitions",
        of("intelligent", &|r| r.diagnostics.partitions as f64),
    ));
    out.push((
        "parallel.blind.merge_share",
        of("blind", &|r| ratio(phase_s(r, "merge"), total(r))),
    ));

    // core.perf / core.sampler: work counts of the first traced unit; every
    // unit does the same work, so they repeat exactly for a seed.
    if let Some(t) = traced.first() {
        let p = &t.perf;
        let proposals = p.proposals_evaluated as f64;
        let iterations: f64 = reports(&t.unit).map(|r| r.iterations as f64).sum();
        out.push((
            "core.sampler.proposals_per_iter",
            ratio(proposals, iterations),
        ));
        out.push((
            "core.perf.pixels_per_proposal",
            ratio(p.pixels_visited as f64, proposals),
        ));
        out.push((
            "core.perf.pixels_skipped_per_proposal",
            ratio(p.pixels_skipped as f64, proposals),
        ));
        out.push((
            "core.perf.simd_lanes_per_proposal",
            ratio(p.simd_lanes_processed as f64, proposals),
        ));
        out.push((
            "core.perf.fastpath_hits_per_proposal",
            ratio(p.span_fastpath_hits as f64, proposals),
        ));
        out.push((
            "core.perf.pair_cache_hit_ratio",
            ratio(p.pair_cache_hits as f64, p.pair_count_queries as f64),
        ));
        out.push((
            "core.perf.rng_refills_per_kiter",
            ratio(p.rng_refills as f64 * 1e3, iterations),
        ));
        let rates: Vec<f64> = reports(&t.unit)
            .filter_map(|r| r.diagnostics.acceptance_rate)
            .collect();
        out.push((
            "core.sampler.acceptance_rate",
            ratio(rates.iter().sum(), rates.len() as f64),
        ));
        out.push((
            "runtime.pool.tasks_run",
            (t.pool.1.tasks - t.pool.0.tasks) as f64,
        ));
    }
    out.push((
        "runtime.team.spin_wait_share",
        per_unit(&|t| ratio(t.perf.spin_wait_ns as f64, t.unit.wall_s * 1e9)),
    ));
    out.push((
        "runtime.pool.busy_share",
        per_unit(&|t| {
            let busy = (t.pool.1.busy_nanos - t.pool.0.busy_nanos) as f64;
            ratio(
                busy,
                rig.engine.pool().threads() as f64 * t.unit.wall_s * 1e9,
            )
        }),
    ));

    out.push((
        "imaging.synth.scene_ms",
        rig.scene_gen_s * 1e3 / rig.scenes.len() as f64,
    ));
    let traced_wall = per_unit(&|t| t.unit.wall_s);
    out.push((
        "trace.overhead_ratio",
        ratio(traced_wall, median(untraced_wall_s)),
    ));
    out.push(("trace.spans", trace.spans().len() as f64));
    out
}

/// Best-of-five batched timing, as `kernel_micro_rows` of the legacy bench
/// does it: the fastest batch is the one the scheduler disturbed least.
fn best_ns_per_call(batch: u32, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        best = best.min(t.elapsed().as_nanos() as f64 / f64::from(batch));
    }
    best
}

/// Micro-timings of public functions on one scene of the workload, the final
/// configuration a job reached on it, and that job's report.
pub fn micro_metrics(
    rig: &Rig,
    job: usize,
    report: &RunReport,
    workers: usize,
) -> Result<Metrics, String> {
    let plan = &rig.plan[job];
    let scene = &rig.scenes[plan.scene];
    let (width, height) = (scene.image.width(), scene.image.height());
    let pixels = f64::from(width) * f64::from(height);
    // Keep each timing near a millisecond per batch whatever the image size.
    let scaled = |per_megapixel: f64| ((per_megapixel * 1e6 / pixels) as u32).clamp(1, 4096);
    let mut out: Metrics = Vec::new();

    // core.model
    let build_ns = best_ns_per_call(scaled(2.0), || {
        black_box(NucleiModel::new(
            black_box(&scene.image),
            scene.params.clone(),
        ));
    });
    out.push(("core.model.build_ms", build_ns / 1e6));
    out.push(("core.model.build_ns_per_px", build_ns / pixels));
    let model = NucleiModel::new(&scene.image, scene.params.clone());

    // core.sampler: a fresh chain, as a job runs it.
    let iterations = plan.iterations.min(100_000);
    let chain_ns = best_ns_per_call(scaled(0.25).min(8), || {
        let mut sampler = Sampler::new(&model, plan.seed);
        sampler.run(iterations);
        black_box(sampler.config.len());
    });
    out.push(("core.sampler.ns_per_iter", chain_ns / iterations as f64));

    // core.config on the configuration the job converged to.
    let circles = report.detected();
    let first = *circles
        .first()
        .ok_or("the job detected nothing to time moves on")?;
    out.push((
        "core.config.from_circles_ms",
        best_ns_per_call(scaled(4.0), || {
            black_box(Configuration::from_circles(&model, black_box(circles)));
        }) / 1e6,
    ));
    let mut config = Configuration::from_circles(&model, circles);
    let birth = Edit::add_one(Circle::new(
        f64::from(width) * 0.157,
        f64::from(height) * 0.823,
        scene.params.radius_prior.mu * 0.93,
    ));
    let moved = Edit::replace_one(0, Circle::new(first.x + 1.3, first.y - 0.7, first.r));
    out.push((
        "core.config.delta_birth_ns",
        best_ns_per_call(256, || {
            black_box(config.delta_log_lik_readonly(black_box(&birth), &model));
        }),
    ));
    out.push((
        "core.config.delta_move_ns",
        best_ns_per_call(256, || {
            black_box(config.delta_log_lik_readonly(black_box(&moved), &model));
        }),
    ));
    out.push((
        "core.config.apply_revert_move_ns",
        best_ns_per_call(256, || {
            let receipt = config.apply(black_box(&moved), &model);
            config.revert(&receipt, &model);
        }),
    ));

    // core.coverage / core.simd: the kernels every row update decomposes into.
    let frame = Rect::of_image(width, height);
    let probe = Circle::new(
        f64::from(width) * 0.5 + 0.3,
        f64::from(height) * 0.5 - 0.4,
        10.4,
    );
    let mut sparse = CoverageGrid::new(frame);
    out.push((
        "core.coverage.add_remove_sparse_ns",
        best_ns_per_call(256, || {
            black_box(sparse.add_circle(&probe, &model.gain));
            black_box(sparse.remove_circle(&probe, &model.gain));
        }),
    ));
    // The probe sits under a clump, so counts stay mixed and rows take the
    // lane kernels instead of the occupancy fast path.
    let clump: Vec<Circle> = (0..6)
        .map(|i| {
            Circle::new(
                probe.x - 8.0 + f64::from(i) * 3.0,
                probe.y - 2.0 + f64::from(i % 3) * 4.0,
                11.0,
            )
        })
        .collect();
    let (mut dense, _) = CoverageGrid::from_circles(frame, &clump, &model.gain);
    out.push((
        "core.coverage.add_remove_dense_ns",
        best_ns_per_call(256, || {
            black_box(dense.add_circle(&probe, &model.gain));
            black_box(dense.remove_circle(&probe, &model.gain));
        }),
    ));
    let mut counts: Vec<u16> = (0..64u16).map(|k| k % 3).collect();
    let gains: Vec<f64> = (0..64).map(|k| f64::from(k) * 0.01 - 0.3).collect();
    out.push((
        "core.simd.inc_dec_64_ns",
        best_ns_per_call(4096, || {
            black_box(pmcmc_core::simd::inc_counts(black_box(&mut counts)));
            black_box(pmcmc_core::simd::dec_counts(black_box(&mut counts)));
        }),
    ));
    out.push((
        "core.simd.sum_gain_flips_64_ns",
        best_ns_per_call(4096, || {
            black_box(pmcmc_core::simd::sum_gain_flips(
                black_box(&counts),
                black_box(&gains),
                -2,
            ));
        }),
    ));

    // core.tile: one periodic local phase on four corner tiles, by hand.
    let tiles = corner_tiles(
        width,
        height,
        i64::from(width) * 2 / 5,
        i64::from(height) * 11 / 20,
    );
    const LOCAL_ITERS: u64 = 128;
    let (mut duplicate_ns, mut local_ns, mut merge_ns) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for round in 0..5 {
        let mut master = config.clone();
        let t0 = Instant::now();
        let mut workspaces: Vec<TileWorkspace> = tiles
            .iter()
            .map(|&rect| TileWorkspace::new(&master, &model, rect))
            .collect();
        let t1 = Instant::now();
        for (i, ws) in workspaces.iter_mut().enumerate() {
            let mut rng = Xoshiro256::new(plan.seed ^ (round * 4 + i as u64));
            ws.run_local(LOCAL_ITERS, 0.5, &model, &mut rng);
        }
        let t2 = Instant::now();
        for ws in &workspaces {
            master.absorb_tile(ws);
        }
        let t3 = Instant::now();
        master.verify_consistency(&model)?;
        duplicate_ns = duplicate_ns.min((t1 - t0).as_nanos() as f64);
        local_ns = local_ns.min((t2 - t1).as_nanos() as f64);
        merge_ns = merge_ns.min((t3 - t2).as_nanos() as f64);
    }
    out.push(("core.tile.duplicate_us", duplicate_ns / 1e3));
    out.push((
        "core.tile.local_ns_per_iter",
        local_ns / (4 * LOCAL_ITERS) as f64,
    ));
    out.push(("core.tile.merge_us", merge_ns / 1e3));
    out.push((
        "core.tile.overhead_ratio",
        ratio(duplicate_ns + merge_ns, duplicate_ns + merge_ns + local_ns),
    ));

    // runtime: pool dispatch, LPT ordering, spin-team broadcast.
    let pool = WorkerPool::new(workers);
    out.push((
        "runtime.pool.dispatch_us",
        best_ns_per_call(64, || {
            black_box(pool.run_batch((0..workers).map(|i| (1.0, move || i)).collect()));
        }) / 1e3,
    ));
    drop(pool);
    let weights: Vec<f64> = (0..256).map(|i| f64::from((i * 37) % 101)).collect();
    out.push((
        "runtime.scheduler.lpt_order_us.256",
        best_ns_per_call(64, || {
            black_box(lpt_order(black_box(&weights)));
        }) / 1e3,
    ));
    let team = SpinTeam::new(workers);
    out.push((
        "runtime.team.broadcast_ns",
        best_ns_per_call(1024, || {
            team.broadcast(|member| {
                black_box(member);
            })
        }),
    ));
    drop(team);

    // parallel.job.wire: the two payloads a distributed job costs.
    let assign = Assign {
        job: 1,
        blueprint: JobBlueprint {
            strategy: plan.strategy,
            image: scene.image.clone(),
            params: scene.params.clone(),
            seed: plan.seed,
            iterations: plan.iterations,
            remaining_deadline: None,
            checkpoint_interval: None,
            progress_stride: 1024,
            queued_so_far: Duration::ZERO,
        },
    };
    let assign_bytes = assign.to_wire_bytes();
    let result = JobResult {
        job: 1,
        outcome: Ok(WireReport::from_report(report)),
    };
    let result_bytes = result.to_wire_bytes();
    let codec_batch = scaled(4.0);
    let assign_encode = best_ns_per_call(codec_batch, || {
        black_box(black_box(&assign).to_wire_bytes());
    });
    let assign_decode = best_ns_per_call(codec_batch, || {
        black_box(Assign::from_wire_bytes(black_box(&assign_bytes)).is_ok());
    });
    let result_encode = best_ns_per_call(1024, || {
        black_box(black_box(&result).to_wire_bytes());
    });
    let result_decode = best_ns_per_call(1024, || {
        black_box(JobResult::from_wire_bytes(black_box(&result_bytes)).is_ok());
    });
    let wire_report = WireReport::from_report(report);
    let into_report = best_ns_per_call(scaled(2.0), || {
        black_box(wire_report.clone().into_report(&scene.image, &scene.params));
    });
    out.push(("parallel.job.wire.assign_encode_us", assign_encode / 1e3));
    out.push(("parallel.job.wire.assign_decode_us", assign_decode / 1e3));
    out.push(("parallel.job.wire.assign_bytes", assign_bytes.len() as f64));
    out.push(("parallel.job.wire.result_encode_us", result_encode / 1e3));
    out.push(("parallel.job.wire.result_decode_us", result_decode / 1e3));
    out.push(("parallel.job.wire.result_bytes", result_bytes.len() as f64));
    out.push(("parallel.job.wire.into_report_us", into_report / 1e3));

    // runtime.wire / runtime.net: framing in memory, then over loopback TCP.
    let small = vec![0x5a_u8; 64];
    let large = vec![0x5a_u8; 256 * 1024];
    let mut buffer = Vec::with_capacity(large.len() + 8);
    let mut in_memory = |payload: &[u8]| -> Result<(), String> {
        buffer.clear();
        write_frame(&mut buffer, FrameKind::Result, payload).map_err(|e| e.to_string())?;
        let frame = read_frame(&mut buffer.as_slice()).map_err(|e| e.to_string())?;
        black_box(frame.payload.len());
        Ok(())
    };
    in_memory(&small)?;
    out.push((
        "runtime.wire.frame_roundtrip_ns",
        best_ns_per_call(4096, || {
            let _ = in_memory(&small);
        }),
    ));
    let large_ns = best_ns_per_call(64, || {
        let _ = in_memory(&large);
    });
    out.push((
        "runtime.wire.frame_mb_per_s",
        large.len() as f64 / 1e6 / (large_ns / 1e9),
    ));
    let (rtt_ns, echo_large_ns) = loopback_echo(&small, &large)?;
    out.push(("runtime.net.loopback_rtt_us", rtt_ns / 1e3));
    // An echo moves the payload twice.
    let loopback_mb_per_s = 2.0 * large.len() as f64 / 1e6 / (echo_large_ns / 1e9);
    out.push(("runtime.net.loopback_mb_per_s", loopback_mb_per_s));

    // What the distributed path should add per job of this shape: both
    // codecs, the report rebuild, both payloads over the socket, one
    // round trip of latency.
    let transfer_us = (assign_bytes.len() + result_bytes.len()) as f64 / loopback_mb_per_s;
    let codecs_us =
        (assign_encode + assign_decode + result_encode + result_decode + into_report) / 1e3;
    out.push((
        "parallel.job.backend.distributed.modelled_per_job_us",
        codecs_us + transfer_us + rtt_ns / 1e3,
    ));
    Ok(out)
}

/// Times a frame echo over a loopback `FrameConn` pair: nanoseconds per
/// round trip of `small`, and of `large`. The echo thread is joined before
/// returning.
fn loopback_echo(small: &[u8], large: &[u8]) -> Result<(f64, f64), String> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let echo = std::thread::spawn(move || -> Result<(), String> {
        let (stream, _) = listener.accept().map_err(|e| e.to_string())?;
        let mut conn = FrameConn::from_stream(stream).map_err(|e| e.to_string())?;
        loop {
            let frame = conn.recv().map_err(|e| e.to_string())?;
            if frame.kind == FrameKind::Shutdown {
                return Ok(());
            }
            conn.send(frame.kind, &frame.payload)
                .map_err(|e| e.to_string())?;
        }
    });
    let timed = (|| -> Result<(f64, f64), String> {
        let mut conn = FrameConn::connect(addr).map_err(|e| e.to_string())?;
        let mut failure = None;
        let mut round_trip = |payload: &[u8]| {
            let echoed = conn
                .send(FrameKind::Result, payload)
                .and_then(|()| conn.recv());
            match echoed {
                Ok(frame) => {
                    black_box(frame.payload.len());
                }
                Err(e) => failure = Some(e.to_string()),
            }
        };
        let rtt_ns = best_ns_per_call(512, || round_trip(small));
        let large_ns = best_ns_per_call(32, || round_trip(large));
        let sent = conn
            .send(FrameKind::Shutdown, &[])
            .map_err(|e| e.to_string());
        match failure {
            Some(e) => Err(e),
            None => sent.map(|()| (rtt_ns, large_ns)),
        }
    })();
    if timed.is_err() {
        // The echo thread may still sit in accept(); a throw-away connection
        // lets it fail out instead of blocking the join below.
        drop(std::net::TcpStream::connect(addr));
    }
    let echoed = echo
        .join()
        .map_err(|_| "the echo thread panicked".to_owned())?;
    let timings = timed?;
    echoed.map(|()| timings)
}
