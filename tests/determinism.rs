//! Reproducibility guarantees across the public API: identical seeds give
//! identical results, including for the parallel drivers regardless of
//! thread count (DESIGN.md: "results depend on the partition schedule, not
//! on OS scheduling").

use pmcmc::prelude::*;

fn model() -> (NucleiModel, Vec<Circle>, GrayImage) {
    let spec = SceneSpec {
        width: 160,
        height: 160,
        n_circles: 9,
        radius_mean: 8.0,
        radius_sd: 0.8,
        radius_min: 5.0,
        radius_max: 12.0,
        noise_sd: 0.05,
        ..SceneSpec::default()
    };
    let mut rng = Xoshiro256::new(77);
    let sc = generate(&spec, &mut rng);
    let img = sc.render(&mut rng);
    let params = ModelParams::new(160, 160, 9.0, 8.0);
    (NucleiModel::new(&img, params.clone()), sc.circles, img)
}

fn fingerprint(circles: &[Circle]) -> (usize, f64) {
    let sum: f64 = circles
        .iter()
        .map(|c| c.x * 3.0 + c.y * 7.0 + c.r * 11.0)
        .sum();
    (circles.len(), sum)
}

#[test]
fn scene_generation_is_deterministic() {
    let (_, t1, img1) = model();
    let (_, t2, img2) = model();
    assert_eq!(fingerprint(&t1), fingerprint(&t2));
    assert_eq!(img1, img2);
}

#[test]
fn periodic_identical_across_thread_counts() {
    let (m, _, _) = model();
    let run = |threads: usize| {
        let mut ps = PeriodicSampler::new(
            &m,
            42,
            PeriodicOptions {
                global_phase_iters: 100,
                scheme: PartitionScheme::Corner,
                threads,
                ..PeriodicOptions::default()
            },
        );
        ps.run(20_000, &RunCtx::default()).unwrap();
        fingerprint(ps.config().circles())
    };
    let one = run(1);
    let two = run(2);
    let eight = run(8);
    assert_eq!(one.0, two.0, "circle count differs between 1 and 2 threads");
    assert!((one.1 - two.1).abs() < 1e-6, "{} vs {}", one.1, two.1);
    assert_eq!(one.0, eight.0);
    assert!((one.1 - eight.1).abs() < 1e-6);
}

#[test]
fn blind_identical_across_pool_sizes() {
    let (_, truth, img) = model();
    let full = NucleiModel::new(&img, ModelParams::new(160, 160, truth.len() as f64, 8.0));
    let opts = BlindOptions {
        chain: SubChainOptions {
            max_iters: 20_000,
            ..SubChainOptions::default()
        },
        ..BlindOptions::default()
    };
    let run = |threads: usize| {
        let pool = WorkerPool::new(threads);
        let res = pmcmc::parallel::run_blind(&full, &img, &opts, &pool, 5, &RunCtx::default())
            .expect("nothing cancels this run");
        fingerprint(&res.merged)
    };
    let a = run(1);
    let b = run(4);
    assert_eq!(a.0, b.0);
    assert!((a.1 - b.1).abs() < 1e-6);
}

#[test]
fn intelligent_identical_across_pool_sizes() {
    let spec = SceneSpec {
        width: 224,
        height: 224,
        radius_mean: 8.0,
        radius_sd: 0.4,
        radius_min: 5.0,
        radius_max: 12.0,
        noise_sd: 0.04,
        ..SceneSpec::default()
    };
    let clusters = [
        ClusterSpec {
            cx: 56.0,
            cy: 56.0,
            n: 3,
            spread: 14.0,
        },
        ClusterSpec {
            cx: 168.0,
            cy: 168.0,
            n: 4,
            spread: 18.0,
        },
    ];
    let mut rng = Xoshiro256::new(3);
    let sc = generate_clustered(&spec, &clusters, &mut rng);
    let img = sc.render(&mut rng);
    let full = NucleiModel::new(&img, ModelParams::new(224, 224, 7.0, 8.0));
    let opts = SubChainOptions {
        max_iters: 20_000,
        ..SubChainOptions::default()
    };
    let run = |threads: usize| {
        let pool = WorkerPool::new(threads);
        let res = pmcmc::parallel::run_intelligent(
            &full,
            &img,
            &IntelligentPartitioner::default(),
            &opts,
            &pool,
            9,
            &RunCtx::default(),
        )
        .expect("nothing cancels this run");
        fingerprint(&res.merged)
    };
    let a = run(1);
    let b = run(6);
    assert_eq!(a.0, b.0);
    assert!((a.1 - b.1).abs() < 1e-6);
}

/// Everything deterministic a report carries, with float fields captured
/// bit-for-bit (wall times are excluded — they are the only
/// non-deterministic fields by design).
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

/// `spec`'s report on the 160² scene, run as a job on a fresh engine.
fn job_report(workers: usize, spec: StrategySpec, seed: u64, iterations: u64) -> RunReport {
    let (_, truth, img) = model();
    let params = ModelParams::new(160, 160, truth.len() as f64, 8.0);
    Engine::new(workers)
        .expect("worker count is positive")
        .submit(
            JobSpec::new(spec, img, params)
                .seed(seed)
                .iterations(iterations),
        )
        .expect("spec validates")
        .wait()
        .expect("job completes")
}

fn job_fingerprint(spec: StrategySpec, seed: u64, iterations: u64) -> String {
    report_fingerprint(&job_report(3, spec, seed, iterations))
}

#[test]
fn same_seed_job_specs_produce_byte_identical_reports() {
    // Every scheme: the span-kernel fast paths must not perturb a single
    // bit of any scheme's report.
    for spec in StrategySpec::all() {
        let first = job_fingerprint(spec, 33, 8_000);
        let second = job_fingerprint(spec, 33, 8_000);
        assert_eq!(first, second, "{spec} report not byte-identical");
    }
}

#[test]
fn periodic_reports_are_byte_identical_across_pool_sizes() {
    // How tiles are bundled onto replicas and which thread runs which
    // bundle depend on the pool size; nothing in the report may. The grid
    // scheme cuts up to nine tiles, so small pools bundle several tiles
    // per replica while the corner scheme gives each its own. Phases of
    // 1536 local iterations are long enough to be shared by four workers
    // (the default 192 would stay on the owning thread whatever the pool).
    // The 1-worker report is pinned too, by the FNV-1a of its fingerprint,
    // so the multi-replica sync and merge path also keeps every bit from
    // one commit to the next, not only across pool sizes.
    for (scheme, digest) in [
        (PartitionScheme::Corner, "5fca96bb472c00e5"),
        (PartitionScheme::Grid { xm: 96, ym: 96 }, "67841690cdde3e11"),
    ] {
        let options = PeriodicOptions {
            scheme,
            global_phase_iters: 1024,
            ..PeriodicOptions::default()
        };
        let report = |workers| job_report(workers, StrategySpec::Periodic(options), 33, 20_000);
        let one = report_fingerprint(&report(1));
        assert_eq!(
            fnv1a(one.bytes()),
            digest,
            "{scheme:?}: report drifted from its golden fingerprint"
        );
        for workers in [2, 3, 4] {
            assert_eq!(
                one,
                report_fingerprint(&report(workers)),
                "{scheme:?}: report differs between 1 and {workers} workers"
            );
        }
    }
}

/// FNV-1a, 64 bit.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in bytes {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

#[test]
fn every_scheme_matches_its_golden_digest() {
    // FNV-1a of `report_fingerprint` — every deterministic field of the
    // report, floats bit for bit — for each scheme on the 160² scene at
    // seed 33, 8 000 iterations, 3 workers. Recorded at the commit before
    // the seven `Strategy` adapters became the arms of `StrategySpec::run`
    // and every backend moved onto the one blueprint runner: those changes
    // may move code, not a bit of any report.
    let golden = [
        ("sequential", "9d070e9dc40e5f73"),
        ("periodic", "b0c705357ec33566"),
        ("speculative", "dd4ae424c2858895"),
        ("mc3", "1c7fdab74aee2317"),
        ("intelligent", "bafbb56825c57f7d"),
        ("blind", "5600e592bc43444f"),
        ("naive", "9e1bfca3968aa9e4"),
    ];
    let specs = StrategySpec::all();
    assert_eq!(specs.len(), golden.len());
    for (spec, (name, digest)) in specs.into_iter().zip(golden) {
        assert_eq!(spec.name(), name);
        assert_eq!(
            fnv1a(job_fingerprint(spec, 33, 8_000).bytes()),
            digest,
            "{name} report drifted from its golden fingerprint"
        );
    }

    // The older periodic row: detection count and circle bit patterns at
    // 20 000 iterations on 2 workers, recorded at the commit before tiles
    // moved from per-phase crops to persistent replicas with read-only
    // evaluation: that change may reorder float additions inside a
    // likelihood delta, but not move, add or drop a single detection.
    let periodic = StrategySpec::Periodic(PeriodicOptions::default());
    let report = job_report(2, periodic, 33, 20_000);
    let words = std::iter::once(report.detected().len() as u64).chain(
        report
            .detected()
            .iter()
            .flat_map(|c| [c.x.to_bits(), c.y.to_bits(), c.r.to_bits()]),
    );
    assert_eq!(
        fnv1a(words.flat_map(u64::to_le_bytes)),
        "dd60b2e0dff437ea",
        "{} detections",
        report.detected().len()
    );
}

#[test]
fn forced_scalar_and_simd_paths_give_byte_identical_reports() {
    use pmcmc::core::simd::{backend, force_backend, Backend};
    // The lane kernels compute masks only and accumulate gains in the
    // same scalar order as the fallback, so flipping the backend must not
    // perturb a single bit of any strategy's report. (On hosts without
    // AVX2 both runs take the scalar path and the test is vacuous but
    // still valid.)
    let detected = backend();
    for spec in StrategySpec::all() {
        let run = |b: Backend| {
            force_backend(b);
            job_fingerprint(spec, 61, 6_000)
        };
        let scalar = run(Backend::Scalar);
        let vector = run(Backend::Avx2);
        force_backend(detected);
        assert_eq!(
            scalar, vector,
            "{spec} report differs between scalar and vector kernels"
        );
    }
}

#[test]
fn different_seeds_give_different_chains() {
    let (m, _, _) = model();
    let mut a = Sampler::new(&m, 1);
    let mut b = Sampler::new(&m, 2);
    a.run(5_000);
    b.run(5_000);
    let fa = fingerprint(a.config.circles());
    let fb = fingerprint(b.config.circles());
    assert!(fa != fb, "independent seeds produced identical states");
}
