//! Cross-crate integration tests: every parallelisation scheme runs the
//! full detect-circles pipeline on the same synthetic scene and must reach
//! comparable quality.

use pmcmc::prelude::*;

/// The shared test scene: 12 cells on 192², moderate noise.
fn scene(seed: u64) -> (NucleiModel, Vec<Circle>, GrayImage) {
    let spec = SceneSpec {
        width: 192,
        height: 192,
        n_circles: 12,
        radius_mean: 8.0,
        radius_sd: 0.8,
        radius_min: 5.0,
        radius_max: 12.0,
        noise_sd: 0.05,
        ..SceneSpec::default()
    };
    let mut rng = Xoshiro256::new(seed);
    let sc = generate(&spec, &mut rng);
    let img = sc.render(&mut rng);
    let mut params = ModelParams::new(192, 192, 12.0, 8.0);
    params.noise_sd = 0.15;
    (NucleiModel::new(&img, params), sc.circles, img)
}

/// The tentpole engine contract: every registered strategy runs the same
/// workload on the shared 192² scene through the typed job API
/// (`StrategySpec` → `JobSpec` → `JobHandle`), and every *exact-validity*
/// scheme reaches an F1 within 0.05 of the sequential baseline (they
/// sample the same posterior, so with a fixed seed and a 60k budget their
/// detection quality must coincide up to Monte-Carlo noise).
#[test]
fn strategy_registry_sweeps_all_schemes_with_comparable_quality() {
    let (_, truth, img) = scene(7);
    let mut params = ModelParams::new(192, 192, truth.len() as f64, 8.0);
    params.noise_sd = 0.15;
    let engine = Engine::new(4).expect("worker count is positive");
    let job = |strategy: StrategySpec| {
        JobSpec::new(strategy, img.clone(), params.clone())
            .seed(42)
            .iterations(60_000)
    };

    let baseline = engine
        .submit(job(StrategySpec::Sequential))
        .expect("sequential spec validates")
        .wait()
        .expect("sequential baseline completes");
    let f1_seq = match_circles(&truth, baseline.detected(), 5.0).f1();
    assert!(f1_seq >= 0.8, "sequential baseline too weak: F1 {f1_seq}");

    let mut swept = Vec::new();
    for strategy in StrategySpec::all() {
        let name = strategy.name();
        let report = engine
            .submit(job(strategy))
            .expect("spec validates")
            .wait()
            .unwrap_or_else(|e| panic!("{name} failed: {e}"));
        assert_eq!(report.strategy, name);
        assert!(report.iterations > 0, "{} ran nothing", report.strategy);
        let f1 = match_circles(&truth, report.detected(), 5.0).f1();
        if report.validity.is_exact() {
            assert!(
                f1 >= f1_seq - 0.05,
                "{}: exact scheme F1 {f1:.3} below sequential {f1_seq:.3} - 0.05",
                report.strategy
            );
        }
        swept.push(report.strategy.clone());
    }
    // The sweep covered all six parallelisation schemes plus the baseline.
    for name in [
        "sequential",
        "periodic",
        "speculative",
        "mc3",
        "intelligent",
        "blind",
        "naive",
    ] {
        assert!(swept.iter().any(|s| s == name), "{name} missing from sweep");
    }
}

#[test]
fn sequential_pipeline_detects_scene() {
    let (model, truth, _) = scene(1);
    let mut s = Sampler::new_empty(&model, 10);
    s.run(60_000);
    let m = match_circles(&truth, s.config.circles(), 5.0);
    assert!(m.f1() >= 0.85, "sequential F1 {}", m.f1());
    s.config.verify_consistency(&model).unwrap();
}

#[test]
fn periodic_pipeline_matches_sequential_quality() {
    let (model, truth, _) = scene(2);
    let mut ps = PeriodicSampler::new(
        &model,
        11,
        PeriodicOptions {
            global_phase_iters: 128,
            scheme: PartitionScheme::Corner,
            threads: 4,
            ..PeriodicOptions::default()
        },
    );
    ps.run(60_000, &RunCtx::default()).unwrap();
    let m = match_circles(&truth, ps.config().circles(), 5.0);
    assert!(m.f1() >= 0.85, "periodic F1 {}", m.f1());
    ps.config().verify_consistency(&model).unwrap();
}

#[test]
fn periodic_grid_scheme_pipeline() {
    let (model, truth, _) = scene(3);
    let mut ps = PeriodicSampler::new(
        &model,
        12,
        PeriodicOptions {
            global_phase_iters: 128,
            scheme: PartitionScheme::Grid { xm: 96, ym: 96 },
            threads: 4,
            ..PeriodicOptions::default()
        },
    );
    ps.run(60_000, &RunCtx::default()).unwrap();
    let m = match_circles(&truth, ps.config().circles(), 5.0);
    assert!(m.f1() >= 0.8, "grid periodic F1 {}", m.f1());
}

#[test]
fn speculative_pipeline_matches_sequential_quality() {
    let (model, truth, _) = scene(4);
    let mut s = SpeculativeSampler::new(&model, 13, 4);
    s.run(60_000);
    let m = match_circles(&truth, s.config.circles(), 5.0);
    assert!(m.f1() >= 0.85, "speculative F1 {}", m.f1());
    s.config.verify_consistency(&model).unwrap();
}

#[test]
fn mc3_pipeline_detects_scene() {
    let (model, truth, _) = scene(5);
    let mut mc3 = Mc3::new(&model, 3, 0.4, 14);
    mc3.run(120, 500);
    let m = match_circles(&truth, mc3.cold().config.circles(), 5.0);
    assert!(m.f1() >= 0.75, "mc3 F1 {}", m.f1());
}

#[test]
fn blind_pipeline_on_uniform_scene() {
    let (_, truth, img) = scene(6);
    let full = NucleiModel::new(&img, ModelParams::new(192, 192, truth.len() as f64, 8.0));
    let pool = WorkerPool::new(4);
    let opts = BlindOptions {
        chain: SubChainOptions {
            max_iters: 60_000,
            ..SubChainOptions::default()
        },
        ..BlindOptions::default()
    };
    let res = pmcmc::parallel::run_blind(&full, &img, &opts, &pool, 15, &RunCtx::default())
        .expect("nothing cancels this run");
    let m = match_circles(&truth, &res.merged, 5.0);
    assert!(m.f1() >= 0.8, "blind F1 {}", m.f1());
}

#[test]
fn intelligent_pipeline_on_clustered_scene() {
    let spec = SceneSpec {
        width: 256,
        height: 256,
        radius_mean: 8.0,
        radius_sd: 0.5,
        radius_min: 5.0,
        radius_max: 12.0,
        noise_sd: 0.04,
        ..SceneSpec::default()
    };
    let clusters = [
        ClusterSpec {
            cx: 60.0,
            cy: 64.0,
            n: 4,
            spread: 18.0,
        },
        ClusterSpec {
            cx: 190.0,
            cy: 190.0,
            n: 6,
            spread: 26.0,
        },
    ];
    let mut rng = Xoshiro256::new(7);
    let sc = generate_clustered(&spec, &clusters, &mut rng);
    let img = sc.render(&mut rng);
    let full = NucleiModel::new(&img, ModelParams::new(256, 256, 10.0, 8.0));
    let pool = WorkerPool::new(4);
    let res = pmcmc::parallel::run_intelligent(
        &full,
        &img,
        &IntelligentPartitioner::default(),
        &SubChainOptions {
            max_iters: 60_000,
            ..SubChainOptions::default()
        },
        &pool,
        16,
        &RunCtx::default(),
    )
    .expect("nothing cancels this run");
    assert!(res.partitions.len() >= 2, "pre-processor found no corridor");
    let m = match_circles(&sc.circles, &res.merged, 5.0);
    assert!(m.f1() >= 0.8, "intelligent F1 {}", m.f1());
}

#[test]
fn all_exact_methods_agree_on_posterior_count() {
    // Sequential, periodic and speculative sample the same posterior: their
    // long-run mean circle counts must agree. A strong overlap penalty
    // removes the slow-mixing "two overlapping circles on one blob" mode so
    // single-seed tail means are a sharp comparison.
    let (mut model, truth, _) = scene(8);
    model.params.overlap_gamma = 0.5;
    let model = model;
    let tail = |counts: &[usize]| -> f64 {
        let t = &counts[counts.len() / 2..];
        t.iter().sum::<usize>() as f64 / t.len() as f64
    };

    let mut seq = Sampler::new_empty(&model, 30);
    let mut seq_counts = Vec::new();
    for _ in 0..120 {
        seq.run(500);
        seq_counts.push(seq.config.len());
    }

    let mut per = PeriodicSampler::new(&model, 31, PeriodicOptions::default());
    let mut per_counts = Vec::new();
    for _ in 0..120 {
        per.run(500, &RunCtx::default()).unwrap();
        per_counts.push(per.config().len());
    }

    let mut spec = SpeculativeSampler::new(&model, 32, 4);
    let mut spec_counts = Vec::new();
    for _ in 0..120 {
        spec.run(500);
        spec_counts.push(spec.config.len());
    }

    let (a, b, c) = (tail(&seq_counts), tail(&per_counts), tail(&spec_counts));
    let n = truth.len() as f64;
    for (label, v) in [("sequential", a), ("periodic", b), ("speculative", c)] {
        assert!(
            (v - n).abs() <= 2.0,
            "{label} posterior count mean {v} far from truth {n}"
        );
    }
    assert!((a - b).abs() <= 1.5, "seq {a} vs periodic {b}");
    assert!((a - c).abs() <= 1.5, "seq {a} vs speculative {c}");
}

#[test]
fn stained_rgb_pipeline_end_to_end() {
    // The paper's §III front-end: colour micrograph → colour-emphasis
    // filter → intensity image → RJMCMC. The whole chain must still find
    // the planted nuclei.
    use pmcmc::imaging::color::{emphasize_color, render_stained};
    const STAIN: [f32; 3] = [0.55, 0.15, 0.55];
    const TISSUE: [f32; 3] = [0.88, 0.80, 0.76];
    let spec = SceneSpec {
        width: 160,
        height: 160,
        n_circles: 8,
        radius_mean: 8.0,
        radius_sd: 0.8,
        radius_min: 5.0,
        radius_max: 12.0,
        ..SceneSpec::default()
    };
    let mut rng = Xoshiro256::new(21);
    let sc = generate(&spec, &mut rng);
    let rgb = render_stained(160, 160, &sc.circles, STAIN, TISSUE, 1.0, 0.03, &mut rng);
    let intensity = emphasize_color(&rgb, STAIN, 0.3);
    let mut params = ModelParams::new(160, 160, 8.0, 8.0);
    params.noise_sd = 0.15;
    let model = NucleiModel::new(&intensity, params);
    let mut s = Sampler::new_empty(&model, 5);
    s.run(50_000);
    let m = match_circles(&sc.circles, s.config.circles(), 5.0);
    assert!(m.f1() >= 0.85, "stained pipeline F1 {}", m.f1());
}
