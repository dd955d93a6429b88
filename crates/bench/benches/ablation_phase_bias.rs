//! ABL-B — the §V statistical-validity claim: "by frequent cycling it will
//! average out such that long-term the stationary distribution will be the
//! same as that of conventional MCMC".
//!
//! Compares posterior summaries (circle-count mean/sd, log-posterior mean,
//! detection F1) between the sequential sampler and periodic partitioning
//! at several phase lengths, across seeds. The scene is deliberately small
//! (12 cells, 192²) so every chain is deep in its stationary phase when
//! the tail statistics are collected — on the big §VII workload the same
//! budget only buys burn-in and the comparison would be meaningless.

use pmcmc_bench::{print_header, quick_mode};
use pmcmc_core::{match_circles, ModelParams, NucleiModel, Sampler, Xoshiro256};
use pmcmc_imaging::synth::{generate, SceneSpec};
use pmcmc_parallel::report::{fmt_f, Table};
use pmcmc_parallel::{PartitionScheme, PeriodicOptions, PeriodicSampler, RunCtx};

fn main() {
    print_header(
        "ABL-B: stationary-distribution equivalence of periodic partitioning",
        "§V validity claim",
    );
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
    let mut rng = Xoshiro256::new(42);
    let scene = generate(&spec, &mut rng);
    let image = scene.render(&mut rng);
    let truth = &scene.circles;
    let mut params = ModelParams::new(192, 192, 12.0, 8.0);
    params.noise_sd = 0.15;
    // A strong overlap penalty removes the slow-mixing duplicate-circle
    // mode so tail summaries compare sharply across samplers.
    params.overlap_gamma = 0.5;
    let model = NucleiModel::new(&image, params);

    let seeds: &[u64] = if quick_mode() { &[1, 2] } else { &[1, 2, 3, 4] };
    let burn_in: u64 = if quick_mode() { 30_000 } else { 60_000 };
    let tail_points = 80;
    let stride = 500u64;

    let mut table = Table::new(
        "posterior summaries (tail of the chain, after burn-in)",
        &[
            "sampler",
            "seed",
            "count mean",
            "count sd",
            "logpost mean",
            "F1",
        ],
    );

    let summarise = |counts: &[usize], lps: &[f64]| -> (f64, f64, f64) {
        let n = counts.len() as f64;
        let cm = counts.iter().sum::<usize>() as f64 / n;
        let cv = counts
            .iter()
            .map(|&c| (c as f64 - cm) * (c as f64 - cm))
            .sum::<f64>()
            / n;
        let lm = lps.iter().sum::<f64>() / n;
        (cm, cv.sqrt(), lm)
    };

    let mut seq_means = Vec::new();
    for &seed in seeds {
        let mut s = Sampler::new(&model, seed);
        s.run(burn_in);
        let (mut counts, mut lps) = (Vec::new(), Vec::new());
        for _ in 0..tail_points {
            s.run(stride);
            counts.push(s.config.len());
            lps.push(s.log_posterior());
        }
        let (cm, csd, lm) = summarise(&counts, &lps);
        let f1 = match_circles(truth, s.config.circles(), 5.0).f1();
        seq_means.push(cm);
        table.push_row(vec![
            "sequential".into(),
            seed.to_string(),
            fmt_f(cm, 2),
            fmt_f(csd, 2),
            format!("{lm:.0}"),
            fmt_f(f1, 3),
        ]);
    }

    let mut per_means = Vec::new();
    for &phase in &[64u64, 512, 4096] {
        for &seed in seeds {
            let mut ps = PeriodicSampler::new(
                &model,
                seed,
                PeriodicOptions {
                    global_phase_iters: phase,
                    scheme: PartitionScheme::Corner,
                    threads: 4,
                    ..PeriodicOptions::default()
                },
            );
            ps.run(burn_in, &RunCtx::default()).unwrap();
            let (mut counts, mut lps) = (Vec::new(), Vec::new());
            for _ in 0..tail_points {
                ps.run(stride, &RunCtx::default()).unwrap();
                counts.push(ps.config().len());
                lps.push(ps.config().log_posterior(&model));
            }
            let (cm, csd, lm) = summarise(&counts, &lps);
            let f1 = match_circles(truth, ps.config().circles(), 5.0).f1();
            per_means.push(cm);
            table.push_row(vec![
                format!("periodic/{phase}"),
                seed.to_string(),
                fmt_f(cm, 2),
                fmt_f(csd, 2),
                format!("{lm:.0}"),
                fmt_f(f1, 3),
            ]);
        }
    }
    println!("{}", table.render());

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (a, b) = (mean(&seq_means), mean(&per_means));
    println!(
        "grand count means: sequential {a:.2} vs periodic {b:.2} (truth {}; difference {:.2})",
        truth.len(),
        (a - b).abs()
    );
    println!("validity check: difference should be well within one circle.");
}
