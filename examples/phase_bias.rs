//! The §V statistical-validity claim: "by frequent cycling it will average
//! out such that long-term the stationary distribution will be the same as
//! that of conventional MCMC".
//!
//! Compares posterior summaries (circle-count mean/sd, log-posterior mean,
//! detection F1) between the sequential sampler and periodic partitioning
//! at several phase lengths, across seeds. The scene is deliberately small
//! (12 cells, 192²) so every chain is deep in its stationary phase when
//! the tail statistics are collected — on the §VII workload the same
//! budget only buys burn-in and the comparison would be meaningless.
//!
//! Run with: `cargo run --release --example phase_bias`
//! (`PMCMC_QUICK=1` cuts the seeds, burn-in and tail to CI smoke scale).

use pmcmc::prelude::*;

fn main() {
    let (cores, quick) = pmcmc::example_header("phase_bias: §V validity claim");
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

    let seeds: &[u64] = if quick { &[1, 2] } else { &[1, 2, 3, 4] };
    let burn_in: u64 = if quick { 10_000 } else { 60_000 };
    let (tail_points, stride) = if quick { (40, 250u64) } else { (80, 500) };

    // One row per chain: burn in, then sample the tail every `stride`
    // iterations through `advance`, which runs `n` more and returns the
    // circles and log-posterior it arrives at.
    println!("posterior summaries (tail of the chain, after burn-in)");
    println!("       sampler  seed  count mean  count sd  logpost mean     F1");
    let row = |name: &str, seed: u64, advance: &mut dyn FnMut(u64) -> (Vec<Circle>, f64)| -> f64 {
        let (mut last, _) = advance(burn_in);
        let mut tail = Trace::new();
        for i in 1..=tail_points {
            let (circles, log_posterior) = advance(stride);
            tail.push(burn_in + i * stride, circles.len(), log_posterior);
            last = circles;
        }
        let ((cm, csd), (lm, _)) = (tail.count_summary(1.0), tail.log_posterior_summary(1.0));
        let f1 = match_circles(truth, &last, 5.0).f1();
        println!("{name:>14}  {seed:>4}  {cm:>10.2}  {csd:>8.2}  {lm:>12.0}  {f1:>5.3}");
        cm
    };

    let (mut seq_means, mut per_means) = (Vec::new(), Vec::new());
    for &seed in seeds {
        let mut s = Sampler::new(&model, seed);
        seq_means.push(row("sequential", seed, &mut |n| {
            s.run(n);
            (s.config.circles().to_vec(), s.log_posterior())
        }));
    }
    for phase in [64u64, 512, 4096] {
        for &seed in seeds {
            let options = PeriodicOptions {
                global_phase_iters: phase,
                threads: cores.min(4),
                ..PeriodicOptions::default()
            };
            let mut ps = PeriodicSampler::new(&model, seed, options);
            per_means.push(row(&format!("periodic/{phase}"), seed, &mut |n| {
                ps.run(n, &RunCtx::default())
                    .expect("nothing cancels this run");
                (
                    ps.config().circles().to_vec(),
                    ps.config().log_posterior(&model),
                )
            }));
        }
    }

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (a, b) = (mean(&seq_means), mean(&per_means));
    println!(
        "grand count means: sequential {a:.2} vs periodic {b:.2} (truth {}; difference {:.2})",
        truth.len(),
        (a - b).abs()
    );
    println!("validity check: difference should be well within one circle.");
}
