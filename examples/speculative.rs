//! Speculative moves ([11], §VI): measured iterations-per-round and
//! wall-time fraction versus the (1 − p_r)/(1 − p_rⁿ) model, then the
//! eq. (2)–(4) predictions from this run's measured τ_g, τ_l, p_gr and
//! p_lr, and eq. (3) realised — periodic partitioning with speculative
//! `Mg` lanes (`periodic:lanes=K`).
//!
//! This example stays on the scheme-specific [`SpeculativeSampler`] and
//! [`PeriodicSampler`] layers because it reads per-round statistics the
//! uniform report does not carry; for service-style runs use
//! `StrategySpec::Speculative` through the job API (see
//! `examples/strategy_sweep.rs`).
//!
//! Run with: `cargo run --release --example speculative [iters]`
//! (`PMCMC_QUICK=1` shrinks the budget for CI smoke runs).

use pmcmc::parallel::theory::{
    eq2_time, eq3_time, eq4_time, sequential_time, speculative_fraction,
    speculative_iters_per_round,
};
use pmcmc::prelude::*;
use std::time::Instant;

fn main() {
    let (cores, quick) = pmcmc::example_header("speculative: [11], eqs. (2)-(4)");
    let iters: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(if quick { 10_000 } else { 100_000 });

    let spec = SceneSpec {
        width: 384,
        height: 384,
        n_circles: 40,
        radius_mean: 9.0,
        radius_sd: 1.0,
        radius_min: 5.0,
        radius_max: 14.0,
        noise_sd: 0.05,
        ..SceneSpec::default()
    };
    let mut rng = Xoshiro256::new(17);
    let scene = generate(&spec, &mut rng);
    let image = scene.render(&mut rng);
    let params = ModelParams::new(384, 384, 40.0, 9.0);
    let model = NucleiModel::new(&image, params);

    // Sequential reference (1 lane), and the rejection rates the models take.
    let t0 = Instant::now();
    let mut seq = SpeculativeSampler::new(&model, 3, 1);
    seq.run(iters);
    let t_seq = t0.elapsed().as_secs_f64();
    let pr = seq.stats.rejection_rate();
    let (p_gr, p_lr) = (
        seq.stats.global_rejection_rate(),
        seq.stats.local_rejection_rate(),
    );
    println!(
        "sequential: {t_seq:.2}s for {iters} iterations, rejection rate p_r = {pr:.3} \
         (global {p_gr:.3}, local {p_lr:.3}; the paper quotes ~0.75 as typical)"
    );

    // A row with more lanes than cores time-slices them, so it is no check
    // of the model: it is flagged and left without a theory figure, and
    // skipped in quick mode.
    let wide = |lanes: usize| lanes > cores;
    let flag = |lanes: usize| format!("oversubscribed: {lanes} lanes on {cores} cores");
    for lanes in [2usize, 4, 8] {
        if quick && wide(lanes) {
            continue;
        }
        let t1 = Instant::now();
        let mut s = SpeculativeSampler::new(&model, 3, lanes);
        s.run(iters);
        let (t, found) = (t1.elapsed().as_secs_f64(), s.config.len());
        let versus = if wide(lanes) {
            flag(lanes)
        } else {
            format!("theory {:.0}%", 100.0 * speculative_fraction(pr, lanes))
        };
        println!(
            "{lanes} lanes: {t:.2}s → {:.0}% of sequential ({versus}); iterations/round {:.2} \
             (theory {:.2}); {found} circles found",
            100.0 * t / t_seq,
            s.iterations() as f64 / s.rounds() as f64,
            speculative_iters_per_round(pr, lanes),
        );
    }

    // τ_g and τ_l of this scene, from chains restricted to one move group.
    let tau = |weights: MoveWeights| -> f64 {
        let mut s = Sampler::new(&model, 2);
        s.set_weights(weights);
        let t = Instant::now();
        s.run(iters / 4);
        t.elapsed().as_secs_f64() / (iters / 4) as f64
    };
    let tau_g = tau(MoveWeights::default().global_only());
    let tau_l = tau(MoveWeights::default().local_only());
    println!(
        "\nmeasured tau_g = {:.2} us, tau_l = {:.2} us; predicted (q_g = 0.4):",
        tau_g * 1e6,
        tau_l * 1e6
    );
    let n = iters as f64;
    let model_seq = sequential_time(n, 0.4, tau_g, tau_l);
    for (label, t) in [
        ("eq.(2): s=4 partitions", eq2_time(n, 0.4, tau_g, tau_l, 4)),
        (
            "eq.(3): s=4, 4-lane speculative Mg",
            eq3_time(n, 0.4, tau_g, tau_l, 4, p_gr, 4),
        ),
        (
            "eq.(4): s=4 machines x t=4 threads",
            eq4_time(n, 0.4, tau_g, tau_l, 4, 4, p_gr, p_lr),
        ),
        (
            "eq.(4): s=16 x t=4 (cluster)",
            eq4_time(n, 0.4, tau_g, tau_l, 16, 4, p_gr, p_lr),
        ),
    ] {
        println!(
            "  {label:<36} {:>8.1} ms  {:.3} of sequential",
            t * 1e3,
            t / model_seq
        );
    }

    // eq. (3) realised: `periodic:lanes=K` on the widest pool that fits.
    let threads = cores.clamp(2, 4);
    println!("\neq.(3) realised: periodic, {threads} threads, speculative Mg lanes");
    // The periodic sampler's local phases run on this pool, its threads.
    let pool = WorkerPool::new(threads);
    for lanes in [1usize, 2, 4] {
        let width = lanes.max(threads);
        if quick && wide(width) {
            continue;
        }
        let options = PeriodicOptions {
            global_phase_iters: 512,
            speculative_global_lanes: lanes,
            ..PeriodicOptions::default()
        };
        let t1 = Instant::now();
        let report = PeriodicSampler::new(&model, 3, options, &pool).run(iters, &RunCtx::default());
        let done = report.expect("nothing cancels this run").total_iters();
        let frac = t1.elapsed().as_secs_f64() * n / done as f64 / t_seq;
        let versus = if wide(width) {
            flag(width)
        } else {
            let ideal = eq3_time(n, 0.4, tau_g, tau_l, threads, p_gr, lanes) / model_seq;
            format!("eq.(3) {ideal:.3}")
        };
        println!("  lanes={lanes}: {frac:.3} of sequential ({versus})");
    }
}
