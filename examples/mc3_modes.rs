//! Metropolis-coupled MCMC (§IV related work): heated chains help the cold
//! chain escape local optima on an ambiguous scene — compared against a
//! single chain, both driven through the typed job API (`StrategySpec` →
//! `JobSpec` → `JobHandle`).
//!
//! The scene contains overlapping circle pairs — the paper's example of
//! MCMC "identifying similar but distinct solutions (is an artifact in a
//! blood sample one blood cell or two overlapping cells)".
//!
//! Run with: `cargo run --release --example mc3_modes`
//! (`PMCMC_QUICK=1` shrinks the budget for CI smoke runs).

use pmcmc::prelude::*;

fn main() {
    // Pairs of heavily overlapping circles: the posterior has competing
    // one-circle vs two-circle explanations per blob.
    let mut circles = Vec::new();
    for (cx, cy) in [(60.0, 60.0), (180.0, 70.0), (120.0, 180.0), (200.0, 200.0)] {
        circles.push(Circle::new(cx - 4.0, cy, 8.0));
        circles.push(Circle::new(cx + 4.0, cy, 8.0));
    }
    let scene = Scene {
        width: 256,
        height: 256,
        circles: circles.clone(),
        fg: 0.9,
        bg: 0.1,
        noise_sd: 0.06,
        edge_softness: 1.0,
    };
    let mut rng = Xoshiro256::new(8);
    let image = scene.render(&mut rng);

    let params = ModelParams::new(256, 256, 8.0, 8.0);
    let budget: u64 = if std::env::var_os("PMCMC_QUICK").is_some() {
        12_000
    } else {
        120_000
    };
    let n_chains = 4usize;
    let engine = Engine::new(n_chains).expect("worker count is positive");

    // Single cold chain: the full budget through the sequential strategy.
    let single = engine
        .submit(
            JobSpec::new(StrategySpec::Sequential, image.clone(), params.clone())
                .seed(21)
                .iterations(budget),
        )
        .expect("spec validates")
        .wait()
        .expect("sequential run completes");
    println!(
        "single chain:   log-posterior {:.1}, {} circles, acceptance {:.1}%",
        single.diagnostics.log_posterior,
        single.detected().len(),
        100.0 * single.diagnostics.acceptance_rate.unwrap_or(0.0)
    );

    // (MC)^3 with 4 chains sharing the same *total* budget: each chain
    // gets budget / n_chains iterations, stepped on the pool's threads.
    // The spec round-trips through its CLI spelling.
    let mc3_spec: StrategySpec = format!(
        "mc3:chains={n_chains},segment={}",
        budget / (n_chains as u64 * 60)
    )
    .parse()
    .expect("valid spelling");
    let coupled = engine
        .submit(
            JobSpec::new(mc3_spec, image, params)
                .seed(21)
                .iterations(budget / n_chains as u64),
        )
        .expect("spec validates")
        .wait()
        .expect("(MC)^3 run completes");
    println!(
        "(MC)^3 cold:    log-posterior {:.1}, {} circles, {}",
        coupled.diagnostics.log_posterior,
        coupled.detected().len(),
        coupled
            .diagnostics
            .notes
            .first()
            .map_or("no swaps attempted", String::as_str)
    );

    let m_single = match_circles(&circles, single.detected(), 5.0);
    let m_mc3 = match_circles(&circles, coupled.detected(), 5.0);
    println!(
        "F1 vs truth: single {:.2}, (MC)^3 {:.2} (truth has {} circles in {} blobs)",
        m_single.f1(),
        m_mc3.f1(),
        circles.len(),
        circles.len() / 2
    );
}
