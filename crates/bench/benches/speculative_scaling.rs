//! EQ3/EQ4 — speculative-move scaling ([11], the building block of
//! eqs. (3) and (4)).
//!
//! Measures the wall-time fraction and iterations-per-round of the
//! speculative sampler for n ∈ {1, 2, 4, 8} lanes against the model
//! `(1 − p_r)/(1 − p_rⁿ)`, then prints the combined eq. (3)/eq. (4)
//! predictions for periodic partitioning + speculative phases using the
//! measured τ_g, τ_l, p_gr and p_lr.

use pmcmc_bench::{bench_iters, print_header, section7_workload};
use pmcmc_core::{MoveWeights, Sampler};
use pmcmc_parallel::report::{fmt_f, fmt_secs, Table};
use pmcmc_parallel::theory::{eq2_time, eq3_time, eq4_time, speculative_fraction};
use pmcmc_parallel::SpeculativeSampler;
use std::time::Instant;

fn main() {
    print_header("EQ3/EQ4: speculative moves", "[11] + eqs. (3)/(4), §VI");
    let w = section7_workload(42);
    let iters = bench_iters() / 2;

    // Sequential reference + rejection rates per move group.
    let t0 = Instant::now();
    let mut seq = Sampler::new(&w.model, 1);
    seq.run(iters);
    let t_seq = t0.elapsed().as_secs_f64();
    let pr = seq.stats.rejection_rate();
    let p_gr = seq.stats.global_rejection_rate();
    let p_lr = seq.stats.local_rejection_rate();
    println!(
        "sequential: {} for {iters} iterations; p_r={:.3} (global {:.3}, local {:.3}; paper quotes ~0.75 typical)",
        fmt_secs(t_seq),
        pr,
        p_gr,
        p_lr
    );

    let mut table = Table::new(
        "speculative scaling (measured vs (1-p_r)/(1-p_r^n))",
        &[
            "lanes",
            "runtime",
            "measured fraction",
            "model fraction",
            "iters/round",
            "model iters/round",
        ],
    );
    for lanes in [1usize, 2, 4, 8] {
        let t1 = Instant::now();
        let mut s = SpeculativeSampler::new(&w.model, 1, lanes);
        s.run(iters);
        let t = t1.elapsed().as_secs_f64();
        let ipr = s.iterations() as f64 / s.rounds() as f64;
        table.push_row(vec![
            lanes.to_string(),
            fmt_secs(t),
            fmt_f(t / t_seq, 3),
            fmt_f(speculative_fraction(pr, lanes), 3),
            fmt_f(ipr, 2),
            fmt_f(1.0 / speculative_fraction(pr, lanes), 2),
        ]);
    }
    println!("{}", table.render());
    println!(
        "note: iterations/round tracks the model tightly; wall-time fractions sit above the\n\
         model because a round costs max-of-lanes plus synchronisation, while the model's\n\
         'negligible overhead' assumption prices a round at one mean iteration — at our\n\
         ~{:.0}x-faster-than-2010 per-iteration times the overhead is proportionally larger.",
        40.0 / (1e6 * t_seq / iters as f64)
    );

    // Combined predictions, eqs. (2)–(4), using measured per-group τ.
    // Measure τ_g and τ_l by running restricted-weight samplers.
    let tau = |weights: MoveWeights| -> f64 {
        let mut s = Sampler::new(&w.model, 2);
        s.set_weights(weights);
        let n = iters / 4;
        let t = Instant::now();
        s.run(n);
        t.elapsed().as_secs_f64() / n as f64
    };
    let tau_g = tau(MoveWeights::default().global_only());
    let tau_l = tau(MoveWeights::default().local_only());
    println!(
        "measured tau_g = {:.2}us, tau_l = {:.2}us",
        tau_g * 1e6,
        tau_l * 1e6
    );

    let n = iters as f64;
    let mut pred = Table::new(
        "predicted runtimes for this workload (eqs. 2-4)",
        &["configuration", "predicted", "fraction of seq"],
    );
    let t_seq_pred = n * (0.4 * tau_g + 0.6 * tau_l);
    for (label, t) in [
        ("sequential (model)", t_seq_pred),
        ("eq.(2): s=4", eq2_time(n, 0.4, tau_g, tau_l, 4)),
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
        pred.push_row(vec![
            label.to_string(),
            fmt_secs(t),
            fmt_f(t / t_seq_pred, 3),
        ]);
    }
    println!("{}", pred.render());

    // eq. (3) *realised*: periodic partitioning with speculative Mg phases.
    use pmcmc_parallel::{PartitionScheme, PeriodicOptions, PeriodicSampler, RunCtx};
    let mut realised = Table::new(
        "eq.(3) realised: periodic (4 threads) with speculative Mg lanes",
        &["Mg lanes", "runtime", "fraction of seq"],
    );
    for lanes in [1usize, 2, 4] {
        let t1 = Instant::now();
        let mut ps = PeriodicSampler::new(
            &w.model,
            1,
            PeriodicOptions {
                global_phase_iters: 512,
                scheme: PartitionScheme::Corner,
                threads: 4,
                speculative_global_lanes: lanes,
            },
        );
        let report = ps.run(iters, &RunCtx::default()).unwrap();
        let t = t1.elapsed().as_secs_f64() * iters as f64 / report.total_iters() as f64;
        realised.push_row(vec![lanes.to_string(), fmt_secs(t), fmt_f(t / t_seq, 3)]);
    }
    println!("{}", realised.render());
}
