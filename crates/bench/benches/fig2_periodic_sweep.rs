//! FIG2 — "Example of periodic parallelisation on 1024×1024 images with
//! only four partitions" (paper Fig. 2): total runtime for a fixed number
//! of MCMC iterations versus the time spent in each global phase, with the
//! sequential runtime as the reference line.
//!
//! The paper ran 500 000 iterations on a Q6600 and found: global phases
//! shorter than ~4 ms lose to sequential; ~20 ms is the sweet spot
//! (≈ 29 % reduction); longer phases bring no further benefit. Absolute
//! times differ on modern hardware, but the *shape* — overhead-dominated
//! left edge, plateau right of the sweet spot — is the reproduction target.

use pmcmc_bench::{bench_iters, print_header, section7_workload};
use pmcmc_core::Sampler;
use pmcmc_parallel::report::{fmt_secs, Table};
use pmcmc_parallel::{PartitionScheme, PeriodicOptions, PeriodicSampler, RunCtx};
use std::time::Instant;

fn main() {
    print_header("FIG2: runtime vs global-phase length", "Fig. 2, §VII");
    let w = section7_workload(42);
    let iters = bench_iters();
    println!(
        "workload: {}x{} image, {} cells, q_g = 0.4, {} iterations, 4 partitions (corner scheme)",
        w.image.width(),
        w.image.height(),
        w.truth.len(),
        iters
    );

    // Sequential reference (the horizontal line of Fig. 2).
    let t0 = Instant::now();
    let mut seq = Sampler::new(&w.model, 1);
    seq.run(iters);
    let t_seq = t0.elapsed().as_secs_f64();
    let tau = t_seq / iters as f64;
    println!(
        "sequential: {} ({:.2} us/iteration) -> the reference line",
        fmt_secs(t_seq),
        tau * 1e6
    );

    // Sweep the global phase length (iterations per Mg phase). The x-axis
    // of Fig. 2 is *time* per global phase; we report both.
    let phase_lengths: &[u64] = &[2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];
    let mut table = Table::new(
        "Fig. 2: periodic parallelisation, 4 threads",
        &[
            "Mg iters/phase",
            "time/global phase",
            "runtime",
            "fraction of seq",
            "reduction",
        ],
    );
    let mut best = (f64::INFINITY, 0u64);
    for &len in phase_lengths {
        let mut ps = PeriodicSampler::new(
            &w.model,
            1,
            PeriodicOptions {
                global_phase_iters: len,
                scheme: PartitionScheme::Corner,
                threads: 4,
                ..PeriodicOptions::default()
            },
        );
        let report = ps.run(iters, &RunCtx::default()).unwrap();
        let t = report.total_time.as_secs_f64();
        // Normalise: cycles may overshoot the budget slightly.
        let t = t * iters as f64 / report.total_iters() as f64;
        let phase_time = report.global_time.as_secs_f64() / report.cycles.max(1) as f64;
        if t < best.0 {
            best = (t, len);
        }
        table.push_row(vec![
            len.to_string(),
            fmt_secs(phase_time),
            fmt_secs(t),
            format!("{:.3}", t / t_seq),
            format!("{:+.1}%", 100.0 * (1.0 - t / t_seq)),
        ]);
    }
    println!("{}", table.render());
    println!(
        "sweet spot: {} Mg iterations/phase -> {} ({:.0}% reduction; paper's Q6600 saw ~29% at ~20ms phases)",
        best.1,
        fmt_secs(best.0),
        100.0 * (1.0 - best.0 / t_seq)
    );
    println!("paper shape check: shortest phases slower than sequential (top rows), plateau beyond the sweet spot (bottom rows)");
}
