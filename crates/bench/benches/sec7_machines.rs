//! SEC7 — the §VII machine comparison: runtime reduction of periodic
//! partitioning at the sweet-spot phase length.
//!
//! Paper: −29 % on a quad-core Q6600, −23 % on a dual-processor Xeon,
//! −38 % on a dual-core Pentium-D; the Q6600 falls short of the 45 %
//! prediction of eq. (2) because the corner scheme's four partitions are
//! unequal ("the four processors will never be fully utilised").
//!
//! Substitution (DESIGN.md §5): instead of three physical machines we sweep
//! the thread count on one machine — the published machine differences
//! reduce to threads × inter-thread-communication cost. The reproduction
//! targets are (a) 2–4 threads give 20–40 % reductions, (b) measured
//! reductions undershoot eq. (2), and (c) a finer grid with load balancing
//! (more partitions than threads) closes part of the gap, as §VII argues.

use pmcmc_bench::{bench_iters, print_header, section7_workload};
use pmcmc_core::Sampler;
use pmcmc_parallel::report::{fmt_secs, Table};
use pmcmc_parallel::theory::eq2_fraction;
use pmcmc_parallel::{PartitionScheme, PeriodicOptions, PeriodicSampler, RunCtx};
use std::time::Instant;

fn main() {
    print_header("SEC7: thread sweep at the sweet spot", "§VII machine table");
    let w = section7_workload(42);
    let iters = bench_iters();

    let t0 = Instant::now();
    let mut seq = Sampler::new(&w.model, 1);
    seq.run(iters);
    let t_seq = t0.elapsed().as_secs_f64();
    println!("sequential reference: {}", fmt_secs(t_seq));

    let phase = 4096u64; // sweet-spot region found by fig2_periodic_sweep
    let mut table = Table::new(
        "periodic partitioning runtime vs threads (corner scheme = 4 unequal partitions)",
        &["threads", "runtime", "reduction", "eq.(2) ideal", "paper"],
    );
    let paper_note = |threads: usize| match threads {
        2 => "-23% Xeon / -38% Pentium-D",
        4 => "-29% Q6600",
        _ => "-",
    };
    for threads in [2usize, 3, 4, 8] {
        let mut ps = PeriodicSampler::new(
            &w.model,
            1,
            PeriodicOptions {
                global_phase_iters: phase,
                scheme: PartitionScheme::Corner,
                threads,
                ..PeriodicOptions::default()
            },
        );
        let report = ps.run(iters, &RunCtx::default()).unwrap();
        let t = report.total_time.as_secs_f64() * iters as f64 / report.total_iters() as f64;
        table.push_row(vec![
            threads.to_string(),
            fmt_secs(t),
            format!("{:+.1}%", 100.0 * (1.0 - t / t_seq)),
            format!("{:+.1}%", 100.0 * (1.0 - eq2_fraction(0.4, threads.min(4)))),
            paper_note(threads).to_string(),
        ]);
    }
    println!("{}", table.render());

    // §VII closing point: "more substantial reductions ... could be
    // obtained by using a finer partitioning grid and load balancing if the
    // number of partitions is greater than the number of available
    // processors".
    let side = i64::from(w.image.width()) / 4;
    let mut fine = PeriodicSampler::new(
        &w.model,
        1,
        PeriodicOptions {
            global_phase_iters: phase,
            scheme: PartitionScheme::Grid { xm: side, ym: side },
            threads: 4,
            ..PeriodicOptions::default()
        },
    );
    let report = fine.run(iters, &RunCtx::default()).unwrap();
    let t = report.total_time.as_secs_f64() * iters as f64 / report.total_iters() as f64;
    println!(
        "fine grid (~16 partitions on 4 threads, LPT balanced): {} ({:+.1}% vs sequential; corner-scheme gap partially closed)",
        fmt_secs(t),
        100.0 * (1.0 - t / t_seq)
    );
}
