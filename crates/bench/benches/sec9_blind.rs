//! SEC9/FIG4 — blind partitioning results (§IX, Fig. 4).
//!
//! Paper: on the bead image quartered with a 1.1·r̄ overlap margin, the
//! per-quadrant relative runtimes were 0.12 / 0.08 / 0.27 / 0.11, the
//! whole procedure ran in ≈ the longest quadrant — reducing runtime to
//! 27 % of the whole-image run — and no anomalies were visible. This bench
//! reproduces the per-quadrant relative runtimes, the overall reduction
//! and the anomaly count (scored against ground truth, which the paper
//! could only eyeball).

use pmcmc_bench::{bench_repeats, print_header, table1_workload};
use pmcmc_core::match_circles;
use pmcmc_core::rng::derive_seed;
use pmcmc_imaging::Rect;
use pmcmc_parallel::report::{fmt_f, Table};
use pmcmc_parallel::{run_blind, run_partition_chain, BlindOptions, RunCtx, SubChainOptions};
use pmcmc_runtime::WorkerPool;

fn main() {
    print_header("SEC9: blind partitioning", "Fig. 4 + §IX numbers");
    let w = table1_workload(7);
    let repeats = bench_repeats();
    let opts = SubChainOptions::default();
    let pool = WorkerPool::new(4);
    let ctx = RunCtx::default();

    // Whole-image reference.
    let whole = Rect::of_image(w.image.width(), w.image.height());
    let mut whole_runtime = 0.0;
    for rep in 0..repeats {
        let res = run_partition_chain(
            &w.model,
            &w.image,
            whole,
            &opts,
            derive_seed(5, rep as u64),
            &ctx,
        );
        whole_runtime += res.runtime.as_secs_f64();
    }
    whole_runtime /= repeats as f64;
    println!(
        "whole-image reference: {:.3}s (avg over {repeats} runs)",
        whole_runtime
    );

    // Blind partitioning, averaged.
    let mut quadrant_runtimes = vec![0.0f64; 4];
    let mut total = 0.0f64;
    let mut merged_pairs = 0usize;
    let mut disputed = 0usize;
    let mut anomalies = 0usize;
    let mut f1 = 0.0f64;
    for rep in 0..repeats {
        let res = run_blind(
            &w.model,
            &w.image,
            &BlindOptions {
                chain: opts,
                ..BlindOptions::default()
            },
            &pool,
            derive_seed(99, rep as u64),
            &ctx,
        )
        .unwrap();
        for (q, p) in res.partitions.iter().enumerate() {
            quadrant_runtimes[q] += p.chain.runtime.as_secs_f64();
        }
        total += res
            .partitions
            .iter()
            .map(|p| p.chain.runtime.as_secs_f64())
            .fold(0.0, f64::max)
            + res.merge_time.as_secs_f64();
        merged_pairs += res.merged_pairs;
        disputed += res.disputed;
        let m = match_circles(&w.truth, &res.merged, 5.0);
        anomalies += m.anomaly_count();
        f1 += m.f1();
    }
    let r = repeats as f64;
    for q in &mut quadrant_runtimes {
        *q /= r;
    }
    total /= r;
    f1 /= r;

    let mut table = Table::new(
        "Fig. 4 quadrants (2x2, margin 1.1*r, merge eps 5px)",
        &["quadrant", "runtime s", "rel runtime", "paper rel"],
    );
    let paper_rel = [0.12, 0.08, 0.27, 0.11];
    for (q, &t) in quadrant_runtimes.iter().enumerate() {
        table.push_row(vec![
            ["top-left", "top-right", "bottom-left", "bottom-right"][q].to_string(),
            fmt_f(t, 3),
            fmt_f(t / whole_runtime, 3),
            fmt_f(paper_rel[q], 2),
        ]);
    }
    println!("{}", table.render());

    println!(
        "overall: {:.3}s -> {:.0}% of whole-image runtime (paper: 27%)",
        total,
        100.0 * total / whole_runtime
    );
    println!(
        "merge bookkeeping per run: {:.1} duplicate pairs averaged, {:.1} disputable artifacts",
        merged_pairs as f64 / r,
        disputed as f64 / r
    );
    println!(
        "quality: mean F1 {:.3}, mean anomaly count {:.2} (paper: 'no apparent anomalies')",
        f1,
        anomalies as f64 / r
    );
    println!(
        "shape checks: every quadrant's relative runtime well below 1; quadrant with the dominant clump is the slowest"
    );
}
