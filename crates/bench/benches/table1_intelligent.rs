//! TAB1 — Table I: "Results of intelligent partitioning on Fig. 3".
//!
//! For the whole image and each partition found by the pre-processor, the
//! paper reports: area, relative area, object counts (visual ground truth,
//! uniform-density assumption, eq. 5 threshold estimate), mean time per
//! iteration, iterations to converge, runtime, and relative runtime.
//! Paper values (Q6600, 20-run averages): partitions A/B/C with relative
//! areas 0.147/0.624/0.226, visual counts 6/38/4, relative runtimes
//! 0.07/0.90/0.02 — so with ≥3 processors the pipeline takes 90 % of the
//! whole-image runtime (a 10 % reduction) because partition B dominates.

use pmcmc_bench::{bench_repeats, print_header, table1_workload};
use pmcmc_core::rng::derive_seed;
use pmcmc_imaging::Rect;
use pmcmc_parallel::report::{fmt_f, Table};
use pmcmc_parallel::{run_partition_chain, IntelligentPartitioner, RunCtx, SubChainOptions};

fn main() {
    print_header("TAB1: intelligent partitioning statistics", "Table I, §IX");
    let w = table1_workload(7);
    let repeats = bench_repeats();
    println!(
        "workload: {}x{} bead dish, {} beads in 3 clumps; {} repeats (paper: 20)",
        w.image.width(),
        w.image.height(),
        w.truth.len(),
        repeats
    );

    let partitioner = IntelligentPartitioner::default();
    let (mut rects, mask) = partitioner.partition(&w.image);
    // Sort by area descending is NOT the paper's order; it labels A/B/C in
    // discovery order. Keep discovery order but report all.
    println!("pre-processor found {} partitions", rects.len());

    let whole = Rect::of_image(w.image.width(), w.image.height());
    let total_area = whole.area() as f64;
    let total_truth = w.truth.len() as f64;
    let opts = SubChainOptions::default();

    // Rows: whole image first, then partitions.
    let mut all_rects = vec![whole];
    all_rects.append(&mut rects);

    let mut table = Table::new(
        "Table I (averages over repeats)",
        &[
            "partition",
            "area px^2",
            "rel area",
            "#obj visual",
            "#obj density",
            "#obj thresh",
            "time/iter us",
            "#itr converge",
            "runtime s",
            "rel runtime",
        ],
    );

    let mut whole_runtime = 0.0f64;
    let mut partition_runtimes: Vec<f64> = Vec::new();
    for (idx, &rect) in all_rects.iter().enumerate() {
        let mut iters_sum = 0.0f64;
        let mut runtime_sum = 0.0f64;
        let mut tpi_sum = 0.0f64;
        let mut thresh_est = 0.0f64;
        let mut found = 0.0f64;
        for rep in 0..repeats {
            let res = run_partition_chain(
                &w.model,
                &w.image,
                rect,
                &opts,
                derive_seed(1000 + idx as u64, rep as u64),
                &RunCtx::default(),
            );
            iters_sum += res.converged_at.unwrap_or(res.iterations) as f64;
            runtime_sum += res.runtime.as_secs_f64();
            tpi_sum += res.time_per_iter();
            thresh_est = res.expected_count;
            found += res.detected.len() as f64;
        }
        let r = repeats as f64;
        let (iters, runtime, tpi) = (iters_sum / r, runtime_sum / r, tpi_sum / r);
        if idx == 0 {
            whole_runtime = runtime;
        } else {
            partition_runtimes.push(runtime);
        }
        let visual = w
            .truth
            .iter()
            .filter(|c| rect.contains_point(c.x, c.y))
            .count();
        let rel_area = rect.area() as f64 / total_area;
        let density_est = total_truth * rel_area;
        let label = if idx == 0 {
            "whole".to_string()
        } else if idx <= 26 {
            ((b'A' + (idx - 1) as u8) as char).to_string()
        } else {
            format!("P{idx}")
        };
        table.push_row(vec![
            label,
            rect.area().to_string(),
            fmt_f(rel_area, 3),
            visual.to_string(),
            if idx == 0 {
                "-".into()
            } else {
                fmt_f(density_est, 2)
            },
            fmt_f(thresh_est, 1),
            fmt_f(tpi * 1e6, 2),
            format!("{iters:.0}"),
            fmt_f(runtime, 3),
            fmt_f(runtime / whole_runtime, 3),
        ]);
        let _ = found;
        let _ = &mask;
    }
    println!("{}", table.render());

    // §IX runtime summary.
    let longest = partition_runtimes.iter().copied().fold(0.0, f64::max);
    let sum_others: f64 = partition_runtimes.iter().sum::<f64>() - longest;
    println!(
        "with >= {} processors: pipeline runtime = max partition = {:.3}s -> {:.0}% of whole-image ({:+.0}%)",
        partition_runtimes.len(),
        longest,
        100.0 * longest / whole_runtime,
        100.0 * (longest / whole_runtime - 1.0),
    );
    println!(
        "with 2 processors + load balancing: max({:.3}, {:.3}) = {:.3}s (paper: identical because 0.07+0.02 < 0.90)",
        longest,
        sum_others,
        longest.max(sum_others)
    );
    println!(
        "paper reference: rel areas 0.147/0.624/0.226, rel runtimes 0.07/0.90/0.02, overall -10%"
    );
}
