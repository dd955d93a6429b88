//! Intelligent vs blind vs naive partitioning on a clumped "latex bead"
//! scene (the Fig. 3 / Fig. 4 setting), with visual panels, table I's
//! per-partition columns and §IX's per-quadrant relative runtimes — both
//! against one whole-image chain, the paper's values beside them.
//!
//! Writes `fig3_input.pgm`, `fig3_mask.pgm`, `fig3_partitions.ppm`
//! (intelligent partition corridors) and `fig4_blind.ppm` (blind grid,
//! overlap bands, merged detections).
//!
//! This example stays on the scheme-specific `run_intelligent`/`run_blind`
//! layers because it reads per-partition geometry the uniform report does
//! not carry; for service-style runs use the job API (see
//! `examples/strategy_sweep.rs`).
//!
//! Run with: `cargo run --release --example partition_compare`
//! (`PMCMC_QUICK=1` shrinks the budget for CI smoke runs).

use pmcmc::imaging::filter::threshold;
use pmcmc::imaging::io::{colors, save_mask_pgm, save_pgm, RgbImage};
use pmcmc::imaging::synth::generate_packed_clusters;
use pmcmc::prelude::*;

fn main() {
    let (cores, quick) = pmcmc::example_header("partition_compare: fig. 3/4, table I, §IX");
    // A clumped bead dish: three densely packed clusters (touching beads,
    // like the paper's latex beads) with empty corridors between.
    let spec = SceneSpec {
        width: 384,
        height: 384,
        radius_mean: 8.0,
        radius_sd: 0.4,
        radius_min: 5.0,
        radius_max: 12.0,
        noise_sd: 0.04,
        ..SceneSpec::default()
    };
    let clusters = [
        ClusterSpec {
            cx: 70.0,
            cy: 80.0,
            n: 6,
            spread: 0.0,
        },
        ClusterSpec {
            cx: 265.0,
            cy: 150.0,
            n: 14,
            spread: 0.0,
        },
        ClusterSpec {
            cx: 95.0,
            cy: 320.0,
            n: 4,
            spread: 0.0,
        },
    ];
    let mut rng = Xoshiro256::new(314);
    let scene = generate_packed_clusters(&spec, &clusters, 1.12, &mut rng);
    let image = scene.render(&mut rng);
    let truth = &scene.circles;
    println!("scene: {} beads in 3 clusters", truth.len());

    let mut base = ModelParams::new(384, 384, truth.len() as f64, 8.0);
    // The beads' true radius range: keeps one over-sized circle from
    // explaining two touching beads.
    base.radius_prior = pmcmc::core::math::TruncatedNormal::new(
        spec.radius_mean,
        0.5,
        spec.radius_min,
        spec.radius_max,
    );
    // No wider than the host: time-sliced chains would inflate the
    // per-partition runtimes that table I and §IX compare.
    let pool = WorkerPool::new(cores.min(4));
    // One full-image model, shared by the three pipelines (each partition
    // chain crops its sub-model out of it).
    let full = NucleiModel::new(&image, base);
    let ctx = RunCtx::default();
    let chain = SubChainOptions {
        max_iters: if quick {
            30_000
        } else {
            SubChainOptions::default().max_iters
        },
        ..SubChainOptions::default()
    };

    // --- Intelligent partitioning (Fig. 3).
    let partitioner = IntelligentPartitioner::default();
    let intel =
        pmcmc::parallel::run_intelligent(&full, &image, &partitioner, &chain, &pool, 1, &ctx)
            .expect("nothing cancels this run");
    let m_intel = match_circles(truth, &intel.merged, 5.0);
    println!(
        "intelligent: {} partitions, {} detected, F1 {:.2}, anomalies {}, total {:.2}s",
        intel.partitions.len(),
        intel.merged.len(),
        m_intel.f1(),
        m_intel.anomaly_count(),
        intel.total_time().as_secs_f64()
    );

    // --- Table I: the whole image, then each partition the pre-processor
    // found (the paper labels them A/B/C in discovery order too).
    let frame = Rect::of_image(384, 384);
    let whole = pmcmc::parallel::run_partition_chain(&full, &image, frame, &chain, 5, &ctx);
    let whole_s = whole.runtime.as_secs_f64();
    println!(
        "Table I   area px²  rel area  #visual  #density  #eq5  us/iter  #itr conv  runtime s  rel"
    );
    for (i, p) in std::iter::once(&whole).chain(&intel.partitions).enumerate() {
        let label = if i == 0 {
            '*'
        } else {
            (b'A' + i as u8 - 1) as char
        };
        let rel_area = p.rect.area() as f64 / frame.area() as f64;
        let visual = truth.iter().filter(|c| p.rect.contains_point(c.x, c.y));
        let (secs, conv) = (
            p.runtime.as_secs_f64(),
            p.converged_at.unwrap_or(p.iterations),
        );
        println!(
            "{label:>7} {:>10} {rel_area:>9.3} {:>8} {:>9.2} {:>5.1} {:>8.2} {conv:>10} {secs:>10.3} {:>4.2}",
            p.rect.area(),
            visual.count(),
            truth.len() as f64 * rel_area,
            p.expected_count,
            1e6 * secs / p.iterations.max(1) as f64,
            secs / whole_s
        );
    }
    println!(
        "paper (Q6600, 20-run means): rel areas 0.147/0.624/0.226, visual 6/38/4, rel runtimes \
         0.07/0.90/0.02 — the dominant partition bounds the pipeline at -10% (* = whole image)"
    );

    // --- Blind partitioning (Fig. 4).
    let options = BlindOptions {
        chain,
        ..BlindOptions::default()
    };
    let blind = pmcmc::parallel::run_blind(&full, &image, &options, &pool, 2, &ctx)
        .expect("nothing cancels this run");
    let m_blind = match_circles(truth, &blind.merged, 5.0);
    println!(
        "blind: 2x2 grid, {} detected ({} pairs merged, {} disputed), F1 {:.2}, anomalies {}, total {:.2}s",
        blind.merged.len(),
        blind.merged_pairs,
        blind.disputed,
        m_blind.f1(),
        m_blind.anomaly_count(),
        blind.total_time().as_secs_f64()
    );

    // §IX: each quadrant's chain relative to the whole-image chain; the
    // procedure as a whole takes the slowest quadrant plus the merge.
    let quadrants = blind.partitions.iter();
    let rel: Vec<f64> = quadrants
        .map(|p| p.chain.runtime.as_secs_f64() / whole_s)
        .collect();
    let cells: Vec<String> = rel.iter().map(|r| format!("{r:.2}")).collect();
    let slowest = rel.iter().copied().fold(0.0, f64::max);
    println!(
        "§IX quadrant runtimes relative to the whole image: {} (paper: 0.12/0.08/0.27/0.11); \
         overall {:.0}% of the whole-image run (paper: 27%, no apparent anomalies)",
        cells.join("/"),
        100.0 * (slowest + blind.merge_time.as_secs_f64() / whole_s)
    );

    // --- Naive baseline.
    let naive = pmcmc::parallel::run_naive(&full, &image, &NaiveOptions::default(), &pool, 3, &ctx)
        .expect("nothing cancels this run");
    let m_naive = match_circles(truth, &naive.merged, 5.0);
    println!(
        "naive: {} detected, F1 {:.2}, anomalies {} (missed {}, spurious {}, duplicates {})",
        naive.merged.len(),
        m_naive.f1(),
        m_naive.anomaly_count(),
        m_naive.missed.len(),
        m_naive.spurious.len(),
        m_naive.duplicates.len()
    );

    // --- Visual panels.
    save_pgm(&image, "fig3_input.pgm").expect("write input");
    save_mask_pgm(&threshold(&image, 0.5), "fig3_mask.pgm").expect("write mask");

    let mut fig3 = RgbImage::from_gray(&image);
    for p in &intel.partitions {
        fig3.draw_rect(&p.rect, colors::BLUE);
    }
    for c in &intel.merged {
        fig3.draw_circle(c, colors::RED);
    }
    fig3.save_ppm("fig3_partitions.ppm").expect("write fig3");

    let mut fig4 = RgbImage::from_gray(&image);
    for p in &blind.partitions {
        fig4.draw_rect(&p.extended, colors::CYAN);
    }
    fig4.draw_dashed_line(192, true, colors::BLUE);
    fig4.draw_dashed_line(192, false, colors::BLUE);
    for c in &blind.merged {
        fig4.draw_circle(c, colors::RED);
    }
    fig4.save_ppm("fig4_blind.ppm").expect("write fig4");
    println!("wrote fig3_input.pgm, fig3_mask.pgm, fig3_partitions.ppm, fig4_blind.ppm");
}
