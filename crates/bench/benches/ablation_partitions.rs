//! ABL-P — the §VI design discussion: "a similar balance must be made
//! between the number of partitions (more = faster) and the corresponding
//! size of the partitions" — smaller tiles freeze more features (the §V
//! safeguard), which "is more likely to delay the convergence".
//!
//! Sweeps the periodic grid spacing and reports runtime, the fraction of
//! features eligible per phase, and a convergence proxy (log-posterior
//! after a fixed budget from a cold start).

use pmcmc_bench::{bench_iters, print_header, section7_workload};
use pmcmc_core::{Configuration, Sampler, TileWorkspace, Xoshiro256};
use pmcmc_imaging::PartitionGrid;
use pmcmc_parallel::report::{fmt_f, fmt_secs, Table};
use pmcmc_parallel::{PartitionScheme, PeriodicOptions, PeriodicSampler, RunCtx};
use rand::Rng;
use std::time::Instant;

fn main() {
    print_header(
        "ABL-P: partition granularity vs runtime and eligibility",
        "§VI discussion",
    );
    let w = section7_workload(42);
    let iters = bench_iters() / 2;
    let side = i64::from(w.image.width());

    // Sequential reference.
    let t0 = Instant::now();
    let mut seq = Sampler::new(&w.model, 1);
    seq.run(iters);
    let t_seq = t0.elapsed().as_secs_f64();
    println!("sequential: {}", fmt_secs(t_seq));

    // A converged reference state to measure eligibility fractions on.
    let reference = {
        let mut s = Sampler::new(&w.model, 3);
        s.run(iters);
        s.config
    };

    let spacings: Vec<(String, PartitionScheme, i64)> = vec![
        ("corner (4 uneven)".into(), PartitionScheme::Corner, side),
        (
            "grid s/2".into(),
            PartitionScheme::Grid {
                xm: side / 2,
                ym: side / 2,
            },
            side / 2,
        ),
        (
            "grid s/3".into(),
            PartitionScheme::Grid {
                xm: side / 3,
                ym: side / 3,
            },
            side / 3,
        ),
        (
            "grid s/4".into(),
            PartitionScheme::Grid {
                xm: side / 4,
                ym: side / 4,
            },
            side / 4,
        ),
        (
            "grid s/6".into(),
            PartitionScheme::Grid {
                xm: side / 6,
                ym: side / 6,
            },
            side / 6,
        ),
        (
            "grid s/8".into(),
            PartitionScheme::Grid {
                xm: side / 8,
                ym: side / 8,
            },
            side / 8,
        ),
    ];

    let mut table = Table::new(
        "granularity sweep (4 threads, LPT-balanced)",
        &[
            "scheme",
            "tiles",
            "eligible frac",
            "runtime",
            "fraction of seq",
            "logpost after budget",
        ],
    );
    for (label, scheme, spacing) in spacings {
        // Mean eligibility fraction over random offsets.
        let mut rng = Xoshiro256::new(9);
        let mut elig = 0.0;
        let mut tiles_n = 0usize;
        let probes = 20;
        for _ in 0..probes {
            let grid = PartitionGrid::new(
                spacing.max(1),
                spacing.max(1),
                rng.gen_range(0..spacing.max(1)),
                rng.gen_range(0..spacing.max(1)),
            );
            let tiles = grid.tiles(w.image.width(), w.image.height());
            tiles_n = tiles.len();
            let eligible: usize = tiles
                .iter()
                .map(|&r| TileWorkspace::new(&reference, &w.model, r).eligible_count())
                .sum();
            elig += eligible as f64 / reference.len().max(1) as f64;
        }
        elig /= f64::from(probes);

        let mut ps = PeriodicSampler::new(
            &w.model,
            1,
            PeriodicOptions {
                global_phase_iters: 512,
                scheme,
                threads: 4,
                ..PeriodicOptions::default()
            },
        );
        let report = ps.run(iters, &RunCtx::default()).unwrap();
        let t = report.total_time.as_secs_f64() * iters as f64 / report.total_iters() as f64;
        let lp = ps.config().log_posterior(&w.model);
        table.push_row(vec![
            label,
            tiles_n.to_string(),
            fmt_f(elig, 3),
            fmt_secs(t),
            fmt_f(t / t_seq, 3),
            format!("{lp:.0}"),
        ]);
    }
    println!("{}", table.render());
    println!("expected shape: more tiles -> lower runtime fraction but falling eligible fraction (frozen boundary features), until eligibility collapse erases the gain");
    let _ = Configuration::empty(&w.model); // keep import used in quick mode
}
