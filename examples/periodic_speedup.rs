//! Periodic partitioning (§V–§VII) versus the sequential baseline, every
//! run driven through the typed job API (one `Engine` per pool size, one
//! `JobSpec` per run). Prints, with the paper's numbers beside its own:
//!
//! * fig. 1 — eq. (2) as a fraction of sequential over `q_g` (theory);
//! * fig. 2 — runtime against the length of a global phase, and the
//!   sweet spot;
//! * §VII — the thread sweep at that sweet spot (the paper's machine
//!   table), and the finer load-balanced grid §VII closes on.
//!
//! Run with: `cargo run --release --example periodic_speedup [iters]`
//! (`PMCMC_QUICK=1` shrinks the budget and the sweeps for CI smoke runs).

use pmcmc::parallel::theory::{eq2_fraction, fig1_series};
use pmcmc::prelude::*;

fn main() {
    let (cores, quick) = pmcmc::example_header("periodic_speedup: fig. 1, fig. 2, §VII");
    let iters: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(if quick { 20_000 } else { 200_000 });

    println!("Fig. 1: eq. (2) runtime as a fraction of sequential, tau_g = tau_l");
    println!("  qg    s=2    s=4    s=8   s=16");
    for p in fig1_series(&[2, 4, 8, 16], 10) {
        let cells: Vec<String> = p.fractions.iter().map(|f| format!("{f:.3}")).collect();
        println!("{:>4.1}  {}", p.qg, cells.join("  "));
    }
    let ideal4 = eq2_fraction(0.4, 4);
    println!("check: qg=0.4, s=4 -> {ideal4:.2} (§VII predicts a 45% reduction, i.e. 0.55)\n");

    // The §VII workload scaled to a quick demo: a cell field with q_g = 0.4.
    let spec = SceneSpec {
        width: 512,
        height: 512,
        n_circles: 60,
        radius_mean: 10.0,
        radius_sd: 1.2,
        radius_min: 5.0,
        radius_max: 18.0,
        noise_sd: 0.05,
        ..SceneSpec::default()
    };
    let mut rng = Xoshiro256::new(99);
    let scene = generate(&spec, &mut rng);
    let image = scene.render(&mut rng);
    let params = ModelParams::new(512, 512, 60.0, 10.0);

    // One job on an engine of `threads` workers (the strategy runs its
    // local phases on the engine's shared pool). Milliseconds are
    // normalised to the budget: whole cycles may overshoot it slightly.
    let run = |strategy: StrategySpec, threads: usize| -> (f64, RunReport) {
        let job = JobSpec::new(strategy, image.clone(), params.clone())
            .seed(5)
            .iterations(iters);
        let engine = Engine::new(threads).expect("worker count is positive");
        let handle = engine.submit(job).expect("spec validates");
        let report = handle.wait().expect("run completes");
        let ms = 1e3 * report.total_time.as_secs_f64() * iters as f64 / report.iterations as f64;
        (ms, report)
    };
    let periodic = |global_phase_iters: u64, scheme: PartitionScheme| {
        StrategySpec::Periodic(PeriodicOptions {
            global_phase_iters,
            scheme,
            ..PeriodicOptions::default()
        })
    };

    let (t_seq, seq) = run(StrategySpec::Sequential, 1);
    let found = seq.detected().len();
    println!(
        "sequential: {iters} iterations in {t_seq:.1} ms ({found} circles), the reference line"
    );
    let change = |t: f64| format!("{:+.1}%", 100.0 * (t / t_seq - 1.0));

    // A row wider than the host time-slices its threads, so it is no
    // check of eq. (2): it is flagged and kept out of the comparison, and
    // skipped in quick mode.
    let flag = |threads: usize| format!("oversubscribed: {threads} threads on {cores} cores");
    let w = if cores >= 4 { 4 } else { 2 };
    if quick && w > cores {
        println!("{}; nothing to sweep in quick mode", flag(w));
        return;
    }
    let width = if w > cores {
        flag(w)
    } else {
        format!("{w} threads")
    };

    // --- Fig. 2: the x-axis is *time* per global phase; both are printed.
    let lengths: &[u64] = if quick {
        &[16, 256, 4096]
    } else {
        &[2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
    };
    println!("\nFig. 2: runtime vs global-phase length, corner scheme (4 partitions), {width}");
    println!("Mg iters/phase  ms/global phase  runtime ms  fraction of seq     vs seq");
    let mut best = (f64::INFINITY, 0u64);
    for &len in lengths {
        let (t, r) = run(periodic(len, PartitionScheme::Corner), w);
        let cycles = (0.4 * r.iterations as f64 / len as f64).max(1.0);
        let phase = 1e3 * r.phase("global").map_or(0.0, |d| d.as_secs_f64()) / cycles;
        best = if t < best.0 { (t, len) } else { best };
        let (frac, red) = (t / t_seq, change(t));
        println!("{len:>14}  {phase:>15.3}  {t:>10.1}  {frac:>15.3}  {red:>9}");
    }
    let (t, len) = best;
    println!(
        "sweet spot: {len} Mg iterations/phase -> {t:.1} ms ({}; paper's Q6600: phases under \
         ~4 ms lose to sequential, -29% at ~20 ms, a plateau beyond)",
        change(t)
    );

    // --- §VII: one machine's thread count stands in for the paper's three
    // machines; the last row is the section's closing remark, more
    // partitions than processors with LPT load balancing.
    println!("\n§VII: runtime vs threads at {len} Mg iterations/phase");
    println!("          scheme  threads  runtime ms     vs seq  eq.(2) ideal / paper");
    let grid = PartitionScheme::Grid { xm: 128, ym: 128 };
    for (scheme, threads) in [
        (PartitionScheme::Corner, 2),
        (PartitionScheme::Corner, 4),
        (grid, w),
    ] {
        if quick && threads > cores {
            continue;
        }
        let (name, paper) = match (scheme, threads) {
            (PartitionScheme::Corner, 2) => ("corner", "-23% Xeon, -38% Pentium-D"),
            (PartitionScheme::Corner, _) => ("corner", "-29% Q6600 (four unequal partitions)"),
            _ => (
                "grid 128 px, LPT",
                "\"a finer partitioning grid and load balancing\"",
            ),
        };
        let (t, _) = run(periodic(len, scheme), threads);
        let ideal = if threads > cores {
            flag(threads)
        } else {
            format!("{:+.1}%", 100.0 * (eq2_fraction(0.4, threads) - 1.0))
        };
        let red = change(t);
        println!("{name:>16}  {threads:>7}  {t:>10.1}  {red:>9}  {ideal} / paper: {paper}");
    }
}
