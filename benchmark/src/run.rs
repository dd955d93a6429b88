//! One run of one workload in this process: set-up, timed units, checks,
//! and either the end-to-end metrics or, traced, the per-layer ones.

use crate::check::{check_run, Checker, UnitCheck};
use crate::json::Json;
use crate::layers::{micro_metrics, unit_metrics, Metrics, TracedUnit};
use crate::procfs::{cpu_seconds, peak_rss_mb};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::trace::{now_ns, Trace};
use crate::workload::{Rig, Workload, WARMUP_DIVISOR};
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed units a `--seconds` run may report a median of.
const MIN_UNITS: usize = 3;
/// Untraced/traced unit pairs of a traced run without `--seconds`.
const TRACE_PAIRS: usize = 2;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Measure for this long; without it, for the workload's `R` repeats.
    pub seconds: Option<f64>,
    pub trace: bool,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// The samples behind a timing's median.
    pub samples: Option<Summary>,
}

pub struct Outcome {
    /// Lines for the log that are not metrics: where the spans' time went.
    pub notes: Vec<String>,
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub digest: u64,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The line the driver reads.
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            let value = Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]);
            (m.name, value)
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .line()
    }
}

/// Worker threads every pool, spin team and daemon set is sized to.
pub fn workers() -> usize {
    cores().min(4)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Starts the workload and runs its warm-up unit; returns the rig and how
/// long both took.
fn set_up(opts: &Options) -> Result<(Rig, f64), String> {
    let t = Instant::now();
    let rig = Rig::start(opts.workload, opts.seed, workers())
        .map_err(|e| format!("set-up of {} failed: {e}", opts.workload.name()))?;
    let warm_up = rig.run_unit(WARMUP_DIVISOR, false);
    let elapsed = t.elapsed().as_secs_f64();
    if let Some(e) = warm_up.results.iter().find_map(|r| r.as_ref().err()) {
        let message = format!("warm-up of {} failed: {e}", opts.workload.name());
        rig.stop();
        return Err(message);
    }
    Ok((rig, elapsed))
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    if opts.trace {
        run_traced(opts)
    } else {
        run_untraced(opts)
    }
}

/// A metric of the spec with its measured value; a value that is missing or
/// not finite fails the run and reads 0.
fn metric(
    name: &'static str,
    unit: &'static str,
    value: Option<f64>,
    samples: Option<Summary>,
    problems: &mut Vec<String>,
) -> Metric {
    let value = value.filter(|v| v.is_finite()).unwrap_or_else(|| {
        problems.push(format!("{name} could not be measured"));
        0.0
    });
    Metric {
        name,
        unit,
        value,
        samples,
    }
}

fn tally(workload: Workload, checks: &[UnitCheck]) -> (Vec<String>, u64, u64) {
    let attempted = checks.iter().map(|c| c.jobs as u64).sum();
    let failed = checks.iter().map(|c| c.failed_jobs as u64).sum();
    (check_run(workload, checks), attempted, failed)
}

fn run_untraced(opts: &Options) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let rig = loop {
        let (rig, elapsed) = set_up(opts)?;
        setup_s.push(elapsed);
        if setup_s.len() == SETUPS {
            break rig;
        }
        rig.stop();
    };

    let (mut wall_s, mut cpu_s, mut checks) = (Vec::new(), Vec::new(), Vec::new());
    let mut checker = Checker::default();
    let begin = Instant::now();
    loop {
        let cpu_before = cpu_seconds();
        let unit = rig.run_unit(1, false);
        let cpu_after = cpu_seconds();
        wall_s.push(unit.wall_s);
        cpu_s.push(cpu_after.zip(cpu_before).map_or(f64::NAN, |(a, b)| a - b));
        checks.push(checker.check_unit(&rig, &unit));
        let done = match opts.seconds {
            Some(limit) => begin.elapsed().as_secs_f64() >= limit && wall_s.len() >= MIN_UNITS,
            None => wall_s.len() >= opts.workload.repeats(),
        };
        if done {
            break;
        }
    }
    let jobs = rig.plan.len() as f64;
    rig.stop();

    let (mut problems, attempted, failed) = tally(opts.workload, &checks);
    let wall = Summary::of(&wall_s).ok_or("no unit was timed")?;
    let values = [
        (
            "setup_s",
            Summary::of(&setup_s).map(|s| s.median),
            Summary::of(&setup_s),
        ),
        ("wall_s", Some(wall.median), Some(wall)),
        ("jobs_per_s", Some(jobs / wall.median), None),
        // The mean, not the median: a reading is a whole number of 10 ms
        // ticks, and only their sum over the units resolves finer than that.
        (
            "cpu_s",
            Some(cpu_s.iter().sum::<f64>() / cpu_s.len() as f64),
            Summary::of(&cpu_s),
        ),
        ("peak_rss_mb", peak_rss_mb(), None),
        ("f1", checks.first().map(|c| c.f1), None),
    ];
    let metrics = END_TO_END
        .iter()
        .map(|def| {
            let found = values.iter().find(|(name, ..)| *name == def.name);
            let (value, samples) = found.map_or((None, None), |(_, v, s)| (*v, *s));
            metric(def.name, def.unit, value, samples, &mut problems)
        })
        .collect();
    Ok(Outcome {
        notes: Vec::new(),
        problems,
        attempted,
        failed,
        metrics,
        digest: checks.first().map_or(0, |c| c.digest),
    })
}

fn run_traced(opts: &Options) -> Result<Outcome, String> {
    let mut trace = Trace::default();
    let root = trace.add(None, "workload", None, now_ns(), 0);
    let setup_start = now_ns();
    let (rig, _) = set_up(opts)?;
    trace.add(Some(root), "setup", None, setup_start, now_ns());

    // Untraced and traced units alternate, so that drift in the machine's
    // speed lands on both sides of the overhead ratio alike.
    let (mut untraced_wall_s, mut traced, mut checks) = (Vec::new(), Vec::new(), Vec::new());
    let mut checker = Checker::default();
    let begin = Instant::now();
    loop {
        let pair = Instant::now();
        let plain = rig.run_unit(1, false);
        untraced_wall_s.push(plain.wall_s);
        checks.push(checker.check_unit(&rig, &plain));
        drop(plain);

        let perf_before = pmcmc_core::perf::snapshot();
        let pool_before = rig.engine.pool().stats();
        let unit = rig.run_unit(1, true);
        let perf = pmcmc_core::perf::snapshot().since(&perf_before);
        let pool = (pool_before, rig.engine.pool().stats());
        checks.push(checker.check_unit(&rig, &unit));
        trace.add_unit(root, &unit, opts.workload.is_batch());
        traced.push(TracedUnit { unit, perf, pool });

        let done = match opts.seconds {
            // Do not start a pair that would end past the limit.
            Some(limit) => (begin.elapsed() + pair.elapsed()).as_secs_f64() > limit,
            None => traced.len() >= TRACE_PAIRS,
        };
        if done {
            break;
        }
    }
    trace.end(root, now_ns());

    let (mut problems, attempted, failed) = tally(opts.workload, &checks);
    let mut measured: Metrics = unit_metrics(&rig, &trace, &traced, &untraced_wall_s);
    match traced[0].unit.results[0].as_ref() {
        Ok(report) => match micro_metrics(&rig, 0, report, workers()) {
            Ok(micro) => measured.extend(micro),
            Err(e) => problems.push(format!("micro-timings failed: {e}")),
        },
        Err(e) => problems.push(format!("no report to take micro-timings on: {e}")),
    }
    rig.stop();
    if let Err(e) = write_trace(opts.workload, &trace) {
        eprintln!("warning: trace not written: {e}");
    }

    let metrics = PER_LAYER
        .iter()
        .map(|def| {
            let found = measured.iter().find(|(name, _)| *name == def.name);
            metric(
                def.name,
                def.unit,
                found.map(|(_, v)| *v),
                None,
                &mut problems,
            )
        })
        .collect();
    for (name, _) in &measured {
        if !PER_LAYER.iter().any(|def| def.name == *name) {
            problems.push(format!(
                "{name} was measured but is not in the per-layer list"
            ));
        }
    }
    let notes = trace
        .by_name()
        .into_iter()
        .map(|(name, count, total_ns, self_ns)| {
            let (total_ms, self_ms) = (total_ns as f64 / 1e6, self_ns as f64 / 1e6);
            format!("span {name} count={count} total_ms={total_ms} self_ms={self_ms}")
        })
        .collect();
    Ok(Outcome {
        notes,
        problems,
        attempted,
        failed,
        metrics,
        digest: checks.first().map_or(0, |c| c.digest),
    })
}

/// Where trace files go: `target/trace/` beside this package's manifest,
/// which the repository's `**/target/` rule keeps out of git.
pub fn trace_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("trace")
}

fn write_trace(workload: Workload, trace: &Trace) -> std::io::Result<()> {
    let dir = trace_dir();
    std::fs::create_dir_all(&dir)?;
    std::fs::write(
        dir.join(format!("{}.jsonl", workload.name())),
        trace.jsonl(),
    )
}
