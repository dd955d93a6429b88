//! The whole suite in one command: every workload in a child process of its
//! own (so peak memory and CPU time are per workload), untraced and then
//! traced, with the checks and ratios that need more than one workload.

use crate::check::check_batch_digests;
use crate::json::Json;
use crate::run::{cores, workers};
use crate::spec::{Better, END_TO_END};
use crate::workload::{Workload, BATCH_JOBS};
use std::process::{Command, Stdio};

/// One metric a child printed: value and unit.
type Reading = (String, f64, String);

/// What one child run of a workload reported.
struct ChildRun {
    metrics: Vec<Reading>,
    digest: Option<u64>,
}

impl ChildRun {
    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, ..)| n == name)
            .map(|(_, v, _)| *v)
    }
}

pub struct WorkloadResult {
    pub workload: Workload,
    end_to_end: ChildRun,
    per_layer: ChildRun,
}

pub struct SuiteResult {
    pub workloads: Vec<WorkloadResult>,
    pub derived: Vec<Reading>,
    pub problems: Vec<String>,
}

/// Parses a `metric <name> <unit> <value> ...` line.
fn parse_metric(line: &str) -> Option<Reading> {
    let mut words = line.strip_prefix("metric ")?.split_ascii_whitespace();
    let (name, unit, value) = (words.next()?, words.next()?, words.next()?);
    Some((name.to_owned(), value.parse().ok()?, unit.to_owned()))
}

/// Parses a `digest <workload> <16 hex digits>` line.
fn parse_digest(line: &str) -> Option<u64> {
    let mut words = line.strip_prefix("digest ")?.split_ascii_whitespace();
    let (_workload, hex) = (words.next()?, words.next()?);
    u64::from_str_radix(hex, 16).ok()
}

/// Runs this executable on one workload, echoing what it prints, and waits
/// for it to end.
fn run_child(
    workload: Workload,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(seconds) = seconds {
        command.args(["--seconds", &seconds.to_string()]);
    }
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} child: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut run = ChildRun {
        metrics: Vec::new(),
        digest: None,
    };
    for line in stdout.lines() {
        // The result line is for the driver; the metric lines say the same.
        if !line.starts_with('{') {
            println!("{line}");
        }
        run.metrics.extend(parse_metric(line));
        run.digest = run.digest.or(parse_digest(line));
    }
    if !output.status.success() {
        return Err(format!(
            "{} (trace {}) exited with {}",
            workload.name(),
            u8::from(trace),
            output.status
        ));
    }
    Ok(run)
}

/// Runs every selected workload untraced and traced, then the checks and
/// ratios that span workloads.
pub fn run_suite(selected: &[Workload], seed: u64, seconds: Option<f64>) -> SuiteResult {
    let mut problems = Vec::new();
    let mut workloads = Vec::new();
    for &workload in selected {
        let untraced = run_child(workload, seed, seconds, false);
        let traced = run_child(workload, seed, seconds, true);
        match (untraced, traced) {
            (Ok(end_to_end), Ok(per_layer)) => {
                if end_to_end.digest != per_layer.digest {
                    problems.push(format!(
                        "{}: the traced run detected something else than the untraced one",
                        workload.name()
                    ));
                }
                workloads.push(WorkloadResult {
                    workload,
                    end_to_end,
                    per_layer,
                });
            }
            (untraced, traced) => problems.extend(untraced.err().into_iter().chain(traced.err())),
        }
    }
    let digests: Vec<(&str, u64)> = workloads
        .iter()
        .filter_map(|w| Some((w.workload.name(), w.end_to_end.digest?)))
        .collect();
    problems.extend(check_batch_digests(&digests));
    let derived = derive(&workloads);
    SuiteResult {
        workloads,
        derived,
        problems,
    }
}

/// Ratios whose two sides are different workloads. They are not end-to-end
/// metrics, because a faster sequential kernel would read as a regression
/// of everything divided by it; and not per-layer metrics of one run,
/// because one run is one workload.
fn derive(results: &[WorkloadResult]) -> Vec<Reading> {
    let find = |w: Workload| results.iter().find(|r| r.workload == w);
    let wall = |w: Workload| find(w).and_then(|r| r.end_to_end.value("wall_s"));
    // Untraced wall time per iteration of the unit's budget.
    let per_iter = |w: Workload| wall(w).map(|s| s / w.budget() as f64);
    let mut out = Vec::new();
    let mut push = |name: &str, value: f64, unit: &str| {
        out.push((name.to_owned(), value, unit.to_owned()));
    };
    // Eq. (2) and (3) predict speed-ups for one core per worker.
    let sequential = per_iter(Workload::DenseSequential).filter(|_| workers() <= cores());
    if let (Some(seq), Some(periodic)) = (sequential, per_iter(Workload::DensePeriodic)) {
        let fraction = periodic / seq;
        push("parallel.periodic.fraction_of_seq", fraction, "ratio");
        // q_g is the default move weights' global share: the periodic
        // sampler sizes its local phases from the same number.
        let qg = pmcmc_core::MoveWeights::default().qg();
        let predicted = pmcmc_parallel::theory::eq2_fraction(qg, workers());
        push(
            "parallel.periodic.eq2_residual",
            fraction - predicted,
            "ratio",
        );
    }
    let sweep = Workload::DenseStrategySweep;
    let speculative_share =
        find(sweep).and_then(|r| r.per_layer.value("parallel.speculative.wall_share"));
    if let (Some(seq), Some(ns), Some(share)) = (sequential, per_iter(sweep), speculative_share) {
        // A quarter of the sweep's budget is the speculative job's.
        push(
            "parallel.speculative.fraction_of_seq",
            ns * share * 4.0 / seq,
            "ratio",
        );
    }
    if let (Some(distributed), Some(sharded)) = (
        wall(Workload::BatchSmallDistributed),
        wall(Workload::BatchSmallSharded),
    ) {
        let overhead_us = (distributed - sharded) * 1e6 / BATCH_JOBS as f64;
        push(
            "parallel.job.backend.distributed.overhead_per_job_us",
            overhead_us,
            "us",
        );
        let modelled = find(Workload::BatchSmallDistributed).and_then(|r| {
            r.per_layer
                .value("parallel.job.backend.distributed.modelled_per_job_us")
        });
        if let Some(modelled) = modelled {
            let residual = overhead_us - modelled;
            push(
                "parallel.job.backend.distributed.model_residual_us",
                residual,
                "us",
            );
        }
    }
    out
}

/// Compares two suite results of one commit: every end-to-end metric of the
/// second must be within its bound of the first, in either direction, and
/// detections must agree exactly.
pub fn compare(first: &SuiteResult, second: &SuiteResult) -> Vec<String> {
    let mut problems = Vec::new();
    for a in &first.workloads {
        let name = a.workload.name();
        let Some(b) = second.workloads.iter().find(|b| b.workload == a.workload) else {
            problems.push(format!("{name}: missing from the second set"));
            continue;
        };
        if a.end_to_end.digest != b.end_to_end.digest {
            problems.push(format!("{name}: the two sets detected different circles"));
        }
        for def in &END_TO_END {
            let (Some(x), Some(y)) = (a.end_to_end.value(def.name), b.end_to_end.value(def.name))
            else {
                problems.push(format!("{name}: {} is missing from a set", def.name));
                continue;
            };
            let change = (y - x).abs() / x.abs();
            let verdict = if change <= def.bound { "ok" } else { "OUTSIDE" };
            println!(
                "repeat {name} {} {x} -> {y} {} ({:+.2}%, bound {:.0}%, {}) {verdict}",
                def.name,
                def.unit,
                (y - x) / x.abs() * 100.0,
                def.bound * 100.0,
                match def.better {
                    Better::Lower => "lower is better",
                    Better::Higher => "higher is better",
                },
            );
            if change > def.bound {
                problems.push(format!(
                    "{name}: {} moved from {x} to {y}, more than its bound of {}",
                    def.name, def.bound
                ));
            }
        }
    }
    problems
}

fn readings(metrics: &[Reading]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                let reading = Json::obj([("value", Json::Num(*value)), ("unit", Json::str(unit))]);
                (name.clone(), reading)
            })
            .collect(),
    )
}

/// Output of a command, trimmed; `unknown` when it cannot be run.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Which host, toolchain and commit a result came from.
pub fn provenance(seed: u64) -> Json {
    let repeats = Workload::ALL
        .iter()
        .map(|w| (w.name(), Json::Int(w.repeats() as u64)));
    Json::obj([
        ("nproc", Json::Int(cores() as u64)),
        ("workers", Json::Int(workers() as u64)),
        ("oversubscribed", Json::Bool(workers() > cores())),
        (
            "core.simd.backend",
            Json::str(pmcmc_core::simd::backend().name()),
        ),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        (
            "git_rev",
            Json::Str(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("seed", Json::Int(seed)),
        ("repeats", Json::obj(repeats)),
    ])
}

/// The suite's result as one document.
pub fn document(seed: u64, result: &SuiteResult) -> Json {
    let workloads = result.workloads.iter().map(|w| {
        let digest = w
            .end_to_end
            .digest
            .map_or(Json::Null, |d| Json::Str(format!("{d:016x}")));
        let fields = [
            ("digest", digest),
            ("end_to_end", readings(&w.end_to_end.metrics)),
            ("per_layer", readings(&w.per_layer.metrics)),
        ];
        (w.workload.name(), Json::obj(fields))
    });
    Json::obj([
        ("provenance", provenance(seed)),
        ("correct", Json::Bool(result.problems.is_empty())),
        ("workloads", Json::obj(workloads)),
        ("derived", readings(&result.derived)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_lines_parse_and_other_lines_do_not() {
        assert_eq!(
            parse_metric("metric wall_s s 2.0312 n=9 min=2.01 max=2.2"),
            Some(("wall_s".to_owned(), 2.0312, "s".to_owned()))
        );
        assert_eq!(parse_metric("metric wall_s s"), None);
        assert_eq!(parse_metric("metric wall_s s fast"), None);
        assert_eq!(parse_metric("workload dense_sequential"), None);
        assert_eq!(
            parse_digest("digest batch_small_local 00000000000000ff"),
            Some(255)
        );
        assert_eq!(parse_digest("digest batch_small_local xyz"), None);
    }

    fn result(workload: Workload, wall_s: f64, digest: u64) -> WorkloadResult {
        let metrics = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    if m.name == "wall_s" { wall_s } else { 1.0 },
                    m.unit.to_owned(),
                )
            })
            .collect();
        WorkloadResult {
            workload,
            end_to_end: ChildRun {
                metrics,
                digest: Some(digest),
            },
            per_layer: ChildRun {
                metrics: vec![],
                digest: Some(digest),
            },
        }
    }

    fn suite(wall_s: f64, digest: u64) -> SuiteResult {
        SuiteResult {
            workloads: vec![result(Workload::DenseSequential, wall_s, digest)],
            derived: vec![],
            problems: vec![],
        }
    }

    #[test]
    fn repeat_sets_must_agree_within_bounds_and_exactly_on_detections() {
        let bound = END_TO_END[1].bound;
        assert_eq!(END_TO_END[1].name, "wall_s");
        assert!(compare(&suite(2.0, 7), &suite(2.0 * (1.0 + 0.5 * bound), 7)).is_empty());
        assert_eq!(
            compare(&suite(2.0, 7), &suite(2.0 * (1.0 + 1.5 * bound), 7)).len(),
            1
        );
        assert_eq!(
            compare(&suite(2.0, 7), &suite(2.0 * (1.0 - 1.5 * bound), 7)).len(),
            1
        );
        assert_eq!(compare(&suite(2.0, 7), &suite(2.0, 8)).len(), 1);
        let empty = SuiteResult {
            workloads: vec![],
            derived: vec![],
            problems: vec![],
        };
        assert_eq!(compare(&suite(2.0, 7), &empty).len(), 1);
    }

    #[test]
    fn distributed_overhead_is_priced_against_sharded() {
        let results = [
            result(Workload::BatchSmallSharded, 1.0, 1),
            result(Workload::BatchSmallDistributed, 1.256, 1),
        ];
        let derived = derive(&results);
        assert_eq!(derived.len(), 1);
        assert_eq!(
            derived[0].0,
            "parallel.job.backend.distributed.overhead_per_job_us"
        );
        assert!((derived[0].1 - 1000.0).abs() < 1e-6, "{}", derived[0].1);
    }
}
