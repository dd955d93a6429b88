//! The repo benchmark. See `README.md` beside this package's manifest and
//! `BENCHMARK.json` at the repository root.
//!
//! ```text
//! pmcmc-benchmark [--seed N]                      the whole suite, R repeats each
//! pmcmc-benchmark --check-repeat [--seed N]       the suite twice, compared by its own bounds
//! pmcmc-benchmark --workload W --seed N --seconds S --trace 0|1
//!                                                 one run, as the driver starts it
//! pmcmc-benchmark --print-manifest                BENCHMARK.json
//! ```

mod check;
mod inputs;
mod json;
mod layers;
mod procfs;
mod run;
mod spec;
mod stats;
mod suite;
mod trace;
mod workload;

use run::{Options, Outcome};
use std::process::ExitCode;
use workload::Workload;

#[derive(Debug, PartialEq)]
struct Args {
    seed: u64,
    workload: Option<Workload>,
    seconds: Option<f64>,
    trace: bool,
    check_repeat: bool,
    print_manifest: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        seed: 42,
        workload: None,
        seconds: None,
        trace: false,
        check_repeat: false,
        print_manifest: false,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => {
                let v = value()?;
                parsed.seed = v.parse().map_err(|_| format!("--seed {v}: not a u64"))?;
            }
            "--workload" => {
                let v = value()?;
                let known = || Workload::ALL.map(Workload::name).join(", ");
                parsed.workload = Some(
                    Workload::from_name(&v)
                        .ok_or_else(|| format!("--workload {v}: not one of {}", known()))?,
                );
            }
            "--seconds" => {
                let v = value()?;
                let seconds: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds {v}: not a number"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(format!("--seconds {v}: must be positive"));
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: must be 0 or 1")),
                };
            }
            "--check-repeat" => parsed.check_repeat = true,
            "--print-manifest" => parsed.print_manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn print_outcome(opts: &Options, outcome: &Outcome) {
    let name = opts.workload.name();
    println!(
        "workload {name} seed {} trace {} nproc {} workers {} simd {}",
        opts.seed,
        u8::from(opts.trace),
        run::cores(),
        run::workers(),
        pmcmc_core::simd::backend().name(),
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    for m in &outcome.metrics {
        match m.samples {
            Some(s) => println!(
                "metric {} {} {} n={} min={} q1={} median={} q3={} max={}",
                m.name, m.unit, m.value, s.n, s.min, s.q1, s.median, s.q3, s.max
            ),
            None => println!("metric {} {} {}", m.name, m.unit, m.value),
        }
    }
    println!("digest {name} {:016x}", outcome.digest);
    println!(
        "jobs {name} attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
    for problem in &outcome.problems {
        println!("FAILED {name}: {problem}");
    }
    println!("{}", outcome.result_line());
}

fn run_one(opts: &Options) -> ExitCode {
    match run::run(opts) {
        Ok(outcome) => {
            print_outcome(opts, &outcome);
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_suite(args: &Args) -> ExitCode {
    println!("provenance {}", suite::provenance(args.seed).line());
    let first = suite::run_suite(&Workload::ALL, args.seed, args.seconds);
    let mut problems = first.problems.clone();
    for (name, value, unit) in &first.derived {
        println!("derived {name} {unit} {value}");
    }
    let document = suite::document(args.seed, &first);
    let path = run::trace_dir().with_file_name(format!("suite-seed{}.json", args.seed));
    let written = std::fs::create_dir_all(run::trace_dir())
        .and_then(|()| std::fs::write(&path, document.pretty()));
    match written {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: {} not written: {e}", path.display()),
    }
    if args.check_repeat {
        println!("second set, same commit, same seed");
        let second = suite::run_suite(&Workload::ALL, args.seed, args.seconds);
        problems.extend(second.problems.clone());
        problems.extend(suite::compare(&first, &second));
    }
    for problem in &problems {
        println!("FAILED {problem}");
    }
    if problems.is_empty() {
        println!("all output checks passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_manifest {
        print!("{}", spec::manifest().pretty());
        return ExitCode::SUCCESS;
    }
    match args.workload {
        Some(workload) if !args.check_repeat => run_one(&Options {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
        }),
        Some(_) => {
            eprintln!("error: --check-repeat compares whole suites; drop --workload");
            ExitCode::from(2)
        }
        None => run_suite(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn driver_arguments_parse() {
        let args =
            parse("--workload dense_periodic --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(args.workload, Some(Workload::DensePeriodic));
        assert_eq!((args.seed, args.seconds, args.trace), (7, Some(10.0), true));
        let defaults = parse("").expect("valid");
        assert_eq!(
            (defaults.seed, defaults.workload, defaults.trace),
            (42, None, false)
        );
        assert!(parse("--check-repeat").expect("valid").check_repeat);
    }

    #[test]
    fn bad_arguments_are_refused() {
        for line in [
            "--workload nope",
            "--seed -1",
            "--seed",
            "--seconds 0",
            "--seconds soon",
            "--trace 2",
            "--fast",
        ] {
            assert!(parse(line).is_err(), "{line} should be refused");
        }
    }
}
