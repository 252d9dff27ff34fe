//! The `e2ebench` command line. See `README.md` beside this crate.

use e2ebench::alloc::CountingAlloc;
use e2ebench::suite::{self, RepSample, WorkloadResult};
use e2ebench::workloads::{Size, Workload};
use e2ebench::{e2e, metrics, trace};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: e2ebench <command> [options]

commands:
  run        measure every workload end to end (tracing off) and print every metric
  trace      traced run: per-layer metrics, span statistics, share of the wall per layer
  selfcheck  run the suite twice on this build; fail unless the two agree within the bounds
  measure    one driver run: --workload W --seed N --seconds S --trace 0|1, result as JSON
  rep        one repetition in this process (what the other commands spawn)
  manifest   print BENCHMARK.json as this build defines it

options:
  --workload W   flow_churn | bulk_transfer | deploy_churn | handover_storm (default: all)
  --seed N       seed of the generated inputs (default 1)
  --seconds S    wall seconds of repetitions per workload (default 25; at least 5 repetitions)
  --smoke        the small size the tests use (well under a second per workload)";

/// Parsed options.
struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    size: Size,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: f64::from(metrics::RUN_SECONDS),
        size: Size::Full,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                o.workload = Some(
                    Workload::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds >= 0.0 && o.seconds <= 3600.0) {
                    return Err("--seconds must lie between 0 and 3600".to_owned());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => o.size = Size::Smoke,
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(o)
}

/// Where the span trees go: beside the build, never the repository root.
fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("e2ebench")
}

fn workloads(o: &Options) -> Vec<Workload> {
    o.workload
        .map_or_else(|| Workload::ALL.to_vec(), |w| vec![w])
}

fn measure_all(o: &Options) -> Result<Vec<WorkloadResult>, String> {
    workloads(o)
        .into_iter()
        .map(|w| {
            let r = suite::measure(w, o.seed, o.size, o.seconds)?;
            r.print();
            Ok(r)
        })
        .collect()
}

fn incorrect(results: &[WorkloadResult]) -> Vec<String> {
    results
        .iter()
        .filter(|r| !r.correct())
        .map(|r| {
            format!(
                "{}: output check or determinism guard failed",
                r.workload.name()
            )
        })
        .collect()
}

fn command(name: &str, o: &Options) -> Result<Vec<String>, String> {
    match name {
        "rep" => {
            let w = o.workload.ok_or("rep needs --workload")?;
            let (measured, outcome) = e2e::run_plain(&w.spec(o.size), o.seed);
            println!("{}", RepSample::new(&measured, &outcome).to_line());
            Ok(Vec::new())
        }
        "manifest" => {
            print!("{}", metrics::manifest());
            Ok(Vec::new())
        }
        "run" => Ok(incorrect(&measure_all(o)?)),
        "trace" => {
            let mut problems = Vec::new();
            for w in workloads(o) {
                let report = trace::run(w, o.seed, o.size, &out_dir())?;
                report.print();
                if !report.correct {
                    problems.push(format!("{}: traced run failed its checks", w.name()));
                }
            }
            Ok(problems)
        }
        "selfcheck" => {
            let first = measure_all(o)?;
            let second = measure_all(o)?;
            let mut problems = incorrect(&first);
            problems.extend(incorrect(&second));
            println!("\nselfcheck: first against second set of runs");
            for (a, b) in first.iter().zip(&second) {
                suite::print_comparison(a, b);
                problems.extend(suite::disagreements(a, b));
            }
            Ok(problems)
        }
        "measure" => {
            let w = o.workload.ok_or("measure needs --workload")?;
            let line = if o.trace {
                let report = trace::run(w, o.seed, o.size, &out_dir())?;
                report.print();
                report.result_line()
            } else {
                let result = suite::measure(w, o.seed, o.size, o.seconds)?;
                result.print();
                result.result_line()
            };
            // The driver reads the last line of standard output.
            println!("{line}");
            Ok(Vec::new())
        }
        other => Err(format!("unknown command {other}\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if name == "--help" || name == "-h" || name == "help" {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match parse(rest).and_then(|o| command(name, &o)) {
        Ok(problems) if problems.is_empty() => ExitCode::SUCCESS,
        Ok(problems) => {
            for p in problems {
                eprintln!("FAILED {p}");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::from(2)
        }
    }
}
