//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro all [--seed N] [--csv] [--telemetry]   # everything, publication order
//! repro fig11 [--seed N] [--csv]    # one figure
//! repro list                        # available figure and bench ids
//! repro summary [--seed N]          # verify every textual claim
//! repro check [BENCH_x.json ...]    # gate committed artifacts (default: all)
//! repro <bench> [--seed N] [--smoke] [--fault-rate F] [--telemetry]
//! ```
//!
//! The benches are the rows of `bench::runner::BENCHES` (`fastpath`,
//! `engine`, `telemetry`, `chaos`, `mobility`, `recovery`, `scale`,
//! `tournament`, `migrate`, `ha`): each prints its own text (an experiment's
//! figure) and then, if it has one, its `BENCH_*.json` artifact, writes that
//! artifact and exits non-zero if what it wrote fails the artifact's gate —
//! the gate `check` applies to the files as committed. `--fault-rate` is read
//! by `chaos` and `recovery`.
//!
//! `--telemetry` turns observability output on: `chaos`, `mobility` and
//! `recovery` record per-request span trees (printed as a one-line JSON log
//! and a validation line; `chaos` adds an ASCII timeline of the busiest
//! request) and fail on a malformed or incomplete log; every mode appends a
//! `metrics:` JSON snapshot. Simulation results are byte-identical either
//! way.

use bench::runner::{self, Opts, BENCHES};
use std::env;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut positional: Vec<String> = Vec::new();
    let mut opts = Opts {
        seed: 7,
        smoke: false,
        fault_rate: 0.1,
        csv: false,
        telemetry: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                i += 1;
                opts.seed = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(s) => s,
                    None => return fail("--seed needs an integer"),
                };
            }
            "--fault-rate" => {
                i += 1;
                opts.fault_rate = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(r) if (0.0..=1.0).contains(&r) => r,
                    _ => return fail("--fault-rate needs a number in [0, 1]"),
                };
            }
            "--smoke" => opts.smoke = true,
            "--csv" => opts.csv = true,
            "--telemetry" => opts.telemetry = true,
            other => positional.push(other.to_owned()),
        }
        i += 1;
    }
    let id = positional.first().map_or("all", String::as_str);
    // Only `check` takes further positional arguments: the artifacts to gate.
    if let (true, Some(extra)) = (id != "check", positional.get(1)) {
        return fail(&format!("unexpected argument `{extra}`"));
    }
    let seed = opts.seed;
    // Figure modes collect metrics through the process-global registry
    // (every finished testbed run merges its snapshot); chaos, mobility and
    // recovery record and print their own, richer output.
    if opts.telemetry && !matches!(id, "chaos" | "mobility" | "recovery") {
        telemetry::global::enable();
    }

    let done = match id {
        "check" => runner::check(&positional[1..]),
        "summary" => {
            println!("transparent-edge-rs — paper claims, measured fresh (seed {seed})\n");
            let claims = bench::summary::verify_claims(seed);
            print!("{}", bench::summary::render(&claims));
            let holding = claims.iter().filter(|c| c.holds).count();
            println!("\n{holding} / {} claims hold", claims.len());
            println!("\nperf trajectory (committed BENCH_*.json artifacts):\n");
            print!(
                "{}",
                bench::summary::render_trajectory(&bench::summary::perf_trajectory())
            );
            print_global_metrics(opts.telemetry);
            if holding < claims.len() {
                return ExitCode::FAILURE;
            }
            Ok(())
        }
        "list" => {
            for id in bench::FIGURE_IDS
                .iter()
                .copied()
                .chain(BENCHES.iter().map(|b| b.id))
            {
                println!("{id}");
            }
            Ok(())
        }
        "all" => {
            println!("transparent-edge-rs — reproducing the full evaluation (seed {seed})\n");
            for fig in bench::all_figures(seed) {
                if opts.csv {
                    println!("# {}: {}", fig.id, fig.title);
                    print!("{}", fig.table.to_csv());
                    println!();
                } else {
                    println!("{}", fig.body);
                }
            }
            print_global_metrics(opts.telemetry);
            Ok(())
        }
        other => match BENCHES.iter().find(|b| b.id == other) {
            Some(b) => b.execute(&opts),
            None => match bench::figure_by_id(other, seed) {
                Some(fig) => {
                    if opts.csv {
                        print!("{}", fig.table.to_csv());
                    } else {
                        println!("{}", fig.body);
                    }
                    print_global_metrics(opts.telemetry);
                    Ok(())
                }
                None => Err(format!("unknown figure `{other}`; try `repro list`")),
            },
        },
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => fail(&message),
    }
}

fn fail(message: &str) -> ExitCode {
    eprintln!("{message}");
    ExitCode::FAILURE
}

/// Prints the process-global metrics snapshot (`--telemetry` figure modes).
fn print_global_metrics(telemetry_on: bool) {
    if telemetry_on {
        println!("metrics: {}", telemetry::global::snapshot_json());
    }
}
