//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro all [--seed N] [--csv]     # everything, publication order
//! repro fig11 [--seed N] [--csv]    # one figure
//! repro list                        # available figure and bench ids
//! repro summary [--seed N]          # verify every textual claim
//! repro check [BENCH_x.json ...]    # gate committed artifacts (default: all)
//! repro <bench> [--seed N] [--smoke] [--fault-rate F] [--csv] [--telemetry]
//! ```
//!
//! The benches are the rows of `bench::runner::BENCHES` (`fastpath`,
//! `engine`, `chaos`, `mobility`, `recovery`, `scale`, `tournament`,
//! `migrate`, `ha`): each prints its own text (chaos its
//! figure) and then, if it has one, its `BENCH_*.json` artifact, writes that
//! artifact and exits non-zero if what it wrote fails the artifact's gate —
//! the gate `check` applies to the files as committed.
//!
//! `--telemetry` makes `chaos`, `mobility` and `recovery` run each arm on a
//! harness that records per-request span trees (`telemetry::SpanLog` in
//! place of the zero-sized `telemetry::Off`), each arm its own (printed under
//! the arm's label as a one-line JSON log, a validation line and the metrics;
//! `chaos` adds an ASCII timeline of the busiest request), and fail on a
//! malformed or incomplete log. Simulation results are byte-identical either
//! way; without the flag no span code is compiled into the run.
//!
//! A subcommand refuses a flag it does not read (`bench::runner::parse_args`):
//! `--seed` is read by the seeded figures, `summary` and the benches that
//! simulate; `--smoke` by the benches with a CI size; `--fault-rate` by
//! `chaos` and `recovery`; `--csv` by the figures and `chaos`.

use bench::runner::{self, BENCHES};
use std::env;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let (id, rest, opts) = match runner::parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => return fail(&message),
    };
    let seed = opts.seed;

    let done = match id.as_str() {
        "check" => runner::check(&rest),
        "summary" => {
            println!("transparent-edge-rs — paper claims, measured fresh (seed {seed})\n");
            let claims = bench::summary::verify_claims(seed);
            print!("{}", bench::summary::render(&claims));
            let holding = claims.iter().filter(|c| c.holds).count();
            println!("\n{holding} / {} claims hold", claims.len());
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
