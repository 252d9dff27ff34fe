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
//! The benches are the rows of `bench::runner::BENCHES` (`engine`,
//! `chaos`, `mobility`, `recovery`, `scale`, `tournament`, `migrate`,
//! `ha`): each prints its own text (chaos its
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

use bench::runner::{self, print, BENCHES};
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
            print(&format!("transparent-edge-rs — paper claims, measured fresh (seed {seed})\n\n"));
            let claims = bench::summary::verify_claims(seed);
            print(&bench::summary::render(&claims));
            let holding = claims.iter().filter(|c| c.holds).count();
            print(&format!("\n{holding} / {} claims hold\n", claims.len()));
            if holding < claims.len() {
                return ExitCode::FAILURE;
            }
            Ok(())
        }
        "list" => {
            for id in bench::figure_ids().chain(BENCHES.iter().map(|b| b.id)) {
                print(&format!("{id}\n"));
            }
            Ok(())
        }
        other => match BENCHES.iter().find(|b| b.id == other) {
            Some(b) => b.execute(&opts),
            None => {
                let all = other == "all";
                if all {
                    print(&format!("transparent-edge-rs — reproducing the full evaluation (seed {seed})\n\n"));
                }
                let figures = bench::figures(other, seed);
                for fig in figures.iter().flatten() {
                    match (opts.csv, all) {
                        (true, true) => print(&format!("# {}: {}\n{}\n", fig.id, fig.title, fig.table.to_csv())),
                        (true, false) => print(&fig.table.to_csv()),
                        (false, _) => print(&format!("{}\n", fig.body)),
                    }
                }
                figures.map(drop).ok_or_else(|| format!("unknown figure `{other}`; try `repro list`"))
            }
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
