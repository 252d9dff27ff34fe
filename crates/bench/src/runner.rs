//! The one runner behind `repro <bench>`, `repro list` and `repro check`: a
//! table of benches, each with its banner, how to run it, the artifact it
//! writes and that artifact's gate. A run writes its artifact, reads back
//! what it wrote and gates *that* — the same function `repro check` applies
//! to the committed file and the unit tests make fail clause by clause.

use crate::{artifact, engine, fastpath, ha, migrate, mobility, recovery, scale, tournament};
use std::fmt::Write as _;
use testbed::experiments::{self, Experiment};
use yamlite::Value;

/// The `repro` flags a bench run reads.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// `--seed`.
    pub seed: u64,
    /// `--smoke`: the CI-sized variant.
    pub smoke: bool,
    /// `--fault-rate` (chaos, recovery).
    pub fault_rate: f64,
    /// `--csv`: print an experiment's table as CSV instead of its figure.
    pub csv: bool,
    /// `--telemetry`: record spans and metrics (chaos, mobility, recovery).
    pub telemetry: bool,
}

/// Judges a parsed artifact: `Err` names the first clause that fails.
pub type Gates = fn(&Value) -> Result<(), String>;

/// What one run hands the runner.
pub struct Outcome {
    /// The bench's own text, printed after the banner: an experiment's
    /// figure, the telemetry bench's summary line; empty for the rest.
    pub text: String,
    /// The artifact's text, printed after `text` and written; empty for a
    /// bench that writes none.
    pub artifact: String,
    /// A check on the run itself rather than on its artifact: the span
    /// export under `--telemetry`, the telemetry bench's overhead budget.
    pub verdict: Result<(), String>,
}

/// One `repro` bench subcommand.
pub struct Bench {
    /// The subcommand.
    pub id: &'static str,
    /// The banner, with `{seed}`, `{rate}` and `{, smoke}` filled in from
    /// the options.
    banner: &'static str,
    /// The artifact it writes at the repository root, and its gate.
    pub artifact: Option<(&'static str, Gates)>,
    run: fn(&Opts) -> Outcome,
}

/// The outcome of a bench whose output is its artifact.
fn report(artifact: String) -> Outcome {
    Outcome {
        text: String::new(),
        artifact,
        verdict: Ok(()),
    }
}

/// What `repro` prints for an experiment — its figure, or under `--csv` its
/// table and machine-readable summary line — and, when it recorded, the
/// span export, its check line, optionally the busiest request's timeline,
/// and the metrics; plus the verdict on that recording: well-formed, every
/// span closed and, when `must_include` names one, such a span present.
fn experiment<S>(
    e: &Experiment<S>,
    o: &Opts,
    must_include: Option<&str>,
    timeline: bool,
) -> (String, Result<(), String>) {
    let fig = &e.figure;
    let mut text = if o.csv {
        let prefix = format!("{}-summary ", fig.id);
        let summary = fig.body.lines().find(|l| l.starts_with(&prefix));
        fig.table.to_csv() + &summary.map_or(String::new(), |l| format!("{l}\n"))
    } else {
        format!("{}\n", fig.body)
    };
    let Some((log, metrics)) = &e.recording else {
        return (text, Ok(()));
    };
    let check = log.check();
    let _ = writeln!(text, "spans: {}\n{}", log.to_json(), check.to_json_line());
    let busiest = || {
        log.request_ids()
            .into_iter()
            .max_by_key(|r| log.spans_for_request(*r).count())
    };
    if let Some(busiest) = timeline.then(busiest).flatten() {
        text += "\nbusiest request timeline:\n";
        text += &testbed::report::span_timeline(log, busiest, 48);
    }
    let _ = writeln!(text, "\nmetrics: {}", metrics.to_json());
    let verdict = match check.ok() {
        true => log.check_export(must_include),
        false => Err(format!("malformed span log: {}", check.to_json_line())),
    };
    (text, verdict)
}

/// Every bench subcommand, in `repro list` order.
pub const BENCHES: &[Bench] = &[
    Bench {
        id: "fastpath",
        banner: "data-plane fast path (naive vs indexed lookup, warm hit through the full switch path)",
        artifact: Some(("BENCH_flowtable.json", fastpath::gates)),
        run: |_| report(fastpath::run()),
    },
    Bench {
        id: "engine",
        banner: "event-core throughput (calendar queue vs naive heap)",
        artifact: Some(("BENCH_engine.json", engine::gates)),
        run: |o| report(engine::run(o.smoke)),
    },
    Bench {
        id: "telemetry",
        banner: "telemetry overhead (disabled path vs fast path)",
        artifact: None,
        run: |_| {
            let (line, overhead_pct) = crate::telemetry::run();
            let text = line + "\n";
            let verdict = match overhead_pct < 2.0 {
                true => Ok(()),
                false => Err("disabled telemetry overhead exceeds the 2% budget".to_owned()),
            };
            Outcome { text, artifact: String::new(), verdict }
        },
    },
    Bench {
        id: "chaos",
        banner: "chaos: deployment pipeline under faults (seed {seed}, rate {rate})",
        artifact: None,
        run: |o| {
            let e = experiments::chaos(o.seed, o.fault_rate, o.smoke, o.telemetry);
            let (text, verdict) = experiment(&e, o, None, true);
            Outcome { text, artifact: String::new(), verdict }
        },
    },
    Bench {
        id: "mobility",
        banner: "mobility: multi-gNB handover, anchored vs re-dispatch (seed {seed})",
        artifact: Some(("BENCH_mobility.json", mobility::gates)),
        run: |o| {
            let (e, artifact) = mobility::run(o.seed, o.smoke, o.telemetry);
            let (text, verdict) = experiment(&e, o, Some("handover"), false);
            Outcome { text, artifact, verdict }
        },
    },
    Bench {
        id: "recovery",
        banner: "recovery: self-healing control plane under runtime chaos (seed {seed}, rate {rate})",
        artifact: Some(("BENCH_recovery.json", recovery::gates)),
        run: |o| {
            let (e, artifact) = recovery::run(o.seed, o.fault_rate, o.smoke, o.telemetry);
            // A run that killed an instance must show the repair it caused.
            let killed = e.runs.iter().any(|(_, s)| s.instance_crashes + s.zone_outages > 0);
            let (text, verdict) = experiment(&e, o, killed.then_some("recovery"), false);
            Outcome { text, artifact, verdict }
        },
    },
    Bench {
        id: "scale",
        banner: "fleet scale: sharded controller, aggregated vs exact rules (seed {seed}{, smoke})",
        artifact: Some(("BENCH_scale.json", scale::gates)),
        run: |o| report(scale::run(o.seed, o.smoke)),
    },
    Bench {
        id: "tournament",
        banner: "scheduler tournament: bursty workload, autoscaling on (seed {seed}{, smoke})",
        artifact: Some(("BENCH_tournament.json", tournament::gates)),
        run: |o| report(tournament::run(o.seed, o.smoke)),
    },
    Bench {
        id: "migrate",
        banner: "live migration: interruption vs state size, live vs cold re-dispatch (seed {seed}{, smoke})",
        artifact: Some(("BENCH_migrate.json", migrate::gates)),
        run: |o| report(migrate::run(o.seed, o.smoke)),
    },
    Bench {
        id: "ha",
        banner: "crash recovery: warm journal replay vs cold restart, crash rate 1.0 (seed {seed}{, smoke})",
        artifact: Some(("BENCH_ha.json", ha::gates)),
        run: |o| report(ha::run(o.seed, o.smoke)),
    },
];

impl Bench {
    /// Runs the bench as `repro <id>` does: banner, the bench's own text
    /// (an experiment's figure), the artifact text once, then — for a bench
    /// with an artifact — write it, read back what was written and gate
    /// that. `Err` carries the message for stderr; the exit status follows
    /// it.
    pub fn execute(&self, o: &Opts) -> Result<(), String> {
        let banner = self
            .banner
            .replace("{seed}", &o.seed.to_string())
            .replace("{rate}", &o.fault_rate.to_string())
            .replace("{, smoke}", if o.smoke { ", smoke" } else { "" });
        println!("transparent-edge-rs — {banner}\n");
        let outcome = (self.run)(o);
        print!("{}{}", outcome.text, outcome.artifact);
        if let Some((file, gates)) = self.artifact {
            println!();
            artifact::write(file, &outcome.artifact)?;
            judge(file, gates, &artifact::read(file)?)?;
        }
        outcome.verdict
    }
}

/// Applies an artifact's gate, prefixing a failure with the file name.
pub fn judge(file: &str, gates: Gates, v: &Value) -> Result<(), String> {
    gates(v).map_err(|e| format!("{file}: {e}"))
}

/// `repro check [artifact…]`: gates the named artifacts as they stand at
/// the repository root — all of them when none is named — and prints one
/// `<file> OK` line each.
pub fn check(names: &[String]) -> Result<(), String> {
    let known = || BENCHES.iter().filter_map(|b| b.artifact);
    let all: Vec<String> = known().map(|(file, _)| file.to_owned()).collect();
    for name in if names.is_empty() { &all } else { names } {
        let (file, gates) = known()
            .find(|(file, _)| file == name)
            .ok_or_else(|| format!("unknown artifact `{name}`; known: {}", all.join(" ")))?;
        judge(file, gates, &artifact::read(file)?)?;
        println!("{file} OK");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_order_and_artifacts_are_the_documented_ones() {
        let ids: Vec<_> = BENCHES.iter().map(|b| b.id).collect();
        assert_eq!(
            ids,
            [
                "fastpath",
                "engine",
                "telemetry",
                "chaos",
                "mobility",
                "recovery",
                "scale",
                "tournament",
                "migrate",
                "ha"
            ]
        );
        assert_eq!(BENCHES.iter().filter(|b| b.artifact.is_some()).count(), 8);
    }

    #[test]
    fn every_committed_artifact_passes_its_gate() {
        assert_eq!(check(&[]), Ok(()));
        let e = check(&["BENCH_nope.json".to_owned()]).unwrap_err();
        assert!(
            e.contains("unknown artifact `BENCH_nope.json`") && e.contains("BENCH_ha.json"),
            "{e}"
        );
    }

    #[test]
    fn the_runner_fails_a_run_whose_artifact_violates_a_clause() {
        // What `execute` applies to the artifact it wrote, fed a doctored one.
        let (file, gates) = BENCHES
            .iter()
            .find(|b| b.id == "ha")
            .unwrap()
            .artifact
            .unwrap();
        let good = std::fs::read_to_string(artifact::path(file)).unwrap();
        assert_eq!(judge(file, gates, &artifact::parse(&good).unwrap()), Ok(()));
        let bad = good.replace("\"panics\": 0", "\"panics\": 1");
        let e = judge(file, gates, &artifact::parse(&bad).unwrap()).unwrap_err();
        assert_eq!(e, "BENCH_ha.json: gate failed: panics == 0");
    }

    #[test]
    fn an_experiment_verdict_rejects_a_log_missing_the_required_span() {
        let o = Opts {
            seed: 7,
            smoke: true,
            fault_rate: 0.15,
            csv: true,
            telemetry: true,
        };
        let e = experiments::chaos(o.seed, o.fault_rate, o.smoke, o.telemetry);
        let (text, verdict) = experiment(&e, &o, None, true);
        assert_eq!(verdict, Ok(()));
        assert!(
            text.contains("\nchaos-summary {") && text.contains("\nspan-check {"),
            "csv keeps both"
        );
        assert!(text.contains("busiest request timeline"));
        let (_, verdict) = experiment(&e, &o, Some("handover"), false);
        assert_eq!(verdict, Err("no `handover` span in export".to_owned()));
    }
}
