//! The one runner behind `repro <bench>`, `repro list` and `repro check`: a
//! table of benches, each with its banner, how to run it, the artifact it
//! writes and that artifact's gate. A run writes its artifact, reads back
//! what it wrote and gates *that* — the same function `repro check` applies
//! to the committed file and the unit tests make fail clause by clause.
//! [`parse_args`] reads `repro`'s command line and refuses a flag its
//! subcommand does not read.

use crate::{artifact, engine, fastpath, ha, migrate, mobility, recovery, scale, tournament};
use std::fmt::Write as _;
use testbed::experiments::{self, ChaosRun, Experiment};
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
    /// `--csv`: print a figure's table as CSV instead of the figure.
    pub csv: bool,
    /// `--telemetry`: record spans and metrics (chaos, mobility, recovery).
    pub telemetry: bool,
}

/// Judges a parsed artifact: `Err` names the first clause that fails.
pub(crate) type Gates = fn(&Value) -> Result<(), String>;

/// What one run hands the runner.
pub(crate) struct Outcome {
    /// The bench's own text, printed after the banner: chaos's figure, an
    /// experiment's recordings; empty for the rest.
    pub text: String,
    /// The artifact's text, printed after `text` and written; empty for a
    /// bench that writes none.
    pub(crate) artifact: String,
    /// A check on the run itself rather than on its artifact: the span
    /// export under `--telemetry`.
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
    pub(crate) artifact: Option<(&'static str, Gates)>,
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

/// What `repro` prints for an experiment's recordings — per arm, under its
/// label: the span export, its check line, optionally the busiest request's
/// timeline, and the metrics — and the verdict on them: every arm's log
/// well-formed with every span closed and, when `must_include` names one,
/// such a span in some arm's log.
fn recordings<S>(
    e: &Experiment<S>,
    must_include: Option<&str>,
    timeline: bool,
) -> (String, Result<(), String>) {
    let mut text = String::new();
    let mut verdict = Ok(());
    for (label, (log, metrics)) in &e.recordings {
        let check = log.check();
        let _ = writeln!(text, "{label} spans: {}\n{label} {}", log.to_json(), check.to_json_line());
        let busiest = log.request_ids().into_iter().max_by_key(|r| log.spans_for_request(*r).count());
        if let Some(busiest) = busiest.filter(|_| timeline) {
            let _ = writeln!(text, "\n{label} busiest request timeline:");
            text += &testbed::report::span_timeline(log, busiest, 48);
        }
        let _ = writeln!(text, "\n{label} metrics: {}\n", metrics.to_json());
        let arm = match check.ok() {
            true => log.check_export(None),
            false => Err(format!("malformed span log: {}", check.to_json_line())),
        };
        verdict = verdict.and(arm.map_err(|e| format!("{label}: {e}")));
    }
    if let Some(name) = must_include.filter(|_| !e.recordings.is_empty()) {
        if !e.recordings.iter().any(|(_, (log, _))| log.check_export(Some(name)).is_ok()) {
            verdict = verdict.and(Err(format!("no `{name}` span in any arm's export")));
        }
    }
    (text, verdict)
}

/// The chaos bench's verdict: every request terminates, at the edge or in
/// the cloud after a fallback.
fn every_request_completed(runs: &[(&'static str, ChaosRun)]) -> Result<(), String> {
    match runs.iter().find(|(_, r)| r.completed != r.requests) {
        None => Ok(()),
        Some((arm, r)) => Err(format!("{arm}: {} of {} requests completed", r.completed, r.requests)),
    }
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
        id: "chaos",
        banner: "chaos: deployment pipeline under faults (seed {seed}, rate {rate})",
        artifact: None,
        run: |o| {
            let (fig, e) = experiments::chaos(o.seed, o.fault_rate, o.smoke, o.telemetry);
            let mut text = match o.csv {
                true => fig.table.to_csv(),
                false => format!("{}\n", fig.body),
            };
            let (recorded, verdict) = recordings(&e, None, true);
            text += &recorded;
            let verdict = verdict.and(every_request_completed(&e.runs));
            Outcome { text, artifact: String::new(), verdict }
        },
    },
    Bench {
        id: "mobility",
        banner: "mobility: multi-gNB handover, anchored vs re-dispatch (seed {seed})",
        artifact: Some(("BENCH_mobility.json", mobility::gates)),
        run: |o| {
            let (e, artifact) = mobility::run(o.seed, o.smoke, o.telemetry);
            let (text, verdict) = recordings(&e, Some("handover"), false);
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
            let (text, verdict) = recordings(&e, killed.then_some("recovery"), false);
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

/// Parses `repro`'s arguments into the subcommand (`all` when none is
/// named), the further positional arguments (`check`'s artifacts) and the
/// options. A flag the subcommand does not read is refused, naming the
/// subcommands that read it.
pub fn parse_args(args: &[String]) -> Result<(String, Vec<String>, Opts), String> {
    let mut opts = Opts { seed: 7, smoke: false, fault_rate: 0.1, csv: false, telemetry: false };
    let (mut positional, mut given) = (Vec::new(), Vec::new());
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                let seed = args.next().and_then(|s| s.parse().ok());
                opts.seed = seed.ok_or("--seed needs an integer")?;
            }
            "--fault-rate" => {
                let rate = args.next().and_then(|s| s.parse().ok());
                let rate = rate.filter(|r| (0.0..=1.0).contains(r));
                opts.fault_rate = rate.ok_or("--fault-rate needs a number in [0, 1]")?;
            }
            "--smoke" => opts.smoke = true,
            "--csv" => opts.csv = true,
            "--telemetry" => opts.telemetry = true,
            other => {
                positional.push(other.to_owned());
                continue;
            }
        }
        given.push(arg.as_str());
    }
    let id = match positional.is_empty() {
        true => "all".to_owned(),
        false => positional.remove(0),
    };
    // Only `check` takes further positional arguments: the artifacts to gate.
    if let (true, Some(extra)) = (id != "check", positional.first()) {
        return Err(format!("unexpected argument `{extra}`"));
    }
    let known = || {
        ["all", "summary", "check", "list"]
            .into_iter()
            .chain(crate::FIGURE_IDS.iter().copied())
            .chain(BENCHES.iter().map(|b| b.id))
    };
    if let Some(flag) = given.into_iter().find(|f| known().any(|k| k == id) && !reads(&id, f)) {
        let readers: Vec<_> = known().filter(|k| reads(k, flag)).map(|k| format!("`{k}`")).collect();
        let (last, rest) = readers.split_last().expect("every flag has a reader");
        return Err(format!("{flag} is read by {} and {last} only", rest.join(", ")));
    }
    Ok((id, positional, opts))
}

/// Whether subcommand `id` reads `flag`: `--seed` every seeded figure (not
/// `table1` or `fig13`), `summary` and every bench that simulates;
/// `--smoke` every bench with a CI-sized variant; `--fault-rate` `chaos`
/// and `recovery`; `--csv` the figures and `chaos`, the one bench that
/// prints a figure; `--telemetry` the three experiments that record.
fn reads(id: &str, flag: &str) -> bool {
    let figure = id == "all" || crate::FIGURE_IDS.contains(&id);
    let experiment = matches!(id, "chaos" | "mobility" | "recovery");
    let sized = experiment || matches!(id, "engine" | "scale" | "tournament" | "migrate" | "ha");
    match flag {
        "--seed" => {
            (figure && !matches!(id, "table1" | "fig13"))
                || id == "summary"
                || (sized && id != "engine")
        }
        "--smoke" => sized,
        "--fault-rate" => matches!(id, "chaos" | "recovery"),
        "--csv" => figure || id == "chaos",
        _ => experiment,
    }
}

/// Applies an artifact's gate, prefixing a failure with the file name.
pub(crate) fn judge(file: &str, gates: Gates, v: &Value) -> Result<(), String> {
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
        let (_, e) = experiments::chaos(7, 0.15, true, true);
        let (text, verdict) = recordings(&e, None, true);
        assert_eq!(verdict, Ok(()));
        for arm in ["docker", "k8s"] {
            assert!(text.contains(&format!("{arm} spans: [")), "{arm}");
            assert!(text.contains(&format!("\n{arm} span-check {{")), "{arm}");
            assert!(text.contains(&format!("{arm} busiest request timeline")), "{arm}");
            assert!(text.contains(&format!("{arm} metrics: {{")), "{arm}");
        }
        assert_eq!(recordings(&e, Some("request"), false).1, Ok(()));
        let (_, verdict) = recordings(&e, Some("handover"), false);
        assert_eq!(verdict, Err("no `handover` span in any arm's export".to_owned()));
        let (_, unrecorded) = experiments::chaos(7, 0.15, true, false);
        assert_eq!(recordings(&unrecorded, Some("handover"), false), (String::new(), Ok(())));
    }

    /// `parse_args` on a command line written as one string.
    fn parse(line: &str) -> Result<(String, Vec<String>, Opts), String> {
        parse_args(&line.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
    }

    #[test]
    fn every_command_line_ci_and_the_capture_script_run_is_accepted() {
        for line in [
            "check",
            "check BENCH_ha.json",
            "fastpath",
            "engine --smoke",
            "fig11",
            "fig11 --csv",
            "summary",
            "list",
            "no-such-figure",
            "chaos --smoke --seed 7",
            "chaos --smoke --seed 7 --csv",
            "chaos --smoke --fault-rate 0.15 --seed 7",
            "chaos --smoke --fault-rate 0.15 --seed 7 --telemetry",
            "mobility --smoke --seed 7",
            "mobility --smoke --seed 7 --telemetry",
            "recovery --smoke --seed 7",
            "recovery --smoke --fault-rate 1.0 --seed 7 --telemetry",
            "scale --smoke --seed 7",
            "tournament --smoke --seed 7",
            "migrate --smoke --seed 7",
            "ha --smoke --seed 7",
        ] {
            assert!(parse(line).is_ok(), "`{line}`: {:?}", parse(line).err());
        }
        let (id, rest, o) = parse("recovery --smoke --fault-rate 1.0 --seed 3 --telemetry").unwrap();
        assert_eq!((id.as_str(), rest.len()), ("recovery", 0));
        assert_eq!((o.seed, o.smoke, o.fault_rate, o.csv, o.telemetry), (3, true, 1.0, false, true));
        assert_eq!(parse("--seed 3").unwrap().0, "all");
    }

    #[test]
    fn a_flag_the_subcommand_does_not_read_is_refused() {
        for (line, flag) in [
            ("fastpath --smoke", "--smoke"),
            ("engine --seed 3", "--seed"),
            ("mobility --fault-rate 0.5", "--fault-rate"),
            ("scale --csv", "--csv"),
            ("fig13 --seed 3", "--seed"),
            ("summary --telemetry", "--telemetry"),
        ] {
            let err = parse(line).unwrap_err();
            assert!(err.starts_with(&format!("{flag} is read by ")), "`{line}`: {err}");
        }
        assert_eq!(
            parse("ha --telemetry").unwrap_err(),
            "--telemetry is read by `chaos`, `mobility` and `recovery` only"
        );
        assert_eq!(
            parse("scale --csv").unwrap_err(),
            "--csv is read by `all`, `table1`, `fig9`, `fig10`, `fig11`, `fig12`, `fig13`, \
             `fig14`, `fig15`, `fig16`, `hybrid`, `waiting`, `timeout-sweep`, `proactive`, \
             `local-scheduler`, `hierarchy` and `chaos` only"
        );
        assert_eq!(parse("fig11 extra").unwrap_err(), "unexpected argument `extra`");
        assert_eq!(parse("fig11 --seed x").unwrap_err(), "--seed needs an integer");
        assert!(parse("chaos --fault-rate 2").unwrap_err().contains("in [0, 1]"));
    }

    #[test]
    fn the_chaos_verdict_fails_a_run_that_lost_a_request() {
        let (_, mut e) = experiments::chaos(7, 0.15, true, false);
        assert_eq!(every_request_completed(&e.runs), Ok(()));
        let k8s = &mut e.runs[1].1;
        k8s.completed -= 1;
        let want = format!("k8s: {} of {} requests completed", k8s.completed, k8s.requests);
        assert_eq!(every_request_completed(&e.runs), Err(want));
    }
}
