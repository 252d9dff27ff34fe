//! Mobility/handover bench: per-policy handover-interruption percentiles.
//!
//! Run by `repro mobility`, which writes `BENCH_mobility.json`. It writes
//! the per-policy runs of `testbed::experiments::mobility` — the same
//! simulation the figure shows — as handover counts, the interruption
//! distribution (announce → last new-switch install) at p50/p95/p99 and the
//! session-continuity counts its gate holds at zero.

use crate::artifact;
use desim::Summary;
use testbed::experiments::{self, Experiment, MobilityStats};
use yamlite::Value;

/// The `p`-th percentile of a sample of seconds, in milliseconds; 0 for an
/// empty sample.
pub(crate) fn pct(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    Summary::new(xs.to_vec()).percentile(p).unwrap_or(0.0) * 1e3
}

/// The artifact's gate: session continuity — nothing dropped, and under
/// every policy no ping answered twice, no reset and no edge address seen by
/// a client — and every policy reports its interruption p99.
pub fn gates(v: &Value) -> Result<(), String> {
    artifact::zero_fields(v, &["total_dropped"])?;
    artifact::zero(v, "policies", &["double_answered", "resets", "transparency_violations"])?;
    artifact::each_row(v, "policies", "has interruption_p99_ms", |p| {
        Some(artifact::num(p, "interruption_p99_ms").is_some())
    })
}

/// Runs the mobility experiment once — both policies — and writes the very
/// runs its figure was built from as the `BENCH_mobility.json` text.
pub fn run(seed: u64, smoke: bool, telemetry: bool) -> (Experiment<MobilityStats>, String) {
    let experiment = experiments::mobility(seed, smoke, telemetry);
    let text = artifact(seed, smoke, &experiment.runs);
    (experiment, text)
}

/// The `BENCH_mobility.json` text: one row per policy, times in ms.
fn artifact(seed: u64, smoke: bool, runs: &[(&'static str, MobilityStats)]) -> String {
    // Pings lost plus frames dropped (want 0).
    let dropped = |s: &MobilityStats| (s.pings_sent - s.pings_done) + s.drops;
    artifact::object(|o| {
        o.str("bench", "mobility");
        o.int("seed", seed);
        o.bool("smoke", smoke);
        o.rows("policies", runs, |r, (policy, s)| {
            r.str("policy", policy);
            r.int("handovers", s.handovers);
            r.int("flows_migrated", s.flows_migrated);
            r.int("redispatched", s.redispatched);
            r.fixed("interruption_p50_ms", pct(&s.interruptions, 50.0), 3);
            r.fixed("interruption_p95_ms", pct(&s.interruptions, 95.0), 3);
            r.fixed("interruption_p99_ms", pct(&s.interruptions, 99.0), 3);
            r.int("pings", s.pings_done);
            r.int("dropped", dropped(s));
            r.int("double_answered", s.double_answered);
            r.int("resets", s.resets);
            r.int("transparency_violations", s.transparency_violations);
        });
        o.int("total_dropped", runs.iter().map(|(_, s)| dropped(s)).sum());
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    const FIXTURE: &str = r#"{
  "bench": "mobility",
  "seed": 7,
  "smoke": true,
  "policies": [
    {"policy": "anchored", "handovers": 4, "flows_migrated": 4, "redispatched": 0, "interruption_p50_ms": 0.350, "interruption_p95_ms": 0.400, "interruption_p99_ms": 0.400, "pings": 300, "dropped": 0, "double_answered": 0, "resets": 0, "transparency_violations": 0}
  ],
  "total_dropped": 0
}
"#;

    /// Asserts that each policy row of the experiment's figure and the
    /// artifact row of the same policy carry the same counts: figure column
    /// `col` against the artifact `fields`, joined by `/` when several.
    pub(crate) fn assert_figure_agrees<S>(
        e: &Experiment<S>,
        text: &str,
        same: &[(usize, &[&str])],
    ) {
        let v = artifact::parse(text).unwrap();
        let table = &e.figure.table;
        assert_eq!(table.rows.len(), e.runs.len());
        for cells in &table.rows {
            let row = artifact::row(&v, "policies", "policy", &cells[0])
                .unwrap_or_else(|| panic!("no artifact row for `{}`", cells[0]));
            for (col, fields) in same {
                let joined: Vec<String> = fields
                    .iter()
                    .map(|f| artifact::num(row, f).expect(f).to_string())
                    .collect();
                assert_eq!(
                    cells[*col],
                    joined.join("/"),
                    "{}: figure `{}` vs artifact {fields:?}",
                    cells[0],
                    table.headers[*col]
                );
            }
        }
    }

    #[test]
    fn json_shape_is_stable() {
        // Ten handovers at 0.3 ms and ten at 0.4 ms.
        let interruptions = [vec![3e-4; 10], vec![4e-4; 10]].concat();
        let anchored = MobilityStats {
            handovers: 4,
            flows_migrated: 4,
            interruptions,
            pings_sent: 300,
            pings_done: 300,
            ..MobilityStats::default()
        };
        assert_eq!(artifact(7, true, &[("anchored", anchored)]), FIXTURE);
    }

    #[test]
    fn every_gate_clause_can_fail() {
        artifact::tests::assert_gate_clauses(
            gates,
            FIXTURE,
            &[
                (
                    "\"total_dropped\": 0",
                    "\"total_dropped\": 2",
                    "total_dropped == 0",
                ),
                (
                    "\"double_answered\": 0",
                    "\"double_answered\": 1",
                    "policies[0]: double_answered == 0",
                ),
                (
                    "\"resets\": 0",
                    "\"resets\": 1",
                    "policies[0]: resets == 0",
                ),
                (
                    "\"transparency_violations\": 0",
                    "\"transparency_violations\": 1",
                    "policies[0]: transparency_violations == 0",
                ),
                (
                    "\"interruption_p99_ms\": 0.400, ",
                    "",
                    "policies[0]: has interruption_p99_ms",
                ),
            ],
        );
    }

    #[test]
    fn smoke_run_is_clean_and_agrees_with_its_figure() {
        let (e, text) = run(7, true, false);
        let v = artifact::parse(&text).unwrap();
        assert_eq!(gates(&v), Ok(()), "no ping lost, no frame dropped");
        let policies = v["policies"].as_seq().unwrap();
        assert_eq!(policies.len(), 2);
        assert!(policies.iter().all(|p| artifact::num(p, "handovers") > Some(0.0)));
        assert!(policies
            .iter()
            .any(|p| artifact::num(p, "interruption_p99_ms") > Some(0.0)));
        // Handovers, flows migrated, redispatched, answered, drops.
        let same: [(usize, &[&str]); 5] = [
            (1, &["handovers"]),
            (2, &["flows_migrated"]),
            (3, &["redispatched"]),
            (6, &["pings"]),
            (7, &["dropped"]),
        ];
        assert_figure_agrees(&e, &text, &same);
    }

    #[test]
    fn repro_artifact_is_deterministic() {
        // The whole BENCH_mobility.json artifact — not just the figure —
        // must be byte-identical per seed on the calendar event core.
        let (_, a) = run(7, true, false);
        let (_, b) = run(7, true, true);
        assert_eq!(a, b, "same seed ⇒ same artifact, recording or not");
    }
}
