//! Mobility/handover bench: per-policy handover-interruption percentiles.
//!
//! Run by `repro mobility`, which writes and prints `BENCH_mobility.json`:
//! the per-policy runs of `testbed::experiments::mobility` as handover
//! counts, the interruption distribution (announce → last new-switch
//! install) at p50/p95/p99, pings sent and answered, and the
//! session-continuity counts its gate holds at zero.

use crate::artifact;
use desim::Summary;
use testbed::experiments::{self, Experiment, MobilityStats, SessionCounts};
use yamlite::Value;

/// The `p`-th percentile of a sample of seconds, in milliseconds; 0 for an
/// empty sample.
pub(crate) fn pct(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    Summary::new(xs.to_vec()).percentile(p).unwrap_or(0.0) * 1e3
}

/// Pings lost plus frames dropped (want 0).
pub(crate) fn dropped(s: &SessionCounts) -> u64 {
    (s.pings_sent - s.pings_done) + s.drops
}

/// The artifact's gate: session continuity — under every policy nothing
/// dropped, no ping answered twice, no reset and no edge address seen by a
/// client — and every policy reports its interruption p99.
pub(crate) fn gates(v: &Value) -> Result<(), String> {
    let continuity = ["dropped", "double_answered", "resets", "transparency_violations"];
    artifact::zero(v, "policies", &continuity)?;
    artifact::each_row(v, "policies", "has interruption_p99_ms", |p| {
        Some(artifact::num(p, "interruption_p99_ms").is_some())
    })
}

/// Runs the mobility experiment once — both policies — and returns it with
/// its runs written as the `BENCH_mobility.json` text.
pub fn run(seed: u64, smoke: bool, telemetry: bool) -> (Experiment<MobilityStats>, String) {
    let experiment = experiments::mobility(seed, smoke, telemetry);
    let text = artifact(seed, smoke, &experiment.runs);
    (experiment, text)
}

/// The `BENCH_mobility.json` text: one row per policy, times in ms.
fn artifact(seed: u64, smoke: bool, runs: &[(&'static str, MobilityStats)]) -> String {
    artifact::object(|o| {
        o.str("bench", "mobility");
        o.int("seed", seed);
        o.bool("smoke", smoke);
        o.rows("policies", runs, |r, (policy, s)| {
            r.str("policy", policy);
            r.int("handovers", s.session.handovers);
            r.int("flows_migrated", s.flows_migrated);
            r.int("redispatched", s.redispatched);
            r.fixed("interruption_p50_ms", pct(&s.interruptions, 50.0), 3);
            r.fixed("interruption_p95_ms", pct(&s.interruptions, 95.0), 3);
            r.fixed("interruption_p99_ms", pct(&s.interruptions, 99.0), 3);
            r.int("pings_sent", s.session.pings_sent);
            r.int("pings", s.session.pings_done);
            r.int("dropped", dropped(&s.session));
            r.int("double_answered", s.session.double_answered);
            r.int("resets", s.session.resets);
            r.int("transparency_violations", s.session.transparency_violations);
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURE: &str = r#"{
  "bench": "mobility",
  "seed": 7,
  "smoke": true,
  "policies": [
    {"policy": "anchored", "handovers": 4, "flows_migrated": 4, "redispatched": 0, "interruption_p50_ms": 0.350, "interruption_p95_ms": 0.400, "interruption_p99_ms": 0.400, "pings_sent": 300, "pings": 300, "dropped": 0, "double_answered": 0, "resets": 0, "transparency_violations": 0}
  ]
}
"#;

    #[test]
    fn json_shape_is_stable() {
        // Ten handovers at 0.3 ms and ten at 0.4 ms.
        let interruptions = [vec![3e-4; 10], vec![4e-4; 10]].concat();
        let session = SessionCounts { handovers: 4, pings_sent: 300, pings_done: 300, ..SessionCounts::default() };
        let anchored = MobilityStats { session, flows_migrated: 4, interruptions, ..MobilityStats::default() };
        assert_eq!(artifact(7, true, &[("anchored", anchored)]), FIXTURE);
    }

    #[test]
    fn every_gate_clause_can_fail() {
        artifact::tests::assert_gate_clauses(
            gates,
            FIXTURE,
            &[
                (
                    "\"dropped\": 0",
                    "\"dropped\": 1",
                    "policies[0]: dropped == 0",
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
    fn smoke_run_is_clean() {
        let (_, text) = run(7, true, false);
        let v = artifact::parse(&text).unwrap();
        assert_eq!(gates(&v), Ok(()), "no ping lost, no frame dropped");
        let policies = v["policies"].as_seq().unwrap();
        assert_eq!(policies.len(), 2);
        assert!(policies.iter().all(|p| artifact::num(p, "handovers") > Some(0.0)));
        assert!(policies
            .iter()
            .all(|p| artifact::num(p, "pings_sent") == artifact::num(p, "pings")));
        assert!(policies
            .iter()
            .any(|p| artifact::num(p, "interruption_p99_ms") > Some(0.0)));
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
