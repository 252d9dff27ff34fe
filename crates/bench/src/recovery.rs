//! Runtime-chaos recovery bench: the self-healing control plane in numbers.
//!
//! Run by `repro recovery`, which writes and prints `BENCH_recovery.json`:
//! the per-policy runs of `testbed::experiments::recovery` as the
//! injected-fault counts, the client-visible repair work (retransmits, pings
//! answered twice), and the two acceptance counts: permanently stranded
//! sessions and the residual of the final switch-table reconciliation pass
//! (both must be 0 under every policy).

use crate::artifact;
use testbed::experiments::{self, Experiment, RecoveryStats};
use yamlite::Value;

/// The artifact's gate: the two acceptance counts and the paper's promise
/// (no reset, no edge address seen by a client), every policy served
/// pings, and a run at fault rate 1 — where every zone suffers an outage and
/// every channel drops — exercised both under every policy (a lower rate may
/// draw no fault).
pub(crate) fn gates(v: &Value) -> Result<(), String> {
    artifact::zero(v, "policies", &["stranded", "reconcile_residual"])?;
    artifact::zero(v, "policies", &["resets", "transparency_violations"])?;
    artifact::positive(v, "policies", &["pings_done"])?;
    let rate = artifact::num(v, "fault_rate");
    artifact::clause("has fault_rate", rate.map(|_| true))?;
    if rate == Some(1.0) {
        artifact::positive(v, "policies", &["outages", "channel_losses"])?;
    }
    Ok(())
}

/// Runs the recovery experiment once — both policies — and returns it with
/// its runs written as the `BENCH_recovery.json` text.
pub fn run(
    seed: u64,
    fault_rate: f64,
    smoke: bool,
    telemetry: bool,
) -> (Experiment<RecoveryStats>, String) {
    let experiment = experiments::recovery(seed, fault_rate, smoke, telemetry);
    let text = artifact(seed, fault_rate, smoke, &experiment.runs);
    (experiment, text)
}

/// The `BENCH_recovery.json` text: one row per policy.
fn artifact(
    seed: u64,
    fault_rate: f64,
    smoke: bool,
    runs: &[(&'static str, RecoveryStats)],
) -> String {
    artifact::object(|o| {
        o.str("bench", "recovery");
        o.int("seed", seed);
        o.num("fault_rate", fault_rate);
        o.bool("smoke", smoke);
        o.rows("policies", runs, |r, (policy, run)| {
            let s = &run.session;
            r.str("policy", policy);
            r.int("crashes", run.instance_crashes);
            r.int("outages", run.zone_outages);
            r.int("channel_losses", run.channel_losses);
            r.int("ctrl_dropped", s.ctrl_dropped);
            r.int("retransmits", s.retransmits);
            r.int("pings_sent", s.pings_sent);
            r.int("pings_done", s.pings_done);
            r.int("double_answered", s.double_answered);
            r.int("resets", s.resets);
            r.int("transparency_violations", s.transparency_violations);
            r.int("stranded", s.stranded);
            r.int("reconcile_fixes", s.reconcile_fixes);
            r.int("reconcile_residual", s.reconcile_residual);
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use testbed::experiments::SessionCounts;

    const FIXTURE: &str = r#"{
  "bench": "recovery",
  "seed": 7,
  "fault_rate": 1,
  "smoke": true,
  "policies": [
    {"policy": "anchored", "crashes": 2, "outages": 3, "channel_losses": 3, "ctrl_dropped": 5, "retransmits": 4, "pings_sent": 300, "pings_done": 300, "double_answered": 0, "resets": 0, "transparency_violations": 0, "stranded": 0, "reconcile_fixes": 1, "reconcile_residual": 0}
  ]
}
"#;

    #[test]
    fn json_shape_is_stable() {
        let session = SessionCounts {
            ctrl_dropped: 5,
            retransmits: 4,
            pings_sent: 300,
            pings_done: 300,
            reconcile_fixes: 1,
            ..SessionCounts::default()
        };
        let anchored = RecoveryStats { session, instance_crashes: 2, zone_outages: 3, channel_losses: 3 };
        assert_eq!(artifact(7, 1.0, true, &[("anchored", anchored)]), FIXTURE);
    }

    #[test]
    fn every_gate_clause_can_fail() {
        artifact::tests::assert_gate_clauses(
            gates,
            FIXTURE,
            &[
                (
                    "\"stranded\": 0",
                    "\"stranded\": 1",
                    "policies[0]: stranded == 0",
                ),
                (
                    "\"reconcile_residual\": 0",
                    "\"reconcile_residual\": 3",
                    "policies[0]: reconcile_residual == 0",
                ),
                ("\"resets\": 0", "\"resets\": 1", "policies[0]: resets == 0"),
                (
                    "\"transparency_violations\": 0",
                    "\"transparency_violations\": 1",
                    "policies[0]: transparency_violations == 0",
                ),
                (
                    "\"pings_done\": 300",
                    "\"pings_done\": 0",
                    "policies[0]: pings_done > 0",
                ),
                (
                    "\"outages\": 3",
                    "\"outages\": 0",
                    "policies[0]: outages > 0",
                ),
                (
                    "\"channel_losses\": 3",
                    "\"channel_losses\": 0",
                    "policies[0]: channel_losses > 0",
                ),
                ("  \"fault_rate\": 1,\n", "", "has fault_rate"),
            ],
        );
        // Below rate 1 a run may draw no fault at all, and that is no failure.
        let quiet = FIXTURE
            .replace("\"fault_rate\": 1,", "\"fault_rate\": 0.1,")
            .replace("\"outages\": 3", "\"outages\": 0");
        assert_eq!(gates(&artifact::parse(&quiet).unwrap()), Ok(()));
    }

    #[test]
    fn full_chaos_smoke_run_self_heals() {
        let (_, text) = run(7, 1.0, true, false);
        let v = artifact::parse(&text).unwrap();
        // No session stranded, tables reconcile clean, every policy served
        // pings and saw outages and channel drops.
        assert_eq!(gates(&v), Ok(()));
        assert_eq!(v["policies"].as_seq().unwrap().len(), 2);
    }

    #[test]
    fn repro_artifact_is_deterministic() {
        // The whole BENCH_recovery.json artifact — not just the figure —
        // must be byte-identical per seed on the calendar event core.
        let (_, a) = run(7, 1.0, true, false);
        let (_, b) = run(7, 1.0, true, true);
        assert_eq!(a, b, "same seed ⇒ same artifact, recording or not");
    }
}
