//! Runtime-chaos recovery bench: the self-healing control plane in numbers.
//!
//! Run by `repro recovery`, which writes `BENCH_recovery.json`. It writes
//! the per-policy runs of `testbed::experiments::recovery` — the same
//! simulation the figure shows — as the injected-fault counts, the
//! client-visible repair work (retransmits, pings answered twice), and the
//! two acceptance gates: permanently stranded sessions and the residual of
//! the final switch-table reconciliation pass (both must be 0).

use crate::artifact;
use testbed::experiments::{self, Experiment, RecoveryStats};
use yamlite::Value;

/// The artifact's gate: the two acceptance gates, every policy served
/// pings, and a run at fault rate 1 — where every zone suffers an outage and
/// every channel drops — exercised both under every policy (a lower rate may
/// draw no fault).
pub fn gates(v: &Value) -> Result<(), String> {
    artifact::zero_fields(v, &["total_stranded", "total_reconcile_residual"])?;
    artifact::positive(v, "policies", &["pings_done"])?;
    let rate = artifact::num(v, "fault_rate");
    artifact::clause("has fault_rate", rate.map(|_| true))?;
    if rate == Some(1.0) {
        artifact::positive(v, "policies", &["outages", "channel_losses"])?;
    }
    Ok(())
}

/// Runs the recovery experiment once — both policies — and writes the very
/// runs its figure was built from as the `BENCH_recovery.json` text.
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

/// The `BENCH_recovery.json` text: one row per policy, then the totals the
/// acceptance gates read.
fn artifact(
    seed: u64,
    fault_rate: f64,
    smoke: bool,
    runs: &[(&'static str, RecoveryStats)],
) -> String {
    let total = |field: fn(&RecoveryStats) -> u64| runs.iter().map(|(_, s)| field(s)).sum();
    artifact::object(|o| {
        o.str("bench", "recovery");
        o.int("seed", seed);
        o.num("fault_rate", fault_rate);
        o.bool("smoke", smoke);
        o.rows("policies", runs, |r, (policy, s)| {
            r.str("policy", policy);
            r.int("crashes", s.instance_crashes);
            r.int("outages", s.zone_outages);
            r.int("channel_losses", s.channel_losses);
            r.int("ctrl_dropped", s.ctrl_dropped);
            r.int("retransmits", s.retransmits);
            r.int("pings_sent", s.pings_sent);
            r.int("pings_done", s.pings_done);
            r.int("double_answered", s.double_answered);
            r.int("stranded", s.stranded);
            r.int("reconcile_fixes", s.reconcile_fixes);
            r.int("reconcile_residual", s.reconcile_residual);
        });
        o.int("total_stranded", total(|s| s.stranded));
        o.int("total_reconcile_residual", total(|s| s.reconcile_residual));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURE: &str = r#"{
  "bench": "recovery",
  "seed": 7,
  "fault_rate": 1,
  "smoke": true,
  "policies": [
    {"policy": "anchored", "crashes": 2, "outages": 3, "channel_losses": 3, "ctrl_dropped": 5, "retransmits": 4, "pings_sent": 300, "pings_done": 300, "double_answered": 0, "stranded": 0, "reconcile_fixes": 1, "reconcile_residual": 0}
  ],
  "total_stranded": 0,
  "total_reconcile_residual": 0
}
"#;

    #[test]
    fn json_shape_is_stable() {
        let anchored = RecoveryStats {
            instance_crashes: 2,
            zone_outages: 3,
            channel_losses: 3,
            ctrl_dropped: 5,
            retransmits: 4,
            pings_sent: 300,
            pings_done: 300,
            reconcile_fixes: 1,
            ..RecoveryStats::default()
        };
        assert_eq!(artifact(7, 1.0, true, &[("anchored", anchored)]), FIXTURE);
    }

    #[test]
    fn every_gate_clause_can_fail() {
        artifact::tests::assert_gate_clauses(
            gates,
            FIXTURE,
            &[
                (
                    "\"total_stranded\": 0",
                    "\"total_stranded\": 1",
                    "total_stranded == 0",
                ),
                (
                    "\"total_reconcile_residual\": 0",
                    "\"total_reconcile_residual\": 3",
                    "total_reconcile_residual == 0",
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
    fn full_chaos_smoke_run_self_heals_and_agrees_with_its_figure() {
        let (e, text) = run(7, 1.0, true, false);
        let v = artifact::parse(&text).unwrap();
        // No session stranded, tables reconcile clean, every policy served
        // pings and saw outages and channel drops.
        assert_eq!(gates(&v), Ok(()));
        assert_eq!(v["policies"].as_seq().unwrap().len(), 2);
        let same: [(usize, &[&str]); 9] = [
            (1, &["crashes"]),
            (2, &["outages"]),
            (3, &["channel_losses"]),
            (4, &["ctrl_dropped"]),
            (5, &["retransmits"]),
            (6, &["pings_sent"]),
            (7, &["pings_done"]),
            (8, &["stranded"]),
            (9, &["reconcile_fixes", "reconcile_residual"]),
        ];
        crate::mobility::tests::assert_figure_agrees(&e, &text, &same);
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
