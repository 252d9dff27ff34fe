//! Runtime-chaos recovery bench: the self-healing control plane in numbers.
//!
//! Run by `repro recovery`, which writes `BENCH_recovery.json`. It reduces
//! the per-policy runs of `testbed::experiments::recovery` — the same
//! simulation the figure shows — to the injected-fault counts, the
//! client-visible repair work (retransmits), and the two acceptance gates:
//! permanently stranded sessions and the residual of the final switch-table
//! reconciliation pass (both must be 0).

use crate::artifact;
use testbed::experiments::{self, Experiment, RecoveryStats};
use yamlite::Value;

/// One policy's measurements.
#[derive(Clone, Debug)]
pub struct PolicyPoint {
    /// Policy label (`anchored` / `redispatch`).
    pub policy: &'static str,
    /// Ready instances killed mid-run.
    pub crashes: u64,
    /// Whole-zone outage windows injected.
    pub outages: u64,
    /// Switch↔controller channel drops injected.
    pub channel_losses: u64,
    /// Control messages lost to a down channel.
    pub ctrl_dropped: u64,
    /// Client retransmissions (lost SYNs and pings resent).
    pub retransmits: u64,
    /// Pings sent.
    pub pings_sent: u64,
    /// Pings answered.
    pub pings_done: u64,
    /// Sessions permanently stranded after recovery settled (want 0).
    pub stranded: u64,
    /// Fixes issued by the final reconciliation sweep.
    pub reconcile_fixes: u64,
    /// Fixes the second sweep still wanted (want 0).
    pub reconcile_residual: u64,
}

/// The full recovery report.
#[derive(Clone, Debug)]
pub struct Report {
    /// Seed the scenario ran under.
    pub seed: u64,
    /// Per-zone / per-channel runtime-fault probability.
    pub fault_rate: f64,
    /// Smoke (short) or full trace.
    pub smoke: bool,
    /// One row per handover policy.
    pub points: Vec<PolicyPoint>,
}

impl Report {
    /// Permanently stranded sessions across both policies (want: 0).
    pub fn total_stranded(&self) -> u64 {
        self.points.iter().map(|p| p.stranded).sum()
    }

    /// Residual reconciliation fixes across both policies (want: 0 — the
    /// switch tables diff clean against the controller's bookkeeping).
    pub fn total_residual(&self) -> u64 {
        self.points.iter().map(|p| p.reconcile_residual).sum()
    }

    /// The `BENCH_recovery.json` text.
    pub fn artifact(&self) -> String {
        artifact::object(|o| {
            o.str("bench", "recovery");
            o.int("seed", self.seed);
            o.num("fault_rate", self.fault_rate);
            o.bool("smoke", self.smoke);
            o.rows("policies", &self.points, |r, p| {
                r.str("policy", p.policy);
                r.int("crashes", p.crashes);
                r.int("outages", p.outages);
                r.int("channel_losses", p.channel_losses);
                r.int("ctrl_dropped", p.ctrl_dropped);
                r.int("retransmits", p.retransmits);
                r.int("pings_sent", p.pings_sent);
                r.int("pings_done", p.pings_done);
                r.int("stranded", p.stranded);
                r.int("reconcile_fixes", p.reconcile_fixes);
                r.int("reconcile_residual", p.reconcile_residual);
            });
            o.int("total_stranded", self.total_stranded());
            o.int("total_reconcile_residual", self.total_residual());
        })
    }

    /// Renders a human-readable table.
    pub fn render(&self) -> String {
        let mut s = String::from(
            "policy       crashes  outages  ch.drops  ctrl lost  retransmits    pings  answered  stranded  fix/resid\n",
        );
        for p in &self.points {
            s.push_str(&format!(
                "{:<12} {:>7}  {:>7}  {:>8}  {:>9}  {:>11}  {:>7}  {:>8}  {:>8}  {:>4}/{}\n",
                p.policy,
                p.crashes,
                p.outages,
                p.channel_losses,
                p.ctrl_dropped,
                p.retransmits,
                p.pings_sent,
                p.pings_done,
                p.stranded,
                p.reconcile_fixes,
                p.reconcile_residual
            ));
        }
        s.push_str(&format!(
            "total stranded {} (want 0), reconcile residual {} (want 0)\n",
            self.total_stranded(),
            self.total_residual()
        ));
        s
    }
}

/// The artifact's gate: the two acceptance gates, and that a run at fault
/// rate 1 — where every zone suffers an outage and every channel drops —
/// exercised both under every policy (a lower rate may draw no fault).
pub fn gates(v: &Value) -> Result<(), String> {
    artifact::zero_fields(v, &["total_stranded", "total_reconcile_residual"])?;
    let rate = artifact::num(v, "fault_rate");
    artifact::clause("has fault_rate", rate.map(|_| true))?;
    if rate == Some(1.0) {
        artifact::positive(v, "policies", &["outages", "channel_losses"])?;
    }
    Ok(())
}

/// Runs the recovery experiment once — both policies — and reduces the very
/// runs its figure was built from to the report.
pub fn run(
    seed: u64,
    fault_rate: f64,
    smoke: bool,
    telemetry: bool,
) -> (Experiment<RecoveryStats>, Report) {
    let experiment = experiments::recovery(seed, fault_rate, smoke, telemetry);
    let points = experiment
        .runs
        .iter()
        .map(|(policy, s)| PolicyPoint {
            policy,
            crashes: s.instance_crashes,
            outages: s.zone_outages,
            channel_losses: s.channel_losses,
            ctrl_dropped: s.ctrl_dropped,
            retransmits: s.retransmits,
            pings_sent: s.pings_sent,
            pings_done: s.pings_done,
            stranded: s.stranded,
            reconcile_fixes: s.reconcile_fixes,
            reconcile_residual: s.reconcile_residual,
        })
        .collect();
    (
        experiment,
        Report {
            seed,
            fault_rate,
            smoke,
            points,
        },
    )
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
    {"policy": "anchored", "crashes": 2, "outages": 3, "channel_losses": 3, "ctrl_dropped": 5, "retransmits": 4, "pings_sent": 300, "pings_done": 300, "stranded": 0, "reconcile_fixes": 1, "reconcile_residual": 0}
  ],
  "total_stranded": 0,
  "total_reconcile_residual": 0
}
"#;

    #[test]
    fn json_shape_is_stable() {
        let r = Report {
            seed: 7,
            fault_rate: 1.0,
            smoke: true,
            points: vec![PolicyPoint {
                policy: "anchored",
                crashes: 2,
                outages: 3,
                channel_losses: 3,
                ctrl_dropped: 5,
                retransmits: 4,
                pings_sent: 300,
                pings_done: 300,
                stranded: 0,
                reconcile_fixes: 1,
                reconcile_residual: 0,
            }],
        };
        assert_eq!(r.artifact(), FIXTURE);
        assert!(r.render().contains("want 0"));
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
        let (_, r) = run(7, 1.0, true, false);
        assert_eq!(r.points.len(), 2);
        assert_eq!(r.total_stranded(), 0, "no session permanently stranded");
        assert_eq!(r.total_residual(), 0, "switch tables reconcile clean");
        assert!(r.points.iter().all(|p| p.outages > 0 && p.channel_losses > 0));
        assert!(r.points.iter().all(|p| p.pings_done > 0));
    }

    #[test]
    fn repro_artifact_is_deterministic() {
        // The whole BENCH_recovery.json artifact — not just the figure —
        // must be byte-identical per seed on the calendar event core.
        let (_, a) = run(7, 1.0, true, false);
        let (_, b) = run(7, 1.0, true, true);
        assert_eq!(
            a.artifact(),
            b.artifact(),
            "same seed ⇒ same artifact, recording or not"
        );
    }
}
