//! Mobility/handover bench: per-policy handover-interruption percentiles.
//!
//! Run by `repro mobility`, which writes `BENCH_mobility.json`. It reduces
//! the per-policy runs of `testbed::experiments::mobility` — the same
//! simulation the figure shows — to handover counts plus the interruption
//! distribution (announce → last new-switch install) at p50/p95/p99.

use crate::artifact;
use desim::Summary;
use testbed::experiments::{self, Experiment, MobilityStats};
use yamlite::Value;

/// One policy's measurements (times in milliseconds).
#[derive(Clone, Debug)]
pub struct PolicyPoint {
    /// Policy label (`anchored` / `redispatch`).
    pub policy: &'static str,
    /// Inter-gNB handovers performed.
    pub handovers: u64,
    /// FlowMemory entries migrated across all handovers.
    pub flows_migrated: u64,
    /// Sessions re-placed through the Global Scheduler.
    pub redispatched: u64,
    /// Handover-interruption median, ms.
    pub p50_ms: f64,
    /// Handover-interruption 95th percentile, ms.
    pub p95_ms: f64,
    /// Handover-interruption 99th percentile, ms.
    pub p99_ms: f64,
    /// Pings answered (== pings sent on a clean run).
    pub pings: u64,
    /// Pings lost + frames dropped (want 0).
    pub dropped: u64,
}

/// The full mobility report.
#[derive(Clone, Debug)]
pub struct Report {
    /// Seed the scenario ran under.
    pub seed: u64,
    /// Smoke (short) or full trace.
    pub smoke: bool,
    /// One row per handover policy.
    pub points: Vec<PolicyPoint>,
}

impl Report {
    /// Pings lost or frames dropped across both policies (want: 0).
    pub fn total_dropped(&self) -> u64 {
        self.points.iter().map(|p| p.dropped).sum()
    }

    /// The `BENCH_mobility.json` text.
    pub fn artifact(&self) -> String {
        artifact::object(|o| {
            o.str("bench", "mobility");
            o.int("seed", self.seed);
            o.bool("smoke", self.smoke);
            o.rows("policies", &self.points, |r, p| {
                r.str("policy", p.policy);
                r.int("handovers", p.handovers);
                r.int("flows_migrated", p.flows_migrated);
                r.int("redispatched", p.redispatched);
                r.fixed("interruption_p50_ms", p.p50_ms, 3);
                r.fixed("interruption_p95_ms", p.p95_ms, 3);
                r.fixed("interruption_p99_ms", p.p99_ms, 3);
                r.int("pings", p.pings);
                r.int("dropped", p.dropped);
            });
            o.int("total_dropped", self.total_dropped());
        })
    }

    /// Renders a human-readable table.
    pub fn render(&self) -> String {
        let mut s = String::from(
            "policy       handovers  migrated  redispatched  p50/p95/p99 [ms]      pings  dropped\n",
        );
        for p in &self.points {
            s.push_str(&format!(
                "{:<12} {:>9}  {:>8}  {:>12}  {:>6.1}/{:>6.1}/{:>6.1}  {:>7}  {:>7}\n",
                p.policy,
                p.handovers,
                p.flows_migrated,
                p.redispatched,
                p.p50_ms,
                p.p95_ms,
                p.p99_ms,
                p.pings,
                p.dropped
            ));
        }
        s.push_str(&format!("total dropped {} (want 0)\n", self.total_dropped()));
        s
    }
}

/// The `p`-th percentile of a sample of seconds, in milliseconds; 0 for an
/// empty sample.
pub(crate) fn pct(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    Summary::new(xs.to_vec()).percentile(p).unwrap_or(0.0) * 1e3
}

/// The artifact's gate: nothing dropped, and every policy reports its
/// interruption p99.
pub fn gates(v: &Value) -> Result<(), String> {
    artifact::zero_fields(v, &["total_dropped"])?;
    artifact::each_row(v, "policies", "has interruption_p99_ms", |p| {
        Some(artifact::num(p, "interruption_p99_ms").is_some())
    })
}

/// Runs the mobility experiment once — both policies — and reduces the very
/// runs its figure was built from to the report.
pub fn run(seed: u64, smoke: bool, telemetry: bool) -> (Experiment<MobilityStats>, Report) {
    let experiment = experiments::mobility(seed, smoke, telemetry);
    let points = experiment
        .runs
        .iter()
        .map(|(policy, s)| PolicyPoint {
            policy,
            handovers: s.handovers,
            flows_migrated: s.flows_migrated,
            redispatched: s.redispatched,
            p50_ms: pct(&s.interruptions, 50.0),
            p95_ms: pct(&s.interruptions, 95.0),
            p99_ms: pct(&s.interruptions, 99.0),
            pings: s.pings_done,
            dropped: (s.pings_sent - s.pings_done) + s.drops,
        })
        .collect();
    (
        experiment,
        Report {
            seed,
            smoke,
            points,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURE: &str = r#"{
  "bench": "mobility",
  "seed": 7,
  "smoke": true,
  "policies": [
    {"policy": "anchored", "handovers": 4, "flows_migrated": 4, "redispatched": 0, "interruption_p50_ms": 0.350, "interruption_p95_ms": 0.400, "interruption_p99_ms": 0.400, "pings": 300, "dropped": 0}
  ],
  "total_dropped": 0
}
"#;

    #[test]
    fn json_shape_is_stable() {
        let r = Report {
            seed: 7,
            smoke: true,
            points: vec![PolicyPoint {
                policy: "anchored",
                handovers: 4,
                flows_migrated: 4,
                redispatched: 0,
                p50_ms: 0.35,
                p95_ms: 0.4,
                p99_ms: 0.4,
                pings: 300,
                dropped: 0,
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
                    "\"total_dropped\": 0",
                    "\"total_dropped\": 2",
                    "total_dropped == 0",
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
        let (_, r) = run(7, true, false);
        assert_eq!(r.points.len(), 2);
        assert_eq!(r.total_dropped(), 0, "no ping lost, no frame dropped");
        assert!(r.points.iter().all(|p| p.handovers > 0));
        assert!(r.points.iter().any(|p| p.p99_ms > 0.0));
    }

    #[test]
    fn repro_artifact_is_deterministic() {
        // The whole BENCH_mobility.json artifact — not just the figure —
        // must be byte-identical per seed on the calendar event core.
        let (_, a) = run(7, true, false);
        let (_, b) = run(7, true, true);
        assert_eq!(
            a.artifact(),
            b.artifact(),
            "same seed ⇒ same artifact, recording or not"
        );
    }
}
