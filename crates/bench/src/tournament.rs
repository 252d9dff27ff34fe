//! Scheduler tournament under a bursty workload with autoscaling on.
//!
//! Every scheduler of [`ARMS`] runs the identical [`workload::BurstConfig`]
//! trace through the same [`Testbed`]: the gateway's Docker edge and a far
//! edge 2 ms away, images pre-pulled on both, 96 clients, per-instance
//! queueing and the horizontal autoscaler on. Every request crosses the
//! switch, the links and the replica that answers it. Bursts slam one hot
//! service at a time hard enough to saturate a single replica, so the
//! ranking separates schedulers by what they *see*: load-blind ones
//! (proximity, random) pile the burst onto one queue and pay in queue wait
//! and rejections, while instance-granular ones (least-connections,
//! latency-ewma) spread it across the replicas the autoscaler adds.
//!
//! Latencies are the controller's answer delays (packet-in to redirect,
//! queue wait included) of *warm* requests only — those that neither
//! deployed an instance nor waited for one. A cold start costs every arm the
//! same few hundred milliseconds and would otherwise be the p99 of them all;
//! the artifact counts cold starts beside the warm percentiles.
//!
//! Run by `repro tournament`, which writes `BENCH_tournament.json`. Every
//! reported field is sim-derived — no wall-clock values — so the artifact is
//! byte-identical per `(seed, smoke)`.

use crate::artifact::{self, num};
use crate::mobility::pct;
use desim::{Duration, SimTime};
use edgectl::controller::RequestKind;
use edgectl::{AutoscaleConfig, ControllerConfig, QueueConfig};
use netsim::{Ipv4Addr, ServiceAddr};
use testbed::{Testbed, TestbedConfig};
use workload::BurstConfig;
use yamlite::Value;

/// The schedulers entered into the tournament, in report order.
pub const ARMS: &[&str] = &[
    "proximity",
    "round-robin",
    "random",
    "least-connections",
    "latency-ewma",
];

/// One arm's measurements (all sim-derived; no wall-clock fields).
struct ArmStats {
    /// Scheduler name (one of [`ARMS`]).
    arm: &'static str,
    /// Requests replayed (the trace length).
    requests: u64,
    /// Requests whose answer reached the client.
    completed: u64,
    /// Requests that deployed an instance or waited for one starting.
    cold_starts: u64,
    /// Median warm answer delay, ms.
    p50_ms: f64,
    /// 99th-percentile warm answer delay, ms — the headline column.
    p99_ms: f64,
    /// Mean warm answer delay, ms.
    mean_ms: f64,
    /// Fraction of requests answered by the cloud (scheduler fallback or
    /// queue rejection overflow).
    fallback_rate: f64,
    /// Requests bounced off a full instance queue.
    rejections: u64,
    /// `rejections / requests`.
    rejection_rate: f64,
    /// Autoscaler scale-up operations across the run.
    scale_ups: u64,
    /// Autoscaler scale-down operations across the run.
    scale_downs: u64,
    /// Mean concurrently-provisioned replicas over the trace (replica-seconds
    /// divided by the trace duration) — the capacity cost of the arm.
    mean_replicas: f64,
}

/// The artifact's gate: every scheduler of [`ARMS`] ran the trace to the
/// last answer with rates that are rates, and seeing per-instance load
/// (least-connections) gave a warm p99 no worse than ignoring it (random).
pub fn gates(v: &Value) -> Result<(), String> {
    let names = artifact::names(v, "arms", "arm");
    artifact::clause(
        "arms include every scheduler",
        Some(ARMS.iter().all(|a| names.contains(a))),
    )?;
    artifact::positive(v, "arms", &["requests", "p99_ms", "mean_replicas"])?;
    artifact::each_row(v, "arms", "completed == requests", |a| {
        Some(num(a, "completed")? == num(a, "requests")?)
    })?;
    for rate in ["fallback_rate", "rejection_rate"] {
        artifact::each_row(v, "arms", &format!("0 <= {rate} <= 1"), |a| {
            Some((0.0..=1.0).contains(&num(a, rate)?))
        })?;
    }
    let p99 = |name| num(artifact::row(v, "arms", "arm", name)?, "p99_ms");
    let tails = p99("least-connections").zip(p99("random"));
    artifact::clause(
        "least-connections p99_ms <= random p99_ms",
        tails.map(|(lc, r)| lc <= r),
    )
}

/// The tournament's autoscale policy: replicas of 100 req/s each
/// (20 ms service time, 2 in-flight slots), a short backlog, and a sweep
/// fast enough to react inside a burst.
fn autoscale_policy() -> AutoscaleConfig {
    AutoscaleConfig {
        enabled: true,
        min_replicas: 1,
        max_replicas: 4,
        cooldown: Duration::from_millis(300),
        sweep_interval: Duration::from_millis(100),
        queue: QueueConfig {
            service_time: Duration::from_millis(20),
            concurrency: 2,
            backlog: 6,
        },
        ..AutoscaleConfig::default()
    }
}

/// Runs one arm: the far-edge testbed under `arm`, the `asm` service at
/// `203.0.113.20:9000+s` pre-pulled on both clusters, the bursty trace
/// replayed through it until the last answer is in.
fn run_arm(arm: &'static str, workload: &BurstConfig, seed: u64) -> ArmStats {
    let mut tb = Testbed::new(TestbedConfig {
        n_clients: workload.n_clients,
        scheduler: arm.to_owned(),
        controller: ControllerConfig { autoscale: autoscale_policy(), ..ControllerConfig::default() },
        far_edge: true,
        seed,
        ..TestbedConfig::default()
    });
    let profile = containerd::ServiceSet::by_key("asm").unwrap();
    let services: Vec<ServiceAddr> = (0..workload.n_services as u16)
        .map(|s| ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 20), 9000 + s))
        .collect();
    for &addr in &services {
        tb.register_service(profile.clone(), addr);
        for cluster in 0..tb.controller.cluster_count() {
            tb.pre_pull_on(addr, cluster);
        }
    }
    let trace = workload.clone().generate(seed);
    for r in &trace.requests {
        tb.request_at(r.at, r.client, services[r.service]);
    }
    let end = SimTime::ZERO + workload.duration;
    tb.run_until(end);
    let replica_seconds = tb.controller.load_mut().replica_seconds(end);
    // The trace's last requests are still in flight at its end.
    tb.run_until(end + Duration::from_secs(5));

    let records = &tb.controller.records;
    let (cold, warm): (Vec<_>, Vec<_>) =
        records.iter().partition(|r| r.phases.instance_ready.is_some());
    let delays: Vec<f64> =
        warm.iter().map(|r| r.answered_at.saturating_since(r.at).as_secs_f64()).collect();
    let fallbacks = records
        .iter()
        .filter(|r| matches!(r.kind, RequestKind::Cloud | RequestKind::FallbackCloud))
        .count();
    let requests = trace.requests.len() as u64;
    let load = tb.controller.load();
    ArmStats {
        arm,
        requests,
        completed: tb.completed.len() as u64,
        cold_starts: cold.len() as u64,
        p50_ms: pct(&delays, 50.0),
        p99_ms: pct(&delays, 99.0),
        mean_ms: delays.iter().sum::<f64>() / (delays.len() as f64).max(1.0) * 1e3,
        fallback_rate: fallbacks as f64 / (records.len() as f64).max(1.0),
        rejections: load.rejections(),
        rejection_rate: load.rejections() as f64 / (requests as f64).max(1.0),
        scale_ups: load.scale_ups(),
        scale_downs: load.scale_downs(),
        mean_replicas: replica_seconds / workload.duration.as_secs_f64(),
    }
}

/// Runs every arm over the identical workload and returns the
/// `BENCH_tournament.json` text.
pub fn run(seed: u64, smoke: bool) -> String {
    let workload = if smoke { BurstConfig::smoke() } else { BurstConfig::full() };
    let arms: Vec<ArmStats> = ARMS.iter().map(|a| run_arm(a, &workload, seed)).collect();
    artifact(seed, smoke, workload.n_services, &arms)
}

/// The `BENCH_tournament.json` text: the workload, one row per scheduler,
/// then the two warm p99s the headline compares — seeing per-instance load
/// (least-connections) against ignoring it (random).
fn artifact(seed: u64, smoke: bool, services: usize, arms: &[ArmStats]) -> String {
    let p99 = |name| arms.iter().find(|a| a.arm == name).map_or(f64::NAN, |a| a.p99_ms);
    artifact::object(|o| {
        o.str("bench", "tournament");
        o.int("seed", seed);
        o.bool("smoke", smoke);
        o.int("services", services as u64);
        o.int("requests", arms.first().map_or(0, |a| a.requests));
        o.rows("arms", arms, |r, a| {
            r.str("arm", a.arm);
            r.int("requests", a.requests);
            r.int("completed", a.completed);
            r.int("cold_starts", a.cold_starts);
            r.fixed("p50_ms", a.p50_ms, 3);
            r.fixed("p99_ms", a.p99_ms, 3);
            r.fixed("mean_ms", a.mean_ms, 3);
            r.fixed("fallback_rate", a.fallback_rate, 4);
            r.int("rejections", a.rejections);
            r.fixed("rejection_rate", a.rejection_rate, 4);
            r.int("scale_ups", a.scale_ups);
            r.int("scale_downs", a.scale_downs);
            r.fixed("mean_replicas", a.mean_replicas, 3);
        });
        o.fixed("least_connections_p99_ms", p99("least-connections"), 3);
        o.fixed("random_p99_ms", p99("random"), 3);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURE: &str = r#"{
  "bench": "tournament",
  "seed": 7,
  "smoke": true,
  "services": 4,
  "requests": 100,
  "arms": [
    {"arm": "random", "requests": 100, "completed": 100, "cold_starts": 4, "p50_ms": 1.000, "p99_ms": 40.000, "mean_ms": 2.000, "fallback_rate": 0.0100, "rejections": 3, "rejection_rate": 0.0300, "scale_ups": 2, "scale_downs": 1, "mean_replicas": 1.500},
    {"arm": "least-connections", "requests": 100, "completed": 100, "cold_starts": 4, "p50_ms": 1.000, "p99_ms": 20.000, "mean_ms": 2.000, "fallback_rate": 0.0100, "rejections": 3, "rejection_rate": 0.0300, "scale_ups": 2, "scale_downs": 1, "mean_replicas": 1.500}
  ],
  "least_connections_p99_ms": 20.000,
  "random_p99_ms": 40.000
}
"#;

    #[test]
    fn json_shape_is_stable() {
        let stats = |arm, p99_ms| ArmStats {
            arm,
            requests: 100,
            completed: 100,
            cold_starts: 4,
            p50_ms: 1.0,
            p99_ms,
            mean_ms: 2.0,
            fallback_rate: 0.01,
            rejections: 3,
            rejection_rate: 0.03,
            scale_ups: 2,
            scale_downs: 1,
            mean_replicas: 1.5,
        };
        let arms = [stats("random", 40.0), stats("least-connections", 20.0)];
        assert_eq!(artifact(7, true, 4, &arms), FIXTURE);
    }

    #[test]
    fn every_gate_clause_can_fail() {
        // The shape fixture enters two schedulers; the gate wants all five.
        let row = FIXTURE
            .lines()
            .find(|l| l.contains("\"arm\": \"random\""))
            .unwrap();
        let others: String = ["proximity", "round-robin", "latency-ewma"]
            .iter()
            .map(|a| format!("{}\n", row.replace("\"random\"", &format!("\"{a}\""))))
            .collect();
        let full = FIXTURE.replace(row, &format!("{others}{row}"));
        artifact::tests::assert_gate_clauses(
            gates,
            &full,
            &[
                (
                    "\"arm\": \"latency-ewma\"",
                    "\"arm\": \"other\"",
                    "arms include every scheduler",
                ),
                (
                    "\"proximity\", \"requests\": 100",
                    "\"proximity\", \"requests\": 0",
                    "arms[0]: requests > 0",
                ),
                (
                    "\"p99_ms\": 40.000",
                    "\"p99_ms\": 0.000",
                    "arms[0]: p99_ms > 0",
                ),
                (
                    "\"mean_replicas\": 1.500",
                    "\"mean_replicas\": 0.000",
                    "arms[0]: mean_replicas > 0",
                ),
                (
                    "\"proximity\", \"requests\": 100, \"completed\": 100",
                    "\"proximity\", \"requests\": 100, \"completed\": 99",
                    "arms[0]: completed == requests",
                ),
                (
                    "\"fallback_rate\": 0.0100",
                    "\"fallback_rate\": 1.0100",
                    "arms[0]: 0 <= fallback_rate <= 1",
                ),
                (
                    "\"rejection_rate\": 0.0300",
                    "\"rejection_rate\": -0.0300",
                    "arms[0]: 0 <= rejection_rate <= 1",
                ),
                (
                    "\"p99_ms\": 20.000",
                    "\"p99_ms\": 40.001",
                    "least-connections p99_ms <= random p99_ms",
                ),
            ],
        );
        assert!(gates(&artifact::parse(FIXTURE).unwrap())
            .unwrap_err()
            .contains("every scheduler"));
    }

    #[test]
    fn smoke_tournament_runs_all_arms_deterministically() {
        let text = run(7, true);
        let v = artifact::parse(&text).unwrap();
        // Every scheduler ran the trace to the last answer, with rates that
        // are rates, and seeing per-instance load was no worse than
        // ignoring it.
        assert_eq!(gates(&v), Ok(()));
        let arms = v["arms"].as_seq().unwrap();
        assert_eq!(arms.len(), ARMS.len());
        let expected = BurstConfig::smoke().generate(7).requests.len() as f64;
        for a in arms {
            assert_eq!(num(a, "requests"), Some(expected), "{:?}", a["arm"]);
            assert!(num(a, "cold_starts") > Some(0.0), "{:?}", a["arm"]);
        }
        // Bursts overload single replicas: the autoscaler must have acted.
        assert!(arms.iter().any(|a| num(a, "scale_ups") > Some(0.0)));
        assert_eq!(text, run(7, true), "same seed ⇒ same artifact");
    }
}
