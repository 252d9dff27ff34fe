//! Scheduler tournament under a bursty workload with autoscaling on.
//!
//! Every registered scheduler runs the identical [`workload::BurstConfig`]
//! trace against the same two-cluster testbed — a near edge zone (150 µs)
//! and a far one (900 µs), images pre-pulled — with per-instance queueing
//! and the horizontal autoscaler enabled. Bursts slam one hot service at a
//! time hard enough to saturate a single replica, so the ranking separates
//! schedulers by what they *see*: load-blind ones (proximity, random) pile
//! the burst onto one queue and pay in tail latency and queue rejections,
//! while instance-granular ones (least-connections, latency-ewma) spread it
//! across the replicas the autoscaler adds.
//!
//! Run by `repro tournament`, which writes `BENCH_tournament.json`. Every
//! reported field is sim-derived — no wall-clock values — so the artifact is
//! byte-identical per `(seed, smoke)`.

use crate::artifact::{self, num};
use crate::scale::packet_in;
use desim::{Duration, SimRng, SimTime};
use edgectl::{AutoscaleConfig, IngressId, QueueConfig};
use edgectl::{Controller, ControllerConfig, DockerCluster, EdgeService, PortMap};
use dockersim::DockerEngine;
use netsim::addr::{Ipv4Addr, MacAddr};
use netsim::{ServiceAddr, TcpFrame};
use std::collections::HashMap;
use testbed::client_ip_for;
use workload::BurstConfig;
use yamlite::Value;

/// Egress port toward the near edge cluster.
const NEAR_PORT: u32 = 2;
/// Port toward the cloud uplink.
const CLOUD_PORT: u32 = 3;
/// Egress port toward the far edge cluster.
const FAR_PORT: u32 = 4;

/// The schedulers entered into the tournament, in report order.
pub const ARMS: &[&str] = &[
    "proximity",
    "round-robin",
    "random",
    "least-connections",
    "latency-ewma",
    "predictive",
];

/// One arm's measurements (all sim-derived; no wall-clock fields).
struct ArmStats {
    /// Scheduler name (one of [`ARMS`]).
    arm: &'static str,
    /// Requests replayed (equals the trace length).
    requests: u64,
    /// Median answer delay, ms.
    p50_ms: f64,
    /// 99th-percentile answer delay, ms — the headline column.
    p99_ms: f64,
    /// Mean answer delay, ms.
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

/// The artifact's gate: every scheduler of [`ARMS`] ran the trace with
/// rates that are rates, and seeing per-instance load (least-connections)
/// gave a p99 no worse than ignoring it (random).
pub fn gates(v: &Value) -> Result<(), String> {
    let names = artifact::names(v, "arms", "arm");
    artifact::clause(
        "arms include every scheduler",
        Some(ARMS.iter().all(|a| names.contains(a))),
    )?;
    artifact::positive(v, "arms", &["requests", "p99_ms", "mean_replicas"])?;
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

/// An edge service at `203.0.113.20:port` backed by the cached `asm`
/// profile.
fn tournament_service(port: u16) -> EdgeService {
    let profile = containerd::ServiceSet::by_key("asm").unwrap();
    let addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 20), port);
    EdgeService::from_profile(profile, addr)
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

/// Builds the two-zone controller for one arm: near (150 µs) and far
/// (900 µs) Docker clusters, images pre-pulled, every service registered.
fn build_controller(scheduler: &str, services: usize, rng: &mut SimRng) -> Controller {
    let manifests = &containerd::ServiceSet::by_key("asm").unwrap().manifests;
    let mut near_engine = DockerEngine::with_defaults();
    near_engine.pull(manifests, rng);
    let mut far_engine = DockerEngine::with_defaults();
    far_engine.pull(manifests, rng);
    let near = DockerCluster::new(
        "edge-near",
        near_engine,
        MacAddr::from_id(200),
        Ipv4Addr::new(10, 0, 0, 20),
        Duration::from_micros(150),
    );
    let far = DockerCluster::new(
        "edge-far",
        far_engine,
        MacAddr::from_id(201),
        Ipv4Addr::new(10, 0, 1, 20),
        Duration::from_micros(900),
    );
    let mut ctl = Controller::new(
        edgectl::scheduler_by_name(scheduler).unwrap_or_else(|e| panic!("{e}")),
        PortMap { cluster_ports: HashMap::new(), cloud_port: CLOUD_PORT },
        ControllerConfig {
            autoscale: autoscale_policy(),
            ..ControllerConfig::default()
        },
    );
    ctl.add_cluster(Box::new(near), NEAR_PORT);
    ctl.add_cluster(Box::new(far), FAR_PORT);
    for s in 0..services {
        ctl.register_service(tournament_service(9000 + s as u16));
    }
    ctl
}

/// `q`-th percentile (nearest-rank) of an unsorted sample, in ms.
fn percentile_ms(delays_ns: &mut [u64], q: f64) -> f64 {
    if delays_ns.is_empty() {
        return 0.0;
    }
    delays_ns.sort_unstable();
    let idx = ((delays_ns.len() - 1) as f64 * q).round() as usize;
    delays_ns[idx] as f64 / 1e6
}

/// Runs one arm: replays the bursty trace through the controller, sweeping
/// the autoscaler every `sweep_interval` of sim time. Each request arrives
/// on a fresh source port, so every connection is a genuine table miss.
fn run_arm(arm: &'static str, workload: &BurstConfig, seed: u64) -> ArmStats {
    let mut rng = SimRng::new(seed);
    let trace = workload.clone().generate(seed);
    let mut ctl = build_controller(arm, workload.n_services, &mut rng);
    let gw_mac = MacAddr::from_id(900);

    let sweep_every = ctl.load().config().sweep_interval;
    let mut next_sweep = SimTime::ZERO + sweep_every;
    let mut n: u64 = 0;
    let mut out = Vec::new();
    for r in &trace.requests {
        while next_sweep <= r.at {
            ctl.autoscale_sweep(next_sweep);
            next_sweep += sweep_every;
        }
        let frame = TcpFrame::syn(
            MacAddr::from_id(1_000 + r.client as u32),
            gw_mac,
            client_ip_for(r.client),
            10_000 + n as u16,
            ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 20), 9000 + r.service as u16),
        );
        let msg = packet_in(&frame, (n as u32) & 0x00ff_ffff);
        ctl.handle_switch_message_into(IngressId::DEFAULT, r.at, &msg, &mut rng, &mut out)
            .expect("packet-in");
        out.clear();
        n += 1;
    }
    let end = SimTime::ZERO + workload.duration;

    let mut delays: Vec<u64> = ctl
        .records
        .iter()
        .map(|r| r.answered_at.saturating_since(r.at).as_nanos())
        .collect();
    let fallbacks = ctl
        .records
        .iter()
        .filter(|r| {
            matches!(
                r.kind,
                edgectl::controller::RequestKind::Cloud
                    | edgectl::controller::RequestKind::FallbackCloud
            )
        })
        .count() as u64;
    let total = delays.len() as f64;
    let mean_ms = delays.iter().map(|&d| d as f64).sum::<f64>() / total.max(1.0) / 1e6;
    let p50_ms = percentile_ms(&mut delays, 0.50);
    let p99_ms = percentile_ms(&mut delays, 0.99);
    let rejections = ctl.load().rejections();
    let replica_seconds = ctl.load_mut().replica_seconds(end);

    ArmStats {
        arm,
        requests: n,
        p50_ms,
        p99_ms,
        mean_ms,
        fallback_rate: fallbacks as f64 / total.max(1.0),
        rejections,
        rejection_rate: rejections as f64 / (n as f64).max(1.0),
        scale_ups: ctl.load().scale_ups(),
        scale_downs: ctl.load().scale_downs(),
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
/// then the two p99s the headline compares — seeing per-instance load
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
    {"arm": "random", "requests": 100, "p50_ms": 1.000, "p99_ms": 40.000, "mean_ms": 2.000, "fallback_rate": 0.0100, "rejections": 3, "rejection_rate": 0.0300, "scale_ups": 2, "scale_downs": 1, "mean_replicas": 1.500},
    {"arm": "least-connections", "requests": 100, "p50_ms": 1.000, "p99_ms": 20.000, "mean_ms": 2.000, "fallback_rate": 0.0100, "rejections": 3, "rejection_rate": 0.0300, "scale_ups": 2, "scale_downs": 1, "mean_replicas": 1.500}
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
        // The shape fixture enters two schedulers; the gate wants all six.
        let row = FIXTURE
            .lines()
            .find(|l| l.contains("\"arm\": \"random\""))
            .unwrap();
        let others: String = ["proximity", "round-robin", "latency-ewma", "predictive"]
            .iter()
            .map(|a| format!("{}\n", row.replace("\"random\"", &format!("\"{a}\""))))
            .collect();
        let full = FIXTURE.replace(row, &format!("{others}{row}"));
        artifact::tests::assert_gate_clauses(
            gates,
            &full,
            &[
                (
                    "\"arm\": \"predictive\"",
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
        // Every scheduler ran, with rates that are rates, and seeing
        // per-instance load was no worse than ignoring it.
        assert_eq!(gates(&v), Ok(()));
        let arms = v["arms"].as_seq().unwrap();
        assert_eq!(arms.len(), ARMS.len());
        let expected = BurstConfig::smoke().generate(7).requests.len() as f64;
        for a in arms {
            assert_eq!(num(a, "requests"), Some(expected), "{:?}", a["arm"]);
        }
        // Bursts overload single replicas: the autoscaler must have acted.
        assert!(arms.iter().any(|a| num(a, "scale_ups") > Some(0.0)));
        assert_eq!(text, run(7, true), "same seed ⇒ same artifact");
    }
}
