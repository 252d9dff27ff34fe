//! Fleet-scale controller bench: 1M clients, 10M packet-ins per arm.
//!
//! Run by `repro scale`, which writes `BENCH_scale.json`. It bypasses the emulated
//! switch entirely and drives [`edgectl::Controller`] with hand-built
//! `PACKET_IN` messages — the switch would absorb repeat connections on its
//! fast path long before 10M misses, so to exercise the *controller* at
//! fleet scale every connection must arrive as a genuine table miss.
//!
//! Two arms over the identical workload:
//!
//! * **aggregated** — [`edgectl::ControllerConfig::aggregate_rules`] on: one
//!   wildcard pair per `(service, ingress, instance)`, covered misses
//!   answered with a bare `PACKET_OUT`;
//! * **exact** — the default per-connection pairs, two flows per miss.
//!
//! The headline is the switch-table footprint (`flow_adds`) of each arm at
//! the same client population, plus controller packet-in throughput and the
//! process peak RSS.

use crate::artifact::{self, num};
use desim::{Duration, SimRng, SimTime};
use edgectl::{Controller, ControllerConfig, DockerCluster, EdgeService, PortMap};
use edgectl::{IngressId, ProximityScheduler};
use dockersim::DockerEngine;
use netsim::addr::{Ipv4Addr, MacAddr};
use netsim::{ServiceAddr, TcpFrame};
use openflow::messages::Message;
use openflow::oxm::{Match, OxmField};
use openflow::PacketInReason;
use std::collections::{BTreeSet, HashMap};
use testbed::{client_ip_for, fleet_client_ip};
use yamlite::Value;

/// Ingress-side port clients arrive on (every gNB uses the same layout).
const CLIENT_PORT: u32 = 1;
/// Egress port toward the edge cluster, on every ingress.
const EDGE_PORT: u32 = 2;
/// Port toward the cloud uplink.
const CLOUD_PORT: u32 = 3;

/// Workload dimensions for one run.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Ingress switches (gNBs) under one controller.
    pub ingresses: u32,
    /// Registered edge services; each client opens one connection to each.
    pub services: u16,
    /// Simulated clients attached to each ingress.
    pub clients_per_ingress: usize,
}

impl Params {
    /// The full run: 16 gNBs × 62 500 clients = 1M clients; one connection
    /// per client per service = 10M packet-ins per arm.
    pub fn full() -> Params {
        Params { ingresses: 16, services: 10, clients_per_ingress: 62_500 }
    }

    /// CI-sized smoke run (same shape, ~4k packet-ins per arm).
    pub fn smoke() -> Params {
        Params { ingresses: 4, services: 2, clients_per_ingress: 500 }
    }

    /// Total simulated clients.
    pub fn clients(&self) -> usize {
        self.ingresses as usize * self.clients_per_ingress
    }
}

/// One arm's measurements.
struct ArmStats {
    /// Arm label (`aggregated` / `exact`).
    arm: &'static str,
    /// Packet-ins driven through the controller (measured loop only).
    packet_ins: u64,
    /// Misses answered through an existing aggregate (no table change).
    covered: u64,
    /// Messages the controller sent back toward the switches.
    messages_out: u64,
    /// Wall-clock seconds for the measured loop.
    wall_s: f64,
    /// Controller packet-in throughput.
    packet_ins_per_sec: f64,
    /// Flow adds sent to the switches (switch-table footprint; nothing is
    /// ever removed during the run).
    table_flows: u64,
    /// FlowMemory entries at the end of the run.
    memory_entries: u64,
    /// Process peak RSS (`VmHWM`) sampled after the arm, MB. Monotone per
    /// process: the aggregated arm runs first so its sample is its own.
    peak_rss_mb: f64,
}

/// The artifact's gate: both arms ran the workload, the aggregated switch
/// table is strictly smaller than the exact arm's, and the exact arm never
/// answered through an aggregate.
pub fn gates(v: &Value) -> Result<(), String> {
    let arms = artifact::names(v, "arms", "arm") == BTreeSet::from(["aggregated", "exact"]);
    artifact::clause("arms are aggregated and exact", Some(arms))?;
    let ran = [
        "packet_ins",
        "packet_ins_per_sec",
        "table_flows",
        "memory_entries",
    ];
    artifact::positive(v, "arms", &ran)?;
    let arm = |name, field| num(artifact::row(v, "arms", "arm", name)?, field);
    let flows = arm("aggregated", "table_flows").zip(arm("exact", "table_flows"));
    artifact::clause(
        "aggregated table_flows < exact table_flows",
        flows.map(|(a, e)| a < e),
    )?;
    artifact::clause(
        "exact covered == 0",
        arm("exact", "covered").map(|c| c == 0.0),
    )?;
    artifact::clause(
        "table_reduction_x > 1.0",
        num(v, "table_reduction_x").map(|x| x > 1.0),
    )
}

/// Process peak RSS from `/proc/self/status` (`VmHWM`), MB; 0 where absent.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// An edge service at `203.0.113.10:port` backed by the (cached) `asm`
/// profile — service names are address-derived, so one profile can back any
/// number of registered services.
fn scale_service(port: u16) -> EdgeService {
    let profile = containerd::ServiceSet::by_key("asm").unwrap();
    let addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), port);
    EdgeService::from_profile(profile, addr)
}

/// Builds the fleet controller: one Docker cluster reachable from every
/// ingress, every service registered, image pre-pulled.
fn build_controller(p: Params, aggregate: bool, rng: &mut SimRng) -> Controller {
    let mut engine = DockerEngine::with_defaults();
    engine.pull(&containerd::ServiceSet::by_key("asm").unwrap().manifests, rng);
    let cluster = DockerCluster::new(
        "edge-docker",
        engine,
        MacAddr::from_id(200),
        Ipv4Addr::new(10, 0, 0, 10),
        Duration::from_micros(150),
    );
    let mut ctl = Controller::new(
        Box::<ProximityScheduler>::default(),
        PortMap { cluster_ports: HashMap::new(), cloud_port: CLOUD_PORT },
        ControllerConfig {
            aggregate_rules: aggregate,
            // The point of the bench is throughput/footprint, not the
            // request log: 10M RequestRecords would measure the log.
            record_requests: false,
            ..ControllerConfig::default()
        },
    );
    ctl.add_cluster(Box::new(cluster), EDGE_PORT);
    for g in 1..p.ingresses {
        let id = ctl.add_ingress(PortMap {
            cluster_ports: HashMap::new(),
            cloud_port: CLOUD_PORT,
        });
        assert_eq!(id, IngressId(g));
        ctl.map_cluster_port(id, "edge-docker", EDGE_PORT);
    }
    for s in 0..p.services {
        ctl.register_service(scale_service(8000 + s));
    }
    ctl
}

/// Encodes a `PACKET_IN` carrying `frame`, as the ingress switch would send
/// it on a table miss.
fn packet_in(frame: &TcpFrame, buffer_id: u32) -> Vec<u8> {
    let data = frame.encode();
    Message::PacketIn {
        buffer_id,
        total_len: data.len() as u16,
        reason: PacketInReason::NoMatch,
        table_id: 0,
        cookie: 0,
        match_: Match::any().with(OxmField::InPort(CLIENT_PORT)),
        data,
    }
    .encode(1)
}

/// Runs one arm: deploys every service through a warm-up client, then
/// drives one table miss per `(client, service)` through the controller.
fn run_arm(arm: &'static str, aggregate: bool, p: Params, seed: u64) -> ArmStats {
    let mut rng = SimRng::new(seed);
    let mut ctl = build_controller(p, aggregate, &mut rng);
    let gw_mac = MacAddr::from_id(900);

    // Warm-up: one connection per service from a legacy-range client
    // deploys the instances (the on-demand `Waited` path), spaced out so
    // each deployment completes in sim time before the measured loop.
    let warm_ip = client_ip_for(0);
    let mut out = Vec::new();
    for s in 0..p.services {
        let t = SimTime::from_secs(1 + u64::from(s));
        let frame = TcpFrame::syn(
            MacAddr::from_id(999),
            gw_mac,
            warm_ip,
            1000 + s,
            ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 8000 + s),
        );
        let msg = packet_in(&frame, u32::from(s));
        ctl.handle_switch_message_into(IngressId::DEFAULT, t, &msg, &mut rng, &mut out)
            .expect("warm-up packet-in");
    }

    // Measured loop: every instance is ready, every miss is a fresh flow.
    let mut t = SimTime::from_secs(600);
    let mut n: u64 = 0;
    let mut messages_out: u64 = 0;
    let tick = Duration::from_micros(1);
    let start = std::time::Instant::now();
    for s in 0..p.services {
        let svc = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 8000 + s);
        let src_port = 10_000 + s;
        for g in 0..p.ingresses {
            let ingress = IngressId(g);
            for i in 0..p.clients_per_ingress {
                let cid = g * p.clients_per_ingress as u32 + i as u32;
                let frame = TcpFrame::syn(
                    MacAddr::from_id(1_000 + cid),
                    gw_mac,
                    fleet_client_ip(g, i),
                    src_port,
                    svc,
                );
                // Real buffer ids (never OFP_NO_BUFFER): covered misses are
                // answered by releasing the switch buffer, not by carrying
                // the frame back.
                let msg = packet_in(&frame, (n as u32) & 0x00ff_ffff);
                out.clear();
                ctl.handle_switch_message_into(ingress, t, &msg, &mut rng, &mut out)
                    .expect("packet-in");
                messages_out += out.len() as u64;
                t += tick;
                n += 1;
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64();

    ArmStats {
        arm,
        packet_ins: n,
        covered: ctl.telemetry.metrics.counter("aggregate_covered"),
        messages_out,
        wall_s,
        packet_ins_per_sec: n as f64 / wall_s.max(1e-9),
        table_flows: ctl.flow_adds(),
        memory_entries: ctl.memory().len() as u64,
        peak_rss_mb: peak_rss_mb(),
    }
}

/// Runs both arms over the identical workload and returns the
/// `BENCH_scale.json` text. The aggregated arm goes first so its peak-RSS
/// sample is not inflated by the exact arm's per-connection bookkeeping.
pub fn run(seed: u64, smoke: bool) -> String {
    let params = if smoke { Params::smoke() } else { Params::full() };
    let aggregated = run_arm("aggregated", true, params, seed);
    let exact = run_arm("exact", false, params, seed);
    artifact(seed, smoke, params, &[aggregated, exact])
}

/// The `BENCH_scale.json` text: the workload, one row per arm (aggregated,
/// exact), then each arm's switch-table footprint and how many times smaller
/// the aggregated one is.
fn artifact(seed: u64, smoke: bool, p: Params, arms: &[ArmStats; 2]) -> String {
    let [aggregated, exact] = arms;
    artifact::object(|o| {
        o.str("bench", "scale");
        o.int("seed", seed);
        o.bool("smoke", smoke);
        o.int("ingresses", p.ingresses.into());
        o.int("services", p.services.into());
        o.int("clients", p.clients() as u64);
        o.rows("arms", arms, |r, a| {
            r.str("arm", a.arm);
            r.int("packet_ins", a.packet_ins);
            r.int("covered", a.covered);
            r.int("messages_out", a.messages_out);
            r.fixed("wall_s", a.wall_s, 3);
            r.fixed("packet_ins_per_sec", a.packet_ins_per_sec, 0);
            r.int("table_flows", a.table_flows);
            r.int("memory_entries", a.memory_entries);
            r.fixed("peak_rss_mb", a.peak_rss_mb, 1);
        });
        o.int("aggregated_table_flows", aggregated.table_flows);
        o.int("exact_table_flows", exact.table_flows);
        o.fixed(
            "table_reduction_x",
            exact.table_flows as f64 / (aggregated.table_flows as f64).max(1.0),
            1,
        );
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURE: &str = r#"{
  "bench": "scale",
  "seed": 7,
  "smoke": true,
  "ingresses": 4,
  "services": 2,
  "clients": 2000,
  "arms": [
    {"arm": "aggregated", "packet_ins": 4000, "covered": 3990, "messages_out": 4000, "wall_s": 0.500, "packet_ins_per_sec": 8000, "table_flows": 20, "memory_entries": 4000, "peak_rss_mb": 12.0},
    {"arm": "exact", "packet_ins": 4000, "covered": 3990, "messages_out": 4000, "wall_s": 0.500, "packet_ins_per_sec": 8000, "table_flows": 8004, "memory_entries": 4000, "peak_rss_mb": 12.0}
  ],
  "aggregated_table_flows": 20,
  "exact_table_flows": 8004,
  "table_reduction_x": 400.2
}
"#;

    #[test]
    fn json_shape_is_stable() {
        let stats = |arm, table_flows| ArmStats {
            arm,
            packet_ins: 4000,
            covered: 3990,
            messages_out: 4000,
            wall_s: 0.5,
            packet_ins_per_sec: 8000.0,
            table_flows,
            memory_entries: 4000,
            peak_rss_mb: 12.0,
        };
        let arms = [stats("aggregated", 20), stats("exact", 8004)];
        assert_eq!(artifact(7, true, Params::smoke(), &arms), FIXTURE);
    }

    #[test]
    fn every_gate_clause_can_fail() {
        // The shape fixture gives both arms the same counters; a real exact
        // arm covers nothing.
        let passing = FIXTURE.replace(
            "\"arm\": \"exact\", \"packet_ins\": 4000, \"covered\": 3990",
            "\"arm\": \"exact\", \"packet_ins\": 4000, \"covered\": 0",
        );
        artifact::tests::assert_gate_clauses(
            gates,
            &passing,
            &[
                (
                    "\"arm\": \"exact\"",
                    "\"arm\": \"other\"",
                    "arms are aggregated and exact",
                ),
                (
                    "\"packet_ins\": 4000",
                    "\"packet_ins\": 0",
                    "arms[0]: packet_ins > 0",
                ),
                (
                    "\"packet_ins_per_sec\": 8000",
                    "\"packet_ins_per_sec\": 0",
                    "arms[0]: packet_ins_per_sec > 0",
                ),
                (
                    "\"table_flows\": 20,",
                    "\"table_flows\": 0,",
                    "arms[0]: table_flows > 0",
                ),
                (
                    "\"memory_entries\": 4000",
                    "\"memory_entries\": 0",
                    "arms[0]: memory_entries > 0",
                ),
                (
                    "\"table_flows\": 8004",
                    "\"table_flows\": 20",
                    "aggregated table_flows < exact table_flows",
                ),
                ("\"covered\": 0", "\"covered\": 1", "exact covered == 0"),
                (
                    "\"table_reduction_x\": 400.2",
                    "\"table_reduction_x\": 1.0",
                    "table_reduction_x > 1.0",
                ),
            ],
        );
        assert!(gates(&artifact::parse(FIXTURE).unwrap())
            .unwrap_err()
            .contains("exact covered == 0"));
    }

    #[test]
    fn smoke_run_shrinks_the_table() {
        let v = artifact::parse(&run(7, true)).unwrap();
        // Both arms ran, aggregation shrank the table, exact covered nothing.
        assert_eq!(gates(&v), Ok(()));
        let arm = |name, field| num(artifact::row(&v, "arms", "arm", name).unwrap(), field);
        let p = Params::smoke();
        let per_arm = (p.clients() * p.services as usize) as f64;
        for a in ["aggregated", "exact"] {
            assert_eq!(arm(a, "packet_ins"), Some(per_arm));
            assert!(arm(a, "messages_out") >= Some(per_arm), "every miss is answered");
        }
        let (ingresses, services) = (f64::from(p.ingresses), f64::from(p.services));
        // Exact: two flows per miss plus the warm-up pairs.
        assert_eq!(arm("exact", "table_flows"), Some(2.0 * (per_arm + services)));
        // Aggregated: one pair per (ingress, service) plus the warm-up
        // pairs; everything after the first miss per pair is covered.
        assert_eq!(
            arm("aggregated", "table_flows"),
            Some(2.0 * (ingresses * services + services))
        );
        assert_eq!(
            arm("aggregated", "covered"),
            Some(per_arm - ingresses * services)
        );
        assert!(num(&v, "table_reduction_x") > Some(100.0));
        // Both arms memorize every flow: controller-side per-client state is
        // independent of the switch-table representation.
        assert_eq!(arm("exact", "memory_entries"), arm("aggregated", "memory_entries"));
    }

    #[test]
    fn repro_artifact_is_deterministic() {
        // Timing fields vary run to run; every counted field must not.
        let counted = |text: &str| {
            let mut v = artifact::parse(text).unwrap();
            let Some(Value::Seq(arms)) = v.get_mut("arms") else {
                panic!("no arms: {text}")
            };
            for row in arms {
                for timed in ["wall_s", "packet_ins_per_sec", "peak_rss_mb"] {
                    row.remove(timed).expect("timed");
                }
            }
            v
        };
        assert_eq!(
            counted(&run(7, true)),
            counted(&run(7, true)),
            "same seed ⇒ same counters"
        );
    }
}
