//! Harness golden: one FNV-1a fingerprint per scenario over everything a run
//! of the event loop produces — every completed request's four timestamps or
//! every `HandoverRecord`, ping counts and RTT bits, the drop / reset /
//! double-answer / transparency counters, the number of events processed and
//! the counters of `telemetry_snapshot()`.
//!
//! The scenarios are the configurations `e2ebench`'s four workloads do not
//! reach: Kubernetes with the private registry, the far edge, the hybrid
//! cluster, the predictors, deployment-phase faults, telemetry recording,
//! rule aggregation; mobility under both handover policies, runtime chaos
//! with client retransmission, a controller crash restarted warm and cold
//! behind a queueing control channel, and live migration with session state.
//! A change to the loop has to schedule the same events and draw the same
//! random numbers in the same order as before to keep them.
//!
//! Re-pin a constant only when a change *means* to alter what that scenario
//! simulates, and say so in the commit.

use desim::{Duration, FaultPlan, SimTime};
use edgectl::{
    ControllerConfig, HandoverPolicy, JournalConfig, MigrationConfig, MigrationPolicy,
    RecoveryMode,
};
use mobility::CellHops;
use netsim::{Ipv4Addr, ServiceAddr};
use telemetry::MetricsRegistry;
use testbed::{ClusterKind, MobilityConfig, MobilityTestbed, Testbed, TestbedConfig};

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_be_bytes());
    }

    fn time(&mut self, at: Option<SimTime>) {
        self.u64(at.map_or(u64::MAX, SimTime::as_nanos));
    }

    /// The `"counters"` section of the snapshot (gauges are observation
    /// only and may gain lines).
    fn counters(&mut self, m: &MetricsRegistry) {
        let json = m.to_json();
        let (counters, _) = json.split_once("\"gauges\"").expect("snapshot has a gauges section");
        self.bytes(counters.as_bytes());
    }
}

#[track_caller]
fn pinned(name: &str, want: u64, got: u64) {
    assert_eq!(got, want, "{name}: fingerprint {got:#018x} != pinned {want:#018x}");
}

// -- request connections on the C³ testbed ---------------------------------

const KEYS: [&str; 3] = ["nginx", "nginx-py", "asm"];

/// How a request scenario prepares service `i` at `addr` before the run.
type Prepare = fn(&mut Testbed, usize, ServiceAddr);

fn cold(_: &mut Testbed, _: usize, _: ServiceAddr) {}

fn created(tb: &mut Testbed, _: usize, addr: ServiceAddr) {
    tb.pre_pull(addr);
    tb.pre_create(addr);
}

/// Six services over three profiles (one of them two containers), 150
/// requests from 20 clients within 40 s, flows and services idling out in
/// between; returns the run's fingerprint.
fn request_run(mut config: TestbedConfig, hybrid: bool, prepare: Prepare) -> u64 {
    config.controller.memory_idle = Duration::from_secs(6);
    config.controller.switch_flow_idle = Duration::from_secs(2);
    let seed = config.seed;
    let mut tb = Testbed::new(config);
    if hybrid {
        tb.add_hybrid_k8s();
    }
    let addrs: Vec<ServiceAddr> = (0..6)
        .map(|i| {
            let profile = containerd::ServiceSet::by_key(KEYS[i % KEYS.len()]).unwrap();
            let addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10 + i as u8), profile.listen_port);
            tb.register_service(profile, addr);
            prepare(&mut tb, i, addr);
            addr
        })
        .collect();
    let trace = workload::Trace::generate(
        workload::TraceConfig {
            n_services: addrs.len(),
            n_requests: 150,
            min_per_service: 2,
            duration: Duration::from_secs(40),
            n_clients: 20,
            skew: 0.9,
            start_mean_secs: 8.0,
        },
        seed,
    );
    for r in &trace.requests {
        tb.request_at(r.at + Duration::from_secs(1), r.client, addrs[r.service]);
    }
    let events = tb.run_until(SimTime::from_secs(300));
    let mut h = Fnv::new();
    for c in &tb.completed {
        h.u64(c.client as u64);
        h.u64(u64::from(c.service.ip.to_u32()) << 16 | u64::from(c.service.port));
        let t = &c.timing;
        for at in [Some(t.connect_start), t.connected, t.first_byte, t.complete] {
            h.time(at);
        }
    }
    for v in [tb.drops, tb.resets, tb.transparency_violations, tb.proactive_deployments, events] {
        h.u64(v);
    }
    h.counters(&tb.telemetry_snapshot());
    assert!(!tb.completed.is_empty(), "the scenario serves requests");
    assert_eq!(tb.transparency_violations, 0);
    h.0
}

fn seeded(seed: u64) -> TestbedConfig {
    TestbedConfig { seed, ..TestbedConfig::default() }
}

/// The far edge is only ever chosen by a scheduler that does not wait for
/// the nearest cluster.
fn far_edge(seed: u64) -> TestbedConfig {
    TestbedConfig { far_edge: true, scheduler: "latency-aware".to_owned(), ..seeded(seed) }
}

/// The scheduler of the hybrid setup (use with `hybrid = true`).
fn docker_first(seed: u64) -> TestbedConfig {
    TestbedConfig { scheduler: "docker-first".to_owned(), ..seeded(seed) }
}

#[test]
fn kubernetes_with_the_private_registry() {
    let config = TestbedConfig { cluster: ClusterKind::K8s, private_registry: true, ..seeded(21) };
    pinned("k8s", 0xeacf_aff8_6c30_edee, request_run(config, false, cold));
}

#[test]
fn far_edge_with_half_the_services_running_there() {
    let got = request_run(far_edge(22), false, |tb, i, addr| {
        created(tb, i, addr);
        if i % 2 == 0 {
            tb.pre_deploy_on(addr, 1);
        }
    });
    pinned("far-edge", 0x8c02_0da5_9a32_d08f, got);
}

#[test]
fn hybrid_docker_first_kubernetes_after() {
    let got = request_run(docker_first(23), true, |tb, i, addr| {
        created(tb, i, addr);
        tb.pre_pull_on(addr, 1);
    });
    pinned("hybrid", 0xa27e_6c8d_adea_dbc4, got);
}

#[test]
fn predictors_deploy_ahead_of_requests() {
    let mut h = Fnv::new();
    for predictor in ["recency", "frequency", "markov"] {
        let config = TestbedConfig { predictor: predictor.to_owned(), ..seeded(24) };
        h.u64(request_run(config, false, created));
    }
    pinned("predictors", 0x956e_7183_4baa_e1f8, h.0);
}

#[test]
fn deployment_faults_on_every_cluster_kind() {
    let faults = FaultPlan::uniform(0.15, 3);
    let mut h = Fnv::new();
    // Injector sites 0, 1 (Docker), 3, 5 (far edge), 4 (hybrid Kubernetes)
    // and 2 (Kubernetes alone).
    h.u64(request_run(TestbedConfig { faults: faults.clone(), ..far_edge(25) }, false, cold));
    h.u64(request_run(TestbedConfig { faults: faults.clone(), ..docker_first(25) }, true, cold));
    h.u64(request_run(TestbedConfig { cluster: ClusterKind::K8s, faults, ..seeded(25) }, false, cold));
    pinned("deploy-faults", 0x1559_fb44_8016_44ef, h.0);
}

#[test]
fn telemetry_recording_changes_nothing() {
    let off = request_run(seeded(26), false, created);
    let on = request_run(TestbedConfig { telemetry: true, ..seeded(26) }, false, created);
    assert_eq!(off, on, "recording spans changed the run");
    pinned("telemetry", 0x1298_9ee4_361b_de2f, off);
}

#[test]
fn aggregated_rules() {
    let mut config = seeded(27);
    config.controller.aggregate_rules = true;
    pinned("aggregate", 0xae4b_63de_50a2_7ba7, request_run(config, false, created));
}

// -- pinging sessions on the multi-gNB testbed ------------------------------

/// Three gNBs, four clients; clients 0 and 3 hop (0 there and back again).
fn hops() -> CellHops {
    let t = SimTime::from_secs;
    CellHops::new(
        vec![0, 1, 2, 0],
        &[(t(5), 0, 1), (t(8), 3, 2), (t(11), 0, 2), (t(14), 0, 0), (t(16), 3, 1)],
    )
}

/// The hop scenario's testbed after its 20 s: `asm` warm and deployed in all
/// three zones, the four sessions pinging; returns it with the events run.
fn hop_scenario(config: MobilityConfig) -> (MobilityTestbed, u64) {
    let mut tb = MobilityTestbed::new(MobilityConfig { n_gnbs: 3, n_clients: 4, ..config });
    let profile = containerd::ServiceSet::by_key("asm").unwrap();
    tb.register_service(profile, ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80));
    tb.warm_all_zones();
    for z in [0, 1, 2] {
        tb.pre_deploy_on(z);
    }
    let events = tb.run(&mut hops(), SimTime::from_secs(1), SimTime::from_secs(20));
    (tb, events)
}

/// Runs the hop scenario for 20 s, lets it settle until `settle` (when given)
/// and reconciles twice; returns the run's fingerprint.
fn session_run(config: MobilityConfig, settle: Option<SimTime>) -> u64 {
    let (mut tb, mut events) = hop_scenario(config);
    let mut h = Fnv::new();
    if let Some(until) = settle {
        events += tb.run_until(until);
        h.u64(tb.reconcile_now() as u64);
        assert_eq!(tb.reconcile_now(), 0, "tables converged to bookkeeping");
        assert_eq!(tb.stranded(), 0, "no session permanently stranded");
    }
    for r in &tb.handovers {
        for v in [
            r.client as u64,
            r.from as u64,
            r.to as u64,
            r.at.as_nanos(),
            r.completed_at.as_nanos(),
            r.flows_migrated as u64,
            r.redispatched as u64,
        ] {
            h.u64(v);
        }
    }
    h.u64(tb.pings_sent());
    h.u64(tb.pings_done());
    for rtt in tb.rtts_secs() {
        h.u64(rtt.to_bits());
    }
    for v in [
        tb.drops,
        tb.resets,
        tb.double_answered,
        tb.transparency_violations,
        tb.stranded(),
        tb.instance_crashes,
        tb.zone_outages,
        tb.channel_losses,
        tb.ctrl_dropped,
        tb.retransmits,
        tb.controller_crashes,
        tb.missed_handovers,
        tb.restart_fixes,
        tb.blackout.as_nanos(),
        events,
    ] {
        h.u64(v);
    }
    h.time(tb.restarted_at);
    if let Some(r) = tb.recovery_report {
        for v in [r.replayed_events, r.snapshot_entries, r.aborted_migrations] {
            h.u64(v as u64);
        }
    }
    for t in tb.recovery_times_secs() {
        h.u64(t.to_bits());
    }
    h.counters(&tb.telemetry_snapshot());
    assert!(tb.pings_done() > 0, "the scenario answers pings");
    assert_eq!(tb.transparency_violations, 0);
    h.0
}

fn policy(policy: HandoverPolicy, seed: u64) -> MobilityConfig {
    MobilityConfig { policy, seed, ..MobilityConfig::default() }
}

fn live_migration(state_bytes_per_request: u64) -> MigrationConfig {
    MigrationConfig {
        policy: MigrationPolicy::Live,
        state_bytes_per_request,
        transfer_bandwidth_bps: 200_000_000,
        ..MigrationConfig::default()
    }
}

#[test]
fn anchored_handover() {
    pinned("anchored", 0x9bd7_52b4_a255_93a7, session_run(policy(HandoverPolicy::Anchored, 31), None));
}

#[test]
fn redispatch_handover() {
    pinned("redispatch", 0x442d_b0f9_c35a_cab3, session_run(policy(HandoverPolicy::Redispatch, 32), None));
}

#[test]
fn runtime_chaos_with_retransmission() {
    let config = MobilityConfig {
        faults: FaultPlan::runtime(1.0, 2),
        retransmit: Some(Duration::from_secs(1)),
        ..policy(HandoverPolicy::Anchored, 33)
    };
    pinned("runtime-chaos", 0xda66_b99c_aea6_ab76, session_run(config, Some(SimTime::from_secs(40))));
}

/// The journal records in both modes, the control channel queues (1 ms per
/// message) and a live migration may be in flight when the controller dies.
fn crash_run(recovery: RecoveryMode) -> u64 {
    let config = MobilityConfig {
        controller: ControllerConfig {
            journal: JournalConfig { enabled: true, snapshot_every: 32 },
            migration: live_migration(512),
            ..ControllerConfig::default()
        },
        faults: FaultPlan { controller_crash: 1.0, seed: 11, ..FaultPlan::default() },
        retransmit: Some(Duration::from_secs(1)),
        recovery,
        ctrl_service_time: Duration::from_millis(1),
        ..policy(HandoverPolicy::Anchored, 34)
    };
    session_run(config, Some(SimTime::from_secs(40)))
}

#[test]
fn controller_crash_restarted_warm() {
    pinned("crash-warm", 0x3130_ef1e_155d_7509, crash_run(RecoveryMode::Warm));
}

#[test]
fn controller_crash_restarted_cold() {
    pinned("crash-cold", 0x8409_a886_bf91_b06a, crash_run(RecoveryMode::Cold));
}

#[test]
fn live_migration_with_session_state() {
    let config = MobilityConfig {
        controller: ControllerConfig { migration: live_migration(20_000), ..ControllerConfig::default() },
        ..policy(HandoverPolicy::Anchored, 35)
    };
    pinned("live-migration", 0x0e96_f068_a967_d662, session_run(config, Some(SimTime::from_secs(30))));
}

/// The chaos scenario above under a hundred fault schedules: whatever the
/// crashes, outages and channel losses interleave with — a deployment in
/// progress above all — every session is answered again once the faults stop
/// (PAPER.md: the client's session survives) and the switch tables converge
/// to the bookkeeping. Thirteen of these seeds stranded a session while the
/// health sweep took a starting instance for a dead one and teardowns could
/// overtake the Adds of a held request.
#[test]
fn no_fault_seed_strands_a_session() {
    let stranded: Vec<u64> = (0..100)
        .filter(|&seed| {
            let (mut tb, _) = hop_scenario(MobilityConfig {
                faults: FaultPlan::runtime(1.0, seed),
                retransmit: Some(Duration::from_secs(1)),
                ..policy(HandoverPolicy::Anchored, 33)
            });
            tb.run_until(SimTime::from_secs(40));
            tb.reconcile_now();
            tb.stranded() > 0 || tb.reconcile_now() > 0
        })
        .collect();
    assert!(stranded.is_empty(), "fault seeds that strand a session: {stranded:?}");
}
