//! Differential oracle for the crash-recovery journal: at **every**
//! mutation boundary, rebuilding controller state from the journal
//! (compacted snapshot + replayed tail) must be byte-identical to the
//! live, uncrashed controller's recoverable state. The live controller is
//! the "uncrashed twin"; [`Controller::journal_rebuild_digest`] is what a
//! warm restart at that instant would recover.

use desim::{Duration, SimRng, SimTime};
use edgectl::cluster::DockerCluster;
use edgectl::scheduler::ProximityScheduler;
use edgectl::{
    Controller, ControllerConfig, EdgeService, HandoverPolicy, IngressId,
    JournalConfig, MigrationConfig, MigrationPolicy, MigrationReason, PortMap, RecoveryMode,
};
use netsim::addr::{Ipv4Addr, MacAddr};
use netsim::{ServiceAddr, TcpFrame};
use openflow::FlowEntry;
use ovs::{Effect, Switch, SwitchConfig};
use std::collections::HashMap;

const CLIENT_PORT: u32 = 1;
const EDGE_A_PORT: u32 = 2;
const CLOUD_PORT: u32 = 3;
const EDGE_B_PORT: u32 = 4;

fn make_service(key: &str, ip_last: u8) -> EdgeService {
    let profile = containerd::ServiceSet::by_key(key).unwrap();
    let addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, ip_last), 80);
    EdgeService::from_profile(profile, addr)
}

fn ports() -> PortMap {
    PortMap {
        cluster_ports: HashMap::new(),
        cloud_port: CLOUD_PORT,
    }
}

/// Two-cluster, two-ingress controller with the journal on (tiny
/// compaction threshold so snapshots actually happen mid-sequence) and
/// live migration enabled, plus one switch per ingress.
fn setup(rng: &mut SimRng, aggregate: bool) -> (Controller, Vec<Switch>) {
    let mut config = ControllerConfig {
        journal: JournalConfig {
            enabled: true,
            snapshot_every: 4,
        },
        migration: MigrationConfig {
            policy: MigrationPolicy::Live,
            state_bytes_per_request: 512,
            ..MigrationConfig::default()
        },
        ..ControllerConfig::default()
    };
    config.aggregate_rules = aggregate;
    let mut ctl = Controller::new(Box::<ProximityScheduler>::default(), ports(), config);
    for (i, (name, latency_us)) in [("edge-a", 150u64), ("edge-b", 400u64)].iter().enumerate() {
        let mut engine = dockersim::DockerEngine::with_defaults();
        engine.pull(&containerd::ServiceSet::by_key("asm").unwrap().manifests, rng);
        let cluster = DockerCluster::new(
            *name,
            engine,
            MacAddr::from_id(200 + i as u32),
            Ipv4Addr::new(10, 0, i as u8, 10),
            Duration::from_micros(*latency_us),
        );
        let port = if i == 0 { EDGE_A_PORT } else { EDGE_B_PORT };
        ctl.add_cluster(Box::new(cluster), port);
    }
    let g1 = ctl.add_ingress(ports());
    for (name, port) in [("edge-a", EDGE_A_PORT), ("edge-b", EDGE_B_PORT)] {
        ctl.map_cluster_port(g1, name, port);
    }
    ctl.register_service(make_service("asm", 10));
    ctl.register_service(make_service("nginx", 11));
    let switches = (0..2)
        .map(|i| {
            Switch::new(SwitchConfig {
                datapath_id: 1 + i,
                n_buffers: 64,
                miss_send_len: 0xffff,
                ports: vec![CLIENT_PORT, EDGE_A_PORT, CLOUD_PORT, EDGE_B_PORT],
            })
        })
        .collect();
    (ctl, switches)
}

fn client_syn(client_last: u8, src_port: u16, svc_last: u8) -> TcpFrame {
    TcpFrame::syn(
        MacAddr::from_id(client_last as u32),
        MacAddr::from_id(99),
        Ipv4Addr::new(192, 168, 1, client_last),
        src_port,
        ServiceAddr::new(Ipv4Addr::new(203, 0, 113, svc_last), 80),
    )
}

/// One data-plane round: frame into the switch, packet-in (if any) to the
/// controller, controller replies back into the switch.
fn pump(
    ctl: &mut Controller,
    sw: &mut Switch,
    ingress: IngressId,
    now: SimTime,
    frame: &TcpFrame,
    rng: &mut SimRng,
) {
    let effects = sw.handle_frame(now, CLIENT_PORT, &frame.encode());
    deliver(ctl, sw, ingress, now, effects, rng);
}

fn deliver(
    ctl: &mut Controller,
    sw: &mut Switch,
    ingress: IngressId,
    now: SimTime,
    effects: Vec<Effect>,
    rng: &mut SimRng,
) {
    for e in effects {
        if let Effect::ToController(bytes) = e {
            let out = ctl
                .handle_switch_message_from(ingress, now, &bytes, rng)
                .expect("controller accepts switch message");
            for m in out {
                let _ = sw.handle_controller(m.at, &m.data);
            }
        }
    }
}

#[track_caller]
fn assert_oracle(ctl: &Controller, label: &str) {
    let live = ctl.state_digest();
    let rebuilt = ctl.journal_rebuild_digest().expect("journal is on");
    assert_eq!(rebuilt, live, "journal rebuild diverged after {label}");
}

fn run_mutation_sequence(aggregate: bool) {
    let mut rng = SimRng::new(77);
    let (mut ctl, mut sws) = setup(&mut rng, aggregate);
    let asm = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80);
    assert_oracle(&ctl, "construction");

    // Packet-ins across both ingresses and both services: FlowMemory
    // inserts, pair installs, client sightings, MAC learning.
    let mut now = SimTime::from_secs(1);
    for (i, &(client, svc)) in [(20u8, 10u8), (21, 10), (22, 11), (23, 10), (24, 11), (20, 11)]
        .iter()
        .enumerate()
    {
        let g = i % 2;
        let f = client_syn(client, 50_000 + i as u16, svc);
        pump(&mut ctl, &mut sws[g], IngressId(g as u32), now, &f, &mut rng);
        assert_oracle(&ctl, "packet-in");
        now += Duration::from_secs(2);
    }
    assert!(
        ctl.journal_stats().snapshots_taken > 0,
        "snapshot_every=4 must have compacted by now"
    );

    // An announced handover: sweep + re-install at the new ingress.
    let ho = ctl.handle_attachment_change(
        now,
        Ipv4Addr::new(192, 168, 1, 20),
        MacAddr::from_id(20),
        MacAddr::from_id(99),
        IngressId(0),
        IngressId(1),
        CLIENT_PORT,
        HandoverPolicy::Anchored,
        &mut rng,
    );
    for (g, m) in &ho.messages {
        let _ = sws[g.0 as usize].handle_controller(m.at, &m.data);
    }
    assert_oracle(&ctl, "handover");
    now = ho.completed_at + Duration::from_secs(1);

    // A live migration: ledger writes, begin, flow flip (repoints +
    // teardown removals), completion.
    for _ in 0..5 {
        ctl.note_served(asm, 0);
    }
    assert_oracle(&ctl, "note_served");
    assert!(ctl.begin_migration(now, asm, 0, 1, MigrationReason::Explicit, &mut rng));
    assert_oracle(&ctl, "begin_migration");
    let due = ctl.next_migration_at().expect("one migration in flight");
    let out = ctl.migration_tick(due, &mut rng);
    for (g, m) in &out {
        let _ = sws[g.0 as usize].handle_controller(m.at, &m.data);
    }
    assert_oracle(&ctl, "migration_tick");
    now = due + Duration::from_secs(1);

    // Switch-side idle expiry raises FlowRemoved: pair removals + Forget.
    now += Duration::from_secs(30);
    for (g, sw) in sws.iter_mut().enumerate() {
        let effects = sw.expire_flows(now);
        deliver(&mut ctl, sw, IngressId(g as u32), now, effects, &mut rng);
        assert_oracle(&ctl, "flow-removed");
    }

    // Idle sweep past the memory timeout: expiries + scale-down events.
    now += Duration::from_secs(120);
    ctl.tick(now, &mut rng);
    assert_oracle(&ctl, "tick");

    // A zone outage begins and ends: breaker ops + aggregate retains.
    let msgs = ctl.begin_zone_outage(1, now, now + Duration::from_secs(30), &mut rng);
    for (g, m) in &msgs {
        let _ = sws[g.0 as usize].handle_controller(m.at, &m.data);
    }
    assert_oracle(&ctl, "begin_zone_outage");
    ctl.end_zone_outage(1);
    assert_oracle(&ctl, "end_zone_outage");

    // Instance crash + detection sweep: memory forgets, breaker feeds.
    now += Duration::from_secs(5);
    let f = client_syn(25, 51_000, 10);
    pump(&mut ctl, &mut sws[0], IngressId(0), now, &f, &mut rng);
    assert_oracle(&ctl, "packet-in (redeploy)");
    now += Duration::from_secs(5);
    ctl.inject_instance_crash(0, asm, now, &mut rng);
    let msgs = ctl.health_check(now + Duration::from_secs(1));
    for (g, m) in &msgs {
        let _ = sws[g.0 as usize].handle_controller(m.at, &m.data);
    }
    assert_oracle(&ctl, "health_check");

    // A warm restart mid-sequence must re-seed the journal: the oracle
    // keeps holding for mutations after the restart (regression for the
    // second-crash-rebuilds-from-empty bug).
    let report = ctl.crash_restart(RecoveryMode::Warm);
    assert_eq!(report.mode, RecoveryMode::Warm);
    assert_oracle(&ctl, "crash_restart(warm)");
    now += Duration::from_secs(2);
    let f = client_syn(26, 52_000, 10);
    pump(&mut ctl, &mut sws[0], IngressId(0), now, &f, &mut rng);
    assert_oracle(&ctl, "packet-in after warm restart");
}

#[test]
fn rebuild_matches_live_state_at_every_mutation_boundary() {
    run_mutation_sequence(false);
}

#[test]
fn rebuild_matches_live_state_with_aggregate_rules() {
    run_mutation_sequence(true);
}

#[test]
fn warm_restart_preserves_recoverable_state_and_cold_does_not() {
    let mut rng = SimRng::new(78);
    let (mut ctl, mut sws) = setup(&mut rng, false);
    let mut now = SimTime::from_secs(1);
    for (i, client) in [20u8, 21, 22].iter().enumerate() {
        let g = i % 2;
        let f = client_syn(*client, 50_000 + i as u16, 10);
        pump(&mut ctl, &mut sws[g], IngressId(g as u32), now, &f, &mut rng);
        now += Duration::from_secs(2);
    }
    let before = ctl.state_digest();
    assert!(!ctl.memory().is_empty());

    // Warm: recoverable state survives byte-identically (no in-flight
    // migration to abort here).
    let report = ctl.crash_restart(RecoveryMode::Warm);
    assert_eq!(report.aborted_migrations, 0);
    assert!(report.replayed_events > 0 || report.snapshot_entries > 0);
    assert_eq!(ctl.state_digest(), before, "warm restart loses nothing");

    // Second crash right after the first: the re-seeded journal must
    // still carry the full state.
    ctl.crash_restart(RecoveryMode::Warm);
    assert_eq!(ctl.state_digest(), before, "state survives a double crash");

    // Cold: everything recoverable is gone; reconciliation starts over.
    let report = ctl.crash_restart(RecoveryMode::Cold);
    assert_eq!((report.replayed_events, report.snapshot_entries), (0, 0));
    assert!(ctl.memory().is_empty());
    assert_ne!(ctl.state_digest(), before);

    // Either way, a reconcile pass converges the switch tables: the
    // second pass has nothing left to fix.
    let t = now + Duration::from_secs(3);
    for (g, sw) in sws.iter_mut().enumerate() {
        let flows: Vec<FlowEntry> = sw.table().entries().cloned().collect();
        let out = ctl.reconcile(IngressId(g as u32), &flows, t);
        for m in out {
            let _ = sw.handle_controller(m.at, &m.data);
        }
        let flows: Vec<FlowEntry> = sw.table().entries().cloned().collect();
        assert!(
            ctl.reconcile(IngressId(g as u32), &flows, t + Duration::from_secs(1))
                .is_empty(),
            "cold-restart reconcile converges in one pass"
        );
    }
}

/// The forward-flow index is derived state: a warm restart rebuilds it from
/// the snapshot and the replayed tail, and the rebuilt controller must find
/// — and remove — exactly the pairs its uncrashed twin does when the flows
/// installed before the crash expire after it. Includes a client whose
/// handover sweep retired some pairs and kept one, and two live pairs under
/// one forward match (a re-install the first one's expiry has not caught up
/// with).
#[test]
fn rebuilt_state_answers_flow_removed_like_the_live_one() {
    let run = |crash: bool| {
        let mut rng = SimRng::new(79);
        let (mut ctl, mut sws) = setup(&mut rng, false);
        let mut now = SimTime::from_secs(1);
        // Client 20 opens three sessions at ingress 0 (one to an
        // unregistered port: a cloud path, which a handover keeps), 21 one
        // at ingress 1; 20's first connection is installed twice.
        let mut cloud = client_syn(20, 50_002, 10);
        cloud.dst_port = 443;
        let opens = [
            (0, client_syn(20, 50_000, 10)),
            (0, cloud),
            (0, client_syn(20, 50_001, 11)),
            (1, client_syn(21, 50_000, 10)),
            (0, client_syn(20, 50_000, 10)),
        ];
        // An empty, bufferless switch turns every frame into a packet-in
        // that carries it whole: the real one would not miss twice.
        let mut tap = Switch::new(SwitchConfig {
            n_buffers: 0,
            ports: vec![CLIENT_PORT],
            ..SwitchConfig::default()
        });
        for (g, f) in &opens {
            let effects = tap.handle_frame(now, CLIENT_PORT, &f.encode());
            deliver(&mut ctl, &mut sws[*g], IngressId(*g as u32), now, effects, &mut rng);
            now += Duration::from_secs(1);
        }
        let ho = ctl.handle_attachment_change(
            now,
            Ipv4Addr::new(192, 168, 1, 21),
            MacAddr::from_id(21),
            MacAddr::from_id(99),
            IngressId(1),
            IngressId(0),
            CLIENT_PORT,
            HandoverPolicy::Anchored,
            &mut rng,
        );
        for (g, m) in &ho.messages {
            let _ = sws[g.0 as usize].handle_controller(m.at, &m.data);
        }
        now = ho.completed_at + Duration::from_secs(1);
        if crash {
            ctl.crash_restart(RecoveryMode::Warm);
        }
        let before = ctl.flows_removed();
        now += Duration::from_secs(60);
        for (g, sw) in sws.iter_mut().enumerate() {
            let effects = sw.expire_flows(now);
            deliver(&mut ctl, sw, IngressId(g as u32), now, effects, &mut rng);
        }
        assert!(ctl.flows_removed() > before, "flows expired and were reported");
        assert_oracle(&ctl, "flow-removed after the handover");
        ctl.state_digest()
    };
    let live = run(false);
    assert!(!live.contains("InstalledPair"), "every FLOW_REMOVED removed its pair");
    assert_eq!(run(true), live, "the rebuilt index found the same pairs");
}
