//! Property tests for controller crash-recovery: whatever the
//! interleaving of packet-ins, handovers, live migrations, idle sweeps
//! and the crash instant — and in both warm (journal-replay) and cold
//! (empty-state) restart modes, with exact or aggregated rules — the
//! recovered controller always converges: one reconcile pass per switch
//! fixes all drift, a second pass finds nothing, and no session is
//! stranded (every pre-crash client's next request is still answered).

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
use proptest::prelude::*;
use std::collections::HashMap;

const CLIENT_PORT: u32 = 1;
const EDGE_A_PORT: u32 = 2;
const CLOUD_PORT: u32 = 3;
const EDGE_B_PORT: u32 = 4;

const ASM: ServiceAddr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80);

fn make_service() -> EdgeService {
    let profile = containerd::ServiceSet::by_key("asm").unwrap();
    EdgeService::from_profile(profile, ASM)
}

fn ports() -> PortMap {
    PortMap {
        cluster_ports: HashMap::new(),
        cloud_port: CLOUD_PORT,
    }
}

fn setup(rng: &mut SimRng, aggregate: bool) -> (Controller, Vec<Switch>) {
    let mut config = ControllerConfig {
        journal: JournalConfig {
            enabled: true,
            snapshot_every: 3,
        },
        migration: MigrationConfig {
            policy: MigrationPolicy::Live,
            state_bytes_per_request: 256,
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
    ctl.register_service(make_service());
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

fn packet_in(
    ctl: &mut Controller,
    sws: &mut [Switch],
    g: usize,
    client: u8,
    src_port: u16,
    now: SimTime,
    rng: &mut SimRng,
) {
    let frame = TcpFrame::syn(
        MacAddr::from_id(client as u32),
        MacAddr::from_id(99),
        Ipv4Addr::new(192, 168, 1, client),
        src_port,
        ASM,
    );
    let effects = sws[g].handle_frame(now, CLIENT_PORT, &frame.encode());
    for e in effects {
        if let Effect::ToController(bytes) = e {
            let out = ctl
                .handle_switch_message_from(IngressId(g as u32), now, &bytes, rng)
                .expect("well-formed packet-in");
            for m in out {
                let _ = sws[g].handle_controller(m.at, &m.data);
            }
        }
    }
}

/// One abstract step of the pre-crash history, decoded from a raw tuple.
fn apply_op(
    ctl: &mut Controller,
    sws: &mut [Switch],
    op: (u8, u8, u8),
    now: SimTime,
    rng: &mut SimRng,
) {
    let (kind, a, b) = op;
    let client = 20 + a % 6;
    let g = (b % 2) as usize;
    match kind % 6 {
        // Ordinary table-miss traffic (the common case, weighted double).
        0 | 1 => packet_in(ctl, sws, g, client, 50_000 + a as u16, now, rng),
        // An announced handover to the other ingress.
        2 => {
            let policy = if b % 4 < 2 {
                HandoverPolicy::Anchored
            } else {
                HandoverPolicy::Redispatch
            };
            let ho = ctl.handle_attachment_change(
                now,
                Ipv4Addr::new(192, 168, 1, client),
                MacAddr::from_id(client as u32),
                MacAddr::from_id(99),
                IngressId(1 - g as u32),
                IngressId(g as u32),
                CLIENT_PORT,
                policy,
                rng,
            );
            for (gi, m) in &ho.messages {
                let _ = sws[gi.0 as usize].handle_controller(m.at, &m.data);
            }
        }
        // Session state accrues, then a live migration may start; crashing
        // while it is in flight is the interesting interleaving.
        3 => {
            for _ in 0..3 {
                ctl.note_served(ASM, g);
            }
            ctl.begin_migration(now, ASM, g, 1 - g, MigrationReason::Explicit, rng);
        }
        // Flip whatever migration came due.
        4 => {
            let out = ctl.migration_tick(now, rng);
            for (gi, m) in &out {
                let _ = sws[gi.0 as usize].handle_controller(m.at, &m.data);
            }
        }
        // Idle sweep + switch-side expiry (FlowRemoved tombstones).
        _ => {
            ctl.tick(now, rng);
            for (g, sw) in sws.iter_mut().enumerate() {
                let effects = sw.expire_flows(now);
                for e in effects {
                    if let Effect::ToController(bytes) = e {
                        let out = ctl
                            .handle_switch_message_from(IngressId(g as u32), now, &bytes, rng)
                            .expect("well-formed flow-removed");
                        for m in out {
                            let _ = sw.handle_controller(m.at, &m.data);
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash-during-anything convergence: run a random operation history,
    /// crash at a random point in either mode, reconcile, and require a
    /// clean fixpoint with no stranded session.
    #[test]
    fn crash_replay_and_reconcile_always_converge(
        ops in prop::collection::vec((0u8..6, 0u8..6, 0u8..4), 1..14),
        warm in any::<bool>(),
        aggregate in any::<bool>(),
        seed in 0u64..64,
    ) {
        let mut rng = SimRng::new(1000 + seed);
        let (mut ctl, mut sws) = setup(&mut rng, aggregate);
        let mut now = SimTime::from_secs(1);
        let mut seen: Vec<u8> = Vec::new();
        for &op in &ops {
            apply_op(&mut ctl, &mut sws, op, now, &mut rng);
            if op.0 % 6 <= 1 {
                let c = 20 + op.1 % 6;
                if !seen.contains(&c) {
                    seen.push(c);
                }
            }
            now += Duration::from_secs(2);
        }

        // The journal's own invariant held right up to the crash.
        if !aggregate {
            prop_assert_eq!(ctl.journal_rebuild_digest().unwrap(), ctl.state_digest());
        } else {
            prop_assert_eq!(
                ctl.journal_rebuild_digest().unwrap(),
                ctl.state_digest(),
                "oracle must hold with aggregated rules too"
            );
        }

        // Crash. Warm replays the journal; cold starts from nothing.
        let mode = if warm { RecoveryMode::Warm } else { RecoveryMode::Cold };
        let digest_before = ctl.state_digest();
        let report = ctl.crash_restart(mode);
        prop_assert_eq!(report.mode, mode);
        if warm && report.aborted_migrations == 0 {
            prop_assert_eq!(ctl.state_digest(), digest_before, "lossless warm restart");
        }

        // Reconcile every switch; apply the fixes; the second pass must be
        // empty in BOTH modes — that is the convergence contract.
        now += Duration::from_secs(1);
        for (g, sw) in sws.iter_mut().enumerate() {
            let flows: Vec<FlowEntry> = sw.table().entries().cloned().collect();
            let out = ctl.reconcile(IngressId(g as u32), &flows, now);
            for m in out {
                let _ = sw.handle_controller(m.at, &m.data);
            }
        }
        now += Duration::from_secs(1);
        for (g, sw) in sws.iter_mut().enumerate() {
            let flows: Vec<FlowEntry> = sw.table().entries().cloned().collect();
            let residual = ctl.reconcile(IngressId(g as u32), &flows, now);
            prop_assert!(
                residual.is_empty(),
                "second reconcile pass must find nothing (mode {:?}, residual {})",
                mode,
                residual.len()
            );
        }

        // No stranded session: every client that had traffic before the
        // crash gets its next request answered — a fresh SYN either hits
        // surviving flows on the switch or re-enters dispatch, never an
        // error.
        now += Duration::from_secs(1);
        for (i, &client) in seen.iter().enumerate() {
            packet_in(&mut ctl, &mut sws, i % 2, client, 60_000 + i as u16, now, &mut rng);
            now += Duration::from_secs(1);
        }

        // And the restarted controller's journal is already good for the
        // *next* crash: rebuild still matches the live state.
        prop_assert_eq!(ctl.journal_rebuild_digest().unwrap(), ctl.state_digest());
    }
}
