//! Control-channel transcript golden: one scenario per rule shape the
//! controller can put on a switch, each driven through a real `Controller`
//! and real `ovs::Switch`es. Every `(ingress, at, bytes)` the controller
//! emits, the metrics snapshot and `state_digest()` are folded into one
//! FNV-1a hash per scenario and pinned below — so a refactor of the
//! install/teardown paths has to keep xid allocation, message order,
//! flow-mod bytes, counters and bookkeeping exactly as they were.
//!
//! Every scenario runs with the journal off and on: the two transcripts
//! must be equal, and with the journal on a rebuild from it must digest
//! equal to the live state. A third run hands the controller an outbox that
//! already holds messages (`handle_switch_message_into`, the harness's entry
//! point): they must come back untouched and what is appended behind them
//! must hash to the same pinned transcript the `Vec`-returning wrapper gives.
//!
//! Re-pin a constant only when a change *means* to alter what goes on the
//! wire for that shape, and say so in the commit.

use desim::{Duration, FaultPlan, SimRng, SimTime};
use edgectl::cluster::DockerCluster;
use edgectl::scheduler::ProximityScheduler;
use edgectl::{
    Controller, ControllerConfig, EdgeService, HandoverPolicy, IngressId,
    JournalConfig, MigrationConfig, MigrationPolicy, MigrationReason, OutboundMessage, PortMap,
};
use netsim::addr::{Ipv4Addr, MacAddr};
use netsim::{ServiceAddr, TcpFrame};
use openflow::actions::{Action, Instruction};
use openflow::oxm::{Match, OxmField};
use openflow::{FlowEntry, FlowModCommand, Message, PacketInReason, OFP_NO_BUFFER};
use ovs::{Effect, Switch, SwitchConfig};
use std::collections::HashMap;

const CLIENT_PORT: u32 = 1;
const EDGE_A_PORT: u32 = 2;
const CLOUD_PORT: u32 = 3;
const EDGE_B_PORT: u32 = 4;
const G0: IngressId = IngressId(0);
const G1: IngressId = IngressId(1);
const ASM: u8 = 10;
const NGINX: u8 = 11;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn svc_addr(last: u8) -> ServiceAddr {
    ServiceAddr::new(Ipv4Addr::new(203, 0, 113, last), 80)
}

fn client_ip(last: u8) -> Ipv4Addr {
    Ipv4Addr::new(192, 168, 1, last)
}

fn make_service(key: &str, last: u8) -> EdgeService {
    let profile = containerd::ServiceSet::by_key(key).unwrap();
    let addr = svc_addr(last);
    EdgeService::from_profile(profile, addr)
}

fn syn(client: u8, src_port: u16, svc: u8) -> TcpFrame {
    TcpFrame::syn(
        MacAddr::from_id(client as u32),
        MacAddr::from_id(99),
        client_ip(client),
        src_port,
        svc_addr(svc),
    )
}

/// How a scenario's rig differs from the default.
#[derive(Clone, Copy, Default)]
struct RigOpts {
    journal: bool,
    aggregate: bool,
    /// Switch packet buffers (0 = every packet-in carries its packet).
    n_buffers: u32,
    /// `edge-b` fails every container create.
    edge_b_faulty: bool,
    /// `edge-b` is the nearest cluster as seen from ingress 1.
    edge_b_near_g1: bool,
    /// Switch messages reach the controller through
    /// `handle_switch_message_into`, with an outbox that is not empty.
    prefilled_outbox: bool,
}

/// Two clusters (`edge-a` nearer than `edge-b`), two ingress switches, two
/// services, live migration on — plus the running transcript hash.
struct Rig {
    ctl: Controller,
    sws: Vec<Switch>,
    rng: SimRng,
    hash: u64,
    journal: bool,
    /// What the outbox holds before each switch message (see [`RigOpts`]).
    prefill: Option<Vec<OutboundMessage>>,
}

impl Rig {
    fn new(seed: u64, opts: RigOpts) -> Rig {
        let mut rng = SimRng::new(seed);
        let config = ControllerConfig {
            journal: JournalConfig {
                enabled: opts.journal,
                snapshot_every: 4,
            },
            migration: MigrationConfig {
                policy: MigrationPolicy::Live,
                state_bytes_per_request: 512,
                ..MigrationConfig::default()
            },
            aggregate_rules: opts.aggregate,
            ..ControllerConfig::default()
        };
        let ports = || PortMap {
            cluster_ports: HashMap::new(),
            cloud_port: CLOUD_PORT,
        };
        let mut ctl = Controller::new(Box::<ProximityScheduler>::default(), ports(), config);
        for (i, (name, latency_us, port)) in
            [("edge-a", 150u64, EDGE_A_PORT), ("edge-b", 400, EDGE_B_PORT)].into_iter().enumerate()
        {
            let mut engine = dockersim::DockerEngine::with_defaults();
            engine.pull(&containerd::ServiceSet::by_key("asm").unwrap().manifests, &mut rng);
            if i == 1 && opts.edge_b_faulty {
                let plan = FaultPlan {
                    create_failure: 1.0,
                    ..FaultPlan::uniform(0.0, 77)
                };
                engine.node_mut().set_faults(plan.injector(1));
            }
            let cluster = DockerCluster::new(
                name,
                engine,
                MacAddr::from_id(200 + i as u32),
                Ipv4Addr::new(10, 0, i as u8, 10),
                Duration::from_micros(latency_us),
            );
            ctl.add_cluster(Box::new(cluster), port);
        }
        let g1 = ctl.add_ingress(ports());
        ctl.map_cluster_port(g1, "edge-a", EDGE_A_PORT);
        ctl.map_cluster_port(g1, "edge-b", EDGE_B_PORT);
        if opts.edge_b_near_g1 {
            ctl.set_ingress_distance(g1, 1, Duration::from_micros(10));
        }
        ctl.register_service(make_service("asm", ASM));
        ctl.register_service(make_service("nginx", NGINX));
        let sws = (0..2)
            .map(|i| {
                Switch::new(SwitchConfig {
                    datapath_id: 1 + i,
                    n_buffers: opts.n_buffers,
                    miss_send_len: 0xffff,
                    ports: vec![CLIENT_PORT, EDGE_A_PORT, CLOUD_PORT, EDGE_B_PORT],
                })
            })
            .collect();
        Rig {
            ctl,
            sws,
            rng,
            hash: FNV_OFFSET,
            journal: opts.journal,
            prefill: opts.prefilled_outbox.then(|| {
                let held = |at, data| OutboundMessage { at: SimTime::from_secs(at), data };
                vec![held(3, vec![0xde, 0xad]), held(1, Vec::new())]
            }),
        }
    }

    /// One switch message into the controller: through the wrapper, or —
    /// `prefilled_outbox` — appended to an outbox whose contents must stay.
    fn answer(&mut self, g: IngressId, now: SimTime, bytes: &[u8]) -> Vec<OutboundMessage> {
        let Some(held) = &self.prefill else {
            return self
                .ctl
                .handle_switch_message_from(g, now, bytes, &mut self.rng)
                .expect("controller accepts the switch's bytes");
        };
        let mut out = held.clone();
        self.ctl
            .handle_switch_message_into(g, now, bytes, &mut self.rng, &mut out)
            .expect("controller accepts the switch's bytes");
        assert_eq!(&out[..held.len()], &held[..], "the outbox's contents were touched");
        out.split_off(held.len())
    }

    fn fold(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.hash ^= u64::from(*b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one emitted message into the transcript and delivers it.
    fn emit(&mut self, ingress: IngressId, m: &OutboundMessage) {
        self.fold(&ingress.0.to_be_bytes());
        self.fold(&m.at.as_nanos().to_be_bytes());
        self.fold(&(m.data.len() as u32).to_be_bytes());
        self.fold(&m.data);
        self.sws[ingress.0 as usize]
            .handle_controller(m.at, &m.data)
            .expect("switch accepts the controller's bytes");
    }

    fn emit_tagged(&mut self, msgs: Vec<(IngressId, OutboundMessage)>) -> usize {
        for (g, m) in &msgs {
            self.emit(*g, m);
        }
        msgs.len()
    }

    /// Feeds switch effects (packet-ins, flow-removeds) to the controller;
    /// returns the messages it answered with.
    fn feed_controller(&mut self, g: IngressId, now: SimTime, effects: Vec<Effect>) -> Vec<OutboundMessage> {
        let mut all = Vec::new();
        for e in effects {
            if let Effect::ToController(bytes) = e {
                let out = self.answer(g, now, &bytes);
                for m in &out {
                    self.emit(g, m);
                }
                all.extend(out);
            }
        }
        all
    }

    /// A client frame enters switch `g`; returns the controller's answer.
    fn frame_in(&mut self, g: IngressId, now: SimTime, frame: &TcpFrame) -> Vec<OutboundMessage> {
        let effects = self.sws[g.0 as usize].handle_frame(now, CLIENT_PORT, &frame.encode());
        self.feed_controller(g, now, effects)
    }

    /// A hand-built unbuffered packet-in (a packet that raced an install).
    fn raw_packet_in(&mut self, g: IngressId, now: SimTime, frame: &TcpFrame) -> Vec<OutboundMessage> {
        let data = frame.encode();
        let pkt_in = Message::PacketIn {
            buffer_id: OFP_NO_BUFFER,
            total_len: data.len() as u16,
            reason: PacketInReason::NoMatch,
            table_id: 0,
            cookie: 0,
            match_: Match::any().with(OxmField::InPort(CLIENT_PORT)),
            data,
        }
        .encode(777);
        self.feed_controller(g, now, vec![Effect::ToController(pkt_in)])
    }

    /// Serves one request; returns the instant its flows went out.
    fn serve(&mut self, g: IngressId, now: SimTime, frame: &TcpFrame) -> SimTime {
        let out = self.frame_in(g, now, frame);
        out.iter().map(|m| m.at).max().expect("a packet-in is always answered")
    }

    fn expire(&mut self, g: IngressId, now: SimTime) {
        let effects = self.sws[g.0 as usize].expire_flows(now);
        self.feed_controller(g, now, effects);
    }

    fn handover(
        &mut self,
        now: SimTime,
        client: u8,
        from: IngressId,
        to: IngressId,
        policy: HandoverPolicy,
    ) -> SimTime {
        let ho = self.ctl.handle_attachment_change(
            now,
            client_ip(client),
            MacAddr::from_id(client as u32),
            MacAddr::from_id(99),
            from,
            to,
            CLIENT_PORT,
            policy,
            &mut self.rng,
        );
        self.fold(&ho.completed_at.as_nanos().to_be_bytes());
        self.fold(&[ho.flows_migrated as u8, ho.redispatched as u8]);
        self.emit_tagged(ho.messages);
        ho.completed_at
    }

    fn reconcile(&mut self, g: IngressId, now: SimTime) -> usize {
        let table: Vec<FlowEntry> = self.sws[g.0 as usize].table().entries().cloned().collect();
        let fixes = self.ctl.reconcile(g, &table, now);
        for m in &fixes {
            self.emit(g, m);
        }
        fixes.len()
    }

    /// Starts the `asm` migration edge-a → edge-b and runs its flow flip.
    fn migrate_asm(&mut self, now: SimTime) -> usize {
        for _ in 0..5 {
            self.ctl.note_served(svc_addr(ASM), 0);
        }
        assert!(self.ctl.begin_migration(
            now,
            svc_addr(ASM),
            0,
            1,
            MigrationReason::Explicit,
            &mut self.rng
        ));
        let due = self.ctl.next_migration_at().expect("one migration in flight");
        let out = self.ctl.migration_tick(due, &mut self.rng);
        self.emit_tagged(out)
    }

    fn fold_metrics(&mut self) {
        let json = self.ctl.telemetry.metrics.to_json();
        self.fold(json.as_bytes());
    }

    /// Messages + metrics only (see the aggregate scenarios for why).
    fn finish_wire_only(mut self) -> u64 {
        self.fold_metrics();
        self.hash
    }

    /// Messages + metrics + recoverable-state digest.
    fn finish(mut self) -> u64 {
        self.fold_metrics();
        let digest = self.ctl.state_digest();
        if self.journal {
            assert_eq!(
                self.ctl.journal_rebuild_digest().expect("journal is on"),
                digest,
                "journal rebuild diverged from the live state"
            );
        }
        self.fold(digest.as_bytes());
        self.hash
    }
}

/// Runs `scenario` with the journal off and on, and once more through a
/// pre-filled outbox; all three transcripts must be the pinned one.
#[track_caller]
fn pinned(name: &str, want: u64, scenario: impl Fn(RigOpts) -> u64) {
    let off = scenario(RigOpts::default());
    let on = scenario(RigOpts { journal: true, ..RigOpts::default() });
    let sunk = scenario(RigOpts { prefilled_outbox: true, ..RigOpts::default() });
    assert_eq!(off, on, "{name}: the journal changed the transcript");
    assert_eq!(off, sunk, "{name}: a pre-filled outbox changed the transcript");
    assert_eq!(off, want, "{name}: transcript hash {off:#018x} != pinned {want:#018x}");
}

fn secs(s: u64) -> Duration {
    Duration::from_secs(s)
}

// ---- scenarios -----------------------------------------------------------

/// Waited redirect (cold deploy), fresh redirect (second client), memory
/// hit (second connection), then idle expiry and the idle scale-down.
fn exact_redirects(base: RigOpts, n_buffers: u32) -> u64 {
    let mut r = Rig::new(101, RigOpts { n_buffers, ..base });
    let t0 = SimTime::from_secs(1);
    let answered = r.serve(G0, t0, &syn(20, 50_000, ASM));
    assert!(answered > t0 + Duration::from_millis(50), "cold deploy waits");
    let t1 = answered + secs(1);
    r.serve(G0, t1, &syn(21, 51_000, ASM));
    r.serve(G0, t1 + secs(1), &syn(20, 50_001, ASM));
    assert_eq!(r.ctl.telemetry.metrics.counter("requests_waited"), 1);
    assert_eq!(r.ctl.telemetry.metrics.counter("requests_redirect"), 1);
    assert_eq!(r.ctl.telemetry.metrics.counter("requests_memory_hit"), 1);
    r.expire(G0, t1 + secs(30));
    r.ctl.tick(t1 + secs(120), &mut r.rng);
    assert_eq!(r.ctl.telemetry.metrics.counter("scale_downs"), 1, "asm scaled down on edge-a");
    r.finish()
}

#[test]
fn exact_redirect_buffered() {
    pinned("exact_redirect_buffered", EXACT_REDIRECT_BUFFERED, |base| exact_redirects(base, 64));
}

#[test]
fn exact_redirect_unbuffered() {
    pinned("exact_redirect_unbuffered", EXACT_REDIRECT_UNBUFFERED, |base| exact_redirects(base, 0));
}

/// Plain cloud paths: an unregistered destination, and a registered
/// service while every zone is dark.
#[test]
fn cloud_and_unregistered() {
    pinned("cloud_and_unregistered", CLOUD_AND_UNREGISTERED, |base| {
        let mut r = Rig::new(102, RigOpts { n_buffers: 64, ..base });
        let t0 = SimTime::from_secs(1);
        let mut frame = syn(20, 50_000, ASM);
        frame.dst_port = 443;
        r.serve(G0, t0, &frame);
        for c in 0..2 {
            let msgs = r.ctl.begin_zone_outage(c, t0 + secs(1), t0 + secs(60), &mut r.rng);
            assert_eq!(r.emit_tagged(msgs), 0, "nothing installed toward the zones yet");
        }
        r.serve(G0, t0 + secs(2), &syn(20, 50_001, ASM));
        assert_eq!(r.ctl.telemetry.metrics.counter("requests_unregistered"), 1);
        assert_eq!(r.ctl.telemetry.metrics.counter("requests_cloud"), 1);
        r.finish()
    });
}

/// A with-waiting deployment that exhausts its retries releases the held
/// packet toward the cloud; a second request coalesces onto the verdict.
#[test]
fn fallback_cloud() {
    pinned("fallback_cloud", FALLBACK_CLOUD, |base| {
        let opts = RigOpts {
            n_buffers: 64,
            edge_b_faulty: true,
            edge_b_near_g1: true,
            ..base
        };
        let mut r = Rig::new(103, opts);
        let t0 = SimTime::from_secs(1);
        // Entering at ingress 1, the nearest cluster is the faulty edge-b.
        let released = r.serve(G1, t0, &syn(20, 50_000, ASM));
        assert!(released > t0);
        let again = r.serve(G1, t0 + Duration::from_millis(5), &syn(21, 51_000, ASM));
        assert_eq!(again, released, "coalesced onto the same give-up instant");
        assert_eq!(r.ctl.telemetry.metrics.counter("requests_fallback_cloud"), 2);
        r.finish()
    });
}

/// Drives the rig to the point where one aggregate pair for `asm` is on
/// switch 0 (client 20 deployed it with an exact pair, client 21 was the
/// first shared decision). Returns the instant after.
fn with_aggregate(r: &mut Rig) -> SimTime {
    let answered = r.serve(G0, SimTime::from_secs(1), &syn(20, 50_000, ASM));
    let t1 = answered + secs(1);
    r.serve(G0, t1, &syn(21, 51_000, ASM));
    assert_eq!(r.ctl.telemetry.metrics.counter("aggregate_installed"), 1);
    t1 + secs(1)
}

/// The first shared decision installs the service-wide wildcard pair; its
/// idle expiry drops the anchor and the next decision installs a fresh one.
#[test]
fn aggregate_first() {
    pinned("aggregate_first", AGGREGATE_FIRST, |base| {
        let mut r =
            Rig::new(104, RigOpts { aggregate: true, n_buffers: 64, ..base });
        let t = with_aggregate(&mut r);
        assert_eq!(r.sws[0].table().entries().count(), 4, "exact pair + aggregate pair");
        r.expire(G0, t + secs(30));
        assert_eq!(r.sws[0].table().entries().count(), 0);
        r.serve(G0, t + secs(31), &syn(22, 52_000, ASM));
        assert_eq!(r.ctl.telemetry.metrics.counter("aggregate_installed"), 2);
        r.finish()
    });
}

// The two scenarios below pin the wire and the counters of their own step
// only — not the set-up's messages and not the state digest: both hold the
// aggregate pair itself, so they would move with `aggregate_first` whenever
// that pair's match is meant to change, although nothing about the covered /
// divergent answer did.

/// A packet-in the aggregate already covers is released with a bare
/// `PACKET_OUT`.
#[test]
fn aggregate_covered() {
    pinned("aggregate_covered", AGGREGATE_COVERED, |base| {
        let mut r =
            Rig::new(105, RigOpts { aggregate: true, n_buffers: 64, ..base });
        let t = with_aggregate(&mut r);
        r.hash = FNV_OFFSET;
        let out = r.raw_packet_in(G0, t, &syn(23, 53_000, ASM));
        assert_eq!(out.len(), 1, "one PACKET_OUT, no flow-mods");
        assert_eq!(r.ctl.telemetry.metrics.counter("aggregate_covered"), 1);
        r.finish_wire_only()
    });
}

/// A client behind another gateway diverges from the aggregate's anchor and
/// gets an exact pair at base priority.
#[test]
fn aggregate_divergent() {
    pinned("aggregate_divergent", AGGREGATE_DIVERGENT, |base| {
        let mut r =
            Rig::new(106, RigOpts { aggregate: true, n_buffers: 64, ..base });
        let t = with_aggregate(&mut r);
        r.hash = FNV_OFFSET;
        let mut frame = syn(24, 54_000, ASM);
        frame.dst_mac = MacAddr::from_id(98);
        let out = r.raw_packet_in(G0, t, &frame);
        assert_eq!(out.len(), 3, "exact pair + packet-out");
        assert_eq!(r.ctl.telemetry.metrics.counter("aggregate_divergent"), 1);
        r.finish_wire_only()
    });
}

/// Anchored handover: the session keeps its instance; a per-client wildcard
/// pair goes in at the new switch, the exact pair comes out of the old one.
#[test]
fn handover_anchored() {
    pinned("handover_anchored", HANDOVER_ANCHORED, |base| {
        let mut r = Rig::new(107, RigOpts { n_buffers: 64, ..base });
        let answered = r.serve(G0, SimTime::from_secs(1), &syn(20, 50_000, ASM));
        // An unregistered cloud path of the same client is *not* retired.
        let mut other = syn(20, 50_001, ASM);
        other.dst_port = 443;
        r.serve(G0, answered + secs(1), &other);
        r.handover(answered + secs(2), 20, G0, G1, HandoverPolicy::Anchored);
        assert_eq!(r.ctl.telemetry.metrics.counter("flows_migrated"), 1);
        assert_eq!(r.sws[1].table().entries().count(), 2, "wildcard pair at the new switch");
        assert_eq!(r.sws[0].table().entries().count(), 2, "only the cloud path is left");
        r.finish()
    });
}

/// Redispatch handover, three ways: re-placed on a ready instance, re-placed
/// with waiting after the instance silently died, and released to the cloud
/// (a handover-cloud pair) when the nearest zone cannot deploy.
#[test]
fn handover_redispatched() {
    pinned("handover_redispatched", HANDOVER_REDISPATCHED, |base| {
        let mut r = Rig::new(108, RigOpts { n_buffers: 64, ..base });
        let answered = r.serve(G0, SimTime::from_secs(1), &syn(20, 50_000, ASM));
        let done = r.handover(answered + secs(2), 20, G0, G1, HandoverPolicy::Redispatch);
        assert_eq!(r.ctl.telemetry.metrics.counter("handover_redispatched_total"), 1);
        // The instance dies unnoticed; the next handover redeploys, waiting.
        let crash_at = done + secs(1);
        assert!(r.ctl.inject_instance_crash(0, svc_addr(ASM), crash_at, &mut r.rng));
        let back = r.handover(crash_at + secs(1), 20, G1, G0, HandoverPolicy::Redispatch);
        assert!(back > crash_at + secs(1) + Duration::from_millis(50), "waited for the redeploy");
        r.finish()
    });
}

#[test]
fn handover_cloud() {
    pinned("handover_cloud", HANDOVER_CLOUD, |base| {
        let opts = RigOpts {
            n_buffers: 64,
            edge_b_faulty: true,
            edge_b_near_g1: true,
            ..base
        };
        let mut r = Rig::new(109, opts);
        let answered = r.serve(G0, SimTime::from_secs(1), &syn(20, 50_000, ASM));
        // From ingress 1 the nearest zone is edge-b, which cannot create.
        r.handover(answered + secs(2), 20, G0, G1, HandoverPolicy::Redispatch);
        assert_eq!(r.ctl.telemetry.metrics.counter("handover_redispatched_total"), 1);
        let cloud_bound = r.sws[1]
            .table()
            .entries()
            .filter(|e| {
                e.instructions
                    == [Instruction::ApplyActions(vec![Action::output(CLOUD_PORT)])]
            })
            .count();
        assert_eq!(cloud_bound, 1, "handover-cloud forward flow");
        r.finish()
    });
}

/// Migration flow flip over an exact pair: wildcard toward the new
/// instance in, both directions of the old exact pair out.
#[test]
fn migration_flip_exact() {
    pinned("migration_flip_exact", MIGRATION_FLIP_EXACT, |base| {
        let mut r = Rig::new(110, RigOpts { n_buffers: 64, ..base });
        let answered = r.serve(G0, SimTime::from_secs(1), &syn(20, 50_000, ASM));
        let n = r.migrate_asm(answered + secs(1));
        assert_eq!(n, 4, "2 adds + fwd and rev delete");
        r.finish()
    });
}

/// Migration flow flip over a handover wildcard of the same client and
/// service: the ADD replaced the forward flow in place, so only the old
/// reverse flow is deleted.
#[test]
fn migration_flip_replaced_forward() {
    pinned("migration_flip_replaced_forward", MIGRATION_FLIP_REPLACED_FORWARD, |base| {
        let mut r = Rig::new(111, RigOpts { n_buffers: 64, ..base });
        let answered = r.serve(G0, SimTime::from_secs(1), &syn(20, 50_000, ASM));
        let done = r.handover(answered + secs(2), 20, G0, G1, HandoverPolicy::Anchored);
        let n = r.migrate_asm(done + secs(1));
        assert_eq!(n, 3, "2 adds + the old reverse flow's delete");
        r.finish()
    });
}

/// A crashed instance: the health sweep deletes every pair aimed at it and
/// the next request redeploys.
#[test]
fn dead_instance_repair() {
    pinned("dead_instance_repair", DEAD_INSTANCE_REPAIR, |base| {
        let mut r = Rig::new(112, RigOpts { n_buffers: 64, ..base });
        let answered = r.serve(G0, SimTime::from_secs(1), &syn(20, 50_000, ASM));
        r.serve(G1, answered + secs(1), &syn(21, 51_000, ASM));
        let crash_at = answered + secs(2);
        assert!(r.ctl.inject_instance_crash(0, svc_addr(ASM), crash_at, &mut r.rng));
        let msgs = r.ctl.health_check(crash_at + secs(1));
        assert_eq!(r.emit_tagged(msgs), 4, "both pairs, both switches");
        r.serve(G0, crash_at + secs(2), &syn(20, 50_001, ASM));
        assert_eq!(r.ctl.telemetry.metrics.counter("requests_waited"), 2);
        r.finish()
    });
}

/// A zone outage tears down the zone's pairs; requests during the window
/// land on the other zone; the window ends explicitly.
#[test]
fn zone_outage() {
    pinned("zone_outage", ZONE_OUTAGE, |base| {
        let mut r = Rig::new(113, RigOpts { n_buffers: 64, ..base });
        let answered = r.serve(G0, SimTime::from_secs(1), &syn(20, 50_000, ASM));
        let dark_at = r.serve(G0, answered + secs(1), &syn(21, 51_000, NGINX)) + secs(1);
        let msgs = r.ctl.begin_zone_outage(0, dark_at, dark_at + secs(30), &mut r.rng);
        assert_eq!(r.emit_tagged(msgs), 4);
        r.serve(G0, dark_at + secs(1), &syn(20, 50_001, ASM));
        assert_eq!(r.ctl.records.last().unwrap().cluster, Some(1), "served from edge-b");
        r.ctl.end_zone_outage(0);
        r.finish()
    });
}

/// Channel-reconnect reconciliation: lost flows re-added verbatim (reverse
/// before forward), an orphan strict-deleted, a second pass empty; then a
/// pair whose instance died while the channel was down is removed and
/// its switch flows deleted as orphans.
#[test]
fn reconcile_readd_and_orphans() {
    pinned("reconcile_readd_and_orphans", RECONCILE, |base| {
        let mut r = Rig::new(114, RigOpts { n_buffers: 64, ..base });
        let answered = r.serve(G0, SimTime::from_secs(1), &syn(20, 50_000, ASM));
        // The flows idle out with the channel down: nothing is delivered.
        let lost_at = answered + secs(11);
        let _undelivered = r.sws[0].expire_flows(lost_at);
        assert_eq!(r.sws[0].table().entries().count(), 0);
        let orphan = Message::FlowMod {
            cookie: 7,
            table_id: 0,
            command: FlowModCommand::Add,
            idle_timeout: 0,
            hard_timeout: 0,
            priority: 42,
            buffer_id: OFP_NO_BUFFER,
            flags: 0,
            match_: Match::connection([1, 2, 3, 4], 9, [5, 6, 7, 8], 10),
            instructions: vec![Instruction::ApplyActions(vec![Action::output(CLOUD_PORT)])],
        };
        r.sws[0].handle_controller(lost_at, &orphan.encode(1234)).unwrap();
        assert_eq!(r.reconcile(G0, lost_at + secs(1)), 3, "2 re-adds + 1 orphan delete");
        assert_eq!(r.reconcile(G0, lost_at + secs(2)), 0, "converged");

        let crash_at = lost_at + secs(3);
        assert!(r.ctl.inject_instance_crash(0, svc_addr(ASM), crash_at, &mut r.rng));
        assert_eq!(r.reconcile(G0, crash_at + secs(1)), 2, "stale redirects deleted");
        assert_eq!(r.sws[0].table().entries().count(), 0);
        r.finish()
    });
}

/// A delivered `FLOW_REMOVED` removes its pair: reconciliation does not
/// resurrect it.
#[test]
fn flow_removed_takes_the_pair() {
    pinned("flow_removed_takes_the_pair", FLOW_REMOVED_TAKES_THE_PAIR, |base| {
        let mut r = Rig::new(115, RigOpts { n_buffers: 64, ..base });
        let answered = r.serve(G0, SimTime::from_secs(1), &syn(20, 50_000, ASM));
        r.expire(G0, answered + secs(11));
        assert_eq!(r.ctl.flows_removed(), 1);
        assert_eq!(r.reconcile(G0, answered + secs(12)), 0);
        r.finish()
    });
}

// ---- the pinned transcripts (taken at commit 93c467a, before the
// ControlState / rule-builder refactor). AGGREGATE_FIRST was re-pinned
// since (was 0xd8c4_f50a_ae91_213d): the aggregate forward match gained the
// in-port field, a deliberate change to that one shape. All but the two
// wire-only aggregate scenarios were re-pinned once more when tombstones
// went: their messages and metrics are unchanged, their `state_digest()`
// lost its dead pairs and gained pair ids and `next_pair`. ---------------

const EXACT_REDIRECT_BUFFERED: u64 = 0x92be_d202_94d2_a912;
const EXACT_REDIRECT_UNBUFFERED: u64 = 0x3721_241c_be33_c1d7;
const CLOUD_AND_UNREGISTERED: u64 = 0x0aaf_eb27_a188_fc41;
const FALLBACK_CLOUD: u64 = 0xd009_0afc_5f80_7d03;
const AGGREGATE_FIRST: u64 = 0xc9d8_5df2_1eaa_571b;
const AGGREGATE_COVERED: u64 = 0xd031_6aaa_7c61_33dc;
const AGGREGATE_DIVERGENT: u64 = 0xd8a2_f527_2a46_1236;
const HANDOVER_ANCHORED: u64 = 0x9506_14c1_2c52_090e;
const HANDOVER_REDISPATCHED: u64 = 0x8cff_c622_8b42_5281;
const HANDOVER_CLOUD: u64 = 0xe1b4_74b5_36e7_b84a;
const MIGRATION_FLIP_EXACT: u64 = 0x4ba6_9452_f433_2f96;
const MIGRATION_FLIP_REPLACED_FORWARD: u64 = 0xcb4b_c801_9098_a208;
const DEAD_INSTANCE_REPAIR: u64 = 0xf4ee_e774_144b_a12a;
const ZONE_OUTAGE: u64 = 0xb217_4a6a_582b_836a;
const RECONCILE: u64 = 0x9395_2303_797e_3e16;
const FLOW_REMOVED_TAKES_THE_PAIR: u64 = 0xf2e5_9d08_a672_19e5;

/// The rest of the outbox contract: bytes that are no message fail before
/// anything is pushed, and a packet-in whose packet is no frame appends its
/// one buffer release behind what the outbox already holds.
#[test]
fn an_outbox_keeps_what_it_holds_when_the_switch_sends_nonsense() {
    let mut r = Rig::new(116, RigOpts { n_buffers: 64, ..RigOpts::default() });
    let held = OutboundMessage { at: SimTime::from_secs(9), data: vec![1, 2, 3] };
    let mut out = vec![held.clone()];
    let now = SimTime::from_secs(1);
    assert!(r.ctl.handle_switch_message_into(G0, now, &[0xff; 7], &mut r.rng, &mut out).is_err());
    assert_eq!(out, std::slice::from_ref(&held));

    let pkt_in = Message::PacketIn {
        buffer_id: 5,
        total_len: 3,
        reason: PacketInReason::NoMatch,
        table_id: 0,
        cookie: 0,
        match_: Match::any().with(OxmField::InPort(CLIENT_PORT)),
        data: vec![0xaa; 3],
    };
    r.ctl.handle_switch_message_into(G0, now, &pkt_in.encode(1), &mut r.rng, &mut out).unwrap();
    assert_eq!((out.len(), &out[0]), (2, &held), "the buffer's release, behind what was there");
    assert_eq!(r.ctl.control_errors().len(), 1);
}
