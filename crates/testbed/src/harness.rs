//! The end-to-end event-driven harness: one event loop under both testbeds.
//!
//! A [`Harness`] wires the whole stack together and runs it in simulated
//! time: emulated clients open TCP connections toward registered cloud
//! addresses; frames traverse the OVS data plane byte-for-byte; table misses
//! become OpenFlow `PACKET_IN`s to the transparent-edge controller, which
//! deploys services on demand into the configured clusters; responses flow
//! back through the reverse-rewrite flows. It is generic over the network it
//! owns ([`Net`]) and the controller's span recorder (`S`, default `Off`):
//!
//! * [`Testbed`] = `Harness<C3Topology>` — the paper's C³ evaluation testbed,
//!   one OVS and one gateway server (`harness/c3.rs`). Its clients issue
//!   one-shot requests ([`Harness::request_at`]) whose `timecurl`-style
//!   `time_total` lands in [`Harness::completed`].
//! * [`MobilityTestbed`] = `Harness<MultiGnbTopology>` — N gNB ingress
//!   switches, each fronting its own near-edge zone, one controller managing
//!   them all (`harness/multi_gnb.rs`). Each client opens **one** TCP session
//!   and pings over it at a fixed interval while a
//!   [`mobility::MobilityModel`] moves it between gNBs; the session outlives
//!   every handover, which is the continuity property under test: nothing
//!   dropped, nothing answered twice, and every byte the client sees still
//!   carries the cloud address.
//!
//! The C³ testbed is the N = 1 case of the same loop. Everything one of the
//! two never uses — handover, runtime chaos, controller crash, live
//! migration and the queueing control channel on C³; the predictor on the
//! multi-gNB network — is present and inert: its events are never scheduled,
//! so it neither draws randomness nor reorders anything.

mod c3;
mod multi_gnb;

pub use c3::{ClusterKind, TestbedConfig};
pub use multi_gnb::MobilityConfig;

use crate::topology::{C3Topology, MultiGnbTopology, Net, Role};
use containerd::ServiceProfile;
use desim::{Duration, Engine, FastMap, FaultPlan, LogNormal, Sample, SimRng, SimTime};
use edgectl::{
    Controller, EdgeCluster, EdgeService, HandoverPolicy, IngressId, InstanceAddr,
    OutboundMessage, RecoveryMode, RecoveryReport,
};
use mobility::AttachmentEvent;
use netsim::topo::{NodeId, PortNo};
use netsim::{FramePool, Ipv4Addr, ServiceAddr, TcpFlags, TcpFrame, TcpHeaders};
use openflow::FlowEntry;
use ovs::{Effect, Switch};
use telemetry::{MetricsRegistry, Off, SpanLog, Spans};
use workload::RequestTiming;

/// A finished client request.
#[derive(Clone, Debug)]
pub struct CompletedRequest {
    /// The registered service address requested.
    pub service: ServiceAddr,
    /// Client index.
    pub client: usize,
    /// Timing milestones (`time_total` etc.).
    pub timing: RequestTiming,
}

/// One completed handover, as observed by the harness.
#[derive(Clone, Copy, Debug)]
pub struct HandoverRecord {
    /// The client that moved.
    pub client: usize,
    /// gNB left.
    pub from: usize,
    /// gNB joined.
    pub to: usize,
    /// When the attachment change was announced.
    pub at: SimTime,
    /// When the last new-switch flow install went out — `completed_at - at`
    /// is the control-plane interruption.
    pub completed_at: SimTime,
    /// FlowMemory entries migrated.
    pub flows_migrated: usize,
    /// Sessions re-placed through the Global Scheduler.
    pub redispatched: usize,
}

impl HandoverRecord {
    /// Control-plane interruption: announce → last install.
    pub fn interruption(&self) -> Duration {
        self.completed_at.saturating_since(self.at)
    }
}

/// One one-shot request connection, keyed by `(client, source port)`.
struct ConnState {
    service: ServiceAddr,
    client: usize,
    timing: RequestTiming,
    bytes_received: usize,
    expected_bytes: usize,
    request_sent: bool,
}

/// Per-client session state (one long-lived connection each).
struct Session {
    service: ServiceAddr,
    src_port: u16,
    /// When the (latest) SYN went out; cleared once the handshake lands.
    syn_sent: Option<SimTime>,
    /// Reply template captured from the SYN-ACK (client → service).
    template: Option<TcpHeaders>,
    /// Sent-at of the ping currently awaiting its response.
    outstanding: Option<SimTime>,
    /// Response bytes accumulated toward the outstanding ping.
    pending_bytes: usize,
    expected_bytes: usize,
    request_bytes: usize,
    pings_sent: u64,
    pings_done: u64,
    /// Per-ping round-trip times, in completion order.
    rtts: Vec<Duration>,
    /// First ping completed after a controller restart — the session's
    /// recovery instant.
    first_done_after_restart: Option<SimTime>,
}

/// TCP maximum segment size used when chunking request/response payloads
/// (1500 MTU − 20 IPv4 − 20 TCP − a little slack).
const MSS: usize = 1448;

/// The byte every generated request and response payload consists of.
const PAYLOAD_FILL: u8 = 0x42;

/// First ephemeral source port of every client.
const FIRST_SRC_PORT: u16 = 49152;

/// Everything the loop schedules. `sw` indexes the ingress switch (always 0
/// on the C³ testbed).
enum Ev {
    StartRequest { client: usize, service: ServiceAddr },
    StartSession { client: usize },
    Ping { client: usize },
    FrameAt { node: NodeId, in_port: u32, data: Vec<u8> },
    CtrlUp { sw: usize, bytes: Vec<u8> },
    /// A queued switch→controller message finishes its service time and is
    /// actually handled. Only scheduled when `ctrl_service_time` is non-zero.
    CtrlProcess { sw: usize, bytes: Vec<u8> },
    CtrlDown { sw: usize, bytes: Vec<u8> },
    Attach(AttachmentEvent),
    /// The self-re-arming events carry the deadline they were scheduled for
    /// (see [`Deadline`]).
    Tick(SimTime),
    /// A live migration's transfer (and warm start) lands: flip the flows.
    /// Never scheduled unless the controller's migration policy is live.
    MigrationTick(SimTime),
    /// Never scheduled unless a predictor is configured.
    PredictTick,
    SwitchExpiry { sw: usize, at: SimTime },
    /// A server's reply leaves through the port its request came in by.
    ServerSend { node: NodeId, port: PortNo, data: Vec<u8> },
    // Runtime-chaos events; none are scheduled unless the fault plan's
    // runtime rates are non-zero.
    CrashZone { zone: usize },
    OutageBegin { zone: usize, until: SimTime },
    OutageEnd { zone: usize },
    ChannelDown { sw: usize, until: SimTime },
    ChannelUp { sw: usize },
    /// The controller process dies: every control-plane interaction is a
    /// no-op until the restart; switches keep forwarding on installed rules.
    ControllerCrash { restart_at: SimTime },
    /// The controller comes back: crash-restart (warm journal replay or
    /// cold empty start), then reconcile every switch table.
    ControllerRestart,
    HealthTick,
    RetransmitCheck,
}

/// The assembled, runnable testbed on network `T`, recording spans into `S`.
pub struct Harness<T: Net, S: Spans = Off> {
    engine: Engine<Ev>,
    net: T,
    /// `NodeId` → what the node is, for frame dispatch.
    roles: Vec<Role>,
    /// One per ingress.
    switches: Vec<Switch>,
    /// The transparent-edge controller under test (one, managing every
    /// ingress switch).
    pub controller: Controller<S>,
    rng: SimRng,
    /// Server-side request reassembly: bytes received per connection 4-tuple.
    server_rx: FastMap<(Ipv4Addr, u16, Ipv4Addr, u16), usize>,
    tick: Deadline,
    migration: Deadline,
    /// Per switch.
    expiry: Vec<Deadline>,
    listeners: ListenerIndex,
    /// Buffers of the frames the endpoints consumed, for the next encoder.
    frames: FramePool,
    /// What a switch / the controller appends to; the event that fills one empties it again.
    effects: Vec<Effect>,
    outbox: Vec<(IngressId, OutboundMessage)>,
    accept_latency: LogNormal,
    cloud_processing: LogNormal,
    capture: Option<netsim::PcapCapture>,
    faults: FaultPlan,
    /// Current ingress switch per client.
    attachment: Vec<usize>,
    /// Frames dropped by the data plane (must stay 0 across handovers).
    pub drops: u64,
    /// Connections refused (RST) — should stay zero thanks to port polling.
    pub resets: u64,
    /// Frames that reached a client exposing a non-cloud source address —
    /// transparency violations (must stay zero: the redirect must be
    /// invisible to clients, whichever zone answered).
    pub transparency_violations: u64,
    // -- one-shot request connections ---------------------------------------
    conns: FastMap<(usize, u16), ConnState>,
    next_src_port: Vec<u16>,
    /// Completed requests, in completion order.
    pub completed: Vec<CompletedRequest>,
    /// `None`: pure reactive on-demand deployment.
    predictor: Option<Box<dyn edgectl::DeploymentPredictor>>,
    predict_interval: Duration,
    predict_scheduled: bool,
    last_request_at: SimTime,
    observed_records: usize,
    /// Deployments triggered by the predictor rather than a request.
    pub proactive_deployments: u64,
    // -- long-lived pinging sessions ----------------------------------------
    /// The service sessions talk to: the last one registered.
    service: Option<ServiceAddr>,
    /// Indexed by client; empty until [`MobilityTestbed::run`] opens them.
    sessions: Vec<Session>,
    policy: HandoverPolicy,
    ping_interval: Duration,
    /// Stop scheduling new pings after this instant (lets in-flight pings
    /// drain before the run deadline).
    ping_end: SimTime,
    retransmit: Option<Duration>,
    /// Handovers performed, in order.
    pub handovers: Vec<HandoverRecord>,
    /// Responses arriving with no ping outstanding.
    pub double_answered: u64,
    /// Client retransmissions (SYNs and pings).
    pub retransmits: u64,
    // -- the control channel (transparent at defaults) ----------------------
    ctrl_latency: Duration,
    /// While `Some(t)`, switch `sw`'s control channel is down until `t`:
    /// control messages in either direction are dropped, not delayed.
    channel_down_until: Vec<Option<SimTime>>,
    /// While `Some(t)`, the controller is dead until `t`: packet-ins go
    /// unanswered (clients retransmit), ticks and sweeps are skipped, but
    /// switches keep forwarding on the rules already installed.
    ctrl_blackout_until: Option<SimTime>,
    /// Per-message controller service time (see [`MobilityConfig`]).
    ctrl_service_time: Duration,
    /// The controller is busy serving queued messages until this instant.
    ctrl_busy_until: SimTime,
    /// Control messages lost to a down channel.
    pub ctrl_dropped: u64,
    // -- runtime chaos and crash recovery (inert at zero fault rates) -------
    /// Restart mode applied when a controller crash fires.
    recovery: RecoveryMode,
    /// Instance crashes injected.
    pub instance_crashes: u64,
    /// Zone outages injected.
    pub zone_outages: u64,
    /// Control-channel drops injected.
    pub channel_losses: u64,
    /// Controller crashes injected.
    pub controller_crashes: u64,
    /// Duration of the (last) control-plane blackout.
    pub blackout: Duration,
    /// When the controller (last) came back.
    pub restarted_at: Option<SimTime>,
    /// The last restart's recovery report.
    pub recovery_report: Option<RecoveryReport>,
    /// Attachment changes that happened while the controller was down —
    /// the physical move still happens; the controller only learns of it
    /// from post-restart traffic (the unannounced-move path).
    pub missed_handovers: u64,
    /// Flow mods the restart-time reconcile issued — cold restarts tear
    /// down (and later re-install) every surviving rule, warm restarts
    /// find the tables already consistent with the replayed state.
    pub restart_fixes: u64,
}

/// The paper's C³ evaluation testbed: one OVS, one gateway server.
pub type Testbed = Harness<C3Topology>;

/// The multi-gNB testbed: long-lived sessions under user mobility.
pub type MobilityTestbed = Harness<MultiGnbTopology>;

impl<T: Net, S: Spans> Harness<T, S> {
    /// What both constructors share. `switches` and `controller` are the
    /// constructor's own; every subsystem it does not configure afterwards
    /// stays at its inert default.
    fn assemble(
        net: T,
        switches: Vec<Switch>,
        controller: Controller<S>,
        n_clients: usize,
        seed: u64,
    ) -> Self {
        Harness {
            // Pre-size the event arena from the population: each client keeps
            // a handful of in-flight events (frames, ticks, expiries). Grown
            // on demand instead, it made `deploy_churn` 749 B/op, not 517.
            engine: Engine::with_capacity(n_clients * 64 + 1024),
            roles: net.roles(),
            net,
            controller,
            rng: SimRng::new(seed).fork(0xbed),
            server_rx: FastMap::default(),
            tick: Deadline::default(),
            migration: Deadline::default(),
            expiry: vec![Deadline::default(); switches.len()],
            listeners: ListenerIndex::default(),
            frames: FramePool::new(),
            effects: Vec::new(),
            outbox: Vec::new(),
            accept_latency: LogNormal::from_median(0.0001, 0.3),
            cloud_processing: LogNormal::from_median(0.002, 0.3),
            capture: None,
            faults: FaultPlan::default(),
            attachment: vec![0; n_clients],
            drops: 0,
            resets: 0,
            transparency_violations: 0,
            conns: FastMap::default(),
            next_src_port: vec![FIRST_SRC_PORT; n_clients],
            completed: Vec::new(),
            predictor: None,
            predict_interval: Duration::from_millis(500),
            predict_scheduled: false,
            last_request_at: SimTime::ZERO,
            observed_records: 0,
            proactive_deployments: 0,
            service: None,
            sessions: Vec::new(),
            policy: HandoverPolicy::Anchored,
            ping_interval: Duration::from_millis(200),
            ping_end: SimTime::MAX,
            retransmit: None,
            handovers: Vec::new(),
            double_answered: 0,
            retransmits: 0,
            ctrl_latency: Duration::from_micros(200),
            channel_down_until: vec![None; switches.len()],
            ctrl_blackout_until: None,
            ctrl_service_time: Duration::ZERO,
            ctrl_busy_until: SimTime::ZERO,
            ctrl_dropped: 0,
            recovery: RecoveryMode::Warm,
            instance_crashes: 0,
            zone_outages: 0,
            channel_losses: 0,
            controller_crashes: 0,
            blackout: Duration::ZERO,
            restarted_at: None,
            recovery_report: None,
            missed_handovers: 0,
            restart_fixes: 0,
            switches,
        }
    }

    /// Starts capturing every frame that traverses a switch, with the
    /// instant it crossed.
    pub fn enable_capture(&mut self) {
        self.capture = Some(netsim::PcapCapture::new());
    }

    /// The capture recorded so far (if enabled).
    pub fn capture(&self) -> Option<&netsim::PcapCapture> {
        self.capture.as_ref()
    }

    /// The topology (addressing, stats).
    pub fn topology(&self) -> &T {
        &self.net
    }

    /// The ingress switches (fast-path statistics).
    pub fn switches(&self) -> &[Switch] {
        &self.switches
    }

    /// A point-in-time metrics snapshot: the controller's registry plus
    /// gauges folded in from every subsystem counter — each switch's
    /// fast-path statistics, FlowMemory lookup accounting, the event core,
    /// and each cluster's engine operations, layer-cache hit rate, and load;
    /// under runtime chaos, also the breaker states.
    pub fn telemetry_snapshot(&self) -> MetricsRegistry {
        let mut m = self.controller.telemetry.metrics.clone();
        for (i, sw) in self.switches.iter().enumerate() {
            let label = self.net.switch_label(i);
            let mut gauge = |name: &str, v: f64| m.set_gauge(&format!("{label}.{name}"), v);
            gauge("fast_path_packets", sw.fast_path_packets as f64);
            gauge("table_misses", sw.table_misses as f64);
        }
        let fm = self.controller.memory().stats;
        m.set_gauge("flowmemory.lookups", fm.lookups as f64);
        m.set_gauge("flowmemory.hits", fm.hits as f64);
        m.set_gauge("flowmemory.expired", fm.expired as f64);
        m.set_gauge("engine.processed", self.engine.processed() as f64);
        m.set_gauge("engine.peak_pending", self.engine.peak_pending() as f64);
        // Non-zero means some event asked for a past instant and was clamped
        // to `now` — intent silently reordered, worth seeing in every run.
        m.set_gauge("engine.clamped_events", self.engine.clamped_events() as f64);
        for idx in 0..self.controller.cluster_count() {
            let c = self.controller.cluster(idx);
            m.set_gauge(&format!("cluster.{}.load", c.name()), c.load() as f64);
            for (k, v) in c.telemetry_stats() {
                m.set_gauge(&format!("cluster.{}.{k}", c.name()), v);
            }
            if self.faults.runtime_enabled() {
                m.set_gauge(
                    &format!("cluster.{idx}.breaker_state"),
                    self.controller.breaker_state(idx).gauge(),
                );
            }
        }
        m
    }

    /// The recorded span log; `None` when `S` records none.
    pub fn span_log(&self) -> Option<&SpanLog> {
        self.controller.telemetry.span_log()
    }

    /// Registers `profile` as an edge service at `addr` and returns the
    /// created registration. Sessions talk to the service registered last.
    pub fn register_service(&mut self, profile: ServiceProfile, addr: ServiceAddr) -> EdgeService {
        let svc = EdgeService::from_profile(profile, addr);
        self.service = Some(addr);
        self.controller.register_service(svc.clone());
        svc
    }

    /// Runs `phases` — deployment phases ahead of the run — for the service
    /// registered at `addr` on cluster `idx`, at the current instant.
    fn on_cluster<R>(
        &mut self,
        addr: ServiceAddr,
        idx: usize,
        phases: impl FnOnce(&mut dyn EdgeCluster, &EdgeService, SimTime, &mut SimRng) -> R,
    ) -> R {
        let svc = self
            .controller
            .services()
            .get(addr)
            .cloned()
            .expect("service registered");
        let now = self.engine.now();
        phases(self.controller.cluster_mut(idx).as_mut(), &svc, now, &mut self.rng)
    }

    /// Fully deploys `addr` on cluster `idx`: scale-up, after pull and create
    /// where the cluster has not seen the service yet.
    fn pre_deploy(&mut self, addr: ServiceAddr, idx: usize) {
        self.on_cluster(addr, idx, |cluster, svc, now, rng| {
            let t = if cluster.state(svc, now) == edgectl::InstanceState::NotDeployed {
                let t = cluster.pull(svc, now, rng).expect("pre-deploy: pull");
                cluster.create(svc, t, rng).expect("pre-deploy: create")
            } else {
                now
            };
            cluster.scale_up(svc, t, rng).expect("pre-deploy: scale-up");
        });
    }

    /// Schedules a one-shot request of `client` at `at`.
    pub fn request_at(&mut self, at: SimTime, client: usize, service: ServiceAddr) {
        assert!(client < self.attachment.len());
        self.last_request_at = self.last_request_at.max(at);
        self.engine
            .schedule_at(at, Ev::StartRequest { client, service });
        if !self.predict_scheduled && self.predictor.is_some() {
            self.predict_scheduled = true;
            self.engine.schedule_at(at, Ev::PredictTick);
        }
    }

    /// Runs until the event queue drains or `deadline` passes. Returns the
    /// number of events processed. Calling it again with a later deadline
    /// continues the run: after [`MobilityTestbed::run`] no new pings are
    /// sent, so in-flight recovery (channel reconnects, health sweeps, client
    /// retransmits) settles and "permanently stranded" is distinguishable
    /// from "still in flight".
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut n = 0;
        while let Some((now, ev)) = self.engine.pop_until(deadline) {
            self.handle(now, ev);
            n += 1;
        }
        n
    }

    /// Total pings sent across all sessions.
    pub fn pings_sent(&self) -> u64 {
        self.sessions.iter().map(|s| s.pings_sent).sum()
    }

    /// Total pings answered across all sessions.
    pub fn pings_done(&self) -> u64 {
        self.sessions.iter().map(|s| s.pings_done).sum()
    }

    /// Every recorded ping round-trip time, in seconds.
    pub fn rtts_secs(&self) -> Vec<f64> {
        self.sessions
            .iter()
            .flat_map(|s| s.rtts.iter().map(|d| d.as_secs_f64()))
            .collect()
    }

    /// Sessions left permanently stranded: never connected, or still
    /// waiting on a ping answer. Zero after a settled chaos run is the
    /// self-healing acceptance bar.
    pub fn stranded(&self) -> u64 {
        self.sessions
            .iter()
            .filter(|s| s.template.is_none() || s.outstanding.is_some())
            .count() as u64
    }

    /// Per-session recovery time after the (last) controller restart: the
    /// first ping completed after the restart, relative to the restart
    /// instant. Sessions with nothing completed afterwards are excluded
    /// (use [`Self::stranded`] for those). Sessions whose installed flows
    /// carried them straight through score near zero — that is the
    /// data-plane-continuity half of the recovery story.
    pub fn recovery_times_secs(&self) -> Vec<f64> {
        let Some(restart) = self.restarted_at else {
            return Vec::new();
        };
        self.sessions
            .iter()
            .filter_map(|s| s.first_done_after_restart)
            .map(|t| t.saturating_since(restart).as_secs_f64())
            .collect()
    }

    /// Reconciles every switch table against the controller's bookkeeping
    /// *now*, applying the fixes synchronously (no control latency), and
    /// returns the number of fix messages issued. A converged control plane
    /// returns 0; experiments call this twice after a chaos run to prove the
    /// tables diff clean.
    pub fn reconcile_now(&mut self) -> usize {
        let now = self.engine.now();
        let mut fixes = 0;
        for sw in 0..self.switches.len() {
            self.reconcile(sw, now);
            let mut out = std::mem::take(&mut self.outbox);
            fixes += out.len();
            for (_, m) in out.drain(..) {
                if self.switches[sw].handle_controller_into(now, &m.data, &mut self.effects).is_ok() {
                    self.process_switch_effects(sw);
                }
                self.controller.recycle(m.data);
            }
            self.outbox = out;
        }
        fixes
    }

    // -- internal plumbing --------------------------------------------------

    fn send_from(&mut self, node: NodeId, out_port: PortNo, data: Vec<u8>) {
        let topo = self.net.topo();
        let Some((peer, peer_port)) = topo.peer_of(node, out_port) else {
            self.drops += 1;
            return;
        };
        let link = topo.link_at(node, out_port).expect("link exists");
        let delay = link.traversal_time(data.len(), &mut self.rng);
        self.engine.schedule_in(
            delay,
            Ev::FrameAt {
                node: peer,
                in_port: peer_port.0,
                data,
            },
        );
    }

    fn reschedule_tick(&mut self) {
        if let Some(t) = self.tick.arm(self.controller.next_tick_at(), self.engine.now()) {
            self.engine.schedule_at(t, Ev::Tick(t));
        }
    }

    fn reschedule_migration(&mut self) {
        let next = self.controller.next_migration_at();
        if let Some(t) = self.migration.arm(next, self.engine.now()) {
            self.engine.schedule_at(t, Ev::MigrationTick(t));
        }
    }

    fn reschedule_expiry(&mut self, sw: usize) {
        let next = self.switches[sw].next_expiry();
        if let Some(at) = self.expiry[sw].arm(next, self.engine.now()) {
            self.engine.schedule_at(at, Ev::SwitchExpiry { sw, at });
        }
    }

    /// Acts on what switch `sw` just appended to the effect sink and re-arms its expiry.
    fn process_switch_effects(&mut self, sw: usize) {
        let mut effects = std::mem::take(&mut self.effects);
        for e in effects.drain(..) {
            match e {
                Effect::Forward { port, data } => {
                    self.send_from(self.net.switch_node(sw), PortNo(port), data);
                }
                Effect::ToController(bytes) => self.engine.schedule_in(self.ctrl_latency, Ev::CtrlUp { sw, bytes }),
                Effect::Drop => self.drops += 1,
            }
        }
        self.effects = effects;
        self.reschedule_expiry(sw);
    }

    /// Puts a controller message on the channel down to switch `sw`.
    fn send_down(&mut self, sw: usize, m: OutboundMessage) {
        let at = m.at.max(self.engine.now()) + self.ctrl_latency;
        self.engine.schedule_at(at, Ev::CtrlDown { sw, bytes: m.data });
    }

    /// [`Self::send_down`] for each message in the outbox, to the switch it is tagged with.
    fn flush(&mut self) {
        let mut out = std::mem::take(&mut self.outbox);
        for (ingress, m) in out.drain(..) {
            self.send_down(ingress.0 as usize, m);
        }
        self.outbox = out;
    }

    /// Diffs switch `sw`'s table against the controller's bookkeeping and
    /// appends the controller's fixes to the outbox, not yet sent.
    fn reconcile(&mut self, sw: usize, now: SimTime) {
        let flows: Vec<FlowEntry> = self.switches[sw].table().entries().collect();
        self.controller.reconcile(IngressId(sw as u32), &flows, now, &mut self.outbox);
    }

    /// Whether switch `sw`'s control channel is up at `now`.
    fn channel_up(&self, sw: usize, now: SimTime) -> bool {
        self.channel_down_until[sw].is_none_or(|until| now >= until)
    }

    /// Whether the controller process is alive at `now` (not inside a
    /// crash blackout).
    fn controller_up(&self, now: SimTime) -> bool {
        self.ctrl_blackout_until.is_none_or(|until| now >= until)
    }

    /// Hands a switch→controller message to the controller, schedules what
    /// it sends back down and returns the buffer to the switch. Called
    /// straight from `Ev::CtrlUp` when service time is zero, or from
    /// `Ev::CtrlProcess` once its turn in the controller queue comes up.
    fn process_ctrl_up(&mut self, now: SimTime, sw: usize, bytes: Vec<u8>) {
        let (ingress, rng) = (IngressId(sw as u32), &mut self.rng);
        if self.controller.handle_switch_message_into(ingress, now, &bytes, rng, &mut self.outbox).is_err() {
            self.drops += 1;
        }
        self.switches[sw].recycle(bytes);
        self.flush();
        self.reschedule_tick();
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        debug_assert!(self.effects.is_empty() && self.outbox.is_empty(), "a sink was left full");
        match ev {
            Ev::StartRequest { client, service } => {
                let src_port = self.next_request_port(client);
                let conn = ConnState {
                    service,
                    client,
                    timing: RequestTiming::started(now),
                    bytes_received: 0,
                    expected_bytes: self.answer_bytes(service),
                    request_sent: false,
                };
                self.conns.insert((client, src_port), conn);
                self.send_syn(client, src_port, service);
            }
            Ev::StartSession { client } => {
                self.sessions[client].syn_sent = Some(now);
                self.send_session_syn(client);
            }
            Ev::Ping { client } => self.send_ping(now, client),
            Ev::FrameAt { node, in_port, data } => {
                let role = self.roles[node.0 as usize];
                if let Role::Switch(sw) = role {
                    if let Some(cap) = &mut self.capture {
                        cap.record(now, &data);
                    }
                    self.switches[sw].handle_frame_into(now, in_port, data, &mut self.effects);
                    return self.process_switch_effects(sw);
                }
                // An endpoint acts on the verified headers alone: the journey
                // ends here and the buffer starts another.
                match TcpHeaders::parse(&data) {
                    Err(_) => self.drops += 1,
                    Ok(frame) => match role {
                        Role::Client(client) => self.handle_client_frame(now, client, &frame),
                        _ => self.handle_server_frame(now, node, in_port, &frame, role == Role::Cloud),
                    },
                }
                self.frames.recycle(data);
            }
            Ev::CtrlUp { sw, bytes } => {
                if !self.channel_up(sw, now) || !self.controller_up(now) {
                    self.ctrl_dropped += 1;
                    return;
                }
                if self.ctrl_service_time > Duration::ZERO {
                    // The controller is a single queue: this message waits
                    // behind whatever is already being served, then takes
                    // its own service time before the handling runs.
                    let done = self.ctrl_busy_until.max(now) + self.ctrl_service_time;
                    self.ctrl_busy_until = done;
                    self.engine.schedule_at(done, Ev::CtrlProcess { sw, bytes });
                    return;
                }
                self.process_ctrl_up(now, sw, bytes);
            }
            Ev::CtrlProcess { sw, bytes } => {
                // A crash may have landed between arrival and service.
                if !self.controller_up(now) {
                    self.ctrl_dropped += 1;
                    return;
                }
                self.process_ctrl_up(now, sw, bytes);
            }
            Ev::CtrlDown { sw, bytes } => {
                if !self.channel_up(sw, now) {
                    self.ctrl_dropped += 1;
                    return;
                }
                match self.switches[sw].handle_controller_into(now, &bytes, &mut self.effects) {
                    Ok(()) => self.process_switch_effects(sw),
                    Err(_) => self.drops += 1,
                }
                self.controller.recycle(bytes);
            }
            Ev::Attach(ev) => self.handle_attach(now, ev),
            Ev::Tick(at) => {
                if !self.tick.fires(at) || !self.controller_up(now) {
                    return; // stale, or mid-blackout: the restart reschedules it
                }
                self.controller.tick(now, &mut self.rng);
                self.reschedule_tick();
            }
            Ev::MigrationTick(at) => {
                if !self.migration.fires(at) || !self.controller_up(now) {
                    return; // stale, or in-flight migrations are pinned until restart
                }
                self.controller.migration_tick(now, &mut self.rng, &mut self.outbox);
                self.flush();
                self.reschedule_migration();
                // The flip repoints memorized flows; their next expiry moved.
                self.reschedule_tick();
            }
            Ev::PredictTick => {
                let predictor = self.predictor.as_mut().expect("scheduled only with a predictor");
                // Feed new observations to the predictor, then act on its
                // nominations.
                while self.observed_records < self.controller.records.len() {
                    let rec = &self.controller.records[self.observed_records];
                    if rec.kind != edgectl::controller::RequestKind::Unregistered {
                        predictor.observe(rec.service, rec.at);
                    }
                    self.observed_records += 1;
                }
                for addr in predictor.predict(now) {
                    if self
                        .controller
                        .proactive_deploy(addr, now, &mut self.rng)
                        .is_some()
                    {
                        self.proactive_deployments += 1;
                    }
                }
                if now < self.last_request_at {
                    self.engine.schedule_in(self.predict_interval, Ev::PredictTick);
                } else {
                    self.predict_scheduled = false;
                }
            }
            Ev::SwitchExpiry { sw, at } => {
                if self.expiry[sw].fires(at) {
                    self.switches[sw].expire_flows_into(now, &mut self.effects);
                    self.process_switch_effects(sw);
                }
            }
            Ev::ServerSend { node, port, data } => {
                self.send_from(node, port, data);
            }
            Ev::CrashZone { zone } => {
                // Silent death: nothing is announced; the health sweep has
                // to notice and repair.
                if let Some(addr) = self.service {
                    if self.controller.inject_instance_crash(zone, addr, now, &mut self.rng) {
                        self.instance_crashes += 1;
                    }
                }
            }
            Ev::OutageBegin { zone, until } => {
                self.zone_outages += 1;
                self.controller.begin_zone_outage(zone, now, until, &mut self.rng, &mut self.outbox);
                self.flush();
                self.engine.schedule_at(until, Ev::OutageEnd { zone });
            }
            Ev::OutageEnd { zone } => self.controller.end_zone_outage(zone),
            Ev::ChannelDown { sw, until } => {
                self.channel_losses += 1;
                self.channel_down_until[sw] = Some(until);
                self.engine.schedule_at(until, Ev::ChannelUp { sw });
            }
            Ev::ChannelUp { sw } => {
                self.channel_down_until[sw] = None;
                if !self.controller_up(now) {
                    return; // the restart reconciles every switch anyway
                }
                // The switch's table and the controller's bookkeeping both
                // drifted while the channel was down.
                self.reconcile(sw, now);
                self.flush();
            }
            Ev::ControllerCrash { restart_at } => {
                self.controller_crashes += 1;
                self.blackout = restart_at.saturating_since(now);
                self.ctrl_blackout_until = Some(restart_at);
                self.engine.schedule_at(restart_at, Ev::ControllerRestart);
            }
            Ev::ControllerRestart => {
                self.ctrl_blackout_until = None;
                // The old process's queue died with it.
                self.ctrl_busy_until = now;
                let report = self.controller.crash_restart(self.recovery);
                self.recovery_report = Some(report);
                self.restarted_at = Some(now);
                for s in &mut self.sessions {
                    s.first_done_after_restart = None;
                }
                // Replay (or cold start) done — diff every switch table
                // against the recovered bookkeeping and fix the drift. Each
                // fix occupies the controller for one service time, so a
                // cold restart (which tears down every surviving rule)
                // keeps post-restart packet-ins waiting behind the sweep;
                // a warm restart finds the tables consistent and serves
                // them immediately.
                for sw in 0..self.switches.len() {
                    self.reconcile(sw, now);
                    self.restart_fixes += self.outbox.len() as u64;
                    if self.ctrl_service_time > Duration::ZERO {
                        for (_, m) in &mut self.outbox {
                            self.ctrl_busy_until = self.ctrl_busy_until.max(m.at.max(now)) + self.ctrl_service_time;
                            m.at = self.ctrl_busy_until;
                        }
                    }
                    self.flush();
                }
                self.reschedule_tick();
                self.reschedule_migration();
            }
            Ev::HealthTick => {
                // The sweep keeps its cadence through a blackout so detection
                // resumes immediately after the restart.
                if self.controller_up(now) {
                    self.controller.health_check(now, &mut self.outbox);
                    self.flush();
                    // A sweep that tripped a breaker open evacuates the zone:
                    // every service still anchored there live-migrates to the
                    // nearest serving cluster (a no-op unless policy is live).
                    self.controller.migrate_on_breaker_open(now, &mut self.rng);
                    self.reschedule_migration();
                }
                self.engine.schedule_at(now + edgectl::DETECT_INTERVAL, Ev::HealthTick);
            }
            Ev::RetransmitCheck => {
                let rto = self.retransmit.expect("scheduled only with a timer");
                for c in 0..self.sessions.len() {
                    let sess = &mut self.sessions[c];
                    let stale = |sent: SimTime| now.saturating_since(sent) >= rto;
                    if sess.template.is_none() {
                        // Handshake still pending: resend the SYN if stale.
                        if sess.syn_sent.is_some_and(stale) {
                            sess.syn_sent = Some(now);
                            self.retransmits += 1;
                            self.send_session_syn(c);
                        }
                    } else if sess.outstanding.is_some_and(stale) {
                        // Resend the ping's segments; `outstanding` keeps the
                        // original send time so the RTT covers the loss.
                        self.retransmits += 1;
                        self.send_ping_segments(c);
                    }
                }
                self.engine.schedule_at(now + rto, Ev::RetransmitCheck);
            }
        }
    }

    // -- the client side ----------------------------------------------------

    /// Bytes of one answer from `service` as its client counts them: the
    /// profile's response size (500 from the generic cloud web server) —
    /// and at least the one byte even an empty response puts on the wire
    /// (see [`segments`]), or a zero-byte answer could never be told apart
    /// from no answer.
    fn answer_bytes(&self, service: ServiceAddr) -> usize {
        self.profile(service).map_or(500, |p| p.response_bytes).max(1)
    }

    /// Bytes of one request to `service` (120 for an unregistered address).
    fn request_bytes(&self, service: ServiceAddr) -> usize {
        self.profile(service).map_or(120, |p| p.request_bytes)
    }

    /// The profile of the service registered at `service`, if any.
    fn profile(&self, service: ServiceAddr) -> Option<&ServiceProfile> {
        self.controller.services().get(service).map(|s| &s.profile)
    }

    /// Allocates `client`'s next request source port, skipping the one its
    /// session (if any) holds.
    fn next_request_port(&mut self, client: usize) -> u16 {
        let held = self.sessions.get(client).map(|s| s.src_port);
        loop {
            let port = self.next_src_port[client];
            self.next_src_port[client] = port.wrapping_add(1).max(FIRST_SRC_PORT);
            if Some(port) != held {
                return port;
            }
        }
    }

    /// Opens a connection of `client` toward `service` through the switch
    /// the client is attached to.
    fn send_syn(&mut self, client: usize, src_port: u16, service: ServiceAddr) {
        let topo = self.net.topo();
        let node = self.net.client_node(client);
        // Addressed to the perceived cloud gateway.
        let (from, gateway) = (topo.node(node), topo.node(self.net.cloud_node()));
        let syn = TcpFrame::syn(from.mac, gateway.mac, from.ip, src_port, service).headers();
        let uplink = self.net.uplink_port(self.attachment[client], client);
        let data = self.frames.encode_filled(&syn, 0);
        self.send_from(node, uplink, data);
    }

    /// (Re)sends the opening SYN of `client`'s session.
    fn send_session_syn(&mut self, client: usize) {
        let Session { src_port, service, .. } = self.sessions[client];
        self.send_syn(client, src_port, service);
    }

    /// Sends `bytes` of request payload from `client`, segmented at the MSS
    /// and patterned on `template`, through the switch it is attached to.
    fn send_request(&mut self, client: usize, template: TcpHeaders, bytes: usize) {
        let node = self.net.client_node(client);
        let uplink = self.net.uplink_port(self.attachment[client], client);
        for seg in segments(template, bytes) {
            let data = self.frames.encode_filled(&seg, PAYLOAD_FILL);
            self.send_from(node, uplink, data);
        }
    }

    fn send_ping(&mut self, now: SimTime, client: usize) {
        let sess = &mut self.sessions[client];
        if sess.template.is_none() {
            return;
        }
        sess.pings_sent += 1;
        sess.outstanding = Some(now);
        self.send_ping_segments(client);
    }

    /// Puts the segments of `client`'s current ping on the wire.
    fn send_ping_segments(&mut self, client: usize) {
        let Session { template, request_bytes, .. } = self.sessions[client];
        let template = template.expect("pings follow the handshake");
        self.send_request(client, template, request_bytes);
    }

    fn handle_attach(&mut self, now: SimTime, ev: AttachmentEvent) {
        let to = ev.to_cell % self.switches.len();
        let from = self.attachment[ev.client];
        if to == from {
            return; // intra-gNB cell change: nothing to hand over
        }
        self.attachment[ev.client] = to;
        if !self.controller_up(now) {
            // The move happens physically but nobody hears the announcement;
            // post-restart traffic from the new gNB takes the unannounced-
            // move path (flush + re-dispatch).
            self.missed_handovers += 1;
            return;
        }
        let topo = self.net.topo();
        let client = topo.node(self.net.client_node(ev.client));
        let outcome = self.controller.handle_attachment_change_into(
            now,
            client.ip,
            client.mac,
            topo.node(self.net.cloud_node()).mac,
            IngressId(from as u32),
            IngressId(to as u32),
            self.net.client_port(to, ev.client).0,
            self.policy,
            &mut self.rng,
            &mut self.outbox,
        );
        self.handovers.push(HandoverRecord {
            client: ev.client,
            from,
            to,
            at: outcome.at,
            completed_at: outcome.completed_at,
            flows_migrated: outcome.flows_migrated,
            redispatched: outcome.redispatched,
        });
        self.flush();
        // A redispatch may have started an on-demand deployment.
        self.reschedule_tick();
        // The move may have started a mobility-triggered live migration.
        self.reschedule_migration();
    }

    /// A verified frame reached the server at `node`: an edge host, or the cloud.
    fn handle_server_frame(
        &mut self,
        now: SimTime,
        node: NodeId,
        in_port: u32,
        frame: &TcpHeaders,
        is_cloud: bool,
    ) {
        // What serves here? One listener lookup covers the whole frame —
        // both the SYN/response branch and the request-reassembly branch.
        let edge = if is_cloud {
            None
        } else {
            self.listeners
                .lookup(&self.controller, frame.dst_ip, frame.dst_port, now)
        };
        let (processing, request_bytes, response_bytes, listening) = if is_cloud {
            // The real cloud hosts every registered service (and a generic
            // web server for everything else) — the "perceived cloud".
            match self.profile(frame.dst_service()) {
                Some(p) => (p.request_processing, p.request_bytes, p.response_bytes, true),
                None => (self.cloud_processing, 1, 500, true),
            }
        } else {
            match edge {
                Some(l) => (l.processing, l.request_bytes, l.response_bytes, l.ready),
                None => (self.cloud_processing, 1, 0, false),
            }
        };
        // Replies retrace the link they arrived by — with several ingress
        // switches, the one whose flows carried the request rewrites them
        // back.
        let port = PortNo(in_port);
        if frame.flags.contains(TcpFlags::SYN) {
            // Port closed: the OS answers RST (why the controller polls
            // before releasing the client's packet).
            let flags = if listening { TcpFlags::SYN_ACK } else { TcpFlags::RST };
            let delay = self.accept_latency.sample_duration(&mut self.rng);
            let data = self.frames.encode_filled(&frame.reply(flags, 0), 0);
            self.engine
                .schedule_in(delay, Ev::ServerSend { node, port, data });
            return;
        }
        if frame.payload_len != 0 && listening {
            // Reassemble the (possibly segmented) HTTP request; respond once
            // all of it arrived.
            let key = (frame.src_ip, frame.src_port, frame.dst_ip, frame.dst_port);
            let acc = self.server_rx.entry(key).or_insert(0);
            *acc += frame.payload_len;
            if *acc >= request_bytes {
                self.server_rx.remove(&key);
                // An edge instance completed a request: its session state
                // grows by the configured per-request bytes (no-op while
                // migration is off or stateless).
                if let Some(l) = edge {
                    self.controller.note_served(l.service, l.cluster);
                }
                let delay = processing.sample_duration(&mut self.rng);
                let template = frame.reply(TcpFlags::PSH_ACK, 0);
                for seg in segments(template, response_bytes) {
                    let data = self.frames.encode_filled(&seg, PAYLOAD_FILL);
                    self.engine.schedule_in(delay, Ev::ServerSend { node, port, data });
                }
            }
        }
    }

    /// A verified frame reached `client`: for its session, or for one of its
    /// request connections.
    fn handle_client_frame(&mut self, now: SimTime, client: usize, frame: &TcpHeaders) {
        let key = (client, frame.dst_port);
        let is_session = self
            .sessions
            .get(client)
            .is_some_and(|s| s.src_port == frame.dst_port);
        let service = if is_session {
            self.sessions[client].service
        } else if let Some(conn) = self.conns.get(&key) {
            conn.service
        } else {
            return; // stray frame for a finished connection
        };
        // Transparency invariant: everything the client receives must look
        // like it came from the registered cloud address.
        if frame.src_ip != service.ip || frame.src_port != service.port {
            self.transparency_violations += 1;
        }
        if frame.flags.contains(TcpFlags::RST) {
            self.resets += 1;
            // A refused request is over; a session keeps retrying.
            if !is_session {
                self.conns.remove(&key);
            }
            return;
        }
        let syn_ack = frame.flags.contains(TcpFlags::SYN) && frame.flags.contains(TcpFlags::ACK);
        if is_session {
            self.session_frame(now, client, frame, syn_ack);
        } else {
            self.request_frame(now, key, frame, syn_ack);
        }
    }

    /// The one-shot request state machine: SYN-ACK → send the request;
    /// response bytes → complete once all arrived.
    fn request_frame(&mut self, now: SimTime, key: (usize, u16), frame: &TcpHeaders, syn_ack: bool) {
        let Some(conn) = self.conns.get_mut(&key) else {
            return;
        };
        if syn_ack {
            conn.timing.connected = Some(now);
            if !conn.request_sent {
                conn.request_sent = true;
                let service = conn.service;
                // ACK + HTTP request, segmented at the MSS (curl pipelines
                // the ACK with the first data segment).
                let request_bytes = self.request_bytes(service);
                self.send_request(key.0, frame.reply(TcpFlags::PSH_ACK, 0), request_bytes);
            }
            return;
        }
        if frame.payload_len != 0 {
            if conn.timing.first_byte.is_none() {
                conn.timing.first_byte = Some(now);
            }
            conn.bytes_received += frame.payload_len;
            if conn.bytes_received >= conn.expected_bytes {
                conn.timing.complete = Some(now);
                let done = CompletedRequest {
                    service: conn.service,
                    client: conn.client,
                    timing: conn.timing,
                };
                self.completed.push(done);
                self.conns.remove(&key);
            }
        }
    }

    /// The session state machine: SYN-ACK → first ping; response bytes →
    /// the outstanding ping is answered and the next one scheduled.
    fn session_frame(&mut self, now: SimTime, client: usize, frame: &TcpHeaders, syn_ack: bool) {
        let sess = &mut self.sessions[client];
        if syn_ack {
            if sess.template.is_none() {
                sess.syn_sent = None;
                sess.template = Some(frame.reply(TcpFlags::PSH_ACK, 0));
                self.send_ping(now, client);
            }
            return;
        }
        if frame.payload_len != 0 {
            sess.pending_bytes += frame.payload_len;
            while sess.pending_bytes >= sess.expected_bytes {
                sess.pending_bytes -= sess.expected_bytes;
                match sess.outstanding.take() {
                    Some(sent_at) => {
                        sess.pings_done += 1;
                        sess.rtts.push(now.saturating_since(sent_at));
                        if self.restarted_at.is_some() && sess.first_done_after_restart.is_none() {
                            sess.first_done_after_restart = Some(now);
                        }
                        if now + self.ping_interval < self.ping_end {
                            self.engine
                                .schedule_at(now + self.ping_interval, Ev::Ping { client });
                        }
                    }
                    None => self.double_answered += 1,
                }
            }
        }
    }
}

/// Splits `total_bytes` of application payload into MSS-sized TCP segments
/// patterned on `template` (endpoints copied, `PSH|ACK`, sequence numbers
/// advancing) and yields the headers of each, for the sender to encode around
/// [`PAYLOAD_FILL`] bytes. A transfer of zero bytes is one 1-byte segment.
fn segments(template: TcpHeaders, total_bytes: usize) -> impl Iterator<Item = TcpHeaders> {
    let n = total_bytes.div_ceil(MSS).max(1);
    let mut remaining = total_bytes;
    let mut seq = template.seq;
    (0..n).map(move |_| {
        let chunk = remaining.min(MSS);
        let segment = TcpHeaders {
            flags: TcpFlags::PSH_ACK,
            seq,
            payload_len: chunk.max(1),
            ..template
        };
        seq = seq.wrapping_add(segment.payload_len as u32);
        remaining -= chunk;
        segment
    })
}

/// One self-re-arming timer chain (controller tick, flow expiry, ...). The
/// event carries the deadline it was scheduled for; when a nearer deadline
/// supersedes it, the later event stays queued and is recognised as stale
/// when it fires — so a chain never forks into two.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Deadline(Option<SimTime>);

impl Deadline {
    /// The chain wants to fire at `next`. Returns the instant to schedule an
    /// event for (carrying that instant), unless a live event at or before
    /// it is already queued.
    fn arm(&mut self, next: Option<SimTime>, now: SimTime) -> Option<SimTime> {
        let t = next?.max(now);
        if self.0.is_none_or(|s| s > t || s < now) {
            self.0 = Some(t);
            Some(t)
        } else {
            None
        }
    }

    /// `true` if the event scheduled for `at` is the live one (and disarms);
    /// `false` for a superseded event, which the caller drops.
    fn fires(&mut self, at: SimTime) -> bool {
        let live = self.0 == Some(at);
        if live {
            self.0 = None;
        }
        live
    }
}

/// What the server side of a frame needs to know about the instance
/// listening at its destination: `Copy` scalars only, so the per-frame path
/// never clones a `ServiceProfile` (manifest strings and all).
#[derive(Clone, Copy, Debug, PartialEq)]
struct Listener {
    /// The service it is an instance of, and the cluster it runs on.
    service: ServiceAddr,
    cluster: usize,
    processing: LogNormal,
    request_bytes: usize,
    response_bytes: usize,
    ready: bool,
}

/// The (service, cluster) pair whose instance serves at `(ip, port)`, and
/// the replica answering there: the first match in registry × cluster order,
/// found without walking either. Per cluster, the adapter names the service
/// whose instance has that address (`EdgeCluster::service_at`, replica 0)
/// and the load tracker the pools with a replica there
/// (`LoadTracker::pools_at`, each decided by [`replica_at`]).
fn locate<S: Spans>(controller: &Controller<S>, ip: Ipv4Addr, port: u16) -> Option<(&EdgeService, usize, u16)> {
    let services = controller.services();
    let mut best: Option<(&EdgeService, usize, u16)> = None;
    for idx in 0..controller.cluster_count() {
        let based = controller.cluster(idx).service_at(ip, port, services).map(|a| (a, true));
        let pooled = controller.load().pools_at(idx, ip, port).map(|a| (a, false));
        for (addr, known_base) in based.into_iter().chain(pooled) {
            if best.is_some_and(|(svc, _, _)| svc.addr <= addr) {
                continue;
            }
            let Some(svc) = services.get(addr) else { continue };
            let replica = if known_base { Some(0) } else { replica_at(controller, svc, idx, ip, port) };
            if let Some(replica) = replica {
                best = Some((svc, idx, replica));
            }
        }
    }
    best
}

/// Which replica of `svc` on cluster `idx` answers at `(ip, port)`: 0 at the
/// instance's own address, `i` at an address the service's replica pool
/// there derives from it. A replica answers while its base instance does.
fn replica_at<S: Spans>(ctl: &Controller<S>, svc: &EdgeService, idx: usize, ip: Ipv4Addr, port: u16) -> Option<u16> {
    let base = ctl.cluster(idx).instance_addr(svc)?;
    if (base.ip, base.port) == (ip, port) {
        return Some(0);
    }
    u16::try_from(ctl.load().index_of(svc.addr, idx, InstanceAddr { ip, port, ..base })?).ok()
}

fn listener<S: Spans>(controller: &Controller<S>, svc: &EdgeService, idx: usize, now: SimTime) -> Listener {
    let p = &svc.profile;
    Listener {
        service: svc.addr,
        cluster: idx,
        processing: p.request_processing,
        request_bytes: p.request_bytes,
        response_bytes: p.response_bytes,
        ready: controller.cluster(idx).state(svc, now).is_ready(),
    }
}

/// `(ip, port)` → listening instance, remembered between frames. An entry
/// is only trusted while the replica still answers at that address, and
/// every cluster hands out addresses from its own host or pod range, so a
/// valid entry is the scan's answer; anything else is located afresh.
/// One entry per (service, cluster, replica): a replica that comes back at a
/// new address (a new pod) replaces its old entry.
#[derive(Default)]
struct ListenerIndex {
    by_addr: FastMap<(Ipv4Addr, u16), (ServiceAddr, usize, u16)>,
    addr_of: FastMap<(ServiceAddr, usize, u16), (Ipv4Addr, u16)>,
}

impl ListenerIndex {
    /// Which instance (if any) listens at `(ip, port)`, and is it ready at
    /// `now`?
    fn lookup<S: Spans>(&mut self, controller: &Controller<S>, ip: Ipv4Addr, port: u16, now: SimTime) -> Option<Listener> {
        let key = (ip, port);
        if let Some(&(addr, idx, replica)) = self.by_addr.get(&key) {
            if let Some(svc) = controller.services().get(addr) {
                if replica_at(controller, svc, idx, ip, port) == Some(replica) {
                    return Some(listener(controller, svc, idx, now));
                }
            }
            self.by_addr.remove(&key);
            self.addr_of.remove(&(addr, idx, replica));
        }
        let (svc, idx, replica) = locate(controller, ip, port)?;
        if let Some(old) = self.addr_of.insert((svc.addr, idx, replica), key) {
            self.by_addr.remove(&old);
        }
        self.by_addr.insert(key, (svc.addr, idx, replica));
        Some(listener(controller, svc, idx, now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgectl::ControllerConfig;
    use mobility::CellHops;

    fn svc_addr(i: u8) -> ServiceAddr {
        ServiceAddr::new(Ipv4Addr::new(203, 0, 113, i), 80)
    }

    /// The (service, cluster) pair whose instance serves at `(ip, port)`,
    /// and the replica answering there, by walking registry × cluster
    /// order: the oracle [`locate`] answers as.
    fn scan<S: Spans>(controller: &Controller<S>, ip: Ipv4Addr, port: u16) -> Option<(&EdgeService, usize, u16)> {
        controller.services().iter().find_map(|svc| {
            (0..controller.cluster_count())
                .find_map(|idx| Some((svc, idx, replica_at(controller, svc, idx, ip, port)?)))
        })
    }

    /// The answer [`ListenerIndex::lookup`] must give, by scan alone.
    fn scan_listener<S: Spans>(controller: &Controller<S>, ip: Ipv4Addr, port: u16, now: SimTime) -> Option<Listener> {
        scan(controller, ip, port).map(|(svc, idx, _)| listener(controller, svc, idx, now))
    }

    impl ListenerIndex {
        /// Remembered addresses (bounded by services × clusters × replicas).
        fn len(&self) -> usize {
            assert_eq!(self.by_addr.len(), self.addr_of.len());
            self.by_addr.len()
        }
    }

    /// Three gNBs with 20 clients spread over them, driven — like the C³
    /// testbed — by one-shot requests.
    fn three_gnbs(controller: ControllerConfig, seed: u64) -> MobilityTestbed {
        let mut tb = MobilityTestbed::new(MobilityConfig {
            n_gnbs: 3,
            n_clients: 20,
            controller,
            seed,
            ..MobilityConfig::default()
        });
        for c in 0..20 {
            tb.attachment[c] = c % 3;
        }
        tb
    }

    /// Runs to `deadline` like `run_until`, calling `inspect` on the testbed
    /// and each event before it is handled.
    fn run_inspecting<T: Net>(
        tb: &mut Harness<T>,
        deadline: SimTime,
        mut inspect: impl FnMut(&mut Harness<T>, SimTime, &mut Ev),
    ) {
        while let Some((now, mut ev)) = tb.engine.pop_until(deadline) {
            inspect(tb, now, &mut ev);
            tb.handle(now, ev);
        }
    }

    #[test]
    fn an_event_is_forty_bytes() {
        // Every frame, control message and timer of a run is one of these.
        assert_eq!(std::mem::size_of::<Ev>(), 40);
    }

    #[test]
    fn a_nearer_deadline_supersedes_without_forking_the_chain() {
        let t = SimTime::from_secs;
        let mut d = Deadline::default();
        assert_eq!(d.arm(Some(t(10)), t(0)), Some(t(10)));
        assert_eq!(d.arm(Some(t(10)), t(1)), None, "already queued");
        assert_eq!(
            d.arm(Some(t(12)), t(1)),
            None,
            "a later wish waits for the re-arm"
        );
        assert_eq!(d.arm(Some(t(5)), t(2)), Some(t(5)), "nearer: schedule it");
        assert!(d.fires(t(5)));
        // Re-armed for the old instant while the superseded event is still
        // queued: exactly one of the two events at t=10 is live.
        assert_eq!(d.arm(Some(t(10)), t(5)), Some(t(10)));
        assert!(d.fires(t(10)));
        assert_eq!(d.arm(Some(t(20)), t(10)), Some(t(20)));
        assert!(!d.fires(t(10)), "the superseded event is dropped");
        assert!(d.fires(t(20)));
        assert_eq!(d.arm(None, t(20)), None);
    }

    #[test]
    fn segments_never_exceed_the_mss() {
        let template = TcpFrame::syn(
            netsim::MacAddr::from_id(1),
            netsim::MacAddr::from_id(2),
            Ipv4Addr::new(192, 168, 1, 20),
            50000,
            svc_addr(10),
        )
        .headers();
        for total in [0, 1, MSS, MSS + 1, 85_000] {
            let mut seq = template.seq;
            let mut carried = 0;
            let mut count = 0;
            for segment in segments(template, total) {
                let bytes = FramePool::new().encode_filled(&segment, PAYLOAD_FILL);
                let h = TcpHeaders::parse(&bytes).expect("segment verifies");
                assert_eq!(h, segment);
                assert!((1..=MSS).contains(&h.payload_len), "{total}: segment of {}", h.payload_len);
                assert!(h.payload_len <= TcpFrame::MAX_PAYLOAD);
                assert_eq!((h.seq, h.flags), (seq, TcpFlags::PSH_ACK));
                assert_eq!(bytes.len(), h.wire_len());
                assert!(bytes[54..].iter().all(|&b| b == PAYLOAD_FILL));
                seq = seq.wrapping_add(h.payload_len as u32);
                carried += h.payload_len;
                count += 1;
            }
            assert_eq!(count, total.div_ceil(MSS).max(1), "{total} bytes");
            assert_eq!(carried, total.max(1), "{total} bytes");
        }
    }

    /// The frame checks of the switch and of both endpoints are all still
    /// there: a byte flipped anywhere in the IPv4 or TCP part of a frame on
    /// its way to the switch, to a server or to a client gets that frame
    /// dropped by whoever receives it.
    #[test]
    fn corrupted_frames_are_rejected_at_the_switch_and_at_both_endpoints() {
        for target in ["switch", "server", "client"] {
            corrupted_frames_are_rejected(Testbed::new(TestbedConfig::default()), target);
            corrupted_frames_are_rejected(three_gnbs(ControllerConfig::default(), 1), target);
        }
    }

    fn corrupted_frames_are_rejected<T: Net>(mut tb: Harness<T>, target: &str) {
        let addr = svc_addr(10);
        tb.register_service(containerd::ServiceSet::by_key("asm").unwrap(), addr);
        for idx in 0..tb.controller.cluster_count() {
            tb.pre_deploy(addr, idx);
        }
        // The first request goes through untouched and warms the path.
        tb.request_at(SimTime::from_secs(1), 0, addr);
        tb.run_until(SimTime::from_secs(5));
        assert_eq!((tb.completed.len(), tb.drops), (1, 0), "{target}");
        // Then every frame reaching the target loses one byte, each
        // request at another offset of the 40 header bytes.
        for i in 0..40 {
            tb.request_at(SimTime::from_secs(6) + Duration::from_millis(i), 1 + (i as usize % 19), addr);
        }
        let mut corrupted = 0u64;
        run_inspecting(&mut tb, SimTime::from_secs(30), |tb, _, ev| {
            let Ev::FrameAt { node, data, .. } = ev else { return };
            let hit = match tb.roles[node.0 as usize] {
                Role::Switch(_) => target == "switch",
                Role::Edge | Role::Cloud => target == "server",
                Role::Client(_) => target == "client",
            };
            if hit {
                data[14 + (corrupted as usize % 40)] ^= 0x01;
                corrupted += 1;
            }
        });
        // Nothing retransmits, so each request dies with its first
        // frame at the target: its SYN, or the SYN-ACK at the client.
        assert_eq!(corrupted, 40, "{target}");
        assert_eq!(tb.drops, corrupted, "{target}: every corrupted frame dropped");
        assert_eq!(tb.completed.len(), 1, "{target}: no corrupted exchange completed");
    }

    /// A frame refused by an endpoint gives its buffer — damaged bytes and
    /// all — to the pool like any other, and the pool hands the most recent
    /// buffer out first: the next request is encoded into exactly those
    /// buffers and must verify at the switch and at both endpoints.
    #[test]
    fn a_request_encoded_into_the_buffers_of_dropped_frames_completes() {
        let addr = svc_addr(10);
        let mut tb = Testbed::new(TestbedConfig::default());
        tb.register_service(containerd::ServiceSet::by_key("resnet").unwrap(), addr);
        tb.pre_deploy_on(addr, 0);
        tb.request_at(SimTime::from_secs(20), 0, addr);
        tb.run_until(SimTime::from_secs(25));
        assert_eq!((tb.completed.len(), tb.drops), (1, 0));
        // Client 1's upload arrives at the server with every byte past the
        // Ethernet header inverted; client 2's SYN-ACK reaches it likewise.
        tb.request_at(SimTime::from_secs(25), 1, addr);
        tb.request_at(SimTime::from_secs(26), 2, addr);
        let mut seen_handshake = false;
        let mut damaged = 0u64;
        run_inspecting(&mut tb, SimTime::from_secs(30), |tb, now, ev| {
            let Ev::FrameAt { node, data, .. } = ev else { return };
            let hit = match tb.roles[node.0 as usize] {
                Role::Switch(_) => false,
                // Not the SYN: the upload's 59 segments.
                Role::Edge | Role::Cloud => now < SimTime::from_secs(26) && std::mem::replace(&mut seen_handshake, true),
                Role::Client(c) => c == 2,
            };
            if hit {
                data[14..].iter_mut().for_each(|b| *b = !*b);
                damaged += 1;
            }
        });
        assert_eq!(damaged, 59 + 1, "the upload's segments and one SYN-ACK");
        assert_eq!((tb.completed.len(), tb.drops), (1, damaged), "all refused, nothing completed");
        assert!(tb.frames.held() as u64 >= damaged, "refused frames are recycled too");

        tb.request_at(SimTime::from_secs(30), 3, addr);
        tb.run_until(SimTime::from_secs(35));
        assert_eq!((tb.completed.len(), tb.drops, tb.resets), (2, damaged, 0));
        assert_eq!(tb.transparency_violations, 0);
    }

    /// A burst far above the pool's cap — 1.5 MB uploads, a thousand
    /// segments in flight from each client at once, all consumed by one
    /// server — leaves the pool full and no fuller: what does not fit is
    /// freed.
    #[test]
    fn a_burst_of_frames_leaves_the_pool_at_its_cap() {
        let addr = svc_addr(10);
        let mut profile = containerd::ServiceSet::by_key("resnet").unwrap();
        profile.request_bytes = 1_500_000;
        let mut tb = Testbed::new(TestbedConfig::default());
        tb.register_service(profile, addr);
        tb.pre_deploy_on(addr, 0);
        for client in 0..3 {
            tb.request_at(SimTime::from_secs(20), client, addr);
        }
        run_inspecting(&mut tb, SimTime::from_secs(30), |tb, _, _| {
            assert!(tb.frames.held() <= FramePool::CAP);
        });
        assert_eq!((tb.completed.len(), tb.drops, tb.resets), (3, 0, 0));
        let peak = tb.engine.peak_pending();
        assert!(peak > 4 * FramePool::CAP, "{peak} events pending at the peak");
        assert_eq!(tb.frames.held(), FramePool::CAP);
    }

    #[test]
    fn superseded_tick_and_expiry_events_do_not_fork_their_chains() {
        // Cold services idling out within seconds, the `deploy_churn`
        // shape: on this trace a tick deadline moves earlier than the tick
        // already queued (asserted below).
        let controller = ControllerConfig {
            memory_idle: Duration::from_secs(4),
            switch_flow_idle: Duration::from_secs(2),
            ..ControllerConfig::default()
        };
        superseded_events_do_not_fork_their_chains(Testbed::new(TestbedConfig {
            cluster: ClusterKind::K8s,
            controller: controller.clone(),
            seed: 7,
            ..TestbedConfig::default()
        }));
        superseded_events_do_not_fork_their_chains(three_gnbs(controller, 7));
    }

    fn superseded_events_do_not_fork_their_chains<T: Net>(mut tb: Harness<T>) {
        let addrs: Vec<ServiceAddr> = (10..30).map(svc_addr).collect();
        for &a in &addrs {
            tb.register_service(containerd::ServiceSet::by_key("nginx").unwrap(), a);
        }
        let trace = workload::Trace::generate(
            workload::TraceConfig {
                n_services: addrs.len(),
                n_requests: 400,
                min_per_service: 1,
                duration: Duration::from_secs(20),
                n_clients: 20,
                skew: 0.9,
                start_mean_secs: 8.0,
            },
            7,
        );
        for r in &trace.requests {
            tb.request_at(r.at + Duration::from_secs(1), r.client, addrs[r.service]);
        }
        // Per chain (the tick, each switch's expiry): [live, superseded]
        // events and the instant of the last live one.
        let mut chains = vec![([0u32; 2], SimTime::ZERO); 1 + tb.switches.len()];
        run_inspecting(&mut tb, SimTime::from_secs(200), |tb, now, ev| {
            // `chain` is a copy: probing it does not disarm the real one.
            let (mut chain, at, seen) = match *ev {
                Ev::Tick(at) => (tb.tick, at, &mut chains[0]),
                Ev::SwitchExpiry { sw, at } => (tb.expiry[sw], at, &mut chains[1 + sw]),
                _ => return,
            };
            let live = chain.fires(at);
            seen.0[usize::from(!live)] += 1;
            if live {
                // One chain: live events never share an instant. Forked
                // chains fire side by side at every deadline.
                assert!(now > seen.1, "two live events of one chain at {now:?}");
                seen.1 = now;
            }
        });
        assert_eq!(tb.completed.len(), 400, "resets={}", tb.resets);
        let stale: u32 = chains.iter().map(|(n, _)| n[1]).sum();
        assert!(stale > 0, "the run must supersede a queued deadline");
        // A superseded event is popped once and dropped, so there are fewer
        // of them than deadlines; a forked chain doubles the events instead.
        for ([live, stale], _) in chains {
            assert!(stale < live, "{stale} stale vs {live} live events of one chain");
        }
    }

    #[test]
    fn listener_lookup_equals_the_scan_across_a_pod_address_change() {
        let controller = ControllerConfig {
            memory_idle: Duration::from_secs(20),
            ..ControllerConfig::default()
        };
        // Scale-up, idle scale-down, scale-up again: the second pod gets a
        // new IP.
        let tb = Testbed::new(TestbedConfig {
            cluster: ClusterKind::K8s,
            controller: controller.clone(),
            ..TestbedConfig::default()
        });
        listener_lookup_equals_the_scan(tb, 2);
        // Docker zones keep their address across a redeploy; each of the
        // three zones runs its own instance.
        listener_lookup_equals_the_scan(three_gnbs(controller.clone(), 1), 3);
        // With autoscaling on, each zone's pool scales up under the burst,
        // and its second replica answers at an address of its own.
        let autoscaled = ControllerConfig { autoscale: true, ..controller };
        listener_lookup_equals_the_scan(three_gnbs(autoscaled, 1), 3);
    }

    /// Clients 0, 1 and 2 (one per switch, where there are three) request
    /// the service twice, an idle scale-down apart, and in between each
    /// sends a burst that fills its instance's queue across an autoscaler
    /// sweep; `want_addrs` is the number of distinct addresses its instances
    /// serve at over the run. Every instance address is probed with its
    /// replica-1 address beside it, which answers exactly when autoscaling
    /// is on. A second service, first in address order, serves on cluster 0
    /// throughout and takes no request; its address is probed too. Every
    /// probe also asks the resolution a new address goes through.
    fn listener_lookup_equals_the_scan<T: Net>(mut tb: Harness<T>, want_addrs: usize) {
        let addr = svc_addr(10);
        let idle = tb.register_service(containerd::ServiceSet::by_key("nginx").unwrap(), svc_addr(9));
        let svc = tb.register_service(containerd::ServiceSet::by_key("asm").unwrap(), addr);
        tb.pre_deploy(idle.addr, 0);
        let clusters = tb.controller.cluster_count();
        for idx in 0..clusters {
            tb.on_cluster(addr, idx, |cluster, svc, now, rng| {
                cluster.pull(svc, now, rng).expect("pre-pull");
            });
        }
        let idle = tb.controller.cluster(0).instance_addr(&idle).expect("deployed");
        const BURST: usize = 8;
        for client in 0..3 {
            tb.request_at(SimTime::from_secs(1), client, addr);
            for _ in 0..BURST {
                tb.request_at(SimTime::from_millis(5_050), client, addr);
            }
            tb.request_at(SimTime::from_secs(60), client, addr);
        }
        let replicas = if tb.controller.load().enabled() { edgectl::autoscale::MAX_REPLICAS } else { 1 };
        let mut instance_addrs = Vec::new();
        let (mut answered, mut replica_answered) = (0, 0);
        run_inspecting(&mut tb, SimTime::from_secs(120), |tb, now, ev| {
            let Ev::FrameAt { node, data, .. } = ev else { return };
            if !matches!(tb.roles[node.0 as usize], Role::Edge) {
                return;
            }
            for idx in 0..clusters {
                if let Some(a) = tb.controller.cluster(idx).instance_addr(&svc) {
                    if !instance_addrs.contains(&a) {
                        instance_addrs.push(a);
                    }
                }
            }
            // Every frame an edge host sees, at every address an instance
            // ever had and at that instance's replica 1 (131 ports above).
            let frame = TcpFrame::decode(data).unwrap();
            let probes = instance_addrs.iter().flat_map(|a| [(a.ip, a.port, 0), (a.ip, a.port + 131, 1)]);
            let others = [(frame.dst_ip, frame.dst_port, 0), (idle.ip, idle.port, 0)];
            for (ip, port, replica) in probes.chain(others) {
                // The resolution a new address goes through, on every probe.
                let named = |found: Option<(&EdgeService, usize, u16)>| found.map(|(svc, idx, r)| (svc.addr, idx, r));
                assert_eq!(named(locate(&tb.controller, ip, port)), named(scan(&tb.controller, ip, port)));
                let got = tb.listeners.lookup(&tb.controller, ip, port, now);
                assert_eq!(got, scan_listener(&tb.controller, ip, port, now), "{ip:?}:{port} at {now:?}");
                answered += usize::from(got.is_some());
                replica_answered += replica * usize::from(got.is_some());
            }
            assert!(tb.listeners.len() <= clusters * replicas + 1, "one replica, one remembered address");
        });
        assert_eq!(tb.completed.len(), 3 * (2 + BURST));
        assert_eq!(instance_addrs.len(), want_addrs, "{instance_addrs:?}");
        assert!(answered > 0);
        assert_eq!(replica_answered > 0, replicas > 1, "replica 1 answers iff autoscaling is on");
    }

    /// A profile whose response is empty still answers with one byte on the
    /// wire (see [`segments`]); both client kinds count that as the answer.
    #[test]
    fn a_zero_byte_response_completes_a_request_and_a_session() {
        let mut profile = containerd::ServiceSet::by_key("asm").unwrap();
        profile.response_bytes = 0;
        let addr = svc_addr(10);

        let mut tb = Testbed::new(TestbedConfig::default());
        tb.register_service(profile.clone(), addr);
        tb.pre_deploy_on(addr, 0);
        tb.request_at(SimTime::from_secs(1), 0, addr);
        tb.run_until(SimTime::from_secs(10));
        assert_eq!(tb.completed.len(), 1);

        let mut tb = MobilityTestbed::new(MobilityConfig { n_clients: 1, ..MobilityConfig::default() });
        tb.register_service(profile, addr);
        tb.warm_all_zones();
        tb.pre_deploy_on(0);
        tb.run(&mut CellHops::new(vec![0], &[]), SimTime::from_secs(1), SimTime::from_secs(10));
        assert!(tb.pings_done() > 10, "the session pings steadily");
        assert_eq!(tb.pings_sent(), tb.pings_done(), "every ping answered");
        assert_eq!((tb.double_answered, tb.stranded()), (0, 0));
    }

    /// One loop, both client kinds at once: a client's one-shot requests
    /// run beside its pinging session (on another source port), before and
    /// after it hops gNBs.
    #[test]
    fn requests_and_sessions_share_one_loop() {
        let mut tb = MobilityTestbed::new(MobilityConfig { n_clients: 3, ..MobilityConfig::default() });
        let addr = svc_addr(10);
        tb.register_service(containerd::ServiceSet::by_key("asm").unwrap(), addr);
        tb.warm_all_zones();
        tb.pre_deploy_on(0);
        for (secs, client) in [(3, 0), (4, 1), (8, 0)] {
            tb.request_at(SimTime::from_secs(secs), client, addr);
        }
        let mut model = CellHops::new(vec![0, 1, 2], &[(SimTime::from_secs(6), 0, 1)]);
        tb.run(&mut model, SimTime::from_secs(1), SimTime::from_secs(20));
        assert_eq!(tb.handovers.len(), 1);
        assert_eq!(tb.completed.len(), 3, "every request completes");
        assert!(tb.pings_sent() > 50, "sessions ping steadily");
        assert_eq!(tb.pings_sent(), tb.pings_done(), "no ping lost");
        assert_eq!((tb.drops, tb.resets, tb.double_answered), (0, 0, 0));
        assert_eq!(tb.transparency_violations, 0);
    }

    /// The sinks the switches and the controller append to are empty between
    /// any two events, whatever the event ran into: runtime chaos (instance
    /// crashes, zone outages, every control channel lost once), bytes that
    /// are no OpenFlow message arriving on the control channel in both
    /// directions, and well-formed controller messages arriving at a channel
    /// that is down. The first twenty seconds run under `handle`'s own debug
    /// assertion; the second twenty are stepped and checked here.
    #[test]
    fn no_effect_or_message_outlives_its_event_under_chaos() {
        let mut tb = MobilityTestbed::new(MobilityConfig {
            n_gnbs: 3,
            n_clients: 3,
            seed: 2,
            faults: FaultPlan::runtime(1.0, 7),
            retransmit: Some(Duration::from_secs(1)),
            ..MobilityConfig::default()
        });
        tb.register_service(containerd::ServiceSet::by_key("asm").unwrap(), svc_addr(10));
        tb.warm_all_zones();
        tb.pre_deploy_on(0);
        let nonsense = |tb: &mut MobilityTestbed, from_ms: u64, to_ms: u64| {
            for (i, ms) in (from_ms..to_ms).step_by(250).enumerate() {
                let (at, sw, bytes) = (SimTime::from_millis(ms), i % 3, vec![0xff; 5 + i % 7]);
                tb.engine.schedule_at(at, Ev::CtrlUp { sw, bytes: bytes.clone() });
                tb.engine.schedule_at(at, Ev::CtrlDown { sw, bytes });
            }
        };
        nonsense(&mut tb, 1_000, 20_000);
        let mut model = CellHops::new(
            vec![0, 1, 2],
            &[(SimTime::from_secs(6), 0, 1), (SimTime::from_secs(12), 0, 2)],
        );
        tb.run(&mut model, SimTime::from_secs(1), SimTime::from_secs(20));
        assert_eq!((tb.zone_outages, tb.channel_losses), (3, 3));
        assert!(tb.effects.is_empty() && tb.outbox.is_empty());

        // The same again with the sessions pinging on: more nonsense, an
        // instance crash, a zone outage, and each channel lost once more.
        nonsense(&mut tb, 20_000, 40_000);
        tb.ping_end = SimTime::from_secs(38);
        for client in 0..3 {
            tb.engine.schedule_at(SimTime::from_secs(20), Ev::Ping { client });
        }
        tb.engine.schedule_at(SimTime::from_secs(24), Ev::CrashZone { zone: 1 });
        let dark = SimTime::from_secs(30);
        tb.engine.schedule_at(dark, Ev::OutageBegin { zone: 0, until: dark + Duration::from_secs(3) });
        for sw in 0..3 {
            let down = SimTime::from_secs(22 + 5 * sw as u64);
            tb.engine.schedule_at(down, Ev::ChannelDown { sw, until: down + Duration::from_secs(2) });
        }
        let (drops, ctrl_dropped) = (tb.drops, tb.ctrl_dropped);
        let mut between = 0;
        run_inspecting(&mut tb, SimTime::from_secs(40), |tb, now, _| {
            assert!(tb.effects.is_empty(), "{} effect(s) left at {now:?}", tb.effects.len());
            assert!(tb.outbox.is_empty(), "{} message(s) left at {now:?}", tb.outbox.len());
            between += 1;
        });
        assert!(between > 1_000, "{between} events stepped");
        assert!(tb.drops > drops, "undecodable bytes were met and counted");
        assert!(tb.ctrl_dropped > ctrl_dropped, "a down channel dropped control messages");
        assert_eq!(tb.stranded(), 0);
    }
}
