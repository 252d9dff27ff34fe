//! The multi-gNB mobility harness: long-lived sessions under user mobility
//! with transparent flow handover.
//!
//! A [`MobilityTestbed`] assembles a [`MultiGnbTopology`] — N OpenFlow
//! ingress switches (gNBs), each fronting its own near-edge cluster zone,
//! one controller managing them all — and drives long-lived client sessions
//! through it in simulated time. A [`mobility::MobilityModel`] emits timed
//! cell-attachment changes; each change that crosses gNBs triggers the
//! controller's make-before-break handover
//! ([`Controller::handle_attachment_change`]) under the configured
//! [`HandoverPolicy`].
//!
//! Each client opens **one** TCP session to the registered service and then
//! pings it at a fixed interval over that session — the session outlives
//! every handover, which is exactly the continuity property under test. The
//! harness asserts, per ping, that nothing is dropped (every ping answered)
//! or double-answered, and that every byte the client sees still carries the
//! cloud service address (transparency across handovers).

use crate::common::{Deadline, ListenerIndex};
use crate::harness::segments;
use crate::topology::{MultiGnbTopology, Role};
use desim::{Duration, Engine, FastMap, FaultPlan, LogNormal, Sample, SimRng, SimTime};
use openflow::FlowEntry;
use edgectl::{
    annotate_deployment, Controller, ControllerConfig, DockerCluster, EdgeService,
    HandoverPolicy, IngressId, PortMap, RecoveryMode, RecoveryReport,
};
use containerd::ServiceProfile;
use dockersim::DockerEngine;
use mobility::{AttachmentEvent, MobilityModel};
use netsim::topo::{NodeId, PortNo};
use netsim::{Ipv4Addr, ServiceAddr, TcpFlags, TcpFrame, TcpHeaders};
use ovs::{Effect, Switch, SwitchConfig};
use std::collections::HashMap;
use telemetry::{MetricsRegistry, SpanLog, Telemetry};

/// Mobility harness configuration.
#[derive(Clone, Debug)]
pub struct MobilityConfig {
    /// Number of gNB ingress switches (= near-edge zones).
    pub n_gnbs: usize,
    /// Number of moving clients.
    pub n_clients: usize,
    /// Handover policy applied on every attachment change.
    pub policy: HandoverPolicy,
    /// Global Scheduler name (see [`edgectl::scheduler_by_name`]).
    pub scheduler: String,
    /// Controller configuration.
    pub controller: ControllerConfig,
    /// Record per-request span trees.
    pub telemetry: bool,
    /// Interval between pings on each client's session.
    pub ping_interval: Duration,
    /// Simulation seed.
    pub seed: u64,
    /// Fault plan; only the *runtime* faults (`crash_while_serving`,
    /// `zone_outage`, `channel_loss`) are injected by this harness. At the
    /// default all-zero rates the harness schedules nothing and runs are
    /// byte-identical to a fault-free build.
    pub faults: FaultPlan,
    /// Client retransmit timer: a session whose SYN or ping has been
    /// unanswered this long resends it. `None` (the default) disables
    /// retransmission — fine for fault-free runs where nothing is ever
    /// lost, required under runtime chaos where a single lost segment
    /// would otherwise stall its session forever.
    pub retransmit: Option<Duration>,
    /// Restart mode applied when a `controller_crash` fault fires: warm
    /// replays the write-ahead journal, cold starts from empty state and
    /// leans on reconciliation. Ignored unless the plan schedules a crash.
    pub recovery: RecoveryMode,
    /// Per-message controller service time: switch→controller messages
    /// queue behind each other and each occupies the controller this long
    /// before its handling runs. `ZERO` (the default) processes messages
    /// instantly with no extra events — byte-identical to the historical
    /// behaviour. Non-zero makes control-plane congestion client-visible,
    /// which is what separates a warm restart (tables intact, no storm)
    /// from a cold one (a re-dispatch storm serialized through the
    /// controller).
    pub ctrl_service_time: Duration,
}

impl Default for MobilityConfig {
    fn default() -> Self {
        MobilityConfig {
            n_gnbs: 3,
            n_clients: 6,
            policy: HandoverPolicy::Anchored,
            scheduler: "proximity".to_owned(),
            controller: ControllerConfig::default(),
            telemetry: false,
            ping_interval: Duration::from_millis(200),
            seed: 1,
            faults: FaultPlan::default(),
            retransmit: None,
            recovery: RecoveryMode::Warm,
            ctrl_service_time: Duration::ZERO,
        }
    }
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

enum Ev {
    StartSession { client: usize },
    Ping { client: usize },
    FrameAt { node: NodeId, in_port: u32, data: Vec<u8> },
    CtrlUp { gnb: usize, bytes: Vec<u8> },
    /// A queued switch→controller message finishes its service time and is
    /// actually handled. Only scheduled when `ctrl_service_time` is non-zero.
    CtrlProcess { gnb: usize, bytes: Vec<u8> },
    CtrlDown { gnb: usize, bytes: Vec<u8> },
    Attach(AttachmentEvent),
    /// The self-re-arming events carry the deadline they were scheduled for
    /// (see [`Deadline`]).
    Tick(SimTime),
    /// A live migration's transfer (and warm start) lands: flip the flows.
    /// Never scheduled unless the controller's migration policy is live.
    MigrationTick(SimTime),
    SwitchExpiry { gnb: usize, at: SimTime },
    ServerSend { node: NodeId, port: PortNo, data: Vec<u8> },
    // Runtime-chaos events; none are scheduled unless the fault plan's
    // runtime rates are non-zero.
    CrashZone { zone: usize },
    OutageBegin { zone: usize, until: SimTime },
    OutageEnd { zone: usize },
    ChannelDown { gnb: usize, until: SimTime },
    ChannelUp { gnb: usize },
    /// The controller process dies: every control-plane interaction is a
    /// no-op until the restart; switches keep forwarding on installed rules.
    ControllerCrash { restart_at: SimTime },
    /// The controller comes back: crash-restart (warm journal replay or
    /// cold empty start), then reconcile every switch table.
    ControllerRestart,
    HealthTick,
    RetransmitCheck,
}

/// The assembled multi-gNB testbed.
pub struct MobilityTestbed {
    engine: Engine<Ev>,
    net: MultiGnbTopology,
    /// `NodeId` → what the node is, for frame dispatch.
    roles: Vec<Role>,
    switches: Vec<Switch>,
    /// The controller under test (one, managing every gNB).
    pub controller: Controller,
    rng: SimRng,
    policy: HandoverPolicy,
    /// Current gNB per client.
    attachment: Vec<usize>,
    sessions: Vec<Session>,
    profile: Option<ServiceProfile>,
    service: Option<ServiceAddr>,
    server_rx: FastMap<(Ipv4Addr, u16, Ipv4Addr, u16), usize>,
    tick: Deadline,
    migration: Deadline,
    /// Per gNB.
    expiry: Vec<Deadline>,
    listeners: ListenerIndex,
    ctrl_latency: Duration,
    accept_latency: LogNormal,
    ping_interval: Duration,
    /// Stop scheduling new pings after this instant (lets in-flight pings
    /// drain before the run deadline).
    ping_end: SimTime,
    /// Handovers performed, in order.
    pub handovers: Vec<HandoverRecord>,
    /// Frames dropped by the data plane (must stay 0 across handovers).
    pub drops: u64,
    /// RST replies seen by clients.
    pub resets: u64,
    /// Responses arriving with no ping outstanding.
    pub double_answered: u64,
    /// Frames reaching a client with a non-cloud source address.
    pub transparency_violations: u64,
    // -- runtime-chaos state (inert at zero fault rates) --------------------
    faults: FaultPlan,
    retransmit: Option<Duration>,
    /// While `Some(t)`, gNB g's control channel is down until `t`: control
    /// messages in either direction are dropped, not delayed.
    channel_down_until: Vec<Option<SimTime>>,
    /// Instance crashes injected.
    pub instance_crashes: u64,
    /// Zone outages injected.
    pub zone_outages: u64,
    /// Control-channel drops injected.
    pub channel_losses: u64,
    /// Control messages lost to a down channel.
    pub ctrl_dropped: u64,
    /// Client retransmissions (SYNs and pings).
    pub retransmits: u64,
    /// Restart mode applied when a controller crash fires.
    recovery: RecoveryMode,
    /// While `Some(t)`, the controller is dead until `t`: packet-ins go
    /// unanswered (clients retransmit), ticks and sweeps are skipped, but
    /// switches keep forwarding on the rules already installed.
    ctrl_blackout_until: Option<SimTime>,
    /// Controller crashes injected.
    pub controller_crashes: u64,
    /// Duration of the (last) control-plane blackout.
    pub blackout: Duration,
    /// When the controller (last) came back.
    pub restarted_at: Option<SimTime>,
    /// The last restart's recovery report.
    pub recovery_report: Option<RecoveryReport>,
    /// Wall-clock nanoseconds the last restart's state rebuild took (replay
    /// throughput for the HA bench; feeds nothing inside the simulation).
    pub replay_wall_ns: u64,
    /// Attachment changes that happened while the controller was down —
    /// the physical move still happens; the controller only learns of it
    /// from post-restart traffic (the unannounced-move path).
    pub missed_handovers: u64,
    /// Per-message controller service time (see [`MobilityConfig`]).
    ctrl_service_time: Duration,
    /// The controller is busy serving queued messages until this instant.
    ctrl_busy_until: SimTime,
    /// Flow mods the restart-time reconcile issued — cold restarts tear
    /// down (and later re-install) every surviving rule, warm restarts
    /// find the tables already consistent with the replayed state.
    pub restart_fixes: u64,
}

impl MobilityTestbed {
    /// Builds the testbed: topology, one switch per gNB, one Docker zone
    /// cluster per gNB (every gNB can reach every zone), the controller with
    /// per-ingress port maps and distances.
    pub fn new(config: MobilityConfig) -> MobilityTestbed {
        let mut rng = SimRng::new(config.seed);
        let net = MultiGnbTopology::build(config.n_gnbs, config.n_clients);
        let switches: Vec<Switch> = (0..config.n_gnbs)
            .map(|g| {
                Switch::new(SwitchConfig {
                    datapath_id: 0xC300 + g as u64,
                    n_buffers: 1024,
                    miss_send_len: 0xffff,
                    ports: net.gnb_ports(g),
                })
            })
            .collect();
        let scheduler =
            edgectl::scheduler_by_name(&config.scheduler).unwrap_or_else(|e| panic!("{e}"));
        let mut controller = Controller::new(
            scheduler,
            PortMap {
                cluster_ports: HashMap::new(),
                cloud_port: net.cloud_ports[0].0,
            },
            config.controller.clone(),
        );
        if config.telemetry {
            controller.telemetry = Telemetry::recording();
        }
        for g in 1..config.n_gnbs {
            let id = controller.add_ingress(PortMap {
                cluster_ports: HashMap::new(),
                cloud_port: net.cloud_ports[g].0,
            });
            assert_eq!(id, IngressId(g as u32));
        }
        // One Docker zone cluster per gNB; every ingress maps a port to
        // every zone so anchored sessions stay reachable after a move.
        let zone_latency = Duration::from_micros(50);
        let metro = Duration::from_millis(2);
        for z in 0..config.n_gnbs {
            let mac = net.topo.node(net.zones[z]).mac;
            let ip = net.topo.node(net.zones[z]).ip;
            let name = format!("zone-{z}");
            controller.add_cluster(
                Box::new(DockerCluster::new(
                    &name,
                    DockerEngine::with_defaults(),
                    mac,
                    ip,
                    zone_latency,
                )),
                net.zone_ports[0][z].0,
            );
            for g in 0..config.n_gnbs {
                let ingress = IngressId(g as u32);
                controller.map_cluster_port(ingress, &name, net.zone_ports[g][z].0);
                // From gNB g, its own zone is a switch hop away; any other
                // zone sits across the metro aggregation link.
                let d = if g == z { zone_latency } else { metro + zone_latency };
                controller.set_ingress_distance(ingress, z, d);
            }
        }
        let n_clients = config.n_clients;
        MobilityTestbed {
            engine: Engine::new(),
            roles: net.roles(),
            net,
            switches,
            controller,
            rng: rng.fork(0xbed),
            policy: config.policy,
            attachment: vec![0; n_clients],
            sessions: Vec::new(),
            profile: None,
            service: None,
            server_rx: FastMap::default(),
            tick: Deadline::default(),
            migration: Deadline::default(),
            expiry: vec![Deadline::default(); config.n_gnbs],
            listeners: ListenerIndex::default(),
            ctrl_latency: Duration::from_micros(200),
            accept_latency: LogNormal::from_median(0.0001, 0.3),
            ping_interval: config.ping_interval,
            ping_end: SimTime::MAX,
            handovers: Vec::new(),
            drops: 0,
            resets: 0,
            double_answered: 0,
            transparency_violations: 0,
            faults: config.faults,
            retransmit: config.retransmit,
            channel_down_until: vec![None; config.n_gnbs],
            instance_crashes: 0,
            zone_outages: 0,
            channel_losses: 0,
            ctrl_dropped: 0,
            retransmits: 0,
            recovery: config.recovery,
            ctrl_blackout_until: None,
            controller_crashes: 0,
            blackout: Duration::ZERO,
            restarted_at: None,
            recovery_report: None,
            replay_wall_ns: 0,
            missed_handovers: 0,
            ctrl_service_time: config.ctrl_service_time,
            ctrl_busy_until: SimTime::ZERO,
            restart_fixes: 0,
        }
    }

    /// Registers `profile` as the edge service every client sessions to.
    pub fn register_service(&mut self, profile: ServiceProfile, addr: ServiceAddr) -> EdgeService {
        let yaml = format!(
            "spec:\n  template:\n    spec:\n      containers:\n        - name: main\n          image: {}\n          ports:\n            - containerPort: {}\n",
            profile.manifests[0].reference, profile.listen_port
        );
        let annotated = annotate_deployment(&yaml, addr, None).expect("valid generated definition");
        let svc = EdgeService {
            addr,
            name: annotated.service_name.clone(),
            annotated,
            profile: profile.clone(),
        };
        self.controller.register_service(svc.clone());
        self.profile = Some(profile);
        self.service = Some(addr);
        svc
    }

    /// Fully pre-deploys the service on zone `z` (pull + create + scale-up):
    /// mobility experiments start from a warm home zone so handover effects
    /// are not drowned in cold-start noise.
    pub fn pre_deploy_on(&mut self, z: usize) {
        let addr = self.service.expect("service registered");
        let svc = self.controller.services().get(addr).cloned().unwrap();
        let now = self.engine.now();
        let rng = &mut self.rng;
        let cluster = self.controller.cluster_mut(z);
        let t = if cluster.state(&svc, now) == edgectl::InstanceState::NotDeployed {
            let t = cluster.pull(&svc, now, rng).expect("pre-deploy: pull");
            cluster.create(&svc, t, rng).expect("pre-deploy: create")
        } else {
            now
        };
        cluster.scale_up(&svc, t, rng).expect("pre-deploy: scale-up");
    }

    /// Pre-pulls + pre-creates the service on every zone (images cached
    /// everywhere; redispatch pays only the scale-up).
    pub fn warm_all_zones(&mut self) {
        let addr = self.service.expect("service registered");
        let svc = self.controller.services().get(addr).cloned().unwrap();
        let now = self.engine.now();
        for z in 0..self.net.zones.len() {
            let rng = &mut self.rng;
            let cluster = self.controller.cluster_mut(z);
            let t = cluster.pull(&svc, now, rng).expect("warm: pull");
            cluster.create(&svc, t, rng).expect("warm: create");
        }
    }

    /// The topology (addressing, stats).
    pub fn topology(&self) -> &MultiGnbTopology {
        &self.net
    }

    /// The gNB switches.
    pub fn switches(&self) -> &[Switch] {
        &self.switches
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// The recorded span log (telemetry runs only).
    pub fn span_log(&self) -> Option<&SpanLog> {
        self.controller.telemetry.span_log()
    }

    /// Metrics snapshot: controller registry plus per-switch gauges; under
    /// runtime chaos, also the per-zone breaker-state gauges.
    pub fn telemetry_snapshot(&self) -> MetricsRegistry {
        let mut m = self.controller.telemetry.metrics.clone();
        for (g, sw) in self.switches.iter().enumerate() {
            m.set_gauge(&format!("gnb.{g}.fast_path_packets"), sw.fast_path_packets as f64);
            m.set_gauge(&format!("gnb.{g}.table_misses"), sw.table_misses as f64);
        }
        if self.faults.runtime_enabled() {
            for z in 0..self.net.zones.len() {
                m.set_gauge(
                    &format!("cluster.{z}.breaker_state"),
                    self.controller.breaker_state(z).gauge(),
                );
            }
        }
        m
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

    /// Runs the full scenario: seats every client at its model-given initial
    /// cell, starts one session per client at `start`, schedules the model's
    /// attachment changes, and drives the event loop until `deadline`.
    /// New pings stop two seconds before the deadline so in-flight ones
    /// drain. Returns the number of events processed.
    pub fn run(
        &mut self,
        model: &mut dyn MobilityModel,
        start: SimTime,
        deadline: SimTime,
    ) -> u64 {
        let n_clients = self.attachment.len();
        assert_eq!(
            model.n_clients(),
            n_clients,
            "model must cover every client"
        );
        let n_gnbs = self.switches.len();
        let addr = self.service.expect("service registered");
        let profile = self.profile.clone().expect("service registered");
        for c in 0..n_clients {
            self.attachment[c] = model.initial_cell(c) % n_gnbs;
            self.sessions.push(Session {
                service: addr,
                src_port: 49152 + c as u16,
                syn_sent: None,
                template: None,
                outstanding: None,
                pending_bytes: 0,
                expected_bytes: profile.response_bytes,
                request_bytes: profile.request_bytes,
                pings_sent: 0,
                pings_done: 0,
                rtts: Vec::new(),
                first_done_after_restart: None,
            });
            // Stagger session starts so the initial deployment burst is a
            // ramp, not a thundering herd.
            let at = start + Duration::from_millis(50) * c as u64;
            self.engine.schedule_at(at, Ev::StartSession { client: c });
        }
        // Last ping no later than two seconds before the deadline, so
        // whatever is in flight when we stop sending still drains.
        self.ping_end =
            SimTime::ZERO + deadline.saturating_since(SimTime::ZERO + Duration::from_secs(2));
        for ev in model.events(deadline.saturating_since(SimTime::ZERO)) {
            self.engine.schedule_at(ev.at, Ev::Attach(ev));
        }
        self.schedule_runtime_faults(start, deadline);
        let mut n = 0;
        while let Some((now, ev)) = self.engine.pop_until(deadline) {
            self.handle(now, ev);
            n += 1;
        }
        n
    }

    /// Continues the event loop past the run deadline without sending new
    /// pings: in-flight recovery (channel reconnects, health sweeps, client
    /// retransmits) settles, so "permanently stranded" is distinguishable
    /// from "still in flight". Returns the number of events processed.
    pub fn drain(&mut self, until: SimTime) -> u64 {
        let mut n = 0;
        while let Some((now, ev)) = self.engine.pop_until(until) {
            self.handle(now, ev);
            n += 1;
        }
        n
    }

    /// Sessions left permanently stranded: never connected, or still
    /// waiting on a ping answer. Zero after a drained chaos run is the
    /// self-healing acceptance bar.
    pub fn stranded(&self) -> u64 {
        self.sessions
            .iter()
            .filter(|s| s.template.is_none() || s.outstanding.is_some())
            .count() as u64
    }

    /// Draws the run's runtime faults from the plan and schedules them.
    /// With all runtime rates at zero this neither draws randomness nor
    /// schedules anything, so fault-free runs stay byte-identical.
    fn schedule_runtime_faults(&mut self, start: SimTime, deadline: SimTime) {
        if !self.faults.runtime_enabled() {
            return;
        }
        let window = deadline.saturating_since(start);
        let at_pos = |pos: f64| start + window.mul_f64(pos);
        for z in 0..self.net.zones.len() {
            if let Some(pos) = self.faults.injector(100 + z as u64).crashes_while_serving() {
                self.engine.schedule_at(at_pos(pos), Ev::CrashZone { zone: z });
            }
            if let Some((pos, dur)) = self.faults.injector(200 + z as u64).zone_outage() {
                let begin = at_pos(pos);
                self.engine.schedule_at(begin, Ev::OutageBegin { zone: z, until: begin + dur });
            }
        }
        for g in 0..self.switches.len() {
            if let Some((pos, delay)) = self.faults.injector(300 + g as u64).channel_drops() {
                let down = at_pos(pos);
                self.engine.schedule_at(down, Ev::ChannelDown { gnb: g, until: down + delay });
            }
        }
        // One controller process, one crash draw per run.
        if let Some((pos, delay)) = self.faults.injector(400).controller_crashes() {
            let down = at_pos(pos);
            self.engine.schedule_at(down, Ev::ControllerCrash { restart_at: down + delay });
        }
        // The detection loop and the client retransmit timer only run under
        // chaos; without faults they would fire, observe nothing, and change
        // the event interleaving for nothing.
        let detect = self.controller.health_config().detect_interval;
        self.engine.schedule_at(start + detect, Ev::HealthTick);
        if let Some(rto) = self.retransmit {
            self.engine.schedule_at(start + rto, Ev::RetransmitCheck);
        }
    }

    /// Whether gNB `g`'s control channel is up at `now`.
    fn channel_up(&self, gnb: usize, now: SimTime) -> bool {
        self.channel_down_until[gnb].is_none_or(|until| now >= until)
    }

    /// Whether the controller process is alive at `now` (not inside a
    /// crash blackout).
    fn controller_up(&self, now: SimTime) -> bool {
        self.ctrl_blackout_until.is_none_or(|until| now >= until)
    }

    /// Hands a switch→controller message to the controller and schedules
    /// whatever it sends back down. Called straight from `Ev::CtrlUp` when
    /// service time is zero, or from `Ev::CtrlProcess` once the message's
    /// turn in the controller queue comes up.
    fn process_ctrl_up(&mut self, now: SimTime, gnb: usize, bytes: &[u8]) {
        let ingress = IngressId(gnb as u32);
        match self
            .controller
            .handle_switch_message_from(ingress, now, bytes, &mut self.rng)
        {
            Ok(out) => {
                for m in out {
                    let at = m.at.max(now) + self.ctrl_latency;
                    self.engine.schedule_at(at, Ev::CtrlDown { gnb, bytes: m.data });
                }
            }
            Err(_) => self.drops += 1,
        }
        self.reschedule_tick();
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
        for g in 0..self.switches.len() {
            let flows: Vec<FlowEntry> = self.switches[g].table().entries().cloned().collect();
            let out = self.controller.reconcile(IngressId(g as u32), &flows, now);
            fixes += out.len();
            for m in out {
                if let Ok(effects) = self.switches[g].handle_controller(now, &m.data) {
                    self.process_switch_effects(g, effects);
                }
            }
        }
        fixes
    }

    // -- internal plumbing --------------------------------------------------

    fn send_from(&mut self, node: NodeId, out_port: PortNo, data: Vec<u8>) {
        let Some((peer, peer_port)) = self.net.topo.peer_of(node, out_port) else {
            self.drops += 1;
            return;
        };
        let link = self.net.topo.link_at(node, out_port).expect("link exists");
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

    fn reschedule_expiry(&mut self, gnb: usize) {
        let next = self.switches[gnb].next_expiry();
        if let Some(at) = self.expiry[gnb].arm(next, self.engine.now()) {
            self.engine.schedule_at(at, Ev::SwitchExpiry { gnb, at });
        }
    }

    fn process_switch_effects(&mut self, gnb: usize, effects: Vec<Effect>) {
        for e in effects {
            match e {
                Effect::Forward { port, data } => {
                    self.send_from(self.net.gnbs[gnb], PortNo(port), data);
                }
                Effect::ToController(bytes) => {
                    self.engine
                        .schedule_in(self.ctrl_latency, Ev::CtrlUp { gnb, bytes });
                }
                Effect::Drop => self.drops += 1,
            }
        }
        self.reschedule_expiry(gnb);
    }

    fn send_ping(&mut self, now: SimTime, client: usize) {
        let Some(template) = self.sessions[client].template else {
            return;
        };
        let request_bytes = self.sessions[client].request_bytes;
        self.sessions[client].pings_sent += 1;
        self.sessions[client].outstanding = Some(now);
        let node = self.net.clients[client];
        let uplink = self.net.uplink_ports[self.attachment[client]][client];
        for seg in segments(template, request_bytes) {
            self.send_from(node, uplink, seg);
        }
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::StartSession { client } => {
                self.sessions[client].syn_sent = Some(now);
                self.send_syn(client);
            }
            Ev::Ping { client } => self.send_ping(now, client),
            Ev::FrameAt { node, in_port, data } => match self.roles[node.0 as usize] {
                Role::Switch(g) => {
                    let effects = self.switches[g].handle_frame_owned(now, in_port, data);
                    self.process_switch_effects(g, effects);
                }
                Role::Edge(z) => self.handle_server_frame(now, node, Some(z), in_port, &data),
                Role::Cloud => self.handle_server_frame(now, node, None, in_port, &data),
                Role::Client(c) => self.handle_client_frame(now, c, &data),
            },
            Ev::CtrlUp { gnb, bytes } => {
                if !self.channel_up(gnb, now) || !self.controller_up(now) {
                    self.ctrl_dropped += 1;
                    return;
                }
                if self.ctrl_service_time > Duration::ZERO {
                    // The controller is a single queue: this message waits
                    // behind whatever is already being served, then takes
                    // its own service time before the handling runs.
                    let done = self.ctrl_busy_until.max(now) + self.ctrl_service_time;
                    self.ctrl_busy_until = done;
                    self.engine.schedule_at(done, Ev::CtrlProcess { gnb, bytes });
                    return;
                }
                self.process_ctrl_up(now, gnb, &bytes);
            }
            Ev::CtrlProcess { gnb, bytes } => {
                // A crash may have landed between arrival and service.
                if !self.controller_up(now) {
                    self.ctrl_dropped += 1;
                    return;
                }
                self.process_ctrl_up(now, gnb, &bytes);
            }
            Ev::CtrlDown { gnb, bytes } => {
                if !self.channel_up(gnb, now) {
                    self.ctrl_dropped += 1;
                    return;
                }
                match self.switches[gnb].handle_controller(now, &bytes) {
                    Ok(effects) => self.process_switch_effects(gnb, effects),
                    Err(_) => self.drops += 1,
                }
            }
            Ev::Attach(ev) => self.handle_attach(now, ev),
            Ev::Tick(at) => {
                if !self.tick.fires(at) {
                    return;
                }
                if !self.controller_up(now) {
                    return; // rescheduled by the restart
                }
                self.controller.tick(now, &mut self.rng);
                self.reschedule_tick();
            }
            Ev::MigrationTick(at) => {
                if !self.migration.fires(at) {
                    return;
                }
                if !self.controller_up(now) {
                    return; // in-flight migrations are pinned until restart
                }
                for (ingress, m) in self.controller.migration_tick(now, &mut self.rng) {
                    let at = m.at.max(now) + self.ctrl_latency;
                    self.engine.schedule_at(
                        at,
                        Ev::CtrlDown { gnb: ingress.0 as usize, bytes: m.data },
                    );
                }
                self.reschedule_migration();
                // The flip repoints memorized flows; their next expiry moved.
                self.reschedule_tick();
            }
            Ev::SwitchExpiry { gnb, at } => {
                if self.expiry[gnb].fires(at) {
                    let effects = self.switches[gnb].expire_flows(now);
                    self.process_switch_effects(gnb, effects);
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
                let repairs = self.controller.begin_zone_outage(zone, now, until, &mut self.rng);
                for (ingress, m) in repairs {
                    let at = m.at.max(now) + self.ctrl_latency;
                    self.engine.schedule_at(
                        at,
                        Ev::CtrlDown { gnb: ingress.0 as usize, bytes: m.data },
                    );
                }
                self.engine.schedule_at(until, Ev::OutageEnd { zone });
            }
            Ev::OutageEnd { zone } => self.controller.end_zone_outage(zone),
            Ev::ChannelDown { gnb, until } => {
                self.channel_losses += 1;
                self.channel_down_until[gnb] = Some(until);
                self.engine.schedule_at(until, Ev::ChannelUp { gnb });
            }
            Ev::ChannelUp { gnb } => {
                self.channel_down_until[gnb] = None;
                if !self.controller_up(now) {
                    return; // the restart reconciles every switch anyway
                }
                // Reconcile the switch's table against the controller's
                // bookkeeping: both drifted while the channel was down.
                let flows: Vec<FlowEntry> =
                    self.switches[gnb].table().entries().cloned().collect();
                let out = self.controller.reconcile(IngressId(gnb as u32), &flows, now);
                for m in out {
                    let at = m.at.max(now) + self.ctrl_latency;
                    self.engine.schedule_at(at, Ev::CtrlDown { gnb, bytes: m.data });
                }
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
                let wall = std::time::Instant::now();
                let report = self.controller.crash_restart(self.recovery, now);
                self.replay_wall_ns = wall.elapsed().as_nanos() as u64;
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
                for g in 0..self.switches.len() {
                    let flows: Vec<FlowEntry> =
                        self.switches[g].table().entries().cloned().collect();
                    let out = self.controller.reconcile(IngressId(g as u32), &flows, now);
                    self.restart_fixes += out.len() as u64;
                    for m in out {
                        let mut at = m.at.max(now);
                        if self.ctrl_service_time > Duration::ZERO {
                            self.ctrl_busy_until =
                                self.ctrl_busy_until.max(at) + self.ctrl_service_time;
                            at = self.ctrl_busy_until;
                        }
                        self.engine.schedule_at(
                            at + self.ctrl_latency,
                            Ev::CtrlDown { gnb: g, bytes: m.data },
                        );
                    }
                }
                self.reschedule_tick();
                self.reschedule_migration();
            }
            Ev::HealthTick => {
                if !self.controller_up(now) {
                    // The sweep keeps its cadence through the blackout so
                    // detection resumes immediately after the restart.
                    let detect = self.controller.health_config().detect_interval;
                    self.engine.schedule_at(now + detect, Ev::HealthTick);
                    return;
                }
                for (ingress, m) in self.controller.health_check(now) {
                    let at = m.at.max(now) + self.ctrl_latency;
                    self.engine.schedule_at(
                        at,
                        Ev::CtrlDown { gnb: ingress.0 as usize, bytes: m.data },
                    );
                }
                // A sweep that tripped a breaker open evacuates the zone:
                // every service still anchored there live-migrates to the
                // nearest serving cluster (a no-op unless policy is live).
                self.controller.migrate_on_breaker_open(now, &mut self.rng);
                self.reschedule_migration();
                let detect = self.controller.health_config().detect_interval;
                self.engine.schedule_at(now + detect, Ev::HealthTick);
            }
            Ev::RetransmitCheck => {
                let rto = self.retransmit.expect("scheduled only with a timer");
                for c in 0..self.sessions.len() {
                    let sess = &mut self.sessions[c];
                    if sess.template.is_none() {
                        // Handshake still pending: resend the SYN if stale.
                        if let Some(sent) = sess.syn_sent {
                            if now.saturating_since(sent) >= rto {
                                sess.syn_sent = Some(now);
                                self.retransmits += 1;
                                self.send_syn(c);
                            }
                        }
                    } else if let Some(sent) = self.sessions[c].outstanding {
                        if now.saturating_since(sent) >= rto {
                            // Resend the ping's segments; `outstanding`
                            // keeps the original send time so the RTT
                            // covers the loss.
                            self.retransmits += 1;
                            let template = self.sessions[c].template.unwrap();
                            let request_bytes = self.sessions[c].request_bytes;
                            let node = self.net.clients[c];
                            let uplink = self.net.uplink_ports[self.attachment[c]][c];
                            for seg in segments(template, request_bytes) {
                                self.send_from(node, uplink, seg);
                            }
                        }
                    }
                }
                self.engine.schedule_at(now + rto, Ev::RetransmitCheck);
            }
        }
    }

    /// (Re)sends client `c`'s opening SYN through its current gNB.
    fn send_syn(&mut self, client: usize) {
        let node = self.net.clients[client];
        let frame = TcpFrame::syn(
            self.net.topo.node(node).mac,
            self.net.topo.node(self.net.cloud).mac, // perceived gateway
            self.net.topo.node(node).ip,
            self.sessions[client].src_port,
            self.sessions[client].service,
        );
        let uplink = self.net.uplink_ports[self.attachment[client]][client];
        self.send_from(node, uplink, frame.encode());
    }

    fn handle_attach(&mut self, now: SimTime, ev: AttachmentEvent) {
        let n_gnbs = self.switches.len();
        let to = ev.to_cell % n_gnbs;
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
        let client_node = self.net.clients[ev.client];
        let outcome = self.controller.handle_attachment_change(
            now,
            self.net.topo.node(client_node).ip,
            self.net.topo.node(client_node).mac,
            self.net.topo.node(self.net.cloud).mac,
            IngressId(from as u32),
            IngressId(to as u32),
            self.net.client_ports[to][ev.client].0,
            self.policy,
            &mut self.rng,
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
        for (ingress, m) in outcome.messages {
            let at = m.at.max(now) + self.ctrl_latency;
            self.engine.schedule_at(
                at,
                Ev::CtrlDown {
                    gnb: ingress.0 as usize,
                    bytes: m.data,
                },
            );
        }
        // A redispatch may have started an on-demand deployment.
        self.reschedule_tick();
        // The move may have started a mobility-triggered live migration.
        self.reschedule_migration();
    }

    /// A frame reached the server at `node`: zone `zone`, or the cloud.
    fn handle_server_frame(
        &mut self,
        now: SimTime,
        node: NodeId,
        zone: Option<usize>,
        in_port: u32,
        data: &[u8],
    ) {
        let Ok(frame) = TcpHeaders::parse(data) else {
            self.drops += 1;
            return;
        };
        let is_cloud = zone.is_none();
        // One listener lookup covers the whole frame — both the SYN/response
        // branch and the request-reassembly branch.
        let edge = if is_cloud {
            None
        } else {
            self.listeners
                .lookup(&self.controller, frame.dst_ip, frame.dst_port, now)
        };
        let (processing, response_bytes, listening) = if is_cloud {
            // The perceived cloud hosts the registered service too.
            match &self.profile {
                Some(p) if self.service == Some(frame.dst_service()) => {
                    (p.request_processing, p.response_bytes, true)
                }
                _ => (LogNormal::from_median(0.002, 0.3), 500, true),
            }
        } else {
            match edge {
                Some(l) => (l.processing, l.response_bytes, l.ready),
                None => (LogNormal::from_median(0.002, 0.3), 0, false),
            }
        };
        // Replies retrace the ingress they arrived through — the gNB whose
        // flows carried the request rewrites them back.
        let reply_port = PortNo(in_port);
        if frame.flags.contains(TcpFlags::SYN) {
            let reply = if listening {
                frame.reply(TcpFlags::SYN_ACK, 0)
            } else {
                frame.reply(TcpFlags::RST, 0)
            };
            let delay = self.accept_latency.sample_duration(&mut self.rng);
            self.engine.schedule_in(
                delay,
                Ev::ServerSend {
                    node,
                    port: reply_port,
                    data: reply.encode_filled(0),
                },
            );
            return;
        }
        if frame.payload_len != 0 && listening {
            let expected = if is_cloud {
                self.profile.as_ref().map(|p| p.request_bytes).unwrap_or(1)
            } else {
                edge.map(|l| l.request_bytes).unwrap_or(1)
            };
            let key = (frame.src_ip, frame.src_port, frame.dst_ip, frame.dst_port);
            let acc = self.server_rx.entry(key).or_insert(0);
            *acc += frame.payload_len;
            if *acc >= expected {
                self.server_rx.remove(&key);
                // An edge instance completed a request: its session state
                // grows by the configured per-request bytes (no-op while
                // migration is off or stateless).
                if let (Some(addr), Some(z)) = (self.service, zone) {
                    self.controller.note_served(addr, z);
                }
                let delay = processing.sample_duration(&mut self.rng);
                let template = frame.reply(TcpFlags::PSH_ACK, 0);
                for data in segments(template, response_bytes) {
                    self.engine.schedule_in(
                        delay,
                        Ev::ServerSend {
                            node,
                            port: reply_port,
                            data,
                        },
                    );
                }
            }
        }
    }

    fn handle_client_frame(&mut self, now: SimTime, client: usize, data: &[u8]) {
        let Ok(frame) = TcpHeaders::parse(data) else {
            self.drops += 1;
            return;
        };
        let sess = &mut self.sessions[client];
        if frame.dst_port != sess.src_port {
            return; // stray frame
        }
        // Transparency across handovers: every frame the client sees must
        // carry the registered cloud address, whichever zone answered.
        if frame.src_ip != sess.service.ip || frame.src_port != sess.service.port {
            self.transparency_violations += 1;
        }
        if frame.flags.contains(TcpFlags::RST) {
            self.resets += 1;
            return;
        }
        if frame.flags.contains(TcpFlags::SYN) && frame.flags.contains(TcpFlags::ACK) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use mobility::{CellHops, Static};

    fn setup(policy: HandoverPolicy, seed: u64) -> MobilityTestbed {
        let mut tb = MobilityTestbed::new(MobilityConfig {
            policy,
            n_gnbs: 3,
            n_clients: 3,
            seed,
            ..MobilityConfig::default()
        });
        let profile = containerd::ServiceSet::by_key("asm").unwrap();
        tb.register_service(profile, ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80));
        tb.warm_all_zones();
        tb.pre_deploy_on(0);
        tb
    }

    #[test]
    fn static_clients_never_hand_over_and_lose_nothing() {
        let mut tb = setup(HandoverPolicy::Anchored, 1);
        let mut model = Static::round_robin(3, 3);
        tb.run(&mut model, SimTime::from_secs(1), SimTime::from_secs(20));
        assert!(tb.handovers.is_empty());
        assert!(tb.pings_sent() > 50, "sessions ping steadily");
        assert_eq!(tb.pings_sent(), tb.pings_done(), "no ping lost");
        assert_eq!(tb.drops, 0);
        assert_eq!(tb.double_answered, 0);
        assert_eq!(tb.transparency_violations, 0);
    }

    fn hop_run(policy: HandoverPolicy) -> MobilityTestbed {
        let mut tb = setup(policy, 2);
        // Client 0 hops 0 → 1 → 2; the others stay put.
        let mut model = CellHops::new(
            vec![0, 1, 2],
            &[
                (SimTime::from_secs(6), 0, 1),
                (SimTime::from_secs(12), 0, 2),
            ],
        );
        tb.run(&mut model, SimTime::from_secs(1), SimTime::from_secs(20));
        tb
    }

    #[test]
    fn anchored_handover_keeps_every_ping() {
        let tb = hop_run(HandoverPolicy::Anchored);
        assert_eq!(tb.handovers.len(), 2);
        assert_eq!(tb.handovers[0].client, 0);
        assert_eq!((tb.handovers[0].from, tb.handovers[0].to), (0, 1));
        assert!(tb.handovers.iter().all(|h| h.redispatched == 0));
        assert!(tb.handovers.iter().all(|h| h.flows_migrated >= 1));
        assert_eq!(tb.pings_sent(), tb.pings_done(), "session continuity");
        assert_eq!(tb.drops, 0);
        assert_eq!(tb.double_answered, 0);
        assert_eq!(tb.transparency_violations, 0);
        assert_eq!(
            tb.controller.telemetry.metrics.counter("handovers_total"),
            2
        );
    }

    #[test]
    fn redispatch_handover_moves_the_session_to_the_new_zone() {
        let tb = hop_run(HandoverPolicy::Redispatch);
        assert_eq!(tb.handovers.len(), 2);
        assert!(tb.handovers.iter().all(|h| h.redispatched >= 1));
        assert_eq!(tb.pings_sent(), tb.pings_done(), "session continuity");
        assert_eq!(tb.drops, 0);
        assert_eq!(tb.double_answered, 0);
        assert_eq!(tb.transparency_violations, 0);
        // The session ended up served by a cluster other than zone 0.
        let ip = tb.topology().client_ip(0);
        let flows = tb.controller.memory().flows_of_client_at(ip, IngressId(2));
        assert_eq!(flows.len(), 1, "memory keyed to the final ingress");
        assert_ne!(flows[0].1.cluster, 0, "re-placed off the home zone");
    }

    #[test]
    fn anchored_steady_state_is_slower_than_redispatch_after_move() {
        // After moving away, an anchored session crosses the metro link on
        // every ping; a redispatched one is served by the local zone again.
        let anchored = hop_run(HandoverPolicy::Anchored);
        let redispatched = hop_run(HandoverPolicy::Redispatch);
        let tail = |tb: &MobilityTestbed| {
            let r = &tb.sessions[0].rtts;
            let last = &r[r.len().saturating_sub(5)..];
            last.iter().map(|d| d.as_secs_f64()).sum::<f64>() / last.len() as f64
        };
        assert!(
            tail(&anchored) > tail(&redispatched),
            "anchored {:.6}s vs redispatch {:.6}s",
            tail(&anchored),
            tail(&redispatched)
        );
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = hop_run(HandoverPolicy::Anchored);
        let b = hop_run(HandoverPolicy::Anchored);
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    fn fingerprint(tb: &MobilityTestbed) -> (u64, Vec<(u64, u64)>, Vec<f64>) {
        (
            tb.pings_done(),
            tb.handovers
                .iter()
                .map(|h| (h.at.as_nanos(), h.completed_at.as_nanos()))
                .collect::<Vec<_>>(),
            tb.rtts_secs(),
        )
    }

    fn chaos_run(faults: FaultPlan, retransmit: Option<Duration>) -> MobilityTestbed {
        let mut tb = MobilityTestbed::new(MobilityConfig {
            policy: HandoverPolicy::Anchored,
            n_gnbs: 3,
            n_clients: 3,
            seed: 2,
            faults,
            retransmit,
            ..MobilityConfig::default()
        });
        let profile = containerd::ServiceSet::by_key("asm").unwrap();
        tb.register_service(profile, ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80));
        tb.warm_all_zones();
        tb.pre_deploy_on(0);
        let mut model = CellHops::new(
            vec![0, 1, 2],
            &[
                (SimTime::from_secs(6), 0, 1),
                (SimTime::from_secs(12), 0, 2),
            ],
        );
        tb.run(&mut model, SimTime::from_secs(1), SimTime::from_secs(20));
        tb
    }

    /// Satellite 3b at the harness level: a runtime fault plan with every
    /// rate at zero draws no randomness and schedules nothing — the run is
    /// indistinguishable from one with no plan at all.
    #[test]
    fn zero_rate_runtime_plan_is_inert() {
        let plain = hop_run(HandoverPolicy::Anchored);
        let zeroed = chaos_run(FaultPlan::runtime(0.0, 0xDEAD_BEEF), None);
        assert_eq!(fingerprint(&plain), fingerprint(&zeroed));
        assert_eq!(zeroed.instance_crashes, 0);
        assert_eq!(zeroed.zone_outages, 0);
        assert_eq!(zeroed.channel_losses, 0);
        assert_eq!(zeroed.ctrl_dropped, 0);
        assert_eq!(zeroed.retransmits, 0);
        assert_eq!(zeroed.controller_crashes, 0);
        assert!(zeroed.recovery_report.is_none());
    }

    /// Full runtime chaos — crashes, zone outages, channel drops all firing
    /// — and every session still finishes: repairs + breaker + retransmits
    /// mean nothing is permanently stranded, and reconciliation converges.
    #[test]
    fn runtime_chaos_strands_no_session_and_reconciles_clean() {
        let mut tb = chaos_run(FaultPlan::runtime(1.0, 7), Some(Duration::from_secs(1)));
        // At rate 1 every zone outage and every channel loss fires.
        assert_eq!(tb.zone_outages, 3);
        assert_eq!(tb.channel_losses, 3);
        // Let recovery settle well past the last reconnect window.
        tb.drain(SimTime::from_secs(40));
        assert_eq!(tb.stranded(), 0, "no session permanently stranded");
        assert!(tb.pings_done() > 0);
        // Post-run the switch tables diff clean against the bookkeeping:
        // one pass applies any leftover fixes, the second finds none.
        tb.reconcile_now();
        assert_eq!(tb.reconcile_now(), 0, "tables converged to bookkeeping");
    }

    /// Failure during handover must not strand the moving session: crash
    /// the home instance right as its client hops gNBs.
    #[test]
    fn crash_during_handover_does_not_strand_the_flow() {
        let mut tb2 = MobilityTestbed::new(MobilityConfig {
            policy: HandoverPolicy::Anchored,
            n_gnbs: 3,
            n_clients: 3,
            seed: 2,
            retransmit: Some(Duration::from_secs(1)),
            ..MobilityConfig::default()
        });
        let profile = containerd::ServiceSet::by_key("asm").unwrap();
        let addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80);
        tb2.register_service(profile, addr);
        tb2.warm_all_zones();
        tb2.pre_deploy_on(0);
        let mut model = CellHops::new(
            vec![0, 1, 2],
            &[(SimTime::from_secs(6), 0, 1)],
        );
        // Run up to just past the hop, crash the anchor zone's instance
        // exactly then, and keep running with the health loop active.
        tb2.engine.schedule_at(SimTime::from_secs(6), Ev::CrashZone { zone: 0 });
        tb2.engine.schedule_at(
            SimTime::from_secs(1) + tb2.controller.health_config().detect_interval,
            Ev::HealthTick,
        );
        tb2.engine.schedule_at(SimTime::from_secs(2), Ev::RetransmitCheck);
        tb2.run(&mut model, SimTime::from_secs(1), SimTime::from_secs(20));
        tb2.drain(SimTime::from_secs(30));
        assert_eq!(tb2.instance_crashes, 1, "the crash was injected");
        assert_eq!(tb2.stranded(), 0, "the moving session recovered");
        assert_eq!(tb2.transparency_violations, 0);
        tb2.reconcile_now();
        assert_eq!(tb2.reconcile_now(), 0);
    }

    /// Tentpole: the controller process crashes mid-run. Switches keep
    /// forwarding on installed rules through the blackout; on restart the
    /// controller recovers (warm journal replay or cold empty start),
    /// reconciles, and no session is permanently stranded in either mode.
    #[test]
    fn controller_crash_blackout_recovers_and_strands_no_session() {
        for (mode, journal_on) in [(RecoveryMode::Warm, true), (RecoveryMode::Cold, false)] {
            let controller = ControllerConfig {
                journal: edgectl::JournalConfig {
                    enabled: journal_on,
                    snapshot_every: 32,
                },
                ..ControllerConfig::default()
            };
            let mut tb = MobilityTestbed::new(MobilityConfig {
                policy: HandoverPolicy::Anchored,
                n_gnbs: 3,
                n_clients: 3,
                seed: 2,
                controller,
                faults: FaultPlan {
                    controller_crash: 1.0,
                    seed: 11,
                    ..FaultPlan::default()
                },
                retransmit: Some(Duration::from_secs(1)),
                recovery: mode,
                ..MobilityConfig::default()
            });
            let profile = containerd::ServiceSet::by_key("asm").unwrap();
            tb.register_service(profile, ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80));
            tb.warm_all_zones();
            tb.pre_deploy_on(0);
            let mut model = CellHops::new(
                vec![0, 1, 2],
                &[
                    (SimTime::from_secs(6), 0, 1),
                    (SimTime::from_secs(12), 0, 2),
                ],
            );
            tb.run(&mut model, SimTime::from_secs(1), SimTime::from_secs(20));
            tb.drain(SimTime::from_secs(40));
            assert_eq!(tb.controller_crashes, 1, "{mode:?}: the crash fired");
            assert!(tb.blackout > Duration::ZERO, "{mode:?}: a real blackout");
            let report = tb.recovery_report.expect("the controller restarted");
            assert_eq!(report.mode, mode);
            if journal_on {
                assert!(
                    report.replayed_events + report.snapshot_entries > 0,
                    "warm restart recovered state from the journal"
                );
            }
            assert_eq!(tb.stranded(), 0, "{mode:?}: no session permanently stranded");
            assert_eq!(tb.transparency_violations, 0);
            assert!(!tb.recovery_times_secs().is_empty(), "recovery was measured");
            tb.reconcile_now();
            assert_eq!(tb.reconcile_now(), 0, "{mode:?}: tables converged");
        }
    }

    fn live_setup(state_bytes: u64, bandwidth_bps: u64, seed: u64) -> MobilityTestbed {
        let controller = ControllerConfig {
            migration: edgectl::MigrationConfig {
                policy: edgectl::MigrationPolicy::Live,
                state_bytes_per_request: state_bytes,
                transfer_bandwidth_bps: bandwidth_bps,
                ..edgectl::MigrationConfig::default()
            },
            ..ControllerConfig::default()
        };
        let mut tb = MobilityTestbed::new(MobilityConfig {
            policy: HandoverPolicy::Anchored,
            n_gnbs: 3,
            n_clients: 3,
            seed,
            controller,
            ..MobilityConfig::default()
        });
        let profile = containerd::ServiceSet::by_key("asm").unwrap();
        tb.register_service(profile, ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80));
        tb.warm_all_zones();
        tb.pre_deploy_on(0);
        tb
    }

    /// Live migration follows the moving client: the mobility trigger
    /// fires after each hop, session state lands at the nearer zone, and
    /// the session never misses a ping.
    #[test]
    fn live_migration_follows_the_client_and_loses_nothing() {
        let mut tb = live_setup(512, 10_000_000_000, 2);
        let mut model = CellHops::new(
            vec![0, 1, 2],
            &[
                (SimTime::from_secs(6), 0, 1),
                (SimTime::from_secs(12), 0, 2),
            ],
        );
        tb.run(&mut model, SimTime::from_secs(1), SimTime::from_secs(20));
        let records = &tb.controller.migrate().records;
        assert!(!records.is_empty(), "the mobility trigger fired");
        assert!(records
            .iter()
            .all(|r| r.reason == edgectl::MigrationReason::Mobility));
        assert!(records[0].state_bytes > 0, "state accrued before the move");
        assert!(records[0].flows_flipped >= 1);
        // The session ended where the client is, not at the home zone.
        let ip = tb.topology().client_ip(0);
        let flows = tb.controller.memory().flows_of_client_at(ip, IngressId(2));
        assert_eq!(flows.len(), 1);
        assert_ne!(flows[0].1.cluster, 0, "state followed the client");
        // Make-before-break: session continuity is unconditional.
        assert_eq!(tb.pings_sent(), tb.pings_done(), "no ping lost");
        assert_eq!(tb.drops, 0);
        assert_eq!(tb.double_answered, 0);
        assert_eq!(tb.transparency_violations, 0);
        assert!(tb.controller.telemetry.metrics.counter("migrations_total") >= 1);
        assert_eq!(tb.controller.migrate().aborted, 0);
    }

    /// Satellite 3, degenerate case: at state size zero a live migration
    /// is pure flow flipping — the transfer is a bare propagation delay,
    /// zero bytes move, and the continuity guarantees are exactly the
    /// handover's (zero dropped pings).
    #[test]
    fn live_migration_at_state_zero_matches_handover_guarantees() {
        let mut tb = live_setup(0, 10_000_000_000, 2);
        let mut model = CellHops::new(
            vec![0, 1, 2],
            &[
                (SimTime::from_secs(6), 0, 1),
                (SimTime::from_secs(12), 0, 2),
            ],
        );
        tb.run(&mut model, SimTime::from_secs(1), SimTime::from_secs(20));
        let records = &tb.controller.migrate().records;
        assert!(!records.is_empty(), "migrations still run at state zero");
        for r in records {
            assert_eq!(r.state_bytes, 0);
            assert_eq!(
                r.transfer_time(),
                tb.controller.migrate().config().transfer_propagation,
                "zero bytes: the transfer is pure propagation"
            );
        }
        assert_eq!(tb.controller.migrate().ledger().total(), 0);
        assert_eq!(tb.pings_sent(), tb.pings_done(), "zero dropped pings");
        assert_eq!(tb.drops, 0);
        assert_eq!(tb.transparency_violations, 0);
    }

    /// Satellite 1: a crash injected *during* the state transfer must not
    /// leave the migration wedged or the session stranded — the health
    /// sweep aborts the migration first (lifting the pin), then repairs
    /// the dead instance, and the session re-dispatches cleanly.
    #[test]
    fn crash_during_migration_transfer_aborts_and_recovers() {
        // ~25 pings by the 6 s hop at 20 kB each ≈ 500 kB of state; at
        // 1 Mb/s the transfer takes ≈ 4 s, so a crash at 7 s lands mid-
        // transfer with certainty.
        let mut tb = live_setup(20_000, 1_000_000, 2);
        tb.retransmit = Some(Duration::from_secs(1));
        let mut model = CellHops::new(vec![0, 1, 2], &[(SimTime::from_secs(6), 0, 1)]);
        tb.engine.schedule_at(SimTime::from_secs(7), Ev::CrashZone { zone: 0 });
        tb.engine.schedule_at(
            SimTime::from_secs(1) + tb.controller.health_config().detect_interval,
            Ev::HealthTick,
        );
        tb.engine.schedule_at(SimTime::from_secs(2), Ev::RetransmitCheck);
        tb.run(&mut model, SimTime::from_secs(1), SimTime::from_secs(20));
        tb.drain(SimTime::from_secs(30));
        assert_eq!(tb.instance_crashes, 1, "the crash was injected");
        assert!(
            tb.controller.telemetry.metrics.counter("migrations_total") >= 1,
            "a migration was in flight"
        );
        assert!(tb.controller.migrate().aborted >= 1, "it was aborted, not wedged");
        assert!(tb.controller.migrate().active().is_empty(), "the pin lifted");
        assert_eq!(tb.stranded(), 0, "the session recovered via redispatch");
        assert_eq!(tb.transparency_violations, 0);
        tb.reconcile_now();
        assert_eq!(tb.reconcile_now(), 0, "tables converged to bookkeeping");
    }
}
