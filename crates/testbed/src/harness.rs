//! The end-to-end event-driven harness.
//!
//! One [`Testbed`] wires the whole stack together and runs it in simulated
//! time: emulated clients open TCP connections toward registered cloud
//! addresses; frames traverse the OVS data plane byte-for-byte; table misses
//! become OpenFlow `PACKET_IN`s to the transparent-edge controller, which
//! deploys services on demand into the configured cluster; responses flow
//! back through the reverse-rewrite flows; and every request's
//! `timecurl`-style `time_total` is recorded.

use crate::common::{Deadline, ListenerIndex};
use crate::topology::{C3Topology, Role};
use desim::{Duration, Engine, FastMap, FaultPlan, LogNormal, Sample, SimRng, SimTime};
use edgectl::{
    annotate_deployment, Controller, ControllerConfig, DockerCluster, EdgeService,
    K8sEdgeCluster, PortMap,
};
use containerd::ServiceProfile;
use dockersim::DockerEngine;
use k8ssim::K8sCluster;
use netsim::topo::{NodeId, PortNo};
use netsim::{Ipv4Addr, ServiceAddr, TcpFlags, TcpFrame, TcpHeaders};
use ovs::{Effect, Switch, SwitchConfig};
use std::collections::HashMap;
use telemetry::{MetricsRegistry, SpanLog, Telemetry};
use workload::RequestTiming;

/// Which cluster type backs the edge (the paper evaluates both).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClusterKind {
    /// Docker engine (lightweight, sub-second starts).
    Docker,
    /// Kubernetes (automated management, ≈3 s starts).
    K8s,
}

impl ClusterKind {
    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            ClusterKind::Docker => "Docker",
            ClusterKind::K8s => "K8s",
        }
    }
}

/// Harness configuration.
#[derive(Clone, Debug)]
pub struct TestbedConfig {
    /// Number of emulated Raspberry Pi clients.
    pub n_clients: usize,
    /// Edge cluster type.
    pub cluster: ClusterKind,
    /// Global Scheduler name (see [`edgectl::scheduler_by_name`]).
    pub scheduler: String,
    /// Controller configuration.
    pub controller: ControllerConfig,
    /// Use the private in-network registry instead of public ones.
    pub private_registry: bool,
    /// Proactive-deployment predictor name (see
    /// [`edgectl::predictor_by_name`]); `"none"` = pure reactive.
    pub predictor: String,
    /// Add a hierarchical *far edge* Docker cluster on the route to the
    /// cloud (Section IV-A-2).
    pub far_edge: bool,
    /// Fault-injection plan (all rates 0 = faults disabled, byte-identical
    /// behaviour to a build without the fault layer).
    pub faults: FaultPlan,
    /// Record per-request span trees ([`Telemetry::recording`]); disabled
    /// runs keep the no-op tracer and stay byte-identical.
    pub telemetry: bool,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            n_clients: 20,
            cluster: ClusterKind::Docker,
            scheduler: "proximity".to_owned(),
            controller: ControllerConfig::default(),
            private_registry: false,
            predictor: "none".to_owned(),
            far_edge: false,
            faults: FaultPlan::default(),
            telemetry: false,
            seed: 1,
        }
    }
}

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

struct ConnState {
    service: ServiceAddr,
    client: usize,
    timing: RequestTiming,
    bytes_received: usize,
    expected_bytes: usize,
    request_sent: bool,
}

/// TCP maximum segment size used when chunking request/response payloads
/// (1500 MTU − 20 IPv4 − 20 TCP − a little slack).
const MSS: usize = 1448;

enum Ev {
    StartRequest {
        client: usize,
        service: ServiceAddr,
    },
    FrameAt {
        node: NodeId,
        in_port: u32,
        data: Vec<u8>,
    },
    CtrlUp(Vec<u8>),
    CtrlDown(Vec<u8>),
    /// Carries the deadline it was scheduled for (see [`Deadline`]).
    Tick(SimTime),
    PredictTick,
    /// Carries the deadline it was scheduled for.
    SwitchExpiry(SimTime),
    ServerSend {
        node: NodeId,
        data: Vec<u8>,
    },
}

/// The assembled, runnable testbed.
pub struct Testbed {
    engine: Engine<Ev>,
    c3: C3Topology,
    /// `NodeId` → what the node is, for frame dispatch.
    roles: Vec<Role>,
    switch: Switch,
    /// The transparent-edge controller under test.
    pub controller: Controller,
    rng: SimRng,
    profiles: FastMap<ServiceAddr, ServiceProfile>,
    conns: FastMap<(usize, u16), ConnState>,
    /// Server-side request reassembly: bytes received per connection 4-tuple.
    server_rx: FastMap<(Ipv4Addr, u16, Ipv4Addr, u16), usize>,
    next_src_port: Vec<u16>,
    tick: Deadline,
    expiry: Deadline,
    listeners: ListenerIndex,
    predictor: Box<dyn edgectl::DeploymentPredictor>,
    predict_interval: Duration,
    predict_scheduled: bool,
    last_request_at: SimTime,
    observed_records: usize,
    ctrl_latency: Duration,
    accept_latency: LogNormal,
    cloud_processing: LogNormal,
    /// Completed requests, in completion order.
    pub completed: Vec<CompletedRequest>,
    /// Connections refused (RST) — should stay zero thanks to port polling.
    pub resets: u64,
    /// Frames dropped by the data plane.
    pub drops: u64,
    /// Frames that reached a client exposing a non-cloud source address —
    /// transparency violations (must stay zero: the redirect must be
    /// invisible to clients).
    pub transparency_violations: u64,
    /// Deployments triggered by the predictor rather than a request.
    pub proactive_deployments: u64,
    capture: Option<netsim::PcapCapture>,
    faults: FaultPlan,
}

impl TestbedConfig {
    /// Maps a parsed controller configuration file ([`edgectl::EdgeConfig`])
    /// to a testbed configuration. The first declared cluster decides the
    /// primary cluster kind (default Docker); a declared second cluster of
    /// the other kind is reported back so callers can add it (hybrid setup).
    pub fn from_edge_config(cfg: &edgectl::EdgeConfig, seed: u64) -> (TestbedConfig, bool) {
        let primary = cfg
            .clusters
            .first()
            .map(|c| {
                if c.kind == "k8s" {
                    ClusterKind::K8s
                } else {
                    ClusterKind::Docker
                }
            })
            .unwrap_or(ClusterKind::Docker);
        let wants_hybrid = cfg.clusters.len() > 1
            && primary == ClusterKind::Docker
            && cfg.clusters[1].kind == "k8s";
        (
            TestbedConfig {
                cluster: primary,
                scheduler: cfg.scheduler.clone(),
                predictor: cfg.predictor.clone(),
                controller: cfg.controller.clone(),
                faults: cfg.faults.clone(),
                seed,
                ..TestbedConfig::default()
            },
            wants_hybrid,
        )
    }
}

impl Testbed {
    /// Builds a testbed straight from a controller configuration file.
    pub fn from_edge_config(cfg: &edgectl::EdgeConfig, seed: u64) -> Testbed {
        let (tc, hybrid) = TestbedConfig::from_edge_config(cfg, seed);
        let mut tb = Testbed::new(tc);
        if hybrid {
            tb.add_hybrid_k8s();
        }
        tb
    }

    /// Builds a testbed per `config`.
    pub fn new(config: TestbedConfig) -> Testbed {
        let mut rng = SimRng::new(config.seed);
        let c3 = C3Topology::build_with_far_edge(config.n_clients, config.far_edge);
        let switch = Switch::new(SwitchConfig {
            datapath_id: 0xC3,
            n_buffers: 1024,
            miss_send_len: 0xffff,
            ports: c3.ovs_ports(),
        });
        let scheduler =
            edgectl::scheduler_by_name(&config.scheduler).unwrap_or_else(|e| panic!("{e}"));
        let mut controller = Controller::new(
            scheduler,
            PortMap {
                cluster_ports: HashMap::new(),
                cloud_port: c3.cloud_port.0,
            },
            config.controller.clone(),
        );
        if config.telemetry {
            controller.telemetry = Telemetry::recording();
        }
        let egs_mac = c3.topo.node(c3.egs).mac;
        let egs_ip = c3.topo.node(c3.egs).ip;
        let edge_latency = Duration::from_micros(50);
        let store = if config.private_registry {
            containerd::ContentStore::with_mirror(registry::RegistryProfile::private_local())
        } else {
            containerd::ContentStore::new()
        };
        let mut node = containerd::ContainerdNode::new(store, containerd::RuntimeTimings::default());
        // Fault injectors get one label per site so their draw streams stay
        // independent; with all rates at zero nothing is wired at all,
        // keeping fault-free runs byte-identical.
        let chaos = config.faults.enabled();
        match config.cluster {
            ClusterKind::Docker => {
                if chaos {
                    node.store_mut().set_faults(config.faults.injector(0));
                    node.set_faults(config.faults.injector(1));
                }
                let engine = DockerEngine::new(node, dockersim::EngineTimings::default());
                controller.add_cluster(
                    Box::new(DockerCluster::new(
                        "egs-docker",
                        engine,
                        egs_mac,
                        egs_ip,
                        edge_latency,
                    )),
                    c3.egs_port.0,
                );
            }
            ClusterKind::K8s => {
                // Kubernetes faults (scale-up rejection, probe flaps) live on
                // the cluster; its worker containerd nodes stay fault-free.
                let mut cluster = K8sCluster::new(node, k8ssim::K8sTimings::default(), 110);
                if chaos {
                    cluster.set_faults(config.faults.injector(2));
                }
                controller.add_cluster(
                    Box::new(K8sEdgeCluster::new(
                        "egs-k8s",
                        cluster,
                        egs_mac,
                        edge_latency,
                        None,
                    )),
                    c3.egs_port.0,
                );
            }
        }
        if let Some((far_node, far_port)) = c3.far_edge {
            let far_mac = c3.topo.node(far_node).mac;
            let far_ip = c3.topo.node(far_node).ip;
            let mut engine = DockerEngine::with_defaults();
            if chaos {
                engine.node_mut().store_mut().set_faults(config.faults.injector(5));
                engine.node_mut().set_faults(config.faults.injector(3));
            }
            controller.add_cluster(
                Box::new(DockerCluster::new(
                    "far-edge",
                    engine,
                    far_mac,
                    far_ip,
                    Duration::from_millis(2),
                )),
                far_port.0,
            );
        }
        let n_clients = config.n_clients;
        Testbed {
            // Pre-size the event core from the population: each client keeps
            // a handful of in-flight events (frames, ticks, expiries), so
            // steady-state runs never re-grow event storage mid-simulation.
            engine: Engine::with_capacity(n_clients * 64 + 1024),
            roles: c3.roles(),
            c3,
            switch,
            controller,
            rng: rng.fork(0xbed),
            profiles: FastMap::default(),
            conns: FastMap::default(),
            server_rx: FastMap::default(),
            next_src_port: vec![49152; n_clients],
            tick: Deadline::default(),
            expiry: Deadline::default(),
            listeners: ListenerIndex::default(),
            predictor: edgectl::predictor_by_name(&config.predictor)
                .unwrap_or_else(|e| panic!("{e}")),
            predict_interval: Duration::from_millis(500),
            predict_scheduled: false,
            last_request_at: SimTime::ZERO,
            ctrl_latency: Duration::from_micros(200),
            accept_latency: LogNormal::from_median(0.0001, 0.3),
            cloud_processing: LogNormal::from_median(0.002, 0.3),
            observed_records: 0,
            completed: Vec::new(),
            resets: 0,
            drops: 0,
            transparency_violations: 0,
            proactive_deployments: 0,
            capture: None,
            faults: config.faults,
        }
    }

    /// Adds a *second* edge cluster of the other kind on the same gateway —
    /// the Section VII hybrid setup (Docker answers first, Kubernetes takes
    /// over). The added cluster gets a marginally smaller distance so the
    /// nearest-ready rule hands steady-state traffic to it.
    pub fn add_hybrid_k8s(&mut self) {
        let egs_mac = self.c3.topo.node(self.c3.egs).mac;
        let mut cluster = K8sCluster::with_defaults();
        if self.faults.enabled() {
            cluster.set_faults(self.faults.injector(4));
        }
        self.controller.add_cluster(
            Box::new(K8sEdgeCluster::new(
                "egs-k8s",
                cluster,
                egs_mac,
                Duration::from_micros(45),
                None,
            )),
            self.c3.egs_port.0,
        );
    }

    /// Fully pre-deploys a service on cluster `idx` (pull + create +
    /// scale-up): the "already running in a farther edge" setup of Fig. 3.
    pub fn pre_deploy_on(&mut self, addr: ServiceAddr, idx: usize) {
        let svc = self
            .controller
            .services()
            .get(addr)
            .cloned()
            .expect("service registered");
        let now = self.engine.now();
        let rng = &mut self.rng;
        let cluster = self.controller.cluster_mut(idx);
        let t = cluster.pull(&svc, now, rng).expect("pre-deploy: pull");
        let t = cluster.create(&svc, t, rng).expect("pre-deploy: create");
        cluster
            .scale_up(&svc, t, rng)
            .expect("pre-deploy: scale-up");
    }

    /// Pre-pulls a service's images on cluster `idx` (hybrid setups).
    pub fn pre_pull_on(&mut self, addr: ServiceAddr, idx: usize) {
        let svc = self
            .controller
            .services()
            .get(addr)
            .cloned()
            .expect("service registered");
        let now = self.engine.now();
        self.controller
            .cluster_mut(idx)
            .pull(&svc, now, &mut self.rng)
            .expect("pre-pull");
    }

    /// Starts capturing every frame that traverses the OVS into a pcap
    /// recording (inspect runs with Wireshark/tcpdump).
    pub fn enable_capture(&mut self) {
        self.capture = Some(netsim::PcapCapture::new());
    }

    /// The capture recorded so far (if enabled).
    pub fn capture(&self) -> Option<&netsim::PcapCapture> {
        self.capture.as_ref()
    }

    /// The topology (addressing, stats).
    pub fn topology(&self) -> &C3Topology {
        &self.c3
    }

    /// The OVS switch (fast-path statistics).
    pub fn switch(&self) -> &Switch {
        &self.switch
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// A point-in-time metrics snapshot: the controller's registry plus
    /// gauges folded in from every subsystem counter — switch fast-path
    /// and microflow statistics, FlowMemory lookup accounting, and each
    /// cluster's engine operations, layer-cache hit rate, and load.
    pub fn telemetry_snapshot(&self) -> MetricsRegistry {
        let mut m = self.controller.telemetry.metrics.clone();
        let sw = &self.switch;
        m.set_gauge("switch.fast_path_packets", sw.fast_path_packets as f64);
        m.set_gauge("switch.table_misses", sw.table_misses as f64);
        m.set_gauge("switch.microflow_hits", sw.microflow_hits as f64);
        m.set_gauge("switch.microflow_misses", sw.microflow_misses as f64);
        let probes = sw.microflow_hits + sw.microflow_misses;
        if probes > 0 {
            m.set_gauge(
                "switch.microflow_hit_rate",
                sw.microflow_hits as f64 / probes as f64,
            );
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
        }
        m
    }

    /// The recorded span log when the testbed was built with
    /// `telemetry: true`; `None` on disabled runs.
    pub fn span_log(&self) -> Option<&SpanLog> {
        self.controller.telemetry.span_log()
    }

    /// Registers `profile` as an edge service at `addr` and returns the
    /// created registration.
    pub fn register_service(&mut self, profile: ServiceProfile, addr: ServiceAddr) -> EdgeService {
        let containers: String = profile
            .manifests
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let ports = if i == 0 {
                    format!(
                        "\n          ports:\n            - containerPort: {}",
                        profile.listen_port
                    )
                } else {
                    String::new()
                };
                format!("        - name: c{i}\n          image: {}{}\n", m.reference, ports)
            })
            .collect();
        let yaml = format!("spec:\n  template:\n    spec:\n      containers:\n{containers}");
        let annotated = annotate_deployment(&yaml, addr, None).expect("valid generated definition");
        let svc = EdgeService {
            addr,
            name: annotated.service_name.clone(),
            annotated,
            profile: profile.clone(),
        };
        self.profiles.insert(addr, profile);
        self.controller.register_service(svc.clone());
        svc
    }

    /// Pre-pulls a service's images onto the edge cluster (experiment
    /// setup for the cached-image scenarios).
    pub fn pre_pull(&mut self, addr: ServiceAddr) {
        let svc = self
            .controller
            .services()
            .get(addr)
            .cloned()
            .expect("service registered");
        let now = self.engine.now();
        self.controller
            .cluster_mut(0)
            .pull(&svc, now, &mut self.rng)
            .expect("pre-pull");
    }

    /// Pre-creates a service (Create phase done ahead of time; scale-up
    /// remains on demand) — the Fig. 11 scenario.
    pub fn pre_create(&mut self, addr: ServiceAddr) {
        let svc = self
            .controller
            .services()
            .get(addr)
            .cloned()
            .expect("service registered");
        let now = self.engine.now();
        self.controller
            .cluster_mut(0)
            .create(&svc, now, &mut self.rng)
            .expect("pre-create");
    }

    /// Schedules a client request at `at`.
    pub fn request_at(&mut self, at: SimTime, client: usize, service: ServiceAddr) {
        assert!(client < self.c3.clients.len());
        self.last_request_at = self.last_request_at.max(at);
        self.engine
            .schedule_at(at, Ev::StartRequest { client, service });
        if !self.predict_scheduled && self.predictor.name() != "none" {
            self.predict_scheduled = true;
            self.engine.schedule_at(at, Ev::PredictTick);
        }
    }

    /// Runs until the event queue drains or `deadline` passes. Returns the
    /// number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut n = 0;
        while let Some((now, ev)) = self.engine.pop_until(deadline) {
            self.handle(now, ev);
            n += 1;
        }
        n
    }

    // -- internal plumbing --------------------------------------------------

    fn send_from(&mut self, node: NodeId, out_port: PortNo, data: Vec<u8>) {
        let Some((peer, peer_port)) = self.c3.topo.peer_of(node, out_port) else {
            self.drops += 1;
            return;
        };
        let link = self.c3.topo.link_at(node, out_port).expect("link exists");
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

    fn reschedule_expiry(&mut self) {
        if let Some(t) = self.expiry.arm(self.switch.next_expiry(), self.engine.now()) {
            self.engine.schedule_at(t, Ev::SwitchExpiry(t));
        }
    }

    fn process_switch_effects(&mut self, effects: Vec<Effect>) {
        for e in effects {
            match e {
                Effect::Forward { port, data } => {
                    self.send_from(self.c3.ovs, PortNo(port), data);
                }
                Effect::ToController(bytes) => {
                    self.engine.schedule_in(self.ctrl_latency, Ev::CtrlUp(bytes));
                }
                Effect::Drop => self.drops += 1,
            }
        }
        self.reschedule_expiry();
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::StartRequest { client, service } => {
                let src_port = self.next_src_port[client];
                self.next_src_port[client] = src_port.wrapping_add(1).max(49152);
                let client_node = self.c3.clients[client];
                let frame = TcpFrame::syn(
                    self.c3.topo.node(client_node).mac,
                    self.c3.topo.node(self.c3.cloud).mac, // perceived cloud gateway
                    self.c3.topo.node(client_node).ip,
                    src_port,
                    service,
                );
                self.conns.insert(
                    (client, src_port),
                    ConnState {
                        service,
                        client,
                        timing: RequestTiming::started(now),
                        bytes_received: 0,
                        expected_bytes: self
                            .profiles
                            .get(&service)
                            .map(|p| p.response_bytes)
                            .unwrap_or(500),
                        request_sent: false,
                    },
                );
                self.send_from(client_node, PortNo(1), frame.encode());
            }
            Ev::FrameAt { node, in_port, data } => match self.roles[node.0 as usize] {
                Role::Switch(_) => {
                    if let Some(cap) = &mut self.capture {
                        cap.record(now, &data);
                    }
                    let effects = self.switch.handle_frame_owned(now, in_port, data);
                    self.process_switch_effects(effects);
                }
                Role::Edge(_) => self.handle_server_frame(now, node, &data, false),
                Role::Cloud => self.handle_server_frame(now, node, &data, true),
                Role::Client(client) => self.handle_client_frame(now, client, &data),
            },
            Ev::CtrlUp(bytes) => {
                match self.controller.handle_switch_message(now, &bytes, &mut self.rng) {
                    Ok(out) => {
                        for m in out {
                            let at = m.at.max(now) + self.ctrl_latency;
                            self.engine.schedule_at(at, Ev::CtrlDown(m.data));
                        }
                    }
                    Err(_) => self.drops += 1,
                }
                self.reschedule_tick();
            }
            Ev::CtrlDown(bytes) => match self.switch.handle_controller(now, &bytes) {
                Ok(effects) => self.process_switch_effects(effects),
                Err(_) => self.drops += 1,
            },
            Ev::Tick(at) => {
                if self.tick.fires(at) {
                    self.controller.tick(now, &mut self.rng);
                    self.reschedule_tick();
                }
            }
            Ev::PredictTick => {
                // Feed new observations to the predictor, then act on its
                // nominations.
                while self.observed_records < self.controller.records.len() {
                    let rec = &self.controller.records[self.observed_records];
                    if rec.kind != edgectl::controller::RequestKind::Unregistered {
                        self.predictor.observe(rec.service, rec.at);
                    }
                    self.observed_records += 1;
                }
                for addr in self.predictor.predict(now) {
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
            Ev::SwitchExpiry(at) => {
                if self.expiry.fires(at) {
                    let effects = self.switch.expire_flows(now);
                    self.process_switch_effects(effects);
                }
            }
            Ev::ServerSend { node, data } => {
                self.send_from(node, PortNo(1), data);
            }
        }
    }

    fn handle_server_frame(&mut self, now: SimTime, node: NodeId, data: &[u8], is_cloud: bool) {
        let Ok(frame) = TcpHeaders::parse(data) else {
            self.drops += 1;
            return;
        };
        // What serves here? One listener lookup covers the whole frame —
        // both the SYN/response branch and the request-reassembly branch.
        let edge = if is_cloud {
            None
        } else {
            self.listeners
                .lookup(&self.controller, frame.dst_ip, frame.dst_port, now)
        };
        let (processing, response_bytes, listening) = if is_cloud {
            // The real cloud hosts every registered service (and a generic
            // web server for everything else) — the "perceived cloud".
            match self.profiles.get(&frame.dst_service()) {
                Some(p) => (p.request_processing, p.response_bytes, true),
                None => (self.cloud_processing, 500, true),
            }
        } else {
            match edge {
                Some(l) => (l.processing, l.response_bytes, l.ready),
                None => (self.cloud_processing, 0, false),
            }
        };

        if frame.flags.contains(TcpFlags::SYN) {
            let reply = if listening {
                frame.reply(TcpFlags::SYN_ACK, 0)
            } else {
                // Port closed: the OS answers RST (why the controller polls
                // before releasing the client's packet).
                frame.reply(TcpFlags::RST, 0)
            };
            let delay = self.accept_latency.sample_duration(&mut self.rng);
            self.engine.schedule_in(
                delay,
                Ev::ServerSend {
                    node,
                    data: reply.encode_filled(0),
                },
            );
            return;
        }
        if frame.payload_len != 0 && listening {
            // Reassemble the (possibly segmented) HTTP request; respond once
            // all of it arrived.
            let expected = if is_cloud {
                self.profiles
                    .get(&frame.dst_service())
                    .map(|p| p.request_bytes)
                    .unwrap_or(1)
            } else {
                edge.map(|l| l.request_bytes).unwrap_or(1)
            };
            let key = (frame.src_ip, frame.src_port, frame.dst_ip, frame.dst_port);
            let acc = self.server_rx.entry(key).or_insert(0);
            *acc += frame.payload_len;
            if *acc >= expected {
                self.server_rx.remove(&key);
                let delay = processing.sample_duration(&mut self.rng);
                let template = frame.reply(TcpFlags::PSH_ACK, 0);
                for data in segments(template, response_bytes) {
                    self.engine
                        .schedule_in(delay, Ev::ServerSend { node, data });
                }
            }
        }
    }

    fn handle_client_frame(&mut self, now: SimTime, client: usize, data: &[u8]) {
        let Ok(frame) = TcpHeaders::parse(data) else {
            self.drops += 1;
            return;
        };
        let key = (client, frame.dst_port);
        let Some(conn) = self.conns.get_mut(&key) else {
            return; // stray frame for a finished connection
        };
        // Transparency invariant: everything the client receives must look
        // like it came from the registered cloud address.
        if frame.src_ip != conn.service.ip || frame.src_port != conn.service.port {
            self.transparency_violations += 1;
        }
        if frame.flags.contains(TcpFlags::RST) {
            self.resets += 1;
            self.conns.remove(&key);
            return;
        }
        if frame.flags.contains(TcpFlags::SYN) && frame.flags.contains(TcpFlags::ACK) {
            conn.timing.connected = Some(now);
            if !conn.request_sent {
                conn.request_sent = true;
                let request_bytes = self
                    .profiles
                    .get(&conn.service)
                    .map(|p| p.request_bytes)
                    .unwrap_or(120);
                // ACK + HTTP request, segmented at the MSS (curl pipelines
                // the ACK with the first data segment).
                let template = frame.reply(TcpFlags::PSH_ACK, 0);
                let client_node = self.c3.clients[client];
                for seg in segments(template, request_bytes) {
                    self.send_from(client_node, PortNo(1), seg);
                }
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
}

impl Drop for Testbed {
    /// Every finished testbed run contributes its metrics snapshot to the
    /// process-global collection point when one was enabled
    /// ([`telemetry::global`], `repro --telemetry`). With collection off —
    /// the default — this is a single atomic load.
    fn drop(&mut self) {
        if telemetry::global::enabled() {
            telemetry::global::merge(&self.telemetry_snapshot());
        }
    }
}

/// Splits `total_bytes` of application payload into MSS-sized TCP segments
/// patterned on `template` (endpoints copied, `PSH|ACK`, sequence numbers
/// advancing) and yields each as encoded frame bytes — the buffer that then
/// travels to the receiver. A transfer of zero bytes is one 1-byte segment.
pub(crate) fn segments(template: TcpHeaders, total_bytes: usize) -> impl Iterator<Item = Vec<u8>> {
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
        segment.encode_filled(0x42)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::Summary;

    fn svc_addr(i: u8) -> ServiceAddr {
        ServiceAddr::new(Ipv4Addr::new(203, 0, 113, i), 80)
    }

    fn run_one(kind: ClusterKind, profile_key: &str, pre_pull: bool, pre_create: bool, seed: u64) -> (Testbed, Duration) {
        let mut tb = Testbed::new(TestbedConfig {
            cluster: kind,
            seed,
            ..TestbedConfig::default()
        });
        let profile = containerd::ServiceSet::by_key(profile_key).unwrap();
        let addr = svc_addr(10);
        tb.register_service(profile, addr);
        if pre_pull {
            tb.pre_pull(addr);
        }
        if pre_create {
            tb.pre_create(addr);
        }
        tb.request_at(SimTime::from_secs(1), 0, addr);
        tb.run_until(SimTime::from_secs(120));
        assert_eq!(tb.completed.len(), 1, "request completed (resets={})", tb.resets);
        let total = tb.completed[0].timing.time_total().unwrap();
        (tb, total)
    }

    #[test]
    fn docker_scale_up_first_request_is_sub_second() {
        // The headline result: nginx on Docker, image cached & created —
        // first-request time_total ≈ 0.5 s, well under a second.
        let mut totals = Vec::new();
        for seed in 0..10 {
            let (_, total) = run_one(ClusterKind::Docker, "nginx", true, true, seed);
            totals.push(total.as_secs_f64());
        }
        let med = Summary::new(totals).median().unwrap();
        assert!((0.3..1.0).contains(&med), "docker median {med:.3}s");
    }

    #[test]
    fn k8s_scale_up_first_request_is_about_three_seconds() {
        let mut totals = Vec::new();
        for seed in 0..10 {
            let (_, total) = run_one(ClusterKind::K8s, "nginx", true, true, seed);
            totals.push(total.as_secs_f64());
        }
        let med = Summary::new(totals).median().unwrap();
        assert!((2.0..4.5).contains(&med), "k8s median {med:.3}s");
    }

    #[test]
    fn no_resets_thanks_to_port_polling() {
        for seed in [1, 7, 42] {
            let (tb, _) = run_one(ClusterKind::Docker, "resnet", true, true, seed);
            assert_eq!(tb.resets, 0, "client never hits a closed port");
        }
    }

    #[test]
    fn cold_pull_dominates_when_not_cached() {
        let (tb, total) = run_one(ClusterKind::Docker, "nginx", false, false, 3);
        assert!(total > Duration::from_secs(2), "cold total {total}");
        let rec = &tb.controller.records[0];
        assert!(rec.phases.pull_done.is_some());
    }

    #[test]
    fn second_request_is_milliseconds() {
        let mut tb = Testbed::new(TestbedConfig::default());
        let profile = containerd::ServiceSet::by_key("nginx").unwrap();
        let addr = svc_addr(10);
        tb.register_service(profile, addr);
        tb.pre_pull(addr);
        tb.pre_create(addr);
        tb.request_at(SimTime::from_secs(1), 0, addr);
        tb.request_at(SimTime::from_secs(10), 1, addr);
        tb.run_until(SimTime::from_secs(120));
        assert_eq!(tb.completed.len(), 2);
        let warm = tb.completed[1].timing.time_total().unwrap();
        // Fig. 16: ~1 ms for static services once running.
        assert!(warm < Duration::from_millis(10), "warm total {warm}");
        // And the switch served it without a second dispatch round:
        // the first request already installed per-connection flows, but a
        // new connection needs one more packet-in → memory hit.
        assert!(tb.controller.records.len() == 2);
    }

    /// Regression: the aggregated forward rule used to match the service for
    /// *any* in-port, so a client on another switch port never missed the
    /// table, never reached the controller's divergent check, and its
    /// replies left through the first client's port.
    #[test]
    fn aggregate_rules_serve_clients_on_several_switch_ports() {
        let mut tb = Testbed::new(TestbedConfig {
            controller: ControllerConfig {
                aggregate_rules: true,
                ..ControllerConfig::default()
            },
            ..TestbedConfig::default()
        });
        let profile = containerd::ServiceSet::by_key("nginx").unwrap();
        let addr = svc_addr(10);
        tb.register_service(profile, addr);
        tb.pre_pull(addr);
        tb.pre_create(addr);
        // Client 0 deploys (an exact pair), client 1 is the first shared
        // decision (the aggregate, on its port), client 2 sits on another
        // port, client 1's second connection rides the aggregate.
        for (secs, client) in [(1, 0), (3, 1), (4, 2), (5, 1)] {
            tb.request_at(SimTime::from_secs(secs), client, addr);
        }
        tb.run_until(SimTime::from_secs(8));
        assert_eq!(tb.completed.len(), 4, "every request completes");
        assert_eq!(tb.transparency_violations, 0);
        assert_eq!(tb.resets, 0);
        let metrics = &tb.controller.telemetry.metrics;
        assert_eq!(metrics.counter("aggregate_installed"), 1);
        assert_eq!(metrics.counter("aggregate_divergent"), 1, "client 2, on another port");
        let base = ControllerConfig::default().flow_priority;
        let at = |priority: u16| {
            tb.switch().table().entries().filter(|e| e.priority == priority).count()
        };
        assert_eq!(at(base - 2), 2, "the one aggregate pair");
        assert_eq!(at(base), 4, "exact pairs for the clients on the other two ports");
    }

    #[test]
    fn unregistered_traffic_reaches_cloud_with_wan_latency() {
        let mut tb = Testbed::new(TestbedConfig::default());
        // No registration at all: everything flows to the cloud.
        let addr = svc_addr(99);
        tb.request_at(SimTime::from_secs(1), 0, addr);
        tb.run_until(SimTime::from_secs(30));
        assert_eq!(tb.completed.len(), 1);
        let total = tb.completed[0].timing.time_total().unwrap();
        // ≥ 4 WAN traversals (SYN, SYN-ACK, request, response) ≈ ≥60 ms.
        assert!(total > Duration::from_millis(50), "cloud total {total}");
    }

    #[test]
    fn resnet_is_much_slower_warm_than_nginx() {
        let mut tb = Testbed::new(TestbedConfig::default());
        let nginx = svc_addr(10);
        let resnet = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 11), 8501);
        tb.register_service(containerd::ServiceSet::by_key("nginx").unwrap(), nginx);
        tb.register_service(containerd::ServiceSet::by_key("resnet").unwrap(), resnet);
        for a in [nginx, resnet] {
            tb.pre_pull(a);
            tb.pre_create(a);
        }
        tb.request_at(SimTime::from_secs(1), 0, nginx);
        tb.request_at(SimTime::from_secs(1), 1, resnet);
        // Warm round after both deployed.
        tb.request_at(SimTime::from_secs(30), 2, nginx);
        tb.request_at(SimTime::from_secs(30), 3, resnet);
        tb.run_until(SimTime::from_secs(60));
        assert_eq!(tb.completed.len(), 4);
        let warm_nginx = tb
            .completed
            .iter()
            .find(|c| c.client == 2)
            .unwrap()
            .timing
            .time_total()
            .unwrap();
        let warm_resnet = tb
            .completed
            .iter()
            .find(|c| c.client == 3)
            .unwrap()
            .timing
            .time_total()
            .unwrap();
        assert!(
            warm_resnet > warm_nginx * 20,
            "resnet {warm_resnet} vs nginx {warm_nginx}"
        );
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
            for bytes in segments(template, total) {
                let h = TcpHeaders::parse(&bytes).expect("segment verifies");
                assert!((1..=MSS).contains(&h.payload_len), "{total}: segment of {}", h.payload_len);
                assert!(h.payload_len <= TcpFrame::MAX_PAYLOAD);
                assert_eq!((h.seq, h.flags), (seq, TcpFlags::PSH_ACK));
                assert_eq!(bytes.len(), h.wire_len());
                assert!(bytes[54..].iter().all(|&b| b == 0x42));
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
            let mut tb = Testbed::new(TestbedConfig { n_clients: 20, ..TestbedConfig::default() });
            let addr = svc_addr(10);
            tb.register_service(containerd::ServiceSet::by_key("asm").unwrap(), addr);
            tb.pre_deploy_on(addr, 0);
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
            while let Some((now, mut ev)) = tb.engine.pop_until(SimTime::from_secs(30)) {
                if let Ev::FrameAt { node, data, .. } = &mut ev {
                    let hit = match tb.roles[node.0 as usize] {
                        Role::Switch(_) => target == "switch",
                        Role::Edge(_) | Role::Cloud => target == "server",
                        Role::Client(_) => target == "client",
                    };
                    if hit {
                        data[14 + (corrupted as usize % 40)] ^= 0x01;
                        corrupted += 1;
                    }
                }
                tb.handle(now, ev);
            }
            // Nothing retransmits, so each request dies with its first
            // frame at the target: its SYN, or the SYN-ACK at the client.
            assert_eq!(corrupted, 40, "{target}");
            assert_eq!(tb.drops, corrupted, "{target}: every corrupted frame dropped");
            assert_eq!(tb.completed.len(), 1, "{target}: no corrupted exchange completed");
        }
    }

    #[test]
    fn pcap_capture_records_decodable_traffic() {
        let mut tb = Testbed::new(TestbedConfig::default());
        tb.enable_capture();
        let addr = svc_addr(10);
        tb.register_service(containerd::ServiceSet::by_key("asm").unwrap(), addr);
        tb.pre_pull(addr);
        tb.pre_create(addr);
        tb.request_at(SimTime::from_secs(1), 0, addr);
        tb.run_until(SimTime::from_secs(30));
        let cap = tb.capture().unwrap();
        // SYN, SYN-ACK, request, response at minimum.
        assert!(cap.len() >= 4, "captured {}", cap.len());
        for (at, data) in cap.records() {
            assert!(*at >= SimTime::from_secs(1));
            TcpFrame::decode(data).expect("every captured frame decodes");
        }
        // The serialized capture round-trips.
        let bytes = cap.to_bytes();
        let back = netsim::PcapCapture::from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), cap.len());
    }

    #[test]
    fn telemetry_records_spans_and_metrics_without_changing_results() {
        let run = |telemetry: bool| {
            let mut tb = Testbed::new(TestbedConfig {
                telemetry,
                seed: 5,
                ..TestbedConfig::default()
            });
            let addr = svc_addr(10);
            tb.register_service(containerd::ServiceSet::by_key("nginx").unwrap(), addr);
            tb.pre_pull(addr);
            tb.request_at(SimTime::from_secs(1), 0, addr);
            tb.request_at(SimTime::from_secs(5), 1, addr);
            tb.run_until(SimTime::from_secs(60));
            tb
        };
        let plain = run(false);
        let traced = run(true);
        // Telemetry is observation only: identical timings either way.
        let totals = |tb: &Testbed| {
            tb.completed
                .iter()
                .map(|c| (c.client, c.timing.time_total()))
                .collect::<Vec<_>>()
        };
        assert_eq!(totals(&plain), totals(&traced));
        assert!(plain.span_log().is_none(), "disabled runs record nothing");
        let log = traced.span_log().unwrap();
        assert!(log.check().ok(), "span log consistent: {:?}", log.check());
        assert_eq!(log.request_ids(), vec![1, 2]);
        // The snapshot folds every subsystem counter into one registry.
        let m = traced.telemetry_snapshot();
        assert_eq!(m.counter("requests_total"), 2);
        assert!(m.gauge("switch.microflow_hit_rate").is_some());
        assert!(m.gauge("flowmemory.lookups").unwrap() >= 2.0);
        assert!(m.gauge("cluster.egs-docker.ops_pulls").unwrap() >= 1.0);
        assert!(m.gauge("cluster.egs-docker.layer_cache_hit_rate").is_some());
        assert!(m.gauge("cluster.egs-docker.load").is_some());
        assert!(m.histogram("answer_delay_ns").is_some());
    }

    #[test]
    fn idle_service_scales_down_and_redeploys() {
        let mut tb = Testbed::new(TestbedConfig {
            controller: ControllerConfig {
                memory_idle: Duration::from_secs(20),
                ..ControllerConfig::default()
            },
            ..TestbedConfig::default()
        });
        let addr = svc_addr(10);
        tb.register_service(containerd::ServiceSet::by_key("asm").unwrap(), addr);
        tb.pre_pull(addr);
        tb.pre_create(addr);
        tb.request_at(SimTime::from_secs(1), 0, addr);
        // Long idle gap, then a second request.
        tb.request_at(SimTime::from_secs(60), 1, addr);
        tb.run_until(SimTime::from_secs(120));
        assert_eq!(tb.completed.len(), 2);
        let kinds: Vec<_> = tb.controller.records.iter().map(|r| r.kind).collect();
        use edgectl::controller::RequestKind;
        assert_eq!(kinds[0], RequestKind::Waited);
        // After idle scale-down the service had to be scaled up again.
        assert_eq!(kinds[1], RequestKind::Waited, "kinds: {kinds:?}");
    }

    /// Runs to `deadline` like `run_until`, calling `inspect` on the testbed
    /// and each event before it is handled.
    fn run_inspecting(tb: &mut Testbed, deadline: SimTime, mut inspect: impl FnMut(&mut Testbed, SimTime, &Ev)) {
        while let Some((now, ev)) = tb.engine.pop_until(deadline) {
            inspect(tb, now, &ev);
            tb.handle(now, ev);
        }
    }

    #[test]
    fn superseded_tick_and_expiry_events_do_not_fork_their_chains() {
        // Cold K8s services idling out within seconds, the `deploy_churn`
        // shape: on this trace a tick deadline moves earlier than the tick
        // already queued (asserted below).
        let mut tb = Testbed::new(TestbedConfig {
            cluster: ClusterKind::K8s,
            controller: ControllerConfig {
                memory_idle: Duration::from_secs(4),
                switch_flow_idle: Duration::from_secs(2),
                ..ControllerConfig::default()
            },
            seed: 7,
            ..TestbedConfig::default()
        });
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
        // [live, superseded] events and the instant of the last live one.
        let mut ticks = ([0u32; 2], SimTime::ZERO);
        let mut expiries = ([0u32; 2], SimTime::ZERO);
        run_inspecting(&mut tb, SimTime::from_secs(200), |tb, now, ev| {
            // `chain` is a copy: probing it does not disarm the real one.
            let (mut chain, at, seen) = match ev {
                Ev::Tick(at) => (tb.tick, *at, &mut ticks),
                Ev::SwitchExpiry(at) => (tb.expiry, *at, &mut expiries),
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
        let ([live_ticks, stale_ticks], _) = ticks;
        let ([live_expiries, stale_expiries], _) = expiries;
        assert!(stale_ticks + stale_expiries > 0, "the run must supersede a queued deadline");
        // A superseded event is popped once and dropped, so there are fewer
        // of them than deadlines; a forked chain doubles the events instead.
        assert!(stale_ticks < live_ticks, "{stale_ticks} stale vs {live_ticks} live ticks");
        assert!(stale_expiries < live_expiries, "{stale_expiries} stale vs {live_expiries} live expiries");
    }

    #[test]
    fn listener_lookup_equals_the_scan_across_a_pod_address_change() {
        use crate::common::scan_listener;
        let mut tb = Testbed::new(TestbedConfig {
            cluster: ClusterKind::K8s,
            controller: ControllerConfig {
                memory_idle: Duration::from_secs(20),
                ..ControllerConfig::default()
            },
            ..TestbedConfig::default()
        });
        let addr = svc_addr(10);
        let svc = tb.register_service(containerd::ServiceSet::by_key("asm").unwrap(), addr);
        tb.pre_pull(addr);
        // Scale-up, idle scale-down, scale-up again: the second pod gets a
        // new IP.
        tb.request_at(SimTime::from_secs(1), 0, addr);
        tb.request_at(SimTime::from_secs(60), 1, addr);
        let mut pod_addrs = Vec::new();
        let mut answered = 0;
        run_inspecting(&mut tb, SimTime::from_secs(120), |tb, now, ev| {
            let Ev::FrameAt { node, data, .. } = ev else { return };
            if *node != tb.c3.egs {
                return;
            }
            if let Some(a) = tb.controller.cluster(0).instance_addr(&svc) {
                if pod_addrs.last() != Some(&a) {
                    pod_addrs.push(a);
                }
            }
            // Every frame the EGS sees, at every address a pod ever had.
            let frame = TcpFrame::decode(data).unwrap();
            let probes = pod_addrs.iter().map(|a| (a.ip, a.port));
            for (ip, port) in probes.chain([(frame.dst_ip, frame.dst_port)]) {
                let got = tb.listeners.lookup(&tb.controller, ip, port, now);
                assert_eq!(got, scan_listener(&tb.controller, ip, port, now), "{ip:?}:{port} at {now:?}");
                answered += usize::from(got.is_some());
            }
            assert!(tb.listeners.len() <= 1, "one pair, one remembered address");
        });
        assert_eq!(tb.completed.len(), 2);
        assert_eq!(pod_addrs.len(), 2, "the redeployed pod has a new address: {pod_addrs:?}");
        assert!(answered > 0);
    }
}
