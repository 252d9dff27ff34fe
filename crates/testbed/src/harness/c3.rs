//! The paper's C³ evaluation testbed (Fig. 8) as a [`Harness`]: one OVS on
//! the Edge Gateway Server, one edge cluster (Docker or Kubernetes) with an
//! optional hybrid second cluster and far edge, 20 Raspberry Pi clients, a
//! WAN link to the cloud.

use super::Harness;
use crate::topology::C3Topology;
use desim::{Duration, FaultPlan};
use dockersim::DockerEngine;
use edgectl::{Controller, ControllerConfig, DockerCluster, K8sEdgeCluster, PortMap};
use k8ssim::K8sCluster;
use netsim::ServiceAddr;
use ovs::{Switch, SwitchConfig};
use std::collections::HashMap;
use telemetry::Spans;

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
    /// Proactive-deployment predictor name (see
    /// [`edgectl::predictor_by_name`]); `"none"` = pure reactive.
    pub predictor: String,
    /// Add a hierarchical *far edge* Docker cluster on the route to the
    /// cloud (Section IV-A-2).
    pub far_edge: bool,
    /// Fault-injection plan (all rates 0 = faults disabled, byte-identical
    /// behaviour to a build without the fault layer).
    pub faults: FaultPlan,
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
            predictor: "none".to_owned(),
            far_edge: false,
            faults: FaultPlan::default(),
            seed: 1,
        }
    }
}

impl<S: Spans> Harness<C3Topology, S> {
    /// Builds a testbed per `config`.
    pub fn new(config: TestbedConfig) -> Self {
        let c3 = C3Topology::build_with_far_edge(config.n_clients, config.far_edge);
        let switch = Switch::new(SwitchConfig {
            datapath_id: 0xC3,
            n_buffers: 1024,
            miss_send_len: 0xffff,
            ports: c3.ovs_ports(),
        });
        let scheduler =
            edgectl::scheduler_by_name(&config.scheduler).unwrap_or_else(|e| panic!("{e}"));
        let mut controller = Controller::with_spans(
            scheduler,
            PortMap {
                cluster_ports: HashMap::new(),
                cloud_port: c3.cloud_port.0,
            },
            config.controller.clone(),
        );
        let egs_mac = c3.topo.node(c3.egs).mac;
        let egs_ip = c3.topo.node(c3.egs).ip;
        let edge_latency = Duration::from_micros(50);
        let mut node = containerd::ContainerdNode::new(containerd::ContentStore::new(), containerd::RuntimeTimings::default());
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
        let mut tb = Harness::assemble(
            c3,
            vec![switch],
            controller,
            config.n_clients,
            config.seed,
        );
        tb.predictor =
            edgectl::predictor_by_name(&config.predictor).unwrap_or_else(|e| panic!("{e}"));
        tb.faults = config.faults;
        tb
    }

    /// Adds a *second* edge cluster of the other kind on the same gateway —
    /// the Section VII hybrid setup (Docker answers first, Kubernetes takes
    /// over). The added cluster gets a marginally smaller distance so the
    /// nearest-ready rule hands steady-state traffic to it.
    pub fn add_hybrid_k8s(&mut self) {
        let egs_mac = self.net.topo.node(self.net.egs).mac;
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
            self.net.egs_port.0,
        );
    }

    /// Fully pre-deploys a service on cluster `idx` (pull + create +
    /// scale-up): the "already running in a farther edge" setup of Fig. 3.
    pub fn pre_deploy_on(&mut self, addr: ServiceAddr, idx: usize) {
        self.pre_deploy(addr, idx);
    }

    /// Pre-pulls a service's images on cluster `idx` (hybrid setups).
    pub fn pre_pull_on(&mut self, addr: ServiceAddr, idx: usize) {
        self.on_cluster(addr, idx, |cluster, svc, now, rng| {
            cluster.pull(svc, now, rng).expect("pre-pull");
        });
    }

    /// Pre-pulls a service's images onto the edge cluster (experiment
    /// setup for the cached-image scenarios).
    pub fn pre_pull(&mut self, addr: ServiceAddr) {
        self.pre_pull_on(addr, 0);
    }

    /// Pre-creates a service (Create phase done ahead of time; scale-up
    /// remains on demand) — the Fig. 11 scenario.
    pub fn pre_create(&mut self, addr: ServiceAddr) {
        self.on_cluster(addr, 0, |cluster, svc, now, rng| {
            cluster.create(svc, now, rng).expect("pre-create");
        });
    }

    /// The OVS switch (fast-path statistics).
    pub fn switch(&self) -> &Switch {
        &self.switches[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Testbed;
    use desim::{SimTime, Summary};
    use netsim::{Ipv4Addr, TcpFrame};
    use telemetry::{Off, SpanLog};

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
        assert!(tb.controller.deployment(rec).is_some_and(|d| d.phases.pull_done.is_some()));
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
        let base = edgectl::controller::FLOW_PRIORITY;
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
    }

    #[test]
    fn telemetry_records_spans_and_metrics_without_changing_results() {
        fn run<S: Spans>() -> Harness<C3Topology, S> {
            let mut tb = Harness::<C3Topology, S>::new(TestbedConfig { seed: 5, ..TestbedConfig::default() });
            let addr = svc_addr(10);
            tb.register_service(containerd::ServiceSet::by_key("nginx").unwrap(), addr);
            tb.pre_pull(addr);
            tb.request_at(SimTime::from_secs(1), 0, addr);
            tb.request_at(SimTime::from_secs(5), 1, addr);
            tb.run_until(SimTime::from_secs(60));
            tb
        }
        let plain = run::<Off>();
        let traced = run::<SpanLog>();
        // Telemetry is observation only: identical timings either way.
        let totals = |completed: &[crate::harness::CompletedRequest]| {
            completed
                .iter()
                .map(|c| (c.client, c.timing.time_total()))
                .collect::<Vec<_>>()
        };
        assert_eq!(totals(&plain.completed), totals(&traced.completed));
        assert!(plain.span_log().is_none(), "disabled runs record nothing");
        let log = traced.span_log().unwrap();
        assert!(log.check().ok(), "span log consistent: {:?}", log.check());
        assert_eq!(log.request_ids(), vec![1, 2]);
        // The snapshot folds every subsystem counter into one registry.
        let m = traced.telemetry_snapshot();
        assert_eq!(m.counter("requests_total"), 2);
        assert!(m.gauge("switch.table_misses").is_some());
        assert!(m.gauge("flowmemory.lookups").unwrap() >= 2.0);
        assert!(m.gauge("cluster.egs-docker.ops_pulls").unwrap() >= 1.0);
        assert!(m.gauge("cluster.egs-docker.layer_cache_hit_rate").is_some());
        assert!(m.gauge("cluster.egs-docker.load").is_some());
        assert!(m.histogram("answer_delay_ns").is_some());
    }

    /// With autoscaling on, the controller's own tick runs the autoscaler,
    /// and every replica address it hands out answers on the data path: on
    /// the smoke burst trace the pools scale up, clients are sent to the new
    /// replicas, and every request completes and none is refused.
    #[test]
    fn autoscaled_replicas_scale_and_answer_on_the_data_path() {
        let burst = workload::BurstConfig::smoke();
        let mut tb = Testbed::new(TestbedConfig {
            n_clients: burst.n_clients,
            scheduler: "least-connections".to_owned(),
            controller: ControllerConfig { autoscale: true, ..ControllerConfig::default() },
            ..TestbedConfig::default()
        });
        let services: Vec<ServiceAddr> = (0..burst.n_services as u16)
            .map(|s| ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 20), 9000 + s))
            .collect();
        for &addr in &services {
            tb.register_service(containerd::ServiceSet::by_key("asm").unwrap(), addr);
            tb.pre_pull(addr);
        }
        let trace = burst.clone().generate(7);
        for r in &trace.requests {
            tb.request_at(r.at, r.client, services[r.service]);
        }
        // Replicas scale away once the burst is over: look while it runs.
        let end = SimTime::ZERO + burst.duration + Duration::from_secs(5);
        let mut on_replica = false;
        let mut t = SimTime::ZERO;
        while t < end {
            t += Duration::from_millis(50);
            tb.run_until(t);
            let load = tb.controller.load();
            let memorized = tb.controller.memory().instances();
            on_replica |= memorized.iter().any(|&(c, inst, svc)| load.index_of(svc, c, inst) > Some(0));
        }
        assert!(tb.controller.load().scale_ups() > 0, "the tick ran the autoscaler");
        assert!(on_replica, "clients were sent to a replica other than the base");
        assert_eq!((tb.completed.len(), tb.resets), (trace.requests.len(), 0));
        assert_eq!(tb.transparency_violations, 0);
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
}
