//! Timing decorators for the cluster and scheduler seams, and controllers
//! assembled around them exactly as the two testbeds assemble theirs.
//!
//! The testbeds build their controller internally, but leave it in a public
//! field: the traced run replaces it with the twin built here before any
//! service is registered, and checks afterwards that `sim_digest` did not
//! move — so the twin is known to be the same controller plus spans.

use super::spans::{span, Op};
use desim::{Duration, SimRng, SimTime};
use dockersim::DockerEngine;
use edgectl::cluster::DeployError;
use edgectl::{
    Choice, Controller, ControllerConfig, DockerCluster, EdgeCluster, EdgeService, GlobalScheduler,
    IngressId, InstanceAddr, InstanceState, K8sEdgeCluster, PortMap, SchedulingContext,
};
use k8ssim::K8sCluster;
use std::collections::HashMap;
use testbed::{C3Topology, ClusterKind, MultiGnbTopology};

/// The ops one cluster type's calls are recorded under.
#[derive(Clone, Copy)]
struct ClusterOps {
    state: Op,
    scale_up: Op,
    scale_down: Op,
    other: Op,
}

const K8S_OPS: ClusterOps = ClusterOps {
    state: Op::K8sState,
    scale_up: Op::K8sScaleUp,
    scale_down: Op::K8sScaleDown,
    other: Op::K8sOther,
};

const DOCKER_OPS: ClusterOps = ClusterOps {
    state: Op::DockerState,
    scale_up: Op::DockerScaleUp,
    scale_down: Op::DockerScaleDown,
    other: Op::DockerOther,
};

/// An [`EdgeCluster`] that records a span around every call that does work.
/// Plain getters pass through untimed.
pub struct TimedCluster<C> {
    inner: C,
    ops: ClusterOps,
}

impl<C: EdgeCluster> EdgeCluster for TimedCluster<C> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn latency(&self) -> Duration {
        self.inner.latency()
    }

    fn has_image_cached(&self, svc: &EdgeService) -> bool {
        span(self.ops.other, || self.inner.has_image_cached(svc))
    }

    fn state(&self, svc: &EdgeService, now: SimTime) -> InstanceState {
        span(self.ops.state, || self.inner.state(svc, now))
    }

    fn pull(
        &mut self,
        svc: &EdgeService,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Result<SimTime, DeployError> {
        span(Op::RegistryPull, || self.inner.pull(svc, now, rng))
    }

    fn create(
        &mut self,
        svc: &EdgeService,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Result<SimTime, DeployError> {
        span(Op::ContainerdCreate, || self.inner.create(svc, now, rng))
    }

    fn scale_up(
        &mut self,
        svc: &EdgeService,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Result<(SimTime, SimTime), DeployError> {
        span(self.ops.scale_up, || self.inner.scale_up(svc, now, rng))
    }

    fn scale_down(&mut self, svc: &EdgeService, now: SimTime, rng: &mut SimRng) -> SimTime {
        span(self.ops.scale_down, || self.inner.scale_down(svc, now, rng))
    }

    fn fail_instance(&mut self, svc: &EdgeService, now: SimTime, rng: &mut SimRng) -> bool {
        span(self.ops.other, || self.inner.fail_instance(svc, now, rng))
    }

    fn remove(&mut self, svc: &EdgeService, now: SimTime, rng: &mut SimRng) -> SimTime {
        span(self.ops.other, || self.inner.remove(svc, now, rng))
    }

    fn instance_addr(&self, svc: &EdgeService) -> Option<InstanceAddr> {
        self.inner.instance_addr(svc)
    }

    fn load(&self) -> usize {
        self.inner.load()
    }

    fn telemetry_stats(&self) -> Vec<(&'static str, f64)> {
        self.inner.telemetry_stats()
    }
}

/// A [`GlobalScheduler`] that records a span around every decision.
pub struct TimedScheduler(Box<dyn GlobalScheduler>);

impl GlobalScheduler for TimedScheduler {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn choose(&mut self, ctx: &SchedulingContext) -> Choice {
        span(Op::EdgectlScheduler, || self.0.choose(ctx))
    }
}

fn timed_scheduler() -> Box<dyn GlobalScheduler> {
    let inner = edgectl::scheduler_by_name("proximity").expect("the default scheduler exists");
    Box::new(TimedScheduler(inner))
}

/// The controller `Testbed::new` builds for the C3 topology — proximity
/// scheduler, one cluster of `kind` on the EGS — with timing decorators on
/// both seams.
pub fn c3_controller(c3: &C3Topology, kind: ClusterKind, config: ControllerConfig) -> Controller {
    let mut controller = Controller::new(
        timed_scheduler(),
        PortMap {
            cluster_ports: HashMap::new(),
            cloud_port: c3.cloud_port.0,
        },
        config,
    );
    let egs = c3.topo.node(c3.egs);
    let edge_latency = Duration::from_micros(50);
    let cluster: Box<dyn EdgeCluster> = match kind {
        ClusterKind::Docker => Box::new(TimedCluster {
            inner: DockerCluster::new(
                "egs-docker",
                DockerEngine::with_defaults(),
                egs.mac,
                egs.ip,
                edge_latency,
            ),
            ops: DOCKER_OPS,
        }),
        ClusterKind::K8s => Box::new(TimedCluster {
            inner: K8sEdgeCluster::new(
                "egs-k8s",
                K8sCluster::with_defaults(),
                egs.mac,
                edge_latency,
                None,
            ),
            ops: K8S_OPS,
        }),
    };
    controller.add_cluster(cluster, c3.egs_port.0);
    controller
}

/// The controller `MobilityTestbed::new` builds — one ingress and one Docker
/// zone per gNB, every zone reachable from every ingress — with timing
/// decorators on both seams.
pub fn mobility_controller(net: &MultiGnbTopology, config: ControllerConfig) -> Controller {
    let n_gnbs = net.gnbs.len();
    let mut controller = Controller::new(
        timed_scheduler(),
        PortMap {
            cluster_ports: HashMap::new(),
            cloud_port: net.cloud_ports[0].0,
        },
        config,
    );
    for g in 1..n_gnbs {
        controller.add_ingress(PortMap {
            cluster_ports: HashMap::new(),
            cloud_port: net.cloud_ports[g].0,
        });
    }
    let zone_latency = Duration::from_micros(50);
    let metro = Duration::from_millis(2);
    for z in 0..n_gnbs {
        let host = net.topo.node(net.zones[z]);
        let name = format!("zone-{z}");
        controller.add_cluster(
            Box::new(TimedCluster {
                inner: DockerCluster::new(
                    &name,
                    DockerEngine::with_defaults(),
                    host.mac,
                    host.ip,
                    zone_latency,
                ),
                ops: DOCKER_OPS,
            }),
            net.zone_ports[0][z].0,
        );
        for g in 0..n_gnbs {
            let ingress = IngressId(g as u32);
            controller.map_cluster_port(ingress, &name, net.zone_ports[g][z].0);
            let d = if g == z {
                zone_latency
            } else {
                metro + zone_latency
            };
            controller.set_ingress_distance(ingress, z, d);
        }
    }
    controller
}

/// Pull + create + scale-up of `svc` on cluster `idx`, as the testbeds'
/// `pre_deploy_on` does it.
pub fn pre_deploy(controller: &mut Controller, svc: &EdgeService, idx: usize, rng: &mut SimRng) {
    let cluster = controller.cluster_mut(idx);
    let t = cluster
        .pull(svc, SimTime::ZERO, rng)
        .expect("pre-deploy: pull");
    let t = cluster.create(svc, t, rng).expect("pre-deploy: create");
    cluster.scale_up(svc, t, rng).expect("pre-deploy: scale-up");
}
