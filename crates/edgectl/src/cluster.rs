//! The [`EdgeCluster`] abstraction: one interface, two cluster types.
//!
//! The controller manipulates every edge cluster through the paper's
//! deployment phases (Fig. 4):
//!
//! * **Pull** — download missing image layers;
//! * **Create** — Docker: create the containers; Kubernetes: create the
//!   `Deployment` + `Service` with zero replicas;
//! * **Scale Up** — Docker: start the containers; Kubernetes: set
//!   `replicas = 1`;
//! * **Scale Down** / **Remove** — the reverse, driven by idle-flow expiry.
//!
//! The same annotated service definition drives both implementations.

use crate::annotate::EDGE_SERVICE_LABEL;
use crate::service::{EdgeService, ServiceRegistry};
use containerd::{ContainerId, RuntimeError, ServiceProfile};
use desim::{reserve_churned, Duration, FastMap, LogNormal, Sample, SimRng, SimTime};
use dockersim::{DockerEngine, DockerError};
use k8ssim::objects::{PodContainer, PodTemplate};
use k8ssim::{ClusterEvent, DeploymentId, K8sCluster};
use netsim::addr::{Ipv4Addr, MacAddr};
use netsim::ServiceAddr;
use registry::{ImageManifest, ImageRef};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Where a ready instance can be reached by the data plane.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceAddr {
    /// MAC to address frames to (the cluster host's NIC).
    pub mac: MacAddr,
    /// Instance IP (host IP for Docker, pod IP for Kubernetes).
    pub ip: Ipv4Addr,
    /// TCP port the instance serves on.
    pub port: u16,
}

/// Deployment state of a service on one cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InstanceState {
    /// Nothing deployed.
    NotDeployed,
    /// Created (containers exist / Deployment at zero replicas).
    Created,
    /// Scale-up in progress; ready at the contained instant.
    Starting {
        /// When the instance will accept connections.
        ready_at: SimTime,
    },
    /// Serving.
    Ready(InstanceAddr),
}

impl InstanceState {
    /// `true` if the instance serves traffic.
    pub fn is_ready(&self) -> bool {
        matches!(self, InstanceState::Ready(_))
    }
}

/// The deployment phase a failure surfaced in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeployPhase {
    /// Image download.
    Pull,
    /// Container / Deployment object creation.
    Create,
    /// Scale-up (start / replicas=1).
    ScaleUp,
}

impl std::fmt::Display for DeployPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployPhase::Pull => write!(f, "pull"),
            DeployPhase::Create => write!(f, "create"),
            DeployPhase::ScaleUp => write!(f, "scale-up"),
        }
    }
}

/// A failed deployment phase. The cluster has already rolled back any
/// partial work, so a retry starting at `at` sees a clean slate.
#[derive(Clone, Debug, PartialEq)]
pub struct DeployError {
    /// When the failure (including rollback) finished surfacing.
    pub at: SimTime,
    /// Which phase failed.
    pub phase: DeployPhase,
    /// Human-readable cause.
    pub reason: String,
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Same human-scale unit selection as every other duration the repo
        // prints (see [`desim::fmt_duration`]).
        write!(
            f,
            "{} phase failed at t={}: {}",
            self.phase,
            desim::fmt_duration(self.at.saturating_since(SimTime::ZERO)),
            self.reason
        )
    }
}

impl std::error::Error for DeployError {}

/// A deployable edge cluster.
pub trait EdgeCluster {
    /// Cluster name (unique within the controller).
    fn name(&self) -> &str;

    /// `"docker"` or `"k8s"`.
    fn kind(&self) -> &'static str;

    /// One-way latency from the ingress switch to this cluster (the Global
    /// Scheduler's distance metric; hierarchical far-away clusters have
    /// larger values).
    fn latency(&self) -> Duration;

    /// `true` if every image layer of the service is cached here, asked of
    /// the layer stores. No layer cache evicts ([`registry::LayerCache`]), so
    /// a true answer is final: the dispatcher latches it per cluster.
    fn has_image_cached(&self, svc: &EdgeService) -> bool;

    /// Deployment state of `svc` at `now`.
    fn state(&self, svc: &EdgeService, now: SimTime) -> InstanceState;

    /// **Pull** phase. Returns its completion instant (`now` when cached),
    /// or a [`DeployError`] when an injected registry fault drops the
    /// transfer (nothing is cached from the failed attempt).
    fn pull(&mut self, svc: &EdgeService, now: SimTime, rng: &mut SimRng)
        -> Result<SimTime, DeployError>;

    /// **Create** phase. Returns its completion instant. A runtime fault
    /// rolls back any partially created containers before the error
    /// surfaces, so the phase can be retried.
    ///
    /// # Panics
    /// Panics if the service is already created (phases are explicit).
    fn create(&mut self, svc: &EdgeService, now: SimTime, rng: &mut SimRng)
        -> Result<SimTime, DeployError>;

    /// **Scale Up** phase. Returns `(command_done, ready_at)`:
    /// `command_done` is when the scale-up API call returns to the
    /// controller (Docker: `docker start` completed; Kubernetes: the scale
    /// request was acknowledged), `ready_at` when the instance actually
    /// accepts connections. The controller discovers the latter by port
    /// polling from `command_done` onward — the gap is the paper's *wait
    /// time* (Figs. 14/15).
    ///
    /// A genuinely unschedulable service is **not** an error: it returns
    /// `ready_at = SimTime::MAX` and callers time out. Injected faults
    /// (start failures, crashes, scheduling rejections) surface as
    /// [`DeployError`] after rolling back, leaving the service Created.
    fn scale_up(&mut self, svc: &EdgeService, now: SimTime, rng: &mut SimRng)
        -> Result<(SimTime, SimTime), DeployError>;

    /// **Scale Down** phase. Returns its completion instant.
    fn scale_down(&mut self, svc: &EdgeService, now: SimTime, rng: &mut SimRng) -> SimTime;

    /// A *runtime crash*: the instance dies in place (node failure, OOM
    /// kill, zone power loss) rather than being scaled down in an orderly
    /// way. The service drops back to `Created` so the normal Scale Up path
    /// can redeploy it; returns `true` if an instance was actually running
    /// (Ready or Starting). Only called by fault-injection harnesses, never
    /// on the fault-free path.
    fn fail_instance(&mut self, svc: &EdgeService, now: SimTime, rng: &mut SimRng) -> bool {
        match self.state(svc, now) {
            InstanceState::Ready(_) | InstanceState::Starting { .. } => {
                self.scale_down(svc, now, rng);
                true
            }
            InstanceState::NotDeployed | InstanceState::Created => false,
        }
    }

    /// **Remove** phase. Returns its completion instant.
    fn remove(&mut self, svc: &EdgeService, now: SimTime, rng: &mut SimRng) -> SimTime;

    /// The address a (ready or starting) instance serves at.
    fn instance_addr(&self, svc: &EdgeService) -> Option<InstanceAddr>;

    /// The service whose [`instance_addr`](Self::instance_addr) here is
    /// `(ip, port)`, if any: what a server resolves an address it has not
    /// seen before through. The Docker and Kubernetes adapters answer from a
    /// reverse index they keep as they hand addresses out and take them
    /// back, at the cost of one hash probe. This default, for an adapter
    /// that keeps none (a decorator that does not forward the call), asks
    /// every service of `services` in address order.
    fn service_at(&self, ip: Ipv4Addr, port: u16, services: &ServiceRegistry) -> Option<ServiceAddr> {
        services
            .iter()
            .find(|svc| self.instance_addr(svc).is_some_and(|a| (a.ip, a.port) == (ip, port)))
            .map(|svc| svc.addr)
    }

    /// Sizes the reverse index behind [`service_at`](Self::service_at) for
    /// `services` registered services, so it grows while services register
    /// and not while traffic runs. The controller calls it at every
    /// registration.
    fn reserve(&mut self, _services: usize) {}

    /// Number of services currently scaled up: the source of the
    /// `cluster.<name>.load` gauge.
    fn load(&self) -> usize;

    /// Point-in-time operation counters and cache rates for telemetry
    /// snapshots, as `(name, value)` pairs. Snapshots fold them into the
    /// metrics registry as `cluster.<cluster-name>.<name>` gauges.
    fn telemetry_stats(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Readiness model for sidecar containers without a listen port.
fn sidecar_ready() -> LogNormal {
    LogNormal::from_median(0.25, 0.25)
}

/// Finds the manifest of `image` within a service profile.
fn manifest_for<'a>(image: &ImageRef, profile: &'a ServiceProfile) -> &'a ImageManifest {
    profile
        .manifests
        .iter()
        .find(|m| m.reference == *image)
        .unwrap_or_else(|| panic!("image {image} not part of service profile {}", profile.key))
}

// ---------------------------------------------------------------------------
// Docker
// ---------------------------------------------------------------------------

struct DockerEntry {
    host_port: u16,
    containers: Vec<String>, // engine names, serving container first
    /// The serving container and the port its readiness probe asks about,
    /// fixed at create: [`EdgeCluster::state`] runs for every frame a server
    /// receives and probes by id, with no name to hash or compare. The id
    /// lives and dies with this entry (a re-created service gets a new one).
    serving: (ContainerId, u16),
    created: bool,
    running: bool,
    ready_at: SimTime,
}

/// A Docker-based edge cluster (the lightweight, fast-start option).
pub struct DockerCluster {
    name: String,
    engine: DockerEngine,
    host_mac: MacAddr,
    host_ip: Ipv4Addr,
    latency: Duration,
    next_port: u16,
    entries: FastMap<ServiceAddr, DockerEntry>,
    /// Host port → the service created on it: the reverse of `entries`'
    /// `host_port`, filed at create and dropped at remove.
    by_port: FastMap<u16, ServiceAddr>,
}

impl DockerCluster {
    /// Creates a Docker cluster on a host reachable at `host_ip`/`host_mac`.
    /// On-demand services get host ports allocated from 31000 upward.
    pub fn new(
        name: impl Into<String>,
        engine: DockerEngine,
        host_mac: MacAddr,
        host_ip: Ipv4Addr,
        latency: Duration,
    ) -> DockerCluster {
        DockerCluster {
            name: name.into(),
            engine,
            host_mac,
            host_ip,
            latency,
            next_port: 31000,
            entries: FastMap::default(),
            by_port: FastMap::default(),
        }
    }
}

impl EdgeCluster for DockerCluster {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &'static str {
        "docker"
    }

    fn latency(&self) -> Duration {
        self.latency
    }

    fn has_image_cached(&self, svc: &EdgeService) -> bool {
        let store = self.engine.node().store();
        svc.profile.manifests.iter().all(|m| store.has_image(m))
    }

    fn state(&self, svc: &EdgeService, now: SimTime) -> InstanceState {
        match self.entries.get(&svc.addr) {
            None => InstanceState::NotDeployed,
            Some(e) if !e.running => InstanceState::Created,
            Some(e) => {
                let (id, port) = e.serving;
                if self.engine.node().port_open(id, port, now) {
                    InstanceState::Ready(InstanceAddr {
                        mac: self.host_mac,
                        ip: self.host_ip,
                        port: e.host_port,
                    })
                } else {
                    InstanceState::Starting { ready_at: e.ready_at }
                }
            }
        }
    }

    fn pull(&mut self, svc: &EdgeService, now: SimTime, rng: &mut SimRng) -> Result<SimTime, DeployError> {
        match self.engine.try_pull(&svc.profile.manifests, rng) {
            Ok(d) => Ok(now + d),
            Err(e) => Err(DeployError {
                at: now + e.elapsed,
                phase: DeployPhase::Pull,
                reason: e.reason,
            }),
        }
    }

    fn create(&mut self, svc: &EdgeService, now: SimTime, rng: &mut SimRng) -> Result<SimTime, DeployError> {
        assert!(
            !self.entries.contains_key(&svc.addr),
            "service {} already created on {}",
            svc.name,
            self.name
        );
        let mut t = now;
        let mut names = Vec::new();
        let mut serving = None;
        // Serving container first so readiness probes target it.
        let mut specs: Vec<_> = svc.annotated.containers.iter().collect();
        specs.sort_by_key(|c| c.listen_port.is_none());
        for spec in specs {
            let manifest = manifest_for(&spec.image, &svc.profile).clone();
            match self.engine.create(Rc::clone(spec), &manifest, t, rng) {
                Ok((id, done)) => {
                    t = done;
                    names.push(spec.name.clone());
                    serving.get_or_insert((id, spec.listen_port.unwrap_or(svc.annotated.target_port)));
                }
                Err(e) => {
                    let mut at = match &e {
                        DockerError::Runtime(RuntimeError::Injected { at, .. }) => *at,
                        _ => t,
                    };
                    // Remove the containers created so far, so a retry does
                    // not trip over name conflicts.
                    for n in &names {
                        at = self
                            .engine
                            .remove(n, at, rng)
                            .expect("partially created container exists");
                    }
                    return Err(DeployError {
                        at,
                        phase: DeployPhase::Create,
                        reason: e.to_string(),
                    });
                }
            }
        }
        let host_port = self.next_port;
        self.next_port += 1;
        self.by_port.insert(host_port, svc.addr);
        self.entries.insert(
            svc.addr,
            DockerEntry {
                host_port,
                containers: names,
                serving: serving.expect("a service has at least one container"),
                created: true,
                running: false,
                ready_at: SimTime::MAX,
            },
        );
        Ok(t)
    }

    fn scale_up(
        &mut self,
        svc: &EdgeService,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Result<(SimTime, SimTime), DeployError> {
        let entry = self
            .entries
            .get(&svc.addr)
            .unwrap_or_else(|| panic!("scale_up before create for {}", svc.name));
        assert!(entry.created && !entry.running, "bad phase order");
        let containers = entry.containers.clone();
        let mut t = now;
        let mut ready = now;
        let mut started = Vec::new();
        for (i, name) in containers.iter().enumerate() {
            // The serving container — created first — draws from the service
            // profile; sidecars from the generic sidecar model.
            let serving = i == 0;
            let delay = if serving {
                svc.profile.ready_delay.sample_duration(rng)
            } else {
                sidecar_ready().sample_duration(rng)
            };
            match self.engine.start(name, t, delay, rng) {
                Ok((s, r)) => {
                    t = s;
                    if serving {
                        ready = ready.max(r);
                    }
                    started.push(name.clone());
                }
                Err(e) => {
                    let mut at = match &e {
                        DockerError::Runtime(RuntimeError::Injected { at, .. })
                        | DockerError::Runtime(RuntimeError::CrashedAfterStart { at }) => *at,
                        _ => t,
                    };
                    // Stop the containers that did start (the failed one is
                    // already stopped or never ran), so a retry can start
                    // them all again.
                    for n in &started {
                        at = self.engine.stop(n, at, rng).expect("started container exists");
                    }
                    return Err(DeployError {
                        at,
                        phase: DeployPhase::ScaleUp,
                        reason: e.to_string(),
                    });
                }
            }
        }
        let entry = self.entries.get_mut(&svc.addr).expect("entry exists");
        entry.running = true;
        entry.ready_at = ready.max(t);
        // `docker start` returns once every task is launched (t); the app
        // inside may still be loading until `ready_at`.
        Ok((t, entry.ready_at))
    }

    fn scale_down(&mut self, svc: &EdgeService, now: SimTime, rng: &mut SimRng) -> SimTime {
        let Some(entry) = self.entries.get_mut(&svc.addr) else {
            return now;
        };
        if !entry.running {
            return now;
        }
        entry.running = false;
        entry.ready_at = SimTime::MAX;
        let containers = entry.containers.clone();
        let mut t = now;
        for name in &containers {
            t = self.engine.stop(name, t, rng).expect("container exists");
        }
        t
    }

    fn remove(&mut self, svc: &EdgeService, now: SimTime, rng: &mut SimRng) -> SimTime {
        let Some(entry) = self.entries.remove(&svc.addr) else {
            return now;
        };
        self.by_port.remove(&entry.host_port);
        let mut t = now;
        for name in &entry.containers {
            t = self.engine.remove(name, t, rng).expect("container exists");
        }
        t
    }

    fn instance_addr(&self, svc: &EdgeService) -> Option<InstanceAddr> {
        self.entries.get(&svc.addr).map(|e| InstanceAddr {
            mac: self.host_mac,
            ip: self.host_ip,
            port: e.host_port,
        })
    }

    fn service_at(&self, ip: Ipv4Addr, port: u16, _: &ServiceRegistry) -> Option<ServiceAddr> {
        if ip != self.host_ip {
            return None;
        }
        self.by_port.get(&port).copied()
    }

    fn reserve(&mut self, services: usize) {
        reserve_churned(&mut self.by_port, services);
    }

    fn load(&self) -> usize {
        self.entries.values().filter(|e| e.running).count()
    }

    fn telemetry_stats(&self) -> Vec<(&'static str, f64)> {
        let ops = self.engine.ops;
        let mut stats = vec![
            ("ops_pulls", ops.pulls as f64),
            ("ops_creates", ops.creates as f64),
            ("ops_starts", ops.starts as f64),
            ("ops_stops", ops.stops as f64),
            ("ops_removes", ops.removes as f64),
        ];
        if let Some(rate) = self.engine.node().store().cache().hit_rate() {
            stats.push(("layer_cache_hit_rate", rate));
        }
        stats
    }
}

// ---------------------------------------------------------------------------
// Kubernetes
// ---------------------------------------------------------------------------

struct K8sEntry {
    deployment: DeploymentId,
    scaled_up: bool,
    ready_at: SimTime,
    pod_addr: Option<([u8; 4], u16)>,
}

/// A Kubernetes-based edge cluster (automated management, slower starts).
pub struct K8sEdgeCluster {
    name: String,
    cluster: K8sCluster,
    host_mac: MacAddr,
    latency: Duration,
    scheduler_name: Option<String>,
    entries: FastMap<ServiceAddr, K8sEntry>,
    /// Pod `(ip, port)` → the service it serves: the reverse of the entries'
    /// `pod_addr`, filed at scale-up and dropped at scale-down and remove.
    by_pod: FastMap<([u8; 4], u16), ServiceAddr>,
    /// The trail of the last `settle`, its capacity kept for the next.
    events: Vec<ClusterEvent>,
}

impl K8sEdgeCluster {
    /// Creates a K8s cluster adapter; `host_mac` is the worker node's NIC
    /// (pod IPs are reached through it). `scheduler_name` selects a Local
    /// Scheduler for edge pods.
    pub fn new(
        name: impl Into<String>,
        cluster: K8sCluster,
        host_mac: MacAddr,
        latency: Duration,
        scheduler_name: Option<String>,
    ) -> K8sEdgeCluster {
        K8sEdgeCluster {
            name: name.into(),
            cluster,
            host_mac,
            latency,
            scheduler_name,
            entries: FastMap::default(),
            by_pod: FastMap::default(),
            events: Vec::new(),
        }
    }

    /// Access to the underlying cluster (fault injection in the tests).
    #[cfg(test)]
    pub(crate) fn cluster_mut(&mut self) -> &mut K8sCluster {
        &mut self.cluster
    }

    fn build_objects(&self, svc: &EdgeService) -> (k8ssim::Deployment, k8ssim::Service) {
        let labels: BTreeMap<String, String> = [
            ("app".to_owned(), svc.name.clone()),
            (EDGE_SERVICE_LABEL.to_owned(), svc.annotated.edge_label.clone()),
        ]
        .into();
        let containers = svc
            .annotated
            .containers
            .iter()
            .map(|spec| {
                let serving = spec.listen_port.is_some();
                PodContainer {
                    spec: Rc::clone(spec),
                    manifest: manifest_for(&spec.image, &svc.profile).clone(),
                    ready: if serving {
                        svc.profile.ready_delay
                    } else {
                        sidecar_ready()
                    },
                }
            })
            .collect();
        let dep = k8ssim::Deployment {
            name: svc.name.clone(),
            labels: labels.clone(),
            replicas: 0,
            selector: labels.clone(),
            template: PodTemplate {
                labels: labels.clone().into(),
                containers,
            },
            scheduler_name: self.scheduler_name.clone(),
        };
        let service = k8ssim::Service {
            name: svc.name.clone(),
            selector: labels,
            port: svc.annotated.port,
            target_port: svc.annotated.target_port,
            protocol: "TCP".to_owned(),
        };
        (dep, service)
    }
}

/// When the last pod of a settle's trail finished terminating.
fn last_termination(events: &[ClusterEvent]) -> Option<SimTime> {
    events
        .iter()
        .filter_map(|e| match e {
            ClusterEvent::PodTerminated { at, .. } => Some(*at),
            _ => None,
        })
        .max()
}

impl EdgeCluster for K8sEdgeCluster {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &'static str {
        "k8s"
    }

    fn latency(&self) -> Duration {
        self.latency
    }

    fn has_image_cached(&self, svc: &EdgeService) -> bool {
        // Caches are per worker node: the image counts as cached when some
        // node could start the service without pulling.
        self.cluster.any_worker_has(&svc.profile.manifests)
    }

    fn state(&self, svc: &EdgeService, now: SimTime) -> InstanceState {
        match self.entries.get(&svc.addr) {
            None => InstanceState::NotDeployed,
            Some(e) if !e.scaled_up => InstanceState::Created,
            Some(e) => match self.cluster.first_ready_endpoint(e.deployment, now) {
                Some((ip, port)) => InstanceState::Ready(InstanceAddr {
                    mac: self.host_mac,
                    ip: Ipv4Addr(ip),
                    port,
                }),
                None => InstanceState::Starting { ready_at: e.ready_at },
            },
        }
    }

    fn pull(&mut self, svc: &EdgeService, now: SimTime, rng: &mut SimRng) -> Result<SimTime, DeployError> {
        match self.cluster.node_mut().try_pull(&svc.profile.manifests, rng) {
            Ok(d) => Ok(now + d),
            Err(e) => Err(DeployError {
                at: now + e.elapsed,
                phase: DeployPhase::Pull,
                reason: e.reason,
            }),
        }
    }

    fn create(&mut self, svc: &EdgeService, now: SimTime, rng: &mut SimRng) -> Result<SimTime, DeployError> {
        assert!(
            !self.entries.contains_key(&svc.addr),
            "service {} already created on {}",
            svc.name,
            self.name
        );
        let (dep, service) = self.build_objects(svc);
        let (deployment, acked) = self.cluster.apply(dep, service, now, rng);
        // The zero-replica reconciliation (ReplicaSet creation) completes the
        // Create phase.
        self.cluster.settle(rng, &mut self.events);
        let done = self
            .events
            .iter()
            .filter_map(|e| match e {
                ClusterEvent::ReplicaSetCreated { at, .. } => Some(*at),
                _ => None,
            })
            .max()
            .unwrap_or(acked);
        self.entries.insert(
            svc.addr,
            K8sEntry {
                deployment,
                scaled_up: false,
                ready_at: SimTime::MAX,
                pod_addr: None,
            },
        );
        Ok(done)
    }

    fn scale_up(
        &mut self,
        svc: &EdgeService,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Result<(SimTime, SimTime), DeployError> {
        let entry = self
            .entries
            .get(&svc.addr)
            .unwrap_or_else(|| panic!("scale_up before create for {}", svc.name));
        assert!(!entry.scaled_up, "bad phase order");
        let deployment = entry.deployment;
        // `kubectl scale` returns as soon as the API server acknowledges;
        // the whole reconciliation happens afterwards.
        let acked = self.cluster.scale(deployment, 1, now, rng);
        self.cluster.settle(rng, &mut self.events);
        let ready = self.events.iter().find_map(|e| match e {
            ClusterEvent::PodReady { at, ip, .. } => Some((*at, *ip)),
            _ => None,
        });
        let injected = self.cluster.take_injected_rejections();
        if ready.is_none() && injected > 0 {
            // An *injected* scheduling rejection left a pod stuck Pending.
            // Roll back to zero replicas (the ReplicaSet controller ignores
            // unchanged counts, so a retry must re-create the pod) and
            // surface the failure.
            let rejected_at = self
                .events
                .iter()
                .filter_map(|e| match e {
                    ClusterEvent::PodUnschedulable { at, .. } => Some(*at),
                    _ => None,
                })
                .max()
                .unwrap_or(acked);
            let t = self.cluster.scale(deployment, 0, rejected_at, rng);
            self.cluster.settle(rng, &mut self.events);
            let at = last_termination(&self.events).unwrap_or(t);
            return Err(DeployError {
                at,
                phase: DeployPhase::ScaleUp,
                reason: "scheduler rejected the scale-up".to_owned(),
            });
        }
        let entry = self.entries.get_mut(&svc.addr).expect("entry exists");
        entry.scaled_up = true;
        match ready {
            Some((at, ip)) => {
                entry.ready_at = at;
                let pod = (ip, svc.annotated.target_port);
                entry.pod_addr = Some(pod);
                self.by_pod.insert(pod, svc.addr);
                Ok((acked, at))
            }
            None => {
                // Genuinely unschedulable (cluster full): stays Starting
                // forever; callers time out.
                entry.ready_at = SimTime::MAX;
                Ok((acked, SimTime::MAX))
            }
        }
    }

    fn scale_down(&mut self, svc: &EdgeService, now: SimTime, rng: &mut SimRng) -> SimTime {
        let Some(entry) = self.entries.get_mut(&svc.addr) else {
            return now;
        };
        if !entry.scaled_up {
            return now;
        }
        entry.scaled_up = false;
        entry.ready_at = SimTime::MAX;
        if let Some(pod) = entry.pod_addr.take() {
            self.by_pod.remove(&pod);
        }
        self.cluster.scale(entry.deployment, 0, now, rng);
        self.cluster.settle(rng, &mut self.events);
        last_termination(&self.events).unwrap_or(now)
    }

    fn remove(&mut self, svc: &EdgeService, now: SimTime, rng: &mut SimRng) -> SimTime {
        let Some(entry) = self.entries.remove(&svc.addr) else {
            return now;
        };
        if let Some(pod) = entry.pod_addr {
            self.by_pod.remove(&pod);
        }
        let t = self.cluster.delete_deployment(entry.deployment, now, rng);
        let t = self.cluster.delete_service(entry.deployment, t, rng);
        self.cluster.settle(rng, &mut self.events);
        last_termination(&self.events).unwrap_or(t)
    }

    fn instance_addr(&self, svc: &EdgeService) -> Option<InstanceAddr> {
        let entry = self.entries.get(&svc.addr)?;
        let (ip, port) = entry.pod_addr?;
        Some(InstanceAddr {
            mac: self.host_mac,
            ip: Ipv4Addr(ip),
            port,
        })
    }

    fn service_at(&self, ip: Ipv4Addr, port: u16, _: &ServiceRegistry) -> Option<ServiceAddr> {
        self.by_pod.get(&(ip.octets(), port)).copied()
    }

    fn reserve(&mut self, services: usize) {
        reserve_churned(&mut self.by_pod, services);
    }

    fn load(&self) -> usize {
        self.entries.values().filter(|e| e.scaled_up).count()
    }

    fn telemetry_stats(&self) -> Vec<(&'static str, f64)> {
        let ops = self.cluster.ops;
        let mut stats = vec![
            ("ops_applies", ops.applies as f64),
            ("ops_scales", ops.scales as f64),
            ("ops_deletes", ops.deletes as f64),
        ];
        if let Some(rate) = self.cluster.node().store().cache().hit_rate() {
            stats.push(("layer_cache_hit_rate", rate));
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::annotate_deployment;
    use netsim::ServiceAddr;

    fn make_service(key: &str, port: u16) -> EdgeService {
        let profile = containerd::ServiceSet::by_key(key).unwrap();
        EdgeService::from_profile(profile, ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), port))
    }

    /// `make_service` with the listen port on container `serving` of the
    /// manifest instead of the first.
    fn make_service_serving_from(key: &str, port: u16, serving: usize) -> EdgeService {
        let profile = containerd::ServiceSet::by_key(key).unwrap();
        let addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), port);
        let containers: String = profile
            .manifests
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let ports = if i == serving {
                    format!("\n          ports:\n            - containerPort: {}", profile.listen_port)
                } else {
                    String::new()
                };
                format!("        - name: c{i}\n          image: {}{}\n", m.reference, ports)
            })
            .collect();
        let yaml = format!("spec:\n  template:\n    spec:\n      containers:\n{containers}");
        let annotated = annotate_deployment(&yaml, addr, None).unwrap();
        EdgeService {
            addr,
            name: annotated.service_name.clone(),
            annotated,
            profile,
        }
    }

    fn docker_cluster() -> DockerCluster {
        DockerCluster::new(
            "edge-docker",
            DockerEngine::with_defaults(),
            MacAddr::from_id(100),
            Ipv4Addr::new(10, 0, 0, 10),
            Duration::from_micros(150),
        )
    }

    fn k8s_cluster() -> K8sEdgeCluster {
        K8sEdgeCluster::new(
            "edge-k8s",
            K8sCluster::with_defaults(),
            MacAddr::from_id(100),
            Duration::from_micros(150),
            None,
        )
    }

    #[test]
    fn docker_full_phase_cycle() {
        let mut rng = SimRng::new(1);
        let mut c = docker_cluster();
        let svc = make_service("nginx", 80);
        assert!(!c.has_image_cached(&svc));
        assert_eq!(c.state(&svc, SimTime::ZERO), InstanceState::NotDeployed);

        let t = c.pull(&svc, SimTime::ZERO, &mut rng).unwrap();
        assert!(t > SimTime::ZERO);
        assert!(c.has_image_cached(&svc));

        let t2 = c.create(&svc, t, &mut rng).unwrap();
        assert!(t2 > t);
        assert_eq!(c.state(&svc, t2), InstanceState::Created);

        let (_, ready) = c.scale_up(&svc, t2, &mut rng).unwrap();
        // Cached-image Docker scale-up: sub-second (the headline number).
        assert!(ready - t2 < Duration::from_secs(1), "took {}", ready - t2);
        assert!(matches!(c.state(&svc, t2), InstanceState::Starting { .. }));
        let state = c.state(&svc, ready);
        let InstanceState::Ready(addr) = state else {
            panic!("not ready: {state:?}");
        };
        assert_eq!(addr.ip, Ipv4Addr::new(10, 0, 0, 10));
        assert_eq!(addr.port, 31000);
        assert_eq!(c.load(), 1);

        let t3 = c.scale_down(&svc, ready + Duration::from_secs(60), &mut rng);
        assert!(!c.state(&svc, t3 + Duration::from_secs(1)).is_ready());
        assert_eq!(c.load(), 0);
        let t4 = c.remove(&svc, t3, &mut rng);
        assert_eq!(c.state(&svc, t4), InstanceState::NotDeployed);
    }

    #[test]
    fn k8s_full_phase_cycle_is_slower() {
        let mut rng = SimRng::new(2);
        let mut c = k8s_cluster();
        let svc = make_service("nginx", 80);
        let t = c.pull(&svc, SimTime::ZERO, &mut rng).unwrap();
        let t2 = c.create(&svc, t, &mut rng).unwrap();
        assert_eq!(c.state(&svc, t2), InstanceState::Created);

        let (_, ready) = c.scale_up(&svc, t2, &mut rng).unwrap();
        let elapsed = ready - t2;
        // The K8s orchestration gap: around 3 s vs Docker's sub-second.
        assert!(
            elapsed > Duration::from_millis(1800) && elapsed < Duration::from_millis(4500),
            "took {elapsed}"
        );
        let InstanceState::Ready(addr) = c.state(&svc, ready) else {
            panic!("not ready");
        };
        assert_eq!(addr.ip.octets()[0], 10, "pod IP");
        assert_eq!(addr.port, 80);
        assert_eq!(c.load(), 1);

        let down = c.scale_down(&svc, ready + Duration::from_secs(60), &mut rng);
        assert!(down > ready);
        assert!(!c.state(&svc, down + Duration::from_secs(5)).is_ready());
        c.remove(&svc, down, &mut rng);
        assert_eq!(c.state(&svc, down), InstanceState::NotDeployed);
    }

    #[test]
    fn docker_beats_k8s_on_scale_up_same_seed() {
        let svc = make_service("nginx", 80);
        let mut rng = SimRng::new(3);
        let mut d = docker_cluster();
        let t = d.pull(&svc, SimTime::ZERO, &mut rng).unwrap();
        let t = d.create(&svc, t, &mut rng).unwrap();
        let d_ready = d.scale_up(&svc, t, &mut rng).unwrap().1 - t;

        let mut rng = SimRng::new(3);
        let mut k = k8s_cluster();
        let t = k.pull(&svc, SimTime::ZERO, &mut rng).unwrap();
        let t = k.create(&svc, t, &mut rng).unwrap();
        let k_ready = k.scale_up(&svc, t, &mut rng).unwrap().1 - t;

        assert!(k_ready > d_ready * 2, "docker {d_ready} vs k8s {k_ready}");
    }

    #[test]
    fn two_container_service_on_both_clusters() {
        let svc = make_service("nginx-py", 80);
        assert_eq!(svc.annotated.containers.len(), 2);
        let mut rng = SimRng::new(4);

        let mut d = docker_cluster();
        let t = d.pull(&svc, SimTime::ZERO, &mut rng).unwrap();
        let t = d.create(&svc, t, &mut rng).unwrap();
        let (_, ready) = d.scale_up(&svc, t, &mut rng).unwrap();
        assert!(d.state(&svc, ready).is_ready());
        assert!(svc.annotated.containers.iter().all(|c| d.engine.id_of(&c.name).is_ok()));

        let mut k = k8s_cluster();
        let t = k.pull(&svc, SimTime::ZERO, &mut rng).unwrap();
        let t = k.create(&svc, t, &mut rng).unwrap();
        let (_, ready) = k.scale_up(&svc, t, &mut rng).unwrap();
        assert!(k.state(&svc, ready).is_ready());
    }

    #[test]
    #[should_panic(expected = "scale_up before create")]
    fn phase_order_enforced_docker() {
        let mut rng = SimRng::new(5);
        let mut c = docker_cluster();
        let svc = make_service("asm", 80);
        let _ = c.scale_up(&svc, SimTime::ZERO, &mut rng);
    }

    #[test]
    fn resnet_takes_longer_to_become_ready() {
        let mut rng = SimRng::new(6);
        let mut c = docker_cluster();
        let svc = make_service("resnet", 8501);
        let t = c.pull(&svc, SimTime::ZERO, &mut rng).unwrap();
        let t = c.create(&svc, t, &mut rng).unwrap();
        let (_, ready) = c.scale_up(&svc, t, &mut rng).unwrap();
        assert!(
            ready - t > Duration::from_millis(1500),
            "resnet ready in {}",
            ready - t
        );
    }

    #[test]
    fn distinct_services_get_distinct_docker_host_ports() {
        let mut rng = SimRng::new(7);
        let mut c = docker_cluster();
        let a = make_service("asm", 80);
        let b = make_service("nginx", 81);
        let t = c.pull(&a, SimTime::ZERO, &mut rng).unwrap();
        let t = c.pull(&b, t, &mut rng).unwrap();
        let t = c.create(&a, t, &mut rng).unwrap();
        let t = c.create(&b, t, &mut rng).unwrap();
        let pa = c.instance_addr(&a).unwrap().port;
        let pb = c.instance_addr(&b).unwrap().port;
        assert_ne!(pa, pb);
        let _ = t;
    }

    #[test]
    fn docker_create_fault_rolls_back_and_is_retryable() {
        use desim::FaultPlan;
        let mut rng = SimRng::new(8);
        let mut c = docker_cluster();
        let svc = make_service("nginx-py", 80); // two containers
        let t = c.pull(&svc, SimTime::ZERO, &mut rng).unwrap();
        c.engine.node_mut().set_faults(
            FaultPlan {
                create_failure: 0.5,
                seed: 40,
                ..FaultPlan::default()
            }
            .injector(0x31),
        );
        // Keep creating until a fault hits, then verify clean rollback.
        let mut t = t;
        let err = loop {
            match c.create(&svc, t, &mut rng) {
                Err(e) => break e,
                Ok(done) => {
                    t = c.scale_down(&svc, done, &mut rng);
                    t = c.remove(&svc, t, &mut rng);
                }
            }
        };
        assert_eq!(err.phase, DeployPhase::Create);
        assert!(err.at >= t);
        assert_eq!(c.state(&svc, err.at), InstanceState::NotDeployed);
        assert!(
            svc.annotated.containers.iter().all(|k| c.engine.id_of(&k.name).is_err()),
            "partial create rolled back"
        );
        // Retry without faults succeeds from the failure instant.
        c.engine.node_mut().set_faults(FaultPlan::default().injector(0x32));
        let done = c.create(&svc, err.at, &mut rng).unwrap();
        let (_, ready) = c.scale_up(&svc, done, &mut rng).unwrap();
        assert!(c.state(&svc, ready).is_ready());
    }

    #[test]
    fn docker_start_fault_leaves_service_created_for_retry() {
        use desim::FaultPlan;
        let mut rng = SimRng::new(9);
        let mut c = docker_cluster();
        let svc = make_service("nginx-py", 80);
        let t = c.pull(&svc, SimTime::ZERO, &mut rng).unwrap();
        let t = c.create(&svc, t, &mut rng).unwrap();
        c.engine.node_mut().set_faults(
            FaultPlan {
                start_failure: 1.0,
                ..FaultPlan::default()
            }
            .injector(0x33),
        );
        let err = c.scale_up(&svc, t, &mut rng).unwrap_err();
        assert_eq!(err.phase, DeployPhase::ScaleUp);
        assert_eq!(c.state(&svc, err.at), InstanceState::Created);
        assert_eq!(c.load(), 0);
        c.engine.node_mut().set_faults(FaultPlan::default().injector(0x34));
        let (_, ready) = c.scale_up(&svc, err.at, &mut rng).unwrap();
        assert!(c.state(&svc, ready).is_ready());
    }

    #[test]
    fn fail_instance_drops_to_created_and_is_redeployable() {
        let mut rng = SimRng::new(11);
        for (label, mut c) in [
            ("docker", Box::new(docker_cluster()) as Box<dyn EdgeCluster>),
            ("k8s", Box::new(k8s_cluster())),
        ] {
            let svc = make_service("nginx", 80);
            assert!(
                !c.fail_instance(&svc, SimTime::ZERO, &mut rng),
                "{label}: nothing running to crash"
            );
            let t = c.pull(&svc, SimTime::ZERO, &mut rng).unwrap();
            let t = c.create(&svc, t, &mut rng).unwrap();
            assert!(!c.fail_instance(&svc, t, &mut rng), "{label}: Created is not running");
            let (_, ready) = c.scale_up(&svc, t, &mut rng).unwrap();
            assert!(c.fail_instance(&svc, ready, &mut rng), "{label}: crashed a Ready instance");
            assert_eq!(
                c.state(&svc, ready + Duration::from_secs(5)),
                InstanceState::Created,
                "{label}: crash leaves the service Created for redeploy"
            );
            assert_eq!(c.load(), 0, "{label}");
            // The normal Scale Up path recovers the instance.
            let (_, again) = c.scale_up(&svc, ready + Duration::from_secs(5), &mut rng).unwrap();
            assert!(c.state(&svc, again).is_ready(), "{label}: redeployed");
        }
    }

    /// The container of `svc` that answers its readiness probe, found in the
    /// service definition: the first with a listen port, else the first.
    fn serving_container(svc: &EdgeService) -> &containerd::ContainerSpec {
        let containers = &svc.annotated.containers;
        containers.iter().find(|c| c.listen_port.is_some()).unwrap_or(&containers[0])
    }

    /// `DockerCluster::state` as it was before the entry remembered its
    /// serving container's id: find the serving container in the service
    /// definition and probe the engine by *name*. Kept as the oracle.
    fn state_by_name(c: &DockerCluster, svc: &EdgeService, now: SimTime) -> InstanceState {
        match c.entries.get(&svc.addr) {
            None => InstanceState::NotDeployed,
            Some(e) if !e.running => InstanceState::Created,
            Some(e) => {
                let serving = serving_container(svc);
                let port = serving.listen_port.unwrap_or(svc.annotated.target_port);
                if c.engine.id_of(&serving.name).is_ok_and(|id| c.engine.node().port_open(id, port, now)) {
                    InstanceState::Ready(InstanceAddr { mac: c.host_mac, ip: c.host_ip, port: e.host_port })
                } else {
                    InstanceState::Starting { ready_at: e.ready_at }
                }
            }
        }
    }

    /// The state at `at`, which the by-name probe must agree with — as it
    /// must a little and much later.
    fn probed(c: &DockerCluster, svc: &EdgeService, at: SimTime) -> InstanceState {
        for t in [at, at + Duration::from_millis(1), at + Duration::from_secs(3600)] {
            assert_eq!(c.state(svc, t), state_by_name(c, svc, t), "{} at {t:?}", svc.name);
        }
        c.state(svc, at)
    }

    #[test]
    fn the_remembered_container_id_answers_what_the_by_name_probe_answers() {
        let mut rng = SimRng::new(12);
        // One container; two with the serving one first; two with it last.
        for svc in [
            make_service("nginx", 80),
            make_service("nginx-py", 80),
            make_service_serving_from("nginx-py", 80, 1),
        ] {
            let mut c = docker_cluster();
            // A neighbour, so ids and names are not the only ones around.
            let other = make_service("asm", 81);
            let t = c.pull(&other, SimTime::ZERO, &mut rng).unwrap();
            let t = c.create(&other, t, &mut rng).unwrap();
            c.scale_up(&other, t, &mut rng).unwrap();

            assert_eq!(probed(&c, &svc, t), InstanceState::NotDeployed);
            let t = c.pull(&svc, t, &mut rng).unwrap();
            let t = c.create(&svc, t, &mut rng).unwrap();
            assert_eq!(probed(&c, &svc, t), InstanceState::Created);
            let first_id = c.entries[&svc.addr].serving.0;
            let serving = serving_container(&svc);
            assert_eq!(c.engine.id_of(&serving.name), Ok(first_id));
            assert_eq!(c.entries[&svc.addr].containers[0], serving.name);

            let (_, ready) = c.scale_up(&svc, t, &mut rng).unwrap();
            assert_eq!(probed(&c, &svc, t), InstanceState::Starting { ready_at: ready });
            assert!(probed(&c, &svc, ready).is_ready());

            assert!(c.fail_instance(&svc, ready, &mut rng));
            assert_eq!(probed(&c, &svc, ready), InstanceState::Created);
            let t = c.scale_down(&svc, ready + Duration::from_secs(1), &mut rng);
            assert_eq!(probed(&c, &svc, t), InstanceState::Created, "nothing left to scale down");
            let (_, ready) = c.scale_up(&svc, t, &mut rng).unwrap();
            assert!(probed(&c, &svc, ready).is_ready(), "same container, started again");
            assert_eq!(c.entries[&svc.addr].serving.0, first_id);

            // Removed while running, created again: a new container id.
            let t = c.remove(&svc, ready + Duration::from_secs(1), &mut rng);
            assert_eq!(probed(&c, &svc, t), InstanceState::NotDeployed);
            let t = c.create(&svc, t, &mut rng).unwrap();
            assert_eq!(probed(&c, &svc, t), InstanceState::Created);
            assert_ne!(c.entries[&svc.addr].serving.0, first_id);
            let (_, ready) = c.scale_up(&svc, t, &mut rng).unwrap();
            assert!(probed(&c, &svc, ready).is_ready());
            assert!(probed(&c, &other, ready).is_ready(), "the neighbour is still its own");
        }
    }

    /// A create that fails on its second container rolls the first one back:
    /// no entry, so no remembered id, and the retry remembers the new one.
    #[test]
    fn a_rolled_back_create_leaves_no_container_id_behind() {
        use desim::FaultPlan;
        let mut rng = SimRng::new(13);
        let mut c = docker_cluster();
        let svc = make_service_serving_from("nginx-py", 80, 1);
        let mut t = c.pull(&svc, SimTime::ZERO, &mut rng).unwrap();
        let plan = FaultPlan { create_failure: 0.5, seed: 41, ..FaultPlan::default() };
        c.engine.node_mut().set_faults(plan.injector(0x37));
        let mut earlier_ids = Vec::new();
        loop {
            let removes = c.engine.ops.removes;
            match c.create(&svc, t, &mut rng) {
                Ok(done) => {
                    earlier_ids.push(c.entries[&svc.addr].serving.0);
                    assert_eq!(probed(&c, &svc, done), InstanceState::Created);
                    t = c.remove(&svc, done, &mut rng);
                }
                Err(e) => {
                    t = e.at;
                    assert_eq!(probed(&c, &svc, t), InstanceState::NotDeployed);
                    assert!(svc.annotated.containers.iter().all(|k| c.engine.id_of(&k.name).is_err()));
                    if c.engine.ops.removes > removes {
                        break; // the serving container had been created
                    }
                }
            }
        }
        c.engine.node_mut().set_faults(FaultPlan::default().injector(0x38));
        let done = c.create(&svc, t, &mut rng).unwrap();
        assert!(!earlier_ids.contains(&c.entries[&svc.addr].serving.0));
        let (_, ready) = c.scale_up(&svc, done, &mut rng).unwrap();
        assert!(probed(&c, &svc, ready).is_ready());
    }

    #[test]
    fn k8s_injected_rejection_rolls_back_and_is_retryable() {
        use desim::FaultPlan;
        let mut rng = SimRng::new(10);
        let mut c = k8s_cluster();
        let svc = make_service("nginx", 80);
        let t = c.pull(&svc, SimTime::ZERO, &mut rng).unwrap();
        let t = c.create(&svc, t, &mut rng).unwrap();
        c.cluster_mut().set_faults(
            FaultPlan {
                scale_up_rejection: 1.0,
                ..FaultPlan::default()
            }
            .injector(0x35),
        );
        let err = c.scale_up(&svc, t, &mut rng).unwrap_err();
        assert_eq!(err.phase, DeployPhase::ScaleUp);
        assert_eq!(c.state(&svc, err.at), InstanceState::Created, "rolled back to Created");
        // Retry after the fault clears redeploys the pod from scratch.
        c.cluster_mut().set_faults(FaultPlan::default().injector(0x36));
        let (_, ready) = c.scale_up(&svc, err.at, &mut rng).unwrap();
        assert!(ready < SimTime::MAX);
        assert!(c.state(&svc, ready).is_ready());
    }

    /// Every image layer of `svc` on the Docker host's disk, asked of the
    /// store itself.
    fn docker_on_disk(c: &DockerCluster, svc: &EdgeService) -> bool {
        let store = c.engine.node().store();
        svc.profile.manifests.iter().all(|m| store.has_image(m))
    }

    /// Every image layer of `svc` on some K8s worker's disk.
    fn k8s_on_disk(c: &K8sEdgeCluster, svc: &EdgeService) -> bool {
        c.cluster.any_worker_has(&svc.profile.manifests)
    }

    fn docker_store(c: &mut DockerCluster) -> &mut containerd::ContentStore {
        c.engine.node_mut().store_mut()
    }

    fn k8s_store(c: &mut K8sEdgeCluster) -> &mut containerd::ContentStore {
        c.cluster.node_mut().store_mut()
    }

    /// The adapter's image verdict for `svc` — asked twice, so a latched
    /// answer is read too — equals a fresh probe of the stores and `expect`.
    fn verdict<C: EdgeCluster>(c: &C, on_disk: fn(&C, &EdgeService) -> bool, svc: &EdgeService, expect: bool) {
        for _ in 0..2 {
            assert_eq!(c.has_image_cached(svc), on_disk(c, svc), "{} on {}", svc.name, c.kind());
            assert_eq!(c.has_image_cached(svc), expect, "{} on {}", svc.name, c.kind());
        }
    }

    /// The cases a shortcut for the latched verdict would get wrong: a
    /// verdict set at pull time misses a service that shares the pulled
    /// image, and one that remembered a failed pull would answer true.
    fn image_verdict_tracks_the_layer_stores<C: EdgeCluster>(
        mut c: C,
        on_disk: fn(&C, &EdgeService) -> bool,
        store: fn(&mut C) -> &mut containerd::ContentStore,
    ) -> (C, SimTime) {
        use desim::FaultPlan;
        let mut rng = SimRng::new(14);
        let a = make_service("nginx", 80);
        let b = make_service("nginx", 81); // A's image at another address
        let r = make_service("resnet", 8501);
        for svc in [&a, &b, &r] {
            verdict(&c, on_disk, svc, false);
        }

        let plan = FaultPlan { pull_failure: 1.0, ..FaultPlan::default() };
        store(&mut c).set_faults(plan.injector(0x39));
        let err = c.pull(&r, SimTime::ZERO, &mut rng).unwrap_err();
        assert_eq!(err.phase, DeployPhase::Pull);
        verdict(&c, on_disk, &r, false);
        store(&mut c).set_faults(FaultPlan::default().injector(0x3a));
        let t = c.pull(&r, err.at, &mut rng).unwrap();
        verdict(&c, on_disk, &r, true);

        let t = c.pull(&a, t, &mut rng).unwrap();
        verdict(&c, on_disk, &a, true);
        verdict(&c, on_disk, &b, true);

        let t = c.create(&a, t, &mut rng).unwrap();
        let (_, ready) = c.scale_up(&a, t, &mut rng).unwrap();
        verdict(&c, on_disk, &a, true);
        assert!(c.fail_instance(&a, ready, &mut rng));
        verdict(&c, on_disk, &a, true);
        let (_, ready) = c.scale_up(&a, ready, &mut rng).unwrap();
        let t = c.scale_down(&a, ready, &mut rng);
        verdict(&c, on_disk, &a, true);
        let t = c.remove(&a, t, &mut rng);
        assert_eq!(c.state(&a, t), InstanceState::NotDeployed);
        for svc in [&a, &b, &r] {
            verdict(&c, on_disk, svc, true);
        }
        (c, t)
    }

    #[test]
    fn the_image_verdict_is_the_layer_stores_on_docker_and_k8s() {
        image_verdict_tracks_the_layer_stores(docker_cluster(), docker_on_disk, docker_store);
        let (mut k, t) = image_verdict_tracks_the_layer_stores(k8s_cluster(), k8s_on_disk, k8s_store);
        // A K8s create needs no image: a verdict read off the deployment
        // state would answer true here.
        let mut rng = SimRng::new(15);
        let s = make_service("asm", 82);
        let t = k.create(&s, t, &mut rng).unwrap();
        assert_eq!(k.state(&s, t), InstanceState::Created);
        verdict(&k, k8s_on_disk, &s, false);
    }
}
