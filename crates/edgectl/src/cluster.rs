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
use crate::service::EdgeService;
use containerd::{ContainerId, RuntimeError, ServiceProfile};
use desim::{Duration, LogNormal, Sample, SimRng, SimTime};
use dockersim::{DockerEngine, DockerError};
use k8ssim::objects::{PodContainer, PodTemplate};
use k8ssim::{ClusterEvent, K8sCluster};
use netsim::addr::{Ipv4Addr, MacAddr};
use registry::{ImageManifest, ImageRef};
use std::collections::BTreeMap;

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

    /// `true` if every image layer of the service is cached here.
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

    /// Number of services currently scaled up (scheduler load metric).
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
    entries: BTreeMap<String, DockerEntry>,
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
            entries: BTreeMap::new(),
        }
    }

    /// Access to the engine (image pre-seeding, assertions).
    pub fn engine_mut(&mut self) -> &mut DockerEngine {
        &mut self.engine
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
        svc.profile
            .manifests
            .iter()
            .all(|m| self.engine.node().store().has_image(m))
    }

    fn state(&self, svc: &EdgeService, now: SimTime) -> InstanceState {
        match self.entries.get(&svc.name) {
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
            !self.entries.contains_key(&svc.name),
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
            match self.engine.create(spec.clone(), &manifest, t, rng) {
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
        self.entries.insert(
            svc.name.clone(),
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
            .get(&svc.name)
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
        let entry = self.entries.get_mut(&svc.name).expect("entry exists");
        entry.running = true;
        entry.ready_at = ready.max(t);
        // `docker start` returns once every task is launched (t); the app
        // inside may still be loading until `ready_at`.
        Ok((t, entry.ready_at))
    }

    fn scale_down(&mut self, svc: &EdgeService, now: SimTime, rng: &mut SimRng) -> SimTime {
        let Some(entry) = self.entries.get_mut(&svc.name) else {
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
        let Some(entry) = self.entries.remove(&svc.name) else {
            return now;
        };
        let mut t = now;
        for name in &entry.containers {
            t = self.engine.remove(name, t, rng).expect("container exists");
        }
        t
    }

    fn instance_addr(&self, svc: &EdgeService) -> Option<InstanceAddr> {
        self.entries.get(&svc.name).map(|e| InstanceAddr {
            mac: self.host_mac,
            ip: self.host_ip,
            port: e.host_port,
        })
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
    applied: bool,
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
    entries: BTreeMap<String, K8sEntry>,
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
            entries: BTreeMap::new(),
        }
    }

    /// Access to the underlying cluster (pre-pulls, assertions).
    pub fn cluster_mut(&mut self) -> &mut K8sCluster {
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
                    spec: spec.clone(),
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
        match self.entries.get(&svc.name) {
            None => InstanceState::NotDeployed,
            Some(e) if !e.scaled_up => InstanceState::Created,
            Some(e) => match self.cluster.first_ready_endpoint(&svc.name, now) {
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
            !self.entries.contains_key(&svc.name),
            "service {} already created on {}",
            svc.name,
            self.name
        );
        let (dep, service) = self.build_objects(svc);
        let acked = self.cluster.apply(dep, service, now, rng);
        // The zero-replica reconciliation (ReplicaSet creation) completes the
        // Create phase.
        let events = self.cluster.settle(rng);
        let done = events
            .iter()
            .filter_map(|e| match e {
                ClusterEvent::ReplicaSetCreated { at, .. } => Some(*at),
                _ => None,
            })
            .max()
            .unwrap_or(acked);
        self.entries.insert(
            svc.name.clone(),
            K8sEntry {
                applied: true,
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
            .get(&svc.name)
            .unwrap_or_else(|| panic!("scale_up before create for {}", svc.name));
        assert!(entry.applied && !entry.scaled_up, "bad phase order");
        // `kubectl scale` returns as soon as the API server acknowledges;
        // the whole reconciliation happens afterwards.
        let acked = self.cluster.scale(&svc.name, 1, now, rng);
        let events = self.cluster.settle(rng);
        let ready = events.iter().find_map(|e| match e {
            ClusterEvent::PodReady { at, ip, .. } => Some((*at, *ip)),
            _ => None,
        });
        let injected = self.cluster.take_injected_rejections();
        if ready.is_none() && !injected.is_empty() {
            // An *injected* scheduling rejection left a pod stuck Pending.
            // Roll back to zero replicas (the ReplicaSet controller ignores
            // unchanged counts, so a retry must re-create the pod) and
            // surface the failure.
            let rejected_at = events
                .iter()
                .filter_map(|e| match e {
                    ClusterEvent::PodUnschedulable { at, .. } => Some(*at),
                    _ => None,
                })
                .max()
                .unwrap_or(acked);
            let t = self.cluster.scale(&svc.name, 0, rejected_at, rng);
            let cleanup = self.cluster.settle(rng);
            let at = cleanup
                .iter()
                .filter_map(|e| match e {
                    ClusterEvent::PodTerminated { at, .. } => Some(*at),
                    _ => None,
                })
                .max()
                .unwrap_or(t);
            return Err(DeployError {
                at,
                phase: DeployPhase::ScaleUp,
                reason: "scheduler rejected the scale-up".to_owned(),
            });
        }
        let entry = self.entries.get_mut(&svc.name).expect("entry exists");
        entry.scaled_up = true;
        match ready {
            Some((at, ip)) => {
                entry.ready_at = at;
                entry.pod_addr = Some((ip, svc.annotated.target_port));
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
        let Some(entry) = self.entries.get_mut(&svc.name) else {
            return now;
        };
        if !entry.scaled_up {
            return now;
        }
        entry.scaled_up = false;
        entry.ready_at = SimTime::MAX;
        entry.pod_addr = None;
        self.cluster.scale(&svc.name, 0, now, rng);
        let events = self.cluster.settle(rng);
        events
            .iter()
            .filter_map(|e| match e {
                ClusterEvent::PodTerminated { at, .. } => Some(*at),
                _ => None,
            })
            .max()
            .unwrap_or(now)
    }

    fn remove(&mut self, svc: &EdgeService, now: SimTime, rng: &mut SimRng) -> SimTime {
        if self.entries.remove(&svc.name).is_none() {
            return now;
        }
        let t = self.cluster.delete_deployment(&svc.name, now, rng);
        let t = self.cluster.delete_service(&svc.name, t, rng);
        let events = self.cluster.settle(rng);
        events
            .iter()
            .filter_map(|e| match e {
                ClusterEvent::PodTerminated { at, .. } => Some(*at),
                _ => None,
            })
            .max()
            .unwrap_or(t)
    }

    fn instance_addr(&self, svc: &EdgeService) -> Option<InstanceAddr> {
        let entry = self.entries.get(&svc.name)?;
        let (ip, port) = entry.pod_addr?;
        Some(InstanceAddr {
            mac: self.host_mac,
            ip: Ipv4Addr(ip),
            port,
        })
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
        assert_eq!(d.engine_mut().container_count(), 2);

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
        c.engine_mut().node_mut().set_faults(
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
        assert_eq!(c.engine_mut().container_count(), 0, "partial create rolled back");
        // Retry without faults succeeds from the failure instant.
        c.engine_mut().node_mut().set_faults(FaultPlan::default().injector(0x32));
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
        c.engine_mut().node_mut().set_faults(
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
        c.engine_mut().node_mut().set_faults(FaultPlan::default().injector(0x34));
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
        match c.entries.get(&svc.name) {
            None => InstanceState::NotDeployed,
            Some(e) if !e.running => InstanceState::Created,
            Some(e) => {
                let serving = serving_container(svc);
                let port = serving.listen_port.unwrap_or(svc.annotated.target_port);
                if c.engine.port_open(&serving.name, port, now) {
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
            let first_id = c.entries[&svc.name].serving.0;
            let serving = serving_container(&svc);
            assert_eq!(c.engine.id_of(&serving.name), Ok(first_id));
            assert_eq!(c.entries[&svc.name].containers[0], serving.name);

            let (_, ready) = c.scale_up(&svc, t, &mut rng).unwrap();
            assert_eq!(probed(&c, &svc, t), InstanceState::Starting { ready_at: ready });
            assert!(probed(&c, &svc, ready).is_ready());

            assert!(c.fail_instance(&svc, ready, &mut rng));
            assert_eq!(probed(&c, &svc, ready), InstanceState::Created);
            let t = c.scale_down(&svc, ready + Duration::from_secs(1), &mut rng);
            assert_eq!(probed(&c, &svc, t), InstanceState::Created, "nothing left to scale down");
            let (_, ready) = c.scale_up(&svc, t, &mut rng).unwrap();
            assert!(probed(&c, &svc, ready).is_ready(), "same container, started again");
            assert_eq!(c.entries[&svc.name].serving.0, first_id);

            // Removed while running, created again: a new container id.
            let t = c.remove(&svc, ready + Duration::from_secs(1), &mut rng);
            assert_eq!(probed(&c, &svc, t), InstanceState::NotDeployed);
            let t = c.create(&svc, t, &mut rng).unwrap();
            assert_eq!(probed(&c, &svc, t), InstanceState::Created);
            assert_ne!(c.entries[&svc.name].serving.0, first_id);
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
        c.engine_mut().node_mut().set_faults(plan.injector(0x37));
        let mut earlier_ids = Vec::new();
        loop {
            let removes = c.engine.ops.removes;
            match c.create(&svc, t, &mut rng) {
                Ok(done) => {
                    earlier_ids.push(c.entries[&svc.name].serving.0);
                    assert_eq!(probed(&c, &svc, done), InstanceState::Created);
                    t = c.remove(&svc, done, &mut rng);
                }
                Err(e) => {
                    t = e.at;
                    assert_eq!(probed(&c, &svc, t), InstanceState::NotDeployed);
                    assert_eq!(c.engine.container_count(), 0);
                    if c.engine.ops.removes > removes {
                        break; // the serving container had been created
                    }
                }
            }
        }
        c.engine_mut().node_mut().set_faults(FaultPlan::default().injector(0x38));
        let done = c.create(&svc, t, &mut rng).unwrap();
        assert!(!earlier_ids.contains(&c.entries[&svc.name].serving.0));
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
}
