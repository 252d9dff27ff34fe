//! The cluster: API server state, controllers, kubelet, reconciliation.

use crate::objects::{
    selector_matches, Deployment, Endpoints, Pod, PodPhase, ReplicaSet, Service,
};
use crate::scheduler::{K8sScheduler, NodeView, SchedulerRegistry};
use containerd::ContainerdNode;
use desim::{EventQueue, FaultInjector, LogNormal, Sample, SimRng, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

#[cfg(test)]
mod oracle;

type Labels = BTreeMap<String, String>;

/// Control-plane latency model. Each reconciliation arrow pays a watch
/// reaction; each object mutation pays an API round trip. The defaults are
/// calibrated so that a cached-image scale-up lands around the paper's ≈3 s
/// (Fig. 11) versus Docker's sub-second on the same containerd.
#[derive(Clone, Debug)]
pub struct K8sTimings {
    /// One API-server round trip (create/update/bind).
    pub(crate) api_call: LogNormal,
    /// Watch-notification reaction time of a controller.
    pub(crate) watch_reaction: LogNormal,
    /// Scheduler queue + scoring + binding latency.
    pub(crate) scheduler_latency: LogNormal,
    /// Kubelet pod-sync reaction after binding.
    pub(crate) kubelet_reaction: LogNormal,
    /// Pod sandbox setup: pause container, network namespace, CNI plugin.
    pub(crate) sandbox_setup: LogNormal,
    /// Endpoints controller propagation after readiness.
    pub(crate) endpoint_propagation: LogNormal,
}

impl Default for K8sTimings {
    fn default() -> Self {
        K8sTimings {
            api_call: LogNormal::from_median(0.015, 0.30),
            watch_reaction: LogNormal::from_median(0.090, 0.30),
            scheduler_latency: LogNormal::from_median(0.250, 0.25),
            kubelet_reaction: LogNormal::from_median(0.350, 0.25),
            sandbox_setup: LogNormal::from_median(1.350, 0.20),
            endpoint_propagation: LogNormal::from_median(0.150, 0.30),
        }
    }
}

/// Observable reconciliation events, timestamped.
#[derive(Clone, Debug, PartialEq)]
pub enum ClusterEvent {
    /// A replica set was created for a deployment.
    ReplicaSetCreated {
        /// When.
        at: SimTime,
        /// RS name.
        name: String,
    },
    /// A pod object was created (Pending).
    PodCreated {
        /// When.
        at: SimTime,
        /// Pod name.
        name: String,
    },
    /// A pod was bound to a node.
    PodScheduled {
        /// When.
        at: SimTime,
        /// Pod name.
        name: String,
        /// Node.
        node: String,
    },
    /// A pod could not be scheduled (left Pending).
    PodUnschedulable {
        /// When.
        at: SimTime,
        /// Pod name.
        name: String,
    },
    /// A pod's containers all started and the app accepts connections.
    PodReady {
        /// When the app is ready.
        at: SimTime,
        /// Pod name.
        name: String,
        /// Pod IP.
        ip: [u8; 4],
    },
    /// A pod was terminated (scale-down).
    PodTerminated {
        /// When.
        at: SimTime,
        /// Pod name.
        name: String,
    },
    /// Service endpoints were recomputed.
    EndpointsUpdated {
        /// When.
        at: SimTime,
        /// Service name.
        service: String,
        /// Number of ready addresses.
        addresses: usize,
    },
}

impl ClusterEvent {
    /// The event timestamp.
    pub fn at(&self) -> SimTime {
        match self {
            ClusterEvent::ReplicaSetCreated { at, .. }
            | ClusterEvent::PodCreated { at, .. }
            | ClusterEvent::PodScheduled { at, .. }
            | ClusterEvent::PodUnschedulable { at, .. }
            | ClusterEvent::PodReady { at, .. }
            | ClusterEvent::PodTerminated { at, .. }
            | ClusterEvent::EndpointsUpdated { at, .. } => *at,
        }
    }
}

#[derive(Debug)]
enum Work {
    DeploymentChanged(String),
    ReplicaSetChanged(String),
    SchedulePod(String),
    KubeletSync(String),
    TerminatePod(String),
}

/// One worker node: a named containerd instance with a pod capacity.
pub struct WorkerNode {
    /// Node name (`egs`, `pi-01`, ...).
    pub name: String,
    /// The node's containerd (image cache is *per node*).
    pub node: ContainerdNode,
    /// Pod capacity.
    pub capacity: usize,
}

/// A service as the endpoints controller holds it.
struct ServiceState {
    spec: Service,
    endpoints: Endpoints,
    /// Names of the Running pods the selector matches: what `endpoints` is
    /// derived from and what readiness queries walk, in pod-name order.
    backends: BTreeSet<String>,
}

/// Finds the services that can select a pod without walking every service.
/// A service is filed under the first `(key, value)` pair of its selector; a
/// pod can only satisfy selectors filed under one of its own labels, or the
/// empty selector, which matches everything.
#[derive(Default)]
struct SelectorIndex {
    by_first_pair: BTreeMap<String, BTreeMap<String, BTreeSet<String>>>,
    match_all: BTreeSet<String>,
}

impl SelectorIndex {
    fn insert(&mut self, svc: &Service) {
        match svc.selector.iter().next() {
            Some((k, v)) => {
                self.by_first_pair
                    .entry(k.clone())
                    .or_default()
                    .entry(v.clone())
                    .or_default()
                    .insert(svc.name.clone());
            }
            None => {
                self.match_all.insert(svc.name.clone());
            }
        }
    }

    fn remove(&mut self, svc: &Service) {
        let Some((k, v)) = svc.selector.iter().next() else {
            self.match_all.remove(&svc.name);
            return;
        };
        let Some(values) = self.by_first_pair.get_mut(k) else {
            return;
        };
        if let Some(names) = values.get_mut(v) {
            names.remove(&svc.name);
            if names.is_empty() {
                values.remove(v);
            }
        }
        if values.is_empty() {
            self.by_first_pair.remove(k);
        }
    }

    /// Services whose selector *may* match `labels` (each at most once); the
    /// caller still checks the whole selector.
    fn candidates<'a>(&'a self, labels: &'a Labels) -> impl Iterator<Item = &'a String> {
        labels
            .iter()
            .filter_map(|(k, v)| self.by_first_pair.get(k)?.get(v))
            .flatten()
            .chain(&self.match_all)
    }
}

/// Entry counts of the live object store and the indexes derived from it.
/// All of them are bounded by what is deployed *now*: a cluster scaled to
/// zero reports zeros however many pods it created before.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Pod objects (terminated pods are deleted, not kept).
    pub pods: usize,
    /// Pod names in the per-ReplicaSet owner index.
    pub owned: usize,
    /// Pod names in the per-service backend sets.
    pub backends: usize,
    /// Pods counted against a worker node's capacity.
    pub bound: usize,
}

/// The simulated Kubernetes cluster: control plane plus one or more worker
/// nodes. The paper's testbed runs a single worker (the Edge Gateway
/// Server); additional Raspberry-Pi-class workers can be added to exercise
/// the Local Scheduler (`schedulerName`) meaningfully — image caches are
/// per node, so placement decides who pulls.
///
/// Every control-loop step and query costs O(objects it touches): pods are
/// found through the owner index, services through the selector index, and
/// neither grows with the number of pods the cluster has ever run.
pub struct K8sCluster {
    timings: K8sTimings,
    workers: Vec<WorkerNode>,
    /// What the schedulers see, one per worker in the same order; `pods` is
    /// the authoritative count of live pods bound to the node.
    views: Vec<NodeView>,
    deployments: BTreeMap<String, Deployment>,
    replicasets: BTreeMap<String, ReplicaSet>,
    /// Live pods only: termination deletes the object.
    pods: BTreeMap<String, Pod>,
    /// ReplicaSet name → names of its live pods. Outlives the ReplicaSet
    /// object until the last pod is gone, as the pods do.
    owned: BTreeMap<String, BTreeSet<String>>,
    services: BTreeMap<String, ServiceState>,
    selectors: SelectorIndex,
    /// Services whose endpoints object was reset by a re-apply while pods
    /// were already running behind them; the next pod transition anywhere
    /// brings them up to date, as the full recompute used to.
    stale: BTreeSet<String>,
    schedulers: SchedulerRegistry,
    work: EventQueue<Work>,
    pod_seq: u64,
    next_ip: u16,
    /// Chaos-testing injector: scale-up rejections and readiness-probe flaps.
    faults: Option<FaultInjector>,
    /// Pods left Pending by an *injected* rejection (as opposed to a genuine
    /// scheduler refusal), so callers can tell the two apart and retry.
    injected_rejections: Vec<String>,
    /// API-server call counters for telemetry.
    pub ops: ApiOps,
    /// Runs the endpoints controller as the full recompute (the oracle of
    /// the differential test).
    #[cfg(test)]
    full_recompute: bool,
}

/// Lifetime counts of API-server calls (`kubectl apply` / `scale` /
/// deletes), read when a telemetry snapshot is taken.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ApiOps {
    /// Deployment+Service applies.
    pub applies: u64,
    /// Scale calls (up or down).
    pub scales: u64,
    /// Deployment/Service deletions.
    pub deletes: u64,
}

impl K8sCluster {
    /// Creates a cluster with one worker node (named `egs`) backed by `node`.
    pub fn new(node: ContainerdNode, timings: K8sTimings, capacity: usize) -> K8sCluster {
        let mut cluster = K8sCluster {
            timings,
            workers: Vec::new(),
            views: Vec::new(),
            deployments: BTreeMap::new(),
            replicasets: BTreeMap::new(),
            pods: BTreeMap::new(),
            owned: BTreeMap::new(),
            services: BTreeMap::new(),
            selectors: SelectorIndex::default(),
            stale: BTreeSet::new(),
            schedulers: SchedulerRegistry::new(),
            work: EventQueue::new(),
            pod_seq: 0,
            next_ip: 2,
            faults: None,
            injected_rejections: Vec::new(),
            ops: ApiOps::default(),
            #[cfg(test)]
            full_recompute: false,
        };
        cluster.add_worker("egs", node, capacity);
        cluster
    }

    /// Default cluster (public registries, default timings, 110-pod node).
    pub fn with_defaults() -> K8sCluster {
        K8sCluster::new(ContainerdNode::with_defaults(), K8sTimings::default(), 110)
    }

    /// Registers a custom (Local) scheduler.
    pub fn register_scheduler(&mut self, scheduler: Box<dyn K8sScheduler>) {
        self.schedulers.register(scheduler);
    }

    /// Wires a chaos-testing fault injector into the control plane. Injected
    /// faults are scale-up (scheduling) rejections and readiness-probe
    /// flaps; container-runtime faults are modelled on the Docker path.
    pub fn set_faults(&mut self, injector: FaultInjector) {
        self.faults = Some(injector);
    }

    /// Drains the names of pods left Pending by an *injected* scheduling
    /// rejection since the last call. A genuine scheduler refusal (cluster
    /// full, no matching node) does not show up here.
    pub fn take_injected_rejections(&mut self) -> Vec<String> {
        std::mem::take(&mut self.injected_rejections)
    }

    /// Adds another worker node. Returns its index.
    pub fn add_worker(&mut self, name: impl Into<String>, node: ContainerdNode, capacity: usize) -> usize {
        let name = name.into();
        self.views.push(NodeView {
            name: name.clone(),
            pods: 0,
            capacity,
        });
        self.workers.push(WorkerNode { name, node, capacity });
        self.workers.len() - 1
    }

    /// The first worker node's containerd (image pre-pulls, probes). For
    /// multi-worker clusters use [`K8sCluster::worker`].
    pub fn node(&self) -> &ContainerdNode {
        &self.workers[0].node
    }

    /// Mutable first-worker containerd access.
    pub fn node_mut(&mut self) -> &mut ContainerdNode {
        &mut self.workers[0].node
    }

    /// Worker by name.
    pub fn worker(&self, name: &str) -> Option<&WorkerNode> {
        self.workers.iter().find(|w| w.name == name)
    }

    /// Mutable worker by name.
    pub fn worker_mut(&mut self, name: &str) -> Option<&mut WorkerNode> {
        self.workers.iter_mut().find(|w| w.name == name)
    }

    /// All workers.
    pub fn workers(&self) -> &[WorkerNode] {
        &self.workers
    }

    /// `true` if *some* worker has every layer of every manifest cached.
    pub fn any_worker_has(&self, manifests: &[registry::ImageManifest]) -> bool {
        self.workers
            .iter()
            .any(|w| manifests.iter().all(|m| w.node.store().has_image(m)))
    }

    fn api(&self, now: SimTime, rng: &mut SimRng) -> SimTime {
        now + self.timings.api_call.sample_duration(rng)
    }

    /// `kubectl apply` of a deployment (+ its service). Returns the instant
    /// the API server acknowledged both objects. Reconciliation continues in
    /// [`K8sCluster::settle`].
    pub fn apply(
        &mut self,
        deployment: Deployment,
        service: Service,
        now: SimTime,
        rng: &mut SimRng,
    ) -> SimTime {
        self.ops.applies += 1;
        let t1 = self.api(now, rng);
        let name = deployment.name.clone();
        self.deployments.insert(name.clone(), deployment);
        let t2 = self.api(t1, rng);
        self.put_service(service);
        let react = t2 + self.timings.watch_reaction.sample_duration(rng);
        self.work.push(react, Work::DeploymentChanged(name));
        t2
    }

    /// Stores `service` with a fresh (empty) endpoints object, replacing any
    /// service of the same name. The one place that looks at every live pod:
    /// a new selector has to be matched against what already runs.
    fn put_service(&mut self, service: Service) {
        self.drop_service(&service.name);
        let backends: BTreeSet<String> = self
            .pods
            .values()
            .filter(|p| {
                p.phase == PodPhase::Running && selector_matches(&service.selector, &p.labels)
            })
            .map(|p| p.name.clone())
            .collect();
        if !backends.is_empty() {
            self.stale.insert(service.name.clone());
        }
        self.selectors.insert(&service);
        self.services.insert(
            service.name.clone(),
            ServiceState {
                spec: service,
                endpoints: Endpoints::default(),
                backends,
            },
        );
    }

    fn drop_service(&mut self, name: &str) {
        if let Some(old) = self.services.remove(name) {
            self.selectors.remove(&old.spec);
            self.stale.remove(name);
        }
    }

    /// Scales a deployment (the controller's **Scale Up** / **Scale Down**
    /// API call). Returns the API acknowledgement instant.
    ///
    /// # Panics
    /// Panics if the deployment does not exist.
    pub fn scale(&mut self, name: &str, replicas: u32, now: SimTime, rng: &mut SimRng) -> SimTime {
        self.ops.scales += 1;
        let t = self.api(now, rng);
        let dep = self
            .deployments
            .get_mut(name)
            .unwrap_or_else(|| panic!("no deployment {name}"));
        dep.replicas = replicas;
        let react = t + self.timings.watch_reaction.sample_duration(rng);
        self.work.push(react, Work::DeploymentChanged(name.to_owned()));
        t
    }

    /// Deletes a deployment and its pods (**Remove** phase). Returns the API
    /// acknowledgement instant.
    pub fn delete_deployment(&mut self, name: &str, now: SimTime, rng: &mut SimRng) -> SimTime {
        self.ops.deletes += 1;
        let t = self.api(now, rng);
        self.deployments.remove(name);
        // A deployment owns exactly the ReplicaSet `reconcile_deployment`
        // named after it.
        let rs_name = format!("{name}-rs");
        if self.replicasets.remove(&rs_name).is_some() {
            for pod in self.owned.get(&rs_name).into_iter().flatten() {
                let react = t + self.timings.watch_reaction.sample_duration(rng);
                self.work.push(react, Work::TerminatePod(pod.clone()));
            }
        }
        t
    }

    /// Deletes a service object.
    pub fn delete_service(&mut self, name: &str, now: SimTime, rng: &mut SimRng) -> SimTime {
        self.ops.deletes += 1;
        let t = self.api(now, rng);
        self.drop_service(name);
        t
    }

    /// Runs the control loops until quiescence, returning the timestamped
    /// event trail.
    pub fn settle(&mut self, rng: &mut SimRng) -> Vec<ClusterEvent> {
        let mut events = Vec::new();
        while let Some((now, work)) = self.work.pop() {
            match work {
                Work::DeploymentChanged(name) => self.reconcile_deployment(&name, now, rng, &mut events),
                Work::ReplicaSetChanged(name) => self.reconcile_replicaset(&name, now, rng, &mut events),
                Work::SchedulePod(name) => self.schedule_pod(&name, now, rng, &mut events),
                Work::KubeletSync(name) => self.kubelet_sync(&name, now, rng, &mut events),
                Work::TerminatePod(name) => self.terminate_pod(&name, now, rng, &mut events),
            }
        }
        events.sort_by_key(ClusterEvent::at);
        events
    }

    fn reconcile_deployment(
        &mut self,
        name: &str,
        now: SimTime,
        rng: &mut SimRng,
        events: &mut Vec<ClusterEvent>,
    ) {
        let Some(dep) = self.deployments.get(name) else {
            return; // deleted meanwhile
        };
        let replicas = dep.replicas;
        let rs_name = format!("{name}-rs");
        let t = if let Some(rs) = self.replicasets.get_mut(&rs_name) {
            if rs.replicas == replicas {
                return; // nothing to do
            }
            rs.replicas = replicas;
            self.api(now, rng)
        } else {
            let t = self.api(now, rng);
            self.replicasets.insert(
                rs_name.clone(),
                ReplicaSet {
                    owner: name.to_owned(),
                    replicas,
                },
            );
            events.push(ClusterEvent::ReplicaSetCreated {
                at: t,
                name: rs_name.clone(),
            });
            t
        };
        let react = t + self.timings.watch_reaction.sample_duration(rng);
        self.work.push(react, Work::ReplicaSetChanged(rs_name));
    }

    fn reconcile_replicaset(
        &mut self,
        name: &str,
        now: SimTime,
        rng: &mut SimRng,
        events: &mut Vec<ClusterEvent>,
    ) {
        let Some(rs) = self.replicasets.get(name) else {
            return;
        };
        let desired = rs.replicas as usize;
        let live = self.owned.get(name).map_or(0, BTreeSet::len);
        if live < desired {
            let Some(dep) = self.deployments.get(&rs.owner) else {
                return;
            };
            let labels = Rc::clone(&dep.template.labels);
            let scheduler_name = dep.scheduler_name.clone();
            let mut t = now;
            for _ in live..desired {
                self.pod_seq += 1;
                let pod_name = format!("{name}-{}", self.pod_seq);
                t = self.api(t, rng);
                self.owned
                    .entry(name.to_owned())
                    .or_default()
                    .insert(pod_name.clone());
                self.pods.insert(
                    pod_name.clone(),
                    Pod {
                        name: pod_name.clone(),
                        owner: name.to_owned(),
                        labels: Rc::clone(&labels),
                        phase: PodPhase::Pending,
                        node: None,
                        ip: None,
                        container_ids: vec![],
                        ready_at: None,
                        scheduler_name: scheduler_name.clone(),
                    },
                );
                events.push(ClusterEvent::PodCreated {
                    at: t,
                    name: pod_name.clone(),
                });
                let sched_at = t + self.timings.scheduler_latency.sample_duration(rng);
                self.work.push(sched_at, Work::SchedulePod(pod_name));
            }
        } else if live > desired {
            // Scale down: newest pods go first (K8s victim preference).
            for victim in self.owned[name].iter().rev().take(live - desired) {
                let react = now + self.timings.watch_reaction.sample_duration(rng);
                self.work.push(react, Work::TerminatePod(victim.clone()));
            }
        }
    }

    fn schedule_pod(
        &mut self,
        name: &str,
        now: SimTime,
        rng: &mut SimRng,
        events: &mut Vec<ClusterEvent>,
    ) {
        let Some(pod) = self.pods.get(name) else {
            return;
        };
        if pod.phase != PodPhase::Pending {
            return;
        }
        if let Some(faults) = &mut self.faults {
            if faults.scale_up_rejected() {
                self.injected_rejections.push(name.to_owned());
                events.push(ClusterEvent::PodUnschedulable {
                    at: now,
                    name: name.to_owned(),
                });
                return;
            }
        }
        // `capacity` is a public field of the worker; the views only own
        // the pod counts.
        for (view, worker) in self.views.iter_mut().zip(&self.workers) {
            view.capacity = worker.capacity;
        }
        match self.schedulers.schedule(pod, &self.views) {
            Some(node) => {
                let t = self.api(now, rng); // binding API call
                if let Some(view) = self.views.iter_mut().find(|v| v.name == node) {
                    view.pods += 1;
                }
                let pod = self.pods.get_mut(name).expect("pod exists");
                pod.node = Some(node.clone());
                pod.phase = PodPhase::Scheduled;
                events.push(ClusterEvent::PodScheduled {
                    at: t,
                    name: name.to_owned(),
                    node,
                });
                let sync = t + self.timings.kubelet_reaction.sample_duration(rng);
                self.work.push(sync, Work::KubeletSync(name.to_owned()));
            }
            None => {
                events.push(ClusterEvent::PodUnschedulable {
                    at: now,
                    name: name.to_owned(),
                });
            }
        }
    }

    fn kubelet_sync(
        &mut self,
        name: &str,
        now: SimTime,
        rng: &mut SimRng,
        events: &mut Vec<ClusterEvent>,
    ) {
        let Some(pod) = self.pods.get_mut(name) else {
            return;
        };
        if pod.phase != PodPhase::Scheduled {
            return;
        }
        let Some(rs) = self.replicasets.get(&pod.owner) else {
            return;
        };
        let Some(dep) = self.deployments.get(&rs.owner) else {
            return;
        };
        let containers = &dep.template.containers;
        let worker_name = pod.node.as_deref().expect("scheduled pod has a node");
        let worker = &mut self
            .workers
            .iter_mut()
            .find(|w| w.name == worker_name)
            .expect("pod bound to a known node")
            .node;

        // Pull whatever is missing on *this node* (imagePullPolicy:
        // IfNotPresent) — this is the Pull phase showing up inside K8s when
        // the node's cache is cold.
        let pull_time = worker.pull(containers.iter().map(|c| &c.manifest), rng);
        let mut t = now + pull_time;

        // Sandbox: pause container + netns + CNI.
        t += self.timings.sandbox_setup.sample_duration(rng);

        // Create and start each container; app readiness runs concurrently
        // once its task is up, so pod readiness is the max over containers.
        let mut ids = Vec::with_capacity(containers.len());
        let mut ready_at = t;
        for c in containers {
            // K8s worker nodes run without containerd fault injection (the
            // runtime fault model lives on the Docker path), so create/start
            // cannot fail here.
            let (id, created) = worker
                .create(c.spec.clone(), &c.manifest, t, rng)
                .expect("k8s worker nodes run without containerd fault injection");
            let ready_delay = c.ready.sample_duration(rng);
            let (started, ready) = worker
                .start(id, created, ready_delay, rng)
                .expect("k8s worker nodes run without containerd fault injection");
            t = started; // next container's create begins after this start
            ready_at = ready_at.max(ready);
            ids.push(id);
        }

        // An injected readiness-probe flap delays when the kubelet reports
        // the pod Ready (the app restarts its probe grace period).
        if let Some(faults) = &mut self.faults {
            if let Some(extra) = faults.probe_flap() {
                ready_at += extra;
            }
        }

        let ip = [10, 244, (self.next_ip >> 8) as u8, (self.next_ip & 0xff) as u8];
        self.next_ip += 1;
        pod.phase = PodPhase::Running;
        pod.ip = Some(ip);
        pod.container_ids = ids;
        pod.ready_at = Some(ready_at);
        let labels = Rc::clone(&pod.labels);
        events.push(ClusterEvent::PodReady {
            at: ready_at,
            name: name.to_owned(),
            ip,
        });

        let ep_at = ready_at + self.timings.endpoint_propagation.sample_duration(rng);
        self.sync_endpoints(name, &labels, true, ep_at, events);
    }

    fn terminate_pod(
        &mut self,
        name: &str,
        now: SimTime,
        rng: &mut SimRng,
        events: &mut Vec<ClusterEvent>,
    ) {
        // Deleting the object is what keeps the store — and with it every
        // query — proportional to what runs now, not to what ever ran.
        let Some(pod) = self.pods.remove(name) else {
            return;
        };
        if let Some(names) = self.owned.get_mut(&pod.owner) {
            names.remove(name);
            if names.is_empty() {
                self.owned.remove(&pod.owner);
            }
        }
        let mut t = now;
        let bound_to = pod.node.as_deref();
        if let Some(w) = self.workers.iter().position(|w| Some(w.name.as_str()) == bound_to) {
            self.views[w].pods -= 1;
            let worker = &mut self.workers[w].node;
            for &id in &pod.container_ids {
                t = worker.stop(id, t, rng);
                t = worker.remove(id, t, rng);
            }
        }
        events.push(ClusterEvent::PodTerminated {
            at: t,
            name: name.to_owned(),
        });
        self.sync_endpoints(name, &pod.labels, false, t, events);
    }

    /// The endpoints controller. `pod` either just started running
    /// (`joined`) or was just deleted; only the services selecting its labels
    /// can have gained or lost an address, so only those — and any `stale`
    /// ones — are re-derived, in service-name order like the full recompute
    /// this replaces.
    fn sync_endpoints(
        &mut self,
        pod: &str,
        labels: &Labels,
        joined: bool,
        at: SimTime,
        events: &mut Vec<ClusterEvent>,
    ) {
        #[cfg(test)]
        if self.full_recompute {
            return self.recompute_endpoints(at, events);
        }
        let K8sCluster {
            services,
            selectors,
            stale,
            pods,
            ..
        } = self;
        let mut names: Vec<&String> = selectors
            .candidates(labels)
            .filter(|name| selector_matches(&services[*name].spec.selector, labels))
            .collect();
        for name in &names {
            let backends = &mut services
                .get_mut(*name)
                .expect("indexed service exists")
                .backends;
            if joined {
                backends.insert(pod.to_owned());
            } else {
                backends.remove(pod);
            }
        }
        names.extend(stale.iter());
        names.sort_unstable();
        names.dedup();
        for name in names {
            let svc = services.get_mut(name).expect("indexed service exists");
            let mut addrs: Vec<([u8; 4], u16)> = svc
                .backends
                .iter()
                .filter_map(|p| pods[p.as_str()].ip)
                .map(|ip| (ip, svc.spec.target_port))
                .collect();
            addrs.sort_unstable();
            if svc.endpoints.addresses != addrs {
                svc.endpoints.addresses = addrs;
                svc.endpoints.updated_at = at;
                events.push(ClusterEvent::EndpointsUpdated {
                    at,
                    service: name.clone(),
                    addresses: svc.endpoints.addresses.len(),
                });
            }
        }
        stale.clear();
    }

    /// Ready `(ip, port)` addresses behind a service at `now`, in pod-name
    /// order.
    fn ready_backends(
        &self,
        service: &str,
        now: SimTime,
    ) -> impl Iterator<Item = ([u8; 4], u16)> + '_ {
        self.services.get(service).into_iter().flat_map(move |svc| {
            svc.backends.iter().filter_map(move |name| {
                let pod = &self.pods[name.as_str()];
                pod.ip
                    .filter(|_| pod.is_ready(now))
                    .map(|ip| (ip, svc.spec.target_port))
            })
        })
    }

    /// Ready `(ip, port)` addresses behind a service at `now`.
    pub fn ready_endpoints(&self, service: &str, now: SimTime) -> Vec<([u8; 4], u16)> {
        self.ready_backends(service, now).collect()
    }

    /// The first of [`K8sCluster::ready_endpoints`], without building the
    /// list.
    pub fn first_ready_endpoint(&self, service: &str, now: SimTime) -> Option<([u8; 4], u16)> {
        self.ready_backends(service, now).next()
    }

    /// `true` if the deployment object exists.
    pub fn has_deployment(&self, name: &str) -> bool {
        self.deployments.contains_key(name)
    }

    /// Live pods of a deployment.
    pub fn live_pods(&self, deployment: &str) -> Vec<&Pod> {
        self.owned
            .get(&format!("{deployment}-rs"))
            .into_iter()
            .flatten()
            .map(|name| &self.pods[name.as_str()])
            .collect()
    }

    /// Looks up a (live) pod.
    pub fn pod(&self, name: &str) -> Option<&Pod> {
        self.pods.get(name)
    }

    /// Endpoints object of a service.
    pub fn endpoints(&self, service: &str) -> Option<&Endpoints> {
        self.services.get(service).map(|svc| &svc.endpoints)
    }

    /// Sizes of the object store and its indexes (leak checks).
    pub fn store_stats(&self) -> StoreStats {
        StoreStats {
            pods: self.pods.len(),
            owned: self.owned.values().map(BTreeSet::len).sum(),
            backends: self.services.values().map(|svc| svc.backends.len()).sum(),
            bound: self.views.iter().map(|v| v.pods).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objects::{PodContainer, PodTemplate};
    use containerd::ContainerSpec;
    use registry::image::catalog;
    use registry::ImageRef;

    fn labels(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
    }

    fn nginx_deployment(replicas: u32) -> (Deployment, Service) {
        let sel = labels(&[("app", "nginx")]);
        let dep = Deployment {
            name: "nginx-edge".into(),
            labels: sel.clone(),
            replicas,
            selector: sel.clone(),
            template: PodTemplate {
                labels: sel.clone().into(),
                containers: vec![PodContainer {
                    spec: ContainerSpec::new("nginx", ImageRef::parse("nginx:1.23.2"), Some(80)),
                    manifest: catalog::nginx(),
                    ready: LogNormal::from_median(0.045, 0.0),
                }],
            },
            scheduler_name: None,
        };
        let svc = Service {
            name: "nginx-edge".into(),
            selector: sel,
            port: 80,
            target_port: 80,
            protocol: "TCP".into(),
        };
        (dep, svc)
    }

    fn cluster_with_cached_nginx(rng: &mut SimRng) -> K8sCluster {
        let mut c = K8sCluster::with_defaults();
        c.node_mut().pull(&[catalog::nginx()], rng);
        c
    }

    #[test]
    fn create_with_zero_replicas_spawns_no_pods() {
        let mut rng = SimRng::new(1);
        let mut c = cluster_with_cached_nginx(&mut rng);
        let (dep, svc) = nginx_deployment(0);
        c.apply(dep, svc, SimTime::ZERO, &mut rng);
        let events = c.settle(&mut rng);
        assert!(events.iter().any(|e| matches!(e, ClusterEvent::ReplicaSetCreated { .. })));
        assert!(!events.iter().any(|e| matches!(e, ClusterEvent::PodCreated { .. })));
        assert!(c.ready_endpoints("nginx-edge", SimTime::from_secs(100)).is_empty());
    }

    #[test]
    fn scale_up_produces_ready_pod_in_about_three_seconds() {
        let mut rng = SimRng::new(2);
        let mut c = cluster_with_cached_nginx(&mut rng);
        let (dep, svc) = nginx_deployment(0);
        c.apply(dep, svc, SimTime::ZERO, &mut rng);
        c.settle(&mut rng);

        let t0 = SimTime::from_secs(10);
        c.scale("nginx-edge", 1, t0, &mut rng);
        let events = c.settle(&mut rng);
        let ready = events
            .iter()
            .find_map(|e| match e {
                ClusterEvent::PodReady { at, ip, .. } => Some((*at, *ip)),
                _ => None,
            })
            .expect("pod became ready");
        let elapsed = (ready.0 - t0).as_secs_f64();
        // The paper's K8s overhead: ~3 s (vs <1 s on Docker).
        assert!((1.8..4.5).contains(&elapsed), "scale-up took {elapsed}s");
        assert_eq!(ready.1[0], 10);
        // Event causality: created < scheduled < ready <= endpoints.
        let ts: Vec<(u8, SimTime)> = events
            .iter()
            .filter_map(|e| match e {
                ClusterEvent::PodCreated { at, .. } => Some((0, *at)),
                ClusterEvent::PodScheduled { at, .. } => Some((1, *at)),
                ClusterEvent::PodReady { at, .. } => Some((2, *at)),
                ClusterEvent::EndpointsUpdated { at, .. } => Some((3, *at)),
                _ => None,
            })
            .collect();
        for w in ts.windows(2) {
            assert!(w[0].1 <= w[1].1, "events out of causal order: {ts:?}");
        }
        // Ready endpoints appear only after readiness.
        assert!(c.ready_endpoints("nginx-edge", t0).is_empty());
        assert_eq!(c.ready_endpoints("nginx-edge", ready.0).len(), 1);
    }

    #[test]
    fn cold_image_adds_pull_time() {
        let mut rng1 = SimRng::new(3);
        let mut warm = cluster_with_cached_nginx(&mut rng1);
        let (dep, svc) = nginx_deployment(1);
        warm.apply(dep, svc, SimTime::ZERO, &mut rng1);
        let warm_ready = warm
            .settle(&mut rng1)
            .iter()
            .find_map(|e| match e {
                ClusterEvent::PodReady { at, .. } => Some(*at),
                _ => None,
            })
            .unwrap();

        let mut rng2 = SimRng::new(3);
        let mut cold = K8sCluster::with_defaults();
        let (dep, svc) = nginx_deployment(1);
        cold.apply(dep, svc, SimTime::ZERO, &mut rng2);
        let cold_ready = cold
            .settle(&mut rng2)
            .iter()
            .find_map(|e| match e {
                ClusterEvent::PodReady { at, .. } => Some(*at),
                _ => None,
            })
            .unwrap();
        assert!(
            cold_ready > warm_ready + desim::Duration::from_secs(1),
            "cold {cold_ready:?} vs warm {warm_ready:?}"
        );
        assert!(cold.node().store().has_image(&catalog::nginx()), "kubelet pulled the image");
    }

    #[test]
    fn scale_down_terminates_and_clears_endpoints() {
        let mut rng = SimRng::new(4);
        let mut c = cluster_with_cached_nginx(&mut rng);
        let (dep, svc) = nginx_deployment(1);
        c.apply(dep, svc, SimTime::ZERO, &mut rng);
        c.settle(&mut rng);
        let ready_time = SimTime::from_secs(30);
        assert_eq!(c.ready_endpoints("nginx-edge", ready_time).len(), 1);

        c.scale("nginx-edge", 0, ready_time, &mut rng);
        let events = c.settle(&mut rng);
        assert!(events.iter().any(|e| matches!(e, ClusterEvent::PodTerminated { .. })));
        assert!(c.ready_endpoints("nginx-edge", SimTime::from_secs(120)).is_empty());
        assert_eq!(c.live_pods("nginx-edge").len(), 0);
        // Containers are gone from containerd too.
        assert_eq!(c.node().container_count(), 0);
    }

    #[test]
    fn multi_replica_scale() {
        let mut rng = SimRng::new(5);
        let mut c = cluster_with_cached_nginx(&mut rng);
        let (dep, svc) = nginx_deployment(3);
        c.apply(dep, svc, SimTime::ZERO, &mut rng);
        let events = c.settle(&mut rng);
        let ready = events
            .iter()
            .filter(|e| matches!(e, ClusterEvent::PodReady { .. }))
            .count();
        assert_eq!(ready, 3);
        assert_eq!(c.ready_endpoints("nginx-edge", SimTime::from_secs(60)).len(), 3);
        // Distinct pod IPs.
        let ips: std::collections::HashSet<_> = c
            .live_pods("nginx-edge")
            .iter()
            .map(|p| p.ip.unwrap())
            .collect();
        assert_eq!(ips.len(), 3);
    }

    #[test]
    fn two_container_pod_readiness_is_max() {
        let mut rng = SimRng::new(6);
        let mut c = K8sCluster::with_defaults();
        c.node_mut()
            .pull(&[catalog::nginx(), catalog::env_writer_py()], &mut rng);
        let sel = labels(&[("app", "nginx-py")]);
        let dep = Deployment {
            name: "nginx-py".into(),
            labels: sel.clone(),
            replicas: 1,
            selector: sel.clone(),
            template: PodTemplate {
                labels: sel.clone().into(),
                containers: vec![
                    PodContainer {
                        spec: ContainerSpec::new("nginx", ImageRef::parse("nginx:1.23.2"), Some(80)),
                        manifest: catalog::nginx(),
                        ready: LogNormal::from_median(0.045, 0.0),
                    },
                    PodContainer {
                        spec: ContainerSpec::new(
                            "env-writer",
                            ImageRef::parse("josefhammer/env-writer-py"),
                            None,
                        ),
                        manifest: catalog::env_writer_py(),
                        ready: LogNormal::from_median(0.25, 0.0),
                    },
                ],
            },
            scheduler_name: None,
        };
        let svc = Service {
            name: "nginx-py".into(),
            selector: sel,
            port: 80,
            target_port: 80,
            protocol: "TCP".into(),
        };
        c.apply(dep, svc, SimTime::ZERO, &mut rng);
        let events = c.settle(&mut rng);
        let pod_name = events
            .iter()
            .find_map(|e| match e {
                ClusterEvent::PodReady { name, .. } => Some(name.clone()),
                _ => None,
            })
            .unwrap();
        let pod = c.pod(&pod_name).unwrap();
        assert_eq!(pod.container_ids.len(), 2);
    }

    #[test]
    fn custom_scheduler_is_used() {
        struct Refuser;
        impl K8sScheduler for Refuser {
            fn name(&self) -> &str {
                "refuser"
            }
            fn schedule(&mut self, _: &Pod, _: &[NodeView]) -> Option<String> {
                None
            }
        }
        let mut rng = SimRng::new(7);
        let mut c = cluster_with_cached_nginx(&mut rng);
        c.register_scheduler(Box::new(Refuser));
        let (mut dep, svc) = nginx_deployment(1);
        dep.scheduler_name = Some("refuser".into());
        c.apply(dep, svc, SimTime::ZERO, &mut rng);
        let events = c.settle(&mut rng);
        assert!(events.iter().any(|e| matches!(e, ClusterEvent::PodUnschedulable { .. })));
        assert!(!events.iter().any(|e| matches!(e, ClusterEvent::PodReady { .. })));
    }

    #[test]
    fn injected_scale_up_rejection_is_recorded_and_retryable() {
        use desim::FaultPlan;
        let mut rng = SimRng::new(9);
        let mut c = cluster_with_cached_nginx(&mut rng);
        c.set_faults(
            FaultPlan {
                scale_up_rejection: 1.0,
                ..FaultPlan::default()
            }
            .injector(0x11),
        );
        let (dep, svc) = nginx_deployment(0);
        c.apply(dep, svc, SimTime::ZERO, &mut rng);
        c.settle(&mut rng);
        c.scale("nginx-edge", 1, SimTime::from_secs(10), &mut rng);
        let events = c.settle(&mut rng);
        assert!(events.iter().any(|e| matches!(e, ClusterEvent::PodUnschedulable { .. })));
        assert!(!events.iter().any(|e| matches!(e, ClusterEvent::PodReady { .. })));
        assert_eq!(c.take_injected_rejections().len(), 1);
        assert!(c.take_injected_rejections().is_empty(), "drained on take");

        // Retry after clearing the fault: reset to zero replicas (terminates
        // the stuck Pending pod), then scale up again.
        c.set_faults(FaultPlan::default().injector(0x12));
        c.scale("nginx-edge", 0, SimTime::from_secs(12), &mut rng);
        c.settle(&mut rng);
        c.scale("nginx-edge", 1, SimTime::from_secs(14), &mut rng);
        let events = c.settle(&mut rng);
        assert!(events.iter().any(|e| matches!(e, ClusterEvent::PodReady { .. })));
        assert!(c.take_injected_rejections().is_empty());
    }

    #[test]
    fn injected_probe_flap_delays_readiness_only() {
        use desim::FaultPlan;
        let ready_with = |faulty: bool| {
            let mut rng = SimRng::new(10);
            let mut c = cluster_with_cached_nginx(&mut rng);
            if faulty {
                c.set_faults(
                    FaultPlan {
                        probe_flap: 1.0,
                        ..FaultPlan::default()
                    }
                    .injector(0x21),
                );
            }
            let (dep, svc) = nginx_deployment(1);
            c.apply(dep, svc, SimTime::ZERO, &mut rng);
            c.settle(&mut rng)
                .iter()
                .find_map(|e| match e {
                    ClusterEvent::PodReady { at, .. } => Some(*at),
                    _ => None,
                })
                .expect("pod became ready")
        };
        let clean = ready_with(false);
        let flappy = ready_with(true);
        // The injector has its own rng stream, so the main draws line up and
        // the flap shows as a pure delay of delay*(0.5..1.5).
        assert!(
            flappy >= clean + desim::Duration::from_millis(900),
            "flap added {:?}",
            flappy.saturating_since(clean)
        );
        assert!(flappy <= clean + desim::Duration::from_secs(4));
    }

    #[test]
    fn delete_deployment_cleans_up() {
        let mut rng = SimRng::new(8);
        let mut c = cluster_with_cached_nginx(&mut rng);
        let (dep, svc) = nginx_deployment(1);
        c.apply(dep, svc, SimTime::ZERO, &mut rng);
        c.settle(&mut rng);
        c.delete_deployment("nginx-edge", SimTime::from_secs(60), &mut rng);
        c.delete_service("nginx-edge", SimTime::from_secs(60), &mut rng);
        let events = c.settle(&mut rng);
        assert!(events.iter().any(|e| matches!(e, ClusterEvent::PodTerminated { .. })));
        assert!(!c.has_deployment("nginx-edge"));
        assert!(c.endpoints("nginx-edge").is_none());
    }
}
