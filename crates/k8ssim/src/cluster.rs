//! The cluster: API server state, controllers, kubelet, reconciliation.

use crate::objects::{
    selector_matches, Deployment, DeploymentId, Endpoints, Pod, PodId, PodPhase, Service,
};
use crate::scheduler::{K8sScheduler, NodeView, SchedulerRegistry};
use containerd::ContainerdNode;
use desim::{FaultInjector, LogNormal, NaiveEventQueue, Sample, SimRng, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

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

/// Observable reconciliation events, timestamped. They name objects by
/// handle; [`K8sCluster::pod_name`] renders a pod's name.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ClusterEvent {
    /// A deployment's ReplicaSet (`<deployment>-rs`) was created.
    ReplicaSetCreated {
        /// When.
        at: SimTime,
        /// The owning deployment.
        deployment: DeploymentId,
    },
    /// A pod object was created (Pending).
    PodCreated {
        /// When.
        at: SimTime,
        /// The pod.
        pod: PodId,
    },
    /// A pod was bound to a node.
    PodScheduled {
        /// When.
        at: SimTime,
        /// The pod.
        pod: PodId,
        /// Index of the worker node (see [`K8sCluster::workers`]).
        node: usize,
    },
    /// A pod could not be scheduled (left Pending).
    PodUnschedulable {
        /// When.
        at: SimTime,
        /// The pod.
        pod: PodId,
    },
    /// A pod's containers all started and the app accepts connections.
    PodReady {
        /// When the app is ready.
        at: SimTime,
        /// The pod.
        pod: PodId,
        /// Pod IP.
        ip: [u8; 4],
    },
    /// A pod was terminated (scale-down).
    PodTerminated {
        /// When.
        at: SimTime,
        /// The pod.
        pod: PodId,
    },
    /// Service endpoints were recomputed.
    EndpointsUpdated {
        /// When.
        at: SimTime,
        /// The deployment the service was applied with.
        service: DeploymentId,
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

#[derive(Clone, Copy, Debug)]
enum Work {
    DeploymentChanged(DeploymentId),
    ReplicaSetChanged(DeploymentId),
    SchedulePod(PodId),
    KubeletSync(PodId),
    TerminatePod(PodId),
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
    /// The Running pods the selector matches, in creation order: what
    /// `endpoints` is derived from and what readiness queries walk.
    backends: Vec<PodId>,
}

/// Everything filed under one deployment name: the Deployment, its
/// ReplicaSet, the ReplicaSet's pods and the service applied with it.
struct DeploymentSlot {
    /// The name pods are named after.
    name: String,
    /// The Deployment object; `None` once deleted.
    spec: Option<Deployment>,
    /// Desired replicas of the ReplicaSet `<name>-rs`; `None` while there
    /// is no ReplicaSet object.
    replicas: Option<u32>,
    /// The ReplicaSet's live pods in creation order. Outlives the
    /// ReplicaSet object until the last pod is gone, as the pods do.
    owned: Vec<PodId>,
    /// The service applied with the deployment; `None` once deleted.
    service: Option<ServiceState>,
}

/// One place in the pod store. A terminated pod's slot is reused, so the
/// store is as long as the most pods that were ever live at once.
struct PodSlot {
    /// The pod living here, `None` while the slot is free.
    id: Option<PodId>,
    pod: Pod,
}

/// Finds the services that can select a pod without walking every service.
/// A service is filed under the first `(key, value)` pair of its selector; a
/// pod can only satisfy selectors filed under one of its own labels, or the
/// empty selector, which matches everything.
#[derive(Default)]
struct SelectorIndex {
    by_first_pair: BTreeMap<String, BTreeMap<String, BTreeSet<DeploymentId>>>,
    match_all: BTreeSet<DeploymentId>,
}

impl SelectorIndex {
    fn insert(&mut self, id: DeploymentId, svc: &Service) {
        match svc.selector.iter().next() {
            Some((k, v)) => {
                self.by_first_pair
                    .entry(k.clone())
                    .or_default()
                    .entry(v.clone())
                    .or_default()
                    .insert(id);
            }
            None => {
                self.match_all.insert(id);
            }
        }
    }

    fn remove(&mut self, id: DeploymentId, svc: &Service) {
        let Some((k, v)) = svc.selector.iter().next() else {
            self.match_all.remove(&id);
            return;
        };
        let Some(values) = self.by_first_pair.get_mut(k) else {
            return;
        };
        if let Some(ids) = values.get_mut(v) {
            ids.remove(&id);
            if ids.is_empty() {
                values.remove(v);
            }
        }
        if values.is_empty() {
            self.by_first_pair.remove(k);
        }
    }

    /// Services whose selector *may* match `labels` (each at most once); the
    /// caller still checks the whole selector.
    fn candidates<'a>(&'a self, labels: &'a Labels) -> impl Iterator<Item = DeploymentId> + 'a {
        labels
            .iter()
            .filter_map(|(k, v)| self.by_first_pair.get(k)?.get(v))
            .flatten()
            .chain(&self.match_all)
            .copied()
    }
}

/// Entry counts of the live object store and the indexes derived from it.
/// All of them are bounded by what is deployed *now*, `slots` by the most
/// that was ever deployed at once: a cluster scaled to zero reports zero
/// pods however many it created before.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Pod objects (terminated pods are deleted, not kept).
    pub pods: usize,
    /// Pods in the per-ReplicaSet owner lists.
    pub owned: usize,
    /// Pods in the per-service backend lists.
    pub backends: usize,
    /// Pods counted against a worker node's capacity.
    pub bound: usize,
    /// Length of the pod store: live pods plus free slots.
    pub slots: usize,
}

/// The simulated Kubernetes cluster: control plane plus one or more worker
/// nodes. The paper's testbed runs a single worker (the Edge Gateway
/// Server); additional Raspberry-Pi-class workers can be added to exercise
/// the Local Scheduler (`schedulerName`) meaningfully — image caches are
/// per node, so placement decides who pulls.
///
/// Objects are addressed by `Copy` handles: a deployment by the
/// [`DeploymentId`] `apply` returns, a pod by its [`PodId`]. Every
/// control-loop step and query costs O(objects it touches): pods are found
/// through their deployment's owner list, services through the selector
/// index, and neither grows with the number of pods the cluster has ever
/// run. Once the stores have grown to what runs at once, a deploy cycle of
/// a cached image does not touch the heap.
pub struct K8sCluster {
    timings: K8sTimings,
    workers: Vec<WorkerNode>,
    /// What the schedulers see, one per worker in the same order; `pods` is
    /// the authoritative count of live pods bound to the node.
    views: Vec<NodeView>,
    /// Indexed by [`DeploymentId`]: one slot per name ever applied.
    deployments: Vec<DeploymentSlot>,
    /// Deployment name → handle; only `apply` looks names up.
    by_name: BTreeMap<String, DeploymentId>,
    /// Indexed by [`PodId::slot`].
    pods: Vec<PodSlot>,
    /// Free slots of `pods`.
    free: Vec<u32>,
    selectors: SelectorIndex,
    /// Services whose endpoints object was reset by a re-apply while pods
    /// were already running behind them; the next pod transition anywhere
    /// brings them up to date, as the full recompute used to.
    stale: BTreeSet<DeploymentId>,
    /// The services one endpoints sync re-derives; kept for its capacity.
    sync_services: Vec<DeploymentId>,
    /// One service's derived addresses; swapped with its endpoints when
    /// they differ, so both buffers keep their capacity.
    sync_addrs: Vec<([u8; 4], u16)>,
    schedulers: SchedulerRegistry,
    /// Pending reconciliation steps. A binary heap, not the engine's
    /// calendar queue: a handful of steps are pending at a time, spread
    /// over seconds, so the calendar's two 1 024-bucket rings would hold
    /// each in a 16-slot block of its own and order nothing the heap's one
    /// buffer does not. On `deploy_churn` the calendar read 0.04 % more heap
    /// calls and bytes. The pop order is the same `(time, push order)`
    /// either way.
    work: NaiveEventQueue<Work>,
    pod_seq: u64,
    next_ip: u16,
    /// Chaos-testing injector: scale-up rejections and readiness-probe flaps.
    faults: Option<FaultInjector>,
    /// Pods left Pending by an *injected* rejection (as opposed to a genuine
    /// scheduler refusal), so callers can tell the two apart and retry.
    injected_rejections: usize,
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

/// One API-server round trip after `now`.
fn api(timings: &K8sTimings, now: SimTime, rng: &mut SimRng) -> SimTime {
    now + timings.api_call.sample_duration(rng)
}

impl K8sCluster {
    /// Creates a cluster with one worker node (named `egs`) backed by `node`.
    pub fn new(node: ContainerdNode, timings: K8sTimings, capacity: usize) -> K8sCluster {
        let mut cluster = K8sCluster {
            timings,
            workers: Vec::new(),
            views: Vec::new(),
            deployments: Vec::new(),
            by_name: BTreeMap::new(),
            pods: Vec::new(),
            free: Vec::new(),
            selectors: SelectorIndex::default(),
            stale: BTreeSet::new(),
            sync_services: Vec::new(),
            sync_addrs: Vec::new(),
            schedulers: SchedulerRegistry::new(),
            work: NaiveEventQueue::new(),
            pod_seq: 0,
            next_ip: 2,
            faults: None,
            injected_rejections: 0,
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

    /// Drains the number of pods left Pending by an *injected* scheduling
    /// rejection since the last call. A genuine scheduler refusal (cluster
    /// full, no matching node) does not count here.
    pub fn take_injected_rejections(&mut self) -> usize {
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

    /// All workers, in the order of their indexes.
    pub fn workers(&self) -> &[WorkerNode] {
        &self.workers
    }

    /// `true` if *some* worker has every layer of every manifest cached.
    pub fn any_worker_has(&self, manifests: &[registry::ImageManifest]) -> bool {
        self.workers
            .iter()
            .any(|w| manifests.iter().all(|m| w.node.store().has_image(m)))
    }

    /// `kubectl apply` of a deployment (+ its service, which is filed with
    /// it and addressed by the same handle). Returns the deployment's
    /// handle — the one it had if the name was applied before — and the
    /// instant the API server acknowledged both objects. Reconciliation
    /// continues in [`K8sCluster::settle`].
    pub fn apply(
        &mut self,
        deployment: Deployment,
        service: Service,
        now: SimTime,
        rng: &mut SimRng,
    ) -> (DeploymentId, SimTime) {
        self.ops.applies += 1;
        let t1 = api(&self.timings, now, rng);
        let id = match self.by_name.get(&deployment.name) {
            Some(&id) => id,
            None => {
                let id = DeploymentId(self.deployments.len() as u32);
                self.by_name.insert(deployment.name.clone(), id);
                self.deployments.push(DeploymentSlot {
                    name: deployment.name.clone(),
                    spec: None,
                    replicas: None,
                    owned: Vec::new(),
                    service: None,
                });
                id
            }
        };
        self.deployments[id.index()].spec = Some(deployment);
        let t2 = api(&self.timings, t1, rng);
        self.put_service(id, service);
        let react = t2 + self.timings.watch_reaction.sample_duration(rng);
        self.work.push(react, Work::DeploymentChanged(id));
        (id, t2)
    }

    /// Files `service` under `id` with a fresh (empty) endpoints object,
    /// replacing the one applied before. The one place that looks at every
    /// live pod: a new selector has to be matched against what already runs.
    fn put_service(&mut self, id: DeploymentId, service: Service) {
        self.drop_service(id);
        let mut backends: Vec<PodId> = self
            .live()
            .filter(|(_, p)| {
                p.phase == PodPhase::Running && selector_matches(&service.selector, &p.labels)
            })
            .map(|(pod, _)| pod)
            .collect();
        backends.sort_unstable();
        if !backends.is_empty() {
            self.stale.insert(id);
        }
        self.selectors.insert(id, &service);
        self.deployments[id.index()].service = Some(ServiceState {
            spec: service,
            endpoints: Endpoints::default(),
            backends,
        });
    }

    fn drop_service(&mut self, id: DeploymentId) {
        if let Some(old) = self.deployments[id.index()].service.take() {
            self.selectors.remove(id, &old.spec);
            self.stale.remove(&id);
        }
    }

    /// Live pods with their handles, in store order.
    fn live(&self) -> impl Iterator<Item = (PodId, &Pod)> + '_ {
        self.pods.iter().filter_map(|slot| Some((slot.id?, &slot.pod)))
    }

    /// The store index of `pod`, if it is live.
    fn slot_of(&self, pod: PodId) -> Option<usize> {
        let slot = pod.slot as usize;
        (self.pods.get(slot)?.id == Some(pod)).then_some(slot)
    }

    /// Scales a deployment (the controller's **Scale Up** / **Scale Down**
    /// API call). Returns the API acknowledgement instant.
    ///
    /// # Panics
    /// Panics if the deployment was deleted.
    pub fn scale(&mut self, id: DeploymentId, replicas: u32, now: SimTime, rng: &mut SimRng) -> SimTime {
        self.ops.scales += 1;
        let t = api(&self.timings, now, rng);
        let slot = &mut self.deployments[id.index()];
        let Some(dep) = slot.spec.as_mut() else {
            panic!("no deployment {}", slot.name);
        };
        dep.replicas = replicas;
        let react = t + self.timings.watch_reaction.sample_duration(rng);
        self.work.push(react, Work::DeploymentChanged(id));
        t
    }

    /// Deletes a deployment and its pods (**Remove** phase). Returns the API
    /// acknowledgement instant.
    pub fn delete_deployment(&mut self, id: DeploymentId, now: SimTime, rng: &mut SimRng) -> SimTime {
        self.ops.deletes += 1;
        let t = api(&self.timings, now, rng);
        let slot = &mut self.deployments[id.index()];
        slot.spec = None;
        if slot.replicas.take().is_some() {
            for &pod in &slot.owned {
                let react = t + self.timings.watch_reaction.sample_duration(rng);
                self.work.push(react, Work::TerminatePod(pod));
            }
        }
        t
    }

    /// Deletes the service applied with a deployment.
    pub fn delete_service(&mut self, id: DeploymentId, now: SimTime, rng: &mut SimRng) -> SimTime {
        self.ops.deletes += 1;
        let t = api(&self.timings, now, rng);
        self.drop_service(id);
        t
    }

    /// Runs the control loops until quiescence. Clears `out` and fills it
    /// with the timestamped event trail, in time order.
    pub fn settle(&mut self, rng: &mut SimRng, out: &mut Vec<ClusterEvent>) {
        out.clear();
        while let Some((now, work)) = self.work.pop() {
            match work {
                Work::DeploymentChanged(id) => self.reconcile_deployment(id, now, rng, out),
                Work::ReplicaSetChanged(id) => self.reconcile_replicaset(id, now, rng, out),
                Work::SchedulePod(pod) => self.schedule_pod(pod, now, rng, out),
                Work::KubeletSync(pod) => self.kubelet_sync(pod, now, rng, out),
                Work::TerminatePod(pod) => self.terminate_pod(pod, now, rng, out),
            }
        }
        out.sort_by_key(ClusterEvent::at);
    }

    fn reconcile_deployment(
        &mut self,
        id: DeploymentId,
        now: SimTime,
        rng: &mut SimRng,
        events: &mut Vec<ClusterEvent>,
    ) {
        let slot = &mut self.deployments[id.index()];
        let Some(dep) = &slot.spec else {
            return; // deleted meanwhile
        };
        let replicas = dep.replicas;
        let t = match &mut slot.replicas {
            Some(current) if *current == replicas => return, // nothing to do
            Some(current) => {
                *current = replicas;
                api(&self.timings, now, rng)
            }
            None => {
                let t = api(&self.timings, now, rng);
                slot.replicas = Some(replicas);
                events.push(ClusterEvent::ReplicaSetCreated { at: t, deployment: id });
                t
            }
        };
        let react = t + self.timings.watch_reaction.sample_duration(rng);
        self.work.push(react, Work::ReplicaSetChanged(id));
    }

    fn reconcile_replicaset(
        &mut self,
        id: DeploymentId,
        now: SimTime,
        rng: &mut SimRng,
        events: &mut Vec<ClusterEvent>,
    ) {
        let slot = &self.deployments[id.index()];
        let Some(desired) = slot.replicas else {
            return;
        };
        let desired = desired as usize;
        let live = slot.owned.len();
        if live < desired {
            let Some(dep) = &slot.spec else {
                return;
            };
            let labels = Rc::clone(&dep.template.labels);
            let scheduler_name = dep.scheduler_name.clone();
            let mut t = now;
            for _ in live..desired {
                self.pod_seq += 1;
                t = api(&self.timings, t, rng);
                let pod = self.insert_pod(id, Rc::clone(&labels), scheduler_name.clone());
                self.deployments[id.index()].owned.push(pod);
                events.push(ClusterEvent::PodCreated { at: t, pod });
                let sched_at = t + self.timings.scheduler_latency.sample_duration(rng);
                self.work.push(sched_at, Work::SchedulePod(pod));
            }
        } else if live > desired {
            // Scale down: newest pods go first (K8s victim preference).
            for i in (desired..live).rev() {
                let victim = self.deployments[id.index()].owned[i];
                let react = now + self.timings.watch_reaction.sample_duration(rng);
                self.work.push(react, Work::TerminatePod(victim));
            }
        }
    }

    /// Stores a new Pending pod numbered `pod_seq`, in a free slot if there
    /// is one.
    fn insert_pod(
        &mut self,
        deployment: DeploymentId,
        labels: Rc<Labels>,
        scheduler_name: Option<String>,
    ) -> PodId {
        let pod = Pod {
            labels,
            phase: PodPhase::Pending,
            node: None,
            ip: None,
            container_ids: Vec::new(),
            ready_at: None,
            scheduler_name,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                let old = &mut self.pods[slot as usize].pod;
                // The emptied container list keeps its capacity.
                let container_ids = std::mem::take(&mut old.container_ids);
                *old = Pod { container_ids, ..pod };
                slot
            }
            None => {
                self.pods.push(PodSlot { id: None, pod });
                (self.pods.len() - 1) as u32
            }
        };
        let id = PodId {
            seq: self.pod_seq,
            slot,
            deployment,
        };
        self.pods[slot as usize].id = Some(id);
        id
    }

    fn schedule_pod(
        &mut self,
        id: PodId,
        now: SimTime,
        rng: &mut SimRng,
        events: &mut Vec<ClusterEvent>,
    ) {
        let Some(slot) = self.slot_of(id) else {
            return;
        };
        if self.pods[slot].pod.phase != PodPhase::Pending {
            return;
        }
        if let Some(faults) = &mut self.faults {
            if faults.scale_up_rejected() {
                self.injected_rejections += 1;
                events.push(ClusterEvent::PodUnschedulable { at: now, pod: id });
                return;
            }
        }
        // `capacity` is a public field of the worker; the views only own
        // the pod counts.
        for (view, worker) in self.views.iter_mut().zip(&self.workers) {
            view.capacity = worker.capacity;
        }
        match self.schedulers.schedule(&self.pods[slot].pod, &self.views) {
            Some(node) => {
                let t = api(&self.timings, now, rng); // binding API call
                self.views[node].pods += 1;
                let pod = &mut self.pods[slot].pod;
                pod.node = Some(node);
                pod.phase = PodPhase::Scheduled;
                events.push(ClusterEvent::PodScheduled { at: t, pod: id, node });
                let sync = t + self.timings.kubelet_reaction.sample_duration(rng);
                self.work.push(sync, Work::KubeletSync(id));
            }
            None => {
                events.push(ClusterEvent::PodUnschedulable { at: now, pod: id });
            }
        }
    }

    fn kubelet_sync(
        &mut self,
        id: PodId,
        now: SimTime,
        rng: &mut SimRng,
        events: &mut Vec<ClusterEvent>,
    ) {
        let Some(slot) = self.slot_of(id) else {
            return;
        };
        let pod = &mut self.pods[slot].pod;
        if pod.phase != PodPhase::Scheduled {
            return;
        }
        let owner = &self.deployments[id.deployment.index()];
        if owner.replicas.is_none() {
            return;
        }
        let Some(dep) = &owner.spec else {
            return;
        };
        let containers = &dep.template.containers;
        let worker = &mut self.workers[pod.node.expect("scheduled pod has a node")].node;

        // Pull whatever is missing on *this node* (imagePullPolicy:
        // IfNotPresent) — this is the Pull phase showing up inside K8s when
        // the node's cache is cold.
        let pull_time = worker.pull(containers.iter().map(|c| &c.manifest), rng);
        let mut t = now + pull_time;

        // Sandbox: pause container + netns + CNI.
        t += self.timings.sandbox_setup.sample_duration(rng);

        // Create and start each container; app readiness runs concurrently
        // once its task is up, so pod readiness is the max over containers.
        pod.container_ids.clear();
        let mut ready_at = t;
        for c in containers {
            // K8s worker nodes run without containerd fault injection (the
            // runtime fault model lives on the Docker path), so create/start
            // cannot fail here.
            let (cid, created) = worker
                .create(Rc::clone(&c.spec), &c.manifest, t, rng)
                .expect("k8s worker nodes run without containerd fault injection");
            let ready_delay = c.ready.sample_duration(rng);
            let (started, ready) = worker
                .start(cid, created, ready_delay, rng)
                .expect("k8s worker nodes run without containerd fault injection");
            t = started; // next container's create begins after this start
            ready_at = ready_at.max(ready);
            pod.container_ids.push(cid);
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
        pod.ready_at = Some(ready_at);
        let labels = Rc::clone(&pod.labels);
        events.push(ClusterEvent::PodReady { at: ready_at, pod: id, ip });

        let ep_at = ready_at + self.timings.endpoint_propagation.sample_duration(rng);
        self.sync_endpoints(id, &labels, true, ep_at, events);
    }

    fn terminate_pod(
        &mut self,
        id: PodId,
        now: SimTime,
        rng: &mut SimRng,
        events: &mut Vec<ClusterEvent>,
    ) {
        // Deleting the object is what keeps the store — and with it every
        // query — proportional to what runs now, not to what ever ran.
        let Some(slot) = self.slot_of(id) else {
            return;
        };
        let entry = &mut self.pods[slot];
        entry.id = None;
        self.free.push(slot as u32);
        let owned = &mut self.deployments[id.deployment.index()].owned;
        if let Some(i) = owned.iter().position(|&p| p == id) {
            owned.remove(i);
        }
        let pod = &mut entry.pod;
        let mut t = now;
        if let Some(w) = pod.node {
            self.views[w].pods -= 1;
            let worker = &mut self.workers[w].node;
            for &cid in &pod.container_ids {
                t = worker.stop(cid, t, rng);
                t = worker.remove(cid, t, rng);
            }
        }
        pod.container_ids.clear();
        events.push(ClusterEvent::PodTerminated { at: t, pod: id });
        let labels = Rc::clone(&pod.labels);
        self.sync_endpoints(id, &labels, false, t, events);
    }

    /// The endpoints controller. `pod` either just started running
    /// (`joined`) or was just deleted; only the services selecting its labels
    /// can have gained or lost an address, so only those — and any `stale`
    /// ones — are re-derived, in handle order like the full recompute this
    /// replaces.
    fn sync_endpoints(
        &mut self,
        pod: PodId,
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
            deployments,
            selectors,
            stale,
            pods,
            sync_services,
            sync_addrs,
            ..
        } = self;
        sync_services.clear();
        for id in selectors.candidates(labels) {
            let svc = deployments[id.index()]
                .service
                .as_mut()
                .expect("indexed service exists");
            if !selector_matches(&svc.spec.selector, labels) {
                continue;
            }
            let at = svc.backends.binary_search(&pod);
            match (joined, at) {
                (true, Err(i)) => svc.backends.insert(i, pod),
                (false, Ok(i)) => drop(svc.backends.remove(i)),
                _ => {}
            }
            sync_services.push(id);
        }
        sync_services.extend(stale.iter());
        sync_services.sort_unstable();
        sync_services.dedup();
        for &id in sync_services.iter() {
            let svc = deployments[id.index()]
                .service
                .as_mut()
                .expect("indexed service exists");
            sync_addrs.clear();
            sync_addrs.extend(
                svc.backends
                    .iter()
                    .filter_map(|p| pods[p.slot as usize].pod.ip)
                    .map(|ip| (ip, svc.spec.target_port)),
            );
            sync_addrs.sort_unstable();
            if svc.endpoints.addresses != *sync_addrs {
                std::mem::swap(&mut svc.endpoints.addresses, sync_addrs);
                svc.endpoints.updated_at = at;
                events.push(ClusterEvent::EndpointsUpdated {
                    at,
                    service: id,
                    addresses: svc.endpoints.addresses.len(),
                });
            }
        }
        stale.clear();
    }

    /// Ready `(ip, port)` addresses behind a service at `now`, in pod
    /// creation order.
    fn ready_backends(
        &self,
        service: DeploymentId,
        now: SimTime,
    ) -> impl Iterator<Item = ([u8; 4], u16)> + '_ {
        self.deployments[service.index()]
            .service
            .iter()
            .flat_map(move |svc| {
                svc.backends.iter().filter_map(move |p| {
                    let pod = &self.pods[p.slot as usize].pod;
                    pod.ip
                        .filter(|_| pod.is_ready(now))
                        .map(|ip| (ip, svc.spec.target_port))
                })
            })
    }

    /// Ready `(ip, port)` addresses behind the service applied with `id`
    /// at `now`.
    pub fn ready_endpoints(&self, id: DeploymentId, now: SimTime) -> Vec<([u8; 4], u16)> {
        self.ready_backends(id, now).collect()
    }

    /// The first of [`K8sCluster::ready_endpoints`], without building the
    /// list.
    pub fn first_ready_endpoint(&self, id: DeploymentId, now: SimTime) -> Option<([u8; 4], u16)> {
        self.ready_backends(id, now).next()
    }

    /// `true` if the deployment object exists (it was not deleted).
    pub fn has_deployment(&self, id: DeploymentId) -> bool {
        self.deployments[id.index()].spec.is_some()
    }

    /// Live pods of a deployment, in creation order.
    pub fn live_pods(&self, id: DeploymentId) -> &[PodId] {
        &self.deployments[id.index()].owned
    }

    /// Looks up a (live) pod.
    #[cfg(test)]
    pub(crate) fn pod(&self, id: PodId) -> Option<&Pod> {
        self.slot_of(id).map(|slot| &self.pods[slot].pod)
    }

    /// A pod's name, `<deployment>-rs-<seq>`, live or not.
    pub fn pod_name(&self, id: PodId) -> String {
        format!("{}-rs-{}", self.deployments[id.deployment.index()].name, id.seq)
    }

    /// Endpoints object of the service applied with `id`.
    pub fn endpoints(&self, id: DeploymentId) -> Option<&Endpoints> {
        let svc = self.deployments[id.index()].service.as_ref()?;
        Some(&svc.endpoints)
    }

    /// Sizes of the object store and its indexes (leak checks).
    pub fn store_stats(&self) -> StoreStats {
        let slots = &self.deployments;
        StoreStats {
            pods: self.pods.len() - self.free.len(),
            owned: slots.iter().map(|d| d.owned.len()).sum(),
            backends: slots
                .iter()
                .filter_map(|d| d.service.as_ref())
                .map(|svc| svc.backends.len())
                .sum(),
            bound: self.views.iter().map(|v| v.pods).sum(),
            slots: self.pods.len(),
        }
    }
}

#[cfg(test)]
mod oracle;

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
                    spec: ContainerSpec::new("nginx", ImageRef::parse("nginx:1.23.2"), Some(80)).into(),
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

    /// `settle` into a fresh trail.
    fn settle(c: &mut K8sCluster, rng: &mut SimRng) -> Vec<ClusterEvent> {
        let mut events = Vec::new();
        c.settle(rng, &mut events);
        events
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
        let (id, _) = c.apply(dep, svc, SimTime::ZERO, &mut rng);
        let events = settle(&mut c, &mut rng);
        assert!(events.contains(&ClusterEvent::ReplicaSetCreated { at: events[0].at(), deployment: id }));
        assert!(!events.iter().any(|e| matches!(e, ClusterEvent::PodCreated { .. })));
        assert!(c.ready_endpoints(id, SimTime::from_secs(100)).is_empty());
    }

    #[test]
    fn scale_up_produces_ready_pod_in_about_three_seconds() {
        let mut rng = SimRng::new(2);
        let mut c = cluster_with_cached_nginx(&mut rng);
        let (dep, svc) = nginx_deployment(0);
        let (id, _) = c.apply(dep, svc, SimTime::ZERO, &mut rng);
        settle(&mut c, &mut rng);

        let t0 = SimTime::from_secs(10);
        c.scale(id, 1, t0, &mut rng);
        let events = settle(&mut c, &mut rng);
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
        assert!(c.ready_endpoints(id, t0).is_empty());
        assert_eq!(c.ready_endpoints(id, ready.0).len(), 1);
    }

    #[test]
    fn cold_image_adds_pull_time() {
        let mut rng1 = SimRng::new(3);
        let mut warm = cluster_with_cached_nginx(&mut rng1);
        let (dep, svc) = nginx_deployment(1);
        warm.apply(dep, svc, SimTime::ZERO, &mut rng1);
        let warm_ready = settle(&mut warm, &mut rng1)
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
        let cold_ready = settle(&mut cold, &mut rng2)
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
        let (id, _) = c.apply(dep, svc, SimTime::ZERO, &mut rng);
        settle(&mut c, &mut rng);
        let ready_time = SimTime::from_secs(30);
        assert_eq!(c.ready_endpoints(id, ready_time).len(), 1);

        c.scale(id, 0, ready_time, &mut rng);
        let events = settle(&mut c, &mut rng);
        assert!(events.iter().any(|e| matches!(e, ClusterEvent::PodTerminated { .. })));
        assert!(c.ready_endpoints(id, SimTime::from_secs(120)).is_empty());
        assert_eq!(c.live_pods(id).len(), 0);
        // Containers are gone from containerd too.
        assert_eq!(c.node().container_count(), 0);
    }

    #[test]
    fn multi_replica_scale() {
        let mut rng = SimRng::new(5);
        let mut c = cluster_with_cached_nginx(&mut rng);
        let (dep, svc) = nginx_deployment(3);
        let (id, _) = c.apply(dep, svc, SimTime::ZERO, &mut rng);
        let events = settle(&mut c, &mut rng);
        let ready = events
            .iter()
            .filter(|e| matches!(e, ClusterEvent::PodReady { .. }))
            .count();
        assert_eq!(ready, 3);
        assert_eq!(c.ready_endpoints(id, SimTime::from_secs(60)).len(), 3);
        // Distinct pod IPs.
        let ips: std::collections::HashSet<_> = c
            .live_pods(id)
            .iter()
            .map(|&p| c.pod(p).unwrap().ip.unwrap())
            .collect();
        assert_eq!(ips.len(), 3);
        let names: Vec<String> = c.live_pods(id).iter().map(|&p| c.pod_name(p)).collect();
        assert_eq!(names, ["nginx-edge-rs-1", "nginx-edge-rs-2", "nginx-edge-rs-3"]);
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
                        spec: ContainerSpec::new("nginx", ImageRef::parse("nginx:1.23.2"), Some(80)).into(),
                        manifest: catalog::nginx(),
                        ready: LogNormal::from_median(0.045, 0.0),
                    },
                    PodContainer {
                        spec: ContainerSpec::new(
                            "env-writer",
                            ImageRef::parse("josefhammer/env-writer-py"),
                            None,
                        )
                        .into(),
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
        let events = settle(&mut c, &mut rng);
        let pod = events
            .iter()
            .find_map(|e| match e {
                ClusterEvent::PodReady { pod, .. } => Some(*pod),
                _ => None,
            })
            .unwrap();
        assert_eq!(c.pod(pod).unwrap().container_ids.len(), 2);
    }

    #[test]
    fn custom_scheduler_is_used() {
        struct Refuser;
        impl K8sScheduler for Refuser {
            fn name(&self) -> &str {
                "refuser"
            }
            fn schedule(&mut self, _: &Pod, _: &[NodeView]) -> Option<usize> {
                None
            }
        }
        let mut rng = SimRng::new(7);
        let mut c = cluster_with_cached_nginx(&mut rng);
        c.register_scheduler(Box::new(Refuser));
        let (mut dep, svc) = nginx_deployment(1);
        dep.scheduler_name = Some("refuser".into());
        c.apply(dep, svc, SimTime::ZERO, &mut rng);
        let events = settle(&mut c, &mut rng);
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
        let (id, _) = c.apply(dep, svc, SimTime::ZERO, &mut rng);
        settle(&mut c, &mut rng);
        c.scale(id, 1, SimTime::from_secs(10), &mut rng);
        let events = settle(&mut c, &mut rng);
        assert!(events.iter().any(|e| matches!(e, ClusterEvent::PodUnschedulable { .. })));
        assert!(!events.iter().any(|e| matches!(e, ClusterEvent::PodReady { .. })));
        assert_eq!(c.take_injected_rejections(), 1);
        assert_eq!(c.take_injected_rejections(), 0, "drained on take");

        // Retry after clearing the fault: reset to zero replicas (terminates
        // the stuck Pending pod), then scale up again.
        c.set_faults(FaultPlan::default().injector(0x12));
        c.scale(id, 0, SimTime::from_secs(12), &mut rng);
        settle(&mut c, &mut rng);
        c.scale(id, 1, SimTime::from_secs(14), &mut rng);
        let events = settle(&mut c, &mut rng);
        assert!(events.iter().any(|e| matches!(e, ClusterEvent::PodReady { .. })));
        assert_eq!(c.take_injected_rejections(), 0);
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
            settle(&mut c, &mut rng)
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
        let (id, _) = c.apply(dep, svc, SimTime::ZERO, &mut rng);
        settle(&mut c, &mut rng);
        c.delete_deployment(id, SimTime::from_secs(60), &mut rng);
        c.delete_service(id, SimTime::from_secs(60), &mut rng);
        let events = settle(&mut c, &mut rng);
        assert!(events.iter().any(|e| matches!(e, ClusterEvent::PodTerminated { .. })));
        assert!(!c.has_deployment(id));
        assert!(c.endpoints(id).is_none());
        assert_eq!(c.store_stats(), StoreStats { slots: 1, ..StoreStats::default() });
        // A re-apply of the name gets its handle back.
        let (dep, svc) = nginx_deployment(1);
        assert_eq!(c.apply(dep, svc, SimTime::from_secs(90), &mut rng).0, id);
    }
}
