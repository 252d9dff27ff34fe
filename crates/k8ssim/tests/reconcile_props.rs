//! Property tests for the reconciliation engine: arbitrary apply/scale
//! sequences settle, events stay causally ordered, the pod population
//! always converges to the declared replica counts, the indexed queries
//! agree with a full scan over every pod the cluster ever created, and the
//! store holds only what is deployed now.

use containerd::ContainerSpec;
use desim::{Duration, LogNormal, SimRng, SimTime};
use k8ssim::objects::{PodContainer, PodTemplate};
use k8ssim::objects::selector_matches;
use k8ssim::{ClusterEvent, Deployment, DeploymentId, K8sCluster, PodId, Service, StoreStats};
use proptest::prelude::*;
use registry::image::catalog;
use registry::ImageRef;
use std::collections::BTreeMap;

type Labels = BTreeMap<String, String>;

fn labels(pairs: &[(&str, &str)]) -> Labels {
    pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
}

fn deployment(name: &str, replicas: u32) -> (Deployment, Service) {
    let sel = labels(&[("app", name)]);
    objects(name, replicas, sel.clone(), sel)
}

/// A deployment whose pods carry `pod_labels`, and the service of the same
/// name selecting `selector`.
fn objects(name: &str, replicas: u32, pod_labels: Labels, selector: Labels) -> (Deployment, Service) {
    (
        Deployment {
            name: name.into(),
            labels: pod_labels.clone(),
            replicas,
            selector: pod_labels.clone(),
            template: PodTemplate {
                labels: pod_labels.into(),
                containers: vec![PodContainer {
                    spec: ContainerSpec::new("c", ImageRef::parse("josefhammer/web-asm:amd64"), Some(80)).into(),
                    manifest: catalog::web_asm(),
                    ready: LogNormal::from_median(0.005, 0.1),
                }],
            },
            scheduler_name: None,
        },
        Service {
            name: name.into(),
            selector,
            port: 80,
            target_port: 80,
            protocol: "TCP".into(),
        },
    )
}

/// `settle` into a fresh trail.
fn settle(c: &mut K8sCluster, rng: &mut SimRng) -> Vec<ClusterEvent> {
    let mut events = Vec::new();
    c.settle(rng, &mut events);
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For any sequence of scale targets, the cluster converges to the last
    /// declared replica count, and endpoints match ready pods.
    #[test]
    fn scaling_converges(targets in prop::collection::vec(0u32..5, 1..8), seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        let mut c = K8sCluster::with_defaults();
        c.node_mut().pull(&[catalog::web_asm()], &mut rng);
        let (dep, svc) = deployment("svc", 0);
        let (id, _) = c.apply(dep, svc, SimTime::ZERO, &mut rng);
        let mut trail = Vec::new();
        c.settle(&mut rng, &mut trail);
        let mut now = SimTime::from_secs(10);
        let mut last = 0;
        for t in targets {
            c.scale(id, t, now, &mut rng);
            c.settle(&mut rng, &mut trail);
            now += Duration::from_secs(60);
            last = t;
        }
        let live = c.live_pods(id).len();
        prop_assert_eq!(live, last as usize, "converged to declared replicas");
        let eps = c.ready_endpoints(id, now);
        prop_assert_eq!(eps.len(), last as usize);
        // Distinct pod addresses.
        let distinct: std::collections::HashSet<_> = eps.iter().collect();
        prop_assert_eq!(distinct.len(), eps.len());
    }

    /// Every pod's events are causally ordered: Created ≤ Scheduled ≤ Ready,
    /// for arbitrary multi-deployment workloads.
    #[test]
    fn events_causally_ordered(n_deps in 1usize..5, replicas in 1u32..4, seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        let mut c = K8sCluster::with_defaults();
        c.node_mut().pull(&[catalog::web_asm()], &mut rng);
        let mut events = Vec::new();
        for i in 0..n_deps {
            let (dep, svc) = deployment(&format!("svc-{i}"), replicas);
            c.apply(dep, svc, SimTime::from_secs(i as u64), &mut rng);
            events.extend(settle(&mut c, &mut rng));
        }
        use std::collections::HashMap;
        let mut created: HashMap<PodId, SimTime> = HashMap::new();
        let mut scheduled: HashMap<PodId, SimTime> = HashMap::new();
        for e in &events {
            match *e {
                ClusterEvent::PodCreated { at, pod } => {
                    created.insert(pod, at);
                }
                ClusterEvent::PodScheduled { at, pod, .. } => {
                    prop_assert!(created[&pod] <= at);
                    scheduled.insert(pod, at);
                }
                ClusterEvent::PodReady { at, pod, .. } => {
                    prop_assert!(scheduled[&pod] <= at);
                }
                _ => {}
            }
        }
        let ready_count = events.iter().filter(|e| matches!(e, ClusterEvent::PodReady { .. })).count();
        prop_assert_eq!(ready_count, n_deps * replicas as usize);
    }

    /// settle() is idempotent: a second call with no new work produces no
    /// events and changes nothing.
    #[test]
    fn settle_is_idempotent(replicas in 0u32..4, seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        let mut c = K8sCluster::with_defaults();
        c.node_mut().pull(&[catalog::web_asm()], &mut rng);
        let (dep, svc) = deployment("svc", replicas);
        let (id, _) = c.apply(dep, svc, SimTime::ZERO, &mut rng);
        settle(&mut c, &mut rng);
        let live_before = c.live_pods(id).len();
        let again = settle(&mut c, &mut rng);
        prop_assert!(again.is_empty());
        prop_assert_eq!(c.live_pods(id).len(), live_before);
    }
}

// -- the indexed store against a full scan over the whole history ----------

const DEPLOYMENTS: usize = 4;

fn dep_name(i: usize) -> String {
    format!("d{i}")
}

/// Pods of deployment `i` are labelled `app=d<i>, tier=web|db`.
fn pod_labels(i: usize) -> Labels {
    labels(&[("app", &dep_name(i)), ("tier", if i.is_multiple_of(2) { "web" } else { "db" })])
}

/// Four overlapping selector shapes for the service applied with deployment
/// `i`: this deployment, its whole tier, both pairs, everything.
fn selector(i: usize, shape: usize) -> Labels {
    let mut sel = pod_labels(i);
    match shape {
        0 => drop(sel.remove("tier")),
        1 => drop(sel.remove("app")),
        2 => {}
        _ => sel.clear(),
    }
    sel
}

#[derive(Clone, Debug)]
enum Op {
    Apply { dep: usize, replicas: u32, shape: usize },
    Scale { dep: usize, replicas: u32 },
    DeleteDeployment(usize),
    DeleteService(usize),
    Settle,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..DEPLOYMENTS, 0u32..3, 0usize..4)
            .prop_map(|(dep, replicas, shape)| Op::Apply { dep, replicas, shape }),
        (0..DEPLOYMENTS, 0u32..3).prop_map(|(dep, replicas)| Op::Scale { dep, replicas }),
        (0..DEPLOYMENTS, 0u32..3).prop_map(|(dep, replicas)| Op::Scale { dep, replicas }),
        (0..DEPLOYMENTS).prop_map(Op::DeleteDeployment),
        (0..DEPLOYMENTS).prop_map(Op::DeleteService),
        Just(Op::Settle),
        Just(Op::Settle),
    ]
}

#[derive(Debug)]
struct SeenPod {
    labels: Labels,
    bound: bool,
    /// `(ip, ready_at)` once the kubelet started it.
    running: Option<([u8; 4], SimTime)>,
    terminated: bool,
}

struct SeenService {
    selector: Labels,
    target_port: u16,
    /// What its endpoints object must hold.
    addresses: Vec<([u8; 4], u16)>,
}

/// The oracle: every pod the cluster ever announced, terminated ones
/// included, rebuilt from the event trail alone — and every query answered
/// by walking all of them, the way the cluster itself used to.
#[derive(Default)]
struct History {
    /// Keyed by handle, so in creation order.
    pods: BTreeMap<PodId, SeenPod>,
    /// Keyed by deployment index.
    services: BTreeMap<usize, SeenService>,
}

impl History {
    /// Folds one settle's trail in. `deps[i]` is deployment `i`'s handle.
    /// Returns whether any pod changed phase — the moments the endpoints
    /// controller runs.
    fn absorb(&mut self, trail: &[ClusterEvent], c: &K8sCluster, deps: &[Option<DeploymentId>]) -> bool {
        let mut transition = false;
        for e in trail {
            match *e {
                ClusterEvent::PodCreated { pod, .. } => {
                    let dep = deps.iter().position(|&d| d == Some(pod.deployment)).unwrap();
                    assert_eq!(c.pod_name(pod), format!("d{dep}-rs-{}", pod.seq));
                    let seen = SeenPod {
                        labels: pod_labels(dep),
                        bound: false,
                        running: None,
                        terminated: false,
                    };
                    assert!(self.pods.insert(pod, seen).is_none(), "pod handles are never reused");
                }
                ClusterEvent::PodScheduled { pod, .. } => self.pods.get_mut(&pod).unwrap().bound = true,
                ClusterEvent::PodReady { at, pod, ip } => {
                    self.pods.get_mut(&pod).unwrap().running = Some((ip, at));
                    transition = true;
                }
                ClusterEvent::PodTerminated { pod, .. } => {
                    self.pods.get_mut(&pod).unwrap().terminated = true;
                    transition = true;
                }
                _ => {}
            }
        }
        transition
    }

    fn live(&self) -> impl Iterator<Item = (&PodId, &SeenPod)> {
        self.pods.iter().filter(|(_, p)| !p.terminated)
    }

    /// Addresses of the running pods `svc` selects that are ready by `at`,
    /// in creation order.
    fn ready(&self, svc: &SeenService, at: SimTime) -> Vec<([u8; 4], u16)> {
        self.live()
            .filter(|(_, p)| selector_matches(&svc.selector, &p.labels))
            .filter_map(|(_, p)| p.running)
            .filter(|&(_, ready_at)| ready_at <= at)
            .map(|(ip, _)| (ip, svc.target_port))
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random interleavings of apply / scale / delete_deployment /
    /// delete_service / settle over deployments with overlapping label sets:
    /// after every settle, `endpoints`, `ready_endpoints`, `live_pods` and
    /// the store's counts equal what a scan over the full pod history gives.
    /// (The event trail itself is compared against the retained full
    /// recompute inside the crate: `cluster::oracle`.)
    #[test]
    fn indexed_queries_equal_a_scan_of_the_history(ops in prop::collection::vec(op(), 1..40), seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        let mut c = K8sCluster::with_defaults();
        c.node_mut().pull(&[catalog::web_asm()], &mut rng);
        let mut history = History::default();
        let mut handles: [Option<DeploymentId>; DEPLOYMENTS] = [None; DEPLOYMENTS];
        let mut trail = Vec::new();
        let mut now = SimTime::ZERO;
        for op in ops.into_iter().chain([Op::Settle]) {
            now += Duration::from_millis(700);
            match op {
                Op::Apply { dep, replicas, shape } => {
                    let (d, mut s) = objects(&dep_name(dep), replicas, pod_labels(dep), selector(dep, shape));
                    s.target_port = 8000 + dep as u16;
                    // A re-applied service starts from an empty endpoints object.
                    let seen = SeenService {
                        selector: s.selector.clone(),
                        target_port: s.target_port,
                        addresses: vec![],
                    };
                    history.services.insert(dep, seen);
                    let (id, _) = c.apply(d, s, now, &mut rng);
                    prop_assert!(handles[dep].is_none_or(|h| h == id), "a name keeps its handle");
                    handles[dep] = Some(id);
                }
                Op::Scale { dep, replicas } => {
                    if let Some(id) = handles[dep].filter(|&id| c.has_deployment(id)) {
                        c.scale(id, replicas, now, &mut rng);
                    }
                }
                Op::DeleteDeployment(dep) => {
                    if let Some(id) = handles[dep] {
                        c.delete_deployment(id, now, &mut rng);
                    }
                }
                Op::DeleteService(dep) => {
                    if let Some(id) = handles[dep] {
                        c.delete_service(id, now, &mut rng);
                        history.services.remove(&dep);
                    }
                }
                Op::Settle => {
                    c.settle(&mut rng, &mut trail);
                    if history.absorb(&trail, &c, &handles) {
                        // The endpoints controller ran after the last phase
                        // change: every service is up to date.
                        let derived: Vec<_> = history
                            .services
                            .values()
                            .map(|svc| {
                                let mut addrs = history.ready(svc, SimTime::MAX);
                                addrs.sort();
                                addrs
                            })
                            .collect();
                        for (svc, addrs) in history.services.values_mut().zip(derived) {
                            svc.addresses = addrs;
                        }
                    }
                    for (i, id) in handles.iter().enumerate() {
                        let Some(id) = *id else { continue };
                        let live: Vec<PodId> = history.live().map(|(&p, _)| p).filter(|p| p.deployment == id).collect();
                        prop_assert_eq!(c.live_pods(id), &live[..], "live_pods({})", dep_name(i));
                        match history.services.get(&i) {
                            Some(svc) => {
                                prop_assert_eq!(&c.endpoints(id).unwrap().addresses, &svc.addresses, "endpoints({})", dep_name(i));
                                // Between the pods' readiness instants too.
                                for at in trail.iter().map(ClusterEvent::at).chain([now, SimTime::MAX]) {
                                    let ready = history.ready(svc, at);
                                    prop_assert_eq!(c.first_ready_endpoint(id, at), ready.first().copied());
                                    prop_assert_eq!(c.ready_endpoints(id, at), ready);
                                }
                            }
                            None => {
                                prop_assert!(c.endpoints(id).is_none());
                                prop_assert!(c.ready_endpoints(id, SimTime::MAX).is_empty());
                            }
                        }
                    }
                    let running: Vec<&SeenPod> = history.live().map(|(_, p)| p).filter(|p| p.running.is_some()).collect();
                    let backends = history
                        .services
                        .values()
                        .map(|svc| running.iter().filter(|p| selector_matches(&svc.selector, &p.labels)).count())
                        .sum();
                    let stats = c.store_stats();
                    prop_assert!(stats.slots >= stats.pods);
                    prop_assert_eq!(stats, StoreStats {
                        pods: history.live().count(),
                        owned: history.live().count(),
                        backends,
                        bound: history.live().filter(|(_, p)| p.bound).count(),
                        slots: stats.slots,
                    });
                }
            }
        }
    }
}

/// The leak check: 2 000 scale-up / scale-down cycles over 100 deployments.
/// The store never holds more than what is deployed at that moment, its pod
/// slots never outnumber the most pods live at once, and a final
/// scale-to-zero leaves the pod store and every index empty — so a
/// reintroduced scan over everything ever created has nothing to walk, and a
/// reintroduced graveyard (or a slot store that forgets to reuse) fails
/// here, without a wall-clock gate.
#[test]
fn churn_leaves_nothing_behind() {
    const DEPLOYMENTS: usize = 100;
    const CYCLES: usize = 2_000;
    /// A deployment is scaled down this many cycles after it went up.
    const UP_FOR: usize = 25;
    let mut rng = SimRng::new(11);
    let mut c = K8sCluster::with_defaults();
    c.node_mut().pull(&[catalog::web_asm()], &mut rng);
    let mut now = SimTime::ZERO;
    let ids: Vec<DeploymentId> = (0..DEPLOYMENTS)
        .map(|i| {
            let (dep, svc) = deployment(&format!("svc-{i:03}"), 0);
            c.apply(dep, svc, now, &mut rng).0
        })
        .collect();
    let id = |cycle: usize| ids[cycle % DEPLOYMENTS];
    let mut trail = Vec::new();
    c.settle(&mut rng, &mut trail);
    let mut created = 0;
    // The most pods that can have been live at once: those live before a
    // settle plus those it created (terminations only lower the count).
    let mut peak = 0;
    for cycle in 0..CYCLES {
        now += Duration::from_secs(5);
        let before = c.store_stats().pods;
        c.scale(id(cycle), 1, now, &mut rng);
        if cycle >= UP_FOR {
            c.scale(id(cycle - UP_FOR), 0, now, &mut rng);
        }
        c.settle(&mut rng, &mut trail);
        let new = trail.iter().filter(|e| matches!(e, ClusterEvent::PodCreated { .. })).count();
        created += new;
        peak = peak.max(before + new);
        let stats = c.store_stats();
        assert!(stats.pods <= UP_FOR + 1, "cycle {cycle}: {stats:?}");
        assert!(stats.slots <= peak, "cycle {cycle}: {stats:?}, peak {peak}");
        assert_eq!((stats.owned, stats.backends, stats.bound), (stats.pods, stats.pods, stats.pods));
    }
    assert_eq!(created, CYCLES, "every cycle ran a fresh pod");
    for &id in &ids {
        c.scale(id, 0, now, &mut rng);
    }
    c.settle(&mut rng, &mut trail);
    let stats = c.store_stats();
    assert_eq!(stats, StoreStats { slots: stats.slots, ..StoreStats::default() });
    assert!(stats.slots <= peak);
    assert_eq!(c.node().container_count(), 0);
    for &id in &ids {
        assert!(c.live_pods(id).is_empty());
        assert!(c.endpoints(id).unwrap().addresses.is_empty());
    }
}
