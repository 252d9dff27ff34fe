//! Multi-worker cluster behaviour: placement by the pluggable scheduler and
//! per-node image caches.

use containerd::{ContainerSpec, ContainerdNode};
use desim::{LogNormal, SimRng, SimTime};
use k8ssim::objects::{PodContainer, PodTemplate};
use k8ssim::{ClusterEvent, Deployment, K8sCluster, PackFirstScheduler, Service};
use registry::image::catalog;
use registry::ImageRef;
use std::collections::BTreeMap;

fn labels(app: &str) -> BTreeMap<String, String> {
    [("app".to_string(), app.to_string())].into()
}

fn nginx_deployment(name: &str, scheduler: Option<&str>) -> (Deployment, Service) {
    let sel = labels(name);
    let dep = Deployment {
        name: name.into(),
        labels: sel.clone(),
        replicas: 1,
        selector: sel.clone(),
        template: PodTemplate {
            labels: sel.clone().into(),
            containers: vec![PodContainer {
                spec: ContainerSpec::new("nginx", ImageRef::parse("nginx:1.23.2"), Some(80)).into(),
                manifest: catalog::nginx(),
                ready: LogNormal::from_median(0.045, 0.0),
            }],
        },
        scheduler_name: scheduler.map(str::to_owned),
    };
    let svc = Service {
        name: name.into(),
        selector: sel,
        port: 80,
        target_port: 80,
        protocol: "TCP".into(),
    };
    (dep, svc)
}

fn three_node_cluster() -> K8sCluster {
    let mut c = K8sCluster::with_defaults();
    c.add_worker("pi-01", ContainerdNode::with_defaults(), 30);
    c.add_worker("pi-02", ContainerdNode::with_defaults(), 30);
    c.register_scheduler(Box::<PackFirstScheduler>::default());
    c
}

/// `settle`, appending the trail to `all`.
fn settle_into(c: &mut K8sCluster, rng: &mut SimRng, all: &mut Vec<ClusterEvent>) {
    let mut events = Vec::new();
    c.settle(rng, &mut events);
    all.extend(events);
}

/// The names of the nodes the trail's pods were bound to.
fn placements(c: &K8sCluster, events: &[ClusterEvent]) -> Vec<String> {
    events
        .iter()
        .filter_map(|e| match e {
            ClusterEvent::PodScheduled { node, .. } => Some(c.workers()[*node].name.clone()),
            _ => None,
        })
        .collect()
}

#[test]
fn default_scheduler_spreads_across_workers() {
    let mut rng = SimRng::new(1);
    let mut c = three_node_cluster();
    for w in ["egs", "pi-01", "pi-02"] {
        c.worker_mut(w).unwrap().node.pull(&[catalog::nginx()], &mut rng);
    }
    let mut all = Vec::new();
    for i in 0..6 {
        let (dep, svc) = nginx_deployment(&format!("svc-{i}"), None);
        c.apply(dep, svc, SimTime::from_secs(i), &mut rng);
        settle_into(&mut c, &mut rng, &mut all);
    }
    let nodes = placements(&c, &all);
    assert_eq!(nodes.len(), 6);
    let distinct: std::collections::HashSet<_> = nodes.iter().collect();
    assert_eq!(distinct.len(), 3, "spread uses every node: {nodes:?}");
}

#[test]
fn pack_scheduler_fills_one_node() {
    let mut rng = SimRng::new(2);
    let mut c = three_node_cluster();
    for w in ["egs", "pi-01", "pi-02"] {
        c.worker_mut(w).unwrap().node.pull(&[catalog::nginx()], &mut rng);
    }
    let mut all = Vec::new();
    for i in 0..6 {
        let (dep, svc) = nginx_deployment(&format!("svc-{i}"), Some("edge-pack-scheduler"));
        c.apply(dep, svc, SimTime::from_secs(i), &mut rng);
        settle_into(&mut c, &mut rng, &mut all);
    }
    let nodes = placements(&c, &all);
    let distinct: std::collections::HashSet<_> = nodes.iter().collect();
    assert_eq!(distinct.len(), 1, "packing stays on one node: {nodes:?}");
}

#[test]
fn per_node_caches_spread_pulls_pack_reuses() {
    // Cold caches everywhere: spreading pulls the image onto every node,
    // packing pulls it exactly once. This is why the Local Scheduler matters
    // at the edge.
    let run = |scheduler: Option<&str>| -> (u64, usize) {
        let mut rng = SimRng::new(3);
        let mut c = three_node_cluster();
        for i in 0..6 {
            let (dep, svc) = nginx_deployment(&format!("svc-{i}"), scheduler);
            c.apply(dep, svc, SimTime::from_secs(i * 30), &mut rng);
            settle_into(&mut c, &mut rng, &mut Vec::new());
        }
        let bytes: u64 = c.workers().iter().map(|w| w.node.store().disk_usage()).sum();
        let nodes_with_image = c
            .workers()
            .iter()
            .filter(|w| w.node.store().has_image(&catalog::nginx()))
            .count();
        (bytes, nodes_with_image)
    };
    let (spread_bytes, spread_nodes) = run(None);
    let (pack_bytes, pack_nodes) = run(Some("edge-pack-scheduler"));
    assert_eq!(spread_nodes, 3);
    assert_eq!(pack_nodes, 1);
    assert_eq!(spread_bytes, 3 * pack_bytes, "spread pulled on all 3 nodes");
}

#[test]
fn capacity_overflow_spills_to_other_nodes_when_packing() {
    let mut rng = SimRng::new(4);
    let mut c = K8sCluster::with_defaults();
    // Tiny capacities force spill.
    c.add_worker("pi-01", ContainerdNode::with_defaults(), 2);
    c.register_scheduler(Box::<PackFirstScheduler>::default());
    for w in ["egs", "pi-01"] {
        c.worker_mut(w).unwrap().node.pull(&[catalog::nginx()], &mut rng);
    }
    // egs has capacity 110; pack keeps choosing the fullest node with room.
    let mut all = Vec::new();
    for i in 0..4 {
        let (dep, svc) = nginx_deployment(&format!("svc-{i}"), Some("edge-pack-scheduler"));
        c.apply(dep, svc, SimTime::from_secs(i), &mut rng);
        settle_into(&mut c, &mut rng, &mut all);
    }
    assert_eq!(placements(&c, &all).len(), 4, "all pods placed");
}

#[test]
fn terminate_releases_containers_on_the_right_node() {
    let mut rng = SimRng::new(5);
    let mut c = three_node_cluster();
    for w in ["egs", "pi-01", "pi-02"] {
        c.worker_mut(w).unwrap().node.pull(&[catalog::nginx()], &mut rng);
    }
    let (dep, svc) = nginx_deployment("svc-a", None);
    let (id, _) = c.apply(dep, svc, SimTime::ZERO, &mut rng);
    let mut events = Vec::new();
    settle_into(&mut c, &mut rng, &mut events);
    let node = placements(&c, &events)[0].clone();
    assert_eq!(c.worker(&node).unwrap().node.container_count(), 1);

    c.scale(id, 0, SimTime::from_secs(60), &mut rng);
    settle_into(&mut c, &mut rng, &mut Vec::new());
    assert_eq!(c.worker(&node).unwrap().node.container_count(), 0);
    for w in c.workers() {
        assert_eq!(w.node.container_count(), 0);
    }
}

#[test]
fn scale_down_takes_the_newest_pod_past_nine() {
    // "Newest pods go first" by creation, not by name: `svc-a-rs-10` sorts
    // before `svc-a-rs-9` as a string, but it is the newer pod.
    let mut rng = SimRng::new(6);
    let mut c = K8sCluster::with_defaults();
    c.node_mut().pull(&[catalog::nginx()], &mut rng);
    let (mut dep, svc) = nginx_deployment("svc-a", None);
    dep.replicas = 10;
    let (id, _) = c.apply(dep, svc, SimTime::ZERO, &mut rng);
    settle_into(&mut c, &mut rng, &mut Vec::new());
    assert_eq!(c.live_pods(id).len(), 10);

    c.scale(id, 9, SimTime::from_secs(60), &mut rng);
    let mut events = Vec::new();
    settle_into(&mut c, &mut rng, &mut events);
    let terminated: Vec<String> = events
        .iter()
        .filter_map(|e| match e {
            ClusterEvent::PodTerminated { pod, .. } => Some(c.pod_name(*pod)),
            _ => None,
        })
        .collect();
    assert_eq!(terminated, ["svc-a-rs-10"]);
    let live: Vec<String> = c.live_pods(id).iter().map(|&p| c.pod_name(p)).collect();
    let expected: Vec<String> = (1..=9).map(|n| format!("svc-a-rs-{n}")).collect();
    assert_eq!(live, expected);
}
