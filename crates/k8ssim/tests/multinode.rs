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
                spec: ContainerSpec::new("nginx", ImageRef::parse("nginx:1.23.2"), Some(80)),
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

fn placements(events: &[ClusterEvent]) -> Vec<String> {
    events
        .iter()
        .filter_map(|e| match e {
            ClusterEvent::PodScheduled { node, .. } => Some(node.clone()),
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
        all.extend(c.settle(&mut rng));
    }
    let nodes = placements(&all);
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
        all.extend(c.settle(&mut rng));
    }
    let nodes = placements(&all);
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
            c.settle(&mut rng);
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
        all.extend(c.settle(&mut rng));
    }
    assert_eq!(placements(&all).len(), 4, "all pods placed");
}

#[test]
fn terminate_releases_containers_on_the_right_node() {
    let mut rng = SimRng::new(5);
    let mut c = three_node_cluster();
    for w in ["egs", "pi-01", "pi-02"] {
        c.worker_mut(w).unwrap().node.pull(&[catalog::nginx()], &mut rng);
    }
    let (dep, svc) = nginx_deployment("svc-a", None);
    c.apply(dep, svc, SimTime::ZERO, &mut rng);
    let events = c.settle(&mut rng);
    let node = placements(&events)[0].clone();
    assert_eq!(c.worker(&node).unwrap().node.container_count(), 1);

    c.scale("svc-a", 0, SimTime::from_secs(60), &mut rng);
    c.settle(&mut rng);
    assert_eq!(c.worker(&node).unwrap().node.container_count(), 0);
    for w in c.workers() {
        assert_eq!(w.node.container_count(), 0);
    }
}
