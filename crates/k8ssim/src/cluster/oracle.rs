//! The full-scan reference the indexed store is tested against: the
//! endpoints controller and the queries as they were before the indexes,
//! walking every pod and comparing strings. A differential proptest drives
//! an indexed cluster and a full-recompute twin through the same random
//! operations and demands the same event trail and the same answers.

use super::*;
use crate::objects::{PodContainer, PodTemplate};
use containerd::ContainerSpec;
use desim::Duration;
use proptest::prelude::*;
use registry::image::catalog;
use registry::ImageRef;

impl K8sCluster {
    /// The endpoints controller without the selector index: re-derives
    /// every service from every pod on every pod transition.
    pub(super) fn recompute_endpoints(&mut self, at: SimTime, events: &mut Vec<ClusterEvent>) {
        for (name, svc) in &mut self.services {
            let mut addrs: Vec<([u8; 4], u16)> = self
                .pods
                .values()
                .filter(|p| {
                    p.phase == PodPhase::Running && selector_matches(&svc.spec.selector, &p.labels)
                })
                .filter_map(|p| p.ip.map(|ip| (ip, svc.spec.target_port)))
                .collect();
            addrs.sort();
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
    }

    fn scan_ready_endpoints(&self, service: &str, now: SimTime) -> Vec<([u8; 4], u16)> {
        let Some(svc) = self.services.get(service) else {
            return vec![];
        };
        self.pods
            .values()
            .filter(|p| p.is_ready(now) && selector_matches(&svc.spec.selector, &p.labels))
            .filter_map(|p| p.ip.map(|ip| (ip, svc.spec.target_port)))
            .collect()
    }

    fn scan_live_pods(&self, deployment: &str) -> Vec<&str> {
        let rs_name = format!("{deployment}-rs");
        self.pods
            .values()
            .filter(|p| p.owner == rs_name)
            .map(|p| p.name.as_str())
            .collect()
    }

    fn scan_bound(&self) -> Vec<usize> {
        self.workers
            .iter()
            .map(|w| {
                self.pods
                    .values()
                    .filter(|p| p.node.as_deref() == Some(w.name.as_str()))
                    .count()
            })
            .collect()
    }

    /// Every index and every indexed query equals its derivation by scan.
    fn assert_matches_scans(&self, deployments: &[String], now: SimTime) {
        for dep in deployments {
            let live: Vec<&str> = self
                .live_pods(dep)
                .iter()
                .map(|p| p.name.as_str())
                .collect();
            assert_eq!(live, self.scan_live_pods(dep), "live_pods({dep})");
        }
        let bound: Vec<usize> = self.views.iter().map(|v| v.pods).collect();
        assert_eq!(bound, self.scan_bound(), "per-worker pod counts");
        for (name, svc) in &self.services {
            assert_eq!(
                self.ready_endpoints(name, now),
                self.scan_ready_endpoints(name, now),
                "ready_endpoints({name})"
            );
            assert_eq!(
                self.first_ready_endpoint(name, now),
                self.scan_ready_endpoints(name, now).first().copied()
            );
            let backends: Vec<&str> = self
                .pods
                .values()
                .filter(|p| {
                    p.phase == PodPhase::Running && selector_matches(&svc.spec.selector, &p.labels)
                })
                .map(|p| p.name.as_str())
                .collect();
            assert!(
                svc.backends.iter().map(String::as_str).eq(backends),
                "backends({name})"
            );
        }
        assert!(
            self.owned.values().all(|names| !names.is_empty()),
            "empty owner sets are pruned"
        );
    }
}

const DEPLOYMENTS: usize = 4;

fn name(i: usize) -> String {
    format!("d{i}")
}

fn labels(pairs: &[(&str, &str)]) -> Labels {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// Deployment `i` with pods labelled `app=d<i>, tier=web|db`, and a service
/// of the same name whose selector is one of four overlapping shapes:
/// exactly this deployment, the whole tier, both pairs, or everything.
fn objects(i: usize, replicas: u32, selector: usize) -> (Deployment, Service) {
    let app = name(i);
    let tier = if i.is_multiple_of(2) { "web" } else { "db" };
    let pod_labels = labels(&[("app", &app), ("tier", tier)]);
    let selector = match selector {
        0 => labels(&[("app", &app)]),
        1 => labels(&[("tier", tier)]),
        2 => pod_labels.clone(),
        _ => labels(&[]),
    };
    (
        Deployment {
            name: app.clone(),
            labels: pod_labels.clone(),
            replicas,
            selector: pod_labels.clone(),
            template: PodTemplate {
                labels: pod_labels.into(),
                containers: vec![PodContainer {
                    spec: ContainerSpec::new(
                        "c",
                        ImageRef::parse("josefhammer/web-asm:amd64"),
                        Some(80),
                    ),
                    manifest: catalog::web_asm(),
                    ready: LogNormal::from_median(0.005, 0.1),
                }],
            },
            scheduler_name: None,
        },
        Service {
            name: app,
            selector,
            port: 80,
            target_port: 8000 + i as u16,
            protocol: "TCP".into(),
        },
    )
}

#[derive(Clone, Debug)]
enum Op {
    Apply {
        dep: usize,
        replicas: u32,
        selector: usize,
    },
    Scale {
        dep: usize,
        replicas: u32,
    },
    DeleteDeployment(usize),
    DeleteService(usize),
    Settle,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..DEPLOYMENTS, 0u32..3, 0usize..4).prop_map(|(dep, replicas, selector)| Op::Apply {
            dep,
            replicas,
            selector
        }),
        (0..DEPLOYMENTS, 0u32..3).prop_map(|(dep, replicas)| Op::Scale { dep, replicas }),
        (0..DEPLOYMENTS, 0u32..3).prop_map(|(dep, replicas)| Op::Scale { dep, replicas }),
        (0..DEPLOYMENTS).prop_map(Op::DeleteDeployment),
        (0..DEPLOYMENTS).prop_map(Op::DeleteService),
        Just(Op::Settle),
        Just(Op::Settle),
    ]
}

fn fresh(seed: u64, full_recompute: bool) -> (K8sCluster, SimRng) {
    let mut rng = SimRng::new(seed);
    let mut c = K8sCluster::with_defaults();
    c.add_worker("pi-01", ContainerdNode::with_defaults(), 3);
    c.full_recompute = full_recompute;
    for w in ["egs", "pi-01"] {
        c.worker_mut(w)
            .unwrap()
            .node
            .pull(&[catalog::web_asm()], &mut rng);
    }
    (c, rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random interleavings of apply / scale / delete / settle over
    /// deployments with overlapping label sets: the indexed cluster and the
    /// full-recompute twin emit the same event trail and hold the same
    /// endpoints, and every index equals its scan, after every settle.
    #[test]
    fn indexed_store_equals_full_scan(ops in prop::collection::vec(op(), 1..40), seed in any::<u64>()) {
        let (mut indexed, mut rng_a) = fresh(seed, false);
        let (mut oracle, mut rng_b) = fresh(seed, true);
        let deployments: Vec<String> = (0..DEPLOYMENTS).map(name).collect();
        let mut now = SimTime::ZERO;
        for op in ops.into_iter().chain([Op::Settle]) {
            now += Duration::from_millis(700);
            match op {
                Op::Apply { dep, replicas, selector } => {
                    for (c, rng) in [(&mut indexed, &mut rng_a), (&mut oracle, &mut rng_b)] {
                        let (d, s) = objects(dep, replicas, selector);
                        c.apply(d, s, now, rng);
                    }
                }
                Op::Scale { dep, replicas } => {
                    if indexed.has_deployment(&name(dep)) {
                        indexed.scale(&name(dep), replicas, now, &mut rng_a);
                        oracle.scale(&name(dep), replicas, now, &mut rng_b);
                    }
                }
                Op::DeleteDeployment(dep) => {
                    indexed.delete_deployment(&name(dep), now, &mut rng_a);
                    oracle.delete_deployment(&name(dep), now, &mut rng_b);
                }
                Op::DeleteService(dep) => {
                    indexed.delete_service(&name(dep), now, &mut rng_a);
                    oracle.delete_service(&name(dep), now, &mut rng_b);
                }
                Op::Settle => {
                    let trail = indexed.settle(&mut rng_a);
                    prop_assert_eq!(&trail, &oracle.settle(&mut rng_b));
                    // Query between the pods' readiness instants, not only
                    // after all of them.
                    let probes = trail.iter().map(ClusterEvent::at).chain([now, SimTime::MAX]);
                    for at in probes {
                        indexed.assert_matches_scans(&deployments, at);
                        for dep in &deployments {
                            prop_assert_eq!(indexed.endpoints(dep), oracle.endpoints(dep));
                            prop_assert_eq!(
                                indexed.ready_endpoints(dep, at),
                                oracle.scan_ready_endpoints(dep, at)
                            );
                        }
                    }
                    prop_assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "same draws consumed");
                }
            }
        }
    }
}
