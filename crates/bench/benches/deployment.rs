//! Deployment-engine benchmarks: the simulator-side cost of running the
//! paper's deployment phases (Pull / Create / Scale Up) on both cluster
//! types, and of the pull planner.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use desim::{Duration, SimRng, SimTime};
use edgectl::{DockerCluster, EdgeCluster, EdgeService, K8sEdgeCluster};
use dockersim::DockerEngine;
use k8ssim::K8sCluster;
use netsim::addr::{Ipv4Addr, MacAddr};
use netsim::ServiceAddr;
use registry::{LayerCache, PullPlanner, RegistryProfile};

fn make_service(key: &str) -> EdgeService {
    let profile = containerd::ServiceSet::by_key(key).unwrap();
    let addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), profile.listen_port);
    EdgeService::from_profile(profile, addr)
}

fn bench_docker_cycle(c: &mut Criterion) {
    let mut g = c.benchmark_group("docker_full_cycle");
    for key in ["asm", "nginx", "resnet", "nginx-py"] {
        let svc = make_service(key);
        g.bench_with_input(BenchmarkId::from_parameter(key), key, |b, _| {
            b.iter(|| {
                let mut rng = SimRng::new(1);
                let mut cl = DockerCluster::new(
                    "edge",
                    DockerEngine::with_defaults(),
                    MacAddr::from_id(1),
                    Ipv4Addr::new(10, 0, 0, 10),
                    Duration::from_micros(50),
                );
                let t = cl.pull(&svc, SimTime::ZERO, &mut rng).expect("no fault injection");
                let t = cl.create(&svc, t, &mut rng).expect("no fault injection");
                black_box(cl.scale_up(&svc, t, &mut rng).expect("no fault injection"))
            })
        });
    }
    g.finish();
}

fn bench_k8s_cycle(c: &mut Criterion) {
    let svc = make_service("nginx");
    c.bench_function("k8s_full_cycle_nginx", |b| {
        b.iter(|| {
            let mut rng = SimRng::new(1);
            let mut cl = K8sEdgeCluster::new(
                "edge-k8s",
                K8sCluster::with_defaults(),
                MacAddr::from_id(1),
                Duration::from_micros(50),
                None,
            );
            let t = cl.pull(&svc, SimTime::ZERO, &mut rng).expect("no fault injection");
            let t = cl.create(&svc, t, &mut rng).expect("no fault injection");
            black_box(cl.scale_up(&svc, t, &mut rng).expect("no fault injection"))
        })
    });
}

fn bench_pull_planner(c: &mut Criterion) {
    let profile = RegistryProfile::docker_hub();
    let manifest = registry::image::catalog::resnet();
    c.bench_function("pull_plan_resnet_cold", |b| {
        b.iter(|| {
            let planner = PullPlanner::new(&profile);
            let mut cache = LayerCache::new();
            let mut rng = SimRng::new(1);
            black_box(planner.pull(&manifest, &mut cache, &mut rng))
        })
    });
}

criterion_group!(benches, bench_docker_cycle, bench_k8s_cycle, bench_pull_planner);
criterion_main!(benches);
