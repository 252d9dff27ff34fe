//! The Section VII hybrid: "we can combine the best of both worlds. First,
//! we launch an edge service via Docker to respond faster to the initial
//! request. Then, we deploy the same service to Kubernetes for future
//! requests."
//!
//! One controller drives two clusters on the Edge Gateway Server through the
//! `docker-first` Global Scheduler: the first request is answered at Docker
//! speed while Kubernetes deploys in the background; once the pod is ready,
//! fresh clients are served by Kubernetes.
//!
//! ```text
//! cargo run --release --example hybrid_cluster
//! ```

use transparent_edge::prelude::*;

fn main() {
    let mut tb = Testbed::new(TestbedConfig {
        cluster: ClusterKind::Docker,
        scheduler: "docker-first".to_owned(),
        seed: 11,
        ..TestbedConfig::default()
    });
    tb.add_hybrid_k8s(); // the second cluster

    let addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80);
    tb.register_service(ServiceSet::by_key("nginx").unwrap(), addr);
    tb.pre_pull(addr); // Docker cluster
    tb.pre_create(addr);
    tb.pre_pull_on(addr, 1); // K8s cluster

    // Client 0 triggers the on-demand deployment; clients 1..4 arrive later.
    tb.request_at(SimTime::from_secs(1), 0, addr);
    for (i, t) in [10u64, 20, 30].iter().enumerate() {
        tb.request_at(SimTime::from_secs(*t), i + 1, addr);
    }
    tb.run_until(SimTime::from_secs(90));

    println!("hybrid Docker-first + Kubernetes-later\n");
    for rec in &tb.controller.records {
        let served_by = rec
            .cluster()
            .map(|i| tb.controller.cluster(i).name().to_owned())
            .unwrap_or_else(|| "cloud".into());
        println!(
            "t={:7.3}s  client {:15}  {:10?}  served by {:10}  answered after {}",
            rec.at.as_secs_f64(),
            rec.client.to_string(),
            rec.kind,
            served_by,
            rec.answered_at.saturating_since(rec.at),
        );
        if let Some(bg) = tb.controller.deployment(rec).and_then(|d| d.background_ready) {
            println!(
                "            └─ background K8s deployment ready at t={:.3}s",
                bg.as_secs_f64()
            );
        }
    }
    println!();
    for done in &tb.completed {
        println!(
            "client {}: time_total = {}",
            done.client,
            done.timing.time_total().unwrap()
        );
    }

    // The first answer is Docker-fast; the last client is on Kubernetes.
    let first = tb.completed.iter().find(|c| c.client == 0).unwrap();
    assert!(first.timing.time_total().unwrap() < desim::Duration::from_secs(1));
    let last_cluster = tb
        .controller
        .records
        .last()
        .and_then(|r| r.cluster())
        .map(|i| tb.controller.cluster(i).name().to_owned());
    println!(
        "\nfirst answer {} (Docker), steady state on {}",
        first.timing.time_total().unwrap(),
        last_cluster.as_deref().unwrap_or("?")
    );
}
