//! Driving the whole platform from a configuration file — the way the
//! reference controller is operated: schedulers are loaded dynamically by
//! name, timeouts and clusters come from config, services from YAML
//! definition files.
//!
//! ```text
//! cargo run --release --example config_file
//! ```

use edgectl::EdgeConfig;
use transparent_edge::prelude::*;

const CONFIG: &str = "
# transparent-edge controller configuration
scheduler: docker-first
predictor: recency
flowIdleTimeout: 10
memoryIdleTimeout: 90
clusters:
  - name: egs-docker
    kind: docker
  - name: egs-k8s
    kind: k8s
    localScheduler: edge-pack-scheduler
";

const SERVICE_DEFINITION: &str = "
# The developer writes this; everything else is annotated automatically.
spec:
  template:
    spec:
      containers:
        - name: web
          image: nginx:1.23.2
          ports:
            - containerPort: 80
";

fn main() {
    let cfg = EdgeConfig::from_yaml(CONFIG).expect("valid config");
    println!(
        "loaded config: scheduler={}, predictor={}, {} cluster(s)",
        cfg.scheduler,
        cfg.predictor,
        cfg.clusters.len()
    );

    let mut tb = Testbed::from_edge_config(&cfg, 7);

    // Register the service from its definition file.
    let addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80);
    let annotated = annotate_deployment(
        SERVICE_DEFINITION,
        addr,
        cfg.clusters
            .iter()
            .find_map(|c| c.local_scheduler.as_deref()),
    )
    .expect("valid definition");
    println!(
        "service `{}` annotated (labels: {})\n",
        annotated.service_name, annotated.edge_label
    );
    tb.register_service(ServiceSet::by_key("nginx").unwrap(), addr);
    tb.pre_pull(addr);
    tb.pre_create(addr);
    if tb.controller.cluster_count() > 1 {
        tb.pre_pull_on(addr, 1);
    }

    for (i, t) in [1u64, 10, 20, 30].iter().enumerate() {
        tb.request_at(SimTime::from_secs(*t), i, addr);
    }
    tb.run_until(SimTime::from_secs(120));

    for rec in &tb.controller.records {
        let cluster = rec
            .cluster()
            .map(|i| tb.controller.cluster(i).name().to_owned())
            .unwrap_or_else(|| "cloud".into());
        println!(
            "t={:6.3}s  {:?}  via {}",
            rec.at.as_secs_f64(),
            rec.kind,
            cluster
        );
    }
    println!(
        "\n{} requests completed, {} proactive deployments, transparency violations: {}",
        tb.completed.len(),
        tb.proactive_deployments,
        tb.transparency_violations
    );
    assert_eq!(tb.completed.len(), 4);
}
