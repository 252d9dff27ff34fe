//! Cross-crate integration: from a YAML service definition all the way to a
//! served request, exercising yamlite → edgectl → k8ssim/dockersim →
//! containerd/registry → ovs/openflow → netsim in one flow.

use desim::{Duration, SimRng, SimTime};
use edgectl::IngressId;
use transparent_edge::prelude::*;

const USER_YAML: &str = "
apiVersion: apps/v1
kind: Deployment
metadata:
  name: my-web # will be replaced by the unique worldwide name
spec:
  template:
    spec:
      containers:
        - name: web
          image: nginx:1.23.2
          ports:
            - containerPort: 80
          env:
            - name: MODE
              value: edge
";

/// The same user-written definition file drives both cluster types
/// (Section V), end to end.
#[test]
fn same_definition_deploys_on_docker_and_k8s() {
    for kind in [ClusterKind::Docker, ClusterKind::K8s] {
        let addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80);
        let annotated = annotate_deployment(USER_YAML, addr, None).unwrap();
        assert_eq!(annotated.deployment["spec"]["replicas"].as_i64(), Some(0));

        let mut tb = Testbed::new(TestbedConfig {
            cluster: kind,
            seed: 9,
            ..TestbedConfig::default()
        });
        // Register through the high-level path (profile supplies timing
        // models; the annotation is equivalent to `annotated` above).
        tb.register_service(ServiceSet::by_key("nginx").unwrap(), addr);
        tb.pre_pull(addr);
        tb.request_at(SimTime::from_secs(1), 0, addr);
        tb.run_until(SimTime::from_secs(60));

        assert_eq!(tb.completed.len(), 1, "{} served the request", kind.label());
        assert_eq!(tb.resets, 0);
        assert_eq!(tb.transparency_violations, 0);
        let phases = tb.controller.deployment(&tb.controller.records[0]).expect("deployed").phases;
        assert!(phases.create_done.is_some(), "create phase ran");
        assert!(phases.wait_time().is_some(), "port polling happened");
    }
}

/// The annotated definition round-trips through the YAML emitter and parses
/// back into an equivalent deployable document.
#[test]
fn annotation_emission_roundtrip() {
    let addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 99), 8080);
    let annotated = annotate_deployment(USER_YAML, addr, Some("edge-pack-scheduler")).unwrap();
    let text = annotated.to_yaml();
    let docs = yamlite::parse_documents(&text).unwrap();
    assert_eq!(docs.len(), 2);
    assert_eq!(docs[0], annotated.deployment);
    assert_eq!(docs[1], annotated.service);
    // Re-annotating the emitted Deployment is idempotent on the key fields.
    let again = annotate_deployment(&text, addr, Some("edge-pack-scheduler")).unwrap();
    assert_eq!(again.service_name, annotated.service_name);
    assert_eq!(again.edge_label, annotated.edge_label);
    assert_eq!(again.target_port, annotated.target_port);
}

/// Full lifecycle across the stack: deploy on demand, serve, go idle, get
/// scaled down by the controller, redeploy on the next request — twice.
#[test]
fn scale_down_redeploy_cycles() {
    use edgectl::controller::RequestKind;
    let mut tb = Testbed::new(TestbedConfig {
        seed: 4,
        controller: edgectl::ControllerConfig {
            memory_idle: Duration::from_secs(15),
            ..Default::default()
        },
        ..TestbedConfig::default()
    });
    let addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80);
    tb.register_service(ServiceSet::by_key("asm").unwrap(), addr);
    tb.pre_pull(addr);
    tb.pre_create(addr);
    for t in [1u64, 40, 80] {
        tb.request_at(SimTime::from_secs(t), 0, addr);
    }
    tb.run_until(SimTime::from_secs(200));
    assert_eq!(tb.completed.len(), 3);
    let kinds: Vec<RequestKind> = tb.controller.records.iter().map(|r| r.kind).collect();
    assert_eq!(
        kinds,
        vec![RequestKind::Waited, RequestKind::Waited, RequestKind::Waited],
        "each request found the service scaled down and redeployed"
    );
}

/// Many services, many clients, both directions of rewrite under load:
/// every response must come back and look like the cloud.
#[test]
fn multi_service_multi_client_storm() {
    let mut tb = Testbed::new(TestbedConfig {
        seed: 21,
        ..TestbedConfig::default()
    });
    let profiles = ["asm", "nginx", "nginx-py"];
    let mut addrs = Vec::new();
    for (i, key) in profiles.iter().enumerate() {
        let addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10 + i as u8), 80);
        tb.register_service(ServiceSet::by_key(key).unwrap(), addr);
        tb.pre_pull(addr);
        tb.pre_create(addr);
        addrs.push(addr);
    }
    let mut rng = SimRng::new(5);
    let mut scheduled = 0;
    for i in 0..120u64 {
        let client = (rng.below(20)) as usize;
        let addr = addrs[rng.below(addrs.len() as u64) as usize];
        tb.request_at(SimTime::from_millis(1000 + i * 333), client, addr);
        scheduled += 1;
    }
    tb.run_until(SimTime::from_secs(300));
    assert_eq!(tb.completed.len(), scheduled);
    assert_eq!(tb.resets, 0);
    assert_eq!(tb.transparency_violations, 0);
    assert_eq!(tb.drops, 0, "no frames lost in the data plane");
    // The switch served the bulk of traffic without the controller.
    assert!(tb.switch().fast_path_packets > tb.switch().table_misses);
}

/// The low-level controller API and the harness agree: a request driven by
/// hand through OpenFlow bytes sees the same deployment timeline as the
/// harness-driven one.
#[test]
fn manual_openflow_drive_matches_harness() {
    use dockersim::DockerEngine;
    use netsim::TcpFrame;
    use ovs::{Effect, Switch, SwitchConfig};
    use std::collections::HashMap;

    let mut rng = SimRng::new(77);
    let mut engine = DockerEngine::with_defaults();
    engine.pull(&ServiceSet::by_key("asm").unwrap().manifests, &mut rng);
    let cluster = DockerCluster::new(
        "edge",
        engine,
        MacAddr::from_id(200),
        Ipv4Addr::new(10, 0, 0, 10),
        Duration::from_micros(50),
    );
    let mut ctl = Controller::new(
        edgectl::scheduler_by_name("proximity").unwrap(),
        PortMap {
            cluster_ports: HashMap::new(),
            cloud_port: 3,
        },
        ControllerConfig::default(),
    );
    ctl.add_cluster(Box::new(cluster), 2);
    let addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80);
    let profile = ServiceSet::by_key("asm").unwrap();
    ctl.register_service(EdgeService::from_profile(profile, addr));
    let mut sw = Switch::new(SwitchConfig {
        datapath_id: 1,
        n_buffers: 8,
        miss_send_len: 128,
        ports: vec![1, 2, 3],
    });

    let syn = TcpFrame::syn(
        MacAddr::from_id(1),
        MacAddr::from_id(99),
        Ipv4Addr::new(192, 168, 1, 20),
        50000,
        addr,
    );
    let t0 = SimTime::from_secs(1);
    let effects = sw.handle_frame(t0, 1, &syn.encode());
    let Effect::ToController(pkt_in) = &effects[0] else {
        panic!("no packet-in")
    };
    let out = ctl.handle_switch_message_from(IngressId::DEFAULT, t0, pkt_in, &mut rng).unwrap();
    let answered = out[0].at;
    assert!(answered > t0 && answered - t0 < Duration::from_secs(1));

    // Deliver the messages; the buffered SYN must emerge rewritten.
    let mut forwarded = false;
    for m in &out {
        for e in sw.handle_controller(m.at, &m.data).unwrap() {
            if let Effect::Forward { port, data } = e {
                assert_eq!(port, 2);
                let f = TcpFrame::decode(&data).unwrap();
                assert_eq!(f.dst_ip, Ipv4Addr::new(10, 0, 0, 10));
                forwarded = true;
            }
        }
    }
    assert!(forwarded, "buffered packet released through the new flow");
}
