//! Controller hot-path benchmarks: what does one packet-in cost the
//! transparent-edge controller, end to end over real OpenFlow bytes?

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use desim::{Duration, SimRng, SimTime};
use edgectl::{
    annotate_deployment, Controller, ControllerConfig, DockerCluster, EdgeService, PortMap,
    ProximityScheduler,
};
use dockersim::DockerEngine;
use netsim::addr::{Ipv4Addr, MacAddr};
use netsim::{ServiceAddr, TcpFrame};
use ovs::{Effect, Switch, SwitchConfig};
use std::collections::HashMap;

fn make_service(key: &str, addr: ServiceAddr) -> EdgeService {
    let profile = containerd::ServiceSet::by_key(key).unwrap();
    EdgeService::from_profile(profile, addr)
}

fn warm_setup() -> (Controller, Switch, Vec<u8>, SimRng) {
    let mut rng = SimRng::new(42);
    let mut engine = DockerEngine::with_defaults();
    engine.pull(
        &containerd::ServiceSet::by_key("asm").unwrap().manifests,
        &mut rng,
    );
    let cluster = DockerCluster::new(
        "edge",
        engine,
        MacAddr::from_id(200),
        Ipv4Addr::new(10, 0, 0, 10),
        Duration::from_micros(50),
    );
    let mut ctl = Controller::new(
        Box::<ProximityScheduler>::default(),
        PortMap {
            cluster_ports: HashMap::new(),
            cloud_port: 3,
        },
        ControllerConfig::default(),
    );
    ctl.add_cluster(Box::new(cluster), 2);
    let addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80);
    ctl.register_service(make_service("asm", addr));
    let mut sw = Switch::new(SwitchConfig {
        datapath_id: 1,
        n_buffers: 1024,
        miss_send_len: 0xffff,
        ports: vec![1, 2, 3],
    });
    // Prime: first request deploys the service and fills the FlowMemory.
    let syn = TcpFrame::syn(
        MacAddr::from_id(1),
        MacAddr::from_id(99),
        Ipv4Addr::new(192, 168, 1, 20),
        50000,
        addr,
    );
    let effects = sw.handle_frame(SimTime::from_secs(1), 1, &syn.encode());
    let Effect::ToController(pkt_in) = &effects[0] else {
        panic!("expected packet-in");
    };
    let out = ctl
        .handle_switch_message(SimTime::from_secs(1), pkt_in, &mut rng)
        .unwrap();
    for m in &out {
        sw.handle_controller(m.at, &m.data).unwrap();
    }
    // A fresh connection's packet-in (memory-hit path when replayed).
    let syn2 = TcpFrame::syn(
        MacAddr::from_id(1),
        MacAddr::from_id(99),
        Ipv4Addr::new(192, 168, 1, 20),
        50001,
        addr,
    );
    let effects = sw.handle_frame(SimTime::from_secs(20), 1, &syn2.encode());
    let Effect::ToController(pkt_in2) = &effects[0] else {
        panic!("expected packet-in");
    };
    (ctl, sw, pkt_in2.clone(), rng)
}

fn bench_packet_in_memory_hit(c: &mut Criterion) {
    let (mut ctl, _sw, pkt_in, mut rng) = warm_setup();
    c.bench_function("controller_packet_in_memory_hit", |b| {
        b.iter(|| {
            let out = ctl
                .handle_switch_message(SimTime::from_secs(21), black_box(&pkt_in), &mut rng)
                .unwrap();
            black_box(out)
        })
    });
}

fn bench_switch_fast_path(c: &mut Criterion) {
    let (mut ctl, mut sw, pkt_in, mut rng) = warm_setup();
    // Install flows for the benchmark connection.
    let out = ctl
        .handle_switch_message(SimTime::from_secs(21), &pkt_in, &mut rng)
        .unwrap();
    for m in &out {
        sw.handle_controller(m.at, &m.data).unwrap();
    }
    let mut data = TcpFrame::syn(
        MacAddr::from_id(1),
        MacAddr::from_id(99),
        Ipv4Addr::new(192, 168, 1, 20),
        50001,
        ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80),
    );
    data.flags = netsim::TcpFlags::PSH_ACK;
    data.payload = b"GET / HTTP/1.1\r\n\r\n".to_vec();
    let bytes = data.encode();
    c.bench_function("switch_fast_path_rewrite", |b| {
        b.iter(|| black_box(sw.handle_frame(SimTime::from_secs(25), 1, black_box(&bytes))))
    });
}

fn bench_annotation(c: &mut Criterion) {
    let yaml = "
spec:
  template:
    spec:
      containers:
        - name: web
          image: nginx:1.23.2
          ports:
            - containerPort: 80
          volumeMounts:
            - name: content
              mountPath: /usr/share/nginx/html
      volumes:
        - name: content
          hostPath:
            path: /srv/edge/content
";
    let addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80);
    c.bench_function("annotate_service_definition", |b| {
        b.iter(|| black_box(annotate_deployment(black_box(yaml), addr, Some("edge-pack-scheduler")).unwrap()))
    });
}

criterion_group!(
    benches,
    bench_packet_in_memory_hit,
    bench_switch_fast_path,
    bench_annotation
);
criterion_main!(benches);
