//! Work ledger: the exact amount of work one warm request costs each layer,
//! from counters the layers already keep — engine events, switch lookups and
//! table misses, FlowMemory lookups, flow installs and removals, and (driven
//! by hand through `ovs::Switch` and `edgectl::Controller`, where the test
//! sees every byte — their `Vec`-returning wrappers, one body with the
//! `_into` forms the harness calls) control messages and bytes each way.
//!
//! Every value is an equality. A refactor that claims to change nothing
//! keeps all of them; a change that means to do less work re-pins the lines
//! it moves and says so. It is the sub-second twin of `e2ebench`'s
//! `sim_events_per_op` and `openflow.*_per_op`, next to the heap-call gates
//! of `frame_allocs.rs` (per upload frame, per short connection, and none at
//! all for a frame on an installed flow) and the per-site profile of
//! `alloc_sites.rs` that says where those calls are made.

use desim::{SimRng, SimTime};
use edgectl::{Controller, ControllerConfig, IngressId, PortMap};
use netsim::{Ipv4Addr, MacAddr, ServiceAddr, TcpFrame};
use openflow::messages::Message;
use ovs::{Effect, Switch, SwitchConfig};
use testbed::{Testbed, TestbedConfig};

/// What the layers have counted so far.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Ledger {
    /// Frames the switch classified — fast-path hits plus table misses —
    /// each by one `FlowTable::lookup`: nothing sits in front of the table.
    table_lookups: u64,
    table_misses: u64,
    /// Packet-ins the controller answered.
    requests: u64,
    memory_lookups: u64,
    memory_hits: u64,
    flow_adds: u64,
    flows_removed: u64,
}

impl Ledger {
    fn read(tb: &Testbed) -> Ledger {
        let sw = tb.switch();
        let memory = tb.controller.memory().stats;
        Ledger {
            table_lookups: sw.fast_path_packets + sw.table_misses,
            table_misses: sw.table_misses,
            requests: tb.controller.telemetry.metrics.counter("requests_total"),
            memory_lookups: memory.lookups,
            memory_hits: memory.hits,
            flow_adds: tb.controller.flow_adds(),
            flows_removed: tb.controller.flows_removed(),
        }
    }

    fn since(self, before: Ledger) -> Ledger {
        Ledger {
            table_lookups: self.table_lookups - before.table_lookups,
            table_misses: self.table_misses - before.table_misses,
            requests: self.requests - before.requests,
            memory_lookups: self.memory_lookups - before.memory_lookups,
            memory_hits: self.memory_hits - before.memory_hits,
            flow_adds: self.flow_adds - before.flow_adds,
            flows_removed: self.flows_removed - before.flows_removed,
        }
    }
}

/// One request from a fresh client to a service whose instance is up and
/// whose earlier flows have idled out, from its SYN to the `FLOW_REMOVED` of
/// its pair: `(engine events, ledger)`.
fn one_warm_request(key: &str, warm_until: u64, done_by: u64) -> (u64, Ledger) {
    let profile = containerd::ServiceSet::by_key(key).unwrap();
    let addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), profile.listen_port);
    let mut tb = Testbed::new(TestbedConfig::default());
    tb.register_service(profile, addr);
    tb.pre_deploy_on(addr, 0);
    for (i, client) in [0usize, 1, 2, 3].into_iter().enumerate() {
        tb.request_at(SimTime::from_secs(20 + i as u64), client, addr);
    }
    tb.run_until(SimTime::from_secs(warm_until));
    assert_eq!(tb.completed.len(), 4);
    assert!(tb.switch().table().is_empty(), "warm-up flows idled out");

    let before = Ledger::read(&tb);
    tb.request_at(SimTime::from_secs(warm_until), 4, addr);
    let events = tb.run_until(SimTime::from_secs(done_by));
    assert_eq!((tb.completed.len(), tb.drops, tb.resets), (5, 0, 0));
    assert!(tb.switch().table().is_empty(), "the request's pair idled out");
    (events, Ledger::read(&tb).since(before))
}

#[test]
fn a_warm_short_connection() {
    let (events, work) = one_warm_request("nginx", 60, 75);
    assert_eq!(events, 18, "engine events");
    assert_eq!(
        work.table_lookups, 5,
        "4 frames, each one table lookup — the SYN twice: on the miss and when \
         the Add releases it from its buffer"
    );
    assert_eq!(
        work,
        Ledger {
            table_lookups: 5,
            table_misses: 1,
            requests: 1,
            memory_lookups: 1,
            memory_hits: 0,
            flow_adds: 2,
            flows_removed: 1,
        }
    );
}

#[test]
fn a_warm_83_kib_upload() {
    let (events, work) = one_warm_request("resnet", 60, 75);
    assert_eq!(events, 134, "engine events");
    assert_eq!(
        work.table_lookups, 63,
        "62 frames, each one table lookup — the SYN twice: on the miss and when \
         the Add releases it from its buffer"
    );
    assert_eq!(
        work,
        Ledger {
            table_lookups: 63,
            table_misses: 1,
            requests: 1,
            memory_lookups: 1,
            memory_hits: 0,
            flow_adds: 2,
            flows_removed: 1,
        }
    );
}

/// The control channel's share of the same request, which is the same for
/// the short connection and the upload (data frames never reach it): one
/// `PACKET_IN` up, two `FLOW_MOD` Adds down (the forward one releases the
/// buffered SYN), and one `FLOW_REMOVED` up when the pair idles out.
#[test]
fn control_messages_and_bytes_each_way() {
    let mut rng = SimRng::new(7);
    let profile = containerd::ServiceSet::by_key("nginx").unwrap();
    let addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), profile.listen_port);
    let mut engine = dockersim::DockerEngine::with_defaults();
    engine.pull(&profile.manifests, &mut rng);
    let cluster = edgectl::DockerCluster::new(
        "edge",
        engine,
        MacAddr::from_id(200),
        Ipv4Addr::new(10, 0, 0, 10),
        desim::Duration::from_micros(150),
    );
    let ports = PortMap {
        cluster_ports: Default::default(),
        cloud_port: 3,
    };
    let scheduler = edgectl::scheduler_by_name("proximity").unwrap();
    let mut ctl = Controller::new(scheduler, ports, ControllerConfig::default());
    ctl.add_cluster(Box::new(cluster), 2);
    ctl.register_service(edgectl::EdgeService::from_profile(profile, addr));
    // The harness's switch: every miss is buffered and sent up whole.
    let mut sw = Switch::new(SwitchConfig {
        datapath_id: 0xC3,
        n_buffers: 1024,
        miss_send_len: 0xffff,
        ports: vec![1, 2, 3],
    });
    let syn = |src_port| {
        TcpFrame::syn(
            MacAddr::from_id(1),
            MacAddr::from_id(99),
            Ipv4Addr::new(192, 168, 1, 20),
            src_port,
            addr,
        )
    };
    // One request through `sw` and `ctl` at `at`: the messages and bytes
    // that went up and came down, and when the answer went out.
    let mut request = |at: SimTime, src_port: u16| {
        let effects = sw.handle_frame(at, 1, &syn(src_port).encode());
        let up: Vec<&Vec<u8>> = effects
            .iter()
            .filter_map(|e| match e {
                Effect::ToController(bytes) => Some(bytes),
                _ => None,
            })
            .collect();
        assert_eq!(up.len(), 1, "one packet-in");
        let down = ctl.handle_switch_message_from(IngressId::DEFAULT, at, up[0], &mut rng).unwrap();
        for m in &down {
            sw.handle_controller(m.at, &m.data).unwrap();
        }
        let down_bytes: usize = down.iter().map(|m| m.data.len()).sum();
        (up[0].len(), down.len(), down_bytes, down[0].at)
    };
    // Warm: the first request deploys.
    let (_, _, _, answered) = request(SimTime::from_secs(1), 50000);
    // The measured one: the FlowMemory answers.
    let at = answered + desim::Duration::from_secs(5);
    let (up_bytes, down_msgs, down_bytes, answered) = request(at, 50001);
    assert_eq!((up_bytes, down_msgs, down_bytes), (96, 2, 352));
    assert_eq!(ctl.records.last().unwrap().kind, edgectl::controller::RequestKind::MemoryHit);
    // Both pairs idle out; each forward flow says so.
    let idle = answered + desim::Duration::from_secs(11);
    let removed: Vec<Vec<u8>> = sw
        .expire_flows(idle)
        .into_iter()
        .filter_map(|e| match e {
            Effect::ToController(bytes) => Some(bytes),
            _ => None,
        })
        .collect();
    assert_eq!(removed.len(), 2, "one FLOW_REMOVED per pair");
    for bytes in &removed {
        assert!(matches!(Message::decode(bytes).unwrap().1, Message::FlowRemoved { .. }));
        assert_eq!(bytes.len(), 96, "FLOW_REMOVED bytes");
        assert!(ctl.handle_switch_message_from(IngressId::DEFAULT, idle, bytes, &mut rng).unwrap().is_empty());
    }
    assert!(sw.table().is_empty());
}
