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
//!
//! The last case counts what one decision asks of the registry and the
//! cluster adapters at three fleet sizes, so a lookup whose cost grows with
//! the fleet shows as a count that moves with it.

use desim::{SimRng, SimTime};
use edgectl::cluster::DeployError;
use edgectl::{Controller, ControllerConfig, EdgeCluster, EdgeService, IngressId, InstanceAddr, InstanceState, PortMap};
use netsim::{Ipv4Addr, MacAddr, ServiceAddr, TcpFrame};
use openflow::messages::Message;
use ovs::{Effect, Switch, SwitchConfig};
use std::cell::Cell;
use std::rc::Rc;
use testbed::{MobilityConfig, MobilityTestbed, Testbed, TestbedConfig};

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
    assert_eq!(events, 17, "engine events");
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

/// Forty short connections to a warm nginx, one every 250 ms from a client
/// of its own, so each pair is installed while earlier ones are still in the
/// table: the engine events of the whole stream.
fn a_steady_stream_of_short_connections() -> u64 {
    let profile = containerd::ServiceSet::by_key("nginx").unwrap();
    let addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), profile.listen_port);
    let mut tb = Testbed::new(TestbedConfig { n_clients: 40, ..TestbedConfig::default() });
    tb.register_service(profile, addr);
    tb.pre_deploy_on(addr, 0);
    for client in 0..40 {
        tb.request_at(SimTime::from_millis(20_000 + 250 * client as u64), client, addr);
    }
    let events = tb.run_until(SimTime::from_secs(60));
    assert_eq!((tb.completed.len(), tb.drops, tb.resets), (40, 0, 0));
    assert!(tb.switch().table().is_empty(), "every pair idled out");
    events
}

/// In a stream, the sweep that removes one connection's pair refiles the
/// install-time copies of the pairs installed after it, so of the isolated
/// connection's 17 events one is paid once per stream, not per connection:
/// 16 each, and the first connection's sweep that finds nothing due. (The
/// harness's own tests count that sweep by kind, and one control delivery
/// per switch and instant.)
#[test]
fn a_steady_stream_costs_sixteen_events_a_connection() {
    assert_eq!(a_steady_stream_of_short_connections(), 40 * 16 + 1);
}

#[test]
fn a_warm_83_kib_upload() {
    let (events, work) = one_warm_request("resnet", 60, 75);
    assert_eq!(events, 133, "engine events");
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

/// The adapter calls a decision makes: `state`, `instance_addr` and
/// `service_at`, summed over every cluster.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Calls {
    state: u64,
    instance_addr: u64,
    service_at: u64,
}

/// A cluster adapter that counts those calls into a tally its test reads.
struct Counted {
    inner: Box<dyn EdgeCluster>,
    calls: Rc<Cell<Calls>>,
}

impl Counted {
    fn count(&self, f: impl FnOnce(&mut Calls)) {
        let mut c = self.calls.get();
        f(&mut c);
        self.calls.set(c);
    }
}

impl EdgeCluster for Counted {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
    fn latency(&self) -> desim::Duration {
        self.inner.latency()
    }
    fn has_image_cached(&self, svc: &EdgeService) -> bool {
        self.inner.has_image_cached(svc)
    }
    fn state(&self, svc: &EdgeService, now: SimTime) -> InstanceState {
        self.count(|c| c.state += 1);
        self.inner.state(svc, now)
    }
    fn pull(&mut self, svc: &EdgeService, now: SimTime, rng: &mut SimRng) -> Result<SimTime, DeployError> {
        self.inner.pull(svc, now, rng)
    }
    fn create(&mut self, svc: &EdgeService, now: SimTime, rng: &mut SimRng) -> Result<SimTime, DeployError> {
        self.inner.create(svc, now, rng)
    }
    fn scale_up(&mut self, svc: &EdgeService, now: SimTime, rng: &mut SimRng) -> Result<(SimTime, SimTime), DeployError> {
        self.inner.scale_up(svc, now, rng)
    }
    fn scale_down(&mut self, svc: &EdgeService, now: SimTime, rng: &mut SimRng) -> SimTime {
        self.inner.scale_down(svc, now, rng)
    }
    fn remove(&mut self, svc: &EdgeService, now: SimTime, rng: &mut SimRng) -> SimTime {
        self.inner.remove(svc, now, rng)
    }
    fn instance_addr(&self, svc: &EdgeService) -> Option<InstanceAddr> {
        self.count(|c| c.instance_addr += 1);
        self.inner.instance_addr(svc)
    }
    fn service_at(&self, ip: Ipv4Addr, port: u16, services: &edgectl::ServiceRegistry) -> Option<ServiceAddr> {
        self.count(|c| c.service_at += 1);
        self.inner.service_at(ip, port, services)
    }
    fn reserve(&mut self, services: usize) {
        self.inner.reserve(services);
    }
    fn load(&self) -> usize {
        self.inner.load()
    }
}

/// `services` asm services at distinct addresses, in address order.
fn asm_services(services: usize) -> Vec<EdgeService> {
    let profile = containerd::ServiceSet::by_key("asm").unwrap();
    (0..services)
        .map(|i| {
            let addr = ServiceAddr::new(Ipv4Addr::new(203, 0, (i / 200) as u8, (i % 200) as u8 + 1), 80);
            EdgeService::from_profile(profile.clone(), addr)
        })
        .collect()
}

/// Pull, create and scale-up of the first four of `services` on `zone`.
fn deploy_four(zone: &mut dyn EdgeCluster, services: &[EdgeService]) {
    let mut rng = SimRng::new(1);
    for svc in &services[..4] {
        let t = zone.pull(svc, SimTime::ZERO, &mut rng).unwrap();
        let t = zone.create(svc, t, &mut rng).unwrap();
        zone.scale_up(svc, t, &mut rng).unwrap();
    }
}

/// A controller with `zones` Docker zones, each counted into the returned
/// tally, zone 0 nearest, and `services` services registered, the first
/// four serving on zone 0.
fn counted_controller(zones: usize, services: usize) -> (Controller, Rc<Cell<Calls>>, Vec<EdgeService>) {
    let calls = Rc::new(Cell::new(Calls::default()));
    let ports = PortMap { cluster_ports: Default::default(), cloud_port: 1 };
    let mut ctl = Controller::new(edgectl::scheduler_by_name("proximity").unwrap(), ports, ControllerConfig::default());
    for z in 0..zones {
        let latency = desim::Duration::from_micros(if z == 0 { 50 } else { 2_050 });
        let host = Ipv4Addr::new(10, 1, (z / 200) as u8, (z % 200) as u8 + 1);
        let docker = edgectl::DockerCluster::new(
            format!("zone-{z}"),
            dockersim::DockerEngine::with_defaults(),
            MacAddr::from_id(100 + z as u32),
            host,
            latency,
        );
        ctl.add_cluster(Box::new(Counted { inner: Box::new(docker), calls: Rc::clone(&calls) }), 2 + z as u32);
    }
    let registered = asm_services(services);
    for svc in &registered {
        ctl.register_service(svc.clone());
    }
    deploy_four(ctl.cluster_mut(0).as_mut(), &registered);
    (ctl, calls, registered)
}

/// At 4, 16 and 64 zones and 10 and 100 services, every count is the same
/// function of the candidates, never of the fleet:
///
/// - a packet-in probes the registry's hash index once and walks it never;
/// - a miss asks `state` of each candidate cluster once (every zone is a
///   candidate: none is withheld), a memory hit of the memorized one;
/// - a health sweep asks `state` once per distinct live instance, not per
///   memorized flow;
/// - a new instance address, on the multi-gNB testbed (4, 16 and 32 gNBs,
///   the most its address plan holds), asks each adapter's reverse index
///   once and visits no (service, cluster) pair: no registry walk.
#[test]
fn a_decision_costs_its_candidates_not_the_fleet() {
    for (zones, gnbs) in [(4, 4), (16, 16), (64, 32)] {
        for services in [10, 100] {
            let case = format!("{zones} zones, {services} services");
            // Packet-ins by hand: four clients, each to the four serving
            // services, twice: a miss, then a memory hit.
            let (mut ctl, calls, registered) = counted_controller(zones, services);
            let mut sw = Switch::new(SwitchConfig {
                datapath_id: 0xC3,
                n_buffers: 1024,
                miss_send_len: 0xffff,
                ports: vec![1, 2],
            });
            let (mut rng, mut out) = (SimRng::new(7), Vec::new());
            let mut packet_in = |ctl: &mut Controller, at: SimTime, client: u8, src_port: u16, svc: ServiceAddr| {
                let client_ip = Ipv4Addr::new(192, 168, 1, 20 + client);
                let syn = TcpFrame::syn(MacAddr::from_id(1), MacAddr::from_id(99), client_ip, src_port, svc);
                let effects = sw.handle_frame(at, 1, &syn.encode());
                let [Effect::ToController(up)] = &effects[..] else { panic!("one packet-in") };
                let (calls0, work0) = (calls.get(), ctl.services().work());
                ctl.handle_switch_message_into(IngressId::DEFAULT, at, up, &mut rng, &mut out).unwrap();
                let (c, w) = (calls.get(), ctl.services().work());
                let asked = Calls {
                    state: c.state - calls0.state,
                    instance_addr: c.instance_addr - calls0.instance_addr,
                    service_at: c.service_at - calls0.service_at,
                };
                (asked, (w.0 - work0.0, w.1 - work0.1))
            };
            let at = SimTime::from_secs(5);
            let miss = Calls { state: zones as u64, ..Calls::default() };
            let hit = Calls { state: 1, ..Calls::default() };
            for client in 0..4u8 {
                for (i, svc) in registered[..4].iter().enumerate() {
                    let src_port = 50_000 + u16::from(client) * 8 + i as u16;
                    let got = packet_in(&mut ctl, at, client, src_port, svc.addr);
                    assert_eq!(got, (miss, (1, 0)), "{case}: a miss, one hash probe and no walk");
                    let got = packet_in(&mut ctl, at, client, src_port + 4, svc.addr);
                    assert_eq!(got, (hit, (1, 0)), "{case}: a memory hit");
                }
            }
            assert_eq!(ctl.memory().len(), 16, "{case}: 16 flows");
            let (state0, work0) = (calls.get().state, ctl.services().work());
            let mut repairs = Vec::new();
            ctl.health_check(at, &mut repairs);
            assert_eq!(calls.get().state - state0, 4, "{case}: one visit per live instance, not per flow");
            assert_eq!(ctl.services().work(), (work0.0 + 4, work0.1), "{case}");
            assert!(repairs.is_empty(), "{case}: every instance serves");

            // New instance addresses, through the harness: each of the four
            // instances gets its first server frame once.
            let case = format!("{gnbs} gNBs, {services} services");
            let mut tb = MobilityTestbed::new(MobilityConfig { n_gnbs: gnbs, n_clients: 4, ..MobilityConfig::default() });
            let calls = Rc::new(Cell::new(Calls::default()));
            for z in 0..gnbs {
                let slot = tb.controller.cluster_mut(z);
                let stand_in = edgectl::DockerCluster::new(
                    "",
                    dockersim::DockerEngine::with_defaults(),
                    MacAddr::from_id(0),
                    Ipv4Addr::new(0, 0, 0, 0),
                    desim::Duration::ZERO,
                );
                let inner = std::mem::replace(slot, Box::new(stand_in));
                *slot = Box::new(Counted { inner, calls: Rc::clone(&calls) });
            }
            let registered = asm_services(services);
            for svc in &registered {
                tb.register_service(svc.profile.clone(), svc.addr);
            }
            deploy_four(tb.controller.cluster_mut(0).as_mut(), &registered);
            for (client, svc) in registered[..4].iter().enumerate() {
                tb.request_at(at, client, svc.addr);
            }
            let walks = tb.controller.services().work().1;
            tb.run_until(SimTime::from_secs(30));
            assert_eq!(tb.completed.len(), 4, "{case}");
            assert_eq!(tb.controller.services().work().1, walks, "{case}: no registry walk");
            assert_eq!(calls.get().service_at, 4 * gnbs as u64, "{case}: one probe per adapter per new address");
        }
    }
}
