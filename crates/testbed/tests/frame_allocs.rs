//! Heap traffic per data frame, as a gate that can fail.
//!
//! A frame travels client → switch → server as one buffer: written by the
//! sender's encoder into a buffer an earlier frame travelled in (the
//! harness's bounded `netsim::FramePool`), verified and patched in place by
//! the switch, moved through every event and link, parsed without a copy by
//! the receiver, which hands the buffer back to the pool. What the switch
//! decides about it travels back in a sink the harness owns (`ovs::Switch`,
//! "Effect sinks"), so on an installed flow nothing between the encoder and
//! the receiver asks the heap for anything. This binary installs its own
//! counting allocator, pushes one warm `resnet` upload (83 KiB, 62 frames
//! through the switch) through the real [`Testbed`] and bounds what the whole
//! stack — controller round trip for the new connection included — asks of
//! the heap per frame. Before the frame journey was one buffer the same
//! region measured 10.7 calls per frame and 5× the wire bytes; with one fresh
//! buffer per frame, 2.53 and 1.09×; with the recycled buffer but a
//! `Vec<Effect>` returned per frame, 1.55 and 0.12×; now 0.50 and 0.09× —
//! all of it the connection's one control round trip.
//!
//! The control path has its gates here too: one OpenFlow message is encoded
//! into one buffer, and one warm short connection — table miss, packet-in,
//! scheduling, two flow-mods, release, idle expiry, `FLOW_REMOVED` — stays
//! under a ceiling three calls above what it measures, so neither the
//! encoder's old nested temporaries, a per-flow index-bucket allocation nor a
//! `Vec` per switch or controller call can come back unnoticed. A handover
//! costs the same at 4 and 16 zones and an idle scale-down shares the service
//! definition, so neither a per-cluster copy in the scheduler's views nor a
//! deep `EdgeService` copy can come back either.

use desim::SimTime;
use netsim::{Ipv4Addr, MacAddr, ServiceAddr, TcpFrame};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use telemetry::MetricsRegistry;
use testbed::{Testbed, TestbedConfig};

thread_local! {
    /// Set on the measuring thread for the timed region only, so the test
    /// harness's own threads are not counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Per thread, so the cases in this binary can run side by side.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count(bytes: usize) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        CALLS.with(|c| c.set(c.get() + 1));
        BYTES.with(|b| b.set(b.get() + bytes as u64));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the const-initialised, destructor-free
// thread-local flag and counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` was returned by `System` for `layout` (every
        // allocation of this allocator comes from it), as the caller
        // guarantees for `self`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for `layout`, see `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn a_warm_upload_costs_at_most_six_tenths_of_a_heap_call_and_an_eighth_of_its_bytes_per_frame() {
    let profile = containerd::ServiceSet::by_key("resnet").unwrap();
    let addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 11), profile.listen_port);
    let payload_bytes = profile.request_bytes + profile.response_bytes;
    let mut tb = Testbed::new(TestbedConfig::default());
    tb.register_service(profile, addr);
    tb.pre_deploy_on(addr, 0);
    // Warm: the cold `resnet` pull is ready after ~9 sim-s, and the first
    // upload sizes every map and the event storage.
    tb.request_at(SimTime::from_secs(20), 0, addr);
    tb.run_until(SimTime::from_secs(25));
    assert_eq!(tb.completed.len(), 1);

    tb.request_at(SimTime::from_secs(25), 1, addr);
    // Every frame leaves the switch through an installed flow — the SYN once
    // the flow-mod carrying its buffer id has released it.
    let before = tb.switch().fast_path_packets;
    COUNTING.set(true);
    tb.run_until(SimTime::from_secs(29));
    COUNTING.set(false);
    let (calls, bytes) = (CALLS.get(), BYTES.get());

    assert_eq!((tb.completed.len(), tb.drops, tb.resets), (2, 0, 0));
    let frames = tb.switch().fast_path_packets - before;
    assert_eq!(frames, 62, "SYN, SYN-ACK, 59 request segments, one response");
    let wire_bytes = payload_bytes as u64 + 54 * frames;
    println!(
        "{frames} frames, {wire_bytes} wire bytes: {calls} heap calls ({:.2} per frame), {bytes} bytes ({:.2}x wire)",
        calls as f64 / frames as f64,
        bytes as f64 / wire_bytes as f64
    );
    assert!(10 * calls <= 6 * frames, "{calls} heap calls for {frames} frames");
    assert!(8 * bytes <= wire_bytes, "{bytes} bytes allocated for {wire_bytes} on the wire");
}

/// A frame on an installed flow costs the switch no heap call: verified,
/// classified and rewritten in the buffer it arrived in, which then moves
/// into the caller's sink. (The `Vec`-returning wrapper copies the frame and
/// allocates the `Vec`.)
#[test]
fn a_fast_path_frame_into_a_sink_with_room_does_not_touch_the_heap() {
    let service = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80);
    let (client, src_port) = (Ipv4Addr::new(192, 168, 1, 20), 50000);
    let mut sw = ovs::Switch::new(ovs::SwitchConfig::default());
    let redirect = redirect_rule(openflow::OFP_NO_BUFFER);
    sw.handle_controller(SimTime::ZERO, &redirect.encode(1)).unwrap();
    let syn = TcpFrame::syn(MacAddr::from_id(1), MacAddr::from_id(2), client, src_port, service);
    let mut sink = Vec::with_capacity(1);
    for round in 0..3u64 {
        let frame = syn.encode();
        let (calls, ()) =
            heap_calls(|| sw.handle_frame_into(SimTime::from_secs(round), 1, frame, &mut sink));
        assert_eq!(calls, 0, "round {round}");
        assert!(matches!(sink[..], [ovs::Effect::Forward { port: 7, .. }]), "{sink:?}");
        // What a harness does with it: take the buffer out, keep the sink.
        sink.clear();
    }
    assert_eq!((sw.fast_path_packets, sw.table_misses), (3, 0));
    let frame = syn.encode();
    let (calls, effects) = heap_calls(|| sw.handle_frame(SimTime::from_secs(3), 1, &frame));
    assert_eq!((calls, effects.len()), (2, 1), "the wrapper's copy of the frame and its `Vec`");
}

/// A counter bump or a histogram observation under a name the registry has
/// already seen is an integer update: no key is allocated for it. (It used
/// to build a `String` per bump — three per request on the controller path.)
#[test]
fn bumping_an_existing_metric_does_not_touch_the_heap() {
    let mut m = MetricsRegistry::new();
    m.inc("requests_total");
    // The histogram grows its bucket array up to the largest value seen.
    m.observe("answer_delay_ns", desim::Duration::from_micros(2000));
    m.set_gauge("breaker_state.0", 0.0);
    COUNTING.set(true);
    for i in 0..1000u64 {
        m.inc("requests_total");
        m.add("requests_total", 2);
        m.observe("answer_delay_ns", desim::Duration::from_micros(1000 + i));
        m.set_gauge("breaker_state.0", 1.0);
    }
    COUNTING.set(false);
    assert_eq!(CALLS.get(), 0, "heap calls for 4000 bumps of existing metrics");
    assert_eq!(m.counter("requests_total"), 3001);
    assert_eq!(m.histogram("answer_delay_ns").unwrap().count(), 1001);
}

/// Runs `f` with this thread's heap calls counted.
fn heap_calls<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = CALLS.get();
    COUNTING.set(true);
    let out = f();
    COUNTING.set(false);
    (CALLS.get() - before, out)
}

/// The match of client 192.168.1.20:50000's connection to 203.0.113.10:80.
fn connection() -> openflow::oxm::Match {
    openflow::oxm::Match::connection([192, 168, 1, 20], 50000, [203, 0, 113, 10], 80)
}

/// The rewrite-and-output action list of a redirect toward port 7.
fn rewrite() -> Vec<openflow::actions::Action> {
    use openflow::actions::Action;
    use openflow::oxm::OxmField;
    vec![
        Action::SetField(OxmField::EthDst([2, 0, 0, 0, 0, 9])),
        Action::SetField(OxmField::Ipv4Dst([10, 0, 0, 5])),
        Action::SetField(OxmField::TcpDst(31080)),
        Action::output(7),
    ]
}

/// The redirect rule for [`connection`], releasing buffer `buffer_id`.
fn redirect_rule(buffer_id: u32) -> openflow::messages::Message {
    openflow::messages::Message::FlowMod {
        cookie: 7,
        table_id: 0,
        command: openflow::messages::FlowModCommand::Add,
        idle_timeout: 10,
        hard_timeout: 0,
        priority: 100,
        buffer_id,
        flags: 1,
        match_: connection(),
        instructions: vec![openflow::actions::Instruction::ApplyActions(rewrite())],
    }
}

/// `Message::encode` sizes its buffer up front and writes header, body and
/// every nested length into it: one heap call, whatever the message nests.
/// (The encoder it replaced built five temporaries for a `FLOW_MOD` — about
/// 18 calls.)
#[test]
fn encoding_a_control_message_is_one_heap_call() {
    use openflow::messages::{Message, PacketInReason, RemovedReason};
    use openflow::oxm::{Match, OxmField};
    let messages = [
        redirect_rule(3),
        Message::PacketIn {
            buffer_id: 3,
            total_len: 54,
            reason: PacketInReason::NoMatch,
            table_id: 0,
            cookie: 0,
            match_: Match::any().with(OxmField::InPort(1)),
            data: vec![0xaa; 54],
        },
        Message::PacketOut {
            buffer_id: openflow::OFP_NO_BUFFER,
            in_port: 0,
            actions: rewrite(),
            data: vec![0xaa; 54],
        },
        Message::FlowRemoved {
            cookie: 7,
            priority: 100,
            reason: RemovedReason::IdleTimeout,
            table_id: 0,
            duration_sec: 10,
            duration_nsec: 0,
            idle_timeout: 10,
            hard_timeout: 0,
            packet_count: 4,
            byte_count: 1200,
            match_: connection(),
        },
    ];
    for msg in &messages {
        let (calls, bytes) = heap_calls(|| msg.encode(1));
        assert_eq!(calls, 1, "{msg:?}");
        assert_eq!(bytes.len(), msg.encoded_len());
    }
}

/// The whole control path of one warm, short connection: four frames
/// through the switch (SYN, SYN-ACK, request, response), one table miss and
/// packet-in, the FlowMemory/scheduler decision, two flow-mods, the buffered
/// SYN's release, then idle expiry of the pair with its `FLOW_REMOVED` and
/// the controller's bookkeeping for it. Measures 29 heap calls (28 in a
/// release build, where the scan that checks the controller's pair index is
/// compiled out; `e2ebench`'s steady state is 22 per request; here the
/// connection also pays the first push into a few timer-wheel slots no
/// earlier one touched). With the scheduler's views copying the cluster name
/// into fresh `Vec`s it was 32; with a `Vec` returned by every switch and
/// controller call and grown by every expiry sweep, 43; with a fresh
/// buffer for each of its four frames as well, 47; with a `Vec` allocated
/// per flow-table index bucket, 48; with the encoder's nested temporaries
/// and the cloned matches, 111.
#[test]
fn a_warm_short_connection_costs_at_most_thirty_two_heap_calls() {
    let profile = containerd::ServiceSet::by_key("nginx").unwrap();
    let addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), profile.listen_port);
    let mut tb = Testbed::new(TestbedConfig::default());
    tb.register_service(profile, addr);
    tb.pre_deploy_on(addr, 0);
    // Warm: the instance is up, and a few connections from other clients
    // have come and gone, so every map, wheel slot and the event storage
    // have their steady-state capacity.
    for (i, client) in [0usize, 1, 2, 3].into_iter().enumerate() {
        tb.request_at(SimTime::from_secs(20 + i as u64), client, addr);
    }
    tb.run_until(SimTime::from_secs(60));
    assert_eq!(tb.completed.len(), 4);
    assert!(tb.switch().table().is_empty(), "warm-up flows idled out");

    tb.request_at(SimTime::from_secs(60), 4, addr);
    let (misses, removed) = (tb.switch().table_misses, tb.controller.flows_removed());
    let (calls, _) = heap_calls(|| tb.run_until(SimTime::from_secs(75)));

    assert_eq!((tb.completed.len(), tb.drops, tb.resets), (5, 0, 0));
    assert_eq!(tb.switch().table_misses - misses, 1, "one packet-in");
    assert_eq!(tb.controller.flows_removed() - removed, 1, "the pair idled out and said so");
    assert!(tb.switch().table().is_empty());
    println!("one warm nginx connection, miss to FLOW_REMOVED: {calls} heap calls");
    assert!(calls <= 32, "{calls} heap calls for one warm short connection");
}

/// Heap calls of one `Redispatch` handover at the controller — the session's
/// old pair swept, the Global Scheduler consulted from the new gNB, the new
/// zone's pair built and filed, the make-before-break messages encoded — on
/// the multi-gNB testbed with one zone per gNB, the service running in every
/// zone and `n_gnbs` clusters for the scheduler to weigh. The client hops
/// between gNBs 0 and 1; the last hop is measured, at the same instant
/// whatever the zone count.
fn one_redispatch_handover(n_gnbs: usize) -> u64 {
    use edgectl::{HandoverPolicy, IngressId};
    use testbed::{MobilityConfig, MobilityTestbed};
    let policy = HandoverPolicy::Redispatch;
    let config = MobilityConfig { n_gnbs, n_clients: 1, policy, ..MobilityConfig::default() };
    let mut tb = MobilityTestbed::new(config);
    let profile = containerd::ServiceSet::by_key("asm").unwrap();
    tb.register_service(profile, ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80));
    for z in 0..n_gnbs {
        tb.pre_deploy_on(z);
    }
    // The session's first pings place it on zone 0 through gNB 0.
    let mut home = mobility::Static::round_robin(1, n_gnbs);
    tb.run(&mut home, SimTime::from_secs(1), SimTime::from_secs(5));
    let client = tb.topology().client_ip(0);
    assert_eq!(tb.controller.memory().flows_of_client_at(client, IngressId(0)).len(), 1);
    let mut rng = desim::SimRng::new(1);
    let (mac, gw) = (MacAddr::from_id(1), MacAddr::from_id(2));
    let mut hop = |tb: &mut MobilityTestbed, k: u64| {
        let (from, to) = (IngressId((k % 2) as u32), IngressId(((k + 1) % 2) as u32));
        let at = SimTime::from_secs(6 + k);
        tb.controller.handle_attachment_change(at, client, mac, gw, from, to, 1, policy, &mut rng)
    };
    // Warm: both gNBs have filed the client's pairs, and the measured hop
    // neither grows the tracker's move log nor opens a new timer-wheel slot.
    for k in 0..5 {
        assert_eq!(hop(&mut tb, k).redispatched, 1);
    }
    let (calls, outcome) = heap_calls(|| hop(&mut tb, 5));
    assert_eq!((outcome.redispatched, outcome.messages.len()), (1, 4), "two Adds, two Deletes");
    calls
}

/// A handover's scheduling step gathers every cluster's state for the
/// Global Scheduler, so its cost used to grow with the zone count: each
/// view copied its cluster's name into a `String`, and the views, the
/// candidate list, the resolved distances, the session list and the new
/// gNB's installs each took a fresh `Vec`, and two of the pair's matches
/// outgrew their first allocation — 22 heap calls at 4 gNBs and 34 at 16.
/// Borrowed views over recycled buffers make it 11 at any zone count: the
/// new pair's two matches, two instruction lists and two action lists, its
/// two Adds and the old pair's two Deletes, and the `Vec` they travel in.
#[test]
fn a_redispatch_handover_costs_the_same_few_heap_calls_at_any_zone_count() {
    let (four, sixteen) = (one_redispatch_handover(4), one_redispatch_handover(16));
    println!("one Redispatch handover: {four} heap calls at 4 gNBs, {sixteen} at 16");
    assert_eq!(four, sixteen, "heap calls must not grow with the zone count");
    assert!(sixteen <= 14, "{sixteen} heap calls for one handover");
}

/// The idle sweep's scale-down of a service whose last flow expired. It
/// deep-copied the `EdgeService` — annotated manifest, layer digests and
/// all — for every scale-down: 101 heap calls. A shared handle leaves 4:
/// the expiry report (two) and the Docker cluster's own bookkeeping (two).
#[test]
fn an_idle_scale_down_shares_the_service_definition() {
    let profile = containerd::ServiceSet::by_key("nginx").unwrap();
    let addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), profile.listen_port);
    let mut tb = Testbed::new(TestbedConfig::default());
    tb.register_service(profile, addr);
    tb.pre_deploy_on(addr, 0);
    // Warm: a request, its idle scale-down, and a request that scales the
    // service up again; its flow is still memorized at 130 s.
    tb.request_at(SimTime::from_secs(20), 0, addr);
    tb.run_until(SimTime::from_secs(120));
    assert_eq!(tb.controller.telemetry.metrics.counter("scale_downs"), 1);
    tb.request_at(SimTime::from_secs(120), 1, addr);
    tb.run_until(SimTime::from_secs(130));
    assert_eq!(tb.completed.len(), 2);

    let mut rng = desim::SimRng::new(1);
    let (calls, ()) = heap_calls(|| tb.controller.tick(SimTime::from_secs(200), &mut rng));
    assert_eq!(tb.controller.telemetry.metrics.counter("scale_downs"), 2);
    println!("one idle scale-down tick: {calls} heap calls");
    assert!(calls <= 4, "{calls} heap calls for one idle scale-down");
}
