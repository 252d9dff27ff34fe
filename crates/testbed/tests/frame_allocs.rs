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
//! `Vec<Effect>` returned per frame, 1.55 and 0.12×; with a match and an
//! instruction list on the heap for every flow, 0.45 and 0.09×; with the
//! control messages and action lists on the heap, 0.27 and 0.08×; now 0.15
//! and 0.08×, none of it on the control channel.
//!
//! The control path has its gates here too. Each side of the control channel
//! encodes into a spare buffer the harness hands back once the other side
//! has read it (a bounded `netsim::FramePool` per switch and one in the
//! controller), a switch encodes a packet-in straight from the frame it
//! parks and the controller reads that frame where it lies in the received
//! bytes, and a flow's action list is inline like its match. So a message
//! encoded into a buffer with room, a match or an action list built, copied,
//! encoded and decoded, and a refused `FLOW_MOD` cost no heap call at all,
//! and one warm short connection — table miss, packet-in, scheduling, two
//! flow-mods, release, idle expiry, `FLOW_REMOVED` — stays under a ceiling
//! three calls above what it measures. Neither the encoder's old nested
//! temporaries, a heap-backed match or action list, a fresh buffer per
//! control message, a copied packet-in, a per-flow index-bucket allocation
//! nor a `Vec` per switch or controller call can come back unnoticed. A
//! handover, `Redispatch` or `Anchored`, costs no heap call at 4 or at 16
//! zones (22 and 34 calls once, then 11, 7 and 1 — the `Vec` the four
//! messages travel in: now the caller's outbox, 0), the repair, outage,
//! flip and reconcile append to that outbox too, and an idle scale-down
//! shares the service definition and reuses its expiry report, so neither a
//! per-cluster copy in the scheduler's views, a fresh message list per
//! handover or per repair, outage, flip and reconcile, a deep `EdgeService`
//! copy nor a fresh report per sweep can come back either. A warm Kubernetes deploy
//! cycle — scale-up, readiness, scale-down — keeps its objects by handle in
//! stores that reuse their capacity, so neither a `String`-named object or
//! work item, a pod map entry, a fresh event trail, a deep-copied container
//! spec, a registry profile or cached-layer `Vec` per pull nor a calendar
//! bucket `Vec` per reconciliation step can come back. And what a packet-in
//! does with spans costs nothing while they are off: no heap call, no detail
//! closure run.

use desim::SimTime;
use netsim::{Ipv4Addr, MacAddr, ServiceAddr, TcpFrame};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use telemetry::{MetricsRegistry, Off, SpanId, SpanLog, Spans, Telemetry};
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

/// 6 heap calls for the 62 frames (`alloc_sites.rs` names them), none of
/// them a control message, an action list or a copy of a packet: two frame
/// buffers the pool did not yet hold, the growth of a latency histogram, of
/// the pair bookkeeping and of the flow table's index, and one recycled
/// control buffer 16 bytes short of the reverse Add it was handed (the pool
/// hands out the buffer recycled last, the one-request warm-up's forward
/// Add), which doubles once. It was 9 while the timers ran on a timer wheel
/// whose slots each took a first push, 17 while every control message took
/// a fresh buffer, every packet-in was copied twice and every action list
/// sat on the heap, and 28 while every flow kept its match and an
/// instruction list there too.
#[test]
fn a_warm_upload_costs_at_most_nine_heap_calls_and_an_eighth_of_its_bytes() {
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
    assert!(calls <= 9, "{calls} heap calls for {frames} frames");
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

/// What the controller does with spans for every packet-in — root span,
/// `packet-in` event, `schedule` child, `decision` event, end, `flow-install`
/// event, end — with spans off: no heap call and no detail closure run, 1 000
/// times over. `Off` is zero-sized and its methods are empty, so this holds by
/// construction; the `SpanLog` run shows the closures are there to run. (A
/// wall-clock gate used to time this sequence against a switch hit.)
#[test]
fn spans_off_cost_no_heap_call_and_run_no_detail_closure() {
    fn request<S: Spans>(t: &mut Telemetry<S>, k: u64, ran: &Cell<u64>) {
        let now = SimTime::from_secs(k);
        let detail = || {
            ran.set(ran.get() + 1);
            format!("client=10.0.0.{k}")
        };
        let root = t.span(k, SpanId::NONE, "request", now);
        t.event(root, "packet-in", now, detail);
        let schedule = t.span(k, root, "schedule", now);
        t.event(schedule, "decision", now, detail);
        t.end_span(schedule, now);
        t.event(root, "flow-install", now, detail);
        t.end_span(root, now);
    }
    let ran = Cell::new(0);
    let mut off = Telemetry::<Off>::default();
    let (calls, ()) = heap_calls(|| (0..1000).for_each(|k| request(&mut off, k, &ran)));
    assert_eq!((calls, ran.get()), (0, 0), "heap calls and detail closures run with spans off");
    assert!(off.span_log().is_none() && off.metrics.is_empty());
    assert_eq!(off.span(0, SpanId::NONE, "request", SimTime::ZERO), SpanId::NONE);
    let mut on = Telemetry::<SpanLog>::default();
    (0..1000).for_each(|k| request(&mut on, k, &ran));
    assert_eq!(ran.get(), 3000, "a recorder runs every detail closure");
    let check = on.span_log().expect("a SpanLog keeps its log").check();
    assert!(check.ok() && check.spans == 2000, "{check:?}");
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
fn rewrite() -> openflow::Actions {
    use openflow::actions::Action;
    use openflow::oxm::OxmField;
    openflow::Actions::from([
        Action::SetField(OxmField::EthDst([2, 0, 0, 0, 0, 9])),
        Action::SetField(OxmField::Ipv4Dst([10, 0, 0, 5])),
        Action::SetField(OxmField::TcpDst(31080)),
        Action::output(7),
    ])
}

/// The redirect rule for [`connection`], releasing buffer `buffer_id`.
fn redirect_rule(buffer_id: u32) -> openflow::messages::Message {
    flow_add(buffer_id, rewrite())
}

/// The Add of `actions` for [`connection`], releasing buffer `buffer_id`.
fn flow_add(buffer_id: u32, actions: openflow::Actions) -> openflow::messages::Message {
    openflow::messages::Message::FlowMod {
        cookie: 7,
        table_id: 0,
        command: openflow::messages::FlowModCommand::Add,
        idle_timeout: 10,
        priority: 100,
        buffer_id,
        flags: 1,
        match_: connection(),
        actions,
    }
}

/// One of every message kind a redirect sends: the Add, a packet-in, a
/// `PACKET_OUT` carrying its frame and a `FLOW_REMOVED`.
fn redirect_messages() -> [openflow::Message; 4] {
    use openflow::messages::{Message, PacketInReason, RemovedReason};
    use openflow::oxm::{Match, OxmField};
    [
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
    ]
}

/// `Message::encode` sizes its buffer up front and writes header, body and
/// every nested length into it: one heap call, whatever the message nests.
/// (The encoder it replaced built five temporaries for a `FLOW_MOD` — about
/// 18 calls.)
#[test]
fn encoding_a_control_message_is_one_heap_call() {
    for msg in &redirect_messages() {
        let (calls, bytes) = heap_calls(|| msg.encode(1));
        assert_eq!(calls, 1, "{msg:?}");
        assert_eq!(bytes.len(), msg.encoded_len());
    }
}

/// What the switch and the controller do with a buffer the other side has
/// read: encode the next message into it. With room for that message, no
/// heap call; the buffer that held a longer message is reused as it is.
#[test]
fn encoding_into_a_warm_buffer_does_not_touch_the_heap() {
    let messages = redirect_messages();
    let longest = messages.iter().map(|m| m.encoded_len()).max().unwrap();
    let mut buf = Vec::with_capacity(longest);
    for msg in &messages {
        let (calls, ()) = heap_calls(|| msg.encode_into(9, &mut buf));
        assert_eq!(calls, 0, "{msg:?}");
        assert_eq!(buf, msg.encode(9));
    }
}

/// An action list is a `Copy` value like a match: the controller's longest,
/// the reverse rewrite, builds one action at a time, copies, encodes into a
/// buffer with room and decodes back without a heap call. (As a `Vec` it
/// cost one call to build, one per decode and one per clone.)
#[test]
fn an_action_list_builds_copies_encodes_and_decodes_without_the_heap() {
    use openflow::actions::{Action, Actions};
    use openflow::oxm::OxmField;
    let mut buf = Vec::with_capacity(96);
    let (calls, back) = heap_calls(|| {
        let mut rev = Actions::new();
        rev.push(Action::SetField(OxmField::EthSrc([2, 0, 0, 0, 0, 1])));
        rev.push(Action::SetField(OxmField::EthDst([2, 0, 0, 0, 0, 20])));
        rev.push(Action::SetField(OxmField::Ipv4Src([203, 0, 113, 10])));
        rev.push(Action::SetField(OxmField::TcpSrc(80)));
        rev.push(Action::output(1));
        let copy = rev;
        copy.encode(&mut buf);
        let back = Actions::decode(&buf).expect("decodes");
        assert_eq!(back, rev);
        back
    });
    assert_eq!(calls, 0, "heap calls for an action list's build, copy, encode and decode");
    assert_eq!(back.len(), Actions::CAP);
}

/// A `FLOW_MOD` the codec refuses — an action type outside the subset, or a
/// sixth action — is refused with a typed error: no heap call, where a
/// formatted message string used to cost one.
#[test]
fn refusing_a_flow_mod_does_not_touch_the_heap() {
    use openflow::{ActionFault, Message, OfError};
    let five = openflow::Actions::from([openflow::Action::output(1); 5]);
    // The first action's type becomes 99.
    let mut unknown = redirect_rule(openflow::OFP_NO_BUFFER).encode(1);
    let first = 8 + 40 + connection().encoded_len() + 8;
    unknown[first + 1] = 99;
    // Five outputs, and a sixth appended to the instruction.
    let mut six = flow_add(openflow::OFP_NO_BUFFER, five).encode(1);
    six.extend_from_within(six.len() - 16..);
    let inst = 8 + 40 + connection().encoded_len();
    for (at, grow) in [(2, 16), (inst + 2, 16)] {
        let len = u16::from_be_bytes([six[at], six[at + 1]]) + grow;
        six[at..at + 2].copy_from_slice(&len.to_be_bytes());
    }
    for (bytes, want) in [(unknown, ActionFault::Type(99)), (six, ActionFault::TooMany)] {
        let (calls, decoded) = heap_calls(|| Message::decode(&bytes));
        assert_eq!(decoded, Err(OfError::BadAction(want)));
        assert_eq!(calls, 0, "heap calls refusing {want:?}");
    }
}

/// A match is a `Copy` value: building one field by field, copying it,
/// encoding it into a buffer with room and decoding it back touch the heap
/// not once. (As a `Vec` of fields it cost one call to build, one per
/// decode and one more each time it was cloned.)
#[test]
fn a_match_builds_encodes_and_decodes_without_the_heap() {
    use openflow::oxm::{Match, OxmField};
    let mut buf = Vec::with_capacity(64);
    let (calls, back) = heap_calls(|| {
        let m = connection().with(OxmField::InPort(1));
        let copy = m;
        copy.encode(&mut buf);
        let (back, used) = Match::decode(&buf).expect("decodes");
        assert_eq!((back, used), (m, buf.len()));
        back
    });
    assert_eq!(calls, 0, "heap calls for a match's build, copy, encode and decode");
    assert_eq!(back.fields().count(), 7);
}

/// The whole control path of one warm, short connection: four frames
/// through the switch (SYN, SYN-ACK, request, response), one table miss and
/// packet-in, the FlowMemory/scheduler decision, two flow-mods, the buffered
/// SYN's release, then idle expiry of the pair with its `FLOW_REMOVED` and
/// the controller's bookkeeping for it. Measures 4 heap calls (3 in a
/// release build, where the scan that checks the controller's pair index is
/// compiled out; `e2ebench`'s `flow_churn` steady state is 0.05 per
/// request), none of them on the control channel: the growth of the
/// FlowMemory's timer heap, of the controller's 40 B request records and of
/// the harness's completions, and that debug-only scan. With first pushes
/// into four timer-wheel slots no earlier connection touched it was 7; with
/// a fresh buffer for every control message, both packet-in copies and the
/// pair's and the switch's action lists on the heap it was 17; with every
/// match a `Vec` of fields and every flow's actions inside an instruction
/// list, 29; with the scheduler's views copying the cluster name into fresh
/// `Vec`s, 32; with a `Vec` returned by every switch and controller call and
/// grown by every expiry sweep, 43; with a fresh buffer for each of its four
/// frames as well, 47; with a `Vec` allocated per flow-table index bucket,
/// 48; with the encoder's nested temporaries and the cloned matches, 111.
#[test]
fn a_warm_short_connection_costs_at_most_seven_heap_calls() {
    let profile = containerd::ServiceSet::by_key("nginx").unwrap();
    let addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), profile.listen_port);
    let mut tb = Testbed::new(TestbedConfig::default());
    tb.register_service(profile, addr);
    tb.pre_deploy_on(addr, 0);
    // Warm: the instance is up, and a few connections from other clients
    // have come and gone, so every map and the event storage
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
    assert!(calls <= 7, "{calls} heap calls for one warm short connection");
}

/// Heap calls of one handover under `policy` at the controller — the
/// session's old pair swept, the Global Scheduler consulted from the new gNB
/// (`Redispatch`) or the session kept on its serving instance (`Anchored`),
/// the new pair built and filed, the make-before-break messages encoded — on
/// the multi-gNB testbed with one zone per gNB, the service running in every
/// zone and `n_gnbs` clusters for the scheduler to weigh. The client hops
/// between gNBs 0 and 1; the last hop is measured, at the same instant
/// whatever the zone count. The messages go to a sink the warm-up hops
/// grew, and their buffers back to the controller's spares, as the harness
/// empties its outbox and returns each buffer once a switch has read it.
fn one_handover(policy: edgectl::HandoverPolicy, n_gnbs: usize) -> u64 {
    use edgectl::{HandoverPolicy, IngressId};
    use testbed::{MobilityConfig, MobilityTestbed};
    let redispatched = usize::from(policy == HandoverPolicy::Redispatch);
    let config = MobilityConfig { n_gnbs, n_clients: 1, policy, ..MobilityConfig::default() };
    let mut tb = MobilityTestbed::new(config);
    let profile = containerd::ServiceSet::by_key("asm").unwrap();
    tb.register_service(profile, ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80));
    for z in 0..n_gnbs {
        tb.pre_deploy_on(z);
    }
    // The session's first pings place it on zone 0 through gNB 0.
    let mut home = mobility::CellHops::new(vec![0], &[]);
    tb.run(&mut home, SimTime::from_secs(1), SimTime::from_secs(5));
    let client = tb.topology().client_ip(0);
    assert_eq!(tb.controller.memory().flows_of_client_at(client, IngressId(0)).len(), 1);
    let mut rng = desim::SimRng::new(1);
    let (mac, gw) = (MacAddr::from_id(1), MacAddr::from_id(2));
    let mut out = Vec::new();
    let mut hop = |tb: &mut MobilityTestbed, k: u64, out: &mut Vec<_>| {
        let (from, to) = (IngressId((k % 2) as u32), IngressId(((k + 1) % 2) as u32));
        let at = SimTime::from_secs(6 + k);
        tb.controller.handle_attachment_change_into(at, client, mac, gw, from, to, 1, policy, &mut rng, out)
    };
    // Warm: both gNBs have filed the client's pairs, and the measured hop
    // neither grows the tracker's move log nor a timer heap.
    for k in 0..5 {
        let outcome = hop(&mut tb, k, &mut out);
        assert_eq!((outcome.flows_migrated, outcome.redispatched), (1, redispatched));
        // What the harness does once a switch has read a message.
        for (_, m) in out.drain(..) {
            tb.controller.recycle(m.data);
        }
    }
    let (calls, outcome) = heap_calls(|| hop(&mut tb, 5, &mut out));
    let shape = (outcome.flows_migrated, outcome.redispatched, out.len());
    assert_eq!(shape, (1, redispatched, 4), "two Adds, two Deletes");
    calls
}

/// A handover's scheduling step gathers every cluster's state for the
/// Global Scheduler, so its cost used to grow with the zone count: each
/// view copied its cluster's name into a `String`, and the views, the
/// candidate list, the resolved distances, the session list and the new
/// gNB's installs each took a fresh `Vec`, and two of the pair's matches
/// outgrew their first allocation — 22 heap calls at 4 gNBs and 34 at 16.
/// Borrowed views over recycled buffers made it 11 at any zone count,
/// matches off the heap with no instruction lists 7 (the new pair's two
/// action lists, its two Adds, the old pair's two Deletes and the `Vec` they
/// travel in), and inline action lists and messages encoded into spare
/// buffers made it 1: the `Vec` the four messages travel in. They now go to
/// the caller's outbox, so a handover under either policy makes none.
#[test]
fn a_handover_costs_no_heap_call_under_either_policy_at_any_zone_count() {
    use edgectl::HandoverPolicy;
    for policy in [HandoverPolicy::Redispatch, HandoverPolicy::Anchored] {
        let (four, sixteen) = (one_handover(policy, 4), one_handover(policy, 16));
        println!("one {} handover: {four} heap calls at 4 gNBs, {sixteen} at 16", policy.label());
        assert_eq!((four, sixteen), (0, 0), "{} handover", policy.label());
    }
}

/// The calls that send outside a switch message or a handover, each into a
/// sink with room: a reconcile of gNB 0 against an empty table (client 0's
/// pair re-added), a live-migration flip of zone 0's sessions to zone 1, the
/// health sweep after zone 1's instance crashed (both pairs it now serves
/// deleted), and an outage of zone 2 (client 2's pair deleted) — on the
/// multi-gNB testbed with three zones and one session placed on each. Each
/// call appends to its caller's outbox and measures 6, 12, 14 and 6 heap
/// calls; when each returned a fresh list, the flip, the repair and the
/// outage built from a list per session or switch they tore down, they
/// cost 7, 16, 22 and 8. The repair cost 18 while the sweep built its work
/// list as a `BTreeSet` and a `Vec` over every memorized flow and named
/// each cluster's breaker gauge with a `format!`; the list now comes from
/// the FlowMemory's per-instance counts into a buffer the controller keeps,
/// and the gauge names are made once, as clusters are added.
#[test]
fn repair_outage_flip_and_reconcile_append_to_a_sink_with_room() {
    use edgectl::{IngressId, MigrationConfig, MigrationPolicy, MigrationReason};
    use testbed::{MobilityConfig, MobilityTestbed};
    let migration = MigrationConfig { policy: MigrationPolicy::Live, ..MigrationConfig::default() };
    let controller = edgectl::ControllerConfig { migration, ..edgectl::ControllerConfig::default() };
    let config = MobilityConfig { n_gnbs: 3, n_clients: 3, controller, ..MobilityConfig::default() };
    let mut tb = MobilityTestbed::new(config);
    let profile = containerd::ServiceSet::by_key("asm").unwrap();
    let addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80);
    tb.register_service(profile, addr);
    for z in 0..3 {
        tb.pre_deploy_on(z);
    }
    // Client `i` pings through gNB `i`, so its session is placed on zone `i`.
    let mut home = mobility::CellHops::new(vec![0, 1, 2], &[]);
    tb.run(&mut home, SimTime::from_secs(1), SimTime::from_secs(5));
    let (ctl, mut rng) = (&mut tb.controller, desim::SimRng::new(1));
    let mut out = Vec::with_capacity(64);
    let sent = |out: &mut Vec<(IngressId, edgectl::OutboundMessage)>, ctl: &mut edgectl::Controller| {
        let n = out.len();
        for (_, m) in out.drain(..) {
            ctl.recycle(m.data);
        }
        n
    };
    let at = SimTime::from_secs;

    let (reconcile, ()) = heap_calls(|| ctl.reconcile(IngressId(0), &[], at(6), &mut out));
    assert_eq!(sent(&mut out, ctl), 2, "client 0's pair re-added");
    assert!(ctl.begin_migration(at(7), addr, 0, 1, MigrationReason::Explicit, &mut rng));
    let due = ctl.next_migration_at().expect("one migration in flight");
    let (flip, ()) = heap_calls(|| ctl.migration_tick(due, &mut rng, &mut out));
    assert_eq!(sent(&mut out, ctl), 4, "two Adds toward zone 1, two Deletes toward zone 0");
    assert!(ctl.inject_instance_crash(1, addr, at(9), &mut rng));
    let (repair, ()) = heap_calls(|| ctl.health_check(at(10), &mut out));
    assert_eq!(sent(&mut out, ctl), 4, "the pairs of clients 0 and 1 deleted");
    let (outage, ()) = heap_calls(|| ctl.begin_zone_outage(2, at(11), at(40), &mut rng, &mut out));
    assert_eq!(sent(&mut out, ctl), 2, "client 2's pair deleted");

    println!("heap calls: reconcile {reconcile}, flip {flip}, repair {repair}, outage {outage}");
    assert!(reconcile <= 6, "{reconcile} heap calls for a reconcile");
    assert!(flip <= 12, "{flip} heap calls for a migration flip");
    assert!(repair <= 14, "{repair} heap calls for a health repair");
    assert!(outage <= 6, "{outage} heap calls for a zone outage");
}

/// The idle sweep's scale-down of a service whose last flow expired. It
/// deep-copied the `EdgeService` — annotated manifest, layer digests and
/// all — for every scale-down: 101 heap calls. A shared handle left 4: the
/// expiry report (a fresh `BTreeSet` and `Vec` per sweep) and the Docker
/// cluster's own bookkeeping (two). The report now fills a buffer the
/// controller keeps, which leaves the two of the Docker cluster.
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
    assert!(calls <= 2, "{calls} heap calls for one idle scale-down");
}

/// One on-demand deploy cycle on Kubernetes, `deploy_churn`'s unit of work:
/// `scale_up` (replicas 1 → ReplicaSet → pod → scheduler → kubelet pull,
/// create and start → endpoints), the readiness queries of a waiting
/// request, and the idle `scale_down` (terminate, stop, remove, endpoints
/// again) — on a cluster created and cycled once, so the stores and the
/// event trail have their steady-state capacity. Measures 0 heap calls. It
/// was 53 while k8ssim named every object and work item with a `String`,
/// kept each pod in a `BTreeMap` entry, returned a fresh `Vec` from
/// `settle` and queued its work in a calendar that kept a `Vec` per bucket,
/// while the kubelet deep-copied each container spec and every pull built
/// its registry profile and a `Vec` of cached layers.
#[test]
fn a_warm_k8s_deploy_cycle_costs_at_most_three_heap_calls() {
    use edgectl::{EdgeCluster, InstanceState, K8sEdgeCluster};
    let profile = containerd::ServiceSet::by_key("nginx").unwrap();
    let svc = edgectl::EdgeService::from_profile(profile, ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80));
    let mut k8s = K8sEdgeCluster::new(
        "egs-k8s",
        k8ssim::K8sCluster::with_defaults(),
        MacAddr::from_id(100),
        desim::Duration::from_micros(50),
        None,
    );
    let cycle = |k8s: &mut K8sEdgeCluster, now: SimTime, rng: &mut desim::SimRng| {
        let (acked, ready) = k8s.scale_up(&svc, now, rng).expect("scale-up");
        assert!(matches!(k8s.state(&svc, acked), InstanceState::Starting { .. }));
        assert!(k8s.state(&svc, ready).is_ready());
        k8s.scale_down(&svc, ready + desim::Duration::from_secs(3), rng)
    };
    let mut rng = desim::SimRng::new(1);
    let t = k8s.pull(&svc, SimTime::ZERO, &mut rng).expect("pull");
    let t = k8s.create(&svc, t, &mut rng).expect("create");
    let t = cycle(&mut k8s, t, &mut rng);

    let (calls, _) = heap_calls(|| cycle(&mut k8s, t + desim::Duration::from_secs(10), &mut rng));
    println!("one warm k8s scale-up, ready, scale-down: {calls} heap calls");
    assert!(calls <= 3, "{calls} heap calls for one warm k8s deploy cycle");
}
