//! Heap traffic per data frame, as a gate that can fail.
//!
//! A frame travels client → switch → server as one buffer: allocated by the
//! sender's encoder, verified and patched in place by the switch, moved
//! through every event and link, parsed without a copy by the receiver. This
//! binary installs its own counting allocator, pushes one warm `resnet`
//! upload (83 KiB, 62 frames through the switch) through the real
//! [`Testbed`] and bounds what the whole stack — controller round trip for
//! the new connection included — asks of the heap per frame. Before the
//! frame journey was one buffer the same region measured 10.7 calls per
//! frame and 5× the wire bytes.

use desim::SimTime;
use netsim::{Ipv4Addr, ServiceAddr};
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
fn a_warm_upload_costs_at_most_four_heap_calls_and_twice_its_bytes_per_frame() {
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
    assert!(calls <= 4 * frames, "{calls} heap calls for {frames} frames");
    assert!(bytes <= 2 * wire_bytes, "{bytes} bytes allocated for {wire_bytes} on the wire");
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
