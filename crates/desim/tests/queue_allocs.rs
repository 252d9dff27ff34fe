//! Heap calls of the calendar queue at steady state, as a gate that can fail.
//!
//! `EventQueue` keeps its two rings' events in one block arena with one free
//! chain, so once it has held its peak population a push/pop cycle reuses
//! storage a drained bucket gave back. This binary installs its own counting
//! allocator, keeps 256 events pending, lets them turn over once and then
//! counts every heap call of 200 000 pop/push cycles, for delays inside the
//! near ring's first few buckets, across the whole near ring, and across the
//! far ring. While every ring bucket kept a `Vec` of its own that grew on
//! first use, the three read 5 026, 716 and 2 991 calls.
//!
//! One turnover does not always reach the peak number of blocks in use: over
//! RNG seeds 0..40, 20 of the 120 runs make 2 calls after it (one doubling
//! of the arena's two vectors, or of the current bucket's) and one makes 4.
//! None makes more, so a per-bucket or per-cycle allocation still reads in
//! the hundreds at any seed. The cases below run seed 9.

use desim::{Duration, EventQueue, SimRng, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Set on the measuring thread for the timed region only, so the test
    /// harness's own threads are not counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Per thread, so the cases in this binary can run side by side.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        CALLS.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the const-initialised, destructor-free
// thread-local flag and counter touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

const PENDING: u64 = 256;
const CYCLES: u64 = 200_000;

/// Heap calls of `CYCLES` pop/push cycles with `PENDING` events pending, each
/// push `rng.below(max_delay_ns)` after the event just popped, counted after
/// one turnover of the population.
fn steady_state_heap_calls(max_delay_ns: u64) -> u64 {
    let mut rng = SimRng::new(9);
    let mut q = EventQueue::default();
    for i in 0..PENDING {
        q.push(SimTime::from_nanos(rng.below(max_delay_ns)), i);
    }
    let mut cycle = |q: &mut EventQueue<u64>| {
        let (t, i) = q.pop().expect("pending");
        q.push(t + Duration::from_nanos(rng.below(max_delay_ns)), i);
    };
    for _ in 0..PENDING {
        cycle(&mut q);
    }
    COUNTING.set(true);
    for _ in 0..CYCLES {
        cycle(&mut q);
    }
    COUNTING.set(false);
    assert_eq!(q.len() as u64, PENDING);
    CALLS.get()
}

/// About 15 near buckets occupied, 17 events each: drains sort a full
/// current bucket every 131 µs of simulated time.
#[test]
fn delays_under_2_ms_make_no_heap_call_at_steady_state() {
    assert_eq!(steady_state_heap_calls(2_000_000), 0);
}

/// The whole near ring, about one event per bucket.
#[test]
fn delays_under_130_ms_make_no_heap_call_at_steady_state() {
    assert_eq!(steady_state_heap_calls(130_000_000), 0);
}

/// The far ring: every event is filed in a far bucket, cascaded into the
/// near ring when the cursor enters its span, and drained from there.
#[test]
fn delays_under_20_s_make_no_heap_call_at_steady_state() {
    assert_eq!(steady_state_heap_calls(20_000_000_000), 0);
}
