//! Where the heap calls of a warm request are made: the per-site profile
//! behind the gates of `frame_allocs.rs`.
//!
//! The box has no `perf` and no `valgrind`, and `e2ebench`'s counting
//! allocator says how many calls an operation makes, not who makes them.
//! This binary's allocator, inside a counted region, captures a backtrace
//! per heap call, keeps its first four frames inside the workspace (the
//! innermost one is the site, the rest say how it was reached) and prints
//! calls and bytes per site — for twenty warm short connections
//! (`flow_churn`'s shape) and for one warm 83 KiB upload (`bulk_transfer`'s).
//! A backtrace costs milliseconds, so both cases are `#[ignore]`d; run them
//! with
//!
//! ```text
//! cargo test -p testbed --test alloc_sites -- --ignored --nocapture --test-threads=1
//! ```
//!
//! in a debug build (line tables, nothing inlined away). EXPERIMENTS.md
//! "PR 24" holds the tables this printed before and after the switch and the
//! controller got caller-owned sinks.

use desim::SimTime;
use netsim::{Ipv4Addr, ServiceAddr};
use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use testbed::{Testbed, TestbedConfig};

/// Workspace frames kept per heap call.
const FRAMES_KEPT: usize = 4;

thread_local! {
    /// Set on the measuring thread for the profiled region only.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Set while a call is being recorded: the backtrace, its rendering and
    /// the map all allocate, and none of that is the program's.
    static RECORDING: Cell<bool> = const { Cell::new(false) };
    /// Site → (calls, bytes).
    static SITES: RefCell<BTreeMap<String, (u64, u64)>> = const { RefCell::new(BTreeMap::new()) };
}

struct SiteAlloc;

fn record(bytes: usize) {
    let counting = COUNTING.try_with(Cell::get).unwrap_or(false);
    if !counting || RECORDING.with(|r| r.replace(true)) {
        return;
    }
    let site = site_of(&Backtrace::force_capture().to_string());
    SITES.with(|sites| {
        let mut sites = sites.borrow_mut();
        let entry = sites.entry(site).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += bytes as u64;
    });
    RECORDING.set(false);
}

/// Where a backtrace's `at` line points, as `crate/src/file.rs:line`, if it
/// lies in this workspace's crates and is not this file (the allocator's own
/// frames). The test binary runs in `crates/testbed`, so that crate's paths
/// are rendered relative to it and every other crate's in full.
fn workspace_path(at: &str) -> Option<String> {
    let (file_line, _column) = at.rsplit_once(':')?;
    if let Some(own) = file_line.strip_prefix("./") {
        return own.starts_with("src/").then(|| format!("testbed/{own}"));
    }
    file_line.split_once("/crates/").map(|(_, path)| path.to_owned())
}

/// The first [`FRAMES_KEPT`] workspace frames of a rendered backtrace,
/// innermost first, as `function (crate/src/file.rs:line)` joined by `<-`.
fn site_of(rendered: &str) -> String {
    let mut frames = Vec::new();
    let mut function = "";
    for line in rendered.lines().map(str::trim) {
        if let Some(path) = line.strip_prefix("at ").and_then(workspace_path) {
            if frames.len() < FRAMES_KEPT {
                frames.push(format!("{function} ({path})"));
            }
        } else if let Some((_, name)) = line.split_once(": ") {
            function = name;
        }
    }
    if frames.is_empty() {
        return "(no workspace frame)".to_owned();
    }
    frames.join(" <- ")
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract. `record` runs before the call is
// forwarded and touches only const-initialised thread-locals; the
// allocations it makes itself re-enter these methods with `RECORDING` set
// and go straight through to `System`.
unsafe impl GlobalAlloc for SiteAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
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
static ALLOC: SiteAlloc = SiteAlloc;

/// Runs `region` with every heap call of this thread attributed to its site,
/// then prints the sites, busiest first, with calls and bytes per `per`
/// operations.
fn profile(title: &str, per: u64, region: impl FnOnce()) {
    SITES.with(|sites| sites.borrow_mut().clear());
    COUNTING.set(true);
    region();
    COUNTING.set(false);
    let sites = SITES.with(|sites| std::mem::take(&mut *sites.borrow_mut()));
    let mut rows: Vec<(&String, &(u64, u64))> = sites.iter().collect();
    rows.sort_by_key(|(site, (calls, _))| (std::cmp::Reverse(*calls), site.as_str()));
    let (calls, bytes) = rows.iter().fold((0, 0), |(c, b), (_, (calls, bytes))| (c + calls, b + bytes));
    println!("\n== {title}: {calls} heap calls, {bytes} bytes over {per} operation(s)");
    println!("{:>9} {:>10}  site <- reached from", "calls/op", "bytes/op");
    for (site, (calls, bytes)) in rows {
        let per_op = |n: u64| n as f64 / per as f64;
        println!("{:>9.2} {:>10.1}  {site}", per_op(*calls), per_op(*bytes));
    }
}

/// A testbed with `key`'s service deployed and `warm_up` requests served,
/// their flows idled out again.
fn warm(key: &str, last_octet: u8, warm_up: u64) -> (Testbed, ServiceAddr) {
    let profile = containerd::ServiceSet::by_key(key).unwrap();
    let addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, last_octet), profile.listen_port);
    let mut tb = Testbed::new(TestbedConfig::default());
    tb.register_service(profile, addr);
    tb.pre_deploy_on(addr, 0);
    for i in 0..warm_up {
        tb.request_at(SimTime::from_secs(20 + i), i as usize % 4, addr);
    }
    tb.run_until(SimTime::from_secs(60));
    assert_eq!(tb.completed.len() as u64, warm_up);
    assert!(tb.switch().table().is_empty(), "warm-up flows idled out");
    (tb, addr)
}

#[test]
#[ignore = "a profile, not a check: prints the allocation sites of twenty warm short connections"]
fn sites_of_twenty_warm_short_connections() {
    let (mut tb, addr) = warm("nginx", 10, 24);
    for i in 0..20u64 {
        tb.request_at(SimTime::from_secs(60) + desim::Duration::from_millis(500 * i), 4 + i as usize % 8, addr);
    }
    profile("twenty warm nginx connections, miss to FLOW_REMOVED", 20, || {
        tb.run_until(SimTime::from_secs(90));
    });
    assert_eq!((tb.completed.len(), tb.drops, tb.resets), (44, 0, 0));
    assert!(tb.switch().table().is_empty(), "every pair idled out and said so");
}

#[test]
#[ignore = "a profile, not a check: prints the allocation sites of one warm 83 KiB upload"]
fn sites_of_one_warm_upload() {
    let (mut tb, addr) = warm("resnet", 11, 2);
    tb.request_at(SimTime::from_secs(60), 1, addr);
    profile("one warm resnet upload (62 frames through the switch), miss to FLOW_REMOVED", 1, || {
        tb.run_until(SimTime::from_secs(80));
    });
    assert_eq!((tb.completed.len(), tb.drops, tb.resets), (3, 0, 0));
    assert!(tb.switch().table().is_empty(), "the pair idled out and said so");
}
