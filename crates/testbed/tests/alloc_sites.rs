//! Where the heap calls of a warm request are made: the per-site profile
//! behind the gates of `frame_allocs.rs`.
//!
//! The box has no `perf` and no `valgrind`, and `e2ebench`'s counting
//! allocator says how many calls an operation makes, not who makes them.
//! This binary's allocator, inside a counted region, captures a backtrace
//! per heap call, keeps its first four frames inside the workspace (the
//! innermost one is the site, the rest say how it was reached) and prints
//! calls and bytes per site — for twenty warm short connections
//! (`flow_churn`'s shape), for one warm 83 KiB upload (`bulk_transfer`'s)
//! and for every request of `deploy_churn`'s trace (cold Kubernetes
//! deployments that idle out). A fourth case says where the *bytes* are
//! instead: live heap per site at the heap's high-water mark over
//! `flow_churn`'s run — the tables `peak_rss_mb` is made of. A backtrace
//! costs milliseconds, so every case is `#[ignore]`d; run them with
//!
//! ```text
//! cargo test -p testbed --test alloc_sites -- --ignored --nocapture --test-threads=1
//! ```
//!
//! in a debug build (line tables, nothing inlined away). EXPERIMENTS.md
//! "PR 36" holds the table this printed before and after the control
//! channel stopped allocating: inline action lists, messages encoded into
//! recycled buffers, packet-in bytes borrowed; "PR 38" the one before and
//! after the Kubernetes deploy cycle stopped allocating: k8ssim objects by
//! handle, an event trail the caller owns, shared container specs; "PR 39"
//! the live bytes before and after a filed pair became its spec. It also
//! has them before and after the request record shrank from 192 to 40 B
//! (`close_request`'s row, 12.00 → 2.50 MB) and the timer wheel stopped
//! keeping a deadline map beside its slot copies (a 1.06 MB row, gone);
//! "a switch flow costs its key" the `FlowTable` rows before and after its
//! slot shrank from 160 to 128 B and its index entry from 72 to 40 B.

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
    /// Set on the measuring thread while live bytes are tracked.
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    /// The live bytes of the allocations made while `TRACKING` was set.
    static LIVE: RefCell<Live> = const { RefCell::new(Live::new()) };
}

/// Allocations below this size are one row, "small", and cost no backtrace:
/// the tables that make a peak grow in large blocks.
const SMALL: usize = 4096;

/// Live heap by site: every tracked block still allocated, the live bytes
/// per site, and a copy of those taken whenever their total reached a new
/// high.
struct Live {
    /// Address → (site index, bytes).
    blocks: BTreeMap<usize, (usize, usize)>,
    /// Site name → index; index 0 is the small allocations.
    index: BTreeMap<String, usize>,
    bytes: Vec<usize>,
    total: usize,
    peak: usize,
    at_peak: Vec<usize>,
}

impl Live {
    const fn new() -> Live {
        Live {
            blocks: BTreeMap::new(),
            index: BTreeMap::new(),
            bytes: Vec::new(),
            total: 0,
            peak: 0,
            at_peak: Vec::new(),
        }
    }

    fn site(&mut self, size: usize) -> usize {
        let name = if size < SMALL {
            format!("(allocations under {SMALL} B)")
        } else {
            site_of(&Backtrace::force_capture().to_string())
        };
        let next = self.index.len();
        let site = *self.index.entry(name).or_insert(next);
        if site == self.bytes.len() {
            self.bytes.push(0);
        }
        site
    }

    fn alloc(&mut self, ptr: usize, size: usize) {
        let site = self.site(size);
        self.blocks.insert(ptr, (site, size));
        self.bytes[site] += size;
        self.total += size;
        if self.total > self.peak {
            self.peak = self.total;
            self.at_peak.clone_from(&self.bytes);
        }
    }

    fn free(&mut self, ptr: usize) {
        if let Some((site, size)) = self.blocks.remove(&ptr) {
            self.bytes[site] -= size;
            self.total -= size;
        }
    }
}

/// Runs `f` on the live-bytes table if this thread is tracking and not
/// already inside the allocator's own bookkeeping.
fn track(f: impl FnOnce(&mut Live)) {
    let tracking = TRACKING.try_with(Cell::get).unwrap_or(false);
    if !tracking || RECORDING.with(|r| r.replace(true)) {
        return;
    }
    LIVE.with(|live| f(&mut live.borrow_mut()));
    RECORDING.set(false);
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
// upholds the `GlobalAlloc` contract. `record` and `track` run around the
// forwarded call, read the addresses as numbers only, and touch only
// const-initialised thread-locals; the allocations they make themselves
// re-enter these methods with `RECORDING` set and go straight through to
// `System`.
unsafe impl GlobalAlloc for SiteAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        let ptr = unsafe { System.alloc(layout) };
        track(|live| live.alloc(ptr as usize, layout.size()));
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        track(|live| live.alloc(ptr as usize, layout.size()));
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` was returned by `System` for `layout` (every
        // allocation of this allocator comes from it), as the caller
        // guarantees for `self`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        track(|live| {
            live.free(ptr as usize);
            live.alloc(new as usize, new_size);
        });
        new
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(|live| live.free(ptr as usize));
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

#[test]
#[ignore = "a profile, not a check: prints the allocation sites of deploy_churn's requests"]
fn sites_of_k8s_deploy_churn() {
    use desim::Duration;
    use workload::{Trace, TraceConfig};
    // `deploy_churn`'s shape: 100 cold nginx services on Kubernetes whose
    // flows (2 s) and memory (3 s) idle out, 8 000 requests over 200 s from
    // 250 clients, the trace at seed 1 shifted to start at 1 s.
    let trace = Trace::generate(
        TraceConfig {
            n_services: 100,
            n_requests: 8_000,
            min_per_service: 1,
            duration: Duration::from_secs(200),
            n_clients: 250,
            skew: 0.9,
            start_mean_secs: 8.0,
        },
        1,
    );
    let mut tb = Testbed::new(TestbedConfig {
        n_clients: 250,
        cluster: testbed::ClusterKind::K8s,
        controller: edgectl::ControllerConfig {
            memory_idle: Duration::from_secs(3),
            switch_flow_idle: Duration::from_secs(2),
            ..edgectl::ControllerConfig::default()
        },
        seed: 1,
        ..TestbedConfig::default()
    });
    let nginx = containerd::ServiceSet::by_key("nginx").unwrap();
    let addrs: Vec<ServiceAddr> = (1..=100)
        .map(|host| ServiceAddr::new(Ipv4Addr::new(203, 0, 113, host), nginx.listen_port))
        .collect();
    for &addr in &addrs {
        tb.register_service(nginx.clone(), addr);
    }
    for r in &trace.requests {
        tb.request_at(r.at + Duration::from_secs(1), r.client, addrs[r.service]);
    }
    let n = trace.requests.len() as u64;
    profile("deploy_churn at seed 1: 100 cold services on Kubernetes, every request", n, || {
        tb.run_until(SimTime::from_secs(264));
    });
    assert_eq!((tb.completed.len() as u64, tb.drops, tb.resets), (n, 0, 0));
}

#[test]
#[ignore = "a profile, not a check: prints live heap per site at flow_churn's high-water mark"]
fn live_bytes_at_peak_of_flow_churn() {
    use desim::Duration;
    use workload::{Trace, TraceConfig};
    // `flow_churn`'s shape: 40 000 short connections over 20 s from 250
    // clients to 10 pre-deployed nginx services on Docker, at seed 1; flows
    // idle out after 10 s and memory after 60 s, so ~40 k pairs are live at
    // the peak.
    let trace = Trace::generate(
        TraceConfig {
            n_services: 10,
            n_requests: 40_000,
            min_per_service: 1,
            duration: Duration::from_secs(20),
            n_clients: 250,
            skew: 0.9,
            start_mean_secs: 0.05,
        },
        1,
    );
    let mut tb = Testbed::new(TestbedConfig {
        n_clients: 250,
        controller: edgectl::ControllerConfig {
            memory_idle: Duration::from_secs(60),
            switch_flow_idle: Duration::from_secs(10),
            ..edgectl::ControllerConfig::default()
        },
        seed: 1,
        ..TestbedConfig::default()
    });
    let nginx = containerd::ServiceSet::by_key("nginx").unwrap();
    let addrs: Vec<ServiceAddr> = (1..=10)
        .map(|host| ServiceAddr::new(Ipv4Addr::new(203, 0, 113, host), nginx.listen_port))
        .collect();
    for &addr in &addrs {
        tb.register_service(nginx.clone(), addr);
        tb.pre_deploy_on(addr, 0);
    }
    for r in &trace.requests {
        tb.request_at(r.at + Duration::from_secs(30), r.client, addrs[r.service]);
    }
    TRACKING.set(true);
    tb.run_until(SimTime::from_secs(170));
    TRACKING.set(false);
    let live = LIVE.with(|live| std::mem::replace(&mut *live.borrow_mut(), Live::new()));
    let mut rows: Vec<(usize, &String)> = live.index.iter().map(|(name, &i)| (live.at_peak[i], name)).collect();
    rows.sort_by_key(|&(bytes, name)| (std::cmp::Reverse(bytes), name.as_str()));
    let mb = |b: usize| b as f64 / (1024.0 * 1024.0);
    println!("\n== flow_churn at seed 1: {:.2} MB live at the high-water mark of the allocations made in the run", mb(live.peak));
    println!("{:>8}  site <- reached from", "MB");
    for (bytes, site) in rows.into_iter().filter(|&(bytes, _)| bytes > 0) {
        println!("{:>8.2}  {site}", mb(bytes));
    }
    assert_eq!((tb.completed.len(), tb.drops, tb.resets), (trace.requests.len(), 0, 0));
}
