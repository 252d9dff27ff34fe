//! Host-clock spans around calls into each layer.
//!
//! A [`Tracer`] keeps fixed-size [`Span`] records in a vector sized before
//! the run, so recording never allocates; [`Tracer::aggregate`] reduces them
//! at exit. The tracer in use lives in a thread-local so that decorators
//! deep inside a controller call reach it without plumbing ([`span`]).

use std::cell::RefCell;
use std::time::Instant;

/// A traced call: `layer.op`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u16)]
pub enum Op {
    /// `Switch::handle_frame` resolved by an installed flow.
    OvsHit,
    /// `Switch::handle_frame` that ended in a `PACKET_IN`.
    OvsMiss,
    /// `Switch::handle_controller` of a `FLOW_MOD`.
    OvsFlowMod,
    /// `Switch::handle_controller` of a `PACKET_OUT`.
    OvsPacketOut,
    /// `Switch::handle_controller` of anything else.
    OvsOther,
    /// `Switch::expire_flows`.
    OvsExpire,
    /// `Controller::handle_switch_message` of a `PACKET_IN`.
    EdgectlPacketIn,
    /// `Controller::handle_switch_message` of a `FLOW_REMOVED`.
    EdgectlFlowRemoved,
    /// `Controller::handle_switch_message` of anything else.
    EdgectlOther,
    /// `Controller::tick`.
    EdgectlTick,
    /// `Controller::handle_attachment_change`.
    EdgectlHandover,
    /// `GlobalScheduler::choose`.
    EdgectlScheduler,
    /// `EdgeCluster::state` on a Kubernetes cluster.
    K8sState,
    /// `EdgeCluster::scale_up` on a Kubernetes cluster.
    K8sScaleUp,
    /// `EdgeCluster::scale_down` on a Kubernetes cluster.
    K8sScaleDown,
    /// `has_image_cached` / `remove` / `fail_instance` on Kubernetes.
    K8sOther,
    /// `EdgeCluster::state` on a Docker cluster.
    DockerState,
    /// `EdgeCluster::scale_up` on a Docker cluster.
    DockerScaleUp,
    /// `EdgeCluster::scale_down` on a Docker cluster.
    DockerScaleDown,
    /// `has_image_cached` / `remove` / `fail_instance` on Docker.
    DockerOther,
    /// `EdgeCluster::create` (either cluster type).
    ContainerdCreate,
    /// `EdgeCluster::pull` (either cluster type).
    RegistryPull,
}

impl Op {
    /// Every op, in declaration order.
    pub const ALL: [Op; 22] = [
        Op::OvsHit,
        Op::OvsMiss,
        Op::OvsFlowMod,
        Op::OvsPacketOut,
        Op::OvsOther,
        Op::OvsExpire,
        Op::EdgectlPacketIn,
        Op::EdgectlFlowRemoved,
        Op::EdgectlOther,
        Op::EdgectlTick,
        Op::EdgectlHandover,
        Op::EdgectlScheduler,
        Op::K8sState,
        Op::K8sScaleUp,
        Op::K8sScaleDown,
        Op::K8sOther,
        Op::DockerState,
        Op::DockerScaleUp,
        Op::DockerScaleDown,
        Op::DockerOther,
        Op::ContainerdCreate,
        Op::RegistryPull,
    ];

    /// `layer.op`, the name spans are reported under.
    pub fn name(self) -> &'static str {
        match self {
            Op::OvsHit => "ovs.hit",
            Op::OvsMiss => "ovs.miss",
            Op::OvsFlowMod => "ovs.flowmod",
            Op::OvsPacketOut => "ovs.packet_out",
            Op::OvsOther => "ovs.other",
            Op::OvsExpire => "ovs.expire",
            Op::EdgectlPacketIn => "edgectl.packet_in",
            Op::EdgectlFlowRemoved => "edgectl.flow_removed",
            Op::EdgectlOther => "edgectl.other",
            Op::EdgectlTick => "edgectl.tick",
            Op::EdgectlHandover => "edgectl.handover",
            Op::EdgectlScheduler => "edgectl.scheduler",
            Op::K8sState => "k8ssim.state",
            Op::K8sScaleUp => "k8ssim.scale_up",
            Op::K8sScaleDown => "k8ssim.scale_down",
            Op::K8sOther => "k8ssim.other",
            Op::DockerState => "dockersim.state",
            Op::DockerScaleUp => "dockersim.scale_up",
            Op::DockerScaleDown => "dockersim.scale_down",
            Op::DockerOther => "dockersim.other",
            Op::ContainerdCreate => "containerd.create",
            Op::RegistryPull => "registry.pull",
        }
    }

    /// The layer (crate) the op belongs to.
    pub fn layer(self) -> &'static str {
        let name = self.name();
        &name[..name.find('.').expect("op names are layer.op")]
    }
}

/// "No parent" / "no request" marker in a [`Span`].
pub const NONE: u32 = u32::MAX;

/// One traced call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// What was called.
    pub op: Op,
    /// Index of the span that caused this one, or [`NONE`].
    pub parent: u32,
    /// Request the call served (flow 4-tuple index), or [`NONE`].
    pub request: u32,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Count and self time of one op.
#[derive(Clone, Debug, PartialEq)]
pub struct OpStats {
    /// The op.
    pub op: Op,
    /// Calls.
    pub count: u64,
    /// Total self time, ns.
    pub self_ns: u64,
    /// Median self time of a call, ns.
    pub p50_ns: u64,
    /// 99th percentile self time of a call, ns.
    pub p99_ns: u64,
}

impl OpStats {
    /// Mean self time of a call, ns (0 when never called).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

/// An in-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the spans currently open, innermost last.
    open: Vec<u32>,
    limit: usize,
    request: u32,
    dropped: u64,
}

impl Tracer {
    /// A tracer with room for `capacity` spans; calls beyond it are counted
    /// in [`Tracer::dropped`], not recorded.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(64),
            limit: capacity,
            request: NONE,
            dropped: 0,
        }
    }

    /// Nanoseconds since this tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one. Returns its index, or
    /// [`NONE`] when the tracer is full.
    pub fn enter(&mut self, op: Op) -> u32 {
        if self.spans.len() == self.limit {
            self.dropped += 1;
            return NONE;
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NONE);
        self.open.push(idx);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op,
            parent,
            request: self.request,
            start_ns,
            end_ns: start_ns,
        });
        idx
    }

    /// Closes span `idx` (from [`Tracer::enter`]), optionally renaming it:
    /// whether a frame hit or missed is only known once the call returns.
    pub fn exit(&mut self, idx: u32, op: Option<Op>) {
        let end_ns = self.now_ns();
        if idx == NONE {
            return;
        }
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(idx), "spans close innermost first");
        let span = &mut self.spans[idx as usize];
        span.end_ns = end_ns;
        if let Some(op) = op {
            span.op = op;
        }
    }

    /// Sets the request id stamped on spans opened from now on.
    pub fn set_request(&mut self, request: u32) {
        self.request = request;
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Calls that found the tracer full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Self time of every span: its duration minus the durations of its
    /// direct children.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if s.parent != NONE {
                let p = s.parent as usize;
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Count, total / median / p99 self time per op, for ops that were
    /// called at least once.
    pub fn aggregate(&self) -> Vec<OpStats> {
        self.aggregate_since(0)
    }

    /// [`Tracer::aggregate`] over the spans that started at or after
    /// `from_ns` (the timed region of a run whose set-up was traced too).
    pub fn aggregate_since(&self, from_ns: u64) -> Vec<OpStats> {
        let own = self.self_times();
        let mut per_op: Vec<Vec<u64>> = vec![Vec::new(); Op::ALL.len()];
        for (s, &ns) in self.spans.iter().zip(&own) {
            if s.start_ns >= from_ns {
                per_op[s.op as usize].push(ns);
            }
        }
        Op::ALL
            .into_iter()
            .zip(per_op)
            .filter(|(_, v)| !v.is_empty())
            .map(|(op, mut v)| {
                v.sort_unstable();
                OpStats {
                    op,
                    count: v.len() as u64,
                    self_ns: v.iter().sum(),
                    p50_ns: crate::stats::percentile_sorted(&v, 50.0),
                    p99_ns: crate::stats::percentile_sorted(&v, 99.0),
                }
            })
            .collect()
    }

    /// The raw span trees of requests `0..requests` as JSON: one object per
    /// request, spans in start order, `parent` pointing at a span `id` of
    /// the same file or `null`.
    pub fn trees_json(&self, workload: &str, requests: u32) -> String {
        let mut by_request: Vec<Vec<usize>> = vec![Vec::new(); requests as usize];
        for (i, s) in self.spans.iter().enumerate() {
            if s.request < requests {
                by_request[s.request as usize].push(i);
            }
        }
        let mut out = format!("{{\"workload\": \"{workload}\", \"requests\": [\n");
        let mut first = true;
        for (request, spans) in by_request.iter().enumerate() {
            if spans.is_empty() {
                continue;
            }
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!("  {{\"request\": {request}, \"spans\": ["));
            for (k, &i) in spans.iter().enumerate() {
                let s = &self.spans[i];
                let parent = if s.parent == NONE {
                    "null".to_owned()
                } else {
                    s.parent.to_string()
                };
                out.push_str(&format!(
                    "{}{{\"id\": {i}, \"op\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                    if k == 0 { "" } else { ", " },
                    s.op.name(),
                    s.start_ns,
                    s.end_ns
                ));
            }
            out.push_str("]}");
        }
        out.push_str("\n]}\n");
        out
    }
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Installs `tracer` as this thread's recorder, returning the previous one.
pub fn install(tracer: Option<Tracer>) -> Option<Tracer> {
    TRACER.with(|t| t.replace(tracer))
}

/// Runs `f` inside a span of `op` on this thread's tracer (a plain call
/// when none is installed).
#[inline]
pub fn span<R>(op: Op, f: impl FnOnce() -> R) -> R {
    span_as(op, |_| None, f)
}

/// Like [`span`], but `rename` may replace the op once the result is known.
#[inline]
pub fn span_as<R>(op: Op, rename: impl FnOnce(&R) -> Option<Op>, f: impl FnOnce() -> R) -> R {
    let idx = TRACER.with(|t| t.borrow_mut().as_mut().map_or(NONE, |t| t.enter(op)));
    let result = f();
    let renamed = rename(&result);
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.exit(idx, renamed);
        }
    });
    result
}

/// Sets the request id on this thread's tracer.
pub fn set_request(request: u32) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.set_request(request);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a tracer whose spans have hand-written times.
    fn tracer(spans: &[(Op, u32, u64, u64)]) -> Tracer {
        let mut t = Tracer::with_capacity(spans.len());
        for &(op, parent, start_ns, end_ns) in spans {
            t.spans.push(Span {
                op,
                parent,
                request: 0,
                start_ns,
                end_ns,
            });
        }
        t
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // packet_in [0,100) has two sibling children, state [10,30) and
        // scheduler [40,70); the scheduler has a nested state [50,55).
        let t = tracer(&[
            (Op::EdgectlPacketIn, NONE, 0, 100),
            (Op::DockerState, 0, 10, 30),
            (Op::EdgectlScheduler, 0, 40, 70),
            (Op::DockerState, 2, 50, 55),
        ]);
        assert_eq!(t.self_times(), vec![50, 20, 25, 5]);
        let agg = t.aggregate();
        let of = |op| agg.iter().find(|s| s.op == op).unwrap();
        assert_eq!(of(Op::EdgectlPacketIn).self_ns, 50);
        assert_eq!(of(Op::EdgectlScheduler).self_ns, 25);
        assert_eq!(of(Op::DockerState).count, 2);
        assert_eq!(of(Op::DockerState).self_ns, 25);
        assert_eq!(of(Op::DockerState).mean_ns(), 12.5);
        // Self times of a tree sum to its root's duration.
        assert_eq!(t.self_times().iter().sum::<u64>(), 100);
        assert!(
            agg.iter().all(|s| s.op != Op::OvsHit),
            "uncalled ops are left out"
        );
    }

    #[test]
    fn recording_nests_renames_and_never_grows() {
        let mut t = Tracer::with_capacity(3);
        t.set_request(7);
        let outer = t.enter(Op::OvsHit);
        let inner = t.enter(Op::EdgectlPacketIn);
        t.exit(inner, None);
        t.exit(outer, Some(Op::OvsMiss));
        let sibling = t.enter(Op::OvsExpire);
        t.exit(sibling, None);
        let full = t.enter(Op::OvsHit);
        t.exit(full, None);
        assert_eq!(full, NONE);
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[0].op, Op::OvsMiss);
        assert_eq!(t.spans()[1].parent, 0);
        assert_eq!(t.spans()[2].parent, NONE);
        assert!(t
            .spans()
            .iter()
            .all(|s| s.request == 7 && s.end_ns >= s.start_ns));
        let json = t.trees_json("w", 8);
        assert!(json.contains("\"request\": 7"));
        assert!(json.contains("{\"id\": 1, \"op\": \"edgectl.packet_in\", \"parent\": 0,"));
    }

    #[test]
    fn thread_local_span_is_a_plain_call_without_a_tracer() {
        assert!(install(None).is_none());
        assert_eq!(span(Op::OvsHit, || 5), 5);
        install(Some(Tracer::with_capacity(4)));
        set_request(1);
        let v = span_as(
            Op::OvsHit,
            |v: &u32| (*v == 9).then_some(Op::OvsMiss),
            || span(Op::EdgectlPacketIn, || 9),
        );
        assert_eq!(v, 9);
        let t = install(None).expect("installed above");
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[0].op, Op::OvsMiss);
        assert_eq!(t.spans()[1].parent, 0);
    }

    #[test]
    fn op_names_are_unique_and_layered() {
        let mut names: Vec<&str> = Op::ALL.iter().map(|o| o.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Op::ALL.len());
        assert_eq!(Op::RegistryPull.layer(), "registry");
        for (i, op) in Op::ALL.into_iter().enumerate() {
            assert_eq!(op as usize, i, "ALL is in declaration order");
        }
    }
}
