//! Telemetry overhead measurement: what the instrumented call sites cost
//! when tracing is disabled (the production configuration), held against
//! the data-plane fast path they must not slow down.
//!
//! Run by `repro telemetry`, which prints a machine-readable
//! `telemetry-bench` line and writes no artifact. The acceptance number:
//! the full disabled span/event sequence of one request — what every
//! packet-in pays when telemetry is off — must cost **< 2%** of a single
//! warm hit through the full switch path, the cheapest operation on the
//! critical path, timed as [`crate::fastpath`] times it.
//! (The switch itself contains no telemetry calls at all, so the fast path
//! proper is untouched by construction; this bench bounds the controller
//! side.)

use crate::fastpath::{ns_per_op, switch_hit};
use desim::SimTime;
use std::hint::black_box;
use telemetry::{SpanId, Telemetry};

/// Flows on the yardstick's switch: a realistically loaded table.
const YARDSTICK_FLOWS: usize = 1_000;

/// The machine-readable `telemetry-bench` line CI greps, and the overhead
/// it reports: disabled-telemetry cost as a percentage of one warm switch
/// hit (want: < 2). The costs are ns per operation: a warm hit through the
/// full switch path (parse, table lookup, actions in place) — the fast-path
/// yardstick; one request's complete telemetry call sequence against the
/// disabled endpoint (spans, events, closes — all never-taken branches;
/// detail closures must not run); and the same sequence against a recording
/// tracer, for scale.
fn summary(
    switch_hit_ns: f64,
    disabled_request_ns: f64,
    recording_request_ns: f64,
) -> (String, f64) {
    let overhead_pct = disabled_request_ns / switch_hit_ns * 100.0;
    let line = format!(
        "telemetry-bench {{\"switch_hit_ns\":{switch_hit_ns:.1},\"disabled_request_ns\":{disabled_request_ns:.1},\
\"recording_request_ns\":{recording_request_ns:.1},\"overhead_pct\":{overhead_pct:.3}}}"
    );
    (line, overhead_pct)
}

/// One request's worth of telemetry calls, mirroring the controller's
/// instrumentation of a memory-hit packet-in (root span, packet-in event,
/// schedule child span, flow-install event, close).
fn request_sequence(tele: &mut Telemetry, k: usize, now: SimTime) {
    let root = tele.span(k as u64, SpanId::NONE, "request", now);
    tele.event(root, "packet-in", now, || format!("client=10.0.0.{k}"));
    let sched = tele.span(k as u64, root, "schedule", now);
    tele.event(sched, "decision", now, || "fast=Some(0) best=None".into());
    tele.end_span(sched, now);
    tele.event(root, "flow-install", now, || "MemoryHit: 2 message(s)".into());
    tele.end_span(root, now);
    black_box(root);
}

/// Runs the measurement and returns its `telemetry-bench` line and overhead
/// percentage. Total runtime well under a second.
pub fn run() -> (String, f64) {
    let (switch_hit_ns, _) = switch_hit(YARDSTICK_FLOWS, 100_000);

    let now = SimTime::from_secs(1);
    let mut disabled = Telemetry::disabled();
    let disabled_request_ns = ns_per_op(1_000_000, |k| request_sequence(&mut disabled, k, now));
    assert!(
        disabled.metrics.is_empty() && disabled.span_log().is_none(),
        "disabled endpoint must record nothing"
    );

    // Recording, for scale (bounded iterations: the log is kept in memory).
    let mut recording = Telemetry::recording();
    let recording_request_ns = ns_per_op(100_000, |k| request_sequence(&mut recording, k, now));

    summary(switch_hit_ns, disabled_request_ns, recording_request_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_line_shape_is_stable() {
        let (line, overhead_pct) = summary(250.0, 2.5, 500.0);
        assert!((overhead_pct - 1.0).abs() < 1e-9);
        assert_eq!(
            line,
            "telemetry-bench {\"switch_hit_ns\":250.0,\"disabled_request_ns\":2.5,\
             \"recording_request_ns\":500.0,\"overhead_pct\":1.000}"
        );
    }

    #[test]
    fn the_yardstick_times_a_switch_hit() {
        let (_, effects) = switch_hit(YARDSTICK_FLOWS, 2);
        assert!(matches!(effects[..], [ovs::Effect::Forward { port: 2, .. }]), "{effects:?}");
    }

    #[test]
    fn disabled_sequence_is_pure() {
        let mut tele = Telemetry::disabled();
        request_sequence(&mut tele, 3, SimTime::ZERO);
        assert!(tele.metrics.is_empty());
        assert!(tele.span_log().is_none());
        let mut rec = Telemetry::recording();
        request_sequence(&mut rec, 3, SimTime::ZERO);
        let log = rec.span_log().unwrap();
        assert_eq!(log.len(), 2);
        assert!(log.check().ok());
    }
}
