//! Telemetry overhead measurement: what the instrumented call sites cost
//! when tracing is disabled (the production configuration), held against
//! the data-plane fast path they must not slow down.
//!
//! Like [`crate::fastpath`] this is plain `std` (no criterion) so the
//! `repro telemetry` subcommand can run it directly and emit a
//! machine-readable `telemetry-bench` line for CI. The acceptance number:
//! the full disabled span/event sequence of one request — what every
//! packet-in pays when telemetry is off — must cost **< 2%** of a single
//! warm hit through the full switch path, the cheapest operation on the
//! critical path.
//! (The switch itself contains no telemetry calls at all, so the fast path
//! proper is untouched by construction; this bench bounds the controller
//! side.)

use crate::fastpath::{loaded_switch, ns_per_op, src_ip, src_port};
use desim::SimTime;
use netsim::addr::{Ipv4Addr, MacAddr, ServiceAddr};
use netsim::TcpFrame;
use std::hint::black_box;
use telemetry::{SpanId, Telemetry};

/// Measured costs, all ns per operation.
#[derive(Clone, Copy, Debug)]
pub struct Report {
    /// Warm hit through the full switch path (parse, table lookup, actions
    /// in place) — the fast-path yardstick.
    pub switch_hit_ns: f64,
    /// One request's complete telemetry call sequence against the
    /// disabled endpoint (spans, events, closes — all never-taken
    /// branches; detail closures must not run).
    pub disabled_request_ns: f64,
    /// The same sequence against a recording tracer, for scale.
    pub recording_request_ns: f64,
}

impl Report {
    /// Disabled-telemetry cost as a percentage of one warm switch hit
    /// (want: < 2).
    pub fn overhead_pct(&self) -> f64 {
        self.disabled_request_ns / self.switch_hit_ns * 100.0
    }

    /// The machine-readable one-line form CI greps.
    pub fn summary_line(&self) -> String {
        format!(
            "telemetry-bench {{\"switch_hit_ns\":{:.1},\"disabled_request_ns\":{:.1},\
\"recording_request_ns\":{:.1},\"overhead_pct\":{:.3}}}",
            self.switch_hit_ns,
            self.disabled_request_ns,
            self.recording_request_ns,
            self.overhead_pct()
        )
    }

    /// Renders a human-readable summary.
    pub fn render(&self) -> String {
        format!(
            "warm switch hit        {:>8.1} ns/op\n\
             telemetry off/request  {:>8.1} ns/op\n\
             telemetry on/request   {:>8.1} ns/op\n\
             disabled overhead vs fast path {:.3}% (want < 2%)\n",
            self.switch_hit_ns,
            self.disabled_request_ns,
            self.recording_request_ns,
            self.overhead_pct()
        )
    }
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

/// Runs the measurement. Total runtime well under a second.
pub fn run() -> Report {
    // The yardstick: a warm hit through the full switch path on a
    // realistically loaded switch.
    let mut sw = loaded_switch(1_000);
    let frame = TcpFrame::syn(
        MacAddr::from_id(1),
        MacAddr::from_id(100),
        Ipv4Addr(src_ip(500)),
        src_port(500),
        ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80),
    )
    .encode();
    let switch_hit_ns = ns_per_op(100_000, |_| {
        black_box(sw.handle_frame(SimTime::ZERO, 1, black_box(&frame)));
    });

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

    Report {
        switch_hit_ns,
        disabled_request_ns,
        recording_request_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_line_shape_is_stable() {
        let r = Report {
            switch_hit_ns: 250.0,
            disabled_request_ns: 2.5,
            recording_request_ns: 500.0,
        };
        assert!((r.overhead_pct() - 1.0).abs() < 1e-9);
        let line = r.summary_line();
        assert!(line.starts_with("telemetry-bench {"));
        assert!(line.contains("\"overhead_pct\":1.000"), "{line}");
        assert!(r.render().contains("want < 2%"));
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
