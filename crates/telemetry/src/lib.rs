//! `telemetry` — sim-time observability for the transparent-edge stack.
//!
//! Two halves, both deterministic:
//!
//! * **Tracing** ([`Span`], [`Event`], [`SpanLog`]): lightweight spans keyed
//!   by request id that record the full causal chain of one request —
//!   packet-in → FlowMemory lookup → scheduler decision → deploy phases
//!   (with retry attempts and injected faults) → flow install → response.
//!   The recorder is a type parameter ([`Spans`]): a [`Telemetry<SpanLog>`]
//!   keeps a log exportable as JSON; the default [`Telemetry<Off>`] is
//!   zero-sized on the span side and its every method is an empty inline
//!   body, so code built with spans off contains no span code at all.
//! * **Metrics** ([`MetricsRegistry`]): named counters, gauges, and
//!   log-scale histograms (p50/p95/p99/max via [`desim::LogHistogram`])
//!   with point-in-time JSON snapshots — the `metrics:` block the `repro`
//!   binary emits.
//!
//! Timestamps are [`desim::SimTime`]: everything here observes the
//! simulation clock, never the wall clock, so traces are reproducible
//! run-to-run. Nothing in this crate draws randomness or influences
//! control flow — recording with spans on produces the exact same
//! simulation as running with them off.

#![warn(missing_docs)]

pub mod metrics;
pub mod trace;

pub use metrics::MetricsRegistry;
pub use trace::{span_label, Off, Span, SpanId, SpanLog, Spans};

use desim::SimTime;
use std::mem::size_of;

/// One telemetry endpoint: a span recorder `S` plus a metrics registry.
/// Controllers own one and thread it through dispatch.
#[derive(Debug, Default)]
pub struct Telemetry<S: Spans = Off> {
    /// [`Off`] (the default, what every run without `--telemetry` uses) or
    /// a [`SpanLog`]; recording draws no randomness and alters no timing.
    spans: S,
    /// The always-on metrics registry. Recording a counter has no
    /// observable effect until a snapshot is printed.
    pub metrics: MetricsRegistry,
}

// Spans off are free by construction: no bytes in the recorder, none added
// to the endpoint. A recorder that grows a field fails the build here.
const _: () = assert!(size_of::<Off>() == 0);
const _: () = assert!(size_of::<Telemetry<Off>>() == size_of::<MetricsRegistry>());

impl<S: Spans> Telemetry<S> {
    /// Opens a span. Returns [`SpanId::NONE`] when spans are off.
    pub fn span(&mut self, request: u64, parent: SpanId, name: &str, at: SimTime) -> SpanId {
        self.spans.open(request, parent, name, at)
    }

    /// Closes a span. No-op for [`SpanId::NONE`].
    pub fn end_span(&mut self, span: SpanId, at: SimTime) {
        self.spans.close(span, at);
    }

    /// Records an event on a span. The `detail` closure only runs when
    /// spans are recorded, so format strings cost nothing when off.
    pub fn event(
        &mut self,
        span: SpanId,
        name: &str,
        at: SimTime,
        detail: impl FnOnce() -> String,
    ) {
        self.spans.event(span, name, at, detail);
    }

    /// The recorded span log, if one is kept.
    pub fn span_log(&self) -> Option<&SpanLog> {
        self.spans.log()
    }

    /// Consumes the endpoint, returning the span log if one was recorded.
    pub fn into_span_log(self) -> Option<SpanLog> {
        self.spans.into_log()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_endpoint_keeps_the_causal_chain() {
        let mut t = Telemetry::<SpanLog>::default();
        let root = t.span(7, SpanId::NONE, "request", SimTime::from_secs(1));
        let child = t.span(7, root, "deploy", SimTime::from_secs(1));
        t.event(child, "retry", SimTime::from_millis(1500), || "pull failed".into());
        t.end_span(child, SimTime::from_secs(2));
        t.end_span(root, SimTime::from_secs(2));
        let log = t.span_log().unwrap();
        let check = log.check();
        assert_eq!((check.spans, check.unclosed, check.orphans), (2, 0, 0));
        let spans: Vec<_> = log.spans().collect();
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[1].events[0].detail, "pull failed");
    }
}
