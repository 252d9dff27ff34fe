//! `telemetry` — sim-time observability for the transparent-edge stack.
//!
//! Two halves, both deterministic and both zero-cost when disabled:
//!
//! * **Tracing** ([`Span`], [`Event`], [`SpanLog`]): lightweight spans keyed
//!   by request id that record the full causal chain of one request —
//!   packet-in → FlowMemory lookup → scheduler decision → deploy phases
//!   (with retry attempts and injected faults) → flow install → response.
//!   A recording [`Telemetry`] keeps a [`SpanLog`] exportable as JSON; a
//!   disabled one keeps none, and every span and event call on it is a
//!   never-taken branch, so the instrumented code paths stay byte-identical
//!   when telemetry is off.
//! * **Metrics** ([`MetricsRegistry`]): named counters, gauges, and
//!   log-scale histograms (p50/p95/p99/max via [`desim::LogHistogram`])
//!   with point-in-time JSON snapshots — the `metrics:` block the `repro`
//!   binary emits.
//!
//! Timestamps are [`desim::SimTime`]: everything here observes the
//! simulation clock, never the wall clock, so traces are reproducible
//! run-to-run. Nothing in this crate draws randomness or influences
//! control flow — recording with telemetry on produces the exact same
//! simulation as running with it off.

#![warn(missing_docs)]

pub mod metrics;
pub mod trace;

pub use metrics::MetricsRegistry;
pub use trace::{span_label, Event, Span, SpanCheck, SpanId, SpanLog};

use desim::SimTime;

/// One telemetry endpoint: a span log (kept only while recording) plus a
/// metrics registry. Controllers own one and thread it through dispatch.
pub struct Telemetry {
    /// The recorded spans; `None` while tracing is disabled — the default,
    /// and what production and every default-configured test/experiment
    /// runs with. Recording is observational: it draws no randomness and
    /// alters no timing.
    spans: Option<SpanLog>,
    /// The always-on metrics registry. Recording a counter has no
    /// observable effect until a snapshot is printed, so metrics do not
    /// break the byte-identical-when-disabled guarantee.
    pub metrics: MetricsRegistry,
}

impl Telemetry {
    /// Telemetry with tracing disabled — the default.
    pub fn disabled() -> Self {
        Telemetry {
            spans: None,
            metrics: MetricsRegistry::new(),
        }
    }

    /// Telemetry that records spans into an in-memory [`SpanLog`].
    pub fn recording() -> Self {
        Telemetry {
            spans: Some(SpanLog::new()),
            metrics: MetricsRegistry::new(),
        }
    }

    /// `true` if spans are recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Opens a span. Returns [`SpanId::NONE`] when tracing is disabled.
    #[inline]
    pub fn span(&mut self, request: u64, parent: SpanId, name: &str, at: SimTime) -> SpanId {
        match &mut self.spans {
            Some(log) => log.open(request, parent, name, at),
            None => SpanId::NONE,
        }
    }

    /// Closes a span. No-op for [`SpanId::NONE`].
    #[inline]
    pub fn end_span(&mut self, span: SpanId, at: SimTime) {
        if let Some(log) = &mut self.spans {
            log.close(span, at);
        }
    }

    /// Records an event on a span. The `detail` closure only runs when
    /// tracing is enabled, so format strings cost nothing when disabled.
    #[inline]
    pub fn event(
        &mut self,
        span: SpanId,
        name: &str,
        at: SimTime,
        detail: impl FnOnce() -> String,
    ) {
        if let Some(log) = &mut self.spans {
            log.push_event(span, name, at, detail());
        }
    }

    /// The recorded span log, if one is kept.
    pub fn span_log(&self) -> Option<&SpanLog> {
        self.spans.as_ref()
    }

    /// Consumes the endpoint, returning the span log if one was recorded.
    pub fn into_span_log(self) -> Option<SpanLog> {
        self.spans
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled())
            .field("metrics", &self.metrics)
            .finish()
    }
}

/// Process-global metrics collection, used by `repro --telemetry`: every
/// finished testbed run merges its local registry here when collection is
/// enabled, and the binary prints one combined snapshot at the end.
pub mod global {
    use super::MetricsRegistry;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static REGISTRY: Mutex<Option<MetricsRegistry>> = Mutex::new(None);

    /// Turns global collection on (idempotent).
    pub fn enable() {
        ENABLED.store(true, Ordering::SeqCst);
    }

    /// `true` if global collection is on.
    pub fn enabled() -> bool {
        ENABLED.load(Ordering::SeqCst)
    }

    /// Merges a local registry into the global one. No-op unless
    /// [`enable`] was called.
    pub fn merge(local: &MetricsRegistry) {
        if !enabled() {
            return;
        }
        let mut guard = REGISTRY.lock().expect("global metrics poisoned");
        guard.get_or_insert_with(MetricsRegistry::new).merge(local);
    }

    /// JSON snapshot of everything merged so far (an empty registry if
    /// nothing was).
    pub fn snapshot_json() -> String {
        let guard = REGISTRY.lock().expect("global metrics poisoned");
        match guard.as_ref() {
            Some(r) => r.to_json(),
            None => MetricsRegistry::new().to_json(),
        }
    }

    /// Clears collected metrics and disables collection (test helper).
    pub fn reset() {
        ENABLED.store(false, Ordering::SeqCst);
        *REGISTRY.lock().expect("global metrics poisoned") = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::Duration;

    #[test]
    fn disabled_endpoint_records_nothing() {
        let mut t = Telemetry::disabled();
        assert!(!t.enabled());
        let s = t.span(0, SpanId::NONE, "request", SimTime::ZERO);
        assert_eq!(s, SpanId::NONE);
        let mut ran = false;
        t.event(s, "x", SimTime::ZERO, || {
            ran = true;
            String::new()
        });
        assert!(!ran, "detail closure must not run when disabled");
        t.end_span(s, SimTime::from_secs(1));
        assert!(t.span_log().is_none());
    }

    #[test]
    fn recording_endpoint_keeps_the_causal_chain() {
        let mut t = Telemetry::recording();
        assert!(t.enabled());
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

    #[test]
    fn global_merge_is_gated_on_enable() {
        global::reset();
        let mut m = MetricsRegistry::new();
        m.inc("requests_total");
        m.observe("response_ns", Duration::from_millis(3));
        global::merge(&m); // disabled: dropped
        assert!(!global::snapshot_json().contains("requests_total"));
        global::enable();
        global::merge(&m);
        global::merge(&m);
        let json = global::snapshot_json();
        assert!(json.contains("\"requests_total\": 2"), "{json}");
        global::reset();
    }
}
