//! Sim-time tracing: spans and events keyed by request id.
//!
//! A [`Span`] covers an interval of simulated time (packet-in handling, a
//! deploy phase, a port poll); an [`Event`] is a point annotation inside a
//! span (a retry attempt, an injected fault, a scheduler decision). Spans
//! form a per-request tree through their `parent` links; the whole forest
//! lives in a [`SpanLog`] that exports to JSON and is validated by
//! [`SpanLog::check`] (every span closed, no orphan parents).
//!
//! Span *end* timestamps may lie in the simulated future of the instant the
//! span was closed at — the controller knows at dispatch time when a held
//! request will be released, and closes the span with that instant. What is
//! guaranteed is that every span is closed exactly once.

use desim::{fmt_duration, SimTime};

/// Identifier of one span within one tracer. `NONE` (zero) means "no span"
/// — the parent of a root span, or any span handed out while tracing is off.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpanId(pub u32);

impl SpanId {
    /// The absent span.
    pub const NONE: SpanId = SpanId(0);

    /// `true` if this is a real span id.
    #[inline]
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

/// A point annotation inside a span.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// When the event happened.
    pub at: SimTime,
    /// Short machine-friendly name (`"retry"`, `"fault"`, `"decision"`).
    pub name: String,
    /// Free-form human-readable detail.
    pub detail: String,
}

/// One recorded span: an interval of simulated time attributed to a request.
#[derive(Clone, Debug)]
pub struct Span {
    /// This span's id (position + 1 in the log).
    pub id: SpanId,
    /// Parent span, or [`SpanId::NONE`] for a request root.
    pub parent: SpanId,
    /// The request this span belongs to.
    pub request: u64,
    /// Span name (`"request"`, `"deploy-pull"`, `"schedule"`, ...).
    pub name: String,
    /// When the span opened.
    pub start: SimTime,
    /// When the span closed; `None` while still open.
    pub end: Option<SimTime>,
    /// Point events recorded inside the span.
    pub events: Vec<Event>,
}

/// The result of validating a [`SpanLog`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanCheck {
    /// Total spans in the log.
    pub spans: usize,
    /// Spans never closed.
    pub(crate) unclosed: usize,
    /// Spans whose parent id does not exist or belongs to another request.
    pub(crate) orphans: usize,
}

impl SpanCheck {
    /// `true` if the log is well-formed.
    pub fn ok(&self) -> bool {
        self.unclosed == 0 && self.orphans == 0
    }

    /// The machine-readable one-line form CI greps
    /// (`span-check {"spans":N,"unclosed":0,"orphans":0}`).
    pub fn to_json_line(&self) -> String {
        format!(
            "span-check {{\"spans\":{},\"unclosed\":{},\"orphans\":{}}}",
            self.spans, self.unclosed, self.orphans
        )
    }
}

/// An append-only forest of spans, ordered by creation.
#[derive(Clone, Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// All spans, in creation order.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter()
    }

    /// The spans of one request, in creation order.
    pub fn spans_for_request(&self, request: u64) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.request == request)
    }

    /// Request ids present in the log, ascending and deduplicated.
    pub fn request_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.spans.iter().map(|s| s.request).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Validates the log: every span closed, every parent existing and on
    /// the same request.
    pub fn check(&self) -> SpanCheck {
        let mut unclosed = 0;
        let mut orphans = 0;
        for s in &self.spans {
            if s.end.is_none() {
                unclosed += 1;
            }
            if s.parent.is_some() {
                match self.spans.get(s.parent.0 as usize - 1) {
                    Some(p) if p.request == s.request => {}
                    _ => orphans += 1,
                }
            }
        }
        SpanCheck {
            spans: self.spans.len(),
            unclosed,
            orphans,
        }
    }

    /// What CI requires of an exported log beyond [`SpanLog::check`]: it is
    /// not empty, no span is still open (so [`SpanLog::to_json`] carries no
    /// `"end_ns":null`) and, when `must_include` names one, some span has
    /// that name — the run really took that path.
    pub fn check_export(&self, must_include: Option<&str>) -> Result<(), String> {
        if self.spans.is_empty() {
            return Err("span export is empty".to_owned());
        }
        if let Some(open) = self.spans.iter().find(|s| s.end.is_none()) {
            return Err(format!(
                "open span in export: `{}` (id {})",
                open.name, open.id.0
            ));
        }
        match must_include {
            Some(name) if !self.spans.iter().any(|s| s.name == name) => {
                Err(format!("no `{name}` span in export"))
            }
            _ => Ok(()),
        }
    }

    /// Exports the whole log as a JSON array (one object per span), on a
    /// single line so it can be grepped out of mixed output. Times are raw
    /// nanoseconds; an open span's `end_ns` is `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.id.0,
                s.parent.0,
                s.request,
                json_escape(&s.name),
                s.start.as_nanos(),
                match s.end {
                    Some(e) => e.as_nanos().to_string(),
                    None => "null".to_owned(),
                }
            ));
            out.push_str(",\"events\":[");
            for (j, e) in s.events.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"at_ns\":{},\"name\":\"{}\",\"detail\":\"{}\"}}",
                    e.at.as_nanos(),
                    json_escape(&e.name),
                    json_escape(&e.detail)
                ));
            }
            out.push_str("]}");
        }
        out.push(']');
        out
    }
}

/// Where a [`crate::Telemetry`] puts its spans: [`Off`] drops them at
/// compile time, [`SpanLog`] keeps them. Chosen once, as a type, per run.
pub trait Spans: Default {
    /// Opens a span of `request` under `parent`; its id, or
    /// [`SpanId::NONE`] when nothing is recorded.
    fn open(&mut self, request: u64, parent: SpanId, name: &str, at: SimTime) -> SpanId;
    /// Closes `span` at `at`. No-op for [`SpanId::NONE`].
    fn close(&mut self, span: SpanId, at: SimTime);
    /// Records an event on `span`; `detail` runs only when it is recorded.
    fn event(&mut self, span: SpanId, name: &str, at: SimTime, detail: impl FnOnce() -> String);
    /// The recorded log, if one is kept.
    fn log(&self) -> Option<&SpanLog>;
    /// The recorded log, if one is kept, by value.
    fn into_log(self) -> Option<SpanLog>;
}

/// The recorder that records nothing: zero-sized, with every method an
/// empty inline body, so a controller or harness built with it contains no
/// span code after compilation and never runs a `detail` closure.
#[derive(Clone, Copy, Debug, Default)]
pub struct Off;

impl Spans for Off {
    #[inline(always)]
    fn open(&mut self, _: u64, _: SpanId, _: &str, _: SimTime) -> SpanId {
        SpanId::NONE
    }
    #[inline(always)]
    fn close(&mut self, _: SpanId, _: SimTime) {}
    #[inline(always)]
    fn event(&mut self, _: SpanId, _: &str, _: SimTime, _: impl FnOnce() -> String) {}
    #[inline(always)]
    fn log(&self) -> Option<&SpanLog> {
        None
    }
    #[inline(always)]
    fn into_log(self) -> Option<SpanLog> {
        None
    }
}

impl Spans for SpanLog {
    fn open(&mut self, request: u64, parent: SpanId, name: &str, at: SimTime) -> SpanId {
        let id = SpanId(self.spans.len() as u32 + 1);
        self.spans.push(Span {
            id,
            parent,
            request,
            name: name.to_owned(),
            start: at,
            end: None,
            events: Vec::new(),
        });
        id
    }

    fn close(&mut self, span: SpanId, at: SimTime) {
        if !span.is_some() {
            return;
        }
        let s = &mut self.spans[span.0 as usize - 1];
        debug_assert!(s.end.is_none(), "span {} ({}) closed twice", s.id.0, s.name);
        s.end = Some(at);
    }

    fn event(&mut self, span: SpanId, name: &str, at: SimTime, detail: impl FnOnce() -> String) {
        if !span.is_some() {
            return;
        }
        self.spans[span.0 as usize - 1].events.push(Event {
            at,
            name: name.to_owned(),
            detail: detail(),
        });
    }

    fn log(&self) -> Option<&SpanLog> {
        Some(self)
    }

    fn into_log(self) -> Option<SpanLog> {
        Some(self)
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders one span line for timelines: `name start +duration`.
/// (The full per-request timeline renderer lives in `testbed::report`,
/// which owns all ASCII layout; this helper keeps the duration formatting
/// shared with tables and errors via [`desim::fmt_duration`].)
pub fn span_label(s: &Span) -> String {
    match s.end {
        Some(end) => format!(
            "{} @{} +{}",
            s.name,
            fmt_duration(s.start.saturating_since(SimTime::ZERO)),
            fmt_duration(end.saturating_since(s.start)),
        ),
        None => format!(
            "{} @{} (open)",
            s.name,
            fmt_duration(s.start.saturating_since(SimTime::ZERO)),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> SpanLog {
        let mut t = SpanLog::default();
        let r0 = t.open(0, SpanId::NONE, "request", SimTime::from_secs(1));
        let d = t.open(0, r0, "deploy-pull", SimTime::from_secs(1));
        t.event(d, "retry", SimTime::from_millis(1200), || {
            "pull: fault".into()
        });
        t.close(d, SimTime::from_secs(2));
        t.close(r0, SimTime::from_secs(2));
        let r1 = t.open(1, SpanId::NONE, "request", SimTime::from_secs(3));
        t.close(r1, SimTime::from_secs(3));
        t
    }

    #[test]
    fn check_passes_on_well_formed_log() {
        let log = sample_log();
        let c = log.check();
        assert!(c.ok());
        assert_eq!(c.spans, 3);
        assert_eq!(log.request_ids(), vec![0, 1]);
        assert_eq!(log.spans_for_request(0).count(), 2);
        assert_eq!(
            c.to_json_line(),
            "span-check {\"spans\":3,\"unclosed\":0,\"orphans\":0}"
        );
    }

    #[test]
    fn check_flags_unclosed_and_orphans() {
        let mut t = SpanLog::default();
        let r = t.open(0, SpanId::NONE, "request", SimTime::ZERO);
        // Parent id 99 does not exist.
        t.open(0, SpanId(99), "deploy", SimTime::ZERO);
        // Parent exists but belongs to another request.
        let cross = t.open(1, r, "deploy", SimTime::ZERO);
        t.close(cross, SimTime::ZERO);
        let c = t.check();
        assert!(!c.ok());
        assert_eq!(c.unclosed, 2); // r and the orphan are still open
        assert_eq!(c.orphans, 2);
    }

    #[test]
    fn export_check_rejects_empty_open_and_missing_spans() {
        let log = sample_log();
        assert_eq!(log.check_export(None), Ok(()));
        assert_eq!(log.check_export(Some("deploy-pull")), Ok(()));
        let e = log.check_export(Some("pull")).unwrap_err();
        assert!(e.contains("no `pull` span"), "the whole name, not its tail: {e}");
        let e = log.check_export(Some("handover")).unwrap_err();
        assert!(e.contains("no `handover` span"), "{e}");
        let e = SpanLog::default().check_export(None).unwrap_err();
        assert!(e.contains("empty"), "{e}");
        let mut t = SpanLog::default();
        let done = t.open(0, SpanId::NONE, "handover", SimTime::ZERO);
        t.close(done, SimTime::ZERO);
        t.open(1, SpanId::NONE, "request", SimTime::ZERO);
        let e = t.check_export(Some("handover")).unwrap_err();
        assert!(e.contains("open span") && e.contains("request"), "{e}");
    }

    #[test]
    fn json_export_is_one_line_and_escaped() {
        let mut t = SpanLog::default();
        let s = t.open(0, SpanId::NONE, "request", SimTime::from_millis(5));
        t.event(s, "fault", SimTime::from_millis(6), || {
            "say \"no\"\n".into()
        });
        t.close(s, SimTime::from_millis(7));
        let json = t.to_json();
        assert!(!json.contains('\n'));
        assert!(json.contains("\"start_ns\":5000000"));
        assert!(json.contains("say \\\"no\\\"\\n"));
        // An open span exports end_ns:null.
        let mut t2 = SpanLog::default();
        t2.open(0, SpanId::NONE, "request", SimTime::ZERO);
        assert!(t2.to_json().contains("\"end_ns\":null"));
    }

    #[test]
    fn span_label_uses_shared_duration_formatting() {
        let log = sample_log();
        let spans: Vec<_> = log.spans().collect();
        assert_eq!(span_label(spans[0]), "request @1.000s +1.000s");
        let mut open = spans[2].clone();
        open.end = None;
        assert_eq!(span_label(&open), "request @3.000s (open)");
    }
}
