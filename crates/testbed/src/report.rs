//! Plain-text rendering of experiment results: aligned tables, ASCII bar
//! charts, per-request span timelines and CSV export.

use desim::{fmt_duration, SimTime};
use std::fmt::Write as _;
use telemetry::{span_label, Span, SpanLog};

/// A simple column-aligned table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table from headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        let mut cells = cells;
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate().take(ncols) {
                if i > 0 {
                    out.push_str("  ");
                }
                let pad = widths[i] - c.chars().count();
                out.push_str(c);
                out.extend(std::iter::repeat_n(' ', pad));
            }
            // Trim trailing padding.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }

    /// Renders as CSV (no quoting needed for the emitted content).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for r in &self.rows {
            let _ = writeln!(out, "{}", r.join(","));
        }
        out
    }
}

/// Renders a horizontal ASCII bar chart. `values` are scaled so the longest
/// bar spans `width` characters.
pub fn bar_chart(labels: &[String], values: &[f64], width: usize, unit: &str) -> String {
    assert_eq!(labels.len(), values.len());
    let max = values.iter().copied().fold(0.0_f64, f64::max).max(1e-12);
    let lwidth = labels.iter().map(|l| l.chars().count()).max().unwrap_or(0);
    let mut out = String::new();
    for (l, &v) in labels.iter().zip(values) {
        let n = ((v / max) * width as f64).round() as usize;
        let pad = lwidth - l.chars().count();
        let _ = writeln!(
            out,
            "{}{}  {} {v:.3} {unit}",
            l,
            " ".repeat(pad),
            "█".repeat(n.max(if v > 0.0 { 1 } else { 0 })),
        );
    }
    out
}

/// Renders a per-second count series as a compact timeline, bucketing
/// `series` into at most `max_buckets` columns of `▁▂▃▄▅▆▇█` glyphs.
pub fn timeline(series: &[u64], max_buckets: usize) -> String {
    if series.is_empty() {
        return String::new();
    }
    let bucket = series.len().div_ceil(max_buckets);
    let sums: Vec<u64> = series
        .chunks(bucket)
        .map(|c| c.iter().sum::<u64>())
        .collect();
    let max = *sums.iter().max().unwrap_or(&1);
    const GLYPHS: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let mut out = String::new();
    for &s in &sums {
        let idx = if max == 0 {
            0
        } else {
            ((s as f64 / max as f64) * 8.0).ceil() as usize
        };
        out.push(GLYPHS[idx.min(8)]);
    }
    let _ = write!(
        out,
        "  (peak {max}/{}s bucket, total {})",
        bucket,
        series.iter().sum::<u64>()
    );
    out
}

/// Renders one request's span tree as an ASCII timeline: one line per span
/// (indented by tree depth, labelled via [`telemetry::span_label`] so the
/// duration formatting matches tables and error messages), followed by a
/// `width`-character gantt track mapping the span onto the request's
/// `[first start, last end]` interval. Point events render as `·` lines
/// under their span.
pub fn span_timeline(log: &SpanLog, request: u64, width: usize) -> String {
    let spans: Vec<&Span> = log.spans_for_request(request).collect();
    if spans.is_empty() {
        return format!("request {request}: no spans recorded\n");
    }
    let t0 = spans.iter().map(|s| s.start).min().unwrap();
    let t1 = spans
        .iter()
        .map(|s| s.end.unwrap_or(s.start))
        .max()
        .unwrap()
        .max(t0);
    let total = t1.saturating_since(t0);
    let by_id: std::collections::HashMap<u32, &Span> =
        spans.iter().map(|s| (s.id.0, *s)).collect();
    let depth_of = |s: &Span| {
        let mut d = 0usize;
        let mut p = s.parent;
        while let Some(ps) = by_id.get(&p.0) {
            d += 1;
            p = ps.parent;
        }
        d
    };
    let labels: Vec<String> = spans
        .iter()
        .map(|s| format!("{}{}", "  ".repeat(depth_of(s)), span_label(s)))
        .collect();
    let lwidth = labels.iter().map(|l| l.chars().count()).max().unwrap_or(0);
    let span_ns = u128::from(total.as_nanos()).max(1);
    let col = |at: SimTime| {
        (u128::from(at.saturating_since(t0).as_nanos()) * width as u128 / span_ns) as usize
    };
    let mut out = format!(
        "request {request}: {} span(s) over {}\n",
        spans.len(),
        fmt_duration(total)
    );
    for (s, label) in spans.iter().zip(&labels) {
        let from = col(s.start).min(width.saturating_sub(1));
        let to = s.end.map(col).unwrap_or(width).clamp(from + 1, width);
        let mut track = String::with_capacity(width);
        track.extend(std::iter::repeat_n(' ', from));
        track.extend(std::iter::repeat_n('█', to - from));
        track.extend(std::iter::repeat_n(' ', width - to));
        let pad = lwidth - label.chars().count();
        let _ = writeln!(out, "{label}{}  |{track}|", " ".repeat(pad));
        for e in &s.events {
            let _ = writeln!(
                out,
                "{}· {} @{} {}",
                "  ".repeat(depth_of(s) + 1),
                e.name,
                fmt_duration(e.at.saturating_since(SimTime::ZERO)),
                e.detail
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["Service", "Median [s]"]);
        t.row(vec!["asm".into(), "0.512".into()]);
        t.row(vec!["nginx-like-long".into(), "0.600".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("Service"));
        assert!(lines[1].starts_with("---"));
        assert_eq!(lines.len(), 4);
        // Columns align: "0.512" starts at the same offset in both data rows.
        let off = lines[2].find("0.512").unwrap();
        assert_eq!(lines[3].find("0.600").unwrap(), off);
    }

    #[test]
    fn table_csv() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new(&["a", "b", "c"]);
        t.row(vec!["1".into()]);
        assert_eq!(t.rows[0].len(), 3);
        t.render();
    }

    #[test]
    fn bar_chart_scales() {
        let s = bar_chart(
            &["a".into(), "bb".into()],
            &[1.0, 2.0],
            10,
            "s",
        );
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[1].contains(&"█".repeat(10)));
        assert!(lines[0].contains(&"█".repeat(5)));
        assert!(lines[0].contains("1.000 s"));
    }

    #[test]
    fn timeline_buckets() {
        let series: Vec<u64> = (0..300).map(|i| if i < 10 { 8 } else { 0 }).collect();
        let s = timeline(&series, 60);
        assert!(s.contains("total 80"));
        assert!(s.starts_with('█'));
    }

    fn traced_request() -> SpanLog {
        use telemetry::{SpanId, Telemetry};
        let mut t = Telemetry::recording();
        let root = t.span(1, SpanId::NONE, "request", SimTime::from_secs(1));
        let deploy = t.span(1, root, "deploy", SimTime::from_secs(1));
        let pull = t.span(1, deploy, "deploy-pull", SimTime::from_secs(1));
        t.event(pull, "retry", SimTime::from_millis(1500), || {
            "pull: injected fault".into()
        });
        t.end_span(pull, SimTime::from_secs(2));
        t.end_span(deploy, SimTime::from_millis(2500));
        t.end_span(root, SimTime::from_secs(3));
        t.into_span_log().unwrap()
    }

    #[test]
    fn span_timeline_renders_tree_tracks_and_events() {
        let log = traced_request();
        let s = span_timeline(&log, 1, 20);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "request 1: 3 span(s) over 2.000s");
        // Depth-indented labels share fmt_duration formatting.
        assert!(lines[1].starts_with("request @1.000s +2.000s"));
        assert!(lines[2].starts_with("  deploy @1.000s +1.500s"));
        assert!(lines[3].starts_with("    deploy-pull @1.000s +1.000s"));
        // The root track spans the full width; the pull track half of it.
        assert!(lines[1].contains(&format!("|{}|", "█".repeat(20))));
        assert!(lines[3].contains(&format!("|{}{}|", "█".repeat(10), " ".repeat(10))));
        // The retry event renders under its span.
        assert!(lines[4].contains("· retry @1.500s pull: injected fault"));
        // Gantt bars all align at the same column.
        let bar = lines[1].find('|').unwrap();
        assert_eq!(lines[2].find('|').unwrap(), bar);
        assert_eq!(lines[3].find('|').unwrap(), bar);
    }

    #[test]
    fn span_timeline_handles_missing_and_open_spans() {
        let log = SpanLog::new();
        assert_eq!(span_timeline(&log, 9, 10), "request 9: no spans recorded\n");
        use telemetry::{SpanId, Telemetry};
        let mut t = Telemetry::recording();
        t.span(2, SpanId::NONE, "request", SimTime::from_secs(1));
        let s = span_timeline(t.span_log().unwrap(), 2, 10);
        assert!(s.contains("(open)"), "{s}");
    }
}
