//! The metrics registry: named counters, gauges, and log-scale histograms.
//!
//! Names are dot-separated lowercase with a `_total` suffix for counters
//! and a `_ns` suffix for duration histograms (`deploy_pull_ns`,
//! `cluster_load.edge-docker`). The registry is always on — recording is a
//! hash-map bump with no observable output — and a point-in-time snapshot
//! renders as the deterministic JSON `metrics:` block `repro` emits
//! (BTreeMap iteration keeps key order stable run-to-run).

use desim::{Duration, LogHistogram};
use std::collections::BTreeMap;

/// A registry of counters, gauges, and histograms.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, LogHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Increments counter `name` by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Increments counter `name` by `n` (creating it at zero first). The
    /// key is allocated on first sight only; every later bump is a lookup
    /// and an integer add.
    pub fn add(&mut self, name: &str, n: u64) {
        match self.counters.get_mut(name) {
            Some(v) => *v += n,
            None => {
                self.counters.insert(name.to_owned(), n);
            }
        }
    }

    /// Current value of counter `name` (zero if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name` to `value` (last write wins).
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        match self.gauges.get_mut(name) {
            Some(v) => *v = value,
            None => {
                self.gauges.insert(name.to_owned(), value);
            }
        }
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records `d` into histogram `name`.
    pub fn observe(&mut self, name: &str, d: Duration) {
        match self.hists.get_mut(name) {
            Some(h) => h.record_duration(d),
            None => {
                let mut h = LogHistogram::default();
                h.record_duration(d);
                self.hists.insert(name.to_owned(), h);
            }
        }
    }

    /// The histogram behind `name`, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.hists.get(name)
    }

    /// `true` if nothing was recorded at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Renders the snapshot as pretty-printed JSON: counters and gauges as
    /// flat maps, each histogram as `{count, p50_ms, p95_ms, p99_ms,
    /// max_ms, mean_ms}` (milliseconds with microsecond precision, the
    /// natural unit for deploy phases and response times).
    pub fn to_json(&self) -> String {
        fn ms(ns: u64) -> f64 {
            ns as f64 / 1e6
        }
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!("    \"{k}\": {v}"));
        }
        if !self.counters.is_empty() {
            out.push('\n');
        }
        out.push_str("  },\n  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!("    \"{k}\": {v:.6}"));
        }
        if !self.gauges.is_empty() {
            out.push('\n');
        }
        out.push_str("  },\n  \"histograms\": {");
        for (i, (k, h)) in self.hists.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    \"{k}\": {{\"count\": {}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \
                 \"p99_ms\": {:.3}, \"max_ms\": {:.3}, \"mean_ms\": {:.3}}}",
                h.count(),
                ms(h.percentile(50.0).unwrap_or(0)),
                ms(h.percentile(95.0).unwrap_or(0)),
                ms(h.percentile(99.0).unwrap_or(0)),
                ms(h.max().unwrap_or(0)),
                h.mean().unwrap_or(0.0) / 1e6,
            ));
        }
        if !self.hists.is_empty() {
            out.push('\n');
        }
        out.push_str("  }\n}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let mut m = MetricsRegistry::new();
        assert!(m.is_empty());
        m.inc("requests_total");
        m.add("requests_total", 2);
        m.set_gauge("layer_cache_hit_rate", 0.75);
        m.observe("deploy_pull_ns", Duration::from_millis(120));
        m.observe("deploy_pull_ns", Duration::from_millis(480));
        assert_eq!(m.counter("requests_total"), 3);
        assert_eq!(m.counter("never_touched"), 0);
        assert_eq!(m.gauge("layer_cache_hit_rate"), Some(0.75));
        assert_eq!(m.histogram("deploy_pull_ns").unwrap().count(), 2);
        assert!(!m.is_empty());
    }

    #[test]
    fn a_histogram_reads_no_lower_than_its_smallest_observation() {
        let mut m = MetricsRegistry::new();
        for _ in 0..10 {
            m.observe("lat_ns", Duration::from_nanos(1_000));
        }
        let h = m.histogram("lat_ns").unwrap();
        assert_eq!(h.min(), Some(1_000));
        assert_eq!(h.percentile(50.0), Some(1_000));
    }

    #[test]
    fn json_snapshot_is_deterministic_and_sorted() {
        let mut m = MetricsRegistry::new();
        m.inc("z_total");
        m.inc("a_total");
        m.set_gauge("rate", 0.5);
        m.observe("lat_ns", Duration::from_micros(250));
        let j1 = m.to_json();
        let j2 = m.to_json();
        assert_eq!(j1, j2);
        let a = j1.find("\"a_total\"").unwrap();
        let z = j1.find("\"z_total\"").unwrap();
        assert!(a < z, "keys must be sorted");
        assert!(j1.contains("\"rate\": 0.500000"));
        assert!(j1.contains("\"count\": 1"));
        assert!(j1.contains("\"p50_ms\": 0.2"));
        // Empty registry still renders a valid skeleton.
        assert_eq!(
            MetricsRegistry::new().to_json(),
            "{\n  \"counters\": {  },\n  \"gauges\": {  },\n  \"histograms\": {  }\n}"
        );
    }
}
