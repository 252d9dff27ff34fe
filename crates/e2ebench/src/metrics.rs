//! The benchmark's metric definitions: names, units, clocks, directions and
//! regression bounds. `BENCHMARK.json` at the repository root lists the same
//! names; a test keeps the two in step.

/// Which clock a metric reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Wall time or memory of the host: noisy, reduced over repetitions.
    Host,
    /// A count made by the program: repeats exactly for a seed.
    Count,
    /// Simulated time as the modelled clients see it: repeats exactly.
    Sim,
}

impl Clock {
    /// Lowercase label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Count => "count",
            Clock::Sim => "sim",
        }
    }
}

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// Lowercase label, as in `BENCHMARK.json`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Clock the metric reads.
    pub clock: Clock,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's value by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
    /// Every repetition of one seed must report the identical value. True
    /// of sim time and event counts. Not of heap traffic: std's `HashMap`
    /// seeds its hasher per process, tombstones land elsewhere, tables grow
    /// at other moments, and the counts move in the fourth digit while
    /// `sim_digest` stays put.
    pub exact: bool,
    /// One-line definition.
    pub what: &'static str,
}

/// The end-to-end metrics, the same on every workload.
///
/// `failed_share` is not in this list: it is 0 on every accepted run, and
/// the driver's contract wants metrics that are never 0. It is printed by
/// `run` and reaches the driver as `failed` / `attempted`.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        clock: Clock::Host,
        better: Better::Higher,
        bound: 0.25,
        exact: false,
        what: "operations completed / wall seconds of the timed run region",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        clock: Clock::Host,
        better: Better::Lower,
        bound: 0.25,
        exact: false,
        what: "trace generation + testbed construction + registration/pre-deploy + scheduling",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        clock: Clock::Host,
        better: Better::Lower,
        bound: 0.10,
        exact: false,
        what: "VmHWM of the repetition's process",
    },
    EndToEnd {
        name: "allocs_per_op",
        unit: "1",
        clock: Clock::Count,
        better: Better::Lower,
        bound: 0.05,
        exact: false,
        what: "heap calls in the timed region / operations",
    },
    EndToEnd {
        name: "alloc_bytes_per_op",
        unit: "B",
        clock: Clock::Count,
        better: Better::Lower,
        bound: 0.05,
        exact: false,
        what: "heap bytes requested in the timed region / operations",
    },
    EndToEnd {
        name: "sim_events_per_op",
        unit: "1",
        clock: Clock::Count,
        better: Better::Lower,
        bound: 0.25,
        exact: true,
        what: "simulation events processed / operations",
    },
    EndToEnd {
        name: "sim_latency_p50_ms",
        unit: "ms",
        clock: Clock::Sim,
        better: Better::Lower,
        bound: 0.03,
        exact: true,
        what: "median client-visible latency of the operation",
    },
    EndToEnd {
        name: "sim_latency_p99_ms",
        unit: "ms",
        clock: Clock::Sim,
        better: Better::Lower,
        bound: 0.10,
        exact: true,
        what: "99th percentile of the same",
    },
];

/// The per-layer metrics of the traced run: `(name, unit, better)`. `*_ns`
/// are mean self time per call; the rest are counts or ratios read at the
/// same boundary. A metric whose layer a workload never enters reads 0.
pub const PER_LAYER: [(&str, &str, Better); 48] = [
    ("desim.schedule_ns", "ns", Better::Lower),
    ("desim.pop_ns", "ns", Better::Lower),
    ("desim.peak_pending", "count", Better::Lower),
    ("netsim.encode_ns", "ns", Better::Lower),
    ("netsim.decode_ns", "ns", Better::Lower),
    ("netsim.frames_per_op", "1", Better::Lower),
    ("netsim.wire_bytes_per_op", "B", Better::Lower),
    ("netsim.allocs_per_frame", "1", Better::Lower),
    ("ovs.hit_ns", "ns", Better::Lower),
    ("ovs.miss_ns", "ns", Better::Lower),
    ("ovs.flowmod_ns", "ns", Better::Lower),
    ("ovs.expire_ns_per_flow", "ns", Better::Lower),
    ("ovs.miss_share", "1", Better::Lower),
    ("ovs.microflow_hit_rate", "1", Better::Higher),
    ("ovs.table_flows_peak", "count", Better::Lower),
    ("openflow.encode_ns", "ns", Better::Lower),
    ("openflow.decode_ns", "ns", Better::Lower),
    ("openflow.msgs_per_op", "1", Better::Lower),
    ("openflow.bytes_per_op", "B", Better::Lower),
    ("edgectl.packet_in_ns", "ns", Better::Lower),
    ("edgectl.flow_removed_ns", "ns", Better::Lower),
    ("edgectl.tick_ns", "ns", Better::Lower),
    ("edgectl.handover_ns", "ns", Better::Lower),
    ("edgectl.scheduler_ns", "ns", Better::Lower),
    ("edgectl.memory_hit_rate", "1", Better::Higher),
    ("edgectl.waited_share", "1", Better::Lower),
    ("edgectl.msgs_out_per_packet_in", "1", Better::Lower),
    ("edgectl.allocs_per_packet_in", "1", Better::Lower),
    ("telemetry.bump_ns", "ns", Better::Lower),
    ("telemetry.observe_ns", "ns", Better::Lower),
    ("telemetry.allocs_per_bump", "1", Better::Lower),
    ("telemetry.bumps_per_op", "1", Better::Lower),
    ("k8ssim.state_ns", "ns", Better::Lower),
    ("k8ssim.scale_up_ns", "ns", Better::Lower),
    ("k8ssim.scale_down_ns", "ns", Better::Lower),
    ("k8ssim.state_calls_per_op", "1", Better::Lower),
    ("k8ssim.pods_total", "count", Better::Lower),
    ("dockersim.state_ns", "ns", Better::Lower),
    ("dockersim.scale_up_ns", "ns", Better::Lower),
    ("dockersim.scale_down_ns", "ns", Better::Lower),
    ("containerd.create_ns", "ns", Better::Lower),
    ("registry.pull_ns", "ns", Better::Lower),
    ("registry.layer_cache_hit_rate", "1", Better::Higher),
    ("workload.generate_ns_per_req", "ns", Better::Lower),
    ("mobility.ns_per_event", "ns", Better::Lower),
    ("testbed.ns_per_event", "ns", Better::Lower),
    ("testbed.residual_share", "1", Better::Lower),
    ("trace.overhead_share", "1", Better::Lower),
];

/// What the driver runs; it appends `--workload W --seed N --seconds S
/// --trace 0|1`.
pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "-p",
    "e2ebench",
    "--",
    "measure",
];

/// Wall seconds of repetitions one driver run measures for.
pub const RUN_SECONDS: u32 = 25;

/// The contents of `BENCHMARK.json`: this crate's definitions in the
/// driver's schema. A test keeps the committed file equal to it.
pub fn manifest() -> String {
    let quoted = |items: &[&str]| {
        let q: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
        q.join(", ")
    };
    let workloads: Vec<String> = crate::workloads::Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.label(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better.label()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"crates/e2ebench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(&COMMAND),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

/// Renders a number for a JSON value or a table cell: all its digits,
/// never `NaN` or `inf` (JSON has neither).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// One reported metric: `(name, value, unit)`.
pub type Reading = (String, f64, &'static str);

/// Renders the driver's result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Reading]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(
            true,
            10,
            0,
            &[
                ("a_ms".to_owned(), 1.25, "ms"),
                ("b".to_owned(), f64::NAN, "1"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 0, \"unit\": \"1\"}}}"
        );
        assert!(!line.contains('\n'));
    }

    /// `BENCHMARK.json` at the repository root is generated from this crate
    /// (`e2ebench manifest`); the two may not drift apart.
    #[test]
    fn benchmark_json_is_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `e2ebench manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_are_unique_and_bounds_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len());
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        let mut layer: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        layer.sort_unstable();
        layer.dedup();
        assert_eq!(layer.len(), PER_LAYER.len());
        let well_formed = |name: &str| {
            name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        assert!(names.iter().chain(&layer).all(|n| well_formed(n)));
    }
}
