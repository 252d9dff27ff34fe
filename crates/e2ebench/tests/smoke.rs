//! Runs the real binary end to end at the `--smoke` size, the way the
//! driver runs it, and checks that every metric `BENCHMARK.json` names is
//! in the result with a finite value.

use e2ebench::metrics::{END_TO_END, PER_LAYER};
use e2ebench::workloads::Workload;
use std::process::Command;

/// Runs `e2ebench measure … --smoke` and returns the result line.
fn measure(workload: Workload, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args([
            "measure",
            "--workload",
            workload.name(),
            "--seed",
            "3",
            "--seconds",
            "0",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        // Span trees go under the build directory, not into the package.
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the e2ebench binary runs");
    assert!(
        out.status.success(),
        "{} exited with {}",
        workload.name(),
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_owned()
}

/// The number printed for `name` in a result line.
fn value_of(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing from {line}"));
    let rest = &line[at + key.len()..];
    let end = rest.find(',').expect("a unit follows the value");
    rest[..end]
        .parse()
        .unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn every_end_to_end_metric_is_reported_on_every_workload() {
    for w in Workload::ALL {
        let line = measure(w, false);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": ")
                && line.contains("\"failed\": 0,"),
            "{}: {line}",
            w.name()
        );
        for def in &END_TO_END {
            let v = value_of(&line, def.name);
            assert!(v.is_finite() && v > 0.0, "{} {} = {v}", w.name(), def.name);
        }
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
    }
}

#[test]
fn every_per_layer_metric_is_reported_on_every_workload() {
    for w in Workload::ALL {
        let line = measure(w, true);
        assert!(
            line.starts_with("{\"correct\": true, "),
            "{}: {line}",
            w.name()
        );
        for (name, _, _) in &PER_LAYER {
            assert!(value_of(&line, name).is_finite(), "{} {name}", w.name());
        }
        assert_eq!(line.matches("\"unit\"").count(), PER_LAYER.len());
        // The layers a workload is built around are the ones that show.
        let misses = value_of(&line, "ovs.miss_share");
        match w {
            Workload::FlowChurn => assert!(misses >= 0.15, "flow_churn misses {misses}"),
            Workload::BulkTransfer => assert!(misses <= 0.05, "bulk_transfer misses {misses}"),
            Workload::DeployChurn => {
                assert!(value_of(&line, "k8ssim.scale_up_ns") > 0.0);
                assert!(value_of(&line, "edgectl.waited_share") > 0.0);
            }
            Workload::HandoverStorm => assert!(value_of(&line, "edgectl.handover_ns") > 0.0),
        }
    }
}
