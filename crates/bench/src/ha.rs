//! Controller crash-recovery bench: warm journal replay vs cold restart.
//!
//! Run by `repro ha`, which writes `BENCH_ha.json`. Per swept session count
//! (the recoverable-state knob) it replays the deterministic mobility
//! scenario twice under a `controller_crash` fault at rate 1.0:
//!
//! * **warm** — the restarted controller restores the journal's compacted
//!   snapshot and replays the tail, so its bookkeeping comes back exactly
//!   as it was and reconciliation finds (almost) nothing to fix;
//! * **cold** — the restart starts from empty state: reconciliation,
//!   `FLOW_REMOVED` and packet-in re-dispatch must rebuild everything on
//!   demand, at client-visible cost.
//!
//! The same fault seed gives both modes the *same* crash instant and
//! blackout window, so they race the same outage. Throughout the blackout
//! switches keep forwarding on installed rules — data-plane continuity —
//! and the acceptance gates are: no session permanently stranded, a clean
//! second reconciliation pass, zero panics, and warm recovery p99 no worse
//! than cold at the largest swept state.

use crate::artifact::{self, num};
use crate::mobility::pct;
use edgectl::RecoveryMode;
use testbed::experiments::{self, HaStats};
use yamlite::Value;

/// The artifact's gate: the module's acceptance gates, and that the sweep
/// measured what it claims — the crash fired, the journal recorded, the warm
/// restart replayed it and left the reconcile less to fix than cold did.
pub fn gates(v: &Value) -> Result<(), String> {
    artifact::clause("crash_rate == 1.0", num(v, "crash_rate").map(|r| r == 1.0))?;
    let largest = artifact::ascending(v, "sizes", "sessions")?;
    let measured = [
        "blackout_ms",
        "journal_appended",
        "warm_recovered",
        "cold_recovered",
    ];
    artifact::positive(v, "sizes", &measured)?;
    artifact::each_row(v, "sizes", "replayed_events + snapshot_entries > 0", |p| {
        Some(num(p, "replayed_events")? + num(p, "snapshot_entries")? > 0.0)
    })?;
    artifact::zero(v, "sizes", &["stranded", "reconcile_residual"])?;
    artifact::each_row(v, "sizes", "warm_restart_fixes < cold_restart_fixes", |p| {
        Some(num(p, "warm_restart_fixes")? < num(p, "cold_restart_fixes")?)
    })?;
    artifact::clause(
        "largest size: warm_recovery_p99_ms <= cold_recovery_p99_ms",
        artifact::le(largest, "warm_recovery_p99_ms", "cold_recovery_p99_ms"),
    )?;
    artifact::is_true(v, "gate_warm_p99_le_cold_p99")?;
    artifact::zero_fields(v, &["total_stranded", "total_reconcile_residual", "panics"])
}

/// The swept session counts: recoverable state (FlowMemory entries,
/// installed pairs, client locations, the session ledger) grows with the
/// number of moving clients.
pub fn swept_sessions(smoke: bool) -> &'static [usize] {
    if smoke {
        &[3, 6]
    } else {
        &[4, 8, 16]
    }
}

/// Controller-crash probability: every run crashes.
const CRASH_RATE: f64 = 1.0;

/// Runs the warm arm and the cold baseline once per swept session count,
/// catching panics so a crashing restart path is reported rather than
/// aborting the artifact, and returns the `BENCH_ha.json` text.
pub fn run(seed: u64, smoke: bool) -> String {
    let mut panics = 0u64;
    let mut run_one = |mode: RecoveryMode, n: usize| {
        match std::panic::catch_unwind(|| experiments::ha_stats(mode, n, seed, CRASH_RATE, smoke)) {
            Ok(s) => s,
            Err(_) => {
                panics += 1;
                HaStats::default()
            }
        }
    };
    let sizes: Vec<_> = swept_sessions(smoke)
        .iter()
        .map(|&n| (n, run_one(RecoveryMode::Warm, n), run_one(RecoveryMode::Cold, n)))
        .collect();
    artifact(seed, smoke, panics, &sizes)
}

/// The `BENCH_ha.json` text: one row per swept session count (sessions,
/// warm run, cold run racing the same blackout), times in ms, counts that
/// are not warm- or cold-specific summed over both; then the headline gate —
/// warm recovery p99 at the *largest* size no worse than cold p99 there,
/// otherwise replaying the journal bought nothing over rebuilding from
/// scratch.
fn artifact(seed: u64, smoke: bool, panics: u64, sizes: &[(usize, HaStats, HaStats)]) -> String {
    let p99 = |s: &HaStats| pct(&s.recovery_secs, 99.0);
    // Replay throughput: (snapshot entries + tail events) per wall second.
    let replay_per_sec = |s: &HaStats| match s.replay_wall_ns {
        0 => 0.0,
        ns => (s.replayed_events + s.snapshot_entries) as f64 / (ns as f64 / 1e9),
    };
    let total = |field: fn(&HaStats) -> u64| {
        sizes.iter().map(|(_, warm, cold)| field(warm) + field(cold)).sum()
    };
    let largest = sizes.last();
    artifact::object(|o| {
        o.str("bench", "ha");
        o.int("seed", seed);
        o.num("crash_rate", CRASH_RATE);
        o.bool("smoke", smoke);
        o.rows("sizes", sizes, |r, (n, w, c)| {
            r.int("sessions", *n as u64);
            r.fixed("blackout_ms", w.blackout_secs * 1e3, 3);
            r.int("journal_appended", w.journal_appended);
            r.int("snapshots_taken", w.snapshots_taken);
            r.int("replayed_events", w.replayed_events);
            r.int("snapshot_entries", w.snapshot_entries);
            r.int("replay_wall_ns", w.replay_wall_ns);
            r.fixed("replay_events_per_sec", replay_per_sec(w), 0);
            r.fixed("warm_recovery_p50_ms", pct(&w.recovery_secs, 50.0), 3);
            r.fixed("warm_recovery_p99_ms", p99(w), 3);
            r.int("warm_recovered", w.recovery_secs.len() as u64);
            r.fixed("cold_recovery_p50_ms", pct(&c.recovery_secs, 50.0), 3);
            r.fixed("cold_recovery_p99_ms", p99(c), 3);
            r.int("cold_recovered", c.recovery_secs.len() as u64);
            r.int("warm_restart_fixes", w.restart_fixes);
            r.int("cold_restart_fixes", c.restart_fixes);
            r.int("aborted_migrations", w.aborted_migrations + c.aborted_migrations);
            r.int("missed_handovers", w.missed_handovers + c.missed_handovers);
            r.int("ctrl_dropped", w.ctrl_dropped + c.ctrl_dropped);
            r.int("retransmits", w.retransmits + c.retransmits);
            r.int("stranded", w.stranded + c.stranded);
            r.int("reconcile_fixes", w.reconcile_fixes + c.reconcile_fixes);
            r.int("reconcile_residual", w.reconcile_residual + c.reconcile_residual);
        });
        o.int("largest_sessions", largest.map_or(0, |(n, _, _)| *n as u64));
        o.fixed(
            "warm_p99_ms_at_largest",
            largest.map_or(f64::NAN, |(_, w, _)| p99(w)),
            3,
        );
        o.fixed(
            "cold_p99_ms_at_largest",
            largest.map_or(f64::NAN, |(_, _, c)| p99(c)),
            3,
        );
        o.bool(
            "gate_warm_p99_le_cold_p99",
            largest.is_some_and(|(_, w, c)| p99(w) <= p99(c)),
        );
        o.int("total_stranded", total(|s| s.stranded));
        o.int("total_reconcile_residual", total(|s| s.reconcile_residual));
        o.int("panics", panics);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One swept session count: `n` warm recoveries with p99 `warm_p99` ms
    /// and `n` cold ones with p99 `cold_p99` ms, half of each at half that.
    fn size(n: usize, warm_p99: f64, cold_p99: f64) -> (usize, HaStats, HaStats) {
        let recoveries = |p99_ms: f64| {
            let x = p99_ms / 1e3;
            (0..n).map(|i| if i < n.div_ceil(2) { x / 2.0 } else { x }).collect()
        };
        let warm = HaStats {
            blackout_secs: 3.0,
            journal_appended: 400,
            snapshots_taken: 3,
            replayed_events: 20,
            snapshot_entries: 60,
            replay_wall_ns: 40_000,
            recovery_secs: recoveries(warm_p99),
            aborted_migrations: 1,
            missed_handovers: 2,
            ctrl_dropped: 5,
            retransmits: 4,
            reconcile_fixes: 3,
            ..HaStats::default()
        };
        let cold = HaStats {
            recovery_secs: recoveries(cold_p99),
            restart_fixes: 12,
            ..HaStats::default()
        };
        (n, warm, cold)
    }

    const FIXTURE: &str = r#"{
  "bench": "ha",
  "seed": 7,
  "crash_rate": 1,
  "smoke": true,
  "sizes": [
    {"sessions": 3, "blackout_ms": 3000.000, "journal_appended": 400, "snapshots_taken": 3, "replayed_events": 20, "snapshot_entries": 60, "replay_wall_ns": 40000, "replay_events_per_sec": 2000000, "warm_recovery_p50_ms": 2.500, "warm_recovery_p99_ms": 4.950, "warm_recovered": 3, "cold_recovery_p50_ms": 20.000, "cold_recovery_p99_ms": 39.600, "cold_recovered": 3, "warm_restart_fixes": 0, "cold_restart_fixes": 12, "aborted_migrations": 1, "missed_handovers": 2, "ctrl_dropped": 5, "retransmits": 4, "stranded": 0, "reconcile_fixes": 3, "reconcile_residual": 0},
    {"sessions": 6, "blackout_ms": 3000.000, "journal_appended": 400, "snapshots_taken": 3, "replayed_events": 20, "snapshot_entries": 60, "replay_wall_ns": 40000, "replay_events_per_sec": 2000000, "warm_recovery_p50_ms": 4.500, "warm_recovery_p99_ms": 6.000, "warm_recovered": 6, "cold_recovery_p50_ms": 67.500, "cold_recovery_p99_ms": 90.000, "cold_recovered": 6, "warm_restart_fixes": 0, "cold_restart_fixes": 12, "aborted_migrations": 1, "missed_handovers": 2, "ctrl_dropped": 5, "retransmits": 4, "stranded": 0, "reconcile_fixes": 3, "reconcile_residual": 0}
  ],
  "largest_sessions": 6,
  "warm_p99_ms_at_largest": 6.000,
  "cold_p99_ms_at_largest": 90.000,
  "gate_warm_p99_le_cold_p99": true,
  "total_stranded": 0,
  "total_reconcile_residual": 0,
  "panics": 0
}
"#;

    #[test]
    fn json_shape_is_stable() {
        let sizes = [size(3, 5.0, 40.0), size(6, 6.0, 90.0)];
        assert_eq!(artifact(7, true, 0, &sizes), FIXTURE);
    }

    #[test]
    fn every_gate_clause_can_fail() {
        artifact::tests::assert_gate_clauses(
            gates,
            FIXTURE,
            &[
                (
                    "\"crash_rate\": 1,",
                    "\"crash_rate\": 0.5,",
                    "crash_rate == 1.0",
                ),
                (
                    "\"sessions\": 3,",
                    "\"sessions\": 9,",
                    "`sizes` ascending by sessions",
                ),
                (
                    "\"blackout_ms\": 3000.000",
                    "\"blackout_ms\": 0.000",
                    "sizes[0]: blackout_ms > 0",
                ),
                (
                    "\"journal_appended\": 400",
                    "\"journal_appended\": 0",
                    "sizes[0]: journal_appended > 0",
                ),
                (
                    "\"replayed_events\": 20, \"snapshot_entries\": 60",
                    "\"replayed_events\": 0, \"snapshot_entries\": 0",
                    "sizes[0]: replayed_events + snapshot_entries > 0",
                ),
                (
                    "\"warm_recovered\": 3",
                    "\"warm_recovered\": 0",
                    "sizes[0]: warm_recovered > 0",
                ),
                (
                    "\"cold_recovered\": 3",
                    "\"cold_recovered\": 0",
                    "sizes[0]: cold_recovered > 0",
                ),
                (
                    "\"stranded\": 0",
                    "\"stranded\": 1",
                    "sizes[0]: stranded == 0",
                ),
                (
                    "\"reconcile_residual\": 0}",
                    "\"reconcile_residual\": 2}",
                    "sizes[0]: reconcile_residual == 0",
                ),
                (
                    "\"cold_restart_fixes\": 12",
                    "\"cold_restart_fixes\": 0",
                    "sizes[0]: warm_restart_fixes < cold_restart_fixes",
                ),
                (
                    "\"cold_recovery_p99_ms\": 90.000",
                    "\"cold_recovery_p99_ms\": 5.999",
                    "largest size: warm_recovery_p99_ms <= cold_recovery_p99_ms",
                ),
                (
                    "\"gate_warm_p99_le_cold_p99\": true",
                    "\"gate_warm_p99_le_cold_p99\": false",
                    "gate_warm_p99_le_cold_p99 is true",
                ),
                (
                    "\"total_stranded\": 0",
                    "\"total_stranded\": 1",
                    "total_stranded == 0",
                ),
                (
                    "\"total_reconcile_residual\": 0",
                    "\"total_reconcile_residual\": 1",
                    "total_reconcile_residual == 0",
                ),
                ("\"panics\": 0", "\"panics\": 1", "panics == 0"),
            ],
        );
        let empty = artifact(7, true, 0, &[]);
        assert!(
            empty.contains("\"warm_p99_ms_at_largest\": null"),
            "never NaN: {empty}"
        );
        assert!(gates(&artifact::parse(&empty).unwrap()).is_err());
    }

    #[test]
    fn gate_compares_the_largest_size_only() {
        let holds = |sizes: &[_]| {
            artifact::parse(&artifact(7, true, 0, sizes)).unwrap()["gate_warm_p99_le_cold_p99"]
                .as_bool()
        };
        let mut sizes = vec![size(3, 50.0, 10.0), size(6, 5.0, 40.0)];
        assert_eq!(holds(&sizes), Some(true), "only the largest size gates");
        sizes[1] = size(6, 100.0, 40.0);
        assert_eq!(holds(&sizes), Some(false));
        assert_eq!(holds(&[]), Some(false), "an empty sweep proves nothing");
    }

    #[test]
    fn smoke_run_recovers_cleanly_in_both_modes() {
        let v = artifact::parse(&run(7, true)).unwrap();
        // No panic, nothing stranded, clean reconcile, the crash fired, the
        // journal recorded and was replayed, both recoveries measured, warm
        // left the reconcile less to fix than cold and its p99 is no worse.
        assert_eq!(gates(&v), Ok(()));
        let sizes = v["sizes"].as_seq().unwrap();
        assert_eq!(sizes.len(), swept_sessions(true).len());
        // More sessions ⇒ more recoverable state in the journal.
        for w in sizes.windows(2) {
            assert!(num(&w[1], "journal_appended") > num(&w[0], "journal_appended"));
        }
    }

    #[test]
    fn repro_artifact_is_deterministic_up_to_wall_clock() {
        // Everything except the wall-clock replay fields is byte-stable per
        // seed; the rebuild's nanosecond timing is machine noise.
        let simulated = |text: &str| {
            let mut v = artifact::parse(text).unwrap();
            let Some(Value::Seq(sizes)) = v.get_mut("sizes") else {
                panic!("no sizes: {text}")
            };
            for row in sizes {
                row.remove("replay_wall_ns").expect("timed");
                row.remove("replay_events_per_sec").expect("timed");
            }
            v
        };
        assert_eq!(
            simulated(&run(7, true)),
            simulated(&run(7, true)),
            "same seed ⇒ same simulation"
        );
    }
}
