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

/// One swept session count: warm and cold racing the same blackout (times
/// in milliseconds unless noted).
#[derive(Clone, Debug)]
pub struct SizePoint {
    /// Client sessions driven (recoverable state grows with this).
    pub sessions: u64,
    /// Control-plane blackout: crash → restart.
    pub blackout_ms: f64,
    /// Journal events appended across the warm run (mutation volume).
    pub journal_appended: u64,
    /// Compactions the journal performed.
    pub snapshots_taken: u64,
    /// Tail events the warm restart replayed.
    pub replayed_events: u64,
    /// Entries the warm restart restored from the compacted snapshot.
    pub snapshot_entries: u64,
    /// Wall-clock nanoseconds the warm rebuild took (machine-dependent).
    pub replay_wall_ns: u64,
    /// Replay throughput: (snapshot entries + tail events) per wall second.
    pub replay_events_per_sec: f64,
    /// Warm per-session recovery median (first ping answered after restart).
    pub warm_p50_ms: f64,
    /// Warm per-session recovery 99th percentile.
    pub warm_p99_ms: f64,
    /// Sessions with a measured warm recovery.
    pub warm_recovered: u64,
    /// Cold per-session recovery median.
    pub cold_p50_ms: f64,
    /// Cold per-session recovery 99th percentile.
    pub cold_p99_ms: f64,
    /// Sessions with a measured cold recovery.
    pub cold_recovered: u64,
    /// Flow mods the warm restart's reconcile issued (tables should already
    /// match the replayed state, so ≈0).
    pub warm_restart_fixes: u64,
    /// Flow mods the cold restart's reconcile issued (every surviving rule
    /// is torn down — grows with state size).
    pub cold_restart_fixes: u64,
    /// In-flight migrations the restarts aborted (warm + cold).
    pub aborted_migrations: u64,
    /// Attachment changes that happened during the blackout (warm + cold).
    pub missed_handovers: u64,
    /// Control messages lost while the controller was dead (warm + cold).
    pub ctrl_dropped: u64,
    /// Client retransmissions (warm + cold).
    pub retransmits: u64,
    /// Sessions permanently stranded, warm + cold (want 0).
    pub stranded: u64,
    /// Fixes the final reconciliation issued, warm + cold.
    pub reconcile_fixes: u64,
    /// Fixes the second pass still wanted, warm + cold (want 0).
    pub reconcile_residual: u64,
}

/// The full HA report.
#[derive(Clone, Debug)]
pub struct Report {
    /// Seed the scenario ran under.
    pub seed: u64,
    /// Controller-crash probability (the bench pins 1.0).
    pub crash_rate: f64,
    /// Smoke (short) or full sweep.
    pub smoke: bool,
    /// Runs that panicked instead of recovering (want 0).
    pub panics: u64,
    /// One warm-vs-cold row per swept session count, ascending.
    pub points: Vec<SizePoint>,
}

impl Report {
    /// Permanently stranded sessions across every run (want: 0).
    pub fn total_stranded(&self) -> u64 {
        self.points.iter().map(|p| p.stranded).sum()
    }

    /// Residual reconciliation fixes across every run (want: 0).
    pub fn total_residual(&self) -> u64 {
        self.points.iter().map(|p| p.reconcile_residual).sum()
    }

    /// The headline gate: at the *largest* swept state size, warm recovery
    /// p99 must not exceed cold recovery p99 — otherwise replaying the
    /// journal bought nothing over rebuilding from scratch.
    pub fn warm_gate_holds(&self) -> bool {
        self.points
            .last()
            .map(|p| p.warm_p99_ms <= p.cold_p99_ms)
            .unwrap_or(false)
    }

    /// The `BENCH_ha.json` text.
    pub fn artifact(&self) -> String {
        let last = self.points.last();
        artifact::object(|o| {
            o.str("bench", "ha");
            o.int("seed", self.seed);
            o.num("crash_rate", self.crash_rate);
            o.bool("smoke", self.smoke);
            o.rows("sizes", &self.points, |r, p| {
                r.int("sessions", p.sessions);
                r.fixed("blackout_ms", p.blackout_ms, 3);
                r.int("journal_appended", p.journal_appended);
                r.int("snapshots_taken", p.snapshots_taken);
                r.int("replayed_events", p.replayed_events);
                r.int("snapshot_entries", p.snapshot_entries);
                r.int("replay_wall_ns", p.replay_wall_ns);
                r.fixed("replay_events_per_sec", p.replay_events_per_sec, 0);
                r.fixed("warm_recovery_p50_ms", p.warm_p50_ms, 3);
                r.fixed("warm_recovery_p99_ms", p.warm_p99_ms, 3);
                r.int("warm_recovered", p.warm_recovered);
                r.fixed("cold_recovery_p50_ms", p.cold_p50_ms, 3);
                r.fixed("cold_recovery_p99_ms", p.cold_p99_ms, 3);
                r.int("cold_recovered", p.cold_recovered);
                r.int("warm_restart_fixes", p.warm_restart_fixes);
                r.int("cold_restart_fixes", p.cold_restart_fixes);
                r.int("aborted_migrations", p.aborted_migrations);
                r.int("missed_handovers", p.missed_handovers);
                r.int("ctrl_dropped", p.ctrl_dropped);
                r.int("retransmits", p.retransmits);
                r.int("stranded", p.stranded);
                r.int("reconcile_fixes", p.reconcile_fixes);
                r.int("reconcile_residual", p.reconcile_residual);
            });
            o.int("largest_sessions", last.map_or(0, |p| p.sessions));
            o.fixed(
                "warm_p99_ms_at_largest",
                last.map_or(f64::NAN, |p| p.warm_p99_ms),
                3,
            );
            o.fixed(
                "cold_p99_ms_at_largest",
                last.map_or(f64::NAN, |p| p.cold_p99_ms),
                3,
            );
            o.bool("gate_warm_p99_le_cold_p99", self.warm_gate_holds());
            o.int("total_stranded", self.total_stranded());
            o.int("total_reconcile_residual", self.total_residual());
            o.int("panics", self.panics);
        })
    }

    /// Renders a human-readable table.
    pub fn render(&self) -> String {
        let mut s = String::from(
            "sessions  blackout[ms]  journal  replay(snap+tail)  ev/s      \
             warm p50/p99 [ms]  cold p50/p99 [ms]  fixes w/c  stranded  resid\n",
        );
        for p in &self.points {
            s.push_str(&format!(
                "{:>8}  {:>12.1}  {:>7}  {:>8}+{:<8}  {:>8.0}  {:>7.1}/{:>8.1}  {:>7.1}/{:>8.1}  {:>4}/{:<4}  {:>8}  {:>5}\n",
                p.sessions,
                p.blackout_ms,
                p.journal_appended,
                p.snapshot_entries,
                p.replayed_events,
                p.replay_events_per_sec,
                p.warm_p50_ms,
                p.warm_p99_ms,
                p.cold_p50_ms,
                p.cold_p99_ms,
                p.warm_restart_fixes,
                p.cold_restart_fixes,
                p.stranded,
                p.reconcile_residual
            ));
        }
        s.push_str(&format!(
            "gate: warm recovery p99 at largest state {} cold p99 ({})\n\
             total stranded {} (want 0), reconcile residual {} (want 0), panics {} (want 0)\n",
            if self.warm_gate_holds() { "<=" } else { "EXCEEDS" },
            if self.warm_gate_holds() { "holds" } else { "FAILS" },
            self.total_stranded(),
            self.total_residual(),
            self.panics
        ));
        s
    }
}

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

/// Runs the warm arm and the cold baseline once per swept session count,
/// catching panics so a crashing restart path is reported rather than
/// aborting the artifact.
pub fn run(seed: u64, smoke: bool) -> Report {
    let crash_rate = 1.0;
    let mut panics = 0u64;
    let mut run_one = |mode: RecoveryMode, n: usize| {
        match std::panic::catch_unwind(|| experiments::ha_stats(mode, n, seed, crash_rate, smoke)) {
            Ok(s) => s,
            Err(_) => {
                panics += 1;
                HaStats::default()
            }
        }
    };
    let points = swept_sessions(smoke)
        .iter()
        .map(|&n| {
            let w = run_one(RecoveryMode::Warm, n);
            let c = run_one(RecoveryMode::Cold, n);
            let replayed_total = w.replayed_events + w.snapshot_entries;
            let replay_events_per_sec = if w.replay_wall_ns > 0 {
                replayed_total as f64 / (w.replay_wall_ns as f64 / 1e9)
            } else {
                0.0
            };
            SizePoint {
                sessions: n as u64,
                blackout_ms: w.blackout_secs * 1e3,
                journal_appended: w.journal_appended,
                snapshots_taken: w.snapshots_taken,
                replayed_events: w.replayed_events,
                snapshot_entries: w.snapshot_entries,
                replay_wall_ns: w.replay_wall_ns,
                replay_events_per_sec,
                warm_p50_ms: pct(&w.recovery_secs, 50.0),
                warm_p99_ms: pct(&w.recovery_secs, 99.0),
                warm_recovered: w.recovery_secs.len() as u64,
                cold_p50_ms: pct(&c.recovery_secs, 50.0),
                cold_p99_ms: pct(&c.recovery_secs, 99.0),
                cold_recovered: c.recovery_secs.len() as u64,
                warm_restart_fixes: w.restart_fixes,
                cold_restart_fixes: c.restart_fixes,
                aborted_migrations: w.aborted_migrations + c.aborted_migrations,
                missed_handovers: w.missed_handovers + c.missed_handovers,
                ctrl_dropped: w.ctrl_dropped + c.ctrl_dropped,
                retransmits: w.retransmits + c.retransmits,
                stranded: w.stranded + c.stranded,
                reconcile_fixes: w.reconcile_fixes + c.reconcile_fixes,
                reconcile_residual: w.reconcile_residual + c.reconcile_residual,
            }
        })
        .collect();
    Report { seed, crash_rate, smoke, panics, points }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(sessions: u64, warm_p99: f64, cold_p99: f64) -> SizePoint {
        SizePoint {
            sessions,
            blackout_ms: 3000.0,
            journal_appended: 400,
            snapshots_taken: 3,
            replayed_events: 20,
            snapshot_entries: 60,
            replay_wall_ns: 40_000,
            replay_events_per_sec: 2_000_000.0,
            warm_p50_ms: warm_p99 / 2.0,
            warm_p99_ms: warm_p99,
            warm_recovered: sessions,
            cold_p50_ms: cold_p99 / 2.0,
            cold_p99_ms: cold_p99,
            cold_recovered: sessions,
            warm_restart_fixes: 0,
            cold_restart_fixes: 12,
            aborted_migrations: 1,
            missed_handovers: 2,
            ctrl_dropped: 5,
            retransmits: 4,
            stranded: 0,
            reconcile_fixes: 3,
            reconcile_residual: 0,
        }
    }

    const FIXTURE: &str = r#"{
  "bench": "ha",
  "seed": 7,
  "crash_rate": 1,
  "smoke": true,
  "sizes": [
    {"sessions": 3, "blackout_ms": 3000.000, "journal_appended": 400, "snapshots_taken": 3, "replayed_events": 20, "snapshot_entries": 60, "replay_wall_ns": 40000, "replay_events_per_sec": 2000000, "warm_recovery_p50_ms": 2.500, "warm_recovery_p99_ms": 5.000, "warm_recovered": 3, "cold_recovery_p50_ms": 20.000, "cold_recovery_p99_ms": 40.000, "cold_recovered": 3, "warm_restart_fixes": 0, "cold_restart_fixes": 12, "aborted_migrations": 1, "missed_handovers": 2, "ctrl_dropped": 5, "retransmits": 4, "stranded": 0, "reconcile_fixes": 3, "reconcile_residual": 0},
    {"sessions": 6, "blackout_ms": 3000.000, "journal_appended": 400, "snapshots_taken": 3, "replayed_events": 20, "snapshot_entries": 60, "replay_wall_ns": 40000, "replay_events_per_sec": 2000000, "warm_recovery_p50_ms": 3.000, "warm_recovery_p99_ms": 6.000, "warm_recovered": 6, "cold_recovery_p50_ms": 45.000, "cold_recovery_p99_ms": 90.000, "cold_recovered": 6, "warm_restart_fixes": 0, "cold_restart_fixes": 12, "aborted_migrations": 1, "missed_handovers": 2, "ctrl_dropped": 5, "retransmits": 4, "stranded": 0, "reconcile_fixes": 3, "reconcile_residual": 0}
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
        let r = Report {
            seed: 7,
            crash_rate: 1.0,
            smoke: true,
            panics: 0,
            points: vec![point(3, 5.0, 40.0), point(6, 6.0, 90.0)],
        };
        assert_eq!(r.artifact(), FIXTURE);
        assert!(r.render().contains("holds"));
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
        let empty = Report {
            seed: 7,
            crash_rate: 1.0,
            smoke: true,
            panics: 0,
            points: vec![],
        }
        .artifact();
        assert!(
            empty.contains("\"warm_p99_ms_at_largest\": null"),
            "never NaN: {empty}"
        );
        assert!(gates(&artifact::parse(&empty).unwrap()).is_err());
    }

    #[test]
    fn gate_compares_the_largest_size_only() {
        let mut r = Report {
            seed: 7,
            crash_rate: 1.0,
            smoke: true,
            panics: 0,
            points: vec![point(3, 50.0, 10.0), point(6, 5.0, 40.0)],
        };
        assert!(r.warm_gate_holds(), "only the largest size gates");
        r.points[1].warm_p99_ms = 100.0;
        assert!(!r.warm_gate_holds());
        r.points.clear();
        assert!(!r.warm_gate_holds(), "an empty sweep proves nothing");
    }

    #[test]
    fn smoke_run_recovers_cleanly_in_both_modes() {
        let r = run(7, true);
        assert_eq!(r.points.len(), swept_sessions(true).len());
        assert_eq!(r.panics, 0, "no restart path panicked");
        assert_eq!(r.total_stranded(), 0, "no session permanently stranded");
        assert_eq!(r.total_residual(), 0, "switch tables reconcile clean");
        assert!(r.warm_gate_holds(), "warm p99 must not exceed cold p99");
        for p in &r.points {
            assert!(p.blackout_ms > 0.0, "the crash fired at rate 1.0");
            assert!(p.journal_appended > 0, "the journal recorded");
            assert!(
                p.replayed_events + p.snapshot_entries > 0,
                "warm restart recovered state"
            );
            assert!(p.warm_recovered > 0, "warm recovery was measured");
            assert!(p.cold_recovered > 0, "cold recovery was measured");
            assert!(p.cold_restart_fixes > 0, "cold restart rebuilt the tables");
            assert!(
                p.warm_restart_fixes < p.cold_restart_fixes,
                "warm replay left less for the reconcile to fix"
            );
        }
        // More sessions ⇒ more recoverable state in the journal.
        for w in r.points.windows(2) {
            assert!(w[1].journal_appended > w[0].journal_appended);
        }
    }

    #[test]
    fn repro_artifact_is_deterministic_up_to_wall_clock() {
        // Everything except the wall-clock replay fields is byte-stable per
        // seed; the rebuild's nanosecond timing is machine noise.
        let strip = |r: &Report| {
            let mut j = String::new();
            for p in &r.points {
                j.push_str(&format!(
                    "{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}\n",
                    p.sessions,
                    p.blackout_ms,
                    p.journal_appended,
                    p.snapshots_taken,
                    p.replayed_events,
                    p.snapshot_entries,
                    p.warm_p50_ms,
                    p.warm_p99_ms,
                    p.warm_recovered,
                    p.cold_p50_ms,
                    p.cold_p99_ms,
                    p.cold_recovered,
                    p.warm_restart_fixes,
                    p.cold_restart_fixes,
                    p.missed_handovers,
                    p.retransmits,
                    p.stranded,
                    p.reconcile_residual,
                ));
            }
            j
        };
        let a = run(7, true);
        let b = run(7, true);
        assert_eq!(strip(&a), strip(&b), "same seed ⇒ same simulation");
    }
}
