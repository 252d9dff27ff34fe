//! Live-migration bench: interruption and transfer cost as session state
//! grows.
//!
//! Run by `repro migrate`, which writes `BENCH_migrate.json`. It replays
//! the deterministic mobility scenario twice per swept state size:
//!
//! * **live** — anchored handovers plus `edgectl::migrate` chasing the
//!   client (snapshot + background transfer + make-before-break flip);
//! * **cold** — the PR 4 re-dispatch baseline: the session is re-placed
//!   through the Global Scheduler and its state is lost, so the replacement
//!   instance must re-fetch an equivalent snapshot over the same metro link
//!   *before it can answer* — a client-visible rebuild that grows with the
//!   state, where live's transfer runs in the background.
//!
//! The claim under test: the live flip keeps the client-visible interruption
//! flat while state grows — the transfer cost scales linearly in bytes, but
//! the source keeps serving throughout — so live p99 stays below cold p99 at
//! every swept size.

use crate::artifact;
use crate::mobility::pct;
use testbed::experiments;
use yamlite::Value;

/// One swept state size: the live arm and its cold baseline, side by side
/// (times in milliseconds).
#[derive(Clone, Debug)]
pub struct SizePoint {
    /// Session-state growth per served request, bytes.
    pub state_bytes_per_request: u64,
    /// Live migrations completed.
    pub migrations: u64,
    /// Migrations abandoned mid-transfer.
    pub aborted: u64,
    /// Session-state bytes shipped zone-to-zone (live, background).
    pub state_bytes_transferred: u64,
    /// Redirect flows flipped make-before-break.
    pub flows_flipped: u64,
    /// Background transfer-time median, ms (cost, not interruption).
    pub transfer_p50_ms: f64,
    /// Background transfer-time 99th percentile, ms.
    pub transfer_p99_ms: f64,
    /// Live move-interruption median, ms (handover + migration flips).
    pub p50_ms: f64,
    /// Live move-interruption 99th percentile, ms.
    pub p99_ms: f64,
    /// Pings answered on the live arm (== pings sent on a clean run).
    pub pings: u64,
    /// Live pings lost + frames dropped (want 0).
    pub dropped: u64,
    /// Cold-arm handovers performed.
    pub cold_handovers: u64,
    /// Cold move-interruption median, ms (re-dispatch + state rebuild).
    pub cold_p50_ms: f64,
    /// Cold move-interruption 99th percentile, ms.
    pub cold_p99_ms: f64,
    /// Cold pings lost + frames dropped (want 0).
    pub cold_dropped: u64,
}

/// The full migration report.
#[derive(Clone, Debug)]
pub struct Report {
    /// Seed the scenario ran under.
    pub seed: u64,
    /// Smoke (short) or full sweep.
    pub smoke: bool,
    /// One live-vs-cold row per swept state size, ascending.
    pub sizes: Vec<SizePoint>,
}

impl Report {
    /// Pings lost or frames dropped across every run, both arms (want: 0).
    pub fn total_dropped(&self) -> u64 {
        self.sizes.iter().map(|p| p.dropped + p.cold_dropped).sum()
    }

    /// The headline gate: live interruption p99 at the *largest* swept state
    /// size must not exceed the cold baseline's p99 at that same size —
    /// otherwise migrating the state bought nothing over re-deploying cold.
    pub fn gate_holds(&self) -> bool {
        self.sizes
            .last()
            .map(|p| p.p99_ms <= p.cold_p99_ms)
            .unwrap_or(false)
    }

    /// The `BENCH_migrate.json` text.
    pub fn artifact(&self) -> String {
        let last = self.sizes.last();
        artifact::object(|o| {
            o.str("bench", "migrate");
            o.int("seed", self.seed);
            o.bool("smoke", self.smoke);
            o.rows("sizes", &self.sizes, |r, p| {
                r.int("state_bytes_per_request", p.state_bytes_per_request);
                r.int("migrations", p.migrations);
                r.int("aborted", p.aborted);
                r.int("state_bytes_transferred", p.state_bytes_transferred);
                r.int("flows_flipped", p.flows_flipped);
                r.fixed("transfer_p50_ms", p.transfer_p50_ms, 3);
                r.fixed("transfer_p99_ms", p.transfer_p99_ms, 3);
                r.fixed("interruption_p50_ms", p.p50_ms, 3);
                r.fixed("interruption_p99_ms", p.p99_ms, 3);
                r.int("pings", p.pings);
                r.int("dropped", p.dropped);
                r.int("cold_handovers", p.cold_handovers);
                r.fixed("cold_interruption_p50_ms", p.cold_p50_ms, 3);
                r.fixed("cold_interruption_p99_ms", p.cold_p99_ms, 3);
                r.int("cold_dropped", p.cold_dropped);
            });
            o.int(
                "largest_state_bytes_per_request",
                last.map_or(0, |p| p.state_bytes_per_request),
            );
            o.fixed(
                "live_p99_ms_at_largest",
                last.map_or(f64::NAN, |p| p.p99_ms),
                3,
            );
            o.fixed("cold_p99_ms", last.map_or(f64::NAN, |p| p.cold_p99_ms), 3);
            o.int(
                "total_migrations",
                self.sizes.iter().map(|p| p.migrations).sum(),
            );
            o.int(
                "total_state_bytes_transferred",
                self.sizes.iter().map(|p| p.state_bytes_transferred).sum(),
            );
            o.bool("gate_live_p99_le_cold_p99", self.gate_holds());
            o.int("total_dropped", self.total_dropped());
        })
    }

    /// Renders a human-readable table.
    pub fn render(&self) -> String {
        let mut s = String::from(
            "bytes/req   migs  state [B]   transfer p50/p99 [ms]  \
             live p50/p99 [ms]  cold p50/p99 [ms]  dropped\n",
        );
        for p in &self.sizes {
            s.push_str(&format!(
                "{:>9}  {:>5}  {:>9}  {:>10.1}/{:>8.1}  {:>7.2}/{:>7.2}  {:>7.1}/{:>7.1}  {:>7}\n",
                p.state_bytes_per_request,
                p.migrations,
                p.state_bytes_transferred,
                p.transfer_p50_ms,
                p.transfer_p99_ms,
                p.p50_ms,
                p.p99_ms,
                p.cold_p50_ms,
                p.cold_p99_ms,
                p.dropped + p.cold_dropped
            ));
        }
        s.push_str(&format!(
            "gate: live p99 at largest state {} cold p99 ({})\n\
             total dropped {} (want 0)\n",
            if self.gate_holds() { "<=" } else { "EXCEEDS" },
            if self.gate_holds() { "holds" } else { "FAILS" },
            self.total_dropped()
        ));
        s
    }
}

/// The artifact's gate: an ascending sweep in which every size migrated
/// live, handed over cold and dropped nothing, and live interruption p99 at
/// the largest state no worse than the cold baseline's.
pub fn gates(v: &Value) -> Result<(), String> {
    let largest = artifact::ascending(v, "sizes", "state_bytes_per_request")?;
    artifact::positive(v, "sizes", &["migrations", "cold_handovers"])?;
    artifact::zero(v, "sizes", &["dropped", "cold_dropped"])?;
    artifact::clause(
        "largest size: interruption_p99_ms <= cold_interruption_p99_ms",
        artifact::le(largest, "interruption_p99_ms", "cold_interruption_p99_ms"),
    )?;
    artifact::is_true(v, "gate_live_p99_le_cold_p99")?;
    artifact::zero_fields(v, &["total_dropped"])
}

/// The swept per-request state sizes: 0 bytes (the degenerate case — a live
/// migration is then exactly the PR 4 make-before-break handover, and the
/// cold rebuild is a bare metro round trip) up past the point where a
/// snapshot takes visible fractions of a second on the 200 Mbps metro link.
pub fn swept_sizes(smoke: bool) -> &'static [u64] {
    if smoke {
        &[0, 4_096, 65_536]
    } else {
        &[0, 4_096, 65_536, 262_144]
    }
}

/// Runs the live arm and the cold baseline once per swept state size.
pub fn run(seed: u64, smoke: bool) -> Report {
    let sizes = swept_sizes(smoke)
        .iter()
        .map(|&bytes| {
            let s = experiments::migration_stats(true, bytes, seed, smoke);
            let c = experiments::migration_stats(false, bytes, seed, smoke);
            SizePoint {
                state_bytes_per_request: bytes,
                migrations: s.migrations,
                aborted: s.migrations_aborted,
                state_bytes_transferred: s.state_bytes_transferred,
                flows_flipped: s.flows_flipped,
                transfer_p50_ms: pct(&s.transfers, 50.0),
                transfer_p99_ms: pct(&s.transfers, 99.0),
                p50_ms: pct(&s.interruptions, 50.0),
                p99_ms: pct(&s.interruptions, 99.0),
                pings: s.pings_done,
                dropped: (s.pings_sent - s.pings_done) + s.drops,
                cold_handovers: c.handovers,
                cold_p50_ms: pct(&c.interruptions, 50.0),
                cold_p99_ms: pct(&c.interruptions, 99.0),
                cold_dropped: (c.pings_sent - c.pings_done) + c.drops,
            }
        })
        .collect();
    Report { seed, smoke, sizes }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURE: &str = r#"{
  "bench": "migrate",
  "seed": 7,
  "smoke": true,
  "sizes": [
    {"state_bytes_per_request": 0, "migrations": 5, "aborted": 0, "state_bytes_transferred": 0, "flows_flipped": 18, "transfer_p50_ms": 1.000, "transfer_p99_ms": 2.000, "interruption_p50_ms": 1.700, "interruption_p99_ms": 3.400, "pings": 300, "dropped": 0, "cold_handovers": 9, "cold_interruption_p50_ms": 251.000, "cold_interruption_p99_ms": 502.000, "cold_dropped": 0},
    {"state_bytes_per_request": 65536, "migrations": 5, "aborted": 0, "state_bytes_transferred": 6553600, "flows_flipped": 18, "transfer_p50_ms": 425.000, "transfer_p99_ms": 850.000, "interruption_p50_ms": 1.700, "interruption_p99_ms": 3.400, "pings": 300, "dropped": 0, "cold_handovers": 9, "cold_interruption_p50_ms": 450.000, "cold_interruption_p99_ms": 900.000, "cold_dropped": 0}
  ],
  "largest_state_bytes_per_request": 65536,
  "live_p99_ms_at_largest": 3.400,
  "cold_p99_ms": 900.000,
  "total_migrations": 10,
  "total_state_bytes_transferred": 6553600,
  "gate_live_p99_le_cold_p99": true,
  "total_dropped": 0
}
"#;

    fn size(bytes: u64, p99: f64, transfer_p99: f64, cold_p99: f64) -> SizePoint {
        SizePoint {
            state_bytes_per_request: bytes,
            migrations: 5,
            aborted: 0,
            state_bytes_transferred: bytes * 100,
            flows_flipped: 18,
            transfer_p50_ms: transfer_p99 / 2.0,
            transfer_p99_ms: transfer_p99,
            p50_ms: p99 / 2.0,
            p99_ms: p99,
            pings: 300,
            dropped: 0,
            cold_handovers: 9,
            cold_p50_ms: cold_p99 / 2.0,
            cold_p99_ms: cold_p99,
            cold_dropped: 0,
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let r = Report {
            seed: 7,
            smoke: true,
            sizes: vec![size(0, 3.4, 2.0, 502.0), size(65_536, 3.4, 850.0, 900.0)],
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
                    "\"state_bytes_per_request\": 0,",
                    "\"state_bytes_per_request\": 70000,",
                    "`sizes` ascending",
                ),
                (
                    "\"migrations\": 5",
                    "\"migrations\": 0",
                    "sizes[0]: migrations > 0",
                ),
                (
                    "\"cold_handovers\": 9",
                    "\"cold_handovers\": 0",
                    "sizes[0]: cold_handovers > 0",
                ),
                ("\"dropped\": 0", "\"dropped\": 1", "sizes[0]: dropped == 0"),
                (
                    "\"cold_dropped\": 0",
                    "\"cold_dropped\": 1",
                    "sizes[0]: cold_dropped == 0",
                ),
                (
                    "\"cold_interruption_p99_ms\": 900.000",
                    "\"cold_interruption_p99_ms\": 3.399",
                    "largest size: interruption_p99_ms <= cold_interruption_p99_ms",
                ),
                (
                    "\"gate_live_p99_le_cold_p99\": true",
                    "\"gate_live_p99_le_cold_p99\": false",
                    "gate_live_p99_le_cold_p99 is true",
                ),
                (
                    "\"total_dropped\": 0",
                    "\"total_dropped\": 1",
                    "total_dropped == 0",
                ),
            ],
        );
        let empty = Report {
            seed: 7,
            smoke: true,
            sizes: vec![],
        }
        .artifact();
        assert!(
            empty.contains("\"live_p99_ms_at_largest\": null"),
            "never NaN: {empty}"
        );
        let err = gates(&artifact::parse(&empty).unwrap()).unwrap_err();
        assert!(err.contains("`sizes` is missing or empty"), "{err}");
    }

    #[test]
    fn gate_compares_the_largest_size_only() {
        let mut r = Report {
            seed: 7,
            smoke: true,
            sizes: vec![size(0, 3.0, 2.0, 10.0), size(65_536, 50.0, 850.0, 10.0)],
        };
        assert!(!r.gate_holds(), "largest size exceeds cold");
        r.sizes[1].p99_ms = 9.0;
        assert!(r.gate_holds());
        r.sizes.clear();
        assert!(!r.gate_holds(), "an empty sweep proves nothing");
    }

    #[test]
    fn smoke_run_meets_the_gate_and_scales_linearly() {
        let r = run(7, true);
        assert_eq!(r.sizes.len(), swept_sizes(true).len());
        assert_eq!(r.total_dropped(), 0, "no ping lost, no frame dropped");
        assert!(r.sizes.iter().all(|p| p.cold_handovers > 0));
        assert!(r.sizes.iter().all(|p| p.migrations > 0), "live arm migrated");
        assert!(r.gate_holds(), "live p99 must not exceed cold p99");
        // Live interruption stays below cold at *every* swept size, not just
        // the largest — the flip cost does not grow with state, while the
        // cold rebuild pays at least a metro round trip even at state zero.
        for p in &r.sizes {
            assert!(
                p.p99_ms <= p.cold_p99_ms,
                "live p99 {:.2} ms above cold {:.2} ms at {} B/req",
                p.p99_ms,
                p.cold_p99_ms,
                p.state_bytes_per_request
            );
        }
        // Transfer cost grows with state: strictly more bytes shipped, and
        // no cheaper p99 transfer, at every step up the sweep. The cold
        // rebuild grows alongside — its p99 never shrinks as state grows.
        for w in r.sizes.windows(2) {
            assert!(w[1].state_bytes_transferred > w[0].state_bytes_transferred);
            assert!(w[1].transfer_p99_ms >= w[0].transfer_p99_ms);
            assert!(w[1].cold_p99_ms >= w[0].cold_p99_ms);
        }
    }

    #[test]
    fn repro_artifact_is_deterministic() {
        let a = run(7, true);
        let b = run(7, true);
        assert_eq!(a.artifact(), b.artifact(), "same seed ⇒ same artifact");
    }
}
