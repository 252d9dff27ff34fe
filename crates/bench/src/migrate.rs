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
use crate::mobility::{dropped, pct};
use testbed::experiments::{self, MigrationStats};
use yamlite::Value;

/// The artifact's gate: an ascending sweep in which every size migrated
/// live, handed over cold, and dropped, reset and exposed an edge address
/// to nothing on either arm, and live interruption p99 at
/// the largest state no worse than the cold baseline's.
pub(crate) fn gates(v: &Value) -> Result<(), String> {
    let largest = artifact::ascending(v, "sizes", "state_bytes_per_request")?;
    artifact::positive(v, "sizes", &["migrations", "cold_handovers"])?;
    artifact::zero(v, "sizes", &["dropped", "resets", "transparency_violations"])?;
    artifact::zero(v, "sizes", &["cold_dropped", "cold_resets", "cold_transparency_violations"])?;
    artifact::clause(
        "largest size: interruption_p99_ms <= cold_interruption_p99_ms",
        artifact::le(largest, "interruption_p99_ms", "cold_interruption_p99_ms"),
    )
}

/// The swept per-request state sizes: 0 bytes (the degenerate case — a live
/// migration is then exactly the PR 4 make-before-break handover, and the
/// cold rebuild is a bare metro round trip) up past the point where a
/// snapshot takes visible fractions of a second on the 200 Mbps metro link.
pub(crate) fn swept_sizes(smoke: bool) -> &'static [u64] {
    if smoke {
        &[0, 4_096, 65_536]
    } else {
        &[0, 4_096, 65_536, 262_144]
    }
}

/// Runs the live arm and the cold baseline once per swept state size and
/// returns the `BENCH_migrate.json` text.
pub fn run(seed: u64, smoke: bool) -> String {
    let sizes: Vec<_> = swept_sizes(smoke)
        .iter()
        .map(|&bytes| {
            let live = experiments::migration_stats(true, bytes, seed, smoke);
            let cold = experiments::migration_stats(false, bytes, seed, smoke);
            (bytes, live, cold)
        })
        .collect();
    artifact(seed, smoke, &sizes)
}

/// The `BENCH_migrate.json` text: one live-vs-cold row per swept state size
/// (bytes per request, live run, cold run), times in ms. The gate's headline
/// reads the last row: live interruption p99 at the *largest* size no worse
/// than cold p99 there, otherwise migrating the state bought nothing over
/// re-deploying cold.
fn artifact(seed: u64, smoke: bool, sizes: &[(u64, MigrationStats, MigrationStats)]) -> String {
    let p99 = |s: &MigrationStats| pct(&s.interruptions, 99.0);
    artifact::object(|o| {
        o.str("bench", "migrate");
        o.int("seed", seed);
        o.bool("smoke", smoke);
        o.rows("sizes", sizes, |r, (bytes, live, cold)| {
            r.int("state_bytes_per_request", *bytes);
            r.int("migrations", live.migrations);
            r.int("aborted", live.migrations_aborted);
            r.int("state_bytes_transferred", live.state_bytes_transferred);
            r.int("flows_flipped", live.flows_flipped);
            r.fixed("transfer_p50_ms", pct(&live.transfers, 50.0), 3);
            r.fixed("transfer_p99_ms", pct(&live.transfers, 99.0), 3);
            r.fixed("interruption_p50_ms", pct(&live.interruptions, 50.0), 3);
            r.fixed("interruption_p99_ms", p99(live), 3);
            r.int("pings", live.session.pings_done);
            r.int("dropped", dropped(&live.session));
            r.int("resets", live.session.resets);
            r.int("transparency_violations", live.session.transparency_violations);
            r.int("cold_handovers", cold.session.handovers);
            r.fixed("cold_interruption_p50_ms", pct(&cold.interruptions, 50.0), 3);
            r.fixed("cold_interruption_p99_ms", p99(cold), 3);
            r.int("cold_dropped", dropped(&cold.session));
            r.int("cold_resets", cold.session.resets);
            r.int("cold_transparency_violations", cold.session.transparency_violations);
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use testbed::experiments::SessionCounts;

    const FIXTURE: &str = r#"{
  "bench": "migrate",
  "seed": 7,
  "smoke": true,
  "sizes": [
    {"state_bytes_per_request": 0, "migrations": 5, "aborted": 0, "state_bytes_transferred": 0, "flows_flipped": 18, "transfer_p50_ms": 1.000, "transfer_p99_ms": 2.000, "interruption_p50_ms": 1.700, "interruption_p99_ms": 3.400, "pings": 300, "dropped": 0, "resets": 0, "transparency_violations": 0, "cold_handovers": 9, "cold_interruption_p50_ms": 251.000, "cold_interruption_p99_ms": 502.000, "cold_dropped": 0, "cold_resets": 0, "cold_transparency_violations": 0},
    {"state_bytes_per_request": 65536, "migrations": 5, "aborted": 0, "state_bytes_transferred": 6553600, "flows_flipped": 18, "transfer_p50_ms": 425.000, "transfer_p99_ms": 850.000, "interruption_p50_ms": 1.700, "interruption_p99_ms": 3.400, "pings": 300, "dropped": 0, "resets": 0, "transparency_violations": 0, "cold_handovers": 9, "cold_interruption_p50_ms": 450.000, "cold_interruption_p99_ms": 900.000, "cold_dropped": 0, "cold_resets": 0, "cold_transparency_violations": 0}
  ]
}
"#;

    /// Five samples in seconds whose p50 is `p99_ms / 2` and p99 `p99_ms`.
    fn spread(p99_ms: f64) -> Vec<f64> {
        let x = p99_ms / 1e3;
        vec![x / 2.0, x / 2.0, x / 2.0, x, x]
    }

    /// One swept size: the live arm and its cold baseline.
    fn size(
        bytes: u64,
        p99: f64,
        transfer_p99: f64,
        cold_p99: f64,
    ) -> (u64, MigrationStats, MigrationStats) {
        let live = MigrationStats {
            session: SessionCounts { pings_sent: 300, pings_done: 300, ..SessionCounts::default() },
            migrations: 5,
            state_bytes_transferred: bytes * 100,
            flows_flipped: 18,
            interruptions: spread(p99),
            transfers: spread(transfer_p99),
            ..MigrationStats::default()
        };
        let cold = MigrationStats {
            session: SessionCounts { handovers: 9, ..SessionCounts::default() },
            interruptions: spread(cold_p99),
            ..MigrationStats::default()
        };
        (bytes, live, cold)
    }

    #[test]
    fn json_shape_is_stable() {
        let sizes = [size(0, 3.4, 2.0, 502.0), size(65_536, 3.4, 850.0, 900.0)];
        assert_eq!(artifact(7, true, &sizes), FIXTURE);
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
                ("\"resets\": 0", "\"resets\": 1", "sizes[0]: resets == 0"),
                (
                    "\"transparency_violations\": 0",
                    "\"transparency_violations\": 1",
                    "sizes[0]: transparency_violations == 0",
                ),
                (
                    "\"cold_dropped\": 0",
                    "\"cold_dropped\": 1",
                    "sizes[0]: cold_dropped == 0",
                ),
                (
                    "\"cold_resets\": 0",
                    "\"cold_resets\": 1",
                    "sizes[0]: cold_resets == 0",
                ),
                (
                    "\"cold_transparency_violations\": 0",
                    "\"cold_transparency_violations\": 1",
                    "sizes[0]: cold_transparency_violations == 0",
                ),
                (
                    "\"cold_interruption_p99_ms\": 900.000",
                    "\"cold_interruption_p99_ms\": 3.399",
                    "largest size: interruption_p99_ms <= cold_interruption_p99_ms",
                ),
            ],
        );
        let empty = artifact(7, true, &[]);
        let err = gates(&artifact::parse(&empty).unwrap()).unwrap_err();
        assert!(err.contains("`sizes` is missing or empty"), "{err}");
    }

    #[test]
    fn gate_compares_the_largest_size_only() {
        let judge = |sizes: &[_]| gates(&artifact::parse(&artifact(7, true, sizes)).unwrap());
        let mut sizes = vec![size(0, 30.0, 2.0, 10.0), size(65_536, 50.0, 850.0, 10.0)];
        let err = judge(&sizes).unwrap_err();
        assert!(err.contains("largest size: interruption_p99_ms"), "{err}");
        sizes[1].1.interruptions = spread(9.0);
        assert_eq!(judge(&sizes), Ok(()), "a smaller size above cold does not gate");
    }

    #[test]
    fn smoke_run_meets_the_gate_and_scales_linearly() {
        let v = artifact::parse(&run(7, true)).unwrap();
        // Every size migrated live and handed over cold, nothing dropped,
        // live p99 at the largest size no worse than cold.
        assert_eq!(gates(&v), Ok(()));
        let sizes = v["sizes"].as_seq().unwrap();
        assert_eq!(sizes.len(), swept_sizes(true).len());
        let num = artifact::num;
        // Live interruption stays below cold at *every* swept size, not just
        // the largest — the flip cost does not grow with state, while the
        // cold rebuild pays at least a metro round trip even at state zero.
        for p in sizes {
            assert_eq!(
                artifact::le(p, "interruption_p99_ms", "cold_interruption_p99_ms"),
                Some(true),
                "live p99 above cold at {:?} B/req",
                num(p, "state_bytes_per_request")
            );
        }
        // Transfer cost grows with state: strictly more bytes shipped, and
        // no cheaper p99 transfer, at every step up the sweep. The cold
        // rebuild grows alongside — its p99 never shrinks as state grows.
        for w in sizes.windows(2) {
            let grows = |f: &str| num(&w[1], f) >= num(&w[0], f);
            assert!(num(&w[1], "state_bytes_transferred") > num(&w[0], "state_bytes_transferred"));
            assert!(grows("transfer_p99_ms") && grows("cold_interruption_p99_ms"));
        }
    }

    #[test]
    fn repro_artifact_is_deterministic() {
        assert_eq!(run(7, true), run(7, true), "same seed ⇒ same artifact");
    }
}
