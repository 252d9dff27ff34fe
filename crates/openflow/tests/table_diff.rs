//! Differential test: the indexed `FlowTable` must be observably identical
//! to the seed's linear-scan table under arbitrary operation sequences. The
//! reference table (`support::naive`) and the replay/compare harness
//! (`support::diff`) live only here; a deterministic sweep of fixed seeds
//! runs in every build, and proptest contributes seed generation and
//! shrinking.

mod support {
    pub mod diff;
    pub mod naive;
}

use proptest::prelude::*;
use support::diff::check_seed;

/// The deterministic differential sweep: 1100 seeded random sequences,
/// each 40 operations, replayed against both implementations. Any
/// observable divergence (lookup result, removal record, entry order,
/// counter, expiry emptiness) panics with the seed and step.
#[test]
fn indexed_table_matches_naive_on_1100_random_sequences() {
    let mut total_hits = 0;
    for seed in 0..1100 {
        total_hits += check_seed(seed, 40);
    }
    // Coverage sanity: the pools are tight enough that a healthy share
    // of operations actually touch installed flows.
    assert!(
        total_hits > 5000,
        "suspiciously low coverage: {total_hits} effective ops"
    );
}

/// Longer sequences stress lazy re-arms and repeated expiry.
#[test]
fn indexed_table_matches_naive_on_long_sequences() {
    for seed in [7, 1234, 987654] {
        check_seed(seed, 400);
    }
}

proptest! {
    /// Random add/delete/lookup/peek/expire sequences
    /// produce identical lookup results, removal records (entries, final
    /// counters, reasons, order — the indexed table's appended to one sink
    /// that already holds every earlier record), table contents, and expiry
    /// scheduling on both implementations; a wildcard delete ends every
    /// sequence. `check_seed` panics with the seed and step on any
    /// divergence.
    #[test]
    fn indexed_table_is_observably_naive(seed in any::<u64>()) {
        check_seed(seed, 60);
    }

    /// Longer sequences push entries through lazy idle re-arms, stale heap
    /// copies of deleted flows and repeated expiry/reinstall cycles.
    #[test]
    fn long_sequences_stay_equivalent(seed in any::<u64>()) {
        check_seed(seed, 250);
    }
}
