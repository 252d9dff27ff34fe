//! Property-based differential test: the indexed `FlowTable` must be
//! observably identical to the naive reference under arbitrary operation
//! sequences. The replay/compare harness lives in `openflow::diff` (shared
//! with the deterministic in-crate sweep that runs in offline builds);
//! proptest contributes seed generation and shrinking.

use proptest::prelude::*;

proptest! {
    /// Random add/delete/lookup/peek/expire sequences
    /// produce identical lookup results, removal records (entries, final
    /// counters, reasons, order — the indexed table's appended to one sink
    /// that already holds every earlier record), table contents, and expiry
    /// scheduling on both implementations; a wildcard delete ends every
    /// sequence. `diff::check_seed` panics with the seed and step on any
    /// divergence.
    #[test]
    fn indexed_table_is_observably_naive(seed in any::<u64>()) {
        openflow::diff::check_seed(seed, 60);
    }

    /// Longer sequences push entries through lazy idle re-arms, stale heap
    /// copies of deleted flows and repeated expiry/reinstall cycles.
    #[test]
    fn long_sequences_stay_equivalent(seed in any::<u64>()) {
        openflow::diff::check_seed(seed, 250);
    }
}
