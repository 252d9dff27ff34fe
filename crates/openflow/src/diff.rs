//! Differential testing of the indexed flow table against the naive one.
//!
//! [`crate::table::FlowTable`] re-implements the seed's linear-scan table
//! ([`crate::naive::NaiveFlowTable`]) with a hash index and a timer wheel.
//! The optimization is only admissible if it is *observably identical*, so
//! this module replays randomized operation sequences — add / modify /
//! modify-strict / delete / lookup / peek / expire over a monotonic clock —
//! against both implementations and asserts, after every step:
//!
//! * identical lookup results (cookie + instructions) and peek results,
//! * identical removal records (entry, final counters, reason, order) from
//!   delete and expiry sweeps — appended by `delete_into` / `expire_into` to
//!   one sink that keeps every earlier record, which must stay untouched —
//!   and a wildcard delete of whatever outlives the final expiry,
//! * identical table contents via [`FlowTable::entries`] (same order:
//!   priority descending, first-added first),
//! * consistent `next_expiry`: equal emptiness, and the indexed value never
//!   later than the naive (exact) one — the wheel's documented lower-bound
//!   contract.
//!
//! The harness is driven two ways: a deterministic in-crate test sweeping
//! 1100 fixed seeds (runs in offline builds), and a `proptest` integration
//! test (`tests/table_diff.rs`) that shrinks failing seeds.

use crate::actions::{Action, Instruction};
use crate::oxm::{Match, MatchView, OxmField};
use crate::table::{entry, FlowTable, Removed};
use crate::NaiveFlowTable;
use desim::{Duration, SimRng, SimTime};

/// Small value pools so random operations collide on matches, priorities and
/// views often enough to exercise replace/modify/tie-break paths.
const IPS: [[u8; 4]; 4] = [[10, 0, 0, 1], [10, 0, 0, 2], [203, 0, 113, 10], [203, 0, 113, 11]];
const PORTS: [u16; 3] = [80, 443, 8080];
const SRC_PORTS: [u16; 3] = [50000, 50001, 50002];

fn random_ip(rng: &mut SimRng) -> [u8; 4] {
    IPS[rng.below(IPS.len() as u64) as usize]
}

fn random_port(rng: &mut SimRng) -> u16 {
    PORTS[rng.below(PORTS.len() as u64) as usize]
}

fn random_match(rng: &mut SimRng) -> Match {
    match rng.below(6) {
        0 => Match::any(),
        1 | 2 => Match::service(random_ip(rng), random_port(rng)),
        3 => {
            let sp = SRC_PORTS[rng.below(3) as usize];
            Match::connection(random_ip(rng), sp, random_ip(rng), random_port(rng))
        }
        4 => Match::any().with(OxmField::TcpDst(random_port(rng))),
        _ => Match::any().with(OxmField::Ipv4Dst(random_ip(rng))),
    }
}

fn random_view(rng: &mut SimRng) -> MatchView {
    MatchView {
        in_port: 1 + rng.below(2) as u32,
        eth_dst: [2, 0, 0, 0, 0, 9],
        eth_src: [2, 0, 0, 0, 0, 1],
        eth_type: if rng.below(10) == 0 { 0x0806 } else { 0x0800 },
        ip_proto: if rng.below(10) == 0 { 17 } else { 6 },
        ipv4_src: random_ip(rng),
        ipv4_dst: random_ip(rng),
        tcp_src: SRC_PORTS[rng.below(3) as usize],
        tcp_dst: random_port(rng),
    }
}

fn random_timeout(rng: &mut SimRng) -> Duration {
    match rng.below(4) {
        0 => Duration::ZERO,
        1 => Duration::from_secs(1),
        2 => Duration::from_secs(3),
        _ => Duration::from_secs(7),
    }
}

fn fwd(port: u32) -> Vec<Instruction> {
    vec![Instruction::ApplyActions(vec![Action::output(port)])]
}

/// The observable fields of a removal record, for exact comparison.
fn removed_key(r: &Removed) -> (u16, u64, Vec<OxmField>, u64, u64, SimTime, SimTime, u8, SimTime) {
    (
        r.entry.priority,
        r.entry.cookie,
        r.entry.match_.fields().to_vec(),
        r.entry.packet_count,
        r.entry.byte_count,
        r.entry.installed_at,
        r.entry.last_hit,
        r.reason as u8,
        r.at,
    )
}

fn assert_removed_eq(naive: &[Removed], indexed: &[Removed], ctx: &str) {
    assert_eq!(
        naive.iter().map(removed_key).collect::<Vec<_>>(),
        indexed.iter().map(removed_key).collect::<Vec<_>>(),
        "{ctx}: removal records diverge"
    );
}

fn assert_tables_eq(naive: &NaiveFlowTable, indexed: &FlowTable, ctx: &str) {
    assert_eq!(naive.len(), indexed.len(), "{ctx}: lengths diverge");
    let n: Vec<_> = naive
        .entries()
        .map(|e| {
            (
                e.priority,
                e.cookie,
                e.match_.fields().to_vec(),
                e.instructions.clone(),
                e.packet_count,
                e.byte_count,
                e.installed_at,
                e.last_hit,
            )
        })
        .collect();
    let i: Vec<_> = indexed
        .entries()
        .map(|e| {
            (
                e.priority,
                e.cookie,
                e.match_.fields().to_vec(),
                e.instructions.clone(),
                e.packet_count,
                e.byte_count,
                e.installed_at,
                e.last_hit,
            )
        })
        .collect();
    assert_eq!(n, i, "{ctx}: entries diverge");
    match (naive.next_expiry(), indexed.next_expiry()) {
        (None, None) => {}
        (Some(exact), Some(bound)) => assert!(
            bound <= exact,
            "{ctx}: wheel bound {bound} later than exact next expiry {exact}"
        ),
        (n, i) => panic!("{ctx}: next_expiry emptiness diverges: naive {n:?}, indexed {i:?}"),
    }
}

/// Replays one random sequence of `ops` operations (derived from `seed`)
/// against both table implementations, panicking on any observable
/// divergence. Returns the number of operations that found at least one
/// matching flow, as a coverage signal for the caller.
pub fn check_seed(seed: u64, ops: usize) -> usize {
    let mut rng = SimRng::new(seed);
    let mut naive = NaiveFlowTable::new();
    let mut indexed = FlowTable::new();
    let mut now = SimTime::ZERO;
    let mut cookie = 0u64;
    let mut hits = 0usize;
    // Every removal so far, in order: the indexed table appends to `sink`.
    let (mut removed, mut sink) = (Vec::new(), Vec::new());
    for step in 0..ops {
        now += Duration::from_nanos(rng.below(1_500_000_000));
        let ctx = format!("seed {seed} step {step}");
        match rng.below(10) {
            0..=2 => {
                cookie += 1;
                let e = entry(
                    random_match(&mut rng),
                    (rng.below(4) * 5) as u16,
                    cookie,
                    fwd(rng.below(8) as u32),
                    random_timeout(&mut rng),
                    random_timeout(&mut rng),
                    0,
                );
                naive.add(e.clone(), now);
                indexed.add(e, now);
            }
            3 => {
                let m = random_match(&mut rng);
                let instr = fwd(100 + rng.below(8) as u32);
                let a = naive.modify(&m, &instr);
                let b = indexed.modify(&m, &instr);
                assert_eq!(a, b, "{ctx}: modify counts diverge");
                hits += (a > 0) as usize;
            }
            4 => {
                let m = random_match(&mut rng);
                let p = (rng.below(4) * 5) as u16;
                let instr = fwd(200 + rng.below(8) as u32);
                let a = naive.modify_strict(&m, p, &instr);
                let b = indexed.modify_strict(&m, p, &instr);
                assert_eq!(a, b, "{ctx}: modify_strict counts diverge");
                hits += (a > 0) as usize;
            }
            5 => {
                let m = random_match(&mut rng);
                let a = naive.delete(&m, now);
                hits += (!a.is_empty()) as usize;
                removed.extend(a);
                indexed.delete_into(&m, now, &mut sink);
                assert_removed_eq(&removed, &sink, &ctx);
            }
            6 | 7 => {
                let v = random_view(&mut rng);
                let len = 64 + rng.below(1400) as usize;
                let a = naive.lookup(&v, len, now);
                let b = indexed.lookup(&v, len, now).map(|(c, i)| (c, i.to_vec()));
                assert_eq!(a, b, "{ctx}: lookup results diverge");
                hits += a.is_some() as usize;
            }
            8 => {
                let a = naive.expire(now);
                hits += (!a.is_empty()) as usize;
                removed.extend(a);
                indexed.expire_into(now, &mut sink);
                assert_removed_eq(&removed, &sink, &ctx);
            }
            _ => {
                let v = random_view(&mut rng);
                let a = naive.peek(&v).map(|e| (e.priority, e.cookie));
                let b = indexed.peek(&v).map(|e| (e.priority, e.cookie));
                assert_eq!(a, b, "{ctx}: peek results diverge");
                hits += a.is_some() as usize;
            }
        }
        assert_tables_eq(&naive, &indexed, &ctx);
    }
    // Final drain: everything must expire identically far in the future.
    let end = now + Duration::from_secs(3600);
    assert_removed_eq(&naive.expire(end), &indexed.expire(end), "final drain");
    assert_tables_eq(&naive, &indexed, "after final drain");
    // The flows without a timeout are left: the wildcard delete takes them.
    removed.extend(naive.delete(&Match::any(), end));
    indexed.delete_into(&Match::any(), end, &mut sink);
    assert_removed_eq(&removed, &sink, "wildcard delete");
    assert_tables_eq(&naive, &indexed, "after wildcard delete");
    assert!(indexed.is_empty(), "a wildcard delete empties the table");
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Longer sequences stress wheel cascades and repeated expiry.
    #[test]
    fn indexed_table_matches_naive_on_long_sequences() {
        for seed in [7, 1234, 987654] {
            check_seed(seed, 400);
        }
    }
}
