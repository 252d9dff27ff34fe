//! The replay-and-compare harness of the differential test: the indexed
//! `openflow::FlowTable` against the seed's linear-scan table
//! ([`super::naive::NaiveFlowTable`]).
//!
//! The indexed table is only admissible if it is *observably identical*, so
//! [`check_seed`] replays a randomized operation sequence — add / delete /
//! lookup / peek / expire over a monotonic clock, the operations the
//! switch's `FLOW_MOD` Add and Delete and its expiry sweep perform —
//! against both tables and asserts, after every step:
//!
//! * identical lookup results (cookie + actions) and peek results,
//! * identical removal records (entry, final counters, reason, order) from
//!   delete and expiry sweeps — appended by `delete_into` / `expire_into` to
//!   one sink that keeps every earlier record, which must stay untouched —
//!   and a wildcard delete of whatever outlives the final expiry,
//! * identical table contents via `FlowTable::entries` (same order:
//!   priority descending, first-added first),
//! * consistent `next_expiry`: equal emptiness, and the indexed value never
//!   later than the naive (exact) one — the timer heap's documented
//!   lower-bound contract.

use super::naive::NaiveFlowTable;
use desim::{Duration, SimRng, SimTime};
use openflow::oxm::OxmField;
use openflow::table::{entry, FlowTable, Removed};
use openflow::{Action, Actions, Match, MatchView};

/// Small value pools so random operations collide on matches, priorities and
/// views often enough to exercise replace/tie-break paths.
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
    match rng.below(7) {
        0 => Match::any(),
        1 | 2 => Match::service(random_ip(rng), random_port(rng)),
        // The service match spelled in reverse: the same set, so an Add of
        // one replaces the other and a Delete of one removes both.
        6 => {
            let mut fields: Vec<_> =
                Match::service(random_ip(rng), random_port(rng)).fields().collect();
            fields.reverse();
            Match::of(fields)
        }
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

fn fwd(port: u32) -> Actions {
    Actions::from([Action::output(port)])
}

/// The observable fields of a removal record, for exact comparison.
fn removed_key(r: &Removed) -> (u16, u64, Match, u64, u64, SimTime, SimTime, u8, SimTime) {
    (
        r.entry.priority,
        r.entry.cookie,
        r.entry.match_,
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
                e.match_,
                e.actions,
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
                e.match_,
                e.actions,
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
            "{ctx}: heap bound {bound} later than exact next expiry {exact}"
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
        match rng.below(8) {
            0..=2 => {
                cookie += 1;
                let e = entry(
                    random_match(&mut rng),
                    (rng.below(4) * 5) as u16,
                    cookie,
                    fwd(rng.below(8) as u32),
                    random_timeout(&mut rng),
                    0,
                );
                naive.add(e, now);
                indexed.add(e, now);
            }
            3 => {
                let m = random_match(&mut rng);
                let a = naive.delete(&m, now);
                hits += (!a.is_empty()) as usize;
                removed.extend(a);
                indexed.delete_into(&m, now, &mut sink);
                assert_removed_eq(&removed, &sink, &ctx);
            }
            4 | 5 => {
                let v = random_view(&mut rng);
                let len = 64 + rng.below(1400) as usize;
                let a = naive.lookup(&v, len, now);
                let b = indexed.lookup(&v, len, now).map(|(c, a)| (c, a.iter().copied().collect()));
                assert_eq!(a, b, "{ctx}: lookup results diverge");
                hits += a.is_some() as usize;
            }
            6 => {
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
    let mut drained = Vec::new();
    indexed.expire_into(end, &mut drained);
    assert_removed_eq(&naive.expire(end), &drained, "final drain");
    assert_tables_eq(&naive, &indexed, "after final drain");
    // The flows without a timeout are left: the wildcard delete takes them.
    removed.extend(naive.delete(&Match::any(), end));
    indexed.delete_into(&Match::any(), end, &mut sink);
    assert_removed_eq(&removed, &sink, "wildcard delete");
    assert_tables_eq(&naive, &indexed, "after wildcard delete");
    assert!(indexed.is_empty(), "a wildcard delete empties the table");
    hits
}
