//! Data-plane fast-path measurement: naive vs indexed flow table, plus a
//! repeated packet through the full switch path, at several table sizes.
//!
//! Run by `repro fastpath`, which writes `BENCH_flowtable.json` and gates it;
//! the switch is driven through its `_into` entry points, as the harness does.
//! The headline acceptance number lives here: indexed lookup at 100k
//! installed flows within 3× of the 10-flow cost (size-independent
//! exact-match classification).

use crate::artifact;
use desim::{Duration, SimTime};
use netsim::addr::{Ipv4Addr, MacAddr, ServiceAddr};
use netsim::TcpFrame;
use openflow::actions::{Action, Instruction};
use openflow::messages::{FlowModCommand, Message};
use openflow::oxm::{Match, MatchView};
use openflow::table::{entry, FlowEntry, FlowTable};
use openflow::{NaiveFlowTable, OFP_NO_BUFFER};
use ovs::{Effect, Switch, SwitchConfig};
use std::hint::black_box;
use std::time::Instant;
use yamlite::Value;

/// Measurements at one table size (all ns per operation).
struct SizePoint {
    /// Installed flow count.
    flows: usize,
    /// Seed implementation: linear scan over the sorted `Vec`.
    naive_lookup_ns: f64,
    /// Indexed table: tuple-space hash classification.
    indexed_lookup_ns: f64,
    /// Full switch path for a repeated packet: parse and verify, classify
    /// in the indexed table, run the actions in place.
    switch_hit_ns: f64,
}

/// The artifact's gate. CI never judged this artifact and its acceptance
/// number is a wall-clock ratio, so the gate is shape only: every lookup
/// timed at every size.
pub fn gates(v: &Value) -> Result<(), String> {
    let timed = ["flows", "naive_lookup_ns", "indexed_lookup_ns", "switch_hit_ns"];
    artifact::positive(v, "sizes", &timed)
}

/// The i-th per-connection redirect flow (distinct src ip/port for every
/// `i < 8M`, all sharing the service-side destination — the shape the
/// controller actually installs).
fn connection_entry(i: usize) -> FlowEntry {
    let m = Match::connection(src_ip(i), src_port(i), [203, 0, 113, 10], 80);
    entry(
        m,
        100,
        i as u64,
        vec![Instruction::ApplyActions(vec![Action::output(2)])],
        Duration::from_secs(600),
        Duration::ZERO,
        0,
    )
}

fn src_ip(i: usize) -> [u8; 4] {
    [192, 168, (i >> 8) as u8, i as u8]
}

fn src_port(i: usize) -> u16 {
    50_000 + (i % 1000) as u16
}

/// The packet view that hits flow `i`.
fn view_for(i: usize) -> MatchView {
    MatchView {
        in_port: 1,
        eth_dst: [2, 0, 0, 0, 0, 9],
        eth_src: [2, 0, 0, 0, 0, 1],
        eth_type: 0x0800,
        ip_proto: 6,
        ipv4_src: src_ip(i),
        ipv4_dst: [203, 0, 113, 10],
        tcp_src: src_port(i),
        tcp_dst: 80,
    }
}

/// A spread of views hitting flows across the whole table, so the naive
/// linear scan is measured at its *average* depth, not its best case.
fn sample_views(size: usize) -> Vec<MatchView> {
    let n = size.min(256);
    (0..n).map(|k| view_for(k * size / n)).collect()
}

/// Wall-clock nanoseconds per call of `op`, over `iters` calls.
pub(crate) fn ns_per_op(iters: usize, mut op: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for k in 0..iters {
        op(k);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// A switch preloaded (through the real control channel) with `size`
/// per-connection flows.
fn loaded_switch(size: usize) -> Switch {
    let mut sw = Switch::new(SwitchConfig {
        datapath_id: 1,
        n_buffers: 64,
        miss_send_len: 128,
        ports: vec![1, 2],
    });
    // Unbuffered Adds answer nothing: the sink stays empty.
    let mut effects = Vec::new();
    for i in 0..size {
        let e = connection_entry(i);
        let fm = Message::FlowMod {
            cookie: e.cookie,
            table_id: 0,
            command: FlowModCommand::Add,
            idle_timeout: 600,
            hard_timeout: 0,
            priority: e.priority,
            buffer_id: OFP_NO_BUFFER,
            flags: 0,
            match_: e.match_,
            instructions: e.instructions,
        };
        sw.handle_controller_into(SimTime::ZERO, &fm.encode(i as u32), &mut effects)
            .expect("flow-mod accepted");
    }
    sw
}

/// Times `iters` warm hits through the full switch path — a copy of a frame
/// of the connection in the middle of a table of `size` flows, into a sink
/// emptied before each call — and returns ns per hit and the last call's
/// effects. This bench's `switch_hit_ns` and [`crate::telemetry`]'s yardstick.
pub(crate) fn switch_hit(size: usize, iters: usize) -> (f64, Vec<Effect>) {
    let mut sw = loaded_switch(size);
    let frame = TcpFrame::syn(
        MacAddr::from_id(1),
        MacAddr::from_id(100),
        Ipv4Addr(src_ip(size / 2)),
        src_port(size / 2),
        ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80),
    )
    .encode();
    let mut effects = Vec::with_capacity(1);
    let ns = ns_per_op(iters, |_| {
        effects.clear();
        sw.handle_frame_into(SimTime::ZERO, 1, black_box(&frame).clone(), &mut effects);
        black_box(&effects);
    });
    (ns, effects)
}

/// Runs the measurement matrix at 10, 1k and 100k flows and returns the
/// `BENCH_flowtable.json` text, with iteration counts scaled so the naive
/// O(n) baseline stays tractable at 100k flows (a few seconds in all).
pub fn run() -> String {
    artifact(&run_sized(&[10, 1_000, 100_000]))
}

/// The measurement at explicit table sizes — `run` picks the real ones;
/// tests use small ones.
fn run_sized(sizes: &[usize]) -> Vec<SizePoint> {
    sizes.iter().map(|&size| {
        let entries: Vec<FlowEntry> = (0..size).map(connection_entry).collect();
        let mut naive = NaiveFlowTable::with_entries(entries.clone(), SimTime::ZERO);
        let mut indexed = FlowTable::new();
        for e in entries {
            indexed.add(e, SimTime::ZERO);
        }
        let views = sample_views(size);
        let naive_iters = (20_000_000 / size).clamp(200, 200_000);
        let naive_lookup_ns = ns_per_op(naive_iters, |k| {
            black_box(naive.lookup(black_box(&views[k % views.len()]), 64, SimTime::ZERO));
        });
        let indexed_lookup_ns = ns_per_op(200_000, |k| {
            black_box(indexed.lookup(black_box(&views[k % views.len()]), 64, SimTime::ZERO));
        });
        let (switch_hit_ns, _) = switch_hit(size, 100_000);
        SizePoint {
            flows: size,
            naive_lookup_ns,
            indexed_lookup_ns,
            switch_hit_ns,
        }
    })
    .collect()
}

/// The `BENCH_flowtable.json` text: one row per table size, then the
/// indexed-lookup cost ratio of the largest size over the smallest — the
/// "size-independence" acceptance number (want: ≤ 3).
fn artifact(points: &[SizePoint]) -> String {
    let indexed_ns = |p: Option<&SizePoint>| p.map_or(1.0, |p| p.indexed_lookup_ns);
    artifact::object(|o| {
        o.str("bench", "flowtable");
        o.rows("sizes", points, |r, p| {
            r.int("flows", p.flows as u64);
            r.fixed("naive_lookup_ns", p.naive_lookup_ns, 1);
            r.fixed("indexed_lookup_ns", p.indexed_lookup_ns, 1);
            r.fixed("switch_hit_ns", p.switch_hit_ns, 1);
        });
        o.fixed(
            "indexed_100k_over_10_ratio",
            indexed_ns(points.last()) / indexed_ns(points.first()),
            3,
        );
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURE: &str = r#"{
  "bench": "flowtable",
  "sizes": [
    {"flows": 10, "naive_lookup_ns": 12.5, "indexed_lookup_ns": 30.0, "switch_hit_ns": 100.0}
  ],
  "indexed_100k_over_10_ratio": 1.000
}
"#;

    #[test]
    fn json_shape_is_stable() {
        let ten = SizePoint {
            flows: 10,
            naive_lookup_ns: 12.5,
            indexed_lookup_ns: 30.0,
            switch_hit_ns: 100.0,
        };
        assert_eq!(artifact(&[ten]), FIXTURE);
    }

    #[test]
    fn a_small_run_passes_the_gate_and_times_a_hit() {
        let text = artifact(&run_sized(&[10, 100]));
        assert_eq!(gates(&artifact::parse(&text).unwrap()), Ok(()));
        for size in [10, 100] {
            let (_, effects) = switch_hit(size, 2);
            assert!(matches!(effects[..], [Effect::Forward { port: 2, .. }]), "{effects:?}");
        }
    }

    #[test]
    fn every_gate_clause_can_fail() {
        artifact::tests::assert_gate_clauses(
            gates,
            FIXTURE,
            &[
                ("\"flows\": 10,", "\"flows\": 0,", "sizes[0]: flows > 0"),
                (
                    "\"naive_lookup_ns\": 12.5",
                    "\"naive_lookup_ns\": 0.0",
                    "sizes[0]: naive_lookup_ns > 0",
                ),
                (
                    "\"indexed_lookup_ns\": 30.0",
                    "\"indexed_lookup_ns\": 0.0",
                    "sizes[0]: indexed_lookup_ns > 0",
                ),
                (
                    "\"switch_hit_ns\": 100.0",
                    "\"switch_hit_ns\": null",
                    "sizes[0]: switch_hit_ns > 0",
                ),
            ],
        );
    }
}
