//! Microbenchmarks of the data-plane hot paths: flow-table lookup (naive
//! linear scan vs indexed classification), OXM match handling,
//! frame/OpenFlow codec throughput, expiry sweeps, and the table's steady
//! state under connection churn.
//!
//! After the criterion groups run, `main` emits `BENCH_flowtable.json` at
//! the repository root (via [`bench::fastpath`], which also times a repeated
//! packet through the full switch path) so the headline ns/op numbers are
//! tracked across PRs.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use desim::{Duration, SimTime};
use netsim::addr::{Ipv4Addr, MacAddr, ServiceAddr};
use netsim::TcpFrame;
use openflow::actions::{Action, Instruction};
use openflow::messages::Message;
use openflow::oxm::{Match, MatchView};
use openflow::table::{entry, FlowEntry, FlowTable};
use openflow::NaiveFlowTable;

fn view(dst_port: u16) -> MatchView {
    MatchView {
        in_port: 1,
        eth_dst: [2, 0, 0, 0, 0, 9],
        eth_src: [2, 0, 0, 0, 0, 1],
        eth_type: 0x0800,
        ip_proto: 6,
        ipv4_src: [192, 168, 1, 20],
        ipv4_dst: [203, 0, 113, 10],
        tcp_src: 50000,
        tcp_dst: dst_port,
    }
}

fn flow_entries(n: usize) -> Vec<FlowEntry> {
    (0..n)
        .map(|i| {
            let m = Match::connection(
                [192, 168, (i >> 8) as u8, i as u8],
                50000 + (i % 1000) as u16,
                [203, 0, 113, 10],
                80,
            );
            entry(
                m,
                100,
                i as u64,
                vec![Instruction::ApplyActions(vec![Action::output(2)])],
                Duration::from_secs(600),
                Duration::ZERO,
                0,
            )
        })
        .collect()
}

fn table_with(n: usize) -> FlowTable {
    let mut t = FlowTable::new();
    for e in flow_entries(n) {
        t.add(e, SimTime::ZERO);
    }
    t
}

/// The view hitting the flow at index `i` of `flow_entries`.
fn hit_view(i: usize) -> MatchView {
    let mut v = view(80);
    v.ipv4_src = [192, 168, (i >> 8) as u8, i as u8];
    v.tcp_src = 50000 + (i % 1000) as u16;
    v
}

fn bench_flow_lookup(c: &mut Criterion) {
    let mut g = c.benchmark_group("flowtable_lookup");
    g.sample_size(10);
    for n in [10usize, 1024, 100_000] {
        let mut naive = NaiveFlowTable::with_entries(flow_entries(n), SimTime::ZERO);
        let mut indexed = table_with(n);
        // Mid-table hit: the naive scan's average-depth case; the indexed
        // table's cost is the same wherever the entry sits.
        let v = hit_view(n / 2);
        g.bench_with_input(BenchmarkId::new("naive_hit", n), &n, |b, _| {
            b.iter(|| black_box(naive.lookup(black_box(&v), 64, SimTime::ZERO)))
        });
        g.bench_with_input(BenchmarkId::new("indexed_hit", n), &n, |b, _| {
            // The instructions are a borrow of the entry and cannot leave
            // the closure; the cookie stands for the lookup's result.
            b.iter(|| indexed.lookup(black_box(&v), 64, SimTime::ZERO).map(|(cookie, _)| cookie))
        });
        let miss = view(9999);
        g.bench_with_input(BenchmarkId::new("indexed_miss", n), &n, |b, _| {
            b.iter(|| indexed.lookup(black_box(&miss), 64, SimTime::ZERO).map(|(cookie, _)| cookie))
        });
    }
    g.finish();
}

fn bench_codecs(c: &mut Criterion) {
    let frame = {
        let mut f = TcpFrame::syn(
            MacAddr::from_id(1),
            MacAddr::from_id(2),
            Ipv4Addr::new(192, 168, 1, 20),
            50000,
            ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80),
        );
        f.payload = vec![0x47; 512];
        f
    };
    let bytes = frame.encode();
    c.bench_function("frame_encode_512B", |b| b.iter(|| black_box(frame.encode())));
    c.bench_function("frame_decode_512B", |b| {
        b.iter(|| black_box(TcpFrame::decode(black_box(&bytes)).unwrap()))
    });

    let fm = Message::FlowMod {
        cookie: 1,
        table_id: 0,
        command: openflow::messages::FlowModCommand::Add,
        idle_timeout: 10,
        hard_timeout: 0,
        priority: 100,
        buffer_id: openflow::OFP_NO_BUFFER,
        flags: 0,
        match_: Match::connection([192, 168, 1, 20], 50000, [203, 0, 113, 10], 80),
        instructions: vec![Instruction::ApplyActions(vec![
            Action::SetField(openflow::oxm::OxmField::Ipv4Dst([10, 0, 0, 5])),
            Action::SetField(openflow::oxm::OxmField::TcpDst(31000)),
            Action::output(2),
        ])],
    };
    let fm_bytes = fm.encode(1);
    c.bench_function("flowmod_encode", |b| b.iter(|| black_box(fm.encode(1))));
    c.bench_function("flowmod_decode", |b| {
        b.iter(|| black_box(Message::decode(black_box(&fm_bytes)).unwrap()))
    });
}

fn bench_expiry(c: &mut Criterion) {
    c.bench_function("flowtable_expire_1024", |b| {
        b.iter_with_setup(
            || table_with(1024),
            |mut t| {
                black_box(t.expire(SimTime::from_secs(700)));
                t
            },
        )
    });
    // Sweep with nothing due: the timer wheel makes this O(slots crossed),
    // not O(entries) — the common case in the event loop.
    c.bench_function("flowtable_expire_idle_sweep_100k", |b| {
        let mut t = table_with(100_000);
        b.iter(|| black_box(t.expire(SimTime::from_secs(1))))
    });
}

/// The flow table's steady state under connection churn (`e2ebench`'s
/// `flow_churn`): 40 000 exact-connection flows resident, and per iteration
/// one flow installed, hit three times, and the oldest one idling out — so
/// the table's size stays put while its entries turn over. One flow is
/// installed every 2 ms under an 80 s idle timeout.
fn bench_churn(c: &mut Criterion) {
    const RESIDENT: u32 = 40_000;
    let tick = Duration::from_millis(2);
    let client = |i: u32| {
        let [_, b, c, d] = i.to_be_bytes();
        [10, b, c, d]
    };
    let connection = |i: u32| {
        let m = Match::connection(client(i), 50000, [203, 0, 113, 10], 80);
        let out = vec![Instruction::ApplyActions(vec![Action::output(2)])];
        entry(m, 100, u64::from(i), out, tick * u64::from(RESIDENT), Duration::ZERO, 0)
    };
    c.bench_function("flowtable_churn_40k", |b| {
        let mut t = FlowTable::new();
        let mut now = SimTime::ZERO;
        for i in 0..RESIDENT {
            t.add(connection(i), now);
            now += tick;
        }
        let mut next = RESIDENT;
        b.iter(|| {
            t.add(connection(next), now);
            let mut v = view(80);
            v.ipv4_src = client(next);
            for len in [64, 1500, 64] {
                t.lookup(black_box(&v), len, now).expect("just installed");
            }
            let expired = t.expire(now);
            assert_eq!((expired.len(), t.len()), (1, RESIDENT as usize));
            next += 1;
            now += tick;
            expired
        })
    });
}

criterion_group!(
    benches,
    bench_flow_lookup,
    bench_codecs,
    bench_expiry,
    bench_churn
);

fn main() {
    benches();
    Criterion::default().configure_from_args().final_summary();
    // Emit the machine-readable summary for the perf trajectory.
    let text = bench::fastpath::run();
    print!("{text}");
    if let Err(e) = bench::artifact::write("BENCH_flowtable.json", &text) {
        eprintln!("{e}");
    }
}
