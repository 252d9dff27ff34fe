//! Microbenchmarks of the desim event core: the calendar queue against the
//! naive binary-heap reference over the workload shapes the simulator
//! actually produces (steady-state pop/reschedule cycles, batch scheduling,
//! full drains) at several pending depths.
//!
//! After the criterion groups run, `main` emits `BENCH_engine.json` at the
//! repository root (via [`bench::engine`]) so the headline events/sec
//! numbers and the mixed-workload speedup are tracked across PRs.

use bench::engine::BenchQueue;
use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use desim::{Duration, EventQueue, NaiveEventQueue, SimRng, SimTime};

/// The mobility-shaped successor delay (80% 200 µs – 2 ms, 20% 0.5 – 5 s),
/// matching `bench::engine`'s mixed workload.
fn mixed_delay(rng: &mut SimRng) -> u64 {
    if rng.below(5) < 4 {
        200_000 + rng.below(1_800_000)
    } else {
        500_000_000 + rng.below(4_500_000_000)
    }
}

/// A queue pre-filled to `depth` pending events and cycled once so both
/// implementations are measured at steady state.
fn warm_queue<Q: BenchQueue>(depth: usize) -> (Q, SimRng) {
    let mut rng = SimRng::new(0xE1137);
    let mut q = Q::with_capacity(depth);
    for i in 0..depth {
        q.push(SimTime::from_nanos(mixed_delay(&mut rng)), i as u64);
    }
    for _ in 0..depth {
        let (now, v) = q.pop().unwrap();
        q.push(now + Duration::from_nanos(mixed_delay(&mut rng)), v);
    }
    (q, rng)
}

fn bench_mixed_cycle(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_mixed_cycle");
    g.sample_size(10);
    for depth in [1_000usize, 100_000] {
        let (mut cal, mut rng_c) = warm_queue::<EventQueue<u64>>(depth);
        g.bench_with_input(BenchmarkId::new("calendar", depth), &depth, |b, _| {
            b.iter(|| {
                let (now, v) = cal.pop().unwrap();
                cal.push(now + Duration::from_nanos(mixed_delay(&mut rng_c)), v);
                black_box(now)
            })
        });
        let (mut naive, mut rng_n) = warm_queue::<NaiveEventQueue<u64>>(depth);
        g.bench_with_input(BenchmarkId::new("naive", depth), &depth, |b, _| {
            b.iter(|| {
                let (now, v) = naive.pop().unwrap();
                naive.push(now + Duration::from_nanos(mixed_delay(&mut rng_n)), v);
                black_box(now)
            })
        });
    }
    g.finish();
}

fn bench_schedule_drain(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_schedule_drain");
    g.sample_size(10);
    let n = 100_000usize;
    g.bench_function("calendar", |b| {
        b.iter_with_setup(
            || SimRng::new(0xE1137),
            |mut rng| {
                let mut q: EventQueue<u64> = EventQueue::with_capacity(n);
                for i in 0..n {
                    q.push(SimTime::from_nanos(rng.below(60_000_000_000)), i as u64);
                }
                while let Some(e) = q.pop() {
                    black_box(e);
                }
            },
        )
    });
    g.bench_function("naive", |b| {
        b.iter_with_setup(
            || SimRng::new(0xE1137),
            |mut rng| {
                let mut q: NaiveEventQueue<u64> = NaiveEventQueue::with_capacity(n);
                for i in 0..n {
                    q.push(SimTime::from_nanos(rng.below(60_000_000_000)), i as u64);
                }
                while let Some(e) = q.pop() {
                    black_box(e);
                }
            },
        )
    });
    g.finish();
}

criterion_group!(benches, bench_mixed_cycle, bench_schedule_drain);

fn main() {
    benches();
    Criterion::default().configure_from_args().final_summary();
    // Emit the machine-readable summary for the perf trajectory.
    let text = bench::engine::run(false);
    print!("{text}");
    if let Err(e) = bench::artifact::write("BENCH_engine.json", &text) {
        eprintln!("{e}");
    }
}
