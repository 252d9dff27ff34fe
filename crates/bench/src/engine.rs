//! Event-core throughput: the desim calendar queue vs the naive binary heap.
//!
//! Run by `repro engine`, which writes `BENCH_engine.json` and gates it.
//! Three workload shapes, each run over both queue implementations with
//! identical seeds:
//!
//! * **schedule_heavy** — push a large batch of uniformly-spread future
//!   events, then drain. Dominated by insertion cost.
//! * **pop_heavy** — pre-fill the queue (untimed), then time the drain
//!   alone. Dominated by extraction cost.
//! * **mixed** — the mobility-shaped steady state: a fixed pending
//!   population where every pop schedules a successor, 80% near-future
//!   (sub-2 ms timers, frames, ticks) and 20% far-future (idle expiries,
//!   think times). This is the cycle real testbed runs spend their time in
//!   and the one the CI floor gates.
//!
//! The headline acceptance numbers: mixed-workload calendar throughput at
//! least [`MIXED_SPEEDUP_FLOOR`]× the naive baseline measured in the same
//! run, and at least [`EVENTS_PER_SEC_FLOOR`] events/sec absolute (full
//! runs; smoke runs check only the relative bar, which is
//! machine-independent).

use crate::artifact;
use desim::{EventQueue, NaiveEventQueue, SimRng, SimTime};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;
use yamlite::Value;

/// Relative bar: calendar mixed throughput over naive, same run (want ≥ 3).
/// Margin: 36 `repro engine --smoke` runs on a 2-core box read a mixed
/// speedup of 3.52–5.74; of five more inside full CI passes, one read 2.85
/// and failed. The committed full run reads 4.17. The bar is a ratio of two
/// timings taken in one process, so a busy machine can still fail it (ROADMAP
/// item 17).
pub(crate) const MIXED_SPEEDUP_FLOOR: f64 = 3.0;

/// Absolute CI floor on full-run mixed calendar throughput, in events/sec.
/// Set to one quarter of the number measured on the reference machine when
/// this bench landed, so CI machine jitter does not flake the gate while a
/// real regression (a reverted fast path pops at well under half) still
/// trips it. Margin: the committed `BENCH_engine.json` reads 21.8 M, 5.7×
/// the floor; smoke runs, which this floor does not gate, read 13.7–16.9 M
/// on a 2-core box.
pub(crate) const EVENTS_PER_SEC_FLOOR: f64 = 3_800_000.0;

/// One workload measured over both queue implementations.
struct WorkloadPoint {
    /// Workload id: `schedule_heavy`, `pop_heavy`, or `mixed`.
    name: &'static str,
    /// Events pushed through each queue.
    events: usize,
    /// Calendar-queue throughput (events through the queue per wall second).
    calendar_events_per_sec: f64,
    /// Binary-heap reference throughput, same seed and schedule.
    naive_events_per_sec: f64,
    /// Highest pending-event count the workload reaches.
    peak_pending: usize,
}

/// The artifact's gate: the three workloads, each measured on both queues,
/// and the module's two acceptance numbers — the absolute floor on full runs
/// only (it is machine-dependent and smoke runs are scaled down for CI).
pub(crate) fn gates(v: &Value) -> Result<(), String> {
    let expected = BTreeSet::from(["mixed", "pop_heavy", "schedule_heavy"]);
    let names = artifact::names(v, "workloads", "name");
    artifact::clause(
        "workloads are schedule_heavy, pop_heavy, mixed",
        Some(names == expected),
    )?;
    let measured = [
        "calendar_events_per_sec",
        "naive_events_per_sec",
        "peak_pending",
    ];
    artifact::positive(v, "workloads", &measured)?;
    let mixed = |field| artifact::num(artifact::row(v, "workloads", "name", "mixed")?, field);
    artifact::clause(
        "mixed: speedup >= 3.0",
        mixed("speedup").map(|x| x >= MIXED_SPEEDUP_FLOOR),
    )?;
    artifact::clause("has smoke", v["smoke"].as_bool().map(|_| true))?;
    if v["smoke"].as_bool() == Some(false) {
        let floor = artifact::num(v, "events_per_sec_floor");
        artifact::clause(
            "mixed: calendar_events_per_sec >= events_per_sec_floor",
            mixed("calendar_events_per_sec").zip(floor).map(|(x, f)| x >= f),
        )?;
    }
    Ok(())
}

/// The two queue implementations measured, behind one trait so every
/// workload is a single generic function (identical code for both sides).
trait BenchQueue {
    /// Creates a queue pre-sized for `cap` pending events.
    fn with_capacity(cap: usize) -> Self;
    /// Inserts an event to fire at `t`.
    fn push(&mut self, t: SimTime, v: u64);
    /// Removes the earliest event, FIFO among ties.
    fn pop(&mut self) -> Option<(SimTime, u64)>;
}

impl BenchQueue for EventQueue<u64> {
    fn with_capacity(cap: usize) -> Self {
        EventQueue::with_capacity(cap)
    }
    fn push(&mut self, t: SimTime, v: u64) {
        EventQueue::push(self, t, v)
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        EventQueue::pop(self)
    }
}

impl BenchQueue for NaiveEventQueue<u64> {
    fn with_capacity(cap: usize) -> Self {
        NaiveEventQueue::with_capacity(cap)
    }
    fn push(&mut self, t: SimTime, v: u64) {
        NaiveEventQueue::push(self, t, v)
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        NaiveEventQueue::pop(self)
    }
}

/// The mobility-shaped successor delay: 80% near-future (200 µs – 2 ms:
/// frame turnarounds, controller ticks), 20% far (0.5 s – 5 s: idle
/// expiries, client think time). Nanoseconds.
fn mixed_delay(rng: &mut SimRng) -> u64 {
    if rng.below(5) < 4 {
        200_000 + rng.below(1_800_000)
    } else {
        500_000_000 + rng.below(4_500_000_000)
    }
}

/// schedule_heavy: `n` pushes at uniform offsets over a 60 s horizon, then a
/// full drain. Returns (elapsed_secs, peak_pending).
fn run_schedule_heavy<Q: BenchQueue>(n: usize, seed: u64) -> (f64, usize) {
    let mut rng = SimRng::new(seed);
    let mut q = Q::with_capacity(n);
    let start = Instant::now();
    for i in 0..n {
        q.push(SimTime::from_nanos(rng.below(60_000_000_000)), i as u64);
    }
    while let Some(e) = q.pop() {
        black_box(e);
    }
    (start.elapsed().as_secs_f64(), n)
}

/// pop_heavy: pre-fill untimed, time the drain alone.
fn run_pop_heavy<Q: BenchQueue>(n: usize, seed: u64) -> (f64, usize) {
    let mut rng = SimRng::new(seed);
    let mut q = Q::with_capacity(n);
    for i in 0..n {
        q.push(SimTime::from_nanos(rng.below(60_000_000_000)), i as u64);
    }
    let start = Instant::now();
    while let Some(e) = q.pop() {
        black_box(e);
    }
    (start.elapsed().as_secs_f64(), n)
}

/// mixed: steady-state population of `depth` pending events; `n` pop-then-
/// reschedule cycles with mobility-shaped delays. One full population
/// turnover runs untimed first so both queues are measured at steady state
/// (warm slabs, warm caches), not during their fill transient.
fn run_mixed<Q: BenchQueue>(n: usize, depth: usize, seed: u64) -> (f64, usize) {
    let mut rng = SimRng::new(seed);
    let mut q = Q::with_capacity(depth);
    for i in 0..depth {
        q.push(SimTime::from_nanos(mixed_delay(&mut rng)), i as u64);
    }
    for _ in 0..depth {
        let (now, v) = q.pop().expect("population is closed");
        q.push(now + desim::Duration::from_nanos(mixed_delay(&mut rng)), v);
    }
    let start = Instant::now();
    for _ in 0..n {
        let (now, v) = q.pop().expect("population is closed");
        q.push(now + desim::Duration::from_nanos(mixed_delay(&mut rng)), v);
    }
    (start.elapsed().as_secs_f64(), depth)
}

fn point(
    name: &'static str,
    events: usize,
    calendar: (f64, usize),
    naive: (f64, usize),
) -> WorkloadPoint {
    assert_eq!(
        calendar.1, naive.1,
        "both implementations must see the same schedule"
    );
    WorkloadPoint {
        name,
        events,
        calendar_events_per_sec: events as f64 / calendar.0,
        naive_events_per_sec: events as f64 / naive.0,
        peak_pending: calendar.1,
    }
}

/// Runs the full workload matrix over both implementations and returns the
/// `BENCH_engine.json` text. Full runs take
/// a few seconds; `smoke` scales the (ungated) batch workloads down ~20×
/// for CI. The mixed workload is NOT scaled in either dimension: its depth
/// drives the naive heap's `log n` factor (shrinking it would flatter the
/// baseline), and its cycle count keeps the timed section hundreds of
/// milliseconds long (shrinking it would hand the relative gate to
/// scheduler noise).
pub fn run(smoke: bool) -> String {
    let scale = if smoke { 20 } else { 1 };
    artifact(&run_sized(400_000 / scale, 2_000_000, 100_000), smoke)
}

/// Workload matrix with explicit sizes — `run` picks the real ones; tests
/// use tiny counts to exercise the shape without paying measurement time.
fn run_sized(n_batch: usize, n_mixed: usize, depth: usize) -> [WorkloadPoint; 3] {
    let seed = 0xE1137;
    [
        point(
            "schedule_heavy",
            n_batch,
            run_schedule_heavy::<EventQueue<u64>>(n_batch, seed),
            run_schedule_heavy::<NaiveEventQueue<u64>>(n_batch, seed),
        ),
        point(
            "pop_heavy",
            n_batch,
            run_pop_heavy::<EventQueue<u64>>(n_batch, seed),
            run_pop_heavy::<NaiveEventQueue<u64>>(n_batch, seed),
        ),
        point(
            "mixed",
            n_mixed,
            run_mixed::<EventQueue<u64>>(n_mixed, depth, seed),
            run_mixed::<NaiveEventQueue<u64>>(n_mixed, depth, seed),
        ),
    ]
}

/// The `BENCH_engine.json` text: one row per workload, then the absolute
/// events/sec floor the gate holds the mixed row's calendar throughput to
/// (full runs only; smoke runs scale the workload down).
fn artifact(points: &[WorkloadPoint], smoke: bool) -> String {
    let speedup = |p: &WorkloadPoint| p.calendar_events_per_sec / p.naive_events_per_sec;
    artifact::object(|o| {
        o.str("bench", "engine");
        o.bool("smoke", smoke);
        o.rows("workloads", points, |r, p| {
            r.str("name", p.name);
            r.int("events", p.events as u64);
            r.fixed("calendar_events_per_sec", p.calendar_events_per_sec, 0);
            r.fixed("naive_events_per_sec", p.naive_events_per_sec, 0);
            r.fixed("speedup", speedup(p), 2);
            r.int("peak_pending", p.peak_pending as u64);
        });
        o.fixed("events_per_sec_floor", EVENTS_PER_SEC_FLOOR, 0);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURE: &str = r#"{
  "bench": "engine",
  "smoke": true,
  "workloads": [
    {"name": "mixed", "events": 100, "calendar_events_per_sec": 20000000, "naive_events_per_sec": 4000000, "speedup": 5.00, "peak_pending": 50}
  ],
  "events_per_sec_floor": 3800000
}
"#;

    #[test]
    fn json_shape_is_stable() {
        let mixed = WorkloadPoint {
            name: "mixed",
            events: 100,
            calendar_events_per_sec: 2.0e7,
            naive_events_per_sec: 4.0e6,
            peak_pending: 50,
        };
        assert_eq!(artifact(&[mixed], true), FIXTURE);
    }

    #[test]
    fn every_gate_clause_can_fail() {
        // The shape fixture has one workload; the gate wants all three.
        let row = FIXTURE
            .lines()
            .find(|l| l.contains("\"name\": \"mixed\""))
            .unwrap();
        let full = FIXTURE.replace(
            row,
            &format!(
                "{},\n{},\n{row}",
                row.replace("\"mixed\"", "\"schedule_heavy\""),
                row.replace("\"mixed\"", "\"pop_heavy\"")
            ),
        );
        let names = "workloads are schedule_heavy, pop_heavy, mixed";
        artifact::tests::assert_gate_clauses(
            gates,
            &full,
            &[
                ("\"pop_heavy\"", "\"mixed\"", names),
                ("\"schedule_heavy\"", "\"other\"", names),
                (
                    "\"calendar_events_per_sec\": 20000000",
                    "\"calendar_events_per_sec\": 0",
                    "workloads[0]: calendar_events_per_sec > 0",
                ),
                (
                    "\"naive_events_per_sec\": 4000000",
                    "\"naive_events_per_sec\": 0",
                    "workloads[0]: naive_events_per_sec > 0",
                ),
                (
                    "\"peak_pending\": 50",
                    "\"peak_pending\": 0",
                    "workloads[0]: peak_pending > 0",
                ),
                (
                    "\"speedup\": 5.00, \"peak_pending\": 50}\n  ]",
                    "\"speedup\": 2.99, \"peak_pending\": 50}\n  ]",
                    "mixed: speedup >= 3.0",
                ),
                ("  \"smoke\": true,\n", "", "has smoke"),
            ],
        );
        assert!(gates(&artifact::parse(FIXTURE).unwrap())
            .unwrap_err()
            .contains(names));
        // The other rows' speedups do not gate.
        let slow_batch = full.replacen("\"speedup\": 5.00", "\"speedup\": 1.00", 2);
        assert_eq!(gates(&artifact::parse(&slow_batch).unwrap()), Ok(()));
        // The absolute floor binds full runs only, and reads the mixed row.
        let slow = full.replace(
            "\"calendar_events_per_sec\": 20000000, \"naive_events_per_sec\": 4000000, \"speedup\": 5.00, \"peak_pending\": 50}\n  ]",
            "\"calendar_events_per_sec\": 3799999, \"naive_events_per_sec\": 4000000, \"speedup\": 5.00, \"peak_pending\": 50}\n  ]",
        );
        assert_ne!(slow, full);
        assert_eq!(gates(&artifact::parse(&slow).unwrap()), Ok(()));
        let full_run = |text: &str| text.replace("\"smoke\": true", "\"smoke\": false");
        assert_eq!(gates(&artifact::parse(&full_run(&full)).unwrap()), Ok(()));
        let err = gates(&artifact::parse(&full_run(&slow)).unwrap()).unwrap_err();
        assert!(
            err.contains("mixed: calendar_events_per_sec >= events_per_sec_floor"),
            "{err}"
        );
    }

    #[test]
    fn both_queues_agree_on_the_mixed_schedule() {
        // The bench is only meaningful if both sides replay the identical
        // event sequence: a cycle-by-cycle shadow run must match.
        let mut rng_a = SimRng::new(1);
        let mut rng_b = SimRng::new(1);
        let mut a: EventQueue<u64> = BenchQueue::with_capacity(64);
        let mut b: NaiveEventQueue<u64> = BenchQueue::with_capacity(64);
        for i in 0..64u64 {
            a.push(SimTime::from_nanos(mixed_delay(&mut rng_a)), i);
            b.push(SimTime::from_nanos(mixed_delay(&mut rng_b)), i);
        }
        for _ in 0..5_000 {
            let ea = a.pop().unwrap();
            let eb = b.pop().unwrap();
            assert_eq!(ea, eb);
            a.push(ea.0 + desim::Duration::from_nanos(mixed_delay(&mut rng_a)), ea.1);
            b.push(eb.0 + desim::Duration::from_nanos(mixed_delay(&mut rng_b)), eb.1);
        }
    }

    #[test]
    fn smoke_run_emits_all_three_workloads() {
        let text = artifact(&run_sized(2_000, 5_000, 1_000), true);
        let v = artifact::parse(&text).unwrap();
        let names: Vec<_> = v["workloads"]
            .as_seq()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        assert_eq!(names, ["schedule_heavy", "pop_heavy", "mixed"]);
        // Every clause but the speedup floor, which a workload this small
        // cannot promise: all three measured on both queues, smoke flagged.
        match gates(&v) {
            Ok(()) => {}
            Err(e) => assert!(e.contains("mixed: speedup >= 3.0"), "{e}"),
        }
    }
}
