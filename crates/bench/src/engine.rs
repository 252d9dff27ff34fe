//! Event-core throughput of the desim calendar queue.
//!
//! Run by `repro engine`, which writes `BENCH_engine.json` and gates it.
//! Three workload shapes over [`EventQueue`]:
//!
//! * **schedule_heavy** — push a large batch of uniformly-spread future
//!   events, then drain. Dominated by insertion cost.
//! * **pop_heavy** — pre-fill the queue (untimed), then time the drain
//!   alone. Dominated by extraction cost.
//! * **mixed** — the mobility-shaped steady state: a fixed pending
//!   population where every pop schedules a successor, 80% near-future
//!   (sub-2 ms timers, frames, ticks) and 20% far-future (idle expiries,
//!   think times). This is the cycle real testbed runs spend their time in
//!   and the one the gate judges.
//!
//! The acceptance number: mixed-workload throughput of at least
//! [`EVENTS_PER_SEC_FLOOR`] events/sec, in smoke and full runs alike.

use crate::artifact;
use desim::{EventQueue, SimRng, SimTime};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;
use yamlite::Value;

/// Absolute floor on mixed calendar throughput, in events/sec, for smoke
/// and full runs alike (smoke does not scale the mixed workload). Set to
/// one quarter of the number measured on the reference machine when this
/// bench landed, so machine jitter does not flake the gate while a real
/// regression (a reverted fast path pops at well under half) still trips
/// it. Margin on a 2-core box shared with other work: twelve
/// `repro engine --smoke` runs read 13.4–21.9 M, 3.5× the floor or more,
/// and the committed full run 14.5 M.
pub(crate) const EVENTS_PER_SEC_FLOOR: f64 = 3_800_000.0;

/// One workload's measurement.
struct WorkloadPoint {
    /// Workload id: `schedule_heavy`, `pop_heavy`, or `mixed`.
    name: &'static str,
    /// Events pushed through the queue.
    events: usize,
    /// Calendar-queue throughput (events through the queue per wall second).
    calendar_events_per_sec: f64,
    /// Highest pending-event count the workload reaches.
    peak_pending: usize,
}

/// The artifact's gate: the three workloads, each measured, and the mixed
/// row's throughput at or above the absolute floor.
pub(crate) fn gates(v: &Value) -> Result<(), String> {
    let expected = BTreeSet::from(["mixed", "pop_heavy", "schedule_heavy"]);
    let names = artifact::names(v, "workloads", "name");
    artifact::clause(
        "workloads are schedule_heavy, pop_heavy, mixed",
        Some(names == expected),
    )?;
    artifact::positive(v, "workloads", &["calendar_events_per_sec", "peak_pending"])?;
    artifact::clause("has smoke", v["smoke"].as_bool().map(|_| true))?;
    let mixed = artifact::row(v, "workloads", "name", "mixed")
        .and_then(|r| artifact::num(r, "calendar_events_per_sec"));
    artifact::clause(
        "mixed: calendar_events_per_sec >= events_per_sec_floor",
        mixed.zip(artifact::num(v, "events_per_sec_floor")).map(|(x, f)| x >= f),
    )
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
/// full drain. Returns the elapsed seconds.
fn run_schedule_heavy(n: usize, seed: u64) -> f64 {
    let mut rng = SimRng::new(seed);
    let mut q = EventQueue::with_capacity(n);
    let start = Instant::now();
    for i in 0..n {
        q.push(SimTime::from_nanos(rng.below(60_000_000_000)), i as u64);
    }
    while let Some(e) = q.pop() {
        black_box(e);
    }
    start.elapsed().as_secs_f64()
}

/// pop_heavy: pre-fill untimed, time the drain alone.
fn run_pop_heavy(n: usize, seed: u64) -> f64 {
    let mut rng = SimRng::new(seed);
    let mut q = EventQueue::with_capacity(n);
    for i in 0..n {
        q.push(SimTime::from_nanos(rng.below(60_000_000_000)), i as u64);
    }
    let start = Instant::now();
    while let Some(e) = q.pop() {
        black_box(e);
    }
    start.elapsed().as_secs_f64()
}

/// mixed: steady-state population of `depth` pending events; `n` pop-then-
/// reschedule cycles with mobility-shaped delays. One full population
/// turnover runs untimed first so the queue is measured at steady state
/// (warm slabs, warm caches), not during its fill transient.
fn run_mixed(n: usize, depth: usize, seed: u64) -> f64 {
    let mut rng = SimRng::new(seed);
    let mut q = EventQueue::with_capacity(depth);
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
    start.elapsed().as_secs_f64()
}

/// Runs the workload matrix and returns the `BENCH_engine.json` text. Full
/// runs take about a second; `smoke` scales the (ungated) batch workloads
/// down ~20× for CI. The mixed workload is NOT scaled in either dimension:
/// the floor judges it in both runs, and its cycle count keeps the timed
/// section hundreds of milliseconds long (shrinking it would hand the gate
/// to scheduler noise).
pub fn run(smoke: bool) -> String {
    let scale = if smoke { 20 } else { 1 };
    artifact(&run_sized(400_000 / scale, 2_000_000, 100_000), smoke)
}

/// Workload matrix with explicit sizes — `run` picks the real ones; tests
/// use tiny counts to exercise the shape without paying measurement time.
fn run_sized(n_batch: usize, n_mixed: usize, depth: usize) -> [WorkloadPoint; 3] {
    let seed = 0xE1137;
    let point = |name, events, peak_pending, secs: f64| WorkloadPoint {
        name,
        events,
        calendar_events_per_sec: events as f64 / secs,
        peak_pending,
    };
    [
        point("schedule_heavy", n_batch, n_batch, run_schedule_heavy(n_batch, seed)),
        point("pop_heavy", n_batch, n_batch, run_pop_heavy(n_batch, seed)),
        point("mixed", n_mixed, depth, run_mixed(n_mixed, depth, seed)),
    ]
}

/// The `BENCH_engine.json` text: one row per workload, then the absolute
/// events/sec floor the gate holds the mixed row's throughput to.
fn artifact(points: &[WorkloadPoint], smoke: bool) -> String {
    artifact::object(|o| {
        o.str("bench", "engine");
        o.bool("smoke", smoke);
        o.rows("workloads", points, |r, p| {
            r.str("name", p.name);
            r.int("events", p.events as u64);
            r.fixed("calendar_events_per_sec", p.calendar_events_per_sec, 0);
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
    {"name": "mixed", "events": 100, "calendar_events_per_sec": 20000000, "peak_pending": 50}
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
        let floor = "mixed: calendar_events_per_sec >= events_per_sec_floor";
        // The mixed row is the last one.
        let mixed_rate = "\"calendar_events_per_sec\": 20000000, \"peak_pending\": 50}\n  ]";
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
                    "\"peak_pending\": 50",
                    "\"peak_pending\": 0",
                    "workloads[0]: peak_pending > 0",
                ),
                ("  \"smoke\": true,\n", "", "has smoke"),
                // A smoke run is held to the floor as a full run is.
                (mixed_rate, &mixed_rate.replace("20000000", "3799999"), floor),
                ("\"events_per_sec_floor\": 3800000", "\"events_per_sec_floor\": null", floor),
            ],
        );
        assert!(gates(&artifact::parse(FIXTURE).unwrap())
            .unwrap_err()
            .contains(names));
        // The floor reads the mixed row only.
        let slow_batch = full.replacen(
            "\"calendar_events_per_sec\": 20000000",
            "\"calendar_events_per_sec\": 1",
            2,
        );
        assert_eq!(gates(&artifact::parse(&slow_batch).unwrap()), Ok(()));
        // A full run is held to it too.
        let full_run = |text: &str| text.replace("\"smoke\": true", "\"smoke\": false");
        assert_eq!(gates(&artifact::parse(&full_run(&full)).unwrap()), Ok(()));
        let slow = full.replace(mixed_rate, &mixed_rate.replace("20000000", "3799999"));
        let err = gates(&artifact::parse(&full_run(&slow)).unwrap()).unwrap_err();
        assert!(err.contains(floor), "{err}");
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
        // Every clause but the floor, which a debug build need not reach:
        // all three measured, smoke flagged.
        match gates(&v) {
            Ok(()) => {}
            Err(e) => assert!(
                e.contains("mixed: calendar_events_per_sec >= events_per_sec_floor"),
                "{e}"
            ),
        }
    }
}
