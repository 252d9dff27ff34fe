//! Property-based tests for the simulation kernel.

use desim::{
    Duration, EventQueue, Exponential, LogNormal, NaiveEventQueue, Sample, SimRng, SimTime,
    Summary,
};
use proptest::prelude::*;

/// One step of a differential queue schedule: `Push(delay)` schedules an
/// event `delay` ns after the last popped time, `Pop` extracts (a no-op on
/// empty queues so arbitrary sequences stay valid).
#[derive(Clone, Debug)]
enum QueueOp {
    Push(u64),
    Pop,
}

/// Delays spanning every calendar level: same-instant ties, the current
/// bucket (< 131 µs), the near ring (< 134 ms), the far ring (< 137 s), and
/// the overflow spill beyond it.
fn queue_op() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        3 => Just(QueueOp::Pop),
        1 => Just(QueueOp::Push(0)),
        2 => (1u64..100_000).prop_map(QueueOp::Push),
        2 => (100_000u64..100_000_000).prop_map(QueueOp::Push),
        2 => (100_000_000u64..100_000_000_000).prop_map(QueueOp::Push),
        1 => (100_000_000_000u64..500_000_000_000).prop_map(QueueOp::Push),
    ]
}

proptest! {
    /// Differential oracle: the calendar queue and the binary-heap reference
    /// pop identical `(time, payload)` sequences for arbitrary interleaved
    /// push/pop schedules — the determinism contract the engine swap rests
    /// on.
    #[test]
    fn calendar_matches_naive_reference(ops in prop::collection::vec(queue_op(), 1..400)) {
        let mut fast = EventQueue::default();
        let mut naive = NaiveEventQueue::new();
        let mut clock = 0u64;
        for (i, op) in ops.iter().enumerate() {
            match op {
                QueueOp::Push(delay) => {
                    let t = SimTime::from_nanos(clock + delay);
                    fast.push(t, i);
                    naive.push(t, i);
                }
                QueueOp::Pop => {
                    let a = fast.pop();
                    let b = naive.pop();
                    prop_assert_eq!(a, b, "divergence at op {}", i);
                    if let Some((t, _)) = a {
                        clock = t.as_nanos();
                    }
                }
            }
            prop_assert_eq!(fast.len(), naive.len());
            prop_assert_eq!(fast.peek_time(), naive.peek_time());
        }
        loop {
            let a = fast.pop();
            let b = naive.pop();
            prop_assert_eq!(a, b, "divergence during final drain");
            if a.is_none() {
                break;
            }
        }
    }

    /// Popping the queue always yields events in non-decreasing time order,
    /// FIFO among equal timestamps.
    #[test]
    fn queue_pops_sorted_stable(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::default();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, id)) = q.pop() {
            if let Some((lt, lid)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(id > lid, "FIFO violated among ties");
                }
            }
            last = Some((t, id));
        }
    }

    /// Duration float round-trips stay within one nanosecond.
    #[test]
    fn duration_f64_roundtrip(ns in 0u64..10_000_000_000_000) {
        let d = Duration::from_nanos(ns);
        let back = Duration::from_secs_f64(d.as_secs_f64());
        let diff = back.as_nanos().abs_diff(ns);
        // f64 has 53 bits of mantissa; at <= 1e13 ns the error is < 2 ns.
        prop_assert!(diff <= 2, "diff {diff}");
    }

    /// SimTime add/sub are inverses when no saturation happens.
    #[test]
    fn time_add_sub_inverse(base in 0u64..u64::MAX / 2, delta in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(base);
        let d = Duration::from_nanos(delta);
        prop_assert_eq!((t + d) - t, d);
    }

    /// Identically-seeded RNGs produce identical streams; forks differ.
    #[test]
    fn rng_determinism(seed in any::<u64>()) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..32 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// `below(n)` stays below n for arbitrary bounds.
    #[test]
    fn rng_below_in_bounds(seed in any::<u64>(), bound in 1u64..u64::MAX) {
        let mut r = SimRng::new(seed);
        for _ in 0..16 {
            prop_assert!(r.below(bound) < bound);
        }
    }

    /// Samplers never emit NaN and respect their sign constraints.
    #[test]
    fn samplers_are_sane(seed in any::<u64>(), lambda in 0.001f64..100.0, median in 0.001f64..10.0, sigma in 0.0f64..2.0) {
        let mut r = SimRng::new(seed);
        let e = Exponential::new(lambda);
        let ln = LogNormal::from_median(median, sigma);
        for _ in 0..32 {
            let x = e.sample(&mut r);
            prop_assert!(x.is_finite() && x >= 0.0);
            let y = ln.sample(&mut r);
            prop_assert!(y.is_finite() && y > 0.0);
        }
    }

    /// Percentiles are monotone in p and bounded by min/max.
    #[test]
    fn percentiles_monotone(values in prop::collection::vec(-1e6f64..1e6, 1..100)) {
        let s = Summary::new(values);
        let mut prev = f64::NEG_INFINITY;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = s.percentile(p).unwrap();
            prop_assert!(v >= prev);
            prop_assert!(v >= s.min().unwrap() && v <= s.max().unwrap());
            prev = v;
        }
    }

    /// The median of a sorted population sits between the extremes and equals
    /// the middle element for odd-length inputs.
    #[test]
    fn median_is_middle_for_odd(mut values in prop::collection::vec(-1e6f64..1e6, 1..50)) {
        if values.len() % 2 == 0 { values.pop(); }
        let s = Summary::new(values.clone());
        values.sort_by(f64::total_cmp);
        prop_assert_eq!(s.median().unwrap(), values[values.len() / 2]);
    }
}
