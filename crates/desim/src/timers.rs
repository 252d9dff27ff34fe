//! Timer heap for idle expiries: a binary min-heap of `(deadline, key)` copies
//! and a count of armed keys. Disarms and idle refreshes are lazy: the owner
//! knows which copy is current and the key's deadline now, and a sweep refiles
//! a refreshed copy, so after it [`TimerHeap::next_deadline`] is exact.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// One filed copy, ordered on its deadline alone, reversed for std's max-heap.
/// No sequence number breaks ties: both owners sort what a sweep returns.
struct Filed<K> {
    deadline_ns: u64,
    key: K,
}

impl<K> Ord for Filed<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.deadline_ns.cmp(&self.deadline_ns)
    }
}

impl<K> PartialOrd for Filed<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K> PartialEq for Filed<K> {
    fn eq(&self, other: &Self) -> bool {
        self.deadline_ns == other.deadline_ns
    }
}

impl<K> Eq for Filed<K> {}

/// A timer heap over keys of type `K`: copies and the armed count.
pub struct TimerHeap<K> {
    heap: BinaryHeap<Filed<K>>,
    live: usize,
}

impl<K> TimerHeap<K> {
    /// Arms `key`, which must not be armed; a passed deadline fires next sweep.
    pub fn arm(&mut self, key: K, deadline: SimTime) {
        self.live += 1;
        self.heap.push(Filed { deadline_ns: deadline.as_nanos(), key });
    }

    /// Forgets one armed key; its owner must refuse the copy left behind.
    pub fn disarm(&mut self) {
        debug_assert!(self.live > 0, "disarm with no armed key");
        self.live -= 1;
    }

    /// Heap bytes the copies hold: the heap's capacity times one copy.
    pub fn heap_bytes(&self) -> usize {
        self.heap.capacity() * std::mem::size_of::<Filed<K>>()
    }

    /// Appends every current key due by `now` to `out`, walking the top
    /// until a current copy that is not due. `current(key, filed_ns)` is the
    /// key's deadline now if the copy filed at `filed_ns` is current, else
    /// `None` (the copy is dropped). A deadline due by `now` claims and
    /// disarms the key, so its owner refuses the key's other copies; a later
    /// one than filed is refiled in place.
    pub fn expired_into(
        &mut self,
        now: SimTime,
        out: &mut Vec<K>,
        mut current: impl FnMut(&K, u64) -> Option<u64>,
    ) {
        let at = now.as_nanos();
        while let Some(mut top) = self.heap.peek_mut() {
            match current(&top.key, top.deadline_ns) {
                Some(d) if d <= at => {
                    self.live -= 1;
                    out.push(PeekMut::pop(top).key);
                }
                Some(d) if d != top.deadline_ns => top.deadline_ns = d,
                Some(_) => break,
                None => drop(PeekMut::pop(top)),
            }
        }
    }

    /// The top copy's deadline, never later than the earliest current one
    /// and equal to it after a sweep; `None` iff no key is armed.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let top = self.heap.peek().filter(|_| self.live > 0)?;
        Some(SimTime::from_nanos(top.deadline_ns))
    }
}

impl<K> Default for TimerHeap<K> {
    fn default() -> Self {
        TimerHeap { heap: BinaryHeap::new(), live: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::Duration;
    use std::collections::{BTreeMap, BTreeSet};

    /// The owner every caller is: it keeps each armed key's filed deadline
    /// and its deadline now (later after a lazy refresh), and answers the
    /// heap from them (an unchanged deadline files no copy; a due copy
    /// unfiles its key; a refiled one moves the filed deadline). Its map is
    /// also the oracle the heap is checked against.
    struct Owner<K> {
        timers: TimerHeap<K>,
        /// Key → (filed deadline, deadline now).
        armed: BTreeMap<K, (u64, u64)>,
    }

    impl<K> Default for Owner<K> {
        fn default() -> Self {
            Owner { timers: TimerHeap::default(), armed: BTreeMap::new() }
        }
    }

    impl<K: Ord + Copy> Owner<K> {
        fn schedule(&mut self, key: K, deadline: SimTime) {
            let ns = deadline.as_nanos();
            match self.armed.insert(key, (ns, ns)) {
                Some((filed, _)) if filed == ns => return,
                Some(_) => self.timers.disarm(),
                None => {}
            }
            self.timers.arm(key, deadline);
        }

        /// Moves an armed key's deadline later without touching the heap,
        /// as traffic refreshes an idle timer.
        fn refresh(&mut self, key: &K, deadline: SimTime) {
            if let Some((_, now)) = self.armed.get_mut(key) {
                *now = (*now).max(deadline.as_nanos());
            }
        }

        fn cancel(&mut self, key: &K) -> bool {
            let was = self.armed.remove(key).is_some();
            if was {
                self.timers.disarm();
            }
            was
        }

        fn expired(&mut self, now: SimTime) -> Vec<K> {
            let mut due = Vec::new();
            let armed = &mut self.armed;
            self.timers.expired_into(now, &mut due, |k, filed_ns| {
                let (filed, dl) = armed.get_mut(k).filter(|(filed, _)| *filed == filed_ns)?;
                let dl = *dl;
                *filed = dl;
                if dl <= now.as_nanos() {
                    armed.remove(k);
                }
                Some(dl)
            });
            due
        }

        fn deadline(&self, key: &K) -> Option<SimTime> {
            self.armed.get(key).map(|&(_, ns)| SimTime::from_nanos(ns))
        }

        fn next_deadline(&self) -> Option<SimTime> {
            self.timers.next_deadline()
        }

        /// The earliest deadline now, from the owner's own map.
        fn earliest(&self) -> Option<SimTime> {
            self.armed.values().map(|&(_, ns)| ns).min().map(SimTime::from_nanos)
        }

        fn copies(&self) -> usize {
            self.timers.heap.len()
        }

        fn len(&self) -> usize {
            assert_eq!(self.timers.live, self.armed.len(), "live count");
            self.timers.live
        }

        fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    fn t(secs_milli: u64) -> SimTime {
        SimTime::from_millis(secs_milli)
    }

    #[test]
    fn fires_at_deadline_not_before() {
        let mut w: Owner<u32> = Owner::default();
        w.schedule(1, SimTime::from_secs(10));
        assert!(w.expired(SimTime::from_secs(9)).is_empty());
        assert_eq!(w.expired(SimTime::from_secs(10)), vec![1]);
        assert!(w.expired(SimTime::from_secs(11)).is_empty(), "only once");
        assert!(w.is_empty());
    }

    #[test]
    fn next_deadline_exact_without_staleness() {
        let mut w: Owner<u32> = Owner::default();
        assert_eq!(w.next_deadline(), None);
        w.schedule(1, SimTime::from_secs(12));
        w.schedule(2, SimTime::from_secs(11));
        w.schedule(3, SimTime::from_secs(40));
        assert_eq!(w.next_deadline(), Some(SimTime::from_secs(11)));
        assert_eq!(w.expired(SimTime::from_secs(11)), vec![2]);
        assert_eq!(w.next_deadline(), Some(SimTime::from_secs(12)));
    }

    #[test]
    fn reschedule_moves_the_deadline() {
        let mut w: Owner<u32> = Owner::default();
        w.schedule(7, SimTime::from_secs(5));
        w.schedule(7, SimTime::from_secs(9));
        assert_eq!(w.deadline(&7), Some(SimTime::from_secs(9)));
        assert!(w.expired(SimTime::from_secs(5)).is_empty());
        // The stale copy was popped; the bound is exact again.
        assert_eq!(w.next_deadline(), Some(SimTime::from_secs(9)));
        assert_eq!(w.expired(SimTime::from_secs(9)), vec![7]);
    }

    #[test]
    fn cancel_suppresses_firing() {
        let mut w: Owner<u32> = Owner::default();
        w.schedule(1, t(50));
        w.schedule(2, t(60));
        assert!(w.cancel(&1));
        assert!(!w.cancel(&1));
        assert_eq!(w.len(), 1);
        assert_eq!(w.expired(t(100)), vec![2]);
        assert!(w.next_deadline().is_none());
    }

    #[test]
    fn sub_tick_deadlines_resolve() {
        // Two deadlines inside one millisecond.
        let mut w: Owner<u32> = Owner::default();
        w.schedule(1, SimTime::from_nanos(500));
        w.schedule(2, SimTime::from_nanos(900));
        assert!(w.expired(SimTime::from_nanos(499)).is_empty());
        assert_eq!(w.expired(SimTime::from_nanos(500)), vec![1]);
        assert_eq!(w.expired(SimTime::from_nanos(900)), vec![2]);
    }

    #[test]
    fn past_deadline_fires_on_next_sweep() {
        let mut w: Owner<u32> = Owner::default();
        w.expired(SimTime::from_secs(100));
        w.schedule(1, SimTime::from_secs(3)); // already in the past
        assert_eq!(w.expired(SimTime::from_secs(100)), vec![1]);
        // A sweep fires what is due by its own instant, even one earlier
        // than the last sweep's: the owners act on the instant they pass.
        w.schedule(2, SimTime::from_secs(50));
        assert!(w.expired(SimTime::from_secs(20)).is_empty());
        assert_eq!(w.expired(SimTime::from_secs(50)), vec![2]);
    }

    #[test]
    fn a_far_deadline_fires_once_at_its_instant() {
        let far = SimTime::from_secs(20_000);
        let mut w: Owner<u32> = Owner::default();
        w.schedule(1, far);
        w.schedule(2, far + Duration::from_millis(2));
        let just_before = SimTime::from_nanos(far.as_nanos() - 1);
        let mut now = SimTime::ZERO;
        // Stepwise advance in coarse jumps (capped short of the deadline):
        // never early, both exactly once.
        while now < just_before {
            now = (now + Duration::from_secs(1_300)).min(just_before);
            assert!(w.expired(now).is_empty(), "early fire at {now}");
        }
        assert_eq!(w.expired(far), vec![1]);
        assert_eq!(w.expired(far + Duration::from_millis(2)), vec![2]);
        assert!(w.expired(far + Duration::from_secs(1)).is_empty());
    }

    /// A sweep pops the disarmed copies ahead of a live one, so they no
    /// longer pull the bound forward.
    #[test]
    fn a_sweep_drops_disarmed_copies_ahead_of_a_live_one() {
        let mut w: Owner<u32> = Owner::default();
        w.schedule(1, SimTime::from_secs(5));
        w.schedule(2, SimTime::from_secs(6));
        w.schedule(3, SimTime::from_secs(9));
        w.cancel(&1);
        w.schedule(2, SimTime::from_secs(20));
        // Between sweeps the stale copy at 5 s is the (lower) bound.
        assert_eq!(w.next_deadline(), Some(SimTime::from_secs(5)));
        assert!(w.expired(SimTime::from_secs(1)).is_empty());
        assert_eq!(w.next_deadline(), Some(SimTime::from_secs(9)));
        assert_eq!(w.copies(), 2, "the copies at 9 s and 20 s");
    }

    /// Randomized soak: every scheduled key fires exactly once, at the first
    /// sweep at or after its deadline, and `next_deadline` never overshoots.
    #[test]
    fn random_soak_exactly_once_never_early_never_late() {
        for seed in 0..50u64 {
            let mut rng = SimRng::new(seed);
            let mut w: Owner<u64> = Owner::default();
            let n = 40 + (seed as usize % 60);
            let mut deadline_of = BTreeMap::new();
            for k in 0..n as u64 {
                let dl = SimTime::from_nanos(rng.below(20_000_000_000)); // < 20 s
                w.schedule(k, dl);
                deadline_of.insert(k, dl);
            }
            let mut fired = BTreeSet::new();
            let mut now = SimTime::ZERO;
            while now < SimTime::from_secs(25) {
                if let Some(nd) = w.next_deadline() {
                    let true_min = deadline_of
                        .iter()
                        .filter(|(k, _)| !fired.contains(*k))
                        .map(|(_, &d)| d)
                        .min()
                        .unwrap();
                    assert!(nd <= true_min, "bound overshoots: {nd:?} > {true_min:?}");
                }
                now += Duration::from_nanos(1 + rng.below(700_000_000));
                for k in w.expired(now) {
                    let dl = deadline_of[&k];
                    assert!(dl <= now, "key {k} fired early ({dl:?} > {now:?})");
                    assert!(fired.insert(k), "key {k} fired twice");
                }
                // Everything due must have fired by now.
                for (k, &dl) in &deadline_of {
                    if dl <= now {
                        assert!(fired.contains(k), "key {k} due at {dl:?} missed at {now:?}");
                    }
                }
            }
            assert_eq!(fired.len(), n, "seed {seed}: all keys fired");
            assert!(w.is_empty());
        }
    }

    /// One step of the interleaving properties below.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// (Re-)arm `key` at `now + ahead_ns` (0 = already due).
        Schedule { key: u8, ahead_ns: u64 },
        Cancel { key: u8 },
        /// Lazily move an armed `key`'s deadline to `now + ahead_ns`, if later.
        Refresh { key: u8, ahead_ns: u64 },
        /// Sweep after advancing the clock by `by_ns`.
        Advance { by_ns: u64 },
    }

    /// Spans from sub-millisecond to hours, so equal, near and far
    /// deadlines all occur.
    fn arb_span() -> impl proptest::strategy::Strategy<Value = u64> {
        use proptest::prelude::*;
        prop_oneof![
            0u64..2_000_000,
            0u64..70_000_000,
            0u64..5_000_000_000,
            0u64..300_000_000_000,
            0u64..20_000_000_000_000,
        ]
    }

    fn arb_op() -> impl proptest::strategy::Strategy<Value = Op> {
        use proptest::prelude::*;
        prop_oneof![
            4 => (0u8..24, arb_span()).prop_map(|(key, ahead_ns)| Op::Schedule { key, ahead_ns }),
            1 => (0u8..24).prop_map(|key| Op::Cancel { key }),
            3 => (0u8..24, arb_span()).prop_map(|(key, ahead_ns)| Op::Refresh { key, ahead_ns }),
            3 => arb_span().prop_map(|by_ns| Op::Advance { by_ns }),
        ]
    }

    /// Replays `ops` through [`Owner`], whose map of armed deadlines is the
    /// oracle. A sweep returns every armed key whose deadline now is at or
    /// before the clock, once each and no other; the live count is the
    /// map's; the bound is `None` iff nothing is armed, never later than
    /// the earliest deadline now, and equal to it right after a sweep,
    /// refreshed keys included.
    fn differential(ops: &[Op]) {
        let mut w: Owner<u8> = Owner::default();
        let mut now = 0u64;
        for (step, &op) in ops.iter().enumerate() {
            match op {
                Op::Schedule { key, ahead_ns } => {
                    w.schedule(key, SimTime::from_nanos(now + ahead_ns));
                }
                Op::Cancel { key } => {
                    w.cancel(&key);
                }
                Op::Refresh { key, ahead_ns } => w.refresh(&key, SimTime::from_nanos(now + ahead_ns)),
                Op::Advance { by_ns } => {
                    now += by_ns;
                    let due: Vec<u8> =
                        w.armed.iter().filter(|&(_, &(_, dl))| dl <= now).map(|(&k, _)| k).collect();
                    let mut got = w.expired(SimTime::from_nanos(now));
                    got.sort_unstable();
                    assert_eq!(got, due, "step {step}: sweep at {now}");
                    assert_eq!(w.next_deadline(), w.earliest(), "step {step}: bound after a sweep");
                }
            }
            w.len();
            match (w.next_deadline(), w.earliest()) {
                (None, None) => {}
                (Some(bound), Some(earliest)) => {
                    assert!(bound <= earliest, "step {step}: bound {bound:?} > {earliest:?}");
                }
                (bound, earliest) => panic!("step {step}: bound {bound:?} vs earliest {earliest:?}"),
            }
        }
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn rearming_a_live_key_matches_the_oracle() {
        use Op::*;
        differential(&[
            Schedule { key: 1, ahead_ns: 30 * MS },
            Schedule { key: 2, ahead_ns: 30 * MS },
            Schedule { key: 1, ahead_ns: 90 * MS },
            Advance { by_ns: 40 * MS },
            Schedule { key: 2, ahead_ns: 5 * MS },
            Schedule { key: 1, ahead_ns: MS },
            Advance { by_ns: 10 * MS },
            Advance { by_ns: 100 * MS },
        ]);
    }

    #[test]
    fn rearming_at_an_unchanged_deadline_files_no_copy() {
        use Op::*;
        let ops = [
            Schedule { key: 3, ahead_ns: 50 * MS },
            Schedule { key: 3, ahead_ns: 50 * MS },
            Schedule { key: 3, ahead_ns: 50 * MS },
        ];
        differential(&ops);
        let mut w: Owner<u8> = Owner::default();
        for _ in 0..3 {
            w.schedule(3, SimTime::from_nanos(50 * MS));
        }
        assert_eq!(w.copies(), 1, "one copy for one deadline");
        differential(&[ops[0], ops[1], Advance { by_ns: 50 * MS }, Advance { by_ns: MS }]);
    }

    /// A key disarmed and re-armed at the same deadline has two identical
    /// copies; the sweep returns it once and drops the second.
    #[test]
    fn disarm_and_rearm_at_the_same_deadline_fires_once() {
        use Op::*;
        differential(&[
            Schedule { key: 4, ahead_ns: 20 * MS },
            Cancel { key: 4 },
            Schedule { key: 4, ahead_ns: 20 * MS },
            Schedule { key: 4, ahead_ns: 25 * MS },
            Schedule { key: 4, ahead_ns: 20 * MS },
            Advance { by_ns: 30 * MS },
            Advance { by_ns: 30 * MS },
        ]);
        let mut w: Owner<u8> = Owner::default();
        w.schedule(4, SimTime::from_nanos(20 * MS));
        w.cancel(&4);
        w.schedule(4, SimTime::from_nanos(20 * MS));
        assert_eq!(w.expired(SimTime::from_nanos(30 * MS)), vec![4]);
        assert!(w.is_empty() && w.next_deadline().is_none());
    }

    /// A sweep refiles a refreshed copy in place (no second copy) and walks
    /// on, so the bound is the earliest deadline now even when nothing was
    /// due and every copy on top was refreshed.
    #[test]
    fn a_sweep_refiles_refreshed_copies_in_place() {
        let mut w: Owner<u32> = Owner::default();
        w.schedule(1, t(10));
        w.schedule(2, t(20));
        w.schedule(3, t(30));
        w.refresh(&1, t(40));
        w.refresh(&2, t(25));
        assert_eq!(w.next_deadline(), Some(t(10)), "a refresh leaves the heap alone");
        assert!(w.expired(t(5)).is_empty());
        assert_eq!(w.next_deadline(), Some(t(25)));
        assert_eq!(w.copies(), 3, "refiled, not re-armed");
        assert_eq!(w.expired(t(30)), vec![2, 3]);
        assert_eq!((w.next_deadline(), w.copies()), (Some(t(40)), 1));
    }

    /// A refile can land a current copy on a stale one's deadline (A → B →
    /// A): the key still fires once, and the stale copy is dropped.
    #[test]
    fn a_refile_onto_a_stale_copy_fires_once() {
        use Op::*;
        differential(&[
            Schedule { key: 4, ahead_ns: 20 * MS },
            Cancel { key: 4 },
            Schedule { key: 4, ahead_ns: 10 * MS },
            Refresh { key: 4, ahead_ns: 20 * MS },
            Advance { by_ns: 15 * MS },
            Advance { by_ns: 5 * MS },
            Advance { by_ns: MS },
        ]);
        let mut w: Owner<u8> = Owner::default();
        w.schedule(4, SimTime::from_nanos(20 * MS));
        w.cancel(&4);
        w.schedule(4, SimTime::from_nanos(10 * MS));
        w.refresh(&4, SimTime::from_nanos(20 * MS));
        assert!(w.expired(SimTime::from_nanos(15 * MS)).is_empty());
        assert_eq!(w.copies(), 2, "two copies at 20 ms, one current");
        assert_eq!(w.expired(SimTime::from_nanos(20 * MS)), vec![4]);
        assert!(w.is_empty() && w.copies() == 0);
    }

    proptest::proptest! {
        /// Random interleavings of arm / re-arm / refresh / disarm / sweep
        /// give the armed map's due set and bound after every step.
        #[test]
        fn heap_equals_the_armed_map(
            ops in proptest::collection::vec(arb_op(), 1..160),
        ) {
            differential(&ops);
        }
    }
}
