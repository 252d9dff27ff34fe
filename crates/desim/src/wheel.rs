//! Hierarchical timer wheel.
//!
//! Expiry bookkeeping for large collections: the flow tables and the
//! controller's FlowMemory hold hundreds of thousands of entries whose
//! deadlines must be found without scanning everything. A hashed,
//! hierarchical timing wheel (Varghese & Lauck; the same structure behind
//! kernel timers and OVS expiry) gives amortized O(1) schedule/cancel and
//! makes a sweep visit only the entries whose slots the clock actually
//! crossed.
//!
//! # Semantics
//!
//! * [`TimerWheel::schedule`] registers (or moves) a key's deadline.
//! * [`TimerWheel::cancel`] forgets a key. Cancellation is *lazy*: the slot
//!   copy stays behind and is discarded when its slot is next drained.
//! * [`TimerWheel::expired`] advances the wheel to `now` and returns every
//!   live key whose deadline is `<= now`, each exactly once. Keys are never
//!   returned early.
//! * [`TimerWheel::next_deadline`] is a constant-time *lower bound* on the
//!   earliest live deadline: never later than the true earliest, `None` iff
//!   the wheel is empty, and exact whenever no reschedule/cancel left a
//!   stale slot copy ahead of the clock. Callers treat it as "the next
//!   instant worth polling [`TimerWheel::expired`]"; a spurious early poll
//!   drains the stale copies that caused it, so repeated polling always
//!   makes progress.
//!
//! # Occupancy bitmaps
//!
//! Each level keeps one `u64` with a bit per slot, set exactly when the
//! slot's `Vec` is non-empty (stale lazily-cancelled copies included).
//! Finding a level's first occupied slot at or after the clock is then one
//! rotate and one count-trailing-zeros, so `next_deadline` costs O(levels)
//! — eight word operations — however many slots are empty, and sweeps skip
//! empty slots without touching them. Callers ask for the bound after every
//! batch of work, far more often than they sweep, which is why it is the
//! operation kept cheapest.

use std::hash::Hash;

use crate::hash::FastMap;
use crate::time::SimTime;

/// log2 of the slots per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of levels. Level 0 ticks at ~1.05 ms (2^20 ns); level `l` at
/// 2^(20+6l) ns. Eight levels span 2^68 ns — the whole `u64` range.
const LEVELS: usize = 8;
/// log2 of the level-0 tick in nanoseconds.
const TICK_BITS: u32 = 20;

#[inline]
fn shift(level: usize) -> u32 {
    TICK_BITS + SLOT_BITS * level as u32
}

/// A hierarchical timer wheel over keys of type `K`.
///
/// Each key has at most one live deadline; rescheduling replaces it.
pub struct TimerWheel<K> {
    /// `LEVELS * SLOTS` buckets of `(key, deadline_ns)` pairs. Entries whose
    /// deadline no longer matches [`TimerWheel::deadlines`] are stale and
    /// dropped on drain.
    slots: Vec<Vec<(K, u64)>>,
    /// Per-slot lower bound on the deadlines it holds (`u64::MAX` when the
    /// slot was last drained empty).
    slot_min: Vec<u64>,
    /// Per level, bit `i` set iff `slots[level * SLOTS + i]` is non-empty.
    occupied: [u64; LEVELS],
    /// Authoritative deadline per live key.
    deadlines: FastMap<K, u64>,
    /// The instant the wheel last advanced to.
    now_ns: u64,
    /// Recycled drain buffer: slot storage rotates through here during
    /// sweeps instead of being dropped, so steady-state sweeps allocate
    /// nothing.
    scratch: Vec<(K, u64)>,
}

impl<K: Eq + Hash + Clone> TimerWheel<K> {
    /// Creates an empty wheel positioned at time zero.
    pub fn new() -> TimerWheel<K> {
        TimerWheel {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            slot_min: vec![u64::MAX; LEVELS * SLOTS],
            occupied: [0; LEVELS],
            deadlines: FastMap::default(),
            now_ns: 0,
            scratch: Vec::new(),
        }
    }

    /// Number of live (scheduled, uncancelled, unexpired) keys.
    pub fn len(&self) -> usize {
        self.deadlines.len()
    }

    /// `true` if no key is scheduled.
    pub fn is_empty(&self) -> bool {
        self.deadlines.is_empty()
    }

    /// The live deadline of `key`, if scheduled.
    pub fn deadline(&self, key: &K) -> Option<SimTime> {
        self.deadlines.get(key).map(|&ns| SimTime::from_nanos(ns))
    }

    /// Schedules (or moves) `key` to fire at `deadline`. A deadline at or
    /// before the wheel's current time fires on the next [`expired`] call.
    ///
    /// [`expired`]: TimerWheel::expired
    pub fn schedule(&mut self, key: K, deadline: SimTime) {
        let ns = deadline.as_nanos();
        if self.deadlines.get(&key) == Some(&ns) {
            return; // unchanged — avoid piling up duplicate slot copies
        }
        self.deadlines.insert(key.clone(), ns);
        self.place(key, ns);
    }

    /// Cancels `key`'s timer. Returns `true` if it was scheduled.
    pub fn cancel(&mut self, key: &K) -> bool {
        self.deadlines.remove(key).is_some()
    }

    /// Inserts a slot copy for `(key, dl)` at the lowest level whose slot
    /// granularity can still distinguish the deadline from the current time.
    /// The chosen slot is never a passed one: either a future tick, or (only
    /// at level 0) the current partial tick, which [`TimerWheel::expired`]
    /// re-examines on every call.
    fn place(&mut self, key: K, dl: u64) {
        let eff = dl.max(self.now_ns);
        for level in 0..LEVELS {
            let sh = shift(level);
            let tick_dl = eff >> sh;
            let tick_now = self.now_ns >> sh;
            if tick_dl - tick_now < SLOTS as u64 {
                let slot = tick_dl as usize & (SLOTS - 1);
                let idx = level * SLOTS + slot;
                self.slots[idx].push((key, dl));
                self.occupied[level] |= 1 << slot;
                if dl < self.slot_min[idx] {
                    self.slot_min[idx] = dl;
                }
                return;
            }
        }
        unreachable!("eight levels cover the full u64 nanosecond range");
    }

    /// Advances the wheel to `now` and returns every live key whose deadline
    /// has been reached, each exactly once. Only slots the clock crossed are
    /// visited, so a sweep costs O(entries actually due + slots crossed),
    /// not O(total entries). Time never moves backwards; a stale `now` just
    /// re-examines the current level-0 slot.
    pub fn expired(&mut self, now: SimTime) -> Vec<K> {
        let mut due = Vec::new();
        self.expired_into(now, &mut due);
        due
    }

    /// Batched form of [`TimerWheel::expired`]: appends due keys to `out`
    /// (which is *not* cleared) instead of allocating a fresh `Vec`. Hot
    /// expiry paths call this with a reused buffer so periodic sweeps are
    /// allocation-free; internally, drained slot storage is recycled through
    /// a scratch buffer rather than dropped.
    pub fn expired_into(&mut self, now: SimTime, out: &mut Vec<K>) {
        let new_now = now.as_nanos().max(self.now_ns);
        let old_now = self.now_ns;
        self.now_ns = new_now;
        for level in 0..LEVELS {
            let sh = shift(level);
            let old_t = old_now >> sh;
            let new_t = new_now >> sh;
            // Level 0 re-examines its current partial slot every call (that
            // is where just-due and clock-lagging entries live); higher
            // levels only process slots the clock newly entered. If more
            // than a full revolution passed, every slot is drained once.
            let start = if level == 0 { old_t } else { old_t + 1 };
            let start = start.max(new_t.saturating_sub(SLOTS as u64 - 1));
            if start > new_t {
                continue;
            }
            // The crossed slots as a bitmap (`start..=new_t` spans at most
            // one revolution): only occupied ones are visited, in clock order.
            let first = start as usize & (SLOTS - 1);
            let span = (new_t - start) as u32 + 1;
            let window = if span >= SLOTS as u32 { u64::MAX } else { (1u64 << span) - 1 };
            let mut due_slots = self.occupied[level].rotate_right(first as u32) & window;
            while due_slots != 0 {
                let off = due_slots.trailing_zeros() as usize;
                due_slots &= due_slots - 1;
                let slot = (first + off) & (SLOTS - 1);
                let idx = level * SLOTS + slot;
                // Clear the bit before draining: `place` may push a
                // not-yet-due entry back into this very slot (level 0's
                // current tick) and must be able to set it again.
                self.occupied[level] &= !(1 << slot);
                // Swap the slot's storage out through the scratch buffer so
                // its capacity is recycled instead of freed: the (empty)
                // scratch becomes the new slot Vec, and the drained Vec is
                // parked as the next scratch once emptied.
                let mut drained = std::mem::take(&mut self.scratch);
                std::mem::swap(&mut drained, &mut self.slots[idx]);
                self.slot_min[idx] = u64::MAX;
                for (k, dl) in drained.drain(..) {
                    if self.deadlines.get(&k) != Some(&dl) {
                        continue; // stale copy of a moved/cancelled timer
                    }
                    if dl <= new_now {
                        self.deadlines.remove(&k);
                        out.push(k);
                    } else {
                        // Entered a coarse slot early: cascade down.
                        self.place(k, dl);
                    }
                }
                self.scratch = drained;
            }
        }
    }

    /// A lower bound on the earliest live deadline in O(levels): per level,
    /// one rotate and one count-trailing-zeros over the occupancy bitmap
    /// find the first non-empty slot at or after the clock. `None` iff the
    /// wheel is empty; never later than the true earliest deadline; exact in
    /// the absence of stale slot copies.
    pub fn next_deadline(&self) -> Option<SimTime> {
        if self.deadlines.is_empty() {
            return None;
        }
        let mut best = u64::MAX;
        for level in 0..LEVELS {
            let bits = self.occupied[level];
            if bits != 0 {
                let cur = (self.now_ns >> shift(level)) as usize & (SLOTS - 1);
                let off = bits.rotate_right(cur as u32).trailing_zeros() as usize;
                best = best.min(self.slot_min[level * SLOTS + ((cur + off) & (SLOTS - 1))]);
            }
        }
        debug_assert_ne!(best, u64::MAX, "live key with no slot copy");
        Some(SimTime::from_nanos(best))
    }

    /// The slot scan [`TimerWheel::next_deadline`] replaced, kept as the
    /// oracle the bitmap is tested against.
    #[cfg(test)]
    fn next_deadline_by_scan(&self) -> Option<SimTime> {
        if self.deadlines.is_empty() {
            return None;
        }
        let mut best = u64::MAX;
        for level in 0..LEVELS {
            let cur = (self.now_ns >> shift(level)) as usize & (SLOTS - 1);
            for off in 0..SLOTS {
                let idx = level * SLOTS + ((cur + off) & (SLOTS - 1));
                if !self.slots[idx].is_empty() {
                    best = best.min(self.slot_min[idx]);
                    break;
                }
            }
        }
        Some(SimTime::from_nanos(best))
    }
}

impl<K: Eq + Hash + Clone> Default for TimerWheel<K> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::Duration;

    fn t(secs_milli: u64) -> SimTime {
        SimTime::from_millis(secs_milli)
    }

    #[test]
    fn fires_at_deadline_not_before() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.schedule(1, SimTime::from_secs(10));
        assert!(w.expired(SimTime::from_secs(9)).is_empty());
        assert_eq!(w.expired(SimTime::from_secs(10)), vec![1]);
        assert!(w.expired(SimTime::from_secs(11)).is_empty(), "only once");
        assert!(w.is_empty());
    }

    #[test]
    fn next_deadline_exact_without_staleness() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
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
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.schedule(7, SimTime::from_secs(5));
        w.schedule(7, SimTime::from_secs(9));
        assert_eq!(w.deadline(&7), Some(SimTime::from_secs(9)));
        assert!(w.expired(SimTime::from_secs(5)).is_empty());
        // The stale copy was drained; the bound is exact again.
        assert_eq!(w.next_deadline(), Some(SimTime::from_secs(9)));
        assert_eq!(w.expired(SimTime::from_secs(9)), vec![7]);
    }

    #[test]
    fn cancel_suppresses_firing() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
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
        // Two deadlines inside the same ~1 ms level-0 tick.
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.schedule(1, SimTime::from_nanos(500));
        w.schedule(2, SimTime::from_nanos(900));
        assert!(w.expired(SimTime::from_nanos(499)).is_empty());
        assert_eq!(w.expired(SimTime::from_nanos(500)), vec![1]);
        assert_eq!(w.expired(SimTime::from_nanos(900)), vec![2]);
    }

    #[test]
    fn past_deadline_fires_on_next_sweep() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.expired(SimTime::from_secs(100));
        w.schedule(1, SimTime::from_secs(3)); // already in the past
        assert_eq!(w.expired(SimTime::from_secs(100)), vec![1]);
    }

    #[test]
    fn far_deadlines_cascade_down_levels() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.schedule(1, SimTime::from_secs(1000));
        w.schedule(2, SimTime::from_secs(1000) + Duration::from_millis(2));
        let mut now = SimTime::ZERO;
        // Stepwise advance in coarse jumps (capped short of the deadline):
        // never early, both exactly once.
        while now < SimTime::from_secs(999) {
            now = (now + Duration::from_secs(13)).min(SimTime::from_secs(999));
            assert!(w.expired(now).is_empty(), "early fire at {now}");
        }
        assert_eq!(w.expired(SimTime::from_secs(1000)), vec![1]);
        assert_eq!(
            w.expired(SimTime::from_secs(1000) + Duration::from_millis(2)),
            vec![2]
        );
    }

    /// Randomized soak: every scheduled key fires exactly once, at the first
    /// sweep at or after its deadline, and `next_deadline` never overshoots.
    #[test]
    fn random_soak_exactly_once_never_early_never_late() {
        for seed in 0..50u64 {
            let mut rng = SimRng::new(seed);
            let mut w: TimerWheel<u64> = TimerWheel::new();
            let n = 40 + (seed as usize % 60);
            let mut deadline_of = std::collections::BTreeMap::new();
            for k in 0..n as u64 {
                let dl = SimTime::from_nanos(rng.below(20_000_000_000)); // < 20 s
                w.schedule(k, dl);
                deadline_of.insert(k, dl);
            }
            let mut fired = std::collections::BTreeSet::new();
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
    /// One step of the interleaving property below.
    #[derive(Clone, Debug)]
    enum Op {
        /// (Re-)schedule `key` at `now + ahead_ns` (0 = already due).
        Schedule { key: u8, ahead_ns: u64 },
        Cancel { key: u8 },
        /// Sweep after advancing the clock by `by_ns`.
        Advance { by_ns: u64 },
    }

    /// Spans that land in every level that matters: sub-tick, within level
    /// 0's revolution (67 ms), and past one revolution of levels 0, 1 (4.3 s)
    /// and 2 (275 s).
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
            3 => arb_span().prop_map(|by_ns| Op::Advance { by_ns }),
        ]
    }

    impl<K: Eq + Hash + Clone> TimerWheel<K> {
        /// The bitmap invariant and the bound, checked against the slot scan.
        fn assert_bitmap_mirrors_slots(&self) {
            for level in 0..LEVELS {
                for slot in 0..SLOTS {
                    assert_eq!(
                        self.occupied[level] >> slot & 1 == 1,
                        !self.slots[level * SLOTS + slot].is_empty(),
                        "level {level} slot {slot}"
                    );
                }
            }
            assert_eq!(self.next_deadline(), self.next_deadline_by_scan());
        }
    }

    proptest::proptest! {
        /// Random interleavings of schedule / re-schedule / cancel / sweep
        /// (jumps longer than a revolution included): after every
        /// step the bitmap mirrors slot occupancy, the bound equals the slot
        /// scan's, it never overshoots the true earliest live deadline, and a
        /// sweep returns exactly the live keys that are due.
        #[test]
        fn bitmap_bound_equals_slot_scan(ops in proptest::collection::vec(arb_op(), 1..120)) {
            let mut w: TimerWheel<u8> = TimerWheel::new();
            let mut model: std::collections::BTreeMap<u8, u64> = Default::default();
            let mut now = 0u64;
            for op in ops {
                match op {
                    Op::Schedule { key, ahead_ns } => {
                        w.schedule(key, SimTime::from_nanos(now + ahead_ns));
                        model.insert(key, now + ahead_ns);
                    }
                    Op::Cancel { key } => {
                        assert_eq!(w.cancel(&key), model.remove(&key).is_some());
                    }
                    Op::Advance { by_ns } => {
                        now += by_ns;
                        let mut fired = w.expired(SimTime::from_nanos(now));
                        fired.sort_unstable();
                        let due: Vec<u8> =
                            model.iter().filter(|(_, &dl)| dl <= now).map(|(&k, _)| k).collect();
                        assert_eq!(fired, due, "sweep at {now}");
                        model.retain(|_, dl| *dl > now);
                    }
                }
                w.assert_bitmap_mirrors_slots();
                assert_eq!(w.len(), model.len());
                match (w.next_deadline(), model.values().min()) {
                    (None, None) => {}
                    (Some(bound), Some(&earliest)) => {
                        assert!(bound.as_nanos() <= earliest, "bound {bound:?} > {earliest}");
                    }
                    (bound, earliest) => panic!("bound {bound:?} vs earliest {earliest:?}"),
                }
            }
        }
    }
}
