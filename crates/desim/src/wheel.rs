//! Hierarchical timer wheel.
//!
//! Expiry bookkeeping for large collections: the flow tables and the
//! controller's FlowMemory hold hundreds of thousands of entries whose
//! deadlines must be found without scanning everything. A hashed,
//! hierarchical timing wheel (Varghese & Lauck; the same structure behind
//! kernel timers and OVS expiry) gives amortized O(1) arm/disarm and makes
//! a sweep visit only the entries whose slots the clock actually crossed.
//!
//! # Semantics
//!
//! The wheel stores slot copies `(key, deadline)` and a count of armed
//! keys; which copy is current is the *owner's* knowledge, not the wheel's.
//! Every owner already holds its entries, so a second deadline table here
//! would only duplicate them.
//!
//! * [`TimerWheel::arm`] files a copy for a key that is not armed.
//!   Moving a key's deadline is [`TimerWheel::disarm`] then `arm`.
//! * [`TimerWheel::disarm`] forgets one armed key. It is *lazy*: the old
//!   copy stays behind until its slot is next drained, and the owner's
//!   liveness test then drops it.
//! * [`TimerWheel::expired_into`] advances the wheel to `now`, asks the
//!   owner of **every** drained copy (cascading ones included) whether it is
//!   still current, drops the stale ones and returns each current copy that
//!   is due, exactly once, disarming it. Keys are never returned early.
//! * [`TimerWheel::next_deadline`] is a constant-time *lower bound* on the
//!   earliest armed deadline: never later than the true earliest, `None` iff
//!   no key is armed, and exact whenever no disarm or move left a stale
//!   copy ahead of the clock. Callers treat it as "the next instant worth
//!   polling [`TimerWheel::expired_into`]"; a spurious early poll drains
//!   the stale copies that caused it, so repeated polling always makes
//!   progress.
//!
//! # Occupancy bitmaps
//!
//! Each level keeps one `u64` with a bit per slot, set exactly when the
//! slot's `Vec` is non-empty (stale copies included). Finding a level's
//! first occupied slot at or after the clock is then one rotate and one
//! count-trailing-zeros, so `next_deadline` costs O(levels) — eight word
//! operations — however many slots are empty, and sweeps skip empty slots
//! without touching them. Callers ask for the bound after every batch of
//! work, far more often than they sweep, which is why it is the operation
//! kept cheapest.

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
/// The owner keeps each armed key's deadline; the wheel keeps only slot
/// copies and how many keys are armed.
pub struct TimerWheel<K> {
    /// `LEVELS * SLOTS` buckets of `(key, deadline_ns)` copies. A copy the
    /// owner no longer recognises is stale and dropped on drain.
    slots: Vec<Vec<(K, u64)>>,
    /// Per-slot lower bound on the deadlines it holds (`u64::MAX` when the
    /// slot was last drained empty).
    slot_min: Vec<u64>,
    /// Per level, bit `i` set iff `slots[level * SLOTS + i]` is non-empty.
    occupied: [u64; LEVELS],
    /// Armed keys: one current copy each.
    live: usize,
    /// The instant the wheel last advanced to.
    now_ns: u64,
    /// Recycled drain buffer: slot storage rotates through here during
    /// sweeps instead of being dropped, so steady-state sweeps allocate
    /// nothing.
    scratch: Vec<(K, u64)>,
}

impl<K> TimerWheel<K> {
    /// Creates an empty wheel positioned at time zero.
    pub fn new() -> TimerWheel<K> {
        TimerWheel {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            slot_min: vec![u64::MAX; LEVELS * SLOTS],
            occupied: [0; LEVELS],
            live: 0,
            now_ns: 0,
            scratch: Vec::new(),
        }
    }

    /// Number of armed keys.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no key is armed.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Arms `key`, which must not be armed, to fire at `deadline`. A
    /// deadline at or before the wheel's current time fires on the next
    /// sweep.
    pub fn arm(&mut self, key: K, deadline: SimTime) {
        self.live += 1;
        self.place(key, deadline.as_nanos());
    }

    /// Forgets one armed key. Its copy stays in its slot until drained,
    /// where the owner's liveness test must refuse it.
    pub fn disarm(&mut self) {
        debug_assert!(self.live > 0, "disarm with no armed key");
        self.live -= 1;
    }

    /// Heap bytes the slot copies hold: every slot's capacity and the drain
    /// buffer's, times the size of one copy.
    pub fn slot_bytes(&self) -> usize {
        let copies: usize = self.slots.iter().map(Vec::capacity).sum();
        (copies + self.scratch.capacity()) * std::mem::size_of::<(K, u64)>()
    }

    /// Inserts a slot copy for `(key, dl)` at the lowest level whose slot
    /// granularity can still distinguish the deadline from the current time.
    /// The chosen slot is never a passed one: either a future tick, or (only
    /// at level 0) the current partial tick, which a sweep re-examines on
    /// every call.
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

    /// Advances the wheel to `now` and appends to `out` (which is *not*
    /// cleared) every current key whose deadline has been reached, each
    /// exactly once. Only slots the clock crossed are visited, so a sweep
    /// costs O(copies drained + slots crossed), not O(total entries). Time
    /// never moves backwards; a stale `now` just re-examines the current
    /// level-0 slot.
    ///
    /// `live(key, deadline_ns, due)` is asked for every drained copy, in
    /// drain order: `true` keeps a current copy, `false` drops a stale one.
    /// A current copy that is `due` is returned and disarmed here, so the
    /// owner must from then on refuse any other copy of that key until it
    /// arms the key again.
    pub fn expired_into(
        &mut self,
        now: SimTime,
        out: &mut Vec<K>,
        mut live: impl FnMut(&K, u64, bool) -> bool,
    ) {
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
                    let due = dl <= new_now;
                    if !live(&k, dl, due) {
                        continue; // stale copy of a moved or disarmed timer
                    }
                    if due {
                        self.live -= 1;
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

    /// A lower bound on the earliest armed deadline in O(levels): per level,
    /// one rotate and one count-trailing-zeros over the occupancy bitmap
    /// find the first non-empty slot at or after the clock. `None` iff no
    /// key is armed; never later than the true earliest deadline; exact in
    /// the absence of stale slot copies.
    pub fn next_deadline(&self) -> Option<SimTime> {
        if self.live == 0 {
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
        debug_assert_ne!(best, u64::MAX, "armed key with no slot copy");
        Some(SimTime::from_nanos(best))
    }

    /// The slot scan [`TimerWheel::next_deadline`] replaced, kept as the
    /// oracle the bitmap is tested against.
    #[cfg(test)]
    fn next_deadline_by_scan(&self) -> Option<SimTime> {
        if self.live == 0 {
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

impl<K> Default for TimerWheel<K> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::FastMap;
    use crate::rng::SimRng;
    use crate::time::Duration;
    use std::collections::BTreeMap;
    use std::hash::Hash;

    /// The owner every caller is: it keeps each armed key's deadline and
    /// answers the wheel's liveness question from it, with the rules the
    /// old wheel applied internally (an unchanged deadline files no copy; a
    /// due copy disarms its key).
    struct Owner<K> {
        wheel: TimerWheel<K>,
        armed: BTreeMap<K, u64>,
    }

    impl<K> Default for Owner<K> {
        fn default() -> Self {
            Owner { wheel: TimerWheel::new(), armed: BTreeMap::new() }
        }
    }

    impl<K: Ord + Copy> Owner<K> {
        fn schedule(&mut self, key: K, deadline: SimTime) {
            let ns = deadline.as_nanos();
            match self.armed.insert(key, ns) {
                Some(old) if old == ns => return,
                Some(_) => self.wheel.disarm(),
                None => {}
            }
            self.wheel.arm(key, deadline);
        }

        fn cancel(&mut self, key: &K) -> bool {
            let was = self.armed.remove(key).is_some();
            if was {
                self.wheel.disarm();
            }
            was
        }

        fn expired(&mut self, now: SimTime) -> Vec<K> {
            let mut due = Vec::new();
            let armed = &mut self.armed;
            self.wheel.expired_into(now, &mut due, |k, dl, is_due| {
                let current = armed.get(k) == Some(&dl);
                if current && is_due {
                    armed.remove(k);
                }
                current
            });
            due
        }

        fn deadline(&self, key: &K) -> Option<SimTime> {
            self.armed.get(key).map(|&ns| SimTime::from_nanos(ns))
        }

        fn next_deadline(&self) -> Option<SimTime> {
            self.wheel.next_deadline()
        }

        fn len(&self) -> usize {
            assert_eq!(self.wheel.len(), self.armed.len(), "live count");
            self.wheel.len()
        }

        fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    /// The wheel as it was before its owners decided liveness: an
    /// authoritative deadline map filters the stale slot copies. Kept as the
    /// oracle the map-free wheel is compared against.
    struct MapWheel<K> {
        slots: Vec<Vec<(K, u64)>>,
        slot_min: Vec<u64>,
        occupied: [u64; LEVELS],
        deadlines: FastMap<K, u64>,
        now_ns: u64,
    }

    impl<K: Eq + Hash + Clone> MapWheel<K> {
        fn new() -> MapWheel<K> {
            MapWheel {
                slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
                slot_min: vec![u64::MAX; LEVELS * SLOTS],
                occupied: [0; LEVELS],
                deadlines: FastMap::default(),
                now_ns: 0,
            }
        }

        fn schedule(&mut self, key: K, deadline: SimTime) {
            let ns = deadline.as_nanos();
            if self.deadlines.get(&key) == Some(&ns) {
                return;
            }
            self.deadlines.insert(key.clone(), ns);
            self.place(key, ns);
        }

        fn cancel(&mut self, key: &K) -> bool {
            self.deadlines.remove(key).is_some()
        }

        fn place(&mut self, key: K, dl: u64) {
            let eff = dl.max(self.now_ns);
            for level in 0..LEVELS {
                let (tick_dl, tick_now) = (eff >> shift(level), self.now_ns >> shift(level));
                if tick_dl - tick_now < SLOTS as u64 {
                    let slot = tick_dl as usize & (SLOTS - 1);
                    let idx = level * SLOTS + slot;
                    self.slots[idx].push((key, dl));
                    self.occupied[level] |= 1 << slot;
                    self.slot_min[idx] = self.slot_min[idx].min(dl);
                    return;
                }
            }
            unreachable!("eight levels cover the full u64 nanosecond range");
        }

        fn expired(&mut self, now: SimTime) -> Vec<K> {
            let mut out = Vec::new();
            let new_now = now.as_nanos().max(self.now_ns);
            let old_now = self.now_ns;
            self.now_ns = new_now;
            for level in 0..LEVELS {
                let (old_t, new_t) = (old_now >> shift(level), new_now >> shift(level));
                let start = if level == 0 { old_t } else { old_t + 1 };
                let start = start.max(new_t.saturating_sub(SLOTS as u64 - 1));
                if start > new_t {
                    continue;
                }
                let first = start as usize & (SLOTS - 1);
                let span = (new_t - start) as u32 + 1;
                let window = if span >= SLOTS as u32 { u64::MAX } else { (1u64 << span) - 1 };
                let mut due_slots = self.occupied[level].rotate_right(first as u32) & window;
                while due_slots != 0 {
                    let off = due_slots.trailing_zeros() as usize;
                    due_slots &= due_slots - 1;
                    let slot = (first + off) & (SLOTS - 1);
                    let idx = level * SLOTS + slot;
                    self.occupied[level] &= !(1 << slot);
                    let drained = std::mem::take(&mut self.slots[idx]);
                    self.slot_min[idx] = u64::MAX;
                    for (k, dl) in drained {
                        if self.deadlines.get(&k) != Some(&dl) {
                            continue;
                        }
                        if dl <= new_now {
                            self.deadlines.remove(&k);
                            out.push(k);
                        } else {
                            self.place(k, dl);
                        }
                    }
                }
            }
            out
        }

        fn next_deadline(&self) -> Option<SimTime> {
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
            Some(SimTime::from_nanos(best))
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
        // The stale copy was drained; the bound is exact again.
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
        // Two deadlines inside the same ~1 ms level-0 tick.
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
    }

    #[test]
    fn far_deadlines_cascade_down_levels() {
        let mut w: Owner<u32> = Owner::default();
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
            let mut w: Owner<u64> = Owner::default();
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
    /// One step of the interleaving properties below.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// (Re-)arm `key` at `now + ahead_ns` (0 = already due).
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

    impl<K> TimerWheel<K> {
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

        /// The lowest level holding a copy.
        fn lowest_level(&self) -> Option<usize> {
            (0..LEVELS).find(|&l| self.occupied[l] != 0)
        }
    }

    /// Replays `ops` on the map-free wheel (through [`Owner`]) and on the
    /// map oracle: after every step both give the same due list, order
    /// included, the same bound and the same count, and the bound never
    /// overshoots the earliest armed deadline.
    fn differential(ops: &[Op]) {
        let mut w: Owner<u8> = Owner::default();
        let mut oracle: MapWheel<u8> = MapWheel::new();
        let mut now = 0u64;
        for (step, &op) in ops.iter().enumerate() {
            match op {
                Op::Schedule { key, ahead_ns } => {
                    w.schedule(key, SimTime::from_nanos(now + ahead_ns));
                    oracle.schedule(key, SimTime::from_nanos(now + ahead_ns));
                }
                Op::Cancel { key } => assert_eq!(w.cancel(&key), oracle.cancel(&key)),
                Op::Advance { by_ns } => {
                    now += by_ns;
                    let at = SimTime::from_nanos(now);
                    assert_eq!(w.expired(at), oracle.expired(at), "step {step}: sweep at {now}");
                }
            }
            w.wheel.assert_bitmap_mirrors_slots();
            assert_eq!(w.len(), oracle.deadlines.len(), "step {step}");
            assert_eq!(w.next_deadline(), oracle.next_deadline(), "step {step}: bound");
            match (w.next_deadline(), w.armed.values().min()) {
                (None, None) => {}
                (Some(bound), Some(&earliest)) => {
                    assert!(bound.as_nanos() <= earliest, "bound {bound:?} > {earliest}");
                }
                (bound, earliest) => panic!("bound {bound:?} vs earliest {earliest:?}"),
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
        let copies: usize = w.wheel.slots.iter().map(Vec::len).sum();
        assert_eq!(copies, 1, "one copy for one deadline");
        differential(&[ops[0], ops[1], Advance { by_ns: 50 * MS }, Advance { by_ns: MS }]);
    }

    /// A key disarmed and re-armed at the same deadline has two identical
    /// copies in one slot; the sweep returns it once and drops the second.
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

    /// A deadline filed at level 4 steps down through levels 3, 2, 1 and 0
    /// as the clock approaches it, with stale copies riding along.
    #[test]
    fn copies_cascading_down_four_levels_match_the_oracle() {
        use Op::*;
        let far = 20_000_000 * MS; // 20 000 s: beyond level 3's revolution
        let mut w: Owner<u8> = Owner::default();
        w.schedule(5, SimTime::from_nanos(far));
        assert_eq!(w.wheel.lowest_level(), Some(4));
        let mut ops = vec![
            Schedule { key: 5, ahead_ns: far },
            Schedule { key: 6, ahead_ns: far + 3 * MS },
            Schedule { key: 7, ahead_ns: far - 1 },
            Cancel { key: 7 },
        ];
        let mut now = 0;
        let mut levels = Vec::new();
        for by_ns in [19_000_000 * MS, 990_000 * MS, 9_000 * MS, 900 * MS, 95 * MS, 4 * MS, MS] {
            now += by_ns;
            ops.push(Advance { by_ns });
            w.expired(SimTime::from_nanos(now));
            levels.push(w.wheel.lowest_level());
        }
        assert_eq!(&levels[..5], &[Some(3), Some(2), Some(1), Some(1), Some(0)]);
        differential(&ops);
    }

    proptest::proptest! {
        /// Random interleavings of arm / re-arm / disarm / sweep (jumps
        /// longer than a revolution included) give the oracle's due lists,
        /// in its order, and its bound after every step.
        #[test]
        fn map_free_wheel_equals_the_map_oracle(
            ops in proptest::collection::vec(arb_op(), 1..160),
        ) {
            differential(&ops);
        }
    }
}
