//! Multi-level calendar event queue — the engine's fast path.
//!
//! A drop-in replacement for the binary-heap [`NaiveEventQueue`] with the
//! same deterministic contract (pop in `(SimTime, seq)` order, FIFO among
//! same-instant ties) but built for the schedule-soon / pop-next cycle that
//! dominates simulation workloads. Every comparison anywhere in the
//! structure is one wide compare of the packed `(time << 64) | seq` `u128`
//! key; an entry stores the two halves as `u64`s, so it needs no 16-byte
//! alignment (an entry with a `u64` payload is 24 bytes, not 32). The
//! levels, nearest first:
//!
//! * **Current bucket** — the ~131 µs time bucket the queue is draining,
//!   held as one `Vec` sorted descending (pop is a `Vec` pop from the back,
//!   and [`EventQueue::peek_time`] reads its last entry). The bucket is
//!   sorted once when the cursor drains it; an event scheduled into it
//!   afterwards (a zero-delay or a past-clamped push) is inserted at its
//!   place by binary search, a short move at the back of a few dozen
//!   entries.
//! * **Near level** — a ring of [`L0_N`] buckets of [`L0_BITS`]-bit width
//!   (2^17 ns ≈ 131 µs each, ≈134 ms of horizon). Scheduling into the
//!   window is an index computation plus a store into the bucket's block
//!   chain (below) — O(1), no ordering work. An occupancy bitmap lets the
//!   drain cursor skip runs of empty buckets in a couple of word operations.
//! * **Far level** — a second ring of [`L1_N`] buckets, each spanning one
//!   full near-level window (2^27 ns ≈ 134 ms, ≈137 s of horizon). When the
//!   cursor enters a far bucket's span, its events re-bucket into the near
//!   level — the cascade discipline of a hierarchical timing wheel, one
//!   extra O(1) move per event instead of per-event heap ordering.
//! * **Spill level** — events beyond the far horizon (> ~137 s ahead)
//!   overflow into a sorted heap and migrate into the rings as the cursor
//!   approaches; when everything pending is in the spill, the cursor jumps
//!   straight to its minimum instead of ticking through empty buckets.
//!
//! **Storage.** Both rings keep their events in one block arena: a bucket is
//! a chain of [`BLOCK`]-slot blocks in one `slots` vector, filled at the
//! chain's head, and a drained bucket's blocks go onto one free chain that
//! every bucket draws from. So the queue's storage follows what is pending,
//! not how many of its 2 048 buckets were ever used, and once it has held
//! its peak population a steady state makes no heap call
//! (`tests/queue_allocs.rs`).
//!
//! Determinism is pinned two ways: every key `(time, seq)` is unique, so
//! any conforming structure yields exactly one pop order; and a
//! differential proptest oracle in `tests/properties.rs` replays arbitrary
//! interleaved push/pop schedules against [`NaiveEventQueue`] asserting
//! identical output.
//!
//! [`NaiveEventQueue`]: crate::queue::NaiveEventQueue

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::Range;

/// log2 of the near-level bucket width in nanoseconds (2^17 ns ≈ 131 µs).
const L0_BITS: u32 = 17;
/// Width of one near-level bucket, in nanoseconds.
const L0_W: u64 = 1 << L0_BITS;
/// Buckets in the near-level ring (power of two); together they cover
/// 2^27 ns ≈ 134 ms of simulated future.
const L0_N: usize = 1024;
/// log2 of the far-level bucket width: one whole near window (2^27 ns).
const L1_BITS: u32 = L0_BITS + 10;
/// Buckets in the far-level ring; together they cover 2^37 ns ≈ 137 s.
const L1_N: usize = 1024;
/// Words per occupancy bitmap (both rings are 1024 buckets).
const OCC_WORDS: usize = L0_N / 64;
/// Slots per arena block.
const BLOCK: usize = 16;
/// The end of a block chain (an empty bucket, or the end of the free chain).
const NIL: u32 = u32::MAX;

#[inline]
fn pack(time_ns: u64, seq: u64) -> u128 {
    ((time_ns as u128) << 64) | seq as u128
}

/// A pending event with the two halves of its `(time, seq)` ordering key.
struct Entry<E> {
    time_ns: u64,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> u128 {
        pack(self.time_ns, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest key pops first.
        // Keys are unique, so this is a total order.
        other.key().cmp(&self.key())
    }
}

/// One arena block: `len` filled slots from the block's start, and the next
/// block of its chain.
#[derive(Clone, Copy)]
struct Block {
    next: u32,
    len: u32,
}

/// Ring-distance (1..=1023) from `cursor` to the next occupied bucket,
/// scanning the 1024-bit occupancy bitmap strictly after `cursor`. Requires
/// at least one bit set at an index other than `cursor`.
fn next_occupied(occ: &[u64; OCC_WORDS], cursor: usize) -> usize {
    let start = (cursor + 1) & (L0_N - 1);
    let mut word = start / 64;
    let mut bits = occ[word] & !((1u64 << (start % 64)) - 1);
    for _ in 0..=OCC_WORDS {
        if bits != 0 {
            let idx = word * 64 + bits.trailing_zeros() as usize;
            return (idx + L0_N - cursor) & (L0_N - 1);
        }
        word = (word + 1) % OCC_WORDS;
        bits = occ[word];
    }
    unreachable!("occupancy bitmap is empty");
}

/// A deterministic min-priority queue of timestamped events (calendar-queue
/// implementation). The same contract as [`NaiveEventQueue`], identical pop
/// order, built for throughput.
///
/// [`NaiveEventQueue`]: crate::queue::NaiveEventQueue
pub struct EventQueue<E> {
    /// The current bucket, sorted descending by key (pop = `Vec` pop from
    /// the back). Holds every pending event before the next near bucket.
    cur: Vec<Entry<E>>,
    /// The block arena: block `b` owns `slots[b * BLOCK..][..BLOCK]`.
    slots: Vec<Option<Entry<E>>>,
    blocks: Vec<Block>,
    /// Head of the chain of empty blocks.
    free: u32,
    /// Near-level chain heads. Bucket `i` holds events with `time` inside
    /// the near window and `(time >> L0_BITS) % L0_N == i`, unordered.
    l0: Box<[u32]>,
    /// One bit per near bucket: set iff its chain is non-empty.
    occ0: [u64; OCC_WORDS],
    /// Far-level chain heads, the same scheme one level up: bucket `i` holds
    /// events in far spans 1..L1_N ahead of the cursor's span, with
    /// `(time >> L1_BITS) % L1_N == i`.
    l1: Box<[u32]>,
    /// One bit per far bucket: set iff its chain is non-empty.
    occ1: [u64; OCC_WORDS],
    /// Spill level: events beyond the far horizon, min-ordered.
    overflow: BinaryHeap<Entry<E>>,
    /// Start of the cursor bucket, aligned down to `L0_W`.
    base: u64,
    /// Total pending events.
    len: usize,
    /// Next insertion sequence number (FIFO tie-break).
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue whose arena is pre-sized for `cap` pending
    /// events, so a simulation that knows its population does not re-grow
    /// the arena while it ramps up.
    pub fn with_capacity(cap: usize) -> Self {
        let blocks = cap.div_ceil(BLOCK);
        EventQueue {
            // Room for one block, so draining a one-block chain does not
            // grow it.
            cur: Vec::with_capacity(BLOCK),
            slots: Vec::with_capacity(blocks * BLOCK),
            blocks: Vec::with_capacity(blocks),
            free: NIL,
            l0: vec![NIL; L0_N].into_boxed_slice(),
            occ0: [0; OCC_WORDS],
            l1: vec![NIL; L1_N].into_boxed_slice(),
            occ1: [0; OCC_WORDS],
            overflow: BinaryHeap::new(),
            base: 0,
            len: 0,
            next_seq: 0,
        }
    }

    /// Inserts `event` to fire at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let e = Entry {
            time_ns: time.as_nanos(),
            seq,
            event,
        };
        self.len += 1;
        self.route(e);
        if self.cur.is_empty() {
            // The push landed in a ring or the spill while nothing was
            // primed for popping: advance the cursor to it.
            self.advance();
        }
    }

    /// Removes and returns the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let e = self.cur.pop()?;
        self.len -= 1;
        if self.len > 0 && self.cur.is_empty() {
            self.advance();
        }
        Some((SimTime::from_nanos(e.time_ns), e.event))
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.cur.last().map(|e| SimTime::from_nanos(e.time_ns))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Files `e` into the level its time calls for, relative to the current
    /// cursor. Does not touch `len`.
    fn route(&mut self, e: Entry<E>) {
        let t = e.time_ns;
        // Buckets ahead of the cursor's; 0 for the cursor bucket and for any
        // time before it (arbitrarily far in the past is legal).
        let d0 = t.saturating_sub(self.base) >> L0_BITS;
        if d0 == 0 {
            // Exact ordering in the current bucket.
            let at = self.cur.partition_point(|c| c.key() > e.key());
            self.cur.insert(at, e);
        } else if d0 < L0_N as u64 {
            let idx = (t >> L0_BITS) as usize & (L0_N - 1);
            self.l0[idx] = self.link(self.l0[idx], e);
            self.occ0[idx / 64] |= 1 << (idx % 64);
        } else {
            let s = (t >> L1_BITS) - (self.base >> L1_BITS);
            if s < L1_N as u64 {
                let idx = (t >> L1_BITS) as usize & (L1_N - 1);
                self.l1[idx] = self.link(self.l1[idx], e);
                self.occ1[idx / 64] |= 1 << (idx % 64);
            } else {
                self.overflow.push(e);
            }
        }
    }

    /// Stores `e` in the chain whose head block is `head` and returns the
    /// chain's head: `head` itself, or a block opened in front of it when it
    /// is full (or the chain is empty) — from the free chain if it has one,
    /// else by appending [`BLOCK`] slots to the arena.
    fn link(&mut self, head: u32, e: Entry<E>) -> u32 {
        let mut b = head;
        if b == NIL || self.blocks[b as usize].len as usize == BLOCK {
            let block = Block { next: head, len: 0 };
            if self.free == NIL {
                b = self.blocks.len() as u32;
                self.blocks.push(block);
                self.slots.resize_with(self.slots.len() + BLOCK, || None);
            } else {
                b = self.free;
                self.free = self.blocks[b as usize].next;
                self.blocks[b as usize] = block;
            }
        }
        let block = &mut self.blocks[b as usize];
        self.slots[b as usize * BLOCK + block.len as usize] = Some(e);
        block.len += 1;
        b
    }

    /// Hands the filled slots of every block of the chain starting at `head`
    /// to `each`, as a range of `slots` in block order, and puts each emptied
    /// block on the free chain. `each` must take every slot of its range. The
    /// caller has already detached the chain from its bucket.
    fn unlink_all(&mut self, head: u32, mut each: impl FnMut(&mut Self, Range<usize>)) {
        let mut b = head;
        while b != NIL {
            let Block { next, len } = self.blocks[b as usize];
            let start = b as usize * BLOCK;
            each(self, start..start + len as usize);
            self.blocks[b as usize] = Block {
                next: self.free,
                len: 0,
            };
            self.free = b;
            b = next;
        }
    }

    /// Moves the cursor forward until some event is primed in `cur`,
    /// draining/cascading buckets as it goes. Called only when `cur` is
    /// empty and `len > 0`.
    fn advance(&mut self) {
        debug_assert!(self.cur.is_empty() && self.len > 0);
        loop {
            // Prime from the cursor's own near bucket first: cursor moves
            // below can land on a bucket that already holds events, after a
            // far cascade may have put events into `cur` already.
            let c0 = (self.base >> L0_BITS) as usize & (L0_N - 1);
            if self.occ0[c0 / 64] & (1 << (c0 % 64)) != 0 {
                let head = std::mem::replace(&mut self.l0[c0], NIL);
                self.occ0[c0 / 64] &= !(1 << (c0 % 64));
                self.unlink_all(head, |q, r| {
                    let slots = q.slots[r].iter_mut();
                    q.cur.extend(slots.map(|s| s.take().expect("filled slot")));
                });
                // One sort per bucket; descending so pops come off the back.
                self.cur
                    .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
            }
            if !self.cur.is_empty() {
                return;
            }
            // Candidate next cursor positions, widened to u128 so horizons
            // near `u64::MAX` cannot overflow the arithmetic. `cand0` is the
            // exact start of the next occupied near bucket; `cand1` is the
            // start of the next occupied far span — a lower bound on its
            // events, which is all that is needed: taking it just cascades
            // that span into the near ring and loops.
            let span = self.base >> L1_BITS;
            let cand0: Option<u128> = (self.occ0 != [0; OCC_WORDS])
                .then(|| self.base as u128 + next_occupied(&self.occ0, c0) as u128 * L0_W as u128);
            let cand1: Option<u128> = (self.occ1 != [0; OCC_WORDS]).then(|| {
                let s = next_occupied(&self.occ1, span as usize & (L1_N - 1));
                (span as u128 + s as u128) << L1_BITS
            });
            match (cand0, cand1) {
                // The next occupied far span starts at or before the next
                // near bucket (`<=`: its events may precede that bucket's):
                // cascade it into the near ring before moving past it.
                (c0_at, Some(c1)) if c0_at.is_none_or(|v| c1 <= v) => {
                    self.base = c1 as u64;
                    self.drain_far_bucket();
                    self.migrate_overflow();
                }
                (Some(v), _) => {
                    let crossed_span = (v as u64 >> L1_BITS) != span;
                    self.base = v as u64;
                    if crossed_span {
                        self.migrate_overflow();
                    }
                }
                (None, Some(_)) => unreachable!("guard above always takes this case"),
                (None, None) => {
                    // Everything pending lives in the spill: jump straight
                    // to its minimum (migration re-routes it to `cur`).
                    let t = self
                        .overflow
                        .peek()
                        .expect("len > 0 with empty rings implies spill events")
                        .time_ns;
                    self.base = t & !(L0_W - 1);
                    self.migrate_overflow();
                }
            }
        }
    }

    /// Cascades the far bucket of the cursor's span into the near ring and
    /// `cur`. The span was just entered, so every entry re-routes at
    /// near-level granularity (never back into the far ring).
    fn drain_far_bucket(&mut self) {
        let idx = (self.base >> L1_BITS) as usize & (L1_N - 1);
        if self.occ1[idx / 64] & (1 << (idx % 64)) == 0 {
            return;
        }
        let head = std::mem::replace(&mut self.l1[idx], NIL);
        self.occ1[idx / 64] &= !(1 << (idx % 64));
        self.unlink_all(head, |q, r| {
            for i in r {
                let e = q.slots[i].take().expect("filled slot");
                debug_assert!(e.time_ns >= q.base);
                q.route(e);
            }
        });
    }

    /// Re-files every spill-level event whose time now falls inside the far
    /// horizon. Called whenever the cursor's span changes.
    fn migrate_overflow(&mut self) {
        let span = self.base >> L1_BITS;
        while let Some(e) = self.overflow.peek() {
            debug_assert!(e.time_ns >= self.base);
            if (e.time_ns >> L1_BITS) - span >= L1_N as u64 {
                return;
            }
            let e = self.overflow.pop().expect("peeked");
            self.route(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::NaiveEventQueue;
    use crate::rng::SimRng;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::default();
        q.push(SimTime::from_millis(30), "c");
        q.push(SimTime::from_millis(10), "a");
        q.push(SimTime::from_millis(20), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::default();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::default();
        q.push(SimTime::from_secs(1), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::default();
        q.push(SimTime::from_millis(10), 1);
        q.push(SimTime::from_millis(5), 0);
        assert_eq!(q.pop().unwrap().1, 0);
        q.push(SimTime::from_millis(7), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 1);
    }

    #[test]
    fn past_pushes_pop_first() {
        let mut q = EventQueue::default();
        q.push(SimTime::from_secs(100), "future");
        assert_eq!(q.pop().unwrap().1, "future");
        // The cursor sits near t=100s; a push far before it must still win.
        q.push(SimTime::from_secs(200), "later");
        q.push(SimTime::from_secs(1), "past");
        assert_eq!(q.pop().unwrap().1, "past");
        assert_eq!(q.pop().unwrap().1, "later");
    }

    #[test]
    fn events_cross_every_level() {
        let mut q = EventQueue::default();
        q.push(SimTime::from_nanos(50_000), 0); // current bucket
        q.push(SimTime::from_millis(1), 1); // near ring
        q.push(SimTime::from_secs(1), 2); // far ring
        q.push(SimTime::from_secs(3600), 3); // spill (beyond ~137 s)
        q.push(SimTime::from_secs(7200), 4); // spill
        for want in 0..5 {
            assert_eq!(q.pop().unwrap().1, want);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn far_events_overtaken_by_near_pushes() {
        let mut q = EventQueue::default();
        // A lone far event primes the cursor near its own time...
        q.push(SimTime::from_secs(10), "far");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(10)));
        // ...then earlier work arrives before it pops.
        q.push(SimTime::from_secs(5), "sooner");
        assert_eq!(q.pop().unwrap().1, "sooner");
        assert_eq!(q.pop().unwrap().1, "far");
    }

    #[test]
    fn simtime_max_is_representable() {
        let mut q = EventQueue::default();
        q.push(SimTime::MAX, "end");
        q.push(SimTime::ZERO, "start");
        assert_eq!(q.pop().unwrap().1, "start");
        assert_eq!(q.pop().unwrap(), (SimTime::MAX, "end"));
    }

    /// The differential oracle in miniature (the proptest version lives in
    /// `tests/properties.rs`): random interleaved push/pop schedules pop
    /// identically to the binary-heap reference.
    #[test]
    fn random_schedules_match_naive_queue() {
        for seed in 0..30u64 {
            let mut rng = SimRng::new(seed);
            let mut fast = EventQueue::default();
            let mut naive = NaiveEventQueue::new();
            let mut clock = 0u64;
            for step in 0..2_000 {
                if rng.below(3) < 2 || fast.is_empty() {
                    // Mixed horizon: same-instant, current-bucket, near-ring,
                    // far-ring, and past-the-spill-boundary delays.
                    let delay = match rng.below(10) {
                        0 => 0,
                        1..=5 => rng.below(2_000_000),   // < 2 ms
                        6 | 7 => rng.below(200_000_000), // < 200 ms
                        8 => rng.below(20_000_000_000),  // < 20 s
                        _ => rng.below(400_000_000_000), // < 400 s (spill)
                    };
                    let t = SimTime::from_nanos(clock + delay);
                    fast.push(t, step);
                    naive.push(t, step);
                } else {
                    let a = fast.pop();
                    let b = naive.pop();
                    assert_eq!(a, b, "seed {seed} step {step}");
                    if let Some((t, _)) = a {
                        clock = t.as_nanos();
                    }
                }
                assert_eq!(fast.len(), naive.len());
                assert_eq!(fast.peek_time(), naive.peek_time());
            }
            loop {
                let a = fast.pop();
                let b = naive.pop();
                assert_eq!(a, b, "seed {seed} drain");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    /// A far cascade can file events into `cur` in the same advance that then
    /// primes the cursor's own near bucket, whose chain still holds events
    /// routed while the cursor sat in the previous span. Both end up in
    /// `cur` in key order, and the near ring still finds the later `m`.
    #[test]
    fn far_cascade_into_cur_then_near_bucket_primes() {
        let span1 = 1u64 << L1_BITS;
        let mut q = EventQueue::default();
        q.push(SimTime::from_nanos(5), "p"); // primes the cursor at 0
        q.push(SimTime::from_nanos(span1 + 3), "f"); // far ring, span 1
        q.push(SimTime::from_nanos(100 * L0_W), "q"); // near ring
        assert_eq!(q.pop().unwrap().1, "p"); // the cursor moves to `q`'s bucket
        q.push(SimTime::from_nanos(span1 + 5), "n"); // near ring, span 1's first bucket
        q.push(SimTime::from_nanos(span1 + 3 * L0_W), "m"); // near ring
        assert_eq!(q.pop().unwrap().1, "q");
        // Popping `q` left `cur` empty: the cursor cascaded span 1 (`f` into
        // `cur`) and then primed the near bucket holding `n`.
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(span1 + 3)));
        for want in ["f", "n", "m"] {
            assert_eq!(q.pop().unwrap().1, want);
        }
        assert!(q.is_empty());
    }
}
