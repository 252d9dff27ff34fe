//! Stable-ordered event queue — reference implementation.
//!
//! A binary-heap priority queue keyed by `(SimTime, sequence)`. The sequence
//! number breaks ties between events scheduled for the same instant in FIFO
//! order of insertion, which keeps simulations deterministic regardless of
//! heap internals.
//!
//! This is the original engine queue, kept as [`NaiveEventQueue`] for two
//! jobs: it is k8ssim's work queue (a handful of pending steps, which one
//! heap buffer orders more cheaply than the calendar's rings), and it is the
//! differential oracle of the calendar-queue fast path
//! ([`crate::calendar::EventQueue`]), which must pop in exactly the same
//! `(time, seq)` order for every schedule.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
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
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic min-priority queue of timestamped events, backed by a
/// single global binary heap.
///
/// Correct and simple, but every push/pop pays an `O(log n)` sift over the
/// whole pending set. The engine uses [`crate::EventQueue`] (the calendar
/// queue) instead; this type remains as k8ssim's work queue and the
/// calendar's determinism oracle.
pub struct NaiveEventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for NaiveEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> NaiveEventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        NaiveEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Inserts `event` to fire at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Removes and returns the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn pops_in_time_order() {
        let mut q = NaiveEventQueue::new();
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
        let mut q = NaiveEventQueue::new();
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
        let mut q = NaiveEventQueue::new();
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
        let mut q = NaiveEventQueue::new();
        q.push(SimTime::from_millis(10), 1);
        q.push(SimTime::from_millis(5), 0);
        assert_eq!(q.pop().unwrap().1, 0);
        q.push(SimTime::from_millis(7), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 1);
    }
}
