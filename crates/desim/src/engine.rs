//! The simulation engine: an event queue plus a monotonic clock.
//!
//! [`Engine`] is deliberately minimal — it owns *when* things happen, while
//! the domain crates own *what* happens. Higher layers drive it with a loop:
//!
//! ```
//! use desim::{Engine, Duration};
//!
//! enum Ev { Tick(u32) }
//!
//! let mut engine = Engine::default();
//! engine.schedule_in(Duration::from_secs(1), Ev::Tick(0));
//! let mut ticks = 0;
//! while let Some((now, ev)) = engine.pop() {
//!     match ev {
//!         Ev::Tick(n) if n < 4 => {
//!             ticks += 1;
//!             engine.schedule_at(now + Duration::from_secs(1), Ev::Tick(n + 1));
//!         }
//!         Ev::Tick(_) => ticks += 1,
//!     }
//! }
//! assert_eq!(ticks, 5);
//! ```

use crate::calendar::EventQueue;
use crate::time::{Duration, SimTime};

/// A discrete-event simulation engine generic over the event type `E`.
pub struct Engine<E> {
    now: SimTime,
    queue: EventQueue<E>,
    processed: u64,
    clamped: u64,
    peak_pending: usize,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl<E> Engine<E> {
    /// Creates an engine at time zero whose queue is pre-sized for `cap` pending events,
    /// so steady-state simulations never re-grow event storage mid-run.
    pub fn with_capacity(cap: usize) -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: EventQueue::with_capacity(cap),
            processed: 0,
            clamped: 0,
            peak_pending: 0,
        }
    }

    /// Current simulated time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events popped so far.
    #[inline]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// High-water mark of the pending-event count over the engine's life.
    #[inline]
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// Number of events whose requested time was in the past and had to be
    /// clamped to `now` by [`Engine::schedule_at`]. Non-zero means some
    /// caller's intent was silently reordered — worth surfacing in run stats.
    #[inline]
    pub fn clamped_events(&self) -> u64 {
        self.clamped
    }

    #[inline]
    fn note_pending(&mut self) {
        let n = self.queue.len();
        if n > self.peak_pending {
            self.peak_pending = n;
        }
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// Scheduling in the past is a logic error; the event is clamped to `now`
    /// and counted in [`Engine::clamped_events`] so simulations never travel
    /// backwards and the reordering never goes unnoticed.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let at = if at < self.now {
            self.clamped += 1;
            self.now
        } else {
            at
        };
        self.queue.push(at, event);
        self.note_pending();
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: Duration, event: E) {
        self.queue.push(self.now + delay, event);
        self.note_pending();
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (t, ev) = self.queue.pop()?;
        debug_assert!(t >= self.now);
        self.now = t;
        self.processed += 1;
        Some((t, ev))
    }

    /// Pops the next event only if it fires at or before `deadline`.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match self.queue.peek_time() {
            Some(t) if t <= deadline => self.pop(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_follows_events() {
        let mut e: Engine<u8> = Engine::default();
        e.schedule_in(Duration::from_millis(10), 1);
        e.schedule_in(Duration::from_millis(20), 2);
        assert_eq!(e.now(), SimTime::ZERO);
        let (t, ev) = e.pop().unwrap();
        assert_eq!((t, ev), (SimTime::from_millis(10), 1));
        assert_eq!(e.now(), SimTime::from_millis(10));
        e.pop().unwrap();
        assert_eq!(e.now(), SimTime::from_millis(20));
        assert_eq!(e.processed(), 2);
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut e: Engine<u8> = Engine::default();
        e.schedule_in(Duration::from_secs(1), 1);
        e.schedule_in(Duration::from_secs(3), 2);
        assert!(e.pop_until(SimTime::from_secs(2)).is_some());
        assert!(e.pop_until(SimTime::from_secs(2)).is_none());
        assert_eq!(e.pop(), Some((SimTime::from_secs(3), 2)));
    }

    #[test]
    fn past_schedule_clamps_and_counts() {
        let mut e: Engine<u8> = Engine::default();
        e.schedule_at(SimTime::from_secs(5), 1);
        e.pop().unwrap();
        assert_eq!(e.clamped_events(), 0);
        e.schedule_at(SimTime::from_secs(1), 2);
        assert_eq!(e.clamped_events(), 1);
        let (t, ev) = e.pop().unwrap();
        assert_eq!((t, ev), (SimTime::from_secs(5), 2), "clamped to now");
        // Scheduling exactly at `now` is fine and not counted.
        e.schedule_at(SimTime::from_secs(5), 3);
        assert_eq!(e.clamped_events(), 1);
    }

    #[test]
    fn peak_pending_tracks_high_water_mark() {
        let mut e: Engine<u8> = Engine::with_capacity(16);
        assert_eq!(e.peak_pending(), 0);
        for i in 0..10 {
            e.schedule_in(Duration::from_millis(i as u64 + 1), i);
        }
        assert_eq!(e.peak_pending(), 10);
        while e.pop().is_some() {}
        assert_eq!(e.peak_pending(), 10, "peak survives the drain");
    }

    #[test]
    fn relative_scheduling_uses_current_clock() {
        let mut e: Engine<u8> = Engine::default();
        e.schedule_in(Duration::from_secs(1), 1);
        e.pop().unwrap();
        e.schedule_in(Duration::from_secs(1), 2);
        let (t, _) = e.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(2));
    }
}
