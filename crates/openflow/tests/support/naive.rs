//! The seed's linear-scan flow table, kept as the behavioural reference.
//!
//! [`NaiveFlowTable`] is the implementation `openflow::FlowTable` replaced:
//! a priority-sorted `Vec` scanned linearly on every lookup, fully drained
//! on every expiry sweep, and globally re-sorted on every add. It is
//! semantically authoritative and obviously correct, which makes it the
//! oracle the differential test (`super::diff`) replays against. It must
//! stay simple — do not optimize this type.

use desim::{Duration, SimTime};
use openflow::table::{FlowEntry, Removed};
use openflow::{Actions, Match, MatchView, RemovedReason};

/// The reference flow table: every operation is a scan over a sorted `Vec`.
#[derive(Default)]
pub struct NaiveFlowTable {
    entries: Vec<FlowEntry>,
}

impl NaiveFlowTable {
    /// Creates an empty table.
    pub fn new() -> NaiveFlowTable {
        NaiveFlowTable::default()
    }

    /// Number of installed flows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Iterates over entries in priority order (descending; first-added
    /// first among equal priorities).
    pub fn entries(&self) -> impl Iterator<Item = &FlowEntry> {
        self.entries.iter()
    }

    /// Adds a flow. An existing entry with identical match and priority is
    /// replaced (OpenFlow ADD semantics), preserving nothing.
    pub fn add(&mut self, mut entry: FlowEntry, now: SimTime) {
        entry.installed_at = now;
        entry.last_hit = now;
        entry.packet_count = 0;
        entry.byte_count = 0;
        self.entries
            .retain(|e| !(e.priority == entry.priority && e.match_ == entry.match_));
        self.entries.push(entry);
        // Keep sorted by descending priority; stable sort preserves insertion
        // order among equal priorities (first-added wins lookups).
        self.entries.sort_by_key(|e| std::cmp::Reverse(e.priority));
    }

    /// Deletes all flows whose match equals `match_` (exact-match delete;
    /// the controller always deletes what it installed). A wildcard `match_`
    /// deletes everything. Returns removal records.
    pub fn delete(&mut self, match_: &Match, now: SimTime) -> Vec<Removed> {
        let mut removed = Vec::new();
        let mut kept = Vec::with_capacity(self.entries.len());
        for e in self.entries.drain(..) {
            if match_.is_empty() || e.match_ == *match_ {
                removed.push(Removed {
                    entry: e,
                    reason: RemovedReason::Delete,
                    at: now,
                });
            } else {
                kept.push(e);
            }
        }
        self.entries = kept;
        removed
    }

    /// Looks up the highest-priority matching flow, updating its counters and
    /// idle timer. Returns a copy of the matched entry's actions plus its
    /// cookie.
    pub fn lookup(
        &mut self,
        view: &MatchView,
        frame_len: usize,
        now: SimTime,
    ) -> Option<(u64, Actions)> {
        let e = self.entries.iter_mut().find(|e| e.match_.matches(view))?;
        e.packet_count += 1;
        e.byte_count += frame_len as u64;
        e.last_hit = now;
        Some((e.cookie, e.actions))
    }

    /// Read-only lookup (no counter updates).
    pub fn peek(&self, view: &MatchView) -> Option<&FlowEntry> {
        self.entries.iter().find(|e| e.match_.matches(view))
    }

    /// Removes every flow whose idle timeout has elapsed at `now`, returning
    /// removal records.
    pub fn expire(&mut self, now: SimTime) -> Vec<Removed> {
        let mut removed = Vec::new();
        let mut kept = Vec::with_capacity(self.entries.len());
        for e in self.entries.drain(..) {
            if e.idle_timeout != Duration::ZERO && now - e.last_hit >= e.idle_timeout {
                removed.push(Removed {
                    entry: e,
                    reason: RemovedReason::IdleTimeout,
                    at: now,
                });
            } else {
                kept.push(e);
            }
        }
        self.entries = kept;
        removed
    }

    /// The earliest instant at which some flow could expire, or `None` if no
    /// flow has a timeout.
    pub fn next_expiry(&self) -> Option<SimTime> {
        self.entries
            .iter()
            .filter(|e| e.idle_timeout != Duration::ZERO)
            .map(|e| e.last_hit + e.idle_timeout)
            .min()
    }
}
