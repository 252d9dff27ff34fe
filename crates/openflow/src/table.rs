//! Flow-table semantics: priority lookup, counters, timeouts.
//!
//! This is the state a switch keeps per table. The same structure backs the
//! controller's *FlowMemory* (Section V of the paper): memorized flows with
//! idle timeouts whose expiry both cleans the memory and triggers automatic
//! scale-down of idle edge services.
//!
//! # Fast path
//!
//! The table is indexed for O(1) per-packet classification, replacing the
//! seed's linear scan (kept in `tests/table_diff.rs` for differential
//! testing):
//!
//! * Every [`Match`] in this protocol subset is a set of *exact* fields,
//!   packed as a mask of the kinds it constrains (its **shape**) and their
//!   values, so a match is its own hash key. A lookup builds, for each
//!   distinct shape in the table, the match of that shape the packet
//!   satisfies and probes for it (typically two: the per-connection redirect
//!   shape and the service shape, plus the table-miss wildcard), not one
//!   comparison per entry.
//! * A [`TimerHeap`] holds one copy per timed entry, never later than its
//!   idle expiry, so [`FlowTable::expire_into`] pops only entries actually due
//!   and [`FlowTable::next_expiry`] is O(1). Ids are never reused, so a copy
//!   is current iff its id resolves. Idle refreshes are lazy: a packet hit
//!   does not touch the heap; a sweep re-arms a refreshed entry.
//!
//! # Storage
//!
//! Entries live in a **slab**: a `Vec` of slots, vacated slots recycled
//! through a free list, so installing and removing a flow moves no other
//! entry and resolving a `FlowId` is an array index, not a hash probe. A
//! `FlowId` is `sequence << 28 | slot`: the low 28 bits say where the entry
//! sits, the high bits count insertions. Ids therefore still grow with
//! insertion order — the first-added tie-break and every sort key compare
//! ids exactly as before, whichever slot an entry happens to occupy — and a
//! slot remembers its tenant's id, so the id of a removed flow (one the
//! timer heap still holds, say) never resolves to the flow that took its
//! slot.
//!
//! An index bucket holds its best candidate **inline** (`head`) and any
//! others in a `Vec` that stays unallocated until it is needed. A bucket has
//! more than one id only while one match is installed at several priorities
//! (a permuted spelling of a match *is* that match, so its Add replaces), so
//! the usual flow costs no heap call to file, and [`FlowTable::add`] and
//! removal probe the index once each, through the map's entry API.
//!
//! Observable semantics are identical to the naive table: priority order,
//! first-added-wins among equal priorities, set equality of matches for
//! ADD/DELETE, and per-entry counters. `tests/table_diff.rs` replays
//! randomized operation sequences against both implementations to prove it.

use crate::actions::{Action, Actions};
use crate::messages::{RemovedReason, OFPFF_SEND_FLOW_REM};
use crate::oxm::{Match, MatchView};
use desim::{Duration, FastMap, SimTime, TimerHeap};
use std::collections::hash_map::Entry;

/// One installed flow.
#[derive(Clone, Copy, Debug)]
pub struct FlowEntry {
    /// Match condition.
    pub match_: Match,
    /// Priority; higher wins.
    pub priority: u16,
    /// Controller cookie.
    pub cookie: u64,
    /// Actions to apply on match.
    pub actions: Actions,
    /// Idle timeout ([`Duration::ZERO`] = none).
    pub idle_timeout: Duration,
    /// `FLOW_MOD` flags.
    pub flags: u16,
    /// Installation time.
    pub installed_at: SimTime,
    /// Last time a packet hit this flow.
    pub last_hit: SimTime,
    /// Packets matched.
    pub packet_count: u64,
    /// Bytes matched.
    pub byte_count: u64,
}

impl FlowEntry {
    /// `true` if this entry requested a `FLOW_REMOVED` notification.
    pub fn wants_removed_msg(&self) -> bool {
        self.flags & OFPFF_SEND_FLOW_REM != 0
    }

    /// `true` if this entry's idle timeout has elapsed at `now`.
    fn idled_out(&self, now: SimTime) -> bool {
        self.idle_timeout != Duration::ZERO && now - self.last_hit >= self.idle_timeout
    }

    /// The earliest instant this entry could time out given its current
    /// timer, or `None` if it has no timeout.
    fn next_deadline(&self) -> Option<SimTime> {
        (self.idle_timeout != Duration::ZERO).then(|| self.last_hit + self.idle_timeout)
    }
}

/// A removal record produced by expiry or deletion.
#[derive(Clone, Copy, Debug)]
pub struct Removed {
    /// The removed entry (with final counters).
    pub entry: FlowEntry,
    /// Why it went away.
    pub reason: RemovedReason,
    /// When it was removed.
    pub at: SimTime,
}

impl Removed {
    /// Lifetime of the flow.
    pub fn duration(&self) -> Duration {
        self.at - self.entry.installed_at
    }
}

/// Handle of an installed flow inside this module, valid until the entry is
/// removed. Ordered: a later insertion has a larger id (see the module docs
/// for the layout).
type FlowId = u64;

/// Low bits of a [`FlowId`] that name the slab slot; the rest count
/// insertions. 2²⁸ resident flows and 2³⁶ insertions per table.
const SLOT_BITS: u32 = 28;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

/// One slab cell: the id of its tenant (of its last tenant, once vacated)
/// and the tenant itself.
struct SlabSlot {
    id: FlowId,
    entry: Option<FlowEntry>,
}

/// Entry storage: slots addressed by the low bits of a [`FlowId`], vacated
/// ones reused last-out-first-in.
#[derive(Default)]
struct Slab {
    slots: Vec<SlabSlot>,
    /// Vacant slot numbers.
    free: Vec<u32>,
    /// Insertions so far — the high bits of the next id, so id order is
    /// insertion order (the OpenFlow tiebreak among equal priorities)
    /// whichever slots get reused.
    next_seq: u64,
}

impl Slab {
    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    fn insert(&mut self, entry: FlowEntry) -> FlowId {
        let slot = self.free.pop().unwrap_or(self.slots.len() as u32);
        // Ids must stay unique and ordered: lookups and tie-breaks rely on it.
        assert!(
            u64::from(slot) <= SLOT_MASK && self.next_seq < 1 << (64 - SLOT_BITS),
            "flow table id space exhausted"
        );
        let id = self.next_seq << SLOT_BITS | u64::from(slot);
        self.next_seq += 1;
        let cell = SlabSlot { id, entry: Some(entry) };
        match self.slots.get_mut(slot as usize) {
            Some(vacant) => *vacant = cell,
            None => self.slots.push(cell),
        }
        id
    }

    fn get(&self, id: FlowId) -> Option<&FlowEntry> {
        let cell = self.slots.get((id & SLOT_MASK) as usize)?;
        if cell.id == id { cell.entry.as_ref() } else { None }
    }

    fn get_mut(&mut self, id: FlowId) -> Option<&mut FlowEntry> {
        let cell = self.slots.get_mut((id & SLOT_MASK) as usize)?;
        if cell.id == id { cell.entry.as_mut() } else { None }
    }

    fn remove(&mut self, id: FlowId) -> Option<FlowEntry> {
        let slot = (id & SLOT_MASK) as usize;
        let cell = self.slots.get_mut(slot)?;
        if cell.id != id {
            return None;
        }
        let entry = cell.entry.take()?;
        self.free.push(slot as u32);
        Some(entry)
    }

    fn iter(&self) -> impl Iterator<Item = (FlowId, &FlowEntry)> {
        self.slots.iter().filter_map(|c| Some((c.id, c.entry.as_ref()?)))
    }
}

impl std::ops::Index<FlowId> for Slab {
    type Output = FlowEntry;

    fn index(&self, id: FlowId) -> &FlowEntry {
        self.get(id).expect("live flow id")
    }
}

/// The ids filed under one [`Match`], sorted by (priority desc, id asc):
/// `head` is the bucket's best candidate, `rest` everything after it.
struct Bucket {
    head: FlowId,
    rest: Vec<FlowId>,
}

impl Bucket {
    fn iter(&self) -> impl Iterator<Item = FlowId> + '_ {
        std::iter::once(self.head).chain(self.rest.iter().copied())
    }

    /// Files `id` keeping the order. `id` is always the newest, so it goes
    /// after every equal priority.
    fn file(&mut self, flows: &Slab, id: FlowId) {
        let prio = flows[id].priority;
        if flows[self.head].priority < prio {
            self.rest.insert(0, std::mem::replace(&mut self.head, id));
        } else {
            let rest = &mut self.rest;
            let pos = rest.iter().position(|&other| flows[other].priority < prio);
            rest.insert(pos.unwrap_or(rest.len()), id);
        }
    }

    /// Unfiles `id`; the bucket must hold another.
    fn unfile(&mut self, id: FlowId) {
        if self.head == id {
            self.head = self.rest.remove(0);
        } else {
            self.rest.retain(|&x| x != id);
        }
    }
}

/// A single OpenFlow table, indexed for O(1) exact-match classification.
#[derive(Default)]
pub struct FlowTable {
    /// Entry storage, addressed by stable id.
    flows: Slab,
    /// Exact-match index: match → the ids carrying it.
    index: FastMap<Match, Bucket>,
    /// Live entry count per shape mask — the set of probes a lookup makes.
    shape_counts: FastMap<u16, usize>,
    /// Expiry heap, one copy per entry with a timeout, never later than its
    /// true expiry (idle refreshes are applied lazily on sweep).
    timers: TimerHeap<FlowId>,
    /// Recycled id buffer of expiry sweeps and deletes, so neither allocates
    /// in the steady state.
    id_scratch: Vec<FlowId>,
}

/// `true` if candidate `(priority, id)` `a` beats `b` (higher priority wins;
/// first-added — lower id — wins ties).
fn beats(a: (u16, FlowId), b: (u16, FlowId)) -> bool {
    a.0 > b.0 || (a.0 == b.0 && a.1 < b.1)
}

impl FlowTable {
    /// Creates an empty table.
    pub fn new() -> FlowTable {
        FlowTable::default()
    }

    /// Number of installed flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// `true` if no flows are installed.
    pub fn is_empty(&self) -> bool {
        self.flows.len() == 0
    }

    /// Iterates over entries in priority order (descending; first-added
    /// first among equal priorities) — diagnostics / stats.
    pub fn entries(&self) -> impl Iterator<Item = &FlowEntry> {
        let mut ids: Vec<(FlowId, &FlowEntry)> = self.flows.iter().collect();
        ids.sort_by_key(|&(id, e)| (std::cmp::Reverse(e.priority), id));
        ids.into_iter().map(|(_, e)| e)
    }

    /// Unfiles and drops entry `id`; disarms its timer unless a sweep claimed it.
    fn remove_entry(&mut self, id: FlowId, swept: bool) -> FlowEntry {
        let entry = self.flows.remove(id).expect("live flow id");
        let Entry::Occupied(mut bucket) = self.index.entry(entry.match_) else {
            unreachable!("indexed entry has bucket");
        };
        if bucket.get().rest.is_empty() {
            debug_assert_eq!(bucket.get().head, id);
            bucket.remove();
        } else {
            bucket.get_mut().unfile(id);
        }
        let mask = entry.match_.mask();
        let n = self.shape_counts.get_mut(&mask).expect("shape count");
        *n -= 1;
        if *n == 0 {
            self.shape_counts.remove(&mask);
        }
        if !swept && entry.next_deadline().is_some() {
            self.timers.disarm();
        }
        entry
    }

    /// Adds a flow. An existing entry with identical match and priority is
    /// replaced (OpenFlow ADD semantics), preserving nothing.
    pub fn add(&mut self, mut entry: FlowEntry, now: SimTime) {
        entry.installed_at = now;
        entry.last_hit = now;
        entry.packet_count = 0;
        entry.byte_count = 0;
        let match_ = entry.match_;
        let deadline = entry.next_deadline();
        let id = self.flows.insert(entry);
        if let Some(deadline) = deadline {
            self.timers.arm(id, deadline);
        }
        // ADD keeps `(priority, match)` unique, so it replaces at most one
        // flow — found in the bucket of the new one's match.
        let flows = &self.flows;
        let replaced = match self.index.entry(match_) {
            Entry::Vacant(v) => {
                v.insert(Bucket {
                    head: id,
                    rest: Vec::new(),
                });
                *self.shape_counts.entry(match_.mask()).or_insert(0) += 1;
                None
            }
            Entry::Occupied(o) => {
                let bucket = o.into_mut();
                let prio = flows[id].priority;
                let replaced = bucket.iter().find(|&old| flows[old].priority == prio);
                bucket.file(flows, id);
                match replaced {
                    Some(old) => bucket.unfile(old),
                    None => *self.shape_counts.get_mut(&match_.mask()).expect("shape count") += 1,
                }
                replaced
            }
        };
        if replaced.and_then(|old| self.flows.remove(old)?.next_deadline()).is_some() {
            self.timers.disarm();
        }
    }

    /// Deletes all flows whose match equals `match_` (exact-match delete;
    /// the controller always deletes what it installed), appending removal
    /// records to `out` in priority order. A wildcard `match_` deletes
    /// everything.
    pub fn delete_into(&mut self, match_: &Match, now: SimTime, out: &mut Vec<Removed>) {
        let mut ids = std::mem::take(&mut self.id_scratch);
        ids.clear();
        if match_.is_empty() {
            ids.extend(self.flows.iter().map(|(id, _)| id));
        } else if let Some(bucket) = self.index.get(match_) {
            ids.extend(bucket.iter());
        }
        // Ids are unique, so the unstable sort (no merge buffer) is exact.
        ids.sort_unstable_by_key(|&id| (std::cmp::Reverse(self.flows[id].priority), id));
        for id in ids.drain(..) {
            let entry = self.remove_entry(id, false);
            out.push(Removed { entry, reason: RemovedReason::Delete, at: now });
        }
        self.id_scratch = ids;
    }

    /// The winning entry id for `view`: one hash probe per live shape —
    /// independent of how many flows are installed.
    fn classify(&self, view: &MatchView) -> Option<FlowId> {
        let mut best: Option<(u16, FlowId)> = None;
        for &mask in self.shape_counts.keys() {
            if let Some(id) = self.index.get(&Match::of_view(mask, view)).map(|b| b.head) {
                let cand = (self.flows[id].priority, id);
                if best.is_none_or(|b| beats(cand, b)) {
                    best = Some(cand);
                }
            }
        }
        best.map(|(_, id)| id)
    }

    /// Looks up the highest-priority matching flow, updating its counters and
    /// idle timer. Returns the matched entry's cookie and a borrow of its
    /// actions — the per-packet path never clones them.
    pub fn lookup(
        &mut self,
        view: &MatchView,
        frame_len: usize,
        now: SimTime,
    ) -> Option<(u64, &[Action])> {
        let id = self.classify(view)?;
        let e = self.flows.get_mut(id)?;
        e.packet_count += 1;
        e.byte_count += frame_len as u64;
        e.last_hit = now;
        Some((e.cookie, &e.actions))
    }

    /// Read-only lookup (no counter updates).
    pub fn peek(&self, view: &MatchView) -> Option<&FlowEntry> {
        self.classify(view).map(|id| &self.flows[id])
    }

    /// Removes every flow whose idle timeout has elapsed at `now`, appending
    /// removal records to `out` in priority order. Visits only entries whose
    /// heap deadline is due — entries whose idle timer was refreshed by traffic
    /// since their deadline was set are rescheduled, not scanned again.
    pub fn expire_into(&mut self, now: SimTime, out: &mut Vec<Removed>) {
        let mut due = std::mem::take(&mut self.id_scratch);
        due.clear();
        self.timers.expired_into(now, &mut due, |&id, _, _| self.flows.get(id).is_some());
        due.retain(|&id| {
            let e = &self.flows[id];
            let expired = e.idled_out(now);
            if !expired {
                // Idle timer was refreshed since this deadline was set.
                let deadline = e.next_deadline().expect("scheduled entry has a timeout");
                self.timers.arm(id, deadline);
            }
            expired
        });
        // Ids are unique, so the unstable sort (no merge buffer) is exact.
        due.sort_unstable_by_key(|&id| (std::cmp::Reverse(self.flows[id].priority), id));
        for id in due.drain(..) {
            let entry = self.remove_entry(id, true);
            out.push(Removed { entry, reason: RemovedReason::IdleTimeout, at: now });
        }
        self.id_scratch = due;
    }

    /// The earliest instant at which some flow could expire (for efficient
    /// timer scheduling), or `None` if no flow has a timeout. O(1): reads
    /// the timer heap's bound, which is never later than the true earliest
    /// expiry (it can be earlier after idle refreshes or removals; a sweep
    /// at that instant re-arms or drops what it finds and re-tightens it).
    pub fn next_expiry(&self) -> Option<SimTime> {
        self.timers.next_deadline()
    }
}

/// Builds a [`FlowEntry`] with zeroed counters/timers (filled in by
/// [`FlowTable::add`]).
pub fn entry(
    match_: Match,
    priority: u16,
    cookie: u64,
    actions: Actions,
    idle_timeout: Duration,
    flags: u16,
) -> FlowEntry {
    FlowEntry {
        match_,
        priority,
        cookie,
        actions,
        idle_timeout,
        flags,
        installed_at: SimTime::ZERO,
        last_hit: SimTime::ZERO,
        packet_count: 0,
        byte_count: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oxm::OxmField;

    /// [`FlowTable::expire_into`] with a fresh buffer.
    fn expire(t: &mut FlowTable, now: SimTime) -> Vec<Removed> {
        let mut removed = Vec::new();
        t.expire_into(now, &mut removed);
        removed
    }

    /// [`FlowTable::delete_into`] with a fresh buffer.
    fn delete(t: &mut FlowTable, match_: &Match, now: SimTime) -> Vec<Removed> {
        let mut removed = Vec::new();
        t.delete_into(match_, now, &mut removed);
        removed
    }

    fn view(dst_port: u16) -> MatchView {
        MatchView {
            in_port: 1,
            eth_dst: [0; 6],
            eth_src: [0; 6],
            eth_type: 0x0800,
            ip_proto: 6,
            ipv4_src: [192, 168, 1, 20],
            ipv4_dst: [203, 0, 113, 10],
            tcp_src: 50000,
            tcp_dst: dst_port,
        }
    }

    fn fwd(port: u32) -> Actions {
        Actions::from([Action::output(port)])
    }

    #[test]
    fn priority_order_wins() {
        let mut t = FlowTable::new();
        t.add(
            entry(Match::any(), 0, 1, fwd(1), Duration::ZERO, 0),
            SimTime::ZERO,
        );
        t.add(
            entry(
                Match::service([203, 0, 113, 10], 80),
                100,
                2,
                fwd(2),
                Duration::ZERO,
                0,
            ),
            SimTime::ZERO,
        );
        let (cookie, _) = t.lookup(&view(80), 64, SimTime::ZERO).unwrap();
        assert_eq!(cookie, 2);
        let (cookie, _) = t.lookup(&view(443), 64, SimTime::ZERO).unwrap();
        assert_eq!(cookie, 1); // only the wildcard matches
    }

    #[test]
    fn first_added_wins_priority_ties_across_shapes() {
        let mut t = FlowTable::new();
        // Same priority, different shapes, both match the view.
        t.add(
            entry(
                Match::any().with(OxmField::TcpDst(80)),
                5,
                1,
                fwd(1),
                Duration::ZERO,
                0,
            ),
            SimTime::ZERO,
        );
        t.add(
            entry(
                Match::any().with(OxmField::Ipv4Dst([203, 0, 113, 10])),
                5,
                2,
                fwd(2),
                Duration::ZERO,
                0,
            ),
            SimTime::ZERO,
        );
        let (cookie, _) = t.lookup(&view(80), 64, SimTime::ZERO).unwrap();
        assert_eq!(cookie, 1, "first-added wins the tie");
    }

    #[test]
    fn add_replaces_same_match_and_priority() {
        let mut t = FlowTable::new();
        let m = Match::service([1, 1, 1, 1], 80);
        t.add(entry(m, 10, 1, fwd(1), Duration::ZERO, 0), SimTime::ZERO);
        t.add(entry(m, 10, 2, fwd(2), Duration::ZERO, 0), SimTime::ZERO);
        assert_eq!(t.len(), 1);
        assert_eq!(t.entries().next().unwrap().cookie, 2);
    }

    #[test]
    fn counters_accumulate() {
        let mut t = FlowTable::new();
        t.add(
            entry(Match::any(), 0, 9, fwd(1), Duration::ZERO, 0),
            SimTime::ZERO,
        );
        t.lookup(&view(80), 100, SimTime::from_nanos(10)).unwrap();
        t.lookup(&view(80), 150, SimTime::from_nanos(20)).unwrap();
        let e = t.entries().next().unwrap();
        assert_eq!(e.packet_count, 2);
        assert_eq!(e.byte_count, 250);
        assert_eq!(e.last_hit, SimTime::from_nanos(20));
    }

    #[test]
    fn idle_timeout_expires_without_traffic() {
        let mut t = FlowTable::new();
        t.add(
            entry(
                Match::any(),
                0,
                1,
                fwd(1),
                Duration::from_secs(10),
                OFPFF_SEND_FLOW_REM,
            ),
            SimTime::ZERO,
        );
        assert!(expire(&mut t, SimTime::ZERO + Duration::from_secs(9)).is_empty());
        let removed = expire(&mut t, SimTime::ZERO + Duration::from_secs(10));
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].reason, RemovedReason::IdleTimeout);
        assert!(removed[0].entry.wants_removed_msg());
        assert!(t.is_empty());
    }

    #[test]
    fn traffic_refreshes_idle_timer() {
        let mut t = FlowTable::new();
        t.add(
            entry(Match::any(), 0, 1, fwd(1), Duration::from_secs(10), 0),
            SimTime::ZERO,
        );
        // Hit at t=8s: timer restarts.
        t.lookup(&view(80), 64, SimTime::ZERO + Duration::from_secs(8));
        assert!(expire(&mut t, SimTime::ZERO + Duration::from_secs(15)).is_empty());
        assert_eq!(expire(&mut t, SimTime::ZERO + Duration::from_secs(18)).len(), 1);
    }

    #[test]
    fn delete_exact_and_wildcard() {
        let mut t = FlowTable::new();
        let m1 = Match::service([1, 1, 1, 1], 80);
        let m2 = Match::service([2, 2, 2, 2], 80);
        t.add(entry(m1, 5, 1, fwd(1), Duration::ZERO, 0), SimTime::ZERO);
        t.add(entry(m2, 5, 2, fwd(2), Duration::ZERO, 0), SimTime::ZERO);
        let removed = delete(&mut t, &m1, SimTime::from_nanos(7));
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].entry.cookie, 1);
        assert_eq!(removed[0].reason, RemovedReason::Delete);
        assert_eq!(t.len(), 1);
        let removed = delete(&mut t, &Match::any(), SimTime::from_nanos(8));
        assert_eq!(removed.len(), 1);
        assert!(t.is_empty());
        assert_eq!(t.next_expiry(), None);
    }

    #[test]
    fn next_expiry_is_earliest() {
        let mut t = FlowTable::new();
        assert_eq!(t.next_expiry(), None);
        t.add(
            entry(Match::any(), 0, 1, fwd(1), Duration::from_secs(10), 0),
            SimTime::ZERO,
        );
        t.add(
            entry(Match::service([1, 1, 1, 1], 80), 5, 2, fwd(2), Duration::from_secs(3), 0),
            SimTime::ZERO,
        );
        assert_eq!(t.next_expiry(), Some(SimTime::ZERO + Duration::from_secs(3)));
    }

    #[test]
    fn peek_does_not_touch_counters() {
        let mut t = FlowTable::new();
        t.add(
            entry(Match::any(), 0, 1, fwd(1), Duration::ZERO, 0),
            SimTime::ZERO,
        );
        assert!(t.peek(&view(80)).is_some());
        assert_eq!(t.entries().next().unwrap().packet_count, 0);
    }

    fn plain(match_: Match, priority: u16, cookie: u64) -> FlowEntry {
        entry(match_, priority, cookie, fwd(1), Duration::ZERO, 0)
    }

    fn slot_of(id: FlowId) -> u64 {
        id & SLOT_MASK
    }

    /// An id kept from before its flow expired must not resolve to the flow
    /// that took over the slot.
    #[test]
    fn stale_id_does_not_resolve_to_the_slots_next_tenant() {
        let mut t = FlowTable::new();
        let idle = Duration::from_secs(1);
        t.add(entry(Match::any(), 0, 1, fwd(1), idle, 0), SimTime::ZERO);
        let old = t.classify(&view(80)).unwrap();
        assert_eq!(expire(&mut t, SimTime::from_secs(2)).len(), 1);
        t.add(plain(Match::any(), 0, 2), SimTime::from_secs(2));
        let new = t.classify(&view(80)).unwrap();
        assert_eq!(slot_of(new), slot_of(old), "the vacated slot was reused");
        assert!(new > old, "ids still grow with insertion order");
        assert!(t.flows.get(old).is_none() && t.flows.get_mut(old).is_none(), "stale id");
        assert!(t.flows.remove(old).is_none(), "a stale id evicts nobody");
        assert_eq!(t.flows[new].cookie, 2);
    }

    /// Insertion order — not slot order — breaks priority ties and orders
    /// [`FlowTable::entries`], also once an older flow sits in a higher slot
    /// than a newer one.
    #[test]
    fn slot_reuse_keeps_insertion_order() {
        let mut t = FlowTable::new();
        let by_port = Match::any().with(OxmField::TcpDst(80));
        let by_ip = Match::any().with(OxmField::Ipv4Dst([203, 0, 113, 10]));
        let filler = Match::service([9, 9, 9, 9], 9);
        t.add(plain(filler, 5, 1), SimTime::ZERO); // slot 0
        t.add(plain(by_port, 5, 2), SimTime::ZERO); // slot 1
        t.add(plain(Match::service([8, 8, 8, 8], 8), 7, 3), SimTime::ZERO); // slot 2
        assert_eq!(delete(&mut t, &filler, SimTime::ZERO).len(), 1);
        t.add(plain(by_ip, 5, 4), SimTime::ZERO); // slot 0 again
        // Both shapes match the view at one priority: the older flow wins.
        let older = t.classify(&view(80)).unwrap();
        assert_eq!(t.flows[older].cookie, 2, "first-added wins the tie");
        assert_eq!(
            t.entries().map(|e| e.cookie).collect::<Vec<_>>(),
            vec![3, 2, 4],
            "priority, then insertion order"
        );
        assert_eq!(delete(&mut t, &by_port, SimTime::ZERO).len(), 1);
        let newer = t.classify(&view(80)).unwrap();
        assert_eq!(t.flows[newer].cookie, 4);
        assert!(slot_of(older) > slot_of(newer) && older < newer);
    }

    /// Several ids under one index key — one match at three priorities —
    /// stay sorted as the head is replaced, unfiled and re-filed; a permuted
    /// spelling of the match is the same match, so its Add replaces.
    #[test]
    fn a_bucket_of_several_ids_keeps_its_best_at_the_head() {
        let mut t = FlowTable::new();
        let m = Match::service([203, 0, 113, 10], 80);
        let reordered = Match::any()
            .with(OxmField::TcpDst(80))
            .with(OxmField::Ipv4Dst([203, 0, 113, 10]))
            .with(OxmField::IpProto(6))
            .with(OxmField::EthType(0x0800));
        let winner = |t: &mut FlowTable| t.lookup(&view(80), 64, SimTime::ZERO).unwrap().0;
        t.add(plain(m, 5, 1), SimTime::ZERO);
        t.add(plain(m, 9, 2), SimTime::ZERO); // new head
        t.add(plain(m, 1, 3), SimTime::ZERO);
        assert_eq!(winner(&mut t), 2);
        t.add(plain(reordered, 9, 4), SimTime::ZERO); // replaces the head
        assert_eq!(t.len(), 3);
        assert_eq!(winner(&mut t), 4, "the permuted spelling replaced the head");
        t.add(plain(m, 5, 5), SimTime::ZERO); // replaces the middle
        assert_eq!(t.entries().map(|e| e.cookie).collect::<Vec<_>>(), vec![4, 5, 3]);
        let removed = delete(&mut t, &reordered, SimTime::ZERO);
        assert_eq!(removed.iter().map(|r| r.entry.cookie).collect::<Vec<_>>(), vec![4, 5, 3]);
        assert!(t.is_empty() && t.peek(&view(80)).is_none());
    }

    /// The index key under the deterministic hasher: 4 096 connections of
    /// one client to one service differ only in `tcp_src` — two bytes deep
    /// inside the packed key — and must still use both ends of the hash
    /// (hashbrown takes the bucket from the low bits, its control tag from
    /// the top seven).
    #[test]
    fn matches_differing_only_in_tcp_src_spread_over_buckets_and_tags() {
        use std::hash::BuildHasher;
        let hasher = desim::hash::FastBuildHasher::default();
        let (mut buckets, mut tags) = (desim::FastSet::default(), desim::FastSet::default());
        for port in 0..4096u16 {
            let m = Match::connection([192, 168, 1, 20], 40_000 + port, [203, 0, 113, 10], 80);
            let h = hasher.hash_one(m);
            buckets.insert(h & 1023);
            tags.insert(h >> 57);
        }
        // A uniform hash fills 1024·(1 − e⁻⁴) ≈ 1 005 buckets; ask for 90 %.
        assert!(buckets.len() >= 905, "{} of 1024 buckets", buckets.len());
        assert!(tags.len() > 1, "constant control tag");
    }
}
