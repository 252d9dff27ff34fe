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
//!   does not touch the heap; a sweep refiles the refreshed copies it walks
//!   past, and a delete drops its flows' copies off the top, so the next
//!   sweep is scheduled for a real expiry.
//!
//! # Storage
//!
//! Entries live in a **slab**: a `Vec` of `Flow` slots, vacated ones
//! recycled through a free list, so a flow's install or removal moves no
//! other entry and resolving a `FlowId` — `sequence << 28 | slot` — is an
//! array index. Ids grow with insertion order whichever slot an entry lands
//! in, and a slot keeps its tenant's sequence (0 once vacated), so a stale
//! id — one the timer heap still holds, say — never resolves to the slot's
//! next tenant. The index maps a match to the slot of its best entry; the
//! match's entries at other priorities (a permuted spelling of a match *is*
//! that match, so its Add replaces) chain through the slots by (priority
//! desc, id asc), so filing and unfiling a flow takes no heap call and one
//! index probe.
//!
//! Observable semantics are identical to the naive table: priority order,
//! first-added-wins among equal priorities, set equality of matches for
//! ADD/DELETE, and per-entry counters. `tests/table_diff.rs` replays
//! randomized operation sequences against both implementations to prove it.

use crate::actions::{Actions, PackedActions};
use crate::messages::{RemovedReason, OFPFF_SEND_FLOW_REM};
use crate::oxm::{Match, MatchView};
use desim::{Duration, FastMap, SimTime, TimerHeap};
use std::cmp::Reverse;
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
/// insertions. 2²⁸ − 1 resident flows and 2³⁶ − 1 insertions per table.
const SLOT_BITS: u32 = 28;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

/// The link that ends a chain: no slot has this number.
const NIL: usize = SLOT_MASK as usize;

fn slot_of(id: FlowId) -> usize {
    (id & SLOT_MASK) as usize
}

/// One slab slot: a [`FlowEntry`] as the table keeps it.
#[derive(Clone, Copy)]
struct Flow {
    /// `sequence << SLOT_BITS | next`: the tenant's insertion number (0 once
    /// vacated) and the slot of the next entry of its match, or [`NIL`].
    link: u64,
    cookie: u64,
    installed_at: SimTime,
    last_hit: SimTime,
    packet_count: u64,
    byte_count: u64,
    match_: Match,
    priority: u16,
    flags: u16,
    /// Whole seconds, 0 for none.
    idle_secs: u16,
    actions: PackedActions,
}

// A flow costs a slot and at most one index key: 128 + 40 bytes, not 160 + 72.
const _: () = assert!(std::mem::size_of::<Flow>() == 128);
const _: () = assert!(std::mem::size_of::<(Match, u32)>() == 40);

impl Flow {
    /// The slot of `e` installed at `now`: counters zeroed, in no chain.
    fn installed(e: &FlowEntry, now: SimTime) -> Flow {
        let ns = e.idle_timeout.as_nanos();
        let secs = u16::try_from(ns / 1_000_000_000).ok().filter(|_| ns.is_multiple_of(1_000_000_000));
        Flow {
            link: 0,
            cookie: e.cookie,
            installed_at: now,
            last_hit: now,
            packet_count: 0,
            byte_count: 0,
            match_: e.match_,
            priority: e.priority,
            flags: e.flags,
            idle_secs: secs.expect("an idle timeout is whole seconds up to 65 535, as in a FLOW_MOD"),
            actions: PackedActions::pack(&e.actions),
        }
    }

    /// The public view of this flow.
    fn entry(&self) -> FlowEntry {
        let idle = Duration::from_secs(u64::from(self.idle_secs));
        FlowEntry {
            installed_at: self.installed_at,
            last_hit: self.last_hit,
            packet_count: self.packet_count,
            byte_count: self.byte_count,
            ..entry(self.match_, self.priority, self.cookie, self.actions.unpack(), idle, self.flags)
        }
    }

    /// The earliest instant this flow could time out given its current
    /// timer, or `None` if it has no timeout.
    fn deadline(&self) -> Option<SimTime> {
        (self.idle_secs != 0).then(|| self.last_hit + Duration::from_secs(u64::from(self.idle_secs)))
    }
}

/// Entry storage: slots addressed by the low bits of a [`FlowId`], vacated
/// ones reused last-out-first-in.
#[derive(Default)]
struct Slab {
    slots: Vec<Flow>,
    /// Vacant slot numbers.
    free: Vec<u32>,
    /// Insertions so far: the latest one's sequence.
    inserted: u64,
}

impl Slab {
    /// Stores `flow` at the end of a chain of its own; returns its id.
    fn insert(&mut self, mut flow: Flow) -> FlowId {
        let slot = self.free.pop().map_or(self.slots.len(), |s| s as usize);
        self.inserted += 1;
        // Ids must stay unique and ordered: lookups and tie-breaks rely on it.
        assert!(slot < NIL && self.inserted < 1 << (64 - SLOT_BITS), "flow table id space exhausted");
        flow.link = self.inserted << SLOT_BITS | NIL as u64;
        match self.slots.get_mut(slot) {
            Some(vacant) => *vacant = flow,
            None => self.slots.push(flow),
        }
        self.id(slot)
    }

    /// The id of the flow in `slot`.
    fn id(&self, slot: usize) -> FlowId {
        self.slots[slot].link & !SLOT_MASK | slot as u64
    }

    /// The flow `id` names, unless it has been removed.
    fn get(&self, id: FlowId) -> Option<&Flow> {
        let flow = self.slots.get(slot_of(id))?;
        (flow.link >> SLOT_BITS == id >> SLOT_BITS).then_some(flow)
    }

    /// Empties `slot`, returning its flow.
    fn vacate(&mut self, slot: usize) -> Flow {
        let flow = self.slots[slot];
        self.slots[slot].link = NIL as u64;
        self.free.push(slot as u32);
        flow
    }

    /// The slot after `slot` in its match's chain, or [`NIL`].
    fn next(&self, slot: usize) -> usize {
        (self.slots[slot].link & SLOT_MASK) as usize
    }

    fn set_next(&mut self, slot: usize, next: usize) {
        let link = &mut self.slots[slot].link;
        *link = *link & !SLOT_MASK | next as u64;
    }

    /// The ids of every installed flow.
    fn ids(&self) -> impl Iterator<Item = FlowId> + '_ {
        (0..self.slots.len()).filter(|&s| self.slots[s].link >> SLOT_BITS != 0).map(|s| self.id(s))
    }

    /// The ids of the chain that starts at `head`, best first.
    fn chain(&self, head: usize) -> impl Iterator<Item = FlowId> + '_ {
        std::iter::successors(Some(head), |&s| Some(self.next(s)).filter(|&n| n != NIL)).map(|s| self.id(s))
    }
}

/// A single OpenFlow table, indexed for O(1) exact-match classification.
#[derive(Default)]
pub struct FlowTable {
    /// Entry storage, addressed by stable id.
    flows: Slab,
    /// Exact-match index: match → the slot at the head of its chain.
    index: FastMap<Match, u32>,
    /// Index keys per shape mask — the set of probes a lookup makes.
    shape_counts: FastMap<u16, usize>,
    /// Expiry heap, one copy per entry with a timeout, never later than its
    /// true expiry (idle refreshes are refiled lazily on sweep).
    timers: TimerHeap<FlowId>,
    /// Recycled id buffer of expiry sweeps and deletes, so neither allocates
    /// in the steady state.
    id_scratch: Vec<FlowId>,
}

impl FlowTable {
    /// Creates an empty table.
    pub fn new() -> FlowTable {
        FlowTable::default()
    }

    /// Number of installed flows.
    pub fn len(&self) -> usize {
        self.flows.slots.len() - self.flows.free.len()
    }

    /// `true` if no flows are installed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over entries in priority order (descending; first-added
    /// first among equal priorities) — diagnostics / stats.
    pub fn entries(&self) -> impl Iterator<Item = FlowEntry> + '_ {
        let mut ids: Vec<FlowId> = self.flows.ids().collect();
        self.sort_by_priority(&mut ids);
        ids.into_iter().map(|id| self.flows.slots[slot_of(id)].entry())
    }

    /// The flow in `slot`'s rank, lowest first: higher priority wins, and
    /// first-added — lower id — wins ties.
    fn rank(&self, slot: usize) -> (Reverse<u16>, FlowId) {
        (Reverse(self.flows.slots[slot].priority), self.flows.id(slot))
    }

    /// Sorts `ids` by rank. Ids are unique, so the unstable sort (no merge
    /// buffer) is exact.
    fn sort_by_priority(&self, ids: &mut [FlowId]) {
        ids.sort_unstable_by_key(|&id| self.rank(slot_of(id)));
    }

    /// Unchains and drops the flow in `slot`; disarms its timer unless a
    /// sweep claimed it.
    fn remove_entry(&mut self, slot: usize, swept: bool) -> FlowEntry {
        let (match_, next) = (self.flows.slots[slot].match_, self.flows.next(slot));
        let Entry::Occupied(mut head) = self.index.entry(match_) else {
            unreachable!("indexed entry has a chain");
        };
        if *head.get() as usize != slot {
            let mut prev = *head.get() as usize;
            while self.flows.next(prev) != slot {
                prev = self.flows.next(prev);
            }
            self.flows.set_next(prev, next);
        } else if next != NIL {
            *head.get_mut() = next as u32;
        } else {
            head.remove();
            let n = self.shape_counts.get_mut(&match_.mask()).expect("shape count");
            *n -= 1;
            if *n == 0 {
                self.shape_counts.remove(&match_.mask());
            }
        }
        let flow = self.flows.vacate(slot);
        if !swept && flow.deadline().is_some() {
            self.timers.disarm();
        }
        flow.entry()
    }

    /// Adds a flow. An existing entry with identical match and priority is
    /// replaced (OpenFlow ADD semantics), preserving nothing.
    ///
    /// # Panics
    ///
    /// When the idle timeout is not whole seconds up to 65 535.
    pub fn add(&mut self, entry: FlowEntry, now: SimTime) {
        let flow = Flow::installed(&entry, now);
        let id = self.flows.insert(flow);
        if let Some(deadline) = flow.deadline() {
            self.timers.arm(id, deadline);
        }
        let (slot, prio, flows) = (slot_of(id), entry.priority, &mut self.flows);
        let head = match self.index.entry(entry.match_) {
            Entry::Vacant(v) => {
                v.insert(slot as u32);
                *self.shape_counts.entry(entry.match_.mask()).or_insert(0) += 1;
                return;
            }
            Entry::Occupied(o) => o.into_mut(),
        };
        // The newest flow goes after every entry of its priority: in place of
        // the one ADD replaces, if there is one.
        let (mut prev, mut at) = (None, *head as usize);
        while at != NIL && flows.slots[at].priority > prio {
            (prev, at) = (Some(at), flows.next(at));
        }
        let replaced = (at != NIL && flows.slots[at].priority == prio).then_some(at);
        flows.set_next(slot, replaced.map_or(at, |old| flows.next(old)));
        match prev {
            Some(prev) => flows.set_next(prev, slot),
            None => *head = slot as u32,
        }
        if replaced.and_then(|old| self.flows.vacate(old).deadline()).is_some() {
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
            ids.extend(self.flows.ids());
            self.sort_by_priority(&mut ids);
        } else if let Some(&head) = self.index.get(match_) {
            ids.extend(self.flows.chain(head as usize));
        }
        for id in ids.drain(..) {
            let entry = self.remove_entry(slot_of(id), false);
            out.push(Removed { entry, reason: RemovedReason::Delete, at: now });
        }
        // Walk the heap's top at instant zero, when none is due: the next expiry is a real one.
        let flows = &self.flows;
        self.timers.expired_into(SimTime::ZERO, &mut ids, |&id, _| Some(flows.get(id)?.deadline()?.as_nanos()));
        debug_assert!(ids.is_empty(), "an idle timeout is at least a second");
        self.id_scratch = ids;
    }

    /// The winning entry id for `view`: one hash probe per live shape —
    /// independent of how many flows are installed.
    fn classify(&self, view: &MatchView) -> Option<FlowId> {
        let shapes = self.shape_counts.keys();
        let heads = shapes.filter_map(|&mask| self.index.get(&Match::of_view(mask, view)));
        heads.map(|&head| self.rank(head as usize)).min().map(|(_, id)| id)
    }

    /// Looks up the highest-priority matching flow, updating its counters and
    /// idle timer. Returns the matched entry's cookie and its actions.
    pub fn lookup(&mut self, view: &MatchView, frame_len: usize, now: SimTime) -> Option<(u64, Actions)> {
        let id = self.classify(view)?;
        let f = &mut self.flows.slots[slot_of(id)];
        f.packet_count += 1;
        f.byte_count += frame_len as u64;
        f.last_hit = now;
        Some((f.cookie, f.actions.unpack()))
    }

    /// Read-only lookup (no counter updates).
    pub fn peek(&self, view: &MatchView) -> Option<FlowEntry> {
        self.classify(view).map(|id| self.flows.slots[slot_of(id)].entry())
    }

    /// Removes every flow whose idle timeout has elapsed at `now`, appending
    /// removal records to `out` in priority order. Visits only entries whose
    /// heap deadline is due; one refreshed by traffic since is refiled at its
    /// deadline now, not scanned again.
    pub fn expire_into(&mut self, now: SimTime, out: &mut Vec<Removed>) {
        let mut due = std::mem::take(&mut self.id_scratch);
        due.clear();
        let flows = &self.flows;
        self.timers.expired_into(now, &mut due, |&id, _| Some(flows.get(id)?.deadline()?.as_nanos()));
        self.sort_by_priority(&mut due);
        for id in due.drain(..) {
            let entry = self.remove_entry(slot_of(id), true);
            out.push(Removed { entry, reason: RemovedReason::IdleTimeout, at: now });
        }
        self.id_scratch = due;
    }

    /// The earliest instant at which some flow could expire (for efficient
    /// timer scheduling), or `None` if no flow has a timeout. O(1): reads
    /// the timer heap's bound, never later than the true earliest expiry and
    /// equal to it after a sweep (traffic or a removal since can leave it
    /// earlier; a sweep at that instant refiles or drops what it finds).
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
    use crate::actions::Action;
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

    /// A sweep refiles a refreshed flow's copy on its way, and a delete
    /// drops the deleted flow's: either way the next expiry is a flow that
    /// can expire then, so no sweep is scheduled to find nothing due.
    #[test]
    fn the_next_expiry_is_exact_after_a_sweep_and_after_a_delete() {
        let mut t = FlowTable::new();
        let (a, b) = (Match::connection([192, 168, 1, 20], 80, [203, 0, 113, 10], 80), Match::any());
        t.add(entry(a, 1, 1, fwd(1), Duration::from_secs(5), 0), SimTime::ZERO);
        t.add(entry(b, 0, 2, fwd(1), Duration::from_secs(10), 0), SimTime::ZERO);
        // Only the any-match flow sees traffic, at 4 s: its deadline is 14 s.
        t.lookup(&view(81), 64, SimTime::from_secs(4));
        assert_eq!(t.next_expiry(), Some(SimTime::from_secs(5)));
        assert_eq!(expire(&mut t, SimTime::from_secs(5)).len(), 1);
        assert_eq!(t.next_expiry(), Some(SimTime::from_secs(14)), "refiled from 10 s by the sweep at 5 s");
        t.add(entry(a, 1, 3, fwd(1), Duration::from_secs(5), 0), SimTime::from_secs(6));
        assert_eq!(t.next_expiry(), Some(SimTime::from_secs(11)));
        assert_eq!(delete(&mut t, &a, SimTime::from_secs(7)).len(), 1);
        assert_eq!(t.next_expiry(), Some(SimTime::from_secs(14)), "the deleted flow's copy is gone");
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
        assert!(t.flows.get(old).is_none(), "stale id");
        assert_eq!(t.flows.get(new).map(|f| f.cookie), Some(2));
        // Vacated, the slot answers to no id at all.
        assert_eq!(delete(&mut t, &Match::any(), SimTime::from_secs(2)).len(), 1);
        assert!(t.flows.get(new).is_none() && t.flows.get(old).is_none());
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
        assert_eq!(t.flows.slots[slot_of(older)].cookie, 2, "first-added wins the tie");
        assert_eq!(
            t.entries().map(|e| e.cookie).collect::<Vec<_>>(),
            vec![3, 2, 4],
            "priority, then insertion order"
        );
        assert_eq!(delete(&mut t, &by_port, SimTime::ZERO).len(), 1);
        let newer = t.classify(&view(80)).unwrap();
        assert_eq!(t.flows.slots[slot_of(newer)].cookie, 4);
        assert!(slot_of(older) > slot_of(newer) && older < newer);
    }

    /// One match at priorities 9, 5 and 1, added out of order: the chain
    /// behind its index key.
    fn three_priorities(t: &mut FlowTable, idle: Duration) -> Match {
        let m = Match::service([203, 0, 113, 10], 80);
        for (prio, cookie) in [(5, 1), (9, 2), (1, 3)] {
            t.add(entry(m, prio, cookie, fwd(1), idle, 0), SimTime::ZERO);
        }
        m
    }

    fn cookies(t: &FlowTable) -> Vec<u64> {
        t.entries().map(|e| e.cookie).collect()
    }

    #[test]
    fn a_lookup_takes_the_highest_of_three_priorities() {
        let mut t = FlowTable::new();
        three_priorities(&mut t, Duration::ZERO);
        assert_eq!(t.lookup(&view(80), 64, SimTime::ZERO).unwrap().0, 2);
        assert_eq!(t.peek(&view(80)).unwrap().priority, 9);
        assert_eq!(cookies(&t), vec![2, 1, 3]);
    }

    /// An Add at a priority the match already has replaces that flow only —
    /// head, middle or tail of the chain — and disarms its timer; a permuted
    /// spelling of the match is the same match.
    #[test]
    fn an_add_at_an_existing_priority_replaces_only_that_flow() {
        let mut t = FlowTable::new();
        let m = three_priorities(&mut t, Duration::from_secs(10));
        let reordered = Match::any()
            .with(OxmField::TcpDst(80))
            .with(OxmField::Ipv4Dst([203, 0, 113, 10]))
            .with(OxmField::IpProto(6))
            .with(OxmField::EthType(0x0800));
        t.add(plain(reordered, 9, 4), SimTime::ZERO); // the head
        t.add(plain(m, 5, 5), SimTime::ZERO); // the middle
        t.add(plain(m, 1, 6), SimTime::ZERO); // the tail
        assert_eq!(t.len(), 3);
        assert_eq!(cookies(&t), vec![4, 5, 6]);
        assert_eq!(t.lookup(&view(80), 64, SimTime::ZERO).unwrap().0, 4);
        assert_eq!(t.next_expiry(), None, "the three replaced timers are disarmed");
        assert!(expire(&mut t, SimTime::from_secs(10)).is_empty(), "and never fire");
    }

    #[test]
    fn a_delete_by_match_returns_all_three_in_priority_order() {
        let mut t = FlowTable::new();
        let m = three_priorities(&mut t, Duration::ZERO);
        t.add(plain(Match::service([203, 0, 113, 11], 80), 5, 4), SimTime::ZERO);
        let removed = delete(&mut t, &m, SimTime::ZERO);
        assert_eq!(removed.iter().map(|r| r.entry.cookie).collect::<Vec<_>>(), vec![2, 1, 3]);
        assert_eq!(cookies(&t), vec![4], "another match's flow stays");
        assert!(t.peek(&view(80)).is_none() && !t.index.contains_key(&m));
    }

    /// The head times out first; the next entry of the chain takes its
    /// place in the index, and a lookup finds it.
    #[test]
    fn expiring_the_head_promotes_the_next_entry() {
        let mut t = FlowTable::new();
        let m = Match::service([203, 0, 113, 10], 80);
        t.add(entry(m, 5, 1, fwd(1), Duration::from_secs(20), 0), SimTime::ZERO);
        t.add(entry(m, 9, 2, fwd(2), Duration::from_secs(10), 0), SimTime::ZERO);
        t.add(entry(m, 1, 3, fwd(3), Duration::ZERO, 0), SimTime::ZERO);
        let removed = expire(&mut t, SimTime::from_secs(10));
        assert_eq!(removed.iter().map(|r| r.entry.cookie).collect::<Vec<_>>(), vec![2]);
        assert_eq!(t.lookup(&view(80), 64, SimTime::from_secs(10)).unwrap().0, 1);
        assert_eq!(expire(&mut t, SimTime::from_secs(30)).len(), 1);
        assert_eq!(t.lookup(&view(80), 64, SimTime::from_secs(30)).unwrap().0, 3);
    }

    /// The slot holds the `FLOW_MOD`'s view of the flow: whole seconds of
    /// idle timeout and the packed actions come back as they went in.
    #[test]
    fn an_entry_comes_back_as_it_was_added() {
        let mut t = FlowTable::new();
        let actions = Actions::from([
            Action::SetField(OxmField::EthDst([2, 0, 0, 0, 0, 7])),
            Action::SetField(OxmField::Ipv4Dst([10, 0, 0, 5])),
            Action::SetField(OxmField::TcpDst(31080)),
            Action::output(4),
        ]);
        let idle = Duration::from_secs(u64::from(u16::MAX));
        let added = entry(Match::service([203, 0, 113, 10], 80), 7, 42, actions, idle, OFPFF_SEND_FLOW_REM);
        t.add(added, SimTime::from_secs(3));
        let back = t.peek(&view(80)).unwrap();
        assert_eq!(
            (back.match_, back.priority, back.cookie, back.actions, back.idle_timeout, back.flags),
            (added.match_, 7, 42, actions, idle, OFPFF_SEND_FLOW_REM)
        );
        assert_eq!((back.installed_at, back.last_hit), (SimTime::from_secs(3), SimTime::from_secs(3)));
        assert_eq!(t.lookup(&view(80), 64, SimTime::from_secs(4)).unwrap().1, actions);
    }

    #[test]
    #[should_panic(expected = "whole seconds")]
    fn a_sub_second_idle_timeout_is_refused() {
        FlowTable::new().add(entry(Match::any(), 0, 1, fwd(1), Duration::from_millis(1500), 0), SimTime::ZERO);
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

    /// Lookup cost does not grow with the table: `classify` makes one index
    /// probe per live match shape, and however many per-connection flows the
    /// controller installs, they share one shape. The service flow's shape
    /// adds exactly one probe, and every sampled connection still finds its
    /// own flow over it.
    #[test]
    fn a_lookup_probes_as_many_shapes_at_100_000_connections_as_at_10() {
        let src = |i: u32| [10, (i >> 16) as u8, (i >> 8) as u8, i as u8];
        let mut shapes = Vec::new();
        for size in [10, 1_000, 100_000] {
            let mut t = FlowTable::new();
            for i in 0..size {
                let m = Match::connection(src(i), 50_000, [203, 0, 113, 10], 80);
                t.add(entry(m, 100, u64::from(i), fwd(2), Duration::ZERO, 0), SimTime::ZERO);
            }
            let connections = t.shape_counts.len();
            let service = Match::service([203, 0, 113, 10], 80);
            t.add(entry(service, 10, u64::MAX, fwd(3), Duration::ZERO, 0), SimTime::ZERO);
            assert_eq!(t.shape_counts.len(), connections + 1, "{size} flows: the service shape");
            for i in (0..size).step_by(size as usize / 10) {
                let v = MatchView { ipv4_src: src(i), ..view(80) };
                assert_eq!(t.lookup(&v, 64, SimTime::ZERO).map(|(c, _)| c), Some(u64::from(i)), "{size} flows");
            }
            shapes.push(connections);
        }
        assert_eq!(shapes, [1, 1, 1], "shapes probed at 10, 1 000 and 100 000 connection flows");
    }
}
