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
//! seed's linear scan (kept as [`crate::naive::NaiveFlowTable`] for
//! differential testing):
//!
//! * Every [`Match`] in this protocol subset is a conjunction of *exact*
//!   fields, so entries are grouped by **shape** — the set of field kinds
//!   they constrain — and hashed on the packed field values ([`ShapeKey`]).
//!   A lookup probes one hash bucket per distinct shape in the table
//!   (typically two: the per-connection redirect shape and the service
//!   shape, plus the table-miss wildcard), not one comparison per entry.
//! * Matches that a key cannot represent faithfully (duplicate field kinds,
//!   only constructible by decoding hand-crafted wire bytes) fall back to a
//!   linear `residual` list, preserving exact semantics.
//! * A [`TimerWheel`] tracks a deadline per entry that is never later than
//!   its true idle/hard expiry, so [`FlowTable::expire`] visits only entries
//!   actually due and [`FlowTable::next_expiry`] is O(1). Idle-timer
//!   refreshes are lazy: a packet hit does not touch the wheel; a sweep that
//!   reaches a refreshed entry simply reschedules it.
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
//! timer wheel still holds, say) never resolves to the flow that took its
//! slot.
//!
//! An index bucket holds its best candidate **inline** (`head`) and any
//! others in a `Vec` that stays unallocated until it is needed. A bucket has
//! more than one id only while flows with the same field values coexist — one
//! match at several priorities, or a reordered spelling of it — so the usual
//! flow costs no heap call to file, and [`FlowTable::add`] and removal probe
//! the index once each, through the map's entry API.
//!
//! Observable semantics are identical to the naive table: priority order,
//! first-added-wins among equal priorities, hard-over-idle timeout
//! precedence, order-sensitive match equality for ADD/MODIFY/DELETE, and
//! per-entry counters. `crate::diff` replays randomized operation sequences
//! against both implementations to prove it.

use crate::actions::Instruction;
use crate::messages::{RemovedReason, OFPFF_SEND_FLOW_REM};
use crate::oxm::{Match, MatchView, OxmField};
use desim::{Duration, FastMap, SimTime, TimerWheel};
use std::collections::hash_map::Entry;

/// One installed flow.
#[derive(Clone, Debug)]
pub struct FlowEntry {
    /// Match condition.
    pub match_: Match,
    /// Priority; higher wins.
    pub priority: u16,
    /// Controller cookie.
    pub cookie: u64,
    /// Instructions to run on match.
    pub instructions: Vec<Instruction>,
    /// Idle timeout ([`Duration::ZERO`] = none).
    pub idle_timeout: Duration,
    /// Hard timeout ([`Duration::ZERO`] = none).
    pub hard_timeout: Duration,
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

    /// Why this entry is timed out at `now`, if it is; hard before idle.
    fn expiry_reason(&self, now: SimTime) -> Option<RemovedReason> {
        let due = |timeout, since| timeout != Duration::ZERO && now - since >= timeout;
        let idle = due(self.idle_timeout, self.last_hit).then_some(RemovedReason::IdleTimeout);
        due(self.hard_timeout, self.installed_at).then_some(RemovedReason::HardTimeout).or(idle)
    }

    /// The earliest instant this entry could time out given its current
    /// timers, or `None` if it has no timeout.
    fn next_deadline(&self) -> Option<SimTime> {
        let idle =
            (self.idle_timeout != Duration::ZERO).then(|| self.last_hit + self.idle_timeout);
        let hard =
            (self.hard_timeout != Duration::ZERO).then(|| self.installed_at + self.hard_timeout);
        match (idle, hard) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// A removal record produced by expiry or deletion.
#[derive(Clone, Debug)]
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
        let cell = SlabSlot {
            id,
            entry: Some(entry),
        };
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

/// The ids filed under one [`ShapeKey`], sorted by (priority desc, id asc):
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
            file(flows, &mut self.rest, id);
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

/// Inserts `id` into `ids` keeping (priority desc, id asc) order. `id` is
/// always the newest, so it goes after every equal priority.
fn file(flows: &Slab, ids: &mut Vec<FlowId>, id: FlowId) {
    let prio = flows[id].priority;
    let pos = ids
        .iter()
        .position(|&other| flows[other].priority < prio)
        .unwrap_or(ids.len());
    ids.insert(pos, id);
}

// Shape-mask bits, one per OXM field kind.
const B_IN_PORT: u16 = 1 << 0;
const B_ETH_DST: u16 = 1 << 1;
const B_ETH_SRC: u16 = 1 << 2;
const B_ETH_TYPE: u16 = 1 << 3;
const B_IP_PROTO: u16 = 1 << 4;
const B_IPV4_SRC: u16 = 1 << 5;
const B_IPV4_DST: u16 = 1 << 6;
const B_TCP_SRC: u16 = 1 << 7;
const B_TCP_DST: u16 = 1 << 8;

// Fixed byte offsets of each field in the packed key.
const O_IN_PORT: usize = 0; // 4 bytes
const O_ETH_DST: usize = 4; // 6
const O_ETH_SRC: usize = 10; // 6
const O_ETH_TYPE: usize = 16; // 2
const O_IP_PROTO: usize = 18; // 1
const O_IPV4_SRC: usize = 19; // 4
const O_IPV4_DST: usize = 23; // 4
const O_TCP_SRC: usize = 27; // 2
const O_TCP_DST: usize = 29; // 2
const KEY_BYTES: usize = 31;

/// Hash key of the exact-match index: which field kinds a match constrains
/// (`mask`) and their packed values (absent fields zeroed).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct ShapeKey {
    mask: u16,
    bytes: [u8; KEY_BYTES],
}

impl ShapeKey {
    fn set(&mut self, field: &OxmField) {
        match field {
            OxmField::InPort(p) => {
                self.mask |= B_IN_PORT;
                self.bytes[O_IN_PORT..O_IN_PORT + 4].copy_from_slice(&p.to_be_bytes());
            }
            OxmField::EthDst(m) => {
                self.mask |= B_ETH_DST;
                self.bytes[O_ETH_DST..O_ETH_DST + 6].copy_from_slice(m);
            }
            OxmField::EthSrc(m) => {
                self.mask |= B_ETH_SRC;
                self.bytes[O_ETH_SRC..O_ETH_SRC + 6].copy_from_slice(m);
            }
            OxmField::EthType(v) => {
                self.mask |= B_ETH_TYPE;
                self.bytes[O_ETH_TYPE..O_ETH_TYPE + 2].copy_from_slice(&v.to_be_bytes());
            }
            OxmField::IpProto(v) => {
                self.mask |= B_IP_PROTO;
                self.bytes[O_IP_PROTO] = *v;
            }
            OxmField::Ipv4Src(a) => {
                self.mask |= B_IPV4_SRC;
                self.bytes[O_IPV4_SRC..O_IPV4_SRC + 4].copy_from_slice(a);
            }
            OxmField::Ipv4Dst(a) => {
                self.mask |= B_IPV4_DST;
                self.bytes[O_IPV4_DST..O_IPV4_DST + 4].copy_from_slice(a);
            }
            OxmField::TcpSrc(p) => {
                self.mask |= B_TCP_SRC;
                self.bytes[O_TCP_SRC..O_TCP_SRC + 2].copy_from_slice(&p.to_be_bytes());
            }
            OxmField::TcpDst(p) => {
                self.mask |= B_TCP_DST;
                self.bytes[O_TCP_DST..O_TCP_DST + 2].copy_from_slice(&p.to_be_bytes());
            }
        }
    }

    /// Packs the fields of `m`, or `None` if the match repeats a field kind
    /// (possible only via decoded wire bytes) and must take the residual
    /// slow path.
    fn of_match(m: &Match) -> Option<ShapeKey> {
        let mut key = ShapeKey {
            mask: 0,
            bytes: [0; KEY_BYTES],
        };
        for f in m.fields() {
            let before = key.mask;
            key.set(f);
            if key.mask == before {
                return None; // duplicate field kind: not representable
            }
        }
        Some(key)
    }

    /// Packs the subset of `view`'s fields selected by `mask`.
    fn of_view(mask: u16, view: &MatchView) -> ShapeKey {
        let mut key = ShapeKey {
            mask,
            bytes: [0; KEY_BYTES],
        };
        if mask & B_IN_PORT != 0 {
            key.bytes[O_IN_PORT..O_IN_PORT + 4].copy_from_slice(&view.in_port.to_be_bytes());
        }
        if mask & B_ETH_DST != 0 {
            key.bytes[O_ETH_DST..O_ETH_DST + 6].copy_from_slice(&view.eth_dst);
        }
        if mask & B_ETH_SRC != 0 {
            key.bytes[O_ETH_SRC..O_ETH_SRC + 6].copy_from_slice(&view.eth_src);
        }
        if mask & B_ETH_TYPE != 0 {
            key.bytes[O_ETH_TYPE..O_ETH_TYPE + 2].copy_from_slice(&view.eth_type.to_be_bytes());
        }
        if mask & B_IP_PROTO != 0 {
            key.bytes[O_IP_PROTO] = view.ip_proto;
        }
        if mask & B_IPV4_SRC != 0 {
            key.bytes[O_IPV4_SRC..O_IPV4_SRC + 4].copy_from_slice(&view.ipv4_src);
        }
        if mask & B_IPV4_DST != 0 {
            key.bytes[O_IPV4_DST..O_IPV4_DST + 4].copy_from_slice(&view.ipv4_dst);
        }
        if mask & B_TCP_SRC != 0 {
            key.bytes[O_TCP_SRC..O_TCP_SRC + 2].copy_from_slice(&view.tcp_src.to_be_bytes());
        }
        if mask & B_TCP_DST != 0 {
            key.bytes[O_TCP_DST..O_TCP_DST + 2].copy_from_slice(&view.tcp_dst.to_be_bytes());
        }
        key
    }
}

/// Where an entry's id is filed.
enum Filing {
    Keyed(ShapeKey),
    Residual,
}

fn filing_of(m: &Match) -> Filing {
    match ShapeKey::of_match(m) {
        Some(k) => Filing::Keyed(k),
        None => Filing::Residual,
    }
}

/// A single OpenFlow table, indexed for O(1) exact-match classification.
#[derive(Default)]
pub struct FlowTable {
    /// Entry storage, addressed by stable id.
    flows: Slab,
    /// Exact-match index: shape+values → the ids carrying them.
    index: FastMap<ShapeKey, Bucket>,
    /// Live entry count per shape mask — the set of probes a lookup makes.
    shape_counts: FastMap<u16, usize>,
    /// Entries whose match cannot be keyed (duplicate field kinds); scanned
    /// linearly. Sorted by (priority desc, id asc).
    residual: Vec<FlowId>,
    /// Expiry wheel; per-entry deadlines are never later than the true
    /// expiry instant (idle refreshes are applied lazily on sweep).
    wheel: TimerWheel<FlowId>,
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

    /// The ids filed where a flow matching exactly `filing`'s match would be.
    fn filed_at(&self, filing: &Filing) -> impl Iterator<Item = FlowId> + '_ {
        let (head, rest): (Option<FlowId>, &[FlowId]) = match filing {
            Filing::Keyed(key) => match self.index.get(key) {
                Some(b) => (Some(b.head), &b.rest),
                None => (None, &[]),
            },
            Filing::Residual => (None, &self.residual),
        };
        head.into_iter().chain(rest.iter().copied())
    }

    /// Unfiles and drops entry `id`, returning it.
    fn remove_entry(&mut self, id: FlowId) -> FlowEntry {
        let entry = self.flows.remove(id).expect("live flow id");
        match filing_of(&entry.match_) {
            Filing::Keyed(key) => {
                let Entry::Occupied(mut bucket) = self.index.entry(key) else {
                    unreachable!("indexed entry has bucket");
                };
                if bucket.get().rest.is_empty() {
                    debug_assert_eq!(bucket.get().head, id);
                    bucket.remove();
                } else {
                    bucket.get_mut().unfile(id);
                }
                let n = self.shape_counts.get_mut(&key.mask).expect("shape count");
                *n -= 1;
                if *n == 0 {
                    self.shape_counts.remove(&key.mask);
                }
            }
            Filing::Residual => self.residual.retain(|&x| x != id),
        }
        self.wheel.cancel(&id);
        entry
    }

    /// Adds a flow. An existing entry with identical match and priority is
    /// replaced (OpenFlow ADD semantics), preserving nothing.
    pub fn add(&mut self, mut entry: FlowEntry, now: SimTime) {
        entry.installed_at = now;
        entry.last_hit = now;
        entry.packet_count = 0;
        entry.byte_count = 0;
        let filing = filing_of(&entry.match_);
        let deadline = entry.next_deadline();
        let id = self.flows.insert(entry);
        if let Some(deadline) = deadline {
            self.wheel.schedule(id, deadline);
        }
        // ADD keeps `(priority, match)` unique, so it replaces at most one
        // flow — found among the ids the new one is filed with.
        let flows = &self.flows;
        let replaces = |&old: &FlowId| {
            let (old, new) = (&flows[old], &flows[id]);
            old.priority == new.priority && old.match_ == new.match_
        };
        let replaced = match filing {
            Filing::Keyed(key) => match self.index.entry(key) {
                Entry::Vacant(v) => {
                    v.insert(Bucket {
                        head: id,
                        rest: Vec::new(),
                    });
                    *self.shape_counts.entry(key.mask).or_insert(0) += 1;
                    None
                }
                Entry::Occupied(o) => {
                    let bucket = o.into_mut();
                    let replaced = bucket.iter().find(replaces);
                    bucket.file(flows, id);
                    match replaced {
                        Some(old) => bucket.unfile(old),
                        None => *self.shape_counts.get_mut(&key.mask).expect("shape count") += 1,
                    }
                    replaced
                }
            },
            Filing::Residual => {
                let replaced = self.residual.iter().copied().find(replaces);
                file(flows, &mut self.residual, id);
                self.residual.retain(|&x| Some(x) != replaced);
                replaced
            }
        };
        if let Some(old) = replaced {
            self.flows.remove(old);
            self.wheel.cancel(&old);
        }
    }

    /// The ids whose match equals `match_` (order-sensitive equality, like
    /// the wire protocol), optionally restricted to one priority.
    fn ids_matching(&self, match_: &Match, priority: Option<u16>) -> Vec<FlowId> {
        self.filed_at(&filing_of(match_))
            .filter(|&id| {
                let e = &self.flows[id];
                e.match_ == *match_ && priority.is_none_or(|p| e.priority == p)
            })
            .collect()
    }

    /// OpenFlow MODIFY: swaps instructions of all flows whose match equals
    /// `match_`, at **every** priority (counters and timers preserved).
    /// Returns how many changed. This cross-priority behavior is the
    /// non-strict MODIFY of the OpenFlow spec — deliberate, and pinned by
    /// tests; use [`FlowTable::modify_strict`] to target one priority.
    pub fn modify(&mut self, match_: &Match, instructions: &[Instruction]) -> usize {
        let ids = self.ids_matching(match_, None);
        for &id in &ids {
            self.flows.get_mut(id).expect("live flow id").instructions =
                instructions.to_vec();
        }
        ids.len()
    }

    /// OpenFlow MODIFY_STRICT: like [`FlowTable::modify`] but only flows at
    /// exactly `priority` — the unambiguous `(priority, match)` keying that
    /// ADD and the index use. Returns how many changed (0 or 1, since ADD
    /// keeps `(priority, match)` unique).
    pub fn modify_strict(
        &mut self,
        match_: &Match,
        priority: u16,
        instructions: &[Instruction],
    ) -> usize {
        let ids = self.ids_matching(match_, Some(priority));
        for &id in &ids {
            self.flows.get_mut(id).expect("live flow id").instructions =
                instructions.to_vec();
        }
        ids.len()
    }

    /// [`FlowTable::delete_into`] with a fresh buffer.
    pub fn delete(&mut self, match_: &Match, now: SimTime) -> Vec<Removed> {
        let mut removed = Vec::new();
        self.delete_into(match_, now, &mut removed);
        removed
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
        } else {
            let filed = self.filed_at(&filing_of(match_));
            ids.extend(filed.filter(|&id| self.flows[id].match_ == *match_));
        }
        // Ids are unique, so the unstable sort (no merge buffer) is exact.
        ids.sort_unstable_by_key(|&id| (std::cmp::Reverse(self.flows[id].priority), id));
        for id in ids.drain(..) {
            let entry = self.remove_entry(id);
            out.push(Removed { entry, reason: RemovedReason::Delete, at: now });
        }
        self.id_scratch = ids;
    }

    /// The winning entry id for `view`: one hash probe per live shape plus a
    /// scan of the (normally empty) residual list — independent of how many
    /// flows are installed.
    fn classify(&self, view: &MatchView) -> Option<FlowId> {
        let mut best: Option<(u16, FlowId)> = None;
        for &mask in self.shape_counts.keys() {
            let key = ShapeKey::of_view(mask, view);
            if let Some(id) = self.index.get(&key).map(|b| b.head) {
                let cand = (self.flows[id].priority, id);
                if best.is_none_or(|b| beats(cand, b)) {
                    best = Some(cand);
                }
            }
        }
        for &id in &self.residual {
            let e = &self.flows[id];
            if e.match_.matches(view) {
                let cand = (e.priority, id);
                if best.is_none_or(|b| beats(cand, b)) {
                    best = Some(cand);
                }
                break; // residual is priority-sorted: first hit is its best
            }
        }
        best.map(|(_, id)| id)
    }

    /// Looks up the highest-priority matching flow, updating its counters and
    /// idle timer. Returns the matched entry's cookie and a borrow of its
    /// instructions — the per-packet path never clones them.
    pub fn lookup(
        &mut self,
        view: &MatchView,
        frame_len: usize,
        now: SimTime,
    ) -> Option<(u64, &[Instruction])> {
        let id = self.classify(view)?;
        let e = self.flows.get_mut(id)?;
        e.packet_count += 1;
        e.byte_count += frame_len as u64;
        e.last_hit = now;
        Some((e.cookie, &e.instructions))
    }

    /// Read-only lookup (no counter updates).
    pub fn peek(&self, view: &MatchView) -> Option<&FlowEntry> {
        self.classify(view).map(|id| &self.flows[id])
    }

    /// [`FlowTable::expire_into`] with a fresh buffer.
    pub fn expire(&mut self, now: SimTime) -> Vec<Removed> {
        let mut removed = Vec::new();
        self.expire_into(now, &mut removed);
        removed
    }

    /// Removes every flow whose idle or hard timeout has elapsed at `now`,
    /// appending removal records to `out` in priority order (hard timeout
    /// takes precedence when both expired). Visits only entries whose wheel
    /// deadline is due — entries whose idle timer was refreshed by traffic
    /// since their deadline was set are rescheduled, not scanned again.
    pub fn expire_into(&mut self, now: SimTime, out: &mut Vec<Removed>) {
        let mut due = std::mem::take(&mut self.id_scratch);
        due.clear();
        self.wheel.expired_into(now, &mut due);
        due.retain(|&id| {
            let e = &self.flows[id];
            let expired = e.expiry_reason(now).is_some();
            if !expired {
                // Idle timer was refreshed since this deadline was set.
                let deadline = e.next_deadline().expect("scheduled entry has a timeout");
                self.wheel.schedule(id, deadline);
            }
            expired
        });
        // Ids are unique, so the unstable sort (no merge buffer) is exact.
        due.sort_unstable_by_key(|&id| (std::cmp::Reverse(self.flows[id].priority), id));
        for id in due.drain(..) {
            let reason = self.flows[id].expiry_reason(now).expect("kept because expired");
            let entry = self.remove_entry(id);
            out.push(Removed { entry, reason, at: now });
        }
        self.id_scratch = due;
    }

    /// The earliest instant at which some flow could expire (for efficient
    /// timer scheduling), or `None` if no flow has a timeout. O(1): reads
    /// the timer wheel's bound, which is never later than the true earliest
    /// expiry (it can be earlier after idle refreshes; a sweep at that
    /// instant is simply empty and re-tightens the bound).
    pub fn next_expiry(&self) -> Option<SimTime> {
        self.wheel.next_deadline()
    }
}

/// Builds a [`FlowEntry`] with zeroed counters/timers (filled in by
/// [`FlowTable::add`]).
pub fn entry(
    match_: Match,
    priority: u16,
    cookie: u64,
    instructions: Vec<Instruction>,
    idle_timeout: Duration,
    hard_timeout: Duration,
    flags: u16,
) -> FlowEntry {
    FlowEntry {
        match_,
        priority,
        cookie,
        instructions,
        idle_timeout,
        hard_timeout,
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

    fn fwd(port: u32) -> Vec<Instruction> {
        vec![Instruction::ApplyActions(vec![Action::output(port)])]
    }

    #[test]
    fn priority_order_wins() {
        let mut t = FlowTable::new();
        t.add(
            entry(Match::any(), 0, 1, fwd(1), Duration::ZERO, Duration::ZERO, 0),
            SimTime::ZERO,
        );
        t.add(
            entry(
                Match::service([203, 0, 113, 10], 80),
                100,
                2,
                fwd(2),
                Duration::ZERO,
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
        t.add(entry(m.clone(), 10, 1, fwd(1), Duration::ZERO, Duration::ZERO, 0), SimTime::ZERO);
        t.add(entry(m, 10, 2, fwd(2), Duration::ZERO, Duration::ZERO, 0), SimTime::ZERO);
        assert_eq!(t.len(), 1);
        assert_eq!(t.entries().next().unwrap().cookie, 2);
    }

    #[test]
    fn counters_accumulate() {
        let mut t = FlowTable::new();
        t.add(
            entry(Match::any(), 0, 9, fwd(1), Duration::ZERO, Duration::ZERO, 0),
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
                Duration::ZERO,
                OFPFF_SEND_FLOW_REM,
            ),
            SimTime::ZERO,
        );
        assert!(t.expire(SimTime::ZERO + Duration::from_secs(9)).is_empty());
        let removed = t.expire(SimTime::ZERO + Duration::from_secs(10));
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].reason, RemovedReason::IdleTimeout);
        assert!(removed[0].entry.wants_removed_msg());
        assert!(t.is_empty());
    }

    #[test]
    fn traffic_refreshes_idle_timer() {
        let mut t = FlowTable::new();
        t.add(
            entry(Match::any(), 0, 1, fwd(1), Duration::from_secs(10), Duration::ZERO, 0),
            SimTime::ZERO,
        );
        // Hit at t=8s: timer restarts.
        t.lookup(&view(80), 64, SimTime::ZERO + Duration::from_secs(8));
        assert!(t.expire(SimTime::ZERO + Duration::from_secs(15)).is_empty());
        assert_eq!(t.expire(SimTime::ZERO + Duration::from_secs(18)).len(), 1);
    }

    #[test]
    fn hard_timeout_ignores_traffic() {
        let mut t = FlowTable::new();
        t.add(
            entry(Match::any(), 0, 1, fwd(1), Duration::ZERO, Duration::from_secs(5), 0),
            SimTime::ZERO,
        );
        t.lookup(&view(80), 64, SimTime::ZERO + Duration::from_secs(4));
        let removed = t.expire(SimTime::ZERO + Duration::from_secs(5));
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].reason, RemovedReason::HardTimeout);
        assert_eq!(removed[0].duration(), Duration::from_secs(5));
    }

    #[test]
    fn delete_exact_and_wildcard() {
        let mut t = FlowTable::new();
        let m1 = Match::service([1, 1, 1, 1], 80);
        let m2 = Match::service([2, 2, 2, 2], 80);
        t.add(entry(m1.clone(), 5, 1, fwd(1), Duration::ZERO, Duration::ZERO, 0), SimTime::ZERO);
        t.add(entry(m2, 5, 2, fwd(2), Duration::ZERO, Duration::ZERO, 0), SimTime::ZERO);
        let removed = t.delete(&m1, SimTime::from_nanos(7));
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].entry.cookie, 1);
        assert_eq!(removed[0].reason, RemovedReason::Delete);
        assert_eq!(t.len(), 1);
        let removed = t.delete(&Match::any(), SimTime::from_nanos(8));
        assert_eq!(removed.len(), 1);
        assert!(t.is_empty());
        assert_eq!(t.next_expiry(), None);
    }

    #[test]
    fn modify_swaps_instructions_keeps_counters() {
        let mut t = FlowTable::new();
        let m = Match::service([1, 1, 1, 1], 80);
        t.add(entry(m.clone(), 5, 1, fwd(1), Duration::ZERO, Duration::ZERO, 0), SimTime::ZERO);
        let mut v = view(80);
        v.ipv4_dst = [1, 1, 1, 1];
        t.lookup(&v, 64, SimTime::from_nanos(1)).unwrap();
        assert_eq!(t.modify(&m, &fwd(9)), 1);
        let e = t.entries().next().unwrap();
        assert_eq!(e.packet_count, 1, "counters preserved");
        assert_eq!(e.instructions, fwd(9));
        assert_eq!(t.modify(&Match::service([9, 9, 9, 9], 80), &fwd(1)), 0);
    }

    /// MODIFY is deliberately non-strict: it rewrites the match at *every*
    /// priority (OpenFlow's OFPFC_MODIFY). MODIFY_STRICT keys on
    /// `(priority, match)` like ADD does.
    #[test]
    fn modify_is_cross_priority_and_strict_is_not() {
        let mut t = FlowTable::new();
        let m = Match::service([1, 1, 1, 1], 80);
        t.add(entry(m.clone(), 5, 1, fwd(1), Duration::ZERO, Duration::ZERO, 0), SimTime::ZERO);
        t.add(entry(m.clone(), 9, 2, fwd(2), Duration::ZERO, Duration::ZERO, 0), SimTime::ZERO);
        assert_eq!(t.modify(&m, &fwd(7)), 2, "non-strict hits both priorities");
        assert!(t.entries().all(|e| e.instructions == fwd(7)));
        assert_eq!(t.modify_strict(&m, 9, &fwd(3)), 1, "strict hits exactly one");
        assert_eq!(
            t.entries().map(|e| (e.priority, e.instructions.clone())).collect::<Vec<_>>(),
            vec![(9, fwd(3)), (5, fwd(7))]
        );
        assert_eq!(t.modify_strict(&m, 6, &fwd(4)), 0, "no flow at that priority");
    }

    #[test]
    fn next_expiry_is_earliest() {
        let mut t = FlowTable::new();
        assert_eq!(t.next_expiry(), None);
        t.add(
            entry(Match::any(), 0, 1, fwd(1), Duration::from_secs(10), Duration::ZERO, 0),
            SimTime::ZERO,
        );
        t.add(
            entry(
                Match::service([1, 1, 1, 1], 80),
                5,
                2,
                fwd(2),
                Duration::ZERO,
                Duration::from_secs(3),
                0,
            ),
            SimTime::ZERO,
        );
        assert_eq!(t.next_expiry(), Some(SimTime::ZERO + Duration::from_secs(3)));
    }

    #[test]
    fn peek_does_not_touch_counters() {
        let mut t = FlowTable::new();
        t.add(
            entry(Match::any(), 0, 1, fwd(1), Duration::ZERO, Duration::ZERO, 0),
            SimTime::ZERO,
        );
        assert!(t.peek(&view(80)).is_some());
        assert_eq!(t.entries().next().unwrap().packet_count, 0);
    }

    fn plain(match_: Match, priority: u16, cookie: u64) -> FlowEntry {
        entry(match_, priority, cookie, fwd(1), Duration::ZERO, Duration::ZERO, 0)
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
        t.add(entry(Match::any(), 0, 1, fwd(1), idle, Duration::ZERO, 0), SimTime::ZERO);
        let old = t.classify(&view(80)).unwrap();
        assert_eq!(t.expire(SimTime::from_secs(2)).len(), 1);
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
        t.add(plain(filler.clone(), 5, 1), SimTime::ZERO); // slot 0
        t.add(plain(by_port.clone(), 5, 2), SimTime::ZERO); // slot 1
        t.add(plain(Match::service([8, 8, 8, 8], 8), 7, 3), SimTime::ZERO); // slot 2
        assert_eq!(t.delete(&filler, SimTime::ZERO).len(), 1);
        t.add(plain(by_ip, 5, 4), SimTime::ZERO); // slot 0 again
        // Both shapes match the view at one priority: the older flow wins.
        let older = t.classify(&view(80)).unwrap();
        assert_eq!(t.flows[older].cookie, 2, "first-added wins the tie");
        assert_eq!(
            t.entries().map(|e| e.cookie).collect::<Vec<_>>(),
            vec![3, 2, 4],
            "priority, then insertion order"
        );
        assert_eq!(t.delete(&by_port, SimTime::ZERO).len(), 1);
        let newer = t.classify(&view(80)).unwrap();
        assert_eq!(t.flows[newer].cookie, 4);
        assert!(slot_of(older) > slot_of(newer) && older < newer);
    }

    /// Several ids under one index key — one match at three priorities and a
    /// reordered spelling of it — stay sorted as the head is replaced,
    /// unfiled and re-filed.
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
        t.add(plain(m.clone(), 5, 1), SimTime::ZERO);
        t.add(plain(m.clone(), 9, 2), SimTime::ZERO); // new head
        t.add(plain(reordered.clone(), 9, 3), SimTime::ZERO); // ties with the head, newer
        t.add(plain(m.clone(), 1, 4), SimTime::ZERO);
        assert_eq!(winner(&mut t), 2);
        t.add(plain(m.clone(), 9, 5), SimTime::ZERO); // replaces the head; now newest at 9
        assert_eq!(t.len(), 4);
        assert_eq!(winner(&mut t), 3, "the reordered spelling is now the oldest at 9");
        assert_eq!(t.delete(&reordered, SimTime::ZERO).len(), 1);
        assert_eq!(winner(&mut t), 5);
        assert_eq!(t.entries().map(|e| e.cookie).collect::<Vec<_>>(), vec![5, 1, 4]);
        let removed = t.delete(&m, SimTime::ZERO);
        assert_eq!(removed.iter().map(|r| r.entry.cookie).collect::<Vec<_>>(), vec![5, 1, 4]);
        assert!(t.is_empty() && t.peek(&view(80)).is_none());
    }

    /// A match with a duplicated field kind (only constructible from wire
    /// bytes) cannot be hashed faithfully and must take the residual path —
    /// satisfiable duplicates still match, contradictory ones never do.
    #[test]
    fn duplicate_field_matches_use_residual_path() {
        // type=1, length 4+2*6=16, two TcpDst TLVs (80 then 80 / 80 then 81).
        fn dup_match(a: u16, b: u16) -> Match {
            let mut buf = vec![0, 1, 0, 16];
            for port in [a, b] {
                buf.extend_from_slice(&[0x80, 0x00, 14 << 1, 2]);
                buf.extend_from_slice(&port.to_be_bytes());
            }
            Match::decode(&buf).expect("valid duplicate-field match").0
        }
        let mut t = FlowTable::new();
        let consistent = dup_match(80, 80);
        let contradictory = dup_match(80, 81);
        t.add(
            entry(consistent.clone(), 7, 1, fwd(1), Duration::ZERO, Duration::ZERO, 0),
            SimTime::ZERO,
        );
        t.add(
            entry(contradictory, 9, 2, fwd(2), Duration::ZERO, Duration::ZERO, 0),
            SimTime::ZERO,
        );
        let (cookie, _) = t.lookup(&view(80), 64, SimTime::ZERO).unwrap();
        assert_eq!(cookie, 1, "consistent duplicate matches; contradictory never");
        assert!(t.lookup(&view(443), 64, SimTime::ZERO).is_none());
        let removed = t.delete(&consistent, SimTime::ZERO);
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].entry.cookie, 1);
        assert_eq!(t.len(), 1);
    }
    /// The index key under the deterministic hasher: 4 096 connections of
    /// one client to one service differ only in `tcp_src` — two bytes deep
    /// inside the packed key — and must still use both ends of the hash
    /// (hashbrown takes the bucket from the low bits, its control tag from
    /// the top seven).
    #[test]
    fn shape_keys_differing_only_in_tcp_src_spread_over_buckets_and_tags() {
        use std::hash::BuildHasher;
        let hasher = desim::hash::FastBuildHasher::default();
        let (mut buckets, mut tags) = (desim::FastSet::default(), desim::FastSet::default());
        for port in 0..4096u16 {
            let m = Match::connection([192, 168, 1, 20], 40_000 + port, [203, 0, 113, 10], 80);
            let h = hasher.hash_one(ShapeKey::of_match(&m).expect("no duplicate kinds"));
            buckets.insert(h & 1023);
            tags.insert(h >> 57);
        }
        // A uniform hash fills 1024·(1 − e⁻⁴) ≈ 1 005 buckets; ask for 90 %.
        assert!(buckets.len() >= 905, "{} of 1024 buckets", buckets.len());
        assert!(tags.len() > 1, "constant control tag");
    }
}
