//! The controller's recoverable state and its crash-recovery: one
//! [`ControlState`] with a single mutator, a write-ahead journal of what
//! was applied, periodic compacted snapshots and deterministic replay.
//!
//! The controller is the last single point of failure in the transparent
//! edge: instance crashes, zone outages and channel loss are recovered
//! from, but a controller death used to lose the FlowMemory, the
//! installed-pair bookkeeping, breaker state, and in-flight migrations
//! outright. The journal closes that gap:
//!
//! * everything recoverable lives in one [`ControlState`]; the live
//!   controller changes it only through [`ControlState::apply`] (for
//!   controller-level events: pair add/remove, aggregate anchor changes,
//!   scale-down bookkeeping, client sightings) or through its three
//!   self-logging components ([`FlowOp`], [`HealthOp`], [`MigrationOp`]);
//! * every applied event is appended as a [`JournalEvent`], the component
//!   ops drained in at the end of each controller entry point;
//! * every `snapshot_every` events the tail is **compacted** into a
//!   [`Snapshot`] — a sorted, deterministic export of the full recoverable
//!   state — and the tail restarts empty;
//! * a **warm restart** rebuilds the state by restoring the snapshot and
//!   applying the tail ([`Journal::rebuild`]) — through the very `apply` the
//!   live controller used; a **cold restart** starts empty and leans on
//!   reconciliation plus packet-in re-dispatch alone.
//!
//! Replay is deterministic: the same journal always rebuilds the same
//! state, and a rebuilt state's [`Snapshot::encode`] is byte-identical to
//! the uncrashed controller's at every mutation boundary (the differential
//! oracle the tests enforce). Volatile state — held requests, deferred
//! expiries, in-flight single-flight deployments, per-request records,
//! telemetry — is deliberately *not* part of the state: it is either
//! rebuilt on demand by the ordinary pipeline or pure diagnostics.
//!
//! The journal is **off by default** ([`JournalConfig::enabled`] =
//! `false`): no component logs ops, `record` is never reached, and every
//! previously committed figure stays byte-identical.

use crate::clients::ClientTracker;
use crate::cluster::InstanceAddr;
use crate::controller::ControllerConfig;
use crate::rules::{AggregateRule, InstalledPair};
use crate::flowmemory::{FlowKey, FlowMemory, FlowOp, IngressId, MemorizedFlow};
use crate::health::{BreakerSnapshot, HealthMonitor, HealthOp};
use crate::migrate::{MigrationManager, MigrationOp, MigrationSnapshot};
use desim::hash::FastHasher;
use desim::{FastMap, SimTime};
use netsim::addr::{Ipv4Addr, MacAddr};
use netsim::ServiceAddr;
use openflow::oxm::{Match, OxmField};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::hash::Hasher;

/// Write-ahead journal configuration (the `journal:` YAML block).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JournalConfig {
    /// Whether the journal records at all. Off by default: every component
    /// op log stays `None`, `record` is a never-taken branch, and every
    /// committed figure stays byte-identical.
    pub enabled: bool,
    /// Compact the tail into a snapshot once it holds this many events.
    pub snapshot_every: usize,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            enabled: false,
            snapshot_every: 256,
        }
    }
}

/// One state mutation. Component ops are drained from the mutated
/// structures' own logs; the rest are the controller-level mutations of the
/// installed-pair bookkeeping and its satellites, each implemented exactly
/// once, in [`ControlState::apply`].
///
/// Events touching *different* structures commute, so the controller may
/// batch component-op drains at the end of an entry point; events touching
/// the *same* structure are strictly ordered. `PairRemove` names a pair by
/// the [`PairId`] its `PairAdd` was given — stable because ids come from a
/// counter the state owns and a [`Snapshot`] carries.
#[derive(Clone, Debug)]
pub(crate) enum JournalEvent {
    /// A FlowMemory mutation.
    Flow(FlowOp),
    /// A breaker/outage mutation.
    Health(HealthOp),
    /// A migration-manager mutation.
    Migration(MigrationOp),
    /// A forward/reverse pair was filed into the bookkeeping, under the next
    /// id.
    PairAdd {
        client: Ipv4Addr,
        ingress: IngressId,
        pair: InstalledPair,
    },
    /// The pair `id` of `(client, ingress)` left the bookkeeping: its
    /// forward flow left the switch, or is being deleted from it.
    PairRemove {
        client: Ipv4Addr,
        ingress: IngressId,
        id: PairId,
    },
    /// An attachment-change handover swept `(client, from)`: pairs marked
    /// `teardown_on_handover` were removed, the rest kept.
    HandoverSweep { client: Ipv4Addr, from: IngressId },
    /// An aggregated wildcard rule was anchored for `(ingress, service)`.
    AggregateSet {
        ingress: IngressId,
        service: ServiceAddr,
        rule: AggregateRule,
    },
    /// The aggregate anchor of `(ingress, service)` was dropped.
    AggregateDrop {
        ingress: IngressId,
        service: ServiceAddr,
    },
    /// Every aggregate anchored on `instance` was dropped (repair sweep).
    AggregateRetainInstance { instance: InstanceAddr },
    /// Every aggregate into `cluster` was dropped (zone outage).
    AggregateRetainCluster { cluster: usize },
    /// `(service, cluster)` was scaled down at `at`, awaiting removal.
    ScaledDown {
        service: ServiceAddr,
        cluster: usize,
        at: SimTime,
    },
    /// `(service, cluster)` left the scaled-down set (removed or timed).
    ScaleRestored { service: ServiceAddr, cluster: usize },
    /// A client was sighted at `(ingress, in_port)` — replayed through the
    /// tracker's `observe`, which reproduces any detected move.
    ClientSeen {
        client: Ipv4Addr,
        ingress: IngressId,
        in_port: u32,
        at: SimTime,
    },
    /// The client's MAC and perceived gateway MAC were learned.
    MacsSeen {
        client: Ipv4Addr,
        client_mac: MacAddr,
        gw_mac: MacAddr,
    },
}

/// One ingress's pairs in a [`Snapshot`]: clients sorted, each client's
/// pairs in filing order.
type Shard = Vec<(Ipv4Addr, Vec<(PairId, InstalledPair)>)>;

/// A compacted, deterministic export of the controller's recoverable
/// state: every collection sorted by a stable key, so [`Snapshot::encode`]
/// is byte-identical for semantically identical states regardless of hash
/// iteration order.
#[derive(Clone, Debug, Default)]
pub(crate) struct Snapshot {
    pub(crate) memory: Vec<(FlowKey, MemorizedFlow)>,
    pub(crate) installed: Vec<Shard>,
    /// The id the next filed pair gets.
    pub(crate) next_pair: PairId,
    pub(crate) aggregates: Vec<((IngressId, ServiceAddr), AggregateRule)>,
    pub(crate) scaled_down: Vec<((ServiceAddr, usize), SimTime)>,
    pub(crate) locations: Vec<(Ipv4Addr, IngressId, u32, SimTime)>,
    pub(crate) client_macs: Vec<(Ipv4Addr, (MacAddr, MacAddr))>,
    pub(crate) breakers: Vec<BreakerSnapshot>,
    pub(crate) outages: Vec<Option<SimTime>>,
    pub(crate) migrate: MigrationSnapshot,
}

impl Snapshot {
    /// Captures `st` as sorted plain data.
    pub(crate) fn capture(st: &ControlState) -> Snapshot {
        let installed = (0..st.installed.len() as u32)
            .map(|i| {
                let ingress = IngressId(i);
                let pairs = |c| st.pairs(c, ingress).map(|(id, p)| (id, p.clone())).collect();
                st.clients_at(ingress).into_iter().map(|c| (c, pairs(c))).collect()
            })
            .collect();
        let mut aggregates: Vec<_> = st.aggregates.iter().map(|(k, r)| (*k, r.clone())).collect();
        aggregates.sort_unstable_by_key(|&((i, s), _)| (i.0, s.ip.octets(), s.port));
        let mut scaled_down: Vec<_> = st.scaled_down.iter().map(|(k, t)| (*k, *t)).collect();
        scaled_down.sort_unstable_by_key(|&((s, c), _)| (s.ip.octets(), s.port, c));
        let mut client_macs: Vec<_> = st.client_macs.iter().map(|(c, m)| (*c, *m)).collect();
        client_macs.sort_unstable_by_key(|&(c, _)| c);
        let (breakers, outages) = st.health.export_state();
        Snapshot {
            memory: st.memory.export_entries(),
            installed,
            next_pair: st.next_pair,
            aggregates,
            scaled_down,
            locations: st.clients.export_locations(),
            client_macs,
            breakers,
            outages,
            migrate: st.migrate.export_state(),
        }
    }

    /// Deterministic textual encoding — the differential oracle's currency.
    /// Debug formatting over sorted vectors: byte-identical iff the
    /// recoverable state is identical.
    pub(crate) fn encode(&self) -> String {
        format!(
            "memory={:?}\ninstalled={:?}\nnext_pair={:?}\naggregates={:?}\nscaled_down={:?}\n\
             locations={:?}\nclient_macs={:?}\nbreakers={:?}\noutages={:?}\nmigrate={:?}\n",
            self.memory,
            self.installed,
            self.next_pair,
            self.aggregates,
            self.scaled_down,
            self.locations,
            self.client_macs,
            self.breakers,
            self.outages,
            self.migrate,
        )
    }

    /// Total entries across the snapshot's collections (the recovery
    /// report's "state size").
    pub(crate) fn entry_count(&self) -> usize {
        self.memory.len()
            + self
                .installed
                .iter()
                .flat_map(|shard| shard.iter())
                .map(|(_, ps)| ps.len())
                .sum::<usize>()
            + self.aggregates.len()
            + self.scaled_down.len()
            + self.locations.len()
            + self.client_macs.len()
            + self.migrate.ledger.len()
            + self.migrate.active.len()
    }
}

/// What a live caller needs back from [`ControlState::apply`], so that
/// nobody reads the state, decides, and then mutates around the mutator.
#[derive(Default)]
pub(crate) struct Applied {
    /// `ClientSeen`: the sighting was a move. (The caller then flushes the
    /// client's FlowMemory entries — which log their own `FlowOp`s, so the
    /// flush is deliberately *not* part of `ClientSeen`: replay would apply
    /// it twice.)
    pub(crate) moved: bool,
    /// `HandoverSweep`: the pairs it retired, in filing order (the caller
    /// deletes their switch flows, then hands the buffer back through
    /// [`ControlState::recycle_retired`]).
    pub(crate) retired: Vec<InstalledPair>,
    /// `PairRemove`: the pair, if it was filed.
    pub(crate) removed: Option<InstalledPair>,
}

/// A filed pair's name. Ids come from a counter in filing order, so within
/// one client's pairs ascending id is filing order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct PairId(u64);

/// Sizes of the controller's bookkeeping — what a long run must not let
/// drift (beside k8ssim's `store_stats()`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StateStats {
    /// Filed forward/reverse pairs: one per forward flow on a switch.
    pub pairs: usize,
    /// `(ingress, client)` entries the pairs are filed under.
    pub filed_clients: usize,
    /// Keys of the forward-flow index.
    pub fwd_index: usize,
    /// FlowMemory entries.
    pub memory: usize,
    /// Anchored aggregate rules.
    pub aggregates: usize,
    /// Services scaled down and awaiting removal.
    pub scaled_down: usize,
}

/// Key of the forward-flow index: whose pair, where, and what its forward
/// flow matches — the match by content hash, so filing a pair clones nothing
/// and a lookup's candidates are confirmed against the pairs themselves.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct FwdKey {
    ingress: IngressId,
    client: Ipv4Addr,
    priority: u16,
    fingerprint: u64,
}

impl FwdKey {
    fn new(client: Ipv4Addr, ingress: IngressId, priority: u16, match_: &Match) -> FwdKey {
        let mut h = FastHasher::default();
        let mac = |m: [u8; 6]| m.iter().fold(0u64, |v, &b| v << 8 | u64::from(b));
        for f in match_.fields() {
            // Field kind in the top byte, value (48 bits at most) below it.
            let (kind, value) = match *f {
                OxmField::InPort(p) => (0u64, u64::from(p)),
                OxmField::EthDst(m) => (1, mac(m)),
                OxmField::EthSrc(m) => (2, mac(m)),
                OxmField::EthType(t) => (3, u64::from(t)),
                OxmField::IpProto(p) => (4, u64::from(p)),
                OxmField::Ipv4Src(a) => (5, u64::from(u32::from_be_bytes(a))),
                OxmField::Ipv4Dst(a) => (6, u64::from(u32::from_be_bytes(a))),
                OxmField::TcpSrc(p) => (7, u64::from(p)),
                OxmField::TcpDst(p) => (8, u64::from(p)),
            };
            h.write_u64(kind << 56 | value);
        }
        FwdKey {
            ingress,
            client,
            priority,
            fingerprint: h.finish(),
        }
    }

    fn of(client: Ipv4Addr, ingress: IngressId, pair: &InstalledPair) -> FwdKey {
        FwdKey::new(client, ingress, pair.fwd.priority, &pair.fwd.match_)
    }
}

/// The ids of the pairs filed under one forward flow, ascending. The first
/// sits inline: a flow has a second pair only while a re-install races the
/// `FLOW_REMOVED` of the flow it replaced, so filing a pair costs no heap
/// call.
struct Ids {
    first: PairId,
    more: Vec<PairId>,
}

impl Ids {
    fn iter(&self) -> impl Iterator<Item = PairId> + '_ {
        std::iter::once(self.first).chain(self.more.iter().copied())
    }
}

type FwdIndex = FastMap<FwdKey, Ids>;

/// Files `id` — larger than every id already under `key`.
fn file(index: &mut FwdIndex, key: FwdKey, id: PairId) {
    match index.entry(key) {
        Entry::Vacant(v) => {
            v.insert(Ids { first: id, more: Vec::new() });
        }
        Entry::Occupied(o) => o.into_mut().more.push(id),
    }
}

/// Unfiles `id` from under `key`; the entry goes with its last id.
fn unfile(index: &mut FwdIndex, key: FwdKey, id: PairId) {
    let Entry::Occupied(mut o) = index.entry(key) else {
        return;
    };
    let ids = o.get_mut();
    if ids.first != id {
        ids.more.retain(|&i| i != id);
    } else if ids.more.is_empty() {
        o.remove();
    } else {
        ids.first = ids.more.remove(0);
    }
}

/// One client's pairs at one ingress, in filing order (ascending id). Pairs
/// die roughly in the order they were filed, so the oldest leaves in O(1).
type Pairs = VecDeque<(PairId, InstalledPair)>;

/// Where `id` sits in `pairs`. Usually first — pairs die roughly in filing
/// order — so that is looked at before the search touches anything else.
fn position(pairs: &Pairs, id: PairId) -> Option<usize> {
    match pairs.front() {
        Some(&(first, _)) if first == id => Some(0),
        _ => pairs.binary_search_by_key(&id, |&(id, _)| id).ok(),
    }
}

/// The controller's recoverable state — the only copy. The live controller
/// owns one, [`Journal::rebuild`] builds another from snapshot + tail, and
/// both change it through the same [`ControlState::apply`], so live
/// operation, replay and the digest oracle agree by construction.
///
/// The fields are private to this module. The three components that keep
/// their own op logs (FlowMemory, HealthMonitor, MigrationManager) are lent
/// out mutably — each of their mutators logs the op that
/// [`FlowMemory::apply`] & co. replay through the very same mutator. All
/// other state changes only inside `apply`.
pub(crate) struct ControlState {
    memory: FlowMemory,
    /// Flow pairs installed per client, sharded by ingress (outer index =
    /// [`IngressId`]) — what makes handover teardown, stale-redirect repair
    /// and channel-reconnect reconciliation possible: switch-side deletion
    /// is exact-match, so the controller must remember what it installed.
    /// A pair lives exactly as long as its forward flow, and a client's
    /// entry as long as its last pair. Sharding keeps per-switch
    /// reconciliation O(one cell) at fleet scale.
    installed: Vec<FastMap<Ipv4Addr, Pairs>>,
    /// The id the next filed pair gets.
    next_pair: PairId,
    /// Emptied deques of dropped `installed` entries, kept for the next
    /// entry: a client whose pairs come and go costs no heap call per visit.
    /// Never more than the entries that existed at once.
    spare: Vec<Pairs>,
    /// The ids of the pairs with a given forward flow, so a `FLOW_REMOVED`
    /// finds its pair without walking the client's others. Derived from
    /// `installed` — kept in step by [`ControlState::apply`], rebuilt by
    /// `restore`, and therefore neither journaled nor part of a [`Snapshot`].
    fwd_index: FwdIndex,
    /// Recycled result buffer of [`ControlState::pairs_with_fwd`].
    fwd_scratch: Vec<PairId>,
    /// Recycled `retired` buffer of `HandoverSweep` ([`Applied::retired`]).
    retired_scratch: Vec<InstalledPair>,
    /// Pairs [`ControlState::pairs_with_fwd`] compared so far.
    #[cfg(test)]
    examined: std::cell::Cell<usize>,
    /// Live aggregated rule pairs; their bookkeeping pairs are filed under
    /// [`crate::rules::AGGREGATE_CLIENT`] in `installed`.
    aggregates: FastMap<(IngressId, ServiceAddr), AggregateRule>,
    /// Services scaled down and when, awaiting possible removal.
    scaled_down: FastMap<(ServiceAddr, usize), SimTime>,
    /// Client location tracking (moves flush the client's memorized flows).
    clients: ClientTracker,
    /// Last seen `(client MAC, perceived gateway MAC)` per client, learned
    /// from packet-ins and announced handovers. The migration flow flip
    /// re-installs reverse rewrites at the client's switch and needs both.
    client_macs: FastMap<Ipv4Addr, (MacAddr, MacAddr)>,
    /// Per-cluster circuit breakers and declared outage windows.
    health: HealthMonitor,
    /// The session-state ledger, in-flight transfers and completed
    /// [`crate::migrate::MigrationRecord`]s.
    migrate: MigrationManager,
}

impl ControlState {
    /// Fresh, empty state under the controller's configuration, with the
    /// component op logs off.
    pub(crate) fn new(config: &ControllerConfig) -> ControlState {
        ControlState {
            memory: FlowMemory::new(config.memory_idle),
            installed: Vec::new(),
            next_pair: PairId::default(),
            spare: Vec::new(),
            fwd_index: FastMap::default(),
            fwd_scratch: Vec::new(),
            retired_scratch: Vec::new(),
            #[cfg(test)]
            examined: std::cell::Cell::new(0),
            aggregates: FastMap::default(),
            scaled_down: FastMap::default(),
            clients: ClientTracker::new(),
            client_macs: FastMap::default(),
            health: HealthMonitor::new(config.health),
            migrate: MigrationManager::new(config.migration.clone()),
        }
    }

    /// Turns the component op logs on or off (the live state logs while the
    /// journal is on; a state being replayed into must not re-log).
    pub(crate) fn set_logging(&mut self, on: bool) {
        self.memory.set_logging(on);
        self.health.set_logging(on);
        self.migrate.set_logging(on);
    }

    /// Restores a compacted snapshot into the (empty) state.
    fn restore(&mut self, snap: &Snapshot) {
        self.memory.restore_entries(&snap.memory);
        self.installed.resize_with(snap.installed.len(), FastMap::default);
        for (ingress, shard) in snap.installed.iter().enumerate() {
            for (client, pairs) in shard {
                for (id, pair) in pairs {
                    self.file_pair(*client, IngressId(ingress as u32), *id, pair.clone());
                }
            }
        }
        self.next_pair = snap.next_pair;
        self.aggregates = snap.aggregates.iter().map(|(k, r)| (*k, r.clone())).collect();
        self.scaled_down = snap.scaled_down.iter().copied().collect();
        self.clients.restore_locations(&snap.locations);
        self.client_macs = snap.client_macs.iter().copied().collect();
        self.health.restore_state(&snap.breakers, &snap.outages);
        self.migrate.restore_state(&snap.migrate);
    }

    /// Applies one event — the single mutator behind live operation and
    /// replay alike.
    pub(crate) fn apply(&mut self, ev: JournalEvent) -> Applied {
        let mut applied = Applied::default();
        match ev {
            JournalEvent::Flow(op) => self.memory.apply(&op),
            JournalEvent::Health(op) => self.health.apply(&op),
            JournalEvent::Migration(op) => self.migrate.apply(&op),
            JournalEvent::PairAdd { client, ingress, pair } => {
                let id = self.next_pair;
                self.next_pair = PairId(id.0 + 1);
                self.file_pair(client, ingress, id, pair);
            }
            JournalEvent::PairRemove { client, ingress, id } => {
                applied.removed = self.take_pair(client, ingress, id);
            }
            JournalEvent::HandoverSweep { client, from } => {
                applied.retired = std::mem::take(&mut self.retired_scratch);
                let Some(shard) = self.installed.get_mut(from.0 as usize) else {
                    return applied;
                };
                let Some(pairs) = shard.get_mut(&client) else {
                    return applied;
                };
                // One turn of the deque: retired pairs leave, the rest go
                // back in the order they came.
                for _ in 0..pairs.len() {
                    let (id, pair) = pairs.pop_front().expect("counted");
                    if !pair.teardown_on_handover {
                        pairs.push_back((id, pair));
                        continue;
                    }
                    unfile(&mut self.fwd_index, FwdKey::of(client, from, &pair), id);
                    applied.retired.push(pair);
                }
                if pairs.is_empty() {
                    self.spare.extend(shard.remove(&client));
                }
            }
            JournalEvent::AggregateSet { ingress, service, rule } => {
                self.aggregates.insert((ingress, service), rule);
            }
            JournalEvent::AggregateDrop { ingress, service } => {
                self.aggregates.remove(&(ingress, service));
            }
            JournalEvent::AggregateRetainInstance { instance } => {
                self.aggregates.retain(|_, r| r.instance != instance);
            }
            JournalEvent::AggregateRetainCluster { cluster } => {
                self.aggregates.retain(|_, r| r.cluster != cluster);
            }
            JournalEvent::ScaledDown { service, cluster, at } => {
                self.scaled_down.insert((service, cluster), at);
            }
            JournalEvent::ScaleRestored { service, cluster } => {
                self.scaled_down.remove(&(service, cluster));
            }
            JournalEvent::ClientSeen { client, ingress, in_port, at } => {
                applied.moved = self.clients.observe(client, ingress, in_port, at).is_some();
            }
            JournalEvent::MacsSeen { client, client_mac, gw_mac } => {
                self.client_macs.insert(client, (client_mac, gw_mac));
            }
        }
        applied
    }

    /// Files `pair` as `id` — larger than every id `(client, ingress)` has
    /// — and indexes it.
    fn file_pair(&mut self, client: Ipv4Addr, ingress: IngressId, id: PairId, pair: InstalledPair) {
        let shard = ingress.0 as usize;
        if shard >= self.installed.len() {
            self.installed.resize_with(shard + 1, FastMap::default);
        }
        let recycled = || self.spare.pop().unwrap_or_default();
        let pairs = self.installed[shard].entry(client).or_insert_with(recycled);
        file(&mut self.fwd_index, FwdKey::of(client, ingress, &pair), id);
        pairs.push_back((id, pair));
    }

    /// Takes the pair `id` out of `(client, ingress)` and the index, if it is
    /// filed there. An entry goes with its last pair; its deque is kept for
    /// the next.
    fn take_pair(
        &mut self,
        client: Ipv4Addr,
        ingress: IngressId,
        id: PairId,
    ) -> Option<InstalledPair> {
        let shard = self.installed.get_mut(ingress.0 as usize)?;
        let pairs = shard.get_mut(&client)?;
        let i = position(pairs, id)?;
        let (_, pair) = pairs.remove(i)?;
        if pairs.is_empty() {
            self.spare.extend(shard.remove(&client));
        }
        unfile(&mut self.fwd_index, FwdKey::of(client, ingress, &pair), id);
        Some(pair)
    }

    /// The FlowMemory.
    pub(crate) fn memory(&self) -> &FlowMemory {
        &self.memory
    }

    /// The FlowMemory, to mutate through its self-logging mutators.
    pub(crate) fn memory_mut(&mut self) -> &mut FlowMemory {
        &mut self.memory
    }

    /// The breakers and outage windows.
    pub(crate) fn health(&self) -> &HealthMonitor {
        &self.health
    }

    /// The health monitor, to mutate through its self-logging mutators.
    pub(crate) fn health_mut(&mut self) -> &mut HealthMonitor {
        &mut self.health
    }

    /// What one dispatch reads and writes: the FlowMemory and the breakers.
    pub(crate) fn dispatch_parts(&mut self) -> (&mut FlowMemory, &mut HealthMonitor) {
        (&mut self.memory, &mut self.health)
    }

    /// The migration manager.
    pub(crate) fn migrate(&self) -> &MigrationManager {
        &self.migrate
    }

    /// The migration manager, to mutate through its self-logging mutators.
    pub(crate) fn migrate_mut(&mut self) -> &mut MigrationManager {
        &mut self.migrate
    }

    /// Where each client was last seen.
    pub(crate) fn clients(&self) -> &ClientTracker {
        &self.clients
    }

    /// The client's `(own MAC, perceived gateway MAC)`, once learned.
    pub(crate) fn client_macs(&self, client: Ipv4Addr) -> Option<(MacAddr, MacAddr)> {
        self.client_macs.get(&client).copied()
    }

    /// The live aggregated rule of `(ingress, service)`, if any.
    pub(crate) fn aggregate(
        &self,
        ingress: IngressId,
        service: ServiceAddr,
    ) -> Option<&AggregateRule> {
        self.aggregates.get(&(ingress, service))
    }

    /// Scaled-down services awaiting removal, and since when.
    pub(crate) fn scaled_down(&self) -> &FastMap<(ServiceAddr, usize), SimTime> {
        &self.scaled_down
    }

    /// The pairs filed under `(client, ingress)`, in filing order.
    pub(crate) fn pairs(
        &self,
        client: Ipv4Addr,
        ingress: IngressId,
    ) -> impl Iterator<Item = (PairId, &InstalledPair)> {
        self.filed(client, ingress).into_iter().flatten().map(|(id, p)| (*id, p))
    }

    fn filed(&self, client: Ipv4Addr, ingress: IngressId) -> Option<&Pairs> {
        self.installed.get(ingress.0 as usize)?.get(&client)
    }

    /// The pairs at `(client, ingress)` whose forward flow is exactly
    /// `(priority, match_)`, in filing order — what a `FLOW_REMOVED` removes.
    /// Examines only the pairs filed under that flow, however many the
    /// client has. The answer sits in a buffer the state lends out:
    /// [`ControlState::recycle_ids`] hands it back, and the next
    /// `FLOW_REMOVED` then costs no heap call.
    pub(crate) fn pairs_with_fwd(
        &mut self,
        client: Ipv4Addr,
        ingress: IngressId,
        priority: u16,
        match_: &Match,
    ) -> Vec<PairId> {
        let mut found = std::mem::take(&mut self.fwd_scratch);
        found.clear();
        let same_flow = |p: &InstalledPair| p.fwd.priority == priority && p.fwd.match_ == *match_;
        let ids = self.fwd_index.get(&FwdKey::new(client, ingress, priority, match_));
        let pairs = self.filed(client, ingress);
        for id in ids.into_iter().flat_map(Ids::iter) {
            #[cfg(test)]
            self.examined.set(self.examined.get() + 1);
            let i = pairs.and_then(|ps| position(ps, id));
            if pairs.zip(i).is_some_and(|(ps, i)| same_flow(&ps[i].1)) {
                found.push(id);
            }
        }
        debug_assert_eq!(found, self.ids_where(client, ingress, same_flow), "index ≠ scan");
        found
    }

    /// Takes back the buffer [`ControlState::pairs_with_fwd`] lent out.
    pub(crate) fn recycle_ids(&mut self, ids: Vec<PairId>) {
        self.fwd_scratch = ids;
    }

    /// Takes back the emptied [`Applied::retired`] of a `HandoverSweep`, so
    /// the next handover costs no heap call for it.
    pub(crate) fn recycle_retired(&mut self, retired: Vec<InstalledPair>) {
        self.retired_scratch = retired;
    }

    /// The pairs at `(client, ingress)` that `pick` selects, in filing
    /// order, by walking all of them — for the sweeps (handover, repair,
    /// outage, migration flip, reconcile), and the oracle of the index above.
    pub(crate) fn ids_where(
        &self,
        client: Ipv4Addr,
        ingress: IngressId,
        pick: impl Fn(&InstalledPair) -> bool,
    ) -> Vec<PairId> {
        self.pairs(client, ingress).filter(|(_, p)| pick(p)).map(|(id, _)| id).collect()
    }

    /// Sizes of the bookkeeping.
    pub(crate) fn state_stats(&self) -> StateStats {
        StateStats {
            pairs: self.installed.iter().flat_map(FastMap::values).map(VecDeque::len).sum(),
            filed_clients: self.installed.iter().map(FastMap::len).sum(),
            fwd_index: self.fwd_index.len(),
            memory: self.memory.len(),
            aggregates: self.aggregates.len(),
            scaled_down: self.scaled_down.len(),
        }
    }

    /// How many pairs [`ControlState::pairs_with_fwd`] has compared.
    #[cfg(test)]
    pub(crate) fn pairs_examined(&self) -> usize {
        self.examined.get()
    }

    /// Every client with bookkeeping at `ingress`, sorted — sweeps iterate
    /// in this order so their message sequences are deterministic.
    pub(crate) fn clients_at(&self, ingress: IngressId) -> Vec<Ipv4Addr> {
        let mut clients: Vec<Ipv4Addr> = self
            .installed
            .get(ingress.0 as usize)
            .map(|shard| shard.keys().copied().collect())
            .unwrap_or_default();
        clients.sort();
        clients
    }

    /// Every `(client, ingress)` with bookkeeping, sorted by client first —
    /// the order of the fleet-wide repair sweeps.
    pub(crate) fn installed_keys_sorted(&self) -> Vec<(Ipv4Addr, IngressId)> {
        let mut keys: Vec<(Ipv4Addr, IngressId)> = self
            .installed
            .iter()
            .enumerate()
            .flat_map(|(i, shard)| shard.keys().map(move |c| (*c, IngressId(i as u32))))
            .collect();
        keys.sort();
        keys
    }
}

/// Read-only journal counters (the bench and the recovery report read
/// these).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Whether the journal is recording.
    pub enabled: bool,
    /// Events appended over the journal's lifetime (pre-compaction
    /// included).
    pub appended: u64,
    /// Events currently in the tail (since the last compaction).
    pub tail_len: usize,
    /// Compactions performed.
    pub snapshots_taken: u64,
    /// Entries in the current compacted snapshot (0 when none).
    pub snapshot_entries: usize,
}

/// The write-ahead journal: an optional compacted [`Snapshot`] plus the
/// tail of [`JournalEvent`]s since.
pub struct Journal {
    config: JournalConfig,
    snapshot: Option<Snapshot>,
    tail: Vec<JournalEvent>,
    appended: u64,
    snapshots_taken: u64,
}

impl Journal {
    /// A journal under `config` — empty, no snapshot.
    pub(crate) fn new(config: JournalConfig) -> Journal {
        Journal {
            config,
            snapshot: None,
            tail: Vec::new(),
            appended: 0,
            snapshots_taken: 0,
        }
    }

    /// Whether the journal records at all.
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// Appends one event (a no-op while disabled).
    pub(crate) fn record(&mut self, ev: JournalEvent) {
        if self.config.enabled {
            self.tail.push(ev);
            self.appended += 1;
        }
    }

    /// Whether the tail has grown past the compaction threshold.
    pub(crate) fn should_compact(&self) -> bool {
        self.config.enabled && self.tail.len() >= self.config.snapshot_every.max(1)
    }

    /// Replaces snapshot + tail with a freshly captured snapshot. The
    /// caller captures it *after* the tail's last event took effect, so
    /// snapshot ≡ old-snapshot + tail.
    pub(crate) fn compact(&mut self, snap: Snapshot) {
        self.snapshot = Some(snap);
        self.tail.clear();
        self.snapshots_taken += 1;
    }

    /// Rebuilds the recoverable state: restore the snapshot, replay the
    /// tail. Returns the state (op logs off), the tail events replayed, and
    /// the entries restored from the snapshot.
    pub(crate) fn rebuild(&self, config: &ControllerConfig) -> (ControlState, usize, usize) {
        let mut st = ControlState::new(config);
        let mut snapshot_entries = 0;
        if let Some(snap) = &self.snapshot {
            snapshot_entries = snap.entry_count();
            st.restore(snap);
        }
        for ev in &self.tail {
            st.apply(ev.clone());
        }
        (st, self.tail.len(), snapshot_entries)
    }

    /// Drops everything — the cold-restart (and post-warm-rebuild) reset:
    /// the journal restarts from the recovered state's next mutation.
    pub(crate) fn reset(&mut self) {
        self.snapshot = None;
        self.tail.clear();
    }

    /// Current counters.
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            enabled: self.config.enabled,
            appended: self.appended,
            tail_len: self.tail.len(),
            snapshots_taken: self.snapshots_taken,
            snapshot_entries: self.snapshot.as_ref().map_or(0, Snapshot::entry_count),
        }
    }
}

/// How a restarted controller rebuilds its state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryMode {
    /// Restore the journal snapshot and replay the tail, then reconcile.
    Warm,
    /// Start empty; reconciliation, `FLOW_REMOVED`, and packet-in
    /// re-dispatch rebuild everything on demand.
    Cold,
}

impl RecoveryMode {
    /// Short lowercase label (`"warm"` / `"cold"`).
    pub fn label(self) -> &'static str {
        match self {
            RecoveryMode::Warm => "warm",
            RecoveryMode::Cold => "cold",
        }
    }
}

/// What a crash-restart did (the HA bench reads this). Sim-deterministic:
/// two identical runs report equal values (how long the rebuild took on the
/// wall clock is for the caller to time, outside the simulation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The mode that ran.
    pub mode: RecoveryMode,
    /// Tail events replayed (0 for cold).
    pub replayed_events: usize,
    /// Entries restored from the compacted snapshot (0 for cold or when
    /// no compaction had happened).
    pub snapshot_entries: usize,
    /// In-flight migrations aborted because their pinned transfer cannot
    /// survive the crash.
    pub aborted_migrations: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::InstalledFlow;
    use proptest::prelude::*;

    /// One step of the bookkeeping property; small pools so keys collide.
    #[derive(Clone, Debug)]
    enum PairOp {
        Add { client: u8, ingress: u32, fwd: usize, priority: u16, teardown: bool },
        /// Removes the `nth` filed pair (cyclically), or with `stale` an id
        /// from `(client, ingress)` that may never have been filed there or
        /// is gone already.
        Remove { client: u8, ingress: u32, nth: usize, stale: bool },
        Sweep { client: u8, from: u32 },
        /// Snapshot the state and restore it into a fresh one.
        Restore,
    }

    const PRIORITIES: [u16; 2] = [100, 99];

    fn client_ip(client: u8) -> Ipv4Addr {
        Ipv4Addr::new(192, 168, 1, client)
    }

    /// Forward matches two clients' pairs can share: exact connections, the
    /// per-client wildcard, and two matches that carry no client at all.
    fn fwd_pool(client: u8) -> [Match; 5] {
        let (ip, svc) = (client_ip(client).octets(), [203, 0, 113, 10]);
        [
            Match::connection(ip, 50_000, svc, 80),
            Match::connection(ip, 50_001, svc, 80),
            Match::service(svc, 80).with(OxmField::Ipv4Src(ip)),
            Match::service(svc, 80).with(OxmField::InPort(1)),
            Match::any(),
        ]
    }

    fn flow(match_: Match, priority: u16) -> InstalledFlow {
        InstalledFlow {
            match_,
            instructions: vec![],
            priority,
            cookie: 1,
            flags: 0,
        }
    }

    fn arb_pair_op() -> impl Strategy<Value = PairOp> {
        let add = (0u8..3, 0u32..2, 0usize..5, 0usize..2, any::<bool>());
        prop_oneof![
            6 => add.prop_map(|(client, ingress, fwd, prio, teardown)| PairOp::Add {
                client,
                ingress,
                fwd,
                priority: PRIORITIES[prio],
                teardown,
            }),
            5 => (0u8..3, 0u32..2, 0usize..40, 0u8..4).prop_map(|(client, ingress, nth, s)| {
                PairOp::Remove { client, ingress, nth, stale: s == 0 }
            }),
            1 => (0u8..3, 0u32..2).prop_map(|(client, from)| PairOp::Sweep { client, from }),
            1 => Just(PairOp::Restore),
        ]
    }

    /// The structural invariants of the bookkeeping: each client's ids
    /// strictly ascending, every id filed once and below the counter, no
    /// empty entry, and the index filing exactly the filed pairs, each
    /// under its own key.
    fn check_structure(st: &ControlState) -> Result<(), TestCaseError> {
        let mut seen = std::collections::BTreeSet::new();
        for (shard, clients) in st.installed.iter().enumerate() {
            for (client, pairs) in clients {
                let ids: Vec<PairId> = pairs.iter().map(|&(id, _)| id).collect();
                prop_assert!(!ids.is_empty(), "an empty entry is dropped");
                prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids ascend: {:?}", ids);
                for id in ids {
                    prop_assert!(seen.insert(id), "{:?} is filed once", id);
                    prop_assert!(id < st.next_pair, "{:?} came from the counter", id);
                }
                for (id, pair) in pairs {
                    let key = FwdKey::of(*client, IngressId(shard as u32), pair);
                    let indexed = st.fwd_index.get(&key).is_some_and(|ids| ids.iter().any(|i| i == *id));
                    prop_assert!(indexed, "{:?} is indexed under its forward flow", id);
                }
            }
        }
        let indexed: usize = st.fwd_index.values().map(|ids| ids.iter().count()).sum();
        prop_assert_eq!(indexed, seen.len(), "the index files every pair once");
        Ok(())
    }

    proptest! {
        /// After every event: the structural invariants hold; the index
        /// answers exactly what the scan answers, in the same order, for
        /// every key a `FLOW_REMOVED` could name; and a snapshot restores
        /// into a state that captures identically — ids and counter
        /// included.
        #[test]
        fn fwd_index_answers_what_the_scan_answers(
            ops in proptest::collection::vec(arb_pair_op(), 1..80),
        ) {
            let cfg = ControllerConfig::default();
            let mut st = ControlState::new(&cfg);
            for op in ops {
                match op {
                    PairOp::Add { client, ingress, fwd, priority, teardown } => {
                        let pair = InstalledPair {
                            fwd: flow(fwd_pool(client)[fwd].clone(), priority),
                            rev: flow(Match::any(), priority),
                            service: ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80),
                            cluster: None,
                            instance: None,
                            teardown_on_handover: teardown,
                        };
                        st.apply(JournalEvent::PairAdd {
                            client: client_ip(client),
                            ingress: IngressId(ingress),
                            pair,
                        });
                    }
                    PairOp::Remove { client, ingress, nth, stale } => {
                        let mut filed = Vec::new();
                        for (i, clients) in st.installed.iter().enumerate() {
                            for (c, pairs) in clients {
                                filed.extend(pairs.iter().map(|&(id, _)| (id, *c, IngressId(i as u32))));
                            }
                        }
                        filed.sort();
                        let (id, client, ingress) = match filed.len() {
                            n if n > 0 && !stale => filed[nth % n],
                            _ => (PairId(nth as u64), client_ip(client), IngressId(ingress)),
                        };
                        let removed = st.apply(JournalEvent::PairRemove { client, ingress, id }).removed;
                        prop_assert_eq!(removed.is_some(), filed.contains(&(id, client, ingress)));
                    }
                    PairOp::Sweep { client, from } => {
                        st.apply(JournalEvent::HandoverSweep {
                            client: client_ip(client),
                            from: IngressId(from),
                        });
                    }
                    PairOp::Restore => {
                        let mut restored = ControlState::new(&cfg);
                        restored.restore(&Snapshot::capture(&st));
                        st = restored;
                    }
                }
                check_structure(&st)?;
                for (client, ingress) in (0u8..3).flat_map(|c| [(c, 0), (c, 1)]) {
                    let (ip, ingress) = (client_ip(client), IngressId(ingress));
                    // Another client's matches too: they must find nothing.
                    for m in fwd_pool(client).iter().chain(&fwd_pool((client + 1) % 3)) {
                        for priority in PRIORITIES {
                            let same_flow =
                                |p: &InstalledPair| p.fwd.priority == priority && p.fwd.match_ == *m;
                            prop_assert_eq!(
                                st.pairs_with_fwd(ip, ingress, priority, m),
                                st.ids_where(ip, ingress, same_flow)
                            );
                        }
                    }
                }
                let snap = Snapshot::capture(&st);
                let mut restored = ControlState::new(&cfg);
                restored.restore(&snap);
                prop_assert_eq!(restored.next_pair, st.next_pair);
                prop_assert_eq!(Snapshot::capture(&restored).encode(), snap.encode());
            }
        }
    }

    #[test]
    fn default_config_is_off() {
        let c = JournalConfig::default();
        assert!(!c.enabled);
        assert_eq!(c.snapshot_every, 256);
    }

    #[test]
    fn disabled_journal_records_nothing() {
        let mut j = Journal::new(JournalConfig::default());
        j.record(JournalEvent::ScaleRestored {
            service: ServiceAddr {
                ip: Ipv4Addr::new(10, 0, 0, 1),
                port: 80,
            },
            cluster: 0,
        });
        assert_eq!(j.stats().appended, 0);
        assert_eq!(j.stats().tail_len, 0);
        assert!(!j.should_compact());
    }

    #[test]
    fn compaction_replaces_tail_with_snapshot() {
        let mut j = Journal::new(JournalConfig {
            enabled: true,
            snapshot_every: 2,
        });
        let svc = ServiceAddr {
            ip: Ipv4Addr::new(10, 0, 0, 1),
            port: 80,
        };
        j.record(JournalEvent::ScaledDown {
            service: svc,
            cluster: 0,
            at: SimTime::ZERO,
        });
        assert!(!j.should_compact());
        j.record(JournalEvent::ScaleRestored {
            service: svc,
            cluster: 0,
        });
        assert!(j.should_compact());
        j.compact(Snapshot::default());
        let s = j.stats();
        assert_eq!((s.tail_len, s.snapshots_taken, s.appended), (0, 1, 2));
    }

    #[test]
    fn rebuild_replays_scale_events_over_the_snapshot() {
        let cfg = ControllerConfig::default();
        let mut j = Journal::new(JournalConfig {
            enabled: true,
            snapshot_every: 1000,
        });
        let svc = ServiceAddr {
            ip: Ipv4Addr::new(10, 0, 0, 1),
            port: 80,
        };
        j.record(JournalEvent::ScaledDown {
            service: svc,
            cluster: 2,
            at: SimTime::from_secs(5),
        });
        j.record(JournalEvent::ClientSeen {
            client: Ipv4Addr::new(192, 168, 1, 9),
            ingress: IngressId(0),
            in_port: 4,
            at: SimTime::from_secs(6),
        });
        let (st, replayed, snap_entries) = j.rebuild(&cfg);
        assert_eq!((replayed, snap_entries), (2, 0));
        assert_eq!(
            st.scaled_down.get(&(svc, 2)).copied(),
            Some(SimTime::from_secs(5))
        );
        assert_eq!(
            st.clients.location(Ipv4Addr::new(192, 168, 1, 9)),
            Some((IngressId(0), 4))
        );
    }
}
