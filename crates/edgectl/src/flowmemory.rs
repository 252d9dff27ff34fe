//! The FlowMemory (Section V).
//!
//! The controller does not merely install flows in the switches — it
//! memorizes them. This allows the *switch* idle timeouts to stay low (small
//! TCAM tables) while the controller still remembers where a client↔service
//! pair was redirected, so repeat requests go to the same instance without
//! rescheduling. Memorized flows themselves carry an idle timeout; expiry
//! (a) drops stale entries and (b) reports services whose last flow is gone —
//! the trigger for automatic scale-down of idle edge services.
//!
//! Expiry runs on a [`TimerWheel`], so a sweep visits only entries actually
//! due instead of scanning the whole memory, and [`FlowMemory::next_expiry`]
//! is O(1). Idle refreshes ([`FlowMemory::lookup`] / [`FlowMemory::touch`])
//! are lazy: they update `last_used` without rescheduling; a sweep that
//! reaches a refreshed entry re-arms it instead of expiring it. Per-service
//! live counts are maintained incrementally, making the "service has zero
//! remaining flows" scale-down check O(1) per expired service.

use crate::cluster::InstanceAddr;
use desim::{Duration, FastMap, SimTime, TimerWheel};
use netsim::addr::Ipv4Addr;
use netsim::ServiceAddr;
use std::collections::BTreeSet;

/// Identifies one ingress switch (gNB) managed by the controller.
///
/// The seed deployment had a single ingress, so flows were keyed by
/// `(client, service)` alone. With multiple gNBs a client's redirect is
/// location-dependent — the same client↔service pair may need different
/// rewrite flows (and even a different instance) depending on which cell it
/// is attached to — so the ingress becomes part of the key. Ingress `0` is
/// the legacy single-switch identity.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct IngressId(pub u32);

impl IngressId {
    /// The legacy single-ingress identity.
    pub const DEFAULT: IngressId = IngressId(0);
}

/// Key: one client talking to one registered service through one ingress.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FlowKey {
    /// Ingress switch (gNB) the client is attached to.
    pub ingress: IngressId,
    /// Client IP.
    pub client_ip: Ipv4Addr,
    /// Registered service address.
    pub service: ServiceAddr,
}

/// A memorized redirect decision.
#[derive(Clone, Copy, Debug)]
pub struct MemorizedFlow {
    /// Where the flow is redirected.
    pub instance: InstanceAddr,
    /// Cluster serving it (index into the controller's cluster list).
    pub cluster: usize,
    /// Last time traffic (or a switch flow refresh) touched this entry.
    pub last_used: SimTime,
}

/// Plain counters over the memory's lifetime, read when a telemetry
/// snapshot is taken. Always maintained — a few integer increments on
/// controller-path (not switch-path) operations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowMemoryStats {
    /// Total [`FlowMemory::lookup`] calls.
    pub lookups: u64,
    /// Lookups that returned a live memorized flow.
    pub hits: u64,
    /// Entries reaped by expiry sweeps (stale-at-lookup entries count once,
    /// when the sweep removes them).
    pub expired: u64,
}

/// One FlowMemory mutation, as appended to the controller's write-ahead
/// journal (see [`crate::journal`]). Every bulk operation — client/service/
/// instance/cluster forgets, re-keys, expiry sweeps — decomposes into these
/// four leaves, so replaying the leaf stream rebuilds the memory exactly.
#[derive(Clone, Copy, Debug)]
pub enum FlowOp {
    /// An entry was inserted (or refreshed in place) at `at`.
    Memorize {
        /// The entry's key.
        key: FlowKey,
        /// Redirect target instance.
        instance: InstanceAddr,
        /// Redirect target cluster.
        cluster: usize,
        /// Insertion instant (`last_used` baseline).
        at: SimTime,
    },
    /// An entry's idle timer was refreshed at `at` (lookup hit or explicit
    /// touch).
    Touch {
        /// The refreshed entry.
        key: FlowKey,
        /// Refresh instant.
        at: SimTime,
    },
    /// An entry was removed (forget, bulk forget, re-key departure, or an
    /// expiry sweep reaping it).
    Forget {
        /// The removed entry.
        key: FlowKey,
    },
    /// An entry was re-targeted in place at `at` (migration flip).
    Repoint {
        /// The retargeted entry.
        key: FlowKey,
        /// New instance.
        instance: InstanceAddr,
        /// New cluster.
        cluster: usize,
        /// Flip instant (`last_used` refresh).
        at: SimTime,
    },
}

/// One per-ingress shard: the flows entering through a single gNB and
/// their expiry wheel. A fleet-scale controller fronts many ingress
/// switches; keying the hot structures by ingress keeps every per-packet
/// lookup and every expiry sweep O(one cell), not O(fleet).
#[derive(Default)]
struct Shard {
    flows: FastMap<FlowKey, MemorizedFlow>,
    /// Expiry wheel; a key's deadline is never later than its true expiry
    /// (refreshes are applied lazily at sweep time).
    wheel: TimerWheel<FlowKey>,
}

/// The controller-side flow memory with idle expiry, sharded by
/// [`IngressId`].
pub struct FlowMemory {
    /// Lifetime counters for telemetry.
    pub stats: FlowMemoryStats,
    idle_timeout: Duration,
    /// Per-ingress shards, indexed by `IngressId.0`; grown on demand.
    shards: Vec<Shard>,
    /// Total entries across all shards.
    len: usize,
    /// Live flow count per service **across all ingresses** (the instance
    /// serves every cell); an expiring service is a scale-down candidate
    /// exactly when its count reaches zero.
    per_service: FastMap<ServiceAddr, usize>,
    /// Recycled buffer for expiry sweeps so periodic ticks allocate nothing
    /// in the steady state.
    expiry_scratch: Vec<FlowKey>,
    /// Mutation log drained by the controller's journal; `None` (the
    /// default) keeps every mutator free of logging work.
    log: Option<Vec<FlowOp>>,
}

impl FlowMemory {
    /// Creates a memory whose entries expire after `idle_timeout` without
    /// traffic.
    pub fn new(idle_timeout: Duration) -> FlowMemory {
        FlowMemory {
            stats: FlowMemoryStats::default(),
            idle_timeout,
            shards: Vec::new(),
            len: 0,
            per_service: FastMap::default(),
            expiry_scratch: Vec::new(),
            log: None,
        }
    }

    /// The configured idle timeout.
    pub fn idle_timeout(&self) -> Duration {
        self.idle_timeout
    }

    /// Turns mutation logging on or off. Off (the default) keeps the
    /// mutators allocation- and branch-free for the no-journal path;
    /// turning it off discards any undrained ops.
    pub fn set_logging(&mut self, on: bool) {
        self.log = if on { Some(Vec::new()) } else { None };
    }

    /// Drains the mutation ops accumulated since the last drain. Empty when
    /// logging is off.
    pub fn take_ops(&mut self) -> Vec<FlowOp> {
        self.log.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Every live entry, sorted by `(ingress, client, service)` — the
    /// snapshot export. Stats and wheel internals are excluded: a restore
    /// re-arms each entry at `last_used + idle_timeout`, which is never
    /// later than the original wheel deadline, so sweep behaviour is
    /// preserved.
    pub fn export_entries(&self) -> Vec<(FlowKey, MemorizedFlow)> {
        let mut out: Vec<(FlowKey, MemorizedFlow)> = self
            .shards
            .iter()
            .flat_map(|s| s.flows.iter())
            .map(|(k, f)| (*k, *f))
            .collect();
        out.sort_by_key(|(k, _)| (k.ingress, k.client_ip, k.service));
        out
    }

    /// Rebuilds the memory from a snapshot export. Intended for a fresh,
    /// non-logging instance (journal replay); entries keep their recorded
    /// `last_used`.
    pub fn restore_entries(&mut self, entries: &[(FlowKey, MemorizedFlow)]) {
        for (k, f) in entries {
            self.memorize(*k, f.instance, f.cluster, f.last_used);
        }
    }

    /// Applies one logged mutation — the journal replay primitive. Call on
    /// a non-logging instance, or the replayed ops are re-logged.
    pub fn apply(&mut self, op: &FlowOp) {
        match *op {
            FlowOp::Memorize {
                key,
                instance,
                cluster,
                at,
            } => self.memorize(key, instance, cluster, at),
            FlowOp::Touch { key, at } => self.touch(key, at),
            FlowOp::Forget { key } => {
                self.remove(&key);
            }
            FlowOp::Repoint {
                key,
                instance,
                cluster,
                at,
            } => {
                self.repoint(&key, instance, cluster, at);
            }
        }
    }

    fn shard(&self, ingress: IngressId) -> Option<&Shard> {
        self.shards.get(ingress.0 as usize)
    }

    fn shard_mut(&mut self, ingress: IngressId) -> &mut Shard {
        let idx = ingress.0 as usize;
        if idx >= self.shards.len() {
            self.shards.resize_with(idx + 1, Shard::default);
        }
        &mut self.shards[idx]
    }

    /// Looks up a memorized flow, refreshing its idle timer on hit. Touches
    /// only the shard of `key.ingress`.
    pub fn lookup(&mut self, key: FlowKey, now: SimTime) -> Option<MemorizedFlow> {
        self.stats.lookups += 1;
        let idle = self.idle_timeout;
        let flow = self.shards.get_mut(key.ingress.0 as usize)?.flows.get_mut(&key)?;
        if now.saturating_since(flow.last_used) >= idle {
            // Already stale — treat as absent; `expire` will reap it.
            return None;
        }
        flow.last_used = now;
        let hit = *flow;
        self.stats.hits += 1;
        if let Some(log) = &mut self.log {
            log.push(FlowOp::Touch { key, at: now });
        }
        Some(hit)
    }

    /// Memorizes (or refreshes) a redirect decision.
    pub fn memorize(&mut self, key: FlowKey, instance: InstanceAddr, cluster: usize, now: SimTime) {
        let deadline = now + self.idle_timeout;
        let shard = self.shard_mut(key.ingress);
        let prev = shard.flows.insert(
            key,
            MemorizedFlow {
                instance,
                cluster,
                last_used: now,
            },
        );
        shard.wheel.schedule(key, deadline);
        if prev.is_none() {
            self.len += 1;
            *self.per_service.entry(key.service).or_insert(0) += 1;
        }
        if let Some(log) = &mut self.log {
            log.push(FlowOp::Memorize {
                key,
                instance,
                cluster,
                at: now,
            });
        }
    }

    /// Refreshes the idle timer (e.g. when the switch reports traffic via a
    /// flow-removed + reinstall cycle).
    pub fn touch(&mut self, key: FlowKey, now: SimTime) {
        if let Some(shard) = self.shards.get_mut(key.ingress.0 as usize) {
            if let Some(f) = shard.flows.get_mut(&key) {
                f.last_used = now;
                if let Some(log) = &mut self.log {
                    log.push(FlowOp::Touch { key, at: now });
                }
            }
        }
    }

    /// Unfiles `key` from its shard, the count and the wheel; `true` if it
    /// was present.
    fn remove(&mut self, key: &FlowKey) -> bool {
        let Some(shard) = self.shards.get_mut(key.ingress.0 as usize) else {
            return false;
        };
        if shard.flows.remove(key).is_none() {
            return false;
        }
        shard.wheel.cancel(key);
        self.len -= 1;
        let n = self.per_service.get_mut(&key.service).expect("service count");
        *n -= 1;
        if *n == 0 {
            self.per_service.remove(&key.service);
        }
        if let Some(log) = &mut self.log {
            log.push(FlowOp::Forget { key: *key });
        }
        true
    }

    /// Unfiles one exact key; `true` if it was present. The public face of
    /// [`remove`](Self::remove) for handover code that retires a single
    /// migrated entry.
    pub fn forget(&mut self, key: &FlowKey) -> bool {
        self.remove(key)
    }

    /// All live flows of `client` at `ingress`, sorted by service address so
    /// callers iterate deterministically regardless of hash-map order. Scans
    /// one shard — a handover touches the cells involved, never the fleet.
    pub fn flows_of_client_at(
        &self,
        client: Ipv4Addr,
        ingress: IngressId,
    ) -> Vec<(FlowKey, MemorizedFlow)> {
        let mut out = Vec::new();
        self.flows_of_client_at_into(client, ingress, &mut out);
        out
    }

    /// [`FlowMemory::flows_of_client_at`], appended to `out` — the handover
    /// passes a buffer it recycles.
    pub fn flows_of_client_at_into(
        &self,
        client: Ipv4Addr,
        ingress: IngressId,
        out: &mut Vec<(FlowKey, MemorizedFlow)>,
    ) {
        let Some(shard) = self.shard(ingress) else {
            return;
        };
        let start = out.len();
        let mine = shard.flows.iter().filter(|(k, _)| k.client_ip == client);
        out.extend(mine.map(|(k, f)| (*k, *f)));
        // One entry per service here, so the unstable sort is exact.
        out[start..].sort_unstable_by_key(|(k, _)| k.service);
    }

    /// Migrates one entry to a new ingress, preserving its instance and
    /// refreshing its idle timer (the handover itself is traffic). Returns
    /// `false` if the entry does not exist (already expired mid-handover).
    pub fn rekey(&mut self, key: &FlowKey, to: IngressId, now: SimTime) -> bool {
        if key.ingress == to {
            self.touch(*key, now);
            return self
                .shard(key.ingress)
                .is_some_and(|s| s.flows.contains_key(key));
        }
        let Some(flow) = self.shard(key.ingress).and_then(|s| s.flows.get(key)).copied() else {
            return false;
        };
        self.remove(key);
        let new_key = FlowKey { ingress: to, ..*key };
        self.memorize(new_key, flow.instance, flow.cluster, now);
        true
    }

    /// Forgets all flows of `client` on **every** ingress (e.g. when the
    /// client disappears entirely; a moving client's flows are
    /// [`rekey`](Self::rekey)ed instead so its sessions survive).
    pub fn forget_client(&mut self, client: Ipv4Addr) -> usize {
        let victims: Vec<FlowKey> = self
            .shards
            .iter()
            .flat_map(|s| s.flows.keys())
            .filter(|k| k.client_ip == client)
            .copied()
            .collect();
        victims.iter().filter(|k| self.remove(k)).count()
    }

    /// Forgets all flows toward `service` (e.g. after its instance moved).
    pub fn forget_service(&mut self, service: ServiceAddr) -> usize {
        let victims: Vec<FlowKey> = self
            .shards
            .iter()
            .flat_map(|s| s.flows.keys())
            .filter(|k| k.service == service)
            .copied()
            .collect();
        victims.iter().filter(|k| self.remove(k)).count()
    }

    /// Forgets every flow redirected at `instance` — the stale-redirect
    /// repair primitive: after a Ready instance crashes, no lookup may ever
    /// return its address again. Returns the removed entries, sorted by
    /// `(client, ingress, service)` so callers tear down the matching switch
    /// flows deterministically.
    pub fn forget_instance(&mut self, instance: InstanceAddr) -> Vec<(FlowKey, MemorizedFlow)> {
        let mut victims: Vec<(FlowKey, MemorizedFlow)> = self
            .shards
            .iter()
            .flat_map(|s| s.flows.iter())
            .filter(|(_, f)| f.instance == instance)
            .map(|(k, f)| (*k, *f))
            .collect();
        victims.sort_by_key(|(k, _)| (k.client_ip, k.ingress, k.service));
        for (k, _) in &victims {
            self.remove(k);
        }
        victims
    }

    /// Forgets every flow served by cluster index `cluster` — the zone-outage
    /// repair primitive. Returns the removed entries, sorted like
    /// [`forget_instance`](Self::forget_instance).
    pub fn forget_cluster(&mut self, cluster: usize) -> Vec<(FlowKey, MemorizedFlow)> {
        let mut victims: Vec<(FlowKey, MemorizedFlow)> = self
            .shards
            .iter()
            .flat_map(|s| s.flows.iter())
            .filter(|(_, f)| f.cluster == cluster)
            .map(|(k, f)| (*k, *f))
            .collect();
        victims.sort_by_key(|(k, _)| (k.client_ip, k.ingress, k.service));
        for (k, _) in &victims {
            self.remove(k);
        }
        victims
    }

    /// All live flows redirected at `(service, cluster)`, sorted by
    /// `(client, ingress)` — the work list of a migration flow flip. Scans
    /// every shard: the clients of one instance may enter anywhere.
    pub fn entries_at(
        &self,
        service: ServiceAddr,
        cluster: usize,
    ) -> Vec<(FlowKey, MemorizedFlow)> {
        let mut out: Vec<(FlowKey, MemorizedFlow)> = self
            .shards
            .iter()
            .flat_map(|s| s.flows.iter())
            .filter(|(k, f)| k.service == service && f.cluster == cluster)
            .map(|(k, f)| (*k, *f))
            .collect();
        out.sort_by_key(|(k, _)| (k.client_ip, k.ingress));
        out
    }

    /// Re-targets one entry at a new `(instance, cluster)` in place,
    /// refreshing its idle timer — the migration flip primitive: unlike
    /// [`rekey`](Self::rekey) the key (client + ingress) is unchanged, only
    /// where the flow points moves. Returns `false` if the entry is gone
    /// (expired mid-transfer).
    pub fn repoint(
        &mut self,
        key: &FlowKey,
        instance: InstanceAddr,
        cluster: usize,
        now: SimTime,
    ) -> bool {
        let Some(flow) = self
            .shards
            .get_mut(key.ingress.0 as usize)
            .and_then(|s| s.flows.get_mut(key))
        else {
            return false;
        };
        flow.instance = instance;
        flow.cluster = cluster;
        flow.last_used = now;
        if let Some(log) = &mut self.log {
            log.push(FlowOp::Repoint {
                key: *key,
                instance,
                cluster,
                at: now,
            });
        }
        true
    }

    /// The distinct `(cluster, instance, service)` triples currently
    /// memorized, sorted — the health sweep's work list: every instance that
    /// appears here has at least one client actively redirected at it, so a
    /// crash of that instance strands real traffic until repaired.
    pub fn instances(&self) -> Vec<(usize, InstanceAddr, ServiceAddr)> {
        let mut out: BTreeSet<(usize, InstanceAddr, ServiceAddr)> = BTreeSet::new();
        for shard in &self.shards {
            for (k, f) in &shard.flows {
                out.insert((f.cluster, f.instance, k.service));
            }
        }
        out.into_iter().collect()
    }

    /// Removes expired entries; returns the services that now have **zero**
    /// remaining flows (candidates for scale-down) along with the cluster
    /// that served them, one report per distinct `(service, cluster)` pair,
    /// in sorted order. A service whose flows expired on several clusters in
    /// the same sweep is reported once *per cluster* — each cluster's
    /// instance is independently idle.
    pub fn expire(&mut self, now: SimTime) -> Vec<(ServiceAddr, usize)> {
        let timeout = self.idle_timeout;
        let mut expired: BTreeSet<(ServiceAddr, usize)> = BTreeSet::new();
        let mut due = std::mem::take(&mut self.expiry_scratch);
        // Sweep shard by shard: a wheel with nothing due costs O(1) to ask,
        // so a quiet cell adds nothing to the sweep even at fleet scale.
        for idx in 0..self.shards.len() {
            due.clear();
            self.shards[idx].wheel.expired_into(now, &mut due);
            for key in due.drain(..) {
                let f = self.shards[idx].flows[&key];
                if now.saturating_since(f.last_used) >= timeout {
                    self.remove(&key);
                    self.stats.expired += 1;
                    expired.insert((key.service, f.cluster));
                } else {
                    // Refreshed since its deadline was set: re-arm.
                    self.shards[idx].wheel.schedule(key, f.last_used + timeout);
                }
            }
        }
        self.expiry_scratch = due;
        expired
            .into_iter()
            .filter(|(svc, _)| !self.per_service.contains_key(svc))
            .collect()
    }

    /// Number of live flows toward `service`.
    pub fn flows_for(&self, service: ServiceAddr) -> usize {
        self.per_service.get(&service).copied().unwrap_or(0)
    }

    /// Total memorized flows across all shards.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no flows are memorized.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The earliest instant any entry could expire: a lower bound that costs
    /// one constant-time wheel query per shard (exact when no entry was
    /// refreshed since it was scheduled); `None` iff the memory is empty. An
    /// early sweep is harmless — it re-arms refreshed entries and tightens
    /// the bound.
    pub fn next_expiry(&self) -> Option<SimTime> {
        self.shards.iter().filter_map(|s| s.wheel.next_deadline()).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::addr::MacAddr;

    fn key(client: u8, port: u16) -> FlowKey {
        key_at(0, client, port)
    }

    fn key_at(ingress: u32, client: u8, port: u16) -> FlowKey {
        FlowKey {
            ingress: IngressId(ingress),
            client_ip: Ipv4Addr::new(192, 168, 1, client),
            service: ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), port),
        }
    }

    fn inst(port: u16) -> InstanceAddr {
        InstanceAddr {
            mac: MacAddr::from_id(9),
            ip: Ipv4Addr::new(10, 0, 0, 5),
            port,
        }
    }

    #[test]
    fn memorize_lookup_touch() {
        let mut m = FlowMemory::new(Duration::from_secs(10));
        let k = key(20, 80);
        assert!(m.lookup(k, SimTime::ZERO).is_none());
        m.memorize(k, inst(31000), 0, SimTime::ZERO);
        let f = m.lookup(k, SimTime::from_secs(5)).unwrap();
        assert_eq!(f.instance.port, 31000);
        assert_eq!(f.cluster, 0);
        // Lookup refreshed the timer: still alive at t=14.
        assert!(m.lookup(k, SimTime::from_secs(14)).is_some());
    }

    #[test]
    fn repoint_moves_target_not_key() {
        let mut m = FlowMemory::new(Duration::from_secs(10));
        let k = key_at(2, 20, 80);
        m.memorize(k, inst(31000), 0, SimTime::ZERO);
        let moved = InstanceAddr {
            mac: MacAddr::from_id(4),
            ip: Ipv4Addr::new(10, 0, 1, 5),
            port: 31007,
        };
        assert!(m.repoint(&k, moved, 1, SimTime::from_secs(9)));
        let f = m.lookup(k, SimTime::from_secs(15)).expect("timer refreshed");
        assert_eq!((f.instance, f.cluster), (moved, 1));
        assert_eq!(m.len(), 1, "repoint never creates or drops entries");
        assert_eq!(m.flows_for(k.service), 1);
        // Absent keys report failure instead of materializing entries.
        assert!(!m.repoint(&key_at(0, 9, 80), moved, 1, SimTime::ZERO));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn entries_at_lists_one_clusters_flows_sorted() {
        let mut m = FlowMemory::new(Duration::from_secs(100));
        m.memorize(key_at(1, 30, 80), inst(1), 0, SimTime::ZERO);
        m.memorize(key_at(0, 20, 80), inst(1), 0, SimTime::ZERO);
        m.memorize(key_at(2, 21, 80), inst(2), 1, SimTime::ZERO);
        m.memorize(key_at(0, 20, 81), inst(1), 0, SimTime::ZERO);
        let at0 = m.entries_at(key(20, 80).service, 0);
        let clients: Vec<u8> = at0.iter().map(|(k, _)| k.client_ip.octets()[3]).collect();
        assert_eq!(clients, vec![20, 30], "sorted by client, one service+cluster only");
        assert!(m.entries_at(key(20, 80).service, 5).is_empty());
    }

    #[test]
    fn stale_entries_do_not_hit() {
        let mut m = FlowMemory::new(Duration::from_secs(10));
        let k = key(20, 80);
        m.memorize(k, inst(1), 0, SimTime::ZERO);
        assert!(m.lookup(k, SimTime::from_secs(10)).is_none());
    }

    #[test]
    fn expire_reports_idle_services_once_empty() {
        let mut m = FlowMemory::new(Duration::from_secs(10));
        // Two clients on service :80, one on :81.
        m.memorize(key(20, 80), inst(1), 0, SimTime::ZERO);
        m.memorize(key(21, 80), inst(1), 0, SimTime::from_secs(8));
        m.memorize(key(22, 81), inst(2), 1, SimTime::ZERO);

        // t=10: client 20's flow and :81's flow expire; :80 still has client
        // 21, so only :81 is reported idle.
        let idle = m.expire(SimTime::from_secs(10));
        assert_eq!(idle, vec![(ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 81), 1)]);
        assert_eq!(m.flows_for(key(20, 80).service), 1);

        // t=18: the last :80 flow expires too.
        let idle = m.expire(SimTime::from_secs(18));
        assert_eq!(idle.len(), 1);
        assert_eq!(idle[0].0.port, 80);
        assert!(m.is_empty());
    }

    /// Regression: one sweep expiring the last flows of the *same* service
    /// on two *different* clusters must report both `(service, cluster)`
    /// pairs — each cluster's instance is independently idle. The seed's
    /// sort-by-service + adjacent-dedup reporting could drop or duplicate
    /// pairs here; the `BTreeSet` makes the report exact and sorted.
    #[test]
    fn same_service_on_two_clusters_reports_both() {
        let mut m = FlowMemory::new(Duration::from_secs(10));
        let svc = key(20, 80).service;
        m.memorize(key(20, 80), inst(1), 0, SimTime::ZERO);
        m.memorize(key(21, 80), inst(2), 1, SimTime::ZERO);
        // A duplicate on cluster 1 must not yield a duplicate report.
        m.memorize(key(22, 80), inst(2), 1, SimTime::ZERO);
        let idle = m.expire(SimTime::from_secs(10));
        assert_eq!(idle, vec![(svc, 0), (svc, 1)]);
        assert!(m.is_empty());
    }

    #[test]
    fn refreshed_entry_survives_its_original_deadline() {
        let mut m = FlowMemory::new(Duration::from_secs(10));
        let k = key(20, 80);
        m.memorize(k, inst(1), 0, SimTime::ZERO);
        assert!(m.lookup(k, SimTime::from_secs(6)).is_some()); // refresh
        assert!(m.expire(SimTime::from_secs(10)).is_empty(), "re-armed, not expired");
        assert_eq!(m.len(), 1);
        // The re-armed deadline is exact again.
        assert_eq!(m.next_expiry(), Some(SimTime::from_secs(16)));
        let idle = m.expire(SimTime::from_secs(16));
        assert_eq!(idle.len(), 1);
    }

    #[test]
    fn forget_service_drops_all_its_flows() {
        let mut m = FlowMemory::new(Duration::from_secs(10));
        m.memorize(key(20, 80), inst(1), 0, SimTime::ZERO);
        m.memorize(key(21, 80), inst(1), 0, SimTime::ZERO);
        m.memorize(key(21, 81), inst(2), 0, SimTime::ZERO);
        assert_eq!(m.forget_service(key(20, 80).service), 2);
        assert_eq!(m.len(), 1);
        assert_eq!(m.flows_for(key(20, 80).service), 0);
        assert_eq!(m.flows_for(key(21, 81).service), 1);
    }

    #[test]
    fn forget_client_drops_and_counts() {
        let mut m = FlowMemory::new(Duration::from_secs(10));
        m.memorize(key(20, 80), inst(1), 0, SimTime::ZERO);
        m.memorize(key(20, 81), inst(2), 1, SimTime::ZERO);
        m.memorize(key(21, 80), inst(1), 0, SimTime::ZERO);
        assert_eq!(m.forget_client(Ipv4Addr::new(192, 168, 1, 20)), 2);
        assert_eq!(m.len(), 1);
        // The forgotten entries' wheel deadlines are cancelled: a sweep at
        // their old deadline expires only the remaining flow.
        let idle = m.expire(SimTime::from_secs(10));
        assert_eq!(idle, vec![(key(21, 80).service, 0)]);
    }

    #[test]
    fn stats_count_lookups_hits_and_expiry() {
        let mut m = FlowMemory::new(Duration::from_secs(10));
        let k = key(20, 80);
        assert!(m.lookup(k, SimTime::ZERO).is_none()); // miss
        m.memorize(k, inst(1), 0, SimTime::ZERO);
        assert!(m.lookup(k, SimTime::from_secs(1)).is_some()); // hit
        assert!(m.lookup(k, SimTime::from_secs(11)).is_none()); // stale miss
        m.expire(SimTime::from_secs(30));
        assert_eq!(
            m.stats,
            FlowMemoryStats {
                lookups: 3,
                hits: 1,
                expired: 1
            }
        );
    }

    #[test]
    fn same_pair_on_two_ingresses_are_distinct_flows() {
        let mut m = FlowMemory::new(Duration::from_secs(10));
        m.memorize(key_at(0, 20, 80), inst(1), 0, SimTime::ZERO);
        m.memorize(key_at(1, 20, 80), inst(2), 1, SimTime::ZERO);
        assert_eq!(m.len(), 2);
        assert_eq!(m.lookup(key_at(0, 20, 80), SimTime::from_secs(1)).unwrap().cluster, 0);
        assert_eq!(m.lookup(key_at(1, 20, 80), SimTime::from_secs(1)).unwrap().cluster, 1);
        // Service count aggregates across ingresses (the instance serves both).
        assert_eq!(m.flows_for(key(20, 80).service), 2);
    }

    #[test]
    fn rekey_moves_entry_and_refreshes_timer() {
        let mut m = FlowMemory::new(Duration::from_secs(10));
        let old = key_at(0, 20, 80);
        m.memorize(old, inst(31000), 2, SimTime::ZERO);
        assert!(m.rekey(&old, IngressId(3), SimTime::from_secs(6)));
        assert!(m.lookup(old, SimTime::from_secs(7)).is_none(), "old key gone");
        let moved = m.lookup(key_at(3, 20, 80), SimTime::from_secs(7)).unwrap();
        assert_eq!((moved.instance.port, moved.cluster), (31000, 2));
        // Timer restarted at the rekey instant: alive past the original
        // deadline, and exactly one service remains filed.
        assert!(m.expire(SimTime::from_secs(10)).is_empty());
        assert_eq!(m.len(), 1);
        assert!(!m.rekey(&old, IngressId(4), SimTime::from_secs(8)), "already moved");
    }

    #[test]
    fn forget_client_spans_all_ingresses() {
        let mut m = FlowMemory::new(Duration::from_secs(10));
        m.memorize(key_at(0, 20, 80), inst(1), 0, SimTime::ZERO);
        m.memorize(key_at(1, 20, 81), inst(2), 1, SimTime::ZERO);
        m.memorize(key_at(1, 21, 80), inst(1), 0, SimTime::ZERO);
        assert_eq!(m.forget_client(Ipv4Addr::new(192, 168, 1, 20)), 2);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn forget_instance_removes_exactly_its_flows_sorted() {
        let mut m = FlowMemory::new(Duration::from_secs(10));
        m.memorize(key_at(1, 21, 80), inst(1), 0, SimTime::ZERO);
        m.memorize(key_at(0, 20, 80), inst(1), 0, SimTime::ZERO);
        m.memorize(key_at(0, 20, 81), inst(2), 1, SimTime::ZERO);
        let removed = m.forget_instance(inst(1));
        assert_eq!(removed.len(), 2);
        // Sorted by (client, ingress, service) for deterministic teardown.
        assert!(removed[0].0.client_ip < removed[1].0.client_ip);
        assert_eq!(m.len(), 1);
        // The invariant the repair loop relies on: the dead instance's
        // address is never returned again.
        assert!(m.lookup(key_at(0, 20, 80), SimTime::from_secs(1)).is_none());
        assert!(m.lookup(key_at(1, 21, 80), SimTime::from_secs(1)).is_none());
        assert_eq!(m.flows_for(key(20, 80).service), 0, "both :80 flows were its");
        assert_eq!(m.flows_for(key(20, 81).service), 1);
        // Cancelled wheel deadlines: a sweep expires only the survivor.
        let idle = m.expire(SimTime::from_secs(10));
        assert_eq!(idle, vec![(key(20, 81).service, 1)]);
    }

    #[test]
    fn forget_cluster_removes_every_zone_flow() {
        let mut m = FlowMemory::new(Duration::from_secs(10));
        m.memorize(key_at(0, 20, 80), inst(1), 0, SimTime::ZERO);
        m.memorize(key_at(0, 21, 81), inst(2), 0, SimTime::ZERO);
        m.memorize(key_at(1, 22, 80), inst(3), 2, SimTime::ZERO);
        let removed = m.forget_cluster(0);
        assert_eq!(removed.len(), 2);
        assert_eq!(m.len(), 1);
        assert_eq!(m.lookup(key_at(1, 22, 80), SimTime::from_secs(1)).unwrap().cluster, 2);
    }

    #[test]
    fn instances_lists_distinct_triples_sorted() {
        let mut m = FlowMemory::new(Duration::from_secs(10));
        m.memorize(key_at(0, 20, 80), inst(2), 1, SimTime::ZERO);
        m.memorize(key_at(1, 21, 80), inst(2), 1, SimTime::ZERO); // duplicate triple
        m.memorize(key_at(0, 22, 81), inst(1), 0, SimTime::ZERO);
        let list = m.instances();
        assert_eq!(list.len(), 2);
        assert_eq!(list[0], (0, inst(1), key(22, 81).service));
        assert_eq!(list[1], (1, inst(2), key(20, 80).service));
        m.forget_instance(inst(2));
        assert_eq!(m.instances().len(), 1);
    }

    #[test]
    fn next_expiry_is_earliest() {
        let mut m = FlowMemory::new(Duration::from_secs(10));
        assert!(m.next_expiry().is_none());
        m.memorize(key(20, 80), inst(1), 0, SimTime::from_secs(2));
        m.memorize(key(21, 80), inst(1), 0, SimTime::from_secs(1));
        assert_eq!(m.next_expiry(), Some(SimTime::from_secs(11)));
    }
}
