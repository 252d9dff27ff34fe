//! Per-instance queueing and horizontal autoscaling.
//!
//! The paper deploys exactly one instance per service and its Global
//! Scheduler only decides *where* a service runs — overload is invisible.
//! This module gives every deployed instance a deterministic queueing model
//! (fixed service time, a concurrency limit, a bounded backlog with
//! rejection) so overload becomes observable state, and a sim-time
//! autoscaler that flexes a service's replica count on queue depth and
//! utilization with hysteresis and cooldown.
//!
//! Everything here is deterministic: admissions use FIFO arithmetic over
//! recorded finish times (no sampling), and the autoscaler sweep iterates
//! pools in sorted key order. With [`AutoscaleConfig::enabled`] left `false`
//! (the default) the tracker is never consulted and every committed figure
//! stays byte-identical.
//!
//! Replica addressing: replica 0 *is* the cluster's real instance address;
//! replica `i > 0` reuses its MAC and IP with port `base + 131·i`. Service
//! bases are spaced by less than 131 ports and `131·(i−j) = ±1` has no
//! integer solution, so synthetic replica addresses never collide with a
//! base or with each other.

use crate::cluster::InstanceAddr;
use crate::scheduler::InstanceView;
use desim::{Duration, SimTime};
use netsim::ServiceAddr;
use std::collections::HashMap;
use std::collections::VecDeque;

/// Port stride between synthetic replica addresses of one pool.
const REPLICA_PORT_STRIDE: u16 = 131;

/// The queueing model every instance runs: deterministic service time, a
/// concurrency limit, and a bounded backlog.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueueConfig {
    /// How long one request occupies a service slot.
    pub service_time: Duration,
    /// Requests served simultaneously.
    pub concurrency: usize,
    /// Requests that may wait behind the concurrency limit before the
    /// instance starts rejecting.
    pub backlog: usize,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            service_time: Duration::from_millis(20),
            concurrency: 4,
            backlog: 8,
        }
    }
}

/// What happened to one admission attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// The request holds a slot: service starts at `start` (now, unless it
    /// queued) and the answer is ready at `finish`.
    Served {
        /// When a service slot frees up for this request.
        start: SimTime,
        /// `start + service_time`.
        finish: SimTime,
    },
    /// Concurrency and backlog are both full — the request is turned away
    /// (the dispatcher sends it to the cloud).
    Rejected,
}

/// One instance's deterministic FIFO queue, tracked as the sorted finish
/// times of its admitted requests.
#[derive(Clone, Debug)]
pub struct InstanceQueue {
    cfg: QueueConfig,
    finish_times: VecDeque<SimTime>,
    ewma_ns: f64,
    served: u64,
    rejected: u64,
}

impl InstanceQueue {
    /// An empty queue under `cfg`.
    pub fn new(cfg: QueueConfig) -> InstanceQueue {
        InstanceQueue {
            cfg,
            finish_times: VecDeque::new(),
            ewma_ns: 0.0,
            served: 0,
            rejected: 0,
        }
    }

    /// Offers one request at `now`: FIFO admission against the concurrency
    /// limit and bounded backlog. Deterministic — the start instant is pure
    /// arithmetic over previously recorded finish times.
    pub fn offer(&mut self, now: SimTime) -> Admission {
        while self.finish_times.front().is_some_and(|&t| t <= now) {
            self.finish_times.pop_front();
        }
        let depth = self.finish_times.len();
        if depth >= self.cfg.concurrency + self.cfg.backlog {
            self.rejected += 1;
            return Admission::Rejected;
        }
        let start = if depth < self.cfg.concurrency {
            now
        } else {
            // FIFO: this request takes the slot freed by the job finishing
            // `concurrency` positions ahead of it.
            self.finish_times[depth - self.cfg.concurrency]
        };
        let finish = start + self.cfg.service_time;
        self.finish_times.push_back(finish);
        let sojourn = finish.saturating_since(now);
        self.ewma_ns = if self.served == 0 {
            sojourn.as_nanos() as f64
        } else {
            0.2 * sojourn.as_nanos() as f64 + 0.8 * self.ewma_ns
        };
        self.served += 1;
        Admission::Served { start, finish }
    }

    /// Jobs still occupying the queue (in service or waiting) at `now`,
    /// without mutating state.
    fn occupancy(&self, now: SimTime) -> usize {
        self.finish_times.iter().filter(|&&t| t > now).count()
    }

    /// The queue's observable state at `now` as the scheduler sees it.
    pub fn view(&self, instance: usize, now: SimTime) -> InstanceView {
        let depth = self.occupancy(now);
        let in_flight = depth.min(self.cfg.concurrency);
        InstanceView {
            instance,
            in_flight,
            backlog: depth - in_flight,
            concurrency: self.cfg.concurrency,
            utilization: in_flight as f64 / self.cfg.concurrency.max(1) as f64,
            ewma_latency: Duration::from_nanos(self.ewma_ns as u64),
        }
    }

    /// Requests admitted so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Requests turned away so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }
}

/// The replica set one (service, cluster) pair runs: per-replica queues
/// plus the address arithmetic and replica-time cost accounting.
#[derive(Clone, Debug)]
pub struct ServicePool {
    base: InstanceAddr,
    queues: Vec<InstanceQueue>,
    last_scale: SimTime,
    replica_seconds: f64,
    accounted_to: SimTime,
}

impl ServicePool {
    fn new(base: InstanceAddr, replicas: usize, queue: QueueConfig, now: SimTime) -> ServicePool {
        ServicePool {
            base,
            queues: vec![InstanceQueue::new(queue); replicas.max(1)],
            last_scale: now,
            replica_seconds: 0.0,
            accounted_to: now,
        }
    }

    /// Current replica count.
    pub fn replicas(&self) -> usize {
        self.queues.len()
    }

    /// The address replica `i` answers on (see the module docs for the
    /// collision-freedom argument).
    pub fn addr(&self, instance: usize) -> InstanceAddr {
        if instance == 0 {
            self.base
        } else {
            InstanceAddr {
                mac: self.base.mac,
                ip: self.base.ip,
                port: self.base.port + REPLICA_PORT_STRIDE * instance as u16,
            }
        }
    }

    /// Maps an address back to its replica index, if this pool owns it.
    pub fn index_of(&self, addr: InstanceAddr) -> Option<usize> {
        if addr.mac != self.base.mac || addr.ip != self.base.ip {
            return None;
        }
        let off = addr.port.checked_sub(self.base.port)?;
        if off % REPLICA_PORT_STRIDE != 0 {
            return None;
        }
        let i = (off / REPLICA_PORT_STRIDE) as usize;
        (i < self.queues.len()).then_some(i)
    }

    fn accrue(&mut self, now: SimTime) {
        self.replica_seconds +=
            self.queues.len() as f64 * now.saturating_since(self.accounted_to).as_secs_f64();
        self.accounted_to = now;
    }

    fn mean_utilization(&self, now: SimTime) -> f64 {
        let n = self.queues.len().max(1) as f64;
        self.queues.iter().enumerate().map(|(i, q)| q.view(i, now).utilization).sum::<f64>() / n
    }

    fn total_backlog(&self, now: SimTime) -> usize {
        self.queues.iter().enumerate().map(|(i, q)| q.view(i, now).backlog).sum()
    }
}

/// When and how far the autoscaler flexes each service's replica count.
#[derive(Clone, Debug, PartialEq)]
pub struct AutoscaleConfig {
    /// Master switch. `false` (the default) keeps the tracker entirely out
    /// of the dispatch path — committed figures stay byte-identical.
    pub enabled: bool,
    /// Floor on replicas per (service, cluster).
    pub min_replicas: usize,
    /// Ceiling on replicas per (service, cluster).
    pub max_replicas: usize,
    /// Scale up when mean utilization exceeds this fraction.
    pub scale_up_utilization: f64,
    /// Scale down only when mean utilization is below this fraction —
    /// the gap to `scale_up_utilization` is the hysteresis band.
    pub scale_down_utilization: f64,
    /// Scale up when the pool's total backlog reaches this many requests
    /// even if utilization looks fine (bursts queue faster than they busy).
    pub scale_up_backlog: usize,
    /// Minimum time between scale operations on one pool.
    pub cooldown: Duration,
    /// How often the controller runs the autoscaler sweep.
    pub sweep_interval: Duration,
    /// The queue model every replica runs.
    pub queue: QueueConfig,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            enabled: false,
            min_replicas: 1,
            max_replicas: 4,
            scale_up_utilization: 0.8,
            scale_down_utilization: 0.2,
            scale_up_backlog: 4,
            cooldown: Duration::from_secs(5),
            sweep_interval: Duration::from_secs(1),
            queue: QueueConfig::default(),
        }
    }
}

/// Tracks every (service, cluster) replica pool: admissions, queue state
/// for the scheduler, the autoscaler sweep, and replica-time cost.
#[derive(Debug, Default)]
pub struct LoadTracker {
    cfg: AutoscaleConfig,
    pools: HashMap<(ServiceAddr, usize), ServicePool>,
    last_sweep: SimTime,
    retired_replica_seconds: f64,
    admissions: u64,
    rejections: u64,
    scale_ups: u64,
    scale_downs: u64,
}

impl LoadTracker {
    /// A tracker under `cfg`.
    pub fn new(cfg: AutoscaleConfig) -> LoadTracker {
        LoadTracker { cfg, ..LoadTracker::default() }
    }

    /// Whether instance tracking (and thus autoscaling) is on at all.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// The active configuration.
    pub fn config(&self) -> &AutoscaleConfig {
        &self.cfg
    }

    /// Replaces the configuration (controller construction time only).
    pub fn set_config(&mut self, cfg: AutoscaleConfig) {
        self.cfg = cfg;
    }

    /// Ensures a pool exists for `(service, cluster)` anchored at `base`.
    /// If the service was redeployed on a different base address (scale-down
    /// then re-create), the stale pool is replaced.
    pub fn ensure_pool(
        &mut self,
        service: ServiceAddr,
        cluster: usize,
        base: InstanceAddr,
        now: SimTime,
    ) {
        let min = self.cfg.min_replicas;
        let queue = self.cfg.queue;
        let pool = self
            .pools
            .entry((service, cluster))
            .or_insert_with(|| ServicePool::new(base, min, queue, now));
        if pool.base != base {
            let mut fresh = ServicePool::new(base, min, queue, now);
            std::mem::swap(pool, &mut fresh);
            fresh.accrue(now);
            self.retired_replica_seconds += fresh.replica_seconds;
        }
    }

    /// The pool for `(service, cluster)`, if one exists.
    pub fn pool(&self, service: ServiceAddr, cluster: usize) -> Option<&ServicePool> {
        self.pools.get(&(service, cluster))
    }

    /// Per-replica queue state for the scheduler's [`ClusterView`]
    /// (`crate::scheduler::ClusterView::instances`).
    pub fn views(&self, service: ServiceAddr, cluster: usize, now: SimTime) -> Vec<InstanceView> {
        self.pools
            .get(&(service, cluster))
            .map(|p| p.queues.iter().enumerate().map(|(i, q)| q.view(i, now)).collect())
            .unwrap_or_default()
    }

    /// Offers a request to replica `instance` (clamped to the pool) and
    /// returns the admission outcome plus the replica's address. `None` when
    /// no pool exists — the caller falls back to the base instance.
    pub fn admit(
        &mut self,
        service: ServiceAddr,
        cluster: usize,
        instance: usize,
        now: SimTime,
    ) -> Option<(Admission, InstanceAddr)> {
        let pool = self.pools.get_mut(&(service, cluster))?;
        let i = instance.min(pool.queues.len() - 1);
        let outcome = pool.queues[i].offer(now);
        match outcome {
            Admission::Served { .. } => self.admissions += 1,
            Admission::Rejected => self.rejections += 1,
        }
        Some((outcome, pool.addr(i)))
    }

    /// The address replica `instance` (clamped) of a pool answers on.
    pub fn resolve(
        &self,
        service: ServiceAddr,
        cluster: usize,
        instance: usize,
    ) -> Option<InstanceAddr> {
        let pool = self.pools.get(&(service, cluster))?;
        Some(pool.addr(instance.min(pool.queues.len() - 1)))
    }

    /// Maps a memorized replica address back to its index, if the pool
    /// still owns it (replicas that scaled away stop resolving).
    pub fn index_of(
        &self,
        service: ServiceAddr,
        cluster: usize,
        addr: InstanceAddr,
    ) -> Option<usize> {
        self.pools.get(&(service, cluster))?.index_of(addr)
    }

    /// Drops the pool for `(service, cluster)` (service scaled to zero or
    /// its zone died), retiring its replica-time into the running total.
    pub fn remove_pool(&mut self, service: ServiceAddr, cluster: usize, now: SimTime) {
        if let Some(mut pool) = self.pools.remove(&(service, cluster)) {
            pool.accrue(now);
            self.retired_replica_seconds += pool.replica_seconds;
        }
    }

    /// When the next autoscaler pass is due: the first multiple of
    /// `sweep_interval` after the last pass. `None` while autoscaling is off
    /// or no pool exists — there is nothing to flex.
    pub(crate) fn next_sweep_at(&self) -> Option<SimTime> {
        if !self.cfg.enabled || self.pools.is_empty() {
            return None;
        }
        let step = self.cfg.sweep_interval.as_nanos().max(1);
        Some(SimTime::from_nanos((self.last_sweep.as_nanos() / step + 1) * step))
    }

    /// One autoscaler pass over every pool, in deterministic (sorted) order.
    /// Applies hysteresis (disjoint up/down utilization thresholds) and the
    /// per-pool cooldown; the scale operations land in
    /// [`scale_ups`](Self::scale_ups) / [`scale_downs`](Self::scale_downs).
    pub(crate) fn sweep(&mut self, now: SimTime) {
        if !self.cfg.enabled {
            return;
        }
        self.last_sweep = now;
        let cfg = &self.cfg;
        let mut keys: Vec<(ServiceAddr, usize)> = self.pools.keys().copied().collect();
        keys.sort();
        for key in keys {
            let pool = self.pools.get_mut(&key).expect("key just listed");
            if now.saturating_since(pool.last_scale) < cfg.cooldown {
                continue;
            }
            let util = pool.mean_utilization(now);
            let backlog = pool.total_backlog(now);
            let n = pool.queues.len();
            if n < cfg.max_replicas && (util > cfg.scale_up_utilization || backlog >= cfg.scale_up_backlog)
            {
                pool.accrue(now);
                pool.queues.push(InstanceQueue::new(cfg.queue));
                pool.last_scale = now;
                self.scale_ups += 1;
            } else if n > cfg.min_replicas
                && util < cfg.scale_down_utilization
                && backlog == 0
                && pool.queues.last().is_some_and(|q| q.occupancy(now) == 0)
            {
                pool.accrue(now);
                pool.queues.pop();
                pool.last_scale = now;
                self.scale_downs += 1;
            }
        }
    }

    /// Total replica-time (replica-count × wall time, in seconds) accrued by
    /// every pool up to `now` — the tournament's instance-count cost metric.
    pub fn replica_seconds(&mut self, now: SimTime) -> f64 {
        for pool in self.pools.values_mut() {
            pool.accrue(now);
        }
        self.retired_replica_seconds
            + self.pools.values().map(|p| p.replica_seconds).sum::<f64>()
    }

    /// Requests admitted (served, possibly after queueing) so far.
    pub fn admissions(&self) -> u64 {
        self.admissions
    }

    /// Requests rejected by a full queue so far.
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    /// Scale-up operations performed so far.
    pub fn scale_ups(&self) -> u64 {
        self.scale_ups
    }

    /// Scale-down operations performed so far.
    pub fn scale_downs(&self) -> u64 {
        self.scale_downs
    }

    /// Current replica counts per pool, sorted by key (for gauges).
    pub fn replica_counts(&self) -> Vec<((ServiceAddr, usize), usize)> {
        let mut v: Vec<_> = self.pools.iter().map(|(k, p)| (*k, p.queues.len())).collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::addr::{Ipv4Addr, MacAddr};

    fn qcfg() -> QueueConfig {
        QueueConfig {
            service_time: Duration::from_millis(10),
            concurrency: 2,
            backlog: 2,
        }
    }

    fn base() -> InstanceAddr {
        InstanceAddr {
            mac: MacAddr::from_id(7),
            ip: Ipv4Addr::new(10, 0, 0, 1),
            port: 31000,
        }
    }

    fn svc(i: u8) -> ServiceAddr {
        ServiceAddr::new(Ipv4Addr::new(203, 0, 113, i), 80)
    }

    #[test]
    fn fifo_admission_is_exact() {
        let mut q = InstanceQueue::new(qcfg());
        let t0 = SimTime::from_secs(1);
        // Two slots: both start immediately.
        assert_eq!(
            q.offer(t0),
            Admission::Served { start: t0, finish: t0 + Duration::from_millis(10) }
        );
        assert_eq!(
            q.offer(t0),
            Admission::Served { start: t0, finish: t0 + Duration::from_millis(10) }
        );
        // Third queues behind the first finish; fourth behind the second.
        let first_free = t0 + Duration::from_millis(10);
        assert_eq!(
            q.offer(t0),
            Admission::Served { start: first_free, finish: first_free + Duration::from_millis(10) }
        );
        assert_eq!(
            q.offer(t0),
            Admission::Served { start: first_free, finish: first_free + Duration::from_millis(10) }
        );
        // Concurrency (2) + backlog (2) exhausted: reject.
        assert_eq!(q.offer(t0), Admission::Rejected);
        assert_eq!(q.rejected(), 1);
        // At t0+11ms the first wave drained but the queued pair still holds
        // both slots: a new arrival queues behind their t0+20ms finishes.
        let busy = t0 + Duration::from_millis(11);
        let Admission::Served { start, .. } = q.offer(busy) else {
            panic!("should admit into backlog");
        };
        assert_eq!(start, t0 + Duration::from_millis(20), "queues behind the pair");
        // Once everything drains, admission is immediate again.
        let later = t0 + Duration::from_millis(31);
        let Admission::Served { start, .. } = q.offer(later) else {
            panic!("should admit after drain");
        };
        assert_eq!(start, later, "slot free — no queueing");
        assert_eq!(q.served(), 6);
    }

    #[test]
    fn view_reports_in_flight_and_backlog() {
        let mut q = InstanceQueue::new(qcfg());
        let t0 = SimTime::from_secs(1);
        for _ in 0..3 {
            q.offer(t0);
        }
        let v = q.view(0, t0);
        assert_eq!((v.in_flight, v.backlog, v.concurrency), (2, 1, 2));
        assert!(v.at_capacity());
        assert_eq!(v.queue_depth(), 3);
        assert!((v.utilization - 1.0).abs() < 1e-9);
        assert!(!v.ewma_latency.is_zero(), "sojourns recorded");
        // After everything drains the view is idle again.
        let v = q.view(0, t0 + Duration::from_secs(1));
        assert_eq!((v.in_flight, v.backlog), (0, 0));
        assert!(!v.at_capacity());
    }

    #[test]
    fn replica_addresses_are_distinct_and_reversible() {
        let pool = ServicePool::new(base(), 4, qcfg(), SimTime::ZERO);
        let addrs: Vec<InstanceAddr> = (0..4).map(|i| pool.addr(i)).collect();
        assert_eq!(addrs[0], base(), "replica 0 is the real instance");
        for (i, a) in addrs.iter().enumerate() {
            assert_eq!(pool.index_of(*a), Some(i));
            for b in &addrs[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // A nearby-but-unrelated port does not reverse-map.
        let stranger = InstanceAddr { port: base().port + 1, ..base() };
        assert_eq!(pool.index_of(stranger), None);
    }

    #[test]
    fn sweep_scales_up_on_backlog_and_down_when_idle() {
        let cfg = AutoscaleConfig {
            enabled: true,
            max_replicas: 3,
            cooldown: Duration::from_secs(1),
            queue: qcfg(),
            ..AutoscaleConfig::default()
        };
        let mut tr = LoadTracker::new(cfg);
        let t0 = SimTime::from_secs(10);
        assert_eq!(tr.next_sweep_at(), None, "no pool, nothing to flex");
        tr.ensure_pool(svc(1), 0, base(), t0);
        assert_eq!(tr.next_sweep_at(), Some(SimTime::from_secs(1)), "one interval after none");
        // Saturate replica 0 (full concurrency + backlog) just before the
        // sweep so the queue is still busy when the autoscaler looks.
        let t1 = t0 + Duration::from_secs(2);
        for _ in 0..4 {
            tr.admit(svc(1), 0, 0, t1);
        }
        let replicas = |tr: &LoadTracker| tr.replica_counts()[0].1;
        tr.sweep(t1);
        assert_eq!((tr.scale_ups(), replicas(&tr)), (1, 2));
        assert_eq!(tr.next_sweep_at(), Some(t1 + Duration::from_secs(1)));
        // Cooldown: an immediate second sweep does nothing.
        tr.sweep(t1);
        assert_eq!((tr.scale_ups(), replicas(&tr)), (1, 2));
        // Long idle: scales back down to the floor, one step per sweep, and
        // the next pass lands on the interval grid.
        let idle = t0 + Duration::from_millis(100_300);
        tr.sweep(idle);
        assert_eq!((tr.scale_downs(), replicas(&tr)), (1, 1));
        assert_eq!(tr.next_sweep_at(), Some(SimTime::from_secs(111)));
        tr.sweep(t0 + Duration::from_secs(200));
        assert_eq!((tr.scale_ups(), tr.scale_downs(), replicas(&tr)), (1, 1, 1), "at the floor");
    }

    #[test]
    fn sweep_is_disabled_by_default() {
        let mut tr = LoadTracker::default();
        assert!(!tr.enabled());
        tr.ensure_pool(svc(1), 0, base(), SimTime::ZERO);
        for _ in 0..32 {
            tr.admit(svc(1), 0, 0, SimTime::ZERO);
        }
        assert_eq!(tr.next_sweep_at(), None, "never due");
        tr.sweep(SimTime::from_secs(60));
        assert_eq!((tr.scale_ups(), tr.replica_counts()[0].1), (0, 1));
    }

    #[test]
    fn replica_seconds_accrue_by_pool_size() {
        let cfg = AutoscaleConfig { enabled: true, queue: qcfg(), ..AutoscaleConfig::default() };
        let mut tr = LoadTracker::new(cfg);
        let t0 = SimTime::from_secs(0);
        tr.ensure_pool(svc(1), 0, base(), t0);
        // 10 s at one replica.
        assert!((tr.replica_seconds(t0 + Duration::from_secs(10)) - 10.0).abs() < 1e-9);
        // Force a scale-up, then 10 more seconds at two replicas.
        for _ in 0..8 {
            tr.admit(svc(1), 0, 0, t0 + Duration::from_secs(10));
        }
        tr.sweep(t0 + Duration::from_secs(10));
        let total = tr.replica_seconds(t0 + Duration::from_secs(20));
        assert!((total - 30.0).abs() < 1e-9, "10·1 + 10·2 = 30, got {total}");
        // Removing the pool retires (not loses) its cost.
        tr.remove_pool(svc(1), 0, t0 + Duration::from_secs(20));
        assert!((tr.replica_seconds(t0 + Duration::from_secs(99)) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn redeployed_base_resets_the_pool() {
        let cfg = AutoscaleConfig { enabled: true, queue: qcfg(), ..AutoscaleConfig::default() };
        let mut tr = LoadTracker::new(cfg);
        let t0 = SimTime::from_secs(0);
        tr.ensure_pool(svc(1), 0, base(), t0);
        tr.admit(svc(1), 0, 0, t0);
        // The service scaled down and came back on a fresh port.
        let reborn = InstanceAddr { port: 31007, ..base() };
        tr.ensure_pool(svc(1), 0, reborn, t0 + Duration::from_secs(5));
        let pool = tr.pool(svc(1), 0).unwrap();
        assert_eq!(pool.addr(0), reborn);
        assert_eq!(pool.replicas(), 1);
        assert_eq!(tr.views(svc(1), 0, t0 + Duration::from_secs(5))[0].queue_depth(), 0);
        // The old pool's replica-time was retired, not dropped.
        assert!(tr.replica_seconds(t0 + Duration::from_secs(5)) >= 5.0 - 1e-9);
    }

    #[test]
    fn admit_clamps_instance_and_tracks_rates() {
        let cfg = AutoscaleConfig { enabled: true, queue: qcfg(), ..AutoscaleConfig::default() };
        let mut tr = LoadTracker::new(cfg);
        let t0 = SimTime::from_secs(1);
        tr.ensure_pool(svc(1), 0, base(), t0);
        // Instance 7 does not exist: clamps to the last (only) replica.
        let (outcome, addr) = tr.admit(svc(1), 0, 7, t0).unwrap();
        assert!(matches!(outcome, Admission::Served { .. }));
        assert_eq!(addr, base());
        for _ in 0..8 {
            tr.admit(svc(1), 0, 0, t0);
        }
        assert_eq!(tr.admissions(), 4, "2 in service + 2 backlogged + clamped first");
        assert_eq!(tr.rejections(), 5);
        assert_eq!(tr.index_of(svc(1), 0, base()), Some(0));
        assert_eq!(tr.index_of(svc(1), 0, InstanceAddr { port: 999, ..base() }), None);
    }
}
