//! Service lifecycle outside the request path: the hold that pins a service
//! while a request waits for it, the idle sweep (scale-down, then the
//! paper's Remove phase), proactive deployment and the autoscaler pass.

use super::{Controller, Spans};
use crate::cluster::InstanceState;
use crate::journal::JournalEvent;
use crate::service::EdgeService;
use desim::{SimRng, SimTime};
use netsim::ServiceAddr;

impl<S: Spans> Controller<S> {
    /// Pins `(service, cluster)` against the idle sweep until `until`: a
    /// request is held for a deployment there.
    pub(super) fn hold(&mut self, service: ServiceAddr, cluster: usize, until: SimTime) {
        let hold = self.held.entry((service, cluster)).or_insert(until);
        *hold = (*hold).max(until);
    }

    /// Periodic sweep: runs the autoscaler pass when it is due, expires
    /// FlowMemory entries and scales down services whose last flow vanished,
    /// counting each scale-down and removal (`scale_downs`, `removes`).
    pub fn tick(&mut self, now: SimTime, rng: &mut SimRng) {
        self.synced(|ctl| {
            if ctl.dispatcher.load().next_sweep_at().is_some_and(|t| t <= now) {
                ctl.autoscale_sweep(now);
            }
            // Holds whose release instant has passed no longer pin anything.
            ctl.held.retain(|_, until| now < *until);
            let mut expired = std::mem::take(&mut ctl.idle_scratch);
            ctl.state.memory_mut().expire(now, &mut expired);
            // Re-examine deferred expiries whose hold has drained since.
            let mut ripe: Vec<(ServiceAddr, usize)> = ctl
                .deferred
                .keys()
                .filter(|k| !ctl.held.contains_key(k) && !ctl.state.migrate().pinned(k.0, k.1))
                .copied()
                .collect();
            ripe.sort_unstable(); // map order must not decide scale-down order
            for key in ripe {
                ctl.deferred.remove(&key);
                // Re-used while deferred? Then it is no longer idle.
                if ctl.state.memory().flows_for(key.0) > 0 {
                    continue;
                }
                if !expired.contains(&key) {
                    expired.push(key);
                }
            }
            for (svc_addr, cluster_idx) in expired.drain(..) {
                if ctl.held.contains_key(&(svc_addr, cluster_idx))
                    || ctl.state.migrate().pinned(svc_addr, cluster_idx)
                {
                    // A request is still held for this service, or the pool is
                    // the source/target of an in-flight migration: defer the
                    // scale-down until the hold releases / the flip completes.
                    ctl.deferred.insert((svc_addr, cluster_idx), now);
                    continue;
                }
                let Some(svc) = ctl.services.get_shared(svc_addr) else {
                    continue;
                };
                if cluster_idx < ctl.clusters.len() {
                    ctl.clusters[cluster_idx].scale_down(&svc, now, rng);
                    ctl.dispatcher
                        .load_mut()
                        .remove_pool(svc_addr, cluster_idx, now);
                    ctl.commit(JournalEvent::ScaledDown {
                        service: svc_addr,
                        cluster: cluster_idx,
                        at: now,
                    });
                    ctl.telemetry.metrics.inc("scale_downs");
                }
            }
            ctl.idle_scratch = expired;
            // The Remove phase: services down long enough are deleted entirely.
            if let Some(after) = ctl.config.remove_after {
                let mut due: Vec<(ServiceAddr, usize)> = ctl
                    .state
                    .scaled_down()
                    .iter()
                    .filter(|(_, &t)| now.saturating_since(t) >= after)
                    .map(|(&k, _)| k)
                    .collect();
                due.sort_unstable(); // map order must not decide removal order
                for (svc_addr, cluster_idx) in due {
                    ctl.commit(JournalEvent::ScaleRestored {
                        service: svc_addr,
                        cluster: cluster_idx,
                    });
                    let Some(svc) = ctl.services.get_shared(svc_addr) else {
                        continue;
                    };
                    if cluster_idx >= ctl.clusters.len() {
                        continue;
                    }
                    // Redeployed in the meantime? Then it is not removable.
                    if matches!(
                        ctl.clusters[cluster_idx].state(&svc, now),
                        InstanceState::Created
                    ) {
                        ctl.clusters[cluster_idx].remove(&svc, now, rng);
                        ctl.telemetry.metrics.inc("removes");
                    }
                }
            }
        })
    }

    /// Earliest instant the next `tick` could have work.
    pub fn next_tick_at(&self) -> Option<SimTime> {
        let removal = self
            .config
            .remove_after
            .and_then(|after| self.state.scaled_down().values().map(|&t| t + after).min());
        // A deferred scale-down becomes actionable when its hold releases.
        let deferred = self
            .deferred
            .keys()
            .filter_map(|k| self.held.get(k).copied())
            .min();
        let sweep = self.dispatcher.load().next_sweep_at();
        [self.state.memory().next_expiry(), removal, deferred, sweep]
            .into_iter()
            .flatten()
            .min()
    }

    /// Proactively deploys a service (prediction-driven, Sections I/VII):
    /// ensures an instance exists on the nearest cluster without a client
    /// request. Returns the instant the instance will be ready, or `None`
    /// if the service is unknown or already deployed/starting.
    pub fn proactive_deploy(
        &mut self,
        addr: ServiceAddr,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Option<SimTime> {
        let svc = self.services.get_shared(addr)?;
        let idx = (0..self.clusters.len()).min_by_key(|&i| self.clusters[i].latency())?;
        match self.clusters[idx].state(&svc, now) {
            InstanceState::NotDeployed | InstanceState::Created => {
                self.warm_start(idx, &svc, now, rng)
            }
            _ => None,
        }
    }

    /// Warm start: drives whatever phases `svc` still needs on `cluster` —
    /// pull, create, scale-up — once each, without a request held for them.
    /// Returns the instant the instance is (or will be) ready; `None` if a
    /// phase failed or the cluster cannot schedule it.
    pub(super) fn warm_start(
        &mut self,
        cluster: usize,
        svc: &EdgeService,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Option<SimTime> {
        let cluster = &mut self.clusters[cluster];
        let ready = match cluster.state(svc, now) {
            InstanceState::Ready(_) => now,
            InstanceState::Starting { ready_at } => ready_at,
            state => {
                let mut t = now;
                if state == InstanceState::NotDeployed {
                    if !cluster.has_image_cached(svc) {
                        t = cluster.pull(svc, t, rng).ok()?;
                    }
                    t = cluster.create(svc, t, rng).ok()?;
                }
                cluster.scale_up(svc, t, rng).ok()?.1
            }
        };
        (ready != SimTime::MAX).then_some(ready)
    }

    /// One horizontal-autoscaler pass, run by `tick` once per
    /// `autoscale::SWEEP_INTERVAL`: flexes each service's replica pool on
    /// queue depth and utilization (hysteresis + cooldown live in
    /// `LoadTracker::sweep`), counts `autoscale_ups` / `autoscale_downs`,
    /// and refreshes the per-pool `replicas.{service}.{cluster}` gauges.
    fn autoscale_sweep(&mut self, now: SimTime) {
        let load = self.dispatcher.load_mut();
        let before = (load.scale_ups(), load.scale_downs());
        load.sweep(now);
        let metrics = &mut self.telemetry.metrics;
        metrics.add("autoscale_ups", load.scale_ups() - before.0);
        metrics.add("autoscale_downs", load.scale_downs() - before.1);
        for ((svc, cluster), n) in load.replica_counts() {
            metrics.set_gauge(&format!("replicas.{}:{}.{cluster}", svc.ip, svc.port), n as f64);
        }
    }
}
