//! Self-healing: the failure-detection sweep and the stale-redirect repair
//! behind it, zone outages, flow-table reconciliation after a channel
//! reconnect, and the one teardown they (and the migration flip) share.
//!
//! Two rules keep a deployment in progress safe here: it is not a dead
//! instance ([`Serving::Pending`] leaves memory, pair and breaker alone), and
//! a pair's Deletes never precede its Adds ([`Controller::teardown_pairs`]).

use super::{Controller, OutboundMessage};
use crate::cluster::InstanceAddr;
use crate::dispatch::Serving;
use crate::flowmemory::IngressId;
use crate::journal::{JournalEvent, PairId};
use crate::rules::{InstalledFlow, InstalledPair};
use desim::{SimRng, SimTime};
use netsim::addr::Ipv4Addr;
use netsim::ServiceAddr;
use openflow::oxm::Match;
use openflow::{FlowEntry, OFP_NO_BUFFER};

impl Controller {
    /// Fault injection: a *Ready* instance of `svc_addr` on `cluster`
    /// crashes while serving. The crash itself is silent — clients keep
    /// being redirected at the corpse until the next [`health_check`] sweep
    /// notices; the instant is recorded so `stale_redirect_repair_ns`
    /// measures crash→repair latency. Returns `false` if there was nothing
    /// running to kill.
    ///
    /// [`health_check`]: Self::health_check
    pub fn inject_instance_crash(
        &mut self,
        cluster: usize,
        svc_addr: ServiceAddr,
        now: SimTime,
        rng: &mut SimRng,
    ) -> bool {
        if cluster >= self.clusters.len() {
            return false;
        }
        let Some(svc) = self.services.get_shared(svc_addr) else {
            return false;
        };
        let instance = self.clusters[cluster].instance_addr(&svc);
        if !self.clusters[cluster].fail_instance(&svc, now, rng) {
            return false;
        }
        if let Some(inst) = instance {
            self.crash_records.insert(inst, now);
        }
        true
    }

    /// The failure-detection sweep, run every `health.detect_interval`:
    /// walks every instance the FlowMemory still redirects clients at and
    /// repairs the state around each one that is gone — forgets
    /// its memory entries (no lookup ever returns the dead address again),
    /// removes the matching pairs and deletes their switch flows, and feeds
    /// the cluster's circuit breaker. Subsequent packets from the affected
    /// clients miss the table and re-enter the ordinary dispatch pipeline.
    /// Returns the Delete FlowMods, tagged with the ingress they go to.
    ///
    /// Neither of the controller's own doings false-positives here. Idle
    /// scale-down: a service is only scaled down after its last memorized
    /// flow expired, so by then the memory holds nothing pointing at it.
    /// On-demand deployment: a flow is memorized as soon as its request is
    /// held, while its instance is still Starting — which [`Serving`] reports
    /// as `Pending`, not `Gone`.
    pub fn health_check(&mut self, now: SimTime) -> Vec<(IngressId, OutboundMessage)> {
        self.synced(|ctl| {
            let mut out: Vec<(IngressId, OutboundMessage)> = Vec::new();
            for (cluster, inst, svc_addr) in ctl.state.memory().instances() {
                // A deployment in progress is not a dead instance (a crashed
                // one is Created, never Starting, so detection loses nothing).
                if ctl.serving(cluster, svc_addr, inst, now) != Serving::Gone {
                    continue;
                }
                // A crash mid-transfer retires the pool out from under its
                // migration: abandon it first (the pin lifts; session state
                // stays in the source ledger), then repair normally — repair
                // never runs *while* a migration holds the pool.
                let aborted = ctl.state.migrate_mut().abort_involving(svc_addr, cluster);
                ctl.count("migrations_aborted", aborted);
                ctl.dispatcher
                    .load_mut()
                    .remove_pool(svc_addr, cluster, now);
                out.extend(ctl.repair_dead_instance(cluster, inst, now));
            }
            out
        })
    }

    /// Stale-redirect repair for one dead instance: forget its FlowMemory
    /// entries, remove + delete its switch flows everywhere, record the
    /// failure with the cluster's breaker, and update the repair metrics.
    fn repair_dead_instance(
        &mut self,
        cluster: usize,
        inst: InstanceAddr,
        now: SimTime,
    ) -> Vec<(IngressId, OutboundMessage)> {
        let n = self.state.memory_mut().forget_instance(inst).len();
        let (_, root) = self.open_request("recovery", now);
        self.telemetry.event(root, "instance-failure", now, || {
            format!(
                "cluster {cluster}: instance {}:{} dead, {n} stale redirect(s)",
                inst.ip, inst.port
            )
        });
        let retain = JournalEvent::AggregateRetainInstance { instance: inst };
        let out = self.teardown_everywhere(|p| p.instance == Some(inst), retain, now);
        self.state.health_mut().record_failure(cluster, now);
        self.count("stale_redirects_repaired", n);
        let m = &mut self.telemetry.metrics;
        m.inc("instance_failures_total");
        if let Some(crashed_at) = self.crash_records.remove(&inst) {
            m.observe("stale_redirect_repair_ns", now.saturating_since(crashed_at));
        }
        for i in 0..self.clusters.len() {
            let breaker = self.state.health().breaker_state(i);
            m.set_gauge(&format!("breaker_state.{i}"), breaker.gauge());
        }
        self.telemetry.event(root, "repaired", now, || {
            format!("{} flow delete(s) toward the switches", out.len())
        });
        self.telemetry.end_span(root, now);
        out
    }

    /// Declares `cluster` dark until `until` — the zone-outage fault: every
    /// Ready/Starting instance in the zone fails at once, all memorized
    /// redirects into it are forgotten, their switch flows torn down, and
    /// the zone is blocked for scheduling until the window passes (or
    /// [`end_zone_outage`] is called). Returns the Delete FlowMods per
    /// ingress.
    ///
    /// [`end_zone_outage`]: Self::end_zone_outage
    pub fn begin_zone_outage(
        &mut self,
        cluster: usize,
        now: SimTime,
        until: SimTime,
        rng: &mut SimRng,
    ) -> Vec<(IngressId, OutboundMessage)> {
        if cluster >= self.clusters.len() {
            return vec![];
        }
        self.synced(|ctl| {
            let (_, root) = ctl.open_request("zone-outage", now);
            let mut failed = 0usize;
            for svc in ctl.services.iter() {
                if ctl.clusters[cluster].fail_instance(svc, now, rng) {
                    failed += 1;
                }
                ctl.dispatcher.load_mut().remove_pool(svc.addr, cluster, now);
            }
            let victims = ctl.state.memory_mut().forget_cluster(cluster);
            // Migrations into or out of the dark zone cannot finish.
            let aborted = ctl.state.migrate_mut().abort_cluster(cluster);
            ctl.count("migrations_aborted", aborted);
            ctl.telemetry.event(root, "zone-dark", now, || {
                format!(
                    "cluster {cluster}: {failed} instance(s) down, {} stale redirect(s), until {until:?}",
                    victims.len()
                )
            });
            let retain = JournalEvent::AggregateRetainCluster { cluster };
            let out = ctl.teardown_everywhere(|p| p.cluster == Some(cluster), retain, now);
            ctl.state.health_mut().begin_outage(cluster, until);
            ctl.telemetry.metrics.inc("zone_outages_total");
            ctl.count("stale_redirects_repaired", victims.len());
            ctl.telemetry.end_span(root, now);
            out
        })
    }

    /// Clears a declared zone outage: the cluster becomes schedulable again
    /// immediately (its services were failed to Created, so the next request
    /// re-deploys through the ordinary pipeline).
    pub fn end_zone_outage(&mut self, cluster: usize) {
        self.synced(|ctl| ctl.state.health_mut().end_outage(cluster));
    }

    /// Flow-table reconciliation after an OpenFlow channel reconnect. The
    /// switch kept forwarding on its installed flows while control messages
    /// were lost, so its table and the controller's bookkeeping may have
    /// drifted: installs the controller sent into the void are *missing*,
    /// and switch flows whose teardown was lost are *orphans*. Compares
    /// `switch_flows` — the switch's current table — against the bookkeeping
    /// for `ingress`: live expected flows missing from the switch are
    /// re-installed verbatim, and switch entries the controller does not
    /// claim are strict-deleted. Expected pairs whose instance died while
    /// the channel was down are removed here (their switch entries, if any,
    /// become orphans). A second pass right after the returned FlowMods are
    /// applied returns nothing.
    pub fn reconcile(
        &mut self,
        ingress: IngressId,
        switch_flows: &[FlowEntry],
        now: SimTime,
    ) -> Vec<OutboundMessage> {
        self.synced(|ctl| {
            let mut claimed: Vec<(Match, u16)> = Vec::new();
            let mut missing: Vec<InstalledFlow> = Vec::new();
            for client in ctl.state.clients_at(ingress) {
                // A redirect pair is expected only while its instance serves
                // or is being deployed.
                let gone = |p: &InstalledPair| ctl.pair_serving(p, now) == Serving::Gone;
                for id in ctl.state.ids_where(client, ingress, gone) {
                    ctl.remove_pair(client, ingress, id);
                }
                for (_, p) in ctl.state.pairs(client, ingress) {
                    // The Adds of a pair held for a deployment in progress
                    // are still on their way: claimed, so they are no orphans
                    // once they land, but not re-installed early — a client
                    // is never forwarded to a port that is not open yet.
                    let held = ctl.pair_serving(p, now) != Serving::Yes;
                    // Reverse before forward, as installs always go out: if both
                    // directions are missing, the reply path comes back first.
                    for f in [&p.rev, &p.fwd] {
                        claimed.push((f.match_.clone(), f.priority));
                        let on_switch = switch_flows
                            .iter()
                            .any(|e| e.priority == f.priority && e.match_ == f.match_);
                        if !on_switch && !held {
                            missing.push(f.clone());
                        }
                    }
                }
            }

            let n_missing = missing.len();
            let mut msgs: Vec<OutboundMessage> = Vec::with_capacity(n_missing);
            for mut f in missing {
                msgs.push(ctl.flow_add(now, &mut f, OFP_NO_BUFFER));
            }
            // Strict-delete unclaimed switch entries. Switch-side deletion is by
            // exact match across every priority, so one Delete per distinct
            // match suffices.
            let mut deleted: Vec<Match> = Vec::new();
            let mut n_orphans = 0usize;
            for e in switch_flows {
                if claimed
                    .iter()
                    .any(|(m, pr)| *pr == e.priority && *m == e.match_)
                {
                    continue;
                }
                n_orphans += 1;
                if deleted.contains(&e.match_) {
                    continue;
                }
                deleted.push(e.match_.clone());
                msgs.push(ctl.flow_delete(now, e.match_.clone()));
            }

            let (_, root) = ctl.open_request("reconcile", now);
            ctl.telemetry.event(root, "diff", now, || {
                format!(
                    "ingress {}: {n_missing} missing, {n_orphans} orphan(s)",
                    ingress.0
                )
            });
            ctl.telemetry.end_span(root, now);
            ctl.telemetry.metrics.inc("reconciliations_total");
            ctl.count("reconcile_reinstalled", n_missing);
            ctl.count("reconcile_orphans_deleted", n_orphans);
            msgs
        })
    }

    /// [`Controller::serving`] for the instance `p` redirects to (cloud pairs
    /// have nothing to die).
    fn pair_serving(&self, p: &InstalledPair, now: SimTime) -> Serving {
        match (p.cluster, p.instance) {
            (Some(cluster), Some(inst)) => self.serving(cluster, p.service, inst, now),
            _ => Serving::Yes,
        }
    }

    /// The fleet-wide teardown behind a repair and an outage: on every
    /// switch, every bookkept pair `pick` selects is removed and deleted at
    /// `at` — not only the memorized ones: handover leftovers point there
    /// too. Aggregated pairs are filed under the sentinel client, so the sweep
    /// retires them like any other pair; `retain` then drops their anchors, so
    /// the next packet-in installs a fresh aggregate toward the replacement.
    fn teardown_everywhere(
        &mut self,
        pick: impl Fn(&InstalledPair) -> bool,
        retain: JournalEvent,
        at: SimTime,
    ) -> Vec<(IngressId, OutboundMessage)> {
        let mut out = Vec::new();
        for (client, ingress) in self.state.installed_keys_sorted() {
            out.extend(self.teardown_pairs(client, ingress, &pick, None, at));
        }
        self.commit(retain);
        out
    }

    /// Takes the pair `id` of `(client, ingress)` out of the bookkeeping and
    /// hands it back: its forward flow left the switch, or the caller
    /// deletes it.
    pub(super) fn remove_pair(
        &mut self,
        client: Ipv4Addr,
        ingress: IngressId,
        id: PairId,
    ) -> Option<InstalledPair> {
        self.commit(JournalEvent::PairRemove { client, ingress, id }).removed
    }

    /// Removes every pair at `(client, ingress)` that `pick` selects and
    /// deletes both directions of each at `at`, forward first — except a
    /// forward match equal to `replaced_fwd` (see
    /// [`Controller::finish_migration`]), and never before the pair's own
    /// Adds: while a request is held for `(service, cluster)`, `held` keeps
    /// the instant its Adds are stamped for.
    pub(super) fn teardown_pairs(
        &mut self,
        client: Ipv4Addr,
        ingress: IngressId,
        pick: impl Fn(&InstalledPair) -> bool,
        replaced_fwd: Option<&Match>,
        at: SimTime,
    ) -> Vec<(IngressId, OutboundMessage)> {
        let mut out = Vec::new();
        for id in self.state.ids_where(client, ingress, pick) {
            let Some(p) = self.remove_pair(client, ingress, id) else { continue };
            let hold = p.cluster.and_then(|c| self.held.get(&(p.service, c)));
            let at = hold.map_or(at, |&release| at.max(release));
            if replaced_fwd != Some(&p.fwd.match_) {
                out.push((ingress, self.flow_delete(at, p.fwd.match_)));
            }
            out.push((ingress, self.flow_delete(at, p.rev.match_)));
        }
        out
    }
}
