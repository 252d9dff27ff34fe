//! Self-healing: the failure-detection sweep and the stale-redirect repair
//! behind it, zone outages, flow-table reconciliation after a channel
//! reconnect, and the one teardown they (and the migration flip) share.
//!
//! Two rules keep a deployment in progress safe here: it is not a dead
//! instance ([`Serving::Pending`] leaves memory, pair and breaker alone), and
//! a pair's Deletes never precede its Adds ([`Controller::teardown_pairs`]).

use super::{Controller, OutboundMessage, Spans};
use crate::cluster::InstanceAddr;
use crate::dispatch::Serving;
use crate::flowmemory::IngressId;
use crate::journal::{JournalEvent, PairId};
use crate::rules::{InstalledFlow, InstalledPair};
use desim::{FastSet, SimRng, SimTime};
use netsim::addr::Ipv4Addr;
use netsim::ServiceAddr;
use openflow::oxm::Match;
use openflow::{FlowEntry, OFP_NO_BUFFER};

impl<S: Spans> Controller<S> {
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
    /// The Delete FlowMods go to `out`, tagged with the ingress they go to
    /// (the sink [`Controller::handle_switch_message_into`] describes).
    ///
    /// Neither of the controller's own doings false-positives here. Idle
    /// scale-down: a service is only scaled down after its last memorized
    /// flow expired, so by then the memory holds nothing pointing at it.
    /// On-demand deployment: a flow is memorized as soon as its request is
    /// held, while its instance is still Starting — which [`Serving`] reports
    /// as `Pending`, not `Gone`.
    pub fn health_check(&mut self, now: SimTime, out: &mut Vec<(IngressId, OutboundMessage)>) {
        self.synced(|ctl| {
            let mut work = std::mem::take(&mut ctl.sweep_scratch);
            ctl.state.memory().instances_into(&mut work);
            for &(cluster, inst, svc_addr) in &work {
                // A deployment in progress is not a dead instance (a crashed
                // one is Created, never Starting, so detection loses nothing).
                if ctl.serving(cluster, svc_addr, inst, now) != Serving::Gone {
                    continue;
                }
                // A crash mid-transfer retires the pool out from under its
                // migration: abandon it first (the pin lifts; session state
                // stays in the source ledger), then repair normally — repair
                // never runs *while* a migration holds the pool.
                let aborted = ctl
                    .state
                    .migrate_mut()
                    .abort_where(|m| m.service == svc_addr && (m.from == cluster || m.to == cluster));
                ctl.count("migrations_aborted", aborted);
                ctl.dispatcher.load_mut().remove_pool(svc_addr, cluster, now);
                ctl.repair_dead_instance(cluster, inst, now, out);
            }
            ctl.sweep_scratch = work;
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
        out: &mut Vec<(IngressId, OutboundMessage)>,
    ) {
        let n = self.state.memory_mut().forget_instance(inst).len();
        let (_, root) = self.open_request("recovery", now);
        self.telemetry.event(root, "instance-failure", now, || {
            format!(
                "cluster {cluster}: instance {}:{} dead, {n} stale redirect(s)",
                inst.ip, inst.port
            )
        });
        let retain = JournalEvent::AggregateRetainInstance { instance: inst };
        let before = out.len();
        self.teardown_everywhere(|p| p.instance() == Some(inst), retain, now, out);
        self.state.health_mut().record_failure(cluster, now);
        self.count("stale_redirects_repaired", n);
        let m = &mut self.telemetry.metrics;
        m.inc("instance_failures_total");
        if let Some(crashed_at) = self.crash_records.remove(&inst) {
            m.observe("stale_redirect_repair_ns", now.saturating_since(crashed_at));
        }
        for (i, name) in self.breaker_gauges.iter().enumerate() {
            m.set_gauge(name, self.state.health().breaker_state(i).gauge());
        }
        self.telemetry.event(root, "repaired", now, || {
            format!("{} flow delete(s) toward the switches", out.len() - before)
        });
        self.telemetry.end_span(root, now);
    }

    /// Declares `cluster` dark until `until` — the zone-outage fault: every
    /// Ready/Starting instance in the zone fails at once, all memorized
    /// redirects into it are forgotten, their switch flows torn down, and
    /// the zone is blocked for scheduling until the window passes (or
    /// [`end_zone_outage`] is called). The Delete FlowMods go to `out`.
    ///
    /// [`end_zone_outage`]: Self::end_zone_outage
    pub fn begin_zone_outage(
        &mut self,
        cluster: usize,
        now: SimTime,
        until: SimTime,
        rng: &mut SimRng,
        out: &mut Vec<(IngressId, OutboundMessage)>,
    ) {
        if cluster >= self.clusters.len() {
            return;
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
            let aborted = ctl.state.migrate_mut().abort_where(|m| m.from == cluster || m.to == cluster);
            ctl.count("migrations_aborted", aborted);
            ctl.telemetry.event(root, "zone-dark", now, || {
                format!(
                    "cluster {cluster}: {failed} instance(s) down, {} stale redirect(s), until {until:?}",
                    victims.len()
                )
            });
            let retain = JournalEvent::AggregateRetainCluster { cluster };
            ctl.teardown_everywhere(|p| p.cluster() == Some(cluster), retain, now, out);
            ctl.state.health_mut().begin_outage(cluster, until);
            ctl.telemetry.metrics.inc("zone_outages_total");
            ctl.count("stale_redirects_repaired", victims.len());
            ctl.telemetry.end_span(root, now);
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
    /// become orphans). The fixes go to `out`; a second pass right after
    /// they are applied sends nothing.
    pub fn reconcile(
        &mut self,
        ingress: IngressId,
        switch_flows: &[FlowEntry],
        now: SimTime,
        out: &mut Vec<(IngressId, OutboundMessage)>,
    ) {
        self.synced(|ctl| {
            let mut expected: Vec<(InstalledFlow, bool)> = Vec::new();
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
                    let (fwd, rev) = p.flows();
                    expected.extend([(rev, held), (fwd, held)]);
                }
            }
            let (missing, deletes, n_orphans) = reconcile_diff(&expected, switch_flows);
            let n_missing = missing.len();
            out.extend(missing.iter().map(|f| (ingress, ctl.flow_add(now, f, OFP_NO_BUFFER))));
            out.extend(deletes.into_iter().map(|m| (ingress, ctl.flow_delete(now, m))));

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
        })
    }

    /// [`Controller::serving`] for the instance `p` redirects to (cloud pairs
    /// have nothing to die).
    fn pair_serving(&self, p: &InstalledPair, now: SimTime) -> Serving {
        match (p.cluster(), p.instance()) {
            (Some(cluster), Some(inst)) => self.serving(cluster, p.service(), inst, now),
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
        out: &mut Vec<(IngressId, OutboundMessage)>,
    ) {
        for (client, ingress) in self.state.installed_keys_sorted() {
            self.teardown_pairs(client, ingress, &pick, None, at, out);
        }
        self.commit(retain);
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
        out: &mut Vec<(IngressId, OutboundMessage)>,
    ) {
        for id in self.state.ids_where(client, ingress, pick) {
            let Some(p) = self.remove_pair(client, ingress, id) else { continue };
            let hold = p.cluster().and_then(|c| self.held.get(&(p.service(), c)));
            let at = hold.map_or(at, |&release| at.max(release));
            let (fwd, rev) = p.flows();
            if replaced_fwd != Some(&fwd.match_) {
                out.push((ingress, self.flow_delete(at, fwd.match_)));
            }
            out.push((ingress, self.flow_delete(at, rev.match_)));
        }
    }
}

/// The diff behind [`Controller::reconcile`]: the `expected` flows (install
/// order, each with whether its pair is held) absent from `switch_flows` and
/// not held, in order; one Delete per distinct match among the switch entries
/// no expected flow claims, in table order; and how many such entries there
/// are. Presence and claims are set lookups by `(match, priority)`, so the
/// diff is one pass over each side, not one pass over the table per flow.
fn reconcile_diff(
    expected: &[(InstalledFlow, bool)],
    switch_flows: &[FlowEntry],
) -> (Vec<InstalledFlow>, Vec<Match>, usize) {
    let on_switch: FastSet<(Match, u16)> = switch_flows.iter().map(|e| (e.match_, e.priority)).collect();
    let claimed: FastSet<(Match, u16)> = expected.iter().map(|(f, _)| (f.match_, f.priority)).collect();
    let missing = expected
        .iter()
        .filter(|(f, held)| !held && !on_switch.contains(&(f.match_, f.priority)))
        .map(|&(f, _)| f)
        .collect();
    // Switch-side deletion is by exact match across every priority, so one
    // Delete per distinct match suffices.
    let mut deleted = FastSet::default();
    let orphans = switch_flows.iter().filter(|e| !claimed.contains(&(e.match_, e.priority)));
    let n_orphans = orphans.clone().count();
    let deletes = orphans.filter(|e| deleted.insert(e.match_)).map(|e| e.match_).collect();
    (missing, deletes, n_orphans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{self, pool};
    use desim::Duration;
    use openflow::messages::Message;
    use proptest::prelude::*;

    /// The diff as `reconcile` computed it before it hashed: a scan of the
    /// table per expected flow, of the claims per switch entry and of the
    /// deleted matches per orphan — the oracle of [`reconcile_diff`].
    fn reconcile_diff_scan(
        expected: &[(InstalledFlow, bool)],
        switch_flows: &[FlowEntry],
    ) -> (Vec<InstalledFlow>, Vec<Match>, usize) {
        let mut claimed: Vec<(Match, u16)> = Vec::new();
        let mut missing: Vec<InstalledFlow> = Vec::new();
        for (f, held) in expected {
            claimed.push((f.match_, f.priority));
            let on_switch = switch_flows
                .iter()
                .any(|e| e.priority == f.priority && e.match_ == f.match_);
            if !on_switch && !held {
                missing.push(*f);
            }
        }
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
            deleted.push(e.match_);
        }
        (missing, deleted, n_orphans)
    }

    /// The messages a diff becomes, in the order `reconcile` sends them,
    /// and its orphan count.
    fn messages(
        (missing, deletes, n_orphans): (Vec<InstalledFlow>, Vec<Match>, usize),
    ) -> (Vec<Message>, usize) {
        let idle = Duration::from_secs(10);
        let adds = missing.iter().map(|f| rules::flow_add(f, idle, OFP_NO_BUFFER));
        (adds.chain(deletes.into_iter().map(rules::flow_delete)).collect(), n_orphans)
    }

    /// Pool pair `i` of 54: three clients × three granularities × two
    /// ephemeral ports × {two instances, the cloud}.
    fn pool_pair(i: usize) -> InstalledPair {
        let spec = pool::spec((i % 3) as u8, (i / 3 % 3, 50_000 + (i / 9 % 2) as u16, 1));
        InstalledPair { spec, target: pool::target(i / 18 % 3) }
    }

    /// A switch entry holding pool pair `i`'s forward or reverse flow,
    /// its priority lowered by `shift` (an entry the bookkeeping does not
    /// claim, though its match may be claimed at another priority).
    fn switch_entry(i: usize, fwd: bool, shift: u16) -> FlowEntry {
        let (f, r) = pool_pair(i).flows();
        let flow = if fwd { f } else { r };
        FlowEntry {
            match_: flow.match_,
            priority: flow.priority - shift,
            cookie: flow.cookie,
            actions: flow.actions,
            idle_timeout: Duration::from_secs(10),
            flags: flow.flags,
            installed_at: SimTime::ZERO,
            last_hit: SimTime::ZERO,
            packet_count: 0,
            byte_count: 0,
        }
    }

    proptest! {
        /// The hashed diff sends exactly the messages the scan sent, in the
        /// same order, and counts the same orphans — on random bookkeeping
        /// (pairs held or not, duplicates included) against random tables
        /// (claimed flows, flows at priorities nothing claims, and repeats).
        #[test]
        fn hashed_reconcile_diff_sends_what_the_scan_sent(
            filed in proptest::collection::vec((0usize..54, any::<bool>()), 0..16),
            table in proptest::collection::vec((0usize..54, any::<bool>(), 0u16..3), 0..32),
        ) {
            let mut expected = Vec::new();
            for (i, held) in filed {
                let (fwd, rev) = pool_pair(i).flows();
                expected.extend([(rev, held), (fwd, held)]);
            }
            let switch_flows: Vec<FlowEntry> =
                table.into_iter().map(|(i, fwd, shift)| switch_entry(i, fwd, shift)).collect();
            prop_assert_eq!(
                messages(reconcile_diff(&expected, &switch_flows)),
                messages(reconcile_diff_scan(&expected, &switch_flows))
            );
        }
    }
}
