//! Live stateful migration between zones: the three triggers (explicit,
//! breaker-open, mobility), the warm start and state snapshot that begin a
//! migration, and the make-before-break flow flip that finishes it.

use super::{Controller, OutboundMessage};
use crate::dispatch::Serving;
use crate::flowmemory::IngressId;
use crate::health::BreakerState;
use crate::migrate::{Migration, MigrationReason};
use crate::rules::{Granularity, PairSpec};
use desim::{Duration, Sample, SimRng, SimTime};
use netsim::addr::Ipv4Addr;
use netsim::ServiceAddr;
use telemetry::{SpanId, Spans};

impl<S: Spans> Controller<S> {
    /// Books one served request's worth of session state for
    /// `(svc_addr, cluster)` — the harness calls this when an edge
    /// instance answers. A no-op while migration is off or stateless, so
    /// the hot path costs one branch by default.
    pub fn note_served(&mut self, svc_addr: ServiceAddr, cluster: usize) {
        self.synced(|ctl| ctl.state.migrate_mut().note_served(svc_addr, cluster));
    }

    /// Earliest instant an in-flight migration's flow flip becomes due
    /// (transfer landed *and* the warm-started target is ready). The
    /// harness schedules its migration tick from this, exactly like
    /// [`Controller::next_tick_at`] drives the idle sweep.
    pub fn next_migration_at(&self) -> Option<SimTime> {
        self.state.migrate().next_due()
    }

    /// Starts a live migration of `svc_addr`'s sessions from cluster
    /// `from` to `to` — the explicit API trigger; the mobility and
    /// breaker-open triggers funnel through here too. Warm-starts the
    /// target (pull/create/scale-up, whatever its state requires) and
    /// snapshots the session ledger; the make-before-break flow flip
    /// happens at [`Controller::migration_tick`] once both the state
    /// transfer and the warm start are done. Returns whether a migration
    /// actually started.
    pub fn begin_migration(
        &mut self,
        now: SimTime,
        svc_addr: ServiceAddr,
        from: usize,
        to: usize,
        reason: MigrationReason,
        rng: &mut SimRng,
    ) -> bool {
        self.synced(|ctl| {
            if !ctl.config.migration.live()
                || from >= ctl.clusters.len()
                || to >= ctl.clusters.len()
                || !ctl.state.migrate().can_start(svc_addr, from, to, now)
            {
                return false;
            }
            let Some(svc) = ctl.services.get_shared(svc_addr) else {
                return false;
            };
            if ctl.state.memory().entries_at(svc_addr, from).is_empty() {
                // Nothing anchored at the source: nothing worth moving.
                return false;
            }
            // Warm start: make sure the target will have a Ready instance.
            let Some(ready_at) = ctl.warm_start(to, &svc, now, rng) else {
                return false;
            };
            let (request, root) = ctl.open_request("migration", now);
            let m = ctl
                .state
                .migrate_mut()
                .begin(svc_addr, from, to, reason, now, ready_at, request);
            ctl.migration_spans.insert(request, root);
            ctl.telemetry.event(root, "snapshot", now, || {
                format!(
                    "{svc_addr}: cluster {from} -> {to} ({}), {} byte(s)",
                    reason.label(),
                    m.state_bytes
                )
            });
            ctl.telemetry
                .event(root, "transfer-done", m.transfer_done, || {
                    format!("state landed; warm target ready at {ready_at:?}")
                });
            ctl.telemetry.metrics.inc("migrations_total");
            true
        })
    }

    /// Flips every migration whose transfer (and warm start) completed by
    /// `now`: repoints the memorized flows at the new instance, installs
    /// wildcard redirects at each affected client's switch, and deletes
    /// the old pairs strictly later (the same make-before-break guard
    /// interval the handover uses). The FlowMods go to `out`, tagged with
    /// their ingress.
    pub fn migration_tick(&mut self, now: SimTime, rng: &mut SimRng, out: &mut Vec<(IngressId, OutboundMessage)>) {
        self.synced(|ctl| {
            let due = ctl.state.migrate_mut().take_due(now);
            for m in &due {
                ctl.finish_migration(m, now, rng, out);
            }
            ctl.state.migrate_mut().recycle_due(due);
        })
    }

    /// The make-before-break flow flip of one due migration.
    fn finish_migration(
        &mut self,
        m: &Migration,
        now: SimTime,
        rng: &mut SimRng,
        out: &mut Vec<(IngressId, OutboundMessage)>,
    ) {
        let root = self.migration_spans.remove(&m.request).unwrap_or(SpanId::NONE);
        let target = self.services.get(m.service);
        let new_inst = target
            .and_then(|svc| self.clusters.get(m.to)?.instance_addr(svc))
            .filter(|&inst| self.serving(m.to, m.service, inst, now) == Serving::Yes);
        let Some(new_inst) = new_inst else {
            // The warm start fell through — the target died or was scaled
            // away mid-transfer. State and flows stay at the source.
            self.state.migrate_mut().abort(m);
            self.telemetry.metrics.inc("migrations_aborted");
            self.telemetry.event(root, "aborted", now, || {
                "target not ready at flip time".to_owned()
            });
            return self.telemetry.end_span(root, now);
        };
        let t = now + self.processing.sample_duration(rng);
        let break_at = t + Duration::from_millis(50);
        let mut flipped = 0usize;
        let mut entries = std::mem::take(&mut self.handover_scratch);
        self.state.memory().entries_at_into(m.service, m.from, &mut entries);
        for (key, _) in entries.drain(..) {
            // Make: repoint the memorized flow, and — where the client's
            // port and MACs are known — install the wildcard redirect
            // toward the new instance, one priority below the exact flows
            // it shadows (the handover's pair shape, reused verbatim).
            self.state.memory_mut().repoint(&key, new_inst, m.to, t);
            flipped += 1;
            let client = key.client_ip;
            let macs = self.state.client_macs(client);
            let loc = self.state.clients().location(client);
            let mut replaced_fwd = None;
            if let (Some((client_mac, gw_mac)), Some((ingress, in_port))) = (macs, loc) {
                // A client mid-handover is owned by that path; only flip
                // the switch state where the flow's ingress is current.
                if ingress == key.ingress {
                    let spec = PairSpec {
                        granularity: Granularity::ClientService,
                        client,
                        src_port: 0,
                        client_mac,
                        gw_mac,
                        in_port,
                        service: m.service,
                    };
                    self.install(key.ingress, t, spec, Some((new_inst, m.to)), None, out);
                    // A leftover handover wildcard for the same client and
                    // service has this very forward match, so the ADD above
                    // already replaced it *in place* — the switch keys flows
                    // by `(match, priority)` — and the table's delete removes
                    // every priority with an equal match: deleting it below
                    // would take the fresh flow down with it. Its reverse
                    // flow (keyed by the old instance's address, so never
                    // colliding) is still deleted.
                    replaced_fwd = Some(spec.fwd_match());
                }
            }
            // Break, strictly later: the old pairs toward the source
            // outlive the installs by the guard interval, so replies to
            // requests still in flight find their reverse flows intact.
            self.teardown_pairs(
                client,
                key.ingress,
                |p| p.service() == m.service && p.cluster() == Some(m.from),
                replaced_fwd.as_ref(),
                break_at,
                out,
            );
        }
        self.handover_scratch = entries;
        let moved = self.state.migrate_mut().complete(m, t, flipped);
        let metrics = &mut self.telemetry.metrics;
        metrics.add("state_bytes_transferred", moved);
        metrics.add("migration_flows_flipped", flipped as u64);
        metrics.observe("migration_transfer_ns", m.transfer_done.saturating_since(m.started_at));
        metrics.observe("migration_interruption_ns", t.saturating_since(m.transfer_done));
        self.telemetry.event(root, "flip", t, || {
            format!(
                "{flipped} flow(s) repointed to cluster {}; {moved} byte(s) moved",
                m.to
            )
        });
        self.telemetry.end_span(root, t);
    }

    /// The breaker-open trigger: every service the FlowMemory still
    /// anchors on a cluster whose circuit breaker is Open is live-migrated
    /// to the nearest serving cluster — instance-granular (each service
    /// moves individually), never to the cloud. Call right after a health
    /// sweep; a no-op unless `migration.policy` is `live`. Returns how
    /// many migrations started.
    pub fn migrate_on_breaker_open(&mut self, now: SimTime, rng: &mut SimRng) -> usize {
        if !self.state.migrate().live() {
            return 0;
        }
        self.synced(|ctl| {
            let mut jobs: Vec<(ServiceAddr, usize)> = Vec::new();
            for (cluster, _inst, svc_addr) in ctl.state.memory().instances() {
                if ctl.state.health().breaker_state(cluster) == BreakerState::Open {
                    jobs.push((svc_addr, cluster));
                }
            }
            ctl.start_migrations(jobs, None, MigrationReason::BreakerOpen, now, rng)
        })
    }

    /// Scans the client's memorized flows after an announced move and
    /// starts a live migration for each session whose cluster fell at
    /// least `MOBILITY_HOPS` clusters behind the nearest candidate, as
    /// seen from the new ingress.
    pub(super) fn migrate_lagging_sessions(
        &mut self,
        now: SimTime,
        client: Ipv4Addr,
        ingress: IngressId,
        rng: &mut SimRng,
    ) {
        let near = Some(ingress);
        let n = self.clusters.len();
        let mut jobs: Vec<(ServiceAddr, usize)> = Vec::new();
        for (key, flow) in self.state.memory().flows_of_client_at(client, ingress) {
            if flow.cluster() >= n {
                continue;
            }
            let here = self.distance(near, flow.cluster());
            let closer = (0..n).filter(|&i| self.distance(near, i) < here).count();
            if closer >= crate::migrate::MOBILITY_HOPS {
                jobs.push((key.service, flow.cluster()));
            }
        }
        self.start_migrations(jobs, near, MigrationReason::Mobility, now, rng);
    }

    /// Starts one migration per distinct `(service, source cluster)` job
    /// toward its [`Controller::migration_target`], in sorted order (the
    /// FlowMemory's iteration order must not decide which starts first).
    /// Returns how many started.
    fn start_migrations(
        &mut self,
        mut jobs: Vec<(ServiceAddr, usize)>,
        near: Option<IngressId>,
        reason: MigrationReason,
        now: SimTime,
        rng: &mut SimRng,
    ) -> usize {
        jobs.sort_by_key(|(s, c)| (s.ip.octets(), s.port, *c));
        jobs.dedup();
        let mut started = 0usize;
        for (svc, from) in jobs {
            let Some(to) = self.migration_target(from, near, now) else {
                continue;
            };
            if self.begin_migration(now, svc, from, to, reason, rng) {
                started += 1;
            }
        }
        started
    }

    /// The migration-target choice: the cluster nearest to `near` (the
    /// ingress the sessions enter at, when one is known) that can serve —
    /// never one whose circuit breaker is Open or that sits in a declared
    /// outage window (the breaker-aware scheduler views enforce the same
    /// rule for dispatch).
    fn migration_target(
        &self,
        from: usize,
        near: Option<IngressId>,
        now: SimTime,
    ) -> Option<usize> {
        let health = self.state.health();
        (0..self.clusters.len())
            .filter(|&i| i != from)
            .filter(|&i| health.breaker_state(i) != BreakerState::Open && !health.in_outage(i, now))
            .min_by_key(|&i| self.distance(near, i))
    }
}
