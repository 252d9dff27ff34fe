//! The multi-gNB testbed as a [`Harness`]: N OpenFlow ingress switches
//! (gNBs), each fronting its own near-edge cluster zone, one controller
//! managing them all, and one long-lived pinging session per client. A
//! [`mobility::MobilityModel`] emits timed cell-attachment changes; each
//! change that crosses gNBs triggers the controller's make-before-break
//! handover ([`Controller::handle_attachment_change`]) under the configured
//! [`HandoverPolicy`].

use super::{Ev, Harness, Session, FIRST_SRC_PORT};
use crate::topology::MultiGnbTopology;
use desim::{Duration, Engine, FaultPlan, SimTime};
use dockersim::DockerEngine;
use edgectl::{
    Controller, ControllerConfig, DockerCluster, HandoverPolicy, IngressId, PortMap, RecoveryMode,
};
use mobility::MobilityModel;
use ovs::{Switch, SwitchConfig};
use std::collections::HashMap;
use telemetry::Spans;

/// Mobility harness configuration.
#[derive(Clone, Debug)]
pub struct MobilityConfig {
    /// Number of gNB ingress switches (= near-edge zones).
    pub n_gnbs: usize,
    /// Number of moving clients.
    pub n_clients: usize,
    /// Handover policy applied on every attachment change.
    pub policy: HandoverPolicy,
    /// Global Scheduler name (see [`edgectl::scheduler_by_name`]).
    pub scheduler: String,
    /// Controller configuration.
    pub controller: ControllerConfig,
    /// Interval between pings on each client's session.
    pub ping_interval: Duration,
    /// Simulation seed.
    pub seed: u64,
    /// Fault plan; only the *runtime* faults (`crash_while_serving`,
    /// `zone_outage`, `channel_loss`) are injected by this harness. At the
    /// default all-zero rates the harness schedules nothing and runs are
    /// byte-identical to a fault-free build.
    pub faults: FaultPlan,
    /// Client retransmit timer: a session whose SYN or ping has been
    /// unanswered this long resends it. `None` (the default) disables
    /// retransmission — fine for fault-free runs where nothing is ever
    /// lost, required under runtime chaos where a single lost segment
    /// would otherwise stall its session forever.
    pub retransmit: Option<Duration>,
    /// Restart mode applied when a `controller_crash` fault fires: warm
    /// replays the write-ahead journal, cold starts from empty state and
    /// leans on reconciliation. Ignored unless the plan schedules a crash.
    pub recovery: RecoveryMode,
    /// Per-message controller service time: switch→controller messages
    /// queue behind each other and each occupies the controller this long
    /// before its handling runs. `ZERO` (the default) processes messages
    /// instantly with no extra events — byte-identical to the historical
    /// behaviour. Non-zero makes control-plane congestion client-visible,
    /// which is what separates a warm restart (tables intact, no storm)
    /// from a cold one (a re-dispatch storm serialized through the
    /// controller).
    pub ctrl_service_time: Duration,
}

impl Default for MobilityConfig {
    fn default() -> Self {
        MobilityConfig {
            n_gnbs: 3,
            n_clients: 6,
            policy: HandoverPolicy::Anchored,
            scheduler: "proximity".to_owned(),
            controller: ControllerConfig::default(),
            ping_interval: Duration::from_millis(200),
            seed: 1,
            faults: FaultPlan::default(),
            retransmit: None,
            recovery: RecoveryMode::Warm,
            ctrl_service_time: Duration::ZERO,
        }
    }
}

impl<S: Spans> Harness<MultiGnbTopology, S> {
    /// Builds the testbed: topology, one switch per gNB, one Docker zone
    /// cluster per gNB (every gNB can reach every zone), the controller with
    /// per-ingress port maps and distances.
    pub fn new(config: MobilityConfig) -> Self {
        let net = MultiGnbTopology::build(config.n_gnbs, config.n_clients);
        let switches: Vec<Switch> = (0..config.n_gnbs)
            .map(|g| {
                Switch::new(SwitchConfig {
                    datapath_id: 0xC300 + g as u64,
                    n_buffers: 1024,
                    miss_send_len: 0xffff,
                    ports: net.gnb_ports(g),
                })
            })
            .collect();
        let scheduler =
            edgectl::scheduler_by_name(&config.scheduler).unwrap_or_else(|e| panic!("{e}"));
        let mut controller = Controller::with_spans(
            scheduler,
            PortMap {
                cluster_ports: HashMap::new(),
                cloud_port: net.cloud_ports[0].0,
            },
            config.controller.clone(),
        );
        for g in 1..config.n_gnbs {
            let id = controller.add_ingress(PortMap {
                cluster_ports: HashMap::new(),
                cloud_port: net.cloud_ports[g].0,
            });
            assert_eq!(id, IngressId(g as u32));
        }
        // One Docker zone cluster per gNB; every ingress maps a port to
        // every zone so anchored sessions stay reachable after a move.
        let zone_latency = Duration::from_micros(50);
        let metro = Duration::from_millis(2);
        for z in 0..config.n_gnbs {
            let mac = net.topo.node(net.zones[z]).mac;
            let ip = net.topo.node(net.zones[z]).ip;
            let name = format!("zone-{z}");
            controller.add_cluster(
                Box::new(DockerCluster::new(
                    &name,
                    DockerEngine::with_defaults(),
                    mac,
                    ip,
                    zone_latency,
                )),
                net.zone_ports[0][z].0,
            );
            for g in 0..config.n_gnbs {
                let ingress = IngressId(g as u32);
                controller.map_cluster_port(ingress, &name, net.zone_ports[g][z].0);
                // From gNB g, its own zone is a switch hop away; any other
                // zone sits across the metro aggregation link.
                let d = if g == z { zone_latency } else { metro + zone_latency };
                controller.set_ingress_distance(ingress, z, d);
            }
        }
        let mut tb = Harness::assemble(
            Engine::new(),
            net,
            switches,
            controller,
            config.n_clients,
            config.seed,
        );
        tb.policy = config.policy;
        tb.ping_interval = config.ping_interval;
        tb.faults = config.faults;
        tb.retransmit = config.retransmit;
        tb.recovery = config.recovery;
        tb.ctrl_service_time = config.ctrl_service_time;
        tb
    }

    /// Fully pre-deploys the service on zone `z` (pull + create + scale-up):
    /// mobility experiments start from a warm home zone so handover effects
    /// are not drowned in cold-start noise.
    pub fn pre_deploy_on(&mut self, z: usize) {
        self.pre_deploy(self.service.expect("service registered"), z);
    }

    /// Pre-pulls + pre-creates the service on every zone (images cached
    /// everywhere; redispatch pays only the scale-up).
    pub fn warm_all_zones(&mut self) {
        let addr = self.service.expect("service registered");
        for z in 0..self.net.zones.len() {
            self.on_cluster(addr, z, |cluster, svc, now, rng| {
                let t = cluster.pull(svc, now, rng).expect("warm: pull");
                cluster.create(svc, t, rng).expect("warm: create");
            });
        }
    }

    /// Runs the full scenario: seats every client at its model-given initial
    /// cell, starts one session per client at `start`, schedules the model's
    /// attachment changes, and drives the event loop until `deadline`.
    /// New pings stop two seconds before the deadline so in-flight ones
    /// drain. Returns the number of events processed.
    pub fn run(
        &mut self,
        model: &mut dyn MobilityModel,
        start: SimTime,
        deadline: SimTime,
    ) -> u64 {
        let n_clients = self.attachment.len();
        assert_eq!(
            model.n_clients(),
            n_clients,
            "model must cover every client"
        );
        let n_gnbs = self.switches.len();
        let addr = self.service.expect("service registered");
        let (request_bytes, expected_bytes) = (self.request_bytes(addr), self.answer_bytes(addr));
        for c in 0..n_clients {
            self.attachment[c] = model.initial_cell(c) % n_gnbs;
            self.sessions.push(Session {
                service: addr,
                src_port: FIRST_SRC_PORT + c as u16,
                syn_sent: None,
                template: None,
                outstanding: None,
                pending_bytes: 0,
                expected_bytes,
                request_bytes,
                pings_sent: 0,
                pings_done: 0,
                rtts: Vec::new(),
                first_done_after_restart: None,
            });
            // Stagger session starts so the initial deployment burst is a
            // ramp, not a thundering herd.
            let at = start + Duration::from_millis(50) * c as u64;
            self.engine.schedule_at(at, Ev::StartSession { client: c });
        }
        // Last ping no later than two seconds before the deadline, so
        // whatever is in flight when we stop sending still drains.
        self.ping_end =
            SimTime::ZERO + deadline.saturating_since(SimTime::ZERO + Duration::from_secs(2));
        for ev in model.events(deadline.saturating_since(SimTime::ZERO)) {
            self.engine.schedule_at(ev.at, Ev::Attach(ev));
        }
        self.schedule_runtime_faults(start, deadline);
        self.run_until(deadline)
    }

    /// Draws the run's runtime faults from the plan and schedules them.
    /// With all runtime rates at zero this neither draws randomness nor
    /// schedules anything, so fault-free runs stay byte-identical.
    fn schedule_runtime_faults(&mut self, start: SimTime, deadline: SimTime) {
        if !self.faults.runtime_enabled() {
            return;
        }
        let window = deadline.saturating_since(start);
        let at_pos = |pos: f64| start + window.mul_f64(pos);
        for z in 0..self.net.zones.len() {
            if let Some(pos) = self.faults.injector(100 + z as u64).crashes_while_serving() {
                self.engine.schedule_at(at_pos(pos), Ev::CrashZone { zone: z });
            }
            if let Some((pos, dur)) = self.faults.injector(200 + z as u64).zone_outage() {
                let begin = at_pos(pos);
                self.engine.schedule_at(begin, Ev::OutageBegin { zone: z, until: begin + dur });
            }
        }
        for g in 0..self.switches.len() {
            if let Some((pos, delay)) = self.faults.injector(300 + g as u64).channel_drops() {
                let down = at_pos(pos);
                self.engine.schedule_at(down, Ev::ChannelDown { sw: g, until: down + delay });
            }
        }
        // One controller process, one crash draw per run.
        if let Some((pos, delay)) = self.faults.injector(400).controller_crashes() {
            let down = at_pos(pos);
            self.engine.schedule_at(down, Ev::ControllerCrash { restart_at: down + delay });
        }
        // The detection loop and the client retransmit timer only run under
        // chaos; without faults they would fire, observe nothing, and change
        // the event interleaving for nothing.
        self.engine.schedule_at(start + edgectl::DETECT_INTERVAL, Ev::HealthTick);
        if let Some(rto) = self.retransmit {
            self.engine.schedule_at(start + rto, Ev::RetransmitCheck);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MobilityTestbed;
    use mobility::{CellHops, Static};
    use netsim::{Ipv4Addr, ServiceAddr};

    fn setup(policy: HandoverPolicy, seed: u64) -> MobilityTestbed {
        let mut tb = MobilityTestbed::new(MobilityConfig {
            policy,
            n_gnbs: 3,
            n_clients: 3,
            seed,
            ..MobilityConfig::default()
        });
        let profile = containerd::ServiceSet::by_key("asm").unwrap();
        tb.register_service(profile, ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80));
        tb.warm_all_zones();
        tb.pre_deploy_on(0);
        tb
    }

    #[test]
    fn static_clients_never_hand_over_and_lose_nothing() {
        let mut tb = setup(HandoverPolicy::Anchored, 1);
        let mut model = Static::round_robin(3, 3);
        tb.run(&mut model, SimTime::from_secs(1), SimTime::from_secs(20));
        assert!(tb.handovers.is_empty());
        assert!(tb.pings_sent() > 50, "sessions ping steadily");
        assert_eq!(tb.pings_sent(), tb.pings_done(), "no ping lost");
        assert_eq!(tb.drops, 0);
        assert_eq!(tb.double_answered, 0);
        assert_eq!(tb.transparency_violations, 0);
    }

    fn hop_run(policy: HandoverPolicy) -> MobilityTestbed {
        let mut tb = setup(policy, 2);
        // Client 0 hops 0 → 1 → 2; the others stay put.
        let mut model = CellHops::new(
            vec![0, 1, 2],
            &[
                (SimTime::from_secs(6), 0, 1),
                (SimTime::from_secs(12), 0, 2),
            ],
        );
        tb.run(&mut model, SimTime::from_secs(1), SimTime::from_secs(20));
        tb
    }

    #[test]
    fn anchored_handover_keeps_every_ping() {
        let tb = hop_run(HandoverPolicy::Anchored);
        assert_eq!(tb.handovers.len(), 2);
        assert_eq!(tb.handovers[0].client, 0);
        assert_eq!((tb.handovers[0].from, tb.handovers[0].to), (0, 1));
        assert!(tb.handovers.iter().all(|h| h.redispatched == 0));
        assert!(tb.handovers.iter().all(|h| h.flows_migrated >= 1));
        assert_eq!(tb.pings_sent(), tb.pings_done(), "session continuity");
        assert_eq!(tb.drops, 0);
        assert_eq!(tb.double_answered, 0);
        assert_eq!(tb.transparency_violations, 0);
        assert_eq!(
            tb.controller.telemetry.metrics.counter("handovers_total"),
            2
        );
    }

    #[test]
    fn redispatch_handover_moves_the_session_to_the_new_zone() {
        let tb = hop_run(HandoverPolicy::Redispatch);
        assert_eq!(tb.handovers.len(), 2);
        assert!(tb.handovers.iter().all(|h| h.redispatched >= 1));
        assert_eq!(tb.pings_sent(), tb.pings_done(), "session continuity");
        assert_eq!(tb.drops, 0);
        assert_eq!(tb.double_answered, 0);
        assert_eq!(tb.transparency_violations, 0);
        // The session ended up served by a cluster other than zone 0.
        let ip = tb.topology().client_ip(0);
        let flows = tb.controller.memory().flows_of_client_at(ip, IngressId(2));
        assert_eq!(flows.len(), 1, "memory keyed to the final ingress");
        assert_ne!(flows[0].1.cluster, 0, "re-placed off the home zone");
    }

    #[test]
    fn anchored_steady_state_is_slower_than_redispatch_after_move() {
        // After moving away, an anchored session crosses the metro link on
        // every ping; a redispatched one is served by the local zone again.
        let anchored = hop_run(HandoverPolicy::Anchored);
        let redispatched = hop_run(HandoverPolicy::Redispatch);
        let tail = |tb: &MobilityTestbed| {
            let r = &tb.sessions[0].rtts;
            let last = &r[r.len().saturating_sub(5)..];
            last.iter().map(|d| d.as_secs_f64()).sum::<f64>() / last.len() as f64
        };
        assert!(
            tail(&anchored) > tail(&redispatched),
            "anchored {:.6}s vs redispatch {:.6}s",
            tail(&anchored),
            tail(&redispatched)
        );
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = hop_run(HandoverPolicy::Anchored);
        let b = hop_run(HandoverPolicy::Anchored);
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    fn fingerprint(tb: &MobilityTestbed) -> (u64, Vec<(u64, u64)>, Vec<f64>) {
        (
            tb.pings_done(),
            tb.handovers
                .iter()
                .map(|h| (h.at.as_nanos(), h.completed_at.as_nanos()))
                .collect::<Vec<_>>(),
            tb.rtts_secs(),
        )
    }

    fn chaos_run(faults: FaultPlan, retransmit: Option<Duration>) -> MobilityTestbed {
        let mut tb = MobilityTestbed::new(MobilityConfig {
            policy: HandoverPolicy::Anchored,
            n_gnbs: 3,
            n_clients: 3,
            seed: 2,
            faults,
            retransmit,
            ..MobilityConfig::default()
        });
        let profile = containerd::ServiceSet::by_key("asm").unwrap();
        tb.register_service(profile, ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80));
        tb.warm_all_zones();
        tb.pre_deploy_on(0);
        let mut model = CellHops::new(
            vec![0, 1, 2],
            &[
                (SimTime::from_secs(6), 0, 1),
                (SimTime::from_secs(12), 0, 2),
            ],
        );
        tb.run(&mut model, SimTime::from_secs(1), SimTime::from_secs(20));
        tb
    }

    /// Satellite 3b at the harness level: a runtime fault plan with every
    /// rate at zero draws no randomness and schedules nothing — the run is
    /// indistinguishable from one with no plan at all.
    #[test]
    fn zero_rate_runtime_plan_is_inert() {
        let plain = hop_run(HandoverPolicy::Anchored);
        let zeroed = chaos_run(FaultPlan::runtime(0.0, 0xDEAD_BEEF), None);
        assert_eq!(fingerprint(&plain), fingerprint(&zeroed));
        assert_eq!(zeroed.instance_crashes, 0);
        assert_eq!(zeroed.zone_outages, 0);
        assert_eq!(zeroed.channel_losses, 0);
        assert_eq!(zeroed.ctrl_dropped, 0);
        assert_eq!(zeroed.retransmits, 0);
        assert_eq!(zeroed.controller_crashes, 0);
        assert!(zeroed.recovery_report.is_none());
    }

    /// Full runtime chaos — crashes, zone outages, channel drops all firing
    /// — and every session still finishes: repairs + breaker + retransmits
    /// mean nothing is permanently stranded, and reconciliation converges.
    #[test]
    fn runtime_chaos_strands_no_session_and_reconciles_clean() {
        let mut tb = chaos_run(FaultPlan::runtime(1.0, 7), Some(Duration::from_secs(1)));
        // At rate 1 every zone outage and every channel loss fires.
        assert_eq!(tb.zone_outages, 3);
        assert_eq!(tb.channel_losses, 3);
        // Let recovery settle well past the last reconnect window.
        tb.run_until(SimTime::from_secs(40));
        assert_eq!(tb.stranded(), 0, "no session permanently stranded");
        assert!(tb.pings_done() > 0);
        // Post-run the switch tables diff clean against the bookkeeping:
        // one pass applies any leftover fixes, the second finds none.
        tb.reconcile_now();
        assert_eq!(tb.reconcile_now(), 0, "tables converged to bookkeeping");
    }

    /// Failure during handover must not strand the moving session: crash
    /// the home instance right as its client hops gNBs.
    #[test]
    fn crash_during_handover_does_not_strand_the_flow() {
        let mut tb2 = MobilityTestbed::new(MobilityConfig {
            policy: HandoverPolicy::Anchored,
            n_gnbs: 3,
            n_clients: 3,
            seed: 2,
            retransmit: Some(Duration::from_secs(1)),
            ..MobilityConfig::default()
        });
        let profile = containerd::ServiceSet::by_key("asm").unwrap();
        let addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80);
        tb2.register_service(profile, addr);
        tb2.warm_all_zones();
        tb2.pre_deploy_on(0);
        let mut model = CellHops::new(
            vec![0, 1, 2],
            &[(SimTime::from_secs(6), 0, 1)],
        );
        // Run up to just past the hop, crash the anchor zone's instance
        // exactly then, and keep running with the health loop active.
        tb2.engine.schedule_at(SimTime::from_secs(6), Ev::CrashZone { zone: 0 });
        tb2.engine.schedule_at(
            SimTime::from_secs(1) + edgectl::DETECT_INTERVAL,
            Ev::HealthTick,
        );
        tb2.engine.schedule_at(SimTime::from_secs(2), Ev::RetransmitCheck);
        tb2.run(&mut model, SimTime::from_secs(1), SimTime::from_secs(20));
        tb2.run_until(SimTime::from_secs(30));
        assert_eq!(tb2.instance_crashes, 1, "the crash was injected");
        assert_eq!(tb2.stranded(), 0, "the moving session recovered");
        assert_eq!(tb2.transparency_violations, 0);
        tb2.reconcile_now();
        assert_eq!(tb2.reconcile_now(), 0);
    }

    /// Tentpole: the controller process crashes mid-run. Switches keep
    /// forwarding on installed rules through the blackout; on restart the
    /// controller recovers (warm journal replay or cold empty start),
    /// reconciles, and no session is permanently stranded in either mode.
    #[test]
    fn controller_crash_blackout_recovers_and_strands_no_session() {
        for (mode, journal_on) in [(RecoveryMode::Warm, true), (RecoveryMode::Cold, false)] {
            let controller = ControllerConfig {
                journal: edgectl::JournalConfig {
                    enabled: journal_on,
                    snapshot_every: 32,
                },
                ..ControllerConfig::default()
            };
            let mut tb = MobilityTestbed::new(MobilityConfig {
                policy: HandoverPolicy::Anchored,
                n_gnbs: 3,
                n_clients: 3,
                seed: 2,
                controller,
                faults: FaultPlan {
                    controller_crash: 1.0,
                    seed: 11,
                    ..FaultPlan::default()
                },
                retransmit: Some(Duration::from_secs(1)),
                recovery: mode,
                ..MobilityConfig::default()
            });
            let profile = containerd::ServiceSet::by_key("asm").unwrap();
            tb.register_service(profile, ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80));
            tb.warm_all_zones();
            tb.pre_deploy_on(0);
            let mut model = CellHops::new(
                vec![0, 1, 2],
                &[
                    (SimTime::from_secs(6), 0, 1),
                    (SimTime::from_secs(12), 0, 2),
                ],
            );
            tb.run(&mut model, SimTime::from_secs(1), SimTime::from_secs(20));
            tb.run_until(SimTime::from_secs(40));
            assert_eq!(tb.controller_crashes, 1, "{mode:?}: the crash fired");
            assert!(tb.blackout > Duration::ZERO, "{mode:?}: a real blackout");
            let report = tb.recovery_report.expect("the controller restarted");
            assert_eq!(report.mode, mode);
            if journal_on {
                assert!(
                    report.replayed_events + report.snapshot_entries > 0,
                    "warm restart recovered state from the journal"
                );
            }
            assert_eq!(tb.stranded(), 0, "{mode:?}: no session permanently stranded");
            assert_eq!(tb.transparency_violations, 0);
            assert!(!tb.recovery_times_secs().is_empty(), "recovery was measured");
            tb.reconcile_now();
            assert_eq!(tb.reconcile_now(), 0, "{mode:?}: tables converged");
        }
    }

    fn live_setup(state_bytes: u64, bandwidth_bps: u64, seed: u64) -> MobilityTestbed {
        let controller = ControllerConfig {
            migration: edgectl::MigrationConfig {
                policy: edgectl::MigrationPolicy::Live,
                state_bytes_per_request: state_bytes,
                transfer_bandwidth_bps: bandwidth_bps,
            },
            ..ControllerConfig::default()
        };
        let mut tb = MobilityTestbed::new(MobilityConfig {
            policy: HandoverPolicy::Anchored,
            n_gnbs: 3,
            n_clients: 3,
            seed,
            controller,
            ..MobilityConfig::default()
        });
        let profile = containerd::ServiceSet::by_key("asm").unwrap();
        tb.register_service(profile, ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80));
        tb.warm_all_zones();
        tb.pre_deploy_on(0);
        tb
    }

    /// Live migration follows the moving client: the mobility trigger
    /// fires after each hop, session state lands at the nearer zone, and
    /// the session never misses a ping.
    #[test]
    fn live_migration_follows_the_client_and_loses_nothing() {
        let mut tb = live_setup(512, 10_000_000_000, 2);
        let mut model = CellHops::new(
            vec![0, 1, 2],
            &[
                (SimTime::from_secs(6), 0, 1),
                (SimTime::from_secs(12), 0, 2),
            ],
        );
        tb.run(&mut model, SimTime::from_secs(1), SimTime::from_secs(20));
        let records = &tb.controller.migrate().records;
        assert!(!records.is_empty(), "the mobility trigger fired");
        assert!(records
            .iter()
            .all(|r| r.reason == edgectl::MigrationReason::Mobility));
        assert!(records[0].state_bytes > 0, "state accrued before the move");
        assert!(records[0].flows_flipped >= 1);
        // The session ended where the client is, not at the home zone.
        let ip = tb.topology().client_ip(0);
        let flows = tb.controller.memory().flows_of_client_at(ip, IngressId(2));
        assert_eq!(flows.len(), 1);
        assert_ne!(flows[0].1.cluster, 0, "state followed the client");
        // Make-before-break: session continuity is unconditional.
        assert_eq!(tb.pings_sent(), tb.pings_done(), "no ping lost");
        assert_eq!(tb.drops, 0);
        assert_eq!(tb.double_answered, 0);
        assert_eq!(tb.transparency_violations, 0);
        assert!(tb.controller.telemetry.metrics.counter("migrations_total") >= 1);
        assert_eq!(tb.controller.migrate().aborted, 0);
    }

    /// Satellite 3, degenerate case: at state size zero a live migration
    /// is pure flow flipping — the transfer is a bare propagation delay,
    /// zero bytes move, and the continuity guarantees are exactly the
    /// handover's (zero dropped pings).
    #[test]
    fn live_migration_at_state_zero_matches_handover_guarantees() {
        let mut tb = live_setup(0, 10_000_000_000, 2);
        let mut model = CellHops::new(
            vec![0, 1, 2],
            &[
                (SimTime::from_secs(6), 0, 1),
                (SimTime::from_secs(12), 0, 2),
            ],
        );
        tb.run(&mut model, SimTime::from_secs(1), SimTime::from_secs(20));
        let records = &tb.controller.migrate().records;
        assert!(!records.is_empty(), "migrations still run at state zero");
        for r in records {
            assert_eq!(r.state_bytes, 0);
            assert_eq!(
                r.transfer_time(),
                edgectl::migrate::TRANSFER_PROPAGATION,
                "zero bytes: the transfer is pure propagation"
            );
        }
        assert_eq!(tb.controller.migrate().ledger().total(), 0);
        assert_eq!(tb.pings_sent(), tb.pings_done(), "zero dropped pings");
        assert_eq!(tb.drops, 0);
        assert_eq!(tb.transparency_violations, 0);
    }

    /// Satellite 1: a crash injected *during* the state transfer must not
    /// leave the migration wedged or the session stranded — the health
    /// sweep aborts the migration first (lifting the pin), then repairs
    /// the dead instance, and the session re-dispatches cleanly.
    #[test]
    fn crash_during_migration_transfer_aborts_and_recovers() {
        // ~25 pings by the 6 s hop at 20 kB each ≈ 500 kB of state; at
        // 1 Mb/s the transfer takes ≈ 4 s, so a crash at 7 s lands mid-
        // transfer with certainty.
        let mut tb = live_setup(20_000, 1_000_000, 2);
        tb.retransmit = Some(Duration::from_secs(1));
        let mut model = CellHops::new(vec![0, 1, 2], &[(SimTime::from_secs(6), 0, 1)]);
        tb.engine.schedule_at(SimTime::from_secs(7), Ev::CrashZone { zone: 0 });
        tb.engine.schedule_at(
            SimTime::from_secs(1) + edgectl::DETECT_INTERVAL,
            Ev::HealthTick,
        );
        tb.engine.schedule_at(SimTime::from_secs(2), Ev::RetransmitCheck);
        tb.run(&mut model, SimTime::from_secs(1), SimTime::from_secs(20));
        tb.run_until(SimTime::from_secs(30));
        assert_eq!(tb.instance_crashes, 1, "the crash was injected");
        assert!(
            tb.controller.telemetry.metrics.counter("migrations_total") >= 1,
            "a migration was in flight"
        );
        assert!(tb.controller.migrate().aborted >= 1, "it was aborted, not wedged");
        assert!(tb.controller.migrate().active().is_empty(), "the pin lifted");
        assert_eq!(tb.stranded(), 0, "the session recovered via redispatch");
        assert_eq!(tb.transparency_violations, 0);
        tb.reconcile_now();
        assert_eq!(tb.reconcile_now(), 0, "tables converged to bookkeeping");
    }
}
