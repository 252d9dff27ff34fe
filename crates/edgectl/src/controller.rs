//! The SDN controller: OpenFlow packet-in handling, redirect flow
//! installation, buffered-packet release, and idle scale-down.
//!
//! The controller speaks real OpenFlow bytes on its switch channel. For each
//! table-miss `PACKET_IN` to a registered service it runs the Dispatcher and
//! answers — possibly later, for on-demand deployment *with waiting* — with:
//!
//! * a **forward flow**: match the client connection to the service address,
//!   rewrite MAC/IP/port toward the chosen instance, output toward its
//!   cluster (releasing the buffered packet through the new flow);
//! * a **reverse flow**: match the instance's replies to this client and
//!   rewrite the source back to the registered cloud address — the client
//!   never learns the edge exists.
//!
//! Expired switch flows (`FLOW_REMOVED`) and the controller's own FlowMemory
//! timeouts feed the idle-service scale-down (Section V).
//!
//! This file is the request path: construction, journal plumbing, decode →
//! packet-in / flow-removed / attachment-change → [`Controller::install`] →
//! emit. The other subsystems are `impl Controller` blocks in child modules,
//! which see the private fields here: self-healing in `repair`, live
//! migration in `migration`, and holds, the idle sweep, proactive deployment
//! and autoscaling in `lifecycle`. What they share lives here too — above
//! all [`Controller::serving`], the one answer to "is this redirect still
//! served?".
//!
//! Two things keep these files honest. Everything a crashed controller can get
//! back lives in one [`ControlState`], changed only through
//! [`Controller::commit`] (or its self-logging components), so what runs live
//! is what the journal replays. And every pair that reaches a switch is built
//! by [`crate::rules`] and sent by [`Controller::install`]; every deletion by
//! [`Controller::flow_delete`].

mod lifecycle;
mod migration;
mod repair;

use crate::autoscale::LoadTracker;
use crate::cluster::{EdgeCluster, InstanceAddr};
use crate::dispatch::{DispatchDecision, DispatchOutcome, Dispatcher, Serving};
use crate::flowmemory::{FlowKey, FlowMemory, IngressId, MemorizedFlow};
use crate::health::BreakerState;
use crate::journal::{
    Applied, ControlState, Journal, JournalConfig, JournalEvent, JournalStats, RecoveryMode,
    RecoveryReport, Snapshot, StateStats,
};
use crate::migrate::{MigrationConfig, MigrationManager};
use crate::requests::{DeploymentLog, DeploymentTimes, RequestRecord};
pub use crate::requests::RequestKind;
use crate::rules::{
    self, AggregateRule, Granularity, InstalledFlow, PairSpec, Target, AGGREGATE_CLIENT,
};
use crate::scheduler::{GlobalScheduler, RequestClass};
use crate::service::EdgeService;
use desim::{Duration, FastMap, LogNormal, Sample, SimRng, SimTime};
use netsim::addr::{Ipv4Addr, MacAddr};
use netsim::{FramePool, ServiceAddr, TcpFrame};
use openflow::messages::Message;
use openflow::oxm::{Match, OxmField};
use openflow::{OfError, OFP_NO_BUFFER};
use std::collections::HashMap;
use telemetry::{Off, SpanId, Spans, Telemetry};

/// Maps clusters and the cloud to switch egress ports.
#[derive(Clone, Debug, Default)]
pub struct PortMap {
    /// Cluster name → switch port leading to it.
    pub cluster_ports: HashMap<String, u32>,
    /// Port toward the cloud uplink.
    pub cloud_port: u32,
}

/// One ingress switch (gNB): its port map, and per cluster the latency from
/// here where it differs from the cluster's advertised one.
struct Ingress {
    ports: PortMap,
    distances: Vec<Option<Duration>>,
}

/// Priority of installed redirect flows.
pub const FLOW_PRIORITY: u16 = 100;

/// Controller configuration; a run sets it as a struct literal over the
/// defaults (DESIGN.md "Configuration").
#[derive(Clone, Debug, PartialEq)]
pub struct ControllerConfig {
    /// Idle timeout installed into switch flows (kept low; the FlowMemory
    /// remembers longer).
    pub switch_flow_idle: Duration,
    /// FlowMemory idle timeout (drives idle scale-down).
    pub memory_idle: Duration,
    /// Remove a scaled-down service entirely (delete containers /
    /// Deployment+Service) after this long without a redeploy — the paper's
    /// **Remove** phase. `None` keeps created-but-stopped services around
    /// (cheap, faster next scale-up).
    pub remove_after: Option<Duration>,
    /// Install one aggregated wildcard rewrite pair per
    /// `(service, ingress, instance)` instead of an exact-match pair per
    /// client connection, whenever the scheduler decision is shared. Keeps
    /// the switch table size proportional to the service catalogue, not the
    /// client population. Off by default: exact pairs are the reference
    /// behavior and every published figure is produced with them.
    pub aggregate_rules: bool,
    /// Keep a [`RequestRecord`] per packet-in for the evaluation harness.
    /// Metrics counters are always maintained; turning this off removes the
    /// per-request allocation and unbounded retention, which matters when a
    /// fleet-scale run pushes 10M+ packet-ins through one controller.
    pub record_requests: bool,
    /// Per-instance queueing and horizontal autoscaling, policy fixed in
    /// [`crate::autoscale`]. Off by default: the dispatch path never consults
    /// the load tracker then, and every published figure stays byte-identical.
    pub autoscale: bool,
    /// Live stateful migration between zones. Off by default
    /// ([`MigrationPolicy::Anchored`](crate::MigrationPolicy::Anchored), zero
    /// state per request): no ledger entry is ever written, no migration
    /// ever starts, and every published figure stays byte-identical.
    pub migration: MigrationConfig,
    /// Crash-recovery write-ahead journal.
    /// Off by default: no component logs ops, no event is ever recorded,
    /// and every published figure stays byte-identical.
    pub journal: JournalConfig,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            switch_flow_idle: Duration::from_secs(10),
            memory_idle: Duration::from_secs(60),
            remove_after: None,
            aggregate_rules: false,
            record_requests: true,
            autoscale: false,
            migration: MigrationConfig::default(),
            journal: JournalConfig::default(),
        }
    }
}

/// An OpenFlow message scheduled toward the switch at a given instant
/// (possibly later than the triggering event: the *with waiting* hold).
#[derive(Clone, Debug, PartialEq)]
pub struct OutboundMessage {
    /// When the controller emits it.
    pub at: SimTime,
    /// Encoded OpenFlow bytes, in a buffer [`Controller::recycle`] takes back.
    pub data: Vec<u8>,
}

/// How the controller treats a client's live sessions when it hands them
/// over to a new ingress (gNB).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HandoverPolicy {
    /// Keep each session anchored to the instance that already serves it
    /// (the old zone's edge), as long as that instance is still up; only
    /// sessions whose instance vanished are re-dispatched. Zero service-side
    /// state moves, at the cost of a longer data path through the new gNB.
    Anchored,
    /// Re-place every session through the Global Scheduler (with a
    /// [`RequestClass::Handover`] context and distances measured from the
    /// **new** ingress), re-using the on-demand deployment pipeline when the
    /// new zone has no instance yet.
    Redispatch,
}

impl HandoverPolicy {
    /// Short lowercase label (`"anchored"` / `"redispatch"`).
    pub fn label(self) -> &'static str {
        match self {
            HandoverPolicy::Anchored => "anchored",
            HandoverPolicy::Redispatch => "redispatch",
        }
    }
}

/// Result of one attachment-change handover.
#[derive(Clone, Debug)]
pub struct HandoverOutcome {
    /// When the attachment change was reported.
    pub at: SimTime,
    /// When every migrated session had its flows installed at the new
    /// ingress — the make-before-break point; `completed_at - at` is the
    /// control-plane interruption the session observed.
    pub completed_at: SimTime,
    /// Sessions migrated to the new ingress (anchored + re-dispatched).
    pub flows_migrated: usize,
    /// Of those, sessions the scheduler re-placed (possibly on a new
    /// cluster) rather than kept anchored.
    pub redispatched: usize,
    /// The messages, tagged with their switch, from [`Controller::handle_attachment_change`]
    /// only: [`Controller::handle_attachment_change_into`] appends them to its sink.
    pub messages: Vec<(IngressId, OutboundMessage)>,
}

/// A control-plane inconsistency the controller detected and survived
/// (instead of panicking): the affected request degrades gracefully — a
/// redirect with no usable egress port becomes a cloud forward — and the
/// condition is recorded here for diagnostics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControlPlaneError {
    /// No egress port is mapped toward `cluster` on `ingress` (a PortMap
    /// misconfiguration); the session was forwarded to the cloud instead.
    MissingClusterPort {
        /// The ingress whose port map lacks the cluster.
        ingress: IngressId,
        /// The unroutable cluster index.
        cluster: usize,
    },
    /// A switch message or handover named an ingress the controller does
    /// not manage; nothing was installed for it.
    UnknownIngress {
        /// The unknown ingress id.
        ingress: IngressId,
    },
    /// A packet that came up unbuffered is too large to carry back in one
    /// `PACKET_OUT`; it was dropped (its flows are installed regardless).
    OversizePacketOut {
        /// The ingress whose packet was dropped.
        ingress: IngressId,
    },
    /// A packet-in carried no decodable TCP/IPv4 frame (typically a segment
    /// truncated to `miss_send_len`); its switch buffer was released unused.
    UndecodablePacketIn {
        /// The ingress that reported the packet.
        ingress: IngressId,
    },
}

/// Where a pair sends the client's traffic before port resolution: an
/// instance on a cluster, or (`None`) the cloud.
type Placement = Option<(InstanceAddr, usize)>;

/// The packet behind a packet-in: the switch's buffer id for it (or
/// [`OFP_NO_BUFFER`]) and the packet itself.
type Release<'a> = (u32, &'a TcpFrame);

/// The transparent-edge SDN controller, recording spans into `S`.
pub struct Controller<S: Spans = Off> {
    services: crate::service::ServiceRegistry,
    clusters: Vec<Box<dyn EdgeCluster>>,
    dispatcher: Dispatcher,
    /// Everything a warm restart recovers: FlowMemory, installed pairs,
    /// aggregates, scale-down ledger, client locations and MACs, breakers,
    /// migrations. Mutated through [`Controller::commit`] only (its three
    /// self-logging components aside).
    state: ControlState,
    /// Per-ingress port maps and distances; index = [`IngressId`]. The seed
    /// deployment's single switch lives at ingress 0.
    ingresses: Vec<Ingress>,
    flow_adds: u64,
    config: ControllerConfig,
    next_xid: u32,
    /// Spare buffers the messages toward the switches are encoded into.
    spare: FramePool,
    /// Per-request records (the harness reads these).
    pub records: Vec<RequestRecord>,
    /// The deployments the records name ([`Controller::deployment`]).
    deployments: DeploymentLog,
    /// Requests currently held for a with-waiting deployment, by
    /// (service, cluster): the latest release instant. The idle sweep must
    /// not scale a service down while such a hold is pending — the held
    /// client would be redirected to a stopped instance.
    held: FastMap<(ServiceAddr, usize), SimTime>,
    /// Idle expiries deferred because a held request pinned the service;
    /// re-examined once the hold drains.
    deferred: FastMap<(ServiceAddr, usize), SimTime>,
    /// Telemetry endpoint: spans as `S` records them (none for [`Off`]);
    /// metric counters always.
    pub telemetry: Telemetry<S>,
    /// Request ids handed to spans; each packet-in gets the id its record
    /// will have (index + 1).
    next_request: u64,
    /// When each instance crashed (fault injection), so the repair sweep's
    /// `stale_redirect_repair_ns` histogram measures crash→repair latency.
    crash_records: FastMap<InstanceAddr, SimTime>,
    /// Recycled buffer of a handover: the sessions it moves.
    handover_scratch: Vec<(FlowKey, MemorizedFlow)>,
    /// Recycled buffer of the idle sweep: the `(service, cluster)`s whose
    /// last memorized flow expired.
    idle_scratch: Vec<(ServiceAddr, usize)>,
    /// Recycled work list of the health sweep, and the name of each
    /// cluster's `breaker_state.{i}` gauge, made when the cluster is added.
    sweep_scratch: Vec<(usize, InstanceAddr, ServiceAddr)>,
    breaker_gauges: Vec<String>,
    /// Open telemetry spans of in-flight migrations, by request id.
    migration_spans: FastMap<u64, SpanId>,
    /// The crash-recovery write-ahead journal (inert unless
    /// `config.journal.enabled`).
    journal: Journal,
    control_errors: Vec<ControlPlaneError>,
    /// Packet-in processing latency.
    processing: LogNormal,
}

impl Controller {
    /// Creates a controller with the given Global Scheduler that records no spans.
    pub fn new(sched: Box<dyn GlobalScheduler>, ports: PortMap, config: ControllerConfig) -> Self {
        Controller::with_spans(sched, ports, config)
    }
}

impl<S: Spans> Controller<S> {
    /// Creates a controller with the given Global Scheduler, recording spans into `S`.
    pub fn with_spans(
        scheduler: Box<dyn GlobalScheduler>,
        ports: PortMap,
        config: ControllerConfig,
    ) -> Self {
        let mut dispatcher = Dispatcher::new(scheduler);
        dispatcher.load_mut().set_enabled(config.autoscale);
        let journal = Journal::new(config.journal);
        let mut state = ControlState::new(&config);
        state.set_logging(journal.enabled());
        Controller {
            services: crate::service::ServiceRegistry::new(),
            clusters: Vec::new(),
            dispatcher,
            state,
            ingresses: vec![Ingress { ports, distances: Vec::new() }],
            flow_adds: 0,
            config,
            next_xid: 1,
            spare: FramePool::new(),
            records: Vec::new(),
            deployments: DeploymentLog::default(),
            held: FastMap::default(),
            deferred: FastMap::default(),
            telemetry: Telemetry::default(),
            next_request: 0,
            crash_records: FastMap::default(),
            handover_scratch: Vec::new(),
            idle_scratch: Vec::new(),
            sweep_scratch: Vec::new(),
            breaker_gauges: Vec::new(),
            migration_spans: FastMap::default(),
            journal,
            control_errors: Vec::new(),
            processing: LogNormal::from_median(0.0015, 0.30),
        }
    }

    /// How many requests coalesced onto an already-failed deployment
    /// (single-flight hits in the dispatcher).
    pub fn coalesced_count(&self) -> u64 {
        self.dispatcher.coalesced_count()
    }

    /// `FLOW_MOD` Adds sent: the table space claimed (`repro scale` reads it).
    pub fn flow_adds(&self) -> u64 {
        self.flow_adds
    }

    /// `FLOW_REMOVED` notifications seen (the `flows_removed` counter).
    pub fn flows_removed(&self) -> u64 {
        self.telemetry.metrics.counter("flows_removed")
    }

    /// Control-plane inconsistencies survived (see [`ControlPlaneError`]).
    pub fn control_errors(&self) -> &[ControlPlaneError] {
        &self.control_errors
    }

    /// Sizes of the bookkeeping: a long run must not let them drift.
    pub fn state_stats(&self) -> StateStats {
        self.state.state_stats()
    }

    /// Applies one controller-level event to the state and, while the
    /// journal is on, appends it — the only way this file changes what
    /// [`ControlState`] keeps outside its self-logging components. The event
    /// is cloned for the journal only; journal-off is the same path minus
    /// the append.
    fn commit(&mut self, ev: JournalEvent) -> Applied {
        if self.journal.enabled() {
            self.journal.record(ev.clone());
        }
        self.state.apply(ev)
    }

    /// Runs the body of a public mutating entry point, then syncs the
    /// journal — the one epilogue they all share, early returns included.
    fn synced<T>(&mut self, entry: impl FnOnce(&mut Self) -> T) -> T {
        let out = entry(self);
        self.journal_sync();
        out
    }

    /// Drains the component op logs into the journal and compacts when the
    /// tail passed its threshold. Events of different structures commute, so
    /// batching the drain does not change what replay rebuilds. A no-op
    /// while the journal is off.
    fn journal_sync(&mut self) {
        if !self.journal.enabled() {
            return;
        }
        for op in self.state.memory_mut().take_ops() {
            self.journal.record(JournalEvent::Flow(op));
        }
        for op in self.state.health_mut().take_ops() {
            self.journal.record(JournalEvent::Health(op));
        }
        for op in self.state.migrate_mut().take_ops() {
            self.journal.record(JournalEvent::Migration(op));
        }
        if self.journal.should_compact() {
            // Captured after the tail's last event took effect, so the
            // compacted snapshot equals old-snapshot + tail exactly.
            self.journal.compact(Snapshot::capture(&self.state));
        }
    }

    /// Deterministic textual digest of the recoverable state. Two
    /// controllers with identical recoverable state produce byte-identical
    /// digests — the differential oracle the crash-recovery tests compare.
    pub fn state_digest(&self) -> String {
        Snapshot::capture(&self.state).encode()
    }

    /// Rebuilds state from the journal (snapshot + tail) and digests it,
    /// without touching the live controller. `None` while the journal is
    /// off. Equal to [`Controller::state_digest`] at every mutation
    /// boundary — the compaction test's oracle.
    pub fn journal_rebuild_digest(&self) -> Option<String> {
        if !self.journal.enabled() {
            return None;
        }
        let (st, _, _) = self.journal.rebuild(&self.config);
        Some(Snapshot::capture(&st).encode())
    }

    /// Journal counters (events appended, tail length, compactions).
    pub fn journal_stats(&self) -> JournalStats {
        self.journal.stats()
    }

    /// Simulates a controller process crash followed by a restart: every
    /// piece of in-memory state a real process death loses is wiped, then
    /// rebuilt according to `mode` — **warm** restores the
    /// journal snapshot and replays the tail; **cold** starts empty and
    /// leans on reconciliation plus packet-in re-dispatch. In both modes
    /// volatile state (held requests, deferred expiries, in-flight
    /// single-flight deployments) is dropped, and in-flight migrations
    /// that cannot survive the death of their coordinator are aborted
    /// (session state stays in the source ledger; the trigger re-fires).
    ///
    /// Cluster handles, the service registry, ingress port maps and the
    /// monotone counters (xids, request ids) are the process's *durable
    /// environment* — config and restart-safe identifier ranges — and
    /// survive. After this returns, run [`Controller::reconcile`] against
    /// each live switch table to converge the drift accrued during the
    /// blackout; a second pass returns nothing.
    pub fn crash_restart(&mut self, mode: RecoveryMode) -> RecoveryReport {
        self.synced(|ctl| {
            let (state, replayed_events, snapshot_entries) = match mode {
                RecoveryMode::Warm if ctl.journal.enabled() => ctl.journal.rebuild(&ctl.config),
                _ => (ControlState::new(&ctl.config), 0, 0),
            };
            ctl.state = state;
            // The journal restarts from the recovered state's next mutation
            // (its pre-crash contents are already folded into that state or
            // deliberately discarded).
            ctl.journal.reset();
            // Volatile state a process death loses in both modes.
            ctl.held.clear();
            ctl.deferred.clear();
            ctl.dispatcher.reset_volatile();
            ctl.crash_records.clear();
            ctl.migration_spans.clear();
            // Re-arm op logging on the freshly built state, and re-seed the
            // journal with a snapshot of it — otherwise a *second* crash
            // would rebuild from an empty journal and lose it.
            if ctl.journal.enabled() {
                ctl.state.set_logging(true);
                ctl.journal.compact(Snapshot::capture(&ctl.state));
            }
            // In-flight migrations lost their coordinator: abort them (state
            // stays at the source; the breaker/mobility trigger re-fires).
            let aborted_migrations = ctl.state.migrate_mut().abort_where(|_| true);
            ctl.count("migrations_aborted", aborted_migrations);
            ctl.telemetry.metrics.inc("controller_restarts");
            RecoveryReport { mode, replayed_events, snapshot_entries, aborted_migrations }
        })
    }

    /// Registers an edge cluster reachable via `switch_port` on the default
    /// ingress. Returns its index.
    pub fn add_cluster(&mut self, cluster: Box<dyn EdgeCluster>, switch_port: u32) -> usize {
        self.map_cluster_port(IngressId::DEFAULT, cluster.name(), switch_port);
        self.breaker_gauges.push(format!("breaker_state.{}", self.clusters.len()));
        self.clusters.push(cluster);
        self.dispatcher.size_image_verdicts(None, self.clusters.len());
        self.reserve();
        self.clusters.len() - 1
    }

    /// Registers an additional ingress switch (gNB) with its own port map.
    /// Returns its id; the constructor's port map is ingress 0.
    pub fn add_ingress(&mut self, ports: PortMap) -> IngressId {
        self.ingresses.push(Ingress { ports, distances: Vec::new() });
        IngressId(self.ingresses.len() as u32 - 1)
    }

    /// Maps a cluster to an egress port on one specific ingress (a cluster
    /// may be reachable from every gNB, through different ports).
    pub fn map_cluster_port(&mut self, ingress: IngressId, cluster_name: &str, port: u32) {
        self.ingresses[ingress.0 as usize].ports.cluster_ports.insert(cluster_name.to_owned(), port);
    }

    /// Overrides the latency toward `cluster` as seen from `ingress`. The
    /// scheduler's "nearest edge" is relative to where the packet entered;
    /// without an override, the cluster's advertised latency is used.
    pub fn set_ingress_distance(&mut self, ingress: IngressId, cluster: usize, d: Duration) {
        let row = &mut self.ingresses[ingress.0 as usize].distances;
        if row.len() <= cluster {
            row.resize(cluster + 1, None);
        }
        row[cluster] = Some(d);
    }

    /// The latency toward `cluster` as seen from `ingress`: its override if
    /// one is set, the cluster's advertised latency otherwise (and always
    /// when no ingress is given).
    fn distance(&self, ingress: Option<IngressId>, cluster: usize) -> Duration {
        ingress
            .and_then(|g| *self.ingresses.get(g.0 as usize)?.distances.get(cluster)?)
            .unwrap_or_else(|| self.clusters[cluster].latency())
    }

    /// Registers an edge service.
    pub fn register_service(&mut self, service: EdgeService) {
        self.dispatcher.size_image_verdicts(Some(service.addr), self.clusters.len());
        self.services.register(service);
        self.reserve();
    }

    /// Sizes the cluster adapters' reverse indexes and the FlowMemory's
    /// per-instance counts for every registered service on every cluster.
    fn reserve(&mut self) {
        let n = self.services.len();
        self.clusters.iter_mut().for_each(|c| c.reserve(n));
        self.state.memory_mut().reserve_instances(n * self.clusters.len());
    }

    /// The service registry.
    pub fn services(&self) -> &crate::service::ServiceRegistry {
        &self.services
    }

    /// The FlowMemory (stats, tests).
    pub fn memory(&self) -> &FlowMemory {
        self.state.memory()
    }

    /// Client location tracking (moves flush the client's memorized flows).
    #[cfg(test)]
    pub(crate) fn clients(&self) -> &crate::clients::ClientTracker {
        self.state.clients()
    }

    /// Live-migration state: the session-state ledger, in-flight transfers,
    /// and completed [`crate::migrate::MigrationRecord`]s (the evaluation
    /// harness reads `migrate().records`).
    pub fn migrate(&self) -> &MigrationManager {
        self.state.migrate()
    }

    /// Cluster access by index.
    pub fn cluster(&self, idx: usize) -> &dyn EdgeCluster {
        self.clusters[idx].as_ref()
    }

    /// Mutable cluster access (pre-pulls in experiment setup).
    pub fn cluster_mut(&mut self, idx: usize) -> &mut Box<dyn EdgeCluster> {
        &mut self.clusters[idx]
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Adds `n` to counter `name` — unless `n` is zero: a counter shows in a
    /// snapshot only once something was counted.
    fn count(&mut self, name: &str, n: usize) {
        if n > 0 {
            self.telemetry.metrics.add(name, n as u64);
        }
    }

    /// Opens the root span `name` of a new controller-level operation under
    /// the next request id.
    fn open_request(&mut self, name: &str, now: SimTime) -> (u64, SpanId) {
        self.next_request += 1;
        let request = self.next_request;
        (request, self.telemetry.span(request, SpanId::NONE, name, now))
    }

    /// Does the `instance` a bookkept redirect points at on `cluster` still
    /// serve `service` ([`Dispatcher::serving`])? A service that is no longer
    /// registered is served nowhere.
    fn serving(&self, cluster: usize, service: ServiceAddr, instance: InstanceAddr, now: SimTime) -> Serving {
        match self.services.get(service) {
            Some(svc) => self.dispatcher.serving(&self.clusters, svc, cluster, instance, now),
            None => Serving::Gone,
        }
    }

    /// `msg` for the switch at `at`, under the next xid, in a spare buffer ([`Controller::recycle`]).
    fn outbound(&mut self, at: SimTime, msg: &Message) -> OutboundMessage {
        let mut data = self.spare.take();
        msg.encode_into(self.next_xid, &mut data);
        self.next_xid = self.next_xid.wrapping_add(1);
        OutboundMessage { at, data }
    }

    /// Takes back the buffer of an [`OutboundMessage`] the switch has read.
    pub fn recycle(&mut self, buf: Vec<u8>) {
        self.spare.recycle(buf);
    }

    /// Wraps [`Self::handle_switch_message_into`]: not the harness's path, and ROADMAP item 2 retires it.
    pub fn handle_switch_message_from(
        &mut self,
        ingress: IngressId,
        now: SimTime,
        bytes: &[u8],
        rng: &mut SimRng,
    ) -> Result<Vec<OutboundMessage>, OfError> {
        let mut out = Vec::new();
        self.handle_switch_message_into(ingress, now, bytes, rng, &mut out)?;
        Ok(out.into_iter().map(|(_, m)| m).collect())
    }

    /// Handles one encoded message from a specific ingress switch, appending
    /// its answers to `out`: the one sink every entry point that sends appends
    /// to, each message tagged with its switch, in send order — a sink as
    /// `ovs::Switch` defines one: never cleared or read, untouched on `Err`.
    pub fn handle_switch_message_into(
        &mut self, ingress: IngressId, now: SimTime, bytes: &[u8], rng: &mut SimRng,
        out: &mut Vec<(IngressId, OutboundMessage)>,
    ) -> Result<(), OfError> {
        let (_xid, msg, _) = Message::parse(bytes)?;
        self.synced(|ctl| match msg {
            Message::PacketIn { buffer_id, match_, data, .. } => {
                ctl.handle_packet_in(ingress, now, buffer_id, &match_, data, rng, out);
            }
            Message::FlowRemoved { match_, priority, .. } => {
                ctl.handle_flow_removed(ingress, &match_, priority);
            }
            Message::Error { .. } => ctl.count("switch_errors", 1),
            // Replies need no action; the rest a switch should not send us.
            Message::Hello
            | Message::BarrierReply
            | Message::PacketOut { .. }
            | Message::FlowMod { .. }
            | Message::BarrierRequest => {}
        });
        Ok(())
    }

    /// Removes the pair behind a `FLOW_REMOVED`: the switch no longer holds
    /// its forward flow, so reconciliation must not claim it. Forward flows
    /// carry `OFPFF_SEND_FLOW_REM` and match on the client source IP, which
    /// keys the bookkeeping — except an aggregated pair's forward flow, which
    /// wildcards the client: its anchor is dropped too, so the next
    /// packet-in re-installs a fresh pair.
    fn handle_flow_removed(&mut self, ingress: IngressId, match_: &Match, priority: u16) {
        self.telemetry.metrics.inc("flows_removed");
        let src = |f: &OxmField| if let OxmField::Ipv4Src(ip) = *f { Some(ip) } else { None };
        let client = match_.fields().find_map(|f| src(&f)).map(Ipv4Addr);
        let filed = client.unwrap_or(AGGREGATE_CLIENT);
        let gone = self.state.pairs_with_fwd(filed, ingress, priority, match_);
        let last = gone.iter().filter_map(|&id| self.remove_pair(filed, ingress, id)).last();
        if let (None, Some(pair)) = (client, last) {
            self.commit(JournalEvent::AggregateDrop { ingress, service: pair.service() });
        }
        self.state.recycle_ids(gone);
    }

    fn in_port_of(match_: &Match) -> u32 {
        let port = |f: &OxmField| if let OxmField::InPort(p) = *f { Some(p) } else { None };
        match_.fields().find_map(|f| port(&f)).unwrap_or(0)
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_packet_in(
        &mut self,
        ingress: IngressId,
        now: SimTime,
        buffer_id: u32,
        match_: &Match,
        data: &[u8],
        rng: &mut SimRng,
        out: &mut Vec<(IngressId, OutboundMessage)>,
    ) {
        let in_port = Self::in_port_of(match_);
        let Ok(frame) = TcpFrame::decode(data) else {
            // Nothing to schedule on — but only the controller can name the
            // buffer the switch parked the packet in: have it dropped.
            self.note_error(ControlPlaneError::UndecodablePacketIn { ingress });
            let release = rules::drop_buffered(buffer_id);
            return out.extend(release.map(|m| (ingress, self.outbound(now, &m))));
        };
        // Location tracking: a client arriving at a new location moved. An
        // *announced* move goes through [`Controller::handle_attachment_change_into`]
        // (which updates the tracker itself, so the next packet-in here sees
        // no move); an unannounced one falls back to the pre-handover
        // behavior — flush the client's memorized redirects and re-schedule,
        // since they were chosen for the old location.
        let seen = JournalEvent::ClientSeen {
            client: frame.src_ip,
            ingress,
            in_port,
            at: now,
        };
        if self.commit(seen).moved {
            self.state.memory_mut().forget_client(frame.src_ip);
        }
        // Remember the client's MAC and the gateway MAC it perceives: a
        // later migration flow flip re-installs reverse rewrites for this
        // client without a packet of its own to crib them from.
        self.commit(JournalEvent::MacsSeen {
            client: frame.src_ip,
            client_mac: frame.src_mac,
            gw_mac: frame.dst_mac,
        });
        let svc_addr = frame.dst_service();
        let (request, root) = self.open_request("request", now);
        self.telemetry.event(root, "packet-in", now, || {
            format!("client={} svc={svc_addr} in_port={in_port}", frame.src_ip)
        });
        let t = now + self.processing.sample_duration(rng);
        let spec = PairSpec::of_frame(&frame, in_port);
        let release = Some((buffer_id, &frame));

        // The request's record, as it stands until a registered service answers.
        let rec = RequestRecord::new(now, svc_addr, frame.src_ip, t);
        // Shared handle: Rc clone, not a deep copy of the service definition.
        let Some(svc) = self.services.get_shared(svc_addr) else {
            // Not an edge service: plain cloud forwarding flows.
            self.telemetry.event(root, "unregistered", t, || {
                "not an edge service; plain cloud forwarding".to_owned()
            });
            self.close_request(root, rec, DeploymentTimes::default());
            return self.install(ingress, t, spec, None, release, out);
        };

        let distances = self.ingresses.get(ingress.0 as usize).map_or(&[][..], |g| &g.distances[..]);
        let (memory, health) = self.state.dispatch_parts();
        let outcome: DispatchOutcome = self.dispatcher.dispatch_at(
            &svc,
            frame.src_ip,
            ingress,
            distances,
            RequestClass::NewFlow,
            t,
            &mut self.clusters,
            memory,
            health,
            rng,
            &mut self.telemetry,
            request,
            root,
        );

        let background_ready = outcome.background;
        let kind = match outcome.decision {
            DispatchDecision::Redirect { .. } if outcome.from_memory => RequestKind::MemoryHit,
            DispatchDecision::Redirect { .. } => RequestKind::Redirect,
            DispatchDecision::WaitThenRedirect { .. } => RequestKind::Waited,
            DispatchDecision::ForwardToCloud => RequestKind::Cloud,
            DispatchDecision::FallbackCloud { .. } => RequestKind::FallbackCloud,
        };
        let (to, answered_at) = self.placement(&outcome.decision, svc_addr, t);
        let before = out.len();
        match to {
            // A held request gets an exact pair: its deferred release
            // predates any aggregate decision.
            Some(to) if self.config.aggregate_rules && kind != RequestKind::Waited => {
                self.install_aggregated(ingress, t, spec, to, (buffer_id, &frame), out)
            }
            _ => self.install(ingress, answered_at, spec, to, release, out),
        };
        let cluster = to.map(|(_, cluster)| cluster);

        // The span closes exactly once per request, at the instant the
        // answer goes out — possibly in the sim-future for held requests
        // (Waited / FallbackCloud), whose release instant is already known.
        let n_msgs = out.len() - before;
        self.telemetry.event(root, "flow-install", answered_at, || {
            format!("{kind:?}: {n_msgs} message(s) toward the switch")
        });
        let rec = rec.answered(kind, answered_at, cluster);
        let deployment = DeploymentTimes { phases: outcome.phases, background_ready };
        self.close_request(root, rec, deployment);
    }

    /// The one epilogue of a packet-in: closes the request's span at the
    /// instant its answer goes out, folds it into the metrics and keeps its
    /// record and any deployment it ran (while `record_requests` is on).
    fn close_request(&mut self, root: SpanId, mut rec: RequestRecord, dep: DeploymentTimes) {
        self.telemetry.end_span(root, rec.answered_at);
        self.record_request_metrics(&rec, &dep);
        if self.config.record_requests {
            self.deployments.file(&mut rec, dep);
            self.records.push(rec);
        }
    }

    /// The deployment `rec` ran or triggered: its phase timings and its
    /// background-ready instant. `None` when it deployed nothing.
    pub fn deployment(&self, rec: &RequestRecord) -> Option<&DeploymentTimes> {
        self.deployments.of(rec)
    }

    /// Where a dispatch decision made at `t` puts the session, and when its
    /// pair goes out: at once, or — for a request held for a deployment, or
    /// released toward the cloud when that deployment exhausted its retries —
    /// at the already known release instant. A held request pins its service
    /// against the idle sweep until then.
    fn placement(
        &mut self,
        decision: &DispatchDecision,
        service: ServiceAddr,
        t: SimTime,
    ) -> (Placement, SimTime) {
        match *decision {
            DispatchDecision::Redirect { instance, cluster } => (Some((instance, cluster)), t),
            DispatchDecision::WaitThenRedirect { instance, cluster, ready_at } => {
                let at = ready_at.max(t);
                self.hold(service, cluster, at);
                (Some((instance, cluster)), at)
            }
            DispatchDecision::ForwardToCloud => (None, t),
            DispatchDecision::FallbackCloud { released_at } => (None, released_at.max(t)),
        }
    }

    /// Folds one finished request into the metrics registry. Phase durations
    /// are reconstructed from the deployment's phase *instants*: pull runs from
    /// packet arrival (plus controller processing), create from pull
    /// completion, scale-up between its issue/return instants, and the
    /// readiness wait is [`crate::dispatch::PhaseTimes::wait_time`].
    fn record_request_metrics(&mut self, rec: &RequestRecord, dep: &DeploymentTimes) {
        let m = &mut self.telemetry.metrics;
        m.inc("requests_total");
        m.inc(match rec.kind {
            RequestKind::MemoryHit => "requests_memory_hit",
            RequestKind::Redirect => "requests_redirect",
            RequestKind::Waited => "requests_waited",
            RequestKind::Cloud => "requests_cloud",
            RequestKind::FallbackCloud => "requests_fallback_cloud",
            RequestKind::Unregistered => "requests_unregistered",
        });
        m.observe("answer_delay_ns", rec.answered_at.saturating_since(rec.at));
        let p = &dep.phases;
        if let Some(done) = p.pull_done {
            m.observe("deploy_pull_ns", done.saturating_since(rec.at));
        }
        if let Some(done) = p.create_done {
            m.observe("deploy_create_ns", done.saturating_since(p.pull_done.unwrap_or(rec.at)));
        }
        if let (Some(at), Some(done)) = (p.scale_up_at, p.scale_up_done) {
            m.observe("deploy_scale_up_ns", done.saturating_since(at));
        }
        if let Some(wait) = p.wait_time() {
            m.observe("deploy_wait_ns", wait);
        }
        if p.total_retries() > 0 {
            m.add("deploy_retries_total", u64::from(p.total_retries()));
        }
        if p.gave_up_at.is_some() {
            m.inc("deploys_gave_up");
        }
        if dep.background_ready.is_some() {
            m.inc("background_deploys");
        }
    }

    /// Records a survived control-plane inconsistency (see
    /// [`ControlPlaneError`]).
    fn note_error(&mut self, err: ControlPlaneError) {
        self.telemetry.metrics.inc("control_plane_errors");
        self.control_errors.push(err);
    }

    /// Egress resolution — once, here, and total. A malformed or
    /// misconfigured port map must never take the controller down: a
    /// cluster with no port mapped on `ingress` degrades to the cloud uplink
    /// ([`ControlPlaneError::MissingClusterPort`]), and an ingress the
    /// controller does not manage resolves to nothing
    /// ([`ControlPlaneError::UnknownIngress`]).
    fn resolve(&mut self, ingress: IngressId, to: Placement) -> Option<Target> {
        let Some(Ingress { ports, .. }) = self.ingresses.get(ingress.0 as usize) else {
            self.note_error(ControlPlaneError::UnknownIngress { ingress });
            return None;
        };
        let cloud = Target::Cloud {
            out_port: ports.cloud_port,
        };
        let Some((instance, cluster)) = to else {
            return Some(cloud);
        };
        let mapped = self
            .clusters
            .get(cluster)
            .and_then(|c| ports.cluster_ports.get(c.name()))
            .copied();
        let Some(out_port) = mapped else {
            self.note_error(ControlPlaneError::MissingClusterPort { ingress, cluster });
            return Some(cloud);
        };
        Some(Target::Instance {
            instance,
            cluster,
            out_port,
        })
    }

    /// The one install path: resolves the egress toward `to`, builds the
    /// pair `spec` describes (see [`crate::rules`] for the shapes), sends it
    /// — releasing the packet behind a packet-in, if any — and files it as
    /// `(spec, target)`: switch-side deletion is exact-match, so handover
    /// teardown, repair and reconciliation rebuild the pair verbatim.
    ///
    /// Who installs what: packet-ins a `Connection` pair (or, through
    /// [`Controller::install_aggregated`], a `Service` pair); handovers and
    /// migration flips a `ClientService` pair, with no packet to release.
    fn install(
        &mut self,
        ingress: IngressId,
        at: SimTime,
        mut spec: PairSpec,
        to: Placement,
        release: Option<Release>,
        out: &mut Vec<(IngressId, OutboundMessage)>,
    ) {
        let Some(target) = self.resolve(ingress, to) else {
            return;
        };
        if matches!(target, Target::Cloud { .. }) && spec.granularity == Granularity::Service {
            // Only a redirect is worth sharing: a first decision degraded to
            // the cloud gets the exact cloud path and anchors nothing.
            spec.granularity = Granularity::Connection;
        }
        let (fwd, rev) = rules::InstalledPair { spec, target }.flows();
        if let (Granularity::Service, Target::Instance { instance, cluster, .. }) =
            (spec.granularity, target)
        {
            let rule = AggregateRule {
                instance,
                cluster,
                in_port: spec.in_port,
                gw_mac: spec.gw_mac,
                fwd_actions: fwd.actions,
            };
            self.commit(JournalEvent::AggregateSet {
                ingress,
                service: spec.service,
                rule,
            });
            self.telemetry.metrics.inc("aggregate_installed");
        }
        // The two Adds go out reverse first: when the buffered packet is
        // released through the forward flow, the reply path must already
        // exist. A packet the switch could not buffer behind its packet-in
        // is re-injected by a `PACKET_OUT` after them.
        let buffer_id = release.map_or(OFP_NO_BUFFER, |(id, _)| id);
        self.flow_adds += 2;
        out.push((ingress, self.flow_add(at, &rev, OFP_NO_BUFFER)));
        out.push((ingress, self.flow_add(at, &fwd, buffer_id)));
        if let Some(carried) = release.filter(|(id, _)| *id == OFP_NO_BUFFER) {
            self.packet_out(ingress, at, carried, fwd.actions, out);
        }
        self.commit(JournalEvent::PairAdd {
            client: spec.filed_under(),
            ingress,
            pair: rules::InstalledPair { spec, target },
        });
    }

    /// Rule-aggregation front end for ready-instance redirects
    /// ([`ControllerConfig::aggregate_rules`]). Three cases:
    ///
    /// * **covered** — an aggregate pair for `(ingress, service)` already
    ///   redirects to the very instance the scheduler chose, through the
    ///   same client-side port and gateway: release the packet with a bare
    ///   `PACKET_OUT`; the switch table does not grow at all;
    /// * **divergent** — an aggregate exists but this client's decision
    ///   differs (circuit-breaker redirect to another cluster, a different
    ///   uplink): fall back to an exact per-connection pair at base
    ///   priority, which shadows the aggregate for exactly this connection;
    /// * **first** — no aggregate yet: install one `Service` pair for the
    ///   whole `(service, ingress, instance)` population, two priority steps
    ///   below the exact flows so both exact pairs (base) and per-client
    ///   handover wildcards (base − 1) shadow it.
    ///
    /// Its idle timeout is per rule, not per client (DESIGN.md "Aggregated
    /// wildcard rules"): per-client idle accounting stays in the FlowMemory.
    fn install_aggregated(
        &mut self,
        ingress: IngressId,
        at: SimTime,
        spec: PairSpec,
        (instance, cluster): (InstanceAddr, usize),
        release: Release,
        out: &mut Vec<(IngressId, OutboundMessage)>,
    ) {
        let granularity = match self.state.aggregate(ingress, spec.service) {
            Some(r)
                if r.instance == instance
                    && r.in_port == spec.in_port
                    && r.gw_mac == spec.gw_mac =>
            {
                let actions = r.fwd_actions;
                self.telemetry.metrics.inc("aggregate_covered");
                return self.packet_out(ingress, at, release, actions, out);
            }
            Some(_) => {
                self.telemetry.metrics.inc("aggregate_divergent");
                Granularity::Connection
            }
            None => Granularity::Service,
        };
        let spec = PairSpec { granularity, ..spec };
        self.install(ingress, at, spec, Some((instance, cluster)), Some(release), out)
    }

    /// The `PACKET_OUT` releasing the packet behind a packet-in through
    /// `actions`. A carried packet that does not fit one message is dropped
    /// and recorded: a wrapped header length would desynchronise the stream.
    fn packet_out(
        &mut self,
        ingress: IngressId,
        at: SimTime,
        (buffer_id, frame): Release,
        actions: openflow::Actions,
        out: &mut Vec<(IngressId, OutboundMessage)>,
    ) {
        match rules::packet_out(buffer_id, actions, frame) {
            Some(msg) => out.push((ingress, self.outbound(at, &msg))),
            None => self.note_error(ControlPlaneError::OversizePacketOut { ingress }),
        }
    }

    /// One `FLOW_MOD` Add of `flow` under the configured switch idle timeout.
    fn flow_add(&mut self, at: SimTime, flow: &InstalledFlow, buffer_id: u32) -> OutboundMessage {
        self.outbound(at, &rules::flow_add(flow, self.config.switch_flow_idle, buffer_id))
    }

    /// One `FLOW_MOD` Delete of everything matching `match_` exactly.
    fn flow_delete(&mut self, at: SimTime, match_: Match) -> OutboundMessage {
        self.outbound(at, &rules::flow_delete(match_))
    }

    /// Hands a client's live sessions over from ingress `from` to ingress
    /// `to` — the 5G attachment change: the UE left one gNB's cell for
    /// another's, and its traffic will now enter the network at the new
    /// switch.
    ///
    /// The procedure is make-before-break. For every session the FlowMemory
    /// holds for the client at the old ingress, redirect flows are first
    /// installed at the **new** switch (wildcarded per client↔service, so
    /// every live connection of the pair is covered without knowing its
    /// ephemeral port), and only after the last install instant are the old
    /// switch's exact flows deleted — the session never has zero paths.
    /// Under [`HandoverPolicy::Anchored`] a session keeps its current
    /// instance while it is still up; under [`HandoverPolicy::Redispatch`]
    /// (and for anchored sessions whose instance vanished) the Global
    /// Scheduler is consulted with a [`RequestClass::Handover`] context and
    /// distances measured from the new ingress, re-using the on-demand
    /// deployment pipeline — retries, fallback and all — when the new zone
    /// has no instance yet.
    ///
    /// `client_mac`/`gw_mac` parameterize the wildcard reverse rewrite (no
    /// triggering frame exists to read them from); `new_in_port` is the
    /// client's uplink port at the new switch. The new-ingress installs, then
    /// the old-ingress teardowns, go to `out`.
    #[allow(clippy::too_many_arguments)]
    pub fn handle_attachment_change_into(
        &mut self,
        now: SimTime,
        client: Ipv4Addr,
        client_mac: MacAddr,
        gw_mac: MacAddr,
        from: IngressId,
        to: IngressId,
        new_in_port: u32,
        policy: HandoverPolicy,
        rng: &mut SimRng,
        out: &mut Vec<(IngressId, OutboundMessage)>,
    ) -> HandoverOutcome {
        self.synced(|ctl| {
            let (request, root) = ctl.open_request("handover", now);
            ctl.telemetry.event(root, "attachment-change", now, || {
                format!("client={client} gnb {} -> {} ({})", from.0, to.0, policy.label())
            });
            let t = now + ctl.processing.sample_duration(rng);
            // The tracker learns the new location *now*, so the client's first
            // packet-in at the new switch is not mistaken for an unannounced
            // move (which would flush the very memory we are migrating).
            ctl.commit(JournalEvent::ClientSeen { client, ingress: to, in_port: new_in_port, at: t });
            ctl.commit(JournalEvent::MacsSeen { client, client_mac, gw_mac });
            // Retire the old switch's pairs before any new installs: with
            // `from == to` (a re-attach to the same cell) the new wildcard
            // pairs must not end up in their own teardown list. Cloud
            // packet-in pairs stay filed — handovers never tore those down
            // (they idle out, and their `FLOW_REMOVED` removes them), and
            // reconciliation still needs to claim them until then.
            let mut old_pairs = ctl.commit(JournalEvent::HandoverSweep { client, from }).retired;

            let mut flows = std::mem::take(&mut ctl.handover_scratch);
            let mut completed_at = t;
            let mut flows_migrated = 0usize;
            let mut redispatched = 0usize;
            ctl.state.memory().flows_of_client_at_into(client, from, &mut flows);
            for (key, flow) in flows.drain(..) {
                let Some(svc) = ctl.services.get_shared(key.service) else {
                    ctl.state.memory_mut().forget(&key);
                    continue;
                };
                // Anchoring keeps the session on its current instance — valid
                // only while that instance still serves.
                let anchored = policy == HandoverPolicy::Anchored
                    && ctl.serving(flow.cluster(), key.service, flow.instance, t) == Serving::Yes;
                let (placement, installed_at) = if anchored {
                    ctl.state.memory_mut().rekey(&key, to, t);
                    ctl.telemetry.event(root, "anchored", t, || {
                        format!("{}: kept on cluster {}", svc.name, flow.cluster())
                    });
                    (Some((flow.instance, flow.cluster())), t)
                } else {
                    // Re-place the session through the scheduler, as a Handover.
                    ctl.state.memory_mut().forget(&key);
                    let distances = ctl.ingresses.get(to.0 as usize).map_or(&[][..], |g| &g.distances[..]);
                    let (memory, health) = ctl.state.dispatch_parts();
                    let outcome = ctl.dispatcher.dispatch_at(
                        &svc,
                        client,
                        to,
                        distances,
                        RequestClass::Handover,
                        t,
                        &mut ctl.clusters,
                        memory,
                        health,
                        rng,
                        &mut ctl.telemetry,
                        request,
                        root,
                    );
                    redispatched += 1;
                    ctl.placement(&outcome.decision, key.service, t)
                };
                // Wildcarded per client↔service: no triggering frame exists
                // to read an ephemeral port (or the MACs) from.
                let spec = PairSpec {
                    granularity: Granularity::ClientService,
                    client,
                    src_port: 0,
                    client_mac,
                    gw_mac,
                    in_port: new_in_port,
                    service: svc.addr,
                };
                ctl.install(to, installed_at, spec, placement, None, out);
                flows_migrated += 1;
                completed_at = completed_at.max(installed_at);
            }

            // Break strictly after the make: the old paths outlive the last
            // new-switch install by a guard interval sized to cover a full WAN
            // round-trip, so replies to requests still in flight via the old
            // cell (worst case: a cloud-served session) find their reverse
            // flows intact. Deleting long-gone flows is a no-op, so generosity
            // here costs nothing.
            let break_at = completed_at + Duration::from_millis(50);
            let n_old = old_pairs.len();
            for (fwd, rev) in old_pairs.drain(..).map(|p| p.flows()) {
                for m in [fwd.match_, rev.match_] {
                    out.push((from, ctl.flow_delete(break_at, m)));
                }
            }
            ctl.state.recycle_retired(old_pairs);
            ctl.handover_scratch = flows;

            let m = &mut ctl.telemetry.metrics;
            m.inc("handovers_total");
            m.add("flows_migrated", flows_migrated as u64);
            m.observe("handover_interruption_ns", completed_at.saturating_since(now));
            ctl.count("handover_redispatched_total", redispatched);
            ctl.telemetry.event(root, "break", break_at, || {
                format!("{n_old} exact pair(s) deleted at old gnb {}", from.0)
            });
            ctl.telemetry.end_span(root, completed_at);
            // The mobility trigger: sessions this move left anchored on a
            // cluster at least `MOBILITY_HOPS` hops behind the best candidate
            // follow the client — snapshot, transfer, then flip at
            // [`Controller::migration_tick`]. Keyed off the *kept* placements,
            // so it composes with the anchored policy (redispatch already
            // re-placed everything).
            if ctl.state.migrate().live() {
                ctl.migrate_lagging_sessions(t, client, to, rng);
            }
            HandoverOutcome { at: now, completed_at, flows_migrated, redispatched, messages: Vec::new() }
        })
    }

    /// Wraps [`Self::handle_attachment_change_into`], returning the messages in
    /// [`HandoverOutcome::messages`]: not the harness's path, and ROADMAP item 2 retires it.
    #[allow(clippy::too_many_arguments)]
    pub fn handle_attachment_change(
        &mut self,
        now: SimTime,
        client: Ipv4Addr,
        client_mac: MacAddr,
        gw_mac: MacAddr,
        from: IngressId,
        to: IngressId,
        new_in_port: u32,
        policy: HandoverPolicy,
        rng: &mut SimRng,
    ) -> HandoverOutcome {
        let mut messages = Vec::new();
        let outcome = self.handle_attachment_change_into(
            now, client, client_mac, gw_mac, from, to, new_in_port, policy, rng, &mut messages,
        );
        HandoverOutcome { messages, ..outcome }
    }

    /// The load tracker: per-instance queues, admission counters, pools.
    pub fn load(&self) -> &LoadTracker {
        self.dispatcher.load()
    }

    /// Mutable load-tracker access (replica-second accrual needs `&mut`).
    pub fn load_mut(&mut self) -> &mut LoadTracker {
        self.dispatcher.load_mut()
    }

    /// The circuit-breaker state of `cluster` (telemetry snapshots).
    pub fn breaker_state(&self, cluster: usize) -> BreakerState {
        self.state.health().breaker_state(cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{DeployError, DockerCluster, InstanceState};
    use crate::health::{BREAKER_COOLDOWN, BREAKER_THRESHOLD, DETECT_INTERVAL};
    use crate::scheduler::ProximityScheduler;
    use desim::RetryPolicy;
    use dockersim::DockerEngine;
    use netsim::addr::MacAddr;
    use netsim::TcpFlags;
    use openflow::actions::{Action, Actions};
    use openflow::FlowEntry;
    use ovs::{Effect, Switch, SwitchConfig};
    use telemetry::SpanLog;

    const CLIENT_PORT: u32 = 1;
    const EDGE_PORT: u32 = 2;
    const CLOUD_PORT: u32 = 3;

    fn make_service(key: &str, port: u16) -> EdgeService {
        let profile = containerd::ServiceSet::by_key(key).unwrap();
        let addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), port);
        EdgeService::from_profile(profile, addr)
    }

    /// What `emit` appends to a fresh sink.
    fn sent(emit: impl FnOnce(&mut Vec<(IngressId, OutboundMessage)>)) -> Vec<(IngressId, OutboundMessage)> {
        let mut out = Vec::new();
        emit(&mut out);
        out
    }

    fn setup(rng: &mut SimRng) -> (Controller, Switch) {
        setup_with(rng, ControllerConfig::default())
    }

    fn setup_with(rng: &mut SimRng, config: ControllerConfig) -> (Controller, Switch) {
        setup_scheduled(rng, config, Box::<ProximityScheduler>::default())
    }

    /// [`setup`] with a controller that records its spans.
    fn setup_recording(rng: &mut SimRng) -> (Controller<SpanLog>, Switch) {
        setup_scheduled(rng, ControllerConfig::default(), Box::<ProximityScheduler>::default())
    }

    fn setup_scheduled<S: Spans>(
        rng: &mut SimRng,
        config: ControllerConfig,
        scheduler: Box<dyn GlobalScheduler>,
    ) -> (Controller<S>, Switch) {
        let mut engine = DockerEngine::with_defaults();
        engine.pull(&containerd::ServiceSet::by_key("asm").unwrap().manifests, rng);
        let cluster = DockerCluster::new(
            "edge-docker",
            engine,
            MacAddr::from_id(200),
            Ipv4Addr::new(10, 0, 0, 10),
            Duration::from_micros(150),
        );
        let mut ctl = Controller::with_spans(
            scheduler,
            PortMap {
                cluster_ports: HashMap::new(),
                cloud_port: CLOUD_PORT,
            },
            config,
        );
        ctl.add_cluster(Box::new(cluster), EDGE_PORT);
        ctl.register_service(make_service("asm", 80));
        let sw = Switch::new(SwitchConfig {
            datapath_id: 1,
            n_buffers: 64,
            miss_send_len: 0xffff,
            ports: vec![CLIENT_PORT, EDGE_PORT, CLOUD_PORT],
        });
        (ctl, sw)
    }

    fn client_syn(src_port: u16) -> TcpFrame {
        TcpFrame::syn(
            MacAddr::from_id(1),
            MacAddr::from_id(99), // perceived cloud gateway
            Ipv4Addr::new(192, 168, 1, 20),
            src_port,
            ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80),
        )
    }

    /// Full round: client SYN → switch miss → controller → deployment →
    /// flows installed → buffered packet released toward the edge, rewritten.
    #[test]
    fn end_to_end_on_demand_with_waiting() {
        let mut rng = SimRng::new(1);
        let (mut ctl, mut sw) = setup(&mut rng);
        let t0 = SimTime::from_secs(1);

        let effects = sw.handle_frame(t0, CLIENT_PORT, &client_syn(50000).encode());
        let Effect::ToController(pkt_in) = &effects[0] else {
            panic!("expected packet-in");
        };
        let out = ctl.handle_switch_message_from(IngressId::DEFAULT, t0, pkt_in, &mut rng).unwrap();
        assert_eq!(out.len(), 2, "reverse + forward flow (buffered packet)");
        let answered = out[0].at;
        assert!(answered > t0, "with waiting: answered later");
        assert!(answered - t0 < Duration::from_secs(1), "sub-second for cached asm");

        // Deliver the flow mods to the switch at their scheduled time.
        let mut forwards = Vec::new();
        for m in &out {
            forwards.extend(sw.handle_controller(m.at, &m.data).unwrap());
        }
        // The buffered SYN was released, rewritten toward the edge instance.
        let fwd = forwards
            .iter()
            .find_map(|e| match e {
                Effect::Forward { port, data } => Some((*port, data.clone())),
                _ => None,
            })
            .expect("buffered packet released");
        assert_eq!(fwd.0, EDGE_PORT);
        let f = TcpFrame::decode(&fwd.1).unwrap();
        assert_eq!(f.dst_ip, Ipv4Addr::new(10, 0, 0, 10));
        assert_eq!(f.dst_port, 31000);
        assert_eq!(f.dst_mac, MacAddr::from_id(200));
        assert_eq!(f.src_ip, Ipv4Addr::new(192, 168, 1, 20), "client src kept");

        // Server reply is rewritten back to the cloud address (reverse flow).
        let reply = f.reply(TcpFlags::SYN_ACK, Vec::new());
        let effects = sw.handle_frame(answered, EDGE_PORT, &reply.encode());
        let Effect::Forward { port, data } = &effects[0] else {
            panic!("reply should flow back: {effects:?}");
        };
        assert_eq!(*port, CLIENT_PORT);
        let r = TcpFrame::decode(data).unwrap();
        assert_eq!(r.src_ip, Ipv4Addr::new(203, 0, 113, 10), "masqueraded");
        assert_eq!(r.src_port, 80);
        assert_eq!(r.dst_mac, MacAddr::from_id(1));

        // Subsequent client packets take the switch fast path (no packet-in).
        let misses_before = sw.table_misses;
        let mut ack = client_syn(50000);
        ack.flags = TcpFlags::ACK;
        ack.payload = b"GET / HTTP/1.1\r\n\r\n".to_vec();
        let effects = sw.handle_frame(answered + Duration::from_millis(1), CLIENT_PORT, &ack.encode());
        assert!(matches!(effects[0], Effect::Forward { port: EDGE_PORT, .. }));
        assert_eq!(sw.table_misses, misses_before);

        // Controller recorded the request as Waited with phase data.
        assert_eq!(ctl.records.len(), 1);
        let rec = &ctl.records[0];
        assert_eq!(rec.kind, RequestKind::Waited);
        assert!(ctl.deployment(rec).unwrap().phases.wait_time().is_some());
        assert_eq!(rec.cluster(), Some(0));
    }

    #[test]
    fn second_connection_is_memory_hit_and_fast() {
        let mut rng = SimRng::new(2);
        let (mut ctl, mut sw) = setup(&mut rng);
        let t0 = SimTime::from_secs(1);
        let effects = sw.handle_frame(t0, CLIENT_PORT, &client_syn(50000).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        let out = ctl.handle_switch_message_from(IngressId::DEFAULT, t0, pkt_in, &mut rng).unwrap();
        let answered = out[0].at;
        for m in &out {
            sw.handle_controller(m.at, &m.data).unwrap();
        }

        // New connection (different src port) later: flows for it are new,
        // but the FlowMemory answers instantly — no deployment.
        let t1 = answered + Duration::from_secs(5);
        let effects = sw.handle_frame(t1, CLIENT_PORT, &client_syn(50001).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        let out = ctl.handle_switch_message_from(IngressId::DEFAULT, t1, pkt_in, &mut rng).unwrap();
        assert!(out[0].at - t1 < Duration::from_millis(20), "instant answer");
        assert_eq!(ctl.records[1].kind, RequestKind::MemoryHit);
    }

    #[test]
    fn unregistered_service_goes_to_cloud() {
        let mut rng = SimRng::new(3);
        let (mut ctl, mut sw) = setup(&mut rng);
        let mut frame = client_syn(50000);
        frame.dst_port = 443; // not registered
        let effects = sw.handle_frame(SimTime::from_secs(1), CLIENT_PORT, &frame.encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        let out = ctl
            .handle_switch_message_from(IngressId::DEFAULT, SimTime::from_secs(1), pkt_in, &mut rng)
            .unwrap();
        let mut released = Vec::new();
        for m in &out {
            released.extend(sw.handle_controller(m.at, &m.data).unwrap());
        }
        let Effect::Forward { port, data } = &released[0] else {
            panic!("expected forward: {released:?}")
        };
        assert_eq!(*port, CLOUD_PORT);
        // Untouched: still addressed to the original destination.
        let f = TcpFrame::decode(data).unwrap();
        assert_eq!(f.dst_port, 443);
        assert_eq!(ctl.records[0].kind, RequestKind::Unregistered);
    }

    #[test]
    fn idle_sweep_scales_down_and_next_request_redeploys() {
        let mut rng = SimRng::new(4);
        let (mut ctl, mut sw) = setup(&mut rng);
        let t0 = SimTime::from_secs(1);
        let effects = sw.handle_frame(t0, CLIENT_PORT, &client_syn(50000).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        let out = ctl.handle_switch_message_from(IngressId::DEFAULT, t0, pkt_in, &mut rng).unwrap();
        let answered = out[0].at;
        assert_eq!(ctl.memory().len(), 1);

        // Idle past the memory timeout: service gets scaled down.
        let idle_at = answered + Duration::from_secs(61);
        ctl.tick(idle_at, &mut rng);
        assert_eq!(ctl.telemetry.metrics.counter("scale_downs"), 1);
        assert!(ctl.memory().is_empty());

        // Next request must deploy again (Waited, not MemoryHit).
        let t1 = idle_at + Duration::from_secs(5);
        let effects = sw.handle_frame(t1, CLIENT_PORT, &client_syn(50002).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        ctl.handle_switch_message_from(IngressId::DEFAULT, t1, pkt_in, &mut rng).unwrap();
        assert_eq!(ctl.records[1].kind, RequestKind::Waited);
    }

    #[test]
    fn switch_errors_are_recorded() {
        let mut rng = SimRng::new(9);
        let (mut ctl, _) = setup(&mut rng);
        let err = Message::Error {
            error_type: openflow::messages::ErrorType::FlowModFailed,
            code: 6,
            data: vec![1, 2, 3],
        };
        ctl.handle_switch_message_from(IngressId::DEFAULT, SimTime::ZERO, &err.encode(4), &mut rng)
            .unwrap();
        assert_eq!(ctl.telemetry.metrics.counter("switch_errors"), 1);
    }

    #[test]
    fn client_mobility_flushes_memory_and_reschedules() {
        let mut rng = SimRng::new(10);
        let (mut ctl, mut sw) = setup(&mut rng);
        let t0 = SimTime::from_secs(1);
        // First request from port 1.
        let effects = sw.handle_frame(t0, CLIENT_PORT, &client_syn(50000).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        let out = ctl.handle_switch_message_from(IngressId::DEFAULT, t0, pkt_in, &mut rng).unwrap();
        let answered = out[0].at;
        assert_eq!(ctl.memory().len(), 1);
        assert_eq!(
            ctl.clients().location(Ipv4Addr::new(192, 168, 1, 20)),
            Some((IngressId::DEFAULT, CLIENT_PORT))
        );

        // Same client shows up on a *different* ingress port (mobility):
        // its memorized flows must be flushed and the request rescheduled.
        let t1 = answered + Duration::from_secs(3);
        let effects = sw.handle_frame(t1, CLOUD_PORT, &client_syn(50001).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        ctl.handle_switch_message_from(IngressId::DEFAULT, t1, pkt_in, &mut rng).unwrap();
        assert_eq!(
            ctl.clients().location(Ipv4Addr::new(192, 168, 1, 20)),
            Some((IngressId::DEFAULT, CLOUD_PORT))
        );
        // Rescheduled (Redirect via scheduler), not a memory hit.
        assert_eq!(ctl.records[1].kind, RequestKind::Redirect);
    }

    /// Anchored handover across two ingress switches: make-before-break, the
    /// memory entry re-keyed, the session carried by wildcard flows at the
    /// new switch, and the old switch's exact flows torn down afterwards.
    #[test]
    fn handover_is_make_before_break_and_rekeys_memory() {
        let mut rng = SimRng::new(11);
        let (mut ctl, mut sw0) = setup_recording(&mut rng);
        // Second gNB, fronting the same cluster on the same port numbers.
        let g1 = ctl.add_ingress(PortMap {
            cluster_ports: HashMap::from([("edge-docker".into(), EDGE_PORT)]),
            cloud_port: CLOUD_PORT,
        });
        let mut sw1 = Switch::new(SwitchConfig {
            datapath_id: 2,
            n_buffers: 64,
            miss_send_len: 0xffff,
            ports: vec![CLIENT_PORT, EDGE_PORT, CLOUD_PORT],
        });

        // Session established at gNB 0.
        let t0 = SimTime::from_secs(1);
        let effects = sw0.handle_frame(t0, CLIENT_PORT, &client_syn(50000).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        let out = ctl.handle_switch_message_from(IngressId::DEFAULT, t0, pkt_in, &mut rng).unwrap();
        for m in &out {
            sw0.handle_controller(m.at, &m.data).unwrap();
        }
        let answered = out.iter().map(|m| m.at).max().unwrap();
        assert_eq!(ctl.memory().len(), 1);

        // The client attaches to gNB 1.
        let t1 = answered + Duration::from_secs(2);
        let client = Ipv4Addr::new(192, 168, 1, 20);
        let ho = ctl.handle_attachment_change(
            t1,
            client,
            MacAddr::from_id(1),
            MacAddr::from_id(99),
            IngressId::DEFAULT,
            g1,
            CLIENT_PORT,
            HandoverPolicy::Anchored,
            &mut rng,
        );
        assert_eq!(ho.flows_migrated, 1);
        assert_eq!(ho.redispatched, 0, "anchored: instance kept");
        assert!(ho.completed_at >= t1);

        // Make-before-break: every install at the new switch precedes every
        // delete at the old one.
        let adds: Vec<_> = ho.messages.iter().filter(|(g, _)| *g == g1).collect();
        let dels: Vec<_> =
            ho.messages.iter().filter(|(g, _)| *g == IngressId::DEFAULT).collect();
        assert_eq!(adds.len(), 2, "wildcard pair at the new gNB");
        assert_eq!(dels.len(), 2, "exact pair deleted at the old gNB");
        let last_add = adds.iter().map(|(_, m)| m.at).max().unwrap();
        let first_del = dels.iter().map(|(_, m)| m.at).min().unwrap();
        assert!(last_add < first_del, "break strictly after make");
        assert_eq!(last_add, ho.completed_at);

        // Memory re-keyed to the new ingress — nothing left on the old one.
        assert_eq!(ctl.memory().len(), 1);
        assert!(ctl.memory().flows_of_client_at(client, IngressId::DEFAULT).is_empty());
        assert_eq!(ctl.memory().flows_of_client_at(client, g1).len(), 1);

        // Deliver the messages. The in-flight session (same src port, a later
        // packet) flows through the new switch without a packet-in.
        for (g, m) in &ho.messages {
            let sw = if *g == g1 { &mut sw1 } else { &mut sw0 };
            sw.handle_controller(m.at, &m.data).unwrap();
        }
        let t2 = first_del + Duration::from_millis(1);
        let mut pkt = client_syn(50000);
        pkt.flags = TcpFlags::ACK;
        let effects = sw1.handle_frame(t2, CLIENT_PORT, &pkt.encode());
        let Effect::Forward { port, data } = &effects[0] else {
            panic!("handed-over packet should flow: {effects:?}");
        };
        assert_eq!(*port, EDGE_PORT);
        let f = TcpFrame::decode(data).unwrap();
        assert_eq!(f.dst_ip, Ipv4Addr::new(10, 0, 0, 10), "rewritten to instance");
        // And a *new* connection of the same pair is also covered (wildcard).
        let effects = sw1.handle_frame(t2, CLIENT_PORT, &client_syn(51000).encode());
        assert!(
            matches!(&effects[0], Effect::Forward { port, .. } if *port == EDGE_PORT),
            "wildcard covers new src ports: {effects:?}"
        );
        // The old switch no longer carries the session.
        let effects = sw0.handle_frame(t2, CLIENT_PORT, &pkt.encode());
        assert!(
            matches!(&effects[0], Effect::ToController(_)),
            "old exact flows deleted: {effects:?}"
        );

        // Reverse direction at the new switch masquerades back to the cloud
        // address (transparency preserved across the handover).
        let reply = f.reply(TcpFlags::ACK, vec![1, 2, 3]);
        let effects = sw1.handle_frame(t2, EDGE_PORT, &reply.encode());
        let Effect::Forward { port, data } = &effects[0] else {
            panic!("reply should flow back: {effects:?}");
        };
        assert_eq!(*port, CLIENT_PORT);
        let r = TcpFrame::decode(data).unwrap();
        assert_eq!(r.src_ip, Ipv4Addr::new(203, 0, 113, 10), "masqueraded");
        assert_eq!(r.dst_mac, MacAddr::from_id(1));

        assert_eq!(ctl.telemetry.metrics.counter("handovers_total"), 1);
        assert_eq!(ctl.telemetry.metrics.counter("flows_migrated"), 1);
        let log = ctl.telemetry.span_log().unwrap();
        assert!(log.check().ok(), "handover spans well-formed");
    }

    /// Redispatch handover consults the scheduler with the Handover class
    /// and re-places the session through the normal dispatch pipeline.
    #[test]
    fn handover_redispatch_replaces_the_session() {
        let mut rng = SimRng::new(12);
        let (mut ctl, mut sw0) = setup(&mut rng);
        let g1 = ctl.add_ingress(PortMap {
            cluster_ports: HashMap::from([("edge-docker".into(), EDGE_PORT)]),
            cloud_port: CLOUD_PORT,
        });

        let t0 = SimTime::from_secs(1);
        let effects = sw0.handle_frame(t0, CLIENT_PORT, &client_syn(50000).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        let out = ctl.handle_switch_message_from(IngressId::DEFAULT, t0, pkt_in, &mut rng).unwrap();
        let answered = out.iter().map(|m| m.at).max().unwrap();
        assert_eq!(ctl.memory().len(), 1);

        let t1 = answered + Duration::from_secs(2);
        let ho = ctl.handle_attachment_change(
            t1,
            Ipv4Addr::new(192, 168, 1, 20),
            MacAddr::from_id(1),
            MacAddr::from_id(99),
            IngressId::DEFAULT,
            g1,
            CLIENT_PORT,
            HandoverPolicy::Redispatch,
            &mut rng,
        );
        assert_eq!(ho.flows_migrated, 1);
        assert_eq!(ho.redispatched, 1, "scheduler consulted");
        // The re-dispatched session was memorized under the new ingress.
        assert_eq!(
            ctl.memory()
                .flows_of_client_at(Ipv4Addr::new(192, 168, 1, 20), g1)
                .len(),
            1
        );
        assert!(!ho.messages.is_empty());
    }

    #[test]
    fn remove_phase_deletes_after_grace_period() {
        let mut rng = SimRng::new(11);
        let mut engine = DockerEngine::with_defaults();
        engine.pull(&containerd::ServiceSet::by_key("asm").unwrap().manifests, &mut rng);
        let cluster = DockerCluster::new(
            "edge-docker",
            engine,
            MacAddr::from_id(200),
            Ipv4Addr::new(10, 0, 0, 10),
            Duration::from_micros(150),
        );
        let mut ctl = Controller::new(
            Box::<ProximityScheduler>::default(),
            PortMap { cluster_ports: HashMap::new(), cloud_port: CLOUD_PORT },
            ControllerConfig {
                memory_idle: Duration::from_secs(20),
                remove_after: Duration::from_secs(30).into(),
                ..ControllerConfig::default()
            },
        );
        ctl.add_cluster(Box::new(cluster), EDGE_PORT);
        ctl.register_service(make_service("asm", 80));
        let mut sw = Switch::new(SwitchConfig {
            datapath_id: 1,
            n_buffers: 64,
            miss_send_len: 0xffff,
            ports: vec![CLIENT_PORT, EDGE_PORT, CLOUD_PORT],
        });
        let t0 = SimTime::from_secs(1);
        let effects = sw.handle_frame(t0, CLIENT_PORT, &client_syn(50000).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        ctl.handle_switch_message_from(IngressId::DEFAULT, t0, pkt_in, &mut rng).unwrap();

        // Idle sweep at t=25: scale-down only.
        ctl.tick(SimTime::from_secs(25), &mut rng);
        assert_eq!(ctl.telemetry.metrics.counter("scale_downs"), 1);
        assert_eq!(ctl.telemetry.metrics.counter("removes"), 0);
        let svc = ctl.services().get(make_service("asm", 80).addr).cloned().unwrap();
        assert!(matches!(
            ctl.cluster(0).state(&svc, SimTime::from_secs(26)),
            crate::cluster::InstanceState::Created
        ));
        // next_tick_at points at the pending removal.
        assert_eq!(ctl.next_tick_at(), Some(SimTime::from_secs(55)));

        // Sweep past the grace period: removed entirely.
        ctl.tick(SimTime::from_secs(56), &mut rng);
        assert_eq!(ctl.telemetry.metrics.counter("scale_downs"), 1);
        assert_eq!(ctl.telemetry.metrics.counter("removes"), 1);
        assert!(matches!(
            ctl.cluster(0).state(&svc, SimTime::from_secs(57)),
            crate::cluster::InstanceState::NotDeployed
        ));
        // The next request redeploys through the full Create + Scale Up.
        let t1 = SimTime::from_secs(60);
        let effects = sw.handle_frame(t1, CLIENT_PORT, &client_syn(50002).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        ctl.handle_switch_message_from(IngressId::DEFAULT, t1, pkt_in, &mut rng).unwrap();
        let rec = ctl.records.last().unwrap();
        assert_eq!(rec.kind, RequestKind::Waited);
        assert!(ctl.deployment(rec).unwrap().phases.create_done.is_some(), "create ran again");
    }

    #[test]
    fn flow_removed_is_counted() {
        let mut rng = SimRng::new(6);
        let (mut ctl, _) = setup(&mut rng);
        let fr = Message::FlowRemoved {
            cookie: 1,
            priority: 100,
            reason: openflow::messages::RemovedReason::IdleTimeout,
            table_id: 0,
            duration_sec: 10,
            duration_nsec: 0,
            idle_timeout: 10,
            hard_timeout: 0,
            packet_count: 5,
            byte_count: 500,
            match_: Match::any(),
        };
        ctl.handle_switch_message_from(IngressId::DEFAULT, SimTime::ZERO, &fr.encode(9), &mut rng)
            .unwrap();
        assert_eq!(ctl.flows_removed(), 1);
    }

    /// A with-waiting deployment that exhausts its retries releases the held
    /// request toward the cloud, and later requests inside the failure
    /// window coalesce on the same verdict.
    #[test]
    fn exhausted_deployment_releases_the_request_to_the_cloud() {
        let mut rng = SimRng::new(21);
        let plan = desim::FaultPlan {
            create_failure: 1.0,
            ..desim::FaultPlan::uniform(0.0, 77)
        };
        let mut engine = DockerEngine::with_defaults();
        engine.pull(&containerd::ServiceSet::by_key("asm").unwrap().manifests, &mut rng);
        engine.node_mut().set_faults(plan.injector(1));
        let cluster = DockerCluster::new(
            "edge-docker",
            engine,
            MacAddr::from_id(200),
            Ipv4Addr::new(10, 0, 0, 10),
            Duration::from_micros(150),
        );
        let mut ctl = Controller::new(
            Box::<ProximityScheduler>::default(),
            PortMap { cluster_ports: HashMap::new(), cloud_port: CLOUD_PORT },
            ControllerConfig::default(),
        );
        ctl.add_cluster(Box::new(cluster), EDGE_PORT);
        ctl.register_service(make_service("asm", 80));
        let mut sw = Switch::new(SwitchConfig {
            datapath_id: 1,
            n_buffers: 64,
            miss_send_len: 0xffff,
            ports: vec![CLIENT_PORT, EDGE_PORT, CLOUD_PORT],
        });

        let t0 = SimTime::from_secs(1);
        let effects = sw.handle_frame(t0, CLIENT_PORT, &client_syn(50000).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        let out = ctl.handle_switch_message_from(IngressId::DEFAULT, t0, pkt_in, &mut rng).unwrap();

        let rec = &ctl.records[0];
        assert_eq!(rec.kind, RequestKind::FallbackCloud);
        assert_eq!(rec.cluster(), None);
        let phases = ctl.deployment(rec).expect("a deployment ran").phases;
        assert_eq!(
            phases.create_retries,
            RetryPolicy::default().max_attempts - 1,
            "every allowed retry was spent on the create phase"
        );
        let released = phases.gave_up_at.expect("deployment gave up");
        assert_eq!(rec.answered_at, released.max(rec.at));
        assert!(ctl.memory().is_empty(), "failed deployments are not memorized");

        // The buffered SYN is released through a plain cloud path, with the
        // original destination untouched.
        let mut released_fx = Vec::new();
        for m in &out {
            released_fx.extend(sw.handle_controller(m.at, &m.data).unwrap());
        }
        let Effect::Forward { port, data } = released_fx
            .iter()
            .find(|e| matches!(e, Effect::Forward { .. }))
            .expect("buffered packet released")
        else {
            unreachable!()
        };
        assert_eq!(*port, CLOUD_PORT);
        let f = TcpFrame::decode(data).unwrap();
        assert_eq!(f.dst_ip, Ipv4Addr::new(203, 0, 113, 10));
        assert_eq!(f.dst_port, 80);

        // A second request inside the failure window coalesces: same
        // release instant, no fresh deployment attempt.
        let t1 = t0 + Duration::from_millis(5);
        let effects = sw.handle_frame(t1, CLIENT_PORT, &client_syn(50001).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        ctl.handle_switch_message_from(IngressId::DEFAULT, t1, pkt_in, &mut rng).unwrap();
        assert_eq!(ctl.coalesced_count(), 1);
        assert_eq!(ctl.records[1].kind, RequestKind::FallbackCloud);
        assert_eq!(ctl.records[1].answered_at, ctl.records[0].answered_at);
    }

    /// Regression: the idle sweep must not scale a service down while a
    /// with-waiting request is held — the held client would be redirected
    /// to a stopped instance. The expiry is deferred until the hold drains.
    #[test]
    fn scale_down_is_deferred_while_a_request_is_held() {
        let mut rng = SimRng::new(22);
        let mut engine = DockerEngine::with_defaults();
        engine.pull(&containerd::ServiceSet::by_key("asm").unwrap().manifests, &mut rng);
        let cluster = DockerCluster::new(
            "edge-docker",
            engine,
            MacAddr::from_id(200),
            Ipv4Addr::new(10, 0, 0, 10),
            Duration::from_micros(150),
        );
        let mut ctl = Controller::new(
            Box::<ProximityScheduler>::default(),
            PortMap { cluster_ports: HashMap::new(), cloud_port: CLOUD_PORT },
            ControllerConfig {
                // Tiny idle timeout so a stale entry can expire mid-hold.
                memory_idle: Duration::from_millis(1),
                ..ControllerConfig::default()
            },
        );
        ctl.add_cluster(Box::new(cluster), EDGE_PORT);
        ctl.register_service(make_service("asm", 80));
        let mut sw = Switch::new(SwitchConfig {
            datapath_id: 1,
            n_buffers: 64,
            miss_send_len: 0xffff,
            ports: vec![CLIENT_PORT, EDGE_PORT, CLOUD_PORT],
        });

        let t0 = SimTime::from_secs(1);
        let effects = sw.handle_frame(t0, CLIENT_PORT, &client_syn(50000).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        let out = ctl.handle_switch_message_from(IngressId::DEFAULT, t0, pkt_in, &mut rng).unwrap();
        assert_eq!(ctl.records[0].kind, RequestKind::Waited);
        let held_until = out[0].at;

        // The waiting client moves away (its own entry is flushed) and a
        // stale entry from another client expires while the hold is live.
        ctl.state.memory_mut().forget_client(Ipv4Addr::new(192, 168, 1, 20));
        let svc = ctl
            .services()
            .get(ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80))
            .cloned()
            .unwrap();
        let inst = ctl.cluster(0).instance_addr(&svc).unwrap();
        ctl.state.memory_mut().memorize(
            crate::flowmemory::FlowKey {
                ingress: IngressId::DEFAULT,
                client_ip: Ipv4Addr::new(192, 168, 1, 99),
                service: svc.addr,
            },
            inst,
            0,
            t0,
        );

        // Mid-hold sweep: the expiry fires but the scale-down is deferred.
        let mid = t0 + (held_until - t0) / 2;
        ctl.tick(mid, &mut rng);
        assert_eq!(
            ctl.telemetry.metrics.counter("scale_downs"),
            0,
            "scale-down deferred while the request is held"
        );
        assert!(
            matches!(
                ctl.cluster(0).state(&svc, mid),
                crate::cluster::InstanceState::Ready(_)
                    | crate::cluster::InstanceState::Starting { .. }
            ),
            "instance still up for the held client"
        );
        // The deferral is visible to the event loop.
        assert_eq!(ctl.next_tick_at(), Some(held_until));

        // Once the hold drains the idle scale-down proceeds.
        let after = held_until + Duration::from_millis(10);
        ctl.tick(after, &mut rng);
        assert_eq!(ctl.telemetry.metrics.counter("scale_downs"), 1);
        assert!(matches!(
            ctl.cluster(0).state(&svc, after + Duration::from_millis(1)),
            crate::cluster::InstanceState::Created
        ));
    }

    /// A cluster that only records the services it scales down, in order.
    struct ScaleDownLog(std::rc::Rc<std::cell::RefCell<Vec<ServiceAddr>>>);

    impl EdgeCluster for ScaleDownLog {
        fn name(&self) -> &str { "edge-docker" }
        fn kind(&self) -> &'static str { "docker" }
        fn latency(&self) -> Duration { Duration::from_micros(150) }
        fn has_image_cached(&self, _: &EdgeService) -> bool { true }
        fn state(&self, _: &EdgeService, _: SimTime) -> InstanceState { InstanceState::Created }
        fn pull(&mut self, _: &EdgeService, now: SimTime, _: &mut SimRng) -> Result<SimTime, DeployError> {
            Ok(now)
        }
        fn create(&mut self, _: &EdgeService, now: SimTime, _: &mut SimRng) -> Result<SimTime, DeployError> {
            Ok(now)
        }
        fn scale_up(
            &mut self,
            _: &EdgeService,
            now: SimTime,
            _: &mut SimRng,
        ) -> Result<(SimTime, SimTime), DeployError> {
            Ok((now, now))
        }
        fn scale_down(&mut self, svc: &EdgeService, now: SimTime, _: &mut SimRng) -> SimTime {
            self.0.borrow_mut().push(svc.addr);
            now
        }
        fn remove(&mut self, _: &EdgeService, now: SimTime, _: &mut SimRng) -> SimTime { now }
        fn instance_addr(&self, _: &EdgeService) -> Option<InstanceAddr> { None }
        fn load(&self) -> usize { 0 }
    }

    /// Deferred scale-downs that ripen in one tick run in sorted order,
    /// not in the order the deferral map happens to hold them: each draws
    /// from the simulation's random stream.
    #[test]
    fn deferred_scale_downs_ripening_together_run_in_sorted_order() {
        let log = std::rc::Rc::default();
        let mut ctl = Controller::new(
            Box::<ProximityScheduler>::default(),
            PortMap { cluster_ports: HashMap::new(), cloud_port: CLOUD_PORT },
            ControllerConfig::default(),
        );
        ctl.add_cluster(Box::new(ScaleDownLog(std::rc::Rc::clone(&log))), EDGE_PORT);
        let t0 = SimTime::from_secs(1);
        let mut services: Vec<ServiceAddr> = Vec::new();
        for port in [8080, 80, 9000, 81, 443, 8000] {
            let svc = make_service("asm", port);
            services.push(svc.addr);
            ctl.deferred.insert((svc.addr, 0), t0);
            ctl.register_service(svc);
        }
        ctl.tick(t0 + Duration::from_secs(1), &mut SimRng::new(5));
        services.sort_unstable();
        assert_eq!(*log.borrow(), services);
        assert!(ctl.deferred.is_empty());
    }

    /// FlowMemory expiry racing a held (with-waiting) request, traced: the
    /// expiry/deferral machinery must not disturb the span ledger — every
    /// request's root span closes exactly once, and the scale-down that the
    /// hold deferred still lands in the metrics.
    #[test]
    fn spans_close_once_across_expiry_and_held_requests() {
        let mut rng = SimRng::new(23);
        let mut engine = DockerEngine::with_defaults();
        engine.pull(&containerd::ServiceSet::by_key("asm").unwrap().manifests, &mut rng);
        let cluster = DockerCluster::new(
            "edge-docker",
            engine,
            MacAddr::from_id(200),
            Ipv4Addr::new(10, 0, 0, 10),
            Duration::from_micros(150),
        );
        let mut ctl = Controller::<SpanLog>::with_spans(
            Box::<ProximityScheduler>::default(),
            PortMap { cluster_ports: HashMap::new(), cloud_port: CLOUD_PORT },
            ControllerConfig {
                memory_idle: Duration::from_millis(1),
                ..ControllerConfig::default()
            },
        );
        ctl.add_cluster(Box::new(cluster), EDGE_PORT);
        ctl.register_service(make_service("asm", 80));
        let mut sw = Switch::new(SwitchConfig {
            datapath_id: 1,
            n_buffers: 64,
            miss_send_len: 0xffff,
            ports: vec![CLIENT_PORT, EDGE_PORT, CLOUD_PORT],
        });

        // Request 1: on-demand deployment with waiting (held).
        let t0 = SimTime::from_secs(1);
        let effects = sw.handle_frame(t0, CLIENT_PORT, &client_syn(50000).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        let out = ctl.handle_switch_message_from(IngressId::DEFAULT, t0, pkt_in, &mut rng).unwrap();
        assert_eq!(ctl.records[0].kind, RequestKind::Waited);
        let held_until = out[0].at;

        // A stale entry from another client expires mid-hold: deferred.
        ctl.state.memory_mut().forget_client(Ipv4Addr::new(192, 168, 1, 20));
        let svc = ctl
            .services()
            .get(ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80))
            .cloned()
            .unwrap();
        let inst = ctl.cluster(0).instance_addr(&svc).unwrap();
        ctl.state.memory_mut().memorize(
            crate::flowmemory::FlowKey {
                ingress: IngressId::DEFAULT,
                client_ip: Ipv4Addr::new(192, 168, 1, 99),
                service: svc.addr,
            },
            inst,
            0,
            t0,
        );
        let mid = t0 + (held_until - t0) / 2;
        ctl.tick(mid, &mut rng);
        assert_eq!(ctl.telemetry.metrics.counter("scale_downs"), 0, "deferred while held");

        // Request 2 after the hold drains and the service scaled down:
        // a fresh deployment (the memory has long expired).
        let after = held_until + Duration::from_millis(10);
        ctl.tick(after, &mut rng);
        let t1 = after + Duration::from_secs(1);
        let effects = sw.handle_frame(t1, CLIENT_PORT, &client_syn(50002).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        ctl.handle_switch_message_from(IngressId::DEFAULT, t1, pkt_in, &mut rng).unwrap();
        assert_eq!(ctl.records[1].kind, RequestKind::Waited);

        // The span ledger: one root span per request, each closed exactly
        // once, no orphans.
        let log = ctl.telemetry.span_log().expect("recording endpoint");
        let check = log.check();
        assert!(check.ok(), "clean span log: {}", check.to_json_line());
        let roots: Vec<_> = log.spans().filter(|s| s.name == "request").collect();
        assert_eq!(roots.len(), ctl.records.len());
        for (root, rec) in roots.iter().zip(&ctl.records) {
            assert_eq!(root.end, Some(rec.answered_at), "closed at the answer instant");
        }
        assert_eq!(log.request_ids(), vec![1, 2]);
        // The deferred scale-down still landed in the metrics.
        assert_eq!(ctl.telemetry.metrics.counter("scale_downs"), 1);
        assert_eq!(ctl.telemetry.metrics.counter("requests_waited"), 2);
    }

    /// A traced FallbackCloud release: the root span's close instant lies in
    /// the sim-future at dispatch time (the give-up instant), yet it closes
    /// exactly once — and the coalesced second request gets its own span.
    #[test]
    fn fallback_cloud_spans_close_once() {
        let mut rng = SimRng::new(24);
        let plan = desim::FaultPlan {
            create_failure: 1.0,
            ..desim::FaultPlan::uniform(0.0, 77)
        };
        let mut engine = DockerEngine::with_defaults();
        engine.pull(&containerd::ServiceSet::by_key("asm").unwrap().manifests, &mut rng);
        engine.node_mut().set_faults(plan.injector(1));
        let cluster = DockerCluster::new(
            "edge-docker",
            engine,
            MacAddr::from_id(200),
            Ipv4Addr::new(10, 0, 0, 10),
            Duration::from_micros(150),
        );
        let mut ctl = Controller::<SpanLog>::with_spans(
            Box::<ProximityScheduler>::default(),
            PortMap { cluster_ports: HashMap::new(), cloud_port: CLOUD_PORT },
            ControllerConfig::default(),
        );
        ctl.add_cluster(Box::new(cluster), EDGE_PORT);
        ctl.register_service(make_service("asm", 80));
        let mut sw = Switch::new(SwitchConfig {
            datapath_id: 1,
            n_buffers: 64,
            miss_send_len: 0xffff,
            ports: vec![CLIENT_PORT, EDGE_PORT, CLOUD_PORT],
        });

        let t0 = SimTime::from_secs(1);
        let effects = sw.handle_frame(t0, CLIENT_PORT, &client_syn(50000).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        ctl.handle_switch_message_from(IngressId::DEFAULT, t0, pkt_in, &mut rng).unwrap();
        assert_eq!(ctl.records[0].kind, RequestKind::FallbackCloud);

        // Second request coalesces onto the cached failure.
        let t1 = t0 + Duration::from_millis(5);
        let effects = sw.handle_frame(t1, CLIENT_PORT, &client_syn(50001).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        ctl.handle_switch_message_from(IngressId::DEFAULT, t1, pkt_in, &mut rng).unwrap();
        assert_eq!(ctl.records[1].kind, RequestKind::FallbackCloud);

        let log = ctl.telemetry.span_log().unwrap();
        let check = log.check();
        assert!(check.ok(), "clean span log: {}", check.to_json_line());
        for request in [1u64, 2] {
            let roots: Vec<_> = log
                .spans_for_request(request)
                .filter(|s| s.name == "request")
                .collect();
            assert_eq!(roots.len(), 1, "one root per request");
            assert_eq!(
                roots[0].end,
                Some(ctl.records[request as usize - 1].answered_at),
                "closed at the (future) release instant"
            );
        }
        // Retry attempts and the give-up verdict reached the metrics. The
        // coalesced request inherits the cached failure's phase data, so it
        // reports the same retry spend.
        assert_eq!(ctl.telemetry.metrics.counter("requests_fallback_cloud"), 2);
        assert_eq!(
            ctl.telemetry.metrics.counter("deploy_retries_total"),
            2 * u64::from(RetryPolicy::default().max_attempts - 1)
        );
        assert_eq!(ctl.telemetry.metrics.counter("deploys_gave_up"), 2);
    }

    /// Drives one request to completion and delivers its flows to the
    /// switch; returns the answer instant.
    fn serve_one<S: Spans>(
        ctl: &mut Controller<S>,
        sw: &mut Switch,
        at: SimTime,
        src_port: u16,
        rng: &mut SimRng,
    ) -> SimTime {
        let effects = sw.handle_frame(at, CLIENT_PORT, &client_syn(src_port).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        let out = ctl.handle_switch_message_from(IngressId::DEFAULT, at, pkt_in, rng).unwrap();
        let answered = out[0].at;
        for m in &out {
            sw.handle_controller(m.at, &m.data).unwrap();
        }
        answered
    }

    /// The runtime-failure tentpole, end to end at the unit level: a Ready
    /// instance crashes while serving; the next health sweep forgets its
    /// memorized redirects, deletes its switch flows, feeds the breaker and
    /// the metrics; the client's next packet re-enters dispatch and
    /// redeploys.
    #[test]
    fn crashed_instance_is_detected_and_repaired() {
        let mut rng = SimRng::new(31);
        let (mut ctl, mut sw) = setup_recording(&mut rng);
        let answered = serve_one(&mut ctl, &mut sw, SimTime::from_secs(1), 50000, &mut rng);
        assert_eq!(ctl.memory().len(), 1);
        let flows_before = sw.table().entries().count();
        assert!(flows_before >= 2);

        // Crash while serving — silent until the next sweep.
        let svc_addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80);
        let crash_at = answered + Duration::from_secs(1);
        assert!(ctl.inject_instance_crash(0, svc_addr, crash_at, &mut rng));
        assert_eq!(ctl.memory().len(), 1, "not yet detected");

        // Detection sweep: memory purged, exact deletes emitted.
        let detect_at = crash_at + DETECT_INTERVAL;
        let repairs = sent(|out| ctl.health_check(detect_at, out));
        assert!(ctl.memory().is_empty(), "no lookup returns the dead address");
        assert_eq!(repairs.len(), 2, "fwd + rev delete");
        for (ing, m) in &repairs {
            assert_eq!(*ing, IngressId::DEFAULT);
            sw.handle_controller(m.at, &m.data).unwrap();
        }
        assert_eq!(sw.table().entries().count(), flows_before - 2);
        // A second sweep finds nothing left to repair.
        assert!(sent(|out| ctl.health_check(detect_at + DETECT_INTERVAL, out)).is_empty());

        // One failure is below the breaker threshold: cluster still offered.
        assert_eq!(ctl.breaker_state(0), BreakerState::Closed);
        assert_eq!(ctl.telemetry.metrics.counter("instance_failures_total"), 1);
        assert_eq!(ctl.telemetry.metrics.counter("stale_redirects_repaired"), 1);
        let hist = ctl.telemetry.metrics.histogram("stale_redirect_repair_ns").unwrap();
        assert_eq!(hist.count(), 1, "crash→repair latency observed");

        // The client's next connection redeploys through the pipeline.
        let t1 = detect_at + Duration::from_secs(1);
        serve_one(&mut ctl, &mut sw, t1, 50001, &mut rng);
        let rec = ctl.records.last().unwrap();
        assert_eq!(rec.kind, RequestKind::Waited, "fresh deployment, not a stale hit");
        assert_eq!(rec.cluster(), Some(0));
        // The recovery span closed cleanly.
        let log = ctl.telemetry.span_log().unwrap();
        assert!(log.check().ok());
        assert!(log.spans().any(|s| s.name == "recovery"));
    }

    /// Repeated crashes trip the cluster's breaker: the scheduler stops
    /// seeing the zone and requests go to the cloud until the cooldown
    /// half-opens it again.
    #[test]
    fn breaker_trips_after_repeated_crashes_and_probes_after_cooldown() {
        let mut rng = SimRng::new(32);
        let (mut ctl, mut sw) = setup(&mut rng);
        let svc_addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80);
        let threshold = BREAKER_THRESHOLD;
        let mut t = SimTime::from_secs(1);
        // Alternating crash/redeploy cycles never trip the breaker: each
        // successful redeployment resets the failure streak.
        for i in 0..threshold {
            let answered = serve_one(&mut ctl, &mut sw, t, 50000 + i as u16, &mut rng);
            let crash_at = answered + Duration::from_secs(1);
            assert!(ctl.inject_instance_crash(0, svc_addr, crash_at, &mut rng));
            t = crash_at + DETECT_INTERVAL;
            for (_, m) in sent(|out| ctl.health_check(t, out)) {
                sw.handle_controller(m.at, &m.data).unwrap();
            }
            t += Duration::from_secs(1);
        }
        assert_eq!(ctl.breaker_state(0), BreakerState::Closed);

        // K *consecutive* failures with no success in between do trip it
        // (the same record_failure path the health sweep and the
        // deployment give-up feed).
        for i in 0..threshold {
            ctl.state
                .health_mut()
                .record_failure(0, t + Duration::from_millis(u64::from(i)));
        }
        assert_eq!(ctl.breaker_state(0), BreakerState::Open);

        // Open breaker: the scheduler sees no clusters; requests go cloud.
        let t1 = t + Duration::from_secs(1);
        serve_one(&mut ctl, &mut sw, t1, 51000, &mut rng);
        assert_eq!(ctl.records.last().unwrap().kind, RequestKind::Cloud);

        // After the cooldown the half-open probe lets a deployment through,
        // and its success closes the breaker.
        let t2 = t + BREAKER_COOLDOWN + Duration::from_secs(1);
        serve_one(&mut ctl, &mut sw, t2, 51001, &mut rng);
        assert_eq!(ctl.records.last().unwrap().kind, RequestKind::Waited);
        assert_eq!(ctl.breaker_state(0), BreakerState::Closed);
    }

    /// A declared zone outage tears everything down at once, blocks the zone
    /// for scheduling for the window, and the zone serves again afterwards.
    #[test]
    fn zone_outage_blocks_scheduling_until_it_ends() {
        let mut rng = SimRng::new(33);
        let (mut ctl, mut sw) = setup_recording(&mut rng);
        let answered = serve_one(&mut ctl, &mut sw, SimTime::from_secs(1), 50000, &mut rng);
        let flows_before = sw.table().entries().count();

        let dark_at = answered + Duration::from_secs(1);
        let until = dark_at + Duration::from_secs(30);
        let repairs = sent(|out| ctl.begin_zone_outage(0, dark_at, until, &mut rng, out));
        assert!(ctl.memory().is_empty());
        assert_eq!(repairs.len(), 2);
        for (_, m) in &repairs {
            sw.handle_controller(m.at, &m.data).unwrap();
        }
        assert_eq!(sw.table().entries().count(), flows_before - 2);
        assert_eq!(ctl.telemetry.metrics.counter("zone_outages_total"), 1);

        // During the window: the zone is not offered; requests go cloud.
        serve_one(&mut ctl, &mut sw, dark_at + Duration::from_secs(5), 50001, &mut rng);
        assert_eq!(ctl.records.last().unwrap().kind, RequestKind::Cloud);

        // After the window passes, the next request redeploys at the edge.
        serve_one(&mut ctl, &mut sw, until + Duration::from_secs(1), 50002, &mut rng);
        let rec = ctl.records.last().unwrap();
        assert_eq!(rec.kind, RequestKind::Waited);
        assert_eq!(rec.cluster(), Some(0));

        // An explicit early end also restores the zone.
        let dark2 = until + Duration::from_secs(40);
        sent(|out| ctl.begin_zone_outage(0, dark2, dark2 + Duration::from_secs(60), &mut rng, out));
        ctl.end_zone_outage(0);
        serve_one(&mut ctl, &mut sw, dark2 + Duration::from_secs(1), 50003, &mut rng);
        assert_eq!(ctl.records.last().unwrap().kind, RequestKind::Waited);
    }

    /// Channel-reconnect reconciliation: flows the switch lost while the
    /// channel was down are re-installed verbatim; switch entries the
    /// controller does not claim are strict-deleted; a second pass is a
    /// no-op — the table and the bookkeeping agree exactly.
    #[test]
    fn reconcile_reinstalls_missing_and_deletes_orphans() {
        let mut rng = SimRng::new(34);
        let (mut ctl, mut sw) = setup(&mut rng);
        let answered = serve_one(&mut ctl, &mut sw, SimTime::from_secs(1), 50000, &mut rng);
        let flows_before: Vec<FlowEntry> = sw.table().entries().collect();
        assert!(flows_before.len() >= 2);

        // The switch flows idle out *with the channel down*: the
        // FLOW_REMOVED effects are never delivered, so the controller's
        // bookkeeping still claims the pair.
        let lost_at = answered + ctl.config.switch_flow_idle + Duration::from_secs(1);
        let _undelivered = sw.expire_flows(lost_at);
        assert_eq!(sw.table().entries().count(), 0, "switch lost everything");

        // An orphan the controller never installed (its teardown was lost).
        let orphan = Message::FlowMod {
            cookie: 7,
            table_id: 0,
            command: openflow::messages::FlowModCommand::Add,
            idle_timeout: 0,
            priority: 42,
            buffer_id: OFP_NO_BUFFER,
            flags: 0,
            match_: Match::connection([1, 2, 3, 4], 9, [5, 6, 7, 8], 10),
            actions: Actions::from([Action::output(CLOUD_PORT)]),
        };
        sw.handle_controller(lost_at, &orphan.encode(1234)).unwrap();

        // Reconnect: diff the switch table against the bookkeeping.
        let reconnect_at = lost_at + Duration::from_secs(1);
        let table: Vec<FlowEntry> = sw.table().entries().collect();
        let fixes = sent(|out| ctl.reconcile(IngressId::DEFAULT, &table, reconnect_at, out));
        assert_eq!(fixes.len(), 3, "2 re-adds + 1 orphan delete");
        for (_, m) in &fixes {
            sw.handle_controller(m.at, &m.data).unwrap();
        }

        // The repaired table matches what was installed originally, modulo
        // bookkeeping fields the switch resets (timestamps, counters).
        let repaired: Vec<FlowEntry> = sw.table().entries().collect();
        assert_eq!(repaired.len(), flows_before.len());
        for b in &flows_before {
            assert!(
                repaired.iter().any(|a| a.match_ == b.match_
                    && a.priority == b.priority
                    && a.actions == b.actions
                    && a.flags == b.flags),
                "original flow missing after repair: {:?}",
                b.match_
            );
        }
        // Traffic flows again without a packet-in.
        let misses_before = sw.table_misses;
        let mut ack = client_syn(50000);
        ack.flags = TcpFlags::ACK;
        let fx = sw.handle_frame(reconnect_at + Duration::from_millis(1), CLIENT_PORT, &ack.encode());
        assert!(matches!(fx[0], Effect::Forward { port: EDGE_PORT, .. }));
        assert_eq!(sw.table_misses, misses_before);

        // Convergence: a second pass finds nothing to fix.
        let table: Vec<FlowEntry> = sw.table().entries().collect();
        assert!(sent(|out| ctl.reconcile(IngressId::DEFAULT, &table, reconnect_at + Duration::from_secs(1), out)).is_empty());
    }

    /// A delivered FLOW_REMOVED removes its pair: reconciliation does not
    /// resurrect flows the switch legitimately expired.
    #[test]
    fn flow_removed_removes_so_reconcile_does_not_resurrect() {
        let mut rng = SimRng::new(35);
        let (mut ctl, mut sw) = setup(&mut rng);
        let answered = serve_one(&mut ctl, &mut sw, SimTime::from_secs(1), 50000, &mut rng);

        // The flows idle out and the notification *is* delivered.
        let expire_at = answered + ctl.config.switch_flow_idle + Duration::from_secs(1);
        for fx in sw.expire_flows(expire_at) {
            if let Effect::ToController(bytes) = fx {
                ctl.handle_switch_message_from(IngressId::DEFAULT, expire_at, &bytes, &mut rng).unwrap();
            }
        }
        assert!(ctl.flows_removed() > 0);
        assert_eq!(sw.table().entries().count(), 0);

        // Reconciliation agrees with the switch: nothing to re-install.
        let table: Vec<FlowEntry> = sw.table().entries().collect();
        let fixes = sent(|out| ctl.reconcile(IngressId::DEFAULT, &table, expire_at + Duration::from_secs(1), out));
        assert!(fixes.is_empty(), "expired pairs are removed, not resurrected: {}", fixes.len());
    }

    /// A pair lives as long as its flow: after 5 000 install → expire cycles
    /// of one client the bookkeeping is empty, and every `FLOW_REMOVED`
    /// compared exactly one candidate — its own pair.
    #[test]
    fn flow_removed_leaves_nothing_behind_whatever_the_history() {
        let mut rng = SimRng::new(36);
        let (mut ctl, mut sw) = setup(&mut rng);
        let mut now = SimTime::from_secs(1);
        for cycle in 0..5_000u16 {
            let answered = serve_one(&mut ctl, &mut sw, now, 10_000 + cycle, &mut rng);
            assert_eq!(ctl.state_stats().pairs, 1);
            now = answered + ctl.config.switch_flow_idle + Duration::from_secs(1);
            let (before, removed) = (ctl.state.pairs_examined(), ctl.flows_removed());
            for fx in sw.expire_flows(now) {
                if let Effect::ToController(bytes) = fx {
                    ctl.handle_switch_message_from(IngressId::DEFAULT, now, &bytes, &mut rng).unwrap();
                }
            }
            assert_eq!(ctl.flows_removed() - removed, 1, "cycle {cycle}: one FLOW_REMOVED");
            assert_eq!(ctl.state.pairs_examined() - before, 1, "cycle {cycle}: one candidate");
        }
        let stats = ctl.state_stats();
        assert_eq!((stats.pairs, stats.filed_clients, stats.fwd_index), (0, 0, 0), "{stats:?}");
    }

    /// A handover deletes the pairs it retires and nothing else: a
    /// connection whose `FLOW_REMOVED` came in earlier is gone from the
    /// bookkeeping, so no Delete goes out for it.
    #[test]
    fn handover_deletes_only_the_pairs_still_on_the_switch() {
        let mut rng = SimRng::new(37);
        let (mut ctl, mut sw) = setup(&mut rng);
        let g1 = ctl.add_ingress(PortMap {
            cluster_ports: HashMap::from([("edge-docker".into(), EDGE_PORT)]),
            cloud_port: CLOUD_PORT,
        });
        let first = serve_one(&mut ctl, &mut sw, SimTime::from_secs(1), 50000, &mut rng);
        let idle = first + ctl.config.switch_flow_idle + Duration::from_secs(1);
        for fx in sw.expire_flows(idle) {
            if let Effect::ToController(bytes) = fx {
                ctl.handle_switch_message_from(IngressId::DEFAULT, idle, &bytes, &mut rng).unwrap();
            }
        }
        assert_eq!(ctl.flows_removed(), 1, "the first connection idled out");
        let second = serve_one(&mut ctl, &mut sw, idle, 50001, &mut rng);
        let ho = ctl.handle_attachment_change(
            second + Duration::from_secs(1),
            Ipv4Addr::new(192, 168, 1, 20),
            MacAddr::from_id(1),
            MacAddr::from_id(99),
            IngressId::DEFAULT,
            g1,
            CLIENT_PORT,
            HandoverPolicy::Anchored,
            &mut rng,
        );
        let deleted: Vec<Match> = ho
            .messages
            .iter()
            .filter(|(g, _)| *g == IngressId::DEFAULT)
            .map(|(_, m)| match Message::decode(&m.data).unwrap().1 {
                Message::FlowMod { command: openflow::FlowModCommand::Delete, match_, .. } => match_,
                other => panic!("only Deletes go to the old switch: {other:?}"),
            })
            .collect();
        let live = sw.table().entries().map(|e| e.match_).collect::<Vec<_>>();
        assert_eq!(deleted.len(), 2, "the live pair's two flows, no more");
        assert!(deleted.iter().all(|m| live.contains(m)), "every Delete names a flow on the switch");
    }

    /// Reconciliation removes pairs whose instance died while the channel
    /// was down: their surviving switch flows become orphans and are
    /// deleted, not re-installed.
    #[test]
    fn reconcile_drops_pairs_of_dead_instances() {
        let mut rng = SimRng::new(36);
        let (mut ctl, mut sw) = setup(&mut rng);
        let answered = serve_one(&mut ctl, &mut sw, SimTime::from_secs(1), 50000, &mut rng);
        let svc_addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80);

        // The instance dies while the channel is down — no repair Deletes
        // could be delivered, so the switch still redirects at the corpse.
        let crash_at = answered + Duration::from_secs(1);
        assert!(ctl.inject_instance_crash(0, svc_addr, crash_at, &mut rng));
        assert!(sw.table().entries().count() >= 2, "stale flows survive on the switch");

        // On reconnect, reconciliation deletes them instead of re-adding.
        let table: Vec<FlowEntry> = sw.table().entries().collect();
        let fixes = sent(|out| ctl.reconcile(IngressId::DEFAULT, &table, crash_at + Duration::from_secs(2), out));
        assert!(!fixes.is_empty());
        for (_, m) in &fixes {
            sw.handle_controller(m.at, &m.data).unwrap();
        }
        assert_eq!(sw.table().entries().count(), 0, "stale redirects purged");
        let table: Vec<FlowEntry> = sw.table().entries().collect();
        assert!(sent(|out| ctl.reconcile(IngressId::DEFAULT, &table, crash_at + Duration::from_secs(3), out)).is_empty());
    }

    /// A SYN from an arbitrary client toward the registered service.
    fn syn_from(client_id: u32, src_port: u16) -> TcpFrame {
        TcpFrame::syn(
            MacAddr::from_id(client_id),
            MacAddr::from_id(99),
            Ipv4Addr::new(192, 168, 1, client_id as u8),
            src_port,
            ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80),
        )
    }

    fn aggregate_config() -> ControllerConfig {
        ControllerConfig {
            aggregate_rules: true,
            ..ControllerConfig::default()
        }
    }

    /// Rule aggregation end to end: the first shared-decision client puts
    /// one wildcard pair on the switch; every later client rides it with no
    /// table growth — their packets do not even miss — and replies are still
    /// rewritten transparently per client.
    #[test]
    fn aggregated_rules_collapse_per_client_pairs() {
        let mut rng = SimRng::new(41);
        let (mut ctl, mut sw) = setup_with(&mut rng, aggregate_config());
        let t0 = SimTime::from_secs(1);
        // Client 20 deploys the service (Waited keeps exact pairs: the
        // deferred release predates any aggregate decision).
        let answered = serve_one(&mut ctl, &mut sw, t0, 50000, &mut rng);
        let after_first = sw.table().entries().count();
        assert_eq!(after_first, 2, "exact pair for the deploying client");

        // Client 21 is a fresh Redirect: the aggregate pair goes in.
        let t1 = answered + Duration::from_secs(1);
        let effects = sw.handle_frame(t1, CLIENT_PORT, &syn_from(21, 51000).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        let out = ctl.handle_switch_message_from(IngressId::DEFAULT, t1, pkt_in, &mut rng).unwrap();
        let mut released = Vec::new();
        for m in &out {
            released.extend(sw.handle_controller(m.at, &m.data).unwrap());
        }
        assert_eq!(sw.table().entries().count(), after_first + 2, "one aggregate pair");
        let fwd = released
            .iter()
            .find_map(|e| match e {
                Effect::Forward { port, data } => Some((*port, data.clone())),
                _ => None,
            })
            .expect("buffered packet released through the aggregate");
        assert_eq!(fwd.0, EDGE_PORT);
        let f = TcpFrame::decode(&fwd.1).unwrap();
        assert_eq!(f.dst_ip, Ipv4Addr::new(10, 0, 0, 10), "rewritten toward the instance");
        assert_eq!(f.src_mac, MacAddr::from_id(21), "client source kept");

        // Client 22 never even misses: the wildcard already covers it.
        let misses_before = sw.table_misses;
        let t2 = t1 + Duration::from_secs(1);
        let effects = sw.handle_frame(t2, CLIENT_PORT, &syn_from(22, 52000).encode());
        assert!(
            matches!(effects[0], Effect::Forward { port: EDGE_PORT, .. }),
            "no packet-in for covered clients: {effects:?}"
        );
        assert_eq!(sw.table_misses, misses_before);
        assert_eq!(sw.table().entries().count(), after_first + 2, "table did not grow");

        // Transparency per client: the instance's reply to client 22 leaves
        // re-sourced from the cloud address, addressed to 22's own MAC.
        let reply = TcpFrame::decode(&match &effects[0] {
            Effect::Forward { data, .. } => data.clone(),
            _ => unreachable!(),
        })
        .unwrap()
        .reply(TcpFlags::SYN_ACK, Vec::new());
        let effects = sw.handle_frame(t2, EDGE_PORT, &reply.encode());
        let Effect::Forward { port, data } = &effects[0] else {
            panic!("reply must flow back: {effects:?}");
        };
        assert_eq!(*port, CLIENT_PORT);
        let r = TcpFrame::decode(data).unwrap();
        assert_eq!(r.src_ip, Ipv4Addr::new(203, 0, 113, 10), "masqueraded");
        assert_eq!(r.src_port, 80);
        assert_eq!(r.dst_mac, MacAddr::from_id(22), "per-client reply without a per-client rule");
    }

    /// A covered packet-in (the race where a packet missed before the
    /// aggregate landed) is answered with a bare `PACKET_OUT` — nothing is
    /// added to the table.
    #[test]
    fn covered_packet_in_installs_nothing() {
        let mut rng = SimRng::new(42);
        let (mut ctl, mut sw) = setup_with(&mut rng, aggregate_config());
        let answered = serve_one(&mut ctl, &mut sw, SimTime::from_secs(1), 50000, &mut rng);
        // Install the aggregate via client 21.
        let t1 = answered + Duration::from_secs(1);
        let effects = sw.handle_frame(t1, CLIENT_PORT, &syn_from(21, 51000).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        for m in ctl.handle_switch_message_from(IngressId::DEFAULT, t1, pkt_in, &mut rng).unwrap() {
            sw.handle_controller(m.at, &m.data).unwrap();
        }
        let table_before = sw.table().entries().count();
        let adds_before = ctl.flow_adds;

        // Hand-built packet-in for client 23 — as if its SYN raced the
        // aggregate install.
        let frame = syn_from(23, 53000);
        let pkt_in = Message::PacketIn {
            buffer_id: OFP_NO_BUFFER,
            total_len: frame.encode().len() as u16,
            reason: openflow::PacketInReason::NoMatch,
            table_id: 0,
            cookie: 0,
            match_: Match::any().with(OxmField::InPort(CLIENT_PORT)),
            data: frame.encode(),
        }
        .encode(777);
        let t2 = t1 + Duration::from_secs(1);
        let out = ctl.handle_switch_message_from(IngressId::DEFAULT, t2, &pkt_in, &mut rng).unwrap();
        assert_eq!(out.len(), 1, "one PACKET_OUT, no FlowMods: {out:?}");
        let (_, decoded, _) = Message::decode(&out[0].data).unwrap();
        assert!(matches!(decoded, Message::PacketOut { .. }));
        assert_eq!(ctl.flow_adds, adds_before, "no table space claimed");

        // The released packet still reaches the edge, rewritten.
        let released = sw.handle_controller(out[0].at, &out[0].data).unwrap();
        let Effect::Forward { port, data } = &released[0] else {
            panic!("released: {released:?}");
        };
        assert_eq!(*port, EDGE_PORT);
        assert_eq!(TcpFrame::decode(data).unwrap().dst_port, 31000);
        assert_eq!(sw.table().entries().count(), table_before);
    }

    /// A client whose decision differs from the aggregate's anchor (here: a
    /// different perceived gateway) falls back to exact pairs at base
    /// priority, which shadow the aggregate for exactly that connection.
    #[test]
    fn divergent_client_falls_back_to_exact_pairs() {
        let mut rng = SimRng::new(43);
        let (mut ctl, mut sw) = setup_with(&mut rng, aggregate_config());
        let answered = serve_one(&mut ctl, &mut sw, SimTime::from_secs(1), 50000, &mut rng);
        let t1 = answered + Duration::from_secs(1);
        let effects = sw.handle_frame(t1, CLIENT_PORT, &syn_from(21, 51000).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        for m in ctl.handle_switch_message_from(IngressId::DEFAULT, t1, pkt_in, &mut rng).unwrap() {
            sw.handle_controller(m.at, &m.data).unwrap();
        }

        // Client 24 sits behind a different gateway: the aggregate's reverse
        // rewrite would mis-source its replies, so it must not be covered.
        let mut frame = syn_from(24, 54000);
        frame.dst_mac = MacAddr::from_id(98);
        let pkt_in = Message::PacketIn {
            buffer_id: OFP_NO_BUFFER,
            total_len: frame.encode().len() as u16,
            reason: openflow::PacketInReason::NoMatch,
            table_id: 0,
            cookie: 0,
            match_: Match::any().with(OxmField::InPort(CLIENT_PORT)),
            data: frame.encode(),
        }
        .encode(778);
        let t2 = t1 + Duration::from_secs(1);
        let out = ctl.handle_switch_message_from(IngressId::DEFAULT, t2, &pkt_in, &mut rng).unwrap();
        let kinds: Vec<&'static str> = out
            .iter()
            .map(|m| match Message::decode(&m.data).unwrap().1 {
                Message::FlowMod { priority, .. } => {
                    assert_eq!(priority, FLOW_PRIORITY, "exact pairs at base priority");
                    "flowmod"
                }
                Message::PacketOut { .. } => "packetout",
                other => panic!("unexpected: {other:?}"),
            })
            .collect();
        assert_eq!(kinds, ["flowmod", "flowmod", "packetout"]);
    }

    /// Repairing a dead instance retires its aggregate like any other pair:
    /// the switch-side wildcards are deleted and the next shared decision
    /// re-installs a fresh aggregate toward the replacement.
    #[test]
    fn aggregates_are_retired_with_their_instance() {
        let mut rng = SimRng::new(44);
        let (mut ctl, mut sw) = setup_with(&mut rng, aggregate_config());
        let answered = serve_one(&mut ctl, &mut sw, SimTime::from_secs(1), 50000, &mut rng);
        let t1 = answered + Duration::from_secs(1);
        let effects = sw.handle_frame(t1, CLIENT_PORT, &syn_from(21, 51000).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        for m in ctl.handle_switch_message_from(IngressId::DEFAULT, t1, pkt_in, &mut rng).unwrap() {
            sw.handle_controller(m.at, &m.data).unwrap();
        }
        assert_eq!(sw.table().entries().count(), 4, "exact pair + aggregate pair");

        let svc_addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80);
        let crash_at = t1 + Duration::from_secs(1);
        assert!(ctl.inject_instance_crash(0, svc_addr, crash_at, &mut rng));
        let detect_at = crash_at + DETECT_INTERVAL;
        let repairs = sent(|out| ctl.health_check(detect_at, out));
        assert_eq!(repairs.len(), 4, "deletes for the exact AND the aggregate pair");
        for (_, m) in &repairs {
            sw.handle_controller(m.at, &m.data).unwrap();
        }
        assert_eq!(sw.table().entries().count(), 0, "no stale wildcard survives");
        assert!(ctl.state.aggregate(IngressId::DEFAULT, svc_addr).is_none(), "anchor dropped with the instance");
    }

    /// Reconciliation treats aggregate pairs like any bookkept pair: lost
    /// installs are re-added verbatim and a second pass is empty.
    #[test]
    fn reconcile_reinstalls_lost_aggregate_pairs() {
        let mut rng = SimRng::new(45);
        let (mut ctl, mut sw) = setup_with(&mut rng, aggregate_config());
        let answered = serve_one(&mut ctl, &mut sw, SimTime::from_secs(1), 50000, &mut rng);
        let t1 = answered + Duration::from_secs(1);
        let effects = sw.handle_frame(t1, CLIENT_PORT, &syn_from(21, 51000).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        for m in ctl.handle_switch_message_from(IngressId::DEFAULT, t1, pkt_in, &mut rng).unwrap() {
            sw.handle_controller(m.at, &m.data).unwrap();
        }
        let flows_before: Vec<FlowEntry> = sw.table().entries().collect();
        assert_eq!(flows_before.len(), 4);

        // The whole table idles out with the channel down.
        let lost_at = t1 + ctl.config.switch_flow_idle + Duration::from_secs(1);
        let _undelivered = sw.expire_flows(lost_at);
        assert_eq!(sw.table().entries().count(), 0);

        let table: Vec<FlowEntry> = sw.table().entries().collect();
        let fixes = sent(|out| ctl.reconcile(IngressId::DEFAULT, &table, lost_at + Duration::from_secs(1), out));
        assert_eq!(fixes.len(), 4, "both pairs re-added");
        for (_, m) in &fixes {
            sw.handle_controller(m.at, &m.data).unwrap();
        }
        let repaired: Vec<FlowEntry> = sw.table().entries().collect();
        assert_eq!(repaired.len(), flows_before.len());
        for b in &flows_before {
            assert!(repaired
                .iter()
                .any(|a| a.match_ == b.match_ && a.priority == b.priority));
        }
        let table: Vec<FlowEntry> = sw.table().entries().collect();
        assert!(sent(|out| ctl.reconcile(IngressId::DEFAULT, &table, lost_at + Duration::from_secs(2), out)).is_empty());
    }

    /// Regression for the idle-timeout truncation bug: a sub-second
    /// `switch_flow_idle` used to floor to 0 seconds on the wire — OpenFlow's
    /// "never expire" — so switch flows leaked forever. It must clamp up to
    /// 1 s and provably expire at the switch.
    #[test]
    fn sub_second_idle_config_provably_expires_switch_flows() {
        let mut rng = SimRng::new(46);
        let cfg = ControllerConfig {
            switch_flow_idle: Duration::from_millis(500),
            ..ControllerConfig::default()
        };
        let (mut ctl, mut sw) = setup_with(&mut rng, cfg);
        let t0 = SimTime::from_secs(1);
        let effects = sw.handle_frame(t0, CLIENT_PORT, &client_syn(50000).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        let out = ctl.handle_switch_message_from(IngressId::DEFAULT, t0, pkt_in, &mut rng).unwrap();
        let answered = out[0].at;
        for m in &out {
            let (_, decoded, _) = Message::decode(&m.data).unwrap();
            if let Message::FlowMod { idle_timeout, .. } = decoded {
                assert_eq!(idle_timeout, 1, "500 ms clamps up to 1 s, never 0");
            }
            sw.handle_controller(m.at, &m.data).unwrap();
        }
        assert_eq!(sw.table().entries().count(), 2);

        // Idle past the clamped timeout: the flows actually expire.
        let effects = sw.expire_flows(answered + Duration::from_millis(1600));
        assert!(
            effects.iter().any(|e| matches!(e, Effect::ToController(_))),
            "FLOW_REMOVED reported: {effects:?}"
        );
        assert_eq!(sw.table().entries().count(), 0, "sub-second config expires flows");
    }

    /// The other end of the truncation bug: a 20-hour idle config used to
    /// wrap modulo 65536 to ~6464 s. It must saturate at `u16::MAX` seconds.
    #[test]
    fn multi_hour_idle_config_saturates_at_u16_max() {
        let mut rng = SimRng::new(47);
        let cfg = ControllerConfig {
            switch_flow_idle: Duration::from_secs(20 * 3600),
            ..ControllerConfig::default()
        };
        let (mut ctl, mut sw) = setup_with(&mut rng, cfg);
        let t0 = SimTime::from_secs(1);
        let effects = sw.handle_frame(t0, CLIENT_PORT, &client_syn(50000).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        let out = ctl.handle_switch_message_from(IngressId::DEFAULT, t0, pkt_in, &mut rng).unwrap();
        let answered = out[0].at;
        for m in &out {
            let (_, decoded, _) = Message::decode(&m.data).unwrap();
            if let Message::FlowMod { idle_timeout, .. } = decoded {
                assert_eq!(idle_timeout, u16::MAX, "20 h saturates, never wraps");
            }
            sw.handle_controller(m.at, &m.data).unwrap();
        }
        // Still alive where the wrapped value (~6464 s) would have expired.
        sw.expire_flows(answered + Duration::from_secs(60_000));
        assert_eq!(sw.table().entries().count(), 2, "no premature expiry from wraparound");
        // And genuinely idle-expires once 65535 s pass.
        sw.expire_flows(answered + Duration::from_secs(70_000));
        assert_eq!(sw.table().entries().count(), 0);
    }

    /// `record_requests: false` keeps the metrics but drops the unbounded
    /// per-request retention — the fleet-scale memory gate.
    #[test]
    fn record_requests_off_keeps_metrics_only() {
        let mut rng = SimRng::new(48);
        let cfg = ControllerConfig {
            record_requests: false,
            ..ControllerConfig::default()
        };
        let (mut ctl, mut sw) = setup_with(&mut rng, cfg);
        let answered = serve_one(&mut ctl, &mut sw, SimTime::from_secs(1), 50000, &mut rng);
        serve_one(&mut ctl, &mut sw, answered + Duration::from_secs(1), 50001, &mut rng);
        assert!(ctl.records.is_empty(), "no per-request retention");
        assert_eq!(ctl.telemetry.metrics.counter("requests_total"), 2);
        assert_eq!(ctl.telemetry.metrics.counter("requests_memory_hit"), 1);
    }

    /// Regression: a message tagged with an ingress the controller does not
    /// manage used to index `ingresses[99]` and panic. Egress resolution is
    /// total now: the condition is recorded and nothing is emitted — for
    /// registered and unregistered destinations and for handovers alike.
    #[test]
    fn unknown_ingress_is_recorded_not_a_panic() {
        let mut rng = SimRng::new(49);
        let (mut ctl, mut sw) = setup(&mut rng);
        let nowhere = IngressId(99);
        let t0 = SimTime::from_secs(1);
        let mut unregistered = client_syn(50000);
        unregistered.dst_port = 443;
        for frame in [client_syn(50001), unregistered] {
            let effects = sw.handle_frame(t0, CLIENT_PORT, &frame.encode());
            let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
            let out = ctl.handle_switch_message_from(nowhere, t0, pkt_in, &mut rng).unwrap();
            assert!(out.is_empty(), "nothing can be installed on an unknown switch");
        }
        // The registered request was memorized at the unknown ingress;
        // handing it over to another unknown ingress installs nothing either.
        let ho = ctl.handle_attachment_change(
            t0 + Duration::from_secs(5),
            Ipv4Addr::new(192, 168, 1, 20),
            MacAddr::from_id(1),
            MacAddr::from_id(99),
            nowhere,
            IngressId(98),
            CLIENT_PORT,
            HandoverPolicy::Anchored,
            &mut rng,
        );
        assert_eq!(ho.flows_migrated, 1);
        assert!(ho.messages.is_empty());
        assert_eq!(
            ctl.control_errors,
            vec![
                ControlPlaneError::UnknownIngress { ingress: nowhere },
                ControlPlaneError::UnknownIngress { ingress: nowhere },
                ControlPlaneError::UnknownIngress { ingress: IngressId(98) },
            ]
        );
        assert_eq!(ctl.telemetry.metrics.counter("control_plane_errors"), 3);
        assert_eq!(ctl.flow_adds, 0);
    }

    /// A `PACKET_OUT` has more overhead than a `PACKET_IN`: a frame that just
    /// fitted coming up unbuffered does not fit going back down with its
    /// action list. The controller installs the flows, drops the packet and
    /// records it — it never emits a message whose header length wrapped.
    #[test]
    fn a_carried_packet_too_large_for_one_packet_out_is_dropped_and_recorded() {
        let mut rng = SimRng::new(51);
        let (mut ctl, _) = setup(&mut rng);
        let mut sw = Switch::new(SwitchConfig {
            n_buffers: 0,
            ports: vec![CLIENT_PORT, EDGE_PORT, CLOUD_PORT],
            ..SwitchConfig::default()
        });
        let mut frame = client_syn(50000);
        let packet_in_overhead = 42;
        frame.payload = vec![0x5a; Message::MAX_LEN - packet_in_overhead - frame.headers().wire_len()];
        let effects = sw.handle_frame(SimTime::from_secs(1), CLIENT_PORT, &frame.encode());
        let [Effect::ToController(pkt_in)] = &effects[..] else {
            panic!("the frame fits one PACKET_IN exactly: {effects:?}");
        };
        assert_eq!(pkt_in.len(), Message::MAX_LEN);

        let out = ctl
            .handle_switch_message_from(IngressId::DEFAULT, SimTime::from_secs(1), pkt_in, &mut rng)
            .unwrap();
        assert_eq!(out.len(), 2, "the pair's two FLOW_MODs, no PACKET_OUT");
        for m in &out {
            let (_, msg, used) = Message::decode(&m.data).unwrap();
            assert_eq!(used, m.data.len(), "header length is the message's size");
            assert!(matches!(msg, Message::FlowMod { .. }), "{msg:?}");
        }
        assert_eq!(
            ctl.control_errors,
            vec![ControlPlaneError::OversizePacketOut { ingress: IngressId::DEFAULT }]
        );
    }

    /// Under the default switch configuration (`miss_send_len` 128) a missed
    /// segment longer than that comes up truncated and does not decode. The
    /// controller records it and has the switch drop the packet it parked,
    /// instead of leaking one of its buffers per such packet.
    #[test]
    fn truncated_packet_in_is_recorded_and_its_buffer_released() {
        let mut rng = SimRng::new(52);
        let (mut ctl, _) = setup(&mut rng);
        let mut sw = Switch::new(SwitchConfig {
            ports: vec![CLIENT_PORT, EDGE_PORT, CLOUD_PORT],
            ..SwitchConfig::default()
        });
        let t0 = SimTime::from_secs(1);
        let mut segment = client_syn(50000);
        segment.flags = TcpFlags::ACK;
        segment.payload = vec![0x5a; 300];
        let effects = sw.handle_frame(t0, CLIENT_PORT, &segment.encode());
        let [Effect::ToController(pkt_in)] = &effects[..] else {
            panic!("a table miss: {effects:?}");
        };
        assert_eq!(sw.buffered(), 1);

        let out = ctl.handle_switch_message_from(IngressId::DEFAULT, t0, pkt_in, &mut rng).unwrap();
        let [release] = &out[..] else {
            panic!("one PACKET_OUT, got {} messages", out.len());
        };
        let (_, msg, _) = Message::decode(&release.data).unwrap();
        assert!(
            matches!(&msg, Message::PacketOut { actions, data, .. }
                if actions.is_empty() && data.is_empty()),
            "{msg:?}"
        );
        let effects = sw.handle_controller(release.at, &release.data).unwrap();
        assert!(matches!(effects[..], [Effect::Drop]), "{effects:?}");
        assert_eq!(sw.buffered(), 0, "the buffer is free again");

        // Unbuffered, there is nothing to release — but it is still counted.
        let junk = Message::PacketIn {
            buffer_id: OFP_NO_BUFFER,
            total_len: 3,
            reason: openflow::PacketInReason::NoMatch,
            table_id: 0,
            cookie: 0,
            match_: Match::any().with(OxmField::InPort(CLIENT_PORT)),
            data: vec![1, 2, 3],
        };
        let out = ctl.handle_switch_message_from(IngressId::DEFAULT, t0, &junk.encode(7), &mut rng).unwrap();
        assert!(out.is_empty());

        let undecodable = ControlPlaneError::UndecodablePacketIn {
            ingress: IngressId::DEFAULT,
        };
        assert_eq!(ctl.control_errors, vec![undecodable; 2]);
        assert_eq!(ctl.telemetry.metrics.counter("control_plane_errors"), 2);
        assert!(ctl.records.is_empty() && ctl.flow_adds == 0);
    }

    /// A cluster with no egress port mapped on the ingress degrades to the
    /// cloud path — and, under rule aggregation, anchors no aggregate.
    #[test]
    fn unmapped_cluster_port_degrades_to_the_cloud_path() {
        let mut rng = SimRng::new(50);
        let (mut ctl, mut sw0) = setup_with(&mut rng, aggregate_config());
        let bare = ctl.add_ingress(PortMap {
            cluster_ports: HashMap::new(),
            cloud_port: CLOUD_PORT,
        });
        let answered = serve_one(&mut ctl, &mut sw0, SimTime::from_secs(1), 50000, &mut rng);
        // The instance is Ready, so this is a first shared decision — but
        // ingress `bare` has no port toward the cluster.
        let t1 = answered + Duration::from_secs(1);
        let effects = sw0.handle_frame(t1, CLIENT_PORT, &syn_from(21, 51000).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        let out = ctl.handle_switch_message_from(bare, t1, pkt_in, &mut rng).unwrap();
        assert_eq!(out.len(), 2, "an exact cloud pair");
        for m in &out {
            let (_, Message::FlowMod { priority, actions, .. }, _) =
                Message::decode(&m.data).unwrap()
            else {
                panic!("expected flow-mods");
            };
            assert_eq!(priority, FLOW_PRIORITY, "exact, not aggregate, priority");
            assert_eq!(actions.len(), 1, "plain output, no rewrite");
        }
        assert_eq!(
            ctl.control_errors,
            vec![ControlPlaneError::MissingClusterPort { ingress: bare, cluster: 0 }]
        );
        let svc_addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80);
        assert!(ctl.state.aggregate(bare, svc_addr).is_none(), "nothing anchored");
        assert_eq!(ctl.telemetry.metrics.counter("aggregate_installed"), 0);
    }

    /// `crash_restart` is simulation code: two identical runs must report
    /// identical recoveries (it used to read the wall clock).
    #[test]
    fn identical_crash_restarts_report_identically() {
        let run = |mode: RecoveryMode| {
            let mut rng = SimRng::new(51);
            let cfg = ControllerConfig {
                journal: JournalConfig { enabled: true, snapshot_every: 4 },
                ..ControllerConfig::default()
            };
            let (mut ctl, mut sw) = setup_with(&mut rng, cfg);
            let mut t = SimTime::from_secs(1);
            for port in 50000..50006 {
                t = serve_one(&mut ctl, &mut sw, t, port, &mut rng) + Duration::from_secs(1);
            }
            (ctl.crash_restart(mode), ctl.state_digest())
        };
        for mode in [RecoveryMode::Warm, RecoveryMode::Cold] {
            assert_eq!(run(mode), run(mode), "{mode:?}");
        }
        let (warm, _) = run(RecoveryMode::Warm);
        assert!(warm.replayed_events + warm.snapshot_entries > 0);
    }

    // -- the one liveness predicate ------------------------------------------

    /// `Controller::serving` against the data plane's own truth, over every
    /// instance state × {base, replica, stale address} × autoscaling off/on.
    /// The oracle is the rule the harness's listener answers by: a SYN to an
    /// address is answered at `t` iff the cluster reports that address as
    /// the instance's — or, with autoscaling on, the pool derives it from
    /// that base — and the instance is ready at `t`. The testbed's
    /// `autoscaled_replicas_scale_and_answer_on_the_data_path` sends real
    /// connections to such replicas.
    #[test]
    fn serving_agrees_with_what_the_data_plane_answers() {
        let svc = make_service("asm", 80);
        let mut answered = Vec::new();
        for autoscale in [false, true] {
            for state in ["not-deployed", "created", "starting", "ready"] {
                let mut rng = SimRng::new(70);
                let config = ControllerConfig { autoscale, ..ControllerConfig::default() };
                let (mut ctl, _) = setup_with(&mut rng, config);
                let mut now = SimTime::from_secs(1);
                if state != "not-deployed" {
                    now = ctl.cluster_mut(0).create(&svc, now, &mut rng).unwrap();
                }
                if state == "starting" || state == "ready" {
                    let (started, ready) = ctl.cluster_mut(0).scale_up(&svc, now, &mut rng).unwrap();
                    now = if state == "ready" { ready } else { started };
                }
                let base = ctl.cluster(0).instance_addr(&svc).unwrap_or(InstanceAddr {
                    mac: MacAddr::from_id(200),
                    ip: Ipv4Addr::new(10, 0, 0, 10),
                    port: 31000,
                });
                if autoscale && state != "not-deployed" {
                    // What the dispatcher does when it first sees the
                    // instance, and a burst a sweep past the cooldown answers
                    // with a second replica.
                    let load = ctl.load_mut();
                    load.ensure_pool(svc.addr, 0, base, SimTime::ZERO);
                    load.saturate(svc.addr, 0, now);
                    load.sweep(now);
                }
                let mut pools = LoadTracker::default();
                pools.ensure_pool(svc.addr, 0, base, now);
                let replica = pools.pool(svc.addr, 0).unwrap().addr(1);
                let stale = InstanceAddr { port: base.port - 1, ..base };
                for (label, addr) in [("base", base), ("replica", replica), ("stale", stale)] {
                    let cluster = ctl.cluster(0);
                    let owned = cluster.instance_addr(&svc) == Some(addr)
                        || ctl.load().index_of(svc.addr, 0, addr).is_some();
                    let answers = |t: SimTime| owned && cluster.state(&svc, t).is_ready();
                    let want = match cluster.state(&svc, now) {
                        _ if answers(now) => Serving::Yes,
                        InstanceState::Starting { ready_at } if answers(ready_at) => {
                            Serving::Pending(ready_at)
                        }
                        _ => Serving::Gone,
                    };
                    let got = ctl.serving(0, svc.addr, addr, now);
                    assert_eq!(got, want, "autoscale {autoscale}, {state}, {label} address");
                    if got != Serving::Gone {
                        answered.push((autoscale, state, label, got == Serving::Yes));
                    }
                }
                let elsewhere = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 99), 80);
                assert_eq!(ctl.serving(0, elsewhere, base, now), Serving::Gone, "no such service");
                assert_eq!(ctl.serving(7, svc.addr, base, now), Serving::Gone, "no such cluster");
            }
        }
        // Everything else is `Gone`: a created-but-stopped instance, a stale
        // address whatever the state, a replica address nobody vouches for.
        assert_eq!(
            answered,
            [
                (false, "starting", "base", false),
                (false, "ready", "base", true),
                (true, "starting", "base", false),
                (true, "starting", "replica", false),
                (true, "ready", "base", true),
                (true, "ready", "replica", true),
            ]
        );
    }

    /// One session toward the `asm` instance on cluster 0 — memorized, its
    /// pair filed — and an instant at which that instance's answer is `case`:
    /// `"yes"` (up), `"pending"` (the session's own deployment is still in
    /// progress, its Adds held) or `"gone"` (crashed since).
    fn session_whose_instance_is(
        case: &str,
        config: ControllerConfig,
    ) -> (Controller, SimRng, SimTime) {
        let mut rng = SimRng::new(71);
        let (mut ctl, mut sw) = setup_with(&mut rng, config);
        ctl.add_ingress(PortMap {
            cluster_ports: HashMap::from([("edge-docker".into(), EDGE_PORT)]),
            cloud_port: CLOUD_PORT,
        });
        let svc = make_service("asm", 80);
        let t0 = SimTime::from_secs(1);
        let effects = sw.handle_frame(t0, CLIENT_PORT, &client_syn(50000).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        let answered = ctl.handle_switch_message_from(IngressId::DEFAULT, t0, pkt_in, &mut rng).unwrap()[0].at;
        let inst = ctl.cluster(0).instance_addr(&svc).unwrap();
        let at = match case {
            "pending" => t0 + Duration::from_millis(50),
            "yes" => answered + Duration::from_secs(1),
            _ => {
                let crash_at = answered + Duration::from_secs(1);
                assert!(ctl.inject_instance_crash(0, svc.addr, crash_at, &mut rng));
                crash_at + Duration::from_secs(1)
            }
        };
        let is = ctl.serving(0, svc.addr, inst, at);
        match case {
            "yes" => assert_eq!(is, Serving::Yes),
            "pending" => assert!(matches!(is, Serving::Pending(ready) if at < ready && ready <= answered)),
            _ => assert_eq!(is, Serving::Gone),
        }
        (ctl, rng, at)
    }

    /// What each call site of the predicate does with each of its three
    /// answers — the whole policy of "is this redirect still served?".
    #[test]
    fn every_call_site_maps_the_three_answers() {
        let client = Ipv4Addr::new(192, 168, 1, 20);
        let svc_addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80);
        let plain = ControllerConfig::default;
        let on = |case| session_whose_instance_is(case, plain());

        // 1. A memorized flow answers a packet-in only while it is served;
        // otherwise the request is rescheduled (and joins or repeats the
        // deployment).
        let memory_hit = |case| {
            let (mut ctl, mut rng, at) = on(case);
            let pkt_in = Message::PacketIn {
                buffer_id: 1,
                total_len: 54,
                reason: openflow::messages::PacketInReason::NoMatch,
                table_id: 0,
                cookie: 0,
                match_: Match::any().with(OxmField::InPort(CLIENT_PORT)),
                data: client_syn(50001).encode(),
            };
            ctl.handle_switch_message_from(IngressId::DEFAULT, at, &pkt_in.encode(9), &mut rng).unwrap();
            ctl.records.last().unwrap().kind
        };
        assert_eq!(memory_hit("yes"), RequestKind::MemoryHit);
        assert_eq!(memory_hit("pending"), RequestKind::Waited);
        assert_eq!(memory_hit("gone"), RequestKind::Waited);

        // 2. An anchored handover keeps a session on its instance only while
        // that instance serves; otherwise the scheduler re-places it.
        let redispatched = |case| {
            let (mut ctl, mut rng, at) = on(case);
            let (mac, gw) = (MacAddr::from_id(1), MacAddr::from_id(99));
            let (from, to) = (IngressId::DEFAULT, IngressId(1));
            let anchored = HandoverPolicy::Anchored;
            ctl.handle_attachment_change(at, client, mac, gw, from, to, CLIENT_PORT, anchored, &mut rng)
                .redispatched
        };
        assert_eq!(redispatched("yes"), 0);
        assert_eq!(redispatched("pending"), 1);
        assert_eq!(redispatched("gone"), 1);

        // 3. The health sweep repairs around what is gone; a deployment in
        // progress is not a dead instance.
        let repaired = |case| {
            let (mut ctl, _, at) = on(case);
            let deletes = sent(|out| ctl.health_check(at, out)).len();
            let failures = ctl.telemetry.metrics.counter("instance_failures_total");
            (deletes, ctl.memory().len(), failures)
        };
        assert_eq!(repaired("yes"), (0, 1, 0));
        assert_eq!(repaired("pending"), (0, 1, 0));
        assert_eq!(repaired("gone"), (2, 0, 1));

        // 4. Reconciliation expects a pair on the switch only while its
        // instance serves: against an empty table, a served pair is
        // re-installed, one whose Adds are still held is left to them, and
        // one whose instance is gone is removed.
        let reinstalled = |case| {
            let (mut ctl, _, at) = on(case);
            let adds = sent(|out| ctl.reconcile(IngressId::DEFAULT, &[], at, out)).len();
            (adds, ctl.state.pairs(client, IngressId::DEFAULT).count())
        };
        assert_eq!(reinstalled("yes"), (2, 1));
        assert_eq!(reinstalled("pending"), (0, 1));
        assert_eq!(reinstalled("gone"), (0, 0));

        // 5. A migration flips its flows only onto a target that serves; a
        // target that died mid-transfer aborts it.
        let flipped = |target_dies: bool| {
            let migration = MigrationConfig {
                policy: crate::migrate::MigrationPolicy::Live,
                ..MigrationConfig::default()
            };
            let config = ControllerConfig { migration, ..plain() };
            let (mut ctl, mut rng, at) = session_whose_instance_is("yes", config);
            let mut engine = DockerEngine::with_defaults();
            engine.pull(&containerd::ServiceSet::by_key("asm").unwrap().manifests, &mut rng);
            let (mac, ip) = (MacAddr::from_id(201), Ipv4Addr::new(10, 0, 1, 10));
            let far = Duration::from_micros(900);
            ctl.add_cluster(Box::new(DockerCluster::new("edge-b", engine, mac, ip, far)), 4);
            let reason = crate::migrate::MigrationReason::Explicit;
            assert!(ctl.begin_migration(at, svc_addr, 0, 1, reason, &mut rng));
            let due = ctl.next_migration_at().unwrap();
            if target_dies {
                assert!(ctl.inject_instance_crash(1, svc_addr, due, &mut rng));
            }
            sent(|out| ctl.migration_tick(due, &mut rng, out));
            let m = &ctl.telemetry.metrics;
            (m.counter("migration_flows_flipped"), m.counter("migrations_aborted"))
        };
        assert_eq!(flipped(false), (1, 0));
        assert_eq!(flipped(true), (0, 1));
    }

    /// The held Adds of the session [`session_whose_instance_is`] leaves
    /// pending: `(instant they are stamped for, the session's filed pairs)`.
    fn held_adds(ctl: &Controller) -> (SimTime, usize) {
        let client = Ipv4Addr::new(192, 168, 1, 20);
        (ctl.records[0].answered_at, ctl.state.pairs(client, IngressId::DEFAULT).count())
    }

    /// The sweep used to take the instance a request is held for — Starting,
    /// its flow memorized, its pair filed, its Adds stamped for the release —
    /// for a dead one: it forgot the flow, tombstoned the pair, sent Deletes
    /// that reached the switch *before* those Adds and booked a failure
    /// against a healthy zone; the Adds then installed a flow the controller
    /// had disowned, and a later outage could no longer tear it down.
    #[test]
    fn the_sweep_leaves_a_deployment_in_progress_alone() {
        let (mut ctl, _, at) = session_whose_instance_is("pending", ControllerConfig::default());
        assert!(sent(|out| ctl.health_check(at, out)).is_empty());
        assert_eq!(ctl.memory().len(), 1);
        assert_eq!(held_adds(&ctl).1, 1, "the pair stays live");
        assert_eq!(ctl.telemetry.metrics.counter("instance_failures_total"), 0);
        assert_eq!(ctl.breaker_state(0), BreakerState::Closed);
    }

    /// A teardown never overtakes the Adds it tears down: an outage that
    /// strikes while a request is held stamps that pair's Deletes no earlier
    /// than its Adds, so the switch sees them in that order.
    #[test]
    fn an_outage_during_a_hold_deletes_no_earlier_than_the_held_adds() {
        let (mut ctl, mut rng, at) = session_whose_instance_is("pending", ControllerConfig::default());
        let (adds_at, _) = held_adds(&ctl);
        let deletes = sent(|out| ctl.begin_zone_outage(0, at, at + Duration::from_secs(5), &mut rng, out));
        assert_eq!(deletes.len(), 2, "fwd + rev");
        for (_, m) in &deletes {
            assert!(at < adds_at && m.at >= adds_at, "Delete at {:?}, Adds at {adds_at:?}", m.at);
        }
        assert_eq!(held_adds(&ctl).1, 0, "removed");
        // A pair whose Adds are already out is deleted on the spot.
        let (mut ctl, mut rng, at) = session_whose_instance_is("yes", ControllerConfig::default());
        let deletes = sent(|out| ctl.begin_zone_outage(0, at, at + Duration::from_secs(5), &mut rng, out));
        assert!(deletes.iter().all(|(_, m)| m.at == at) && deletes.len() == 2);
    }

    /// A channel reconnect during a hold: the pair stays claimed, so once its
    /// Adds have landed the tables still diff clean (it used to be tombstoned,
    /// and the next reconciliation deleted the session's flows as orphans).
    #[test]
    fn reconcile_during_a_hold_keeps_the_pair_for_its_adds() {
        let mut rng = SimRng::new(72);
        let (mut ctl, mut sw) = setup(&mut rng);
        let t0 = SimTime::from_secs(1);
        let effects = sw.handle_frame(t0, CLIENT_PORT, &client_syn(50000).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        let adds = ctl.handle_switch_message_from(IngressId::DEFAULT, t0, pkt_in, &mut rng).unwrap();
        let during = t0 + Duration::from_millis(50);
        assert!(during < adds[0].at);
        assert!(sent(|out| ctl.reconcile(IngressId::DEFAULT, &[], during, out)).is_empty(), "nothing early");
        for m in &adds {
            sw.handle_controller(m.at, &m.data).unwrap();
        }
        let table: Vec<FlowEntry> = sw.table().entries().collect();
        assert_eq!(table.len(), 2);
        let after = adds[0].at + Duration::from_secs(1);
        assert!(sent(|out| ctl.reconcile(IngressId::DEFAULT, &table, after, out)).is_empty());
    }

    /// With autoscaling on, a session may be memorized — and its pair aimed —
    /// at a replica address derived from the Ready base. Reconciliation
    /// vouches for those exactly as the sweep does (it used to compare with
    /// the base address only, and a channel reconnect tombstoned every
    /// non-base replica's pairs).
    #[test]
    fn reconcile_vouches_for_replica_addresses() {
        let mut rng = SimRng::new(73);
        let config = ControllerConfig { autoscale: true, ..ControllerConfig::default() };
        let scheduler = Box::<crate::scheduler::LeastConnectionsScheduler>::default();
        let (mut ctl, mut sw) = setup_scheduled::<Off>(&mut rng, config, scheduler);
        let up = serve_one(&mut ctl, &mut sw, SimTime::from_secs(1), 50000, &mut rng);
        // A burst a sweep past the cooldown answers with a second replica.
        let burst = up + Duration::from_millis(500);
        let asm = make_service("asm", 80).addr;
        ctl.load_mut().saturate(asm, 0, burst);
        ctl.load_mut().sweep(burst);
        // Two more clients at one instant: the second goes to replica 1.
        let at = up + Duration::from_secs(1);
        for client in [21, 22] {
            let effects = sw.handle_frame(at, CLIENT_PORT, &syn_from(client, 50000).encode());
            let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
            ctl.handle_switch_message_from(IngressId::DEFAULT, at, pkt_in, &mut rng).unwrap();
        }
        let base = ctl.cluster(0).instance_addr(&make_service("asm", 80)).unwrap();
        let replicas: Vec<InstanceAddr> =
            ctl.memory().instances().into_iter().map(|(_, inst, _)| inst).collect();
        assert!(replicas.iter().any(|&inst| inst != base), "{replicas:?}");
        let later = at + Duration::from_secs(1);
        assert!(sent(|out| ctl.health_check(later, out)).is_empty(), "the sweep vouches for them");
        let readds = sent(|out| ctl.reconcile(IngressId::DEFAULT, &[], later, out));
        assert_eq!(readds.len(), 6, "all three pairs are expected on the switch");
    }

    /// ROADMAP item 1's open question, pinned as the dispatcher answers it
    /// today: a packet-in whose memorized instance no longer serves forgets
    /// the memorized flows of its service for *every* client, not only its
    /// own. Client B's entry goes too, although B is memorized on another
    /// cluster that still serves. Whether it should survive is undecided;
    /// this is where a change to that answer shows.
    #[test]
    fn a_stale_memorized_flow_forgets_every_clients_flow_of_its_service() {
        let mut rng = SimRng::new(74);
        let (mut ctl, mut sw) = setup(&mut rng);
        let mut engine = DockerEngine::with_defaults();
        engine.pull(&containerd::ServiceSet::by_key("asm").unwrap().manifests, &mut rng);
        let (mac, ip) = (MacAddr::from_id(201), Ipv4Addr::new(10, 0, 0, 11));
        let far = DockerCluster::new("edge-docker-2", engine, mac, ip, Duration::from_micros(300));
        ctl.add_cluster(Box::new(far), 4);
        let svc = make_service("asm", 80);
        let created = ctl.cluster_mut(1).create(&svc, SimTime::ZERO, &mut rng).unwrap();
        let (_, ready) = ctl.cluster_mut(1).scale_up(&svc, created, &mut rng).unwrap();
        let now = ready + Duration::from_secs(1);
        let serving = ctl.cluster(1).instance_addr(&svc).unwrap();
        let stale = InstanceAddr { mac: MacAddr::from_id(200), ip: Ipv4Addr::new(10, 0, 0, 10), port: 31000 };
        assert_eq!(ctl.serving(1, svc.addr, serving, now), Serving::Yes);
        assert_eq!(ctl.serving(0, svc.addr, stale, now), Serving::Gone);
        // Client A, the SYN's source, memorized on cluster 0, where nothing
        // runs; client B on cluster 1.
        let (a, b) = (Ipv4Addr::new(192, 168, 1, 20), Ipv4Addr::new(192, 168, 1, 21));
        let key = |client_ip| FlowKey { ingress: IngressId::DEFAULT, client_ip, service: svc.addr };
        ctl.state.memory_mut().memorize(key(a), stale, 0, now);
        ctl.state.memory_mut().memorize(key(b), serving, 1, now);
        let b_memorized = |ctl: &Controller| ctl.memory().entries_at(svc.addr, 1).iter().any(|(k, _)| k.client_ip == b);
        assert!(b_memorized(&ctl));

        let effects = sw.handle_frame(now, CLIENT_PORT, &client_syn(50000).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        ctl.handle_switch_message_from(IngressId::DEFAULT, now, pkt_in, &mut rng).unwrap();
        assert!(!b_memorized(&ctl), "A's stale entry took B's with it");
    }
}
