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
//! Two things keep this file honest. Everything a crashed controller can get
//! back lives in one [`ControlState`], changed only through
//! [`Controller::commit`] (or its self-logging components), so what runs live
//! is what the journal replays. And every pair that reaches a switch is built
//! by [`crate::rules`] and sent by [`Controller::emit_add_pair`]; every
//! deletion by [`Controller::flow_delete`].

use crate::autoscale::{AutoscaleConfig, LoadTracker, ScaleEvent};
use crate::clients::ClientTracker;
use crate::cluster::{EdgeCluster, InstanceAddr, InstanceState};
use crate::dispatch::{DispatchDecision, DispatchOutcome, Dispatcher, PhaseTimes};
use crate::flowmemory::{FlowMemory, IngressId};
use crate::health::{BreakerState, HealthConfig};
use crate::journal::{
    Applied, ControlState, Journal, JournalConfig, JournalEvent, JournalStats, RecoveryMode,
    RecoveryReport, Snapshot,
};
use crate::migrate::{Migration, MigrationConfig, MigrationManager, MigrationReason};
use crate::rules::{
    self, AggregateRule, Granularity, InstalledFlow, InstalledPair, PairSpec, Target,
    AGGREGATE_CLIENT,
};
use crate::scheduler::{GlobalScheduler, RequestClass};
use crate::service::EdgeService;
use desim::{Duration, LogNormal, RetryPolicy, Sample, SimRng, SimTime};
use netsim::addr::{Ipv4Addr, MacAddr};
use netsim::{ServiceAddr, TcpFrame};
use openflow::messages::Message;
use openflow::oxm::{Match, OxmField};
use openflow::{FlowEntry, OfError, OFP_NO_BUFFER};
use std::collections::HashMap;
use telemetry::{SpanId, Telemetry};

/// Maps clusters and the cloud to switch egress ports.
#[derive(Clone, Debug, Default)]
pub struct PortMap {
    /// Cluster name → switch port leading to it.
    pub cluster_ports: HashMap<String, u32>,
    /// Port toward the cloud uplink.
    pub cloud_port: u32,
}

/// Controller configuration (the reference implementation reads these from
/// its config file; see [`crate::config::EdgeConfig`]).
#[derive(Clone, Debug, PartialEq)]
pub struct ControllerConfig {
    /// Idle timeout installed into switch flows (kept low; the FlowMemory
    /// remembers longer).
    pub switch_flow_idle: Duration,
    /// FlowMemory idle timeout (drives idle scale-down).
    pub memory_idle: Duration,
    /// Port-probe interval for readiness polling.
    pub poll_interval: Duration,
    /// Controller packet-in processing latency model.
    pub processing: LogNormal,
    /// Priority of installed redirect flows.
    pub flow_priority: u16,
    /// Scale idle services down when their last memorized flow expires.
    pub scale_down_idle: bool,
    /// Remove a scaled-down service entirely (delete containers /
    /// Deployment+Service) after this long without a redeploy — the paper's
    /// **Remove** phase. `None` keeps created-but-stopped services around
    /// (cheap, faster next scale-up).
    pub remove_after: Option<Duration>,
    /// Per-phase retry/backoff/deadline policy for deployment phases.
    pub retry: RetryPolicy,
    /// Runtime health: failure-detection interval and circuit-breaker
    /// tuning (the `health:` YAML block).
    pub health: HealthConfig,
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
    /// Per-instance queueing and horizontal autoscaling (the `autoscale:`
    /// YAML block). Off by default: the dispatch path never consults the
    /// load tracker then, and every published figure stays byte-identical.
    pub autoscale: AutoscaleConfig,
    /// Live stateful migration between zones (the `migration:` YAML
    /// block). Off by default (`policy: anchored`, zero state per
    /// request): no ledger entry is ever written, no migration ever
    /// starts, and every published figure stays byte-identical.
    pub migration: MigrationConfig,
    /// Crash-recovery write-ahead journal (the `journal:` YAML block).
    /// Off by default: no component logs ops, no event is ever recorded,
    /// and every published figure stays byte-identical.
    pub journal: JournalConfig,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            switch_flow_idle: Duration::from_secs(10),
            memory_idle: Duration::from_secs(60),
            poll_interval: Duration::from_millis(25),
            processing: LogNormal::from_median(0.0015, 0.30),
            flow_priority: 100,
            scale_down_idle: true,
            remove_after: None,
            retry: RetryPolicy::default(),
            health: HealthConfig::default(),
            aggregate_rules: false,
            record_requests: true,
            autoscale: AutoscaleConfig::default(),
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
    /// Encoded OpenFlow bytes.
    pub data: Vec<u8>,
}

/// How a request was answered (for the evaluation harness).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestKind {
    /// Answered from FlowMemory (no scheduling).
    MemoryHit,
    /// Instance was ready; immediate redirect.
    Redirect,
    /// On-demand deployment with waiting.
    Waited,
    /// Forwarded toward the cloud.
    Cloud,
    /// Held for a with-waiting deployment that exhausted its retries; the
    /// request was released toward the cloud (graceful degradation).
    FallbackCloud,
    /// Destination was not a registered edge service.
    Unregistered,
}

/// Per-request record for experiments.
#[derive(Clone, Debug)]
pub struct RequestRecord {
    /// Packet-in arrival.
    pub at: SimTime,
    /// Requested service address.
    pub service: ServiceAddr,
    /// Client address.
    pub client: Ipv4Addr,
    /// Outcome kind.
    pub kind: RequestKind,
    /// When the redirect flows were emitted.
    pub answered_at: SimTime,
    /// Deployment phase timing, when a deployment ran.
    pub phases: PhaseTimes,
    /// Cluster index serving the request (edge outcomes only).
    pub cluster: Option<usize>,
    /// When a background (BEST-choice) deployment triggered by this request
    /// will be ready, if one was triggered.
    pub background_ready: Option<SimTime>,
}

/// What the idle sweep did to a service.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LifecycleAction {
    /// The service was scaled to zero (containers stopped / replicas=0).
    ScaleDown,
    /// The service was removed entirely (containers / Deployment deleted).
    Remove,
}

/// A lifecycle action taken by the idle sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct ScaleDownEvent {
    /// When.
    pub at: SimTime,
    /// The idle service.
    pub service: ServiceAddr,
    /// Cluster acted on.
    pub cluster: String,
    /// What happened.
    pub action: LifecycleAction,
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
    /// OpenFlow messages to deliver, each tagged with the ingress switch it
    /// goes to. New-ingress installs precede old-ingress teardowns.
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

/// The transparent-edge SDN controller.
pub struct Controller {
    services: crate::service::ServiceRegistry,
    clusters: Vec<Box<dyn EdgeCluster>>,
    dispatcher: Dispatcher,
    /// Everything a warm restart recovers: FlowMemory, installed pairs,
    /// aggregates, scale-down ledger, client locations and MACs, breakers,
    /// migrations. Mutated through [`Controller::commit`] only (its three
    /// self-logging components aside).
    state: ControlState,
    /// Per-ingress port maps; index = [`IngressId`]. The seed deployment's
    /// single switch lives at ingress 0.
    ingresses: Vec<PortMap>,
    /// Cluster latency as seen from a given ingress, when it differs from
    /// the cluster's advertised latency (which is measured from ingress 0).
    ingress_distances: HashMap<(IngressId, usize), Duration>,
    /// `FLOW_MOD` **Add** messages emitted over the controller's lifetime —
    /// the controller's own view of how much switch table space it has
    /// claimed (the scale benchmark reads this to compare exact-match vs
    /// aggregated rule footprints).
    pub flow_adds: u64,
    config: ControllerConfig,
    next_xid: u32,
    /// Per-request records (the harness reads these).
    pub records: Vec<RequestRecord>,
    /// Count of `FLOW_REMOVED` notifications seen.
    pub flows_removed: u64,
    /// Errors reported by the switch.
    pub switch_errors: Vec<(openflow::messages::ErrorType, u16)>,
    /// Requests currently held for a with-waiting deployment, by
    /// (service, cluster): the latest release instant. The idle sweep must
    /// not scale a service down while such a hold is pending — the held
    /// client would be redirected to a stopped instance.
    held: HashMap<(ServiceAddr, usize), SimTime>,
    /// Idle expiries deferred because a held request pinned the service;
    /// re-examined once the hold drains.
    deferred: HashMap<(ServiceAddr, usize), SimTime>,
    /// The most recent flow-statistics reply (see
    /// [`Controller::request_flow_stats`]).
    pub last_flow_stats: Option<Vec<openflow::messages::FlowStatsEntry>>,
    /// Telemetry endpoint: a disabled endpoint by default (every span/event
    /// call is a never-taken branch); swap in a recording one with
    /// [`Telemetry::recording`] to capture per-request span trees. Metric
    /// counters are always maintained — they are plain integer bumps on the
    /// controller path and never touch the switch fast path.
    pub telemetry: Telemetry,
    /// Request ids handed to spans; each packet-in gets the id its record
    /// will have (index + 1).
    next_request: u64,
    /// When each instance crashed (fault injection), so the repair sweep's
    /// `stale_redirect_repair_ns` histogram measures crash→repair latency.
    crash_records: HashMap<InstanceAddr, SimTime>,
    /// Recycled per-packet-in buffer for resolved ingress distances, so the
    /// hot path never allocates for them.
    distance_scratch: Vec<Duration>,
    /// Open telemetry spans of in-flight migrations, by request id.
    migration_spans: HashMap<u64, SpanId>,
    /// The crash-recovery write-ahead journal (inert unless
    /// `config.journal.enabled`).
    journal: Journal,
    /// Control-plane inconsistencies survived (see [`ControlPlaneError`]).
    pub control_errors: Vec<ControlPlaneError>,
}

impl Controller {
    /// Creates a controller with the given Global Scheduler.
    pub fn new(
        scheduler: Box<dyn GlobalScheduler>,
        ports: PortMap,
        config: ControllerConfig,
    ) -> Controller {
        let mut dispatcher = Dispatcher::new(scheduler, config.poll_interval);
        dispatcher.set_retry_policy(config.retry);
        dispatcher.set_autoscale(config.autoscale.clone());
        let journal = Journal::new(config.journal);
        let mut state = ControlState::new(&config);
        state.set_logging(journal.enabled());
        Controller {
            services: crate::service::ServiceRegistry::new(),
            clusters: Vec::new(),
            dispatcher,
            state,
            ingresses: vec![ports],
            ingress_distances: HashMap::new(),
            flow_adds: 0,
            config,
            next_xid: 1,
            records: Vec::new(),
            flows_removed: 0,
            switch_errors: Vec::new(),
            held: HashMap::new(),
            deferred: HashMap::new(),
            last_flow_stats: None,
            telemetry: Telemetry::disabled(),
            next_request: 0,
            crash_records: HashMap::new(),
            distance_scratch: Vec::new(),
            migration_spans: HashMap::new(),
            journal,
            control_errors: Vec::new(),
        }
    }

    /// How many requests coalesced onto an already-failed deployment
    /// (single-flight hits in the dispatcher).
    pub fn coalesced_count(&self) -> u64 {
        self.dispatcher.coalesced_count()
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
    fn synced<T>(&mut self, entry: impl FnOnce(&mut Controller) -> T) -> T {
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

    /// Simulates a controller process crash followed by a restart at
    /// `now`: every piece of in-memory state a real process death loses is
    /// wiped, then rebuilt according to `mode` — **warm** restores the
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
    pub fn crash_restart(&mut self, mode: RecoveryMode, _now: SimTime) -> RecoveryReport {
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
            ctl.last_flow_stats = None;
            // Re-arm op logging on the freshly built state, and re-seed the
            // journal with a snapshot of it — otherwise a *second* crash
            // would rebuild from an empty journal and lose it.
            if ctl.journal.enabled() {
                ctl.state.set_logging(true);
                ctl.journal.compact(Snapshot::capture(&ctl.state));
            }
            // In-flight migrations lost their coordinator: abort them (state
            // stays at the source; the breaker/mobility trigger re-fires).
            let aborted_migrations = ctl.state.migrate_mut().abort_all();
            if aborted_migrations > 0 {
                ctl.telemetry
                    .metrics
                    .add("migrations_aborted", aborted_migrations as u64);
            }
            ctl.telemetry.metrics.inc("controller_restarts");
            RecoveryReport {
                mode,
                replayed_events,
                snapshot_entries,
                aborted_migrations,
            }
        })
    }

    /// Registers an edge cluster reachable via `switch_port` on the default
    /// ingress. Returns its index.
    pub fn add_cluster(&mut self, cluster: Box<dyn EdgeCluster>, switch_port: u32) -> usize {
        self.ingresses[0]
            .cluster_ports
            .insert(cluster.name().to_owned(), switch_port);
        self.clusters.push(cluster);
        self.clusters.len() - 1
    }

    /// Registers an additional ingress switch (gNB) with its own port map.
    /// Returns its id; the constructor's port map is ingress 0.
    pub fn add_ingress(&mut self, ports: PortMap) -> IngressId {
        self.ingresses.push(ports);
        IngressId(self.ingresses.len() as u32 - 1)
    }

    /// Number of ingress switches under management.
    pub fn ingress_count(&self) -> usize {
        self.ingresses.len()
    }

    /// Maps a cluster to an egress port on one specific ingress (a cluster
    /// may be reachable from every gNB, through different ports).
    pub fn map_cluster_port(&mut self, ingress: IngressId, cluster_name: &str, port: u32) {
        self.ingresses[ingress.0 as usize]
            .cluster_ports
            .insert(cluster_name.to_owned(), port);
    }

    /// Overrides the latency toward `cluster` as seen from `ingress`. The
    /// scheduler's "nearest edge" is relative to where the packet entered;
    /// without an override, the cluster's advertised latency is used.
    pub fn set_ingress_distance(&mut self, ingress: IngressId, cluster: usize, d: Duration) {
        self.ingress_distances.insert((ingress, cluster), d);
    }

    /// Resolved per-cluster distances from `ingress`; `None` when no
    /// override exists for this ingress (advertised latencies apply).
    fn distances_from(&self, ingress: IngressId) -> Option<Vec<Duration>> {
        let mut out = Vec::new();
        self.fill_distances(ingress, &mut out).then_some(out)
    }

    /// Allocation-free form of [`Controller::distances_from`]: fills `out`
    /// (cleared first) and returns whether an override exists for `ingress`.
    /// The packet-in fast path calls this with a recycled buffer.
    fn fill_distances(&self, ingress: IngressId, out: &mut Vec<Duration>) -> bool {
        out.clear();
        if !self
            .ingress_distances
            .keys()
            .any(|(i, _)| *i == ingress)
        {
            return false;
        }
        out.extend((0..self.clusters.len()).map(|c| {
            self.ingress_distances
                .get(&(ingress, c))
                .copied()
                .unwrap_or_else(|| self.clusters[c].latency())
        }));
        true
    }

    /// Registers an edge service.
    pub fn register_service(&mut self, service: EdgeService) {
        self.services.register(service);
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
    pub fn clients(&self) -> &ClientTracker {
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

    fn xid(&mut self) -> u32 {
        let x = self.next_xid;
        self.next_xid = self.next_xid.wrapping_add(1);
        x
    }

    /// `msg` for the switch at `at`, under the next transaction id.
    fn outbound(&mut self, at: SimTime, msg: &Message) -> OutboundMessage {
        OutboundMessage { at, data: msg.encode(self.xid()) }
    }

    /// Asks the switch for its installed flows (diagnostics; the reply lands
    /// in [`Controller::last_flow_stats`]).
    pub fn request_flow_stats(&mut self, at: SimTime) -> OutboundMessage {
        let all = Message::FlowStatsRequest { table_id: 0xff, match_: Match::any() };
        self.outbound(at, &all)
    }

    /// Session bootstrap: HELLO + FEATURES_REQUEST.
    pub fn bootstrap(&mut self) -> Vec<OutboundMessage> {
        vec![
            self.outbound(SimTime::ZERO, &Message::Hello),
            self.outbound(SimTime::ZERO, &Message::FeaturesRequest),
        ]
    }

    /// Handles one encoded message from the default ingress switch.
    pub fn handle_switch_message(
        &mut self,
        now: SimTime,
        bytes: &[u8],
        rng: &mut SimRng,
    ) -> Result<Vec<OutboundMessage>, OfError> {
        self.handle_switch_message_from(IngressId::DEFAULT, now, bytes, rng)
    }

    /// Handles one encoded message from a specific ingress switch. The
    /// returned messages go back to that same switch.
    pub fn handle_switch_message_from(
        &mut self,
        ingress: IngressId,
        now: SimTime,
        bytes: &[u8],
        rng: &mut SimRng,
    ) -> Result<Vec<OutboundMessage>, OfError> {
        let (_xid, msg, _) = Message::decode(bytes)?;
        Ok(self.synced(|ctl| match msg {
            Message::EchoRequest(payload) => {
                vec![ctl.outbound(now, &Message::EchoReply(payload))]
            }
            Message::PacketIn {
                buffer_id,
                match_,
                data,
                ..
            } => ctl.handle_packet_in(ingress, now, buffer_id, &match_, &data, rng),
            Message::FlowRemoved { match_, priority, .. } => {
                ctl.handle_flow_removed(ingress, &match_, priority);
                vec![]
            }
            Message::Error { error_type, code, .. } => {
                ctl.switch_errors.push((error_type, code));
                vec![]
            }
            Message::FlowStatsReply { flows } => {
                ctl.last_flow_stats = Some(flows);
                vec![]
            }
            // Session replies need no action.
            Message::Hello
            | Message::EchoReply(_)
            | Message::FeaturesReply { .. }
            | Message::BarrierReply => vec![],
            // Messages a switch should not send us.
            Message::FeaturesRequest
            | Message::PacketOut { .. }
            | Message::FlowMod { .. }
            | Message::FlowStatsRequest { .. }
            | Message::BarrierRequest => vec![],
        }))
    }

    /// Tombstones the bookkeeping behind a `FLOW_REMOVED`: the switch no
    /// longer holds this flow, so reconciliation must not claim it. Forward
    /// flows carry `OFPFF_SEND_FLOW_REM` and match on the client source IP,
    /// which keys the bookkeeping — except an aggregated pair's forward
    /// flow, which wildcards the client: its anchor is dropped too, so the
    /// next packet-in re-installs a fresh pair.
    fn handle_flow_removed(&mut self, ingress: IngressId, match_: &Match, priority: u16) {
        self.flows_removed += 1;
        self.telemetry.metrics.inc("flows_removed");
        let client = match_.fields().iter().find_map(|f| match f {
            OxmField::Ipv4Src(ip) => Some(Ipv4Addr(*ip)),
            _ => None,
        });
        let filed = client.unwrap_or(AGGREGATE_CLIENT);
        let dead = self.state.live_pairs_with_fwd(filed, ingress, priority, match_);
        self.tombstone(filed, ingress, &dead);
        if let (None, Some(&idx)) = (client, dead.last()) {
            let service = self.state.pairs(filed, ingress)[idx].service;
            self.commit(JournalEvent::AggregateDrop { ingress, service });
        }
    }

    fn in_port_of(match_: &Match) -> u32 {
        match_
            .fields()
            .iter()
            .find_map(|f| match f {
                OxmField::InPort(p) => Some(*p),
                _ => None,
            })
            .unwrap_or(0)
    }

    /// Pins `(service, cluster)` against the idle sweep until `until`: a
    /// request is held for a deployment there.
    fn hold(&mut self, service: ServiceAddr, cluster: usize, until: SimTime) {
        let hold = self.held.entry((service, cluster)).or_insert(until);
        *hold = (*hold).max(until);
    }

    fn handle_packet_in(
        &mut self,
        ingress: IngressId,
        now: SimTime,
        buffer_id: u32,
        match_: &Match,
        data: &[u8],
        rng: &mut SimRng,
    ) -> Vec<OutboundMessage> {
        let in_port = Self::in_port_of(match_);
        let Ok(frame) = TcpFrame::decode(data) else {
            // Nothing to schedule on — but only the controller can name the
            // buffer the switch parked the packet in: have it dropped.
            self.note_error(ControlPlaneError::UndecodablePacketIn { ingress });
            let release = rules::drop_buffered(buffer_id);
            return release.map(|m| self.outbound(now, &m)).into_iter().collect();
        };
        // Location tracking: a client arriving at a new location moved. An
        // *announced* move goes through [`Controller::handle_attachment_change`]
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
        self.next_request += 1;
        let request = self.next_request;
        let root = self.telemetry.span(request, SpanId::NONE, "request", now);
        self.telemetry.event(root, "packet-in", now, || {
            format!("client={} svc={svc_addr} in_port={in_port}", frame.src_ip)
        });
        let t = now + self.config.processing.sample_duration(rng);
        let spec = PairSpec::of_frame(&frame, in_port);
        let release = Some((buffer_id, &frame));

        // Shared handle: Rc clone, not a deep copy of the service definition.
        let Some(svc) = self.services.get_shared(svc_addr) else {
            // Not an edge service: plain cloud forwarding flows.
            self.telemetry.event(root, "unregistered", t, || {
                "not an edge service; plain cloud forwarding".to_owned()
            });
            self.telemetry.end_span(root, t);
            let rec = RequestRecord {
                at: now,
                service: svc_addr,
                client: frame.src_ip,
                kind: RequestKind::Unregistered,
                answered_at: t,
                phases: PhaseTimes::default(),
                cluster: None,
                background_ready: None,
            };
            self.record_request_metrics(&rec);
            if self.config.record_requests {
                self.records.push(rec);
            }
            return self.install(ingress, t, spec, None, release);
        };

        let mut distances = std::mem::take(&mut self.distance_scratch);
        let have_distances = self.fill_distances(ingress, &mut distances);
        let (memory, health) = self.state.dispatch_parts();
        let outcome: DispatchOutcome = self.dispatcher.dispatch_at(
            &svc,
            frame.src_ip,
            ingress,
            have_distances.then_some(distances.as_slice()),
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
        self.distance_scratch = distances;

        let background_ready = outcome.background.map(|b| b.ready_at);
        let (kind, answered_at, cluster, msgs) = match outcome.decision {
            DispatchDecision::Redirect { instance, cluster } => {
                let to = (instance, cluster);
                let msgs = if self.config.aggregate_rules {
                    self.install_aggregated(ingress, t, spec, to, (buffer_id, &frame))
                } else {
                    self.install(ingress, t, spec, Some(to), release)
                };
                let kind = if outcome.from_memory {
                    RequestKind::MemoryHit
                } else {
                    RequestKind::Redirect
                };
                (kind, t, Some(cluster), msgs)
            }
            DispatchDecision::WaitThenRedirect {
                instance,
                cluster,
                ready_at,
            } => {
                // The request is held; flows go out when the port answered
                // (as an exact pair: the deferred release predates any
                // aggregate decision).
                let at = ready_at.max(t);
                self.hold(svc_addr, cluster, at);
                let msgs = self.install(ingress, at, spec, Some((instance, cluster)), release);
                (RequestKind::Waited, at, Some(cluster), msgs)
            }
            DispatchDecision::ForwardToCloud => {
                let msgs = self.install(ingress, t, spec, None, release);
                (RequestKind::Cloud, t, None, msgs)
            }
            DispatchDecision::FallbackCloud { released_at } => {
                // The deployment exhausted its retries while the request was
                // held: release it toward the cloud instead.
                let at = released_at.max(t);
                let msgs = self.install(ingress, at, spec, None, release);
                (RequestKind::FallbackCloud, at, None, msgs)
            }
        };

        // The span closes exactly once per request, at the instant the
        // answer goes out — possibly in the sim-future for held requests
        // (Waited / FallbackCloud), whose release instant is already known.
        let n_msgs = msgs.len();
        self.telemetry.event(root, "flow-install", answered_at, || {
            format!("{kind:?}: {n_msgs} message(s) toward the switch")
        });
        self.telemetry.end_span(root, answered_at);
        let rec = RequestRecord {
            at: now,
            service: svc_addr,
            client: frame.src_ip,
            kind,
            answered_at,
            phases: outcome.phases,
            cluster,
            background_ready,
        };
        self.record_request_metrics(&rec);
        if self.config.record_requests {
            self.records.push(rec);
        }
        msgs
    }

    /// Folds one finished request into the metrics registry. Phase durations
    /// are reconstructed from the record's phase *instants*: pull runs from
    /// packet arrival (plus controller processing), create from pull
    /// completion, scale-up between its issue/return instants, and the
    /// readiness wait is [`PhaseTimes::wait_time`].
    fn record_request_metrics(&mut self, rec: &RequestRecord) {
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
        let p = &rec.phases;
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
        if rec.background_ready.is_some() {
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
        let Some(ports) = self.ingresses.get(ingress.0 as usize) else {
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
    /// — releasing the packet behind a packet-in, if any — and files it:
    /// switch-side deletion is exact-match, so handover teardown, repair and
    /// reconciliation need the pair verbatim.
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
    ) -> Vec<OutboundMessage> {
        let Some(target) = self.resolve(ingress, to) else {
            return Vec::new();
        };
        if matches!(target, Target::Cloud { .. }) && spec.granularity == Granularity::Service {
            // Only a redirect is worth sharing: a first decision degraded to
            // the cloud gets the exact cloud path and anchors nothing.
            spec.granularity = Granularity::Connection;
        }
        let mut pair = spec.build(target, self.config.flow_priority);
        if let (Granularity::Service, Some(instance), Some(cluster)) =
            (spec.granularity, pair.instance, pair.cluster)
        {
            let rule = AggregateRule {
                instance,
                cluster,
                in_port: spec.in_port,
                gw_mac: spec.gw_mac,
                fwd_actions: pair.fwd_actions(),
            };
            self.commit(JournalEvent::AggregateSet {
                ingress,
                service: spec.service,
                rule,
            });
            self.telemetry.metrics.inc("aggregate_installed");
        }
        let msgs = self.emit_add_pair(ingress, at, &mut pair, release);
        self.commit(JournalEvent::PairAdd {
            client: spec.filed_under(),
            ingress,
            pair,
        });
        msgs
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
    /// The aggregate pair carries its own idle timeout, exactly like an
    /// exact pair — per *rule*, not per client: the rule stays hot as long
    /// as *any* client keeps using the service, which is precisely the
    /// aggregate's lifetime of interest. (The controller-side per-client
    /// state lives in the FlowMemory, which keeps its own per-flow idle
    /// accounting.)
    fn install_aggregated(
        &mut self,
        ingress: IngressId,
        at: SimTime,
        spec: PairSpec,
        (instance, cluster): (InstanceAddr, usize),
        release: Release,
    ) -> Vec<OutboundMessage> {
        let granularity = match self.state.aggregate(ingress, spec.service) {
            Some(r)
                if r.instance == instance
                    && r.in_port == spec.in_port
                    && r.gw_mac == spec.gw_mac =>
            {
                let actions = r.fwd_actions.clone();
                self.telemetry.metrics.inc("aggregate_covered");
                return self.packet_out(ingress, at, release, actions).into_iter().collect();
            }
            Some(_) => {
                self.telemetry.metrics.inc("aggregate_divergent");
                Granularity::Connection
            }
            None => Granularity::Service,
        };
        let spec = PairSpec { granularity, ..spec };
        self.install(ingress, at, spec, Some((instance, cluster)), Some(release))
    }

    /// Sends the two Adds of `pair` — reverse first: when the buffered
    /// packet is released through the forward flow, the reply path must
    /// already exist — and, when the switch could not buffer the packet
    /// behind the packet-in, the `PACKET_OUT` that re-injects it.
    fn emit_add_pair(
        &mut self,
        ingress: IngressId,
        at: SimTime,
        pair: &mut InstalledPair,
        release: Option<Release>,
    ) -> Vec<OutboundMessage> {
        let buffer_id = release.map_or(OFP_NO_BUFFER, |(id, _)| id);
        let carried = release.filter(|(id, _)| *id == OFP_NO_BUFFER);
        self.flow_adds += 2;
        let mut msgs = Vec::with_capacity(2 + usize::from(carried.is_some()));
        msgs.push(self.flow_add(at, &mut pair.rev, OFP_NO_BUFFER));
        msgs.push(self.flow_add(at, &mut pair.fwd, buffer_id));
        if let Some(release) = carried {
            msgs.extend(self.packet_out(ingress, at, release, pair.fwd_actions()));
        }
        msgs
    }

    /// The `PACKET_OUT` releasing the packet behind a packet-in through
    /// `actions`. A carried packet that does not fit one message is dropped
    /// and recorded: a wrapped header length would desynchronise the stream.
    fn packet_out(
        &mut self,
        ingress: IngressId,
        at: SimTime,
        (buffer_id, frame): Release,
        actions: Vec<openflow::Action>,
    ) -> Option<OutboundMessage> {
        let Some(msg) = rules::packet_out(buffer_id, actions, frame) else {
            self.note_error(ControlPlaneError::OversizePacketOut { ingress });
            return None;
        };
        Some(self.outbound(at, &msg))
    }

    /// One `FLOW_MOD` Add of `flow` under the configured switch idle timeout.
    fn flow_add(
        &mut self,
        at: SimTime,
        flow: &mut InstalledFlow,
        buffer_id: u32,
    ) -> OutboundMessage {
        let idle = openflow::timeout_secs(self.config.switch_flow_idle);
        let data = rules::flow_add(flow, idle, buffer_id, self.xid());
        OutboundMessage { at, data }
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
    /// client's uplink port at the new switch. The caller delivers
    /// `messages` to the switches they are tagged with.
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
        self.synced(|ctl| {
            ctl.next_request += 1;
            let request = ctl.next_request;
            let root = ctl.telemetry.span(request, SpanId::NONE, "handover", now);
            ctl.telemetry.event(root, "attachment-change", now, || {
                format!(
                    "client={client} gnb {} -> {} ({})",
                    from.0,
                    to.0,
                    policy.label()
                )
            });
            let t = now + ctl.config.processing.sample_duration(rng);
            // The tracker learns the new location *now*, so the client's first
            // packet-in at the new switch is not mistaken for an unannounced
            // move (which would flush the very memory we are migrating).
            ctl.commit(JournalEvent::ClientSeen {
                client,
                ingress: to,
                in_port: new_in_port,
                at: t,
            });
            ctl.commit(JournalEvent::MacsSeen {
                client,
                client_mac,
                gw_mac,
            });
            // Retire the old switch's pairs before any new installs: with
            // `from == to` (a re-attach to the same cell) the new wildcard
            // pairs must not end up in their own teardown list. Cloud
            // packet-in pairs stay filed — handovers never tore those down
            // (they idle out and tombstone via `FLOW_REMOVED`), and
            // reconciliation still needs to claim them until then.
            let old_pairs = ctl.commit(JournalEvent::HandoverSweep { client, from }).retired;

            let mut messages: Vec<(IngressId, OutboundMessage)> = Vec::new();
            let mut completed_at = t;
            let mut flows_migrated = 0usize;
            let mut redispatched = 0usize;
            let distances = ctl.distances_from(to);
            for (key, flow) in ctl.state.memory().flows_of_client_at(client, from) {
                let Some(svc) = ctl.services.get_shared(key.service) else {
                    ctl.state.memory_mut().forget(&key);
                    continue;
                };
                // Anchoring keeps the session on its current instance — valid
                // only while that instance still serves.
                let anchored_instance = match policy {
                    HandoverPolicy::Anchored if flow.cluster < ctl.clusters.len() => {
                        match ctl.clusters[flow.cluster].state(&svc, t) {
                            InstanceState::Ready(inst) => Some(inst),
                            _ => None,
                        }
                    }
                    _ => None,
                };
                let (placement, installed_at) = if let Some(instance) = anchored_instance {
                    ctl.state.memory_mut().rekey(&key, to, t);
                    ctl.telemetry.event(root, "anchored", t, || {
                        format!("{}: kept on cluster {}", svc.name, flow.cluster)
                    });
                    (Some((instance, flow.cluster)), t)
                } else {
                    // Re-place the session through the scheduler, as a Handover.
                    ctl.state.memory_mut().forget(&key);
                    let (memory, health) = ctl.state.dispatch_parts();
                    let outcome = ctl.dispatcher.dispatch_at(
                        &svc,
                        client,
                        to,
                        distances.as_deref(),
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
                    match outcome.decision {
                        DispatchDecision::Redirect { instance, cluster } => {
                            (Some((instance, cluster)), t)
                        }
                        DispatchDecision::WaitThenRedirect { instance, cluster, ready_at } => {
                            // Pin the service against the idle sweep until the
                            // deferred install goes out, as packet-ins do.
                            let at = ready_at.max(t);
                            ctl.hold(key.service, cluster, at);
                            (Some((instance, cluster)), at)
                        }
                        DispatchDecision::ForwardToCloud => (None, t),
                        DispatchDecision::FallbackCloud { released_at } => {
                            (None, released_at.max(t))
                        }
                    }
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
                let msgs = ctl.install(to, installed_at, spec, placement, None);
                messages.extend(msgs.into_iter().map(|m| (to, m)));
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
            for pair in old_pairs {
                for m in [pair.fwd.match_, pair.rev.match_] {
                    let del = ctl.flow_delete(break_at, m);
                    messages.push((from, del));
                }
            }

            let m = &mut ctl.telemetry.metrics;
            m.inc("handovers_total");
            m.add("flows_migrated", flows_migrated as u64);
            if redispatched > 0 {
                m.add("handover_redispatched_total", redispatched as u64);
            }
            m.observe("handover_interruption_ns", completed_at.saturating_since(now));
            ctl.telemetry.event(root, "break", break_at, || {
                format!("{n_old} exact pair(s) deleted at old gnb {}", from.0)
            });
            ctl.telemetry.end_span(root, completed_at);
            // The mobility trigger: sessions this move left anchored on a
            // cluster at least `mobility_hops` hops behind the best candidate
            // follow the client — snapshot, transfer, then flip at
            // [`Controller::migration_tick`]. Keyed off the *kept* placements,
            // so it composes with the anchored policy (redispatch already
            // re-placed everything).
            if ctl.state.migrate().live() {
                ctl.migrate_lagging_sessions(t, client, to, rng);
            }
            HandoverOutcome {
                at: now,
                completed_at,
                flows_migrated,
                redispatched,
                messages,
            }
        })
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
        let svc = self.services.get(addr)?.clone();
        let idx = (0..self.clusters.len()).min_by_key(|&i| self.clusters[i].latency())?;
        let cluster = &mut self.clusters[idx];
        let mut t = now;
        match cluster.state(&svc, now) {
            crate::cluster::InstanceState::Ready(_)
            | crate::cluster::InstanceState::Starting { .. } => None,
            crate::cluster::InstanceState::NotDeployed => {
                if !cluster.has_image_cached(&svc) {
                    t = cluster.pull(&svc, t, rng).ok()?;
                }
                t = cluster.create(&svc, t, rng).ok()?;
                let (_, ready) = cluster.scale_up(&svc, t, rng).ok()?;
                (ready != SimTime::MAX).then_some(ready)
            }
            crate::cluster::InstanceState::Created => {
                let (_, ready) = cluster.scale_up(&svc, t, rng).ok()?;
                (ready != SimTime::MAX).then_some(ready)
            }
        }
    }

    /// Periodic idle sweep: expires FlowMemory entries and scales down
    /// services whose last flow vanished. Returns what was scaled down.
    pub fn tick(&mut self, now: SimTime, rng: &mut SimRng) -> Vec<ScaleDownEvent> {
        self.synced(|ctl| {
            let mut events = Vec::new();
            // Holds whose release instant has passed no longer pin anything.
            ctl.held.retain(|_, until| now < *until);
            let mut expired = ctl.state.memory_mut().expire(now);
            if !ctl.config.scale_down_idle {
                return events;
            }
            // Re-examine deferred expiries whose hold has drained since.
            let ripe: Vec<(ServiceAddr, usize)> = ctl
                .deferred
                .keys()
                .filter(|k| !ctl.held.contains_key(k) && !ctl.state.migrate().pinned(k.0, k.1))
                .copied()
                .collect();
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
            for (svc_addr, cluster_idx) in expired {
                if ctl.held.contains_key(&(svc_addr, cluster_idx))
                    || ctl.state.migrate().pinned(svc_addr, cluster_idx)
                {
                    // A request is still held for this service, or the pool is
                    // the source/target of an in-flight migration: defer the
                    // scale-down until the hold releases / the flip completes.
                    ctl.deferred.insert((svc_addr, cluster_idx), now);
                    continue;
                }
                let Some(svc) = ctl.services.get(svc_addr).cloned() else {
                    continue;
                };
                if cluster_idx < ctl.clusters.len() {
                    ctl.clusters[cluster_idx].scale_down(&svc, now, rng);
                    ctl.dispatcher.load_mut().remove_pool(svc_addr, cluster_idx, now);
                    ctl.commit(JournalEvent::ScaledDown {
                        service: svc_addr,
                        cluster: cluster_idx,
                        at: now,
                    });
                    events.push(ScaleDownEvent {
                        at: now,
                        service: svc_addr,
                        cluster: ctl.clusters[cluster_idx].name().to_owned(),
                        action: LifecycleAction::ScaleDown,
                    });
                }
            }
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
                    let Some(svc) = ctl.services.get(svc_addr).cloned() else {
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
                        events.push(ScaleDownEvent {
                            at: now,
                            service: svc_addr,
                            cluster: ctl.clusters[cluster_idx].name().to_owned(),
                            action: LifecycleAction::Remove,
                        });
                    }
                }
            }
            for ev in &events {
                ctl.telemetry.metrics.inc(match ev.action {
                    LifecycleAction::ScaleDown => "scale_downs",
                    LifecycleAction::Remove => "removes",
                });
            }
            events
        })
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

    /// The active health configuration (the harness schedules its detection
    /// sweep every `health_config().detect_interval`).
    pub fn health_config(&self) -> HealthConfig {
        self.state.health().config()
    }

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
        let Some(svc) = self.services.get(svc_addr).cloned() else {
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
    /// repairs the state around each one that is no longer Ready — forgets
    /// its memory entries (no lookup ever returns the dead address again),
    /// tombstones and deletes the matching switch flows, and feeds the
    /// cluster's circuit breaker. Subsequent packets from the affected
    /// clients miss the table and re-enter the ordinary dispatch pipeline.
    /// Returns the Delete FlowMods, tagged with the ingress they go to.
    ///
    /// Ordinary idle scale-down cannot false-positive here: a service is
    /// only scaled down after its last memorized flow expired, so by then
    /// the memory holds nothing pointing at it.
    pub fn health_check(&mut self, now: SimTime) -> Vec<(IngressId, OutboundMessage)> {
        self.synced(|ctl| {
            let mut out: Vec<(IngressId, OutboundMessage)> = Vec::new();
            for (cluster, inst, svc_addr) in ctl.state.memory().instances() {
                let mut alive = false;
                if cluster < ctl.clusters.len() {
                    if let Some(svc) = ctl.services.get(svc_addr) {
                        // With autoscaling on, memorized addresses may be replica
                        // addresses derived from the Ready base; the pool vouches
                        // for those as long as the base instance itself is up.
                        alive = match ctl.clusters[cluster].state(svc, now) {
                            InstanceState::Ready(i) => {
                                i == inst
                                    || ctl
                                        .dispatcher
                                        .load()
                                        .index_of(svc_addr, cluster, inst)
                                        .is_some()
                            }
                            _ => false,
                        };
                    }
                }
                if alive {
                    continue;
                }
                // A crash mid-transfer retires the pool out from under its
                // migration: abandon it first (the pin lifts; session state
                // stays in the source ledger), then repair normally — repair
                // never runs *while* a migration holds the pool.
                let aborted = ctl.state.migrate_mut().abort_involving(svc_addr, cluster);
                if aborted > 0 {
                    ctl.telemetry.metrics.add("migrations_aborted", aborted as u64);
                }
                ctl.dispatcher.load_mut().remove_pool(svc_addr, cluster, now);
                out.extend(ctl.repair_dead_instance(cluster, inst, now));
            }
            out
        })
    }

    /// Stale-redirect repair for one dead instance: forget its FlowMemory
    /// entries, tombstone + delete its switch flows everywhere, record the
    /// failure with the cluster's breaker, and update the repair metrics.
    fn repair_dead_instance(
        &mut self,
        cluster: usize,
        inst: InstanceAddr,
        now: SimTime,
    ) -> Vec<(IngressId, OutboundMessage)> {
        let victims = self.state.memory_mut().forget_instance(inst);
        self.next_request += 1;
        let request = self.next_request;
        let root = self.telemetry.span(request, SpanId::NONE, "recovery", now);
        let n = victims.len();
        self.telemetry.event(root, "instance-failure", now, || {
            format!(
                "cluster {cluster}: instance {}:{} dead, {n} stale redirect(s)",
                inst.ip, inst.port
            )
        });
        // Tear down every bookkept pair aimed at the corpse — not only the
        // memorized ones: handover leftovers reference it too. Aggregated
        // pairs are filed under the sentinel client, so this sweep retires
        // them like any other pair; dropping the anchor below makes the next
        // packet-in install a fresh aggregate toward the replacement.
        let mut out = Vec::new();
        for (client, ing) in self.state.installed_keys_sorted() {
            let at_corpse = |p: &InstalledPair| p.instance == Some(inst);
            out.extend(self.teardown_pairs(client, ing, at_corpse, None, now));
        }
        self.commit(JournalEvent::AggregateRetainInstance { instance: inst });
        self.state.health_mut().record_failure(cluster, now);
        let m = &mut self.telemetry.metrics;
        m.inc("instance_failures_total");
        if n > 0 {
            m.add("stale_redirects_repaired", n as u64);
        }
        if let Some(crashed_at) = self.crash_records.remove(&inst) {
            m.observe("stale_redirect_repair_ns", now.saturating_since(crashed_at));
        }
        self.set_breaker_gauges();
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
            ctl.next_request += 1;
            let request = ctl.next_request;
            let root = ctl.telemetry.span(request, SpanId::NONE, "zone-outage", now);
            let svcs: Vec<EdgeService> = ctl.services.iter().cloned().collect();
            let mut failed = 0usize;
            for svc in &svcs {
                if ctl.clusters[cluster].fail_instance(svc, now, rng) {
                    failed += 1;
                }
                ctl.dispatcher.load_mut().remove_pool(svc.addr, cluster, now);
            }
            let victims = ctl.state.memory_mut().forget_cluster(cluster);
            // Migrations into or out of the dark zone cannot finish.
            let aborted = ctl.state.migrate_mut().abort_cluster(cluster);
            if aborted > 0 {
                ctl.telemetry.metrics.add("migrations_aborted", aborted as u64);
            }
            ctl.telemetry.event(root, "zone-dark", now, || {
                format!(
                    "cluster {cluster}: {failed} instance(s) down, {} stale redirect(s), until {until:?}",
                    victims.len()
                )
            });
            let mut out = Vec::new();
            for (client, ing) in ctl.state.installed_keys_sorted() {
                let in_zone = |p: &InstalledPair| p.cluster == Some(cluster);
                out.extend(ctl.teardown_pairs(client, ing, in_zone, None, now));
            }
            ctl.commit(JournalEvent::AggregateRetainCluster { cluster });
            ctl.state.health_mut().begin_outage(cluster, until);
            let m = &mut ctl.telemetry.metrics;
            m.inc("zone_outages_total");
            if !victims.is_empty() {
                m.add("stale_redirects_repaired", victims.len() as u64);
            }
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

    /// Whether the instance `p` redirects to still serves there (cloud pairs
    /// have nothing to die).
    fn still_serves(&self, p: &InstalledPair, now: SimTime) -> bool {
        let (Some(c), Some(inst)) = (p.cluster, p.instance) else {
            return true;
        };
        let (Some(cluster), Some(svc)) = (self.clusters.get(c), self.services.get(p.service)) else {
            return false;
        };
        matches!(cluster.state(svc, now), InstanceState::Ready(i) if i == inst)
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
    /// the channel was down are tombstoned here (their switch entries, if
    /// any, become orphans). A second pass right after the returned FlowMods
    /// are applied returns nothing.
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
                // A redirect pair is expected only while its instance still
                // serves.
                let gone = |p: &InstalledPair| !ctl.still_serves(p, now);
                let dead = ctl.state.live_pairs(client, ingress, gone);
                ctl.tombstone(client, ingress, &dead);
                for p in ctl.state.pairs(client, ingress).iter().filter(|p| !p.dead) {
                    // Reverse before forward, as installs always go out: if both
                    // directions are missing, the reply path comes back first.
                    for f in [&p.rev, &p.fwd] {
                        claimed.push((f.match_.clone(), f.priority));
                        let on_switch = switch_flows
                            .iter()
                            .any(|e| e.priority == f.priority && e.match_ == f.match_);
                        if !on_switch {
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

            ctl.next_request += 1;
            let request = ctl.next_request;
            let root = ctl.telemetry.span(request, SpanId::NONE, "reconcile", now);
            ctl.telemetry.event(root, "diff", now, || {
                format!("ingress {}: {n_missing} missing, {n_orphans} orphan(s)", ingress.0)
            });
            ctl.telemetry.end_span(root, now);
            let m = &mut ctl.telemetry.metrics;
            m.inc("reconciliations_total");
            if n_missing > 0 {
                m.add("reconcile_reinstalled", n_missing as u64);
            }
            if n_orphans > 0 {
                m.add("reconcile_orphans_deleted", n_orphans as u64);
            }
            msgs
        })
    }

    /// Tombstones the pairs of `(client, ingress)` at the indices in `dead`.
    fn tombstone(&mut self, client: Ipv4Addr, ingress: IngressId, dead: &[usize]) {
        for &idx in dead {
            self.commit(JournalEvent::PairDead { client, ingress, idx });
        }
    }

    /// Tombstones every live pair at `(client, ingress)` that `pick` selects
    /// and deletes both directions of each at `at`, forward first — except a
    /// forward match equal to `replaced_fwd` (see
    /// [`Controller::finish_migration`]).
    fn teardown_pairs(
        &mut self,
        client: Ipv4Addr,
        ingress: IngressId,
        pick: impl Fn(&InstalledPair) -> bool,
        replaced_fwd: Option<&Match>,
        at: SimTime,
    ) -> Vec<(IngressId, OutboundMessage)> {
        let dead = self.state.live_pairs(client, ingress, pick);
        self.tombstone(client, ingress, &dead);
        let mut doomed: Vec<Match> = Vec::new();
        for &i in &dead {
            let p = &self.state.pairs(client, ingress)[i];
            if replaced_fwd != Some(&p.fwd.match_) {
                doomed.push(p.fwd.match_.clone());
            }
            doomed.push(p.rev.match_.clone());
        }
        doomed
            .into_iter()
            .map(|m| (ingress, self.flow_delete(at, m)))
            .collect()
    }

    /// One horizontal-autoscaler pass, run every `autoscale.sweep_interval`
    /// of simulated time: flexes each service's replica pool on queue depth
    /// and utilization (hysteresis + cooldown live in
    /// [`LoadTracker::sweep`](crate::autoscale::LoadTracker::sweep)), bumps
    /// the `autoscale_ups`/`autoscale_downs` counters, and refreshes the
    /// per-pool `replicas.{service}.{cluster}` gauges. A no-op while
    /// autoscaling is disabled (the default), so experiments that never
    /// opt in stay byte-identical.
    pub fn autoscale_sweep(&mut self, now: SimTime) -> Vec<ScaleEvent> {
        if !self.dispatcher.load().enabled() {
            return Vec::new();
        }
        let events = self.dispatcher.load_mut().sweep(now);
        for ev in &events {
            self.telemetry.metrics.inc(if ev.up {
                "autoscale_ups"
            } else {
                "autoscale_downs"
            });
        }
        let counts = self.dispatcher.load().replica_counts();
        for ((svc, cluster), n) in counts {
            self.telemetry.metrics.set_gauge(
                &format!("replicas.{}:{}.{cluster}", svc.ip, svc.port),
                n as f64,
            );
        }
        events
    }

    /// Refreshes the per-cluster breaker gauges (`breaker_state.{i}`).
    fn set_breaker_gauges(&mut self) {
        for i in 0..self.clusters.len() {
            let s = self.state.health().breaker_state(i);
            self.telemetry.metrics.set_gauge(&format!("breaker_state.{i}"), s.gauge());
        }
    }

    /// Earliest instant the next `tick` could have work.
    pub fn next_tick_at(&self) -> Option<SimTime> {
        let removal = self.config.remove_after.and_then(|after| {
            self.state.scaled_down().values().map(|&t| t + after).min()
        });
        // A deferred scale-down becomes actionable when its hold releases.
        let deferred = self
            .deferred
            .keys()
            .filter_map(|k| self.held.get(k).copied())
            .min();
        [self.state.memory().next_expiry(), removal, deferred]
            .into_iter()
            .flatten()
            .min()
    }

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
            let Some(svc) = ctl.services.get(svc_addr).cloned() else {
                return false;
            };
            if ctl.state.memory().entries_at(svc_addr, from).is_empty() {
                // Nothing anchored at the source: nothing worth moving.
                return false;
            }
            // Warm start: make sure the target will have a Ready instance.
            let mut t = now;
            let ready_at = match ctl.clusters[to].state(&svc, now) {
                InstanceState::Ready(_) => now,
                InstanceState::Starting { ready_at } => ready_at,
                InstanceState::Created => match ctl.clusters[to].scale_up(&svc, t, rng) {
                    Ok((_, ready)) => ready,
                    Err(_) => return false,
                },
                InstanceState::NotDeployed => {
                    if !ctl.clusters[to].has_image_cached(&svc) {
                        match ctl.clusters[to].pull(&svc, t, rng) {
                            Ok(done) => t = done,
                            Err(_) => return false,
                        }
                    }
                    match ctl.clusters[to].create(&svc, t, rng) {
                        Ok(done) => t = done,
                        Err(_) => return false,
                    }
                    match ctl.clusters[to].scale_up(&svc, t, rng) {
                        Ok((_, ready)) => ready,
                        Err(_) => return false,
                    }
                }
            };
            if ready_at == SimTime::MAX {
                return false;
            }
            ctl.next_request += 1;
            let request = ctl.next_request;
            let root = ctl.telemetry.span(request, SpanId::NONE, "migration", now);
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
            ctl.telemetry.event(root, "transfer-done", m.transfer_done, || {
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
    /// interval the handover uses). Returns the FlowMods per ingress.
    pub fn migration_tick(
        &mut self,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Vec<(IngressId, OutboundMessage)> {
        self.synced(|ctl| {
            let due = ctl.state.migrate_mut().take_due(now);
            let mut out = Vec::new();
            for m in due {
                out.extend(ctl.finish_migration(&m, now, rng));
            }
            out
        })
    }

    /// The make-before-break flow flip of one due migration.
    fn finish_migration(
        &mut self,
        m: &Migration,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Vec<(IngressId, OutboundMessage)> {
        let root = self
            .migration_spans
            .remove(&m.request)
            .unwrap_or(SpanId::NONE);
        let svc = self.services.get_shared(m.service);
        let new_inst = svc.as_ref().and_then(|s| {
            match self.clusters.get(m.to)?.state(s, now) {
                InstanceState::Ready(inst) => Some(inst),
                _ => None,
            }
        });
        let (Some(svc), Some(new_inst)) = (svc, new_inst) else {
            // The warm start fell through — the target died or was scaled
            // away mid-transfer. State and flows stay at the source.
            self.state.migrate_mut().abort(m);
            self.telemetry.metrics.inc("migrations_aborted");
            self.telemetry.event(root, "aborted", now, || {
                "target not ready at flip time".to_owned()
            });
            self.telemetry.end_span(root, now);
            return Vec::new();
        };
        let t = now + self.config.processing.sample_duration(rng);
        let break_at = t + Duration::from_millis(50);
        let mut out: Vec<(IngressId, OutboundMessage)> = Vec::new();
        let mut flipped = 0usize;
        for (key, _flow) in self.state.memory().entries_at(m.service, m.from) {
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
                        service: svc.addr,
                    };
                    let msgs = self.install(key.ingress, t, spec, Some((new_inst, m.to)), None);
                    out.extend(msgs.into_iter().map(|msg| (key.ingress, msg)));
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
            out.extend(self.teardown_pairs(
                client,
                key.ingress,
                |p| p.service == m.service && p.cluster == Some(m.from),
                replaced_fwd.as_ref(),
                break_at,
            ));
        }
        let moved = self.state.migrate_mut().complete(m, t, flipped);
        let metrics = &mut self.telemetry.metrics;
        metrics.add("state_bytes_transferred", moved);
        metrics.add("migration_flows_flipped", flipped as u64);
        metrics.observe(
            "migration_transfer_ns",
            m.transfer_done.saturating_since(m.started_at),
        );
        metrics.observe("migration_interruption_ns", t.saturating_since(m.transfer_done));
        self.telemetry.event(root, "flip", t, || {
            format!(
                "{flipped} flow(s) repointed to cluster {}; {moved} byte(s) moved",
                m.to
            )
        });
        self.telemetry.end_span(root, t);
        out
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
            jobs.sort_by_key(|(s, c)| (s.ip.octets(), s.port, *c));
            jobs.dedup();
            let mut started = 0usize;
            for (svc, from) in jobs {
                let Some(to) = ctl.migration_target(from, None, now) else {
                    continue;
                };
                if ctl.begin_migration(now, svc, from, to, MigrationReason::BreakerOpen, rng) {
                    started += 1;
                }
            }
            started
        })
    }

    /// Scans the client's memorized flows after an announced move and
    /// starts a live migration for each session whose cluster fell at
    /// least `mobility_hops` clusters behind the nearest candidate, as
    /// seen from the new ingress.
    fn migrate_lagging_sessions(
        &mut self,
        now: SimTime,
        client: Ipv4Addr,
        ingress: IngressId,
        rng: &mut SimRng,
    ) {
        let distances = self.distances_from(ingress);
        let mut jobs: Vec<(ServiceAddr, usize)> = Vec::new();
        for (key, flow) in self.state.memory().flows_of_client_at(client, ingress) {
            if flow.cluster >= self.clusters.len() {
                continue;
            }
            let dist = |i: usize| {
                distances
                    .as_deref()
                    .and_then(|d| d.get(i).copied())
                    .unwrap_or_else(|| self.clusters[i].latency())
            };
            let here = dist(flow.cluster);
            let closer = (0..self.clusters.len()).filter(|&i| dist(i) < here).count();
            if closer >= self.config.migration.mobility_hops {
                jobs.push((key.service, flow.cluster));
            }
        }
        jobs.sort_by_key(|(s, c)| (s.ip.octets(), s.port, *c));
        jobs.dedup();
        for (svc, from) in jobs {
            let Some(to) = self.migration_target(from, distances.as_deref(), now) else {
                continue;
            };
            self.begin_migration(now, svc, from, to, MigrationReason::Mobility, rng);
        }
    }

    /// The migration-target choice: the nearest cluster that can serve —
    /// never one whose circuit breaker is Open or that sits in a declared
    /// outage window (the breaker-aware scheduler views enforce the same
    /// rule for dispatch).
    fn migration_target(
        &self,
        from: usize,
        distances: Option<&[Duration]>,
        now: SimTime,
    ) -> Option<usize> {
        let health = self.state.health();
        (0..self.clusters.len())
            .filter(|&i| i != from)
            .filter(|&i| {
                health.breaker_state(i) != BreakerState::Open && !health.in_outage(i, now)
            })
            .min_by_key(|&i| {
                distances
                    .and_then(|d| d.get(i).copied())
                    .unwrap_or_else(|| self.clusters[i].latency())
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::annotate_deployment;
    use crate::cluster::DockerCluster;
    use crate::scheduler::ProximityScheduler;
    use dockersim::DockerEngine;
    use netsim::addr::MacAddr;
    use netsim::TcpFlags;
    use openflow::actions::{Action, Instruction};
    use ovs::{Effect, Switch, SwitchConfig};

    const CLIENT_PORT: u32 = 1;
    const EDGE_PORT: u32 = 2;
    const CLOUD_PORT: u32 = 3;

    fn make_service(key: &str, port: u16) -> EdgeService {
        let profile = containerd::ServiceSet::by_key(key).unwrap();
        let addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), port);
        let yaml = format!(
            "spec:\n  template:\n    spec:\n      containers:\n        - name: main\n          image: {}\n          ports:\n            - containerPort: {}\n",
            profile.manifests[0].reference, profile.listen_port
        );
        let annotated = annotate_deployment(&yaml, addr, None).unwrap();
        EdgeService {
            addr,
            name: annotated.service_name.clone(),
            annotated,
            profile,
        }
    }

    fn setup(rng: &mut SimRng) -> (Controller, Switch) {
        setup_with(rng, ControllerConfig::default())
    }

    fn setup_with(rng: &mut SimRng, config: ControllerConfig) -> (Controller, Switch) {
        let mut engine = DockerEngine::with_defaults();
        engine.pull(&containerd::ServiceSet::by_key("asm").unwrap().manifests, rng);
        let cluster = DockerCluster::new(
            "edge-docker",
            engine,
            MacAddr::from_id(200),
            Ipv4Addr::new(10, 0, 0, 10),
            Duration::from_micros(150),
        );
        let mut ctl = Controller::new(
            Box::<ProximityScheduler>::default(),
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
        let out = ctl.handle_switch_message(t0, pkt_in, &mut rng).unwrap();
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
        assert!(rec.phases.wait_time().is_some());
        assert_eq!(rec.cluster, Some(0));
    }

    #[test]
    fn second_connection_is_memory_hit_and_fast() {
        let mut rng = SimRng::new(2);
        let (mut ctl, mut sw) = setup(&mut rng);
        let t0 = SimTime::from_secs(1);
        let effects = sw.handle_frame(t0, CLIENT_PORT, &client_syn(50000).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        let out = ctl.handle_switch_message(t0, pkt_in, &mut rng).unwrap();
        let answered = out[0].at;
        for m in &out {
            sw.handle_controller(m.at, &m.data).unwrap();
        }

        // New connection (different src port) later: flows for it are new,
        // but the FlowMemory answers instantly — no deployment.
        let t1 = answered + Duration::from_secs(5);
        let effects = sw.handle_frame(t1, CLIENT_PORT, &client_syn(50001).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        let out = ctl.handle_switch_message(t1, pkt_in, &mut rng).unwrap();
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
            .handle_switch_message(SimTime::from_secs(1), pkt_in, &mut rng)
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
        let out = ctl.handle_switch_message(t0, pkt_in, &mut rng).unwrap();
        let answered = out[0].at;
        assert_eq!(ctl.memory().len(), 1);

        // Idle past the memory timeout: service gets scaled down.
        let idle_at = answered + Duration::from_secs(61);
        let events = ctl.tick(idle_at, &mut rng);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].cluster, "edge-docker");
        assert!(ctl.memory().is_empty());

        // Next request must deploy again (Waited, not MemoryHit).
        let t1 = idle_at + Duration::from_secs(5);
        let effects = sw.handle_frame(t1, CLIENT_PORT, &client_syn(50002).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        ctl.handle_switch_message(t1, pkt_in, &mut rng).unwrap();
        assert_eq!(ctl.records[1].kind, RequestKind::Waited);
    }

    #[test]
    fn echo_and_bootstrap() {
        let mut rng = SimRng::new(5);
        let (mut ctl, _) = setup(&mut rng);
        let boot = ctl.bootstrap();
        assert_eq!(boot.len(), 2);
        let (_, m, _) = Message::decode(&boot[0].data).unwrap();
        assert_eq!(m, Message::Hello);
        let out = ctl
            .handle_switch_message(
                SimTime::ZERO,
                &Message::EchoRequest(b"ka".to_vec()).encode(7),
                &mut rng,
            )
            .unwrap();
        let (_, m, _) = Message::decode(&out[0].data).unwrap();
        assert_eq!(m, Message::EchoReply(b"ka".to_vec()));
    }

    #[test]
    fn flow_stats_round_trip_through_the_switch() {
        let mut rng = SimRng::new(8);
        let (mut ctl, mut sw) = setup(&mut rng);
        // Deploy + install flows for one connection.
        let t0 = SimTime::from_secs(1);
        let effects = sw.handle_frame(t0, CLIENT_PORT, &client_syn(50000).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        let out = ctl.handle_switch_message(t0, pkt_in, &mut rng).unwrap();
        for m in &out {
            sw.handle_controller(m.at, &m.data).unwrap();
        }
        // Query stats and feed the reply back.
        let q = ctl.request_flow_stats(SimTime::from_secs(5));
        let effects = sw.handle_controller(q.at, &q.data).unwrap();
        let Effect::ToController(reply) = &effects[0] else { panic!() };
        ctl.handle_switch_message(SimTime::from_secs(5), reply, &mut rng)
            .unwrap();
        let stats = ctl.last_flow_stats.as_ref().expect("stats recorded");
        assert_eq!(stats.len(), 2, "forward + reverse flow");
        assert!(stats.iter().any(|f| f.cookie == 1));
        assert!(stats.iter().any(|f| f.cookie == 2));
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
        ctl.handle_switch_message(SimTime::ZERO, &err.encode(4), &mut rng)
            .unwrap();
        assert_eq!(
            ctl.switch_errors,
            vec![(openflow::messages::ErrorType::FlowModFailed, 6)]
        );
    }

    #[test]
    fn client_mobility_flushes_memory_and_reschedules() {
        let mut rng = SimRng::new(10);
        let (mut ctl, mut sw) = setup(&mut rng);
        let t0 = SimTime::from_secs(1);
        // First request from port 1.
        let effects = sw.handle_frame(t0, CLIENT_PORT, &client_syn(50000).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        let out = ctl.handle_switch_message(t0, pkt_in, &mut rng).unwrap();
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
        ctl.handle_switch_message(t1, pkt_in, &mut rng).unwrap();
        assert_eq!(ctl.clients().moves().len(), 1);
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
        let (mut ctl, mut sw0) = setup(&mut rng);
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
        ctl.telemetry = Telemetry::recording();

        // Session established at gNB 0.
        let t0 = SimTime::from_secs(1);
        let effects = sw0.handle_frame(t0, CLIENT_PORT, &client_syn(50000).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        let out = ctl.handle_switch_message(t0, pkt_in, &mut rng).unwrap();
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
        let out = ctl.handle_switch_message(t0, pkt_in, &mut rng).unwrap();
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
        ctl.handle_switch_message(t0, pkt_in, &mut rng).unwrap();

        // Idle sweep at t=25: scale-down only.
        let ev = ctl.tick(SimTime::from_secs(25), &mut rng);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].action, LifecycleAction::ScaleDown);
        let svc = ctl.services().get(ev[0].service).cloned().unwrap();
        assert!(matches!(
            ctl.cluster(0).state(&svc, SimTime::from_secs(26)),
            crate::cluster::InstanceState::Created
        ));
        // next_tick_at points at the pending removal.
        assert_eq!(ctl.next_tick_at(), Some(SimTime::from_secs(55)));

        // Sweep past the grace period: removed entirely.
        let ev = ctl.tick(SimTime::from_secs(56), &mut rng);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].action, LifecycleAction::Remove);
        assert!(matches!(
            ctl.cluster(0).state(&svc, SimTime::from_secs(57)),
            crate::cluster::InstanceState::NotDeployed
        ));
        // The next request redeploys through the full Create + Scale Up.
        let t1 = SimTime::from_secs(60);
        let effects = sw.handle_frame(t1, CLIENT_PORT, &client_syn(50002).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        ctl.handle_switch_message(t1, pkt_in, &mut rng).unwrap();
        let rec = ctl.records.last().unwrap();
        assert_eq!(rec.kind, RequestKind::Waited);
        assert!(rec.phases.create_done.is_some(), "create ran again");
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
        ctl.handle_switch_message(SimTime::ZERO, &fr.encode(9), &mut rng)
            .unwrap();
        assert_eq!(ctl.flows_removed, 1);
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
        let out = ctl.handle_switch_message(t0, pkt_in, &mut rng).unwrap();

        let rec = &ctl.records[0];
        assert_eq!(rec.kind, RequestKind::FallbackCloud);
        assert_eq!(rec.cluster, None);
        assert_eq!(
            rec.phases.create_retries,
            ctl.config.retry.max_attempts - 1,
            "every allowed retry was spent on the create phase"
        );
        let released = rec.phases.gave_up_at.expect("deployment gave up");
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
        ctl.handle_switch_message(t1, pkt_in, &mut rng).unwrap();
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
        let out = ctl.handle_switch_message(t0, pkt_in, &mut rng).unwrap();
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
        let ev = ctl.tick(mid, &mut rng);
        assert!(ev.is_empty(), "scale-down deferred while the request is held");
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
        let ev = ctl.tick(after, &mut rng);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].action, LifecycleAction::ScaleDown);
        assert!(matches!(
            ctl.cluster(0).state(&svc, after + Duration::from_millis(1)),
            crate::cluster::InstanceState::Created
        ));
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
        let mut ctl = Controller::new(
            Box::<ProximityScheduler>::default(),
            PortMap { cluster_ports: HashMap::new(), cloud_port: CLOUD_PORT },
            ControllerConfig {
                memory_idle: Duration::from_millis(1),
                ..ControllerConfig::default()
            },
        );
        ctl.telemetry = Telemetry::recording();
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
        let out = ctl.handle_switch_message(t0, pkt_in, &mut rng).unwrap();
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
        assert!(ctl.tick(mid, &mut rng).is_empty(), "deferred while held");

        // Request 2 after the hold drains and the service scaled down:
        // a fresh deployment (the memory has long expired).
        let after = held_until + Duration::from_millis(10);
        assert_eq!(ctl.tick(after, &mut rng).len(), 1);
        let t1 = after + Duration::from_secs(1);
        let effects = sw.handle_frame(t1, CLIENT_PORT, &client_syn(50002).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        ctl.handle_switch_message(t1, pkt_in, &mut rng).unwrap();
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
        let mut ctl = Controller::new(
            Box::<ProximityScheduler>::default(),
            PortMap { cluster_ports: HashMap::new(), cloud_port: CLOUD_PORT },
            ControllerConfig::default(),
        );
        ctl.telemetry = Telemetry::recording();
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
        ctl.handle_switch_message(t0, pkt_in, &mut rng).unwrap();
        assert_eq!(ctl.records[0].kind, RequestKind::FallbackCloud);

        // Second request coalesces onto the cached failure.
        let t1 = t0 + Duration::from_millis(5);
        let effects = sw.handle_frame(t1, CLIENT_PORT, &client_syn(50001).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        ctl.handle_switch_message(t1, pkt_in, &mut rng).unwrap();
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
            2 * u64::from(ctl.config.retry.max_attempts - 1)
        );
        assert_eq!(ctl.telemetry.metrics.counter("deploys_gave_up"), 2);
    }

    /// Drives one request to completion and delivers its flows to the
    /// switch; returns the answer instant.
    fn serve_one(
        ctl: &mut Controller,
        sw: &mut Switch,
        at: SimTime,
        src_port: u16,
        rng: &mut SimRng,
    ) -> SimTime {
        let effects = sw.handle_frame(at, CLIENT_PORT, &client_syn(src_port).encode());
        let Effect::ToController(pkt_in) = &effects[0] else { panic!() };
        let out = ctl.handle_switch_message(at, pkt_in, rng).unwrap();
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
        let (mut ctl, mut sw) = setup(&mut rng);
        ctl.telemetry = Telemetry::recording();
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
        let detect_at = crash_at + ctl.health_config().detect_interval;
        let repairs = ctl.health_check(detect_at);
        assert!(ctl.memory().is_empty(), "no lookup returns the dead address");
        assert_eq!(repairs.len(), 2, "fwd + rev delete");
        for (ing, m) in &repairs {
            assert_eq!(*ing, IngressId::DEFAULT);
            sw.handle_controller(m.at, &m.data).unwrap();
        }
        assert_eq!(sw.table().entries().count(), flows_before - 2);
        // A second sweep finds nothing left to repair.
        assert!(ctl.health_check(detect_at + ctl.health_config().detect_interval).is_empty());

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
        assert_eq!(rec.cluster, Some(0));
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
        let threshold = ctl.health_config().breaker_threshold;
        let mut t = SimTime::from_secs(1);
        // Alternating crash/redeploy cycles never trip the breaker: each
        // successful redeployment resets the failure streak.
        for i in 0..threshold {
            let answered = serve_one(&mut ctl, &mut sw, t, 50000 + i as u16, &mut rng);
            let crash_at = answered + Duration::from_secs(1);
            assert!(ctl.inject_instance_crash(0, svc_addr, crash_at, &mut rng));
            t = crash_at + ctl.health_config().detect_interval;
            for (_, m) in ctl.health_check(t) {
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
        let t2 = t + ctl.health_config().breaker_cooldown + Duration::from_secs(1);
        serve_one(&mut ctl, &mut sw, t2, 51001, &mut rng);
        assert_eq!(ctl.records.last().unwrap().kind, RequestKind::Waited);
        assert_eq!(ctl.breaker_state(0), BreakerState::Closed);
    }

    /// A declared zone outage tears everything down at once, blocks the zone
    /// for scheduling for the window, and the zone serves again afterwards.
    #[test]
    fn zone_outage_blocks_scheduling_until_it_ends() {
        let mut rng = SimRng::new(33);
        let (mut ctl, mut sw) = setup(&mut rng);
        ctl.telemetry = Telemetry::recording();
        let answered = serve_one(&mut ctl, &mut sw, SimTime::from_secs(1), 50000, &mut rng);
        let flows_before = sw.table().entries().count();

        let dark_at = answered + Duration::from_secs(1);
        let until = dark_at + Duration::from_secs(30);
        let repairs = ctl.begin_zone_outage(0, dark_at, until, &mut rng);
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
        assert_eq!(rec.cluster, Some(0));

        // An explicit early end also restores the zone.
        let dark2 = until + Duration::from_secs(40);
        ctl.begin_zone_outage(0, dark2, dark2 + Duration::from_secs(60), &mut rng);
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
        let flows_before: Vec<FlowEntry> = sw.table().entries().cloned().collect();
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
            hard_timeout: 0,
            priority: 42,
            buffer_id: OFP_NO_BUFFER,
            flags: 0,
            match_: Match::connection([1, 2, 3, 4], 9, [5, 6, 7, 8], 10),
            instructions: vec![Instruction::ApplyActions(vec![Action::output(CLOUD_PORT)])],
        };
        sw.handle_controller(lost_at, &orphan.encode(1234)).unwrap();

        // Reconnect: diff the switch table against the bookkeeping.
        let reconnect_at = lost_at + Duration::from_secs(1);
        let table: Vec<FlowEntry> = sw.table().entries().cloned().collect();
        let fixes = ctl.reconcile(IngressId::DEFAULT, &table, reconnect_at);
        assert_eq!(fixes.len(), 3, "2 re-adds + 1 orphan delete");
        for m in &fixes {
            sw.handle_controller(m.at, &m.data).unwrap();
        }

        // The repaired table matches what was installed originally, modulo
        // bookkeeping fields the switch resets (timestamps, counters).
        let repaired: Vec<FlowEntry> = sw.table().entries().cloned().collect();
        assert_eq!(repaired.len(), flows_before.len());
        for b in &flows_before {
            assert!(
                repaired.iter().any(|a| a.match_ == b.match_
                    && a.priority == b.priority
                    && a.instructions == b.instructions
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
        let table: Vec<FlowEntry> = sw.table().entries().cloned().collect();
        assert!(ctl.reconcile(IngressId::DEFAULT, &table, reconnect_at + Duration::from_secs(1)).is_empty());
    }

    /// A delivered FLOW_REMOVED tombstones its pair: reconciliation does not
    /// resurrect flows the switch legitimately expired.
    #[test]
    fn flow_removed_tombstones_so_reconcile_does_not_resurrect() {
        let mut rng = SimRng::new(35);
        let (mut ctl, mut sw) = setup(&mut rng);
        let answered = serve_one(&mut ctl, &mut sw, SimTime::from_secs(1), 50000, &mut rng);

        // The flows idle out and the notification *is* delivered.
        let expire_at = answered + ctl.config.switch_flow_idle + Duration::from_secs(1);
        for fx in sw.expire_flows(expire_at) {
            if let Effect::ToController(bytes) = fx {
                ctl.handle_switch_message(expire_at, &bytes, &mut rng).unwrap();
            }
        }
        assert!(ctl.flows_removed > 0);
        assert_eq!(sw.table().entries().count(), 0);

        // Reconciliation agrees with the switch: nothing to re-install.
        let table: Vec<FlowEntry> = sw.table().entries().cloned().collect();
        let fixes = ctl.reconcile(IngressId::DEFAULT, &table, expire_at + Duration::from_secs(1));
        assert!(fixes.is_empty(), "expired pairs are tombstoned, not resurrected: {}", fixes.len());
    }

    /// What a `FLOW_REMOVED` costs does not grow with the client's history:
    /// after 5 000 install → expire cycles — 4 999 tombstones filed under the
    /// one client — the last notification compares its own pair only.
    #[test]
    fn flow_removed_examines_its_own_pair_whatever_the_history() {
        let mut rng = SimRng::new(36);
        let (mut ctl, mut sw) = setup(&mut rng);
        let client = Ipv4Addr::new(192, 168, 1, 20);
        let mut now = SimTime::from_secs(1);
        let mut examined_by_last = 0;
        for cycle in 0..5_000u16 {
            let answered = serve_one(&mut ctl, &mut sw, now, 10_000 + cycle, &mut rng);
            now = answered + ctl.config.switch_flow_idle + Duration::from_secs(1);
            let before = ctl.state.pairs_examined();
            for fx in sw.expire_flows(now) {
                if let Effect::ToController(bytes) = fx {
                    ctl.handle_switch_message(now, &bytes, &mut rng).unwrap();
                }
            }
            examined_by_last = ctl.state.pairs_examined() - before;
        }
        let pairs = ctl.state.pairs(client, IngressId::DEFAULT);
        assert_eq!(pairs.len(), 5_000);
        assert!(pairs.iter().all(|p| p.dead), "every cycle's pair was found and tombstoned");
        assert!(
            (1..=2).contains(&examined_by_last),
            "a FLOW_REMOVED examined {examined_by_last} pairs"
        );
    }

    /// Reconciliation tombstones pairs whose instance died while the channel
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
        let table: Vec<FlowEntry> = sw.table().entries().cloned().collect();
        let fixes = ctl.reconcile(IngressId::DEFAULT, &table, crash_at + Duration::from_secs(2));
        assert!(!fixes.is_empty());
        for m in &fixes {
            sw.handle_controller(m.at, &m.data).unwrap();
        }
        assert_eq!(sw.table().entries().count(), 0, "stale redirects purged");
        let table: Vec<FlowEntry> = sw.table().entries().cloned().collect();
        assert!(ctl.reconcile(IngressId::DEFAULT, &table, crash_at + Duration::from_secs(3)).is_empty());
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
        let out = ctl.handle_switch_message(t1, pkt_in, &mut rng).unwrap();
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
        for m in ctl.handle_switch_message(t1, pkt_in, &mut rng).unwrap() {
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
        let out = ctl.handle_switch_message(t2, &pkt_in, &mut rng).unwrap();
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
        for m in ctl.handle_switch_message(t1, pkt_in, &mut rng).unwrap() {
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
        let out = ctl.handle_switch_message(t2, &pkt_in, &mut rng).unwrap();
        let kinds: Vec<&'static str> = out
            .iter()
            .map(|m| match Message::decode(&m.data).unwrap().1 {
                Message::FlowMod { priority, .. } => {
                    assert_eq!(priority, ctl.config.flow_priority, "exact pairs at base priority");
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
        for m in ctl.handle_switch_message(t1, pkt_in, &mut rng).unwrap() {
            sw.handle_controller(m.at, &m.data).unwrap();
        }
        assert_eq!(sw.table().entries().count(), 4, "exact pair + aggregate pair");

        let svc_addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80);
        let crash_at = t1 + Duration::from_secs(1);
        assert!(ctl.inject_instance_crash(0, svc_addr, crash_at, &mut rng));
        let detect_at = crash_at + ctl.health_config().detect_interval;
        let repairs = ctl.health_check(detect_at);
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
        for m in ctl.handle_switch_message(t1, pkt_in, &mut rng).unwrap() {
            sw.handle_controller(m.at, &m.data).unwrap();
        }
        let flows_before: Vec<FlowEntry> = sw.table().entries().cloned().collect();
        assert_eq!(flows_before.len(), 4);

        // The whole table idles out with the channel down.
        let lost_at = t1 + ctl.config.switch_flow_idle + Duration::from_secs(1);
        let _undelivered = sw.expire_flows(lost_at);
        assert_eq!(sw.table().entries().count(), 0);

        let table: Vec<FlowEntry> = sw.table().entries().cloned().collect();
        let fixes = ctl.reconcile(IngressId::DEFAULT, &table, lost_at + Duration::from_secs(1));
        assert_eq!(fixes.len(), 4, "both pairs re-added");
        for m in &fixes {
            sw.handle_controller(m.at, &m.data).unwrap();
        }
        let repaired: Vec<FlowEntry> = sw.table().entries().cloned().collect();
        assert_eq!(repaired.len(), flows_before.len());
        for b in &flows_before {
            assert!(repaired
                .iter()
                .any(|a| a.match_ == b.match_ && a.priority == b.priority));
        }
        let table: Vec<FlowEntry> = sw.table().entries().cloned().collect();
        assert!(ctl
            .reconcile(IngressId::DEFAULT, &table, lost_at + Duration::from_secs(2))
            .is_empty());
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
        let out = ctl.handle_switch_message(t0, pkt_in, &mut rng).unwrap();
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
        let out = ctl.handle_switch_message(t0, pkt_in, &mut rng).unwrap();
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
        frame.payload = vec![0x5a; Message::MAX_LEN - packet_in_overhead - frame.wire_len()];
        let effects = sw.handle_frame(SimTime::from_secs(1), CLIENT_PORT, &frame.encode());
        let [Effect::ToController(pkt_in)] = &effects[..] else {
            panic!("the frame fits one PACKET_IN exactly: {effects:?}");
        };
        assert_eq!(pkt_in.len(), Message::MAX_LEN);

        let out = ctl
            .handle_switch_message(SimTime::from_secs(1), pkt_in, &mut rng)
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

        let out = ctl.handle_switch_message(t0, pkt_in, &mut rng).unwrap();
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
        let out = ctl.handle_switch_message(t0, &junk.encode(7), &mut rng).unwrap();
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
            let (_, Message::FlowMod { priority, instructions, .. }, _) =
                Message::decode(&m.data).unwrap()
            else {
                panic!("expected flow-mods");
            };
            assert_eq!(priority, ctl.config.flow_priority, "exact, not aggregate, priority");
            assert_eq!(instructions[0].actions().len(), 1, "plain output, no rewrite");
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
            (ctl.crash_restart(mode, t), ctl.state_digest())
        };
        for mode in [RecoveryMode::Warm, RecoveryMode::Cold] {
            assert_eq!(run(mode), run(mode), "{mode:?}");
        }
        let (warm, _) = run(RecoveryMode::Warm);
        assert!(warm.replayed_events + warm.snapshot_entries > 0);
    }
}
