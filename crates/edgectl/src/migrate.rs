//! Live stateful service migration between edge zones (ROADMAP item 3).
//!
//! PR 4/5 migrate *flows*: on a handover the rewrite rules chase the client,
//! but the service instance — and the session state it accumulated — stays in
//! the old zone (anchored) or is thrown away and re-deployed cold
//! (redispatch). This module adds the third option from Fondo-Ferreiro et
//! al.'s SDN session-and-service continuity work: move the *service* with the
//! user.
//!
//! The model:
//!
//! * **Session state** grows with served requests: every request a zone
//!   answers adds `state_bytes_per_request` to that `(service, cluster)`
//!   entry in the [`SessionLedger`]. At 0 bytes/request (the default) the
//!   ledger is never touched and the whole subsystem is inert.
//! * **Snapshot + transfer**: a migration snapshots the source entry and
//!   ships it zone-to-zone over a metro link modelled by
//!   [`netsim::link::LinkSpec`] — transfer time is propagation plus
//!   `bytes / bandwidth` serialization, so the cost scales linearly in state
//!   size.
//! * **Warm start**: the target instance is deployed (pull/create/scale-up as
//!   needed) *during* the transfer; the migration completes at
//!   `max(target ready, transfer done)`.
//! * **Make-before-break flip**: on completion the controller installs the
//!   new redirect pairs first and deletes the old ones afterwards (the PR 4
//!   handover machinery), so the interruption is control-plane processing
//!   only — the source keeps serving across the whole transfer.
//!
//! Triggers (wired in [`crate::controller`]): client mobility (attachment
//! moved ≥ N cluster-hops from its instance), a circuit breaker opening on
//! the source zone (evacuate *away*, scheduler-chosen target instead of
//! falling to the cloud), and an explicit API for experiments.

use desim::{Duration, SimTime};
use netsim::link::{Link, LinkSpec};
use netsim::ServiceAddr;
use std::collections::BTreeMap;

/// What happens to a session's service when its user moves away (or its zone
/// degrades).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MigrationPolicy {
    /// Sessions stay anchored to the old zone's instance (PR 4 default).
    Anchored,
    /// Sessions are re-placed cold through the Global Scheduler; session
    /// state is lost (PR 4's `redispatch` baseline).
    Redispatch,
    /// Snapshot the session state, transfer it, warm-start the target, then
    /// flip the flows make-before-break.
    Live,
}

impl MigrationPolicy {
    /// Stable label (config value / report row).
    pub fn label(&self) -> &'static str {
        match self {
            MigrationPolicy::Anchored => "anchored",
            MigrationPolicy::Redispatch => "redispatch",
            MigrationPolicy::Live => "live",
        }
    }
}

/// The `migration:` block of the controller's YAML config.
#[derive(Clone, Debug, PartialEq)]
pub struct MigrationConfig {
    /// Continuity policy; anything but [`MigrationPolicy::Live`] leaves the
    /// subsystem inert.
    pub policy: MigrationPolicy,
    /// Session-state growth per served request. 0 (the default) disables the
    /// ledger entirely, keeping committed figures byte-identical.
    pub state_bytes_per_request: u64,
    /// One-way propagation of the metro link snapshots travel over.
    pub transfer_propagation: Duration,
    /// Bandwidth of that link, bits per second.
    pub transfer_bandwidth_bps: u64,
    /// Concurrent state transfers allowed; further triggers are ignored
    /// until a slot frees up.
    pub max_concurrent: usize,
    /// Mobility trigger threshold: migrate once the client's attachment is
    /// at least this many cluster-hops from its serving instance.
    pub mobility_hops: usize,
}

impl Default for MigrationConfig {
    fn default() -> MigrationConfig {
        MigrationConfig {
            policy: MigrationPolicy::Anchored,
            state_bytes_per_request: 0,
            // The metro backbone of the mobility topology: 2 ms between
            // zones at 10 Gbps.
            transfer_propagation: Duration::from_millis(2),
            transfer_bandwidth_bps: 10_000_000_000,
            max_concurrent: 2,
            mobility_hops: 1,
        }
    }
}

impl MigrationConfig {
    /// `true` when live migration is on.
    pub fn live(&self) -> bool {
        self.policy == MigrationPolicy::Live
    }

    /// Time to ship `bytes` of snapshot over the metro link: propagation
    /// plus serialization at the configured bandwidth (jitter-free — the
    /// transfer is a bulk copy, not a frame).
    pub fn transfer_time(&self, bytes: u64) -> Duration {
        let link = Link::new(LinkSpec {
            propagation: self.transfer_propagation,
            bandwidth_bps: self.transfer_bandwidth_bps,
            jitter_max: Duration::ZERO,
        });
        self.transfer_propagation + link.serialization_delay(bytes as usize)
    }
}

/// Why a migration started.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MigrationReason {
    /// The client's attachment moved too far from its instance.
    Mobility,
    /// The source zone's circuit breaker opened.
    BreakerOpen,
    /// Requested through the explicit API (experiments).
    Explicit,
}

impl MigrationReason {
    /// Stable label (telemetry / report row).
    pub fn label(&self) -> &'static str {
        match self {
            MigrationReason::Mobility => "mobility",
            MigrationReason::BreakerOpen => "breaker-open",
            MigrationReason::Explicit => "explicit",
        }
    }
}

/// Per-`(service, cluster)` session-state bookkeeping.
#[derive(Debug, Default)]
pub struct SessionLedger {
    bytes: BTreeMap<(ServiceAddr, usize), u64>,
}

impl SessionLedger {
    /// Adds `amount` bytes of session state at `(service, cluster)`.
    pub fn credit(&mut self, service: ServiceAddr, cluster: usize, amount: u64) {
        if amount > 0 {
            *self.bytes.entry((service, cluster)).or_insert(0) += amount;
        }
    }

    /// Current session-state size at `(service, cluster)`.
    pub fn bytes_at(&self, service: ServiceAddr, cluster: usize) -> u64 {
        self.bytes.get(&(service, cluster)).copied().unwrap_or(0)
    }

    /// Total session state across all zones (conservation checks).
    pub fn total(&self) -> u64 {
        self.bytes.values().sum()
    }

    /// Moves everything at `(service, from)` to `(service, to)` — the
    /// switchover sync: state accrued during the transfer window moves too,
    /// so nothing is lost.
    pub fn transfer(&mut self, service: ServiceAddr, from: usize, to: usize) -> u64 {
        let moved = self.bytes.remove(&(service, from)).unwrap_or(0);
        self.credit(service, to, moved);
        moved
    }

    /// Drops the entry at `(service, cluster)` (cold redispatch loses the
    /// state; that is the point of the baseline).
    pub fn forget(&mut self, service: ServiceAddr, cluster: usize) -> u64 {
        self.bytes.remove(&(service, cluster)).unwrap_or(0)
    }

    /// Every ledger entry, sorted — the snapshot export.
    pub fn export_entries(&self) -> Vec<((ServiceAddr, usize), u64)> {
        self.bytes.iter().map(|(k, v)| (*k, *v)).collect()
    }

    /// Rebuilds the ledger from a snapshot export.
    pub fn restore_entries(&mut self, entries: &[((ServiceAddr, usize), u64)]) {
        self.bytes = entries.iter().copied().collect();
    }
}

/// One migration-state mutation, as appended to the controller's
/// write-ahead journal (see [`crate::journal`]).
#[derive(Clone, Copy, Debug)]
pub enum MigrationOp {
    /// A served request credited session state at `(service, cluster)`.
    Served {
        /// The serving service.
        service: ServiceAddr,
        /// The serving cluster.
        cluster: usize,
    },
    /// A migration started (already carries its computed transfer deadline).
    Begun {
        /// The in-flight record as pushed to the active set.
        migration: Migration,
    },
    /// A migration flipped: state transferred, cooldown armed.
    Completed {
        /// The migration taken from the active set.
        migration: Migration,
        /// Flip completion instant.
        at: SimTime,
        /// Redirect flows moved.
        flows_flipped: usize,
    },
    /// A migration was abandoned; state and flows stay at the source.
    Aborted {
        /// The abandoned migration.
        migration: Migration,
    },
}

/// Plain-data snapshot of the migration subsystem — ledger, in-flight
/// transfers, and cooldown deadlines. Completed-migration records and the
/// abort counter are diagnostics and deliberately excluded.
#[derive(Clone, Debug, Default)]
pub struct MigrationSnapshot {
    /// Session-state bytes per `(service, cluster)`.
    pub ledger: Vec<((ServiceAddr, usize), u64)>,
    /// In-flight migrations, in start order.
    pub active: Vec<Migration>,
    /// Per-service flip-cooldown deadlines.
    pub cooled: Vec<(ServiceAddr, SimTime)>,
}

/// An in-flight migration: state is on the wire, the target is warming up,
/// the source still serves.
#[derive(Clone, Copy, Debug)]
pub struct Migration {
    /// The migrating service.
    pub service: ServiceAddr,
    /// Source cluster index.
    pub from: usize,
    /// Target cluster index.
    pub to: usize,
    /// What triggered it.
    pub reason: MigrationReason,
    /// Snapshot size at departure.
    pub state_bytes: u64,
    /// When the snapshot + warm start began.
    pub started_at: SimTime,
    /// When both the transfer and the target's readiness complete — the
    /// earliest instant the flow flip may run.
    pub transfer_done: SimTime,
    /// Telemetry span key.
    pub request: u64,
}

/// A finished migration, for reports and experiments.
#[derive(Clone, Copy, Debug)]
pub struct MigrationRecord {
    /// The migrated service.
    pub service: ServiceAddr,
    /// Source cluster index.
    pub from: usize,
    /// Target cluster index.
    pub to: usize,
    /// What triggered it.
    pub reason: MigrationReason,
    /// Bytes shipped (snapshot plus switchover delta).
    pub state_bytes: u64,
    /// When the migration began.
    pub started_at: SimTime,
    /// When transfer + warm start completed.
    pub transfer_done: SimTime,
    /// When the make-before-break flip finished installing.
    pub completed_at: SimTime,
    /// Redirect flows moved to the target.
    pub flows_flipped: usize,
}

impl MigrationRecord {
    /// Background cost: how long the state was in flight (source kept
    /// serving throughout).
    pub fn transfer_time(&self) -> Duration {
        self.transfer_done.saturating_since(self.started_at)
    }

    /// Client-visible interruption: the make-before-break flip only.
    pub fn interruption(&self) -> Duration {
        self.completed_at.saturating_since(self.transfer_done)
    }
}

/// Minimum gap between a migration's flip and the next migration start for
/// the same service. The flip's make-before-break deletes the *old* pairs on
/// a delay (the controller's 50 ms guard interval); because the flow table
/// replaces same-match installs in place and deletes by match alone, a
/// re-migration flipping back within that window would have its fresh pairs
/// deleted by the previous flip's still-pending teardown. The cooldown keeps
/// any two flips of one service strictly farther apart than the guard — and
/// damps migration thrash when clients pull a shared service both ways.
pub const FLIP_COOLDOWN: Duration = Duration::from_millis(150);

/// The migration state machine: ledger, in-flight transfers, records.
#[derive(Debug, Default)]
pub struct MigrationManager {
    config: MigrationConfig,
    ledger: SessionLedger,
    active: Vec<Migration>,
    /// Per-service earliest next start after a flip ([`FLIP_COOLDOWN`]).
    cooled: BTreeMap<ServiceAddr, SimTime>,
    /// Every completed migration, in completion order.
    pub records: Vec<MigrationRecord>,
    /// Migrations that reached their flip with no ready target (source
    /// crash took the warm-up down too); flows stay where they were.
    pub aborted: u64,
    /// Mutation log drained by the controller's journal; `None` (the
    /// default) keeps every mutator free of logging work.
    log: Option<Vec<MigrationOp>>,
}

impl MigrationManager {
    /// Creates a manager for `config`.
    pub fn new(config: MigrationConfig) -> MigrationManager {
        MigrationManager {
            config,
            ..MigrationManager::default()
        }
    }

    /// The configuration the manager was built with.
    pub fn config(&self) -> &MigrationConfig {
        &self.config
    }

    /// `true` when live migration is on.
    pub fn live(&self) -> bool {
        self.config.live()
    }

    /// Turns mutation logging on or off (off discards undrained ops).
    pub fn set_logging(&mut self, on: bool) {
        self.log = if on { Some(Vec::new()) } else { None };
    }

    /// Drains the ops accumulated since the last drain. Empty when logging
    /// is off.
    pub fn take_ops(&mut self) -> Vec<MigrationOp> {
        self.log.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Ledger, active set and cooldowns as plain data — the snapshot
    /// export.
    pub fn export_state(&self) -> MigrationSnapshot {
        MigrationSnapshot {
            ledger: self.ledger.export_entries(),
            active: self.active.clone(),
            cooled: self.cooled.iter().map(|(k, v)| (*k, *v)).collect(),
        }
    }

    /// Restores a snapshot taken by [`export_state`](Self::export_state).
    pub fn restore_state(&mut self, s: &MigrationSnapshot) {
        self.ledger.restore_entries(&s.ledger);
        self.active = s.active.clone();
        self.cooled = s.cooled.iter().copied().collect();
    }

    /// Applies one logged mutation — the journal replay primitive. Call on
    /// a non-logging instance, or the replayed ops are re-logged.
    pub fn apply(&mut self, op: &MigrationOp) {
        match *op {
            MigrationOp::Served { service, cluster } => self.note_served(service, cluster),
            // Begun bypasses `can_start`: the original manager already
            // admitted this migration, and its deadline travels with it.
            MigrationOp::Begun { migration } => self.active.push(migration),
            MigrationOp::Completed {
                migration,
                at,
                flows_flipped,
            } => {
                self.active.retain(|a| {
                    !(a.service == migration.service
                        && a.from == migration.from
                        && a.started_at == migration.started_at)
                });
                self.complete(&migration, at, flows_flipped);
            }
            MigrationOp::Aborted { migration } => {
                self.active.retain(|a| {
                    !(a.service == migration.service
                        && a.from == migration.from
                        && a.started_at == migration.started_at)
                });
                self.aborted += 1;
            }
        }
    }

    /// Abandons every in-flight migration — the warm-restart policy: a
    /// transfer interrupted by a controller crash cannot be trusted to
    /// flip, so state and flows stay at the source and the pins lift.
    /// Returns how many were dropped.
    pub fn abort_all(&mut self) -> usize {
        let dropped = std::mem::take(&mut self.active);
        let n = dropped.len();
        self.aborted += n as u64;
        if let Some(log) = &mut self.log {
            log.extend(dropped.into_iter().map(|m| MigrationOp::Aborted { migration: m }));
        }
        n
    }

    /// Records one served request at `(service, cluster)`. No-op at the
    /// default 0 bytes/request.
    pub fn note_served(&mut self, service: ServiceAddr, cluster: usize) {
        if self.config.state_bytes_per_request == 0 {
            // Stateless (and the default-off) configuration: no ledger
            // entry is ever created, so the manager stays fully inert.
            return;
        }
        self.ledger
            .credit(service, cluster, self.config.state_bytes_per_request);
        if let Some(log) = &mut self.log {
            log.push(MigrationOp::Served { service, cluster });
        }
    }

    /// Session-state bookkeeping (read-only).
    pub fn ledger(&self) -> &SessionLedger {
        &self.ledger
    }

    /// Whether a migration of `service` away from `from` to `to` may start
    /// at `now`: a free slot, a real move, no duplicate in flight, and the
    /// service's previous flip (if any) out of its [`FLIP_COOLDOWN`].
    pub fn can_start(&self, service: ServiceAddr, from: usize, to: usize, now: SimTime) -> bool {
        from != to
            && self.active.len() < self.config.max_concurrent
            && self.cooled.get(&service).is_none_or(|&t| now >= t)
            && !self
                .active
                .iter()
                .any(|m| m.service == service && (m.from == from || m.to == from))
    }

    /// Starts a migration. `ready_at` is when the warm-started target
    /// instance will be ready; the flip becomes due once both the transfer
    /// and the warm start are done. Returns the in-flight record.
    #[allow(clippy::too_many_arguments)]
    pub fn begin(
        &mut self,
        service: ServiceAddr,
        from: usize,
        to: usize,
        reason: MigrationReason,
        now: SimTime,
        ready_at: SimTime,
        request: u64,
    ) -> Migration {
        debug_assert!(self.can_start(service, from, to, now));
        let state_bytes = self.ledger.bytes_at(service, from);
        let transfer_done = (now + self.config.transfer_time(state_bytes)).max(ready_at);
        let m = Migration {
            service,
            from,
            to,
            reason,
            state_bytes,
            started_at: now,
            transfer_done,
            request,
        };
        self.active.push(m);
        if let Some(log) = &mut self.log {
            log.push(MigrationOp::Begun { migration: m });
        }
        m
    }

    /// In-flight migrations.
    pub fn active(&self) -> &[Migration] {
        &self.active
    }

    /// `true` while `(service, cluster)` is the source or target of an
    /// in-flight migration — the pool must not be retired underneath it.
    pub fn pinned(&self, service: ServiceAddr, cluster: usize) -> bool {
        self.active
            .iter()
            .any(|m| m.service == service && (m.from == cluster || m.to == cluster))
    }

    /// The earliest instant an in-flight migration becomes flippable.
    pub fn next_due(&self) -> Option<SimTime> {
        self.active.iter().map(|m| m.transfer_done).min()
    }

    /// Removes and returns the migrations whose transfer completed by
    /// `now`, in start order.
    pub fn take_due(&mut self, now: SimTime) -> Vec<Migration> {
        let mut due = Vec::new();
        self.active.retain(|m| {
            if m.transfer_done <= now {
                due.push(*m);
                false
            } else {
                true
            }
        });
        due
    }

    /// Finishes a migration taken from [`MigrationManager::take_due`]:
    /// moves the session state (snapshot plus anything accrued during the
    /// transfer) and records the outcome. Returns the bytes moved.
    pub fn complete(&mut self, m: &Migration, completed_at: SimTime, flows_flipped: usize) -> u64 {
        self.cooled.insert(m.service, completed_at + FLIP_COOLDOWN);
        let moved = self.ledger.transfer(m.service, m.from, m.to);
        self.records.push(MigrationRecord {
            service: m.service,
            from: m.from,
            to: m.to,
            reason: m.reason,
            state_bytes: moved,
            started_at: m.started_at,
            transfer_done: m.transfer_done,
            completed_at,
            flows_flipped,
        });
        if let Some(log) = &mut self.log {
            log.push(MigrationOp::Completed {
                migration: *m,
                at: completed_at,
                flows_flipped,
            });
        }
        moved
    }

    /// Abandons a migration whose target never became ready (e.g. the
    /// fault plan took the target zone dark mid-transfer). State and flows
    /// stay at the source.
    pub fn abort(&mut self, m: &Migration) {
        self.aborted += 1;
        if let Some(log) = &mut self.log {
            log.push(MigrationOp::Aborted { migration: *m });
        }
    }

    /// Abandons every in-flight migration touching `(service, cluster)` —
    /// called when a crash retires the pool mid-transfer. The pin lifts;
    /// session state and flows stay wherever they currently are. Returns
    /// how many migrations were dropped.
    pub fn abort_involving(&mut self, service: ServiceAddr, cluster: usize) -> usize {
        let mut dropped = Vec::new();
        self.active.retain(|m| {
            if m.service == service && (m.from == cluster || m.to == cluster) {
                dropped.push(*m);
                false
            } else {
                true
            }
        });
        let n = dropped.len();
        self.aborted += n as u64;
        if let Some(log) = &mut self.log {
            log.extend(dropped.into_iter().map(|m| MigrationOp::Aborted { migration: m }));
        }
        n
    }

    /// Abandons every in-flight migration into or out of `cluster` — the
    /// zone-outage fault takes the whole zone dark at once. Returns how
    /// many migrations were dropped.
    pub fn abort_cluster(&mut self, cluster: usize) -> usize {
        let mut dropped = Vec::new();
        self.active.retain(|m| {
            if m.from == cluster || m.to == cluster {
                dropped.push(*m);
                false
            } else {
                true
            }
        });
        let n = dropped.len();
        self.aborted += n as u64;
        if let Some(log) = &mut self.log {
            log.extend(dropped.into_iter().map(|m| MigrationOp::Aborted { migration: m }));
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Ipv4Addr;

    fn svc(last: u8) -> ServiceAddr {
        ServiceAddr::new(Ipv4Addr::new(203, 0, 113, last), 80)
    }

    #[test]
    fn defaults_are_inert() {
        let c = MigrationConfig::default();
        assert_eq!(c.policy, MigrationPolicy::Anchored);
        assert!(!c.live());
        assert_eq!(c.state_bytes_per_request, 0);
        let mut m = MigrationManager::new(c);
        m.note_served(svc(1), 0);
        m.note_served(svc(1), 0);
        assert_eq!(m.ledger().total(), 0, "0 bytes/request never touches the ledger");
    }

    #[test]
    fn transfer_time_is_linear_in_state_bytes() {
        let c = MigrationConfig {
            transfer_propagation: Duration::from_millis(2),
            transfer_bandwidth_bps: 1_000_000_000,
            ..MigrationConfig::default()
        };
        // 0 bytes: pure propagation.
        assert_eq!(c.transfer_time(0), Duration::from_millis(2));
        // 1 Gbps: 125_000 bytes = 1 ms of serialization.
        let t1 = c.transfer_time(125_000);
        let t2 = c.transfer_time(250_000);
        let t4 = c.transfer_time(500_000);
        assert_eq!(t1, Duration::from_millis(3));
        // Linear in bytes past the fixed propagation term.
        assert_eq!(t2 - t1, Duration::from_millis(1));
        assert_eq!(t4 - t2, Duration::from_millis(2));
    }

    #[test]
    fn ledger_conserves_bytes_across_transfer() {
        let mut l = SessionLedger::default();
        l.credit(svc(1), 0, 700);
        l.credit(svc(1), 1, 50);
        l.credit(svc(2), 0, 11);
        assert_eq!(l.total(), 761);
        let moved = l.transfer(svc(1), 0, 2);
        assert_eq!(moved, 700);
        assert_eq!(l.bytes_at(svc(1), 0), 0);
        assert_eq!(l.bytes_at(svc(1), 2), 700);
        assert_eq!(l.total(), 761, "transfer conserves total state");
        assert_eq!(l.forget(svc(2), 0), 11);
        assert_eq!(l.total(), 750);
    }

    #[test]
    fn manager_snapshots_and_moves_switchover_delta() {
        let mut m = MigrationManager::new(MigrationConfig {
            policy: MigrationPolicy::Live,
            state_bytes_per_request: 100,
            ..MigrationConfig::default()
        });
        for _ in 0..5 {
            m.note_served(svc(1), 0);
        }
        let t0 = SimTime::from_secs(10);
        let mig = m.begin(svc(1), 0, 1, MigrationReason::Explicit, t0, t0, 1);
        assert_eq!(mig.state_bytes, 500);
        assert!(mig.transfer_done > t0, "propagation alone takes time");
        // Two more requests land at the source during the transfer window.
        m.note_served(svc(1), 0);
        m.note_served(svc(1), 0);
        let due = m.take_due(mig.transfer_done);
        assert_eq!(due.len(), 1);
        assert!(m.active().is_empty());
        let moved = m.complete(&due[0], mig.transfer_done, 3);
        assert_eq!(moved, 700, "switchover sync ships the delta too");
        assert_eq!(m.ledger().bytes_at(svc(1), 1), 700);
        assert_eq!(m.ledger().bytes_at(svc(1), 0), 0);
        let r = &m.records[0];
        assert_eq!(r.flows_flipped, 3);
        assert_eq!(r.interruption(), Duration::ZERO);
    }

    #[test]
    fn warm_start_extends_the_flip_past_target_readiness() {
        let mut m = MigrationManager::new(MigrationConfig {
            policy: MigrationPolicy::Live,
            ..MigrationConfig::default()
        });
        let t0 = SimTime::from_secs(1);
        let ready = SimTime::from_secs(5);
        let mig = m.begin(svc(1), 0, 1, MigrationReason::Mobility, t0, ready, 1);
        assert_eq!(mig.transfer_done, ready, "flip waits for the warm start");
        assert_eq!(m.next_due(), Some(ready));
        assert!(m.take_due(SimTime::from_secs(4)).is_empty());
        assert_eq!(m.take_due(ready).len(), 1);
    }

    #[test]
    fn concurrency_and_duplicates_are_bounded() {
        let mut m = MigrationManager::new(MigrationConfig {
            policy: MigrationPolicy::Live,
            max_concurrent: 2,
            ..MigrationConfig::default()
        });
        let t0 = SimTime::from_secs(1);
        assert!(!m.can_start(svc(1), 0, 0, t0), "self-migration is meaningless");
        assert!(m.can_start(svc(1), 0, 1, t0));
        m.begin(svc(1), 0, 1, MigrationReason::Explicit, t0, t0, 1);
        assert!(
            !m.can_start(svc(1), 0, 2, t0),
            "one transfer per (service, source) at a time"
        );
        assert!(
            !m.can_start(svc(1), 1, 2, t0),
            "the landing zone is not re-evacuated mid-flight"
        );
        assert!(m.can_start(svc(2), 0, 1, t0), "other services are independent");
        m.begin(svc(2), 0, 1, MigrationReason::Explicit, t0, t0, 2);
        assert!(!m.can_start(svc(3), 0, 1, t0), "max_concurrent caps the fleet");
        assert!(m.pinned(svc(1), 0) && m.pinned(svc(1), 1));
        assert!(!m.pinned(svc(1), 2) && !m.pinned(svc(3), 0));
    }

    #[test]
    fn a_flipped_service_cools_down_before_it_may_move_again() {
        let mut m = MigrationManager::new(MigrationConfig {
            policy: MigrationPolicy::Live,
            ..MigrationConfig::default()
        });
        let t0 = SimTime::from_secs(1);
        let mig = m.begin(svc(1), 0, 1, MigrationReason::Mobility, t0, t0, 1);
        let flip = mig.transfer_done + Duration::from_millis(1);
        let due = m.take_due(flip);
        assert_eq!(due.len(), 1);
        m.complete(&due[0], flip, 1);
        // Inside the cooldown the service may not start another migration —
        // otherwise the previous flip's delayed teardown (the controller's
        // 50 ms guard) could delete the pairs the new flip just installed.
        assert!(!m.can_start(svc(1), 1, 0, flip + Duration::from_millis(50)));
        assert!(!m.can_start(svc(1), 1, 0, flip + (FLIP_COOLDOWN - Duration::from_millis(1))));
        assert!(m.can_start(svc(1), 1, 0, flip + FLIP_COOLDOWN));
        // Other services are unaffected.
        assert!(m.can_start(svc(2), 1, 0, flip + Duration::from_millis(1)));
    }
}
