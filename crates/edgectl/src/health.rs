//! Runtime health: per-cluster circuit breakers and zone-outage tracking.
//!
//! PR 2 made the *deployment* pipeline fault-tolerant; this module covers
//! the runtime side. Once instances are `Ready` they can still die — a
//! crashed container, a node loss, a whole zone going dark — and the
//! control plane must (a) stop redirecting clients at the corpse and
//! (b) stop *scheduling* onto a zone that keeps failing. The first job is
//! the controller's repair loop (see `controller::health_check`); the
//! second is the [`HealthMonitor`] here: one circuit breaker per cluster,
//! consulted by the Dispatcher before any cluster is offered to the Global
//! Scheduler.
//!
//! The breaker is the classic three-state machine:
//!
//! ```text
//!            K consecutive failures
//!   Closed ──────────────────────────▶ Open
//!      ▲                                │ cooldown elapses
//!      │ success                        ▼
//!      └───────────────────────────  HalfOpen
//!                 failure: back to Open (fresh cooldown)
//! ```
//!
//! A zone outage is tracked separately from the breaker: an outaged
//! cluster is unavailable *by declaration* (the harness knows the zone is
//! dark) rather than by inference, and becomes schedulable again the
//! instant the outage window ends.

use desim::{Duration, SimTime};

/// Tunables for the health monitor — the `health:` YAML block.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HealthConfig {
    /// How often the controller sweeps instance liveness (the failure
    /// *detection* interval: a crash surfaces at the next sweep tick).
    pub detect_interval: Duration,
    /// Consecutive failures that trip a cluster's breaker Open.
    pub breaker_threshold: u32,
    /// How long an Open breaker blocks its cluster before allowing a
    /// half-open probe.
    pub breaker_cooldown: Duration,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            detect_interval: Duration::from_millis(500),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(10),
        }
    }
}

/// Circuit-breaker state for one cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; failures are being counted.
    Closed,
    /// Tripped: the cluster is not offered to the scheduler until the
    /// cooldown elapses.
    Open,
    /// Cooldown elapsed: one probe deployment is allowed through; its
    /// outcome decides between Closed and Open.
    HalfOpen,
}

impl BreakerState {
    /// Gauge encoding for telemetry: Closed = 0, HalfOpen = 1, Open = 2.
    pub fn gauge(self) -> f64 {
        match self {
            BreakerState::Closed => 0.0,
            BreakerState::HalfOpen => 1.0,
            BreakerState::Open => 2.0,
        }
    }

    /// Short lowercase label for trace events.
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::HalfOpen => "half-open",
            BreakerState::Open => "open",
        }
    }
}

/// One health-state mutation, as appended to the controller's write-ahead
/// journal (see [`crate::journal`]). Replaying the stream on a fresh
/// monitor reproduces every breaker and outage window exactly.
#[derive(Clone, Copy, Debug)]
pub enum HealthOp {
    /// A failure was recorded against `cluster` at `at`.
    Failure {
        /// The failing cluster.
        cluster: usize,
        /// When (fixes the Open cooldown deadline on replay).
        at: SimTime,
    },
    /// A success was recorded (breaker closed, streak reset).
    Success {
        /// The recovering cluster.
        cluster: usize,
    },
    /// An Open breaker's cooldown elapsed inside
    /// [`HealthMonitor::available`] and it moved to HalfOpen.
    HalfOpen {
        /// The probing cluster.
        cluster: usize,
    },
    /// A zone outage was declared until `until`.
    OutageBegin {
        /// The dark cluster.
        cluster: usize,
        /// Declared end of the window.
        until: SimTime,
    },
    /// A declared outage was cleared early.
    OutageEnd {
        /// The recovered cluster.
        cluster: usize,
    },
}

/// Plain-data snapshot of one breaker — the journal's snapshot encoding of
/// [`HealthMonitor`] state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakerSnapshot {
    /// Current state.
    pub state: BreakerState,
    /// Consecutive-failure streak.
    pub consecutive_failures: u32,
    /// Cooldown deadline (meaningful while Open).
    pub open_until: SimTime,
}

#[derive(Clone, Copy, Debug)]
struct Breaker {
    state: BreakerState,
    consecutive_failures: u32,
    open_until: SimTime,
}

impl Breaker {
    fn new() -> Breaker {
        Breaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            open_until: SimTime::ZERO,
        }
    }
}

/// Per-cluster circuit breakers plus declared zone-outage windows. Part of
/// the controller's recoverable state; the Dispatcher borrows it for every
/// dispatch (it gates scheduling), the controller to declare outages and report
/// runtime crashes.
pub struct HealthMonitor {
    config: HealthConfig,
    breakers: Vec<Breaker>,
    /// Declared outage end per cluster (`None` = zone up).
    outages: Vec<Option<SimTime>>,
    /// Mutation log drained by the controller's journal; `None` (the
    /// default) keeps the breaker hot path free of logging work.
    log: Option<Vec<HealthOp>>,
}

impl HealthMonitor {
    /// Creates a monitor; breaker slots grow on demand as cluster indices
    /// are first seen.
    pub fn new(config: HealthConfig) -> HealthMonitor {
        HealthMonitor {
            config,
            breakers: Vec::new(),
            outages: Vec::new(),
            log: None,
        }
    }

    /// Turns mutation logging on or off (off discards undrained ops).
    pub fn set_logging(&mut self, on: bool) {
        self.log = if on { Some(Vec::new()) } else { None };
    }

    /// Drains the ops accumulated since the last drain. Empty when logging
    /// is off.
    pub fn take_ops(&mut self) -> Vec<HealthOp> {
        self.log.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Breakers and outage windows as plain data — the snapshot export.
    pub fn export_state(&self) -> (Vec<BreakerSnapshot>, Vec<Option<SimTime>>) {
        let breakers = self
            .breakers
            .iter()
            .map(|b| BreakerSnapshot {
                state: b.state,
                consecutive_failures: b.consecutive_failures,
                open_until: b.open_until,
            })
            .collect();
        (breakers, self.outages.clone())
    }

    /// Restores a snapshot taken by [`export_state`](Self::export_state).
    pub fn restore_state(&mut self, breakers: &[BreakerSnapshot], outages: &[Option<SimTime>]) {
        self.breakers = breakers
            .iter()
            .map(|s| Breaker {
                state: s.state,
                consecutive_failures: s.consecutive_failures,
                open_until: s.open_until,
            })
            .collect();
        self.outages = outages.to_vec();
    }

    /// Applies one logged mutation — the journal replay primitive. Call on
    /// a non-logging instance, or the replayed ops are re-logged.
    pub fn apply(&mut self, op: &HealthOp) {
        match *op {
            HealthOp::Failure { cluster, at } => self.record_failure(cluster, at),
            HealthOp::Success { cluster } => self.record_success(cluster),
            HealthOp::HalfOpen { cluster } => {
                self.grow(cluster);
                self.breakers[cluster].state = BreakerState::HalfOpen;
            }
            HealthOp::OutageBegin { cluster, until } => self.begin_outage(cluster, until),
            HealthOp::OutageEnd { cluster } => self.end_outage(cluster),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> HealthConfig {
        self.config
    }

    /// Replaces the configuration (applied to future decisions; existing
    /// breaker state is kept).
    pub fn set_config(&mut self, config: HealthConfig) {
        self.config = config;
    }

    fn grow(&mut self, cluster: usize) {
        if self.breakers.len() <= cluster {
            self.breakers.resize_with(cluster + 1, Breaker::new);
            self.outages.resize(cluster + 1, None);
        }
    }

    /// Records a failure against `cluster` (an exhausted deployment or a
    /// detected runtime crash). The K-th consecutive failure — or any
    /// failure during a half-open probe — trips the breaker Open.
    pub fn record_failure(&mut self, cluster: usize, now: SimTime) {
        self.grow(cluster);
        let threshold = self.config.breaker_threshold;
        let cooldown = self.config.breaker_cooldown;
        let b = &mut self.breakers[cluster];
        b.consecutive_failures += 1;
        if b.state == BreakerState::HalfOpen || b.consecutive_failures >= threshold {
            b.state = BreakerState::Open;
            b.open_until = now + cooldown;
        }
        if let Some(log) = &mut self.log {
            log.push(HealthOp::Failure { cluster, at: now });
        }
    }

    /// Records a success (a deployment reached Ready): closes the breaker
    /// and resets the failure streak.
    pub fn record_success(&mut self, cluster: usize) {
        self.grow(cluster);
        let b = &mut self.breakers[cluster];
        b.state = BreakerState::Closed;
        b.consecutive_failures = 0;
        if let Some(log) = &mut self.log {
            log.push(HealthOp::Success { cluster });
        }
    }

    /// Whether `cluster` may be offered to the scheduler at `now`. An Open
    /// breaker whose cooldown has elapsed transitions to HalfOpen here (the
    /// caller's next deployment is the probe). Outaged zones are never
    /// available.
    pub fn available(&mut self, cluster: usize, now: SimTime) -> bool {
        self.grow(cluster);
        if self.in_outage(cluster, now) {
            return false;
        }
        let b = &mut self.breakers[cluster];
        match b.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if now >= b.open_until {
                    b.state = BreakerState::HalfOpen;
                    if let Some(log) = &mut self.log {
                        log.push(HealthOp::HalfOpen { cluster });
                    }
                    true
                } else {
                    false
                }
            }
        }
    }

    /// The breaker state of `cluster`, without side effects.
    pub fn breaker_state(&self, cluster: usize) -> BreakerState {
        self.breakers
            .get(cluster)
            .map_or(BreakerState::Closed, |b| b.state)
    }

    /// Declares `cluster` dark until `until` (a zone outage).
    pub fn begin_outage(&mut self, cluster: usize, until: SimTime) {
        self.grow(cluster);
        self.outages[cluster] = Some(until);
        if let Some(log) = &mut self.log {
            log.push(HealthOp::OutageBegin { cluster, until });
        }
    }

    /// Clears a declared outage (the zone returned).
    pub fn end_outage(&mut self, cluster: usize) {
        self.grow(cluster);
        self.outages[cluster] = None;
        if let Some(log) = &mut self.log {
            log.push(HealthOp::OutageEnd { cluster });
        }
    }

    /// `true` while a declared outage window covers `now`.
    pub fn in_outage(&self, cluster: usize, now: SimTime) -> bool {
        self.outages
            .get(cluster)
            .copied()
            .flatten()
            .is_some_and(|until| now < until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor() -> HealthMonitor {
        HealthMonitor::new(HealthConfig::default())
    }

    #[test]
    fn breaker_trips_after_threshold_consecutive_failures() {
        let mut h = monitor();
        let t = SimTime::from_secs(1);
        assert!(h.available(0, t));
        h.record_failure(0, t);
        h.record_failure(0, t);
        assert!(h.available(0, t), "below threshold: still closed");
        assert_eq!(h.breaker_state(0), BreakerState::Closed);
        h.record_failure(0, t);
        assert_eq!(h.breaker_state(0), BreakerState::Open);
        assert!(!h.available(0, t), "tripped: blocked");
        // The neighbouring cluster is unaffected.
        assert!(h.available(1, t));
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let mut h = monitor();
        let t = SimTime::from_secs(1);
        h.record_failure(0, t);
        h.record_failure(0, t);
        h.record_success(0);
        h.record_failure(0, t);
        h.record_failure(0, t);
        assert_eq!(h.breaker_state(0), BreakerState::Closed, "streak was reset");
    }

    #[test]
    fn half_open_probe_after_cooldown_then_close_or_reopen() {
        let mut h = monitor();
        let t = SimTime::from_secs(1);
        for _ in 0..3 {
            h.record_failure(0, t);
        }
        assert!(!h.available(0, t + Duration::from_secs(9)));
        // Cooldown elapsed: one probe allowed, state HalfOpen.
        let probe_at = t + Duration::from_secs(10);
        assert!(h.available(0, probe_at));
        assert_eq!(h.breaker_state(0), BreakerState::HalfOpen);
        // A failing probe re-opens with a fresh cooldown.
        h.record_failure(0, probe_at);
        assert_eq!(h.breaker_state(0), BreakerState::Open);
        assert!(!h.available(0, probe_at + Duration::from_secs(9)));
        // The next probe succeeds: closed again.
        let again = probe_at + Duration::from_secs(10);
        assert!(h.available(0, again));
        h.record_success(0);
        assert_eq!(h.breaker_state(0), BreakerState::Closed);
        assert!(h.available(0, again));
    }

    #[test]
    fn outage_blocks_regardless_of_breaker_and_clears() {
        let mut h = monitor();
        let t = SimTime::from_secs(5);
        h.begin_outage(2, t + Duration::from_secs(30));
        assert!(h.in_outage(2, t));
        assert!(!h.available(2, t));
        assert_eq!(h.breaker_state(2), BreakerState::Closed, "outage is not a breaker trip");
        // The window passing (or an explicit end) restores availability.
        assert!(!h.in_outage(2, t + Duration::from_secs(30)));
        assert!(h.available(2, t + Duration::from_secs(30)));
        h.begin_outage(2, t + Duration::from_secs(60));
        h.end_outage(2);
        assert!(h.available(2, t + Duration::from_secs(1)));
    }

    #[test]
    fn gauge_and_label_encodings() {
        assert_eq!(BreakerState::Closed.gauge(), 0.0);
        assert_eq!(BreakerState::HalfOpen.gauge(), 1.0);
        assert_eq!(BreakerState::Open.gauge(), 2.0);
        assert_eq!(BreakerState::Closed.label(), "closed");
        assert_eq!(BreakerState::HalfOpen.label(), "half-open");
        assert_eq!(BreakerState::Open.label(), "open");
    }
}
