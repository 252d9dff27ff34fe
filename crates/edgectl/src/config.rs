//! Controller configuration files.
//!
//! The reference controller reads its configuration — which Global Scheduler
//! to load dynamically, the per-cluster Local Scheduler, the timeouts — from
//! a file. [`EdgeConfig`] is that file, in the same YAML dialect as the
//! service definitions:
//!
//! ```yaml
//! scheduler: proximity
//! predictor: none
//! flowIdleTimeout: 10        # seconds, installed into switch flows
//! memoryIdleTimeout: 60      # seconds, FlowMemory / scale-down trigger
//! removeAfter: 600           # seconds from scale-down to full removal
//! pollIntervalMs: 25         # readiness port-probe interval
//! scaleDownIdle: true
//! aggregateRules: false      # fleet-scale wildcard rule aggregation
//! recordRequests: true       # per-request records for the harness
//! retry:                     # deployment retry/backoff policy
//!   maxAttempts: 3           # total attempts per phase
//!   baseMs: 250
//!   multiplier: 2.0
//!   capMs: 5000
//!   jitter: 0.25
//!   phaseDeadline: 30        # seconds
//! faults:                    # chaos testing (all rates default to 0)
//!   seed: 7
//!   pullFailure: 0.1
//!   createFailure: 0.1
//!   startFailure: 0.1
//!   crashAfterStart: 0.05
//!   scaleUpRejection: 0.1
//!   probeFlap: 0.1
//!   crashWhileServing: 0.05  # runtime faults: post-Ready instance crash,
//!   zoneOutage: 0.02         # whole-zone outage window,
//!   channelLoss: 0.02        # control-channel drop + reconnect
//!   zoneOutageWindowMs: 30000
//!   channelReconnectDelayMs: 5000
//! health:                    # runtime failure detection / circuit breaker
//!   detectIntervalMs: 500
//!   breakerThreshold: 3
//!   breakerCooldownMs: 10000
//! autoscale:                 # horizontal autoscaling (off by default)
//!   enabled: true
//!   minReplicas: 1
//!   maxReplicas: 4
//!   scaleUpUtilization: 0.8  # mean pool utilization that triggers +1
//!   scaleDownUtilization: 0.2
//!   scaleUpBacklog: 4        # queued requests that trigger +1 regardless
//!   cooldownMs: 5000         # minimum gap between scalings of one pool
//!   sweepIntervalMs: 1000
//!   serviceTimeMs: 20        # deterministic per-request service time
//!   concurrency: 4           # in-flight slots per replica
//!   backlog: 8               # queue depth beyond which requests reject
//! migration:                 # live zone-to-zone migration (off by default)
//!   policy: live             # anchored | redispatch | live
//!   stateBytesPerRequest: 4096
//!   transferPropagationMs: 2 # metro-link one-way propagation
//!   transferBandwidthMbps: 10000
//!   maxConcurrent: 2         # simultaneous in-flight migrations
//!   mobilityHops: 1          # clusters-closer threshold for the trigger
//! journal:                   # crash-recovery write-ahead journal (off by default)
//!   enabled: true
//!   snapshotEvery: 256       # tail events between compacted snapshots
//! clusters:
//!   - name: egs-docker
//!     kind: docker
//!   - name: egs-k8s
//!     kind: k8s
//!     localScheduler: edge-pack-scheduler
//! ```

use crate::controller::ControllerConfig;
use crate::migrate::MigrationPolicy;
use desim::{Duration, FaultPlan};
use yamlite::Value;

/// A cluster declaration in the configuration file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterDecl {
    /// Cluster name.
    pub name: String,
    /// `"docker"` or `"k8s"`.
    pub kind: String,
    /// Optional Local Scheduler (Kubernetes `schedulerName`).
    pub local_scheduler: Option<String>,
}

/// Parsed controller configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct EdgeConfig {
    /// Global Scheduler name (see [`crate::scheduler_by_name`]).
    pub scheduler: String,
    /// Predictor name (see [`crate::predictor_by_name`]).
    pub predictor: String,
    /// Controller timing/behaviour knobs.
    pub controller: ControllerConfig,
    /// Fault-injection plan for chaos testing (all rates 0 = disabled).
    pub faults: FaultPlan,
    /// Declared clusters.
    pub clusters: Vec<ClusterDecl>,
}

impl Default for EdgeConfig {
    fn default() -> Self {
        EdgeConfig {
            scheduler: "proximity".to_owned(),
            predictor: "none".to_owned(),
            controller: ControllerConfig::default(),
            faults: FaultPlan::default(),
            clusters: Vec::new(),
        }
    }
}

/// Errors from loading a configuration.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// YAML syntax error.
    Yaml(yamlite::ParseError),
    /// A field had the wrong type or an invalid value.
    Invalid(String),
    /// The named scheduler/predictor is not known.
    Unknown(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Yaml(e) => write!(f, "{e}"),
            ConfigError::Invalid(m) => write!(f, "invalid config: {m}"),
            ConfigError::Unknown(m) => write!(f, "unknown component: {m}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<yamlite::ParseError> for ConfigError {
    fn from(e: yamlite::ParseError) -> Self {
        ConfigError::Yaml(e)
    }
}

/// What a reader returns: `Err` refuses the value.
type Checked = Result<(), ConfigError>;

/// One mapping of the file and the typed readers of its fields. A reader
/// leaves its slot alone when the key is absent and returns
/// [`ConfigError::Invalid`], naming the dotted key, for a value of the wrong
/// type, out of range, or too large for the slot.
struct Block<'a> {
    map: &'a Value,
    /// Dotted path of the mapping (`""` for the document itself).
    path: &'a str,
}

impl<'a> Block<'a> {
    /// `value` as a block: `None` if absent, an error unless a mapping.
    fn of(value: &'a Value, path: &'a str) -> Result<Option<Block<'a>>, ConfigError> {
        match value {
            Value::Null => Ok(None),
            Value::Map(_) => Ok(Some(Block { map: value, path })),
            _ => {
                let name = if path.is_empty() { "config" } else { path };
                Err(ConfigError::Invalid(format!("{name} must be a mapping")))
            }
        }
    }

    /// The nested block at `key` (only the document has any).
    fn mapping(&self, key: &'a str) -> Result<Option<Block<'a>>, ConfigError> {
        Block::of(&self.map[key], key)
    }

    fn invalid(&self, key: &str, what: &str) -> ConfigError {
        let (path, got) = (self.path, &self.map[key]);
        let dot = if path.is_empty() { "" } else { "." };
        ConfigError::Invalid(format!("{path}{dot}{key}: expected {what}, got {got:?}"))
    }

    /// Stores the value at `key` as `read` accepts it; `what` says what that is.
    fn read<T>(
        &self,
        key: &str,
        what: &str,
        slot: &mut T,
        read: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Checked {
        match &self.map[key] {
            Value::Null => {}
            value => *slot = read(value).ok_or_else(|| self.invalid(key, what))?,
        }
        Ok(())
    }

    /// A span in units of which `per_sec` make a second: an integer — or,
    /// where `fractional`, any number — that is `positive` or at least zero
    /// and fits a [`Duration`].
    fn span<T: From<Duration>>(
        &self,
        key: &str,
        (per_sec, positive, fractional): (u64, bool, bool),
        slot: &mut T,
    ) -> Checked {
        let sign = if positive { "positive" } else { "non-negative" };
        let kind = if fractional { "number" } else { "integer" };
        let what = format!("a {sign} {kind} that fits 64-bit nanoseconds");
        self.read(key, &what, slot, |v| {
            let span = match *v {
                Value::Int(n) if n >= positive as i64 => {
                    let units = u64::try_from(n).ok()?;
                    Duration::from_nanos(units.checked_mul(1_000_000_000 / per_sec)?)
                }
                Value::Float(f) if fractional && f >= 0.0 && !(positive && f == 0.0) => {
                    let secs = f / per_sec as f64;
                    (secs * 1e9 < u64::MAX as f64).then(|| Duration::from_secs_f64(secs))?
                }
                _ => return None,
            };
            Some(span.into())
        })
    }

    fn secs<T: From<Duration>>(&self, key: &str, slot: &mut T) -> Checked {
        self.span(key, (1, false, true), slot)
    }

    fn millis(&self, key: &str, slot: &mut Duration) -> Checked {
        self.span(key, (1000, false, false), slot)
    }

    fn positive_millis(&self, key: &str, slot: &mut Duration) -> Checked {
        self.span(key, (1000, true, false), slot)
    }

    fn fraction(&self, key: &str, slot: &mut f64) -> Checked {
        let unit = |v: &Value| v.as_f64().filter(|p| (0.0..=1.0).contains(p));
        self.read(key, "a number in [0, 1]", slot, unit)
    }

    fn number_at_least(&self, key: &str, min: f64, slot: &mut f64) -> Checked {
        let what = format!("a number >= {min}");
        self.read(key, &what, slot, |v| v.as_f64().filter(|&n| n >= min))
    }

    fn int_at_least<T: TryFrom<i64>>(&self, key: &str, min: i64, slot: &mut T) -> Checked {
        let what = format!("an integer >= {min} that fits the field");
        let fits = |v: &Value| T::try_from(v.as_i64().filter(|&n| n >= min)?).ok();
        self.read(key, &what, slot, fits)
    }

    fn flag(&self, key: &str, slot: &mut bool) -> Checked {
        self.read(key, "true or false", slot, Value::as_bool)
    }

    fn text(&self, key: &str, slot: &mut String) -> Checked {
        self.read(key, "a string", slot, |v| v.as_str().map(str::to_owned))
    }
}

impl EdgeConfig {
    /// Parses a configuration file. Missing keys fall back to the defaults;
    /// unknown scheduler/predictor names are rejected eagerly (the reference
    /// controller fails at dynamic-load time — we fail at parse time).
    pub fn from_yaml(text: &str) -> Result<EdgeConfig, ConfigError> {
        let doc = yamlite::parse_str(text)?;
        let mut cfg = EdgeConfig::default();
        let Some(doc) = Block::of(&doc, "")? else {
            return Ok(cfg);
        };

        doc.text("scheduler", &mut cfg.scheduler)?;
        doc.text("predictor", &mut cfg.predictor)?;
        // The typed errors carry the known-name list; surface it whole.
        crate::scheduler_by_name(&cfg.scheduler)
            .map_err(|e| ConfigError::Unknown(e.to_string()))?;
        crate::predictor_by_name(&cfg.predictor)
            .map_err(|e| ConfigError::Unknown(e.to_string()))?;

        let c = &mut cfg.controller;
        doc.secs("flowIdleTimeout", &mut c.switch_flow_idle)?;
        doc.secs("memoryIdleTimeout", &mut c.memory_idle)?;
        doc.secs("removeAfter", &mut c.remove_after)?;
        doc.positive_millis("pollIntervalMs", &mut c.poll_interval)?;
        doc.flag("scaleDownIdle", &mut c.scale_down_idle)?;
        doc.flag("aggregateRules", &mut c.aggregate_rules)?;
        doc.flag("recordRequests", &mut c.record_requests)?;

        if let Some(retry) = doc.mapping("retry")? {
            let r = &mut c.retry;
            retry.int_at_least("maxAttempts", 1, &mut r.max_attempts)?;
            retry.millis("baseMs", &mut r.base)?;
            retry.millis("capMs", &mut r.cap)?;
            retry.number_at_least("multiplier", 1.0, &mut r.multiplier)?;
            retry.fraction("jitter", &mut r.jitter)?;
            retry.secs("phaseDeadline", &mut r.phase_deadline)?;
        }

        if let Some(faults) = doc.mapping("faults")? {
            let f = &mut cfg.faults;
            faults.int_at_least("seed", 0, &mut f.seed)?;
            faults.fraction("pullFailure", &mut f.pull_failure)?;
            faults.fraction("pullSlowdown", &mut f.pull_slowdown)?;
            faults.fraction("createFailure", &mut f.create_failure)?;
            faults.fraction("startFailure", &mut f.start_failure)?;
            faults.fraction("crashAfterStart", &mut f.crash_after_start)?;
            faults.fraction("scaleUpRejection", &mut f.scale_up_rejection)?;
            faults.fraction("probeFlap", &mut f.probe_flap)?;
            faults.fraction("crashWhileServing", &mut f.crash_while_serving)?;
            faults.fraction("zoneOutage", &mut f.zone_outage)?;
            faults.fraction("channelLoss", &mut f.channel_loss)?;
            faults.number_at_least("pullSlowdownFactor", 1.0, &mut f.pull_slowdown_factor)?;
            faults.millis("probeFlapDelayMs", &mut f.probe_flap_delay)?;
            faults.millis("zoneOutageWindowMs", &mut f.zone_outage_window)?;
            faults.millis("channelReconnectDelayMs", &mut f.channel_reconnect_delay)?;
        }

        if let Some(health) = doc.mapping("health")? {
            let h = &mut c.health;
            health.positive_millis("detectIntervalMs", &mut h.detect_interval)?;
            health.int_at_least("breakerThreshold", 1, &mut h.breaker_threshold)?;
            health.positive_millis("breakerCooldownMs", &mut h.breaker_cooldown)?;
        }

        if let Some(autoscale) = doc.mapping("autoscale")? {
            let a = &mut c.autoscale;
            autoscale.flag("enabled", &mut a.enabled)?;
            autoscale.int_at_least("minReplicas", 1, &mut a.min_replicas)?;
            autoscale.int_at_least("maxReplicas", 1, &mut a.max_replicas)?;
            if a.max_replicas < a.min_replicas {
                return Err(ConfigError::Invalid(format!(
                    "autoscale.maxReplicas ({}) must be >= minReplicas ({})",
                    a.max_replicas, a.min_replicas
                )));
            }
            autoscale.fraction("scaleUpUtilization", &mut a.scale_up_utilization)?;
            autoscale.fraction("scaleDownUtilization", &mut a.scale_down_utilization)?;
            if a.scale_down_utilization >= a.scale_up_utilization {
                return Err(ConfigError::Invalid(format!(
                    "autoscale.scaleDownUtilization ({}) must be below \
                     scaleUpUtilization ({}) — the hysteresis band must not collapse",
                    a.scale_down_utilization, a.scale_up_utilization
                )));
            }
            autoscale.int_at_least("scaleUpBacklog", 1, &mut a.scale_up_backlog)?;
            autoscale.millis("cooldownMs", &mut a.cooldown)?;
            autoscale.positive_millis("sweepIntervalMs", &mut a.sweep_interval)?;
            let service_time = &mut a.queue.service_time;
            autoscale.span("serviceTimeMs", (1000, true, true), service_time)?;
            autoscale.int_at_least("concurrency", 1, &mut a.queue.concurrency)?;
            autoscale.int_at_least("backlog", 0, &mut a.queue.backlog)?;
        }

        if let Some(migration) = doc.mapping("migration")? {
            let m = &mut c.migration;
            use MigrationPolicy::{Anchored, Live, Redispatch};
            migration.read("policy", "anchored|redispatch|live", &mut m.policy, |v| {
                let mut known = [Anchored, Redispatch, Live].into_iter();
                known.find(|p| Some(p.label()) == v.as_str())
            })?;
            migration.int_at_least("stateBytesPerRequest", 0, &mut m.state_bytes_per_request)?;
            migration.millis("transferPropagationMs", &mut m.transfer_propagation)?;
            let what = "an integer >= 1 whose bit/s fit 64 bits";
            let rate = &mut m.transfer_bandwidth_bps;
            migration.read("transferBandwidthMbps", what, rate, |v| {
                let mbps = u64::try_from(v.as_i64()?).ok()?;
                mbps.checked_mul(1_000_000).filter(|&bps| bps > 0)
            })?;
            migration.int_at_least("maxConcurrent", 1, &mut m.max_concurrent)?;
            migration.int_at_least("mobilityHops", 1, &mut m.mobility_hops)?;
        }

        if let Some(journal) = doc.mapping("journal")? {
            journal.flag("enabled", &mut c.journal.enabled)?;
            journal.int_at_least("snapshotEvery", 1, &mut c.journal.snapshot_every)?;
        }

        let clusters = doc.map["clusters"].as_seq().unwrap_or_default();
        for (i, c) in clusters.iter().enumerate() {
            let field = |key: &str| {
                let missing = || ConfigError::Invalid(format!("clusters[{i}]: missing {key}"));
                c[key].as_str().ok_or_else(missing)
            };
            let (name, kind) = (field("name")?, field("kind")?);
            if kind != "docker" && kind != "k8s" {
                return Err(ConfigError::Invalid(format!(
                    "clusters[{i}]: kind must be docker|k8s, got `{kind}`"
                )));
            }
            cfg.clusters.push(ClusterDecl {
                name: name.to_owned(),
                kind: kind.to_owned(),
                local_scheduler: c["localScheduler"].as_str().map(str::to_owned),
            });
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_config_is_defaults() {
        let cfg = EdgeConfig::from_yaml("").unwrap();
        assert_eq!(cfg, EdgeConfig::default());
        assert_eq!(cfg.scheduler, "proximity");
        assert_eq!(cfg.controller.memory_idle, Duration::from_secs(60));
    }

    #[test]
    fn full_config_parses() {
        let cfg = EdgeConfig::from_yaml(
            "
scheduler: latency-aware
predictor: recency
flowIdleTimeout: 5
memoryIdleTimeout: 120
removeAfter: 900
pollIntervalMs: 10
scaleDownIdle: false
clusters:
  - name: egs-docker
    kind: docker
  - name: egs-k8s
    kind: k8s
    localScheduler: edge-pack-scheduler
",
        )
        .unwrap();
        assert_eq!(cfg.scheduler, "latency-aware");
        assert_eq!(cfg.predictor, "recency");
        assert_eq!(cfg.controller.switch_flow_idle, Duration::from_secs(5));
        assert_eq!(cfg.controller.memory_idle, Duration::from_secs(120));
        assert_eq!(cfg.controller.remove_after, Some(Duration::from_secs(900)));
        assert_eq!(cfg.controller.poll_interval, Duration::from_millis(10));
        assert!(!cfg.controller.scale_down_idle);
        assert_eq!(cfg.clusters.len(), 2);
        assert_eq!(cfg.clusters[1].local_scheduler.as_deref(), Some("edge-pack-scheduler"));
    }

    #[test]
    fn retry_and_faults_blocks_parse() {
        let cfg = EdgeConfig::from_yaml(
            "
retry:
  maxAttempts: 5
  baseMs: 100
  multiplier: 1.5
  capMs: 2000
  jitter: 0.1
  phaseDeadline: 12
faults:
  seed: 42
  pullFailure: 0.2
  createFailure: 0.1
  startFailure: 0.05
  crashAfterStart: 0.01
  scaleUpRejection: 0.3
  probeFlap: 0.15
  pullSlowdownFactor: 4.0
  probeFlapDelayMs: 750
  crashWhileServing: 0.05
  zoneOutage: 0.02
  channelLoss: 0.03
  zoneOutageWindowMs: 45000
  channelReconnectDelayMs: 2500
health:
  detectIntervalMs: 250
  breakerThreshold: 5
  breakerCooldownMs: 30000
",
        )
        .unwrap();
        assert_eq!(cfg.controller.retry.max_attempts, 5);
        assert_eq!(cfg.controller.retry.base, Duration::from_millis(100));
        assert_eq!(cfg.controller.retry.multiplier, 1.5);
        assert_eq!(cfg.controller.retry.cap, Duration::from_secs(2));
        assert_eq!(cfg.controller.retry.jitter, 0.1);
        assert_eq!(cfg.controller.retry.phase_deadline, Duration::from_secs(12));
        assert_eq!(cfg.faults.seed, 42);
        assert_eq!(cfg.faults.pull_failure, 0.2);
        assert_eq!(cfg.faults.create_failure, 0.1);
        assert_eq!(cfg.faults.start_failure, 0.05);
        assert_eq!(cfg.faults.crash_after_start, 0.01);
        assert_eq!(cfg.faults.scale_up_rejection, 0.3);
        assert_eq!(cfg.faults.probe_flap, 0.15);
        assert_eq!(cfg.faults.pull_slowdown_factor, 4.0);
        assert_eq!(cfg.faults.probe_flap_delay, Duration::from_millis(750));
        assert_eq!(cfg.faults.crash_while_serving, 0.05);
        assert_eq!(cfg.faults.zone_outage, 0.02);
        assert_eq!(cfg.faults.channel_loss, 0.03);
        assert_eq!(cfg.faults.zone_outage_window, Duration::from_secs(45));
        assert_eq!(cfg.faults.channel_reconnect_delay, Duration::from_millis(2500));
        assert!(cfg.faults.enabled());
        assert!(cfg.faults.runtime_enabled());
        assert_eq!(cfg.controller.health.detect_interval, Duration::from_millis(250));
        assert_eq!(cfg.controller.health.breaker_threshold, 5);
        assert_eq!(cfg.controller.health.breaker_cooldown, Duration::from_secs(30));
    }

    #[test]
    fn missing_retry_and_faults_keep_defaults() {
        let cfg = EdgeConfig::from_yaml("scheduler: proximity").unwrap();
        assert_eq!(cfg.controller.retry, desim::RetryPolicy::default());
        assert_eq!(cfg.faults, FaultPlan::default());
        assert!(!cfg.faults.enabled());
    }

    #[test]
    fn invalid_retry_and_fault_values_rejected() {
        assert!(EdgeConfig::from_yaml("retry:\n  maxAttempts: 0").is_err());
        assert!(EdgeConfig::from_yaml("retry:\n  multiplier: 0.5").is_err());
        assert!(EdgeConfig::from_yaml("retry:\n  baseMs: -10").is_err());
        assert!(EdgeConfig::from_yaml("retry: fast").is_err());
        assert!(EdgeConfig::from_yaml("faults:\n  pullFailure: 1.5").is_err());
        assert!(EdgeConfig::from_yaml("faults:\n  createFailure: -0.1").is_err());
        assert!(EdgeConfig::from_yaml("faults:\n  seed: -1").is_err());
        assert!(EdgeConfig::from_yaml("faults: chaos").is_err());
    }

    #[test]
    fn invalid_runtime_fault_and_health_values_rejected() {
        // Probabilities outside [0, 1] are typed errors, not clamps.
        for bad in [
            "faults:\n  crashWhileServing: 1.5",
            "faults:\n  zoneOutage: -0.2",
            "faults:\n  channelLoss: 2",
            "faults:\n  zoneOutageWindowMs: -5",
            "faults:\n  channelReconnectDelayMs: soon",
        ] {
            let err = EdgeConfig::from_yaml(bad).unwrap_err();
            assert!(matches!(err, ConfigError::Invalid(_)), "{bad}: {err}");
        }
        // A zero detection interval would mean a busy-looping health sweep;
        // a zero threshold would trip the breaker before any failure.
        for bad in [
            "health:\n  detectIntervalMs: 0",
            "health:\n  detectIntervalMs: -100",
            "health:\n  breakerThreshold: 0",
            "health:\n  breakerCooldownMs: 0",
            "health: robust",
        ] {
            let err = EdgeConfig::from_yaml(bad).unwrap_err();
            assert!(matches!(err, ConfigError::Invalid(_)), "{bad}: {err}");
        }
        // Error messages name the offending key.
        let err = EdgeConfig::from_yaml("health:\n  detectIntervalMs: 0").unwrap_err();
        assert!(err.to_string().contains("detectIntervalMs"), "{err}");
        let err = EdgeConfig::from_yaml("faults:\n  crashWhileServing: 1.5").unwrap_err();
        assert!(err.to_string().contains("crashWhileServing"), "{err}");
    }

    #[test]
    fn missing_health_block_keeps_defaults() {
        let cfg = EdgeConfig::from_yaml("scheduler: proximity").unwrap();
        assert_eq!(cfg.controller.health, crate::health::HealthConfig::default());
        assert!(!cfg.faults.runtime_enabled());
    }

    #[test]
    fn fractional_timeouts_accepted() {
        let cfg = EdgeConfig::from_yaml("memoryIdleTimeout: 2.5").unwrap();
        assert_eq!(cfg.controller.memory_idle, Duration::from_millis(2500));
    }

    #[test]
    fn unknown_scheduler_rejected() {
        let err = EdgeConfig::from_yaml("scheduler: quantum").unwrap_err();
        assert!(matches!(err, ConfigError::Unknown(_)), "{err}");
        // The message names the offender and lists every known scheduler.
        let msg = err.to_string();
        assert!(msg.contains("`quantum`"), "{msg}");
        for known in crate::scheduler::KNOWN_SCHEDULERS {
            assert!(msg.contains(known), "{msg} should list {known}");
        }
        // `predictive` was a name once; it is gone, and the eight that are
        // left are listed.
        let err = EdgeConfig::from_yaml("scheduler: predictive").unwrap_err();
        assert_eq!(crate::scheduler::KNOWN_SCHEDULERS.len(), 8);
        assert_eq!(
            err.to_string(),
            "unknown component: unknown scheduler `predictive` (known: proximity, latency-aware, round-robin, \
             cloud-only, docker-first, random, least-connections, latency-ewma)"
        );
        let err = EdgeConfig::from_yaml("predictor: psychic").unwrap_err();
        assert!(matches!(err, ConfigError::Unknown(_)));
    }

    #[test]
    fn invalid_values_rejected() {
        assert!(EdgeConfig::from_yaml("pollIntervalMs: 0").is_err());
        assert!(EdgeConfig::from_yaml("pollIntervalMs: fast").is_err());
        assert!(EdgeConfig::from_yaml("flowIdleTimeout: -3").is_err());
        assert!(EdgeConfig::from_yaml("- a\n- b").is_err());
        assert!(EdgeConfig::from_yaml("clusters:\n  - kind: docker").is_err());
        assert!(EdgeConfig::from_yaml("clusters:\n  - name: x\n    kind: vm").is_err());
    }

    /// Values that do not fit what they are read into are refused — they
    /// used to overflow `Duration::from_secs` / `from_millis` and the Mbps →
    /// bit/s product (a panic in a debug build, a wrapped value in release).
    #[test]
    fn values_too_large_for_their_field_are_rejected_not_wrapped() {
        for (bad, key) in [
            ("flowIdleTimeout: 99999999999999", "flowIdleTimeout"),
            ("flowIdleTimeout: 1.0e30", "flowIdleTimeout"),
            ("pollIntervalMs: 99999999999999999", "pollIntervalMs"),
            ("migration:\n  transferBandwidthMbps: 99999999999999", "migration.transferBandwidthMbps"),
            ("retry:\n  maxAttempts: 4294967296", "retry.maxAttempts"),
        ] {
            let err = EdgeConfig::from_yaml(bad).unwrap_err();
            assert!(matches!(err, ConfigError::Invalid(_)), "{bad}: {err}");
            assert!(err.to_string().contains(key), "{bad}: {err}");
        }
        // The largest values that do fit parse exactly.
        let cfg = EdgeConfig::from_yaml(
            "flowIdleTimeout: 18446744073\nmigration:\n  transferBandwidthMbps: 18446744073709",
        )
        .unwrap();
        assert_eq!(cfg.controller.switch_flow_idle.as_nanos(), 18_446_744_073_000_000_000);
        assert_eq!(cfg.controller.migration.transfer_bandwidth_bps, 18_446_744_073_709_000_000);
        assert!(EdgeConfig::from_yaml("flowIdleTimeout: 18446744074").is_err());
    }

    /// A value of the wrong type is an error naming the key, for flags and
    /// names as for numbers — these two used to be skipped without a word.
    #[test]
    fn wrongly_typed_flags_and_names_are_rejected_not_skipped() {
        for (bad, key) in [
            ("scaleDownIdle: 3", "scaleDownIdle"),
            ("scheduler: 5", "scheduler"),
            ("autoscale:\n  enabled: maybe", "autoscale.enabled"),
        ] {
            let err = EdgeConfig::from_yaml(bad).unwrap_err();
            assert!(matches!(err, ConfigError::Invalid(_)), "{bad}: {err}");
            assert!(err.to_string().contains(key), "{bad}: {err}");
        }
    }

    #[test]
    fn yaml_errors_propagate() {
        assert!(matches!(
            EdgeConfig::from_yaml("scheduler: [unclosed"),
            Err(ConfigError::Yaml(_))
        ));
    }

    /// Sub-second and multi-hour `flowIdleTimeout` values parse exactly as
    /// written: the config layer carries the full `Duration`; only the wire
    /// encoding clamps (to `[1, 65535]` s — see `openflow::timeout_secs`).
    #[test]
    fn sub_second_and_multi_hour_flow_idle_parse() {
        let cfg = EdgeConfig::from_yaml("flowIdleTimeout: 0.5").unwrap();
        assert_eq!(cfg.controller.switch_flow_idle, Duration::from_millis(500));
        assert_eq!(openflow::timeout_secs(cfg.controller.switch_flow_idle), 1);

        let cfg = EdgeConfig::from_yaml("flowIdleTimeout: 72000").unwrap();
        assert_eq!(cfg.controller.switch_flow_idle, Duration::from_secs(72_000));
        assert_eq!(
            openflow::timeout_secs(cfg.controller.switch_flow_idle),
            u16::MAX,
            "20 h saturates instead of wrapping mod 65536"
        );

        // Boundary: exactly one second and exactly u16::MAX seconds survive
        // the wire encoding unclamped.
        assert_eq!(openflow::timeout_secs(Duration::from_secs(1)), 1);
        assert_eq!(openflow::timeout_secs(Duration::from_secs(65_535)), u16::MAX);
    }

    #[test]
    fn health_intervals_parse_across_magnitudes() {
        let cfg = EdgeConfig::from_yaml(
            "health:\n  detectIntervalMs: 250\n  breakerCooldownMs: 7200000\n",
        )
        .unwrap();
        assert_eq!(cfg.controller.health.detect_interval, Duration::from_millis(250));
        assert_eq!(cfg.controller.health.breaker_cooldown, Duration::from_secs(7200));
    }

    #[test]
    fn autoscale_block_parses() {
        let cfg = EdgeConfig::from_yaml(
            "
autoscale:
  enabled: true
  minReplicas: 2
  maxReplicas: 6
  scaleUpUtilization: 0.75
  scaleDownUtilization: 0.25
  scaleUpBacklog: 3
  cooldownMs: 2500
  sweepIntervalMs: 500
  serviceTimeMs: 15
  concurrency: 8
  backlog: 16
",
        )
        .unwrap();
        let a = &cfg.controller.autoscale;
        assert!(a.enabled);
        assert_eq!(a.min_replicas, 2);
        assert_eq!(a.max_replicas, 6);
        assert_eq!(a.scale_up_utilization, 0.75);
        assert_eq!(a.scale_down_utilization, 0.25);
        assert_eq!(a.scale_up_backlog, 3);
        assert_eq!(a.cooldown, Duration::from_millis(2500));
        assert_eq!(a.sweep_interval, Duration::from_millis(500));
        assert_eq!(a.queue.service_time, Duration::from_millis(15));
        assert_eq!(a.queue.concurrency, 8);
        assert_eq!(a.queue.backlog, 16);
    }

    #[test]
    fn autoscale_defaults_to_disabled() {
        let cfg = EdgeConfig::from_yaml("scheduler: proximity").unwrap();
        assert_eq!(cfg.controller.autoscale, crate::AutoscaleConfig::default());
        assert!(!cfg.controller.autoscale.enabled);
        // Partial blocks inherit every unset knob from the defaults.
        let cfg = EdgeConfig::from_yaml("autoscale:\n  maxReplicas: 8").unwrap();
        assert!(!cfg.controller.autoscale.enabled);
        assert_eq!(cfg.controller.autoscale.max_replicas, 8);
        assert_eq!(cfg.controller.autoscale.min_replicas, 1);
    }

    #[test]
    fn invalid_autoscale_values_rejected() {
        for bad in [
            "autoscale: always",
            "autoscale:\n  minReplicas: 0",
            "autoscale:\n  maxReplicas: 0",
            "autoscale:\n  minReplicas: 4\n  maxReplicas: 2",
            "autoscale:\n  scaleUpUtilization: 1.5",
            "autoscale:\n  scaleDownUtilization: -0.1",
            "autoscale:\n  scaleUpUtilization: 0.3\n  scaleDownUtilization: 0.6",
            "autoscale:\n  scaleUpBacklog: 0",
            "autoscale:\n  cooldownMs: -1",
            "autoscale:\n  sweepIntervalMs: 0",
            "autoscale:\n  serviceTimeMs: 0",
            "autoscale:\n  concurrency: 0",
            "autoscale:\n  backlog: -1",
        ] {
            let err = EdgeConfig::from_yaml(bad).unwrap_err();
            assert!(matches!(err, ConfigError::Invalid(_)), "{bad}: {err}");
        }
        // The hysteresis-band error names both thresholds.
        let err = EdgeConfig::from_yaml(
            "autoscale:\n  scaleUpUtilization: 0.3\n  scaleDownUtilization: 0.6",
        )
        .unwrap_err();
        assert!(err.to_string().contains("hysteresis"), "{err}");
    }

    #[test]
    fn migration_block_parses() {
        let cfg = EdgeConfig::from_yaml(
            "
migration:
  policy: live
  stateBytesPerRequest: 4096
  transferPropagationMs: 5
  transferBandwidthMbps: 200
  maxConcurrent: 4
  mobilityHops: 2
",
        )
        .unwrap();
        let m = &cfg.controller.migration;
        assert_eq!(m.policy, MigrationPolicy::Live);
        assert!(m.live());
        assert_eq!(m.state_bytes_per_request, 4096);
        assert_eq!(m.transfer_propagation, Duration::from_millis(5));
        assert_eq!(m.transfer_bandwidth_bps, 200_000_000);
        assert_eq!(m.max_concurrent, 4);
        assert_eq!(m.mobility_hops, 2);
    }

    #[test]
    fn migration_defaults_to_off() {
        let cfg = EdgeConfig::from_yaml("scheduler: proximity").unwrap();
        assert_eq!(cfg.controller.migration, crate::MigrationConfig::default());
        assert!(!cfg.controller.migration.live());
        // Partial blocks inherit every unset knob from the defaults —
        // naming a state size does not switch the policy to live.
        let cfg = EdgeConfig::from_yaml("migration:\n  stateBytesPerRequest: 1024").unwrap();
        assert!(!cfg.controller.migration.live());
        assert_eq!(cfg.controller.migration.state_bytes_per_request, 1024);
    }

    #[test]
    fn invalid_migration_values_rejected() {
        for bad in [
            "migration: always",
            "migration:\n  policy: teleport",
            "migration:\n  policy: 3",
            "migration:\n  stateBytesPerRequest: -1",
            "migration:\n  transferPropagationMs: -1",
            "migration:\n  transferBandwidthMbps: 0",
            "migration:\n  maxConcurrent: 0",
            "migration:\n  mobilityHops: 0",
        ] {
            let err = EdgeConfig::from_yaml(bad).unwrap_err();
            assert!(matches!(err, ConfigError::Invalid(_)), "{bad}: {err}");
        }
    }

    #[test]
    fn journal_block_parses_and_defaults_to_off() {
        let cfg = EdgeConfig::from_yaml("journal:\n  enabled: true\n  snapshotEvery: 64\n").unwrap();
        assert!(cfg.controller.journal.enabled);
        assert_eq!(cfg.controller.journal.snapshot_every, 64);
        // Off by default — parsing a config without the block must leave
        // every journal hook a never-taken branch.
        let cfg = EdgeConfig::from_yaml("scheduler: proximity").unwrap();
        assert_eq!(cfg.controller.journal, crate::JournalConfig::default());
        assert!(!cfg.controller.journal.enabled);
        // Partial blocks inherit the unset knobs.
        let cfg = EdgeConfig::from_yaml("journal:\n  snapshotEvery: 16").unwrap();
        assert!(!cfg.controller.journal.enabled);
        assert_eq!(cfg.controller.journal.snapshot_every, 16);
        for bad in [
            "journal: durable",
            "journal:\n  snapshotEvery: 0",
            "journal:\n  snapshotEvery: -4",
            "journal:\n  snapshotEvery: often",
        ] {
            let err = EdgeConfig::from_yaml(bad).unwrap_err();
            assert!(matches!(err, ConfigError::Invalid(_)), "{bad}: {err}");
        }
    }

    #[test]
    fn fleet_flags_parse() {
        let cfg = EdgeConfig::from_yaml("aggregateRules: true\nrecordRequests: false").unwrap();
        assert!(cfg.controller.aggregate_rules);
        assert!(!cfg.controller.record_requests);
        // Defaults: exact rules, full records.
        let cfg = EdgeConfig::from_yaml("scheduler: proximity").unwrap();
        assert!(!cfg.controller.aggregate_rules);
        assert!(cfg.controller.record_requests);
    }
}
