//! Controller configuration files.
//!
//! The reference controller reads its configuration — which Global Scheduler
//! to load dynamically, the per-cluster Local Scheduler, the timeouts — from
//! a file. [`EdgeConfig`] is that file, in the same YAML dialect as the
//! service definitions. Every key below is optional; a key the file does not
//! read is an error that names it:
//!
//! ```yaml
//! scheduler: proximity
//! predictor: none
//! flowIdleTimeout: 10        # seconds, installed into switch flows
//! memoryIdleTimeout: 60      # seconds, FlowMemory / scale-down trigger
//! removeAfter: 600           # seconds from scale-down to full removal
//! aggregateRules: false      # fleet-scale wildcard rule aggregation
//! recordRequests: true       # per-request records for the harness
//! faults:                    # chaos testing (all rates default to 0)
//!   seed: 7
//!   pullFailure: 0.1
//!   pullSlowdown: 0.1
//!   createFailure: 0.1
//!   startFailure: 0.1
//!   crashAfterStart: 0.05
//!   scaleUpRejection: 0.1
//!   probeFlap: 0.1
//!   crashWhileServing: 0.05  # runtime faults: post-Ready instance crash,
//!   zoneOutage: 0.02         # whole-zone outage window,
//!   channelLoss: 0.02        # control-channel drop + reconnect
//! autoscale:                 # horizontal autoscaling (off by default)
//!   enabled: true
//!   minReplicas: 1
//!   maxReplicas: 4
//!   cooldownMs: 5000         # minimum gap between scalings of one pool
//!   sweepIntervalMs: 1000
//!   serviceTimeMs: 20        # deterministic per-request service time
//!   concurrency: 4           # in-flight slots per replica
//!   backlog: 8               # queue depth beyond which requests reject
//! migration:                 # live zone-to-zone migration (off by default)
//!   policy: live             # anchored | live
//!   stateBytesPerRequest: 4096
//!   transferBandwidthMbps: 10000
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
//!
//! The retry policy, the health monitor's detection interval and breaker,
//! the readiness poll interval and the other fixed tunings are constants
//! beside the code that uses them (DESIGN.md "Configuration"). What a
//! client's sessions do on a handover ([`crate::HandoverPolicy`]) is chosen
//! per run, not here.

use crate::controller::ControllerConfig;
use crate::migrate::MigrationPolicy;
use desim::{Duration, FaultPlan};
use yamlite::Value;

/// A cluster declaration in the configuration file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
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
    /// A key the file does not read, or a field with the wrong type or an
    /// invalid value.
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
/// type, out of range, or too large for the slot. Each reader notes its key;
/// [`Block::done`] refuses any other.
struct Block<'a> {
    map: &'a Value,
    /// Dotted path of the mapping (`""` for the document itself).
    path: String,
    /// The keys the readers asked for, in reading order.
    known: Vec<&'static str>,
}

impl<'a> Block<'a> {
    /// `value` as a block: `None` if absent, an error unless a mapping.
    fn of(value: &'a Value, path: String) -> Result<Option<Block<'a>>, ConfigError> {
        match value {
            Value::Null => Ok(None),
            Value::Map(_) => Ok(Some(Block { map: value, path, known: Vec::new() })),
            _ => {
                let name = if path.is_empty() { "config" } else { &path };
                Err(ConfigError::Invalid(format!("{name} must be a mapping")))
            }
        }
    }

    /// The dotted name of `key` in this block.
    fn dotted(&self, key: &str) -> String {
        match self.path.as_str() {
            "" => key.to_owned(),
            path => format!("{path}.{key}"),
        }
    }

    /// The value at `key` (`Null` when absent); notes the key as read.
    fn get(&mut self, key: &'static str) -> &'a Value {
        self.known.push(key);
        &self.map[key]
    }

    /// The nested block at `key`.
    fn mapping(&mut self, key: &'static str) -> Result<Option<Block<'a>>, ConfigError> {
        let value = self.get(key);
        Block::of(value, self.dotted(key))
    }

    /// Refuses the first key no reader asked for, naming it and the keys
    /// this mapping reads.
    fn done(self) -> Checked {
        let Value::Map(entries) = self.map else {
            unreachable!("a block is a mapping");
        };
        match entries.iter().find(|(key, _)| !self.known.contains(&key.as_str())) {
            None => Ok(()),
            Some((key, _)) => Err(ConfigError::Invalid(format!(
                "{}: unknown key (known: {})",
                self.dotted(key),
                self.known.join(", ")
            ))),
        }
    }

    fn invalid(&self, key: &str, what: &str) -> ConfigError {
        let got = &self.map[key];
        ConfigError::Invalid(format!("{}: expected {what}, got {got:?}", self.dotted(key)))
    }

    /// Stores the value at `key` as `read` accepts it; `what` says what that is.
    fn read<T>(
        &mut self,
        key: &'static str,
        what: &str,
        slot: &mut T,
        read: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Checked {
        match self.get(key) {
            Value::Null => {}
            value => *slot = read(value).ok_or_else(|| self.invalid(key, what))?,
        }
        Ok(())
    }

    /// A span in units of which `per_sec` make a second: an integer — or,
    /// where `fractional`, any number — that is `positive` or at least zero
    /// and fits a [`Duration`].
    fn span<T: From<Duration>>(
        &mut self,
        key: &'static str,
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

    fn secs<T: From<Duration>>(&mut self, key: &'static str, slot: &mut T) -> Checked {
        self.span(key, (1, false, true), slot)
    }

    fn millis(&mut self, key: &'static str, slot: &mut Duration) -> Checked {
        self.span(key, (1000, false, false), slot)
    }

    fn positive_millis(&mut self, key: &'static str, slot: &mut Duration) -> Checked {
        self.span(key, (1000, true, false), slot)
    }

    fn fraction(&mut self, key: &'static str, slot: &mut f64) -> Checked {
        let unit = |v: &Value| v.as_f64().filter(|p| (0.0..=1.0).contains(p));
        self.read(key, "a number in [0, 1]", slot, unit)
    }

    fn int_at_least<T: TryFrom<i64>>(&mut self, key: &'static str, min: i64, slot: &mut T) -> Checked {
        let what = format!("an integer >= {min} that fits the field");
        let fits = |v: &Value| T::try_from(v.as_i64().filter(|&n| n >= min)?).ok();
        self.read(key, &what, slot, fits)
    }

    fn flag(&mut self, key: &'static str, slot: &mut bool) -> Checked {
        self.read(key, "true or false", slot, Value::as_bool)
    }

    fn text(&mut self, key: &'static str, slot: &mut String) -> Checked {
        self.read(key, "a string", slot, |v| v.as_str().map(str::to_owned))
    }
}

impl EdgeConfig {
    /// Parses a configuration file. Missing keys fall back to the defaults;
    /// a key the file does not read is refused by name; unknown
    /// scheduler/predictor names are rejected eagerly (the reference
    /// controller fails at dynamic-load time — we fail at parse time).
    pub fn from_yaml(text: &str) -> Result<EdgeConfig, ConfigError> {
        let doc = yamlite::parse_str(text)?;
        let mut cfg = EdgeConfig::default();
        let Some(mut doc) = Block::of(&doc, String::new())? else {
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
        doc.flag("aggregateRules", &mut c.aggregate_rules)?;
        doc.flag("recordRequests", &mut c.record_requests)?;

        if let Some(mut faults) = doc.mapping("faults")? {
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
            faults.done()?;
        }

        if let Some(mut autoscale) = doc.mapping("autoscale")? {
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
            autoscale.millis("cooldownMs", &mut a.cooldown)?;
            autoscale.positive_millis("sweepIntervalMs", &mut a.sweep_interval)?;
            let service_time = &mut a.queue.service_time;
            autoscale.span("serviceTimeMs", (1000, true, true), service_time)?;
            autoscale.int_at_least("concurrency", 1, &mut a.queue.concurrency)?;
            autoscale.int_at_least("backlog", 0, &mut a.queue.backlog)?;
            autoscale.done()?;
        }

        if let Some(mut migration) = doc.mapping("migration")? {
            let m = &mut c.migration;
            use MigrationPolicy::{Anchored, Live};
            migration.read("policy", "anchored|live", &mut m.policy, |v| {
                let mut known = [Anchored, Live].into_iter();
                known.find(|p| Some(p.label()) == v.as_str())
            })?;
            migration.int_at_least("stateBytesPerRequest", 0, &mut m.state_bytes_per_request)?;
            let what = "an integer >= 1 whose bit/s fit 64 bits";
            let rate = &mut m.transfer_bandwidth_bps;
            migration.read("transferBandwidthMbps", what, rate, |v| {
                let mbps = u64::try_from(v.as_i64()?).ok()?;
                mbps.checked_mul(1_000_000).filter(|&bps| bps > 0)
            })?;
            migration.done()?;
        }

        if let Some(mut journal) = doc.mapping("journal")? {
            journal.flag("enabled", &mut c.journal.enabled)?;
            journal.int_at_least("snapshotEvery", 1, &mut c.journal.snapshot_every)?;
            journal.done()?;
        }

        let mut clusters: &[Value] = &[];
        doc.read("clusters", "a sequence", &mut clusters, Value::as_seq)?;
        for (i, entry) in clusters.iter().enumerate() {
            let path = format!("clusters[{i}]");
            let invalid = |what: &str| ConfigError::Invalid(format!("{path}: {what}"));
            let mut block = Block::of(entry, path.clone())?.ok_or_else(|| invalid("missing name"))?;
            let mut decl = ClusterDecl::default();
            block.text("name", &mut decl.name)?;
            block.text("kind", &mut decl.kind)?;
            let local = &mut decl.local_scheduler;
            block.read("localScheduler", "a string", local, |v| v.as_str().map(|s| Some(s.to_owned())))?;
            block.done()?;
            if decl.name.is_empty() {
                return Err(invalid("missing name"));
            }
            if decl.kind != "docker" && decl.kind != "k8s" {
                return Err(invalid(&format!("kind must be docker|k8s, got `{}`", decl.kind)));
            }
            cfg.clusters.push(decl);
        }
        doc.done()?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The dotted keys [`EdgeConfig::from_yaml`] accepts. A key a reader
    /// gains fails `the_config_file_accepts_exactly_these_keys` until it is
    /// listed here (DESIGN.md "Configuration": a key needs two runs that set
    /// it differently).
    #[rustfmt::skip]
    const KEYS: [&str; 34] = [
        "scheduler", "predictor", "flowIdleTimeout", "memoryIdleTimeout", "removeAfter",
        "aggregateRules", "recordRequests",
        "faults.seed", "faults.pullFailure", "faults.pullSlowdown", "faults.createFailure",
        "faults.startFailure", "faults.crashAfterStart", "faults.scaleUpRejection",
        "faults.probeFlap", "faults.crashWhileServing", "faults.zoneOutage", "faults.channelLoss",
        "autoscale.enabled", "autoscale.minReplicas", "autoscale.maxReplicas",
        "autoscale.cooldownMs", "autoscale.sweepIntervalMs", "autoscale.serviceTimeMs",
        "autoscale.concurrency", "autoscale.backlog",
        "migration.policy", "migration.stateBytesPerRequest", "migration.transferBandwidthMbps",
        "journal.enabled", "journal.snapshotEvery",
        "clusters[0].name", "clusters[0].kind", "clusters[0].localScheduler",
    ];

    /// The 21 keys that named a value which is a constant now.
    #[rustfmt::skip]
    const REMOVED: [&str; 21] = [
        "pollIntervalMs", "scaleDownIdle",
        "retry.maxAttempts", "retry.baseMs", "retry.multiplier", "retry.capMs", "retry.jitter",
        "retry.phaseDeadline",
        "health.detectIntervalMs", "health.breakerThreshold", "health.breakerCooldownMs",
        "faults.pullSlowdownFactor", "faults.probeFlapDelayMs", "faults.zoneOutageWindowMs",
        "faults.channelReconnectDelayMs",
        "autoscale.scaleUpUtilization", "autoscale.scaleDownUtilization", "autoscale.scaleUpBacklog",
        "migration.transferPropagationMs", "migration.maxConcurrent", "migration.mobilityHops",
    ];

    /// A document that sets the dotted `key` (`block.key`, or a key of the
    /// one cluster entry) to `value`.
    fn setting(key: &str, value: &str) -> String {
        match key.split_once('.') {
            None => format!("{key}: {value}\n"),
            Some(("clusters[0]", key)) => {
                let mut entry = vec![("name", "edge"), ("kind", "docker")];
                entry.retain(|&(k, _)| k != key);
                entry.push((key, value));
                let lines: Vec<String> = entry.iter().map(|(k, v)| format!("{k}: {v}")).collect();
                format!("clusters:\n  - {}\n", lines.join("\n    "))
            }
            Some((block, key)) => format!("{block}:\n  {key}: {value}\n"),
        }
    }

    fn rejected(yaml: &str) -> String {
        let err = EdgeConfig::from_yaml(yaml).unwrap_err();
        assert!(matches!(err, ConfigError::Invalid(_)), "{yaml}: {err}");
        err.to_string()
    }

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
        assert_eq!(cfg.clusters.len(), 2);
        assert_eq!(cfg.clusters[0].local_scheduler, None);
        assert_eq!(cfg.clusters[1].local_scheduler.as_deref(), Some("edge-pack-scheduler"));
    }

    /// The example in this module's documentation is a file the parser
    /// accepts, and it means what its comments say.
    #[test]
    fn the_module_doc_example_parses() {
        let source = include_str!("config.rs");
        let yaml: String = source
            .lines()
            .skip_while(|l| *l != "//! ```yaml")
            .skip(1)
            .take_while(|l| *l != "//! ```")
            .map(|l| l.strip_prefix("//! ").unwrap_or("") .to_owned() + "\n")
            .collect();
        assert!(yaml.contains("scheduler: proximity"), "{yaml}");
        let cfg = EdgeConfig::from_yaml(&yaml).unwrap();
        assert!(cfg.faults.enabled() && cfg.faults.runtime_enabled());
        assert!(cfg.controller.autoscale.enabled);
        assert!(cfg.controller.migration.live());
        assert!(cfg.controller.journal.enabled);
        assert_eq!(cfg.clusters.len(), 2);
    }

    #[test]
    fn faults_block_parses() {
        let cfg = EdgeConfig::from_yaml(
            "
faults:
  seed: 42
  pullFailure: 0.2
  pullSlowdown: 0.25
  createFailure: 0.1
  startFailure: 0.05
  crashAfterStart: 0.01
  scaleUpRejection: 0.3
  probeFlap: 0.15
  crashWhileServing: 0.05
  zoneOutage: 0.02
  channelLoss: 0.03
",
        )
        .unwrap();
        assert_eq!(cfg.faults.seed, 42);
        assert_eq!(cfg.faults.pull_failure, 0.2);
        assert_eq!(cfg.faults.pull_slowdown, 0.25);
        assert_eq!(cfg.faults.create_failure, 0.1);
        assert_eq!(cfg.faults.start_failure, 0.05);
        assert_eq!(cfg.faults.crash_after_start, 0.01);
        assert_eq!(cfg.faults.scale_up_rejection, 0.3);
        assert_eq!(cfg.faults.probe_flap, 0.15);
        assert_eq!(cfg.faults.crash_while_serving, 0.05);
        assert_eq!(cfg.faults.zone_outage, 0.02);
        assert_eq!(cfg.faults.channel_loss, 0.03);
        assert!(cfg.faults.enabled());
        assert!(cfg.faults.runtime_enabled());
    }

    #[test]
    fn missing_faults_keep_defaults() {
        let cfg = EdgeConfig::from_yaml("scheduler: proximity").unwrap();
        assert_eq!(cfg.faults, FaultPlan::default());
        assert!(!cfg.faults.enabled());
    }

    #[test]
    fn invalid_fault_values_rejected() {
        // Probabilities outside [0, 1] are typed errors, not clamps.
        for bad in [
            "faults:\n  pullFailure: 1.5",
            "faults:\n  createFailure: -0.1",
            "faults:\n  seed: -1",
            "faults: chaos",
            "faults:\n  crashWhileServing: 1.5",
            "faults:\n  zoneOutage: -0.2",
            "faults:\n  channelLoss: 2",
        ] {
            rejected(bad);
        }
        // Error messages name the offending key.
        let err = rejected("faults:\n  crashWhileServing: 1.5");
        assert!(err.contains("faults.crashWhileServing"), "{err}");
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
        for bad in [
            "flowIdleTimeout: -3",
            "- a\n- b",
            "clusters:\n  - kind: docker",
            "clusters:\n  - name: x\n    kind: vm",
            "clusters:\n  - name: x\n    kind: k8s\n    localScheduler: 3",
            "clusters:\n  - just-a-name",
            "clusters: egs-docker",
        ] {
            rejected(bad);
        }
    }

    /// Values that do not fit what they are read into are refused — they
    /// used to overflow `Duration::from_secs` / `from_millis` and the Mbps →
    /// bit/s product (a panic in a debug build, a wrapped value in release).
    #[test]
    fn values_too_large_for_their_field_are_rejected_not_wrapped() {
        for (bad, key) in [
            ("flowIdleTimeout: 99999999999999", "flowIdleTimeout"),
            ("flowIdleTimeout: 1.0e30", "flowIdleTimeout"),
            ("autoscale:\n  sweepIntervalMs: 99999999999999999", "autoscale.sweepIntervalMs"),
            ("migration:\n  transferBandwidthMbps: 99999999999999", "migration.transferBandwidthMbps"),
        ] {
            let err = rejected(bad);
            assert!(err.contains(key), "{bad}: {err}");
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
            ("aggregateRules: 3", "aggregateRules"),
            ("scheduler: 5", "scheduler"),
            ("autoscale:\n  enabled: maybe", "autoscale.enabled"),
        ] {
            let err = rejected(bad);
            assert!(err.contains(key), "{bad}: {err}");
        }
    }

    /// A key the file does not read — a typo, or one of the keys whose
    /// value is a constant now — is an error naming it, in every mapping.
    #[test]
    fn unknown_keys_are_rejected_by_name() {
        for key in [
            "memoryIdleTimout",
            "faults.pullFailur",
            "autoscale.maxReplica",
            "migration.polcy",
            "journal.enable",
            "clusters[0].localSchedular",
        ] {
            let err = rejected(&setting(key, "1"));
            assert!(err.contains(&format!("{key}: unknown key")), "{key}: {err}");
        }
        // In a later entry too, after valid keys and beside the right block.
        let err = rejected(
            "clusters:\n  - name: a\n    kind: docker\n  - name: b\n    kind: k8s\n    localSchedular: x\n",
        );
        assert!(err.contains("clusters[1].localSchedular: unknown key"), "{err}");
        // A removed block is refused whole, under its own name.
        let err = rejected("health:\n  detectIntervalMs: 250\n");
        assert!(err.contains("health: unknown key"), "{err}");
        for key in REMOVED {
            let err = rejected(&setting(key, "1"));
            let named = key.split('.').next().filter(|b| ["retry", "health"].contains(b)).unwrap_or(key);
            assert!(err.contains(&format!("{named}: unknown key")), "{key}: {err}");
        }
        // The message lists what the mapping does read.
        let err = rejected("journal:\n  enable: true\n");
        assert!(err.ends_with("(known: enabled, snapshotEvery)"), "{err}");
    }

    /// Exactly [`KEYS`] are accepted: every listed key parses, and each
    /// mapping's refusal of an unknown key names no key that is not listed.
    #[test]
    fn the_config_file_accepts_exactly_these_keys() {
        let value = |key: &str| match key.rsplit('.').next().unwrap() {
            "scheduler" => "proximity",
            "predictor" => "none",
            "policy" => "live",
            "kind" => "docker",
            "name" | "localScheduler" => "edge",
            "aggregateRules" | "recordRequests" | "enabled" => "true",
            _ => "1",
        };
        for key in KEYS {
            EdgeConfig::from_yaml(&setting(key, value(key)))
                .unwrap_or_else(|e| panic!("{key}: {e}"));
        }
        let blocks = ["faults", "autoscale", "migration", "journal", "clusters"];
        let mut accepted: Vec<String> = Vec::new();
        for block in ["", "faults", "autoscale", "migration", "journal", "clusters[0]"] {
            let probe = if block.is_empty() { "bogus".to_owned() } else { format!("{block}.bogus") };
            let err = rejected(&setting(&probe, "1"));
            let known = err.rsplit_once("(known: ").unwrap().1.trim_end_matches(')');
            for key in known.split(", ").filter(|k| !block.is_empty() || !blocks.contains(k)) {
                accepted.push(if block.is_empty() { key.to_owned() } else { format!("{block}.{key}") });
            }
        }
        assert_eq!(accepted, KEYS);
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
    fn autoscale_block_parses() {
        let cfg = EdgeConfig::from_yaml(
            "
autoscale:
  enabled: true
  minReplicas: 2
  maxReplicas: 6
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
            "autoscale:\n  cooldownMs: -1",
            "autoscale:\n  sweepIntervalMs: 0",
            "autoscale:\n  serviceTimeMs: 0",
            "autoscale:\n  concurrency: 0",
            "autoscale:\n  backlog: -1",
        ] {
            rejected(bad);
        }
    }

    #[test]
    fn migration_block_parses() {
        let cfg = EdgeConfig::from_yaml(
            "
migration:
  policy: live
  stateBytesPerRequest: 4096
  transferBandwidthMbps: 200
",
        )
        .unwrap();
        let m = &cfg.controller.migration;
        assert_eq!(m.policy, MigrationPolicy::Live);
        assert!(m.live());
        assert_eq!(m.state_bytes_per_request, 4096);
        assert_eq!(m.transfer_bandwidth_bps, 200_000_000);
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
            "migration:\n  transferBandwidthMbps: 0",
        ] {
            rejected(bad);
        }
        // `redispatch` behaved exactly like `anchored`; a handover's
        // re-dispatch is the run's `HandoverPolicy`, not a migration policy.
        let err = rejected("migration:\n  policy: redispatch");
        assert!(err.contains("migration.policy: expected anchored|live"), "{err}");
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
            rejected(bad);
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
