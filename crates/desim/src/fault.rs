//! Seedable fault injection and retry policies.
//!
//! The deployment pipeline (Pull → Create → Scale Up → port-confirm) is
//! exercised under *injected* failures: a [`FaultPlan`] describes per-phase
//! failure probabilities, and each injection site owns a [`FaultInjector`]
//! derived from the plan. Two invariants make chaos runs useful:
//!
//! 1. **Determinism** — an injector's decisions come from its own
//!    [`SimRng`] stream, seeded from `plan.seed ^ site label`. The same plan
//!    and the same sequence of operations produce the same faults.
//! 2. **Zero-rate transparency** — with every probability at `0.0` an
//!    injector never fires, and because it draws from its *own* stream (and
//!    short-circuits on zero probabilities), the main simulation RNGs see
//!    exactly the seed's draw sequence: fault-rate-0 runs are byte-identical
//!    to runs without any injector wired in.
//!
//! [`RetryPolicy`] is the recovery side: capped exponential backoff with
//! multiplicative jitter and a per-phase deadline, used by the Dispatcher to
//! bound how long a held request can wait before falling back to the cloud.

use crate::rng::SimRng;
use crate::time::Duration;

/// Transfer-time multiplier for a flapped layer (applied to that layer only,
/// scaled by a uniform draw in `[0.5, 1.5)`).
const PULL_SLOWDOWN_FACTOR: f64 = 4.0;
/// Median extra readiness delay for a flapped probe.
const PROBE_FLAP_DELAY: Duration = Duration::from_secs(2);
/// Median outage duration for a dark zone.
const ZONE_OUTAGE_WINDOW: Duration = Duration::from_secs(30);
/// Median time before a dropped switch↔controller channel reconnects.
const CHANNEL_RECONNECT_DELAY: Duration = Duration::from_secs(5);
/// Median time before a crashed controller process is restarted.
const CONTROLLER_RESTART_DELAY: Duration = Duration::from_secs(3);

/// Per-phase fault probabilities for a chaos run.
///
/// All probabilities are clamped to `[0, 1]` at draw time; the default plan
/// injects nothing. Sites that model *slowdowns* rather than hard failures
/// (link flaps, readiness-probe flaps) additionally scale or delay by a
/// fixed median, scaled by a uniform draw in `[0.5, 1.5)`.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the injector streams (independent of the simulation seed).
    pub seed: u64,
    /// Probability that a registry pull attempt fails mid-transfer.
    pub pull_failure: f64,
    /// Per-layer probability of a link flap slowing that layer's transfer.
    pub pull_slowdown: f64,
    /// Probability that a container create call fails.
    pub create_failure: f64,
    /// Probability that a task start call fails outright.
    pub start_failure: f64,
    /// Probability that a started task crashes before becoming ready.
    pub crash_after_start: f64,
    /// Probability that the Kubernetes scheduler rejects a scale-up's pod.
    pub scale_up_rejection: f64,
    /// Probability that a pod's readiness probe flaps, delaying readiness.
    pub probe_flap: f64,
    /// Probability that a *Ready* instance crashes while serving traffic
    /// (post-ready runtime failure, per observation window).
    pub crash_while_serving: f64,
    /// Probability that an entire edge zone goes dark for a window
    /// (per observation window).
    pub zone_outage: f64,
    /// Probability that the switch↔controller OpenFlow channel drops
    /// (per observation window). The switch keeps forwarding on its
    /// installed flows; control messages are lost until reconnect.
    pub channel_loss: f64,
    /// Probability that the controller process itself crashes during the
    /// run (drawn once per run, not per window). While the controller is
    /// down every switch keeps forwarding on its installed rules; packet-ins
    /// go unanswered until the restarted controller recovers.
    pub controller_crash: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            pull_failure: 0.0,
            pull_slowdown: 0.0,
            create_failure: 0.0,
            start_failure: 0.0,
            crash_after_start: 0.0,
            scale_up_rejection: 0.0,
            probe_flap: 0.0,
            crash_while_serving: 0.0,
            zone_outage: 0.0,
            channel_loss: 0.0,
            controller_crash: 0.0,
        }
    }
}

impl FaultPlan {
    /// A plan with every *deployment-phase* fault probability set to `rate`
    /// (the chaos experiment's uniform per-phase fault rate). Post-ready
    /// runtime faults stay at zero — see [`FaultPlan::runtime`].
    pub fn uniform(rate: f64, seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            pull_failure: rate,
            pull_slowdown: rate,
            create_failure: rate,
            start_failure: rate,
            crash_after_start: rate,
            scale_up_rejection: rate,
            probe_flap: rate,
            ..FaultPlan::default()
        }
    }

    /// A plan with every *post-ready runtime* fault probability set to
    /// `rate` (instance crashes while serving, zone outages, OpenFlow
    /// channel loss) and all deployment-phase faults at zero — the
    /// runtime-chaos experiment's knob.
    pub fn runtime(rate: f64, seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            crash_while_serving: rate,
            zone_outage: rate,
            channel_loss: rate,
            ..FaultPlan::default()
        }
    }

    /// `true` if any fault can ever fire. Harnesses skip wiring injectors
    /// for disabled plans, keeping fault-free runs bit-identical to builds
    /// that predate fault injection.
    pub fn enabled(&self) -> bool {
        [
            self.pull_failure,
            self.pull_slowdown,
            self.create_failure,
            self.start_failure,
            self.crash_after_start,
            self.scale_up_rejection,
            self.probe_flap,
            self.crash_while_serving,
            self.zone_outage,
            self.channel_loss,
            self.controller_crash,
        ]
        .iter()
        .any(|&p| p > 0.0)
    }

    /// `true` if any *post-ready runtime* fault (crash-while-serving, zone
    /// outage, channel loss) can fire. Harnesses only schedule runtime
    /// fault-injection sweeps when this holds, so deployment-only chaos
    /// runs stay byte-identical to builds that predate runtime faults.
    pub fn runtime_enabled(&self) -> bool {
        [
            self.crash_while_serving,
            self.zone_outage,
            self.channel_loss,
            self.controller_crash,
        ]
        .iter()
        .any(|&p| p > 0.0)
    }

    /// Derives the injector for one injection site. Distinct `label`s give
    /// sites decorrelated decision streams under the same plan.
    pub fn injector(&self, label: u64) -> FaultInjector {
        FaultInjector {
            plan: self.clone(),
            rng: SimRng::new(self.seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }
}

/// One injection site's view of a [`FaultPlan`]: the plan plus a private
/// RNG stream for its decisions.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SimRng,
}

impl FaultInjector {
    /// Draws a fault decision, never touching the stream for `p <= 0`
    /// (keeps the site's stream aligned across plans that disable only some
    /// faults).
    fn fires(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.chance(p)
    }

    /// Should this pull attempt fail mid-transfer?
    pub fn pull_fails(&mut self) -> bool {
        let p = self.plan.pull_failure;
        self.fires(p)
    }

    /// How far through the transfer a failed pull got, in `[0, 1)`.
    pub fn partial_fraction(&mut self) -> f64 {
        self.rng.next_f64()
    }

    /// If this layer's link flaps, the factor its transfer time grows by
    /// (always `> 1`).
    pub fn pull_flap_factor(&mut self) -> Option<f64> {
        let p = self.plan.pull_slowdown;
        if self.fires(p) {
            let scale = 0.5 + self.rng.next_f64();
            Some(1.0 + (PULL_SLOWDOWN_FACTOR - 1.0) * scale)
        } else {
            None
        }
    }

    /// Should this container create call fail?
    pub fn create_fails(&mut self) -> bool {
        let p = self.plan.create_failure;
        self.fires(p)
    }

    /// Should this task start call fail outright?
    pub fn start_fails(&mut self) -> bool {
        let p = self.plan.start_failure;
        self.fires(p)
    }

    /// Should this started task crash before readiness? Returns the position
    /// within the start→ready window, in `[0, 1)`, at which it crashes.
    pub fn crashes_after_start(&mut self) -> Option<f64> {
        let p = self.plan.crash_after_start;
        if self.fires(p) {
            Some(self.rng.next_f64())
        } else {
            None
        }
    }

    /// Should the scheduler reject this pod?
    pub fn scale_up_rejected(&mut self) -> bool {
        let p = self.plan.scale_up_rejection;
        self.fires(p)
    }

    /// If this pod's readiness probe flaps, the extra delay before it turns
    /// Ready.
    pub fn probe_flap(&mut self) -> Option<Duration> {
        let p = self.plan.probe_flap;
        if self.fires(p) {
            let scale = 0.5 + self.rng.next_f64();
            Some(PROBE_FLAP_DELAY.mul_f64(scale))
        } else {
            None
        }
    }

    /// Does a Ready instance crash during this observation window? Returns
    /// the position within the window, in `[0, 1)`, at which it dies.
    pub fn crashes_while_serving(&mut self) -> Option<f64> {
        let p = self.plan.crash_while_serving;
        if self.fires(p) {
            Some(self.rng.next_f64())
        } else {
            None
        }
    }

    /// Does the whole zone go dark during this observation window? Returns
    /// `(position, outage_duration)`: the position within the window, in
    /// `[0, 1)`, at which the outage starts, and how long the zone stays
    /// dark (median `ZONE_OUTAGE_WINDOW`, scaled by a uniform draw in
    /// `[0.5, 1.5)`).
    pub fn zone_outage(&mut self) -> Option<(f64, Duration)> {
        let p = self.plan.zone_outage;
        if self.fires(p) {
            let pos = self.rng.next_f64();
            let scale = 0.5 + self.rng.next_f64();
            Some((pos, ZONE_OUTAGE_WINDOW.mul_f64(scale)))
        } else {
            None
        }
    }

    /// Does the switch↔controller channel drop during this observation
    /// window? Returns `(position, reconnect_delay)`: the position within
    /// the window, in `[0, 1)`, at which the channel drops, and how long it
    /// stays down (median `CHANNEL_RECONNECT_DELAY`, scaled by a uniform
    /// draw in `[0.5, 1.5)`).
    pub fn channel_drops(&mut self) -> Option<(f64, Duration)> {
        let p = self.plan.channel_loss;
        if self.fires(p) {
            let pos = self.rng.next_f64();
            let scale = 0.5 + self.rng.next_f64();
            Some((pos, CHANNEL_RECONNECT_DELAY.mul_f64(scale)))
        } else {
            None
        }
    }

    /// Does the controller process crash during this run? Drawn once per
    /// run by the harness. Returns `(position, restart_delay)`: the
    /// position within the run's horizon, in `[0, 1)`, at which the
    /// controller dies, and how long it stays down before the restarted
    /// process begins recovery (median `CONTROLLER_RESTART_DELAY`, scaled
    /// by a uniform draw in `[0.5, 1.5)`).
    pub fn controller_crashes(&mut self) -> Option<(f64, Duration)> {
        let p = self.plan.controller_crash;
        if self.fires(p) {
            let pos = self.rng.next_f64();
            let scale = 0.5 + self.rng.next_f64();
            Some((pos, CONTROLLER_RESTART_DELAY.mul_f64(scale)))
        } else {
            None
        }
    }
}

/// Capped exponential backoff with multiplicative jitter and a per-phase
/// deadline.
///
/// The delay before retry number `attempt` (0-based) is
/// `min(cap, base · multiplier^attempt · (1 + jitter · u))` with
/// `u ∈ [0, 1)`. Delays are monotone non-decreasing in `attempt` whenever
/// `multiplier ≥ 1 + jitter` (the default), because the un-jittered value
/// grows by at least the largest possible jitter factor per step; the `min`
/// with `cap` preserves monotonicity and bounds every delay.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts allowed per phase (values ≤ 1 mean no retries).
    pub max_attempts: u32,
    /// Delay before the first retry (before jitter).
    pub base: Duration,
    /// Growth factor per retry.
    pub(crate) multiplier: f64,
    /// Upper bound on any single delay (after jitter).
    pub cap: Duration,
    /// Jitter fraction: each delay is scaled by `1 + jitter·u`, `u ∈ [0,1)`.
    pub jitter: f64,
    /// Budget for one phase, measured from the phase's first attempt; a
    /// retry that would begin past the deadline is not made.
    pub phase_deadline: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base: Duration::from_millis(250),
            multiplier: 2.0,
            cap: Duration::from_secs(5),
            jitter: 0.25,
            phase_deadline: Duration::from_secs(30),
        }
    }
}

impl RetryPolicy {
    /// The backoff delay before retry `attempt` (0-based). Draws exactly one
    /// value from `rng` (the jitter).
    pub fn delay(&self, attempt: u32, rng: &mut SimRng) -> Duration {
        let exp = self.base.as_secs_f64() * self.multiplier.powi(attempt.min(64) as i32);
        let jittered = exp * (1.0 + self.jitter.max(0.0) * rng.next_f64());
        Duration::from_secs_f64(jittered.min(self.cap.as_secs_f64()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_disabled_and_never_fires() {
        let plan = FaultPlan::default();
        assert!(!plan.enabled());
        assert!(!plan.runtime_enabled());
        let mut inj = plan.injector(0x11);
        for _ in 0..100 {
            assert!(!inj.pull_fails());
            assert!(inj.pull_flap_factor().is_none());
            assert!(!inj.create_fails());
            assert!(!inj.start_fails());
            assert!(inj.crashes_after_start().is_none());
            assert!(!inj.scale_up_rejected());
            assert!(inj.probe_flap().is_none());
            assert!(inj.crashes_while_serving().is_none());
            assert!(inj.zone_outage().is_none());
            assert!(inj.channel_drops().is_none());
            assert!(inj.controller_crashes().is_none());
        }
    }

    #[test]
    fn uniform_plan_keeps_runtime_faults_at_zero() {
        // The deployment-chaos knob must not start injecting runtime faults:
        // existing chaos figures are pinned to the uniform plan's stream.
        let plan = FaultPlan::uniform(1.0, 3);
        assert!(plan.enabled());
        assert!(!plan.runtime_enabled());
        let mut inj = plan.injector(0x12);
        for _ in 0..100 {
            assert!(inj.crashes_while_serving().is_none());
            assert!(inj.zone_outage().is_none());
            assert!(inj.channel_drops().is_none());
            assert!(inj.controller_crashes().is_none());
        }
    }

    #[test]
    fn runtime_plan_leaves_controller_crash_at_zero() {
        // `runtime()` pins PR 5's committed runtime-chaos figures; the
        // controller-crash knob must be opted into explicitly.
        let plan = FaultPlan::runtime(1.0, 6);
        assert_eq!(plan.controller_crash, 0.0);
        let mut inj = plan.injector(400);
        for _ in 0..100 {
            assert!(inj.controller_crashes().is_none());
        }
    }

    #[test]
    fn controller_crash_plan_is_runtime_enabled_and_bounded() {
        let plan = FaultPlan {
            controller_crash: 1.0,
            ..FaultPlan::default()
        };
        assert!(plan.enabled());
        assert!(plan.runtime_enabled());
        let mut inj = plan.injector(400);
        for _ in 0..100 {
            let (pos, delay) = inj.controller_crashes().unwrap();
            assert!((0.0..1.0).contains(&pos));
            assert!(delay >= CONTROLLER_RESTART_DELAY.mul_f64(0.5));
            assert!(delay < CONTROLLER_RESTART_DELAY.mul_f64(1.5));
        }
    }

    #[test]
    fn runtime_plan_fires_runtime_faults_only() {
        let plan = FaultPlan::runtime(1.0, 4);
        assert!(plan.enabled());
        assert!(plan.runtime_enabled());
        let mut inj = plan.injector(0x13);
        for _ in 0..100 {
            assert!(!inj.pull_fails());
            assert!(!inj.create_fails());
            let pos = inj.crashes_while_serving().unwrap();
            assert!((0.0..1.0).contains(&pos));
            let (pos, window) = inj.zone_outage().unwrap();
            assert!((0.0..1.0).contains(&pos));
            assert!(window >= ZONE_OUTAGE_WINDOW.mul_f64(0.5));
            assert!(window < ZONE_OUTAGE_WINDOW.mul_f64(1.5));
            let (pos, delay) = inj.channel_drops().unwrap();
            assert!((0.0..1.0).contains(&pos));
            assert!(delay >= CHANNEL_RECONNECT_DELAY.mul_f64(0.5));
            assert!(delay < CHANNEL_RECONNECT_DELAY.mul_f64(1.5));
        }
    }

    #[test]
    fn runtime_faults_are_deterministic_per_seed_and_label() {
        let plan = FaultPlan::runtime(0.3, 77);
        let seq = |label: u64| -> Vec<Option<f64>> {
            let mut inj = plan.injector(label);
            (0..64).map(|_| inj.crashes_while_serving()).collect()
        };
        assert_eq!(seq(1), seq(1));
        assert_ne!(seq(1), seq(2), "labels decorrelate sites");
    }

    #[test]
    fn zero_probability_draws_nothing_from_the_stream() {
        // A disabled site must not consume stream state: two injectors that
        // differ only in *disabled* probabilities make identical decisions
        // for the enabled ones.
        let a = FaultPlan {
            create_failure: 0.5,
            ..FaultPlan::default()
        };
        let b = FaultPlan {
            create_failure: 0.5,
            pull_failure: 0.0, // explicit zero: still never drawn
            ..FaultPlan::default()
        };
        let (mut ia, mut ib) = (a.injector(7), b.injector(7));
        for _ in 0..200 {
            assert!(!ia.pull_fails() && !ib.pull_fails());
            assert_eq!(ia.create_fails(), ib.create_fails());
        }
    }

    #[test]
    fn uniform_rate_fires_at_about_that_rate() {
        let plan = FaultPlan::uniform(0.2, 99);
        assert!(plan.enabled());
        let mut inj = plan.injector(3);
        let fired = (0..10_000).filter(|_| inj.create_fails()).count();
        let rate = fired as f64 / 10_000.0;
        assert!((0.17..0.23).contains(&rate), "observed rate {rate}");
    }

    #[test]
    fn injectors_are_deterministic_per_seed_and_label() {
        let plan = FaultPlan::uniform(0.3, 1234);
        let seq = |label: u64| -> Vec<bool> {
            let mut inj = plan.injector(label);
            (0..64).map(|_| inj.start_fails()).collect()
        };
        assert_eq!(seq(1), seq(1));
        assert_ne!(seq(1), seq(2), "labels decorrelate sites");
    }

    #[test]
    fn flap_factor_exceeds_one_and_delay_is_bounded() {
        let plan = FaultPlan::uniform(1.0, 5);
        let mut inj = plan.injector(9);
        for _ in 0..100 {
            let f = inj.pull_flap_factor().unwrap();
            assert!(f > 1.0 && f <= 1.0 + 3.0 * 1.5, "factor {f}");
            let d = inj.probe_flap().unwrap();
            assert!(d >= PROBE_FLAP_DELAY.mul_f64(0.5));
            assert!(d < PROBE_FLAP_DELAY.mul_f64(1.5));
        }
    }

    // -- RetryPolicy property sweeps (plain deterministic loops over many
    //    seeds; they cover the same claims a proptest would) ---------------

    fn delays(policy: &RetryPolicy, seed: u64, n: u32) -> Vec<Duration> {
        let mut rng = SimRng::new(seed);
        (0..n).map(|a| policy.delay(a, &mut rng)).collect()
    }

    #[test]
    fn backoff_is_monotone_nondecreasing_when_multiplier_dominates_jitter() {
        // multiplier ≥ 1 + jitter ⇒ monotone for every seed.
        for seed in 0..200u64 {
            let p = RetryPolicy::default();
            let d = delays(&p, seed, 12);
            for w in d.windows(2) {
                assert!(w[0] <= w[1], "seed {seed}: {w:?}");
            }
        }
    }

    #[test]
    fn backoff_is_bounded_by_cap_for_every_seed_and_attempt() {
        for seed in 0..200u64 {
            for p in [
                RetryPolicy::default(),
                RetryPolicy {
                    base: Duration::from_secs(4),
                    cap: Duration::from_secs(4),
                    ..RetryPolicy::default()
                },
                RetryPolicy {
                    multiplier: 10.0,
                    jitter: 1.0,
                    ..RetryPolicy::default()
                },
            ] {
                for d in delays(&p, seed, 40) {
                    assert!(d <= p.cap, "delay {d} over cap {}", p.cap);
                }
            }
        }
    }

    #[test]
    fn backoff_jitter_stays_within_range() {
        // Before the cap bites, delay(attempt) ∈ [base·m^a, base·m^a·(1+j)).
        let p = RetryPolicy {
            cap: Duration::from_secs(10_000),
            ..RetryPolicy::default()
        };
        for seed in 0..100u64 {
            let mut rng = SimRng::new(seed);
            for attempt in 0..8u32 {
                let d = p.delay(attempt, &mut rng).as_secs_f64();
                let lo = p.base.as_secs_f64() * p.multiplier.powi(attempt as i32);
                let hi = lo * (1.0 + p.jitter);
                assert!(d >= lo * 0.999_999 && d < hi, "attempt {attempt}: {d} not in [{lo}, {hi})");
            }
        }
    }

    #[test]
    fn backoff_is_deterministic_per_rng_seed() {
        let p = RetryPolicy::default();
        for seed in [0u64, 1, 42, 0xdead_beef] {
            assert_eq!(delays(&p, seed, 16), delays(&p, seed, 16));
        }
        assert_ne!(delays(&p, 1, 16), delays(&p, 2, 16));
    }
}
