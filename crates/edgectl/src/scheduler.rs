//! The Global Scheduler (Section IV-B, Fig. 6).
//!
//! The Global Scheduler chooses the appropriate edge location and returns
//! two results:
//!
//! * **FAST** — the fastest location for the *current* request;
//! * **BEST** — the best location for *future* requests (empty when equal to
//!   FAST).
//!
//! A non-empty BEST in a different cluster than FAST is exactly *on-demand
//! deployment without waiting* (Fig. 3): answer now from FAST, deploy at
//! BEST in parallel. An empty FAST forwards the request toward the cloud.
//!
//! Decisions are **instance-granular**: a [`Choice`] names a [`Target`]
//! (`{cluster, instance}`), not just a cluster. With autoscaling off every
//! service has exactly one instance per cluster and [`Target::sole`] is the
//! only constructor in play; with autoscaling on, load-aware schedulers
//! ([`LeastConnectionsScheduler`], [`LatencyEwmaScheduler`]) split traffic
//! across a cluster's replicas using the per-instance queue state exposed in
//! [`ClusterView::instances`].
//!
//! Concrete schedulers are pluggable; [`scheduler_by_name`] mirrors the
//! reference controller's configuration-driven dynamic loading. It shares
//! the typed [`UnknownComponent`] error with
//! [`predictor_by_name`](crate::predict::predictor_by_name) so every
//! registry lookup reports the accepted names the same way.

use crate::cluster::InstanceState;
use crate::health::BreakerState;
use desim::{Duration, SimTime};
use netsim::ServiceAddr;

/// What a scheduler sees about one running (or potential) instance of the
/// service inside a cluster: the observable state of its request queue.
/// Replica 0 always exists once the service is deployed; further replicas
/// appear only when the autoscaler creates them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InstanceView {
    /// Replica index within the cluster (0-based, stable).
    pub instance: usize,
    /// Requests currently being served (bounded by `concurrency`).
    pub in_flight: usize,
    /// Requests queued behind the concurrency limit.
    pub backlog: usize,
    /// How many requests the instance serves at once.
    pub concurrency: usize,
    /// `in_flight / concurrency` at the decision instant.
    pub utilization: f64,
    /// Exponentially weighted sojourn time (queue wait + service) of
    /// recently admitted requests; zero until the first completion.
    pub ewma_latency: Duration,
}

impl InstanceView {
    /// `true` when the instance cannot start another request immediately —
    /// a new admission would queue (or be rejected once the backlog fills).
    pub fn at_capacity(&self) -> bool {
        self.in_flight >= self.concurrency
    }

    /// Jobs queued or in service — the load a new admission sorts behind.
    pub(crate) fn queue_depth(&self) -> usize {
        self.in_flight + self.backlog
    }
}

/// What the scheduler sees about one candidate cluster.
#[derive(Clone, Debug)]
pub struct ClusterView {
    /// `"docker"` / `"k8s"`.
    pub kind: &'static str,
    /// Distance (one-way latency) from the requesting client's ingress.
    pub distance: Duration,
    /// Whether the service's images are cached there.
    pub image_cached: bool,
    /// Deployment state of the requested service there.
    pub state: InstanceState,
    /// The cluster's circuit-breaker state. Dispatch withholds unavailable
    /// clusters from its candidate views entirely, but call sites that build
    /// views themselves (migration target selection) rely on load-aware
    /// schedulers never picking an [`BreakerState::Open`] cluster.
    pub breaker: BreakerState,
    /// Per-replica queue state for the service being placed. Empty when
    /// instance tracking is off (the default) or the service is not ready
    /// here; then the cluster behaves as a single unobserved instance 0.
    pub instances: Vec<InstanceView>,
}

/// An instance-granular placement: which cluster, and which replica within
/// it. The unit a [`Choice`] is made of.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Target {
    /// Index into the candidate cluster list.
    pub cluster: usize,
    /// Replica index within that cluster.
    pub instance: usize,
}

impl Target {
    /// The cluster's sole (or first) replica — the conversion every
    /// cluster-granular call site goes through explicitly, so a reviewer can
    /// grep for the sites that do **not** pick an instance by load.
    pub fn sole(cluster: usize) -> Target {
        Target { cluster, instance: 0 }
    }
}

/// The scheduler's decision: instance-granular targets into the candidate
/// list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Choice {
    /// Where to serve the *current* request; `None` = forward to the cloud.
    pub fast: Option<Target>,
    /// Where *future* requests should go; `None` = same as FAST.
    pub best: Option<Target>,
}

impl Choice {
    /// `true` if this decision triggers on-demand deployment *without*
    /// waiting (a BEST cluster differing from FAST's). Deployment is
    /// cluster-granular: differing replicas of one cluster never trigger it.
    pub(crate) fn is_without_waiting(&self) -> bool {
        self.best.is_some() && self.best.map(|t| t.cluster) != self.fast.map(|t| t.cluster)
    }
}

/// A lightweight reference to the service being placed — enough for a
/// scheduler to key decisions on *what* it is placing without dragging the
/// full deployment manifest through the scheduling path.
#[derive(Clone, Copy, Debug)]
pub struct ServiceRef<'a> {
    /// The service's public (cloud) address — its identity.
    pub addr: ServiceAddr,
    /// The service name from its annotated manifest.
    pub name: &'a str,
}

/// Why the Dispatcher is consulting the scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestClass {
    /// First packet of a flow with no memorized redirect.
    NewFlow,
    /// A memorized redirect went stale (the instance scaled down or
    /// vanished), so the flow is being re-placed.
    Rescheduled,
    /// The client moved to a new ingress (gNB) and the session is being
    /// handed over: the scheduler decides whether it stays anchored to the
    /// old zone's instance or re-dispatches to the new zone's nearer edge.
    /// `clusters[i].distance` is measured from the **new** ingress.
    Handover,
}

impl RequestClass {
    /// Short lowercase label (`"new-flow"` / `"rescheduled"` /
    /// `"handover"`), used in trace events.
    pub fn label(self) -> &'static str {
        match self {
            RequestClass::NewFlow => "new-flow",
            RequestClass::Rescheduled => "rescheduled",
            RequestClass::Handover => "handover",
        }
    }
}

/// Everything a [`GlobalScheduler`] sees for one decision: the candidate
/// clusters plus the service being placed, the simulated instant, and why
/// the request reached the scheduler. This is also the tracer's single
/// well-defined decision point — one context in, one [`Choice`] out.
#[derive(Clone, Copy, Debug)]
pub struct SchedulingContext<'a> {
    /// Candidate clusters, in the controller's stable order.
    pub clusters: &'a [ClusterView],
    /// The service being placed.
    pub service: ServiceRef<'a>,
    /// The simulated instant of the decision.
    pub now: SimTime,
    /// Why the scheduler is being consulted.
    pub class: RequestClass,
}

/// A Global Scheduler implementation.
pub trait GlobalScheduler: Send {
    /// The name this scheduler is loaded under.
    fn name(&self) -> &str;

    /// Chooses FAST/BEST for a request. `ctx.clusters` is never reordered
    /// between calls for one controller, so indices are stable.
    fn choose(&mut self, ctx: &SchedulingContext) -> Choice;
}

fn nearest(clusters: &[ClusterView], pred: impl Fn(&ClusterView) -> bool) -> Option<usize> {
    clusters
        .iter()
        .enumerate()
        .filter(|(_, c)| pred(c))
        .min_by_key(|(_, c)| c.distance)
        .map(|(i, _)| i)
}

/// Iterates every schedulable (cluster, instance-view) pair of the ready
/// clusters. A ready cluster without instance state contributes one
/// synthetic idle view for replica 0, so load-aware schedulers degrade to
/// cluster-granular behaviour when tracking is off.
fn ready_instances<'a>(
    clusters: &'a [ClusterView],
) -> impl Iterator<Item = (usize, &'a ClusterView, InstanceView)> + 'a {
    const IDLE: InstanceView = InstanceView {
        instance: 0,
        in_flight: 0,
        backlog: 0,
        concurrency: usize::MAX,
        utilization: 0.0,
        ewma_latency: Duration::ZERO,
    };
    clusters
        .iter()
        .enumerate()
        .filter(|(_, c)| c.state.is_ready() && c.breaker != BreakerState::Open)
        .flat_map(|(i, c)| {
            let idle = c.instances.is_empty().then_some(IDLE);
            idle.into_iter().chain(c.instances.iter().copied()).map(move |v| (i, c, v))
        })
}

/// The default scheduler: always serve from the nearest cluster, deploying
/// there if needed — on-demand deployment **with waiting** (Fig. 5). The
/// evaluation's primary configuration.
#[derive(Default)]
pub struct ProximityScheduler;

impl GlobalScheduler for ProximityScheduler {
    fn name(&self) -> &str {
        "proximity"
    }

    fn choose(&mut self, ctx: &SchedulingContext) -> Choice {
        Choice {
            fast: nearest(ctx.clusters, |_| true).map(Target::sole),
            best: None,
        }
    }
}

/// The low-response-time scheduler: serve the current request from the
/// nearest cluster that *already has a ready instance* (or the cloud if
/// none), while deploying at the nearest cluster for future requests —
/// on-demand deployment **without waiting** (Fig. 3).
#[derive(Default)]
pub(crate) struct LatencyAwareScheduler;

impl GlobalScheduler for LatencyAwareScheduler {
    fn name(&self) -> &str {
        "latency-aware"
    }

    fn choose(&mut self, ctx: &SchedulingContext) -> Choice {
        let optimal = nearest(ctx.clusters, |_| true);
        let running = nearest(ctx.clusters, |c| c.state.is_ready());
        match (running, optimal) {
            // An instance is already running at the optimal spot: done.
            (Some(r), Some(o)) if r == o => Choice { fast: Some(Target::sole(r)), best: None },
            // Serve from the farther running instance, deploy at the optimum.
            (Some(r), o) => Choice {
                fast: Some(Target::sole(r)),
                best: o.filter(|&x| x != r).map(Target::sole),
            },
            // Nothing runs anywhere: current request goes to the cloud while
            // the optimal edge deploys.
            (None, o) => Choice { fast: None, best: o.map(Target::sole) },
        }
    }
}

/// Spreads services round-robin over clusters (load-balancing baseline).
#[derive(Default)]
pub(crate) struct RoundRobinScheduler {
    next: usize,
}

impl GlobalScheduler for RoundRobinScheduler {
    fn name(&self) -> &str {
        "round-robin"
    }

    fn choose(&mut self, ctx: &SchedulingContext) -> Choice {
        if ctx.clusters.is_empty() {
            return Choice { fast: None, best: None };
        }
        // Keep serving from a cluster that already runs the instance.
        if let Some(i) = ctx.clusters.iter().position(|c| c.state.is_ready()) {
            return Choice { fast: Some(Target::sole(i)), best: None };
        }
        let i = self.next % ctx.clusters.len();
        self.next += 1;
        Choice { fast: Some(Target::sole(i)), best: None }
    }
}

/// Section VII's hybrid: answer the first request through a **Docker**
/// cluster (fast start), while deploying on **Kubernetes** in the background
/// for automated management of future requests. Once any instance is ready,
/// the nearest ready one serves — give the K8s cluster a (marginally)
/// smaller distance to hand steady-state traffic over to it.
#[derive(Default)]
pub(crate) struct DockerFirstScheduler;

impl GlobalScheduler for DockerFirstScheduler {
    fn name(&self) -> &str {
        "docker-first"
    }

    fn choose(&mut self, ctx: &SchedulingContext) -> Choice {
        if let Some(r) = nearest(ctx.clusters, |c| c.state.is_ready()) {
            return Choice { fast: Some(Target::sole(r)), best: None };
        }
        let docker = nearest(ctx.clusters, |c| c.kind == "docker");
        let k8s = nearest(ctx.clusters, |c| c.kind == "k8s");
        match (docker, k8s) {
            (Some(d), k) => Choice { fast: Some(Target::sole(d)), best: k.map(Target::sole) },
            (None, k) => Choice { fast: k.map(Target::sole), best: None },
        }
    }
}

/// Never uses the edge: every request goes to the cloud (the no-MEC
/// baseline the transparent approach is compared against).
#[derive(Default)]
pub(crate) struct CloudOnlyScheduler;

impl GlobalScheduler for CloudOnlyScheduler {
    fn name(&self) -> &str {
        "cloud-only"
    }

    fn choose(&mut self, _ctx: &SchedulingContext) -> Choice {
        Choice { fast: None, best: None }
    }
}

/// Uniform-random spreading over ready replicas: the load-blind control arm
/// of the scheduler tournament. Uses its own deterministic generator (a
/// fixed-seed LCG) so tournament runs are byte-identical — it never touches
/// the simulation's RNG streams.
pub(crate) struct RandomScheduler {
    state: u64,
}

impl Default for RandomScheduler {
    fn default() -> Self {
        RandomScheduler { state: 0x9E37_79B9_7F4A_7C15 }
    }
}

impl RandomScheduler {
    fn next(&mut self) -> u64 {
        // Knuth's MMIX LCG; the top bits are the usable ones.
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.state >> 33
    }
}

impl GlobalScheduler for RandomScheduler {
    fn name(&self) -> &str {
        "random"
    }

    fn choose(&mut self, ctx: &SchedulingContext) -> Choice {
        let ready: Vec<usize> = ctx
            .clusters
            .iter()
            .enumerate()
            .filter(|(_, c)| c.state.is_ready())
            .map(|(i, _)| i)
            .collect();
        if ready.is_empty() {
            // Nothing runs yet: deploy-with-waiting at the nearest cluster.
            return Choice {
                fast: nearest(ctx.clusters, |_| true).map(Target::sole),
                best: None,
            };
        }
        let cluster = ready[(self.next() as usize) % ready.len()];
        let n = ctx.clusters[cluster].instances.len().max(1);
        let instance = (self.next() as usize) % n;
        Choice { fast: Some(Target { cluster, instance }), best: None }
    }
}

/// Classic least-connections balancing at instance granularity: admit to
/// the ready replica with the fewest queued-or-in-service requests,
/// preferring replicas below their concurrency limit, breaking ties by
/// distance then stable index. Never picks a saturated replica while a
/// sibling has headroom.
#[derive(Default)]
pub struct LeastConnectionsScheduler;

impl GlobalScheduler for LeastConnectionsScheduler {
    fn name(&self) -> &str {
        "least-connections"
    }

    fn choose(&mut self, ctx: &SchedulingContext) -> Choice {
        let pick = ready_instances(ctx.clusters)
            .min_by_key(|(i, c, v)| (v.at_capacity(), v.queue_depth(), c.distance, *i, v.instance))
            .map(|(i, _, v)| Target { cluster: i, instance: v.instance });
        match pick {
            Some(t) => Choice { fast: Some(t), best: None },
            // Nothing ready anywhere: deploy-with-waiting at the nearest
            // cluster whose breaker has not tripped.
            None => Choice {
                fast: nearest(ctx.clusters, |c| c.breaker != BreakerState::Open)
                    .map(Target::sole),
                best: None,
            },
        }
    }
}

/// Latency-EWMA balancing: scores each ready replica by expected answer
/// time — network round trip plus the replica's observed sojourn EWMA plus
/// the wait implied by its current queue depth — and admits to the lowest
/// score. Reacts to *measured* slowness, not just queue counts.
#[derive(Default)]
pub struct LatencyEwmaScheduler;

impl GlobalScheduler for LatencyEwmaScheduler {
    fn name(&self) -> &str {
        "latency-ewma"
    }

    fn choose(&mut self, ctx: &SchedulingContext) -> Choice {
        // A replica with no history yet is estimated at 5 ms per queued job
        // so a cold replica still pays for a deep queue.
        const COLD_ESTIMATE: Duration = Duration::from_millis(5);
        let pick = ready_instances(ctx.clusters)
            .min_by_key(|(i, c, v)| {
                let per_job =
                    if v.ewma_latency.is_zero() { COLD_ESTIMATE } else { v.ewma_latency };
                let score = 2 * c.distance.as_nanos()
                    + v.ewma_latency.as_nanos()
                    + v.queue_depth() as u64 * per_job.as_nanos();
                (score, *i, v.instance)
            })
            .map(|(i, _, v)| Target { cluster: i, instance: v.instance });
        match pick {
            Some(t) => Choice { fast: Some(t), best: None },
            None => Choice {
                fast: nearest(ctx.clusters, |c| c.breaker != BreakerState::Open)
                    .map(Target::sole),
                best: None,
            },
        }
    }
}

/// Names [`scheduler_by_name`] accepts, in documentation order.
pub(crate) const KNOWN_SCHEDULERS: &[&str] = &[
    "proximity",
    "latency-aware",
    "round-robin",
    "cloud-only",
    "docker-first",
    "random",
    "least-connections",
    "latency-ewma",
];

/// A registry lookup that no built-in component answers to. Shared by the
/// scheduler and predictor registries; the message names the component kind
/// and lists the accepted names so a YAML typo points straight at the fix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownComponent {
    /// What was being looked up (`"scheduler"` / `"predictor"`).
    pub kind: &'static str,
    /// The name that failed to resolve.
    pub requested: String,
    /// Every name the registry accepts, in documentation order.
    pub known: &'static [&'static str],
}

impl std::fmt::Display for UnknownComponent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown {} `{}` (known: {})",
            self.kind,
            self.requested,
            self.known.join(", ")
        )
    }
}

impl std::error::Error for UnknownComponent {}

/// Loads a scheduler by its configured name (the controller's
/// `scheduler = "..."` configuration key).
pub fn scheduler_by_name(name: &str) -> Result<Box<dyn GlobalScheduler>, UnknownComponent> {
    match name {
        "proximity" => Ok(Box::<ProximityScheduler>::default()),
        "latency-aware" => Ok(Box::<LatencyAwareScheduler>::default()),
        "round-robin" => Ok(Box::<RoundRobinScheduler>::default()),
        "cloud-only" => Ok(Box::<CloudOnlyScheduler>::default()),
        "docker-first" => Ok(Box::<DockerFirstScheduler>::default()),
        "random" => Ok(Box::<RandomScheduler>::default()),
        "least-connections" => Ok(Box::<LeastConnectionsScheduler>::default()),
        "latency-ewma" => Ok(Box::<LatencyEwmaScheduler>::default()),
        _ => Err(UnknownComponent {
            kind: "scheduler",
            requested: name.to_owned(),
            known: KNOWN_SCHEDULERS,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::InstanceAddr;
    use netsim::addr::{Ipv4Addr, MacAddr};

    fn ctx<'a>(clusters: &'a [ClusterView]) -> SchedulingContext<'a> {
        SchedulingContext {
            clusters,
            service: ServiceRef {
                addr: ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80),
                name: "svc",
            },
            now: SimTime::ZERO,
            class: RequestClass::NewFlow,
        }
    }

    fn view(us: u64, ready: bool) -> ClusterView {
        ClusterView {
            kind: "docker",
            distance: Duration::from_micros(us),
            image_cached: true,
            state: if ready {
                InstanceState::Ready(InstanceAddr {
                    mac: MacAddr::from_id(1),
                    ip: Ipv4Addr::new(10, 0, 0, 1),
                    port: 31000,
                })
            } else {
                InstanceState::NotDeployed
            },
            breaker: BreakerState::Closed,
            instances: Vec::new(),
        }
    }

    fn iview(instance: usize, in_flight: usize, backlog: usize, concurrency: usize) -> InstanceView {
        InstanceView {
            instance,
            in_flight,
            backlog,
            concurrency,
            utilization: in_flight as f64 / concurrency as f64,
            ewma_latency: Duration::ZERO,
        }
    }

    #[test]
    fn proximity_always_picks_nearest() {
        let mut s = ProximityScheduler;
        let clusters = [view(500, true), view(100, false)];
        let c = s.choose(&ctx(&clusters));
        assert_eq!(c, Choice { fast: Some(Target::sole(1)), best: None });
        assert!(!c.is_without_waiting());
        // Empty cluster list → cloud.
        assert_eq!(s.choose(&ctx(&[])), Choice { fast: None, best: None });
    }

    #[test]
    fn latency_aware_uses_running_far_instance_and_deploys_near() {
        let mut s = LatencyAwareScheduler;
        // Near cluster idle, far cluster running: answer from far, deploy near.
        let clusters = [view(500, true), view(100, false)];
        let c = s.choose(&ctx(&clusters));
        assert_eq!(c, Choice { fast: Some(Target::sole(0)), best: Some(Target::sole(1)) });
        assert!(c.is_without_waiting());
    }

    #[test]
    fn latency_aware_nothing_running_goes_to_cloud_and_deploys() {
        let mut s = LatencyAwareScheduler;
        let clusters = [view(500, false), view(100, false)];
        let c = s.choose(&ctx(&clusters));
        assert_eq!(c, Choice { fast: None, best: Some(Target::sole(1)) });
        assert!(c.is_without_waiting());
    }

    #[test]
    fn latency_aware_optimal_already_running_is_terminal() {
        let mut s = LatencyAwareScheduler;
        let clusters = [view(500, false), view(100, true)];
        let c = s.choose(&ctx(&clusters));
        assert_eq!(c, Choice { fast: Some(Target::sole(1)), best: None });
        assert!(!c.is_without_waiting());
    }

    #[test]
    fn round_robin_rotates_but_sticks_to_running() {
        let mut s = RoundRobinScheduler::default();
        let idle = [view(100, false), view(100, false)];
        assert_eq!(s.choose(&ctx(&idle)).fast, Some(Target::sole(0)));
        assert_eq!(s.choose(&ctx(&idle)).fast, Some(Target::sole(1)));
        assert_eq!(s.choose(&ctx(&idle)).fast, Some(Target::sole(0)));
        let with_running = [view(100, false), view(100, true)];
        assert_eq!(s.choose(&ctx(&with_running)).fast, Some(Target::sole(1)));
    }

    #[test]
    fn cloud_only_never_uses_edge() {
        let mut s = CloudOnlyScheduler;
        let clusters = [view(100, true)];
        assert_eq!(s.choose(&ctx(&clusters)), Choice { fast: None, best: None });
    }

    #[test]
    fn random_is_deterministic_and_stays_on_ready_clusters() {
        let clusters = [view(100, false), view(200, true), view(300, true)];
        let picks: Vec<Choice> = {
            let mut s = RandomScheduler::default();
            (0..32).map(|_| s.choose(&ctx(&clusters))).collect()
        };
        let again: Vec<Choice> = {
            let mut s = RandomScheduler::default();
            (0..32).map(|_| s.choose(&ctx(&clusters))).collect()
        };
        assert_eq!(picks, again, "fixed-seed generator replays exactly");
        for c in &picks {
            let t = c.fast.expect("ready clusters exist");
            assert!(t.cluster == 1 || t.cluster == 2, "never the idle cluster");
        }
        // Nothing ready: falls back to deploy-with-waiting at the nearest.
        let idle = [view(100, false), view(50, false)];
        let mut s = RandomScheduler::default();
        assert_eq!(s.choose(&ctx(&idle)).fast, Some(Target::sole(1)));
    }

    #[test]
    fn least_connections_picks_emptiest_replica() {
        let mut near = view(100, true);
        near.instances = vec![iview(0, 4, 2, 4), iview(1, 2, 0, 4)];
        let mut far = view(500, true);
        far.instances = vec![iview(0, 0, 0, 4)];
        let clusters = [near, far];
        let mut s = LeastConnectionsScheduler;
        // The far replica is idle; both near replicas hold work.
        let c = s.choose(&ctx(&clusters));
        assert_eq!(c.fast, Some(Target { cluster: 1, instance: 0 }));
    }

    #[test]
    fn least_connections_avoids_saturated_replica_with_idle_sibling() {
        let mut near = view(100, true);
        // Replica 0 saturated (at its concurrency limit), replica 1 idle.
        near.instances = vec![iview(0, 4, 3, 4), iview(1, 0, 0, 4)];
        let clusters = [near];
        let mut s = LeastConnectionsScheduler;
        let c = s.choose(&ctx(&clusters));
        assert_eq!(c.fast, Some(Target { cluster: 0, instance: 1 }));
    }

    #[test]
    fn open_breaker_excludes_a_ready_cluster_from_load_aware_choices() {
        // The near cluster is ready, idle — and its breaker is Open. Both
        // load-aware schedulers must take the far (worse) cluster instead:
        // a migration target selection never lands on a tripped zone.
        let mut near = view(100, true);
        near.breaker = BreakerState::Open;
        near.instances = vec![iview(0, 0, 0, 4)];
        let mut far = view(500, true);
        far.instances = vec![iview(0, 3, 1, 4)];
        let clusters = [near, far];
        let c = LeastConnectionsScheduler.choose(&ctx(&clusters));
        assert_eq!(c.fast, Some(Target { cluster: 1, instance: 0 }));
        let c = LatencyEwmaScheduler.choose(&ctx(&clusters));
        assert_eq!(c.fast, Some(Target { cluster: 1, instance: 0 }));
        // Every ready cluster tripped → cloud, not the open zone.
        let mut only = view(100, true);
        only.breaker = BreakerState::Open;
        let c = LeastConnectionsScheduler.choose(&ctx(&[only]));
        assert_eq!(c.fast, None);
    }

    #[test]
    fn latency_ewma_penalizes_slow_and_deep_queues() {
        let mut near = view(100, true);
        near.instances = vec![
            // Deep queue: pays a per-job estimate despite zero EWMA.
            iview(0, 4, 4, 4),
            iview(1, 0, 0, 4),
        ];
        let mut s = LatencyEwmaScheduler;
        let c = s.choose(&ctx(&[near.clone()]));
        assert_eq!(c.fast, Some(Target { cluster: 0, instance: 1 }));
        // A measured-slow replica loses to a fresh one even at equal depth.
        near.instances[1].ewma_latency = Duration::from_millis(200);
        near.instances[1].in_flight = 1;
        near.instances[0] = iview(0, 1, 0, 4);
        let c = s.choose(&ctx(&[near]));
        assert_eq!(c.fast, Some(Target { cluster: 0, instance: 0 }));
    }

    #[test]
    fn target_sole_is_replica_zero() {
        assert_eq!(Target::sole(3), Target { cluster: 3, instance: 0 });
    }

    #[test]
    fn dynamic_loading_by_name() {
        for name in KNOWN_SCHEDULERS {
            let s = scheduler_by_name(name).unwrap();
            assert_eq!(s.name(), *name);
        }
        let err = scheduler_by_name("nope").err().unwrap();
        assert_eq!(err.requested, "nope");
        assert_eq!(err.kind, "scheduler");
        let msg = err.to_string();
        assert!(msg.contains("unknown scheduler `nope`"), "{msg}");
        for name in KNOWN_SCHEDULERS {
            assert!(msg.contains(name), "error must list `{name}`: {msg}");
        }
        let err = scheduler_by_name("predictive").err().unwrap();
        assert_eq!((err.known.len(), err.known), (8, KNOWN_SCHEDULERS));
    }

    #[test]
    fn context_exposes_request_metadata() {
        // Schedulers are no longer blind to what they place: the context
        // carries the service, the instant, and the request class.
        let clusters = [view(100, false)];
        let c = ctx(&clusters);
        assert_eq!(c.service.name, "svc");
        assert_eq!(c.now, SimTime::ZERO);
        assert_eq!(c.class.label(), "new-flow");
        assert_eq!(RequestClass::Rescheduled.label(), "rescheduled");
        assert_eq!(RequestClass::Handover.label(), "handover");
    }
}
