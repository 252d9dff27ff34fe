//! The Dispatcher (Fig. 7): gathers instances, consults the Global
//! Scheduler, and drives the deployment phases.
//!
//! For every table-miss request to a registered service:
//!
//! 1. the FlowMemory is checked — a memorized flow short-circuits everything;
//! 2. otherwise the Dispatcher gathers existing/running instances across all
//!    clusters and passes them to the Global Scheduler;
//! 3. the scheduler's **BEST** choice (if different from FAST) is deployed in
//!    the background (*without waiting*, Fig. 3);
//! 4. the **FAST** choice serves the current request: immediately if ready,
//!    after on-demand deployment *with waiting* (Fig. 5) otherwise, or the
//!    request is forwarded toward the cloud when FAST is empty.
//!
//! Readiness is discovered by port polling: after triggering Scale Up the
//! controller repeatedly probes the service port and only installs the
//! redirect flows once the port answers (Section VI).

use crate::autoscale::{Admission, LoadTracker};
use crate::cluster::{DeployError, EdgeCluster, InstanceAddr, InstanceState};
use crate::flowmemory::{FlowKey, FlowMemory, IngressId};
use crate::health::HealthMonitor;
use crate::scheduler::{
    ClusterView, GlobalScheduler, RequestClass, SchedulingContext, ServiceRef, Target,
};
use crate::service::EdgeService;
use desim::{Duration, FastMap, RetryPolicy, SimRng, SimTime};
use netsim::addr::Ipv4Addr;
use netsim::ServiceAddr;
use telemetry::{SpanId, Spans, Telemetry};

/// Timing breakdown of one dispatch, for the evaluation harness.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseTimes {
    /// Pull phase completion (if a pull ran).
    pub pull_done: Option<SimTime>,
    /// Create phase completion (if a create ran).
    pub create_done: Option<SimTime>,
    /// Scale-up issued at.
    pub scale_up_at: Option<SimTime>,
    /// Scale-up API call returned (Docker: `docker start` done; K8s: scale
    /// acknowledged). Port polling begins here.
    pub(crate) scale_up_done: Option<SimTime>,
    /// Instance actually ready (app accepting connections).
    pub instance_ready: Option<SimTime>,
    /// First successful port probe (flows can be installed from here).
    pub(crate) port_confirmed: Option<SimTime>,
    /// Pull attempts beyond the first (fault recovery).
    pub pull_retries: u32,
    /// Create attempts beyond the first.
    pub create_retries: u32,
    /// Scale-up attempts beyond the first.
    pub scale_up_retries: u32,
    /// When the dispatcher exhausted retries/deadline and released the
    /// request toward the cloud (`None` on success).
    pub(crate) gave_up_at: Option<SimTime>,
}

impl PhaseTimes {
    /// The readiness wait the controller observed: from the scale-up command
    /// *returning* until the port probe succeeded (the quantity of
    /// Figs. 14/15 — "our SDN controller continuously tests whether the
    /// respective port is open").
    pub fn wait_time(&self) -> Option<Duration> {
        Some(self.port_confirmed?.saturating_since(self.scale_up_done?))
    }

    /// Total retry count across all phases.
    pub(crate) fn total_retries(&self) -> u32 {
        self.pull_retries + self.create_retries + self.scale_up_retries
    }
}

/// The outcome of dispatching one request.
#[derive(Clone, Debug)]
pub enum DispatchDecision {
    /// Redirect immediately (instance ready or flow memorized).
    Redirect {
        /// Target instance.
        instance: InstanceAddr,
        /// Cluster index.
        cluster: usize,
    },
    /// On-demand deployment **with waiting**: hold the request, redirect at
    /// `ready_at`.
    WaitThenRedirect {
        /// Target instance.
        instance: InstanceAddr,
        /// Cluster index.
        cluster: usize,
        /// When the redirect can be installed (first successful port probe).
        ready_at: SimTime,
    },
    /// Forward the request toward the cloud.
    ForwardToCloud,
    /// Graceful degradation: a with-waiting deployment exhausted its retries
    /// or deadline, so the held request is released toward the cloud at
    /// `released_at` (the instant the last attempt failed).
    FallbackCloud {
        /// When the dispatcher gave up and released the request.
        released_at: SimTime,
    },
}

impl DispatchDecision {
    /// What a replica queue's answer means for the request it admitted at
    /// `now`: a full queue bounces it to the cloud, a queue wait holds it
    /// until its service starts.
    fn admitted(
        outcome: Admission,
        instance: InstanceAddr,
        cluster: usize,
        now: SimTime,
    ) -> DispatchDecision {
        match outcome {
            Admission::Rejected => DispatchDecision::ForwardToCloud,
            Admission::Served { start, .. } if start > now => DispatchDecision::WaitThenRedirect {
                instance,
                cluster,
                ready_at: start,
            },
            Admission::Served { .. } => DispatchDecision::Redirect { instance, cluster },
        }
    }
}

/// Full dispatch result.
#[derive(Clone, Debug)]
pub struct DispatchOutcome {
    /// What happens to the current request.
    pub decision: DispatchDecision,
    /// When the parallel (BEST-choice) deployment for future requests will
    /// be ready, if one was triggered.
    pub(crate) background: Option<SimTime>,
    /// Phase timing of the foreground deployment (when one ran).
    pub phases: PhaseTimes,
    /// Whether the FlowMemory answered (no scheduling happened).
    pub(crate) from_memory: bool,
}

impl DispatchOutcome {
    /// A request the FlowMemory answered: nothing was scheduled or deployed.
    fn from_memory(decision: DispatchDecision) -> DispatchOutcome {
        DispatchOutcome {
            decision,
            background: None,
            phases: PhaseTimes::default(),
            from_memory: true,
        }
    }
}

/// Whether the instance a redirect points at answers there — the one
/// liveness question memory hits, anchored handovers, the health sweep,
/// reconciliation and the migration flip all ask ([`Dispatcher::serving`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Serving {
    /// It accepts connections now.
    Yes,
    /// It is being deployed — a request may be held for it — and accepts
    /// connections from the contained instant.
    Pending(SimTime),
    /// Nothing answers at that address, and nothing is about to.
    Gone,
}

/// How [`Dispatcher::ensure_ready`] concluded.
enum EnsureOutcome {
    /// Instance ready; flows installable from the contained instant.
    Ready(SimTime),
    /// Genuinely unschedulable (cluster full): callers time out / go to
    /// cloud, exactly as before fault injection existed.
    Unschedulable,
    /// Retries/deadline exhausted at the contained instant; the request is
    /// released toward the cloud.
    GaveUp(SimTime),
}

/// A deployment that exhausted its retries, kept so concurrent requests for
/// the same (service, cluster) coalesce onto the failure instead of driving
/// duplicate phase attempts (successes need no such cache: a second request
/// during scale-up already coalesces via [`InstanceState::Starting`]).
#[derive(Clone, Copy)]
struct FailedDeploy {
    gave_up_at: SimTime,
    phases: PhaseTimes,
}

/// Port-probe interval for readiness polling.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// The Dispatcher component.
pub struct Dispatcher {
    scheduler: Box<dyn GlobalScheduler>,
    /// Single-flight failure cache: deployments that gave up, by
    /// (service, cluster), until their give-up instant passes.
    in_flight: FastMap<(ServiceAddr, usize), FailedDeploy>,
    /// Requests that coalesced onto an in-flight failure.
    coalesced: u64,
    /// Per-instance queue tracking and the horizontal autoscaler state.
    /// Disabled by default: the dispatch path never consults it then.
    tracker: LoadTracker,
    /// Recycled per-decision buffers: the views the scheduler sees, and the
    /// cluster index behind each.
    views: Vec<ClusterView>,
    candidates: Vec<usize>,
    /// Per registered service, one image verdict per cluster: latched once
    /// true (no layer cache evicts), probed while false. Sized when a service
    /// registers or a cluster is added, so a decision only reads and sets it.
    images: FastMap<ServiceAddr, Vec<bool>>,
}

impl Dispatcher {
    /// Creates a dispatcher with the given Global Scheduler. Every
    /// deployment phase runs under the default [`RetryPolicy`].
    pub fn new(scheduler: Box<dyn GlobalScheduler>) -> Dispatcher {
        Dispatcher {
            scheduler,
            in_flight: FastMap::default(),
            coalesced: 0,
            tracker: LoadTracker::default(),
            views: Vec::new(),
            candidates: Vec::new(),
            images: FastMap::default(),
        }
    }

    /// How many requests coalesced onto an already-failed deployment
    /// instead of re-driving the phases (single-flight hits).
    pub fn coalesced_count(&self) -> u64 {
        self.coalesced
    }

    /// The per-instance load tracker (queue state, replica pools).
    pub fn load(&self) -> &LoadTracker {
        &self.tracker
    }

    /// Mutable tracker access for the controller's autoscaler sweep and
    /// pool cleanup on scale-down/repair.
    pub fn load_mut(&mut self) -> &mut LoadTracker {
        &mut self.tracker
    }

    /// Clears the state a controller crash would lose: the single-flight
    /// failure cache (its give-up instants refer to deployments the dead
    /// controller was tracking). Replica pools re-anchor lazily on the next
    /// dispatch.
    pub(crate) fn reset_volatile(&mut self) {
        self.in_flight.clear();
    }

    /// Sizes every service's image verdicts to `n` clusters; a `fresh` registration starts all false.
    pub(crate) fn size_image_verdicts(&mut self, fresh: Option<ServiceAddr>, n: usize) {
        if let Some(addr) = fresh {
            self.images.insert(addr, Vec::new());
        }
        self.images.values_mut().for_each(|v| v.resize(n, false));
    }

    /// Does `instance` on `cluster` serve `svc` at `now`? An address is the
    /// cluster's own when it is the instance's base address or — with
    /// autoscaling on — a replica address the pool derived from it: the pool
    /// vouches for those as long as the base instance itself is up.
    pub(crate) fn serving(
        &self,
        clusters: &[Box<dyn EdgeCluster>],
        svc: &EdgeService,
        cluster: usize,
        instance: InstanceAddr,
        now: SimTime,
    ) -> Serving {
        let Some(c) = clusters.get(cluster) else {
            return Serving::Gone;
        };
        let owns = |base: InstanceAddr| {
            base == instance || self.tracker.index_of(svc.addr, cluster, instance).is_some()
        };
        match c.state(svc, now) {
            InstanceState::Ready(base) if owns(base) => Serving::Yes,
            InstanceState::Starting { ready_at } if c.instance_addr(svc).is_some_and(owns) => {
                Serving::Pending(ready_at)
            }
            _ => Serving::Gone,
        }
    }

    /// Dispatches one request from `client_ip` to `svc` (Fig. 7) arriving at
    /// a specific `ingress` (gNB).
    ///
    /// `distances[i]`, when set, overrides cluster `i`'s advertised latency
    /// with the latency *as seen from this ingress* — in a multi-gNB
    /// topology "nearest edge" depends on which cell the packet entered at.
    /// `base_class` is what the scheduler is told when no memorized flow
    /// intervenes: [`RequestClass::NewFlow`] for ordinary table misses
    /// (which may escalate to `Rescheduled` if a memorized instance
    /// vanished), or [`RequestClass::Handover`] when the controller
    /// re-places a session after an attachment change.
    #[allow(clippy::too_many_arguments)]
    pub fn dispatch_at<S: Spans>(
        &mut self,
        svc: &EdgeService,
        client_ip: Ipv4Addr,
        ingress: IngressId,
        distances: &[Option<Duration>],
        base_class: RequestClass,
        now: SimTime,
        clusters: &mut [Box<dyn EdgeCluster>],
        memory: &mut FlowMemory,
        health: &mut HealthMonitor,
        rng: &mut SimRng,
        tele: &mut Telemetry<S>,
        request: u64,
        parent: SpanId,
    ) -> DispatchOutcome {
        let key = FlowKey {
            ingress,
            client_ip,
            service: svc.addr,
        };

        // 1. Memorized flow? Verify the instance still serves.
        let mut class = base_class;
        if let Some(flow) = memory.lookup(key, now) {
            let cluster = flow.cluster();
            if self.serving(clusters, svc, cluster, flow.instance, now) == Serving::Yes {
                if !self.tracker.enabled() {
                    tele.event(parent, "memory-hit", now, || {
                        format!("memorized redirect to cluster {cluster}")
                    });
                    let instance = flow.instance;
                    let decision = DispatchDecision::Redirect { instance, cluster };
                    return DispatchOutcome::from_memory(decision);
                }
                // Instance-granular path: the memorized address must map
                // back to a live replica, and the request must win a queue
                // slot on it. A full queue bounces this request to the
                // cloud but keeps the flow memorized — the replica is
                // overloaded, not gone.
                if let Some((outcome, instance, idx)) = self
                    .tracker
                    .index_of(svc.addr, cluster, flow.instance)
                    .and_then(|idx| {
                        // The pool can vanish between `index_of` and here
                        // (e.g. state rebuilt after a controller restart);
                        // a miss falls through to the stale path below
                        // instead of panicking mid-dispatch.
                        self.tracker
                            .admit(svc.addr, cluster, idx, now)
                            .map(|(o, a)| (o, a, idx))
                    })
                {
                    tele.event(parent, "memory-hit", now, || {
                        format!("memorized redirect to cluster {cluster} replica {idx}")
                    });
                    let decision = DispatchDecision::admitted(outcome, instance, cluster, now);
                    return DispatchOutcome::from_memory(decision);
                }
                // The memorized replica scaled away: fall through to the
                // stale path and reschedule.
            }
            // Instance vanished (scaled down elsewhere) or not up yet:
            // forget and reschedule. A handover stays a handover — the
            // scheduler still needs to know the session is mid-migration.
            memory.forget_service(svc.addr);
            if class == RequestClass::NewFlow {
                class = RequestClass::Rescheduled;
            }
            tele.event(parent, "memory-stale", now, || {
                "memorized instance vanished; rescheduling".to_owned()
            });
        }

        // 2. Gather views and consult the Global Scheduler. Clusters the
        // health monitor reports unavailable — breaker Open, or inside a
        // declared zone-outage window — are withheld from the candidate
        // list entirely, so no scheduler implementation can pick a flapping
        // zone. `candidates` maps view indices back to cluster indices.
        let tracker = &mut self.tracker;
        let (views, candidates) = (&mut self.views, &mut self.candidates);
        let mut images = self.images.get_mut(&svc.addr);
        views.clear();
        candidates.clear();
        for (i, c) in clusters.iter().enumerate() {
            if !health.available(i, now) {
                let state = health.breaker_state(i);
                tele.event(parent, "cluster-blocked", now, || {
                    format!(
                        "cluster {} withheld from scheduling (breaker {}{})",
                        c.name(),
                        state.label(),
                        if health.in_outage(i, now) { ", zone outage" } else { "" },
                    )
                });
                continue;
            }
            let state = c.state(svc, now);
            // With instance tracking on, a ready cluster exposes its
            // replica queues so load-aware schedulers can split traffic.
            let instances = match state {
                InstanceState::Ready(base) if tracker.enabled() => {
                    tracker.ensure_pool(svc.addr, i, base, now);
                    tracker.views(svc.addr, i, now)
                }
                _ => Vec::new(),
            };
            let image_cached = match images.as_mut().and_then(|v| v.get_mut(i)) {
                Some(latched) => {
                    *latched = *latched || c.has_image_cached(svc);
                    *latched
                }
                None => c.has_image_cached(svc),
            };
            candidates.push(i);
            views.push(ClusterView {
                kind: c.kind(),
                distance: distances.get(i).copied().flatten().unwrap_or_else(|| c.latency()),
                image_cached,
                state,
                breaker: health.breaker_state(i),
                instances,
            });
        }
        let ctx = SchedulingContext {
            clusters: views,
            service: ServiceRef {
                addr: svc.addr,
                name: &svc.name,
            },
            now,
            class,
        };
        let sched_span = tele.span(request, parent, "schedule", now);
        let choice = self.scheduler.choose(&ctx);
        let sched_name = self.scheduler.name();
        let name = |view: usize| clusters[candidates[view]].name().to_owned();
        tele.event(sched_span, "decision", now, || {
            format!(
                "{} ({}): fast={} best={}",
                sched_name,
                class.label(),
                choice.fast.map_or("cloud".to_owned(), |t| name(t.cluster)),
                choice.best.map_or("-".to_owned(), |t| name(t.cluster)),
            )
        });
        tele.end_span(sched_span, now);
        // The scheduler chose among the *available* candidates; translate
        // its view indices back to controller cluster indices (replica
        // indices pass through unchanged).
        let choice = crate::scheduler::Choice {
            fast: choice.fast.map(|t| Target { cluster: candidates[t.cluster], ..t }),
            best: choice.best.map(|t| Target { cluster: candidates[t.cluster], ..t }),
        };

        // 3. BEST in another cluster than FAST: deploy it in the background
        // (without waiting). Deployment is cluster-granular — a different
        // replica of the same cluster is a balancing decision, not one that
        // spawns a deployment.
        let background = match choice.best {
            Some(b) if choice.is_without_waiting() => {
                let mut phases = PhaseTimes::default();
                let bg_span = tele.span(request, parent, "background-deploy", now);
                let outcome = self.ensure_ready(
                    svc, b.cluster, now, clusters, health, &mut phases, rng, tele, request, bg_span,
                );
                // An unschedulable one never becomes ready; a failed one
                // leaves nothing for future requests: nothing to advertise.
                let (ended, ready_at) = match outcome {
                    EnsureOutcome::Ready(at) => (at, Some(at)),
                    EnsureOutcome::Unschedulable => (now, Some(SimTime::MAX)),
                    EnsureOutcome::GaveUp(at) => (at, None),
                };
                tele.end_span(bg_span, ended);
                ready_at
            }
            _ => None,
        };

        // 4. FAST serves the current request.
        let answer = move |decision, phases| DispatchOutcome {
            decision,
            background,
            phases,
            from_memory: false,
        };
        let mut phases = PhaseTimes::default();
        let Some(f) = choice.fast else {
            return answer(DispatchDecision::ForwardToCloud, phases);
        };
        let cluster = f.cluster;
        if let InstanceState::Ready(base) = clusters[cluster].state(svc, now) {
            if !self.tracker.enabled() {
                memory.memorize(key, base, cluster, now);
                let decision = DispatchDecision::Redirect { instance: base, cluster };
                return answer(decision, phases);
            }
            // Admit into the chosen replica's queue: the queue wait (if
            // any) surfaces as a WaitThenRedirect, a full queue bounces
            // to the cloud — overload is observable in answer delay.
            self.tracker.ensure_pool(svc.addr, cluster, base, now);
            let Some((outcome, instance)) = self.tracker.admit(svc.addr, cluster, f.instance, now)
            else {
                // The pool the scheduler saw is gone (it can only have
                // been torn down between the view and this admit, e.g.
                // by a concurrent repair): degrade to the cloud rather
                // than panic on a hot-path invariant.
                return answer(DispatchDecision::ForwardToCloud, phases);
            };
            let decision = DispatchDecision::admitted(outcome, instance, cluster, now);
            if matches!(decision, DispatchDecision::ForwardToCloud) {
                tele.event(parent, "queue-reject", now, || {
                    format!("replica queue full on cluster {cluster}; to cloud")
                });
            } else {
                memory.memorize(key, instance, cluster, now);
            }
            return answer(decision, phases);
        }

        // On-demand deployment with waiting.
        let deploy_span = tele.span(request, parent, "deploy", now);
        let outcome = self.ensure_ready(
            svc, cluster, now, clusters, health, &mut phases, rng, tele, request, deploy_span,
        );
        let ready_at = match outcome {
            EnsureOutcome::Ready(t) => {
                tele.end_span(deploy_span, t);
                t
            }
            EnsureOutcome::Unschedulable => {
                tele.end_span(deploy_span, now);
                // Deployment cannot complete (e.g. unschedulable): fall back.
                return answer(DispatchDecision::ForwardToCloud, phases);
            }
            EnsureOutcome::GaveUp(released_at) => {
                tele.end_span(deploy_span, released_at);
                // Graceful degradation: release the held request toward the
                // cloud once the last attempt has failed.
                return answer(DispatchDecision::FallbackCloud { released_at }, phases);
            }
        };
        let Some(base) = clusters[cluster].instance_addr(svc) else {
            // `ensure_ready` said Ready but the instance has no address —
            // the deployment was reaped between the readiness check and
            // here. Treat like any other unschedulable outcome.
            return answer(DispatchDecision::ForwardToCloud, phases);
        };
        let (instance, ready_at) = if self.tracker.enabled() {
            // The fresh deployment anchors (or re-anchors, after a
            // redeploy on a new port) the replica pool; the request is
            // admitted the instant the instance is up.
            self.tracker.ensure_pool(svc.addr, cluster, base, ready_at);
            match self.tracker.admit(svc.addr, cluster, f.instance, ready_at) {
                Some((Admission::Served { start, .. }, addr)) => (addr, start.max(ready_at)),
                // A pre-existing saturated pool (same base survived the
                // redeploy): bounce to the cloud like any full queue.
                Some((Admission::Rejected, _)) | None => {
                    return answer(DispatchDecision::ForwardToCloud, phases);
                }
            }
        } else {
            (base, ready_at)
        };
        memory.memorize(key, instance, cluster, ready_at);
        answer(DispatchDecision::WaitThenRedirect { instance, cluster, ready_at }, phases)
    }

    /// Drives the missing phases on `cluster` until the instance is ready,
    /// retrying failed phases under the configured [`RetryPolicy`]. Each
    /// phase gets a child span of `span`; retry attempts and injected
    /// faults surface as events on it.
    #[allow(clippy::too_many_arguments)]
    fn ensure_ready<S: Spans>(
        &mut self,
        svc: &EdgeService,
        cluster: usize,
        now: SimTime,
        clusters: &mut [Box<dyn EdgeCluster>],
        health: &mut HealthMonitor,
        phases: &mut PhaseTimes,
        rng: &mut SimRng,
        tele: &mut Telemetry<S>,
        request: u64,
        span: SpanId,
    ) -> EnsureOutcome {
        let key = (svc.addr, cluster);
        // Single-flight on *failures*: while a give-up instant lies in the
        // future, concurrent requests coalesce onto it instead of re-driving
        // (and re-failing) the phases.
        if let Some(failed) = self.in_flight.get(&key) {
            if now < failed.gave_up_at {
                self.coalesced += 1;
                *phases = failed.phases;
                let gave_up_at = failed.gave_up_at;
                tele.event(span, "coalesced", now, || {
                    format!("joined in-flight failure; gives up at {gave_up_at}")
                });
                return EnsureOutcome::GaveUp(gave_up_at);
            }
            self.in_flight.remove(&key);
        }
        let policy = RetryPolicy::default();
        let c = &mut clusters[cluster];
        let state = c.state(svc, now);
        let deployed = match state {
            InstanceState::Ready(_) => Ok(now),
            InstanceState::Starting { ready_at } => {
                tele.event(span, "join-starting", now, || {
                    format!("instance already starting; ready at {ready_at}")
                });
                Ok(ready_at)
            }
            InstanceState::NotDeployed | InstanceState::Created => (|| {
                let mut t = now;
                // Created: images were necessarily pulled before create.
                if state == InstanceState::NotDeployed {
                    if !c.has_image_cached(svc) {
                        let pull = (request, span, "deploy-pull");
                        let retries = &mut phases.pull_retries;
                        let op = |t, rng: &mut SimRng| c.pull(svc, t, rng);
                        t = with_retries(policy, t, retries, rng, tele, pull, op, |&done| done)?;
                        phases.pull_done = Some(t);
                    }
                    let create = (request, span, "deploy-create");
                    let retries = &mut phases.create_retries;
                    let op = |t, rng: &mut SimRng| c.create(svc, t, rng);
                    t = with_retries(policy, t, retries, rng, tele, create, op, |&done| done)?;
                    phases.create_done = Some(t);
                }
                phases.scale_up_at = Some(t);
                let scale_up = (request, span, "deploy-scale-up");
                let retries = &mut phases.scale_up_retries;
                let op = |t, rng: &mut SimRng| c.scale_up(svc, t, rng);
                let (done, ready) =
                    with_retries(policy, t, retries, rng, tele, scale_up, op, |&(done, _)| done)?;
                phases.scale_up_done = Some(done);
                Ok(ready)
            })(),
        };
        let ready_at = match deployed {
            Ok(ready_at) => ready_at,
            Err(failed_at) => return self.give_up(key, failed_at, phases, health),
        };
        if ready_at == SimTime::MAX {
            tele.event(span, "unschedulable", now, || {
                "cluster cannot schedule the instance".to_owned()
            });
            return EnsureOutcome::Unschedulable;
        }
        phases.instance_ready = Some(ready_at);
        // Port polling: probes run every `POLL_INTERVAL` from the moment the
        // scale-up command returned (or from `now` when no deployment ran);
        // the first probe at or after readiness confirms.
        let base = phases.scale_up_done.unwrap_or(now).max(now);
        let ready_for_poll = ready_at.max(base);
        let confirmed = next_poll_at(base, ready_for_poll);
        phases.port_confirmed = Some(confirmed);
        tele.event(span, "port-confirmed", confirmed, || {
            format!(
                "port probe succeeded (instance ready {ready_at}, polled every {})",
                desim::fmt_duration(POLL_INTERVAL)
            )
        });
        // A confirmed instance is breaker feedback: closes a half-open
        // probe and resets the cluster's failure streak.
        health.record_success(cluster);
        EnsureOutcome::Ready(confirmed)
    }

    /// Records an exhausted deployment in the single-flight failure cache
    /// and reports the give-up instant.
    fn give_up(
        &mut self,
        key: (ServiceAddr, usize),
        at: SimTime,
        phases: &mut PhaseTimes,
        health: &mut HealthMonitor,
    ) -> EnsureOutcome {
        phases.gave_up_at = Some(at);
        // Breaker feedback: coalesced joiners don't re-record — one
        // exhausted deployment is one failure.
        health.record_failure(key.1, at);
        self.in_flight.insert(key, FailedDeploy { gave_up_at: at, phases: *phases });
        EnsureOutcome::GaveUp(at)
    }
}

/// One deployment phase: runs `op` under the retry policy inside a child
/// span (`request`, parent, name) — on failure, waits out an
/// exponential-backoff-with-jitter delay and tries again, until the attempt
/// budget or the phase deadline is exhausted. Returns the last failure
/// instant on give-up. The jitter draw only happens *after* a failure, so a
/// first-try success (the whole zero-fault world) consumes no extra
/// randomness. Every failed attempt surfaces as a `fault` event on the span
/// (with a `retry` or `gave-up` follow-up), so injected faults are visible
/// in the request's trace; the span closes when the phase's command
/// returned (`done` of its result) or its last attempt failed.
#[allow(clippy::too_many_arguments)]
fn with_retries<T, S: Spans>(
    policy: RetryPolicy,
    phase_start: SimTime,
    retries: &mut u32,
    rng: &mut SimRng,
    tele: &mut Telemetry<S>,
    (request, parent, name): (u64, SpanId, &str),
    mut op: impl FnMut(SimTime, &mut SimRng) -> Result<T, DeployError>,
    done: impl Fn(&T) -> SimTime,
) -> Result<T, SimTime> {
    let span = tele.span(request, parent, name, phase_start);
    let mut t = phase_start;
    let mut attempt: u32 = 0;
    let result = loop {
        match op(t, rng) {
            Ok(v) => break Ok(v),
            Err(e) => {
                let failed_at = e.at.max(t);
                tele.event(span, "fault", failed_at, || e.to_string());
                attempt += 1;
                if attempt >= policy.max_attempts {
                    tele.event(span, "gave-up", failed_at, || {
                        format!("attempt budget exhausted after {attempt} attempts")
                    });
                    break Err(failed_at);
                }
                let next = failed_at + policy.delay(attempt - 1, rng);
                if next > phase_start + policy.phase_deadline {
                    tele.event(span, "gave-up", failed_at, || {
                        format!("phase deadline exceeded after {attempt} attempts")
                    });
                    break Err(failed_at);
                }
                *retries += 1;
                tele.event(span, "retry", next, || {
                    format!("attempt {} backing off until {next}", attempt + 1)
                });
                t = next;
            }
        }
    };
    let ended = match &result {
        Ok(v) => done(v),
        Err(failed_at) => *failed_at,
    };
    tele.end_span(span, ended);
    result
}

/// First poll tick at or after `ready`, with ticks at `base + k*POLL_INTERVAL`
/// (k ≥ 1; the probe right at scale-up would always fail).
fn next_poll_at(base: SimTime, ready: SimTime) -> SimTime {
    debug_assert!(ready >= base);
    let gap = ready.saturating_since(base).as_nanos();
    let step = POLL_INTERVAL.as_nanos();
    let k = gap.div_ceil(step).max(1);
    base + Duration::from_nanos(k * step)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::DockerCluster;
    use crate::scheduler::{LatencyAwareScheduler, ProximityScheduler};
    use dockersim::DockerEngine;
    use netsim::addr::MacAddr;
    use netsim::ServiceAddr;

    fn make_service(key: &str) -> EdgeService {
        let profile = containerd::ServiceSet::by_key(key).unwrap();
        let addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80);
        EdgeService::from_profile(profile, addr)
    }

    fn docker(name: &str, id: u32, latency_us: u64, cached: bool, rng: &mut SimRng) -> Box<dyn EdgeCluster> {
        let mut engine = DockerEngine::with_defaults();
        if cached {
            engine.pull(&containerd::ServiceSet::by_key("asm").unwrap().manifests, rng);
        }
        Box::new(DockerCluster::new(
            name,
            engine,
            MacAddr::from_id(id),
            Ipv4Addr::new(10, 0, id as u8, 1),
            Duration::from_micros(latency_us),
        ))
    }

    /// One untraced default-ingress dispatch against a throwaway health
    /// monitor, so breaker feedback does not carry from one call to the
    /// next (tests that want breakers own one: [`dispatch_with`]).
    fn dispatch(
        d: &mut Dispatcher,
        svc: &EdgeService,
        client_ip: Ipv4Addr,
        now: SimTime,
        clusters: &mut [Box<dyn EdgeCluster>],
        memory: &mut FlowMemory,
        rng: &mut SimRng,
    ) -> DispatchOutcome {
        d.dispatch_at(
            svc,
            client_ip,
            IngressId::DEFAULT,
            &[],
            RequestClass::NewFlow,
            now,
            clusters,
            memory,
            &mut HealthMonitor::default(),
            rng,
            &mut Telemetry::<telemetry::Off>::default(),
            0,
            SpanId::NONE,
        )
    }

    fn docker_faulty(
        name: &str,
        id: u32,
        plan: desim::FaultPlan,
        label: u64,
        rng: &mut SimRng,
    ) -> Box<dyn EdgeCluster> {
        let mut engine = DockerEngine::with_defaults();
        engine.pull(&containerd::ServiceSet::by_key("asm").unwrap().manifests, rng);
        engine.node_mut().set_faults(plan.injector(label));
        Box::new(DockerCluster::new(
            name,
            engine,
            MacAddr::from_id(id),
            Ipv4Addr::new(10, 0, id as u8, 1),
            Duration::from_micros(100),
        ))
    }

    #[test]
    fn with_waiting_deploys_on_nearest_and_waits() {
        let mut rng = SimRng::new(1);
        let svc = make_service("asm");
        let mut clusters = vec![docker("near", 1, 100, true, &mut rng)];
        let mut memory = FlowMemory::new(Duration::from_secs(30));
        let mut d = Dispatcher::new(Box::<ProximityScheduler>::default());

        let now = SimTime::from_secs(1);
        let out = dispatch(&mut d, &svc, Ipv4Addr::new(192, 168, 1, 20), now, &mut clusters, &mut memory, &mut rng);
        assert!(!out.from_memory);
        let DispatchDecision::WaitThenRedirect { ready_at, cluster, .. } = out.decision else {
            panic!("expected with-waiting: {:?}", out.decision);
        };
        assert_eq!(cluster, 0);
        // Cached asm on Docker: waiting stays sub-second ("as low as 0.5 s").
        assert!(ready_at - now < Duration::from_secs(1), "{}", ready_at - now);
        // Phases: no pull (cached), but create + scale-up + port confirm.
        assert!(out.phases.pull_done.is_none());
        assert!(out.phases.create_done.is_some());
        assert!(out.phases.port_confirmed.unwrap() >= out.phases.instance_ready.unwrap());
        // Port probes are discretized to the poll grid (based at the
        // scale-up command's return).
        let base = out.phases.scale_up_done.unwrap();
        let gap = out.phases.port_confirmed.unwrap().saturating_since(base).as_nanos();
        assert_eq!(gap % POLL_INTERVAL.as_nanos(), 0);

        // Second request from the same client: memorized, immediate.
        let later = ready_at + Duration::from_secs(1);
        let out2 = dispatch(&mut d, &svc, Ipv4Addr::new(192, 168, 1, 20), later, &mut clusters, &mut memory, &mut rng);
        assert!(out2.from_memory);
        assert!(matches!(out2.decision, DispatchDecision::Redirect { .. }));
    }

    #[test]
    fn without_waiting_serves_from_far_and_deploys_near() {
        let mut rng = SimRng::new(2);
        let svc = make_service("asm");
        // Far cluster already runs the service; near is empty.
        let mut clusters = vec![
            docker("far", 1, 900, true, &mut rng),
            docker("near", 2, 100, true, &mut rng),
        ];
        // Pre-deploy on far.
        let t0 = SimTime::ZERO;
        let t = clusters[0].pull(&svc, t0, &mut rng).unwrap();
        let t = clusters[0].create(&svc, t, &mut rng).unwrap();
        let (_, far_ready) = clusters[0].scale_up(&svc, t, &mut rng).unwrap();

        let mut memory = FlowMemory::new(Duration::from_secs(30));
        let mut d = Dispatcher::new(Box::<LatencyAwareScheduler>::default());
        let now = far_ready + Duration::from_secs(1);
        let out = dispatch(&mut d, &svc, Ipv4Addr::new(192, 168, 1, 20), now, &mut clusters, &mut memory, &mut rng);
        // Current request: immediate redirect to the far instance.
        let DispatchDecision::Redirect { cluster, .. } = out.decision else {
            panic!("expected immediate redirect: {:?}", out.decision);
        };
        assert_eq!(cluster, 0);
        // Background: near cluster deploying.
        let ready_at = out.background.expect("background deployment");
        assert!(ready_at > now);

        // After the near instance is up, a *new* client is redirected there.
        let later = ready_at + Duration::from_secs(1);
        let out2 = dispatch(&mut d, &svc, Ipv4Addr::new(192, 168, 1, 21), later, &mut clusters, &mut memory, &mut rng);
        let DispatchDecision::Redirect { cluster, .. } = out2.decision else {
            panic!("expected redirect: {:?}", out2.decision);
        };
        assert_eq!(cluster, 1, "future requests go to the optimal edge");
        assert!(out2.background.is_none());
    }

    #[test]
    fn nothing_running_without_waiting_goes_to_cloud() {
        let mut rng = SimRng::new(3);
        let svc = make_service("asm");
        let mut clusters = vec![docker("near", 1, 100, true, &mut rng)];
        let mut memory = FlowMemory::new(Duration::from_secs(30));
        let mut d = Dispatcher::new(Box::<LatencyAwareScheduler>::default());
        let out = dispatch(&mut d, &svc, Ipv4Addr::new(192, 168, 1, 20), SimTime::ZERO, &mut clusters, &mut memory, &mut rng);
        assert!(matches!(out.decision, DispatchDecision::ForwardToCloud));
        assert!(out.background.is_some(), "deployment still triggered");
    }

    #[test]
    fn uncached_image_includes_pull_phase() {
        let mut rng = SimRng::new(4);
        let svc = make_service("nginx");
        let mut clusters = vec![docker("near", 1, 100, false, &mut rng)];
        let mut memory = FlowMemory::new(Duration::from_secs(30));
        let mut d = Dispatcher::new(Box::<ProximityScheduler>::default());
        let now = SimTime::ZERO;
        let out = dispatch(&mut d, &svc, Ipv4Addr::new(192, 168, 1, 20), now, &mut clusters, &mut memory, &mut rng);
        let DispatchDecision::WaitThenRedirect { ready_at, .. } = out.decision else {
            panic!("expected with-waiting");
        };
        assert!(out.phases.pull_done.is_some(), "pull phase ran");
        // Pull pushes the total beyond the cached sub-second band.
        assert!(ready_at - now > Duration::from_secs(2), "{}", ready_at - now);
        let wait = out.phases.wait_time().unwrap();
        assert!(wait < ready_at - now, "wait is a component of the total");
    }

    #[test]
    fn second_client_hits_running_instance_without_memory() {
        let mut rng = SimRng::new(5);
        let svc = make_service("asm");
        let mut clusters = vec![docker("near", 1, 100, true, &mut rng)];
        let mut memory = FlowMemory::new(Duration::from_secs(30));
        let mut d = Dispatcher::new(Box::<ProximityScheduler>::default());
        let out = dispatch(&mut d, &svc, Ipv4Addr::new(192, 168, 1, 20), SimTime::ZERO, &mut clusters, &mut memory, &mut rng);
        let DispatchDecision::WaitThenRedirect { ready_at, .. } = out.decision else {
            panic!()
        };
        // Different client, after readiness: scheduler runs but redirect is
        // immediate (instance ready), no new deployment.
        let out2 = dispatch(&mut d, &svc, Ipv4Addr::new(192, 168, 1, 99), ready_at + Duration::from_secs(1), &mut clusters, &mut memory, &mut rng);
        assert!(!out2.from_memory);
        assert!(matches!(out2.decision, DispatchDecision::Redirect { .. }));
        assert!(out2.phases.scale_up_at.is_none(), "no deployment phases ran");
    }

    #[test]
    fn concurrent_requests_coalesce_on_the_starting_instance() {
        // Regression: a second request arriving while the first one's
        // scale-up is still in flight must NOT kick off a duplicate
        // deployment of the same (service, cluster).
        let mut rng = SimRng::new(11);
        let svc = make_service("asm");
        let mut clusters = vec![docker("near", 1, 100, true, &mut rng)];
        let mut memory = FlowMemory::new(Duration::from_secs(30));
        let mut d = Dispatcher::new(Box::<ProximityScheduler>::default());

        let now = SimTime::from_secs(1);
        let out = dispatch(&mut d, &svc, Ipv4Addr::new(192, 168, 1, 20), now, &mut clusters, &mut memory, &mut rng);
        let DispatchDecision::WaitThenRedirect { ready_at, .. } = out.decision else {
            panic!("expected with-waiting");
        };
        // Second client lands mid-deployment.
        let mid = now + (ready_at - now) / 2;
        let out2 = dispatch(&mut d, &svc, Ipv4Addr::new(192, 168, 1, 21), mid, &mut clusters, &mut memory, &mut rng);
        let DispatchDecision::WaitThenRedirect { ready_at: r2, .. } = out2.decision else {
            panic!("expected with-waiting for the second client: {:?}", out2.decision);
        };
        assert!(out2.phases.scale_up_at.is_none(), "no duplicate deployment phases");
        assert!(r2 + POLL_INTERVAL >= ready_at, "waits for the same instance");
        // Only one container set exists on the cluster.
        let count = clusters[0]
            .instance_addr(&svc)
            .map(|_| 1)
            .unwrap_or(0);
        assert_eq!(count, 1);
    }

    #[test]
    fn exhausted_deployment_falls_back_to_cloud_and_coalesces() {
        use desim::FaultPlan;
        let mut rng = SimRng::new(12);
        let svc = make_service("asm");
        // Every create fails: the with-waiting deployment exhausts its
        // retries and releases the request toward the cloud.
        let plan = FaultPlan {
            create_failure: 1.0,
            ..FaultPlan::default()
        };
        let mut clusters = vec![docker_faulty("near", 1, plan, 0x41, &mut rng)];
        let mut memory = FlowMemory::new(Duration::from_secs(30));
        let mut d = Dispatcher::new(Box::<ProximityScheduler>::default());

        let now = SimTime::from_secs(1);
        let out = dispatch(&mut d, &svc, Ipv4Addr::new(192, 168, 1, 20), now, &mut clusters, &mut memory, &mut rng);
        let DispatchDecision::FallbackCloud { released_at } = out.decision else {
            panic!("expected cloud fallback: {:?}", out.decision);
        };
        assert!(released_at > now, "failed attempts cost time");
        assert_eq!(out.phases.create_retries, RetryPolicy::default().max_attempts - 1);
        assert_eq!(out.phases.gave_up_at, Some(released_at));
        assert!(out.phases.port_confirmed.is_none());

        // A second request before the give-up instant coalesces instead of
        // re-driving (and re-failing) the phases.
        let mid = now + (released_at - now) / 2;
        let out2 = dispatch(&mut d, &svc, Ipv4Addr::new(192, 168, 1, 21), mid, &mut clusters, &mut memory, &mut rng);
        let DispatchDecision::FallbackCloud { released_at: r2 } = out2.decision else {
            panic!("expected coalesced fallback: {:?}", out2.decision);
        };
        assert_eq!(r2, released_at, "coalesced onto the same failure");
        assert_eq!(d.coalesced_count(), 1);
        assert_eq!(out2.phases.create_retries, out.phases.create_retries);

        // After the give-up instant passes, a fresh attempt is made.
        let later = released_at + Duration::from_secs(1);
        let out3 = dispatch(&mut d, &svc, Ipv4Addr::new(192, 168, 1, 22), later, &mut clusters, &mut memory, &mut rng);
        let DispatchDecision::FallbackCloud { released_at: r3 } = out3.decision else {
            panic!("expected a fresh failing attempt: {:?}", out3.decision);
        };
        assert!(r3 > released_at, "new attempt, new give-up instant");
        assert_eq!(d.coalesced_count(), 1, "no coalescing after the window");
    }

    #[test]
    fn transient_faults_are_absorbed_by_retries() {
        use desim::FaultPlan;
        // Sweep plan seeds: at a 40% create-failure rate some dispatches
        // recover via retries and some exhaust the budget — both paths must
        // stay panic-free and internally consistent.
        let mut recovered = 0u32;
        let mut fell_back = 0u32;
        for plan_seed in 0..40u64 {
            let mut rng = SimRng::new(13);
            let svc = make_service("asm");
            let plan = FaultPlan {
                create_failure: 0.4,
                seed: plan_seed,
                ..FaultPlan::default()
            };
            let mut clusters = vec![docker_faulty("near", 1, plan, 0x42, &mut rng)];
            let mut memory = FlowMemory::new(Duration::from_secs(30));
            let mut d = Dispatcher::new(Box::<ProximityScheduler>::default());
            let out = dispatch(
                &mut d,
                &svc,
                Ipv4Addr::new(192, 168, 1, 20),
                SimTime::from_secs(1),
                &mut clusters,
                &mut memory,
                &mut rng,
            );
            match out.decision {
                DispatchDecision::WaitThenRedirect { .. } => {
                    if out.phases.total_retries() > 0 {
                        recovered += 1;
                    }
                }
                DispatchDecision::FallbackCloud { .. } => fell_back += 1,
                other => panic!("unexpected decision: {other:?}"),
            }
        }
        assert!(recovered > 0, "some runs recover via retries");
        assert!(fell_back > 0, "some runs exhaust the budget");
    }

    /// One untraced default-ingress dispatch against the caller's own
    /// health monitor, so breaker state carries across calls.
    #[allow(clippy::too_many_arguments)]
    fn dispatch_with(
        d: &mut Dispatcher,
        health: &mut HealthMonitor,
        svc: &EdgeService,
        client_last: u8,
        now: SimTime,
        clusters: &mut [Box<dyn EdgeCluster>],
        memory: &mut FlowMemory,
        rng: &mut SimRng,
    ) -> DispatchOutcome {
        d.dispatch_at(
            svc,
            Ipv4Addr::new(192, 168, 1, client_last),
            IngressId::DEFAULT,
            &[],
            RequestClass::NewFlow,
            now,
            clusters,
            memory,
            health,
            rng,
            &mut Telemetry::<telemetry::Off>::default(),
            0,
            SpanId::NONE,
        )
    }

    #[test]
    fn breaker_opens_after_consecutive_give_ups_and_gates_scheduling() {
        use crate::health::BreakerState;
        use desim::FaultPlan;
        let mut rng = SimRng::new(21);
        let svc = make_service("asm");
        let plan = FaultPlan {
            create_failure: 1.0,
            ..FaultPlan::default()
        };
        let mut clusters = vec![docker_faulty("near", 1, plan, 0x51, &mut rng)];
        let mut memory = FlowMemory::new(Duration::from_secs(30));
        let mut health = HealthMonitor::default();
        let mut d = Dispatcher::new(Box::<ProximityScheduler>::default());

        // Three fresh give-ups trip the breaker (default threshold 3). Each
        // request starts after the previous failure's give-up window so none
        // coalesce.
        let mut now = SimTime::from_secs(1);
        for i in 0..3u8 {
            let out = dispatch_with(&mut d, &mut health, &svc, 20 + i, now, &mut clusters, &mut memory, &mut rng);
            let DispatchDecision::FallbackCloud { released_at } = out.decision else {
                panic!("expected fallback: {:?}", out.decision);
            };
            now = released_at + Duration::from_secs(1);
        }
        assert_eq!(health.breaker_state(0), BreakerState::Open);

        // While Open, the only cluster is withheld: straight to cloud with
        // no deployment attempt (no phases, no held request).
        let out = dispatch_with(&mut d, &mut health, &svc, 30, now, &mut clusters, &mut memory, &mut rng);
        assert!(matches!(out.decision, DispatchDecision::ForwardToCloud), "{:?}", out.decision);
        assert!(out.phases.scale_up_at.is_none() && out.phases.gave_up_at.is_none());

        // After the cooldown the half-open probe re-attempts (and, still
        // faulty, re-opens with a fresh cooldown).
        let probe_at = now + crate::health::BREAKER_COOLDOWN;
        let out = dispatch_with(&mut d, &mut health, &svc, 31, probe_at, &mut clusters, &mut memory, &mut rng);
        assert!(matches!(out.decision, DispatchDecision::FallbackCloud { .. }), "{:?}", out.decision);
        assert_eq!(health.breaker_state(0), BreakerState::Open, "failed probe re-opens");
    }

    #[test]
    fn half_open_probe_success_closes_the_breaker() {
        use crate::health::BreakerState;
        let mut rng = SimRng::new(22);
        let svc = make_service("asm");
        let mut clusters = vec![docker("near", 1, 100, true, &mut rng)];
        let mut memory = FlowMemory::new(Duration::from_secs(30));
        let mut health = HealthMonitor::default();
        let mut d = Dispatcher::new(Box::<ProximityScheduler>::default());
        // Trip the breaker by hand (as the controller's crash detector does).
        let t = SimTime::from_secs(1);
        for _ in 0..3 {
            health.record_failure(0, t);
        }
        assert_eq!(health.breaker_state(0), BreakerState::Open);
        // The healthy cluster's probe succeeds and closes the breaker.
        let probe_at = t + crate::health::BREAKER_COOLDOWN;
        let out = dispatch_with(&mut d, &mut health, &svc, 20, probe_at, &mut clusters, &mut memory, &mut rng);
        assert!(matches!(out.decision, DispatchDecision::WaitThenRedirect { .. }), "{:?}", out.decision);
        assert_eq!(health.breaker_state(0), BreakerState::Closed);
    }

    #[test]
    fn outaged_zone_is_withheld_and_restored() {
        let mut rng = SimRng::new(23);
        let svc = make_service("asm");
        let mut clusters = vec![
            docker("zone-a", 1, 100, true, &mut rng),
            docker("zone-b", 2, 500, true, &mut rng),
        ];
        let mut memory = FlowMemory::new(Duration::from_secs(30));
        let mut health = HealthMonitor::default();
        let mut d = Dispatcher::new(Box::<ProximityScheduler>::default());
        let t = SimTime::from_secs(1);
        // Zone A (the nearest) goes dark: dispatch lands on zone B.
        health.begin_outage(0, t + Duration::from_secs(30));
        let out = dispatch_with(&mut d, &mut health, &svc, 20, t, &mut clusters, &mut memory, &mut rng);
        let DispatchDecision::WaitThenRedirect { cluster, ready_at, .. } = out.decision else {
            panic!("expected deployment on the surviving zone: {:?}", out.decision);
        };
        assert_eq!(cluster, 1, "outaged zone withheld; index maps back to zone-b");
        // After the outage window, a new client is placed on zone A again.
        let later = (t + Duration::from_secs(30)).max(ready_at + Duration::from_secs(1));
        let out = dispatch_with(&mut d, &mut health, &svc, 21, later, &mut clusters, &mut memory, &mut rng);
        match out.decision {
            DispatchDecision::WaitThenRedirect { cluster, .. } => assert_eq!(cluster, 0),
            other => panic!("expected zone-a deployment: {other:?}"),
        }
    }

    #[test]
    fn poll_grid_arithmetic() {
        let base = SimTime::from_secs(10);
        // Ready exactly at base: first probe still waits one interval.
        assert_eq!(next_poll_at(base, base), base + POLL_INTERVAL);
        // Ready mid-interval (25 ms ticks): round up.
        assert_eq!(
            next_poll_at(base, base + Duration::from_millis(26)),
            base + Duration::from_millis(50)
        );
        // Ready exactly on a tick: confirmed on that tick.
        assert_eq!(
            next_poll_at(base, base + Duration::from_millis(50)),
            base + Duration::from_millis(50)
        );
    }

    /// A cluster whose layer store is one flag, counting how often it is asked.
    struct ImageFlag {
        cached: std::rc::Rc<std::cell::Cell<bool>>,
        probes: std::rc::Rc<std::cell::Cell<u32>>,
    }

    impl EdgeCluster for ImageFlag {
        fn name(&self) -> &str { "edge" }
        fn kind(&self) -> &'static str { "docker" }
        fn latency(&self) -> Duration { Duration::from_micros(150) }
        fn has_image_cached(&self, _: &EdgeService) -> bool {
            self.probes.set(self.probes.get() + 1);
            self.cached.get()
        }
        fn state(&self, _: &EdgeService, _: SimTime) -> InstanceState { InstanceState::NotDeployed }
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
        fn scale_down(&mut self, _: &EdgeService, now: SimTime, _: &mut SimRng) -> SimTime { now }
        fn remove(&mut self, _: &EdgeService, now: SimTime, _: &mut SimRng) -> SimTime { now }
        fn instance_addr(&self, _: &EdgeService) -> Option<InstanceAddr> { None }
        fn load(&self) -> usize { 0 }
    }

    /// A scheduler that sends every request to the cloud and records the
    /// image verdict of the one view it is shown.
    struct SeenVerdicts(std::sync::Arc<std::sync::Mutex<Vec<bool>>>);

    impl GlobalScheduler for SeenVerdicts {
        fn name(&self) -> &str { "seen-verdicts" }
        fn choose(&mut self, ctx: &SchedulingContext) -> crate::scheduler::Choice {
            self.0.lock().unwrap().extend(ctx.clusters.iter().map(|v| v.image_cached));
            crate::scheduler::Choice { fast: None, best: None }
        }
    }

    /// A decision asks the cluster's layer store while the verdict is
    /// false and latches it once true: no layer cache evicts, so a store
    /// that answered true is not asked again. A (re-)registration starts
    /// the service unlatched, and a service no registration sized is asked
    /// on every decision.
    #[test]
    fn a_decision_latches_a_true_image_verdict_and_asks_again_while_false() {
        let mut rng = SimRng::new(16);
        let (cached, probes) = (std::rc::Rc::default(), std::rc::Rc::default());
        let flag = ImageFlag { cached: std::rc::Rc::clone(&cached), probes: std::rc::Rc::clone(&probes) };
        let mut clusters: Vec<Box<dyn EdgeCluster>> = vec![Box::new(flag)];
        let seen = std::sync::Arc::default();
        let mut d = Dispatcher::new(Box::new(SeenVerdicts(std::sync::Arc::clone(&seen))));
        let mut memory = FlowMemory::new(Duration::from_secs(30));
        let svc = make_service("asm");
        d.size_image_verdicts(Some(svc.addr), 1);
        let mut decide = |d: &mut Dispatcher, svc: &EdgeService, on_disk: bool| {
            cached.set(on_disk);
            let now = SimTime::from_secs(1);
            let out = dispatch(d, svc, Ipv4Addr::new(192, 168, 1, 20), now, &mut clusters, &mut memory, &mut rng);
            assert!(matches!(out.decision, DispatchDecision::ForwardToCloud));
            (seen.lock().unwrap().pop().unwrap(), probes.get())
        };
        assert_eq!(decide(&mut d, &svc, false), (false, 1));
        assert_eq!(decide(&mut d, &svc, false), (false, 2), "a false verdict is asked again");
        assert_eq!(decide(&mut d, &svc, true), (true, 3));
        assert_eq!(decide(&mut d, &svc, false), (true, 3), "a true verdict is latched");
        d.size_image_verdicts(Some(svc.addr), 1);
        assert_eq!(decide(&mut d, &svc, false), (false, 4), "re-registered: unlatched");
        let other = EdgeService { addr: ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 11), 80), ..svc };
        assert_eq!(decide(&mut d, &other, true), (true, 5));
        assert_eq!(decide(&mut d, &other, true), (true, 6), "unsized: asked every time");
    }
}
