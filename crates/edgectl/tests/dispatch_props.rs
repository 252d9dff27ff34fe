//! Property tests for the controller's dispatch logic and FlowMemory.

use desim::{Duration, SimRng, SimTime};
use edgectl::cluster::{DockerCluster, EdgeCluster};
use edgectl::dispatch::{DispatchDecision, DispatchOutcome, Dispatcher};
use edgectl::flowmemory::{FlowKey, FlowMemory, IngressId};
use edgectl::scheduler::{scheduler_by_name, RequestClass};
use edgectl::{EdgeService, HealthMonitor};
use netsim::addr::{Ipv4Addr, MacAddr};
use netsim::ServiceAddr;
use proptest::prelude::*;
use telemetry::{Off, SpanId, Telemetry};

fn make_service(port: u16) -> EdgeService {
    let profile = containerd::ServiceSet::by_key("asm").unwrap();
    let addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), port);
    EdgeService::from_profile(profile, addr)
}

fn clusters(n: usize, seed: u64) -> Vec<Box<dyn EdgeCluster>> {
    let mut rng = SimRng::new(seed);
    (0..n)
        .map(|i| {
            let mut engine = dockersim::DockerEngine::with_defaults();
            engine.pull(
                &containerd::ServiceSet::by_key("asm").unwrap().manifests,
                &mut rng,
            );
            Box::new(DockerCluster::new(
                format!("edge-{i}"),
                engine,
                MacAddr::from_id(100 + i as u32),
                Ipv4Addr::new(10, i as u8, 0, 1),
                Duration::from_micros(100 * (i as u64 + 1)),
            )) as Box<dyn EdgeCluster>
        })
        .collect()
}

/// One untraced dispatch of `client` at the default ingress, against a
/// throwaway health monitor (no breaker feedback between calls).
fn dispatch(
    d: &mut Dispatcher,
    svc: &EdgeService,
    client: Ipv4Addr,
    now: SimTime,
    clusters: &mut [Box<dyn EdgeCluster>],
    memory: &mut FlowMemory,
    rng: &mut SimRng,
) -> DispatchOutcome {
    d.dispatch_at(
        svc,
        client,
        IngressId::DEFAULT,
        &[],
        RequestClass::NewFlow,
        now,
        clusters,
        memory,
        &mut HealthMonitor::default(),
        rng,
        &mut Telemetry::<Off>::default(),
        0,
        SpanId::NONE,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever the scheduler and request interleaving: once a request was
    /// dispatched to the edge, *subsequent* requests from the same client to
    /// the same service never re-deploy while the instance is alive.
    #[test]
    fn repeat_dispatches_never_redeploy(
        scheduler in prop_oneof![Just("proximity"), Just("round-robin")],
        n_clusters in 1usize..4,
        gaps in prop::collection::vec(1u64..20, 1..8),
        seed in any::<u64>(),
    ) {
        let svc = make_service(80);
        let mut cls = clusters(n_clusters, seed);
        let mut memory = FlowMemory::new(Duration::from_secs(600));
        let mut d = Dispatcher::new(scheduler_by_name(scheduler).unwrap());
        let mut rng = SimRng::new(seed ^ 1);
        let client = Ipv4Addr::new(192, 168, 1, 20);

        let mut now = SimTime::from_secs(1);
        let first = dispatch(&mut d, &svc, client, now, &mut cls, &mut memory, &mut rng);
        let ready = match first.decision {
            DispatchDecision::WaitThenRedirect { ready_at, .. } => ready_at,
            DispatchDecision::Redirect { .. } => now,
            // Cloud-only paths (including breaker fallback) prove nothing here.
            DispatchDecision::ForwardToCloud => return Ok(()),
            DispatchDecision::FallbackCloud { .. } => return Ok(()),
        };
        now = ready;
        for g in gaps {
            now += Duration::from_secs(g);
            let out = dispatch(&mut d, &svc, client, now, &mut cls, &mut memory, &mut rng);
            prop_assert!(
                matches!(out.decision, DispatchDecision::Redirect { .. }),
                "redeployed at {now:?}: {:?}", out.decision
            );
            prop_assert!(out.phases.scale_up_at.is_none(), "no new scale-up");
        }
    }

    /// Distinct clients to the same service always land on the *same*
    /// instance while it is alive (the service is deployed once).
    #[test]
    fn many_clients_one_instance(
        n_clients in 2usize..12,
        seed in any::<u64>(),
    ) {
        let svc = make_service(80);
        let mut cls = clusters(2, seed);
        let mut memory = FlowMemory::new(Duration::from_secs(600));
        let mut d = Dispatcher::new(scheduler_by_name("proximity").unwrap());
        let mut rng = SimRng::new(seed ^ 2);

        let mut instances = std::collections::HashSet::new();
        let mut now = SimTime::from_secs(1);
        for i in 0..n_clients {
            let client = Ipv4Addr::new(192, 168, 1, 20 + i as u8);
            let out = dispatch(&mut d, &svc, client, now, &mut cls, &mut memory, &mut rng);
            match out.decision {
                DispatchDecision::Redirect { instance, .. } => {
                    instances.insert((instance.ip, instance.port));
                }
                DispatchDecision::WaitThenRedirect { instance, ready_at, .. } => {
                    instances.insert((instance.ip, instance.port));
                    now = now.max(ready_at);
                }
                DispatchDecision::ForwardToCloud | DispatchDecision::FallbackCloud { .. } => {
                    return Err(TestCaseError::fail("unexpected cloud"));
                }
            }
            now += Duration::from_millis(100);
        }
        prop_assert_eq!(instances.len(), 1, "one shared instance");
        prop_assert_eq!(memory.len(), n_clients, "one memorized flow per client");
    }

    /// FlowMemory expiry is exact: entries live strictly less than the idle
    /// timeout without traffic, and touching always extends life.
    #[test]
    fn flow_memory_expiry_is_exact(
        timeout_s in 1u64..100,
        touches in prop::collection::vec(1u64..50, 0..10),
        seed in any::<u64>(),
    ) {
        let timeout = Duration::from_secs(timeout_s);
        let mut m = FlowMemory::new(timeout);
        let key = FlowKey {
            ingress: IngressId::DEFAULT,
            client_ip: Ipv4Addr::new(192, 168, 1, 20),
            service: ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80),
        };
        let inst = edgectl::InstanceAddr {
            mac: MacAddr::from_id(1),
            ip: Ipv4Addr::new(10, 0, 0, 1),
            port: 31000,
        };
        let mut now = SimTime::from_secs(1);
        m.memorize(key, inst, 0, now);
        let mut rng = SimRng::new(seed);
        for t in touches {
            // Touch strictly within the timeout: entry must survive.
            let dt = Duration::from_secs(t.min(timeout_s.saturating_sub(1).max(1) )) ;
            let dt = if dt >= timeout { Duration::from_secs(timeout_s - 1) } else { dt };
            now += dt;
            let _ = rng.next_u64();
            prop_assert!(m.lookup(key, now).is_some(), "alive within timeout");
        }
        // One instant before expiry: alive (and refreshed). At a full
        // timeout after that refresh: gone.
        let just_before = now + (timeout - Duration::from_nanos(1));
        prop_assert!(m.lookup(key, just_before).is_some());
        let at_expiry = just_before + timeout;
        prop_assert!(m.lookup(key, at_expiry).is_none());
        let mut idle = Vec::new();
        m.expire(at_expiry, &mut idle);
        prop_assert_eq!(idle.len(), 1);
        prop_assert!(m.is_empty());
    }

    /// Ingress isolation: entries memorized under one gNB's switch are never
    /// visible through another's key — neither via `lookup` nor via
    /// `flows_of_client_at` — whatever the mix of ingresses, clients, and
    /// services.
    #[test]
    fn flow_memory_never_leaks_across_ingresses(
        entries in prop::collection::vec((0u32..4, 0u8..6, 0u16..3), 1..24),
    ) {
        let mut m = FlowMemory::new(Duration::from_secs(600));
        let now = SimTime::from_secs(1);
        let mut expected = std::collections::HashSet::new();
        for (g, c, s) in entries {
            let key = FlowKey {
                ingress: IngressId(g),
                client_ip: Ipv4Addr::new(192, 168, 1, 20 + c),
                service: ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80 + s),
            };
            let inst = edgectl::InstanceAddr {
                mac: MacAddr::from_id(g),
                ip: Ipv4Addr::new(10, g as u8, 0, 1),
                port: 31000 + g as u16,
            };
            m.memorize(key, inst, g as usize, now);
            expected.insert(key);
        }
        prop_assert_eq!(m.len(), expected.len());
        for g in 0..4u32 {
            for c in 0..6u8 {
                let client = Ipv4Addr::new(192, 168, 1, 20 + c);
                let visible = m.flows_of_client_at(client, IngressId(g));
                // Exactly the keys memorized under (g, c) — nothing borrowed
                // from a neighbouring switch.
                let want: std::collections::HashSet<FlowKey> = expected
                    .iter()
                    .filter(|k| k.ingress == IngressId(g) && k.client_ip == client)
                    .copied()
                    .collect();
                let got: std::collections::HashSet<FlowKey> =
                    visible.iter().map(|(k, _)| *k).collect();
                prop_assert_eq!(got, want);
                for (k, f) in visible {
                    prop_assert_eq!(k.ingress, IngressId(g));
                    // The memorized instance is the one for this ingress.
                    prop_assert_eq!(f.cluster, k.ingress.0 as usize);
                }
            }
        }
        // A key that differs only in ingress never hits.
        for key in &expected {
            let foreign = FlowKey { ingress: IngressId(key.ingress.0 + 100), ..*key };
            prop_assert!(m.lookup(foreign, now).is_none(), "foreign ingress must miss");
        }
    }

    /// Handover re-keying is lossless: moving a client's entries from one
    /// ingress to another preserves every (service → instance) binding, and
    /// leaves both the old ingress empty and every *other* client and
    /// ingress untouched.
    #[test]
    fn rekeying_on_handover_preserves_every_flow(
        n_services in 1u16..5,
        from in 0u32..3,
        to in 0u32..3,
        bystanders in prop::collection::vec((0u32..3, 0u16..5), 0..8),
    ) {
        let mut m = FlowMemory::new(Duration::from_secs(600));
        let now = SimTime::from_secs(1);
        let mover = Ipv4Addr::new(192, 168, 1, 20);
        let other = Ipv4Addr::new(192, 168, 1, 99);
        let inst_of = |s: u16| edgectl::InstanceAddr {
            mac: MacAddr::from_id(s as u32),
            ip: Ipv4Addr::new(10, 0, 0, 1 + s as u8),
            port: 31000 + s,
        };
        for s in 0..n_services {
            let key = FlowKey {
                ingress: IngressId(from),
                client_ip: mover,
                service: ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80 + s),
            };
            m.memorize(key, inst_of(s), s as usize, now);
        }
        let mut bystander_keys = std::collections::HashSet::new();
        for (g, s) in bystanders {
            let key = FlowKey {
                ingress: IngressId(g),
                client_ip: other,
                service: ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80 + s),
            };
            m.memorize(key, inst_of(s), 0, now);
            bystander_keys.insert(key);
        }
        let later = now + Duration::from_secs(5);
        let moved = m
            .flows_of_client_at(mover, IngressId(from))
            .iter()
            .filter(|(k, _)| m.rekey(k, IngressId(to), later))
            .count();
        prop_assert_eq!(moved, n_services as usize, "every entry re-keyed");
        if from != to {
            prop_assert!(m.flows_of_client_at(mover, IngressId(from)).is_empty());
        }
        let at_new = m.flows_of_client_at(mover, IngressId(to));
        prop_assert_eq!(at_new.len(), n_services as usize);
        prop_assert!(at_new.windows(2).all(|w| w[0].0.service < w[1].0.service), "sorted by service");
        for (k, f) in at_new {
            let s = k.service.port - 80;
            prop_assert_eq!(f.instance, inst_of(s), "binding survives the move");
            prop_assert_eq!(f.cluster, s as usize);
            prop_assert_eq!(f.last_used, later, "re-key refreshes idle time");
        }
        // Bystanders: exactly as memorized, wherever they were keyed.
        for key in bystander_keys {
            prop_assert!(m.lookup(key, later).is_some(), "bystander untouched");
        }
    }

    /// The stale-redirect oracle: after an instance crash is repaired with
    /// `forget_instance` (or a whole zone with `forget_cluster`), no lookup —
    /// through any key, at any later time — ever returns the removed
    /// address again, while every binding to a surviving instance remains
    /// intact.
    #[test]
    fn crashed_instance_is_never_returned_again(
        entries in prop::collection::vec((0u32..3, 0u8..6, 0u16..3, 0u32..4), 1..32),
        victim in 0u32..4,
        by_cluster in any::<bool>(),
        later_s in 0u64..300,
    ) {
        let mut m = FlowMemory::new(Duration::from_secs(600));
        let now = SimTime::from_secs(1);
        let inst_of = |i: u32| edgectl::InstanceAddr {
            mac: MacAddr::from_id(500 + i),
            ip: Ipv4Addr::new(10, i as u8, 0, 1),
            port: 31000 + i as u16,
        };
        let mut keys_of = std::collections::HashMap::new();
        for (g, c, s, i) in entries {
            let key = FlowKey {
                ingress: IngressId(g),
                client_ip: Ipv4Addr::new(192, 168, 1, 20 + c),
                service: ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80 + s),
            };
            // Instance i lives on cluster i: forgetting by address and by
            // cluster must evict exactly the same set.
            m.memorize(key, inst_of(i), i as usize, now);
            keys_of.insert(key, i);
        }
        let before = m.len();
        let evicted = if by_cluster {
            m.forget_cluster(victim as usize)
        } else {
            m.forget_instance(inst_of(victim))
        };
        let hit: Vec<&FlowKey> =
            keys_of.iter().filter(|(_, i)| **i == victim).map(|(k, _)| k).collect();
        prop_assert_eq!(evicted.len(), hit.len(), "exactly the victim's flows evicted");
        prop_assert_eq!(m.len(), before - hit.len());
        let later = now + Duration::from_secs(later_s);
        for (key, i) in &keys_of {
            let got = m.lookup(*key, later);
            if *i == victim {
                prop_assert!(got.is_none(), "stale redirect for {key:?} after crash");
            } else {
                let f = got.expect("survivor binding intact");
                prop_assert_eq!(f.instance, inst_of(*i));
            }
        }
        // The crashed address is gone from the instance inventory too — the
        // health sweep can never see (and re-repair) a ghost.
        prop_assert!(
            m.instances().iter().all(|(_, inst, _)| *inst != inst_of(victim)),
            "inventory still lists the crashed instance"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Least-connections never selects an at-capacity replica while any
    /// schedulable sibling still has headroom: saturation of the pick
    /// implies saturation of the whole ready fleet.
    #[test]
    fn least_connections_never_picks_saturated_over_headroom(
        shapes in prop::collection::vec(
            // (ready, distance µs, per-instance (in_flight, backlog))
            (
                any::<bool>(),
                100u64..1000,
                prop::collection::vec((0usize..6, 0usize..4), 0..4),
            ),
            1..5,
        ),
    ) {
        use edgectl::cluster::{InstanceAddr, InstanceState};
        use edgectl::scheduler::{
            ClusterView, GlobalScheduler, InstanceView, LeastConnectionsScheduler,
            RequestClass, SchedulingContext, ServiceRef,
        };

        const CONCURRENCY: usize = 3;
        let views: Vec<ClusterView> = shapes
            .iter()
            .enumerate()
            .map(|(i, (ready, us, loads))| ClusterView {
                kind: "docker",
                distance: Duration::from_micros(*us),
                image_cached: true,
                state: if *ready {
                    InstanceState::Ready(InstanceAddr {
                        mac: MacAddr::from_id(1 + i as u32),
                        ip: Ipv4Addr::new(10, i as u8, 0, 1),
                        port: 31000,
                    })
                } else {
                    InstanceState::NotDeployed
                },
                load: 0,
                breaker: edgectl::BreakerState::Closed,
                instances: loads
                    .iter()
                    .enumerate()
                    .map(|(r, (in_flight, backlog))| InstanceView {
                        instance: r,
                        in_flight: *in_flight,
                        backlog: *backlog,
                        concurrency: CONCURRENCY,
                        utilization: *in_flight as f64 / CONCURRENCY as f64,
                        ewma_latency: Duration::ZERO,
                    })
                    .collect(),
            })
            .collect();
        let mut s = LeastConnectionsScheduler;
        let choice = s.choose(&SchedulingContext {
            clusters: &views,
            service: ServiceRef {
                addr: ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80),
                name: "svc",
            },
            now: SimTime::ZERO,
            class: RequestClass::NewFlow,
        });
        // Every schedulable (ready) instance, with the synthetic idle view a
        // ready-but-untracked cluster contributes as replica 0.
        let schedulable: Vec<(usize, usize, bool)> = views
            .iter()
            .enumerate()
            .filter(|(_, c)| c.state.is_ready())
            .flat_map(|(ci, c)| {
                if c.instances.is_empty() {
                    vec![(ci, 0, false)]
                } else {
                    c.instances
                        .iter()
                        .map(|v| (ci, v.instance, v.at_capacity()))
                        .collect()
                }
            })
            .collect();
        match choice.fast {
            None => prop_assert!(schedulable.is_empty() && views.is_empty()),
            Some(t) => {
                if schedulable.is_empty() {
                    // No ready cluster anywhere: LC falls back to the
                    // nearest cluster's sole replica for deployment.
                    prop_assert_eq!(t.instance, 0);
                } else {
                    let picked_saturated = schedulable
                        .iter()
                        .find(|(c, i, _)| (*c, *i) == (t.cluster, t.instance))
                        .map(|(_, _, s)| *s)
                        .expect("pick must be a schedulable instance");
                    let headroom_exists = schedulable.iter().any(|(_, _, s)| !s);
                    prop_assert!(
                        !(picked_saturated && headroom_exists),
                        "picked saturated ({}, {}) while headroom existed: {views:?}",
                        t.cluster,
                        t.instance,
                    );
                }
            }
        }
    }

    /// Satellite of the migration work: `ClusterView` now carries the
    /// circuit-breaker state, and the load-aware schedulers must never serve
    /// from (or migrate onto) a cluster whose breaker is Open — however
    /// ready or idle it looks. Migration target selection builds its own
    /// views, so this holds at the scheduler layer, not just in dispatch's
    /// candidate filtering.
    #[test]
    fn load_aware_schedulers_never_pick_an_open_cluster(
        shapes in prop::collection::vec(
            // (ready, breaker 0=closed/1=open/2=half-open, distance µs,
            //  per-instance (in_flight, backlog))
            (
                any::<bool>(),
                0u8..3,
                100u64..1000,
                prop::collection::vec((0usize..6, 0usize..4), 0..4),
            ),
            1..6,
        ),
        use_ewma in any::<bool>(),
    ) {
        use edgectl::cluster::{InstanceAddr, InstanceState};
        use edgectl::scheduler::{
            ClusterView, GlobalScheduler, InstanceView, LatencyEwmaScheduler,
            LeastConnectionsScheduler, RequestClass, SchedulingContext, ServiceRef,
        };
        use edgectl::BreakerState;

        const CONCURRENCY: usize = 3;
        let views: Vec<ClusterView> = shapes
            .iter()
            .enumerate()
            .map(|(i, (ready, breaker, us, loads))| ClusterView {
                kind: "docker",
                distance: Duration::from_micros(*us),
                image_cached: true,
                state: if *ready {
                    InstanceState::Ready(InstanceAddr {
                        mac: MacAddr::from_id(1 + i as u32),
                        ip: Ipv4Addr::new(10, i as u8, 0, 1),
                        port: 31000,
                    })
                } else {
                    InstanceState::NotDeployed
                },
                load: 0,
                breaker: match breaker {
                    0 => BreakerState::Closed,
                    1 => BreakerState::Open,
                    _ => BreakerState::HalfOpen,
                },
                instances: loads
                    .iter()
                    .enumerate()
                    .map(|(r, (in_flight, backlog))| InstanceView {
                        instance: r,
                        in_flight: *in_flight,
                        backlog: *backlog,
                        concurrency: CONCURRENCY,
                        utilization: *in_flight as f64 / CONCURRENCY as f64,
                        ewma_latency: Duration::ZERO,
                    })
                    .collect(),
            })
            .collect();
        let ctx = SchedulingContext {
            clusters: &views,
            service: ServiceRef {
                addr: ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80),
                name: "svc",
            },
            now: SimTime::ZERO,
            class: RequestClass::Rescheduled,
        };
        let choice = if use_ewma {
            LatencyEwmaScheduler.choose(&ctx)
        } else {
            LeastConnectionsScheduler.choose(&ctx)
        };
        let any_serving = views
            .iter()
            .any(|c| c.state.is_ready() && c.breaker != BreakerState::Open);
        for t in choice.fast.iter().chain(choice.best.iter()) {
            let c = &views[t.cluster];
            // A fallback (deploy-here) pick of a not-ready cluster is fine;
            // an Open cluster must never be *served from*.
            if c.state.is_ready() {
                prop_assert!(
                    c.breaker != BreakerState::Open || !any_serving,
                    "picked ready cluster {} with an open breaker: {views:?}",
                    t.cluster,
                );
            }
        }
    }
}
