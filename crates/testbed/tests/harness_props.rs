//! Property tests over the full harness: random request schedules against
//! random service mixes must always complete, never reset a connection,
//! never leak edge addressing, and never lose a frame.

use desim::{Duration, SimTime};
use edgectl::ControllerConfig;
use netsim::{Ipv4Addr, ServiceAddr};
use proptest::prelude::*;
use testbed::{ClusterKind, Testbed, TestbedConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary schedules of requests over a random service mix.
    #[test]
    fn random_schedules_always_complete(
        kind in prop_oneof![Just(ClusterKind::Docker), Just(ClusterKind::K8s)],
        service_keys in prop::collection::vec(
            prop_oneof![Just("asm"), Just("nginx"), Just("nginx-py")], 1..3),
        schedule in prop::collection::vec((0u64..60_000, 0usize..20, 0usize..3), 1..15),
        memory_idle in 10u64..120,
        seed in any::<u64>(),
    ) {
        let mut tb = Testbed::new(TestbedConfig {
            cluster: kind,
            seed,
            controller: ControllerConfig {
                memory_idle: Duration::from_secs(memory_idle),
                ..ControllerConfig::default()
            },
            ..TestbedConfig::default()
        });
        let mut addrs = Vec::new();
        for (i, key) in service_keys.iter().enumerate() {
            let profile = containerd::ServiceSet::by_key(key).unwrap();
            let addr = ServiceAddr::new(
                Ipv4Addr::new(203, 0, 113, 10 + i as u8),
                profile.listen_port,
            );
            tb.register_service(profile, addr);
            tb.pre_pull(addr);
            tb.pre_create(addr);
            addrs.push(addr);
        }
        let mut n = 0;
        for (ms, client, svc) in &schedule {
            let addr = addrs[svc % addrs.len()];
            tb.request_at(SimTime::from_millis(1000 + ms), client % 20, addr);
            n += 1;
        }
        tb.run_until(SimTime::from_secs(600));

        prop_assert_eq!(tb.completed.len(), n, "every request completes");
        prop_assert_eq!(tb.resets, 0, "port polling prevents RSTs");
        prop_assert_eq!(tb.transparency_violations, 0, "clients never see the edge");
        prop_assert_eq!(tb.drops, 0, "no frames lost");
        // Every completion has monotone milestones.
        for c in &tb.completed {
            let t = &c.timing;
            prop_assert!(t.connected.unwrap() >= t.connect_start);
            prop_assert!(t.first_byte.unwrap() >= t.connected.unwrap());
            prop_assert!(t.complete.unwrap() >= t.first_byte.unwrap());
        }
    }

    /// The same random schedule under the `latency-aware` scheduler also
    /// holds the invariants (first requests may go to the cloud).
    #[test]
    fn without_waiting_schedules_hold_invariants(
        schedule in prop::collection::vec((0u64..30_000, 0usize..20), 1..10),
        seed in any::<u64>(),
    ) {
        let mut tb = Testbed::new(TestbedConfig {
            scheduler: "latency-aware".to_owned(),
            seed,
            ..TestbedConfig::default()
        });
        let addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80);
        tb.register_service(containerd::ServiceSet::by_key("asm").unwrap(), addr);
        tb.pre_pull(addr);
        tb.pre_create(addr);
        let n = schedule.len();
        for (ms, client) in schedule {
            tb.request_at(SimTime::from_millis(1000 + ms), client % 20, addr);
        }
        tb.run_until(SimTime::from_secs(300));
        prop_assert_eq!(tb.completed.len(), n);
        prop_assert_eq!(tb.resets, 0);
        prop_assert_eq!(tb.transparency_violations, 0);
    }
}

/// One smoke run: two services, a dozen clients, connections that miss,
/// get scheduled, idle out of the switch and the FlowMemory, and let the
/// service scale down. Returns everything a report is built from.
fn smoke_run() -> (String, Vec<(usize, ServiceAddr, workload::RequestTiming)>) {
    let mut tb = Testbed::new(TestbedConfig {
        seed: 7,
        controller: ControllerConfig {
            memory_idle: Duration::from_secs(20),
            ..ControllerConfig::default()
        },
        ..TestbedConfig::default()
    });
    let addrs: Vec<ServiceAddr> = ["nginx", "asm"]
        .iter()
        .enumerate()
        .map(|(i, key)| {
            let profile = containerd::ServiceSet::by_key(key).unwrap();
            let addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10 + i as u8), profile.listen_port);
            tb.register_service(profile, addr);
            addr
        })
        .collect();
    for i in 0..60u64 {
        tb.request_at(SimTime::from_millis(1000 + 137 * i), (i % 12) as usize, addrs[(i % 2) as usize]);
    }
    tb.run_until(SimTime::from_secs(120));
    let done = tb.completed.iter().map(|c| (c.client, c.service, c.timing)).collect();
    (tb.telemetry_snapshot().to_json(), done)
}

/// The hot maps hash with a fixed function, so a run is a pure function of
/// its configuration: the metrics snapshot and every completed request's
/// milestones repeat exactly. A std `HashMap` iterated into output would
/// break this (its seed differs per map instance), as would any other
/// hidden per-run state.
#[test]
fn a_run_repeats_exactly_within_one_process() {
    let (json_a, done_a) = smoke_run();
    let (json_b, done_b) = smoke_run();
    assert_eq!(done_a.len(), 60);
    assert_eq!(done_a, done_b);
    assert_eq!(json_a, json_b);
}
