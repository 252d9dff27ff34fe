//! The controller's bookkeeping is bounded by live flows: a smoke-size run of
//! `e2ebench`'s `flow_churn` shape (short connections from 250 clients to ten
//! warm services, a 10 s switch idle timeout) files a pair per connection
//! while it runs and holds none once the last flow has idled out.

use desim::{Duration, SimTime};
use edgectl::ControllerConfig;
use netsim::{Ipv4Addr, ServiceAddr};
use testbed::{ClusterKind, Testbed, TestbedConfig};

#[test]
fn flow_churn_ends_with_nothing_filed() {
    let mut tb = Testbed::new(TestbedConfig {
        n_clients: 250,
        cluster: ClusterKind::Docker,
        controller: ControllerConfig {
            memory_idle: Duration::from_secs(60),
            switch_flow_idle: Duration::from_secs(10),
            ..ControllerConfig::default()
        },
        seed: 1,
        ..TestbedConfig::default()
    });
    let profile = containerd::ServiceSet::by_key("nginx").unwrap();
    let addrs: Vec<ServiceAddr> = (0..10u8)
        .map(|i| ServiceAddr::new(Ipv4Addr::new(203, 0, 113, i + 1), profile.listen_port))
        .collect();
    for &addr in &addrs {
        tb.register_service(profile.clone(), addr);
        tb.pre_deploy_on(addr, 0);
    }
    let trace = workload::Trace::generate(
        workload::TraceConfig {
            n_services: addrs.len(),
            n_requests: 2_000,
            min_per_service: 1,
            duration: Duration::from_secs(1),
            n_clients: 250,
            skew: 0.9,
            start_mean_secs: 0.05,
        },
        1,
    );
    let start = Duration::from_secs(30);
    for r in &trace.requests {
        tb.request_at(r.at + start, r.client, addrs[r.service]);
    }

    tb.run_until(SimTime::ZERO + start + Duration::from_secs(2));
    let busy = tb.controller.state_stats();
    assert_eq!(tb.completed.len(), trace.requests.len());
    assert!(busy.pairs > 1_000 && busy.filed_clients > 100, "{busy:?}");
    assert_eq!(busy.fwd_index, busy.pairs, "one forward flow per pair");

    tb.run_until(SimTime::ZERO + start + Duration::from_secs(20));
    assert!(tb.switch().table().is_empty(), "every flow idled out");
    let idle = tb.controller.state_stats();
    assert_eq!((idle.pairs, idle.filed_clients, idle.fwd_index), (0, 0, 0), "{idle:?}");
    assert!(idle.memory > 0, "the FlowMemory outlives the switch flows");
}
