//! Reproducibility: identical seeds produce bit-identical experiment
//! results; different seeds vary but stay within the calibrated bands.

use testbed::experiments::run_trace_experiment;
use testbed::ClusterKind;
use transparent_edge::prelude::*;

#[test]
fn identical_seeds_identical_runs() {
    let p = ServiceSet::by_key("nginx").unwrap();
    let a = run_trace_experiment(ClusterKind::Docker, &p, true, 1234);
    let b = run_trace_experiment(ClusterKind::Docker, &p, true, 1234);
    assert_eq!(a.firsts, b.firsts);
    assert_eq!(a.waits, b.waits);
    assert_eq!(a.warm, b.warm);
}

#[test]
fn different_seeds_differ_but_stay_in_band() {
    let p = ServiceSet::by_key("nginx").unwrap();
    let a = run_trace_experiment(ClusterKind::Docker, &p, true, 1);
    let b = run_trace_experiment(ClusterKind::Docker, &p, true, 2);
    assert_ne!(a.firsts, b.firsts, "seeds must matter");
    for r in [&a, &b] {
        let med = desim::Summary::new(r.firsts.clone()).median().unwrap();
        assert!((0.3..1.0).contains(&med), "median {med}");
    }
}

#[test]
fn full_harness_run_is_deterministic() {
    let run = |seed: u64| {
        let mut tb = Testbed::new(TestbedConfig {
            seed,
            ..TestbedConfig::default()
        });
        let addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80);
        tb.register_service(ServiceSet::by_key("nginx-py").unwrap(), addr);
        tb.pre_pull(addr);
        tb.request_at(SimTime::from_secs(1), 0, addr);
        tb.request_at(SimTime::from_secs(2), 5, addr);
        tb.run_until(SimTime::from_secs(60));
        tb.completed
            .iter()
            .map(|c| (c.client, c.timing.time_total().unwrap().as_nanos()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(99), run(99));
    assert_ne!(run(99), run(100));
}

#[test]
fn trace_generation_is_stable_across_calls() {
    let a = Trace::generate(TraceConfig::default(), 7);
    let b = Trace::generate(TraceConfig::default(), 7);
    assert_eq!(a.requests, b.requests);
    // The documented default parameters never silently change.
    assert_eq!(a.config.n_services, 42);
    assert_eq!(a.config.n_requests, 1708);
    assert_eq!(a.config.min_per_service, 20);
    assert_eq!(a.config.n_clients, 20);
}

#[test]
fn figures_are_deterministic() {
    let a = testbed::experiments::fig9(7);
    let b = testbed::experiments::fig9(7);
    assert_eq!(a.body, b.body);
    let a = testbed::experiments::fig13(8);
    let b = testbed::experiments::fig13(8);
    assert_eq!(a.body, b.body);
}

#[test]
fn mobility_runs_are_deterministic() {
    let runs = |seed| format!("{:?}", testbed::experiments::mobility(seed, true, false).runs);
    let a = runs(11);
    assert_eq!(a, runs(11), "same seed, identical mobility runs");
    assert_ne!(a, runs(12), "seeds must matter");
}

#[test]
fn zero_move_mobility_leaves_single_ingress_behaviour_intact() {
    // A mobility run where nobody ever moves must behave exactly like the
    // single-ingress world: no handovers, and — because ingress 0 is the
    // default and client addressing is unchanged for i < 236 — the existing
    // single-switch figures (fig9/fig13 above, the harness runs) stay
    // byte-identical. Those figures never construct a mobility model, so it
    // suffices that a zero-move run touches nothing beyond its own testbed.
    use testbed::{MobilityConfig, MobilityTestbed};
    use transparent_edge::mobility::CellHops;
    let fig_before = testbed::experiments::fig13(8);
    let mut tb = MobilityTestbed::new(MobilityConfig {
        n_gnbs: 2,
        n_clients: 4,
        ..MobilityConfig::default()
    });
    let addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80);
    tb.register_service(ServiceSet::by_key("asm").unwrap(), addr);
    tb.warm_all_zones();
    tb.pre_deploy_on(0);
    let mut model = CellHops::new(vec![0; 4], &[]);
    tb.run(&mut model, SimTime::from_secs(1), SimTime::from_secs(10));
    assert!(tb.handovers.is_empty(), "zero moves, zero handovers");
    assert_eq!(tb.pings_sent(), tb.pings_done());
    let fig_after = testbed::experiments::fig13(8);
    assert_eq!(fig_before.body, fig_after.body);
}
