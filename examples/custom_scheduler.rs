//! Plugging in a custom Global Scheduler.
//!
//! The controller's scheduler is a trait object loaded from configuration
//! (Section IV-B). This example implements a *cache-aware* scheduler — only
//! deploy where the image is already cached, otherwise answer from the cloud
//! while the pull proceeds in the background — and drives the low-level
//! controller API directly (no testbed harness), exchanging real OpenFlow
//! bytes with a virtual switch.
//!
//! ```text
//! cargo run --release --example custom_scheduler
//! ```

use desim::{Duration, SimRng, SimTime};
use std::collections::HashMap;
use transparent_edge::prelude::*;
use edgectl::{Choice, SchedulingContext, Target};

/// Deploy only where images are cached; otherwise answer from the cloud and
/// warm the nearest cluster in the background.
struct CacheAwareScheduler;

impl GlobalScheduler for CacheAwareScheduler {
    fn name(&self) -> &str {
        "cache-aware"
    }

    fn choose(&mut self, ctx: &SchedulingContext) -> Choice {
        let clusters = ctx.clusters;
        let ready = clusters
            .iter()
            .enumerate()
            .filter(|(_, c)| c.state.is_ready())
            .min_by_key(|(_, c)| c.distance)
            .map(|(i, _)| i);
        if let Some(i) = ready {
            return Choice { fast: Some(Target::sole(i)), best: None };
        }
        let cached = clusters
            .iter()
            .enumerate()
            .filter(|(_, c)| c.image_cached)
            .min_by_key(|(_, c)| c.distance)
            .map(|(i, _)| i);
        match cached {
            // Cached nearby: deploy with waiting, it is fast.
            Some(i) => Choice { fast: Some(Target::sole(i)), best: None },
            // Cold everywhere: cloud now, warm the nearest in the background.
            None => Choice {
                fast: None,
                best: clusters
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, c)| c.distance)
                    .map(|(i, _)| Target::sole(i)),
            },
        }
    }
}

fn main() {
    use dockersim::DockerEngine;
    use edgectl::DockerCluster;
    use netsim::TcpFrame;
    use ovs::{Effect, Switch, SwitchConfig};

    let mut rng = SimRng::new(3);

    // One Docker cluster, nothing cached yet.
    let cluster = DockerCluster::new(
        "edge-docker",
        DockerEngine::with_defaults(),
        MacAddr::from_id(200),
        Ipv4Addr::new(10, 0, 0, 10),
        Duration::from_micros(100),
    );
    let mut ctl = Controller::new(
        Box::new(CacheAwareScheduler),
        PortMap {
            cluster_ports: HashMap::new(),
            cloud_port: 3,
        },
        ControllerConfig::default(),
    );
    ctl.add_cluster(Box::new(cluster), 2);

    // Register the asm service from its YAML definition.
    let addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80);
    let profile = ServiceSet::by_key("asm").unwrap();
    ctl.register_service(EdgeService::from_profile(profile, addr));

    let mut sw = Switch::new(SwitchConfig {
        datapath_id: 1,
        n_buffers: 64,
        miss_send_len: 0xffff,
        ports: vec![1, 2, 3],
    });

    let mut send_request = |ctl: &mut Controller, sw: &mut Switch, t: SimTime, src_port: u16| {
        let syn = TcpFrame::syn(
            MacAddr::from_id(1),
            MacAddr::from_id(99),
            Ipv4Addr::new(192, 168, 1, 20),
            src_port,
            addr,
        );
        let effects = sw.handle_frame(t, 1, &syn.encode());
        let Effect::ToController(pkt_in) = &effects[0] else {
            panic!("expected packet-in");
        };
        let out = ctl.handle_switch_message(t, pkt_in, &mut rng).unwrap();
        for m in &out {
            sw.handle_controller(m.at, &m.data).unwrap();
        }
    };

    // Request 1: image cold → cloud + background pull/deploy.
    send_request(&mut ctl, &mut sw, SimTime::from_secs(1), 50000);
    // Request 2: after the background deployment finished → edge.
    send_request(&mut ctl, &mut sw, SimTime::from_secs(20), 50001);

    println!("cache-aware scheduler decisions:\n");
    for rec in &ctl.records {
        println!(
            "t={:6.3}s  {:?}  (background deploy ready: {})",
            rec.at.as_secs_f64(),
            rec.kind,
            rec.background_ready
                .map(|t| format!("t={:.3}s", t.as_secs_f64()))
                .unwrap_or_else(|| "-".into()),
        );
    }
    use edgectl::controller::RequestKind;
    assert_eq!(ctl.records[0].kind, RequestKind::Cloud);
    assert_eq!(ctl.records[1].kind, RequestKind::Redirect);
    println!("\ncold request went to the cloud; the edge answered once warmed.");
}
