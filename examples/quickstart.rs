//! Quickstart: one registered edge service, one client request, deployed on
//! demand — the whole transparent-access pipeline in ~60 lines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use transparent_edge::prelude::*;

fn main() {
    // The emulated evaluation testbed (Fig. 8 of the paper): 20 Raspberry Pi
    // clients, a virtual OVS switch, the SDN controller, a Docker cluster on
    // the Edge Gateway Server, and a WAN link to the cloud.
    let mut tb = Testbed::new(TestbedConfig::default());

    // Register the nginx service under its *cloud* address. Clients only
    // ever see this address — redirection to the edge is transparent.
    let cloud_addr = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80);
    let svc = tb.register_service(ServiceSet::by_key("nginx").unwrap(), cloud_addr);
    println!("registered `{}` at cloud address {cloud_addr}", svc.name);
    println!("annotated service definition:\n{}", svc.annotated.to_yaml());

    // Cache the image and create the containers ahead of time — the paper's
    // Fig. 11 scenario, where only Scale Up happens on demand.
    tb.pre_pull(cloud_addr);
    tb.pre_create(cloud_addr);

    // Client 0 sends an HTTP request to the cloud address at t = 1 s. There
    // is no running instance anywhere: the controller holds the request,
    // scales the service up (on-demand deployment *with waiting*), polls the
    // port, installs the rewrite flows, and releases the buffered packet.
    tb.request_at(SimTime::from_secs(1), 0, cloud_addr);

    // A second connection moments later rides the FlowMemory.
    tb.request_at(SimTime::from_secs(5), 1, cloud_addr);

    tb.run_until(SimTime::from_secs(30));

    println!("--- results ---");
    for (i, done) in tb.completed.iter().enumerate() {
        println!(
            "request #{i} (client {}): time_total = {}  (connect {}, first byte {})",
            done.client,
            done.timing.time_total().unwrap(),
            done.timing.time_connect().unwrap(),
            done.timing.time_starttransfer().unwrap(),
        );
    }
    for rec in &tb.controller.records {
        println!(
            "controller: {:?} request for {} answered after {}",
            rec.kind,
            rec.service,
            rec.answered_at.saturating_since(rec.at),
        );
        if let Some(wait) = tb.controller.deployment(rec).and_then(|d| d.phases.wait_time()) {
            println!("            readiness wait (port polling): {wait}");
        }
    }
    println!(
        "switch: {} table miss(es), {} fast-path packet(s); transparency violations: {}",
        tb.switch().table_misses,
        tb.switch().fast_path_packets,
        tb.transparency_violations,
    );

    let first = tb.completed[0].timing.time_total().unwrap();
    assert!(first < desim::Duration::from_secs(1));
    println!("\nfirst request served in {first} — on-demand deployment, under a second.");
}
