//! `testbed` — the emulated Carinthian Computing Continuum (C³) and the
//! experiment harness.
//!
//! The paper evaluates on a real edge/fog testbed: an Edge Gateway Server
//! (EGS) running the SDN controller, a virtual OVS switch, Docker and
//! Kubernetes; 20 Raspberry Pi clients; and a WAN uplink toward the cloud
//! (Fig. 8). This crate assembles the simulated equivalent from the substrate
//! crates and drives complete experiments through it:
//!
//! * [`topology`] — the virtual network of Fig. 8, plus the multi-cell
//!   [`topology::MultiGnbTopology`] used by the mobility experiments;
//! * [`harness`] — the event-driven end-to-end simulator, one loop for both
//!   networks: client TCP connections traverse the OVS data plane as real
//!   frames, table misses travel to the controller as real OpenFlow bytes,
//!   deployments run against the simulated Docker/Kubernetes clusters.
//!   [`Testbed`] (one switch, one-shot requests with `timecurl`-style
//!   `time_total`) and [`MobilityTestbed`] (N gNBs, long-lived sessions
//!   under user mobility with make-before-break flow handover) are its two
//!   constructors;
//! * [`experiments`] — one entry point per table/figure of the paper
//!   (Table I, Figs. 9–16) plus the ablations discussed in Sections V/VII;
//! * [`report`] — text rendering: aligned tables, ASCII bar charts, CSV.

#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod report;
pub mod topology;

pub use harness::{
    ClusterKind, CompletedRequest, HandoverRecord, Harness, MobilityConfig, MobilityTestbed,
    Testbed, TestbedConfig,
};
pub use topology::{client_ip_for, fleet_client_ip, C3Topology, MultiGnbTopology};
