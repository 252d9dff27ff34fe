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
//! * [`mobility_run`] — the multi-gNB harness: long-lived sessions under
//!   user mobility with transparent make-before-break flow handover;
//! * [`harness`] — the event-driven end-to-end simulator: client TCP
//!   connections traverse the OVS data plane as real frames, table misses
//!   travel to the controller as real OpenFlow bytes, deployments run
//!   against the simulated Docker/Kubernetes clusters, and `timecurl`-style
//!   `time_total` is recorded per request;
//! * [`experiments`] — one entry point per table/figure of the paper
//!   (Table I, Figs. 9–16) plus the ablations discussed in Sections V/VII;
//! * [`report`] — text rendering: aligned tables, ASCII bar charts, CSV.

#![warn(missing_docs)]

mod common;
pub mod experiments;
pub mod harness;
pub mod mobility_run;
pub mod report;
pub mod topology;

pub use harness::{ClusterKind, CompletedRequest, Testbed, TestbedConfig};
pub use mobility_run::{HandoverRecord, MobilityConfig, MobilityTestbed};
pub use topology::{client_ip_for, fleet_client_ip, C3Topology, MultiGnbTopology};
