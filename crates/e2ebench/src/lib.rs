//! `e2ebench` — the end-to-end benchmark of the transparent-edge stack.
//!
//! Four named workloads run through the real `testbed::Testbed` /
//! `testbed::MobilityTestbed` (workload → desim → netsim → ovs → openflow →
//! edgectl → cluster sims) with tracing off; a separate traced run yields a
//! per-layer cost table. See `README.md` beside this crate for why each
//! workload exists, how the numbers are defined and the first full table.

#![warn(missing_docs)]

pub mod alloc;
pub mod e2e;
pub mod metrics;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workloads;
