//! `netsim` — the network substrate of the simulated edge testbed.
//!
//! The paper's evaluation runs on a physical topology (Fig. 8): 20 Raspberry
//! Pi clients, an HP Aruba layer-3 switch, and the Edge Gateway Server
//! hosting the SDN controller, a virtual OVS switch, Docker and Kubernetes.
//! This crate provides the pieces needed to emulate that network
//! deterministically:
//!
//! * [`addr`] — MAC / IPv4 / `ip:port` service addressing,
//! * [`wire`] — byte-exact Ethernet II / IPv4 / TCP encoding and parsing
//!   (OpenFlow `PACKET_IN` carries real frame bytes, so the frames are real),
//! * [`frame`] — a structured view of a TCP/IPv4 frame with rewrite helpers,
//!   plus the two views the per-packet paths use on encoded bytes: a
//!   header-only parse ([`TcpHeaders`], same verification as a full decode,
//!   no payload copy) and an in-place rewrite ([`WireFrame`], checksums
//!   patched incrementally per RFC 1624), and the bounded [`FramePool`] that
//!   hands a consumed frame's buffer to the next encoder,
//! * [`link`] — latency + bandwidth link models with optional jitter,
//! * [`topo`] — the node/port/link graph plus shortest-path queries,
//! * [`pcap`] — capture export: dump simulated traffic to standard pcap
//!   files for Wireshark/tcpdump inspection.
//!
//! Switch *behaviour* (flow tables, OpenFlow pipeline) lives in the `ovs`
//! crate; this crate is purely passive plumbing.
//!
//! ```
//! use netsim::{TcpFrame, MacAddr, Ipv4Addr, ServiceAddr};
//!
//! // A client SYN toward a registered cloud address, as real bytes...
//! let syn = TcpFrame::syn(
//!     MacAddr::from_id(1), MacAddr::from_id(2),
//!     Ipv4Addr::new(192, 168, 1, 20), 50000,
//!     ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80),
//! );
//! let bytes = syn.encode();
//! // ...that decode back bit-exactly (checksums verified).
//! assert_eq!(TcpFrame::decode(&bytes).unwrap(), syn);
//! ```

#![warn(missing_docs)]

pub mod addr;
pub mod frame;
pub mod link;
pub mod pcap;
pub mod topo;
pub mod wire;

pub use addr::{Ipv4Addr, MacAddr, ServiceAddr};
pub use frame::{FramePool, TcpFlags, TcpFrame, TcpHeaders, WireFrame};
pub use link::{Link, LinkSpec};
pub use pcap::PcapCapture;
pub use topo::{NodeId, NodeKind, PortNo, Topology};
