//! `ovs` — a virtual OpenFlow switch (the simulated Open vSwitch instance).
//!
//! The paper's testbed runs a virtual OVS switch on the Edge Gateway Server;
//! every client request enters the edge through it. This crate implements the
//! switch as a pure state machine:
//!
//! * frames arrive via [`Switch::handle_frame_into`] (or its `Vec`-returning
//!   wrappers, [`Switch::handle_frame`] among them) and either hit an
//!   installed flow
//!   (actions applied in the data plane, *without* controller involvement —
//!   the fast path the paper relies on for subsequent requests) or miss and
//!   are buffered + sent to the controller as `PACKET_IN`. A frame is
//!   verified once, its `SET_FIELD`s patch the encoded bytes in place
//!   ([`netsim::WireFrame`]) and the buffer itself leaves in the
//!   [`Effect::Forward`] — the switch neither decodes a frame into a
//!   structure nor encodes one;
//! * controller messages arrive via [`Switch::handle_controller_into`] — flow
//!   installation (`FLOW_MOD`, including running a buffered packet through
//!   the new rule), packet injection (`PACKET_OUT`), session and liveness
//!   messages;
//! * [`Switch::expire_flows_into`] retires idle/hard-timed-out flows and produces
//!   the `FLOW_REMOVED` notifications that drive the controller's FlowMemory
//!   and idle scale-down.
//!
//! All control-channel traffic crosses this API as *encoded OpenFlow bytes*,
//! so the `openflow` codecs are exercised end-to-end on every exchange. What
//! a call brings about is appended to a sink the caller owns (see [`Switch`],
//! "Effect sinks").
//!
//! ```
//! use desim::SimTime;
//! use netsim::{TcpFrame, MacAddr, Ipv4Addr, ServiceAddr};
//! use ovs::{Effect, Switch, SwitchConfig};
//!
//! let mut sw = Switch::new(SwitchConfig { ports: vec![1, 2], ..Default::default() });
//! let syn = TcpFrame::syn(
//!     MacAddr::from_id(1), MacAddr::from_id(2),
//!     Ipv4Addr::new(192, 168, 1, 20), 50000,
//!     ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80),
//! );
//! // No flows installed: a table miss buffers the frame and produces a
//! // PACKET_IN for the controller.
//! let effects = sw.handle_frame(SimTime::ZERO, 1, &syn.encode());
//! assert!(matches!(effects[0], Effect::ToController(_)));
//! assert_eq!(sw.buffered(), 1);
//! ```

#![warn(missing_docs)]

pub mod switch;

pub use switch::{Effect, Switch, SwitchConfig};
