//! `openflow` — an OpenFlow protocol subset implemented from scratch.
//!
//! The transparent-access approach of the paper rests on OpenFlow's packet
//! filtering and rewriting: the ingress switch matches packets destined for a
//! *registered service address* (IPv4 dst + TCP dst port), rewrites them
//! toward the chosen edge service instance, and rewrites the reverse path so
//! that, to the client, every response appears to come from the cloud.
//!
//! This crate provides:
//!
//! * [`oxm`] — OXM match fields (`IN_PORT`, `ETH_SRC/DST`, `ETH_TYPE`,
//!   `IP_PROTO`, `IPV4_SRC/DST`, `TCP_SRC/DST`) with byte-exact TLV
//!   encoding, plus the [`oxm::Match`] set and its packet-matching semantics,
//! * [`actions`] — `OUTPUT` and `SET_FIELD` actions and the
//!   `APPLY_ACTIONS` instruction,
//! * [`messages`] — the control-channel messages the controller uses
//!   (`HELLO`, `ECHO`, `FEATURES`, `PACKET_IN`, `PACKET_OUT`, `FLOW_MOD`,
//!   `FLOW_REMOVED`, `BARRIER`) with binary encode/decode,
//! * [`table`] — flow-table semantics: priority lookup, counters, and
//!   idle/hard timeout expiry (the mechanism behind the controller's
//!   `FlowMemory` and automatic scale-down). Classification is indexed
//!   (tuple-space hashing over exact-match shapes) and expiry runs on a
//!   timer wheel, so per-packet and per-sweep cost is independent of table
//!   size,
//! * [`naive`] — the seed's linear-scan table, kept as the semantic
//!   reference, and [`diff`] — a differential harness that replays random
//!   operation sequences against both tables and asserts identical
//!   observable behavior.
//!
//! The wire format follows OpenFlow 1.3; the message subset used here is
//! layout-identical in 1.5 (which the paper cites). No I/O happens in this
//! crate — byte slices in, byte vectors out.
//!
//! ```
//! use openflow::{Match, Message};
//!
//! // The transparent-access service match: TCP to a registered ip:port.
//! let m = Match::service([203, 0, 113, 10], 80);
//! let msg = Message::FlowStatsRequest { table_id: 0xff, match_: m };
//! let bytes = msg.encode(42);
//! let (xid, decoded, used) = Message::decode(&bytes).unwrap();
//! assert_eq!((xid, used), (42, bytes.len()));
//! assert_eq!(decoded, msg);
//! ```

#![warn(missing_docs)]

pub mod actions;
pub mod diff;
pub mod messages;
pub mod naive;
pub mod oxm;
pub mod table;

pub use actions::{Action, Instruction};
pub use messages::{timeout_secs, FlowModCommand, Message, PacketInReason, RemovedReason};
pub use naive::NaiveFlowTable;
pub use oxm::{Match, MatchView};
pub use table::{FlowEntry, FlowTable};

/// Wire protocol version byte (OpenFlow 1.3).
pub const OFP_VERSION: u8 = 0x04;

/// Reserved port: send to controller.
pub const OFPP_CONTROLLER: u32 = 0xffff_fffd;
/// Reserved port: flood.
pub const OFPP_FLOOD: u32 = 0xffff_fffb;
/// Reserved port: packet-in "no buffer" marker.
pub const OFP_NO_BUFFER: u32 = 0xffff_ffff;

/// Back-patches the 16-bit big-endian length field at `out[at..at + 2]` with
/// the number of bytes from `from` to the end of `out` — called once what the
/// field covers has been written.
fn patch_len(out: &mut [u8], at: usize, from: usize) {
    let len = (out.len() - from) as u16;
    out[at..at + 2].copy_from_slice(&len.to_be_bytes());
}

/// Errors from decoding OpenFlow bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OfError {
    /// Buffer ended early.
    Truncated {
        /// What was being decoded.
        what: &'static str,
        /// Bytes needed.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// Unsupported protocol version byte.
    BadVersion(u8),
    /// Unknown or unsupported message type byte.
    BadType(u8),
    /// Malformed or unsupported OXM TLV.
    BadOxm(String),
    /// Malformed action or instruction.
    BadAction(String),
    /// Header length field disagrees with the content.
    BadLength {
        /// Length claimed by the header.
        declared: usize,
        /// Actual length available/consumed.
        actual: usize,
    },
}

impl std::fmt::Display for OfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OfError::Truncated { what, need, have } => {
                write!(f, "truncated {what}: need {need}, have {have}")
            }
            OfError::BadVersion(v) => write!(f, "unsupported OpenFlow version {v:#04x}"),
            OfError::BadType(t) => write!(f, "unsupported message type {t}"),
            OfError::BadOxm(m) => write!(f, "bad OXM: {m}"),
            OfError::BadAction(m) => write!(f, "bad action: {m}"),
            OfError::BadLength { declared, actual } => {
                write!(f, "length mismatch: declared {declared}, actual {actual}")
            }
        }
    }
}

impl std::error::Error for OfError {}
