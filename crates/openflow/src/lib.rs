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
//!   encoding, plus the [`oxm::Match`] set (packed, `Copy`, compared as a
//!   set) and its packet-matching semantics,
//! * [`actions`] — `OUTPUT` and `SET_FIELD` actions, the [`Actions`] list
//!   (at most five, inline, `Copy`) and the `APPLY_ACTIONS` instruction that
//!   carries it in a `FLOW_MOD`,
//! * [`messages`] — the control-channel messages the controller exchanges
//!   (`HELLO`, `ERROR`, `PACKET_IN`, `PACKET_OUT`, `FLOW_MOD` Add / Delete,
//!   `FLOW_REMOVED`, `BARRIER`) with one encoder, which writes into a
//!   caller-owned buffer, and one parser, which borrows the packet bytes it
//!   finds; the decoder refuses every other message type, command, a hard
//!   timeout and a sixth action,
//! * [`table`] — flow-table semantics: priority lookup, counters, and
//!   idle-timeout expiry (the mechanism behind the controller's
//!   `FlowMemory` and automatic scale-down). Classification is indexed
//!   (tuple-space hashing over exact-match shapes) and expiry runs on a
//!   timer heap, so per-packet cost is independent of table size and a
//!   sweep pops only what is due. The seed's linear-scan table is kept as
//!   the semantic reference in this crate's tests (`tests/table_diff.rs`),
//!   not shipped.
//!
//! The wire format follows OpenFlow 1.3; the message subset used here is
//! layout-identical in 1.5 (which the paper cites). No I/O happens in this
//! crate — byte slices in, bytes written into a buffer the caller owns out.
//!
//! ```
//! use openflow::{Actions, FlowModCommand, Match, Message, OFP_NO_BUFFER};
//!
//! // Tearing down the transparent-access service match: TCP to a registered
//! // ip:port.
//! let msg: Message = Message::FlowMod {
//!     cookie: 0,
//!     table_id: 0,
//!     command: FlowModCommand::Delete,
//!     idle_timeout: 0,
//!     priority: 0,
//!     buffer_id: OFP_NO_BUFFER,
//!     flags: 0,
//!     match_: Match::service([203, 0, 113, 10], 80),
//!     actions: Actions::new(), // a Delete carries no instruction
//! };
//! // Encoded into a buffer another message travelled in: it is overwritten,
//! // and its capacity reused.
//! let mut bytes = Message::Hello.encode(41);
//! msg.encode_into(42, &mut bytes);
//! assert_eq!(bytes, msg.encode(42));
//! let (xid, decoded, used) = Message::decode(&bytes).unwrap();
//! assert_eq!((xid, used), (42, bytes.len()));
//! assert_eq!(decoded, msg);
//! // DELETE_STRICT (command 4) is not in the subset: refused, not widened.
//! bytes[8 + 17] = 4;
//! assert!(Message::decode(&bytes).is_err());
//! ```

#![warn(missing_docs)]

pub mod actions;
pub mod messages;
pub mod oxm;
pub mod table;

pub use actions::{Action, Actions};
pub use messages::{timeout_secs, FlowModCommand, Message, PacketInReason, RemovedReason};
pub use oxm::{Match, MatchView};
pub use table::{FlowEntry, FlowTable};

/// Wire protocol version byte (OpenFlow 1.3).
pub(crate) const OFP_VERSION: u8 = 0x04;

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

/// Errors from decoding OpenFlow bytes. Each carries the offending code or
/// length, never a formatted string, so refusing a message costs no heap
/// call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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
    BadOxm(OxmFault),
    /// Malformed action or instruction.
    BadAction(ActionFault),
    /// A match gives one field kind twice, here by its OXM field code
    /// (OpenFlow's `OFPBMC_DUP_FIELD`).
    DupField(u8),
    /// A `FLOW_MOD` carries a second instruction (OpenFlow's
    /// `OFPBIC_DUP_INST`: the one the subset knows, `APPLY_ACTIONS`, may be
    /// given once).
    DupInstruction,
    /// Header length field disagrees with the content.
    BadLength {
        /// Length claimed by the header.
        declared: usize,
        /// Actual length available/consumed.
        actual: usize,
    },
    /// A well-formed request this subset does not honour.
    Unsupported(&'static str),
}

/// What is wrong with an OXM TLV or an `ofp_match`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OxmFault {
    /// An OXM class other than "openflow basic".
    Class(u16),
    /// The has-mask bit is set: only exact fields are supported.
    Masked,
    /// A field code outside the supported set.
    Field(u8),
    /// A field whose payload length is not its kind's.
    Len {
        /// The field code.
        code: u8,
        /// The kind's payload length.
        want: usize,
        /// The length the TLV gave.
        got: usize,
    },
    /// An `ofp_match` type other than OXM (1).
    MatchType(u16),
}

/// What is wrong with an action or an instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ActionFault {
    /// An action length under 8 or not a multiple of 8.
    Len(usize),
    /// An `OUTPUT` action whose length is not 16.
    OutputLen(usize),
    /// An action type other than `OUTPUT` and `SET_FIELD`.
    Type(u16),
    /// An instruction type other than `APPLY_ACTIONS`.
    Instruction(u16),
    /// More actions in one list than [`actions::Actions::CAP`].
    TooMany,
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
            OfError::DupField(code) => write!(f, "OXM field {code} given twice"),
            OfError::DupInstruction => write!(f, "FLOW_MOD instruction given twice"),
            OfError::BadLength { declared, actual } => {
                write!(f, "length mismatch: declared {declared}, actual {actual}")
            }
            OfError::Unsupported(what) => write!(f, "unsupported {what}"),
        }
    }
}

impl std::fmt::Display for OxmFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OxmFault::Class(class) => write!(f, "unsupported class {class:#06x}"),
            OxmFault::Masked => write!(f, "masked fields unsupported"),
            OxmFault::Field(code) => write!(f, "unsupported field {code}"),
            OxmFault::Len { code, want, got } => {
                write!(f, "field {code}: expected len {want}, got {got}")
            }
            OxmFault::MatchType(mtype) => write!(f, "unsupported match type {mtype}"),
        }
    }
}

impl std::fmt::Display for ActionFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ActionFault::Len(len) => write!(f, "bad action length {len}"),
            ActionFault::OutputLen(len) => write!(f, "output len {len}"),
            ActionFault::Type(t) => write!(f, "unsupported action type {t}"),
            ActionFault::Instruction(t) => write!(f, "unsupported instruction type {t}"),
            ActionFault::TooMany => {
                write!(f, "more than {} actions in one list", actions::Actions::CAP)
            }
        }
    }
}

impl std::error::Error for OfError {}
