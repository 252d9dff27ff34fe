//! OpenFlow control-channel messages.
//!
//! The subset the transparent-edge controller exchanges with its switches:
//! session setup (`HELLO`, `FEATURES`), liveness (`ECHO`), the reactive path
//! (`PACKET_IN` → `FLOW_MOD` + `PACKET_OUT`), expiry notifications
//! (`FLOW_REMOVED`, which drive FlowMemory cleanup and idle scale-down) and
//! `BARRIER` for ordering.

use crate::actions::{Action, Instruction};
use crate::oxm::Match;
use crate::{OfError, OFP_VERSION};
use desim::Duration;

/// Converts a timeout [`Duration`] to the `u16` whole-seconds wire field of
/// `FLOW_MOD` / `FLOW_REMOVED` / flow stats.
///
/// The wire value `0` means *no timeout* ("never expire"), so a flooring
/// division would silently turn any sub-second timeout into an immortal
/// flow, and a plain `as u16` cast wraps timeouts above `u16::MAX` seconds
/// (18.2 h) around to arbitrary small values. Instead: `Duration::ZERO`
/// stays `0` (genuinely no timeout), and every non-zero duration clamps to
/// `[1, u16::MAX]` seconds.
pub fn timeout_secs(d: Duration) -> u16 {
    if d == Duration::ZERO {
        0
    } else {
        (d.as_nanos() / 1_000_000_000).clamp(1, u16::MAX as u64) as u16
    }
}

const T_HELLO: u8 = 0;
const T_ECHO_REQUEST: u8 = 2;
const T_ECHO_REPLY: u8 = 3;
const T_FEATURES_REQUEST: u8 = 5;
const T_FEATURES_REPLY: u8 = 6;
const T_PACKET_IN: u8 = 10;
const T_FLOW_REMOVED: u8 = 11;
const T_PACKET_OUT: u8 = 13;
const T_FLOW_MOD: u8 = 14;
const T_ERROR: u8 = 1;
const T_MULTIPART_REQUEST: u8 = 18;
const T_MULTIPART_REPLY: u8 = 19;
const T_BARRIER_REQUEST: u8 = 20;

/// Multipart type for flow statistics.
const OFPMP_FLOW: u16 = 1;
const T_BARRIER_REPLY: u8 = 21;

/// Why a packet was sent to the controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PacketInReason {
    /// No matching flow (table-miss).
    NoMatch,
    /// Explicit output-to-controller action.
    Action,
    /// TTL invalid.
    InvalidTtl,
}

impl PacketInReason {
    fn to_u8(self) -> u8 {
        match self {
            PacketInReason::NoMatch => 0,
            PacketInReason::Action => 1,
            PacketInReason::InvalidTtl => 2,
        }
    }

    fn from_u8(v: u8) -> Result<Self, OfError> {
        match v {
            0 => Ok(PacketInReason::NoMatch),
            1 => Ok(PacketInReason::Action),
            2 => Ok(PacketInReason::InvalidTtl),
            other => Err(OfError::BadType(other)),
        }
    }
}

/// Why a flow entry was removed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RemovedReason {
    /// Idle timeout expired.
    IdleTimeout,
    /// Hard timeout expired.
    HardTimeout,
    /// Deleted by a `FLOW_MOD`.
    Delete,
}

impl RemovedReason {
    fn to_u8(self) -> u8 {
        match self {
            RemovedReason::IdleTimeout => 0,
            RemovedReason::HardTimeout => 1,
            RemovedReason::Delete => 2,
        }
    }

    fn from_u8(v: u8) -> Result<Self, OfError> {
        match v {
            0 => Ok(RemovedReason::IdleTimeout),
            1 => Ok(RemovedReason::HardTimeout),
            2 => Ok(RemovedReason::Delete),
            other => Err(OfError::BadType(other)),
        }
    }
}

/// High-level error categories (a condensed `ofp_error_type`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorType {
    /// Request could not be parsed.
    BadRequest,
    /// An action was malformed or unsupported.
    BadAction,
    /// A flow modification failed.
    FlowModFailed,
}

impl ErrorType {
    fn to_u16(self) -> u16 {
        match self {
            ErrorType::BadRequest => 1,
            ErrorType::BadAction => 2,
            ErrorType::FlowModFailed => 5,
        }
    }

    fn from_u16(v: u16) -> Result<Self, OfError> {
        match v {
            1 => Ok(ErrorType::BadRequest),
            2 => Ok(ErrorType::BadAction),
            5 => Ok(ErrorType::FlowModFailed),
            other => Err(OfError::BadType(other as u8)),
        }
    }
}

/// One entry of a flow-statistics multipart reply.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowStatsEntry {
    /// Table the flow lives in.
    pub table_id: u8,
    /// Seconds the flow has been installed.
    pub duration_sec: u32,
    /// Flow priority.
    pub priority: u16,
    /// Idle timeout (seconds).
    pub idle_timeout: u16,
    /// Hard timeout (seconds).
    pub hard_timeout: u16,
    /// Controller cookie.
    pub cookie: u64,
    /// Packets matched.
    pub packet_count: u64,
    /// Bytes matched.
    pub byte_count: u64,
    /// The match.
    pub match_: Match,
}

impl FlowStatsEntry {
    fn encoded_len(&self) -> usize {
        48 + self.match_.encoded_len()
    }

    fn encode(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&[0u8; 2]); // length, patched below
        out.push(self.table_id);
        out.push(0); // pad
        out.extend_from_slice(&self.duration_sec.to_be_bytes());
        out.extend_from_slice(&0u32.to_be_bytes()); // duration_nsec
        out.extend_from_slice(&self.priority.to_be_bytes());
        out.extend_from_slice(&self.idle_timeout.to_be_bytes());
        out.extend_from_slice(&self.hard_timeout.to_be_bytes());
        out.extend_from_slice(&[0u8; 6]); // flags + pad
        out.extend_from_slice(&self.cookie.to_be_bytes());
        out.extend_from_slice(&self.packet_count.to_be_bytes());
        out.extend_from_slice(&self.byte_count.to_be_bytes());
        self.match_.encode(out);
        // The length prefix covers the whole entry including itself.
        crate::patch_len(out, start, start);
    }

    fn decode(buf: &[u8]) -> Result<(FlowStatsEntry, usize), OfError> {
        if buf.len() < 2 {
            return Err(OfError::Truncated { what: "flow stats length", need: 2, have: buf.len() });
        }
        let len = u16::from_be_bytes([buf[0], buf[1]]) as usize;
        if len < 48 || buf.len() < len {
            return Err(OfError::Truncated { what: "flow stats entry", need: len.max(48), have: buf.len() });
        }
        let b = &buf[2..len];
        let (match_, _) = Match::decode(&b[46..])?;
        Ok((
            FlowStatsEntry {
                table_id: b[0],
                duration_sec: u32::from_be_bytes(b[2..6].try_into().expect("len checked")),
                priority: u16::from_be_bytes([b[10], b[11]]),
                idle_timeout: u16::from_be_bytes([b[12], b[13]]),
                hard_timeout: u16::from_be_bytes([b[14], b[15]]),
                cookie: u64::from_be_bytes(b[22..30].try_into().expect("len checked")),
                packet_count: u64::from_be_bytes(b[30..38].try_into().expect("len checked")),
                byte_count: u64::from_be_bytes(b[38..46].try_into().expect("len checked")),
                match_,
            },
            len,
        ))
    }
}

/// `FLOW_MOD` commands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowModCommand {
    /// Add a new flow.
    Add,
    /// Modify matching flows.
    Modify,
    /// Delete matching flows.
    Delete,
}

impl FlowModCommand {
    fn to_u8(self) -> u8 {
        match self {
            FlowModCommand::Add => 0,
            FlowModCommand::Modify => 1,
            FlowModCommand::Delete => 3, // OFPFC_DELETE
        }
    }

    fn from_u8(v: u8) -> Result<Self, OfError> {
        match v {
            0 => Ok(FlowModCommand::Add),
            1 | 2 => Ok(FlowModCommand::Modify),
            3 | 4 => Ok(FlowModCommand::Delete),
            other => Err(OfError::BadType(other)),
        }
    }
}

/// Flag bit: send a `FLOW_REMOVED` when this flow expires.
pub const OFPFF_SEND_FLOW_REM: u16 = 1;

/// A decoded OpenFlow message (without the xid, which travels separately).
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Version negotiation.
    Hello,
    /// Liveness probe.
    EchoRequest(Vec<u8>),
    /// Liveness response (echoes the request payload).
    EchoReply(Vec<u8>),
    /// Ask the switch for its identity.
    FeaturesRequest,
    /// Switch identity.
    FeaturesReply {
        /// Datapath id (unique switch identity).
        datapath_id: u64,
        /// Packet buffer slots available for packet-in buffering.
        n_buffers: u32,
        /// Number of flow tables.
        n_tables: u8,
    },
    /// Packet sent to the controller.
    PacketIn {
        /// Switch buffer slot holding the full packet, or
        /// [`crate::OFP_NO_BUFFER`].
        buffer_id: u32,
        /// Full length of the original packet.
        total_len: u16,
        /// Why it was sent.
        reason: PacketInReason,
        /// Table that produced it.
        table_id: u8,
        /// Cookie of the flow that produced it (0 for table-miss).
        cookie: u64,
        /// Packet metadata (carries `IN_PORT`).
        match_: Match,
        /// The (possibly truncated) packet bytes.
        data: Vec<u8>,
    },
    /// Packet injected by the controller.
    PacketOut {
        /// Buffer to release, or [`crate::OFP_NO_BUFFER`] when `data` is
        /// carried inline.
        buffer_id: u32,
        /// Ingress port context.
        in_port: u32,
        /// Actions to apply.
        actions: Vec<Action>,
        /// Inline packet bytes (empty when `buffer_id` is used).
        data: Vec<u8>,
    },
    /// Flow table modification.
    FlowMod {
        /// Opaque controller cookie.
        cookie: u64,
        /// Target table.
        table_id: u8,
        /// Add/modify/delete.
        command: FlowModCommand,
        /// Idle timeout in seconds (0 = none).
        idle_timeout: u16,
        /// Hard timeout in seconds (0 = none).
        hard_timeout: u16,
        /// Priority (higher wins).
        priority: u16,
        /// Buffered packet to run through the new flow, or
        /// [`crate::OFP_NO_BUFFER`].
        buffer_id: u32,
        /// Flags ([`OFPFF_SEND_FLOW_REM`]).
        flags: u16,
        /// The match.
        match_: Match,
        /// The instructions.
        instructions: Vec<Instruction>,
    },
    /// Notification that a flow expired or was deleted.
    FlowRemoved {
        /// Cookie of the removed flow.
        cookie: u64,
        /// Its priority.
        priority: u16,
        /// Why it was removed.
        reason: RemovedReason,
        /// Table it lived in.
        table_id: u8,
        /// Lifetime seconds.
        duration_sec: u32,
        /// Lifetime nanoseconds remainder.
        duration_nsec: u32,
        /// Its idle timeout.
        idle_timeout: u16,
        /// Its hard timeout.
        hard_timeout: u16,
        /// Packets it matched.
        packet_count: u64,
        /// Bytes it matched.
        byte_count: u64,
        /// The match.
        match_: Match,
    },
    /// Ordering fence request.
    BarrierRequest,
    /// Ordering fence acknowledgement.
    BarrierReply,
    /// An error notification (the offending message's first bytes attached).
    Error {
        /// Error category.
        error_type: ErrorType,
        /// Category-specific code.
        code: u16,
        /// Up to 64 bytes of the offending message.
        data: Vec<u8>,
    },
    /// Flow statistics request (multipart, `OFPMP_FLOW`); the match filters
    /// which flows are reported (wildcard = all).
    FlowStatsRequest {
        /// Table to query (0xff = all).
        table_id: u8,
        /// Filter match.
        match_: Match,
    },
    /// Flow statistics reply.
    FlowStatsReply {
        /// The matching flows' statistics.
        flows: Vec<FlowStatsEntry>,
    },
}

impl Message {
    fn type_byte(&self) -> u8 {
        match self {
            Message::Hello => T_HELLO,
            Message::EchoRequest(_) => T_ECHO_REQUEST,
            Message::EchoReply(_) => T_ECHO_REPLY,
            Message::FeaturesRequest => T_FEATURES_REQUEST,
            Message::FeaturesReply { .. } => T_FEATURES_REPLY,
            Message::PacketIn { .. } => T_PACKET_IN,
            Message::FlowRemoved { .. } => T_FLOW_REMOVED,
            Message::PacketOut { .. } => T_PACKET_OUT,
            Message::FlowMod { .. } => T_FLOW_MOD,
            Message::BarrierRequest => T_BARRIER_REQUEST,
            Message::BarrierReply => T_BARRIER_REPLY,
            Message::Error { .. } => T_ERROR,
            Message::FlowStatsRequest { .. } => T_MULTIPART_REQUEST,
            Message::FlowStatsReply { .. } => T_MULTIPART_REPLY,
        }
    }

    /// Exactly how many bytes [`Message::encode`] returns — header, body
    /// and padding. The encoder allocates this much once and never grows;
    /// callers use it to refuse a message the 16-bit header length cannot
    /// describe ([`Message::MAX_LEN`]) before building it.
    pub fn encoded_len(&self) -> usize {
        8 + match self {
            Message::Hello
            | Message::FeaturesRequest
            | Message::BarrierRequest
            | Message::BarrierReply => 0,
            Message::EchoRequest(data) | Message::EchoReply(data) => data.len(),
            Message::FeaturesReply { .. } => 24,
            Message::PacketIn { match_, data, .. } => 16 + match_.encoded_len() + 2 + data.len(),
            Message::PacketOut { actions, data, .. } => {
                16 + actions.iter().map(Action::encoded_len).sum::<usize>() + data.len()
            }
            Message::FlowMod { match_, instructions, .. } => {
                40 + match_.encoded_len()
                    + instructions.iter().map(Instruction::encoded_len).sum::<usize>()
            }
            Message::Error { data, .. } => 4 + data.len().min(64),
            Message::FlowStatsRequest { match_, .. } => 40 + match_.encoded_len(),
            Message::FlowStatsReply { flows } => {
                8 + flows.iter().map(FlowStatsEntry::encoded_len).sum::<usize>()
            }
            Message::FlowRemoved { match_, .. } => 40 + match_.encoded_len(),
        }
    }

    /// The longest message the header's 16-bit length field can describe.
    /// A sender must not build anything longer: its length would wrap and
    /// the receiver would cut the stream in the wrong place.
    pub const MAX_LEN: usize = u16::MAX as usize;

    /// Encodes the message with the given transaction id into one buffer of
    /// exactly [`Message::encoded_len`] bytes: header first, body written
    /// straight behind it, the header length patched in last from the size
    /// actually written.
    pub fn encode(&self, xid: u32) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.push(OFP_VERSION);
        out.push(self.type_byte());
        out.extend_from_slice(&[0u8; 2]); // length, patched below
        out.extend_from_slice(&xid.to_be_bytes());
        match self {
            Message::Hello
            | Message::FeaturesRequest
            | Message::BarrierRequest
            | Message::BarrierReply => {}
            Message::EchoRequest(data) | Message::EchoReply(data) => {
                out.extend_from_slice(data);
            }
            Message::FeaturesReply {
                datapath_id,
                n_buffers,
                n_tables,
            } => {
                out.extend_from_slice(&datapath_id.to_be_bytes());
                out.extend_from_slice(&n_buffers.to_be_bytes());
                out.push(*n_tables);
                out.push(0); // auxiliary_id
                out.extend_from_slice(&[0u8; 2]); // pad
                out.extend_from_slice(&0u32.to_be_bytes()); // capabilities
                out.extend_from_slice(&0u32.to_be_bytes()); // reserved
            }
            Message::PacketIn {
                buffer_id,
                total_len,
                reason,
                table_id,
                cookie,
                match_,
                data,
            } => {
                out.extend_from_slice(&buffer_id.to_be_bytes());
                out.extend_from_slice(&total_len.to_be_bytes());
                out.push(reason.to_u8());
                out.push(*table_id);
                out.extend_from_slice(&cookie.to_be_bytes());
                match_.encode(&mut out);
                out.extend_from_slice(&[0u8; 2]); // pad before data
                out.extend_from_slice(data);
            }
            Message::PacketOut {
                buffer_id,
                in_port,
                actions,
                data,
            } => {
                out.extend_from_slice(&buffer_id.to_be_bytes());
                out.extend_from_slice(&in_port.to_be_bytes());
                let actions_len_at = out.len();
                out.extend_from_slice(&[0u8; 8]); // actions_len (patched below) + pad
                Action::encode_list(actions, &mut out);
                crate::patch_len(&mut out, actions_len_at, actions_len_at + 8);
                out.extend_from_slice(data);
            }
            Message::FlowMod {
                cookie,
                table_id,
                command,
                idle_timeout,
                hard_timeout,
                priority,
                buffer_id,
                flags,
                match_,
                instructions,
            } => {
                out.extend_from_slice(&cookie.to_be_bytes());
                out.extend_from_slice(&u64::MAX.to_be_bytes()); // cookie_mask
                out.push(*table_id);
                out.push(command.to_u8());
                out.extend_from_slice(&idle_timeout.to_be_bytes());
                out.extend_from_slice(&hard_timeout.to_be_bytes());
                out.extend_from_slice(&priority.to_be_bytes());
                out.extend_from_slice(&buffer_id.to_be_bytes());
                out.extend_from_slice(&0xffff_ffffu32.to_be_bytes()); // out_port ANY
                out.extend_from_slice(&0xffff_ffffu32.to_be_bytes()); // out_group ANY
                out.extend_from_slice(&flags.to_be_bytes());
                out.extend_from_slice(&[0u8; 2]); // pad
                match_.encode(&mut out);
                Instruction::encode_list(instructions, &mut out);
            }
            Message::Error { error_type, code, data } => {
                out.extend_from_slice(&error_type.to_u16().to_be_bytes());
                out.extend_from_slice(&code.to_be_bytes());
                out.extend_from_slice(&data[..data.len().min(64)]);
            }
            Message::FlowStatsRequest { table_id, match_ } => {
                out.extend_from_slice(&OFPMP_FLOW.to_be_bytes());
                out.extend_from_slice(&[0u8; 6]); // flags + pad
                out.push(*table_id);
                out.extend_from_slice(&[0u8; 3]); // pad
                out.extend_from_slice(&0xffff_ffffu32.to_be_bytes()); // out_port ANY
                out.extend_from_slice(&0xffff_ffffu32.to_be_bytes()); // out_group ANY
                out.extend_from_slice(&[0u8; 4]); // pad
                out.extend_from_slice(&0u64.to_be_bytes()); // cookie
                out.extend_from_slice(&0u64.to_be_bytes()); // cookie mask
                match_.encode(&mut out);
            }
            Message::FlowStatsReply { flows } => {
                out.extend_from_slice(&OFPMP_FLOW.to_be_bytes());
                out.extend_from_slice(&[0u8; 6]); // flags + pad
                for f in flows {
                    f.encode(&mut out);
                }
            }
            Message::FlowRemoved {
                cookie,
                priority,
                reason,
                table_id,
                duration_sec,
                duration_nsec,
                idle_timeout,
                hard_timeout,
                packet_count,
                byte_count,
                match_,
            } => {
                out.extend_from_slice(&cookie.to_be_bytes());
                out.extend_from_slice(&priority.to_be_bytes());
                out.push(reason.to_u8());
                out.push(*table_id);
                out.extend_from_slice(&duration_sec.to_be_bytes());
                out.extend_from_slice(&duration_nsec.to_be_bytes());
                out.extend_from_slice(&idle_timeout.to_be_bytes());
                out.extend_from_slice(&hard_timeout.to_be_bytes());
                out.extend_from_slice(&packet_count.to_be_bytes());
                out.extend_from_slice(&byte_count.to_be_bytes());
                match_.encode(&mut out);
            }
        }
        debug_assert_eq!(out.len(), self.encoded_len(), "encoded_len out of step with encode");
        debug_assert!(
            out.len() <= Message::MAX_LEN,
            "a {}-byte message overflows the 16-bit header length; senders check encoded_len()",
            out.len()
        );
        crate::patch_len(&mut out, 2, 0);
        out
    }

    /// Decodes one message from the front of `buf`, returning `(xid, message,
    /// bytes consumed)`. Extra bytes after the declared length are left
    /// untouched (the control channel is a byte stream).
    pub fn decode(buf: &[u8]) -> Result<(u32, Message, usize), OfError> {
        if buf.len() < 8 {
            return Err(OfError::Truncated {
                what: "message header",
                need: 8,
                have: buf.len(),
            });
        }
        if buf[0] != OFP_VERSION {
            return Err(OfError::BadVersion(buf[0]));
        }
        let mtype = buf[1];
        let length = u16::from_be_bytes([buf[2], buf[3]]) as usize;
        if length < 8 {
            return Err(OfError::BadLength {
                declared: length,
                actual: buf.len(),
            });
        }
        if buf.len() < length {
            return Err(OfError::Truncated {
                what: "message body",
                need: length,
                have: buf.len(),
            });
        }
        let xid = u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]);
        let b = &buf[8..length];
        let need = |want: usize| -> Result<(), OfError> {
            if b.len() < want {
                Err(OfError::Truncated {
                    what: "message fields",
                    need: want,
                    have: b.len(),
                })
            } else {
                Ok(())
            }
        };
        let msg = match mtype {
            T_HELLO => Message::Hello,
            T_ECHO_REQUEST => Message::EchoRequest(b.to_vec()),
            T_ECHO_REPLY => Message::EchoReply(b.to_vec()),
            T_FEATURES_REQUEST => Message::FeaturesRequest,
            T_FEATURES_REPLY => {
                need(24)?;
                Message::FeaturesReply {
                    datapath_id: u64::from_be_bytes(b[0..8].try_into().expect("len checked")),
                    n_buffers: u32::from_be_bytes(b[8..12].try_into().expect("len checked")),
                    n_tables: b[12],
                }
            }
            T_PACKET_IN => {
                need(16)?;
                let buffer_id = u32::from_be_bytes(b[0..4].try_into().expect("len checked"));
                let total_len = u16::from_be_bytes([b[4], b[5]]);
                let reason = PacketInReason::from_u8(b[6])?;
                let table_id = b[7];
                let cookie = u64::from_be_bytes(b[8..16].try_into().expect("len checked"));
                let (match_, used) = Match::decode(&b[16..])?;
                let rest = &b[16 + used..];
                if rest.len() < 2 {
                    return Err(OfError::Truncated {
                        what: "packet-in pad",
                        need: 2,
                        have: rest.len(),
                    });
                }
                Message::PacketIn {
                    buffer_id,
                    total_len,
                    reason,
                    table_id,
                    cookie,
                    match_,
                    data: rest[2..].to_vec(),
                }
            }
            T_PACKET_OUT => {
                need(16)?;
                let buffer_id = u32::from_be_bytes(b[0..4].try_into().expect("len checked"));
                let in_port = u32::from_be_bytes(b[4..8].try_into().expect("len checked"));
                let actions_len = u16::from_be_bytes([b[8], b[9]]) as usize;
                need(16 + actions_len)?;
                let actions = Action::decode_list(&b[16..16 + actions_len], actions_len)?;
                Message::PacketOut {
                    buffer_id,
                    in_port,
                    actions,
                    data: b[16 + actions_len..].to_vec(),
                }
            }
            T_FLOW_MOD => {
                need(40)?;
                let cookie = u64::from_be_bytes(b[0..8].try_into().expect("len checked"));
                let table_id = b[16];
                let command = FlowModCommand::from_u8(b[17])?;
                let idle_timeout = u16::from_be_bytes([b[18], b[19]]);
                let hard_timeout = u16::from_be_bytes([b[20], b[21]]);
                let priority = u16::from_be_bytes([b[22], b[23]]);
                let buffer_id = u32::from_be_bytes(b[24..28].try_into().expect("len checked"));
                let flags = u16::from_be_bytes([b[36], b[37]]);
                let (match_, used) = Match::decode(&b[40..])?;
                let instructions = Instruction::decode_all(&b[40 + used..])?;
                Message::FlowMod {
                    cookie,
                    table_id,
                    command,
                    idle_timeout,
                    hard_timeout,
                    priority,
                    buffer_id,
                    flags,
                    match_,
                    instructions,
                }
            }
            T_FLOW_REMOVED => {
                need(40)?;
                let cookie = u64::from_be_bytes(b[0..8].try_into().expect("len checked"));
                let priority = u16::from_be_bytes([b[8], b[9]]);
                let reason = RemovedReason::from_u8(b[10])?;
                let table_id = b[11];
                let duration_sec = u32::from_be_bytes(b[12..16].try_into().expect("len checked"));
                let duration_nsec = u32::from_be_bytes(b[16..20].try_into().expect("len checked"));
                let idle_timeout = u16::from_be_bytes([b[20], b[21]]);
                let hard_timeout = u16::from_be_bytes([b[22], b[23]]);
                let packet_count = u64::from_be_bytes(b[24..32].try_into().expect("len checked"));
                let byte_count = u64::from_be_bytes(b[32..40].try_into().expect("len checked"));
                let (match_, _) = Match::decode(&b[40..])?;
                Message::FlowRemoved {
                    cookie,
                    priority,
                    reason,
                    table_id,
                    duration_sec,
                    duration_nsec,
                    idle_timeout,
                    hard_timeout,
                    packet_count,
                    byte_count,
                    match_,
                }
            }
            T_BARRIER_REQUEST => Message::BarrierRequest,
            T_BARRIER_REPLY => Message::BarrierReply,
            T_ERROR => {
                need(4)?;
                Message::Error {
                    error_type: ErrorType::from_u16(u16::from_be_bytes([b[0], b[1]]))?,
                    code: u16::from_be_bytes([b[2], b[3]]),
                    data: b[4..].to_vec(),
                }
            }
            T_MULTIPART_REQUEST => {
                need(40)?;
                let mp_type = u16::from_be_bytes([b[0], b[1]]);
                if mp_type != OFPMP_FLOW {
                    return Err(OfError::BadType(mp_type as u8));
                }
                let table_id = b[8];
                let (match_, _) = Match::decode(&b[40..])?;
                Message::FlowStatsRequest { table_id, match_ }
            }
            T_MULTIPART_REPLY => {
                need(8)?;
                let mp_type = u16::from_be_bytes([b[0], b[1]]);
                if mp_type != OFPMP_FLOW {
                    return Err(OfError::BadType(mp_type as u8));
                }
                let mut flows = Vec::new();
                let mut off = 8;
                while off < b.len() {
                    let (f, used) = FlowStatsEntry::decode(&b[off..])?;
                    flows.push(f);
                    off += used;
                }
                Message::FlowStatsReply { flows }
            }
            other => return Err(OfError::BadType(other)),
        };
        Ok((xid, msg, length))
    }
}

/// The encoder [`Message::encode`] replaced, kept as the oracle it is tested
/// against: every nested structure is built in a temporary `Vec` of its own
/// (so its length is known when its header is written) and the finished body
/// is copied behind the message header.
#[cfg(test)]
mod two_buffer {
    use super::*;

    fn match_(m: &Match, out: &mut Vec<u8>) {
        let mut body = Vec::new();
        for f in m.fields() {
            f.encode(&mut body);
        }
        let length = 4 + body.len();
        out.extend_from_slice(&1u16.to_be_bytes());
        out.extend_from_slice(&(length as u16).to_be_bytes());
        out.extend_from_slice(&body);
        out.extend(std::iter::repeat_n(0u8, (8 - length % 8) % 8));
    }

    fn action(a: &Action, out: &mut Vec<u8>) {
        match a {
            Action::Output { port, max_len } => {
                out.extend_from_slice(&0u16.to_be_bytes());
                out.extend_from_slice(&16u16.to_be_bytes());
                out.extend_from_slice(&port.to_be_bytes());
                out.extend_from_slice(&max_len.to_be_bytes());
                out.extend_from_slice(&[0u8; 6]);
            }
            Action::SetField(field) => {
                let mut oxm = Vec::new();
                field.encode(&mut oxm);
                let unpadded = 4 + oxm.len();
                let padded = unpadded.div_ceil(8) * 8;
                out.extend_from_slice(&25u16.to_be_bytes());
                out.extend_from_slice(&(padded as u16).to_be_bytes());
                out.extend_from_slice(&oxm);
                out.extend(std::iter::repeat_n(0u8, padded - unpadded));
            }
        }
    }

    fn instruction(i: &Instruction, out: &mut Vec<u8>) {
        let mut body = Vec::new();
        for a in i.actions() {
            action(a, &mut body);
        }
        out.extend_from_slice(&4u16.to_be_bytes());
        out.extend_from_slice(&((8 + body.len()) as u16).to_be_bytes());
        out.extend_from_slice(&[0u8; 4]);
        out.extend_from_slice(&body);
    }

    fn flow_stats(f: &FlowStatsEntry, out: &mut Vec<u8>) {
        let mut body = vec![f.table_id, 0];
        body.extend_from_slice(&f.duration_sec.to_be_bytes());
        body.extend_from_slice(&0u32.to_be_bytes());
        body.extend_from_slice(&f.priority.to_be_bytes());
        body.extend_from_slice(&f.idle_timeout.to_be_bytes());
        body.extend_from_slice(&f.hard_timeout.to_be_bytes());
        body.extend_from_slice(&[0u8; 6]);
        body.extend_from_slice(&f.cookie.to_be_bytes());
        body.extend_from_slice(&f.packet_count.to_be_bytes());
        body.extend_from_slice(&f.byte_count.to_be_bytes());
        match_(&f.match_, &mut body);
        out.extend_from_slice(&((body.len() + 2) as u16).to_be_bytes());
        out.extend_from_slice(&body);
    }

    pub(super) fn encode(msg: &Message, xid: u32) -> Vec<u8> {
        let mut body = Vec::new();
        match msg {
            Message::Hello
            | Message::FeaturesRequest
            | Message::BarrierRequest
            | Message::BarrierReply => {}
            Message::EchoRequest(data) | Message::EchoReply(data) => body.extend_from_slice(data),
            Message::FeaturesReply { datapath_id, n_buffers, n_tables } => {
                body.extend_from_slice(&datapath_id.to_be_bytes());
                body.extend_from_slice(&n_buffers.to_be_bytes());
                body.extend_from_slice(&[*n_tables, 0, 0, 0]);
                body.extend_from_slice(&[0u8; 8]);
            }
            Message::PacketIn { buffer_id, total_len, reason, table_id, cookie, match_: m, data } => {
                body.extend_from_slice(&buffer_id.to_be_bytes());
                body.extend_from_slice(&total_len.to_be_bytes());
                body.push(reason.to_u8());
                body.push(*table_id);
                body.extend_from_slice(&cookie.to_be_bytes());
                match_(m, &mut body);
                body.extend_from_slice(&[0u8; 2]);
                body.extend_from_slice(data);
            }
            Message::PacketOut { buffer_id, in_port, actions, data } => {
                let mut abuf = Vec::new();
                for a in actions {
                    action(a, &mut abuf);
                }
                body.extend_from_slice(&buffer_id.to_be_bytes());
                body.extend_from_slice(&in_port.to_be_bytes());
                body.extend_from_slice(&(abuf.len() as u16).to_be_bytes());
                body.extend_from_slice(&[0u8; 6]);
                body.extend_from_slice(&abuf);
                body.extend_from_slice(data);
            }
            Message::FlowMod {
                cookie,
                table_id,
                command,
                idle_timeout,
                hard_timeout,
                priority,
                buffer_id,
                flags,
                match_: m,
                instructions,
            } => {
                body.extend_from_slice(&cookie.to_be_bytes());
                body.extend_from_slice(&u64::MAX.to_be_bytes());
                body.push(*table_id);
                body.push(command.to_u8());
                body.extend_from_slice(&idle_timeout.to_be_bytes());
                body.extend_from_slice(&hard_timeout.to_be_bytes());
                body.extend_from_slice(&priority.to_be_bytes());
                body.extend_from_slice(&buffer_id.to_be_bytes());
                body.extend_from_slice(&[0xff; 8]);
                body.extend_from_slice(&flags.to_be_bytes());
                body.extend_from_slice(&[0u8; 2]);
                match_(m, &mut body);
                for i in instructions {
                    instruction(i, &mut body);
                }
            }
            Message::Error { error_type, code, data } => {
                body.extend_from_slice(&error_type.to_u16().to_be_bytes());
                body.extend_from_slice(&code.to_be_bytes());
                body.extend_from_slice(&data[..data.len().min(64)]);
            }
            Message::FlowStatsRequest { table_id, match_: m } => {
                body.extend_from_slice(&OFPMP_FLOW.to_be_bytes());
                body.extend_from_slice(&[0u8; 6]);
                body.extend_from_slice(&[*table_id, 0, 0, 0]);
                body.extend_from_slice(&[0xff; 8]);
                body.extend_from_slice(&[0u8; 20]);
                match_(m, &mut body);
            }
            Message::FlowStatsReply { flows } => {
                body.extend_from_slice(&OFPMP_FLOW.to_be_bytes());
                body.extend_from_slice(&[0u8; 6]);
                for f in flows {
                    flow_stats(f, &mut body);
                }
            }
            Message::FlowRemoved {
                cookie,
                priority,
                reason,
                table_id,
                duration_sec,
                duration_nsec,
                idle_timeout,
                hard_timeout,
                packet_count,
                byte_count,
                match_: m,
            } => {
                body.extend_from_slice(&cookie.to_be_bytes());
                body.extend_from_slice(&priority.to_be_bytes());
                body.push(reason.to_u8());
                body.push(*table_id);
                body.extend_from_slice(&duration_sec.to_be_bytes());
                body.extend_from_slice(&duration_nsec.to_be_bytes());
                body.extend_from_slice(&idle_timeout.to_be_bytes());
                body.extend_from_slice(&hard_timeout.to_be_bytes());
                body.extend_from_slice(&packet_count.to_be_bytes());
                body.extend_from_slice(&byte_count.to_be_bytes());
                match_(m, &mut body);
            }
        }
        let mut out = Vec::with_capacity(8 + body.len());
        out.push(OFP_VERSION);
        out.push(msg.type_byte());
        out.extend_from_slice(&((8 + body.len()) as u16).to_be_bytes());
        out.extend_from_slice(&xid.to_be_bytes());
        out.extend_from_slice(&body);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oxm::OxmField;

    fn roundtrip(msg: Message) {
        let xid = 0xdeadbeef;
        let bytes = msg.encode(xid);
        // Declared length equals actual.
        let declared = u16::from_be_bytes([bytes[2], bytes[3]]) as usize;
        assert_eq!(declared, bytes.len());
        let (x, back, used) = Message::decode(&bytes).unwrap();
        assert_eq!(x, xid);
        assert_eq!(used, bytes.len());
        assert_eq!(back, msg);
    }

    #[test]
    fn simple_messages_roundtrip() {
        roundtrip(Message::Hello);
        roundtrip(Message::FeaturesRequest);
        roundtrip(Message::BarrierRequest);
        roundtrip(Message::BarrierReply);
        roundtrip(Message::EchoRequest(b"ping".to_vec()));
        roundtrip(Message::EchoReply(vec![]));
    }

    #[test]
    fn features_reply_roundtrip() {
        roundtrip(Message::FeaturesReply {
            datapath_id: 0x0102030405060708,
            n_buffers: 256,
            n_tables: 4,
        });
    }

    #[test]
    fn packet_in_roundtrip() {
        roundtrip(Message::PacketIn {
            buffer_id: 42,
            total_len: 74,
            reason: PacketInReason::NoMatch,
            table_id: 0,
            cookie: 0,
            match_: Match::any().with(OxmField::InPort(3)),
            data: vec![0xaa; 74],
        });
    }

    #[test]
    fn packet_out_roundtrip() {
        roundtrip(Message::PacketOut {
            buffer_id: crate::OFP_NO_BUFFER,
            in_port: 3,
            actions: vec![
                Action::SetField(OxmField::Ipv4Dst([10, 0, 0, 5])),
                Action::SetField(OxmField::TcpDst(31080)),
                Action::output(7),
            ],
            data: b"raw frame bytes".to_vec(),
        });
    }

    #[test]
    fn flow_mod_roundtrip() {
        roundtrip(Message::FlowMod {
            cookie: 0xc00c1e,
            table_id: 0,
            command: FlowModCommand::Add,
            idle_timeout: 10,
            hard_timeout: 0,
            priority: 100,
            buffer_id: crate::OFP_NO_BUFFER,
            flags: OFPFF_SEND_FLOW_REM,
            match_: Match::connection([192, 168, 1, 20], 50000, [203, 0, 113, 10], 80),
            instructions: vec![Instruction::ApplyActions(vec![
                Action::SetField(OxmField::EthDst([2, 0, 0, 0, 0, 9])),
                Action::SetField(OxmField::Ipv4Dst([10, 0, 0, 5])),
                Action::SetField(OxmField::TcpDst(31080)),
                Action::output(7),
            ])],
        });
    }

    #[test]
    fn flow_removed_roundtrip() {
        roundtrip(Message::FlowRemoved {
            cookie: 7,
            priority: 100,
            reason: RemovedReason::IdleTimeout,
            table_id: 0,
            duration_sec: 12,
            duration_nsec: 345,
            idle_timeout: 10,
            hard_timeout: 0,
            packet_count: 55,
            byte_count: 12345,
            match_: Match::service([203, 0, 113, 10], 80),
        });
    }

    #[test]
    fn error_roundtrip() {
        roundtrip(Message::Error {
            error_type: ErrorType::FlowModFailed,
            code: 3,
            data: vec![0xde, 0xad, 0xbe, 0xef],
        });
        roundtrip(Message::Error {
            error_type: ErrorType::BadRequest,
            code: 0,
            data: vec![],
        });
    }

    #[test]
    fn flow_stats_roundtrip() {
        roundtrip(Message::FlowStatsRequest {
            table_id: 0xff,
            match_: Match::any(),
        });
        roundtrip(Message::FlowStatsRequest {
            table_id: 0,
            match_: Match::service([203, 0, 113, 10], 80),
        });
        roundtrip(Message::FlowStatsReply { flows: vec![] });
        roundtrip(Message::FlowStatsReply {
            flows: vec![
                FlowStatsEntry {
                    table_id: 0,
                    duration_sec: 12,
                    priority: 100,
                    idle_timeout: 10,
                    hard_timeout: 0,
                    cookie: 7,
                    packet_count: 55,
                    byte_count: 12345,
                    match_: Match::connection([192, 168, 1, 20], 50000, [203, 0, 113, 10], 80),
                },
                FlowStatsEntry {
                    table_id: 0,
                    duration_sec: 1,
                    priority: 0,
                    idle_timeout: 0,
                    hard_timeout: 0,
                    cookie: 0,
                    packet_count: 0,
                    byte_count: 0,
                    match_: Match::any(),
                },
            ],
        });
    }

    #[test]
    fn stream_decoding_leaves_tail() {
        let a = Message::Hello.encode(1);
        let b = Message::BarrierRequest.encode(2);
        let mut stream = a.clone();
        stream.extend_from_slice(&b);
        let (x1, m1, used1) = Message::decode(&stream).unwrap();
        assert_eq!((x1, m1), (1, Message::Hello));
        let (x2, m2, used2) = Message::decode(&stream[used1..]).unwrap();
        assert_eq!((x2, m2), (2, Message::BarrierRequest));
        assert_eq!(used1 + used2, stream.len());
    }

    #[test]
    fn rejects_bad_version_and_type() {
        let mut bytes = Message::Hello.encode(1);
        bytes[0] = 0x01;
        assert_eq!(Message::decode(&bytes), Err(OfError::BadVersion(0x01)));
        let mut bytes = Message::Hello.encode(1);
        bytes[1] = 99;
        assert_eq!(Message::decode(&bytes), Err(OfError::BadType(99)));
    }

    #[test]
    fn rejects_truncation_at_every_boundary() {
        let bytes = Message::FlowMod {
            cookie: 1,
            table_id: 0,
            command: FlowModCommand::Add,
            idle_timeout: 0,
            hard_timeout: 0,
            priority: 1,
            buffer_id: crate::OFP_NO_BUFFER,
            flags: 0,
            match_: Match::service([1, 2, 3, 4], 80),
            instructions: vec![Instruction::ApplyActions(vec![Action::output(1)])],
        }
        .encode(9);
        for cut in [0, 4, 8, 20, 47, bytes.len() - 1] {
            assert!(Message::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn packet_in_preserves_frame_bytes_exactly() {
        let frame: Vec<u8> = (0..=255u8).collect();
        let msg = Message::PacketIn {
            buffer_id: crate::OFP_NO_BUFFER,
            total_len: frame.len() as u16,
            reason: PacketInReason::NoMatch,
            table_id: 0,
            cookie: 0,
            match_: Match::any().with(OxmField::InPort(1)),
            data: frame.clone(),
        };
        let bytes = msg.encode(5);
        let (_, back, _) = Message::decode(&bytes).unwrap();
        match back {
            Message::PacketIn { data, .. } => assert_eq!(data, frame),
            other => panic!("wrong message {other:?}"),
        }
    }

    #[test]
    fn timeout_secs_clamps_to_expressible_nonzero_seconds() {
        // Zero is the wire encoding for "no timeout" and must survive.
        assert_eq!(timeout_secs(Duration::ZERO), 0);
        // Sub-second timeouts round *up* to 1 s: flooring them to 0 would
        // silently install immortal flows.
        assert_eq!(timeout_secs(Duration::from_millis(500)), 1);
        assert_eq!(timeout_secs(Duration::from_nanos(1)), 1);
        // Whole seconds pass through unchanged.
        assert_eq!(timeout_secs(Duration::from_secs(10)), 10);
        assert_eq!(timeout_secs(Duration::from_secs(65_535)), u16::MAX);
        // A 20-hour timeout saturates instead of wrapping (72 000 s would
        // truncate to 6 464 s as a plain cast).
        assert_eq!(timeout_secs(Duration::from_secs(20 * 3600)), u16::MAX);
    }
    // -- single-buffer encoder vs the two-buffer oracle -----------------------

    use proptest::prelude::*;

    fn arb_field() -> impl Strategy<Value = OxmField> {
        prop_oneof![
            any::<u32>().prop_map(OxmField::InPort),
            any::<[u8; 6]>().prop_map(OxmField::EthDst),
            any::<[u8; 6]>().prop_map(OxmField::EthSrc),
            any::<u16>().prop_map(OxmField::EthType),
            any::<u8>().prop_map(OxmField::IpProto),
            any::<[u8; 4]>().prop_map(OxmField::Ipv4Src),
            any::<[u8; 4]>().prop_map(OxmField::Ipv4Dst),
            any::<u16>().prop_map(OxmField::TcpSrc),
            any::<u16>().prop_map(OxmField::TcpDst),
        ]
    }

    /// Empty up to all nine kinds; 12 draws so that nine distinct kinds do
    /// come up (`with` replaces a repeated kind).
    fn arb_match() -> impl Strategy<Value = Match> {
        prop::collection::vec(arb_field(), 0..13)
            .prop_map(|fs| fs.into_iter().fold(Match::any(), |m, f| m.with(f)))
    }

    /// Empty lists and lists of `SetField`s only (odd unpadded lengths: a
    /// 1-byte `IpProto` pads 9 → 16, a 6-byte MAC 14 → 16) included.
    fn arb_actions() -> impl Strategy<Value = Vec<Action>> {
        prop::collection::vec(
            prop_oneof![
                1 => (any::<u32>(), any::<u16>())
                    .prop_map(|(port, max_len)| Action::Output { port, max_len }),
                3 => arb_field().prop_map(Action::SetField),
            ],
            0..6,
        )
    }

    fn arb_stats_entry() -> impl Strategy<Value = FlowStatsEntry> {
        (any::<u8>(), any::<u32>(), any::<(u16, u16, u16)>(), any::<(u64, u64, u64)>(), arb_match()).prop_map(
            |(table_id, duration_sec, (priority, idle_timeout, hard_timeout), (cookie, packet_count, byte_count), match_)| {
                FlowStatsEntry {
                    table_id,
                    duration_sec,
                    priority,
                    idle_timeout,
                    hard_timeout,
                    cookie,
                    packet_count,
                    byte_count,
                    match_,
                }
            },
        )
    }

    fn arb_bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec(any::<u8>(), 0..max)
    }

    /// Every variant of [`Message`].
    fn arb_message() -> impl Strategy<Value = Message> {
        let reason = prop_oneof![
            Just(PacketInReason::NoMatch),
            Just(PacketInReason::Action),
            Just(PacketInReason::InvalidTtl)
        ];
        let removed = prop_oneof![
            Just(RemovedReason::IdleTimeout),
            Just(RemovedReason::HardTimeout),
            Just(RemovedReason::Delete)
        ];
        let command = prop_oneof![
            Just(FlowModCommand::Add),
            Just(FlowModCommand::Modify),
            Just(FlowModCommand::Delete)
        ];
        let error_type = prop_oneof![
            Just(ErrorType::BadRequest),
            Just(ErrorType::BadAction),
            Just(ErrorType::FlowModFailed)
        ];
        prop_oneof![
            Just(Message::Hello),
            Just(Message::FeaturesRequest),
            Just(Message::BarrierRequest),
            Just(Message::BarrierReply),
            arb_bytes(40).prop_map(Message::EchoRequest),
            arb_bytes(40).prop_map(Message::EchoReply),
            (any::<u64>(), any::<u32>(), any::<u8>()).prop_map(|(datapath_id, n_buffers, n_tables)| {
                Message::FeaturesReply { datapath_id, n_buffers, n_tables }
            }),
            (any::<u32>(), any::<u16>(), reason, any::<u8>(), any::<u64>(), arb_match(), arb_bytes(200))
                .prop_map(|(buffer_id, total_len, reason, table_id, cookie, match_, data)| {
                    Message::PacketIn { buffer_id, total_len, reason, table_id, cookie, match_, data }
                }),
            (any::<u32>(), any::<u32>(), arb_actions(), arb_bytes(200)).prop_map(
                |(buffer_id, in_port, actions, data)| Message::PacketOut { buffer_id, in_port, actions, data }
            ),
            (
                (any::<u64>(), any::<u8>(), command, any::<(u16, u16, u16, u16)>(), any::<u32>()),
                arb_match(),
                prop::collection::vec(arb_actions().prop_map(Instruction::ApplyActions), 0..3),
            )
                .prop_map(
                    |((cookie, table_id, command, (idle_timeout, hard_timeout, priority, flags), buffer_id), match_, instructions)| {
                        Message::FlowMod {
                            cookie,
                            table_id,
                            command,
                            idle_timeout,
                            hard_timeout,
                            priority,
                            buffer_id,
                            flags,
                            match_,
                            instructions,
                        }
                    }
                ),
            (any::<(u64, u64, u64)>(), any::<(u16, u16, u16)>(), removed, any::<u8>(), any::<(u32, u32)>(), arb_match()).prop_map(
                |((cookie, packet_count, byte_count), (priority, idle_timeout, hard_timeout), reason, table_id, (duration_sec, duration_nsec), match_)| {
                    Message::FlowRemoved {
                        cookie,
                        priority,
                        reason,
                        table_id,
                        duration_sec,
                        duration_nsec,
                        idle_timeout,
                        hard_timeout,
                        packet_count,
                        byte_count,
                        match_,
                    }
                }
            ),
            // Payloads past the 64 bytes an `ERROR` carries included.
            (error_type, any::<u16>(), arb_bytes(100))
                .prop_map(|(error_type, code, data)| Message::Error { error_type, code, data }),
            (any::<u8>(), arb_match())
                .prop_map(|(table_id, match_)| Message::FlowStatsRequest { table_id, match_ }),
            prop::collection::vec(arb_stats_entry(), 0..5)
                .prop_map(|flows| Message::FlowStatsReply { flows }),
        ]
    }

    proptest! {
        /// The single-buffer encoder writes the bytes the two-buffer one
        /// did, `encoded_len` predicts their number (so the one allocation
        /// never grows — `frame_allocs` counts it), and the header announces
        /// it.
        #[test]
        fn encode_equals_the_two_buffer_oracle(msg in arb_message(), xid in any::<u32>()) {
            let bytes = msg.encode(xid);
            prop_assert_eq!(&bytes, &two_buffer::encode(&msg, xid));
            prop_assert_eq!(bytes.len(), msg.encoded_len());
            prop_assert_eq!(u16::from_be_bytes([bytes[2], bytes[3]]) as usize, bytes.len());
        }

        /// The parts report the length they append, at any offset.
        #[test]
        fn part_lengths_are_what_encode_appends(
            m in arb_match(),
            actions in arb_actions(),
            prefix in arb_bytes(9),
        ) {
            let mut out = prefix.clone();
            m.encode(&mut out);
            prop_assert_eq!(out.len() - prefix.len(), m.encoded_len());
            for a in &actions {
                let before = out.len();
                a.encode(&mut out);
                prop_assert_eq!(out.len() - before, a.encoded_len());
            }
            let i = Instruction::ApplyActions(actions);
            let before = out.len();
            i.encode(&mut out);
            prop_assert_eq!(out.len() - before, i.encoded_len());
            prop_assert_eq!(Instruction::decode(&out[before..]).unwrap(), (i, out.len() - before));
        }
    }

    /// The largest message the header can describe still encodes with a true
    /// length; `encoded_len` is how a sender sees that one more byte cannot.
    #[test]
    fn header_length_is_exact_up_to_the_16_bit_limit() {
        let packet_in = |n: usize| Message::PacketIn {
            buffer_id: crate::OFP_NO_BUFFER,
            total_len: u16::MAX,
            reason: PacketInReason::NoMatch,
            table_id: 0,
            cookie: 0,
            match_: Match::any().with(OxmField::InPort(1)),
            data: vec![0xab; n],
        };
        let overhead = packet_in(0).encoded_len();
        let largest = packet_in(Message::MAX_LEN - overhead);
        let bytes = largest.encode(1);
        assert_eq!(bytes.len(), Message::MAX_LEN);
        assert_eq!(u16::from_be_bytes([bytes[2], bytes[3]]), u16::MAX);
        assert_eq!(Message::decode(&bytes).unwrap(), (1, largest, Message::MAX_LEN));
        assert_eq!(packet_in(Message::MAX_LEN - overhead + 1).encoded_len(), Message::MAX_LEN + 1);
    }

    /// What the wrap used to do: 65 591 bytes announced as 55.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overflows the 16-bit header length")]
    fn encoding_an_unrepresentable_message_is_a_bug() {
        Message::EchoRequest(vec![0; Message::MAX_LEN]).encode(1);
    }
}
