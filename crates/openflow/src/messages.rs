//! OpenFlow control-channel messages.
//!
//! The subset the transparent-edge controller exchanges with its switches:
//! `HELLO`, the reactive path (`PACKET_IN` → `FLOW_MOD` Add + `PACKET_OUT`),
//! `FLOW_MOD` Delete for teardown, expiry notifications (`FLOW_REMOVED`, which
//! drive FlowMemory cleanup and idle scale-down), `BARRIER` for ordering and
//! `ERROR`. Nothing else decodes: a request the switch cannot honour — any
//! other message type, a `FLOW_MOD` command other than `ADD` / `DELETE`, a
//! hard timeout — is refused, not half-applied (DESIGN.md "Control-channel
//! vocabulary").

use crate::actions::{self, Actions};
use crate::oxm::Match;
use crate::{OfError, OFP_VERSION};
use desim::Duration;

/// Converts a timeout [`Duration`] to the `u16` whole-seconds wire field of
/// `FLOW_MOD` / `FLOW_REMOVED`.
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
const T_ERROR: u8 = 1;
const T_PACKET_IN: u8 = 10;
const T_FLOW_REMOVED: u8 = 11;
const T_PACKET_OUT: u8 = 13;
const T_FLOW_MOD: u8 = 14;
const T_BARRIER_REQUEST: u8 = 20;
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

/// High-level error categories (a condensed `ofp_error_type`); the
/// discriminant is the wire value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorType {
    /// Request could not be parsed.
    BadRequest = 1,
    /// An action was malformed or unsupported.
    BadAction = 2,
    /// A flow modification failed.
    FlowModFailed = 5,
}

impl ErrorType {
    fn from_u16(v: u16) -> Result<Self, OfError> {
        match v {
            1 => Ok(ErrorType::BadRequest),
            2 => Ok(ErrorType::BadAction),
            5 => Ok(ErrorType::FlowModFailed),
            other => Err(OfError::BadType(other as u8)),
        }
    }
}

/// `FLOW_MOD` commands: the two the controller sends. `MODIFY`,
/// `MODIFY_STRICT` and `DELETE_STRICT` do not decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowModCommand {
    /// Add a new flow.
    Add,
    /// Delete every flow whose match equals the message's, at any priority.
    Delete,
}

impl FlowModCommand {
    fn to_u8(self) -> u8 {
        match self {
            FlowModCommand::Add => 0,
            FlowModCommand::Delete => 3, // OFPFC_DELETE
        }
    }

    fn from_u8(v: u8) -> Result<Self, OfError> {
        match v {
            0 => Ok(FlowModCommand::Add),
            3 => Ok(FlowModCommand::Delete),
            other => Err(OfError::BadType(other)),
        }
    }
}

/// Flag bit: send a `FLOW_REMOVED` when this flow expires.
pub const OFPFF_SEND_FLOW_REM: u16 = 1;

/// A decoded OpenFlow message (without the xid, which travels separately).
///
/// `B` carries the packet bytes of `PACKET_IN`, `PACKET_OUT` and `ERROR`: an
/// owned `Vec<u8>` by default — what [`Message::decode`] returns and what a
/// message built to be kept holds — or `&[u8]`, borrowed from the received
/// bytes ([`Message::parse`]) or from the frame a switch reports
/// ([`Message::encode_into`] takes either). There is one parser and one
/// encoder; the owned decode is the parse plus one copy.
#[derive(Clone, Debug, PartialEq)]
pub enum Message<B = Vec<u8>> {
    /// Version negotiation.
    Hello,
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
        data: B,
    },
    /// Packet injected by the controller.
    PacketOut {
        /// Buffer to release, or [`crate::OFP_NO_BUFFER`] when `data` is
        /// carried inline.
        buffer_id: u32,
        /// Ingress port context.
        in_port: u32,
        /// Actions to apply.
        actions: Actions,
        /// Inline packet bytes (empty when `buffer_id` is used).
        data: B,
    },
    /// Flow table modification.
    FlowMod {
        /// Opaque controller cookie.
        cookie: u64,
        /// Target table.
        table_id: u8,
        /// Add or delete.
        command: FlowModCommand,
        /// Idle timeout in seconds (0 = none). The hard timeout is always
        /// none: it encodes as 0, and a non-zero one does not decode.
        idle_timeout: u16,
        /// Priority (higher wins).
        priority: u16,
        /// Buffered packet to run through the new flow, or
        /// [`crate::OFP_NO_BUFFER`].
        buffer_id: u32,
        /// Flags ([`OFPFF_SEND_FLOW_REM`]).
        flags: u16,
        /// The match.
        match_: Match,
        /// The flow's actions. An Add carries them in one `APPLY_ACTIONS`
        /// instruction (none is a drop rule); a Delete carries no
        /// instruction, so its list is empty.
        actions: Actions,
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
        /// Its hard timeout (read, not acted on; our switch reports 0).
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
        data: B,
    },
}

impl<B: AsRef<[u8]>> Message<B> {
    fn type_byte(&self) -> u8 {
        match self {
            Message::Hello => T_HELLO,
            Message::PacketIn { .. } => T_PACKET_IN,
            Message::FlowRemoved { .. } => T_FLOW_REMOVED,
            Message::PacketOut { .. } => T_PACKET_OUT,
            Message::FlowMod { .. } => T_FLOW_MOD,
            Message::BarrierRequest => T_BARRIER_REQUEST,
            Message::BarrierReply => T_BARRIER_REPLY,
            Message::Error { .. } => T_ERROR,
        }
    }

    /// Exactly how many bytes [`Message::encode_into`] writes — header,
    /// body and padding. The encoder reserves this much once and never
    /// grows; callers use it to refuse a message the 16-bit header length
    /// cannot describe ([`Message::MAX_LEN`]) before building it.
    pub fn encoded_len(&self) -> usize {
        8 + match self {
            Message::Hello | Message::BarrierRequest | Message::BarrierReply => 0,
            Message::PacketIn { match_, data, .. } => {
                16 + match_.encoded_len() + 2 + data.as_ref().len()
            }
            Message::PacketOut { actions, data, .. } => {
                16 + actions.encoded_len() + data.as_ref().len()
            }
            Message::FlowMod { command, match_, actions, .. } => {
                40 + match_.encoded_len()
                    + match command {
                        FlowModCommand::Add => actions::apply_actions_len(actions),
                        FlowModCommand::Delete => 0,
                    }
            }
            Message::Error { data, .. } => 4 + data.as_ref().len().min(64),
            Message::FlowRemoved { match_, .. } => 40 + match_.encoded_len(),
        }
    }

    /// Encodes the message with the given transaction id into `out`,
    /// replacing whatever it held: room for exactly [`Message::encoded_len`]
    /// bytes is reserved once (nothing, for a recycled buffer that already
    /// has it), the header goes first, the body straight behind it, and the
    /// header length is patched in last from the size actually written.
    pub fn encode_into(&self, xid: u32, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(self.encoded_len());
        out.push(OFP_VERSION);
        out.push(self.type_byte());
        out.extend_from_slice(&[0u8; 2]); // length, patched below
        out.extend_from_slice(&xid.to_be_bytes());
        match self {
            Message::Hello | Message::BarrierRequest | Message::BarrierReply => {}
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
                match_.encode(out);
                out.extend_from_slice(&[0u8; 2]); // pad before data
                out.extend_from_slice(data.as_ref());
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
                actions.encode(out);
                crate::patch_len(out, actions_len_at, actions_len_at + 8);
                out.extend_from_slice(data.as_ref());
            }
            Message::FlowMod {
                cookie,
                table_id,
                command,
                idle_timeout,
                priority,
                buffer_id,
                flags,
                match_,
                actions,
            } => {
                debug_assert!(
                    *command == FlowModCommand::Add || actions.is_empty(),
                    "a Delete carries no instruction"
                );
                out.extend_from_slice(&cookie.to_be_bytes());
                out.extend_from_slice(&u64::MAX.to_be_bytes()); // cookie_mask
                out.push(*table_id);
                out.push(command.to_u8());
                out.extend_from_slice(&idle_timeout.to_be_bytes());
                out.extend_from_slice(&0u16.to_be_bytes()); // hard_timeout: none
                out.extend_from_slice(&priority.to_be_bytes());
                out.extend_from_slice(&buffer_id.to_be_bytes());
                out.extend_from_slice(&0xffff_ffffu32.to_be_bytes()); // out_port ANY
                out.extend_from_slice(&0xffff_ffffu32.to_be_bytes()); // out_group ANY
                out.extend_from_slice(&flags.to_be_bytes());
                out.extend_from_slice(&[0u8; 2]); // pad
                match_.encode(out);
                if *command == FlowModCommand::Add {
                    actions::encode_apply_actions(actions, out);
                }
            }
            Message::Error { error_type, code, data } => {
                out.extend_from_slice(&(*error_type as u16).to_be_bytes());
                out.extend_from_slice(&code.to_be_bytes());
                let data = data.as_ref();
                out.extend_from_slice(&data[..data.len().min(64)]);
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
                match_.encode(out);
            }
        }
        debug_assert_eq!(out.len(), self.encoded_len(), "encoded_len out of step with encode");
        debug_assert!(
            out.len() <= Message::MAX_LEN,
            "a {}-byte message overflows the 16-bit header length; senders check encoded_len()",
            out.len()
        );
        crate::patch_len(out, 2, 0);
    }
}

impl Message {
    /// The longest message the header's 16-bit length field can describe.
    /// A sender must not build anything longer: its length would wrap and
    /// the receiver would cut the stream in the wrong place.
    pub const MAX_LEN: usize = u16::MAX as usize;

    /// [`Message::encode_into`] a new buffer of exactly
    /// [`Message::encoded_len`] bytes.
    pub fn encode(&self, xid: u32) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(xid, &mut out);
        out
    }

    /// [`Message::parse`] with the packet bytes copied out, so the message
    /// outlives `buf`.
    pub fn decode(buf: &[u8]) -> Result<(u32, Message, usize), OfError> {
        let (xid, msg, used) = Message::parse(buf)?;
        Ok((xid, msg.into_owned(), used))
    }
}

impl<'a> Message<&'a [u8]> {

    /// Decodes one message from the front of `buf`, returning `(xid, message,
    /// bytes consumed)`, its packet bytes borrowed from `buf`: no heap call.
    /// Extra bytes after the declared length are left untouched (the control
    /// channel is a byte stream).
    pub fn parse(buf: &'a [u8]) -> Result<(u32, Message<&'a [u8]>, usize), OfError> {
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
                    data: &rest[2..],
                }
            }
            T_PACKET_OUT => {
                need(16)?;
                let buffer_id = u32::from_be_bytes(b[0..4].try_into().expect("len checked"));
                let in_port = u32::from_be_bytes(b[4..8].try_into().expect("len checked"));
                let actions_len = u16::from_be_bytes([b[8], b[9]]) as usize;
                need(16 + actions_len)?;
                let actions = Actions::decode(&b[16..16 + actions_len])?;
                Message::PacketOut {
                    buffer_id,
                    in_port,
                    actions,
                    data: &b[16 + actions_len..],
                }
            }
            T_FLOW_MOD => {
                need(40)?;
                let cookie = u64::from_be_bytes(b[0..8].try_into().expect("len checked"));
                let table_id = b[16];
                let command = FlowModCommand::from_u8(b[17])?;
                let idle_timeout = u16::from_be_bytes([b[18], b[19]]);
                if b[20..22] != [0, 0] {
                    return Err(OfError::Unsupported("FLOW_MOD hard timeout"));
                }
                let priority = u16::from_be_bytes([b[22], b[23]]);
                let buffer_id = u32::from_be_bytes(b[24..28].try_into().expect("len checked"));
                let flags = u16::from_be_bytes([b[36], b[37]]);
                let (match_, used) = Match::decode(&b[40..])?;
                let actions = match (command, actions::decode_instructions(&b[40 + used..])?) {
                    (FlowModCommand::Add, actions) => actions.unwrap_or_default(),
                    (FlowModCommand::Delete, None) => Actions::new(),
                    (FlowModCommand::Delete, Some(_)) => {
                        return Err(OfError::Unsupported("FLOW_MOD Delete instruction"))
                    }
                };
                Message::FlowMod {
                    cookie,
                    table_id,
                    command,
                    idle_timeout,
                    priority,
                    buffer_id,
                    flags,
                    match_,
                    actions,
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
                    data: &b[4..],
                }
            }
            other => return Err(OfError::BadType(other)),
        };
        Ok((xid, msg, length))
    }

    /// The message with its packet bytes copied into a `Vec` of its own.
    pub fn into_owned(self) -> Message {
        use Message as M;
        match self {
            M::Hello => M::Hello,
            M::BarrierRequest => M::BarrierRequest,
            M::BarrierReply => M::BarrierReply,
            M::PacketIn { buffer_id, total_len, reason, table_id, cookie, match_, data } => {
                let data = data.to_vec();
                M::PacketIn { buffer_id, total_len, reason, table_id, cookie, match_, data }
            }
            M::PacketOut { buffer_id, in_port, actions, data } => {
                M::PacketOut { buffer_id, in_port, actions, data: data.to_vec() }
            }
            M::Error { error_type, code, data } => M::Error { error_type, code, data: data.to_vec() },
            M::FlowMod { cookie, table_id, command, idle_timeout, priority, buffer_id, flags, match_, actions } => {
                M::FlowMod { cookie, table_id, command, idle_timeout, priority, buffer_id, flags, match_, actions }
            }
            M::FlowRemoved {
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
            } => M::FlowRemoved {
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
            },
        }
    }
}

/// The encoder [`Message::encode`] replaced, kept as the oracle it is tested
/// against: every nested structure is built in a temporary `Vec` of its own
/// (so its length is known when its header is written) and the finished body
/// is copied behind the message header.
#[cfg(test)]
mod two_buffer {
    use super::*;
    use crate::actions::Action;

    fn match_(m: &Match, out: &mut Vec<u8>) {
        // Ascending field code, read off each TLV's field byte.
        let mut fields: Vec<_> = m.fields().collect();
        fields.sort_by_key(|f| {
            let mut tlv = Vec::new();
            f.encode(&mut tlv);
            tlv[2]
        });
        let mut body = Vec::new();
        for f in fields {
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

    fn instruction(actions: &[Action], out: &mut Vec<u8>) {
        let mut body = Vec::new();
        for a in actions {
            action(a, &mut body);
        }
        out.extend_from_slice(&4u16.to_be_bytes());
        out.extend_from_slice(&((8 + body.len()) as u16).to_be_bytes());
        out.extend_from_slice(&[0u8; 4]);
        out.extend_from_slice(&body);
    }

    pub(super) fn encode(msg: &Message, xid: u32) -> Vec<u8> {
        let mut body = Vec::new();
        match msg {
            Message::Hello | Message::BarrierRequest | Message::BarrierReply => {}
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
                for a in actions.iter() {
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
                priority,
                buffer_id,
                flags,
                match_: m,
                actions,
            } => {
                body.extend_from_slice(&cookie.to_be_bytes());
                body.extend_from_slice(&u64::MAX.to_be_bytes());
                body.push(*table_id);
                body.push(command.to_u8());
                body.extend_from_slice(&idle_timeout.to_be_bytes());
                body.extend_from_slice(&[0u8; 2]);
                body.extend_from_slice(&priority.to_be_bytes());
                body.extend_from_slice(&buffer_id.to_be_bytes());
                body.extend_from_slice(&[0xff; 8]);
                body.extend_from_slice(&flags.to_be_bytes());
                body.extend_from_slice(&[0u8; 2]);
                match_(m, &mut body);
                if *command == FlowModCommand::Add {
                    instruction(actions, &mut body);
                }
            }
            Message::Error { error_type, code, data } => {
                body.extend_from_slice(&(*error_type as u16).to_be_bytes());
                body.extend_from_slice(&code.to_be_bytes());
                body.extend_from_slice(&data[..data.len().min(64)]);
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
    use crate::actions::Action;
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
        roundtrip(Message::BarrierRequest);
        roundtrip(Message::BarrierReply);
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
            actions: Actions::from([
                Action::SetField(OxmField::Ipv4Dst([10, 0, 0, 5])),
                Action::SetField(OxmField::TcpDst(31080)),
                Action::output(7),
            ]),
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
            priority: 100,
            buffer_id: crate::OFP_NO_BUFFER,
            flags: OFPFF_SEND_FLOW_REM,
            match_: Match::connection([192, 168, 1, 20], 50000, [203, 0, 113, 10], 80),
            actions: Actions::from([
                Action::SetField(OxmField::EthDst([2, 0, 0, 0, 0, 9])),
                Action::SetField(OxmField::Ipv4Dst([10, 0, 0, 5])),
                Action::SetField(OxmField::TcpDst(31080)),
                Action::output(7),
            ]),
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
        // 99 was never a type; 2, 3, 5, 6, 18 and 19 (ECHO, FEATURES,
        // multipart) are OpenFlow's but no run sends them.
        for t in [99, 2, 3, 5, 6, 18, 19] {
            let mut bytes = Message::Hello.encode(1);
            bytes[1] = t;
            assert_eq!(Message::decode(&bytes), Err(OfError::BadType(t)));
        }
    }

    #[test]
    fn rejects_truncation_at_every_boundary() {
        let bytes = Message::FlowMod {
            cookie: 1,
            table_id: 0,
            command: FlowModCommand::Add,
            idle_timeout: 0,
            priority: 1,
            buffer_id: crate::OFP_NO_BUFFER,
            flags: 0,
            match_: Match::service([1, 2, 3, 4], 80),
            actions: Actions::from([Action::output(1)]),
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

    /// Empty lists up to full ones, and lists of `SetField`s only (odd
    /// unpadded lengths: a 1-byte `IpProto` pads 9 → 16, a 6-byte MAC
    /// 14 → 16) included.
    fn arb_actions() -> impl Strategy<Value = Actions> {
        prop::collection::vec(
            prop_oneof![
                1 => (any::<u32>(), any::<u16>())
                    .prop_map(|(port, max_len)| Action::Output { port, max_len }),
                3 => arb_field().prop_map(Action::SetField),
            ],
            0..=Actions::CAP,
        )
        .prop_map(Actions::from_iter)
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
        let command = prop_oneof![Just(FlowModCommand::Add), Just(FlowModCommand::Delete)];
        let error_type = prop_oneof![
            Just(ErrorType::BadRequest),
            Just(ErrorType::BadAction),
            Just(ErrorType::FlowModFailed)
        ];
        prop_oneof![
            Just(Message::Hello),
            Just(Message::BarrierRequest),
            Just(Message::BarrierReply),
            (any::<u32>(), any::<u16>(), reason, any::<u8>(), any::<u64>(), arb_match(), arb_bytes(200))
                .prop_map(|(buffer_id, total_len, reason, table_id, cookie, match_, data)| {
                    Message::PacketIn { buffer_id, total_len, reason, table_id, cookie, match_, data }
                }),
            (any::<u32>(), any::<u32>(), arb_actions(), arb_bytes(200)).prop_map(
                |(buffer_id, in_port, actions, data)| Message::PacketOut { buffer_id, in_port, actions, data }
            ),
            (
                (any::<u64>(), any::<u8>(), command, any::<(u16, u16, u16)>(), any::<u32>()),
                arb_match(),
                arb_actions(),
            )
                .prop_map(
                    |((cookie, table_id, command, (idle_timeout, priority, flags), buffer_id), match_, actions)| {
                        // A Delete carries no instruction, so no actions.
                        let actions = if command == FlowModCommand::Add { actions } else { Actions::new() };
                        Message::FlowMod {
                            cookie,
                            table_id,
                            command,
                            idle_timeout,
                            priority,
                            buffer_id,
                            flags,
                            match_,
                            actions,
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
            for a in actions.iter() {
                let before = out.len();
                a.encode(&mut out);
                prop_assert_eq!(out.len() - before, a.encoded_len());
            }
            let before = out.len();
            actions::encode_apply_actions(&actions, &mut out);
            prop_assert_eq!(out.len() - before, actions::apply_actions_len(&actions));
            prop_assert_eq!(actions::decode_instructions(&out[before..]).unwrap(), Some(actions));
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
        let data = vec![0; Message::MAX_LEN];
        Message::PacketOut { buffer_id: crate::OFP_NO_BUFFER, in_port: 1, actions: Actions::new(), data }.encode(1);
    }
}
