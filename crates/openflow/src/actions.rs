//! OpenFlow actions and instructions.
//!
//! The transparent redirect needs exactly two action kinds: `SET_FIELD`
//! (rewrite MAC/IP/port toward the edge instance, and the reverse rewrite on
//! the return path) and `OUTPUT` (forward out of a port / to the controller).
//! A flow carries its actions as one [`Actions`] list — at most five, inline
//! and `Copy`, so installing, filing and re-sending a flow never asks the
//! heap for its actions. On the wire a `FLOW_MOD` Add wraps the list in a
//! single `APPLY_ACTIONS` instruction, the only one the subset knows, which
//! is how the controller installs immediate rewrites.

use crate::oxm::OxmField;
use crate::{ActionFault, OfError};

const OFPAT_OUTPUT: u16 = 0;
const OFPAT_SET_FIELD: u16 = 25;
const OFPIT_APPLY_ACTIONS: u16 = 4;

/// An OpenFlow action.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Forward the packet out of `port` (may be a reserved port such as
    /// [`crate::OFPP_CONTROLLER`]). `max_len` bytes are sent on controller
    /// output.
    Output {
        /// Egress port.
        port: u32,
        /// Bytes to include when outputting to the controller.
        max_len: u16,
    },
    /// Rewrite one header field.
    SetField(OxmField),
}

impl Action {
    /// Convenience constructor for a full-packet output.
    pub fn output(port: u32) -> Action {
        Action::Output {
            port,
            max_len: 0xffff,
        }
    }

    /// Bytes [`Action::encode`] appends (a multiple of 8).
    pub fn encoded_len(&self) -> usize {
        match self {
            Action::Output { .. } => 16,
            Action::SetField(field) => (4 + field.encoded_len()).next_multiple_of(8),
        }
    }

    /// Encodes this action (8-byte aligned) straight into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Action::Output { port, max_len } => {
                out.extend_from_slice(&OFPAT_OUTPUT.to_be_bytes());
                out.extend_from_slice(&16u16.to_be_bytes());
                out.extend_from_slice(&port.to_be_bytes());
                out.extend_from_slice(&max_len.to_be_bytes());
                out.extend_from_slice(&[0u8; 6]);
            }
            Action::SetField(field) => {
                let unpadded = 4 + field.encoded_len();
                let padded = self.encoded_len();
                out.extend_from_slice(&OFPAT_SET_FIELD.to_be_bytes());
                out.extend_from_slice(&(padded as u16).to_be_bytes());
                field.encode(out);
                out.extend(std::iter::repeat_n(0u8, padded - unpadded));
            }
        }
    }

    /// Decodes one action, returning it and the bytes consumed.
    pub fn decode(buf: &[u8]) -> Result<(Action, usize), OfError> {
        if buf.len() < 4 {
            return Err(OfError::Truncated {
                what: "action header",
                need: 4,
                have: buf.len(),
            });
        }
        let atype = u16::from_be_bytes([buf[0], buf[1]]);
        let len = u16::from_be_bytes([buf[2], buf[3]]) as usize;
        if len < 8 || !len.is_multiple_of(8) {
            return Err(OfError::BadAction(ActionFault::Len(len)));
        }
        if buf.len() < len {
            return Err(OfError::Truncated {
                what: "action body",
                need: len,
                have: buf.len(),
            });
        }
        match atype {
            OFPAT_OUTPUT => {
                if len != 16 {
                    return Err(OfError::BadAction(ActionFault::OutputLen(len)));
                }
                Ok((
                    Action::Output {
                        port: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
                        max_len: u16::from_be_bytes([buf[8], buf[9]]),
                    },
                    len,
                ))
            }
            OFPAT_SET_FIELD => {
                let (field, _) = OxmField::decode(&buf[4..len])?;
                Ok((Action::SetField(field), len))
            }
            other => Err(OfError::BadAction(ActionFault::Type(other))),
        }
    }
}

/// A flow's action list: at most [`Actions::CAP`] actions, held inline.
///
/// Like [`crate::Match`] it is `Copy` and never on the heap (a `Vec` of
/// actions took a 24-byte header plus a 48–60 byte block per flow), so a
/// flow, the controller's record of it and the messages that carry it copy
/// the list instead of allocating one. It reads as a slice of its actions,
/// compares as one, and prints as one — exactly as the `Vec` it replaces
/// did.
#[derive(Clone, Copy)]
pub struct Actions {
    len: u8,
    list: [Action; Actions::CAP],
}

/// What the unused slots of an [`Actions`] hold.
const VACANT: Action = Action::Output { port: 0, max_len: 0 };

impl Actions {
    /// The most actions one list holds: the longest the controller sends is
    /// the reverse rewrite of a redirect (MAC source and destination, IPv4
    /// source, TCP source, output). The decoder refuses a sixth
    /// ([`crate::ActionFault::TooMany`]) — the codec carries what a run
    /// sends.
    pub const CAP: usize = 5;

    /// The empty list: a drop rule's, a Delete's.
    pub const fn new() -> Actions {
        Actions { len: 0, list: [VACANT; Actions::CAP] }
    }

    /// Appends `action`.
    ///
    /// # Panics
    ///
    /// When the list already holds [`Actions::CAP`] actions: no rule the
    /// controller builds is longer, so a longer one is a bug.
    pub fn push(&mut self, action: Action) {
        assert!(self.len() < Actions::CAP, "an action list holds at most {} actions", Actions::CAP);
        self.list[self.len()] = action;
        self.len += 1;
    }

    /// Bytes [`Actions::encode`] appends.
    pub fn encoded_len(&self) -> usize {
        self.iter().map(Action::encoded_len).sum()
    }

    /// Encodes every action, in order, straight into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        for a in self.iter() {
            a.encode(out);
        }
    }

    /// Decodes all of `buf` as a list of actions. A sixth action is refused
    /// ([`crate::ActionFault::TooMany`]) before it is decoded.
    pub fn decode(buf: &[u8]) -> Result<Actions, OfError> {
        let mut out = Actions::new();
        let mut off = 0;
        while off < buf.len() {
            if out.len() == Actions::CAP {
                return Err(OfError::BadAction(ActionFault::TooMany));
            }
            let (a, used) = Action::decode(&buf[off..])?;
            out.push(a);
            off += used;
        }
        Ok(out)
    }
}

impl Default for Actions {
    fn default() -> Actions {
        Actions::new()
    }
}

impl std::ops::Deref for Actions {
    type Target = [Action];

    fn deref(&self) -> &[Action] {
        &self.list[..usize::from(self.len)]
    }
}

/// A list of up to [`Actions::CAP`] actions, checked when it compiles.
impl<const N: usize> From<[Action; N]> for Actions {
    fn from(actions: [Action; N]) -> Actions {
        const { assert!(N <= Actions::CAP, "an action list holds at most Actions::CAP actions") };
        let mut out = Actions::new();
        out.list[..N].copy_from_slice(&actions);
        out.len = N as u8;
        out
    }
}

/// Collects up to [`Actions::CAP`] actions; see [`Actions::push`].
impl FromIterator<Action> for Actions {
    fn from_iter<I: IntoIterator<Item = Action>>(actions: I) -> Actions {
        let mut out = Actions::new();
        for a in actions {
            out.push(a);
        }
        out
    }
}

impl PartialEq for Actions {
    fn eq(&self, other: &Actions) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Actions {}

/// As a list, exactly as the `Vec` it replaces printed: the controller's
/// state digest prints its flows with `{:?}`.
impl std::fmt::Debug for Actions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// An [`Actions`] as a [`crate::FlowTable`] slot keeps it: eight bytes an
/// action and no length, 40 bytes in all where the list takes 64.
///
/// An [`Action`] is 12 bytes because `SetField`'s [`OxmField`] carries its
/// own tag, four-byte aligned, so `Output` cannot share it. Packed, byte 0
/// says what the action is — 0 none (the list ends there), 1–9 a `SET_FIELD`
/// of one field kind, [`PACKED_OUTPUT`] an `OUTPUT` — and the next bytes its
/// value in native order, every kind at a fixed offset, so a lookup unpacks
/// the list with one jump per action and no length check.
#[derive(Clone, Copy)]
pub(crate) struct PackedActions([[u8; 8]; Actions::CAP]);

/// Byte 0 of a packed `OUTPUT`.
const PACKED_OUTPUT: u8 = 10;

/// `value` in the six value bytes of a cell, zero-padded.
fn padded<const N: usize>(value: [u8; N]) -> [u8; 6] {
    let mut out = [0; 6];
    out[..N].copy_from_slice(&value);
    out
}

impl PackedActions {
    /// Packs `actions`.
    pub(crate) fn pack(actions: &Actions) -> PackedActions {
        let mut packed = [[0u8; 8]; Actions::CAP];
        for (at, action) in packed.iter_mut().zip(actions.iter()) {
            let (tag, [b1, b2, b3, b4, b5, b6]) = match *action {
                Action::SetField(OxmField::InPort(port)) => (1, padded(port.to_ne_bytes())),
                Action::SetField(OxmField::EthDst(mac)) => (2, mac),
                Action::SetField(OxmField::EthSrc(mac)) => (3, mac),
                Action::SetField(OxmField::EthType(v)) => (4, padded(v.to_ne_bytes())),
                Action::SetField(OxmField::IpProto(v)) => (5, padded([v])),
                Action::SetField(OxmField::Ipv4Src(ip)) => (6, padded(ip)),
                Action::SetField(OxmField::Ipv4Dst(ip)) => (7, padded(ip)),
                Action::SetField(OxmField::TcpSrc(v)) => (8, padded(v.to_ne_bytes())),
                Action::SetField(OxmField::TcpDst(v)) => (9, padded(v.to_ne_bytes())),
                Action::Output { port, max_len } => {
                    let ([p0, p1, p2, p3], [m0, m1]) = (port.to_ne_bytes(), max_len.to_ne_bytes());
                    (PACKED_OUTPUT, [p0, p1, p2, p3, m0, m1])
                }
            };
            *at = [tag, b1, b2, b3, b4, b5, b6, 0];
        }
        PackedActions(packed)
    }

    /// The list [`PackedActions::pack`] was given.
    pub(crate) fn unpack(&self) -> Actions {
        let mut out = Actions::new();
        for (at, &[tag, b1, b2, b3, b4, b5, b6, _]) in out.list.iter_mut().zip(&self.0) {
            let (u16_at, ip, mac) = (u16::from_ne_bytes([b1, b2]), [b1, b2, b3, b4], [b1, b2, b3, b4, b5, b6]);
            *at = match tag {
                0 => break,
                1 => Action::SetField(OxmField::InPort(u32::from_ne_bytes(ip))),
                2 => Action::SetField(OxmField::EthDst(mac)),
                3 => Action::SetField(OxmField::EthSrc(mac)),
                4 => Action::SetField(OxmField::EthType(u16_at)),
                5 => Action::SetField(OxmField::IpProto(b1)),
                6 => Action::SetField(OxmField::Ipv4Src(ip)),
                7 => Action::SetField(OxmField::Ipv4Dst(ip)),
                8 => Action::SetField(OxmField::TcpSrc(u16_at)),
                9 => Action::SetField(OxmField::TcpDst(u16_at)),
                _ => Action::Output { port: u32::from_ne_bytes(ip), max_len: u16::from_ne_bytes([b5, b6]) },
            };
            out.len += 1;
        }
        out
    }
}

/// Bytes [`encode_apply_actions`] appends for `actions`.
pub(crate) fn apply_actions_len(actions: &Actions) -> usize {
    8 + actions.encoded_len()
}

/// Encodes `actions` as one `APPLY_ACTIONS` instruction straight into `out`;
/// its length field is patched in once the actions are written.
pub(crate) fn encode_apply_actions(actions: &Actions, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&OFPIT_APPLY_ACTIONS.to_be_bytes());
    out.extend_from_slice(&[0u8; 6]); // length (patched below) + pad
    actions.encode(out);
    crate::patch_len(out, start + 2, start);
}

/// Decodes a `FLOW_MOD`'s instruction list, which is all of `buf`: `None`
/// for no instruction, else the actions of its one `APPLY_ACTIONS`. Another
/// instruction type is refused, and so is a second instruction
/// ([`OfError::DupInstruction`]).
pub(crate) fn decode_instructions(buf: &[u8]) -> Result<Option<Actions>, OfError> {
    if buf.is_empty() {
        return Ok(None);
    }
    if buf.len() < 8 {
        return Err(OfError::Truncated {
            what: "instruction header",
            need: 8,
            have: buf.len(),
        });
    }
    let itype = u16::from_be_bytes([buf[0], buf[1]]);
    let len = u16::from_be_bytes([buf[2], buf[3]]) as usize;
    if itype != OFPIT_APPLY_ACTIONS {
        return Err(OfError::BadAction(ActionFault::Instruction(itype)));
    }
    if len < 8 || buf.len() < len {
        return Err(OfError::Truncated {
            what: "instruction body",
            need: len.max(8),
            have: buf.len(),
        });
    }
    if len < buf.len() {
        return Err(OfError::DupInstruction);
    }
    Actions::decode(&buf[8..len]).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reverse rewrite of a redirect: the longest list a run sends.
    fn reverse_rewrite() -> Actions {
        Actions::from([
            Action::SetField(OxmField::EthSrc([2, 0, 0, 0, 0, 99])),
            Action::SetField(OxmField::EthDst([2, 0, 0, 0, 0, 1])),
            Action::SetField(OxmField::Ipv4Src([203, 0, 113, 10])),
            Action::SetField(OxmField::TcpSrc(80)),
            Action::output(1),
        ])
    }

    #[test]
    fn output_action_roundtrip() {
        let a = Action::output(7);
        let mut buf = Vec::new();
        a.encode(&mut buf);
        assert_eq!(buf.len(), 16);
        let (back, used) = Action::decode(&buf).unwrap();
        assert_eq!(back, a);
        assert_eq!(used, 16);
    }

    #[test]
    fn set_field_action_roundtrip_all_kinds() {
        let fields = [
            OxmField::EthDst([1, 2, 3, 4, 5, 6]),
            OxmField::EthSrc([6, 5, 4, 3, 2, 1]),
            OxmField::Ipv4Dst([10, 0, 0, 5]),
            OxmField::Ipv4Src([203, 0, 113, 10]),
            OxmField::TcpDst(31080),
            OxmField::TcpSrc(80),
        ];
        for f in fields {
            let a = Action::SetField(f);
            let mut buf = Vec::new();
            a.encode(&mut buf);
            assert_eq!(buf.len() % 8, 0, "alignment for {f:?}");
            let (back, used) = Action::decode(&buf).unwrap();
            assert_eq!(back, a);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn action_list_roundtrip() {
        let actions = Actions::from([
            Action::SetField(OxmField::Ipv4Dst([10, 0, 0, 5])),
            Action::SetField(OxmField::TcpDst(31080)),
            Action::output(3),
        ]);
        let mut buf = Vec::new();
        actions.encode(&mut buf);
        assert_eq!(buf.len(), actions.encoded_len());
        assert_eq!(Actions::decode(&buf).unwrap(), actions);
    }

    /// Five actions fit; a sixth does not decode, and is refused before it
    /// is read.
    #[test]
    fn a_list_holds_five_actions_and_a_sixth_is_refused() {
        let five = reverse_rewrite();
        let mut buf = Vec::new();
        five.encode(&mut buf);
        assert_eq!(Actions::decode(&buf), Ok(five));
        Action::output(2).encode(&mut buf);
        assert_eq!(Actions::decode(&buf), Err(OfError::BadAction(ActionFault::TooMany)));
        buf.extend_from_slice(&[0, 99, 0, 8, 0, 0, 0, 0]);
        assert_eq!(Actions::decode(&buf), Err(OfError::BadAction(ActionFault::TooMany)));
    }

    #[test]
    #[should_panic(expected = "at most 5 actions")]
    fn pushing_a_sixth_action_is_a_bug() {
        reverse_rewrite().push(Action::output(2));
    }

    /// A list reads, compares and prints as the slice of its actions: the
    /// vacant slots are never seen.
    #[test]
    fn a_list_is_its_actions() {
        let mut grown = Actions::new();
        for a in reverse_rewrite().iter().take(2) {
            grown.push(*a);
        }
        let built = Actions::from([reverse_rewrite()[0], reverse_rewrite()[1]]);
        assert_eq!(grown, built);
        assert_eq!(grown.len(), 2);
        assert_eq!(grown[..], reverse_rewrite()[..2]);
        assert_ne!(grown, reverse_rewrite());
        let vec = reverse_rewrite().to_vec();
        assert_eq!(format!("{:?}", reverse_rewrite()), format!("{vec:?}"));
        assert_eq!(format!("{:#?}", reverse_rewrite()), format!("{vec:#?}"));
        assert_eq!(format!("{:?}", Actions::new()), "[]");
        assert_eq!(vec.into_iter().collect::<Actions>(), reverse_rewrite());
    }

    /// Twelve bytes an action, five inline and a length: the heap block and
    /// 24-byte header of a `Vec` are gone.
    #[test]
    fn an_action_is_12_bytes_and_a_list_at_most_64() {
        assert_eq!(std::mem::size_of::<Action>(), 12);
        assert!(std::mem::size_of::<Actions>() <= 64);
    }

    /// Every action kind, at every length up to five, packs into 40 bytes
    /// and back unchanged: the bytes a flow table slot keeps its list in.
    #[test]
    fn a_packed_list_unpacks_to_itself() {
        assert_eq!(std::mem::size_of::<PackedActions>(), 40);
        let every_kind = [
            OxmField::InPort(0xfffe_fffd),
            OxmField::EthDst([1, 2, 3, 4, 5, 6]),
            OxmField::EthSrc([6, 5, 4, 3, 2, 1]),
            OxmField::EthType(0x0800),
            OxmField::IpProto(6),
            OxmField::Ipv4Src([203, 0, 113, 10]),
            OxmField::Ipv4Dst([10, 0, 0, 5]),
            OxmField::TcpSrc(80),
            OxmField::TcpDst(0xffff),
        ];
        let outputs = [Action::output(crate::OFPP_CONTROLLER), Action::Output { port: 0, max_len: 0 }];
        let all: [Action; 11] =
            std::array::from_fn(|i| every_kind.get(i).map_or(outputs[i % 2], |&f| Action::SetField(f)));
        for n in 0..=Actions::CAP {
            for chunk in all.chunks(n.max(1)) {
                let list: Actions = chunk.iter().copied().take(n).collect();
                assert_eq!(PackedActions::pack(&list).unpack(), list);
            }
        }
        assert_eq!(PackedActions::pack(&reverse_rewrite()).unpack(), reverse_rewrite());
    }

    #[test]
    fn apply_actions_roundtrip() {
        let actions = Actions::from([Action::SetField(OxmField::TcpDst(8080)), Action::output(2)]);
        let mut buf = Vec::new();
        encode_apply_actions(&actions, &mut buf);
        assert_eq!(buf.len(), apply_actions_len(&actions));
        assert_eq!(decode_instructions(&buf).unwrap().unwrap(), actions);
        assert_eq!(decode_instructions(&[]), Ok(None));
    }

    #[test]
    fn empty_apply_actions_is_valid() {
        // A drop rule: APPLY_ACTIONS with no actions.
        let mut buf = Vec::new();
        encode_apply_actions(&Actions::new(), &mut buf);
        assert_eq!(buf.len(), 8);
        assert_eq!(decode_instructions(&buf), Ok(Some(Actions::new())));
    }

    #[test]
    fn decode_rejects_unknown_types_and_a_second_instruction() {
        // action type 99
        let mut buf = vec![0, 99, 0, 8, 0, 0, 0, 0];
        assert_eq!(Action::decode(&buf), Err(OfError::BadAction(ActionFault::Type(99))));
        // instruction type 1 (GOTO_TABLE, unsupported)
        buf = vec![0, 1, 0, 8, 0, 0, 0, 0];
        assert_eq!(decode_instructions(&buf), Err(OfError::BadAction(ActionFault::Instruction(1))));
        // two APPLY_ACTIONS
        buf.clear();
        encode_apply_actions(&Actions::from([Action::output(1)]), &mut buf);
        encode_apply_actions(&Actions::new(), &mut buf);
        assert_eq!(decode_instructions(&buf), Err(OfError::DupInstruction));
    }

    #[test]
    fn decode_rejects_bad_lengths() {
        let buf = vec![0, 0, 0, 7, 0, 0, 0]; // len 7, not multiple of 8
        assert_eq!(Action::decode(&buf), Err(OfError::BadAction(ActionFault::Len(7))));
        let buf = vec![0, 0, 0, 24, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(Action::decode(&buf), Err(OfError::BadAction(ActionFault::OutputLen(24))));
        let buf = vec![0, 0, 0, 16, 0, 0]; // declares 16, has 6
        assert!(matches!(Action::decode(&buf), Err(OfError::Truncated { .. })));
    }

    /// A refusal says what it said when it carried a formatted string.
    #[test]
    fn typed_errors_display_as_before() {
        let shown = |e: OfError| e.to_string();
        assert_eq!(shown(OfError::BadAction(ActionFault::Len(7))), "bad action: bad action length 7");
        assert_eq!(shown(OfError::BadAction(ActionFault::OutputLen(24))), "bad action: output len 24");
        assert_eq!(shown(OfError::BadAction(ActionFault::Type(99))), "bad action: unsupported action type 99");
        assert_eq!(
            shown(OfError::BadAction(ActionFault::Instruction(1))),
            "bad action: unsupported instruction type 1"
        );
        assert_eq!(shown(OfError::BadAction(ActionFault::TooMany)), "bad action: more than 5 actions in one list");
    }
}
