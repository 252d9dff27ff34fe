//! OpenFlow actions and instructions.
//!
//! The transparent redirect needs exactly two action kinds: `SET_FIELD`
//! (rewrite MAC/IP/port toward the edge instance, and the reverse rewrite on
//! the return path) and `OUTPUT` (forward out of a port / to the controller).
//! Instructions are limited to `APPLY_ACTIONS`, which is how the controller
//! installs immediate rewrites.

use crate::oxm::OxmField;
use crate::OfError;

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
            return Err(OfError::BadAction(format!("bad action length {len}")));
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
                    return Err(OfError::BadAction(format!("output len {len}")));
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
            other => Err(OfError::BadAction(format!("unsupported action type {other}"))),
        }
    }

    /// Encodes a list of actions.
    pub fn encode_list(actions: &[Action], out: &mut Vec<u8>) {
        for a in actions {
            a.encode(out);
        }
    }

    /// Decodes exactly `len` bytes of actions.
    pub fn decode_list(buf: &[u8], len: usize) -> Result<Vec<Action>, OfError> {
        if buf.len() < len {
            return Err(OfError::Truncated {
                what: "action list",
                need: len,
                have: buf.len(),
            });
        }
        let mut out = Vec::new();
        let mut off = 0;
        while off < len {
            let (a, used) = Action::decode(&buf[off..len])?;
            out.push(a);
            off += used;
        }
        Ok(out)
    }
}

/// An OpenFlow instruction. Only `APPLY_ACTIONS` is supported — the
/// single-table pipeline the controller programs needs nothing else.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Instruction {
    /// Apply the action list immediately.
    ApplyActions(Vec<Action>),
}

impl Instruction {
    /// The actions carried by this instruction.
    pub fn actions(&self) -> &[Action] {
        match self {
            Instruction::ApplyActions(a) => a,
        }
    }

    /// Bytes [`Instruction::encode`] appends.
    pub fn encoded_len(&self) -> usize {
        8 + self.actions().iter().map(Action::encoded_len).sum::<usize>()
    }

    /// Encodes this instruction straight into `out`; its length field is
    /// patched in once the actions are written.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Instruction::ApplyActions(actions) => {
                let start = out.len();
                out.extend_from_slice(&OFPIT_APPLY_ACTIONS.to_be_bytes());
                out.extend_from_slice(&[0u8; 6]); // length (patched below) + pad
                Action::encode_list(actions, out);
                crate::patch_len(out, start + 2, start);
            }
        }
    }

    /// Decodes one instruction, returning it and the bytes consumed.
    pub fn decode(buf: &[u8]) -> Result<(Instruction, usize), OfError> {
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
            return Err(OfError::BadAction(format!(
                "unsupported instruction type {itype}"
            )));
        }
        if len < 8 || buf.len() < len {
            return Err(OfError::Truncated {
                what: "instruction body",
                need: len.max(8),
                have: buf.len(),
            });
        }
        let actions = Action::decode_list(&buf[8..len], len - 8)?;
        Ok((Instruction::ApplyActions(actions), len))
    }

    /// Encodes a list of instructions.
    pub fn encode_list(instructions: &[Instruction], out: &mut Vec<u8>) {
        for i in instructions {
            i.encode(out);
        }
    }

    /// Decodes instructions until `buf` is exhausted.
    pub fn decode_all(buf: &[u8]) -> Result<Vec<Instruction>, OfError> {
        let mut out = Vec::new();
        let mut off = 0;
        while off < buf.len() {
            let (i, used) = Instruction::decode(&buf[off..])?;
            out.push(i);
            off += used;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let actions = vec![
            Action::SetField(OxmField::Ipv4Dst([10, 0, 0, 5])),
            Action::SetField(OxmField::TcpDst(31080)),
            Action::output(3),
        ];
        let mut buf = Vec::new();
        Action::encode_list(&actions, &mut buf);
        let back = Action::decode_list(&buf, buf.len()).unwrap();
        assert_eq!(back, actions);
    }

    #[test]
    fn instruction_roundtrip() {
        let i = Instruction::ApplyActions(vec![
            Action::SetField(OxmField::TcpDst(8080)),
            Action::output(2),
        ]);
        let mut buf = Vec::new();
        i.encode(&mut buf);
        let (back, used) = Instruction::decode(&buf).unwrap();
        assert_eq!(back, i);
        assert_eq!(used, buf.len());
        assert_eq!(back.actions().len(), 2);
    }

    #[test]
    fn empty_apply_actions_is_valid() {
        // A drop rule: APPLY_ACTIONS with no actions.
        let i = Instruction::ApplyActions(vec![]);
        let mut buf = Vec::new();
        i.encode(&mut buf);
        assert_eq!(buf.len(), 8);
        let (back, _) = Instruction::decode(&buf).unwrap();
        assert_eq!(back.actions().len(), 0);
    }

    #[test]
    fn decode_rejects_unknown_types() {
        // action type 99
        let mut buf = vec![0, 99, 0, 8, 0, 0, 0, 0];
        assert!(matches!(Action::decode(&buf), Err(OfError::BadAction(_))));
        // instruction type 1 (GOTO_TABLE, unsupported)
        buf = vec![0, 1, 0, 8, 0, 0, 0, 0];
        assert!(matches!(
            Instruction::decode(&buf),
            Err(OfError::BadAction(_))
        ));
    }

    #[test]
    fn decode_rejects_bad_lengths() {
        let buf = vec![0, 0, 0, 7, 0, 0, 0]; // len 7, not multiple of 8
        assert!(Action::decode(&buf).is_err());
        let buf = vec![0, 0, 0, 16, 0, 0]; // declares 16, has 6
        assert!(matches!(Action::decode(&buf), Err(OfError::Truncated { .. })));
    }
}
