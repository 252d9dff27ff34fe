//! Property tests: arbitrary supported messages round-trip byte-exactly and
//! the decoder is total (never panics) on arbitrary bytes.

use openflow::actions::{Action, Instruction};
use openflow::messages::{ErrorType, FlowModCommand, Message, PacketInReason, RemovedReason};
use openflow::oxm::{Match, OxmField};
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

fn arb_match() -> impl Strategy<Value = Match> {
    prop::collection::vec(arb_field(), 0..6)
        .prop_map(|fs| fs.into_iter().fold(Match::any(), |m, f| m.with(f)))
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (any::<u32>(), any::<u16>()).prop_map(|(port, max_len)| Action::Output { port, max_len }),
        arb_field().prop_map(Action::SetField),
    ]
}

fn arb_instructions() -> impl Strategy<Value = Vec<Instruction>> {
    prop::collection::vec(
        prop::collection::vec(arb_action(), 0..5).prop_map(Instruction::ApplyActions),
        0..3,
    )
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        Just(Message::Hello),
        (
            prop_oneof![
                Just(ErrorType::BadRequest),
                Just(ErrorType::BadAction),
                Just(ErrorType::FlowModFailed)
            ],
            any::<u16>(),
            prop::collection::vec(any::<u8>(), 0..64),
        )
            .prop_map(|(error_type, code, data)| Message::Error { error_type, code, data }),
        Just(Message::BarrierRequest),
        Just(Message::BarrierReply),
        (
            any::<u32>(),
            any::<u16>(),
            prop_oneof![
                Just(PacketInReason::NoMatch),
                Just(PacketInReason::Action),
                Just(PacketInReason::InvalidTtl)
            ],
            any::<u8>(),
            any::<u64>(),
            arb_match(),
            prop::collection::vec(any::<u8>(), 0..128),
        )
            .prop_map(|(buffer_id, total_len, reason, table_id, cookie, match_, data)| {
                Message::PacketIn {
                    buffer_id,
                    total_len,
                    reason,
                    table_id,
                    cookie,
                    match_,
                    data,
                }
            }),
        (
            any::<u32>(),
            any::<u32>(),
            prop::collection::vec(arb_action(), 0..5),
            prop::collection::vec(any::<u8>(), 0..128),
        )
            .prop_map(|(buffer_id, in_port, actions, data)| Message::PacketOut {
                buffer_id,
                in_port,
                actions,
                data,
            }),
        (
            any::<u64>(),
            any::<u8>(),
            prop_oneof![Just(FlowModCommand::Add), Just(FlowModCommand::Delete)],
            any::<u16>(),
            any::<u16>(),
            any::<u32>(),
            any::<u16>(),
            arb_match(),
            arb_instructions(),
        )
            .prop_map(
                |(
                    cookie,
                    table_id,
                    command,
                    idle_timeout,
                    priority,
                    buffer_id,
                    flags,
                    match_,
                    instructions,
                )| Message::FlowMod {
                    cookie,
                    table_id,
                    command,
                    idle_timeout,
                    priority,
                    buffer_id,
                    flags,
                    match_,
                    instructions,
                }
            ),
        (
            any::<u64>(),
            any::<u16>(),
            prop_oneof![
                Just(RemovedReason::IdleTimeout),
                Just(RemovedReason::HardTimeout),
                Just(RemovedReason::Delete)
            ],
            any::<u8>(),
            any::<u32>(),
            any::<u32>(),
            any::<u16>(),
            any::<u16>(),
            any::<u64>(),
            any::<u64>(),
        )
            .prop_flat_map(
                |(
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
                )| {
                    arb_match().prop_map(move |match_| Message::FlowRemoved {
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
                        match_: match_.clone(),
                    })
                }
            ),
    ]
}

/// What every decode must satisfy whatever it is given: it returns (no
/// panic), and a success consumed a whole header and no more than the
/// buffer holds.
fn decode_is_sane(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok((_, _, used)) = Message::decode(bytes) {
        prop_assert!(
            (8..=bytes.len()).contains(&used),
            "consumed {used} of {} bytes",
            bytes.len()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn message_roundtrip(msg in arb_message(), xid in any::<u32>()) {
        let bytes = msg.encode(xid);
        let declared = u16::from_be_bytes([bytes[2], bytes[3]]) as usize;
        prop_assert_eq!(declared, bytes.len());
        let (x, back, used) = Message::decode(&bytes).unwrap();
        prop_assert_eq!(x, xid);
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn decoder_is_total(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        decode_is_sane(&bytes)?;
    }

    #[test]
    fn decoder_total_on_corrupted_valid_messages(msg in arb_message(), flip in any::<(usize, u8)>()) {
        let mut bytes = msg.encode(7);
        let idx = flip.0 % bytes.len();
        bytes[idx] ^= flip.1 | 1;
        decode_is_sane(&bytes)?;
    }

    /// The declared length is what the decoder trusts to slice the body:
    /// any value in it — shorter, longer, or less than a header — must be
    /// refused or honoured within the buffer.
    #[test]
    fn decoder_total_on_perturbed_length(msg in arb_message(), length in any::<u16>(), tail in 0usize..16) {
        let mut bytes = msg.encode(7);
        bytes[2..4].copy_from_slice(&length.to_be_bytes());
        bytes.extend(std::iter::repeat_n(0xAB, tail));
        decode_is_sane(&bytes)?;
    }

    /// A message cut short at every offset is an error, never a panic and
    /// never a success (the declared length no longer fits).
    #[test]
    fn decoder_total_on_every_truncation(msg in arb_message()) {
        let bytes = msg.encode(7);
        for cut in 0..bytes.len() {
            decode_is_sane(&bytes[..cut])?;
            prop_assert!(Message::decode(&bytes[..cut]).is_err(), "decoded {cut} of {} bytes", bytes.len());
        }
    }

    #[test]
    fn match_roundtrip(m in arb_match()) {
        let mut buf = Vec::new();
        m.encode(&mut buf);
        prop_assert_eq!(buf.len() % 8, 0);
        let (back, used) = Match::decode(&buf).unwrap();
        prop_assert_eq!(used, buf.len());
        prop_assert_eq!(back, m);
    }
}
