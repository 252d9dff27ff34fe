//! Property tests: arbitrary supported messages round-trip byte-exactly, the
//! decoder is total (never panics) on arbitrary bytes, and a match is a set —
//! the order its fields are given in changes neither its value nor its bytes,
//! and a kind given twice is refused. The encoder writes the same bytes into
//! a recycled buffer as into a fresh one, the borrowing parse and the owned
//! decode agree, and an action list holds five actions and refuses a sixth.

use openflow::actions::{Action, Actions};
use openflow::messages::{ErrorType, FlowModCommand, Message, PacketInReason, RemovedReason};
use openflow::oxm::{Match, OxmField};
use openflow::{ActionFault, OfError};
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

/// Every length a list can have, empty and full included.
fn arb_actions() -> impl Strategy<Value = Actions> {
    prop::collection::vec(arb_action(), 0..=Actions::CAP).prop_map(Actions::from_iter)
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
            arb_actions(),
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
            arb_actions(),
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
                    actions,
                )| Message::FlowMod {
                    cookie,
                    table_id,
                    command,
                    idle_timeout,
                    priority,
                    buffer_id,
                    flags,
                    match_,
                    // A Delete carries no instruction, so no actions.
                    actions: if command == FlowModCommand::Add { actions } else { Actions::new() },
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
                        match_,
                    })
                }
            ),
    ]
}

/// What every decode must satisfy whatever it is given: it returns (no
/// panic), a success consumed a whole header and no more than the buffer
/// holds, and the borrowing parse says exactly what the owned decode says.
fn decode_is_sane(bytes: &[u8]) -> Result<(), TestCaseError> {
    let decoded = Message::decode(bytes);
    if let Ok((_, _, used)) = decoded {
        prop_assert!(
            (8..=bytes.len()).contains(&used),
            "consumed {used} of {} bytes",
            bytes.len()
        );
    }
    prop_assert_eq!(Message::parse(bytes).map(|(x, m, used)| (x, m.into_owned(), used)), decoded);
    Ok(())
}

/// `msg`'s bytes with one more `OUTPUT` action behind its last one, every
/// length field that covers it patched: a `FLOW_MOD` Add's instruction, or
/// a `PACKET_OUT`'s action list.
fn with_one_more_action(msg: &Message) -> Vec<u8> {
    let mut extra = Vec::new();
    Action::output(9).encode(&mut extra);
    let mut bytes = msg.encode(7);
    let patch = |bytes: &mut Vec<u8>, at: usize| {
        let len = u16::from_be_bytes([bytes[at], bytes[at + 1]]) + extra.len() as u16;
        bytes[at..at + 2].copy_from_slice(&len.to_be_bytes());
    };
    match msg {
        Message::FlowMod { match_, .. } => {
            patch(&mut bytes, 8 + 40 + match_.encoded_len() + 2);
            bytes.extend_from_slice(&extra);
        }
        Message::PacketOut { actions, .. } => {
            patch(&mut bytes, 8 + 8);
            let end = 8 + 16 + actions.encoded_len();
            bytes.splice(end..end, extra.iter().copied());
        }
        other => panic!("{other:?} carries no action list"),
    }
    patch(&mut bytes, 2);
    bytes
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

    /// A valid message parses borrowed to what it decodes owned, and its
    /// borrowed form encodes to the very bytes it came from.
    #[test]
    fn the_borrowing_parse_and_the_owned_decode_agree(msg in arb_message(), xid in any::<u32>()) {
        let bytes = msg.encode(xid);
        let (x, parsed, used) = Message::parse(&bytes).unwrap();
        prop_assert_eq!((x, used), (xid, bytes.len()));
        let mut again = Vec::new();
        parsed.encode_into(xid, &mut again);
        prop_assert_eq!(&again, &bytes);
        prop_assert_eq!(parsed.into_owned(), msg);
    }

    /// `encode_into` overwrites what the buffer held, whatever its length
    /// and capacity: the bytes are `encode`'s, and a buffer with room for
    /// them keeps its allocation.
    #[test]
    fn encoding_into_a_used_buffer_writes_exactly_the_encoded_bytes(
        msg in arb_message(),
        xid in any::<u32>(),
        junk in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut buf = junk;
        let room = buf.capacity() >= msg.encoded_len();
        let at = buf.as_ptr();
        msg.encode_into(xid, &mut buf);
        prop_assert_eq!(&buf, &msg.encode(xid));
        if room {
            prop_assert_eq!(buf.as_ptr(), at, "a buffer with room was reallocated");
        }
    }

    /// Lists of none up to five actions round-trip in a `FLOW_MOD` and a
    /// `PACKET_OUT`; a sixth is refused in either, not truncated.
    #[test]
    fn five_actions_round_trip_and_a_sixth_is_refused(
        actions in arb_actions(),
        m in arb_match(),
        data in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let add = Message::FlowMod {
            cookie: 1,
            table_id: 0,
            command: FlowModCommand::Add,
            idle_timeout: 10,
            priority: 100,
            buffer_id: openflow::OFP_NO_BUFFER,
            flags: 0,
            match_: m,
            actions,
        };
        let out = Message::PacketOut { buffer_id: openflow::OFP_NO_BUFFER, in_port: 1, actions, data };
        for msg in [add, out] {
            prop_assert_eq!(Message::decode(&msg.encode(3)).unwrap().1, msg.clone());
            let longer = with_one_more_action(&msg);
            let decoded = Message::decode(&longer);
            if actions.len() < Actions::CAP {
                prop_assert!(decoded.is_ok(), "{} + 1 actions refused: {decoded:?}", actions.len());
            } else {
                prop_assert_eq!(decoded, Err(OfError::BadAction(ActionFault::TooMany)));
            }
        }
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

    /// Any order of a set of distinct fields builds one match: equal, with
    /// equal `Debug`, and with the same bytes on the wire, in ascending field
    /// code whatever order the caller gave.
    #[test]
    fn a_permutation_of_the_fields_is_the_same_match(
        m in arb_match(),
        keys in prop::collection::vec(any::<u64>(), 9),
    ) {
        let fields: Vec<OxmField> = m.fields().collect();
        let mut shuffled: Vec<(u64, OxmField)> = keys.into_iter().zip(fields.iter().copied()).collect();
        shuffled.sort_by_key(|&(k, _)| k);
        let permuted = Match::of(shuffled.into_iter().map(|(_, f)| f));
        prop_assert_eq!(permuted, m);
        prop_assert_eq!(format!("{permuted:?}"), format!("{m:?}"));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        m.encode(&mut a);
        permuted.encode(&mut b);
        prop_assert_eq!(&a, &b);
        let (back, _) = Match::decode(&a).unwrap();
        prop_assert!(back.fields().eq(fields.iter().copied()), "fields come back in code order");
    }

    /// A wire match may list its fields in any order, but a kind listed
    /// twice — with an equal value or not — is refused (OFPBMC_DUP_FIELD).
    #[test]
    fn a_wire_match_that_repeats_a_kind_is_refused(
        m in arb_match(),
        dup in arb_field(),
        at in any::<usize>(),
    ) {
        let mut tlvs: Vec<Vec<u8>> = m.with(dup).fields().map(|f| tlv(&f)).collect();
        let i = at % (tlvs.len() + 1);
        tlvs.insert(i, tlv(&dup));
        let bytes = wire_match(&tlvs);
        prop_assert!(matches!(Match::decode(&bytes), Err(OfError::DupField(_))));
        // Without the repeat, any order decodes to the one set.
        tlvs.remove(i);
        let n = tlvs.len();
        tlvs.rotate_left(at % n);
        prop_assert_eq!(Match::decode(&wire_match(&tlvs)).unwrap().0, m.with(dup));
    }

    /// A FLOW_MOD carries one instruction at most: a second one is refused
    /// (OFPBIC_DUP_INST), and so is any instruction on a Delete.
    #[test]
    fn a_flow_mod_with_a_second_instruction_is_refused(
        m in arb_match(),
        first in arb_actions(),
        second in arb_actions(),
    ) {
        let add = Message::FlowMod {
            cookie: 1,
            table_id: 0,
            command: FlowModCommand::Add,
            idle_timeout: 0,
            priority: 1,
            buffer_id: openflow::OFP_NO_BUFFER,
            flags: 0,
            match_: m,
            actions: first,
        };
        let one = add.encode(7);
        let mut two = one.clone();
        two.extend_from_slice(&apply_actions(second));
        let len = two.len() as u16;
        two[2..4].copy_from_slice(&len.to_be_bytes());
        prop_assert_eq!(Message::decode(&two), Err(OfError::DupInstruction));
        // A Delete with the instruction an Add carries.
        let mut delete = one;
        delete[8 + 17] = 3; // OFPFC_DELETE
        prop_assert!(Message::decode(&delete).is_err());
    }
}

/// The `APPLY_ACTIONS` instruction carrying `actions`, as an Add with the
/// wildcard match (an 8-byte `ofp_match`) puts it behind its match.
fn apply_actions(actions: Actions) -> Vec<u8> {
    let add = Message::FlowMod {
        cookie: 0,
        table_id: 0,
        command: FlowModCommand::Add,
        idle_timeout: 0,
        priority: 0,
        buffer_id: openflow::OFP_NO_BUFFER,
        flags: 0,
        match_: Match::any(),
        actions,
    };
    add.encode(0)[8 + 40 + 8..].to_vec()
}

/// `field`'s TLV.
fn tlv(field: &OxmField) -> Vec<u8> {
    let mut out = Vec::new();
    field.encode(&mut out);
    out
}

/// An `ofp_match` of `tlvs` in the order given, padded to 8 bytes.
fn wire_match(tlvs: &[Vec<u8>]) -> Vec<u8> {
    let length = 4 + tlvs.iter().map(Vec::len).sum::<usize>();
    let mut out = vec![0, 1];
    out.extend_from_slice(&(length as u16).to_be_bytes());
    for t in tlvs {
        out.extend_from_slice(t);
    }
    out.resize(length.next_multiple_of(8), 0);
    out
}
