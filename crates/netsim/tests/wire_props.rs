//! Property tests for the wire formats.

use netsim::addr::{Ipv4Addr, MacAddr};
use netsim::wire::{self, WireError};
use netsim::{FramePool, TcpFlags, TcpFrame, TcpHeaders, WireFrame};
use proptest::prelude::*;

/// The frame `headers` describe, its payload `payload_len` bytes of `fill`,
/// encoded into a fresh buffer.
fn encode_filled(headers: &TcpHeaders, fill: u8) -> Vec<u8> {
    FramePool::new().encode_filled(headers, fill)
}

fn arb_frame() -> impl Strategy<Value = TcpFrame> {
    (
        any::<[u8; 6]>(),
        any::<[u8; 6]>(),
        any::<[u8; 4]>(),
        any::<[u8; 4]>(),
        any::<u16>(),
        any::<u16>(),
        any::<u8>(),
        any::<u32>(),
        any::<u32>(),
        prop::collection::vec(any::<u8>(), 0..256),
    )
        .prop_map(
            |(sm, dm, si, di, sp, dp, flags, seq, ack, payload)| TcpFrame {
                src_mac: MacAddr(sm),
                dst_mac: MacAddr(dm),
                src_ip: Ipv4Addr(si),
                dst_ip: Ipv4Addr(di),
                src_port: sp,
                dst_port: dp,
                flags: TcpFlags(flags),
                seq,
                ack,
                payload,
            },
        )
}

/// Runs `bytes` through `TcpFrame::decode`, `TcpHeaders::parse` and
/// `WireFrame::parse`: none may panic, and all three accept or refuse alike.
fn all_decoders_agree(bytes: &[u8]) -> Result<(), TestCaseError> {
    let structured = TcpFrame::decode(bytes).is_ok();
    prop_assert_eq!(TcpHeaders::parse(bytes).is_ok(), structured);
    prop_assert_eq!(WireFrame::parse(bytes.to_vec()).is_ok(), structured);
    Ok(())
}

proptest! {
    /// Arbitrary frames encode then decode to the identical structure, and
    /// the checksums self-verify.
    #[test]
    fn frame_roundtrip(frame in arb_frame()) {
        let bytes = frame.encode();
        prop_assert_eq!(bytes.len(), frame.headers().wire_len());
        let decoded = TcpFrame::decode(&bytes).unwrap();
        prop_assert_eq!(decoded, frame);
    }

    /// Any single-bit corruption of a frame is caught (checksum failure or a
    /// changed decode result, never a silently identical decode).
    #[test]
    fn bit_flips_never_go_unnoticed(frame in arb_frame(), bit in 0usize..((14+20+20)*8)) {
        let mut bytes = frame.encode();
        let byte = bit / 8;
        prop_assume!(byte < bytes.len());
        bytes[byte] ^= 1 << (bit % 8);
        match TcpFrame::decode(&bytes) {
            Err(_) => {}
            Ok(decoded) => prop_assert_ne!(decoded, frame),
        }
    }

    /// Decoding arbitrary garbage never panics, through any of the three
    /// entry points, and they agree on what is a frame.
    #[test]
    fn decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        all_decoders_agree(&bytes)?;
    }

    /// Nor does a valid frame cut short at any offset, or with one byte
    /// damaged: the zero-copy parsers index by the lengths the headers
    /// declare, so this is where a missing bounds check would show.
    #[test]
    fn decode_never_panics_on_damaged_frames(frame in arb_frame(), flip in any::<(usize, u8)>()) {
        let bytes = frame.encode();
        for cut in 0..bytes.len() {
            all_decoders_agree(&bytes[..cut])?;
        }
        let mut damaged = bytes;
        let idx = flip.0 % damaged.len();
        damaged[idx] ^= flip.1 | 1;
        all_decoders_agree(&damaged)?;
    }

    /// Rewriting destination then encoding keeps a decodable frame whose
    /// rewritten fields survive.
    #[test]
    fn rewrite_roundtrip(frame in arb_frame(), new_ip in any::<[u8;4]>(), new_port in any::<u16>()) {
        let mut f = frame;
        f.rewrite_dst(MacAddr::from_id(9), Ipv4Addr(new_ip), new_port);
        let decoded = TcpFrame::decode(&f.encode()).unwrap();
        prop_assert_eq!(decoded.dst_ip, Ipv4Addr(new_ip));
        prop_assert_eq!(decoded.dst_port, new_port);
    }
}

/// The checksum as the seed computed it — one big-endian 16-bit word at a
/// time — kept as the reference for the word-wise kernel. The accumulator is
/// widened to `u64` so that an arbitrary `initial` cannot overflow it; for
/// every input the seed's `u32` loop could sum, the value is the seed's.
fn reference_checksum(data: &[u8], initial: u32) -> u16 {
    let mut sum = u64::from(initial);
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u64::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u64::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// One address/port rewrite as a rule's `SET_FIELD` chain would make it:
/// each part present or not, values arbitrary.
#[derive(Clone, Copy, Debug)]
struct Rewrite {
    mac: Option<[u8; 6]>,
    ip: Option<[u8; 4]>,
    port: Option<u16>,
}

fn arb_rewrite() -> impl Strategy<Value = Rewrite> {
    (any::<[u8; 6]>(), any::<[u8; 4]>(), any::<u16>(), 0u8..8).prop_map(|(mac, ip, port, mask)| {
        Rewrite {
            mac: (mask & 1 != 0).then_some(mac),
            ip: (mask & 2 != 0).then_some(ip),
            port: (mask & 4 != 0).then_some(port),
        }
    })
}

/// The structured route: decode, `rewrite_dst` / `rewrite_src`, encode.
fn oracle_rewrite(bytes: &[u8], dst: Rewrite, src: Rewrite) -> Vec<u8> {
    let mut f = TcpFrame::decode(bytes).unwrap();
    f.rewrite_dst(
        dst.mac.map_or(f.dst_mac, MacAddr),
        dst.ip.map_or(f.dst_ip, Ipv4Addr),
        dst.port.unwrap_or(f.dst_port),
    );
    f.rewrite_src(
        src.mac.map_or(f.src_mac, MacAddr),
        src.ip.map_or(f.src_ip, Ipv4Addr),
        src.port.unwrap_or(f.src_port),
    );
    f.encode()
}

/// The in-place route over the same bytes.
fn patch_rewrite(bytes: &[u8], dst: Rewrite, src: Rewrite) -> Vec<u8> {
    let (_, mut w) = WireFrame::parse(bytes.to_vec()).unwrap();
    if let Some(m) = dst.mac {
        w.set_eth_dst(MacAddr(m));
    }
    if let Some(a) = dst.ip {
        w.set_ipv4_dst(Ipv4Addr(a));
    }
    if let Some(p) = dst.port {
        w.set_tcp_dst(p);
    }
    if let Some(m) = src.mac {
        w.set_eth_src(MacAddr(m));
    }
    if let Some(a) = src.ip {
        w.set_ipv4_src(Ipv4Addr(a));
    }
    if let Some(p) = src.port {
        w.set_tcp_src(p);
    }
    w.into_bytes()
}

/// Fill bytes, with the two whose words are a zero of ones'-complement
/// arithmetic made likely: `0x00` and `0xff`.
fn arb_fill() -> impl Strategy<Value = u8> {
    prop_oneof![Just(0x00u8), Just(0xffu8), any::<u8>()]
}

/// Payload lengths over everything one frame can carry, with short ones —
/// empty, one byte, both parities — made likely.
fn arb_len() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..64, 0usize..=TcpFrame::MAX_PAYLOAD]
}

const NO_REWRITE: Rewrite = Rewrite { mac: None, ip: None, port: None };
const IP_CSUM: usize = 14 + 10;
const TCP_CSUM: usize = 14 + 20 + 16;

proptest! {
    /// The word-wise checksum equals the seed's loop on arbitrary bytes of
    /// every length parity, under any seed value.
    #[test]
    fn checksum_equals_the_seed_loop(data in prop::collection::vec(any::<u8>(), 0..1600),
                                     initial in any::<u32>()) {
        prop_assert_eq!(wire::internet_checksum(&data, initial), reference_checksum(&data, initial));
        prop_assert_eq!(wire::internet_checksum(&data, 0), reference_checksum(&data, 0));
    }

    /// All-ones data carries out of every word: the end-around carries must
    /// fold the same way.
    #[test]
    fn checksum_of_all_ones_equals_the_seed_loop(len in 0usize..70_000, initial in any::<u32>()) {
        let data = vec![0xff; len];
        prop_assert_eq!(wire::internet_checksum(&data, initial), reference_checksum(&data, initial));
    }

    /// The header-only parse accepts and rejects exactly what the full
    /// decode does, with the same fields and the same error — on garbage, on
    /// valid frames and on valid frames damaged in one place.
    #[test]
    fn header_parse_equals_decode(frame in arb_frame(),
                                  garbage in prop::collection::vec(any::<u8>(), 0..200),
                                  cut in any::<u16>(), at in any::<u16>(), flip in 1u8..=255,
                                  padding in 0usize..20) {
        let same = |bytes: &[u8]| TcpHeaders::parse(bytes) == TcpFrame::decode(bytes).map(|f| f.headers());
        let valid = frame.encode();
        prop_assert_eq!(TcpHeaders::parse(&valid), Ok(frame.headers()));
        prop_assert!(same(&garbage));
        prop_assert!(same(&valid[..cut as usize % (valid.len() + 1)]));
        let mut damaged = valid.clone();
        damaged[at as usize % valid.len()] ^= flip;
        prop_assert!(same(&damaged));
        let mut padded = valid;
        padded.resize(padded.len() + padding, 0);
        prop_assert_eq!(TcpHeaders::parse(&padded), Ok(frame.headers()));
    }

    /// Parsing arbitrary garbage never panics.
    #[test]
    fn header_parse_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = TcpHeaders::parse(&bytes);
        let _ = WireFrame::parse(bytes);
    }

    /// A segment encoded straight from its headers and a fill byte — its
    /// payload summed in closed form — is the frame `TcpFrame::encode`
    /// renders, and sums, from a payload buffer of that byte; and it passes
    /// the receivers' parse, which adds up every byte.
    #[test]
    fn filled_encoding_equals_encode(frame in arb_frame(), fill in arb_fill(), len in arb_len()) {
        let mut f = frame;
        f.payload = vec![fill; len];
        let bytes = encode_filled(&f.headers(), fill);
        prop_assert_eq!(TcpHeaders::parse(&bytes), Ok(f.headers()));
        prop_assert_eq!(bytes, f.encode());
    }

    /// A recycled buffer contributes its capacity and nothing else: after
    /// carrying a longer frame, a shorter one and one more, each with a bit
    /// flipped on the way, it encodes the frame a fresh buffer would.
    #[test]
    fn encoding_into_a_recycled_buffer_equals_a_fresh_encoding(frame in arb_frame(), fill in arb_fill(), len in 0usize..3000,
                                                               other in arb_frame(), other_fill in any::<u8>(),
                                                               longer in 1usize..3000, flip in any::<u16>()) {
        let mut pool = FramePool::new();
        for earlier_len in [len + longer, len / 2, len] {
            let earlier = TcpHeaders { payload_len: earlier_len, ..other.headers() };
            let mut buf = pool.encode_filled(&earlier, other_fill);
            prop_assert_eq!(&buf, &encode_filled(&earlier, other_fill));
            let at = flip as usize % buf.len();
            buf[at] ^= 1 << (flip % 8);
            pool.recycle(buf);
            prop_assert_eq!(pool.held(), 1);
        }
        let headers = TcpHeaders { payload_len: len, ..frame.headers() };
        let bytes = pool.encode_filled(&headers, fill);
        prop_assert_eq!(pool.held(), 0);
        prop_assert_eq!(bytes, encode_filled(&headers, fill));
    }

    /// Patching encoded bytes in place gives, byte for byte, the frame that
    /// decode → rewrite → encode gives: MACs, both checksums, the pseudo
    /// header and the port-derived `ident` word included.
    #[test]
    fn in_place_rewrite_equals_reencode(frame in arb_frame(), dst in arb_rewrite(), src in arb_rewrite()) {
        let bytes = frame.encode();
        prop_assert_eq!(patch_rewrite(&bytes, dst, src), oracle_rewrite(&bytes, dst, src));
    }

    /// Rewriting every field to the value it already has touches nothing.
    #[test]
    fn rewrite_to_same_values_changes_nothing(frame in arb_frame()) {
        let bytes = frame.encode();
        let dst = Rewrite { mac: Some(frame.dst_mac.0), ip: Some(frame.dst_ip.0), port: Some(frame.dst_port) };
        let src = Rewrite { mac: Some(frame.src_mac.0), ip: Some(frame.src_ip.0), port: Some(frame.src_port) };
        prop_assert_eq!(&patch_rewrite(&bytes, dst, src), &bytes);
        prop_assert_eq!(&patch_rewrite(&bytes, NO_REWRITE, NO_REWRITE), &bytes);
    }

    /// Rewrites steered so that a checksum lands on `0x0000` — the value
    /// where ones'-complement arithmetic has two zeros and RFC 1141 went
    /// wrong — still match the full recompute; and the same frames carrying
    /// the other zero, `0xffff`, in the field (valid on the wire, never
    /// produced by the encoder) still verify after a further patch.
    #[test]
    fn checksums_landing_on_zero(frame in arb_frame(), then in arb_rewrite()) {
        // With the word zeroed the checksum is ~S; writing that checksum
        // into the word makes the sum 0xffff and the checksum 0x0000.
        let mut zeroed = frame.clone();
        zeroed.dst_port = 0;
        zeroed.dst_ip.0[2..].copy_from_slice(&[0, 0]);
        let bytes = zeroed.encode();
        let [a, b] = [bytes[IP_CSUM], bytes[IP_CSUM + 1]];
        let ip = Rewrite { ip: Some([zeroed.dst_ip.0[0], zeroed.dst_ip.0[1], a, b]), ..NO_REWRITE };
        let patched = patch_rewrite(&bytes, ip, NO_REWRITE);
        prop_assert_eq!(&patched[IP_CSUM..IP_CSUM + 2], &[0, 0]);
        prop_assert_eq!(&patched, &oracle_rewrite(&bytes, ip, NO_REWRITE));

        let port = Rewrite { port: Some(u16::from_be_bytes([bytes[TCP_CSUM], bytes[TCP_CSUM + 1]])), ..NO_REWRITE };
        let patched = patch_rewrite(&bytes, port, NO_REWRITE);
        prop_assert_eq!(&patched[TCP_CSUM..TCP_CSUM + 2], &[0, 0]);
        prop_assert_eq!(&patched, &oracle_rewrite(&bytes, port, NO_REWRITE));

        // From a zero checksum onward, and from its 0xffff twin.
        prop_assert_eq!(patch_rewrite(&patched, then, then), oracle_rewrite(&patched, then, then));
        let mut twin = patched;
        twin[TCP_CSUM..TCP_CSUM + 2].copy_from_slice(&[0xff, 0xff]);
        let expected = TcpFrame::decode(&oracle_rewrite(&twin, then, then)).unwrap();
        prop_assert_eq!(TcpFrame::decode(&patch_rewrite(&twin, then, then)), Ok(expected));
    }

    /// In-place rewrites keep what they do not name: a frame the encoder
    /// cannot produce (other TTL, Ethernet padding) keeps those bytes and
    /// still verifies, where the re-encode route normalised them away.
    #[test]
    fn in_place_rewrite_preserves_unnamed_bytes(frame in arb_frame(), dst in arb_rewrite(), src in arb_rewrite(),
                                                ttl in any::<u8>(), padding in 0usize..12) {
        let mut bytes = frame.encode();
        // TTL shares a checksum word with the protocol byte: patch by hand.
        let old = u16::from_be_bytes([bytes[22], bytes[23]]);
        bytes[22] = ttl;
        let new = u16::from_be_bytes([bytes[22], bytes[23]]);
        let hc = u16::from_be_bytes([bytes[IP_CSUM], bytes[IP_CSUM + 1]]);
        let mut sum = u32::from(!hc) + u32::from(!old) + u32::from(new);
        while sum > 0xffff {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        bytes[IP_CSUM..IP_CSUM + 2].copy_from_slice(&(!(sum as u16)).to_be_bytes());
        bytes.resize(bytes.len() + padding, 0xee);
        prop_assert!(TcpHeaders::parse(&bytes).is_ok());

        let patched = patch_rewrite(&bytes, dst, src);
        prop_assert_eq!(patched.len(), bytes.len());
        prop_assert_eq!(patched[22], ttl);
        prop_assert_eq!(&patched[54..], &bytes[54..], "payload and padding untouched");
        let expected = TcpFrame::decode(&oracle_rewrite(&bytes, dst, src)).unwrap();
        prop_assert_eq!(TcpFrame::decode(&patched), Ok(expected));
    }
}

fn client_segment(fill: u8, len: usize) -> TcpFrame {
    let mut f = TcpFrame::syn(
        MacAddr::from_id(1),
        MacAddr::from_id(2),
        Ipv4Addr::new(192, 168, 1, 20),
        50000,
        netsim::ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80),
    );
    f.flags = TcpFlags::PSH_ACK;
    f.seq = 0x0102_0304;
    f.payload = vec![fill; len];
    f
}

/// The closed-form payload sum at its edges: no payload, one byte (all pad),
/// both parities around the MSS, the longest payload a frame carries (where
/// the sum is just under 2³¹), for fill bytes that add nothing, carry out of
/// every word, or sit in between.
#[test]
fn filled_encoding_equals_encode_at_the_edges() {
    for fill in [0x00, 0x01, 0x42, 0x80, 0xfe, 0xff] {
        for len in [0, 1, 2, 3, 1447, 1448, 1449, TcpFrame::MAX_PAYLOAD - 1, TcpFrame::MAX_PAYLOAD] {
            let f = client_segment(fill, len);
            let bytes = encode_filled(&f.headers(), fill);
            assert_eq!(TcpHeaders::parse(&bytes), Ok(f.headers()), "fill {fill:#04x}, {len} bytes");
            assert_eq!(bytes, f.encode(), "fill {fill:#04x}, {len} bytes");
        }
    }
}

/// Frames steered onto the two zeros of ones'-complement arithmetic. First
/// the checksum itself: with the total at `0xffff` the field must read
/// `0x0000` from the closed form as from the summed encoder, and the frame's
/// twin carrying `0xffff` there (valid on the wire, produced by neither)
/// still verifies. Then the seed: pseudo header plus payload summing to the
/// other zero, so that the checksum is that of the header bytes alone.
#[test]
fn filled_checksums_landing_on_zero() {
    for (fill, len) in [(0x42, 1447), (0x42, 1448), (0xff, 1448), (0xff, 1), (0x00, 0), (0x9c, TcpFrame::MAX_PAYLOAD)] {
        let mut f = client_segment(fill, len);
        // With the word zeroed the checksum is ~S; that checksum written
        // into the word makes the sum 0xffff.
        f.dst_port = 0;
        let bytes = encode_filled(&f.headers(), fill);
        f.dst_port = u16::from_be_bytes([bytes[TCP_CSUM], bytes[TCP_CSUM + 1]]);
        let bytes = encode_filled(&f.headers(), fill);
        assert_eq!(&bytes[TCP_CSUM..TCP_CSUM + 2], &[0, 0], "fill {fill:#04x}, {len} bytes");
        assert_eq!(bytes, f.encode());
        assert_eq!(TcpHeaders::parse(&bytes), Ok(f.headers()));
        let mut twin = bytes;
        twin[TCP_CSUM..TCP_CSUM + 2].copy_from_slice(&[0xff, 0xff]);
        assert_eq!(TcpHeaders::parse(&twin), Ok(f.headers()));

        // Everything the seed covers, as bytes: the pseudo header (12
        // bytes, so the payload stays word-aligned) and the payload.
        let mut f = client_segment(fill, len);
        f.src_ip.0[2..].copy_from_slice(&[0, 0]);
        let mut seeded = Vec::new();
        seeded.extend_from_slice(&f.src_ip.0);
        seeded.extend_from_slice(&f.dst_ip.0);
        seeded.extend_from_slice(&[0, wire::IPPROTO_TCP]);
        seeded.extend_from_slice(&((wire::TCP_HEADER_LEN + len) as u16).to_be_bytes());
        seeded.extend_from_slice(&f.payload);
        // Its checksum is what the free word must hold for a sum of 0xffff.
        let [a, b] = reference_checksum(&seeded, 0).to_be_bytes();
        f.src_ip.0[2..].copy_from_slice(&[a, b]);
        seeded[2..4].copy_from_slice(&[a, b]);
        assert_eq!(reference_checksum(&seeded, 0), 0, "seed steered onto 0xffff");
        let bytes = encode_filled(&f.headers(), fill);
        assert_eq!(bytes, f.encode(), "fill {fill:#04x}, {len} bytes");
        assert_eq!(TcpHeaders::parse(&bytes), Ok(f.headers()));
        let mut header = bytes[34..54].to_vec();
        header[16..18].copy_from_slice(&[0, 0]);
        assert_eq!(bytes[TCP_CSUM..TCP_CSUM + 2], reference_checksum(&header, 0).to_be_bytes());
    }
}

/// A flipped byte anywhere in the IPv4 or TCP part of a frame is refused by
/// the header parse with the error the full decode gives.
#[test]
fn corrupting_any_covered_byte_is_rejected_by_the_header_parse() {
    let mut f = TcpFrame::syn(
        MacAddr::from_id(1),
        MacAddr::from_id(2),
        Ipv4Addr::new(192, 168, 1, 20),
        50000,
        netsim::ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80),
    );
    f.payload = b"payload".to_vec();
    let bytes = f.encode();
    for at in 14..bytes.len() {
        let mut bad = bytes.clone();
        bad[at] ^= 0x01;
        let err = TcpHeaders::parse(&bad).expect_err("corruption detected");
        assert_eq!(Err(err.clone()), TcpFrame::decode(&bad), "byte {at}");
        assert!(
            matches!(err, WireError::BadChecksum(_) | WireError::Truncated { .. } | WireError::BadIpHeader(_)),
            "byte {at}: {err}"
        );
    }
}
