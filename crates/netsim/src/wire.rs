//! Byte-exact Ethernet II / IPv4 / TCP encoding and decoding.
//!
//! The OpenFlow `PACKET_IN` message hands the controller the raw bytes of the
//! intercepted frame, and `PACKET_OUT` re-injects (possibly rewritten) bytes.
//! To exercise those paths faithfully the simulated frames are real frames:
//! correct header layouts and correct internet checksums, verified on parse.

use crate::addr::{Ipv4Addr, MacAddr};

/// EtherType for IPv4.
pub const ETHERTYPE_IPV4: u16 = 0x0800;
/// IP protocol number for TCP.
pub const IPPROTO_TCP: u8 = 6;
/// Length of an Ethernet II header.
pub const ETH_HEADER_LEN: usize = 14;
/// Length of an IPv4 header without options.
pub const IPV4_HEADER_LEN: usize = 20;
/// Length of a TCP header without options.
pub const TCP_HEADER_LEN: usize = 20;

/// Errors raised while decoding a frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer is shorter than the headers require.
    Truncated {
        /// Which layer was being decoded.
        layer: &'static str,
        /// Bytes needed.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// EtherType other than IPv4.
    NotIpv4(u16),
    /// IP protocol other than TCP.
    NotTcp(u8),
    /// Unsupported IP version / header length nibble.
    BadIpHeader(u8),
    /// A checksum failed verification.
    BadChecksum(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { layer, need, have } => {
                write!(f, "truncated {layer}: need {need} bytes, have {have}")
            }
            WireError::NotIpv4(et) => write!(f, "not IPv4 (ethertype {et:#06x})"),
            WireError::NotTcp(p) => write!(f, "not TCP (protocol {p})"),
            WireError::BadIpHeader(b) => write!(f, "bad IP version/IHL byte {b:#04x}"),
            WireError::BadChecksum(which) => write!(f, "bad {which} checksum"),
        }
    }
}

impl std::error::Error for WireError {}

/// The ones'-complement internet checksum (RFC 1071) over `data`,
/// seeded with `initial` (used for pseudo-header sums).
///
/// The sum is byte-order independent (RFC 1071 §2B), so the data is added
/// as native 32-bit words and the folded result converted to network order
/// once, instead of one big-endian 16-bit word at a time.
pub fn internet_checksum(data: &[u8], initial: u32) -> u16 {
    let mut words = data.chunks_exact(4);
    let mut sum: u64 = 0;
    for w in &mut words {
        sum += u64::from(u32::from_ne_bytes([w[0], w[1], w[2], w[3]]));
    }
    let mut tail = words.remainder().chunks_exact(2);
    for h in &mut tail {
        sum += u64::from(u16::from_ne_bytes([h[0], h[1]]));
    }
    if let [last] = tail.remainder() {
        sum += u64::from(u16::from_ne_bytes([*last, 0]));
    }
    // 2^16 ≡ 1 (mod 0xffff): folding 64 → 16 bits keeps the ones'-complement
    // sum of the native 16-bit words, which byte-swaps to the big-endian one.
    !fold(u64::from(initial) + u64::from(u16::from_be(fold(sum))))
}

/// Folds a ones'-complement accumulator to 16 bits (end-around carry).
pub(crate) fn fold(mut sum: u64) -> u16 {
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum as u16
}

/// Decoded Ethernet II header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EthHeader {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// EtherType.
    pub ethertype: u16,
}

/// Decoded IPv4 header (options unsupported).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Payload protocol.
    pub protocol: u8,
    /// Time to live.
    pub ttl: u8,
    /// Total length (header + payload) from the wire.
    pub total_len: u16,
    /// Identification field.
    pub ident: u16,
}

/// Decoded TCP header (options unsupported).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// Flag bits (FIN=0x01, SYN=0x02, RST=0x04, PSH=0x08, ACK=0x10).
    pub flags: u8,
    /// Receive window.
    pub window: u16,
}

/// Encodes an Ethernet II header into `out`.
pub fn encode_eth(out: &mut Vec<u8>, h: &EthHeader) {
    out.extend_from_slice(&h.dst.octets());
    out.extend_from_slice(&h.src.octets());
    out.extend_from_slice(&h.ethertype.to_be_bytes());
}

/// Largest IPv4 payload (TCP header included) `total_len` can describe.
pub const IPV4_MAX_PAYLOAD: usize = u16::MAX as usize - IPV4_HEADER_LEN;

/// Encodes an IPv4 header (with checksum) for a payload of `payload_len` bytes.
///
/// `payload_len` must not exceed [`IPV4_MAX_PAYLOAD`]: `total_len` is a
/// 16-bit field. A debug build panics on a longer payload; a release build
/// writes the length modulo 65 536, which no decoder accepts as this packet.
pub fn encode_ipv4(out: &mut Vec<u8>, h: &Ipv4Header, payload_len: usize) {
    debug_assert!(
        payload_len <= IPV4_MAX_PAYLOAD,
        "IPv4 payload of {payload_len} bytes does not fit total_len"
    );
    let start = out.len();
    let total = (IPV4_HEADER_LEN + payload_len) as u16;
    out.push(0x45); // version 4, IHL 5
    out.push(0); // DSCP/ECN
    out.extend_from_slice(&total.to_be_bytes());
    out.extend_from_slice(&h.ident.to_be_bytes());
    out.extend_from_slice(&0x4000u16.to_be_bytes()); // DF, no fragment
    out.push(h.ttl);
    out.push(h.protocol);
    out.extend_from_slice(&[0, 0]); // checksum placeholder
    out.extend_from_slice(&h.src.octets());
    out.extend_from_slice(&h.dst.octets());
    let csum = internet_checksum(&out[start..start + IPV4_HEADER_LEN], 0);
    out[start + 10..start + 12].copy_from_slice(&csum.to_be_bytes());
}

fn tcp_pseudo_header_sum(src: Ipv4Addr, dst: Ipv4Addr, tcp_len: usize) -> u32 {
    let mut sum = 0u32;
    let s = src.octets();
    let d = dst.octets();
    sum += u32::from(u16::from_be_bytes([s[0], s[1]]));
    sum += u32::from(u16::from_be_bytes([s[2], s[3]]));
    sum += u32::from(u16::from_be_bytes([d[0], d[1]]));
    sum += u32::from(u16::from_be_bytes([d[2], d[3]]));
    sum += u32::from(IPPROTO_TCP);
    sum += tcp_len as u32;
    sum
}

/// Appends the 20 TCP header bytes with the checksum field zero; returns
/// the offset of the segment in `out`.
fn encode_tcp_header(out: &mut Vec<u8>, h: &TcpHeader) -> usize {
    let start = out.len();
    out.extend_from_slice(&h.src_port.to_be_bytes());
    out.extend_from_slice(&h.dst_port.to_be_bytes());
    out.extend_from_slice(&h.seq.to_be_bytes());
    out.extend_from_slice(&h.ack.to_be_bytes());
    out.push(5 << 4); // data offset 5 words, no options
    out.push(h.flags);
    out.extend_from_slice(&h.window.to_be_bytes());
    out.extend_from_slice(&[0, 0]); // checksum placeholder
    out.extend_from_slice(&[0, 0]); // urgent pointer
    start
}

/// Encodes a TCP header + payload, computing the checksum over the pseudo
/// header for `src`/`dst`.
pub fn encode_tcp(
    out: &mut Vec<u8>,
    h: &TcpHeader,
    payload: &[u8],
    src: Ipv4Addr,
    dst: Ipv4Addr,
) {
    let start = encode_tcp_header(out, h);
    out.extend_from_slice(payload);
    let pseudo = tcp_pseudo_header_sum(src, dst, out.len() - start);
    let csum = internet_checksum(&out[start..], pseudo);
    out[start + 16..start + 18].copy_from_slice(&csum.to_be_bytes());
}

/// [`encode_tcp`] for a generated payload of `len` bytes of `fill`: the same
/// bytes, without a payload buffer to copy from and without a pass over the
/// payload to sum it.
///
/// The payload starts 20 bytes into the segment, on a 16-bit boundary, so
/// its ones'-complement sum is known in closed form: `len / 2` words of
/// `fill·0x0101` and, for an odd `len`, a last word of `fill` and a zero pad
/// byte (RFC 1071 pads on the right). That sum seeds the checksum beside the
/// pseudo header and only the header bytes are added up. Whoever receives
/// the segment still verifies every byte of it ([`decode_tcp`]).
pub(crate) fn encode_tcp_filled(
    out: &mut Vec<u8>,
    h: &TcpHeader,
    fill: u8,
    len: usize,
    src: Ipv4Addr,
    dst: Ipv4Addr,
) {
    let start = encode_tcp_header(out, h);
    out.resize(out.len() + len, fill);
    let fill = u64::from(fill);
    // ≈ 2.1 × 10⁹ at `TcpFrame::MAX_PAYLOAD` bytes of 0xff: summed in the
    // `u64` that `fold` takes, where nothing can wrap.
    let payload_sum = (len as u64 / 2) * (fill * 0x0101) + (len as u64 % 2) * (fill << 8);
    let pseudo = tcp_pseudo_header_sum(src, dst, TCP_HEADER_LEN + len);
    let seed = fold(u64::from(pseudo) + payload_sum);
    let csum = internet_checksum(&out[start..start + TCP_HEADER_LEN], u32::from(seed));
    out[start + 16..start + 18].copy_from_slice(&csum.to_be_bytes());
}

/// Decodes an Ethernet header. Returns the header and the remaining bytes.
pub fn decode_eth(buf: &[u8]) -> Result<(EthHeader, &[u8]), WireError> {
    if buf.len() < ETH_HEADER_LEN {
        return Err(WireError::Truncated {
            layer: "ethernet",
            need: ETH_HEADER_LEN,
            have: buf.len(),
        });
    }
    let mut dst = [0u8; 6];
    let mut src = [0u8; 6];
    dst.copy_from_slice(&buf[0..6]);
    src.copy_from_slice(&buf[6..12]);
    Ok((
        EthHeader {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype: u16::from_be_bytes([buf[12], buf[13]]),
        },
        &buf[ETH_HEADER_LEN..],
    ))
}

/// Decodes and checksum-verifies an IPv4 header. Returns the header and the
/// payload bytes (trimmed to `total_len`).
pub fn decode_ipv4(buf: &[u8]) -> Result<(Ipv4Header, &[u8]), WireError> {
    if buf.len() < IPV4_HEADER_LEN {
        return Err(WireError::Truncated {
            layer: "ipv4",
            need: IPV4_HEADER_LEN,
            have: buf.len(),
        });
    }
    if buf[0] != 0x45 {
        return Err(WireError::BadIpHeader(buf[0]));
    }
    if internet_checksum(&buf[..IPV4_HEADER_LEN], 0) != 0 {
        return Err(WireError::BadChecksum("ipv4"));
    }
    let total_len = u16::from_be_bytes([buf[2], buf[3]]);
    if (total_len as usize) < IPV4_HEADER_LEN || buf.len() < total_len as usize {
        return Err(WireError::Truncated {
            layer: "ipv4 payload",
            need: total_len as usize,
            have: buf.len(),
        });
    }
    let h = Ipv4Header {
        src: Ipv4Addr([buf[12], buf[13], buf[14], buf[15]]),
        dst: Ipv4Addr([buf[16], buf[17], buf[18], buf[19]]),
        protocol: buf[9],
        ttl: buf[8],
        total_len,
        ident: u16::from_be_bytes([buf[4], buf[5]]),
    };
    Ok((h, &buf[IPV4_HEADER_LEN..total_len as usize]))
}

/// Decodes and checksum-verifies a TCP header (given the IP addresses for the
/// pseudo header). Returns the header and the payload bytes.
pub fn decode_tcp(
    buf: &[u8],
    src: Ipv4Addr,
    dst: Ipv4Addr,
) -> Result<(TcpHeader, &[u8]), WireError> {
    if buf.len() < TCP_HEADER_LEN {
        return Err(WireError::Truncated {
            layer: "tcp",
            need: TCP_HEADER_LEN,
            have: buf.len(),
        });
    }
    let data_offset = (buf[12] >> 4) as usize * 4;
    if data_offset < TCP_HEADER_LEN || buf.len() < data_offset {
        return Err(WireError::Truncated {
            layer: "tcp options",
            need: data_offset,
            have: buf.len(),
        });
    }
    let pseudo = tcp_pseudo_header_sum(src, dst, buf.len());
    if internet_checksum(buf, pseudo) != 0 {
        return Err(WireError::BadChecksum("tcp"));
    }
    let h = TcpHeader {
        src_port: u16::from_be_bytes([buf[0], buf[1]]),
        dst_port: u16::from_be_bytes([buf[2], buf[3]]),
        seq: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
        ack: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
        flags: buf[13],
        window: u16::from_be_bytes([buf[14], buf[15]]),
    };
    Ok((h, &buf[data_offset..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frame() -> Vec<u8> {
        let mut buf = Vec::new();
        encode_eth(
            &mut buf,
            &EthHeader {
                dst: MacAddr::from_id(2),
                src: MacAddr::from_id(1),
                ethertype: ETHERTYPE_IPV4,
            },
        );
        let ip = Ipv4Header {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(203, 0, 113, 10),
            protocol: IPPROTO_TCP,
            ttl: 64,
            total_len: 0, // filled by encoder
            ident: 0x1234,
        };
        let payload = b"GET / HTTP/1.1\r\n\r\n";
        encode_ipv4(&mut buf, &ip, TCP_HEADER_LEN + payload.len());
        encode_tcp(
            &mut buf,
            &TcpHeader {
                src_port: 49152,
                dst_port: 80,
                seq: 1,
                ack: 0,
                flags: 0x18, // PSH|ACK
                window: 65535,
            },
            payload,
            ip.src,
            ip.dst,
        );
        buf
    }

    #[test]
    fn roundtrip_full_frame() {
        let buf = sample_frame();
        let (eth, rest) = decode_eth(&buf).unwrap();
        assert_eq!(eth.ethertype, ETHERTYPE_IPV4);
        assert_eq!(eth.src, MacAddr::from_id(1));
        let (ip, rest) = decode_ipv4(rest).unwrap();
        assert_eq!(ip.src, Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(ip.protocol, IPPROTO_TCP);
        assert_eq!(ip.ttl, 64);
        let (tcp, payload) = decode_tcp(rest, ip.src, ip.dst).unwrap();
        assert_eq!(tcp.src_port, 49152);
        assert_eq!(tcp.dst_port, 80);
        assert_eq!(tcp.flags, 0x18);
        assert_eq!(payload, b"GET / HTTP/1.1\r\n\r\n");
    }

    #[test]
    fn checksum_rfc1071_example() {
        // Classic example from RFC 1071 §3.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        let sum = internet_checksum(&data, 0);
        assert_eq!(sum, !0xddf2u16);
    }

    #[test]
    fn checksum_odd_length() {
        let even = internet_checksum(&[0xab, 0x00], 0);
        let odd = internet_checksum(&[0xab], 0);
        assert_eq!(even, odd);
    }

    #[test]
    fn corrupting_ip_header_fails_checksum() {
        let mut buf = sample_frame();
        buf[ETH_HEADER_LEN + 8] ^= 0xff; // TTL byte
        let (_, rest) = decode_eth(&buf).unwrap();
        assert_eq!(decode_ipv4(rest), Err(WireError::BadChecksum("ipv4")));
    }

    #[test]
    fn corrupting_tcp_payload_fails_checksum() {
        let mut buf = sample_frame();
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        let (_, rest) = decode_eth(&buf).unwrap();
        let (ip, rest) = decode_ipv4(rest).unwrap();
        assert_eq!(
            decode_tcp(rest, ip.src, ip.dst),
            Err(WireError::BadChecksum("tcp"))
        );
    }

    #[test]
    fn rewriting_addresses_requires_checksum_update() {
        // A naive dst rewrite without checksum recomputation must be caught.
        let mut buf = sample_frame();
        buf[ETH_HEADER_LEN + 16] = 10; // dst becomes 10.x.x.x
        let (_, rest) = decode_eth(&buf).unwrap();
        assert!(matches!(decode_ipv4(rest), Err(WireError::BadChecksum(_))));
    }

    #[test]
    fn truncated_buffers_error_cleanly() {
        let buf = sample_frame();
        assert!(matches!(decode_eth(&buf[..10]), Err(WireError::Truncated { .. })));
        let (_, rest) = decode_eth(&buf).unwrap();
        assert!(matches!(decode_ipv4(&rest[..10]), Err(WireError::Truncated { .. })));
        let (ip, rest) = decode_ipv4(rest).unwrap();
        assert!(matches!(
            decode_tcp(&rest[..10], ip.src, ip.dst),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn non_ipv4_ethertype_is_reported() {
        let mut buf = Vec::new();
        encode_eth(
            &mut buf,
            &EthHeader {
                dst: MacAddr::ZERO,
                src: MacAddr::ZERO,
                ethertype: 0x0806, // ARP
            },
        );
        let (eth, _) = decode_eth(&buf).unwrap();
        assert_eq!(eth.ethertype, 0x0806);
    }

    #[test]
    fn total_len_bounds_payload() {
        // A frame padded to Ethernet minimum must not leak padding into the
        // TCP payload: decode_ipv4 trims to total_len.
        let mut buf = sample_frame();
        buf.extend_from_slice(&[0u8; 12]); // padding
        let (_, rest) = decode_eth(&buf).unwrap();
        let (ip, rest) = decode_ipv4(rest).unwrap();
        let (_, payload) = decode_tcp(rest, ip.src, ip.dst).unwrap();
        assert_eq!(payload, b"GET / HTTP/1.1\r\n\r\n");
    }
}
