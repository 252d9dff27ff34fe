//! A structured view of a TCP/IPv4 Ethernet frame.
//!
//! [`TcpFrame`] is the unit the simulated data plane moves around: the OVS
//! pipeline matches on its fields, the SDN controller's redirect logic
//! rewrites destination (and source, on the return path) addresses, and the
//! wire module renders it to real bytes for OpenFlow `PACKET_IN` buffers.
//!
//! Two cheaper views serve the per-packet paths, where a frame travels as
//! one encoded buffer: [`TcpHeaders`] is every field of a [`TcpFrame`] with
//! the payload's *length* in place of its bytes (parsed and verified without
//! copying anything), and [`WireFrame`] is a verified buffer whose addresses
//! and ports are rewritten in place, checksums patched per RFC 1624.

use crate::addr::{Ipv4Addr, MacAddr, ServiceAddr};
use crate::wire::{
    self, EthHeader, Ipv4Header, TcpHeader, WireError, ETHERTYPE_IPV4, ETH_HEADER_LEN,
    IPPROTO_TCP, IPV4_HEADER_LEN, TCP_HEADER_LEN,
};

/// TCP flag bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// SYN flag.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST flag.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// ACK flag.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// SYN|ACK combination.
    pub const SYN_ACK: TcpFlags = TcpFlags(0x12);
    /// PSH|ACK combination (data segment).
    pub const PSH_ACK: TcpFlags = TcpFlags(0x18);

    /// `true` if all bits of `other` are set in `self`.
    pub fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }
}

/// A TCP segment inside an IPv4 packet inside an Ethernet frame.
#[derive(Clone, Debug, PartialEq)]
pub struct TcpFrame {
    /// Source MAC.
    pub src_mac: MacAddr,
    /// Destination MAC.
    pub dst_mac: MacAddr,
    /// Source IPv4 address.
    pub src_ip: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst_ip: Ipv4Addr,
    /// Source TCP port.
    pub src_port: u16,
    /// Destination TCP port.
    pub dst_port: u16,
    /// TCP flags.
    pub flags: TcpFlags,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// Application payload carried by this segment.
    pub payload: Vec<u8>,
}

impl TcpFrame {
    /// The longest payload one frame can carry: IPv4's `total_len` is 16
    /// bits and counts both headers.
    pub const MAX_PAYLOAD: usize = wire::IPV4_MAX_PAYLOAD - TCP_HEADER_LEN;

    /// Builds a SYN (connection-open) segment from `src` to the service `dst`.
    pub fn syn(
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src_ip: Ipv4Addr,
        src_port: u16,
        dst: ServiceAddr,
    ) -> TcpFrame {
        TcpFrame {
            src_mac,
            dst_mac,
            src_ip,
            dst_ip: dst.ip,
            src_port,
            dst_port: dst.port,
            flags: TcpFlags::SYN,
            seq: 0,
            ack: 0,
            payload: Vec::new(),
        }
    }

    /// The destination as a service address (the registration key the SDN
    /// controller matches on).
    pub fn dst_service(&self) -> ServiceAddr {
        ServiceAddr::new(self.dst_ip, self.dst_port)
    }

    /// Builds the frame a server sends in reply: addresses and ports swapped.
    pub fn reply(&self, flags: TcpFlags, payload: Vec<u8>) -> TcpFrame {
        self.headers().reply(flags, payload.len()).with_payload(payload)
    }

    /// The header fields of this frame.
    pub fn headers(&self) -> TcpHeaders {
        TcpHeaders {
            src_mac: self.src_mac,
            dst_mac: self.dst_mac,
            src_ip: self.src_ip,
            dst_ip: self.dst_ip,
            src_port: self.src_port,
            dst_port: self.dst_port,
            flags: self.flags,
            seq: self.seq,
            ack: self.ack,
            payload_len: self.payload.len(),
        }
    }

    /// Rewrites the destination (transparent redirect toward an edge host).
    pub fn rewrite_dst(&mut self, mac: MacAddr, ip: Ipv4Addr, port: u16) {
        self.dst_mac = mac;
        self.dst_ip = ip;
        self.dst_port = port;
    }

    /// Rewrites the source (reverse rewrite so replies appear to come from
    /// the cloud service).
    pub fn rewrite_src(&mut self, mac: MacAddr, ip: Ipv4Addr, port: u16) {
        self.src_mac = mac;
        self.src_ip = ip;
        self.src_port = port;
    }

    /// Encodes to real frame bytes with valid checksums.
    ///
    /// The payload must not exceed [`TcpFrame::MAX_PAYLOAD`] (65 495 bytes);
    /// see [`wire::encode_ipv4`] for what happens when it does. Senders
    /// segment at the MSS long before that.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.headers().encode_around(&mut buf, |out, tcp| {
            wire::encode_tcp(out, tcp, &self.payload, self.src_ip, self.dst_ip)
        });
        buf
    }

    /// Decodes real frame bytes (produced by [`TcpFrame::encode`] or any
    /// compatible encoder), verifying checksums.
    pub fn decode(buf: &[u8]) -> Result<TcpFrame, WireError> {
        let (headers, payload) = TcpHeaders::parse_split(buf)?;
        Ok(headers.with_payload(payload.to_vec()))
    }
}

/// Every field of a [`TcpFrame`] but the payload bytes: what the switch
/// matches on and what the TCP endpoints of the testbed act on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TcpHeaders {
    /// Source MAC.
    pub src_mac: MacAddr,
    /// Destination MAC.
    pub dst_mac: MacAddr,
    /// Source IPv4 address.
    pub src_ip: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst_ip: Ipv4Addr,
    /// Source TCP port.
    pub src_port: u16,
    /// Destination TCP port.
    pub dst_port: u16,
    /// TCP flags.
    pub flags: TcpFlags,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// Length of the application payload carried by the segment.
    pub payload_len: usize,
}

impl TcpHeaders {
    /// Parses and verifies frame bytes exactly as [`TcpFrame::decode`] does
    /// (same checks, same [`WireError`]s, both checksums) without copying
    /// the payload.
    pub fn parse(buf: &[u8]) -> Result<TcpHeaders, WireError> {
        TcpHeaders::parse_split(buf).map(|(headers, _)| headers)
    }

    /// The verified headers and the payload bytes they describe.
    fn parse_split(buf: &[u8]) -> Result<(TcpHeaders, &[u8]), WireError> {
        let (eth, rest) = wire::decode_eth(buf)?;
        if eth.ethertype != ETHERTYPE_IPV4 {
            return Err(WireError::NotIpv4(eth.ethertype));
        }
        let (ip, rest) = wire::decode_ipv4(rest)?;
        if ip.protocol != IPPROTO_TCP {
            return Err(WireError::NotTcp(ip.protocol));
        }
        let (tcp, payload) = wire::decode_tcp(rest, ip.src, ip.dst)?;
        let headers = TcpHeaders {
            src_mac: eth.src,
            dst_mac: eth.dst,
            src_ip: ip.src,
            dst_ip: ip.dst,
            src_port: tcp.src_port,
            dst_port: tcp.dst_port,
            flags: TcpFlags(tcp.flags),
            seq: tcp.seq,
            ack: tcp.ack,
            payload_len: payload.len(),
        };
        Ok((headers, payload))
    }

    /// The frame with these headers carrying `payload`.
    pub(crate) fn with_payload(self, payload: Vec<u8>) -> TcpFrame {
        TcpFrame {
            src_mac: self.src_mac,
            dst_mac: self.dst_mac,
            src_ip: self.src_ip,
            dst_ip: self.dst_ip,
            src_port: self.src_port,
            dst_port: self.dst_port,
            flags: self.flags,
            seq: self.seq,
            ack: self.ack,
            payload,
        }
    }

    /// The destination as a service address.
    pub fn dst_service(&self) -> ServiceAddr {
        ServiceAddr::new(self.dst_ip, self.dst_port)
    }

    /// Headers of the segment sent in reply, carrying `payload_len` bytes:
    /// addresses and ports swapped, this segment acknowledged.
    pub fn reply(&self, flags: TcpFlags, payload_len: usize) -> TcpHeaders {
        TcpHeaders {
            src_mac: self.dst_mac,
            dst_mac: self.src_mac,
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
            flags,
            seq: self.ack,
            ack: self.seq.wrapping_add(self.payload_len.max(1) as u32),
            payload_len,
        }
    }

    /// Size on the wire of the frame these headers describe.
    pub fn wire_len(&self) -> usize {
        ETH_HEADER_LEN + IPV4_HEADER_LEN + TCP_HEADER_LEN + self.payload_len
    }

    /// Encodes into `buf` the frame whose payload is `payload_len` bytes of
    /// `fill` — the same bytes as [`TcpFrame::encode`] on that frame, written
    /// without a payload buffer in between and, because the encoder knows
    /// what it generates, without a pass over the payload to sum it: the TCP
    /// checksum is seeded with the payload's sum in closed form. Receivers
    /// verify every byte as for any other frame. What `buf` held is
    /// discarded, its capacity reused.
    fn encode_filled_into(&self, fill: u8, buf: &mut Vec<u8>) {
        self.encode_around(buf, |out, tcp| {
            wire::encode_tcp_filled(out, tcp, fill, self.payload_len, self.src_ip, self.dst_ip)
        });
    }

    /// Overwrites `buf` with the Ethernet and IPv4 headers for these fields
    /// and the TCP segment — header and `payload_len` payload bytes — that
    /// `write_tcp` appends.
    fn encode_around(&self, buf: &mut Vec<u8>, write_tcp: impl FnOnce(&mut Vec<u8>, &TcpHeader)) {
        buf.clear();
        buf.reserve_exact(self.wire_len());
        wire::encode_eth(
            buf,
            &EthHeader {
                dst: self.dst_mac,
                src: self.src_mac,
                ethertype: ETHERTYPE_IPV4,
            },
        );
        let ip = Ipv4Header {
            src: self.src_ip,
            dst: self.dst_ip,
            protocol: IPPROTO_TCP,
            ttl: 64,
            total_len: 0,
            ident: (self.seq ^ (self.src_port as u32) << 8) as u16,
        };
        wire::encode_ipv4(buf, &ip, TCP_HEADER_LEN + self.payload_len);
        write_tcp(
            buf,
            &TcpHeader {
                src_port: self.src_port,
                dst_port: self.dst_port,
                seq: self.seq,
                ack: self.ack,
                flags: self.flags.0,
                window: 65535,
            },
        );
        debug_assert_eq!(buf.len(), self.wire_len(), "the segment carries payload_len bytes");
    }
}

// Byte offsets of the rewritable fields in an Ethernet II / IPv4 (IHL 5) /
// TCP frame.
const OFF_ETH_DST: usize = 0;
const OFF_ETH_SRC: usize = 6;
const OFF_IP_IDENT: usize = ETH_HEADER_LEN + 4;
const OFF_IP_CSUM: usize = ETH_HEADER_LEN + 10;
const OFF_IP_SRC: usize = ETH_HEADER_LEN + 12;
const OFF_IP_DST: usize = ETH_HEADER_LEN + 16;
const OFF_TCP_SRC: usize = ETH_HEADER_LEN + IPV4_HEADER_LEN;
const OFF_TCP_DST: usize = OFF_TCP_SRC + 2;
const OFF_TCP_CSUM: usize = OFF_TCP_SRC + 16;

/// Encoded frame bytes that passed [`TcpHeaders::parse`], rewritable in
/// place.
///
/// Each setter overwrites one field and patches the checksums covering it
/// incrementally (RFC 1624 eqn. 3: `HC' = ~(~HC + ~m + m')`), so a rewrite
/// costs a few additions however long the payload is, and every byte the
/// rewrite does not name — TTL, TCP options, payload, Ethernet padding —
/// stays as it arrived. For a frame [`TcpFrame::encode`] produced the result
/// is byte-identical to decode → [`TcpFrame::rewrite_dst`] /
/// [`TcpFrame::rewrite_src`] → encode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireFrame(Vec<u8>);

impl WireFrame {
    /// Verifies `buf` and wraps it; the headers are as parsed, before any
    /// rewrite.
    pub fn parse(buf: Vec<u8>) -> Result<(TcpHeaders, WireFrame), WireError> {
        let headers = TcpHeaders::parse(&buf)?;
        Ok((headers, WireFrame(buf)))
    }

    /// The frame bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Gives the buffer back.
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }

    /// Rewrites the destination MAC (no checksum covers it).
    pub fn set_eth_dst(&mut self, mac: MacAddr) {
        self.0[OFF_ETH_DST..OFF_ETH_DST + 6].copy_from_slice(&mac.octets());
    }

    /// Rewrites the source MAC.
    pub fn set_eth_src(&mut self, mac: MacAddr) {
        self.0[OFF_ETH_SRC..OFF_ETH_SRC + 6].copy_from_slice(&mac.octets());
    }

    /// Rewrites the source IPv4 address.
    pub fn set_ipv4_src(&mut self, ip: Ipv4Addr) {
        self.set_ip(OFF_IP_SRC, ip);
    }

    /// Rewrites the destination IPv4 address.
    pub fn set_ipv4_dst(&mut self, ip: Ipv4Addr) {
        self.set_ip(OFF_IP_DST, ip);
    }

    /// Rewrites the source TCP port — and with it the low byte of the port
    /// folded into the IPv4 `ident` word, which the encoder derives from the
    /// source port.
    pub fn set_tcp_src(&mut self, port: u16) {
        let changed = self.word(OFF_TCP_SRC) ^ port;
        let ident = self.word(OFF_IP_IDENT) ^ (changed << 8);
        self.patch(OFF_IP_IDENT, ident, &[OFF_IP_CSUM]);
        self.patch(OFF_TCP_SRC, port, &[OFF_TCP_CSUM]);
    }

    /// Rewrites the destination TCP port.
    pub fn set_tcp_dst(&mut self, port: u16) {
        self.patch(OFF_TCP_DST, port, &[OFF_TCP_CSUM]);
    }

    /// An address sits in the IPv4 header and in the TCP pseudo header.
    fn set_ip(&mut self, off: usize, ip: Ipv4Addr) {
        let [a, b, c, d] = ip.octets();
        self.patch(off, u16::from_be_bytes([a, b]), &[OFF_IP_CSUM, OFF_TCP_CSUM]);
        self.patch(off + 2, u16::from_be_bytes([c, d]), &[OFF_IP_CSUM, OFF_TCP_CSUM]);
    }

    fn word(&self, off: usize) -> u16 {
        u16::from_be_bytes([self.0[off], self.0[off + 1]])
    }

    /// Overwrites the 16-bit word at `off` and updates the checksums at
    /// `checksums` for the change. An unchanged word touches nothing.
    fn patch(&mut self, off: usize, new: u16, checksums: &[usize]) {
        let old = self.word(off);
        if old == new {
            return;
        }
        self.0[off..off + 2].copy_from_slice(&new.to_be_bytes());
        for &at in checksums {
            let sum = u64::from(!self.word(at)) + u64::from(!old) + u64::from(new);
            self.0[at..at + 2].copy_from_slice(&(!wire::fold(sum)).to_be_bytes());
        }
    }
}

/// Frame buffers between journeys. The endpoint that consumed a frame hands
/// its buffer back ([`FramePool::recycle`]) and the next encoder writes into
/// it ([`FramePool::encode_filled`]) instead of asking the allocator: a
/// 1.5 kB segment buffer is above glibc's tcache limit, so every fresh one
/// takes malloc's slow path.
///
/// A recycled buffer keeps nothing but its capacity — it is cleared and
/// every byte of the new frame written — so the encoding is the one a
/// fresh buffer gets, whatever frame (longer, shorter, corrupted) the
/// buffer carried before.
#[derive(Debug)]
pub struct FramePool {
    free: Vec<Vec<u8>>,
}

impl FramePool {
    /// The most buffers the pool holds; one recycled beyond that is freed.
    ///
    /// A constant, not a setting, because one value serves every caller:
    /// on `e2ebench`'s `bulk_transfer` at seed 1 (62 frames per request, the
    /// 59 segments of an upload in flight together, uploads overlapping) a
    /// request costs 45.17 heap calls and 69 027 B with 16 buffers, 4.82 /
    /// 8 820 with 64, 0.22 / 1 969 with 256 — and the same 0.22 / 1 969
    /// with 1 024; `peak_rss_mb` reads 10.1–10.4 at every cap (x86-64
    /// Linux, glibc malloc). These are exact counts of the whole stack as it
    /// stands; the sweep that first sized the pool, with far more of the
    /// stack on the heap, read 154.05 calls without a pool and 92.10 from
    /// 256 up (EXPERIMENTS.md, both sweeps). Beyond the hit rate a larger
    /// cap only raises what a burst can leave pinned here (a buffer grows
    /// to the longest frame it ever carried, so 256 of them are ≈ 384 kB of
    /// 1.5 kB segments; 4 096 would be 6 MB that malloc could otherwise
    /// hand to the growing flow table — `peak_rss_mb` is a gated metric).
    pub const CAP: usize = 256;

    /// An empty pool. Its own storage is sized for [`FramePool::CAP`] here,
    /// so recycling never allocates.
    pub fn new() -> FramePool {
        FramePool {
            free: Vec::with_capacity(FramePool::CAP),
        }
    }

    /// Encodes the frame `headers` describe, its payload `payload_len` bytes
    /// of `fill`, into a recycled buffer, or into a new one when the pool is
    /// empty (see `TcpHeaders::encode_filled_into`).
    pub fn encode_filled(&mut self, headers: &TcpHeaders, fill: u8) -> Vec<u8> {
        let mut buf = self.take();
        headers.encode_filled_into(fill, &mut buf);
        buf
    }

    /// A recycled buffer, or a new empty one when the pool is empty, for an
    /// encoder that overwrites it (the OpenFlow control channel's).
    pub fn take(&mut self) -> Vec<u8> {
        self.free.pop().unwrap_or_default()
    }

    /// Takes the buffer of a frame nobody reads any more.
    pub fn recycle(&mut self, buf: Vec<u8>) {
        if self.free.len() < FramePool::CAP {
            self.free.push(buf);
        }
    }

    /// Buffers held right now, at most [`FramePool::CAP`].
    pub fn held(&self) -> usize {
        self.free.len()
    }
}

impl Default for FramePool {
    fn default() -> Self {
        FramePool::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client_syn() -> TcpFrame {
        TcpFrame::syn(
            MacAddr::from_id(1),
            MacAddr::from_id(100),
            Ipv4Addr::new(192, 168, 1, 20),
            50000,
            ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80),
        )
    }

    #[test]
    fn flags_operations() {
        assert!(TcpFlags::SYN_ACK.contains(TcpFlags::SYN));
        assert!(TcpFlags::SYN_ACK.contains(TcpFlags::ACK));
        assert!(!TcpFlags::SYN.contains(TcpFlags::ACK));
    }

    #[test]
    fn syn_has_expected_shape() {
        let f = client_syn();
        assert_eq!(f.flags, TcpFlags::SYN);
        assert!(f.payload.is_empty());
        assert_eq!(f.dst_service().to_string(), "203.0.113.10:80");
        assert_eq!((f.src_ip, f.src_port), (Ipv4Addr::new(192, 168, 1, 20), 50000));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut f = client_syn();
        f.payload = b"GET /index.html HTTP/1.1\r\nHost: svc\r\n\r\n".to_vec();
        f.flags = TcpFlags::PSH_ACK;
        f.seq = 1234;
        f.ack = 77;
        let decoded = TcpFrame::decode(&f.encode()).unwrap();
        assert_eq!(decoded, f);
    }

    #[test]
    fn reply_swaps_endpoints() {
        let f = client_syn();
        let r = f.reply(TcpFlags::SYN_ACK, Vec::new());
        assert_eq!(r.src_ip, f.dst_ip);
        assert_eq!(r.dst_ip, f.src_ip);
        assert_eq!(r.src_port, f.dst_port);
        assert_eq!(r.dst_port, f.src_port);
        assert_eq!(r.src_mac, f.dst_mac);
        assert_eq!(r.flags, TcpFlags::SYN_ACK);
    }

    #[test]
    fn rewrite_then_roundtrip_keeps_checksums_valid() {
        let mut f = client_syn();
        // The transparent redirect: rewrite toward the edge host, re-encode,
        // decode must still pass checksum verification.
        f.rewrite_dst(MacAddr::from_id(200), Ipv4Addr::new(10, 0, 0, 5), 31080);
        let decoded = TcpFrame::decode(&f.encode()).unwrap();
        assert_eq!(decoded.dst_ip, Ipv4Addr::new(10, 0, 0, 5));
        assert_eq!(decoded.dst_port, 31080);

        // And the reverse rewrite on the way back.
        let mut back = decoded.reply(TcpFlags::SYN_ACK, Vec::new());
        back.rewrite_src(MacAddr::from_id(100), Ipv4Addr::new(203, 0, 113, 10), 80);
        let decoded_back = TcpFrame::decode(&back.encode()).unwrap();
        assert_eq!(decoded_back.src_ip, Ipv4Addr::new(203, 0, 113, 10));
        assert_eq!(decoded_back.src_port, 80);
    }

    #[test]
    fn wire_len_matches_encoding() {
        let mut f = client_syn();
        f.payload = vec![0xab; 100];
        assert_eq!(f.encode().len(), f.headers().wire_len());
        assert_eq!(f.headers().wire_len(), 14 + 20 + 20 + 100);
    }

    #[test]
    fn largest_payload_roundtrips() {
        let mut f = client_syn();
        f.payload = vec![0x5a; TcpFrame::MAX_PAYLOAD];
        let bytes = f.encode();
        assert_eq!(&bytes[16..18], &[0xff, 0xff], "total_len at its maximum");
        assert_eq!(TcpFrame::decode(&bytes).unwrap(), f);
    }

    /// One byte past [`TcpFrame::MAX_PAYLOAD`] does not fit `total_len`. The
    /// seed cast the length silently; a release build still does (pinned
    /// here: the length wraps to 0 and nothing decodes the frame), a debug
    /// build refuses.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "does not fit total_len"))]
    fn oversized_payload_panics_in_debug_and_wraps_in_release() {
        let mut f = client_syn();
        f.payload = vec![0; TcpFrame::MAX_PAYLOAD + 1];
        let bytes = f.encode();
        assert_eq!(bytes.len(), f.headers().wire_len());
        assert_eq!(&bytes[16..18], &[0, 0], "total_len wrapped");
        assert!(TcpFrame::decode(&bytes).is_err());
    }

    #[test]
    fn headers_reply_equals_frame_reply() {
        let mut f = client_syn();
        f.payload = vec![1; 700];
        f.seq = u32::MAX - 3;
        f.ack = 9;
        let r = f.reply(TcpFlags::PSH_ACK, vec![2; 30]);
        assert_eq!(f.headers().reply(TcpFlags::PSH_ACK, 30), r.headers());
        assert_eq!(r.ack, 696, "acknowledges the payload, wrapping");
        assert_eq!(client_syn().headers().reply(TcpFlags::SYN_ACK, 0).ack, 1);
    }

    #[test]
    fn decode_rejects_non_tcp() {
        let mut buf = Vec::new();
        wire::encode_eth(
            &mut buf,
            &EthHeader {
                dst: MacAddr::ZERO,
                src: MacAddr::ZERO,
                ethertype: ETHERTYPE_IPV4,
            },
        );
        let ip = Ipv4Header {
            src: Ipv4Addr::new(1, 1, 1, 1),
            dst: Ipv4Addr::new(2, 2, 2, 2),
            protocol: 17, // UDP
            ttl: 64,
            total_len: 0,
            ident: 0,
        };
        wire::encode_ipv4(&mut buf, &ip, 0);
        assert_eq!(TcpFrame::decode(&buf), Err(wire::WireError::NotTcp(17)));
    }
}
