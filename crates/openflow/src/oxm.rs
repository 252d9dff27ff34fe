//! OXM (OpenFlow Extensible Match) fields and match sets.
//!
//! Only the fields the transparent-edge data plane needs are implemented —
//! exactly the set the paper's controller matches and rewrites on: ingress
//! port, Ethernet addresses/type, IP protocol, IPv4 addresses and TCP ports.

use crate::{OfError, OxmFault};

/// The ONF "openflow basic" OXM class.
pub(crate) const OXM_CLASS_OPENFLOW_BASIC: u16 = 0x8000;

// OFPXMT_OFB_* field codes.
const F_IN_PORT: u8 = 0;
const F_ETH_DST: u8 = 3;
const F_ETH_SRC: u8 = 4;
const F_ETH_TYPE: u8 = 5;
const F_IP_PROTO: u8 = 10;
const F_IPV4_SRC: u8 = 11;
const F_IPV4_DST: u8 = 12;
const F_TCP_SRC: u8 = 13;
const F_TCP_DST: u8 = 14;

/// One concrete match field (no masks — the controller installs exact flows).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OxmField {
    /// Ingress port.
    InPort(u32),
    /// Ethernet destination.
    EthDst([u8; 6]),
    /// Ethernet source.
    EthSrc([u8; 6]),
    /// EtherType.
    EthType(u16),
    /// IP protocol number.
    IpProto(u8),
    /// IPv4 source address.
    Ipv4Src([u8; 4]),
    /// IPv4 destination address.
    Ipv4Dst([u8; 4]),
    /// TCP source port.
    TcpSrc(u16),
    /// TCP destination port.
    TcpDst(u16),
}

impl OxmField {
    /// The kind's row in [`KINDS`]: its rank in ascending field code.
    fn kind(&self) -> usize {
        match self {
            OxmField::InPort(_) => 0,
            OxmField::EthDst(_) => 1,
            OxmField::EthSrc(_) => 2,
            OxmField::EthType(_) => 3,
            OxmField::IpProto(_) => 4,
            OxmField::Ipv4Src(_) => 5,
            OxmField::Ipv4Dst(_) => 6,
            OxmField::TcpSrc(_) => 7,
            OxmField::TcpDst(_) => 8,
        }
    }

    /// Writes the value as it goes on the wire into `out`, which is exactly
    /// the kind's payload length.
    fn write_value(&self, out: &mut [u8]) {
        match self {
            OxmField::InPort(p) => out.copy_from_slice(&p.to_be_bytes()),
            OxmField::EthDst(m) | OxmField::EthSrc(m) => out.copy_from_slice(m),
            OxmField::EthType(v) | OxmField::TcpSrc(v) | OxmField::TcpDst(v) => {
                out.copy_from_slice(&v.to_be_bytes())
            }
            OxmField::IpProto(v) => out[0] = *v,
            OxmField::Ipv4Src(a) | OxmField::Ipv4Dst(a) => out.copy_from_slice(a),
        }
    }

    /// The field of kind `kind` whose wire value is `v` (its payload length).
    fn from_value(kind: usize, v: &[u8]) -> OxmField {
        let u16_at = || u16::from_be_bytes([v[0], v[1]]);
        let ip = || [v[0], v[1], v[2], v[3]];
        let mac = || [v[0], v[1], v[2], v[3], v[4], v[5]];
        match kind {
            0 => OxmField::InPort(u32::from_be_bytes(ip())),
            1 => OxmField::EthDst(mac()),
            2 => OxmField::EthSrc(mac()),
            3 => OxmField::EthType(u16_at()),
            4 => OxmField::IpProto(v[0]),
            5 => OxmField::Ipv4Src(ip()),
            6 => OxmField::Ipv4Dst(ip()),
            7 => OxmField::TcpSrc(u16_at()),
            _ => OxmField::TcpDst(u16_at()),
        }
    }

    /// Bytes [`OxmField::encode`] appends: the 4-byte TLV header plus the
    /// value.
    pub fn encoded_len(&self) -> usize {
        4 + usize::from(KINDS[self.kind()].len)
    }

    /// Encodes the TLV: class(2) | field<<1|hasmask(1) | length(1) | value.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let kind = &KINDS[self.kind()];
        let mut value = [0u8; 6];
        let value = &mut value[..usize::from(kind.len)];
        self.write_value(value);
        kind.encode(value, out);
    }

    /// Decodes one TLV, returning the field and bytes consumed.
    pub fn decode(buf: &[u8]) -> Result<(OxmField, usize), OfError> {
        let (kind, value) = decode_tlv(buf)?;
        Ok((OxmField::from_value(kind, value), 4 + value.len()))
    }
}

/// One OXM kind: its field code, where its value sits in a [`Match`]'s
/// packed bytes, and the value's length on the wire.
struct Kind {
    code: u8,
    at: usize,
    len: u8,
}

impl Kind {
    /// Appends the TLV of this kind carrying `value`.
    fn encode(&self, value: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(&OXM_CLASS_OPENFLOW_BASIC.to_be_bytes());
        out.push(self.code << 1); // hasmask = 0
        out.push(self.len);
        out.extend_from_slice(value);
    }

    fn range(&self) -> std::ops::Range<usize> {
        self.at..self.at + usize::from(self.len)
    }
}

/// Every kind, in ascending field code — the order fields go on the wire.
/// Row `i` is bit `i` of a [`Match`]'s mask; the values are packed back to
/// back in the same order.
const KINDS: [Kind; 9] = [
    Kind { code: F_IN_PORT, at: 0, len: 4 },
    Kind { code: F_ETH_DST, at: 4, len: 6 },
    Kind { code: F_ETH_SRC, at: 10, len: 6 },
    Kind { code: F_ETH_TYPE, at: 16, len: 2 },
    Kind { code: F_IP_PROTO, at: 18, len: 1 },
    Kind { code: F_IPV4_SRC, at: 19, len: 4 },
    Kind { code: F_IPV4_DST, at: 23, len: 4 },
    Kind { code: F_TCP_SRC, at: 27, len: 2 },
    Kind { code: F_TCP_DST, at: 29, len: 2 },
];

/// Packed value bytes of a [`Match`]: every kind's value at its offset.
const VALUE_BYTES: usize = 31;

/// Decodes one TLV header and checks its value length, returning the kind's
/// row in [`KINDS`] and the value bytes.
fn decode_tlv(buf: &[u8]) -> Result<(usize, &[u8]), OfError> {
    if buf.len() < 4 {
        return Err(OfError::Truncated {
            what: "oxm header",
            need: 4,
            have: buf.len(),
        });
    }
    let class = u16::from_be_bytes([buf[0], buf[1]]);
    if class != OXM_CLASS_OPENFLOW_BASIC {
        return Err(OfError::BadOxm(OxmFault::Class(class)));
    }
    if buf[2] & 1 != 0 {
        return Err(OfError::BadOxm(OxmFault::Masked));
    }
    let code = buf[2] >> 1;
    let len = buf[3] as usize;
    if buf.len() < 4 + len {
        return Err(OfError::Truncated {
            what: "oxm payload",
            need: 4 + len,
            have: buf.len(),
        });
    }
    let Some(kind) = KINDS.iter().position(|k| k.code == code) else {
        return Err(OfError::BadOxm(OxmFault::Field(code)));
    };
    let want = usize::from(KINDS[kind].len);
    if len != want {
        return Err(OfError::BadOxm(OxmFault::Len { code, want, got: len }));
    }
    Ok((kind, &buf[4..4 + len]))
}

/// The fields of a concrete packet that matching runs against. Built by the
/// switch from the frame under evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatchView {
    /// Ingress port the packet arrived on.
    pub in_port: u32,
    /// Ethernet destination.
    pub eth_dst: [u8; 6],
    /// Ethernet source.
    pub eth_src: [u8; 6],
    /// EtherType.
    pub eth_type: u16,
    /// IP protocol number.
    pub ip_proto: u8,
    /// IPv4 source.
    pub ipv4_src: [u8; 4],
    /// IPv4 destination.
    pub ipv4_dst: [u8; 4],
    /// TCP source port.
    pub tcp_src: u16,
    /// TCP destination port.
    pub tcp_dst: u16,
}

/// An OpenFlow match: a set of exact-match fields, at most one per kind
/// (OpenFlow 1.3 §7.2.3). An empty match is the table-miss wildcard that
/// matches everything.
///
/// Packed, not listed: one mask bit per kind (bit `i` is row `i` of
/// [`KINDS`], ascending field code) and every present kind's wire value at a
/// fixed offset, absent ones zeroed. So a match is `Copy`, 34 bytes, never on
/// the heap, and two matches are equal — and hash alike — exactly when they
/// constrain the same fields to the same values, whatever order a caller
/// gave them in. It encodes in ascending field code. [`crate::FlowTable`]
/// hashes it as its own index key.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Match {
    mask: u16,
    values: [u8; VALUE_BYTES],
}

impl std::fmt::Debug for Match {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.fields()).finish()
    }
}

impl Match {
    /// The wildcard match.
    pub fn any() -> Match {
        Match::default()
    }

    /// Builder: adds one field (replacing an existing field of the same kind).
    pub fn with(mut self, field: OxmField) -> Match {
        let kind = field.kind();
        self.mask |= 1 << kind;
        field.write_value(&mut self.values[KINDS[kind].range()]);
        self
    }

    /// The match of `fields`; a kind given twice keeps its last value.
    pub fn of(fields: impl IntoIterator<Item = OxmField>) -> Match {
        fields.into_iter().fold(Match::any(), Match::with)
    }

    /// Convenience: match TCP/IPv4 packets toward `dst_ip:dst_port` — the
    /// registered-service match of the paper.
    pub fn service(dst_ip: [u8; 4], dst_port: u16) -> Match {
        Match::any()
            .with(OxmField::EthType(0x0800))
            .with(OxmField::IpProto(6))
            .with(OxmField::Ipv4Dst(dst_ip))
            .with(OxmField::TcpDst(dst_port))
    }

    /// Convenience: exact per-connection match (the redirect flows installed
    /// after scheduling).
    pub fn connection(
        src_ip: [u8; 4],
        src_port: u16,
        dst_ip: [u8; 4],
        dst_port: u16,
    ) -> Match {
        Match::service(dst_ip, dst_port)
            .with(OxmField::Ipv4Src(src_ip))
            .with(OxmField::TcpSrc(src_port))
    }

    /// The kinds this match constrains, in ascending field code, each with
    /// its row in [`KINDS`].
    fn kinds(&self) -> impl Iterator<Item = (usize, &'static Kind)> + '_ {
        KINDS.iter().enumerate().filter(|&(i, _)| self.mask & 1 << i != 0)
    }

    /// The fields of this match, in ascending field code.
    pub fn fields(&self) -> impl Iterator<Item = OxmField> + '_ {
        self.kinds().map(|(i, kind)| OxmField::from_value(i, &self.values[kind.range()]))
    }

    /// `true` if this is the wildcard match.
    pub fn is_empty(&self) -> bool {
        self.mask == 0
    }

    /// Which kinds this match constrains, one bit each: the match's shape.
    pub(crate) fn mask(&self) -> u16 {
        self.mask
    }

    /// The match of shape `mask` that `view` satisfies: `view`'s values of
    /// the kinds in `mask`. A match with that mask matches `view` exactly
    /// when it equals this one.
    pub(crate) fn of_view(mask: u16, view: &MatchView) -> Match {
        let mut m = Match { mask, values: [0; VALUE_BYTES] };
        let mut put = |i: usize, value: &[u8]| {
            if mask & 1 << i != 0 {
                m.values[KINDS[i].range()].copy_from_slice(value);
            }
        };
        put(0, &view.in_port.to_be_bytes());
        put(1, &view.eth_dst);
        put(2, &view.eth_src);
        put(3, &view.eth_type.to_be_bytes());
        put(4, &[view.ip_proto]);
        put(5, &view.ipv4_src);
        put(6, &view.ipv4_dst);
        put(7, &view.tcp_src.to_be_bytes());
        put(8, &view.tcp_dst.to_be_bytes());
        m
    }

    /// `true` if `view` satisfies every field.
    pub fn matches(&self, view: &MatchView) -> bool {
        Match::of_view(self.mask, view) == *self
    }

    /// The `ofp_match` length field: type + length + fields, no padding.
    fn unpadded_len(&self) -> usize {
        4 + self.kinds().map(|(_, kind)| 4 + usize::from(kind.len)).sum::<usize>()
    }

    /// Bytes [`Match::encode`] appends (padding included).
    pub fn encoded_len(&self) -> usize {
        self.unpadded_len().next_multiple_of(8)
    }

    /// Encodes as an `ofp_match`: type=1 (OXM), length, fields in ascending
    /// field code, zero-padded to a multiple of 8 — written straight into
    /// `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let length = self.unpadded_len();
        out.extend_from_slice(&1u16.to_be_bytes());
        out.extend_from_slice(&(length as u16).to_be_bytes());
        for (_, kind) in self.kinds() {
            kind.encode(&self.values[kind.range()], out);
        }
        out.extend(std::iter::repeat_n(0u8, length.next_multiple_of(8) - length));
    }

    /// Decodes an `ofp_match`, returning the match and total bytes consumed
    /// (including padding). Fields may come in any order; a kind given twice
    /// is refused ([`OfError::DupField`], OpenFlow's `OFPBMC_DUP_FIELD`).
    pub fn decode(buf: &[u8]) -> Result<(Match, usize), OfError> {
        if buf.len() < 4 {
            return Err(OfError::Truncated {
                what: "match header",
                need: 4,
                have: buf.len(),
            });
        }
        let mtype = u16::from_be_bytes([buf[0], buf[1]]);
        if mtype != 1 {
            return Err(OfError::BadOxm(OxmFault::MatchType(mtype)));
        }
        let length = u16::from_be_bytes([buf[2], buf[3]]) as usize;
        if length < 4 || buf.len() < length {
            return Err(OfError::Truncated {
                what: "match body",
                need: length,
                have: buf.len(),
            });
        }
        let mut m = Match::any();
        let mut off = 4;
        while off < length {
            let (kind, value) = decode_tlv(&buf[off..length])?;
            if m.mask & 1 << kind != 0 {
                return Err(OfError::DupField(KINDS[kind].code));
            }
            m.mask |= 1 << kind;
            m.values[KINDS[kind].range()].copy_from_slice(value);
            off += 4 + value.len();
        }
        let padded = length + (8 - length % 8) % 8;
        if buf.len() < padded {
            return Err(OfError::Truncated {
                what: "match padding",
                need: padded,
                have: buf.len(),
            });
        }
        Ok((m, padded))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_view() -> MatchView {
        MatchView {
            in_port: 3,
            eth_dst: [2, 0, 0, 0, 0, 9],
            eth_src: [2, 0, 0, 0, 0, 1],
            eth_type: 0x0800,
            ip_proto: 6,
            ipv4_src: [192, 168, 1, 20],
            ipv4_dst: [203, 0, 113, 10],
            tcp_src: 50000,
            tcp_dst: 80,
        }
    }

    #[test]
    fn field_tlv_roundtrip() {
        let fields = [
            OxmField::InPort(42),
            OxmField::EthDst([1, 2, 3, 4, 5, 6]),
            OxmField::EthSrc([9, 8, 7, 6, 5, 4]),
            OxmField::EthType(0x0800),
            OxmField::IpProto(6),
            OxmField::Ipv4Src([10, 0, 0, 1]),
            OxmField::Ipv4Dst([10, 0, 0, 2]),
            OxmField::TcpSrc(1234),
            OxmField::TcpDst(80),
        ];
        for f in fields {
            let mut buf = Vec::new();
            f.encode(&mut buf);
            let (back, used) = OxmField::decode(&buf).unwrap();
            assert_eq!(back, f);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn match_encode_is_8_byte_aligned() {
        let m = Match::service([203, 0, 113, 10], 80);
        let mut buf = Vec::new();
        m.encode(&mut buf);
        assert_eq!(buf.len() % 8, 0);
        let (back, used) = Match::decode(&buf).unwrap();
        assert_eq!(back, m);
        assert_eq!(used, buf.len());
    }

    #[test]
    fn wildcard_matches_everything() {
        assert!(Match::any().matches(&sample_view()));
        assert!(Match::any().is_empty());
    }

    #[test]
    fn service_match_semantics() {
        let m = Match::service([203, 0, 113, 10], 80);
        let mut v = sample_view();
        assert!(m.matches(&v));
        v.tcp_dst = 443;
        assert!(!m.matches(&v));
        v = sample_view();
        v.ipv4_dst = [203, 0, 113, 11];
        assert!(!m.matches(&v));
        v = sample_view();
        v.ip_proto = 17;
        assert!(!m.matches(&v));
    }

    #[test]
    fn connection_match_is_stricter() {
        let svc = Match::service([203, 0, 113, 10], 80);
        let conn = Match::connection([192, 168, 1, 20], 50000, [203, 0, 113, 10], 80);
        let mut v = sample_view();
        assert!(svc.matches(&v) && conn.matches(&v));
        v.tcp_src = 50001;
        assert!(svc.matches(&v));
        assert!(!conn.matches(&v));
        assert!(conn.fields().count() > svc.fields().count());
    }

    #[test]
    fn with_replaces_same_kind() {
        let m = Match::any()
            .with(OxmField::TcpDst(80))
            .with(OxmField::TcpDst(443));
        assert_eq!(m.fields().count(), 1);
        assert_eq!(m.fields().collect::<Vec<_>>(), [OxmField::TcpDst(443)]);
    }

    #[test]
    fn a_match_is_a_set_encoded_in_field_code_order() {
        let conn = Match::connection([192, 168, 1, 20], 50000, [203, 0, 113, 10], 80);
        let mut fields: Vec<_> = conn.fields().collect();
        let codes: Vec<u8> = fields.iter().map(|f| KINDS[f.kind()].code).collect();
        assert_eq!(codes, [F_ETH_TYPE, F_IP_PROTO, F_IPV4_SRC, F_IPV4_DST, F_TCP_SRC, F_TCP_DST]);
        fields.reverse();
        let reversed = Match::of(fields);
        assert_eq!(reversed, conn);
        assert_eq!(format!("{reversed:?}"), format!("{conn:?}"));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        conn.encode(&mut a);
        reversed.encode(&mut b);
        assert_eq!(a, b);
    }

    /// The mask and the packed values, inline: a `Vec` of fields took a
    /// 24-byte header plus a heap block of 48–64 bytes.
    #[test]
    fn a_match_is_34_bytes() {
        assert_eq!(std::mem::size_of::<Match>(), 34);
    }

    #[test]
    fn decode_refuses_a_repeated_kind_in_any_order() {
        // type=1, length 4+2*6=16, two TcpDst TLVs (equal and unequal values).
        for (a, b) in [(80u16, 80u16), (80, 81)] {
            let mut buf = vec![0, 1, 0, 16];
            for port in [a, b] {
                buf.extend_from_slice(&[0x80, 0x00, F_TCP_DST << 1, 2]);
                buf.extend_from_slice(&port.to_be_bytes());
            }
            assert_eq!(Match::decode(&buf), Err(OfError::DupField(F_TCP_DST)));
        }
        // The same two kinds in either order decode to one match.
        let tlv = |code: u8, v: [u8; 2]| [0x80, 0x00, code << 1, 2, v[0], v[1]];
        let (dst, src) = (tlv(F_TCP_DST, [0, 80]), tlv(F_TCP_SRC, [0xc3, 0x50]));
        let decode = |first: &[u8], second: &[u8]| {
            let mut buf = vec![0, 1, 0, 16];
            buf.extend_from_slice(first);
            buf.extend_from_slice(second);
            Match::decode(&buf).unwrap().0
        };
        assert_eq!(decode(&dst, &src), decode(&src, &dst));
    }

    #[test]
    fn decode_rejects_masked_and_foreign_class() {
        // masked field
        let buf = [0x80, 0x00, (14 << 1) | 1, 2, 0, 80];
        assert_eq!(OxmField::decode(&buf), Err(OfError::BadOxm(OxmFault::Masked)));
        // experimenter class
        let buf = [0xff, 0xff, 14 << 1, 2, 0, 80];
        assert_eq!(OxmField::decode(&buf), Err(OfError::BadOxm(OxmFault::Class(0xffff))));
        // a field code outside the set, and a match type other than OXM
        let buf = [0x80, 0x00, 20 << 1, 2, 0, 80];
        assert_eq!(OxmField::decode(&buf), Err(OfError::BadOxm(OxmFault::Field(20))));
        assert_eq!(Match::decode(&[0, 0, 0, 4]), Err(OfError::BadOxm(OxmFault::MatchType(0))));
    }

    #[test]
    fn decode_rejects_wrong_payload_len() {
        let buf = [0x80, 0x00, F_TCP_DST << 1, 3, 0, 80, 0];
        let fault = OxmFault::Len { code: F_TCP_DST, want: 2, got: 3 };
        assert_eq!(OxmField::decode(&buf), Err(OfError::BadOxm(fault)));
    }

    /// A refusal says what it said when it carried a formatted string.
    #[test]
    fn typed_errors_display_as_before() {
        let shown = |f: OxmFault| OfError::BadOxm(f).to_string();
        assert_eq!(shown(OxmFault::Class(0xffff)), "bad OXM: unsupported class 0xffff");
        assert_eq!(shown(OxmFault::Masked), "bad OXM: masked fields unsupported");
        assert_eq!(shown(OxmFault::Field(20)), "bad OXM: unsupported field 20");
        let len = OxmFault::Len { code: 14, want: 2, got: 3 };
        assert_eq!(shown(len), "bad OXM: field 14: expected len 2, got 3");
        assert_eq!(shown(OxmFault::MatchType(0)), "bad OXM: unsupported match type 0");
    }

    #[test]
    fn truncated_match_errors() {
        let m = Match::service([1, 2, 3, 4], 80);
        let mut buf = Vec::new();
        m.encode(&mut buf);
        for cut in [1, 3, 7, buf.len() - 1] {
            assert!(Match::decode(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }
}
