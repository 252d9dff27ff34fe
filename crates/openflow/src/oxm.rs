//! OXM (OpenFlow Extensible Match) fields and match sets.
//!
//! Only the fields the transparent-edge data plane needs are implemented —
//! exactly the set the paper's controller matches and rewrites on: ingress
//! port, Ethernet addresses/type, IP protocol, IPv4 addresses and TCP ports.

use crate::OfError;

/// The ONF "openflow basic" OXM class.
pub const OXM_CLASS_OPENFLOW_BASIC: u16 = 0x8000;

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
    fn code(&self) -> u8 {
        match self {
            OxmField::InPort(_) => F_IN_PORT,
            OxmField::EthDst(_) => F_ETH_DST,
            OxmField::EthSrc(_) => F_ETH_SRC,
            OxmField::EthType(_) => F_ETH_TYPE,
            OxmField::IpProto(_) => F_IP_PROTO,
            OxmField::Ipv4Src(_) => F_IPV4_SRC,
            OxmField::Ipv4Dst(_) => F_IPV4_DST,
            OxmField::TcpSrc(_) => F_TCP_SRC,
            OxmField::TcpDst(_) => F_TCP_DST,
        }
    }

    fn payload_len(&self) -> usize {
        match self {
            OxmField::InPort(_) => 4,
            OxmField::EthDst(_) | OxmField::EthSrc(_) => 6,
            OxmField::EthType(_) | OxmField::TcpSrc(_) | OxmField::TcpDst(_) => 2,
            OxmField::IpProto(_) => 1,
            OxmField::Ipv4Src(_) | OxmField::Ipv4Dst(_) => 4,
        }
    }

    /// Bytes [`OxmField::encode`] appends: the 4-byte TLV header plus the
    /// value.
    pub fn encoded_len(&self) -> usize {
        4 + self.payload_len()
    }

    /// Encodes the TLV: class(2) | field<<1|hasmask(1) | length(1) | value.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&OXM_CLASS_OPENFLOW_BASIC.to_be_bytes());
        out.push(self.code() << 1); // hasmask = 0
        out.push(self.payload_len() as u8);
        match self {
            OxmField::InPort(p) => out.extend_from_slice(&p.to_be_bytes()),
            OxmField::EthDst(m) | OxmField::EthSrc(m) => out.extend_from_slice(m),
            OxmField::EthType(v) | OxmField::TcpSrc(v) | OxmField::TcpDst(v) => {
                out.extend_from_slice(&v.to_be_bytes())
            }
            OxmField::IpProto(v) => out.push(*v),
            OxmField::Ipv4Src(a) | OxmField::Ipv4Dst(a) => out.extend_from_slice(a),
        }
    }

    /// Decodes one TLV, returning the field and bytes consumed.
    pub fn decode(buf: &[u8]) -> Result<(OxmField, usize), OfError> {
        if buf.len() < 4 {
            return Err(OfError::Truncated {
                what: "oxm header",
                need: 4,
                have: buf.len(),
            });
        }
        let class = u16::from_be_bytes([buf[0], buf[1]]);
        if class != OXM_CLASS_OPENFLOW_BASIC {
            return Err(OfError::BadOxm(format!("unsupported class {class:#06x}")));
        }
        let hasmask = buf[2] & 1 != 0;
        if hasmask {
            return Err(OfError::BadOxm("masked fields unsupported".into()));
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
        let v = &buf[4..4 + len];
        let expect = |want: usize| -> Result<(), OfError> {
            if len != want {
                Err(OfError::BadOxm(format!(
                    "field {code}: expected len {want}, got {len}"
                )))
            } else {
                Ok(())
            }
        };
        let field = match code {
            F_IN_PORT => {
                expect(4)?;
                OxmField::InPort(u32::from_be_bytes([v[0], v[1], v[2], v[3]]))
            }
            F_ETH_DST => {
                expect(6)?;
                OxmField::EthDst([v[0], v[1], v[2], v[3], v[4], v[5]])
            }
            F_ETH_SRC => {
                expect(6)?;
                OxmField::EthSrc([v[0], v[1], v[2], v[3], v[4], v[5]])
            }
            F_ETH_TYPE => {
                expect(2)?;
                OxmField::EthType(u16::from_be_bytes([v[0], v[1]]))
            }
            F_IP_PROTO => {
                expect(1)?;
                OxmField::IpProto(v[0])
            }
            F_IPV4_SRC => {
                expect(4)?;
                OxmField::Ipv4Src([v[0], v[1], v[2], v[3]])
            }
            F_IPV4_DST => {
                expect(4)?;
                OxmField::Ipv4Dst([v[0], v[1], v[2], v[3]])
            }
            F_TCP_SRC => {
                expect(2)?;
                OxmField::TcpSrc(u16::from_be_bytes([v[0], v[1]]))
            }
            F_TCP_DST => {
                expect(2)?;
                OxmField::TcpDst(u16::from_be_bytes([v[0], v[1]]))
            }
            other => return Err(OfError::BadOxm(format!("unsupported field {other}"))),
        };
        Ok((field, 4 + len))
    }
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

/// The four fields of the registered-service match, in wire order.
pub fn service_fields(dst_ip: [u8; 4], dst_port: u16) -> [OxmField; 4] {
    [
        OxmField::EthType(0x0800),
        OxmField::IpProto(6),
        OxmField::Ipv4Dst(dst_ip),
        OxmField::TcpDst(dst_port),
    ]
}

/// An OpenFlow match: a conjunction of exact-match fields. An empty match is
/// the table-miss wildcard that matches everything.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Match {
    fields: Vec<OxmField>,
}

impl Match {
    /// The wildcard match.
    pub fn any() -> Match {
        Match::default()
    }

    /// Builder: adds one field (replacing an existing field of the same kind).
    pub fn with(mut self, field: OxmField) -> Match {
        self.fields.retain(|f| f.code() != field.code());
        self.fields.push(field);
        self
    }

    /// Convenience: match TCP/IPv4 packets toward `dst_ip:dst_port` — the
    /// registered-service match of the paper.
    pub fn service(dst_ip: [u8; 4], dst_port: u16) -> Match {
        Match {
            fields: service_fields(dst_ip, dst_port).to_vec(),
        }
    }

    /// Convenience: exact per-connection match (the redirect flows installed
    /// after scheduling).
    pub fn connection(
        src_ip: [u8; 4],
        src_port: u16,
        dst_ip: [u8; 4],
        dst_port: u16,
    ) -> Match {
        let client = [OxmField::Ipv4Src(src_ip), OxmField::TcpSrc(src_port)];
        Match::of(service_fields(dst_ip, dst_port).into_iter().chain(client))
    }

    /// The match of `fields`, in order, with no field kind given twice. Built
    /// with one heap call at its exact capacity, where [`Match::with`] grows
    /// it a field at a time: the controller keeps every match it installs
    /// for the life of the rule, so growth slack would be paid that long.
    pub fn of(fields: impl IntoIterator<Item = OxmField>) -> Match {
        Match { fields: fields.into_iter().collect() }
    }

    /// The fields of this match.
    pub fn fields(&self) -> &[OxmField] {
        &self.fields
    }

    /// Number of fields (used as a specificity tiebreaker in tests).
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// `true` if this is the wildcard match.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// `true` if `view` satisfies every field.
    pub fn matches(&self, view: &MatchView) -> bool {
        self.fields.iter().all(|f| match f {
            OxmField::InPort(p) => view.in_port == *p,
            OxmField::EthDst(m) => view.eth_dst == *m,
            OxmField::EthSrc(m) => view.eth_src == *m,
            OxmField::EthType(t) => view.eth_type == *t,
            OxmField::IpProto(p) => view.ip_proto == *p,
            OxmField::Ipv4Src(a) => view.ipv4_src == *a,
            OxmField::Ipv4Dst(a) => view.ipv4_dst == *a,
            OxmField::TcpSrc(p) => view.tcp_src == *p,
            OxmField::TcpDst(p) => view.tcp_dst == *p,
        })
    }

    /// The `ofp_match` length field: type + length + fields, no padding.
    fn unpadded_len(&self) -> usize {
        4 + self.fields.iter().map(OxmField::encoded_len).sum::<usize>()
    }

    /// Bytes [`Match::encode`] appends (padding included).
    pub fn encoded_len(&self) -> usize {
        self.unpadded_len().next_multiple_of(8)
    }

    /// Encodes as an `ofp_match`: type=1 (OXM), length, fields, zero-padded
    /// to a multiple of 8 — written straight into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let length = self.unpadded_len();
        out.extend_from_slice(&1u16.to_be_bytes());
        out.extend_from_slice(&(length as u16).to_be_bytes());
        for f in &self.fields {
            f.encode(out);
        }
        out.extend(std::iter::repeat_n(0u8, length.next_multiple_of(8) - length));
    }

    /// Decodes an `ofp_match`, returning the match and total bytes consumed
    /// (including padding).
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
            return Err(OfError::BadOxm(format!("unsupported match type {mtype}")));
        }
        let length = u16::from_be_bytes([buf[2], buf[3]]) as usize;
        if length < 4 || buf.len() < length {
            return Err(OfError::Truncated {
                what: "match body",
                need: length,
                have: buf.len(),
            });
        }
        // A TLV is at least 5 bytes (header + one value byte), which bounds
        // the field count from the declared length: one allocation, no growth.
        let mut fields = Vec::with_capacity((length - 4) / 5);
        let mut off = 4;
        while off < length {
            let (f, used) = OxmField::decode(&buf[off..length])?;
            fields.push(f);
            off += used;
        }
        let padded = length + (8 - length % 8) % 8;
        if buf.len() < padded {
            return Err(OfError::Truncated {
                what: "match padding",
                need: padded,
                have: buf.len(),
            });
        }
        Ok((Match { fields }, padded))
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
        assert!(conn.len() > svc.len());
    }

    #[test]
    fn with_replaces_same_kind() {
        let m = Match::any()
            .with(OxmField::TcpDst(80))
            .with(OxmField::TcpDst(443));
        assert_eq!(m.len(), 1);
        assert_eq!(m.fields()[0], OxmField::TcpDst(443));
    }

    #[test]
    fn decode_rejects_masked_and_foreign_class() {
        // masked field
        let buf = [0x80, 0x00, (14 << 1) | 1, 2, 0, 80];
        assert!(matches!(OxmField::decode(&buf), Err(OfError::BadOxm(_))));
        // experimenter class
        let buf = [0xff, 0xff, 14 << 1, 2, 0, 80];
        assert!(matches!(OxmField::decode(&buf), Err(OfError::BadOxm(_))));
    }

    #[test]
    fn decode_rejects_wrong_payload_len() {
        let buf = [0x80, 0x00, F_TCP_DST << 1, 3, 0, 80, 0];
        assert!(matches!(OxmField::decode(&buf), Err(OfError::BadOxm(_))));
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
