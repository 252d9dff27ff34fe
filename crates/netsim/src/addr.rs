//! Network addressing: MAC, IPv4 and `ip:port` service addresses.

use std::fmt;

/// A 48-bit Ethernet MAC address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The all-zero address (used as a placeholder).
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Builds a locally-administered unicast MAC from a small integer id,
    /// convenient for assigning stable addresses to simulated hosts.
    pub const fn from_id(id: u32) -> MacAddr {
        let b = id.to_be_bytes();
        // 0x02 = locally administered, unicast.
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }

    /// Raw bytes.
    pub const fn octets(self) -> [u8; 6] {
        self.0
    }
}

impl fmt::Debug for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// An IPv4 address. A thin wrapper (rather than `std::net::Ipv4Addr`) so the
/// wire/encoding crates control the exact byte representation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ipv4Addr(pub [u8; 4]);

impl Ipv4Addr {
    /// The unspecified address `0.0.0.0`.
    pub const UNSPECIFIED: Ipv4Addr = Ipv4Addr([0; 4]);

    /// Builds from four dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr([a, b, c, d])
    }

    /// Raw network-order bytes.
    pub const fn octets(self) -> [u8; 4] {
        self.0
    }

    /// The address as a big-endian `u32`.
    pub const fn to_u32(self) -> u32 {
        u32::from_be_bytes(self.0)
    }
}

impl fmt::Debug for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(f, "{}.{}.{}.{}", b[0], b[1], b[2], b[3])
    }
}

/// The identity of a registered edge service: the *cloud-facing* IPv4 address
/// and TCP port that clients believe they are talking to. This pair is the
/// key under which services are registered with the MEC platform (Section II
/// of the paper).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServiceAddr {
    /// Public (cloud) IPv4 address of the service.
    pub ip: Ipv4Addr,
    /// TCP port of the service.
    pub port: u16,
}

impl ServiceAddr {
    /// Creates a service address.
    pub const fn new(ip: Ipv4Addr, port: u16) -> ServiceAddr {
        ServiceAddr { ip, port }
    }
}

impl fmt::Debug for ServiceAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for ServiceAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.ip, self.port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_display_and_ids() {
        assert_eq!(MacAddr([0xff; 6]).to_string(), "ff:ff:ff:ff:ff:ff");
        let m = MacAddr::from_id(0x01020304);
        assert_eq!(m.to_string(), "02:00:01:02:03:04");
        assert_ne!(MacAddr::from_id(1), MacAddr::from_id(2));
    }

    #[test]
    fn ipv4_u32_and_display() {
        let ip = Ipv4Addr::new(10, 0, 3, 7);
        assert_eq!(ip.to_u32(), 0x0a00_0307);
        assert_eq!(ip.to_string(), "10.0.3.7");
    }

    #[test]
    fn service_addr_display() {
        let sa = ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80);
        assert_eq!(sa.to_string(), "203.0.113.10:80");
    }

    #[test]
    fn service_addr_ordering_is_stable() {
        let a = ServiceAddr::new(Ipv4Addr::new(1, 1, 1, 1), 80);
        let b = ServiceAddr::new(Ipv4Addr::new(1, 1, 1, 1), 443);
        let c = ServiceAddr::new(Ipv4Addr::new(1, 1, 1, 2), 80);
        assert!(a < b && b < c);
    }
}
