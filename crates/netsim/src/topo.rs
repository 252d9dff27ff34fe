//! The emulated network topology: nodes, ports, links, paths.
//!
//! Mirrors the evaluation topology of the paper (Fig. 8): client nodes
//! attach through an access switch to the Edge Gateway Server, which hosts
//! the OVS instance, the SDN controller and the edge clusters; a WAN link
//! continues toward the cloud.
//!
//! Ports are dense: [`Topology::connect`] hands a node its ports in order
//! from 1, so a node's links live in a `Vec` indexed by `port − 1` and the
//! per-hop lookups ([`Topology::peer_of`], [`Topology::link_at`]) are an
//! index, not a hash probe.

use crate::addr::{Ipv4Addr, MacAddr};
use crate::link::{Link, LinkSpec};

/// Identifies a node in the topology.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

/// Identifies a port on a node (OpenFlow port numbers start at 1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PortNo(pub u32);

/// What role a node plays in the emulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// User equipment (the Raspberry Pi clients).
    Client,
    /// A plain L2/L3 switch (no OpenFlow).
    Switch,
    /// An OpenFlow switch (the virtual OVS instance).
    OpenFlowSwitch,
    /// A host running edge clusters (the Edge Gateway Server).
    EdgeHost,
    /// The SDN controller host.
    Controller,
    /// The remote cloud.
    Cloud,
}

/// A node plus its addresses.
#[derive(Clone, Debug)]
pub struct Node {
    /// Node id.
    pub id: NodeId,
    /// Role.
    pub kind: NodeKind,
    /// Human-readable name (`pi-07`, `egs`, ...).
    pub name: String,
    /// MAC address.
    pub mac: MacAddr,
    /// IPv4 address.
    pub ip: Ipv4Addr,
}

struct Edge {
    peer: NodeId,
    peer_port: PortNo,
    link: Link,
}

/// The node/port/link graph.
#[derive(Default)]
pub struct Topology {
    nodes: Vec<Node>,
    /// `adjacency[node][port - 1]`: ports are handed out densely from 1.
    adjacency: Vec<Vec<Edge>>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Topology {
        Topology::default()
    }

    /// Adds a node; MAC is derived from the node id.
    pub fn add_node(&mut self, name: &str, kind: NodeKind, ip: Ipv4Addr) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            id,
            kind,
            name: name.to_owned(),
            mac: MacAddr::from_id(id.0),
            ip,
        });
        self.adjacency.push(Vec::new());
        id
    }

    /// Connects two nodes with a symmetric link, allocating the next free
    /// port (1, 2, ...) on each side. Returns `(port on a, port on b)`.
    pub fn connect(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> (PortNo, PortNo) {
        assert_ne!(a, b, "self-links are not supported");
        let pa = PortNo(self.adjacency[a.0 as usize].len() as u32 + 1);
        let pb = PortNo(self.adjacency[b.0 as usize].len() as u32 + 1);
        self.adjacency[a.0 as usize].push(Edge {
            peer: b,
            peer_port: pb,
            link: Link::new(spec.clone()),
        });
        self.adjacency[b.0 as usize].push(Edge {
            peer: a,
            peer_port: pa,
            link: Link::new(spec),
        });
        (pa, pb)
    }

    /// The edge behind `port` of `node`.
    fn edge(&self, node: NodeId, port: PortNo) -> Option<&Edge> {
        self.adjacency[node.0 as usize].get(port.0.checked_sub(1)? as usize)
    }

    /// Node metadata.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The `(peer, peer port)` on the far end of `port` of `node`.
    pub fn peer_of(&self, node: NodeId, port: PortNo) -> Option<(NodeId, PortNo)> {
        self.edge(node, port).map(|e| (e.peer, e.peer_port))
    }

    /// The link attached to `port` of `node`.
    pub fn link_at(&self, node: NodeId, port: PortNo) -> Option<&Link> {
        self.edge(node, port).map(|e| &e.link)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::Duration;

    fn star() -> (Topology, NodeId, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let sw = t.add_node("switch", NodeKind::Switch, Ipv4Addr::new(10, 0, 0, 1));
        let c1 = t.add_node("pi-01", NodeKind::Client, Ipv4Addr::new(10, 0, 1, 1));
        let c2 = t.add_node("pi-02", NodeKind::Client, Ipv4Addr::new(10, 0, 1, 2));
        let egs = t.add_node("egs", NodeKind::EdgeHost, Ipv4Addr::new(10, 0, 0, 10));
        t.connect(c1, sw, LinkSpec::gigabit(Duration::from_micros(100)));
        t.connect(c2, sw, LinkSpec::gigabit(Duration::from_micros(100)));
        t.connect(
            sw,
            egs,
            LinkSpec {
                propagation: Duration::from_micros(50),
                bandwidth_bps: 10_000_000_000,
                jitter_max: Duration::from_micros(20),
            },
        );
        (t, sw, c1, c2, egs)
    }

    #[test]
    fn lookups() {
        let (t, _, _, _, egs) = star();
        assert_eq!(t.node(egs).kind, NodeKind::EdgeHost);
        assert_eq!(t.nodes().len(), 4);
    }

    #[test]
    fn ports_and_peers() {
        let (t, sw, c1, c2, egs) = star();
        assert_eq!(t.peer_of(sw, PortNo(1)), Some((c1, PortNo(1))));
        assert_eq!(t.peer_of(sw, PortNo(2)), Some((c2, PortNo(1))));
        assert_eq!(t.peer_of(sw, PortNo(3)), Some((egs, PortNo(1))));
        assert!(t.peer_of(sw, PortNo(9)).is_none());
        assert!(t.link_at(sw, PortNo(3)).is_some());
    }

    /// Two nodes sharing three links: each link takes the next port on both
    /// sides, in the order they were connected.
    #[test]
    fn parallel_links_take_ports_in_order() {
        let link = |propagation_us| LinkSpec {
            propagation: Duration::from_micros(propagation_us),
            bandwidth_bps: 1_000_000_000,
            jitter_max: Duration::ZERO,
        };
        let mut t = Topology::new();
        let a = t.add_node("a", NodeKind::Switch, Ipv4Addr::new(1, 0, 0, 1));
        let b = t.add_node("b", NodeKind::Switch, Ipv4Addr::new(1, 0, 0, 2));
        let c = t.add_node("c", NodeKind::Client, Ipv4Addr::new(1, 0, 0, 3));
        t.connect(c, a, link(10));
        for propagation_us in [700, 300, 500] {
            t.connect(a, b, link(propagation_us));
        }
        for (pa, pb) in [(2, 1), (3, 2), (4, 3)] {
            assert_eq!(t.peer_of(a, PortNo(pa)), Some((b, PortNo(pb))));
            assert_eq!(t.peer_of(b, PortNo(pb)), Some((a, PortNo(pa))));
        }
        assert!(t.peer_of(a, PortNo(0)).is_none() && t.link_at(a, PortNo(5)).is_none());
    }
}
