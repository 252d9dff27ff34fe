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
//! index, not a hash probe. Where two nodes share several links,
//! [`Topology::path_latency`] picks the lowest-numbered port — the same
//! answer in every process.

use crate::addr::{Ipv4Addr, MacAddr};
use crate::link::{Link, LinkSpec};
use desim::{Duration, SimRng};
use std::collections::HashMap;

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
    by_name: HashMap<String, NodeId>,
    by_ip: HashMap<Ipv4Addr, NodeId>,
    /// `adjacency[node][port - 1]`: ports are handed out densely from 1.
    adjacency: Vec<Vec<Edge>>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Topology {
        Topology::default()
    }

    /// Adds a node; MAC is derived from the node id, IP must be unique.
    ///
    /// # Panics
    /// Panics on duplicate names or IPs.
    pub fn add_node(&mut self, name: &str, kind: NodeKind, ip: Ipv4Addr) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        assert!(
            self.by_name.insert(name.to_owned(), id).is_none(),
            "duplicate node name {name}"
        );
        assert!(
            self.by_ip.insert(ip, id).is_none(),
            "duplicate node ip {ip}"
        );
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

    /// The edge of `node`'s lowest-numbered port whose link ends at `peer`.
    fn first_edge_to(&self, node: NodeId, peer: NodeId) -> Option<&Edge> {
        self.adjacency[node.0 as usize].iter().find(|e| e.peer == peer)
    }

    /// Node metadata.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Looks a node up by name.
    pub fn by_name(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// Looks a node up by IPv4 address.
    pub fn by_ip(&self, ip: Ipv4Addr) -> Option<NodeId> {
        self.by_ip.get(&ip).copied()
    }

    /// The `(peer, peer port)` on the far end of `port` of `node`.
    pub fn peer_of(&self, node: NodeId, port: PortNo) -> Option<(NodeId, PortNo)> {
        self.edge(node, port).map(|e| (e.peer, e.peer_port))
    }

    /// The link attached to `port` of `node`.
    pub fn link_at(&self, node: NodeId, port: PortNo) -> Option<&Link> {
        self.edge(node, port).map(|e| &e.link)
    }

    /// The ports of `node`, ascending.
    pub fn ports(&self, node: NodeId) -> Vec<PortNo> {
        (1..=self.adjacency[node.0 as usize].len() as u32).map(PortNo).collect()
    }

    /// Dijkstra shortest path (by propagation delay), returning the node
    /// sequence including both endpoints. `None` if unreachable.
    pub fn shortest_path(&self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        if from == to {
            return Some(vec![from]);
        }
        let n = self.nodes.len();
        let mut dist = vec![Duration::MAX; n];
        let mut prev: Vec<Option<NodeId>> = vec![None; n];
        let mut visited = vec![false; n];
        dist[from.0 as usize] = Duration::ZERO;
        // Simple O(V^2) Dijkstra: topologies here have tens of nodes.
        for _ in 0..n {
            let mut cur: Option<usize> = None;
            for i in 0..n {
                if !visited[i]
                    && dist[i] < Duration::MAX
                    && cur.is_none_or(|c| dist[i] < dist[c])
                {
                    cur = Some(i);
                }
            }
            let Some(u) = cur else { break };
            if u == to.0 as usize {
                break;
            }
            visited[u] = true;
            for edge in &self.adjacency[u] {
                let v = edge.peer.0 as usize;
                let alt = dist[u] + edge.link.spec().propagation;
                if alt < dist[v] {
                    dist[v] = alt;
                    prev[v] = Some(NodeId(u as u32));
                }
            }
        }
        if dist[to.0 as usize] == Duration::MAX {
            return None;
        }
        let mut path = vec![to];
        let mut cur = to;
        while let Some(p) = prev[cur.0 as usize] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        (path[0] == from).then_some(path)
    }

    /// One-way latency of the shortest path for a frame of `bytes`,
    /// including per-hop serialization and jitter. A hop between two nodes
    /// that share several links is priced by the link on the lowest-numbered
    /// port.
    pub fn path_latency(
        &self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        rng: &mut SimRng,
    ) -> Option<Duration> {
        let path = self.shortest_path(from, to)?;
        let mut total = Duration::ZERO;
        for pair in path.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let edge = self.first_edge_to(a, b).expect("path edge exists");
            total += edge.link.traversal_time(bytes, rng);
        }
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let (t, sw, c1, _, egs) = star();
        assert_eq!(t.by_name("switch"), Some(sw));
        assert_eq!(t.by_ip(Ipv4Addr::new(10, 0, 1, 1)), Some(c1));
        assert_eq!(t.node(egs).kind, NodeKind::EdgeHost);
        assert_eq!(t.nodes().len(), 4);
        assert!(t.by_name("nope").is_none());
    }

    #[test]
    fn ports_and_peers() {
        let (t, sw, c1, c2, egs) = star();
        assert_eq!(t.ports(sw), vec![PortNo(1), PortNo(2), PortNo(3)]);
        assert_eq!(t.peer_of(sw, PortNo(1)), Some((c1, PortNo(1))));
        assert_eq!(t.peer_of(sw, PortNo(2)), Some((c2, PortNo(1))));
        assert_eq!(t.peer_of(sw, PortNo(3)), Some((egs, PortNo(1))));
        assert!(t.peer_of(sw, PortNo(9)).is_none());
        assert!(t.link_at(sw, PortNo(3)).is_some());
    }

    #[test]
    fn shortest_path_through_star() {
        let (t, sw, c1, c2, egs) = star();
        assert_eq!(t.shortest_path(c1, egs), Some(vec![c1, sw, egs]));
        assert_eq!(t.shortest_path(c1, c2), Some(vec![c1, sw, c2]));
        assert_eq!(t.shortest_path(c1, c1), Some(vec![c1]));
    }

    #[test]
    fn unreachable_is_none() {
        let mut t = Topology::new();
        let a = t.add_node("a", NodeKind::Client, Ipv4Addr::new(1, 0, 0, 1));
        let b = t.add_node("b", NodeKind::Client, Ipv4Addr::new(1, 0, 0, 2));
        assert_eq!(t.shortest_path(a, b), None);
        let mut rng = SimRng::new(1);
        assert_eq!(t.path_latency(a, b, 100, &mut rng), None);
    }

    #[test]
    fn path_latency_accumulates_hops() {
        let (t, _, c1, _, egs) = star();
        let mut rng = SimRng::new(1);
        let lat = t.path_latency(c1, egs, 64, &mut rng).unwrap();
        // >= sum of propagation delays (100us + 50us).
        assert!(lat >= Duration::from_micros(150));
        assert!(lat < Duration::from_millis(1));
    }

    #[test]
    fn shortest_path_prefers_low_latency() {
        let mut t = Topology::new();
        let a = t.add_node("a", NodeKind::Client, Ipv4Addr::new(1, 0, 0, 1));
        let b = t.add_node("b", NodeKind::Switch, Ipv4Addr::new(1, 0, 0, 2));
        let c = t.add_node("c", NodeKind::Cloud, Ipv4Addr::new(1, 0, 0, 3));
        // Direct (slow) path a-c, and fast two-hop path a-b-c.
        t.connect(a, c, LinkSpec::wan(Duration::from_millis(50), 1_000_000_000));
        t.connect(a, b, LinkSpec::gigabit(Duration::from_micros(100)));
        t.connect(b, c, LinkSpec::gigabit(Duration::from_micros(100)));
        assert_eq!(t.shortest_path(a, c), Some(vec![a, b, c]));
    }

    /// Two nodes sharing three links of different specs: pricing a hop
    /// picks the lowest-numbered port. (The ports used to
    /// live in a `RandomState` map, and the answer was whichever link the
    /// process's hash seed listed first.)
    #[test]
    fn parallel_links_resolve_to_the_lowest_port() {
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
        // The slowest of the three comes first, so "lowest port" and
        // "fastest link" give different answers.
        for propagation_us in [700, 300, 500] {
            t.connect(a, b, link(propagation_us));
        }
        assert_eq!(t.ports(a), vec![PortNo(1), PortNo(2), PortNo(3), PortNo(4)]);
        assert_eq!(t.ports(b), vec![PortNo(1), PortNo(2), PortNo(3)]);
        for (pa, pb) in [(2, 1), (3, 2), (4, 3)] {
            assert_eq!(t.peer_of(a, PortNo(pa)), Some((b, PortNo(pb))));
            assert_eq!(t.peer_of(b, PortNo(pb)), Some((a, PortNo(pa))));
        }
        assert!(t.peer_of(a, PortNo(0)).is_none() && t.link_at(a, PortNo(5)).is_none());
        assert_eq!(t.shortest_path(c, b), Some(vec![c, a, b]));
        let mut rng = SimRng::new(1);
        let priced = |l: &Link| l.spec().propagation + l.serialization_delay(125);
        let first = priced(t.link_at(a, PortNo(2)).unwrap());
        assert_eq!(first, Duration::from_micros(701));
        assert_eq!(t.path_latency(a, b, 125, &mut rng), Some(first));
        assert_eq!(t.path_latency(b, a, 125, &mut rng), Some(first));
        assert_eq!(
            t.path_latency(c, b, 125, &mut rng),
            Some(Duration::from_micros(11) + first)
        );
    }

    #[test]
    #[should_panic(expected = "duplicate node name")]
    fn duplicate_names_rejected() {
        let mut t = Topology::new();
        t.add_node("x", NodeKind::Client, Ipv4Addr::new(1, 0, 0, 1));
        t.add_node("x", NodeKind::Client, Ipv4Addr::new(1, 0, 0, 2));
    }
}
