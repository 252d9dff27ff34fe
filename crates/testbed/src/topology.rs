//! The virtual evaluation topology (Fig. 8).
//!
//! Clients (Raspberry Pis) attach to the virtual OVS switch running on the
//! Edge Gateway Server; the EGS itself (hosting Docker and Kubernetes) hangs
//! off the switch on a fast internal link; a WAN link leads to the cloud.

use desim::Duration;
use netsim::link::LinkSpec;
use netsim::topo::{NodeId, NodeKind, PortNo, Topology};
use netsim::Ipv4Addr;

/// Allocates the `i`-th client address.
///
/// The first 236 clients stay in `192.168.1.20..=192.168.1.255` — exactly
/// the historical single-octet scheme, so existing figures are unchanged —
/// and every 236 clients after that bump the third octet. (The old
/// `20 + i as u8` arithmetic overflowed for `i > 235` even though the
/// topology admits 250 clients.) The `192.168.0.0/16` scheme holds 60,180
/// addresses; beyond that the allocator continues into `172.16.0.0/12`
/// (the third octet would itself overflow at `i = 60,180`), which collides
/// with no other address family in the simulation.
pub fn client_ip_for(i: usize) -> Ipv4Addr {
    const LEGACY: usize = 236 * 255; // 192.168.1.20 .. 192.168.255.255
    if i < LEGACY {
        Ipv4Addr::new(192, 168, 1 + (i / 236) as u8, 20 + (i % 236) as u8)
    } else {
        let j = i - LEGACY;
        assert!(j < 16 << 16, "client index exhausts 172.16.0.0/12");
        Ipv4Addr::new(172, 16 + (j >> 16) as u8, (j >> 8) as u8, j as u8)
    }
}

/// Allocates a client address for a *fleet* topology: client `i` attached
/// at ingress (gNB) `ingress` draws from that ingress's own `/16` block in
/// `10.64.0.0/10` — `10.(64 + ingress).0.0/16`, 65,534 clients per ingress,
/// 192 ingress blocks. Ingress-prefixed blocks keep fleet addressing
/// collision-free by construction: distinct ingresses can never allocate
/// the same address, and the region is disjoint from zone addressing
/// (`10.0.(g+1).x`, far edge `10.8.0.10`), from the legacy
/// `192.168.0.0/16` pool and its `172.16.0.0/12` overflow above.
///
/// The per-client exact-match scheme collided at scale: a single shared
/// pool spanning one `/16` wraps after 65,536 clients, silently aliasing
/// two real clients onto one address (and therefore one rewrite pair).
pub fn fleet_client_ip(ingress: u32, i: usize) -> Ipv4Addr {
    assert!(ingress < 192, "fleet addressing holds 192 ingress blocks");
    assert!(i < 0xfffe, "65,534 clients per ingress block");
    let host = i + 1; // skip the .0.0 network address
    Ipv4Addr::new(10, 64 + ingress as u8, (host >> 8) as u8, host as u8)
}

/// What a node is to the harness that dispatches its frames; switches and
/// clients with their index among the nodes of that kind. Built once per
/// topology ([`Net::roles`]) and indexed by `NodeId`, so the per-frame path
/// does not search the node lists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// An OpenFlow ingress switch (the OVS; gNB `g`).
    Switch(usize),
    /// An edge host (the EGS, the far edge, a zone).
    Edge,
    /// The cloud.
    Cloud,
    /// Client `i`.
    Client(usize),
}

/// What the event loop ([`crate::harness::Harness`]) needs of the network it
/// runs on. [`C3Topology`] is the one-switch case: every client is attached
/// to switch 0 and every host has one link.
pub trait Net {
    /// The network graph.
    fn topo(&self) -> &Topology;
    /// The role of every node, indexed by `NodeId`.
    fn roles(&self) -> Vec<Role>;
    /// The node of ingress switch `sw`.
    fn switch_node(&self, sw: usize) -> NodeId;
    /// The node of client `client`.
    fn client_node(&self, client: usize) -> NodeId;
    /// The cloud node; its MAC is the gateway clients address frames to.
    fn cloud_node(&self) -> NodeId;
    /// Switch `sw`'s port toward `client`.
    fn client_port(&self, sw: usize, client: usize) -> PortNo;
    /// `client`'s own port toward switch `sw` — the leg it transmits on
    /// while attached there.
    fn uplink_port(&self, sw: usize, client: usize) -> PortNo;
    /// Name prefix of switch `sw`'s gauges in a telemetry snapshot.
    fn switch_label(&self, sw: usize) -> String;
}

fn role_table(topo: &Topology, roles: impl IntoIterator<Item = (NodeId, Role)>) -> Vec<Role> {
    let mut table = vec![None; topo.nodes().len()];
    for (node, role) in roles {
        table[node.0 as usize] = Some(role);
    }
    table
        .into_iter()
        .map(|r| r.expect("every node of the topology has a role"))
        .collect()
}

/// The assembled topology plus the node/port bookkeeping the harness needs.
pub struct C3Topology {
    /// The network graph.
    pub topo: Topology,
    /// The Raspberry Pi client nodes.
    pub clients: Vec<NodeId>,
    /// The virtual OVS switch node.
    pub ovs: NodeId,
    /// The Edge Gateway Server node (runs the clusters).
    pub egs: NodeId,
    /// The cloud node.
    pub cloud: NodeId,
    /// OVS port leading to each client (indexed like `clients`).
    pub client_ports: Vec<PortNo>,
    /// OVS port toward the EGS.
    pub egs_port: PortNo,
    /// OVS port toward the cloud.
    pub cloud_port: PortNo,
    /// Optional hierarchical far-edge host (larger cluster on the route to
    /// the cloud) and the OVS port toward it.
    pub far_edge: Option<(NodeId, PortNo)>,
}

impl C3Topology {
    /// Builds the evaluation topology with `n_clients` Pis (the paper uses
    /// 20), optionally with a hierarchical *far edge*: a larger cluster
    /// further away, on the route toward the cloud (Section IV-A-2: such
    /// clusters are "much more likely to have the requested service cached
    /// or even running already").
    pub(crate) fn build_with_far_edge(n_clients: usize, far_edge: bool) -> C3Topology {
        assert!(n_clients > 0 && n_clients <= 250, "client count out of range");
        let mut topo = Topology::new();
        let ovs = topo.add_node("ovs", NodeKind::OpenFlowSwitch, Ipv4Addr::new(10, 0, 0, 1));
        let mut clients = Vec::with_capacity(n_clients);
        let mut client_ports = Vec::with_capacity(n_clients);
        for i in 0..n_clients {
            let c = topo.add_node(&format!("pi-{:02}", i + 1), NodeKind::Client, client_ip_for(i));
            // 1 GbE through the Aruba access switch: ~150 µs one way.
            let (p_ovs, _) = topo.connect(ovs, c, LinkSpec::gigabit(Duration::from_micros(150)));
            clients.push(c);
            client_ports.push(p_ovs);
        }
        let egs = topo.add_node("egs", NodeKind::EdgeHost, Ipv4Addr::new(10, 0, 0, 10));
        let (egs_port, _) = topo.connect(ovs, egs, LinkSpec::local());
        let cloud = topo.add_node("cloud", NodeKind::Cloud, Ipv4Addr::new(198, 51, 100, 1));
        // WAN: ~15 ms one way, shared 1 Gbit/s uplink.
        let (cloud_port, _) = topo.connect(
            ovs,
            cloud,
            LinkSpec::wan(Duration::from_millis(15), 1_000_000_000),
        );
        let far = far_edge.then(|| {
            let far = topo.add_node("far-edge", NodeKind::EdgeHost, Ipv4Addr::new(10, 8, 0, 10));
            // Metro aggregation: ~2 ms one way — 40× farther than the EGS,
            // still 7× closer than the cloud.
            let (far_port, _) = topo.connect(
                ovs,
                far,
                LinkSpec::wan(Duration::from_millis(2), 10_000_000_000),
            );
            (far, far_port)
        });
        C3Topology {
            topo,
            clients,
            ovs,
            egs,
            cloud,
            client_ports,
            egs_port,
            cloud_port,
            far_edge: far,
        }
    }

    /// The IPv4 address of client `i`.
    pub fn client_ip(&self, i: usize) -> Ipv4Addr {
        self.topo.node(self.clients[i]).ip
    }

    /// All OVS port numbers (for the switch FLOOD config).
    pub fn ovs_ports(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.client_ports.iter().map(|p| p.0).collect();
        v.push(self.egs_port.0);
        v.push(self.cloud_port.0);
        if let Some((_, p)) = self.far_edge {
            v.push(p.0);
        }
        v.sort_unstable();
        v
    }
}

impl Net for C3Topology {
    fn topo(&self) -> &Topology {
        &self.topo
    }

    fn roles(&self) -> Vec<Role> {
        let clients = self.clients.iter().enumerate().map(|(i, &c)| (c, Role::Client(i)));
        let far = self.far_edge.map(|(n, _)| (n, Role::Edge));
        role_table(
            &self.topo,
            [(self.ovs, Role::Switch(0)), (self.egs, Role::Edge), (self.cloud, Role::Cloud)]
                .into_iter()
                .chain(far)
                .chain(clients),
        )
    }

    fn switch_node(&self, _sw: usize) -> NodeId {
        self.ovs
    }

    fn client_node(&self, client: usize) -> NodeId {
        self.clients[client]
    }

    fn cloud_node(&self) -> NodeId {
        self.cloud
    }

    fn client_port(&self, _sw: usize, client: usize) -> PortNo {
        self.client_ports[client]
    }

    /// A Pi has one link, to the OVS.
    fn uplink_port(&self, _sw: usize, _client: usize) -> PortNo {
        PortNo(1)
    }

    fn switch_label(&self, _sw: usize) -> String {
        "switch".to_owned()
    }
}

/// A multi-cell radio access network: `n_gnbs` OpenFlow ingress switches
/// (gNBs), each fronting its own near-edge cluster zone, one shared cloud,
/// all managed by a single controller.
///
/// Every client has a radio path to every gNB (it *attaches* to exactly one
/// at a time — attachment is harness state, not topology); every gNB reaches
/// every zone (its own over a local link, the others over a metro
/// aggregation hop) and the cloud over the WAN, so a handed-over session can
/// stay **anchored** to its old zone's instance from the new cell.
pub struct MultiGnbTopology {
    /// The network graph.
    pub topo: Topology,
    /// The gNB ingress switches, one per cell.
    pub gnbs: Vec<NodeId>,
    /// Near-edge cluster zone hosts (`zones[g]` is gNB `g`'s own zone).
    pub zones: Vec<NodeId>,
    /// The client (UE) nodes.
    pub clients: Vec<NodeId>,
    /// The cloud node.
    pub cloud: NodeId,
    /// `client_ports[g][i]` — gNB `g`'s port toward client `i`.
    pub client_ports: Vec<Vec<PortNo>>,
    /// `uplink_ports[g][i]` — client `i`'s own port toward gNB `g` (the
    /// radio leg it transmits on while attached there).
    pub(crate) uplink_ports: Vec<Vec<PortNo>>,
    /// `zone_ports[g][z]` — gNB `g`'s port toward zone `z`.
    pub zone_ports: Vec<Vec<PortNo>>,
    /// `cloud_ports[g]` — gNB `g`'s WAN uplink port.
    pub cloud_ports: Vec<PortNo>,
}

impl MultiGnbTopology {
    /// Builds the multi-cell topology.
    pub fn build(n_gnbs: usize, n_clients: usize) -> MultiGnbTopology {
        assert!(n_gnbs > 0 && n_gnbs <= 32, "gNB count out of range");
        assert!(n_clients > 0 && n_clients <= 250, "client count out of range");
        let mut topo = Topology::new();
        let gnbs: Vec<NodeId> = (0..n_gnbs)
            .map(|g| {
                topo.add_node(
                    &format!("gnb-{g}"),
                    NodeKind::OpenFlowSwitch,
                    Ipv4Addr::new(10, 0, (g + 1) as u8, 1),
                )
            })
            .collect();
        let zones: Vec<NodeId> = (0..n_gnbs)
            .map(|g| {
                topo.add_node(
                    &format!("zone-{g}"),
                    NodeKind::EdgeHost,
                    Ipv4Addr::new(10, 0, (g + 1) as u8, 10),
                )
            })
            .collect();
        let cloud = topo.add_node("cloud", NodeKind::Cloud, Ipv4Addr::new(198, 51, 100, 1));
        let clients: Vec<NodeId> = (0..n_clients)
            .map(|i| {
                topo.add_node(&format!("pi-{:02}", i + 1), NodeKind::Client, client_ip_for(i))
            })
            .collect();
        let mut client_ports = Vec::with_capacity(n_gnbs);
        let mut uplink_ports = Vec::with_capacity(n_gnbs);
        let mut zone_ports = Vec::with_capacity(n_gnbs);
        let mut cloud_ports = Vec::with_capacity(n_gnbs);
        for (g, &gnb) in gnbs.iter().enumerate() {
            // Radio legs first, so per-gNB port numbering mirrors C3 (client
            // ports low, infrastructure ports after them).
            let mut cp = Vec::with_capacity(clients.len());
            let mut up = Vec::with_capacity(clients.len());
            for &c in &clients {
                let (p_gnb, p_client) =
                    topo.connect(gnb, c, LinkSpec::gigabit(Duration::from_micros(150)));
                cp.push(p_gnb);
                up.push(p_client);
            }
            let zp: Vec<PortNo> = zones
                .iter()
                .enumerate()
                .map(|(z, &zone)| {
                    let link = if z == g {
                        LinkSpec::local()
                    } else {
                        // Metro aggregation between neighbouring zones.
                        LinkSpec::wan(Duration::from_millis(2), 10_000_000_000)
                    };
                    topo.connect(gnb, zone, link).0
                })
                .collect();
            let (wan, _) = topo.connect(
                gnb,
                cloud,
                LinkSpec::wan(Duration::from_millis(15), 1_000_000_000),
            );
            client_ports.push(cp);
            uplink_ports.push(up);
            zone_ports.push(zp);
            cloud_ports.push(wan);
        }
        MultiGnbTopology {
            topo,
            gnbs,
            zones,
            clients,
            cloud,
            client_ports,
            uplink_ports,
            zone_ports,
            cloud_ports,
        }
    }

    /// The IPv4 address of client `i`.
    pub fn client_ip(&self, i: usize) -> Ipv4Addr {
        self.topo.node(self.clients[i]).ip
    }

    /// All port numbers of gNB `g` (for the switch FLOOD config).
    pub fn gnb_ports(&self, g: usize) -> Vec<u32> {
        let mut v: Vec<u32> = self.client_ports[g].iter().map(|p| p.0).collect();
        v.extend(self.zone_ports[g].iter().map(|p| p.0));
        v.push(self.cloud_ports[g].0);
        v.sort_unstable();
        v
    }
}

impl Net for MultiGnbTopology {
    fn topo(&self) -> &Topology {
        &self.topo
    }

    fn roles(&self) -> Vec<Role> {
        let gnbs = self.gnbs.iter().enumerate().map(|(g, &n)| (n, Role::Switch(g)));
        let zones = self.zones.iter().map(|&n| (n, Role::Edge));
        let clients = self.clients.iter().enumerate().map(|(i, &c)| (c, Role::Client(i)));
        role_table(
            &self.topo,
            gnbs.chain(zones).chain(clients).chain([(self.cloud, Role::Cloud)]),
        )
    }

    fn switch_node(&self, sw: usize) -> NodeId {
        self.gnbs[sw]
    }

    fn client_node(&self, client: usize) -> NodeId {
        self.clients[client]
    }

    fn cloud_node(&self) -> NodeId {
        self.cloud
    }

    fn client_port(&self, sw: usize, client: usize) -> PortNo {
        self.client_ports[sw][client]
    }

    fn uplink_port(&self, sw: usize, client: usize) -> PortNo {
        self.uplink_ports[sw][client]
    }

    fn switch_label(&self, sw: usize) -> String {
        format!("gnb.{sw}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimRng;

    /// One-way time for a 64-byte frame over the link from `from` to its
    /// neighbour `to`.
    fn hop(topo: &Topology, from: NodeId, to: NodeId, rng: &mut SimRng) -> Duration {
        let port = (1..=topo.nodes().len() as u32)
            .map(PortNo)
            .find(|&p| topo.peer_of(from, p).is_some_and(|(n, _)| n == to))
            .expect("the nodes are neighbours");
        topo.link_at(from, port).unwrap().traversal_time(64, rng)
    }

    #[test]
    fn shape_matches_fig8() {
        let t = C3Topology::build_with_far_edge(20, false);
        assert_eq!(t.clients.len(), 20);
        assert_eq!(t.client_ports.len(), 20);
        assert_eq!(t.ovs_ports().len(), 22);
        // Edge path is much faster than the cloud path.
        let mut rng = SimRng::new(1);
        let to_edge = hop(&t.topo, t.clients[0], t.ovs, &mut rng) + hop(&t.topo, t.ovs, t.egs, &mut rng);
        let to_cloud = hop(&t.topo, t.clients[0], t.ovs, &mut rng) + hop(&t.topo, t.ovs, t.cloud, &mut rng);
        assert!(to_cloud > to_edge * 10, "edge {to_edge} vs cloud {to_cloud}");
        assert!(to_edge < Duration::from_millis(1));
    }

    #[test]
    fn client_addressing() {
        let t = C3Topology::build_with_far_edge(3, false);
        assert_eq!(t.client_ip(0), Ipv4Addr::new(192, 168, 1, 20));
        assert_eq!(t.client_ip(2), Ipv4Addr::new(192, 168, 1, 22));
        // Ports are distinct per client.
        let mut ports = t.client_ports.clone();
        ports.dedup();
        assert_eq!(ports.len(), 3);
    }

    /// Regression: the full admitted range of 250 clients allocates distinct
    /// addresses without octet overflow (`i = 236..250` used to wrap).
    #[test]
    fn client_addressing_does_not_overflow_at_250() {
        let t = C3Topology::build_with_far_edge(250, false);
        let mut ips: Vec<Ipv4Addr> = (0..250).map(|i| t.client_ip(i)).collect();
        // The historical scheme is preserved for the first 236 clients...
        assert_eq!(ips[235], Ipv4Addr::new(192, 168, 1, 255));
        // ...and the /16 absorbs the rest on the next third octet.
        assert_eq!(ips[236], Ipv4Addr::new(192, 168, 2, 20));
        assert_eq!(ips[249], Ipv4Addr::new(192, 168, 2, 33));
        ips.sort_unstable();
        ips.dedup();
        assert_eq!(ips.len(), 250, "all client addresses distinct");
    }

    /// Regression: the shared pool used to alias clients past one `/16`
    /// (65,536+ clients collided). The extended allocator and the
    /// ingress-prefixed fleet allocator stay collision-free past that mark,
    /// against each other and against infrastructure addressing.
    #[test]
    fn allocators_are_collision_free_past_a_slash_sixteen() {
        let n = 70_000;
        let mut ips: Vec<Ipv4Addr> = (0..n).map(client_ip_for).collect();
        // Legacy prefix byte-identical.
        assert_eq!(ips[0], Ipv4Addr::new(192, 168, 1, 20));
        assert_eq!(ips[235], Ipv4Addr::new(192, 168, 1, 255));
        assert_eq!(ips[236], Ipv4Addr::new(192, 168, 2, 20));
        // Fleet blocks for two ingresses, 40k clients each.
        for ing in 0..2 {
            ips.extend((0..40_000).map(|i| fleet_client_ip(ing, i)));
        }
        // Infrastructure addresses must never be allocated to a client:
        // zone gNB/instance (10.0.(g+1).{1,10}), far edge, OVS, EGS, cloud.
        for g in 0..32u8 {
            ips.push(Ipv4Addr::new(10, 0, g + 1, 1));
            ips.push(Ipv4Addr::new(10, 0, g + 1, 10));
        }
        ips.push(Ipv4Addr::new(10, 8, 0, 10));
        ips.push(Ipv4Addr::new(10, 0, 0, 1));
        ips.push(Ipv4Addr::new(10, 0, 0, 10));
        ips.push(Ipv4Addr::new(198, 51, 100, 1));
        let total = ips.len();
        ips.sort_unstable();
        ips.dedup();
        assert_eq!(ips.len(), total, "no collisions anywhere in the fleet");
    }

    #[test]
    fn multi_gnb_shape() {
        let t = MultiGnbTopology::build(3, 6);
        assert_eq!(t.gnbs.len(), 3);
        assert_eq!(t.zones.len(), 3);
        assert_eq!(t.clients.len(), 6);
        for g in 0..3 {
            // clients + 3 zones + cloud per gNB.
            assert_eq!(t.gnb_ports(g).len(), 6 + 3 + 1);
        }
        assert_eq!(t.client_ip(0), Ipv4Addr::new(192, 168, 1, 20));
    }

    /// A gNB's own zone is closest, a neighbour zone farther, the cloud
    /// farthest — the gradient the handover policies trade off.
    #[test]
    fn multi_gnb_latency_gradient() {
        let t = MultiGnbTopology::build(2, 1);
        let mut rng = SimRng::new(1);
        // Each is one direct link from the gNB.
        let mut from_gnb = |to| hop(&t.topo, t.gnbs[0], to, &mut rng);
        let (own, other, cloud) = (from_gnb(t.zones[0]), from_gnb(t.zones[1]), from_gnb(t.cloud));
        assert!(own < other, "own zone closest: {own} vs {other}");
        assert!(other < cloud, "neighbour zone beats cloud: {other} vs {cloud}");
    }
}
