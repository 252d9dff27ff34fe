//! The rule builder: every forward/reverse flow pair the controller puts on
//! a switch, and the OpenFlow messages that carry them.
//!
//! A pair is the product of two independent choices:
//!
//! | granularity      | forward match                 | reverse match                  | priority | filed under |
//! |------------------|-------------------------------|--------------------------------|----------|-------------|
//! | `Connection`     | client ip+port → service      | source ip+port → client ip+port | base     | the client  |
//! | `ClientService`  | client ip → service           | source ip+port → client ip      | base − 1 | the client  |
//! | `Service`        | anyone on the in-port → service | source ip+port → anyone       | base − 2 | [`AGGREGATE_CLIENT`] |
//!
//! | target     | forward actions                                   | reverse actions                                      | reverse source |
//! |------------|---------------------------------------------------|------------------------------------------------------|----------------|
//! | `Instance` | rewrite MAC/IP/port to the instance, out its port | re-source from gateway MAC + service address, out the client port | the instance |
//! | `Cloud`    | out the cloud uplink, untouched                   | out the client port, untouched                       | the service    |
//!
//! The `Service` reverse flow leaves `eth_dst` alone: its forward flow kept
//! each client's source MAC intact, so the instance's replies already carry
//! the right one — which is why one reverse rule serves every client.
//!
//! Forward flows carry cookie 1 and ask for `FLOW_REMOVED`; reverse flows
//! carry cookie 2.

use crate::cluster::InstanceAddr;
use crate::controller::FLOW_PRIORITY;
use desim::Duration;
use netsim::addr::{Ipv4Addr, MacAddr};
use netsim::{ServiceAddr, TcpFrame};
use openflow::actions::{Action, Actions};
use openflow::messages::{FlowModCommand, Message, OFPFF_SEND_FLOW_REM};
use openflow::oxm::{Match, OxmField};
use openflow::OFP_NO_BUFFER;
use std::fmt;

/// One flow as the controller believes it exists on a switch — enough
/// detail to re-install it verbatim during reconciliation. `Copy`, like the
/// match and the action list it holds: a flow owns no heap.
#[derive(Clone, Copy, Debug)]
pub(crate) struct InstalledFlow {
    pub(crate) match_: Match,
    pub(crate) actions: Actions,
    pub(crate) priority: u16,
    pub(crate) cookie: u64,
    pub(crate) flags: u16,
}

/// A forward/reverse flow pair the controller installed for one session,
/// filed as what it was built from: the client side and the target. Both
/// flows are a pure function of the two, so the pair stores neither and
/// [`InstalledPair::flows`] rebuilds them on the stack where a caller needs
/// them — the install, a teardown's Deletes, reconciliation. The rest of the
/// context the self-healing loop reads (which service/cluster/instance it
/// redirects to, whether a handover retires it) is derived the same way.
///
/// A pair lives exactly as long as its forward flow: it is filed when its
/// Adds go out and leaves the bookkeeping when that flow leaves the switch —
/// its `FLOW_REMOVED`, or the Delete of a repair, outage, reconcile,
/// migration flip or handover.
#[derive(Clone, Copy)]
pub(crate) struct InstalledPair {
    pub(crate) spec: PairSpec,
    pub(crate) target: Target,
}

// A filed pair costs its key, not two copies of the switch's flows.
const _: () = assert!(std::mem::size_of::<InstalledPair>() <= 64);

impl InstalledPair {
    /// The service the client believes it talks to.
    pub(crate) fn service(&self) -> ServiceAddr {
        self.spec.service
    }

    /// Cluster the pair redirects into; `None` for cloud-forwarding pairs.
    pub(crate) fn cluster(&self) -> Option<usize> {
        match self.target {
            Target::Instance { cluster, .. } => Some(cluster),
            Target::Cloud { .. } => None,
        }
    }

    /// Instance the forward flow rewrites toward; `None` for cloud pairs.
    pub(crate) fn instance(&self) -> Option<InstanceAddr> {
        match self.target {
            Target::Instance { instance, .. } => Some(instance),
            Target::Cloud { .. } => None,
        }
    }

    /// Whether an attachment-change handover tears this pair down. Redirect
    /// and handover pairs are; packet-in cloud paths just idle out and
    /// aggregates belong to no one client, and reconciliation must not
    /// change that.
    pub(crate) fn teardown_on_handover(&self) -> bool {
        !matches!(
            (self.spec.granularity, self.target),
            (Granularity::Connection, Target::Cloud { .. }) | (Granularity::Service, _)
        )
    }

    /// The forward match, without building the rest of the pair.
    pub(crate) fn fwd_match(&self) -> Match {
        self.spec.fwd_match()
    }

    /// The priority both flows carry: [`FLOW_PRIORITY`], one step lower per
    /// client field the matches leave out.
    pub(crate) fn priority(&self) -> u16 {
        let step = match self.spec.granularity {
            Granularity::Connection => 0,
            Granularity::ClientService => 1,
            Granularity::Service => 2,
        };
        FLOW_PRIORITY.saturating_sub(step)
    }

    /// Builds the `(forward, reverse)` flows (see the module table) — the
    /// one rule builder.
    pub(crate) fn flows(&self) -> (InstalledFlow, InstalledFlow) {
        let spec = &self.spec;
        let client = spec.client.octets();
        let (svc_ip, svc_port) = (spec.service.ip.octets(), spec.service.port);
        // Replies come from the instance when redirected, from the service
        // address itself when the cloud answers.
        let (from_ip, from_port) = match self.target {
            Target::Instance { instance, .. } => (instance.ip.octets(), instance.port),
            Target::Cloud { .. } => (svc_ip, svc_port),
        };
        let from_source = |dst: Option<OxmField>| {
            let source = [
                OxmField::EthType(0x0800),
                OxmField::IpProto(6),
                OxmField::Ipv4Src(from_ip),
                OxmField::TcpSrc(from_port),
            ];
            Match::of(source.into_iter().chain(dst))
        };
        let rev_match = match spec.granularity {
            Granularity::Connection => Match::connection(from_ip, from_port, client, spec.src_port),
            Granularity::ClientService => from_source(Some(OxmField::Ipv4Dst(client))),
            Granularity::Service => from_source(None),
        };
        let (fwd_actions, rev_actions) = match self.target {
            Target::Instance {
                instance, out_port, ..
            } => {
                // Replies must look like they come from the cloud service.
                let mut rev = Actions::new();
                rev.push(Action::SetField(OxmField::EthSrc(spec.gw_mac.octets())));
                if spec.granularity != Granularity::Service {
                    rev.push(Action::SetField(OxmField::EthDst(spec.client_mac.octets())));
                }
                rev.push(Action::SetField(OxmField::Ipv4Src(svc_ip)));
                rev.push(Action::SetField(OxmField::TcpSrc(svc_port)));
                rev.push(Action::output(spec.in_port));
                let fwd = Actions::from([
                    Action::SetField(OxmField::EthDst(instance.mac.octets())),
                    Action::SetField(OxmField::Ipv4Dst(instance.ip.octets())),
                    Action::SetField(OxmField::TcpDst(instance.port)),
                    Action::output(out_port),
                ]);
                (fwd, rev)
            }
            Target::Cloud { out_port } => (
                Actions::from([Action::output(out_port)]),
                Actions::from([Action::output(spec.in_port)]),
            ),
        };
        let priority = self.priority();
        let fwd = InstalledFlow {
            match_: spec.fwd_match(),
            actions: fwd_actions,
            priority,
            cookie: 1,
            flags: OFPFF_SEND_FLOW_REM,
        };
        let rev = InstalledFlow {
            match_: rev_match,
            actions: rev_actions,
            priority,
            cookie: 2,
            flags: 0,
        };
        (fwd, rev)
    }
}

/// The built pair, field for field: the text a filed pair printed while it
/// held its two flows, so [`crate::journal::Snapshot::encode`] — and every
/// digest pinned over it — reads the same as then.
impl fmt::Debug for InstalledPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (fwd, rev) = self.flows();
        f.debug_struct("InstalledPair")
            .field("fwd", &fwd)
            .field("rev", &rev)
            .field("service", &self.service())
            .field("cluster", &self.cluster())
            .field("instance", &self.instance())
            .field("teardown_on_handover", &self.teardown_on_handover())
            .finish()
    }
}

/// Bookkeeping client address for aggregated wildcard pairs: they belong to
/// no single client, so they are filed under the unspecified address. It
/// sorts before every real client, and no real client can carry it (the
/// allocators start at 10.x/192.168.x), so repair and outage sweeps visit
/// aggregates first and exactly once.
pub(crate) const AGGREGATE_CLIENT: Ipv4Addr = Ipv4Addr::UNSPECIFIED;

/// One live aggregated rule pair, keyed by `(ingress, service)`. A
/// packet-in whose scheduler decision matches the anchored instance (and
/// arrives through the same client-side port, behind the same perceived
/// gateway) is *covered*: the controller releases the packet with a bare
/// `PACKET_OUT` and installs nothing.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AggregateRule {
    pub(crate) instance: InstanceAddr,
    pub(crate) cluster: usize,
    /// Shared client-side port replies are emitted through.
    pub(crate) in_port: u32,
    /// The gateway MAC clients perceive (the `eth_dst` of their requests);
    /// replies are re-sourced from it.
    pub(crate) gw_mac: MacAddr,
    /// The forward rewrite, cached so a covered packet-in releases its
    /// buffered packet without rebuilding the action list.
    pub(crate) fwd_actions: Actions,
}

/// How much of the client side a pair's matches pin down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Granularity {
    /// One TCP connection — what a packet-in installs.
    Connection,
    /// Every connection of one client to the service — what handovers and
    /// migration flips install (no packet to read an ephemeral port from).
    ClientService,
    /// Every client of the service behind one port and gateway — the
    /// aggregated rule.
    Service,
}

/// Where a pair sends the client's traffic, with the egress port resolved.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Target {
    /// Redirect to an edge instance through `out_port`.
    Instance {
        instance: InstanceAddr,
        cluster: usize,
        out_port: u32,
    },
    /// Forward untouched through the cloud uplink `out_port`.
    Cloud { out_port: u32 },
}

/// The client side of a pair.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PairSpec {
    pub(crate) granularity: Granularity,
    pub(crate) client: Ipv4Addr,
    /// The connection's ephemeral port (`Connection` granularity only).
    pub(crate) src_port: u16,
    pub(crate) client_mac: MacAddr,
    /// The gateway MAC the client perceives; replies are re-sourced from it.
    pub(crate) gw_mac: MacAddr,
    /// The client-side switch port replies leave through.
    pub(crate) in_port: u32,
    /// The address the client believes it talks to.
    pub(crate) service: ServiceAddr,
}

impl PairSpec {
    /// The exact-connection spec of the packet that missed the table.
    pub(crate) fn of_frame(frame: &TcpFrame, in_port: u32) -> PairSpec {
        PairSpec {
            granularity: Granularity::Connection,
            client: frame.src_ip,
            src_port: frame.src_port,
            client_mac: frame.src_mac,
            gw_mac: frame.dst_mac,
            in_port,
            service: frame.dst_service(),
        }
    }

    /// The client the pair is filed under in the bookkeeping.
    pub(crate) fn filed_under(&self) -> Ipv4Addr {
        match self.granularity {
            Granularity::Service => AGGREGATE_CLIENT,
            _ => self.client,
        }
    }

    /// The forward match: the same whatever the target, so an Add for this
    /// spec replaces in place any flow an earlier one installed.
    pub(crate) fn fwd_match(&self) -> Match {
        let client = self.client.octets();
        let (svc_ip, svc_port) = (self.service.ip.octets(), self.service.port);
        let service_and = |f| Match::service(svc_ip, svc_port).with(f);
        match self.granularity {
            Granularity::Connection => Match::connection(client, self.src_port, svc_ip, svc_port),
            Granularity::ClientService => service_and(OxmField::Ipv4Src(client)),
            // Pinned to the shared client-side port: the reverse flow sends
            // every reply out of it, so a client behind another port must
            // miss the table and reach the controller's divergent check.
            Granularity::Service => service_and(OxmField::InPort(self.in_port)),
        }
    }
}

/// The `FLOW_MOD` Add that installs `flow` under switch idle timeout `idle`
/// — the only Add the controller ever sends.
pub(crate) fn flow_add(flow: &InstalledFlow, idle: Duration, buffer_id: u32) -> Message {
    Message::FlowMod {
        cookie: flow.cookie,
        table_id: 0,
        command: FlowModCommand::Add,
        idle_timeout: openflow::timeout_secs(idle),
        priority: flow.priority,
        buffer_id,
        flags: flow.flags,
        match_: flow.match_,
        actions: flow.actions,
    }
}

/// The `FLOW_MOD` Delete of everything matching `match_` exactly
/// (switch-side deletion spans every priority) — the only Delete the
/// controller ever sends.
pub(crate) fn flow_delete(match_: Match) -> Message {
    Message::FlowMod {
        cookie: 0,
        table_id: 0,
        command: FlowModCommand::Delete,
        idle_timeout: 0,
        priority: 0,
        buffer_id: OFP_NO_BUFFER,
        flags: 0,
        match_,
        actions: Actions::new(),
    }
}

/// The `PACKET_OUT` that sends the packet behind a packet-in through
/// `actions`: the switch's buffered copy when it kept one, otherwise the
/// frame itself, carried back. `None` when the carried frame plus the action
/// list is more than one OpenFlow message can hold ([`Message::MAX_LEN`]; a
/// `PACKET_OUT` has more overhead than the `PACKET_IN` the frame came in).
pub(crate) fn packet_out(buffer_id: u32, actions: Actions, frame: &TcpFrame) -> Option<Message> {
    let data = if buffer_id == OFP_NO_BUFFER {
        frame.encode()
    } else {
        Vec::new()
    };
    let msg = Message::PacketOut {
        buffer_id,
        in_port: 0,
        actions,
        data,
    };
    (msg.encoded_len() <= Message::MAX_LEN).then_some(msg)
}

/// The `PACKET_OUT` that frees switch buffer `buffer_id` without forwarding
/// what it holds — an empty action list drops the packet — or `None` when
/// the packet came up unbuffered and there is nothing to free.
pub(crate) fn drop_buffered(buffer_id: u32) -> Option<Message> {
    (buffer_id != OFP_NO_BUFFER).then(|| Message::PacketOut {
        buffer_id,
        in_port: 0,
        actions: Actions::new(),
        data: Vec::new(),
    })
}

/// Small pools of specs and targets for the properties over filed pairs:
/// few enough values that keys collide.
#[cfg(test)]
pub(crate) mod pool {
    use super::*;

    pub(crate) const GRANULARITIES: [Granularity; 3] =
        [Granularity::Connection, Granularity::ClientService, Granularity::Service];

    /// Client `client` (192.168.1.`client`).
    pub(crate) fn client_ip(client: u8) -> Ipv4Addr {
        Ipv4Addr::new(192, 168, 1, client)
    }

    /// `client`'s spec of granularity `GRANULARITIES[g]` from ephemeral port
    /// `src_port` behind switch port `in_port`. Two clients' `Service` specs
    /// share their forward match: it carries no client.
    pub(crate) fn spec(client: u8, (g, src_port, in_port): (usize, u16, u32)) -> PairSpec {
        PairSpec {
            granularity: GRANULARITIES[g],
            client: client_ip(client),
            src_port,
            client_mac: MacAddr([2, 0, 0, 0, 1, client]),
            gw_mac: MacAddr([2, 0, 0, 0, 0, 1]),
            in_port,
            service: ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80),
        }
    }

    /// Targets 0 and 1 are an instance on clusters 0 and 1; any other is the
    /// cloud.
    pub(crate) fn target(t: usize) -> Target {
        let n = t as u8;
        match t {
            0 | 1 => Target::Instance {
                instance: InstanceAddr {
                    mac: MacAddr([2, 0, 0, 0, 2, n]),
                    ip: Ipv4Addr::new(10, 1, n, 5),
                    port: 30_000,
                },
                cluster: t,
                out_port: 10 + t as u32,
            },
            _ => Target::Cloud { out_port: 9 },
        }
    }
}
