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
use netsim::addr::{Ipv4Addr, MacAddr};
use netsim::{ServiceAddr, TcpFrame};
use openflow::actions::{Action, Instruction};
use openflow::messages::{FlowModCommand, Message, OFPFF_SEND_FLOW_REM};
use openflow::oxm::{service_fields, Match, OxmField};
use openflow::OFP_NO_BUFFER;

/// One flow as the controller believes it exists on a switch — enough
/// detail to re-install it verbatim during reconciliation.
#[derive(Clone, Debug)]
pub(crate) struct InstalledFlow {
    pub(crate) match_: Match,
    pub(crate) instructions: Vec<Instruction>,
    pub(crate) priority: u16,
    pub(crate) cookie: u64,
    pub(crate) flags: u16,
}

/// A forward/reverse flow pair the controller installed for one session,
/// with enough context for the self-healing loop: which service/cluster/
/// instance it redirects to (repair tears down exactly the pairs aimed at a
/// dead instance) and whether a handover retires it.
///
/// A pair lives exactly as long as its forward flow: it is filed when its
/// Adds go out and leaves the bookkeeping when that flow leaves the switch —
/// its `FLOW_REMOVED`, or the Delete of a repair, outage, reconcile,
/// migration flip or handover.
#[derive(Clone, Debug)]
pub(crate) struct InstalledPair {
    pub(crate) fwd: InstalledFlow,
    pub(crate) rev: InstalledFlow,
    pub(crate) service: ServiceAddr,
    /// Cluster the pair redirects into; `None` for cloud-forwarding pairs.
    pub(crate) cluster: Option<usize>,
    /// Instance the forward flow rewrites toward; `None` for cloud pairs.
    pub(crate) instance: Option<InstanceAddr>,
    /// Whether an attachment-change handover tears this pair down. Redirect
    /// and handover pairs are; plain packet-in cloud paths never were (they
    /// just idle out), and reconciliation must not change that.
    pub(crate) teardown_on_handover: bool,
}

impl InstalledPair {
    /// The forward rewrite (what a packet-out applies to the packet that
    /// triggered the install).
    pub(crate) fn fwd_actions(&self) -> Vec<Action> {
        self.fwd
            .instructions
            .iter()
            .flat_map(|i| i.actions())
            .cloned()
            .collect()
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
#[derive(Clone, Debug)]
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
    pub(crate) fwd_actions: Vec<Action>,
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
        let service_and = |f| Match::of(service_fields(svc_ip, svc_port).into_iter().chain([f]));
        match self.granularity {
            Granularity::Connection => Match::connection(client, self.src_port, svc_ip, svc_port),
            Granularity::ClientService => service_and(OxmField::Ipv4Src(client)),
            // Pinned to the shared client-side port: the reverse flow sends
            // every reply out of it, so a client behind another port must
            // miss the table and reach the controller's divergent check.
            Granularity::Service => service_and(OxmField::InPort(self.in_port)),
        }
    }

    /// Builds the pair toward `target` (see the module table).
    pub(crate) fn build(&self, target: Target, base_priority: u16) -> InstalledPair {
        let client = self.client.octets();
        let (svc_ip, svc_port) = (self.service.ip.octets(), self.service.port);
        // Replies come from the instance when redirected, from the service
        // address itself when the cloud answers.
        let (from_ip, from_port) = match target {
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
        let fwd_match = self.fwd_match();
        let (rev_match, step) = match self.granularity {
            Granularity::Connection => (
                Match::connection(from_ip, from_port, client, self.src_port),
                0,
            ),
            Granularity::ClientService => (from_source(Some(OxmField::Ipv4Dst(client))), 1),
            Granularity::Service => (from_source(None), 2),
        };
        let (fwd_actions, rev_actions) = match target {
            Target::Instance {
                instance, out_port, ..
            } => {
                // Replies must look like they come from the cloud service.
                let mut rev = Vec::with_capacity(5);
                rev.push(Action::SetField(OxmField::EthSrc(self.gw_mac.octets())));
                if self.granularity != Granularity::Service {
                    rev.push(Action::SetField(OxmField::EthDst(self.client_mac.octets())));
                }
                rev.push(Action::SetField(OxmField::Ipv4Src(svc_ip)));
                rev.push(Action::SetField(OxmField::TcpSrc(svc_port)));
                rev.push(Action::output(self.in_port));
                let fwd = vec![
                    Action::SetField(OxmField::EthDst(instance.mac.octets())),
                    Action::SetField(OxmField::Ipv4Dst(instance.ip.octets())),
                    Action::SetField(OxmField::TcpDst(instance.port)),
                    Action::output(out_port),
                ];
                (fwd, rev)
            }
            Target::Cloud { out_port } => (
                vec![Action::output(out_port)],
                vec![Action::output(self.in_port)],
            ),
        };
        let priority = base_priority.saturating_sub(step);
        let (cluster, instance) = match target {
            Target::Instance {
                instance, cluster, ..
            } => (Some(cluster), Some(instance)),
            Target::Cloud { .. } => (None, None),
        };
        InstalledPair {
            fwd: InstalledFlow {
                match_: fwd_match,
                instructions: vec![Instruction::ApplyActions(fwd_actions)],
                priority,
                cookie: 1,
                flags: OFPFF_SEND_FLOW_REM,
            },
            rev: InstalledFlow {
                match_: rev_match,
                instructions: vec![Instruction::ApplyActions(rev_actions)],
                priority,
                cookie: 2,
                flags: 0,
            },
            service: self.service,
            cluster,
            instance,
            // Packet-in cloud paths and aggregates outlive a handover: the
            // former just idle out, the latter belong to no one client.
            teardown_on_handover: !matches!(
                (self.granularity, target),
                (Granularity::Connection, Target::Cloud { .. }) | (Granularity::Service, _)
            ),
        }
    }
}

/// Encodes the `FLOW_MOD` Add that installs `flow` — the only Add the
/// controller ever sends. `Message::encode` only borrows, so the flow lends
/// its match and instructions to the message and takes them back: a pair is
/// built once and never cloned on its way to the wire.
pub(crate) fn flow_add(
    flow: &mut InstalledFlow,
    idle_timeout: u16,
    buffer_id: u32,
    xid: u32,
) -> Vec<u8> {
    let msg = Message::FlowMod {
        cookie: flow.cookie,
        table_id: 0,
        command: FlowModCommand::Add,
        idle_timeout,
        hard_timeout: 0,
        priority: flow.priority,
        buffer_id,
        flags: flow.flags,
        match_: std::mem::take(&mut flow.match_),
        instructions: std::mem::take(&mut flow.instructions),
    };
    let data = msg.encode(xid);
    if let Message::FlowMod {
        match_,
        instructions,
        ..
    } = msg
    {
        flow.match_ = match_;
        flow.instructions = instructions;
    }
    data
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
        hard_timeout: 0,
        priority: 0,
        buffer_id: OFP_NO_BUFFER,
        flags: 0,
        match_,
        instructions: vec![],
    }
}

/// The `PACKET_OUT` that sends the packet behind a packet-in through
/// `actions`: the switch's buffered copy when it kept one, otherwise the
/// frame itself, carried back. `None` when the carried frame plus the action
/// list is more than one OpenFlow message can hold ([`Message::MAX_LEN`]; a
/// `PACKET_OUT` has more overhead than the `PACKET_IN` the frame came in).
pub(crate) fn packet_out(buffer_id: u32, actions: Vec<Action>, frame: &TcpFrame) -> Option<Message> {
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
        actions: vec![],
        data: vec![],
    })
}
