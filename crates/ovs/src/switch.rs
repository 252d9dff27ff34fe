//! The switch state machine.

use desim::{Duration, FastMap, SimTime};
use netsim::{TcpHeaders, WireFrame};
use openflow::actions::Action;
use openflow::messages::{FlowModCommand, Message, PacketInReason};
use openflow::oxm::{Match, MatchView, OxmField};
use openflow::table::{entry, FlowTable, Removed};
use openflow::{OfError, OFPP_CONTROLLER, OFPP_FLOOD, OFP_NO_BUFFER};

/// Switch configuration.
#[derive(Clone, Debug)]
pub struct SwitchConfig {
    /// Datapath id reported in `FEATURES_REPLY`.
    pub datapath_id: u64,
    /// Number of packet-in buffer slots.
    pub n_buffers: u32,
    /// Bytes of the frame included in a buffered `PACKET_IN`.
    pub miss_send_len: u16,
    /// Ports attached to this switch (for FLOOD).
    pub ports: Vec<u32>,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            datapath_id: 1,
            n_buffers: 256,
            miss_send_len: 128,
            ports: Vec::new(),
        }
    }
}

/// An externally visible consequence of switch processing.
#[derive(Clone, Debug, PartialEq)]
pub enum Effect {
    /// Emit `data` out of `port`.
    Forward {
        /// Egress port.
        port: u32,
        /// Frame bytes.
        data: Vec<u8>,
    },
    /// Send an encoded OpenFlow message up the control channel.
    ToController(Vec<u8>),
    /// The frame was dropped (no matching flow action produced output).
    Drop,
}

/// The virtual OpenFlow switch.
///
/// Every frame is classified by [`FlowTable::lookup`] — one hash probe per
/// live match shape — and nothing sits in front of it: a flow-mod or an
/// expiry takes effect on the next frame with no cache to invalidate
/// (DESIGN.md "Why there is no flow cache").
///
/// # Effect sinks
///
/// The `_into` entry points append to a caller-owned `Vec<Effect>`: they
/// never clear or read what is already in it, a call that returns `Err`
/// leaves it exactly as it was, and one call's effects arrive in the order
/// they take place (a buffered packet's release after the Add that triggers
/// it; `FLOW_REMOVED`s by descending priority, then age).
pub struct Switch {
    config: SwitchConfig,
    table: FlowTable,
    buffers: FastMap<u32, (u32, Vec<u8>)>, // buffer_id -> (in_port, frame)
    next_buffer: u32,
    next_xid: u32,
    /// Recycled buffer of the removal records of expiries and deletes.
    expired: Vec<Removed>,
    /// Count of packets handled on the fast path (no controller).
    pub fast_path_packets: u64,
    /// Count of table misses sent to the controller.
    pub table_misses: u64,
    /// Never incremented (no flow cache; `e2ebench` reads it): ROADMAP item 1 (b) deletes it.
    pub microflow_hits: u64,
    /// Counts every classified frame (`e2ebench` reads it): ROADMAP item 1 (b) deletes it.
    pub microflow_misses: u64,
}

impl Switch {
    /// Creates a switch with the given configuration.
    pub fn new(config: SwitchConfig) -> Switch {
        Switch {
            config,
            table: FlowTable::new(),
            buffers: FastMap::default(),
            next_buffer: 1,
            next_xid: 1,
            expired: Vec::new(),
            fast_path_packets: 0,
            table_misses: 0,
            microflow_hits: 0,
            microflow_misses: 0,
        }
    }

    /// Read access to the flow table (stats & tests).
    pub fn table(&self) -> &FlowTable {
        &self.table
    }

    /// Number of frames currently parked in packet buffers.
    pub fn buffered(&self) -> usize {
        self.buffers.len()
    }

    /// Wraps [`Self::handle_frame_into`] on a copy of `data`: not the harness's path, and ROADMAP 1 (b) retires it.
    pub fn handle_frame(&mut self, now: SimTime, in_port: u32, data: &[u8]) -> Vec<Effect> {
        let mut out = Vec::new();
        self.handle_frame_into(now, in_port, data.to_vec(), &mut out);
        out
    }

    /// Processes a frame arriving on `in_port`, taking its buffer.
    ///
    /// The buffer is verified (EtherType, protocol, lengths, IPv4 and TCP
    /// checksums — a switch must not forward what it cannot classify),
    /// classified, rewritten in place and moved into the single
    /// [`Effect::Forward`] of the usual redirect rule, or into the packet
    /// buffer on a table miss: no copy, no re-encode and — given a sink with
    /// room — no heap call on an installed flow.
    pub fn handle_frame_into(
        &mut self,
        now: SimTime,
        in_port: u32,
        data: Vec<u8>,
        out: &mut Vec<Effect>,
    ) {
        let Ok((headers, frame)) = WireFrame::parse(data) else {
            // Non-TCP/IPv4 traffic is out of scope for the edge pipeline.
            return out.push(Effect::Drop);
        };
        let view = view_of(&headers, in_port);
        let len = frame.as_bytes().len();
        self.microflow_misses += 1;
        let Some((_cookie, instructions)) = self.table.lookup(&view, len, now) else {
            self.table_misses += 1;
            return out.push(self.packet_in(in_port, frame.into_bytes()));
        };
        self.fast_path_packets += 1;
        execute(
            &self.config.ports,
            &mut self.next_xid,
            in_port,
            frame,
            instructions.iter().flat_map(|i| i.actions()),
            out,
        )
    }

    /// Parks a missed frame in a packet buffer and reports it upstream. With
    /// no buffer free the frame travels whole in the `PACKET_IN`. Either way,
    /// a frame whose report does not fit one message is dropped.
    fn packet_in(&mut self, in_port: u32, data: Vec<u8>) -> Effect {
        let total_len = data.len();
        let (buffer_id, included) = if (self.buffers.len() as u32) < self.config.n_buffers {
            let id = self.next_buffer;
            self.next_buffer = self.next_buffer.wrapping_add(1).max(1);
            let n = (self.config.miss_send_len as usize).min(data.len());
            let included = data[..n].to_vec();
            self.buffers.insert(id, (in_port, data));
            (id, included)
        } else {
            // No buffer space: ship the whole frame.
            (OFP_NO_BUFFER, data)
        };
        let msg = packet_in_msg(buffer_id, total_len, PacketInReason::NoMatch, in_port, included);
        let effect = to_controller(&msg, &mut self.next_xid);
        if matches!(effect, Effect::Drop) {
            // Nobody upstream will ever name the slot: free it again.
            self.buffers.remove(&buffer_id);
        }
        effect
    }

    /// Wraps [`Self::handle_controller_into`]: not the harness's path, and ROADMAP 1 (b) retires it.
    pub fn handle_controller(&mut self, now: SimTime, bytes: &[u8]) -> Result<Vec<Effect>, OfError> {
        let mut out = Vec::new();
        self.handle_controller_into(now, bytes, &mut out)?;
        Ok(out)
    }

    /// Processes an encoded OpenFlow message from the controller, appending
    /// its effects (forwards triggered by `PACKET_OUT` / buffered `FLOW_MOD`
    /// packets, and control-channel replies) to `effects`.
    pub fn handle_controller_into(
        &mut self,
        now: SimTime,
        bytes: &[u8],
        effects: &mut Vec<Effect>,
    ) -> Result<(), OfError> {
        let (xid, msg, _) = Message::decode(bytes)?;
        match msg {
            Message::Hello => {
                effects.push(Effect::ToController(Message::Hello.encode(xid)));
            }
            Message::EchoRequest(payload) => {
                effects.push(Effect::ToController(Message::EchoReply(payload).encode(xid)));
            }
            Message::FeaturesRequest => {
                effects.push(Effect::ToController(
                    Message::FeaturesReply {
                        datapath_id: self.config.datapath_id,
                        n_buffers: self.config.n_buffers,
                        n_tables: 1,
                    }
                    .encode(xid),
                ));
            }
            Message::BarrierRequest => {
                effects.push(Effect::ToController(Message::BarrierReply.encode(xid)));
            }
            Message::FlowMod {
                cookie,
                command,
                idle_timeout,
                hard_timeout,
                priority,
                buffer_id,
                flags,
                match_,
                instructions,
                ..
            } => match command {
                FlowModCommand::Add => {
                    self.table.add(
                        entry(
                            match_,
                            priority,
                            cookie,
                            instructions,
                            Duration::from_secs(idle_timeout as u64),
                            Duration::from_secs(hard_timeout as u64),
                            flags,
                        ),
                        now,
                    );
                    // Run the buffered packet through the (new) table state.
                    if buffer_id != OFP_NO_BUFFER {
                        if let Some((in_port, data)) = self.buffers.remove(&buffer_id) {
                            self.handle_frame_into(now, in_port, data, effects);
                        }
                    }
                }
                FlowModCommand::Modify => {
                    self.table.modify(&match_, &instructions);
                }
                FlowModCommand::Delete => {
                    self.report_removed(effects, |t, r| t.delete_into(&match_, now, r));
                }
            },
            Message::PacketOut {
                buffer_id,
                in_port,
                actions,
                data,
            } => {
                let frame_bytes = if buffer_id != OFP_NO_BUFFER {
                    self.buffers.remove(&buffer_id).map(|(_, stored)| stored)
                } else {
                    Some(data)
                };
                match frame_bytes.map(WireFrame::parse) {
                    Some(Ok((_, frame))) => execute(
                        &self.config.ports,
                        &mut self.next_xid,
                        in_port,
                        frame,
                        actions.iter(),
                        effects,
                    ),
                    // A stale buffer id, or bytes that are no frame.
                    _ => effects.push(Effect::Drop),
                }
            }
            Message::FlowStatsRequest { table_id, match_ } => {
                use openflow::messages::FlowStatsEntry;
                let flows: Vec<FlowStatsEntry> = self
                    .table
                    .entries()
                    .filter(|_| table_id == 0xff || table_id == 0)
                    .filter(|e| match_.is_empty() || e.match_ == match_)
                    .map(|e| FlowStatsEntry {
                        table_id: 0,
                        duration_sec: ((now - e.installed_at).as_nanos() / 1_000_000_000) as u32,
                        priority: e.priority,
                        idle_timeout: openflow::timeout_secs(e.idle_timeout),
                        hard_timeout: openflow::timeout_secs(e.hard_timeout),
                        cookie: e.cookie,
                        packet_count: e.packet_count,
                        byte_count: e.byte_count,
                        match_: e.match_.clone(),
                    })
                    .collect();
                effects.push(Effect::ToController(
                    Message::FlowStatsReply { flows }.encode(xid),
                ));
            }
            // Symmetric/unsolicited messages a switch ignores.
            Message::EchoReply(_)
            | Message::FeaturesReply { .. }
            | Message::PacketIn { .. }
            | Message::FlowRemoved { .. }
            | Message::Error { .. }
            | Message::FlowStatsReply { .. }
            | Message::BarrierReply => {}
        }
        Ok(())
    }

    /// The `FLOW_REMOVED` for a removal record, if the entry asked for one;
    /// the record's match moves into the message.
    fn flow_removed_msg(&mut self, removed: Removed) -> Option<Effect> {
        if !removed.entry.wants_removed_msg() {
            return None;
        }
        let d = removed.duration();
        let msg = Message::FlowRemoved {
            cookie: removed.entry.cookie,
            priority: removed.entry.priority,
            reason: removed.reason,
            table_id: 0,
            duration_sec: (d.as_nanos() / 1_000_000_000) as u32,
            duration_nsec: (d.as_nanos() % 1_000_000_000) as u32,
            idle_timeout: openflow::timeout_secs(removed.entry.idle_timeout),
            hard_timeout: openflow::timeout_secs(removed.entry.hard_timeout),
            packet_count: removed.entry.packet_count,
            byte_count: removed.entry.byte_count,
            match_: removed.entry.match_,
        };
        Some(Effect::ToController(msg.encode(fresh_xid(&mut self.next_xid))))
    }

    /// Wraps [`Self::expire_flows_into`]: not the harness's path, and ROADMAP 1 (b) retires it.
    pub fn expire_flows(&mut self, now: SimTime) -> Vec<Effect> {
        let mut out = Vec::new();
        self.expire_flows_into(now, &mut out);
        out
    }

    /// Expires timed-out flows, appending a `FLOW_REMOVED` notification for
    /// each entry that requested one.
    pub fn expire_flows_into(&mut self, now: SimTime, out: &mut Vec<Effect>) {
        self.report_removed(out, |t, r| t.expire_into(now, r));
    }

    /// Runs `remove` on the table into the recycled `removed` buffer and
    /// appends the `FLOW_REMOVED`s of what it took out to `out`.
    fn report_removed(&mut self, out: &mut Vec<Effect>, remove: impl FnOnce(&mut FlowTable, &mut Vec<Removed>)) {
        let mut removed = std::mem::take(&mut self.expired);
        remove(&mut self.table, &mut removed);
        out.extend(removed.drain(..).filter_map(|r| self.flow_removed_msg(r)));
        self.expired = removed;
    }

    /// Earliest possible flow expiry (for scheduling expiry sweeps).
    pub fn next_expiry(&self) -> Option<SimTime> {
        self.table.next_expiry()
    }
}

fn fresh_xid(next_xid: &mut u32) -> u32 {
    let x = *next_xid;
    *next_xid = next_xid.wrapping_add(1);
    x
}

/// Ships `msg` up the control channel — or drops it when it is longer than
/// the 16-bit header length can say ([`Message::MAX_LEN`]): a message whose
/// announced length disagrees with its size would desynchronise the
/// controller's stream, so it must never be emitted. Only a `PACKET_IN`
/// carrying a near-maximal frame whole can get there.
fn to_controller(msg: &Message, next_xid: &mut u32) -> Effect {
    if msg.encoded_len() > Message::MAX_LEN {
        return Effect::Drop;
    }
    Effect::ToController(msg.encode(fresh_xid(next_xid)))
}

/// A `PACKET_IN` for a frame of `total_len` bytes, `data` of which are
/// included. OpenFlow's `total_len` is 16 bits; a longer frame (only Ethernet
/// padding can make one) reports 65 535.
fn packet_in_msg(
    buffer_id: u32,
    total_len: usize,
    reason: PacketInReason,
    in_port: u32,
    data: Vec<u8>,
) -> Message {
    Message::PacketIn {
        buffer_id,
        total_len: u16::try_from(total_len).unwrap_or(u16::MAX),
        reason,
        table_id: 0,
        cookie: 0,
        match_: Match::any().with(OxmField::InPort(in_port)),
        data,
    }
}

/// Runs an action list over a verified frame and appends what it does to
/// `effects` — the one executor behind table hits and `PACKET_OUT`.
/// `SET_FIELD`s patch the buffer in place; the last `OUTPUT` of the list,
/// when it names a plain port, moves the buffer into its effect, every other
/// output copies what the frame looks like at that point. A free function so
/// the actions can stay borrowed from the flow table while the xid advances.
fn execute<'a>(
    ports: &[u32],
    next_xid: &mut u32,
    in_port: u32,
    mut frame: WireFrame,
    actions: impl Iterator<Item = &'a Action> + Clone,
    effects: &mut Vec<Effect>,
) {
    let is_output = |a: &&Action| matches!(a, Action::Output { .. });
    let mut outputs_left = actions.clone().filter(is_output).count();
    let at_entry = effects.len();
    for action in actions {
        match *action {
            Action::SetField(f) => apply_set_field(&mut frame, f),
            Action::Output { port, max_len } => {
                outputs_left -= 1;
                match port {
                    OFPP_CONTROLLER => {
                        let data = frame.as_bytes();
                        let n = (max_len as usize).min(data.len());
                        let msg = packet_in_msg(
                            OFP_NO_BUFFER,
                            data.len(),
                            PacketInReason::Action,
                            in_port,
                            data[..n].to_vec(),
                        );
                        effects.push(to_controller(&msg, next_xid));
                    }
                    OFPP_FLOOD => {
                        effects.extend(ports.iter().filter(|&&p| p != in_port).map(|&p| {
                            Effect::Forward {
                                port: p,
                                data: frame.as_bytes().to_vec(),
                            }
                        }));
                    }
                    port if outputs_left == 0 => {
                        // Nothing after this can be observed: hand the
                        // buffer over instead of copying it.
                        return effects.push(Effect::Forward {
                            port,
                            data: frame.into_bytes(),
                        });
                    }
                    port => effects.push(Effect::Forward {
                        port,
                        data: frame.as_bytes().to_vec(),
                    }),
                }
            }
        }
    }
    if effects.len() == at_entry {
        effects.push(Effect::Drop);
    }
}

/// Builds the match view of a parsed frame.
pub fn view_of(frame: &TcpHeaders, in_port: u32) -> MatchView {
    MatchView {
        in_port,
        eth_dst: frame.dst_mac.octets(),
        eth_src: frame.src_mac.octets(),
        eth_type: 0x0800,
        ip_proto: 6,
        ipv4_src: frame.src_ip.octets(),
        ipv4_dst: frame.dst_ip.octets(),
        tcp_src: frame.src_port,
        tcp_dst: frame.dst_port,
    }
}

/// Applies a single `SET_FIELD` rewrite to a frame.
fn apply_set_field(frame: &mut WireFrame, field: OxmField) {
    use netsim::addr::{Ipv4Addr, MacAddr};
    match field {
        OxmField::EthDst(m) => frame.set_eth_dst(MacAddr(m)),
        OxmField::EthSrc(m) => frame.set_eth_src(MacAddr(m)),
        OxmField::Ipv4Dst(a) => frame.set_ipv4_dst(Ipv4Addr(a)),
        OxmField::Ipv4Src(a) => frame.set_ipv4_src(Ipv4Addr(a)),
        OxmField::TcpDst(p) => frame.set_tcp_dst(p),
        OxmField::TcpSrc(p) => frame.set_tcp_src(p),
        // EthType / IpProto / InPort rewrites are not meaningful here.
        OxmField::EthType(_) | OxmField::IpProto(_) | OxmField::InPort(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::addr::{Ipv4Addr, MacAddr, ServiceAddr};
    use netsim::TcpFrame;
    use openflow::actions::Instruction;
    use openflow::messages::RemovedReason;
    use openflow::messages::OFPFF_SEND_FLOW_REM;

    fn client_frame() -> TcpFrame {
        TcpFrame::syn(
            MacAddr::from_id(1),
            MacAddr::from_id(100),
            Ipv4Addr::new(192, 168, 1, 20),
            50000,
            ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80),
        )
    }

    fn sw() -> Switch {
        Switch::new(SwitchConfig {
            datapath_id: 0xabc,
            n_buffers: 4,
            miss_send_len: 64,
            ports: vec![1, 2, 3],
        })
    }

    fn decode_controller(e: &Effect) -> Message {
        match e {
            Effect::ToController(bytes) => Message::decode(bytes).unwrap().1,
            other => panic!("expected ToController, got {other:?}"),
        }
    }

    #[test]
    fn miss_buffers_and_sends_packet_in() {
        let mut s = sw();
        let data = client_frame().encode();
        let effects = s.handle_frame(SimTime::ZERO, 1, &data);
        assert_eq!(effects.len(), 1);
        match decode_controller(&effects[0]) {
            Message::PacketIn {
                buffer_id,
                total_len,
                reason,
                data: included,
                match_,
                ..
            } => {
                assert_ne!(buffer_id, OFP_NO_BUFFER);
                assert_eq!(total_len as usize, data.len());
                assert_eq!(reason, PacketInReason::NoMatch);
                assert_eq!(included.len(), 54); // SYN frame is 54 B < miss_send_len
                assert_eq!(match_.fields(), &[OxmField::InPort(1)]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.buffered(), 1);
        assert_eq!(s.table_misses, 1);
    }

    #[test]
    fn flow_mod_with_buffer_releases_packet() {
        let mut s = sw();
        let data = client_frame().encode();
        let effects = s.handle_frame(SimTime::ZERO, 1, &data);
        let buffer_id = match decode_controller(&effects[0]) {
            Message::PacketIn { buffer_id, .. } => buffer_id,
            other => panic!("unexpected {other:?}"),
        };
        // Install the transparent redirect: rewrite dst to the edge instance
        // and output on port 3, releasing the buffered packet.
        let fm = Message::FlowMod {
            cookie: 7,
            table_id: 0,
            command: FlowModCommand::Add,
            idle_timeout: 10,
            hard_timeout: 0,
            priority: 100,
            buffer_id,
            flags: 0,
            match_: Match::connection([192, 168, 1, 20], 50000, [203, 0, 113, 10], 80),
            instructions: vec![Instruction::ApplyActions(vec![
                Action::SetField(OxmField::EthDst(MacAddr::from_id(200).octets())),
                Action::SetField(OxmField::Ipv4Dst([10, 0, 0, 5])),
                Action::SetField(OxmField::TcpDst(31080)),
                Action::output(3),
            ])],
        };
        let effects = s.handle_controller(SimTime::ZERO, &fm.encode(1)).unwrap();
        assert_eq!(effects.len(), 1);
        match &effects[0] {
            Effect::Forward { port, data } => {
                assert_eq!(*port, 3);
                let f = TcpFrame::decode(data).unwrap();
                assert_eq!(f.dst_ip, Ipv4Addr::new(10, 0, 0, 5));
                assert_eq!(f.dst_port, 31080);
                assert_eq!(f.dst_mac, MacAddr::from_id(200));
                // Source untouched: the client address survives.
                assert_eq!(f.src_ip, Ipv4Addr::new(192, 168, 1, 20));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.buffered(), 0);
        // Subsequent identical packets take the fast path.
        let effects = s.handle_frame(SimTime::ZERO, 1, &data);
        assert!(matches!(effects[0], Effect::Forward { port: 3, .. }));
        assert_eq!(s.fast_path_packets, 2); // buffered replay + this one
        assert_eq!(s.table_misses, 1);
    }

    #[test]
    fn packet_out_inline_applies_actions() {
        let mut s = sw();
        let f = client_frame();
        let po = Message::PacketOut {
            buffer_id: OFP_NO_BUFFER,
            in_port: 1,
            actions: vec![Action::output(2)],
            data: f.encode(),
        };
        let effects = s.handle_controller(SimTime::ZERO, &po.encode(5)).unwrap();
        assert_eq!(
            effects,
            vec![Effect::Forward {
                port: 2,
                data: f.encode()
            }]
        );
    }

    #[test]
    fn packet_out_with_stale_buffer_drops() {
        let mut s = sw();
        let po = Message::PacketOut {
            buffer_id: 999,
            in_port: 1,
            actions: vec![Action::output(2)],
            data: vec![],
        };
        let effects = s.handle_controller(SimTime::ZERO, &po.encode(5)).unwrap();
        assert_eq!(effects, vec![Effect::Drop]);
    }

    #[test]
    fn hello_echo_features_barrier() {
        let mut s = sw();
        let effects = s
            .handle_controller(SimTime::ZERO, &Message::Hello.encode(1))
            .unwrap();
        assert!(matches!(decode_controller(&effects[0]), Message::Hello));
        let effects = s
            .handle_controller(SimTime::ZERO, &Message::EchoRequest(b"hi".to_vec()).encode(2))
            .unwrap();
        assert_eq!(
            decode_controller(&effects[0]),
            Message::EchoReply(b"hi".to_vec())
        );
        let effects = s
            .handle_controller(SimTime::ZERO, &Message::FeaturesRequest.encode(3))
            .unwrap();
        match decode_controller(&effects[0]) {
            Message::FeaturesReply { datapath_id, n_buffers, n_tables } => {
                assert_eq!(datapath_id, 0xabc);
                assert_eq!(n_buffers, 4);
                assert_eq!(n_tables, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        let effects = s
            .handle_controller(SimTime::ZERO, &Message::BarrierRequest.encode(4))
            .unwrap();
        assert!(matches!(decode_controller(&effects[0]), Message::BarrierReply));
    }

    #[test]
    fn flood_outputs_everywhere_but_ingress() {
        let mut s = sw();
        let fm = Message::FlowMod {
            cookie: 0,
            table_id: 0,
            command: FlowModCommand::Add,
            idle_timeout: 0,
            hard_timeout: 0,
            priority: 1,
            buffer_id: OFP_NO_BUFFER,
            flags: 0,
            match_: Match::any(),
            instructions: vec![Instruction::ApplyActions(vec![Action::output(OFPP_FLOOD)])],
        };
        s.handle_controller(SimTime::ZERO, &fm.encode(1)).unwrap();
        let effects = s.handle_frame(SimTime::ZERO, 2, &client_frame().encode());
        let ports: Vec<u32> = effects
            .iter()
            .map(|e| match e {
                Effect::Forward { port, .. } => *port,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(ports, vec![1, 3]);
    }

    #[test]
    fn idle_expiry_emits_flow_removed() {
        let mut s = sw();
        let fm = Message::FlowMod {
            cookie: 42,
            table_id: 0,
            command: FlowModCommand::Add,
            idle_timeout: 10,
            hard_timeout: 0,
            priority: 50,
            buffer_id: OFP_NO_BUFFER,
            flags: OFPFF_SEND_FLOW_REM,
            match_: Match::service([203, 0, 113, 10], 80),
            instructions: vec![Instruction::ApplyActions(vec![Action::output(3)])],
        };
        s.handle_controller(SimTime::ZERO, &fm.encode(1)).unwrap();
        assert_eq!(s.next_expiry(), Some(SimTime::from_secs(10)));
        assert!(s.expire_flows(SimTime::from_secs(9)).is_empty());
        let effects = s.expire_flows(SimTime::from_secs(10));
        assert_eq!(effects.len(), 1);
        match decode_controller(&effects[0]) {
            Message::FlowRemoved {
                cookie,
                reason,
                duration_sec,
                ..
            } => {
                assert_eq!(cookie, 42);
                assert_eq!(reason, RemovedReason::IdleTimeout);
                assert_eq!(duration_sec, 10);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(s.table().is_empty());
    }

    #[test]
    fn delete_with_notify_flag_emits_flow_removed() {
        let mut s = sw();
        let m = Match::service([1, 2, 3, 4], 80);
        let add = Message::FlowMod {
            cookie: 9,
            table_id: 0,
            command: FlowModCommand::Add,
            idle_timeout: 0,
            hard_timeout: 0,
            priority: 5,
            buffer_id: OFP_NO_BUFFER,
            flags: OFPFF_SEND_FLOW_REM,
            match_: m.clone(),
            instructions: vec![Instruction::ApplyActions(vec![Action::output(1)])],
        };
        s.handle_controller(SimTime::ZERO, &add.encode(1)).unwrap();
        let del = Message::FlowMod {
            cookie: 9,
            table_id: 0,
            command: FlowModCommand::Delete,
            idle_timeout: 0,
            hard_timeout: 0,
            priority: 0,
            buffer_id: OFP_NO_BUFFER,
            flags: 0,
            match_: m,
            instructions: vec![],
        };
        let effects = s.handle_controller(SimTime::from_secs(1), &del.encode(2)).unwrap();
        assert_eq!(effects.len(), 1);
        assert!(matches!(
            decode_controller(&effects[0]),
            Message::FlowRemoved {
                reason: RemovedReason::Delete,
                ..
            }
        ));
    }

    #[test]
    fn buffer_exhaustion_ships_full_frame() {
        let mut s = sw(); // 4 buffers
        let data = client_frame().encode();
        for i in 0..4 {
            let mut f = client_frame();
            f.src_port = 50000 + i as u16;
            s.handle_frame(SimTime::ZERO, 1, &f.encode());
        }
        assert_eq!(s.buffered(), 4);
        let effects = s.handle_frame(SimTime::ZERO, 1, &data);
        match decode_controller(&effects[0]) {
            Message::PacketIn {
                buffer_id, data: included, ..
            } => {
                assert_eq!(buffer_id, OFP_NO_BUFFER);
                assert_eq!(included.len(), data.len());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A frame the switch can neither buffer nor ship whole is dropped: the
    /// `PACKET_IN` around a maximum-size frame would be 65 591 bytes, which
    /// the 16-bit header length used to announce as 55 — the controller then
    /// decoded 13 bytes of frame and a stream reader would have parsed the
    /// other 65 536 as further messages.
    #[test]
    fn a_frame_too_large_to_ship_whole_is_dropped_not_mis_framed() {
        let mut s = Switch::new(SwitchConfig {
            n_buffers: 0,
            ..SwitchConfig::default()
        });
        let mut f = client_frame();
        f.payload = vec![0x5a; TcpFrame::MAX_PAYLOAD];
        assert_eq!(s.handle_frame(SimTime::ZERO, 1, &f.encode()), vec![Effect::Drop]);
        assert_eq!(s.table_misses, 1);
        // Nor does a free buffer help when `miss_send_len` asks for all of it.
        let mut roomy = Switch::new(SwitchConfig {
            miss_send_len: 0xffff,
            ..SwitchConfig::default()
        });
        assert_eq!(roomy.handle_frame(SimTime::ZERO, 1, &f.encode()), vec![Effect::Drop]);
        assert_eq!(roomy.buffered(), 0, "the dropped frame holds no buffer");

        // The largest frame one PACKET_IN can carry still goes up, and the
        // header says exactly how long the message is.
        let overhead = packet_in_msg(OFP_NO_BUFFER, 0, PacketInReason::NoMatch, 1, vec![]).encoded_len();
        f.payload.truncate(Message::MAX_LEN - overhead - client_frame().encode().len());
        let effects = s.handle_frame(SimTime::ZERO, 1, &f.encode());
        let [Effect::ToController(bytes)] = &effects[..] else {
            panic!("expected one PACKET_IN, got {effects:?}");
        };
        assert_eq!(bytes.len(), Message::MAX_LEN);
        assert_eq!(u16::from_be_bytes([bytes[2], bytes[3]]) as usize, bytes.len());
        assert!(matches!(
            decode_controller(&effects[0]),
            Message::PacketIn { data, .. } if data == f.encode()
        ));
    }

    /// The same rule on the explicit output-to-controller action, which
    /// ships up to `max_len` = 65 535 bytes of the frame unbuffered.
    #[test]
    fn output_to_controller_of_an_oversize_frame_drops() {
        let mut s = sw();
        let fm = Message::FlowMod {
            cookie: 0,
            table_id: 0,
            command: FlowModCommand::Add,
            idle_timeout: 0,
            hard_timeout: 0,
            priority: 1,
            buffer_id: OFP_NO_BUFFER,
            flags: 0,
            match_: Match::any(),
            instructions: vec![Instruction::ApplyActions(vec![Action::output(OFPP_CONTROLLER)])],
        };
        s.handle_controller(SimTime::ZERO, &fm.encode(1)).unwrap();
        let mut f = client_frame();
        f.payload = vec![0x5a; TcpFrame::MAX_PAYLOAD];
        assert_eq!(s.handle_frame(SimTime::ZERO, 1, &f.encode()), vec![Effect::Drop]);
    }

    #[test]
    fn output_to_controller_action() {
        let mut s = sw();
        let fm = Message::FlowMod {
            cookie: 0,
            table_id: 0,
            command: FlowModCommand::Add,
            idle_timeout: 0,
            hard_timeout: 0,
            priority: 1,
            buffer_id: OFP_NO_BUFFER,
            flags: 0,
            match_: Match::any(),
            instructions: vec![Instruction::ApplyActions(vec![Action::output(
                OFPP_CONTROLLER,
            )])],
        };
        s.handle_controller(SimTime::ZERO, &fm.encode(1)).unwrap();
        let effects = s.handle_frame(SimTime::ZERO, 1, &client_frame().encode());
        assert!(matches!(
            decode_controller(&effects[0]),
            Message::PacketIn {
                reason: PacketInReason::Action,
                ..
            }
        ));
    }

    #[test]
    fn garbage_frames_drop_and_garbage_control_errors() {
        let mut s = sw();
        assert_eq!(s.handle_frame(SimTime::ZERO, 1, &[0xff; 30]), vec![Effect::Drop]);
        assert!(s.handle_controller(SimTime::ZERO, &[0u8; 3]).is_err());
    }

    #[test]
    fn flow_stats_report_counters() {
        let mut s = sw();
        let m = Match::service([203, 0, 113, 10], 80);
        let fm = Message::FlowMod {
            cookie: 42,
            table_id: 0,
            command: FlowModCommand::Add,
            idle_timeout: 10,
            hard_timeout: 0,
            priority: 100,
            buffer_id: OFP_NO_BUFFER,
            flags: 0,
            match_: m.clone(),
            instructions: vec![Instruction::ApplyActions(vec![Action::output(3)])],
        };
        s.handle_controller(SimTime::ZERO, &fm.encode(1)).unwrap();
        let data = client_frame().encode();
        s.handle_frame(SimTime::from_secs(2), 1, &data);
        let req = Message::FlowStatsRequest {
            table_id: 0xff,
            match_: Match::any(),
        };
        let effects = s
            .handle_controller(SimTime::from_secs(5), &req.encode(2))
            .unwrap();
        match decode_controller(&effects[0]) {
            Message::FlowStatsReply { flows } => {
                assert_eq!(flows.len(), 1);
                assert_eq!(flows[0].cookie, 42);
                assert_eq!(flows[0].packet_count, 1);
                assert_eq!(flows[0].byte_count, data.len() as u64);
                assert_eq!(flows[0].duration_sec, 5);
                assert_eq!(flows[0].match_, m);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Filtered query for a non-matching service: empty reply.
        let req = Message::FlowStatsRequest {
            table_id: 0xff,
            match_: Match::service([1, 2, 3, 4], 9),
        };
        let effects = s
            .handle_controller(SimTime::from_secs(5), &req.encode(3))
            .unwrap();
        assert!(matches!(
            decode_controller(&effects[0]),
            Message::FlowStatsReply { flows } if flows.is_empty()
        ));
    }

    /// Repeat packets of a connection all take the same table entry: its
    /// counters are exact and every one of them restarts its idle timer.
    #[test]
    fn repeat_packets_keep_exact_counters_and_refresh_the_idle_timer() {
        let mut s = sw();
        let fm = Message::FlowMod {
            cookie: 42,
            table_id: 0,
            command: FlowModCommand::Add,
            idle_timeout: 10,
            hard_timeout: 0,
            priority: 100,
            buffer_id: OFP_NO_BUFFER,
            flags: 0,
            match_: Match::service([203, 0, 113, 10], 80),
            instructions: vec![Instruction::ApplyActions(vec![Action::output(3)])],
        };
        s.handle_controller(SimTime::ZERO, &fm.encode(1)).unwrap();
        let data = client_frame().encode();
        for i in 0..5 {
            let effects = s.handle_frame(SimTime::from_secs(4 * i), 1, &data);
            assert!(matches!(effects[0], Effect::Forward { port: 3, .. }));
            assert!(s.expire_flows(SimTime::from_secs(4 * i + 3)).is_empty());
        }
        assert_eq!((s.fast_path_packets, s.table_misses), (5, 0));
        let req = Message::FlowStatsRequest { table_id: 0xff, match_: Match::any() };
        let effects = s.handle_controller(SimTime::from_secs(20), &req.encode(2)).unwrap();
        match decode_controller(&effects[0]) {
            Message::FlowStatsReply { flows } => {
                assert_eq!(flows[0].packet_count, 5);
                assert_eq!(flows[0].byte_count, 5 * data.len() as u64);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Last packet at 16 s: alive at 25 s (25 s after install), gone at 26 s.
        assert!(s.expire_flows(SimTime::from_secs(25)).is_empty());
        s.expire_flows(SimTime::from_secs(26));
        assert!(s.table().is_empty());
    }

    /// A flow-mod or an expiry between two frames of a connection decides
    /// the second frame: after every change the switch does with the frame
    /// what the reference table says.
    #[test]
    fn a_flow_mod_between_two_frames_decides_the_second() {
        use FlowModCommand::{Add, Delete, Modify};
        let (mut s, mut naive) = (sw(), openflow::NaiveFlowTable::new());
        let data = client_frame().encode();
        let view = view_of(&TcpHeaders::parse(&data).unwrap(), 1);
        let out = |p| vec![Instruction::ApplyActions(vec![Action::output(p)])];
        let idle = Duration::from_secs(10);
        // `change` and an expiry sweep on both tables, then the frame through both.
        let mut check = |now, change: Option<(FlowModCommand, &Match, u16, u32)>| {
            if let Some((command, match_, priority, port)) = change {
                match command {
                    Add => {
                        let e = entry(match_.clone(), priority, 1, out(port), idle, Duration::ZERO, 0);
                        naive.add(e, now);
                    }
                    Modify => drop(naive.modify(match_, &out(port))),
                    Delete => drop(naive.delete(match_, now)),
                }
                let fm = Message::FlowMod {
                    cookie: 1,
                    table_id: 0,
                    command,
                    idle_timeout: 10,
                    hard_timeout: 0,
                    priority,
                    buffer_id: OFP_NO_BUFFER,
                    flags: 0,
                    match_: match_.clone(),
                    instructions: out(port),
                };
                s.handle_controller(now, &fm.encode(1)).unwrap();
            }
            s.expire_flows(now);
            naive.expire(now);
            let want = naive.lookup(&view, data.len(), now).map(|(_, i)| i);
            match (&s.handle_frame(now, 1, &data)[0], want) {
                (Effect::Forward { port, .. }, Some(i)) => assert_eq!(i, out(*port), "{now:?}"),
                (Effect::ToController(_), None) => {}
                (got, want) => panic!("{now:?}: switch {got:?}, reference {want:?}"),
            }
            s.buffers.clear();
        };
        let t = SimTime::from_secs;
        let service = Match::service([203, 0, 113, 10], 80);
        let connection = Match::connection([192, 168, 1, 20], 50000, [203, 0, 113, 10], 80);
        check(t(0), None); // empty table: PACKET_IN
        check(t(1), Some((Add, &service, 100, 3)));
        check(t(2), Some((Add, &connection, 200, 2))); // a better match takes over
        check(t(3), Some((Modify, &connection, 0, 1)));
        check(t(4), Some((Delete, &connection, 0, 0))); // back to the service rule
        check(t(13), None); // still there: the frame at 4 s restarted its idle timer
        check(t(23), None); // idled out: PACKET_IN again
        assert_eq!((s.fast_path_packets, s.table_misses), (5, 2));
        assert!(s.table().is_empty());
    }

    #[test]
    fn drop_rule_drops() {
        let mut s = sw();
        let fm = Message::FlowMod {
            cookie: 0,
            table_id: 0,
            command: FlowModCommand::Add,
            idle_timeout: 0,
            hard_timeout: 0,
            priority: 1,
            buffer_id: OFP_NO_BUFFER,
            flags: 0,
            match_: Match::any(),
            instructions: vec![Instruction::ApplyActions(vec![])],
        };
        s.handle_controller(SimTime::ZERO, &fm.encode(1)).unwrap();
        let effects = s.handle_frame(SimTime::ZERO, 1, &client_frame().encode());
        assert_eq!(effects, vec![Effect::Drop]);
    }
}
