//! The switch state machine.

use desim::{Duration, FastMap, SimTime};
use netsim::{FramePool, TcpHeaders, WireFrame};
use openflow::actions::Action;
use openflow::messages::{FlowModCommand, Message, PacketInReason};
use openflow::oxm::{Match, MatchView, OxmField};
use openflow::table::{entry, FlowTable, Removed};
use openflow::{OfError, OFPP_CONTROLLER, OFPP_FLOOD, OFP_NO_BUFFER};

/// Switch configuration.
#[derive(Clone, Debug)]
pub struct SwitchConfig {
    /// Datapath id: names the switch (no message of the subset carries it).
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
/// it; `FLOW_REMOVED`s by descending priority, then age). An
/// [`Effect::ToController`] is encoded into a buffer [`Switch::recycle`]
/// handed back, when there is one.
pub struct Switch {
    config: SwitchConfig,
    table: FlowTable,
    buffers: FastMap<u32, (u32, Vec<u8>)>, // buffer_id -> (in_port, frame)
    next_buffer: u32,
    upstream: Upstream,
    /// Recycled buffer of the removal records of expiries and deletes.
    expired: Vec<Removed>,
    /// Count of packets handled on the fast path (no controller).
    pub fast_path_packets: u64,
    /// Count of table misses sent to the controller.
    pub table_misses: u64,
    /// Never incremented (no flow cache; `e2ebench` reads it): ROADMAP item 2 deletes it.
    pub microflow_hits: u64,
    /// Counts every classified frame (`e2ebench` reads it): ROADMAP item 2 deletes it.
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
            upstream: Upstream { next_xid: 1, spare: FramePool::new() },
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

    /// Takes back the buffer of an [`Effect::ToController`] the controller has read.
    pub fn recycle(&mut self, buf: Vec<u8>) {
        self.upstream.spare.recycle(buf);
    }

    /// Wraps [`Self::handle_frame_into`] on a copy of `data`: not the harness's path, and ROADMAP item 2 retires it.
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
        let Some((_cookie, actions)) = self.table.lookup(&view, len, now) else {
            self.table_misses += 1;
            return out.push(self.packet_in(in_port, frame.into_bytes()));
        };
        self.fast_path_packets += 1;
        execute(&self.config.ports, &mut self.upstream, in_port, frame, actions.iter(), out)
    }

    /// Parks a missed frame in a packet buffer and reports it upstream, the
    /// report encoded straight from the parked bytes. With no buffer free the
    /// frame travels whole in the `PACKET_IN`. A report too long for one
    /// message is dropped, and its frame parked nowhere.
    fn packet_in(&mut self, in_port: u32, data: Vec<u8>) -> Effect {
        let (buffer_id, n) = if (self.buffers.len() as u32) < self.config.n_buffers {
            let id = self.next_buffer;
            self.next_buffer = id % (OFP_NO_BUFFER - 1) + 1; // 1..=0xffff_fffe, never OFP_NO_BUFFER
            (id, (self.config.miss_send_len as usize).min(data.len()))
        } else {
            (OFP_NO_BUFFER, data.len())
        };
        let msg = packet_in_msg(buffer_id, data.len(), PacketInReason::NoMatch, in_port, &data[..n]);
        let effect = self.upstream.send(&msg);
        if buffer_id != OFP_NO_BUFFER && !matches!(effect, Effect::Drop) {
            self.buffers.insert(buffer_id, (in_port, data));
        }
        effect
    }

    /// Wraps [`Self::handle_controller_into`]: not the harness's path, and ROADMAP item 2 retires it.
    pub fn handle_controller(&mut self, now: SimTime, bytes: &[u8]) -> Result<Vec<Effect>, OfError> {
        let mut out = Vec::new();
        self.handle_controller_into(now, bytes, &mut out)?;
        Ok(out)
    }

    /// Processes an encoded OpenFlow message from the controller, appending
    /// its effects (forwards triggered by `PACKET_OUT` / buffered `FLOW_MOD`
    /// packets, `FLOW_REMOVED`s of a Delete, and the `HELLO` / `BARRIER`
    /// replies) to `effects`. What does not decode — any request outside
    /// the subset the controller speaks — is an `Err` with no effect.
    pub fn handle_controller_into(
        &mut self,
        now: SimTime,
        bytes: &[u8],
        effects: &mut Vec<Effect>,
    ) -> Result<(), OfError> {
        let (xid, msg, _) = Message::parse(bytes)?;
        match msg {
            Message::Hello => effects.push(self.upstream.encode(&msg, xid)),
            Message::BarrierRequest => {
                effects.push(self.upstream.encode(&Message::<&[u8]>::BarrierReply, xid));
            }
            Message::FlowMod {
                cookie,
                command,
                idle_timeout,
                priority,
                buffer_id,
                flags,
                match_,
                actions,
                ..
            } => match command {
                FlowModCommand::Add => {
                    self.table.add(
                        entry(
                            match_,
                            priority,
                            cookie,
                            actions,
                            Duration::from_secs(idle_timeout as u64),
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
                    Some(data.to_vec())
                };
                match frame_bytes.map(WireFrame::parse) {
                    Some(Ok((_, frame))) => execute(
                        &self.config.ports,
                        &mut self.upstream,
                        in_port,
                        frame,
                        actions.iter(),
                        effects,
                    ),
                    // A stale buffer id, or bytes that are no frame.
                    _ => effects.push(Effect::Drop),
                }
            }
            // Symmetric/unsolicited messages a switch ignores.
            Message::PacketIn { .. }
            | Message::FlowRemoved { .. }
            | Message::Error { .. }
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
        let msg: Message = Message::FlowRemoved {
            cookie: removed.entry.cookie,
            priority: removed.entry.priority,
            reason: removed.reason,
            table_id: 0,
            duration_sec: (d.as_nanos() / 1_000_000_000) as u32,
            duration_nsec: (d.as_nanos() % 1_000_000_000) as u32,
            idle_timeout: openflow::timeout_secs(removed.entry.idle_timeout),
            hard_timeout: 0, // no flow here has one
            packet_count: removed.entry.packet_count,
            byte_count: removed.entry.byte_count,
            match_: removed.entry.match_,
        };
        Some(self.upstream.send(&msg))
    }

    /// Wraps [`Self::expire_flows_into`]: not the harness's path, and ROADMAP item 2 retires it.
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

/// The switch's end of the control channel: transaction ids, and the spare
/// buffers messages are encoded into.
struct Upstream {
    next_xid: u32,
    spare: FramePool,
}

impl Upstream {
    /// `msg` under `xid`, encoded into a spare buffer.
    fn encode<B: AsRef<[u8]>>(&mut self, msg: &Message<B>, xid: u32) -> Effect {
        let mut buf = self.spare.take();
        msg.encode_into(xid, &mut buf);
        Effect::ToController(buf)
    }

    /// Ships `msg` under the next xid, or drops it when the 16-bit header
    /// length cannot say how long it is ([`Message::MAX_LEN`]): a wrong length
    /// would desynchronise the controller's stream. Only a `PACKET_IN`
    /// carrying a near-maximal frame whole gets there.
    fn send<B: AsRef<[u8]>>(&mut self, msg: &Message<B>) -> Effect {
        if msg.encoded_len() > Message::MAX_LEN {
            return Effect::Drop;
        }
        let xid = self.next_xid;
        self.next_xid = xid.wrapping_add(1);
        self.encode(msg, xid)
    }
}

/// A `PACKET_IN` for a frame of `total_len` bytes, `data` of which are
/// included. OpenFlow's `total_len` is 16 bits; a longer frame (only Ethernet
/// padding can make one) reports 65 535.
fn packet_in_msg(
    buffer_id: u32,
    total_len: usize,
    reason: PacketInReason,
    in_port: u32,
    data: &[u8],
) -> Message<&[u8]> {
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
/// output copies what the frame looks like at that point.
fn execute<'a>(
    ports: &[u32],
    upstream: &mut Upstream,
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
                        let reason = PacketInReason::Action;
                        let msg = packet_in_msg(OFP_NO_BUFFER, data.len(), reason, in_port, &data[..n]);
                        effects.push(upstream.send(&msg));
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
pub(crate) fn view_of(frame: &TcpHeaders, in_port: u32) -> MatchView {
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
    use openflow::actions::Actions;
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
                assert_eq!(match_, Match::any().with(OxmField::InPort(1)));
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
            priority: 100,
            buffer_id,
            flags: 0,
            match_: Match::connection([192, 168, 1, 20], 50000, [203, 0, 113, 10], 80),
            actions: Actions::from([
                Action::SetField(OxmField::EthDst(MacAddr::from_id(200).octets())),
                Action::SetField(OxmField::Ipv4Dst([10, 0, 0, 5])),
                Action::SetField(OxmField::TcpDst(31080)),
                Action::output(3),
            ]),
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
            actions: Actions::from([Action::output(2)]),
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
            actions: Actions::from([Action::output(2)]),
            data: vec![],
        };
        let effects = s.handle_controller(SimTime::ZERO, &po.encode(5)).unwrap();
        assert_eq!(effects, vec![Effect::Drop]);
    }

    #[test]
    fn hello_and_barrier_are_answered() {
        let mut s = sw();
        let effects = s
            .handle_controller(SimTime::ZERO, &Message::Hello.encode(1))
            .unwrap();
        assert!(matches!(decode_controller(&effects[0]), Message::Hello));
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
            priority: 1,
            buffer_id: OFP_NO_BUFFER,
            flags: 0,
            match_: Match::any(),
            actions: Actions::from([Action::output(OFPP_FLOOD)]),
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
            priority: 50,
            buffer_id: OFP_NO_BUFFER,
            flags: OFPFF_SEND_FLOW_REM,
            match_: Match::service([203, 0, 113, 10], 80),
            actions: Actions::from([Action::output(3)]),
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
            priority: 5,
            buffer_id: OFP_NO_BUFFER,
            flags: OFPFF_SEND_FLOW_REM,
            match_: m,
            actions: Actions::from([Action::output(1)]),
        };
        s.handle_controller(SimTime::ZERO, &add.encode(1)).unwrap();
        let del = Message::FlowMod {
            cookie: 9,
            table_id: 0,
            command: FlowModCommand::Delete,
            idle_timeout: 0,
            priority: 0,
            buffer_id: OFP_NO_BUFFER,
            flags: 0,
            match_: m,
            actions: Actions::new(),
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

    /// Buffer ids wrap from 0xffff_fffe to 1: neither 0 nor OFP_NO_BUFFER
    /// is handed out, so a long run's missed frame is still parked and its
    /// FLOW_MOD still releases it.
    #[test]
    fn buffer_ids_wrap_past_no_buffer() {
        let mut s = sw();
        s.next_buffer = OFP_NO_BUFFER - 1;
        let frames: Vec<Vec<u8>> = (0..2u16)
            .map(|i| {
                let mut f = client_frame();
                f.src_port = 50000 + i;
                f.encode()
            })
            .collect();
        let ids: Vec<u32> = frames
            .iter()
            .map(|data| match decode_controller(&s.handle_frame(SimTime::ZERO, 1, data)[0]) {
                Message::PacketIn { buffer_id, .. } => buffer_id,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(ids, vec![0xffff_fffe, 1]);
        assert_eq!(s.buffered(), 2, "both frames parked");
        for (i, &buffer_id) in ids.iter().enumerate() {
            let fm = Message::FlowMod {
                cookie: i as u64,
                table_id: 0,
                command: FlowModCommand::Add,
                idle_timeout: 0,
                priority: 100,
                buffer_id,
                flags: 0,
                match_: Match::connection([192, 168, 1, 20], 50000 + i as u16, [203, 0, 113, 10], 80),
                actions: Actions::from([Action::output(3)]),
            };
            let effects = s.handle_controller(SimTime::ZERO, &fm.encode(1)).unwrap();
            assert!(matches!(&effects[..], [Effect::Forward { port: 3, data }] if *data == frames[i]));
        }
        assert_eq!(s.buffered(), 0, "both released");
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
        let overhead = packet_in_msg(OFP_NO_BUFFER, 0, PacketInReason::NoMatch, 1, &[]).encoded_len();
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
            priority: 1,
            buffer_id: OFP_NO_BUFFER,
            flags: 0,
            match_: Match::any(),
            actions: Actions::from([Action::output(OFPP_CONTROLLER)]),
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
            priority: 1,
            buffer_id: OFP_NO_BUFFER,
            flags: 0,
            match_: Match::any(),
            actions: Actions::from([Action::output(
                OFPP_CONTROLLER,
            )]),
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
            priority: 100,
            buffer_id: OFP_NO_BUFFER,
            flags: 0,
            match_: Match::service([203, 0, 113, 10], 80),
            actions: Actions::from([Action::output(3)]),
        };
        s.handle_controller(SimTime::ZERO, &fm.encode(1)).unwrap();
        let data = client_frame().encode();
        for i in 0..5 {
            let effects = s.handle_frame(SimTime::from_secs(4 * i), 1, &data);
            assert!(matches!(effects[0], Effect::Forward { port: 3, .. }));
            assert!(s.expire_flows(SimTime::from_secs(4 * i + 3)).is_empty());
        }
        assert_eq!((s.fast_path_packets, s.table_misses), (5, 0));
        let e = s.table().entries().next().unwrap();
        assert_eq!((e.packet_count, e.byte_count), (5, 5 * data.len() as u64));
        // Last packet at 16 s: alive at 25 s (25 s after install), gone at 26 s.
        assert!(s.expire_flows(SimTime::from_secs(25)).is_empty());
        s.expire_flows(SimTime::from_secs(26));
        assert!(s.table().is_empty());
    }

    /// A flow-mod or an expiry between two frames of a connection decides
    /// the second frame: after every change the switch does with the frame
    /// what a bare `FlowTable` fed the same operations says (openflow's
    /// `table_diff` holds that table to the seed's linear scan).
    #[test]
    fn a_flow_mod_between_two_frames_decides_the_second() {
        use FlowModCommand::{Add, Delete};
        let (mut s, mut reference) = (sw(), FlowTable::new());
        let data = client_frame().encode();
        let view = view_of(&TcpHeaders::parse(&data).unwrap(), 1);
        let out = |p| Actions::from([Action::output(p)]);
        let idle = Duration::from_secs(10);
        // `change` and an expiry sweep on both tables, then the frame through both.
        let mut check = |now, change: Option<(FlowModCommand, &Match, u16, u32)>| {
            if let Some((command, match_, priority, port)) = change {
                match command {
                    Add => reference.add(entry(*match_, priority, 1, out(port), idle, 0), now),
                    Delete => reference.delete_into(match_, now, &mut Vec::new()),
                }
                let fm = Message::FlowMod {
                    cookie: 1,
                    table_id: 0,
                    command,
                    idle_timeout: 10,
                            priority,
                    buffer_id: OFP_NO_BUFFER,
                    flags: 0,
                    match_: *match_,
                    actions: if command == Add { out(port) } else { Actions::new() },
                };
                s.handle_controller(now, &fm.encode(1)).unwrap();
            }
            s.expire_flows(now);
            reference.expire_into(now, &mut Vec::new());
            let want = reference.lookup(&view, data.len(), now).map(|(_, a)| a);
            match (&s.handle_frame(now, 1, &data)[0], want) {
                (Effect::Forward { port, .. }, Some(a)) => assert_eq!(a, out(*port), "{now:?}"),
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
        check(t(4), Some((Delete, &connection, 0, 0))); // back to the service rule
        check(t(13), None); // still there: the frame at 4 s restarted its idle timer
        check(t(23), None); // idled out: PACKET_IN again
        assert_eq!((s.fast_path_packets, s.table_misses), (4, 2));
        assert!(s.table().is_empty());
    }

    /// The `FLOW_MOD` the controller sends: `match_` at `priority`, asking
    /// for a `FLOW_REMOVED`.
    fn flow_mod(command: FlowModCommand, match_: Match, priority: u16) -> Vec<u8> {
        let actions = match command {
            FlowModCommand::Add => Actions::from([Action::output(3)]),
            FlowModCommand::Delete => Actions::new(),
        };
        Message::FlowMod {
            cookie: 1,
            table_id: 0,
            command,
            idle_timeout: 10,
            priority,
            buffer_id: OFP_NO_BUFFER,
            flags: OFPFF_SEND_FLOW_REM,
            match_,
            actions,
        }
        .encode(1)
    }

    /// A switch holding one service match at priorities 100 and 99.
    fn two_priorities() -> (Switch, Match) {
        let (mut s, m) = (sw(), Match::service([203, 0, 113, 10], 80));
        for priority in [100, 99] {
            s.handle_controller(SimTime::ZERO, &flow_mod(FlowModCommand::Add, m, priority)).unwrap();
        }
        (s, m)
    }

    /// `DELETE_STRICT` (4) used to decode as `DELETE`, whose match spans
    /// every priority: a strict delete at 100 also removed the flow at 99.
    /// It is refused now, and both flows stay.
    #[test]
    fn a_delete_strict_is_refused_not_widened_to_every_priority() {
        let (mut s, m) = two_priorities();
        let mut strict = flow_mod(FlowModCommand::Delete, m, 100);
        strict[8 + 17] = 4;
        assert_eq!(s.handle_controller(SimTime::from_secs(1), &strict), Err(OfError::BadType(4)));
        assert_eq!(s.table().entries().map(|e| e.priority).collect::<Vec<_>>(), vec![100, 99]);
    }

    /// Hand-built bytes of every request the controller never sends — the
    /// message types ECHO, FEATURES and multipart (their bodies are never
    /// read), `FLOW_MOD` MODIFY, MODIFY_STRICT and DELETE_STRICT, a hard
    /// timeout: each is an `Err` that appends nothing to the sink and leaves
    /// the table as it was.
    #[test]
    fn the_switch_refuses_what_the_controller_never_sends() {
        let (mut s, m) = two_priorities();
        let message = |mtype: u8, body: usize| {
            let mut bytes = vec![4, mtype];
            bytes.extend_from_slice(&(8 + body as u16).to_be_bytes());
            bytes.extend_from_slice(&9u32.to_be_bytes());
            bytes.resize(8 + body, 0);
            bytes
        };
        // A Delete at 100 and an Add at 50 of the installed match, one field
        // changed: accepted, each would change the table.
        let patched = |command, priority, at: usize, with: &[u8]| {
            let mut bytes = flow_mod(command, m, priority);
            bytes[8 + at..8 + at + with.len()].copy_from_slice(with);
            bytes
        };
        let refused = [
            ("ECHO_REQUEST", message(2, 4)),
            ("ECHO_REPLY", message(3, 4)),
            ("FEATURES_REQUEST", message(5, 0)),
            ("FEATURES_REPLY", message(6, 24)),
            ("MULTIPART_REQUEST", message(18, 48)),
            ("MULTIPART_REPLY", message(19, 8)),
            ("MODIFY", patched(FlowModCommand::Delete, 100, 17, &[1])),
            ("MODIFY_STRICT", patched(FlowModCommand::Delete, 100, 17, &[2])),
            ("DELETE_STRICT", patched(FlowModCommand::Delete, 100, 17, &[4])),
            ("hard timeout", patched(FlowModCommand::Add, 50, 20, &5u16.to_be_bytes())),
        ];
        let table = |s: &Switch| {
            let entries = s.table().entries();
            entries.map(|e| (e.priority, e.match_, e.actions)).collect::<Vec<_>>()
        };
        let before = table(&s);
        for (what, bytes) in refused {
            let mut effects = vec![Effect::Drop];
            assert!(s.handle_controller_into(SimTime::from_secs(1), &bytes, &mut effects).is_err(), "{what}");
            assert_eq!(effects, vec![Effect::Drop], "{what} appended an effect");
            assert_eq!(table(&s), before, "{what} changed the table");
        }
    }

    #[test]
    fn drop_rule_drops() {
        let mut s = sw();
        let fm = Message::FlowMod {
            cookie: 0,
            table_id: 0,
            command: FlowModCommand::Add,
            idle_timeout: 0,
            priority: 1,
            buffer_id: OFP_NO_BUFFER,
            flags: 0,
            match_: Match::any(),
            actions: Actions::new(),
        };
        s.handle_controller(SimTime::ZERO, &fm.encode(1)).unwrap();
        let effects = s.handle_frame(SimTime::ZERO, 1, &client_frame().encode());
        assert_eq!(effects, vec![Effect::Drop]);
    }
}
