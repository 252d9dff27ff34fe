//! Property tests for the switch: the pipeline must be total (never panic)
//! on arbitrary inputs, buffers must never leak, and rewrites must be exact.
//!
//! The switch executes actions on encoded bytes (verify, patch in place,
//! move the buffer). [`StructuredSwitch`] below is the route it replaced —
//! decode into a `TcpFrame`, mutate the fields, re-encode for every output —
//! kept as the oracle the byte executor is compared against.

use desim::{Duration, SimTime};
use netsim::addr::{Ipv4Addr, MacAddr};
use netsim::wire;
use netsim::{TcpFlags, TcpFrame, TcpHeaders};
use openflow::actions::{Action, Instruction};
use openflow::messages::{FlowModCommand, Message, PacketInReason};
use openflow::oxm::{Match, MatchView, OxmField};
use openflow::table::{entry, FlowTable};
use openflow::{OFPP_CONTROLLER, OFPP_FLOOD, OFP_NO_BUFFER};
use ovs::{Effect, Switch, SwitchConfig};
use proptest::prelude::*;
use std::collections::HashMap;

fn sw(n_buffers: u32) -> Switch {
    Switch::new(SwitchConfig {
        datapath_id: 1,
        n_buffers,
        miss_send_len: 128,
        ports: vec![1, 2, 3],
    })
}

fn arb_frame() -> impl Strategy<Value = TcpFrame> {
    (
        any::<[u8; 4]>(),
        any::<[u8; 4]>(),
        any::<u16>(),
        any::<u16>(),
        any::<u8>(),
        prop::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(|(src, dst, sp, dp, flags, payload)| TcpFrame {
            src_mac: MacAddr::from_id(1),
            dst_mac: MacAddr::from_id(2),
            src_ip: Ipv4Addr(src),
            dst_ip: Ipv4Addr(dst),
            src_port: sp,
            dst_port: dp,
            flags: TcpFlags(flags),
            seq: 0,
            ack: 0,
            payload,
        })
}

proptest! {
    /// Arbitrary bytes on the data plane and the control channel never panic
    /// the switch.
    #[test]
    fn pipeline_is_total(data in prop::collection::vec(any::<u8>(), 0..200),
                         ctrl in prop::collection::vec(any::<u8>(), 0..200),
                         port in 0u32..8) {
        let mut s = sw(8);
        let _ = s.handle_frame(SimTime::ZERO, port, &data);
        let _ = s.handle_controller(SimTime::ZERO, &ctrl);
    }

    /// A table-miss buffers the frame; releasing it via FLOW_MOD(buffer_id)
    /// always reproduces the frame bit-exactly after the installed rewrites.
    #[test]
    fn buffered_release_rewrites_exactly(frame in arb_frame(),
                                         new_dst in any::<[u8; 4]>(),
                                         new_port in any::<u16>()) {
        let mut s = sw(8);
        let effects = s.handle_frame(SimTime::ZERO, 1, &frame.encode());
        let Effect::ToController(pkt_in) = &effects[0] else {
            return Err(TestCaseError::fail("no packet-in"));
        };
        let (_, msg, _) = Message::decode(pkt_in).unwrap();
        let Message::PacketIn { buffer_id, .. } = msg else {
            return Err(TestCaseError::fail("wrong message"));
        };
        prop_assume!(buffer_id != OFP_NO_BUFFER);

        let fm = Message::FlowMod {
            cookie: 0,
            table_id: 0,
            command: FlowModCommand::Add,
            idle_timeout: 0,
            hard_timeout: 0,
            priority: 10,
            buffer_id,
            flags: 0,
            match_: Match::connection(
                frame.src_ip.octets(),
                frame.src_port,
                frame.dst_ip.octets(),
                frame.dst_port,
            ),
            instructions: vec![Instruction::ApplyActions(vec![
                Action::SetField(OxmField::Ipv4Dst(new_dst)),
                Action::SetField(OxmField::TcpDst(new_port)),
                Action::output(2),
            ])],
        };
        let effects = s.handle_controller(SimTime::ZERO, &fm.encode(1)).unwrap();
        let forwarded = effects.iter().find_map(|e| match e {
            Effect::Forward { port: 2, data } => Some(data.clone()),
            _ => None,
        });
        let data = forwarded.expect("buffered frame released");
        let out = TcpFrame::decode(&data).unwrap();
        // Rewritten fields changed; everything else identical.
        prop_assert_eq!(out.dst_ip, Ipv4Addr(new_dst));
        prop_assert_eq!(out.dst_port, new_port);
        prop_assert_eq!(out.src_ip, frame.src_ip);
        prop_assert_eq!(out.src_port, frame.src_port);
        prop_assert_eq!(out.payload, frame.payload);
        prop_assert_eq!(s.buffered(), 0, "buffer slot released");
    }

    /// Buffer occupancy never exceeds the configured capacity, whatever the
    /// traffic pattern, and every buffered packet is eventually releasable.
    #[test]
    fn buffers_never_leak(frames in prop::collection::vec(arb_frame(), 1..20)) {
        let cap = 4u32;
        let mut s = sw(cap);
        let mut buffer_ids = Vec::new();
        for f in &frames {
            for e in s.handle_frame(SimTime::ZERO, 1, &f.encode()) {
                if let Effect::ToController(bytes) = e {
                    if let Ok((_, Message::PacketIn { buffer_id, .. }, _)) = Message::decode(&bytes) {
                        if buffer_id != OFP_NO_BUFFER {
                            buffer_ids.push(buffer_id);
                        }
                    }
                }
            }
            prop_assert!(s.buffered() <= cap as usize);
        }
        // Drain everything via packet-out.
        for id in buffer_ids {
            let po = Message::PacketOut {
                buffer_id: id,
                in_port: 1,
                actions: vec![Action::output(2)],
                data: vec![],
            };
            s.handle_controller(SimTime::ZERO, &po.encode(9)).unwrap();
        }
        prop_assert_eq!(s.buffered(), 0);
    }

    /// Fast-path counters: every handled decodable frame is either a miss
    /// (packet-in) or a fast-path hit, never both, and the counters add up.
    #[test]
    fn counters_are_consistent(frames in prop::collection::vec(arb_frame(), 1..30)) {
        let mut s = sw(64);
        // Install one broad rule matching half the traffic (dst port < 0x8000).
        let fm = Message::FlowMod {
            cookie: 0,
            table_id: 0,
            command: FlowModCommand::Add,
            idle_timeout: 0,
            hard_timeout: 0,
            priority: 1,
            buffer_id: OFP_NO_BUFFER,
            flags: 0,
            match_: Match::any().with(OxmField::EthType(0x0800)),
            instructions: vec![Instruction::ApplyActions(vec![Action::output(3)])],
        };
        s.handle_controller(SimTime::ZERO, &fm.encode(1)).unwrap();
        let n = frames.len() as u64;
        for f in &frames {
            s.handle_frame(SimTime::ZERO, 1, &f.encode());
        }
        prop_assert_eq!(s.fast_path_packets + s.table_misses, n);
        prop_assert_eq!(s.table_misses, 0, "the wildcard rule matches everything");
    }
}

// -- the structured oracle ---------------------------------------------------

/// The seed's data path: every frame decoded into a `TcpFrame`, `SET_FIELD`s
/// applied to its fields, every output a fresh `encode()`. Same table, same
/// counters and xid sequence as [`Switch`].
struct StructuredSwitch {
    config: SwitchConfig,
    table: FlowTable,
    buffers: HashMap<u32, (u32, Vec<u8>)>,
    next_buffer: u32,
    next_xid: u32,
    fast_path_packets: u64,
    table_misses: u64,
}

impl StructuredSwitch {
    fn new(config: SwitchConfig) -> Self {
        StructuredSwitch {
            config,
            table: FlowTable::new(),
            buffers: HashMap::new(),
            next_buffer: 1,
            next_xid: 1,
            fast_path_packets: 0,
            table_misses: 0,
        }
    }

    fn fresh_xid(&mut self) -> u32 {
        let x = self.next_xid;
        self.next_xid = self.next_xid.wrapping_add(1);
        x
    }

    fn handle_frame(&mut self, now: SimTime, in_port: u32, data: &[u8]) -> Vec<Effect> {
        let Ok(frame) = TcpFrame::decode(data) else {
            return vec![Effect::Drop];
        };
        let view = MatchView {
            in_port,
            eth_dst: frame.dst_mac.octets(),
            eth_src: frame.src_mac.octets(),
            eth_type: 0x0800,
            ip_proto: 6,
            ipv4_src: frame.src_ip.octets(),
            ipv4_dst: frame.dst_ip.octets(),
            tcp_src: frame.src_port,
            tcp_dst: frame.dst_port,
        };
        match self.table.lookup(&view, data.len(), now) {
            Some((_, instructions)) => {
                let actions = flatten(instructions);
                self.fast_path_packets += 1;
                self.apply_actions(frame, in_port, &actions)
            }
            None => {
                self.table_misses += 1;
                let (buffer_id, included) = if (self.buffers.len() as u32) < self.config.n_buffers {
                    let id = self.next_buffer;
                    self.next_buffer = self.next_buffer.wrapping_add(1).max(1);
                    self.buffers.insert(id, (in_port, data.to_vec()));
                    let n = (self.config.miss_send_len as usize).min(data.len());
                    (id, data[..n].to_vec())
                } else {
                    (OFP_NO_BUFFER, data.to_vec())
                };
                let msg = packet_in(buffer_id, data.len(), PacketInReason::NoMatch, in_port, included);
                vec![Effect::ToController(msg.encode(self.fresh_xid()))]
            }
        }
    }

    fn apply_actions(&mut self, mut frame: TcpFrame, in_port: u32, actions: &[Action]) -> Vec<Effect> {
        let mut effects = Vec::new();
        for action in actions {
            match *action {
                Action::SetField(field) => match field {
                    OxmField::EthDst(m) => frame.dst_mac = MacAddr(m),
                    OxmField::EthSrc(m) => frame.src_mac = MacAddr(m),
                    OxmField::Ipv4Dst(a) => frame.dst_ip = Ipv4Addr(a),
                    OxmField::Ipv4Src(a) => frame.src_ip = Ipv4Addr(a),
                    OxmField::TcpDst(p) => frame.dst_port = p,
                    OxmField::TcpSrc(p) => frame.src_port = p,
                    OxmField::EthType(_) | OxmField::IpProto(_) | OxmField::InPort(_) => {}
                },
                Action::Output { port: OFPP_CONTROLLER, max_len } => {
                    let data = frame.encode();
                    let n = (max_len as usize).min(data.len());
                    let msg = packet_in(OFP_NO_BUFFER, data.len(), PacketInReason::Action, in_port, data[..n].to_vec());
                    effects.push(Effect::ToController(msg.encode(self.fresh_xid())));
                }
                Action::Output { port: OFPP_FLOOD, .. } => {
                    for &p in &self.config.ports {
                        if p != in_port {
                            effects.push(Effect::Forward { port: p, data: frame.encode() });
                        }
                    }
                }
                Action::Output { port, .. } => effects.push(Effect::Forward { port, data: frame.encode() }),
            }
        }
        if effects.is_empty() {
            effects.push(Effect::Drop);
        }
        effects
    }

    /// `FLOW_MOD` ADD and `PACKET_OUT`, the two messages the oracle is fed.
    fn handle_controller(&mut self, now: SimTime, bytes: &[u8]) -> Vec<Effect> {
        match Message::decode(bytes).unwrap().1 {
            Message::FlowMod { cookie, priority, buffer_id, flags, match_, instructions, .. } => {
                self.table.add(
                    entry(match_, priority, cookie, instructions, Duration::ZERO, Duration::ZERO, flags),
                    now,
                );
                match self.buffers.remove(&buffer_id) {
                    Some((in_port, data)) => self.handle_frame(now, in_port, &data),
                    None => Vec::new(),
                }
            }
            Message::PacketOut { buffer_id, in_port, actions, data } => {
                let bytes = if buffer_id != OFP_NO_BUFFER {
                    match self.buffers.remove(&buffer_id) {
                        Some((_, stored)) => stored,
                        None => return vec![Effect::Drop],
                    }
                } else {
                    data
                };
                match TcpFrame::decode(&bytes) {
                    Ok(frame) => self.apply_actions(frame, in_port, &actions),
                    Err(_) => vec![Effect::Drop],
                }
            }
            other => panic!("oracle is not fed {other:?}"),
        }
    }
}

fn flatten(instructions: &[Instruction]) -> Vec<Action> {
    instructions.iter().flat_map(|i| i.actions().iter().copied()).collect()
}

fn packet_in(buffer_id: u32, total_len: usize, reason: PacketInReason, in_port: u32, data: Vec<u8>) -> Message {
    Message::PacketIn {
        buffer_id,
        total_len: total_len as u16,
        reason,
        table_id: 0,
        cookie: 0,
        match_: Match::any().with(OxmField::InPort(in_port)),
        data,
    }
}

// -- random rule sets and traffic ---------------------------------------------

// A small universe, so that random frames meet random rules.
const IPS: [[u8; 4]; 3] = [[10, 0, 0, 1], [10, 0, 0, 2], [203, 0, 113, 10]];
const PORTS: [u16; 3] = [80, 8080, 50000];

fn arb_ip() -> impl Strategy<Value = [u8; 4]> {
    prop_oneof![3 => (0usize..3).prop_map(|i| IPS[i]), 1 => any::<[u8; 4]>()]
}

fn arb_port() -> impl Strategy<Value = u16> {
    prop_oneof![3 => (0usize..3).prop_map(|i| PORTS[i]), 1 => any::<u16>()]
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        1 => any::<[u8; 6]>().prop_map(|m| Action::SetField(OxmField::EthDst(m))),
        1 => any::<[u8; 6]>().prop_map(|m| Action::SetField(OxmField::EthSrc(m))),
        1 => arb_ip().prop_map(|a| Action::SetField(OxmField::Ipv4Dst(a))),
        1 => arb_ip().prop_map(|a| Action::SetField(OxmField::Ipv4Src(a))),
        1 => arb_port().prop_map(|p| Action::SetField(OxmField::TcpDst(p))),
        1 => arb_port().prop_map(|p| Action::SetField(OxmField::TcpSrc(p))),
        3 => (1u32..5).prop_map(Action::output),
        1 => Just(Action::output(OFPP_FLOOD)),
        1 => prop_oneof![0u16..120, Just(0xffffu16)]
            .prop_map(|max_len| Action::Output { port: OFPP_CONTROLLER, max_len }),
    ]
}

fn arb_match() -> impl Strategy<Value = Match> {
    prop_oneof![
        Just(Match::any()),
        (arb_ip(), arb_port()).prop_map(|(ip, port)| Match::service(ip, port)),
        (arb_ip(), arb_port(), arb_ip(), arb_port())
            .prop_map(|(si, sp, di, dp)| Match::connection(si, sp, di, dp)),
        (1u32..4).prop_map(|p| Match::any().with(OxmField::InPort(p))),
        arb_port().prop_map(|p| Match::any().with(OxmField::TcpDst(p))),
    ]
}

fn arb_traffic() -> impl Strategy<Value = TcpFrame> {
    (arb_ip(), arb_port(), arb_ip(), arb_port(), any::<u8>(), any::<u32>(), any::<u32>(),
     prop::collection::vec(any::<u8>(), 0..200))
        .prop_map(|(si, sp, di, dp, flags, seq, ack, payload)| TcpFrame {
            src_mac: MacAddr::from_id(1),
            dst_mac: MacAddr::from_id(2),
            src_ip: Ipv4Addr(si),
            dst_ip: Ipv4Addr(di),
            src_port: sp,
            dst_port: dp,
            flags: TcpFlags(flags),
            seq,
            ack,
            payload,
        })
}

#[derive(Clone, Debug)]
enum Op {
    /// `FLOW_MOD` ADD; `release` names a parked buffer to run through it.
    Rule { match_: Match, priority: u16, actions: Vec<Action>, release: Option<usize> },
    Frame { in_port: u32, frame: TcpFrame },
    /// `PACKET_OUT` of a parked buffer (or of a stale id when none is parked).
    OutBuffered { which: usize, actions: Vec<Action> },
    OutInline { in_port: u32, frame: TcpFrame, actions: Vec<Action> },
}

fn arb_actions() -> impl Strategy<Value = Vec<Action>> {
    prop::collection::vec(arb_action(), 0..7)
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (arb_match(), 0u16..4, arb_actions(), any::<bool>(), any::<usize>()).prop_map(
            |(match_, priority, actions, release, which)| Op::Rule {
                match_,
                priority,
                actions,
                release: release.then_some(which),
            }
        ),
        6 => (1u32..4, arb_traffic()).prop_map(|(in_port, frame)| Op::Frame { in_port, frame }),
        1 => (any::<usize>(), arb_actions()).prop_map(|(which, actions)| Op::OutBuffered { which, actions }),
        1 => (1u32..4, arb_traffic(), arb_actions())
            .prop_map(|(in_port, frame, actions)| Op::OutInline { in_port, frame, actions }),
    ]
}

/// Buffer ids announced by the `PACKET_IN`s among `effects`.
fn parked(effects: &[Effect]) -> impl Iterator<Item = u32> + '_ {
    effects.iter().filter_map(|e| match e {
        Effect::ToController(bytes) => match Message::decode(bytes).ok()?.1 {
            Message::PacketIn { buffer_id, .. } if buffer_id != OFP_NO_BUFFER => Some(buffer_id),
            _ => None,
        },
        _ => None,
    })
}

proptest! {
    /// Random rule sets (set-field chains, several outputs, FLOOD, output to
    /// the controller, drop) under random traffic, buffered releases and
    /// packet-outs: the byte executor emits the effects the structured
    /// route emits — every forwarded frame byte for byte, every `PACKET_IN`
    /// with the same xid — and leaves the same switch and per-flow counters.
    #[test]
    fn byte_executor_equals_structured_oracle(ops in prop::collection::vec(arb_op(), 1..40)) {
        let config = SwitchConfig { datapath_id: 1, n_buffers: 3, miss_send_len: 96, ports: vec![1, 2, 3] };
        let mut real = Switch::new(config.clone());
        let mut oracle = StructuredSwitch::new(config);
        let mut buffer_ids: Vec<u32> = Vec::new();
        for (step, op) in ops.into_iter().enumerate() {
            let now = SimTime::from_millis(step as u64);
            let mut pick = |which: usize| match buffer_ids.len() {
                0 => 999,
                n => buffer_ids.swap_remove(which % n),
            };
            let (got, want) = match op {
                Op::Frame { in_port, frame } => {
                    let data = frame.encode();
                    (real.handle_frame(now, in_port, &data), oracle.handle_frame(now, in_port, &data))
                }
                Op::Rule { match_, priority, actions, release } => {
                    let fm = Message::FlowMod {
                        cookie: step as u64,
                        table_id: 0,
                        command: FlowModCommand::Add,
                        idle_timeout: 0,
                        hard_timeout: 0,
                        priority,
                        buffer_id: release.map_or(OFP_NO_BUFFER, &mut pick),
                        flags: 0,
                        match_,
                        instructions: vec![Instruction::ApplyActions(actions)],
                    }
                    .encode(step as u32);
                    (real.handle_controller(now, &fm).unwrap(), oracle.handle_controller(now, &fm))
                }
                Op::OutBuffered { which, actions } => {
                    let po = Message::PacketOut { buffer_id: pick(which), in_port: 1, actions, data: vec![] }
                        .encode(step as u32);
                    (real.handle_controller(now, &po).unwrap(), oracle.handle_controller(now, &po))
                }
                Op::OutInline { in_port, frame, actions } => {
                    let po = Message::PacketOut { buffer_id: OFP_NO_BUFFER, in_port, actions, data: frame.encode() }
                        .encode(step as u32);
                    (real.handle_controller(now, &po).unwrap(), oracle.handle_controller(now, &po))
                }
            };
            prop_assert_eq!(&got, &want, "step {}", step);
            buffer_ids.extend(parked(&got));
        }
        prop_assert_eq!(
            (real.fast_path_packets, real.table_misses, real.buffered()),
            (oracle.fast_path_packets, oracle.table_misses, oracle.buffers.len())
        );
        let stats = |t: &FlowTable| {
            t.entries()
                .map(|e| (e.cookie, e.packet_count, e.byte_count, e.last_hit))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(stats(real.table()), stats(&oracle.table));
    }

    /// A frame damaged anywhere in its IPv4 or TCP part, or cut short, is
    /// dropped by a switch whose table would have rewritten and forwarded
    /// it; nothing panics, nothing is counted as a hit or a miss.
    #[test]
    fn damaged_frames_are_dropped(frame in arb_traffic(), at in any::<u16>(), flip in 1u8..=255, cut in any::<u16>()) {
        let mut s = sw(8);
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
            instructions: vec![Instruction::ApplyActions(vec![
                Action::SetField(OxmField::Ipv4Dst([10, 0, 0, 5])),
                Action::SetField(OxmField::TcpSrc(1234)),
                Action::output(2),
            ])],
        };
        s.handle_controller(SimTime::ZERO, &fm.encode(1)).unwrap();
        let valid = frame.encode();
        let mut damaged = valid.clone();
        let at = 14 + at as usize % (valid.len() - 14);
        damaged[at] ^= flip;
        prop_assert_eq!(s.handle_frame(SimTime::ZERO, 1, &damaged), vec![Effect::Drop], "byte {}", at);
        let short = &valid[..cut as usize % valid.len()];
        prop_assert_eq!(s.handle_frame(SimTime::ZERO, 1, short), vec![Effect::Drop]);
        prop_assert_eq!(s.fast_path_packets + s.table_misses, 0);
        prop_assert!(matches!(s.handle_frame(SimTime::ZERO, 1, &valid)[0], Effect::Forward { port: 2, .. }));
    }
}

/// Frames the encoder cannot produce — Ethernet padding, a TTL other than
/// 64, TCP options — are real traffic. The switch still verifies both
/// checksums, still rewrites and forwards, and — unlike the re-encode route
/// it replaced, which normalised TTL to 64, recomputed `ident` and stripped
/// options and padding — leaves every byte the rule does not name as it
/// arrived.
#[test]
fn frames_the_encoder_cannot_produce_are_verified_forwarded_and_preserved() {
    let (src, dst) = (Ipv4Addr::new(192, 168, 1, 20), Ipv4Addr::new(203, 0, 113, 10));
    let mut data = Vec::new();
    wire::encode_eth(
        &mut data,
        &wire::EthHeader { dst: MacAddr::from_id(2), src: MacAddr::from_id(1), ethertype: wire::ETHERTYPE_IPV4 },
    );
    let options = [2u8, 4, 0x05, 0xb4]; // MSS 1460
    let payload = b"hello";
    let tcp_len = wire::TCP_HEADER_LEN + options.len() + payload.len();
    let ip = wire::Ipv4Header { src, dst, protocol: wire::IPPROTO_TCP, ttl: 17, total_len: 0, ident: 0xbeef };
    wire::encode_ipv4(&mut data, &ip, tcp_len);
    let tcp_at = data.len();
    data.extend_from_slice(&50000u16.to_be_bytes());
    data.extend_from_slice(&80u16.to_be_bytes());
    data.extend_from_slice(&7u32.to_be_bytes());
    data.extend_from_slice(&9u32.to_be_bytes());
    data.extend_from_slice(&[6 << 4, 0x18]); // data offset 6 words: one word of options
    data.extend_from_slice(&[0x12, 0x34, 0, 0, 0, 0]); // window, checksum, urgent
    data.extend_from_slice(&options);
    data.extend_from_slice(payload);
    let pseudo: u32 = [src, dst]
        .iter()
        .flat_map(|a| a.octets())
        .collect::<Vec<u8>>()
        .chunks(2)
        .map(|w| u32::from(u16::from_be_bytes([w[0], w[1]])))
        .sum::<u32>()
        + u32::from(wire::IPPROTO_TCP)
        + tcp_len as u32;
    let csum = wire::internet_checksum(&data[tcp_at..], pseudo);
    data[tcp_at + 16..tcp_at + 18].copy_from_slice(&csum.to_be_bytes());
    data.extend_from_slice(&[0xaa; 7]); // Ethernet padding
    let parsed = TcpHeaders::parse(&data).expect("hand-built frame verifies");
    assert_eq!((parsed.payload_len, parsed.seq, parsed.ack), (payload.len(), 7, 9));

    let mut s = sw(8);
    let fm = Message::FlowMod {
        cookie: 0,
        table_id: 0,
        command: FlowModCommand::Add,
        idle_timeout: 0,
        hard_timeout: 0,
        priority: 1,
        buffer_id: OFP_NO_BUFFER,
        flags: 0,
        match_: Match::service(dst.octets(), 80),
        instructions: vec![Instruction::ApplyActions(vec![
            Action::SetField(OxmField::EthDst(MacAddr::from_id(200).octets())),
            Action::SetField(OxmField::Ipv4Dst([10, 0, 0, 5])),
            Action::SetField(OxmField::TcpDst(31080)),
            Action::output(3),
        ])],
    };
    s.handle_controller(SimTime::ZERO, &fm.encode(1)).unwrap();

    // Still verified: one flipped payload or option byte and it is dropped.
    for at in [tcp_at + 21, tcp_at + 25] {
        let mut bad = data.clone();
        bad[at] ^= 0x40;
        assert_eq!(s.handle_frame(SimTime::ZERO, 1, &bad), vec![Effect::Drop]);
    }
    // Still forwarded, rewritten and verifiable.
    let effects = s.handle_frame(SimTime::ZERO, 1, &data);
    let [Effect::Forward { port: 3, data: out }] = &effects[..] else {
        panic!("unexpected {effects:?}");
    };
    let h = TcpHeaders::parse(out).expect("forwarded frame verifies");
    assert_eq!((h.dst_mac, h.dst_ip, h.dst_port), (MacAddr::from_id(200), Ipv4Addr::new(10, 0, 0, 5), 31080));
    assert_eq!((h.src_mac, h.src_ip, h.src_port), (parsed.src_mac, parsed.src_ip, parsed.src_port));
    // Everything the rule does not name is byte-identical: TTL, ident (the
    // source port did not change), the TCP header past the ports, options,
    // payload, padding.
    assert_eq!(out.len(), data.len());
    let named = [0..6, 24..26, 30..34, 36..38, 50..52]; // dst MAC, IP csum, dst IP, dst port, TCP csum
    for (i, (a, b)) in out.iter().zip(&data).enumerate() {
        if !named.iter().any(|r| r.contains(&i)) {
            assert_eq!(a, b, "byte {i} changed");
        }
    }
    assert_eq!(out[22], 17, "TTL kept");
}
