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
use openflow::messages::{FlowModCommand, Message, PacketInReason, OFPFF_SEND_FLOW_REM};
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

/// What an [`Op`] puts into a switch.
enum Input {
    Frame { in_port: u32, data: Vec<u8> },
    Control(Vec<u8>),
}

/// Encodes `op` as step `step` of a run; `pick` names a parked buffer.
fn input_of(op: Op, step: usize, mut pick: impl FnMut(usize) -> u32) -> Input {
    let msg = match op {
        Op::Frame { in_port, frame } => return Input::Frame { in_port, data: frame.encode() },
        Op::Rule { match_, priority, actions, release } => Message::FlowMod {
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
        },
        Op::OutBuffered { which, actions } => {
            Message::PacketOut { buffer_id: pick(which), in_port: 1, actions, data: vec![] }
        }
        Op::OutInline { in_port, frame, actions } => {
            Message::PacketOut { buffer_id: OFP_NO_BUFFER, in_port, actions, data: frame.encode() }
        }
    };
    Input::Control(msg.encode(step as u32))
}

/// Takes parked buffer id number `which` (a stale id when none is parked).
fn pick_from(buffer_ids: &mut Vec<u32>) -> impl FnMut(usize) -> u32 + '_ {
    |which| match buffer_ids.len() {
        0 => 999,
        n => buffer_ids.swap_remove(which % n),
    }
}

/// [`Op`]s plus what the structured oracle is not fed: rules that time out
/// and say so, deletes, expiry sweeps and bytes that are no message.
#[derive(Clone, Debug)]
enum SinkOp {
    Plain(Op),
    Control(Message),
    Garbage(Vec<u8>),
    Expire { after_ms: u64 },
}

fn arb_sink_op() -> impl Strategy<Value = SinkOp> {
    let flow_mod = |command, match_, priority, actions| Message::FlowMod {
        cookie: 7,
        table_id: 0,
        command,
        idle_timeout: 1,
        hard_timeout: 2,
        priority,
        buffer_id: OFP_NO_BUFFER,
        flags: OFPFF_SEND_FLOW_REM,
        match_,
        instructions: vec![Instruction::ApplyActions(actions)],
    };
    prop_oneof![
        8 => arb_op().prop_map(SinkOp::Plain),
        3 => (arb_match(), 0u16..4, arb_actions())
            .prop_map(move |(m, p, a)| SinkOp::Control(flow_mod(FlowModCommand::Add, m, p, a))),
        1 => arb_match().prop_map(move |m| SinkOp::Control(flow_mod(FlowModCommand::Delete, m, 0, vec![]))),
        1 => Just(SinkOp::Control(Message::BarrierRequest)),
        1 => prop::collection::vec(any::<u8>(), 0..40).prop_map(SinkOp::Garbage),
        2 => (0u64..1500).prop_map(|after_ms| SinkOp::Expire { after_ms }),
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
            let (got, want) = match input_of(op, step, pick_from(&mut buffer_ids)) {
                Input::Frame { in_port, data } => {
                    (real.handle_frame(now, in_port, &data), oracle.handle_frame(now, in_port, &data))
                }
                Input::Control(bytes) => {
                    (real.handle_controller(now, &bytes).unwrap(), oracle.handle_controller(now, &bytes))
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

    /// The sink contract of `ovs::Switch` ("Effect sinks"): on random rules
    /// (plain, and timed ones that report their removal), traffic, buffered
    /// releases, packet-outs, deletes, expiry sweeps and undecodable control
    /// bytes, the `_into` forms leave what the sink already held untouched
    /// and append exactly what the `Vec`-returning wrappers return on a twin
    /// switch — xids included — or nothing at all when the call fails; both
    /// twins end with the same counters, buffers, table and next expiry.
    #[test]
    fn into_forms_append_what_the_wrappers_return(
        ops in prop::collection::vec(arb_sink_op(), 1..40),
        k in 0usize..4,
    ) {
        let config = SwitchConfig { datapath_id: 1, n_buffers: 3, miss_send_len: 96, ports: vec![1, 2, 3] };
        let (mut wrapped, mut sunk) = (Switch::new(config.clone()), Switch::new(config));
        let sentinels: Vec<Effect> =
            (0..k).map(|i| Effect::Forward { port: 0xdead, data: vec![i as u8; i] }).collect();
        let mut buffer_ids: Vec<u32> = Vec::new();
        let mut now = SimTime::ZERO;
        for (step, op) in ops.into_iter().enumerate() {
            now += Duration::from_millis(1);
            let mut sink = sentinels.clone();
            let input = match op {
                SinkOp::Plain(op) => Some(input_of(op, step, pick_from(&mut buffer_ids))),
                SinkOp::Control(msg) => Some(Input::Control(msg.encode(step as u32))),
                SinkOp::Garbage(bytes) => Some(Input::Control(bytes)),
                SinkOp::Expire { after_ms } => {
                    now += Duration::from_millis(after_ms);
                    None
                }
            };
            let want = match input {
                Some(Input::Frame { in_port, data }) => {
                    sunk.handle_frame_into(now, in_port, data.clone(), &mut sink);
                    Ok(wrapped.handle_frame(now, in_port, &data))
                }
                Some(Input::Control(bytes)) => {
                    let failed = sunk.handle_controller_into(now, &bytes, &mut sink).is_err();
                    let want = wrapped.handle_controller(now, &bytes);
                    prop_assert_eq!(failed, want.is_err(), "step {}", step);
                    want
                }
                None => {
                    sunk.expire_flows_into(now, &mut sink);
                    Ok(wrapped.expire_flows(now))
                }
            };
            prop_assert_eq!(&sink[..k], &sentinels[..], "step {}: the sink's contents were touched", step);
            // A failed call appended nothing.
            let want = want.unwrap_or_default();
            prop_assert_eq!(&sink[k..], &want[..], "step {}", step);
            buffer_ids.extend(parked(&want));
        }
        let state = |s: &Switch| {
            let flows: Vec<_> = s
                .table()
                .entries()
                .map(|e| (e.cookie, e.priority, e.packet_count, e.byte_count, e.last_hit))
                .collect();
            (s.fast_path_packets, s.table_misses, s.microflow_misses, s.buffered(), s.next_expiry(), flows)
        };
        prop_assert_eq!(state(&sunk), state(&wrapped));
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

/// `execute`'s "an action list with no output is a `Drop`" counts from the
/// sink's length at entry: the `Drop` arrives whatever the sink already
/// holds — for a frame through a set-field-only rule, and for the buffered
/// packet a `FLOW_MOD` releases through one.
#[test]
fn an_action_list_without_output_still_drops_into_a_sink_that_is_not_empty() {
    let held = Effect::ToController(vec![1, 2, 3]);
    let rule = |buffer_id| Message::FlowMod {
        cookie: 0,
        table_id: 0,
        command: FlowModCommand::Add,
        idle_timeout: 0,
        hard_timeout: 0,
        priority: 1,
        buffer_id,
        flags: 0,
        match_: Match::any(),
        instructions: vec![Instruction::ApplyActions(vec![Action::SetField(OxmField::TcpDst(81))])],
    };
    let frame = TcpFrame::syn(
        MacAddr::from_id(1),
        MacAddr::from_id(2),
        Ipv4Addr::new(10, 0, 0, 1),
        50000,
        netsim::ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80),
    )
    .encode();

    // The miss parks the frame; the rule's Add releases it into the sink.
    let mut s = sw(8);
    let mut sink = vec![held.clone()];
    s.handle_frame_into(SimTime::ZERO, 1, frame.clone(), &mut sink);
    let buffer_id = parked(&sink).next().expect("the miss was buffered");
    s.handle_controller_into(SimTime::ZERO, &rule(buffer_id).encode(1), &mut sink).unwrap();
    assert_eq!(sink.len(), 3);
    assert_eq!((&sink[0], &sink[2]), (&held, &Effect::Drop));
    // And the next frame, a table hit.
    s.handle_frame_into(SimTime::ZERO, 1, frame, &mut sink);
    assert_eq!((sink.len(), &sink[3]), (4, &Effect::Drop));
}
