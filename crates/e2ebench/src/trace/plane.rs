//! The layer-replay core: real switches and a real controller joined by a
//! control channel without latency, with a span around every call.
//!
//! A driver feeds frames (captured or synthesized) in time order through
//! [`Plane::frame`]; table misses travel to the controller as the real
//! OpenFlow bytes and its answers come back at the instant it stamped on
//! them; [`Plane::advance`] runs the controller's idle sweep and the
//! switches' flow expiry whenever replayed time passes `next_tick_at()` /
//! `next_expiry()`.

use super::spans::{set_request, span, span_as, Op, NONE};
use crate::alloc;
use desim::{SimRng, SimTime};
use edgectl::{Controller, IngressId, OutboundMessage};
use ovs::{Effect, Switch};

/// `PACKET_IN` / `FLOW_REMOVED` / `PACKET_OUT` / `FLOW_MOD` in byte 1 of an
/// OpenFlow 1.3 header.
const T_PACKET_IN: u8 = 10;
const T_FLOW_REMOVED: u8 = 11;
const T_PACKET_OUT: u8 = 13;
const T_FLOW_MOD: u8 = 14;

/// Control messages and frames kept for the codec passes, at most.
const LOG_CAP: usize = 400_000;

/// Calls a sweep gets at one instant before the replay moves on. A sweep at
/// a due instant normally pushes its own deadline forward (the testbeds rely
/// on that too); the cap only keeps a bug there from hanging the replay.
const SWEEPS_PER_INSTANT: u32 = 16;

/// When a periodic sweep last ran, and how often at that instant.
#[derive(Clone, Copy, Default)]
struct Sweep {
    at: Option<SimTime>,
    calls: u32,
}

impl Sweep {
    fn due(&self, t: SimTime) -> bool {
        self.at != Some(t) || self.calls < SWEEPS_PER_INSTANT
    }

    fn ran(&mut self, t: SimTime) {
        if self.at == Some(t) {
            self.calls += 1;
        } else {
            *self = Sweep {
                at: Some(t),
                calls: 1,
            };
        }
    }
}

/// A controller→switch message waiting for its instant.
struct Pending {
    at: SimTime,
    gnb: usize,
    request: u32,
    data: Vec<u8>,
}

/// A frame a switch emitted.
pub struct Forwarded {
    /// Switch that emitted it.
    pub gnb: usize,
    /// Egress port.
    pub port: u32,
    /// Request the frame belongs to.
    pub request: u32,
    /// Frame bytes.
    pub data: Vec<u8>,
}

/// Counts read at the layer boundaries during a replay.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlaneStats {
    /// Frames fed to a switch.
    pub frames: u64,
    /// Their bytes on the wire.
    pub frame_bytes: u64,
    /// Frames that ended in a `PACKET_IN`.
    pub misses: u64,
    /// Switch→controller messages and their bytes.
    pub msgs_up: u64,
    /// Bytes of switch→controller messages.
    pub bytes_up: u64,
    /// Controller→switch messages.
    pub msgs_down: u64,
    /// Bytes of controller→switch messages.
    pub bytes_down: u64,
    /// `PACKET_IN`s the controller handled.
    pub packet_ins: u64,
    /// Messages it answered them with.
    pub packet_in_msgs_out: u64,
    /// Heap calls inside those `handle_switch_message` calls.
    pub packet_in_allocs: u64,
    /// Flows removed by `expire_flows`.
    pub flows_expired: u64,
    /// Largest flow table seen on any switch.
    pub table_flows_peak: u64,
    /// Frames a switch dropped and messages a side could not decode.
    pub drops: u64,
}

/// Switches and controller under replay.
pub struct Plane {
    /// The switches, one per ingress.
    pub switches: Vec<Switch>,
    /// The controller.
    pub controller: Controller,
    rng: SimRng,
    /// Ascending by `at`, first queued first among equals.
    pending: Vec<Pending>,
    /// Replayed time: the instant of the last call.
    cursor: SimTime,
    /// Frames the switches emitted since the driver last drained this.
    pub outbox: Vec<Forwarded>,
    /// Boundary counts.
    pub stats: PlaneStats,
    /// Every control message seen, either direction (up to a cap).
    pub control_log: Vec<Vec<u8>>,
    /// Every frame fed in, when `log_frames` is set (up to a cap).
    pub frame_log: Vec<Vec<u8>>,
    /// Keep fed frames in `frame_log` (drivers without a capture).
    pub log_frames: bool,
    /// Sim instant (ns) of every call into a layer, in call order.
    pub call_times: Vec<u64>,
    tick: Sweep,
    expiry: Vec<Sweep>,
}

impl Plane {
    /// A plane over `switches` (index = ingress id) and `controller`.
    pub fn new(switches: Vec<Switch>, controller: Controller, seed: u64) -> Plane {
        let n = switches.len();
        Plane {
            switches,
            controller,
            rng: SimRng::new(seed ^ 0x7265_706c_6179), // "replay"
            pending: Vec::new(),
            cursor: SimTime::ZERO,
            outbox: Vec::new(),
            stats: PlaneStats::default(),
            control_log: Vec::new(),
            frame_log: Vec::new(),
            log_frames: false,
            call_times: Vec::new(),
            tick: Sweep::default(),
            expiry: vec![Sweep::default(); n],
        }
    }

    /// Calls into the controller with the replay's random stream (set-up,
    /// and calls a driver makes itself).
    pub fn with_controller<R>(&mut self, f: impl FnOnce(&mut Controller, &mut SimRng) -> R) -> R {
        f(&mut self.controller, &mut self.rng)
    }

    fn log_control(&mut self, data: &[u8]) {
        if self.control_log.len() < LOG_CAP {
            self.control_log.push(data.to_vec());
        }
    }

    /// Queues controller output for delivery at the instants stamped on it.
    pub fn enqueue(&mut self, now: SimTime, gnb: usize, request: u32, m: OutboundMessage) {
        self.stats.msgs_down += 1;
        self.stats.bytes_down += m.data.len() as u64;
        self.log_control(&m.data);
        let at = m.at.max(now);
        let after = self.pending.partition_point(|p| p.at <= at);
        self.pending.insert(
            after,
            Pending {
                at,
                gnb,
                request,
                data: m.data,
            },
        );
    }

    /// Feeds one frame to switch `gnb`.
    pub fn frame(&mut self, now: SimTime, gnb: usize, in_port: u32, data: &[u8], request: u32) {
        self.stats.frames += 1;
        self.stats.frame_bytes += data.len() as u64;
        self.call_times.push(now.as_nanos());
        if self.log_frames && self.frame_log.len() < LOG_CAP {
            self.frame_log.push(data.to_vec());
        }
        set_request(request);
        let sw = &mut self.switches[gnb];
        let missed = |effects: &Vec<Effect>| {
            effects
                .iter()
                .any(|e| matches!(e, Effect::ToController(_)))
                .then_some(Op::OvsMiss)
        };
        let effects = span_as(Op::OvsHit, missed, || sw.handle_frame(now, in_port, data));
        if missed(&effects).is_some() {
            self.stats.misses += 1;
        }
        self.effects(now, gnb, effects, request);
    }

    fn effects(&mut self, now: SimTime, gnb: usize, effects: Vec<Effect>, request: u32) {
        for e in effects {
            match e {
                Effect::Forward { port, data } => self.outbox.push(Forwarded {
                    gnb,
                    port,
                    request,
                    data,
                }),
                Effect::ToController(bytes) => self.send_up(now, gnb, &bytes, request),
                Effect::Drop => self.stats.drops += 1,
            }
        }
    }

    fn send_up(&mut self, now: SimTime, gnb: usize, bytes: &[u8], request: u32) {
        self.stats.msgs_up += 1;
        self.stats.bytes_up += bytes.len() as u64;
        self.log_control(bytes);
        self.call_times.push(now.as_nanos());
        let op = match bytes.get(1) {
            Some(&T_PACKET_IN) => Op::EdgectlPacketIn,
            Some(&T_FLOW_REMOVED) => Op::EdgectlFlowRemoved,
            _ => Op::EdgectlOther,
        };
        set_request(request);
        let ingress = IngressId(gnb as u32);
        let (controller, rng) = (&mut self.controller, &mut self.rng);
        let calls = alloc::calls();
        let out = span(op, || {
            controller.handle_switch_message_from(ingress, now, bytes, rng)
        });
        let calls = alloc::calls() - calls;
        let Ok(out) = out else {
            self.stats.drops += 1;
            return;
        };
        if op == Op::EdgectlPacketIn {
            self.stats.packet_ins += 1;
            self.stats.packet_in_msgs_out += out.len() as u64;
            self.stats.packet_in_allocs += calls;
        }
        for m in out {
            self.enqueue(now, gnb, request, m);
        }
    }

    fn deliver(&mut self, now: SimTime, p: Pending) {
        self.call_times.push(now.as_nanos());
        let op = match p.data.get(1) {
            Some(&T_FLOW_MOD) => Op::OvsFlowMod,
            Some(&T_PACKET_OUT) => Op::OvsPacketOut,
            _ => Op::OvsOther,
        };
        set_request(p.request);
        let sw = &mut self.switches[p.gnb];
        let effects = span(op, || sw.handle_controller(now, &p.data));
        let flows = self.switches[p.gnb].table().len() as u64;
        self.stats.table_flows_peak = self.stats.table_flows_peak.max(flows);
        match effects {
            Ok(effects) => self.effects(now, p.gnb, effects, p.request),
            Err(_) => self.stats.drops += 1,
        }
    }

    /// Delivers, right now, whatever the controller still holds for
    /// `request`. A frame of a flow can only exist once the frames before it
    /// were released, so a driver calls this before feeding the next one:
    /// the replay's controller draws other processing delays than the
    /// recorded run's did, and must not fall behind its own data plane.
    pub fn flush_request(&mut self, now: SimTime, request: u32) {
        while let Some(i) = self.pending.iter().position(|p| p.request == request) {
            let p = self.pending.remove(i);
            self.deliver(now, p);
        }
    }

    /// Runs everything due up to and including `to`, in time order: queued
    /// controller output, the controller's idle sweep, flow expiry.
    pub fn advance(&mut self, to: SimTime) {
        loop {
            // Deadlines already behind replayed time run at replayed time.
            let cursor = self.cursor;
            let tick = self
                .controller
                .next_tick_at()
                .map(|t| t.max(cursor))
                .filter(|&t| t <= to && self.tick.due(t));
            let expiry = (0..self.switches.len())
                .filter_map(|g| {
                    let t = self.switches[g].next_expiry()?.max(cursor);
                    (t <= to && self.expiry[g].due(t)).then_some((t, g))
                })
                .min();
            let pending = self.pending.first().map(|p| p.at).filter(|&t| t <= to);
            let next = [pending, tick, expiry.map(|(t, _)| t)]
                .into_iter()
                .flatten()
                .min();
            let Some(now) = next else {
                self.cursor = self.cursor.max(to);
                return;
            };
            self.cursor = now;
            if pending == Some(now) {
                let p = self.pending.remove(0);
                self.deliver(now, p);
            } else if tick == Some(now) {
                self.tick.ran(now);
                self.call_times.push(now.as_nanos());
                set_request(NONE);
                let (controller, rng) = (&mut self.controller, &mut self.rng);
                span(Op::EdgectlTick, || controller.tick(now, rng));
            } else if let Some((_, g)) = expiry {
                self.expiry[g].ran(now);
                self.call_times.push(now.as_nanos());
                set_request(NONE);
                let sw = &mut self.switches[g];
                let before = sw.table().len();
                let effects = span(Op::OvsExpire, || sw.expire_flows(now));
                let after = self.switches[g].table().len();
                self.stats.flows_expired += before.saturating_sub(after) as u64;
                self.effects(now, g, effects, NONE);
            }
        }
    }
}
