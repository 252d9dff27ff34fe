//! Timing passes over recorded inputs: the two codecs, the event queue and
//! the metrics registry, each called the way the stack calls it.

use crate::alloc;
use desim::{Duration, Engine, SimTime};
use netsim::TcpFrame;
use openflow::Message;
use std::hint::black_box;
use std::time::Instant;
use telemetry::MetricsRegistry;

/// Items timed between two clock reads: enough that the reads vanish, few
/// enough that the decoded values of a chunk stay in cache.
const CHUNK: usize = 256;

/// Mean cost of one encode and one decode.
#[derive(Clone, Copy, Debug, Default)]
pub struct CodecCost {
    /// Items timed.
    pub items: u64,
    /// Mean ns per `encode`.
    pub encode_ns: f64,
    /// Mean ns per `decode`.
    pub decode_ns: f64,
    /// Heap calls per item, encode and decode together.
    pub allocs_per_item: f64,
}

fn codec_pass<T>(
    inputs: &[&[u8]],
    decode: impl Fn(&[u8]) -> Option<T>,
    encode: impl Fn(&T) -> Vec<u8>,
) -> CodecCost {
    let (mut decode_ns, mut encode_ns, mut allocs, mut items) = (0u128, 0u128, 0u64, 0u64);
    let mut decoded: Vec<T> = Vec::with_capacity(CHUNK);
    let mut encoded: Vec<Vec<u8>> = Vec::with_capacity(CHUNK);
    for chunk in inputs.chunks(CHUNK) {
        let calls = alloc::calls();
        let t = Instant::now();
        decoded.extend(chunk.iter().filter_map(|&bytes| decode(black_box(bytes))));
        decode_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        encoded.extend(decoded.iter().map(|item| encode(black_box(item))));
        encode_ns += t.elapsed().as_nanos();
        allocs += alloc::calls() - calls;
        items += decoded.len() as u64;
        black_box(&encoded);
        decoded.clear();
        encoded.clear();
    }
    let n = items.max(1) as f64;
    CodecCost {
        items,
        encode_ns: encode_ns as f64 / n,
        decode_ns: decode_ns as f64 / n,
        allocs_per_item: allocs as f64 / n,
    }
}

/// Times `TcpFrame::{decode, encode}` over `frames`.
pub fn frame_codec(frames: &[&[u8]]) -> CodecCost {
    codec_pass(frames, |b| TcpFrame::decode(b).ok(), TcpFrame::encode)
}

/// Times `openflow::Message::{decode, encode}` over `messages`.
pub fn openflow_codec(messages: &[&[u8]]) -> CodecCost {
    codec_pass(
        messages,
        |b| Message::decode(b).ok().map(|(xid, msg, _)| (xid, msg)),
        |(xid, msg)| msg.encode(*xid),
    )
}

/// Mean cost of the event queue's two operations.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineCost {
    /// Mean ns per `schedule_at`.
    pub schedule_ns: f64,
    /// Mean ns per `pop_until`.
    pub pop_ns: f64,
    /// The queue's high-water mark during the pass.
    pub peak_pending: u64,
}

/// An event the size of the testbeds' (an enum around a `Vec<u8>`).
type Payload = [u64; 5];

/// Replays recorded instants through `Engine::{schedule_at, pop_until}`:
/// `upfront` are scheduled before anything pops, as the testbeds schedule
/// their whole trace, and `stream` — the instants of the recorded calls, in
/// call order — flows through in chunks, scheduled a chunk ahead of being
/// popped.
pub fn engine_pass(upfront: &[u64], stream: &[u64]) -> EngineCost {
    let mut engine: Engine<Payload> = Engine::with_capacity(upfront.len() + 2 * CHUNK);
    let (mut schedule_ns, mut pop_ns, mut scheduled, mut popped) = (0u128, 0u128, 0u64, 0u64);
    let t = Instant::now();
    for &at in upfront {
        engine.schedule_at(SimTime::from_nanos(at), [at; 5]);
    }
    schedule_ns += t.elapsed().as_nanos();
    scheduled += upfront.len() as u64;
    for chunk in stream.chunks(CHUNK) {
        let t = Instant::now();
        for &at in chunk {
            // Instants behind the queue's clock are clamped, as a testbed's
            // own late events are.
            engine.schedule_at(SimTime::from_nanos(at), [at; 5]);
        }
        schedule_ns += t.elapsed().as_nanos();
        scheduled += chunk.len() as u64;
        let until = SimTime::from_nanos(chunk.iter().copied().max().unwrap_or(0));
        let t = Instant::now();
        while let Some(ev) = engine.pop_until(until) {
            black_box(ev);
            popped += 1;
        }
        pop_ns += t.elapsed().as_nanos();
    }
    let t = Instant::now();
    while let Some(ev) = engine.pop_until(SimTime::MAX) {
        black_box(ev);
        popped += 1;
    }
    pop_ns += t.elapsed().as_nanos();
    EngineCost {
        schedule_ns: schedule_ns as f64 / scheduled.max(1) as f64,
        pop_ns: pop_ns as f64 / popped.max(1) as f64,
        peak_pending: engine.peak_pending() as u64,
    }
}

/// Mean cost of the metrics registry's two recording calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct TelemetryCost {
    /// Mean ns per `inc`.
    pub bump_ns: f64,
    /// Mean ns per `observe`.
    pub observe_ns: f64,
    /// Heap calls per `inc`.
    pub allocs_per_bump: f64,
}

/// Times `MetricsRegistry::{inc, observe}` on a copy of `registry` — the
/// key set a finished run left behind — cycling through its own names.
pub fn telemetry_pass(
    registry: &MetricsRegistry,
    counters: &[String],
    histograms: &[String],
    calls: usize,
) -> TelemetryCost {
    let mut m = registry.clone();
    let mut cost = TelemetryCost::default();
    if !counters.is_empty() {
        let allocs = alloc::calls();
        let t = Instant::now();
        for name in counters.iter().cycle().take(calls) {
            m.inc(black_box(name));
        }
        cost.bump_ns = t.elapsed().as_nanos() as f64 / calls as f64;
        cost.allocs_per_bump = (alloc::calls() - allocs) as f64 / calls as f64;
    }
    if !histograms.is_empty() {
        let t = Instant::now();
        for (i, name) in histograms.iter().cycle().take(calls).enumerate() {
            m.observe(
                black_box(name),
                Duration::from_micros(100 + (i % 64) as u64),
            );
        }
        cost.observe_ns = t.elapsed().as_nanos() as f64 / calls as f64;
    }
    black_box(m);
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{Ipv4Addr, MacAddr, ServiceAddr};

    #[test]
    fn codec_passes_count_what_decodes() {
        let frame = TcpFrame::syn(
            MacAddr::from_id(1),
            MacAddr::from_id(2),
            Ipv4Addr::new(10, 0, 0, 1),
            5000,
            ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 1), 80),
        );
        let (good, bad) = (frame.encode(), vec![1, 2, 3]);
        let cost = frame_codec(&[&good, &bad, &good]);
        assert_eq!(cost.items, 2, "garbage is skipped, not timed");
        assert!(cost.encode_ns > 0.0 && cost.decode_ns > 0.0);
        let msgs = [Message::Hello.encode(7), Message::BarrierRequest.encode(8)];
        assert_eq!(openflow_codec(&[&msgs[0], &msgs[1]]).items, 2);
        assert_eq!(openflow_codec(&[]).items, 0);
    }

    #[test]
    fn engine_pass_pops_everything_it_schedules() {
        let upfront: Vec<u64> = (0..1000).map(|i| i * 1_000).collect();
        let stream: Vec<u64> = (0..5000).map(|i| i * 200).collect();
        let cost = engine_pass(&upfront, &stream);
        assert!(
            cost.peak_pending >= 1000,
            "the upfront trace sits in the queue"
        );
        assert!(cost.schedule_ns > 0.0 && cost.pop_ns > 0.0);
    }

    #[test]
    fn telemetry_pass_leaves_the_registry_alone() {
        let mut m = MetricsRegistry::new();
        m.inc("a_total");
        m.observe("h_ns", Duration::from_micros(5));
        let cost = telemetry_pass(&m, &["a_total".to_owned()], &["h_ns".to_owned()], 1000);
        assert!(cost.bump_ns > 0.0 && cost.observe_ns > 0.0);
        assert_eq!(m.counter("a_total"), 1);
        assert_eq!(telemetry_pass(&m, &[], &[], 10).bump_ns, 0.0);
    }
}
