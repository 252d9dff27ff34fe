//! The traced run: where the time of a workload goes, layer by layer.
//!
//! Everything here works from this crate's own files, through public
//! functions of the stack only; instrumenting inside the program is a later
//! change. A traced run has five parts:
//!
//! 1. the workload's real testbed once more, with capture on and with its
//!    controller swapped for a twin whose clusters and scheduler sit behind
//!    timing decorators ([`build`]) — cluster-sim and scheduler spans inside
//!    real controller calls, and a `sim_digest` that must not move;
//! 2. a layer replay ([`plane`], [`replay`]) that feeds the captured frames
//!    to a fresh switch and controller with a span around every call;
//! 3. codec passes over the captured frames and control messages;
//! 4. an engine pass over the recorded instants;
//! 5. a metrics-registry pass on the key set the run left behind
//!    (all three in [`passes`]).

pub mod build;
pub mod passes;
pub mod plane;
pub mod replay;
pub mod spans;

use crate::e2e::{self, controller_config, registry_keys, Measured, Outcome};
use crate::metrics::{Reading, PER_LAYER};
use crate::workloads::{Inputs, Size, Spec, Workload};
use edgectl::controller::RequestKind;
use edgectl::{Controller, ControllerConfig, EdgeService};
use passes::{CodecCost, EngineCost, TelemetryCost};
use plane::{Plane, PlaneStats};
use spans::{Op, OpStats, Tracer};
use std::path::{Path, PathBuf};
use std::time::Instant;
use telemetry::MetricsRegistry;

/// Room for the spans of one traced run (32 bytes each, untouched pages
/// cost nothing): several times the largest workload's call count.
const SPAN_CAPACITY: usize = 8_000_000;

/// Span trees written out per workload.
const TREES: u32 = 1_000;

/// Untraced reference runs; the fastest is the wall the shares divide.
const REFERENCE_RUNS: usize = 2;

/// Layer replays; the one that spent the least time inside spans is kept,
/// for the same reason the reference is the faster of two.
const REPLAY_RUNS: usize = 2;

/// Calls per timing loop of the registry pass.
const REGISTRY_CALLS: usize = 200_000;

/// Counters of the real switches, summed over them.
struct SwitchFacts {
    /// Frames handled, and those that missed.
    frames: u64,
    misses: u64,
    microflow_hits: u64,
    microflow_misses: u64,
}

/// What the traced end-to-end run (part 1) left behind.
struct Recorded {
    measured: Measured,
    outcome: Outcome,
    /// All spans, and those of the timed region only.
    ops_all: Vec<OpStats>,
    ops_timed: Vec<OpStats>,
    dropped_spans: u64,
    /// The run's registrations, in registration order.
    services: Vec<EdgeService>,
    /// The controller's registry (counters and histograms it recorded).
    registry: MetricsRegistry,
    switches: SwitchFacts,
    memory_lookups: u64,
    memory_hits: u64,
    packet_ins: u64,
    waited: u64,
    /// `engine.peak_pending`, where the testbed reports it.
    peak_pending: Option<u64>,
    layer_cache_hit_rate: f64,
}

impl Recorded {
    /// Reduces a finished traced run; takes the tracer installed for it and
    /// splits its spans at the start of the timed region (`wall_s` before
    /// the run returned, which is now).
    fn new(
        measured: Measured,
        outcome: Outcome,
        controller: &Controller,
        switches: SwitchFacts,
        peak_pending: Option<u64>,
    ) -> Recorded {
        let tracer = spans::install(None).expect("a tracer was installed for the run");
        let timed_from = tracer
            .now_ns()
            .saturating_sub((measured.wall_s * 1e9) as u64);
        let memory = controller.memory().stats;
        let waited = controller
            .records
            .iter()
            .filter(|r| r.kind == RequestKind::Waited)
            .count();
        let rates: Vec<f64> = (0..controller.cluster_count())
            .filter_map(|i| {
                controller
                    .cluster(i)
                    .telemetry_stats()
                    .into_iter()
                    .find_map(|(k, v)| (k == "layer_cache_hit_rate").then_some(v))
            })
            .collect();
        Recorded {
            measured,
            outcome,
            ops_all: tracer.aggregate(),
            ops_timed: tracer.aggregate_since(timed_from),
            dropped_spans: tracer.dropped(),
            services: controller.services().iter().cloned().collect(),
            registry: controller.telemetry.metrics.clone(),
            switches,
            memory_lookups: memory.lookups,
            memory_hits: memory.hits,
            packet_ins: controller.records.len() as u64,
            waited: waited as u64,
            peak_pending,
            layer_cache_hit_rate: ratio(rates.iter().sum(), rates.len() as f64),
        }
    }
}

/// Runs `replay` [`REPLAY_RUNS`] times under a fresh tracer each and keeps
/// the run whose spans add up to the least time.
fn fastest_replay(mut replay: impl FnMut() -> Plane) -> (Plane, Tracer) {
    let span_ns = |t: &Tracer| t.self_times().iter().sum::<u64>();
    (0..REPLAY_RUNS)
        .map(|_| {
            spans::install(Some(Tracer::with_capacity(SPAN_CAPACITY)));
            let plane = replay();
            (plane, spans::install(None).expect("installed above"))
        })
        .min_by_key(|(_, tracer)| span_ns(tracer))
        .expect("at least one replay")
}

/// Seconds of the untraced wall attributed to a layer: `(layer, seconds)`.
pub type Share = (&'static str, f64);

/// One workload's traced run, reduced.
pub struct TraceReport {
    /// The workload traced.
    pub workload: Workload,
    /// Seed of its inputs.
    pub seed: u64,
    /// Operations attempted / failed in the traced end-to-end run.
    pub attempted: u64,
    /// Operations that failed an output check.
    pub failed: u64,
    /// Output checks passed and the instrumented twin behaved like the
    /// stock controller (`sim_digest` equal to the untraced run's).
    pub correct: bool,
    /// Every [`PER_LAYER`] metric, in that order.
    pub metrics: Vec<Reading>,
    /// Seconds of the untraced wall attributed to each layer, `testbed`
    /// (the remainder) last.
    pub shares: Vec<Share>,
    /// The untraced wall the shares divide, seconds.
    pub wall_s: f64,
    /// Span statistics of the layer replay.
    pub replay_ops: Vec<OpStats>,
    /// Span statistics of the traced end-to-end run.
    pub e2e_ops: Vec<OpStats>,
    /// Calls that found a tracer full.
    pub dropped_spans: u64,
    /// Frames the replay fed against frames the real switches handled, and
    /// misses likewise: how far the replay strayed from the recorded run.
    pub replay_vs_real: [(u64, u64); 2],
    /// Where the span trees were written.
    pub spans_path: PathBuf,
}

/// Runs the traced pipeline for one workload.
pub fn run(
    workload: Workload,
    seed: u64,
    size: Size,
    out_dir: &Path,
) -> Result<TraceReport, String> {
    let spec = workload.spec(size);

    // The untraced reference: wall time to attribute, digest to match.
    let mut reference: Option<(Measured, Outcome)> = None;
    for _ in 0..REFERENCE_RUNS {
        let run = e2e::run_plain(&spec, seed);
        if reference
            .as_ref()
            .is_none_or(|(m, _)| run.0.wall_s < m.wall_s)
        {
            reference = Some(run);
        }
    }
    let (plain, plain_outcome) = reference.expect("at least one reference run");

    let generated = Instant::now();
    let inputs = Inputs::generate(&spec, seed);
    let generate_ns = generated.elapsed().as_nanos() as f64 / inputs.ops().max(1) as f64;

    // Parts 1 and 2: the traced end-to-end run, then the layer replay.
    spans::install(Some(Tracer::with_capacity(SPAN_CAPACITY)));
    let (recorded, replayed, frame_cost, upfront) = match &spec {
        Spec::Requests(s) => {
            let run = e2e::run_requests(s, seed, 1, |tb| {
                tb.controller =
                    build::c3_controller(tb.topology(), s.cluster, controller_config(s));
                tb.enable_capture();
            });
            let tb = &run.tb;
            let sw = tb.switch();
            let capture = tb.capture().expect("capture was enabled");
            let recorded = Recorded::new(
                run.measured,
                run.outcome(),
                &tb.controller,
                SwitchFacts {
                    frames: capture.len() as u64,
                    misses: sw.table_misses,
                    microflow_hits: sw.microflow_hits,
                    microflow_misses: sw.microflow_misses,
                },
                tb.telemetry_snapshot()
                    .gauge("engine.peak_pending")
                    .map(|v| v as u64),
            );
            let (plane, replay_tracer) = fastest_replay(|| {
                replay::replay_capture(s, seed, tb.topology(), &recorded.services, capture)
            });
            let frames: Vec<&[u8]> = capture
                .records()
                .iter()
                .map(|(_, d)| d.as_slice())
                .collect();
            let frame_cost = passes::frame_codec(&frames);
            let Inputs::Requests(requests) = &inputs else {
                unreachable!("request specs generate request traces");
            };
            let upfront: Vec<u64> = requests
                .iter()
                .map(|r| (r.at + s.start).as_nanos())
                .collect();
            (recorded, (plane, replay_tracer), frame_cost, upfront)
        }
        Spec::Mobility(s) => {
            let run = e2e::run_mobility(s, seed, 1, |tb| {
                tb.controller =
                    build::mobility_controller(tb.topology(), ControllerConfig::default());
            });
            let tb = &run.tb;
            let sum = |f: fn(&ovs::Switch) -> u64| tb.switches().iter().map(f).sum::<u64>();
            let recorded = Recorded::new(
                run.measured,
                run.outcome(),
                &tb.controller,
                SwitchFacts {
                    // A buffered frame is counted once when it misses and
                    // once more when the flow-mod runs it through the table.
                    frames: sum(|sw| sw.fast_path_packets),
                    misses: sum(|sw| sw.table_misses),
                    microflow_hits: sum(|sw| sw.microflow_hits),
                    microflow_misses: sum(|sw| sw.microflow_misses),
                },
                None,
            );
            let (plane, replay_tracer) =
                fastest_replay(|| replay::replay_moves(s, seed, &inputs, &recorded.services[0]));
            let frames: Vec<&[u8]> = plane.frame_log.iter().map(Vec::as_slice).collect();
            let frame_cost = passes::frame_codec(&frames);
            let Inputs::Moves { events, .. } = &inputs else {
                unreachable!("mobility specs generate moves");
            };
            let upfront: Vec<u64> = events.iter().map(|e| e.at.as_nanos()).collect();
            (recorded, (plane, replay_tracer), frame_cost, upfront)
        }
    };
    let (plane, replay_tracer) = replayed;

    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let spans_path = out_dir.join(format!("{}.spans.json", workload.name()));
    std::fs::write(
        &spans_path,
        replay_tracer.trees_json(workload.name(), TREES),
    )
    .map_err(|e| format!("{}: {e}", spans_path.display()))?;

    // Parts 3 to 5.
    let control_refs: Vec<&[u8]> = plane.control_log.iter().map(Vec::as_slice).collect();
    let openflow_cost = passes::openflow_codec(&control_refs);
    let engine_cost = passes::engine_pass(&upfront, &plane.call_times);
    let keys = registry_keys(&recorded.registry);
    let names = |keys: &[(String, u64)]| keys.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
    let telemetry_cost = passes::telemetry_pass(
        &recorded.registry,
        &names(&keys.counters),
        &names(&keys.histograms),
        REGISTRY_CALLS,
    );
    let total = |keys: &[(String, u64)]| keys.iter().map(|(_, n)| n).sum::<u64>();

    let replay_ops = replay_tracer.aggregate();
    let dropped_spans = recorded.dropped_spans + replay_tracer.dropped();
    let table = Table {
        workload,
        plain,
        generate_ns,
        mean_frame_bytes: plane.stats.frame_bytes as f64 / plane.stats.frames.max(1) as f64,
        replay: plane.stats,
        replay_ops: &replay_ops,
        frame_cost,
        openflow_cost,
        engine_cost,
        telemetry_cost,
        bumps: total(&keys.counters),
        observes: total(&keys.histograms),
        recorded: &recorded,
    };
    let (metrics, shares) = table.assemble();
    Ok(TraceReport {
        workload,
        seed,
        attempted: recorded.outcome.attempted,
        failed: recorded.outcome.failed(),
        correct: recorded.outcome.correct()
            && plain_outcome.correct()
            && recorded.outcome.digest == plain_outcome.digest,
        metrics,
        shares,
        wall_s: plain.wall_s,
        replay_vs_real: [
            (plane.stats.frames, recorded.switches.frames),
            (plane.stats.misses, recorded.switches.misses),
        ],
        replay_ops,
        e2e_ops: recorded.ops_all,
        dropped_spans,
        spans_path,
    })
}

/// Everything the per-layer table is assembled from.
struct Table<'a> {
    workload: Workload,
    /// The untraced reference run.
    plain: Measured,
    generate_ns: f64,
    mean_frame_bytes: f64,
    replay: PlaneStats,
    replay_ops: &'a [OpStats],
    frame_cost: CodecCost,
    openflow_cost: CodecCost,
    engine_cost: EngineCost,
    telemetry_cost: TelemetryCost,
    bumps: u64,
    observes: u64,
    recorded: &'a Recorded,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn find(ops: &[OpStats], op: Op) -> Option<&OpStats> {
    ops.iter().find(|s| s.op == op)
}

fn mean_ns(ops: &[OpStats], op: Op) -> f64 {
    find(ops, op).map_or(0.0, OpStats::mean_ns)
}

fn count(ops: &[OpStats], op: Op) -> f64 {
    find(ops, op).map_or(0.0, |s| s.count as f64)
}

/// Total self seconds of the ops of `layer`.
fn layer_s(ops: &[OpStats], layer: &str) -> f64 {
    // `+ 0.0`: an empty float sum is -0.0, which would print as "-0.000".
    ops.iter()
        .filter(|s| s.op.layer() == layer)
        .map(|s| s.self_ns as f64 / 1e9)
        .sum::<f64>()
        + 0.0
}

impl Table<'_> {
    /// The per-layer metrics in [`PER_LAYER`] order, and the seconds of the
    /// untraced wall attributed to each layer.
    ///
    /// Nothing overlaps on the single thread, so a layer's seconds are its
    /// calls times its cost per call. Spans can only wrap public calls: the
    /// codec work inside a switch or controller span is priced by the codec
    /// passes and moved to `netsim` / `openflow`, registry bumps inside a
    /// controller span likewise to `telemetry`. What no layer accounts for
    /// is the harness itself: `testbed`.
    fn assemble(&self) -> (Vec<Reading>, Vec<Share>) {
        let r = self.recorded;
        let ops = r.outcome.completed.max(1) as f64;
        let events = r.measured.events as f64;
        let (real_frames, real_misses) = (r.switches.frames as f64, r.switches.misses as f64);
        let (enc, dec) = (self.frame_cost.encode_ns, self.frame_cost.decode_ns);
        let (of_enc, of_dec) = (self.openflow_cost.encode_ns, self.openflow_cost.decode_ns);
        let (up, down) = (self.replay.msgs_up as f64, self.replay.msgs_down as f64);
        let (replay, e2e, timed) = (self.replay_ops, &r.ops_all[..], &r.ops_timed[..]);
        let hit_ns = mean_ns(replay, Op::OvsHit);
        let miss_ns = mean_ns(replay, Op::OvsMiss);

        // Seconds per layer.
        let desim_s = events * (self.engine_cost.schedule_ns + self.engine_cost.pop_ns) / 1e9;
        // Every frame is encoded by its sender and decoded by its receiver,
        // and once more each inside the switch.
        let netsim_s = real_frames * 2.0 * (enc + dec) / 1e9;
        let openflow_s = (up + down) * (of_enc + of_dec) / 1e9;
        let frames_s = ((real_frames - real_misses) * hit_ns + real_misses * miss_ns) / 1e9;
        let control_s = layer_s(replay, "ovs")
            - find(replay, Op::OvsHit).map_or(0.0, |s| s.self_ns as f64 / 1e9)
            - find(replay, Op::OvsMiss).map_or(0.0, |s| s.self_ns as f64 / 1e9);
        let ovs_inner = (real_frames * (enc + dec) + up * of_enc + down * of_dec) / 1e9;
        let ovs_s = (frames_s + control_s - ovs_inner).max(0.0);
        let telemetry_s = (self.bumps as f64 * self.telemetry_cost.bump_ns
            + self.observes as f64 * self.telemetry_cost.observe_ns)
            / 1e9;
        let edgectl_inner = (up * of_dec + down * of_enc) / 1e9 + telemetry_s;
        let edgectl_s = (layer_s(replay, "edgectl") - edgectl_inner).max(0.0);
        let mut shares = vec![
            ("desim", desim_s),
            ("netsim", netsim_s),
            ("ovs", ovs_s),
            ("openflow", openflow_s),
            ("edgectl", edgectl_s),
            ("telemetry", telemetry_s),
        ];
        for layer in ["k8ssim", "dockersim", "containerd", "registry"] {
            shares.push((layer, layer_s(timed, layer)));
        }
        let attributed: f64 = shares.iter().map(|(_, s)| s).sum();
        let residual_s = self.plain.wall_s - attributed;
        shares.push(("testbed", residual_s));

        let mobility = self.workload == Workload::HandoverStorm;
        let values = [
            self.engine_cost.schedule_ns,
            self.engine_cost.pop_ns,
            r.peak_pending.unwrap_or(self.engine_cost.peak_pending) as f64,
            enc,
            dec,
            real_frames / ops,
            real_frames * self.mean_frame_bytes / ops,
            self.frame_cost.allocs_per_item,
            hit_ns,
            miss_ns,
            mean_ns(replay, Op::OvsFlowMod),
            ratio(
                find(replay, Op::OvsExpire).map_or(0.0, |s| s.self_ns as f64),
                self.replay.flows_expired as f64,
            ),
            ratio(real_misses, real_frames),
            ratio(
                r.switches.microflow_hits as f64,
                (r.switches.microflow_hits + r.switches.microflow_misses) as f64,
            ),
            self.replay.table_flows_peak as f64,
            of_enc,
            of_dec,
            (up + down) / ops,
            (self.replay.bytes_up + self.replay.bytes_down) as f64 / ops,
            mean_ns(replay, Op::EdgectlPacketIn),
            mean_ns(replay, Op::EdgectlFlowRemoved),
            mean_ns(replay, Op::EdgectlTick),
            mean_ns(replay, Op::EdgectlHandover),
            mean_ns(e2e, Op::EdgectlScheduler),
            ratio(r.memory_hits as f64, r.memory_lookups as f64),
            ratio(r.waited as f64, r.packet_ins as f64),
            ratio(
                self.replay.packet_in_msgs_out as f64,
                self.replay.packet_ins as f64,
            ),
            ratio(
                self.replay.packet_in_allocs as f64,
                self.replay.packet_ins as f64,
            ),
            self.telemetry_cost.bump_ns,
            self.telemetry_cost.observe_ns,
            self.telemetry_cost.allocs_per_bump,
            self.bumps as f64 / ops,
            mean_ns(e2e, Op::K8sState),
            mean_ns(e2e, Op::K8sScaleUp),
            mean_ns(e2e, Op::K8sScaleDown),
            count(timed, Op::K8sState) / ops,
            count(e2e, Op::K8sScaleUp),
            mean_ns(e2e, Op::DockerState),
            mean_ns(e2e, Op::DockerScaleUp),
            mean_ns(e2e, Op::DockerScaleDown),
            mean_ns(e2e, Op::ContainerdCreate),
            mean_ns(e2e, Op::RegistryPull),
            r.layer_cache_hit_rate,
            if mobility { 0.0 } else { self.generate_ns },
            if mobility { self.generate_ns } else { 0.0 },
            ratio(residual_s * 1e9, events),
            ratio(residual_s, self.plain.wall_s),
            ratio(r.measured.wall_s, self.plain.wall_s) - 1.0,
        ];
        let metrics = PER_LAYER
            .iter()
            .zip(values)
            .map(|(&(name, unit, _), v)| (name.to_owned(), v, unit))
            .collect();
        (metrics, shares)
    }
}

impl TraceReport {
    /// The driver's result line for a `--trace 1` run.
    pub fn result_line(&self) -> String {
        crate::metrics::result_line(self.correct, self.attempted, self.failed, &self.metrics)
    }

    /// Prints the per-layer metrics, the span statistics behind them and
    /// each layer's share of the untraced wall.
    pub fn print(&self) {
        println!(
            "\n{} seed {} traced: {} attempted, {} failed, {}",
            self.workload.name(),
            self.seed,
            self.attempted,
            self.failed,
            if self.correct {
                "instrumented run matches the untraced sim_digest"
            } else {
                "OUTPUT CHECK FAILED (or the instrumented run diverged)"
            }
        );
        println!("  {:<34} {:>6} {:>18}", "per-layer metric", "unit", "value");
        for (name, value, unit) in &self.metrics {
            println!("  {name:<34} {unit:>6} {value:>18.4}");
        }
        for (title, ops) in [
            ("layer replay", &self.replay_ops),
            ("traced end-to-end run", &self.e2e_ops),
        ] {
            println!(
                "  spans of the {title}:\n  {:<24} {:>10} {:>12} {:>10} {:>10} {:>10}",
                "layer.op", "calls", "self ms", "mean ns", "p50 ns", "p99 ns"
            );
            for s in ops.iter() {
                println!(
                    "  {:<24} {:>10} {:>12.3} {:>10.0} {:>10} {:>10}",
                    s.op.name(),
                    s.count,
                    s.self_ns as f64 / 1e6,
                    s.mean_ns(),
                    s.p50_ns,
                    s.p99_ns
                );
            }
        }
        println!(
            "  share of the untraced wall ({:.3} s) per layer:",
            self.wall_s
        );
        for (layer, secs) in &self.shares {
            println!(
                "  {layer:<12} {:>9.3} s {:>7.1}%",
                secs,
                ratio(*secs, self.wall_s) * 100.0
            );
        }
        let [(f_replay, f_real), (m_replay, m_real)] = self.replay_vs_real;
        println!(
            "  replay fed {f_replay} frames ({m_replay} missed); the real switches handled \
             {f_real} ({m_real} missed); {} spans dropped; span trees of the first {TREES} \
             requests: {}",
            self.dropped_spans,
            self.spans_path.display()
        );
    }
}
