//! One end-to-end repetition: set a workload up on the real testbed, time
//! the run, check its outputs and reduce them to the end-to-end numbers.

use crate::alloc;
use crate::stats::{percentile_sorted, Fnv};
use crate::workloads::{Inputs, MobilitySpec, RecordedMoves, RequestSpec, Spec};
use desim::SimTime;
use edgectl::{ControllerConfig, HandoverPolicy};
use netsim::{Ipv4Addr, ServiceAddr};
use std::time::Instant;
use telemetry::MetricsRegistry;
use testbed::{MobilityConfig, MobilityTestbed, Testbed, TestbedConfig};

/// Host-clock and counter readings around one repetition.
#[derive(Clone, Copy, Debug, Default)]
pub struct Measured {
    /// Trace generation + testbed construction + service registration and
    /// pre-deployment + scheduling every request, wall seconds.
    pub setup_s: f64,
    /// Wall seconds of the timed `run_until` / `run` region.
    pub wall_s: f64,
    /// Simulation events the timed region processed.
    pub events: u64,
    /// Heap calls inside the timed region.
    pub allocs: u64,
    /// Heap bytes requested inside the timed region.
    pub alloc_bytes: u64,
}

/// What the simulated clients saw, and whether it was correct.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations the trace asked for.
    pub attempted: u64,
    /// Operations completed by the deadline.
    pub completed: u64,
    /// Connections reset.
    pub resets: u64,
    /// Frames dropped by the data plane.
    pub drops: u64,
    /// Frames that reached a client with a non-cloud source address.
    pub transparency_violations: u64,
    /// Sessions left without an answer (plus pings never answered).
    pub stranded: u64,
    /// Responses that arrived with nothing outstanding.
    pub double_answered: u64,
    /// Client-visible latency of every completed operation, ascending, ns.
    pub latencies_ns: Vec<u64>,
    /// Hash of every completed operation's sim timings and the telemetry
    /// counters: equal digests mean equal simulated behaviour.
    pub digest: u64,
}

impl Outcome {
    /// Operations that failed one of the output checks, at most `attempted`.
    pub fn failed(&self) -> u64 {
        let bad = (self.attempted - self.completed.min(self.attempted))
            + self.resets
            + self.drops
            + self.transparency_violations
            + self.stranded
            + self.double_answered;
        bad.min(self.attempted)
    }

    /// `completed == attempted` and every violation counter is zero.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.completed == self.attempted && self.failed() == 0
    }

    /// Latency percentile in milliseconds (0 when nothing completed).
    pub fn latency_ms(&self, p: f64) -> f64 {
        if self.latencies_ns.is_empty() {
            return 0.0;
        }
        percentile_sorted(&self.latencies_ns, p) as f64 / 1e6
    }
}

/// The `i`-th registered service address.
pub fn service_addr(i: usize, port: u16) -> ServiceAddr {
    let host = u8::try_from(i + 1).expect("at most 254 services");
    ServiceAddr::new(Ipv4Addr::new(203, 0, 113, host), port)
}

/// The controller configuration a request workload runs under.
pub fn controller_config(spec: &RequestSpec) -> ControllerConfig {
    ControllerConfig {
        memory_idle: spec.memory_idle,
        switch_flow_idle: spec.switch_flow_idle,
        ..ControllerConfig::default()
    }
}

/// How many times a plain repetition sets its testbed up: set-up takes
/// milliseconds, so one sample per process would mostly measure page faults.
pub const SETUPS: usize = 5;

/// Calls `prepare` `times` times and returns the last result with the median
/// wall seconds of one call.
fn timed_setups<T>(times: usize, mut prepare: impl FnMut() -> T) -> (T, f64) {
    assert!(times > 0, "at least one set-up");
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let t = Instant::now();
        last = Some(prepare());
        secs.push(t.elapsed().as_secs_f64());
    }
    (
        last.expect("prepared at least once"),
        crate::stats::median(&secs),
    )
}

/// Runs `run` with the clock and the allocation counters read around it.
fn timed_region(setup_s: f64, run: impl FnOnce() -> u64) -> Measured {
    let (calls0, bytes0) = alloc::snapshot();
    let timed = Instant::now();
    let events = run();
    let wall_s = timed.elapsed().as_secs_f64();
    let (calls1, bytes1) = alloc::snapshot();
    Measured {
        setup_s,
        wall_s,
        events,
        allocs: calls1 - calls0,
        alloc_bytes: bytes1 - bytes0,
    }
}

/// A finished run, its testbed (`Testbed` or `MobilityTestbed`) included.
pub struct Finished<T> {
    /// The testbed after the run.
    pub tb: T,
    /// Operations the trace asked for.
    pub attempted: u64,
    /// Timings and counters of the run.
    pub measured: Measured,
}

fn prepare_requests(
    spec: &RequestSpec,
    seed: u64,
    customize: &impl Fn(&mut Testbed),
) -> (Testbed, u64) {
    let Inputs::Requests(requests) = Inputs::generate(&Spec::Requests(spec.clone()), seed) else {
        unreachable!("request specs generate request traces");
    };
    let mut tb = Testbed::new(TestbedConfig {
        n_clients: spec.n_clients,
        cluster: spec.cluster,
        controller: controller_config(spec),
        seed,
        ..TestbedConfig::default()
    });
    customize(&mut tb);
    let profile = containerd::ServiceSet::by_key(spec.profile).expect("known profile");
    let addrs: Vec<ServiceAddr> = (0..spec.n_services)
        .map(|i| service_addr(i, profile.listen_port))
        .collect();
    for &addr in &addrs {
        tb.register_service(profile.clone(), addr);
        if spec.pre_deploy {
            tb.pre_deploy_on(addr, 0);
        }
    }
    for r in &requests {
        tb.request_at(r.at + spec.start, r.client, addrs[r.service]);
    }
    (tb, requests.len() as u64)
}

/// Sets a request workload up (`setups` times, keeping the last) and runs
/// it. `customize` sees each freshly built testbed before any service is
/// registered (the traced run swaps the controller for an instrumented twin
/// there).
pub fn run_requests(
    spec: &RequestSpec,
    seed: u64,
    setups: usize,
    customize: impl Fn(&mut Testbed),
) -> Finished<Testbed> {
    let ((mut tb, attempted), setup_s) =
        timed_setups(setups, || prepare_requests(spec, seed, &customize));
    let deadline = spec.deadline();
    let measured = timed_region(setup_s, || tb.run_until(deadline));
    Finished {
        tb,
        attempted,
        measured,
    }
}

impl Finished<Testbed> {
    /// Checks the outputs and reduces them.
    pub fn outcome(&self) -> Outcome {
        let tb = &self.tb;
        let mut digest = Fnv::default();
        let mut latencies_ns = Vec::with_capacity(tb.completed.len());
        for c in &tb.completed {
            let t = &c.timing;
            let done = t
                .complete
                .expect("completed requests carry a completion time");
            latencies_ns.push(done.saturating_since(t.connect_start).as_nanos());
            digest.u64(c.client as u64);
            digest.u64(u64::from(c.service.ip.to_u32()) << 16 | u64::from(c.service.port));
            for at in [Some(t.connect_start), t.connected, t.first_byte, t.complete] {
                digest.u64(at.map_or(u64::MAX, SimTime::as_nanos));
            }
        }
        latencies_ns.sort_unstable();
        fold_counters(&mut digest, &tb.telemetry_snapshot());
        let completed = tb.completed.len() as u64;
        Outcome {
            attempted: self.attempted,
            completed,
            resets: tb.resets,
            drops: tb.drops,
            transparency_violations: tb.transparency_violations,
            // A request that never completes already counts as not completed.
            stranded: 0,
            double_answered: 0,
            latencies_ns,
            digest: digest.finish(),
        }
    }
}

/// The service every mobile session talks to (`asm` at 203.0.113.10:80, as
/// in `testbed::experiments`).
pub fn mobility_service() -> (containerd::ServiceProfile, ServiceAddr) {
    let profile = containerd::ServiceSet::by_key("asm").expect("known profile");
    let addr = service_addr(9, profile.listen_port);
    (profile, addr)
}

fn prepare_mobility(
    spec: &MobilitySpec,
    seed: u64,
    customize: &impl Fn(&mut MobilityTestbed),
) -> (MobilityTestbed, RecordedMoves, u64) {
    let inputs = Inputs::generate(&Spec::Mobility(spec.clone()), seed);
    let model = RecordedMoves::new(&inputs);
    let Inputs::Moves { initial, events } = &inputs else {
        unreachable!("mobility specs generate moves");
    };
    let mut tb = MobilityTestbed::new(MobilityConfig {
        n_gnbs: spec.n_gnbs,
        n_clients: spec.n_clients,
        policy: HandoverPolicy::Redispatch,
        ping_interval: spec.ping_interval,
        seed,
        ..MobilityConfig::default()
    });
    customize(&mut tb);
    let (profile, addr) = mobility_service();
    tb.register_service(profile, addr);
    // Images cached and containers created everywhere; instances run where
    // clients start, so a move onto an idle zone pays only the scale-up.
    tb.warm_all_zones();
    let mut seeded: Vec<usize> = initial.iter().map(|c| c % spec.n_gnbs).collect();
    seeded.sort_unstable();
    seeded.dedup();
    for z in seeded {
        tb.pre_deploy_on(z);
    }
    (tb, model, events.len() as u64)
}

/// Sets the mobility workload up and runs it; `setups` and `customize` as
/// in [`run_requests`].
pub fn run_mobility(
    spec: &MobilitySpec,
    seed: u64,
    setups: usize,
    customize: impl Fn(&mut MobilityTestbed),
) -> Finished<MobilityTestbed> {
    let ((mut tb, mut model, attempted), setup_s) =
        timed_setups(setups, || prepare_mobility(spec, seed, &customize));
    let deadline = SimTime::ZERO + spec.horizon;
    let measured = timed_region(setup_s, || {
        tb.run(&mut model, SimTime::from_secs(1), deadline)
    });
    Finished {
        tb,
        attempted,
        measured,
    }
}

impl Finished<MobilityTestbed> {
    /// Checks the outputs and reduces them.
    pub fn outcome(&self) -> Outcome {
        let tb = &self.tb;
        let mut digest = Fnv::default();
        let mut latencies_ns = Vec::with_capacity(tb.handovers.len());
        for h in &tb.handovers {
            latencies_ns.push(h.interruption().as_nanos());
            for v in [
                h.client as u64,
                h.from as u64,
                h.to as u64,
                h.at.as_nanos(),
                h.completed_at.as_nanos(),
                h.flows_migrated as u64,
                h.redispatched as u64,
            ] {
                digest.u64(v);
            }
        }
        latencies_ns.sort_unstable();
        digest.u64(tb.pings_done());
        for rtt in tb.rtts_secs() {
            digest.u64(rtt.to_bits());
        }
        fold_counters(&mut digest, &tb.telemetry_snapshot());
        Outcome {
            attempted: self.attempted,
            completed: tb.handovers.len() as u64,
            resets: tb.resets,
            drops: tb.drops,
            transparency_violations: tb.transparency_violations,
            stranded: tb.stranded() + (tb.pings_sent() - tb.pings_done()),
            double_answered: tb.double_answered,
            latencies_ns,
            digest: digest.finish(),
        }
    }
}

/// The key set of a metrics registry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RegistryKeys {
    /// `(name, value)` of every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, observations)` of every histogram.
    pub histograms: Vec<(String, u64)>,
}

/// Reads the counters and histograms of a registry snapshot. The registry
/// exposes its key set only through its JSON rendering, one entry per line.
pub fn registry_keys(m: &MetricsRegistry) -> RegistryKeys {
    let mut keys = RegistryKeys::default();
    let mut section = "";
    for line in m.to_json().lines() {
        let line = line.trim().trim_end_matches(',');
        if let Some(name) = ["counters", "gauges", "histograms"]
            .into_iter()
            .find(|s| line.starts_with(&format!("\"{s}\": {{")))
        {
            section = name;
            continue;
        }
        let Some((key, value)) = line.split_once("\": ") else {
            continue;
        };
        let key = key.trim_start_matches('"').to_owned();
        match section {
            "counters" => {
                if let Ok(v) = value.parse() {
                    keys.counters.push((key, v));
                }
            }
            "histograms" => {
                let count = value
                    .strip_prefix("{\"count\": ")
                    .and_then(|rest| rest.split(',').next())
                    .and_then(|n| n.parse().ok());
                if let Some(n) = count {
                    keys.histograms.push((key, n));
                }
            }
            _ => {}
        }
    }
    keys
}

fn fold_counters(digest: &mut Fnv, m: &MetricsRegistry) {
    for (name, value) in registry_keys(m).counters {
        digest.bytes(name.as_bytes());
        digest.u64(value);
    }
}

/// Peak resident set of this process (`VmHWM`), MB; 0 where `/proc` is
/// absent.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one plain (untraced) repetition of `spec`.
pub fn run_plain(spec: &Spec, seed: u64) -> (Measured, Outcome) {
    match spec {
        Spec::Requests(s) => {
            let run = run_requests(s, seed, SETUPS, |_| {});
            (run.measured, run.outcome())
        }
        Spec::Mobility(s) => {
            let run = run_mobility(s, seed, SETUPS, |_| {});
            (run.measured, run.outcome())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::Duration;

    #[test]
    fn registry_keys_lists_counters_and_histograms() {
        let mut m = MetricsRegistry::new();
        m.inc("requests_total");
        m.add("requests_total", 2);
        m.inc("a_total");
        m.set_gauge("rate", 0.5);
        m.observe("lat_ns", Duration::from_micros(250));
        m.observe("lat_ns", Duration::from_micros(300));
        let keys = registry_keys(&m);
        assert_eq!(
            keys.counters,
            vec![("a_total".to_owned(), 1), ("requests_total".to_owned(), 3)]
        );
        assert_eq!(keys.histograms, vec![("lat_ns".to_owned(), 2)]);
        assert_eq!(
            registry_keys(&MetricsRegistry::new()),
            RegistryKeys::default()
        );
    }

    #[test]
    fn failed_counts_every_violation_once_and_caps_at_attempted() {
        let mut o = Outcome {
            attempted: 10,
            completed: 10,
            ..Outcome::default()
        };
        assert!(o.correct());
        o.completed = 8;
        o.drops = 1;
        assert_eq!(o.failed(), 3);
        assert!(!o.correct());
        o.transparency_violations = 100;
        assert_eq!(o.failed(), 10);
    }
}
