//! The four workloads: their shapes, and the generators that turn a seed
//! into the inputs the program receives.
//!
//! Every workload is a closed simulation driven by an open-loop arrival
//! schedule in sim time: requests (or attachment changes) fire when the
//! generated trace says so, whatever the system is doing. The program only
//! ever sees the generated [`Inputs`], never the seed's generator.

use desim::{Duration, SimTime};
use mobility::{AttachmentEvent, CellGrid, MobilityModel, RandomWaypoint};
use testbed::ClusterKind;
use workload::{Request, Trace, TraceConfig};

/// One of the benchmark's named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Short connections to warm services: the control path per request.
    FlowChurn,
    /// Few large uploads: the per-frame data path.
    BulkTransfer,
    /// Cold services on Kubernetes that idle out: the deployment path.
    DeployChurn,
    /// Moving clients across 16 gNBs: the handover path.
    HandoverStorm,
}

/// How much of a workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured size (about one wall-second per repetition).
    Full,
    /// Well under a second per workload: the `cargo test` size.
    Smoke,
}

impl Workload {
    /// All workloads, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::FlowChurn,
        Workload::BulkTransfer,
        Workload::DeployChurn,
        Workload::HandoverStorm,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FlowChurn => "flow_churn",
            Workload::BulkTransfer => "bulk_transfer",
            Workload::DeployChurn => "deploy_churn",
            Workload::HandoverStorm => "handover_storm",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, in one line (also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::FlowChurn => {
                "short connections to warm services: each request is a table miss, a packet-in, \
                 two flow-mods and an idle expiry, so ovs misses, openflow and edgectl do the work"
            }
            Workload::BulkTransfer => {
                "83 KiB uploads: 62 frames per request on the switch fast path, so netsim, desim \
                 and ovs hits do the work and a control-path change must show no change here"
            }
            Workload::DeployChurn => {
                "100 cold services on Kubernetes that idle out within seconds: on-demand \
                 deployment with waiting as a steady state, so k8ssim and edgectl::cluster do the work"
            }
            Workload::HandoverStorm => {
                "250 clients moving across 16 gNBs under Redispatch: re-key, wildcard-pair install \
                 and teardown across 16 tables, the edgectl and ovs layers used the other way round"
            }
        }
    }

    /// What one *operation* is on this workload.
    pub fn op(self) -> &'static str {
        match self {
            Workload::HandoverStorm => "handover",
            _ => "request",
        }
    }

    /// The workload's shape at `size`.
    ///
    /// Full sizes are the issue's probed shapes shortened (same rates, same
    /// populations, shorter traces): on a host whose speed shifts for tens
    /// of seconds at a time, many one-second repetitions find its undisturbed
    /// speed more reliably than five long ones.
    pub fn spec(self, size: Size) -> Spec {
        let full = size == Size::Full;
        match self {
            // 2 000 fresh connections per sim-second against a 10 s switch
            // idle timeout keep ~40 k flows live: more than the 65 536-entry
            // microflow cache survives between flow-mods.
            Workload::FlowChurn => Spec::Requests(RequestSpec {
                cluster: ClusterKind::Docker,
                profile: "nginx",
                n_clients: 250,
                n_services: 10,
                n_requests: if full { 40_000 } else { 4_000 },
                window: Duration::from_secs(if full { 20 } else { 2 }),
                start: WARM_START,
                start_mean_secs: 0.05,
                pre_deploy: true,
                memory_idle: Duration::from_secs(60),
                switch_flow_idle: Duration::from_secs(10),
            }),
            // 500 uploads of 83 KiB per sim-second: 58 request segments per
            // operation, nearly all on the switch fast path.
            Workload::BulkTransfer => Spec::Requests(RequestSpec {
                cluster: ClusterKind::Docker,
                profile: "resnet",
                n_clients: 250,
                n_services: 10,
                n_requests: if full { 7_000 } else { 400 },
                window: Duration::from_millis(if full { 14_000 } else { 800 }),
                start: WARM_START,
                start_mean_secs: 0.05,
                pre_deploy: true,
                memory_idle: Duration::from_secs(60),
                switch_flow_idle: Duration::from_secs(10),
            }),
            // 40 requests per sim-second over 100 cold services whose flows
            // and memory idle out within seconds: on-demand deployment with
            // waiting, then idle scale-down, as a steady state.
            Workload::DeployChurn => Spec::Requests(RequestSpec {
                cluster: ClusterKind::K8s,
                profile: "nginx",
                n_clients: 250,
                n_services: if full { 100 } else { 20 },
                n_requests: if full { 8_000 } else { 400 },
                window: Duration::from_secs(if full { 200 } else { 20 }),
                start: Duration::from_secs(1),
                start_mean_secs: 8.0,
                pre_deploy: false,
                memory_idle: Duration::from_secs(3),
                switch_flow_idle: Duration::from_secs(2),
            }),
            Workload::HandoverStorm => Spec::Mobility(MobilitySpec {
                n_gnbs: 16,
                n_clients: 250,
                horizon: Duration::from_secs(if full { 400 } else { 30 }),
                ping_interval: Duration::from_secs(1),
                speed_mps: (30.0, 50.0),
                cell_m: 120.0,
            }),
        }
    }
}

/// Traffic onto pre-deployed services starts once the slowest pre-deployment
/// (a cold `resnet` pull, ~9 sim-s) is ready: otherwise the first requests
/// wait for it and p99 measures the warm-up, not the steady state.
const WARM_START: Duration = Duration::from_secs(30);

/// A workload's shape.
#[derive(Clone, Debug)]
pub enum Spec {
    /// A request trace replayed on the single-switch `Testbed`.
    Requests(RequestSpec),
    /// A mobility trace replayed on the `MobilityTestbed`.
    Mobility(MobilitySpec),
}

/// Shape of a request workload.
#[derive(Clone, Debug)]
pub struct RequestSpec {
    /// Edge cluster type.
    pub cluster: ClusterKind,
    /// `containerd::ServiceSet` profile key every service is bound to.
    pub profile: &'static str,
    /// Client hosts.
    pub n_clients: usize,
    /// Registered services.
    pub n_services: usize,
    /// Requests in the trace.
    pub n_requests: usize,
    /// Arrival window.
    pub window: Duration,
    /// When the window opens.
    pub start: Duration,
    /// Mean of each service's first-request offset.
    pub start_mean_secs: f64,
    /// Pull, create and scale every service up before traffic starts.
    pub pre_deploy: bool,
    /// FlowMemory idle timeout.
    pub memory_idle: Duration,
    /// Idle timeout of installed switch flows.
    pub switch_flow_idle: Duration,
}

impl RequestSpec {
    /// The run deadline: the arrival window plus time for the last cold
    /// deployment to answer and every idle timer to fire.
    pub fn deadline(&self) -> SimTime {
        SimTime::ZERO + self.start + self.window + self.memory_idle + Duration::from_secs(60)
    }
}

/// Shape of the mobility workload.
#[derive(Clone, Debug)]
pub struct MobilitySpec {
    /// gNB ingress switches, one grid cell and one edge zone each.
    pub n_gnbs: usize,
    /// Moving clients, one long-lived session each.
    pub n_clients: usize,
    /// Simulated run length.
    pub horizon: Duration,
    /// Gap between pings on a session.
    pub ping_interval: Duration,
    /// Leg speed range, m/s.
    pub speed_mps: (f64, f64),
    /// Cell edge length, m.
    pub cell_m: f64,
}

/// What the program receives: the generated trace and nothing else.
#[derive(Clone, Debug, PartialEq)]
pub enum Inputs {
    /// Request arrivals in time order.
    Requests(Vec<Request>),
    /// Initial cell per client and the attachment changes in time order.
    Moves {
        /// Cell each client starts in.
        initial: Vec<usize>,
        /// Attachment changes within the horizon.
        events: Vec<AttachmentEvent>,
    },
}

impl Inputs {
    /// Generates a workload's inputs from `seed`.
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        match spec {
            Spec::Requests(s) => {
                let trace = Trace::generate(
                    TraceConfig {
                        n_services: s.n_services,
                        n_requests: s.n_requests,
                        min_per_service: 1,
                        duration: s.window,
                        n_clients: s.n_clients,
                        skew: 0.9,
                        start_mean_secs: s.start_mean_secs,
                    },
                    seed,
                );
                Inputs::Requests(trace.requests)
            }
            Spec::Mobility(s) => {
                // A one-dimensional strip of small cells, one per gNB.
                let grid = CellGrid::new(s.n_gnbs as u32, 1, s.cell_m);
                let mut model = RandomWaypoint::new(grid, s.n_clients, seed)
                    .with_speed(s.speed_mps.0, s.speed_mps.1);
                let initial = (0..s.n_clients).map(|c| model.initial_cell(c)).collect();
                let events = model.events(s.horizon);
                Inputs::Moves { initial, events }
            }
        }
    }

    /// Operations the trace asks for.
    pub fn ops(&self) -> usize {
        match self {
            Inputs::Requests(r) => r.len(),
            Inputs::Moves { events, .. } => events.len(),
        }
    }

    /// A canonical byte rendering (determinism tests compare these).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut put = |v: u64| out.extend_from_slice(&v.to_le_bytes());
        match self {
            Inputs::Requests(reqs) => {
                for r in reqs {
                    put(r.at.as_nanos());
                    put(r.service as u64);
                    put(r.client as u64);
                }
            }
            Inputs::Moves { initial, events } => {
                for &c in initial {
                    put(c as u64);
                }
                for e in events {
                    put(e.at.as_nanos());
                    put(e.client as u64);
                    put(e.from_cell as u64);
                    put(e.to_cell as u64);
                }
            }
        }
        out
    }
}

/// Replays pre-generated attachment changes as a [`MobilityModel`], so the
/// timed region of `handover_storm` holds no trace generation.
pub struct RecordedMoves {
    initial: Vec<usize>,
    events: Vec<AttachmentEvent>,
}

impl RecordedMoves {
    /// Wraps generated moves.
    ///
    /// # Panics
    /// Panics if `inputs` is a request trace.
    pub fn new(inputs: &Inputs) -> RecordedMoves {
        match inputs {
            Inputs::Moves { initial, events } => RecordedMoves {
                initial: initial.clone(),
                events: events.clone(),
            },
            Inputs::Requests(_) => panic!("a request trace holds no moves"),
        }
    }
}

impl MobilityModel for RecordedMoves {
    fn name(&self) -> &str {
        "recorded"
    }

    fn n_clients(&self) -> usize {
        self.initial.len()
    }

    fn initial_cell(&self, client: usize) -> usize {
        self.initial[client]
    }

    fn events(&mut self, horizon: Duration) -> Vec<AttachmentEvent> {
        let end = SimTime::ZERO + horizon;
        self.events.iter().copied().filter(|e| e.at < end).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::by_name(w.name()), Some(w));
        }
        assert_eq!(Workload::by_name("nope"), None);
        assert!(Workload::ALL
            .iter()
            .all(|w| w.why().len() <= 200 && !w.why().contains('\n')));
    }

    /// Each generator is byte-deterministic per seed and changes with it.
    #[test]
    fn generators_are_deterministic_per_seed() {
        for w in Workload::ALL {
            let spec = w.spec(Size::Smoke);
            let a = Inputs::generate(&spec, 7).to_bytes();
            let b = Inputs::generate(&spec, 7).to_bytes();
            let c = Inputs::generate(&spec, 8).to_bytes();
            assert!(!a.is_empty(), "{}", w.name());
            assert_eq!(a, b, "{}: same seed, same bytes", w.name());
            assert_ne!(a, c, "{}: another seed, other bytes", w.name());
        }
    }

    #[test]
    fn recorded_moves_replay_the_generated_stream() {
        let spec = Workload::HandoverStorm.spec(Size::Smoke);
        let inputs = Inputs::generate(&spec, 3);
        let mut model = RecordedMoves::new(&inputs);
        let Inputs::Moves { initial, events } = &inputs else {
            panic!("mobility inputs");
        };
        assert_eq!(model.n_clients(), initial.len());
        assert_eq!(&model.events(Duration::from_secs(1_000_000)), events);
        assert!(events
            .windows(2)
            .all(|w| (w[0].at, w[0].client) <= (w[1].at, w[1].client)));
    }
}
