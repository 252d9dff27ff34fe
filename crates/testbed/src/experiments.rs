//! One entry point per table/figure of the paper, plus the ablations.
//!
//! Every experiment is deterministic in its seed. A figure or ablation
//! returns a [`Figure`]: a machine-readable table plus rendered text, which
//! the `repro` binary in the `bench` crate prints and `EXPERIMENTS.md`
//! records against the paper's numbers. An experiment with arms (chaos,
//! mobility, recovery) returns each arm's runs as an [`Experiment`]; the
//! benches write mobility's and recovery's as their artifacts.

use crate::harness::{ClusterKind, CompletedRequest, Harness, MobilityConfig, MobilityTestbed, Testbed, TestbedConfig};
use crate::report::{bar_chart, timeline, Table};
use crate::topology::{client_ip_for, C3Topology, MultiGnbTopology, Net};
use containerd::{ContentStore, ServiceProfile, ServiceSet};
use desim::{Duration, SimRng, SimTime, Summary};
use edgectl::controller::RequestKind;
use netsim::{Ipv4Addr, ServiceAddr};
use registry::RegistryProfile;
use std::collections::{BTreeMap, VecDeque};
use telemetry::{MetricsRegistry, Off, SpanLog, Spans};
use workload::{Trace, TraceConfig};

/// A reproduced table or figure.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Identifier (`table1`, `fig9`, ... `fig16`, `hybrid`, ...).
    pub id: &'static str,
    /// Title line.
    pub title: String,
    /// Machine-readable result rows.
    pub table: Table,
    /// Fully rendered text (table plus charts/notes).
    pub body: String,
}

impl Figure {
    fn new(id: &'static str, title: impl Into<String>, table: Table) -> Figure {
        let title = title.into();
        let body = format!("== {id}: {title} ==\n{}", table.render());
        Figure { id, title, table, body }
    }

    fn with_extra(mut self, extra: &str) -> Figure {
        self.body.push_str(extra);
        if !extra.ends_with('\n') {
            self.body.push('\n');
        }
        self
    }
}

/// How far a replay's services are deployed before its traffic starts:
/// registered only, images pulled, or containers created as well.
#[derive(Clone, Copy, PartialEq, PartialOrd)]
enum Warmth {
    Cold,
    Pulled,
    Created,
}

/// Replays `trace` until `until` on a testbed built from `cfg` with
/// FlowMemory's idle timeout at `idle_s` seconds, and returns it: one
/// service per trace service, all bound to `profile` and deployed as far as
/// `warmth` says, every request offset by 1 s so setup happens strictly
/// before traffic.
fn replay<S: Spans>(
    mut cfg: TestbedConfig,
    idle_s: u64,
    profile: &ServiceProfile,
    warmth: Warmth,
    trace: &Trace,
    until: SimTime,
) -> Harness<C3Topology, S> {
    cfg.controller.memory_idle = Duration::from_secs(idle_s);
    let mut tb = Harness::<C3Topology, S>::new(cfg);
    let addrs: Vec<ServiceAddr> = (0..trace.config.n_services)
        .map(|i| {
            let addr = addr_of(profile, i);
            tb.register_service(profile.clone(), addr);
            if warmth >= Warmth::Pulled {
                tb.pre_pull(addr);
            }
            if warmth >= Warmth::Created {
                tb.pre_create(addr);
            }
            addr
        })
        .collect();
    for r in &trace.requests {
        tb.request_at(r.at + Duration::from_secs(1), r.client, addrs[r.service]);
    }
    tb.run_until(until);
    tb
}

/// A C3 testbed config: the cluster kind, the Global Scheduler and the
/// seed, everything else at its default.
fn config(cluster: ClusterKind, scheduler: &str, seed: u64) -> TestbedConfig {
    TestbedConfig { cluster, scheduler: scheduler.to_owned(), seed, ..TestbedConfig::default() }
}

/// A replay's completed requests in the order they arrived, which is not the
/// order they completed: a request held for a deployment can finish after
/// one that arrived later.
fn arrival_order(tb: &Testbed) -> Vec<&CompletedRequest> {
    let mut done: Vec<&CompletedRequest> = tb.completed.iter().collect();
    done.sort_by_key(|c| c.timing.connect_start);
    done
}

fn addr_of(profile: &ServiceProfile, index: usize) -> ServiceAddr {
    ServiceAddr::new(Ipv4Addr::new(203, 0, 113, (index + 1) as u8), profile.listen_port)
}

// ---------------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------------

/// Table I: the four edge services.
pub fn table1() -> Figure {
    let mut t = Table::new(&["Service", "Image(s)", "Size", "Layers", "Containers", "HTTP"]);
    for p in ServiceSet::all() {
        let images: Vec<String> = p.manifests.iter().map(|m| m.reference.to_string()).collect();
        let size = p.total_image_size();
        let size_str = if size < 1024 * 1024 {
            format!("{:.2} KiB", size as f64 / 1024.0)
        } else {
            format!("{} MiB", size / (1024 * 1024))
        };
        t.row(vec![
            p.display.to_string(),
            images.join(" + "),
            size_str,
            p.total_layers().to_string(),
            p.container_count().to_string(),
            p.http_method.to_string(),
        ]);
    }
    Figure::new("table1", "Edge services used in this work", t)
}

// ---------------------------------------------------------------------------
// Figs. 9 & 10 — the request / deployment distributions
// ---------------------------------------------------------------------------

/// Fig. 9: distribution of 1708 requests to 42 services over five minutes.
pub fn fig9(seed: u64) -> Figure {
    let trace = Trace::generate(TraceConfig::default(), seed);
    let mut counts = trace.per_service_counts();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let mut t = Table::new(&["Service rank", "Requests"]);
    for (i, c) in counts.iter().enumerate() {
        t.row(vec![format!("{}", i + 1), c.to_string()]);
    }
    let labels: Vec<String> = (1..=counts.len()).map(|i| format!("#{i:02}")).collect();
    let values: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
    let chart = format!(
        "\nRequests per service (sorted):\n{}\nArrivals over the 5-minute trace:\n{}\n",
        bar_chart(&labels[..12], &values[..12], 40, "requests"),
        timeline(&trace.requests_per_second(), 75)
    );
    Figure::new(
        "fig9",
        format!(
            "Distribution of {} requests to {} edge services over five minutes",
            trace.requests.len(),
            counts.len()
        ),
        t,
    )
    .with_extra(&chart)
}

/// Fig. 10: distribution of the 42 deployments over five minutes.
pub fn fig10(seed: u64) -> Figure {
    let trace = Trace::generate(TraceConfig::default(), seed);
    let per_sec = trace.deployments_per_second();
    let peak = *per_sec.iter().max().unwrap();
    let mut t = Table::new(&["Second", "Deployments"]);
    for (s, &d) in per_sec.iter().enumerate() {
        if d > 0 {
            t.row(vec![s.to_string(), d.to_string()]);
        }
    }
    let chart = format!(
        "\nDeployments over the trace (peak {peak}/s, paper: up to ~8/s early):\n{}\n",
        timeline(&per_sec, 75)
    );
    Figure::new(
        "fig10",
        "Distribution of 42 edge service deployments over five minutes",
        t,
    )
    .with_extra(&chart)
}

// ---------------------------------------------------------------------------
// The deployment-phase experiments (Figs. 11/12/14/15/16)
// ---------------------------------------------------------------------------

/// The measurements of one trace replay: one service type on one cluster.
#[derive(Clone, Debug, Default)]
pub struct DeploymentRun {
    /// `time_total` of each service's *first* request (deployment included),
    /// seconds.
    pub firsts: Vec<f64>,
    /// Controller-observed wait-until-ready per deployment, seconds.
    pub waits: Vec<f64>,
    /// `time_total` of warm (non-first) requests, seconds.
    pub warm: Vec<f64>,
    /// Connection resets seen (expected zero).
    pub resets: u64,
}

impl DeploymentRun {
    /// Reads a replay: each service's first request is the first to arrive,
    /// the rest are warm.
    fn of(tb: &Testbed) -> DeploymentRun {
        let mut first_done: BTreeMap<ServiceAddr, f64> = BTreeMap::new();
        let mut warm = Vec::new();
        for c in arrival_order(tb) {
            let total = c.timing.time_total().expect("completed").as_secs_f64();
            if let std::collections::btree_map::Entry::Vacant(e) = first_done.entry(c.service) {
                e.insert(total);
            } else {
                warm.push(total);
            }
        }
        let waited = tb.controller.records.iter().filter(|r| r.kind == RequestKind::Waited);
        let wait = |r| tb.controller.deployment(r)?.phases.wait_time().map(|d| d.as_secs_f64());
        let waits = waited.filter_map(wait).collect();
        DeploymentRun { firsts: first_done.into_values().collect(), waits, warm, resets: tb.resets }
    }

    /// The median first-request `time_total` (Figs. 11, 12).
    pub fn median_first(&self) -> f64 {
        Summary::new(self.firsts.clone()).median().unwrap_or(f64::NAN)
    }
    /// The median wait-until-ready (Figs. 14, 15).
    pub fn median_wait(&self) -> f64 {
        Summary::new(self.waits.clone()).median().unwrap_or(f64::NAN)
    }
    /// The median warm-request `time_total` (Fig. 16).
    pub fn median_warm(&self) -> f64 {
        Summary::new(self.warm.clone()).median().unwrap_or(f64::NAN)
    }
}

/// Replays the bigFlows-like trace with every one of the 42 services bound
/// to `profile` on a cluster of `kind`. `pre_create` distinguishes the
/// scale-up-only scenario (Fig. 11: images pulled *and* services created)
/// from create+scale-up (Fig. 12: images pulled only).
pub fn run_trace_experiment(
    kind: ClusterKind,
    profile: &ServiceProfile,
    pre_create: bool,
    seed: u64,
) -> DeploymentRun {
    let trace = Trace::generate(TraceConfig::default(), seed);
    let warmth = if pre_create { Warmth::Created } else { Warmth::Pulled };
    // A 400 s idle timeout keeps all 42 services alive for the whole trace,
    // so the run produces exactly the 42 deployments of Fig. 10.
    let cfg = config(kind, "proximity", seed);
    DeploymentRun::of(&replay(cfg, 400, profile, warmth, &trace, SimTime::from_secs(400)))
}

/// All eight trace replays (4 services × 2 clusters) for one scenario: the
/// matrix Figs. 11, 12 and 14–16 each read one metric of.
pub struct EvalRuns {
    /// `(cluster, service key)` → run.
    pub runs: BTreeMap<(&'static str, &'static str), DeploymentRun>,
}

impl EvalRuns {
    /// Runs the full matrix for the given scenario.
    pub fn collect(pre_create: bool, seed: u64) -> EvalRuns {
        let mut runs = BTreeMap::new();
        for kind in [ClusterKind::Docker, ClusterKind::K8s] {
            for profile in ServiceSet::all() {
                let run = run_trace_experiment(kind, &profile, pre_create, seed);
                runs.insert((kind.label(), profile.key), run);
            }
        }
        EvalRuns { runs }
    }

    /// The figure `id`: `metric` of every run, in seconds, per service and
    /// cluster.
    pub fn figure(&self, id: &'static str, title: &str, metric: fn(&DeploymentRun) -> f64) -> Figure {
        let mut t = Table::new(&["Service", "Docker", "K8s"]);
        let (mut labels, mut values) = (Vec::new(), Vec::new());
        for profile in ServiceSet::all() {
            let d = metric(&self.runs[&("Docker", profile.key)]);
            let k = metric(&self.runs[&("K8s", profile.key)]);
            t.row(vec![profile.key.to_string(), format!("{d:.3} s"), format!("{k:.3} s")]);
            labels.extend([format!("{} (Docker)", profile.key), format!("{} (K8s)", profile.key)]);
            values.extend([d, k]);
        }
        let chart = format!("\n{}", bar_chart(&labels, &values, 50, "s"));
        Figure::new(id, title.to_owned(), t).with_extra(&chart)
    }
}

// ---------------------------------------------------------------------------
// Fig. 13 — pull times
// ---------------------------------------------------------------------------

/// Fig. 13: total time to pull each service's images from its public
/// registry (Docker Hub / GCR) versus a private in-network registry.
pub fn fig13(n_seeds: u64) -> Figure {
    let mut t = Table::new(&["Service", "Public registry", "Private registry", "Saving"]);
    let mut labels = Vec::new();
    let mut values = Vec::new();
    for profile in ServiceSet::all() {
        let mut public = Vec::new();
        let mut private = Vec::new();
        for seed in 0..n_seeds {
            let mut rng = SimRng::new(seed ^ 0x000f_1613);
            let mut store = ContentStore::new();
            public.push(store.pull_all(&profile.manifests, &mut rng).as_secs_f64());
            let mut rng = SimRng::new(seed ^ 0x000f_1613);
            let mut store = ContentStore::with_mirror(RegistryProfile::private_local());
            private.push(store.pull_all(&profile.manifests, &mut rng).as_secs_f64());
        }
        let pu = Summary::new(public).median().unwrap();
        let pr = Summary::new(private).median().unwrap();
        t.row(vec![
            profile.key.to_string(),
            format!("{pu:.3} s"),
            format!("{pr:.3} s"),
            format!("{:.3} s", pu - pr),
        ]);
        labels.push(format!("{} (public)", profile.key));
        values.push(pu);
        labels.push(format!("{} (private)", profile.key));
        values.push(pr);
    }
    let chart = format!("\n{}", bar_chart(&labels, &values, 50, "s"));
    Figure::new(
        "fig13",
        "Total time to pull the service container images (public vs private registry)",
        t,
    )
    .with_extra(&chart)
}

// ---------------------------------------------------------------------------
// Ablations (Sections V & VII)
// ---------------------------------------------------------------------------

/// Section VII's hybrid proposal: answer the first request via Docker
/// (fast), deploy the same service on Kubernetes in the background for
/// future requests — one controller, two clusters, the `docker-first`
/// Global Scheduler. Reported per service: the first answer (Docker speed),
/// when the background K8s instance became ready, the K8s-only baseline it
/// beats, and which cluster serves a later fresh client.
pub fn hybrid(seed: u64) -> Figure {
    let mut t = Table::new(&[
        "Service",
        "First answer (hybrid)",
        "K8s ready (background)",
        "K8s-only first answer",
        "Later client served by",
    ]);
    for profile in ServiceSet::all() {
        let mut tb = Testbed::new(config(ClusterKind::Docker, "docker-first", seed));
        tb.add_hybrid_k8s();
        // A fresh client well after the background deployment finished.
        let at = [SimTime::from_secs(1), SimTime::from_secs(30)];
        let until = SimTime::from_secs(90);
        let (tb, totals) = probe(tb, &profile, |tb, addr| tb.pre_pull_on(addr, 1), &at, until);
        let first_deployment = tb.controller.records.first().and_then(|r| tb.controller.deployment(r));
        let bg_ready = first_deployment.and_then(|d| d.background_ready);
        let later = tb.controller.records.iter().find(|r| r.client == tb.topology().client_ip(1));
        let later_cluster = later.and_then(|r| r.cluster()).map(|i| tb.controller.cluster(i).name());
        let (k8s_only, _) = first_request_under(ClusterKind::K8s, &profile, "proximity", seed);
        t.row(vec![
            profile.key.to_string(),
            format!("{:.3} s", totals[0]),
            secs_since(bg_ready, at[0]),
            format!("{k8s_only:.3} s"),
            later_cluster.unwrap_or("-").to_owned(),
        ]);
    }
    Figure::new(
        "hybrid",
        "Docker-first + Kubernetes-later hybrid (Section VII)",
        t,
    )
    .with_extra("\nFirst response arrives at Docker speed while Kubernetes deploys in the background; once its pod is ready, new clients are served by K8s.\n")
}

/// On-demand deployment *with* vs *without* waiting (Figs. 3/5): when a
/// farther edge already runs the service, the without-waiting scheduler
/// answers the first request immediately from there while the nearby edge
/// deploys; with-waiting holds the first request until the nearby instance
/// is up.
pub fn waiting_comparison(seed: u64) -> Figure {
    let mut t = Table::new(&[
        "Service",
        "With waiting (first req)",
        "Without waiting (first req)",
        "Near edge ready (bg)",
    ]);
    for profile in ServiceSet::all() {
        let docker = ClusterKind::Docker;
        let (with_wait, _) = first_request_under(docker, &profile, "proximity", seed);
        let (without_wait, bg_ready) = first_request_under(docker, &profile, "latency-aware", seed);
        t.row(vec![
            profile.key.to_string(),
            format!("{with_wait:.3} s"),
            format!("{without_wait:.3} s"),
            bg_ready,
        ]);
    }
    Figure::new(
        "waiting",
        "On-demand deployment with vs without waiting (first request)",
        t,
    )
}

/// The probe the ablations share: one service on `tb`, its images pulled
/// and its containers created on the edge cluster, `setup(tb, addr)` for
/// what the scenario adds, then client `i`'s request at `at[i]`, run until
/// `until`. Returns the finished testbed and each client's `time_total` in
/// seconds (NaN when it never completed).
fn probe(
    mut tb: Testbed,
    profile: &ServiceProfile,
    setup: impl FnOnce(&mut Testbed, ServiceAddr),
    at: &[SimTime],
    until: SimTime,
) -> (Testbed, Vec<f64>) {
    let addr = addr_of(profile, 0);
    tb.register_service(profile.clone(), addr);
    tb.pre_pull(addr);
    tb.pre_create(addr);
    setup(&mut tb, addr);
    for (client, &t) in at.iter().enumerate() {
        tb.request_at(t, client, addr);
    }
    tb.run_until(until);
    let total = |client| {
        let done = tb.completed.iter().find(|c| c.client == client);
        done.and_then(|c| c.timing.time_total()).map_or(f64::NAN, |d| d.as_secs_f64())
    };
    let totals = (0..at.len()).map(total).collect();
    (tb, totals)
}

/// `at` as seconds after `t0`, formatted as a cell; `-` when there is none.
fn secs_since(at: Option<SimTime>, t0: SimTime) -> String {
    at.map_or_else(|| "-".to_owned(), |at| format!("{:.3} s", at.saturating_since(t0).as_secs_f64()))
}

/// First-request `time_total`, and when the near instance became ready (a
/// cell), on a cluster of `kind` under a given Global Scheduler, in a
/// two-edge scenario: the near edge is empty (images cached, containers
/// created) and a *far* instance is already running — emulated by the
/// cloud hosting the service.
fn first_request_under(
    kind: ClusterKind,
    profile: &ServiceProfile,
    scheduler: &str,
    seed: u64,
) -> (f64, String) {
    let tb = Testbed::new(config(kind, scheduler, seed));
    let t0 = SimTime::from_secs(1);
    let (tb, totals) = probe(tb, profile, |_, _| {}, &[t0], SimTime::from_secs(60));
    let first = tb.controller.records.first().and_then(|r| tb.controller.deployment(r));
    let near_ready = first.and_then(|d| d.background_ready.or(d.phases.instance_ready));
    (totals[0], secs_since(near_ready, t0))
}

/// FlowMemory idle-timeout sweep (Section V): shorter timeouts scale idle
/// services down sooner but cause re-deployments; longer timeouts keep
/// instances warm at the cost of occupancy.
pub fn timeout_sweep(seed: u64) -> Figure {
    let profile = ServiceSet::by_key("asm").expect("asm profile");
    let trace = Trace::generate(
        TraceConfig {
            n_services: 8,
            n_requests: 240,
            min_per_service: 10,
            ..TraceConfig::default()
        },
        seed,
    );
    let mut t = Table::new(&[
        "Idle timeout [s]",
        "Deployments",
        "Memory hits",
        "Scale-downs",
        "Median first-req [s]",
    ]);
    for timeout_s in [5u64, 15, 30, 60, 120, 300] {
        let cfg = config(ClusterKind::Docker, "proximity", seed);
        let tb: Testbed = replay(cfg, timeout_s, &profile, Warmth::Created, &trace, SimTime::from_secs(400));
        // A deployment = a record that actually issued a scale-up (several
        // concurrent requests may wait on one in-flight deployment).
        let scaled_up = |r| tb.controller.deployment(r).is_some_and(|d| d.phases.scale_up_at.is_some());
        let deployments = tb.controller.records.iter().filter(|r| scaled_up(r)).count();
        let hits = tb.controller.records.iter().filter(|r| r.kind == RequestKind::MemoryHit).count();
        let med = Summary::new(waited_totals(&tb)).median().unwrap_or(f64::NAN);
        let scale_downs = tb.controller.telemetry.metrics.counter("scale_downs");
        t.row(vec![
            timeout_s.to_string(),
            deployments.to_string(),
            hits.to_string(),
            scale_downs.to_string(),
            format!("{med:.3}"),
        ]);
    }
    Figure::new(
        "timeout-sweep",
        "FlowMemory idle-timeout sweep: re-deployments vs memory hits",
        t,
    )
}

/// `time_total` of every request the controller held for a deployment. The
/// records are in packet-in order; each is paired with the completed request
/// of its client and service, in arrival order.
fn waited_totals(tb: &Testbed) -> Vec<f64> {
    let mut by_flow: BTreeMap<(Ipv4Addr, ServiceAddr), VecDeque<f64>> = BTreeMap::new();
    for c in arrival_order(tb) {
        let total = c.timing.time_total().expect("completed").as_secs_f64();
        by_flow.entry((client_ip_for(c.client), c.service)).or_default().push_back(total);
    }
    let records = tb.controller.records.iter();
    records
        .filter_map(|r| Some((r.kind, by_flow.get_mut(&(r.client, r.service))?.pop_front()?)))
        .filter_map(|(kind, total)| (kind == RequestKind::Waited).then_some(total))
        .collect()
}

/// Proactive deployment (Sections I/VII): the paper argues on-demand
/// deployment is the safety net for imperfect prediction; this ablation
/// quantifies the trade-off. The trace is replayed with an aggressive idle
/// timeout (services scale down between bursts), under different predictors:
/// cold dispatches ("waited") drop as prediction improves, at the cost of
/// proactive deployments.
pub fn proactive(seed: u64) -> Figure {
    let profile = ServiceSet::by_key("nginx").expect("nginx profile");
    let trace = Trace::generate(
        TraceConfig {
            n_services: 12,
            n_requests: 420,
            min_per_service: 12,
            ..TraceConfig::default()
        },
        seed,
    );
    let mut t = Table::new(&[
        "Predictor",
        "Cold (waited) requests",
        "Proactive deployments",
        "Median time_total [s]",
        "p90 time_total [s]",
    ]);
    for predictor in ["none", "recency", "frequency", "markov"] {
        let cfg = TestbedConfig { predictor: predictor.to_owned(), ..config(ClusterKind::Docker, "proximity", seed) };
        let tb: Testbed = replay(cfg, 20, &profile, Warmth::Created, &trace, SimTime::from_secs(400));
        let waited = tb
            .controller
            .records
            .iter()
            .filter(|r| r.kind == RequestKind::Waited)
            .count();
        let totals: Vec<f64> = tb
            .completed
            .iter()
            .filter_map(|c| c.timing.time_total())
            .map(|d| d.as_secs_f64())
            .collect();
        let s = Summary::new(totals);
        t.row(vec![
            predictor.to_string(),
            waited.to_string(),
            tb.proactive_deployments.to_string(),
            format!("{:.4}", s.median().unwrap_or(f64::NAN)),
            format!("{:.4}", s.percentile(90.0).unwrap_or(f64::NAN)),
        ]);
    }
    Figure::new(
        "proactive",
        "Proactive deployment: prediction quality vs cold requests",
        t,
    )
    .with_extra("\nPrediction keeps services warm across idle gaps: cold (held) requests fall, paid for in proactive deployments. On-demand deployment absorbs every miss.\n")
}

/// The Local Scheduler ablation (Section IV-B, Fig. 6): on a multi-worker
/// Kubernetes edge cluster, the pluggable `schedulerName` decides placement —
/// and since image caches are per node, placement decides who pulls. The
/// default spreading scheduler distributes load but multiplies cold pulls;
/// the packing scheduler reuses one node's cache and leaves the others free.
pub fn local_scheduler(seed: u64) -> Figure {
    use containerd::ContainerdNode;
    use k8ssim::objects::{PodContainer, PodTemplate};
    use k8ssim::{ClusterEvent, K8sCluster, PackFirstScheduler};
    use registry::image::catalog;

    let mut t = Table::new(&[
        "Local scheduler",
        "Nodes used",
        "Cold pulls",
        "Bytes pulled",
        "Median pod-ready [s]",
    ]);
    for (label, scheduler_name) in [
        ("default (spread)", None::<&str>),
        ("edge-pack-scheduler", Some("edge-pack-scheduler")),
    ] {
        let mut rng = SimRng::new(seed ^ 0x10c);
        let mut c = K8sCluster::with_defaults();
        c.add_worker("pi-01", ContainerdNode::with_defaults(), 30);
        c.add_worker("pi-02", ContainerdNode::with_defaults(), 30);
        c.register_scheduler(Box::<PackFirstScheduler>::default());

        let mut ready_latencies = Vec::new();
        let mut nodes_used = std::collections::BTreeSet::new();
        let mut events = Vec::new();
        for i in 0..9u64 {
            let name = format!("svc-{i}");
            let sel: std::collections::BTreeMap<String, String> =
                [("app".to_string(), name.clone())].into();
            let dep = k8ssim::Deployment {
                name: name.clone(),
                labels: sel.clone(),
                replicas: 1,
                selector: sel.clone(),
                template: PodTemplate {
                    labels: sel.clone().into(),
                    containers: vec![PodContainer {
                        spec: containerd::ContainerSpec::new(
                            "nginx",
                            registry::ImageRef::parse("nginx:1.23.2"),
                            Some(80),
                        )
                        .into(),
                        manifest: catalog::nginx(),
                        ready: desim::LogNormal::from_median(0.045, 0.2),
                    }],
                },
                scheduler_name: scheduler_name.map(str::to_owned),
            };
            let svc = k8ssim::Service {
                name: name.clone(),
                selector: sel,
                port: 80,
                target_port: 80,
                protocol: "TCP".into(),
            };
            let t0 = SimTime::from_secs(i * 30);
            c.apply(dep, svc, t0, &mut rng);
            c.settle(&mut rng, &mut events);
            for &e in &events {
                match e {
                    ClusterEvent::PodScheduled { node, .. } => {
                        nodes_used.insert(node);
                    }
                    ClusterEvent::PodReady { at, .. } => {
                        ready_latencies.push(at.saturating_since(t0).as_secs_f64());
                    }
                    _ => {}
                }
            }
        }
        let bytes: u64 = c.workers().iter().map(|w| w.node.store().disk_usage()).sum();
        let cold_pulls = c
            .workers()
            .iter()
            .filter(|w| w.node.store().has_image(&catalog::nginx()))
            .count();
        let med = Summary::new(ready_latencies).median().unwrap_or(f64::NAN);
        t.row(vec![
            label.to_string(),
            nodes_used.len().to_string(),
            cold_pulls.to_string(),
            format!("{} MiB", bytes / (1024 * 1024)),
            format!("{med:.3}"),
        ]);
    }
    Figure::new(
        "local-scheduler",
        "Local Scheduler ablation: placement decides per-node pulls",
        t,
    )
}

/// The hierarchical-edge scenario (Section IV-A-2): "a 'non-optimal'
/// (further away, but on the route to the cloud) edge cluster is much more
/// likely to have the requested service cached or even running already."
/// With a far edge running the service, the without-waiting first request is
/// answered from there (milliseconds) instead of the cloud (tens of ms) or
/// a held deployment (hundreds of ms) — while the near edge warms up.
pub fn hierarchy(seed: u64) -> Figure {
    let mut t = Table::new(&[
        "Service",
        "First req via far edge",
        "First req via cloud (no far edge)",
        "First req held (with waiting)",
        "Steady state (near edge)",
    ]);
    for profile in ServiceSet::all() {
        let run = |far_edge, scheduler| {
            let tb = Testbed::new(TestbedConfig { far_edge, ..config(ClusterKind::Docker, scheduler, seed) });
            let far = |tb: &mut Testbed, addr| if far_edge { tb.pre_deploy_on(addr, 1) };
            // Setup (including the far edge's own cold pull) finishes well
            // before t = 10 s; the steady-state probe runs after the
            // background deployment.
            let at = [SimTime::from_secs(10), SimTime::from_secs(40)];
            probe(tb, &profile, far, &at, SimTime::from_secs(90)).1
        };
        let far = run(true, "latency-aware");
        let cloud = run(false, "latency-aware");
        let held = run(false, "proximity");
        t.row(vec![
            profile.key.to_string(),
            format!("{:.4} s", far[0]),
            format!("{:.4} s", cloud[0]),
            format!("{:.4} s", held[0]),
            format!("{:.4} s", far[1]),
        ]);
    }
    Figure::new(
        "hierarchy",
        "Hierarchical edges: a farther cluster already running the service",
        t,
    )
    .with_extra("\nThe far edge answers the first request ~an order of magnitude faster than the cloud and without any deployment hold; future requests move to the near edge once it is up.\n")
}

// ---------------------------------------------------------------------------
// Experiments with arms that can record telemetry (chaos, mobility, recovery)
// ---------------------------------------------------------------------------

/// What a recording run hands back: its span log and metrics snapshot.
pub(crate) type Recording = (SpanLog, MetricsRegistry);

/// The arms of an experiment that can record telemetry.
pub struct Experiment<S> {
    /// Each arm's label and aggregates, in arm order.
    pub runs: Vec<(&'static str, S)>,
    /// With telemetry on, each arm's label and its own recording, in arm
    /// order: span names as recorded, request ids from 1. Recording is
    /// observation only — `runs` are the same either way.
    pub recordings: Vec<(&'static str, Recording)>,
}

/// Takes what a recording harness recorded; `None` when `S` records no spans.
fn take_recording<T: Net, S: Spans>(tb: &mut Harness<T, S>) -> Option<Recording> {
    tb.span_log()?;
    let metrics = tb.telemetry_snapshot();
    Some((std::mem::take(&mut tb.controller.telemetry).into_span_log()?, metrics))
}

/// Runs every arm of an experiment, each keeping its own recording.
fn run_arms<A, S>(
    arms: impl IntoIterator<Item = (A, &'static str)>,
    mut run: impl FnMut(A) -> (S, Option<Recording>),
) -> Experiment<S> {
    let mut e = Experiment { runs: Vec::new(), recordings: Vec::new() };
    for (arm, label) in arms {
        let (stats, recorded) = run(arm);
        e.runs.push((label, stats));
        e.recordings.extend(recorded.map(|r| (label, r)));
    }
    e
}

// ---------------------------------------------------------------------------
// Chaos: the hardened deployment pipeline under fault injection
// ---------------------------------------------------------------------------

/// Per-cluster aggregates of one chaos replay.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChaosRun {
    /// Requests the controller recorded (one per packet-in).
    pub requests: u64,
    /// Requests whose client got its response, from the edge or the cloud.
    pub completed: u64,
    waited: u64,
    memory_hits: u64,
    fallbacks: u64,
    pull_retries: u64,
    create_retries: u64,
    scale_up_retries: u64,
    coalesced: u64,
    resets: u64,
}

fn chaos_run<S: Spans>(
    kind: ClusterKind,
    fault_rate: f64,
    smoke: bool,
    seed: u64,
) -> (ChaosRun, Option<Recording>) {
    let trace_cfg = if smoke {
        TraceConfig::chaos_smoke()
    } else {
        TraceConfig::chaos()
    };
    let trace = Trace::generate(trace_cfg, seed);
    let profile = ServiceSet::by_key("asm").expect("asm profile");
    let faults = desim::FaultPlan::uniform(fault_rate, seed ^ 0xC4A0_5EED);
    let cfg = TestbedConfig { faults, ..config(kind, "proximity", seed) };
    // Deliberately cold, and an aggressive 30 s idle timeout: services
    // cycle down and redeploy, and the pulls keep the Pull phase (and its
    // faults) on the critical path, giving every fault site repeated
    // chances to fire.
    let until = SimTime::ZERO + trace.config.duration + Duration::from_secs(120);
    let mut tb = replay::<S>(cfg, 30, &profile, Warmth::Cold, &trace, until);

    let mut run = ChaosRun {
        requests: tb.controller.records.len() as u64,
        completed: tb.completed.len() as u64,
        coalesced: tb.controller.coalesced_count(),
        resets: tb.resets,
        ..ChaosRun::default()
    };
    for r in &tb.controller.records {
        match r.kind {
            RequestKind::Waited => run.waited += 1,
            RequestKind::MemoryHit => run.memory_hits += 1,
            RequestKind::FallbackCloud => run.fallbacks += 1,
            _ => {}
        }
        let Some(p) = tb.controller.deployment(r).map(|d| d.phases) else { continue };
        run.pull_retries += u64::from(p.pull_retries);
        run.create_retries += u64::from(p.create_retries);
        run.scale_up_retries += u64::from(p.scale_up_retries);
    }
    let mut recording = take_recording(&mut tb);
    if let Some((_, m)) = recording.as_mut().filter(|(_, m)| m.counter("requests_total") > 0) {
        let rate = m.counter("requests_fallback_cloud") as f64 / m.counter("requests_total") as f64;
        m.set_gauge("fallback_cloud_rate", rate);
    }
    (run, recording)
}

/// The chaos experiment (deployment-pipeline hardening): replays a bursty
/// trace on both cluster kinds while a seedable [`desim::FaultPlan`] injects
/// failures into every deployment phase at `fault_rate`. Failed phases are
/// retried with exponential backoff under a deadline; deployments that
/// exhaust their budget release held requests toward the cloud. The figure
/// reports per-phase retry totals and cloud fallbacks per cluster kind;
/// the arms carry them for the bench's verdict. Deterministic per seed.
/// With `telemetry` on, the arms `docker` and `k8s` each record, and each
/// arm's metrics gain a derived `fallback_cloud_rate` gauge.
pub fn chaos(
    seed: u64,
    fault_rate: f64,
    smoke: bool,
    telemetry: bool,
) -> (Figure, Experiment<ChaosRun>) {
    let e = run_arms(
        [(ClusterKind::Docker, "docker"), (ClusterKind::K8s, "k8s")],
        |kind| match telemetry {
            true => chaos_run::<SpanLog>(kind, fault_rate, smoke, seed),
            false => chaos_run::<Off>(kind, fault_rate, smoke, seed),
        },
    );
    let mut t = Table::new(&[
        "Cluster",
        "Requests",
        "Completed",
        "Waited",
        "Memory hits",
        "Fallbacks",
        "Retries (pull/create/scale-up)",
        "Coalesced",
        "Resets",
    ]);
    for (kind, (_, run)) in [ClusterKind::Docker, ClusterKind::K8s]
        .into_iter()
        .zip(&e.runs)
    {
        t.row(vec![
            kind.label().to_string(),
            run.requests.to_string(),
            run.completed.to_string(),
            run.waited.to_string(),
            run.memory_hits.to_string(),
            run.fallbacks.to_string(),
            format!(
                "{}/{}/{}",
                run.pull_retries, run.create_retries, run.scale_up_retries
            ),
            run.coalesced.to_string(),
            run.resets.to_string(),
        ]);
    }
    let figure = Figure::new(
        "chaos",
        format!(
            "Deployment pipeline under fault injection (rate {fault_rate}, {} trace)",
            if smoke { "smoke" } else { "full" }
        ),
        t,
    );
    (figure, e)
}

// ---------------------------------------------------------------------------
// Mobility: multi-gNB ingress, user mobility, transparent handover
// ---------------------------------------------------------------------------

/// The mobility family's scenario size for a smoke or full run, as the
/// config its members (mobility, migration, recovery, HA) extend.
fn mobility_family(smoke: bool, seed: u64) -> MobilityConfig {
    let (n_gnbs, n_clients) = if smoke { (3, 4) } else { (4, 12) };
    MobilityConfig {
        n_gnbs,
        n_clients,
        seed,
        ..MobilityConfig::default()
    }
}

/// Runs the mobility family's one scenario under `cfg` and returns the
/// finished testbed: the `asm` service at `203.0.113.10:80`; images cached
/// and containers created in every zone (a redispatch pays only the
/// on-demand scale-up) but instances *running* only where clients start, so
/// moving onto a cold zone exercises the deployment pipeline; vehicular
/// mobility across a one-dimensional strip of small cells, one grid cell per
/// gNB, crossings every few seconds; sessions from 1 s to 20 s (smoke) or
/// 60 s, then `drain` more for whatever is in flight to settle. Every member
/// shares these constants, so with its own knobs at zero a member *is* the
/// plain mobility run — the determinism guarantee the tests pin down.
fn run_mobility_family<S: Spans>(
    cfg: MobilityConfig,
    smoke: bool,
    drain: Duration,
) -> Harness<MultiGnbTopology, S> {
    let (n_gnbs, n_clients) = (cfg.n_gnbs, cfg.n_clients);
    let model_seed = cfg.seed ^ 0x6d6f_7665;
    let mut tb = Harness::<MultiGnbTopology, S>::new(cfg);
    let profile = ServiceSet::by_key("asm").expect("asm profile");
    tb.register_service(
        profile,
        ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80),
    );
    tb.warm_all_zones();
    let grid = mobility::CellGrid::new(n_gnbs as u32, 1, 120.0);
    let mut model =
        mobility::RandomWaypoint::new(grid, n_clients, model_seed).with_speed(30.0, 50.0);
    let mut seeded: Vec<usize> = (0..n_clients)
        .map(|c| mobility::MobilityModel::initial_cell(&model, c) % n_gnbs)
        .collect();
    seeded.sort_unstable();
    seeded.dedup();
    for z in seeded {
        tb.pre_deploy_on(z);
    }
    let end = SimTime::from_secs(if smoke { 20 } else { 60 });
    tb.run(&mut model, SimTime::from_secs(1), end);
    tb.run_until(end + drain);
    tb
}

/// The session counters every member of the mobility family reports, read
/// off its finished testbed by [`SessionCounts::read`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SessionCounts {
    /// Inter-gNB handovers the controller heard about.
    pub handovers: u64,
    /// Pings sent across all sessions.
    pub pings_sent: u64,
    /// Pings answered across all sessions.
    pub pings_done: u64,
    /// Frames dropped by the data plane.
    pub drops: u64,
    /// Responses arriving with no ping outstanding (a retransmitted ping
    /// answered twice — expected under loss, must stay small).
    pub double_answered: u64,
    /// RST replies seen by clients.
    pub resets: u64,
    /// Frames reaching a client with a non-cloud source address.
    pub transparency_violations: u64,
    /// Client retransmissions (lost SYNs and pings resent).
    pub retransmits: u64,
    /// Control messages lost to a down channel or a dead controller.
    pub ctrl_dropped: u64,
    /// Sessions permanently stranded after the drain window (must be 0).
    pub stranded: u64,
    /// Fix messages issued by the final switch-table reconciliation pass.
    pub reconcile_fixes: u64,
    /// Fix messages the *second* pass still wanted (must be 0: the tables
    /// diff clean against the controller's bookkeeping).
    pub reconcile_residual: u64,
}

impl SessionCounts {
    /// Reconciles every switch table twice, then reads the counters.
    fn read<S: Spans>(tb: &mut Harness<MultiGnbTopology, S>) -> SessionCounts {
        let reconcile_fixes = tb.reconcile_now() as u64;
        let reconcile_residual = tb.reconcile_now() as u64;
        SessionCounts {
            handovers: tb.handovers.len() as u64,
            pings_sent: tb.pings_sent(),
            pings_done: tb.pings_done(),
            drops: tb.drops,
            double_answered: tb.double_answered,
            resets: tb.resets,
            transparency_violations: tb.transparency_violations,
            retransmits: tb.retransmits,
            ctrl_dropped: tb.ctrl_dropped,
            stranded: tb.stranded(),
            reconcile_fixes,
            reconcile_residual,
        }
    }
}

/// Aggregates of one mobility run (one policy). Also consumed by the
/// `bench` crate to emit `BENCH_mobility.json`.
#[derive(Clone, Debug, Default)]
pub struct MobilityStats {
    /// The session counters.
    pub session: SessionCounts,
    /// FlowMemory entries migrated across all handovers.
    pub flows_migrated: u64,
    /// Sessions re-placed through the Global Scheduler.
    pub redispatched: u64,
    /// Control-plane interruption per handover, seconds.
    pub interruptions: Vec<f64>,
}

fn mobility_run<S: Spans>(
    policy: edgectl::HandoverPolicy,
    smoke: bool,
    seed: u64,
) -> (MobilityStats, Option<Recording>) {
    let cfg = MobilityConfig {
        policy,
        ..mobility_family(smoke, seed)
    };
    let mut tb = run_mobility_family::<S>(cfg, smoke, Duration::ZERO);
    let mut run = MobilityStats::default();
    for h in &tb.handovers {
        run.flows_migrated += h.flows_migrated as u64;
        run.redispatched += h.redispatched as u64;
        run.interruptions.push(h.interruption().as_secs_f64());
    }
    let mut recording = take_recording(&mut tb);
    if let (Some((_, m)), false) = (&mut recording, run.interruptions.is_empty()) {
        let p99 = Summary::new(run.interruptions.clone()).percentile(99.0).unwrap_or(0.0);
        m.set_gauge("handover_interruption_p99_ms", p99 * 1e3);
    }
    // Read after the recording is taken: the reconciliation it ends with
    // records spans of its own.
    run.session = SessionCounts::read(&mut tb);
    (run, recording)
}

/// Both handover policies with their labels: the arms of the mobility and
/// recovery experiments.
fn handover_policies() -> [(edgectl::HandoverPolicy, &'static str); 2] {
    [
        edgectl::HandoverPolicy::Anchored,
        edgectl::HandoverPolicy::Redispatch,
    ]
    .map(|p| (p, p.label()))
}

/// The mobility experiment: user mobility across a multi-gNB RAN with
/// transparent flow handover, comparing the **anchored** policy (sessions
/// stay on their old zone's instance, reached across the metro link) against
/// **re-dispatch** (sessions are re-placed through the Global Scheduler onto
/// the new nearest edge, re-using the on-demand deployment pipeline).
/// Each arm counts handovers, control-plane interruptions and the
/// session-continuity invariants (no ping dropped or double-answered,
/// transparency preserved), which `BENCH_mobility.json`'s gate holds at
/// zero. Deterministic per seed. With `telemetry` on, the arms `anchored`
/// and `redispatch` each record, and each arm's metrics gain a
/// `handover_interruption_p99_ms` gauge.
pub fn mobility(seed: u64, smoke: bool, telemetry: bool) -> Experiment<MobilityStats> {
    run_arms(handover_policies(), |policy| match telemetry {
        true => mobility_run::<SpanLog>(policy, smoke, seed),
        false => mobility_run::<Off>(policy, smoke, seed),
    })
}

// ---------------------------------------------------------------------------
// Live migration: the service follows the user
// ---------------------------------------------------------------------------

/// Aggregates of one migration run (one arm). Also consumed by the `bench`
/// crate to emit `BENCH_migrate.json`.
#[derive(Clone, Debug, Default)]
pub struct MigrationStats {
    /// The session counters.
    pub session: SessionCounts,
    /// Live migrations completed.
    pub migrations: u64,
    /// Migrations abandoned (source retired mid-transfer).
    pub migrations_aborted: u64,
    /// Session-state bytes shipped zone-to-zone.
    pub state_bytes_transferred: u64,
    /// Redirect flows flipped make-before-break.
    pub flows_flipped: u64,
    /// Client-visible interruption per move, seconds: every handover flip
    /// plus (on the live arm) every migration flip.
    pub interruptions: Vec<f64>,
    /// Background state-transfer time per migration, seconds — the source
    /// keeps serving throughout, so this is cost, not interruption.
    pub transfers: Vec<f64>,
}

/// One migration run's aggregates — the building block behind the bench
/// crate's `BENCH_migrate.json`. The **live** arm anchors handovers and lets
/// `edgectl::migrate` chase the client with snapshot + transfer + flip; the
/// **cold** arm is the PR 4 re-dispatch baseline (state lost, sessions
/// re-placed through the Global Scheduler). The mobility family's scenario,
/// so the two compose into one comparison table.
///
/// Both arms ship the same session state over the same metro link — the
/// difference is *where* the cost lands. Live snapshots in the background
/// while the source keeps serving, so the client only sees the flip. Cold
/// loses the state on re-dispatch: before the replacement instance can
/// answer, it must re-fetch an equivalent snapshot from the old zone, and
/// that fetch sits squarely in the client-visible path — one propagation
/// round even at state zero, plus serialization of everything the session
/// accrued so far (`state_bytes_per_request` × requests served, estimated
/// from the session's age at the hop and the ping cadence).
pub fn migration_stats(
    live: bool,
    state_bytes_per_request: u64,
    seed: u64,
    smoke: bool,
) -> MigrationStats {
    // Same per-request state and metro bandwidth on both arms — live ships
    // it in the background, cold's rebuild cost model below charges it to
    // the client — so the comparison isolates *where* the transfer happens,
    // not how much is transferred. The link is slow enough that the swept
    // state sizes produce visibly linear transfer cost (the default 10 Gbps
    // ships even megabytes in microseconds).
    let transfer = edgectl::MigrationConfig {
        state_bytes_per_request,
        transfer_bandwidth_bps: 200_000_000,
        ..edgectl::MigrationConfig::default()
    };
    let mut cfg = mobility_family(smoke, seed);
    if live {
        cfg.controller.migration = edgectl::MigrationConfig {
            policy: edgectl::MigrationPolicy::Live,
            ..transfer
        };
    } else {
        cfg.policy = edgectl::HandoverPolicy::Redispatch;
    }
    // The drain lets in-flight transfers reach their flip before the
    // records are read.
    let mut tb: MobilityTestbed = run_mobility_family(cfg, smoke, Duration::from_secs(10));
    let mut run = MigrationStats {
        session: SessionCounts::read(&mut tb),
        migrations: tb.controller.migrate().records.len() as u64,
        migrations_aborted: tb.controller.migrate().aborted,
        ..MigrationStats::default()
    };
    let session_start = SimTime::from_secs(1);
    let ping_interval = MobilityConfig::default().ping_interval;
    for h in &tb.handovers {
        let mut interruption = h.interruption().as_secs_f64();
        if !live && h.redispatched > 0 {
            let requests =
                h.at.saturating_since(session_start).as_nanos() / ping_interval.as_nanos();
            let lost = state_bytes_per_request * requests;
            run.state_bytes_transferred += lost;
            interruption += transfer.transfer_time(lost).as_secs_f64();
        }
        run.interruptions.push(interruption);
    }
    for r in &tb.controller.migrate().records {
        run.state_bytes_transferred += r.state_bytes;
        run.flows_flipped += r.flows_flipped as u64;
        run.interruptions.push(r.interruption().as_secs_f64());
        run.transfers.push(r.transfer_time().as_secs_f64());
    }
    run
}

// ---------------------------------------------------------------------------
// Runtime chaos: the self-healing control plane
// ---------------------------------------------------------------------------

/// Aggregates of one runtime-chaos run (one policy). Also consumed by the
/// `bench` crate to emit `BENCH_recovery.json`.
#[derive(Clone, Debug, Default)]
pub struct RecoveryStats {
    /// The session counters (chaos composes with mobility).
    pub session: SessionCounts,
    /// Ready instances killed mid-run.
    pub instance_crashes: u64,
    /// Whole-zone outage windows injected.
    pub zone_outages: u64,
    /// Switch↔controller channel drops injected.
    pub channel_losses: u64,
}

fn recovery_run<S: Spans>(
    policy: edgectl::HandoverPolicy,
    fault_rate: f64,
    smoke: bool,
    seed: u64,
) -> (RecoveryStats, Option<Recording>) {
    let cfg = MobilityConfig {
        policy,
        faults: desim::FaultPlan::runtime(fault_rate, seed ^ 0x5E1F_4EA1),
        retransmit: Some(Duration::from_secs(1)),
        ..mobility_family(smoke, seed)
    };
    // The drain lets recovery settle: the longest channel-reconnect window
    // plus detection, redeployment, and a client retransmit all fit in 15 s.
    let mut tb = run_mobility_family::<S>(cfg, smoke, Duration::from_secs(15));
    let run = RecoveryStats {
        session: SessionCounts::read(&mut tb),
        instance_crashes: tb.instance_crashes,
        zone_outages: tb.zone_outages,
        channel_losses: tb.channel_losses,
    };
    (run, take_recording(&mut tb))
}

// ---------------------------------------------------------------------------
// Controller crash-recovery (HA): warm journal replay vs cold restart
// ---------------------------------------------------------------------------

/// Aggregates of one controller-crash run (one restart mode). Consumed by
/// the `bench` crate to emit `BENCH_ha.json`.
#[derive(Clone, Debug, Default)]
pub struct HaStats {
    /// The session counters.
    pub session: SessionCounts,
    /// Attachment changes that happened during the blackout — physical
    /// moves the controller only learns of from post-restart traffic.
    pub missed_handovers: u64,
    /// Control-plane blackout: crash instant → restart instant.
    pub blackout_secs: f64,
    /// Per-session recovery times: first ping completed after the restart,
    /// relative to the restart instant. Sessions carried straight through
    /// by installed switch rules score near zero — data-plane continuity.
    pub recovery_secs: Vec<f64>,
    /// Journal tail events replayed on restart (0 for cold).
    pub replayed_events: u64,
    /// Entries restored from the compacted snapshot (0 for cold).
    pub snapshot_entries: u64,
    /// Events the journal appended over the whole run (state-mutation
    /// volume — the work a cold restart throws away).
    pub journal_appended: u64,
    /// Compactions the journal performed.
    pub snapshots_taken: u64,
    /// In-flight migrations the restart had to abort.
    pub aborted_migrations: u64,
    /// Flow mods the restart-time reconcile issued. Warm restarts find the
    /// tables already matching the replayed state (≈0); cold restarts tear
    /// down every surviving rule, scaling with state size.
    pub restart_fixes: u64,
}

/// One controller-crash run: the mobility scenario with the write-ahead
/// journal recording, a `controller_crash` fault at the given rate, and the
/// chosen restart mode. During the blackout switches keep forwarding on
/// installed rules while packet-ins go unanswered; on restart the controller
/// recovers (warm: snapshot + tail replay; cold: empty state), reconciles
/// every switch table, and aborts whatever migrations were pinned in flight.
/// `n_clients` scales the recoverable state. Deterministic per seed.
/// Identical fault seeds give warm and cold the *same* blackout window, so
/// the two modes race the same crash.
pub fn ha_stats(
    mode: edgectl::RecoveryMode,
    n_clients: usize,
    seed: u64,
    crash_rate: f64,
    smoke: bool,
) -> HaStats {
    let controller = edgectl::ControllerConfig {
        // The journal records in BOTH modes so the pre-crash simulation is
        // identical; only the restart path differs.
        journal: edgectl::JournalConfig { enabled: true, snapshot_every: 64 },
        // Live migration on: crashing with a pinned transfer in flight is
        // the interesting interleaving (the restart must abort it).
        migration: edgectl::MigrationConfig {
            policy: edgectl::MigrationPolicy::Live,
            state_bytes_per_request: 512,
            ..edgectl::MigrationConfig::default()
        },
        ..edgectl::ControllerConfig::default()
    };
    let cfg = MobilityConfig {
        n_clients,
        controller,
        faults: desim::FaultPlan {
            controller_crash: crash_rate,
            seed: seed ^ 0x4A11_0C4A,
            ..desim::FaultPlan::default()
        },
        retransmit: Some(Duration::from_secs(1)),
        recovery: mode,
        // Non-zero service time makes control-plane congestion
        // client-visible: the cold restart's teardown/re-dispatch storm
        // serializes through the controller queue, which is what the warm
        // path saves.
        ctrl_service_time: Duration::from_millis(1),
        ..mobility_family(smoke, seed)
    };
    // The drain lets the restart land (it may fall past the run deadline)
    // and client retransmits settle before judging strandedness.
    let mut tb: MobilityTestbed = run_mobility_family(cfg, smoke, Duration::from_secs(15));
    let journal = tb.controller.journal_stats();
    let report = tb.recovery_report;
    HaStats {
        session: SessionCounts::read(&mut tb),
        missed_handovers: tb.missed_handovers,
        blackout_secs: tb.blackout.as_secs_f64(),
        recovery_secs: tb.recovery_times_secs(),
        replayed_events: report.map_or(0, |r| r.replayed_events as u64),
        snapshot_entries: report.map_or(0, |r| r.snapshot_entries as u64),
        journal_appended: journal.appended,
        snapshots_taken: journal.snapshots_taken,
        aborted_migrations: report.map_or(0, |r| r.aborted_migrations as u64),
        restart_fixes: tb.restart_fixes,
    }
}

/// The runtime-chaos experiment (the self-healing control plane): the
/// mobility scenario re-run while a seedable [`desim::FaultPlan`] kills
/// Ready instances mid-service, takes whole zones dark, and drops
/// switch↔controller channels. The health loop detects crashes within its
/// sweep interval and repairs stale redirects; the per-cluster circuit
/// breaker keeps failing zones out of scheduling; reconnecting channels
/// reconcile their switch tables against the controller's bookkeeping.
/// Each arm counts its faults and repairs; `BENCH_recovery.json`'s gate
/// fails a run that stranded a session, left the final reconciliation
/// unconverged or served nothing. Deterministic per seed. With `telemetry`
/// on, the arms (the policy labels) each record, and their metrics carry
/// the failure/repair counters and breaker gauges.
pub fn recovery(
    seed: u64,
    fault_rate: f64,
    smoke: bool,
    telemetry: bool,
) -> Experiment<RecoveryStats> {
    run_arms(handover_policies(), |policy| match telemetry {
        true => recovery_run::<SpanLog>(policy, fault_rate, smoke, seed),
        false => recovery_run::<Off>(policy, fault_rate, smoke, seed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A K8s run in which completion order is not arrival order: client 0's
    /// ResNet request waits for a deployment, client 1's arrives during that
    /// hold (at seed 2 it completes first of the two), and client 2's, for
    /// a service already running, arrives last and completes before both.
    fn overtaken_run(seed: u64) -> Testbed {
        let profile = ServiceSet::by_key("resnet").unwrap();
        let mut tb = Testbed::new(TestbedConfig { cluster: ClusterKind::K8s, seed, ..TestbedConfig::default() });
        let (cold, running) = (addr_of(&profile, 0), addr_of(&profile, 1));
        tb.register_service(profile.clone(), cold);
        tb.pre_pull(cold);
        tb.pre_create(cold);
        tb.register_service(profile, running);
        tb.pre_deploy_on(running, 0);
        tb.run_until(SimTime::from_secs(10));
        tb.request_at(SimTime::from_secs(11), 0, cold);
        tb.request_at(SimTime::from_millis(11_500), 1, cold);
        tb.request_at(SimTime::from_secs(12), 2, running);
        tb.run_until(SimTime::from_secs(40));
        tb
    }

    fn total_of(tb: &Testbed, client: usize) -> f64 {
        let c = tb.completed.iter().find(|c| c.client == client).expect("completed");
        c.timing.time_total().expect("completed").as_secs_f64()
    }

    /// Fig. 11's first request of a service is the one that arrived first,
    /// not the one that completed first.
    #[test]
    fn a_services_first_request_is_the_first_to_arrive() {
        let tb = overtaken_run(2);
        let completion_order: Vec<usize> = tb.completed.iter().map(|c| c.client).collect();
        assert_eq!(completion_order, vec![2, 1, 0]);
        let run = DeploymentRun::of(&tb);
        assert_eq!(run.firsts, vec![total_of(&tb, 0), total_of(&tb, 2)]);
        assert_eq!(run.warm, vec![total_of(&tb, 1)]);
    }

    /// The timeout sweep's waited requests are clients 0 and 1, whatever
    /// order they completed in (client 2's was redirected at once).
    #[test]
    fn each_waited_record_is_paired_with_its_own_request() {
        let tb = overtaken_run(2);
        let kinds: Vec<RequestKind> = tb.controller.records.iter().map(|r| r.kind).collect();
        assert_eq!(kinds, vec![RequestKind::Waited, RequestKind::Waited, RequestKind::Redirect]);
        assert_eq!(waited_totals(&tb), vec![total_of(&tb, 0), total_of(&tb, 1)]);
    }

    #[test]
    fn table1_matches_paper() {
        let f = table1();
        assert_eq!(f.table.rows.len(), 4);
        assert!(f.body.contains("6.18 KiB"));
        assert!(f.body.contains("135 MiB"));
        assert!(f.body.contains("308 MiB"));
        assert!(f.body.contains("181 MiB"));
        assert!(f.body.contains("POST"));
    }

    #[test]
    fn fig9_and_fig10_aggregates() {
        let f9 = fig9(7);
        assert!(f9.title.contains("1708 requests"));
        assert!(f9.title.contains("42 edge services"));
        let f10 = fig10(7);
        let total: u64 = f10
            .table
            .rows
            .iter()
            .map(|r| r[1].parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, 42);
    }

    #[test]
    fn fig13_private_registry_saves_seconds() {
        let f = fig13(24);
        // nginx row: saving between 1 and 3 s (paper: 1.5–2 s).
        let nginx = f.table.rows.iter().find(|r| r[0] == "nginx").unwrap();
        let saving: f64 = nginx[3].trim_end_matches(" s").parse().unwrap();
        assert!((1.0..3.0).contains(&saving), "saving {saving}");
        // asm pulls fastest.
        let parse = |row: &Vec<String>| -> f64 { row[1].trim_end_matches(" s").parse().unwrap() };
        let asm = parse(f.table.rows.iter().find(|r| r[0] == "asm").unwrap());
        let resnet = parse(f.table.rows.iter().find(|r| r[0] == "resnet").unwrap());
        assert!(asm < resnet);
    }

    #[test]
    fn single_run_shapes() {
        // One full trace replay on Docker with nginx: the paper's headline.
        let run = run_trace_experiment(
            ClusterKind::Docker,
            &ServiceSet::by_key("nginx").unwrap(),
            true,
            3,
        );
        assert_eq!(run.firsts.len(), 42, "42 deployments");
        assert_eq!(run.resets, 0);
        let med = run.median_first();
        assert!((0.3..1.0).contains(&med), "docker nginx median {med}");
        assert!(run.median_warm() < 0.05, "warm requests are milliseconds");
        assert!(run.median_wait() < med);
        assert!(run.warm.len() > 1500, "most trace requests are warm");
    }

    #[test]
    fn k8s_run_is_slower() {
        let run = run_trace_experiment(
            ClusterKind::K8s,
            &ServiceSet::by_key("asm").unwrap(),
            true,
            3,
        );
        let med = run.median_first();
        assert!((2.0..4.5).contains(&med), "k8s asm median {med}");
        assert_eq!(run.resets, 0);
    }

    #[test]
    fn proactive_prediction_reduces_cold_requests() {
        let f = proactive(5);
        let cold: Vec<usize> = f.table.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        let deployments: Vec<usize> = f.table.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        // Row 0 is the reactive baseline.
        assert_eq!(deployments[0], 0, "no prediction, no proactive deployments");
        for i in 1..cold.len() {
            assert!(cold[i] <= cold[0], "predictor {} made things worse", f.table.rows[i][0]);
            assert!(deployments[i] > 0, "predictors deploy proactively");
        }
        // Recency should be the strongest on this bursty workload.
        assert!(cold[1] < cold[0] / 2, "recency halves cold requests: {cold:?}");
    }

    #[test]
    fn local_scheduler_pack_pulls_once() {
        let f = local_scheduler(5);
        let cold: Vec<usize> = f.table.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        assert_eq!(cold, vec![3, 1], "spread pulls everywhere, pack once");
        let nodes: Vec<usize> = f.table.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        assert_eq!(nodes, vec![3, 1]);
    }

    #[test]
    fn hierarchy_far_edge_beats_cloud_and_waiting() {
        let f = hierarchy(5);
        let parse = |row: &Vec<String>, col: usize| -> f64 {
            row[col].trim_end_matches(" s").parse().unwrap()
        };
        let nginx = f.table.rows.iter().find(|r| r[0] == "nginx").unwrap();
        let far = parse(nginx, 1);
        let cloud = parse(nginx, 2);
        let held = parse(nginx, 3);
        let steady = parse(nginx, 4);
        assert!(far < cloud / 2.0, "far edge {far} vs cloud {cloud}");
        assert!(held > cloud, "holding costs more than the cloud answer");
        assert!(steady < far, "near edge steady state is the fastest");
    }

    #[test]
    fn chaos_is_deterministic_and_degrades_gracefully() {
        let (figure, e) = chaos(7, 0.15, true, false);
        let b = chaos(7, 0.15, true, false).0;
        assert_eq!(figure.body, b.body, "same seed ⇒ byte-identical output");
        // A 15% per-phase fault rate must visibly exercise the retry path,
        // and every request must still terminate somewhere.
        let retries: u64 = e
            .runs
            .iter()
            .map(|(_, r)| r.pull_retries + r.create_retries + r.scale_up_retries)
            .sum();
        assert!(retries > 0, "retries fired");
        for (label, run) in &e.runs {
            assert!(run.completed > 0, "{label}");
            assert_eq!(
                run.completed, run.requests,
                "{label}: every request terminates (edge or cloud fallback)"
            );
        }
    }

    #[test]
    fn chaos_traced_matches_untraced_figure_and_validates() {
        let (plain_figure, plain) = chaos(7, 0.15, true, false);
        assert!(plain.recordings.is_empty());
        let (traced_figure, traced) = chaos(7, 0.15, true, true);
        assert_eq!(
            plain_figure.body, traced_figure.body,
            "recording must not change the figure"
        );
        let labels: Vec<_> = traced.recordings.iter().map(|(label, _)| *label).collect();
        assert_eq!(labels, ["docker", "k8s"], "one recording per arm");
        let (_, metrics) = &traced.recordings[0].1;
        // Metrics carry the acceptance-relevant aggregates: deploy-phase
        // percentiles, retry totals, and the derived fallback-cloud rate.
        assert!(metrics.counter("requests_total") > 0);
        assert!(metrics.counter("deploy_retries_total") > 0);
        assert!(metrics.histogram("deploy_pull_ns").is_some());
        assert!(metrics.gauge("switch.table_misses").is_some());
        let json = metrics.to_json();
        assert!(json.contains("\"p95_ms\""), "{json}");
        for (label, (_, metrics)) in &traced.recordings {
            assert!(metrics.gauge("fallback_cloud_rate").is_some(), "{label}");
        }
    }

    #[test]
    fn each_arm_keeps_its_own_well_formed_log() {
        // Nothing merges the arms' logs: each is well-formed on its own, its
        // spans carry the names they were recorded under, and its request
        // ids start at 1 as the controller numbered them.
        let (_, traced) = chaos(7, 0.15, true, true);
        assert_eq!(traced.recordings.len(), 2);
        for (label, (log, _)) in &traced.recordings {
            let check = log.check();
            assert!(check.ok(), "{label}: {check:?}");
            assert_eq!(log.check_export(Some("request")), Ok(()), "{label}");
            assert!(log.spans().all(|s| !s.name.contains('/')), "{label}");
            assert_eq!(log.request_ids().first(), Some(&1), "{label}");
        }
    }

    #[test]
    fn chaos_with_zero_fault_rate_is_clean() {
        for (label, run) in chaos(7, 0.0, true, false).1.runs {
            let retries = run.pull_retries + run.create_retries + run.scale_up_retries;
            assert_eq!((run.fallbacks, retries, run.resets), (0, 0, 0), "{label}");
        }
    }

    #[test]
    fn mobility_smoke_is_clean_and_deterministic() {
        let e = mobility(7, true, false);
        let again = mobility(7, true, false);
        assert_eq!(format!("{:?}", e.runs), format!("{:?}", again.runs), "deterministic per seed");
        for (label, run) in &e.runs {
            let s = &run.session;
            assert_eq!(s.pings_sent, s.pings_done, "{label}: every ping answered");
            assert_eq!(
                (s.drops, s.double_answered, s.resets, s.transparency_violations),
                (0, 0, 0, 0),
                "{label}: no drop, duplicate, reset or edge address"
            );
            assert!(s.handovers > 0, "{label}: mobile clients must hand over");
            assert!(run.flows_migrated > 0, "{label}");
        }
    }

    #[test]
    fn mobility_traced_matches_untraced_runs_and_validates() {
        let plain = mobility(7, true, false);
        let traced = mobility(7, true, true);
        assert_eq!(
            format!("{:?}", plain.runs),
            format!("{:?}", traced.runs),
            "recording must not change the runs"
        );
        let labels: Vec<_> = traced.recordings.iter().map(|(label, _)| *label).collect();
        assert_eq!(labels, ["anchored", "redispatch"], "one recording per arm");
        for (label, (log, metrics)) in &traced.recordings {
            let check = log.check();
            assert!(check.ok(), "{label}: {check:?}");
            assert!(log.spans().any(|s| s.name == "handover"), "{label}");
            assert!(metrics.counter("handovers_total") > 0, "{label}");
            assert!(metrics.counter("flows_migrated") > 0, "{label}");
            assert!(metrics.histogram("handover_interruption_ns").is_some(), "{label}");
            assert!(metrics.gauge("handover_interruption_p99_ms").is_some(), "{label}");
        }
    }

    #[test]
    fn recovery_is_deterministic_and_self_heals() {
        let e = recovery(7, 1.0, true, false);
        let again = recovery(7, 1.0, true, false);
        assert_eq!(format!("{:?}", e.runs), format!("{:?}", again.runs), "same seed ⇒ same runs");
        let total = |field: fn(&RecoveryStats) -> u64| e.runs.iter().map(|(_, r)| field(r)).sum::<u64>();
        assert_eq!(total(|r| r.session.stranded), 0, "nothing stranded");
        assert_eq!(total(|r| r.session.reconcile_residual), 0, "tables reconcile clean");
        // At rate 1.0 every zone suffers an outage and every channel drops:
        // the run must actually exercise all three failure modes and still
        // strand nothing.
        assert!(total(|r| r.instance_crashes) > 0, "instances crashed mid-serve");
        assert!(total(|r| r.zone_outages) > 0, "zone outages fired");
        assert!(total(|r| r.channel_losses) > 0, "channels dropped");
        assert!(total(|r| r.session.handovers) > 0, "chaos composes with mobility");
    }

    #[test]
    fn recovery_traced_matches_untraced_runs_and_validates() {
        let plain = recovery(7, 1.0, true, false);
        let traced = recovery(7, 1.0, true, true);
        assert_eq!(
            format!("{:?}", plain.runs),
            format!("{:?}", traced.runs),
            "recording must not change the runs"
        );
        assert_eq!(traced.recordings.len(), 2, "one recording per arm");
        for (label, (log, _)) in &traced.recordings {
            let check = log.check();
            assert!(check.ok(), "{label}: {check:?}");
            // At rate 1 both arms kill instances, and both logs show a repair.
            assert!(log.spans().any(|s| s.name == "recovery"), "{label}");
        }
        let (_, metrics) = &traced.recordings[0].1;
        assert!(metrics.counter("zone_outages_total") > 0);
        assert!(metrics.counter("instance_failures_total") > 0);
        assert!(metrics.counter("stale_redirects_repaired") > 0);
        assert!(metrics.histogram("stale_redirect_repair_ns").is_some());
        assert!(metrics.gauge("cluster.0.breaker_state").is_some());
    }

    #[test]
    fn recovery_at_rate_zero_matches_mobility_baseline() {
        // The whole fault machinery is inert at rate 0: the recovery run is
        // byte-for-byte the plain mobility run, and the reconciliation sweep
        // finds nothing to fix.
        for policy in [
            edgectl::HandoverPolicy::Anchored,
            edgectl::HandoverPolicy::Redispatch,
        ] {
            let base = mobility_run::<Off>(policy, true, 7).0.session;
            let quiet = recovery_run::<Off>(policy, 0.0, true, 7).0;
            assert_eq!((quiet.instance_crashes, quiet.zone_outages, quiet.channel_losses), (0, 0, 0));
            let q = quiet.session;
            assert_eq!((q.pings_sent, q.pings_done, q.handovers), (base.pings_sent, base.pings_done, base.handovers));
            assert_eq!((q.retransmits, q.stranded, q.reconcile_fixes, q.reconcile_residual), (0, 0, 0, 0));
        }
    }

    #[test]
    fn ha_stats_warm_and_cold_race_the_same_blackout_and_strand_nothing() {
        let warm = ha_stats(edgectl::RecoveryMode::Warm, 4, 7, 1.0, true);
        let cold = ha_stats(edgectl::RecoveryMode::Cold, 4, 7, 1.0, true);
        // Same fault seed ⇒ the crash instant and blackout are identical;
        // only the restart path differs.
        assert!(warm.blackout_secs > 0.0, "the crash fired");
        assert_eq!(warm.blackout_secs, cold.blackout_secs, "a fair race");
        assert_eq!(warm.session.pings_sent, cold.session.pings_sent, "identical pre-crash runs");
        // Warm recovered real state from the journal; cold threw it away.
        assert!(warm.replayed_events + warm.snapshot_entries > 0);
        assert_eq!(cold.replayed_events, 0);
        assert_eq!(cold.snapshot_entries, 0);
        assert!(warm.journal_appended > 0);
        // The acceptance gates hold in both modes.
        for (label, s) in [("warm", &warm), ("cold", &cold)] {
            assert_eq!(s.session.stranded, 0, "{label}: no session permanently stranded");
            assert_eq!(s.session.reconcile_residual, 0, "{label}: tables converged");
        }
    }

    #[test]
    fn ha_stats_at_crash_rate_zero_never_restarts() {
        let s = ha_stats(edgectl::RecoveryMode::Warm, 3, 7, 0.0, true);
        assert_eq!(s.blackout_secs, 0.0);
        assert!(s.recovery_secs.is_empty());
        assert_eq!(s.replayed_events, 0);
        assert_eq!((s.session.ctrl_dropped, s.session.stranded, s.session.reconcile_residual), (0, 0, 0));
        assert!(s.journal_appended > 0, "the journal still records");
    }

    #[test]
    fn timeout_sweep_monotonic_behaviour() {
        let f = timeout_sweep(5);
        let deployments: Vec<usize> = f
            .table
            .rows
            .iter()
            .map(|r| r[1].parse().unwrap())
            .collect();
        // Shorter timeouts can only cause more (or equal) re-deployments.
        for w in deployments.windows(2) {
            assert!(w[0] >= w[1], "deployments {deployments:?}");
        }
        // The longest timeout needs exactly one deployment per service.
        assert_eq!(*deployments.last().unwrap(), 8);
    }

    #[test]
    fn timeout_sweep_counts_every_scale_down() {
        // Every deployment beyond a service's first follows a scale-down of
        // it, and a service may be scaled down once more after its last one.
        let f = timeout_sweep(7);
        let column = |col: usize| -> Vec<usize> {
            f.table.rows.iter().map(|r| r[col].parse().unwrap()).collect()
        };
        let (deployments, scale_downs) = (column(1), column(3));
        for (d, s) in deployments.iter().zip(&scale_downs) {
            assert!(d - 8 <= *s && s <= d, "deployments {d}, scale-downs {s}");
        }
        // At 120 s two services idle out after their only deployment: a
        // count of re-deployments reads 0 there.
        assert_eq!(f.table.rows[4][0], "120");
        assert_eq!(scale_downs[4], 2);
    }
}
