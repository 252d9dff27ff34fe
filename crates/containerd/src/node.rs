//! A containerd node: content store + container table + operation timings.

use crate::container::{ContainerId, ContainerSpec, ContainerState};
use crate::store::ContentStore;
use desim::{Duration, FaultInjector, LogNormal, Sample, SimRng, SimTime};
use registry::{ImageManifest, PullError};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Typed failure of a runtime operation.
///
/// Programming errors (unknown container id, double start) still panic —
/// they indicate a broken caller, not a runtime condition to recover from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuntimeError {
    /// **Create** was called before the image's layers were pulled; pulls
    /// are a separate, observable phase (Fig. 4) and must happen first.
    ImageNotPulled {
        /// The offending image reference.
        reference: String,
    },
    /// An injected runtime fault: the operation failed, surfacing at `at`.
    Injected {
        /// When the failure was observed.
        at: SimTime,
        /// Which operation failed.
        what: &'static str,
    },
    /// The task started but crashed before turning ready (injected); the
    /// container is back in the stopped state and may be started again.
    CrashedAfterStart {
        /// When the crash was observed.
        at: SimTime,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::ImageNotPulled { reference } => {
                write!(f, "image {reference} not pulled before create")
            }
            RuntimeError::Injected { at, what } => {
                write!(f, "containerd {what} failed at {at} (injected)")
            }
            RuntimeError::CrashedAfterStart { at } => {
                write!(f, "task crashed before readiness at {at} (injected)")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Timing model for runtime operations. Mohan et al. (cited by the paper)
/// attribute ~90 % of container startup to network-namespace creation and
/// initialization; that cost lives in `task_start`.
#[derive(Clone, Debug)]
pub struct RuntimeTimings {
    /// Writing the container spec + preparing the snapshot (**Create**).
    pub create: LogNormal,
    /// Launching the task: runc, namespaces, cgroups (**Scale Up**).
    pub(crate) task_start: LogNormal,
    /// Stopping a task (**Scale Down**).
    pub stop: LogNormal,
    /// Removing a container (**Remove**).
    pub remove: LogNormal,
}

impl Default for RuntimeTimings {
    fn default() -> Self {
        RuntimeTimings {
            create: LogNormal::from_median(0.090, 0.25),
            task_start: LogNormal::from_median(0.400, 0.20),
            stop: LogNormal::from_median(0.200, 0.25),
            remove: LogNormal::from_median(0.050, 0.25),
        }
    }
}

struct Entry {
    /// Shared with the pod template or service definition it came from.
    spec: Rc<ContainerSpec>,
    state: ContainerState,
}

/// A containerd instance on one host, shared by the Docker engine and the
/// kubelet exactly as on the paper's Edge Gateway Server.
pub struct ContainerdNode {
    store: ContentStore,
    timings: RuntimeTimings,
    containers: BTreeMap<ContainerId, Entry>,
    next_id: u64,
    /// Chaos-testing fault injector for create/start/crash faults.
    faults: Option<FaultInjector>,
}

impl ContainerdNode {
    /// Creates a node with the given store and timing model.
    pub fn new(store: ContentStore, timings: RuntimeTimings) -> ContainerdNode {
        ContainerdNode {
            store,
            timings,
            containers: BTreeMap::new(),
            next_id: 1,
            faults: None,
        }
    }

    /// Wires a fault injector into create/start. Success-path timing draws
    /// are unchanged: the injector uses its own RNG stream, so a zero-rate
    /// plan leaves behaviour byte-identical.
    pub fn set_faults(&mut self, injector: FaultInjector) {
        self.faults = Some(injector);
    }

    /// Creates a node with defaults (public registries).
    pub fn with_defaults() -> ContainerdNode {
        Self::new(ContentStore::new(), RuntimeTimings::default())
    }

    /// The content store.
    pub fn store(&self) -> &ContentStore {
        &self.store
    }

    /// Mutable content store access (pulls).
    pub fn store_mut(&mut self) -> &mut ContentStore {
        &mut self.store
    }

    /// Pulls image layers for `manifests` concurrently; returns wall time
    /// (zero when fully cached).
    pub fn pull<'a>(
        &mut self,
        manifests: impl IntoIterator<Item = &'a ImageManifest>,
        rng: &mut SimRng,
    ) -> Duration {
        self.store.pull_all(manifests, rng)
    }

    /// Fallible pull consulting the store's fault injector (if wired).
    pub fn try_pull(
        &mut self,
        manifests: &[ImageManifest],
        rng: &mut SimRng,
    ) -> Result<Duration, PullError> {
        self.store.try_pull_all(manifests, rng)
    }

    /// **Create** phase for one container. Returns the id and the instant
    /// creation completes.
    ///
    /// Fails with [`RuntimeError::ImageNotPulled`] when the image's layers
    /// are not in the content store, or [`RuntimeError::Injected`] under an
    /// active fault plan; a failed create registers nothing, so a retry is
    /// a clean second attempt.
    pub fn create(
        &mut self,
        spec: Rc<ContainerSpec>,
        manifest: &ImageManifest,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Result<(ContainerId, SimTime), RuntimeError> {
        if !self.store.has_image(manifest) {
            return Err(RuntimeError::ImageNotPulled {
                reference: manifest.reference.to_string(),
            });
        }
        let done = now + self.timings.create.sample_duration(rng);
        if self.faults.as_mut().is_some_and(|f| f.create_fails()) {
            return Err(RuntimeError::Injected { at: done, what: "create" });
        }
        let id = ContainerId(self.next_id);
        self.next_id += 1;
        self.containers.insert(
            id,
            Entry {
                spec,
                state: ContainerState::Created { at: done },
            },
        );
        Ok((id, done))
    }

    /// **Scale Up** phase: starts the task. `ready_delay` is the
    /// application's own startup time (sampled from its service profile by
    /// the caller). Returns `(task_started_at, ready_at)`.
    ///
    /// Under an active fault plan the start may fail outright
    /// ([`RuntimeError::Injected`], state unchanged) or the task may crash
    /// between start and readiness ([`RuntimeError::CrashedAfterStart`],
    /// container back in the stopped state) — both leave the container
    /// startable again.
    ///
    /// # Panics
    /// Panics if the container does not exist or is already running.
    pub fn start(
        &mut self,
        id: ContainerId,
        now: SimTime,
        ready_delay: Duration,
        rng: &mut SimRng,
    ) -> Result<(SimTime, SimTime), RuntimeError> {
        let entry = self.containers.get_mut(&id).expect("unknown container");
        assert!(
            !entry.state.is_running(),
            "container {id:?} already running"
        );
        let started_at = now + self.timings.task_start.sample_duration(rng);
        if let Some(f) = self.faults.as_mut() {
            if f.start_fails() {
                return Err(RuntimeError::Injected { at: started_at, what: "start" });
            }
            if let Some(frac) = f.crashes_after_start() {
                let crash_at = started_at + ready_delay.mul_f64(frac);
                entry.state = ContainerState::Stopped { at: crash_at };
                return Err(RuntimeError::CrashedAfterStart { at: crash_at });
            }
        }
        let ready_at = started_at + ready_delay;
        entry.state = ContainerState::Running {
            started_at,
            ready_at,
        };
        Ok((started_at, ready_at))
    }

    /// **Scale Down** phase: stops the task. Returns the completion instant.
    pub fn stop(&mut self, id: ContainerId, now: SimTime, rng: &mut SimRng) -> SimTime {
        let entry = self.containers.get_mut(&id).expect("unknown container");
        let done = now + self.timings.stop.sample_duration(rng);
        entry.state = ContainerState::Stopped { at: done };
        done
    }

    /// **Remove** phase: deletes the container record.
    pub fn remove(&mut self, id: ContainerId, now: SimTime, rng: &mut SimRng) -> SimTime {
        self.containers.remove(&id).expect("unknown container");
        now + self.timings.remove.sample_duration(rng)
    }

    /// State query.
    pub fn state(&self, id: ContainerId) -> Option<ContainerState> {
        self.containers.get(&id).map(|e| e.state)
    }

    /// The controller's readiness probe: is `port` accepting connections on
    /// container `id` at `now`? (Section VI: "the controller continuously
    /// tests if the respective port is open".)
    pub fn port_open(&self, id: ContainerId, port: u16, now: SimTime) -> bool {
        self.containers.get(&id).is_some_and(|e| {
            e.spec.listen_port == Some(port) && e.state.is_ready(now)
        })
    }

    /// Number of containers (any state).
    pub fn container_count(&self) -> usize {
        self.containers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use registry::image::catalog;
    use registry::ImageRef;

    fn node_with_nginx(rng: &mut SimRng) -> ContainerdNode {
        let mut n = ContainerdNode::with_defaults();
        n.pull(&[catalog::nginx()], rng);
        n
    }

    fn nginx_spec() -> Rc<ContainerSpec> {
        Rc::new(
            ContainerSpec::new("web", ImageRef::parse("nginx:1.23.2"), Some(80))
                .with_label("edge.service", "svc-a"),
        )
    }

    #[test]
    fn full_lifecycle() {
        let mut rng = SimRng::new(1);
        let mut n = node_with_nginx(&mut rng);
        let t0 = SimTime::from_secs(10);
        let (id, created_at) = n.create(nginx_spec(), &catalog::nginx(), t0, &mut rng).unwrap();
        assert!(created_at > t0);
        assert!(matches!(n.state(id), Some(ContainerState::Created { .. })));

        let (started_at, ready_at) =
            n.start(id, created_at, Duration::from_millis(50), &mut rng).unwrap();
        assert!(started_at > created_at);
        assert_eq!(ready_at, started_at + Duration::from_millis(50));
        assert!(!n.port_open(id, 80, started_at));
        assert!(n.port_open(id, 80, ready_at));
        assert!(!n.port_open(id, 8080, ready_at), "wrong port stays closed");

        let stopped_at = n.stop(id, ready_at + Duration::from_secs(60), &mut rng);
        assert!(!n.port_open(id, 80, stopped_at));
        n.remove(id, stopped_at, &mut rng);
        assert_eq!(n.state(id), None);
        assert_eq!(n.container_count(), 0);
    }

    #[test]
    fn create_without_pull_is_a_typed_error() {
        let mut rng = SimRng::new(2);
        let mut n = ContainerdNode::with_defaults();
        let err = n
            .create(nginx_spec(), &catalog::nginx(), SimTime::ZERO, &mut rng)
            .unwrap_err();
        assert!(
            matches!(err, RuntimeError::ImageNotPulled { ref reference } if reference.contains("nginx")),
            "{err}"
        );
        assert_eq!(n.container_count(), 0, "failed create registers nothing");
    }

    #[test]
    #[should_panic(expected = "already running")]
    fn double_start_panics() {
        let mut rng = SimRng::new(3);
        let mut n = node_with_nginx(&mut rng);
        let (id, t) = n.create(nginx_spec(), &catalog::nginx(), SimTime::ZERO, &mut rng).unwrap();
        n.start(id, t, Duration::ZERO, &mut rng).unwrap();
        let _ = n.start(id, t + Duration::from_secs(1), Duration::ZERO, &mut rng);
    }

    #[test]
    fn injected_create_and_start_faults_are_retryable() {
        use desim::FaultPlan;
        let mut rng = SimRng::new(8);
        let mut n = node_with_nginx(&mut rng);
        // Every create fails; starts succeed.
        n.set_faults(
            FaultPlan {
                create_failure: 1.0,
                ..FaultPlan::default()
            }
            .injector(0x1),
        );
        let err = n
            .create(nginx_spec(), &catalog::nginx(), SimTime::ZERO, &mut rng)
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Injected { what: "create", .. }), "{err}");
        assert_eq!(n.container_count(), 0);

        // Flip to start-crash faults: create succeeds, start crashes, the
        // container is left stopped and can be started again fault-free.
        n.set_faults(
            FaultPlan {
                crash_after_start: 1.0,
                ..FaultPlan::default()
            }
            .injector(0x2),
        );
        let (id, t) = n.create(nginx_spec(), &catalog::nginx(), SimTime::ZERO, &mut rng).unwrap();
        let err = n.start(id, t, Duration::from_millis(100), &mut rng).unwrap_err();
        let RuntimeError::CrashedAfterStart { at } = err else {
            panic!("expected crash, got {err}");
        };
        assert!(at >= t && at <= t + Duration::from_secs(2));
        assert!(matches!(n.state(id), Some(ContainerState::Stopped { .. })));
        n.set_faults(FaultPlan::default().injector(0x3));
        let (started, ready) = n.start(id, at, Duration::ZERO, &mut rng).unwrap();
        assert!(ready >= started);
    }

    #[test]
    fn create_start_medians_are_calibrated() {
        // Across many runs, create ≈ 90 ms and task start ≈ 330 ms medians —
        // the "+100 ms for create" and sub-second Docker starts of the paper.
        let mut creates = Vec::new();
        let mut starts = Vec::new();
        for seed in 0..200 {
            let mut rng = SimRng::new(seed);
            let mut n = node_with_nginx(&mut rng);
            let (id, c) = n.create(nginx_spec(), &catalog::nginx(), SimTime::ZERO, &mut rng).unwrap();
            creates.push((c - SimTime::ZERO).as_secs_f64());
            let (s, _) = n.start(id, c, Duration::ZERO, &mut rng).unwrap();
            starts.push((s - c).as_secs_f64());
        }
        let mc = desim::Summary::new(creates).median().unwrap();
        let ms = desim::Summary::new(starts).median().unwrap();
        assert!((0.07..0.12).contains(&mc), "create median {mc}");
        assert!((0.30..0.52).contains(&ms), "start median {ms}");
    }
}
