//! `dockersim` — a Docker-Engine-like layer over the simulated containerd.
//!
//! The paper evaluates Docker as the *lightweight* cluster type: starting a
//! cached container takes well under a second, which makes Docker the better
//! choice for answering the very first request of an on-demand deployment
//! (Section VII even proposes Docker-first + Kubernetes-later hybrid
//! operation). This crate models the engine: a thin API daemon in front of
//! containerd that adds per-call overhead, container naming, and label-based
//! queries — the operations the SDN controller drives through the Docker
//! client library in the reference implementation.

#![warn(missing_docs)]

use containerd::{ContainerId, ContainerSpec, ContainerdNode, RuntimeError};
use desim::{Duration, LogNormal, Sample, SimRng, SimTime};
use registry::{ImageManifest, PullError};
use std::collections::HashMap;
use std::rc::Rc;

/// Docker Engine API timing: every engine call pays a small daemon overhead
/// on top of the underlying containerd work.
#[derive(Clone, Debug)]
pub struct EngineTimings {
    /// Per-API-call daemon overhead (HTTP handling, state bookkeeping).
    pub(crate) api_overhead: LogNormal,
}

impl Default for EngineTimings {
    fn default() -> Self {
        EngineTimings {
            api_overhead: LogNormal::from_median(0.025, 0.30),
        }
    }
}

/// Errors surfaced by the engine API.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DockerError {
    /// A container with this name already exists.
    NameConflict(String),
    /// No such container.
    NoSuchContainer(String),
    /// The underlying containerd runtime refused or aborted the operation
    /// (injected faults, missing images). Carries the runtime's own error so
    /// callers can recover the failure instant for retry scheduling.
    Runtime(RuntimeError),
}

impl std::fmt::Display for DockerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DockerError::NameConflict(n) => write!(f, "container name `{n}` already in use"),
            DockerError::NoSuchContainer(n) => write!(f, "no such container: {n}"),
            DockerError::Runtime(e) => write!(f, "runtime error: {e}"),
        }
    }
}

impl std::error::Error for DockerError {}

/// Lifetime counts of engine API calls (successful or not), read when a
/// telemetry snapshot is taken.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// `docker pull` calls.
    pub pulls: u64,
    /// `docker create` calls.
    pub creates: u64,
    /// `docker start` calls.
    pub starts: u64,
    /// `docker stop` calls.
    pub stops: u64,
    /// `docker rm` calls.
    pub removes: u64,
}

/// The simulated Docker Engine on one host.
pub struct DockerEngine {
    node: ContainerdNode,
    timings: EngineTimings,
    names: HashMap<String, ContainerId>,
    /// API call counters for telemetry.
    pub ops: OpCounts,
}

impl DockerEngine {
    /// Creates an engine over the given containerd node.
    pub fn new(node: ContainerdNode, timings: EngineTimings) -> DockerEngine {
        DockerEngine {
            node,
            timings,
            names: HashMap::new(),
            ops: OpCounts::default(),
        }
    }

    /// Engine over a default containerd node.
    pub fn with_defaults() -> DockerEngine {
        Self::new(ContainerdNode::with_defaults(), EngineTimings::default())
    }

    /// The underlying containerd node.
    pub fn node(&self) -> &ContainerdNode {
        &self.node
    }

    /// Mutable access to the underlying node (image pre-seeding in tests).
    pub fn node_mut(&mut self) -> &mut ContainerdNode {
        &mut self.node
    }

    fn overhead(&self, rng: &mut SimRng) -> Duration {
        self.timings.api_overhead.sample_duration(rng)
    }

    /// `docker pull`: fetches image layers (no-op duration when cached).
    pub fn pull(&mut self, manifests: &[ImageManifest], rng: &mut SimRng) -> Duration {
        self.ops.pulls += 1;
        self.overhead(rng) + self.node.pull(manifests, rng)
    }

    /// Fallible `docker pull` consulting the node's fault injector (if any).
    /// Behaves exactly like [`DockerEngine::pull`] when no injector is wired;
    /// on failure the error's `elapsed` includes the daemon overhead.
    pub fn try_pull(
        &mut self,
        manifests: &[ImageManifest],
        rng: &mut SimRng,
    ) -> Result<Duration, PullError> {
        self.ops.pulls += 1;
        let oh = self.overhead(rng);
        match self.node.try_pull(manifests, rng) {
            Ok(d) => Ok(oh + d),
            Err(mut e) => {
                e.elapsed = oh + e.elapsed;
                Err(e)
            }
        }
    }

    /// `docker create`: allocates a named container. Returns the id and the
    /// completion instant.
    pub fn create(
        &mut self,
        spec: Rc<ContainerSpec>,
        manifest: &ImageManifest,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Result<(ContainerId, SimTime), DockerError> {
        self.ops.creates += 1;
        if self.names.contains_key(&spec.name) {
            return Err(DockerError::NameConflict(spec.name.clone()));
        }
        let t = now + self.overhead(rng);
        let name = spec.name.clone();
        let (id, done) = self
            .node
            .create(spec, manifest, t, rng)
            .map_err(DockerError::Runtime)?;
        self.names.insert(name, id);
        Ok((id, done))
    }

    /// `docker start`: launches the container's task. Returns
    /// `(start_completed_at, app_ready_at)`.
    pub fn start(
        &mut self,
        name: &str,
        now: SimTime,
        ready_delay: Duration,
        rng: &mut SimRng,
    ) -> Result<(SimTime, SimTime), DockerError> {
        self.ops.starts += 1;
        let id = self.id_of(name)?;
        let t = now + self.overhead(rng);
        self.node
            .start(id, t, ready_delay, rng)
            .map_err(DockerError::Runtime)
    }

    /// `docker stop`. Returns the completion instant.
    pub fn stop(&mut self, name: &str, now: SimTime, rng: &mut SimRng) -> Result<SimTime, DockerError> {
        self.ops.stops += 1;
        let id = self.id_of(name)?;
        let t = now + self.overhead(rng);
        Ok(self.node.stop(id, t, rng))
    }

    /// `docker rm`. Returns the completion instant.
    pub fn remove(&mut self, name: &str, now: SimTime, rng: &mut SimRng) -> Result<SimTime, DockerError> {
        self.ops.removes += 1;
        let id = self.id_of(name)?;
        let t = now + self.overhead(rng);
        let done = self.node.remove(id, t, rng);
        self.names.retain(|_, v| *v != id);
        Ok(done)
    }

    /// Resolves a container name.
    pub fn id_of(&self, name: &str) -> Result<ContainerId, DockerError> {
        self.names
            .get(name)
            .copied()
            .ok_or_else(|| DockerError::NoSuchContainer(name.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use registry::image::catalog;
    use registry::ImageRef;

    fn engine_with_nginx(rng: &mut SimRng) -> DockerEngine {
        let mut e = DockerEngine::with_defaults();
        e.pull(&[catalog::nginx()], rng);
        e
    }

    /// Readiness probe against container `web`'s port 80.
    fn web_open(e: &DockerEngine, now: SimTime) -> bool {
        e.node().port_open(e.id_of("web").unwrap(), 80, now)
    }

    fn spec(name: &str) -> Rc<ContainerSpec> {
        Rc::new(
            ContainerSpec::new(name, ImageRef::parse("nginx:1.23.2"), Some(80))
                .with_label("edge.service", "svc-a"),
        )
    }

    #[test]
    fn run_lifecycle_under_a_second_when_cached() {
        let mut rng = SimRng::new(1);
        let mut e = engine_with_nginx(&mut rng);
        let t0 = SimTime::from_secs(5);
        let (_, created) = e.create(spec("web"), &catalog::nginx(), t0, &mut rng).unwrap();
        let (started, ready) = e
            .start("web", created, Duration::from_millis(45), &mut rng)
            .unwrap();
        // The headline Docker result: create+start+ready well under 1 s.
        let total = ready - t0;
        assert!(total < Duration::from_secs(1), "took {total}");
        assert!(web_open(&e, ready));
        assert!(!web_open(&e, started));
    }

    #[test]
    fn name_conflicts_rejected() {
        let mut rng = SimRng::new(2);
        let mut e = engine_with_nginx(&mut rng);
        e.create(spec("web"), &catalog::nginx(), SimTime::ZERO, &mut rng).unwrap();
        let err = e
            .create(spec("web"), &catalog::nginx(), SimTime::ZERO, &mut rng)
            .unwrap_err();
        assert_eq!(err, DockerError::NameConflict("web".into()));
    }

    #[test]
    fn injected_create_fault_leaves_the_name_free_for_retry() {
        use desim::FaultPlan;
        let mut rng = SimRng::new(9);
        let mut e = engine_with_nginx(&mut rng);
        e.node_mut().set_faults(
            FaultPlan {
                create_failure: 1.0,
                ..FaultPlan::default()
            }
            .injector(0x7),
        );
        let err = e
            .create(spec("web"), &catalog::nginx(), SimTime::ZERO, &mut rng)
            .unwrap_err();
        assert!(matches!(err, DockerError::Runtime(RuntimeError::Injected { .. })), "{err}");
        assert_eq!(e.names.len(), 0);
        // Retry under a clean injector reuses the name without conflict.
        e.node_mut().set_faults(FaultPlan::default().injector(0x8));
        e.create(spec("web"), &catalog::nginx(), SimTime::from_secs(1), &mut rng)
            .unwrap();
    }

    #[test]
    fn unknown_names_error() {
        let mut rng = SimRng::new(3);
        let mut e = DockerEngine::with_defaults();
        assert!(matches!(
            e.start("ghost", SimTime::ZERO, Duration::ZERO, &mut rng),
            Err(DockerError::NoSuchContainer(_))
        ));
        assert!(matches!(
            e.stop("ghost", SimTime::ZERO, &mut rng),
            Err(DockerError::NoSuchContainer(_))
        ));
        assert!(matches!(
            e.remove("ghost", SimTime::ZERO, &mut rng),
            Err(DockerError::NoSuchContainer(_))
        ));
    }

    #[test]
    fn remove_frees_the_name() {
        let mut rng = SimRng::new(5);
        let mut e = engine_with_nginx(&mut rng);
        e.create(spec("web"), &catalog::nginx(), SimTime::ZERO, &mut rng).unwrap();
        e.remove("web", SimTime::from_secs(1), &mut rng).unwrap();
        assert_eq!(e.names.len(), 0);
        // Name can be reused.
        e.create(spec("web"), &catalog::nginx(), SimTime::from_secs(2), &mut rng).unwrap();
    }

    #[test]
    fn stop_closes_the_port() {
        let mut rng = SimRng::new(6);
        let mut e = engine_with_nginx(&mut rng);
        let (_, c) = e.create(spec("web"), &catalog::nginx(), SimTime::ZERO, &mut rng).unwrap();
        let (_, ready) = e.start("web", c, Duration::ZERO, &mut rng).unwrap();
        assert!(web_open(&e, ready));
        let stopped = e.stop("web", ready + Duration::from_secs(30), &mut rng).unwrap();
        assert!(!web_open(&e, stopped + Duration::from_secs(1)));
    }
}
