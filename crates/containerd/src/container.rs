//! Container specs and lifecycle.

use desim::SimTime;
use registry::ImageRef;
use std::collections::BTreeMap;

/// Identifies a container on a node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ContainerId(pub u64);

/// What to run: image, listening port and labels.
///
/// This is the subset of an OCI spec the edge services need — it is produced
/// from the (annotated) Kubernetes-style service definition for both cluster
/// types, per Section V of the paper.
#[derive(Clone, Debug, PartialEq)]
pub struct ContainerSpec {
    /// Container name (unique per deployment unit).
    pub name: String,
    /// Image to run.
    pub image: ImageRef,
    /// TCP port the application listens on (`None` for sidecars that serve
    /// no traffic, like the env-writer).
    pub listen_port: Option<u16>,
    /// Labels (the controller adds `edge.service` to address its services).
    pub labels: BTreeMap<String, String>,
}

impl ContainerSpec {
    /// Minimal spec: a named image listening on a port.
    pub fn new(name: impl Into<String>, image: ImageRef, listen_port: Option<u16>) -> Self {
        ContainerSpec {
            name: name.into(),
            image,
            listen_port,
            labels: BTreeMap::new(),
        }
    }

    /// Builder: adds a label.
    pub fn with_label(mut self, k: impl Into<String>, v: impl Into<String>) -> Self {
        self.labels.insert(k.into(), v.into());
        self
    }
}

/// Lifecycle state with transition timestamps. `Running` carries `ready_at`,
/// the instant the application inside actually accepts connections — the gap
/// between task start and readiness is what the controller's port polling
/// (Figs. 14/15) measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContainerState {
    /// Created but not started (the paper's **Create** phase output).
    Created {
        /// When creation completed.
        at: SimTime,
    },
    /// Task started (the **Scale Up** phase output).
    Running {
        /// When the task launched.
        started_at: SimTime,
        /// When the app inside accepts TCP connections.
        ready_at: SimTime,
    },
    /// Task stopped (the **Scale Down** phase output).
    Stopped {
        /// When it stopped.
        at: SimTime,
    },
}

impl ContainerState {
    /// `true` if the container's application accepts connections at `now`.
    pub fn is_ready(&self, now: SimTime) -> bool {
        matches!(self, ContainerState::Running { ready_at, .. } if *ready_at <= now)
    }

    /// `true` if the task is running (though possibly not yet ready).
    pub(crate) fn is_running(&self) -> bool {
        matches!(self, ContainerState::Running { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builders() {
        let spec = ContainerSpec::new("web", ImageRef::parse("nginx:1.23.2"), Some(80))
            .with_label("edge.service", "svc-1");
        assert_eq!(spec.listen_port, Some(80));
        assert_eq!(spec.labels["edge.service"], "svc-1");
    }

    #[test]
    fn readiness_semantics() {
        let s = ContainerState::Running {
            started_at: SimTime::from_millis(100),
            ready_at: SimTime::from_millis(400),
        };
        assert!(s.is_running());
        assert!(!s.is_ready(SimTime::from_millis(399)));
        assert!(s.is_ready(SimTime::from_millis(400)));
        let c = ContainerState::Created { at: SimTime::ZERO };
        assert!(!c.is_running());
        assert!(!c.is_ready(SimTime::from_secs(100)));
        let st = ContainerState::Stopped { at: SimTime::ZERO };
        assert!(!st.is_ready(SimTime::from_secs(100)));
    }
}
