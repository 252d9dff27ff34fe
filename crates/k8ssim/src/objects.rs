//! The Kubernetes object model (the subset the edge controller drives).

use containerd::{ContainerId, ContainerSpec};
use desim::{LogNormal, SimTime};
use registry::ImageManifest;
use std::collections::BTreeMap;
use std::rc::Rc;

/// One container within a pod template: the runtime spec, the image manifest
/// the kubelet must ensure is pulled, and the application readiness model.
#[derive(Clone, Debug)]
pub struct PodContainer {
    /// Runtime spec.
    pub spec: ContainerSpec,
    /// Image manifest (for kubelet pulls, `imagePullPolicy: IfNotPresent`).
    pub manifest: ImageManifest,
    /// Delay from task start until the app inside accepts connections.
    pub ready: LogNormal,
}

/// A pod template: labels plus the containers to run.
#[derive(Clone, Debug)]
pub struct PodTemplate {
    /// Labels stamped onto created pods (must satisfy the selector). Shared:
    /// every pod of the template points at this one map.
    pub labels: Rc<BTreeMap<String, String>>,
    /// Containers to run.
    pub containers: Vec<PodContainer>,
}

/// A `Deployment`: desired replica count over a pod template.
#[derive(Clone, Debug)]
pub struct Deployment {
    /// Object name.
    pub name: String,
    /// Labels on the deployment itself.
    pub labels: BTreeMap<String, String>,
    /// Desired replicas (0 = the paper's "scale to zero" creation state).
    pub replicas: u32,
    /// Selector matching the template labels.
    pub selector: BTreeMap<String, String>,
    /// The pod template.
    pub template: PodTemplate,
    /// Optional non-default scheduler (the paper's Local Scheduler hook).
    pub scheduler_name: Option<String>,
}

/// A `ReplicaSet` owned by a deployment.
#[derive(Clone, Debug)]
pub struct ReplicaSet {
    /// Object name (`<deployment>-<hash>`).
    pub name: String,
    /// Owning deployment.
    pub owner: String,
    /// Desired replicas.
    pub replicas: u32,
}

/// Pod lifecycle phase. There is no terminated phase: a terminated pod is
/// deleted from the cluster's store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PodPhase {
    /// Created, not yet bound to a node.
    Pending,
    /// Bound to a node, kubelet has not finished starting it.
    Scheduled,
    /// Containers running; `ready_at` says when it serves.
    Running,
}

/// A `Pod`.
#[derive(Clone, Debug)]
pub struct Pod {
    /// Object name (`<rs>-<n>`).
    pub name: String,
    /// Owning replica set.
    pub owner: String,
    /// Labels (the template's map, shared).
    pub labels: Rc<BTreeMap<String, String>>,
    /// Phase.
    pub phase: PodPhase,
    /// Node it is bound to.
    pub node: Option<String>,
    /// Pod IP once running (cluster-internal).
    pub ip: Option<[u8; 4]>,
    /// The containerd containers backing it.
    pub container_ids: Vec<ContainerId>,
    /// Instant the pod became Ready.
    pub ready_at: Option<SimTime>,
    /// Which scheduler must bind it (None = default).
    pub scheduler_name: Option<String>,
}

impl Pod {
    /// `true` if the pod serves traffic at `now`.
    pub fn is_ready(&self, now: SimTime) -> bool {
        self.phase == PodPhase::Running && self.ready_at.is_some_and(|t| t <= now)
    }
}

/// A `Service`: selector plus port mapping.
#[derive(Clone, Debug)]
pub struct Service {
    /// Object name.
    pub name: String,
    /// Pod selector.
    pub selector: BTreeMap<String, String>,
    /// Exposed port.
    pub port: u16,
    /// Target port on the pods.
    pub target_port: u16,
    /// Protocol (always `TCP` for the edge services).
    pub protocol: String,
}

/// `Endpoints`: the ready pod addresses behind a service.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Endpoints {
    /// `(pod ip, target port)` pairs, updated as pods come and go.
    pub addresses: Vec<([u8; 4], u16)>,
    /// When the endpoints were last updated.
    pub updated_at: SimTime,
}

/// `true` if `labels` satisfy `selector` (every selector pair present).
pub fn selector_matches(
    selector: &BTreeMap<String, String>,
    labels: &BTreeMap<String, String>,
) -> bool {
    selector
        .iter()
        .all(|(k, v)| labels.get(k).is_some_and(|lv| lv == v))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn selector_matching() {
        let sel = labels(&[("app", "nginx")]);
        assert!(selector_matches(&sel, &labels(&[("app", "nginx"), ("tier", "web")])));
        assert!(!selector_matches(&sel, &labels(&[("app", "other")])));
        assert!(!selector_matches(&sel, &labels(&[])));
        // Empty selector matches anything (K8s semantics).
        assert!(selector_matches(&labels(&[]), &labels(&[("x", "y")])));
    }

    #[test]
    fn pod_readiness() {
        let mut pod = Pod {
            name: "p".into(),
            owner: "rs".into(),
            labels: Rc::default(),
            phase: PodPhase::Pending,
            node: None,
            ip: None,
            container_ids: vec![],
            ready_at: None,
            scheduler_name: None,
        };
        assert!(!pod.is_ready(SimTime::from_secs(10)));
        pod.phase = PodPhase::Running;
        pod.ready_at = Some(SimTime::from_secs(5));
        assert!(!pod.is_ready(SimTime::from_secs(4)));
        assert!(pod.is_ready(SimTime::from_secs(5)));
    }
}
