//! The pluggable (pod → node) scheduler framework.
//!
//! The paper distinguishes a *Global Scheduler* (which edge cluster — lives
//! in the `edgectl` crate) from a *Local Scheduler* (which instance/node
//! within a cluster). For Kubernetes the local scheduler may be the default
//! K8s scheduler or a custom one selected per pod via `schedulerName` —
//! exactly the mechanism modelled here.

use crate::objects::Pod;
use std::collections::HashMap;

/// A view of a schedulable node.
#[derive(Clone, Debug)]
pub struct NodeView {
    /// Node name.
    pub name: String,
    /// Pods currently bound to it.
    pub pods: usize,
    /// Capacity in pods.
    pub capacity: usize,
}

/// A (pod → node) scheduler.
pub trait K8sScheduler: Send {
    /// The `schedulerName` this scheduler answers to.
    fn name(&self) -> &str;

    /// Picks a node for `pod`, or `None` if nothing fits.
    fn schedule(&mut self, pod: &Pod, nodes: &[NodeView]) -> Option<String>;
}

/// The default scheduler: spreads pods by picking the least-loaded node with
/// free capacity (a simplification of kube-scheduler's scoring).
#[derive(Default)]
pub struct DefaultScheduler;

impl K8sScheduler for DefaultScheduler {
    fn name(&self) -> &str {
        "default-scheduler"
    }

    fn schedule(&mut self, _pod: &Pod, nodes: &[NodeView]) -> Option<String> {
        nodes
            .iter()
            .filter(|n| n.pods < n.capacity)
            .min_by_key(|n| n.pods)
            .map(|n| n.name.clone())
    }
}

/// A bin-packing scheduler: fills the *most*-loaded node first, keeping the
/// remaining nodes free (useful at the edge to power down idle machines).
/// Serves as the example custom Local Scheduler.
#[derive(Default)]
pub struct PackFirstScheduler;

impl K8sScheduler for PackFirstScheduler {
    fn name(&self) -> &str {
        "edge-pack-scheduler"
    }

    fn schedule(&mut self, _pod: &Pod, nodes: &[NodeView]) -> Option<String> {
        nodes
            .iter()
            .filter(|n| n.pods < n.capacity)
            .max_by_key(|n| n.pods)
            .map(|n| n.name.clone())
    }
}

/// Registry of named schedulers; pods select by `schedulerName`.
pub struct SchedulerRegistry {
    schedulers: HashMap<String, Box<dyn K8sScheduler>>,
    default_name: String,
}

impl SchedulerRegistry {
    /// Builds a registry with the default scheduler registered.
    pub fn new() -> SchedulerRegistry {
        let default: Box<dyn K8sScheduler> = Box::<DefaultScheduler>::default();
        let default_name = default.name().to_owned();
        let mut schedulers: HashMap<String, Box<dyn K8sScheduler>> = HashMap::new();
        schedulers.insert(default_name.clone(), default);
        SchedulerRegistry {
            schedulers,
            default_name,
        }
    }

    /// Registers an additional named scheduler.
    pub fn register(&mut self, scheduler: Box<dyn K8sScheduler>) {
        self.schedulers.insert(scheduler.name().to_owned(), scheduler);
    }

    /// Schedules `pod` with its requested scheduler (falling back to the
    /// default when the requested one is unknown, as real clusters leave such
    /// pods Pending — we fall back so misconfigurations are visible in tests
    /// rather than deadlocks).
    pub fn schedule(&mut self, pod: &Pod, nodes: &[NodeView]) -> Option<String> {
        let requested = pod
            .scheduler_name
            .clone()
            .unwrap_or_else(|| self.default_name.clone());
        let name = if self.schedulers.contains_key(&requested) {
            requested
        } else {
            self.default_name.clone()
        };
        self.schedulers.get_mut(&name)?.schedule(pod, nodes)
    }
}

impl Default for SchedulerRegistry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objects::PodPhase;

    fn pod(scheduler: Option<&str>) -> Pod {
        Pod {
            name: "p".into(),
            owner: "rs".into(),
            labels: Default::default(),
            phase: PodPhase::Pending,
            node: None,
            ip: None,
            container_ids: vec![],
            ready_at: None,
            scheduler_name: scheduler.map(str::to_owned),
        }
    }

    fn nodes() -> Vec<NodeView> {
        vec![
            NodeView { name: "a".into(), pods: 3, capacity: 10 },
            NodeView { name: "b".into(), pods: 1, capacity: 10 },
            NodeView { name: "c".into(), pods: 7, capacity: 10 },
        ]
    }

    #[test]
    fn default_spreads() {
        let mut s = DefaultScheduler;
        assert_eq!(s.schedule(&pod(None), &nodes()), Some("b".into()));
    }

    #[test]
    fn pack_first_fills() {
        let mut s = PackFirstScheduler;
        assert_eq!(s.schedule(&pod(None), &nodes()), Some("c".into()));
    }

    #[test]
    fn capacity_is_respected() {
        let full = vec![NodeView { name: "a".into(), pods: 2, capacity: 2 }];
        assert_eq!(DefaultScheduler.schedule(&pod(None), &full), None);
        assert_eq!(PackFirstScheduler.schedule(&pod(None), &full), None);
    }

    #[test]
    fn registry_routes_by_scheduler_name() {
        let mut reg = SchedulerRegistry::new();
        reg.register(Box::<PackFirstScheduler>::default());
        assert_eq!(reg.schedule(&pod(None), &nodes()), Some("b".into()));
        assert_eq!(
            reg.schedule(&pod(Some("edge-pack-scheduler")), &nodes()),
            Some("c".into())
        );
        // Unknown scheduler falls back to the default.
        assert_eq!(reg.schedule(&pod(Some("ghost")), &nodes()), Some("b".into()));
    }
}
