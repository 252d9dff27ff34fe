//! `k8ssim` — a Kubernetes-like orchestrator built on the simulated
//! containerd runtime.
//!
//! The paper's second cluster type. Its headline result (Fig. 11) is that
//! scaling a cached service up through Kubernetes takes ≈3 s against
//! Docker's sub-second — *not* because containers start slower (both use the
//! same containerd), but because a pod materialises through a chain of
//! asynchronous reconciliations:
//!
//! ```text
//! Deployment.spec.replicas = 1          (API call by the SDN controller)
//!   → deployment controller creates/updates the ReplicaSet
//!     → replicaset controller creates a Pod (Pending)
//!       → a scheduler binds the Pod to a node
//!         → the node's kubelet notices, sets up the sandbox (pause
//!           container, netns, CNI), pulls missing images, creates and
//!           starts containers via containerd
//!           → the Pod turns Ready, endpoints propagate
//! ```
//!
//! Every arrow above is a watch-reaction plus API round trips with its own
//! calibrated latency; the sum reproduces the measured gap. The crate
//! implements the object model ([`objects`]), a pluggable scheduler framework
//! ([`scheduler`] — the paper's *Local Scheduler* is a named scheduler
//! selected via `schedulerName`), and the cluster with its reconciliation
//! engine ([`cluster`]).

#![warn(missing_docs)]

pub mod cluster;
pub mod objects;
pub mod scheduler;

pub use cluster::{ApiOps, ClusterEvent, K8sCluster, K8sTimings, StoreStats};
pub use objects::{Deployment, Endpoints, Pod, PodPhase, PodTemplate, Service};
pub use scheduler::{DefaultScheduler, K8sScheduler, PackFirstScheduler};
