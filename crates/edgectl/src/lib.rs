//! `edgectl` — the transparent-edge SDN controller (the paper's core
//! contribution).
//!
//! The controller makes Multi-access Edge Computing *transparent*: clients
//! address registered cloud services (`ip:port`), the network intercepts
//! those requests at the ingress OpenFlow switch, and the controller
//! redirects them — rewriting packets — to service instances it deploys **on
//! demand** in edge clusters.
//!
//! The crate follows the paper's architecture:
//!
//! * [`service`] — the registry of edge services, keyed by their unique
//!   cloud `ip:port` (Section II);
//! * `annotate` — automated annotation of Kubernetes-style service
//!   definition files, the one text input the controller reads: unique
//!   worldwide name, `matchLabels`, the `edge.service` label, `replicas: 0`
//!   (scale-to-zero), `schedulerName`, and a generated `Service` object
//!   (Section V);
//! * [`cluster`] — the [`cluster::EdgeCluster`] abstraction over Docker and
//!   Kubernetes with the paper's deployment phases: **Pull**, **Create**,
//!   **Scale Up**, **Scale Down**, **Remove** (Fig. 4);
//! * [`flowmemory`] — memorized redirect flows with idle timeouts; expiry
//!   both keeps switch tables small and triggers automatic scale-down of
//!   idle services (Section V);
//! * [`scheduler`] — the *Global Scheduler* trait returning the FAST/BEST
//!   choice pair, with loadable implementations (Section IV-B, Fig. 6);
//! * [`clients`] — client location tracking (the Dispatcher "also tracks
//!   the clients' current location") across multiple ingress switches; an
//!   announced attachment change triggers the make-before-break handover
//!   in [`controller`], an unannounced one flushes the client's memorized
//!   flows so it gets re-scheduled;
//! * `health` — runtime health: per-cluster circuit breakers (closed →
//!   open → half-open) gating the scheduler, plus declared zone-outage
//!   windows; the detection/repair loop itself lives in [`controller`];
//! * [`autoscale`] — per-instance request queues (deterministic service
//!   time, concurrency limit, bounded backlog with rejection) and the
//!   horizontal autoscaler flexing replica counts on queue depth and
//!   utilization with hysteresis and cooldown (off by default);
//! * [`migrate`] — live stateful service migration between zones: a
//!   session-state ledger growing with served requests, snapshot transfer
//!   over a bandwidth-modelled metro link, warm start at the target, and a
//!   make-before-break flow flip (off by default);
//! * [`journal`] — the controller's recoverable state (`ControlState`, with
//!   one `apply` behind live operation and replay alike) and its
//!   crash-recovery: a write-ahead journal of the applied events with
//!   periodic compacted snapshots, and deterministic replay (off by default
//!   — journal-off is the same path minus the append);
//! * `rules` — the rule builder: match granularity × target → one
//!   forward/reverse pair, and the OpenFlow messages that carry them;
//! * [`predict`] — proactive-deployment predictors (Sections I/VII);
//! * [`dispatch`] — the Dispatcher: the flow chart of Fig. 7, including
//!   on-demand deployment **with** and **without waiting** (Figs. 2/3/5);
//! * [`controller`] — the OpenFlow-facing controller binding everything
//!   together: packet-in handling, flow installation (forward rewrite +
//!   reverse masquerade), buffered-packet release, flow-removed handling.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` in the repository root for an end-to-end
//! run: register a service, fire a client request, watch the controller
//! deploy on demand and answer through the edge.

#![warn(missing_docs)]

mod annotate;
pub mod autoscale;
pub mod clients;
pub mod cluster;
pub mod controller;
pub mod dispatch;
pub mod flowmemory;
mod health;
pub mod journal;
pub mod migrate;
pub mod predict;
mod requests;
mod rules;
pub mod scheduler;
pub mod service;

pub use annotate::annotate_deployment;
pub use cluster::{DockerCluster, EdgeCluster, InstanceAddr, InstanceState, K8sEdgeCluster};
pub use controller::{Controller, ControllerConfig, HandoverPolicy, OutboundMessage, PortMap};
pub use dispatch::{DispatchDecision, Dispatcher};
pub use flowmemory::{FlowKey, FlowMemory, IngressId};
pub use health::{BreakerState, HealthMonitor, DETECT_INTERVAL};
pub use journal::{JournalConfig, RecoveryMode, RecoveryReport};
pub use migrate::{MigrationConfig, MigrationManager, MigrationPolicy, MigrationReason};
pub use scheduler::{
    scheduler_by_name, Choice, ClusterView, GlobalScheduler, InstanceView, LatencyEwmaScheduler,
    LeastConnectionsScheduler, ProximityScheduler, RequestClass, SchedulingContext, ServiceRef,
    Target,
};
pub use predict::{predictor_by_name, DeploymentPredictor};
pub use service::{EdgeService, ServiceRegistry};
