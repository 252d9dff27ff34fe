//! The per-request log the evaluation harness reads.
//!
//! Every packet-in leaves one [`RequestRecord`]: when it arrived and was
//! answered, whose it was and how it was answered — 40 bytes, `Copy`, filed
//! without a heap call of its own. Most requests deploy nothing, so the
//! deployment phase timings and the background-ready instant are not part
//! of the record: the few requests that ran or triggered a deployment file
//! a [`DeploymentTimes`] in a side log, and their record names it by index
//! (`Controller::deployment` resolves it).

use crate::dispatch::PhaseTimes;
use desim::SimTime;
use netsim::addr::Ipv4Addr;
use netsim::ServiceAddr;

/// How a request was answered (for the evaluation harness).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestKind {
    /// Answered from FlowMemory (no scheduling).
    MemoryHit,
    /// Instance was ready; immediate redirect.
    Redirect,
    /// On-demand deployment with waiting.
    Waited,
    /// Forwarded toward the cloud.
    Cloud,
    /// Held for a with-waiting deployment that exhausted its retries; the
    /// request was released toward the cloud (graceful degradation).
    FallbackCloud,
    /// Destination was not a registered edge service.
    Unregistered,
}

/// [`RequestRecord`]'s cluster when no cluster served the request.
const NO_CLUSTER: u16 = u16::MAX;
/// [`RequestRecord`]'s log index when the request deployed nothing.
const NO_DEPLOYMENT: u32 = u32::MAX;

/// Per-request record for experiments.
#[derive(Clone, Copy, Debug)]
pub struct RequestRecord {
    /// Packet-in arrival.
    pub at: SimTime,
    /// When the redirect flows were emitted.
    pub answered_at: SimTime,
    /// Requested service address.
    pub service: ServiceAddr,
    /// Client address.
    pub client: Ipv4Addr,
    /// Outcome kind.
    pub kind: RequestKind,
    /// Cluster index serving the request; `NO_CLUSTER` when none did.
    cluster: u16,
    /// Index of the request's [`DeploymentTimes`] in the side log;
    /// `NO_DEPLOYMENT` when it deployed nothing.
    deployment: u32,
}

// Two instants, two addresses, a kind, a packed cluster and a log index.
const _: () = assert!(std::mem::size_of::<RequestRecord>() <= 40);

impl RequestRecord {
    /// A request that arrived `at`, as it stands until a registered service
    /// answers it: unregistered, answered at `answered_at`, by no cluster.
    pub(crate) fn new(
        at: SimTime,
        service: ServiceAddr,
        client: Ipv4Addr,
        answered_at: SimTime,
    ) -> RequestRecord {
        RequestRecord {
            at,
            answered_at,
            service,
            client,
            kind: RequestKind::Unregistered,
            cluster: NO_CLUSTER,
            deployment: NO_DEPLOYMENT,
        }
    }

    /// The record of a registered service's answer: `kind`, sent at
    /// `answered_at`, from `cluster` (edge outcomes only).
    pub(crate) fn answered(
        self,
        kind: RequestKind,
        answered_at: SimTime,
        cluster: Option<usize>,
    ) -> RequestRecord {
        let cluster = cluster.map_or(NO_CLUSTER, |c| {
            u16::try_from(c).ok().filter(|&c| c != NO_CLUSTER).expect("a cluster index fits 16 bits")
        });
        RequestRecord { kind, answered_at, cluster, ..self }
    }

    /// Cluster index serving the request (edge outcomes only).
    pub fn cluster(&self) -> Option<usize> {
        (self.cluster != NO_CLUSTER).then_some(usize::from(self.cluster))
    }
}

/// What a request that ran or triggered a deployment adds to its record.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DeploymentTimes {
    /// Deployment phase timing of the foreground deployment.
    pub phases: PhaseTimes,
    /// When a background (BEST-choice) deployment triggered by this request
    /// will be ready, if one was triggered.
    pub background_ready: Option<SimTime>,
}

/// The side log of [`DeploymentTimes`], one entry per request that has one.
#[derive(Default)]
pub(crate) struct DeploymentLog(Vec<DeploymentTimes>);

impl DeploymentLog {
    /// Files `rec`'s deployment, if it ran one, and names it in the record.
    pub(crate) fn file(&mut self, rec: &mut RequestRecord, times: DeploymentTimes) {
        if times != DeploymentTimes::default() {
            let idx = u32::try_from(self.0.len()).ok().filter(|&i| i != NO_DEPLOYMENT);
            rec.deployment = idx.expect("fewer than 2^32 - 1 deployments");
            self.0.push(times);
        }
    }

    /// The deployment `rec` names, if any.
    pub(crate) fn of(&self, rec: &RequestRecord) -> Option<&DeploymentTimes> {
        self.0.get(rec.deployment as usize)
    }
}
