//! Pieces the two harnesses ([`crate::harness`], [`crate::mobility_run`])
//! share: the self-re-arming deadline behind controller ticks and switch
//! expiries, and the listener lookup of the per-frame server path.

use desim::{FastMap, LogNormal, SimTime};
use edgectl::{Controller, EdgeService};
use netsim::{Ipv4Addr, ServiceAddr};

/// One self-re-arming timer chain (controller tick, flow expiry, ...). The
/// event carries the deadline it was scheduled for; when a nearer deadline
/// supersedes it, the later event stays queued and is recognised as stale
/// when it fires — so a chain never forks into two.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Deadline(Option<SimTime>);

impl Deadline {
    /// The chain wants to fire at `next`. Returns the instant to schedule an
    /// event for (carrying that instant), unless a live event at or before
    /// it is already queued.
    pub(crate) fn arm(&mut self, next: Option<SimTime>, now: SimTime) -> Option<SimTime> {
        let t = next?.max(now);
        if self.0.is_none_or(|s| s > t || s < now) {
            self.0 = Some(t);
            Some(t)
        } else {
            None
        }
    }

    /// `true` if the event scheduled for `at` is the live one (and disarms);
    /// `false` for a superseded event, which the caller drops.
    pub(crate) fn fires(&mut self, at: SimTime) -> bool {
        let live = self.0 == Some(at);
        if live {
            self.0 = None;
        }
        live
    }
}

/// What the server side of a frame needs to know about the instance
/// listening at its destination: `Copy` scalars only, so the per-frame path
/// never clones a `ServiceProfile` (manifest strings and all).
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Listener {
    pub(crate) processing: LogNormal,
    pub(crate) request_bytes: usize,
    pub(crate) response_bytes: usize,
    pub(crate) ready: bool,
}

/// The (service, cluster) pair whose instance serves at `(ip, port)`: the
/// first match in registry × cluster order.
fn scan(controller: &Controller, ip: Ipv4Addr, port: u16) -> Option<(&EdgeService, usize)> {
    controller.services().iter().find_map(|svc| {
        (0..controller.cluster_count())
            .find(|&idx| serves_at(controller, svc, idx, ip, port))
            .map(|idx| (svc, idx))
    })
}

fn serves_at(
    controller: &Controller,
    svc: &EdgeService,
    idx: usize,
    ip: Ipv4Addr,
    port: u16,
) -> bool {
    controller
        .cluster(idx)
        .instance_addr(svc)
        .is_some_and(|a| a.ip == ip && a.port == port)
}

fn listener(controller: &Controller, svc: &EdgeService, idx: usize, now: SimTime) -> Listener {
    let p = &svc.profile;
    Listener {
        processing: p.request_processing,
        request_bytes: p.request_bytes,
        response_bytes: p.response_bytes,
        ready: controller.cluster(idx).state(svc, now).is_ready(),
    }
}

/// The answer [`ListenerIndex::lookup`] must give, by scan alone.
#[cfg(test)]
pub(crate) fn scan_listener(
    controller: &Controller,
    ip: Ipv4Addr,
    port: u16,
    now: SimTime,
) -> Option<Listener> {
    scan(controller, ip, port).map(|(svc, idx)| listener(controller, svc, idx, now))
}

/// `(ip, port)` → listening instance, remembered between frames. An entry
/// is only trusted while the pair still reports that address, and every
/// cluster hands out addresses from its own host or pod range, so a valid
/// entry is the scan's answer; anything else falls back to the scan. One
/// entry per (service, cluster) pair: an instance that comes back at a new
/// address (a new pod) replaces its old entry.
#[derive(Default)]
pub(crate) struct ListenerIndex {
    by_addr: FastMap<(Ipv4Addr, u16), (ServiceAddr, usize)>,
    addr_of: FastMap<(ServiceAddr, usize), (Ipv4Addr, u16)>,
}

impl ListenerIndex {
    /// Which instance (if any) listens at `(ip, port)`, and is it ready at
    /// `now`?
    pub(crate) fn lookup(
        &mut self,
        controller: &Controller,
        ip: Ipv4Addr,
        port: u16,
        now: SimTime,
    ) -> Option<Listener> {
        let (svc, idx) = self.resolve(controller, ip, port)?;
        Some(listener(controller, svc, idx, now))
    }

    /// Remembered addresses (bounded by services × clusters).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        assert_eq!(self.by_addr.len(), self.addr_of.len());
        self.by_addr.len()
    }

    fn resolve<'a>(
        &mut self,
        controller: &'a Controller,
        ip: Ipv4Addr,
        port: u16,
    ) -> Option<(&'a EdgeService, usize)> {
        let key = (ip, port);
        if let Some(&(addr, idx)) = self.by_addr.get(&key) {
            if let Some(svc) = controller.services().get(addr) {
                if serves_at(controller, svc, idx, ip, port) {
                    return Some((svc, idx));
                }
            }
            self.by_addr.remove(&key);
            self.addr_of.remove(&(addr, idx));
        }
        let (svc, idx) = scan(controller, ip, port)?;
        if let Some(old) = self.addr_of.insert((svc.addr, idx), key) {
            self.by_addr.remove(&old);
        }
        self.by_addr.insert(key, (svc.addr, idx));
        Some((svc, idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_nearer_deadline_supersedes_without_forking_the_chain() {
        let t = SimTime::from_secs;
        let mut d = Deadline::default();
        assert_eq!(d.arm(Some(t(10)), t(0)), Some(t(10)));
        assert_eq!(d.arm(Some(t(10)), t(1)), None, "already queued");
        assert_eq!(
            d.arm(Some(t(12)), t(1)),
            None,
            "a later wish waits for the re-arm"
        );
        assert_eq!(d.arm(Some(t(5)), t(2)), Some(t(5)), "nearer: schedule it");
        assert!(d.fires(t(5)));
        // Re-armed for the old instant while the superseded event is still
        // queued: exactly one of the two events at t=10 is live.
        assert_eq!(d.arm(Some(t(10)), t(5)), Some(t(10)));
        assert!(d.fires(t(10)));
        assert_eq!(d.arm(Some(t(20)), t(10)), Some(t(20)));
        assert!(!d.fires(t(10)), "the superseded event is dropped");
        assert!(d.fires(t(20)));
        assert_eq!(d.arm(None, t(20)), None);
    }
}
