//! Client location tracking.
//!
//! The Dispatcher "also tracks the clients' current location" (Section
//! IV-B): in the transparent edge, a client's location is the ingress switch
//! (gNB) plus the switch port its traffic arrives on. Port numbers alone are
//! ambiguous once the controller manages several ingress switches — port 1
//! on gNB 0 and port 1 on gNB 1 are different cells — so a location is the
//! `(ingress, port)` pair. When a client shows up at a different location
//! (UE mobility — it attached to a different gNB/access point), redirect
//! decisions made for the old location are stale: the nearest edge may have
//! changed, and reverse flows point at the old port. The tracker detects
//! moves so the controller can hand the client's sessions over (or, absent a
//! handover procedure, flush its memorized flows and re-schedule).

use crate::flowmemory::IngressId;
use desim::{FastMap, SimTime};
use netsim::addr::Ipv4Addr;

/// A detected client move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClientMove {
    /// The client that moved.
    pub client: Ipv4Addr,
    /// Previous ingress switch.
    pub(crate) from_ingress: IngressId,
    /// Previous ingress port.
    pub(crate) from_port: u32,
    /// New ingress switch.
    pub(crate) to_ingress: IngressId,
    /// New ingress port.
    pub(crate) to_port: u32,
    /// When the move was observed.
    pub at: SimTime,
}

#[derive(Clone, Copy, Debug)]
struct Location {
    ingress: IngressId,
    in_port: u32,
    last_seen: SimTime,
}

/// Tracks where each client currently enters the network.
#[derive(Default)]
pub struct ClientTracker {
    locations: FastMap<Ipv4Addr, Location>,
}

impl ClientTracker {
    /// Creates an empty tracker.
    pub fn new() -> ClientTracker {
        ClientTracker::default()
    }

    /// Records that `client` was seen on `ingress`/`in_port` at `now`.
    /// Returns the move if the client changed location.
    pub fn observe(
        &mut self,
        client: Ipv4Addr,
        ingress: IngressId,
        in_port: u32,
        now: SimTime,
    ) -> Option<ClientMove> {
        match self.locations.insert(
            client,
            Location {
                ingress,
                in_port,
                last_seen: now,
            },
        ) {
            Some(prev) if prev.ingress != ingress || prev.in_port != in_port => Some(ClientMove {
                client,
                from_ingress: prev.ingress,
                from_port: prev.in_port,
                to_ingress: ingress,
                to_port: in_port,
                at: now,
            }),
            _ => None,
        }
    }

    /// The client's current `(ingress, port)` location, if known.
    pub(crate) fn location(&self, client: Ipv4Addr) -> Option<(IngressId, u32)> {
        self.locations.get(&client).map(|l| (l.ingress, l.in_port))
    }

    /// Exports every tracked location, sorted by client address, for
    /// journal snapshots. A warm-restarted controller re-derives
    /// post-snapshot moves by replaying the journal's sighting events
    /// through [`Self::observe`].
    pub(crate) fn export_locations(&self) -> Vec<(Ipv4Addr, IngressId, u32, SimTime)> {
        let mut out: Vec<_> = self
            .locations
            .iter()
            .map(|(c, l)| (*c, l.ingress, l.in_port, l.last_seen))
            .collect();
        out.sort_unstable_by_key(|&(c, ..)| c);
        out
    }

    /// Restores locations from a journal snapshot. Call only on a fresh
    /// tracker: entries are inserted as first sightings, so no moves are
    /// recorded.
    pub(crate) fn restore_locations(&mut self, locs: &[(Ipv4Addr, IngressId, u32, SimTime)]) {
        for &(client, ingress, in_port, last_seen) in locs {
            self.locations.insert(
                client,
                Location {
                    ingress,
                    in_port,
                    last_seen,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(192, 168, 1, last)
    }

    const G0: IngressId = IngressId(0);
    const G1: IngressId = IngressId(1);

    #[test]
    fn first_sighting_is_not_a_move() {
        let mut t = ClientTracker::new();
        assert!(t.observe(ip(20), G0, 3, SimTime::from_secs(1)).is_none());
        assert_eq!(
            t.export_locations(),
            [(ip(20), G0, 3, SimTime::from_secs(1))]
        );
    }

    #[test]
    fn same_location_refreshes_without_move() {
        let mut t = ClientTracker::new();
        t.observe(ip(20), G0, 3, SimTime::from_secs(1));
        assert!(t.observe(ip(20), G0, 3, SimTime::from_secs(5)).is_none());
        assert_eq!(
            t.export_locations(),
            [(ip(20), G0, 3, SimTime::from_secs(5))]
        );
    }

    #[test]
    fn port_change_is_a_move() {
        let mut t = ClientTracker::new();
        t.observe(ip(20), G0, 3, SimTime::from_secs(1));
        let mv = t.observe(ip(20), G0, 7, SimTime::from_secs(9)).unwrap();
        assert_eq!(
            mv,
            ClientMove {
                client: ip(20),
                from_ingress: G0,
                from_port: 3,
                to_ingress: G0,
                to_port: 7,
                at: SimTime::from_secs(9)
            }
        );
        assert_eq!(t.location(ip(20)), Some((G0, 7)));
        // Moving back counts again.
        assert!(t.observe(ip(20), G0, 3, SimTime::from_secs(12)).is_some());
    }

    #[test]
    fn ingress_change_is_a_move_even_on_the_same_port_number() {
        let mut t = ClientTracker::new();
        t.observe(ip(20), G0, 3, SimTime::from_secs(1));
        let mv = t.observe(ip(20), G1, 3, SimTime::from_secs(4)).unwrap();
        assert_eq!((mv.from_ingress, mv.to_ingress), (G0, G1));
        assert_eq!(t.location(ip(20)), Some((G1, 3)));
    }

    #[test]
    fn clients_are_independent() {
        let mut t = ClientTracker::new();
        t.observe(ip(20), G0, 3, SimTime::from_secs(1));
        assert!(t.observe(ip(21), G1, 7, SimTime::from_secs(2)).is_none());
        assert_eq!(t.locations.len(), 2);
    }
}
