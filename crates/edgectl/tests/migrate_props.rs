//! Property tests for live migration (satellite of the `edgectl::migrate`
//! work): whatever the request history, flow population, and transfer
//! interleaving, a live migration is *lossless* — the session byte-count and
//! the FlowMemory entries at the target equal the source snapshot (plus the
//! switchover delta), and nothing that belonged to a bystander moves.

use desim::{Duration, SimTime};
use edgectl::flowmemory::{FlowKey, FlowMemory, IngressId};
use edgectl::{
    InstanceAddr, MigrationConfig, MigrationManager, MigrationPolicy, MigrationReason,
};
use netsim::addr::{Ipv4Addr, MacAddr};
use netsim::ServiceAddr;
use proptest::prelude::*;

fn svc(last: u8) -> ServiceAddr {
    ServiceAddr::new(Ipv4Addr::new(203, 0, 113, last), 80)
}

fn inst_on(cluster: usize) -> InstanceAddr {
    InstanceAddr {
        mac: MacAddr::from_id(700 + cluster as u32),
        ip: Ipv4Addr::new(10, cluster as u8, 0, 1),
        port: 31000 + cluster as u16,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The ledger half: the snapshot equals served-requests × bytes/request,
    /// the bytes landing at the target equal the snapshot plus whatever
    /// accrued during the transfer window, the source ends at zero, and the
    /// grand total (including bystander services) is conserved.
    #[test]
    fn live_migration_conserves_session_bytes(
        bytes_per_request in 1u64..10_000,
        served_before in 0u64..500,
        served_during in 0u64..100,
        from in 0usize..4,
        hop in 1usize..4,
        bystanders in prop::collection::vec((1u8..20, 0usize..4, 1u64..100), 0..6),
    ) {
        let to = (from + hop) % 4;
        let config = MigrationConfig {
            policy: MigrationPolicy::Live,
            state_bytes_per_request: bytes_per_request,
            ..MigrationConfig::default()
        };
        let mut m = MigrationManager::new(config.clone());
        let mover = svc(200);
        for _ in 0..served_before {
            m.note_served(mover, from);
        }
        let mut bystander_total = 0;
        for (s, c, n) in &bystanders {
            // Bystander state at *other* services (any cluster) must never
            // be dragged along by the mover's transfer.
            for _ in 0..*n {
                m.note_served(svc(*s), *c);
            }
            bystander_total += n * bytes_per_request;
        }
        let snapshot = m.ledger().bytes_at(mover, from);
        prop_assert_eq!(snapshot, served_before * bytes_per_request);

        let t0 = SimTime::from_secs(10);
        prop_assert!(m.can_start(mover, from, to, t0));
        let mig = m.begin(mover, from, to, MigrationReason::Explicit, t0, t0, 1);
        prop_assert_eq!(mig.state_bytes, snapshot, "snapshot taken at departure");
        // The transfer cost is linear in the snapshot: propagation plus an
        // exact serialization term.
        prop_assert_eq!(
            mig.transfer_done.saturating_since(t0),
            config.transfer_time(snapshot)
        );
        prop_assert!(m.pinned(mover, from) && m.pinned(mover, to));

        // The source keeps serving while the state is on the wire.
        for _ in 0..served_during {
            m.note_served(mover, from);
        }
        let total_before_flip = m.ledger().total();

        let due = m.take_due(mig.transfer_done);
        prop_assert_eq!(due.len(), 1);
        let moved = m.complete(&due[0], mig.transfer_done, 1);
        prop_assert_eq!(
            moved,
            snapshot + served_during * bytes_per_request,
            "switchover sync ships the delta accrued during the transfer"
        );
        prop_assert_eq!(m.ledger().bytes_at(mover, to), moved);
        prop_assert_eq!(m.ledger().bytes_at(mover, from), 0);
        prop_assert_eq!(m.ledger().total(), total_before_flip, "bytes conserved");
        prop_assert!(!m.pinned(mover, from) && !m.pinned(mover, to), "pin lifted");
        // Bystander services still hold exactly what they accrued.
        let mover_bytes = m.ledger().bytes_at(mover, to);
        prop_assert_eq!(m.ledger().total() - mover_bytes, bystander_total);
    }

    /// The FlowMemory half: after the flip, the target holds exactly the
    /// entries the source held — same (ingress, client, service) keys, all
    /// repointed to the target instance — and every bystander flow (other
    /// services, other clusters) is untouched.
    #[test]
    fn live_migration_moves_every_flow_and_only_those(
        movers in prop::collection::vec((0u32..3, 0u8..8), 1..10),
        bystanders in prop::collection::vec((0u32..3, 0u8..8, 1u8..20), 0..10),
        from in 0usize..3,
        hop in 1usize..3,
    ) {
        let to = (from + hop) % 3;
        let mut memory = FlowMemory::new(Duration::from_secs(600));
        let now = SimTime::from_secs(1);
        let service = svc(200);

        let mut mover_keys = std::collections::HashSet::new();
        for (g, c) in &movers {
            let key = FlowKey {
                ingress: IngressId(*g),
                client_ip: Ipv4Addr::new(192, 168, 1, 20 + c),
                service,
            };
            memory.memorize(key, inst_on(from), from, now);
            mover_keys.insert(key);
        }
        let mut bystander_keys = std::collections::HashSet::new();
        for (g, c, s) in &bystanders {
            let key = FlowKey {
                ingress: IngressId(*g),
                client_ip: Ipv4Addr::new(192, 168, 1, 20 + c),
                service: svc(*s),
            };
            // Bystanders live on the *source* cluster too — migrating one
            // service away must not move its neighbours' flows.
            memory.memorize(key, inst_on(from), from, now);
            bystander_keys.insert(key);
        }

        let snapshot = memory.entries_at(service, from);
        prop_assert_eq!(snapshot.len(), mover_keys.len());

        // The controller's flip: repoint every snapshot entry to the target.
        let flip_at = now + Duration::from_secs(3);
        for (key, _) in &snapshot {
            prop_assert!(memory.repoint(key, inst_on(to), to, flip_at));
        }

        prop_assert!(memory.entries_at(service, from).is_empty(), "source drained");
        let landed = memory.entries_at(service, to);
        prop_assert_eq!(landed.len(), mover_keys.len(), "every entry arrived");
        for (key, flow) in &landed {
            prop_assert!(mover_keys.contains(key), "no invented entries");
            prop_assert_eq!(flow.instance, inst_on(to), "repointed to the target");
            prop_assert_eq!(flow.cluster as usize, to);
            prop_assert_eq!(flow.last_used, flip_at, "flip refreshes idle time");
        }
        for key in &bystander_keys {
            if mover_keys.contains(key) {
                continue;
            }
            let flow = memory.lookup(*key, flip_at).expect("bystander survives");
            prop_assert_eq!(flow.instance, inst_on(from), "bystander not dragged along");
            prop_assert_eq!(flow.cluster as usize, from);
        }
    }

    /// Degenerate case pin: at state size zero the transfer is a bare
    /// propagation delay — a live migration degrades exactly to the PR 4
    /// make-before-break handover, never worse.
    #[test]
    fn zero_state_transfer_is_pure_propagation(bandwidth in 1u64..100_000) {
        let c = MigrationConfig {
            policy: MigrationPolicy::Live,
            transfer_bandwidth_bps: bandwidth * 1_000_000,
            ..MigrationConfig::default()
        };
        prop_assert_eq!(c.transfer_time(0), edgectl::migrate::TRANSFER_PROPAGATION);
        // And the cost is monotone in bytes past that floor.
        prop_assert!(c.transfer_time(1_000_000) >= c.transfer_time(1_000));
    }
}
