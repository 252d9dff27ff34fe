//! Property tests for the container lifecycle state machine: timestamps are
//! causally ordered and readiness behaves monotonically for arbitrary
//! operation timings.

use containerd::{ContainerSpec, ContainerState, ContainerdNode};
use desim::{Duration, SimRng, SimTime};
use proptest::prelude::*;
use registry::image::catalog;
use registry::ImageRef;

proptest! {
    /// create → start → stop → remove keeps strictly ordered timestamps and
    /// readiness flips exactly at `ready_at` for arbitrary gaps/delays.
    #[test]
    fn lifecycle_timestamps_are_causal(
        seed in any::<u64>(),
        gap1 in 0u64..10_000,
        gap2 in 0u64..10_000,
        ready_ms in 0u64..5_000,
    ) {
        let mut rng = SimRng::new(seed);
        let mut n = ContainerdNode::with_defaults();
        n.pull(&[catalog::web_asm()], &mut rng);
        let spec = ContainerSpec::new("c", ImageRef::parse("josefhammer/web-asm:amd64"), Some(80));

        let t0 = SimTime::from_millis(1000);
        let (id, created_at) = n.create(spec.into(), &catalog::web_asm(), t0, &mut rng)
            .expect("no fault injection configured");
        prop_assert!(created_at > t0);

        let t1 = created_at + Duration::from_millis(gap1);
        let ready_delay = Duration::from_millis(ready_ms);
        let (started_at, ready_at) = n.start(id, t1, ready_delay, &mut rng)
            .expect("no fault injection configured");
        prop_assert!(started_at > t1);
        prop_assert_eq!(ready_at, started_at + ready_delay);

        // Readiness is a step function at ready_at.
        if ready_at.as_nanos() > 0 {
            prop_assert!(!n.port_open(id, 80, SimTime::from_nanos(ready_at.as_nanos() - 1)));
        }
        prop_assert!(n.port_open(id, 80, ready_at));

        let t2 = ready_at + Duration::from_millis(gap2);
        let stopped_at = n.stop(id, t2, &mut rng);
        prop_assert!(stopped_at > t2);
        let is_stopped = matches!(n.state(id), Some(ContainerState::Stopped { .. }));
        prop_assert!(is_stopped);
        prop_assert!(!n.port_open(id, 80, stopped_at + Duration::from_secs(1)));

        let removed_at = n.remove(id, stopped_at, &mut rng);
        prop_assert!(removed_at > stopped_at);
        prop_assert!(n.state(id).is_none());
    }

    /// Restarting a stopped container works and produces a fresh readiness
    /// instant after the restart (stop → start cycles ad infinitum).
    #[test]
    fn stop_start_cycles(seed in any::<u64>(), cycles in 1usize..5) {
        let mut rng = SimRng::new(seed);
        let mut n = ContainerdNode::with_defaults();
        n.pull(&[catalog::web_asm()], &mut rng);
        let spec = ContainerSpec::new("c", ImageRef::parse("josefhammer/web-asm:amd64"), Some(80));
        let (id, mut t) = n.create(spec.into(), &catalog::web_asm(), SimTime::from_secs(1), &mut rng)
            .expect("no fault injection configured");
        for _ in 0..cycles {
            let (_, ready) = n.start(id, t, Duration::from_millis(5), &mut rng)
                .expect("no fault injection configured");
            prop_assert!(n.port_open(id, 80, ready));
            t = n.stop(id, ready + Duration::from_secs(1), &mut rng);
            prop_assert!(!n.port_open(id, 80, t + Duration::from_secs(1)));
        }
    }
}
