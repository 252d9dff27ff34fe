//! Property tests for image synthesis, caching and pull behaviour.

use desim::{Duration, SimRng};
use proptest::prelude::*;
use registry::image::mib;
use registry::{ImageManifest, ImageRef, LayerCache, PullPlanner, RegistryProfile};

fn arb_manifest() -> impl Strategy<Value = ImageManifest> {
    ("[a-z]{3,10}", 1u64..400, 1usize..12).prop_map(|(name, size_mib, layers)| {
        ImageManifest::synthesize(ImageRef::parse(&name), mib(size_mib), layers)
    })
}

proptest! {
    /// Synthesized manifests always hit their requested size exactly, with
    /// non-increasing layer sizes.
    #[test]
    fn synthesis_is_exact(name in "[a-z]{3,8}", total in 1u64..3_000_000_000, layers in 1usize..16) {
        let m = ImageManifest::synthesize(ImageRef::parse(&name), total, layers);
        prop_assert_eq!(m.total_size(), total);
        prop_assert_eq!(m.layer_count(), layers);
        let sizes: Vec<u64> = m.layers.iter().map(|l| l.size).collect();
        for w in sizes.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
        // Digests are unique within the image.
        let mut ds: Vec<_> = m.layers.iter().map(|l| l.digest).collect();
        ds.sort();
        ds.dedup();
        prop_assert_eq!(ds.len(), layers);
    }

    /// Pulling is idempotent: the second pull of the same image transfers
    /// nothing, and disk usage equals the union of pulled layers.
    #[test]
    fn pull_is_idempotent(m in arb_manifest(), seed in any::<u64>()) {
        let profile = RegistryProfile::docker_hub();
        let planner = PullPlanner::new(&profile);
        let mut cache = LayerCache::new();
        let mut rng = SimRng::new(seed);
        let first = planner.pull(&m, &mut cache, &mut rng);
        prop_assert_eq!(first.bytes_transferred, m.total_size());
        prop_assert!(first.duration > Duration::ZERO);
        let usage = cache.disk_usage();
        let second = planner.pull(&m, &mut cache, &mut rng);
        prop_assert_eq!(second.bytes_transferred, 0);
        prop_assert_eq!(second.duration, Duration::ZERO);
        prop_assert_eq!(cache.disk_usage(), usage);
    }

    /// Warm caches never make pulls slower: for any subset of pre-cached
    /// layers, the pull transfers exactly the missing bytes.
    #[test]
    fn partial_cache_transfers_exactly_missing(m in arb_manifest(), mask in any::<u16>(), seed in any::<u64>()) {
        let profile = RegistryProfile::docker_hub();
        let planner = PullPlanner::new(&profile);
        let mut cache = LayerCache::new();
        let mut expected_missing = 0;
        for (i, l) in m.layers.iter().enumerate() {
            if mask & (1 << (i % 16)) != 0 {
                cache.insert(*l);
            } else {
                expected_missing += l.size;
            }
        }
        let mut rng = SimRng::new(seed);
        let out = planner.pull(&m, &mut cache, &mut rng);
        prop_assert_eq!(out.bytes_transferred, expected_missing);
        prop_assert!(cache.has_image(&m));
    }

    /// The private registry is never slower than Docker Hub for the same
    /// image and seed.
    #[test]
    fn private_is_never_slower(m in arb_manifest(), seed in any::<u64>()) {
        let hub = RegistryProfile::docker_hub();
        let private = RegistryProfile::private_local();
        let mut rng1 = SimRng::new(seed);
        let mut rng2 = SimRng::new(seed);
        let t_hub = PullPlanner::new(&hub).pull(&m, &mut LayerCache::new(), &mut rng1).duration;
        let t_priv = PullPlanner::new(&private).pull(&m, &mut LayerCache::new(), &mut rng2).duration;
        prop_assert!(t_priv <= t_hub, "private {t_priv} vs hub {t_hub}");
    }
}
