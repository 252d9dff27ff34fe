//! Pull planning and execution with calibrated registry network models.
//!
//! The pull time of an image depends on (the paper, Fig. 13): total bytes to
//! transfer, the *number of layers* (each adds request/verify overhead), the
//! registry's distance (RTT) and effective bandwidth, and which layers are
//! already on disk. A private in-network registry improves pull times by
//! about 1.5–2 s versus Docker Hub / GCR for the studied images.

use crate::cache::LayerCache;
use crate::image::{ImageManifest, Layer};
use desim::{Duration, FaultInjector, LogNormal, Sample, SimRng};

/// Network/processing profile of a registry endpoint.
#[derive(Clone, Debug)]
pub struct RegistryProfile {
    /// Display name (`docker.io`, `gcr.io`, `registry.local`).
    pub name: String,
    /// Time for manifest negotiation (TLS + auth + manifest GET); one per pull.
    pub manifest_time: LogNormal,
    /// Per-layer request overhead (HTTP round trip + blob open).
    pub per_layer_overhead: LogNormal,
    /// Effective download bandwidth in bytes/second.
    pub bandwidth: f64,
    /// Decompress/verify throughput on the pulling host, bytes/second.
    pub unpack_bandwidth: f64,
    /// Concurrent layer fetches (containerd default is 3).
    pub max_concurrent: usize,
}

impl RegistryProfile {
    /// Docker Hub reached over the WAN (calibration: nginx 135 MiB / 6 layers
    /// pulls in roughly 4–5 s, as in Fig. 13's public-registry bars).
    pub fn docker_hub() -> RegistryProfile {
        RegistryProfile {
            name: "docker.io".to_owned(),
            manifest_time: LogNormal::from_median(0.45, 0.25),
            per_layer_overhead: LogNormal::from_median(0.12, 0.30),
            bandwidth: 50e6,        // ~400 Mbit/s effective from the WAN
            unpack_bandwidth: 180e6, // NVMe-backed decompress+verify
            max_concurrent: 3,
        }
    }

    /// Google Container Registry (ResNet image host): similar WAN profile,
    /// slightly faster CDN.
    pub fn gcr() -> RegistryProfile {
        RegistryProfile {
            name: "gcr.io".to_owned(),
            manifest_time: LogNormal::from_median(0.40, 0.25),
            per_layer_overhead: LogNormal::from_median(0.10, 0.30),
            bandwidth: 60e6,
            unpack_bandwidth: 180e6,
            max_concurrent: 3,
        }
    }

    /// A private registry in the same L2 network (the paper's alternative,
    /// ~1.5–2 s faster for the studied images).
    pub fn private_local() -> RegistryProfile {
        RegistryProfile {
            name: "registry.local".to_owned(),
            manifest_time: LogNormal::from_median(0.015, 0.20),
            per_layer_overhead: LogNormal::from_median(0.008, 0.25),
            bandwidth: 112e6, // ~900 Mbit/s on the local gigabit network
            unpack_bandwidth: 180e6,
            max_concurrent: 3,
        }
    }

    /// Picks the profile matching an image's registry host: `gcr.io` images
    /// come from GCR, everything else from Docker Hub (mirrors the paper's
    /// setup).
    pub fn for_host(host: &str) -> RegistryProfile {
        if host == "gcr.io" {
            RegistryProfile::gcr()
        } else {
            RegistryProfile::docker_hub()
        }
    }
}

/// The result of executing a pull.
#[derive(Clone, Debug, PartialEq)]
pub struct PullOutcome {
    /// Wall-clock duration of the pull.
    pub duration: Duration,
    /// Bytes actually transferred (missing layers only).
    pub bytes_transferred: u64,
    /// Number of layers fetched.
    pub layers_fetched: usize,
    /// Number of layers served from cache.
    pub layers_cached: usize,
}

impl PullOutcome {
    /// A no-op pull (image fully cached).
    pub fn cached(n_layers: usize) -> PullOutcome {
        PullOutcome {
            duration: Duration::ZERO,
            bytes_transferred: 0,
            layers_fetched: 0,
            layers_cached: n_layers,
        }
    }
}

/// A pull attempt that failed mid-transfer (injected registry fault).
///
/// The attempt still cost wall-clock time — `elapsed` — which callers must
/// account for before retrying. Nothing is cached from a failed attempt
/// (containerd discards incomplete blob downloads).
#[derive(Clone, Debug, PartialEq)]
pub struct PullError {
    /// Time wasted before the failure surfaced.
    pub elapsed: Duration,
    /// Human-readable cause.
    pub reason: String,
}

impl std::fmt::Display for PullError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pull failed after {}: {}", self.elapsed, self.reason)
    }
}

impl std::error::Error for PullError {}

/// Plans and executes pulls against a layer cache.
pub struct PullPlanner<'a> {
    profile: &'a RegistryProfile,
}

impl<'a> PullPlanner<'a> {
    /// Creates a planner for the given registry profile.
    pub fn new(profile: &'a RegistryProfile) -> PullPlanner<'a> {
        PullPlanner { profile }
    }

    /// Executes a pull of `manifest` into `cache`, returning the outcome.
    /// Layers already present are skipped; fetched layers are inserted into
    /// the cache. Fully-cached images return [`PullOutcome::cached`] without
    /// even a manifest round trip (the content store resolves locally,
    /// mirroring containerd behaviour).
    pub fn pull(
        &self,
        manifest: &ImageManifest,
        cache: &mut LayerCache,
        rng: &mut SimRng,
    ) -> PullOutcome {
        self.pull_with_faults(manifest, cache, rng, None)
            .expect("pull without fault injection cannot fail")
    }

    /// Like [`PullPlanner::pull`], but consulting a [`FaultInjector`]: the
    /// transfer may be slowed by per-layer link flaps and may fail outright
    /// partway through, in which case nothing is cached and the error
    /// carries the time the doomed attempt cost. With `faults = None` (or a
    /// zero-rate plan) the behaviour — including the draw sequence on `rng`
    /// — is identical to `pull`.
    pub fn pull_with_faults(
        &self,
        manifest: &ImageManifest,
        cache: &mut LayerCache,
        rng: &mut SimRng,
        faults: Option<&mut FaultInjector>,
    ) -> Result<PullOutcome, PullError> {
        let (cached, missing) = cache.plan(manifest);
        if missing.is_empty() {
            return Ok(PullOutcome::cached(cached.len()));
        }
        let mut duration = self.simulate_transfer(&missing, rng);
        if let Some(f) = faults {
            // Link flaps: a flapped layer transfers at a fraction of the
            // nominal bandwidth, adding (factor − 1) × its share of the
            // transfer time.
            for l in &missing {
                if let Some(factor) = f.pull_flap_factor() {
                    let layer_time =
                        Duration::from_secs_f64(l.size as f64 / self.profile.bandwidth);
                    duration += layer_time.mul_f64(factor - 1.0);
                }
            }
            if f.pull_fails() {
                return Err(PullError {
                    elapsed: duration.mul_f64(f.partial_fraction()),
                    reason: format!("{} dropped the connection", self.profile.name),
                });
            }
        }
        for l in &missing {
            cache.insert(*l);
        }
        Ok(PullOutcome {
            duration,
            bytes_transferred: missing.iter().map(|l| l.size).sum(),
            layers_fetched: missing.len(),
            layers_cached: cached.len(),
        })
    }

    /// Simulates the transfer of `missing` layers: one manifest round trip,
    /// then layers fetched `max_concurrent` at a time over the shared
    /// bandwidth, each batch paying per-layer overhead; finally unpack at
    /// disk/CPU speed (containerd unpacks sequentially per image).
    fn simulate_transfer(&self, missing: &[Layer], rng: &mut SimRng) -> Duration {
        let p = self.profile;
        let mut total = p.manifest_time.sample_duration(rng);
        // Concurrency note: layers share the registry link, so transfer time
        // is bandwidth-bound on total bytes; concurrency hides per-layer
        // overhead, which we charge once per batch (the slowest request of
        // the batch gates it).
        let bytes: u64 = missing.iter().map(|l| l.size).sum();
        total += Duration::from_secs_f64(bytes as f64 / p.bandwidth);
        for batch in missing.chunks(p.max_concurrent) {
            let batch_overhead = batch
                .iter()
                .map(|_| p.per_layer_overhead.sample_duration(rng))
                .max()
                .unwrap_or(Duration::ZERO);
            total += batch_overhead;
        }
        total += Duration::from_secs_f64(bytes as f64 / p.unpack_bandwidth);
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::catalog;

    fn med_pull(profile: &RegistryProfile, manifest: &ImageManifest, runs: usize) -> f64 {
        let planner = PullPlanner::new(profile);
        let mut samples = Vec::with_capacity(runs);
        for seed in 0..runs as u64 {
            let mut rng = SimRng::new(seed);
            let mut cache = LayerCache::new();
            samples.push(planner.pull(manifest, &mut cache, &mut rng).duration.as_secs_f64());
        }
        desim::Summary::new(samples).median().unwrap()
    }

    #[test]
    fn cold_pull_transfers_everything_and_caches() {
        let profile = RegistryProfile::docker_hub();
        let planner = PullPlanner::new(&profile);
        let mut cache = LayerCache::new();
        let mut rng = SimRng::new(1);
        let m = catalog::nginx();
        let out = planner.pull(&m, &mut cache, &mut rng);
        assert_eq!(out.bytes_transferred, m.total_size());
        assert_eq!(out.layers_fetched, 6);
        assert_eq!(out.layers_cached, 0);
        assert!(cache.has_image(&m));
        // Second pull is free.
        let out2 = planner.pull(&m, &mut cache, &mut rng);
        assert_eq!(out2, PullOutcome::cached(6));
    }

    #[test]
    fn private_registry_saves_one_and_a_half_to_two_seconds() {
        // The paper's headline for Fig. 13: private registry ≈1.5–2 s faster.
        let hub = med_pull(&RegistryProfile::docker_hub(), &catalog::nginx(), 64);
        let private = med_pull(&RegistryProfile::private_local(), &catalog::nginx(), 64);
        let saving = hub - private;
        assert!(
            (1.0..3.0).contains(&saving),
            "saving {saving:.2}s out of expected 1.5-2s band (hub {hub:.2}s, private {private:.2}s)"
        );
    }

    #[test]
    fn tiny_image_pull_is_dominated_by_round_trips() {
        let hub = RegistryProfile::docker_hub();
        let asm = catalog::web_asm();
        let med = med_pull(&hub, &asm, 32);
        // Transfer of 6.18 KiB is negligible; overheads are ~0.5-0.6 s.
        assert!((0.2..1.5).contains(&med), "median {med}");
        let data_time = asm.total_size() as f64 / hub.bandwidth;
        assert!(data_time < 0.01 * med);
    }

    #[test]
    fn pull_time_ordering_matches_image_sizes() {
        // asm < nginx < resnet from their respective registries.
        let asm = med_pull(&RegistryProfile::docker_hub(), &catalog::web_asm(), 32);
        let nginx = med_pull(&RegistryProfile::docker_hub(), &catalog::nginx(), 32);
        let resnet = med_pull(&RegistryProfile::gcr(), &catalog::resnet(), 32);
        assert!(asm < nginx && nginx < resnet, "{asm} {nginx} {resnet}");
        // nginx cold pull from the Hub lands in a plausible seconds band.
        assert!((2.0..8.0).contains(&nginx), "nginx pull {nginx:.2}s");
    }

    #[test]
    fn partial_cache_reduces_pull_time() {
        let profile = RegistryProfile::docker_hub();
        let planner = PullPlanner::new(&profile);
        let m = catalog::resnet();

        let mut rng = SimRng::new(9);
        let mut cold_cache = LayerCache::new();
        let cold = planner.pull(&m, &mut cold_cache, &mut rng);

        let mut rng = SimRng::new(9);
        let mut warm_cache = LayerCache::new();
        for l in &m.layers[..4] {
            warm_cache.insert(*l);
        }
        let warm = planner.pull(&m, &mut warm_cache, &mut rng);

        assert!(warm.duration < cold.duration);
        assert!(warm.bytes_transferred < cold.bytes_transferred);
        assert_eq!(warm.layers_cached, 4);
        assert_eq!(warm.layers_fetched, 5);
    }

    #[test]
    fn zero_rate_faults_leave_pull_byte_identical() {
        use desim::FaultPlan;
        let profile = RegistryProfile::docker_hub();
        let planner = PullPlanner::new(&profile);
        let m = catalog::nginx();

        let mut rng = SimRng::new(5);
        let mut cache = LayerCache::new();
        let plain = planner.pull(&m, &mut cache, &mut rng);

        let mut rng = SimRng::new(5);
        let mut cache = LayerCache::new();
        let mut inj = FaultPlan::default().injector(0x9);
        let faulted = planner
            .pull_with_faults(&m, &mut cache, &mut rng, Some(&mut inj))
            .unwrap();
        assert_eq!(plain, faulted);
        // The main rng stream is also in the same state afterwards.
        let mut a = SimRng::new(5);
        let _ = planner.pull(&m, &mut LayerCache::new(), &mut a);
        let mut b = SimRng::new(5);
        let _ = planner.pull_with_faults(&m, &mut LayerCache::new(), &mut b, Some(&mut inj));
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn injected_pull_failure_caches_nothing_and_costs_time() {
        use desim::FaultPlan;
        let profile = RegistryProfile::docker_hub();
        let planner = PullPlanner::new(&profile);
        let m = catalog::nginx();
        let mut inj = FaultPlan::uniform(1.0, 77).injector(0x9);
        let mut cache = LayerCache::new();
        let mut rng = SimRng::new(5);
        let err = planner
            .pull_with_faults(&m, &mut cache, &mut rng, Some(&mut inj))
            .unwrap_err();
        assert!(!cache.has_image(&m), "failed pull must not cache layers");
        assert!(err.elapsed >= Duration::ZERO);
        assert!(err.reason.contains("docker.io"), "{}", err.reason);
    }

    #[test]
    fn link_flaps_slow_the_transfer_down() {
        use desim::FaultPlan;
        let profile = RegistryProfile::docker_hub();
        let planner = PullPlanner::new(&profile);
        let m = catalog::nginx();

        let mut rng = SimRng::new(5);
        let plain = planner.pull(&m, &mut LayerCache::new(), &mut rng);

        // Flaps on, hard failures off.
        let plan = FaultPlan {
            pull_slowdown: 1.0,
            ..FaultPlan::default()
        };
        let mut inj = plan.injector(0x9);
        let mut rng = SimRng::new(5);
        let flapped = planner
            .pull_with_faults(&m, &mut LayerCache::new(), &mut rng, Some(&mut inj))
            .unwrap();
        assert!(flapped.duration > plain.duration, "{} vs {}", flapped.duration, plain.duration);
    }

    #[test]
    fn profile_for_host_routes_gcr() {
        assert_eq!(RegistryProfile::for_host("gcr.io").name, "gcr.io");
        assert_eq!(RegistryProfile::for_host("docker.io").name, "docker.io");
        assert_eq!(RegistryProfile::for_host("anything.else").name, "docker.io");
    }
}
