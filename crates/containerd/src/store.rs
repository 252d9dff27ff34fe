//! The content store: digest-addressed layers plus pull orchestration.

use desim::{Duration, FaultInjector, SimRng};
use registry::{ImageManifest, LayerCache, PullError, PullOutcome, PullPlanner, RegistryProfile};

/// The node-local content store. Owns the layer cache and knows how to reach
/// registries (public by default, optionally a private mirror).
pub struct ContentStore {
    cache: LayerCache,
    /// Optional private registry used for every pull when set (the paper's
    /// in-network registry alternative).
    mirror: Option<RegistryProfile>,
    /// Chaos-testing fault injector, consulted only by the `try_*` pull
    /// entry points.
    faults: Option<FaultInjector>,
}

impl Default for ContentStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ContentStore {
    /// Creates an empty store pulling from public registries.
    pub fn new() -> ContentStore {
        ContentStore {
            cache: LayerCache::new(),
            mirror: None,
            faults: None,
        }
    }

    /// Creates a store that pulls everything from a private mirror.
    pub fn with_mirror(mirror: RegistryProfile) -> ContentStore {
        ContentStore {
            cache: LayerCache::new(),
            mirror: Some(mirror),
            faults: None,
        }
    }

    /// Wires a fault injector into the pull path. Only the fallible
    /// [`ContentStore::try_pull`] / [`ContentStore::try_pull_all`] entry
    /// points consult it; the infallible `pull`/`pull_all` remain
    /// fault-free (experiment setup helpers keep working under any plan).
    pub fn set_faults(&mut self, injector: FaultInjector) {
        self.faults = Some(injector);
    }

    /// `true` if every layer of `manifest` is on disk.
    pub fn has_image(&self, manifest: &ImageManifest) -> bool {
        self.cache.has_image(manifest)
    }

    /// Pulls an image, returning the outcome (zero-duration when cached).
    pub fn pull(&mut self, manifest: &ImageManifest, rng: &mut SimRng) -> PullOutcome {
        let profile = match &self.mirror {
            Some(m) => m.clone(),
            None => RegistryProfile::for_host(&manifest.reference.host),
        };
        let planner = PullPlanner::new(&profile);
        planner.pull(manifest, &mut self.cache, rng)
    }

    /// Pulls several images *concurrently* (e.g. the two containers of the
    /// Nginx+Py service): wall time is the max of the individual pulls, since
    /// each registry connection is independent.
    pub fn pull_all<'a>(
        &mut self,
        manifests: impl IntoIterator<Item = &'a ImageManifest>,
        rng: &mut SimRng,
    ) -> Duration {
        manifests
            .into_iter()
            .map(|m| self.pull(m, rng).duration)
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// Fallible single pull consulting the wired fault injector (if any).
    /// With no injector the behaviour — including the `rng` draw sequence —
    /// is identical to [`ContentStore::pull`].
    pub fn try_pull(
        &mut self,
        manifest: &ImageManifest,
        rng: &mut SimRng,
    ) -> Result<PullOutcome, PullError> {
        let profile = match &self.mirror {
            Some(m) => m.clone(),
            None => RegistryProfile::for_host(&manifest.reference.host),
        };
        let planner = PullPlanner::new(&profile);
        planner.pull_with_faults(manifest, &mut self.cache, rng, self.faults.as_mut())
    }

    /// Fallible concurrent pull of several images. All transfers run in
    /// parallel, so a failure surfaces only after the slowest attempt:
    /// the error's `elapsed` is the max over every attempt (successes keep
    /// their layers cached, making a retry cheaper).
    pub fn try_pull_all(
        &mut self,
        manifests: &[ImageManifest],
        rng: &mut SimRng,
    ) -> Result<Duration, PullError> {
        let mut wall = Duration::ZERO;
        let mut first_err: Option<PullError> = None;
        for m in manifests {
            match self.try_pull(m, rng) {
                Ok(out) => wall = wall.max(out.duration),
                Err(e) => {
                    wall = wall.max(e.elapsed);
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        match first_err {
            Some(mut e) => {
                e.elapsed = wall;
                Err(e)
            }
            None => Ok(wall),
        }
    }

    /// Bytes on disk.
    pub fn disk_usage(&self) -> u64 {
        self.cache.disk_usage()
    }

    /// Direct cache access (tests, stats).
    pub fn cache(&self) -> &LayerCache {
        &self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use registry::image::catalog;

    #[test]
    fn pull_then_cached() {
        let mut s = ContentStore::new();
        let mut rng = SimRng::new(1);
        let m = catalog::nginx();
        assert!(!s.has_image(&m));
        let out = s.pull(&m, &mut rng);
        assert!(out.duration > Duration::ZERO);
        assert!(s.has_image(&m));
        let out = s.pull(&m, &mut rng);
        assert_eq!(out.duration, Duration::ZERO);
    }

    #[test]
    fn mirror_is_faster_than_hub() {
        let m = catalog::nginx();
        let mut hub = ContentStore::new();
        let mut private = ContentStore::with_mirror(RegistryProfile::private_local());
        let mut r1 = SimRng::new(7);
        let mut r2 = SimRng::new(7);
        let t_hub = hub.pull(&m, &mut r1).duration;
        let t_priv = private.pull(&m, &mut r2).duration;
        assert!(t_priv < t_hub);
    }

    #[test]
    fn pull_all_is_max_not_sum() {
        let mut s = ContentStore::new();
        let mut rng = SimRng::new(3);
        let manifests = [catalog::nginx(), catalog::env_writer_py()];
        let combined = s.pull_all(&manifests, &mut rng);
        // Must not exceed a fresh pull of both sequentially.
        let mut s2 = ContentStore::new();
        let mut rng2 = SimRng::new(3);
        let a = s2.pull(&manifests[0], &mut rng2).duration;
        let b = s2.pull(&manifests[1], &mut rng2).duration;
        assert!(combined < a + b);
        assert!(combined >= a.max(b).min(a) || combined > Duration::ZERO);
    }
}
