//! The per-cluster layer cache (content store view used for pull planning).
//!
//! Layers are cached by digest, so layers shared between images dedupe: the
//! paper notes that even after deleting an image, "some of its layers may be
//! used by other images", making a later pull of the same image cheaper.

use crate::image::{Digest, ImageManifest, Layer};
use std::collections::HashMap;

/// A content-addressed layer store with hit/miss accounting.
#[derive(Clone, Debug, Default)]
pub struct LayerCache {
    layers: HashMap<Digest, u64>, // digest -> size
    hits: u64,
    misses: u64,
}

impl LayerCache {
    /// Creates an empty cache.
    pub fn new() -> LayerCache {
        LayerCache::default()
    }

    /// `true` if `digest` is present.
    pub fn contains(&self, digest: &Digest) -> bool {
        self.layers.contains_key(digest)
    }

    /// Inserts a layer (idempotent).
    pub fn insert(&mut self, layer: Layer) {
        self.layers.insert(layer.digest, layer.size);
    }

    /// Inserts every layer of `manifest`.
    pub fn insert_image(&mut self, manifest: &ImageManifest) {
        for l in &manifest.layers {
            self.insert(*l);
        }
    }

    /// Removes a layer by digest, returning whether it was present.
    pub fn remove(&mut self, digest: &Digest) -> bool {
        self.layers.remove(digest).is_some()
    }

    /// Splits a manifest into (cached, missing) layers, recording hit/miss
    /// statistics.
    pub fn plan(&mut self, manifest: &ImageManifest) -> (Vec<Layer>, Vec<Layer>) {
        let mut cached = Vec::new();
        let mut missing = Vec::new();
        for l in &manifest.layers {
            if self.contains(&l.digest) {
                self.hits += 1;
                cached.push(*l);
            } else {
                self.misses += 1;
                missing.push(*l);
            }
        }
        (cached, missing)
    }

    /// `true` if every layer of the image is cached.
    pub fn has_image(&self, manifest: &ImageManifest) -> bool {
        manifest.layers.iter().all(|l| self.contains(&l.digest))
    }

    /// Total bytes on disk.
    pub fn disk_usage(&self) -> u64 {
        self.layers.values().sum()
    }

    /// Number of stored layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// `(hits, misses)` accumulated by [`LayerCache::plan`].
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Fraction of planned layers served from cache, or `None` before any
    /// planning ran (telemetry snapshots report this per cluster).
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{catalog, mib};

    #[test]
    fn empty_cache_misses_everything() {
        let mut c = LayerCache::new();
        let m = catalog::nginx();
        assert!(!c.has_image(&m));
        let (cached, missing) = c.plan(&m);
        assert!(cached.is_empty());
        assert_eq!(missing.len(), 6);
        assert_eq!(c.stats(), (0, 6));
        assert_eq!(c.hit_rate(), Some(0.0));
        assert_eq!(LayerCache::new().hit_rate(), None);
    }

    #[test]
    fn full_image_hits_everything() {
        let mut c = LayerCache::new();
        let m = catalog::nginx();
        c.insert_image(&m);
        assert!(c.has_image(&m));
        assert_eq!(c.disk_usage(), mib(135));
        let (cached, missing) = c.plan(&m);
        assert_eq!(cached.len(), 6);
        assert!(missing.is_empty());
    }

    #[test]
    fn partial_overlap_pulls_only_missing() {
        let mut c = LayerCache::new();
        let m = catalog::resnet();
        // Pre-cache the three largest (base) layers.
        for l in &m.layers[..3] {
            c.insert(*l);
        }
        let (cached, missing) = c.plan(&m);
        assert_eq!(cached.len(), 3);
        assert_eq!(missing.len(), 6);
        let missing_bytes: u64 = missing.iter().map(|l| l.size).sum();
        assert!(missing_bytes < m.total_size() / 4, "base layers dominate size");
    }

    #[test]
    fn insert_is_idempotent() {
        let mut c = LayerCache::new();
        let m = catalog::web_asm();
        c.insert_image(&m);
        c.insert_image(&m);
        assert_eq!(c.len(), 1);
        assert_eq!(c.disk_usage(), 6328);
        assert!(c.remove(&m.layers[0].digest));
        assert!(!c.remove(&m.layers[0].digest));
        assert!(c.is_empty());
    }
}
