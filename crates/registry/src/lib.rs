//! `registry` — container images, layers, and registry pull modelling.
//!
//! The **Pull** phase is the first of the paper's three deployment phases
//! (Fig. 4): unless already cached, the edge cluster must download the
//! service's container image layers from a registry. Fig. 13 measures this
//! for four images against Docker Hub / Google Container Registry and a
//! private in-network registry (which the paper reports as 1.5–2 s faster).
//!
//! This crate models that machinery from scratch:
//!
//! * [`image`] — content-addressed layers ([`image::Digest`]), image
//!   manifests, and the catalog of the paper's four services (Table I, with
//!   the published sizes and layer counts),
//! * [`cache`] — the per-cluster layer store with cross-image layer
//!   de-duplication (the paper notes popular base layers may already be on
//!   disk even after an image is deleted),
//! * [`pull`] — the pull planner/executor: manifest round-trips, concurrent
//!   layer downloads over a bandwidth-limited registry connection, per-layer
//!   verification/unpack, producing calibrated, seed-deterministic timings.

#![warn(missing_docs)]

//! ```
//! use desim::SimRng;
//! use registry::{image::catalog, LayerCache, PullPlanner, RegistryProfile};
//!
//! let profile = RegistryProfile::docker_hub();
//! let planner = PullPlanner::new(&profile);
//! let mut cache = LayerCache::new();
//! let mut rng = SimRng::new(7);
//!
//! // Cold pull transfers all 135 MiB of nginx; the second pull is free.
//! let cold = planner.pull(&catalog::nginx(), &mut cache, &mut rng);
//! assert_eq!(cold.layers_fetched, 6);
//! let warm = planner.pull(&catalog::nginx(), &mut cache, &mut rng);
//! assert_eq!(warm.bytes_transferred, 0);
//! ```

pub mod cache;
pub mod image;
pub mod pull;

pub use cache::LayerCache;
pub use image::{ImageManifest, ImageRef};
pub use pull::{PublicRegistries, PullError, PullOutcome, PullPlanner, RegistryProfile};
