//! Content-addressed image and layer model, plus the Table I catalog.

use std::fmt;

/// A content digest (modelled sha256): 32 bytes, displayed as
/// `sha256:<hex>`. Digests are derived deterministically from content
/// identity so equal content always dedupes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest([u8; 32]);

impl Digest {
    /// Derives a digest from an identity string (e.g. `"nginx:1.23.2/layer3"`).
    ///
    /// Uses an iterated SplitMix64 over the bytes — not cryptographic, but
    /// stable, well-distributed and collision-free for catalog-scale inputs.
    pub fn of(identity: &str) -> Digest {
        let mut state: u64 = 0x6a09_e667_f3bc_c908;
        let mut out = [0u8; 32];
        for &b in identity.as_bytes() {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_add(b as u64);
            state = splitmix(state);
        }
        for chunk in 0..4 {
            state = splitmix(state.wrapping_add(chunk));
            out[chunk as usize * 8..][..8].copy_from_slice(&state.to_be_bytes());
        }
        Digest(out)
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The short (12-hex-char) form used in logs, mirroring Docker's UI.
impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sha256:")?;
        self.0[..6].iter().try_for_each(|b| write!(f, "{b:02x}"))
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sha256:")?;
        self.0.iter().try_for_each(|b| write!(f, "{b:02x}"))
    }
}

/// One image layer: a digest plus its compressed size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layer {
    /// Content digest.
    pub digest: Digest,
    /// Compressed (transfer) size in bytes.
    pub size: u64,
}

/// A named image reference: `registry_host/name:tag`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ImageRef {
    /// Registry host (`docker.io`, `gcr.io`, `registry.local`...).
    pub host: String,
    /// Repository name (`nginx`, `josefhammer/web-asm`...).
    pub name: String,
    /// Tag.
    pub(crate) tag: String,
}

impl ImageRef {
    /// Parses `[host/]name[:tag]`; host defaults to `docker.io`, tag to
    /// `latest`. A leading component containing a dot or `:` is treated as a
    /// host, matching Docker's reference grammar closely enough for the
    /// catalog.
    pub fn parse(s: &str) -> ImageRef {
        let (rest, tag) = match s.rsplit_once(':') {
            // A ':' after the last '/' is a tag separator.
            Some((head, t)) if !t.contains('/') => (head, t.to_owned()),
            _ => (s, "latest".to_owned()),
        };
        let (host, name) = match rest.split_once('/') {
            Some((h, n)) if h.contains('.') || h.contains(':') || h == "localhost" => {
                (h.to_owned(), n.to_owned())
            }
            _ => ("docker.io".to_owned(), rest.to_owned()),
        };
        ImageRef { host, name, tag }
    }
}

impl fmt::Display for ImageRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}:{}", self.host, self.name, self.tag)
    }
}

impl fmt::Debug for ImageRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// An image manifest: the reference plus its ordered layers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ImageManifest {
    /// The image reference.
    pub reference: ImageRef,
    /// Layers, base first.
    pub layers: Vec<Layer>,
}

impl ImageManifest {
    /// Builds a manifest with `n_layers` layers summing to `total_size`
    /// bytes. Layer sizes follow the typical real-image shape: a large base
    /// layer and progressively smaller upper layers (each roughly half the
    /// previous), which matters because pull time depends on both the total
    /// size and the per-layer constant costs.
    pub fn synthesize(reference: ImageRef, total_size: u64, n_layers: usize) -> ImageManifest {
        assert!(n_layers > 0, "an image needs at least one layer");
        // Geometric weights 2^(n-1), ..., 2, 1.
        let denom: u64 = (1u64 << n_layers) - 1;
        let mut layers = Vec::with_capacity(n_layers);
        let mut assigned = 0u64;
        for i in 0..n_layers {
            let weight = 1u64 << (n_layers - 1 - i);
            let size = if i + 1 == n_layers {
                total_size - assigned // exact remainder on the last layer
            } else {
                total_size * weight / denom
            };
            assigned += size;
            layers.push(Layer {
                digest: Digest::of(&format!("{reference}/layer{i}")),
                size,
            });
        }
        ImageManifest { reference, layers }
    }

    /// Total transfer size in bytes.
    pub fn total_size(&self) -> u64 {
        self.layers.iter().map(|l| l.size).sum()
    }

    /// Number of layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }
}

/// Mebibytes to bytes.
pub const fn mib(n: u64) -> u64 {
    n * 1024 * 1024
}

/// The image catalog of Table I.
pub mod catalog {
    use super::*;

    /// `josefhammer/web-asm:amd64` — 6.18 KiB, 1 layer.
    pub fn web_asm() -> ImageManifest {
        ImageManifest::synthesize(ImageRef::parse("josefhammer/web-asm:amd64"), 6328, 1)
    }

    /// `nginx:1.23.2` — 135 MiB, 6 layers.
    pub fn nginx() -> ImageManifest {
        ImageManifest::synthesize(ImageRef::parse("nginx:1.23.2"), mib(135), 6)
    }

    /// `gcr.io/tensorflow-serving/resnet` — 308 MiB, 9 layers.
    pub fn resnet() -> ImageManifest {
        ImageManifest::synthesize(
            ImageRef::parse("gcr.io/tensorflow-serving/resnet:latest"),
            mib(308),
            9,
        )
    }

    /// `josefhammer/env-writer-py` — the Python half of the Nginx+Py service.
    /// Table I reports the combined service as 181 MiB / 7 layers; with nginx
    /// at 135 MiB / 6 layers that leaves 46 MiB / 1 layer for this image.
    pub fn env_writer_py() -> ImageManifest {
        ImageManifest::synthesize(
            ImageRef::parse("josefhammer/env-writer-py:latest"),
            mib(46),
            1,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_stable_and_distinct() {
        let a = Digest::of("nginx:1.23.2/layer0");
        let b = Digest::of("nginx:1.23.2/layer0");
        let c = Digest::of("nginx:1.23.2/layer1");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.to_string().len(), 7 + 64);
        assert_eq!(format!("{a:?}").len(), 7 + 12);
        assert!(a.to_string().starts_with("sha256:"));
    }

    #[test]
    fn image_ref_parsing() {
        let r = ImageRef::parse("nginx:1.23.2");
        assert_eq!((r.host.as_str(), r.name.as_str(), r.tag.as_str()), ("docker.io", "nginx", "1.23.2"));
        let r = ImageRef::parse("gcr.io/tensorflow-serving/resnet");
        assert_eq!((r.host.as_str(), r.name.as_str(), r.tag.as_str()), ("gcr.io", "tensorflow-serving/resnet", "latest"));
        let r = ImageRef::parse("josefhammer/web-asm:amd64");
        assert_eq!((r.host.as_str(), r.name.as_str(), r.tag.as_str()), ("docker.io", "josefhammer/web-asm", "amd64"));
        let r = ImageRef::parse("localhost:5000/foo:dev");
        assert_eq!((r.host.as_str(), r.name.as_str(), r.tag.as_str()), ("localhost:5000", "foo", "dev"));
        assert_eq!(r.to_string(), "localhost:5000/foo:dev");
    }

    #[test]
    fn synthesized_sizes_are_exact() {
        for (total, n) in [(6328u64, 1usize), (mib(135), 6), (mib(308), 9), (mib(46), 1)] {
            let m = ImageManifest::synthesize(ImageRef::parse("x"), total, n);
            assert_eq!(m.total_size(), total, "total for {n} layers");
            assert_eq!(m.layer_count(), n);
        }
    }

    #[test]
    fn layer_sizes_decrease_base_first() {
        let m = catalog::nginx();
        let sizes: Vec<u64> = m.layers.iter().map(|l| l.size).collect();
        for w in sizes.windows(2) {
            assert!(w[0] >= w[1], "layers should shrink: {sizes:?}");
        }
        assert!(sizes[0] > m.total_size() / 3, "base layer dominates");
    }

    #[test]
    fn catalog_matches_table_one() {
        assert_eq!(catalog::web_asm().total_size(), 6328); // 6.18 KiB
        assert_eq!(catalog::web_asm().layer_count(), 1);
        assert_eq!(catalog::nginx().total_size(), mib(135));
        assert_eq!(catalog::nginx().layer_count(), 6);
        assert_eq!(catalog::resnet().total_size(), mib(308));
        assert_eq!(catalog::resnet().layer_count(), 9);
        // Combined Nginx+Py: 181 MiB / 7 layers.
        let combined = catalog::nginx().total_size() + catalog::env_writer_py().total_size();
        assert_eq!(combined, mib(181));
        assert_eq!(
            catalog::nginx().layer_count() + catalog::env_writer_py().layer_count(),
            7
        );
    }

    #[test]
    fn distinct_images_have_distinct_layer_digests() {
        let a = catalog::nginx();
        let b = catalog::resnet();
        for la in &a.layers {
            for lb in &b.layers {
                assert_ne!(la.digest, lb.digest);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn zero_layers_rejected() {
        ImageManifest::synthesize(ImageRef::parse("x"), 100, 0);
    }
}
