//! The four edge services of Table I with calibrated timing models.
//!
//! | key       | Service                          | Image(s)                    | Size/Layers   | Containers | HTTP |
//! |-----------|----------------------------------|-----------------------------|---------------|------------|------|
//! | `asm`     | Assembler web server (asmttpd)   | josefhammer/web-asm:amd64   | 6.18 KiB / 1  | 1          | GET  |
//! | `nginx`   | Nginx web server                 | nginx:1.23.2                | 135 MiB / 6   | 1          | GET  |
//! | `resnet`  | TensorFlow Serving + ResNet50    | gcr.io/tensorflow-serving/… | 308 MiB / 9   | 1          | POST |
//! | `nginx-py`| Nginx + Python env-writer        | nginx + josefhammer/env-…   | 181 MiB / 7   | 2          | GET  |
//!
//! The distributions are calibrated to the medians the paper reports:
//! negligible app-start for the Assembler server, tens of milliseconds for
//! nginx, seconds of model loading for ResNet (its readiness wait alone
//! exceeds a quarter of the total scale-up time), ~1 ms steady-state
//! responses for the static services and substantially longer for inference.

use desim::LogNormal;
use registry::image::catalog;
use registry::ImageManifest;

/// A deployable edge service: its images plus timing/traffic behaviour.
#[derive(Clone, Debug)]
pub struct ServiceProfile {
    /// Short machine key (`asm`, `nginx`, `resnet`, `nginx-py`).
    pub key: &'static str,
    /// Human-readable name as in Table I.
    pub display: &'static str,
    /// Container images (one per container; first is the serving container).
    pub manifests: Vec<ImageManifest>,
    /// TCP port the service listens on inside the cluster.
    pub listen_port: u16,
    /// Delay from task start until the serving container accepts
    /// connections (model loading, config parsing...).
    pub ready_delay: LogNormal,
    /// Per-request server processing time once running.
    pub request_processing: LogNormal,
    /// Request payload bytes (83 KiB cat picture for ResNet POST).
    pub request_bytes: usize,
    /// Response payload bytes.
    pub response_bytes: usize,
    /// HTTP method used by clients.
    pub http_method: &'static str,
}

impl ServiceProfile {
    /// The Assembler web server — the smallest possible service; its launch
    /// time measures the bare overhead of starting *any* container.
    pub fn asm() -> ServiceProfile {
        ServiceProfile {
            key: "asm",
            display: "Assembler Web Server (asmttpd)",
            manifests: vec![catalog::web_asm()],
            listen_port: 80,
            ready_delay: LogNormal::from_median(0.004, 0.30),
            request_processing: LogNormal::from_median(0.00020, 0.30),
            request_bytes: 120,
            response_bytes: 230,
            http_method: "GET",
        }
    }

    /// Nginx — the most popular container image; the paper's representative
    /// "typical" service.
    pub fn nginx() -> ServiceProfile {
        ServiceProfile {
            key: "nginx",
            display: "Nginx Web Server",
            manifests: vec![catalog::nginx()],
            listen_port: 80,
            ready_delay: LogNormal::from_median(0.045, 0.25),
            request_processing: LogNormal::from_median(0.00040, 0.30),
            request_bytes: 120,
            response_bytes: 230,
            http_method: "GET",
        }
    }

    /// TensorFlow Serving with a built-in ResNet50 model — the heavyweight
    /// case; loading the model dominates readiness.
    pub fn resnet() -> ServiceProfile {
        ServiceProfile {
            key: "resnet",
            display: "TensorFlow Serving (ResNet50)",
            manifests: vec![catalog::resnet()],
            listen_port: 8501,
            ready_delay: LogNormal::from_median(2.2, 0.18),
            request_processing: LogNormal::from_median(0.180, 0.25),
            request_bytes: 83 * 1024,
            response_bytes: 1200,
            http_method: "POST",
        }
    }

    /// Nginx + Python env-writer — a two-container microservice composition;
    /// nginx serves while the Python sidecar refreshes `index.html`.
    pub(crate) fn nginx_py() -> ServiceProfile {
        ServiceProfile {
            key: "nginx-py",
            display: "Nginx Web Server + Python Application",
            manifests: vec![catalog::nginx(), catalog::env_writer_py()],
            listen_port: 80,
            ready_delay: LogNormal::from_median(0.045, 0.25),
            request_processing: LogNormal::from_median(0.00040, 0.30),
            request_bytes: 120,
            response_bytes: 420,
            http_method: "GET",
        }
    }

    /// Number of containers in this service.
    pub fn container_count(&self) -> usize {
        self.manifests.len()
    }

    /// Combined transfer size of all images.
    pub fn total_image_size(&self) -> u64 {
        self.manifests.iter().map(ImageManifest::total_size).sum()
    }

    /// Combined layer count of all images.
    pub fn total_layers(&self) -> usize {
        self.manifests.iter().map(ImageManifest::layer_count).sum()
    }
}

/// The full evaluation set in Table I order.
#[derive(Clone, Debug)]
pub struct ServiceSet;

impl ServiceSet {
    /// All four services, Table I order.
    pub fn all() -> Vec<ServiceProfile> {
        vec![
            ServiceProfile::asm(),
            ServiceProfile::nginx(),
            ServiceProfile::resnet(),
            ServiceProfile::nginx_py(),
        ]
    }

    /// Looks up a profile by key.
    pub fn by_key(key: &str) -> Option<ServiceProfile> {
        Self::all().into_iter().find(|p| p.key == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use registry::image::mib;

    #[test]
    fn table_one_shape() {
        let all = ServiceSet::all();
        assert_eq!(all.len(), 4);
        let keys: Vec<_> = all.iter().map(|p| p.key).collect();
        assert_eq!(keys, ["asm", "nginx", "resnet", "nginx-py"]);

        let asm = &all[0];
        assert_eq!(asm.container_count(), 1);
        assert_eq!(asm.total_image_size(), 6328);
        assert_eq!(asm.http_method, "GET");

        let resnet = &all[2];
        assert_eq!(resnet.total_image_size(), mib(308));
        assert_eq!(resnet.total_layers(), 9);
        assert_eq!(resnet.http_method, "POST");
        assert_eq!(resnet.request_bytes, 83 * 1024);

        let py = &all[3];
        assert_eq!(py.container_count(), 2);
        assert_eq!(py.total_image_size(), mib(181));
        assert_eq!(py.total_layers(), 7);
    }

    #[test]
    fn readiness_ordering_matches_paper() {
        // asm ≈ nginx (no notable difference) << resnet.
        let asm = ServiceProfile::asm().ready_delay.median;
        let nginx = ServiceProfile::nginx().ready_delay.median;
        let resnet = ServiceProfile::resnet().ready_delay.median;
        assert!(asm < nginx);
        assert!(nginx < 0.1, "nginx readiness is sub-100ms");
        assert!(resnet > 1.0, "resnet model load takes seconds");
    }

    #[test]
    fn steady_state_processing_matches_fig16() {
        // ~1 ms-scale responses for static services, much longer for ResNet.
        for p in [ServiceProfile::asm(), ServiceProfile::nginx(), ServiceProfile::nginx_py()] {
            assert!(p.request_processing.median < 0.002, "{}", p.key);
        }
        assert!(ServiceProfile::resnet().request_processing.median > 0.05);
    }

    #[test]
    fn by_key_lookup() {
        assert_eq!(ServiceSet::by_key("nginx").unwrap().key, "nginx");
        assert!(ServiceSet::by_key("unknown").is_none());
    }
}
