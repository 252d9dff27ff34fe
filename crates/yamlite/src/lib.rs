//! `yamlite` — a small, dependency-free YAML subset parser and emitter.
//!
//! The transparent-edge controller consumes Kubernetes-`Deployment`-style
//! service definition files and re-emits annotated manifests. Those files use
//! a well-behaved subset of YAML 1.2, which this crate implements from
//! scratch:
//!
//! * block mappings and sequences with indentation-based nesting,
//! * plain / single-quoted / double-quoted scalars with type resolution
//!   (null, bool, int, float, string),
//! * flow collections (`[a, b]`, `{k: v}`), which may span lines — so the
//!   JSON the bench artifacts are written in parses as-is,
//! * literal (`|`) and folded (`>`) block scalars,
//! * comments, blank lines and multi-document streams (`---`).
//!
//! Anchors, aliases, tags and complex keys are intentionally out of scope —
//! Kubernetes manifests do not use them.
//!
//! ```
//! let doc = yamlite::parse_str("
//! apiVersion: apps/v1
//! kind: Deployment
//! spec:
//!   replicas: 0
//!   template:
//!     spec:
//!       containers:
//!         - name: nginx
//!           image: nginx:1.23.2
//! ").unwrap();
//! assert_eq!(doc["kind"].as_str(), Some("Deployment"));
//! assert_eq!(doc["spec"]["replicas"].as_i64(), Some(0));
//! assert_eq!(doc["spec"]["template"]["spec"]["containers"][0]["image"].as_str(),
//!            Some("nginx:1.23.2"));
//! ```

#![warn(missing_docs)]

mod emitter;
mod error;
mod parser;
mod value;

pub(crate) use parser::looks_numeric as parser_numeric_check;

pub use emitter::to_string;
pub use error::{ParseError, Result};
pub use parser::{parse_documents, parse_str, MAX_DEPTH};
pub use value::Value;
