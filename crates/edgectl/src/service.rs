//! The edge service registry.
//!
//! Services are registered with the mobile edge platform provider and
//! identified by their unique combination of domain name/IP address and port
//! number (Section II). The registry maps that cloud-facing address to the
//! deployable artefact: the annotated service definition and its runtime
//! profile.

use crate::annotate::{annotate_deployment, AnnotatedService};
use containerd::ServiceProfile;
use netsim::ServiceAddr;
use std::collections::BTreeMap;
use std::rc::Rc;

/// A registered edge service.
#[derive(Clone, Debug)]
pub struct EdgeService {
    /// The cloud address clients use (the registration key).
    pub addr: ServiceAddr,
    /// Unique worldwide service name (assigned during annotation).
    pub name: String,
    /// The annotated deployment definition.
    pub annotated: AnnotatedService,
    /// Runtime/traffic profile (images, readiness, processing model).
    pub profile: ServiceProfile,
}

impl EdgeService {
    /// The service `profile` describes, registered at `addr`: a Deployment
    /// with one container per image (`c0`, `c1`, …), the first exposing the
    /// profile's listen port, annotated for `addr`.
    pub fn from_profile(profile: ServiceProfile, addr: ServiceAddr) -> EdgeService {
        let containers: String = profile
            .manifests
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let ports = if i == 0 {
                    format!(
                        "\n          ports:\n            - containerPort: {}",
                        profile.listen_port
                    )
                } else {
                    String::new()
                };
                format!("        - name: c{i}\n          image: {}{}\n", m.reference, ports)
            })
            .collect();
        let yaml = format!("spec:\n  template:\n    spec:\n      containers:\n{containers}");
        let annotated = annotate_deployment(&yaml, addr, None).expect("valid generated definition");
        EdgeService {
            addr,
            name: annotated.service_name.clone(),
            annotated,
            profile,
        }
    }
}

/// The registry of services eligible for transparent edge redirection.
/// Requests to addresses not present here are forwarded to the cloud
/// untouched.
///
/// Entries are reference-counted so the controller's packet-in fast path can
/// take a cheap shared handle ([`ServiceRegistry::get_shared`]) instead of
/// deep-cloning the annotated YAML and manifest strings per packet.
#[derive(Default)]
pub struct ServiceRegistry {
    services: BTreeMap<ServiceAddr, Rc<EdgeService>>,
}

impl ServiceRegistry {
    /// Creates an empty registry.
    pub fn new() -> ServiceRegistry {
        ServiceRegistry::default()
    }

    /// Registers a service; replaces an existing registration for the same
    /// address and returns the previous one, if any.
    pub fn register(&mut self, service: EdgeService) -> Option<Rc<EdgeService>> {
        self.services.insert(service.addr, Rc::new(service))
    }

    /// Looks up the service registered at `addr`.
    pub fn get(&self, addr: ServiceAddr) -> Option<&EdgeService> {
        self.services.get(&addr).map(|rc| rc.as_ref())
    }

    /// Shared-handle lookup for hot paths: clones an `Rc`, never the
    /// underlying service definition.
    pub fn get_shared(&self, addr: ServiceAddr) -> Option<Rc<EdgeService>> {
        self.services.get(&addr).map(Rc::clone)
    }

    /// All registered services in address order.
    pub fn iter(&self) -> impl Iterator<Item = &EdgeService> {
        self.services.values().map(|rc| rc.as_ref())
    }

    /// Number of registered services.
    pub fn len(&self) -> usize {
        self.services.len()
    }

    /// `true` if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.services.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::addr::Ipv4Addr;

    fn service(ip: [u8; 4], port: u16, key: &str) -> EdgeService {
        let profile = containerd::ServiceSet::by_key(key).unwrap();
        EdgeService::from_profile(profile, ServiceAddr::new(Ipv4Addr(ip), port))
    }

    #[test]
    fn register_and_lookup() {
        let mut r = ServiceRegistry::new();
        assert!(r.is_empty());
        let svc = service([203, 0, 113, 10], 80, "nginx");
        let addr = svc.addr;
        assert!(r.register(svc).is_none());
        assert_eq!(r.get(addr).unwrap().profile.key, "nginx");
        assert_eq!(r.len(), 1);
        assert!(r.get(ServiceAddr::new(Ipv4Addr([203, 0, 113, 10]), 443)).is_none());
    }

    #[test]
    fn same_ip_different_port_are_distinct_services() {
        let mut r = ServiceRegistry::new();
        r.register(service([203, 0, 113, 10], 80, "nginx"));
        r.register(service([203, 0, 113, 10], 8501, "resnet"));
        assert_eq!(r.len(), 2);
        let keys: Vec<&str> = r.iter().map(|s| s.profile.key).collect();
        assert_eq!(keys, ["nginx", "resnet"]);
    }

    #[test]
    fn re_registration_replaces() {
        let mut r = ServiceRegistry::new();
        r.register(service([203, 0, 113, 10], 80, "nginx"));
        let old = r.register(service([203, 0, 113, 10], 80, "asm"));
        assert_eq!(old.unwrap().profile.key, "nginx");
        assert_eq!(r.get(ServiceAddr::new(Ipv4Addr([203, 0, 113, 10]), 80)).unwrap().profile.key, "asm");
    }
}
