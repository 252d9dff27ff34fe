//! Automated annotation of service definition files (Section V).
//!
//! Each edge service is defined in a YAML file using the established
//! *Kubernetes Deployment* format; the same definition drives both Docker and
//! Kubernetes clusters. Only the image name is mandatory — the annotation
//! engine supplies everything else:
//!
//! 1. a **unique worldwide name** derived from the registered service
//!    address (developers testing locally tend to forget global uniqueness);
//! 2. the `matchLabels` Kubernetes requires, plus an **`edge.service`**
//!    label so the controller can address and query its services distinctly;
//! 3. **`replicas: 0`** — services are created scaled-to-zero and scaled up
//!    on demand;
//! 4. the **`schedulerName`** when a Local Scheduler is configured for the
//!    cluster;
//! 5. a generated **`Service`** object (unless the developer provided one)
//!    carrying the exposed port, target port and `TCP` protocol.

use containerd::ContainerSpec;
use netsim::ServiceAddr;
use registry::ImageRef;
use std::rc::Rc;
use yamlite::Value;

/// The label key the controller uses to address its services.
pub(crate) const EDGE_SERVICE_LABEL: &str = "edge.service";

/// Errors from annotating a definition file.
#[derive(Clone, Debug, PartialEq)]
pub enum AnnotateError {
    /// The YAML failed to parse.
    Yaml(yamlite::ParseError),
    /// No container with an image was found (the image is the only mandatory
    /// field).
    MissingImage,
    /// The document is not shaped like a Deployment (mapping expected).
    NotADeployment,
    /// More than two documents, or unexpected extra document kinds.
    UnexpectedDocuments(usize),
}

impl std::fmt::Display for AnnotateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnnotateError::Yaml(e) => write!(f, "{e}"),
            AnnotateError::MissingImage => write!(f, "service definition has no container image"),
            AnnotateError::NotADeployment => write!(f, "definition is not a Deployment mapping"),
            AnnotateError::UnexpectedDocuments(n) => {
                write!(f, "expected 1-2 YAML documents (Deployment [+ Service]), found {n}")
            }
        }
    }
}

impl std::error::Error for AnnotateError {}

impl From<yamlite::ParseError> for AnnotateError {
    fn from(e: yamlite::ParseError) -> Self {
        AnnotateError::Yaml(e)
    }
}

/// The annotation output: the rewritten Deployment, the (possibly generated)
/// Service, and the parsed container specs shared by both cluster types.
#[derive(Clone, Debug)]
pub struct AnnotatedService {
    /// The unique worldwide service name.
    pub service_name: String,
    /// The label value identifying this service (`<ip>_<port>`).
    pub edge_label: String,
    /// Annotated Deployment document.
    pub deployment: Value,
    /// Service document (generated if absent in the input).
    pub service: Value,
    /// Parsed container specs (subset understood by Docker too: image,
    /// ports, env, hostPath volume mounts), shared with every container and
    /// pod template created from them.
    pub containers: Vec<Rc<ContainerSpec>>,
    /// The port the service exposes (the registered port).
    pub port: u16,
    /// The container port traffic is forwarded to.
    pub target_port: u16,
}

impl AnnotatedService {
    /// Renders both documents back to a multi-document YAML stream.
    pub fn to_yaml(&self) -> String {
        format!(
            "---\n{}---\n{}",
            yamlite::to_string(&self.deployment),
            yamlite::to_string(&self.service)
        )
    }
}

/// Derives the unique worldwide name from the registered address.
pub(crate) fn unique_name(addr: ServiceAddr) -> String {
    let o = addr.ip.octets();
    format!("edge-{}-{}-{}-{}-{}", o[0], o[1], o[2], o[3], addr.port)
}

/// Label value for `edge.service` (label-charset-safe form of the address).
pub(crate) fn edge_label_value(addr: ServiceAddr) -> String {
    format!("{}_{}", addr.ip, addr.port)
}

/// Annotates a service definition for deployment at `addr`. `scheduler_name`
/// is the configured Local Scheduler for the target cluster, if any.
pub fn annotate_deployment(
    yaml: &str,
    addr: ServiceAddr,
    scheduler_name: Option<&str>,
) -> Result<AnnotatedService, AnnotateError> {
    let docs = yamlite::parse_documents(yaml)?;
    let (mut deployment, provided_service) = split_documents(docs)?;
    if !matches!(deployment, Value::Map(_)) {
        return Err(AnnotateError::NotADeployment);
    }

    let name = unique_name(addr);
    let label = edge_label_value(addr);

    // apiVersion/kind for bare definitions.
    if !deployment.contains_key("apiVersion") {
        deployment.insert("apiVersion", Value::from("apps/v1"));
    }
    if !deployment.contains_key("kind") {
        deployment.insert("kind", Value::from("Deployment"));
    }

    // 1. Unique worldwide name.
    deployment.entry_map("metadata").insert("name", Value::from(name.clone()));

    // 2. Labels: app + edge.service, applied to the deployment, the
    //    selector, and the pod template.
    let mut labels = Value::new_map();
    labels.insert("app", Value::from(name.clone()));
    labels.insert(EDGE_SERVICE_LABEL, Value::from(label.clone()));
    deployment
        .entry_map("metadata")
        .insert("labels", labels.clone());
    deployment
        .entry_map("spec")
        .entry_map("selector")
        .insert("matchLabels", labels.clone());
    deployment
        .entry_map("spec")
        .entry_map("template")
        .entry_map("metadata")
        .insert("labels", labels.clone());

    // 3. Scale to zero by default.
    deployment.entry_map("spec").insert("replicas", Value::Int(0));

    // 4. Local Scheduler, when configured for this cluster.
    if let Some(s) = scheduler_name {
        deployment
            .entry_map("spec")
            .entry_map("template")
            .entry_map("spec")
            .insert("schedulerName", Value::from(s));
    }

    // Parse containers (image is the only mandatory datum).
    let containers = parse_containers(&deployment, &name, &label)?;
    let target_port = containers
        .iter()
        .find_map(|c| c.listen_port)
        .unwrap_or(addr.port);

    // 5. The Service object: generated unless provided.
    let service = match provided_service {
        Some(mut svc) => {
            svc.entry_map("metadata").insert("name", Value::from(name.clone()));
            if !svc.entry_map("spec").contains_key("selector") {
                svc.entry_map("spec").insert("selector", labels.clone());
            }
            svc
        }
        None => generate_service(&name, &labels, addr.port, target_port),
    };

    Ok(AnnotatedService {
        service_name: name,
        edge_label: label,
        deployment,
        service,
        containers,
        port: addr.port,
        target_port,
    })
}

fn split_documents(docs: Vec<Value>) -> Result<(Value, Option<Value>), AnnotateError> {
    match docs.len() {
        1 => {
            let mut it = docs.into_iter();
            Ok((it.next().expect("len checked"), None))
        }
        2 => {
            let mut deployment = None;
            let mut service = None;
            for d in docs {
                match d["kind"].as_str() {
                    Some("Service") => service = Some(d),
                    _ => deployment = Some(d),
                }
            }
            let deployment = deployment.ok_or(AnnotateError::NotADeployment)?;
            Ok((deployment, service))
        }
        n => Err(AnnotateError::UnexpectedDocuments(n)),
    }
}

fn generate_service(name: &str, labels: &Value, port: u16, target_port: u16) -> Value {
    let mut ports_entry = Value::new_map();
    ports_entry.insert("port", Value::Int(port as i64));
    ports_entry.insert("targetPort", Value::Int(target_port as i64));
    ports_entry.insert("protocol", Value::from("TCP"));

    let mut spec = Value::new_map();
    spec.insert("selector", labels.clone());
    spec.insert("ports", Value::Seq(vec![ports_entry]));

    let mut meta = Value::new_map();
    meta.insert("name", Value::from(name));
    meta.insert("labels", labels.clone());

    let mut svc = Value::new_map();
    svc.insert("apiVersion", Value::from("v1"));
    svc.insert("kind", Value::from("Service"));
    svc.insert("metadata", meta);
    svc.insert("spec", spec);
    svc
}

/// Extracts the container subset both cluster types understand: name, image
/// and first container port. Other container values (env, volume mounts,
/// resources) are accepted and ignored: nothing in the simulation reads them.
fn parse_containers(
    deployment: &Value,
    name: &str,
    label: &str,
) -> Result<Vec<Rc<ContainerSpec>>, AnnotateError> {
    let containers = deployment
        .path("spec/template/spec/containers")
        .and_then(Value::as_seq)
        .ok_or(AnnotateError::MissingImage)?;
    if containers.is_empty() {
        return Err(AnnotateError::MissingImage);
    }

    let mut out = Vec::with_capacity(containers.len());
    for (i, c) in containers.iter().enumerate() {
        let image = c["image"].as_str().ok_or(AnnotateError::MissingImage)?;
        let cname = c["name"]
            .as_str()
            .map(str::to_owned)
            .unwrap_or_else(|| format!("{name}-c{i}"));
        let listen_port = c["ports"][0]["containerPort"]
            .as_i64()
            .and_then(|p| u16::try_from(p).ok());
        let spec = ContainerSpec::new(
            format!("{name}-{cname}"),
            ImageRef::parse(image),
            listen_port,
        )
        .with_label(EDGE_SERVICE_LABEL, label);
        out.push(Rc::new(spec));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::addr::Ipv4Addr;

    fn addr() -> ServiceAddr {
        ServiceAddr::new(Ipv4Addr::new(203, 0, 113, 10), 80)
    }

    const MINIMAL: &str = "
spec:
  template:
    spec:
      containers:
        - name: web
          image: nginx:1.23.2
          ports:
            - containerPort: 8080
";

    #[test]
    fn minimal_definition_gets_fully_annotated() {
        let a = annotate_deployment(MINIMAL, addr(), Some("edge-pack-scheduler")).unwrap();
        assert_eq!(a.service_name, "edge-203-0-113-10-80");
        assert_eq!(a.edge_label, "203.0.113.10_80");
        let d = &a.deployment;
        assert_eq!(d["apiVersion"].as_str(), Some("apps/v1"));
        assert_eq!(d["kind"].as_str(), Some("Deployment"));
        assert_eq!(d["metadata"]["name"].as_str(), Some("edge-203-0-113-10-80"));
        assert_eq!(d["spec"]["replicas"].as_i64(), Some(0), "scale to zero");
        assert_eq!(
            d["metadata"]["labels"][EDGE_SERVICE_LABEL].as_str(),
            Some("203.0.113.10_80")
        );
        assert_eq!(
            d["spec"]["selector"]["matchLabels"]["app"].as_str(),
            Some("edge-203-0-113-10-80")
        );
        assert_eq!(
            d["spec"]["template"]["metadata"]["labels"][EDGE_SERVICE_LABEL].as_str(),
            Some("203.0.113.10_80")
        );
        assert_eq!(
            d["spec"]["template"]["spec"]["schedulerName"].as_str(),
            Some("edge-pack-scheduler")
        );
    }

    #[test]
    fn service_is_generated_with_ports() {
        let a = annotate_deployment(MINIMAL, addr(), None).unwrap();
        let s = &a.service;
        assert_eq!(s["kind"].as_str(), Some("Service"));
        assert_eq!(s["metadata"]["name"].as_str(), Some("edge-203-0-113-10-80"));
        assert_eq!(s["spec"]["ports"][0]["port"].as_i64(), Some(80));
        assert_eq!(s["spec"]["ports"][0]["targetPort"].as_i64(), Some(8080));
        assert_eq!(s["spec"]["ports"][0]["protocol"].as_str(), Some("TCP"));
        assert_eq!(
            s["spec"]["selector"][EDGE_SERVICE_LABEL].as_str(),
            Some("203.0.113.10_80")
        );
        assert_eq!(a.port, 80);
        assert_eq!(a.target_port, 8080);
    }

    #[test]
    fn containers_are_parsed_for_docker_too() {
        let yaml = "
spec:
  template:
    spec:
      containers:
        - name: web
          image: nginx:1.23.2
          ports:
            - containerPort: 80
          env:
            - name: MODE
              value: edge
          volumeMounts:
            - name: content
              mountPath: /usr/share/nginx/html
      volumes:
        - name: content
          hostPath:
            path: /srv/edge/content
";
        let a = annotate_deployment(yaml, addr(), None).unwrap();
        assert_eq!(a.containers.len(), 1);
        let c = &a.containers[0];
        assert_eq!(c.image.to_string(), "docker.io/nginx:1.23.2");
        assert_eq!(c.listen_port, Some(80));
        assert_eq!(c.labels[EDGE_SERVICE_LABEL], "203.0.113.10_80");
    }

    #[test]
    fn image_only_definition_is_enough() {
        let yaml = "
spec:
  template:
    spec:
      containers:
        - image: josefhammer/web-asm:amd64
";
        let a = annotate_deployment(yaml, addr(), None).unwrap();
        assert_eq!(a.containers.len(), 1);
        // No containerPort given: the registered port is the target.
        assert_eq!(a.target_port, 80);
        assert!(a.containers[0].name.starts_with("edge-203-0-113-10-80-"));
    }

    #[test]
    fn missing_image_is_an_error() {
        assert_eq!(
            annotate_deployment("spec:\n  replicas: 3\n", addr(), None).unwrap_err(),
            AnnotateError::MissingImage
        );
        let no_image = "
spec:
  template:
    spec:
      containers:
        - name: web
";
        assert_eq!(
            annotate_deployment(no_image, addr(), None).unwrap_err(),
            AnnotateError::MissingImage
        );
    }

    #[test]
    fn bad_yaml_is_reported() {
        assert!(matches!(
            annotate_deployment("a: [unclosed", addr(), None),
            Err(AnnotateError::Yaml(_))
        ));
        assert!(matches!(
            annotate_deployment("just a scalar", addr(), None),
            Err(AnnotateError::NotADeployment)
        ));
    }

    #[test]
    fn provided_service_is_kept_but_renamed() {
        let yaml = format!(
            "{MINIMAL}---\nkind: Service\nmetadata:\n  name: my-svc\nspec:\n  ports:\n    - port: 80\n      targetPort: 8080\n"
        );
        let a = annotate_deployment(&yaml, addr(), None).unwrap();
        assert_eq!(a.service["metadata"]["name"].as_str(), Some("edge-203-0-113-10-80"));
        // Selector injected because the user omitted it.
        assert_eq!(
            a.service["spec"]["selector"][EDGE_SERVICE_LABEL].as_str(),
            Some("203.0.113.10_80")
        );
        // User's ports preserved.
        assert_eq!(a.service["spec"]["ports"][0]["targetPort"].as_i64(), Some(8080));
    }

    #[test]
    fn three_documents_rejected() {
        let yaml = format!("{MINIMAL}---\nkind: Service\n---\nkind: ConfigMap\n");
        assert_eq!(
            annotate_deployment(&yaml, addr(), None).unwrap_err(),
            AnnotateError::UnexpectedDocuments(3)
        );
    }

    #[test]
    fn annotated_yaml_roundtrips() {
        let a = annotate_deployment(MINIMAL, addr(), Some("s")).unwrap();
        let text = a.to_yaml();
        let docs = yamlite::parse_documents(&text).unwrap();
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[0], a.deployment);
        assert_eq!(docs[1], a.service);
    }

    #[test]
    fn unique_names_differ_by_address() {
        let a = unique_name(ServiceAddr::new(Ipv4Addr::new(1, 2, 3, 4), 80));
        let b = unique_name(ServiceAddr::new(Ipv4Addr::new(1, 2, 3, 4), 81));
        let c = unique_name(ServiceAddr::new(Ipv4Addr::new(1, 2, 3, 5), 80));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
