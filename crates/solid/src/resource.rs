//! Resources stored in a pod.

use duc_rdf::{turtle, Graph};

/// The content of a resource.
#[derive(Debug, Clone, PartialEq)]
pub enum ResourceKind {
    /// An RDF document (held as a graph; serialized as Turtle on the wire).
    /// Boxed, so a pod's binary and text resources do not pay for a graph's
    /// inline size: a `Resource` is 64 bytes, not 224.
    Rdf(Box<Graph>),
    /// Opaque bytes (datasets, media).
    Binary(Vec<u8>),
    /// Plain text.
    Text(String),
}

/// A pod resource: content plus bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct Resource {
    /// Path relative to the pod root (e.g. `data/medical.ttl`).
    pub path: String,
    /// The content.
    pub kind: ResourceKind,
    /// Version counter, bumped on every write.
    pub version: u64,
}

impl Resource {
    /// Creates a version-1 resource.
    pub fn new(path: impl Into<String>, kind: ResourceKind) -> Resource {
        Resource {
            path: path.into(),
            kind,
            version: 1,
        }
    }

    /// An RDF resource from a graph.
    pub fn rdf(path: impl Into<String>, graph: Graph) -> Resource {
        Resource::new(path, ResourceKind::Rdf(Box::new(graph)))
    }

    /// A binary resource.
    pub fn binary(path: impl Into<String>, bytes: Vec<u8>) -> Resource {
        Resource::new(path, ResourceKind::Binary(bytes))
    }

    /// A text resource.
    pub fn text(path: impl Into<String>, text: impl Into<String>) -> Resource {
        Resource::new(path, ResourceKind::Text(text.into()))
    }

    /// The wire representation (Turtle for RDF).
    pub fn to_bytes(&self) -> Vec<u8> {
        match &self.kind {
            ResourceKind::Rdf(graph) => turtle::serialize(graph).into_bytes(),
            ResourceKind::Binary(bytes) => bytes.clone(),
            ResourceKind::Text(text) => text.clone().into_bytes(),
        }
    }

    /// The content size in bytes (network/bandwidth modelling).
    pub fn size(&self) -> usize {
        match &self.kind {
            ResourceKind::Rdf(graph) => turtle::serialize(graph).len(),
            ResourceKind::Binary(bytes) => bytes.len(),
            ResourceKind::Text(text) => text.len(),
        }
    }

    /// The media type served with the content.
    pub fn content_type(&self) -> &'static str {
        match &self.kind {
            ResourceKind::Rdf(_) => "text/turtle",
            ResourceKind::Binary(_) => "application/octet-stream",
            ResourceKind::Text(_) => "text/plain",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duc_rdf::{Iri, Term, Triple};

    #[test]
    fn constructors_and_sizes() {
        let text = Resource::text("a.txt", "hello");
        assert_eq!(text.size(), 5);
        assert_eq!(text.content_type(), "text/plain");
        assert_eq!(text.version, 1);

        let bin = Resource::binary("b.bin", vec![0u8; 42]);
        assert_eq!(bin.size(), 42);
        assert_eq!(bin.content_type(), "application/octet-stream");
    }

    #[test]
    fn rdf_resources_serialize_as_turtle() {
        let mut g = Graph::new();
        g.insert(Triple::new(
            Term::iri("urn:s"),
            Iri::new("urn:p").unwrap(),
            Term::literal_str("v"),
        ));
        let r = Resource::rdf("profile.ttl", g.clone());
        assert_eq!(r.content_type(), "text/turtle");
        let text = String::from_utf8(r.to_bytes()).unwrap();
        let reparsed = duc_rdf::turtle::parse(&text).unwrap();
        assert!(reparsed.is_isomorphic_simple(&g));
        assert_eq!(r.size(), text.len());
    }
}
