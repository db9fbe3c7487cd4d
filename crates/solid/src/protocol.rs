//! The Solid protocol surface: HTTP-shaped requests and responses.

use duc_crypto::Digest;

use crate::resource::ResourceKind;

/// Request method (the subset of HTTP that Solid CRUD uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Read a resource.
    Get,
    /// Create or replace a resource.
    Put,
    /// Append to a container.
    Post,
    /// Remove a resource.
    Delete,
}

/// Request/response body.
#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    /// No content.
    Empty,
    /// Turtle text (parsed into a graph by the pod manager on PUT).
    Turtle(String),
    /// Opaque bytes.
    Binary(Vec<u8>),
    /// Plain text.
    Text(String),
}

impl Body {
    /// Converts to stored resource content.
    ///
    /// # Errors
    /// Returns the Turtle parse error message for malformed RDF bodies.
    pub fn into_resource_kind(self) -> Result<ResourceKind, String> {
        match self {
            Body::Empty => Ok(ResourceKind::Binary(Vec::new())),
            Body::Turtle(text) => duc_rdf::turtle::parse(&text)
                .map(|graph| ResourceKind::Rdf(Box::new(graph)))
                .map_err(|e| e.to_string()),
            Body::Binary(bytes) => Ok(ResourceKind::Binary(bytes)),
            Body::Text(text) => Ok(ResourceKind::Text(text)),
        }
    }

    /// Body size in bytes (network modelling).
    pub fn size(&self) -> usize {
        match self {
            Body::Empty => 0,
            Body::Turtle(t) | Body::Text(t) => t.len(),
            Body::Binary(b) => b.len(),
        }
    }
}

/// A request to a pod manager.
#[derive(Debug, Clone, PartialEq)]
pub struct SolidRequest {
    /// Authenticated WebID (`None` = anonymous).
    pub agent: Option<String>,
    /// Method.
    pub method: Method,
    /// Path relative to the pod root.
    pub path: String,
    /// Body (for PUT/POST).
    pub body: Body,
    /// Market payment certificate, when the pod demands one.
    pub certificate: Option<Digest>,
}

impl SolidRequest {
    /// A GET from an authenticated agent.
    pub fn get(agent: impl Into<String>, path: impl Into<String>) -> SolidRequest {
        SolidRequest {
            agent: Some(agent.into()),
            method: Method::Get,
            path: path.into(),
            body: Body::Empty,
            certificate: None,
        }
    }

    /// A PUT from an authenticated agent.
    pub fn put(agent: impl Into<String>, path: impl Into<String>) -> SolidRequest {
        SolidRequest {
            agent: Some(agent.into()),
            method: Method::Put,
            path: path.into(),
            body: Body::Empty,
            certificate: None,
        }
    }

    /// A DELETE from an authenticated agent.
    pub fn delete(agent: impl Into<String>, path: impl Into<String>) -> SolidRequest {
        SolidRequest {
            agent: Some(agent.into()),
            method: Method::Delete,
            path: path.into(),
            body: Body::Empty,
            certificate: None,
        }
    }

    /// Attaches a body.
    pub fn with_body(mut self, body: Body) -> SolidRequest {
        self.body = body;
        self
    }

    /// Attaches a payment certificate.
    pub fn with_certificate(mut self, cert: Digest) -> SolidRequest {
        self.certificate = Some(cert);
        self
    }

    /// Approximate wire size (for the network model).
    pub fn size(&self) -> usize {
        64 + self.path.len() + self.body.size()
    }
}

/// Response status (HTTP-flavoured).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// 200.
    Ok,
    /// 201.
    Created,
    /// 204.
    NoContent,
    /// 400.
    BadRequest,
    /// 401 — authentication required.
    Unauthorized,
    /// 402 — payment certificate missing or invalid.
    PaymentRequired,
    /// 403 — ACL denies.
    Forbidden,
    /// 404.
    NotFound,
}

impl Status {
    /// Whether the status signals success.
    pub fn is_success(self) -> bool {
        matches!(self, Status::Ok | Status::Created | Status::NoContent)
    }
}

/// A pod manager's response.
#[derive(Debug, Clone, PartialEq)]
pub struct SolidResponse {
    /// Outcome.
    pub status: Status,
    /// Response body.
    pub body: Body,
    /// Machine-readable detail on failures.
    pub detail: Option<String>,
}

impl SolidResponse {
    /// A success with a body.
    pub fn ok(body: Body) -> SolidResponse {
        SolidResponse {
            status: Status::Ok,
            body,
            detail: None,
        }
    }

    /// A bodyless status.
    pub fn status(status: Status) -> SolidResponse {
        SolidResponse {
            status,
            body: Body::Empty,
            detail: None,
        }
    }

    /// A failure with detail.
    pub fn error(status: Status, detail: impl Into<String>) -> SolidResponse {
        SolidResponse {
            status,
            body: Body::Empty,
            detail: Some(detail.into()),
        }
    }

    /// Approximate wire size (for the network model).
    pub fn size(&self) -> usize {
        32 + self.body.size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SolidRequest {
        /// An anonymous GET.
        pub(crate) fn get_anonymous(path: impl Into<String>) -> SolidRequest {
            SolidRequest {
                agent: None,
                method: Method::Get,
                path: path.into(),
                body: Body::Empty,
                certificate: None,
            }
        }
    }

    #[test]
    fn builders_fill_fields() {
        let r = SolidRequest::get("urn:alice", "data/x").with_certificate(duc_crypto::sha256(b"c"));
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.agent.as_deref(), Some("urn:alice"));
        assert!(r.certificate.is_some());
        let anon = SolidRequest::get_anonymous("x");
        assert!(anon.agent.is_none());
    }

    #[test]
    fn body_conversion() {
        assert_eq!(
            Body::Text("t".into()).into_resource_kind().unwrap(),
            ResourceKind::Text("t".into())
        );
        assert!(matches!(
            Body::Turtle("<urn:s> <urn:p> <urn:o> .".into()).into_resource_kind(),
            Ok(ResourceKind::Rdf(_))
        ));
        assert!(Body::Turtle("not turtle @@@".into())
            .into_resource_kind()
            .is_err());
        assert_eq!(Body::Empty.size(), 0);
        assert_eq!(Body::Binary(vec![0; 9]).size(), 9);
    }

    #[test]
    fn status_success_classes() {
        assert!(Status::Ok.is_success());
        assert!(Status::Created.is_success());
        assert!(!Status::Forbidden.is_success());
        assert!(!Status::PaymentRequired.is_success());
    }

    #[test]
    fn sizes_are_positive() {
        assert!(SolidRequest::get("a", "p").size() > 0);
        assert!(SolidResponse::ok(Body::Text("x".into())).size() > 32);
    }
}
