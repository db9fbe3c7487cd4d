//! # duc-solid — the Solid substrate
//!
//! Solid personal online datastores (pods) and the pod manager that fronts
//! them (paper §III-A). A pod is a path-addressed tree of RDF and binary
//! resources; the pod manager is the web application that mediates every
//! request: it authenticates the agent (WebID), consults the WAC ACL
//! ([`duc_policy::acl`]), optionally demands a market payment certificate,
//! and serves or mutates resources.
//!
//! The pod manager also keeps the pod-local *usage policy* store — the
//! source documents that the push-in oracle forwards to the DE App.
//!
//! ## Example
//! ```
//! use duc_solid::prelude::*;
//!
//! let mut pm = PodManager::new("https://alice.pod/", "https://alice.id/me");
//! let req = SolidRequest::put("https://alice.id/me", "data/notes.txt")
//!     .with_body(Body::Text("hello".into()));
//! assert_eq!(pm.handle(&req).status, Status::Created);
//! let got = pm.handle(&SolidRequest::get("https://alice.id/me", "data/notes.txt"));
//! assert_eq!(got.status, Status::Ok);
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod pod;
pub mod pod_manager;
pub mod protocol;
pub mod resource;

pub use pod::Pod;
pub use pod_manager::{CertificateVerifier, PodManager};
pub use protocol::{Body, Method, SolidRequest, SolidResponse, Status};
pub use resource::{Resource, ResourceKind};

/// Common imports.
pub mod prelude {
    pub use crate::pod::Pod;
    pub use crate::pod_manager::{CertificateVerifier, PodManager};
    pub use crate::protocol::{Body, Method, SolidRequest, SolidResponse, Status};
    pub use crate::resource::{Resource, ResourceKind};
}
