//! The pod manager: the web application fronting a pod.
//!
//! Paper §III-A: "The Pod Manager is a web application that allows users to
//! retrieve, modify and control data that are stored in a Solid Pod. Thus,
//! the Pod Manager determines whether access can be granted by checking the
//! access control policies that are stored locally."
//!
//! Beyond plain Solid, this pod manager can also demand a *market payment
//! certificate* on reads by non-owners (paper §IV-4: the request "includes
//! a certificate that proves she has paid the market fee") — verification is
//! delegated to a [`CertificateVerifier`], implemented in production by the
//! DE App client over a pull-out oracle.

use std::collections::HashMap;

use duc_crypto::Digest;
use duc_policy::{AclDocument, AclMode, UsagePolicy};

use crate::pod::Pod;
use crate::protocol::{Body, Method, SolidRequest, SolidResponse, Status};
use crate::resource::{Resource, ResourceKind};

/// Checks market payment certificates.
pub trait CertificateVerifier {
    /// Whether `certificate` is currently valid for `webid`.
    fn verify(&self, certificate: &Digest, webid: &str) -> bool;
}

/// A verifier for pods that do not require payment (default).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NoCertificates;

impl CertificateVerifier for NoCertificates {
    fn verify(&self, _certificate: &Digest, _webid: &str) -> bool {
        true
    }
}

impl<F> CertificateVerifier for F
where
    F: Fn(&Digest, &str) -> bool,
{
    fn verify(&self, certificate: &Digest, webid: &str) -> bool {
        self(certificate, webid)
    }
}

/// The pod manager.
pub struct PodManager {
    pod: Pod,
    owner: String,
    acl: AclDocument,
    policies: HashMap<String, UsagePolicy>,
    require_certificate_for_reads: bool,
    /// Container members minted by POST so far. Member names count up from
    /// it and never reuse a number, whatever was deleted since.
    members_minted: u64,
}

impl std::fmt::Debug for PodManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PodManager")
            .field("root", &self.pod.root())
            .field("owner", &self.owner)
            .field("resources", &self.pod.len())
            .field("policies", &self.policies.len())
            .finish()
    }
}

impl PodManager {
    /// Creates a pod manager for a fresh pod (paper process 1 starts here):
    /// the owner gets full control over everything under the root.
    pub fn new(root: impl Into<String>, owner: impl Into<String>) -> PodManager {
        let root = root.into();
        let owner = owner.into();
        PodManager {
            acl: AclDocument::owner_default(owner.clone(), root.clone()),
            pod: Pod::new(root),
            owner,
            policies: HashMap::new(),
            require_certificate_for_reads: false,
            members_minted: 0,
        }
    }

    /// The pod owner's WebID.
    pub fn owner(&self) -> &str {
        &self.owner
    }

    /// The underlying pod (read access).
    pub fn pod(&self) -> &Pod {
        &self.pod
    }

    /// The ACL document.
    pub fn acl(&self) -> &AclDocument {
        &self.acl
    }

    /// Replaces the ACL (the caller is responsible for having checked
    /// Control rights; protocol-level ACL editing goes through `.acl`
    /// resources in real Solid, which this simulation does not model).
    pub fn set_acl(&mut self, acl: AclDocument) {
        self.acl = acl;
    }

    /// Demands market payment certificates for non-owner reads.
    pub fn set_require_certificate(&mut self, required: bool) {
        self.require_certificate_for_reads = required;
    }

    // ----------------------------------------------------------- policies

    /// Attaches a usage policy to a resource path (owner operation;
    /// the push-in oracle forwards it on-chain in process 2/5).
    pub fn set_policy(&mut self, path: impl Into<String>, policy: UsagePolicy) {
        self.policies.insert(path.into(), policy);
    }

    /// The usage policy for a path, if any.
    pub fn policy_for(&self, path: &str) -> Option<&UsagePolicy> {
        self.policies.get(path)
    }

    /// Amends the policy at `path` if `agent` is the owner; returns the new
    /// policy (version bumped) for on-chain propagation.
    ///
    /// # Errors
    /// `Err(Status::Forbidden)` when `agent` is not the pod owner,
    /// `Err(Status::NotFound)` when no policy exists at `path`.
    pub fn modify_policy(
        &mut self,
        agent: &str,
        path: &str,
        rules: Vec<duc_policy::Rule>,
        duties: Vec<duc_policy::Duty>,
    ) -> Result<UsagePolicy, Status> {
        if agent != self.owner {
            return Err(Status::Forbidden);
        }
        let current = self.policies.get(path).ok_or(Status::NotFound)?;
        let amended = current.amended(rules, duties);
        self.policies.insert(path.to_string(), amended.clone());
        Ok(amended)
    }

    // ----------------------------------------------------------- protocol

    /// Handles one Solid request.
    pub fn handle(&mut self, req: &SolidRequest) -> SolidResponse {
        self.handle_with_verifier(req, &NoCertificates)
    }

    /// Handles one Solid request, verifying payment certificates through
    /// `verifier` when this pod demands them.
    pub fn handle_with_verifier(
        &mut self,
        req: &SolidRequest,
        verifier: &dyn CertificateVerifier,
    ) -> SolidResponse {
        let required_mode = match req.method {
            Method::Get => AclMode::Read,
            Method::Put | Method::Delete => AclMode::Write,
            Method::Post => AclMode::Append,
        };
        let resource_iri = self.pod.iri_of(&req.path);
        let agent = req.agent.as_deref();
        if !self.acl.allows(agent, required_mode, &resource_iri) {
            return if agent.is_none() {
                SolidResponse::error(Status::Unauthorized, "authentication required")
            } else {
                SolidResponse::error(Status::Forbidden, "access denied by ACL")
            };
        }
        // Market-fee gate on non-owner reads.
        if req.method == Method::Get
            && self.require_certificate_for_reads
            && agent != Some(self.owner.as_str())
        {
            let webid = match agent {
                Some(w) => w,
                None => {
                    return SolidResponse::error(Status::Unauthorized, "authentication required")
                }
            };
            match &req.certificate {
                None => {
                    return SolidResponse::error(
                        Status::PaymentRequired,
                        "market certificate required",
                    )
                }
                Some(cert) if !verifier.verify(cert, webid) => {
                    return SolidResponse::error(
                        Status::PaymentRequired,
                        "market certificate invalid or expired",
                    )
                }
                Some(_) => {}
            }
        }
        match req.method {
            Method::Get => match self.pod.get(&req.path) {
                None => SolidResponse::status(Status::NotFound),
                Some(resource) => SolidResponse::ok(resource_body(resource)),
            },
            Method::Put => {
                let kind = match req.body.clone().into_resource_kind() {
                    Ok(kind) => kind,
                    Err(e) => return SolidResponse::error(Status::BadRequest, e),
                };
                let existed = self.pod.contains(&req.path);
                self.pod.put(req.path.clone(), kind);
                SolidResponse::status(if existed {
                    Status::NoContent
                } else {
                    Status::Created
                })
            }
            Method::Post => {
                let kind = match req.body.clone().into_resource_kind() {
                    Ok(kind) => kind,
                    Err(e) => return SolidResponse::error(Status::BadRequest, e),
                };
                // A name no resource holds: past every member minted, and
                // past any a PUT created under the same pattern.
                let member = loop {
                    self.members_minted += 1;
                    let name = format!("{}member-{}", req.path, self.members_minted);
                    if !self.pod.contains(&name) {
                        break name;
                    }
                };
                self.pod.put(member.clone(), kind);
                SolidResponse {
                    status: Status::Created,
                    body: Body::Text(member),
                    detail: None,
                }
            }
            Method::Delete => match self.pod.delete(&req.path) {
                Some(_) => SolidResponse::status(Status::NoContent),
                None => SolidResponse::status(Status::NotFound),
            },
        }
    }
}

fn resource_body(resource: &Resource) -> Body {
    match &resource.kind {
        ResourceKind::Rdf(graph) => Body::Turtle(duc_rdf::turtle::serialize(graph)),
        ResourceKind::Binary(bytes) => Body::Binary(bytes.clone()),
        ResourceKind::Text(text) => Body::Text(text.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duc_policy::{AgentSpec, Authorization};

    const OWNER: &str = "https://alice.id/me";
    const BOB: &str = "https://bob.id/me";

    fn pm() -> PodManager {
        let mut pm = PodManager::new("https://alice.pod/", OWNER);
        let resp = pm.handle(
            &SolidRequest::put(OWNER, "data/notes.txt").with_body(Body::Text("secret".into())),
        );
        assert_eq!(resp.status, Status::Created);
        pm
    }

    #[test]
    fn owner_full_crud() {
        let mut pm = pm();
        assert_eq!(
            pm.handle(&SolidRequest::get(OWNER, "data/notes.txt"))
                .status,
            Status::Ok
        );
        let resp = pm.handle(
            &SolidRequest::put(OWNER, "data/notes.txt").with_body(Body::Text("update".into())),
        );
        assert_eq!(resp.status, Status::NoContent);
        assert_eq!(
            pm.handle(&SolidRequest::delete(OWNER, "data/notes.txt"))
                .status,
            Status::NoContent
        );
        assert_eq!(
            pm.handle(&SolidRequest::get(OWNER, "data/notes.txt"))
                .status,
            Status::NotFound
        );
    }

    #[test]
    fn default_acl_denies_strangers() {
        let mut pm = pm();
        assert_eq!(
            pm.handle(&SolidRequest::get(BOB, "data/notes.txt")).status,
            Status::Forbidden
        );
        assert_eq!(
            pm.handle(&SolidRequest::get_anonymous("data/notes.txt"))
                .status,
            Status::Unauthorized
        );
        assert_eq!(
            pm.handle(&SolidRequest::put(BOB, "data/evil.txt").with_body(Body::Text("x".into())))
                .status,
            Status::Forbidden
        );
    }

    #[test]
    fn granting_read_access_works() {
        let mut pm = pm();
        let mut acl = pm.acl().clone();
        acl.push(Authorization::for_resource(
            "bob-read",
            "https://alice.pod/data/notes.txt",
            vec![AgentSpec::Agent(BOB.into())],
            vec![AclMode::Read],
        ));
        pm.set_acl(acl);
        assert_eq!(
            pm.handle(&SolidRequest::get(BOB, "data/notes.txt")).status,
            Status::Ok
        );
        // Still no write.
        assert_eq!(
            pm.handle(&SolidRequest::put(BOB, "data/notes.txt").with_body(Body::Text("x".into())))
                .status,
            Status::Forbidden
        );
    }

    #[test]
    fn certificate_gate_on_reads() {
        let mut pm = pm();
        let mut acl = pm.acl().clone();
        acl.push(Authorization::for_resource(
            "readers",
            "https://alice.pod/data/notes.txt",
            vec![AgentSpec::AuthenticatedAgent],
            vec![AclMode::Read],
        ));
        pm.set_acl(acl);
        pm.set_require_certificate(true);

        // No certificate → 402.
        assert_eq!(
            pm.handle(&SolidRequest::get(BOB, "data/notes.txt")).status,
            Status::PaymentRequired
        );
        // Bad certificate per verifier → 402.
        let reject_all = |_: &Digest, _: &str| false;
        let req =
            SolidRequest::get(BOB, "data/notes.txt").with_certificate(duc_crypto::sha256(b"c"));
        assert_eq!(
            pm.handle_with_verifier(&req, &reject_all).status,
            Status::PaymentRequired
        );
        // Valid certificate → 200.
        let accept_bob = |_: &Digest, webid: &str| webid == BOB;
        assert_eq!(
            pm.handle_with_verifier(&req, &accept_bob).status,
            Status::Ok
        );
        // The owner never needs a certificate.
        assert_eq!(
            pm.handle(&SolidRequest::get(OWNER, "data/notes.txt"))
                .status,
            Status::Ok
        );
    }

    #[test]
    fn put_rejects_malformed_turtle() {
        let mut pm = pm();
        let resp = pm.handle(
            &SolidRequest::put(OWNER, "data/bad.ttl").with_body(Body::Turtle("@@@".into())),
        );
        assert_eq!(resp.status, Status::BadRequest);
        assert!(resp.detail.is_some());
    }

    #[test]
    fn post_creates_container_members() {
        let mut pm = pm();
        let resp = pm.handle(&SolidRequest {
            agent: Some(OWNER.into()),
            method: Method::Post,
            path: "inbox/".into(),
            body: Body::Text("msg".into()),
            certificate: None,
        });
        assert_eq!(resp.status, Status::Created);
        match resp.body {
            Body::Text(member) => assert!(member.starts_with("inbox/member-")),
            other => panic!("expected member path, got {other:?}"),
        }
    }

    fn post(pm: &mut PodManager, container: &str, text: &str) -> SolidResponse {
        pm.handle(&SolidRequest {
            agent: Some(OWNER.into()),
            method: Method::Post,
            path: container.into(),
            body: Body::Text(text.into()),
            certificate: None,
        })
    }

    /// A member name is never handed out twice: deleting any resource
    /// shrinks the pod, and a name derived from its size would land on a
    /// live member and overwrite it.
    #[test]
    fn post_after_a_delete_never_overwrites_a_member() {
        let mut pm = pm();
        let member = |resp: SolidResponse| match resp.body {
            Body::Text(member) => member,
            other => panic!("expected member path, got {other:?}"),
        };
        let first = member(post(&mut pm, "c/", "first"));
        let second = member(post(&mut pm, "c/", "second"));
        assert_eq!(
            (first.as_str(), second.as_str()),
            ("c/member-1", "c/member-2")
        );
        assert_eq!(
            pm.handle(&SolidRequest::delete(OWNER, "data/notes.txt"))
                .status,
            Status::NoContent
        );
        let third = post(&mut pm, "c/", "third");
        assert_eq!(third.status, Status::Created);
        assert_eq!(member(third), "c/member-3");
        let kept = pm.pod().get("c/member-2").expect("still there");
        assert_eq!(
            (&kept.kind, kept.version),
            (&ResourceKind::Text("second".into()), 1)
        );
        // A PUT may take the next name in the pattern; POST steps past it.
        pm.handle(&SolidRequest::put(OWNER, "c/member-4").with_body(Body::Text("put".into())));
        assert_eq!(member(post(&mut pm, "c/", "fifth")), "c/member-5");
        assert_eq!(pm.pod().list("c/").len(), 5);
    }

    #[test]
    fn policy_store_and_owner_modification() {
        let mut pm = pm();
        let policy = UsagePolicy::default_for("https://alice.pod/data/notes.txt", OWNER);
        pm.set_policy("data/notes.txt", policy.clone());
        assert_eq!(pm.policy_for("data/notes.txt"), Some(&policy));

        // Non-owner cannot modify.
        assert_eq!(
            pm.modify_policy(BOB, "data/notes.txt", vec![], vec![]),
            Err(Status::Forbidden)
        );
        // Owner modification bumps version.
        let amended = pm
            .modify_policy(OWNER, "data/notes.txt", vec![], vec![])
            .unwrap();
        assert_eq!(amended.version, policy.version + 1);
        assert_eq!(
            pm.policy_for("data/notes.txt").unwrap().version,
            amended.version
        );
        // Unknown path.
        assert_eq!(
            pm.modify_policy(OWNER, "nope", vec![], vec![]),
            Err(Status::NotFound)
        );
    }

    #[test]
    fn rdf_resources_roundtrip_through_protocol() {
        let mut pm = pm();
        let turtle = "@prefix foaf: <http://xmlns.com/foaf/0.1/> .\n<https://alice.id/me> foaf:name \"Alice\" .\n";
        let resp = pm.handle(
            &SolidRequest::put(OWNER, "profile/card.ttl").with_body(Body::Turtle(turtle.into())),
        );
        assert_eq!(resp.status, Status::Created);
        let got = pm.handle(&SolidRequest::get(OWNER, "profile/card.ttl"));
        match got.body {
            Body::Turtle(text) => {
                let g = duc_rdf::turtle::parse(&text).unwrap();
                assert_eq!(g.len(), 1);
            }
            other => panic!("expected turtle, got {other:?}"),
        }
    }
}
