//! W3C Web Access Control (WAC) — Solid's native *access* control layer.
//!
//! A pod manager consults an [`AclDocument`] before serving any request
//! (paper §III-A: "the Pod Manager determines whether access can be granted
//! by checking the access control policies that are stored locally"). Usage
//! control (this crate's [`crate::model`]) takes over *after* the data has
//! left the pod.

use duc_codec::{Decode, DecodeError, Encode, Reader};
use duc_rdf::vocab::{acl, foaf_agent, rdf};
use duc_rdf::{Graph, Iri, Term, Triple};

use crate::PolicyError;

/// A WAC access mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AclMode {
    /// Read resource content.
    Read,
    /// Replace resource content.
    Write,
    /// Add to (but not rewrite) resource content.
    Append,
    /// Read/modify the ACL itself.
    Control,
}

impl AclMode {
    /// All modes, for iteration.
    pub const ALL: [AclMode; 4] = [
        AclMode::Read,
        AclMode::Write,
        AclMode::Append,
        AclMode::Control,
    ];

    fn to_iri(self) -> Iri {
        match self {
            AclMode::Read => acl::read(),
            AclMode::Write => acl::write(),
            AclMode::Append => acl::append(),
            AclMode::Control => acl::control(),
        }
    }

    fn from_iri(iri: &Iri) -> Option<AclMode> {
        if *iri == acl::read() {
            Some(AclMode::Read)
        } else if *iri == acl::write() {
            Some(AclMode::Write)
        } else if *iri == acl::append() {
            Some(AclMode::Append)
        } else if *iri == acl::control() {
            Some(AclMode::Control)
        } else {
            None
        }
    }

    /// Whether holding `self` implies `requested` (Write implies Append).
    pub fn implies(self, requested: AclMode) -> bool {
        self == requested || (self == AclMode::Write && requested == AclMode::Append)
    }
}

impl Encode for AclMode {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(match self {
            AclMode::Read => 0,
            AclMode::Write => 1,
            AclMode::Append => 2,
            AclMode::Control => 3,
        });
    }
}

impl Decode for AclMode {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.read_u8()? {
            0 => AclMode::Read,
            1 => AclMode::Write,
            2 => AclMode::Append,
            3 => AclMode::Control,
            tag => {
                return Err(DecodeError::InvalidTag {
                    tag,
                    type_name: "AclMode",
                })
            }
        })
    }
}

/// Who an authorization applies to.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AgentSpec {
    /// A specific WebID.
    Agent(String),
    /// Any authenticated agent (`acl:AuthenticatedAgent`).
    AuthenticatedAgent,
    /// Anyone, authenticated or not (`foaf:Agent`).
    Public,
}

impl AgentSpec {
    /// Whether this spec matches a requesting agent (`None` =
    /// unauthenticated).
    pub fn matches(&self, agent: Option<&str>) -> bool {
        match self {
            AgentSpec::Agent(webid) => agent == Some(webid.as_str()),
            AgentSpec::AuthenticatedAgent => agent.is_some(),
            AgentSpec::Public => true,
        }
    }
}

/// One `acl:Authorization`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Authorization {
    /// Fragment identifier of the authorization within the ACL document.
    pub id: String,
    /// Who it applies to.
    pub agents: Vec<AgentSpec>,
    /// Granted modes.
    pub modes: Vec<AclMode>,
    /// The specific resource it grants access to, if any.
    pub access_to: Option<String>,
    /// Container whose members inherit this authorization, if any.
    pub default_for: Option<String>,
}

impl Authorization {
    /// An authorization granting `modes` on `resource` to `agents`.
    pub fn for_resource(
        id: impl Into<String>,
        resource: impl Into<String>,
        agents: Vec<AgentSpec>,
        modes: Vec<AclMode>,
    ) -> Authorization {
        Authorization {
            id: id.into(),
            agents,
            modes,
            access_to: Some(resource.into()),
            default_for: None,
        }
    }

    /// An inheritable authorization for everything under `container`.
    pub(crate) fn default_for_container(
        id: impl Into<String>,
        container: impl Into<String>,
        agents: Vec<AgentSpec>,
        modes: Vec<AclMode>,
    ) -> Authorization {
        Authorization {
            id: id.into(),
            agents,
            modes,
            access_to: None,
            default_for: Some(container.into()),
        }
    }

    fn applies_to(&self, resource: &str) -> bool {
        if self.access_to.as_deref() == Some(resource) {
            return true;
        }
        if let Some(container) = &self.default_for {
            return resource.starts_with(container.as_str());
        }
        false
    }

    fn grants(&self, agent: Option<&str>, mode: AclMode) -> bool {
        self.agents.iter().any(|a| a.matches(agent)) && self.modes.iter().any(|m| m.implies(mode))
    }
}

/// A WAC ACL document guarding one pod (or container subtree).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AclDocument {
    /// The authorizations, checked in order (any match grants).
    pub authorizations: Vec<Authorization>,
}

impl AclDocument {
    /// An empty (deny-everything) document.
    pub fn new() -> AclDocument {
        AclDocument::default()
    }

    /// The bootstrap ACL a pod manager installs at pod initiation: the owner
    /// holds every mode on everything under `root`.
    pub fn owner_default(owner: impl Into<String>, root: impl Into<String>) -> AclDocument {
        AclDocument {
            authorizations: vec![Authorization::default_for_container(
                "owner",
                root,
                vec![AgentSpec::Agent(owner.into())],
                AclMode::ALL.to_vec(),
            )],
        }
    }

    /// Adds an authorization.
    pub fn push(&mut self, auth: Authorization) {
        self.authorizations.push(auth);
    }

    /// Whether `agent` may perform `mode` on `resource`
    /// (WAC is default-deny: no matching authorization means no).
    pub fn allows(&self, agent: Option<&str>, mode: AclMode, resource: &str) -> bool {
        self.authorizations
            .iter()
            .any(|a| a.applies_to(resource) && a.grants(agent, mode))
    }

    /// Serializes to an RDF graph (WAC vocabulary).
    pub fn to_graph(&self, doc_base: &str) -> Result<Graph, PolicyError> {
        let mut g = Graph::new();
        for auth in &self.authorizations {
            let subject = Iri::new(format!("{doc_base}#{}", auth.id))
                .map_err(|e| PolicyError::Invalid(e.to_string()))?;
            let s = Term::Iri(subject.clone());
            g.insert(Triple::new(
                s.clone(),
                rdf::type_(),
                Term::Iri(acl::authorization()),
            ));
            for agent in &auth.agents {
                match agent {
                    AgentSpec::Agent(webid) => {
                        let iri = Iri::new(webid.clone())
                            .map_err(|e| PolicyError::Invalid(e.to_string()))?;
                        g.insert(Triple::new(s.clone(), acl::agent(), Term::Iri(iri)));
                    }
                    AgentSpec::AuthenticatedAgent => {
                        g.insert(Triple::new(
                            s.clone(),
                            acl::agent_class(),
                            Term::Iri(acl::authenticated_agent()),
                        ));
                    }
                    AgentSpec::Public => {
                        g.insert(Triple::new(
                            s.clone(),
                            acl::agent_class(),
                            Term::Iri(foaf_agent::agent_class()),
                        ));
                    }
                }
            }
            for mode in &auth.modes {
                g.insert(Triple::new(
                    s.clone(),
                    acl::mode(),
                    Term::Iri(mode.to_iri()),
                ));
            }
            if let Some(resource) = &auth.access_to {
                let iri =
                    Iri::new(resource.clone()).map_err(|e| PolicyError::Invalid(e.to_string()))?;
                g.insert(Triple::new(s.clone(), acl::access_to(), Term::Iri(iri)));
            }
            if let Some(container) = &auth.default_for {
                let iri =
                    Iri::new(container.clone()).map_err(|e| PolicyError::Invalid(e.to_string()))?;
                g.insert(Triple::new(s.clone(), acl::default(), Term::Iri(iri)));
            }
        }
        Ok(g)
    }

    /// Parses an ACL document from an RDF graph.
    ///
    /// # Errors
    /// Returns [`PolicyError::MissingStatement`] when an authorization lacks
    /// modes or agents.
    pub fn from_graph(graph: &Graph) -> Result<AclDocument, PolicyError> {
        let mut doc = AclDocument::new();
        let auth_type = Term::Iri(acl::authorization());
        let subjects: Vec<Term> = graph.subjects(&rdf::type_(), &auth_type).cloned().collect();
        for subject in subjects {
            let subject_iri = match &subject {
                Term::Iri(iri) => iri.clone(),
                _ => continue,
            };
            let id = subject_iri
                .as_str()
                .rsplit_once('#')
                .map(|(_, frag)| frag.to_string())
                .unwrap_or_else(|| subject_iri.as_str().to_string());
            let mut agents = Vec::new();
            for t in graph.objects(&subject_iri, &acl::agent()) {
                if let Term::Iri(iri) = t {
                    agents.push(AgentSpec::Agent(iri.as_str().to_string()));
                }
            }
            for t in graph.objects(&subject_iri, &acl::agent_class()) {
                if let Term::Iri(iri) = t {
                    if *iri == acl::authenticated_agent() {
                        agents.push(AgentSpec::AuthenticatedAgent);
                    } else if *iri == foaf_agent::agent_class() {
                        agents.push(AgentSpec::Public);
                    }
                }
            }
            let modes: Vec<AclMode> = graph
                .objects(&subject_iri, &acl::mode())
                .filter_map(|t| t.as_iri().and_then(AclMode::from_iri))
                .collect();
            if agents.is_empty() {
                return Err(PolicyError::MissingStatement("acl:agent / acl:agentClass"));
            }
            if modes.is_empty() {
                return Err(PolicyError::MissingStatement("acl:mode"));
            }
            let access_to = graph
                .objects(&subject_iri, &acl::access_to())
                .filter_map(|t| t.as_iri())
                .map(|i| i.as_str().to_string())
                .next();
            let default_for = graph
                .objects(&subject_iri, &acl::default())
                .filter_map(|t| t.as_iri())
                .map(|i| i.as_str().to_string())
                .next();
            doc.push(Authorization {
                id,
                agents,
                modes,
                access_to,
                default_for,
            });
        }
        Ok(doc)
    }
}

impl Encode for AgentSpec {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            AgentSpec::Agent(webid) => {
                buf.push(0);
                webid.encode(buf);
            }
            AgentSpec::AuthenticatedAgent => buf.push(1),
            AgentSpec::Public => buf.push(2),
        }
    }
}

impl Decode for AgentSpec {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.read_u8()? {
            0 => AgentSpec::Agent(String::decode(r)?),
            1 => AgentSpec::AuthenticatedAgent,
            2 => AgentSpec::Public,
            tag => {
                return Err(DecodeError::InvalidTag {
                    tag,
                    type_name: "AgentSpec",
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALICE: &str = "https://alice.id/me";
    const BOB: &str = "https://bob.id/me";
    const RES: &str = "https://alice.pod/data/browsing.csv";

    fn doc() -> AclDocument {
        let mut d = AclDocument::owner_default(ALICE, "https://alice.pod/");
        d.push(Authorization::for_resource(
            "readers",
            RES,
            vec![AgentSpec::AuthenticatedAgent],
            vec![AclMode::Read],
        ));
        d
    }

    #[test]
    fn default_deny() {
        let d = AclDocument::new();
        assert!(!d.allows(Some(ALICE), AclMode::Read, RES));
        assert!(!d.allows(None, AclMode::Read, RES));
    }

    #[test]
    fn owner_has_full_control_via_default() {
        let d = doc();
        for mode in AclMode::ALL {
            assert!(d.allows(Some(ALICE), mode, RES), "{mode:?}");
            assert!(
                d.allows(Some(ALICE), mode, "https://alice.pod/other/deep/file"),
                "inherited {mode:?}"
            );
        }
    }

    #[test]
    fn authenticated_agents_can_read_but_not_write() {
        let d = doc();
        assert!(d.allows(Some(BOB), AclMode::Read, RES));
        assert!(!d.allows(Some(BOB), AclMode::Write, RES));
        assert!(
            !d.allows(None, AclMode::Read, RES),
            "unauthenticated denied"
        );
    }

    #[test]
    fn default_does_not_leak_outside_container() {
        let d = doc();
        assert!(!d.allows(Some(ALICE), AclMode::Read, "https://evil.pod/x"));
    }

    #[test]
    fn public_spec_matches_unauthenticated() {
        let mut d = AclDocument::new();
        d.push(Authorization::for_resource(
            "pub",
            RES,
            vec![AgentSpec::Public],
            vec![AclMode::Read],
        ));
        assert!(d.allows(None, AclMode::Read, RES));
        assert!(d.allows(Some(BOB), AclMode::Read, RES));
    }

    #[test]
    fn write_implies_append() {
        let mut d = AclDocument::new();
        d.push(Authorization::for_resource(
            "w",
            RES,
            vec![AgentSpec::Agent(BOB.into())],
            vec![AclMode::Write],
        ));
        assert!(d.allows(Some(BOB), AclMode::Append, RES));
        assert!(!d.allows(Some(BOB), AclMode::Control, RES));
    }

    #[test]
    fn rdf_roundtrip() {
        let original = doc();
        let g = original
            .to_graph("https://alice.pod/.acl")
            .expect("to_graph");
        let parsed = AclDocument::from_graph(&g).expect("from_graph");
        // Order of authorizations may differ; compare as sets.
        assert_eq!(parsed.authorizations.len(), original.authorizations.len());
        for auth in &original.authorizations {
            assert!(
                parsed.authorizations.iter().any(|a| {
                    a.id == auth.id
                        && a.access_to == auth.access_to
                        && a.default_for == auth.default_for
                        && a.agents.iter().all(|x| auth.agents.contains(x))
                        && a.modes.iter().all(|m| auth.modes.contains(m))
                }),
                "missing authorization {auth:?}"
            );
        }
    }

    #[test]
    fn rdf_roundtrip_through_turtle_text() {
        let original = doc();
        let g = original.to_graph("https://alice.pod/.acl").unwrap();
        let text = duc_rdf::turtle::serialize(&g);
        let reparsed_graph = duc_rdf::turtle::parse(&text).expect("turtle parse");
        let parsed = AclDocument::from_graph(&reparsed_graph).expect("from_graph");
        assert_eq!(parsed.authorizations.len(), original.authorizations.len());
    }

    #[test]
    fn from_graph_requires_modes_and_agents() {
        let mut g = Graph::new();
        g.insert(Triple::new(
            Term::iri("urn:acl#a1"),
            rdf::type_(),
            Term::Iri(acl::authorization()),
        ));
        assert!(AclDocument::from_graph(&g).is_err());
    }

    #[test]
    fn codec_roundtrip_for_agent_specs() {
        use duc_codec::{decode_from_slice, encode_to_vec};
        for spec in [
            AgentSpec::Agent("urn:x".into()),
            AgentSpec::AuthenticatedAgent,
            AgentSpec::Public,
        ] {
            let back: AgentSpec = decode_from_slice(&encode_to_vec(&spec)).unwrap();
            assert_eq!(back, spec);
        }
        let mode: AclMode = decode_from_slice(&encode_to_vec(&AclMode::Control)).unwrap();
        assert_eq!(mode, AclMode::Control);
    }
}
