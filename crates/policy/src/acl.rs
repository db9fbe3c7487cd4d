//! W3C Web Access Control (WAC) — Solid's native *access* control layer.
//!
//! A pod manager consults an [`AclDocument`] before serving any request
//! (paper §III-A: "the Pod Manager determines whether access can be granted
//! by checking the access control policies that are stored locally"). Usage
//! control (this crate's [`crate::model`]) takes over *after* the data has
//! left the pod.

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

    /// Whether holding `self` implies `requested` (Write implies Append).
    pub fn implies(self, requested: AclMode) -> bool {
        self == requested || (self == AclMode::Write && requested == AclMode::Append)
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
}
