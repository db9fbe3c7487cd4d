//! Vocabularies used by the architecture's RDF documents.
//!
//! Each module exposes one namespace as constructor functions returning
//! validated [`Iri`]s. The `duc` vocabulary is this project's own namespace
//! for usage-control terms that have no direct ODRL/WAC equivalent.

use crate::term::Iri;

macro_rules! vocab {
    ($mod_name:ident, $ns:expr, [$($term:ident => $local:expr),* $(,)?]) => {
        /// Namespace module (see crate docs).
        pub mod $mod_name {
            use super::Iri;

            /// The namespace IRI prefix.
            pub(crate) const NS: &str = $ns;

            /// The namespace as an [`Iri`].
            pub fn ns() -> Iri {
                Iri::new(NS).expect("static namespace is valid")
            }

            $(
                /// Vocabulary term (see module namespace).
                pub fn $term() -> Iri {
                    Iri::new(concat!($ns, $local)).expect("static term is valid")
                }
            )*
        }
    };
}

vocab!(rdf, "http://www.w3.org/1999/02/22-rdf-syntax-ns#", [
    type_ => "type",
]);

vocab!(rdfs, "http://www.w3.org/2000/01/rdf-schema#", [
    label => "label",
    comment => "comment",
]);

vocab!(xsd, "http://www.w3.org/2001/XMLSchema#", [
    string => "string",
    integer => "integer",
    boolean => "boolean",
    date_time => "dateTime",
    decimal => "decimal",
]);

vocab!(foaf, "http://xmlns.com/foaf/0.1/", [
    person => "Person",
    name => "name",
    mbox => "mbox",
]);

// W3C Web Access Control (the ACL model Solid uses).
vocab!(acl, "http://www.w3.org/ns/auth/acl#", [
    authorization => "Authorization",
    agent => "agent",
    agent_class => "agentClass",
    agent_group => "agentGroup",
    mode => "mode",
    read => "Read",
    write => "Write",
    append => "Append",
    control => "Control",
    access_to => "accessTo",
    default => "default",
    authenticated_agent => "AuthenticatedAgent",
]);

vocab!(foaf_agent, "http://xmlns.com/foaf/0.1/", [
    agent_class => "Agent",
]);

// ODRL-inspired usage-policy vocabulary.
vocab!(odrl, "http://www.w3.org/ns/odrl/2/", [
    policy => "Policy",
    permission => "permission",
    prohibition => "prohibition",
    duty => "duty",
    action => "action",
    target => "target",
    assigner => "assigner",
    assignee => "assignee",
    constraint => "constraint",
    left_operand => "leftOperand",
    operator => "operator",
    right_operand => "rightOperand",
    purpose => "purpose",
    date_time => "dateTime",
    count => "count",
    use_ => "use",
    read => "read",
    modify => "modify",
    delete => "delete",
    distribute => "distribute",
    lteq => "lteq",
    gteq => "gteq",
    eq => "eq",
    is_any_of => "isAnyOf",
]);

// Solid terms.
vocab!(solid, "http://www.w3.org/ns/solid/terms#", [
    pod => "Pod",
    owner => "owner",
    storage_quota => "storageQuota",
]);

// Project-specific usage-control terms.
vocab!(duc, "https://w3id.org/duc/ns#", [
    usage_policy => "UsagePolicy",
    retention_limit => "retentionLimit",
    allowed_purpose => "allowedPurpose",
    max_access_count => "maxAccessCount",
    allowed_recipient => "allowedRecipient",
    deletion_obligation => "deletionObligation",
    notify_obligation => "notifyObligation",
    resource_location => "resourceLocation",
    policy_version => "policyVersion",
    registered_at => "registeredAt",
    log_obligation => "logObligation",
    not_before => "notBefore",
    not_after => "notAfter",
]);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespaces_are_valid_iris() {
        assert_eq!(
            rdf::type_().as_str(),
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
        );
        assert_eq!(
            xsd::integer().as_str(),
            "http://www.w3.org/2001/XMLSchema#integer"
        );
        assert_eq!(acl::read().as_str(), "http://www.w3.org/ns/auth/acl#Read");
        assert_eq!(
            odrl::permission().as_str(),
            "http://www.w3.org/ns/odrl/2/permission"
        );
        assert_eq!(
            duc::retention_limit().as_str(),
            "https://w3id.org/duc/ns#retentionLimit"
        );
    }

    #[test]
    fn ns_accessor_matches_constant() {
        assert_eq!(acl::ns().as_str(), acl::NS);
        assert_eq!(odrl::ns().as_str(), odrl::NS);
    }

    #[test]
    fn distinct_vocabularies_do_not_collide() {
        assert_ne!(odrl::read(), acl::read());
    }
}
