//! # duc-policy — usage-control policies for Solid resources
//!
//! The paper's core premise is that *access* control (decided once, before
//! data leaves a pod) must be extended with *usage* control (evaluated
//! continuously, wherever a copy of the data lives). This crate provides:
//!
//! * [`model`] — the policy language: permit/prohibit rules over actions,
//!   with temporal, purpose, count and recipient constraints and duties
//!   (obligations), following ODRL vocabulary and the UCON(ABC) model the
//!   paper cites (Park & Sandhu).
//! * [`taxonomy`] — a purpose hierarchy, so a policy allowing `research`
//!   admits a request for `medical-research`.
//! * [`compile()`] — lowers a policy into a [`PolicyProgram`], the decision
//!   procedure: pre-authorization and *ongoing* re-evaluation of a usage
//!   context ([`PolicyProgram::decide`]) from pre-resolved decision tables,
//!   plus `next_transition`, the instant the decision can next change
//!   (what deadline-driven enforcement schedules on).
//! * [`engine`] — the usage context and decision types, and
//!   [`PolicyEngine`], a rule-walking interpreter kept as the reference
//!   [`PolicyProgram::decide`] is proptest-checked against (not in the
//!   prelude).
//! * [`dsl`] — a human-readable text syntax for policies.
//! * [`rdf_binding`] — policies as RDF graphs (ODRL + project vocabulary).
//! * [`acl`] — W3C Web Access Control lists, the Solid-native *access*
//!   control layer that our usage control extends.
//!
//! ## Example
//! ```
//! use duc_policy::prelude::*;
//! use duc_sim::{SimDuration, SimTime};
//!
//! let policy = UsagePolicy::builder("pol-1", "https://bob.pod/data/medical.ttl", "https://bob.id/me")
//!     .permit(
//!         Rule::permit([Action::Use, Action::Read])
//!             .with_constraint(Constraint::Purpose(vec![Purpose::new("medical-research")]))
//!             .with_constraint(Constraint::MaxRetention(SimDuration::from_days(30))),
//!     )
//!     .duty(Duty::DeleteWithin(SimDuration::from_days(30)))
//!     .build();
//!
//! let ctx = UsageContext {
//!     consumer: "https://alice.id/me".into(),
//!     action: Action::Read,
//!     purpose: Purpose::new("medical-research"),
//!     now: SimTime::from_secs(100),
//!     acquired_at: SimTime::from_secs(50),
//!     access_count: 1,
//! };
//! let program = compile(&policy, &PurposeTaxonomy::standard());
//! assert!(program.decide(&ctx).is_permit());
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod acl;
pub mod compile;
pub mod dsl;
pub mod engine;
pub mod model;
pub mod rdf_binding;
pub mod taxonomy;

pub use acl::{AclDocument, AclMode, AgentSpec, Authorization};
pub use compile::{compile, PolicyProgram};
pub use engine::{Decision, DenyReason, PolicyEngine};
pub use model::{Action, Constraint, Duty, Effect, Purpose, Rule, UsagePolicy};
pub use taxonomy::PurposeTaxonomy;

/// Common imports for downstream crates.
pub mod prelude {
    pub use crate::acl::{AclDocument, AclMode, AgentSpec, Authorization};
    pub use crate::compile::{compile, PolicyProgram};
    pub use crate::engine::{Decision, DenyReason, UsageContext};
    pub use crate::model::{Action, Constraint, Duty, Effect, Purpose, Rule, UsagePolicy};
    pub use crate::taxonomy::PurposeTaxonomy;
}

pub use engine::UsageContext;

/// Errors from policy parsing (DSL or RDF).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// DSL syntax error with byte offset context.
    Syntax {
        /// Explanation of the failure.
        message: String,
    },
    /// RDF document lacked a required statement.
    MissingStatement(&'static str),
    /// A value failed validation (e.g. negative duration).
    Invalid(String),
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyError::Syntax { message } => write!(f, "policy syntax error: {message}"),
            PolicyError::MissingStatement(what) => write!(f, "policy document missing: {what}"),
            PolicyError::Invalid(what) => write!(f, "invalid policy value: {what}"),
        }
    }
}

impl std::error::Error for PolicyError {}
