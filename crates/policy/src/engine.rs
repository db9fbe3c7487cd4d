//! The UCON-style decision engine.
//!
//! [`PolicyEngine::evaluate`] implements both *pre-authorization* (before an
//! access) and *ongoing authorization* (re-evaluated whenever time passes,
//! the policy changes, or another access happens) — the distinguishing
//! feature of usage control over access control. Deny decisions carry
//! machine-readable [`DenyReason`]s so the TEE can map them to enforcement
//! actions (e.g. `RetentionExceeded` → delete the copy).

use duc_sim::SimTime;

use crate::model::{Action, Constraint, Effect, Purpose, Rule, UsagePolicy};
use crate::taxonomy::PurposeTaxonomy;

/// The facts about one (attempted or ongoing) use of a resource copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageContext {
    /// WebID of the consumer.
    pub consumer: String,
    /// The action being performed.
    pub action: Action,
    /// The declared purpose.
    pub purpose: Purpose,
    /// Current instant.
    pub now: SimTime,
    /// When the copy was acquired.
    pub acquired_at: SimTime,
    /// Accesses performed so far (including this one).
    pub access_count: u64,
}

/// Why a request was denied.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DenyReason {
    /// No permit rule covers the action.
    NoMatchingPermit(Action),
    /// A prohibition explicitly forbids the action.
    Prohibited(Action),
    /// The copy has been held longer than the retention limit.
    RetentionExceeded,
    /// The absolute expiry instant has passed.
    Expired,
    /// The declared purpose is not among the allowed ones.
    PurposeNotAllowed(Purpose),
    /// The access count limit is exhausted.
    AccessCountExhausted {
        /// Permitted maximum.
        limit: u64,
    },
    /// The consumer is not an allowed recipient.
    RecipientNotAllowed(String),
    /// Outside the permitted time window.
    OutsideTimeWindow,
}

impl std::fmt::Display for DenyReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DenyReason::NoMatchingPermit(a) => write!(f, "no permit rule covers action {a}"),
            DenyReason::Prohibited(a) => write!(f, "action {a} is prohibited"),
            DenyReason::RetentionExceeded => f.write_str("retention limit exceeded"),
            DenyReason::Expired => f.write_str("policy expiry passed"),
            DenyReason::PurposeNotAllowed(p) => write!(f, "purpose {p} not allowed"),
            DenyReason::AccessCountExhausted { limit } => {
                write!(f, "access count limit {limit} exhausted")
            }
            DenyReason::RecipientNotAllowed(who) => write!(f, "recipient {who} not allowed"),
            DenyReason::OutsideTimeWindow => f.write_str("outside permitted time window"),
        }
    }
}

/// The outcome of an evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// The use is allowed.
    Permit,
    /// The use is denied for the listed reasons (non-empty).
    Deny(Vec<DenyReason>),
}

impl Decision {
    /// Whether this is a permit.
    pub fn is_permit(&self) -> bool {
        matches!(self, Decision::Permit)
    }

    /// The deny reasons (empty for permits).
    pub fn reasons(&self) -> &[DenyReason] {
        match self {
            Decision::Permit => &[],
            Decision::Deny(rs) => rs,
        }
    }
}

/// Evaluates usage contexts against policies under a purpose taxonomy.
#[derive(Debug, Clone)]
pub struct PolicyEngine {
    taxonomy: PurposeTaxonomy,
}

impl Default for PolicyEngine {
    /// An engine with the [`PurposeTaxonomy::standard`] hierarchy.
    fn default() -> Self {
        PolicyEngine {
            taxonomy: PurposeTaxonomy::standard(),
        }
    }
}

impl PolicyEngine {
    /// The taxonomy in use.
    pub fn taxonomy(&self) -> &PurposeTaxonomy {
        &self.taxonomy
    }

    /// Evaluates `ctx` against `policy`.
    ///
    /// Semantics (deny-overrides, in UCON terms pre+ongoing authorization):
    /// 1. any prohibition covering the action denies;
    /// 2. otherwise some permit rule must cover the action *and* have all
    ///    its constraints satisfied;
    /// 3. if no rule matches at all, the default is deny.
    pub fn evaluate(&self, policy: &UsagePolicy, ctx: &UsageContext) -> Decision {
        let mut reasons = Vec::new();
        for rule in &policy.rules {
            if rule.effect == Effect::Prohibit && rule.covers(ctx.action) {
                return Decision::Deny(vec![DenyReason::Prohibited(ctx.action)]);
            }
        }
        let mut any_permit_covers = false;
        for rule in &policy.rules {
            if rule.effect != Effect::Permit || !rule.covers(ctx.action) {
                continue;
            }
            any_permit_covers = true;
            match self.check_constraints(rule, ctx) {
                Ok(()) => return Decision::Permit,
                Err(mut rs) => reasons.append(&mut rs),
            }
        }
        if !any_permit_covers {
            reasons.push(DenyReason::NoMatchingPermit(ctx.action));
        }
        reasons.dedup();
        Decision::Deny(reasons)
    }

    fn check_constraints(&self, rule: &Rule, ctx: &UsageContext) -> Result<(), Vec<DenyReason>> {
        let mut reasons = Vec::new();
        for c in &rule.constraints {
            match c {
                Constraint::MaxRetention(limit) => {
                    if ctx.now.saturating_since(ctx.acquired_at) > *limit {
                        reasons.push(DenyReason::RetentionExceeded);
                    }
                }
                Constraint::ExpiresAt(at) => {
                    if ctx.now >= *at {
                        reasons.push(DenyReason::Expired);
                    }
                }
                Constraint::Purpose(allowed) => {
                    if !self.taxonomy.satisfies_any(&ctx.purpose, allowed) {
                        reasons.push(DenyReason::PurposeNotAllowed(ctx.purpose.clone()));
                    }
                }
                Constraint::MaxAccessCount(limit) => {
                    if ctx.access_count > *limit {
                        reasons.push(DenyReason::AccessCountExhausted { limit: *limit });
                    }
                }
                Constraint::AllowedRecipients(agents) => {
                    if !agents.contains(&ctx.consumer) {
                        reasons.push(DenyReason::RecipientNotAllowed(ctx.consumer.clone()));
                    }
                }
                Constraint::TimeWindow {
                    not_before,
                    not_after,
                } => {
                    if ctx.now < *not_before || ctx.now >= *not_after {
                        reasons.push(DenyReason::OutsideTimeWindow);
                    }
                }
            }
        }
        if reasons.is_empty() {
            Ok(())
        } else {
            Err(reasons)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Duty;
    use duc_sim::SimDuration;

    fn ctx() -> UsageContext {
        UsageContext {
            consumer: "urn:alice".into(),
            action: Action::Read,
            purpose: Purpose::new("medical-research"),
            now: SimTime::from_secs(1000),
            acquired_at: SimTime::from_secs(500),
            access_count: 1,
        }
    }

    fn engine() -> PolicyEngine {
        PolicyEngine::default()
    }

    fn policy_with(rule: Rule) -> UsagePolicy {
        UsagePolicy::builder("p", "urn:r", "urn:owner")
            .permit(rule)
            .build()
    }

    #[test]
    fn empty_policy_denies_by_default() {
        let p = UsagePolicy::builder("p", "urn:r", "urn:o").build();
        let d = engine().evaluate(&p, &ctx());
        assert!(!d.is_permit());
        assert_eq!(d.reasons(), &[DenyReason::NoMatchingPermit(Action::Read)]);
    }

    #[test]
    fn unconstrained_permit_permits() {
        let p = policy_with(Rule::permit([Action::Use]));
        assert!(engine().evaluate(&p, &ctx()).is_permit());
    }

    #[test]
    fn prohibition_overrides_permit() {
        let p = UsagePolicy::builder("p", "urn:r", "urn:o")
            .permit(Rule::permit([Action::Use, Action::Distribute]))
            .rule(Rule::prohibit([Action::Distribute]))
            .build();
        let mut c = ctx();
        c.action = Action::Distribute;
        let d = engine().evaluate(&p, &c);
        assert_eq!(d.reasons(), &[DenyReason::Prohibited(Action::Distribute)]);
        // Other actions are unaffected.
        assert!(engine().evaluate(&p, &ctx()).is_permit());
    }

    #[test]
    fn retention_constraint_enforced() {
        let p = policy_with(
            Rule::permit([Action::Use])
                .with_constraint(Constraint::MaxRetention(SimDuration::from_secs(100))),
        );
        let mut c = ctx();
        c.acquired_at = SimTime::from_secs(500);
        c.now = SimTime::from_secs(599);
        assert!(engine().evaluate(&p, &c).is_permit(), "within window");
        c.now = SimTime::from_secs(601);
        assert_eq!(
            engine().evaluate(&p, &c).reasons(),
            &[DenyReason::RetentionExceeded]
        );
    }

    #[test]
    fn expiry_constraint_enforced() {
        let p = policy_with(
            Rule::permit([Action::Use])
                .with_constraint(Constraint::ExpiresAt(SimTime::from_secs(700))),
        );
        let mut c = ctx();
        c.now = SimTime::from_secs(699);
        assert!(engine().evaluate(&p, &c).is_permit());
        c.now = SimTime::from_secs(700);
        assert_eq!(engine().evaluate(&p, &c).reasons(), &[DenyReason::Expired]);
    }

    #[test]
    fn purpose_constraint_uses_taxonomy() {
        let p = policy_with(
            Rule::permit([Action::Use])
                .with_constraint(Constraint::Purpose(vec![Purpose::new("medical")])),
        );
        assert!(
            engine().evaluate(&p, &ctx()).is_permit(),
            "medical-research < medical"
        );
        let mut c = ctx();
        c.purpose = Purpose::new("marketing");
        match &engine().evaluate(&p, &c).reasons()[0] {
            DenyReason::PurposeNotAllowed(pp) => assert_eq!(pp.as_str(), "marketing"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn access_count_constraint() {
        let p =
            policy_with(Rule::permit([Action::Use]).with_constraint(Constraint::MaxAccessCount(3)));
        let mut c = ctx();
        c.access_count = 3;
        assert!(engine().evaluate(&p, &c).is_permit(), "at limit is fine");
        c.access_count = 4;
        assert_eq!(
            engine().evaluate(&p, &c).reasons(),
            &[DenyReason::AccessCountExhausted { limit: 3 }]
        );
    }

    #[test]
    fn recipient_constraint() {
        let p = policy_with(
            Rule::permit([Action::Use])
                .with_constraint(Constraint::AllowedRecipients(vec!["urn:bob".into()])),
        );
        let d = engine().evaluate(&p, &ctx());
        assert_eq!(
            d.reasons(),
            &[DenyReason::RecipientNotAllowed("urn:alice".into())]
        );
    }

    #[test]
    fn time_window_constraint() {
        let p = policy_with(
            Rule::permit([Action::Use]).with_constraint(Constraint::TimeWindow {
                not_before: SimTime::from_secs(900),
                not_after: SimTime::from_secs(1100),
            }),
        );
        assert!(engine().evaluate(&p, &ctx()).is_permit());
        let mut c = ctx();
        c.now = SimTime::from_secs(1100);
        assert_eq!(
            engine().evaluate(&p, &c).reasons(),
            &[DenyReason::OutsideTimeWindow]
        );
        c.now = SimTime::from_secs(899);
        assert_eq!(
            engine().evaluate(&p, &c).reasons(),
            &[DenyReason::OutsideTimeWindow]
        );
    }

    #[test]
    fn time_window_edges_are_half_open() {
        // The window is `[not_before, not_after)`: the start instant is
        // included, the end instant excluded — checked to the nanosecond.
        let not_before = SimTime::from_secs(900);
        let not_after = SimTime::from_secs(1100);
        let p = policy_with(
            Rule::permit([Action::Use]).with_constraint(Constraint::TimeWindow {
                not_before,
                not_after,
            }),
        );
        let e = engine();
        let at = |now: SimTime| {
            let mut c = ctx();
            c.now = now;
            e.evaluate(&p, &c)
        };
        // One nanosecond before the window opens: denied.
        assert_eq!(
            at(SimTime::from_nanos(not_before.as_nanos() - 1)).reasons(),
            &[DenyReason::OutsideTimeWindow]
        );
        // Exactly at the opening instant: permitted (inclusive).
        assert!(at(not_before).is_permit());
        // One nanosecond before the window closes: still permitted.
        assert!(at(SimTime::from_nanos(not_after.as_nanos() - 1)).is_permit());
        // Exactly at the closing instant: denied (exclusive).
        assert_eq!(at(not_after).reasons(), &[DenyReason::OutsideTimeWindow]);
    }

    #[test]
    fn retention_and_expiry_edges_to_the_nanosecond() {
        // Retention is inclusive at the bound (`elapsed > limit` denies);
        // expiry is exclusive at the instant (`now >= at` denies).
        let p = policy_with(
            Rule::permit([Action::Use])
                .with_constraint(Constraint::MaxRetention(SimDuration::from_secs(100)))
                .with_constraint(Constraint::ExpiresAt(SimTime::from_secs(700))),
        );
        let e = engine();
        let mut c = ctx();
        c.acquired_at = SimTime::from_secs(500);
        c.now = SimTime::from_secs(600); // exactly at the retention bound
        assert!(e.evaluate(&p, &c).is_permit());
        c.now = SimTime::from_nanos(SimTime::from_secs(600).as_nanos() + 1);
        assert_eq!(
            e.evaluate(&p, &c).reasons(),
            &[DenyReason::RetentionExceeded]
        );
        c.acquired_at = SimTime::from_secs(650);
        c.now = SimTime::from_nanos(SimTime::from_secs(700).as_nanos() - 1);
        assert!(e.evaluate(&p, &c).is_permit());
        c.now = SimTime::from_secs(700);
        assert_eq!(e.evaluate(&p, &c).reasons(), &[DenyReason::Expired]);
    }

    #[test]
    fn alternative_permit_rules_are_tried() {
        // Rule 1 requires purpose marketing; rule 2 allows research reads.
        let p = UsagePolicy::builder("p", "urn:r", "urn:o")
            .permit(
                Rule::permit([Action::Use])
                    .with_constraint(Constraint::Purpose(vec![Purpose::new("marketing")])),
            )
            .permit(
                Rule::permit([Action::Read])
                    .with_constraint(Constraint::Purpose(vec![Purpose::new("research")])),
            )
            .build();
        assert!(
            engine().evaluate(&p, &ctx()).is_permit(),
            "second rule matches"
        );
    }

    #[test]
    fn multiple_violated_constraints_all_reported() {
        let p = policy_with(
            Rule::permit([Action::Use])
                .with_constraint(Constraint::MaxAccessCount(0))
                .with_constraint(Constraint::Purpose(vec![Purpose::new("marketing")])),
        );
        let d = engine().evaluate(&p, &ctx());
        assert_eq!(d.reasons().len(), 2);
    }

    #[test]
    fn ongoing_reevaluation_flips_after_policy_change() {
        // The paper's scenario: Alice shortens retention from 30d to 7d;
        // Bob's 10-day-old copy becomes non-compliant immediately.
        let original = policy_with(
            Rule::permit([Action::Use])
                .with_constraint(Constraint::MaxRetention(SimDuration::from_days(30))),
        );
        let mut c = ctx();
        c.acquired_at = SimTime::from_secs(0);
        c.now = SimTime::ZERO + SimDuration::from_days(10);
        assert!(engine().evaluate(&original, &c).is_permit());
        let amended = original.amended(
            vec![Rule::permit([Action::Use])
                .with_constraint(Constraint::MaxRetention(SimDuration::from_days(7)))],
            vec![Duty::DeleteWithin(SimDuration::from_days(7))],
        );
        assert_eq!(
            engine().evaluate(&amended, &c).reasons(),
            &[DenyReason::RetentionExceeded]
        );
    }

    #[test]
    fn deny_reason_display() {
        assert!(DenyReason::RetentionExceeded
            .to_string()
            .contains("retention"));
        assert!(DenyReason::AccessCountExhausted { limit: 2 }
            .to_string()
            .contains('2'));
    }
}
