//! The rule-walking reference interpreter, kept with the tests as the
//! oracle the compiled program is checked against.
//!
//! [`PolicyEngine::evaluate`] walks the full rule list and re-runs a BFS
//! over the purpose taxonomy on every decision: the plainest reading of the
//! policy language, with none of the program's pre-resolved tables. The
//! product decides with `PolicyProgram::decide` alone;
//! `proptest_compile.rs` holds the two to identical `Decision` values,
//! deny-reason lists and their order included.

use duc_policy::{
    Action, Constraint, Decision, DenyReason, Effect, PurposeTaxonomy, Rule, UsageContext,
    UsagePolicy,
};

/// Whether `rule`'s action list covers `action`: an action covers itself,
/// and `Use` covers everything except `Distribute`, which must always be
/// granted explicitly.
fn covers(rule: &Rule, action: Action) -> bool {
    (rule.actions.iter())
        .any(|&a| a == action || (a == Action::Use && action != Action::Distribute))
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
            if rule.effect == Effect::Prohibit && covers(rule, ctx.action) {
                return Decision::Deny(vec![DenyReason::Prohibited(ctx.action)]);
            }
        }
        let mut any_permit_covers = false;
        for rule in &policy.rules {
            if rule.effect != Effect::Permit || !covers(rule, ctx.action) {
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
                    if !(allowed.iter()).any(|a| self.taxonomy.satisfies(&ctx.purpose, a)) {
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

#[test]
fn rule_covers_respects_subsumption() {
    let rule = Rule::permit([Action::Use]);
    assert!(covers(&rule, Action::Read));
    assert!(!covers(&rule, Action::Distribute));
    let dist = Rule::permit([Action::Distribute]);
    assert!(covers(&dist, Action::Distribute));
}
