//! Compiled policy programs.
//!
//! [`PolicyEngine::evaluate`] walks the full rule list and re-runs a BFS
//! over the purpose taxonomy on every decision. That is fine for a single
//! evaluation but wasteful on the hot path: a TEE re-evaluates the *same*
//! policy against near-identical contexts on every local access, and the
//! obligation scheduler needs to know *when* a decision can change, not
//! just what it is now.
//!
//! [`compile`] lowers a [`UsagePolicy`] into a compact [`PolicyProgram`]
//! IR:
//!
//! * per-rule **action masks** (the `subsumes` relation pre-applied over
//!   all five actions),
//! * **pre-resolved constraint tables** — the purpose-taxonomy closure is
//!   baked into a satisfied-purpose set, recipients into a lookup set,
//! * pre-extracted **retention/expiry bounds** for obligation scheduling.
//!
//! Two entry points:
//!
//! * [`PolicyProgram::decide`] — decision-equivalent to
//!   [`PolicyEngine::evaluate`] (identical [`Decision`] values, including
//!   deny-reason lists; proptest-gated in `tests/proptest_compile.rs`),
//! * [`PolicyProgram::next_transition`] — the next instant at which the
//!   decision for this context can change (retention deadline, expiry,
//!   time-window edge), or `None` when it is constant for all future time.
//!   The deadline-driven enforcement pipeline (`duc_tee` decision cache,
//!   `duc_core` obligation scheduler) schedules wakeups at exactly these
//!   instants instead of polling.
//!
//! [`PolicyEngine::evaluate`]: crate::PolicyEngine::evaluate

use std::cell::OnceCell;
use std::collections::BTreeSet;
use std::ops::Deref;
use std::rc::Rc;

use duc_sim::{SimDuration, SimTime};

use crate::engine::{Decision, DenyReason, UsageContext};
use crate::model::{Action, Constraint, Effect, Purpose, UsagePolicy};
use crate::taxonomy::PurposeTaxonomy;

/// One bit per [`Action`], in [`Action::ALL`] order.
fn action_bit(action: Action) -> u8 {
    1 << Action::ALL
        .iter()
        .position(|a| *a == action)
        .expect("every action is in Action::ALL")
}

/// The action mask covered by a rule's action list (with `subsumes`
/// pre-applied).
fn cover_mask(actions: &[Action]) -> u8 {
    let mut mask = 0;
    for target in Action::ALL {
        if actions.iter().any(|a| a.subsumes(target)) {
            mask |= action_bit(target);
        }
    }
    mask
}

/// A compiled constraint: the same predicate as the corresponding
/// [`Constraint`], with every taxonomy/list lookup pre-resolved.
#[derive(Debug, Clone)]
enum Check {
    /// `Constraint::MaxRetention`.
    Retention(SimDuration),
    /// `Constraint::ExpiresAt`.
    Expiry(SimTime),
    /// `Constraint::Purpose`, closed over the taxonomy: `wildcard` when
    /// `any` is allowed, otherwise membership in the pre-computed
    /// satisfied-purpose set.
    Purpose {
        wildcard: bool,
        satisfied: BTreeSet<Purpose>,
    },
    /// `Constraint::MaxAccessCount`.
    MaxAccess(u64),
    /// `Constraint::AllowedRecipients` as a lookup set.
    Recipients(BTreeSet<String>),
    /// `Constraint::TimeWindow`.
    Window {
        not_before: SimTime,
        not_after: SimTime,
    },
}

impl Check {
    fn compile(constraint: &Constraint, taxonomy: &PurposeTaxonomy) -> Check {
        match constraint {
            Constraint::MaxRetention(limit) => Check::Retention(*limit),
            Constraint::ExpiresAt(at) => Check::Expiry(*at),
            Constraint::Purpose(allowed) => {
                let wildcard = allowed.iter().any(|a| *a == Purpose::any());
                // The closure: the allowed purposes themselves plus every
                // taxonomy node from which some allowed purpose is
                // reachable. Declared purposes outside the taxonomy can
                // only satisfy by exact match, which the first half covers.
                let mut satisfied: BTreeSet<Purpose> = allowed.iter().cloned().collect();
                for node in taxonomy.purposes() {
                    if taxonomy.satisfies_any(&node, allowed) {
                        satisfied.insert(node);
                    }
                }
                Check::Purpose {
                    wildcard,
                    satisfied,
                }
            }
            Constraint::MaxAccessCount(limit) => Check::MaxAccess(*limit),
            Constraint::AllowedRecipients(agents) => {
                Check::Recipients(agents.iter().cloned().collect())
            }
            Constraint::TimeWindow {
                not_before,
                not_after,
            } => Check::Window {
                not_before: *not_before,
                not_after: *not_after,
            },
        }
    }

    /// The deny reason this check produces when violated by `ctx`, `None`
    /// when satisfied. Mirrors `PolicyEngine::check_constraints` exactly.
    fn violation(&self, ctx: &UsageContext) -> Option<DenyReason> {
        match self {
            Check::Retention(limit) => (ctx.now.saturating_since(ctx.acquired_at) > *limit)
                .then_some(DenyReason::RetentionExceeded),
            Check::Expiry(at) => (ctx.now >= *at).then_some(DenyReason::Expired),
            Check::Purpose {
                wildcard,
                satisfied,
            } => (!wildcard && !satisfied.contains(&ctx.purpose))
                .then(|| DenyReason::PurposeNotAllowed(ctx.purpose.clone())),
            Check::MaxAccess(limit) => (ctx.access_count > *limit)
                .then_some(DenyReason::AccessCountExhausted { limit: *limit }),
            Check::Recipients(agents) => (!agents.contains(&ctx.consumer))
                .then(|| DenyReason::RecipientNotAllowed(ctx.consumer.clone())),
            Check::Window {
                not_before,
                not_after,
            } => (ctx.now < *not_before || ctx.now >= *not_after)
                .then_some(DenyReason::OutsideTimeWindow),
        }
    }

    /// The instants (strictly after `ctx.now`) at which this check's
    /// verdict can flip, holding everything but time fixed.
    fn boundaries(&self, ctx: &UsageContext, out: &mut BTreeSet<u64>) {
        let now = ctx.now.as_nanos();
        let mut push = |at: u64| {
            if at > now {
                out.insert(at);
            }
        };
        match self {
            Check::Retention(limit) => {
                // Violated when `now - acquired_at > limit`: the first
                // violating instant is one nanosecond past the bound.
                let due = ctx
                    .acquired_at
                    .as_nanos()
                    .saturating_add(limit.as_nanos())
                    .saturating_add(1);
                push(due);
            }
            Check::Expiry(at) => push(at.as_nanos()),
            Check::Window {
                not_before,
                not_after,
            } => {
                push(not_before.as_nanos());
                push(not_after.as_nanos());
            }
            Check::Purpose { .. } | Check::MaxAccess(_) | Check::Recipients(_) => {}
        }
    }
}

/// A compiled permit rule: its pre-computed action mask plus compiled
/// constraints in declaration order.
#[derive(Debug, Clone)]
struct CompiledRule {
    mask: u8,
    checks: Vec<Check>,
}

/// A [`UsagePolicy`] lowered into pre-resolved decision tables.
///
/// Build one with [`compile`]; see the module docs for the contract.
#[derive(Debug, Clone)]
pub struct PolicyProgram {
    /// Union mask of every prohibition's covered actions.
    prohibit_mask: u8,
    /// Permit rules, in declaration order.
    permits: Vec<CompiledRule>,
    /// Pre-extracted `UsagePolicy::retention_bound`.
    retention_bound: Option<SimDuration>,
    /// Pre-extracted `UsagePolicy::expiry_bound`.
    expiry_bound: Option<SimTime>,
    /// Whether any permit constraint reads `access_count` (the TEE decision
    /// cache must key on the count only when this is set).
    count_sensitive: bool,
}

/// Lowers `policy` under `taxonomy` into a [`PolicyProgram`].
pub fn compile(policy: &UsagePolicy, taxonomy: &PurposeTaxonomy) -> PolicyProgram {
    let mut prohibit_mask = 0u8;
    let mut permits = Vec::new();
    let mut count_sensitive = false;
    for rule in &policy.rules {
        match rule.effect {
            Effect::Prohibit => prohibit_mask |= cover_mask(&rule.actions),
            Effect::Permit => {
                let checks: Vec<Check> = rule
                    .constraints
                    .iter()
                    .map(|c| Check::compile(c, taxonomy))
                    .collect();
                count_sensitive |= checks.iter().any(|c| matches!(c, Check::MaxAccess(_)));
                permits.push(CompiledRule {
                    mask: cover_mask(&rule.actions),
                    checks,
                });
            }
        }
    }
    PolicyProgram {
        prohibit_mask,
        permits,
        retention_bound: policy.retention_bound(),
        expiry_bound: policy.expiry_bound(),
        count_sensitive,
    }
}

impl PolicyProgram {
    /// Whether the decision depends on the access count (see
    /// [`Constraint::MaxAccessCount`]).
    pub fn count_sensitive(&self) -> bool {
        self.count_sensitive
    }

    /// Pre-extracted [`UsagePolicy::retention_bound`].
    pub fn retention_bound(&self) -> Option<SimDuration> {
        self.retention_bound
    }

    /// Pre-extracted [`UsagePolicy::expiry_bound`].
    pub fn expiry_bound(&self) -> Option<SimTime> {
        self.expiry_bound
    }

    /// The earliest instant at which a retention/expiry obligation for a
    /// copy acquired at `acquired_at` falls due, given that the current
    /// policy version was applied locally at `applied_at` (a tightened
    /// deadline can never precede the instant the device learned of it).
    pub fn next_deadline(&self, acquired_at: SimTime, applied_at: SimTime) -> Option<SimTime> {
        let retention = self
            .retention_bound
            .map(|bound| (acquired_at + bound).max(applied_at));
        let expiry = self.expiry_bound.map(|at| at.max(applied_at));
        match (retention, expiry) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }

    /// Evaluates `ctx` — decision-equivalent to
    /// [`PolicyEngine::evaluate`] on the source policy, including the
    /// deny-reason lists and their order.
    ///
    /// [`PolicyEngine::evaluate`]: crate::engine::PolicyEngine::evaluate
    pub fn decide(&self, ctx: &UsageContext) -> Decision {
        let bit = action_bit(ctx.action);
        if self.prohibit_mask & bit != 0 {
            return Decision::Deny(vec![DenyReason::Prohibited(ctx.action)]);
        }
        let mut reasons = Vec::new();
        let mut any_permit_covers = false;
        for rule in &self.permits {
            if rule.mask & bit == 0 {
                continue;
            }
            any_permit_covers = true;
            let before = reasons.len();
            for check in &rule.checks {
                if let Some(reason) = check.violation(ctx) {
                    reasons.push(reason);
                }
            }
            if reasons.len() == before {
                return Decision::Permit;
            }
        }
        if !any_permit_covers {
            reasons.push(DenyReason::NoMatchingPermit(ctx.action));
        }
        reasons.dedup();
        Decision::Deny(reasons)
    }

    /// The next instant strictly after `ctx.now` at which
    /// [`PolicyProgram::decide`] yields a *different* decision for this
    /// context (holding consumer, action, purpose and access count fixed),
    /// or `None` when the decision is constant for all future time.
    ///
    /// Only retention deadlines, expiry instants and time-window edges can
    /// flip a decision as time passes; the method collects those
    /// boundaries, probes each in order and returns the first that
    /// actually changes the decision — so advancing the clock to the
    /// returned instant is guaranteed to observe a flip, and no flip can
    /// occur before it.
    pub fn next_transition(&self, ctx: &UsageContext) -> Option<SimTime> {
        let bit = action_bit(ctx.action);
        if self.prohibit_mask & bit != 0 {
            // Prohibitions are time-independent: constant deny.
            return None;
        }
        let mut boundaries: BTreeSet<u64> = BTreeSet::new();
        for rule in &self.permits {
            if rule.mask & bit == 0 {
                continue;
            }
            for check in &rule.checks {
                check.boundaries(ctx, &mut boundaries);
            }
        }
        let current = self.decide(ctx);
        let mut probe = ctx.clone();
        for at in boundaries {
            probe.now = SimTime::from_nanos(at);
            if self.decide(&probe) != current {
                return Some(probe.now);
            }
        }
        None
    }
}

/// One version of a usage policy as every enforcement point holds it: the
/// decoded [`UsagePolicy`] and, compiled against
/// [`PurposeTaxonomy::shared_standard`] the first time a trusted
/// application needs it, its [`PolicyProgram`]. Index entries and TEE
/// copies share one `Rc` of it per version, so a policy is decoded and
/// compiled once however many devices hold it, and a version that is only
/// indexed never pays for a program.
#[derive(Debug)]
pub struct PolicyVersion {
    policy: UsagePolicy,
    program: OnceCell<PolicyProgram>,
}

impl PolicyVersion {
    /// The compiled form of this version, compiled on first use.
    pub fn program(&self) -> &PolicyProgram {
        (self.program).get_or_init(|| compile(&self.policy, PurposeTaxonomy::shared_standard()))
    }
}

impl Deref for PolicyVersion {
    type Target = UsagePolicy;

    fn deref(&self) -> &UsagePolicy {
        &self.policy
    }
}

impl From<UsagePolicy> for Rc<PolicyVersion> {
    fn from(policy: UsagePolicy) -> Rc<PolicyVersion> {
        Rc::new(PolicyVersion {
            policy,
            program: OnceCell::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PolicyEngine;
    use crate::model::{Duty, Rule};

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

    fn program(policy: &UsagePolicy) -> PolicyProgram {
        compile(policy, engine().taxonomy())
    }

    fn sample_policy() -> UsagePolicy {
        UsagePolicy::builder("p", "urn:r", "urn:o")
            .permit(
                Rule::permit([Action::Use])
                    .with_constraint(Constraint::Purpose(vec![Purpose::new("medical")]))
                    .with_constraint(Constraint::MaxRetention(SimDuration::from_secs(600)))
                    .with_constraint(Constraint::ExpiresAt(SimTime::from_secs(2000))),
            )
            .rule(Rule::prohibit([Action::Distribute]))
            .duty(Duty::DeleteWithin(SimDuration::from_secs(600)))
            .build()
    }

    #[test]
    fn decide_matches_engine_on_the_sample() {
        let policy = sample_policy();
        let prog = program(&policy);
        let engine = engine();
        for action in Action::ALL {
            for purpose in ["medical-research", "marketing", "any"] {
                for now in [0u64, 500, 1000, 1101, 1102, 2000, 5000] {
                    let mut c = ctx();
                    c.action = action;
                    c.purpose = Purpose::new(purpose);
                    c.now = SimTime::from_secs(now);
                    assert_eq!(
                        prog.decide(&c),
                        engine.evaluate(&policy, &c),
                        "{action} {purpose} at {now}s"
                    );
                }
            }
        }
    }

    #[test]
    fn next_transition_finds_the_retention_flip() {
        let policy = sample_policy();
        let prog = program(&policy);
        let c = ctx(); // acquired at 500 s, retention 600 s → flip just past 1100 s
        let flip = prog.next_transition(&c).expect("a flip exists");
        assert_eq!(
            flip,
            SimTime::from_nanos(SimTime::from_secs(1100).as_nanos() + 1)
        );
        assert!(prog.decide(&c).is_permit());
        let mut at_flip = c.clone();
        at_flip.now = flip;
        assert!(!prog.decide(&at_flip).is_permit());
        // One nanosecond earlier the decision is unchanged.
        let mut before = c.clone();
        before.now = SimTime::from_nanos(flip.as_nanos() - 1);
        assert!(prog.decide(&before).is_permit());
    }

    #[test]
    fn next_transition_is_none_when_constant() {
        let policy = UsagePolicy::builder("p", "urn:r", "urn:o")
            .permit(Rule::permit([Action::Use]))
            .build();
        let prog = program(&policy);
        assert_eq!(prog.next_transition(&ctx()), None);
        // Prohibited action: constant deny.
        let policy = UsagePolicy::builder("p", "urn:r", "urn:o")
            .rule(Rule::prohibit([Action::Read]))
            .permit(
                Rule::permit([Action::Read])
                    .with_constraint(Constraint::ExpiresAt(SimTime::from_secs(2000))),
            )
            .build();
        assert_eq!(program(&policy).next_transition(&ctx()), None);
    }

    #[test]
    fn next_transition_skips_non_decisive_boundaries() {
        // Rule 1 permits forever; rule 2 expires. The expiry boundary flips
        // nothing because rule 1 keeps permitting.
        let policy = UsagePolicy::builder("p", "urn:r", "urn:o")
            .permit(Rule::permit([Action::Use]))
            .permit(
                Rule::permit([Action::Read])
                    .with_constraint(Constraint::ExpiresAt(SimTime::from_secs(2000))),
            )
            .build();
        assert_eq!(program(&policy).next_transition(&ctx()), None);
    }

    #[test]
    fn window_edges_are_transitions() {
        let policy = UsagePolicy::builder("p", "urn:r", "urn:o")
            .permit(
                Rule::permit([Action::Use]).with_constraint(Constraint::TimeWindow {
                    not_before: SimTime::from_secs(2000),
                    not_after: SimTime::from_secs(3000),
                }),
            )
            .build();
        let prog = program(&policy);
        let mut c = ctx();
        c.now = SimTime::from_secs(1000);
        assert_eq!(prog.next_transition(&c), Some(SimTime::from_secs(2000)));
        c.now = SimTime::from_secs(2000);
        assert_eq!(prog.next_transition(&c), Some(SimTime::from_secs(3000)));
        c.now = SimTime::from_secs(3000);
        assert_eq!(prog.next_transition(&c), None);
    }

    #[test]
    fn purpose_closure_matches_taxonomy() {
        let policy = UsagePolicy::builder("p", "urn:r", "urn:o")
            .permit(
                Rule::permit([Action::Use])
                    .with_constraint(Constraint::Purpose(vec![Purpose::new("medical")])),
            )
            .build();
        let prog = program(&policy);
        let mut c = ctx();
        for (purpose, permitted) in [
            ("medical", true),
            ("medical-research", true),
            ("university-hospital-research", true),
            ("research", false),
            ("marketing", false),
            ("unheard-of", false),
        ] {
            c.purpose = Purpose::new(purpose);
            assert_eq!(prog.decide(&c).is_permit(), permitted, "{purpose}");
        }
    }

    #[test]
    fn next_deadline_mirrors_the_tee_rule() {
        let prog = program(&sample_policy());
        let acquired = SimTime::from_secs(500);
        assert_eq!(
            prog.next_deadline(acquired, acquired),
            Some(SimTime::from_secs(1100)),
            "retention before expiry"
        );
        // A late policy application floors the deadline.
        let applied = SimTime::from_secs(1500);
        assert_eq!(prog.next_deadline(acquired, applied), Some(applied));
        assert!(!prog.count_sensitive());
    }

    #[test]
    fn a_version_compiles_its_program_once_on_first_use() {
        let version: Rc<PolicyVersion> = sample_policy().into();
        assert!(version.program.get().is_none(), "indexing compiles nothing");
        let first: *const PolicyProgram = version.program();
        assert!(std::ptr::eq(first, version.program()), "compiled once");
        let reference = program(&sample_policy());
        for action in [Action::Read, Action::Use, Action::Distribute] {
            let c = UsageContext { action, ..ctx() };
            assert_eq!(version.program().decide(&c), reference.decide(&c));
        }
    }
}
