//! The policy interpreter: compiled policy programs.
//!
//! [`compile`] lowers a [`UsagePolicy`] into a compact [`PolicyProgram`],
//! the one piece of code that reads a policy's rules and duties to decide a
//! use or to schedule an obligation; trusted applications and the
//! obligation scheduler read the program alone. A TEE re-evaluates the
//! *same* policy against near-identical contexts on every local access, and
//! the obligation scheduler needs to know *when* a decision can change, not
//! just what it is now, so the program holds:
//!
//! * per-rule **action masks** (the `subsumes` relation pre-applied over
//!   all five actions),
//! * **pre-resolved constraint tables** — the purpose-taxonomy closure is
//!   baked into a satisfied-purpose set, recipients into a lookup set,
//! * pre-extracted **retention/expiry bounds** for obligation scheduling.
//!
//! Its entry points:
//!
//! * [`PolicyProgram::decide`] — pre-authorization and *ongoing*
//!   re-evaluation of a [`UsageContext`], with machine-readable
//!   [`DenyReason`]s so the TEE can map them to enforcement actions;
//!   proptest-gated in `tests/proptest_compile.rs` against a rule-walking
//!   reference interpreter kept with the tests (identical [`Decision`]
//!   values, including deny-reason lists),
//! * [`PolicyProgram::next_transition`] — the next instant at which the
//!   decision for this context can change (retention deadline, expiry,
//!   time-window edge), or `None` when it is constant for all future time.
//!   The deadline-driven enforcement pipeline (`duc_tee` decision cache,
//!   `duc_core` obligation scheduler) schedules wakeups at exactly these
//!   instants instead of polling,
//! * [`PolicyProgram::retention_due`] and [`PolicyProgram::expiry_due`] —
//!   when a copy must be gone under the version in force — and
//!   [`PolicyProgram::next_deadline`], the earlier of the two.
//!
//! A [`PolicyVersion`] is one decoded policy with its program, compiled on
//! first use, and its owner-notification windows, read without compiling.

use std::cell::OnceCell;
use std::collections::BTreeSet;
use std::ops::Deref;
use std::rc::Rc;

use duc_sim::{SimDuration, SimTime};

use crate::model::{Action, Constraint, Duty, Effect, Purpose, UsagePolicy};
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
    /// when satisfied.
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

    /// When a copy acquired at `acquired_at` must be deleted under the
    /// retention bound, given that this version was applied locally at
    /// `applied_at`: `max(acquired_at + bound, applied_at)`, because a
    /// tightened bound never falls due before the device learned of it.
    /// `None` when the policy bounds no retention.
    pub fn retention_due(&self, acquired_at: SimTime, applied_at: SimTime) -> Option<SimTime> {
        self.retention_bound
            .map(|bound| (acquired_at + bound).max(applied_at))
    }

    /// When a copy must be deleted under the policy's absolute expiry,
    /// given that this version was applied locally at `applied_at`:
    /// `max(expiry, applied_at)`. `None` when the policy never expires.
    pub fn expiry_due(&self, applied_at: SimTime) -> Option<SimTime> {
        self.expiry_bound.map(|at| at.max(applied_at))
    }

    /// The earlier of [`PolicyProgram::retention_due`] and
    /// [`PolicyProgram::expiry_due`]: the instant the obligation scheduler
    /// registers a copy's wakeup at.
    pub fn next_deadline(&self, acquired_at: SimTime, applied_at: SimTime) -> Option<SimTime> {
        match (
            self.retention_due(acquired_at, applied_at),
            self.expiry_due(applied_at),
        ) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (due, None) | (None, due) => due,
        }
    }

    /// Evaluates `ctx` against the source policy.
    ///
    /// Semantics (deny-overrides, in UCON terms pre+ongoing authorization):
    /// 1. any prohibition covering the action denies;
    /// 2. otherwise some permit rule must cover the action *and* have all
    ///    its constraints satisfied;
    /// 3. if no rule matches at all, the default is deny.
    ///
    /// A deny lists the violated constraints of every covering permit rule,
    /// in rule then constraint order, consecutive repeats dropped.
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
/// decoded [`UsagePolicy`]; its owner-notification windows, extracted when
/// the version is built; and, compiled against
/// [`PurposeTaxonomy::shared_standard`] the first time a trusted
/// application needs it, its [`PolicyProgram`]. Index entries and TEE
/// copies share one `Rc` of it per version, so a policy is decoded and
/// compiled once however many devices hold it, and a version that is only
/// indexed never pays for a program.
#[derive(Debug)]
pub struct PolicyVersion {
    policy: UsagePolicy,
    notify_windows: Box<[SimDuration]>,
    program: OnceCell<PolicyProgram>,
}

impl PolicyVersion {
    /// The compiled form of this version, compiled on first use.
    pub fn program(&self) -> &PolicyProgram {
        (self.program).get_or_init(|| compile(&self.policy, PurposeTaxonomy::shared_standard()))
    }

    /// The windows of the version's [`Duty::NotifyOwnerWithin`] duties, in
    /// declaration order: a device applying the version owes its owner a
    /// notification within each. Reading them compiles nothing.
    pub fn notify_windows(&self) -> &[SimDuration] {
        &self.notify_windows
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
        let notify_windows = (policy.duties.iter())
            .filter_map(|duty| match duty {
                Duty::NotifyOwnerWithin(window) => Some(*window),
                _ => None,
            })
            .collect();
        Rc::new(PolicyVersion {
            policy,
            notify_windows,
            program: OnceCell::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Rule;

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

    fn program(policy: &UsagePolicy) -> PolicyProgram {
        compile(policy, &PurposeTaxonomy::standard())
    }

    fn decide(policy: &UsagePolicy, ctx: &UsageContext) -> Decision {
        program(policy).decide(ctx)
    }

    fn policy_with(rule: Rule) -> UsagePolicy {
        UsagePolicy::builder("p", "urn:r", "urn:owner")
            .permit(rule)
            .build()
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
    fn due_instants_floor_at_the_application_and_the_deadline_is_their_minimum() {
        let prog = program(&sample_policy()); // retention 600 s, expiry 2000 s
        let acquired = SimTime::from_secs(500);
        let (retention, expiry) = (SimTime::from_secs(1100), SimTime::from_secs(2000));
        for (applied, due_retention, due_expiry) in [
            (acquired, retention, expiry),
            // A late policy application floors the retention deadline ...
            (SimTime::from_secs(1500), SimTime::from_secs(1500), expiry),
            // ... and the expiry too.
            (
                SimTime::from_secs(2500),
                SimTime::from_secs(2500),
                SimTime::from_secs(2500),
            ),
        ] {
            assert_eq!(prog.retention_due(acquired, applied), Some(due_retention));
            assert_eq!(prog.expiry_due(applied), Some(due_expiry));
            let first = due_retention.min(due_expiry);
            assert_eq!(prog.next_deadline(acquired, applied), Some(first));
        }
        // Either bound alone is the deadline; neither is none.
        let expiry_only =
            policy_with(Rule::permit([Action::Use]).with_constraint(Constraint::ExpiresAt(expiry)));
        let prog = program(&expiry_only);
        assert_eq!(prog.retention_due(acquired, acquired), None);
        assert_eq!(prog.next_deadline(acquired, acquired), Some(expiry));
        let retention_only = UsagePolicy::builder("p", "urn:r", "urn:o")
            .permit(Rule::permit([Action::Use]))
            .duty(Duty::DeleteWithin(SimDuration::from_secs(600)))
            .build();
        let prog = program(&retention_only);
        assert_eq!(prog.expiry_due(acquired), None);
        assert_eq!(prog.next_deadline(acquired, acquired), Some(retention));
        let unbounded = program(&policy_with(Rule::permit([Action::Use])));
        assert_eq!(unbounded.next_deadline(acquired, acquired), None);
        assert!(!unbounded.count_sensitive());
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

    #[test]
    fn notify_windows_are_read_without_compiling() {
        let version: Rc<PolicyVersion> = UsagePolicy::builder("p", "urn:r", "urn:o")
            .permit(Rule::permit([Action::Use]))
            .duty(Duty::NotifyOwnerWithin(SimDuration::from_secs(60)))
            .duty(Duty::LogAccesses)
            .duty(Duty::DeleteWithin(SimDuration::from_secs(600)))
            .duty(Duty::NotifyOwnerWithin(SimDuration::from_secs(5)))
            .build()
            .into();
        assert_eq!(
            version.notify_windows(),
            [SimDuration::from_secs(60), SimDuration::from_secs(5)]
        );
        assert!(version.program.get().is_none(), "reading compiled nothing");
        let silent: Rc<PolicyVersion> = sample_policy().into();
        assert!(silent.notify_windows().is_empty());
    }

    #[test]
    fn empty_policy_denies_by_default() {
        let p = UsagePolicy::builder("p", "urn:r", "urn:o").build();
        let d = decide(&p, &ctx());
        assert!(!d.is_permit());
        assert_eq!(d.reasons(), &[DenyReason::NoMatchingPermit(Action::Read)]);
    }

    #[test]
    fn unconstrained_permit_permits() {
        let p = policy_with(Rule::permit([Action::Use]));
        assert!(decide(&p, &ctx()).is_permit());
    }

    #[test]
    fn prohibition_overrides_permit() {
        let p = UsagePolicy::builder("p", "urn:r", "urn:o")
            .permit(Rule::permit([Action::Use, Action::Distribute]))
            .rule(Rule::prohibit([Action::Distribute]))
            .build();
        let mut c = ctx();
        c.action = Action::Distribute;
        let d = decide(&p, &c);
        assert_eq!(d.reasons(), &[DenyReason::Prohibited(Action::Distribute)]);
        // Other actions are unaffected.
        assert!(decide(&p, &ctx()).is_permit());
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
        assert!(decide(&p, &c).is_permit(), "within window");
        c.now = SimTime::from_secs(601);
        assert_eq!(decide(&p, &c).reasons(), &[DenyReason::RetentionExceeded]);
    }

    #[test]
    fn expiry_constraint_enforced() {
        let p = policy_with(
            Rule::permit([Action::Use])
                .with_constraint(Constraint::ExpiresAt(SimTime::from_secs(700))),
        );
        let mut c = ctx();
        c.now = SimTime::from_secs(699);
        assert!(decide(&p, &c).is_permit());
        c.now = SimTime::from_secs(700);
        assert_eq!(decide(&p, &c).reasons(), &[DenyReason::Expired]);
    }

    #[test]
    fn purpose_constraint_uses_taxonomy() {
        let p = policy_with(
            Rule::permit([Action::Use])
                .with_constraint(Constraint::Purpose(vec![Purpose::new("medical")])),
        );
        assert!(decide(&p, &ctx()).is_permit(), "medical-research < medical");
        let mut c = ctx();
        c.purpose = Purpose::new("marketing");
        match &decide(&p, &c).reasons()[0] {
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
        assert!(decide(&p, &c).is_permit(), "at limit is fine");
        c.access_count = 4;
        assert_eq!(
            decide(&p, &c).reasons(),
            &[DenyReason::AccessCountExhausted { limit: 3 }]
        );
    }

    #[test]
    fn recipient_constraint() {
        let p = policy_with(
            Rule::permit([Action::Use])
                .with_constraint(Constraint::AllowedRecipients(vec!["urn:bob".into()])),
        );
        let d = decide(&p, &ctx());
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
        assert!(decide(&p, &ctx()).is_permit());
        let mut c = ctx();
        c.now = SimTime::from_secs(1100);
        assert_eq!(decide(&p, &c).reasons(), &[DenyReason::OutsideTimeWindow]);
        c.now = SimTime::from_secs(899);
        assert_eq!(decide(&p, &c).reasons(), &[DenyReason::OutsideTimeWindow]);
    }

    #[test]
    fn time_window_edges_are_half_open() {
        // The window is `[not_before, not_after)`: the start instant is
        // included, the end instant excluded — checked to the nanosecond.
        let not_before = SimTime::from_secs(900);
        let not_after = SimTime::from_secs(1100);
        let prog = program(&policy_with(Rule::permit([Action::Use]).with_constraint(
            Constraint::TimeWindow {
                not_before,
                not_after,
            },
        )));
        let at = |now: SimTime| {
            let mut c = ctx();
            c.now = now;
            prog.decide(&c)
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
        let prog = program(&policy_with(
            Rule::permit([Action::Use])
                .with_constraint(Constraint::MaxRetention(SimDuration::from_secs(100)))
                .with_constraint(Constraint::ExpiresAt(SimTime::from_secs(700))),
        ));
        let mut c = ctx();
        c.acquired_at = SimTime::from_secs(500);
        c.now = SimTime::from_secs(600); // exactly at the retention bound
        assert!(prog.decide(&c).is_permit());
        c.now = SimTime::from_nanos(SimTime::from_secs(600).as_nanos() + 1);
        assert_eq!(prog.decide(&c).reasons(), &[DenyReason::RetentionExceeded]);
        c.acquired_at = SimTime::from_secs(650);
        c.now = SimTime::from_nanos(SimTime::from_secs(700).as_nanos() - 1);
        assert!(prog.decide(&c).is_permit());
        c.now = SimTime::from_secs(700);
        assert_eq!(prog.decide(&c).reasons(), &[DenyReason::Expired]);
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
        assert!(decide(&p, &ctx()).is_permit(), "second rule matches");
    }

    #[test]
    fn multiple_violated_constraints_all_reported() {
        let p = policy_with(
            Rule::permit([Action::Use])
                .with_constraint(Constraint::MaxAccessCount(0))
                .with_constraint(Constraint::Purpose(vec![Purpose::new("marketing")])),
        );
        let d = decide(&p, &ctx());
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
        assert!(decide(&original, &c).is_permit());
        let amended = original.amended(
            vec![Rule::permit([Action::Use])
                .with_constraint(Constraint::MaxRetention(SimDuration::from_days(7)))],
            vec![Duty::DeleteWithin(SimDuration::from_days(7))],
        );
        assert_eq!(
            decide(&amended, &c).reasons(),
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
