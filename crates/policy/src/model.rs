//! The usage-policy data model.
//!
//! A [`UsagePolicy`] governs one resource. It contains [`Rule`]s —
//! permissions or prohibitions over [`Action`]s, each qualified by
//! [`Constraint`]s — plus policy-level [`Duty`]s (UCON *obligations*) that a
//! compliant consumer device must discharge (e.g. delete the copy after the
//! retention window).

use std::fmt;

use duc_codec::{Decode, DecodeError, Encode, Reader};
use duc_sim::{SimDuration, SimTime};

/// An action a consumer may perform on a resource copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Action {
    /// Any use at all (the ODRL umbrella action).
    Use,
    /// Read / display the content.
    Read,
    /// Derive or modify local copies.
    Modify,
    /// Delete the local copy.
    Delete,
    /// Share the content onward to third parties.
    Distribute,
}

impl Action {
    /// All actions, for iteration in tests and benches.
    pub const ALL: [Action; 5] = [
        Action::Use,
        Action::Read,
        Action::Modify,
        Action::Delete,
        Action::Distribute,
    ];

    /// Whether `self` subsumes `other` (`Use` covers everything except
    /// `Distribute`, which must always be granted explicitly).
    pub(crate) fn subsumes(self, other: Action) -> bool {
        self == other || (self == Action::Use && other != Action::Distribute)
    }

    /// Stable wire tag.
    fn tag(self) -> u8 {
        match self {
            Action::Use => 0,
            Action::Read => 1,
            Action::Modify => 2,
            Action::Delete => 3,
            Action::Distribute => 4,
        }
    }

    fn from_tag(tag: u8) -> Option<Action> {
        Some(match tag {
            0 => Action::Use,
            1 => Action::Read,
            2 => Action::Modify,
            3 => Action::Delete,
            4 => Action::Distribute,
            _ => return None,
        })
    }

    /// The DSL keyword for this action.
    pub fn keyword(self) -> &'static str {
        match self {
            Action::Use => "use",
            Action::Read => "read",
            Action::Modify => "modify",
            Action::Delete => "delete",
            Action::Distribute => "distribute",
        }
    }

    /// Parses a DSL keyword.
    pub(crate) fn from_keyword(kw: &str) -> Option<Action> {
        Some(match kw {
            "use" => Action::Use,
            "read" => Action::Read,
            "modify" => Action::Modify,
            "delete" => Action::Delete,
            "distribute" => Action::Distribute,
            _ => return None,
        })
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

impl Encode for Action {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(self.tag());
    }
}

impl Decode for Action {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let tag = r.read_u8()?;
        Action::from_tag(tag).ok_or(DecodeError::InvalidTag {
            tag,
            type_name: "Action",
        })
    }
}

/// A usage purpose (e.g. `medical-research`). Purposes form a hierarchy via
/// [`crate::taxonomy::PurposeTaxonomy`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Purpose(String);

impl Purpose {
    /// Creates a purpose from its identifier.
    pub fn new(id: impl Into<String>) -> Purpose {
        Purpose(id.into())
    }

    /// The wildcard purpose that any request satisfies.
    pub fn any() -> Purpose {
        Purpose::new("any")
    }

    /// The identifier.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Purpose {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Encode for Purpose {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
}

impl Decode for Purpose {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Purpose(String::decode(r)?))
    }
}

/// Permit or prohibit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Effect {
    /// The rule grants the listed actions (subject to constraints).
    Permit,
    /// The rule forbids the listed actions outright.
    Prohibit,
}

impl Encode for Effect {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(matches!(self, Effect::Prohibit) as u8);
    }
}

impl Decode for Effect {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.read_u8()? {
            0 => Ok(Effect::Permit),
            1 => Ok(Effect::Prohibit),
            tag => Err(DecodeError::InvalidTag {
                tag,
                type_name: "Effect",
            }),
        }
    }
}

/// A condition limiting when a permit rule applies.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Constraint {
    /// The copy may be kept at most this long after acquisition.
    MaxRetention(SimDuration),
    /// The copy may not be used at or after this absolute instant.
    ExpiresAt(SimTime),
    /// Usage must declare one of these purposes (or a descendant).
    Purpose(Vec<Purpose>),
    /// At most this many accesses in total.
    MaxAccessCount(u64),
    /// Only these WebIDs may exercise the rule.
    AllowedRecipients(Vec<String>),
    /// Usage only within `[not_before, not_after)`.
    TimeWindow {
        /// Earliest permitted instant.
        not_before: SimTime,
        /// First forbidden instant.
        not_after: SimTime,
    },
}

const CONSTRAINT_MAX_RETENTION: u8 = 0;
const CONSTRAINT_EXPIRES_AT: u8 = 1;
const CONSTRAINT_PURPOSE: u8 = 2;
const CONSTRAINT_MAX_ACCESS: u8 = 3;
const CONSTRAINT_RECIPIENTS: u8 = 4;
const CONSTRAINT_TIME_WINDOW: u8 = 5;

impl Encode for Constraint {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Constraint::MaxRetention(d) => {
                buf.push(CONSTRAINT_MAX_RETENTION);
                d.as_nanos().encode(buf);
            }
            Constraint::ExpiresAt(t) => {
                buf.push(CONSTRAINT_EXPIRES_AT);
                t.as_nanos().encode(buf);
            }
            Constraint::Purpose(ps) => {
                buf.push(CONSTRAINT_PURPOSE);
                ps.encode(buf);
            }
            Constraint::MaxAccessCount(n) => {
                buf.push(CONSTRAINT_MAX_ACCESS);
                n.encode(buf);
            }
            Constraint::AllowedRecipients(agents) => {
                buf.push(CONSTRAINT_RECIPIENTS);
                agents.encode(buf);
            }
            Constraint::TimeWindow {
                not_before,
                not_after,
            } => {
                buf.push(CONSTRAINT_TIME_WINDOW);
                not_before.as_nanos().encode(buf);
                not_after.as_nanos().encode(buf);
            }
        }
    }
}

impl Decode for Constraint {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let tag = r.read_u8()?;
        Ok(match tag {
            CONSTRAINT_MAX_RETENTION => {
                Constraint::MaxRetention(SimDuration::from_nanos(u64::decode(r)?))
            }
            CONSTRAINT_EXPIRES_AT => Constraint::ExpiresAt(SimTime::from_nanos(u64::decode(r)?)),
            CONSTRAINT_PURPOSE => Constraint::Purpose(Vec::decode(r)?),
            CONSTRAINT_MAX_ACCESS => Constraint::MaxAccessCount(u64::decode(r)?),
            CONSTRAINT_RECIPIENTS => Constraint::AllowedRecipients(Vec::decode(r)?),
            CONSTRAINT_TIME_WINDOW => Constraint::TimeWindow {
                not_before: SimTime::from_nanos(u64::decode(r)?),
                not_after: SimTime::from_nanos(u64::decode(r)?),
            },
            _ => {
                return Err(DecodeError::InvalidTag {
                    tag,
                    type_name: "Constraint",
                })
            }
        })
    }
}

/// An obligation the consumer's trusted environment must discharge.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Duty {
    /// Delete the copy within this duration of acquisition.
    DeleteWithin(SimDuration),
    /// Notify the owner of each access within this duration.
    NotifyOwnerWithin(SimDuration),
    /// Record every access in the local usage log (monitoring evidence).
    LogAccesses,
}

const DUTY_DELETE_WITHIN: u8 = 0;
const DUTY_NOTIFY: u8 = 1;
const DUTY_LOG: u8 = 2;

impl Encode for Duty {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Duty::DeleteWithin(d) => {
                buf.push(DUTY_DELETE_WITHIN);
                d.as_nanos().encode(buf);
            }
            Duty::NotifyOwnerWithin(d) => {
                buf.push(DUTY_NOTIFY);
                d.as_nanos().encode(buf);
            }
            Duty::LogAccesses => buf.push(DUTY_LOG),
        }
    }
}

impl Decode for Duty {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let tag = r.read_u8()?;
        Ok(match tag {
            DUTY_DELETE_WITHIN => Duty::DeleteWithin(SimDuration::from_nanos(u64::decode(r)?)),
            DUTY_NOTIFY => Duty::NotifyOwnerWithin(SimDuration::from_nanos(u64::decode(r)?)),
            DUTY_LOG => Duty::LogAccesses,
            _ => {
                return Err(DecodeError::InvalidTag {
                    tag,
                    type_name: "Duty",
                })
            }
        })
    }
}

/// One rule: an effect over actions, gated by constraints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// Permit or prohibit.
    pub effect: Effect,
    /// The actions the rule covers.
    pub actions: Vec<Action>,
    /// Conditions limiting a permit (ignored for prohibitions' matching).
    pub constraints: Vec<Constraint>,
}

impl Rule {
    /// A permit rule over the given actions.
    pub fn permit(actions: impl IntoIterator<Item = Action>) -> Rule {
        Rule {
            effect: Effect::Permit,
            actions: actions.into_iter().collect(),
            constraints: Vec::new(),
        }
    }

    /// A prohibition over the given actions.
    pub fn prohibit(actions: impl IntoIterator<Item = Action>) -> Rule {
        Rule {
            effect: Effect::Prohibit,
            actions: actions.into_iter().collect(),
            constraints: Vec::new(),
        }
    }

    /// Adds a constraint (builder style).
    pub fn with_constraint(mut self, c: Constraint) -> Rule {
        self.constraints.push(c);
        self
    }

    /// Whether this rule's action list covers `action`.
    pub fn covers(&self, action: Action) -> bool {
        self.actions.iter().any(|a| a.subsumes(action))
    }
}

impl Encode for Rule {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.effect.encode(buf);
        self.actions.encode(buf);
        self.constraints.encode(buf);
    }
}

impl Decode for Rule {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Rule {
            effect: Effect::decode(r)?,
            actions: Vec::decode(r)?,
            constraints: Vec::decode(r)?,
        })
    }
}

/// A usage policy for one resource.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsagePolicy {
    /// Policy identifier (unique per resource version stream).
    pub id: String,
    /// IRI of the governed resource.
    pub resource: String,
    /// WebID of the data owner (the only agent allowed to modify it).
    pub owner: String,
    /// Monotonically increasing version, bumped on every modification.
    pub version: u64,
    /// The rules.
    pub rules: Vec<Rule>,
    /// Policy-level obligations.
    pub duties: Vec<Duty>,
}

impl UsagePolicy {
    /// Starts building a policy (version 1, no rules).
    pub fn builder(
        id: impl Into<String>,
        resource: impl Into<String>,
        owner: impl Into<String>,
    ) -> UsagePolicyBuilder {
        UsagePolicyBuilder {
            policy: UsagePolicy {
                id: id.into(),
                resource: resource.into(),
                owner: owner.into(),
                version: 1,
                rules: Vec::new(),
                duties: Vec::new(),
            },
        }
    }

    /// A permissive default policy: permit `Use` to any authenticated agent,
    /// log accesses. This is the policy a pod manager attaches at pod
    /// initiation (paper process 1).
    pub fn default_for(resource: impl Into<String>, owner: impl Into<String>) -> UsagePolicy {
        let resource = resource.into();
        UsagePolicy::builder(format!("{resource}#default-policy"), resource, owner)
            .permit(Rule::permit([Action::Use]))
            .duty(Duty::LogAccesses)
            .build()
    }

    /// Returns a copy with `rules`/`duties` replaced and the version bumped —
    /// the policy-modification process (paper process 5) uses this.
    pub fn amended(&self, rules: Vec<Rule>, duties: Vec<Duty>) -> UsagePolicy {
        UsagePolicy {
            id: self.id.clone(),
            resource: self.resource.clone(),
            owner: self.owner.clone(),
            version: self.version + 1,
            rules,
            duties,
        }
    }

    /// The effective retention bound, if any: the minimum across
    /// `MaxRetention` constraints and `DeleteWithin` duties.
    pub fn retention_bound(&self) -> Option<SimDuration> {
        let mut bound: Option<SimDuration> = None;
        let mut consider = |d: SimDuration| {
            bound = Some(match bound {
                Some(b) if b <= d => b,
                _ => d,
            });
        };
        for rule in &self.rules {
            for c in &rule.constraints {
                if let Constraint::MaxRetention(d) = c {
                    consider(*d);
                }
            }
        }
        for duty in &self.duties {
            if let Duty::DeleteWithin(d) = duty {
                consider(*d);
            }
        }
        bound
    }

    /// The absolute expiry bound, if any (minimum across `ExpiresAt`).
    pub fn expiry_bound(&self) -> Option<SimTime> {
        self.rules
            .iter()
            .flat_map(|r| &r.constraints)
            .filter_map(|c| match c {
                Constraint::ExpiresAt(t) => Some(*t),
                _ => None,
            })
            .min()
    }
}

impl Encode for UsagePolicy {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.id.encode(buf);
        self.resource.encode(buf);
        self.owner.encode(buf);
        self.version.encode(buf);
        self.rules.encode(buf);
        self.duties.encode(buf);
    }
}

impl Decode for UsagePolicy {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(UsagePolicy {
            id: String::decode(r)?,
            resource: String::decode(r)?,
            owner: String::decode(r)?,
            version: u64::decode(r)?,
            rules: Vec::decode(r)?,
            duties: Vec::decode(r)?,
        })
    }
}

/// Builder for [`UsagePolicy`].
#[derive(Debug, Clone)]
pub struct UsagePolicyBuilder {
    policy: UsagePolicy,
}

impl UsagePolicyBuilder {
    /// Adds a rule (any effect).
    pub fn rule(mut self, rule: Rule) -> Self {
        self.policy.rules.push(rule);
        self
    }

    /// Adds a permit rule (alias of [`UsagePolicyBuilder::rule`] that reads
    /// better at call sites).
    pub fn permit(self, rule: Rule) -> Self {
        self.rule(rule)
    }

    /// Adds a policy-level duty.
    pub fn duty(mut self, duty: Duty) -> Self {
        self.policy.duties.push(duty);
        self
    }

    /// Sets an explicit version (default 1).
    pub fn version(mut self, version: u64) -> Self {
        self.policy.version = version;
        self
    }

    /// Finishes the policy.
    pub fn build(self) -> UsagePolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duc_codec::{decode_from_slice, encode_to_vec};

    fn sample_policy() -> UsagePolicy {
        UsagePolicy::builder("p1", "urn:res", "urn:owner")
            .permit(
                Rule::permit([Action::Use, Action::Read])
                    .with_constraint(Constraint::Purpose(vec![Purpose::new("research")]))
                    .with_constraint(Constraint::MaxRetention(SimDuration::from_days(7)))
                    .with_constraint(Constraint::MaxAccessCount(10))
                    .with_constraint(Constraint::AllowedRecipients(vec!["urn:alice".into()]))
                    .with_constraint(Constraint::TimeWindow {
                        not_before: SimTime::from_secs(0),
                        not_after: SimTime::from_secs(1_000_000),
                    })
                    .with_constraint(Constraint::ExpiresAt(SimTime::from_secs(500_000))),
            )
            .rule(Rule::prohibit([Action::Distribute]))
            .duty(Duty::DeleteWithin(SimDuration::from_days(7)))
            .duty(Duty::NotifyOwnerWithin(SimDuration::from_hours(1)))
            .duty(Duty::LogAccesses)
            .build()
    }

    #[test]
    fn action_subsumption() {
        assert!(Action::Use.subsumes(Action::Read));
        assert!(Action::Use.subsumes(Action::Modify));
        assert!(
            !Action::Use.subsumes(Action::Distribute),
            "distribute needs explicit grant"
        );
        assert!(Action::Read.subsumes(Action::Read));
        assert!(!Action::Read.subsumes(Action::Modify));
    }

    #[test]
    fn action_keywords_roundtrip() {
        for a in Action::ALL {
            assert_eq!(Action::from_keyword(a.keyword()), Some(a));
        }
        assert_eq!(Action::from_keyword("nonsense"), None);
    }

    #[test]
    fn rule_covers_respects_subsumption() {
        let rule = Rule::permit([Action::Use]);
        assert!(rule.covers(Action::Read));
        assert!(!rule.covers(Action::Distribute));
        let dist = Rule::permit([Action::Distribute]);
        assert!(dist.covers(Action::Distribute));
    }

    #[test]
    fn policy_codec_roundtrip() {
        let p = sample_policy();
        let bytes = encode_to_vec(&p);
        let back: UsagePolicy = decode_from_slice(&bytes).expect("decode");
        assert_eq!(back, p);
    }

    #[test]
    fn corrupt_constraint_tag_rejected() {
        let mut bytes = encode_to_vec(&Constraint::MaxAccessCount(5));
        bytes[0] = 99;
        assert!(decode_from_slice::<Constraint>(&bytes).is_err());
    }

    #[test]
    fn amended_bumps_version_and_keeps_identity() {
        let p = sample_policy();
        let p2 = p.amended(vec![Rule::permit([Action::Read])], vec![]);
        assert_eq!(p2.version, p.version + 1);
        assert_eq!(p2.id, p.id);
        assert_eq!(p2.resource, p.resource);
        assert_eq!(p2.rules.len(), 1);
    }

    #[test]
    fn retention_bound_is_minimum() {
        let p = UsagePolicy::builder("p", "urn:r", "urn:o")
            .permit(
                Rule::permit([Action::Use])
                    .with_constraint(Constraint::MaxRetention(SimDuration::from_days(30))),
            )
            .duty(Duty::DeleteWithin(SimDuration::from_days(7)))
            .build();
        assert_eq!(p.retention_bound(), Some(SimDuration::from_days(7)));
        let no_bound = UsagePolicy::builder("p", "urn:r", "urn:o").build();
        assert_eq!(no_bound.retention_bound(), None);
    }

    #[test]
    fn expiry_bound_is_minimum() {
        let p = UsagePolicy::builder("p", "urn:r", "urn:o")
            .permit(
                Rule::permit([Action::Use])
                    .with_constraint(Constraint::ExpiresAt(SimTime::from_secs(100)))
                    .with_constraint(Constraint::ExpiresAt(SimTime::from_secs(50))),
            )
            .build();
        assert_eq!(p.expiry_bound(), Some(SimTime::from_secs(50)));
    }

    #[test]
    fn default_policy_shape() {
        let p = UsagePolicy::default_for("urn:res", "urn:owner");
        assert_eq!(p.version, 1);
        assert_eq!(p.rules.len(), 1);
        assert!(matches!(p.rules[0].effect, Effect::Permit));
        assert!(p.duties.contains(&Duty::LogAccesses));
        assert!(p.id.contains("urn:res"));
    }

    #[test]
    fn purpose_display_and_any() {
        assert_eq!(Purpose::new("x").to_string(), "x");
        assert_eq!(Purpose::any().as_str(), "any");
    }
}
