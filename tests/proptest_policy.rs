//! Property tests on policy invariants.

use proptest::prelude::*;
use solid_usage_control::policy::dsl;
use solid_usage_control::policy::prelude::*;
use solid_usage_control::sim::{SimDuration, SimTime};

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        Just(Action::Use),
        Just(Action::Read),
        Just(Action::Modify),
        Just(Action::Delete),
        Just(Action::Distribute),
    ]
}

fn arb_purpose() -> impl Strategy<Value = Purpose> {
    prop_oneof![
        Just(Purpose::new("medical")),
        Just(Purpose::new("medical-research")),
        Just(Purpose::new("academic")),
        Just(Purpose::new("marketing")),
        Just(Purpose::any()),
        "[a-z]{1,8}".prop_map(Purpose::new),
    ]
}

fn arb_constraint() -> impl Strategy<Value = Constraint> {
    prop_oneof![
        (1u64..10_000).prop_map(|s| Constraint::MaxRetention(SimDuration::from_secs(s))),
        (1u64..10_000).prop_map(|s| Constraint::ExpiresAt(SimTime::from_secs(s))),
        proptest::collection::vec(arb_purpose(), 1..4).prop_map(Constraint::Purpose),
        (0u64..100).prop_map(Constraint::MaxAccessCount),
        proptest::collection::vec("[a-z]{1,6}", 1..3).prop_map(|agents| {
            Constraint::AllowedRecipients(agents.into_iter().map(|a| format!("urn:{a}")).collect())
        }),
        (0u64..500, 500u64..1000).prop_map(|(a, b)| Constraint::TimeWindow {
            not_before: SimTime::from_secs(a),
            not_after: SimTime::from_secs(b),
        }),
    ]
}

fn arb_rule() -> impl Strategy<Value = Rule> {
    (
        any::<bool>(),
        proptest::collection::vec(arb_action(), 1..4),
        proptest::collection::vec(arb_constraint(), 0..4),
    )
        .prop_map(|(permit, actions, constraints)| {
            let mut rule = if permit {
                Rule::permit(actions)
            } else {
                Rule::prohibit(actions)
            };
            for c in constraints {
                rule = rule.with_constraint(c);
            }
            rule
        })
}

fn arb_duty() -> impl Strategy<Value = Duty> {
    prop_oneof![
        (1u64..10_000).prop_map(|s| Duty::DeleteWithin(SimDuration::from_secs(s))),
        (1u64..10_000).prop_map(|s| Duty::NotifyOwnerWithin(SimDuration::from_secs(s))),
        Just(Duty::LogAccesses),
    ]
}

fn arb_policy() -> impl Strategy<Value = UsagePolicy> {
    (
        proptest::collection::vec(arb_rule(), 0..5),
        proptest::collection::vec(arb_duty(), 0..3),
        1u64..100,
    )
        .prop_map(|(rules, duties, version)| {
            let mut b = UsagePolicy::builder("urn:duc:policy", "urn:duc:resource", "urn:duc:owner")
                .version(version);
            for r in rules {
                b = b.rule(r);
            }
            for d in duties {
                b = b.duty(d);
            }
            b.build()
        })
}

fn arb_ctx() -> impl Strategy<Value = UsageContext> {
    (
        arb_action(),
        arb_purpose(),
        0u64..2_000,
        0u64..1_000,
        0u64..120,
    )
        .prop_map(|(action, purpose, now, acquired, count)| UsageContext {
            consumer: "urn:consumer".into(),
            action,
            purpose,
            now: SimTime::from_secs(now.max(acquired)),
            acquired_at: SimTime::from_secs(acquired),
            access_count: count,
        })
}

/// The decision the TEE takes: the policy compiled against the standard
/// purpose taxonomy, then decided.
fn decide(policy: &UsagePolicy, ctx: &UsageContext) -> Decision {
    compile(policy, &PurposeTaxonomy::standard()).decide(ctx)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Serializing any policy to the DSL and parsing it back is lossless.
    #[test]
    fn dsl_roundtrip(policy in arb_policy()) {
        let text = dsl::serialize(&policy);
        let reparsed = dsl::parse(&text)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n---\n{text}"));
        prop_assert_eq!(reparsed, policy, "\n{}", text);
    }

    /// Codec roundtrip is lossless for arbitrary policies.
    #[test]
    fn codec_roundtrip(policy in arb_policy()) {
        let bytes = solid_usage_control::codec::encode_to_vec(&policy);
        let back: UsagePolicy = solid_usage_control::codec::decode_from_slice(&bytes).unwrap();
        prop_assert_eq!(back, policy);
    }

    /// Tightening: adding a constraint to every permit rule never turns a
    /// Deny into a Permit (policy evaluation is monotone in constraints).
    #[test]
    fn adding_constraints_never_widens(policy in arb_policy(), ctx in arb_ctx(), extra in arb_constraint()) {
        let before = decide(&policy, &ctx);
        let mut tightened = policy.clone();
        for rule in &mut tightened.rules {
            if rule.effect == Effect::Permit {
                rule.constraints.push(extra.clone());
            }
        }
        let after = decide(&tightened, &ctx);
        prop_assert!(
            !(matches!(before, Decision::Deny(_)) && after.is_permit()),
            "tightening turned deny into permit: before={:?} after={:?}",
            before, after
        );
    }

    /// Adding a prohibition never turns a Deny into a Permit either.
    #[test]
    fn adding_prohibition_never_widens(policy in arb_policy(), ctx in arb_ctx(), action in arb_action()) {
        let before = decide(&policy, &ctx);
        let mut tightened = policy.clone();
        tightened.rules.push(Rule::prohibit([action]));
        let after = decide(&tightened, &ctx);
        prop_assert!(
            !(matches!(before, Decision::Deny(_)) && after.is_permit()),
            "prohibition widened access"
        );
    }

    /// An empty policy denies everything (default deny).
    #[test]
    fn default_deny(ctx in arb_ctx()) {
        let empty = UsagePolicy::builder("urn:p", "urn:r", "urn:o").build();
        prop_assert!(!decide(&empty, &ctx).is_permit());
    }

    /// The retention bound is always the minimum of the stated bounds.
    #[test]
    fn retention_bound_is_min(policy in arb_policy()) {
        let mut stated: Vec<u64> = Vec::new();
        for rule in &policy.rules {
            for c in &rule.constraints {
                if let Constraint::MaxRetention(d) = c {
                    stated.push(d.as_nanos());
                }
            }
        }
        for d in &policy.duties {
            if let Duty::DeleteWithin(dur) = d {
                stated.push(dur.as_nanos());
            }
        }
        let expected = stated.iter().min().copied().map(SimDuration::from_nanos);
        prop_assert_eq!(policy.retention_bound(), expected);
    }

    /// `amended` always bumps the version by exactly one and preserves
    /// identity fields.
    #[test]
    fn amended_bumps_version(policy in arb_policy()) {
        let amended = policy.amended(vec![], vec![]);
        prop_assert_eq!(amended.version, policy.version + 1);
        prop_assert_eq!(amended.id, policy.id);
        prop_assert_eq!(amended.resource, policy.resource);
        prop_assert_eq!(amended.owner, policy.owner);
    }
}
