//! Cross-representation property tests: a policy must survive round trips
//! through both of its encodings — the binary codec (on-chain) and the text
//! DSL (owner-facing) — and the representations must agree with each other.
//!
//! Purposes, recipients and identities are arbitrary strings, the ones the
//! DSL has to quote or escape included: `"`, `\`, `,`, `]`, `:`, whitespace
//! and the empty string.

use duc_codec::{decode_from_slice, encode_to_vec};
use duc_policy::dsl;
use duc_policy::prelude::*;
use duc_policy::PolicyEngine;
use duc_sim::{SimDuration, SimTime};
use proptest::prelude::*;

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        Just(Action::Use),
        Just(Action::Read),
        Just(Action::Modify),
        Just(Action::Delete),
        Just(Action::Distribute),
    ]
}

/// Identifier-like words, printable ASCII, runs of the characters the DSL
/// quotes or escapes, any Unicode, and the empty string.
fn arb_text() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z][a-z0-9-]{0,10}",
        "[ -~]{0,12}",
        "[\"\\\\,\\]:a \\t\\n]{0,4}",
        "\\PC{0,8}",
        Just(String::new()),
    ]
}

fn arb_purpose() -> impl Strategy<Value = Purpose> {
    arb_text().prop_map(Purpose::new)
}

fn arb_constraint() -> impl Strategy<Value = Constraint> {
    prop_oneof![
        (1u64..100_000).prop_map(|s| Constraint::MaxRetention(SimDuration::from_secs(s))),
        (1u64..100_000).prop_map(|s| Constraint::ExpiresAt(SimTime::from_secs(s))),
        proptest::collection::vec(arb_purpose(), 1..4).prop_map(Constraint::Purpose),
        (0u64..1000).prop_map(Constraint::MaxAccessCount),
        proptest::collection::vec(arb_text(), 1..3).prop_map(Constraint::AllowedRecipients),
        (0u64..500, 500u64..1000).prop_map(|(a, b)| Constraint::TimeWindow {
            not_before: SimTime::from_secs(a),
            not_after: SimTime::from_secs(b),
        }),
    ]
}

fn arb_policy() -> impl Strategy<Value = UsagePolicy> {
    (
        (arb_text(), arb_text(), arb_text()),
        proptest::collection::vec(
            (
                any::<bool>(),
                proptest::collection::vec(arb_action(), 1..3),
                proptest::collection::vec(arb_constraint(), 0..3),
            ),
            0..4,
        ),
        proptest::collection::vec(
            prop_oneof![
                (1u64..100_000).prop_map(|s| Duty::DeleteWithin(SimDuration::from_secs(s))),
                (1u64..100_000).prop_map(|s| Duty::NotifyOwnerWithin(SimDuration::from_secs(s))),
                Just(Duty::LogAccesses),
            ],
            0..3,
        ),
        1u64..50,
    )
        .prop_map(|((id, resource, owner), rules, duties, version)| {
            let mut b = UsagePolicy::builder(id, resource, owner).version(version);
            for (permit, actions, constraints) in rules {
                let mut rule = if permit {
                    Rule::permit(actions)
                } else {
                    Rule::prohibit(actions)
                };
                for c in constraints {
                    rule = rule.with_constraint(c);
                }
                b = b.rule(rule);
            }
            for d in duties {
                b = b.duty(d);
            }
            b.build()
        })
}

fn via_codec(policy: &UsagePolicy) -> UsagePolicy {
    decode_from_slice(&encode_to_vec(policy)).expect("codec")
}

fn via_dsl(policy: &UsagePolicy) -> UsagePolicy {
    let text = dsl::serialize(policy);
    dsl::parse(&text).unwrap_or_else(|e| panic!("dsl reparse: {e}\n{text}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Both encodings are the identity, whatever strings the policy holds.
    #[test]
    fn encodings_roundtrip(policy in arb_policy()) {
        prop_assert_eq!(&via_codec(&policy), &policy);
        prop_assert_eq!(&via_dsl(&policy), &policy, "\n{}", dsl::serialize(&policy));
    }

    /// The representations agree: decisions made by the engine are
    /// identical for the original policy and the codec- and
    /// DSL-roundtripped policies.
    #[test]
    fn representations_agree_on_decisions(
        policy in arb_policy(),
        action in arb_action(),
        purpose in arb_purpose(),
        now in 0u64..200_000,
        count in 0u64..50,
    ) {
        let engine = PolicyEngine::default();
        let ctx = UsageContext {
            consumer: "urn:agent:x".into(),
            action,
            purpose,
            now: SimTime::from_secs(now),
            acquired_at: SimTime::from_secs(0),
            access_count: count,
        };
        let original = engine.evaluate(&policy, &ctx).is_permit();
        prop_assert_eq!(engine.evaluate(&via_codec(&policy), &ctx).is_permit(), original);
        prop_assert_eq!(engine.evaluate(&via_dsl(&policy), &ctx).is_permit(), original);
    }

    /// Retention and expiry bounds survive every representation.
    #[test]
    fn bounds_survive_representations(policy in arb_policy()) {
        for via in [via_codec(&policy), via_dsl(&policy)] {
            prop_assert_eq!(via.retention_bound(), policy.retention_bound());
            prop_assert_eq!(via.expiry_bound(), policy.expiry_bound());
        }
    }
}
