//! Codec property tests: a policy must survive a round trip through its
//! binary encoding (the bytes carried on-chain), and the decoded policy
//! must decide and bound exactly as the original does.
//!
//! Purposes, recipients and identities are arbitrary strings: `"`, `\`,
//! `,`, `]`, `:`, whitespace, any Unicode and the empty string included.

use duc_codec::{decode_from_slice, encode_to_vec};
use duc_policy::prelude::*;
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

/// Identifier-like words, printable ASCII, runs of quotes, backslashes,
/// separators and whitespace, any Unicode, and the empty string.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The encoding is the identity, whatever strings the policy holds.
    #[test]
    fn encodings_roundtrip(policy in arb_policy()) {
        prop_assert_eq!(&via_codec(&policy), &policy);
    }

    /// Decoding keeps the decisions: the compiled program decides
    /// identically for the original and the codec-roundtripped policy.
    #[test]
    fn representations_agree_on_decisions(
        policy in arb_policy(),
        action in arb_action(),
        purpose in arb_purpose(),
        now in 0u64..200_000,
        count in 0u64..50,
    ) {
        let taxonomy = PurposeTaxonomy::standard();
        let ctx = UsageContext {
            consumer: "urn:agent:x".into(),
            action,
            purpose,
            now: SimTime::from_secs(now),
            acquired_at: SimTime::from_secs(0),
            access_count: count,
        };
        let original = compile(&policy, &taxonomy).decide(&ctx).is_permit();
        let decoded = compile(&via_codec(&policy), &taxonomy).decide(&ctx);
        prop_assert_eq!(decoded.is_permit(), original);
    }

    /// Retention and expiry bounds survive the encoding.
    #[test]
    fn bounds_survive_representations(policy in arb_policy()) {
        let via = via_codec(&policy);
        prop_assert_eq!(via.retention_bound(), policy.retention_bound());
        prop_assert_eq!(via.expiry_bound(), policy.expiry_bound());
    }
}
