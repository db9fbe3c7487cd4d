//! Cross-representation property tests: a policy must survive round trips
//! through all three of its encodings — binary codec (on-chain), text DSL
//! (owner-facing), and RDF graph (pod-native) — and the representations
//! must agree with each other.

use duc_policy::prelude::*;
use duc_policy::PolicyEngine;
use duc_policy::{dsl, rdf_binding};
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

// RDF-safe purposes and agent IRIs (the binding requires IRI identity).
fn arb_purpose() -> impl Strategy<Value = Purpose> {
    "[a-z][a-z0-9-]{0,10}".prop_map(Purpose::new)
}

fn arb_constraint() -> impl Strategy<Value = Constraint> {
    prop_oneof![
        (1u64..100_000).prop_map(|s| Constraint::MaxRetention(SimDuration::from_secs(s))),
        (1u64..100_000).prop_map(|s| Constraint::ExpiresAt(SimTime::from_secs(s))),
        proptest::collection::vec(arb_purpose(), 1..4).prop_map(Constraint::Purpose),
        (0u64..1000).prop_map(Constraint::MaxAccessCount),
        proptest::collection::vec("[a-z]{1,8}", 1..3).prop_map(|agents| {
            Constraint::AllowedRecipients(
                agents
                    .into_iter()
                    .map(|a| format!("urn:agent:{a}"))
                    .collect(),
            )
        }),
        (0u64..500, 500u64..1000).prop_map(|(a, b)| Constraint::TimeWindow {
            not_before: SimTime::from_secs(a),
            not_after: SimTime::from_secs(b),
        }),
    ]
}

fn arb_policy() -> impl Strategy<Value = UsagePolicy> {
    (
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
        .prop_map(|(rules, duties, version)| {
            let mut b = UsagePolicy::builder(
                "urn:duc:policy:prop",
                "urn:duc:resource:prop",
                "urn:duc:owner:prop",
            )
            .version(version);
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

/// RDF graphs are unordered *sets* of statements; normalize order and
/// collapse duplicates (duplicate actions/purposes/recipients are
/// semantically meaningless and canonicalize away in RDF).
fn normalize(mut p: UsagePolicy) -> UsagePolicy {
    for r in &mut p.rules {
        r.actions.sort();
        r.actions.dedup();
        for c in &mut r.constraints {
            match c {
                Constraint::Purpose(ps) => {
                    ps.sort();
                    ps.dedup();
                }
                Constraint::AllowedRecipients(agents) => {
                    agents.sort();
                    agents.dedup();
                }
                _ => {}
            }
        }
        r.constraints.sort_by_key(|c| format!("{c:?}"));
    }
    p.rules.sort_by_key(|r| format!("{r:?}"));
    p.duties.sort_by_key(|d| format!("{d:?}"));
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// RDF graph binding is lossless (up to statement order).
    #[test]
    fn rdf_graph_roundtrip(policy in arb_policy()) {
        let graph = rdf_binding::policy_to_graph(&policy).expect("to_graph");
        let parsed = rdf_binding::policy_from_graph(&graph).expect("from_graph");
        prop_assert_eq!(normalize(parsed), normalize(policy));
    }

    /// The full pod-native path — graph → Turtle text → graph → policy —
    /// is also lossless.
    #[test]
    fn rdf_turtle_text_roundtrip(policy in arb_policy()) {
        let graph = rdf_binding::policy_to_graph(&policy).expect("to_graph");
        let text = duc_rdf::turtle::serialize(&graph);
        let graph2 = duc_rdf::turtle::parse(&text)
            .unwrap_or_else(|e| panic!("turtle reparse: {e}\n{text}"));
        let parsed = rdf_binding::policy_from_graph(&graph2).expect("from_graph");
        prop_assert_eq!(normalize(parsed), normalize(policy));
    }

    /// All three representations agree: decisions made by the engine are
    /// identical for the original policy, the DSL-roundtripped policy and
    /// the RDF-roundtripped policy.
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

        let via_dsl = dsl::parse(&dsl::serialize(&policy)).expect("dsl");
        prop_assert_eq!(engine.evaluate(&via_dsl, &ctx).is_permit(), original);

        let graph = rdf_binding::policy_to_graph(&policy).expect("graph");
        let via_rdf = rdf_binding::policy_from_graph(&graph).expect("parse");
        prop_assert_eq!(engine.evaluate(&via_rdf, &ctx).is_permit(), original);
    }

    /// Retention and expiry bounds survive every representation.
    #[test]
    fn bounds_survive_representations(policy in arb_policy()) {
        let via_dsl = dsl::parse(&dsl::serialize(&policy)).expect("dsl");
        prop_assert_eq!(via_dsl.retention_bound(), policy.retention_bound());
        prop_assert_eq!(via_dsl.expiry_bound(), policy.expiry_bound());
        let graph = rdf_binding::policy_to_graph(&policy).expect("graph");
        let via_rdf = rdf_binding::policy_from_graph(&graph).expect("parse");
        prop_assert_eq!(via_rdf.retention_bound(), policy.retention_bound());
        prop_assert_eq!(via_rdf.expiry_bound(), policy.expiry_bound());
    }
}
