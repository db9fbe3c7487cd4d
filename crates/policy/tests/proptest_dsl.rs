//! DSL round-trip property: `parse(serialize(p)) == p` for arbitrary
//! generated policies (satellite of the compiled-policy refactor; the
//! workspace-level `tests/proptest_policy.rs` keeps the umbrella-crate
//! variant).
//!
//! And the parser on hostile text: on arbitrary strings, on every
//! single-character mutation and every truncation of a serialized policy,
//! `parse` returns an error or a policy that `serialize` writes back to
//! itself — it never panics. Duration literals too large for a
//! `SimDuration` (`max-retention 213504d` wrapped to about 25 minutes) are
//! a syntax error.

use duc_policy::prelude::*;
use duc_policy::PolicyEngine;
use duc_policy::{dsl, PolicyError};
use duc_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// A policy whose retention is one day past the largest `SimDuration`.
const OVERFLOWING: &str =
    r#"policy "p" for "urn:r" owner "urn:o" { permit use where max-retention 213504d; }"#;

/// Durations the DSL can express exactly (whole milliseconds).
fn arb_duration() -> impl Strategy<Value = SimDuration> {
    (1u64..100_000).prop_map(SimDuration::from_millis)
}

/// Instants the DSL can express exactly (whole-millisecond offsets from
/// the epoch).
fn arb_instant() -> impl Strategy<Value = SimTime> {
    (0u64..100_000).prop_map(|ms| SimTime::ZERO + SimDuration::from_millis(ms))
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        Just(Action::Use),
        Just(Action::Read),
        Just(Action::Modify),
        Just(Action::Delete),
        Just(Action::Distribute),
    ]
}

/// Purposes that tokenize as DSL identifiers.
fn arb_purpose() -> impl Strategy<Value = Purpose> {
    "[a-z][a-z0-9-]{0,12}".prop_map(Purpose::new)
}

fn arb_constraint() -> impl Strategy<Value = Constraint> {
    prop_oneof![
        arb_duration().prop_map(Constraint::MaxRetention),
        arb_instant().prop_map(Constraint::ExpiresAt),
        proptest::collection::vec(arb_purpose(), 1..4).prop_map(Constraint::Purpose),
        (0u64..10_000).prop_map(Constraint::MaxAccessCount),
        proptest::collection::vec("[a-zA-Z0-9:/._-]{1,16}", 1..3).prop_map(|agents| {
            Constraint::AllowedRecipients(agents.into_iter().map(|a| format!("urn:{a}")).collect())
        }),
        (arb_instant(), arb_duration()).prop_map(|(from, len)| Constraint::TimeWindow {
            not_before: from,
            not_after: from + len,
        }),
    ]
}

fn arb_rule() -> impl Strategy<Value = Rule> {
    (
        any::<bool>(),
        proptest::collection::vec(arb_action(), 1..5),
        proptest::collection::vec(arb_constraint(), 0..5),
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
        arb_duration().prop_map(Duty::DeleteWithin),
        arb_duration().prop_map(Duty::NotifyOwnerWithin),
        Just(Duty::LogAccesses),
    ]
}

fn arb_policy() -> impl Strategy<Value = UsagePolicy> {
    (
        "[a-zA-Z0-9:/._#-]{1,24}",
        "[a-zA-Z0-9:/._#-]{1,24}",
        "[a-zA-Z0-9:/._#-]{1,24}",
        proptest::collection::vec(arb_rule(), 0..6),
        proptest::collection::vec(arb_duty(), 0..4),
        1u64..1_000,
    )
        .prop_map(|(id, resource, owner, rules, duties, version)| {
            let mut b = UsagePolicy::builder(id, resource, owner).version(version);
            for r in rules {
                b = b.rule(r);
            }
            for d in duties {
                b = b.duty(d);
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Serializing any generated policy to the DSL and parsing it back is
    /// the identity.
    #[test]
    fn parse_serialize_roundtrip(policy in arb_policy()) {
        let text = dsl::serialize(&policy);
        let reparsed = dsl::parse(&text)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n---\n{text}"));
        prop_assert_eq!(reparsed, policy, "\n{}", text);
    }

    /// The round trip also preserves engine decisions (a weaker property
    /// that catches "equal but differently interpreted" regressions).
    #[test]
    fn roundtrip_preserves_decisions(
        policy in arb_policy(),
        action in arb_action(),
        now in 0u64..200_000,
    ) {
        let engine = PolicyEngine::default();
        let ctx = UsageContext {
            consumer: "urn:consumer".into(),
            action,
            purpose: Purpose::new("medical"),
            now: SimTime::ZERO + SimDuration::from_millis(now),
            acquired_at: SimTime::ZERO,
            access_count: 1,
        };
        let via_dsl = dsl::parse(&dsl::serialize(&policy)).expect("roundtrip");
        prop_assert_eq!(
            engine.evaluate(&via_dsl, &ctx),
            engine.evaluate(&policy, &ctx)
        );
    }
}

/// `parse(text)` is an error, or a policy that serializes to text parsing
/// back to the same policy. A panic fails the case (the runner catches it).
fn parses_to_a_fixpoint(text: &str) -> Result<(), TestCaseError> {
    if let Ok(policy) = dsl::parse(text) {
        let written = dsl::serialize(&policy);
        prop_assert_eq!(dsl::parse(&written), Ok(policy), "\n{}", written);
    }
    Ok(())
}

/// Strings near the DSL's alphabet (keywords, quotes, escapes, digits with
/// unit suffixes) and far from it, plus the overflow regression.
fn arb_text() -> impl Strategy<Value = String> {
    prop_oneof![
        3 => "[ -~\\n\\t]{0,160}",
        2 => "[a-z0-9\"\\\\ {};,\\[\\].#-]{0,120}",
        1 => "\\PC{0,60}",
        1 => Just(OVERFLOWING.to_string()),
    ]
}

/// What a serialized policy is mutated from: generated policies and the
/// overflow regression.
fn arb_source() -> impl Strategy<Value = String> {
    prop_oneof![
        6 => arb_policy().prop_map(|p| dsl::serialize(&p)),
        1 => Just(OVERFLOWING.to_string()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary text never panics the parser.
    #[test]
    fn parse_never_panics_on_arbitrary_text(text in arb_text()) {
        parses_to_a_fixpoint(&text)?;
    }

    /// One character of a serialized policy replaced, inserted or removed.
    #[test]
    fn parse_never_panics_on_single_character_mutations(
        source in arb_source(),
        at in any::<usize>(),
        op in 0u8..3,
        c in "[ -~\\n]",
    ) {
        let mut chars: Vec<char> = source.chars().collect();
        let at = at % (chars.len() + 1);
        let c = c.chars().next().expect("one character");
        match op {
            0 if at < chars.len() => chars[at] = c,
            1 if at < chars.len() => {
                chars.remove(at);
            }
            _ => chars.insert(at, c),
        }
        parses_to_a_fixpoint(&chars.into_iter().collect::<String>())?;
    }

    /// Every prefix of a serialized policy, cut at each character boundary.
    #[test]
    fn parse_never_panics_on_truncations(source in arb_source()) {
        for (at, _) in source.char_indices() {
            parses_to_a_fixpoint(&source[..at])?;
        }
        parses_to_a_fixpoint(&source)?;
    }
}

/// The lexer's duration arithmetic is checked: the largest whole number of
/// days a `SimDuration` holds parses exactly, one more day is a syntax
/// error wherever a duration is read.
#[test]
fn duration_literals_past_the_range_are_syntax_errors() {
    let with = |clause: &str| format!(r#"policy "p" for "urn:r" owner "urn:o" {{ {clause} }}"#);
    let max_days = u64::MAX / SimDuration::from_days(1).as_nanos();
    assert_eq!(max_days, 213_503);
    let p = dsl::parse(&with("permit use where max-retention 213503d;")).expect("in range");
    assert_eq!(
        p.rules[0].constraints,
        vec![Constraint::MaxRetention(SimDuration::from_days(213_503))]
    );
    assert_eq!(
        dsl::parse(&with(&format!(
            "permit use where max-retention {}ms;",
            u64::MAX / 1_000_000
        )))
        .map(|_| ()),
        Ok(())
    );
    for clause in [
        "permit use where max-retention 213504d;",
        "permit use where expires-at 213504d;",
        "permit use where window 0s..213504d;",
        "permit use where window 18446744074s..1s;",
        "duty delete-within 5124096h;",
        "duty notify-within 307445735m;",
        "permit use where max-retention 18446744073710ms;",
    ] {
        match dsl::parse(&with(clause)) {
            Err(PolicyError::Syntax { message }) => {
                assert!(message.contains("overflows"), "{clause}: {message}");
            }
            other => panic!("{clause}: expected a syntax error, got {other:?}"),
        }
    }
    assert!(dsl::parse(OVERFLOWING).is_err());
}

/// Identifiers, resources, owners and recipients holding `"` or `\` are
/// written escaped, so they read back as written.
#[test]
fn quotes_and_backslashes_round_trip() {
    let policy = UsagePolicy::builder(r#"id "q" \ end"#, r"urn:r\", r#"""#)
        .permit(
            Rule::permit([Action::Use])
                .with_constraint(Constraint::AllowedRecipients(vec![r#"a"b\c"#.into()])),
        )
        .build();
    let text = dsl::serialize(&policy);
    assert_eq!(dsl::parse(&text), Ok(policy), "\n{text}");
}
