//! The compiled-program equivalence gates.
//!
//! 1. For arbitrary policy × context, [`PolicyProgram::decide`] is
//!    decision-equivalent to the rule-walking reference interpreter in
//!    `reference/` ([`PolicyEngine::evaluate`]) — the full [`Decision`]
//!    value including deny-reason lists.
//! 2. [`PolicyProgram::next_transition`] never skips a decision flip: the
//!    decision is constant strictly before the returned instant, the
//!    returned instant itself observes a different decision, and a `None`
//!    means the decision never changes again.

mod reference;

use duc_policy::prelude::*;
use duc_policy::{compile, PolicyProgram};
use duc_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use reference::PolicyEngine;

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
        Just(Purpose::new("university-hospital-research")),
        Just(Purpose::new("academic")),
        Just(Purpose::new("marketing")),
        Just(Purpose::any()),
        "[a-z]{1,8}".prop_map(Purpose::new),
    ]
}

fn arb_constraint() -> impl Strategy<Value = Constraint> {
    prop_oneof![
        (0u64..5_000).prop_map(|s| Constraint::MaxRetention(SimDuration::from_secs(s))),
        (0u64..10_000).prop_map(|s| Constraint::ExpiresAt(SimTime::from_secs(s))),
        proptest::collection::vec(arb_purpose(), 1..4).prop_map(Constraint::Purpose),
        (0u64..100).prop_map(Constraint::MaxAccessCount),
        proptest::collection::vec("[a-z]{1,6}", 1..3).prop_map(|agents| {
            Constraint::AllowedRecipients(agents.into_iter().map(|a| format!("urn:{a}")).collect())
        }),
        (0u64..6_000, 0u64..6_000).prop_map(|(a, b)| Constraint::TimeWindow {
            not_before: SimTime::from_secs(a.min(b)),
            not_after: SimTime::from_secs(a.max(b)),
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

fn arb_policy() -> impl Strategy<Value = UsagePolicy> {
    (
        proptest::collection::vec(arb_rule(), 0..5),
        proptest::collection::vec(
            prop_oneof![
                (1u64..10_000).prop_map(|s| Duty::DeleteWithin(SimDuration::from_secs(s))),
                Just(Duty::LogAccesses),
            ],
            0..2,
        ),
    )
        .prop_map(|(rules, duties)| {
            let mut b = UsagePolicy::builder("urn:p", "urn:r", "urn:o");
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
        0u64..8_000,
        0u64..4_000,
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

fn program(policy: &UsagePolicy, engine: &PolicyEngine) -> PolicyProgram {
    compile(policy, engine.taxonomy())
}

/// The program and the reference agree on a sample policy over every
/// action, purposes inside and outside its closure, and instants around
/// its retention and expiry edges.
#[test]
fn decide_matches_the_reference_on_the_sample() {
    let policy = UsagePolicy::builder("p", "urn:r", "urn:o")
        .permit(
            Rule::permit([Action::Use])
                .with_constraint(Constraint::Purpose(vec![Purpose::new("medical")]))
                .with_constraint(Constraint::MaxRetention(SimDuration::from_secs(600)))
                .with_constraint(Constraint::ExpiresAt(SimTime::from_secs(2000))),
        )
        .rule(Rule::prohibit([Action::Distribute]))
        .duty(Duty::DeleteWithin(SimDuration::from_secs(600)))
        .build();
    let engine = PolicyEngine::default();
    let prog = program(&policy, &engine);
    for action in Action::ALL {
        for purpose in ["medical-research", "marketing", "any"] {
            for now in [0u64, 500, 1000, 1101, 1102, 2000, 5000] {
                let c = UsageContext {
                    consumer: "urn:alice".into(),
                    action,
                    purpose: Purpose::new(purpose),
                    now: SimTime::from_secs(now),
                    acquired_at: SimTime::from_secs(500),
                    access_count: 1,
                };
                assert_eq!(
                    prog.decide(&c),
                    engine.evaluate(&policy, &c),
                    "{action} {purpose} at {now}s"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `PolicyProgram::decide` ≡ the reference's `evaluate`, as full
    /// `Decision` values (permits, deny reasons and their order).
    #[test]
    fn decide_is_decision_equivalent(policy in arb_policy(), ctx in arb_ctx()) {
        let engine = PolicyEngine::default();
        let prog = program(&policy, &engine);
        prop_assert_eq!(prog.decide(&ctx), engine.evaluate(&policy, &ctx));
    }

    /// `next_transition` returns exactly the first future decision flip:
    /// sampled instants strictly before it keep the current decision, the
    /// returned instant observes a different one, and `None` pins the
    /// decision for every sampled future instant.
    #[test]
    fn next_transition_never_skips_a_flip(
        policy in arb_policy(),
        ctx in arb_ctx(),
        probe_offsets in proptest::collection::vec(1u64..20_000_000_000_000, 4),
    ) {
        let engine = PolicyEngine::default();
        let prog = program(&policy, &engine);
        let current = prog.decide(&ctx);
        match prog.next_transition(&ctx) {
            Some(flip) => {
                prop_assert!(flip > ctx.now, "flip must lie strictly in the future");
                // The flip instant really flips.
                let mut at = ctx.clone();
                at.now = flip;
                prop_assert_ne!(prog.decide(&at), current.clone());
                // Sampled instants in (now, flip) keep the decision: no
                // skipped flip before the returned instant.
                let span = flip.as_nanos() - ctx.now.as_nanos();
                for offset in &probe_offsets {
                    let delta = 1 + offset % span.max(1);
                    if delta >= span {
                        continue;
                    }
                    let mut mid = ctx.clone();
                    mid.now = SimTime::from_nanos(ctx.now.as_nanos() + delta);
                    prop_assert_eq!(
                        prog.decide(&mid),
                        current.clone(),
                        "decision flipped at {} before the declared transition {}",
                        mid.now,
                        flip
                    );
                }
            }
            None => {
                // No transition: the decision must hold at every sampled
                // future instant.
                for offset in &probe_offsets {
                    let mut later = ctx.clone();
                    later.now = SimTime::from_nanos(ctx.now.as_nanos().saturating_add(*offset));
                    prop_assert_eq!(
                        prog.decide(&later),
                        current.clone(),
                        "decision changed at {} but next_transition was None",
                        later.now
                    );
                }
            }
        }
    }

    /// Walking transition to transition visits every decision the program
    /// ever takes for the context: the decision at an arbitrary future
    /// instant equals the decision at the start of the interval containing
    /// it.
    #[test]
    fn transition_walk_reconstructs_future_decisions(
        policy in arb_policy(),
        ctx in arb_ctx(),
        horizon_secs in 1u64..20_000,
    ) {
        let engine = PolicyEngine::default();
        let prog = program(&policy, &engine);
        let target = SimTime::from_nanos(
            ctx.now
                .as_nanos()
                .saturating_add(SimDuration::from_secs(horizon_secs).as_nanos()),
        );
        // Walk the transition chain up to the target instant.
        let mut cursor = ctx.clone();
        let mut hops = 0;
        while let Some(flip) = prog.next_transition(&cursor) {
            if flip > target {
                break;
            }
            cursor.now = flip;
            hops += 1;
            prop_assert!(hops <= 64, "transition chains are finite and short");
        }
        // The interval containing `target` starts at `cursor.now`.
        let mut at_target = ctx.clone();
        at_target.now = target;
        prop_assert_eq!(prog.decide(&at_target), prog.decide(&cursor));
        prop_assert_eq!(prog.decide(&cursor), engine.evaluate(&policy, &cursor));
    }
}
