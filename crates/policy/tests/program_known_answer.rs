//! The compiled program's known answer: the SHA-256 of the `Debug` output
//! of `decide`, `next_transition` and `next_deadline` over a fixed grid of
//! policies and contexts.
//!
//! The policies are an empty one, a prohibition beside a permit, one per
//! `Constraint` kind, one per `Duty` kind, and purposes nested in the
//! standard taxonomy. The contexts cover all five actions, purposes inside
//! and outside each purpose closure, instants one nanosecond either side of
//! every retention, expiry and window edge, access counts around each
//! limit, listed and unlisted recipients, and policies applied at and after
//! acquisition. Never re-record the digest: a rewrite of the program must
//! reproduce it.

use std::fmt::Write as _;

use duc_crypto::sha256;
use duc_policy::prelude::*;
use duc_sim::{SimDuration, SimTime};

const PINNED_SHA256: &str = "fb5f959f44d9f8ee269022bce797e30b71496194372746fe48dd9b8a38662b57";

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// `at` and one nanosecond either side of it.
fn around(at: SimTime) -> [SimTime; 3] {
    let n = at.as_nanos();
    [
        SimTime::from_nanos(n.saturating_sub(1)),
        at,
        SimTime::from_nanos(n + 1),
    ]
}

fn policy(name: &str) -> duc_policy::model::UsagePolicyBuilder {
    UsagePolicy::builder(format!("urn:p:{name}"), "urn:r", "urn:o")
}

/// Each policy with its name.
fn policies() -> Vec<(&'static str, UsagePolicy)> {
    let use_ = || Rule::permit([Action::Use]);
    vec![
        ("empty", policy("empty").build()),
        (
            "prohibition",
            policy("prohibition")
                .permit(Rule::permit([Action::Use, Action::Distribute]))
                .rule(Rule::prohibit([Action::Distribute, Action::Modify]))
                .build(),
        ),
        (
            "retention",
            policy("retention")
                .permit(
                    use_().with_constraint(Constraint::MaxRetention(SimDuration::from_secs(100))),
                )
                .build(),
        ),
        (
            "expiry",
            policy("expiry")
                .permit(use_().with_constraint(Constraint::ExpiresAt(secs(700))))
                .build(),
        ),
        (
            "purpose",
            policy("purpose")
                .permit(use_().with_constraint(Constraint::Purpose(vec![Purpose::new("medical")])))
                .build(),
        ),
        (
            "count",
            policy("count")
                .permit(use_().with_constraint(Constraint::MaxAccessCount(3)))
                .build(),
        ),
        (
            "recipients",
            policy("recipients")
                .permit(use_().with_constraint(Constraint::AllowedRecipients(vec![
                    "urn:alice".into(),
                    "urn:carol".into(),
                ])))
                .build(),
        ),
        (
            "window",
            policy("window")
                .permit(use_().with_constraint(Constraint::TimeWindow {
                    not_before: secs(900),
                    not_after: secs(1100),
                }))
                .build(),
        ),
        (
            "duties",
            policy("duties")
                .permit(use_())
                .duty(Duty::DeleteWithin(SimDuration::from_secs(250)))
                .duty(Duty::NotifyOwnerWithin(SimDuration::from_secs(60)))
                .duty(Duty::LogAccesses)
                .build(),
        ),
        (
            "nested purposes",
            policy("nested purposes")
                .permit(
                    Rule::permit([Action::Read])
                        .with_constraint(Constraint::Purpose(vec![
                            Purpose::new("academic-research"),
                            Purpose::new("web-analytics"),
                        ]))
                        .with_constraint(Constraint::MaxAccessCount(1)),
                )
                .permit(
                    Rule::permit([Action::Use])
                        .with_constraint(Constraint::Purpose(vec![Purpose::new("research")]))
                        .with_constraint(Constraint::MaxRetention(SimDuration::from_secs(300)))
                        .with_constraint(Constraint::ExpiresAt(secs(1050))),
                )
                .rule(Rule::prohibit([Action::Delete]))
                .build(),
        ),
        (
            "everything",
            policy("everything")
                .permit(
                    Rule::permit([Action::Use])
                        .with_constraint(Constraint::Purpose(vec![Purpose::any()]))
                        .with_constraint(Constraint::MaxRetention(SimDuration::from_secs(400)))
                        .with_constraint(Constraint::ExpiresAt(secs(1000)))
                        .with_constraint(Constraint::MaxAccessCount(2))
                        .with_constraint(Constraint::AllowedRecipients(vec!["urn:alice".into()]))
                        .with_constraint(Constraint::TimeWindow {
                            not_before: secs(600),
                            not_after: secs(950),
                        }),
                )
                .rule(Rule::prohibit([Action::Distribute]))
                .duty(Duty::DeleteWithin(SimDuration::from_secs(350)))
                .duty(Duty::NotifyOwnerWithin(SimDuration::from_secs(30)))
                .build(),
        ),
    ]
}

/// Copies are acquired at 500 s, so the retention edges of the policies
/// above fall at 600, 750, 800, 850 and 900 s.
const ACQUIRED: u64 = 500;

fn instants() -> Vec<SimTime> {
    let mut at: Vec<SimTime> = [500, 600, 700, 750, 800, 850, 900, 950, 1000, 1050, 1100]
        .into_iter()
        .flat_map(|s| around(secs(s)))
        .collect();
    at.extend([secs(0), secs(10_000)]);
    at
}

fn render() -> String {
    let taxonomy = PurposeTaxonomy::standard();
    let purposes = [
        "medical",
        "medical-research",
        "university-hospital-research",
        "academic-research",
        "web-analytics",
        "research",
        "academic",
        "marketing",
        "any",
        "unheard-of",
    ];
    let mut out = String::new();
    for (name, policy) in policies() {
        let program = compile(&policy, &taxonomy);
        let _ = writeln!(out, "=== {name}");
        for applied in [500, 650, 800, 1200] {
            let _ = writeln!(
                out,
                "deadline applied={applied} {:?}",
                program.next_deadline(secs(ACQUIRED), secs(applied))
            );
        }
        for action in Action::ALL {
            for purpose in purposes {
                for consumer in ["urn:alice", "urn:bob"] {
                    for access_count in [0, 1, 2, 3, 4] {
                        for now in instants() {
                            let ctx = UsageContext {
                                consumer: consumer.into(),
                                action,
                                purpose: Purpose::new(purpose),
                                now,
                                acquired_at: secs(ACQUIRED),
                                access_count,
                            };
                            let _ = writeln!(
                                out,
                                "{action} {purpose} {consumer} #{access_count} @{} {:?} {:?}",
                                now.as_nanos(),
                                program.decide(&ctx),
                                program.next_transition(&ctx)
                            );
                        }
                    }
                }
            }
        }
    }
    out
}

#[test]
fn program_matches_its_known_answer() {
    let text = render();
    // The grid reaches every outcome the program has.
    for seen in [
        " Permit ",
        "NoMatchingPermit",
        "Prohibited",
        "RetentionExceeded",
        "Expired",
        "PurposeNotAllowed",
        "AccessCountExhausted",
        "RecipientNotAllowed",
        "OutsideTimeWindow",
        " Some(",
        "deadline applied=500 Some(",
        "deadline applied=1200 Some(",
    ] {
        assert!(text.contains(seen), "no {seen:?} in the grid");
    }
    let digest = sha256(text.as_bytes()).to_hex();
    assert_eq!(digest, PINNED_SHA256, "{} lines", text.lines().count());
}
