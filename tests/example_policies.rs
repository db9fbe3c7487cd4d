//! The policies the examples attach at resource initiation, built with
//! `UsagePolicy::builder`. Each value's wire encoding is pinned by its
//! SHA-256 (consensus bytes: never re-record). Both literals were recorded
//! while each value was also checked equal to the policy its example used
//! to parse from text, before the text syntax was deleted.

use solid_usage_control::codec::encode_to_vec;
use solid_usage_control::core::scenario;
use solid_usage_control::crypto::sha256;
use solid_usage_control::prelude::*;

/// `quickstart`'s policy: medical purposes only, 30-day retention, no
/// onward distribution.
fn quickstart_policy() -> UsagePolicy {
    UsagePolicy::builder(
        "https://bob.pod/data/medical.ttl#policy",
        "https://bob.pod/data/medical.ttl",
        "https://bob.id/me",
    )
    .permit(
        Rule::permit([Action::Use])
            .with_constraint(Constraint::Purpose(vec![Purpose::new("medical")]))
            .with_constraint(Constraint::MaxRetention(SimDuration::from_days(30))),
    )
    .rule(Rule::prohibit([Action::Distribute]))
    .duty(Duty::DeleteWithin(SimDuration::from_days(30)))
    .duty(Duty::LogAccesses)
    .build()
}

/// `revocation_and_faults`'s policy.
fn feed_policy() -> UsagePolicy {
    scenario::population_policy(
        "https://owner.pod/data/feed.json",
        "https://owner.id/me",
        30,
    )
}

#[test]
fn example_policies_match_their_known_answers() {
    for (policy, expected) in [
        (
            quickstart_policy(),
            "0eea083e24d8a71b0b77878286e52dece0c9d9ad17193277013e13d4841c8d86",
        ),
        (
            feed_policy(),
            "32475f4bc968bfda278dce8680ce0d079ec93973d996c7fa7c9dd7839a40b1e8",
        ),
    ] {
        assert_eq!(
            sha256(&encode_to_vec(&policy)).to_hex(),
            expected,
            "{policy:?}"
        );
    }
}
