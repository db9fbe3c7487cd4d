//! A fixed sequence on one [`TrustedApplication`] — two copies stored,
//! permitted and denied accesses, a policy update narrowing a purpose, a
//! live copy re-stored, and a retention deadline enforced — pinned by the
//! SHA-256 of everything the application reports along the way: each
//! `report()`, `resources()`, `policy_version`, `next_deadline_for`,
//! `decision_cache_stats` and every call's own result, in `Debug` form.
//! The literal was recorded before the copy table was rewritten; never
//! re-record it.

use duc_policy::{Action, Constraint, Duty, Purpose, Rule, UsagePolicy};
use duc_sim::{SimDuration, SimTime};
use duc_tee::{Enclave, TrustedApplication};

const A: &str = "https://bob.pod/data/a-medical.ttl";
const B: &str = "https://bob.pod/data/b-weblogs.ttl";
const OWNER: &str = "https://bob.id/me";

const PINNED_SHA256: &str = "f429ed34c303acda268acf702a54e44b4860df66f4db5c8185b70bbb73a4ff28";

fn t(hours: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_hours(hours)
}

fn purpose_policy(purposes: &[&str], days: u64) -> UsagePolicy {
    UsagePolicy::builder(format!("{A}#policy"), A, OWNER)
        .permit(
            Rule::permit([Action::Use])
                .with_constraint(Constraint::Purpose(
                    purposes.iter().map(|p| Purpose::new(*p)).collect(),
                ))
                .with_constraint(Constraint::MaxRetention(SimDuration::from_days(days))),
        )
        .duty(Duty::LogAccesses)
        .duty(Duty::DeleteWithin(SimDuration::from_days(days)))
        .build()
}

fn retention_policy(days: u64) -> UsagePolicy {
    UsagePolicy::builder(format!("{B}#policy"), B, OWNER)
        .permit(
            Rule::permit([Action::Use])
                .with_constraint(Constraint::MaxRetention(SimDuration::from_days(days))),
        )
        .duty(Duty::DeleteWithin(SimDuration::from_days(days)))
        .build()
}

/// Appends what the application reports about every resource at `now`.
fn observe(app: &TrustedApplication, now: SimTime, out: &mut String) {
    let names: Vec<&str> = app.resources().collect();
    out.push_str(&format!("{now:?} resources {names:?}\n"));
    for name in [A, B, "urn:never-stored"] {
        let report = app.report(name, now);
        out.push_str(&format!(
            "{name} report {report:?} log {:?}\nversion {:?} next {:?}\n",
            report.as_ref().map(|r| r.log_digest.to_hex()),
            app.policy_version(name),
            app.next_deadline_for(name),
        ));
    }
    out.push_str(&format!("cache {:?}\n", app.decision_cache_stats()));
}

fn transcript() -> String {
    let mut app = TrustedApplication::new(
        Enclave::new("alice-laptop", b"trusted-app-v1"),
        "https://alice.id/me",
    );
    let mut out = String::new();
    let medical = || Purpose::new("medical");

    app.store_resource(A, b"patient rows", purpose_policy(&["medical"], 30), t(0));
    app.store_resource(B, b"web logs", retention_policy(7), t(1));
    observe(&app, t(1), &mut out);

    // Permitted, repeated (cache-served), denied by purpose, by action.
    for (name, action, purpose, at) in [
        (A, Action::Read, medical(), 2),
        (A, Action::Read, medical(), 3),
        (A, Action::Read, Purpose::new("marketing"), 4),
        (B, Action::Read, Purpose::any(), 5),
        (B, Action::Distribute, Purpose::any(), 6),
        (A, Action::Use, Purpose::new("medical-research"), 7),
    ] {
        out.push_str(&format!(
            "access {name} {action:?} {purpose:?} -> {:?}\n",
            app.access(name, action, purpose.clone(), t(at))
        ));
    }
    observe(&app, t(8), &mut out);

    // Narrow A's purposes: past medical uses stay compliant, new ones fail.
    let academic = purpose_policy(&["academic"], 30);
    let narrowed = purpose_policy(&["medical"], 30).amended(academic.rules, academic.duties);
    out.push_str(&format!(
        "update {:?}\n",
        app.apply_policy_update(A, narrowed, t(9))
    ));
    out.push_str(&format!(
        "access after narrowing {:?}\n",
        app.access(A, Action::Read, medical(), t(10))
    ));
    out.push_str(&format!(
        "access academic {:?}\n",
        app.access(A, Action::Read, Purpose::new("academic"), t(11))
    ));
    observe(&app, t(12), &mut out);

    // Re-store B while its copy is live: the row is replaced.
    app.store_resource(B, b"web logs v2", retention_policy(7), t(24));
    out.push_str(&format!(
        "access re-stored {:?}\n",
        app.access(B, Action::Read, Purpose::any(), t(25))
    ));
    observe(&app, t(26), &mut out);

    // Past B's retention deadline (7 days after its re-store): overdue
    // and still held, then enforced at the deadline itself.
    let due = t(24 + 7 * 24);
    observe(&app, t(24 + 7 * 24 + 1), &mut out);
    out.push_str(&format!("enforce B {:?}\n", app.enforce_due(B, due)));
    out.push_str(&format!("enforce A {:?}\n", app.enforce_due(A, due)));
    out.push_str(&format!(
        "enforce unknown {:?}\n",
        app.enforce_due("urn:never-stored", due)
    ));
    out.push_str(&format!(
        "access deleted {:?}\n",
        app.access(B, Action::Read, Purpose::any(), due)
    ));
    observe(&app, due, &mut out);
    out
}

#[test]
fn trusted_application_sequence_matches_its_known_answer() {
    let text = transcript();
    let digest = duc_crypto::sha256(text.as_bytes()).to_hex();
    assert_eq!(digest, PINNED_SHA256, "transcript:\n{text}");
}
