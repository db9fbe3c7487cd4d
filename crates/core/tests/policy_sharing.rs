//! What every holder of a policy observes, pinned over a small driven
//! world: 64 owners with two devices each, bulk-enrolled, then two waves of
//! process 3 (indexing) and process 4 (access) over a few hot resources,
//! direct TEE accesses, one process-5 update narrowing the hottest
//! resource's purposes, and one monitoring round of it. It runs once with
//! plaintext policy envelopes and once with encrypted ones.
//!
//! The transcript is every index entry (location, owner and the codec bytes
//! of its policy), every TEE's `report()`, `policy_version` and
//! `next_deadline_for` for each copy it holds, every pod manager's
//! `policy_for`, and the process-5 and monitoring outcomes. Its SHA-256 was
//! recorded while every (device, resource) pair held its own decoded policy
//! and compiled program; never re-record it.
//!
//! The tests after it hold what sharing adds: holders of one version share
//! one `Rc` of it (each other's, and their index entries'), an update is
//! shared the same way while earlier uses replay against the version they
//! were made under, and an envelope that does not decode surfaces its error
//! and leaves nothing in the world's policy table. The last one is also a
//! property over hostile envelopes: arbitrary bytes, and truncated or
//! byte-flipped valid ones, plain and sealed.

use std::rc::Rc;

use duc_contracts::PolicyEnvelope;
use duc_core::prelude::*;
use duc_core::scenario::{populate_population, PopulationSpec, POPULATION_PATH};
use duc_crypto::sha256;
use duc_tee::{AccessError, Enclave, TrustedApplication};
use proptest::prelude::*;

/// Both runs' transcript: encryption changes only the bytes on-chain.
const PINNED_SHA256: &str = "e03fc4268a1deca8434959ffdcda6036588cd4279ab1334f156bd7c3884caa05";

/// `(device, resource rank)` pairs of wave `w`: 48 pairs over 128 devices
/// and the eight hottest resources, so most resources have many holders.
fn wave(w: usize) -> Vec<(usize, usize)> {
    (0..48)
        .map(|k| ((k * 5 + w * 17) % 128, (k * (w + 1) + w) % 8))
        .collect()
}

/// Submits every request, runs the world idle and returns the outcomes in
/// submission order.
fn run_all(world: &mut World, requests: Vec<Request>) -> Vec<Outcome> {
    let tickets: Vec<Ticket> = requests.into_iter().map(|r| world.submit(r)).collect();
    world.run_until_idle();
    tickets
        .into_iter()
        .map(|t| match t.poll(world).expect("idle means completed") {
            Ok(outcome) => outcome,
            Err(e) => panic!("request {} failed: {e:?}", t.id()),
        })
        .collect()
}

/// The driven world, left in place for assertions, and its transcript.
fn driven(encrypt_policies: bool) -> (World, scenario::Population, String) {
    let mut world = World::new(WorldConfig {
        encrypt_policies,
        ..WorldConfig::default()
    });
    let spec = PopulationSpec {
        owners: 64,
        devices_per_owner: 2,
        ..PopulationSpec::default()
    };
    let pop = populate_population(&mut world, &spec);
    let mut out = String::new();
    for w in 0..2 {
        let pairs = wave(w);
        let index = (pairs.iter())
            .map(|&(d, r)| Request::ResourceIndexing {
                device: pop.devices[d].clone(),
                resource: pop.resources[r].clone(),
            })
            .collect();
        for outcome in run_all(&mut world, index) {
            let Outcome::Indexed { entry } = outcome else {
                panic!("indexing yielded {outcome:?}");
            };
            let bytes = duc_codec::encode_to_vec::<UsagePolicy>(&entry.policy);
            out.push_str(&format!(
                "indexed {} {} {}\n",
                entry.location,
                entry.owner_webid,
                duc_crypto::hex::encode(&bytes)
            ));
        }
        let access = (pairs.iter())
            .map(|&(d, r)| Request::ResourceAccess {
                device: pop.devices[d].clone(),
                resource: pop.resources[r].clone(),
            })
            .collect();
        for outcome in run_all(&mut world, access) {
            let Outcome::Accessed(a) = outcome else {
                panic!("access yielded {outcome:?}");
            };
            out.push_str(&format!("accessed {} {:?}\n", a.bytes, a.fetch));
        }
    }

    // Every held copy is used once for a purpose the update below no
    // longer permits.
    let now = world.clock.now();
    for (_, device) in world.devices.iter_mut() {
        let held: Vec<String> = device.tee.resources().map(str::to_string).collect();
        for resource in held {
            let used = device
                .tee
                .access(&resource, Action::Read, Purpose::new("medical"), now);
            out.push_str(&format!("used {resource} {}\n", used.is_ok()));
        }
    }
    world.advance(SimDuration::from_secs(60));

    let owner = pop.owners[0].clone();
    let academic = Rule::permit([Action::Use])
        .with_constraint(Constraint::Purpose(vec![Purpose::new("academic")]))
        .with_constraint(Constraint::MaxRetention(SimDuration::from_days(30)));
    let update = Request::PolicyModification {
        webid: owner.clone(),
        path: POPULATION_PATH.into(),
        rules: vec![academic],
        duties: vec![Duty::DeleteWithin(SimDuration::from_days(30))],
    };
    for outcome in run_all(&mut world, vec![update]) {
        let Outcome::PolicyPropagated(p) = outcome else {
            panic!("policy modification yielded {outcome:?}");
        };
        out.push_str(&format!("propagated {p:?}\n"));
    }
    let round = Request::PolicyMonitoring {
        webid: owner,
        path: POPULATION_PATH.into(),
    };
    for outcome in run_all(&mut world, vec![round]) {
        let Outcome::Monitored(m) = outcome else {
            panic!("monitoring yielded {outcome:?}");
        };
        out.push_str(&format!("monitored {m:?}\n"));
    }

    let now = world.clock.now();
    for (name, device) in world.devices.iter() {
        for resource in device.tee.resources() {
            out.push_str(&format!(
                "{name} {resource} {:?} version {:?} next {:?}\n",
                device.tee.report(resource, now),
                device.tee.policy_version(resource),
                device.tee.next_deadline_for(resource),
            ));
        }
    }
    for (webid, owner) in world.owners.iter() {
        let policy = owner.pod_manager.policy_for(POPULATION_PATH);
        let bytes = policy.map(duc_codec::encode_to_vec::<UsagePolicy>);
        out.push_str(&format!(
            "{webid} policy {:?}\n",
            bytes.map(|b| duc_crypto::hex::encode(&b))
        ));
    }
    (world, pop, out)
}

#[test]
fn every_holder_observes_its_known_answer() {
    for encrypt in [false, true] {
        let (_, _, text) = driven(encrypt);
        let digest = sha256(text.as_bytes()).to_hex();
        assert_eq!(
            digest, PINNED_SHA256,
            "encrypt_policies {encrypt}; transcript:\n{text}"
        );
    }
}

/// The devices holding a copy of `resource`, in registry order.
fn holders<'w>(world: &'w World, resource: &str) -> Vec<&'w str> {
    (world.devices.iter())
        .filter(|(_, device)| device.tee.has_copy(resource))
        .map(|(name, _)| name)
        .collect()
}

#[test]
fn holders_of_a_version_share_one_decoded_policy() {
    for encrypt in [false, true] {
        let (mut world, pop, _) = driven(encrypt);
        // Rank 1 was never updated: its holders enforce what they indexed.
        let resource = &pop.resources[1];
        let names: Vec<String> = (holders(&world, resource).into_iter())
            .map(str::to_string)
            .collect();
        assert!(names.len() >= 2, "{names:?}");
        let first = world.device(&names[0]).tee.policy(resource).cloned();
        let first = first.expect("a holder has a policy");
        for name in &names[1..] {
            let policy = world.device(name).tee.policy(resource).expect("held");
            assert!(Rc::ptr_eq(&first, policy), "{name} holds its own copy");
        }
        let entry = world
            .resource_indexing(&names[1], resource)
            .expect("indexed");
        assert!(Rc::ptr_eq(&entry.policy, &first), "entry and copy differ");
    }
}

#[test]
fn an_update_is_shared_and_earlier_uses_replay_against_the_old_program() {
    let (mut world, pop, _) = driven(false);
    let resource = pop.resources[0].clone();
    let names: Vec<String> = (holders(&world, &resource).into_iter())
        .map(str::to_string)
        .collect();
    assert!(names.len() >= 2, "{names:?}");
    let updated = world.device(&names[0]).tee.policy(&resource).cloned();
    let updated = updated.expect("a holder has a policy");
    assert_eq!(updated.version, 2);
    let now = world.clock.now();
    for name in &names {
        let device = (world.devices.get_mut(name)).expect("holder");
        let policy = device.tee.policy(&resource).expect("held");
        assert!(Rc::ptr_eq(&updated, policy), "{name} holds its own update");
        // The medical use before the update is judged by version 1 ...
        let report = device.tee.report(&resource, now).expect("held");
        assert!(report.compliant && report.accesses == 1, "{report:?}");
        // ... and a medical use now by version 2, which denies it.
        let denied = device
            .tee
            .access(&resource, Action::Read, Purpose::new("medical"), now);
        assert!(matches!(denied, Err(AccessError::Denied(_))), "{denied:?}");
    }
    let entry = (world.resource_indexing(&names[0], &resource)).expect("indexed");
    assert!(Rc::ptr_eq(&entry.policy, &updated));
}

#[test]
fn undecodable_envelopes_surface_their_error_and_cache_nothing() {
    let mut world = World::new(WorldConfig {
        encrypt_policies: true,
        ..WorldConfig::default()
    });
    let policy = scenario::population_policy("https://p.pod/data/x", "https://p.id/me", 7);
    let sealed = world.envelope(&policy);
    let key = world.policy_key;
    world.policy_key = ([0x43; 32], key.1);
    for _ in 0..2 {
        assert!(world.shared_policy(&sealed).is_err(), "wrong key decodes");
    }
    world.policy_key = key;
    let opened = world.shared_policy(&sealed).expect("right key decodes");
    assert_eq!(**opened, policy, "a failed open left no entry behind");

    let mut corrupt = PolicyEnvelope::plain(&policy);
    corrupt.bytes.truncate(corrupt.bytes.len() - 1);
    for _ in 0..2 {
        assert!(world.shared_policy(&corrupt).is_err(), "truncated decodes");
    }
}

/// A policy using every constraint and duty kind, so damage can land in
/// any of them.
fn hostile_target() -> UsagePolicy {
    UsagePolicy::builder("urn:p", "https://p.pod/data/x", "https://p.id/me")
        .permit(
            Rule::permit([Action::Use, Action::Read])
                .with_constraint(Constraint::Purpose(vec![Purpose::new("medical")]))
                .with_constraint(Constraint::MaxRetention(SimDuration::from_secs(600)))
                .with_constraint(Constraint::ExpiresAt(SimTime::from_secs(5_000)))
                .with_constraint(Constraint::MaxAccessCount(3))
                .with_constraint(Constraint::AllowedRecipients(vec!["urn:holder".into()]))
                .with_constraint(Constraint::TimeWindow {
                    not_before: SimTime::from_secs(10),
                    not_after: SimTime::from_secs(4_000),
                }),
        )
        .rule(Rule::prohibit([Action::Distribute]))
        .duty(Duty::DeleteWithin(SimDuration::from_secs(900)))
        .duty(Duty::NotifyOwnerWithin(SimDuration::from_secs(60)))
        .duty(Duty::LogAccesses)
        .version(2)
        .build()
}

/// An envelope as a hostile or damaged chain could carry it.
#[derive(Debug, Clone)]
enum Hostile {
    Arbitrary { encrypted: bool, bytes: Vec<u8> },
    Truncated { sealed: bool, keep: usize },
    Flipped { sealed: bool, at: usize, mask: u8 },
}

fn arb_hostile() -> impl Strategy<Value = Hostile> {
    prop_oneof![
        (
            any::<bool>(),
            proptest::collection::vec(any::<u8>(), 0..160)
        )
            .prop_map(|(encrypted, bytes)| Hostile::Arbitrary { encrypted, bytes }),
        (any::<bool>(), 0usize..4_096)
            .prop_map(|(sealed, keep)| Hostile::Truncated { sealed, keep }),
        (any::<bool>(), 0usize..4_096, 1u8..=255).prop_map(|(sealed, at, mask)| Hostile::Flipped {
            sealed,
            at,
            mask
        }),
    ]
}

fn hostile_envelope(world: &World, hostile: Hostile) -> PolicyEnvelope {
    let valid = |sealed: bool| {
        let (key, nonce) = world.policy_key;
        if sealed {
            PolicyEnvelope::sealed(&hostile_target(), key, nonce)
        } else {
            PolicyEnvelope::plain(&hostile_target())
        }
    };
    match hostile {
        Hostile::Arbitrary { encrypted, bytes } => PolicyEnvelope { encrypted, bytes },
        Hostile::Truncated { sealed, keep } => {
            let mut env = valid(sealed);
            env.bytes.truncate(keep % env.bytes.len());
            env
        }
        Hostile::Flipped { sealed, at, mask } => {
            let mut env = valid(sealed);
            let at = at % env.bytes.len();
            env.bytes[at] ^= mask;
            env
        }
    }
}

/// Drives `version` through a trusted application: stored directly, and
/// as an update over version 0 of its resource; every action and a few
/// purposes accessed, the next deadline enforced, the copy reported.
fn exercise(version: &Rc<PolicyVersion>) {
    let t0 = SimTime::from_secs(100);
    let resource = version.resource.clone();
    let base = UsagePolicy::builder("urn:base", resource.as_str(), "urn:owner")
        .permit(Rule::permit([Action::Use]))
        .version(0)
        .build();
    let mut direct = TrustedApplication::new(Enclave::new("device-a", b"ta"), "urn:holder");
    direct.store_resource(resource.as_str(), b"body", Rc::clone(version), t0);
    let mut updated = TrustedApplication::new(Enclave::new("device-b", b"ta"), "urn:holder");
    updated.store_resource(resource.as_str(), b"body", base, t0);
    let _ = updated.apply_policy_update(
        &resource,
        Rc::clone(version),
        t0 + SimDuration::from_secs(5),
    );
    for tee in [&mut direct, &mut updated] {
        let now = t0 + SimDuration::from_secs(10);
        for action in Action::ALL {
            for purpose in ["medical", "marketing", "any"] {
                let _ = tee.access(&resource, action, Purpose::new(purpose), now);
            }
        }
        if let Some(due) = tee.next_deadline_for(&resource) {
            let _ = tee.enforce_due(&resource, due);
        }
        let _ = tee.report(&resource, SimTime::from_secs(1_000_000));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A hostile envelope either surfaces its decode error and leaves no
    /// table entry (opening it again fails again), or yields a version
    /// that the table keeps and whose program decides, schedules and
    /// reports in a trusted application without panicking.
    #[test]
    fn hostile_envelopes_fail_cleanly_or_enforce(hostile in arb_hostile()) {
        let mut world = World::new(WorldConfig::default());
        let env = hostile_envelope(&world, hostile);
        match world.shared_policy(&env) {
            Err(e) => prop_assert_eq!(world.shared_policy(&env).err(), Some(e)),
            Ok(version) => {
                let again = world.shared_policy(&env).expect("a cached version");
                prop_assert!(Rc::ptr_eq(&version, &again), "decoded twice");
                exercise(&version);
            }
        }
    }
}
