//! Cross-crate integration tests: the whole architecture, end to end.

use solid_usage_control::core::scenario::{
    self, ALICE, ALICE_DEVICE, BOB, BOB_DEVICE, MEDICAL_PATH,
};
use solid_usage_control::core::world::MARKET_FEE;
use solid_usage_control::prelude::*;
use solid_usage_control::sim::LinkConfig;
use solid_usage_control::solid::Body;

#[test]
fn scenario_on_wan_links() {
    let mut world = scenario::build_world(WorldConfig {
        link: LinkConfig::wan(),
        seed: 99,
        ..WorldConfig::default()
    });
    let report = scenario::run(&mut world).expect("wan run succeeds");
    assert!(report.bob_copy_deleted);
    assert!(report.alice_still_permitted);
    assert!(report.browsing_monitoring.violators.is_empty());
}

#[test]
fn access_requires_market_certificate() {
    let mut world = scenario::build_world(WorldConfig::default());
    world.pod_initiation(BOB).unwrap();
    let iri = world.owner(BOB).pod_manager.pod().iri_of(MEDICAL_PATH);
    world
        .resource_initiation(
            BOB,
            MEDICAL_PATH,
            Body::Text("data".into()),
            scenario::medical_policy(&iri),
            vec![],
        )
        .unwrap();
    world.resource_indexing(ALICE_DEVICE, &iri).unwrap();
    // Without a subscription the access is refused...
    let err = world.resource_access(ALICE_DEVICE, &iri).unwrap_err();
    assert!(matches!(err, ProcessError::NoCertificate(_)), "{err}");
    // ...and with one it succeeds.
    world.market_subscribe(ALICE_DEVICE).unwrap();
    let outcome = world.resource_access(ALICE_DEVICE, &iri).unwrap();
    assert!(outcome.bytes > 0);
}

#[test]
fn expired_certificate_is_refused_by_pod_manager() {
    let mut world = scenario::build_world(WorldConfig {
        cert_validity: SimDuration::from_days(1),
        ..WorldConfig::default()
    });
    world.pod_initiation(BOB).unwrap();
    let iri = world.owner(BOB).pod_manager.pod().iri_of(MEDICAL_PATH);
    world
        .resource_initiation(
            BOB,
            MEDICAL_PATH,
            Body::Text("data".into()),
            scenario::medical_policy(&iri),
            vec![],
        )
        .unwrap();
    world.market_subscribe(ALICE_DEVICE).unwrap();
    world.resource_indexing(ALICE_DEVICE, &iri).unwrap();
    // Two days later the 1-day certificate has lapsed.
    world.advance(SimDuration::from_days(2));
    let err = world.resource_access(ALICE_DEVICE, &iri).unwrap_err();
    match err {
        ProcessError::Solid { status, .. } => {
            assert_eq!(status, solid_usage_control::solid::Status::PaymentRequired)
        }
        other => panic!("expected 402, got {other}"),
    }
}

#[test]
fn unindexed_access_fails_cleanly() {
    let mut world = scenario::build_world(WorldConfig::default());
    world.pod_initiation(BOB).unwrap();
    let err = world
        .resource_access(ALICE_DEVICE, "https://bob.pod/data/medical.ttl")
        .unwrap_err();
    assert!(matches!(err, ProcessError::NotIndexed { .. }));
    // Indexing an unregistered resource also fails cleanly.
    let err = world
        .resource_indexing(ALICE_DEVICE, "https://bob.pod/ghost")
        .unwrap_err();
    assert!(matches!(err, ProcessError::UnknownResource(_)));
}

#[test]
fn indexes_are_per_device_in_a_shared_symbol_space() {
    let mut world = scenario::build_world(WorldConfig::default());
    world.pod_initiation(BOB).unwrap();
    let iri = world.owner(BOB).pod_manager.pod().iri_of(MEDICAL_PATH);
    world
        .resource_initiation(
            BOB,
            MEDICAL_PATH,
            Body::Text("data".into()),
            scenario::medical_policy(&iri),
            vec![],
        )
        .unwrap();
    world.market_subscribe(ALICE_DEVICE).unwrap();
    world.market_subscribe(BOB_DEVICE).unwrap();
    // Alice's indexing interns the IRI in the world's one symbol space...
    world.resource_indexing(ALICE_DEVICE, &iri).unwrap();
    assert!(world.ids.get(&iri).is_some());
    // ...which gives no other device an index entry for it.
    let err = world.resource_access(BOB_DEVICE, &iri).unwrap_err();
    assert!(
        matches!(&err, ProcessError::NotIndexed { device, .. } if device == BOB_DEVICE),
        "{err}"
    );
    assert!(world.resource_access(ALICE_DEVICE, &iri).unwrap().bytes > 0);
}

#[test]
fn policy_version_continuity_across_updates() {
    let mut world = scenario::build_world(WorldConfig::default());
    world.pod_initiation(ALICE).unwrap();
    let iri = world
        .owner(ALICE)
        .pod_manager
        .pod()
        .iri_of("data/browsing.csv");
    world
        .resource_initiation(
            ALICE,
            "data/browsing.csv",
            Body::Text("rows".into()),
            scenario::browsing_policy(&iri, 30),
            vec![],
        )
        .unwrap();
    world.market_subscribe("bob-workstation").unwrap();
    world.resource_indexing("bob-workstation", &iri).unwrap();
    world.resource_access("bob-workstation", &iri).unwrap();

    for expected_version in 2..=5u64 {
        let outcome = world
            .policy_modification(
                ALICE,
                "data/browsing.csv",
                vec![
                    Rule::permit([Action::Use]).with_constraint(Constraint::MaxRetention(
                        SimDuration::from_days(30 - expected_version),
                    )),
                ],
                vec![Duty::LogAccesses],
            )
            .expect("update");
        assert_eq!(outcome.version, expected_version);
        assert_eq!(
            world.device("bob-workstation").tee.policy_version(&iri),
            Some(expected_version),
            "device tracks the on-chain version"
        );
    }
    let record = world
        .dex
        .lookup_resource(&world.chain, &iri)
        .unwrap()
        .unwrap();
    assert_eq!(record.policy_version, 5);
}

#[test]
fn monitoring_counts_every_copy_holder() {
    let mut world = World::new(WorldConfig::default());
    world.add_owner(BOB, "https://bob.pod/");
    for i in 0..5 {
        world.add_device(format!("dev-{i}"), format!("https://c{i}.id/me"));
    }
    world.pod_initiation(BOB).unwrap();
    let iri = world.owner(BOB).pod_manager.pod().iri_of("data/shared");
    world
        .resource_initiation(
            BOB,
            "data/shared",
            Body::Text("shared".into()),
            scenario::medical_policy(&iri),
            vec![],
        )
        .unwrap();
    for i in 0..5 {
        let d = format!("dev-{i}");
        world.market_subscribe(&d).unwrap();
        world.resource_indexing(&d, &iri).unwrap();
        world.resource_access(&d, &iri).unwrap();
    }
    let outcome = world.policy_monitoring(BOB, "data/shared").unwrap();
    assert_eq!(outcome.expected, 5);
    assert_eq!(outcome.evidence, 5);
    assert!(outcome.violators.is_empty());
    // The round record on-chain is complete and closed.
    let round = world
        .dex
        .get_round(&world.chain, &iri, outcome.round)
        .unwrap()
        .unwrap();
    assert!(round.closed);
    assert!(round.complete());
}

#[test]
fn deleted_copies_leave_the_monitoring_population() {
    let mut world = scenario::build_world(WorldConfig::default());
    let report = scenario::run(&mut world).expect("scenario");
    // After the scenario, Bob's browsing copy is gone: a fresh round over
    // Alice's browsing data expects no devices.
    let outcome = world
        .policy_monitoring(ALICE, scenario::BROWSING_PATH)
        .expect("round");
    assert_eq!(outcome.expected, 0, "deleted copy was unregistered");
    assert!(report.bob_copy_deleted);
}

#[test]
fn gas_accounting_is_conserved() {
    // Fees debited from participants equal fees credited to validators,
    // and the market fee lands at the treasury.
    let mut world = scenario::build_world(WorldConfig::default());
    let _ = scenario::run(&mut world).expect("scenario");
    let ledger_total: u64 = world.chain.gas_used_total();
    let validator_income: u128 = (0..world.chain.validator_count())
        .map(|i| {
            let key = solid_usage_control::crypto::KeyPair::from_seed(
                format!("duc/validator-{i}").as_bytes(),
            );
            world
                .chain
                .balance(&solid_usage_control::blockchain::Address::from_public_key(
                    &key.public(),
                ))
        })
        .sum();
    assert_eq!(
        validator_income,
        ledger_total as u128 * world.chain.gas_price(),
        "every unit of consumed gas was paid to a proposer"
    );
    let treasury = solid_usage_control::blockchain::Address::from_seed(b"duc/market-treasury");
    assert_eq!(
        world.chain.balance(&treasury),
        2 * MARKET_FEE,
        "two subscriptions were sold"
    );
}

#[test]
fn trace_records_process_structure() {
    let mut world = scenario::build_world(WorldConfig {
        trace: true,
        ..WorldConfig::default()
    });
    let _ = scenario::run(&mut world).expect("scenario");
    for kind in [
        "pod.create",
        "pod.registered",
        "resource.registered",
        "resource.indexed",
        "resource.stored",
        "policy.updated",
        "monitoring.round",
    ] {
        assert!(world.trace.contains_kind(kind), "missing trace kind {kind}");
    }
    // Hops are recorded in non-decreasing time order per actor.
    let events = world.trace.events();
    assert!(!events.is_empty());
    for pair in events.windows(2) {
        assert!(pair[0].at <= pair[1].at);
    }
}
