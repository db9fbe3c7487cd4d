//! Privacy and security properties end to end (paper §V-1, §V-2).

use solid_usage_control::contracts::PolicyEnvelope;
use solid_usage_control::core::scenario::{self, BOB, MEDICAL_PATH};
use solid_usage_control::prelude::*;
use solid_usage_control::solid::Body;

#[test]
fn host_cannot_read_sealed_copies() {
    let mut world = scenario::build_world(WorldConfig::default());
    world.pod_initiation(BOB).unwrap();
    let iri = world.owner(BOB).pod_manager.pod().iri_of(MEDICAL_PATH);
    let secret = "extremely-identifiable-patient-record";
    world
        .resource_initiation(
            BOB,
            MEDICAL_PATH,
            Body::Text(secret.into()),
            scenario::medical_policy(&iri),
            vec![],
        )
        .unwrap();
    world.market_subscribe("alice-laptop").unwrap();
    world.resource_indexing("alice-laptop", &iri).unwrap();
    world.resource_access("alice-laptop", &iri).unwrap();

    let device = world.device("alice-laptop");
    let host_bytes = device.tee.host_view(&iri).expect("live copy");
    let needle = secret.as_bytes();
    assert!(
        !host_bytes.windows(needle.len()).any(|w| w == needle),
        "plaintext must not appear in the host-visible ciphertext"
    );
}

#[test]
fn ledger_observer_cannot_read_encrypted_policies() {
    let mut world = scenario::build_world(WorldConfig {
        encrypt_policies: true,
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
    // A ledger observer reads the raw record...
    let record = world
        .dex
        .lookup_resource(&world.chain, &iri)
        .unwrap()
        .unwrap();
    assert!(record.policy.encrypted);
    assert!(record.policy.open_plain().is_err(), "ciphertext only");
    // ...while an authorized TEE (with the data-space key) still indexes it.
    world.market_subscribe("alice-laptop").unwrap();
    let entry = world.resource_indexing("alice-laptop", &iri).unwrap();
    assert_eq!(entry.policy.owner, BOB);
}

#[test]
fn policy_mediated_access_is_the_only_path_to_plaintext() {
    let mut world = scenario::build_world(WorldConfig::default());
    world.pod_initiation(BOB).unwrap();
    let iri = world.owner(BOB).pod_manager.pod().iri_of(MEDICAL_PATH);
    world
        .resource_initiation(
            BOB,
            MEDICAL_PATH,
            Body::Text("payload".into()),
            scenario::medical_policy(&iri),
            vec![],
        )
        .unwrap();
    world.market_subscribe("alice-laptop").unwrap();
    world.resource_indexing("alice-laptop", &iri).unwrap();
    world.resource_access("alice-laptop", &iri).unwrap();

    let now = world.clock.now();
    let device = world.devices.get_mut("alice-laptop").unwrap();
    // Out-of-policy purpose → denied.
    assert!(device
        .tee
        .access(&iri, Action::Read, Purpose::new("marketing"), now)
        .is_err());
    // Prohibited action → denied.
    assert!(device
        .tee
        .access(&iri, Action::Distribute, Purpose::new("medical"), now)
        .is_err());
    // In-policy use → plaintext.
    let bytes = device
        .tee
        .access(&iri, Action::Read, Purpose::new("medical-research"), now)
        .unwrap();
    assert_eq!(bytes, b"payload");
}

#[test]
fn tampering_with_history_is_detected_by_chain_validation() {
    let mut world = scenario::build_world(WorldConfig::default());
    let _ = scenario::run(&mut world).expect("scenario");
    assert_eq!(world.chain.validate_chain(), Ok(()));
    // An auditor replaying the chain catches any post-hoc edit: flip one
    // byte in an old block's first transaction.
    // (Direct mutation stands in for a compromised archive node.)
    let height = 2;
    let block = world.chain.block(height).expect("exists").clone();
    assert!(block.validate().is_ok());
    let mut tampered = block;
    if let Some(tx) = tampered.transactions.first_mut() {
        tx.tx.gas_limit ^= 1;
    }
    assert!(tampered.validate().is_err(), "tamper detected in isolation");
}

#[test]
fn envelope_key_separation() {
    // A policy sealed for one data space cannot be opened with another's
    // key, and corrupted ciphertext fails to decode rather than yielding a
    // wrong policy.
    let policy = UsagePolicy::default_for("urn:r", "urn:o");
    let sealed = PolicyEnvelope::sealed(&policy, [1u8; 32], [2u8; 12]);
    assert!(sealed.open(Some(([3u8; 32], [2u8; 12]))).is_err());
    let mut corrupted = sealed.clone();
    corrupted.bytes[0] ^= 0xFF;
    assert!(corrupted.open(Some(([1u8; 32], [2u8; 12]))).is_err());
    assert_eq!(sealed.open(Some(([1u8; 32], [2u8; 12]))).unwrap(), policy);
}

#[test]
fn denied_attempts_do_not_leak_into_access_counts() {
    let mut world = scenario::build_world(WorldConfig::default());
    world.pod_initiation(BOB).unwrap();
    let iri = world.owner(BOB).pod_manager.pod().iri_of(MEDICAL_PATH);
    world
        .resource_initiation(
            BOB,
            MEDICAL_PATH,
            Body::Text("d".into()),
            scenario::medical_policy(&iri),
            vec![],
        )
        .unwrap();
    world.market_subscribe("alice-laptop").unwrap();
    world.resource_indexing("alice-laptop", &iri).unwrap();
    world.resource_access("alice-laptop", &iri).unwrap();
    let now = world.clock.now();
    let device = world.devices.get_mut("alice-laptop").unwrap();
    for _ in 0..5 {
        let _ = device
            .tee
            .access(&iri, Action::Read, Purpose::new("marketing"), now);
    }
    device
        .tee
        .access(&iri, Action::Read, Purpose::new("medical"), now)
        .unwrap();
    let report = device.tee.report(&iri, now).unwrap();
    assert_eq!(report.accesses, 1, "only the permitted access counts");
    assert!(report.compliant);
}
