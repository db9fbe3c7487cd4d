//! Bulk enrolment's certificates, pinned under pruning.
//!
//! `scenario::populate_population` sends every subscription straight into
//! the mempool and installs each device's market certificate from its
//! transaction's receipt. Here it runs on both ledger backends with a
//! checkpoint every block and a two-block resident window
//! (`StorageConfig::enabled(1, 2)`), so one chunk of subscriptions spans
//! many more slots than the chain keeps resident: whatever confirms a
//! subscription has to read it in the slot that sealed it.
//!
//! Per backend: every device holds a certificate the DE App's
//! `verify_certificate` view accepts; the fleet order and every
//! (device, certificate) pair equal an unpruned run's; and the SHA-256 of
//! that list equals a known answer recorded before the bulk path was
//! rewritten. Never re-record the known answers.

use duc_blockchain::{Ledger, StorageConfig};
use duc_core::prelude::*;
use duc_core::scenario::{populate_population, PopulationSpec};
use duc_crypto::sha256;

/// 120 subscriptions: 20 slots on one chain at six per block.
fn spec() -> PopulationSpec {
    PopulationSpec {
        owners: 12,
        devices_per_owner: 10,
        ..PopulationSpec::default()
    }
}

fn config(shards: usize, storage: StorageConfig) -> WorldConfig {
    WorldConfig {
        seed: 29,
        shards,
        storage,
        ..WorldConfig::default()
    }
}

/// `device certificate` per enrolled device, in fleet order; asserts each
/// certificate verifies on-chain.
fn certificates<L: Ledger>(world: &World<L>, fleet: &[String]) -> Vec<String> {
    fleet
        .iter()
        .map(|name| {
            let device = world.device(name);
            let certificate = device
                .certificate
                .unwrap_or_else(|| panic!("{name} holds no certificate"));
            let accepted = (world.dex)
                .verify_certificate(&world.chain, &certificate, &device.webid)
                .expect("view");
            assert!(accepted, "{name}'s certificate verifies on-chain");
            format!("{name} {certificate}")
        })
        .collect()
}

/// Enrols [`spec`] pruned and unpruned on one backend and checks the
/// pruned run against the unpruned one and against `known_answer`.
fn check<L: Ledger>(shards: usize, new: fn(WorldConfig) -> World<L>, known_answer: &str) {
    let spec = spec();
    let enrol = |storage| {
        let mut world = new(config(shards, storage));
        let pop = populate_population(&mut world, &spec);
        assert_eq!(pop.devices.len(), spec.owners * spec.devices_per_owner);
        let pairs = certificates(&world, &pop.devices);
        (world, pairs)
    };
    let (pruned, pairs) = enrol(StorageConfig::enabled(1, 2));
    let (_, plain) = enrol(StorageConfig::disabled());
    assert!(
        pruned.chain.prune_horizon() > 8,
        "the chain pruned far behind its tip (horizon {})",
        pruned.chain.prune_horizon()
    );
    assert_eq!(pairs, plain, "pruning changed the fleet or a certificate");
    let digest = sha256(pairs.join("\n").as_bytes()).to_hex();
    assert_eq!(digest, known_answer, "fleet and certificates moved");
}

#[test]
fn single_chain_enrolment_under_pruning_is_pinned() {
    check(
        1,
        World::new,
        "6851f6b2f72fc9cbc78b073529b31536504f81af48f319bae4f6627f6c194326",
    );
}

#[test]
fn sharded_enrolment_under_pruning_is_pinned() {
    check(
        4,
        World::new_sharded,
        "1a08b5bbeec701b15470c1494eecdbec537c9911a06b71f0c1ce443d6c101172",
    );
}
