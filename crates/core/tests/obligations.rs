//! Integration tests for the deadline-driven obligation scheduler: duties
//! fire at their exact declared instant (with on-chain evidence) under
//! [`EnforcementMode::Deadline`], on the polling grid under
//! [`EnforcementMode::Periodic`], re-arm on mid-flight policy changes, and
//! respect rogue hosts.

use duc_contracts::calls::{GetRound, ListCopies, StartMonitoring, UnregisterCopy};
use duc_core::chaos::fixed_link;
use duc_core::prelude::*;
use duc_solid::Body;

const OWNER: &str = "https://owner.id/me";
const PATH: &str = "data/set.bin";

/// One owner, `n` devices holding driver-fetched copies under a
/// `retention_days` policy.
fn world_with_copies(n: usize, retention_days: u64, config: WorldConfig) -> (World, String) {
    let mut world = World::new(config);
    world.add_owner(OWNER, "https://owner.pod/");
    for i in 0..n {
        world.add_device(format!("device-{i}"), format!("https://c{i}.id/me"));
    }
    world.pod_initiation(OWNER).expect("pod init");
    let iri = world.owner(OWNER).pod_manager.pod().iri_of(PATH);
    let resource = world
        .resource_initiation(
            OWNER,
            PATH,
            Body::Binary(vec![0xA5; 1 << 10]),
            scenario::population_policy(&iri, OWNER, retention_days),
            vec![],
        )
        .expect("resource init");
    for i in 0..n {
        let d = format!("device-{i}");
        world.market_subscribe(&d).expect("subscribe");
        world.resource_indexing(&d, &resource).expect("index");
        world.resource_access(&d, &resource).expect("access");
    }
    (world, resource)
}

fn config(enforcement: EnforcementMode) -> WorldConfig {
    WorldConfig {
        seed: 41,
        link: fixed_link(10),
        enforcement,
        ..WorldConfig::default()
    }
}

#[test]
fn deadline_mode_enforces_at_the_exact_instant_with_onchain_evidence() {
    let (mut world, resource) = world_with_copies(2, 1, config(EnforcementMode::Deadline));
    assert_eq!(
        world
            .dex
            .view(
                &world.chain,
                ListCopies {
                    resource: resource.to_string()
                }
            )
            .expect("view")
            .len(),
        2
    );
    world.advance(SimDuration::from_days(2));
    // Both copies were deleted by their scheduled wakeups...
    for i in 0..2 {
        assert!(
            !world.device(&format!("device-{i}")).tee.has_copy(&resource),
            "copy deleted at its deadline"
        );
    }
    // ...at zero lag from the declared deadline...
    let lag = world.metrics.histogram_mut("enforcement.lag");
    assert_eq!(lag.len(), 2, "one wakeup per copy");
    assert_eq!(lag.max(), SimDuration::ZERO, "deadline-driven: zero lag");
    // ...with the on-chain registry updated as evidence.
    assert!(world
        .dex
        .view(
            &world.chain,
            ListCopies {
                resource: resource.to_string()
            }
        )
        .expect("view")
        .is_empty());
    assert_eq!(world.metrics.counter("enforcement.deletions"), 2);
    assert_eq!(world.metrics.counter("enforcement.evidence_anchored"), 2);
}

#[test]
fn periodic_mode_waits_for_the_grid() {
    let period = SimDuration::from_mins(37);
    let (mut world, resource) = world_with_copies(1, 1, config(EnforcementMode::Periodic(period)));
    world.advance(SimDuration::from_days(2));
    assert!(!world.device("device-0").tee.has_copy(&resource));
    let lag = world.metrics.histogram_mut("enforcement.lag");
    assert_eq!(lag.len(), 1);
    assert!(
        lag.max() > SimDuration::ZERO && lag.max() <= period,
        "round-based enforcement lags by up to one period: {}",
        lag.max()
    );
}

#[test]
fn policy_tightening_reschedules_the_wakeup_mid_flight() {
    // 30-day retention initially; tightened to 2 days on day 1. The copy
    // must be erased at day 3 (acquisition + 2 days), not day 30.
    let (mut world, resource) = world_with_copies(1, 30, config(EnforcementMode::Deadline));
    world.advance(SimDuration::from_days(1));
    world
        .policy_modification(
            OWNER,
            PATH,
            vec![Rule::permit([Action::Use])
                .with_constraint(Constraint::MaxRetention(SimDuration::from_days(2)))],
            vec![
                Duty::DeleteWithin(SimDuration::from_days(2)),
                Duty::LogAccesses,
            ],
        )
        .expect("tighten");
    assert!(world.device("device-0").tee.has_copy(&resource));
    world.advance(SimDuration::from_days(3));
    assert!(
        !world.device("device-0").tee.has_copy(&resource),
        "the re-armed wakeup enforced the tightened deadline"
    );
    assert_eq!(world.metrics.histogram_mut("enforcement.lag").len(), 1);
    assert_eq!(
        world.metrics.histogram_mut("enforcement.lag").max(),
        SimDuration::ZERO
    );
    assert!(world
        .dex
        .view(
            &world.chain,
            ListCopies {
                resource: resource.to_string()
            }
        )
        .expect("view")
        .is_empty());
}

#[test]
fn rogue_hosts_suppress_the_wakeup_and_monitoring_catches_them() {
    let (mut world, resource) = world_with_copies(2, 1, config(EnforcementMode::Deadline));
    world.set_rogue_host("device-0", true);
    world.advance(SimDuration::from_days(2));
    assert!(
        world.device("device-0").tee.has_copy(&resource),
        "rogue host suppressed its timer"
    );
    assert!(!world.device("device-1").tee.has_copy(&resource));
    let outcome = world.policy_monitoring(OWNER, PATH).expect("round");
    assert_eq!(outcome.violators, vec!["device-0".to_string()]);
}

#[test]
fn consecutive_rounds_reaffirm_unchanged_evidence() {
    // Two monitoring rounds before the deadline, no accesses in between:
    // the second round must go through the cheap reaffirmation path and
    // cost strictly less gas.
    let (mut world, resource) = world_with_copies(4, 30, config(EnforcementMode::Deadline));
    let gas_round = |world: &mut World, label: &str| {
        let before = world.metrics.counter("process.monitoring.gas");
        let outcome = world.policy_monitoring(OWNER, PATH).expect(label);
        assert_eq!(outcome.evidence, 4, "{label}: every device answered");
        assert!(outcome.violators.is_empty());
        world.metrics.counter("process.monitoring.gas") - before
    };
    let first = gas_round(&mut world, "first round");
    assert_eq!(
        world.metrics.counter("process.monitoring.reaffirmed"),
        0,
        "first round ships full evidence"
    );
    let second = gas_round(&mut world, "second round");
    assert_eq!(
        world.metrics.counter("process.monitoring.reaffirmed"),
        4,
        "second round reaffirms every unchanged copy"
    );
    assert!(
        second < first,
        "reaffirmation must be cheaper: {second} vs {first}"
    );
    // A fresh access advances the log: the next round is full again for
    // that device.
    {
        let now = world.clock.now();
        let device = world.devices.get_mut("device-0").expect("device");
        device
            .tee
            .access(&resource, Action::Read, Purpose::any(), now)
            .expect("local access");
    }
    let _ = gas_round(&mut world, "third round");
    assert_eq!(
        world.metrics.counter("process.monitoring.reaffirmed"),
        7,
        "the touched copy resubmitted; the other three reaffirmed"
    );
}

#[test]
fn duplicate_answers_to_one_round_are_rejected_on_chain() {
    // Two devices answer round 1 fully; round 2 stays open after device-0
    // reaffirms (device-1 has not answered), so a replayed reaffirmation
    // and a follow-up full submission from device-0 must both revert.
    let (mut world, resource) = world_with_copies(2, 30, config(EnforcementMode::Deadline));
    world.policy_monitoring(OWNER, PATH).expect("round 1");

    // Open round 2 directly (no driver probing, so it stays open).
    let owner_key = world.owner(OWNER).key;
    let start = StartMonitoring {
        resource: resource.clone(),
    };
    let tx = world.dex.call_tx(&world.chain, &owner_key, start);
    let id = world.chain.submit(tx).expect("mempool");
    world.advance(SimDuration::from_secs(2));
    let round = duc_contracts::DistExchangeClient::decode_return::<StartMonitoring>(
        &world.chain.receipt(&id).expect("receipt").return_data,
    )
    .expect("round number");

    let now = world.clock.now();
    let (digest, key, reaff) = {
        let dev = world.device("device-0");
        let report = dev.tee.report(&resource, now).expect("report");
        let mut reaff = duc_contracts::EvidenceReaffirmation {
            resource: resource.clone(),
            round,
            device: "device-0".into(),
            prev_round: dev.tee.last_reported(&resource).expect("noted").round,
            evidence_digest: report.log_digest,
            signature: duc_crypto::Signature { e: 0, s: 0 },
        };
        reaff.signature = dev.tee.enclave().sign(&reaff.signing_bytes());
        (report.log_digest, dev.key, reaff)
    };
    let status = |world: &mut World, tx| {
        let id = world.chain.submit(tx).expect("mempool");
        world.advance(SimDuration::from_secs(2));
        world.chain.receipt(&id).expect("receipt").status.clone()
    };
    // First reaffirmation lands.
    let tx = world.dex.call_tx(&world.chain, &key, reaff.clone());
    assert!(matches!(
        status(&mut world, tx),
        duc_blockchain::TxStatus::Ok
    ));
    // The identical reaffirmation replayed into the still-open round
    // reverts.
    let tx = world.dex.call_tx(&world.chain, &key, reaff);
    assert!(matches!(
        status(&mut world, tx),
        duc_blockchain::TxStatus::Reverted(ref msg) if msg.contains("duplicate")
    ));
    // So does a follow-up full submission from the same device.
    let dev = world.device("device-0");
    let mut submission = duc_contracts::EvidenceSubmission {
        resource: resource.clone(),
        round,
        device: "device-0".into(),
        compliant: true,
        violations: vec![],
        evidence_digest: digest,
        signature: duc_crypto::Signature { e: 0, s: 0 },
    };
    submission.signature = dev.tee.enclave().sign(&submission.signing_bytes());
    let tx = world.dex.call_tx(&world.chain, &key, submission);
    assert!(matches!(
        status(&mut world, tx),
        duc_blockchain::TxStatus::Reverted(ref msg) if msg.contains("duplicate")
    ));
    // The round record holds exactly one answer for device-0.
    let record = world
        .dex
        .view(&world.chain, GetRound { resource, round })
        .expect("view")
        .expect("round");
    assert_eq!(record.reaffirmed, vec![("device-0".to_string(), 1)]);
    assert!(record.evidence.is_empty());
    assert!(!record.closed, "device-1 has not answered");
}

#[test]
fn stale_unregister_cannot_clobber_a_newer_registration() {
    // An unregister whose `as_of` predates the current registration (the
    // re-access-raced-the-deletion interleave) must be a guarded no-op.
    let (mut world, resource) = world_with_copies(1, 30, config(EnforcementMode::Deadline));
    let dev_key = world.device("device-0").key;
    let run = |world: &mut World, tx| {
        let id = world.chain.submit(tx).expect("mempool");
        world.advance(SimDuration::from_secs(2));
        world.chain.receipt(&id).expect("receipt").status.clone()
    };
    // Stale: as_of = epoch, long before the registration block.
    let enclave = world.device("device-0").tee.enclave().clone();
    let unregister = |as_of| {
        UnregisterCopy::signed(resource.clone(), "device-0".into(), as_of, |b| {
            enclave.sign(b)
        })
    };
    let tx = world
        .dex
        .call_tx(&world.chain, &dev_key, unregister(SimTime::ZERO));
    assert!(matches!(run(&mut world, tx), duc_blockchain::TxStatus::Ok));
    assert_eq!(
        world
            .dex
            .view(
                &world.chain,
                ListCopies {
                    resource: resource.to_string()
                }
            )
            .expect("view")
            .len(),
        1,
        "the guarded unregister left the newer registration intact"
    );
    // Fresh: as_of = now removes it.
    let now = world.clock.now();
    let tx = world.dex.call_tx(&world.chain, &dev_key, unregister(now));
    assert!(matches!(run(&mut world, tx), duc_blockchain::TxStatus::Ok));
    assert!(world
        .dex
        .view(
            &world.chain,
            ListCopies {
                resource: resource.to_string()
            }
        )
        .expect("view")
        .is_empty());
}

#[test]
fn healed_rogue_host_is_enforced_on_the_next_periodic_sweep() {
    // A rogue host suppresses its timer across the deadline; when the
    // host heals, the periodic baseline's next grid sweep still enforces
    // (healing re-arms the spent wakeup).
    let period = SimDuration::from_mins(37);
    let (mut world, resource) = world_with_copies(1, 1, config(EnforcementMode::Periodic(period)));
    world.set_rogue_host("device-0", true);
    world.advance(SimDuration::from_days(2));
    assert!(
        world.device("device-0").tee.has_copy(&resource),
        "suppressed timer left the overdue copy"
    );
    world.set_rogue_host("device-0", false);
    world.advance(period + SimDuration::from_mins(1));
    assert!(
        !world.device("device-0").tee.has_copy(&resource),
        "the healed host was enforced on the next grid sweep"
    );
}

#[test]
fn healed_rogue_host_is_enforced_at_heal_in_deadline_mode() {
    // Deadline mode has no grid to fall back on: the wakeup that fired
    // into the rogue host is spent, so healing is what brings the overdue
    // copy back to enforcement.
    let (mut world, resource) = world_with_copies(1, 1, config(EnforcementMode::Deadline));
    world.set_rogue_host("device-0", true);
    world.advance(SimDuration::from_days(2));
    assert!(
        world.device("device-0").tee.has_copy(&resource),
        "suppressed timer left the overdue copy"
    );
    world.set_rogue_host("device-0", false);
    world.advance(SimDuration::from_mins(1));
    assert!(
        !world.device("device-0").tee.has_copy(&resource),
        "the healed host was enforced"
    );
    assert_eq!(world.metrics.counter("enforcement.deletions"), 1);
    assert!(world
        .dex
        .view(
            &world.chain,
            ListCopies {
                resource: resource.to_string()
            }
        )
        .expect("view")
        .is_empty());
    // The late enforcement is measured and anchored like a timely one.
    let lag = world.metrics.histogram_mut("enforcement.lag");
    assert_eq!(lag.len(), 1);
    assert!(lag.max() >= SimDuration::from_days(1), "lag {}", lag.max());
    assert_eq!(world.metrics.counter("enforcement.evidence_anchored"), 1);
}
