//! End-to-end tests of the DistExchange contract running on the blockchain
//! substrate: registration, indexing, policy updates, monitoring, market.

mod common;

use duc_blockchain::{Address, Blockchain, ContractError, ContractId, SignedTransaction, TxStatus};
use duc_contracts::calls::{
    GetPod, GetRound, GetSubscription, ListCopies, ListResources, StartMonitoring, Subscribe,
    VerifyCertificate,
};
use duc_contracts::{
    topics, CopyRecord, DistExchangeClient, EvidenceSubmission, MonitoringRound, PolicyEnvelope,
    DEX_CONTRACT_ID,
};
use duc_crypto::{sha256, Digest, KeyPair, Signature};
use duc_policy::prelude::*;
use duc_sim::{SimDuration, SimTime};

const ALICE_WEBID: &str = "https://alice.id/me";
const BOB_WEBID: &str = "https://bob.id/me";
const MEDICAL: &str = "https://bob.pod/data/medical.ttl";

struct World {
    chain: Blockchain,
    dex: DistExchangeClient,
    alice: KeyPair,
    bob: KeyPair,
    now: SimTime,
}

impl World {
    fn new() -> World {
        let mut chain = Blockchain::builder()
            .validators(4)
            .block_interval(SimDuration::from_secs(2))
            .build();
        chain.deploy(
            ContractId::new(DEX_CONTRACT_ID),
            Box::new(common::dex_app()),
        );
        let admin = chain.create_funded_account(b"admin", 1_000_000_000);
        let alice = chain.create_funded_account(b"alice", 1_000_000_000);
        let bob = chain.create_funded_account(b"bob", 1_000_000_000);
        let dex = DistExchangeClient::new();
        let init = dex.init_tx(
            &chain,
            &admin,
            10_000,
            SimDuration::from_days(30).as_nanos(),
            Address::from_seed(b"treasury"),
        );
        chain.submit(init).unwrap();
        let mut w = World {
            chain,
            dex,
            alice,
            bob,
            now: SimTime::ZERO,
        };
        w.step();
        w
    }

    /// Advances one block interval and produces due blocks.
    fn step(&mut self) {
        self.now += SimDuration::from_secs(2);
        self.chain.advance_to(self.now);
    }

    fn medical_policy(&self) -> UsagePolicy {
        UsagePolicy::builder(format!("{MEDICAL}#policy"), MEDICAL, BOB_WEBID)
            .permit(
                Rule::permit([Action::Use])
                    .with_constraint(Constraint::Purpose(vec![Purpose::new("medical")])),
            )
            .duty(Duty::LogAccesses)
            .build()
    }

    fn register_bob_pod_and_resource(&mut self) {
        let pod_tx = self.dex.register_pod_tx(
            &self.chain,
            &self.bob,
            BOB_WEBID,
            "https://bob.pod/",
            PolicyEnvelope::plain(&UsagePolicy::default_for("https://bob.pod/", BOB_WEBID)),
        );
        self.chain.submit(pod_tx).unwrap();
        self.step();
        let res_tx = self.dex.register_resource_tx(
            &self.chain,
            &self.bob,
            MEDICAL,
            "https://bob.pod/data/medical.ttl",
            BOB_WEBID,
            vec![("domain".into(), "health".into())],
            PolicyEnvelope::plain(&self.medical_policy()),
        );
        self.chain.submit(res_tx).unwrap();
        self.step();
    }

    fn register_alice_copy(&mut self, device: &str) -> KeyPair {
        let enclave = KeyPair::from_seed(device.as_bytes());
        let tx = self.copy_tx(MEDICAL, device, &enclave);
        self.chain.submit(tx).unwrap();
        self.step();
        enclave
    }

    /// Alice registers `device`'s copy of `resource`.
    fn copy_tx(&self, resource: &str, device: &str, enclave: &KeyPair) -> SignedTransaction {
        let copy = common::quoted_copy(resource, device, ALICE_WEBID, &enclave.public());
        self.dex.call_tx(&self.chain, &self.alice, copy)
    }

    /// Bob opens a monitoring round over the medical record.
    fn start_monitoring_tx(&self) -> SignedTransaction {
        let start = StartMonitoring {
            resource: MEDICAL.into(),
        };
        self.dex.call_tx(&self.chain, &self.bob, start)
    }

    fn copies(&self) -> Vec<CopyRecord> {
        let copies = ListCopies {
            resource: MEDICAL.into(),
        };
        self.dex.view(&self.chain, copies).unwrap()
    }

    fn round(&self, round: u64) -> MonitoringRound {
        let resource = MEDICAL.into();
        let record = self.dex.view(&self.chain, GetRound { resource, round });
        record.unwrap().expect("round")
    }

    fn verifies(&self, certificate: Digest, webid: &str) -> bool {
        let webid = webid.into();
        let verify = VerifyCertificate { certificate, webid };
        self.dex.view(&self.chain, verify).unwrap()
    }

    fn subscribe_tx(&self) -> SignedTransaction {
        let webid = ALICE_WEBID.into();
        self.dex
            .call_tx(&self.chain, &self.alice, Subscribe { webid })
    }
}

#[test]
fn pod_and_resource_registration() {
    let mut w = World::new();
    w.register_bob_pod_and_resource();

    let get_pod = GetPod {
        owner_webid: BOB_WEBID.into(),
    };
    let pod = w.dex.view(&w.chain, get_pod).unwrap().expect("pod");
    assert_eq!(pod.web_ref, "https://bob.pod/");
    assert_eq!(pod.owner_addr, Address::from_seed(b"bob"));

    let res = w
        .dex
        .lookup_resource(&w.chain, MEDICAL)
        .unwrap()
        .expect("resource");
    assert_eq!(res.policy_version, 1);
    assert_eq!(res.owner_webid, BOB_WEBID);
    let policy = res.policy.open_plain().unwrap();
    assert_eq!(policy.owner, BOB_WEBID);

    assert_eq!(
        w.dex.view(&w.chain, ListResources {}).unwrap(),
        vec![MEDICAL.to_string()]
    );
    assert!(w
        .dex
        .lookup_resource(&w.chain, "urn:missing")
        .unwrap()
        .is_none());
}

#[test]
fn duplicate_registrations_revert() {
    let mut w = World::new();
    w.register_bob_pod_and_resource();
    let dup = w.dex.register_pod_tx(
        &w.chain,
        &w.bob,
        BOB_WEBID,
        "https://elsewhere/",
        PolicyEnvelope::plain(&UsagePolicy::default_for("x", BOB_WEBID)),
    );
    let id = w.chain.submit(dup).unwrap();
    w.step();
    assert!(matches!(
        w.chain.receipt(&id).unwrap().status,
        TxStatus::Reverted(_)
    ));
}

#[test]
fn only_pod_owner_can_register_resources() {
    let mut w = World::new();
    w.register_bob_pod_and_resource();
    // Alice tries to register a resource under Bob's pod identity.
    let forged = w.dex.register_resource_tx(
        &w.chain,
        &w.alice,
        "https://bob.pod/data/other.ttl",
        "https://bob.pod/data/other.ttl",
        BOB_WEBID,
        vec![],
        PolicyEnvelope::plain(&w.medical_policy()),
    );
    let id = w.chain.submit(forged).unwrap();
    w.step();
    match &w.chain.receipt(&id).unwrap().status {
        TxStatus::Reverted(msg) => assert!(msg.contains("does not own"), "{msg}"),
        other => panic!("expected revert, got {other:?}"),
    }
}

#[test]
fn policy_update_requires_owner_and_version_increment() {
    let mut w = World::new();
    w.register_bob_pod_and_resource();
    let amended = w.medical_policy().amended(
        vec![Rule::permit([Action::Use])
            .with_constraint(Constraint::Purpose(vec![Purpose::new("academic")]))],
        vec![Duty::LogAccesses],
    );

    // Wrong caller.
    let tx = w.dex.update_policy_tx(
        &w.chain,
        &w.alice,
        MEDICAL,
        PolicyEnvelope::plain(&amended),
        2,
    );
    let id = w.chain.submit(tx).unwrap();
    w.step();
    assert!(matches!(
        w.chain.receipt(&id).unwrap().status,
        TxStatus::Reverted(_)
    ));

    // Wrong version.
    let tx = w.dex.update_policy_tx(
        &w.chain,
        &w.bob,
        MEDICAL,
        PolicyEnvelope::plain(&amended),
        5,
    );
    let id = w.chain.submit(tx).unwrap();
    w.step();
    assert!(matches!(
        w.chain.receipt(&id).unwrap().status,
        TxStatus::Reverted(_)
    ));

    // Correct update.
    let tx = w.dex.update_policy_tx(
        &w.chain,
        &w.bob,
        MEDICAL,
        PolicyEnvelope::plain(&amended),
        2,
    );
    let id = w.chain.submit(tx).unwrap();
    w.step();
    assert!(w.chain.receipt(&id).unwrap().status.is_ok());
    let res = w.dex.lookup_resource(&w.chain, MEDICAL).unwrap().unwrap();
    assert_eq!(res.policy_version, 2);

    // The PolicyUpdated event carries the new envelope.
    let updates: Vec<_> = w
        .chain
        .events_since(0)
        .iter()
        .filter(|(_, e)| e.topic == topics::POLICY_UPDATED)
        .collect();
    assert_eq!(updates.len(), 1);
}

#[test]
fn copy_tracking() {
    let mut w = World::new();
    w.register_bob_pod_and_resource();
    w.register_alice_copy("alice-laptop");
    w.register_alice_copy("alice-phone");
    let copies = w.copies();
    assert_eq!(copies.len(), 2);
    // `as_of` must lie strictly after the registration block time: the
    // freshness guard keeps records registered at or after it.
    let after_registration = w.chain.current_time() + duc_sim::SimDuration::from_nanos(1);
    let phone = KeyPair::from_seed(b"alice-phone");
    let unregister = common::signed_unregister(MEDICAL, "alice-phone", after_registration, &phone);
    let tx = w.dex.call_tx(&w.chain, &w.alice, unregister);
    w.chain.submit(tx).unwrap();
    w.step();
    let copies = w.copies();
    assert_eq!(copies.len(), 1);
    assert_eq!(copies[0].device, "alice-laptop");
}

/// Composite keys are `copy/{resource}\0{device}`: a resource IRI that
/// carries the separator would file its copies under another resource's
/// scan prefix, planting a holder that can never report into the victim's
/// monitoring rounds.
#[test]
fn separator_in_an_identity_cannot_plant_a_phantom_copy() {
    let mut w = World::new();
    w.register_bob_pod_and_resource();
    let pod_tx = w.dex.register_pod_tx(
        &w.chain,
        &w.alice,
        ALICE_WEBID,
        "https://alice.pod/",
        PolicyEnvelope::plain(&UsagePolicy::default_for("https://alice.pod/", ALICE_WEBID)),
    );
    w.chain.submit(pod_tx).unwrap();
    w.step();
    let shadow = format!("{MEDICAL}\0x");
    let res_tx = w.dex.register_resource_tx(
        &w.chain,
        &w.alice,
        &shadow,
        "https://alice.pod/shadow",
        ALICE_WEBID,
        vec![],
        PolicyEnvelope::plain(&UsagePolicy::default_for(&shadow, ALICE_WEBID)),
    );
    let res_id = w.chain.submit(res_tx).unwrap();
    w.step();
    match &w.chain.receipt(&res_id).unwrap().status {
        TxStatus::Reverted(msg) => assert!(msg.contains("NUL"), "{msg}"),
        other => panic!("expected revert, got {other:?}"),
    }
    let enclave = KeyPair::from_seed(b"d");
    for (resource, device) in [(shadow.as_str(), "d"), (MEDICAL, "x\0d")] {
        let tx = w.copy_tx(resource, device, &enclave);
        let id = w.chain.submit(tx).unwrap();
        w.step();
        assert!(matches!(
            w.chain.receipt(&id).unwrap().status,
            TxStatus::Reverted(_)
        ));
    }

    assert!(w.copies().is_empty());
    let tx = w.start_monitoring_tx();
    let id = w.chain.submit(tx).unwrap();
    w.step();
    let receipt = w.chain.receipt(&id).unwrap();
    let round = DistExchangeClient::decode_return::<StartMonitoring>(&receipt.return_data).unwrap();
    let record = w.round(round);
    assert!(record.expected_devices.is_empty(), "{record:?}");
    assert!(record.closed);
}

#[test]
fn monitoring_round_with_signed_evidence() {
    let mut w = World::new();
    w.register_bob_pod_and_resource();
    let enclave = w.register_alice_copy("alice-laptop");

    let tx = w.start_monitoring_tx();
    let id = w.chain.submit(tx).unwrap();
    w.step();
    let receipt = w.chain.receipt(&id).unwrap().clone();
    assert!(receipt.status.is_ok());
    let round = DistExchangeClient::decode_return::<StartMonitoring>(&receipt.return_data).unwrap();
    assert_eq!(round, 1);

    // The enclave submits signed evidence.
    let mut submission = EvidenceSubmission {
        resource: MEDICAL.into(),
        round,
        device: "alice-laptop".into(),
        compliant: true,
        violations: vec![],
        evidence_digest: sha256(b"usage log"),
        signature: Signature { e: 0, s: 0 },
    };
    submission.signature = enclave.sign(&submission.signing_bytes());
    let tx = w.dex.call_tx(&w.chain, &w.alice, submission);
    let id = w.chain.submit(tx).unwrap();
    w.step();
    assert!(w.chain.receipt(&id).unwrap().status.is_ok());

    let record = w.round(round);
    assert!(record.closed, "round closes when all devices answered");
    assert!(record.complete());
    assert!(record.violators().is_empty());
    assert!(w
        .chain
        .events_since(0)
        .iter()
        .any(|(_, e)| e.topic == topics::ROUND_CLOSED));
}

#[test]
fn forged_evidence_is_rejected_on_chain() {
    let mut w = World::new();
    w.register_bob_pod_and_resource();
    let _enclave = w.register_alice_copy("alice-laptop");
    let tx = w.start_monitoring_tx();
    w.chain.submit(tx).unwrap();
    w.step();

    // Mallory forges evidence with her own key.
    let mallory = KeyPair::from_seed(b"mallory");
    let mut forged = EvidenceSubmission {
        resource: MEDICAL.into(),
        round: 1,
        device: "alice-laptop".into(),
        compliant: true,
        violations: vec![],
        evidence_digest: sha256(b"fake"),
        signature: Signature { e: 0, s: 0 },
    };
    forged.signature = mallory.sign(&forged.signing_bytes());
    let tx = w.dex.call_tx(&w.chain, &w.alice, forged);
    let id = w.chain.submit(tx).unwrap();
    w.step();
    match &w.chain.receipt(&id).unwrap().status {
        TxStatus::Reverted(msg) => assert!(msg.contains("signature"), "{msg}"),
        other => panic!("expected revert, got {other:?}"),
    }
    let record = w.round(1);
    assert!(record.evidence.is_empty());
    assert!(!record.closed);
}

#[test]
fn duplicate_and_unexpected_evidence_rejected() {
    let mut w = World::new();
    w.register_bob_pod_and_resource();
    let enclave = w.register_alice_copy("alice-laptop");
    let tx = w.start_monitoring_tx();
    w.chain.submit(tx).unwrap();
    w.step();

    let mut good = EvidenceSubmission {
        resource: MEDICAL.into(),
        round: 1,
        device: "alice-laptop".into(),
        compliant: true,
        violations: vec![],
        evidence_digest: sha256(b"log"),
        signature: Signature { e: 0, s: 0 },
    };
    good.signature = enclave.sign(&good.signing_bytes());
    let tx = w.dex.call_tx(&w.chain, &w.alice, good.clone());
    w.chain.submit(tx).unwrap();
    w.step();

    // Duplicate (round already closed since all expected answered).
    let tx = w.dex.call_tx(&w.chain, &w.alice, good);
    let id = w.chain.submit(tx).unwrap();
    w.step();
    assert!(matches!(
        w.chain.receipt(&id).unwrap().status,
        TxStatus::Reverted(_)
    ));

    // Unexpected device in a new round: its copy is registered after the
    // round opened, so its key signs, but the round does not expect it.
    let tx = w.start_monitoring_tx();
    w.chain.submit(tx).unwrap();
    w.step();
    let stranger = w.register_alice_copy("stranger-device");
    let mut odd = EvidenceSubmission {
        resource: MEDICAL.into(),
        round: 2,
        device: "stranger-device".into(),
        compliant: true,
        violations: vec![],
        evidence_digest: sha256(b"x"),
        signature: Signature { e: 0, s: 0 },
    };
    odd.signature = stranger.sign(&odd.signing_bytes());
    let tx = w.dex.call_tx(&w.chain, &w.alice, odd);
    let id = w.chain.submit(tx).unwrap();
    w.step();
    match &w.chain.receipt(&id).unwrap().status {
        TxStatus::Reverted(msg) => assert!(msg.contains("not expected"), "{msg}"),
        other => panic!("expected revert, got {other:?}"),
    }
}

#[test]
fn market_subscription_and_certificate() {
    let mut w = World::new();
    let treasury = Address::from_seed(b"treasury");
    let before = w.chain.balance(&treasury);

    let tx = w.subscribe_tx();
    let id = w.chain.submit(tx).unwrap();
    w.step();
    let receipt = w.chain.receipt(&id).unwrap().clone();
    assert!(receipt.status.is_ok());
    let cert = DistExchangeClient::decode_return::<Subscribe>(&receipt.return_data).unwrap();

    assert_eq!(w.chain.balance(&treasury), before + 10_000, "fee collected");
    assert!(w.verifies(cert, ALICE_WEBID));
    assert!(!w.verifies(cert, BOB_WEBID));
    assert!(!w.verifies(sha256(b"forged"), ALICE_WEBID));

    let get_sub = GetSubscription {
        webid: ALICE_WEBID.into(),
    };
    let sub = w.dex.view(&w.chain, get_sub).unwrap().unwrap();
    assert_eq!(sub.certificate, cert);
    assert!(sub.valid_at(w.now));
}

#[test]
fn certificate_expires() {
    let mut w = World::new();
    let tx = w.subscribe_tx();
    let id = w.chain.submit(tx).unwrap();
    w.step();
    let receipt = w.chain.receipt(&id).unwrap();
    let cert = DistExchangeClient::decode_return::<Subscribe>(&receipt.return_data).unwrap();
    assert!(w.verifies(cert, ALICE_WEBID));
    // 31 days later the certificate is expired (validity 30 days).
    w.now += SimDuration::from_days(31);
    w.chain.advance_to(w.now);
    assert!(!w.verifies(cert, ALICE_WEBID));
}

#[test]
fn gas_ledger_reflects_de_app_usage() {
    let mut w = World::new();
    w.register_bob_pod_and_resource();
    let agg = w.chain.gas_by_method();
    let pod_row = agg
        .get(&(DEX_CONTRACT_ID.to_string(), "register_pod".to_string()))
        .expect("pod row");
    assert_eq!(pod_row.0, 1);
    assert!(pod_row.1 > 21_000);
    let res_row = agg
        .get(&(DEX_CONTRACT_ID.to_string(), "register_resource".to_string()))
        .expect("resource row");
    assert!(res_row.2 > pod_row.2 / 10, "sane magnitudes");
}

/// A call decodes whole or reverts: `list_resources` given arguments is
/// refused like any other method's leftover bytes.
#[test]
fn list_resources_refuses_arguments() {
    let w = World::new();
    let out = w
        .chain
        .call_view(w.dex.contract_id(), "list_resources", &[0]);
    assert!(
        matches!(out, Err(ContractError::BadArguments(_))),
        "{out:?}"
    );
}

/// A submission writes its own row, so its gas does not depend on how many
/// devices answered before it: a compliant round over 256 holders closes,
/// and every submission but the one that closes it costs within ±10 % of
/// the first. While each submission rewrote the whole round, a 64-holder
/// round ran out of gas at its 62nd answer and could never close.
#[test]
fn a_round_over_256_holders_closes_at_constant_gas_per_submission() {
    const HOLDERS: usize = 256;
    let mut w = World::new();
    w.register_bob_pod_and_resource();
    let devices: Vec<String> = (0..HOLDERS).map(|i| format!("holder-{i:03}")).collect();
    let enclaves: Vec<KeyPair> = devices.iter().map(|d| w.register_alice_copy(d)).collect();
    let tx = w.start_monitoring_tx();
    let id = w.chain.submit(tx).unwrap();
    w.step();
    let receipt = w.chain.receipt(&id).unwrap();
    assert!(receipt.status.is_ok(), "{:?}", receipt.status);
    let round = DistExchangeClient::decode_return::<StartMonitoring>(&receipt.return_data).unwrap();

    let mut gas = Vec::with_capacity(HOLDERS);
    for (device, enclave) in devices.iter().zip(&enclaves) {
        let mut submission = EvidenceSubmission {
            resource: MEDICAL.into(),
            round,
            device: device.clone(),
            compliant: true,
            violations: vec![],
            evidence_digest: sha256(device.as_bytes()),
            signature: Signature { e: 0, s: 0 },
        };
        submission.signature = enclave.sign(&submission.signing_bytes());
        let tx = w.dex.call_tx(&w.chain, &w.alice, submission);
        let id = w.chain.submit(tx).unwrap();
        w.step();
        let receipt = w.chain.receipt(&id).unwrap();
        assert!(
            receipt.status.is_ok(),
            "submission {} of {HOLDERS}: {:?}",
            gas.len() + 1,
            receipt.status
        );
        gas.push(receipt.gas_used);
    }

    let record = w.round(round);
    assert!(record.closed, "every holder answered");
    assert_eq!(record.evidence.len(), HOLDERS);
    let first = gas[0];
    for (i, &used) in gas[..HOLDERS - 1].iter().enumerate() {
        assert!(
            used.abs_diff(first) * 10 <= first,
            "submission {} used {used} gas, the first {first}",
            i + 1
        );
    }
}
