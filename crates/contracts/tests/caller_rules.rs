//! Who may call: four attacks on the DE App's copy and certificate records,
//! each from a freshly funded stranger's account, and the caller rule that
//! rejects each one (the `by` column of the call table in `calls.rs`).
//!
//! - `register_copy` of Alice's device under the stranger's key, then
//!   evidence the stranger signs for that device (`QuotedEnclave`);
//! - `unregister_copy` of Alice's copy with a late `as_of` (`CopyKey`);
//! - `subscribe` for Alice's WebID, which would void her certificate
//!   (`CertificateHolder`);
//! - `register_copy` under a key no attestation authority quoted
//!   (`QuotedEnclave`).

mod common;

use duc_blockchain::{Address, Blockchain, ContractId, SignedTransaction, TxStatus};
use duc_contracts::calls::{ListCopies, StartMonitoring, Subscribe, VerifyCertificate};
use duc_contracts::{
    DexCall, DistExchangeClient, EvidenceSubmission, PolicyEnvelope, DEX_CONTRACT_ID,
};
use duc_crypto::{quote_signing_bytes, sha256, Digest, KeyPair, Signature};
use duc_policy::UsagePolicy;
use duc_sim::{SimDuration, SimTime};

const BOB: &str = "https://bob.id/me";
const ALICE: &str = "https://alice.id/me";
const MALLORY: &str = "https://mallory.id/me";
const MEDICAL: &str = "https://bob.pod/data/medical.ttl";
const LAPTOP: &str = "alice-laptop";

/// A bare chain with the DE App: Bob's pod and resource, Alice's
/// subscription and her laptop's quoted copy, and a stranger's funded
/// account.
struct Market {
    chain: Blockchain,
    dex: DistExchangeClient,
    bob: KeyPair,
    alice: KeyPair,
    laptop: KeyPair,
    stranger: KeyPair,
    certificate: Digest,
}

impl Market {
    fn new() -> Market {
        let mut chain = Blockchain::builder()
            .validators(4)
            .block_interval(SimDuration::from_secs(2))
            .build();
        chain.deploy(
            ContractId::new(DEX_CONTRACT_ID),
            Box::new(common::dex_app()),
        );
        let admin = chain.create_funded_account(b"admin", 1_000_000_000);
        let bob = chain.create_funded_account(b"bob", 1_000_000_000_000);
        let alice = chain.create_funded_account(b"alice", 1_000_000_000_000);
        let stranger = chain.create_funded_account(b"stranger", 1_000_000_000_000);
        let mut m = Market {
            chain,
            dex: DistExchangeClient::new(),
            bob,
            alice,
            laptop: KeyPair::from_seed(LAPTOP.as_bytes()),
            stranger,
            certificate: sha256(b"set below"),
        };
        let validity = SimDuration::from_days(30).as_nanos();
        let init = m
            .dex
            .init_tx(&m.chain, &admin, 10, validity, Address::from_seed(b"t"));
        m.ok(init);
        let policy = |iri: &str| PolicyEnvelope::plain(&UsagePolicy::default_for(iri, BOB));
        let pod = (m.dex).register_pod_tx(&m.chain, &bob, BOB, "https://bob.pod/", policy(MEDICAL));
        m.ok(pod);
        let resource = (m.dex).register_resource_tx(
            &m.chain,
            &bob,
            MEDICAL,
            MEDICAL,
            BOB,
            vec![],
            policy(MEDICAL),
        );
        m.ok(resource);
        let copy = common::quoted_copy(MEDICAL, LAPTOP, ALICE, &m.laptop.public());
        m.call_ok(&alice, copy);
        let receipt = m.call_ok(
            &alice,
            Subscribe {
                webid: ALICE.into(),
            },
        );
        m.certificate =
            DistExchangeClient::decode_return::<Subscribe>(&receipt).expect("certificate");
        m
    }

    /// Seals `tx` in a block of its own and returns its status and return
    /// data.
    fn run(&mut self, tx: SignedTransaction) -> (TxStatus, Vec<u8>) {
        let id = self.chain.submit(tx).expect("submits");
        let next = self.chain.current_time() + SimDuration::from_secs(2);
        self.chain.advance_to(next);
        let receipt = self.chain.receipt(&id).expect("sealed");
        (receipt.status.clone(), receipt.return_data.clone())
    }

    fn ok(&mut self, tx: SignedTransaction) -> Vec<u8> {
        let (status, data) = self.run(tx);
        assert_eq!(status, TxStatus::Ok);
        data
    }

    fn call(&mut self, key: &KeyPair, call: impl Into<DexCall>) -> (TxStatus, Vec<u8>) {
        let tx = self.dex.call_tx(&self.chain, key, call);
        self.run(tx)
    }

    fn call_ok(&mut self, key: &KeyPair, call: impl Into<DexCall>) -> Vec<u8> {
        let tx = self.dex.call_tx(&self.chain, key, call);
        self.ok(tx)
    }

    /// The devices holding copies of `MEDICAL`, with their keys.
    fn copies(&self) -> Vec<(String, u64)> {
        let list = ListCopies {
            resource: MEDICAL.into(),
        };
        let copies = self.dex.view(&self.chain, list).expect("view");
        copies
            .into_iter()
            .map(|c| (c.device, c.attestation_key.0))
            .collect()
    }

    fn now(&self) -> SimTime {
        self.chain.current_time()
    }
}

/// Asserts that `status` is a revert naming `rule`.
fn refused_by(status: &TxStatus, rule: &str) {
    match status {
        TxStatus::Reverted(msg) => assert!(msg.contains(rule), "{rule} not named in {msg:?}"),
        other => panic!("expected a revert by {rule}, got {other:?}"),
    }
}

fn evidence(round: u64, device: &str, key: &KeyPair) -> EvidenceSubmission {
    let mut submission = EvidenceSubmission {
        resource: MEDICAL.into(),
        round,
        device: device.into(),
        compliant: true,
        violations: Vec::new(),
        evidence_digest: sha256(b"forged log"),
        signature: Signature { e: 0, s: 0 },
    };
    submission.signature = key.sign(&submission.signing_bytes());
    submission
}

#[test]
fn a_stranger_cannot_take_over_a_registered_copy() {
    let mut m = Market::new();
    let stranger = m.stranger;
    // Alice's quote, replayed for the stranger's key.
    let mut takeover = common::quoted_copy(MEDICAL, LAPTOP, MALLORY, &m.laptop.public());
    takeover.attestation_key = stranger.public();
    let (status, _) = m.call(&stranger, takeover);
    refused_by(&status, "QuotedEnclave");
    assert_eq!(m.copies(), [(LAPTOP.to_string(), m.laptop.public().0)]);

    // The round expects Alice's laptop, and only its enclave may answer.
    let bob = m.bob;
    let start = StartMonitoring {
        resource: MEDICAL.into(),
    };
    let round = m.call_ok(&bob, start);
    let round = DistExchangeClient::decode_return::<StartMonitoring>(&round).expect("round");
    let (status, _) = m.call(&stranger, evidence(round, LAPTOP, &stranger));
    refused_by(&status, "evidence signature does not verify");
    let laptop = m.laptop;
    m.call_ok(&stranger, evidence(round, LAPTOP, &laptop));
}

#[test]
fn a_stranger_cannot_unregister_a_copy() {
    let mut m = Market::new();
    let stranger = m.stranger;
    let late = m.now() + SimDuration::from_days(365);
    let unregister = common::signed_unregister(MEDICAL, LAPTOP, late, &stranger);
    let (status, _) = m.call(&stranger, unregister);
    refused_by(&status, "CopyKey");
    assert_eq!(m.copies().len(), 1, "Alice's copy is still registered");

    // The copy's own enclave may, from any account.
    let laptop = m.laptop;
    let unregister = common::signed_unregister(MEDICAL, LAPTOP, late, &laptop);
    let removed = m.call_ok(&stranger, unregister);
    assert_eq!(removed, [1]);
    assert!(m.copies().is_empty());
}

#[test]
fn a_stranger_cannot_overwrite_a_live_subscription() {
    let mut m = Market::new();
    let stranger = m.stranger;
    let (status, _) = m.call(
        &stranger,
        Subscribe {
            webid: ALICE.into(),
        },
    );
    refused_by(&status, "CertificateHolder");
    let verify = VerifyCertificate {
        certificate: m.certificate,
        webid: ALICE.into(),
    };
    assert_eq!(m.dex.view(&m.chain, verify), Ok(true), "valid=true");

    // Alice renews her own; the stranger buys one for its own WebID.
    let alice = m.alice;
    m.call_ok(
        &alice,
        Subscribe {
            webid: ALICE.into(),
        },
    );
    m.call_ok(
        &stranger,
        Subscribe {
            webid: MALLORY.into(),
        },
    );
}

#[test]
fn a_key_without_a_quote_cannot_register_a_copy() {
    let mut m = Market::new();
    let stranger = m.stranger;
    let rogue = KeyPair::from_seed(b"mallory-box");
    // A quote the rogue enclave signed itself.
    let mut copy = common::quoted_copy(MEDICAL, "mallory-box", MALLORY, &rogue.public());
    copy.quote = rogue.sign(&quote_signing_bytes(
        "mallory-box",
        &common::measurement(),
        &rogue.public(),
    ));
    let (status, _) = m.call(&stranger, copy);
    refused_by(&status, "QuotedEnclave");
    assert_eq!(m.copies().len(), 1, "only Alice's copy");

    // The authority's quote admits the same registration.
    let copy = common::quoted_copy(MEDICAL, "mallory-box", MALLORY, &rogue.public());
    m.call_ok(&stranger, copy);
    assert_eq!(m.copies().len(), 2);
}
