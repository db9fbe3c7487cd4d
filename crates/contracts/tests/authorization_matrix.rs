//! The authorization matrix: every DE App method, called on a bare
//! `Blockchain` by the resource owner, the copy's device, a subscriber, a
//! stranger and a validator, with well-formed arguments, arguments carrying
//! another party's quote or signature, and replayed arguments. Whether a
//! call reverts must be what its row's caller rule (the `by` column of
//! `calls.rs`) says, over a model of who holds which record — never what
//! the contract happens to do.

mod common;

use duc_blockchain::{Address, Blockchain, ContractId, TxStatus};
use duc_contracts::calls::{
    CallerRule, GetPod, GetRound, GetSubscription, Init, ListCopies, ListResources, LookupResource,
    RegisterPod, RegisterResource, StartMonitoring, Subscribe, UpdatePolicy, VerifyCertificate,
};
use duc_contracts::{
    DexCall, DistExchangeClient, EvidenceReaffirmation, EvidenceSubmission, PolicyEnvelope,
    DEX_CONTRACT_ID,
};
use duc_crypto::{sha256, Digest, KeyPair, Signature};
use duc_policy::UsagePolicy;
use duc_sim::{SimDuration, SimTime};

const OWNER: &str = "https://owner.id/me";
const RES: &str = "https://owner.pod/data/set.bin";
const DEVICE: &str = "device-1";
const SUBSCRIBER: &str = "https://subscriber.id/me";

/// The callers of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Party {
    Owner,
    Device,
    Subscriber,
    Stranger,
    Validator,
}

const PARTIES: [Party; 5] = [
    Party::Owner,
    Party::Device,
    Party::Subscriber,
    Party::Stranger,
    Party::Validator,
];

/// Whose quote or signature a call's arguments carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Carries {
    /// Nothing signed, or the right party's signature.
    Own,
    /// Another party's quote or signature.
    Other,
}

/// One matrix row: a call, what its arguments carry, and whether the
/// method itself (past its rule) succeeds on the fixture.
struct Case {
    label: &'static str,
    call: DexCall,
    carries: Carries,
    method_ok: bool,
}

/// A fresh ledger: a market; the owner's pod and resource; the device's
/// quoted copy; the subscriber's live subscription; round 1 answered and
/// closed, round 2 open and expecting the device.
struct Fixture {
    chain: Blockchain,
    dex: DistExchangeClient,
    keys: [KeyPair; 5],
    certificate: Digest,
}

fn enclave() -> KeyPair {
    KeyPair::from_seed(DEVICE.as_bytes())
}

fn policy(version: u64) -> PolicyEnvelope {
    let mut policy = UsagePolicy::default_for(RES, OWNER);
    policy.version = version;
    PolicyEnvelope::plain(&policy)
}

fn evidence(round: u64, key: &KeyPair) -> EvidenceSubmission {
    let mut submission = EvidenceSubmission {
        resource: RES.into(),
        round,
        device: DEVICE.into(),
        compliant: true,
        violations: Vec::new(),
        evidence_digest: sha256(b"log"),
        signature: Signature { e: 0, s: 0 },
    };
    submission.signature = key.sign(&submission.signing_bytes());
    submission
}

fn reaffirmation(key: &KeyPair) -> EvidenceReaffirmation {
    let mut reaff = EvidenceReaffirmation {
        resource: RES.into(),
        round: 2,
        device: DEVICE.into(),
        prev_round: 1,
        evidence_digest: sha256(b"log"),
        signature: Signature { e: 0, s: 0 },
    };
    reaff.signature = key.sign(&reaff.signing_bytes());
    reaff
}

impl Fixture {
    fn new() -> Fixture {
        let mut chain = Blockchain::builder()
            .validators(4)
            .block_interval(SimDuration::from_secs(2))
            .build();
        chain.deploy(
            ContractId::new(DEX_CONTRACT_ID),
            Box::new(common::dex_app()),
        );
        let fund = |chain: &mut Blockchain, seed: &[u8]| {
            chain.create_funded_account(seed, 1_000_000_000_000)
        };
        let admin = fund(&mut chain, b"admin");
        let keys = [
            fund(&mut chain, b"owner"),
            fund(&mut chain, b"device-account"),
            fund(&mut chain, b"subscriber"),
            fund(&mut chain, b"stranger"),
            fund(&mut chain, b"duc/validator-0"),
        ];
        let validator = Address::from_public_key(&keys[4].public());
        assert_eq!(chain.validator_addresses()[0], validator);
        let mut fx = Fixture {
            chain,
            dex: DistExchangeClient::new(),
            keys,
            certificate: sha256(b"set below"),
        };
        let treasury = Address::from_seed(b"treasury");
        let [owner, device, subscriber, ..] = fx.keys;
        let day = SimDuration::from_days(1).as_nanos();
        let init = Init {
            fee: 10,
            validity_nanos: day,
            treasury,
        };
        fx.ok(&admin, init);
        let pod = RegisterPod {
            owner_webid: OWNER.into(),
            web_ref: "https://owner.pod/".into(),
            default_policy: policy(1),
        };
        fx.ok(&owner, pod);
        fx.ok(&owner, register_resource(RES));
        let copy = common::quoted_copy(RES, DEVICE, SUBSCRIBER, &enclave().public());
        fx.ok(&device, copy);
        let cert = fx.ok(
            &subscriber,
            Subscribe {
                webid: SUBSCRIBER.into(),
            },
        );
        fx.certificate = DistExchangeClient::decode_return::<Subscribe>(&cert).expect("cert");
        fx.ok(&owner, start());
        fx.ok(&device, evidence(1, &enclave()));
        fx.ok(&owner, start());
        fx
    }

    /// Seals `call` from `key` in a block of its own; its status and return
    /// data.
    fn run(&mut self, key: &KeyPair, call: impl Into<DexCall>) -> (TxStatus, Vec<u8>) {
        let tx = self.dex.call_tx(&self.chain, key, call);
        let id = self.chain.submit(tx).expect("submits");
        let next = self.chain.current_time() + SimDuration::from_secs(2);
        self.chain.advance_to(next);
        let receipt = self.chain.receipt(&id).expect("sealed");
        (receipt.status.clone(), receipt.return_data.clone())
    }

    fn ok(&mut self, key: &KeyPair, call: impl Into<DexCall>) -> Vec<u8> {
        let (status, data) = self.run(key, call);
        assert_eq!(status, TxStatus::Ok, "fixture");
        data
    }
}

fn register_resource(resource: &str) -> RegisterResource {
    RegisterResource {
        resource: resource.into(),
        location: resource.into(),
        owner_webid: OWNER.into(),
        metadata: Vec::new(),
        policy: policy(1),
    }
}

fn start() -> StartMonitoring {
    StartMonitoring {
        resource: RES.into(),
    }
}

/// Every method, with well-formed, borrowed and replayed arguments.
#[rustfmt::skip]
fn cases(certificate: Digest) -> Vec<Case> {
    use Carries::{Other, Own};
    let other = KeyPair::from_seed(b"stranger-enclave");
    let late = SimTime::ZERO + SimDuration::from_days(300);
    let copy = |device, key: &KeyPair| common::quoted_copy(RES, device, SUBSCRIBER, &key.public());
    let mut borrowed = copy(DEVICE, &enclave());
    borrowed.attestation_key = other.public();
    let unregister = |as_of, key: &KeyPair| common::signed_unregister(RES, DEVICE, as_of, key);
    let pod = |webid: &str| RegisterPod { owner_webid: webid.into(), web_ref: "w".into(), default_policy: policy(1) };
    let update = |version| UpdatePolicy { resource: RES.into(), policy: policy(version), new_version: version };
    let subscribe = |webid: &str| Subscribe { webid: webid.into() };
    let rows: Vec<(&'static str, DexCall, Carries, bool)> = vec![
        ("init again", Init { fee: 1, validity_nanos: 1, treasury: Address::from_seed(b"x") }.into(), Own, false),
        ("register_pod", pod("https://new.id/me").into(), Own, true),
        ("register_pod replayed", pod(OWNER).into(), Own, false),
        ("get_pod", GetPod { owner_webid: OWNER.into() }.into(), Own, true),
        ("register_resource", register_resource("https://owner.pod/data/new.bin").into(), Own, true),
        ("register_resource replayed", register_resource(RES).into(), Own, false),
        ("lookup_resource", LookupResource { resource: RES.into() }.into(), Own, true),
        ("list_resources", ListResources {}.into(), Own, true),
        ("update_policy", update(2).into(), Own, true),
        ("update_policy replayed", update(1).into(), Own, false),
        ("register_copy", copy("device-2", &other).into(), Own, true),
        ("register_copy, borrowed quote", borrowed.into(), Other, true),
        ("register_copy replayed", copy(DEVICE, &enclave()).into(), Own, true),
        ("unregister_copy", unregister(late, &enclave()).into(), Own, true),
        ("unregister_copy, other key", unregister(late, &other).into(), Other, true),
        ("unregister_copy replayed", unregister(SimTime::ZERO, &enclave()).into(), Own, true),
        ("list_copies", ListCopies { resource: RES.into() }.into(), Own, true),
        ("start_monitoring", start().into(), Own, true),
        ("record_evidence", evidence(2, &enclave()).into(), Own, true),
        ("record_evidence, other key", evidence(2, &other).into(), Other, true),
        ("record_evidence replayed", evidence(1, &enclave()).into(), Own, false),
        ("reaffirm_evidence", reaffirmation(&enclave()).into(), Own, true),
        ("reaffirm_evidence, other key", reaffirmation(&other).into(), Other, true),
        ("get_round", GetRound { resource: RES.into(), round: 1 }.into(), Own, true),
        ("subscribe, held WebID", subscribe(SUBSCRIBER).into(), Own, true),
        ("subscribe, fresh WebID", subscribe("https://new.id/me").into(), Own, true),
        ("verify_certificate", VerifyCertificate { certificate, webid: SUBSCRIBER.into() }.into(), Own, true),
        ("get_subscription", GetSubscription { webid: SUBSCRIBER.into() }.into(), Own, true),
    ];
    rows.into_iter()
        .map(|(label, call, carries, method_ok)| Case { label, call, carries, method_ok })
        .collect()
}

/// The model: whether `rule` admits `caller` on the fixture, given what
/// the arguments carry. Only the owner registered the pod and the
/// resource; only the subscriber holds a live subscription, for
/// `SUBSCRIBER`; quotes and copy signatures admit any sender.
fn admits(rule: &CallerRule<'_>, caller: Party, carries: Carries) -> bool {
    match rule {
        CallerRule::Anyone => true,
        CallerRule::PodOwner { owner_webid } => *owner_webid == OWNER && caller == Party::Owner,
        CallerRule::ResourceOwner { resource, .. } => *resource == RES && caller == Party::Owner,
        CallerRule::QuotedEnclave { .. } | CallerRule::CopyKey { .. } => carries == Carries::Own,
        CallerRule::CertificateHolder { webid } => {
            *webid != SUBSCRIBER || caller == Party::Subscriber
        }
    }
}

#[test]
fn every_method_reverts_exactly_when_its_rule_refuses_the_caller() {
    let methods: std::collections::BTreeSet<&str> =
        cases(sha256(b"")).iter().map(|c| c.call.name()).collect();
    assert_eq!(methods.len(), 17, "every method has a row in the matrix");
    let mut refused = 0;
    for (index, caller) in PARTIES.iter().enumerate() {
        for which in 0..cases(sha256(b"")).len() {
            let mut fx = Fixture::new();
            let case = cases(fx.certificate).swap_remove(which);
            let admitted = admits(&case.call.caller_rule(), *caller, case.carries);
            refused += usize::from(!admitted);
            let key = fx.keys[index];
            let (status, _) = fx.run(&key, case.call);
            let ok = status == TxStatus::Ok;
            assert_eq!(
                ok,
                admitted && case.method_ok,
                "{} by {caller:?}: {status:?}",
                case.label
            );
        }
    }
    assert!(refused > 0, "the matrix exercises refusals");
}
