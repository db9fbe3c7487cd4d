//! Known answers for monitoring rounds (paper process 6): the SHA-256 of
//! everything a round shows its callers — the `Debug` output of every
//! `get_round` result, every event (topic plus payload hex) and every
//! revert message — over
//!
//! - E6's 1-, 4-, 16- and 64-device rounds, a quarter of the devices
//!   reporting violations;
//! - a reaffirmation mix over three rounds;
//! - a round whose submissions land in the reverse of `expected_devices`;
//! - each of the six revert paths of `record_evidence` and of
//!   `reaffirm_evidence`, and the two prior-round paths of the latter.
//!
//! Gas is deliberately left out: how a round is stored may change what a
//! submission costs, never what any caller reads back. Never re-record.
//! (The revert-path answer was re-recorded once, when the submission
//! methods' `CopyKey` caller rule moved the copy and signature checks
//! ahead of the round checks, and device-stranger's copy was registered so
//! the "not expected" path stays covered; the other four are as recorded.)

mod common;

use duc_blockchain::{Address, Blockchain, ContractId, TxId, TxStatus};
use duc_contracts::calls::{GetRound, StartMonitoring};
use duc_contracts::{
    DexCall, DistExchangeClient, EvidenceReaffirmation, EvidenceSubmission, PolicyEnvelope,
    DEX_CONTRACT_ID,
};
use duc_crypto::{sha256, KeyPair, Signature};
use duc_policy::UsagePolicy;
use duc_sim::{SimDuration, SimTime};

const OWNER: &str = "https://owner.id/me";
const RESOURCE: &str = "https://owner.pod/data/set.bin";

/// A bare chain with the DE App, one owner holding `RESOURCE`, and a
/// transcript of everything the round methods showed.
struct Bench {
    chain: Blockchain,
    dex: DistExchangeClient,
    owner: KeyPair,
    holder: KeyPair,
    now: SimTime,
    transcript: Vec<String>,
}

impl Bench {
    fn new() -> Bench {
        let mut chain = Blockchain::builder()
            .validators(4)
            .block_interval(SimDuration::from_secs(2))
            .build();
        chain.deploy(
            ContractId::new(DEX_CONTRACT_ID),
            Box::new(common::dex_app()),
        );
        let admin = chain.create_funded_account(b"admin", 1_000_000_000);
        let owner = chain.create_funded_account(b"owner", 1_000_000_000_000);
        let holder = chain.create_funded_account(b"holder", 1_000_000_000_000);
        let dex = DistExchangeClient::new();
        let mut b = Bench {
            chain,
            dex,
            owner,
            holder,
            now: SimTime::ZERO,
            transcript: Vec::new(),
        };
        let init = b.dex.init_tx(
            &b.chain,
            &admin,
            10_000,
            SimDuration::from_days(30).as_nanos(),
            Address::from_seed(b"treasury"),
        );
        b.run(init);
        let pod = b.dex.register_pod_tx(
            &b.chain,
            &b.owner,
            OWNER,
            "https://owner.pod/",
            PolicyEnvelope::plain(&UsagePolicy::default_for("https://owner.pod/", OWNER)),
        );
        b.run(pod);
        let resource = b.dex.register_resource_tx(
            &b.chain,
            &b.owner,
            RESOURCE,
            RESOURCE,
            OWNER,
            vec![],
            PolicyEnvelope::plain(&UsagePolicy::default_for(RESOURCE, OWNER)),
        );
        b.run(resource);
        b.transcript.clear();
        b
    }

    /// Seals `tx` in a block of its own and transcribes its outcome.
    fn run(&mut self, tx: duc_blockchain::SignedTransaction) -> TxId {
        let id = self.chain.submit(tx).expect("submits");
        self.now += SimDuration::from_secs(2);
        self.chain.advance_to(self.now);
        let receipt = self.chain.receipt(&id).expect("sealed").clone();
        match &receipt.status {
            TxStatus::Ok => self.transcript.push("ok".into()),
            TxStatus::Reverted(msg) => self.transcript.push(format!("revert {msg}")),
            other => panic!("unexpected status {other:?}"),
        }
        for event in &receipt.events {
            let data = hex(&event.data);
            self.transcript
                .push(format!("event {} {data}", event.topic));
        }
        id
    }

    fn call(&mut self, key: &KeyPair, call: impl Into<DexCall>) -> TxId {
        let tx = self.dex.call_tx(&self.chain, key, call);
        self.run(tx)
    }

    fn register(&mut self, device: &str) {
        let holder_webid = format!("https://{device}.id/me");
        let copy = common::quoted_copy(RESOURCE, device, &holder_webid, &enclave(device).public());
        let owner = self.holder;
        self.call(&owner, copy);
    }

    fn unregister(&mut self, device: &str) {
        let as_of = self.now + SimDuration::from_secs(1);
        let unregister = common::signed_unregister(RESOURCE, device, as_of, &enclave(device));
        let holder = self.holder;
        self.call(&holder, unregister);
    }

    fn start(&mut self) -> u64 {
        let owner = self.owner;
        let id = self.call(
            &owner,
            StartMonitoring {
                resource: RESOURCE.into(),
            },
        );
        let receipt = self.chain.receipt(&id).expect("sealed");
        DistExchangeClient::decode_return::<StartMonitoring>(&receipt.return_data)
            .expect("round number")
    }

    /// Transcribes what `get_round` shows for `round`.
    fn show(&mut self, round: u64) {
        let get = GetRound {
            resource: RESOURCE.into(),
            round,
        };
        let record = self.dex.view(&self.chain, get);
        self.transcript.push(format!("round {round} {record:?}"));
    }

    fn evidence(&mut self, round: u64, device: &str, compliant: bool, log: &[u8]) {
        let submission = signed_evidence(round, device, compliant, log, &enclave(device));
        self.submit_evidence(submission);
    }

    fn submit_evidence(&mut self, submission: EvidenceSubmission) {
        let round = submission.round;
        let holder = self.holder;
        self.call(&holder, submission);
        self.show(round);
    }

    fn reaffirm(&mut self, round: u64, device: &str, prev_round: u64, log: &[u8]) {
        let reaff = signed_reaffirmation(round, device, prev_round, log, &enclave(device));
        self.submit_reaffirmation(reaff);
    }

    fn submit_reaffirmation(&mut self, reaff: EvidenceReaffirmation) {
        let round = reaff.round;
        let holder = self.holder;
        self.call(&holder, reaff);
        self.show(round);
    }

    /// The SHA-256 of the transcript, one line per entry.
    fn digest(&self) -> String {
        sha256(self.transcript.join("\n").as_bytes()).to_hex()
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn enclave(device: &str) -> KeyPair {
    KeyPair::from_seed(device.as_bytes())
}

fn device(i: usize) -> String {
    format!("device-{i}")
}

fn signed_evidence(
    round: u64,
    device: &str,
    compliant: bool,
    log: &[u8],
    key: &KeyPair,
) -> EvidenceSubmission {
    let violations = if compliant {
        Vec::new()
    } else {
        vec![format!("{device}: copy outlived its retention bound")]
    };
    let mut submission = EvidenceSubmission {
        resource: RESOURCE.into(),
        round,
        device: device.into(),
        compliant,
        violations,
        evidence_digest: sha256(log),
        signature: Signature { e: 0, s: 0 },
    };
    submission.signature = key.sign(&submission.signing_bytes());
    submission
}

fn signed_reaffirmation(
    round: u64,
    device: &str,
    prev_round: u64,
    log: &[u8],
    key: &KeyPair,
) -> EvidenceReaffirmation {
    let mut reaff = EvidenceReaffirmation {
        resource: RESOURCE.into(),
        round,
        device: device.into(),
        prev_round,
        evidence_digest: sha256(log),
        signature: Signature { e: 0, s: 0 },
    };
    reaff.signature = key.sign(&reaff.signing_bytes());
    reaff
}

/// One E6 round over `n` devices: a quarter of them (none below four) go
/// rogue and keep their copies past the retention bound; the others
/// deleted theirs on time and unregistered, so the round expects the
/// rogue devices alone, and each reports its violation.
fn e6_round(n: usize) -> String {
    let mut b = Bench::new();
    for i in 0..n {
        b.register(&device(i));
    }
    let rogue = if n >= 4 { n / 4 } else { 0 };
    for i in rogue..n {
        b.unregister(&device(i));
    }
    let round = b.start();
    b.show(round);
    for i in 0..rogue {
        b.evidence(round, &device(i), false, b"usage log");
    }
    b.show(round + 1);
    b.digest()
}

/// One round in which each of `n` devices answers compliant.
fn compliant_round(n: usize) -> String {
    let mut b = Bench::new();
    for i in 0..n {
        b.register(&device(i));
    }
    let round = b.start();
    b.show(round);
    for i in 0..n {
        b.evidence(round, &device(i), true, format!("log {i}").as_bytes());
    }
    b.digest()
}

#[test]
fn e6_rounds_match_their_known_answers() {
    let got = [1, 4, 16, 64].map(|n| (n, e6_round(n)));
    let want = [
        (
            1,
            "797b7e319ef159dcd33ca18108b42ac96bac4823aa013272db34ea07ef12f5ca",
        ),
        (
            4,
            "a8f5eb950fa2e2226a848bcd6e9bb490d6bd43e750915058451bc0424c6442e3",
        ),
        (
            16,
            "668b1273b2909f4ca9542c3fef5ebc26e58889819daf6dd4006a23e0e1cbe981",
        ),
        (
            64,
            "2f7ca14e255e4648138d3939b701bdc8008a239b2471a56d4c5ce41397b25cf8",
        ),
    ];
    assert_eq!(
        got.map(|(n, d)| (n, d.clone())),
        want.map(|(n, d)| (n, d.to_string()))
    );
}

/// Rounds as large as a submission could afford while every submission
/// rewrote the whole round: 16 and 48 devices, all answering.
#[test]
fn compliant_rounds_match_their_known_answers() {
    let got = [16, 48].map(|n| (n, compliant_round(n)));
    let want = [
        (
            16,
            "0ffc10cfdc7b3e5dbde9cc14bd9ff206935f2c141d9206d1ab358de587f236b6",
        ),
        (
            48,
            "1430c44851b54563665844a9a44202f9897cbccf97ae219ac29a8f62f30b4237",
        ),
    ];
    assert_eq!(
        got.map(|(n, d)| (n, d.clone())),
        want.map(|(n, d)| (n, d.to_string()))
    );
}

/// Three rounds over four devices: full evidence (one violator), then
/// reaffirmations beside a resubmission, then reaffirmations that point
/// at the wrong round or the wrong log.
#[test]
fn reaffirmation_mix_matches_its_known_answer() {
    let mut b = Bench::new();
    for i in 0..4 {
        b.register(&device(i));
    }
    let r1 = b.start();
    b.evidence(r1, &device(0), true, b"log-0");
    b.evidence(r1, &device(1), true, b"log-1");
    b.evidence(r1, &device(2), false, b"log-2");
    b.evidence(r1, &device(3), true, b"log-3");

    let r2 = b.start();
    b.show(r2);
    b.reaffirm(r2, &device(1), r1, b"log-1");
    // The violator cannot reaffirm its non-compliant evidence.
    b.reaffirm(r2, &device(2), r1, b"log-2");
    // A changed log cannot reaffirm the old digest.
    b.reaffirm(r2, &device(3), r1, b"log-3-changed");
    b.evidence(r2, &device(2), true, b"log-2-healed");
    b.reaffirm(r2, &device(0), r1, b"log-0");
    b.evidence(r2, &device(3), true, b"log-3-changed");

    let r3 = b.start();
    // Round 2 holds only a reaffirmation for device-1: nothing to reaffirm.
    b.reaffirm(r3, &device(1), r2, b"log-1");
    b.reaffirm(r3, &device(1), r1, b"log-1");
    b.reaffirm(r3, &device(2), r2, b"log-2-healed");
    // Pointing at the round being answered finds no prior evidence.
    b.reaffirm(r3, &device(3), r3, b"log-3-changed");
    b.reaffirm(r3, &device(3), r2, b"log-3-changed");
    b.evidence(r3, &device(0), false, b"log-0-late");
    for r in [r1, r2, r3] {
        b.show(r);
    }
    assert_eq!(
        b.digest(),
        "5e54666eb4cefdcd02fa90aaef74377fa7ab5bd314194739778999d780febc6a"
    );
}

/// Submissions in the reverse of the key order `expected_devices` lists:
/// `get_round` lists evidence in submission order.
#[test]
fn reverse_order_round_matches_its_known_answer() {
    let mut b = Bench::new();
    for i in 0..12 {
        b.register(&device(i));
    }
    let r1 = b.start();
    b.show(r1);
    let mut order: Vec<String> = (0..12).map(device).collect();
    order.sort();
    order.reverse();
    for (k, d) in order.iter().enumerate() {
        b.evidence(r1, d, k % 5 != 2, d.as_bytes());
    }
    let r2 = b.start();
    for (k, d) in order.iter().enumerate() {
        if k % 5 == 2 {
            b.evidence(r2, d, true, b"fresh");
        } else {
            b.reaffirm(r2, d, r1, d.as_bytes());
        }
    }
    assert_eq!(
        b.digest(),
        "163525e1e87a3ad593d0996814e28f2f6c4d42f4b530f9b5a8d4c02c2554d9eb"
    );
}

/// Every revert of both submission methods. Their `CopyKey` rule checks
/// first (unregistered copy, bad signature), then the method: unknown
/// round, closed round, unexpected device, duplicate answer — and for a
/// reaffirmation the unknown prior round and the prior evidence that does
/// not match.
#[test]
fn revert_paths_match_their_known_answer() {
    let mut b = Bench::new();
    for i in 0..3 {
        b.register(&device(i));
    }
    let r1 = b.start();
    for i in 0..3 {
        b.evidence(r1, &device(i), true, b"log");
    }
    let r2 = b.start();
    let stranger = "device-stranger";

    // Unknown round.
    b.evidence(r2 + 5, &device(0), true, b"log");
    b.reaffirm(r2 + 5, &device(0), r1, b"log");
    // Closed round.
    b.evidence(r1, &device(0), true, b"log");
    b.reaffirm(r1, &device(0), r1, b"log");
    // Not expected: device-stranger's copy is registered after the round
    // opened, so its key signs but the round does not list it.
    b.register(stranger);
    b.evidence(r2, stranger, true, b"log");
    b.reaffirm(r2, stranger, r1, b"log");
    b.unregister(stranger);
    // Bad signature (a key other than the registered enclave's).
    let forged = signed_evidence(r2, &device(0), true, b"log", &enclave(stranger));
    b.submit_evidence(forged);
    let forged = signed_reaffirmation(r2, &device(0), r1, b"log", &enclave(stranger));
    b.submit_reaffirmation(forged);
    // Unknown prior round, then no matching prior evidence.
    b.reaffirm(r2, &device(0), r2 + 7, b"log");
    b.reaffirm(r2, &device(0), r1, b"other log");
    // Duplicate: device-0 answers, then tries again both ways.
    b.reaffirm(r2, &device(0), r1, b"log");
    b.evidence(r2, &device(0), true, b"log");
    b.reaffirm(r2, &device(0), r1, b"log");
    // Copy gone: device-1 and device-2 unregister after the round opened.
    b.unregister(&device(1));
    b.unregister(&device(2));
    b.evidence(r2, &device(1), true, b"log");
    b.reaffirm(r2, &device(2), r1, b"log");
    b.show(r2);
    // A round over no copies at all closes as it opens.
    b.unregister(&device(0));
    let r3 = b.start();
    b.show(r3);
    b.evidence(r3, &device(0), true, b"log");
    b.reaffirm(r3, &device(0), r1, b"log");
    let text = b.transcript.join("\n");
    for message in [
        "unknown monitoring round",
        "round already closed",
        "device device-stranger not expected in this round",
        "duplicate evidence for device",
        "copy no longer registered",
        "evidence signature does not verify",
        "reaffirmation signature does not verify",
        "unknown prior round",
        "no matching compliant prior evidence to reaffirm",
    ] {
        assert!(text.contains(message), "{message}");
    }
    assert_eq!(
        b.digest(),
        "3be863e3c787df47bdd39b408ef7ae4cfda995fc67aeaa8484f2f5dfed5a6d75"
    );
}
