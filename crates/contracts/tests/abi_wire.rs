//! The DE App's wire bytes.
//!
//! `known_answers` pins the encodings of one transaction's worth of DE App
//! traffic — `register_resource` arguments, a policy envelope, a signed
//! `update_policy` transaction and its `PolicyUpdated` payload — as recorded
//! before the codec's byte strings took their bulk path; never re-record them.
//! `record_and_signing_known_answers` pins the five records the client's
//! views decode and the bytes an enclave signs for evidence and for a
//! reaffirmation, recorded while each of those structs still wrote its codec
//! by hand; never re-record them either. `per_method_call_known_answers`
//! pins the `(method, args)` bytes of one well-formed call per method,
//! recorded while each method's arguments were an anonymous tuple; the
//! fixture now builds those calls through the call table's `DexCall`.
//! `per_topic_event_known_answers` pins the payload of one event per topic
//! as the contract emits it, `RoundClosed` from both its emit sites,
//! recorded while every payload was an anonymous tuple; never re-record
//! them.
//!
//! The properties cover every decoder a client, a block or an event log can
//! feed: the argument type of each of the 17 `DistExchange` methods, the
//! return data of the five record views the client decodes, the policy
//! envelope, the signed transaction and the payload struct of each event
//! topic. For each, decode∘encode is the identity, and bytes that are
//! arbitrary, mutated in one place, cut short or given a hostile length
//! prefix either decode to a value that re-encodes to exactly those bytes or
//! are refused — never a panic. `every_call_decodes_to_itself` holds
//! `DexCall::decode` to the same over random calls of every method, and
//! `every_event_decodes_through_the_table` holds `DexEvent::decode` to its
//! payloads over random events of every topic, and to `None` for the same
//! event emitted by another contract.
//! `every_method_survives_damaged_arguments`
//! sends the same damage through `Contract::call` itself, over a ledger state
//! where every method has something to find.
//! `every_encoding_is_its_encoded_len` holds `Encode::encoded_len` to the
//! bytes `encode` writes, for every `Encode` impl in the workspace.

mod common;

use duc_blockchain::tx::TxKind;
use duc_blockchain::{
    Address, Block, BlockHeader, CallCtx, Checkpoint, Contract, ContractError, ContractId, Event,
    GasMeter, SignedTransaction, Transaction, TxId, WorldState,
};
use duc_codec::{decode_from_slice, encode_to_vec, Decode, Encode};
use duc_contracts::calls::{
    GetPod, GetRound, GetSubscription, Init, ListCopies, ListResources, LookupResource,
    RegisterCopy, RegisterPod, RegisterResource, StartMonitoring, Subscribe, UnregisterCopy,
    UpdatePolicy, VerifyCertificate,
};
use duc_contracts::client::{DistExchangeClient, DEFAULT_GAS};
use duc_contracts::events::{
    CertificateIssued, CopyRegistered, CopyRemoved, EvidenceRecorded, MonitoringRequested,
    PodRegistered, PolicyUpdated, ResourceRegistered, RoundClosed,
};
use duc_contracts::{
    topics, Answer, AnswerRow, CopyRecord, CopyRow, DexCall, DexEvent, EvidenceReaffirmation,
    EvidenceSubmission, MonitoringRound, PodRecord, PodRow, PolicyEnvelope, ResourceRecord,
    ResourceRow, RoundRow, SubRow, Subscription, DEX_CONTRACT_ID,
};
use duc_crypto::{Digest, KeyPair, PublicKey, Signature};
use duc_policy::{Action, Constraint, Duty, Effect, Purpose, Rule, UsagePolicy};
use duc_sim::{SimDuration, SimTime};
use proptest::prelude::*;

const OWNER: &str = "https://o.id/me";
const RES: &str = "https://o.pod/r/0001";
const DEVICE: &str = "device-1";

fn envelope(version: u64) -> PolicyEnvelope {
    let retention = SimDuration::from_days(30);
    PolicyEnvelope::plain(
        &UsagePolicy::builder(format!("{RES}#policy"), RES, OWNER)
            .permit(
                Rule::permit([Action::Use]).with_constraint(Constraint::MaxRetention(retention)),
            )
            .duty(Duty::DeleteWithin(retention))
            .version(version)
            .build(),
    )
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn known_answers() {
    let env = envelope(2);
    let register_resource = encode_to_vec(&(
        RES.to_string(),
        RES.to_string(),
        OWNER.to_string(),
        vec![("domain".to_string(), "health".to_string())],
        envelope(1),
    ));
    let owner = KeyPair::from_seed(b"owner");
    let update_policy = Transaction {
        from: Address::from_public_key(&owner.public()),
        nonce: 7,
        kind: TxKind::Call {
            contract: ContractId::new(DEX_CONTRACT_ID),
            method: "update_policy".into(),
            args: encode_to_vec(&(RES.to_string(), env.clone(), 2u64)),
        },
        gas_limit: DEFAULT_GAS,
    }
    .sign(&owner);
    let policy_updated = encode_to_vec(&(RES.to_string(), 2u64, env.clone(), env.digest()));
    let pins: [(&str, Vec<u8>, &[&str]); 4] = [
        (
            "register_resource args",
            register_resource,
            &[
                "1400000068747470733a2f2f6f2e706f642f722f303030311400000068747470733a2f2f6f2e706f",
                "642f722f303030310f00000068747470733a2f2f6f2e69642f6d650100000006000000646f6d6169",
                "6e060000006865616c746800760000001b00000068747470733a2f2f6f2e706f642f722f30303031",
                "23706f6c6963791400000068747470733a2f2f6f2e706f642f722f303030310f0000006874747073",
                "3a2f2f6f2e69642f6d65010000000000000001000000000100000000010000000000004207693509",
                "0001000000000000420769350900",
            ],
        ),
        (
            "PolicyEnvelope",
            encode_to_vec(&env),
            &[
                "00760000001b00000068747470733a2f2f6f2e706f642f722f3030303123706f6c69637914000000",
                "68747470733a2f2f6f2e706f642f722f303030310f00000068747470733a2f2f6f2e69642f6d6502",
                "00000000000000010000000001000000000100000000000042076935090001000000000000420769",
                "350900",
            ],
        ),
        (
            "signed update_policy",
            encode_to_vec(&update_policy),
            &[
                "77cf7d0b1c27c7a31b952c84e29d40bf4ac43bf3dc71539e5d9677434a291a890700000000000000",
                "010d000000646973742d65786368616e67650d0000007570646174655f706f6c6963799b00000014",
                "00000068747470733a2f2f6f2e706f642f722f3030303100760000001b00000068747470733a2f2f",
                "6f2e706f642f722f3030303123706f6c6963791400000068747470733a2f2f6f2e706f642f722f30",
                "3030310f00000068747470733a2f2f6f2e69642f6d65020000000000000001000000000100000000",
                "01000000000000420769350900010000000000004207693509000200000000000000404b4c000000",
                "0000ab343461fd56380fb238e6707a4f5f00d713c2706351f910",
            ],
        ),
        (
            "PolicyUpdated payload",
            policy_updated,
            &[
                "1400000068747470733a2f2f6f2e706f642f722f30303031020000000000000000760000001b0000",
                "0068747470733a2f2f6f2e706f642f722f3030303123706f6c6963791400000068747470733a2f2f",
                "6f2e706f642f722f303030310f00000068747470733a2f2f6f2e69642f6d65020000000000000001",
                "000000000100000000010000000000004207693509000100000000000042076935090005d0dc39b0",
                "7937480f4757814dc92032bd9887e1503cbabc0a1e21f1f596b0ab",
            ],
        ),
    ];
    for (what, bytes, expected) in pins {
        assert_eq!(hex(&bytes), expected.concat(), "{what}");
    }
}

/// The five view records as `call_view` returns them, and the bytes a
/// device's enclave signs for evidence and for a reaffirmation.
fn view_records_and_signing_bytes() -> Vec<(&'static str, Vec<u8>)> {
    let owner = Address::from_seed(b"owner");
    let device = KeyPair::from_seed(DEVICE.as_bytes());
    let mut violating = evidence(&device, 3);
    violating.compliant = false;
    violating.violations = vec!["kept past retention".into(), "shared".into()];
    violating.signature = device.sign(&violating.signing_bytes());
    let reaffirm = reaffirmation(&device, 3, 2);
    vec![
        (
            "PodRecord",
            encode_to_vec(&PodRecord {
                owner_webid: OWNER.into(),
                owner_addr: owner,
                web_ref: "https://o.pod/".into(),
                default_policy: envelope(1),
                registered_at: SimTime::from_secs(4),
            }),
        ),
        (
            "ResourceRecord",
            encode_to_vec(&ResourceRecord {
                resource: RES.into(),
                location: "https://mirror.example/r".into(),
                owner_webid: OWNER.into(),
                owner_addr: owner,
                metadata: vec![("domain".into(), "health".into())],
                policy: envelope(2),
                policy_hash: envelope(2).digest(),
                policy_version: 2,
                registered_at: SimTime::from_nanos(5),
            }),
        ),
        (
            "CopyRecord",
            encode_to_vec(&CopyRecord {
                device: DEVICE.into(),
                holder_webid: "https://c.id/me".into(),
                attestation_key: device.public(),
                registered_at: SimTime::from_secs(6),
            }),
        ),
        (
            "MonitoringRound",
            encode_to_vec(&MonitoringRound {
                round: 3,
                resource: RES.into(),
                requested_by: owner,
                started_at: SimTime::from_secs(7),
                expected_devices: vec![DEVICE.into(), "device-2".into()],
                evidence: vec![violating.clone()],
                reaffirmed: vec![("device-2".into(), 2)],
                closed: true,
            }),
        ),
        (
            "Subscription",
            encode_to_vec(&Subscription {
                webid: "https://c.id/me".into(),
                addr: Address::from_seed(b"carol"),
                certificate: duc_crypto::sha256(b"certificate"),
                paid_at: SimTime::from_secs(1),
                valid_until: SimTime::from_secs(100),
            }),
        ),
        (
            "EvidenceSubmission::signing_bytes",
            violating.signing_bytes(),
        ),
        (
            "EvidenceReaffirmation::signing_bytes",
            reaffirm.signing_bytes(),
        ),
    ]
}

#[test]
fn record_and_signing_known_answers() {
    let pins: [&[&str]; 7] = [
        &[
            "0f00000068747470733a2f2f6f2e69642f6d6577cf7d0b1c27c7a31b952c84e29d40bf4ac43bf3dc",
            "71539e5d9677434a291a890e00000068747470733a2f2f6f2e706f642f00760000001b0000006874",
            "7470733a2f2f6f2e706f642f722f3030303123706f6c6963791400000068747470733a2f2f6f2e70",
            "6f642f722f303030310f00000068747470733a2f2f6f2e69642f6d65010000000000000001000000",
            "000100000000010000000000004207693509000100000000000042076935090000286bee00000000",
        ],
        &[
            "1400000068747470733a2f2f6f2e706f642f722f303030311800000068747470733a2f2f6d697272",
            "6f722e6578616d706c652f720f00000068747470733a2f2f6f2e69642f6d6577cf7d0b1c27c7a31b",
            "952c84e29d40bf4ac43bf3dc71539e5d9677434a291a890100000006000000646f6d61696e060000",
            "006865616c746800760000001b00000068747470733a2f2f6f2e706f642f722f3030303123706f6c",
            "6963791400000068747470733a2f2f6f2e706f642f722f303030310f00000068747470733a2f2f6f",
            "2e69642f6d6502000000000000000100000000010000000001000000000000420769350900010000",
            "0000000042076935090005d0dc39b07937480f4757814dc92032bd9887e1503cbabc0a1e21f1f596",
            "b0ab02000000000000000500000000000000",
        ],
        &[
            "080000006465766963652d310f00000068747470733a2f2f632e69642f6d65dc8426b108d7a70c00",
            "bca06501000000",
        ],
        &[
            "03000000000000001400000068747470733a2f2f6f2e706f642f722f3030303177cf7d0b1c27c7a3",
            "1b952c84e29d40bf4ac43bf3dc71539e5d9677434a291a8900863ba1010000000200000008000000",
            "6465766963652d31080000006465766963652d32010000001400000068747470733a2f2f6f2e706f",
            "642f722f303030310300000000000000080000006465766963652d310002000000130000006b6570",
            "74207061737420726574656e74696f6e0600000073686172656484d9f2b36e2019dd7008788fb978",
            "f9fb08707b341c92af5447478f5f222528f230d5fe2a347f600e51550765fc19200b010000000800",
            "00006465766963652d32020000000000000001",
        ],
        &[
            "0f00000068747470733a2f2f632e69642f6d6543f7099e06669a49ea8da45dac3821d833ebdb2920",
            "afcad9ad57d9ea28106dac03d66dd08835c1ca3f128cceacd1f31ac94163096b20f445ae84285bc0",
            "832d7200ca9a3b0000000000e8764817000000",
        ],
        &[
            "1400000068747470733a2f2f6f2e706f642f722f3030303103000000000000000800000064657669",
            "63652d310002000000130000006b657074207061737420726574656e74696f6e0600000073686172",
            "656484d9f2b36e2019dd7008788fb978f9fb08707b341c92af5447478f5f222528f2",
        ],
        &[
            "1400000068747470733a2f2f6f2e706f642f722f3030303103000000000000000800000064657669",
            "63652d31020000000000000084d9f2b36e2019dd7008788fb978f9fb08707b341c92af5447478f5f",
            "222528f2",
        ],
    ];
    let records = view_records_and_signing_bytes();
    assert_eq!(records.len(), pins.len());
    for ((what, bytes), expected) in records.into_iter().zip(pins) {
        assert_eq!(hex(&bytes), expected.concat(), "{what}");
    }
}

// --- damage ----------------------------------------------------------------

/// What happens to a valid encoding before it is decoded.
#[derive(Debug, Clone)]
enum Damage {
    /// Arbitrary bytes in its place.
    Replace(Vec<u8>),
    /// The byte at `at` (modulo the length) set to `byte`.
    Mutate { at: usize, byte: u8 },
    /// The four bytes at `at` (modulo the places a `u32` fits) read as a
    /// length prefix of `u32::MAX`, or of one more than the input after it.
    Prefix { at: usize, past_end: bool },
    /// Cut to `at` bytes (modulo the length plus one).
    Truncate(usize),
}

fn damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        2 => proptest::collection::vec(any::<u8>(), 0..96).prop_map(Damage::Replace),
        4 => (any::<usize>(), any::<u8>()).prop_map(|(at, byte)| Damage::Mutate { at, byte }),
        2 => (any::<usize>(), any::<bool>())
            .prop_map(|(at, past_end)| Damage::Prefix { at, past_end }),
        1 => any::<usize>().prop_map(Damage::Truncate),
    ]
}

fn damaged(bytes: &[u8], damage: &Damage) -> Vec<u8> {
    let mut out = bytes.to_vec();
    match *damage {
        Damage::Replace(ref junk) => return junk.clone(),
        Damage::Mutate { at, byte } => {
            if !out.is_empty() {
                let at = at % out.len();
                out[at] = byte;
            }
        }
        Damage::Prefix { at, past_end } => {
            if out.len() >= 4 {
                let at = at % (out.len() - 3);
                let claim = if past_end {
                    (out.len() - at - 4) as u32 + 1
                } else {
                    u32::MAX
                };
                out[at..at + 4].copy_from_slice(&claim.to_le_bytes());
            }
        }
        Damage::Truncate(at) => out.truncate(at % (out.len() + 1)),
    }
    out
}

/// decode∘encode is the identity on `value`; its damaged encoding is
/// refused or decodes to a value whose encoding is exactly those bytes.
/// A panic anywhere fails the case.
fn holds<T>(value: &T, damage: &Damage) -> Result<(), TestCaseError>
where
    T: Encode + Decode + PartialEq + std::fmt::Debug,
{
    let bytes = encode_to_vec(value);
    let back = decode_from_slice::<T>(&bytes);
    prop_assert_eq!(back.as_ref(), Ok(value));
    let input = damaged(&bytes, damage);
    if let Ok(back) = decode_from_slice::<T>(&input) {
        prop_assert_eq!(encode_to_vec(&back), input);
    }
    Ok(())
}

// --- values ----------------------------------------------------------------

fn text() -> impl Strategy<Value = String> {
    prop_oneof![3 => "[a-z0-9:/.#-]{0,16}", 1 => ".{0,6}"]
}

fn bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..160)
}

fn digest() -> impl Strategy<Value = Digest> {
    proptest::collection::vec(any::<u8>(), 32).prop_map(|v| Digest(v.try_into().expect("32 bytes")))
}

fn address() -> impl Strategy<Value = Address> {
    digest().prop_map(Address)
}

fn signature() -> impl Strategy<Value = Signature> {
    (any::<u64>(), any::<u64>()).prop_map(|(e, s)| Signature { e, s })
}

fn policy_envelope() -> impl Strategy<Value = PolicyEnvelope> {
    (any::<bool>(), bytes()).prop_map(|(encrypted, bytes)| PolicyEnvelope { encrypted, bytes })
}

fn names() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(text(), 0..4)
}

fn evidence_submission() -> impl Strategy<Value = EvidenceSubmission> {
    (
        text(),
        any::<u64>(),
        text(),
        any::<bool>(),
        names(),
        digest(),
        signature(),
    )
        .prop_map(
            |(resource, round, device, compliant, violations, evidence_digest, signature)| {
                EvidenceSubmission {
                    resource,
                    round,
                    device,
                    compliant,
                    violations,
                    evidence_digest,
                    signature,
                }
            },
        )
}

fn evidence_reaffirmation() -> impl Strategy<Value = EvidenceReaffirmation> {
    (
        text(),
        any::<u64>(),
        text(),
        any::<u64>(),
        digest(),
        signature(),
    )
        .prop_map(
            |(resource, round, device, prev_round, evidence_digest, signature)| {
                EvidenceReaffirmation {
                    resource,
                    round,
                    device,
                    prev_round,
                    evidence_digest,
                    signature,
                }
            },
        )
}

fn instant() -> impl Strategy<Value = SimTime> {
    any::<u64>().prop_map(SimTime::from_nanos)
}

fn pod_record() -> impl Strategy<Value = PodRecord> {
    (text(), address(), text(), policy_envelope(), instant()).prop_map(
        |(owner_webid, owner_addr, web_ref, default_policy, registered_at)| PodRecord {
            owner_webid,
            owner_addr,
            web_ref,
            default_policy,
            registered_at,
        },
    )
}

fn resource_record() -> impl Strategy<Value = ResourceRecord> {
    (
        (text(), text(), text(), address()),
        proptest::collection::vec((text(), text()), 0..3),
        policy_envelope(),
        digest(),
        any::<u64>(),
        instant(),
    )
        .prop_map(
            |(
                (resource, location, owner_webid, owner_addr),
                metadata,
                policy,
                policy_hash,
                policy_version,
                registered_at,
            )| ResourceRecord {
                resource,
                location,
                owner_webid,
                owner_addr,
                metadata,
                policy,
                policy_hash,
                policy_version,
                registered_at,
            },
        )
}

fn copy_record() -> impl Strategy<Value = CopyRecord> {
    (text(), text(), any::<u64>().prop_map(PublicKey), instant()).prop_map(
        |(device, holder_webid, attestation_key, registered_at)| CopyRecord {
            device,
            holder_webid,
            attestation_key,
            registered_at,
        },
    )
}

fn monitoring_round() -> impl Strategy<Value = MonitoringRound> {
    (
        any::<u64>(),
        text(),
        address(),
        instant(),
        names(),
        proptest::collection::vec(evidence_submission(), 0..3),
        proptest::collection::vec((text(), any::<u64>()), 0..3),
        any::<bool>(),
    )
        .prop_map(
            |(
                round,
                resource,
                requested_by,
                started_at,
                expected_devices,
                evidence,
                reaffirmed,
                closed,
            )| MonitoringRound {
                round,
                resource,
                requested_by,
                started_at,
                expected_devices,
                evidence,
                reaffirmed,
                closed,
            },
        )
}

fn subscription() -> impl Strategy<Value = Subscription> {
    (text(), address(), digest(), instant(), instant()).prop_map(
        |(webid, addr, certificate, paid_at, valid_until)| Subscription {
            webid,
            addr,
            certificate,
            paid_at,
            valid_until,
        },
    )
}

fn signed_transaction() -> impl Strategy<Value = SignedTransaction> {
    let kind = prop_oneof![
        (address(), any::<u128>()).prop_map(|(to, amount)| TxKind::Transfer { to, amount }),
        (text(), text(), bytes()).prop_map(|(contract, method, args)| TxKind::Call {
            contract: ContractId::new(contract),
            method,
            args,
        }),
    ];
    (
        address(),
        any::<u64>(),
        kind,
        any::<u64>(),
        any::<u64>(),
        signature(),
    )
        .prop_map(
            |(from, nonce, kind, gas_limit, public_key, signature)| SignedTransaction {
                tx: Transaction {
                    from,
                    nonce,
                    kind,
                    gas_limit,
                },
                public_key: PublicKey(public_key),
                signature,
            },
        )
}

fn policy_updated() -> impl Strategy<Value = PolicyUpdated> {
    (text(), any::<u64>(), policy_envelope(), digest()).prop_map(
        |(resource, version, policy, policy_hash)| PolicyUpdated {
            resource,
            version,
            policy,
            policy_hash,
        },
    )
}

fn copy_registered() -> impl Strategy<Value = CopyRegistered> {
    (text(), text()).prop_map(|(resource, device)| CopyRegistered { resource, device })
}

fn monitoring_requested() -> impl Strategy<Value = MonitoringRequested> {
    (text(), any::<u64>(), names()).prop_map(|(resource, round, expected_devices)| {
        MonitoringRequested {
            resource,
            round,
            expected_devices,
        }
    })
}

fn evidence_recorded() -> impl Strategy<Value = EvidenceRecorded> {
    (text(), any::<u64>(), text(), any::<bool>()).prop_map(
        |(resource, round, device, compliant)| EvidenceRecorded {
            resource,
            round,
            device,
            compliant,
        },
    )
}

fn round_closed() -> impl Strategy<Value = RoundClosed> {
    (text(), any::<u64>(), any::<u64>(), names()).prop_map(
        |(resource, round, compliant, violators)| RoundClosed {
            resource,
            round,
            compliant,
            violators,
        },
    )
}

fn certificate_issued() -> impl Strategy<Value = CertificateIssued> {
    (text(), digest()).prop_map(|(webid, certificate)| CertificateIssued { webid, certificate })
}

/// A DE App event of `topic` carrying `payload`, beside what the event
/// table decodes it to.
fn event_of<P: Encode>(
    topic: &'static str,
    payload: P,
    decoded: impl FnOnce(P) -> DexEvent,
) -> (Event, DexEvent) {
    let data = encode_to_vec(&payload);
    let contract = ContractId::new(DEX_CONTRACT_ID);
    (
        Event {
            contract,
            topic,
            data,
        },
        decoded(payload),
    )
}

/// An event of any of the nine topics, with an arbitrary payload.
fn dex_event() -> impl Strategy<Value = (Event, DexEvent)> {
    prop_oneof![
        text().prop_map(|owner_webid| {
            let payload = PodRegistered { owner_webid };
            event_of(topics::POD_REGISTERED, payload, DexEvent::PodRegistered)
        }),
        text().prop_map(|resource| {
            let payload = ResourceRegistered { resource };
            event_of(
                topics::RESOURCE_REGISTERED,
                payload,
                DexEvent::ResourceRegistered,
            )
        }),
        policy_updated().prop_map(|p| event_of(topics::POLICY_UPDATED, p, DexEvent::PolicyUpdated)),
        copy_registered().prop_map(|p| event_of(
            topics::COPY_REGISTERED,
            p,
            DexEvent::CopyRegistered
        )),
        copy_registered().prop_map(|p| {
            let payload = CopyRemoved {
                resource: p.resource,
                device: p.device,
            };
            event_of(topics::COPY_REMOVED, payload, DexEvent::CopyRemoved)
        }),
        monitoring_requested().prop_map(|p| {
            event_of(
                topics::MONITORING_REQUESTED,
                p,
                DexEvent::MonitoringRequested,
            )
        }),
        evidence_recorded().prop_map(|p| event_of(
            topics::EVIDENCE_RECORDED,
            p,
            DexEvent::EvidenceRecorded
        )),
        round_closed().prop_map(|p| event_of(topics::ROUND_CLOSED, p, DexEvent::RoundClosed)),
        certificate_issued().prop_map(|p| event_of(
            topics::CERTIFICATE_ISSUED,
            p,
            DexEvent::CertificateIssued
        )),
    ]
}

/// A call of any of the 17 methods, with arbitrary arguments.
fn dex_call() -> impl Strategy<Value = DexCall> {
    let key = || any::<u64>().prop_map(PublicKey);
    let metadata = || proptest::collection::vec((text(), text()), 0..4);
    prop_oneof![
        (any::<u128>(), any::<u64>(), address()).prop_map(|(fee, validity_nanos, treasury)| {
            DexCall::from(Init {
                fee,
                validity_nanos,
                treasury,
            })
        }),
        (text(), text(), policy_envelope()).prop_map(|(owner_webid, web_ref, default_policy)| {
            DexCall::from(RegisterPod {
                owner_webid,
                web_ref,
                default_policy,
            })
        }),
        text().prop_map(|owner_webid| DexCall::from(GetPod { owner_webid })),
        (text(), text(), text(), metadata(), policy_envelope()).prop_map(
            |(resource, location, owner_webid, metadata, policy)| {
                DexCall::from(RegisterResource {
                    resource,
                    location,
                    owner_webid,
                    metadata,
                    policy,
                })
            }
        ),
        text().prop_map(|resource| DexCall::from(LookupResource { resource })),
        Just(DexCall::from(ListResources {})),
        (text(), policy_envelope(), any::<u64>()).prop_map(|(resource, policy, new_version)| {
            DexCall::from(UpdatePolicy {
                resource,
                policy,
                new_version,
            })
        }),
        (text(), text(), text(), key(), signature()).prop_map(
            |(resource, device, holder_webid, attestation_key, quote)| {
                DexCall::from(RegisterCopy {
                    resource,
                    device,
                    holder_webid,
                    attestation_key,
                    quote,
                })
            }
        ),
        (text(), text(), instant(), signature()).prop_map(
            |(resource, device, as_of, signature)| {
                DexCall::from(UnregisterCopy {
                    resource,
                    device,
                    as_of,
                    signature,
                })
            }
        ),
        text().prop_map(|resource| DexCall::from(ListCopies { resource })),
        text().prop_map(|resource| DexCall::from(StartMonitoring { resource })),
        evidence_submission().prop_map(DexCall::from),
        evidence_reaffirmation().prop_map(DexCall::from),
        (text(), any::<u64>())
            .prop_map(|(resource, round)| DexCall::from(GetRound { resource, round })),
        text().prop_map(|webid| DexCall::from(Subscribe { webid })),
        (digest(), text()).prop_map(|(certificate, webid)| {
            DexCall::from(VerifyCertificate { certificate, webid })
        }),
        text().prop_map(|webid| DexCall::from(GetSubscription { webid })),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A call decodes from its own name and argument bytes to itself, and
    /// damaged argument bytes decode to a call that re-encodes to exactly
    /// those bytes, or are refused.
    #[test]
    fn every_call_decodes_to_itself(c in dex_call(), d in damage()) {
        let args = c.encode_args();
        prop_assert_eq!(DexCall::decode(c.name(), &args), Ok(c.clone()));
        let input = damaged(&args, &d);
        if let Ok(back) = DexCall::decode(c.name(), &input) {
            prop_assert_eq!(back.name(), c.name());
            prop_assert_eq!(back.encode_args(), input);
        }
    }
}

// One property per distinct wire type; the names say who decodes it.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn init_args(v in (any::<u128>(), any::<u64>(), address()), d in damage()) {
        holds(&v, &d)?;
    }

    #[test]
    fn register_pod_args(v in (text(), text(), policy_envelope()), d in damage()) {
        holds(&v, &d)?;
    }

    /// `get_pod`, `lookup_resource`, `list_copies`, `start_monitoring`,
    /// `subscribe`, `get_subscription`; the `PodRegistered` and
    /// `ResourceRegistered` payloads.
    #[test]
    fn one_name_args_and_payloads(v in (text(),), d in damage()) {
        holds(&v, &d)?;
    }

    #[test]
    fn register_resource_args(
        v in (
            text(),
            text(),
            text(),
            proptest::collection::vec((text(), text()), 0..4),
            policy_envelope(),
        ),
        d in damage(),
    ) {
        holds(&v, &d)?;
    }

    /// `list_resources` reads no arguments.
    #[test]
    fn list_resources_args(d in damage()) {
        holds(&(), &d)?;
    }

    #[test]
    fn update_policy_args(v in (text(), policy_envelope(), any::<u64>()), d in damage()) {
        holds(&v, &d)?;
    }

    #[test]
    fn register_copy_args(
        v in (text(), text(), text(), any::<u64>().prop_map(PublicKey)),
        d in damage(),
    ) {
        holds(&v, &d)?;
    }

    /// `unregister_copy`.
    #[test]
    fn two_names_and_an_instant_args(v in (text(), text(), any::<u64>()), d in damage()) {
        holds(&v, &d)?;
    }

    #[test]
    fn record_evidence_args(v in evidence_submission(), d in damage()) {
        holds(&v, &d)?;
    }

    #[test]
    fn reaffirm_evidence_args(v in evidence_reaffirmation(), d in damage()) {
        holds(&v, &d)?;
    }

    #[test]
    fn get_round_args(v in (text(), any::<u64>()), d in damage()) {
        holds(&v, &d)?;
    }

    #[test]
    fn verify_certificate_args(v in (digest(), text()), d in damage()) {
        holds(&v, &d)?;
    }

    #[test]
    fn policy_envelope_wire(v in policy_envelope(), d in damage()) {
        holds(&v, &d)?;
    }

    #[test]
    fn signed_transaction_wire(v in signed_transaction(), d in damage()) {
        holds(&v, &d)?;
    }

    /// `get_pod`'s return data.
    #[test]
    fn pod_view(v in proptest::option::of(pod_record()), d in damage()) {
        holds(&v, &d)?;
    }

    /// `lookup_resource`'s return data.
    #[test]
    fn resource_view(v in proptest::option::of(resource_record()), d in damage()) {
        holds(&v, &d)?;
    }

    /// `list_copies`'s return data.
    #[test]
    fn copies_view(v in proptest::collection::vec(copy_record(), 0..3), d in damage()) {
        holds(&v, &d)?;
    }

    /// `get_round`'s return data.
    #[test]
    fn round_view(v in proptest::option::of(monitoring_round()), d in damage()) {
        holds(&v, &d)?;
    }

    /// `get_subscription`'s return data.
    #[test]
    fn subscription_view(v in proptest::option::of(subscription()), d in damage()) {
        holds(&v, &d)?;
    }

    #[test]
    fn policy_updated_payload(v in policy_updated(), d in damage()) {
        holds(&v, &d)?;
    }

    /// `CopyRegistered`; `CopyRemoved` is the same two names.
    #[test]
    fn copy_payloads(v in copy_registered(), d in damage()) {
        holds(&v, &d)?;
    }

    #[test]
    fn monitoring_requested_payload(v in monitoring_requested(), d in damage()) {
        holds(&v, &d)?;
    }

    #[test]
    fn evidence_recorded_payload(v in evidence_recorded(), d in damage()) {
        holds(&v, &d)?;
    }

    #[test]
    fn round_closed_payload(v in round_closed(), d in damage()) {
        holds(&v, &d)?;
    }

    #[test]
    fn certificate_issued_payload(v in certificate_issued(), d in damage()) {
        holds(&v, &d)?;
    }

    /// The event table decodes an event of each topic to its payload, a
    /// damaged payload to `None` or to a payload of the same topic, and an
    /// event of a topic outside the table, or of a table topic and payload
    /// emitted by another contract, to `None`.
    #[test]
    fn every_event_decodes_through_the_table(e in dex_event(), d in damage()) {
        let (event, expected) = e;
        prop_assert_eq!(DexEvent::decode(&event), Some(expected.clone()));
        let input = Event { data: damaged(&event.data, &d), ..event.clone() };
        if let Some(back) = DexEvent::decode(&input) {
            prop_assert_eq!(std::mem::discriminant(&back), std::mem::discriminant(&expected));
        }
        let elsewhere = Event { contract: ContractId::new("counter"), ..event.clone() };
        prop_assert_eq!(DexEvent::decode(&elsewhere), None);
        let foreign = Event { topic: "Incremented", ..event };
        prop_assert_eq!(DexEvent::decode(&foreign), None);
    }
}

// --- sizes -----------------------------------------------------------------

/// One value's type, its `encoded_len` and the bytes `encode` wrote.
type Measured = (&'static str, usize, usize);

fn measured<T: Encode + ?Sized>(value: &T) -> Measured {
    let mut buf = Vec::new();
    value.encode(&mut buf);
    (std::any::type_name::<T>(), value.encoded_len(), buf.len())
}

/// The codec's own impls: primitives, containers, tuples, arrays and the
/// crypto types, and the ledger's identifiers.
fn codec_values() -> impl Strategy<Value = Measured> {
    prop_oneof![
        any::<u8>().prop_map(|v| measured(&v)),
        any::<u16>().prop_map(|v| measured(&v)),
        any::<u32>().prop_map(|v| measured(&v)),
        any::<u64>().prop_map(|v| measured(&v)),
        any::<u128>().prop_map(|v| measured(&v)),
        any::<i8>().prop_map(|v| measured(&v)),
        any::<i16>().prop_map(|v| measured(&v)),
        any::<i32>().prop_map(|v| measured(&v)),
        any::<i64>().prop_map(|v| measured(&v)),
        any::<i128>().prop_map(|v| measured(&v)),
        any::<bool>().prop_map(|v| measured(&v)),
        text().prop_map(|v| measured(&v)),
        text().prop_map(|v| measured(v.as_str())),
        bytes().prop_map(|v| measured(&v)),
        bytes().prop_map(|v| measured(v.as_slice())),
        proptest::collection::vec(any::<u64>(), 0..8).prop_map(|v| measured(&v)),
        proptest::collection::vec(any::<i16>(), 0..8).prop_map(|v| measured(&v)),
        names().prop_map(|v| measured(&v)),
        proptest::option::of(text()).prop_map(|v| measured(&v)),
        proptest::option::of(any::<u32>()).prop_map(|v| measured(&v)),
        (any::<u8>(), text()).prop_map(|v| measured(&v)),
        (
            any::<bool>(),
            any::<u16>(),
            digest(),
            bytes(),
            names(),
            any::<i64>()
        )
            .prop_map(|v| measured(&v)),
        proptest::collection::vec(any::<u8>(), 12)
            .prop_map(|v| measured(&<[u8; 12]>::try_from(v).expect("12 bytes"))),
        Just(()).prop_map(|v| measured(&v)),
        digest().prop_map(|v| measured(&v)),
        any::<u64>().prop_map(|v| measured(&PublicKey(v))),
        signature().prop_map(|v| measured(&v)),
        address().prop_map(|v| measured(&v)),
        digest().prop_map(|v| measured(&TxId(v))),
        text().prop_map(|v| measured(&ContractId::new(v))),
    ]
}

fn block_header() -> impl Strategy<Value = BlockHeader> {
    (
        (any::<u64>(), digest(), digest(), digest()),
        (instant(), any::<u64>(), signature()),
    )
        .prop_map(
            |((height, parent, state_root, tx_root), (timestamp, proposer, signature))| {
                BlockHeader {
                    height,
                    parent,
                    state_root,
                    tx_root,
                    timestamp,
                    proposer: PublicKey(proposer),
                    signature,
                }
            },
        )
}

/// Transactions, their kinds, blocks and checkpoints.
fn chain_values() -> impl Strategy<Value = Measured> {
    prop_oneof![
        signed_transaction().prop_map(|v| measured(&v)),
        signed_transaction().prop_map(|v| measured(&v.tx)),
        signed_transaction().prop_map(|v| measured(&v.tx.kind)),
        block_header().prop_map(|v| measured(&v)),
        (
            block_header(),
            proptest::collection::vec(signed_transaction(), 0..3)
        )
            .prop_map(|(header, transactions)| measured(&Block {
                header,
                transactions
            })),
        (any::<u64>(), digest(), digest(), any::<u64>()).prop_map(
            |(height, state_commitment, accumulator, event_cursor_floor)| {
                measured(&Checkpoint {
                    height,
                    state_commitment,
                    accumulator: accumulator.0,
                    event_cursor_floor,
                })
            }
        ),
    ]
}

fn action() -> impl Strategy<Value = Action> {
    prop_oneof![
        Just(Action::Use),
        Just(Action::Read),
        Just(Action::Modify),
        Just(Action::Delete),
        Just(Action::Distribute),
    ]
}

fn duration() -> impl Strategy<Value = SimDuration> {
    any::<u64>().prop_map(SimDuration::from_nanos)
}

fn constraint() -> impl Strategy<Value = Constraint> {
    prop_oneof![
        duration().prop_map(Constraint::MaxRetention),
        instant().prop_map(Constraint::ExpiresAt),
        proptest::collection::vec(text().prop_map(Purpose::new), 0..3)
            .prop_map(Constraint::Purpose),
        any::<u64>().prop_map(Constraint::MaxAccessCount),
        names().prop_map(Constraint::AllowedRecipients),
        (instant(), instant()).prop_map(|(not_before, not_after)| Constraint::TimeWindow {
            not_before,
            not_after
        }),
    ]
}

fn duty() -> impl Strategy<Value = Duty> {
    prop_oneof![
        duration().prop_map(Duty::DeleteWithin),
        duration().prop_map(Duty::NotifyOwnerWithin),
        Just(Duty::LogAccesses),
    ]
}

fn rule() -> impl Strategy<Value = Rule> {
    (
        any::<bool>(),
        proptest::collection::vec(action(), 0..4),
        proptest::collection::vec(constraint(), 0..3),
    )
        .prop_map(|(prohibit, actions, constraints)| Rule {
            effect: if prohibit {
                Effect::Prohibit
            } else {
                Effect::Permit
            },
            actions,
            constraints,
        })
}

/// The policy model, every constraint and duty kind included.
fn policy_values() -> impl Strategy<Value = Measured> {
    let policy = (
        (text(), text(), text(), any::<u64>()),
        proptest::collection::vec(rule(), 0..3),
        proptest::collection::vec(duty(), 0..3),
    )
        .prop_map(
            |((id, resource, owner, version), rules, duties)| UsagePolicy {
                id,
                resource,
                owner,
                version,
                rules,
                duties,
            },
        );
    prop_oneof![
        action().prop_map(|v| measured(&v)),
        text().prop_map(|v| measured(&Purpose::new(v))),
        rule().prop_map(|v| measured(&v.effect)),
        constraint().prop_map(|v| measured(&v)),
        duty().prop_map(|v| measured(&v)),
        rule().prop_map(|v| measured(&v)),
        policy.prop_map(|v| measured(&v)),
    ]
}

fn answer() -> impl Strategy<Value = Answer> {
    prop_oneof![
        (any::<bool>(), names(), digest(), signature()).prop_map(
            |(compliant, violations, evidence_digest, signature)| Answer::Evidence {
                compliant,
                violations,
                evidence_digest,
                signature,
            }
        ),
        any::<u64>().prop_map(|prev_round| Answer::Reaffirmed { prev_round }),
    ]
}

/// The DE App's stored rows.
fn row_values() -> impl Strategy<Value = Measured> {
    prop_oneof![
        (address(), text(), digest(), instant()).prop_map(
            |(owner_addr, web_ref, policy, registered_at)| measured(&PodRow {
                owner_addr,
                web_ref,
                policy,
                registered_at,
            })
        ),
        (
            (proptest::option::of(text()), text(), address()),
            proptest::collection::vec((text(), text()), 0..3),
            (digest(), any::<u64>(), instant()),
        )
            .prop_map(
                |(
                    (location, owner_webid, owner_addr),
                    metadata,
                    (policy, policy_version, registered_at),
                )| measured(&ResourceRow {
                    location,
                    owner_webid,
                    owner_addr,
                    metadata,
                    policy,
                    policy_version,
                    registered_at,
                })
            ),
        (text(), any::<u64>(), instant()).prop_map(|(holder_webid, key, registered_at)| {
            measured(&CopyRow {
                holder_webid,
                attestation_key: PublicKey(key),
                registered_at,
            })
        }),
        (address(), digest(), instant(), instant()).prop_map(
            |(addr, certificate, paid_at, valid_until)| measured(&SubRow {
                addr,
                certificate,
                paid_at,
                valid_until,
            })
        ),
        (address(), instant(), names()).prop_map(|(requested_by, started_at, expected_devices)| {
            measured(&RoundRow {
                requested_by,
                started_at,
                expected_devices,
            })
        }),
        answer().prop_map(|v| measured(&v)),
        (any::<u32>(), answer())
            .prop_map(|(ordinal, answer)| measured(&AnswerRow { ordinal, answer })),
    ]
}

/// The records the views return, and the policy envelope.
fn record_values() -> impl Strategy<Value = Measured> {
    prop_oneof![
        policy_envelope().prop_map(|v| measured(&v)),
        proptest::option::of(pod_record()).prop_map(|v| measured(&v)),
        proptest::option::of(resource_record()).prop_map(|v| measured(&v)),
        proptest::collection::vec(copy_record(), 0..3).prop_map(|v| measured(&v)),
        proptest::option::of(monitoring_round()).prop_map(|v| measured(&v)),
        proptest::option::of(subscription()).prop_map(|v| measured(&v)),
    ]
}

/// A call's argument struct, whichever of the 17 methods it is.
fn call_arguments(call: &DexCall) -> Measured {
    macro_rules! of_variant {
        ($($variant:ident),*) => {
            match call {
                $(DexCall::$variant(args) => measured(args),)*
            }
        };
    }
    of_variant!(
        Init,
        RegisterPod,
        GetPod,
        RegisterResource,
        LookupResource,
        ListResources,
        UpdatePolicy,
        RegisterCopy,
        UnregisterCopy,
        ListCopies,
        StartMonitoring,
        RecordEvidence,
        ReaffirmEvidence,
        GetRound,
        Subscribe,
        VerifyCertificate,
        GetSubscription
    )
}

/// The payload struct of each event topic.
fn event_payloads() -> impl Strategy<Value = Measured> {
    prop_oneof![
        text().prop_map(|owner_webid| measured(&PodRegistered { owner_webid })),
        text().prop_map(|resource| measured(&ResourceRegistered { resource })),
        policy_updated().prop_map(|v| measured(&v)),
        copy_registered().prop_map(|v| measured(&v)),
        copy_registered().prop_map(|v| measured(&CopyRemoved {
            resource: v.resource,
            device: v.device,
        })),
        monitoring_requested().prop_map(|v| measured(&v)),
        evidence_recorded().prop_map(|v| measured(&v)),
        round_closed().prop_map(|v| measured(&v)),
        certificate_issued().prop_map(|v| measured(&v)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// `encoded_len` is the number of bytes `encode` writes, for every
    /// `Encode` impl in the workspace: the codec's primitives and
    /// containers, the ledger's identifiers, transactions, blocks and
    /// checkpoints, the policy model, the DE App's rows, records, call
    /// arguments and event payloads. `encode_to_vec` allocates that many
    /// bytes once, so an impl that miscounts would reallocate or hold
    /// spare capacity (and trips its debug assertion).
    #[test]
    fn every_encoding_is_its_encoded_len(
        value in prop_oneof![
            4 => codec_values(),
            2 => chain_values(),
            2 => policy_values(),
            2 => row_values(),
            2 => record_values(),
            3 => dex_call().prop_map(|c| call_arguments(&c)),
            2 => event_payloads(),
        ],
    ) {
        let (type_name, encoded_len, written) = value;
        prop_assert_eq!(encoded_len, written, "{}", type_name);
    }
}

// --- through the contract --------------------------------------------------

const T0: SimTime = SimTime::from_secs(10);

/// A ledger state with a market, a pod, a resource, a copy, one closed
/// monitoring round with compliant evidence, a second round open and a
/// subscription — and, for each of the 17 methods, a call that is valid
/// against it.
struct Fixture {
    state: WorldState,
    owner: Address,
    calls: Vec<DexCall>,
}

fn apply(state: &mut WorldState, caller: Address, call: impl Into<DexCall>) -> Vec<u8> {
    let call = call.into();
    let mut meter = GasMeter::unmetered();
    let contract = ContractId::new(DEX_CONTRACT_ID);
    let mut ctx = CallCtx::new(caller, 1, T0, contract, state, &mut meter);
    let out = common::dex_app()
        .call(&mut ctx, call.name(), &call.encode_args())
        .unwrap_or_else(|e| panic!("fixture {}: {e}", call.name()));
    let effects = ctx.into_effects();
    effects.apply(state);
    out
}

fn evidence(device: &KeyPair, round: u64) -> EvidenceSubmission {
    let mut ev = EvidenceSubmission {
        resource: RES.into(),
        round,
        device: DEVICE.into(),
        compliant: true,
        violations: Vec::new(),
        evidence_digest: duc_crypto::sha256(b"usage log"),
        signature: Signature { e: 0, s: 0 },
    };
    ev.signature = device.sign(&ev.signing_bytes());
    ev
}

fn reaffirmation(device: &KeyPair, round: u64, prev_round: u64) -> EvidenceReaffirmation {
    let mut reaffirm = EvidenceReaffirmation {
        resource: RES.into(),
        round,
        device: DEVICE.into(),
        prev_round,
        evidence_digest: duc_crypto::sha256(b"usage log"),
        signature: Signature { e: 0, s: 0 },
    };
    reaffirm.signature = device.sign(&reaffirm.signing_bytes());
    reaffirm
}

fn fixture() -> Fixture {
    let owner = Address::from_seed(b"owner");
    let device = KeyPair::from_seed(DEVICE.as_bytes());
    let treasury = Address::from_seed(b"treasury");
    let mut state = WorldState::new();
    state.credit(owner, 1_000_000);
    let s = &mut state;
    let init = Init {
        fee: 10u128,
        validity_nanos: 1_000_000_000_000u64,
        treasury,
    };
    apply(s, owner, init);
    let pod = RegisterPod {
        owner_webid: OWNER.to_string(),
        web_ref: "https://o.pod/".to_string(),
        default_policy: envelope(1),
    };
    apply(s, owner, pod);
    let meta = vec![("domain".to_string(), "health".to_string())];
    let res = RegisterResource {
        resource: RES.to_string(),
        location: RES.to_string(),
        owner_webid: OWNER.to_string(),
        metadata: meta,
        policy: envelope(1),
    };
    apply(s, owner, res);
    let copy = common::quoted_copy(RES, DEVICE, OWNER, &device.public());
    apply(s, owner, copy);
    let start = || StartMonitoring {
        resource: RES.to_string(),
    };
    apply(s, owner, start());
    apply(s, owner, evidence(&device, 1));
    apply(s, owner, start());
    let cert = apply(
        s,
        owner,
        Subscribe {
            webid: OWNER.to_string(),
        },
    );
    let cert = DistExchangeClient::decode_return::<Subscribe>(&cert).expect("certificate");

    let reaffirm = reaffirmation(&device, 2, 1);
    let fresh = "https://o.pod/r/0002".to_string();
    let calls = vec![
        DexCall::from(Init {
            fee: 10u128,
            validity_nanos: 1u64,
            treasury,
        }),
        DexCall::from(RegisterPod {
            owner_webid: "https://p.id/me".to_string(),
            web_ref: "https://p.pod/".to_string(),
            default_policy: envelope(1),
        }),
        DexCall::from(GetPod {
            owner_webid: OWNER.to_string(),
        }),
        DexCall::from(RegisterResource {
            resource: fresh.clone(),
            location: fresh,
            owner_webid: OWNER.to_string(),
            metadata: Vec::<(String, String)>::new(),
            policy: envelope(1),
        }),
        DexCall::from(LookupResource {
            resource: RES.to_string(),
        }),
        DexCall::from(ListResources {}),
        DexCall::from(UpdatePolicy {
            resource: RES.to_string(),
            policy: envelope(2),
            new_version: 2u64,
        }),
        DexCall::from(common::quoted_copy(
            RES,
            "device-2",
            OWNER,
            &device.public(),
        )),
        DexCall::from(common::signed_unregister(
            RES,
            DEVICE,
            SimTime::from_secs(20),
            &device,
        )),
        DexCall::from(ListCopies {
            resource: RES.to_string(),
        }),
        DexCall::from(start()),
        DexCall::from(evidence(&device, 2)),
        DexCall::from(reaffirm),
        DexCall::from(GetRound {
            resource: RES.to_string(),
            round: 1u64,
        }),
        DexCall::from(Subscribe {
            webid: "https://q.id/me".to_string(),
        }),
        DexCall::from(VerifyCertificate {
            certificate: cert,
            webid: OWNER.to_string(),
        }),
        DexCall::from(GetSubscription {
            webid: OWNER.to_string(),
        }),
    ];
    Fixture {
        state,
        owner,
        calls,
    }
}

fn call(fx: &Fixture, method: &str, args: &[u8]) -> Result<Vec<u8>, ContractError> {
    let mut meter = GasMeter::unmetered();
    let contract = ContractId::new(DEX_CONTRACT_ID);
    let later = T0 + SimDuration::from_secs(20);
    let mut ctx = CallCtx::new(fx.owner, 2, later, contract, &fx.state, &mut meter);
    common::dex_app().call(&mut ctx, method, args)
}

/// The damage properties start from arguments that get somewhere: each
/// method accepts its fixture arguments (`init` refuses a second market).
#[test]
fn fixture_arguments_reach_every_method() {
    let fx = fixture();
    assert_eq!(fx.calls.len(), 17);
    for c in &fx.calls {
        let method = c.name();
        match call(&fx, method, &c.encode_args()) {
            Err(ContractError::Reverted(why)) if method == "init" => {
                assert_eq!(why, "already initialized");
            }
            result => assert!(result.is_ok(), "{method}: {result:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every arm of `Contract::call`, fed a damaged copy of its valid
    /// arguments: a value or a `ContractError`, never a panic.
    #[test]
    fn every_method_survives_damaged_arguments(which in 0usize..17, d in damage()) {
        let fx = fixture();
        let c = &fx.calls[which];
        let _ = call(&fx, c.name(), &damaged(&c.encode_args(), &d));
    }
}

/// Each fixture call's `(method, args)` pair, encoded as a call transaction
/// carries it, recorded while every method's arguments were an anonymous
/// tuple; never re-record them. The `register_copy` and `unregister_copy`
/// rows were re-recorded once, when their arguments gained the quote and
/// the copy-key signature their caller rules check: each is the old
/// encoding plus the trailing 16-byte signature.
#[test]
fn per_method_call_known_answers() {
    let pins: [&[&str]; 17] = [
        // init
        &[
            "04000000696e6974380000000a000000000000000000000000000000010000000000000073d42146",
            "6d3be645b3cdaf4ea68062e1f07bc412be29ed367527e26b7643edd3",
        ],
        // register_pod
        &[
            "0c00000072656769737465725f706f64a00000000f00000068747470733a2f2f702e69642f6d650e",
            "00000068747470733a2f2f702e706f642f00760000001b00000068747470733a2f2f6f2e706f642f",
            "722f3030303123706f6c6963791400000068747470733a2f2f6f2e706f642f722f303030310f0000",
            "0068747470733a2f2f6f2e69642f6d65010000000000000001000000000100000000010000000000",
            "0042076935090001000000000000420769350900",
        ],
        // get_pod
        &["070000006765745f706f64130000000f00000068747470733a2f2f6f2e69642f6d65"],
        // register_resource
        &[
            "1100000072656769737465725f7265736f75726365c20000001400000068747470733a2f2f6f2e70",
            "6f642f722f303030321400000068747470733a2f2f6f2e706f642f722f303030320f000000687474",
            "70733a2f2f6f2e69642f6d650000000000760000001b00000068747470733a2f2f6f2e706f642f72",
            "2f3030303123706f6c6963791400000068747470733a2f2f6f2e706f642f722f303030310f000000",
            "68747470733a2f2f6f2e69642f6d6501000000000000000100000000010000000001000000000000",
            "42076935090001000000000000420769350900",
        ],
        // lookup_resource
        &[
            "0f0000006c6f6f6b75705f7265736f75726365180000001400000068747470733a2f2f6f2e706f64",
            "2f722f30303031",
        ],
        // list_resources
        &["0e0000006c6973745f7265736f757263657300000000"],
        // update_policy
        &[
            "0d0000007570646174655f706f6c6963799b0000001400000068747470733a2f2f6f2e706f642f72",
            "2f3030303100760000001b00000068747470733a2f2f6f2e706f642f722f3030303123706f6c6963",
            "791400000068747470733a2f2f6f2e706f642f722f303030310f00000068747470733a2f2f6f2e69",
            "642f6d65020000000000000001000000000100000000010000000000004207693509000100000000",
            "00004207693509000200000000000000",
        ],
        // register_copy
        &[
            "0d00000072656769737465725f636f70794f0000001400000068747470733a2f2f6f2e706f642f72",
            "2f30303031080000006465766963652d320f00000068747470733a2f2f6f2e69642f6d65dc8426b1",
            "08d7a70cd7aa1b6a1425321f0640382f3e86370a",
        ],
        // unregister_copy
        &[
            "0f000000756e72656769737465725f636f70793c0000001400000068747470733a2f2f6f2e706f64",
            "2f722f30303031080000006465766963652d3100c817a8040000001f4b0c58e6602d131260d50899",
            "52dc1c",
        ],
        // list_copies
        &[
            "0b0000006c6973745f636f70696573180000001400000068747470733a2f2f6f2e706f642f722f30",
            "303031",
        ],
        // start_monitoring
        &[
            "1000000073746172745f6d6f6e69746f72696e67180000001400000068747470733a2f2f6f2e706f",
            "642f722f30303031",
        ],
        // record_evidence
        &[
            "0f0000007265636f72645f65766964656e6365610000001400000068747470733a2f2f6f2e706f64",
            "2f722f303030310200000000000000080000006465766963652d31010000000084d9f2b36e2019dd",
            "7008788fb978f9fb08707b341c92af5447478f5f222528f2f02d106bca1c5712acb74d6f559f4c13",
        ],
        // reaffirm_evidence
        &[
            "11000000726561666669726d5f65766964656e6365640000001400000068747470733a2f2f6f2e70",
            "6f642f722f303030310200000000000000080000006465766963652d31010000000000000084d9f2",
            "b36e2019dd7008788fb978f9fb08707b341c92af5447478f5f222528f262c44f9e30007e1f76ae84",
            "70edc4171f",
        ],
        // get_round
        &[
            "090000006765745f726f756e64200000001400000068747470733a2f2f6f2e706f642f722f303030",
            "310100000000000000",
        ],
        // subscribe
        &["09000000737562736372696265130000000f00000068747470733a2f2f712e69642f6d65"],
        // verify_certificate
        &[
            "120000007665726966795f636572746966696361746533000000b6ca0500b0b03f7640d2d497469d",
            "123a406e56119456c89119b352b82e1fb8dd0f00000068747470733a2f2f6f2e69642f6d65",
        ],
        // get_subscription
        &[
            "100000006765745f737562736372697074696f6e130000000f00000068747470733a2f2f6f2e6964",
            "2f6d65",
        ],
    ];
    let calls = fixture().calls;
    assert_eq!(calls.len(), pins.len());
    for (c, expected) in calls.iter().zip(pins) {
        let pair = encode_to_vec(&(c.name().to_string(), c.encode_args()));
        assert_eq!(hex(&pair), expected.concat(), "{}", c.name());
    }
}

/// Applies one call to `state` at `T0` and returns the events it emitted,
/// each as its topic and its payload's hex.
fn emitted(
    state: &mut WorldState,
    caller: Address,
    call: impl Into<DexCall>,
) -> Vec<(String, String)> {
    let call = call.into();
    let mut meter = GasMeter::unmetered();
    let contract = ContractId::new(DEX_CONTRACT_ID);
    let mut ctx = CallCtx::new(caller, 1, T0, contract, state, &mut meter);
    common::dex_app()
        .call(&mut ctx, call.name(), &call.encode_args())
        .unwrap_or_else(|e| panic!("{}: {e}", call.name()));
    let events = (ctx.events().iter())
        .map(|e| (e.topic.to_string(), hex(&e.data)))
        .collect();
    ctx.into_effects().apply(state);
    events
}

/// One event of every DE App topic, as the contract's emit sites encode
/// it: a pod, a resource, a policy update, a copy, a round that closes on
/// its one non-compliant answer, the copy's removal, a round that closes
/// at once for want of copies (`RoundClosed`'s second emit site) and a
/// subscription. Recorded while every payload was an anonymous tuple;
/// never re-record them.
#[test]
fn per_topic_event_known_answers() {
    let owner = Address::from_seed(b"owner");
    let device = KeyPair::from_seed(DEVICE.as_bytes());
    let mut state = WorldState::new();
    state.credit(owner, 1_000_000);
    let s = &mut state;
    let init = Init {
        fee: 10u128,
        validity_nanos: 1_000_000_000_000u64,
        treasury: Address::from_seed(b"treasury"),
    };
    let mut events = emitted(s, owner, init);
    let pod = RegisterPod {
        owner_webid: OWNER.to_string(),
        web_ref: "https://o.pod/".to_string(),
        default_policy: envelope(1),
    };
    events.extend(emitted(s, owner, pod));
    let res = RegisterResource {
        resource: RES.to_string(),
        location: RES.to_string(),
        owner_webid: OWNER.to_string(),
        metadata: Vec::new(),
        policy: envelope(1),
    };
    events.extend(emitted(s, owner, res));
    let update = UpdatePolicy {
        resource: RES.to_string(),
        policy: envelope(2),
        new_version: 2,
    };
    events.extend(emitted(s, owner, update));
    let copy = common::quoted_copy(RES, DEVICE, OWNER, &device.public());
    events.extend(emitted(s, owner, copy));
    let start = || StartMonitoring {
        resource: RES.to_string(),
    };
    events.extend(emitted(s, owner, start()));
    let mut violation = EvidenceSubmission {
        compliant: false,
        violations: vec!["retention exceeded".to_string()],
        ..evidence(&device, 1)
    };
    violation.signature = device.sign(&violation.signing_bytes());
    events.extend(emitted(s, owner, violation));
    let as_of = T0 + SimDuration::from_secs(1);
    let unregister = common::signed_unregister(RES, DEVICE, as_of, &device);
    events.extend(emitted(s, owner, unregister));
    events.extend(emitted(s, owner, start()));
    let subscribe = Subscribe {
        webid: OWNER.to_string(),
    };
    events.extend(emitted(s, owner, subscribe));

    let pins: [(&str, &[&str]); 11] = [
        ("PodRegistered", &["0f00000068747470733a2f2f6f2e69642f6d65"]),
        (
            "ResourceRegistered",
            &["1400000068747470733a2f2f6f2e706f642f722f30303031"],
        ),
        (
            "PolicyUpdated",
            &[
                "1400000068747470733a2f2f6f2e706f642f722f30303031020000000000000000760000",
                "001b00000068747470733a2f2f6f2e706f642f722f3030303123706f6c69637914000000",
                "68747470733a2f2f6f2e706f642f722f303030310f00000068747470733a2f2f6f2e6964",
                "2f6d65020000000000000001000000000100000000010000000000004207693509000100",
                "000000000042076935090005d0dc39b07937480f4757814dc92032bd9887e1503cbabc0a",
                "1e21f1f596b0ab",
            ],
        ),
        (
            "CopyRegistered",
            &["1400000068747470733a2f2f6f2e706f642f722f30303031080000006465766963652d31"],
        ),
        (
            "MonitoringRequested",
            &[
                "1400000068747470733a2f2f6f2e706f642f722f30303031010000000000000001000000",
                "080000006465766963652d31",
            ],
        ),
        (
            "EvidenceRecorded",
            &[
                "1400000068747470733a2f2f6f2e706f642f722f30303031010000000000000008000000",
                "6465766963652d3100",
            ],
        ),
        (
            "RoundClosed",
            &[
                "1400000068747470733a2f2f6f2e706f642f722f30303031010000000000000000000000",
                "0000000001000000080000006465766963652d31",
            ],
        ),
        (
            "CopyRemoved",
            &["1400000068747470733a2f2f6f2e706f642f722f30303031080000006465766963652d31"],
        ),
        (
            "MonitoringRequested",
            &["1400000068747470733a2f2f6f2e706f642f722f30303031020000000000000000000000"],
        ),
        (
            "RoundClosed",
            &[
                "1400000068747470733a2f2f6f2e706f642f722f30303031020000000000000000000000",
                "0000000000000000",
            ],
        ),
        (
            "CertificateIssued",
            &[
                "0f00000068747470733a2f2f6f2e69642f6d65b6ca0500b0b03f7640d2d497469d123a40",
                "6e56119456c89119b352b82e1fb8dd",
            ],
        ),
    ];
    assert_eq!(events.len(), pins.len(), "{events:#?}");
    for ((topic, data), (pinned, expected)) in events.iter().zip(pins) {
        assert_eq!(topic, pinned);
        assert_eq!(*data, expected.concat(), "{topic}");
    }
}
