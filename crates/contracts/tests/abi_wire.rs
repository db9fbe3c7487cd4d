//! The DE App's wire bytes.
//!
//! `known_answers` pins the encodings of one transaction's worth of DE App
//! traffic — `register_resource` arguments, a policy envelope, a signed
//! `update_policy` transaction and its `PolicyUpdated` payload — as recorded
//! before the codec's byte strings took their bulk path; never re-record them.
//!
//! The properties cover every decoder a client, a block or an event log can
//! feed: the argument type of each of the 17 `DistExchange` methods, the
//! policy envelope, the signed transaction and the payload of each event
//! topic. For each, decode∘encode is the identity, and bytes that are
//! arbitrary, mutated in one place, cut short or given a hostile length
//! prefix either decode to a value that re-encodes to exactly those bytes or
//! are refused — never a panic. `every_method_survives_damaged_arguments`
//! sends the same damage through `Contract::call` itself, over a ledger state
//! where every method has something to find.

use duc_blockchain::tx::TxKind;
use duc_blockchain::{
    Address, CallCtx, Contract, ContractError, ContractId, GasMeter, SignedTransaction,
    Transaction, WorldState,
};
use duc_codec::{decode_from_slice, encode_to_vec, Decode, Encode};
use duc_contracts::client::{DistExchangeClient, DEFAULT_GAS};
use duc_contracts::{
    DistExchange, EvidenceReaffirmation, EvidenceSubmission, PolicyEnvelope, DEX_CONTRACT_ID,
};
use duc_crypto::{Digest, KeyPair, PublicKey, Signature};
use duc_policy::{Action, Constraint, Duty, Rule, UsagePolicy};
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

    #[test]
    fn policy_updated_payload(
        v in (text(), any::<u64>(), policy_envelope(), digest()),
        d in damage(),
    ) {
        holds(&v, &d)?;
    }

    /// `CopyRegistered` and `CopyRemoved`.
    #[test]
    fn copy_payloads(v in (text(), text()), d in damage()) {
        holds(&v, &d)?;
    }

    #[test]
    fn monitoring_requested_payload(v in (text(), any::<u64>(), names()), d in damage()) {
        holds(&v, &d)?;
    }

    #[test]
    fn evidence_recorded_payload(
        v in (text(), any::<u64>(), text(), any::<bool>()),
        d in damage(),
    ) {
        holds(&v, &d)?;
    }

    #[test]
    fn round_closed_payload(
        v in (text(), any::<u64>(), any::<u64>(), names()),
        d in damage(),
    ) {
        holds(&v, &d)?;
    }

    #[test]
    fn certificate_issued_payload(v in (text(), digest()), d in damage()) {
        holds(&v, &d)?;
    }
}

// --- through the contract --------------------------------------------------

const T0: SimTime = SimTime::from_secs(10);

/// A ledger state with a market, a pod, a resource, a copy, one closed
/// monitoring round with compliant evidence, a second round open and a
/// subscription — and, for each of the 17 methods, arguments that are valid
/// against it.
struct Fixture {
    state: WorldState,
    owner: Address,
    calls: Vec<(&'static str, Vec<u8>)>,
}

fn apply(state: &mut WorldState, caller: Address, method: &str, args: &[u8]) -> Vec<u8> {
    let mut meter = GasMeter::unmetered();
    let contract = ContractId::new(DEX_CONTRACT_ID);
    let mut ctx = CallCtx::new(caller, 1, T0, contract, state, &mut meter);
    let out = DistExchange
        .call(&mut ctx, method, args)
        .unwrap_or_else(|e| panic!("fixture {method}: {e}"));
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

fn fixture() -> Fixture {
    let owner = Address::from_seed(b"owner");
    let device = KeyPair::from_seed(DEVICE.as_bytes());
    let treasury = Address::from_seed(b"treasury");
    let mut state = WorldState::new();
    state.credit(owner, 1_000_000);
    let s = &mut state;
    apply(
        s,
        owner,
        "init",
        &encode_to_vec(&(10u128, 1_000_000_000_000u64, treasury)),
    );
    let pod = (OWNER.to_string(), "https://o.pod/".to_string(), envelope(1));
    apply(s, owner, "register_pod", &encode_to_vec(&pod));
    let meta = vec![("domain".to_string(), "health".to_string())];
    let res = (
        RES.to_string(),
        RES.to_string(),
        OWNER.to_string(),
        meta,
        envelope(1),
    );
    apply(s, owner, "register_resource", &encode_to_vec(&res));
    let copy = (
        RES.to_string(),
        DEVICE.to_string(),
        OWNER.to_string(),
        device.public(),
    );
    apply(s, owner, "register_copy", &encode_to_vec(&copy));
    let one_name = |name: &str| encode_to_vec(&(name.to_string(),));
    apply(s, owner, "start_monitoring", &one_name(RES));
    apply(
        s,
        owner,
        "record_evidence",
        &encode_to_vec(&evidence(&device, 1)),
    );
    apply(s, owner, "start_monitoring", &one_name(RES));
    let cert = apply(s, owner, "subscribe", &one_name(OWNER));
    let cert = DistExchangeClient::decode_certificate(&cert).expect("certificate");

    let mut reaffirm = EvidenceReaffirmation {
        resource: RES.into(),
        round: 2,
        device: DEVICE.into(),
        prev_round: 1,
        evidence_digest: duc_crypto::sha256(b"usage log"),
        signature: Signature { e: 0, s: 0 },
    };
    reaffirm.signature = device.sign(&reaffirm.signing_bytes());
    let fresh = "https://o.pod/r/0002".to_string();
    let calls = vec![
        ("init", encode_to_vec(&(10u128, 1u64, treasury))),
        (
            "register_pod",
            encode_to_vec(&(
                "https://p.id/me".to_string(),
                "https://p.pod/".to_string(),
                envelope(1),
            )),
        ),
        ("get_pod", one_name(OWNER)),
        (
            "register_resource",
            encode_to_vec(&(
                fresh.clone(),
                fresh,
                OWNER.to_string(),
                Vec::<(String, String)>::new(),
                envelope(1),
            )),
        ),
        ("lookup_resource", one_name(RES)),
        ("list_resources", Vec::new()),
        (
            "update_policy",
            encode_to_vec(&(RES.to_string(), envelope(2), 2u64)),
        ),
        (
            "register_copy",
            encode_to_vec(&(
                RES.to_string(),
                "device-2".to_string(),
                OWNER.to_string(),
                device.public(),
            )),
        ),
        (
            "unregister_copy",
            encode_to_vec(&(
                RES.to_string(),
                DEVICE.to_string(),
                SimTime::from_secs(20).as_nanos(),
            )),
        ),
        ("list_copies", one_name(RES)),
        ("start_monitoring", one_name(RES)),
        ("record_evidence", encode_to_vec(&evidence(&device, 2))),
        ("reaffirm_evidence", encode_to_vec(&reaffirm)),
        ("get_round", encode_to_vec(&(RES.to_string(), 1u64))),
        ("subscribe", one_name("https://q.id/me")),
        (
            "verify_certificate",
            encode_to_vec(&(cert, OWNER.to_string())),
        ),
        ("get_subscription", one_name(OWNER)),
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
    DistExchange.call(&mut ctx, method, args)
}

/// The damage properties start from arguments that get somewhere: each
/// method accepts its fixture arguments (`init` refuses a second market).
#[test]
fn fixture_arguments_reach_every_method() {
    let fx = fixture();
    assert_eq!(fx.calls.len(), 17);
    for (method, args) in &fx.calls {
        match call(&fx, method, args) {
            Err(ContractError::Reverted(why)) if *method == "init" => {
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
        let (method, args) = &fx.calls[which];
        let _ = call(&fx, method, &damaged(args, &d));
    }
}
