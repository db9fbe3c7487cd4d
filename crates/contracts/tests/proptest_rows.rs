//! The DE App's stored rows: `PodRow`, `ResourceRow`, `CopyRow`, `SubRow`,
//! and a monitoring round's `RoundRow` and `AnswerRow`, as they sit in a
//! state page.
//!
//! Contract reads decode these straight out of the page that holds them, so
//! a page's bytes are their only input. `known_answers` pins one encoding of
//! each of the first four, recorded before reads began borrowing from the
//! page, and `round_row_known_answers` the round's rows as first written;
//! never re-record them. The properties hold each decoder to decode∘encode = id,
//! and to bytes that are arbitrary, mutated in one place or cut short: such
//! bytes decode to a row that re-encodes to exactly those bytes, or are
//! refused — never a panic.

use duc_blockchain::Address;
use duc_codec::{decode_from_slice, encode_to_vec, Decode, Encode};
use duc_contracts::{Answer, AnswerRow, CopyRow, PodRow, ResourceRow, RoundRow, SubRow};
use duc_crypto::{Digest, PublicKey, Signature};
use duc_sim::SimTime;
use proptest::prelude::*;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn known_answers() {
    let policy = duc_crypto::sha256(b"policy");
    let owner = Address::from_seed(b"owner");
    let pins: [(&str, Vec<u8>, &[&str]); 5] = [
        (
            "PodRow",
            encode_to_vec(&PodRow {
                owner_addr: owner,
                web_ref: "https://o.pod/".into(),
                policy,
                registered_at: SimTime::from_secs(4),
            }),
            &[
                "77cf7d0b1c27c7a31b952c84e29d40bf4ac43bf3dc71539e5d9677434a291a890e00000068747470",
                "733a2f2f6f2e706f642f823412d1eacb67956220e532959f0104603057c88704863ca38e7cd188fd",
                "a81200286bee00000000",
            ],
        ),
        (
            "ResourceRow, location collapsed",
            encode_to_vec(&ResourceRow {
                location: None,
                owner_webid: "https://o.id/me".into(),
                owner_addr: owner,
                metadata: vec![("domain".into(), "health".into())],
                policy,
                policy_version: 3,
                registered_at: SimTime::from_secs(5),
            }),
            &[
                "000f00000068747470733a2f2f6f2e69642f6d6577cf7d0b1c27c7a31b952c84e29d40bf4ac43bf3",
                "dc71539e5d9677434a291a890100000006000000646f6d61696e060000006865616c7468823412d1",
                "eacb67956220e532959f0104603057c88704863ca38e7cd188fda812030000000000000000f2052a",
                "01000000",
            ],
        ),
        (
            "ResourceRow, location elsewhere",
            encode_to_vec(&ResourceRow {
                location: Some("https://mirror.example/r".into()),
                owner_webid: "https://o.id/me".into(),
                owner_addr: owner,
                metadata: Vec::new(),
                policy,
                policy_version: 1,
                registered_at: SimTime::from_nanos(1),
            }),
            &[
                "011800000068747470733a2f2f6d6972726f722e6578616d706c652f720f00000068747470733a2f",
                "2f6f2e69642f6d6577cf7d0b1c27c7a31b952c84e29d40bf4ac43bf3dc71539e5d9677434a291a89",
                "00000000823412d1eacb67956220e532959f0104603057c88704863ca38e7cd188fda81201000000",
                "000000000100000000000000",
            ],
        ),
        (
            "CopyRow",
            encode_to_vec(&CopyRow {
                holder_webid: "https://c.id/me".into(),
                attestation_key: PublicKey(0x0123_4567_89ab_cdef),
                registered_at: SimTime::from_secs(6),
            }),
            &["0f00000068747470733a2f2f632e69642f6d65efcdab896745230100bca06501000000"],
        ),
        (
            "SubRow",
            encode_to_vec(&SubRow {
                addr: Address::from_seed(b"carol"),
                certificate: duc_crypto::sha256(b"certificate"),
                paid_at: SimTime::from_secs(1),
                valid_until: SimTime::from_secs(100),
            }),
            &[
                "43f7099e06669a49ea8da45dac3821d833ebdb2920afcad9ad57d9ea28106dac03d66dd08835c1ca",
                "3f128cceacd1f31ac94163096b20f445ae84285bc0832d7200ca9a3b0000000000e8764817000000",
            ],
        ),
    ];
    for (what, bytes, expected) in pins {
        assert_eq!(hex(&bytes), expected.concat(), "{what}");
    }
}

#[test]
fn round_row_known_answers() {
    let pins: [(&str, Vec<u8>, &[&str]); 3] = [
        (
            "RoundRow",
            encode_to_vec(&RoundRow {
                requested_by: Address::from_seed(b"owner"),
                started_at: SimTime::from_secs(7),
                expected_devices: vec!["d-0".into(), "d-1".into()],
            }),
            &[
                "77cf7d0b1c27c7a31b952c84e29d40bf4ac43bf3dc71539e5d9677434a291a8900863ba101000000",
                "0200000003000000642d3003000000642d31",
            ],
        ),
        (
            "AnswerRow, evidence",
            encode_to_vec(&AnswerRow {
                ordinal: 3,
                answer: Answer::Evidence {
                    compliant: false,
                    violations: vec!["late".into()],
                    evidence_digest: duc_crypto::sha256(b"log"),
                    signature: Signature { e: 5, s: 9 },
                },
            }),
            &[
                "03000000000001000000040000006c617465836ff184e7b41b1e13cb5fd89fa1de98dbbab99e9d29",
                "18913ff43b86a5c7c21305000000000000000900000000000000",
            ],
        ),
        (
            "AnswerRow, reaffirmed",
            encode_to_vec(&AnswerRow {
                ordinal: 0,
                answer: Answer::Reaffirmed { prev_round: 2 },
            }),
            &["00000000010200000000000000"],
        ),
    ];
    for (what, bytes, expected) in pins {
        assert_eq!(hex(&bytes), expected.concat(), "{what}");
    }
}

/// What happens to a valid encoding before it is decoded.
#[derive(Debug, Clone)]
enum Damage {
    /// Arbitrary bytes in its place.
    Replace(Vec<u8>),
    /// The byte at `at` (modulo the length) set to `byte`.
    Mutate { at: usize, byte: u8 },
    /// Cut to `at` bytes (modulo the length plus one).
    Truncate(usize),
}

fn damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        2 => proptest::collection::vec(any::<u8>(), 0..128).prop_map(Damage::Replace),
        4 => (any::<usize>(), any::<u8>()).prop_map(|(at, byte)| Damage::Mutate { at, byte }),
        2 => any::<usize>().prop_map(Damage::Truncate),
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
        Damage::Truncate(at) => out.truncate(at % (out.len() + 1)),
    }
    out
}

/// decode∘encode is the identity on `row`; its damaged encoding is refused
/// or decodes to a row whose encoding is exactly those bytes. A panic
/// anywhere fails the case.
fn holds<T>(row: &T, damage: &Damage) -> Result<(), TestCaseError>
where
    T: Encode + Decode + PartialEq + std::fmt::Debug,
{
    let bytes = encode_to_vec(row);
    let back = decode_from_slice::<T>(&bytes);
    prop_assert_eq!(back.as_ref(), Ok(row));
    let input = damaged(&bytes, damage);
    if let Ok(back) = decode_from_slice::<T>(&input) {
        prop_assert_eq!(encode_to_vec(&back), input);
    }
    Ok(())
}

fn text() -> impl Strategy<Value = String> {
    prop_oneof![3 => "[a-z0-9:/.#-]{0,16}", 1 => ".{0,6}"]
}

fn digest() -> impl Strategy<Value = Digest> {
    proptest::collection::vec(any::<u8>(), 32).prop_map(|v| Digest(v.try_into().expect("32 bytes")))
}

fn address() -> impl Strategy<Value = Address> {
    digest().prop_map(Address)
}

fn instant() -> impl Strategy<Value = SimTime> {
    any::<u64>().prop_map(SimTime::from_nanos)
}

fn pod_row() -> impl Strategy<Value = PodRow> {
    (address(), text(), digest(), instant()).prop_map(
        |(owner_addr, web_ref, policy, registered_at)| PodRow {
            owner_addr,
            web_ref,
            policy,
            registered_at,
        },
    )
}

fn resource_row() -> impl Strategy<Value = ResourceRow> {
    (
        proptest::option::of(text()),
        text(),
        address(),
        proptest::collection::vec((text(), text()), 0..4),
        digest(),
        any::<u64>(),
        instant(),
    )
        .prop_map(
            |(
                location,
                owner_webid,
                owner_addr,
                metadata,
                policy,
                policy_version,
                registered_at,
            )| {
                ResourceRow {
                    location,
                    owner_webid,
                    owner_addr,
                    metadata,
                    policy,
                    policy_version,
                    registered_at,
                }
            },
        )
}

fn copy_row() -> impl Strategy<Value = CopyRow> {
    (text(), any::<u64>(), instant()).prop_map(|(holder_webid, key, registered_at)| CopyRow {
        holder_webid,
        attestation_key: PublicKey(key),
        registered_at,
    })
}

fn sub_row() -> impl Strategy<Value = SubRow> {
    (address(), digest(), instant(), instant()).prop_map(
        |(addr, certificate, paid_at, valid_until)| SubRow {
            addr,
            certificate,
            paid_at,
            valid_until,
        },
    )
}

fn round_row() -> impl Strategy<Value = RoundRow> {
    (
        address(),
        instant(),
        proptest::collection::vec(text(), 0..6),
    )
        .prop_map(|(requested_by, started_at, expected_devices)| RoundRow {
            requested_by,
            started_at,
            expected_devices,
        })
}

fn answer_row() -> impl Strategy<Value = AnswerRow> {
    let evidence = (
        any::<bool>(),
        proptest::collection::vec(text(), 0..3),
        digest(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(compliant, violations, evidence_digest, e, s)| Answer::Evidence {
                compliant,
                violations,
                evidence_digest,
                signature: Signature { e, s },
            },
        );
    let reaffirmed = any::<u64>().prop_map(|prev_round| Answer::Reaffirmed { prev_round });
    (any::<u32>(), prop_oneof![evidence, reaffirmed])
        .prop_map(|(ordinal, answer)| AnswerRow { ordinal, answer })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pod_row_decodes_what_it_encodes_and_survives_damage(v in pod_row(), d in damage()) {
        holds(&v, &d)?;
    }

    #[test]
    fn resource_row_decodes_what_it_encodes_and_survives_damage(
        v in resource_row(),
        d in damage(),
    ) {
        holds(&v, &d)?;
    }

    #[test]
    fn copy_row_decodes_what_it_encodes_and_survives_damage(v in copy_row(), d in damage()) {
        holds(&v, &d)?;
    }

    #[test]
    fn sub_row_decodes_what_it_encodes_and_survives_damage(v in sub_row(), d in damage()) {
        holds(&v, &d)?;
    }

    #[test]
    fn round_row_decodes_what_it_encodes_and_survives_damage(v in round_row(), d in damage()) {
        holds(&v, &d)?;
    }

    #[test]
    fn answer_row_decodes_what_it_encodes_and_survives_damage(v in answer_row(), d in damage()) {
        holds(&v, &d)?;
    }
}
