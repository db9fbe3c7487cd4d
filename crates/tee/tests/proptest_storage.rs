//! [`TrustedDataStorage`] against a `BTreeMap` model of name → plaintext:
//! seal (resealing a name included), unseal, erase, contains, `host_view`,
//! `len` and `total_bytes` after every operation, and the exact ciphertext
//! a fixed sequence leaves for the host to see.

use std::collections::BTreeMap;

use duc_tee::{Enclave, TrustedDataStorage};
use proptest::prelude::*;

/// Names that are prefixes of one another, plus the empty name.
const NAMES: &[&str] = &[
    "",
    "a",
    "b",
    "res/",
    "res/x",
    "res/x2",
    "res/y",
    "https://p.pod/data/set.bin",
];

#[derive(Debug, Clone)]
enum Op {
    Seal(usize, Vec<u8>),
    Unseal(usize),
    Erase(usize),
    Contains(usize),
}

fn name() -> impl Strategy<Value = usize> {
    0..NAMES.len()
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (name(), proptest::collection::vec(any::<u8>(), 0..80))
            .prop_map(|(n, bytes)| Op::Seal(n, bytes)),
        2 => name().prop_map(Op::Unseal),
        2 => name().prop_map(Op::Erase),
        1 => name().prop_map(Op::Contains),
    ]
}

fn enclave() -> Enclave {
    Enclave::new("model-device", b"duc/trusted-app-v1")
}

/// Everything observable about `storage` agrees with `model`.
fn check(
    storage: &TrustedDataStorage,
    enclave: &Enclave,
    model: &BTreeMap<&str, Vec<u8>>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(storage.len(), model.len());
    prop_assert_eq!(storage.is_empty(), model.is_empty());
    prop_assert_eq!(
        storage.total_bytes(),
        model.values().map(Vec::len).sum::<usize>()
    );
    for name in NAMES {
        let held = model.get(name);
        prop_assert_eq!(storage.contains(name), held.is_some());
        prop_assert_eq!(storage.unseal(enclave, name), held.cloned());
        prop_assert_eq!(storage.host_view(name).map(<[u8]>::len), held.map(Vec::len));
    }
    Ok(())
}

proptest! {
    #[test]
    fn storage_matches_the_model(ops in proptest::collection::vec(op(), 0..64)) {
        let enclave = enclave();
        let mut storage = TrustedDataStorage::new();
        let mut model: BTreeMap<&str, Vec<u8>> = BTreeMap::new();
        check(&storage, &enclave, &model)?;
        for op in ops {
            match op {
                Op::Seal(n, bytes) => {
                    let before = storage.host_view(NAMES[n]).map(<[u8]>::to_vec);
                    storage.seal(&enclave, NAMES[n], &bytes);
                    // A reseal of the same bytes still shows the host new
                    // ciphertext (a fresh nonce per seal).
                    if bytes.len() >= 8 && model.get(NAMES[n]) == Some(&bytes) {
                        prop_assert_ne!(storage.host_view(NAMES[n]).map(<[u8]>::to_vec), before);
                    }
                    model.insert(NAMES[n], bytes);
                }
                Op::Unseal(n) => {
                    prop_assert_eq!(
                        storage.unseal(&enclave, NAMES[n]),
                        model.get(NAMES[n]).cloned()
                    );
                }
                Op::Erase(n) => {
                    prop_assert_eq!(storage.erase(NAMES[n]), model.remove(NAMES[n]).is_some());
                }
                Op::Contains(n) => {
                    prop_assert_eq!(storage.contains(NAMES[n]), model.contains_key(NAMES[n]));
                }
            }
            check(&storage, &enclave, &model)?;
        }
    }
}

/// The ciphertext the host sees after a fixed sequence (seals, a reseal,
/// an erase and a seal after it), hashed in name order. The nonce of each
/// seal depends on the name and on how many seals came before it, so this
/// pins the nonce scheme and the cipher, not just the round trip.
#[test]
fn host_view_of_a_fixed_sequence_is_pinned() {
    let enclave = enclave();
    let mut storage = TrustedDataStorage::new();
    storage.seal(&enclave, "res/x", b"first body of x");
    storage.seal(&enclave, "res/y", &[7u8; 300]);
    storage.seal(
        &enclave,
        "res/x",
        b"second body of x, longer than the first",
    );
    storage.seal(&enclave, "a", b"");
    assert!(storage.erase("res/y"));
    storage.seal(&enclave, "res/y", b"y again");
    storage.seal(&enclave, "", b"the empty name");
    let mut seen = Vec::new();
    for name in NAMES {
        if let Some(ciphertext) = storage.host_view(name) {
            seen.extend_from_slice(name.as_bytes());
            seen.push(0);
            seen.extend_from_slice(ciphertext);
        }
    }
    assert_eq!(storage.len(), 4);
    assert_eq!(storage.total_bytes(), 14 + 39 + 7);
    assert_eq!(
        duc_crypto::sha256(&seen).to_hex(),
        "c5030056459c0c358d4b56c3974d14062aac760151badc5bca01c045627fdd1e",
        "a known answer: never re-record it"
    );
}
