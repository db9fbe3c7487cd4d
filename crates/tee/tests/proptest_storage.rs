//! The sealed copies of a [`TrustedApplication`] against a `BTreeMap` model
//! of name → plaintext (`None` once the copy is deleted, since a deleted
//! copy keeps its audit row): `store_resource` (re-storing a name
//! included), permitted `access`, `delete` and `has_copy`, with the host
//! view, the sealed-byte total and `resources()` checked after every
//! operation, and the exact ciphertext a fixed sequence leaves for the host
//! to see.

use std::collections::BTreeMap;
use std::rc::Rc;

use duc_policy::{Action, PolicyVersion, Purpose, Rule, UsagePolicy};
use duc_sim::{SimDuration, SimTime};
use duc_tee::{AccessError, Enclave, TrustedApplication};
use proptest::prelude::*;

/// Names that are prefixes of one another, plus the empty name, and names
/// whose first 16 bytes tie: two that share them and differ later, `k` and
/// `k\0`, and a 16-byte name with a 17-byte one that extends it.
const NAMES: &[&str] = &[
    "",
    "a",
    "b",
    "res/",
    "res/x",
    "res/x2",
    "res/y",
    "https://p.pod/data/set.bin",
    "https://p.pod/data/set.csv",
    "k",
    "k\0",
    "0123456789abcdef",
    "0123456789abcdef0",
];

#[derive(Debug, Clone)]
enum Op {
    Store(usize, Vec<u8>),
    Access(usize),
    Delete(usize),
    HasCopy(usize),
}

fn name() -> impl Strategy<Value = usize> {
    0..NAMES.len()
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (name(), proptest::collection::vec(any::<u8>(), 0..80))
            .prop_map(|(n, bytes)| Op::Store(n, bytes)),
        2 => name().prop_map(Op::Access),
        2 => name().prop_map(Op::Delete),
        1 => name().prop_map(Op::HasCopy),
    ]
}

fn app() -> TrustedApplication {
    TrustedApplication::new(
        Enclave::new("model-device", b"duc/trusted-app-v1"),
        "https://holder.id/me",
    )
}

/// A policy that permits every use for ever, so every access of a live
/// copy returns its plaintext.
fn open_policy() -> Rc<PolicyVersion> {
    UsagePolicy::builder("urn:policy", "urn:any", "https://owner.id/me")
        .permit(Rule::permit([Action::Use]))
        .build()
        .into()
}

fn at(step: usize) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(step as u64)
}

/// Everything observable about `app`'s copies agrees with `model`.
fn check(
    app: &TrustedApplication,
    model: &BTreeMap<&str, Option<Vec<u8>>>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        app.resources().collect::<Vec<_>>(),
        model.keys().copied().collect::<Vec<_>>()
    );
    prop_assert_eq!(
        app.sealed_bytes(),
        model.values().flatten().map(Vec::len).sum::<usize>()
    );
    for name in NAMES {
        let live = model.get(name).and_then(Option::as_ref);
        prop_assert_eq!(app.has_copy(name), live.is_some());
        prop_assert_eq!(app.host_view(name).map(<[u8]>::len), live.map(Vec::len));
        prop_assert_eq!(app.report(name, at(0)).is_some(), model.contains_key(name));
    }
    Ok(())
}

proptest! {
    #[test]
    fn storage_matches_the_model(ops in proptest::collection::vec(op(), 0..64)) {
        let mut app = app();
        let policy = open_policy();
        let mut model: BTreeMap<&str, Option<Vec<u8>>> = BTreeMap::new();
        check(&app, &model)?;
        for (step, op) in ops.into_iter().enumerate() {
            let now = at(step);
            match op {
                Op::Store(n, bytes) => {
                    let before = app.host_view(NAMES[n]).map(<[u8]>::to_vec);
                    app.store_resource(NAMES[n], &bytes, Rc::clone(&policy), now);
                    // Re-storing the same bytes still shows the host new
                    // ciphertext (a fresh nonce per seal).
                    if bytes.len() >= 8 && model.get(NAMES[n]) == Some(&Some(bytes.clone())) {
                        prop_assert_ne!(app.host_view(NAMES[n]).map(<[u8]>::to_vec), before);
                    }
                    model.insert(NAMES[n], Some(bytes));
                }
                Op::Access(n) => {
                    let expected = model
                        .get(NAMES[n])
                        .cloned()
                        .flatten()
                        .ok_or(AccessError::NoCopy);
                    prop_assert_eq!(
                        app.access(NAMES[n], Action::Read, Purpose::any(), now),
                        expected
                    );
                }
                Op::Delete(n) => {
                    let live = model.get_mut(NAMES[n]).and_then(Option::take);
                    prop_assert_eq!(app.delete(NAMES[n], now), live.is_some());
                }
                Op::HasCopy(n) => {
                    prop_assert_eq!(
                        app.has_copy(NAMES[n]),
                        model.get(NAMES[n]).is_some_and(Option::is_some)
                    );
                }
            }
            check(&app, &model)?;
        }
    }
}

/// The ciphertext the host sees after a fixed sequence (stores, a
/// re-store, a delete and a store after it), hashed in name order. The
/// nonce of each seal depends on the name and on how many seals came
/// before it, so this pins the nonce scheme and the cipher, not just the
/// round trip. The literal was recorded against the sealed storage the copy
/// table replaced; never re-record it.
#[test]
fn host_view_of_a_fixed_sequence_is_pinned() {
    let mut app = app();
    let policy = open_policy();
    let store = |app: &mut TrustedApplication, name: &str, bytes: &[u8]| {
        app.store_resource(name, bytes, Rc::clone(&policy), at(0));
    };
    store(&mut app, "res/x", b"first body of x");
    store(&mut app, "res/y", &[7u8; 300]);
    store(
        &mut app,
        "res/x",
        b"second body of x, longer than the first",
    );
    store(&mut app, "a", b"");
    assert!(app.delete("res/y", at(0)));
    store(&mut app, "res/y", b"y again");
    store(&mut app, "", b"the empty name");
    let mut seen = Vec::new();
    for name in NAMES {
        if let Some(ciphertext) = app.host_view(name) {
            seen.extend_from_slice(name.as_bytes());
            seen.push(0);
            seen.extend_from_slice(ciphertext);
        }
    }
    assert_eq!(
        app.resources().collect::<Vec<_>>(),
        ["", "a", "res/x", "res/y"]
    );
    assert!(app.resources().all(|name| app.has_copy(name)));
    assert_eq!(app.sealed_bytes(), 14 + 39 + 7);
    assert_eq!(
        duc_crypto::sha256(&seen).to_hex(),
        "c5030056459c0c358d4b56c3974d14062aac760151badc5bca01c045627fdd1e",
        "a known answer: never re-record it"
    );
}
