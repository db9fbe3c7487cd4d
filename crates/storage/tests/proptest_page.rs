//! Property tests for [`SlottedPage`]: under arbitrary operation sequences
//! it agrees with a `BTreeMap` model *and* its bytes stay exactly
//! `encode_page(model)` (which is what keeps spill digests, live-byte
//! accounting and compaction triggers independent of how a page was
//! built), and its constructor never panics on bytes it did not write.

use std::collections::BTreeMap;
use std::ops::Bound::{Included, Unbounded};

use duc_storage::{encode_page, SlottedPage};
use proptest::prelude::*;

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

fn encode_model(model: &Model) -> Vec<u8> {
    encode_page(model.iter().map(|(k, v)| (k.as_slice(), v.as_slice())))
}

#[derive(Debug, Clone)]
enum Op {
    /// Store a value under a key from the pool (new or existing).
    Insert(Vec<u8>, Vec<u8>),
    /// Replace the value of the `n`-th existing slot — shorter, longer or
    /// the same length as what it held.
    Overwrite(usize, Vec<u8>),
    /// Remove a pool key (present or not).
    Remove(Vec<u8>),
    /// Remove the `n`-th existing slot.
    RemoveExisting(usize),
    /// Median split; carry on with the upper (`true`) or lower half.
    Split(bool),
    /// Ordered scan of the slots under a prefix.
    Scan(Vec<u8>),
}

/// Keys at the edges of fixed-width key heads: keys that differ only by
/// trailing `0x00` (`k`, `k\0`, `k\0\0`), the empty key, keys of 7, 8, 9,
/// 15, 16, 17 and 24 bytes that share all but their last byte (which is
/// `0x00`, `0x01`, `x`, `0xff` or the stem's own next byte, so the stems
/// are prefixes of one another too), strict prefixes of those keys' common
/// prefix, and keys below and above all of them.
fn adversarial_keys() -> Vec<Vec<u8>> {
    const STEM: &[u8] = b"pod/https://p1.id/me#abcdef";
    let mut keys: Vec<Vec<u8>> = [
        &b""[..],
        b"\0",
        b"k",
        b"k\0",
        b"k\0\0",
        b"p",
        b"pod/",
        b"pod/h",
        b"\xff\xff\xff",
    ]
    .iter()
    .map(|k| k.to_vec())
    .collect();
    for len in [7, 8, 9, 15, 16, 17, 24] {
        for last in [0x00, 0x01, b'x', 0xff, STEM[len - 1]] {
            let mut k = STEM[..len - 1].to_vec();
            k.push(last);
            keys.push(k);
        }
    }
    keys
}

/// A small pool, so sequences revisit keys: the empty key, short keys, keys
/// of 54..=57 bytes (both sides of the state store's 55-byte inline cap), a
/// key that is a strict prefix of its neighbour, the head-edge keys of
/// [`adversarial_keys`], and a few arbitrary ones.
fn key() -> impl Strategy<Value = Vec<u8>> {
    let edges = adversarial_keys();
    let edge_count = edges.len();
    prop_oneof![
        1 => Just(Vec::new()),
        4 => (0u8..12).prop_map(|i| vec![b'k', i]),
        3 => (54usize..=57, 0u8..3).prop_map(|(len, tag)| {
            let mut k = vec![b'x'; len];
            k[len - 1] = tag;
            k
        }),
        2 => prop_oneof![
            Just(b"pod/a".to_vec()),
            Just(b"pod/a/b".to_vec()),
            Just(b"pod/a\0".to_vec()),
        ],
        4 => (0..edge_count).prop_map(move |i| edges[i].clone()),
        2 => proptest::collection::vec(any::<u8>(), 0..6),
    ]
}

fn value() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..48)
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (key(), value()).prop_map(|(k, v)| Op::Insert(k, v)),
        3 => (any::<usize>(), value()).prop_map(|(n, v)| Op::Overwrite(n, v)),
        2 => key().prop_map(Op::Remove),
        2 => any::<usize>().prop_map(Op::RemoveExisting),
        1 => any::<bool>().prop_map(Op::Split),
        2 => prop_oneof![
            key(),
            Just(b"k".to_vec()),
            Just(b"pod/".to_vec()),
            Just(b"x".to_vec()),
        ]
        .prop_map(Op::Scan),
    ]
}

fn nth_key(model: &Model, n: usize) -> Option<Vec<u8>> {
    (!model.is_empty()).then(|| model.keys().nth(n % model.len()).expect("in range").clone())
}

/// Everything observable about `page` agrees with `model`.
fn check(page: &SlottedPage, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(page.as_bytes().to_vec(), encode_model(model));
    prop_assert_eq!(page.len(), model.len());
    prop_assert_eq!(page.is_empty(), model.is_empty());
    prop_assert_eq!(
        page.payload_bytes(),
        model.iter().map(|(k, v)| k.len() + v.len()).sum::<usize>()
    );
    prop_assert_eq!(page.first_key(), model.keys().next().map(Vec::as_slice));
    let slots: Vec<(&[u8], &[u8])> = page.iter().collect();
    let expected: Vec<(&[u8], &[u8])> = model
        .iter()
        .map(|(k, v)| (k.as_slice(), v.as_slice()))
        .collect();
    prop_assert_eq!(slots, expected);
    for (k, v) in model {
        prop_assert_eq!(page.get(k), Some(v.as_slice()));
        prop_assert!(page.contains_key(k));
    }
    // An absent key misses, and a scan from it starts where it would be
    // inserted: as many slots lie at or past it as in the model.
    for k in adversarial_keys() {
        prop_assert_eq!(page.get(&k), model.get(&k).map(Vec::as_slice));
        prop_assert_eq!(page.contains_key(&k), model.contains_key(&k));
        prop_assert_eq!(
            page.iter_from(&k).next().map(|(k, _)| k),
            model.range(k.clone()..).next().map(|(k, _)| k.as_slice())
        );
        prop_assert_eq!(page.iter_from(&k).count(), model.range(k..).count());
    }
    // The slot index is a function of the bytes alone.
    let reread = SlottedPage::from_bytes(page.as_bytes().to_vec());
    prop_assert!(reread.is_ok());
    prop_assert_eq!(&reread.expect("checked"), page);
    Ok(())
}

proptest! {
    #[test]
    fn page_matches_the_model_byte_for_byte(ops in proptest::collection::vec(op(), 0..96)) {
        let mut page = SlottedPage::new();
        let mut model = Model::new();
        check(&page, &model)?;
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(page.insert(&k, &v), model.insert(k, v));
                }
                Op::Overwrite(n, v) => {
                    if let Some(k) = nth_key(&model, n) {
                        let prev = page.insert(&k, &v);
                        prop_assert!(prev.is_some());
                        prop_assert_eq!(prev, model.insert(k, v));
                    }
                }
                Op::Remove(k) => {
                    prop_assert_eq!(page.contains_key(&k), model.contains_key(&k));
                    prop_assert_eq!(page.get(&k), model.get(&k).map(Vec::as_slice));
                    prop_assert_eq!(page.remove(&k), model.remove(&k));
                }
                Op::RemoveExisting(n) => {
                    if let Some(k) = nth_key(&model, n) {
                        prop_assert_eq!(page.remove(&k), model.remove(&k));
                    }
                }
                Op::Split(keep_upper) => {
                    let whole = model.clone();
                    let mut upper_model = Model::new();
                    if let Some(mid) = nth_key(&model, model.len() / 2) {
                        upper_model = model.split_off(&mid);
                    }
                    let upper = page.split_off_upper();
                    check(&page, &model)?;
                    check(&upper, &upper_model)?;
                    let rejoined: Model = page
                        .iter()
                        .chain(upper.iter())
                        .map(|(k, v)| (k.to_vec(), v.to_vec()))
                        .collect();
                    prop_assert_eq!(page.len() + upper.len(), whole.len());
                    prop_assert_eq!(rejoined, whole);
                    if keep_upper {
                        page = upper;
                        model = upper_model;
                    }
                }
                Op::Scan(prefix) => {
                    let got: Vec<(&[u8], &[u8])> = page
                        .iter_from(&prefix)
                        .take_while(|(k, _)| k.starts_with(&prefix))
                        .collect();
                    let expected: Vec<(&[u8], &[u8])> = model
                        .range::<[u8], _>((Included(prefix.as_slice()), Unbounded))
                        .take_while(|(k, _)| k.starts_with(&prefix))
                        .map(|(k, v)| (k.as_slice(), v.as_slice()))
                        .collect();
                    prop_assert_eq!(got, expected);
                }
            }
            check(&page, &model)?;
        }
    }

    /// Arbitrary bytes either are a page — one whose slots re-encode to
    /// exactly the input — or are refused; no panic, no allocation sized
    /// by the input's claims.
    #[test]
    fn constructor_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        count in 0u32..4,
    ) {
        let mut plausible = count.to_le_bytes().to_vec();
        plausible.extend_from_slice(&bytes);
        for input in [bytes, plausible] {
            if let Ok(page) = SlottedPage::from_bytes(input.clone()) {
                prop_assert_eq!(page.as_bytes(), input.as_slice());
                prop_assert_eq!(encode_page(page.iter()), input);
            }
        }
    }

    /// One flipped byte in a valid page: a length or count that no longer
    /// adds up, or keys pushed out of order, is an error; a flip inside a
    /// key or value that keeps the order is simply a different valid page.
    #[test]
    fn constructor_survives_single_byte_mutations(
        slots in proptest::collection::vec((key(), value()), 0..12),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let model: Model = slots.into_iter().collect();
        let mut bytes = encode_model(&model);
        let at = at % bytes.len();
        bytes[at] = byte;
        if let Ok(page) = SlottedPage::from_bytes(bytes.clone()) {
            prop_assert_eq!(page.as_bytes(), bytes.as_slice());
            prop_assert_eq!(encode_page(page.iter()), bytes);
            let keys: Vec<&[u8]> = page.iter().map(|(k, _)| k).collect();
            prop_assert!(keys.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
