//! Property tests for [`Pod`]: under arbitrary put / get / contains /
//! delete / list sequences it agrees with a `BTreeMap` model keyed by path.
//! The paths share prefixes with one another (`a/b` and `a/bc`, `data` and
//! `data/`), the listed containers include the empty container (the whole
//! pod) and prefixes that are not themselves resources, so an ordering or
//! prefix-scan slip shows as a missing or extra path.

use std::collections::BTreeMap;

use duc_solid::{Body, Pod, Resource, ResourceKind};
use proptest::prelude::*;

/// Path → (content, version).
type Model = BTreeMap<String, (ResourceKind, u64)>;

/// Paths that are prefixes of one another, differ only past a shared stem,
/// sort around `/` (0x2f) and `\0`, and the empty path.
const PATHS: &[&str] = &[
    "",
    "a",
    "a/",
    "a/b",
    "a/b/",
    "a/b/c",
    "a/bc",
    "a/b0",
    "a.",
    "a\0",
    "ab",
    "data",
    "data/",
    "data/a",
    "data/ab",
    "data/notes.txt",
    "data/notes.txt.bak",
    "data/sub/x",
    "data/sub/y/z",
    "z",
];

/// Containers to list: every path above, plus prefixes that hold no
/// resource of their own and one that matches nothing.
const CONTAINERS: &[&str] = &[
    "",
    "a/",
    "a/b",
    "data/",
    "data/sub/",
    "d",
    "nope/",
    "\u{7f}",
];

#[derive(Debug, Clone)]
enum Op {
    Put(usize, ResourceKind),
    Get(usize),
    Contains(usize),
    Delete(usize),
    List(usize),
}

fn path() -> impl Strategy<Value = usize> {
    0..PATHS.len()
}

fn kind() -> impl Strategy<Value = ResourceKind> {
    prop_oneof![
        3 => proptest::collection::vec(any::<u8>(), 0..40).prop_map(ResourceKind::Binary),
        2 => (0u8..8).prop_map(|n| ResourceKind::Text(format!("text {n}"))),
        1 => (0u8..4).prop_map(|n| {
            Body::Turtle(format!("<urn:s{n}> <urn:p> \"v{n}\" ."))
                .into_resource_kind()
                .expect("valid turtle")
        }),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (path(), kind()).prop_map(|(p, k)| Op::Put(p, k)),
        2 => path().prop_map(Op::Get),
        2 => path().prop_map(Op::Contains),
        3 => path().prop_map(Op::Delete),
        2 => (0..PATHS.len() + CONTAINERS.len()).prop_map(Op::List),
    ]
}

fn container(i: usize) -> &'static str {
    PATHS
        .get(i)
        .copied()
        .unwrap_or_else(|| CONTAINERS[i - PATHS.len()])
}

fn same(resource: &Resource, path: &str, model: &Model) -> Result<(), TestCaseError> {
    let (kind, version) = model.get(path).expect("caller checked");
    prop_assert_eq!(resource.path.as_str(), path);
    prop_assert_eq!(&resource.kind, kind);
    prop_assert_eq!(resource.version, *version);
    Ok(())
}

fn listed<'m>(model: &'m Model, container: &str) -> Vec<&'m str> {
    model
        .keys()
        .filter(|p| p.starts_with(container))
        .map(String::as_str)
        .collect()
}

/// Everything observable about `pod` agrees with `model`.
fn check(pod: &Pod, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(pod.len(), model.len());
    prop_assert_eq!(pod.is_empty(), model.is_empty());
    for path in PATHS {
        prop_assert_eq!(pod.contains(path), model.contains_key(*path));
        match pod.get(path) {
            Some(resource) => {
                prop_assert!(model.contains_key(*path));
                same(resource, path, model)?;
            }
            None => prop_assert!(!model.contains_key(*path)),
        }
    }
    prop_assert_eq!(pod.list(""), listed(model, ""));
    Ok(())
}

proptest! {
    #[test]
    fn pod_matches_the_model(ops in proptest::collection::vec(op(), 0..64)) {
        let mut pod = Pod::new("https://p.pod/");
        let mut model = Model::new();
        check(&pod, &model)?;
        for op in ops {
            match op {
                Op::Put(i, kind) => {
                    let path = PATHS[i];
                    let version = model.get(path).map_or(1, |(_, v)| v + 1);
                    model.insert(path.to_string(), (kind.clone(), version));
                    let stored = pod.put(path, kind);
                    same(stored, path, &model)?;
                }
                Op::Get(i) => {
                    let path = PATHS[i];
                    prop_assert_eq!(pod.get(path).is_some(), model.contains_key(path));
                    if let Some(resource) = pod.get(path) {
                        same(resource, path, &model)?;
                    }
                }
                Op::Contains(i) => {
                    prop_assert_eq!(pod.contains(PATHS[i]), model.contains_key(PATHS[i]));
                }
                Op::Delete(i) => {
                    let path = PATHS[i];
                    match (pod.delete(path), model.remove(path)) {
                        (Some(gone), Some((kind, version))) => {
                            prop_assert_eq!(gone.path.as_str(), path);
                            prop_assert_eq!(gone.kind, kind);
                            prop_assert_eq!(gone.version, version);
                        }
                        (None, None) => {}
                        (got, expected) => {
                            return Err(TestCaseError::fail(format!(
                                "delete {path:?}: pod {got:?}, model {expected:?}"
                            )));
                        }
                    }
                }
                Op::List(i) => {
                    let container = container(i);
                    prop_assert_eq!(pod.list(container), listed(&model, container));
                }
            }
            check(&pod, &model)?;
        }
    }
}
