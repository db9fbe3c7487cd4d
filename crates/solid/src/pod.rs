//! The pod: a path-addressed resource tree.

use std::collections::BTreeMap;

use crate::resource::{Resource, ResourceKind};

/// A Solid personal online datastore.
///
/// Paths are slash-separated and relative to the pod root; a "container" is
/// simply a path prefix ending in `/` (LDP-style containment without the
/// ceremony).
#[derive(Debug, Clone, Default)]
pub struct Pod {
    root: String,
    resources: BTreeMap<String, Resource>,
}

impl Pod {
    /// Creates an empty pod rooted at `root` (e.g. `https://alice.pod/`).
    pub fn new(root: impl Into<String>) -> Pod {
        Pod {
            root: root.into(),
            resources: BTreeMap::new(),
        }
    }

    /// The pod's root IRI.
    pub fn root(&self) -> &str {
        &self.root
    }

    /// The absolute IRI of a path in this pod.
    pub fn iri_of(&self, path: &str) -> String {
        format!("{}{}", self.root, path)
    }

    /// Stores a resource (insert or replace); bumps the version on replace.
    pub fn put(&mut self, path: impl Into<String>, kind: ResourceKind) -> &Resource {
        let path = path.into();
        match self.resources.get_mut(&path) {
            Some(existing) => {
                existing.kind = kind;
                existing.version += 1;
            }
            None => {
                self.resources
                    .insert(path.clone(), Resource::new(path.clone(), kind));
            }
        }
        self.resources.get(&path).expect("just inserted")
    }

    /// Reads a resource.
    pub fn get(&self, path: &str) -> Option<&Resource> {
        self.resources.get(path)
    }

    /// Whether a resource exists.
    pub fn contains(&self, path: &str) -> bool {
        self.resources.contains_key(path)
    }

    /// Deletes a resource; returns it if it existed.
    pub fn delete(&mut self, path: &str) -> Option<Resource> {
        self.resources.remove(path)
    }

    /// Lists resource paths under a container prefix, in order.
    pub fn list(&self, container: &str) -> Vec<&str> {
        self.resources
            .range(container.to_string()..)
            .take_while(|(path, _)| path.starts_with(container))
            .map(|(path, _)| path.as_str())
            .collect()
    }

    /// Number of resources.
    pub fn len(&self) -> usize {
        self.resources.len()
    }

    /// Whether the pod holds no resources.
    pub fn is_empty(&self) -> bool {
        self.resources.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete() {
        let mut pod = Pod::new("https://alice.pod/");
        pod.put("data/a.txt", ResourceKind::Text("one".into()));
        assert!(pod.contains("data/a.txt"));
        assert_eq!(pod.get("data/a.txt").unwrap().version, 1);
        pod.put("data/a.txt", ResourceKind::Text("two".into()));
        assert_eq!(
            pod.get("data/a.txt").unwrap().version,
            2,
            "replace bumps version"
        );
        let removed = pod.delete("data/a.txt").expect("existed");
        assert_eq!(removed.version, 2);
        assert!(pod.get("data/a.txt").is_none());
        assert!(pod.delete("data/a.txt").is_none());
    }

    #[test]
    fn iri_of_joins_root() {
        let pod = Pod::new("https://alice.pod/");
        assert_eq!(pod.iri_of("data/x"), "https://alice.pod/data/x");
        assert_eq!(pod.root(), "https://alice.pod/");
    }

    #[test]
    fn container_listing() {
        let mut pod = Pod::new("https://p/");
        pod.put("data/a", ResourceKind::Text("1".into()));
        pod.put("data/b", ResourceKind::Text("2".into()));
        pod.put("data/sub/c", ResourceKind::Text("3".into()));
        pod.put("other/d", ResourceKind::Text("4".into()));
        assert_eq!(pod.list("data/"), vec!["data/a", "data/b", "data/sub/c"]);
        assert_eq!(pod.list("data/sub/"), vec!["data/sub/c"]);
        assert_eq!(
            pod.list(""),
            vec!["data/a", "data/b", "data/sub/c", "other/d"]
        );
        assert!(pod.list("nope/").is_empty());
    }

    #[test]
    fn size_accounting() {
        let mut pod = Pod::new("https://p/");
        assert!(pod.is_empty());
        pod.put("a", ResourceKind::Binary(vec![0; 10]));
        pod.put("b", ResourceKind::Text("xyz".into()));
        assert_eq!(pod.len(), 2);
    }
}
