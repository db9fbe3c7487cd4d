//! The pod: a path-addressed resource tree.

use crate::resource::{Resource, ResourceKind};

/// A Solid personal online datastore.
///
/// Paths are slash-separated and relative to the pod root; a "container" is
/// simply a path prefix ending in `/` (LDP-style containment without the
/// ceremony).
///
/// The resources sit in one `Vec` sorted by path and searched by binary
/// search: each resource already carries its path, so a map would hold a
/// second copy of every path, and a pod of one resource would pay for a
/// tree node of eleven. The `Vec` grows by an eighth of its length, at
/// least one slot, so a pod of a few resources holds no empty slot.
#[derive(Debug, Clone, Default)]
pub struct Pod {
    root: String,
    /// Sorted by `path`, no two alike.
    resources: Vec<Resource>,
}

impl Pod {
    /// Creates an empty pod rooted at `root` (e.g. `https://alice.pod/`).
    pub fn new(root: impl Into<String>) -> Pod {
        Pod {
            root: root.into(),
            resources: Vec::new(),
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

    /// Where `path` is, or would be inserted.
    fn find(&self, path: &str) -> Result<usize, usize> {
        self.resources
            .binary_search_by(|r| r.path.as_str().cmp(path))
    }

    /// Stores a resource (insert or replace); bumps the version on replace.
    pub fn put(&mut self, path: impl Into<String>, kind: ResourceKind) -> &Resource {
        let path = path.into();
        match self.find(&path) {
            Ok(i) => {
                let existing = &mut self.resources[i];
                existing.kind = kind;
                existing.version += 1;
                existing
            }
            Err(i) => {
                let rows = &mut self.resources;
                if rows.len() == rows.capacity() {
                    rows.reserve_exact((rows.len() / 8).max(1));
                }
                rows.insert(i, Resource::new(path, kind));
                &self.resources[i]
            }
        }
    }

    /// Reads a resource.
    pub fn get(&self, path: &str) -> Option<&Resource> {
        self.find(path).ok().map(|i| &self.resources[i])
    }

    /// Whether a resource exists.
    pub fn contains(&self, path: &str) -> bool {
        self.find(path).is_ok()
    }

    /// Deletes a resource; returns it if it existed.
    pub fn delete(&mut self, path: &str) -> Option<Resource> {
        self.find(path).ok().map(|i| self.resources.remove(i))
    }

    /// Lists resource paths under a container prefix, in order.
    pub fn list(&self, container: &str) -> Vec<&str> {
        let from = self
            .resources
            .partition_point(|r| r.path.as_str() < container);
        self.resources[from..]
            .iter()
            .take_while(|r| r.path.starts_with(container))
            .map(|r| r.path.as_str())
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

    #[test]
    fn resources_grow_by_an_eighth() {
        let mut pod = Pod::new("https://p/");
        let mut growths = 0;
        for k in 1..=2_000usize {
            let before = pod.resources.capacity();
            pod.put(format!("r{k:04}"), ResourceKind::Text("x".into()));
            growths += usize::from(pod.resources.capacity() != before);
            if k <= 40 {
                assert!(pod.resources.capacity() <= k + (k / 8).max(1), "{k}");
            }
        }
        assert!(growths <= 64, "{growths} reallocations over 2 000 rows");
    }
}
