//! An indexed, set-semantics RDF graph.

use std::collections::{BTreeSet, HashMap, HashSet};

use crate::term::{Iri, Term, Triple};

/// An RDF graph: a set of triples with subject and predicate indexes for the
/// lookups Solid documents need (ACL checks, policy extraction).
///
/// Iteration order is deterministic (insertion order of first occurrence),
/// which keeps serialized documents and therefore content hashes stable.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    triples: Vec<Triple>,
    present: HashSet<Triple>,
    by_subject: HashMap<Term, Vec<usize>>,
    by_predicate: HashMap<Iri, Vec<usize>>,
    tombstones: BTreeSet<usize>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Graph {
        Graph::default()
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.present.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.present.is_empty()
    }

    /// Inserts a triple; returns `true` if it was not already present.
    pub fn insert(&mut self, triple: Triple) -> bool {
        if self.present.contains(&triple) {
            return false;
        }
        let idx = self.triples.len();
        self.by_subject
            .entry(triple.subject.clone())
            .or_default()
            .push(idx);
        self.by_predicate
            .entry(triple.predicate.clone())
            .or_default()
            .push(idx);
        self.present.insert(triple.clone());
        self.triples.push(triple);
        true
    }

    /// Removes a triple; returns `true` if it was present.
    pub fn remove(&mut self, triple: &Triple) -> bool {
        if !self.present.remove(triple) {
            return false;
        }
        if let Some(idx) = self.triples.iter().position(|t| t == triple) {
            self.tombstones.insert(idx);
        }
        true
    }

    /// Whether the graph contains `triple`.
    pub fn contains(&self, triple: &Triple) -> bool {
        self.present.contains(triple)
    }

    /// Iterates live triples in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = &Triple> {
        self.triples
            .iter()
            .enumerate()
            .filter(move |(i, t)| !self.tombstones.contains(i) && self.present.contains(*t))
            .map(|(_, t)| t)
    }

    /// Pattern match with optional components (`None` = wildcard).
    pub fn matching<'a>(
        &'a self,
        subject: Option<&'a Term>,
        predicate: Option<&'a Iri>,
        object: Option<&'a Term>,
    ) -> impl Iterator<Item = &'a Triple> {
        self.iter().filter(move |t| {
            subject.is_none_or(|s| &t.subject == s)
                && predicate.is_none_or(|p| &t.predicate == p)
                && object.is_none_or(|o| &t.object == o)
        })
    }

    /// Objects of `(subject, predicate, ?)` statements.
    ///
    /// The returned iterator borrows only the graph, so callers may pass
    /// temporary subject/predicate references.
    pub fn objects<'a>(&'a self, subject: &Iri, predicate: &Iri) -> impl Iterator<Item = &'a Term> {
        let subject_term = Term::Iri(subject.clone());
        let predicate = predicate.clone();
        self.by_subject
            .get(&subject_term)
            .into_iter()
            .flatten()
            .filter(move |&&i| !self.tombstones.contains(&i))
            .map(move |&i| &self.triples[i])
            .filter(move |t| self.present.contains(*t) && t.predicate == predicate)
            .map(|t| &t.object)
    }

    /// The first object of `(subject, predicate, ?)`, if any.
    pub fn object(&self, subject: &Iri, predicate: &Iri) -> Option<&Term> {
        self.objects(subject, predicate).next()
    }

    /// Subjects of `(?, predicate, object)` statements.
    ///
    /// The returned iterator borrows only the graph, so callers may pass
    /// temporary predicate/object references.
    pub fn subjects<'a>(
        &'a self,
        predicate: &Iri,
        object: &Term,
    ) -> impl Iterator<Item = &'a Term> {
        let predicate = predicate.clone();
        let object = object.clone();
        self.by_predicate
            .get(&predicate)
            .into_iter()
            .flatten()
            .filter(move |&&i| !self.tombstones.contains(&i))
            .map(move |&i| &self.triples[i])
            .filter(move |t| self.present.contains(*t) && t.object == object)
            .map(|t| &t.subject)
    }

    /// Merges all triples of `other` into `self`; returns how many were new.
    pub fn merge(&mut self, other: &Graph) -> usize {
        other.iter().filter(|t| self.insert((*t).clone())).count()
    }

    /// Whether both graphs contain exactly the same triple set
    /// (blank-node labels are compared literally, which suffices for the
    /// program-generated documents in this workspace).
    pub fn is_isomorphic_simple(&self, other: &Graph) -> bool {
        self.len() == other.len() && self.iter().all(|t| other.contains(t))
    }
}

impl PartialEq for Graph {
    /// Triple-set equality (insertion order and tombstones are internal
    /// bookkeeping, not part of a graph's identity).
    fn eq(&self, other: &Self) -> bool {
        self.is_isomorphic_simple(other)
    }
}

impl Eq for Graph {}

impl FromIterator<Triple> for Graph {
    fn from_iter<I: IntoIterator<Item = Triple>>(iter: I) -> Graph {
        let mut g = Graph::new();
        for t in iter {
            g.insert(t);
        }
        g
    }
}

impl Extend<Triple> for Graph {
    fn extend<I: IntoIterator<Item = Triple>>(&mut self, iter: I) {
        for t in iter {
            self.insert(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::rdf;

    fn iri(s: &str) -> Iri {
        Iri::new(s).unwrap()
    }

    fn t(s: &str, p: &str, o: Term) -> Triple {
        Triple::new(Term::iri(s), iri(p), o)
    }

    #[test]
    fn insert_dedupes() {
        let mut g = Graph::new();
        assert!(g.insert(t("urn:s", "urn:p", Term::literal_int(1))));
        assert!(!g.insert(t("urn:s", "urn:p", Term::literal_int(1))));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn remove_and_contains() {
        let mut g = Graph::new();
        let triple = t("urn:s", "urn:p", Term::iri("urn:o"));
        g.insert(triple.clone());
        assert!(g.contains(&triple));
        assert!(g.remove(&triple));
        assert!(!g.contains(&triple));
        assert!(!g.remove(&triple), "double remove is false");
        assert_eq!(g.len(), 0);
        assert_eq!(g.iter().count(), 0);
    }

    #[test]
    fn reinsert_after_remove() {
        let mut g = Graph::new();
        let triple = t("urn:s", "urn:p", Term::literal_str("x"));
        g.insert(triple.clone());
        g.remove(&triple);
        assert!(g.insert(triple.clone()));
        assert!(g.contains(&triple));
        assert_eq!(g.iter().count(), 1);
    }

    #[test]
    fn subject_and_predicate_indexes() {
        let mut g = Graph::new();
        g.insert(t("urn:a", "urn:p1", Term::literal_int(1)));
        g.insert(t("urn:a", "urn:p2", Term::literal_int(2)));
        g.insert(t("urn:b", "urn:p1", Term::literal_int(3)));
        let p1 = iri("urn:p1");
        assert_eq!(g.objects(&iri("urn:a"), &p1).count(), 1);
        assert_eq!(g.subjects(&p1, &Term::literal_int(3)).count(), 1);
    }

    #[test]
    fn pattern_matching_with_wildcards() {
        let mut g = Graph::new();
        g.insert(t("urn:a", "urn:p", Term::iri("urn:x")));
        g.insert(t("urn:b", "urn:p", Term::iri("urn:x")));
        g.insert(t("urn:a", "urn:q", Term::iri("urn:y")));
        let p = iri("urn:p");
        let x = Term::iri("urn:x");
        assert_eq!(g.matching(None, Some(&p), None).count(), 2);
        assert_eq!(g.matching(None, None, Some(&x)).count(), 2);
        let a = Term::iri("urn:a");
        assert_eq!(g.matching(Some(&a), None, None).count(), 2);
        assert_eq!(g.matching(None, None, None).count(), 3);
        assert_eq!(g.matching(Some(&a), Some(&p), Some(&x)).count(), 1);
    }

    #[test]
    fn object_and_subjects_lookups() {
        let mut g = Graph::new();
        g.insert(t(
            "urn:alice",
            rdf::type_().as_str(),
            Term::iri("urn:Person"),
        ));
        g.insert(t("urn:bob", rdf::type_().as_str(), Term::iri("urn:Person")));
        let alice = iri("urn:alice");
        assert_eq!(
            g.object(&alice, &rdf::type_()),
            Some(&Term::iri("urn:Person"))
        );
        let person = Term::iri("urn:Person");
        let subjects: Vec<_> = g.subjects(&rdf::type_(), &person).collect();
        assert_eq!(subjects.len(), 2);
        let missing = iri("urn:carol");
        assert_eq!(g.object(&missing, &rdf::type_()), None);
    }

    #[test]
    fn merge_counts_new_triples() {
        let mut g1 = Graph::new();
        g1.insert(t("urn:s", "urn:p", Term::literal_int(1)));
        let mut g2 = Graph::new();
        g2.insert(t("urn:s", "urn:p", Term::literal_int(1)));
        g2.insert(t("urn:s", "urn:p", Term::literal_int(2)));
        assert_eq!(g1.merge(&g2), 1);
        assert_eq!(g1.len(), 2);
    }

    #[test]
    fn simple_isomorphism() {
        let triples = vec![
            t("urn:s", "urn:p", Term::literal_int(1)),
            t("urn:s", "urn:q", Term::literal_int(2)),
        ];
        let g1: Graph = triples.clone().into_iter().collect();
        let g2: Graph = triples.into_iter().rev().collect();
        assert!(g1.is_isomorphic_simple(&g2));
        let mut g3 = g2.clone();
        g3.insert(t("urn:s", "urn:r", Term::literal_int(3)));
        assert!(!g1.is_isomorphic_simple(&g3));
    }

    #[test]
    fn iteration_order_is_insertion_order() {
        let mut g = Graph::new();
        for i in 0..5 {
            g.insert(t("urn:s", "urn:p", Term::literal_int(i)));
        }
        let order: Vec<i64> = g
            .iter()
            .map(|t| t.object.as_literal().unwrap().as_integer().unwrap())
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }
}
