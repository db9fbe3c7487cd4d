//! A set-semantics RDF graph in insertion order.

use std::collections::HashSet;

use crate::term::{Iri, Term, Triple};

/// An RDF graph: a set of triples, iterated in insertion order of first
/// occurrence, which keeps serialized documents and therefore content hashes
/// stable. It holds pod bodies on their way to and from Turtle; a lookup
/// ([`Graph::object`]) scans it.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    triples: Vec<Triple>,
    present: HashSet<Triple>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Graph {
        Graph::default()
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Inserts a triple; returns `true` if it was not already present.
    pub fn insert(&mut self, triple: Triple) -> bool {
        if !self.present.insert(triple.clone()) {
            return false;
        }
        self.triples.push(triple);
        true
    }

    /// Whether the graph contains `triple`.
    pub fn contains(&self, triple: &Triple) -> bool {
        self.present.contains(triple)
    }

    /// Iterates the triples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Triple> {
        self.triples.iter()
    }

    /// The first object of `(subject, predicate, ?)` in insertion order, if
    /// any.
    pub fn object(&self, subject: &Iri, predicate: &Iri) -> Option<&Term> {
        self.iter()
            .find(|t| {
                &t.predicate == predicate && matches!(&t.subject, Term::Iri(s) if s == subject)
            })
            .map(|t| &t.object)
    }

    /// Whether both graphs contain exactly the same triple set
    /// (blank-node labels are compared literally, which suffices for the
    /// program-generated documents in this workspace).
    pub fn is_isomorphic_simple(&self, other: &Graph) -> bool {
        self.len() == other.len() && self.iter().all(|t| other.contains(t))
    }
}

impl PartialEq for Graph {
    /// Triple-set equality (insertion order is not part of a graph's
    /// identity).
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
    fn object_is_the_first_match_in_insertion_order() {
        let mut g = Graph::new();
        g.insert(t(
            "urn:alice",
            rdf::type_().as_str(),
            Term::iri("urn:Person"),
        ));
        g.insert(t(
            "urn:alice",
            rdf::type_().as_str(),
            Term::iri("urn:Agent"),
        ));
        g.insert(t("urn:bob", rdf::type_().as_str(), Term::iri("urn:Robot")));
        g.insert(Triple::new(
            Term::Blank("urn:carol".into()),
            rdf::type_(),
            Term::iri("urn:Person"),
        ));
        assert_eq!(
            g.object(&iri("urn:alice"), &rdf::type_()),
            Some(&Term::iri("urn:Person"))
        );
        assert_eq!(
            g.object(&iri("urn:bob"), &rdf::type_()),
            Some(&Term::iri("urn:Robot"))
        );
        assert_eq!(g.object(&iri("urn:alice"), &iri("urn:knows")), None);
        assert_eq!(
            g.object(&iri("urn:carol"), &rdf::type_()),
            None,
            "a blank node is not the IRI that spells its label"
        );
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
