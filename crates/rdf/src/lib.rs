//! # duc-rdf — RDF / Linked Data substrate
//!
//! Solid is built on Linked Data: pod resources, access-control lists and
//! usage policies are RDF documents. This crate provides the data model
//! ([`Term`], [`Triple`], [`Graph`]), a Turtle-subset parser and serializer
//! ([`turtle`]), and the vocabularies the architecture uses ([`vocab`]).
//!
//! The Turtle subset covers what Solid documents in this workspace need:
//! `@prefix` directives, prefixed names, IRI references, the `a` keyword,
//! string literals (with escapes, language tags and datatypes), integers,
//! decimals and booleans, object lists (`,`), predicate lists (`;`), labelled
//! blank nodes and comments.
//!
//! ## Example
//! ```
//! use duc_rdf::{turtle, Graph, Iri, Term, Triple};
//!
//! let doc = r#"
//!   @prefix foaf: <http://xmlns.com/foaf/0.1/> .
//!   <https://alice.pod/profile#me> a foaf:Person ;
//!       foaf:name "Alice" .
//! "#;
//! let graph = turtle::parse(doc)?;
//! assert_eq!(graph.len(), 2);
//! let name = graph
//!     .objects(&Iri::new("https://alice.pod/profile#me")?, &Iri::new("http://xmlns.com/foaf/0.1/name")?)
//!     .next()
//!     .unwrap();
//! assert_eq!(name, &Term::literal_str("Alice"));
//! # Ok::<(), duc_rdf::RdfError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod graph;
pub mod term;
pub mod turtle;
pub mod vocab;

pub use graph::Graph;
pub use term::{Iri, Literal, Term, Triple};

/// Errors produced by RDF parsing and term construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RdfError {
    /// An IRI contained forbidden characters or was empty.
    InvalidIri(String),
    /// Turtle syntax error with a line number and message.
    Parse {
        /// 1-based line of the error.
        line: usize,
        /// Explanation.
        message: String,
    },
    /// A prefixed name used an undeclared prefix.
    UnknownPrefix(String),
}

impl std::fmt::Display for RdfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RdfError::InvalidIri(iri) => write!(f, "invalid iri: {iri:?}"),
            RdfError::Parse { line, message } => {
                write!(f, "turtle parse error (line {line}): {message}")
            }
            RdfError::UnknownPrefix(p) => write!(f, "unknown prefix: {p}"),
        }
    }
}

impl std::error::Error for RdfError {}
