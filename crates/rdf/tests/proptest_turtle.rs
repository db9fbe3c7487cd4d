//! Property test: any generated graph survives a serialize → parse roundtrip.

use duc_rdf::{turtle, Graph, Iri, Literal, Term, Triple};
use proptest::prelude::*;

fn arb_iri() -> impl Strategy<Value = Iri> {
    // Program-generated IRIs: scheme + safe path characters.
    "[a-z][a-z0-9]{0,8}".prop_map(|s| Iri::new(format!("urn:duc:{s}")).expect("safe iri"))
}

fn arb_literal() -> impl Strategy<Value = Literal> {
    prop_oneof![
        // Arbitrary printable strings, exercising the escaper.
        "[ -~]{0,24}".prop_map(Literal::string),
        any::<i64>().prop_map(Literal::integer),
        any::<bool>().prop_map(Literal::boolean),
        ("[ -~]{0,12}", "[a-z]{2}").prop_map(|(s, l)| Literal::lang_string(s, l)),
        "[\\PC]{0,16}".prop_map(Literal::string), // unicode without control chars
    ]
}

fn arb_subject() -> impl Strategy<Value = Term> {
    prop_oneof![
        arb_iri().prop_map(Term::Iri),
        "[a-z][a-z0-9]{0,6}".prop_map(Term::Blank),
    ]
}

fn arb_object() -> impl Strategy<Value = Term> {
    prop_oneof![
        arb_iri().prop_map(Term::Iri),
        "[a-z][a-z0-9]{0,6}".prop_map(Term::Blank),
        arb_literal().prop_map(Term::Literal),
    ]
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    proptest::collection::vec((arb_subject(), arb_iri(), arb_object()), 0..40).prop_map(|triples| {
        triples
            .into_iter()
            .map(|(s, p, o)| Triple::new(s, p, o))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn serialize_parse_roundtrip(graph in arb_graph()) {
        let text = turtle::serialize(&graph);
        let reparsed = turtle::parse(&text)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n---\n{text}"));
        prop_assert!(
            graph.is_isomorphic_simple(&reparsed),
            "roundtrip mismatch\n---\n{}", text
        );
    }

    /// The parser must never panic on arbitrary input.
    #[test]
    fn parser_never_panics(input in "[ -~\\n\\t]{0,300}") {
        let _ = turtle::parse(&input);
    }

    /// Insert keeps exact set semantics, and iteration is the order of
    /// first insertion.
    #[test]
    fn graph_set_semantics(keys in proptest::collection::vec(0usize..12, 1..60)) {
        let mut graph = Graph::new();
        let mut model: Vec<Triple> = Vec::new();
        for key in keys {
            let triple = Triple::new(
                Term::iri(&format!("urn:s{}", key % 3)),
                Iri::new(format!("urn:p{key}")).unwrap(),
                Term::literal_int(key as i64),
            );
            let new = !model.contains(&triple);
            if new {
                model.push(triple.clone());
            }
            prop_assert_eq!(graph.insert(triple), new);
        }
        prop_assert_eq!(graph.len(), model.len());
        prop_assert!(graph.iter().eq(model.iter()));
        prop_assert!(model.iter().all(|t| graph.contains(t)));
    }
}
