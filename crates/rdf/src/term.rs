//! RDF terms: IRIs, literals, blank nodes and triples.

use std::fmt;

use crate::RdfError;

/// An IRI reference.
///
/// Validation is intentionally light (non-empty, no whitespace or angle
/// brackets): Solid identifiers in this workspace are program-generated, so
/// the check is a corruption guard rather than a full RFC 3987 validator.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Iri(String);

impl Iri {
    /// Creates a validated IRI.
    ///
    /// # Errors
    /// Returns [`RdfError::InvalidIri`] if `s` is empty or contains
    /// whitespace, `<`, `>` or `"`.
    pub fn new(s: impl Into<String>) -> Result<Iri, RdfError> {
        let s = s.into();
        if s.is_empty()
            || s.chars()
                .any(|c| c.is_whitespace() || matches!(c, '<' | '>' | '"'))
        {
            return Err(RdfError::InvalidIri(s));
        }
        Ok(Iri(s))
    }

    /// The IRI text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Concatenates a suffix (for namespace-style construction).
    ///
    /// # Errors
    /// Propagates [`RdfError::InvalidIri`] if the joined IRI is invalid.
    pub fn join(&self, suffix: &str) -> Result<Iri, RdfError> {
        Iri::new(format!("{}{}", self.0, suffix))
    }
}

impl fmt::Display for Iri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}>", self.0)
    }
}

impl AsRef<str> for Iri {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// An RDF literal: lexical form plus optional language tag or datatype.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Literal {
    /// The lexical form.
    pub lexical: String,
    /// Language tag (mutually exclusive with `datatype` in this model).
    pub language: Option<String>,
    /// Datatype IRI; `None` means `xsd:string`.
    pub datatype: Option<Iri>,
}

impl Literal {
    /// A plain string literal.
    pub fn string(s: impl Into<String>) -> Literal {
        Literal {
            lexical: s.into(),
            language: None,
            datatype: None,
        }
    }

    /// A language-tagged string.
    pub fn lang_string(s: impl Into<String>, lang: impl Into<String>) -> Literal {
        Literal {
            lexical: s.into(),
            language: Some(lang.into()),
            datatype: None,
        }
    }

    /// An `xsd:integer` literal.
    pub fn integer(v: i64) -> Literal {
        Literal {
            lexical: v.to_string(),
            language: None,
            datatype: Some(crate::vocab::xsd::integer()),
        }
    }

    /// An `xsd:boolean` literal.
    pub fn boolean(v: bool) -> Literal {
        Literal {
            lexical: v.to_string(),
            language: None,
            datatype: Some(crate::vocab::xsd::boolean()),
        }
    }

    /// An `xsd:dateTime` literal from a preformatted timestamp string.
    pub fn date_time(ts: impl Into<String>) -> Literal {
        Literal {
            lexical: ts.into(),
            language: None,
            datatype: Some(crate::vocab::xsd::date_time()),
        }
    }

    /// Parses the lexical form as an integer when the datatype permits.
    pub fn as_integer(&self) -> Option<i64> {
        self.lexical.parse().ok()
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"{}\"", escape_literal(&self.lexical))?;
        if let Some(lang) = &self.language {
            write!(f, "@{lang}")?;
        } else if let Some(dt) = &self.datatype {
            write!(f, "^^{dt}")?;
        }
        Ok(())
    }
}

/// Escapes a literal's lexical form for Turtle output.
pub(crate) fn escape_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    out
}

/// Any RDF term.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// An IRI reference.
    Iri(Iri),
    /// A labelled blank node.
    Blank(String),
    /// A literal.
    Literal(Literal),
}

impl Term {
    /// Shorthand for an IRI term.
    ///
    /// # Panics
    /// Panics if `iri` is invalid; use [`Iri::new`] + [`Term::Iri`] for
    /// fallible construction.
    pub fn iri(iri: &str) -> Term {
        Term::Iri(Iri::new(iri).expect("valid iri"))
    }

    /// Shorthand for a plain string literal term.
    pub fn literal_str(s: impl Into<String>) -> Term {
        Term::Literal(Literal::string(s))
    }

    /// Shorthand for an integer literal term.
    pub fn literal_int(v: i64) -> Term {
        Term::Literal(Literal::integer(v))
    }

    /// The IRI if this term is one.
    pub fn as_iri(&self) -> Option<&Iri> {
        match self {
            Term::Iri(iri) => Some(iri),
            _ => None,
        }
    }

    /// The literal if this term is one.
    pub fn as_literal(&self) -> Option<&Literal> {
        match self {
            Term::Literal(lit) => Some(lit),
            _ => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(iri) => iri.fmt(f),
            Term::Blank(label) => write!(f, "_:{label}"),
            Term::Literal(lit) => lit.fmt(f),
        }
    }
}

impl From<Iri> for Term {
    fn from(iri: Iri) -> Term {
        Term::Iri(iri)
    }
}

impl From<Literal> for Term {
    fn from(lit: Literal) -> Term {
        Term::Literal(lit)
    }
}

/// An RDF triple. Subjects are modelled as [`Term`] restricted by
/// convention to IRIs and blank nodes (literal subjects are rejected by
/// [`Triple::new`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    /// Subject (IRI or blank node).
    pub subject: Term,
    /// Predicate IRI.
    pub predicate: Iri,
    /// Object (any term).
    pub object: Term,
}

impl Triple {
    /// Creates a triple, rejecting literal subjects.
    ///
    /// # Panics
    /// Panics if `subject` is a literal — a structurally impossible RDF
    /// statement that would indicate a programming error.
    pub fn new(subject: impl Into<Term>, predicate: Iri, object: impl Into<Term>) -> Triple {
        let subject = subject.into();
        assert!(
            !matches!(subject, Term::Literal(_)),
            "literal subjects are not valid RDF"
        );
        Triple {
            subject,
            predicate,
            object: object.into(),
        }
    }
}

impl fmt::Display for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} .", self.subject, self.predicate, self.object)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iri_validation() {
        assert!(Iri::new("https://example.org/x").is_ok());
        assert!(Iri::new("").is_err());
        assert!(Iri::new("has space").is_err());
        assert!(Iri::new("has<angle").is_err());
        assert!(Iri::new("has\"quote").is_err());
    }

    #[test]
    fn iri_join_builds_namespaced_terms() {
        let ns = Iri::new("https://example.org/ns#").unwrap();
        assert_eq!(
            ns.join("thing").unwrap().as_str(),
            "https://example.org/ns#thing"
        );
        assert!(ns.join("bad term").is_err());
    }

    #[test]
    fn literal_constructors_and_accessors() {
        assert_eq!(Literal::integer(42).as_integer(), Some(42));
        assert_eq!(Literal::boolean(true).lexical, "true");
        let lang = Literal::lang_string("hello", "en");
        assert_eq!(lang.language.as_deref(), Some("en"));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Term::iri("urn:a").to_string(), "<urn:a>");
        assert_eq!(Term::Blank("b0".into()).to_string(), "_:b0");
        assert_eq!(Term::literal_str("hi").to_string(), "\"hi\"");
        assert_eq!(Literal::lang_string("hi", "en").to_string(), "\"hi\"@en");
        assert!(Literal::integer(5)
            .to_string()
            .contains("^^<http://www.w3.org/2001/XMLSchema#integer>"));
    }

    #[test]
    fn literal_escaping() {
        let lit = Literal::string("line1\nline2 \"quoted\" \\slash\ttab");
        let shown = lit.to_string();
        assert!(shown.contains("\\n"));
        assert!(shown.contains("\\\""));
        assert!(shown.contains("\\\\"));
        assert!(shown.contains("\\t"));
    }

    #[test]
    fn triple_display() {
        let t = Triple::new(
            Term::iri("urn:s"),
            Iri::new("urn:p").unwrap(),
            Term::literal_int(3),
        );
        assert!(t.to_string().starts_with("<urn:s> <urn:p> \"3\""));
        assert!(t.to_string().ends_with(" ."));
    }

    #[test]
    #[should_panic(expected = "literal subjects")]
    fn literal_subject_panics() {
        let _ = Triple::new(
            Term::literal_str("nope"),
            Iri::new("urn:p").unwrap(),
            Term::iri("urn:o"),
        );
    }
}
