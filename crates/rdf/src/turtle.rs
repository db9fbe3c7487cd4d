//! Turtle-subset parser and serializer.
//!
//! The grammar subset (see crate docs) covers everything the Solid pods,
//! ACL documents and usage policies in this workspace produce. The
//! serializer output always re-parses to an equal graph (checked by
//! property tests).

use std::collections::HashMap;

use crate::graph::Graph;
use crate::term::{escape_literal, Iri, Literal, Term, Triple};
use crate::vocab;
use crate::RdfError;

// ---------------------------------------------------------------- tokenizer

#[derive(Debug, Clone, PartialEq)]
enum Token {
    IriRef(String),
    PName(String, String),
    Blank(String),
    StringLit(String),
    LangTag(String),
    CaretCaret,
    A,
    Dot,
    Semicolon,
    Comma,
    PrefixDirective,
    Integer(String),
    Decimal(String),
    Boolean(bool),
}

struct Lexer<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn new(input: &'a str) -> Self {
        Lexer {
            chars: input.chars().peekable(),
            line: 1,
        }
    }

    fn error(&self, message: impl Into<String>) -> RdfError {
        RdfError::Parse {
            line: self.line,
            message: message.into(),
        }
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next();
        if c == Some('\n') {
            self.line += 1;
        }
        c
    }

    fn skip_ws_and_comments(&mut self) {
        loop {
            match self.chars.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('#') => {
                    while let Some(c) = self.bump() {
                        if c == '\n' {
                            break;
                        }
                    }
                }
                _ => break,
            }
        }
    }

    fn lex_iri(&mut self) -> Result<Token, RdfError> {
        self.bump(); // consume '<'
        let mut iri = String::new();
        loop {
            match self.bump() {
                Some('>') => return Ok(Token::IriRef(iri)),
                Some(c) if c.is_whitespace() => return Err(self.error("whitespace inside IRI")),
                Some(c) => iri.push(c),
                None => return Err(self.error("unterminated IRI reference")),
            }
        }
    }

    fn lex_string(&mut self) -> Result<Token, RdfError> {
        self.bump(); // consume opening quote
        let mut s = String::new();
        loop {
            match self.bump() {
                Some('"') => return Ok(Token::StringLit(s)),
                Some('\\') => match self.bump() {
                    Some('"') => s.push('"'),
                    Some('\\') => s.push('\\'),
                    Some('n') => s.push('\n'),
                    Some('r') => s.push('\r'),
                    Some('t') => s.push('\t'),
                    Some(other) => return Err(self.error(format!("bad escape \\{other}"))),
                    None => return Err(self.error("unterminated escape")),
                },
                Some(c) => s.push(c),
                None => return Err(self.error("unterminated string literal")),
            }
        }
    }

    fn lex_word(&mut self) -> String {
        let mut w = String::new();
        while let Some(&c) = self.chars.peek() {
            if c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':' | '%' | '#' | '/' | '+') {
                // A trailing '.' is the statement terminator, not part of the
                // word — only absorb '.' when followed by a word character.
                if c == '.' {
                    let mut lookahead = self.chars.clone();
                    lookahead.next();
                    match lookahead.peek() {
                        Some(&n) if n.is_alphanumeric() || n == '_' => {}
                        _ => break,
                    }
                }
                w.push(c);
                self.bump();
            } else {
                break;
            }
        }
        w
    }

    fn next_token(&mut self) -> Result<Option<Token>, RdfError> {
        self.skip_ws_and_comments();
        let &c = match self.chars.peek() {
            Some(c) => c,
            None => return Ok(None),
        };
        let tok = match c {
            '<' => self.lex_iri()?,
            '"' => self.lex_string()?,
            '.' => {
                self.bump();
                Token::Dot
            }
            ';' => {
                self.bump();
                Token::Semicolon
            }
            ',' => {
                self.bump();
                Token::Comma
            }
            '@' => {
                self.bump();
                let word = self.lex_word();
                if word == "prefix" {
                    Token::PrefixDirective
                } else {
                    Token::LangTag(word)
                }
            }
            '^' => {
                self.bump();
                if self.chars.peek() == Some(&'^') {
                    self.bump();
                    Token::CaretCaret
                } else {
                    return Err(self.error("expected ^^"));
                }
            }
            '_' => {
                self.bump();
                if self.chars.peek() == Some(&':') {
                    self.bump();
                    Token::Blank(self.lex_word())
                } else {
                    return Err(self.error("expected _: blank node label"));
                }
            }
            c if c.is_ascii_digit() || c == '-' || c == '+' => {
                let w = self.lex_word();
                if w.contains('.') {
                    Token::Decimal(w)
                } else {
                    Token::Integer(w)
                }
            }
            _ => {
                let w = self.lex_word();
                match w.as_str() {
                    "" => return Err(self.error(format!("unexpected character {c:?}"))),
                    "a" => Token::A,
                    "true" => Token::Boolean(true),
                    "false" => Token::Boolean(false),
                    _ => match w.split_once(':') {
                        Some((prefix, local)) => {
                            Token::PName(prefix.to_string(), local.to_string())
                        }
                        None => return Err(self.error(format!("bare word {w:?}"))),
                    },
                }
            }
        };
        Ok(Some(tok))
    }
}

// ------------------------------------------------------------------ parser

struct Parser {
    tokens: Vec<(Token, usize)>,
    pos: usize,
    prefixes: HashMap<String, String>,
}

impl Parser {
    fn error_at(&self, message: impl Into<String>) -> RdfError {
        let line = self
            .tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|(_, l)| *l)
            .unwrap_or(1);
        RdfError::Parse {
            line,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_dot(&mut self) -> Result<(), RdfError> {
        match self.next() {
            Some(Token::Dot) => Ok(()),
            other => Err(self.error_at(format!("expected '.', found {other:?}"))),
        }
    }

    fn resolve_pname(&self, prefix: &str, local: &str) -> Result<Iri, RdfError> {
        let ns = self
            .prefixes
            .get(prefix)
            .ok_or_else(|| RdfError::UnknownPrefix(prefix.to_string()))?;
        Iri::new(format!("{ns}{local}"))
    }

    fn parse_iri_like(&mut self) -> Result<Iri, RdfError> {
        match self.next() {
            Some(Token::IriRef(s)) => Iri::new(s),
            Some(Token::PName(p, l)) => self.resolve_pname(&p, &l),
            other => Err(self.error_at(format!("expected IRI, found {other:?}"))),
        }
    }

    fn parse_subject(&mut self) -> Result<Term, RdfError> {
        match self.peek() {
            Some(Token::Blank(_)) => {
                if let Some(Token::Blank(label)) = self.next() {
                    Ok(Term::Blank(label))
                } else {
                    unreachable!("peeked blank")
                }
            }
            _ => Ok(Term::Iri(self.parse_iri_like()?)),
        }
    }

    fn parse_predicate(&mut self) -> Result<Iri, RdfError> {
        if matches!(self.peek(), Some(Token::A)) {
            self.next();
            return Ok(vocab::rdf::type_());
        }
        self.parse_iri_like()
    }

    fn parse_object(&mut self) -> Result<Term, RdfError> {
        match self.next() {
            Some(Token::IriRef(s)) => Ok(Term::Iri(Iri::new(s)?)),
            Some(Token::PName(p, l)) => Ok(Term::Iri(self.resolve_pname(&p, &l)?)),
            Some(Token::Blank(label)) => Ok(Term::Blank(label)),
            Some(Token::Boolean(b)) => Ok(Term::Literal(Literal::boolean(b))),
            Some(Token::Integer(s)) => Ok(Term::Literal(Literal {
                lexical: s,
                language: None,
                datatype: Some(vocab::xsd::integer()),
            })),
            Some(Token::Decimal(s)) => Ok(Term::Literal(Literal {
                lexical: s,
                language: None,
                datatype: Some(vocab::xsd::decimal()),
            })),
            Some(Token::StringLit(s)) => {
                // Optional @lang or ^^datatype suffix.
                match self.peek() {
                    Some(Token::LangTag(_)) => {
                        if let Some(Token::LangTag(lang)) = self.next() {
                            Ok(Term::Literal(Literal::lang_string(s, lang)))
                        } else {
                            unreachable!("peeked lang tag")
                        }
                    }
                    Some(Token::CaretCaret) => {
                        self.next();
                        let dt = self.parse_iri_like()?;
                        Ok(Term::Literal(Literal {
                            lexical: s,
                            language: None,
                            datatype: Some(dt),
                        }))
                    }
                    _ => Ok(Term::Literal(Literal::string(s))),
                }
            }
            other => Err(self.error_at(format!("expected object, found {other:?}"))),
        }
    }

    fn parse_statement(&mut self, graph: &mut Graph) -> Result<(), RdfError> {
        if matches!(self.peek(), Some(Token::PrefixDirective)) {
            self.next();
            let (prefix, ns) = match (self.next(), self.next()) {
                (Some(Token::PName(p, l)), Some(Token::IriRef(ns))) if l.is_empty() => (p, ns),
                other => return Err(self.error_at(format!("malformed @prefix: {other:?}"))),
            };
            self.expect_dot()?;
            self.prefixes.insert(prefix, ns);
            return Ok(());
        }
        let subject = self.parse_subject()?;
        loop {
            let predicate = self.parse_predicate()?;
            loop {
                let object = self.parse_object()?;
                graph.insert(Triple::new(subject.clone(), predicate.clone(), object));
                if matches!(self.peek(), Some(Token::Comma)) {
                    self.next();
                    continue;
                }
                break;
            }
            match self.next() {
                Some(Token::Semicolon) => {
                    // Trailing semicolon before '.' is permitted.
                    if matches!(self.peek(), Some(Token::Dot)) {
                        self.next();
                        return Ok(());
                    }
                    continue;
                }
                Some(Token::Dot) => return Ok(()),
                other => return Err(self.error_at(format!("expected ';' or '.', found {other:?}"))),
            }
        }
    }
}

/// Parses a Turtle document into a [`Graph`].
///
/// # Errors
/// Returns [`RdfError::Parse`] (with a line number) on syntax errors, or
/// [`RdfError::UnknownPrefix`] for undeclared prefixes.
pub fn parse(input: &str) -> Result<Graph, RdfError> {
    let mut lexer = Lexer::new(input);
    let mut tokens = Vec::new();
    while let Some(tok) = lexer.next_token()? {
        tokens.push((tok, lexer.line));
    }
    let mut parser = Parser {
        tokens,
        pos: 0,
        prefixes: HashMap::new(),
    };
    let mut graph = Graph::new();
    while parser.peek().is_some() {
        parser.parse_statement(&mut graph)?;
    }
    Ok(graph)
}

// --------------------------------------------------------------- serializer

/// The prefix table used by [`serialize`].
pub(crate) fn default_prefixes() -> Vec<(&'static str, &'static str)> {
    vec![
        ("rdf", vocab::rdf::NS),
        ("xsd", vocab::xsd::NS),
        ("foaf", vocab::foaf::NS),
        ("acl", vocab::acl::NS),
        ("odrl", vocab::odrl::NS),
        ("solid", vocab::solid::NS),
        ("duc", vocab::duc::NS),
    ]
}

fn compact(iri: &Iri, prefixes: &[(&str, &str)]) -> String {
    for (prefix, ns) in prefixes {
        if let Some(local) = iri.as_str().strip_prefix(ns) {
            // Only compact when the local part is a safe bare name.
            if !local.is_empty()
                && local
                    .chars()
                    .all(|c| c.is_alphanumeric() || matches!(c, '_' | '-'))
            {
                return format!("{prefix}:{local}");
            }
        }
    }
    format!("<{}>", iri.as_str())
}

fn term_to_turtle(term: &Term, prefixes: &[(&str, &str)]) -> String {
    match term {
        Term::Iri(iri) => compact(iri, prefixes),
        Term::Blank(label) => format!("_:{label}"),
        Term::Literal(lit) => {
            let mut out = format!("\"{}\"", escape_literal(&lit.lexical));
            if let Some(lang) = &lit.language {
                out.push('@');
                out.push_str(lang);
            } else if let Some(dt) = &lit.datatype {
                out.push_str("^^");
                out.push_str(&compact(dt, prefixes));
            }
            out
        }
    }
}

/// Serializes a graph to Turtle with the default prefixes (`rdf`, `xsd`, `odrl`, …).
pub fn serialize(graph: &Graph) -> String {
    serialize_with_prefixes(graph, &default_prefixes())
}

/// Serializes a graph to Turtle, compacting IRIs against `prefixes` and
/// grouping statements by subject.
pub(crate) fn serialize_with_prefixes(graph: &Graph, prefixes: &[(&str, &str)]) -> String {
    let mut out = String::new();
    // Emit only prefixes that are actually used.
    let mut used = vec![false; prefixes.len()];
    let mark = |iri: &Iri, used: &mut Vec<bool>| {
        for (i, (_, ns)) in prefixes.iter().enumerate() {
            if iri.as_str().starts_with(ns) {
                used[i] = true;
            }
        }
    };
    for t in graph.iter() {
        if let Term::Iri(iri) = &t.subject {
            mark(iri, &mut used);
        }
        mark(&t.predicate, &mut used);
        if let Term::Iri(iri) = &t.object {
            mark(iri, &mut used);
        }
        if let Term::Literal(lit) = &t.object {
            if let Some(dt) = &lit.datatype {
                mark(dt, &mut used);
            }
        }
    }
    for (i, (prefix, ns)) in prefixes.iter().enumerate() {
        if used[i] {
            out.push_str(&format!("@prefix {prefix}: <{ns}> .\n"));
        }
    }
    if !out.is_empty() {
        out.push('\n');
    }

    // Group triples by subject, preserving first-appearance order.
    let mut subject_order: Vec<&Term> = Vec::new();
    let mut by_subject: HashMap<&Term, Vec<&Triple>> = HashMap::new();
    for t in graph.iter() {
        if !by_subject.contains_key(&t.subject) {
            subject_order.push(&t.subject);
        }
        by_subject.entry(&t.subject).or_default().push(t);
    }
    for subject in subject_order {
        let triples = &by_subject[subject];
        let subject_str = term_to_turtle(subject, prefixes);
        out.push_str(&subject_str);
        for (i, t) in triples.iter().enumerate() {
            let pred = if t.predicate == vocab::rdf::type_() {
                "a".to_string()
            } else {
                compact(&t.predicate, prefixes)
            };
            let obj = term_to_turtle(&t.object, prefixes);
            if i == 0 {
                out.push_str(&format!(" {pred} {obj}"));
            } else {
                out.push_str(&format!(" ;\n    {pred} {obj}"));
            }
        }
        out.push_str(" .\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_triples() {
        let g = parse(r#"<urn:s> <urn:p> <urn:o> . <urn:s> <urn:p2> "lit" ."#).unwrap();
        assert_eq!(g.len(), 2);
        assert!(g.contains(&Triple::new(
            Term::iri("urn:s"),
            Iri::new("urn:p").unwrap(),
            Term::iri("urn:o")
        )));
    }

    #[test]
    fn parse_prefixes_and_a() {
        let g = parse(
            r#"
            @prefix foaf: <http://xmlns.com/foaf/0.1/> .
            <urn:alice> a foaf:Person ; foaf:name "Alice" .
            "#,
        )
        .unwrap();
        assert_eq!(g.len(), 2);
        assert!(g.contains(&Triple::new(
            Term::iri("urn:alice"),
            vocab::rdf::type_(),
            Term::iri("http://xmlns.com/foaf/0.1/Person"),
        )));
    }

    #[test]
    fn parse_object_lists_and_predicate_lists() {
        let g = parse(r#"<urn:s> <urn:p> <urn:a>, <urn:b> ; <urn:q> <urn:c> ."#).unwrap();
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn parse_literals_with_datatype_lang_and_numbers() {
        let g = parse(
            r#"
            @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
            <urn:s> <urn:str> "plain" ;
                <urn:lang> "bonjour"@fr ;
                <urn:typed> "7"^^xsd:integer ;
                <urn:num> 42 ;
                <urn:dec> 3.25 ;
                <urn:flag> true .
            "#,
        )
        .unwrap();
        assert_eq!(g.len(), 6);
        let s = Iri::new("urn:s").unwrap();
        let num = g.object(&s, &Iri::new("urn:num").unwrap()).unwrap();
        assert_eq!(num.as_literal().unwrap().as_integer(), Some(42));
        let flag = g.object(&s, &Iri::new("urn:flag").unwrap()).unwrap();
        assert_eq!(
            flag.as_literal().unwrap(),
            &crate::term::Literal::boolean(true)
        );
        let lang = g.object(&s, &Iri::new("urn:lang").unwrap()).unwrap();
        assert_eq!(lang.as_literal().unwrap().language.as_deref(), Some("fr"));
    }

    #[test]
    fn parse_blank_nodes() {
        let g = parse(r#"_:b0 <urn:p> _:b1 . _:b1 <urn:q> "x" ."#).unwrap();
        assert_eq!(g.len(), 2);
        assert!(g.contains(&Triple::new(
            Term::Blank("b0".into()),
            Iri::new("urn:p").unwrap(),
            Term::Blank("b1".into())
        )));
    }

    #[test]
    fn parse_comments_and_whitespace() {
        let g = parse("# leading comment\n<urn:s> <urn:p> <urn:o> . # trailing\n# done\n").unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn parse_string_escapes() {
        let g = parse(r#"<urn:s> <urn:p> "a\"b\\c\nd" ."#).unwrap();
        let s = Iri::new("urn:s").unwrap();
        let lit = g.object(&s, &Iri::new("urn:p").unwrap()).unwrap();
        assert_eq!(lit.as_literal().unwrap().lexical, "a\"b\\c\nd");
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse("<urn:s> <urn:p>\n<urn:o>\n;;;").unwrap_err();
        match err {
            RdfError::Parse { line, .. } => assert!(line >= 2, "line {line}"),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unknown_prefix_is_reported() {
        let err = parse("<urn:s> nope:p <urn:o> .").unwrap_err();
        assert_eq!(err, RdfError::UnknownPrefix("nope".into()));
    }

    #[test]
    fn unterminated_constructs_error() {
        assert!(parse("<urn:s <urn:p> <urn:o> .").is_err());
        assert!(parse(r#"<urn:s> <urn:p> "open ."#).is_err());
        assert!(parse("<urn:s> <urn:p> .").is_err(), "missing object");
    }

    #[test]
    fn serialize_then_parse_roundtrips() {
        let original = parse(
            r#"
            @prefix acl: <http://www.w3.org/ns/auth/acl#> .
            <urn:auth> a acl:Authorization ;
                acl:agent <urn:alice> ;
                acl:mode acl:Read, acl:Write .
            _:meta <urn:note> "with \"escapes\" and\nnewlines"@en ;
                <urn:count> 3 .
            "#,
        )
        .unwrap();
        let text = serialize(&original);
        let reparsed = parse(&text).unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        assert!(
            original.is_isomorphic_simple(&reparsed),
            "roundtrip mismatch:\n{text}"
        );
    }

    #[test]
    fn serializer_emits_only_used_prefixes() {
        let g = parse(r#"<urn:s> <urn:p> "v" ."#).unwrap();
        let text = serialize(&g);
        assert!(!text.contains("@prefix"), "no prefixes needed:\n{text}");
    }

    #[test]
    fn serializer_groups_by_subject() {
        let g = parse(r#"<urn:s> <urn:p> "1" . <urn:s> <urn:q> "2" ."#).unwrap();
        let text = serialize(&g);
        assert_eq!(text.matches("<urn:s>").count(), 1, "one group:\n{text}");
        assert!(text.contains(";"));
    }

    #[test]
    fn serializer_uses_a_for_rdf_type() {
        let mut g = Graph::new();
        g.insert(Triple::new(
            Term::iri("urn:x"),
            vocab::rdf::type_(),
            Term::iri("urn:T"),
        ));
        let text = serialize(&g);
        assert!(text.contains(" a "), "{text}");
    }

    #[test]
    fn dotted_local_names_parse() {
        // Local name containing a dot followed by '.' terminator.
        let g = parse("@prefix ex: <urn:ns/> .\nex:file.txt <urn:p> ex:v1.2 .").unwrap();
        assert_eq!(g.len(), 1);
        let t = g.iter().next().unwrap();
        assert_eq!(t.subject, Term::iri("urn:ns/file.txt"));
        assert_eq!(t.object, Term::iri("urn:ns/v1.2"));
    }

    #[test]
    fn negative_integers_parse() {
        let g = parse("<urn:s> <urn:p> -5 .").unwrap();
        let s = Iri::new("urn:s").unwrap();
        let lit = g.object(&s, &Iri::new("urn:p").unwrap()).unwrap();
        assert_eq!(lit.as_literal().unwrap().as_integer(), Some(-5));
    }
}
