//! A human-readable policy syntax.
//!
//! Pod owners express usage restrictions in this DSL; pod managers parse it
//! and push the structured policy on-chain. Example:
//!
//! ```text
//! policy "pol-browsing" for "https://alice.pod/data/browsing.csv" owner "https://alice.id/me" {
//!     permit use, read where purpose in [web-analytics] and max-retention 30d;
//!     prohibit distribute;
//!     duty delete-within 30d;
//!     duty log-accesses;
//! }
//! ```
//!
//! A purpose is written bare when it is an identifier
//! (`[A-Za-z][A-Za-z0-9_-]*`) and as a string literal otherwise, so any
//! purpose reads back as written: `purpose in [medical, "dpv:Research"]`.
//!
//! Durations accept `ms`, `s`, `m`, `h`, `d` suffixes. Instants (for
//! `expires-at` / `window`) are seconds since the simulation epoch. A
//! literal longer than a `SimDuration` holds (about 584 years) is a syntax
//! error.

use duc_sim::{SimDuration, SimTime};

use crate::model::{Action, Constraint, Duty, Purpose, Rule, UsagePolicy};
use crate::PolicyError;

// -------------------------------------------------------------- tokenizer

/// Duration suffixes and their length in nanoseconds, largest first.
const UNITS: [(&str, u64); 5] = [
    ("d", 86_400_000_000_000),
    ("h", 3_600_000_000_000),
    ("m", 60_000_000_000),
    ("s", 1_000_000_000),
    ("ms", 1_000_000),
];

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Number(u64),
    Duration(SimDuration),
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Semi,
    DotDot,
}

fn tokenize(input: &str) -> Result<Vec<Tok>, PolicyError> {
    let mut toks = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            c if c.is_whitespace() => {
                chars.next();
            }
            '#' => {
                for c in chars.by_ref() {
                    if c == '\n' {
                        break;
                    }
                }
            }
            '{' => {
                chars.next();
                toks.push(Tok::LBrace);
            }
            '}' => {
                chars.next();
                toks.push(Tok::RBrace);
            }
            '[' => {
                chars.next();
                toks.push(Tok::LBracket);
            }
            ']' => {
                chars.next();
                toks.push(Tok::RBracket);
            }
            ',' => {
                chars.next();
                toks.push(Tok::Comma);
            }
            ';' => {
                chars.next();
                toks.push(Tok::Semi);
            }
            '.' => {
                chars.next();
                if chars.peek() == Some(&'.') {
                    chars.next();
                    toks.push(Tok::DotDot);
                } else {
                    return Err(PolicyError::Syntax {
                        message: "single '.' (expected '..')".into(),
                    });
                }
            }
            '"' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some('\\') => match chars.next() {
                            Some('"') => s.push('"'),
                            Some('\\') => s.push('\\'),
                            other => {
                                return Err(PolicyError::Syntax {
                                    message: format!("bad escape {other:?}"),
                                })
                            }
                        },
                        Some(c) => s.push(c),
                        None => {
                            return Err(PolicyError::Syntax {
                                message: "unterminated string".into(),
                            })
                        }
                    }
                }
                toks.push(Tok::Str(s));
            }
            c if c.is_ascii_digit() => {
                let mut num = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_digit() {
                        num.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                let value: u64 = num.parse().map_err(|_| PolicyError::Syntax {
                    message: format!("bad number {num}"),
                })?;
                // Optional unit suffix.
                let mut unit = String::new();
                while let Some(&u) = chars.peek() {
                    if u.is_ascii_alphabetic() {
                        unit.push(u);
                        chars.next();
                    } else {
                        break;
                    }
                }
                if unit.is_empty() {
                    toks.push(Tok::Number(value));
                    continue;
                }
                let Some(&(_, nanos)) = UNITS.iter().find(|(suffix, _)| *suffix == unit) else {
                    return Err(PolicyError::Syntax {
                        message: format!("unknown duration unit {unit:?}"),
                    });
                };
                let nanos = value
                    .checked_mul(nanos)
                    .ok_or_else(|| PolicyError::Syntax {
                        message: format!("duration {num}{unit} overflows"),
                    })?;
                toks.push(Tok::Duration(SimDuration::from_nanos(nanos)));
            }
            c if c.is_ascii_alphabetic() => {
                let mut ident = String::new();
                while let Some(&i) = chars.peek() {
                    if i.is_ascii_alphanumeric() || i == '-' || i == '_' {
                        ident.push(i);
                        chars.next();
                    } else {
                        break;
                    }
                }
                toks.push(Tok::Ident(ident));
            }
            other => {
                return Err(PolicyError::Syntax {
                    message: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    Ok(toks)
}

// ----------------------------------------------------------------- parser

struct P {
    toks: Vec<Tok>,
    pos: usize,
}

impl P {
    fn err(&self, message: impl Into<String>) -> PolicyError {
        PolicyError::Syntax {
            message: format!("{} (at token {})", message.into(), self.pos),
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_ident(&mut self, kw: &str) -> Result<(), PolicyError> {
        match self.next() {
            Some(Tok::Ident(id)) if id == kw => Ok(()),
            other => Err(self.err(format!("expected keyword {kw:?}, found {other:?}"))),
        }
    }

    fn expect_str(&mut self) -> Result<String, PolicyError> {
        match self.next() {
            Some(Tok::Str(s)) => Ok(s),
            other => Err(self.err(format!("expected string, found {other:?}"))),
        }
    }

    fn expect_duration(&mut self) -> Result<SimDuration, PolicyError> {
        match self.next() {
            Some(Tok::Duration(d)) => Ok(d),
            other => Err(self.err(format!("expected duration, found {other:?}"))),
        }
    }

    fn expect_number(&mut self) -> Result<u64, PolicyError> {
        match self.next() {
            Some(Tok::Number(n)) => Ok(n),
            other => Err(self.err(format!("expected number, found {other:?}"))),
        }
    }

    fn expect(&mut self, tok: Tok) -> Result<(), PolicyError> {
        match self.next() {
            Some(t) if t == tok => Ok(()),
            other => Err(self.err(format!("expected {tok:?}, found {other:?}"))),
        }
    }

    fn parse_actions(&mut self) -> Result<Vec<Action>, PolicyError> {
        let mut actions = Vec::new();
        loop {
            match self.next() {
                Some(Tok::Ident(id)) => {
                    let action = Action::from_keyword(&id)
                        .ok_or_else(|| self.err(format!("unknown action {id:?}")))?;
                    actions.push(action);
                }
                other => return Err(self.err(format!("expected action, found {other:?}"))),
            }
            if self.peek() == Some(&Tok::Comma) {
                self.next();
                continue;
            }
            break;
        }
        Ok(actions)
    }

    fn parse_constraint(&mut self) -> Result<Constraint, PolicyError> {
        let name = match self.next() {
            Some(Tok::Ident(id)) => id,
            other => return Err(self.err(format!("expected constraint, found {other:?}"))),
        };
        match name.as_str() {
            "purpose" => {
                self.expect_ident("in")?;
                self.expect(Tok::LBracket)?;
                let mut purposes = Vec::new();
                loop {
                    match self.next() {
                        Some(Tok::Ident(id) | Tok::Str(id)) => purposes.push(Purpose::new(id)),
                        Some(Tok::RBracket) if purposes.is_empty() => break,
                        other => return Err(self.err(format!("expected purpose, found {other:?}"))),
                    }
                    match self.next() {
                        Some(Tok::Comma) => continue,
                        Some(Tok::RBracket) => break,
                        other => return Err(self.err(format!("expected , or ], found {other:?}"))),
                    }
                }
                Ok(Constraint::Purpose(purposes))
            }
            "max-retention" => Ok(Constraint::MaxRetention(self.expect_duration()?)),
            "max-accesses" => Ok(Constraint::MaxAccessCount(self.expect_number()?)),
            "expires-at" => {
                let d = self.expect_duration()?;
                Ok(Constraint::ExpiresAt(SimTime::ZERO + d))
            }
            "recipients" => {
                self.expect(Tok::LBracket)?;
                let mut agents = Vec::new();
                loop {
                    match self.next() {
                        Some(Tok::Str(s)) => agents.push(s),
                        Some(Tok::RBracket) if agents.is_empty() => break,
                        other => return Err(self.err(format!("expected string, found {other:?}"))),
                    }
                    match self.next() {
                        Some(Tok::Comma) => continue,
                        Some(Tok::RBracket) => break,
                        other => return Err(self.err(format!("expected , or ], found {other:?}"))),
                    }
                }
                Ok(Constraint::AllowedRecipients(agents))
            }
            "window" => {
                let from = self.expect_duration()?;
                self.expect(Tok::DotDot)?;
                let to = self.expect_duration()?;
                Ok(Constraint::TimeWindow {
                    not_before: SimTime::ZERO + from,
                    not_after: SimTime::ZERO + to,
                })
            }
            other => Err(self.err(format!("unknown constraint {other:?}"))),
        }
    }

    fn parse_rule(&mut self, permit: bool) -> Result<Rule, PolicyError> {
        let actions = self.parse_actions()?;
        let mut rule = if permit {
            Rule::permit(actions)
        } else {
            Rule::prohibit(actions)
        };
        if self.peek() == Some(&Tok::Ident("where".into())) {
            self.next();
            loop {
                rule = rule.with_constraint(self.parse_constraint()?);
                if self.peek() == Some(&Tok::Ident("and".into())) {
                    self.next();
                    continue;
                }
                break;
            }
        }
        self.expect(Tok::Semi)?;
        Ok(rule)
    }

    fn parse_duty(&mut self) -> Result<Duty, PolicyError> {
        let name = match self.next() {
            Some(Tok::Ident(id)) => id,
            other => return Err(self.err(format!("expected duty, found {other:?}"))),
        };
        let duty = match name.as_str() {
            "delete-within" => Duty::DeleteWithin(self.expect_duration()?),
            "notify-within" => Duty::NotifyOwnerWithin(self.expect_duration()?),
            "log-accesses" => Duty::LogAccesses,
            other => return Err(self.err(format!("unknown duty {other:?}"))),
        };
        self.expect(Tok::Semi)?;
        Ok(duty)
    }
}

/// Parses one policy document.
///
/// # Errors
/// Returns [`PolicyError::Syntax`] describing the first problem found.
pub fn parse(input: &str) -> Result<UsagePolicy, PolicyError> {
    let mut p = P {
        toks: tokenize(input)?,
        pos: 0,
    };
    p.expect_ident("policy")?;
    let id = p.expect_str()?;
    p.expect_ident("for")?;
    let resource = p.expect_str()?;
    p.expect_ident("owner")?;
    let owner = p.expect_str()?;
    let mut builder = UsagePolicy::builder(id, resource, owner);
    if p.peek() == Some(&Tok::Ident("version".into())) {
        p.next();
        builder = builder.version(p.expect_number()?);
    }
    p.expect(Tok::LBrace)?;
    loop {
        match p.next() {
            Some(Tok::RBrace) => break,
            Some(Tok::Ident(kw)) => match kw.as_str() {
                "permit" => builder = builder.rule(p.parse_rule(true)?),
                "prohibit" => builder = builder.rule(p.parse_rule(false)?),
                "duty" => builder = builder.duty(p.parse_duty()?),
                other => return Err(p.err(format!("unexpected keyword {other:?}"))),
            },
            other => return Err(p.err(format!("unexpected token {other:?}"))),
        }
    }
    if p.peek().is_some() {
        return Err(p.err("trailing input after policy"));
    }
    Ok(builder.build())
}

// -------------------------------------------------------------- serializer

/// In the largest unit that divides it. The lexer reads nothing finer than
/// a millisecond, so a parsed duration always serializes exactly.
fn duration_to_dsl(d: SimDuration) -> String {
    let nanos = d.as_nanos();
    let (suffix, unit) = UNITS
        .iter()
        .find(|(_, unit)| nanos.is_multiple_of(*unit))
        .unwrap_or(&UNITS[UNITS.len() - 1]);
    format!("{}{suffix}", nanos / unit)
}

/// A DSL string literal: `"` and `\` escaped, as the lexer reads them.
fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        if c == '"' || c == '\\' {
            out.push('\\');
        }
        out.push(c);
    }
    out.push('"');
    out
}

/// A purpose as the lexer reads it back: bare when it lexes as one
/// identifier, [`quoted`] otherwise.
fn purpose_to_dsl(p: &Purpose) -> String {
    let mut chars = p.as_str().chars();
    let identifier = chars.next().is_some_and(|c| c.is_ascii_alphabetic())
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_');
    if identifier {
        p.as_str().to_string()
    } else {
        quoted(p.as_str())
    }
}

fn constraint_to_dsl(c: &Constraint) -> String {
    match c {
        Constraint::MaxRetention(d) => format!("max-retention {}", duration_to_dsl(*d)),
        Constraint::ExpiresAt(t) => format!("expires-at {}", duration_to_dsl(*t - SimTime::ZERO)),
        Constraint::Purpose(ps) => format!(
            "purpose in [{}]",
            ps.iter().map(purpose_to_dsl).collect::<Vec<_>>().join(", ")
        ),
        Constraint::MaxAccessCount(n) => format!("max-accesses {n}"),
        Constraint::AllowedRecipients(agents) => format!(
            "recipients [{}]",
            agents
                .iter()
                .map(|a| quoted(a))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        Constraint::TimeWindow {
            not_before,
            not_after,
        } => format!(
            "window {}..{}",
            duration_to_dsl(*not_before - SimTime::ZERO),
            duration_to_dsl(*not_after - SimTime::ZERO)
        ),
    }
}

/// Serializes a policy to the DSL (re-parses to an equal policy).
pub fn serialize(policy: &UsagePolicy) -> String {
    let mut out = format!(
        "policy {} for {} owner {} version {} {{\n",
        quoted(&policy.id),
        quoted(&policy.resource),
        quoted(&policy.owner),
        policy.version
    );
    for rule in &policy.rules {
        let kw = match rule.effect {
            crate::model::Effect::Permit => "permit",
            crate::model::Effect::Prohibit => "prohibit",
        };
        let actions = rule
            .actions
            .iter()
            .map(|a| a.keyword())
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!("    {kw} {actions}"));
        if !rule.constraints.is_empty() {
            let cs = rule
                .constraints
                .iter()
                .map(constraint_to_dsl)
                .collect::<Vec<_>>()
                .join(" and ");
            out.push_str(&format!(" where {cs}"));
        }
        out.push_str(";\n");
    }
    for duty in &policy.duties {
        let d = match duty {
            Duty::DeleteWithin(d) => format!("delete-within {}", duration_to_dsl(*d)),
            Duty::NotifyOwnerWithin(d) => format!("notify-within {}", duration_to_dsl(*d)),
            Duty::LogAccesses => "log-accesses".to_string(),
        };
        out.push_str(&format!("    duty {d};\n"));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Effect;

    const BOB_POLICY: &str = r#"
        # Bob's medical data: medical purposes only.
        policy "pol-medical" for "https://bob.pod/data/medical.ttl" owner "https://bob.id/me" {
            permit use, read where purpose in [medical] and max-retention 30d and max-accesses 100;
            prohibit distribute;
            duty delete-within 30d;
            duty log-accesses;
        }
    "#;

    #[test]
    fn parses_the_motivating_policy() {
        let p = parse(BOB_POLICY).expect("parse");
        assert_eq!(p.id, "pol-medical");
        assert_eq!(p.resource, "https://bob.pod/data/medical.ttl");
        assert_eq!(p.owner, "https://bob.id/me");
        assert_eq!(p.version, 1);
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.rules[0].effect, Effect::Permit);
        assert_eq!(p.rules[0].actions, vec![Action::Use, Action::Read]);
        assert_eq!(p.rules[0].constraints.len(), 3);
        assert_eq!(p.rules[1].effect, Effect::Prohibit);
        assert_eq!(p.duties.len(), 2);
        assert_eq!(p.retention_bound(), Some(SimDuration::from_days(30)));
    }

    #[test]
    fn parses_all_constraint_forms() {
        let p = parse(
            r#"policy "p" for "urn:r" owner "urn:o" version 3 {
                permit use where purpose in [a, b] and max-retention 90m
                    and max-accesses 5 and expires-at 1000s
                    and recipients ["urn:x", "urn:y"] and window 10s..20s;
                duty notify-within 250ms;
            }"#,
        )
        .expect("parse");
        assert_eq!(p.version, 3);
        assert_eq!(p.rules[0].constraints.len(), 6);
        assert!(matches!(
            p.duties[0],
            Duty::NotifyOwnerWithin(d) if d == SimDuration::from_millis(250)
        ));
    }

    #[test]
    fn duration_units() {
        for (text, expected) in [
            ("5ms", SimDuration::from_millis(5)),
            ("5s", SimDuration::from_secs(5)),
            ("5m", SimDuration::from_mins(5)),
            ("5h", SimDuration::from_hours(5)),
            ("5d", SimDuration::from_days(5)),
        ] {
            let src = format!(
                r#"policy "p" for "r" owner "o" {{ permit use where max-retention {text}; }}"#
            );
            let p = parse(&src).expect(text);
            assert_eq!(
                p.rules[0].constraints[0],
                Constraint::MaxRetention(expected)
            );
        }
    }

    #[test]
    fn rejects_malformed_policies() {
        for (src, what) in [
            ("", "empty"),
            (r#"policy "p" for "r" {}"#, "missing owner"),
            (
                r#"policy "p" for "r" owner "o" { permit fly; }"#,
                "unknown action",
            ),
            (
                r#"policy "p" for "r" owner "o" { permit use where max-retention 5w; }"#,
                "bad unit",
            ),
            (
                r#"policy "p" for "r" owner "o" { permit use }"#,
                "missing semicolon",
            ),
            (
                r#"policy "p" for "r" owner "o" { duty vanish; }"#,
                "unknown duty",
            ),
            (r#"policy "p" for "r" owner "o" {} trailing"#, "trailing"),
            (
                r#"policy "p" for "r" owner "o" { permit use where purpose in [; }"#,
                "bad list",
            ),
        ] {
            assert!(parse(src).is_err(), "should fail: {what}");
        }
    }

    #[test]
    fn error_messages_are_described() {
        let err = parse(r#"policy "p" for "r" owner "o" { permit fly; }"#).unwrap_err();
        assert!(err.to_string().contains("fly"), "{err}");
    }

    #[test]
    fn serialize_parse_roundtrip() {
        let original = parse(BOB_POLICY).unwrap();
        let text = serialize(&original);
        let reparsed = parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(reparsed, original, "\n{text}");
    }

    #[test]
    fn roundtrip_with_every_constraint() {
        let original = parse(
            r#"policy "p" for "urn:r" owner "urn:o" version 9 {
                permit read, modify where purpose in [medical, academic]
                    and max-retention 7d and max-accesses 3
                    and expires-at 12h and recipients ["urn:a"] and window 1s..2s;
                prohibit distribute, delete;
                duty delete-within 7d;
                duty notify-within 1h;
                duty log-accesses;
            }"#,
        )
        .unwrap();
        let reparsed = parse(&serialize(&original)).unwrap();
        assert_eq!(reparsed, original);
    }

    #[test]
    fn purposes_that_are_not_identifiers_are_quoted() {
        let purposes = [
            "medical",
            "dpv:Research",
            "a, b",
            "",
            "x]",
            r#"say "hi""#,
            r"back\slash",
            "two words",
            "9lives",
        ];
        let policy = UsagePolicy::builder("p", "urn:r", "urn:o")
            .permit(
                Rule::permit([Action::Use]).with_constraint(Constraint::Purpose(
                    purposes.into_iter().map(Purpose::new).collect(),
                )),
            )
            .build();
        let text = serialize(&policy);
        assert!(
            text.contains(
                r#"purpose in [medical, "dpv:Research", "a, b", "", "x]", "say \"hi\"", "back\\slash", "two words", "9lives"]"#
            ),
            "{text}"
        );
        assert_eq!(parse(&text), Ok(policy), "\n{text}");
    }

    #[test]
    fn comments_are_ignored() {
        let p = parse("# heading\npolicy \"p\" for \"r\" owner \"o\" { # inline\n permit use; }")
            .unwrap();
        assert_eq!(p.rules.len(), 1);
    }
}
