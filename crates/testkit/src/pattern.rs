//! Generator for the regex subset proptest-style string strategies use.
//!
//! Supported syntax — exactly what the workspace's suites need, with a
//! clear panic on anything else:
//!
//! * character classes `[a-z0-9-]` with ranges, literal chars, the escapes
//!   `\n` `\t` `\r` `\\` `\-` `\]`, and `\PC` (any non-control character,
//!   approximated by curated printable Unicode ranges);
//! * `.` (any printable character except newline);
//! * quantifiers `{m}`, `{m,n}`, `*`, `+`, `?` (unbounded repeats are
//!   capped by the runner's size hint);
//! * literal characters.

use crate::test_runner::TestRng;
use std::iter::Peekable;
use std::str::Chars;

/// Printable Unicode sampling pool: ASCII, accented Latin, Greek, CJK and
/// symbol/emoji blocks. Every code point is an assigned non-control
/// character, so the pool is a sound under-approximation of `\PC`.
const PRINTABLE_RANGES: &[(u32, u32)] = &[
    (0x0020, 0x007E),
    (0x00C0, 0x017F),
    (0x0391, 0x03C9),
    (0x4E00, 0x4FFF),
    (0x1F300, 0x1F5FF),
];

const UNBOUNDED: usize = usize::MAX;

struct CharClass {
    /// Inclusive code-point ranges.
    ranges: Vec<(u32, u32)>,
    /// Whether the curated printable-Unicode pool is part of the class.
    printable_unicode: bool,
}

enum Piece {
    Class(CharClass),
    /// `.` — any printable char except newline.
    AnyChar,
    Literal(char),
}

struct Element {
    piece: Piece,
    min: usize,
    /// Inclusive; [`UNBOUNDED`] for `*`/`+`.
    max: usize,
}

/// Generates one string matching `pattern`. Unbounded quantifiers emit at
/// most `min + size` repetitions.
pub(crate) fn generate(pattern: &str, rng: &mut TestRng, size: usize) -> String {
    let elements = parse(pattern);
    let mut out = String::new();
    for element in &elements {
        let max = if element.max == UNBOUNDED {
            element.min + size
        } else {
            element.max
        };
        let count = rng.gen_range_inclusive(element.min as u64, max as u64) as usize;
        for _ in 0..count {
            out.push(match &element.piece {
                Piece::Class(class) => sample_class(class, rng),
                Piece::AnyChar => sample_ranges(PRINTABLE_RANGES, rng),
                Piece::Literal(c) => *c,
            });
        }
    }
    out
}

fn parse(pattern: &str) -> Vec<Element> {
    let mut it = pattern.chars().peekable();
    let mut elements = Vec::new();
    while let Some(c) = it.next() {
        let piece = match c {
            '[' => Piece::Class(parse_class(pattern, &mut it)),
            '.' => Piece::AnyChar,
            '\\' => match parse_escape(pattern, &mut it) {
                Escape::Char(ch) => Piece::Literal(ch),
                Escape::PrintableUnicode => Piece::Class(CharClass {
                    ranges: Vec::new(),
                    printable_unicode: true,
                }),
            },
            '(' | ')' | '|' | '^' | '$' => {
                panic!("pattern strategy {pattern:?}: unsupported regex construct {c:?}")
            }
            other => Piece::Literal(other),
        };
        let (min, max) = parse_quantifier(pattern, &mut it);
        elements.push(Element { piece, min, max });
    }
    elements
}

enum Escape {
    Char(char),
    PrintableUnicode,
}

fn parse_escape(pattern: &str, it: &mut Peekable<Chars>) -> Escape {
    match it.next() {
        Some('n') => Escape::Char('\n'),
        Some('t') => Escape::Char('\t'),
        Some('r') => Escape::Char('\r'),
        Some('P') => match it.next() {
            Some('C') => Escape::PrintableUnicode,
            other => panic!("pattern strategy {pattern:?}: unsupported class \\P{other:?}"),
        },
        Some(c @ ('\\' | '-' | ']' | '[' | '.' | '{' | '}' | '*' | '+' | '?' | '(' | ')')) => {
            Escape::Char(c)
        }
        other => panic!("pattern strategy {pattern:?}: unsupported escape \\{other:?}"),
    }
}

fn parse_class(pattern: &str, it: &mut Peekable<Chars>) -> CharClass {
    let mut class = CharClass {
        ranges: Vec::new(),
        printable_unicode: false,
    };
    loop {
        let c = match it.next() {
            Some(']') => break,
            Some(c) => c,
            None => panic!("pattern strategy {pattern:?}: unterminated character class"),
        };
        let lo = if c == '\\' {
            match parse_escape(pattern, it) {
                Escape::Char(ch) => ch,
                Escape::PrintableUnicode => {
                    class.printable_unicode = true;
                    continue;
                }
            }
        } else {
            c
        };
        if it.peek() == Some(&'-') {
            it.next();
            if it.peek() == Some(&']') {
                // Trailing '-' is a literal, e.g. `[a-z0-9-]`.
                class.ranges.push((lo as u32, lo as u32));
                class.ranges.push(('-' as u32, '-' as u32));
                continue;
            }
            let hi = match it.next() {
                Some('\\') => match parse_escape(pattern, it) {
                    Escape::Char(ch) => ch,
                    Escape::PrintableUnicode => {
                        panic!("pattern strategy {pattern:?}: \\PC cannot end a range")
                    }
                },
                Some(ch) => ch,
                None => panic!("pattern strategy {pattern:?}: unterminated range"),
            };
            assert!(
                lo <= hi,
                "pattern strategy {pattern:?}: inverted range {lo:?}-{hi:?}"
            );
            class.ranges.push((lo as u32, hi as u32));
        } else {
            class.ranges.push((lo as u32, lo as u32));
        }
    }
    assert!(
        !class.ranges.is_empty() || class.printable_unicode,
        "pattern strategy {pattern:?}: empty character class"
    );
    class
}

fn parse_quantifier(pattern: &str, it: &mut Peekable<Chars>) -> (usize, usize) {
    match it.peek() {
        Some('*') => {
            it.next();
            (0, UNBOUNDED)
        }
        Some('+') => {
            it.next();
            (1, UNBOUNDED)
        }
        Some('?') => {
            it.next();
            (0, 1)
        }
        Some('{') => {
            it.next();
            let min = parse_number(pattern, it);
            match it.next() {
                Some('}') => (min, min),
                Some(',') => {
                    let max = parse_number(pattern, it);
                    assert_eq!(
                        it.next(),
                        Some('}'),
                        "pattern strategy {pattern:?}: bad {{m,n}}"
                    );
                    assert!(
                        min <= max,
                        "pattern strategy {pattern:?}: {{m,n}} with m > n"
                    );
                    (min, max)
                }
                _ => panic!("pattern strategy {pattern:?}: bad quantifier"),
            }
        }
        _ => (1, 1),
    }
}

fn parse_number(pattern: &str, it: &mut Peekable<Chars>) -> usize {
    let mut digits = String::new();
    while let Some(c) = it.peek() {
        if c.is_ascii_digit() {
            digits.push(*c);
            it.next();
        } else {
            break;
        }
    }
    digits
        .parse()
        .unwrap_or_else(|_| panic!("pattern strategy {pattern:?}: expected a number"))
}

fn sample_class(class: &CharClass, rng: &mut TestRng) -> char {
    if class.printable_unicode && (class.ranges.is_empty() || rng.next_u64() & 1 == 0) {
        return sample_ranges(PRINTABLE_RANGES, rng);
    }
    sample_ranges(&class.ranges, rng)
}

/// Picks a char uniformly across inclusive code-point ranges, weighted by
/// range width.
fn sample_ranges(ranges: &[(u32, u32)], rng: &mut TestRng) -> char {
    let total: u64 = ranges.iter().map(|(lo, hi)| u64::from(hi - lo) + 1).sum();
    let mut pick = rng.gen_range(total);
    for (lo, hi) in ranges {
        let width = u64::from(hi - lo) + 1;
        if pick < width {
            return char::from_u32(lo + pick as u32)
                .expect("pattern ranges must avoid surrogate code points");
        }
        pick -= width;
    }
    unreachable!("weighted pick out of range")
}
