//! A small line-based text format for graph databases.
//!
//! Each non-empty, non-comment line describes one fact:
//!
//! ```text
//! # comment
//! u a v        # fact u -a-> v with multiplicity 1
//! u x v 3      # fact u -x-> v with multiplicity 3
//! u b v !      # an exogenous fact (weight +∞, can never be removed)
//! u c v 2 !    # multiplicity and exogenous marker combined
//! ```
//!
//! Node names are arbitrary whitespace-free strings; labels are single
//! characters; a trailing `!` declares the fact exogenous. A fact repeated
//! with multiplicity 1 on both occurrences is kept once (set semantics);
//! otherwise the multiplicities add up (bag semantics), and a sum that
//! overflows `u64` is an error.
//!
//! [`parse`] is the workspace's bulk loader (the server's `solve`,
//! `solve_batch` and `db_put` requests and the CLI read databases through
//! it), and [`crate::delta`] patches go through the same line scanner. It
//! makes one pass over the bytes and allocates nothing per line: fields are
//! slices of the input, each new name is copied once into the database's name
//! arena, nodes and facts are found by keyed hashing, and the adjacency is
//! built in one counting pass at the end. The cost is linear in the input:
//! about 0.2 µs per fact on 512-fact `ax*b` databases on a 2-core x86-64
//! host, against 0.7–1.3 µs for the previous `BTreeMap`-based parser (see
//! EXPERIMENTS.md). Lines holding non-ASCII bytes are split with
//! [`str::split_whitespace`], so every Unicode space separates fields.

use crate::db::{Fact, GraphDb};
use rpq_automata::alphabet::Letter;
use std::fmt::Write as _;

/// Errors raised when parsing the text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// The most fields a well-formed line of either format has
/// (`+ source label target multiplicity !`).
const MAX_FIELDS: usize = 6;

/// One line of the database or patch format that holds at least one field.
pub(crate) struct Line<'a> {
    /// 1-based line number.
    pub(crate) number: usize,
    /// The line up to its first `#`.
    raw: &'a str,
    fields: [&'a str; MAX_FIELDS],
    /// How many whitespace-separated fields `raw` holds (possibly more
    /// than `MAX_FIELDS`).
    count: usize,
}

impl<'a> Line<'a> {
    /// The first field.
    pub(crate) fn first(&self) -> &'a str {
        self.fields[0]
    }

    /// The fields after the first `skip`, less a trailing `!`, and whether
    /// that marker was there; `None` when the line has too many fields to be
    /// well-formed.
    pub(crate) fn fields(&self, skip: usize) -> Option<(&[&'a str], bool)> {
        let fields = self.fields.get(skip..self.count)?;
        Some(match fields.split_last() {
            Some((&"!", rest)) => (rest, true),
            _ => (fields, false),
        })
    }

    fn push(&mut self, field: &'a str) {
        if let Some(slot) = self.fields.get_mut(self.count) {
            *slot = field;
        }
        self.count += 1;
    }

    /// The error for a line whose fields do not fit `expected`.
    pub(crate) fn shape_error(&self, expected: &str) -> ParseError {
        self.error(format!("expected `{expected}`, got {:?}", self.raw.trim()))
    }

    pub(crate) fn error(&self, message: String) -> ParseError {
        ParseError { line: self.number, message }
    }

    /// A label field: exactly one character.
    pub(crate) fn label(&self, field: &str) -> Result<Letter, ParseError> {
        let mut chars = field.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(Letter(c)),
            _ => Err(self.error(format!("label must be a single character, got {field:?}"))),
        }
    }

    /// An optional multiplicity field: a positive `u64`, 1 when absent.
    pub(crate) fn multiplicity(&self, field: Option<&&str>) -> Result<u64, ParseError> {
        let Some(field) = field else { return Ok(1) };
        match field.parse::<u64>() {
            Ok(0) => Err(self.error("multiplicity must be positive".into())),
            Ok(m) => Ok(m),
            Err(_) => Err(self.error(format!("invalid multiplicity {field:?}"))),
        }
    }
}

/// The lines of `input` that hold at least one field, each cut at its first
/// `#` and split on whitespace, in one pass over the bytes.
pub(crate) fn lines(input: &str) -> Lines<'_> {
    Lines { input, pos: 0, number: 0 }
}

/// Iterator returned by [`lines`].
pub(crate) struct Lines<'a> {
    input: &'a str,
    pos: usize,
    number: usize,
}

impl<'a> Iterator for Lines<'a> {
    type Item = Line<'a>;

    fn next(&mut self) -> Option<Line<'a>> {
        let input = self.input;
        let bytes = input.as_bytes();
        while self.pos < bytes.len() {
            self.number += 1;
            let mut line =
                Line { number: self.number, raw: "", fields: [""; MAX_FIELDS], count: 0 };
            let start = self.pos;
            let mut ascii = true;
            let mut i = start;
            // Fields up to the end of the line's text (`\n`, `#` or the end).
            loop {
                while let Some(b' ' | b'\t' | 0x0B..=b'\r') = bytes.get(i) {
                    i += 1;
                }
                let field_start = i;
                while let Some(&b) = bytes.get(i) {
                    if matches!(b, b' ' | b'\t'..=b'\r' | b'#') {
                        break;
                    }
                    ascii &= b.is_ascii();
                    i += 1;
                }
                if i == field_start {
                    break;
                }
                line.push(&input[field_start..i]);
            }
            line.raw = &input[start..i];
            self.pos = match bytes[i..].iter().position(|&b| b == b'\n') {
                Some(n) => i + n + 1,
                None => bytes.len(),
            };
            if !ascii {
                // Unicode spaces separate fields too: split the text again.
                line.count = 0;
                for field in line.raw.split_whitespace() {
                    line.push(field);
                }
            }
            if line.count > 0 {
                return Some(line);
            }
        }
        None
    }
}

/// Parses a graph database from the text format.
pub fn parse(input: &str) -> Result<GraphDb, ParseError> {
    let mut db = GraphDb::new();
    // A guess: fact lines are typically 12–20 bytes long. Guessing wrong
    // costs a rehash or some idle table slots, never correctness.
    db.reserve(input.len() / 16);
    for line in lines(input) {
        let (fields, exogenous) = match line.fields(0) {
            Some((fields, exogenous)) if fields.len() == 3 || fields.len() == 4 => {
                (fields, exogenous)
            }
            _ => return Err(line.shape_error("source label target [multiplicity] [!]")),
        };
        let label = line.label(fields[1])?;
        let multiplicity = line.multiplicity(fields.get(3))?;
        let source = db.node(fields[0]);
        let target = db.node(fields[2]);
        let id =
            db.try_add_fact(Fact { source, label, target }, multiplicity).ok_or_else(|| {
                line.error(format!("bag multiplicity overflows u64 (adding {multiplicity})"))
            })?;
        if exogenous {
            db.set_exogenous(id, true);
        }
    }
    db.finish_load();
    Ok(db)
}

/// Serializes a graph database to the text format.
pub fn serialize(db: &GraphDb) -> String {
    let mut out = String::new();
    for (id, fact) in db.facts() {
        let (source, target) = (db.node_name(fact.source), db.node_name(fact.target));
        let _ = write!(out, "{source} {} {target}", fact.label);
        let m = db.multiplicity(id);
        let exogenous = db.is_exogenous(id);
        // A target named `!` would read back as the marker: spell out its 1.
        if m != 1 || (target == "!" && !exogenous) {
            let _ = write!(out, " {m}");
        }
        out.push_str(if exogenous { " !\n" } else { "\n" });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::satisfies;
    use rpq_automata::Language;

    #[test]
    fn parse_basic() {
        let db = parse("u a v\nv x w 3\n# comment line\n\nw b t").unwrap();
        assert_eq!(db.num_facts(), 3);
        assert_eq!(db.total_multiplicity(), 5);
        assert!(satisfies(&db, &Language::parse("axb").unwrap()));
    }

    #[test]
    fn parse_errors_are_reported_with_line_numbers() {
        let err = parse("u a v\nbroken line here extra tokens!").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(parse("u ab v").is_err());
        assert!(parse("u a v 0").is_err());
        assert!(parse("u a v x").is_err());
        assert!(parse("u a").is_err());
    }

    #[test]
    fn round_trip() {
        let input = "u a v\nv x w 3\nw b t\n";
        let db = parse(input).unwrap();
        let output = serialize(&db);
        let db2 = parse(&output).unwrap();
        assert_eq!(db2.num_facts(), db.num_facts());
        assert_eq!(db2.total_multiplicity(), db.total_multiplicity());
        assert_eq!(serialize(&db2), output);
    }

    #[test]
    fn bag_sum_overflow_is_a_parse_error() {
        let err = parse("u a v 18446744073709551615\nu a v 2\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("overflows"), "{}", err.message);
        // A plain repeat adds 1 to a fact already above 1, so it overflows too.
        assert_eq!(parse("u a v 18446744073709551615\nu a v\n").unwrap_err().line, 2);
        // Two distinct facts at u64::MAX saturate the total instead of wrapping.
        let db = parse("u a v 18446744073709551615\nv a u 18446744073709551615\n").unwrap();
        assert_eq!(db.total_multiplicity(), u64::MAX);
    }

    #[test]
    fn inline_comments_are_ignored() {
        let db = parse("u a v # this is the a fact").unwrap();
        assert_eq!(db.num_facts(), 1);
    }

    #[test]
    fn exogenous_markers_round_trip() {
        let db = parse(
            "u a v !
v x w 3 !
w b t 2
t c z",
        )
        .unwrap();
        assert_eq!(db.num_facts(), 4);
        let exogenous: Vec<bool> = db.fact_ids().map(|f| db.is_exogenous(f)).collect();
        assert_eq!(exogenous, vec![true, true, false, false]);
        let output = serialize(&db);
        assert!(output.contains("u a v !"));
        assert!(output.contains("v x w 3 !"));
        let db2 = parse(&output).unwrap();
        assert_eq!(db2.fact_ids().map(|f| db2.is_exogenous(f)).collect::<Vec<_>>(), exogenous);
        // A lone `!` is not a fact.
        assert!(parse("!").is_err());
        // The marker must be the last token.
        assert!(parse("u a ! v").is_err());
    }
}
