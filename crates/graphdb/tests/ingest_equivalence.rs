//! Equivalence of the byte-scanning loaders with the line-splitting parsers
//! they replaced.
//!
//! The `oracle` module holds the previous `text::parse`, `delta::parse_patch`
//! and `delta::materialize` verbatim. On seeded random texts (duplicate facts
//! under the set and the bag rule, `!` markers, comments, blank lines, `\r\n`
//! endings, ASCII and Unicode spaces, non-ASCII names, malformed lines) the
//! loaders must build the same databases, numbered the same way, and fail on
//! the same line with the same message.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpq_automata::alphabet::Letter;
use rpq_graphdb::delta::{self, FactChange};
use rpq_graphdb::text::{self, ParseError};
use rpq_graphdb::GraphDb;

mod oracle {
    use rpq_automata::alphabet::Letter;
    use rpq_graphdb::delta::FactChange;
    use rpq_graphdb::text::ParseError;
    use rpq_graphdb::GraphDb;
    use std::collections::HashMap;

    /// Parses a graph database from the text format.
    pub fn parse(input: &str) -> Result<GraphDb, ParseError> {
        let mut db = GraphDb::new();
        for (i, raw_line) in input.lines().enumerate() {
            let line_no = i + 1;
            let line = raw_line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts: Vec<&str> = line.split_whitespace().collect();
            // A trailing `!` marks the fact as exogenous (weight +∞).
            let exogenous = parts.last() == Some(&"!");
            if exogenous {
                parts.pop();
            }
            if parts.len() != 3 && parts.len() != 4 {
                return Err(ParseError {
                    line: line_no,
                    message: format!(
                        "expected `source label target [multiplicity] [!]`, got {line:?}"
                    ),
                });
            }
            let label: Vec<char> = parts[1].chars().collect();
            if label.len() != 1 {
                return Err(ParseError {
                    line: line_no,
                    message: format!("label must be a single character, got {:?}", parts[1]),
                });
            }
            let multiplicity: u64 = if parts.len() == 4 {
                parts[3].parse().map_err(|_| ParseError {
                    line: line_no,
                    message: format!("invalid multiplicity {:?}", parts[3]),
                })?
            } else {
                1
            };
            if multiplicity == 0 {
                return Err(ParseError {
                    line: line_no,
                    message: "multiplicity must be positive".into(),
                });
            }
            let s = db.node(parts[0]);
            let t = db.node(parts[2]);
            let id = db.add_fact_with_multiplicity(
                s,
                rpq_automata::alphabet::Letter(label[0]),
                t,
                multiplicity,
            );
            if exogenous {
                db.set_exogenous(id, true);
            }
        }
        Ok(db)
    }

    /// Parses a patch in the line-based text format (see the [module docs](self)).
    pub fn parse_patch(input: &str) -> Result<Vec<FactChange>, ParseError> {
        let mut changes = Vec::new();
        for (i, raw_line) in input.lines().enumerate() {
            let line_no = i + 1;
            let line = raw_line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts: Vec<&str> = line.split_whitespace().collect();
            let op = parts.remove(0);
            let exogenous = parts.last() == Some(&"!");
            if exogenous {
                parts.pop();
            }
            let fields = |expected: &str| ParseError {
                line: line_no,
                message: format!("expected `{expected}`, got {line:?}"),
            };
            let single_letter = |s: &str| -> Result<Letter, ParseError> {
                let chars: Vec<char> = s.chars().collect();
                if chars.len() != 1 {
                    return Err(ParseError {
                        line: line_no,
                        message: format!("label must be a single character, got {s:?}"),
                    });
                }
                Ok(Letter(chars[0]))
            };
            match op {
                "+" => {
                    if parts.len() != 3 && parts.len() != 4 {
                        return Err(fields("+ source label target [multiplicity] [!]"));
                    }
                    let multiplicity: u64 = if parts.len() == 4 {
                        parts[3].parse().map_err(|_| ParseError {
                            line: line_no,
                            message: format!("invalid multiplicity {:?}", parts[3]),
                        })?
                    } else {
                        1
                    };
                    if multiplicity == 0 {
                        return Err(ParseError {
                            line: line_no,
                            message: "multiplicity must be positive".into(),
                        });
                    }
                    changes.push(FactChange::Put {
                        source: parts[0].to_string(),
                        label: single_letter(parts[1])?,
                        target: parts[2].to_string(),
                        multiplicity,
                        exogenous,
                    });
                }
                "-" => {
                    if exogenous || parts.len() != 3 {
                        return Err(fields("- source label target"));
                    }
                    changes.push(FactChange::Delete {
                        source: parts[0].to_string(),
                        label: single_letter(parts[1])?,
                        target: parts[2].to_string(),
                    });
                }
                other => {
                    return Err(ParseError {
                        line: line_no,
                        message: format!("expected `+` or `-` as the first field, got {other:?}"),
                    });
                }
            }
        }
        Ok(changes)
    }

    /// Replays a change log into a concrete [`GraphDb`].
    ///
    /// Surviving facts are inserted in the order their key was **first put**, so
    /// two logs with the same net effect produce databases with identical node
    /// and fact numbering as long as their first-put orders agree — in particular
    /// `materialize(&log[..n])` followed by the remaining changes always agrees
    /// with `materialize(&log[..m])` for `n <= m` on the shared facts.
    pub fn materialize(changes: &[FactChange]) -> GraphDb {
        // Last-write-wins state per key, plus first-put order for determinism.
        let mut alive: HashMap<(&str, Letter, &str), (u64, bool)> = HashMap::new();
        let mut ever_put: HashMap<(&str, Letter, &str), ()> = HashMap::new();
        let mut order: Vec<(&str, Letter, &str)> = Vec::new();
        for change in changes {
            match change {
                FactChange::Put { source, label, target, multiplicity, exogenous } => {
                    let key = (source.as_str(), *label, target.as_str());
                    alive.insert(key, (*multiplicity, *exogenous));
                    if ever_put.insert(key, ()).is_none() {
                        order.push(key);
                    }
                }
                FactChange::Delete { source, label, target } => {
                    alive.remove(&(source.as_str(), *label, target.as_str()));
                }
            }
        }
        let mut db = GraphDb::new();
        for key in order {
            if let Some(&(multiplicity, exogenous)) = alive.get(&key) {
                let (source, label, target) = key;
                let s = db.node(source);
                let t = db.node(target);
                let id = db.add_fact_with_multiplicity(s, label, t, multiplicity);
                if exogenous {
                    db.set_exogenous(id, true);
                }
            }
        }
        db
    }
}

/// Asserts that two databases are identical up to their hash keys: node
/// names and ids, fact order, multiplicities, exogenous flags, adjacency
/// order and lookups.
fn assert_same_db(new: &GraphDb, old: &GraphDb, context: &str) {
    assert_eq!(new.num_nodes(), old.num_nodes(), "{context}: node count");
    for v in old.nodes() {
        assert_eq!(new.node_name(v), old.node_name(v), "{context}: name of {v:?}");
        assert_eq!(new.find_node(old.node_name(v)), Some(v), "{context}: find_node");
        let out: Vec<_> = new.out_facts(v).collect();
        assert_eq!(out, old.out_facts(v).collect::<Vec<_>>(), "{context}: out_facts({v:?})");
        let inc: Vec<_> = new.in_facts(v).collect();
        assert_eq!(inc, old.in_facts(v).collect::<Vec<_>>(), "{context}: in_facts({v:?})");
        // Both databases share `GraphDb`: check the adjacency independently.
        let leaving = old.facts().filter(|(_, f)| f.source == v).map(|(id, _)| id);
        assert!(out.iter().copied().eq(leaving), "{context}: out_facts({v:?}) order");
        let entering = old.facts().filter(|(_, f)| f.target == v).map(|(id, _)| id);
        assert!(inc.iter().copied().eq(entering), "{context}: in_facts({v:?}) order");
    }
    for name in ["", "absent", "u ", "#"] {
        assert_eq!(new.find_node(name), old.find_node(name), "{context}: find_node({name:?})");
    }
    let facts: Vec<_> = new.facts().collect();
    assert_eq!(facts, old.facts().collect::<Vec<_>>(), "{context}: facts");
    for (id, fact) in facts {
        assert_eq!(new.multiplicity(id), old.multiplicity(id), "{context}: multiplicity");
        assert_eq!(new.is_exogenous(id), old.is_exogenous(id), "{context}: exogenous");
        assert_eq!(new.find_fact(fact.source, fact.label, fact.target), Some(id), "{context}");
    }
    for s in old.nodes().take(6) {
        for t in old.nodes().take(6) {
            for label in ['a', 'b', 'é', 'z'] {
                assert_eq!(
                    new.find_fact(s, Letter(label), t),
                    old.find_fact(s, Letter(label), t),
                    "{context}: find_fact({s:?}, {label}, {t:?})"
                );
            }
        }
    }
    assert_eq!(new.total_multiplicity(), old.total_multiplicity(), "{context}: total");
}

fn pick<'a>(rng: &mut StdRng, pool: &[&'a str]) -> &'a str {
    pool[rng.gen_range(0..pool.len())]
}

/// Field separators: ASCII spaces (including `\x0B` and `\x0C`) and Unicode
/// spaces (NEL, NBSP, EM SPACE).
const SEPARATORS: [&str; 10] =
    [" ", " ", "  ", "\t", "\x0B", "\x0C", "\r", "\u{85}", "\u{A0}", "\u{2003}"];
/// Node names: few enough that facts repeat; some non-ASCII, some that look
/// like markers or numbers.
const NAMES: [&str; 10] = ["u", "v", "w", "n1", "ä", "名前", "x-y", "!", "7", "s\u{300}"];
/// Labels; the first five are valid.
const LABELS: [&str; 8] = ["a", "b", "é", "z", "!", "ab", "", "1a"];
/// Multiplicities; the first four are valid.
const MULTIPLICITIES: [&str; 10] = ["1", "2", "3", "007", "0", "x", "+2", "-1", "1.5", "1e3"];
const COMMENTS: [&str; 5] = ["# note", "#", "# é ü", "#a b c", "## u a v"];
const ENDINGS: [&str; 3] = ["\n", "\n", "\r\n"];

fn separator(rng: &mut StdRng) -> &'static str {
    // Mostly plain spaces, so that most lines take the ASCII path.
    if rng.gen_bool(0.8) {
        " "
    } else {
        pick(rng, &SEPARATORS)
    }
}

/// The fields of one random line: usually a fact (optionally with a
/// multiplicity and a marker), sometimes a soup of random fields. With
/// `valid`, the fact is always well-formed.
fn fact_fields(rng: &mut StdRng, valid: bool) -> Vec<&'static str> {
    if !valid && rng.gen_bool(0.15) {
        let pool: Vec<&str> =
            NAMES.iter().chain(&LABELS).chain(&MULTIPLICITIES).chain(&["!"]).copied().collect();
        return (0..rng.gen_range(0..8)).map(|_| pick(rng, &pool)).collect();
    }
    let valid_label = valid || rng.gen_bool(0.9);
    let label = pick(rng, if valid_label { &LABELS[..5] } else { &LABELS });
    let target = pick(rng, &NAMES);
    let mut fields = vec![pick(rng, &NAMES), label, target];
    // A target named `!` without a multiplicity reads as a marker.
    if rng.gen_bool(0.4) || (valid && target == "!") {
        let valid_multiplicity = valid || rng.gen_bool(0.9);
        fields.push(pick(
            rng,
            if valid_multiplicity { &MULTIPLICITIES[..4] } else { &MULTIPLICITIES },
        ));
    }
    if rng.gen_bool(0.2) {
        fields.push("!");
    }
    fields
}

/// Joins fields into a line with random separators, indentation, trailing
/// space, comment and ending; sometimes emits a blank or comment-only line.
fn render_line(rng: &mut StdRng, fields: &[&str], out: &mut String) {
    match rng.gen_range(0..10) {
        0 => {}
        1 => out.push_str(pick(rng, &COMMENTS)),
        _ => {
            if rng.gen_bool(0.2) {
                out.push_str(separator(rng));
            }
            for (i, field) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(separator(rng));
                }
                out.push_str(field);
            }
            if rng.gen_bool(0.2) {
                out.push_str(separator(rng));
            }
            if rng.gen_bool(0.15) {
                out.push_str(pick(rng, &COMMENTS));
            }
        }
    }
    out.push_str(pick(rng, &ENDINGS));
}

fn random_database_text(rng: &mut StdRng, lines: usize, valid: bool) -> String {
    let mut out = String::new();
    for _ in 0..lines {
        let fields = fact_fields(rng, valid);
        render_line(rng, &fields, &mut out);
    }
    if rng.gen_bool(0.5) {
        // Drop the last line ending (or half of a `\r\n`).
        out.pop();
    }
    out
}

fn random_patch_text(rng: &mut StdRng, lines: usize) -> String {
    let mut out = String::new();
    for _ in 0..lines {
        let op = match rng.gen_range(0..20) {
            0 => "*",
            1 => "+-",
            2..=11 => "+",
            _ => "-",
        };
        let mut fields = vec![op];
        fields.extend(fact_fields(rng, false));
        if op == "-" && rng.gen_bool(0.7) {
            fields.truncate(4);
        }
        render_line(rng, &fields, &mut out);
    }
    out
}

/// Parses `input` with both parsers, asserts they agree, and returns the
/// database on success.
fn check_parse(input: &str, context: &str) -> Option<GraphDb> {
    let new = text::parse(input);
    let old = oracle::parse(input);
    match (&new, &old) {
        (Ok(new), Ok(old)) => assert_same_db(new, old, context),
        (Err(new), Err(old)) => assert_eq!(new, old, "{context}: error on {input:?}"),
        _ => panic!("{context}: {:?} vs {:?} on {input:?}", new.as_ref().err(), old.as_ref().err()),
    }
    new.ok()
}

#[test]
fn parse_matches_the_line_splitting_parser() {
    let mut rng = StdRng::seed_from_u64(0x1a9e57);
    let mut accepted = 0;
    for case in 0..3000 {
        let lines = rng.gen_range(0..24);
        let input = random_database_text(&mut rng, lines, case % 2 == 0);
        if check_parse(&input, &format!("case {case}")).is_some() {
            accepted += 1;
        }
    }
    // Both outcomes are exercised.
    assert!((1000..2900).contains(&accepted), "{accepted} of 3000 accepted");
}

#[test]
fn duplicate_facts_follow_the_set_and_bag_rules() {
    for input in [
        "u a v\nu a v\n",
        "u a v\nu a v 1\nu a v !\n",
        "u a v 2\nu a v\n",
        "u a v\nu a v 3\nu a v\n",
        "u a v 1 !\nu a v 1\n",
        "u a v\r\nv b w 2\r\nu a v 2 !\r\n",
    ] {
        check_parse(input, input).unwrap();
    }
    let set = text::parse("u a v\nu a v\n").unwrap();
    assert_eq!((set.num_facts(), set.total_multiplicity()), (1, 1));
    let bag = text::parse("u a v\nu a v 3\nu a v\n").unwrap();
    assert_eq!((bag.num_facts(), bag.total_multiplicity()), (1, 5));
}

#[test]
fn parse_and_serialize_round_trip() {
    let mut rng = StdRng::seed_from_u64(7);
    for case in 0..1000 {
        let input = random_database_text(&mut rng, 20, true);
        let db = text::parse(&input).unwrap();
        let output = text::serialize(&db);
        let again =
            text::parse(&output).unwrap_or_else(|e| panic!("case {case}: {e} in {output:?}"));
        assert_same_db(&again, &db, &format!("case {case}"));
        assert_eq!(text::serialize(&again), output);
    }
    // A target named `!` keeps its multiplicity field, so it is not read back
    // as the exogenous marker.
    for input in ["u a ! 1\n", "u a ! 1 !\n", "! a u\n"] {
        let db = text::parse(input).unwrap();
        assert_same_db(&text::parse(&text::serialize(&db)).unwrap(), &db, input);
    }
}

#[test]
fn patches_match_the_line_splitting_parser_and_replay() {
    let mut rng = StdRng::seed_from_u64(0x9a7c4);
    let mut accepted = 0;
    for case in 0..3000 {
        let lines = rng.gen_range(0..12);
        let input = random_patch_text(&mut rng, lines);
        let new = delta::parse_patch(&input);
        assert_eq!(new, oracle::parse_patch(&input), "case {case}: {input:?}");
        if let Ok(changes) = new {
            accepted += 1;
            let context = format!("case {case}");
            assert_same_db(&delta::materialize(&changes), &oracle::materialize(&changes), &context);
        }
    }
    assert!(accepted > 200, "{accepted} of 3000 accepted");
}

#[test]
fn materialize_matches_the_two_map_replay() {
    let mut rng = StdRng::seed_from_u64(42);
    for case in 0..500 {
        let changes: Vec<FactChange> = (0..rng.gen_range(0..60))
            .map(|_| {
                let source = pick(&mut rng, &NAMES[..5]).to_string();
                let label = Letter(if rng.gen_bool(0.5) { 'a' } else { 'b' });
                let target = pick(&mut rng, &NAMES[..5]).to_string();
                if rng.gen_bool(0.3) {
                    FactChange::Delete { source, label, target }
                } else {
                    let multiplicity = rng.gen_range(1..4);
                    let exogenous = rng.gen_bool(0.2);
                    FactChange::Put { source, label, target, multiplicity, exogenous }
                }
            })
            .collect();
        for n in [0, changes.len() / 2, changes.len()] {
            let prefix = &changes[..n];
            let context = format!("case {case}, prefix {n}");
            assert_same_db(&delta::materialize(prefix), &oracle::materialize(prefix), &context);
        }
    }
}

#[test]
fn errors_carry_the_same_line_and_message() {
    for input in [
        "u a v\nbroken line here extra tokens!",
        "u ab v",
        "u a v 0",
        "u a v x",
        "u a",
        "!",
        "u a ! v",
        "\n\n  u\u{A0}a\u{2003}v x\n",
        "u é v\nu éé v\n",
        "a b c d e f g h\n",
        "a b c d e !\n",
        "# c\r\n\r\nu a v 1 ! !\r\n",
    ] {
        let new: Result<(), ParseError> = text::parse(input).map(|_| ());
        assert_eq!(new, oracle::parse(input).map(|_| ()), "{input:?}");
    }
    for input in
        ["* u a v", "+ u ab v", "+ u a", "+ u a v 0", "- u a v !", "- u a", "+", "+ a b c d e f g"]
    {
        assert_eq!(delta::parse_patch(input), oracle::parse_patch(input), "{input:?}");
    }
}

#[test]
fn arbitrary_input_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xb17e5);
    let alphabet: Vec<char> =
        " \t\n\r\x0B\x0C#!+-0123456789auv\u{85}\u{A0}\u{2003}é名\u{0}".chars().collect();
    for _ in 0..3000 {
        let len = rng.gen_range(0..64);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=u8::MAX)).collect();
        let lossy = String::from_utf8_lossy(&bytes);
        let chars: String = (0..len).map(|_| alphabet[rng.gen_range(0..alphabet.len())]).collect();
        for input in [lossy.as_ref(), chars.as_str()] {
            let _ = delta::parse_patch(input);
            check_parse(input, "arbitrary input");
        }
    }
}
