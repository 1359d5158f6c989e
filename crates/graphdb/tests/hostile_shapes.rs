//! Database texts shaped to hit a slow path of the loader: one hub node,
//! names that differ only after a long common prefix, one huge name, and one
//! fact repeated many times. Each must load in linear time; in release
//! builds a generous wall bound (2 s for about 2 MiB of text) rules out a
//! quadratic path.

use rpq_automata::alphabet::Letter;
use rpq_graphdb::{text, GraphDb};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const BOUND: Duration = Duration::from_secs(2);

fn timed_parse(shape: &str, input: &str) -> GraphDb {
    let start = Instant::now();
    let db = text::parse(input).unwrap_or_else(|e| panic!("{shape}: {e}"));
    let elapsed = start.elapsed();
    // Debug builds are too slow for a meaningful bound; CI runs this test
    // in release too.
    if !cfg!(debug_assertions) {
        assert!(elapsed < BOUND, "{shape}: {} bytes took {elapsed:?}", input.len());
    }
    db
}

#[test]
fn star_on_one_hub() {
    let mut input = String::new();
    for i in 0..1 << 17 {
        let _ = writeln!(input, "hub a leaf{i}");
    }
    let db = timed_parse("star", &input);
    let hub = db.find_node("hub").unwrap();
    assert_eq!(db.out_facts(hub).count(), 1 << 17);
    assert_eq!(db.num_nodes(), (1 << 17) + 1);
}

#[test]
fn names_sharing_a_long_prefix() {
    let prefix = "p".repeat(64);
    let mut input = String::new();
    for i in 0..1 << 17 {
        let _ = writeln!(input, "{prefix}{i} a {prefix}{i}");
    }
    let db = timed_parse("shared prefix", &input);
    assert_eq!(db.num_nodes(), 1 << 17);
    assert_eq!(db.num_facts(), 1 << 17);
    let last = db.find_node(&format!("{prefix}{}", (1 << 17) - 1)).unwrap();
    assert_eq!(db.find_fact(last, Letter('a'), last).map(|f| f.index()), Some((1 << 17) - 1));
}

#[test]
fn one_huge_name() {
    let name = "n".repeat(1 << 20);
    let input = format!("{name} a v\nv b {name}\n");
    let db = timed_parse("huge name", &input);
    assert_eq!(db.num_nodes(), 2);
    assert_eq!(db.node_name(db.find_node(&name).unwrap()).len(), 1 << 20);
}

#[test]
fn one_bag_fact_repeated() {
    let input = "u a v 2\n".repeat(1 << 16);
    let db = timed_parse("repeated bag fact", &input);
    assert_eq!(db.num_facts(), 1);
    assert_eq!(db.total_multiplicity(), 1 << 17);
}
