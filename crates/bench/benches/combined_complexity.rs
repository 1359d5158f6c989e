//! Combined complexity of Theorem 3.13: `Õ(|A| · |Σ| · |D|)`.
//!
//! The data-complexity shape (scaling in `|D|`) is measured by the `scaling`
//! bench; this bench sweeps the *query* side instead, growing the alphabet and
//! the automaton while keeping the database size fixed, to check that the
//! running time grows roughly linearly in `|A| · |Σ|` as the combined
//! complexity statement predicts.
//!
//! The query family is `(l₁|…|l_k) m* (r₁|…|r_k)` over `2k + 1` letters: a
//! local language (its local DFA has `Θ(k)` states) that generalizes the
//! `a x* b` MinCut correspondence of the paper's introduction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rpq_automata::local::is_local;
use rpq_automata::{Alphabet, Language};
use rpq_graphdb::generate::random_labeled_graph;
use rpq_resilience::algorithms::Algorithm;
use rpq_resilience::engine::Engine;
use rpq_resilience::rpq::Rpq;
use std::time::Duration;

/// The letters used for the sources (`l_i`), the targets (`r_i`) and the
/// internal edges (`m`). Single-character letters cap the sweep at 12 sources.
const SOURCE_LETTERS: &str = "abcdefghijkl";
const TARGET_LETTERS: &str = "nopqrstuvwyz";

fn query_family(k: usize) -> (Language, Alphabet) {
    let sources: Vec<char> = SOURCE_LETTERS.chars().take(k).collect();
    let targets: Vec<char> = TARGET_LETTERS.chars().take(k).collect();
    let pattern = format!(
        "({}) m* ({})",
        sources.iter().map(|c| c.to_string()).collect::<Vec<_>>().join("|"),
        targets.iter().map(|c| c.to_string()).collect::<Vec<_>>().join("|"),
    );
    let language = Language::parse(&pattern).expect("query family parses");
    let alphabet_chars: String = sources.iter().chain(targets.iter()).chain(['m'].iter()).collect();
    (language, Alphabet::from_chars(&alphabet_chars))
}

fn combined_complexity(c: &mut Criterion) {
    let mut group = c.benchmark_group("combined_complexity/local_family");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200));
    const FACTS: usize = 2_000;
    const NODES: usize = 400;
    for &k in &[1usize, 2, 4, 8, 12] {
        let (language, alphabet) = query_family(k);
        assert!(is_local(&language), "the query family must stay local (k = {k})");
        let db = random_labeled_graph(NODES, FACTS, &alphabet, 0xD1CE + k as u64);
        let query = Rpq::new(language).with_bag_semantics();
        // |Σ| = 2k + 1 is the swept parameter; |A| grows linearly with it.
        group.bench_with_input(BenchmarkId::from_parameter(2 * k + 1), &query, |b, query| {
            b.iter(|| Engine::new().solve_with(Algorithm::Local, query, &db).unwrap().value)
        });
    }
    group.finish();
}

criterion_group!(benches, combined_complexity);
criterion_main!(benches);
