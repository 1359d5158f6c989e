//! Integration test: the polynomial algorithms agree with the exact solvers
//! on randomized instances, for every tractable class of the paper.

use proptest::prelude::*;
use rpq::automata::{Alphabet, Language};
use rpq::graphdb::generate::random_labeled_graph;
use rpq::graphdb::GraphDb;
use rpq::resilience::algorithms::Algorithm;
use rpq::resilience::engine::Engine;
use rpq::resilience::rpq::{ResilienceValue, Rpq};

/// Strategy: a small random labeled database described by (nodes, facts, seed).
fn small_db(alphabet: &'static str, max_facts: usize) -> impl Strategy<Value = GraphDb> {
    (2usize..6, 1usize..=max_facts, any::<u64>()).prop_map(move |(nodes, facts, seed)| {
        random_labeled_graph(nodes, facts, &Alphabet::from_chars(alphabet), seed)
    })
}

/// Ground truth through the engine dispatcher (branch and bound backend).
fn exact_value(q: &Rpq, db: &GraphDb) -> ResilienceValue {
    Engine::new().solve_with(Algorithm::ExactBranchAndBound, q, db).unwrap().value
}

/// Ground truth through the engine dispatcher (subset enumeration backend).
fn enumeration_value(q: &Rpq, db: &GraphDb) -> ResilienceValue {
    Engine::new().solve_with(Algorithm::ExactEnumeration, q, db).unwrap().value
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn local_algorithm_matches_exact(db in small_db("abx", 10)) {
        for pattern in ["ax*b", "ab|ax", "a|b", "ab|xb"] {
            let q = Rpq::new(Language::parse(pattern).unwrap());
            if let Ok(outcome) = Engine::new().solve_with(Algorithm::Local, &q, &db) {
                prop_assert_eq!(outcome.value, exact_value(&q, &db));
            }
        }
    }

    #[test]
    fn chain_algorithm_matches_exact(db in small_db("abc", 10)) {
        for pattern in ["ab|bc", "ab|cb", "axb|byc"] {
            let q = Rpq::new(Language::parse(pattern).unwrap());
            if let Ok(outcome) = Engine::new().solve_with(Algorithm::BipartiteChain, &q, &db) {
                prop_assert_eq!(outcome.value, exact_value(&q, &db));
            }
        }
    }

    #[test]
    fn one_dangling_algorithm_matches_exact(db in small_db("abce", 9)) {
        for pattern in ["abc|be", "ab|ce"] {
            let q = Rpq::new(Language::parse(pattern).unwrap());
            if let Ok(outcome) = Engine::new().solve_with(Algorithm::OneDangling, &q, &db) {
                prop_assert_eq!(outcome.value, exact_value(&q, &db));
            }
        }
    }

    #[test]
    fn dispatcher_matches_brute_force_enumeration(db in small_db("ab", 8)) {
        for pattern in ["ab", "aa", "a|b", "ab|ba", "ab|bb"] {
            let q = Rpq::new(Language::parse(pattern).unwrap());
            let fast = Engine::new().solve(&q, &db).unwrap().value;
            prop_assert_eq!(fast, enumeration_value(&q, &db));
        }
    }

    #[test]
    fn bag_and_set_semantics_relate(db in small_db("abx", 8)) {
        // Set resilience counts facts while bag resilience counts multiplicity:
        // with all multiplicities 1 they agree.
        for pattern in ["ax*b", "ab|bc", "aa"] {
            let set_q = Rpq::new(Language::parse(pattern).unwrap());
            let bag_q = Rpq::new(Language::parse(pattern).unwrap()).with_bag_semantics();
            let set_value = Engine::new().solve(&set_q, &db).unwrap().value;
            let bag_value = Engine::new().solve(&bag_q, &db).unwrap().value;
            prop_assert_eq!(set_value, bag_value);
        }
    }
}

#[test]
fn contingency_sets_returned_by_the_solver_are_valid() {
    let alphabet = Alphabet::from_chars("abx");
    for seed in 0..10 {
        let db = random_labeled_graph(5, 9, &alphabet, seed);
        for pattern in ["ax*b", "ab|bx", "aa"] {
            let q = Rpq::new(Language::parse(pattern).unwrap());
            let outcome = Engine::new().solve(&q, &db).unwrap();
            if let Some(cut) = outcome.contingency_set {
                let set = cut.into_iter().collect();
                assert!(q.is_contingency_set(&db, &set), "{pattern}, seed {seed}");
                assert_eq!(
                    q.cost(&db, &set),
                    outcome.value.finite().unwrap(),
                    "{pattern}, seed {seed}: the cut cost must equal the reported value"
                );
            }
        }
    }
}
