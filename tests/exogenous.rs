//! Exogenous facts (weight `+∞`): the setting mentioned in Sections 2 and 8 of
//! the paper, where some facts are declared un-removable. These tests check
//! that the flow-based algorithms, the exact branch-and-bound and the subset
//! enumeration all agree on databases with exogenous facts, and that the
//! resilience correctly becomes `+∞` when every witness walk is protected.

use proptest::prelude::*;
use rpq::automata::{Alphabet, Language, Word};
use rpq::graphdb::generate::{random_labeled_graph, word_path};
use rpq::graphdb::{FactId, GraphDb};
use rpq::resilience::algorithms::Algorithm;
use rpq::resilience::engine::Engine;
use rpq::resilience::rpq::{ResilienceValue, Rpq};

/// Ground truth through the engine dispatcher (branch and bound backend).
fn exact_value(q: &Rpq, db: &GraphDb) -> ResilienceValue {
    Engine::new().solve_with(Algorithm::ExactBranchAndBound, q, db).unwrap().value
}

/// Ground truth through the engine dispatcher (subset enumeration backend).
fn enumeration_value(q: &Rpq, db: &GraphDb) -> ResilienceValue {
    Engine::new().solve_with(Algorithm::ExactEnumeration, q, db).unwrap().value
}

#[test]
fn exogenous_flags_survive_database_transformations() {
    let mut db = GraphDb::new();
    let f1 = db.add_fact_by_names("u", 'a', "v");
    let f2 = db.add_fact_by_names("v", 'b', "w");
    db.set_exogenous(f1, true);
    assert!(db.is_exogenous(f1));
    assert!(!db.is_exogenous(f2));
    assert!(db.has_exogenous_facts());
    assert_eq!(db.exogenous_facts().collect::<Vec<_>>(), vec![f1]);
    assert_eq!(db.endogenous_facts().collect::<Vec<_>>(), vec![f2]);
    // Mirroring preserves the flags (facts are re-created in order).
    let reversed = db.reversed();
    assert!(reversed.is_exogenous(FactId(0)));
    assert!(!reversed.is_exogenous(FactId(1)));
    // Removing a fact preserves the flags of the remaining facts.
    let without = db.without_facts(&[f2].into_iter().collect());
    assert_eq!(without.num_facts(), 1);
    assert!(without.is_exogenous(FactId(0)));
    // Flags can be cleared again.
    db.set_exogenous(f1, false);
    assert!(!db.has_exogenous_facts());
}

#[test]
fn fully_protected_walks_give_infinite_resilience() {
    // a x b path where every fact is exogenous: nothing can be removed.
    let mut db = word_path(&Word::from_str_word("axb"));
    for fact in db.fact_ids().collect::<Vec<_>>() {
        db.set_exogenous(fact, true);
    }
    let query = Rpq::parse("ax*b").unwrap();
    assert_eq!(Engine::new().solve(&query, &db).unwrap().value, ResilienceValue::Infinite);
    assert_eq!(exact_value(&query, &db), ResilienceValue::Infinite);
    assert_eq!(enumeration_value(&query, &db), ResilienceValue::Infinite);
}

#[test]
fn protected_facts_redirect_the_cut() {
    // A single a x b route under bag semantics: the cheapest repair is the
    // a-fact, unless that fact is declared exogenous, in which case the cut
    // must pay for the next-cheapest fact instead.
    let mut db = GraphDb::new();
    let s = db.node("s");
    let u = db.node("u");
    let v = db.node("v");
    let t = db.node("t");
    let fa = db.add_fact_with_multiplicity(s, 'a'.into(), u, 1);
    let fx = db.add_fact_with_multiplicity(u, 'x'.into(), v, 5);
    let fb = db.add_fact_with_multiplicity(v, 'b'.into(), t, 3);
    let query = Rpq::parse("ax*b").unwrap().with_bag_semantics();
    // Unprotected: the a-fact (cost 1) is the optimal cut.
    let outcome = Engine::new().solve_with(Algorithm::Local, &query, &db).unwrap();
    assert_eq!(outcome.value, ResilienceValue::Finite(1));
    assert_eq!(outcome.contingency_set.unwrap(), vec![fa]);
    // Protect the a-fact: the cut must use the b-fact (cost 3), never fa.
    db.set_exogenous(fa, true);
    let outcome = Engine::new().solve_with(Algorithm::Local, &query, &db).unwrap();
    assert_eq!(outcome.value, ResilienceValue::Finite(3));
    let cut: Vec<FactId> = outcome.contingency_set.unwrap();
    assert_eq!(cut, vec![fb]);
    assert_eq!(exact_value(&query, &db), ResilienceValue::Finite(3));
    // Protect the b-fact as well: only the expensive x-fact remains cuttable.
    db.set_exogenous(fb, true);
    let outcome = Engine::new().solve_with(Algorithm::Local, &query, &db).unwrap();
    assert_eq!(outcome.value, ResilienceValue::Finite(5));
    assert_eq!(outcome.contingency_set.unwrap(), vec![fx]);
    // Protect everything: the violation can no longer be broken.
    db.set_exogenous(fx, true);
    assert_eq!(Engine::new().solve(&query, &db).unwrap().value, ResilienceValue::Infinite);
    assert_eq!(exact_value(&query, &db), ResilienceValue::Infinite);
}

#[test]
fn chain_algorithm_supports_exogenous_facts() {
    // ab|bc is a bipartite chain language; protect the shared b-fact.
    let mut db = GraphDb::new();
    let a = db.add_fact_by_names("u", 'a', "v");
    let b = db.add_fact_by_names("v", 'b', "w");
    let c = db.add_fact_by_names("w", 'c', "x");
    let query = Rpq::parse("ab|bc").unwrap();
    assert_eq!(Engine::new().solve(&query, &db).unwrap().value, ResilienceValue::Finite(1));
    db.set_exogenous(b, true);
    let outcome = Engine::new().solve_with(Algorithm::BipartiteChain, &query, &db).unwrap();
    // Both ab and bc must be broken without touching the b-fact: remove a and c.
    assert_eq!(outcome.value, ResilienceValue::Finite(2));
    assert_eq!(exact_value(&query, &db), ResilienceValue::Finite(2));
    let _ = (a, c);
    // A single-letter word matched by an exogenous fact is unbreakable.
    let mut db2 = GraphDb::new();
    let lone = db2.add_fact_by_names("u", 'a', "v");
    db2.set_exogenous(lone, true);
    let query2 = Rpq::parse("a|bc").unwrap();
    assert_eq!(
        Engine::new().solve_with(Algorithm::BipartiteChain, &query2, &db2).unwrap().value,
        ResilienceValue::Infinite
    );
}

#[test]
fn one_dangling_falls_back_to_exact_with_exogenous_facts() {
    let mut db = word_path(&Word::from_str_word("abc"));
    let first = db.fact_ids().next().unwrap();
    db.set_exogenous(first, true);
    let query = Rpq::parse("abc|be").unwrap();
    // The dispatcher must not use the one-dangling rewriting here.
    let outcome = Engine::new().solve(&query, &db).unwrap();
    assert_eq!(outcome.algorithm, Algorithm::ExactBranchAndBound);
    assert_eq!(outcome.value, enumeration_value(&query, &db));
    // Requesting the rewriting explicitly is rejected.
    assert!(Engine::new().solve_with(Algorithm::OneDangling, &query, &db).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On random small databases with random exogenous marks, the dispatcher
    /// (flow algorithms or branch and bound) agrees with subset enumeration
    /// for both a local and a bipartite-chain language.
    #[test]
    fn solvers_agree_with_enumeration_under_exogenous_marks(
        seed in 0u64..1000,
        mark_mask in 0u32..256,
        pattern in prop_oneof![Just("ax*b"), Just("ab|ad"), Just("ab|bc"), Just("aa")],
    ) {
        let alphabet = Alphabet::from_chars("abxd");
        let mut db = random_labeled_graph(4, 7, &alphabet, seed);
        let facts: Vec<FactId> = db.fact_ids().collect();
        for (i, fact) in facts.iter().enumerate() {
            if mark_mask & (1 << (i % 8)) != 0 && i % 3 == 0 {
                db.set_exogenous(*fact, true);
            }
        }
        let query = Rpq::new(Language::parse(pattern).unwrap());
        let fast = Engine::new().solve(&query, &db).unwrap();
        let reference = enumeration_value(&query, &db);
        prop_assert_eq!(fast.value, reference, "pattern {} seed {}", pattern, seed);
        // Any returned contingency set avoids exogenous facts and really works.
        if let (Some(cut), ResilienceValue::Finite(_)) = (&fast.contingency_set, fast.value) {
            prop_assert!(cut.iter().all(|f| !db.is_exogenous(*f)));
            prop_assert!(query.is_contingency_set(&db, &cut.iter().copied().collect()));
        }
    }
}
