//! Integration test: incremental solves under randomized edit churn.
//!
//! Drives `PreparedQuery::route_incremental` through 200 random
//! insert/delete deltas per query family and checks, at **every** snapshot,
//! that the incrementally patched answer agrees with a fresh full solve —
//! value, contingency-set validity and optimality (the witness cost equals
//! the resilience). Where the database is small enough, the subset-
//! enumeration oracle cross-checks the value a third way. The corpus covers
//! the local plan family (the only one with a patching path), a bag-
//! semantics variant, and two non-local families (chain, one-dangling) that
//! must transparently fall back to full solves and still agree.

use std::collections::BTreeSet;

use rpq::automata::alphabet::Letter;
use rpq::graphdb::delta::{materialize, FactChange};
use rpq::resilience::algorithms::Algorithm;
use rpq::resilience::engine::{Engine, IncrementalSolver, SolveMode};
use rpq::resilience::obs::Trace;
use rpq::resilience::router::{RouteBudget, Router};
use rpq::resilience::rpq::{ResilienceValue, Rpq};

/// Deterministic xorshift64* PRNG: the churn sequence must be reproducible.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// One random delta: mostly single-fact edits, occasionally a small burst.
fn random_delta(
    rng: &mut u64,
    log: &[FactChange],
    nodes: usize,
    labels: &[char],
) -> Vec<FactChange> {
    let burst = if xorshift(rng).is_multiple_of(10) { 2 + (xorshift(rng) % 2) as usize } else { 1 };
    (0..burst)
        .map(|_| {
            // 30% deletes of a random earlier key (which may already be
            // gone — deletes of absent facts must be no-ops end to end).
            if !log.is_empty() && xorshift(rng) % 10 < 3 {
                let pick = (xorshift(rng) as usize) % log.len();
                let (source, label, target) = log[pick].key();
                FactChange::Delete { source: source.to_string(), label, target: target.to_string() }
            } else {
                FactChange::Put {
                    source: format!("n{}", xorshift(rng) as usize % nodes),
                    label: Letter::new(labels[xorshift(rng) as usize % labels.len()]),
                    target: format!("n{}", xorshift(rng) as usize % nodes),
                    multiplicity: 1 + xorshift(rng) % 4,
                    exogenous: xorshift(rng).is_multiple_of(12),
                }
            }
        })
        .collect()
}

/// Runs one query family through the churn, returning how many snapshots the
/// incremental path actually served (vs full rebuilds / fallbacks).
fn churn(pattern: &str, bag: bool, seed: u64, rounds: usize) -> usize {
    let mut query = Rpq::parse(pattern).unwrap();
    if bag {
        query = query.with_bag_semantics();
    }
    let engine = Engine::new();
    let prepared = engine.prepare(&query).unwrap();
    let mut solver = IncrementalSolver::new();
    let mut rng = seed;
    let mut log: Vec<FactChange> = Vec::new();
    let mut incremental_snapshots = 0;
    // Every label the corpus patterns mention, plus noise letters.
    let labels = ['a', 'b', 'c', 'd', 'e', 'x'];
    for round in 0..rounds {
        let delta = random_delta(&mut rng, &log, 8, &labels);
        log.extend(delta.iter().cloned());
        let db = materialize(&log);
        let want_cut = round % 2 == 0;
        let (incremental, mode) = prepared
            .route_incremental(
                &mut solver,
                &db,
                Some(&delta),
                want_cut,
                &RouteBudget::UNLIMITED,
                &Router::new(),
                &mut Trace::disabled(),
            )
            .map(|(tiered, mode)| (tiered.outcome, mode))
            .unwrap_or_else(|e| panic!("{pattern} round {round}: {e}"));
        if mode == SolveMode::Incremental {
            incremental_snapshots += 1;
        }
        // The retained flow must stay feasible after every edit batch:
        // capacity bounds, conservation, and the recorded total.
        solver
            .check_consistency()
            .unwrap_or_else(|e| panic!("{pattern} round {round}: inconsistent residuals: {e}"));
        let fresh = prepared.solve_with_cut(&db, want_cut).unwrap();
        assert_eq!(
            incremental.value, fresh.value,
            "{pattern} (bag={bag}) round {round}: incremental {mode:?} disagrees with fresh"
        );
        if want_cut {
            if let Some(cut) = &incremental.contingency_set {
                let set: BTreeSet<_> = cut.iter().copied().collect();
                assert!(
                    query.is_contingency_set(&db, &set),
                    "{pattern} round {round}: invalid witness"
                );
                assert_eq!(
                    ResilienceValue::Finite(query.cost(&db, &set)),
                    incremental.value,
                    "{pattern} round {round}: witness cost is not optimal"
                );
            }
        }
        // Third opinion on small instances: the subset-enumeration oracle.
        if db.num_facts() <= 7 {
            let oracle =
                Engine::new().solve_with(Algorithm::ExactEnumeration, &query, &db).unwrap();
            assert_eq!(oracle.value, fresh.value, "{pattern} round {round}: oracle disagrees");
        }
    }
    incremental_snapshots
}

#[test]
fn local_queries_survive_two_hundred_random_edits() {
    // The tentpole path: a local language, patched in place per delta.
    let incremental = churn("ax*b", false, 0x5EED_0001, 200);
    assert!(incremental > 150, "only {incremental}/200 snapshots were incremental");
}

#[test]
fn local_disjunctions_and_bag_semantics_stay_consistent() {
    let incremental = churn("ab|ad|cd", false, 0x5EED_0002, 200);
    assert!(incremental > 150, "only {incremental}/200 snapshots were incremental");
    let incremental = churn("ax*b", true, 0x5EED_0003, 200);
    assert!(incremental > 150, "only {incremental}/200 bag snapshots were incremental");
}

#[test]
fn non_local_plan_families_fall_back_to_full_solves() {
    // Chain (Prp 7.6) and one-dangling (Prp 7.9) plans have no patching
    // path: every snapshot must be a full solve, and still agree.
    assert_eq!(churn("ab|bc", false, 0x5EED_0004, 60), 0);
    assert_eq!(churn("abc|be", false, 0x5EED_0005, 60), 0);
}
