//! Data-cleaning scenario: how robust is a compliance violation to repairs?
//!
//! The motivation for resilience in the paper is to quantify how "robust" a
//! query answer is when facts may be wrong or may be deleted. This example
//! plays that out on a small access-control knowledge graph:
//!
//! * `g` edges: a user is **granted** membership of a group,
//! * `d` edges: a group is allowed to **delegate** to another group,
//! * `r` edges: a group can **read** a sensitive dataset.
//!
//! The RPQ `g d* r` holds when some user can reach a sensitive dataset
//! through a chain of delegations — a compliance violation. Its resilience
//! under bag semantics (fact multiplicities = how costly an edge is to
//! revoke) is the minimum total revocation cost needed to eliminate *every*
//! violating path; the contingency set is the cheapest repair.
//!
//! `g d* r` is a local language, so the repair is computed exactly in
//! polynomial time by the Theorem 3.13 reduction to MinCut.
//!
//! Run with `cargo run --example data_cleaning`.

use rpq::graphdb::GraphDb;
use rpq::resilience::classify::classify;
use rpq::resilience::engine::Engine;
use rpq::resilience::rpq::Rpq;

fn main() {
    // (source, label, target, revocation cost)
    let facts: &[(&str, char, &str, u64)] = &[
        // Grants: cheap to revoke for contractors, expensive for employees.
        ("alice", 'g', "engineering", 5),
        ("bob", 'g', "engineering", 5),
        ("carol", 'g', "contractors", 1),
        ("dave", 'g', "analytics", 3),
        // Delegations between groups.
        ("engineering", 'd', "platform", 2),
        ("contractors", 'd', "platform", 1),
        ("platform", 'd', "data_infra", 2),
        ("analytics", 'd', "data_infra", 4),
        // Read access to sensitive datasets.
        ("data_infra", 'r', "payroll_db", 10),
        ("analytics", 'r', "customer_db", 2),
    ];
    let mut db = GraphDb::new();
    for &(source, label, target, cost) in facts {
        let s = db.node(source);
        let t = db.node(target);
        db.add_fact_with_multiplicity(s, label.into(), t, cost);
    }
    println!("Access-control graph ({} facts):", db.num_facts());
    println!("{db}");

    let query = Rpq::parse("g d* r").expect("valid RPQ").with_bag_semantics();
    println!("violation query: {query}");
    println!("violation present: {}", query.holds_on(&db));
    println!("classification: {}", classify(query.language()).label());

    let outcome = Engine::new().solve(&query, &db).expect("resilience computation");
    println!("\nminimum total revocation cost (bag resilience) = {}", outcome.value);
    if let Some(repair) = &outcome.contingency_set {
        println!("cheapest repair (an optimal contingency set):");
        let mut total = 0u64;
        for &fact in repair {
            total += db.multiplicity(fact);
            println!("  revoke {} (cost {})", db.display_fact(fact), db.multiplicity(fact));
        }
        println!("  total cost {total}");
        // The repair really eliminates every violating path.
        let repaired = db.without_facts(&repair.iter().copied().collect());
        assert!(!query.holds_on(&repaired));
        println!("after the repair the violation query no longer holds ✓");
    }

    // Set semantics instead answers: how many *edges* must be wrong for the
    // violation to disappear? (All costs are treated as 1.)
    let set_query = Rpq::parse("g d* r").unwrap();
    let set_outcome = Engine::new().solve(&set_query, &db).expect("resilience computation");
    println!("\nset-semantics resilience (number of facts) = {}", set_outcome.value);

    // A higher resilience means the violation is more entrenched: compare the
    // same database after an extra, independent delegation path is added.
    let mut hardened = db.clone();
    let eng = hardened.node("engineering");
    let shadow = hardened.node("shadow_it");
    let infra = hardened.node("data_infra");
    hardened.add_fact_with_multiplicity(eng, 'd'.into(), shadow, 1);
    hardened.add_fact_with_multiplicity(shadow, 'd'.into(), infra, 1);
    let hardened_outcome = Engine::new().solve(&query, &hardened).expect("resilience computation");
    println!(
        "after adding a shadow delegation path the repair cost grows: {} → {}",
        outcome.value, hardened_outcome.value
    );
}
