//! Exact-versus-polynomial benchmark ("who wins, and where"): on languages
//! with tractable resilience the MinCut-based algorithms scale polynomially
//! while the exact branch-and-bound blows up; on NP-hard languages only the
//! exponential solver is available and its cost grows with the instance.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rpq_bench::{aa_path_db, flow_db_of_size};
use rpq_resilience::algorithms::Algorithm;
use rpq_resilience::engine::Engine;
use rpq_resilience::rpq::Rpq;
use std::time::Duration;

fn exact_vs_poly(c: &mut Criterion) {
    // Tractable language ax*b: polynomial algorithm vs exact branch-and-bound.
    let mut group = c.benchmark_group("exact_vs_poly/ax_star_b");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(200));
    let query = Rpq::parse("ax*b").unwrap().with_bag_semantics();
    // The exact solver is exponential: ~9 ms at 54 facts, ~170 ms at 87,
    // effectively forever at 231 — so it is only *benchmarked* on sizes
    // where one iteration terminates (the blow-up is still plainly visible),
    // while the polynomial side sweeps further.
    for size in [64usize, 96] {
        let db = flow_db_of_size(size);
        // Sanity: both solvers agree.
        assert_eq!(
            Engine::new().solve_with(Algorithm::Local, &query, &db).unwrap().value,
            Engine::new().solve_with(Algorithm::ExactBranchAndBound, &query, &db).unwrap().value
        );
        group.bench_with_input(BenchmarkId::new("exact_bb", db.num_facts()), &db, |b, db| {
            b.iter(|| {
                Engine::new().solve_with(Algorithm::ExactBranchAndBound, &query, db).unwrap().value
            })
        });
    }
    for size in [64usize, 96, 256, 1024] {
        let db = flow_db_of_size(size);
        group.bench_with_input(BenchmarkId::new("mincut_poly", db.num_facts()), &db, |b, db| {
            b.iter(|| Engine::new().solve_with(Algorithm::Local, &query, db).unwrap().value)
        });
    }
    group.finish();

    // NP-hard language aa: only the exponential solver applies; its cost grows
    // with the path length (the polynomial algorithms refuse the language).
    let mut group = c.benchmark_group("exact_vs_poly/aa_paths");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200));
    let aa = Rpq::parse("aa").unwrap();
    assert!(Engine::new().solve_with(Algorithm::Local, &aa, &aa_path_db(4)).is_err());
    for n in [8usize, 16, 24] {
        let db = aa_path_db(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &db, |b, db| {
            b.iter(|| {
                Engine::new().solve_with(Algorithm::ExactBranchAndBound, &aa, db).unwrap().value
            })
        });
    }
    group.finish();
}

criterion_group!(benches, exact_vs_poly);
criterion_main!(benches);
