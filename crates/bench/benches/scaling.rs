//! Scaling benchmarks for the paper's complexity claims:
//!
//! * Theorem 3.13 — local-language resilience in `Õ(|A|·|Σ|·|D|)` (workloads
//!   `local_ax_star_b_flow` and `local_ab_ad_cd_layered`);
//! * Proposition 7.6 — bipartite-chain resilience, quadratic in `|D|`
//!   (workload `chain_ab_bc_random`);
//! * Proposition 7.9 — one-dangling resilience, near-linear in `|D|`
//!   (workload `one_dangling_abc_be_random`).
//!
//! The measured series (time vs `|D|`) are recorded in `EXPERIMENTS.md`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rpq_bench::{scaling_workloads, workload_language};
use rpq_resilience::engine::Engine;
use rpq_resilience::rpq::Rpq;
use std::time::Duration;

fn scaling(c: &mut Criterion) {
    for workload in scaling_workloads() {
        let mut group = c.benchmark_group(format!("scaling/{}", workload.name));
        group
            .sample_size(10)
            .measurement_time(Duration::from_secs(2))
            .warm_up_time(Duration::from_millis(300));
        let language = workload_language(&workload);
        for &size in &workload.sizes {
            let db = (workload.build)(size);
            let query = Rpq::new(language.clone()).with_bag_semantics();
            group.throughput(criterion::Throughput::Elements(db.num_facts() as u64));
            group.bench_with_input(BenchmarkId::from_parameter(db.num_facts()), &db, |b, db| {
                b.iter(|| Engine::new().solve(&query, db).expect("tractable workload"));
            });
        }
        group.finish();
    }
}

criterion_group!(benches, scaling);
criterion_main!(benches);
