//! `obs_overhead`: cost of the observability layer on the batch hot path.
//!
//! PR 8 threads `rpq_obs::Trace` spans through every solve phase and records
//! per-request latency histograms server-side. Both are designed to be free
//! when off: a disabled `Trace` is a no-op enum variant (no clock reads), and
//! histograms only fire in the server's response path. This benchmark
//! quantifies both halves on the 16-database `ax*b` batch from
//! `batch_parallel` (`jobs = 1`, so the numbers are directly comparable with
//! the committed `BENCH_batch_parallel.json` `engine/jobs_1` series):
//!
//! * `untraced/<facts>` — `PreparedQuery::route_batch` through a disabled
//!   trace: the exact code path of an ordinary (non-`trace: true`) request.
//!   The acceptance criterion is that this regresses < 3% against the
//!   pre-observability `engine/jobs_1` baseline;
//! * `traced/<facts>` — the same batch through an enabled `Trace`, i.e. what
//!   a `"trace": true` request (or a server with `--slow-query-log`) pays for
//!   its phase breakdown;
//! * `histogram_record` — one `MetricsRegistry` histogram lookup + record,
//!   the per-request server-side accounting cost (nanoseconds; amortized to
//!   nothing against a solve).
//!
//! Run with `CRITERION_SAVE=BENCH_obs_overhead.json cargo bench -p rpq-bench
//! --bench obs_overhead` to refresh the committed artifact (see
//! EXPERIMENTS.md).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rpq_bench::workloads::flow_db_of_size;
use rpq_graphdb::GraphDb;
use rpq_resilience::engine::Engine;
use rpq_resilience::obs::{MetricsRegistry, Trace};
use rpq_resilience::router::{RouteBudget, Router};
use rpq_resilience::rpq::Rpq;

const BATCH: usize = 16;

fn corpus(facts: usize) -> Vec<GraphDb> {
    // Same construction as the `batch_parallel` bench: vary the size a
    // little so the databases are not identical.
    (0..BATCH).map(|i| flow_db_of_size(facts + 8 * i)).collect()
}

fn bench_obs_overhead(c: &mut Criterion) {
    let engine = Engine::new();
    let prepared = engine.prepare(&Rpq::parse("ax*b").unwrap()).unwrap();
    let mut group = c.benchmark_group("obs_overhead");
    group.throughput(Throughput::Elements(BATCH as u64));

    for facts in [512, 2048] {
        let dbs = corpus(facts);
        // Sanity: tracing must not change results, only record spans.
        let untraced: Vec<_> = prepared
            .route_batch(
                &dbs,
                1,
                true,
                &RouteBudget::UNLIMITED,
                &Router::new(),
                &mut Trace::disabled(),
            )
            .into_iter()
            .map(|r| r.unwrap().outcome.value)
            .collect();
        let mut check = Trace::enabled();
        let traced: Vec<_> = prepared
            .route_batch(&dbs, 1, true, &RouteBudget::UNLIMITED, &Router::new(), &mut check)
            .into_iter()
            .map(|r| r.unwrap().outcome.value)
            .collect();
        assert_eq!(traced, untraced, "facts={facts}");
        assert!(check.seal() > 0, "enabled trace must record spans");

        group.bench_with_input(BenchmarkId::new("untraced", facts), &dbs, |b, dbs| {
            b.iter(|| {
                prepared.route_batch(
                    dbs,
                    1,
                    true,
                    &RouteBudget::UNLIMITED,
                    &Router::new(),
                    &mut Trace::disabled(),
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("traced", facts), &dbs, |b, dbs| {
            b.iter(|| {
                let mut trace = Trace::enabled();
                let (budget, router) = (RouteBudget::UNLIMITED, Router::new());
                let results = prepared.route_batch(dbs, 1, true, &budget, &router, &mut trace);
                (results, trace.seal())
            });
        });
    }
    group.finish();

    // The server-side per-request accounting: sharded registry lookup plus
    // one atomic histogram record.
    let registry = MetricsRegistry::default();
    let mut group = c.benchmark_group("obs_overhead");
    group.throughput(Throughput::Elements(1));
    let mut us = 0u64;
    group.bench_function("histogram_record", |b| {
        b.iter(|| {
            us = us.wrapping_add(137);
            registry.histogram(["solve", "local", "poly", "dinic"]).record(us)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
