//! `batch_parallel`: wall-clock scaling of parallel batch solving.
//!
//! `PreparedQuery::route_batch` splits the per-database half of a
//! batch over scoped worker threads (the query-only plan is shared
//! read-only). This benchmark sweeps the `jobs` count on a fixed batch of
//! flow-shaped `ax*b` databases, at two database sizes:
//!
//! * `engine/jobs_<j>/<facts>` — `route_batch(&dbs, j, …)` on 16
//!   pre-parsed databases of about `<facts>` facts each (`jobs_1` is the
//!   sequential baseline: it takes the sequential code path);
//! * `server/jobs_<j>` — the same batch as one end-to-end `solve_batch`
//!   request (`"jobs": j`) over a persistent TCP connection, including
//!   database text parsing server-side.
//!
//! On a multi-core host the `jobs_2`/`jobs_4` series should undercut
//! `jobs_1` roughly linearly until the per-database work no longer amortizes
//! a thread spawn; on a single-core host all series coincide (modulo the
//! scoped-thread overhead, which this benchmark also makes visible). Run
//! with `CRITERION_SAVE=BENCH_batch_parallel.json cargo bench -p rpq-bench
//! --bench batch_parallel` to refresh the committed artifact (see
//! EXPERIMENTS.md).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rpq_bench::workloads::flow_db_of_size;
use rpq_graphdb::{text, GraphDb};
use rpq_resilience::engine::Engine;
use rpq_resilience::obs::Trace;
use rpq_resilience::router::{RouteBudget, Router};
use rpq_resilience::rpq::Rpq;
use rpq_server::{Client, QuerySpec, Request, Server, ServerConfig};

const BATCH: usize = 16;
const JOBS: [usize; 3] = [1, 2, 4];

fn corpus(facts: usize) -> Vec<GraphDb> {
    // Vary the seed-ish size a little so the databases are not identical.
    (0..BATCH).map(|i| flow_db_of_size(facts + 8 * i)).collect()
}

fn bench_batch_parallel(c: &mut Criterion) {
    let engine = Engine::new();
    let prepared = engine.prepare(&Rpq::parse("ax*b").unwrap()).unwrap();
    let mut group = c.benchmark_group("batch_parallel");
    group.throughput(Throughput::Elements(BATCH as u64));

    for facts in [512, 2048] {
        let dbs = corpus(facts);
        // Sanity: parallel and sequential agree before we time anything.
        let sequential: Vec<_> = prepared
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
        for jobs in JOBS {
            let parallel: Vec<_> = prepared
                .route_batch(
                    &dbs,
                    jobs,
                    true,
                    &RouteBudget::UNLIMITED,
                    &Router::new(),
                    &mut Trace::disabled(),
                )
                .into_iter()
                .map(|r| r.unwrap().outcome.value)
                .collect();
            assert_eq!(parallel, sequential, "jobs={jobs}");
            group.bench_with_input(
                BenchmarkId::new(format!("engine/jobs_{jobs}"), facts),
                &dbs,
                |b, dbs| {
                    b.iter(|| {
                        prepared.route_batch(
                            dbs,
                            jobs,
                            true,
                            &RouteBudget::UNLIMITED,
                            &Router::new(),
                            &mut Trace::disabled(),
                        )
                    });
                },
            );
        }
    }

    // End to end: the same workload as one `solve_batch` request with a
    // per-request `jobs` setting, over one persistent connection.
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
    let running = server.spawn().expect("spawn server");
    let dbs_text: Vec<String> = corpus(512).iter().map(text::serialize).collect();
    let mut client = Client::connect(running.addr).expect("connect");
    for jobs in JOBS {
        let request = Request::SolveBatch {
            query: QuerySpec { jobs: Some(jobs), ..QuerySpec::new("ax*b") },
            dbs: dbs_text.clone(),
        };
        group.bench_function(BenchmarkId::new("server", format!("jobs_{jobs}")), |b| {
            b.iter(|| client.request(&request).expect("batch response"));
        });
    }
    group.finish();

    let mut closer = Client::connect(running.addr).expect("connect for shutdown");
    closer.request(&Request::Shutdown).expect("shutdown ack");
    running.join().expect("clean server exit");
}

criterion_group!(benches, bench_batch_parallel);
criterion_main!(benches);
