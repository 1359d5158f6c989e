//! `server_throughput`: end-to-end cost of the `rpq-server` service layer.
//!
//! The server amortizes query preparation across databases and connections
//! via its language-keyed prepared-query cache; this benchmark measures what
//! the protocol + TCP + worker-pool layers cost on top of the direct engine,
//! and what a cache hit saves versus re-preparing:
//!
//! * `direct/solve_batch_32` — baseline: one `PreparedQuery::route_batch`
//!   over 32 pre-parsed databases, no server;
//! * `server/solve_batch_32_one_conn` — the same 32 databases as one
//!   `solve_batch` request over one persistent TCP connection (includes
//!   database text parsing server-side);
//! * `server/solve_batch_32_4_threads` — the same 32 databases split over 4
//!   concurrent client threads (8 each, fresh connections), the acceptance
//!   scenario of the server subsystem;
//! * `server/prepare_cached` — a `prepare` round-trip answered from the
//!   cache (spelling differs from the cached entry, so canonicalization is
//!   on the measured path);
//! * `direct/prepare_uncached` — what the cache saves: a full
//!   `Engine::prepare` (plus regex parsing) per call.
//!
//! Run with `CRITERION_SAVE=BENCH_server.json cargo bench -p rpq-bench
//! --bench server_throughput` to refresh the committed artifact (see
//! EXPERIMENTS.md).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rpq_automata::Word;
use rpq_graphdb::generate::word_path;
use rpq_graphdb::text;
use rpq_resilience::engine::Engine;
use rpq_resilience::obs::Trace;
use rpq_resilience::router::{RouteBudget, Router};
use rpq_resilience::rpq::Rpq;
use rpq_server::{Client, QuerySpec, Request, Server, ServerConfig};

/// 32 path databases `a x^k b` with k cycling 0..8 (all resilience 1 for
/// `ax*b`, sizes 2..10 facts).
fn corpus() -> Vec<String> {
    (0..32)
        .map(|i| {
            let word = format!("a{}b", "x".repeat(i % 8));
            text::serialize(&word_path(&Word::from_str_word(&word)))
        })
        .collect()
}

fn bench_server_throughput(c: &mut Criterion) {
    let dbs = corpus();
    let mut group = c.benchmark_group("server_throughput");
    group.throughput(Throughput::Elements(dbs.len() as u64));

    // Baseline: the engine alone, databases already parsed.
    let engine = Engine::new();
    let prepared = engine.prepare(&Rpq::parse("ax*b").unwrap()).unwrap();
    let parsed: Vec<_> = dbs.iter().map(|t| text::parse(t).unwrap()).collect();
    group.bench_function("direct/solve_batch_32", |b| {
        b.iter(|| {
            prepared.route_batch(
                &parsed,
                1,
                true,
                &RouteBudget::UNLIMITED,
                &Router::new(),
                &mut Trace::disabled(),
            )
        });
    });

    let server =
        Server::bind("127.0.0.1:0", ServerConfig { threads: 4, ..ServerConfig::default() })
            .expect("bind loopback");
    let running = server.spawn().expect("spawn server");
    let addr = running.addr;

    let mut client = Client::connect(addr).expect("connect");
    let batch_request = Request::SolveBatch { query: QuerySpec::new("ax*b"), dbs: dbs.clone() };
    group.bench_function("server/solve_batch_32_one_conn", |b| {
        b.iter(|| client.request(&batch_request).expect("batch response"));
    });

    group.throughput(Throughput::Elements(1));
    let prepare_request = Request::Prepare { query: QuerySpec::new("a(x)*b") };
    group.bench_function("server/prepare_cached", |b| {
        b.iter(|| client.request(&prepare_request).expect("prepare response"));
    });
    group.bench_function("direct/prepare_uncached", |b| {
        b.iter(|| engine.prepare(&Rpq::parse("a(x)*b").unwrap()).unwrap());
    });

    // With the multiplexed scheduler an idle persistent connection costs no
    // worker (it is parked in the poller), so keeping `client` open would no
    // longer skew the concurrency benchmark below — closing it just keeps
    // the measured connection count at exactly 4.
    drop(client);

    group.throughput(Throughput::Elements(dbs.len() as u64));
    let chunks: Vec<Vec<String>> = dbs.chunks(8).map(<[String]>::to_vec).collect();
    group.bench_function("server/solve_batch_32_4_threads", |b| {
        b.iter(|| {
            let handles: Vec<_> = chunks
                .iter()
                .cloned()
                .map(|chunk| {
                    std::thread::spawn(move || {
                        let mut client = Client::connect(addr).expect("connect");
                        client
                            .request(&Request::SolveBatch {
                                query: QuerySpec::new("ax*b"),
                                dbs: chunk,
                            })
                            .expect("batch response")
                    })
                })
                .collect();
            for handle in handles {
                handle.join().expect("client thread");
            }
        });
    });
    group.finish();

    let mut closer = Client::connect(addr).expect("connect for shutdown");
    closer.request(&Request::Shutdown).expect("shutdown ack");
    running.join().expect("clean server exit");
}

criterion_group!(benches, bench_server_throughput);
criterion_main!(benches);
