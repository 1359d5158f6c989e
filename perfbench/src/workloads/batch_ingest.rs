//! `batch_ingest`: `solve_batch` of 16 flow-shaped `ax*b` database texts of
//! about 512 facts each, with contingency sets and `jobs: 1`, through
//! `ServerState::handle_line` in-process. Ingest (text parse and database
//! build) dominates the request; the flow solve is a small part of it.

use super::{
    check_answer, ok_response, prepare, reference, response_spans, spec, time_decode, time_prepare,
    Plan, Toggle, Workload,
};
use crate::gen::{Family, Rng};
use crate::measure::{share, us_since, Report};
use rpq_resilience::rpq::ResilienceValue;
use rpq_server::protocol::Request;
use rpq_server::{ServerConfig, ServerState};
use std::time::Instant;

const FAMILY: Family = Family::AxStarB;
/// Databases per request.
pub const BATCH: usize = 16;
/// Size step of each database (see `Family::database`).
pub const SIZE: usize = 512;
/// Distinct databases per seed; each request draws its 16 from them, so
/// every request is a different batch and the request cost varies little
/// from seed to seed.
const POOL: usize = 256;

pub struct BatchIngest {
    prepare_line: String,
    /// The pooled database texts and their reference values.
    dbs: Vec<String>,
    expected: Vec<ResilienceValue>,
    /// The pooled databases of each request.
    stream: Vec<[usize; BATCH]>,
    side: Toggle,
    samples: Vec<(&'static str, f64)>,
}

impl BatchIngest {
    pub fn generate(seed: u64, plan: &Plan) -> BatchIngest {
        let mut rng = Rng::new(seed, 1);
        let prepared = prepare(FAMILY);
        let mut samples = Vec::new();
        let dbs: Vec<String> = (0..POOL).map(|_| FAMILY.database(SIZE, &mut rng)).collect();
        let expected =
            dbs.iter().map(|db| reference(&prepared, FAMILY, db, &mut samples)).collect();
        let stream =
            (0..plan.total_ops()).map(|_| std::array::from_fn(|_| rng.below(POOL))).collect();
        BatchIngest {
            prepare_line: Request::Prepare { query: spec(FAMILY.pattern(), false) }
                .to_json()
                .to_string(),
            dbs,
            expected,
            stream,
            side: Toggle::new("side", &mut rng),
            samples,
        }
    }
}

impl BatchIngest {
    /// The request line of operation `op`.
    fn line(&self, op: usize, traced: bool) -> String {
        let query = rpq_server::QuerySpec { jobs: Some(1), ..spec(FAMILY.pattern(), traced) };
        let dbs = self.stream[op].iter().map(|&i| self.dbs[i].clone()).collect();
        Request::SolveBatch { query, dbs }.to_json().to_string()
    }
}

impl Workload for BatchIngest {
    fn stream_digest(&self, plan: &Plan) -> u64 {
        let lines: Vec<String> =
            (0..self.stream.len()).map(|op| self.line(op, plan.traces(op))).collect();
        super::digest(lines.iter().map(String::as_str))
    }

    fn run(&self, plan: &Plan) -> Report {
        let mut report = Report::default();
        if plan.traced {
            for &(metric, value) in &self.samples {
                report.ledger.sample(metric, value);
            }
        }
        let (mut hits, mut lookups) = (0, 0);
        let mut op = 0;
        for _ in 0..plan.rounds {
            let start = Instant::now();
            let state = ServerState::new(ServerConfig::default());
            let mut side = self.side.clone_fresh();
            let mut setup_ok = ok_response(&state.handle_line(&self.prepare_line).0).is_some();
            setup_ok &= ok_response(&state.handle_line(&side.put_line).0).is_some();
            report.setup_s.push(us_since(start) / 1e6);
            if !setup_ok {
                report.mismatch("set-up request failed".into());
            }
            if plan.traced {
                report.ledger.sample("engine.prepare_us", time_prepare(FAMILY));
            }
            for _ in 0..plan.ops_per_round {
                let traced = plan.traces(op);
                let line = self.line(op, traced);
                let start = Instant::now();
                let (response, _) = state.handle_line(&line);
                let wall = us_since(start);
                report.attempted += 1;
                match ok_response(&response) {
                    Some(json) => {
                        let results = json.get("results").and_then(|r| r.as_array()).unwrap_or(&[]);
                        if results.len() != BATCH {
                            report.mismatch(format!("op {op}: {} results", results.len()));
                        }
                        for (k, (answer, &i)) in results.iter().zip(&self.stream[op]).enumerate() {
                            let what = format!("op {op} db {k}");
                            check_answer(answer, self.expected[i], &mut report, &what);
                        }
                        if traced {
                            let mut spans = response_spans(&json);
                            spans.push(("wire.decode".into(), time_decode(&line)));
                            report.ledger.operation(op as u64, wall, &spans);
                        }
                    }
                    None => {
                        report.failed += 1;
                        report.mismatch(format!("op {op} failed"));
                    }
                }
                if !traced {
                    if plan.traced {
                        report.ledger.untraced(wall);
                    } else {
                        report.primary_us.push(wall);
                    }
                }
                side.write(&mut |l| state.handle_line(l).0, &mut report, plan.traced, op as u64);
                op += 1;
            }
            let stats = state.cache().stats();
            hits += stats.hits;
            lookups += stats.hits + stats.misses;
        }
        report.ledger.set("plan_cache.hit_share", share(hits, lookups));
        report
    }
}
