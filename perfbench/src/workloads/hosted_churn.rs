//! `hosted_churn`: writes beside reads on the snapshot store. Eight hosted
//! `ab|ad|cd` layered databases of about 3.4k facts each are loaded with
//! `db_put` at set-up; each operation is a burst of `WRITE_BURST` one-fact
//! toggle `db_patch`es of one fact (the write, a net change of that fact)
//! followed by a `db_solve` at the new head with a contingency set (the
//! read), both through `ServerState::handle_line`. A read at a new
//! head replays the log into a fresh materialization, then resumes the
//! retained flow incrementally. Ingest runs only at set-up.

use super::{
    check_answer, ok_response, prepare, response_spans, spec, time_decode, time_prepare, Plan,
    Workload, WRITE_BURST,
};
use crate::gen::{fact_keys, Family, Rng};
use crate::measure::{estimate_metric, share, solve_metric, us_since, Report};
use rpq_graphdb::delta::{changes_from_db, materialize, parse_patch, FactChange};
use rpq_graphdb::text;
use rpq_resilience::engine::PreparedQuery;
use rpq_resilience::rpq::ResilienceValue;
use rpq_server::json::Json;
use rpq_server::protocol::Request;
use rpq_server::{ServerConfig, ServerState};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

const FAMILY: Family = Family::AbAdCd;
/// Hosted databases.
pub const DATABASES: usize = 8;
/// Size step of each hosted database (about 3.4k facts).
pub const SIZE: usize = 4_096;
/// Facts per database that the writes toggle in and out.
const TOGGLED: usize = 32;

struct Hosted {
    /// The database text.
    text: String,
    put_line: String,
    /// The untraced and the traced read line.
    read_lines: (String, String),
    /// Per toggled fact: the removing and the re-adding patch, as
    /// `(request line, patch text)`.
    patches: Vec<[(String, String); 2]>,
    /// The database as a log of puts: the start of the benchmark's own
    /// copy of the store's log.
    base_log: Vec<FactChange>,
}

pub struct HostedChurn {
    prepare_line: String,
    prepared: PreparedQuery,
    hosted: Vec<Hosted>,
    /// Per operation: the database and the toggled fact.
    stream: Vec<(usize, usize)>,
}

impl HostedChurn {
    pub fn generate(seed: u64, plan: &Plan) -> HostedChurn {
        let mut rng = Rng::new(seed, 2);
        let hosted = (0..DATABASES)
            .map(|d| {
                let name = format!("h{d}");
                let db_text = FAMILY.database(SIZE, &mut rng);
                let keys = fact_keys(&db_text);
                let mut picked: Vec<usize> = Vec::new();
                while picked.len() < TOGGLED {
                    let i = rng.below(keys.len());
                    if !picked.contains(&i) {
                        picked.push(i);
                    }
                }
                let patch = |text: String| {
                    let line = Request::DbPatch { name: name.clone(), patch: text.clone() };
                    (line.to_json().to_string(), text)
                };
                let patches = picked
                    .iter()
                    .map(|&i| {
                        let (s, l, t) = &keys[i];
                        [patch(format!("- {s} {l} {t}\n")), patch(format!("+ {s} {l} {t}\n"))]
                    })
                    .collect();
                let read = |traced: bool| {
                    let query = spec(FAMILY.pattern(), traced);
                    Request::DbSolve { query, name: name.clone(), snapshot: None, snapshots: None }
                        .to_json()
                        .to_string()
                };
                let db = text::parse(&db_text).expect("generated text parses");
                Hosted {
                    put_line: Request::DbPut { name: name.clone(), db: db_text.clone() }
                        .to_json()
                        .to_string(),
                    text: db_text,
                    read_lines: (read(false), read(true)),
                    patches,
                    base_log: changes_from_db(&db),
                }
            })
            .collect();
        let stream =
            (0..plan.total_ops()).map(|_| (rng.below(DATABASES), rng.below(TOGGLED))).collect();
        HostedChurn {
            prepare_line: Request::Prepare { query: spec(FAMILY.pattern(), false) }
                .to_json()
                .to_string(),
            prepared: prepare(FAMILY),
            hosted,
            stream,
        }
    }
}

impl Workload for HostedChurn {
    fn stream_digest(&self, plan: &Plan) -> u64 {
        let mut absent = [0u64; DATABASES];
        let mut lines = Vec::new();
        for (op, &(d, f)) in self.stream.iter().enumerate() {
            if op % plan.ops_per_round == 0 {
                absent = [0; DATABASES];
            }
            let hosted = &self.hosted[d];
            for _ in 0..WRITE_BURST {
                lines.push(hosted.patches[f][(absent[d] >> f) as usize & 1].0.as_str());
                absent[d] ^= 1 << f;
            }
            let (plain, traced) = &hosted.read_lines;
            lines.push(if plan.traces(op) { traced.as_str() } else { plain.as_str() });
        }
        super::digest(lines)
    }

    fn run(&self, plan: &Plan) -> Report {
        let mut report = Report::default();
        // Reference values per database and set of absent toggled facts.
        let mut references: HashMap<(usize, u64), ResilienceValue> = HashMap::new();
        let (mut hits, mut lookups) = (0, 0);
        let (mut incremental, mut result_hits, mut solves) = (0, 0, 0);
        let (mut log_bytes, mut facts) = (0, 0);
        let mut op = 0;
        for _ in 0..plan.rounds {
            let start = Instant::now();
            let state = ServerState::new(ServerConfig::default());
            let mut setup_ok = ok_response(&state.handle_line(&self.prepare_line).0).is_some();
            for hosted in &self.hosted {
                setup_ok &= ok_response(&state.handle_line(&hosted.put_line).0).is_some();
            }
            // The first read of each database builds its retained flow.
            for hosted in &self.hosted {
                setup_ok &= ok_response(&state.handle_line(&hosted.read_lines.0).0).is_some();
            }
            report.setup_s.push(us_since(start) / 1e6);
            if !setup_ok {
                report.mismatch("set-up request failed".into());
            }
            if plan.traced {
                report.ledger.sample("engine.prepare_us", time_prepare(FAMILY));
            }
            let mut absent = [0u64; DATABASES];
            // The benchmark's own copy of each database's log.
            let mut logs: Vec<Vec<FactChange>> =
                self.hosted.iter().map(|h| h.base_log.clone()).collect();
            for _ in 0..plan.ops_per_round {
                let (d, f) = self.stream[op];
                let hosted = &self.hosted[d];
                let traced = plan.traces(op);

                // A burst of toggles of one fact: an odd number of them, so
                // the read sees the database change by that one fact.
                let mut burst = Vec::with_capacity(WRITE_BURST);
                let start = Instant::now();
                for _ in 0..WRITE_BURST {
                    let (line, patch) = &hosted.patches[f][(absent[d] >> f) as usize & 1];
                    burst.push((state.handle_line(line).0, patch));
                    absent[d] ^= 1 << f;
                }
                let wall = us_since(start) / WRITE_BURST as f64;
                for (response, patch) in burst {
                    report.attempted += 1;
                    if ok_response(&response).is_none() {
                        report.failed += 1;
                        report.mismatch(format!("op {op}: write failed: {response}"));
                    }
                    logs[d].extend(parse_patch(patch).expect("generated patches parse"));
                }
                if plan.traced {
                    let start = Instant::now();
                    black_box(parse_patch(&hosted.patches[f][0].1).is_ok());
                    report.ledger.write(op as u64, us_since(start), wall);
                } else {
                    report.write_us.push(wall);
                }

                let line = if traced { &hosted.read_lines.1 } else { &hosted.read_lines.0 };
                let start = Instant::now();
                let (response, _) = state.handle_line(line);
                let wall = us_since(start);
                report.attempted += 1;
                let Some(json) = ok_response(&response) else {
                    report.failed += 1;
                    report.mismatch(format!("op {op}: read failed: {response}"));
                    op += 1;
                    continue;
                };
                // The reference: a fresh solve of the snapshot, rebuilt from
                // the log with `delta::materialize`.
                let expected = *references.entry((d, absent[d])).or_insert_with(|| {
                    let start = Instant::now();
                    let snapshot = materialize(&logs[d]);
                    let ns = us_since(start) * 1_000.0;
                    let start = Instant::now();
                    let outcome = self.prepared.solve_with_cut(&snapshot, true);
                    let solve_us = us_since(start);
                    if plan.traced {
                        let estimate_us = self.prepared.plan().cost.estimate_us_for(&snapshot);
                        let ledger = &mut report.ledger;
                        ledger.sample("materialize.ns_per_entry", ns / logs[d].len() as f64);
                        ledger.sample(solve_metric(FAMILY), solve_us);
                        ledger.sample(estimate_metric(FAMILY), estimate_us as f64 / solve_us);
                    }
                    outcome.expect("reference solves succeed").value
                });
                check_answer(&json, expected, &mut report, &format!("op {op}"));
                if json.get("incremental").and_then(Json::as_bool) != Some(true) {
                    report.mismatch(format!("op {op}: the read did not resume incrementally"));
                }
                if traced {
                    let mut spans = response_spans(&json);
                    spans.push(("wire.decode".into(), time_decode(line)));
                    report.ledger.operation(op as u64, wall, &spans);
                } else if plan.traced {
                    report.ledger.untraced(wall);
                } else {
                    report.primary_us.push(wall);
                }
                op += 1;
            }
            let cache = state.cache().stats();
            hits += cache.hits;
            lookups += cache.hits + cache.misses;
            let store = state.store().stats();
            incremental += store.incremental_solves;
            solves += store.incremental_solves + store.full_solves;
            result_hits += store.result_hits;
            for info in state.store().list() {
                log_bytes += info.log_bytes as u64;
                facts += info.facts as u64;
            }
        }
        if plan.traced {
            for hosted in &self.hosted {
                let start = Instant::now();
                let db = text::parse(&hosted.text).expect("generated text parses");
                let ns = us_since(start) * 1_000.0;
                report.ledger.sample("ingest.parse_ns_per_fact", ns / db.num_facts() as f64);
            }
        }
        report.ledger.set("plan_cache.hit_share", share(hits, lookups));
        report.ledger.set("store.incremental_share", share(incremental, solves));
        report.ledger.set("store.result_hit_share", share(result_hits, solves));
        report.ledger.set("store.log_bytes_per_fact", share(log_bytes, facts));
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_take_the_incremental_path() {
        let plan = Plan { rounds: 1, ops_per_round: 12, traced: true };
        let report = HostedChurn::generate(3, &plan).run(&plan);
        assert_eq!(report.wrong_count, 0, "{:?}", report.wrong);
        let metrics = report.ledger.metrics();
        let value = |name: &str| metrics.iter().find(|m| m.0 == name).map(|m| m.1);
        // The 8 bootstrap reads of the set-up are full solves; every read
        // after a write resumes incrementally.
        assert_eq!(value("store.incremental_share"), Some(12.0 / 20.0));
        assert!(value("store.materialize_us").unwrap_or(0.0) > 0.0);
        assert!(value("materialize.ns_per_entry").unwrap_or(0.0) > 0.0);
    }
}
