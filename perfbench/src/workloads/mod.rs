//! The four workloads. Each is a closed loop with one client: the next
//! operation is issued only after the previous one answered.
//!
//! A run is a fixed number of operations (never a fixed duration), split
//! into rounds. Every round starts from a fresh state and times its set-up,
//! so `setup_s` is sampled several times per run, spread over the run.

pub mod batch_ingest;
pub mod engine_route;
pub mod hosted_churn;
pub mod wire_small;

use crate::gen::Family;
use crate::measure::{estimate_metric, solve_metric, us_since, Report};
use rpq_graphdb::delta::parse_patch;
use rpq_graphdb::text;
use rpq_resilience::engine::{Engine, PreparedQuery};
use rpq_resilience::rpq::{ResilienceValue, Rpq};
use rpq_server::json::Json;
use rpq_server::protocol::{value_json, QuerySpec, Request};
use std::hint::black_box;
use std::time::Instant;

/// How much one run does.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Fresh set-ups per run.
    pub rounds: usize,
    /// Primary operations after each set-up.
    pub ops_per_round: usize,
    /// Whether this is the traced run.
    pub traced: bool,
}

impl Plan {
    pub fn total_ops(&self) -> usize {
        self.rounds * self.ops_per_round
    }

    /// In the traced run every other operation is traced; the untraced ones
    /// give the baseline of `obs.trace_overhead` under the same host phases.
    pub fn traces(&self, op: usize) -> bool {
        self.traced && op.is_multiple_of(2)
    }
}

/// A generated workload, ready to run.
pub trait Workload {
    /// Runs the plan and returns what it measured. Every answer is checked
    /// outside the timed sections.
    fn run(&self, plan: &Plan) -> Report;

    /// A digest of the exact request stream the plan would issue.
    fn stream_digest(&self, plan: &Plan) -> u64;
}

/// The workload names. `BENCHMARK.json` lists the first three; `wire_small`
/// runs on its own and, shortened, as the traced runs' scheduler probe.
pub const NAMES: [&str; 4] = ["batch_ingest", "hosted_churn", "engine_route", "wire_small"];

/// Generates the named workload's inputs for `seed`, sized for `plan`.
pub fn generate(name: &str, seed: u64, plan: &Plan) -> Option<Box<dyn Workload>> {
    Some(match name {
        "batch_ingest" => Box::new(batch_ingest::BatchIngest::generate(seed, plan)),
        "hosted_churn" => Box::new(hosted_churn::HostedChurn::generate(seed, plan)),
        "engine_route" => Box::new(engine_route::EngineRoute::generate(seed, plan)),
        "wire_small" => Box::new(wire_small::WireSmall::generate(seed, plan)),
        _ => return None,
    })
}

/// The nominal operations per second of a workload on a 2-core host: a
/// run of `seconds` issues `seconds` times this many operations.
pub fn ops_per_second(name: &str) -> usize {
    match name {
        "batch_ingest" => 70,
        "hosted_churn" => 75,
        "engine_route" => 100,
        _ => 600,
    }
}

/// Fresh set-ups per run; the operations are split evenly between them.
/// A set-up is short, so each one samples whichever host phase it meets;
/// `setup_s` is their p90, which needs many of them: as many as keep their
/// total time within a few percent of the run.
pub fn rounds(name: &str) -> usize {
    match name {
        // A set-up of about 0.4 ms.
        "batch_ingest" => 96,
        // About 75 ms: eight 3.4k-fact databases hosted and solved.
        "hosted_churn" => 24,
        // About 55 ms: four queries prepared, 128 databases parsed.
        "engine_route" => 36,
        _ => 24,
    }
}

/// FNV-1a over a sequence of strings (with separators).
pub fn digest<'a>(items: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for item in items {
        for byte in item.bytes().chain(std::iter::once(b'\n')) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// The query spec every workload request uses: with a contingency set,
/// optionally traced.
pub fn spec(pattern: &str, traced: bool) -> QuerySpec {
    QuerySpec { want_cut: Some(true), trace: traced.then_some(true), ..QuerySpec::new(pattern) }
}

/// A prepared plan of a family's query with the server's default options.
pub fn prepare(family: Family) -> PreparedQuery {
    let rpq = Rpq::parse(family.pattern()).expect("family patterns parse");
    Engine::new().prepare(&rpq).expect("family queries prepare")
}

/// Solves a generated database with the unbudgeted engine: the reference
/// answer every checked operation must match. Also records outside-in
/// samples of the ingest parser, the planned solve and the router's cost
/// estimate against that solve.
pub fn reference(
    prepared: &PreparedQuery,
    family: Family,
    db_text: &str,
    samples: &mut Vec<(&'static str, f64)>,
) -> ResilienceValue {
    let start = Instant::now();
    let db = text::parse(db_text).expect("generated databases parse");
    let parse_us = us_since(start);
    samples.push(("ingest.parse_ns_per_fact", parse_us * 1_000.0 / db.num_facts().max(1) as f64));
    let start = Instant::now();
    let outcome = prepared.solve_with_cut(&db, true).expect("reference solves succeed");
    let solve_us = us_since(start);
    samples.push((solve_metric(family), solve_us));
    let estimate_us = prepared.plan().cost.estimate_us_for(&db) as f64;
    samples.push((estimate_metric(family), estimate_us / solve_us.max(0.001)));
    outcome.value
}

/// Outside-in: the time to prepare a family's query from scratch.
pub fn time_prepare(family: Family) -> f64 {
    let start = Instant::now();
    black_box(prepare(family));
    us_since(start)
}

/// The parsed response when it reports `"ok": true`.
pub fn ok_response(line: &str) -> Option<Json> {
    let json = Json::parse(line).ok()?;
    (json.get("ok").and_then(Json::as_bool) == Some(true)).then_some(json)
}

/// Checks one solve answer (a response or a batch entry) against the
/// reference value; counts it, and counts it as exact when the planned
/// backend answered (not degraded) with an exact value.
pub fn check_answer(answer: &Json, expected: ResilienceValue, report: &mut Report, what: &str) {
    report.answers += 1;
    let degraded = answer.get("degraded").and_then(Json::as_bool) != Some(false);
    if degraded {
        report.degraded += 1;
    } else if answer.get("exact").and_then(Json::as_bool) == Some(true) {
        report.exact_answers += 1;
    }
    let expected = value_json(expected);
    if answer.get("value") != Some(&expected) {
        report.mismatch(format!(
            "{what}: value {:?}, expected {expected}",
            answer.get("value").map(Json::to_string)
        ));
    }
}

/// The `(layer, µs)` spans of a traced response's `timings` object.
pub fn response_spans(response: &Json) -> Vec<(String, f64)> {
    let Some(Json::Object(timings)) = response.get("timings") else { return Vec::new() };
    timings
        .iter()
        .filter_map(|(phase, us)| {
            let layer = crate::measure::layer_of(phase)?;
            Some((layer.to_string(), us.as_int()? as f64))
        })
        .collect()
}

/// Outside-in: the time to decode one request line.
pub fn time_decode(line: &str) -> f64 {
    let start = Instant::now();
    black_box(Request::parse(line).is_ok());
    us_since(start)
}

/// One-fact writes per write sample. A write is a few µs, short enough for
/// cache state and timer noise to move its tail from run to run; a sample
/// is the mean latency of a burst of this many back-to-back writes, still
/// far shorter than a phase of host speed. Odd, so that a burst of toggles
/// of one fact changes the database by that one fact.
pub const WRITE_BURST: usize = 33;

/// A stream of one-fact writes that toggles one fact of a hosted database
/// in and out: the write path of the store, kept beside workloads whose
/// primary operation does not write.
#[derive(Clone)]
pub struct Toggle {
    pub put_line: String,
    remove: (String, String),
    add: (String, String),
    present: bool,
}

impl Toggle {
    /// A small hosted `ab|ad|cd` database and the fact the writes toggle.
    pub fn new(name: &str, rng: &mut crate::gen::Rng) -> Toggle {
        let db = Family::AbAdCd.database(64, rng);
        let keys = crate::gen::fact_keys(&db);
        let (s, l, t) = &keys[rng.below(keys.len())];
        let patch = |text: String| {
            let line = Request::DbPatch { name: name.into(), patch: text.clone() }.to_json();
            (line.to_string(), text)
        };
        Toggle {
            put_line: Request::DbPut { name: name.into(), db }.to_json().to_string(),
            remove: patch(format!("- {s} {l} {t}\n")),
            add: patch(format!("+ {s} {l} {t}\n")),
            present: true,
        }
    }

    /// The same writes against a freshly hosted copy of the database.
    pub fn clone_fresh(&self) -> Toggle {
        Toggle { present: true, ..self.clone() }
    }

    /// The request line of the next write.
    fn next(&mut self) -> &str {
        self.present = !self.present;
        if self.present {
            &self.add.0
        } else {
            &self.remove.0
        }
    }

    /// Issues the next burst of [`WRITE_BURST`] writes through `send` and
    /// records their mean latency; in the traced run the patch parse is
    /// timed outside-in for the ledger.
    pub fn write(
        &mut self,
        send: &mut dyn FnMut(&str) -> String,
        report: &mut Report,
        traced: bool,
        op: u64,
    ) {
        let mut responses = Vec::with_capacity(WRITE_BURST);
        let start = Instant::now();
        for _ in 0..WRITE_BURST {
            responses.push(send(self.next()));
        }
        let wall = us_since(start) / WRITE_BURST as f64;
        for response in responses {
            report.attempted += 1;
            if ok_response(&response).is_none() {
                report.failed += 1;
                report.mismatch(format!("write failed: {response}"));
            }
        }
        if traced {
            let start = Instant::now();
            black_box(parse_patch(&self.remove.1).is_ok());
            report.ledger.write(op, us_since(start), wall);
        } else {
            report.write_us.push(wall);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plan small enough for a unit test.
    fn tiny(rounds: usize, ops_per_round: usize, traced: bool) -> Plan {
        Plan { rounds, ops_per_round, traced }
    }

    #[test]
    fn one_seed_gives_one_stream_and_another_seed_another() {
        let plan = tiny(2, 6, false);
        for name in NAMES {
            let a = generate(name, 11, &plan).expect("known workload");
            let b = generate(name, 11, &plan).expect("known workload");
            let c = generate(name, 12, &plan).expect("known workload");
            assert_eq!(a.stream_digest(&plan), b.stream_digest(&plan), "{name}");
            assert_ne!(a.stream_digest(&plan), c.stream_digest(&plan), "{name}");
        }
    }

    #[test]
    fn every_workload_answers_correctly_and_traces() {
        for name in NAMES {
            for traced in [false, true] {
                let plan = tiny(2, 4, traced);
                let report = generate(name, 5, &plan).expect("known workload").run(&plan);
                assert_eq!(report.wrong_count, 0, "{name}: {:?}", report.wrong);
                assert_eq!(report.failed, 0, "{name}");
                assert!(report.attempted >= plan.total_ops() as u64, "{name}");
                assert_eq!(report.setup_s.len(), 2, "{name}");
                if traced {
                    assert!(report.ledger.render(name).contains("untraced remainder"));
                } else {
                    assert_eq!(report.primary_us.len(), plan.total_ops(), "{name}");
                    assert!(!report.write_us.is_empty(), "{name}: writes are measured");
                }
            }
        }
    }
}
