//! `wire_small`: `solve` of about 24-fact `ab|bc` databases over one
//! loopback TCP connection to a spawned `Server`. The requests are small,
//! so the round trip is dominated by the scheduler: the poller's backoff,
//! the ready queue and socket I/O. The in-process workloads do not touch
//! that layer.
//!
//! One operation is a client tick of `TICK` sequential requests: single
//! round trips of ~0.2 ms have a tail set by one-off scheduling stalls of
//! the host, which a tick averages out of the p99.
//!
//! The workload runs on its own but is not one of the benchmark's gated
//! workloads: the poller's sleeps make its latency follow the host's timer
//! behaviour, which on a shared VM can stall every request by ~1 ms for a
//! minute at a time (see README.md). The traced runs of the gated workloads
//! run a short [`probe_scheduler`] instead, so the scheduler layer stays
//! measured.

use super::{
    check_answer, ok_response, prepare, reference, response_spans, spec, time_decode, time_prepare,
    Plan, Toggle, Workload,
};
use crate::gen::{Family, Rng};
use crate::measure::{share, us_since, Report};
use rpq_resilience::rpq::ResilienceValue;
use rpq_server::json::Json;
use rpq_server::protocol::Request;
use rpq_server::{Client, Server, ServerConfig};
use std::time::{Duration, Instant};

const FAMILY: Family = Family::AbBc;
/// Size step of each database (see `Family::database`).
pub const SIZE: usize = 24;
/// Distinct databases per seed.
const POOL: usize = 64;
/// Requests per operation; each operation also issues one burst of writes.
pub const TICK: usize = 8;

pub struct WireSmall {
    prepare_line: String,
    /// Per pooled database: the untraced and the traced request line.
    lines: Vec<(String, String)>,
    expected: Vec<ResilienceValue>,
    /// The pooled databases of each operation's requests.
    stream: Vec<[usize; TICK]>,
    side: Toggle,
    samples: Vec<(&'static str, f64)>,
}

/// Worker threads of the spawned server: at most the host's cores.
fn server_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

impl WireSmall {
    pub fn generate(seed: u64, plan: &Plan) -> WireSmall {
        let mut rng = Rng::new(seed, 4);
        let prepared = prepare(FAMILY);
        let mut samples = Vec::new();
        let mut lines = Vec::with_capacity(POOL);
        let mut expected = Vec::with_capacity(POOL);
        for _ in 0..POOL {
            let db = FAMILY.database(SIZE, &mut rng);
            expected.push(reference(&prepared, FAMILY, &db, &mut samples));
            let line = |traced: bool| {
                Request::Solve { query: spec(FAMILY.pattern(), traced), db: db.clone() }
                    .to_json()
                    .to_string()
            };
            lines.push((line(false), line(true)));
        }
        let stream =
            (0..plan.total_ops()).map(|_| std::array::from_fn(|_| rng.below(POOL))).collect();
        WireSmall {
            prepare_line: Request::Prepare { query: spec(FAMILY.pattern(), false) }
                .to_json()
                .to_string(),
            lines,
            expected,
            stream,
            side: Toggle::new("side", &mut rng),
            samples,
        }
    }
}

impl Workload for WireSmall {
    fn stream_digest(&self, plan: &Plan) -> u64 {
        super::digest(self.stream.iter().enumerate().flat_map(|(op, tick)| {
            tick.iter().map(move |&i| {
                let (plain, traced) = &self.lines[i];
                if plan.traces(op) {
                    traced.as_str()
                } else {
                    plain.as_str()
                }
            })
        }))
    }

    fn run(&self, plan: &Plan) -> Report {
        let mut report = Report::default();
        if plan.traced {
            for &(metric, value) in &self.samples {
                report.ledger.sample(metric, value);
            }
        }
        let config = ServerConfig { threads: server_threads(), ..ServerConfig::default() };
        let (mut hits, mut lookups) = (0, 0);
        let mut op = 0;
        for _ in 0..plan.rounds {
            let start = Instant::now();
            let server = Server::bind("127.0.0.1:0", config).expect("bind a loopback port");
            let running = server.spawn().expect("spawn the server");
            let mut client = Client::connect(running.addr).expect("connect to the server");
            client.set_read_timeout(Some(Duration::from_secs(30))).expect("set a read timeout");
            let mut side = self.side.clone_fresh();
            let mut send = |line: &str| client.request_line(line).unwrap_or_default();
            let mut setup_ok = ok_response(&send(&self.prepare_line)).is_some();
            setup_ok &= ok_response(&send(&side.put_line)).is_some();
            report.setup_s.push(us_since(start) / 1e6);
            if !setup_ok {
                report.mismatch("set-up request failed".into());
            }
            if plan.traced {
                report.ledger.sample("engine.prepare_us", time_prepare(FAMILY));
            }
            for _ in 0..plan.ops_per_round {
                let traced = plan.traces(op);
                let lines: Vec<&str> =
                    self.stream[op]
                        .iter()
                        .map(|&i| {
                            if traced {
                                self.lines[i].1.as_str()
                            } else {
                                self.lines[i].0.as_str()
                            }
                        })
                        .collect();
                let mut responses = Vec::with_capacity(TICK);
                let start = Instant::now();
                for line in &lines {
                    let sent = Instant::now();
                    responses.push((send(line), us_since(sent)));
                }
                let wall = us_since(start);
                let mut spans = Vec::new();
                for (k, (response, round_trip)) in responses.iter().enumerate() {
                    report.attempted += 1;
                    let Some(json) = ok_response(response) else {
                        report.failed += 1;
                        report.mismatch(format!("op {op} request {k} failed: {response}"));
                        continue;
                    };
                    let expected = self.expected[self.stream[op][k]];
                    check_answer(&json, expected, &mut report, &format!("op {op} request {k}"));
                    if traced {
                        let elapsed =
                            json.get("elapsed_us").and_then(Json::as_int).unwrap_or(0) as f64;
                        let decode = time_decode(lines[k]);
                        spans.extend(response_spans(&json));
                        spans.push(("wire.decode".into(), decode));
                        let wait = (round_trip - elapsed - decode).max(0.0);
                        spans.push(("scheduler.wait".into(), wait));
                        report.ledger.sample("scheduler.wait_us", wait);
                    }
                }
                if traced {
                    report.ledger.operation(op as u64, wall, &spans);
                } else if plan.traced {
                    report.ledger.untraced(wall);
                } else {
                    report.primary_us.push(wall);
                }
                side.write(&mut send, &mut report, plan.traced, op as u64);
                op += 1;
            }
            let state = running.state();
            let stats = state.cache().stats();
            hits += stats.hits;
            lookups += stats.hits + stats.misses;
            if ok_response(&send(&Request::Shutdown.to_json().to_string())).is_none() {
                report.mismatch("shutdown failed".into());
            }
            drop(client);
            if let Err(e) = running.join() {
                report.mismatch(format!("server exited with an error: {e}"));
            }
        }
        report.ledger.set("plan_cache.hit_share", share(hits, lookups));
        report
    }
}

/// Ticks of the scheduler probe; half of them are traced.
const PROBE_TICKS: usize = 128;

/// A short run of this workload, made by the traced run of an in-process
/// workload: its per-request scheduler waits join `report`'s ledger as the
/// outside-in `scheduler.wait_us` samples, and its operations and checks
/// join `report`'s counts.
pub fn probe_scheduler(seed: u64, report: &mut Report) {
    let plan = Plan { rounds: 1, ops_per_round: PROBE_TICKS, traced: true };
    let probe = WireSmall::generate(seed, &plan).run(&plan);
    for &wait in probe.ledger.samples_of("scheduler.wait_us") {
        report.ledger.sample("scheduler.wait_us", wait);
    }
    report.attempted += probe.attempted;
    report.failed += probe.failed;
    report.wrong_count += probe.wrong_count;
    report.wrong.extend(probe.wrong);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_go_over_a_socket() {
        let plan = Plan { rounds: 1, ops_per_round: 2, traced: true };
        let report = WireSmall::generate(4, &plan).run(&plan);
        assert_eq!(report.wrong_count, 0, "{:?}", report.wrong);
        assert_eq!(report.answers, 2 * TICK as u64);
        // The round trip exceeds the server's own elapsed time: the
        // difference is the scheduler and the socket.
        assert!(report.ledger.layer_p90("scheduler.wait") > 0.0);
        assert_eq!(report.ledger.samples_of("scheduler.wait_us").len(), TICK);
    }

    #[test]
    fn the_probe_measures_the_scheduler_for_another_workload() {
        let mut report = Report::default();
        probe_scheduler(8, &mut report);
        assert_eq!(report.wrong_count, 0, "{:?}", report.wrong);
        assert_eq!(report.ledger.samples_of("scheduler.wait_us").len(), PROBE_TICKS / 2 * TICK);
    }
}
