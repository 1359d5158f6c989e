//! `engine_route`: the tier router on pre-parsed databases, bypassing the
//! server and ingest. One operation is one round of four solves under
//! `cost_budget_us: 1024`, one database of each scaling family, as a
//! monitoring tick would issue them; every round is alike, so the latency
//! percentiles are taken over one kind of operation.

use super::{prepare, reference, time_prepare, Plan, Toggle, Workload};
use crate::gen::{Family, Rng};
use crate::measure::{us_since, Report};
use rpq_graphdb::{text, GraphDb};
use rpq_obs::Trace;
use rpq_resilience::engine::PreparedQuery;
use rpq_resilience::router::{RouteBudget, Router};
use rpq_resilience::rpq::ResilienceValue;
use rpq_server::{ServerConfig, ServerState};
use std::time::Instant;

/// The cost budget of every solve, in estimated µs.
pub const BUDGET_US: u64 = 1_024;
/// Size step of each database (see `Family::database`).
pub const SIZE: usize = 512;
/// Databases per family; each round draws one of them per family.
const PER_FAMILY: usize = 32;

pub struct EngineRoute {
    /// Per family: the database texts and their reference values.
    texts: Vec<Vec<String>>,
    expected: Vec<Vec<ResilienceValue>>,
    /// Per round: the database drawn for each family.
    stream: Vec<[usize; 4]>,
    side: Toggle,
    samples: Vec<(&'static str, f64)>,
}

impl EngineRoute {
    pub fn generate(seed: u64, plan: &Plan) -> EngineRoute {
        let mut rng = Rng::new(seed, 3);
        let mut samples = Vec::new();
        let mut texts = Vec::new();
        let mut expected = Vec::new();
        for family in Family::ALL {
            let prepared = prepare(family);
            let dbs: Vec<String> =
                (0..PER_FAMILY).map(|_| family.database(SIZE, &mut rng)).collect();
            expected.push(
                dbs.iter().map(|db| reference(&prepared, family, db, &mut samples)).collect(),
            );
            texts.push(dbs);
        }
        let stream =
            (0..plan.total_ops()).map(|_| std::array::from_fn(|_| rng.below(PER_FAMILY))).collect();
        EngineRoute { texts, expected, stream, side: Toggle::new("side", &mut rng), samples }
    }
}

impl Workload for EngineRoute {
    fn stream_digest(&self, _plan: &Plan) -> u64 {
        super::digest(
            self.stream.iter().flat_map(|round| {
                round.iter().enumerate().map(|(f, &i)| self.texts[f][i].as_str())
            }),
        )
    }

    fn run(&self, plan: &Plan) -> Report {
        let mut report = Report::default();
        if plan.traced {
            for &(metric, value) in &self.samples {
                report.ledger.sample(metric, value);
            }
        }
        let budget = RouteBudget::with_cost_budget_us(BUDGET_US);
        let router = Router::new();
        let mut op = 0;
        for _ in 0..plan.rounds {
            let start = Instant::now();
            let prepared: Vec<PreparedQuery> = Family::ALL.into_iter().map(prepare).collect();
            let dbs: Vec<Vec<GraphDb>> = self
                .texts
                .iter()
                .map(|family| {
                    family.iter().map(|t| text::parse(t).expect("generated text parses")).collect()
                })
                .collect();
            let side_state = ServerState::new(ServerConfig::default());
            let mut side = self.side.clone_fresh();
            let side_ok = super::ok_response(&side_state.handle_line(&side.put_line).0).is_some();
            report.setup_s.push(us_since(start) / 1e6);
            if !side_ok {
                report.mismatch("set-up request failed".into());
            }
            if plan.traced {
                for family in Family::ALL {
                    report.ledger.sample("engine.prepare_us", time_prepare(family));
                }
            }
            for _ in 0..plan.ops_per_round {
                let round = self.stream[op];
                let traced = plan.traces(op);
                let mut outcomes = Vec::with_capacity(4);
                let mut spans = Vec::new();
                let start = Instant::now();
                for (f, &i) in round.iter().enumerate() {
                    let solve_start = Instant::now();
                    let mut trace = if traced { Trace::enabled() } else { Trace::disabled() };
                    let outcome = prepared[f]
                        .route_with_cut_traced(&dbs[f][i], true, &budget, &router, &mut trace);
                    outcomes.push((outcome, us_since(solve_start)));
                    for &(phase, us) in trace.spans() {
                        if let Some(layer) = crate::measure::layer_of(phase) {
                            spans.push((layer.to_string(), us as f64));
                        }
                    }
                }
                let wall = us_since(start);
                report.attempted += 1;
                for (f, (outcome, solve_us)) in outcomes.into_iter().enumerate() {
                    let exact = self.expected[f][round[f]];
                    let family = Family::ALL[f];
                    let Ok(tiered) = outcome else {
                        report.failed += 1;
                        report.mismatch(format!("op {op} {family:?}: solve failed"));
                        continue;
                    };
                    report.answers += 1;
                    if !tiered.degraded && tiered.outcome.is_exact() {
                        report.exact_answers += 1;
                    }
                    if solve_us > BUDGET_US as f64 {
                        report.overruns += 1;
                    }
                    if !tiered.degraded {
                        if tiered.outcome.value != exact {
                            report.mismatch(format!("op {op} {family:?}: exact answer differs"));
                        }
                        continue;
                    }
                    report.degraded += 1;
                    let certified = match (tiered.outcome.bounds, exact) {
                        (Some((lower, upper)), ResilienceValue::Finite(v)) => {
                            lower <= v && v <= upper
                        }
                        (None, _) => tiered.outcome.value == exact,
                        (Some(_), ResilienceValue::Infinite) => false,
                    };
                    if !certified {
                        report.mismatch(format!(
                            "op {op} {family:?}: {:?} does not sandwich {exact:?}",
                            tiered.outcome.bounds
                        ));
                    }
                }
                if traced {
                    report.ledger.operation(op as u64, wall, &spans);
                } else if plan.traced {
                    report.ledger.untraced(wall);
                } else {
                    report.primary_us.push(wall);
                }
                side.write(
                    &mut |l| side_state.handle_line(l).0,
                    &mut report,
                    plan.traced,
                    op as u64,
                );
                op += 1;
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_mix_exact_and_degraded_answers_including_the_greedy_fallback() {
        let plan = Plan { rounds: 1, ops_per_round: 4, traced: true };
        let report = EngineRoute::generate(9, &plan).run(&plan);
        assert_eq!(report.wrong_count, 0, "{:?}", report.wrong);
        assert_eq!(report.answers, 16);
        assert!(report.exact_answers > 0, "some family answers exactly");
        assert!(report.degraded > 0, "some family is degraded");
        // `ab|ad|cd` falls back to the greedy approximation.
        assert!(report.ledger.layer_p90("approx.greedy") > 0.0);
    }
}
