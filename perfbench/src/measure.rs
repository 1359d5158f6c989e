//! Statistics, the host-speed probe, peak memory and the per-layer ledger.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Microseconds elapsed since `start`, with sub-microsecond digits.
pub fn us_since(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64 / 1_000.0
}

/// The nearest-rank `q`-quantile of `samples` (0 for no samples).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `part / whole`, or 0 when nothing was counted.
pub fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// A fixed pure-CPU loop, timed in milliseconds. It is printed beside the
/// metrics so that a slow host phase can be told from a regression; it
/// never scales a metric.
pub fn host_probe_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for i in 0..20_000_000u64 {
        x = (x ^ i).rotate_left(7).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    black_box(x);
    us_since(start) / 1_000.0
}

/// Resets the kernel's resident-memory high-water mark of this process to
/// its current resident size, so that the peak read later excludes the
/// input generator's transient allocations.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The resident-memory high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// What one run of a workload measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Latency of each primary operation, µs (untraced operations only).
    pub primary_us: Vec<f64>,
    /// Mean latency of a write (`db_patch`) in each burst of writes, µs.
    pub write_us: Vec<f64>,
    /// Duration of each fresh set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Resilience answers returned, and how many of them were exact.
    pub answers: u64,
    pub exact_answers: u64,
    /// Answers the router degraded below the planned backend, and solves
    /// whose measured time overran their budget.
    pub degraded: u64,
    pub overruns: u64,
    /// Operations issued (primary and writes) and those that failed.
    pub attempted: u64,
    pub failed: u64,
    /// Descriptions of the first wrong answers (the run is incorrect when
    /// any answer was wrong).
    pub wrong: Vec<String>,
    pub wrong_count: u64,
    /// The per-layer ledger of a traced run.
    pub ledger: Ledger,
}

impl Report {
    /// Records a correctness failure (keeping the first few descriptions).
    pub fn mismatch(&mut self, what: String) {
        self.wrong_count += 1;
        if self.wrong.len() < 5 {
            self.wrong.push(what);
        }
    }
}

/// The spans, counts and outside-in timings of a traced run.
///
/// A traced operation records the µs of every layer it went through: the
/// spans the program reports (`"trace": true` / the `*_traced` entry
/// points), plus spans the benchmark times itself around calls into a
/// crate's public functions. The untraced remainder of an operation is its
/// wall time minus the sum of those spans, measured here rather than read
/// from the program's own `other` span.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Per layer: its µs in each traced operation that went through it.
    layers: BTreeMap<String, Vec<f64>>,
    /// Wall time and untraced remainder of each traced operation, µs.
    wall_us: Vec<f64>,
    remainder_us: Vec<f64>,
    /// Wall time of the untraced operations of the same run, µs.
    untraced_us: Vec<f64>,
    /// Outside-in timings and ratios, one sample per call.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Counted shares and sizes.
    values: BTreeMap<&'static str, f64>,
    /// `(operation id, layer, µs)`, written out when the run ends.
    spans: Vec<(u64, String, f64)>,
}

/// The ledger layer a program span belongs to (`None` for the program's
/// own `other` remainder, which the benchmark recomputes).
pub fn layer_of(phase: &str) -> Option<&str> {
    Some(match phase {
        "other" => return None,
        "cache_lookup" => "plan_cache.lookup",
        "canonicalize" | "classify" | "plan" => "engine.prepare",
        "parse_db" => "ingest.parse",
        "materialize" => "store.materialize",
        "product_build" => "engine.product_build",
        "rewrite" => "engine.rewrite",
        "csr_freeze" => "flow.csr_freeze",
        "cut_extract" => "flow.cut_extract",
        "patch_apply" => "engine.patch_apply",
        "rebuild" => "engine.rebuild",
        "flow_resume" => "flow.resume",
        "witness_extract" => "flow.witness",
        "approx_solve" => "approx.greedy",
        "trivial_bounds" => "approx.trivial",
        "exact_solve" => "engine.exact",
        p if p.starts_with("flow_solve") => "flow.max_flow",
        p => p,
    })
}

/// The rows of the printed ledger, in request order, with the crate each
/// layer lives in. Layers a workload does not reach print as `-`.
const LEDGER_ROWS: [(&str, &str); 20] = [
    ("scheduler.wait", "rpq-server scheduler"),
    ("wire.decode", "rpq-server protocol/json"),
    ("plan_cache.lookup", "rpq-server cache"),
    ("engine.prepare", "rpq-resilience engine"),
    ("ingest.parse", "rpq-graphdb::text"),
    ("store.materialize", "rpq-store"),
    ("engine.patch_apply", "rpq-resilience engine"),
    ("engine.rebuild", "rpq-resilience engine"),
    ("engine.product_build", "rpq-resilience engine"),
    ("engine.rewrite", "rpq-resilience engine"),
    ("flow.csr_freeze", "rpq-flow"),
    ("flow.max_flow", "rpq-flow"),
    ("flow.resume", "rpq-flow"),
    ("flow.cut_extract", "rpq-flow"),
    ("flow.witness", "rpq-resilience engine"),
    ("engine.exact", "rpq-resilience engine"),
    ("approx.greedy", "rpq-resilience approx"),
    ("approx.trivial", "rpq-resilience approx"),
    ("patch.parse", "rpq-graphdb::delta (writes)"),
    ("write.store_append", "rpq-store (writes)"),
];

impl Ledger {
    /// Records one traced operation: its wall time and the µs of each
    /// layer it went through (several spans of one layer add up).
    pub fn operation(&mut self, id: u64, wall_us: f64, spans: &[(String, f64)]) {
        let mut per_layer: BTreeMap<&str, f64> = BTreeMap::new();
        for (layer, us) in spans {
            *per_layer.entry(layer.as_str()).or_default() += us;
            self.spans.push((id, layer.clone(), *us));
        }
        let covered: f64 = per_layer.values().sum();
        for (layer, us) in per_layer {
            self.layers.entry(layer.to_string()).or_default().push(us);
        }
        self.wall_us.push(wall_us);
        self.remainder_us.push(wall_us - covered);
        self.spans.push((id, "remainder".to_string(), wall_us - covered));
    }

    /// Records a write's layers; writes are reported beside the primary
    /// operations but do not enter their wall time or remainder.
    pub fn write(&mut self, id: u64, parse_us: f64, wall_us: f64) {
        let rest = (wall_us - parse_us).max(0.0);
        self.layers.entry("patch.parse".into()).or_default().push(parse_us);
        self.layers.entry("write.store_append".into()).or_default().push(rest);
        self.spans.push((id, "patch.parse".into(), parse_us));
        self.spans.push((id, "write.store_append".into(), rest));
    }

    /// Records the wall time of an untraced operation of the traced run.
    pub fn untraced(&mut self, wall_us: f64) {
        self.untraced_us.push(wall_us);
    }

    /// Records one outside-in sample of a named metric.
    pub fn sample(&mut self, metric: &'static str, value: f64) {
        self.samples.entry(metric).or_default().push(value);
    }

    /// The outside-in samples of a metric.
    pub fn samples_of(&self, metric: &str) -> &[f64] {
        self.samples.get(metric).map_or(&[], Vec::as_slice)
    }

    /// Sets a counted value (a share or a size).
    pub fn set(&mut self, metric: &'static str, value: f64) {
        self.values.insert(metric, value);
    }

    /// p90 of a layer's per-operation µs.
    pub fn layer_p90(&self, layer: &str) -> f64 {
        self.layers.get(layer).map_or(0.0, |s| quantile(s, 0.9))
    }

    /// The named per-layer metrics (see `README.md` for their definitions).
    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        let sample = |name: &str, q: f64| self.samples.get(name).map_or(0.0, |s| quantile(s, q));
        let value = |name: &str| self.values.get(name).copied().unwrap_or(0.0);
        let mut out = vec![
            ("scheduler.wait_us".to_string(), sample("scheduler.wait_us", 0.9), "us"),
            ("wire.decode_us".to_string(), self.layer_p90("wire.decode"), "us"),
            ("remainder_us".to_string(), quantile(&self.remainder_us, 0.9), "us"),
            ("plan_cache.hit_share".to_string(), value("plan_cache.hit_share"), "ratio"),
            ("ingest.parse_ns_per_fact".to_string(), sample("ingest.parse_ns_per_fact", 0.9), "ns"),
            ("patch.parse_us".to_string(), self.layer_p90("patch.parse"), "us"),
            ("materialize.ns_per_entry".to_string(), sample("materialize.ns_per_entry", 0.9), "ns"),
            ("store.materialize_us".to_string(), self.layer_p90("store.materialize"), "us"),
            ("store.incremental_share".to_string(), value("store.incremental_share"), "ratio"),
            ("store.result_hit_share".to_string(), value("store.result_hit_share"), "ratio"),
            (
                "store.log_bytes_per_fact".to_string(),
                value("store.log_bytes_per_fact"),
                "bytes/fact",
            ),
            ("engine.prepare_us".to_string(), sample("engine.prepare_us", 0.9), "us"),
        ];
        for family in crate::gen::Family::ALL {
            let name = solve_metric(family);
            out.push((name.to_string(), sample(name, 0.9), "us"));
        }
        for (metric, layer) in [
            ("engine.product_build_us", "engine.product_build"),
            ("flow.csr_freeze_us", "flow.csr_freeze"),
            ("flow.max_flow_us", "flow.max_flow"),
            ("flow.resume_us", "flow.resume"),
            ("flow.witness_us", "flow.witness"),
        ] {
            out.push((metric.to_string(), self.layer_p90(layer), "us"));
        }
        for family in crate::gen::Family::ALL {
            let name = estimate_metric(family);
            out.push((name.to_string(), sample(name, 0.5), "ratio"));
        }
        out.push(("router.degraded_share".to_string(), value("router.degraded_share"), "ratio"));
        out.push(("router.overrun_share".to_string(), value("router.overrun_share"), "ratio"));
        out.push(("approx.greedy_us".to_string(), self.layer_p90("approx.greedy"), "us"));
        out.push(("approx.trivial_us".to_string(), self.layer_p90("approx.trivial"), "us"));
        let untraced = quantile(&self.untraced_us, 0.9);
        let overhead = if untraced > 0.0 { quantile(&self.wall_us, 0.9) / untraced } else { 0.0 };
        out.push(("obs.trace_overhead".to_string(), overhead, "ratio"));
        out
    }

    /// The human-readable ledger: per layer, how often an operation went
    /// through it, its p50/p90 µs and its share of the traced operations'
    /// wall time, then the untraced remainder as its own line.
    pub fn render(&self, workload: &str) -> String {
        let total_wall: f64 = self.wall_us.iter().sum();
        let ops = self.wall_us.len();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "ledger {workload}: {ops} traced operations, wall p50 {:.1} µs, p90 {:.1} µs",
            quantile(&self.wall_us, 0.5),
            quantile(&self.wall_us, 0.9)
        );
        let _ = writeln!(
            out,
            "  {:<22} {:<30} {:>7} {:>11} {:>11} {:>8}",
            "layer", "crate", "ops", "p50_us", "p90_us", "share"
        );
        let mut rows: Vec<(&str, &str)> = LEDGER_ROWS.to_vec();
        for layer in self.layers.keys() {
            if !rows.iter().any(|(l, _)| l == layer) {
                rows.push((layer.as_str(), "(unmapped span)"));
            }
        }
        for (layer, krate) in rows {
            let Some(samples) = self.layers.get(layer) else {
                let _ = writeln!(
                    out,
                    "  {layer:<22} {krate:<30} {:>7} {:>11} {:>11} {:>8}",
                    0, "-", "-", "-"
                );
                continue;
            };
            let is_write = krate.ends_with("(writes)");
            let sum: f64 = samples.iter().sum();
            let share_text = if is_write || total_wall == 0.0 {
                "write".to_string()
            } else {
                format!("{:.1}%", 100.0 * sum / total_wall)
            };
            let _ = writeln!(
                out,
                "  {layer:<22} {krate:<30} {:>7} {:>11.1} {:>11.1} {:>8}",
                samples.len(),
                quantile(samples, 0.5),
                quantile(samples, 0.9),
                share_text
            );
        }
        let remainder_sum: f64 = self.remainder_us.iter().sum();
        let _ = writeln!(
            out,
            "  {:<22} {:<30} {:>7} {:>11.1} {:>11.1} {:>8}",
            "untraced remainder",
            "wall - sum of spans",
            self.remainder_us.len(),
            quantile(&self.remainder_us, 0.5),
            quantile(&self.remainder_us, 0.9),
            if total_wall > 0.0 {
                format!("{:.1}%", 100.0 * remainder_sum / total_wall)
            } else {
                "-".to_string()
            }
        );
        for (name, samples) in &self.samples {
            let _ = writeln!(
                out,
                "  outside-in {name:<36} n={:<6} p50 {:>10.3} p90 {:>10.3}",
                samples.len(),
                quantile(samples, 0.5),
                quantile(samples, 0.9)
            );
        }
        for (name, value) in &self.values {
            let _ = writeln!(out, "  counted    {name:<36} {value:.4}");
        }
        out
    }

    /// Every recorded span as tab-separated `operation layer µs` lines.
    pub fn spans_tsv(&self) -> String {
        let mut out = String::from("op\tlayer\tus\n");
        for (id, layer, us) in &self.spans {
            let _ = writeln!(out, "{id}\t{layer}\t{us:.3}");
        }
        out
    }
}

/// The outside-in unbudgeted-solve metric of a family.
pub fn solve_metric(family: crate::gen::Family) -> &'static str {
    use crate::gen::Family::*;
    match family {
        AxStarB => "engine.solve_us.ax_star_b",
        AbAdCd => "engine.solve_us.ab_ad_cd",
        AbBc => "engine.solve_us.ab_bc",
        AbcBe => "engine.solve_us.abc_be",
    }
}

/// The router cost-estimate accuracy metric of a family.
pub fn estimate_metric(family: crate::gen::Family) -> &'static str {
    use crate::gen::Family::*;
    match family {
        AxStarB => "router.estimate_ratio.ax_star_b",
        AbAdCd => "router.estimate_ratio.ab_ad_cd",
        AbBc => "router.estimate_ratio.ab_bc",
        AbcBe => "router.estimate_ratio.abc_be",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.5), 5.0);
        assert_eq!(quantile(&samples, 0.9), 9.0);
        assert_eq!(quantile(&samples, 0.99), 10.0);
        assert_eq!(quantile(&[], 0.9), 0.0);
    }

    #[test]
    fn the_remainder_is_wall_time_minus_the_spans() {
        let mut ledger = Ledger::default();
        ledger.operation(0, 100.0, &[("a".into(), 30.0), ("b".into(), 20.0), ("a".into(), 10.0)]);
        assert_eq!(ledger.layer_p90("a"), 40.0);
        assert_eq!(quantile(&ledger.remainder_us, 0.5), 40.0);
        assert!(ledger.render("t").contains("untraced remainder"));
    }
}
