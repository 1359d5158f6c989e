//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <batch_ingest|hosted_churn|engine_route|wire_small> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, runs a fixed number of
//! operations (`seconds` times the workload's nominal rate), checks every
//! answer, and prints a JSON object as its last line of output. With
//! `--trace 0` it holds the end-to-end metrics; with `--trace 1` the
//! per-layer metrics, after a printed per-layer ledger. See `README.md`.

mod gen;
mod measure;
mod workloads;

use measure::{host_probe_ms, peak_rss_mb, quantile, reset_peak_rss, share, Report};
use std::fmt::Write as _;
use std::process::ExitCode;
use workloads::Plan;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// One `"name": {"value": v, "unit": u}` entry of the result object.
fn metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    let _ = write!(out, "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
}

fn end_to_end(report: &Report, peak_mb: f64) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        ("p90_ms", quantile(&report.primary_us, 0.9) / 1e3, "ms"),
        ("p95_ms", quantile(&report.primary_us, 0.95) / 1e3, "ms"),
        ("write_p90_ms", quantile(&report.write_us, 0.9) / 1e3, "ms"),
        ("exact_share", share(report.exact_answers, report.answers), "ratio"),
        ("setup_s", quantile(&report.setup_s, 0.9), "s"),
        ("peak_rss_mb", peak_mb, "MiB"),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let rate = workloads::ops_per_second(&args.workload);
    let total = rate * args.seconds as usize;
    let rounds = workloads::rounds(&args.workload);
    let plan = Plan { rounds, ops_per_round: total.div_ceil(rounds), traced: args.trace };
    let Some(workload) = workloads::generate(&args.workload, args.seed, &plan) else {
        eprintln!("perfbench: unknown workload {} (one of {:?})", args.workload, workloads::NAMES);
        return ExitCode::from(2);
    };
    if !reset_peak_rss() {
        eprintln!("perfbench: cannot reset the peak-memory mark; peak_rss_mb includes generation");
    }
    let probe_before = host_probe_ms();
    let started = std::time::Instant::now();
    let mut report = workload.run(&plan);
    let run_s = started.elapsed().as_secs_f64();
    if args.trace && args.workload != "wire_small" {
        workloads::wire_small::probe_scheduler(args.seed, &mut report);
    }
    let probe_after = host_probe_ms();
    let peak_mb = peak_rss_mb().unwrap_or(0.0);

    let name = &args.workload;
    println!(
        "{name}: seed {} | stream {:016x} | {} operations in {} rounds | {run_s:.2} s | \
         host probe {probe_before:.2} ms before, {probe_after:.2} ms after",
        args.seed,
        workload.stream_digest(&plan),
        plan.total_ops(),
        plan.rounds
    );
    for wrong in &report.wrong {
        println!("{name}: WRONG: {wrong}");
    }
    let mut out = String::from("{\"metrics\": {");
    if args.trace {
        report.ledger.set("router.degraded_share", share(report.degraded, report.answers));
        report.ledger.set("router.overrun_share", share(report.overruns, report.answers));
        print!("{}", report.ledger.render(name));
        for (metric_name, value, unit) in report.ledger.metrics() {
            metric(&mut out, &metric_name, value, unit);
        }
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{name}-seed{}.tsv", args.seed));
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, report.ledger.spans_tsv()))
        {
            Ok(()) => println!("{name}: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    } else {
        println!(
            "{name}: for reading only: p50 {:.4} ms, p99 {:.4} ms, throughput {:.1} ops/s, {} \
             samples; set-up p50 {:.6} s, p90 {:.6} s over {} set-ups",
            quantile(&report.primary_us, 0.5) / 1e3,
            quantile(&report.primary_us, 0.99) / 1e3,
            report.primary_us.len() as f64 / (report.primary_us.iter().sum::<f64>() / 1e6),
            report.primary_us.len(),
            quantile(&report.setup_s, 0.5),
            quantile(&report.setup_s, 0.9),
            report.setup_s.len()
        );
        for (metric_name, value, unit) in end_to_end(&report, peak_mb) {
            metric(&mut out, metric_name, value, unit);
        }
    }
    let correct = report.wrong_count == 0 && report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, {}}}}}",
        report.attempted,
        report.failed,
        &out[1..]
    );
    ExitCode::SUCCESS
}
