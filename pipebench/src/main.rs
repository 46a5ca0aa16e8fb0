//! `pipebench` — one benchmark for the whole transistor-reordering
//! pipeline.
//!
//! ```text
//! pipebench --workload NAME --seed N --seconds S --trace 0|1 [--tr-opt PATH]
//! ```
//!
//! Workloads (see README.md): `serve_mix` (the `tr-opt serve` daemon
//! under two closed-loop clients), `exact_suite` (monolithic ROBDD
//! statistics over the standard suite), `large_part` (partitioned
//! statistics over the large suite) and `table3_sim` (the paper's
//! Table 3 protocol with switch-level simulation).
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it alternates untraced and traced passes and reports the
//! per-layer metrics plus the tracing overhead. Every output is
//! checked; the last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod cells;
mod checks;
mod ledger;
mod serve;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Worker threads and client connections: the benchmark targets a
/// 2-core machine.
pub const THREADS: usize = 2;

/// Where runs keep the exact counts of the first run of each workload,
/// relative to the checkout root.
const EXACT_DIR: &str = ".pipebench_tmp/exact";

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any makes the run incorrect.
    pub problems: Vec<String>,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, String)>,
    /// Counts that must repeat exactly in every run, one per line.
    pub exact: Vec<String>,
    /// Lines for the human-readable summary.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Every per-layer metric with its unit, in print order. A traced run
/// reports each; a layer its workload never reaches reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.load_ms", "ms"),
    ("netlist.partition_ms", "ms"),
    ("bdd.build_ms", "ms"),
    ("bdd.exact_stats_ms", "ms"),
    ("bdd.repropagate_ms", "ms"),
    ("bdd.cache_hit_rate", "ratio"),
    ("bdd.peak_live_nodes", "count"),
    ("power.partition_ms", "ms"),
    ("power.refresh_ms", "ms"),
    ("power.shrink_retries", "count"),
    ("reorder.optimize_ms", "ms"),
    ("reorder.headroom_pct", "%"),
    ("timing.sta_ms", "ms"),
    ("sim.simulate_ms", "ms"),
    ("sim.transitions_per_s", "1/s"),
    ("sim.reduction_pct", "%"),
    ("sim.model_gap_pct", "%points"),
    ("flow.stats_ms", "ms"),
    ("flow.staged_ms", "ms"),
    ("flow.unattributed_ms", "ms"),
    ("serve.connect_ms", "ms"),
    ("serve.read_ms", "ms"),
    ("serve.parse_ms", "ms"),
    ("serve.key_ms", "ms"),
    ("serve.rehydrate_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.memo_hits", "count"),
    ("serve.warm_hits", "count"),
    ("serve.misses", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

/// The answer-quality end-to-end metrics over minimize-objective runs:
/// mean model power saving against the original mapping, and mean
/// optimized critical path as a percentage of the original.
pub fn quality_metrics(out: &mut Outcome, reports: &[&tr_flow::FlowReport]) {
    let saving: Vec<f64> = reports.iter().map(|r| r.power.reduction_percent).collect();
    let path: Vec<f64> = reports
        .iter()
        .map(|r| 100.0 * r.delay.critical_path_after_s / r.delay.critical_path_before_s)
        .collect();
    out.metric("saving_pct", stats::mean(&saving), "%");
    out.metric("critical_path_pct", stats::mean(&path), "%");
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tr_opt: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tr_opt: PathBuf::from(".bench_build/release/tr-opt"),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--tr-opt" => args.tr_opt = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Compares this run's exact counts with those of the first run of the
/// same build in this checkout (recording them if there is none);
/// returns the lines that differ. The record is keyed by the size and
/// modification time of this executable, so a rebuild of other code
/// starts a fresh record instead of comparing against the old one.
fn compare_exact(workload: &str, exact: &[String]) -> Vec<String> {
    let build = std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| {
            let mtime = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            format!("{}-{mtime}", m.len())
        })
        .unwrap_or_else(|_| "unknown".into());
    let path = Path::new(EXACT_DIR).join(format!("{workload}-{build}.txt"));
    match std::fs::read_to_string(&path) {
        Ok(before) => {
            let mut drift: Vec<String> = before
                .lines()
                .zip(exact)
                .filter(|(a, b)| a != b)
                .map(|(a, b)| format!("exact count changed: `{a}` → `{b}`"))
                .collect();
            if before.lines().count() != exact.len() {
                drift.push("exact count list changed length".into());
            }
            drift
        }
        Err(_) => {
            let now = exact.join("\n") + "\n";
            let written =
                std::fs::create_dir_all(EXACT_DIR).and_then(|()| std::fs::write(&path, now));
            if let Err(e) = written {
                eprintln!(
                    "pipebench: cannot record exact counts in {}: {e}",
                    path.display()
                );
            }
            Vec::new()
        }
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipebench: {e}");
            eprintln!("usage: pipebench --workload serve_mix|exact_suite|large_part|table3_sim --seed N --seconds S --trace 0|1 [--tr-opt PATH]");
            return ExitCode::from(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "serve_mix" => match serve::run(&args.tr_opt, args.seed, args.seconds, args.trace) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("pipebench: serve_mix: {e}");
                return ExitCode::from(1);
            }
        },
        "exact_suite" => cells::run(cells::Kind::ExactSuite, args.seed, args.seconds, args.trace),
        "large_part" => cells::run(cells::Kind::LargePart, args.seed, args.seconds, args.trace),
        "table3_sim" => cells::run(cells::Kind::Table3Sim, args.seed, args.seconds, args.trace),
        other => {
            eprintln!("pipebench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    let drift = compare_exact(&args.workload, &out.exact);
    out.problems.extend(drift);
    if args.trace {
        let mut ordered = Vec::with_capacity(PER_LAYER.len());
        for (name, unit) in PER_LAYER {
            let value = out
                .metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .map_or(0.0, |(_, v, _)| *v);
            ordered.push((name.to_string(), value, unit.to_string()));
        }
        out.metrics = ordered;
    }

    println!(
        "pipebench {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for note in &out.notes {
        println!("  {note}");
    }
    println!(
        "  exact counts ({} lines, recorded under {EXACT_DIR}/):",
        out.exact.len()
    );
    for line in out.exact.iter().take(8) {
        println!("    {line}");
    }
    if out.exact.len() > 8 {
        println!("    … {} more", out.exact.len() - 8);
    }
    for (name, value, unit) in &out.metrics {
        println!("  {name:<24} {value:>14.4} {unit}");
    }
    println!("  attempted {} failed {}", out.attempted, out.failed);
    for p in &out.problems {
        println!("  CHECK FAILED: {p}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.problems.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
