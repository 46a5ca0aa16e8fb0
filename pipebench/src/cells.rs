//! The three batch workloads: `exact_suite`, `large_part` and
//! `table3_sim`. Each is a fixed list of (circuit, scenario) cells run
//! in whole passes by a pool of two workers, every cell through
//! `Flow::prepare_stats` then `Flow::run_staged`.
//!
//! A run first makes one check pass (untimed; it also warms the
//! allocator), then timed passes until `--seconds` have gone by. Every
//! timed cell must reproduce the check pass's report apart from its
//! wall-clock timings.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tr_boolean::SignalStats;
use tr_flow::{
    DurationPolicy, Flow, FlowEnv, FlowReport, PropagationMode, ScenarioSpec, SimOptions,
};
use tr_netlist::suite::{self, BenchmarkCase};
use tr_netlist::{Circuit, CompiledCircuit};
use tr_power::partition::{packing_options, DEFAULT_CUT_WIDTH, DEFAULT_REGION_NODES};
use tr_power::scenario::Scenario;
use tr_power::Scratch;
use tr_reorder::Objective;
use tr_sim::SimConfig;

use crate::checks;
use crate::ledger::Fold;
use crate::stats::{mean, median, mid_mean, peak_rss_mib, quantile, tail_mean};
use crate::{Outcome, THREADS};

/// Random vectors per cell in the logic-equivalence check.
const EQUIV_VECTORS: usize = 256;
/// `exact_suite` keeps the standard-suite circuits of at least this
/// many gates. Below it a cell takes about a millisecond, mostly fixed
/// per-cell cost rather than BDD work, and its time swings by a third
/// with the machine's load from minute to minute.
const EXACT_MIN_GATES: usize = 100;
/// Circuits with at most this many primary inputs get their net
/// probabilities checked by exhaustive enumeration (`exact_suite`).
const ENUMERATION_MAX_INPUTS: usize = 16;
/// Tolerance of that check.
const ENUMERATION_TOL: f64 = 1e-9;
/// Target toggles per input of the Table 3 simulations (the quick
/// profile of `table3_benchmarks`).
const TABLE3_TOGGLES: f64 = 400.0;
/// Set-ups timed before the check pass, and again after every timed
/// pass; `setup_s` is their faster quartile. The machine's speed drifts
/// within a run, so set-up is sampled across the run, as the passes are.
const SETUP_REPEATS: usize = 5;
const SETUPS_PER_PASS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ExactSuite,
    LargePart,
    Table3Sim,
}

/// One (circuit, scenario) cell.
struct Cell {
    case: usize,
    label: String,
    flow: Flow,
    /// The input scenario and its seed, for checks that resolve the
    /// input statistics themselves.
    scenario: (Scenario, u64),
    /// Check net probabilities against exhaustive enumeration.
    enumerate: bool,
    /// Re-run the Table 3 simulations directly.
    table3: bool,
}

/// What one cell produced in one pass.
struct CellRun {
    wall_s: f64,
    result: Result<CellOutput, String>,
}

struct CellOutput {
    report: FlowReport,
    json: String,
    /// Simulated transitions of the best and worst orderings (Table 3
    /// check pass only).
    transitions: u64,
}

fn suite_for(kind: Kind, env: &FlowEnv) -> Vec<BenchmarkCase> {
    match kind {
        Kind::ExactSuite => suite::standard_suite(&env.library)
            .into_iter()
            .filter(|c| c.circuit.gates().len() >= EXACT_MIN_GATES)
            .collect(),
        Kind::LargePart => suite::large_suite(&env.library),
        Kind::Table3Sim => suite::quick_suite(&env.library),
    }
}

fn template() -> Flow {
    Flow::from_circuit(Circuit::new("template"))
}

fn cells_for(kind: Kind, cases: &[BenchmarkCase]) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (i, case) in cases.iter().enumerate() {
        match kind {
            Kind::ExactSuite | Kind::LargePart => {
                let (matrix, prob) = if kind == Kind::ExactSuite {
                    (
                        vec![ScenarioSpec::a(1), ScenarioSpec::b(2.0e7)],
                        PropagationMode::ExactBdd,
                    )
                } else {
                    (
                        ScenarioSpec::default_matrix(),
                        PropagationMode::partitioned(),
                    )
                };
                for spec in matrix {
                    cells.push(Cell {
                        case: i,
                        label: format!("{}/{}", case.name, spec.label),
                        flow: template().scenario(spec.scenario, spec.seed).prob(prob),
                        scenario: (spec.scenario, spec.seed),
                        enumerate: kind == Kind::ExactSuite
                            && case.circuit.primary_inputs().len() <= ENUMERATION_MAX_INPUTS,
                        table3: false,
                    });
                }
            }
            Kind::Table3Sim => {
                // The paper protocol of `table3_benchmarks --quick`.
                let seed = 0xBEEF + i as u64;
                for (label, scenario) in [("A", Scenario::a()), ("B", Scenario::b())] {
                    cells.push(Cell {
                        case: i,
                        label: format!("{}/{label}", case.name),
                        flow: template().scenario(scenario, seed).simulate(SimOptions {
                            duration: DurationPolicy::Auto {
                                target_toggles: TABLE3_TOGGLES,
                            },
                            warmup_frac: 0.1,
                            seed: seed ^ 0x5151,
                            baseline: false,
                        }),
                        scenario: (scenario, seed),
                        enumerate: false,
                        table3: true,
                    });
                }
            }
        }
    }
    // Largest circuits first, so the two workers finish a pass together
    // whatever the seed.
    cells.sort_by_key(|c| std::cmp::Reverse(cases[c.case].circuit.gates().len()));
    cells
}

/// Runs one whole pass over `cells` on [`THREADS`] workers. With
/// `check` set, every output is also checked (outside the cell's wall
/// time) and problems are appended to `problems`.
fn run_pass(
    env: &FlowEnv,
    cases: &[BenchmarkCase],
    cells: &[Cell],
    check: Option<u64>,
    problems: &Mutex<Vec<String>>,
) -> Vec<CellRun> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<CellRun>>> = Mutex::new((0..cells.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                let mut scratch = Scratch::new();
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let Some(cell) = cells.get(idx) else { break };
                    let run = run_cell(env, cases, idx, cell, &mut scratch, check, problems);
                    slots.lock().expect("result slots poisoned")[idx] = Some(run);
                }
            });
        }
    });
    slots
        .into_inner()
        .expect("result slots poisoned")
        .into_iter()
        .map(|r| r.expect("every cell ran"))
        .collect()
}

fn run_cell(
    env: &FlowEnv,
    cases: &[BenchmarkCase],
    idx: usize,
    cell: &Cell,
    scratch: &mut Scratch,
    check: Option<u64>,
    problems: &Mutex<Vec<String>>,
) -> CellRun {
    let case = &cases[cell.case];
    let circuit = &case.circuit;
    let t = Instant::now();
    let result = {
        let _cell = tr_trace::span!("bench.cell");
        let stage = {
            let _s = tr_trace::span!("flow.prepare_stats");
            cell.flow.prepare_stats(env, circuit)
        };
        stage.and_then(|stage| {
            let net_stats = check.map(|_| stage.net_stats().to_vec());
            let _s = tr_trace::span!("flow.run_staged");
            cell.flow
                .run_staged(env, circuit, case.name.clone(), 0.0, stage, scratch)
                .map(|(report, optimized)| (report, optimized, net_stats))
        })
    };
    let wall_s = t.elapsed().as_secs_f64();
    let result = result
        .map_err(|e| e.to_string())
        .map(|(report, optimized, net_stats)| {
            let json = checks::without_timings(&report.to_json());
            let mut transitions = 0;
            if let Some(seed) = check {
                let mut found = Vec::new();
                let vectors_seed = seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                if let Err(e) = checks::same_function(
                    &env.library,
                    circuit,
                    &optimized,
                    vectors_seed,
                    EQUIV_VECTORS,
                ) {
                    found.push(e);
                }
                if let Err(e) = checks::power_properties(&report) {
                    found.push(e);
                }
                if let Some(net_stats) = net_stats.filter(|_| cell.enumerate) {
                    found.extend(check_enumeration(env, circuit, cell.scenario, &net_stats).err());
                }
                if cell.table3 {
                    let (scenario, seed) = cell.scenario;
                    match check_simulation(env, circuit, &optimized, &report, scenario, seed) {
                        Ok(n) => transitions = n,
                        Err(e) => found.push(e),
                    }
                }
                problems
                    .lock()
                    .expect("problem list poisoned")
                    .extend(found.into_iter().map(|e| format!("{}: {e}", cell.label)));
            }
            CellOutput {
                report,
                json,
                transitions,
            }
        });
    CellRun { wall_s, result }
}

/// Net probabilities from the exact backend match enumeration over the
/// scenario's own input statistics.
fn check_enumeration(
    env: &FlowEnv,
    circuit: &Circuit,
    (scenario, seed): (Scenario, u64),
    net_stats: &[SignalStats],
) -> Result<(), String> {
    let inputs = scenario.input_stats(circuit.primary_inputs().len(), seed);
    let exact = checks::enumerate_probabilities(&env.library, circuit, &inputs)?;
    for (net, (s, p)) in net_stats.iter().zip(&exact).enumerate() {
        if (s.probability() - p).abs() > ENUMERATION_TOL {
            return Err(format!(
                "net {net}: BDD probability {} vs enumeration {p}",
                s.probability()
            ));
        }
    }
    Ok(())
}

/// Re-runs the Table 3 simulations directly through `tr_sim` and checks
/// that they reproduce the flow's figures, and that every primary
/// input toggled as often as its scenario density asks, within 4σ.
/// Returns the simulated transitions of both orderings.
fn check_simulation(
    env: &FlowEnv,
    circuit: &Circuit,
    best: &Circuit,
    report: &FlowReport,
    scenario: Scenario,
    seed: u64,
) -> Result<u64, String> {
    let stats = scenario.input_stats(circuit.primary_inputs().len(), seed);
    let duration = tr_flow::sim_duration(&stats, TABLE3_TOGGLES);
    let config = SimConfig {
        duration,
        warmup: duration * 0.1,
        seed: seed ^ 0x5151,
    };
    let worst = tr_reorder::optimize(
        circuit,
        &env.library,
        &env.model,
        &stats,
        Objective::MaximizePower,
    )
    .circuit;
    let sim = report.sim.as_ref().ok_or("report lacks its simulation")?;
    let mut transitions = 0;
    for (which, c, want) in [("best", best, sim.best_w), ("worst", &worst, sim.worst_w)] {
        let r = tr_sim::simulate(c, &env.library, &env.process, &env.timing, &stats, &config);
        if Some(r.power) != want {
            return Err(format!(
                "direct {which} simulation {} W != flow's {want:?}",
                r.power
            ));
        }
        for (k, (net, s)) in c.primary_inputs().iter().zip(&stats).enumerate() {
            let count = r.net_transitions[net.0] as f64;
            let expected = s.density() * r.measured_time;
            let p = s.probability();
            let sigma = (2.0 * expected * (p * p + (1.0 - p) * (1.0 - p))).sqrt();
            if (count - expected).abs() > 4.0 * sigma {
                return Err(format!(
                    "{which}: input {k} toggled {count} times, expected {expected:.1} ± {sigma:.1}"
                ));
            }
        }
        transitions += r.net_transitions.iter().sum::<u64>();
    }
    Ok(transitions)
}

/// The Table 3 shape: on scenario A the mean simulated saving S is
/// positive and below the model's M; B's mean S falls below A's.
fn check_table3_shape(cells: &[Cell], runs: &[CellRun]) -> Result<(), String> {
    let mean_of = |scenario: &str, f: fn(&FlowReport) -> f64| {
        let v: Vec<f64> = cells
            .iter()
            .zip(runs)
            .filter(|(c, _)| c.label.ends_with(scenario))
            .filter_map(|(_, r)| r.result.as_ref().ok().map(|o| f(&o.report)))
            .collect();
        mean(&v)
    };
    let (s_a, m_a, s_b) = (
        mean_of("/A", sim_reduction),
        mean_of("/A", model_reduction),
        mean_of("/B", sim_reduction),
    );
    if !(s_a > 0.0 && m_a > s_a && s_b < s_a) {
        return Err(format!(
            "Table 3 shape broken: A mean S {s_a:.2}%, M {m_a:.2}%; B mean S {s_b:.2}%"
        ));
    }
    Ok(())
}

fn sim_reduction(r: &FlowReport) -> f64 {
    r.sim
        .as_ref()
        .and_then(|s| s.reduction_percent)
        .unwrap_or(f64::NAN)
}

fn model_reduction(r: &FlowReport) -> f64 {
    r.power.headroom_percent.unwrap_or(f64::NAN)
}

/// Whether a cell counts as failed: it errored, or (the named
/// `large_part` fault) its partitioned statistics fell back to the
/// independent backend.
fn failed(kind: Kind, run: &CellRun) -> bool {
    match &run.result {
        Err(_) => true,
        Ok(o) => kind == Kind::LargePart && o.report.prob_mode != "part",
    }
}

/// The counts of one pass that must repeat exactly in every run.
fn exact_counts(cells: &[Cell], runs: &[CellRun]) -> Vec<String> {
    cells
        .iter()
        .zip(runs)
        .map(|(cell, run)| match &run.result {
            Ok(o) => format!(
                "{} prob={} changed_gates={} peak_live_nodes={} partition_regions={} shrink_retries={} transitions={}",
                cell.label,
                o.report.prob_mode,
                o.report.changed_gates,
                o.report.perf.peak_live_nodes.unwrap_or(0),
                o.report.partition_regions.unwrap_or(0),
                shrink_retries(&o.report),
                o.transitions
            ),
            Err(e) => format!("{} error={e}", cell.label),
        })
        .collect()
}

fn shrink_retries(r: &FlowReport) -> usize {
    r.degrade_events
        .iter()
        .filter(|e| e.rung == "shrink-regions")
        .count()
}

/// Runs one batch workload and returns its outcome.
pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();

    // Set-up: the flow environment and the suite.
    let mut setups = Vec::new();
    let mut set_up = || {
        let t = Instant::now();
        let env = FlowEnv::new();
        let cases = suite_for(kind, &env);
        setups.push(t.elapsed().as_secs_f64());
        (env, cases)
    };
    for _ in 1..SETUP_REPEATS {
        set_up();
    }
    let (env, cases) = set_up();
    let cells = cells_for(kind, &cases);

    // Check pass.
    let problems = Mutex::new(Vec::new());
    let reference = run_pass(&env, &cases, &cells, Some(seed), &problems);
    let mut problems = problems.into_inner().expect("problem list poisoned");
    if kind == Kind::Table3Sim {
        problems.extend(check_table3_shape(&cells, &reference).err());
    }
    let transitions: Vec<u64> = reference
        .iter()
        .map(|r| r.result.as_ref().map_or(0, |o| o.transitions))
        .collect();
    for (cell, run) in cells.iter().zip(&reference) {
        if failed(kind, run) {
            let why = match &run.result {
                Err(e) => e.clone(),
                Ok(o) => format!(
                    "prob_mode {} (rung {:?})",
                    o.report.prob_mode, o.report.degrade_rung
                ),
            };
            out.note(format!("failed cell {}: {why}", cell.label));
            if kind != Kind::LargePart {
                problems.push(format!("{}: unexpected failure", cell.label));
            }
        }
    }
    out.exact = exact_counts(&cells, &reference);

    // Timed passes; a traced run alternates untraced and traced passes
    // so the tracing overhead is measured within the run.
    let (mut cell_ms, mut pass_mid_ms) = (Vec::new(), Vec::new());
    let (mut untraced_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut layers = LayerTally::default();
    let start = Instant::now();
    for pass in 0.. {
        let traced_pass = trace && pass % 2 == 1;
        if traced_pass {
            tr_trace::reset();
            tr_trace::enable();
        }
        let t = Instant::now();
        let runs = run_pass(&env, &cases, &cells, None, &Mutex::new(Vec::new()));
        let wall = t.elapsed().as_secs_f64();
        if traced_pass {
            tr_trace::disable();
            layers.fold.add_trace(&tr_trace::chrome_trace_json());
            traced_walls.push(wall);
            layers.add_pass(&runs, transitions.iter().sum());
            if kind == Kind::LargePart {
                layers.partition_ms += time_partitions(&env, &cases, &cells);
            }
        } else {
            untraced_walls.push(wall);
            let ms: Vec<f64> = runs.iter().map(|r| r.wall_s * 1e3).collect();
            pass_mid_ms.push(mid_mean(&ms));
            cell_ms.extend(ms);
        }
        for _ in 0..SETUPS_PER_PASS {
            set_up();
        }
        out.attempted += cells.len() as u64;
        for ((cell, run), want) in cells.iter().zip(&runs).zip(&reference) {
            let same = match (&run.result, &want.result) {
                (Ok(a), Ok(b)) => a.json == b.json,
                (Err(a), Err(b)) => a == b,
                _ => false,
            };
            if !same {
                problems.push(format!(
                    "{}: pass {pass} differs from the check pass",
                    cell.label
                ));
            }
            out.failed += u64::from(failed(kind, run));
        }
        let both_kinds = !trace || !traced_walls.is_empty();
        if start.elapsed().as_secs_f64() >= seconds && both_kinds {
            break;
        }
    }
    out.problems = problems;

    if trace {
        layers.report(&mut out, &reference);
        out.metric(
            "trace.overhead_pct",
            100.0 * (median(&traced_walls) / median(&untraced_walls) - 1.0),
            "%",
        );
        return out;
    }
    // Throughput per pass, then the faster quartile over passes: other
    // tenants of the machine only ever slow a pass, so the faster passes
    // estimate the program's own speed more steadily than the median
    // pass does. The typical cell latency is the mean of each pass's
    // middle half of cells, then the median over passes.
    let pass_rates: Vec<f64> = untraced_walls
        .iter()
        .map(|w| cells.len() as f64 / w)
        .collect();
    out.metric("setup_s", quantile(&setups, 0.25), "s");
    out.metric("ops_per_s", quantile(&pass_rates, 0.75), "ops/s");
    out.metric("op_mid_ms", median(&pass_mid_ms), "ms");
    out.metric("op_tail_ms", tail_mean(&cell_ms), "ms");
    out.metric(
        "peak_rss_mb",
        peak_rss_mib("self").unwrap_or(f64::NAN),
        "MiB",
    );
    let reports: Vec<&FlowReport> = reference
        .iter()
        .filter_map(|r| r.result.as_ref().ok().map(|o| &o.report))
        .collect();
    crate::quality_metrics(&mut out, &reports);
    out
}

/// Per-layer figures gathered over the traced passes.
#[derive(Default)]
struct LayerTally {
    fold: Fold,
    cells: usize,
    cell_ms: f64,
    hit_rates: Vec<f64>,
    peak_live_nodes: usize,
    headroom: Vec<f64>,
    transitions: u64,
    partition_ms: f64,
}

impl LayerTally {
    fn add_pass(&mut self, runs: &[CellRun], transitions: u64) {
        self.cells += runs.len();
        self.transitions += transitions;
        for run in runs {
            self.cell_ms += run.wall_s * 1e3;
            if let Ok(o) = &run.result {
                self.hit_rates.extend(o.report.perf.cache_hit_rate);
                self.peak_live_nodes = self
                    .peak_live_nodes
                    .max(o.report.perf.peak_live_nodes.unwrap_or(0));
                self.headroom.extend(o.report.power.headroom_percent);
            }
        }
    }

    /// Milliseconds per cell for every layer, plus the layer counts.
    fn report(&self, out: &mut Outcome, reference: &[CellRun]) {
        let per_cell = |ms: f64| ms / self.cells.max(1) as f64;
        for (name, ms) in self.fold.layer_totals() {
            out.metric(name, per_cell(ms), "ms");
        }
        out.metric("netlist.partition_ms", per_cell(self.partition_ms), "ms");
        let unattributed = self.cell_ms - self.fold.layer_covered_ms();
        out.metric("flow.unattributed_ms", per_cell(unattributed), "ms");
        out.metric(
            "trace.unattributed_pct",
            100.0 * unattributed / self.cell_ms,
            "%",
        );
        out.metric("bdd.cache_hit_rate", mean(&self.hit_rates), "ratio");
        out.metric("bdd.peak_live_nodes", self.peak_live_nodes as f64, "count");
        let shrinks: usize = reference
            .iter()
            .filter_map(|r| r.result.as_ref().ok())
            .map(|o| shrink_retries(&o.report))
            .sum();
        out.metric("power.shrink_retries", shrinks as f64, "count");
        out.metric("reorder.headroom_pct", mean(&self.headroom), "%");
        let sim_s = self.fold.incl_ms("sim.run") / 1e3;
        let rate = if sim_s > 0.0 {
            self.transitions as f64 / sim_s
        } else {
            0.0
        };
        out.metric("sim.transitions_per_s", rate, "1/s");
        // The Table 3 columns: mean simulated saving S and the mean
        // model-versus-simulation gap |M − S|.
        let (s, gap): (Vec<f64>, Vec<f64>) = reference
            .iter()
            .filter_map(|r| r.result.as_ref().ok())
            .filter(|o| o.report.sim.is_some())
            .map(|o| {
                let s = sim_reduction(&o.report);
                (s, (model_reduction(&o.report) - s).abs())
            })
            .unzip();
        out.metric("sim.reduction_pct", mean(&s), "%");
        out.metric("sim.model_gap_pct", mean(&gap), "%points");
    }
}

/// Times the netlist layer's region packing under the default
/// partitioned knobs, once per cell, outside the cells' wall time.
/// Returns total milliseconds.
fn time_partitions(env: &FlowEnv, cases: &[BenchmarkCase], cells: &[Cell]) -> f64 {
    let options = packing_options(DEFAULT_REGION_NODES, DEFAULT_CUT_WIDTH, None);
    let mut ms = 0.0;
    for cell in cells {
        let compiled = CompiledCircuit::compile(&cases[cell.case].circuit, &env.library)
            .expect("suite circuits compile");
        let t = Instant::now();
        let partition = tr_netlist::partition::partition(&compiled, &options);
        ms += t.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(partition.regions().len());
    }
    ms
}
