//! Output checks, each computed apart from the layer it checks: logic
//! equivalence by plain gate evaluation and by each gate's chosen
//! transistor network (no BDD), net probabilities by
//! exhaustive enumeration, and report-level properties the method must
//! have.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tr_boolean::{BoolFn, SignalStats, MAX_VARS};
use tr_flow::FlowReport;
use tr_gatelib::{CellKind, Library};
use tr_netlist::{Circuit, CompiledCircuit};

/// Relative slack for comparing two model powers computed along
/// different summation orders.
const POWER_RTOL: f64 = 1e-12;

fn compile(circuit: &Circuit, library: &Library) -> Result<CompiledCircuit, String> {
    CompiledCircuit::compile(circuit, library).map_err(|e| format!("compile: {e:?}"))
}

/// The optimized circuit keeps every gate's cell, picks a configuration
/// its cell has, and computes the same primary outputs as the input
/// circuit on `vectors` seeded random input vectors. Both circuits are
/// evaluated by `CompiledCircuit::evaluate`, which reads each cell's
/// logic function. The optimized circuit is also evaluated gate by gate
/// through the transistor network of each gate's chosen configuration
/// (the output node's pull-up path function), so a reordering whose
/// network computes another function fails too.
pub fn same_function(
    library: &Library,
    before: &Circuit,
    after: &Circuit,
    seed: u64,
    vectors: usize,
) -> Result<(), String> {
    if before.gates().len() != after.gates().len() {
        return Err("gate count changed".into());
    }
    for (i, (a, b)) in before.gates().iter().zip(after.gates()).enumerate() {
        if a.cell != b.cell {
            return Err(format!("gate {i} changed cell"));
        }
    }
    let networks = network_functions(library, after)?;
    let order = after
        .topological_order()
        .map_err(|e| format!("optimized circuit: {e:?}"))?;
    let (cb, ca) = (compile(before, library)?, compile(after, library)?);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut vector = vec![false; cb.primary_inputs().len()];
    let mut by_network = vec![false; after.net_count()];
    let mut assignment = [false; MAX_VARS];
    for v in 0..vectors {
        for bit in vector.iter_mut() {
            *bit = rng.gen_bool(0.5);
        }
        let (vb, va) = (cb.evaluate(library, &vector), ca.evaluate(library, &vector));
        for (&net, &bit) in after.primary_inputs().iter().zip(&vector) {
            by_network[net.0] = bit;
        }
        for &id in &order {
            let gate = after.gate(id);
            for (slot, net) in assignment.iter_mut().zip(&gate.inputs) {
                *slot = by_network[net.0];
            }
            by_network[gate.output.0] = networks[id.0].eval(&assignment[..gate.inputs.len()]);
        }
        let outputs = cb.primary_outputs().iter().zip(ca.primary_outputs());
        for (k, (&ob, &oa)) in outputs.enumerate() {
            if vb[ob.0] != va[oa.0] {
                return Err(format!("output {k} differs on random vector {v}"));
            }
            if vb[ob.0] != by_network[oa.0] {
                return Err(format!(
                    "output {k} differs on random vector {v} when evaluated through \
                     the chosen transistor networks"
                ));
            }
        }
    }
    Ok(())
}

/// The logic function of every gate's chosen configuration, read off
/// its transistor network, one per gate. Cells share a cache, keyed by
/// cell and configuration.
fn network_functions(library: &Library, circuit: &Circuit) -> Result<Vec<BoolFn>, String> {
    let mut cache: HashMap<(CellKind, usize), BoolFn> = HashMap::new();
    circuit
        .gates()
        .iter()
        .enumerate()
        .map(|(i, gate)| {
            let cell = library
                .cell(&gate.cell)
                .ok_or_else(|| format!("gate {i}: cell {:?} not in the library", gate.cell))?;
            let configs = cell.configurations().len();
            if gate.config >= configs {
                return Err(format!(
                    "gate {i}: configuration {} out of range ({:?} has {configs})",
                    gate.config, gate.cell
                ));
            }
            Ok(cache
                .entry((gate.cell.clone(), gate.config))
                .or_insert_with(|| cell.graph(gate.config).output_function())
                .clone())
        })
        .collect()
}

/// Every net's signal probability by enumerating all `2^n` input
/// vectors, each weighted by the product of its inputs' probabilities.
pub fn enumerate_probabilities(
    library: &Library,
    circuit: &Circuit,
    inputs: &[SignalStats],
) -> Result<Vec<f64>, String> {
    let compiled = compile(circuit, library)?;
    let n = inputs.len();
    let mut probability = vec![0.0; compiled.net_count()];
    let mut vector = vec![false; n];
    let mut values = vec![false; compiled.net_count()];
    for code in 0u64..(1 << n) {
        let mut weight = 1.0;
        for (i, bit) in vector.iter_mut().enumerate() {
            *bit = code >> i & 1 == 1;
            let p = inputs[i].probability();
            weight *= if *bit { p } else { 1.0 - p };
        }
        if weight == 0.0 {
            continue;
        }
        compiled.evaluate_into(library, &vector, &mut values);
        for (acc, &v) in probability.iter_mut().zip(&values) {
            if v {
                *acc += weight;
            }
        }
    }
    Ok(probability)
}

/// The report-level properties of a min-objective run with headroom:
/// model power does not rise, and best ≤ worst.
pub fn power_properties(report: &FlowReport) -> Result<(), String> {
    let p = &report.power;
    if p.model_after_w > p.model_before_w * (1.0 + POWER_RTOL) {
        return Err(format!(
            "model power rose: {} W → {} W",
            p.model_before_w, p.model_after_w
        ));
    }
    match (p.model_best_w, p.model_worst_w) {
        (Some(best), Some(worst)) if best <= worst * (1.0 + POWER_RTOL) => Ok(()),
        (Some(best), Some(worst)) => Err(format!("best {best} W above worst {worst} W")),
        _ => Err("report lacks the best/worst headroom pass".into()),
    }
}

/// A report's JSON with its wall-clock fields blanked (the `timings`
/// object and each degradation event's `elapsed_ms`): what must repeat
/// exactly between two runs of the same request.
pub fn without_timings(json: &str) -> String {
    let body = match json.rfind(",\"timings\":") {
        Some(at) => &json[..at],
        None => json,
    };
    let key = "\"elapsed_ms\":";
    let mut out = String::with_capacity(body.len());
    let mut rest = body;
    while let Some(at) = rest.find(key) {
        out.push_str(&rest[..at + key.len()]);
        rest = &rest[at + key.len()..];
        rest = &rest[rest.find([',', '}']).unwrap_or(rest.len())..];
        out.push('_');
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blanks_wall_clock_fields() {
        let json = "{\"a\":1,\"degrade_events\":[{\"rung\":\"x\",\"elapsed_ms\":12.5}],\"timings\":{\"load_s\":0.1}}";
        assert_eq!(
            without_timings(json),
            "{\"a\":1,\"degrade_events\":[{\"rung\":\"x\",\"elapsed_ms\":_}]"
        );
    }
}
