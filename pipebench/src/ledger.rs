//! The per-layer ledger: folds Chrome trace-event JSON (the tracer's
//! in-memory buffer, or a daemon's `--trace` file) into inclusive and
//! self time per span name, and maps span names onto the workspace's
//! crates.
//!
//! Self time attributes every instant of a thread's timeline to its
//! innermost open span. Inclusive time counts only the outermost span of
//! each name, so a name nested in itself (`part.region`) is not counted
//! twice.

use std::collections::{BTreeMap, HashMap};

/// Spans that wrap pipeline glue rather than a layer's work: their self
/// time is the wall time no layer span accounts for.
const GLUE: &[&str] = &[
    "bench.cell",
    "flow.prepare_stats",
    "flow.run_staged",
    "flow.stats",
    "flow.sim",
    "flow.write",
    "flow.load",
    "flow.rehydrate",
    "serve.request",
    "serve.handle",
    "serve.accept",
];

/// Span names folded together into one layer figure: the region
/// evaluations of the partitioned backend run inside `part.propagate`
/// on a cold build, and on their own under the incremental propagator.
const GROUPS: &[(&str, &str)] = &[("part.propagate", "part.*"), ("part.region", "part.*")];

fn group_of(name: &str) -> Option<&'static str> {
    GROUPS.iter().find(|(n, _)| *n == name).map(|(_, g)| *g)
}

/// Span times folded from one or more traces, in microseconds.
#[derive(Debug, Default)]
pub struct Fold {
    inclusive: BTreeMap<String, f64>,
    self_time: BTreeMap<String, f64>,
}

struct Open {
    name: String,
    start: u64,
    outermost: bool,
    group_outermost: Option<&'static str>,
}

/// The value of `"key":` in one event line: a string's contents or a
/// bare number.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &line[at..];
    if let Some(s) = rest.strip_prefix('"') {
        s.find('"').map(|end| &s[..end])
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(&rest[..end])
    }
}

impl Fold {
    /// Folds one Chrome trace document as the tracer writes it: one
    /// event per line, begin/end pairs per thread, sorted by time.
    pub fn add_trace(&mut self, json: &str) {
        let mut stacks: HashMap<u64, (Vec<Open>, u64)> = HashMap::new();
        for line in json.lines() {
            let (Some(name), Some(ph), Some(tid), Some(ts)) = (
                field(line, "name"),
                field(line, "ph"),
                field(line, "tid").and_then(|t| t.parse::<u64>().ok()),
                field(line, "ts").and_then(|t| t.parse::<u64>().ok()),
            ) else {
                continue;
            };
            if ph != "B" && ph != "E" {
                continue;
            }
            let (stack, last) = stacks.entry(tid).or_insert_with(|| (Vec::new(), ts));
            if let Some(top) = stack.last() {
                *self.self_time.entry(top.name.clone()).or_default() += (ts - *last) as f64;
            }
            *last = ts;
            if ph == "B" {
                let outermost = !stack.iter().any(|o| o.name == name);
                let group = group_of(name);
                let group_outermost =
                    group.filter(|&g| !stack.iter().any(|o| group_of(&o.name) == Some(g)));
                stack.push(Open {
                    name: name.to_string(),
                    start: ts,
                    outermost,
                    group_outermost,
                });
            } else if let Some(open) = stack.pop() {
                let dur = (ts - open.start) as f64;
                if let Some(g) = open.group_outermost {
                    *self.inclusive.entry(g.to_string()).or_default() += dur;
                }
                if open.outermost {
                    *self.inclusive.entry(open.name).or_default() += dur;
                }
            }
        }
    }

    /// Adds another fold's times to this one.
    pub fn merge(&mut self, other: Fold) {
        for (k, v) in other.inclusive {
            *self.inclusive.entry(k).or_default() += v;
        }
        for (k, v) in other.self_time {
            *self.self_time.entry(k).or_default() += v;
        }
    }

    /// Inclusive milliseconds under spans called `name` (or under any
    /// span of a group such as `part.*`).
    pub fn incl_ms(&self, name: &str) -> f64 {
        self.inclusive.get(name).copied().unwrap_or(0.0) / 1e3
    }

    /// Self milliseconds of spans whose name starts with `prefix`.
    pub fn self_ms(&self, prefix: &str) -> f64 {
        self.self_time
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, us)| us)
            .sum::<f64>()
            / 1e3
    }

    /// Milliseconds covered by layer spans: self time of every span that
    /// is not pipeline glue.
    pub fn layer_covered_ms(&self) -> f64 {
        self.self_time
            .iter()
            .filter(|(n, _)| !GLUE.contains(&n.as_str()))
            .map(|(_, us)| us)
            .sum::<f64>()
            / 1e3
    }

    /// The layer times every workload reports, in total milliseconds:
    /// `(metric, ms)`.
    pub fn layer_totals(&self) -> Vec<(&'static str, f64)> {
        let staged_stages = self.incl_ms("flow.optimize")
            + self.incl_ms("flow.timing")
            + self.incl_ms("flow.sim")
            + self.incl_ms("flow.write");
        vec![
            ("bdd.build_ms", self.incl_ms("bdd.build")),
            ("bdd.exact_stats_ms", self.incl_ms("bdd.exact_stats")),
            ("bdd.repropagate_ms", self.incl_ms("bdd.repropagate")),
            ("power.partition_ms", self.incl_ms("part.*")),
            ("power.refresh_ms", self.incl_ms("prop.refresh")),
            (
                "reorder.optimize_ms",
                self.self_ms("flow.optimize") + self.self_ms("opt."),
            ),
            ("timing.sta_ms", self.incl_ms("flow.timing")),
            ("sim.simulate_ms", self.incl_ms("sim.run")),
            (
                "flow.stats_ms",
                if self.inclusive.contains_key("flow.prepare_stats") {
                    self.incl_ms("flow.prepare_stats")
                } else {
                    self.incl_ms("flow.stats")
                },
            ),
            (
                "flow.staged_ms",
                if self.inclusive.contains_key("flow.run_staged") {
                    self.incl_ms("flow.run_staged")
                } else {
                    staged_stages
                },
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_nested_spans() {
        let trace = "{\"traceEvents\":[\n\
            {\"name\":\"bench.cell\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":0},\n\
            {\"name\":\"part.region\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":10},\n\
            {\"name\":\"part.region\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":12,\"args\":{\"id\":3}},\n\
            {\"name\":\"part.region\",\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":15},\n\
            {\"name\":\"part.region\",\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":20},\n\
            {\"name\":\"bench.cell\",\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":100}\n]}\n";
        let mut f = Fold::default();
        f.add_trace(trace);
        assert_eq!(f.incl_ms("part.region"), 0.010);
        assert_eq!(f.incl_ms("part.*"), 0.010);
        assert_eq!(f.incl_ms("bench.cell"), 0.100);
        assert_eq!(f.self_ms("bench.cell"), 0.090);
        assert_eq!(f.layer_covered_ms(), 0.010);
    }
}
