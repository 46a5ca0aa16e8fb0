//! `serve_mix`: the `tr-opt serve` daemon, in its own process, under two
//! closed-loop clients sending `POST /optimize` (exact backend) over
//! standard-suite `.trnet` netlists.
//!
//! A run is a number of rounds, made until `--seconds` have gone by.
//! Each round starts a fresh daemon (its set-up time is daemon start
//! until the first `/healthz` answers), sends the same requests (each
//! client's blocks in a new order) and stops the daemon with SIGTERM, so
//! every round meets the same cold cache and the hit and miss counts
//! depend only on the requests. Each client owns its circuits, so the
//! `X-Cache` verdict of every request is known in advance:
//!
//! - a first touch of a (netlist, scenario) key is a miss: parse, map,
//!   BDD build, optimize;
//! - a re-ask with new result knobs (objective, headroom pass, delay
//!   bound, fixpoint) on a cached key is a warm hit: rehydrate,
//!   optimize, refresh;
//! - a replay of an earlier request is answered from the memo.
//!
//! The mix is synthetic: the repository holds no recorded request
//! trace. Re-asks are the majority, so the median request runs
//! rehydrate, optimize and re-propagation; first touches are a 5%
//! minority.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Cursor, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use tr_flow::json::json_string;
use tr_flow::{parse_netlist, Flow, FlowEnv, FlowReport, StatsSnapshot};
use tr_netlist::{format as trnet, suite, Circuit};
use tr_power::Scratch;
use tr_serve::http::{self, Response};
use tr_serve::request::OptimizeRequest;

use crate::checks;
use crate::ledger::Fold;
use crate::stats::{mean, mid_mean, peak_rss_mib, quantile, tail_mean};
use crate::{Outcome, THREADS};

/// Netlists outside this size range (bytes of `.trnet`) are left out.
const NETLIST_BYTES: std::ops::RangeInclusive<usize> = 300..=26 * 1024;
/// Left out of the mix: `rnd_e`'s exact BDD peaks at 757,848 live nodes
/// and its first touch takes ≈1.7 s, which would stall one client for
/// most of a round.
const LEFT_OUT: &[&str] = &["rnd_e"];
/// Every run sends at least this many requests.
const MIN_REQUESTS: usize = 1000;
/// Every request asks for scenario A with this seed: the seed drawn per
/// run only orders the requests, so the work of a round is the same in
/// every run.
const SCENARIO_SEED: u64 = 1;
/// How long a daemon may take to answer its first `/healthz`.
const START_TIMEOUT: Duration = Duration::from_secs(60);
/// Where traced rounds leave the daemon's trace, relative to the
/// checkout root.
const TMP_DIR: &str = ".pipebench_tmp";

/// The result knobs a client asks for on each of its circuits: the
/// twelve valid combinations of objective, headroom pass, delay bound
/// and fixpoint (a delay bound needs the minimize objective, and the
/// fixpoint needs no delay bound). Variant 0 is the plain request.
const VARIANTS: [(&str, bool, &str, bool); 12] = [
    ("min", false, "none", false),
    ("max", false, "none", false),
    ("min", true, "none", false),
    ("max", true, "none", false),
    ("min", false, "local", false),
    ("min", true, "local", false),
    ("min", false, "slack", false),
    ("min", true, "slack", false),
    ("min", false, "none", true),
    ("max", false, "none", true),
    ("min", true, "none", true),
    ("max", true, "none", true),
];

fn knobs(variant: usize) -> String {
    let (objective, headroom, bound, fixpoint) = VARIANTS[variant];
    format!(
        ", \"objective\": \"{objective}\", \"headroom\": {headroom}, \"delay_bound\": \"{bound}\", \"fixpoint\": {fixpoint}"
    )
}

/// The variants each client sends per circuit, in order. The first
/// sending of variant 0 is the first touch (a miss), the first sending
/// of every other variant is a warm re-ask, and every repeat is a memo
/// replay: 1 miss, 11 warm re-asks and 8 memo replays, that is 5%, 55%
/// and 40% of the requests.
const BLOCK: [usize; 20] = [0, 1, 0, 2, 3, 1, 4, 5, 0, 6, 7, 2, 8, 9, 3, 10, 11, 0, 4, 6];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Miss,
    Warm,
    Memo,
}

/// One distinct request body and its in-process reference.
struct Distinct {
    body: String,
    raw: Vec<u8>,
    expected_json: String,
    report: FlowReport,
    /// The circuit slot (client-owned netlist + scenario).
    slot: usize,
}

/// A circuit slot: the parsed circuit and the stats snapshot a warm
/// request rehydrates from (for the traced layer timings).
struct Slot {
    circuit: Circuit,
    snapshot: StatsSnapshot,
}

/// One request of a client's sequence.
#[derive(Clone, Copy)]
struct Planned {
    distinct: usize,
    class: Class,
}

struct Plan {
    distinct: Vec<Distinct>,
    slots: Vec<Slot>,
    clients: Vec<Vec<Planned>>,
}

impl Plan {
    fn len(&self) -> usize {
        self.clients.iter().map(Vec::len).sum()
    }

    fn count(&self, class: Class) -> usize {
        self.clients
            .iter()
            .flatten()
            .filter(|p| p.class == class)
            .count()
    }

    /// Each client's sequence for one round: its circuits' blocks in an
    /// order drawn from the run's seed and the round. Every block starts
    /// with its circuit's first touch and a client owns its circuits, so
    /// the verdicts and counts do not depend on the order; the order
    /// only decides which requests of the two clients overlap.
    fn round_order(&self, seed: u64, round: usize) -> Vec<Vec<Planned>> {
        let mut state = (seed ^ (round as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            | 1;
        self.clients
            .iter()
            .map(|seq| {
                let mut blocks: Vec<&[Planned]> = seq.chunks(BLOCK.len()).collect();
                for i in (1..blocks.len()).rev() {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    blocks.swap(i, (state % (i as u64 + 1)) as usize);
                }
                blocks.concat()
            })
            .collect()
    }
}

fn body_for(name: &str, netlist: &str, scenario_seed: u64, variant: usize) -> String {
    format!(
        "{{\"name\": {}, \"netlist\": {}, \"format\": \"trnet\", \"prob\": \"bdd\", \"scenario\": \"a:{scenario_seed}\"{}}}",
        json_string(name),
        json_string(netlist),
        knobs(variant)
    )
}

fn raw_post(body: &str) -> Vec<u8> {
    format!(
        "POST /optimize HTTP/1.1\r\nHost: pipebench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The flow the daemon runs for a request (no server caps, one
/// optimizer thread — the request default).
fn request_flow(preq: &OptimizeRequest) -> Flow {
    Flow::from_circuit(Circuit::new("template"))
        .scenario(preq.scenario.scenario, preq.scenario.seed)
        .prob(preq.knobs.prob)
        .order(preq.knobs.order)
        .objective(preq.knobs.objective)
        .delay_bound(preq.knobs.delay_bound)
        .fixpoint(preq.knobs.fixpoint)
        .threads(preq.knobs.threads)
        .headroom(preq.headroom)
        .degrade(preq.knobs.degrade)
}

/// Builds the request sequence of both clients and runs every distinct
/// request once in process, as the reference its responses must equal.
fn plan(env: &FlowEnv) -> Result<Plan, String> {
    let mut circuits: Vec<(String, String)> = suite::standard_suite(&env.library)
        .into_iter()
        .filter(|c| !LEFT_OUT.contains(&c.name.as_str()))
        .map(|c| (c.name, trnet::write(&c.circuit)))
        .filter(|(_, text)| NETLIST_BYTES.contains(&text.len()))
        .collect();
    circuits.sort_by_key(|(_, text)| std::cmp::Reverse(text.len()));

    // Deal the circuits out alternately so both clients carry a similar
    // mix; each round reorders them (`Plan::round_order`).
    let mut per_client: Vec<Vec<usize>> = vec![Vec::new(); THREADS];
    for i in 0..circuits.len() {
        per_client[i % THREADS].push(i);
    }

    let mut bodies: Vec<(String, usize)> = Vec::new();
    let mut index: HashMap<(usize, usize), usize> = HashMap::new();
    let mut clients = Vec::new();
    for list in &per_client {
        let mut seen_slot = HashSet::new();
        let mut seen_body = HashSet::new();
        let mut seq = Vec::new();
        for &c in list {
            let (name, text) = &circuits[c];
            for variant in BLOCK {
                let d = *index.entry((c, variant)).or_insert_with(|| {
                    bodies.push((body_for(name, text, SCENARIO_SEED, variant), c));
                    bodies.len() - 1
                });
                let class = if seen_slot.insert(c) {
                    Class::Miss
                } else if seen_body.insert(d) {
                    Class::Warm
                } else {
                    Class::Memo
                };
                seen_body.insert(d);
                seq.push(Planned { distinct: d, class });
            }
        }
        clients.push(seq);
    }

    // References, two workers pulling bodies off a shared counter.
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, Result<Reference, String>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let mut scratch = Scratch::new();
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((body, _)) = bodies.get(i) else {
                            break mine;
                        };
                        mine.push((i, reference(env, body, &mut scratch)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("reference worker panicked"))
            .collect()
    });
    done.sort_by_key(|(i, _)| *i);
    let mut distinct: Vec<Distinct> = Vec::with_capacity(bodies.len());
    // Slots are indexed by circuit; any request on the circuit yields its
    // snapshot, since all share one cache key.
    let mut slots: Vec<Option<Slot>> = (0..circuits.len()).map(|_| None).collect();
    for ((body, slot), (_, r)) in bodies.into_iter().zip(done) {
        let r = r?;
        if let (None, Some(snapshot)) = (&slots[slot], r.snapshot) {
            slots[slot] = Some(Slot {
                circuit: r.circuit,
                snapshot,
            });
        }
        distinct.push(Distinct {
            raw: raw_post(&body),
            body,
            expected_json: r.json,
            report: r.report,
            slot,
        });
    }
    let slots = slots
        .into_iter()
        .enumerate()
        .map(|(c, s)| s.ok_or_else(|| format!("no snapshot for circuit {c}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Plan {
        distinct,
        slots,
        clients,
    })
}

/// One in-process run of a request.
struct Reference {
    /// The report JSON without its wall-clock fields.
    json: String,
    report: FlowReport,
    circuit: Circuit,
    /// The staged statistics before optimization, as the daemon caches.
    snapshot: Option<StatsSnapshot>,
}

fn reference(env: &FlowEnv, body: &str, scratch: &mut Scratch) -> Result<Reference, String> {
    let preq = tr_serve::parse_optimize(body).map_err(|e| e.to_string())?;
    let flow = request_flow(&preq);
    let circuit = parse_netlist(
        &preq.name,
        &preq.netlist,
        preq.format,
        &env.library,
        &Default::default(),
    )
    .map_err(|e| e.to_string())?;
    circuit
        .validate(&env.library)
        .map_err(|e| format!("{e:?}"))?;
    let stage = flow
        .prepare_stats(env, &circuit)
        .map_err(|e| e.to_string())?;
    let snapshot = stage.snapshot();
    let (report, _) = flow
        .run_staged(env, &circuit, preq.name.clone(), 0.0, stage, scratch)
        .map_err(|e| e.to_string())?;
    Ok(Reference {
        json: checks::without_timings(&report.to_json()),
        report,
        circuit,
        snapshot,
    })
}

/// One timed exchange: returns (connect seconds, total seconds,
/// response). It is timed by hand to split out the connect time, which
/// `tr_serve::http::request` does not expose; only the status line and
/// headers the checks read are parsed.
fn exchange(addr: SocketAddr, raw: &[u8]) -> Result<(f64, f64, Response), String> {
    let t = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let connect = t.elapsed().as_secs_f64();
    stream.write_all(raw).map_err(|e| format!("send: {e}"))?;
    let mut bytes = Vec::new();
    stream
        .read_to_end(&mut bytes)
        .map_err(|e| format!("receive: {e}"))?;
    let total = t.elapsed().as_secs_f64();
    let split = bytes
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response without a header end")?;
    let head = std::str::from_utf8(&bytes[..split]).map_err(|e| e.to_string())?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or("bad status line")?;
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let body = bytes.split_off(split + 4);
    Ok((
        connect,
        total,
        Response {
            status,
            headers,
            body,
        },
    ))
}

/// A running daemon; dropping it stops the process and waits for it.
struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    /// Starts `tr-opt serve` and waits for its first `/healthz`; returns
    /// the daemon and its set-up seconds.
    fn start(tr_opt: &Path, trace: Option<&Path>) -> Result<(Daemon, f64), String> {
        let t = Instant::now();
        let mut cmd = Command::new(tr_opt);
        cmd.args(["serve", "--threads", "2", "--addr", "127.0.0.1:0"]);
        if let Some(path) = trace {
            cmd.arg("--trace").arg(path);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", tr_opt.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("tr-serve listening on http://")
            .and_then(|a| a.parse().ok());
        let mut daemon = Daemon {
            child,
            _stdout: stdout,
            addr: "127.0.0.1:0".parse().expect("literal address"),
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => daemon.addr = addr,
            _ => return Err(format!("daemon did not announce its address: {line:?}")),
        }
        let addr = daemon.addr.to_string();
        loop {
            if let Ok(reply) = http::request(&addr, "GET", "/healthz", b"") {
                if reply.status == 200 {
                    break;
                }
            }
            if t.elapsed() > START_TIMEOUT {
                return Err("daemon never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok((daemon, t.elapsed().as_secs_f64()))
    }

    fn metrics(&self) -> Result<HashMap<String, f64>, String> {
        let reply = http::request(&self.addr.to_string(), "GET", "/metrics", b"")
            .map_err(|e| format!("scrape /metrics: {e}"))?;
        Ok(reply
            .text()
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| l.rsplit_once(' '))
            .filter_map(|(k, v)| v.parse().ok().map(|v| (k.to_string(), v)))
            .collect())
    }

    fn peak_rss_mib(&self) -> Option<f64> {
        peak_rss_mib(&self.child.id().to_string())
    }

    /// SIGTERM, then wait for the drain to finish.
    fn stop(mut self) -> Result<(), String> {
        let pid = self.child.id().to_string();
        let sent = Command::new("kill").args(["-TERM", &pid]).status();
        if !matches!(sent, Ok(s) if s.success()) {
            let _ = self.child.kill();
        }
        self.child
            .wait()
            .map_err(|e| format!("wait for daemon: {e}"))?;
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// What one round measured.
struct Round {
    setup_s: f64,
    wall_s: f64,
    latency_ms: Vec<f64>,
    connect_ms: Vec<f64>,
    peak_rss_mb: f64,
    queue_wait_ms: f64,
    failed: u64,
    fold: Option<Fold>,
}

fn run_round(
    tr_opt: &Path,
    plan: &Plan,
    clients: &[Vec<Planned>],
    trace: Option<&Path>,
    problems: &mut Vec<String>,
) -> Result<Round, String> {
    let (daemon, setup_s) = Daemon::start(tr_opt, trace)?;
    let addr = daemon.addr;
    let t = Instant::now();
    type Sent = Vec<(Planned, Result<(f64, f64, Response), String>)>;
    let per_client: Vec<Sent> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter()
            .map(|seq| {
                scope.spawn(move || {
                    seq.iter()
                        .map(|p| (*p, exchange(addr, &plan.distinct[p.distinct].raw)))
                        .collect::<Sent>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = t.elapsed().as_secs_f64();
    let metrics = daemon.metrics()?;
    let peak_rss_mb = daemon.peak_rss_mib().unwrap_or(f64::NAN);
    daemon.stop()?;

    let mut round = Round {
        setup_s,
        wall_s,
        latency_ms: Vec::new(),
        connect_ms: Vec::new(),
        peak_rss_mb,
        queue_wait_ms: metrics
            .get("serve_queue_wait_us_sum")
            .copied()
            .unwrap_or(0.0)
            / metrics
                .get("serve_queue_wait_us_count")
                .copied()
                .unwrap_or(1.0)
                .max(1.0)
            / 1e3,
        failed: 0,
        fold: None,
    };
    for (c, sent) in per_client.iter().enumerate() {
        let mut first_reply: HashMap<usize, &[u8]> = HashMap::new();
        for (i, (p, result)) in sent.iter().enumerate() {
            let d = &plan.distinct[p.distinct];
            let (connect, total, reply) = match result {
                Ok(r) => r,
                Err(e) => {
                    round.failed += 1;
                    problems.push(format!("client {c} request {i}: {e}"));
                    continue;
                }
            };
            round.latency_ms.push(total * 1e3);
            round.connect_ms.push(connect * 1e3);
            if let Err(e) = check_reply(p.class, d, reply, first_reply.get(&p.distinct).copied()) {
                problems.push(format!("client {c} request {i} ({:?}): {e}", p.class));
            }
            first_reply.entry(p.distinct).or_insert(&reply.body);
        }
    }
    let want = |name: &str, n: usize| {
        let got = metrics.get(name).copied().unwrap_or(0.0);
        (got != n as f64).then(|| format!("daemon counter {name} = {got}, sequence implies {n}"))
    };
    problems.extend(want("serve_cache_miss", plan.count(Class::Miss)));
    problems.extend(want(
        "serve_cache_hit",
        plan.count(Class::Warm) + plan.count(Class::Memo),
    ));
    if let Some(path) = trace {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let _ = std::fs::remove_file(path);
        let mut fold = Fold::default();
        fold.add_trace(&text);
        round.fold = Some(fold);
    }
    Ok(round)
}

/// A response is 200, not degraded, carries the verdict its place in
/// the sequence implies, equals the in-process reference apart from
/// timings, and a memo replay repeats the first response byte for byte.
fn check_reply(
    class: Class,
    d: &Distinct,
    reply: &Response,
    first: Option<&[u8]>,
) -> Result<(), String> {
    if reply.status != 200 {
        return Err(format!(
            "HTTP {}: {}",
            reply.status,
            String::from_utf8_lossy(&reply.body)
        ));
    }
    let text = std::str::from_utf8(&reply.body).map_err(|e| e.to_string())?;
    if !text.contains("\"degraded\":false") {
        return Err("degraded response".into());
    }
    let verdict = if class == Class::Miss { "miss" } else { "hit" };
    let x_cache = reply.header("x-cache");
    if x_cache != Some(verdict) {
        return Err(format!("X-Cache {x_cache:?}, expected {verdict}"));
    }
    if checks::without_timings(text.trim_end()) != d.expected_json {
        return Err("response differs from the in-process reference".into());
    }
    if class == Class::Memo && first.is_some_and(|f| f != reply.body.as_slice()) {
        return Err("memo replay is not the memoized response".into());
    }
    Ok(())
}

/// In-process timings of the serving layers over one round's requests,
/// in total milliseconds: (read, parse, key, rehydrate, netlist load).
fn layer_calls(env: &FlowEnv, plan: &Plan) -> [f64; 5] {
    let mut ms = [0.0; 5];
    let mut lap = |slot: usize, t: Instant| ms[slot] += t.elapsed().as_secs_f64() * 1e3;
    for p in plan.clients.iter().flatten() {
        let d = &plan.distinct[p.distinct];
        let t = Instant::now();
        let req = tr_serve::http::read_request(&mut Cursor::new(d.raw.as_slice()));
        lap(0, t);
        std::hint::black_box(req.map(|r| r.map(|r| r.body.len())).ok());
        let t = Instant::now();
        let preq = tr_serve::parse_optimize(&d.body).expect("reference requests parse");
        lap(1, t);
        let t = Instant::now();
        std::hint::black_box(preq.cache_key("pipebench"));
        lap(2, t);
        let slot = &plan.slots[d.slot];
        match p.class {
            Class::Warm => {
                let t = Instant::now();
                let stage = request_flow(&preq).rehydrate(env, &slot.circuit, &slot.snapshot);
                lap(3, t);
                std::hint::black_box(stage.map(|s| s.net_stats().len()).ok());
            }
            Class::Miss => {
                let t = Instant::now();
                let c = parse_netlist(
                    &preq.name,
                    &preq.netlist,
                    preq.format,
                    &env.library,
                    &Default::default(),
                );
                lap(4, t);
                std::hint::black_box(c.map(|c| c.gates().len()).ok());
            }
            Class::Memo => {}
        }
    }
    ms
}

pub fn run(tr_opt: &Path, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let env = FlowEnv::new();
    let plan = plan(&env)?;
    let per_round = plan.len();
    let min_rounds = MIN_REQUESTS.div_ceil(per_round).max(2);
    out.exact = vec![format!(
        "per round: requests={per_round} misses={} warm_hits={} memo_hits={} distinct={}",
        plan.count(Class::Miss),
        plan.count(Class::Warm),
        plan.count(Class::Memo),
        plan.distinct.len()
    )];

    let trace_dir = PathBuf::from(TMP_DIR);
    if trace {
        std::fs::create_dir_all(&trace_dir).map_err(|e| format!("create {TMP_DIR}: {e}"))?;
    }
    let mut problems = Vec::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    for r in 0.. {
        if r >= min_rounds && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let traced_round = trace && r % 2 == 1;
        let path = trace_dir.join(format!("serve-trace-{}-{r}.json", std::process::id()));
        let round = run_round(
            tr_opt,
            &plan,
            &plan.round_order(seed, r),
            traced_round.then_some(path.as_path()),
            &mut problems,
        )?;
        out.attempted += per_round as u64;
        out.failed += round.failed;
        if traced_round {
            traced.push(round);
        } else {
            plain.push(round);
        }
    }
    out.problems = problems;

    // Quality of the minimize requests, from their references.
    let min_reports: Vec<&FlowReport> = plan
        .clients
        .iter()
        .flatten()
        .map(|p| &plan.distinct[p.distinct].report)
        .filter(|r| r.objective == "min")
        .collect();

    if !trace {
        // Per round, then over rounds: the median for memory and the
        // typical latency, the faster quartile for set-up, throughput and
        // tail (other tenants of the machine only ever slow a round).
        let over_rounds = |q: f64, f: &dyn Fn(&Round) -> f64| {
            quantile(&plain.iter().map(f).collect::<Vec<_>>(), q)
        };
        out.metric("setup_s", over_rounds(0.25, &|r| r.setup_s), "s");
        out.metric(
            "ops_per_s",
            over_rounds(0.75, &|r| r.latency_ms.len() as f64 / r.wall_s),
            "ops/s",
        );
        out.metric(
            "op_mid_ms",
            over_rounds(0.5, &|r| mid_mean(&r.latency_ms)),
            "ms",
        );
        out.metric(
            "op_tail_ms",
            over_rounds(0.25, &|r| tail_mean(&r.latency_ms)),
            "ms",
        );
        out.metric("peak_rss_mb", over_rounds(0.5, &|r| r.peak_rss_mb), "MiB");
        crate::quality_metrics(&mut out, &min_reports);
        return Ok(out);
    }

    // Per-layer: milliseconds per request over the traced rounds.
    let requests: usize = traced.iter().map(|r| r.latency_ms.len()).sum();
    let per_req = |ms: f64| ms / requests.max(1) as f64;
    let mut fold = Fold::default();
    for r in &mut traced {
        if let Some(f) = r.fold.take() {
            fold.merge(f);
        }
    }
    for (name, ms) in fold.layer_totals() {
        out.metric(name, per_req(ms), "ms");
    }
    let total_latency: f64 = traced.iter().flat_map(|r| r.latency_ms.iter()).sum();
    let unattributed = total_latency - fold.layer_covered_ms();
    out.metric("flow.unattributed_ms", per_req(unattributed), "ms");
    out.metric(
        "trace.unattributed_pct",
        100.0 * unattributed / total_latency,
        "%",
    );
    let connect: f64 = traced.iter().flat_map(|r| r.connect_ms.iter()).sum();
    out.metric("serve.connect_ms", per_req(connect), "ms");
    let calls = layer_calls(&env, &plan);
    let per_plan = |ms: f64| ms / per_round as f64;
    out.metric("serve.read_ms", per_plan(calls[0]), "ms");
    out.metric("serve.parse_ms", per_plan(calls[1]), "ms");
    out.metric("serve.key_ms", per_plan(calls[2]), "ms");
    out.metric("serve.rehydrate_ms", per_plan(calls[3]), "ms");
    out.metric("netlist.load_ms", per_plan(calls[4]), "ms");
    let waits: Vec<f64> = traced.iter().map(|r| r.queue_wait_ms).collect();
    out.metric("serve.queue_wait_ms", mean(&waits), "ms");
    out.metric("serve.memo_hits", plan.count(Class::Memo) as f64, "count");
    out.metric("serve.warm_hits", plan.count(Class::Warm) as f64, "count");
    out.metric("serve.misses", plan.count(Class::Miss) as f64, "count");
    // The BDD engine's own figures, from the reference runs of the
    // first touches (the requests that build BDDs).
    let builds: Vec<&FlowReport> = plan
        .clients
        .iter()
        .flatten()
        .filter(|p| p.class == Class::Miss)
        .map(|p| &plan.distinct[p.distinct].report)
        .collect();
    let hit_rates: Vec<f64> = builds
        .iter()
        .filter_map(|r| r.perf.cache_hit_rate)
        .collect();
    out.metric("bdd.cache_hit_rate", mean(&hit_rates), "ratio");
    let peak = builds
        .iter()
        .filter_map(|r| r.perf.peak_live_nodes)
        .max()
        .unwrap_or(0);
    out.metric("bdd.peak_live_nodes", peak as f64, "count");
    let headroom: Vec<f64> = min_reports
        .iter()
        .filter_map(|r| r.power.headroom_percent)
        .collect();
    out.metric("reorder.headroom_pct", mean(&headroom), "%");
    let wall = |rs: &[Round]| mean(&rs.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    out.metric(
        "trace.overhead_pct",
        100.0 * (wall(&traced) / wall(&plain) - 1.0),
        "%",
    );
    Ok(out)
}
