//! `serve_mix`: the daemon path, closed loop.
//!
//! Each pass starts a fresh server in-process (`Server::start`, default
//! `ServerConfig`: 2 workers) on an empty result-store directory, and two
//! client connections (one per vCPU of the reference host) each submit
//! their own seeded list of suite-shaped machines (the rows with at least
//! 13 states), the next one only after the previous answer. Every machine
//! is sent twice by the same client: the first time it is computed and
//! stored, the second time it is a store read, so half the requests are
//! repeats. A quarter of the machines go as MV-PLA text (`encode_mvpla`),
//! the rest as KISS2. Constraint extraction runs on repeats too, because
//! the store key is built from the extracted constraints.

use crate::metrics::{ms_per_job, traced_job, Counts, Metrics};
use crate::report::{end_to_end, per_layer, set_layer_ms, Report, SETUP_REPS};
use crate::spans::{total_by_name, Spans};
use crate::stats::{median, passes_for, ratio, Failure, PassLog, Tally};
use picola::constraints::{extract_constraints, min_code_length, Encoding, GroupConstraint};
use picola::core::store::{key_for, ResultStore, StoredResult};
use picola::core::{Budget, EngineConfig, EngineHandle, Job, JobOutput};
use picola::fsm::suite::BENCHMARKS;
use picola::fsm::{generate_fsm, parse_kiss, symbolic_cover, write_kiss, FsmSpec, SymbolicCover};
use picola::logic::{parse_mv_pla, write_mv_pla, Cover};
use picola::server::json::Object;
use picola::server::{
    Client, ClientError, JobKind, JobRequest, JobResponse, RetryPolicy, Server, ServerConfig,
    ServerHandle, ServerStats, Status,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Default seed.
pub const DEFAULT_SEED: u64 = 0;

/// Client connections, one per vCPU of the reference host.
const CLIENTS: usize = 2;

/// Distinct machines per suite row per client. Rows are drawn evenly, so
/// the mix of machine sizes is the same for every seed. A run makes one
/// pass over distinct machines rather than two over half as many: the tail
/// is set by the heaviest row's largest draws, and more of them steady it.
const PER_ROW: u64 = 32;

/// Suite rows with fewer states are left out. Their requests take under
/// 1 ms, most of it the four thread hand-offs a request makes (client,
/// connection thread, worker, back), and on a shared 2-vCPU host that
/// hand-off time swings by up to 2× between runs minutes apart; with them
/// in, the swing set the median latency. `flow_fsm` keeps every row.
const MIN_STATES: usize = 13;

/// Seconds one pass takes on the reference host (2 vCPU).
const NOMINAL_PASS_S: f64 = 30.0;

/// Distinct jobs per run whose server answer is compared with
/// `EngineHandle::run` in-process.
const SAMPLE: usize = 12;

/// One distinct machine, ready to send.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Machine {
    n: usize,
    kind: JobKind,
    payload: String,
}

/// One request of a client's list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Request {
    machine: usize,
    repeat: bool,
}

/// The job lists of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Inputs {
    machines: Vec<Machine>,
    lists: Vec<Vec<Request>>,
}

impl Inputs {
    fn jobs(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }

    /// Every request, the clients' lists interleaved in turn.
    fn interleaved(&self) -> Vec<Request> {
        let longest = self.lists.iter().map(Vec::len).max().unwrap_or(0);
        (0..longest)
            .flat_map(|i| self.lists.iter().filter_map(move |l| l.get(i).copied()))
            .collect()
    }
}

fn inputs(seed: u64) -> Inputs {
    let rows: Vec<_> = BENCHMARKS
        .iter()
        .filter(|b| b.name != "scf" && b.states >= MIN_STATES)
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut machines = Vec::new();
    let mut lists = Vec::new();
    for c in 0..CLIENTS as u64 {
        let first = machines.len();
        let mut mine = Vec::new();
        for v in 0..PER_ROW {
            for info in &rows {
                let mut spec = FsmSpec::new(info.name, info.states, info.inputs, info.outputs);
                spec.max_rows = info.rows;
                spec.max_tested_bits = info.tested_bits;
                spec.seed ^= seed
                    .wrapping_mul(CLIENTS as u64 * PER_ROW)
                    .wrapping_add(c * PER_ROW + v);
                mine.push(generate_fsm(&spec));
            }
        }
        // Exactly a quarter of each row's draws travel as MV-PLA, so the
        // mix of sizes and formats is the same for every seed.
        let mut mv = vec![false; mine.len()];
        for r in 0..rows.len() {
            let mut draws: Vec<usize> = (0..PER_ROW as usize).map(|v| v * rows.len() + r).collect();
            draws.shuffle(&mut rng);
            for &i in &draws[..draws.len() / 4] {
                mv[i] = true;
            }
        }
        for (fsm, mv) in mine.iter().zip(mv) {
            let (kind, payload) = if mv {
                (JobKind::EncodeMvPla, write_mv_pla(&symbolic_cover(fsm).on))
            } else {
                (JobKind::EncodeKiss, write_kiss(fsm))
            };
            machines.push(Machine {
                n: fsm.num_states(),
                kind,
                payload,
            });
        }
        // Each machine twice, shuffled: the first occurrence is fresh, the
        // second a repeat of an answer the same client already has.
        let mut tokens: Vec<usize> = (first..machines.len()).flat_map(|m| [m, m]).collect();
        tokens.shuffle(&mut rng);
        let mut seen = vec![false; machines.len()];
        let list = tokens
            .into_iter()
            .map(|m| {
                let repeat = seen[m];
                seen[m] = true;
                Request { machine: m, repeat }
            })
            .collect();
        lists.push(list);
    }
    Inputs { machines, lists }
}

/// A running server with connected clients.
struct Live {
    handle: ServerHandle,
    clients: Vec<Client>,
    store_dir: PathBuf,
}

/// Starts a server on an empty store directory and connects the clients.
fn start(store_dir: &Path) -> Result<Live, String> {
    let config = ServerConfig {
        store_dir: Some(store_dir.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    };
    let handle = Server::start(config).map_err(|e| format!("server start: {e}"))?;
    let mut live = Live {
        handle,
        clients: Vec::with_capacity(CLIENTS),
        store_dir: store_dir.to_owned(),
    };
    for c in 0..CLIENTS {
        let mut client = Client::new(live.handle.addr().to_string());
        let ping = JobRequest::new(format!("ping-{c}"), JobKind::Ping, "");
        if let Err(e) = client.submit(&ping) {
            stop(live);
            return Err(format!("client connect: {e}"));
        }
        live.clients.push(client);
    }
    Ok(live)
}

/// Drains the server and removes its store.
fn stop(live: Live) -> ServerStats {
    drop(live.clients);
    let stats = live.handle.shutdown();
    let _ = std::fs::remove_dir_all(&live.store_dir);
    stats
}

/// One answered request, as the client saw it.
#[derive(Debug, Clone)]
struct Reply {
    request: Request,
    latency_ms: f64,
    retries: u64,
    response: Result<JobResponse, ClientError>,
}

/// Submits, retrying load-shed rejections and transport failures the way
/// the stock client does, and counts the retries.
fn submit(client: &mut Client, req: &JobRequest) -> (Result<JobResponse, ClientError>, u64) {
    let policy = RetryPolicy::default();
    let max_retries = u64::from(policy.max_attempts.saturating_sub(1));
    let mut retries = 0;
    loop {
        let delay = match client.submit(req) {
            Ok(out) => {
                let r = out.response;
                if r.status != Some(Status::Rejected) || !r.retryable || retries == max_retries {
                    return (Ok(r), retries);
                }
                Duration::from_millis(r.retry_after_ms.unwrap_or(10).min(500))
            }
            Err(e) if retries == max_retries => return (Err(e), retries),
            Err(_) => policy.base_backoff * (1 << retries),
        };
        std::thread::sleep(delay.min(policy.max_backoff));
        retries += 1;
    }
}

fn client_loop(
    client: &mut Client,
    machines: &[Machine],
    list: &[Request],
    tag: &str,
) -> Vec<Reply> {
    list.iter()
        .enumerate()
        .map(|(i, &request)| {
            let m = &machines[request.machine];
            let req = JobRequest::new(format!("{tag}-{i}"), m.kind, m.payload.as_str());
            let t = Instant::now();
            let (response, retries) = submit(client, &req);
            Reply {
                request,
                latency_ms: t.elapsed().as_secs_f64() * 1e3,
                retries,
                response,
            }
        })
        .collect()
}

/// One pass: every client runs its list against a live server.
struct Pass {
    wall_s: f64,
    replies: Vec<Reply>,
    stats: ServerStats,
    cache_hits: u64,
    cache_misses: u64,
}

fn pass(inputs: &Inputs, mut live: Live, tag: usize) -> Pass {
    let start = Instant::now();
    let replies: Vec<Vec<Reply>> = std::thread::scope(|s| {
        let handles: Vec<_> = live
            .clients
            .iter_mut()
            .zip(&inputs.lists)
            .enumerate()
            .map(|(c, (client, list))| {
                let machines = &inputs.machines;
                s.spawn(move || client_loop(client, machines, list, &format!("p{tag}c{c}")))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let cache = live.handle.cache_stats();
    let stats = stop(live);
    Pass {
        wall_s,
        replies: replies.into_iter().flatten().collect(),
        stats,
        cache_hits: cache.hits,
        cache_misses: cache.misses,
    }
}

/// The fields of an encode answer the checks compare.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Answer {
    n: u64,
    nv: u64,
    codes: String,
    cubes: u64,
    satisfied: u64,
    evaluated: u64,
}

impl Answer {
    fn from_record(n: usize, r: &StoredResult) -> Answer {
        let codes: Vec<String> = r.codes.iter().map(u32::to_string).collect();
        Answer {
            n: n as u64,
            nv: r.nv as u64,
            codes: codes.join(","),
            cubes: r.total_cubes as u64,
            satisfied: r.satisfied as u64,
            evaluated: r.evaluated as u64,
        }
    }

    fn from_body(body: &Object) -> Option<Answer> {
        Some(Answer {
            n: body.get_u64("n")?,
            nv: body.get_u64("nv")?,
            codes: body.get_str("codes")?.to_owned(),
            cubes: body.get_u64("cubes")?,
            satisfied: body.get_u64("satisfied")?,
            evaluated: body.get_u64("evaluated")?,
        })
    }

    /// A valid encoding of `n` symbols at minimum code length.
    fn is_valid_for(&self, n: usize) -> bool {
        let codes: Option<Vec<u32>> = self.codes.split(',').map(|c| c.parse().ok()).collect();
        let (Some(codes), Ok(nv)) = (codes, usize::try_from(self.nv)) else {
            return false;
        };
        self.n == n as u64 && nv == min_code_length(n) && Encoding::new(nv, codes).is_ok()
    }
}

/// The constraints the server derives from a payload, through the same
/// calls its `execute` makes.
fn constraints_of(m: &Machine, spans: &mut Spans) -> Result<(usize, Vec<GroupConstraint>), String> {
    match m.kind {
        JobKind::EncodeMvPla => {
            let (dom, cover) = spans
                .time("logic.mv_pla.parse", || parse_mv_pla(&m.payload))
                .map_err(|e| e.to_string())?;
            spans.time("constraints.extract", || {
                // The first multi-valued input variable is the symbol set,
                // and every variable before it a binary input.
                let sv = (0..dom.num_vars())
                    .find(|&v| dom.var(v).parts() > 2 && Some(v) != dom.output_var())
                    .ok_or("payload has no symbol variable")?;
                let n = dom.var(sv).parts();
                let sc = SymbolicCover {
                    domain: dom.clone(),
                    on: cover.clone(),
                    dc: Cover::empty(&dom),
                    num_states: n,
                    num_inputs: sv,
                    num_outputs: dom
                        .output_var()
                        .map_or(0, |ov| dom.var(ov).parts().saturating_sub(n)),
                };
                Ok((n, extract_constraints(&sc)))
            })
        }
        _ => {
            let fsm = spans
                .time("fsm.parse", || parse_kiss("job", &m.payload))
                .map_err(|e| e.to_string())?;
            let sc = spans.time("fsm.symbolic", || symbolic_cover(&fsm));
            let constraints = spans.time("constraints.extract", || extract_constraints(&sc));
            Ok((fsm.num_states(), constraints))
        }
    }
}

/// Runs one machine in-process the way a server worker does: extraction,
/// store lookup, engine, store insert.
fn execute(
    m: &Machine,
    engine: &EngineHandle,
    store: Option<&ResultStore>,
    spans: &mut Spans,
) -> Result<(Answer, bool), String> {
    let budget = Budget::unlimited().deadline_in(Duration::from_millis(
        ServerConfig::default().default_budget_ms,
    ));
    let (n, constraints) = constraints_of(m, spans)?;
    let job = Job::Encode { n, constraints };
    let key = store.and_then(|_| key_for(&job, None));
    if let (Some(store), Some(key)) = (store, key) {
        if let Some(hit) = spans.time("core.store.lookup", || store.lookup(key)) {
            return Ok((Answer::from_record(n, &hit), true));
        }
    }
    let out = spans
        .time("core.engine", || engine.run(&job, &budget))
        .map_err(|e| e.to_string())?;
    let JobOutput::Encoded {
        encoding,
        evaluation,
        completion,
    } = out
    else {
        return Err("encode job returned an evaluate output".to_owned());
    };
    let record = StoredResult {
        nv: encoding.nv(),
        codes: encoding.into_codes(),
        total_cubes: evaluation.total_cubes,
        satisfied: evaluation.satisfied,
        evaluated: evaluation.evaluated,
    };
    if let (Some(store), Some(key), true) = (store, key, completion.is_complete()) {
        spans.time("core.store.insert", || store.insert(key, &record));
    }
    Ok((Answer::from_record(n, &record), completion.is_complete()))
}

/// Per-machine reference bodies, filled by the first pass.
type Bodies = Vec<Option<String>>;

/// The answer the server gave for machine `m` on the first pass.
fn served(bodies: &Bodies, m: usize) -> Option<Answer> {
    let body = bodies.get(m)?.as_deref()?;
    Answer::from_body(&picola::server::json::parse_object(body).ok()?)
}

/// Classifies one reply. A fresh answer must be a valid encoding and,
/// after the first pass, repeat the first pass's body; a repeat must
/// return the byte-identical body of its first answer.
fn outcome(
    reply: &Reply,
    machines: &[Machine],
    first_pass: &Bodies,
    this_pass: &mut Bodies,
) -> Option<Failure> {
    let r = match &reply.response {
        Err(_) => return Some(Failure::Error),
        Ok(r) => r,
    };
    match r.status {
        Some(Status::Ok) => {}
        Some(Status::Degraded) => return Some(Failure::Degraded),
        Some(Status::Rejected) => return Some(Failure::Rejected),
        _ => return Some(Failure::Error),
    }
    let m = reply.request.machine;
    let body = r.body.to_json();
    let good = if reply.request.repeat {
        this_pass[m].as_deref() == Some(body.as_str())
    } else {
        let valid = Answer::from_body(&r.body).is_some_and(|a| a.is_valid_for(machines[m].n));
        let same = first_pass
            .get(m)
            .and_then(Option::as_ref)
            .is_none_or(|b| *b == body);
        this_pass[m] = Some(body);
        valid && same
    };
    (!good).then_some(Failure::CheckFailed)
}

/// Checks a pass outside its timed section; returns this pass's bodies.
fn account(inputs: &Inputs, p: &Pass, first_pass: &Bodies, tally: &mut Tally) -> Bodies {
    let mut bodies = vec![None; inputs.machines.len()];
    // Within a client, a repeat always follows its first answer.
    for reply in &p.replies {
        tally.record(outcome(reply, &inputs.machines, first_pass, &mut bodies));
    }
    bodies
}

/// Compares a seeded sample of distinct jobs' server answers with
/// `EngineHandle::run` in-process, counting each sampled job.
fn sample_check(inputs: &Inputs, bodies: &Bodies, seed: u64, tally: &mut Tally) {
    let mut distinct: Vec<usize> = (0..inputs.machines.len()).collect();
    distinct.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x5a3c_11e5));
    let engine = EngineHandle::new(EngineConfig::default());
    for &m in distinct.iter().take(SAMPLE) {
        let local = execute(&inputs.machines[m], &engine, None, &mut Spans::disabled());
        let agree = matches!((served(bodies, m), local), (Some(s), Ok((l, true))) if s == l);
        tally.record((!agree).then_some(Failure::CheckFailed));
    }
}

fn cubes_total(bodies: &Bodies) -> u64 {
    (0..bodies.len())
        .filter_map(|m| served(bodies, m))
        .map(|a| a.cubes)
        .sum()
}

/// Runs the workload. `run_dir` holds the per-pass store directories.
pub fn run(
    seed: u64,
    seconds: u64,
    traced: bool,
    run_dir: &Path,
) -> Result<(Report, Option<Spans>), String> {
    let passes = if traced {
        1
    } else {
        passes_for(seconds, NOMINAL_PASS_S)
    };
    let mut setups = Vec::new();
    let mut setup_no = 0usize;
    let mut setup = |setups: &mut Vec<f64>| -> Result<(Inputs, Live), String> {
        let dir = run_dir.join(format!("store-{setup_no}"));
        setup_no += 1;
        let t = Instant::now();
        let inputs = inputs(seed);
        let live = start(&dir)?;
        setups.push(t.elapsed().as_secs_f64());
        Ok((inputs, live))
    };
    // Set-ups no pass uses are started and drained at once, so every run
    // times the same number of them.
    for _ in passes..SETUP_REPS {
        stop(setup(&mut setups)?.1);
    }
    let mut tally = Tally::default();
    let mut log = PassLog::new(0);
    let mut first_bodies: Bodies = Vec::new();
    let mut jobs_inputs = None;
    for k in 0..passes {
        let (inputs, live) = setup(&mut setups)?;
        if k == 0 {
            log = PassLog::new(inputs.jobs());
        }
        let p = pass(&inputs, live, k);
        let lat: Vec<f64> = p.replies.iter().map(|r| r.latency_ms).collect();
        log.record_pass(p.wall_s, &lat)?;
        let bodies = account(&inputs, &p, &first_bodies, &mut tally);
        if k == 0 {
            first_bodies = bodies;
            sample_check(&inputs, &first_bodies, seed, &mut tally);
        }
        jobs_inputs = Some(inputs);
    }
    let Some(inputs) = jobs_inputs else {
        return Err("no pass ran".to_owned());
    };
    let report = end_to_end(&log, tally, &setups, cubes_total(&first_bodies));
    if !traced {
        return Ok((report, None));
    }
    let mut tally = report.tally;
    let mut notes = report.notes;

    // Traced pass: the same list again on a fresh server, timed per request
    // on the client side and split into first-time and repeat requests.
    let (_, live) = setup(&mut Vec::new())?;
    let p = pass(&inputs, live, passes);
    let lat: Vec<f64> = p.replies.iter().map(|r| r.latency_ms).collect();
    let mut traced_log = PassLog::new(inputs.jobs());
    traced_log.record_pass(p.wall_s, &lat)?;
    account(&inputs, &p, &first_bodies, &mut tally);
    let split = |repeat: bool| -> Vec<f64> {
        p.replies
            .iter()
            .filter(|r| r.request.repeat == repeat)
            .map(|r| r.latency_ms)
            .collect()
    };
    let client_mean_ms = ratio(lat.iter().sum(), lat.len() as f64);

    // Replay: the same requests in-process on one thread, a fresh engine
    // and an empty store, through the calls a server worker makes.
    let replay_dir = run_dir.join("replay-store");
    let store = ResultStore::open(&replay_dir).map_err(|e| format!("replay store: {e}"))?;
    let engine = EngineHandle::new(EngineConfig::default());
    let mut spans = Spans::enabled();
    let mut counts = Counts::default();
    let order = inputs.interleaved();
    for (i, req) in order.iter().enumerate() {
        let result = traced_job(&mut spans, Some(&mut counts), i, |s| {
            execute(&inputs.machines[req.machine], &engine, Some(&store), s)
        });
        tally.record(match result {
            Err(_) => Some(Failure::Error),
            Ok((_, false)) => Some(Failure::Degraded),
            Ok((a, true)) if served(&first_bodies, req.machine).as_ref() != Some(&a) => {
                Some(Failure::CheckFailed)
            }
            Ok(_) => None,
        });
    }
    let store_stats = store.stats();
    drop(store);
    let _ = std::fs::remove_dir_all(&replay_dir);

    let n = order.len();
    let all = spans.spans();
    let mut m: Metrics = per_layer(log.jobs_per_s(), traced_log.jobs_per_s(), all);
    set_layer_ms(
        &mut m,
        all,
        n,
        &[
            ("fsm.parse", "fsm.parse_ms"),
            ("fsm.symbolic", "fsm.symbolic_ms"),
            ("logic.mv_pla.parse", "logic.mv_pla.parse_ms"),
            ("constraints.extract", "constraints.extract_ms"),
            ("core.store.lookup", "core.store.lookup_ms"),
            ("core.store.insert", "core.store.insert_ms"),
        ],
    );
    counts.fill(&mut m, n, 0);
    let totals = total_by_name(all);
    let engine_ns = totals.get("core.engine").copied().unwrap_or(0);
    m.set("core.engine_ms", ms_per_job(engine_ns, n));
    m.set(
        "core.picola_ms",
        ms_per_job(counts.picola_ns.saturating_sub(counts.refine_ns), n),
    );
    m.set(
        "core.eval_ms",
        ms_per_job(engine_ns.saturating_sub(counts.picola_ns), n),
    );
    m.set("logic.cache.hits", p.cache_hits as f64);
    m.set("logic.cache.misses", p.cache_misses as f64);
    m.set(
        "logic.cache.hit_ratio",
        ratio(p.cache_hits as f64, (p.cache_hits + p.cache_misses) as f64),
    );
    let s = p.stats;
    m.set(
        "core.store.hit_ratio",
        ratio(s.store_hits as f64, (s.store_hits + s.store_misses) as f64),
    );
    m.set("core.store.corrupt", store_stats.corrupt as f64);
    let job_ns = totals.get("job").copied().unwrap_or(0);
    m.set("server.overhead_ms", client_mean_ms - ms_per_job(job_ns, n));
    m.set("server.fresh_job_ms_p50", median(&split(false)));
    m.set("server.repeat_job_ms_p50", median(&split(true)));
    m.set("server.rejected", s.rejected as f64);
    m.set("server.degraded", s.degraded as f64);
    m.set("server.failed", s.failed as f64);
    m.set(
        "server.retries",
        p.replies.iter().map(|r| r.retries).sum::<u64>() as f64,
    );
    notes.push(format!(
        "traced pass: {} requests at {:.3} jobs/s ({} store hits); untraced pass {:.3} jobs/s; replay {} jobs",
        lat.len(),
        traced_log.jobs_per_s(),
        s.store_hits,
        log.jobs_per_s(),
        n
    ));
    Ok((
        Report {
            tally,
            metrics: m,
            notes,
        },
        Some(spans),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_the_requests_repeat_an_earlier_one_of_the_same_client() {
        let inputs = inputs(9);
        assert_eq!(inputs, super::inputs(9));
        for list in &inputs.lists {
            let mut seen = std::collections::BTreeSet::new();
            for r in list {
                assert_eq!(r.repeat, !seen.insert(r.machine));
            }
            assert_eq!(list.iter().filter(|r| r.repeat).count() * 2, list.len());
        }
        let mv = inputs
            .machines
            .iter()
            .filter(|m| m.kind == JobKind::EncodeMvPla)
            .count();
        assert_eq!(mv * 4, inputs.machines.len());
        assert_eq!(inputs.interleaved().len(), inputs.jobs());
    }

    #[test]
    fn server_answers_match_in_process_runs_and_failures_are_classified() {
        let dir = std::env::temp_dir().join(format!("perfbench-serve-test-{}", std::process::id()));
        let mut small = inputs(1);
        // A short list: the four smallest machines, each twice.
        let mut by_size: Vec<usize> = (0..small.machines.len()).collect();
        by_size.sort_by_key(|&m| small.machines[m].payload.len());
        let keep: Vec<usize> = by_size[..4].to_vec();
        small.lists = vec![
            keep.iter()
                .flat_map(|&m| {
                    [
                        Request {
                            machine: m,
                            repeat: false,
                        },
                        Request {
                            machine: m,
                            repeat: true,
                        },
                    ]
                })
                .collect(),
            Vec::new(),
        ];
        let live = start(&dir).expect("server starts");
        let p = pass(&small, live, 0);
        assert_eq!(p.replies.len(), 8);
        let mut tally = Tally::default();
        let bodies = account(&small, &p, &Vec::new(), &mut tally);
        assert_eq!((tally.attempted, tally.failed()), (8, 0));
        let engine = EngineHandle::default();
        for &m in &keep {
            let local =
                execute(&small.machines[m], &engine, None, &mut Spans::disabled()).expect("runs");
            assert_eq!(served(&bodies, m), Some(local.0));
        }
        // A repeat whose body differs, and a degraded answer, both fail.
        let mut changed = p.replies[1].clone();
        if let Ok(r) = &mut changed.response {
            r.body = r.body.clone().uint("cubes", 9999);
        }
        let mut this = bodies.clone();
        assert_eq!(
            outcome(&changed, &small.machines, &Vec::new(), &mut this),
            Some(Failure::CheckFailed)
        );
        let mut degraded = p.replies[0].clone();
        if let Ok(r) = &mut degraded.response {
            r.status = Some(Status::Degraded);
        }
        assert_eq!(
            outcome(&degraded, &small.machines, &bodies, &mut this),
            Some(Failure::Degraded)
        );
        let lost = Reply {
            response: Err(ClientError::RetriesExhausted("queue full".to_owned())),
            ..p.replies[0].clone()
        };
        assert_eq!(
            outcome(&lost, &small.machines, &bodies, &mut this),
            Some(Failure::Error)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
