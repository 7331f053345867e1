//! # picola-server — the fault-tolerant encoding daemon
//!
//! Promotes the budget-bounded, panic-free PICOLA core into a long-running
//! service: KISS2 / MV-PLA encoding jobs arrive as newline-framed JSON over
//! TCP ([`protocol`]), pass admission control (bounded queue with
//! load-shedding — a full queue answers `rejected` + `retry_after_ms`
//! instead of queueing unboundedly), and run on a supervised worker pool
//! where every job executes under `catch_unwind` with a per-job
//! [`Budget`] deadline. The robustness contract, enforced by the chaos
//! sweep in `tests/server_lifecycle.rs`:
//!
//! * every accepted frame gets exactly one terminal response — `ok`,
//!   `degraded` (best-so-far result, never a dropped connection on
//!   timeout), `error` (permanent, with the CLI exit-code contract), or
//!   `rejected` (transient, retry after the hinted delay);
//! * a worker panic mid-job is contained by `catch_unwind`: the job
//!   answers `error`/70 and the worker thread lives on;
//! * minimization warmth is shared across requests through the engine's
//!   [`GlobalMinimizeCache`] without ever changing results (exact
//!   order-sensitive keying; poisoned shards degrade to honest misses);
//! * with a result store ([`ServerConfig::store_dir`]) a job runs parse →
//!   cover key → lookup, and only a miss goes on to extraction → engine →
//!   insert: the key is the parsed symbolic cover, so a repeat costs a
//!   parse, a digest and one store read, and a result whose extraction or
//!   engine run degraded answers `degraded` and is never stored;
//! * shutdown drains: in-flight jobs finish or degrade, queued jobs run,
//!   new jobs are refused, and every thread is joined — no leaks.
//!
//! Fault injection rides the workspace-wide [`chaos`] harness: trigger
//! points `server.queue` (admission reports a full queue), `server.worker`
//! (worker panics mid-job), `server.socket` (connection drops
//! mid-response), `cache.shard` (shared-cache shard poisoned), and
//! `store.io` (the content-addressed result store's disk fails — lookups
//! degrade to recomputation, inserts are skipped) are all deterministic
//! and sweepable.

#![warn(missing_docs)]

pub mod client;
pub mod json;
pub mod protocol;

pub use client::{Client, ClientError, RetryPolicy, SubmitOutcome};
pub use protocol::{JobKind, JobRequest, JobResponse, Status};

use crate::json::Object;
use crate::protocol::{CODE_INTERNAL, CODE_INVALID, CODE_OK, CODE_PARSE, CODE_TRANSIENT};
use picola_constraints::extract_constraints_bounded;
use picola_core::engine::{EngineConfig, EngineHandle, Job, JobOutput};
use picola_core::store::{cover_key, ResultStore, StoredResult};
use picola_core::PicolaError;
use picola_fsm::{parse_kiss, symbolic_cover, SymbolicCover};
use picola_logic::{chaos, parse_mv_pla, Budget, CacheStats, Completion, Cover, Domain};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (reported by
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Admission-control bound: jobs queued beyond the workers. A full
    /// queue load-sheds with `rejected` + `retry_after_ms`.
    pub queue_depth: usize,
    /// Default per-job wall-clock budget when the request names none.
    pub default_budget_ms: u64,
    /// Hard ceiling on per-job wall-clock budgets (requests asking for
    /// more are clamped, so one client cannot pin a worker forever).
    pub max_budget_ms: u64,
    /// Back-off hint attached to load-shed rejections.
    pub retry_after_ms: u64,
    /// Compute engine configuration (cache capacity/shards, encoder
    /// options).
    pub engine: EngineConfig,
    /// Content-addressed result store directory (`None` = no persistent
    /// store). Entries are keyed on the job's parsed symbolic cover, so a
    /// warm entry answers an encode job before constraint extraction and
    /// without touching the engine, in either submission format; only
    /// complete results are stored. Store faults (including the
    /// `store.io` chaos point) degrade to recomputation, never to a wrong
    /// or dropped answer.
    pub store_dir: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_depth: 16,
            default_budget_ms: 2_000,
            max_budget_ms: 30_000,
            retry_after_ms: 25,
            engine: EngineConfig::default(),
            store_dir: None,
        }
    }
}

/// Point-in-time counters of a running (or drained) server.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Jobs answered `ok`.
    pub completed: u64,
    /// Jobs answered `degraded` (budget ran out, best-so-far returned).
    pub degraded: u64,
    /// Jobs answered `rejected` (admission control or drain).
    pub rejected: u64,
    /// Jobs answered `error` (parse/validity/internal).
    pub failed: u64,
    /// Worker panics contained by `catch_unwind`.
    pub worker_panics: u64,
    /// Responses dropped by the `server.socket` chaos point.
    pub socket_drops: u64,
    /// Encode jobs answered from the content-addressed store.
    pub store_hits: u64,
    /// Encode jobs the store could not answer (no entry, corrupt entry,
    /// injected fault) — always recomputed.
    pub store_misses: u64,
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    completed: AtomicU64,
    degraded: AtomicU64,
    rejected: AtomicU64,
    failed: AtomicU64,
    worker_panics: AtomicU64,
    socket_drops: AtomicU64,
}

const STATE_RUNNING: u8 = 0;
const STATE_DRAINING: u8 = 1;

struct QueuedJob {
    request: JobRequest,
    reply: mpsc::Sender<JobResponse>,
}

struct Shared {
    config: ServerConfig,
    engine: EngineHandle,
    /// Content-addressed result store (`None` when not configured).
    store: Option<ResultStore>,
    queue: Mutex<VecDeque<QueuedJob>>,
    queue_cond: Condvar,
    state: AtomicU8,
    counters: Counters,
    /// Connection threads currently alive — drained to zero on shutdown.
    live_connections: AtomicUsize,
}

impl Shared {
    fn draining(&self) -> bool {
        self.state.load(Ordering::Relaxed) != STATE_RUNNING
    }

    fn stats(&self) -> ServerStats {
        ServerStats {
            connections: self.counters.connections.load(Ordering::Relaxed),
            completed: self.counters.completed.load(Ordering::Relaxed),
            degraded: self.counters.degraded.load(Ordering::Relaxed),
            rejected: self.counters.rejected.load(Ordering::Relaxed),
            failed: self.counters.failed.load(Ordering::Relaxed),
            worker_panics: self.counters.worker_panics.load(Ordering::Relaxed),
            socket_drops: self.counters.socket_drops.load(Ordering::Relaxed),
            store_hits: self.store.as_ref().map_or(0, |s| s.stats().hits),
            store_misses: self.store.as_ref().map_or(0, |s| s.stats().misses),
        }
    }
}

/// The daemon. Construct with [`Server::start`]; the returned
/// [`ServerHandle`] owns the lifecycle.
pub struct Server;

impl Server {
    /// Binds and starts the daemon: one accept thread plus
    /// `config.workers` worker threads.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let store = match &config.store_dir {
            Some(dir) => Some(ResultStore::open(dir)?),
            None => None,
        };
        let shared = Arc::new(Shared {
            engine: EngineHandle::new(config.engine.clone()),
            store,
            config,
            queue: Mutex::new(VecDeque::new()),
            queue_cond: Condvar::new(),
            state: AtomicU8::new(STATE_RUNNING),
            counters: Counters::default(),
            live_connections: AtomicUsize::new(0),
        });
        let conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let conn_handles = Arc::clone(&conn_handles);
            std::thread::Builder::new()
                .name("picola-accept".to_owned())
                .spawn(move || accept_loop(&listener, &shared, &conn_handles))?
        };
        let worker_handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("picola-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(ServerHandle {
            addr,
            shared,
            accept: Some(accept),
            workers: worker_handles,
            conn_handles,
        })
    }
}

/// Handle on a running server: address, statistics, and the graceful
/// drain.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The bound address (with the actual port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current server counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Current shared-cache statistics
    /// (`hits + misses == minimize calls`, over all shards).
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.engine.cache_stats()
    }

    /// Whether a drain has begun (via [`ServerHandle::shutdown`] or a wire
    /// `shutdown` request).
    pub fn is_draining(&self) -> bool {
        self.shared.draining()
    }

    /// Begins the drain without blocking: new connections and jobs are
    /// refused, queued and in-flight jobs keep running.
    pub fn start_drain(&self) {
        self.shared.state.store(STATE_DRAINING, Ordering::Relaxed);
        self.shared.queue_cond.notify_all();
    }

    /// Graceful drain: refuse new work, let queued and in-flight jobs
    /// finish (or degrade under their budgets), join every thread.
    /// Consumes the handle; returns the final counters.
    pub fn shutdown(mut self) -> ServerStats {
        self.start_drain();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Accept loop is gone: no new connection threads can spawn. Join
        // the existing ones (each exits after its client disconnects or
        // its pending jobs get terminal answers), then the workers.
        loop {
            let handles = {
                let Ok(mut guard) = self.conn_handles.lock() else {
                    break;
                };
                std::mem::take(&mut *guard)
            };
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
        self.shared.queue_cond.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        debug_assert_eq!(
            self.shared.live_connections.load(Ordering::Relaxed),
            0,
            "drain must not leak connection threads"
        );
        self.shared.stats()
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    conn_handles: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !shared.draining() {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.counters.connections.fetch_add(1, Ordering::Relaxed);
                shared.live_connections.fetch_add(1, Ordering::Relaxed);
                let conn_shared = Arc::clone(shared);
                let spawned = std::thread::Builder::new()
                    .name("picola-conn".to_owned())
                    .spawn(move || {
                        connection_loop(stream, &conn_shared);
                        conn_shared.live_connections.fetch_sub(1, Ordering::Relaxed);
                    });
                match spawned {
                    Ok(handle) => {
                        if let Ok(mut guard) = conn_handles.lock() {
                            guard.push(handle);
                        }
                    }
                    Err(_) => {
                        // Spawn failed (resource exhaustion): the stream
                        // drops, the client sees a transient I/O error and
                        // retries. Undo the live count.
                        shared.live_connections.fetch_sub(1, Ordering::Relaxed);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Serves one client connection: parse frames, answer inline kinds, queue
/// compute kinds, stream responses back. Returns (closing the socket) on
/// client EOF, fatal I/O errors, or an injected `server.socket` drop.
fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    // Short read timeouts keep the thread responsive to drain even when
    // the client holds the connection open silently.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return, // client closed
            Ok(_) => {
                let frame = line.trim_end_matches(['\r', '\n']);
                if frame.is_empty() {
                    continue;
                }
                if !handle_frame(frame, &mut writer, shared) {
                    return;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Idle: when a drain begins, close idle connections —
                // clients with no frame in flight reconnect elsewhere.
                if shared.draining() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Handles one frame; returns `false` when the connection must close.
fn handle_frame(frame: &str, writer: &mut TcpStream, shared: &Arc<Shared>) -> bool {
    let request = match JobRequest::from_frame(frame) {
        Ok(r) => r,
        Err(e) => {
            // Without a parseable id, echo a fixed one; the error is
            // permanent either way.
            let resp = JobResponse::terminal("?", Status::Error, CODE_PARSE)
                .with_body(Object::new().str("error", format!("bad request frame: {e}")));
            shared.counters.failed.fetch_add(1, Ordering::Relaxed);
            return send_response(writer, &resp, shared);
        }
    };
    match request.kind {
        JobKind::Ping => {
            let resp = JobResponse::terminal(request.id, Status::Ok, CODE_OK)
                .with_body(Object::new().str("pong", "picola"));
            send_response(writer, &resp, shared)
        }
        JobKind::Stats => {
            let s = shared.stats();
            let c = shared.engine.cache_stats();
            let resp = JobResponse::terminal(request.id, Status::Ok, CODE_OK).with_body(
                Object::new()
                    .uint("connections", s.connections)
                    .uint("completed", s.completed)
                    .uint("degraded", s.degraded)
                    .uint("rejected", s.rejected)
                    .uint("failed", s.failed)
                    .uint("worker_panics", s.worker_panics)
                    .uint("cache_hits", c.hits)
                    .uint("cache_misses", c.misses)
                    .uint("cache_entries", c.entries as u64)
                    .uint("cache_shards", c.shards as u64)
                    .uint("store_hits", s.store_hits)
                    .uint("store_misses", s.store_misses)
                    .bool("draining", shared.draining()),
            );
            send_response(writer, &resp, shared)
        }
        JobKind::Shutdown => {
            shared.state.store(STATE_DRAINING, Ordering::Relaxed);
            shared.queue_cond.notify_all();
            let resp = JobResponse::terminal(request.id, Status::Ok, CODE_OK)
                .with_body(Object::new().bool("draining", true));
            send_response(writer, &resp, shared)
        }
        JobKind::EncodeKiss | JobKind::EncodeMvPla => {
            let (reply_tx, reply_rx) = mpsc::channel();
            match admit(shared, QueuedJob { request, reply: reply_tx }) {
                Ok(()) => {}
                Err(resp) => {
                    shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
                    return send_response(writer, &resp, shared);
                }
            }
            // Stream worker responses until the terminal line. The worker
            // always sends one (panics are caught), so the only way out of
            // this loop is a terminal line or a dead worker channel.
            loop {
                match reply_rx.recv() {
                    Ok(resp) => {
                        let terminal = resp.is_terminal();
                        if !send_response(writer, &resp, shared) {
                            return false;
                        }
                        if terminal {
                            return true;
                        }
                    }
                    Err(_) => {
                        // Channel died without a terminal line — a worker
                        // invariant broke. Answer structurally anyway.
                        let resp = JobResponse::terminal("?", Status::Error, CODE_INTERNAL)
                            .with_body(Object::new().str("error", "worker channel closed"));
                        shared.counters.failed.fetch_add(1, Ordering::Relaxed);
                        return send_response(writer, &resp, shared);
                    }
                }
            }
        }
    }
}

/// Admission control: queue the job or explain the rejection.
fn admit(shared: &Arc<Shared>, job: QueuedJob) -> Result<(), JobResponse> {
    let retry_ms = shared.config.retry_after_ms;
    if shared.draining() {
        return Err(
            JobResponse::terminal(job.request.id, Status::Rejected, CODE_TRANSIENT)
                .retry_after(retry_ms)
                .with_body(Object::new().str("error", "server is draining")),
        );
    }
    let Ok(mut queue) = shared.queue.lock() else {
        return Err(
            JobResponse::terminal(job.request.id, Status::Error, CODE_INTERNAL)
                .with_body(Object::new().str("error", "queue lock poisoned")),
        );
    };
    // The chaos point simulates losing the queue-full race: admission
    // observed capacity, but it vanished before the push.
    if queue.len() >= shared.config.queue_depth || chaos::should_fire("server.queue") {
        return Err(
            JobResponse::terminal(job.request.id, Status::Rejected, CODE_TRANSIENT)
                .retry_after(retry_ms)
                .with_body(
                    Object::new()
                        .str("error", "queue full")
                        .uint("queue_depth", shared.config.queue_depth as u64),
                ),
        );
    }
    queue.push_back(job);
    drop(queue);
    shared.queue_cond.notify_one();
    Ok(())
}

/// Writes one response line; returns `false` when the connection is gone
/// (real I/O failure or the `server.socket` chaos point dropping the
/// stream mid-response).
fn send_response(writer: &mut TcpStream, resp: &JobResponse, shared: &Arc<Shared>) -> bool {
    if chaos::should_fire("server.socket") {
        shared.counters.socket_drops.fetch_add(1, Ordering::Relaxed);
        let _ = writer.shutdown(std::net::Shutdown::Both);
        return false;
    }
    let mut frame = resp.to_frame();
    frame.push('\n');
    writer.write_all(frame.as_bytes()).is_ok()
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let Ok(mut queue) = shared.queue.lock() else {
                return;
            };
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.draining() {
                    return; // drained: queue empty and no new admissions
                }
                let Ok((guard, _)) = shared
                    .queue_cond
                    .wait_timeout(queue, Duration::from_millis(50))
                else {
                    return;
                };
                queue = guard;
            }
        };
        run_one(shared, &job);
    }
}

/// Executes one job start-to-terminal-response. Never lets a panic escape:
/// the catch_unwind boundary is what keeps worker threads alive across
/// faulty jobs.
fn run_one(shared: &Arc<Shared>, job: &QueuedJob) {
    let req = &job.request;
    let budget = job_budget(&shared.config, req);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        // The chaos point stands in for any bug that slips past the
        // panic-free discipline of the compute layer.
        #[allow(clippy::panic)] // documented contract: chaos test hook, contained by catch_unwind
        if chaos::should_fire("server.worker") {
            panic!("injected worker fault at server.worker");
        }
        execute(shared, req, &budget)
    }));
    let response = match outcome {
        Ok(Ok((body, completion))) => {
            if req.want_trace {
                let trace = JobResponse::trace(
                    req.id.clone(),
                    Object::new()
                        .uint("work", budget.work_done())
                        .bool("complete", completion.is_complete()),
                );
                let _ = job.reply.send(trace);
            }
            match completion {
                Completion::Complete => {
                    shared.counters.completed.fetch_add(1, Ordering::Relaxed);
                    JobResponse::terminal(req.id.clone(), Status::Ok, CODE_OK).with_body(body)
                }
                Completion::Degraded { reason, work_done } => {
                    shared.counters.degraded.fetch_add(1, Ordering::Relaxed);
                    JobResponse::terminal(req.id.clone(), Status::Degraded, CODE_OK).with_body(
                        body.str("degraded_reason", format!("{reason:?}"))
                            .uint("work_done", work_done),
                    )
                }
            }
        }
        Ok(Err(resp)) => {
            shared.counters.failed.fetch_add(1, Ordering::Relaxed);
            resp
        }
        Err(_) => {
            shared.counters.worker_panics.fetch_add(1, Ordering::Relaxed);
            shared.counters.failed.fetch_add(1, Ordering::Relaxed);
            JobResponse::terminal(req.id.clone(), Status::Error, CODE_INTERNAL)
                .with_body(Object::new().str("error", "worker panicked mid-job (contained)"))
        }
    };
    let _ = job.reply.send(response);
}

fn job_budget(config: &ServerConfig, req: &JobRequest) -> Budget {
    let ms = req
        .budget_ms
        .unwrap_or(config.default_budget_ms)
        .min(config.max_budget_ms);
    let mut budget = Budget::unlimited().deadline_in(Duration::from_millis(ms));
    if let Some(w) = req.budget_work {
        budget = budget.work_limit(w);
    }
    budget
}

/// Parses the payload into a symbolic cover, answers from the store when
/// it holds the cover's key, and otherwise extracts the constraints, runs
/// the engine and stores the result. Failures come back as complete
/// terminal responses so the caller only forwards them.
fn execute(
    shared: &Arc<Shared>,
    req: &JobRequest,
    budget: &Budget,
) -> Result<(Object, Completion), JobResponse> {
    let parse_err = |line: usize, msg: String| {
        JobResponse::terminal(req.id.clone(), Status::Error, CODE_PARSE).with_body(
            Object::new()
                .str("error", msg)
                .uint("error_line", line as u64),
        )
    };
    let sc = match req.kind {
        JobKind::EncodeKiss => {
            let fsm = parse_kiss("job", &req.payload)
                .map_err(|e| parse_err(e.line(), e.to_string()))?;
            symbolic_cover(&fsm)
        }
        JobKind::EncodeMvPla => {
            let (dom, cover) = parse_mv_pla(&req.payload)
                .map_err(|e| parse_err(e.line(), e.to_string()))?;
            mvpla_cover(dom, cover).ok_or_else(|| {
                JobResponse::terminal(req.id.clone(), Status::Error, CODE_INVALID).with_body(
                    Object::new().str(
                        "error",
                        "payload has no multi-valued symbol variable to encode",
                    ),
                )
            })?
        }
        // Inline kinds never reach the queue.
        JobKind::Ping | JobKind::Stats | JobKind::Shutdown => {
            return Err(
                JobResponse::terminal(req.id.clone(), Status::Error, CODE_INTERNAL)
                    .with_body(Object::new().str("error", "inline kind routed to a worker")),
            )
        }
    };
    let n = sc.num_states;
    if n < 2 {
        return Err(
            JobResponse::terminal(req.id.clone(), Status::Error, CODE_INVALID).with_body(
                Object::new().str("error", format!("need at least two symbols, got {n}")),
            ),
        );
    }
    // Content-addressed store, keyed on the parsed symbolic cover so a
    // repeat is answered before extraction. A warm entry is always a
    // *complete* result; a miss of any flavour — absent, corrupt, injected
    // `store.io` fault — falls through to extraction and the engine.
    let stored = shared
        .store
        .as_ref()
        .map(|store| (store, cover_key(&sc.domain, &sc.on, &sc.dc, sc.state_var())));
    if let Some((store, key)) = stored {
        if let Some(hit) = store.lookup(key) {
            return Ok((result_body(n, &hit), Completion::Complete));
        }
    }
    // Extraction runs unbounded, but a chaos fault can still cut it short:
    // the answer is then `degraded` and never stored, since the store
    // holds only what an unbounded run produces.
    let (constraints, extracted) = extract_constraints_bounded(&sc, &Budget::unlimited());
    let job = Job::Encode { n, constraints };
    match shared.engine.run(&job, budget) {
        Ok(JobOutput::Encoded {
            encoding,
            evaluation,
            completion,
        }) => {
            let completion = extracted.and(completion);
            let result = StoredResult {
                nv: encoding.nv(),
                codes: encoding.into_codes(),
                total_cubes: evaluation.total_cubes,
                satisfied: evaluation.satisfied,
                evaluated: evaluation.evaluated,
            };
            if let (Some((store, key)), true) = (stored, completion.is_complete()) {
                store.insert(key, &result);
            }
            Ok((result_body(n, &result), completion))
        }
        Ok(JobOutput::Evaluated { .. }) => Err(JobResponse::terminal(
            req.id.clone(),
            Status::Error,
            CODE_INTERNAL,
        )
        .with_body(Object::new().str("error", "encode job returned an evaluate output"))),
        Err(PicolaError::InvalidInput(m)) => Err(JobResponse::terminal(
            req.id.clone(),
            Status::Error,
            CODE_INVALID,
        )
        .with_body(Object::new().str("error", m))),
        Err(PicolaError::Internal(m)) => Err(JobResponse::terminal(
            req.id.clone(),
            Status::Error,
            CODE_INTERNAL,
        )
        .with_body(Object::new().str("error", m))),
    }
}

/// The answer body of an encode job over `n` symbols, the same whether
/// the result was computed or read from the store.
fn result_body(n: usize, result: &StoredResult) -> Object {
    let codes = result
        .codes
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",");
    Object::new()
        .uint("n", n as u64)
        .uint("nv", result.nv as u64)
        .str("codes", codes)
        .uint("cubes", result.total_cubes as u64)
        .uint("satisfied", result.satisfied as u64)
        .uint("evaluated", result.evaluated as u64)
}

/// Reads an MV PLA as the symbolic cover of an input-encoding problem: the
/// first multi-valued (non-output, non-binary) variable is the symbol set.
/// The cover then takes the path a KISS2 machine's does —
/// [`extract_constraints_bounded`] minimizes with multi-valued ESPRESSO
/// first (merging cubes is what *creates* group literals; a raw symbolic
/// cover has one symbol per cube and would yield no constraints), then
/// dedups, weights, and orders the extracted groups. The same machine
/// submitted in either format therefore poses the same encoding problem
/// and has the same store key. Returns `None` when no symbol variable
/// exists.
fn mvpla_cover(dom: Domain, on: Cover) -> Option<SymbolicCover> {
    let sv = (0..dom.num_vars())
        .find(|&v| dom.var(v).parts() > 2 && Some(v) != dom.output_var())?;
    let n = dom.var(sv).parts();
    Some(SymbolicCover {
        num_outputs: dom
            .output_var()
            .map_or(0, |ov| dom.var(ov).parts().saturating_sub(n)),
        dc: Cover::empty(&dom),
        domain: dom,
        on,
        num_states: n,
        // `SymbolicCover::state_var()` is `num_inputs`: every variable
        // before the symbol one is a binary input by construction of `sv`.
        num_inputs: sv,
    })
}
