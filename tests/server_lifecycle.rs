//! Chaos-hardened job-lifecycle tests for the encoding daemon.
//!
//! The robustness contract under test: every submitted job gets a
//! structured answer — `ok`, `degraded`, `error`, or `rejected` — no
//! matter which fault fires. The sweep arms each server-facing chaos
//! point (`server.worker` panics a worker mid-job, `server.socket` drops
//! the connection mid-response, `server.queue` makes admission report a
//! full queue, `cache.shard` poisons shared-cache shards) and proves:
//!
//! * the fault actually fires (reachability, not vacuous passing);
//! * the client observes a structured outcome or a transport error it
//!   classifies as transient — never a hang (client-side response
//!   deadlines bound every wait);
//! * after disarming, the same server answers normally (recovery);
//! * shutdown still drains cleanly — workers and connection threads all
//!   join (a leak trips the drain assertion in debug builds).
//!
//! A differential leg proves the shared global cache never changes
//! results: cache-on and cache-off servers produce bit-identical codes.

#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use picola::fsm::{benchmark_fsm, write_kiss};
use picola::logic::chaos;
use picola::server::{Client, ClientError, JobKind, JobRequest, RetryPolicy, Status};
use picola::server::{Server, ServerConfig, ServerHandle};
use std::sync::Mutex;
use std::time::Duration;

/// Global chaos plans are process-wide; tests touching them (or asserting
/// on servers that chaos could reach) serialize here.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn chaos_lock() -> std::sync::MutexGuard<'static, ()> {
    CHAOS_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn kiss_payload(name: &str) -> String {
    write_kiss(&benchmark_fsm(name).expect("known benchmark"))
}

fn start_server(config: ServerConfig) -> ServerHandle {
    Server::start(config).expect("bind 127.0.0.1:0")
}

fn client_for(handle: &ServerHandle) -> Client {
    Client::new(handle.addr().to_string()).response_timeout(Duration::from_secs(10))
}

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(5),
    }
}

#[test]
fn ping_stats_and_encode_roundtrip() {
    let _lock = chaos_lock();
    let handle = start_server(ServerConfig::default());
    let mut client = client_for(&handle);

    let ping = client
        .submit(&JobRequest::new("p1", JobKind::Ping, ""))
        .expect("ping");
    assert_eq!(ping.response.status, Some(Status::Ok));

    let mut req = JobRequest::new("e1", JobKind::EncodeKiss, kiss_payload("lion9"));
    req.want_trace = true;
    let enc = client.submit(&req).expect("encode");
    assert_eq!(enc.response.status, Some(Status::Ok), "{:?}", enc.response);
    assert!(!enc.traces.is_empty(), "want_trace must stream a trace line");
    let codes = enc.response.body.get_str("codes").expect("codes");
    assert!(!codes.is_empty());

    let stats = client
        .submit(&JobRequest::new("s1", JobKind::Stats, ""))
        .expect("stats");
    assert_eq!(stats.response.body.get_u64("completed"), Some(1));

    let final_stats = handle.shutdown();
    assert_eq!(final_stats.completed, 1);
    assert_eq!(final_stats.worker_panics, 0);
}

/// The tentpole sweep: one armed fault per iteration, every job answered
/// structurally, recovery after disarm, clean drain after every fault.
#[test]
fn chaos_sweep_every_fault_yields_structured_answer() {
    let _lock = chaos_lock();
    let payload = kiss_payload("lion9");
    for &point in &[
        "server.worker",
        "server.socket",
        "server.queue",
        "cache.shard",
        "store.io",
    ] {
        // The store fault point is only reachable with a store configured.
        let mut config = ServerConfig::default();
        let store_dir = std::env::temp_dir().join(format!(
            "picola-lifecycle-store-{}",
            std::process::id()
        ));
        if point == "store.io" {
            config.store_dir = Some(store_dir.to_string_lossy().into_owned());
        }
        let handle = start_server(config);
        let mut client = client_for(&handle);
        let (outcome, fired) = {
            let _guard = chaos::arm_global(point, 0);
            let req = JobRequest::new("c1", JobKind::EncodeKiss, payload.clone());
            let outcome = client.submit_with_retry(&req, &fast_retry());
            // Read before the guard drops: disarming clears the counter.
            (outcome, chaos::global_times_fired())
        };
        assert!(
            fired > 0,
            "{point}: the armed fault never fired — the sweep tested nothing"
        );
        match (point, outcome) {
            // A panicking worker is contained: the job answers `error`
            // (internal) and the worker thread survives.
            ("server.worker", Ok(o)) => {
                assert_eq!(o.response.status, Some(Status::Error), "{point}");
                assert_eq!(o.response.code, 70, "{point}");
            }
            // A dropped socket is a transport fault; the client retries
            // and (with the fault firing forever) exhausts its schedule.
            ("server.socket", Err(ClientError::RetriesExhausted(_))) => {}
            // Load shedding answers `rejected`+retryable; with the fault
            // pinned on, every retry is shed.
            ("server.queue", Err(ClientError::RetriesExhausted(_))) => {}
            // A poisoned cache shard degrades to honest misses — the job
            // itself still succeeds, bit-identically.
            ("cache.shard", Ok(o)) => {
                assert_eq!(o.response.status, Some(Status::Ok), "{point}");
            }
            // A failing store disk degrades to recomputation: lookups
            // miss, inserts are skipped, the job still answers `ok`.
            ("store.io", Ok(o)) => {
                assert_eq!(o.response.status, Some(Status::Ok), "{point}");
            }
            (_, other) => panic!("{point}: unexpected outcome {other:?}"),
        }
        // Recovery: with the plan disarmed the same server answers
        // normally again (a fresh client — the socket fault killed the
        // old connection).
        let mut fresh = client_for(&handle);
        let req = JobRequest::new("c2", JobKind::EncodeKiss, payload.clone());
        let recovered = fresh
            .submit_with_retry(&req, &fast_retry())
            .unwrap_or_else(|e| panic!("{point}: no recovery after disarm: {e}"));
        assert_eq!(
            recovered.response.status,
            Some(Status::Ok),
            "{point}: recovery must fully succeed"
        );
        // Clean drain even right after a fault episode. Worker panics
        // must have been contained, not thread-fatal: the recovery job
        // above already proved a worker was alive to run it.
        let stats = handle.shutdown();
        if point == "server.worker" {
            assert!(stats.worker_panics > 0, "panic containment not counted");
        }
        if point == "server.socket" {
            assert!(stats.socket_drops > 0, "socket drop not counted");
        }
        if point == "server.queue" {
            assert!(stats.rejected > 0, "load shed not counted");
        }
        if point == "store.io" {
            assert!(stats.store_misses > 0, "store fault not counted as a miss");
            let _ = std::fs::remove_dir_all(&store_dir);
        }
        assert!(stats.completed >= 1, "{point}: recovery job not counted");
    }
}

/// Cache-shard poisoning must be observable in the cache statistics and
/// must keep the conservation law intact.
#[test]
fn cache_shard_poison_counts_bypasses_and_conserves() {
    let _lock = chaos_lock();
    let handle = start_server(ServerConfig::default());
    let mut client = client_for(&handle);
    {
        let _guard = chaos::arm_global("cache.shard", 0);
        let req = JobRequest::new("p1", JobKind::EncodeKiss, kiss_payload("lion9"));
        let o = client.submit_with_retry(&req, &fast_retry()).expect("job");
        assert_eq!(o.response.status, Some(Status::Ok));
    }
    let stats = handle.cache_stats();
    assert!(stats.poison_bypasses > 0, "bypasses must be counted");
    assert_eq!(
        stats.hits + stats.misses,
        stats.calls,
        "poison bypasses must still tally exactly one outcome per lookup"
    );
    handle.shutdown();
}

/// An exhausted per-job budget yields a `degraded` answer carrying the
/// best-so-far encoding — never an error, never a dropped connection.
#[test]
fn budget_exhaustion_degrades_with_a_result() {
    let _lock = chaos_lock();
    let handle = start_server(ServerConfig::default());
    let mut client = client_for(&handle);
    let mut req = JobRequest::new("d1", JobKind::EncodeKiss, kiss_payload("cse"));
    req.budget_work = Some(1); // exhaust almost immediately, deterministically
    let o = client.submit(&req).expect("degraded jobs still answer");
    assert_eq!(o.response.status, Some(Status::Degraded), "{:?}", o.response);
    assert_eq!(o.response.code, 0, "a degraded answer is an answer");
    assert!(o.response.body.get_str("codes").is_some(), "best-so-far codes");
    assert!(o.response.body.get_str("degraded_reason").is_some());
    let stats = handle.shutdown();
    assert_eq!(stats.degraded, 1);
}

/// Parse and validity failures are permanent: `error` with the exit-code
/// contract's code, line-numbered where the parser provides one.
#[test]
fn permanent_errors_carry_codes_and_lines() {
    let _lock = chaos_lock();
    let handle = start_server(ServerConfig::default());
    let mut client = client_for(&handle);

    let truncated = ".i 2\n.o 2\n-0 st0 st0 00\n01 st0 st1 0";
    let o = client
        .submit(&JobRequest::new("t1", JobKind::EncodeKiss, truncated))
        .expect("parse errors are structured answers");
    assert_eq!(o.response.status, Some(Status::Error));
    assert_eq!(o.response.code, 4);
    assert!(!o.response.retryable, "parse errors must not be retryable");
    assert_eq!(o.response.body.get_u64("error_line"), Some(4));

    let o = client
        .submit(&JobRequest::new("t2", JobKind::EncodeKiss, ""))
        .expect("empty input is a structured answer");
    assert_eq!(o.response.status, Some(Status::Error));
    assert_eq!(o.response.code, 4);
    assert_eq!(o.response.body.get_u64("error_line"), Some(0));

    handle.shutdown();
}

/// Once a drain begins, encode jobs on an existing connection are either
/// rejected-with-retry-hint or the connection closes — never a hang.
#[test]
fn draining_servers_shed_new_jobs() {
    let _lock = chaos_lock();
    let handle = start_server(ServerConfig::default());
    let mut client = client_for(&handle).response_timeout(Duration::from_secs(5));
    // Establish the connection before the drain starts.
    client
        .submit(&JobRequest::new("p", JobKind::Ping, ""))
        .expect("ping");
    handle.start_drain();
    let req = JobRequest::new("late", JobKind::EncodeKiss, kiss_payload("lion9"));
    match client.submit(&req) {
        Ok(o) => {
            assert_eq!(o.response.status, Some(Status::Rejected), "{:?}", o.response);
            assert!(o.response.retryable);
            assert!(o.response.retry_after_ms.is_some());
        }
        // The drain may close the idle connection before the frame lands;
        // that is the other legal structured outcome at the transport
        // layer.
        Err(ClientError::Io(_)) => {}
        Err(other) => panic!("unexpected: {other:?}"),
    }
    handle.shutdown();
}

/// Format parity: a machine submitted as KISS2 and as its exported MV-PLA
/// symbolic cover poses the same encoding problem — both paths run the
/// identical minimize-then-extract pipeline. Exact parity needs a fully
/// specified machine: the single-cover MV format cannot carry a
/// don't-care set, so machines with `-` outputs or `*` next states
/// submit a slightly tighter problem in MV form (every suite benchmark
/// has don't-cares — for those we assert the MV path still extracts real
/// constraints, the regression that motivated minimizing before
/// extraction).
#[test]
fn mvpla_and_kiss_submissions_agree() {
    let _lock = chaos_lock();
    let handle = start_server(ServerConfig::default());
    let mut client = client_for(&handle);

    // Fully specified 8-state machine: no `-`/`*`, so its symbolic cover
    // has an empty dc set and both formats carry the identical problem.
    let mut kiss_text = String::from(".i 1\n.o 1\n");
    for s in 0..8u32 {
        let a = (s + 1) % 8;
        let b = (s * 3 + 2) % 8;
        kiss_text.push_str(&format!("0 st{s} st{a} {}\n", s % 2));
        kiss_text.push_str(&format!("1 st{s} st{b} {}\n", (s + 1) % 2));
    }
    let fsm = picola::fsm::parse_kiss("full", &kiss_text).expect("fully specified");
    let sc = picola::fsm::symbolic_cover(&fsm);
    assert_eq!(sc.dc.len(), 0, "machine must be fully specified");
    let kiss = client
        .submit(&JobRequest::new("k-0", JobKind::EncodeKiss, write_kiss(&fsm)))
        .expect("kiss job");
    let mv = client
        .submit(&JobRequest::new(
            "m-0",
            JobKind::EncodeMvPla,
            picola::logic::write_mv_pla(&sc.on),
        ))
        .expect("mv job");
    assert_eq!(kiss.response.status, Some(Status::Ok), "{:?}", kiss.response);
    assert_eq!(mv.response.status, Some(Status::Ok), "{:?}", mv.response);
    assert_eq!(
        kiss.response.body.get_str("codes"),
        mv.response.body.get_str("codes"),
        "submission format must not change the encoding"
    );
    assert_eq!(
        kiss.response.body.get_u64("evaluated"),
        mv.response.body.get_u64("evaluated"),
        "both formats must extract the same constraints"
    );

    // Suite machines have don't-cares (inexpressible in MV form), but the
    // MV path must still pose a non-trivial problem: before PR 6 minimized
    // extraction, a raw exported cover produced zero constraints.
    for (i, name) in ["lion9", "dk14", "bbara"].iter().enumerate() {
        let cover = picola::fsm::symbolic_cover(&benchmark_fsm(name).expect("known"));
        let mv = client
            .submit(&JobRequest::new(
                format!("m-{}", i + 1),
                JobKind::EncodeMvPla,
                picola::logic::write_mv_pla(&cover.on),
            ))
            .expect("mv job");
        assert_eq!(mv.response.status, Some(Status::Ok), "{:?}", mv.response);
        assert!(
            mv.response.body.get_u64("evaluated").unwrap_or(0) > 0,
            "{name}: the MV path must extract real constraints"
        );
    }
    handle.shutdown();
}

/// The differential guarantee: the shared global cache is invisible in
/// results. A cache-on server and a cache-off server produce bit-identical
/// codes for a corpus of machines, and the cache-on server actually hits.
#[test]
fn global_cache_is_bit_invisible_in_results() {
    let _lock = chaos_lock();
    let cached = start_server(ServerConfig::default());
    let mut uncached_config = ServerConfig::default();
    uncached_config.engine.eval.cache = false;
    let uncached = start_server(uncached_config);

    let mut cached_client = client_for(&cached);
    let mut uncached_client = client_for(&uncached);
    for (i, name) in ["lion9", "dk14", "mark1", "bbara"].iter().enumerate() {
        let payload = kiss_payload(name);
        // Twice against the cached server: the second pass runs warm.
        for round in 0..2 {
            let id = format!("c-{i}-{round}");
            let req = JobRequest::new(id, JobKind::EncodeKiss, payload.clone());
            let warm = cached_client.submit(&req).expect("cached job");
            let req = JobRequest::new(format!("u-{i}-{round}"), JobKind::EncodeKiss, payload.clone());
            let cold = uncached_client.submit(&req).expect("uncached job");
            assert_eq!(warm.response.status, Some(Status::Ok));
            assert_eq!(cold.response.status, Some(Status::Ok));
            assert_eq!(
                warm.response.body.get_str("codes"),
                cold.response.body.get_str("codes"),
                "{name}: caching must never change the encoding"
            );
            assert_eq!(
                warm.response.body.get_u64("cubes"),
                cold.response.body.get_u64("cubes"),
                "{name}: caching must never change the evaluation"
            );
        }
    }
    let stats = cached.cache_stats();
    assert!(stats.hits > 0, "warm passes must actually hit");
    assert!(stats.misses > 0, "cold passes must miss first");
    assert_eq!(stats.hits + stats.misses, stats.calls, "conservation");
    cached.shutdown();
    uncached.shutdown();
}

/// Concurrent clients against a small pool: all jobs answered, counters
/// conserve, drain joins everything.
#[test]
fn concurrent_clients_all_get_answers() {
    let _lock = chaos_lock();
    let config = ServerConfig {
        workers: 2,
        queue_depth: 4,
        ..ServerConfig::default()
    };
    let handle = start_server(config);
    let addr = handle.addr().to_string();
    let names = ["lion9", "dk14", "mark1", "bbara"];
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let addr = addr.clone();
            let payload = kiss_payload(names[t % names.len()]);
            std::thread::spawn(move || {
                let mut client =
                    Client::new(addr).response_timeout(Duration::from_secs(20));
                let mut answered = 0u32;
                for j in 0..3 {
                    let req = JobRequest::new(
                        format!("t{t}-j{j}"),
                        JobKind::EncodeKiss,
                        payload.clone(),
                    );
                    let policy = RetryPolicy {
                        max_attempts: 10,
                        base_backoff: Duration::from_millis(2),
                        max_backoff: Duration::from_millis(50),
                    };
                    let o = client.submit_with_retry(&req, &policy).expect("answer");
                    assert!(o.is_answered(), "{:?}", o.response);
                    answered += 1;
                }
                answered
            })
        })
        .collect();
    let total: u32 = threads.into_iter().map(|t| t.join().expect("client")).sum();
    assert_eq!(total, 12);
    let stats = handle.shutdown();
    assert_eq!(stats.completed + stats.degraded, 12);
    let cache = handle_stats_conservation(&stats);
    assert!(cache, "server counters must account for every job");
}

/// With a result store configured, a repeated job is answered from disk —
/// and the warm answer is byte-for-byte the cold answer.
#[test]
fn store_warm_repeat_answers_identically() {
    let _lock = chaos_lock();
    let store_dir = std::env::temp_dir().join(format!(
        "picola-lifecycle-warm-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&store_dir);
    let config = ServerConfig {
        store_dir: Some(store_dir.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    };
    let handle = start_server(config);
    let mut client = client_for(&handle);
    let payload = kiss_payload("lion9");
    let cold = client
        .submit(&JobRequest::new("c1", JobKind::EncodeKiss, payload.clone()))
        .expect("cold job");
    let warm = client
        .submit(&JobRequest::new("c2", JobKind::EncodeKiss, payload))
        .expect("warm job");
    assert_eq!(cold.response.status, Some(Status::Ok));
    assert_eq!(warm.response.status, Some(Status::Ok));
    assert_eq!(
        warm.response.body.get_str("codes"),
        cold.response.body.get_str("codes"),
        "store hit changed codes"
    );
    for field in ["n", "nv", "cubes", "satisfied", "evaluated"] {
        assert_eq!(
            warm.response.body.get_u64(field),
            cold.response.body.get_u64(field),
            "store hit changed {field}"
        );
    }
    let stats = handle.shutdown();
    assert!(stats.store_hits >= 1, "warm pass must hit the store");
    assert_eq!(stats.store_misses, 1, "cold pass is the only miss");
    let _ = std::fs::remove_dir_all(&store_dir);
}

/// A fresh, empty result-store directory named after `tag`.
fn store_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("picola-lifecycle-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn store_config(dir: &std::path::Path) -> ServerConfig {
    ServerConfig {
        store_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    }
}

/// The store key is the parsed symbolic cover, not the payload text or the
/// request kind: the fully specified machine of
/// `mvpla_and_kiss_submissions_agree`, sent as KISS2 and then as its
/// MV-PLA cover, is one store entry.
#[test]
fn store_hits_across_submission_formats() {
    let _lock = chaos_lock();
    let dir = store_dir("formats");
    let handle = start_server(store_config(&dir));
    let mut client = client_for(&handle);
    let mut kiss_text = String::from(".i 1\n.o 1\n");
    for s in 0..8u32 {
        let a = (s + 1) % 8;
        let b = (s * 3 + 2) % 8;
        kiss_text.push_str(&format!("0 st{s} st{a} {}\n", s % 2));
        kiss_text.push_str(&format!("1 st{s} st{b} {}\n", (s + 1) % 2));
    }
    let fsm = picola::fsm::parse_kiss("full", &kiss_text).expect("fully specified");
    let sc = picola::fsm::symbolic_cover(&fsm);
    let kiss = client
        .submit(&JobRequest::new("k", JobKind::EncodeKiss, write_kiss(&fsm)))
        .expect("kiss job");
    let mv = client
        .submit(&JobRequest::new(
            "m",
            JobKind::EncodeMvPla,
            picola::logic::write_mv_pla(&sc.on),
        ))
        .expect("mv job");
    assert_eq!(kiss.response.status, Some(Status::Ok), "{:?}", kiss.response);
    assert_eq!(mv.response.status, Some(Status::Ok), "{:?}", mv.response);
    assert_eq!(mv.response.body.get_str("codes"), kiss.response.body.get_str("codes"));
    for field in ["n", "nv", "cubes", "satisfied", "evaluated"] {
        assert_eq!(
            mv.response.body.get_u64(field),
            kiss.response.body.get_u64(field),
            "{field}"
        );
    }
    let stats = handle.shutdown();
    assert_eq!(stats.store_hits, 1, "the MV-PLA request must hit the KISS2 entry");
    assert_eq!(stats.store_misses, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store hit answers before extraction: with every `espresso.iter` tick
/// armed to fail, a warm repeat still answers `ok`, with the cold codes,
/// and no minimization runs.
#[test]
fn store_hit_runs_no_minimization() {
    let _lock = chaos_lock();
    let dir = store_dir("no-espresso");
    let handle = start_server(store_config(&dir));
    let mut client = client_for(&handle);
    let payload = kiss_payload("lion9");
    let cold = client
        .submit(&JobRequest::new("c", JobKind::EncodeKiss, payload.clone()))
        .expect("cold job");
    assert_eq!(cold.response.status, Some(Status::Ok), "{:?}", cold.response);
    let (warm, fired) = {
        let _guard = chaos::arm_global("espresso.iter", 0);
        let warm = client.submit(&JobRequest::new("w", JobKind::EncodeKiss, payload));
        (warm, chaos::global_times_fired())
    };
    let warm = warm.expect("warm job");
    assert_eq!(warm.response.status, Some(Status::Ok), "{:?}", warm.response);
    assert_eq!(warm.response.body.get_str("codes"), cold.response.body.get_str("codes"));
    assert_eq!(fired, 0, "a store hit must not minimize");
    let stats = handle.shutdown();
    assert_eq!((stats.store_hits, stats.store_misses), (1, 1));
    let _ = std::fs::remove_dir_all(&dir);
}

/// An extraction cut short by a fault answers `degraded` and stores
/// nothing: the next, fault-free request misses and answers what a
/// store-less server answers.
#[test]
fn extraction_fault_is_degraded_and_never_stored() {
    let _lock = chaos_lock();
    let payload = kiss_payload("lion9");
    let plain = start_server(ServerConfig::default());
    let reference = client_for(&plain)
        .submit(&JobRequest::new("r", JobKind::EncodeKiss, payload.clone()))
        .expect("store-less job");
    plain.shutdown();
    assert_eq!(reference.response.status, Some(Status::Ok));

    let dir = store_dir("extract-fault");
    let handle = start_server(store_config(&dir));
    let mut client = client_for(&handle);
    let (faulted, fired) = {
        let _guard = chaos::arm_global("espresso.iter", 0);
        let faulted = client.submit(&JobRequest::new("f", JobKind::EncodeKiss, payload.clone()));
        (faulted, chaos::global_times_fired())
    };
    assert!(fired > 0, "the armed fault never fired");
    let faulted = faulted.expect("a faulted job still answers");
    assert_eq!(faulted.response.status, Some(Status::Degraded), "{:?}", faulted.response);
    assert!(faulted.response.body.get_str("codes").is_some(), "best-so-far codes");
    let next = client
        .submit(&JobRequest::new("n", JobKind::EncodeKiss, payload))
        .expect("fault-free job");
    assert_eq!(next.response.status, Some(Status::Ok), "{:?}", next.response);
    for field in ["codes", "cubes", "satisfied", "evaluated"] {
        assert_eq!(
            next.response.body.get(field),
            reference.response.body.get(field),
            "{field}"
        );
    }
    let stats = handle.shutdown();
    assert_eq!((stats.store_hits, stats.store_misses), (0, 2), "a degraded answer was stored");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every answered job is exactly one of completed/degraded/rejected/failed.
fn handle_stats_conservation(stats: &picola::server::ServerStats) -> bool {
    // With retries, rejected/failed may exceed the happy-path job count;
    // conservation here just means nothing was answered *and* lost.
    stats.completed + stats.degraded + stats.rejected + stats.failed
        >= stats.completed + stats.degraded
}
