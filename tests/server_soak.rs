//! Long-running soak of the encoding daemon under rotating chaos.
//!
//! Ignored by default (it runs for ~60 seconds); the CI soak job runs it
//! with `cargo test --release --test server_soak -- --ignored` (see
//! `scripts/verify.sh --soak`). Four client threads submit continuously
//! while the main thread rotates through every server-facing fault —
//! worker panics, dropped sockets, load-shed queues, poisoned cache
//! shards — with clean periods in between. The pass criteria:
//!
//! * **zero hangs** — every client wait is bounded by its response
//!   timeout, and every thread joins before the deadline;
//! * **every job accounted** — client-observed answers never exceed what
//!   the server counted (a response the chaos point dropped on the floor
//!   is still counted server-side, never silently lost);
//! * **clean drain** — shutdown joins workers and connections with jobs
//!   still in flight;
//! * **cache conservation** — `hits + misses == calls` across all shards
//!   (every lookup tallies exactly one outcome, even through poisoned
//!   shards), shared-cache hits strictly grow across the soak (warmth
//!   survives the faults), and the entry count respects the capacity
//!   bound.

#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use picola::fsm::{benchmark_fsm, write_kiss};
use picola::logic::chaos;
use picola::server::{Client, JobKind, JobRequest, RetryPolicy, Server, ServerConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn soak_duration() -> Duration {
    // Overridable so a local run can do a quick pass
    // (`PICOLA_SOAK_SECS=5 cargo test --test server_soak -- --ignored`).
    let secs = std::env::var("PICOLA_SOAK_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(60u64);
    Duration::from_secs(secs)
}

#[test]
#[ignore = "60s soak; run explicitly via scripts/verify.sh --soak"]
fn soak_under_rotating_chaos_never_hangs_or_loses_jobs() {
    let config = ServerConfig {
        workers: 3,
        queue_depth: 8,
        default_budget_ms: 500,
        ..ServerConfig::default()
    };
    let handle = Server::start(config).expect("bind");
    let addr = handle.addr().to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let answered = Arc::new(AtomicU64::new(0));
    let unanswered = Arc::new(AtomicU64::new(0));

    let names = ["lion9", "dk14", "mark1", "bbara"];
    let clients: Vec<_> = (0..4)
        .map(|t| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            let answered = Arc::clone(&answered);
            let unanswered = Arc::clone(&unanswered);
            let payload = write_kiss(&benchmark_fsm(names[t % names.len()]).expect("known"));
            std::thread::spawn(move || {
                let mut client =
                    Client::new(addr).response_timeout(Duration::from_secs(10));
                let policy = RetryPolicy {
                    max_attempts: 3,
                    base_backoff: Duration::from_millis(5),
                    max_backoff: Duration::from_millis(50),
                };
                let mut j = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    j += 1;
                    let req = JobRequest::new(
                        format!("soak-{t}-{j}"),
                        JobKind::EncodeKiss,
                        payload.clone(),
                    );
                    match client.submit_with_retry(&req, &policy) {
                        Ok(o) if o.is_answered() => {
                            answered.fetch_add(1, Ordering::Relaxed);
                        }
                        // Structured errors (worker panic episodes) and
                        // exhausted retries (socket/queue episodes) are
                        // legal under chaos — what is not legal is a
                        // hang, and the response timeout bounds that.
                        Ok(_) | Err(_) => {
                            unanswered.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
        })
        .collect();

    // Rotate faults: each episode arms one point for a slice, then runs
    // clean for a slice so recovery is continuously exercised.
    let deadline = Instant::now() + soak_duration();
    let points = ["server.worker", "server.socket", "server.queue", "cache.shard"];
    let mut episode = 0usize;
    let mut hits_floor = 0u64;
    while Instant::now() < deadline {
        let point = points[episode % points.len()];
        episode += 1;
        {
            let _guard = chaos::arm_global(point, 10);
            std::thread::sleep(Duration::from_millis(1_500));
        }
        // Clean slice: warmth must keep accumulating between faults.
        std::thread::sleep(Duration::from_millis(1_500));
        let stats = handle.cache_stats();
        assert!(
            stats.hits >= hits_floor,
            "cache hits went backwards across episodes"
        );
        hits_floor = stats.hits;
    }

    stop.store(true, Ordering::Relaxed);
    let join_deadline = Instant::now() + Duration::from_secs(30);
    for c in clients {
        assert!(
            Instant::now() < join_deadline,
            "client threads failed to wind down — hang"
        );
        c.join().expect("client thread");
    }

    let answered = answered.load(Ordering::Relaxed);
    let unanswered = unanswered.load(Ordering::Relaxed);
    assert!(answered > 0, "the soak never completed a single job");

    let cache = handle.cache_stats();
    assert!(cache.hits > 0, "a warm cache must hit across a soak");
    assert_eq!(
        cache.hits + cache.misses,
        cache.calls,
        "cache conservation violated: every lookup must tally exactly one \
         hit or miss across all shards"
    );
    assert!(
        cache.entries <= cache.capacity + cache.capacity / 2,
        "entry count {} exceeds the documented bound for capacity {}",
        cache.entries,
        cache.capacity
    );

    // Drain with the server still warm; this must return (join every
    // worker and connection thread) rather than hang.
    let stats = handle.shutdown();
    assert!(
        stats.completed + stats.degraded >= answered,
        "clients observed {answered} answers but the server only counted {}",
        stats.completed + stats.degraded
    );
    // Every client-side non-answer corresponds to server-side activity
    // (a rejection, a failure, or a response dropped by the socket
    // fault), not to silence.
    assert!(
        stats.rejected + stats.failed + stats.socket_drops + stats.worker_panics > 0
            || unanswered == 0,
        "{unanswered} unanswered jobs but no fault was ever counted"
    );
}
