//! Integration suite for the streaming pipeline, the content-addressed
//! result store, and the binary artifact codecs.
//!
//! The contracts under test:
//!
//! * **Differential:** a store-warm stream is record-for-record identical
//!   to a store-cold stream and to the storeless in-memory path — the
//!   store accelerates, it never changes a result.
//! * **Honesty:** corrupt store entries decode to counted misses and the
//!   result is recomputed; injected store I/O faults (`store.io`)
//!   likewise degrade to cold computation, bit-identically.
//! * **Safety:** concurrent writers racing on one key leave a store that
//!   still decodes (frames appended under a file lock), and two stores
//!   open on one directory see each other's appends.
//! * **Bounded memory:** every stream run asserts its peak-live
//!   tripwire (`run_stream` fails the run itself on a lifetime leak).
//! * **Artifacts:** every standard- and large-tier bench instance
//!   round-trips bit-identically through the binary codec, with the JSON
//!   debug export agreeing field-for-field.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use picola_bench::corpus::{generate_iter, Tier};
use picola_bench::stream::{run_stream, StreamConfig};
use picola_bench::{decode_instance, encode_instance, instance_json};
use picola_core::store::{job_key, ResultStore, StoredResult};
use picola_core::{chaos, EngineConfig, EngineHandle};
use std::path::PathBuf;
use std::sync::Mutex;

/// The bench default seed — tests cover the exact instances the bench runs.
const BENCH_SEED: u64 = 0x0001_C01A;

/// Global chaos plans are process-wide; every test that runs a store (even
/// unarmed — a concurrently armed plan would reach it) serializes here.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn chaos_lock() -> std::sync::MutexGuard<'static, ()> {
    CHAOS_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "picola-stream-store-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn engine() -> EngineHandle {
    EngineHandle::new(EngineConfig::default())
}

fn config(count: usize, tier: Tier, store_dir: Option<PathBuf>) -> StreamConfig {
    StreamConfig {
        count,
        master_seed: BENCH_SEED,
        tier,
        threads: 3,
        depth: 4,
        store_dir,
        work_limit: None,
    }
}

/// The byte range of each frame's record in a store log (DESIGN.md §18:
/// key u64, record length u32, header check u32, record, record check
/// u64).
fn frame_records(log: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut records = Vec::new();
    let mut pos = 0;
    while pos + 16 <= log.len() {
        let len = u32::from_le_bytes(log[pos + 8..pos + 12].try_into().unwrap()) as usize;
        records.push(pos + 16..pos + 16 + len);
        pos += 16 + len + 8;
    }
    records
}

/// Strips the provenance flag: everything else about a record must be
/// independent of whether the store answered.
fn result_fields(
    r: &picola_bench::StreamRecord,
) -> (u64, u64, u64, u64, u64, u64, u64, u64) {
    (
        r.index,
        r.key,
        r.n,
        r.nv,
        r.codes_digest,
        r.total_cubes,
        r.satisfied,
        r.evaluated,
    )
}

#[test]
fn warm_stream_is_bit_identical_to_cold_and_memoryless() {
    let _lock = chaos_lock();
    let dir = temp_store("diff");
    // The in-memory reference: no store at all.
    let memoryless = run_stream(&engine(), &config(16, Tier::Standard, None)).unwrap();
    // Cold: fresh store directory, every lookup misses, results persisted.
    let cold = run_stream(&engine(), &config(16, Tier::Standard, Some(dir.clone()))).unwrap();
    // Warm: same directory, same corpus — every lookup should hit.
    let warm = run_stream(&engine(), &config(16, Tier::Standard, Some(dir.clone()))).unwrap();

    assert_eq!(cold.records.len(), 16);
    assert_eq!(warm.records.len(), 16);
    for ((m, c), w) in memoryless.records.iter().zip(&cold.records).zip(&warm.records) {
        assert_eq!(
            result_fields(m),
            result_fields(c),
            "index {}: cold store changed a result",
            m.index
        );
        assert_eq!(
            result_fields(c),
            result_fields(w),
            "index {}: warm store changed a result",
            c.index
        );
        assert!(!m.store_hit && !c.store_hit, "nothing to hit yet");
    }
    // The cold leg persisted every complete result; the warm leg answers
    // from disk. Distinct instances can share a content address, so hits
    // are counted per lookup, not per file.
    assert_eq!(cold.store.hits, 0);
    assert!(cold.store.inserts >= 1, "cold run must populate the store");
    assert!(
        warm.hit_rate() >= 0.9,
        "warm hit rate {} below 0.9 ({:?})",
        warm.hit_rate(),
        warm.store
    );
    assert!(warm.records.iter().all(|r| r.store_hit || r.complete));
    // The tripwire numbers are reported and already self-asserted.
    for report in [&memoryless, &cold, &warm] {
        assert!(report.peak_live <= report.live_bound);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_store_entries_are_recomputed_bit_identically() {
    let _lock = chaos_lock();
    let dir = temp_store("corrupt");
    let cold = run_stream(&engine(), &config(8, Tier::Standard, Some(dir.clone()))).unwrap();
    // Rot the log in both shapes the reader must survive: a byte flipped
    // inside a record mid-log, and a last frame cut short past its header.
    let log = dir.join("results.log");
    let mut bytes = std::fs::read(&log).unwrap();
    let frames = frame_records(&bytes);
    assert!(frames.len() >= 2, "cold run left {} frames", frames.len());
    let (last, earlier) = frames.split_last().unwrap();
    let mid = bytes.len() / 2;
    let flipped = earlier
        .iter()
        .find(|r| r.end > mid)
        .unwrap_or(&earlier[earlier.len() - 1]);
    bytes[(flipped.start + flipped.end) / 2] ^= 0xff;
    bytes.truncate((last.start + last.end) / 2);
    std::fs::write(&log, bytes).unwrap();
    let warm = run_stream(&engine(), &config(8, Tier::Standard, Some(dir.clone()))).unwrap();
    for (c, w) in cold.records.iter().zip(&warm.records) {
        assert_eq!(
            result_fields(c),
            result_fields(w),
            "index {}: corruption changed a result instead of a recompute",
            c.index
        );
    }
    // The cut frame keeps its header, so its key is always counted
    // corrupt; the flipped record fails its check. Nothing may be served
    // from the rotten log as a hit of the *wrong* result (the
    // differential above already proved that).
    assert!(
        warm.store.corrupt >= 1,
        "no corruption counted: {:?}",
        warm.store
    );
    assert!(
        warm.store.corrupt <= warm.store.misses,
        "corrupt lookups must be a subset of misses: {:?}",
        warm.store
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_store_faults_degrade_stream_to_cold() {
    let _lock = chaos_lock();
    let dir = temp_store("chaos");
    let reference = run_stream(&engine(), &config(6, Tier::Standard, None)).unwrap();
    let (faulty, fired) = {
        let _guard = chaos::arm_global("store.io", 0);
        let report =
            run_stream(&engine(), &config(6, Tier::Standard, Some(dir.clone()))).unwrap();
        (report, chaos::global_times_fired())
    };
    assert!(fired > 0, "the armed store fault never fired");
    for (a, b) in reference.records.iter().zip(&faulty.records) {
        assert_eq!(
            result_fields(a),
            result_fields(b),
            "index {}: a store fault changed a result",
            a.index
        );
    }
    assert_eq!(faulty.store.hits, 0, "a failing store cannot hit");
    assert!(
        faulty.store.misses >= 6,
        "faulted lookups must count as misses: {:?}",
        faulty.store
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_writers_on_one_key_leave_a_decodable_store() {
    let _lock = chaos_lock();
    let dir = temp_store("race");
    let store = std::sync::Arc::new(ResultStore::open(&dir).unwrap());
    let inst = generate_iter(1, BENCH_SEED, Tier::Standard).next().unwrap();
    let key = job_key(inst.n, inst.nv_override, &inst.constraints);
    // All writers race the same content address with *equal* payloads —
    // the only way concurrent writers ever race in production, since the
    // key is a digest of the job and results are deterministic.
    let result = StoredResult {
        nv: 3,
        codes: vec![0, 1, 2, 3, 4],
        total_cubes: 7,
        satisfied: 2,
        evaluated: 3,
    };
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let store = std::sync::Arc::clone(&store);
            let result = result.clone();
            std::thread::spawn(move || {
                for _ in 0..16 {
                    assert!(store.insert(key, &result), "insert failed");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let read = store.lookup(key).expect("race left an unreadable store");
    assert_eq!(read.codes, result.codes);
    assert_eq!(read.nv, result.nv);
    let stats = store.stats();
    assert_eq!(stats.inserts, 8 * 16);
    assert_eq!(stats.corrupt, 0, "appends must not interleave: {stats:?}");
    // The directory holds the log and nothing else.
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(names, ["results.log"], "stray files after the race");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two stores open on one directory hold separate handles on its log, as
/// two processes would. Threads append distinct keys through both, and
/// each thread reads every key it wrote back through the *other* store
/// while the rest still append; afterwards every key hits through both.
#[test]
fn two_stores_on_one_directory_see_each_others_appends() {
    let _lock = chaos_lock();
    let dir = temp_store("two");
    let stores = [
        ResultStore::open(&dir).unwrap(),
        ResultStore::open(&dir).unwrap(),
    ];
    let result = StoredResult {
        nv: 3,
        codes: vec![0, 1, 2, 3, 4],
        total_cubes: 7,
        satisfied: 2,
        evaluated: 3,
    };
    let key = |t: u64, i: u64| picola_core::store::StoreKey(t << 32 | i);
    let (threads, per_thread) = (4u64, 32u64);
    let start = std::sync::Barrier::new(threads as usize);
    std::thread::scope(|s| {
        for t in 0..threads {
            let (mine, other) = (&stores[t as usize % 2], &stores[1 - t as usize % 2]);
            let (start, result) = (&start, &result);
            s.spawn(move || {
                start.wait();
                for i in 0..per_thread {
                    assert!(mine.insert(key(t, i), result), "insert failed");
                    assert_eq!(other.lookup(key(t, i)).as_ref(), Some(result));
                }
            });
        }
    });
    for store in &stores {
        for t in 0..threads {
            for i in 0..per_thread {
                assert_eq!(store.lookup(key(t, i)).as_ref(), Some(&result));
            }
        }
        let stats = store.stats();
        assert_eq!(stats.corrupt, 0, "{stats:?}");
        assert_eq!(stats.inserts, threads / 2 * per_thread);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn huge_tier_smoke_stream_is_warm_on_second_pass() {
    let _lock = chaos_lock();
    let dir = temp_store("huge");
    let cold = run_stream(&engine(), &config(48, Tier::Huge, Some(dir.clone()))).unwrap();
    let warm = run_stream(&engine(), &config(48, Tier::Huge, Some(dir.clone()))).unwrap();
    assert_eq!(cold.records.len(), 48);
    for (c, w) in cold.records.iter().zip(&warm.records) {
        assert_eq!(result_fields(c), result_fields(w));
    }
    assert!(
        warm.hit_rate() >= 0.9,
        "huge-tier warm hit rate {} below 0.9",
        warm.hit_rate()
    );
    assert!(warm.peak_live <= warm.live_bound);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every instance the default bench run touches — 12 standard, 8 large —
/// round-trips through the binary codec bit-identically, and the JSON
/// debug export of the decoded instance matches the original's.
#[test]
fn artifacts_round_trip_every_bench_instance() {
    for (tier, count) in [(Tier::Standard, 12), (Tier::Large, 8)] {
        for inst in generate_iter(count, BENCH_SEED, tier) {
            let bytes = encode_instance(&inst);
            let back = decode_instance(&bytes)
                .unwrap_or_else(|e| panic!("{}: decode failed: {e}", inst.name));
            assert_eq!(
                encode_instance(&back),
                bytes,
                "{}: re-encode not bit-identical",
                inst.name
            );
            assert_eq!(
                instance_json(&back),
                instance_json(&inst),
                "{}: JSON debug export diverged",
                inst.name
            );
            assert_eq!(back.n, inst.n);
            assert_eq!(back.seed, inst.seed);
            assert_eq!(back.nv_override, inst.nv_override);
        }
    }
}
