//! Content-addressed on-disk store of minimized encoding results.
//!
//! Repeated bench/CI/daemon runs re-minimize the same instances from
//! scratch; this store makes the second run nearly free. A key is the
//! FNV-1a digest of one of two canonical byte forms. The bench keys a
//! constraint problem by its *canonical job bytes* (symbol count, optional
//! code length override, and the sorted member list of every constraint —
//! see [`canonical_job_bytes`]). The daemon keys a request by its parsed
//! *symbolic cover* ([`canonical_cover_bytes`]) before it extracts any
//! constraints, so a repeat skips extraction and a KISS2 and an MV-PLA
//! submission of the same machine share one entry. The value is a compact
//! binary [`StoredResult`] record. A store directory holds one append-only
//! log, `results.log`, of checked frames, each carrying one key and its
//! record, plus an in-memory index from key to record (DESIGN.md §18 has
//! the byte-layout tables).
//!
//! Durability discipline:
//!
//! - **Locked appends** — an insert writes its whole frame with one
//!   `write_all` on an append handle while it holds an exclusive lock on
//!   the log, so frames from any number of threads and processes never
//!   interleave, and an insert creates no file. Concurrent writers racing
//!   one key append equal payloads (the key is a digest of the job and
//!   results are deterministic), so the duplicate frames are harmless.
//! - **Catch-up** — the index is built lazily: a lookup of a key it does
//!   not hold first reads the log from the last indexed offset to its end
//!   under a shared lock and indexes every frame there, a later frame for
//!   a key replacing an earlier one. This is how a store sees the appends
//!   of another process.
//! - **Corruption-tolerant reads** — a frame's header and record each
//!   carry an FNV-1a check. A header that fails its check is skipped one
//!   byte at a time until a header checks again (resync). A frame whose
//!   header holds but whose record is cut short, fails its check, or fails
//!   to decode or validate (codes that fail [`Encoding::new`]) marks its
//!   key corrupt: looking it up is an *honest counted miss*, the caller
//!   recomputes and re-inserts, and the new frame wins at the next
//!   catch-up. [`StoreStats::corrupt`] records each such lookup. The store
//!   never invents results and never panics on hostile bytes.
//! - **Only complete results** — callers must not insert degraded
//!   (budget-exhausted) outputs; [`StoredResult::from_output`] enforces
//!   this by returning `None` for them. A warm lookup therefore always
//!   reproduces what an unbounded in-memory run would have produced.
//! - **Chaos-reachable I/O** — every lookup and insert passes the
//!   `store.io` trigger point ([`picola_logic::chaos`]); a firing lookup
//!   degrades to a counted miss and a firing insert is skipped, modeling
//!   a failing disk without inventing data.

use crate::engine::{Job, JobOutput};
use picola_constraints::{Encoding, GroupConstraint};
use picola_logic::binio::{fnv1a64, ByteReader, ByteWriter, Fnv64};
use picola_logic::{chaos, Cover, Domain, VarKind};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Record-kind tag of canonical job bytes (digest input, never persisted).
pub const KIND_JOB: u8 = 1;
/// Record-kind tag of a stored result record.
pub const KIND_RESULT: u8 = 2;
/// Record-kind tag of canonical symbolic-cover bytes (digest input, never
/// persisted). Kinds 3 and 4 are the bench crate's artifacts.
pub const KIND_COVER: u8 = 5;

/// Upper bound accepted for symbol counts / constraint counts when
/// decoding store records — far above anything the encoders accept, low
/// enough that corrupt counts cannot drive huge allocations.
const MAX_DECODE_COUNT: u64 = 1 << 24;

/// File name of the store's log inside its directory.
const LOG_FILE: &str = "results.log";
/// Bytes of a frame header: key u64 LE, record length u32 LE, header
/// check u32 LE.
const HEADER_LEN: usize = 16;
/// Bytes of the record check that closes a frame (u64 LE).
const CHECK_LEN: usize = 8;

/// Content address of one encode job: the FNV-1a digest of its canonical
/// bytes. On disk it opens each frame of the store's log as 8
/// little-endian bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StoreKey(pub u64);

/// Canonical binary form of an encode job: versioned header, `n`, the
/// `nv` override (0 = none, else `nv + 1`), then each constraint as a
/// sorted, length-prefixed member list. Constraint *order* is preserved —
/// evaluation reports per-constraint costs positionally — but member
/// order inside a constraint is normalized.
#[must_use]
pub fn canonical_job_bytes(
    n: usize,
    nv_override: Option<usize>,
    constraints: &[GroupConstraint],
) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(16 + constraints.len() * 8);
    w.header(KIND_JOB);
    w.varint(n as u64);
    w.varint(nv_override.map_or(0, |nv| nv as u64 + 1));
    w.varint(constraints.len() as u64);
    let mut members: Vec<u64> = Vec::new();
    for c in constraints {
        members.clear();
        members.extend(c.members().iter().map(|m| m as u64));
        members.sort_unstable();
        w.varint(members.len() as u64);
        for &m in &members {
            w.varint(m);
        }
    }
    w.into_bytes()
}

/// The content address of an encode job under `nv_override`.
#[must_use]
pub fn job_key(n: usize, nv_override: Option<usize>, constraints: &[GroupConstraint]) -> StoreKey {
    let bytes = canonical_job_bytes(n, nv_override, constraints);
    let mut h = Fnv64::new();
    h.update(&bytes);
    StoreKey(h.finish())
}

/// Canonical binary form of a symbolic cover, the daemon's key before
/// extraction: versioned header, the symbol variable's index, the variable
/// count, each variable's kind tag and part count, then the on-set and the
/// dc-set, each as its cube count and every cube's words. `on` and `dc` are
/// covers over `dom`. Variable names are left out. Cube order is kept:
/// ESPRESSO is order-sensitive, so reordered rows may extract different
/// constraints and are a different job.
#[must_use]
pub fn canonical_cover_bytes(dom: &Domain, on: &Cover, dc: &Cover, symbol_var: usize) -> Vec<u8> {
    let words = (on.len() + dc.len()) * dom.words();
    let mut w = ByteWriter::with_capacity(16 + dom.num_vars() * 2 + words * 9);
    w.header(KIND_COVER);
    w.varint(symbol_var as u64);
    w.varint(dom.num_vars() as u64);
    for var in dom.vars() {
        w.u8(match var.kind() {
            VarKind::Binary => 0,
            VarKind::Multi => 1,
            VarKind::Output => 2,
        });
        w.varint(var.parts() as u64);
    }
    for cover in [on, dc] {
        w.varint(cover.len() as u64);
        for cube in cover.iter() {
            for &word in cube.words() {
                w.varint(word);
            }
        }
    }
    w.into_bytes()
}

/// The content address of a symbolic cover (see [`canonical_cover_bytes`]).
#[must_use]
pub fn cover_key(dom: &Domain, on: &Cover, dc: &Cover, symbol_var: usize) -> StoreKey {
    StoreKey(fnv1a64(&canonical_cover_bytes(dom, on, dc, symbol_var)))
}

/// The content address of a [`Job`], or `None` for job kinds the store
/// does not cache (evaluation jobs are already nearly free through the
/// minimize memo).
#[must_use]
pub fn key_for(job: &Job, nv_override: Option<usize>) -> Option<StoreKey> {
    match job {
        Job::Encode { n, constraints } => Some(job_key(*n, nv_override, constraints)),
        Job::Evaluate { .. } => None,
    }
}

/// One minimized result as persisted: everything a warm path needs to
/// reproduce the cold answer bit-identically at the job-output surface
/// (codes plus the aggregate evaluation the daemon and bench report).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredResult {
    /// Code length in bits.
    pub nv: usize,
    /// One code per symbol, distinct, each `< 1 << nv`.
    pub codes: Vec<u32>,
    /// Total minimized cube count across evaluated constraints.
    pub total_cubes: usize,
    /// Constraints embedded as faces.
    pub satisfied: usize,
    /// Constraints evaluated.
    pub evaluated: usize,
}

impl StoredResult {
    /// Captures a *complete* encode output; `None` when the output is
    /// degraded (never cached — budgets vary across runs) or not an
    /// encode result.
    #[must_use]
    pub fn from_output(output: &JobOutput) -> Option<StoredResult> {
        match output {
            JobOutput::Encoded {
                encoding,
                evaluation,
                completion,
            } if completion.is_complete() => Some(StoredResult {
                nv: encoding.nv(),
                codes: encoding.codes().to_vec(),
                total_cubes: evaluation.total_cubes,
                satisfied: evaluation.satisfied,
                evaluated: evaluation.evaluated,
            }),
            _ => None,
        }
    }

    /// The stored encoding, re-validated (the decode path has already
    /// checked it, so this cannot fail for records produced by
    /// [`ResultStore::lookup`]).
    #[must_use]
    pub fn encoding(&self) -> Option<Encoding> {
        Encoding::new(self.nv, self.codes.clone()).ok()
    }

    /// Serializes the record (DESIGN.md §18).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(16 + self.codes.len() * 3);
        w.header(KIND_RESULT);
        w.varint(self.nv as u64);
        w.varint(self.codes.len() as u64);
        for &c in &self.codes {
            w.varint(u64::from(c));
        }
        w.varint(self.total_cubes as u64);
        w.varint(self.satisfied as u64);
        w.varint(self.evaluated as u64);
        w.into_bytes()
    }

    /// Decodes and *semantically validates* a record: structural errors,
    /// trailing bytes, out-of-range or duplicate codes all return `None`
    /// (the store treats that as a corrupt entry).
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> Option<StoredResult> {
        let mut r = ByteReader::new(bytes);
        r.header(KIND_RESULT).ok()?;
        let nv = usize::try_from(r.varint_capped(64, "code length").ok()?).ok()?;
        let count = r.varint_capped(MAX_DECODE_COUNT, "code count").ok()?;
        let mut codes = Vec::with_capacity(usize::try_from(count).ok()?);
        for _ in 0..count {
            codes.push(u32::try_from(r.varint_capped(u64::from(u32::MAX), "code").ok()?).ok()?);
        }
        let total_cubes = usize::try_from(r.varint().ok()?).ok()?;
        let satisfied = usize::try_from(r.varint().ok()?).ok()?;
        let evaluated = usize::try_from(r.varint().ok()?).ok()?;
        r.finish().ok()?;
        // Semantic validation through the same gate the encoders use.
        Encoding::new(nv, codes.clone()).ok()?;
        Some(StoredResult {
            nv,
            codes,
            total_cubes,
            satisfied,
            evaluated,
        })
    }
}

/// Monotonic store counters, snapshot by [`ResultStore::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups answered from disk.
    pub hits: u64,
    /// Lookups with no usable entry (includes corrupt entries and
    /// injected I/O faults).
    pub misses: u64,
    /// Misses caused by an unreadable or invalid entry specifically.
    pub corrupt: u64,
    /// Frames appended whole to the log.
    pub inserts: u64,
    /// Inserts skipped or failed (I/O error, injected fault, degraded
    /// result offered).
    pub insert_failures: u64,
}

#[derive(Debug, Default)]
struct StatsInner {
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    inserts: AtomicU64,
    insert_failures: AtomicU64,
}

/// The index's view of a key's latest frame.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// An intact frame: the log offset and length of its record.
    Record { offset: u64, len: usize },
    /// A frame whose header checks but whose record is cut short or fails
    /// its check, or an indexed record that failed its check or decode
    /// at lookup.
    Corrupt,
}

/// The answer of [`Log::find`].
enum Found {
    Hit(StoredResult),
    Miss,
    Corrupt,
}

/// The open log and its index, guarded together by one mutex.
#[derive(Debug)]
struct Log {
    /// Read + append handle on `results.log`.
    file: File,
    index: HashMap<StoreKey, Slot>,
    /// Log offset up to which every frame has been indexed.
    indexed: u64,
}

/// The low 32 bits of FNV-1a over a frame's key and length bytes.
fn header_check(key_len: &[u8]) -> u32 {
    // truncation intended: the check is the digest's low half
    fnv1a64(key_len) as u32
}

/// One frame of the log: key, record length, header check, record,
/// record check. `None` for a record too long for the length field.
fn frame(key: StoreKey, record: &[u8]) -> Option<Vec<u8>> {
    let len = u32::try_from(record.len()).ok()?;
    let mut f = Vec::with_capacity(HEADER_LEN + record.len() + CHECK_LEN);
    f.extend_from_slice(&key.0.to_le_bytes());
    f.extend_from_slice(&len.to_le_bytes());
    let check = header_check(&f);
    f.extend_from_slice(&check.to_le_bytes());
    f.extend_from_slice(record);
    f.extend_from_slice(&fnv1a64(record).to_le_bytes());
    Some(f)
}

/// The little-endian `u64` at the start of `b`.
fn le_u64(b: &[u8]) -> Option<u64> {
    b.first_chunk().map(|x| u64::from_le_bytes(*x))
}

/// The little-endian `u32` at the start of `b`.
fn le_u32(b: &[u8]) -> Option<u32> {
    b.first_chunk().map(|x| u32::from_le_bytes(*x))
}

/// The key and record length of the frame header at the start of `b`, or
/// `None` when fewer than [`HEADER_LEN`] bytes remain or the header check
/// fails.
fn parse_header(b: &[u8]) -> Option<(StoreKey, usize)> {
    let head = b.get(..HEADER_LEN)?;
    let (key_len, check) = head.split_at(12);
    if le_u32(check)? != header_check(key_len) {
        return None;
    }
    let len = usize::try_from(le_u32(&key_len[8..])?).ok()?;
    Some((StoreKey(le_u64(key_len)?), len))
}

/// Whether `tail` holds `record`'s check.
fn record_checks(record: &[u8], tail: &[u8]) -> bool {
    le_u64(tail) == Some(fnv1a64(record))
}

impl Log {
    /// Reads the log from `indexed` to its end under a shared lock and
    /// indexes it. Writers append whole frames under an exclusive lock, so
    /// no frame is half-written while the shared lock is held: an
    /// incomplete frame is a torn write that nothing will finish, and
    /// every byte read is indexed for good.
    fn catch_up(&mut self) -> io::Result<()> {
        let mut bytes = Vec::new();
        self.file.lock_shared()?;
        let read = (&self.file)
            .seek(SeekFrom::Start(self.indexed))
            .and_then(|_| (&self.file).read_to_end(&mut bytes));
        let unlocked = self.file.unlock();
        read.and(unlocked)?;
        self.index_frames(&bytes);
        self.indexed += bytes.len() as u64;
        Ok(())
    }

    /// Indexes the frames of `bytes`, which start at log offset `indexed`.
    /// A failed header check advances one byte (resync). So does a damaged
    /// record after a good header: it marks the key corrupt, and stepping
    /// one byte rather than past the claimed length keeps a frame appended
    /// after a torn one reachable.
    fn index_frames(&mut self, bytes: &[u8]) {
        let mut pos = 0;
        while pos + HEADER_LEN <= bytes.len() {
            let Some((key, len)) = parse_header(&bytes[pos..]) else {
                pos += 1;
                continue;
            };
            let start = pos + HEADER_LEN;
            let body = start
                .checked_add(len)
                .and_then(|end| Some((bytes.get(start..end)?, bytes.get(end..)?)));
            match body {
                Some((record, tail)) if record_checks(record, tail) => {
                    let offset = self.indexed + start as u64;
                    self.index.insert(key, Slot::Record { offset, len });
                    pos = start + len + CHECK_LEN;
                }
                _ => {
                    self.index.insert(key, Slot::Corrupt);
                    pos += 1;
                }
            }
        }
    }

    /// Looks `key` up, catching up first when the index holds no intact
    /// frame for it. An I/O error while catching up is a corrupt miss.
    fn find(&mut self, key: StoreKey) -> Found {
        let indexed = matches!(self.index.get(&key), Some(Slot::Record { .. }));
        if !indexed && self.catch_up().is_err() {
            return Found::Corrupt;
        }
        match self.index.get(&key).copied() {
            None => Found::Miss,
            Some(Slot::Corrupt) => Found::Corrupt,
            Some(Slot::Record { offset, len }) => match self.read_record(offset, len) {
                Some(result) => Found::Hit(result),
                None => {
                    self.index.insert(key, Slot::Corrupt);
                    Found::Corrupt
                }
            },
        }
    }

    /// Reads the indexed record at `offset` and its check, then decodes and
    /// validates it. Frames are never rewritten, so this needs no file
    /// lock; `None` when the bytes changed since they were indexed.
    fn read_record(&mut self, offset: u64, len: usize) -> Option<StoredResult> {
        let mut buf = vec![0u8; len.checked_add(CHECK_LEN)?];
        self.file.seek(SeekFrom::Start(offset)).ok()?;
        self.file.read_exact(&mut buf).ok()?;
        let (record, check) = buf.split_at(len);
        if !record_checks(record, check) {
            return None;
        }
        StoredResult::from_bytes(record)
    }

    /// Appends `frame` with one write under an exclusive lock.
    fn append(&mut self, frame: &[u8]) -> io::Result<()> {
        self.file.lock()?;
        let written = self.file.write_all(frame);
        let unlocked = self.file.unlock();
        written.and(unlocked)
    }
}

/// A content-addressed directory of [`StoredResult`] records, safe for
/// concurrent readers and writers in any number of processes.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    stats: StatsInner,
    log: Mutex<Log>,
}

impl ResultStore {
    /// Opens (creating if needed) the store rooted at `dir`. The log is
    /// opened, not read: the index is built by the first lookup.
    ///
    /// # Errors
    ///
    /// The directory or its log cannot be created or opened.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ResultStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(dir.join(LOG_FILE))?;
        Ok(ResultStore {
            dir,
            stats: StatsInner::default(),
            log: Mutex::new(Log {
                file,
                index: HashMap::new(),
                indexed: 0,
            }),
        })
    }

    /// The store's root directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The log and its index. A panic while the lock was held cannot leave
    /// them inconsistent: index entries are replaced whole, and `indexed`
    /// advances only after the frames it covers are indexed.
    fn log(&self) -> MutexGuard<'_, Log> {
        self.log.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks `key` up. A missing entry is a miss; an unreadable or
    /// invalid entry is a *corrupt* miss; an injected `store.io` fault is
    /// a plain miss (the disk "failed"). Never panics, never errors —
    /// the caller's fallback is always "recompute".
    pub fn lookup(&self, key: StoreKey) -> Option<StoredResult> {
        if chaos::should_fire("store.io") {
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let found = self.log().find(key);
        match found {
            Found::Hit(result) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(result)
            }
            Found::Miss => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Found::Corrupt => {
                self.stats.corrupt.fetch_add(1, Ordering::Relaxed);
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Appends `result` under `key` as one frame. Returns `true` when the
    /// whole frame was written. Failures — I/O errors, injected
    /// `store.io` faults — are counted and absorbed: a store that cannot
    /// write degrades the *next* run, never this one.
    pub fn insert(&self, key: StoreKey, result: &StoredResult) -> bool {
        if chaos::should_fire("store.io") {
            self.stats.insert_failures.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let written = frame(key, &result.to_bytes()).is_some_and(|f| self.log().append(&f).is_ok());
        if written {
            self.stats.inserts.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.insert_failures.fetch_add(1, Ordering::Relaxed);
        }
        written
    }

    /// Inserts the result of `output` if (and only if) it is a complete
    /// encode output; degraded results are counted as insert failures so
    /// cache-poisoning attempts stay visible.
    pub fn insert_output(&self, key: StoreKey, output: &JobOutput) -> bool {
        match StoredResult::from_output(output) {
            Some(result) => self.insert(key, &result),
            None => {
                self.stats.insert_failures.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// A snapshot of the counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            corrupt: self.stats.corrupt.load(Ordering::Relaxed),
            inserts: self.stats.inserts.load(Ordering::Relaxed),
            insert_failures: self.stats.insert_failures.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use picola_constraints::SymbolSet;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "picola-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_result() -> StoredResult {
        StoredResult {
            nv: 3,
            codes: vec![0, 1, 2, 3, 4, 5],
            total_cubes: 7,
            satisfied: 2,
            evaluated: 3,
        }
    }

    #[test]
    fn records_round_trip() {
        let r = sample_result();
        let bytes = r.to_bytes();
        assert_eq!(StoredResult::from_bytes(&bytes), Some(r.clone()));
        assert_eq!(StoredResult::from_bytes(&bytes).unwrap().to_bytes(), bytes);
    }

    #[test]
    fn corrupt_records_decode_to_none() {
        let bytes = sample_result().to_bytes();
        for cut in 0..bytes.len() {
            assert!(StoredResult::from_bytes(&bytes[..cut]).is_none());
        }
        // Duplicate codes fail the semantic gate.
        let bad = StoredResult {
            codes: vec![1, 1, 2],
            ..sample_result()
        };
        assert!(StoredResult::from_bytes(&bad.to_bytes()).is_none());
        // Out-of-range code for nv.
        let bad = StoredResult {
            nv: 1,
            codes: vec![0, 5],
            ..sample_result()
        };
        assert!(StoredResult::from_bytes(&bad.to_bytes()).is_none());
    }

    #[test]
    fn canonical_bytes_normalize_member_order_only() {
        let n = 8;
        let a = [GroupConstraint::new(SymbolSet::from_members(n, [2, 5, 1]))];
        let b = [GroupConstraint::new(SymbolSet::from_members(n, [1, 2, 5]))];
        assert_eq!(job_key(n, None, &a), job_key(n, None, &b));
        assert_ne!(
            job_key(n, None, &a),
            job_key(n, Some(4), &a),
            "nv override is part of the address"
        );
        let c = [GroupConstraint::new(SymbolSet::from_members(n, [1, 2, 6]))];
        assert_ne!(job_key(n, None, &a), job_key(n, None, &c));
    }

    /// The canonical bytes and key of the MV-PLA covers `on` and `dc`
    /// under `header`, with `symbol_var` as the symbol variable.
    fn mv_key(header: &str, on: &[&str], dc: &[&str], symbol_var: usize) -> (Vec<u8>, StoreKey) {
        let parse = |rows: &[&str]| {
            let text = format!("{header}\n{}\n", rows.join("\n"));
            picola_logic::parse_mv_pla(&text).unwrap()
        };
        let (dom, on) = parse(on);
        let (_, dc) = parse(dc);
        (
            canonical_cover_bytes(&dom, &on, &dc, symbol_var),
            cover_key(&dom, &on, &dc, symbol_var),
        )
    }

    #[test]
    fn cover_key_keeps_cube_order_sets_and_shape() {
        let header = ".mv 3 1 3 4";
        let on = ["0 100 1000", "1 010 0100", "- 001 0011"];
        let dc = ["1 110 0001"];
        let (bytes, key) = mv_key(header, &on, &dc, 1);
        assert_eq!(mv_key(header, &on, &dc, 1).1, key, "equal inputs, equal keys");
        let moved = mv_key(header, &on[..2], &["- 001 0011", dc[0]], 1).1;
        assert_ne!(moved, key, "a cube moved from on to dc");
        let swapped = mv_key(header, &[on[1], on[0], on[2]], &dc, 1).1;
        assert_ne!(swapped, key, "two on-set cubes swapped");
        assert_ne!(mv_key(header, &on, &dc, 2).1, key, "another symbol variable");
        let wider = mv_key(
            ".mv 3 1 4 4",
            &["0 1000 1000", "1 0100 0100", "- 0010 0011"],
            &["1 1100 0001"],
            1,
        );
        assert_ne!(wider.1, key, "one more part on the symbol variable");
        let mut r = ByteReader::new(&bytes);
        assert!(r.header(KIND_COVER).is_ok());
        assert!(ByteReader::new(&bytes).header(KIND_JOB).is_err());
    }

    #[test]
    fn hit_miss_and_corrupt_paths_count_honestly() {
        let dir = tmp_dir("paths");
        let store = ResultStore::open(&dir).unwrap();
        let key = StoreKey(0xdead_beef);
        assert!(store.lookup(key).is_none(), "empty store misses");
        let r = sample_result();
        assert!(store.insert(key, &r));
        assert_eq!(store.lookup(key), Some(r));
        // Garble the record bytes of its frame inside the log: the next
        // lookup is a corrupt miss.
        let log = dir.join(LOG_FILE);
        let mut bytes = fs::read(&log).unwrap();
        let record = HEADER_LEN..bytes.len() - CHECK_LEN;
        bytes[record].iter_mut().for_each(|b| *b = !*b);
        fs::write(&log, bytes).unwrap();
        assert!(store.lookup(key).is_none());
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.corrupt, s.inserts), (1, 2, 1, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A torn write at the end of the log (a frame cut after its header)
    /// must not hide the frames appended after it: catch-up resyncs past
    /// the torn bytes, and the re-inserted key wins.
    #[test]
    fn frames_after_a_torn_tail_are_found() {
        let dir = tmp_dir("torn");
        let r = sample_result();
        let keys: Vec<StoreKey> = (1..=4).map(StoreKey).collect();
        {
            let store = ResultStore::open(&dir).unwrap();
            for &key in &keys {
                assert!(store.insert(key, &r));
            }
        }
        let log = dir.join(LOG_FILE);
        let frame_len = frame(keys[3], &r.to_bytes()).unwrap().len();
        let full = fs::metadata(&log).unwrap().len();
        let torn = full - frame_len as u64 + HEADER_LEN as u64 + 3;
        fs::OpenOptions::new()
            .write(true)
            .open(&log)
            .unwrap()
            .set_len(torn)
            .unwrap();
        {
            let store = ResultStore::open(&dir).unwrap();
            assert!(store.lookup(keys[3]).is_none(), "torn frame is a miss");
            assert_eq!(store.stats().corrupt, 1, "its intact header names it");
            assert!(store.insert(keys[3], &r), "re-insert after the torn tail");
            assert!(store.insert(StoreKey(5), &r));
        }
        let store = ResultStore::open(&dir).unwrap();
        for key in keys.into_iter().chain([StoreKey(5)]) {
            assert_eq!(store.lookup(key), Some(r.clone()), "{key:?}");
        }
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.corrupt), (5, 0, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_store_faults_degrade_to_misses() {
        let dir = tmp_dir("chaos");
        let store = ResultStore::open(&dir).unwrap();
        let key = StoreKey(7);
        let r = sample_result();
        {
            let _guard = chaos::arm("store.io", 0);
            assert!(!store.insert(key, &r), "firing insert is skipped");
            assert!(store.lookup(key).is_none());
        }
        assert!(store.insert(key, &r), "disarmed store works again");
        assert_eq!(store.lookup(key), Some(r));
        let s = store.stats();
        assert_eq!(s.insert_failures, 1);
        assert!(s.misses >= 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
