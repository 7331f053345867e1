//! Runtime-dispatched wide kernel backend for the flat engine.
//!
//! The flat ESPRESSO engine reduced every cover operation to loops over
//! contiguous `u64` cube chunks of a fixed stride — exactly the shape
//! 256-bit vector units want. This module supplies the engine's whole-cube
//! word kernels — containment, equality, OR, AND and the cofactor body —
//! in three interchangeable implementations:
//!
//! * **scalar** — the original word-at-a-time loops, byte-for-byte the
//!   expressions the engine used before this module existed. This is the
//!   reference implementation and the A/B baseline.
//! * **portable wide** — 4-lane (`[u64; 4]`) unrolled loops that compile on
//!   every target and give LLVM a straight-line reduction to auto-vectorize.
//! * **AVX2** — `core::arch::x86_64` intrinsics (256-bit blocks with a
//!   128-bit SSE tail), selected at run time behind a cached
//!   `is_x86_feature_detected!("avx2")` check. Loads are unaligned
//!   (`loadu`): cube offsets inside a cover are stride-aligned, not
//!   32-byte-aligned, at stride 2.
//!
//! ## Backend selection
//!
//! [`KernelBackend`] has exactly two values — `Scalar` and `Wide` — and is
//! resolved by [`selected_backend`] in priority order:
//!
//! 1. a thread-local override installed by [`set_backend_override`] (tests
//!    and the `kernel_ab` bench leg use this to pin each leg's backend);
//! 2. the `PICOLA_SIMD` environment variable (`scalar` or `wide`), read
//!    once per process;
//! 3. the default, `Wide`.
//!
//! There is no compile-time switch: every build carries all three kernel
//! families, and `PICOLA_SIMD=scalar` (or the override) is how a run opts
//! out of the wide kernels. Whether a resolved `Wide` runs the AVX2 or the
//! portable lanes is a per-process hardware fact ([`avx2_active`]): AVX2
//! on x86_64 hosts that have it, the portable lanes on every other target
//! or under `PICOLA_SIMD=portable`. It is invisible to results.
//!
//! ## Bit-identity contract
//!
//! Every kernel here computes a *pure function of its word inputs* — a
//! boolean, a word, or an output buffer — and all three implementations
//! return identical values for identical inputs. The flat engine routes
//! only such leaf operations through the backend; the per-variable meet
//! test (`FlatDomain`'s popcount test) is one scalar function for every
//! backend, and loop structure, cube orderings, budget ticks, and
//! [`crate::obs`] counters stay in the engine and are therefore
//! backend-invariant. That makes covers, completions,
//! and traces bit-identical across backends, which is load-bearing:
//! the minimization memo ([`crate::cache::GlobalMinimizeCache`]) keys on
//! exact cover bytes, golden tables pin trace renders, and the
//! legacy/SAT oracles compare exact covers. `tests/prop_simd_kernels.rs`
//! enforces the contract end to end.
//!
//! ## Alignment
//!
//! [`AlignedWords`] is the growable word buffer backing
//! [`crate::MinimizeScratch`] pools and [`crate::FlatCover`] stores: its
//! allocation is always 64-byte aligned (backed by `#[repr(align(64))]`
//! cache lines), so a cube at word offset 0 starts a cache line and wide
//! loads of 1/2/4-word cubes never straddle one.

use std::cell::Cell;
use std::ops::{Deref, DerefMut};
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Backend selection
// ---------------------------------------------------------------------------

/// Which kernel implementation family the flat engine dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// The original word-at-a-time loops (reference + A/B baseline).
    Scalar,
    /// The vectorized kernels: AVX2 where detected, the portable 4-lane
    /// unrolled fallback everywhere else. The default.
    Wide,
}

thread_local! {
    /// Per-thread backend override (tests / bench legs). Thread-local so
    /// parallel test threads pinning different backends never race.
    static BACKEND_OVERRIDE: Cell<Option<KernelBackend>> = const { Cell::new(None) };
}

/// Pins this thread's kernel backend (`Some`) or restores env/default
/// resolution (`None`). Returns the previous override so callers can nest:
///
/// ```
/// use picola_logic::simd::{set_backend_override, KernelBackend};
/// let prev = set_backend_override(Some(KernelBackend::Scalar));
/// // ... run a scalar-pinned leg ...
/// set_backend_override(prev);
/// ```
pub fn set_backend_override(backend: Option<KernelBackend>) -> Option<KernelBackend> {
    BACKEND_OVERRIDE.with(|b| b.replace(backend))
}

/// The process-wide `PICOLA_SIMD` request (`scalar`/`wide`/`portable`),
/// read once. Unset or unrecognized values mean "no request"; `portable`
/// requests Wide with the AVX2 lanes masked off (see [`avx2_active`]), so
/// the portable fallback is testable on x86_64 hosts too.
fn env_backend() -> Option<KernelBackend> {
    static ENV: OnceLock<Option<KernelBackend>> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("PICOLA_SIMD").ok().as_deref() {
        Some("scalar") => Some(KernelBackend::Scalar),
        Some("wide") | Some("portable") => Some(KernelBackend::Wide),
        _ => None,
    })
}

/// Whether `PICOLA_SIMD=portable` masked the AVX2 lanes off (read once).
#[cfg(target_arch = "x86_64")]
fn avx2_masked_off() -> bool {
    static MASKED: OnceLock<bool> = OnceLock::new();
    *MASKED.get_or_init(|| std::env::var("PICOLA_SIMD").ok().as_deref() == Some("portable"))
}

/// Resolves the active kernel backend: thread-local override, then the
/// `PICOLA_SIMD` environment variable, then the default (`Wide`).
pub fn selected_backend() -> KernelBackend {
    BACKEND_OVERRIDE
        .with(Cell::get)
        .or_else(env_backend)
        .unwrap_or(KernelBackend::Wide)
}

/// Whether the Wide backend runs the AVX2 kernels on this machine (cached
/// runtime detection). `false` on non-x86_64 targets, when the CPU lacks
/// AVX2, or under `PICOLA_SIMD=portable` — the Wide backend then uses the
/// portable 4-lane fallback. Diagnostic only: results never depend on it.
#[cfg(target_arch = "x86_64")]
pub fn avx2_active() -> bool {
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::is_x86_feature_detected!("avx2") && !avx2_masked_off())
}

/// Whether the Wide backend runs the AVX2 kernels on this machine — always
/// `false` off x86_64, where Wide runs the portable fallback.
#[cfg(not(target_arch = "x86_64"))]
pub fn avx2_active() -> bool {
    false
}

// ---------------------------------------------------------------------------
// The kernel trait: the leaf word ops the flat engine routes per backend
// ---------------------------------------------------------------------------

/// The word-kernel vtable-free dispatch trait: one zero-sized implementor
/// per backend, threaded through `MvCtx` as a type parameter so each engine
/// rung monomorphizes straight-line kernels. It carries whole-cube word
/// operations only — containment, equality, OR, AND and the cofactor body;
/// tests that look at variables (the meet test, the distance) are not
/// part of it. Every method is a pure function of its inputs and all
/// implementations agree bit for bit.
pub(crate) trait Kern: Copy {
    /// Whether cube `a` contains (covers) cube `b`: `b & !a == 0` per word.
    fn covers(self, a: &[u64], b: &[u64]) -> bool;
    /// Exact word equality of two cubes.
    fn slices_eq(self, a: &[u64], b: &[u64]) -> bool;
    /// Whether every word of `c` is zero.
    fn is_zero(self, c: &[u64]) -> bool;
    /// OR-fold of all words — the scc signature.
    fn fold_or(self, c: &[u64]) -> u64;
    /// `dst |= src` per word.
    fn or_acc(self, dst: &mut [u64], src: &[u64]);
    /// `out = a & b` per word (the cube meet).
    fn and_into(self, out: &mut [u64], a: &[u64], b: &[u64]);
    /// The general cofactor body: `out = (x | !p) & full` per word.
    fn cofactor_into(self, out: &mut [u64], x: &[u64], p: &[u64], full: &[u64]);
}

/// The scalar backend: the engine's original word loops, verbatim.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScalarKern;

impl Kern for ScalarKern {
    #[inline]
    fn covers(self, a: &[u64], b: &[u64]) -> bool {
        a.iter().zip(b).all(|(&x, &y)| y & !x == 0)
    }

    #[inline]
    fn slices_eq(self, a: &[u64], b: &[u64]) -> bool {
        a == b
    }

    #[inline]
    fn is_zero(self, c: &[u64]) -> bool {
        c.iter().all(|&x| x == 0)
    }

    #[inline]
    fn fold_or(self, c: &[u64]) -> u64 {
        c.iter().fold(0u64, |acc, &x| acc | x)
    }

    #[inline]
    fn or_acc(self, dst: &mut [u64], src: &[u64]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d |= s;
        }
    }

    #[inline]
    fn and_into(self, out: &mut [u64], a: &[u64], b: &[u64]) {
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = x & y;
        }
    }

    #[inline]
    fn cofactor_into(self, out: &mut [u64], x: &[u64], p: &[u64], full: &[u64]) {
        for k in 0..out.len() {
            out[k] = (x[k] | !p[k]) & full[k];
        }
    }
}

/// The portable wide backend: 4-lane unrolled loops, compiled everywhere.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PortableKern;

impl Kern for PortableKern {
    #[inline]
    fn covers(self, a: &[u64], b: &[u64]) -> bool {
        portable::covers(a, b)
    }

    #[inline]
    fn slices_eq(self, a: &[u64], b: &[u64]) -> bool {
        portable::slices_eq(a, b)
    }

    #[inline]
    fn is_zero(self, c: &[u64]) -> bool {
        portable::is_zero(c)
    }

    #[inline]
    fn fold_or(self, c: &[u64]) -> u64 {
        portable::fold_or(c)
    }

    #[inline]
    fn or_acc(self, dst: &mut [u64], src: &[u64]) {
        portable::or_acc(dst, src);
    }

    #[inline]
    fn and_into(self, out: &mut [u64], a: &[u64], b: &[u64]) {
        portable::and_into(out, a, b);
    }

    #[inline]
    fn cofactor_into(self, out: &mut [u64], x: &[u64], p: &[u64], full: &[u64]) {
        portable::cofactor_into(out, x, p, full);
    }
}

/// The AVX2 backend: 256-bit blocks with a 128-bit tail, unaligned loads.
/// Constructed only after [`avx2_active`] returned `true`.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
pub(crate) struct Avx2Kern;

#[cfg(target_arch = "x86_64")]
impl Kern for Avx2Kern {
    #[inline]
    fn covers(self, a: &[u64], b: &[u64]) -> bool {
        // SAFETY: Avx2Kern is only constructed behind `avx2_active()`.
        unsafe { avx2::covers(a, b) }
    }

    #[inline]
    fn slices_eq(self, a: &[u64], b: &[u64]) -> bool {
        // SAFETY: as above.
        unsafe { avx2::slices_eq(a, b) }
    }

    #[inline]
    fn is_zero(self, c: &[u64]) -> bool {
        // SAFETY: as above.
        unsafe { avx2::is_zero(c) }
    }

    #[inline]
    fn fold_or(self, c: &[u64]) -> u64 {
        // SAFETY: as above.
        unsafe { avx2::fold_or(c) }
    }

    #[inline]
    fn or_acc(self, dst: &mut [u64], src: &[u64]) {
        // SAFETY: as above.
        unsafe { avx2::or_acc(dst, src) }
    }

    #[inline]
    fn and_into(self, out: &mut [u64], a: &[u64], b: &[u64]) {
        // SAFETY: as above.
        unsafe { avx2::and_into(out, a, b) }
    }

    #[inline]
    fn cofactor_into(self, out: &mut [u64], x: &[u64], p: &[u64], full: &[u64]) {
        // SAFETY: as above.
        unsafe { avx2::cofactor_into(out, x, p, full) }
    }
}

// ---------------------------------------------------------------------------
// Portable 4-lane kernels
// ---------------------------------------------------------------------------

mod portable {
    //! `[u64; 4]` lane-unrolled kernels: branch-free reductions LLVM can
    //! keep in vector registers on any target.

    #[inline]
    pub(super) fn covers(a: &[u64], b: &[u64]) -> bool {
        let mut ca = a.chunks_exact(4);
        let mut cb = b.chunks_exact(4);
        let mut acc = 0u64;
        for (x, y) in (&mut ca).zip(&mut cb) {
            acc |= (y[0] & !x[0]) | (y[1] & !x[1]) | (y[2] & !x[2]) | (y[3] & !x[3]);
        }
        for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
            acc |= y & !x;
        }
        acc == 0
    }

    #[inline]
    pub(super) fn slices_eq(a: &[u64], b: &[u64]) -> bool {
        let mut ca = a.chunks_exact(4);
        let mut cb = b.chunks_exact(4);
        let mut acc = 0u64;
        for (x, y) in (&mut ca).zip(&mut cb) {
            acc |= (x[0] ^ y[0]) | (x[1] ^ y[1]) | (x[2] ^ y[2]) | (x[3] ^ y[3]);
        }
        for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
            acc |= x ^ y;
        }
        acc == 0 && a.len() == b.len()
    }

    #[inline]
    pub(super) fn is_zero(c: &[u64]) -> bool {
        fold_or(c) == 0
    }

    #[inline]
    pub(super) fn fold_or(c: &[u64]) -> u64 {
        let mut chunks = c.chunks_exact(4);
        let mut l = [0u64; 4];
        for x in &mut chunks {
            l[0] |= x[0];
            l[1] |= x[1];
            l[2] |= x[2];
            l[3] |= x[3];
        }
        let mut acc = (l[0] | l[1]) | (l[2] | l[3]);
        for &x in chunks.remainder() {
            acc |= x;
        }
        acc
    }

    #[inline]
    pub(super) fn or_acc(dst: &mut [u64], src: &[u64]) {
        let n = dst.len().min(src.len());
        let blocks = n / 4 * 4;
        let mut i = 0;
        while i < blocks {
            dst[i] |= src[i];
            dst[i + 1] |= src[i + 1];
            dst[i + 2] |= src[i + 2];
            dst[i + 3] |= src[i + 3];
            i += 4;
        }
        while i < n {
            dst[i] |= src[i];
            i += 1;
        }
    }

    #[inline]
    pub(super) fn and_into(out: &mut [u64], a: &[u64], b: &[u64]) {
        let n = out.len();
        let blocks = n / 4 * 4;
        let mut i = 0;
        while i < blocks {
            out[i] = a[i] & b[i];
            out[i + 1] = a[i + 1] & b[i + 1];
            out[i + 2] = a[i + 2] & b[i + 2];
            out[i + 3] = a[i + 3] & b[i + 3];
            i += 4;
        }
        while i < n {
            out[i] = a[i] & b[i];
            i += 1;
        }
    }

    #[inline]
    pub(super) fn cofactor_into(out: &mut [u64], x: &[u64], p: &[u64], full: &[u64]) {
        let n = out.len();
        let blocks = n / 4 * 4;
        let mut i = 0;
        while i < blocks {
            out[i] = (x[i] | !p[i]) & full[i];
            out[i + 1] = (x[i + 1] | !p[i + 1]) & full[i + 1];
            out[i + 2] = (x[i + 2] | !p[i + 2]) & full[i + 2];
            out[i + 3] = (x[i + 3] | !p[i + 3]) & full[i + 3];
            i += 4;
        }
        while i < n {
            out[i] = (x[i] | !p[i]) & full[i];
            i += 1;
        }
    }

    #[inline]
    pub(super) fn disjoint(a: &[u64], b: &[u64]) -> bool {
        let mut ca = a.chunks_exact(4);
        let mut cb = b.chunks_exact(4);
        let mut acc = 0u64;
        for (x, y) in (&mut ca).zip(&mut cb) {
            acc |= (x[0] & y[0]) | (x[1] & y[1]) | (x[2] & y[2]) | (x[3] & y[3]);
        }
        for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
            acc |= x & y;
        }
        acc == 0
    }

    #[inline]
    pub(super) fn union_into(dst: &mut [u64], src: &[u64]) {
        or_acc(dst, src);
    }

    #[inline]
    pub(super) fn intersect_into(dst: &mut [u64], src: &[u64]) {
        let n = dst.len().min(src.len());
        let blocks = n / 4 * 4;
        let mut i = 0;
        while i < blocks {
            dst[i] &= src[i];
            dst[i + 1] &= src[i + 1];
            dst[i + 2] &= src[i + 2];
            dst[i + 3] &= src[i + 3];
            i += 4;
        }
        while i < n {
            dst[i] &= src[i];
            i += 1;
        }
    }

    #[inline]
    pub(super) fn difference_into(dst: &mut [u64], src: &[u64]) {
        let n = dst.len().min(src.len());
        let blocks = n / 4 * 4;
        let mut i = 0;
        while i < blocks {
            dst[i] &= !src[i];
            dst[i + 1] &= !src[i + 1];
            dst[i + 2] &= !src[i + 2];
            dst[i + 3] &= !src[i + 3];
            i += 4;
        }
        while i < n {
            dst[i] &= !src[i];
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2 kernels
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! 256-bit kernels. Every function requires AVX2 (callers gate on
    //! [`super::avx2_active`]); loads are unaligned because cube offsets
    //! are stride-aligned, not 32-byte-aligned, at stride 2. Each kernel
    //! processes 4-word blocks, then a 2-word SSE block (the whole cube at
    //! the hot stride-2 rung), then at most one scalar tail word.

    use core::arch::x86_64::{
        _mm256_and_si256, _mm256_andnot_si256, _mm256_loadu_si256, _mm256_or_si256,
        _mm256_set1_epi64x, _mm256_setzero_si256, _mm256_storeu_si256, _mm256_testz_si256,
        _mm256_xor_si256, _mm_and_si128, _mm_andnot_si128, _mm_loadu_si128, _mm_storeu_si128,
        _mm_testz_si128, _mm_xor_si128,
    };

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn covers(a: &[u64], b: &[u64]) -> bool {
        let n = a.len().min(b.len());
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut i = 0usize;
        let mut acc = _mm256_setzero_si256();
        while i + 4 <= n {
            let va = _mm256_loadu_si256(ap.add(i).cast());
            let vb = _mm256_loadu_si256(bp.add(i).cast());
            acc = _mm256_or_si256(acc, _mm256_andnot_si256(va, vb));
            i += 4;
        }
        let mut ok = _mm256_testz_si256(acc, acc) == 1;
        if i + 2 <= n {
            let va = _mm_loadu_si128(ap.add(i).cast());
            let vb = _mm_loadu_si128(bp.add(i).cast());
            let r = _mm_andnot_si128(va, vb);
            ok &= _mm_testz_si128(r, r) == 1;
            i += 2;
        }
        if i < n {
            ok &= *bp.add(i) & !*ap.add(i) == 0;
        }
        ok
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn slices_eq(a: &[u64], b: &[u64]) -> bool {
        if a.len() != b.len() {
            return false;
        }
        let n = a.len();
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut i = 0usize;
        let mut acc = _mm256_setzero_si256();
        while i + 4 <= n {
            let va = _mm256_loadu_si256(ap.add(i).cast());
            let vb = _mm256_loadu_si256(bp.add(i).cast());
            acc = _mm256_or_si256(acc, _mm256_xor_si256(va, vb));
            i += 4;
        }
        let mut ok = _mm256_testz_si256(acc, acc) == 1;
        if i + 2 <= n {
            let va = _mm_loadu_si128(ap.add(i).cast());
            let vb = _mm_loadu_si128(bp.add(i).cast());
            let r = _mm_xor_si128(va, vb);
            ok &= _mm_testz_si128(r, r) == 1;
            i += 2;
        }
        if i < n {
            ok &= *ap.add(i) == *bp.add(i);
        }
        ok
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn is_zero(c: &[u64]) -> bool {
        fold_or(c) == 0
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fold_or(c: &[u64]) -> u64 {
        let n = c.len();
        let p = c.as_ptr();
        let mut i = 0usize;
        let mut acc = _mm256_setzero_si256();
        while i + 4 <= n {
            acc = _mm256_or_si256(acc, _mm256_loadu_si256(p.add(i).cast()));
            i += 4;
        }
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc);
        let mut out = (lanes[0] | lanes[1]) | (lanes[2] | lanes[3]);
        while i < n {
            out |= *p.add(i);
            i += 1;
        }
        out
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn or_acc(dst: &mut [u64], src: &[u64]) {
        let n = dst.len().min(src.len());
        let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
        let mut i = 0usize;
        while i + 4 <= n {
            let vd = _mm256_loadu_si256(dp.add(i).cast_const().cast());
            let vs = _mm256_loadu_si256(sp.add(i).cast());
            _mm256_storeu_si256(dp.add(i).cast(), _mm256_or_si256(vd, vs));
            i += 4;
        }
        while i < n {
            *dp.add(i) |= *sp.add(i);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn and_into(out: &mut [u64], a: &[u64], b: &[u64]) {
        let n = out.len();
        let (op, ap, bp) = (out.as_mut_ptr(), a.as_ptr(), b.as_ptr());
        let mut i = 0usize;
        while i + 4 <= n {
            let va = _mm256_loadu_si256(ap.add(i).cast());
            let vb = _mm256_loadu_si256(bp.add(i).cast());
            _mm256_storeu_si256(op.add(i).cast(), _mm256_and_si256(va, vb));
            i += 4;
        }
        if i + 2 <= n {
            let va = _mm_loadu_si128(ap.add(i).cast());
            let vb = _mm_loadu_si128(bp.add(i).cast());
            _mm_storeu_si128(op.add(i).cast(), _mm_and_si128(va, vb));
            i += 2;
        }
        while i < n {
            *op.add(i) = *ap.add(i) & *bp.add(i);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn cofactor_into(out: &mut [u64], x: &[u64], p: &[u64], full: &[u64]) {
        let n = out.len();
        let (op, xp, pp, fp) = (out.as_mut_ptr(), x.as_ptr(), p.as_ptr(), full.as_ptr());
        let ones = _mm256_set1_epi64x(-1);
        let mut i = 0usize;
        while i + 4 <= n {
            let vx = _mm256_loadu_si256(xp.add(i).cast());
            let vp = _mm256_loadu_si256(pp.add(i).cast());
            let vf = _mm256_loadu_si256(fp.add(i).cast());
            let not_p = _mm256_xor_si256(vp, ones);
            _mm256_storeu_si256(
                op.add(i).cast(),
                _mm256_and_si256(_mm256_or_si256(vx, not_p), vf),
            );
            i += 4;
        }
        while i < n {
            *op.add(i) = (*xp.add(i) | !*pp.add(i)) & *fp.add(i);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn disjoint(a: &[u64], b: &[u64]) -> bool {
        let n = a.len().min(b.len());
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut i = 0usize;
        let mut acc = _mm256_setzero_si256();
        while i + 4 <= n {
            let va = _mm256_loadu_si256(ap.add(i).cast());
            let vb = _mm256_loadu_si256(bp.add(i).cast());
            acc = _mm256_or_si256(acc, _mm256_and_si256(va, vb));
            i += 4;
        }
        let mut ok = _mm256_testz_si256(acc, acc) == 1;
        if i + 2 <= n {
            let va = _mm_loadu_si128(ap.add(i).cast());
            let vb = _mm_loadu_si128(bp.add(i).cast());
            let r = _mm_and_si128(va, vb);
            ok &= _mm_testz_si128(r, r) == 1;
            i += 2;
        }
        if i < n {
            ok &= *ap.add(i) & *bp.add(i) == 0;
        }
        ok
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn intersect_into(dst: &mut [u64], src: &[u64]) {
        let n = dst.len().min(src.len());
        let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
        let mut i = 0usize;
        while i + 4 <= n {
            let vd = _mm256_loadu_si256(dp.add(i).cast_const().cast());
            let vs = _mm256_loadu_si256(sp.add(i).cast());
            _mm256_storeu_si256(dp.add(i).cast(), _mm256_and_si256(vd, vs));
            i += 4;
        }
        while i < n {
            *dp.add(i) &= *sp.add(i);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn difference_into(dst: &mut [u64], src: &[u64]) {
        let n = dst.len().min(src.len());
        let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
        let mut i = 0usize;
        while i + 4 <= n {
            let vd = _mm256_loadu_si256(dp.add(i).cast_const().cast());
            let vs = _mm256_loadu_si256(sp.add(i).cast());
            _mm256_storeu_si256(dp.add(i).cast(), _mm256_andnot_si256(vs, vd));
            i += 4;
        }
        while i < n {
            *dp.add(i) &= !*sp.add(i);
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatched slice helpers (WordSet word-loops, refine mask checks)
// ---------------------------------------------------------------------------

/// Whether the Wide kernels should serve dispatched slice helpers on this
/// thread right now.
#[inline]
fn wide_selected() -> bool {
    selected_backend() == KernelBackend::Wide
}

/// `dst |= src` per word (shorter operand bounds the sweep), dispatched on
/// the selected backend.
pub fn union_into(dst: &mut [u64], src: &[u64]) {
    if wide_selected() {
        #[cfg(target_arch = "x86_64")]
        if avx2_active() {
            // SAFETY: gated on runtime AVX2 detection.
            unsafe { avx2::or_acc(dst, src) };
            return;
        }
        portable::union_into(dst, src);
        return;
    }
    for (a, b) in dst.iter_mut().zip(src) {
        *a |= b;
    }
}

/// `dst &= src` per word, dispatched on the selected backend.
pub fn intersect_into(dst: &mut [u64], src: &[u64]) {
    if wide_selected() {
        #[cfg(target_arch = "x86_64")]
        if avx2_active() {
            // SAFETY: gated on runtime AVX2 detection.
            unsafe { avx2::intersect_into(dst, src) };
            return;
        }
        portable::intersect_into(dst, src);
        return;
    }
    for (a, b) in dst.iter_mut().zip(src) {
        *a &= b;
    }
}

/// `dst &= !src` per word, dispatched on the selected backend.
pub fn difference_into(dst: &mut [u64], src: &[u64]) {
    if wide_selected() {
        #[cfg(target_arch = "x86_64")]
        if avx2_active() {
            // SAFETY: gated on runtime AVX2 detection.
            unsafe { avx2::difference_into(dst, src) };
            return;
        }
        portable::difference_into(dst, src);
        return;
    }
    for (a, b) in dst.iter_mut().zip(src) {
        *a &= !b;
    }
}

/// Whether `a & b == 0` everywhere (the shorter operand bounds the sweep),
/// dispatched on the selected backend.
pub fn disjoint(a: &[u64], b: &[u64]) -> bool {
    if wide_selected() {
        #[cfg(target_arch = "x86_64")]
        if avx2_active() {
            // SAFETY: gated on runtime AVX2 detection.
            return unsafe { avx2::disjoint(a, b) };
        }
        return portable::disjoint(a, b);
    }
    a.iter().zip(b).all(|(&x, &y)| x & y == 0)
}

// ---------------------------------------------------------------------------
// Masked-greedy cube-mask kernels (picola-core::refine)
// ---------------------------------------------------------------------------

/// ORs into `mask` its own copy shifted by `k` bit positions (`k` a power
/// of two below the mask width) — frees one cube dimension of a code-space
/// mask. `down` selects the shift direction: downward when the cube's codes
/// carry a 1 at the freed bit, upward when they carry a 0.
pub fn expand_mask(mask: &mut [u64], k: usize, down: bool) {
    if down {
        if k >= 64 {
            let wk = k / 64;
            for i in 0..mask.len() - wk {
                mask[i] |= mask[i + wk];
            }
        } else {
            for i in 0..mask.len() {
                let hi = if i + 1 < mask.len() { mask[i + 1] << (64 - k) } else { 0 };
                mask[i] |= (mask[i] >> k) | hi;
            }
        }
    } else if k >= 64 {
        let wk = k / 64;
        for i in (wk..mask.len()).rev() {
            mask[i] |= mask[i - wk];
        }
    } else {
        for i in (0..mask.len()).rev() {
            let lo = if i > 0 { mask[i - 1] >> (64 - k) } else { 0 };
            mask[i] |= (mask[i] << k) | lo;
        }
    }
}

/// The cube-mask state machine behind the refine loop's word-parallel
/// greedy: a current cube mask over the `2^nv` code space, a trial mask
/// grown bit by bit, a disjointness check against the forbidden-code words,
/// and a commit. One implementor per mask width class, so the single-word
/// and two-word specializations live in registers while the general form
/// works on slices — all three produce identical merge decisions.
pub trait MaskKernel {
    /// Resets both masks to the single code `seed`.
    fn seed(&mut self, seed: u32);
    /// Starts a trial from the current mask.
    fn begin(&mut self);
    /// Frees bit `b` of the trial cube; `down` when the cube's codes carry
    /// a 1 at `b` (the mirrored half lies below), else upward.
    fn grow(&mut self, b: u32, down: bool);
    /// Whether the trial mask avoids every forbidden code word.
    fn disjoint(&mut self, forbidden: &[u64]) -> bool;
    /// Accepts the trial as the new current mask.
    fn commit(&mut self);
}

/// Single-word code space (`nv ≤ 6`): both masks are one `u64` register.
#[derive(Debug, Default)]
pub struct Mask1 {
    cur: u64,
    trial: u64,
}

impl Mask1 {
    /// A fresh kernel (masks start empty; [`MaskKernel::seed`] initializes).
    pub fn new() -> Mask1 {
        Mask1::default()
    }
}

impl MaskKernel for Mask1 {
    #[inline]
    fn seed(&mut self, seed: u32) {
        self.cur = 1u64 << seed;
        self.trial = self.cur;
    }

    #[inline]
    fn begin(&mut self) {
        self.trial = self.cur;
    }

    #[inline]
    fn grow(&mut self, b: u32, down: bool) {
        if down {
            self.trial |= self.trial >> (1u64 << b);
        } else {
            self.trial |= self.trial << (1u64 << b);
        }
    }

    #[inline]
    fn disjoint(&mut self, forbidden: &[u64]) -> bool {
        self.trial & forbidden.first().copied().unwrap_or(0) == 0
    }

    #[inline]
    fn commit(&mut self) {
        self.cur = self.trial;
    }
}

/// Two-word code space (`nv == 7`): the masks are register pairs.
/// Shift-down folds high-word bits into the low word, shift-up the reverse;
/// each uses the *pre-expansion* partner word, exactly like the slice form.
#[derive(Debug, Default)]
pub struct Mask2 {
    cur: (u64, u64),
    trial: (u64, u64),
}

impl Mask2 {
    /// A fresh kernel (masks start empty; [`MaskKernel::seed`] initializes).
    pub fn new() -> Mask2 {
        Mask2::default()
    }
}

impl MaskKernel for Mask2 {
    #[inline]
    fn seed(&mut self, seed: u32) {
        self.cur = if seed < 64 {
            (1u64 << seed, 0u64)
        } else {
            (0u64, 1u64 << (seed - 64))
        };
        self.trial = self.cur;
    }

    #[inline]
    fn begin(&mut self) {
        self.trial = self.cur;
    }

    #[inline]
    fn grow(&mut self, b: u32, down: bool) {
        let (mut tlo, mut thi) = self.trial;
        let k = 1usize << b;
        if down {
            if k >= 64 {
                tlo |= thi;
            } else {
                tlo |= (tlo >> k) | (thi << (64 - k));
                thi |= thi >> k;
            }
        } else if k >= 64 {
            thi |= tlo;
        } else {
            thi |= (thi << k) | (tlo >> (64 - k));
            tlo |= tlo << k;
        }
        self.trial = (tlo, thi);
    }

    #[inline]
    fn disjoint(&mut self, forbidden: &[u64]) -> bool {
        let f0 = forbidden.first().copied().unwrap_or(0);
        let f1 = forbidden.get(1).copied().unwrap_or(0);
        self.trial.0 & f0 == 0 && self.trial.1 & f1 == 0
    }

    #[inline]
    fn commit(&mut self) {
        self.cur = self.trial;
    }
}

/// General multi-word code space (`nv ≥ 8`): the masks live in caller-owned
/// scratch slices and the disjointness check runs through the dispatched
/// wide kernels. The backend is resolved once at construction, not per
/// candidate.
#[derive(Debug)]
pub struct MaskN<'a> {
    cur: &'a mut Vec<u64>,
    trial: &'a mut Vec<u64>,
    words: usize,
    wide: bool,
}

impl<'a> MaskN<'a> {
    /// Wraps the two scratch buffers for a `words`-word code space.
    pub fn new(cur: &'a mut Vec<u64>, trial: &'a mut Vec<u64>, words: usize) -> MaskN<'a> {
        let wide = wide_selected();
        MaskN {
            cur,
            trial,
            words,
            wide,
        }
    }
}

impl MaskKernel for MaskN<'_> {
    #[inline]
    fn seed(&mut self, seed: u32) {
        self.cur.clear();
        self.cur.resize(self.words, 0);
        self.cur[seed as usize / 64] |= 1u64 << (seed % 64);
    }

    #[inline]
    fn begin(&mut self) {
        self.trial.clear();
        self.trial.extend_from_slice(self.cur);
    }

    #[inline]
    fn grow(&mut self, b: u32, down: bool) {
        expand_mask(self.trial, 1usize << b, down);
    }

    #[inline]
    fn disjoint(&mut self, forbidden: &[u64]) -> bool {
        if self.wide {
            #[cfg(target_arch = "x86_64")]
            if avx2_active() {
                // SAFETY: gated on runtime AVX2 detection.
                return unsafe { avx2::disjoint(self.trial, forbidden) };
            }
            return portable::disjoint(self.trial, forbidden);
        }
        self.trial.iter().zip(forbidden).all(|(&m, &f)| m & f == 0)
    }

    #[inline]
    fn commit(&mut self) {
        std::mem::swap(self.cur, self.trial);
    }
}

// ---------------------------------------------------------------------------
// 64-byte-aligned word buffers
// ---------------------------------------------------------------------------

/// One cache line of words — the allocation unit of [`AlignedWords`].
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(64))]
struct CacheLine([u64; 8]);

const LINE_WORDS: usize = 8;

/// A growable `u64` buffer whose backing allocation is always 64-byte
/// aligned (it is a `Vec` of `#[repr(align(64))]` cache lines under the
/// hood). This is the alignment contract of the flat engine's backing
/// stores: a cube at word offset 0 starts a cache line, so 1/2/4-word wide
/// loads from the buffer head never straddle one. Dereferences to `[u64]`,
/// so slice operations (indexing, `chunks_exact`, `copy_within`, sorting)
/// work unchanged; the `Vec`-like growth API below covers the rest.
#[derive(Clone, Default)]
pub struct AlignedWords {
    lines: Vec<CacheLine>,
    len: usize,
}

impl AlignedWords {
    /// An empty buffer (no allocation yet).
    pub fn new() -> AlignedWords {
        AlignedWords::default()
    }

    /// Current capacity in words.
    fn cap_words(&self) -> usize {
        self.lines.len() * LINE_WORDS
    }

    /// Ensures room for `additional` more words past `len`, zero-filling
    /// any newly allocated lines (growth is amortized via `Vec::resize`).
    fn grow_for(&mut self, additional: usize) {
        let need = self.len + additional;
        if need > self.cap_words() {
            self.lines.resize(need.div_ceil(LINE_WORDS), CacheLine::default());
        }
    }

    /// The initialized words as a slice.
    pub fn as_slice(&self) -> &[u64] {
        // SAFETY: `lines` owns `cap_words() >= len` initialized `u64`s
        // (`CacheLine` is `repr(C)` over `[u64; 8]`), and the 64-byte line
        // alignment more than satisfies `u64`'s.
        unsafe { std::slice::from_raw_parts(self.lines.as_ptr().cast::<u64>(), self.len) }
    }

    /// The initialized words as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [u64] {
        // SAFETY: as in `as_slice`, with unique access through `&mut self`.
        unsafe { std::slice::from_raw_parts_mut(self.lines.as_mut_ptr().cast::<u64>(), self.len) }
    }

    /// Appends one word.
    pub fn push(&mut self, x: u64) {
        self.grow_for(1);
        let i = self.len;
        self.len += 1;
        self.as_mut_slice()[i] = x;
    }

    /// Appends a word slice.
    pub fn extend_from_slice(&mut self, src: &[u64]) {
        self.grow_for(src.len());
        let start = self.len;
        self.len += src.len();
        self.as_mut_slice()[start..].copy_from_slice(src);
    }

    /// Resizes to `new_len` words, filling any new tail with `value`.
    pub fn resize(&mut self, new_len: usize, value: u64) {
        if new_len > self.len {
            self.grow_for(new_len - self.len);
            let start = self.len;
            self.len = new_len;
            self.as_mut_slice()[start..].fill(value);
        } else {
            self.len = new_len;
        }
    }

    /// Shortens to `len` words (no-op when already shorter).
    pub fn truncate(&mut self, len: usize) {
        if len < self.len {
            self.len = len;
        }
    }

    /// Empties the buffer, keeping the allocation.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Keeps only the words for which `f` returns `true`, preserving order.
    pub fn retain(&mut self, mut f: impl FnMut(&u64) -> bool) {
        let mut write = 0usize;
        for i in 0..self.len {
            let x = self.as_slice()[i];
            if f(&x) {
                self.as_mut_slice()[write] = x;
                write += 1;
            }
        }
        self.len = write;
    }
}

impl Deref for AlignedWords {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        self.as_slice()
    }
}

impl DerefMut for AlignedWords {
    fn deref_mut(&mut self) -> &mut [u64] {
        self.as_mut_slice()
    }
}

impl PartialEq for AlignedWords {
    fn eq(&self, other: &AlignedWords) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for AlignedWords {}

impl std::fmt::Debug for AlignedWords {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl From<&[u64]> for AlignedWords {
    fn from(src: &[u64]) -> AlignedWords {
        let mut w = AlignedWords::new();
        w.extend_from_slice(src);
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift word stream for kernel cross-checks.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        fn words(&mut self, n: usize) -> Vec<u64> {
            (0..n).map(|_| self.next()).collect()
        }
    }

    #[test]
    fn aligned_words_is_64_byte_aligned_and_vec_like() {
        let mut w = AlignedWords::new();
        assert!(w.is_empty());
        for i in 0..100u64 {
            w.push(i);
        }
        assert_eq!(w.len(), 100);
        assert_eq!(w.as_ptr() as usize % 64, 0);
        w.extend_from_slice(&[7, 8, 9]);
        assert_eq!(w[100..], [7, 8, 9]);
        w.truncate(10);
        assert_eq!(w.len(), 10);
        // a resize past a previous high-water mark zero-fills stale words
        w.resize(120, 0);
        assert!(w[10..].iter().all(|&x| x == 0));
        w.retain(|&x| x % 2 == 0);
        assert_eq!(&w[..5], &[0, 2, 4, 6, 8]);
        w.clear();
        assert!(w.is_empty());
        let c: AlignedWords = (&[1u64, 2, 3][..]).into();
        assert_eq!(c.as_slice(), &[1, 2, 3]);
        assert_eq!(c.clone(), c);
    }

    #[test]
    fn backend_override_wins_and_restores() {
        for backend in [KernelBackend::Scalar, KernelBackend::Wide] {
            let prev = set_backend_override(Some(backend));
            assert_eq!(selected_backend(), backend);
            set_backend_override(prev);
        }
    }

    /// Every backend's leaf kernels agree with the scalar reference on
    /// random slices across the 1/2/4/8-word strides plus odd lengths.
    #[test]
    fn wide_kernels_match_scalar_bit_for_bit() {
        fn check<K: Kern>(k: K) {
            let s = ScalarKern;
            let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
            for n in [1usize, 2, 3, 4, 5, 7, 8, 16, 33] {
                for case in 0..50 {
                    let a = rng.words(n);
                    let mut b = rng.words(n);
                    if case % 3 == 0 {
                        // force containment-ish and equality-ish cases
                        for (x, y) in b.iter_mut().zip(&a) {
                            *x &= y;
                        }
                    }
                    if case % 7 == 0 {
                        b.copy_from_slice(&a);
                    }
                    assert_eq!(k.covers(&a, &b), s.covers(&a, &b));
                    assert_eq!(k.slices_eq(&a, &b), s.slices_eq(&a, &b));
                    assert_eq!(k.is_zero(&a), s.is_zero(&a));
                    assert_eq!(k.fold_or(&a), s.fold_or(&a));
                    let p = rng.words(n);
                    let full = rng.words(n);
                    let mut out_k = vec![0u64; n];
                    let mut out_s = vec![0u64; n];
                    k.and_into(&mut out_k, &a, &b);
                    s.and_into(&mut out_s, &a, &b);
                    assert_eq!(out_k, out_s);
                    k.cofactor_into(&mut out_k, &a, &p, &full);
                    s.cofactor_into(&mut out_s, &a, &p, &full);
                    assert_eq!(out_k, out_s);
                    let mut acc_k = rng.words(n);
                    let mut acc_s = acc_k.clone();
                    k.or_acc(&mut acc_k, &b);
                    s.or_acc(&mut acc_s, &b);
                    assert_eq!(acc_k, acc_s);
                }
            }
        }
        check(PortableKern);
        #[cfg(target_arch = "x86_64")]
        if avx2_active() {
            check(Avx2Kern);
        }
    }

    #[test]
    fn dispatched_slice_helpers_match_plain_loops() {
        let mut rng = Rng(7);
        for backend in [KernelBackend::Scalar, KernelBackend::Wide] {
            let prev = set_backend_override(Some(backend));
            for n in [1usize, 2, 4, 5, 8, 13] {
                let a = rng.words(n);
                let b = rng.words(n);
                let mut u = a.clone();
                union_into(&mut u, &b);
                let mut i = a.clone();
                intersect_into(&mut i, &b);
                let mut d = a.clone();
                difference_into(&mut d, &b);
                for k in 0..n {
                    assert_eq!(u[k], a[k] | b[k]);
                    assert_eq!(i[k], a[k] & b[k]);
                    assert_eq!(d[k], a[k] & !b[k]);
                }
                assert_eq!(
                    disjoint(&a, &b),
                    a.iter().zip(&b).all(|(&x, &y)| x & y == 0)
                );
                assert!(disjoint(&a, &vec![0u64; n]));
            }
            set_backend_override(prev);
        }
    }

    /// All three mask kernels walk the same merge decisions; cross-check
    /// the register forms against the slice form on a shared script.
    #[test]
    fn mask_kernels_agree_on_a_merge_script() {
        let forbidden4: Vec<u64> = vec![0x8000_0000_0000_0001, 0, 0xff, 1 << 63];
        let run = |kernel: &mut dyn MaskKernel, forbidden: &[u64], nv: u32| {
            let mut decisions = Vec::new();
            for seed in [0u32, 3, (1 << nv) - 1] {
                kernel.seed(seed % (1 << nv.min(8)));
                for step in 0..nv {
                    kernel.begin();
                    kernel.grow(step, seed >> step & 1 == 1);
                    let ok = kernel.disjoint(forbidden);
                    decisions.push(ok);
                    if ok {
                        kernel.commit();
                    }
                }
            }
            decisions
        };
        // nv = 8 → 4 words: the slice kernel under both backends agrees
        let mut cur = Vec::new();
        let mut trial = Vec::new();
        let prev = set_backend_override(Some(KernelBackend::Scalar));
        let scalar = run(&mut MaskN::new(&mut cur, &mut trial, 4), &forbidden4, 8);
        set_backend_override(Some(KernelBackend::Wide));
        let mut cur2 = Vec::new();
        let mut trial2 = Vec::new();
        let wide = run(&mut MaskN::new(&mut cur2, &mut trial2, 4), &forbidden4, 8);
        set_backend_override(prev);
        assert_eq!(scalar, wide);
        // nv = 6 → Mask1 vs a 1-word MaskN
        let forbidden1 = vec![0x55u64];
        let m1 = run(&mut Mask1::new(), &forbidden1, 6);
        let mut cur3 = Vec::new();
        let mut trial3 = Vec::new();
        let mn1 = run(&mut MaskN::new(&mut cur3, &mut trial3, 1), &forbidden1, 6);
        assert_eq!(m1, mn1);
        // nv = 7 → Mask2 vs a 2-word MaskN
        let forbidden2 = vec![0x55u64, 0xaa00_0000_0000_0000];
        let m2 = run(&mut Mask2::new(), &forbidden2, 7);
        let mut cur4 = Vec::new();
        let mut trial4 = Vec::new();
        let mn2 = run(&mut MaskN::new(&mut cur4, &mut trial4, 2), &forbidden2, 7);
        assert_eq!(m2, mn2);
    }

    #[test]
    fn expand_mask_matches_explicit_enumeration() {
        // Freeing bit b of a seed mask must produce the union of the codes
        // with bit b in both polarities.
        for nv in [6usize, 7, 8] {
            let words = (1usize << nv).div_ceil(64);
            for seed in [0usize, 1, 5, (1 << nv) - 1] {
                for b in 0..nv {
                    let mut mask = vec![0u64; words];
                    mask[seed / 64] |= 1u64 << (seed % 64);
                    expand_mask(&mut mask, 1usize << b, seed >> b & 1 == 1);
                    let mut expect = vec![0u64; words];
                    for code in [seed & !(1 << b), seed | (1 << b)] {
                        expect[code / 64] |= 1u64 << (code % 64);
                    }
                    assert_eq!(mask, expect, "nv={nv} seed={seed} b={b}");
                }
            }
        }
    }
}
