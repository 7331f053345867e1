//! Flat cover kernels and the flat ESPRESSO engine — the library's one
//! minimizer.
//!
//! A `Vec<Cube>` cover gives every cube its own `Vec<u64>`; an ESPRESSO
//! pass over it clones, sorts, and rebuilds those vectors, so steady-state
//! minimization is dominated by allocator traffic. This module works on
//! flat word buffers instead:
//!
//! * Word-parallel cube kernels over a [`FlatDomain`] layout
//!   ([`cube_and_into`], [`cube_contains`], [`cube_distance`],
//!   [`cube_consensus_into`], [`cube_cofactor_into`]) that write into
//!   caller-owned scratch. Each is the body the engine itself runs.
//! * One flat ESPRESSO driver for **every** domain. A cube is a `&[u64]`
//!   chunk of stride `words()`, and the stride is threaded through a
//!   zero-sized `Stride` type parameter: the 1/2/4-word instantiations
//!   compile to register-blocked straight-line kernels, three-word domains
//!   are padded onto the 4-word rung, and only wider domains pay a counted
//!   loop. A one-word domain takes the 1-word rung whether its variables
//!   are binary or multi-valued. The whole-cube word operations
//!   (containment, OR, AND, the cofactor body) are the lane-unrolled loops
//!   of [`crate::simd`].
//!
//!   The driver runs the full ESPRESSO loop (expand / reduce / irredundant /
//!   essentials / last-gasp, with the unate-recursive tautology and
//!   complement underneath) over plain word slices drawn from a
//!   [`MinimizeScratch`] pool; after warm-up it performs no per-cube heap
//!   allocation.
//!
//! The engine has one meet test: [`FlatDomain`] keeps a per-word mask of
//! the two-part variables whose parts share a word, so a single popcount
//! per word of `a ∧ b` counts their empty literals, and only the remaining
//! variables walk their spans. On an all-binary one-word domain every
//! variable is such a pair, so nothing walks. Cofactoring, consensus,
//! essentials and [`cube_distance`] all use it. EXPAND reads the
//! ESPRESSO-II blocking matrix by column: for each part, one bitset over
//! the `m` off-set cubes that hold it. Testing or accepting a raise then
//! costs a few sweeps of ⌈m/64⌉ words, never a pass over the off-set cube
//! by cube. Every merge of the off-set complement is containment-free by
//! construction, so it closes with the stable part-count sort alone and
//! runs no scc pair loop. The cube sorts are stable counting sorts on part
//! count.
//!
//! The driver mirrors the legacy `Vec<Cube>` driver pass for pass: same
//! cube orderings (stable sorts on the same keys), same branch variables,
//! same budget ticks and [`crate::obs`] counters. [`flat_espresso_bounded`]
//! is therefore bit-identical to `picola_oracle::espresso_bounded` on *all*
//! domains — the differential tests in `tests/prop_flat_cover.rs` and
//! `tests/flat_oracle.rs` enforce exactly that. The legacy driver lives in
//! the dev-only `picola-oracle` crate as the independent oracle those
//! suites compare against; no release code links it.

use crate::budget::{Budget, Completion};
use crate::cover::Cover;
use crate::cube::Cube;
use crate::domain::Domain;
use crate::obs;
use crate::simd;

/// Tuning knobs of the ESPRESSO loop ([`flat_espresso_with`],
/// [`flat_espresso_bounded`]).
#[derive(Debug, Clone)]
pub struct MinimizeOptions {
    /// Upper bound on REDUCE/EXPAND/IRREDUNDANT iterations.
    pub max_iterations: usize,
    /// Extract essential primes once after the first EXPAND/IRREDUNDANT and
    /// treat them as don't-cares inside the loop (ESPRESSO's default).
    pub use_essentials: bool,
    /// Attempt LAST_GASP (maximal individual reduction + expansion) when
    /// the main loop stalls, re-entering the loop on success.
    pub use_last_gasp: bool,
    /// Verify (debug builds only) after every step that the cover still
    /// implements the function.
    pub check_invariants: bool,
}

impl Default for MinimizeOptions {
    fn default() -> Self {
        MinimizeOptions {
            max_iterations: 12,
            use_essentials: true,
            use_last_gasp: true,
            check_invariants: cfg!(debug_assertions),
        }
    }
}

// ---------------------------------------------------------------------------
// Flat layer: FlatDomain and the word-parallel kernels
// ---------------------------------------------------------------------------

/// Precomputed per-variable word/mask layout of a [`Domain`], flattened so
/// the word-parallel kernels never consult the `Domain` object (or allocate)
/// per operation.
#[derive(Debug, Clone)]
pub struct FlatDomain {
    words: usize,
    num_vars: usize,
    total_parts: usize,
    full: Vec<u64>,
    /// Per variable: (first word index, start offset into `masks`, number of
    /// words the variable's parts span).
    var_spans: Vec<(usize, usize, usize)>,
    /// Concatenated per-word bit masks for each variable's parts.
    masks: Vec<u64>,
    /// Per variable: global index of its first part.
    offsets: Vec<usize>,
    /// Per variable: number of parts.
    parts: Vec<usize>,
    /// Per word: the low part of every two-part variable whose two parts
    /// share that word — the popcount half of the meet test
    /// ([`FlatDomain::meet_empty_count`]).
    pair_lo: Vec<u64>,
    /// The variables the popcount test does not cover (more or fewer than
    /// two parts, or two parts in different words): they keep the span
    /// walk.
    walk_vars: Vec<usize>,
    /// Per part: the variable it belongs to.
    part_var: Vec<usize>,
}

impl FlatDomain {
    /// Flattens `dom` into word/mask form.
    pub fn new(dom: &Domain) -> FlatDomain {
        let words = dom.words();
        let full = dom.full_words().to_vec();
        let mut var_spans = Vec::with_capacity(dom.num_vars());
        let mut masks = Vec::new();
        let mut offsets = Vec::with_capacity(dom.num_vars());
        let mut parts = Vec::with_capacity(dom.num_vars());
        let mut pair_lo = vec![0u64; words];
        let mut walk_vars = Vec::new();
        let mut part_var = vec![0usize; dom.total_parts()];
        for v in 0..dom.num_vars() {
            let var = dom.var(v);
            let offset = var.offset();
            let last = offset + var.parts() - 1;
            let first_word = offset / 64;
            let last_word = last / 64;
            let start = masks.len();
            for w in first_word..=last_word {
                let mut m = 0u64;
                for p in var.part_range() {
                    if p / 64 == w {
                        m |= 1u64 << (p % 64);
                    }
                }
                masks.push(m);
            }
            var_spans.push((first_word, start, last_word - first_word + 1));
            offsets.push(offset);
            parts.push(var.parts());
            if var.parts() == 2 && first_word == last_word {
                pair_lo[first_word] |= 1u64 << (offset % 64);
            } else {
                walk_vars.push(v);
            }
            for p in var.part_range() {
                part_var[p] = v;
            }
        }
        FlatDomain {
            words,
            num_vars: dom.num_vars(),
            total_parts: dom.total_parts(),
            full,
            var_spans,
            masks,
            offsets,
            parts,
            pair_lo,
            walk_vars,
            part_var,
        }
    }

    /// Word stride of a cube in this domain.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Total number of parts across all variables.
    pub fn total_parts(&self) -> usize {
        self.total_parts
    }

    /// The full (universe) cube as a word slice.
    pub fn full(&self) -> &[u64] {
        &self.full
    }

    /// Whether variable `v`'s literal is empty in the *meet* of `a` and `b`
    /// (both given as word slices).
    pub(crate) fn meet_var_empty(&self, a: &[u64], b: &[u64], v: usize) -> bool {
        let (first, start, span) = self.var_spans[v];
        for k in 0..span {
            if a[first + k] & b[first + k] & self.masks[start + k] != 0 {
                return false;
            }
        }
        true
    }

    /// Per word of the meet `a ∧ b`: the low part of every popcount-tested
    /// two-part variable whose literal is empty there. A pair's literal is
    /// empty exactly when neither its low bit nor the bit above is set in
    /// the meet, which `!(m | m >> 1)` reads off for every pair at once.
    #[inline(always)]
    fn empty_pairs(&self, k: usize, m: u64) -> u64 {
        self.pair_lo[k] & !(m | m >> 1)
    }

    /// Number of variables whose literal is empty in the meet of `a` and
    /// `b` (the first `w` words of each): one popcount per word for the
    /// two-part variables, the span walk for the rest. This is the engine's
    /// one meet test; [`cube_distance`] is this function.
    #[inline(always)]
    pub(crate) fn meet_empty_count(&self, a: &[u64], b: &[u64], w: usize) -> usize {
        let (a, b) = (&a[..w], &b[..w]);
        let mut n = 0u32;
        for (k, (&x, &y)) in a.iter().zip(b).enumerate() {
            n += self.empty_pairs(k, x & y).count_ones();
        }
        n as usize
            + self
                .walk_vars
                .iter()
                .filter(|&&v| self.meet_var_empty(a, b, v))
                .count()
    }

    /// ORs `a ∨ b`, word by word, into `out` on the parts of every
    /// variable whose literal is empty in the meet `a ∧ b` (the first `w`
    /// words of each): consensus's union on its one conflicting variable.
    fn or_on_empty_vars(&self, a: &[u64], b: &[u64], out: &mut [u64], w: usize) {
        let (a, b) = (&a[..w], &b[..w]);
        for (k, (d, (&x, &y))) in out[..w].iter_mut().zip(a.iter().zip(b)).enumerate() {
            let e = self.empty_pairs(k, x & y);
            *d |= (x | y) & (e | e << 1);
        }
        for &v in &self.walk_vars {
            if self.meet_var_empty(a, b, v) {
                let (first, start, span) = self.var_spans[v];
                for k in 0..span {
                    out[first + k] |= (a[first + k] | b[first + k]) & self.masks[start + k];
                }
            }
        }
    }

    /// The cofactor of `a` with respect to `p` into `out` (the first `w`
    /// words of each), or `false`, leaving `out` unspecified, when `a` and
    /// `p` do not intersect. The one cofactor body: [`cube_cofactor_into`]
    /// and the engine's cofactor step both run it.
    #[inline(always)]
    fn cofactor_into(&self, a: &[u64], p: &[u64], out: &mut [u64], w: usize) -> bool {
        if self.meet_empty_count(a, p, w) != 0 {
            return false;
        }
        simd::cofactor_into(&mut out[..w], &a[..w], &p[..w], &self.full[..w]);
        true
    }

    /// The consensus of `a` and `b` into `out` (the first `w` words of
    /// each): the meet everywhere, the union on the one variable whose
    /// meet is empty. The caller has found the distance
    /// ([`FlatDomain::meet_empty_count`]) to be exactly 1. The one
    /// consensus body: [`cube_consensus_into`] and the engine's essentials
    /// both run it.
    #[inline(always)]
    fn consensus_into(&self, a: &[u64], b: &[u64], out: &mut [u64], w: usize) {
        simd::and_into(&mut out[..w], &a[..w], &b[..w]);
        self.or_on_empty_vars(a, b, out, w);
    }

    /// This layout with the cube stride padded with trailing zero words up
    /// to `words`. The variable spans and masks are untouched and
    /// the padded words of the pair mask are zero, so every masked
    /// operation ignores the padding, and the padded words of `full` are
    /// zero, so the cofactor body `(x | !p) & full` keeps them zero too —
    /// cubes that start zero-padded stay zero-padded through the whole
    /// engine. The scratch's layout cache keeps a three-word domain's
    /// layout padded this way, so the padded rung runs it on the
    /// monomorphized four-word rung without a copy per call.
    pub(crate) fn padded_to(mut self, words: usize) -> FlatDomain {
        debug_assert!(words >= self.words);
        self.full.resize(words, 0);
        self.pair_lo.resize(words, 0);
        self.words = words;
        self
    }
}

/// Whether the word-slice cube `c` is valid in `fd` (every variable literal
/// non-empty).
pub fn cube_is_valid(fd: &FlatDomain, c: &[u64]) -> bool {
    (0..fd.num_vars).all(|v| {
        let (first, start, span) = fd.var_spans[v];
        (0..span).any(|k| c[first + k] & fd.masks[start + k] != 0)
    })
}

/// Word-parallel meet: `out = a ∧ b`. All slices must share the domain's
/// stride.
pub fn cube_and_into(a: &[u64], b: &[u64], out: &mut [u64]) {
    simd::and_into(out, a, b);
}

/// Whether cube `a` contains (covers) cube `b`: every part of `b` is a part
/// of `a`.
pub fn cube_contains(a: &[u64], b: &[u64]) -> bool {
    simd::covers(a, b)
}

/// Number of variables whose literal is empty in the meet of `a` and `b` —
/// the classic cube distance, by the engine's popcount meet test.
pub fn cube_distance(fd: &FlatDomain, a: &[u64], b: &[u64]) -> usize {
    fd.meet_empty_count(a, b, fd.words)
}

/// Consensus of `a` and `b` into `out`. Returns `false` (leaving `out`
/// unspecified) when the distance is not exactly 1.
pub fn cube_consensus_into(fd: &FlatDomain, a: &[u64], b: &[u64], out: &mut [u64]) -> bool {
    if fd.meet_empty_count(a, b, fd.words) != 1 {
        return false;
    }
    fd.consensus_into(a, b, out, fd.words);
    true
}

/// Cofactor of `a` with respect to `p` into `out`. Returns `false` (leaving
/// `out` unspecified) when `a` and `p` do not intersect.
pub fn cube_cofactor_into(fd: &FlatDomain, a: &[u64], p: &[u64], out: &mut [u64]) -> bool {
    fd.cofactor_into(a, p, out, fd.words)
}

// ---------------------------------------------------------------------------
// Scratch pool
// ---------------------------------------------------------------------------

/// Reusable scratch for the flat minimization engine.
///
/// Holds a pool of word buffers plus the flag/order buffers the expand and
/// irredundant passes need. After the first minimization warms the pool,
/// later calls reuse its buffers: the engine allocates nothing per cube or
/// per recursion node. A call still makes a few fixed allocations (the
/// layout of a domain other than the last one, the unlimited budget
/// `flat_minimized_len` builds, the output [`Cover`] of
/// [`flat_espresso_bounded`]), and a larger cover may grow a pooled
/// buffer. One scratch must not be shared
/// across threads; every long-lived consumer (the evaluation cache, the
/// ENC baseline) owns its own.
#[derive(Debug, Default)]
pub struct MinimizeScratch {
    free: Vec<Vec<u64>>,
    pairs: Vec<(usize, usize)>,
    flags: Vec<bool>,
    /// EXPAND's non-full variables of the cube being raised.
    vars: Vec<usize>,
    /// EXPAND's part weights: per part, the uncovered cubes holding it.
    weights: Vec<usize>,
    /// The counting sort's per-chunk keys and bucket offsets.
    keys: Vec<usize>,
    buckets: Vec<usize>,
    /// The complement's per-node lists of branch results, one popped per
    /// recursion level and pushed back on return.
    lists: Vec<Vec<Vec<u64>>>,
    /// The last domain layout (padded to four words for a three-word
    /// domain), cached so back-to-back minimizations over one domain (the
    /// common shape: a search loop re-pricing covers) rebuild nothing.
    /// Keyed by the `Domain` handle; the comparison is an `Arc` pointer
    /// check in the hot case.
    layout: Option<(Domain, FlatDomain)>,
}

impl MinimizeScratch {
    /// A fresh (cold) scratch pool.
    pub fn new() -> MinimizeScratch {
        MinimizeScratch::default()
    }

    /// Takes a cleared word buffer from the pool (allocating only when the
    /// pool is empty).
    pub(crate) fn take(&mut self) -> Vec<u64> {
        match self.free.pop() {
            Some(mut v) => {
                v.clear();
                v
            }
            None => Vec::new(),
        }
    }

    /// Returns a buffer to the pool for reuse.
    pub(crate) fn give(&mut self, v: Vec<u64>) {
        self.free.push(v);
    }

    /// Takes the cached [`FlatDomain`] for `dom` (building it on a cold or
    /// mismatched cache), padded to four words for a three-word domain
    /// ([`run_padded`]). Pair with [`MinimizeScratch::put_layout`].
    fn take_layout(&mut self, dom: &Domain) -> FlatDomain {
        match self.layout.take() {
            Some((d, fd)) if d == *dom => fd,
            _ if dom.words() == 3 => FlatDomain::new(dom).padded_to(4),
            _ => FlatDomain::new(dom),
        }
    }

    /// Stores the layout back for the next minimization over `dom`.
    fn put_layout(&mut self, dom: &Domain, fd: FlatDomain) {
        self.layout = Some((dom.clone(), fd));
    }
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------
//
// One ESPRESSO loop for every domain. A cube is a `&[u64]` chunk of fixed
// stride `words()` inside pooled buffers; the stride is carried by the
// zero-sized `Stride` parameter below so the monomorphized 1/2/4-word
// engines see a compile-time constant (the word loops unroll into
// register-blocked straight-line code), three-word domains run padded on
// the 4-word engine, and wider domains share one dynamic-stride
// instantiation. Every kernel mirrors its legacy `Vec<Cube>` counterpart
// in `picola-oracle` exactly — orderings, branch variables, counters — so
// `flat_espresso_bounded` stays bit-identical to the oracle's
// `espresso_bounded`.

/// Compile-time-or-dynamic word stride of a cube.
trait Stride: Copy {
    /// Words per cube. `FixedW` implementations return a constant the
    /// optimizer propagates into every kernel loop.
    fn w(self) -> usize;
}

/// A stride known at compile time (the register-blocked specializations).
#[derive(Clone, Copy)]
struct FixedW<const W: usize>;

impl<const W: usize> Stride for FixedW<W> {
    #[inline(always)]
    fn w(self) -> usize {
        W
    }
}

/// A stride known only at run time (the counted loop of wider domains).
#[derive(Clone, Copy)]
struct DynW(usize);

impl Stride for DynW {
    #[inline(always)]
    fn w(self) -> usize {
        self.0
    }
}

/// Total parts admitted by a cube chunk (no bits exist above the domain's
/// parts, so the raw popcount is the part count).
#[inline]
fn chunk_parts(c: &[u64]) -> usize {
    c.iter().map(|&x| x.count_ones() as usize).sum()
}

/// Calls `f` with the index of every set bit of the cube words `c`, in
/// ascending order (bit `b` of word `k` is part `64k + b`).
#[inline]
fn for_each_part(c: impl IntoIterator<Item = u64>, mut f: impl FnMut(usize)) {
    for (k, mut x) in c.into_iter().enumerate() {
        while x != 0 {
            f(k * 64 + x.trailing_zeros() as usize);
            x &= x - 1;
        }
    }
}

/// Whether `c` appears verbatim in `list` (the chunk analogue of
/// `Vec::<Cube>::contains`, i.e. exact equality, as the legacy lift and
/// essential-removal steps use).
#[inline]
fn chunk_member(list: &[u64], c: &[u64], w: usize) -> bool {
    list.chunks_exact(w).any(|x| x == c)
}

/// Stable counting sort of the `w`-word chunks of `v` on their part count,
/// ascending or (`desc`) descending. A stable sort's permutation is unique
/// for given keys, so this is the legacy stable `sort_by_key` on the same
/// key, with the keys, buckets and output drawn from `scratch`.
fn sort_chunks_by_parts(v: &mut Vec<u64>, w: usize, desc: bool, scratch: &mut MinimizeScratch) {
    let n = v.len() / w;
    if n < 2 {
        return;
    }
    let mut keys = std::mem::take(&mut scratch.keys);
    keys.clear();
    let (mut lo, mut hi) = (usize::MAX, 0usize);
    for c in v.chunks_exact(w) {
        let mut k = chunk_parts(c);
        if desc {
            // reversed key: a larger part count sorts first
            k = usize::MAX - k;
        }
        lo = lo.min(k);
        hi = hi.max(k);
        keys.push(k);
    }
    let mut buckets = std::mem::take(&mut scratch.buckets);
    buckets.clear();
    buckets.resize(hi - lo + 2, 0);
    for &k in &keys {
        buckets[k - lo + 1] += 1;
    }
    for b in 1..buckets.len() {
        buckets[b] += buckets[b - 1];
    }
    let mut out = scratch.take();
    out.resize(n * w, 0);
    for (c, &k) in v.chunks_exact(w).zip(&keys) {
        let slot = &mut buckets[k - lo];
        out[*slot * w..(*slot + 1) * w].copy_from_slice(c);
        *slot += 1;
    }
    std::mem::swap(v, &mut out);
    scratch.give(out);
    scratch.buckets = buckets;
    scratch.keys = keys;
}

/// Expand's part order: descending weight, ties by ascending part index —
/// a strict total order, so any sort gives the identical sequence.
fn sort_expand_order(v: &mut [(usize, usize)]) {
    for i in 1..v.len() {
        let x = v[i];
        let mut j = i;
        while j > 0 && (x.1 > v[j - 1].1 || (x.1 == v[j - 1].1 && x.0 < v[j - 1].0)) {
            v[j] = v[j - 1];
            j -= 1;
        }
        v[j] = x;
    }
}

/// EXPAND's tallies over the blocking rows of the variables `vars` (row
/// `v` is `blocked[v * mw..]`): `one` gets the off-set cubes blocked on at
/// least one of them, `two` those blocked on at least two.
fn tally_blocked(blocked: &[u64], vars: &[usize], mw: usize, one: &mut [u64], two: &mut [u64]) {
    one.fill(0);
    two.fill(0);
    for &v in vars {
        let row = &blocked[v * mw..(v + 1) * mw];
        for ((o, t), &b) in one.iter_mut().zip(two.iter_mut()).zip(row) {
            *t |= *o & b;
            *o |= b;
        }
    }
}

/// Drops every chunk of `v` that appears verbatim in `list`, preserving
/// order (the chunk analogue of `f.retain(|c| !list.contains(c))`).
fn retain_chunks_not_in(v: &mut Vec<u64>, list: &[u64], w: usize) {
    let n = v.len() / w;
    let mut write = 0usize;
    for i in 0..n {
        if chunk_member(list, &v[i * w..(i + 1) * w], w) {
            continue;
        }
        v.copy_within(i * w..(i + 1) * w, write * w);
        write += 1;
    }
    v.truncate(write * w);
}

/// Context of the engine: the flattened domain and the stride
/// carrier. Copy-cheap (one reference plus a zero-sized or one-word
/// carrier), threaded by value through the passes; each `Stride`
/// monomorphizes its own engine, whose whole-cube word operations are the
/// lane-unrolled kernels of [`crate::simd`].
#[derive(Clone, Copy)]
struct MvCtx<'d, S: Stride> {
    fd: &'d FlatDomain,
    s: S,
}

impl<S: Stride> MvCtx<'_, S> {
    #[inline(always)]
    fn w(&self) -> usize {
        self.s.w()
    }

    #[inline(always)]
    fn full(&self) -> &[u64] {
        &self.fd.full
    }

    #[inline]
    fn is_full(&self, c: &[u64]) -> bool {
        simd::slices_eq(c, &self.fd.full)
    }

    #[inline]
    fn covers(&self, a: &[u64], b: &[u64]) -> bool {
        simd::covers(&a[..self.w()], &b[..self.w()])
    }

    /// The cube distance of `a` and `b` ([`cube_distance`] at this stride).
    #[inline]
    fn distance(&self, a: &[u64], b: &[u64]) -> usize {
        self.fd.meet_empty_count(a, b, self.w())
    }

    #[inline]
    fn var_is_full(&self, c: &[u64], v: usize) -> bool {
        let (first, start, span) = self.fd.var_spans[v];
        (0..span).all(|k| {
            c[first + k] & self.fd.masks[start + k] == self.fd.masks[start + k]
        })
    }

    #[inline]
    fn literal_cost_one(&self, c: &[u64]) -> usize {
        (0..self.fd.num_vars)
            .filter(|&v| !self.var_is_full(c, v))
            .count()
    }

    fn cost(&self, f: &[u64]) -> (usize, usize) {
        let w = self.w();
        (
            f.len() / w,
            f.chunks_exact(w).map(|c| self.literal_cost_one(c)).sum(),
        )
    }

    /// Appends the general cofactor of every cube of `cubes` with respect to
    /// cube `p` (dropping non-intersecting cubes) — the legacy
    /// `cofactor_list` / `Cover::cofactor`.
    fn cofactor_all(&self, cubes: &[u64], p: &[u64], out: &mut Vec<u64>) {
        let w = self.w();
        for x in cubes.chunks_exact(w) {
            let base = out.len();
            out.resize(base + w, 0);
            if !self.fd.cofactor_into(x, p, &mut out[base..], w) {
                out.truncate(base);
            }
        }
    }

    /// Appends the cofactor of every cube with respect to the part cube
    /// `(v, p)`. For a *valid* cube `c` the general cofactor by a part cube
    /// collapses: it exists iff `c` admits part `p` (every other variable's
    /// meet is `c`'s own non-empty literal), and the result is `c` with
    /// variable `v` raised to full (`c ∨ ¬pc` leaves other variables
    /// untouched because `¬pc` is empty there). All tautology/complement
    /// recursion inputs are valid — covers hold only valid cubes and
    /// cofactors of valid cubes are valid — so this is exact.
    fn cofactor_all_by_part(&self, cubes: &[u64], v: usize, p: usize, out: &mut Vec<u64>) {
        let w = self.w();
        let q = self.fd.offsets[v] + p;
        let (qw, qb) = (q / 64, 1u64 << (q % 64));
        let (first, start, span) = self.fd.var_spans[v];
        for c in cubes.chunks_exact(w) {
            debug_assert!(
                cube_is_valid(self.fd, c),
                "cofactor-by-part requires valid cubes"
            );
            if c[qw] & qb == 0 {
                continue;
            }
            let base = out.len();
            out.extend_from_slice(c);
            for k in 0..span {
                out[base + first + k] |= self.fd.masks[start + k];
            }
        }
    }

    /// Appends the consensus of `a` and `b` (caller guarantees distance
    /// exactly 1) — the legacy `Cube::consensus`.
    fn push_consensus(&self, a: &[u64], b: &[u64], out: &mut Vec<u64>) {
        let w = self.w();
        let base = out.len();
        out.resize(base + w, 0);
        self.fd.consensus_into(a, b, &mut out[base..], w);
    }

    /// In-place single-cube containment, mirroring [`Cover::scc`]: stable
    /// sort by descending part count, fold-OR word signature prefilter, then
    /// the full per-word containment sweep — counter for counter the legacy
    /// accounting.
    fn scc(&self, cubes: &mut Vec<u64>, scratch: &mut MinimizeScratch) {
        let w = self.w();
        sort_chunks_by_parts(cubes, w, true, scratch);
        let mut sigs = scratch.take();
        let n = cubes.len() / w;
        let mut pairs = 0u64;
        let mut prefilter_rejects = 0u64;
        let mut kept = 0usize;
        'outer: for i in 0..n {
            let sig = simd::fold_or(&cubes[i * w..(i + 1) * w]);
            // kept ≤ i, so the kept prefix and cube i are disjoint slices
            let (head, cur) = cubes.split_at(i * w);
            let cur = &cur[..w];
            for k in 0..kept {
                pairs += 1;
                if sig & !sigs[k] != 0 {
                    prefilter_rejects += 1;
                    continue;
                }
                if simd::covers(&head[k * w..(k + 1) * w], cur) {
                    continue 'outer; // an earlier kept cube covers this one
                }
            }
            cubes.copy_within(i * w..(i + 1) * w, kept * w);
            sigs.push(sig);
            kept += 1;
        }
        cubes.truncate(kept * w);
        scratch.give(sigs);
        obs::count(obs::Counter::SccPairs, pairs);
        obs::count(obs::Counter::SccPrefilterRejects, prefilter_rejects);
    }

    /// Most binate variable, with the legacy tie-break: highest non-full
    /// count, then the *fewest* parts, then first wins.
    fn most_binate(&self, cubes: &[u64]) -> Option<usize> {
        let w = self.w();
        let mut best: Option<(usize, usize, usize)> = None; // (count, parts, var)
        for v in 0..self.fd.num_vars {
            let count = cubes
                .chunks_exact(w)
                .filter(|c| !self.var_is_full(c, v))
                .count();
            if count == 0 {
                continue;
            }
            let parts = self.fd.parts[v];
            let better = match best {
                None => true,
                Some((bc, bp, _)) => count > bc || (count == bc && parts < bp),
            };
            if better {
                best = Some((count, parts, v));
            }
        }
        best.map(|(_, _, v)| v)
    }

    fn taut_rec(&self, cubes: &[u64], scratch: &mut MinimizeScratch) -> bool {
        let w = self.w();
        if cubes.chunks_exact(w).any(|c| self.is_full(c)) {
            return true;
        }
        if cubes.is_empty() {
            return false;
        }
        let mut acc = scratch.take();
        acc.resize(w, 0);
        let mut union_full = false;
        for c in cubes.chunks_exact(w) {
            simd::union_into(&mut acc, c);
            if simd::slices_eq(&acc, &self.fd.full) {
                union_full = true;
                break;
            }
        }
        scratch.give(acc);
        if !union_full {
            return false;
        }
        let Some(v) = self.most_binate(cubes) else {
            return false;
        };
        let mut branch = scratch.take();
        let mut taut = true;
        for p in 0..self.fd.parts[v] {
            branch.clear();
            self.cofactor_all_by_part(cubes, v, p, &mut branch);
            if !self.taut_rec(&branch, scratch) {
                taut = false;
                break;
            }
        }
        scratch.give(branch);
        taut
    }

    /// Complement of a single cube: one cube per non-full variable in
    /// variable order (full everywhere, the variable's admitted parts
    /// cleared). Always valid for a non-full variable, matching the legacy
    /// `is_valid` filter that never fires.
    fn cube_complement(&self, c: &[u64], out: &mut Vec<u64>) {
        let w = self.w();
        for v in 0..self.fd.num_vars {
            if self.var_is_full(c, v) {
                continue;
            }
            let base = out.len();
            out.extend_from_slice(&self.fd.full);
            let (first, start, span) = self.fd.var_spans[v];
            for k in 0..span {
                out[base + first + k] &= !(c[first + k] & self.fd.masks[start + k]);
            }
            debug_assert!(cube_is_valid(self.fd, &out[base..base + w]));
        }
    }

    /// Recursive complement, mirroring the legacy `compl_rec`: branch on the
    /// most binate variable, lift cubes common (verbatim) to every branch
    /// complement, narrow the rest back to their branch part, and sort the
    /// merge by descending part count. The merge is containment-free (the
    /// proof is at the sort), so no scc pair loop runs.
    fn compl_rec(&self, cubes: &[u64], out: &mut Vec<u64>, scratch: &mut MinimizeScratch) {
        debug_assert!(out.is_empty());
        let w = self.w();
        if cubes.is_empty() {
            out.extend_from_slice(&self.fd.full);
            return;
        }
        if cubes.chunks_exact(w).any(|c| self.is_full(c)) {
            return;
        }
        if cubes.len() == w {
            self.cube_complement(cubes, out);
            return;
        }
        let Some(v) = self.most_binate(cubes) else {
            return; // every cube full everywhere: complement is empty
        };
        let parts = self.fd.parts[v];
        let mut branch = scratch.take();
        let mut results = scratch.lists.pop().unwrap_or_default();
        for p in 0..parts {
            branch.clear();
            self.cofactor_all_by_part(cubes, v, p, &mut branch);
            let mut r = scratch.take();
            self.compl_rec(&branch, &mut r, scratch);
            results.push(r);
        }
        scratch.give(branch);
        let mut lifted = scratch.take();
        if let [first, rest @ ..] = results.as_slice() {
            for c in first.chunks_exact(w) {
                if rest.iter().all(|b| chunk_member(b, c, w)) {
                    lifted.extend_from_slice(c);
                }
            }
        }
        let (qfirst, qstart, qspan) = self.fd.var_spans[v];
        for (p, branch_out) in results.iter().enumerate() {
            let q = self.fd.offsets[v] + p;
            let (qw, qb) = (q / 64, 1u64 << (q % 64));
            for c in branch_out.chunks_exact(w) {
                if chunk_member(&lifted, c, w) {
                    continue;
                }
                // r = c ∧ part_cube(v, p): variable v narrowed to {p}, every
                // other variable untouched. c has v full (see the proof
                // below), so r is always valid.
                debug_assert!(c[qw] & qb != 0, "complement: branch cube lacks its part");
                let base = out.len();
                out.extend_from_slice(c);
                for k in 0..qspan {
                    out[base + qfirst + k] &= !self.fd.masks[qstart + k];
                }
                out[base + qw] |= qb;
            }
        }
        out.extend_from_slice(&lifted);
        // No cube of this merge contains another, so a closing scc pass could
        // only reorder it; the stable descending part-count sort is that
        // order.
        // * Each branch's input has v raised to full. The recursion never
        //   branches on a variable that every cube fills, and
        //   `cube_complement` skips full variables, so every cube of a
        //   branch result has v full.
        // * Base cases return containment-free lists (the full cube alone,
        //   or one cube per non-full variable), so by induction every merge
        //   does too.
        // * Cubes narrowed to parts p ≠ q are disjoint on v, and narrowing
        //   one branch's cubes to the same p keeps them containment-free.
        // * A lifted cube L has v full and a narrowed cube does not (a
        //   branching variable has at least two parts), so no narrowed cube
        //   holds L. If L held c ∧ {p}, it would hold c, and L and c are
        //   distinct cubes of branch p's containment-free result.
        // Covers hold only valid cubes and cofactors of valid cubes stay
        // valid, so this holds for every input.
        sort_chunks_by_parts(out, w, true, scratch);
        scratch.give(lifted);
        for r in results.drain(..) {
            scratch.give(r);
        }
        scratch.lists.push(results);
    }

    /// Whether the cover `f` covers the single cube `c` (tautology of the
    /// cofactor), mirroring the legacy `cover_covers_cube`.
    fn cover_covers_cube(&self, f: &[u64], c: &[u64], scratch: &mut MinimizeScratch) -> bool {
        let mut g = scratch.take();
        self.cofactor_all(f, c, &mut g);
        let taut = self.taut_rec(&g, scratch);
        scratch.give(g);
        taut
    }

    /// EXPAND, mirroring the legacy pass: cubes in ascending part count,
    /// each raised part by part in descending weight order (a part's weight
    /// is the number of uncovered cubes holding it), a raise kept when the
    /// cube still meets no off-set cube, and every uncovered cube the
    /// result covers marked covered.
    ///
    /// Legality comes from the ESPRESSO-II blocking matrix, read by column
    /// over the `m` off-set cubes: `cols[q]` holds the off-set cubes with
    /// part `q`. For each variable `v` the growing cube does not fill,
    /// `B_v` holds the off-set cubes whose meet with it is empty on `v` (a
    /// full variable blocks none), and `TWO` those blocked on two or more
    /// variables. Raising part `p` of variable `u` would make the cube meet
    /// an off-set cube exactly when one blocked on `u` alone holds `p`,
    /// that is when `B_u ∧ ¬TWO ∧ cols[p]` is non-empty; an accepted raise
    /// clears `cols[p]` from `B_u` and tallies `TWO` again. Every step
    /// sweeps ⌈m/64⌉ words. The weights are kept per part and lowered as
    /// cubes become covered. Decisions and order are those of a full
    /// off-set sweep per candidate part.
    fn expand(&self, f: &mut Vec<u64>, off: &[u64], scratch: &mut MinimizeScratch) {
        let w = self.w();
        let fd = self.fd;
        sort_chunks_by_parts(f, w, false, scratch);
        let n = f.len() / w;
        let m = off.len() / w;
        debug_assert!(m >= 1, "expand: empty off-set");
        let mw = m.div_ceil(64);
        // the bits of the last word of an m-bit set that name off-set cubes
        let tail = u64::MAX >> ((64 - m % 64) % 64);
        let mut cols = scratch.take();
        cols.resize(fd.total_parts * mw, 0);
        for (j, o) in off.chunks_exact(w).enumerate() {
            let (jw, jb) = (j / 64, 1u64 << (j % 64));
            for_each_part(o.iter().copied(), |q| cols[q * mw + jw] |= jb);
        }
        // row `i` of a table of m-bit sets: `cols` by part, `blocked` by
        // variable
        let row = |i: usize| i * mw..(i + 1) * mw;
        let mut covered = std::mem::take(&mut scratch.flags);
        covered.clear();
        covered.resize(n, false);
        let mut order = std::mem::take(&mut scratch.pairs);
        let mut weights = std::mem::take(&mut scratch.weights);
        weights.clear();
        weights.resize(fd.total_parts, 0);
        for c in f.chunks_exact(w) {
            for_each_part(c.iter().copied(), |p| weights[p] += 1);
        }
        let mut vars = std::mem::take(&mut scratch.vars);
        // B_v; only the rows of the raised cube's non-full variables are
        // written and read
        let mut blocked = scratch.take();
        blocked.resize(fd.num_vars * mw, 0);
        let mut one = scratch.take();
        one.resize(mw, 0);
        let mut two = scratch.take();
        two.resize(mw, 0);
        let mut result = scratch.take();
        let mut cand = scratch.take();
        for i in 0..n {
            if covered[i] {
                continue;
            }
            cand.clear();
            cand.extend_from_slice(&f[i * w..(i + 1) * w]);
            // Cube i holds none of the parts it orders, so the column
            // counts over the uncovered cubes are exactly the weights.
            order.clear();
            let free = cand.iter().zip(&fd.full).map(|(&c, &f)| !c & f);
            for_each_part(free, |p| order.push((p, weights[p])));
            sort_expand_order(&mut order);
            vars.clear();
            vars.extend((0..fd.num_vars).filter(|&v| !self.var_is_full(&cand, v)));
            for &v in &vars {
                let b = &mut blocked[row(v)];
                b.fill(0);
                let (first, start, span) = fd.var_spans[v];
                let lit = (0..span).map(|k| cand[first + k] & fd.masks[start + k]);
                for_each_part(lit, |q| {
                    let q = first * 64 + q;
                    b.iter_mut().zip(&cols[row(q)]).for_each(|(x, &c)| *x |= c);
                });
                b.iter_mut().for_each(|x| *x = !*x);
                b[mw - 1] &= tail;
            }
            tally_blocked(&blocked, &vars, mw, &mut one, &mut two);
            // the cube lies in ON ∪ DC and the off-set is its complement
            debug_assert!(
                one[..mw - 1].iter().all(|&x| x == u64::MAX) && one[mw - 1] == tail,
                "expand: cube meets the off-set"
            );
            for &(p, _) in order.iter() {
                let u = fd.part_var[p];
                let b = &mut blocked[row(u)];
                let pc = &cols[row(p)];
                if b.iter()
                    .zip(&two)
                    .zip(pc)
                    .any(|((&x, &t), &c)| x & !t & c != 0)
                {
                    continue;
                }
                cand[p / 64] |= 1u64 << (p % 64);
                b.iter_mut().zip(pc).for_each(|(x, &c)| *x &= !c);
                tally_blocked(&blocked, &vars, mw, &mut one, &mut two);
            }
            for j in 0..n {
                let fj = &f[j * w..(j + 1) * w];
                if j != i && !covered[j] && self.covers(&cand, fj) {
                    covered[j] = true;
                    for_each_part(fj.iter().copied(), |p| weights[p] -= 1);
                }
            }
            result.extend_from_slice(&cand);
        }
        std::mem::swap(f, &mut result);
        scratch.give(result);
        scratch.give(cand);
        scratch.give(two);
        scratch.give(one);
        scratch.give(blocked);
        scratch.give(cols);
        scratch.vars = vars;
        scratch.weights = weights;
        scratch.pairs = order;
        scratch.flags = covered;
    }

    fn reduce(&self, f: &mut Vec<u64>, dc: &[u64], scratch: &mut MinimizeScratch) {
        let w = self.w();
        sort_chunks_by_parts(f, w, true, scratch);
        let n = f.len() / w;
        let mut c = scratch.take(); // copy of the cube under reduction
        let mut rest = scratch.take();
        let mut g = scratch.take();
        let mut h = scratch.take();
        for i in 0..n {
            c.clear();
            c.extend_from_slice(&f[i * w..(i + 1) * w]);
            if simd::is_zero(&c) {
                // legacy: the complement of the (empty) cofactored rest is
                // the universe with no scc pass, and the re-reduced cube
                // stays invalid — counter-identical shortcut.
                continue;
            }
            rest.clear();
            for j in 0..n {
                if j == i {
                    continue;
                }
                let chunk = &f[j * w..(j + 1) * w];
                if chunk.iter().any(|&x| x != 0) {
                    rest.extend_from_slice(chunk);
                }
            }
            rest.extend_from_slice(dc);
            g.clear();
            self.cofactor_all(&rest, &c, &mut g);
            h.clear();
            self.compl_rec(&g, &mut h, scratch);
            let fi = &mut f[i * w..(i + 1) * w];
            fi.fill(0);
            for chunk in h.chunks_exact(w) {
                simd::union_into(fi, chunk);
            }
            for k in 0..w {
                fi[k] &= c[k];
            }
            // h empty (fully redundant cube) or an invalid shrink both mark
            // the slot empty, as in the legacy supercube/is_valid match.
            if !cube_is_valid(self.fd, fi) {
                fi.fill(0);
            }
        }
        let mut write = 0usize;
        for i in 0..n {
            if f[i * w..(i + 1) * w].iter().any(|&x| x != 0) {
                f.copy_within(i * w..(i + 1) * w, write * w);
                write += 1;
            }
        }
        f.truncate(write * w);
        scratch.give(h);
        scratch.give(g);
        scratch.give(rest);
        scratch.give(c);
    }

    fn irredundant(&self, f: &mut Vec<u64>, dc: &[u64], scratch: &mut MinimizeScratch) {
        let w = self.w();
        sort_chunks_by_parts(f, w, true, scratch);
        let n = f.len() / w;
        let mut keep = std::mem::take(&mut scratch.flags);
        keep.clear();
        keep.resize(n, true);
        let mut rest = scratch.take();
        for i in (0..n).rev() {
            rest.clear();
            for j in 0..n {
                if j != i && keep[j] {
                    rest.extend_from_slice(&f[j * w..(j + 1) * w]);
                }
            }
            rest.extend_from_slice(dc);
            if self.cover_covers_cube(&rest, &f[i * w..(i + 1) * w], scratch) {
                keep[i] = false;
            }
        }
        let mut write = 0usize;
        for (i, &kept) in keep.iter().enumerate() {
            if kept {
                f.copy_within(i * w..(i + 1) * w, write * w);
                write += 1;
            }
        }
        f.truncate(write * w);
        scratch.give(rest);
        scratch.flags = keep;
    }

    fn essentials(
        &self,
        f: &[u64],
        dc: &[u64],
        out: &mut Vec<u64>,
        scratch: &mut MinimizeScratch,
    ) {
        let w = self.w();
        let mut h = scratch.take();
        let mut hc = scratch.take();
        let n = f.len() / w;
        for i in 0..n {
            let c = &f[i * w..(i + 1) * w];
            h.clear();
            for j in 0..n {
                if j == i {
                    continue;
                }
                let g = &f[j * w..(j + 1) * w];
                match self.distance(g, c) {
                    0 => h.extend_from_slice(g),
                    1 => self.push_consensus(g, c, &mut h),
                    _ => {}
                }
            }
            for g in dc.chunks_exact(w) {
                match self.distance(g, c) {
                    0 => h.extend_from_slice(g),
                    1 => self.push_consensus(g, c, &mut h),
                    _ => {}
                }
            }
            hc.clear();
            self.cofactor_all(&h, c, &mut hc);
            if !self.taut_rec(&hc, scratch) {
                out.extend_from_slice(c);
            }
        }
        scratch.give(hc);
        scratch.give(h);
    }

    /// Last-gasp pass; replaces `f` and returns `true` when it found a
    /// strictly cheaper cover (mirrors the legacy `last_gasp`).
    fn gasp(
        &self,
        f: &mut Vec<u64>,
        dc: &[u64],
        off: &[u64],
        scratch: &mut MinimizeScratch,
    ) -> bool {
        let w = self.w();
        let n = f.len() / w;
        if n < 2 {
            return false;
        }
        let mut reduced = scratch.take();
        let mut rest = scratch.take();
        let mut g = scratch.take();
        let mut h = scratch.take();
        for i in 0..n {
            let c = &f[i * w..(i + 1) * w];
            rest.clear();
            for j in 0..n {
                if j != i {
                    rest.extend_from_slice(&f[j * w..(j + 1) * w]);
                }
            }
            rest.extend_from_slice(dc);
            g.clear();
            self.cofactor_all(&rest, c, &mut g);
            h.clear();
            self.compl_rec(&g, &mut h, scratch);
            if h.is_empty() {
                continue; // fully redundant: maximally reduced away
            }
            let base = reduced.len();
            reduced.resize(base + w, 0);
            for chunk in h.chunks_exact(w) {
                simd::union_into(&mut reduced[base..base + w], chunk);
            }
            for k in 0..w {
                reduced[base + k] &= c[k];
            }
            if !cube_is_valid(self.fd, &reduced[base..base + w]) {
                reduced.truncate(base);
            }
        }
        scratch.give(h);
        scratch.give(g);
        scratch.give(rest);
        if reduced.is_empty() {
            scratch.give(reduced);
            return false;
        }
        let mut expanded = scratch.take();
        expanded.extend_from_slice(&reduced);
        self.expand(&mut expanded, off, scratch);
        let mut useful = scratch.take();
        for p in expanded.chunks_exact(w) {
            if reduced
                .chunks_exact(w)
                .filter(|r| self.covers(p, r))
                .count()
                >= 2
            {
                useful.extend_from_slice(p);
            }
        }
        scratch.give(expanded);
        if useful.is_empty() {
            scratch.give(useful);
            scratch.give(reduced);
            return false;
        }
        let mut candidate = scratch.take();
        candidate.extend_from_slice(f);
        candidate.extend_from_slice(&useful);
        self.irredundant(&mut candidate, dc, scratch);
        let better = self.cost(&candidate) < self.cost(f);
        if better {
            std::mem::swap(f, &mut candidate);
        }
        scratch.give(candidate);
        scratch.give(useful);
        scratch.give(reduced);
        better
    }

    /// Whether `f` covers every cube of `g`.
    fn contains_all(&self, f: &[u64], g: &[u64], scratch: &mut MinimizeScratch) -> bool {
        g.chunks_exact(self.w())
            .all(|c| self.cover_covers_cube(f, c, scratch))
    }

    /// Debug helper mirroring the legacy `implements` invariant:
    /// `on ⊆ f ⊆ on ∪ dc`.
    fn implements(
        &self,
        f: &[u64],
        on: &[u64],
        dc: &[u64],
        scratch: &mut MinimizeScratch,
    ) -> bool {
        let mut upper = scratch.take();
        upper.extend_from_slice(on);
        upper.extend_from_slice(dc);
        let ok =
            self.contains_all(f, on, scratch) && self.contains_all(&upper, f, scratch);
        scratch.give(upper);
        ok
    }
}

/// The ESPRESSO driver: the full loop over fixed-stride cube chunks,
/// mirroring `picola_oracle::espresso_bounded` pass for pass: same span
/// (`"espresso"`), same `espresso.iter` budget ticks, same counter
/// increments, same cube orderings. Returns the minimized cover as a pool
/// buffer (the caller should [`MinimizeScratch::give`] it back) plus the
/// budget completion.
fn espresso_chunks<S: Stride>(
    ctx: MvCtx<'_, S>,
    on: &[u64],
    dc: &[u64],
    opts: &MinimizeOptions,
    budget: &Budget,
    scratch: &mut MinimizeScratch,
) -> (Vec<u64>, Completion) {
    let span = obs::current_or(budget.recorder()).span("espresso");
    let _cur = obs::enter(span.recorder());

    if on.is_empty() {
        return (scratch.take(), budget.completion());
    }
    if !budget.tick("espresso.iter", 1) {
        // mirror the legacy degraded path: the on-set scc'd, nothing more
        let mut f = scratch.take();
        f.extend_from_slice(on);
        ctx.scc(&mut f, scratch);
        return (f, budget.completion());
    }

    let mut on_dc = scratch.take();
    on_dc.extend_from_slice(on);
    on_dc.extend_from_slice(dc);
    let mut off = scratch.take();
    ctx.compl_rec(&on_dc, &mut off, scratch);
    scratch.give(on_dc);
    if off.is_empty() {
        scratch.give(off);
        let mut f = scratch.take();
        f.extend_from_slice(ctx.full());
        return (f, budget.completion());
    }

    let mut f = scratch.take();
    f.extend_from_slice(on);
    ctx.scc(&mut f, scratch);
    obs::count(obs::Counter::ExpandCalls, 1);
    ctx.expand(&mut f, &off, scratch);
    obs::count(obs::Counter::IrredundantCalls, 1);
    ctx.irredundant(&mut f, dc, scratch);
    if opts.check_invariants {
        debug_assert!(
            ctx.implements(&f, on, dc, scratch),
            "flat espresso: invariant lost after initial expand/irredundant"
        );
    }

    let mut ess = scratch.take();
    let mut dc_aug = scratch.take();
    if opts.use_essentials {
        ctx.essentials(&f, dc, &mut ess, scratch);
        retain_chunks_not_in(&mut f, &ess, ctx.w());
        dc_aug.extend_from_slice(dc);
        dc_aug.extend_from_slice(&ess);
    } else {
        dc_aug.extend_from_slice(dc);
    }
    ctx.scc(&mut dc_aug, scratch);

    let mut best = ctx.cost(&f);
    let mut iterations = 0usize;
    let mut candidate = scratch.take();
    'outer: loop {
        while iterations < opts.max_iterations {
            if !budget.tick("espresso.iter", 1) {
                break 'outer;
            }
            iterations += 1;
            obs::count(obs::Counter::EspressoIters, 1);
            if f.is_empty() {
                break 'outer;
            }
            candidate.clear();
            candidate.extend_from_slice(&f);
            obs::count(obs::Counter::ReduceCalls, 1);
            ctx.reduce(&mut candidate, &dc_aug, scratch);
            obs::count(obs::Counter::ExpandCalls, 1);
            ctx.expand(&mut candidate, &off, scratch);
            obs::count(obs::Counter::IrredundantCalls, 1);
            ctx.irredundant(&mut candidate, &dc_aug, scratch);
            let c = ctx.cost(&candidate);
            if c < best {
                best = c;
                std::mem::swap(&mut f, &mut candidate);
            } else {
                break;
            }
        }
        if !opts.use_last_gasp || iterations >= opts.max_iterations || budget.is_exhausted() {
            break;
        }
        if !ctx.gasp(&mut f, &dc_aug, &off, scratch) {
            break;
        }
        best = ctx.cost(&f);
    }
    let _ = best;

    f.extend_from_slice(&ess);
    ctx.scc(&mut f, scratch);
    if opts.check_invariants {
        debug_assert!(
            ctx.implements(&f, on, dc, scratch),
            "flat espresso: result does not implement the function"
        );
    }
    scratch.give(candidate);
    scratch.give(dc_aug);
    scratch.give(ess);
    scratch.give(off);
    (f, budget.completion())
}

/// Runs the engine at the rung of the domain's true stride `words`: the
/// monomorphized 1/2/4-word rungs, three-word domains padded onto the
/// 4-word rung ([`run_padded`]; `fd` is then the padded layout), and the
/// dynamic-stride rung for wider domains.
fn run_stride(
    fd: &FlatDomain,
    words: usize,
    on: &[u64],
    dc: &[u64],
    opts: &MinimizeOptions,
    budget: &Budget,
    scratch: &mut MinimizeScratch,
) -> (Vec<u64>, Completion) {
    match words {
        1 => espresso_chunks(MvCtx { fd, s: FixedW::<1> }, on, dc, opts, budget, scratch),
        2 => espresso_chunks(MvCtx { fd, s: FixedW::<2> }, on, dc, opts, budget, scratch),
        3 => run_padded(fd, on, dc, opts, budget, scratch),
        4 => espresso_chunks(MvCtx { fd, s: FixedW::<4> }, on, dc, opts, budget, scratch),
        w => espresso_chunks(MvCtx { fd, s: DynW(w) }, on, dc, opts, budget, scratch),
    }
}

/// The padded rung: a three-word domain runs on the monomorphized 4-word
/// rung with a zero padding word per cube, so every word kernel is one
/// straight-line 4-lane block instead of a runtime-length loop. `fd` is
/// the layout padded to four words ([`FlatDomain::padded_to`]), which
/// guarantees the padding never influences a result. The padding is
/// stripped again before returning, so callers only ever see the domain's
/// true stride.
fn run_padded(
    fd: &FlatDomain,
    on_w: &[u64],
    dc_w: &[u64],
    opts: &MinimizeOptions,
    budget: &Budget,
    scratch: &mut MinimizeScratch,
) -> (Vec<u64>, Completion) {
    debug_assert_eq!(fd.words(), 4, "padded rung: layout not padded");
    let mut on_p = scratch.take();
    pad_stride(on_w, 3, 4, &mut on_p);
    let mut dc_p = scratch.take();
    pad_stride(dc_w, 3, 4, &mut dc_p);
    let ctx = MvCtx { fd, s: FixedW::<4> };
    let (fp, completion) = espresso_chunks(ctx, &on_p, &dc_p, opts, budget, scratch);
    let mut f = scratch.take();
    unpad_stride(&fp, 4, 3, &mut f);
    scratch.give(fp);
    scratch.give(dc_p);
    scratch.give(on_p);
    (f, completion)
}

/// Re-strides `src` (cubes of `from` words) into `out` at `to` words per
/// cube, zero-filling the new trailing words.
fn pad_stride(src: &[u64], from: usize, to: usize, out: &mut Vec<u64>) {
    debug_assert!(out.is_empty() && from <= to);
    let cubes = src.len() / from;
    out.resize(cubes * to, 0);
    let dst = out.as_mut_slice();
    for (i, c) in src.chunks_exact(from).enumerate() {
        dst[i * to..i * to + from].copy_from_slice(c);
    }
}

/// Inverse of [`pad_stride`]: drops each cube's trailing padding words
/// (which the engine provably kept zero).
fn unpad_stride(src: &[u64], from: usize, to: usize, out: &mut Vec<u64>) {
    debug_assert!(out.is_empty() && to <= from);
    for c in src.chunks_exact(from) {
        debug_assert!(c[to..].iter().all(|&x| x == 0), "padding word disturbed");
        out.extend_from_slice(&c[..to]);
    }
}

/// Runs a word-form minimization over `dom` on the engine at the domain's
/// stride rung ([`run_stride`]), with the layout cached in `scratch`.
/// Total — every domain is handled.
fn run_words(
    dom: &Domain,
    on_w: &[u64],
    dc_w: &[u64],
    opts: &MinimizeOptions,
    budget: &Budget,
    scratch: &mut MinimizeScratch,
) -> (Vec<u64>, Completion) {
    let fd = scratch.take_layout(dom);
    let out = run_stride(&fd, dom.words(), on_w, dc_w, opts, budget, scratch);
    scratch.put_layout(dom, fd);
    out
}

/// Minimized cube count of `(on, dc)` on the flat engine — the word-form
/// fast path behind [`crate::cache::MinimizeCache`], skipping the `Cover`
/// rebuild of [`flat_espresso_bounded`] since only the length is needed.
pub(crate) fn flat_minimized_len(on: &Cover, dc: &Cover, scratch: &mut MinimizeScratch) -> usize {
    let dom = on.domain();
    let mut on_w = scratch.take();
    cover_to_words(on, &mut on_w);
    let mut dc_w = scratch.take();
    cover_to_words(dc, &mut dc_w);
    let (f, _) = run_words(
        dom,
        &on_w,
        &dc_w,
        &MinimizeOptions::default(),
        &Budget::unlimited(),
        scratch,
    );
    let n = f.len() / dom.words();
    scratch.give(f);
    scratch.give(dc_w);
    scratch.give(on_w);
    n
}

/// Copies a cover's cubes into a flat word buffer of the domain's stride.
pub(crate) fn cover_to_words(cover: &Cover, out: &mut Vec<u64>) {
    debug_assert!(out.is_empty());
    for c in cover.iter() {
        out.extend_from_slice(c.words());
    }
}

fn words_to_cover(dom: &Domain, words: &[u64]) -> Cover {
    Cover::from_cubes(
        dom,
        words
            .chunks_exact(dom.words())
            .map(|c| Cube::from_raw_words(c.to_vec())),
    )
}

/// ESPRESSO under a budget on the flat engine, for **every** domain: the
/// one driver at the stride rung of the domain's cube width. Bit-identical
/// to the legacy `picola_oracle::espresso_bounded` in all cases.
///
/// The returned cover always implements `(on, dc)` — even under immediate
/// exhaustion the on-set itself (made single-cube-containment-free) is
/// returned — so degradation costs quality, never correctness. The second
/// component is [`Budget::completion`] as of return.
pub fn flat_espresso_bounded(
    on: &Cover,
    dc: &Cover,
    opts: &MinimizeOptions,
    budget: &Budget,
    scratch: &mut MinimizeScratch,
) -> (Cover, Completion) {
    let dom = on.domain();
    assert_eq!(dom, dc.domain(), "espresso: domain mismatch");
    let mut on_w = scratch.take();
    cover_to_words(on, &mut on_w);
    let mut dc_w = scratch.take();
    cover_to_words(dc, &mut dc_w);
    let (fw, completion) = run_words(dom, &on_w, &dc_w, opts, budget, scratch);
    let cover = words_to_cover(dom, &fw);
    scratch.give(fw);
    scratch.give(dc_w);
    scratch.give(on_w);
    (cover, completion)
}

/// [`flat_espresso_bounded`] with default options, an unlimited budget, and
/// a one-shot scratch.
///
/// # Examples
///
/// ```
/// use picola_logic::{flat_espresso, Cover, Domain};
///
/// let dom = Domain::binary(3);
/// let on = Cover::parse(&dom, "110 111 011");
/// let min = flat_espresso(&on, &Cover::empty(&dom));
/// assert_eq!(min.len(), 2); // 11- and -11
/// ```
pub fn flat_espresso(on: &Cover, dc: &Cover) -> Cover {
    flat_espresso_with(on, dc, &MinimizeOptions::default())
}

/// [`flat_espresso_bounded`] with an unlimited budget and a one-shot
/// scratch.
pub fn flat_espresso_with(on: &Cover, dc: &Cover, opts: &MinimizeOptions) -> Cover {
    let mut scratch = MinimizeScratch::new();
    flat_espresso_bounded(on, dc, opts, &Budget::unlimited(), &mut scratch).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::Cover;
    use crate::cube::Cube;
    use crate::domain::Domain;

    fn cover_from_codes(dom: &Domain, nv: usize, codes: &[u32]) -> Cover {
        let mut c = Cover::empty(dom);
        for &code in codes {
            let mut cube = Cube::full(dom);
            for v in 0..nv {
                cube.restrict_binary(dom, v, code >> v & 1 != 0);
            }
            c.push(cube);
        }
        c
    }

    #[test]
    fn generic_kernels_match_cube_ops() {
        let dom = Domain::binary(3);
        let fd = FlatDomain::new(&dom);
        let mut a = Cube::full(&dom);
        a.restrict_binary(&dom, 0, true);
        let mut b = Cube::full(&dom);
        b.restrict_binary(&dom, 0, false);
        assert!(cube_is_valid(&fd, a.words()));
        assert_eq!(
            cube_distance(&fd, a.words(), b.words()),
            a.distance(&b, &dom)
        );
        let mut out = vec![0u64; fd.words()];
        assert!(cube_consensus_into(&fd, a.words(), b.words(), &mut out));
        let cons = a.consensus(&b, &dom).expect("distance 1");
        assert_eq!(out.as_slice(), cons.words());
    }

    /// The popcount meet test and consensus's union on the empty variables
    /// against the per-variable span walk: two-part variables inside a
    /// word, two-part variables straddling a word boundary (parts 63–64 and
    /// 127–128), and the three-word layout the padded rung lifts to four
    /// words.
    #[test]
    fn popcount_meet_test_matches_the_per_variable_walk() {
        use crate::domain::DomainBuilder;
        let domains = [
            DomainBuilder::new()
                .multi("s", 70)
                .binary("a")
                .multi("t", 60)
                .build(),
            DomainBuilder::new()
                .multi("s", 63)
                .binary("a")
                .binaries("x", 20)
                .multi("t", 5)
                .build(),
            DomainBuilder::new().multi("s", 9).binaries("x", 60).build(),
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut straddling = 0;
        for dom in &domains {
            let fd = FlatDomain::new(dom);
            let w = fd.words();
            let padded = fd.clone().padded_to(w.next_power_of_two());
            straddling += fd.walk_vars.iter().filter(|&&v| fd.parts[v] == 2).count();
            for case in 0..400 {
                // dense cubes (mostly distance 0–2) and sparse ones
                let mut cube = || -> Vec<u64> {
                    fd.full()
                        .iter()
                        .map(|&f| {
                            let holes = if case % 2 == 0 {
                                next() & next() & next()
                            } else {
                                next()
                            };
                            f & !holes
                        })
                        .collect()
                };
                let a = cube();
                let b = if case % 5 == 0 { a.clone() } else { cube() };
                let empty: Vec<usize> = (0..fd.num_vars())
                    .filter(|&v| fd.meet_var_empty(&a, &b, v))
                    .collect();
                assert_eq!(cube_distance(&fd, &a, &b), empty.len());
                let mut want = vec![0u64; w];
                for &v in &empty {
                    let (first, start, span) = fd.var_spans[v];
                    for k in 0..span {
                        want[first + k] |= (a[first + k] | b[first + k]) & fd.masks[start + k];
                    }
                }
                let mut got = vec![0u64; w];
                fd.or_on_empty_vars(&a, &b, &mut got, w);
                assert_eq!(got, want);

                let pad = |c: &[u64]| {
                    let mut c = c.to_vec();
                    c.resize(padded.words(), 0);
                    c
                };
                let (ap, bp) = (pad(&a), pad(&b));
                assert_eq!(
                    padded.meet_empty_count(&ap, &bp, padded.words()),
                    empty.len()
                );
            }
        }
        assert_eq!(straddling, 3, "the corpus must hold word-straddling pairs");
    }

    #[test]
    fn counting_sort_is_the_stable_sort_by_part_count() {
        let mut scratch = MinimizeScratch::new();
        let mut state = 7u64;
        for n in [0usize, 1, 2, 5, 40] {
            for w in [1usize, 2, 3] {
                let chunks: Vec<Vec<u64>> = (0..n)
                    .map(|_| {
                        (0..w)
                            .map(|_| {
                                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                                state >> (state % 61)
                            })
                            .collect()
                    })
                    .collect();
                for desc in [false, true] {
                    let mut want = chunks.clone();
                    if desc {
                        want.sort_by_key(|c| std::cmp::Reverse(chunk_parts(c)));
                    } else {
                        want.sort_by_key(|c| chunk_parts(c));
                    }
                    let mut v = chunks.concat();
                    sort_chunks_by_parts(&mut v, w, desc, &mut scratch);
                    assert_eq!(
                        v.as_slice(),
                        want.concat().as_slice(),
                        "n={n} w={w} desc={desc}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_on_set_minimizes_to_empty() {
        let dom = Domain::binary(2);
        let on = Cover::empty(&dom);
        let dc = Cover::empty(&dom);
        assert!(flat_espresso(&on, &dc).is_empty());
    }

    #[test]
    fn universe_collapses_to_single_full_cube() {
        let dom = Domain::binary(2);
        let on = cover_from_codes(&dom, 2, &[0, 1, 2, 3]);
        let dc = Cover::empty(&dom);
        let flat = flat_espresso(&on, &dc);
        assert_eq!(flat.len(), 1);
        assert!(flat.has_full_cube());
    }
}
