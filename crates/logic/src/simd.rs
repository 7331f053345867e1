//! Lane-unrolled word kernels for the flat engine and the bitset layer.
//!
//! The flat ESPRESSO engine reduces every cover operation to loops over
//! contiguous `u64` cube chunks of a fixed stride. This module holds its
//! whole-cube word kernels — containment, equality, the zero test, the
//! OR-fold, OR, AND and the cofactor body — plus the slice helpers behind
//! [`crate::WordSet`] and the masked greedy in `picola-core::refine`.
//!
//! Each operation has one definition: a loop unrolled over 4-lane
//! (`[u64; 4]`) blocks with a word-at-a-time remainder. The blocks are
//! branch-free reductions that LLVM keeps in vector registers on any
//! target, so there are no intrinsics, no run-time feature detection and
//! no `unsafe`. On the flat engine's monomorphized 1/2/4-word rungs the
//! cube length is a compile-time constant and the loops unroll into
//! straight-line code.
//!
//! The kernels sweep the common prefix of their operands: the shorter
//! operand bounds the sweep, also when the lengths fall on different sides
//! of a 4-lane block (equality additionally requires equal lengths). Each
//! is a pure function of its word inputs. Loop structure, cube orderings,
//! budget ticks and [`crate::obs`] counters stay in the engine, and the
//! per-variable meet test (`FlatDomain`'s popcount test) is not a word
//! kernel at all.

// ---------------------------------------------------------------------------
// Whole-cube kernels (the flat engine)
// ---------------------------------------------------------------------------

/// Whether cube `a` contains (covers) cube `b`: `b & !a == 0` per word.
#[inline]
pub(crate) fn covers(a: &[u64], b: &[u64]) -> bool {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
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

/// Exact word equality of two cubes.
#[inline]
pub(crate) fn slices_eq(a: &[u64], b: &[u64]) -> bool {
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

/// Whether every word of `c` is zero.
#[inline]
pub(crate) fn is_zero(c: &[u64]) -> bool {
    fold_or(c) == 0
}

/// OR-fold of all words — the scc signature.
#[inline]
pub(crate) fn fold_or(c: &[u64]) -> u64 {
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

/// `out = a & b` per word (the cube meet).
#[inline]
pub(crate) fn and_into(out: &mut [u64], a: &[u64], b: &[u64]) {
    let n = out.len().min(a.len()).min(b.len());
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

/// The general cofactor body: `out = (x | !p) & full` per word.
#[inline]
pub(crate) fn cofactor_into(out: &mut [u64], x: &[u64], p: &[u64], full: &[u64]) {
    let n = out.len().min(x.len()).min(p.len()).min(full.len());
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

// ---------------------------------------------------------------------------
// Slice helpers (WordSet word loops, refine mask checks, cube OR)
// ---------------------------------------------------------------------------

/// `dst |= src` per word.
#[inline]
pub(crate) fn union_into(dst: &mut [u64], src: &[u64]) {
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

/// `dst &= src` per word.
#[inline]
pub(crate) fn intersect_into(dst: &mut [u64], src: &[u64]) {
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

/// `dst &= !src` per word.
#[inline]
pub(crate) fn difference_into(dst: &mut [u64], src: &[u64]) {
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

/// Whether `a & b == 0` in every word. Public for refine's masked greedy
/// in `picola-core`.
#[inline]
pub fn disjoint(a: &[u64], b: &[u64]) -> bool {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
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
/// scratch slices and the disjointness check is the lane-unrolled
/// [`disjoint`].
#[derive(Debug)]
pub struct MaskN<'a> {
    cur: &'a mut Vec<u64>,
    trial: &'a mut Vec<u64>,
    words: usize,
}

impl<'a> MaskN<'a> {
    /// Wraps the two scratch buffers for a `words`-word code space.
    pub fn new(cur: &'a mut Vec<u64>, trial: &'a mut Vec<u64>, words: usize) -> MaskN<'a> {
        MaskN { cur, trial, words }
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
        disjoint(self.trial, forbidden)
    }

    #[inline]
    fn commit(&mut self) {
        std::mem::swap(self.cur, self.trial);
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

    /// Each whole-cube kernel against its plain word-loop expression on
    /// random slices, at widths that take every lane-block count and every
    /// remainder length.
    #[test]
    fn cube_kernels_match_plain_loops() {
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
                assert_eq!(covers(&a, &b), a.iter().zip(&b).all(|(&x, &y)| y & !x == 0));
                assert_eq!(slices_eq(&a, &b), a == b);
                assert!(!slices_eq(&a, &a[..n - 1]));
                assert_eq!(is_zero(&a), a.iter().all(|&x| x == 0));
                assert!(is_zero(&vec![0u64; n]));
                assert_eq!(fold_or(&a), a.iter().fold(0u64, |acc, &x| acc | x));
                let p = rng.words(n);
                let full = rng.words(n);
                let mut out = vec![0u64; n];
                and_into(&mut out, &a, &b);
                for k in 0..n {
                    assert_eq!(out[k], a[k] & b[k]);
                }
                cofactor_into(&mut out, &a, &p, &full);
                for k in 0..n {
                    assert_eq!(out[k], (a[k] | !p[k]) & full[k]);
                }
                out.copy_from_slice(&p);
                union_into(&mut out, &b);
                for k in 0..n {
                    assert_eq!(out[k], p[k] | b[k]);
                }
            }
        }
    }

    #[test]
    fn slice_helpers_match_plain_loops() {
        let mut rng = Rng(7);
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
    }

    /// Operands of unequal length: each kernel sweeps the common prefix,
    /// including lengths on different sides of a 4-lane block.
    #[test]
    fn kernels_sweep_the_common_prefix() {
        let mut rng = Rng(11);
        for (la, lb) in [(3usize, 5usize), (5, 3), (4, 7), (8, 5)] {
            let a = rng.words(la);
            let b = rng.words(lb);
            let n = la.min(lb);
            // `a` covers `inside` on the common prefix
            let mut inside = b.clone();
            for (y, &x) in inside.iter_mut().zip(&a) {
                *y &= x;
            }
            assert!(covers(&a, &inside));
            assert_eq!(covers(&a, &b), a.iter().zip(&b).all(|(&x, &y)| y & !x == 0));
            // `apart` meets `b` nowhere on the common prefix
            let mut apart = a.clone();
            for (x, &y) in apart.iter_mut().zip(&b) {
                *x &= !y;
            }
            assert!(disjoint(&apart, &b));
            assert_eq!(
                disjoint(&a, &b),
                a.iter().zip(&b).all(|(&x, &y)| x & y == 0)
            );
            let mut out = vec![0u64; la.max(lb)];
            and_into(&mut out, &a, &b);
            for k in 0..out.len() {
                assert_eq!(out[k], if k < n { a[k] & b[k] } else { 0 });
            }
            out.fill(0);
            cofactor_into(&mut out, &a, &b, &b);
            for k in 0..out.len() {
                assert_eq!(out[k], if k < n { (a[k] | !b[k]) & b[k] } else { 0 });
            }
        }
    }

    /// All three mask kernels walk the same merge decisions; cross-check
    /// the register forms against the slice form on a shared script.
    #[test]
    fn mask_kernels_agree_on_a_merge_script() {
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
        // nv = 6 → Mask1 vs a 1-word MaskN
        let forbidden1 = vec![0x55u64];
        let m1 = run(&mut Mask1::new(), &forbidden1, 6);
        let mut cur = Vec::new();
        let mut trial = Vec::new();
        let mn1 = run(&mut MaskN::new(&mut cur, &mut trial, 1), &forbidden1, 6);
        assert_eq!(m1, mn1);
        // nv = 7 → Mask2 vs a 2-word MaskN
        let forbidden2 = vec![0x55u64, 0xaa00_0000_0000_0000];
        let m2 = run(&mut Mask2::new(), &forbidden2, 7);
        let mut cur2 = Vec::new();
        let mut trial2 = Vec::new();
        let mn2 = run(&mut MaskN::new(&mut cur2, &mut trial2, 2), &forbidden2, 7);
        assert_eq!(m2, mn2);
        // nv = 8 → a 4-word MaskN against enumerating the cube's codes: a
        // cube is its seed with some bits free, and a trial is legal when
        // no forbidden code agrees with the seed on every fixed bit
        let forbidden4: Vec<u64> = vec![0x8000_0000_0000_0001, 0, 0xff, 1 << 63];
        let mut cur4 = Vec::new();
        let mut trial4 = Vec::new();
        let mn4 = run(&mut MaskN::new(&mut cur4, &mut trial4, 4), &forbidden4, 8);
        let mut expect = Vec::new();
        for seed in [0u32, 3, 255] {
            let mut free = 0u32;
            for step in 0..8 {
                let grown = free | 1 << step;
                let ok = (0..256u32).all(|c| {
                    (c ^ seed) & !grown != 0 || forbidden4[c as usize / 64] >> (c % 64) & 1 == 0
                });
                expect.push(ok);
                if ok {
                    free = grown;
                }
            }
        }
        assert_eq!(mn4, expect);
        assert!(expect.contains(&true) && expect.contains(&false));
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
