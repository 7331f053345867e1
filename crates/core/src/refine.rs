//! The incremental refine engine: cached constraint code-tables and
//! reusable per-worker scratch.
//!
//! The refine hill-climb evaluates thousands of candidate swaps/moves per
//! pass, and each evaluation needs, per touched constraint, the member
//! codes and the forbidden (non-member) codes of that constraint under the
//! candidate code vector. Re-deriving both lists from the full codes slice
//! on every evaluation costs an `O(n)` scan and two heap allocations per
//! (candidate, constraint) pair. This module avoids that with a
//! [`CodeTable`]: per-constraint member/forbidden code lists kept as
//! flat arrays in **ascending symbol order**, a per-symbol slot map into
//! those lists, the cached supercube, and the cached greedy cube count.
//! Evaluating a candidate patches at most two entries of a scratch copy of
//! the cached lists (`O(moved symbols)` setup instead of `O(n)`), and
//! applying an accepted candidate updates the table in place — no rescans,
//! no allocation. Satisfied faces short-circuit through the
//! cached-supercube fast path (see [`CodeTable::eval`]).
//!
//! Every evaluation equals a full from-scratch recompute of the touched
//! constraints' greedy cube counts (the property suite diffs the two): the
//! greedy cover count depends only on the order of the uncovered member
//! codes, and the cached lists preserve ascending symbol order under
//! in-place patching.
//!
//! Each worker's scratch also memoizes *constraint terms* — one touched
//! constraint's greedy count under one candidate, keyed by exactly what
//! that count depends on ([`Term`]) — so a term priced once answers again
//! until the constraint's member codes change or an applied move lands
//! inside the term's patched supercube (DESIGN.md §12).

use crate::eval::{greedy_cover_count, CubesScratch};
use picola_constraints::{CodeCube, GroupConstraint};
use picola_logic::simd::{self, Mask1, Mask2, MaskKernel, MaskN};
use picola_logic::WordSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// A refinement candidate: swap two symbols' codes, or move one symbol to
/// a (currently free) code word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefineCand {
    /// Swap the codes of symbols `.0` and `.1` (`.0 < .1` by enumeration).
    Swap(usize, usize),
    /// Move symbol `.0`'s code to the free word `.1`.
    Move(usize, u32),
}

/// The `(symbol, old code, new code)` entries a candidate moves — two for a
/// `Swap`, one for a `Move`. Each variant builds exactly the entries it
/// uses (no duplicated placeholder row).
fn moved_entries(cand: RefineCand, codes: &[u32], out: &mut [(usize, u32, u32); 2]) -> usize {
    match cand {
        RefineCand::Swap(i, j) => {
            out[0] = (i, codes[i], codes[j]);
            out[1] = (j, codes[j], codes[i]);
            2
        }
        RefineCand::Move(i, w) => {
            out[0] = (i, codes[i], w);
            1
        }
    }
}

/// Lazy enumerator of the refine candidate order: all swaps `(i, j)` with
/// `i < j` in lexicographic order, then all moves `(i, w)` with `w` over
/// the whole code space. Replaces the up-front `O(n² + n·2^nv)` candidate
/// vector — the cursor is three words, and a copy of it doubles as the
/// resume point after an accepted candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandCursor {
    n: usize,
    size: usize,
    state: CursorState,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CursorState {
    Swap { i: usize, j: usize },
    Move { i: usize, w: u32 },
    Done,
}

impl CandCursor {
    /// A cursor at the start of one pass over `n` symbols and `size = 2^nv`
    /// code words.
    #[must_use]
    pub fn start(n: usize, size: usize) -> CandCursor {
        let state = if n >= 2 {
            CursorState::Swap { i: 0, j: 1 }
        } else if n == 1 && size > 0 {
            CursorState::Move { i: 0, w: 0 }
        } else {
            CursorState::Done
        };
        CandCursor { n, size, state }
    }
}

/// Yields candidates in enumeration order. Move candidates are *not*
/// filtered for target freeness — the chunk builder does that against
/// current occupancy. (The cursor is `Copy`; a copy taken before a call
/// to `next` is the resume point for that candidate.)
impl Iterator for CandCursor {
    type Item = RefineCand;

    fn next(&mut self) -> Option<RefineCand> {
        let out = match self.state {
            CursorState::Swap { i, j } => RefineCand::Swap(i, j),
            CursorState::Move { i, w } => RefineCand::Move(i, w),
            CursorState::Done => return None,
        };
        self.state = match self.state {
            CursorState::Swap { i, j } => {
                if j + 1 < self.n {
                    CursorState::Swap { i, j: j + 1 }
                } else if i + 2 < self.n {
                    CursorState::Swap { i: i + 1, j: i + 2 }
                } else if self.size > 0 {
                    CursorState::Move { i: 0, w: 0 }
                } else {
                    CursorState::Done
                }
            }
            CursorState::Move { i, w } => {
                if (w as usize) + 1 < self.size {
                    CursorState::Move { i, w: w + 1 }
                } else if i + 1 < self.n {
                    CursorState::Move { i: i + 1, w: 0 }
                } else {
                    CursorState::Done
                }
            }
            CursorState::Done => CursorState::Done,
        };
        Some(out)
    }
}

/// What one touched constraint's greedy count depends on under a
/// candidate, besides the constraint's member codes and the occupied words
/// inside the term's patched supercube (its `psc`). Every greedy merge cube
/// lies inside `psc`, so no forbidden code outside it can change the count.
#[derive(Debug, Clone, Copy)]
enum Term {
    /// The member at list slot `p` takes word `x`: a swap with the
    /// non-member at `x` (`x` occupied, the member's old code becomes
    /// forbidden) or a move to `x` (`x` free, the old code becomes free).
    /// `psc` is the supercube of the patched member list.
    Member { p: usize, x: u32 },
    /// The members at list slots `a < b` exchange codes. `psc` is the
    /// supercube.
    Pair { a: usize, b: usize },
    /// A non-member leaves `old` for a word outside the supercube. `psc` is
    /// the supercube.
    Drop(u32),
    /// A non-member enters `new` from a word outside the supercube. `psc`
    /// is the supercube.
    Add(u32),
}

/// Index bits a term's memo slot keeps when the slot array is at its cap:
/// at most `2^16` slots of 12 bytes, under 1 MB per worker at any `nv`.
const MEMO_SLOT_BITS: u32 = 16;

/// Largest dense term count a table keys: the slot tag holds the index
/// bits above [`MEMO_SLOT_BITS`], plus one, in a `u32`.
const MEMO_TERMS_MAX: u64 = 1 << (MEMO_SLOT_BITS + 31);

/// One memoized term.
#[derive(Debug, Clone, Copy, Default)]
struct TermSlot {
    /// `(dense index >> MEMO_SLOT_BITS) + 1`: the index bits the slot
    /// position does not fix. 0 marks an empty slot.
    tag: u32,
    /// Table clock at which `count` was priced.
    stamp: u32,
    /// The term's greedy cube count.
    count: u32,
}

/// A worker's memo of constraint terms, for one [`CodeTable`] at a time.
#[derive(Debug, Clone, Default)]
struct TermMemo {
    /// Identity of the table whose terms `slots` hold; 0 before first use.
    table: u64,
    /// Indexed by the dense term index masked to the length, a power of two.
    slots: Vec<TermSlot>,
}

impl TermMemo {
    /// Empties the memo for `table` unless it already holds that table's
    /// terms, sizing it for `terms` dense indices.
    fn bind(&mut self, table: u64, terms: u64) {
        if self.table != table {
            self.table = table;
            let len = terms.next_power_of_two().min(1 << MEMO_SLOT_BITS);
            self.slots.clear();
            self.slots.resize(len as usize, TermSlot::default());
        }
    }

    /// Slot position and tag of dense index `dense` (below
    /// [`MEMO_TERMS_MAX`]).
    fn locate(&self, dense: u64) -> (usize, u32) {
        let pos = dense & (self.slots.len() as u64 - 1);
        (pos as usize, ((dense >> MEMO_SLOT_BITS) + 1) as u32)
    }
}

/// Source of [`CodeTable`] identities.
static NEXT_TABLE_ID: AtomicU64 = AtomicU64::new(1);

/// Reusable per-worker buffers for candidate evaluation. One instance per
/// worker thread: after warm-up, neither engine allocates per candidate.
#[derive(Debug, Clone, Default)]
pub struct RefineScratch {
    /// Uncovered/forbidden code lists for the greedy cover loop.
    pub cubes: CubesScratch,
    /// Scratch set of touched constraint indices (lazily sized to the
    /// active constraint count on first use).
    touched: WordSet,
    /// Patched member-code bitset over the `2^nv` code space (masked path).
    member_words: WordSet,
    /// Patched forbidden-code bitset over the code space (masked path).
    forbidden_words: WordSet,
    /// Cube word-mask buffer for the masked containment checks.
    cube_mask: Vec<u64>,
    /// Trial-expansion buffer for the multi-word masked greedy.
    cube_trial: Vec<u64>,
    /// Constraint terms priced against the last table evaluated.
    memo: TermMemo,
    /// Terms answered from `memo`.
    terms_reused: u64,
    /// Terms whose count was computed (memo misses and unkeyed terms).
    terms_priced: u64,
}

impl RefineScratch {
    /// Fresh scratch; buffers grow on first use and are then reused.
    #[must_use]
    pub fn new() -> RefineScratch {
        RefineScratch::default()
    }

    /// Constraint terms [`CodeTable::eval`] answered from this scratch's
    /// memo, over the scratch's lifetime.
    #[must_use]
    pub fn terms_reused(&self) -> u64 {
        self.terms_reused
    }

    /// Constraint terms whose count [`CodeTable::eval`] computed through
    /// this scratch. Terms settled by the zero-intruder fast path count as
    /// neither reused nor priced.
    #[must_use]
    pub fn terms_priced(&self) -> u64 {
        self.terms_priced
    }

    /// The touched-set buffer, cleared and sized for `num_constraints`.
    fn touched_for(&mut self, num_constraints: usize) -> &mut WordSet {
        if self.touched.universe() != num_constraints {
            self.touched = WordSet::new(num_constraints);
        } else {
            self.touched.clear();
        }
        &mut self.touched
    }

    /// Sizes the code-space bitsets for a `2^nv = size` word universe.
    fn code_space_for(&mut self, size: usize) {
        if self.member_words.universe() != size {
            self.member_words = WordSet::new(size);
            self.forbidden_words = WordSet::new(size);
        }
    }
}

/// Per-constraint cached state: the code lists in ascending symbol order,
/// the slot of each symbol inside them, and the derived supercube/cost.
#[derive(Debug, Clone)]
struct ConstraintCache {
    /// Codes of the member symbols, ascending symbol order.
    members: Vec<u32>,
    /// Codes of the non-member symbols, ascending symbol order.
    forbidden: Vec<u32>,
    /// Per symbol: `(index << 1) | is_member` into the list above.
    slot: Vec<u32>,
    /// Member codes as a bitset over the `2^nv` code space (masked path).
    member_words: WordSet,
    /// Supercube of `members` under the current codes.
    supercube: CodeCube,
    /// Number of forbidden codes inside `supercube`. Zero iff the face is
    /// satisfied (cost exactly 1); for a move of a non-member symbol the
    /// patched count is `intruders - (old ∈ sc) + (new ∈ sc)`, giving the
    /// satisfied-face answer with two containment tests and no set work.
    intruders: usize,
    /// Greedy cube count under the current codes.
    cost: usize,
    /// Table clock of the last application that changed a member's code.
    stamp: u32,
    /// First dense index of this constraint's memo terms. With `m`
    /// members and `2^nv = size` words the constraint owns
    /// `(m + 2) · size + m²` indices: `Member` terms, then `Drop`, `Add`
    /// and `Pair`.
    memo_base: u64,
}

/// Incrementally maintained evaluation state for the refine hill-climb:
/// the current code vector, per-constraint [cached code lists +
/// supercube + cost](ConstraintCache), per-symbol constraint membership,
/// and the occupied-word bitset over the `2^nv` code space.
///
/// Built once per refine run in `O(n · constraints)`; candidate evaluation
/// ([`CodeTable::eval`]) and application ([`CodeTable::apply`]) then cost
/// `O(moved symbols)` bookkeeping plus greedy-cover work on the touched
/// constraints only.
///
/// Not `Clone`: each table has its own identity, and a scratch's term memo
/// answers only for the table that filled it.
#[derive(Debug)]
pub struct CodeTable {
    nv: usize,
    codes: Vec<u32>,
    caches: Vec<ConstraintCache>,
    /// Per symbol: bitset of active-constraint indices it belongs to.
    membership: Vec<WordSet>,
    /// Occupied code words over the `2^nv` space.
    occupied: WordSet,
    /// Identity for the scratch memos, unique per `build`.
    id: u64,
    /// Applications so far; a memo entry records the clock it was priced at.
    clock: u32,
    /// `(clock, old, new)` of every applied move, in order.
    moves: Vec<(u32, u32, u32)>,
    /// Dense memo term indices of all constraints; `None` when they would
    /// not fit [`MEMO_TERMS_MAX`], and then no term is memoized.
    terms: Option<u64>,
}

/// The cube spanned by codes whose bitwise AND is `and` and OR is `or`.
fn cube_of(and: u32, or: u32, nv: usize) -> CodeCube {
    let full = ((1u64 << nv) - 1) as u32;
    let fixed = full & !(and ^ or);
    CodeCube {
        fixed,
        values: and & fixed,
        nv,
    }
}

/// The supercube of a list of codes; the full cube when the list is empty
/// (active constraints are non-trivial, hence non-empty — the identity is
/// the safe fallback if that ever changes).
fn supercube_of(codes: &[u32], nv: usize) -> CodeCube {
    let Some((&first, rest)) = codes.split_first() else {
        return CodeCube {
            fixed: 0,
            values: 0,
            nv,
        };
    };
    let mut and = first;
    let mut or = first;
    for &c in rest {
        and &= c;
        or |= c;
    }
    cube_of(and, or, nv)
}

/// Greedy cube count over prepared lists, with the satisfied-face fast
/// path: any intermediate greedy cube is the supercube of the codes merged
/// so far, hence contained in the supercube of all members — so when no
/// forbidden code lies inside that supercube, every merge check passes and
/// the cover is exactly one cube. The `O(members + forbidden)` test
/// replaces the `O(members² · forbidden)` merge loop on satisfied faces,
/// and is exact (not a heuristic): the greedy loop would return 1 too.
fn covered_count_fast(uncovered: &mut Vec<u32>, forbidden: &[u32], nv: usize) -> usize {
    let sc = supercube_of(uncovered, nv);
    if forbidden.iter().all(|&f| !sc.contains(f)) {
        return 1;
    }
    greedy_cover_count(uncovered, forbidden)
}

/// The masked (word-parallel) evaluation path is used when the `2^nv` code
/// space packs into at most this many `u64` words (`nv ≤ 9`). Beyond that
/// the per-check cube masks would outgrow the list scans they replace, so
/// the engine falls back to the cached-list path — both paths return
/// identical counts, only speed differs.
const MASKED_WORDS_MAX: usize = 8;

/// Whether any bit of `forbidden` lies inside the cube `{x : (x ^ seed) &
/// cand & full == 0}` — the word-parallel form of the greedy loop's
/// `forbidden.iter().any(|&f| (f ^ seed) & cand == 0)` scan. The cube's
/// word mask is built by shift-OR doubling: start from the base word
/// (`seed` restricted to the fixed bits) and fold in each free bit.
fn cube_hits(forbidden: &[u64], seed: u32, cand: u32, nv: usize, mask: &mut Vec<u64>) -> bool {
    let full = ((1u64 << nv) - 1) as u32;
    let fixed = cand & full;
    mask.clear();
    mask.resize(forbidden.len(), 0);
    let base = (seed & fixed) as usize;
    mask[base / 64] |= 1u64 << (base % 64);
    for b in 0..nv {
        if fixed >> b & 1 == 0 {
            simd::expand_mask(mask, 1usize << b, false);
        }
    }
    !simd::disjoint(mask, forbidden)
}

/// [`greedy_cover_count`] with the forbidden codes given as a code-space
/// bitset instead of a list: identical iteration structure and identical
/// counts (each merge check is the same boolean, computed word-parallel).
/// The current cube's word mask is carried across merge attempts — a trial
/// merge only expands it by the bits the merge frees (usually one shift-OR)
/// instead of rebuilding it — so each check costs `O(freed bits · words)`
/// instead of `O(forbidden)`.
///
/// The mask arithmetic lives in the shared [`MaskKernel`] implementations
/// (`picola_logic::simd`): one-word and two-word code spaces stay in
/// registers, wider spaces use the caller's scratch slices and the
/// lane-unrolled disjointness kernel. All three widths walk the *same*
/// greedy loop below, so merge decisions — and hence counts — are
/// bit-identical across widths.
fn greedy_cover_count_masked(
    uncovered: &mut Vec<u32>,
    forbidden: &[u64],
    mask: &mut Vec<u64>,
    trial: &mut Vec<u64>,
) -> usize {
    match forbidden.len() {
        // Single-word code space (`nv ≤ 6`): the cube mask is one `u64`.
        1 => greedy_masked(uncovered, forbidden, &mut Mask1::new()),
        // Two-word code space (`nv == 7`): the mask is a register pair.
        2 => greedy_masked(uncovered, forbidden, &mut Mask2::new()),
        words => greedy_masked(uncovered, forbidden, &mut MaskN::new(mask, trial, words)),
    }
}

/// The width-independent greedy merge loop over a [`MaskKernel`]. Each
/// candidate grows a trial cube by the freed bits only — `fixed ^ cand` is
/// the set of newly freed bit positions, all below `nv` (a subset of
/// `c ^ seed`); every code in the current cube carries the seed's value at
/// a freed bit, so the flipped half lies above (seed bit 0) or below (seed
/// bit 1) — then keeps the trial iff it avoids every forbidden code.
fn greedy_masked<M: MaskKernel>(
    uncovered: &mut Vec<u32>,
    forbidden: &[u64],
    kernel: &mut M,
) -> usize {
    let mut count = 0usize;
    while let Some(&seed) = uncovered.first() {
        let mut fixed = u32::MAX;
        kernel.seed(seed);
        loop {
            let mut changed = false;
            for &c in uncovered.iter() {
                let cand = fixed & !(c ^ seed);
                if cand == fixed {
                    continue;
                }
                kernel.begin();
                let mut freed = fixed ^ cand;
                while freed != 0 {
                    let b = freed.trailing_zeros();
                    kernel.grow(b, seed >> b & 1 == 1);
                    freed &= freed - 1;
                }
                if kernel.disjoint(forbidden) {
                    fixed = cand;
                    kernel.commit();
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        uncovered.retain(|&c| (c ^ seed) & fixed != 0);
        count += 1;
    }
    count
}

impl CodeTable {
    /// Builds the table for `codes` against the `active` (non-trivial)
    /// constraints. The initial per-constraint costs equal
    /// [`crate::eval::greedy_codes_cubes`] on the same inputs.
    #[must_use]
    pub fn build(
        nv: usize,
        codes: Vec<u32>,
        active: &[&GroupConstraint],
        scratch: &mut RefineScratch,
    ) -> CodeTable {
        let n = codes.len();
        let size = 1usize << nv;
        let mut membership = vec![WordSet::new(active.len()); n];
        let mut occupied = WordSet::new(size);
        for &c in &codes {
            occupied.insert(c as usize);
        }
        let mut caches = Vec::with_capacity(active.len());
        // Saturating sums are exact whenever the total stays in range.
        let mut terms = 0u64;
        for (k, c) in active.iter().enumerate() {
            let mut members = Vec::with_capacity(c.len());
            let mut forbidden = Vec::with_capacity(n.saturating_sub(c.len()));
            let mut slot = vec![0u32; n];
            let mut member_words = WordSet::new(size);
            for (s, &code) in codes.iter().enumerate() {
                if c.members().contains(s) {
                    membership[s].insert(k);
                    slot[s] = ((members.len() as u32) << 1) | 1;
                    member_words.insert(code as usize);
                    members.push(code);
                } else {
                    slot[s] = (forbidden.len() as u32) << 1;
                    forbidden.push(code);
                }
            }
            let supercube = supercube_of(&members, nv);
            let intruders = forbidden.iter().filter(|&&f| supercube.contains(f)).count();
            scratch.cubes.uncovered.clear();
            scratch.cubes.uncovered.extend_from_slice(&members);
            let cost = covered_count_fast(&mut scratch.cubes.uncovered, &forbidden, nv);
            let m = members.len() as u64;
            let memo_base = terms;
            terms = terms.saturating_add(
                (m + 2)
                    .saturating_mul(size as u64)
                    .saturating_add(m.saturating_mul(m)),
            );
            caches.push(ConstraintCache {
                members,
                forbidden,
                slot,
                member_words,
                supercube,
                intruders,
                cost,
                stamp: 0,
                memo_base,
            });
        }
        CodeTable {
            nv,
            codes,
            caches,
            membership,
            occupied,
            id: NEXT_TABLE_ID.fetch_add(1, Ordering::Relaxed),
            clock: 0,
            moves: Vec::new(),
            terms: (terms <= MEMO_TERMS_MAX).then_some(terms),
        }
    }

    /// The current code vector.
    #[must_use]
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Consumes the table, returning the final code vector.
    #[must_use]
    pub fn into_codes(self) -> Vec<u32> {
        self.codes
    }

    /// Cached greedy cube count of active constraint `k`.
    #[must_use]
    pub fn cost(&self, k: usize) -> usize {
        self.caches[k].cost
    }

    /// Sum of the cached per-constraint costs.
    #[must_use]
    pub fn total_cost(&self) -> usize {
        self.caches.iter().map(|c| c.cost).sum()
    }

    /// Number of active constraints the table tracks.
    #[must_use]
    pub fn num_constraints(&self) -> usize {
        self.caches.len()
    }

    /// Whether code word `w` is currently unassigned — the `O(1)`
    /// replacement for scanning the codes slice per move candidate.
    #[must_use]
    pub fn is_free(&self, w: u32) -> bool {
        !self.occupied.contains(w as usize)
    }

    /// Collects into `scratch.touched` the constraints whose cost can
    /// change under `moved`: those owning a moved symbol, plus — for a
    /// move (`moved.len() == 1`) — those whose cached supercube contains
    /// the vacated or the entered code word. Everything else provably
    /// keeps its cost: forbidden codes outside the supercube never block a
    /// greedy merge (every candidate merge cube is contained in the
    /// supercube), and a swap of two non-member symbols permutes two codes
    /// *within* the forbidden set, leaving the set — and hence the greedy
    /// count, which never depends on forbidden order — unchanged.
    fn collect_touched(&self, moved: &[(usize, u32, u32)], scratch: &mut RefineScratch) {
        let touched = scratch.touched_for(self.caches.len());
        for &(s, _, _) in moved {
            touched.union_with(&self.membership[s]);
        }
        if let [(_, old, new)] = *moved {
            for (k, cache) in self.caches.iter().enumerate() {
                if cache.supercube.contains(old) || cache.supercube.contains(new) {
                    touched.insert(k);
                }
            }
        }
    }

    /// The memo term of constraint `cache` under `moved`, or `None` when
    /// it is not keyed: a non-member move with both words inside the
    /// supercube.
    fn term_of(cache: &ConstraintCache, moved: &[(usize, u32, u32)]) -> Option<Term> {
        let member = |s: usize| (cache.slot[s] & 1 == 1).then_some((cache.slot[s] >> 1) as usize);
        match *moved {
            [(i, _, xi), (j, _, xj)] => match (member(i), member(j)) {
                (Some(a), Some(b)) => Some(Term::Pair {
                    a: a.min(b),
                    b: a.max(b),
                }),
                (Some(p), None) => Some(Term::Member { p, x: xi }),
                (None, Some(p)) => Some(Term::Member { p, x: xj }),
                (None, None) => None,
            },
            [(s, old, new)] => match member(s) {
                Some(p) => Some(Term::Member { p, x: new }),
                None if !cache.supercube.contains(new) => Some(Term::Drop(old)),
                None if !cache.supercube.contains(old) => Some(Term::Add(new)),
                None => None,
            },
            _ => None,
        }
    }

    /// Dense memo index of `term` on constraint `cache` (for a table that
    /// keys terms, so every index is below [`MEMO_TERMS_MAX`]).
    fn dense(&self, cache: &ConstraintCache, term: Term) -> u64 {
        let size = 1u64 << self.nv;
        let m = cache.members.len() as u64;
        cache.memo_base
            + match term {
                Term::Member { p, x } => p as u64 * size + u64::from(x),
                Term::Drop(old) => m * size + u64::from(old),
                Term::Add(new) => (m + 1) * size + u64::from(new),
                Term::Pair { a, b } => (m + 2) * size + a as u64 * m + b as u64,
            }
    }

    /// Whether a count of `term` priced at clock `stamp` still holds: no
    /// member code of the constraint changed since, and no move since
    /// vacated or entered a word of the term's patched supercube.
    fn still_holds(&self, cache: &ConstraintCache, term: Term, stamp: u32) -> bool {
        if cache.stamp > stamp {
            return false;
        }
        let mut since = self
            .moves
            .iter()
            .rev()
            .take_while(|m| m.0 > stamp)
            .peekable();
        if since.peek().is_none() {
            return true;
        }
        let psc = match term {
            Term::Member { p, x } => {
                let (mut and, mut or) = (x, x);
                for (q, &c) in cache.members.iter().enumerate() {
                    if q != p {
                        and &= c;
                        or |= c;
                    }
                }
                cube_of(and, or, self.nv)
            }
            Term::Pair { .. } | Term::Drop(_) | Term::Add(_) => cache.supercube,
        };
        since.all(|&(_, old, new)| !psc.contains(old) && !psc.contains(new))
    }

    /// Cost delta of applying `cand`, evaluated **read-only** off the
    /// cached lists: per touched constraint, the moved entries are patched
    /// into a scratch copy of the cached member list (preserving ascending
    /// symbol order, hence the greedy seed sequence) and the greedy cover
    /// re-counted with the satisfied-face fast path. When the code space
    /// fits [`MASKED_WORDS_MAX`] words, the forbidden side is handled
    /// entirely word-parallel — the patched forbidden set is `occupied \
    /// members` in a few word ops, and every containment check is a cube
    /// mask intersection — so no `O(n)` forbidden list is ever copied or
    /// scanned. Zero heap allocation once `scratch` is warm; candidates
    /// touching no constraint return 0 without any greedy work.
    ///
    /// Each touched constraint's count is first looked up in the scratch's
    /// term memo, and a computed count is stored there; the memo is exact,
    /// so results do not depend on which scratch evaluates. `cand` must be
    /// valid for the current codes: a move's target word is free.
    #[must_use]
    pub fn eval(&self, cand: RefineCand, scratch: &mut RefineScratch) -> i64 {
        let mut buf = [(0usize, 0u32, 0u32); 2];
        let m = moved_entries(cand, &self.codes, &mut buf);
        let moved = &buf[..m];
        self.collect_touched(moved, scratch);
        let size = 1usize << self.nv;
        let masked = size.div_ceil(64) <= MASKED_WORDS_MAX;
        if masked {
            scratch.code_space_for(size);
        }
        if let Some(terms) = self.terms {
            scratch.memo.bind(self.id, terms);
        }
        let RefineScratch {
            cubes,
            touched,
            member_words,
            forbidden_words,
            cube_mask,
            cube_trial,
            memo,
            terms_reused,
            terms_priced,
        } = scratch;
        let mut delta = 0i64;
        for k in touched.iter_ones() {
            let cache = &self.caches[k];
            // A move of a non-member symbol leaves the members — and hence
            // the supercube — untouched, so the patched intruder count is
            // two containment tests away. Zero intruders is the satisfied
            // face: cost exactly 1, no set or greedy work at all.
            let nonmember_move = match *moved {
                [(s, old, new)] if cache.slot[s] & 1 == 0 => {
                    let sc = &cache.supercube;
                    Some(
                        cache.intruders - usize::from(sc.contains(old))
                            + usize::from(sc.contains(new)),
                    )
                }
                _ => None,
            };
            if nonmember_move == Some(0) {
                delta += 1 - cache.cost as i64;
                continue;
            }
            // The term's memo slot and tag, when the term is keyed.
            let key = match (self.terms, Self::term_of(cache, moved)) {
                (Some(_), Some(term)) => Some((term, memo.locate(self.dense(cache, term)))),
                _ => None,
            };
            if let Some((term, (pos, tag))) = key {
                let e = memo.slots[pos];
                if e.tag == tag && self.still_holds(cache, term, e.stamp) {
                    *terms_reused += 1;
                    delta += i64::from(e.count) - cache.cost as i64;
                    continue;
                }
            }
            *terms_priced += 1;
            cubes.uncovered.clear();
            cubes.uncovered.extend_from_slice(&cache.members);
            for &(s, _, new) in moved {
                let e = cache.slot[s];
                if e & 1 == 1 {
                    cubes.uncovered[(e >> 1) as usize] = new;
                }
            }
            let count = if masked {
                // Patched forbidden set = patched occupancy minus patched
                // members; swaps leave occupancy unchanged, a move shifts
                // one word.
                forbidden_words.copy_from(&self.occupied);
                if let RefineCand::Move(i, w) = cand {
                    forbidden_words.remove(self.codes[i] as usize);
                    forbidden_words.insert(w as usize);
                }
                if nonmember_move.is_some() {
                    // Members unchanged: subtract the cached member set; a
                    // positive intruder count means the supercube fast
                    // check would fail, so go straight to the greedy.
                    forbidden_words.difference_with(&cache.member_words);
                    greedy_cover_count_masked(
                        &mut cubes.uncovered,
                        forbidden_words.words(),
                        cube_mask,
                        cube_trial,
                    )
                } else {
                    // Patched member-code set: remove all old codes first,
                    // then insert the new ones (a swap inside the face
                    // permutes two codes — remove-then-insert keeps both).
                    member_words.copy_from(&cache.member_words);
                    for &(s, old, _) in moved {
                        if cache.slot[s] & 1 == 1 {
                            member_words.remove(old as usize);
                        }
                    }
                    for &(s, _, new) in moved {
                        if cache.slot[s] & 1 == 1 {
                            member_words.insert(new as usize);
                        }
                    }
                    forbidden_words.difference_with(member_words);
                    let sc = supercube_of(&cubes.uncovered, self.nv);
                    if !cube_hits(
                        forbidden_words.words(),
                        sc.values,
                        sc.fixed,
                        self.nv,
                        cube_mask,
                    ) {
                        1
                    } else {
                        greedy_cover_count_masked(
                            &mut cubes.uncovered,
                            forbidden_words.words(),
                            cube_mask,
                            cube_trial,
                        )
                    }
                }
            } else {
                cubes.forbidden.clear();
                cubes.forbidden.extend_from_slice(&cache.forbidden);
                for &(s, _, new) in moved {
                    let e = cache.slot[s];
                    if e & 1 == 0 {
                        cubes.forbidden[(e >> 1) as usize] = new;
                    }
                }
                if nonmember_move.is_some() {
                    // Known violated — skip the supercube fast path.
                    greedy_cover_count(&mut cubes.uncovered, &cubes.forbidden)
                } else {
                    covered_count_fast(&mut cubes.uncovered, &cubes.forbidden, self.nv)
                }
            };
            if let Some((_, (pos, tag))) = key {
                memo.slots[pos] = TermSlot {
                    tag,
                    stamp: self.clock,
                    count: count as u32,
                };
            }
            delta += count as i64 - cache.cost as i64;
        }
        delta
    }

    /// Applies `cand` to the table: the code vector, the occupancy bitset,
    /// and every constraint's slot-mapped list entries are patched in
    /// `O(moved symbols · constraints)` word work; supercube and cost are
    /// then refreshed for the touched constraints only.
    ///
    /// For the term memos, the application advances the clock, stamps
    /// every constraint that holds a moved symbol, and logs a move.
    pub fn apply(&mut self, cand: RefineCand, scratch: &mut RefineScratch) {
        let mut buf = [(0usize, 0u32, 0u32); 2];
        let m = moved_entries(cand, &self.codes, &mut buf);
        let moved = &buf[..m];
        // Touched must be collected against the *old* supercubes, exactly
        // as eval saw them.
        self.collect_touched(moved, scratch);

        self.clock = match self.clock.checked_add(1) {
            Some(c) => c,
            None => {
                // A wrapped clock would revive stale entries: take a new
                // identity instead, which empties every memo on its next use.
                self.id = NEXT_TABLE_ID.fetch_add(1, Ordering::Relaxed);
                self.moves.clear();
                for cache in &mut self.caches {
                    cache.stamp = 0;
                }
                1
            }
        };
        let clock = self.clock;
        match cand {
            RefineCand::Swap(i, j) => self.codes.swap(i, j),
            RefineCand::Move(i, w) => {
                self.moves.push((clock, self.codes[i], w));
                self.occupied.remove(self.codes[i] as usize);
                self.occupied.insert(w as usize);
                self.codes[i] = w;
            }
        }
        for cache in &mut self.caches {
            // List entries are per-symbol slots, so they can be patched one
            // moved entry at a time; the member-code bitset needs all
            // removals before all insertions (a swap inside the face keeps
            // both codes).
            for &(s, old, new) in moved {
                let e = cache.slot[s];
                if e & 1 == 1 {
                    cache.members[(e >> 1) as usize] = new;
                    cache.member_words.remove(old as usize);
                    cache.stamp = clock;
                } else {
                    cache.forbidden[(e >> 1) as usize] = new;
                }
            }
            for &(s, _, new) in moved {
                if cache.slot[s] & 1 == 1 {
                    cache.member_words.insert(new as usize);
                }
            }
        }

        let nv = self.nv;
        let RefineScratch { cubes, touched, .. } = scratch;
        for k in touched.iter_ones() {
            let cache = &mut self.caches[k];
            cache.supercube = supercube_of(&cache.members, nv);
            let sc = &cache.supercube;
            cache.intruders = cache.forbidden.iter().filter(|&&f| sc.contains(f)).count();
            cubes.uncovered.clear();
            cubes.uncovered.extend_from_slice(&cache.members);
            cache.cost = covered_count_fast(&mut cubes.uncovered, &cache.forbidden, nv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::greedy_codes_cubes;
    use picola_constraints::SymbolSet;

    fn groups(n: usize, gs: &[&[usize]]) -> Vec<GroupConstraint> {
        gs.iter()
            .map(|g| GroupConstraint::new(SymbolSet::from_members(n, g.iter().copied())))
            .collect()
    }

    #[test]
    fn cursor_matches_materialized_order() {
        for (n, size) in [(2usize, 4usize), (5, 8), (8, 8), (1, 4), (3, 16)] {
            let mut expect = Vec::new();
            for i in 0..n {
                for j in (i + 1)..n {
                    expect.push(RefineCand::Swap(i, j));
                }
            }
            for i in 0..n {
                for w in 0..size as u32 {
                    expect.push(RefineCand::Move(i, w));
                }
            }
            let got: Vec<RefineCand> = CandCursor::start(n, size).collect();
            assert_eq!(got, expect, "n={n} size={size}");
        }
    }

    #[test]
    fn cursor_copy_resumes_mid_stream() {
        let all: Vec<RefineCand> = CandCursor::start(6, 8).collect();
        let mut replay = CandCursor::start(6, 8);
        for (idx, &expect) in all.iter().enumerate() {
            let resume = replay; // copy taken *before* yielding
            let mut forked = resume;
            assert_eq!(forked.next(), Some(expect), "resume point {idx}");
            assert_eq!(replay.next(), Some(expect));
        }
    }

    #[test]
    fn moved_entries_builds_exactly_what_each_variant_uses() {
        let codes = [5u32, 9, 3];
        let mut buf = [(0usize, 0u32, 0u32); 2];
        assert_eq!(moved_entries(RefineCand::Swap(0, 2), &codes, &mut buf), 2);
        assert_eq!(&buf[..2], &[(0, 5, 3), (2, 3, 5)]);
        assert_eq!(moved_entries(RefineCand::Move(1, 7), &codes, &mut buf), 1);
        assert_eq!(buf[0], (1, 9, 7));
    }

    #[test]
    fn build_costs_match_from_scratch_greedy() {
        let cs = groups(6, &[&[0, 1, 2], &[3, 4, 5], &[0, 5]]);
        let active: Vec<&GroupConstraint> = cs.iter().collect();
        let codes: Vec<u32> = vec![0, 1, 4, 3, 6, 7];
        let mut scratch = RefineScratch::new();
        let table = CodeTable::build(3, codes.clone(), &active, &mut scratch);
        for (k, c) in active.iter().enumerate() {
            assert_eq!(table.cost(k), greedy_codes_cubes(&codes, c.members()), "{k}");
        }
        assert_eq!(table.num_constraints(), 3);
        for w in 0..8u32 {
            assert_eq!(table.is_free(w), !codes.contains(&w), "word {w}");
        }
    }

    #[test]
    fn eval_matches_full_recompute() {
        let cs = groups(7, &[&[0, 1, 2], &[2, 3], &[4, 5, 6], &[0, 6]]);
        let active: Vec<&GroupConstraint> = cs.iter().collect();
        let codes: Vec<u32> = vec![0, 1, 2, 3, 4, 5, 6];
        let mut scratch = RefineScratch::new();
        let table = CodeTable::build(3, codes.clone(), &active, &mut scratch);
        let full = |cs_: &[u32]| -> i64 {
            active
                .iter()
                .map(|c| greedy_codes_cubes(cs_, c.members()) as i64)
                .sum()
        };
        let base = full(&codes);
        let mut cands = vec![RefineCand::Move(2, 7)];
        for i in 0..7 {
            for j in (i + 1)..7 {
                cands.push(RefineCand::Swap(i, j));
            }
        }
        for cand in cands {
            let mut new_codes = codes.clone();
            match cand {
                RefineCand::Swap(i, j) => new_codes.swap(i, j),
                RefineCand::Move(i, w) => new_codes[i] = w,
            }
            let expect = full(&new_codes) - base;
            assert_eq!(table.eval(cand, &mut scratch), expect, "{cand:?}");
        }
    }

    #[test]
    fn apply_keeps_the_table_consistent() {
        let cs = groups(6, &[&[0, 1, 2], &[3, 4], &[1, 5]]);
        let active: Vec<&GroupConstraint> = cs.iter().collect();
        let mut codes: Vec<u32> = vec![0, 1, 2, 3, 4, 5];
        let mut scratch = RefineScratch::new();
        let mut table = CodeTable::build(3, codes.clone(), &active, &mut scratch);
        let seq = [
            RefineCand::Swap(0, 3),
            RefineCand::Move(2, 7),
            RefineCand::Swap(1, 5),
            RefineCand::Move(4, 2), // word 2 was freed by the earlier move
            RefineCand::Swap(2, 4),
        ];
        for cand in seq {
            if let RefineCand::Move(_, w) = cand {
                assert!(table.is_free(w), "{cand:?} target must be free");
            }
            table.apply(cand, &mut scratch);
            match cand {
                RefineCand::Swap(i, j) => codes.swap(i, j),
                RefineCand::Move(i, w) => codes[i] = w,
            }
            assert_eq!(table.codes(), codes.as_slice(), "{cand:?}");
            for (k, c) in active.iter().enumerate() {
                assert_eq!(
                    table.cost(k),
                    greedy_codes_cubes(&codes, c.members()),
                    "cost {k} after {cand:?}"
                );
            }
            for w in 0..8u32 {
                assert_eq!(table.is_free(w), !codes.contains(&w), "{cand:?} word {w}");
            }
        }
        assert_eq!(table.total_cost(), (0..3).map(|k| table.cost(k)).sum());
        assert_eq!(table.into_codes(), codes);
    }

    #[test]
    fn masked_greedy_and_cube_hits_match_the_list_forms() {
        for nv in [3usize, 6, 7, 8] {
            let size = 1usize << nv;
            // A deterministic scattered selection of distinct codes.
            let picked: Vec<u32> = (0..size as u32)
                .filter(|&w| w.wrapping_mul(2_654_435_761) >> 28 & 3 != 0)
                .take(24)
                .collect();
            let full = ((1u64 << nv) - 1) as u32;
            for split in [2usize, 3, 5, 8] {
                if split >= picked.len() {
                    continue;
                }
                let (mem, forb) = picked.split_at(split);
                let mut words = vec![0u64; size.div_ceil(64)];
                for &f in forb {
                    words[f as usize / 64] |= 1 << (f % 64);
                }
                let mut a = mem.to_vec();
                let mut b = mem.to_vec();
                let mut mask = Vec::new();
                let mut trial = Vec::new();
                assert_eq!(
                    greedy_cover_count_masked(&mut a, &words, &mut mask, &mut trial),
                    greedy_cover_count(&mut b, forb),
                    "nv={nv} split={split}"
                );
                assert_eq!(a, b, "nv={nv} split={split}: leftover lists differ");
            }
            let forb: Vec<u32> = picked.iter().copied().skip(5).collect();
            let mut words = vec![0u64; size.div_ceil(64)];
            for &f in &forb {
                words[f as usize / 64] |= 1 << (f % 64);
            }
            let mut mask = Vec::new();
            for &seed in picked.iter().take(5) {
                for cand in [0u32, 1, full, 0b101, u32::MAX] {
                    let scan = forb.iter().any(|&f| (f ^ seed) & cand & full == 0);
                    assert_eq!(
                        cube_hits(&words, seed, cand, nv, &mut mask),
                        scan,
                        "nv={nv} seed={seed} cand={cand:b}"
                    );
                }
            }
        }
    }

    #[test]
    fn fast_path_agrees_with_greedy_on_satisfied_and_violated_faces() {
        // satisfied: members {0,1} at codes 0,1 → supercube 00- excludes 2..
        let mut unc = vec![0u32, 1];
        let forb = vec![2u32, 3, 4, 5, 6, 7];
        assert_eq!(covered_count_fast(&mut unc, &forb, 3), 1);
        // violated: members at 0 and 7 → supercube is the full cube
        let mut unc2 = vec![0u32, 7];
        let mut unc2_ref = unc2.clone();
        let forb2 = vec![1u32, 2, 3];
        assert_eq!(
            covered_count_fast(&mut unc2, &forb2, 3),
            greedy_cover_count(&mut unc2_ref, &forb2)
        );
        // empty forbidden list: everything merges either way
        let mut unc3 = vec![1u32, 2, 4];
        assert_eq!(covered_count_fast(&mut unc3, &[], 3), 1);
    }
}
