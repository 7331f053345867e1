//! Evaluation of encodings: the paper's cost measure.
//!
//! For every face constraint `L`, a Boolean function is associated with the
//! encoding: on-set = codes of the symbols in `L`, off-set = codes of the
//! symbols not in `L`, don't-care set = unused code words. The cost of an
//! encoding is the total number of product terms in minimized
//! sum-of-products implementations of these functions — a satisfied
//! constraint costs exactly one cube; a violated one costs more, and *how
//! much* more is what PICOLA optimizes where conventional tools only count
//! satisfactions.

use picola_constraints::{Encoding, GroupConstraint};
use picola_logic::{exact_minimize, Domain, ExactOutcome, GlobalMinimizeCache, MinimizeCache};
use std::sync::Arc;

/// How constraint functions are minimized during evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalMinimizer {
    /// The in-tree heuristic ESPRESSO (the reference evaluation).
    #[default]
    Espresso,
    /// Exact minimization (Quine–McCluskey + branch and bound) with a node
    /// budget; falls back to the best cover found when the budget runs out.
    Exact {
        /// Branch-and-bound node budget per constraint.
        max_nodes: usize,
    },
}

/// Knobs of the evaluation pipeline beyond the minimizer choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalOptions {
    /// Which minimizer prices each constraint function.
    pub minimizer: EvalMinimizer,
    /// Whether repeat constraint functions are answered from the
    /// [`EvalContext`]'s memo. Off = honest recomputation on every call
    /// (bit-identical results either way).
    pub cache: bool,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            minimizer: EvalMinimizer::default(),
            cache: true,
        }
    }
}

/// Long-lived state threaded through repeated evaluations: a minimization
/// memo plus this caller's view over it (key and scratch buffers, hit/miss
/// tallies). Search loops (ENC probes, portfolio sweeps) keep one context
/// per run so repeat covers cost a hash lookup and the steady state
/// allocates nothing.
///
/// [`EvalContext::new`] gets a fresh memo of its own, so traces stay
/// independent of thread count and interleaving. A long-running server
/// instead hands every request the engine's shared memo via
/// [`EvalContext::with_global`] so repeat covers hit *across* requests;
/// results stay bit-identical (the memo keys on the exact order-sensitive
/// cover sequence), only the work differs.
#[derive(Debug)]
pub struct EvalContext {
    /// This context's view over `memo`: the key/scratch buffers and the
    /// hit/miss tallies of the evaluations it ran.
    pub cache: MinimizeCache,
    memo: Arc<GlobalMinimizeCache>,
}

impl Default for EvalContext {
    fn default() -> Self {
        EvalContext::new()
    }
}

impl EvalContext {
    /// A fresh context over a fresh, unshared (cold) memo.
    pub fn new() -> EvalContext {
        EvalContext::with_global(Arc::new(GlobalMinimizeCache::new()))
    }

    /// A fresh context that answers cached minimizations from `global`,
    /// sharing warm entries with every other context over it.
    pub fn with_global(global: Arc<GlobalMinimizeCache>) -> EvalContext {
        EvalContext {
            cache: MinimizeCache::new(),
            memo: global,
        }
    }
}

/// Cost of one constraint under an encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstraintCost {
    /// Index of the constraint in the evaluated slice.
    pub index: usize,
    /// Whether the face is embedded (cost is then exactly 1).
    pub satisfied: bool,
    /// Minimized product-term count of the constraint's function.
    pub cubes: usize,
}

/// The full evaluation of an encoding against a constraint set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodingEvaluation {
    /// Per-constraint breakdown (trivial constraints are skipped).
    pub per_constraint: Vec<ConstraintCost>,
    /// Sum of minimized cube counts — the paper's Table I metric.
    pub total_cubes: usize,
    /// Number of satisfied (face-embedded) constraints.
    pub satisfied: usize,
    /// Number of evaluated (non-trivial) constraints.
    pub evaluated: usize,
}

/// A fast combinatorial estimate of the Table I cube metric, usable inside
/// tight refinement loops.
///
/// Per non-trivial constraint it runs a greedy single-output cube cover
/// directly on the code words — grow a cube from each uncovered member
/// code by merging in further member codes (supercube accumulation) as long
/// as no non-member code slips inside; unused code words are don't-cares.
/// This is a micro two-level minimizer in pure bit arithmetic: exact on
/// satisfied faces (one cube — the supercube always merges completely) and
/// close to ESPRESSO on the irregular cases, at microseconds per
/// constraint.
pub fn estimate_cubes(enc: &Encoding, constraints: &[GroupConstraint]) -> usize {
    estimate_cubes_with(enc, constraints, &mut CubesScratch::default())
}

/// [`estimate_cubes`] with caller-provided scratch buffers.
///
/// Hot loops that estimate many encodings (the cost-model portfolio, the
/// state-assignment polish pass) call this with one long-lived
/// [`CubesScratch`] so no per-evaluation heap allocation happens.
pub fn estimate_cubes_with(
    enc: &Encoding,
    constraints: &[GroupConstraint],
    scratch: &mut CubesScratch,
) -> usize {
    estimate_codes_cubes_with(enc.codes(), constraints, scratch)
}

/// [`estimate_cubes_with`] directly over a raw codes slice, for proposal
/// loops that avoid per-candidate `Encoding` construction. The caller
/// guarantees distinct in-range codes.
pub fn estimate_codes_cubes_with(
    codes: &[u32],
    constraints: &[GroupConstraint],
    scratch: &mut CubesScratch,
) -> usize {
    constraints
        .iter()
        .filter(|c| !c.is_trivial())
        .map(|c| greedy_codes_cubes_into(codes, c.members(), scratch))
        .sum()
}

/// Greedy cube count for one constraint under `enc` (see
/// [`estimate_cubes`]).
pub fn greedy_constraint_cubes(
    enc: &Encoding,
    members: &picola_constraints::SymbolSet,
) -> usize {
    greedy_codes_cubes(enc.codes(), members)
}

/// Reusable buffers for [`greedy_codes_cubes_into`]: the uncovered member
/// codes and the forbidden (non-member) codes of the constraint under
/// evaluation. One instance serves any number of calls — the vectors are
/// cleared, never shrunk, so steady-state evaluation allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct CubesScratch {
    pub(crate) uncovered: Vec<u32>,
    pub(crate) forbidden: Vec<u32>,
}

impl CubesScratch {
    /// Fresh, empty scratch. Buffers grow on first use and are then reused.
    #[must_use]
    pub fn new() -> CubesScratch {
        CubesScratch::default()
    }
}

/// [`greedy_constraint_cubes`] computed directly over a codes slice.
///
/// The refine hot path evaluates thousands of candidate code vectors; this
/// entry point skips `Encoding::new`'s `O(2^nv)` distinctness validation —
/// the caller guarantees the slice holds distinct in-range codes (swaps and
/// moves to free words preserve that by construction).
pub fn greedy_codes_cubes(codes: &[u32], members: &picola_constraints::SymbolSet) -> usize {
    greedy_codes_cubes_into(codes, members, &mut CubesScratch::default())
}

/// [`greedy_codes_cubes`] with caller-provided scratch buffers — the
/// zero-allocation entry point the refine engine and the baselines' hot
/// loops thread their per-worker scratch through. Returns exactly the same
/// count as [`greedy_codes_cubes`] for the same inputs.
pub fn greedy_codes_cubes_into(
    codes: &[u32],
    members: &picola_constraints::SymbolSet,
    scratch: &mut CubesScratch,
) -> usize {
    scratch.uncovered.clear();
    scratch.uncovered.extend(members.iter().map(|s| codes[s]));
    scratch.forbidden.clear();
    scratch.forbidden.extend(
        (0..codes.len())
            .filter(|&s| !members.contains(s))
            .map(|s| codes[s]),
    );
    greedy_cover_count(&mut scratch.uncovered, &scratch.forbidden)
}

/// The greedy cover loop proper, over prepared code lists. `uncovered` is
/// consumed (drained as cubes cover it); `forbidden` is read-only. The
/// incremental refine engine calls this directly on its cached,
/// incrementally-patched lists — the order of `uncovered` determines the
/// seed sequence, so callers must present member codes in ascending symbol
/// order to match [`greedy_codes_cubes`].
pub(crate) fn greedy_cover_count(uncovered: &mut Vec<u32>, forbidden: &[u32]) -> usize {
    let mut count = 0usize;
    while let Some(&seed) = uncovered.first() {
        // Grow a cube by merging member codes: take the supercube with each
        // further uncovered code as long as no non-member code slips in.
        // Unlike bit-at-a-time expansion this crosses multi-bit gaps (e.g.
        // merging 000 with 011), so a satisfied face always ends up as its
        // single supercube. Rescan until a fixpoint — each merge can make
        // more codes admissible.
        let mut fixed = u32::MAX;
        loop {
            let mut changed = false;
            for &c in uncovered.iter() {
                let cand = fixed & !(c ^ seed);
                if cand == fixed {
                    continue;
                }
                if forbidden.iter().all(|&f| (f ^ seed) & cand != 0) {
                    fixed = cand;
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

/// Evaluates `enc` against `constraints` using the default (ESPRESSO)
/// minimizer.
pub fn evaluate_encoding(enc: &Encoding, constraints: &[GroupConstraint]) -> EncodingEvaluation {
    evaluate_encoding_with(enc, constraints, EvalMinimizer::Espresso)
}

/// Evaluates `enc` against `constraints` with an explicit minimizer choice
/// and a one-shot [`EvalContext`].
pub fn evaluate_encoding_with(
    enc: &Encoding,
    constraints: &[GroupConstraint],
    minimizer: EvalMinimizer,
) -> EncodingEvaluation {
    let opts = EvalOptions {
        minimizer,
        ..EvalOptions::default()
    };
    evaluate_encoding_cached(enc, constraints, &opts, &mut EvalContext::new())
}

/// The full evaluation entry point: explicit [`EvalOptions`] and a
/// caller-owned [`EvalContext`] whose memo and scratch survive across
/// calls. Returns bit-identical results with the cache on or off; only the
/// work performed differs.
pub fn evaluate_encoding_cached(
    enc: &Encoding,
    constraints: &[GroupConstraint],
    opts: &EvalOptions,
    ctx: &mut EvalContext,
) -> EncodingEvaluation {
    let dom = Domain::binary(enc.nv());
    let mut per_constraint = Vec::new();
    let mut total = 0usize;
    let mut satisfied = 0usize;

    for (index, c) in constraints.iter().enumerate() {
        if c.is_trivial() {
            continue;
        }
        let (on, dc) = enc.constraint_function(&dom, c.members());
        let cubes = match opts.minimizer {
            EvalMinimizer::Espresso => {
                if opts.cache {
                    ctx.cache.minimized_cube_count(&ctx.memo, &on, &dc)
                } else {
                    ctx.cache.minimized_cube_count_uncached(&on, &dc)
                }
            }
            EvalMinimizer::Exact { max_nodes } => match exact_minimize(&on, &dc, max_nodes) {
                ExactOutcome::Minimum(cv) | ExactOutcome::Truncated(cv) => cv.len(),
            },
        };
        let sat = enc.satisfies(c.members());
        if sat {
            // A fully minimized satisfied face costs exactly one cube, but
            // the minimizer may degrade under fault injection, so only the
            // lower bound is an invariant here.
            debug_assert!(cubes >= 1, "a satisfied face needs at least one cube");
            satisfied += 1;
        }
        total += cubes;
        per_constraint.push(ConstraintCost {
            index,
            satisfied: sat,
            cubes,
        });
    }

    EncodingEvaluation {
        evaluated: per_constraint.len(),
        per_constraint,
        total_cubes: total,
        satisfied,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picola_constraints::SymbolSet;

    fn groups(n: usize, gs: &[&[usize]]) -> Vec<GroupConstraint> {
        gs.iter()
            .map(|g| GroupConstraint::new(SymbolSet::from_members(n, g.iter().copied())))
            .collect()
    }

    #[test]
    fn satisfied_constraints_cost_one() {
        // natural codes 00,01,10,11: {0,1} is the face 0-
        let enc = Encoding::natural(4);
        let cs = groups(4, &[&[0, 1]]);
        let ev = evaluate_encoding(&enc, &cs);
        assert_eq!(ev.total_cubes, 1);
        assert_eq!(ev.satisfied, 1);
    }

    #[test]
    fn violated_constraints_cost_more() {
        // {0, 3} under natural 2-bit codes: codes 00 and 11 -> two cubes.
        let enc = Encoding::natural(4);
        let cs = groups(4, &[&[0, 3]]);
        let ev = evaluate_encoding(&enc, &cs);
        assert_eq!(ev.satisfied, 0);
        assert_eq!(ev.total_cubes, 2);
    }

    #[test]
    fn unused_codes_are_dont_cares() {
        // 3 symbols in 2 bits; {0, 1} at 00, 01 plus symbol 2 at 10.
        // Constraint {0, 1}: cube 0- works. Constraint {1, 2}: codes 01,
        // 10; with dc 11 the pair minimizes to two cubes (01 + 1-), but
        // {0, 2} = 00, 10 -> -0 is one cube thanks to... -0 covers 00 and
        // 10 exactly: satisfied? supercube of {00,10} = -0 which contains
        // no other used code -> satisfied, 1 cube.
        let enc = Encoding::new(2, vec![0b00, 0b01, 0b10]).unwrap();
        let cs = groups(3, &[&[0, 1], &[0, 2], &[1, 2]]);
        let ev = evaluate_encoding(&enc, &cs);
        assert_eq!(ev.per_constraint[0].cubes, 1);
        assert_eq!(ev.per_constraint[1].cubes, 1);
        assert_eq!(ev.per_constraint[2].cubes, 2);
        assert_eq!(ev.satisfied, 2);
    }

    #[test]
    fn exact_and_espresso_agree_on_small_instances() {
        let enc = Encoding::new(3, (0..7).collect()).unwrap();
        let cs = groups(7, &[&[0, 2, 5], &[1, 3], &[2, 3, 4, 6]]);
        let a = evaluate_encoding(&enc, &cs);
        let b = evaluate_encoding_with(&enc, &cs, EvalMinimizer::Exact { max_nodes: 100_000 });
        assert!(b.total_cubes <= a.total_cubes);
        // espresso should be optimal on functions this small
        assert_eq!(a.total_cubes, b.total_cubes);
    }

    #[test]
    fn scratch_reuse_matches_fresh_allocation() {
        // One scratch across many (codes, members) pairs — including pairs
        // smaller than earlier ones, so stale buffer contents would show.
        let mut scratch = CubesScratch::new();
        let cases: &[(usize, Vec<u32>, Vec<usize>)] = &[
            (3, vec![0, 1, 2, 3, 4, 5, 6], vec![0, 2, 5]),
            (3, vec![6, 5, 4, 3, 2, 1, 0], vec![1, 3]),
            (2, vec![0, 3, 1], vec![0, 1]),
            (4, vec![0, 15, 7, 8, 3], vec![0, 1, 2, 3, 4]),
        ];
        for (_, codes, members) in cases {
            let ms = SymbolSet::from_members(codes.len(), members.iter().copied());
            assert_eq!(
                greedy_codes_cubes_into(codes, &ms, &mut scratch),
                greedy_codes_cubes(codes, &ms),
            );
        }
    }

    #[test]
    fn estimate_cubes_with_shares_one_scratch() {
        let enc = Encoding::natural(6);
        let cs = groups(6, &[&[0, 1], &[0, 3], &[2, 3, 4]]);
        let mut scratch = CubesScratch::new();
        let a = estimate_cubes_with(&enc, &cs, &mut scratch);
        let b = estimate_cubes_with(&enc, &cs, &mut scratch);
        assert_eq!(a, estimate_cubes(&enc, &cs));
        assert_eq!(a, b);
    }

    #[test]
    fn trivial_constraints_are_skipped() {
        let enc = Encoding::natural(4);
        let cs = groups(4, &[&[2], &[0, 1, 2, 3]]);
        let ev = evaluate_encoding(&enc, &cs);
        assert_eq!(ev.evaluated, 0);
        assert_eq!(ev.total_cubes, 0);
    }
}
