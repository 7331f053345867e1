//! The PICOLA driver: `get_constraint_matrix(); for each column {
//! Update_constraints(); Solve(); }` (paper Figure 2).

use crate::classify::{update_constraints, ClassifyOutcome};
use crate::cost::CostModel;
use crate::error::PicolaError;
use crate::refine::{CandCursor, CodeTable, RefineCand, RefineScratch};
use crate::solve::solve_column;
use crate::validity::ValidityTracker;
use picola_constraints::{
    min_code_length, ConstraintMatrix, ConstraintStatus, Encoding, GroupConstraint,
};
use picola_logic::{obs, Budget, Completion};

/// Options for [`picola_encode_with`].
#[derive(Debug, Clone, Default)]
pub struct PicolaOptions {
    /// Dichotomy weighting used by `Solve()`.
    pub cost: CostModel,
    /// Substitute infeasible constraints by guide constraints (§3.2). The
    /// paper's algorithm has this on; turning it off is the ablation.
    pub disable_guides: bool,
    /// Skip dynamic infeasibility detection entirely (a second ablation —
    /// the algorithm degenerates to plain weighted dichotomy encoding).
    pub disable_classify: bool,
    /// Skip the final refinement pass (code swaps driven by the
    /// combinatorial Theorem-I cube estimate, see
    /// [`crate::eval::estimate_cubes`]). The two-page paper does not spell
    /// out a polish phase; this reproduction adds one guided by the paper's
    /// own cost theory — it uses no logic minimization and keeps PICOLA
    /// orders of magnitude cheaper than ENC. Disabling it is an ablation.
    pub disable_refine: bool,
    /// Encode with this many bits instead of `ceil(log2 n)`.
    pub nv_override: Option<usize>,
    /// Worker threads for the refinement pass's candidate evaluation.
    /// `0` or `1` run sequentially; any value produces **bit-identical**
    /// results — candidates are evaluated read-only in fixed-size chunks
    /// and the first improvement in enumeration order is applied, so the
    /// thread count changes only wall time.
    pub threads: usize,
}

/// Result of a PICOLA run.
#[derive(Debug, Clone)]
pub struct PicolaResult {
    /// The produced minimum-length encoding (after the refinement pass,
    /// unless disabled).
    pub encoding: Encoding,
    /// Final state of the enriched constraint matrix. It documents the
    /// *constructive (column) phase*: the refinement pass may further trade
    /// one constraint for another, so judge the delivered `encoding` with
    /// [`crate::eval::evaluate_encoding`].
    pub matrix: ConstraintMatrix,
    /// Classification outcome per column round.
    pub rounds: Vec<ClassifyOutcome>,
    /// Whether the run finished within its [`Budget`] or degraded to a
    /// best-effort result.
    pub completion: Completion,
}

impl PicolaResult {
    /// Number of original constraints fully satisfied.
    pub fn satisfied_originals(&self) -> usize {
        self.matrix
            .constraints()
            .iter()
            .filter(|tc| {
                tc.status() == ConstraintStatus::Satisfied
                    && matches!(
                        tc.constraint().kind(),
                        picola_constraints::ConstraintKind::Original
                    )
            })
            .count()
    }

    /// Number of guide constraints generated over the whole run.
    pub fn guides_generated(&self) -> usize {
        self.rounds.iter().map(|r| r.guides_added.len()).sum()
    }
}

/// Encodes `n` symbols under `constraints` with default options.
///
/// # Examples
///
/// ```
/// use picola_core::picola_encode;
/// use picola_constraints::{GroupConstraint, SymbolSet};
///
/// let constraints = vec![
///     GroupConstraint::new(SymbolSet::from_members(6, [0, 1])),
///     GroupConstraint::new(SymbolSet::from_members(6, [2, 3, 4])),
/// ];
/// let result = picola_encode(6, &constraints);
/// assert_eq!(result.encoding.nv(), 3);
/// // both faces are embeddable in 3 bits and PICOLA finds them
/// assert!(result.encoding.satisfies(constraints[0].members()));
/// assert!(result.encoding.satisfies(constraints[1].members()));
/// ```
pub fn picola_encode(n: usize, constraints: &[GroupConstraint]) -> PicolaResult {
    picola_encode_with(n, constraints, &PicolaOptions::default())
}

/// Encodes `n` symbols under `constraints` with explicit options.
///
/// # Panics
///
/// Panics if `n < 2`, an `nv_override` too small (or too large) is given,
/// or a constraint's universe does not match `n`. Use
/// [`try_picola_encode_with`] for a fully fallible entry point.
#[allow(clippy::panic)] // documented panic contract of the legacy entry point
pub fn picola_encode_with(
    n: usize,
    constraints: &[GroupConstraint],
    opts: &PicolaOptions,
) -> PicolaResult {
    match try_picola_encode_with(n, constraints, opts, &Budget::unlimited()) {
        Ok(r) => r,
        Err(e) => panic!("picola_encode_with: {e}"),
    }
}

/// Encodes `n` symbols under `constraints` with explicit options and an
/// execution [`Budget`].
///
/// The budget is polled once per column round (trigger point
/// `"picola.column"`) and once per candidate move of the refinement pass
/// (`"picola.refine"`). On exhaustion the run returns early with a **valid**
/// encoding — distinct codes of the correct length — and
/// [`PicolaResult::completion`] reports the degradation; if the constructive
/// phase itself was cut short, the codes fall back to plain binary counting
/// and constraint satisfaction is whatever that happens to give.
///
/// # Errors
///
/// [`PicolaError::InvalidInput`] when `n < 2`, `nv_override` is too small
/// to distinguish `n` symbols, or a constraint's symbol universe differs
/// from `n`. [`PicolaError::Internal`] if a solver invariant breaks (never
/// expected; returned instead of panicking).
pub fn try_picola_encode_with(
    n: usize,
    constraints: &[GroupConstraint],
    opts: &PicolaOptions,
    budget: &Budget,
) -> Result<PicolaResult, PicolaError> {
    if n < 2 {
        return Err(PicolaError::invalid(format!(
            "need at least two symbols, got {n}"
        )));
    }
    let nv = opts.nv_override.unwrap_or_else(|| min_code_length(n));
    if nv < min_code_length(n) {
        return Err(PicolaError::invalid(format!(
            "nv = {nv} cannot distinguish {n} symbols (need {})",
            min_code_length(n)
        )));
    }
    if nv >= u32::BITS as usize {
        return Err(PicolaError::invalid(format!(
            "nv = {nv} exceeds the supported code length of {} bits",
            u32::BITS - 1
        )));
    }
    for (i, c) in constraints.iter().enumerate() {
        if c.members().universe() != n {
            return Err(PicolaError::invalid(format!(
                "constraint {i} is over a universe of {} symbols, expected {n}",
                c.members().universe()
            )));
        }
    }

    let span = obs::current_or(budget.recorder()).span("picola");
    let _cur = obs::enter(span.recorder());

    let mut matrix = ConstraintMatrix::new(n, nv, constraints.to_vec());
    let mut validity = ValidityTracker::new(n, nv);
    let mut rounds = Vec::with_capacity(nv);
    let mut constructive_complete = true;

    for col in 0..nv {
        if !budget.tick("picola.column", 1) {
            constructive_complete = false;
            break;
        }
        let col_span = span.recorder().span(&format!("column.{col}"));
        let _col_cur = obs::enter(col_span.recorder());
        let outcome = if opts.disable_classify {
            ClassifyOutcome::default()
        } else {
            update_constraints(&mut matrix, !opts.disable_guides)
        };
        obs::count(obs::Counter::GuidesAdded, outcome.guides_added.len() as u64);
        rounds.push(outcome);
        let column = solve_column(&matrix, &validity, opts.cost);
        matrix.apply_column(&column);
        validity.commit(&column);
        obs::count(obs::Counter::ColumnsSolved, 1);
    }
    // Final classification pass so the matrix reports end-of-run statuses.
    if constructive_complete && !opts.disable_classify {
        rounds.push(update_constraints(&mut matrix, false));
    }

    let mut encoding = if constructive_complete {
        let columns: Vec<Vec<bool>> = matrix.columns().to_vec();
        Encoding::from_columns(&columns).map_err(|e| {
            PicolaError::internal(format!(
                "validity tracking failed to keep codes distinct: {e}"
            ))
        })?
    } else {
        // The column phase was cut short, so the matrix holds a partial
        // (possibly non-distinct) code set. Fall back to binary counting:
        // valid by construction, quality left to whatever luck provides.
        Encoding::new(nv, (0..n as u32).collect()).map_err(|e| {
            PicolaError::internal(format!("binary fallback encoding failed: {e}"))
        })?
    };

    if !opts.disable_refine {
        encoding = refine(encoding, constraints, budget, opts.threads);
    }

    Ok(PicolaResult {
        encoding,
        matrix,
        rounds,
        completion: budget.completion(),
    })
}

/// How many valid candidates are evaluated per batch. Fixed — it shapes
/// the search trajectory, so it must not depend on the thread count.
const REFINE_CHUNK: usize = 64;

/// Refinement: first-improvement hill climbing over code swaps and moves to
/// free code words, driven by the combinatorial greedy cube-cover estimate
/// (never by logic minimization).
///
/// Candidates are enumerated lazily ([`CandCursor`]) in a fixed order — all
/// swaps `(i, j)` with `i < j`, then all moves `(i, w)` — and evaluated
/// read-only against a [`CodeTable`] in chunks of [`REFINE_CHUNK`]
/// ([`CodeTable::eval`], the incremental evaluation off the table's cached
/// lists); the first improving candidate in order is applied and
/// enumeration resumes right after it against the new state. Chunk
/// evaluation runs on `threads` workers when `threads > 1`, each with its
/// own long-lived [`RefineScratch`], with **bit-identical** results for any
/// thread count: the evaluation is pure and the applied candidate is
/// chosen by enumeration order, never by completion order.
///
/// Budget-aware: each chunk ticks `"picola.refine"` by the number of
/// candidates it holds; on exhaustion the current (always valid) encoding
/// is returned as-is.
fn refine(
    enc: Encoding,
    constraints: &[GroupConstraint],
    budget: &Budget,
    threads: usize,
) -> Encoding {
    let span = obs::current_or(budget.recorder()).span("refine");
    let _cur = obs::enter(span.recorder());

    let active: Vec<&GroupConstraint> =
        constraints.iter().filter(|c| !c.is_trivial()).collect();
    if active.is_empty() {
        return enc;
    }
    let n = enc.num_symbols();
    let nv = enc.nv();
    let size = 1usize << nv;

    // One scratch per worker, alive for the whole run: chunk evaluation
    // allocates nothing after the first few candidates warm the buffers.
    let mut scratches: Vec<RefineScratch> =
        (0..threads.max(1)).map(|_| RefineScratch::new()).collect();
    let mut table = CodeTable::build(nv, enc.codes().to_vec(), &active, &mut scratches[0]);

    let mut chunk: Vec<(CandCursor, RefineCand)> = Vec::with_capacity(REFINE_CHUNK);
    let mut results: Vec<i64> = vec![0; REFINE_CHUNK];

    'passes: for _ in 0..4 {
        let mut improved = false;
        let mut gen = CandCursor::start(n, size);
        'pass: loop {
            // Collect the next chunk of *valid* candidates (swaps always;
            // moves only to words free under the current codes), each with
            // the cursor to resume from if it is the one applied.
            chunk.clear();
            while chunk.len() < REFINE_CHUNK {
                let Some(cand) = gen.next() else { break };
                if let RefineCand::Move(_, w) = cand {
                    if !table.is_free(w) {
                        continue;
                    }
                }
                chunk.push((gen, cand));
            }
            if chunk.is_empty() {
                break;
            }
            if !budget.tick("picola.refine", chunk.len() as u64) {
                break 'passes;
            }

            let workers = threads.min(chunk.len());
            if workers > 1 {
                let per = chunk.len().div_ceil(workers);
                let (chunk, table) = (&chunk, &table);
                rayon::scope(|s| {
                    let mut rest: &mut [i64] = &mut results[..chunk.len()];
                    let mut free_scratch: &mut [RefineScratch] = &mut scratches;
                    let mut offset = 0usize;
                    while !rest.is_empty() {
                        let take = per.min(rest.len());
                        let (slots, tail) = rest.split_at_mut(take);
                        rest = tail;
                        let (mine, others) = free_scratch.split_at_mut(1);
                        free_scratch = others;
                        let scratch = &mut mine[0];
                        let start = offset;
                        offset += take;
                        s.spawn(move |_| {
                            for (t, out) in slots.iter_mut().enumerate() {
                                *out = table.eval(chunk[start + t].1, scratch);
                            }
                        });
                    }
                });
            } else {
                let scratch = &mut scratches[0];
                for (t, out) in results[..chunk.len()].iter_mut().enumerate() {
                    *out = table.eval(chunk[t].1, scratch);
                }
            }

            // Apply the first improving candidate in enumeration order and
            // resume right after it; later results in the chunk are stale
            // against the new state and are discarded.
            obs::count(obs::Counter::RefineEvals, chunk.len() as u64);
            let mut applied = None;
            for (t, &(resume, cand)) in chunk.iter().enumerate() {
                if results[t] < 0 {
                    obs::count(obs::Counter::RefineAccepts, 1);
                    obs::count(obs::Counter::RefineRejects, t as u64);
                    applied = Some((resume, cand));
                    break;
                }
            }
            if let Some((resume, cand)) = applied {
                table.apply(cand, &mut scratches[0]);
                gen = resume;
                improved = true;
                continue 'pass;
            }
            obs::count(obs::Counter::RefineRejects, chunk.len() as u64);
        }
        if !improved || budget.is_exhausted() {
            break;
        }
    }
    // Swaps and moves-to-free-words keep codes distinct by construction;
    // fall back to the input encoding rather than panic if not.
    Encoding::new(nv, table.into_codes()).unwrap_or(enc)
}

/// Runs PICOLA once per cost model and keeps the result whose encoding has
/// the lowest combinatorial cube estimate ([`crate::eval::estimate_cubes`]),
/// ties broken by model order. A deterministic portfolio: the paper leaves
/// the cost function's exact shape open, and the three models explore the
/// main alternatives for the price of three (still millisecond) runs.
pub fn picola_encode_portfolio(
    n: usize,
    constraints: &[GroupConstraint],
    base: &PicolaOptions,
    models: &[crate::cost::CostModel],
) -> PicolaResult {
    match try_picola_encode_portfolio(n, constraints, base, models, &Budget::unlimited()) {
        Ok(r) => r,
        #[allow(clippy::panic)] // documented panic contract of the legacy entry point
        Err(e) => panic!("picola_encode_portfolio: {e}"),
    }
}

/// Budget-aware [`picola_encode_portfolio`]: the runs share one `budget`.
/// Models that cannot start (budget already exhausted) are skipped, but at
/// least one run always completes — possibly degraded — so a result is
/// always produced.
///
/// # Errors
///
/// As [`try_picola_encode_with`], plus [`PicolaError::InvalidInput`] when
/// `models` is empty.
pub fn try_picola_encode_portfolio(
    n: usize,
    constraints: &[GroupConstraint],
    base: &PicolaOptions,
    models: &[crate::cost::CostModel],
    budget: &Budget,
) -> Result<PicolaResult, PicolaError> {
    use crate::eval::estimate_cubes_with;
    if models.is_empty() {
        return Err(PicolaError::invalid("portfolio needs at least one cost model"));
    }
    let mut best: Option<(usize, PicolaResult)> = None;
    // One scratch across all model evaluations — the winner selection
    // allocates nothing per model.
    let mut scratch = crate::eval::CubesScratch::new();
    for &cost in models {
        let opts = PicolaOptions {
            cost,
            ..base.clone()
        };
        let r = try_picola_encode_with(n, constraints, &opts, budget)?;
        let est = estimate_cubes_with(&r.encoding, constraints, &mut scratch);
        if best.as_ref().is_none_or(|&(b, _)| est < b) {
            best = Some((est, r));
        }
        // Later models would only produce the same degraded fallback.
        if budget.is_exhausted() {
            break;
        }
    }
    match best {
        Some((_, r)) => Ok(r),
        None => Err(PicolaError::internal("no portfolio model produced a result")),
    }
}

/// A minimum-length symbol encoder: PICOLA and every baseline implement
/// this, letting the state-assignment flow and the benches switch encoders
/// freely.
pub trait Encoder {
    /// Short identifier used in reports (e.g. `"picola"`, `"nova-ih"`).
    fn name(&self) -> &str;

    /// Produces a minimum-length encoding of `n` symbols that respects the
    /// face constraints as well as the strategy allows.
    fn encode(&self, n: usize, constraints: &[GroupConstraint]) -> Encoding;

    /// Budget-aware [`Encoder::encode`]: stops refining when `budget` runs
    /// out and reports how the run ended. The returned encoding is always
    /// valid (distinct codes, minimum length).
    ///
    /// The default implementation ignores the budget and runs [`Encoder::encode`]
    /// to completion; budget-aware encoders override it.
    fn encode_bounded(
        &self,
        n: usize,
        constraints: &[GroupConstraint],
        budget: &Budget,
    ) -> (Encoding, Completion) {
        let enc = self.encode(n, constraints);
        (enc, budget.completion())
    }
}

/// The PICOLA encoder as an [`Encoder`] implementation.
///
/// By default it runs the three-cost-model portfolio
/// ([`picola_encode_portfolio`]); set `portfolio: false` for a single run
/// with `options.cost`.
#[derive(Debug, Clone)]
pub struct PicolaEncoder {
    /// Options applied on every call.
    pub options: PicolaOptions,
    /// Run all cost models and keep the best by estimate.
    pub portfolio: bool,
}

impl Default for PicolaEncoder {
    fn default() -> Self {
        PicolaEncoder {
            options: PicolaOptions::default(),
            portfolio: true,
        }
    }
}

impl Encoder for PicolaEncoder {
    fn name(&self) -> &str {
        "picola"
    }

    fn encode(&self, n: usize, constraints: &[GroupConstraint]) -> Encoding {
        self.encode_bounded(n, constraints, &Budget::unlimited()).0
    }

    // The Encoder trait's infallible contract mirrors picola_encode_with's
    // documented panics on invalid input (n < 2, undersized nv_override);
    // fallible callers use try_picola_encode_with directly.
    #[allow(clippy::panic)]
    fn encode_bounded(
        &self,
        n: usize,
        constraints: &[GroupConstraint],
        budget: &Budget,
    ) -> (Encoding, Completion) {
        let result = if self.portfolio {
            try_picola_encode_portfolio(
                n,
                constraints,
                &self.options,
                &[
                    crate::cost::CostModel::PaperWeighted,
                    crate::cost::CostModel::UniformDichotomy,
                    crate::cost::CostModel::ConstraintCompletion,
                ],
                budget,
            )
        } else {
            try_picola_encode_with(n, constraints, &self.options, budget)
        };
        match result {
            Ok(r) => (r.encoding, r.completion),
            Err(e) => panic!("PicolaEncoder: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picola_constraints::SymbolSet;
    use picola_logic::{chaos, ExhaustReason};

    fn groups(n: usize, gs: &[&[usize]]) -> Vec<GroupConstraint> {
        gs.iter()
            .map(|g| GroupConstraint::new(SymbolSet::from_members(n, g.iter().copied())))
            .collect()
    }

    #[test]
    fn codes_are_distinct_and_min_length() {
        for n in [2usize, 3, 5, 8, 12, 17, 33] {
            let cs = groups(n, &[&[0, 1]]);
            let r = picola_encode(n, &cs);
            assert_eq!(r.encoding.num_symbols(), n);
            assert_eq!(r.encoding.nv(), min_code_length(n));
        }
    }

    #[test]
    fn satisfiable_instances_are_satisfied() {
        // 8 symbols, 3 bits: three disjoint faces of sizes 2/2/2 all fit.
        let cs = groups(8, &[&[0, 1], &[2, 3], &[4, 5]]);
        let r = picola_encode(8, &cs);
        for c in &cs {
            assert!(
                r.encoding.satisfies(c.members()),
                "unsatisfied {c}; encoding:\n{}",
                r.encoding
            );
        }
    }

    #[test]
    fn infeasible_constraints_get_guides() {
        // n = 8, nv = 3, no spare codes: a 3-member face needs a spare word
        // inside its 4-code cube, so both constraints are unembeddable.
        // Classification must detect this up front and substitute guides.
        let cs = groups(8, &[&[0, 1, 2], &[3, 4, 5]]);
        let r = picola_encode(8, &cs);
        for c in &cs {
            assert!(!r.encoding.satisfies(c.members()));
        }
        let infeasible = r
            .matrix
            .constraints()
            .iter()
            .filter(|tc| tc.status() == ConstraintStatus::Infeasible)
            .count();
        assert!(infeasible >= 2, "both originals are unembeddable");
        assert!(
            r.guides_generated() >= 2,
            "each original spawns a guide over its intruders"
        );
    }

    #[test]
    fn rival_constraints_with_spare_codes() {
        // n = 6, nv = 3: two spare code words. Two disjoint 3-member faces
        // each need one spare — the budget just suffices and PICOLA should
        // embed both: e.g. codes 00x/0x0-ish faces.
        let cs = groups(6, &[&[0, 1, 2], &[3, 4, 5]]);
        let r = picola_encode(6, &cs);
        let sat = cs
            .iter()
            .filter(|c| r.encoding.satisfies(c.members()))
            .count();
        assert!(sat >= 1, "at least one face must embed:\n{}", r.encoding);
    }

    #[test]
    fn options_toggle_guides() {
        let cs = groups(8, &[&[0, 1, 2], &[3, 4, 5]]);
        let with = picola_encode(8, &cs);
        let without = picola_encode_with(
            8,
            &cs,
            &PicolaOptions {
                disable_guides: true,
                ..PicolaOptions::default()
            },
        );
        assert!(without.guides_generated() == 0);
        // with guides, the run *may* add them (not guaranteed, but the
        // rounds bookkeeping must be consistent)
        assert_eq!(with.rounds.len(), 4);
    }

    #[test]
    fn nv_override_gives_room() {
        let cs = groups(8, &[&[0, 1, 2], &[3, 4, 5]]);
        let r = picola_encode_with(
            8,
            &cs,
            &PicolaOptions {
                nv_override: Some(4),
                ..PicolaOptions::default()
            },
        );
        // with 4 bits both 3-member faces fit
        assert!(r.encoding.satisfies(cs[0].members()));
        assert!(r.encoding.satisfies(cs[1].members()));
    }

    #[test]
    fn encoder_trait_is_usable_as_object() {
        let enc: Box<dyn Encoder> = Box::<PicolaEncoder>::default();
        let cs = groups(4, &[&[0, 1]]);
        let e = enc.encode(4, &cs);
        assert_eq!(e.nv(), 2);
        assert_eq!(enc.name(), "picola");
    }

    #[test]
    fn try_encode_rejects_bad_input() {
        let budget = Budget::unlimited();
        let cs = groups(4, &[&[0, 1]]);
        let opts = PicolaOptions::default();
        assert!(matches!(
            try_picola_encode_with(1, &[], &opts, &budget),
            Err(PicolaError::InvalidInput(_))
        ));
        let small = PicolaOptions {
            nv_override: Some(1),
            ..PicolaOptions::default()
        };
        assert!(matches!(
            try_picola_encode_with(4, &cs, &small, &budget),
            Err(PicolaError::InvalidInput(_))
        ));
        let huge = PicolaOptions {
            nv_override: Some(40),
            ..PicolaOptions::default()
        };
        assert!(matches!(
            try_picola_encode_with(4, &cs, &huge, &budget),
            Err(PicolaError::InvalidInput(_))
        ));
        // constraint universe mismatch: members sized for 8 symbols, n = 4
        let wrong = groups(8, &[&[0, 1]]);
        assert!(matches!(
            try_picola_encode_with(4, &wrong, &opts, &budget),
            Err(PicolaError::InvalidInput(_))
        ));
    }

    #[test]
    fn exhausted_budget_still_yields_valid_encoding() {
        let cs = groups(8, &[&[0, 1], &[2, 3], &[4, 5]]);
        let budget = Budget::with_work_limit(0);
        let r = try_picola_encode_with(8, &cs, &PicolaOptions::default(), &budget)
            .expect("degraded, not failed");
        assert_eq!(r.encoding.num_symbols(), 8);
        assert_eq!(r.encoding.nv(), 3);
        assert!(matches!(r.completion, Completion::Degraded { .. }));
    }

    #[test]
    fn tight_budget_degrades_but_unbounded_result_matches_legacy() {
        let cs = groups(8, &[&[0, 1], &[2, 3], &[4, 5]]);
        let unbounded =
            try_picola_encode_with(8, &cs, &PicolaOptions::default(), &Budget::unlimited())
                .unwrap();
        assert!(matches!(unbounded.completion, Completion::Complete));
        let legacy = picola_encode(8, &cs);
        assert_eq!(unbounded.encoding, legacy.encoding);
        // a budget of a few ticks cuts the column phase or refinement short
        for limit in [1u64, 2, 4] {
            let budget = Budget::with_work_limit(limit);
            let r = try_picola_encode_with(8, &cs, &PicolaOptions::default(), &budget).unwrap();
            assert_eq!(r.encoding.num_symbols(), 8);
        }
    }

    #[test]
    fn injected_fault_at_column_phase_degrades() {
        let _guard = chaos::arm("picola.column", 0);
        let cs = groups(8, &[&[0, 1], &[2, 3]]);
        let budget = Budget::unlimited();
        let r = try_picola_encode_with(8, &cs, &PicolaOptions::default(), &budget).unwrap();
        assert!(matches!(
            r.completion,
            Completion::Degraded {
                reason: ExhaustReason::Injected,
                ..
            }
        ));
        assert_eq!(r.encoding.num_symbols(), 8);
    }

    #[test]
    fn injected_fault_at_refine_degrades() {
        let _guard = chaos::arm("picola.refine", 0);
        let cs = groups(8, &[&[0, 1], &[2, 3]]);
        let budget = Budget::unlimited();
        let r = try_picola_encode_with(8, &cs, &PicolaOptions::default(), &budget).unwrap();
        assert_eq!(r.encoding.num_symbols(), 8);
        assert!(matches!(r.completion, Completion::Degraded { .. }));
    }

    #[test]
    fn portfolio_shares_one_budget() {
        let cs = groups(8, &[&[0, 1], &[2, 3]]);
        let opts = PicolaOptions::default();
        let models = [CostModel::PaperWeighted, CostModel::UniformDichotomy];
        let budget = Budget::unlimited();
        let r = try_picola_encode_portfolio(8, &cs, &opts, &models, &budget).unwrap();
        assert_eq!(r.encoding.num_symbols(), 8);
        assert!(matches!(r.completion, Completion::Complete));
        assert!(matches!(
            try_picola_encode_portfolio(8, &cs, &opts, &[], &budget),
            Err(PicolaError::InvalidInput(_))
        ));
    }

    #[test]
    fn encode_bounded_reports_completion() {
        let enc = PicolaEncoder::default();
        let cs = groups(8, &[&[0, 1]]);
        let budget = Budget::with_work_limit(0);
        let (e, completion) = enc.encode_bounded(8, &cs, &budget);
        assert_eq!(e.num_symbols(), 8);
        assert!(matches!(completion, Completion::Degraded { .. }));
    }

    #[test]
    fn paper_figure1_style_instance() {
        // 15 symbols, 4 bits, the four constraints of Figure 1b:
        // L1 = {s2, s6, s8, s14}, L2 = {s1, s2}, L3 = {s9, s14},
        // L4 = {s6, s7, s8, s9, s14} (1-based symbol names, 0-based here).
        let n = 15;
        let cs = groups(
            n,
            &[&[1, 5, 7, 13], &[0, 1], &[8, 13], &[5, 6, 7, 8, 13]],
        );
        let r = picola_encode(n, &cs);
        // L4 has 5 members: its supercube needs dim >= 3, i.e. 8 codes for
        // 5 members + room to exclude the other 10 symbols in 16 codes; the
        // instance forces trade-offs. PICOLA must satisfy at least two of
        // the four (the paper's encodings satisfy rows 1-3).
        let sat = cs
            .iter()
            .filter(|c| r.encoding.satisfies(c.members()))
            .count();
        assert!(sat >= 2, "only {sat} constraints satisfied:\n{}", r.encoding);
    }
}
