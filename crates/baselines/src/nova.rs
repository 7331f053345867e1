//! A NOVA-style baseline encoder (Villa & Sangiovanni-Vincentelli, 1990).
//!
//! Reconstruction of the *hybrid* strategies the paper compares against:
//! a greedy constructive phase embeds the heaviest face constraints into
//! free subcubes of `B^nv`, then an iterative-improvement phase swaps codes
//! to maximize the weight of **satisfied** constraints. Violated constraints
//! contribute nothing to the objective — the conventional behaviour whose
//! suboptimality motivates PICOLA.
//!
//! `i_hybrid` uses input (face) constraints only; `io_hybrid` adds a
//! code-adjacency bonus derived from the machine's next-state structure.
//!
//! Unlike the ENC-style baseline, NOVA never minimizes inside its loop —
//! the objective is pure bit arithmetic over the codes, priced per
//! candidate by the incrementally maintained face table of
//! [`crate::objective`] at the cost of the faces a swap or move touches,
//! bit-identical to a full rescan. Its *output* is priced through the
//! cached evaluation pipeline ([`crate::objective::minimized_cubes`]) like
//! every other encoder's, and that price is bit-identical whether the
//! minimization memo is consulted or not (see the cache-parity test below).

use crate::objective::{adjacency_bonus_codes, FaceTable};
use picola_constraints::{Encoding, GroupConstraint};
use picola_core::{Budget, Completion, Encoder, RefineCand};
use picola_constraints::min_code_length;

/// Which NOVA flavour to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NovaMode {
    /// Input constraints only (`NOVA -e ih`).
    #[default]
    IHybrid,
    /// Input constraints plus output (next-state) adjacency (`NOVA -e ioh`).
    IoHybrid,
}

/// The NOVA-style encoder.
#[derive(Debug, Clone, Default)]
pub struct NovaEncoder {
    /// Flavour.
    pub mode: NovaMode,
    /// Next-state adjacency weights `(state_a, state_b, weight)` used by
    /// [`NovaMode::IoHybrid`]; ignored by `IHybrid`.
    pub adjacency: Vec<(usize, usize, f64)>,
    /// Maximum improvement passes (each pass tries all code swaps once).
    pub max_passes: usize,
}

impl NovaEncoder {
    /// An `i_hybrid` encoder with default effort.
    pub fn i_hybrid() -> Self {
        NovaEncoder {
            mode: NovaMode::IHybrid,
            adjacency: Vec::new(),
            max_passes: 8,
        }
    }

    /// An `io_hybrid` encoder with the given adjacency weights.
    pub fn io_hybrid(adjacency: Vec<(usize, usize, f64)>) -> Self {
        NovaEncoder {
            mode: NovaMode::IoHybrid,
            adjacency,
            max_passes: 8,
        }
    }

    /// The objective after `cand`: the table's satisfied weight, plus for
    /// `io_hybrid` half the adjacency bonus over a patched copy of the codes
    /// in `cand_codes`. The bonus weights are not integers, so it is summed
    /// from scratch in the reference order rather than incrementally.
    fn objective(&self, table: &FaceTable, cand: RefineCand, cand_codes: &mut Vec<u32>) -> f64 {
        let base = table.eval(cand);
        match self.mode {
            NovaMode::IHybrid => base,
            NovaMode::IoHybrid => {
                cand_codes.clear();
                cand_codes.extend_from_slice(table.codes());
                match cand {
                    RefineCand::Swap(i, j) => cand_codes.swap(i, j),
                    RefineCand::Move(i, w) => cand_codes[i] = w,
                }
                base + 0.5 * adjacency_bonus_codes(cand_codes, table.nv(), &self.adjacency)
            }
        }
    }
}

/// All cubes of dimension `d` in `B^nv` as `(fixed_mask, values)` pairs.
fn cubes_of_dim(nv: usize, d: usize) -> Vec<(u32, u32)> {
    let full = ((1u64 << nv) - 1) as u32;
    let mut out = Vec::new();
    // Choose the free-bit mask (d bits free), then all value patterns for
    // the fixed bits.
    for free in 0..=full {
        if (free & full) != free || free.count_ones() as usize != d {
            continue;
        }
        let fixed = full & !free;
        let mut vals = Vec::new();
        // enumerate values over fixed bits
        let fixed_bits: Vec<u32> = (0..nv as u32).filter(|b| fixed >> b & 1 == 1).collect();
        let count = 1u32 << fixed_bits.len();
        for v in 0..count {
            let mut value = 0u32;
            for (i, &b) in fixed_bits.iter().enumerate() {
                if v >> i & 1 == 1 {
                    value |= 1 << b;
                }
            }
            vals.push(value);
        }
        for v in vals {
            out.push((fixed, v));
        }
    }
    out
}

/// Greedy constructive phase: returns codes (u32::MAX = unassigned).
///
/// Budgeted at one `nova.place` tick per constraint considered; on
/// exhaustion the remaining constraints are skipped and their symbols fall
/// through to the lowest-free-code sweep, which always completes.
fn greedy_place(n: usize, nv: usize, constraints: &[GroupConstraint], budget: &Budget) -> Vec<u32> {
    const UNASSIGNED: u32 = u32::MAX;
    let size = 1usize << nv;
    let mut code: Vec<u32> = vec![UNASSIGNED; n];
    let mut used = vec![false; size];

    // Heaviest constraints first (weight x (members - 1)), deterministic.
    let mut order: Vec<usize> = (0..constraints.len())
        .filter(|&k| !constraints[k].is_trivial())
        .collect();
    order.sort_by(|&a, &b| {
        let wa = constraints[a].weight() * (constraints[a].len() - 1);
        let wb = constraints[b].weight() * (constraints[b].len() - 1);
        wb.cmp(&wa).then(a.cmp(&b))
    });

    for k in order {
        if !budget.tick("nova.place", 1) {
            break;
        }
        let members: Vec<usize> = constraints[k].members().to_vec();
        let unplaced: Vec<usize> = members
            .iter()
            .copied()
            .filter(|&s| code[s] == UNASSIGNED)
            .collect();
        let d = constraints[k].min_dim().min(nv);
        // Find the best cube of the minimal dimension (then grow if needed)
        // that contains all placed members, no placed non-member, and has
        // room for the unplaced members.
        let mut chosen: Option<(u32, u32)> = None;
        'dims: for dim in d..=nv {
            let mut best: Option<((u32, u32), usize)> = None;
            for (fixed, values) in cubes_of_dim(nv, dim) {
                let inside = |c: u32| (c ^ values) & fixed == 0;
                let mut ok = true;
                for (s, &c) in code.iter().enumerate() {
                    if c == UNASSIGNED {
                        continue;
                    }
                    let member = constraints[k].members().contains(s);
                    if member && !inside(c) {
                        ok = false;
                        break;
                    }
                    if !member && inside(c) {
                        ok = false;
                        break;
                    }
                }
                if !ok {
                    continue;
                }
                let free_slots = (0..size as u32)
                    .filter(|&w| inside(w) && !used[w as usize])
                    .count();
                if free_slots < unplaced.len() {
                    continue;
                }
                let waste = free_slots - unplaced.len();
                if best.is_none_or(|(_, w)| waste < w) {
                    best = Some(((fixed, values), waste));
                }
            }
            if let Some((cube, _)) = best {
                chosen = Some(cube);
                break 'dims;
            }
        }
        if let Some((fixed, values)) = chosen {
            let free: Vec<u32> = (0..size as u32)
                .filter(|&w| (w ^ values) & fixed == 0 && !used[w as usize])
                .collect();
            for (s, &w) in unplaced.iter().zip(&free) {
                code[*s] = w;
                used[w as usize] = true;
            }
        }
    }

    // Any remaining symbols take the lowest free codes. `2^nv >= n`, so the
    // free iterator always has a word per unassigned symbol.
    let mut free = (0..size as u32).filter(|&w| !used[w as usize]);
    for c in code.iter_mut() {
        if *c == UNASSIGNED {
            let w = free
                .next()
                .unwrap_or_else(|| unreachable!("enough codes for all symbols"));
            *c = w;
        }
    }
    code
}

impl Encoder for NovaEncoder {
    fn name(&self) -> &str {
        match self.mode {
            NovaMode::IHybrid => "nova-ih",
            NovaMode::IoHybrid => "nova-ioh",
        }
    }

    fn encode(&self, n: usize, constraints: &[GroupConstraint]) -> Encoding {
        self.encode_bounded(n, constraints, &Budget::unlimited()).0
    }

    fn encode_bounded(
        &self,
        n: usize,
        constraints: &[GroupConstraint],
        budget: &Budget,
    ) -> (Encoding, Completion) {
        let nv = min_code_length(n);
        let placed = greedy_place(n, nv, constraints, budget);
        // Greedy placement yields distinct codes; fall back to the natural
        // codes if that invariant ever breaks rather than panicking. The
        // improvement loop then prices every candidate through one
        // incrementally maintained face table (no per-candidate copy of the
        // codes for `i_hybrid`, no `Encoding::new` validation); the
        // `Encoding` is built once at the end.
        let codes = match Encoding::new(nv, placed) {
            Ok(e) => e.into_codes(),
            Err(_) => (0..n as u32).collect(),
        };
        let size = 1usize << nv;
        let mut table = FaceTable::build(codes, nv, constraints);
        let mut cand_codes: Vec<u32> = Vec::new();

        // Iterative improvement: symbol-symbol code swaps and moves onto
        // free code words, steepest ascent per pass. One `nova.improve`
        // tick per candidate; exhaustion keeps the current (valid) best.
        let mut best_obj = match self.mode {
            NovaMode::IHybrid => table.weight(),
            NovaMode::IoHybrid => {
                table.weight() + 0.5 * adjacency_bonus_codes(table.codes(), nv, &self.adjacency)
            }
        };
        'improve: for _ in 0..self.max_passes.max(1) {
            let mut improved = false;
            // swaps
            for i in 0..n {
                for j in (i + 1)..n {
                    if !budget.tick("nova.improve", 1) {
                        break 'improve;
                    }
                    let cand = RefineCand::Swap(i, j);
                    let obj = self.objective(&table, cand, &mut cand_codes);
                    if obj > best_obj + 1e-9 {
                        table.apply(cand);
                        best_obj = obj;
                        improved = true;
                    }
                }
            }
            // moves to free codes (recheck freeness against the current
            // codes — earlier accepted moves change them)
            for i in 0..n {
                for w in 0..size as u32 {
                    if !table.is_free(w) {
                        continue;
                    }
                    if !budget.tick("nova.improve", 1) {
                        break 'improve;
                    }
                    let cand = RefineCand::Move(i, w);
                    let obj = self.objective(&table, cand, &mut cand_codes);
                    if obj > best_obj + 1e-9 {
                        table.apply(cand);
                        best_obj = obj;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        // Swaps and moves-to-free-words keep codes distinct; fall back to
        // the natural encoding rather than panic if that ever breaks.
        let enc = Encoding::new(nv, table.into_codes()).unwrap_or_else(|_| Encoding::natural(n));
        (enc, budget.completion())
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
    fn nova_output_prices_identically_with_and_without_cache() {
        use crate::objective::minimized_cubes;
        use picola_core::{EvalContext, EvalOptions};
        let cs = groups(8, &[&[0, 1], &[2, 3, 4, 5], &[0, 6], &[1, 7]]);
        let enc = NovaEncoder::i_hybrid().encode(8, &cs);
        let cached = EvalOptions::default();
        let uncached = EvalOptions {
            cache: false,
            ..EvalOptions::default()
        };
        let mut ctx = EvalContext::new();
        let a = minimized_cubes(&enc, &cs, &cached, &mut ctx);
        let b = minimized_cubes(&enc, &cs, &cached, &mut ctx); // repeat: memo hit
        let c = minimized_cubes(&enc, &cs, &uncached, &mut ctx);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn cubes_of_dim_enumerates_correctly() {
        // B^3: dim-1 cubes = 3 choose 1 free bit x 4 fixed patterns = 12
        assert_eq!(cubes_of_dim(3, 1).len(), 12);
        assert_eq!(cubes_of_dim(3, 0).len(), 8);
        assert_eq!(cubes_of_dim(3, 3).len(), 1);
    }

    #[test]
    fn nova_satisfies_easy_faces() {
        let cs = groups(8, &[&[0, 1], &[2, 3, 4, 5]]);
        let enc = NovaEncoder::i_hybrid().encode(8, &cs);
        assert!(enc.satisfies(cs[0].members()), "{enc}");
        assert!(enc.satisfies(cs[1].members()), "{enc}");
    }

    #[test]
    fn nova_produces_distinct_min_length_codes() {
        let cs = groups(11, &[&[0, 1, 2], &[4, 5], &[8, 9, 10]]);
        let enc = NovaEncoder::i_hybrid().encode(11, &cs);
        assert_eq!(enc.nv(), 4);
        assert_eq!(enc.num_symbols(), 11);
    }

    #[test]
    fn io_hybrid_pulls_adjacent_states_together() {
        let cs = groups(8, &[]);
        let adj = vec![(0, 7, 5.0), (1, 6, 5.0)];
        let enc = NovaEncoder::io_hybrid(adj.clone()).encode(8, &cs);
        let d07 = (enc.code(0) ^ enc.code(7)).count_ones();
        let d16 = (enc.code(1) ^ enc.code(6)).count_ones();
        assert!(d07 <= 1, "adjacency not honoured: {enc}");
        assert!(d16 <= 1, "adjacency not honoured: {enc}");
    }

    #[test]
    fn exhausted_budget_still_places_everyone() {
        use picola_core::{Budget, Completion};
        for limit in [0u64, 1, 5] {
            let cs = groups(11, &[&[0, 1, 2], &[4, 5], &[8, 9, 10]]);
            let budget = Budget::with_work_limit(limit);
            let (enc, completion) = NovaEncoder::i_hybrid().encode_bounded(11, &cs, &budget);
            assert_eq!(enc.num_symbols(), 11);
            assert_eq!(enc.nv(), 4);
            assert!(matches!(completion, Completion::Degraded { .. }));
        }
    }

    #[test]
    fn injected_faults_degrade_without_panic() {
        use picola_core::{chaos, Budget, Completion};
        for point in ["nova.place", "nova.improve"] {
            let _guard = chaos::arm(point, 0);
            let cs = groups(8, &[&[0, 1], &[2, 3, 4, 5]]);
            let (enc, completion) =
                NovaEncoder::i_hybrid().encode_bounded(8, &cs, &Budget::unlimited());
            assert_eq!(enc.num_symbols(), 8);
            assert!(matches!(completion, Completion::Degraded { .. }), "{point}");
        }
    }

    #[test]
    fn deterministic_output() {
        let cs = groups(10, &[&[0, 1, 2], &[5, 6]]);
        let a = NovaEncoder::i_hybrid().encode(10, &cs);
        let b = NovaEncoder::i_hybrid().encode(10, &cs);
        assert_eq!(a, b);
    }
}
