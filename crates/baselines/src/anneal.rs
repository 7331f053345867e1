//! A simulated-annealing encoder over the conventional objective.
//!
//! NOVA's non-hybrid modes anneal over code assignments; this encoder
//! reproduces that style: random swap/move proposals accepted by the
//! Metropolis rule on the *satisfied-constraint weight* objective. It is a
//! second conventional baseline for the benches — stronger than greedy
//! placement on tangled instances, still blind to the cost of violated
//! constraints.
//!
//! The anneal loop itself never minimizes: the objective is pure bit
//! arithmetic over the codes, kept by the incrementally maintained face
//! table of [`crate::objective`], which prices a proposal by the faces it
//! touches and commits an accepted one in place, bit-identical to a full
//! rescan (so the RNG stream and every result are unchanged). Only the
//! final encoding is priced through the cached evaluation pipeline
//! ([`crate::objective::minimized_cubes`]), which returns bit-identical
//! costs with the memo on or off (see the cache-parity test below).

use crate::objective::FaceTable;
use picola_constraints::{Encoding, GroupConstraint};
use picola_core::{Budget, Completion, Encoder, RefineCand};
use picola_logic::obs;
use picola_constraints::min_code_length;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Simulated-annealing encoder.
#[derive(Debug, Clone)]
pub struct AnnealingEncoder {
    /// RNG seed (runs are reproducible).
    pub seed: u64,
    /// Proposals per temperature step.
    pub moves_per_temp: usize,
    /// Number of temperature steps.
    pub temp_steps: usize,
    /// Initial temperature (in objective units).
    pub initial_temp: f64,
    /// Multiplicative cooling factor per step.
    pub cooling: f64,
}

impl Default for AnnealingEncoder {
    fn default() -> Self {
        AnnealingEncoder {
            seed: 0xDA7E_1999,
            moves_per_temp: 200,
            temp_steps: 60,
            initial_temp: 4.0,
            cooling: 0.92,
        }
    }
}

impl AnnealingEncoder {
    /// Default schedule with an explicit RNG seed.
    ///
    /// Portfolio runs use this to hand every worker its own deterministic
    /// stream: the seed travels with the encoder value, so the result is
    /// bit-identical whether the member runs sequentially or on a thread.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        AnnealingEncoder {
            seed,
            ..AnnealingEncoder::default()
        }
    }
}

impl Encoder for AnnealingEncoder {
    fn name(&self) -> &str {
        "anneal"
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
        // Below two symbols there is nothing to swap, and a swap proposal
        // would spin looking for a second symbol.
        if n < 2 {
            return (Encoding::natural(n), budget.completion());
        }
        let nv = min_code_length(n);
        let size = 1usize << nv;
        let mut rng = StdRng::seed_from_u64(self.seed);
        // The whole anneal runs on one incrementally maintained face table:
        // it holds the current codes and their occupied words, prices each
        // proposal by the faces it touches, and commits accepted ones in
        // place. Swaps permute codes and moves target free words, so
        // distinctness holds by construction and no per-proposal
        // `Encoding::new` validation (an `O(2^nv)` scan plus allocation) is
        // needed — an `Encoding` is built once, at the end.
        let mut table = FaceTable::build((0..n as u32).collect(), nv, constraints);
        let mut obj = table.weight();
        let mut best_codes = table.codes().to_vec();
        let mut best_obj = obj;
        let mut temp = self.initial_temp;
        let mut accepted = 0u64;
        let mut rejected = 0u64;

        'cool: for _ in 0..self.temp_steps {
            for _ in 0..self.moves_per_temp {
                if !budget.tick("anneal.move", 1) {
                    break 'cool;
                }
                let cand = if size > n && rng.random_bool(0.3) {
                    // move a symbol to a free code word; exactly
                    // `size - n` words are free at all times
                    let i = rng.random_range(0..n);
                    let nth = rng.random_range(0..size - n);
                    RefineCand::Move(i, nth_free_word(table.occupied_words(), size, nth))
                } else {
                    let i = rng.random_range(0..n);
                    let mut j = rng.random_range(0..n);
                    while j == i {
                        j = rng.random_range(0..n);
                    }
                    RefineCand::Swap(i, j)
                };
                let cand_obj = table.eval(cand);
                let accept = cand_obj >= obj
                    || rng.random_range(0.0..1.0) < ((cand_obj - obj) / temp.max(1e-9)).exp();
                if accept {
                    accepted += 1;
                    table.apply(cand);
                    obj = cand_obj;
                    if obj > best_obj {
                        best_codes.clear();
                        best_codes.extend_from_slice(table.codes());
                        best_obj = obj;
                    }
                } else {
                    rejected += 1;
                }
            }
            temp *= self.cooling;
        }
        obs::count(obs::Counter::AnnealAccepts, accepted);
        obs::count(obs::Counter::AnnealRejects, rejected);
        // Proposals keep codes distinct by construction; fall back to the
        // natural encoding rather than panic if that invariant ever breaks.
        let best = Encoding::new(nv, best_codes).unwrap_or_else(|_| Encoding::natural(n));
        (best, budget.completion())
    }
}

/// Return the `nth` (0-based) clear bit of `used` below `size`, in
/// ascending order — the same word the old explicit free list produced at
/// index `nth`, so the proposal distribution is unchanged.
///
/// Callers guarantee `nth` is less than the number of free words; the
/// fallback return is unreachable then and merely keeps the function total.
fn nth_free_word(used: &[u64], size: usize, mut nth: usize) -> u32 {
    for (wi, &w) in used.iter().enumerate() {
        let base = wi * 64;
        let width = (size - base).min(64);
        let mask = if width == 64 { !0u64 } else { (1u64 << width) - 1 };
        let mut free = !w & mask;
        let count = free.count_ones() as usize;
        if nth < count {
            for _ in 0..nth {
                free &= free - 1;
            }
            return (base as u32) + free.trailing_zeros();
        }
        nth -= count;
    }
    0
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
    fn anneal_output_prices_identically_with_and_without_cache() {
        use crate::objective::minimized_cubes;
        use picola_core::{EvalContext, EvalOptions};
        let cs = groups(8, &[&[0, 4], &[1, 5], &[2, 3, 6]]);
        let enc = AnnealingEncoder::default().encode(8, &cs);
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
    fn annealing_finds_easy_embeddings() {
        let cs = groups(8, &[&[0, 4], &[1, 5]]);
        let enc = AnnealingEncoder::default().encode(8, &cs);
        let sat = cs.iter().filter(|c| enc.satisfies(c.members())).count();
        assert_eq!(sat, 2, "{enc}");
    }

    #[test]
    fn annealing_is_reproducible() {
        let cs = groups(10, &[&[0, 1, 2], &[5, 6]]);
        let a = AnnealingEncoder::default().encode(10, &cs);
        let b = AnnealingEncoder::default().encode(10, &cs);
        assert_eq!(a, b);
    }

    #[test]
    fn exhausted_budget_returns_valid_encoding() {
        use picola_core::{Budget, Completion};
        let cs = groups(8, &[&[0, 4], &[1, 5]]);
        let budget = Budget::with_work_limit(3);
        let (enc, completion) = AnnealingEncoder::default().encode_bounded(8, &cs, &budget);
        assert_eq!(enc.num_symbols(), 8);
        assert!(matches!(completion, Completion::Degraded { .. }));
    }

    #[test]
    fn injected_fault_degrades_without_panic() {
        use picola_core::{chaos, Budget, Completion};
        let _guard = chaos::arm("anneal.move", 5);
        let cs = groups(8, &[&[0, 4]]);
        let (enc, completion) =
            AnnealingEncoder::default().encode_bounded(8, &cs, &Budget::unlimited());
        assert_eq!(enc.num_symbols(), 8);
        assert!(matches!(completion, Completion::Degraded { .. }));
    }

    #[test]
    fn fewer_than_two_symbols_return_the_natural_encoding() {
        use picola_core::Budget;
        for n in [0usize, 1] {
            let (enc, _) =
                AnnealingEncoder::default().encode_bounded(n, &[], &Budget::with_work_limit(1000));
            assert_eq!(enc, Encoding::natural(n), "n = {n}");
        }
    }

    #[test]
    fn nth_free_word_matches_a_scan() {
        // 11 of 16 words used, scattered across the single tail word.
        let size = 16usize;
        let occupied = [0u32, 1, 2, 3, 5, 7, 8, 11, 12, 13, 15];
        let mut used = vec![0u64; 1];
        for &c in &occupied {
            used[c as usize / 64] |= 1u64 << (c % 64);
        }
        let free: Vec<u32> = (0..size as u32)
            .filter(|w| !occupied.contains(w))
            .collect();
        for (nth, &expect) in free.iter().enumerate() {
            assert_eq!(nth_free_word(&used, size, nth), expect);
        }
    }

    #[test]
    fn with_seed_changes_only_the_seed() {
        let enc = AnnealingEncoder::with_seed(42);
        let def = AnnealingEncoder::default();
        assert_eq!(enc.seed, 42);
        assert_eq!(enc.moves_per_temp, def.moves_per_temp);
        assert_eq!(enc.temp_steps, def.temp_steps);
    }

    #[test]
    fn annealing_never_beats_validity() {
        let cs = groups(9, &[&[0, 8]]);
        let enc = AnnealingEncoder::default().encode(9, &cs);
        assert_eq!(enc.num_symbols(), 9);
        assert_eq!(enc.nv(), 4);
    }
}
