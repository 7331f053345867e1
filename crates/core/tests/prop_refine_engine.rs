//! Property suite diffing the incremental refine engine against the
//! from-scratch reference paths.
//!
//! Three layers, matching the engine's structure:
//!
//! - **Table maintenance**: after any valid sequence of swap/move
//!   applications, the [`CodeTable`]'s cached per-constraint costs equal a
//!   full greedy recompute from the current codes, and every candidate's
//!   [`CodeTable::eval`] delta equals the recompute-the-world difference.
//!   Exercised at three code-space sizes so the single-word masked,
//!   multi-word masked, and unmasked list evaluation paths are all covered.
//! - **Scratch reuse**: [`greedy_codes_cubes_into`] through one reused
//!   [`CubesScratch`] returns exactly [`greedy_codes_cubes`].
//! - **End to end**: PICOLA encodings are bit-identical across thread
//!   counts.

// Tests are exempt from the panic-freedom policy; clippy's in-tests
// exemption misses integration-test helpers, so waive it explicitly.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use picola_constraints::{GroupConstraint, SymbolSet};
use picola_core::{
    greedy_codes_cubes, greedy_codes_cubes_into, picola_encode_with, CodeTable, CubesScratch,
    PicolaOptions, RefineCand, RefineScratch,
};
use proptest::prelude::*;

const N: usize = 10;

fn group_sets(n: usize) -> impl Strategy<Value = Vec<GroupConstraint>> {
    proptest::collection::vec(proptest::collection::vec(0..n, 2..6), 1..8).prop_map(
        move |groups| {
            groups
                .into_iter()
                .map(|g| GroupConstraint::new(SymbolSet::from_members(n, g)))
                .collect()
        },
    )
}

/// Uniformly scattered distinct codes: a shuffle of the code space,
/// truncated to `N` entries.
fn scattered_codes(nv: usize) -> impl Strategy<Value = Vec<u32>> {
    Just((0..1u32 << nv).collect::<Vec<u32>>())
        .prop_shuffle()
        .prop_map(|mut v| {
            v.truncate(N);
            v
        })
}

/// Raw `(is_swap, a, b)` action scripts, decoded against the evolving
/// occupancy by [`decode_action`].
fn action_scripts() -> impl Strategy<Value = Vec<(bool, usize, usize)>> {
    proptest::collection::vec((any::<bool>(), 0..64usize, 0..64usize), 0..10)
}

/// Turns a raw action into a valid candidate for the current codes: swaps
/// of two distinct symbols, moves onto a currently free word only.
fn decode_action(
    (is_swap, a, b): (bool, usize, usize),
    codes: &[u32],
    size: usize,
) -> Option<RefineCand> {
    let n = codes.len();
    if is_swap {
        let (i, j) = (a % n, b % n);
        (i != j).then(|| RefineCand::Swap(i.min(j), i.max(j)))
    } else {
        let free: Vec<u32> = (0..size as u32).filter(|w| !codes.contains(w)).collect();
        (!free.is_empty()).then(|| RefineCand::Move(a % n, free[b % free.len()]))
    }
}

fn full_costs(codes: &[u32], active: &[&GroupConstraint]) -> Vec<usize> {
    active
        .iter()
        .map(|c| greedy_codes_cubes(codes, c.members()))
        .collect()
}

/// The shared body of the per-`nv` maintenance properties: replay an
/// action script through the table, diffing eval against the full
/// recompute before each application and the cached costs after it.
fn check_table_maintenance(
    nv: usize,
    groups: &[GroupConstraint],
    mut codes: Vec<u32>,
    script: &[(bool, usize, usize)],
    extra_cands: &[(bool, usize, usize)],
) -> Result<(), TestCaseError> {
    let size = 1usize << nv;
    let active: Vec<&GroupConstraint> = groups.iter().filter(|c| !c.is_trivial()).collect();
    let mut scratch = RefineScratch::new();
    let mut table = CodeTable::build(nv, codes.clone(), &active, &mut scratch);

    for &action in script {
        // A handful of read-only evaluations against the current state —
        // the extra candidates probe moves/swaps that are *not* applied.
        for &probe in extra_cands.iter().chain([&action]) {
            let Some(cand) = decode_action(probe, &codes, size) else {
                continue;
            };
            let mut after = codes.clone();
            match cand {
                RefineCand::Swap(i, j) => after.swap(i, j),
                RefineCand::Move(i, w) => after[i] = w,
            }
            let expect: i64 = full_costs(&after, &active)
                .iter()
                .zip(full_costs(&codes, &active))
                .map(|(&a, b)| a as i64 - b as i64)
                .sum();
            prop_assert_eq!(table.eval(cand, &mut scratch), expect, "eval {:?}", cand);
        }

        let Some(cand) = decode_action(action, &codes, size) else {
            continue;
        };
        table.apply(cand, &mut scratch);
        match cand {
            RefineCand::Swap(i, j) => codes.swap(i, j),
            RefineCand::Move(i, w) => codes[i] = w,
        }
        prop_assert_eq!(table.codes(), codes.as_slice());
        let fresh = full_costs(&codes, &active);
        for (k, &want) in fresh.iter().enumerate() {
            prop_assert_eq!(table.cost(k), want, "constraint {} after {:?}", k, cand);
        }
        prop_assert_eq!(table.total_cost(), fresh.iter().sum::<usize>());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `nv = 4`: 16 code words — the single-`u64` masked evaluation path.
    #[test]
    fn table_maintenance_single_word_masked(
        groups in group_sets(N),
        codes in scattered_codes(4),
        script in action_scripts(),
        extra in action_scripts(),
    ) {
        check_table_maintenance(4, &groups, codes, &script, &extra)?;
    }

    /// `nv = 7`: 128 code words — the multi-word masked path.
    #[test]
    fn table_maintenance_multi_word_masked(
        groups in group_sets(N),
        codes in scattered_codes(7),
        script in action_scripts(),
        extra in action_scripts(),
    ) {
        check_table_maintenance(7, &groups, codes, &script, &extra)?;
    }

    /// `nv = 10`: 1024 code words — beyond `MASKED_WORDS_MAX`, the cached
    /// list path.
    #[test]
    fn table_maintenance_unmasked_lists(
        groups in group_sets(N),
        codes in scattered_codes(10),
        script in action_scripts(),
    ) {
        check_table_maintenance(10, &groups, codes, &script, &[])?;
    }

    /// One reused scratch returns exactly what the allocating greedy does,
    /// across constraints evaluated back to back (stale-buffer detector).
    #[test]
    fn scratch_reuse_matches_allocating_greedy(
        groups in group_sets(N),
        codes in scattered_codes(5),
    ) {
        let mut scratch = CubesScratch::default();
        for c in groups.iter().filter(|c| !c.is_trivial()) {
            prop_assert_eq!(
                greedy_codes_cubes_into(&codes, c.members(), &mut scratch),
                greedy_codes_cubes(&codes, c.members())
            );
        }
    }

    /// Encodings are bit-identical across thread counts. (The name predates
    /// the removal of the second refine engine; it stays because the
    /// vendored proptest seeds each property's inputs from its name.)
    #[test]
    fn engines_and_threads_agree(groups in group_sets(N)) {
        let runs: Vec<Vec<u32>> = [1, 4]
            .into_iter()
            .map(|threads| {
                let opts = PicolaOptions { threads, ..PicolaOptions::default() };
                picola_encode_with(N, &groups, &opts).encoding.codes().to_vec()
            })
            .collect();
        for r in &runs[1..] {
            prop_assert_eq!(r, &runs[0]);
        }
    }
}
