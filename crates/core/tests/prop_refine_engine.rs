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
//! - **Term memo**: on seeded large-tier-shaped instances, every valid
//!   candidate is evaluated twice after each applied candidate, through
//!   one scratch whose memo answers the second sweep, and every delta is
//!   diffed against the from-scratch recompute; one scratch alternating
//!   between two tables never answers for the wrong one.

// Tests are exempt from the panic-freedom policy; clippy's in-tests
// exemption misses integration-test helpers, so waive it explicitly.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use picola_constraints::{GroupConstraint, SymbolSet};
use picola_core::{
    greedy_codes_cubes, greedy_codes_cubes_into, picola_encode_with, CodeTable, CubesScratch,
    PicolaOptions, RefineCand, RefineScratch,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

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

/// Constraints shaped like the large corpus tier: `n/4..=n/2` groups of
/// 2–6 members, each member drawn half the time from a hot pool of the
/// first `n/4` symbols, so rival faces overlap.
fn large_tier_groups(n: usize, rng: &mut StdRng) -> Vec<GroupConstraint> {
    let pool = n / 4;
    (0..rng.random_range(n / 4..=n / 2))
        .map(|_| {
            let size = rng.random_range(2..=6usize);
            let mut members: Vec<usize> = Vec::with_capacity(size);
            while members.len() < size {
                let s = if rng.random_bool(0.5) {
                    rng.random_range(0..pool)
                } else {
                    rng.random_range(0..n)
                };
                if !members.contains(&s) {
                    members.push(s);
                }
            }
            GroupConstraint::new(SymbolSet::from_members(n, members))
        })
        .collect()
}

/// `n` distinct codes scattered over the `2^nv` code space.
fn shuffled_codes(n: usize, nv: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut all: Vec<u32> = (0..1u32 << nv).collect();
    all.shuffle(rng);
    all.truncate(n);
    all
}

/// Every valid candidate under `codes`: all swaps, then every move to a
/// free word.
fn valid_candidates(codes: &[u32], size: usize) -> Vec<RefineCand> {
    let n = codes.len();
    let mut used = vec![false; size];
    for &c in codes {
        used[c as usize] = true;
    }
    let mut out = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            out.push(RefineCand::Swap(i, j));
        }
    }
    for i in 0..n {
        for w in (0..size as u32).filter(|&w| !used[w as usize]) {
            out.push(RefineCand::Move(i, w));
        }
    }
    out
}

fn applied(codes: &[u32], cand: RefineCand) -> Vec<u32> {
    let mut after = codes.to_vec();
    match cand {
        RefineCand::Swap(i, j) => after.swap(i, j),
        RefineCand::Move(i, w) => after[i] = w,
    }
    after
}

/// Per constraint, the `(fixed, values)` bits of the supercube of its
/// member codes under `codes`, computed from the codes alone.
fn supercubes(codes: &[u32], nv: usize, active: &[&GroupConstraint]) -> Vec<(u32, u32)> {
    let full = (1u32 << nv) - 1;
    active
        .iter()
        .map(|c| {
            let (and, or) = c
                .members()
                .iter()
                .fold((full, 0), |(a, o), s| (a & codes[s], o | codes[s]));
            let fixed = full & !(and ^ or);
            (fixed, and & fixed)
        })
        .collect()
}

/// The from-scratch delta of `cand`: the touched constraints recounted
/// under the new codes. A constraint holding no moved symbol keeps its
/// member codes, and its greedy cubes lie inside their supercube `sc`; a
/// swap leaves its forbidden *set* unchanged, and a move changes the
/// forbidden codes inside `sc` only if the old or the new word lies in it.
fn reference_delta(
    codes: &[u32],
    cand: RefineCand,
    active: &[&GroupConstraint],
    base: &[usize],
    sc: &[(u32, u32)],
    scratch: &mut CubesScratch,
) -> i64 {
    let after = applied(codes, cand);
    let inside = |k: usize, w: u32| (w ^ sc[k].1) & sc[k].0 == 0;
    (0..active.len())
        .filter(|&k| match cand {
            RefineCand::Swap(i, j) => {
                active[k].members().contains(i) || active[k].members().contains(j)
            }
            RefineCand::Move(i, w) => {
                active[k].members().contains(i) || inside(k, codes[i]) || inside(k, w)
            }
        })
        .map(|k| {
            greedy_codes_cubes_into(&after, active[k].members(), scratch) as i64 - base[k] as i64
        })
        .sum()
}

/// One applied candidate of the script: a swap or a move, half each.
fn script_step(codes: &[u32], size: usize, rng: &mut StdRng) -> RefineCand {
    let n = codes.len();
    if n < size && rng.random_bool(0.5) {
        let free: Vec<u32> = (0..size as u32).filter(|w| !codes.contains(w)).collect();
        RefineCand::Move(
            rng.random_range(0..n),
            free[rng.random_range(0..free.len())],
        )
    } else {
        let i = rng.random_range(0..n);
        let j = (i + rng.random_range(1..n)) % n;
        RefineCand::Swap(i.min(j), i.max(j))
    }
}

/// Replays `steps` applied candidates on a seeded instance. Before the
/// first application and after every `sweep_every`-th one, each valid
/// candidate is evaluated twice through the same scratch and compared
/// with the reference; the second sweep must be answered (partly) from the
/// memo. Between sweeps the memo's entries outlive several applications.
fn check_memo_against_reference(nv: usize, n: usize, steps: usize, sweep_every: usize, seed: u64) {
    let size = 1usize << nv;
    let mut rng = StdRng::seed_from_u64(seed);
    let groups = large_tier_groups(n, &mut rng);
    let active: Vec<&GroupConstraint> = groups.iter().filter(|c| !c.is_trivial()).collect();
    let mut codes = shuffled_codes(n, nv, &mut rng);
    let mut scratch = RefineScratch::new();
    let mut table = CodeTable::build(nv, codes.clone(), &active, &mut scratch);
    let mut reference = CubesScratch::new();
    for step in 0..=steps {
        if step % sweep_every != 0 && step != steps {
            let cand = script_step(&codes, size, &mut rng);
            table.apply(cand, &mut scratch);
            codes = applied(&codes, cand);
            continue;
        }
        let base = full_costs(&codes, &active);
        let sc = supercubes(&codes, nv, &active);
        let cands = valid_candidates(&codes, size);
        let expect: Vec<i64> = cands
            .iter()
            .map(|&c| reference_delta(&codes, c, &active, &base, &sc, &mut reference))
            .collect();
        for sweep in 0..2 {
            let reused = scratch.terms_reused();
            for (&cand, &want) in cands.iter().zip(&expect) {
                assert_eq!(
                    table.eval(cand, &mut scratch),
                    want,
                    "nv={nv} seed={seed} step={step} sweep={sweep} {cand:?}"
                );
            }
            if sweep == 1 {
                assert!(
                    scratch.terms_reused() > reused,
                    "nv={nv} step={step}: the repeat sweep reused no term"
                );
            }
        }
        if step == steps {
            break;
        }
        let cand = script_step(&codes, size, &mut rng);
        table.apply(cand, &mut scratch);
        codes = applied(&codes, cand);
        assert_eq!(table.codes(), codes.as_slice());
    }
}

/// `nv = 4`: one code word (16 words hold at most 16 symbols, so this
/// size runs 12 symbols and 4 free words).
#[test]
fn term_memo_matches_reference_single_word() {
    check_memo_against_reference(4, 12, 60, 1, 0x5eed_0004);
}

/// `nv = 6`: one full code word, 40 symbols.
#[test]
fn term_memo_matches_reference_full_word() {
    check_memo_against_reference(6, 40, 60, 1, 0x5eed_0006);
}

/// `nv = 7`: two code words, 48 symbols.
#[test]
fn term_memo_matches_reference_two_words() {
    check_memo_against_reference(7, 48, 60, 1, 0x5eed_0007);
}

/// `nv = 10`: the unmasked list path, 24 symbols. Its 78,080 dense term
/// indices exceed the memo's 2^16-slot cap, so slots are shared and evict.
/// A sweep here is 24k candidates, so it sweeps after every fourth
/// application only, which keeps the debug run short.
#[test]
fn term_memo_matches_reference_unmasked() {
    check_memo_against_reference(10, 24, 60, 4, 0x5eed_000a);
}

/// One scratch alternates between two tables over different constraints
/// and the same code space, so their dense term indices collide. Each
/// table's answers must stay its own.
#[test]
fn one_scratch_never_answers_for_another_table() {
    let (nv, n) = (6usize, 40usize);
    let size = 1usize << nv;
    let mut rng = StdRng::seed_from_u64(0x5eed_00ab);
    let groups_a = large_tier_groups(n, &mut rng);
    let groups_b = large_tier_groups(n, &mut rng);
    let active_a: Vec<&GroupConstraint> = groups_a.iter().filter(|c| !c.is_trivial()).collect();
    let active_b: Vec<&GroupConstraint> = groups_b.iter().filter(|c| !c.is_trivial()).collect();
    let mut codes = shuffled_codes(n, nv, &mut rng);
    let mut scratch = RefineScratch::new();
    let mut table_a = CodeTable::build(nv, codes.clone(), &active_a, &mut scratch);
    let mut table_b = CodeTable::build(nv, codes.clone(), &active_b, &mut scratch);
    let mut reference = CubesScratch::new();
    for step in 0..12 {
        let cands = valid_candidates(&codes, size);
        let base_a = full_costs(&codes, &active_a);
        let base_b = full_costs(&codes, &active_b);
        let sc_a = supercubes(&codes, nv, &active_a);
        let sc_b = supercubes(&codes, nv, &active_b);
        for round in 0..2 {
            for (table, active, base, sc) in [
                (&table_a, &active_a, &base_a, &sc_a),
                (&table_b, &active_b, &base_b, &sc_b),
            ] {
                for &cand in &cands {
                    let want = reference_delta(&codes, cand, active, base, sc, &mut reference);
                    assert_eq!(
                        table.eval(cand, &mut scratch),
                        want,
                        "step={step} round={round} {cand:?}"
                    );
                }
            }
        }
        let cand = script_step(&codes, size, &mut rng);
        table_a.apply(cand, &mut scratch);
        table_b.apply(cand, &mut scratch);
        codes = applied(&codes, cand);
    }
}
