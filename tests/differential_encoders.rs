//! Differential-oracle layer: every encoder, many generated instances, one
//! independent validity oracle.
//!
//! The oracle re-derives everything from raw codes with its own arithmetic —
//! no `Encoding::satisfies`, no supercube helpers — so a shared bug in the
//! library's face machinery cannot vouch for itself. Checked per encoder and
//! instance:
//!
//! 1. the encoding is valid: `n` codes, all distinct, all within `nv` =
//!    `ceil(log2 n)` bits;
//! 2. the library's satisfied/violated verdict for every non-trivial
//!    constraint matches the oracle's face-embedding check;
//! 3. the parallel portfolio returns the same winner, winning cost, and
//!    winning encoding as a sequential run;
//! 4. the evaluation pipeline returns bit-identical results for every
//!    (cover engine, cache) combination — the flat engine and the
//!    minimization memo are performance levers, never semantic ones.

// Tests are exempt from the panic-freedom policy; clippy's in-tests
// exemption misses integration-test helpers, so waive it explicitly.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use picola::baselines::{standard_members, standard_portfolio, NaturalEncoder};
use picola::constraints::{min_code_length, Encoding, GroupConstraint};
use picola::core::{
    evaluate_encoding_cached, Budget, CoverEngine, Encoder, EvalContext, EvalOptions,
};
use picola::sat::{exact_cost, ExactOracle};
use picola_bench::corpus::{corpus, corpus_tier, Instance, Tier};
use std::collections::HashSet;

const CORPUS_SEED: u64 = 0xD1FF;

/// Independent face-embedding oracle.
///
/// The minimal face spanned by the members fixes every bit position where
/// all member codes agree. The constraint is face-embedded iff every symbol
/// whose code agrees on all those positions is a member.
fn oracle_face_embedded(enc: &Encoding, c: &GroupConstraint) -> bool {
    let members: Vec<usize> = c.members().iter().collect();
    let Some(&first) = members.first() else {
        return true;
    };
    let anchor = enc.code(first);
    // Positions where some pair of members disagrees are free; the rest
    // are fixed at the anchor's value.
    let mut fixed = (1u32 << enc.nv()) - 1;
    for &m in &members {
        fixed &= !(enc.code(m) ^ anchor);
    }
    (0..enc.num_symbols())
        .filter(|&s| (enc.code(s) ^ anchor) & fixed == 0)
        .all(|s| c.members().contains(s))
}

fn oracle_check_valid(enc: &Encoding, inst: &Instance, encoder: &str) {
    let nv = min_code_length(inst.n);
    assert_eq!(
        enc.codes().len(),
        inst.n,
        "{}/{encoder}: wrong number of codes",
        inst.name
    );
    assert_eq!(enc.nv(), nv, "{}/{encoder}: not minimum length", inst.name);
    let distinct: HashSet<u32> = enc.codes().iter().copied().collect();
    assert_eq!(
        distinct.len(),
        inst.n,
        "{}/{encoder}: duplicate codes",
        inst.name
    );
    for &code in enc.codes() {
        assert!(
            (code as u64) < (1u64 << nv),
            "{}/{encoder}: code {code} exceeds {nv} bits",
            inst.name
        );
    }
}

#[test]
fn every_encoder_is_valid_and_honest_on_the_corpus() {
    for inst in corpus(50, CORPUS_SEED) {
        for member in standard_members(CORPUS_SEED) {
            let (enc, completion) =
                member.encode_bounded(inst.n, &inst.constraints, &Budget::unlimited());
            assert!(
                completion.is_complete(),
                "{}/{}: unlimited budget must complete",
                inst.name,
                member.name()
            );
            oracle_check_valid(&enc, &inst, member.name());
            for c in inst.constraints.iter().filter(|c| !c.is_trivial()) {
                assert_eq!(
                    enc.satisfies(c.members()),
                    oracle_face_embedded(&enc, c),
                    "{}/{}: satisfies() disagrees with the oracle on {c}",
                    inst.name,
                    member.name()
                );
            }
        }
    }
}

#[test]
fn parallel_portfolio_matches_sequential_on_the_corpus() {
    // A smaller slice: each check runs the full five-member portfolio
    // twice. Unlimited budget — the determinism contract only covers runs
    // that are not cut short by a shared work pool.
    for inst in corpus(12, CORPUS_SEED) {
        let run = |threads: usize| {
            standard_portfolio(CORPUS_SEED)
                .with_threads(threads)
                .run(inst.n, &inst.constraints, &Budget::unlimited())
        };
        let (seq, par) = match (run(1), run(4)) {
            (Some(a), Some(b)) => (a, b),
            _ => panic!("{}: portfolio produced no outcome", inst.name),
        };
        assert_eq!(seq.winner, par.winner, "{}: winner index", inst.name);
        assert_eq!(
            seq.best().cost,
            par.best().cost,
            "{}: winning cost",
            inst.name
        );
        assert_eq!(
            seq.best().encoding,
            par.best().encoding,
            "{}: winning encoding",
            inst.name
        );
        let costs = |o: &picola::core::PortfolioOutcome| {
            o.members.iter().map(|m| m.cost).collect::<Vec<_>>()
        };
        assert_eq!(costs(&seq), costs(&par), "{}: member costs", inst.name);
    }
}

#[test]
fn evaluation_is_identical_across_engines_and_cache_modes() {
    // Every (engine, cache) combination of the evaluation pipeline must
    // price every encoder's encoding identically — per-constraint cube
    // counts included, not just the total. Contexts are long-lived across
    // the whole corpus so the cached legs exercise genuine memo hits. The
    // large tier (24–128 symbols, up to 8 code bits) adds the widest
    // one-word binary covers evaluation minimizes.
    //
    // `PICOLA_ORACLE_ORDER=legacy-first` runs the legacy-oracle legs before
    // the flat ones; CI runs the suite once per order, proving the verdict
    // does not depend on which engine touches an instance first.
    let legacy_first =
        std::env::var("PICOLA_ORACLE_ORDER").is_ok_and(|v| v == "legacy-first");
    let mut legs = [
        (CoverEngine::Flat, true),
        (CoverEngine::Flat, false),
        (CoverEngine::Legacy, true),
        (CoverEngine::Legacy, false),
    ];
    if legacy_first {
        legs.swap(0, 2);
        legs.swap(1, 3);
    }
    let mut ctxs: Vec<EvalContext> = legs.iter().map(|_| EvalContext::new()).collect();
    let mut check = |inst: &Instance, enc: &Encoding, encoder: &str| {
        let mut evals = legs
            .iter()
            .zip(ctxs.iter_mut())
            .map(|(&(engine, cache), ctx)| {
                let opts = EvalOptions {
                    engine,
                    cache,
                    ..EvalOptions::default()
                };
                evaluate_encoding_cached(enc, &inst.constraints, &opts, ctx)
            });
        let reference = evals.next().expect("at least one leg");
        for (ev, &(engine, cache)) in evals.zip(&legs[1..]) {
            assert_eq!(
                ev, reference,
                "{}/{encoder}: {engine:?}/cache={cache} diverges from \
                 {:?}/cache={} (the reference leg)",
                inst.name, legs[0].0, legs[0].1
            );
        }
    };
    for inst in corpus(20, CORPUS_SEED) {
        for member in standard_members(CORPUS_SEED) {
            let (enc, _) =
                member.encode_bounded(inst.n, &inst.constraints, &Budget::unlimited());
            check(&inst, &enc, member.name());
        }
    }
    for inst in corpus_tier(8, 0x0001_C01A, Tier::Large) {
        let (enc, _) =
            NaturalEncoder.encode_bounded(inst.n, &inst.constraints, &Budget::unlimited());
        check(&inst, &enc, "natural");
    }
    // The cached flat leg must have actually hit the memo: repeat constraint
    // functions recur across encodings and instances.
    assert!(ctxs[0].cache.hits() > 0, "corpus must produce memo hits");
    assert_eq!(ctxs[1].cache.hits(), 0, "uncached leg must never hit");
}

#[test]
fn sat_optimum_is_a_proven_floor_under_every_heuristic() {
    // The optimality-gap layer: on every small instance (nv <= 4) the SAT
    // oracle's proven optimum must (a) re-cost bit-for-bit under the exact
    // branch-and-bound evaluator — two independent exact paths agreeing —
    // and (b) lower-bound every heuristic member's exact cost. Debug builds
    // take a shorter slice; CI runs the full one in release. The per-probe
    // conflict cap deterministically skips the proof on instances whose
    // final UNSAT blows up (conflicts are machine-independent, so the
    // proved/skipped partition is identical everywhere); the witness
    // cross-check and the member floor still hold on capped instances.
    let take = if cfg!(debug_assertions) { 5 } else { 12 };
    let oracle = ExactOracle {
        conflict_limit: Some(50_000),
        ..ExactOracle::default()
    };
    let mut checked = 0usize;
    let mut proved = 0usize;
    for inst in corpus(12, CORPUS_SEED) {
        if min_code_length(inst.n) > 4 || checked == take {
            continue;
        }
        checked += 1;
        let mut member_costs = Vec::new();
        let mut warm: Option<(usize, Encoding)> = None;
        for member in standard_members(CORPUS_SEED) {
            let (enc, _) =
                member.encode_bounded(inst.n, &inst.constraints, &Budget::unlimited());
            let cost = exact_cost(&enc, &inst.constraints);
            if warm.as_ref().is_none_or(|(c, _)| cost < *c) {
                warm = Some((cost, enc.clone()));
            }
            member_costs.push((member.name().to_owned(), cost));
        }
        let out = oracle
            .prove_from(
                inst.n,
                &inst.constraints,
                warm.as_ref().map(|(_, e)| e),
                &Budget::unlimited(),
            )
            .unwrap_or_else(|e| panic!("{}: oracle rejected the instance: {e}", inst.name));
        assert!(out.completion.is_complete(), "{}: budget intact", inst.name);
        assert_eq!(
            exact_cost(&out.encoding, &inst.constraints),
            out.cost,
            "{}: SAT witness and exact evaluator disagree",
            inst.name
        );
        // The oracle only ever improves on the best heuristic seed, so the
        // floor holds whether or not the proof closed.
        for (name, cost) in &member_costs {
            assert!(
                *cost >= out.cost,
                "{}: heuristic {name} scored {cost}, below the SAT witness {}",
                inst.name,
                out.cost
            );
        }
        if out.optimal {
            proved += 1;
            assert_eq!(out.cost, out.lower_bound, "{}: proven means closed gap", inst.name);
        }
    }
    assert!(checked > 0, "corpus slice must contain nv <= 4 instances");
    assert!(proved > 0, "the conflict cap must leave some proofs closed");
}

#[test]
fn portfolio_winner_is_never_beaten_by_a_member() {
    for inst in corpus(20, CORPUS_SEED) {
        let out = standard_portfolio(CORPUS_SEED)
            .run(inst.n, &inst.constraints, &Budget::unlimited())
            .unwrap_or_else(|| panic!("{}: no outcome", inst.name));
        let best = out.best().cost;
        for m in &out.members {
            assert!(
                m.cost >= best,
                "{}: member {} beat the declared winner",
                inst.name,
                m.name
            );
        }
    }
}
