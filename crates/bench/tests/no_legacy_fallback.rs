//! The flat engine handles every domain — proven over the bench corpus.
//!
//! `Counter::LegacyFallback` is a tripwire: no production path bumps it,
//! because the flat engine's dispatch is total (single-word binary fast
//! path, 1/2/4-word register-blocked rungs, dynamic-stride fallback).
//! These tests run the realistic minimization surfaces — the evaluation
//! pipeline over multi-valued constraint covers, and the MV symbolic
//! extraction flow — across the *full* small and large bench tiers under a
//! trace, and assert the fallback counter stays at exactly zero while the
//! pipeline demonstrably minimized (`MinimizeCalls > 0`). If a future
//! change reintroduces a silent legacy escape hatch and wires it to the
//! counter, both tiers fail loudly.

#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use picola_baselines::NaturalEncoder;
use picola_bench::corpus::{corpus_tier, Tier};
use picola_core::{
    evaluate_encoding_cached, Budget, Encoder, EvalContext, EvalOptions,
};
use picola_logic::{obs, Counter, Trace};

/// Evaluation pipeline over every instance of `tier`: encode with the
/// cheapest baseline, price the encoding through the cached evaluation
/// pipeline (the default engine), and tally counters across the whole tier.
fn run_tier(count: usize, tier: Tier) -> (u64, u64) {
    let trace = Trace::new();
    let span = trace.recorder().span("no-fallback");
    {
        let _cur = obs::enter(span.recorder());
        let opts = EvalOptions::default();
        for inst in corpus_tier(count, 0x0001_C01A, tier) {
            let budget = Budget::unlimited();
            let (enc, _) = NaturalEncoder.encode_bounded(inst.n, &inst.constraints, &budget);
            let mut ctx = EvalContext::new();
            let report = evaluate_encoding_cached(&enc, &inst.constraints, &opts, &mut ctx);
            assert!(
                report.evaluated > 0 || inst.constraints.is_empty(),
                "{}: evaluation pipeline did nothing",
                inst.name
            );
        }
    }
    (
        trace.counter_total(Counter::LegacyFallback),
        trace.counter_total(Counter::MinimizeCalls),
    )
}

#[test]
fn standard_tier_never_falls_back_to_legacy() {
    // Full standard tier: the same 12 instances bench_json reports on.
    let (fallbacks, minimize_calls) = run_tier(12, Tier::Standard);
    assert!(
        minimize_calls > 0,
        "standard tier must actually exercise the minimizer"
    );
    assert_eq!(
        fallbacks, 0,
        "flat engine fell back to legacy on the standard tier"
    );
}

#[test]
fn large_tier_never_falls_back_to_legacy() {
    // Full large tier: up to 128 symbols, so the constraint covers span
    // multiple cube words and exercise the 2/4-word and dynamic rungs.
    let (fallbacks, minimize_calls) = run_tier(8, Tier::Large);
    assert!(
        minimize_calls > 0,
        "large tier must actually exercise the minimizer"
    );
    assert_eq!(
        fallbacks, 0,
        "flat engine fell back to legacy on the large tier"
    );
}
