//! Differential property tests: the Wide kernel backend against Scalar.
//!
//! The wide (AVX2 / portable) cube kernels behind the flat engine promise
//! **bit-identity**: the same covers, the same completions, and the same
//! byte-for-byte traces as the scalar loops, on every stride rung and under
//! every budget. That promise is load-bearing — `MinimizeCache` /
//! `GlobalMinimizeCache` keys, golden traces, and the SAT/legacy oracles
//! all assume a cube count is a pure function of its inputs, never of the
//! host's instruction set. This suite pins it down:
//!
//! 1. Wide vs Scalar runs of [`flat_espresso_bounded`] on randomized
//!    1/2/4/8-word multi-valued domains (part counts up to 70), unlimited
//!    and budget-degraded alike, must agree on covers, completions, and
//!    trace renders. `PICOLA_ORACLE_ORDER=flat-first` flips which backend
//!    runs first (the default is scalar first); CI runs both orders.
//! 2. Kernel counter conservation: every dispatched multi-word run bumps
//!    `kernel_dispatches` plus exactly one of `kernel_wide_calls` /
//!    `kernel_scalar_calls`, so wide + scalar == dispatched always.
//! 3. The Wide-exercised tripwire: a Wide-pinned multi-word run must
//!    actually take the wide path (`KernelWideCalls > 0`,
//!    `KernelScalarCalls == 0`) — a silent fall-through to scalar would
//!    otherwise pass every bit-identity test while voiding the speedup.

// Tests are exempt from the panic-freedom policy; clippy's in-tests
// exemption misses integration-test helpers, so waive it explicitly.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use picola_logic::{
    flat_eligible, flat_espresso_bounded, set_backend_override, Budget, Completion, Cover, Cube,
    Domain, DomainBuilder, KernelBackend, MinimizeScratch, MinimizeOptions, Trace,
};
use proptest::prelude::*;

/// Restores the thread's previous backend override on drop, so a failing
/// assertion can't leak a pinned backend into later test cases.
struct BackendGuard(Option<KernelBackend>);

impl BackendGuard {
    fn pin(backend: KernelBackend) -> BackendGuard {
        BackendGuard(set_backend_override(Some(backend)))
    }
}

impl Drop for BackendGuard {
    fn drop(&mut self) {
        set_backend_override(self.0);
    }
}

/// A one-word multi-valued domain (10 parts): the `FixedW<1>` rung, which
/// never dispatches (it is pinned scalar on both backends).
fn one_word_mv_domain() -> Domain {
    DomainBuilder::new()
        .multi("s", 5)
        .binary("a")
        .multi("t", 3)
        .build()
}

/// A two-word mixed domain (one 70-part variable): the `FixedW<2>` rung.
fn two_word_mv_domain() -> Domain {
    DomainBuilder::new()
        .multi("s", 70)
        .binary("a")
        .binary("b")
        .multi("t", 5)
        .build()
}

/// A four-word mixed domain (210 parts): the `FixedW<4>` rung.
fn four_word_mv_domain() -> Domain {
    DomainBuilder::new()
        .multi("s", 70)
        .multi("t", 60)
        .binaries("x", 40)
        .build()
}

/// An eight-word mixed domain (504 parts): the dynamic-stride rung.
fn eight_word_mv_domain() -> Domain {
    DomainBuilder::new()
        .multi("s", 70)
        .multi("t", 64)
        .multi("u", 70)
        .binaries("x", 150)
        .build()
}

/// Restricts variable `v` of `c` to exactly the parts listed in `keep`
/// (which must be non-empty so the cube stays valid).
fn restrict_to_parts(dom: &Domain, c: &mut Cube, v: usize, keep: &[usize]) {
    let var = dom.var(v);
    for p in 0..var.parts() {
        if !keep.contains(&p) {
            c.clear_part(var.offset() + p);
        }
    }
}

/// One generated cube: the var-0 parts to keep, plus up to two extra
/// `(variable, kept parts)` restrictions.
type CubePick = (Vec<usize>, Vec<(usize, Vec<usize>)>);

/// Strategy: a disjoint `(on, dc)` cover pair over `dom`, structurally
/// disjoint on variable 0 (on-cubes keep only low-half parts, dc-cubes only
/// high-half parts). Same corpus shape as `prop_flat_cover.rs`.
fn mv_corpus(dom: Domain, max_on: usize, max_dc: usize) -> impl Strategy<Value = (Cover, Cover)> {
    let parts0 = dom.var(0).parts();
    let half = parts0 / 2;
    let nv = dom.num_vars();
    let extras =
        || proptest::collection::vec((1..nv, proptest::collection::vec(0usize..512, 1..=2)), 0..=2);
    let on_cube = (proptest::collection::vec(0usize..half, 1..=2), extras());
    let dc_cube = (proptest::collection::vec(half..parts0, 1..=2), extras());
    let on = proptest::collection::vec(on_cube, 1..=max_on);
    let dc = proptest::collection::vec(dc_cube, 0..=max_dc);
    (on, dc).prop_map(move |(on_picks, dc_picks)| {
        let build = |picks: Vec<CubePick>| {
            Cover::from_cubes(
                &dom,
                picks.into_iter().map(|(var0_keep, extra)| {
                    let mut c = Cube::full(&dom);
                    restrict_to_parts(&dom, &mut c, 0, &var0_keep);
                    // later picks of the same variable win outright, so a
                    // literal can never be narrowed twice into emptiness
                    let by_var: std::collections::BTreeMap<usize, Vec<usize>> =
                        extra.into_iter().collect();
                    for (v, keep) in by_var {
                        let parts = dom.var(v).parts();
                        let keep: Vec<usize> = keep.iter().map(|&p| p % parts).collect();
                        c.raise_var(&dom, v);
                        restrict_to_parts(&dom, &mut c, v, &keep);
                    }
                    c
                }),
            )
        };
        (build(on_picks), build(dc_picks))
    })
}

/// One minimization under a pinned backend, with the kernel counters read
/// back through `Trace::counter_total` (snapshots exclude them by design).
struct BackendRun {
    cover: Cover,
    completion: Completion,
    render: String,
    dispatches: u64,
    wide: u64,
    scalar: u64,
}

fn run_pinned(backend: KernelBackend, on: &Cover, dc: &Cover, limit: Option<u64>) -> BackendRun {
    use picola_logic::obs::Counter;
    let _pin = BackendGuard::pin(backend);
    let trace = Trace::new();
    let budget = match limit {
        Some(l) => Budget::with_work_limit(l),
        None => Budget::unlimited(),
    }
    .with_recorder(trace.recorder());
    let mut scratch = MinimizeScratch::new();
    let (cover, completion) =
        flat_espresso_bounded(on, dc, &MinimizeOptions::default(), &budget, &mut scratch);
    BackendRun {
        cover,
        completion,
        render: trace.render(),
        dispatches: trace.counter_total(Counter::KernelDispatches),
        wide: trace.counter_total(Counter::KernelWideCalls),
        scalar: trace.counter_total(Counter::KernelScalarCalls),
    }
}

/// Runs both backends on the same inputs and asserts covers, completions,
/// and trace renders agree byte for byte, plus counter conservation on
/// each run. Returns the two runs for rung-specific assertions.
fn assert_backends_agree(
    on: &Cover,
    dc: &Cover,
    limit: Option<u64>,
) -> Result<(BackendRun, BackendRun), TestCaseError> {
    // Reuse the oracle-order switch of the flat-vs-legacy suite: CI's
    // second order proves neither backend leaks state the other sees.
    let wide_first = std::env::var("PICOLA_ORACLE_ORDER").is_ok_and(|v| v == "flat-first");
    let (scalar, wide) = if wide_first {
        let w = run_pinned(KernelBackend::Wide, on, dc, limit);
        (run_pinned(KernelBackend::Scalar, on, dc, limit), w)
    } else {
        let s = run_pinned(KernelBackend::Scalar, on, dc, limit);
        (s, run_pinned(KernelBackend::Wide, on, dc, limit))
    };

    prop_assert_eq!(&scalar.cover, &wide.cover, "covers diverge (limit {:?})", limit);
    prop_assert_eq!(
        scalar.completion,
        wide.completion,
        "completions diverge (limit {:?})",
        limit
    );
    prop_assert_eq!(
        &scalar.render,
        &wide.render,
        "traces diverge (limit {:?})",
        limit
    );
    // Conservation: wide + scalar == dispatched, on each run separately.
    prop_assert_eq!(scalar.dispatches, scalar.wide + scalar.scalar);
    prop_assert_eq!(wide.dispatches, wide.wide + wide.scalar);
    // Dispatch counts are backend-invariant (same rungs, same calls).
    prop_assert_eq!(scalar.dispatches, wide.dispatches);
    // A Scalar-pinned run must never take the wide path.
    prop_assert_eq!(scalar.wide, 0);
    prop_assert_eq!(scalar.scalar, scalar.dispatches);
    Ok((scalar, wide))
}

/// The Wide-exercised tripwire for multi-word rungs: a Wide-pinned
/// dispatched run must resolve wide every time.
fn assert_wide_exercised(wide: &BackendRun) -> Result<(), TestCaseError> {
    prop_assert!(wide.dispatches > 0, "multi-word corpus must dispatch");
    prop_assert_eq!(wide.wide, wide.dispatches, "Wide selected but not exercised");
    prop_assert_eq!(wide.scalar, 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn backends_agree_one_word(
        (on, dc) in mv_corpus(one_word_mv_domain(), 5, 2),
    ) {
        prop_assert!(!flat_eligible(on.domain()), "must take the generic engine");
        prop_assert_eq!(on.domain().words(), 1);
        let (scalar, wide) = assert_backends_agree(&on, &dc, None)?;
        // The one-word rung is pinned scalar: no dispatches on either run.
        prop_assert_eq!(scalar.dispatches, 0);
        prop_assert_eq!(wide.dispatches + wide.wide + wide.scalar, 0);
    }

    #[test]
    fn backends_agree_two_word(
        (on, dc) in mv_corpus(two_word_mv_domain(), 5, 2),
    ) {
        prop_assert_eq!(on.domain().words(), 2);
        let (_, wide) = assert_backends_agree(&on, &dc, None)?;
        assert_wide_exercised(&wide)?;
    }

    #[test]
    fn backends_agree_under_tight_budgets(
        (on, dc) in mv_corpus(two_word_mv_domain(), 4, 2),
        limit in 0u64..12,
    ) {
        // Budget-degraded prefixes must agree too: same covers, same
        // completions, same trace — including limit 0 (scc'd on-set only).
        assert_backends_agree(&on, &dc, Some(limit))?;
    }
}

proptest! {
    // The wide tiers run fewer cases: 210- and 504-part domains make cube
    // construction itself the dominant cost of the suite.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn backends_agree_four_word(
        (on, dc) in mv_corpus(four_word_mv_domain(), 4, 2),
    ) {
        prop_assert_eq!(on.domain().words(), 4);
        let (_, wide) = assert_backends_agree(&on, &dc, None)?;
        assert_wide_exercised(&wide)?;
    }

    #[test]
    fn backends_agree_eight_word(
        (on, dc) in mv_corpus(eight_word_mv_domain(), 3, 1),
    ) {
        prop_assert_eq!(on.domain().words(), 8);
        let (_, wide) = assert_backends_agree(&on, &dc, None)?;
        assert_wide_exercised(&wide)?;
    }
}

/// The binary fast path never dispatches either — it is register code
/// shared by both backends. Deterministic, not property-based: one shot
/// suffices to pin the accounting.
#[test]
fn binary_fast_path_never_dispatches() {
    use picola_logic::obs::Counter;
    let dom = Domain::binary(4);
    let on = Cover::parse(&dom, "1--- -1-- --11");
    let dc = Cover::parse(&dom, "0000");
    assert!(flat_eligible(&dom));
    for backend in [KernelBackend::Scalar, KernelBackend::Wide] {
        let _pin = BackendGuard::pin(backend);
        let trace = Trace::new();
        let budget = Budget::unlimited().with_recorder(trace.recorder());
        let mut scratch = MinimizeScratch::new();
        let (f, _) =
            flat_espresso_bounded(&on, &dc, &MinimizeOptions::default(), &budget, &mut scratch);
        assert_eq!(f.len(), 3);
        assert_eq!(trace.counter_total(Counter::KernelDispatches), 0);
        assert_eq!(trace.counter_total(Counter::KernelWideCalls), 0);
        assert_eq!(trace.counter_total(Counter::KernelScalarCalls), 0);
    }
}
