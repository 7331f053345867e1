//! Differential property tests: the flat cover engine against the legacy
//! `Vec<Cube>` reference in `picola-oracle`.
//!
//! Three layers are pinned down here:
//! 1. the word-parallel kernels (`cube_*_into`, `cube_distance`) against
//!    the legacy [`Cube`] operations, on mixed binary/multi-valued and
//!    multi-word domains, including binary variables that straddle a word
//!    boundary, a three-word domain, and four- and eight-word domains whose
//!    cubes fill whole 4-lane blocks. Each kernel is the code the engine
//!    itself runs: `cube_contains` and `cube_and_into` are its lane-unrolled
//!    loops, `cube_distance` its meet test, and `cube_consensus_into` and
//!    `cube_cofactor_into` share their bodies with its essentials and
//!    cofactor steps;
//! 2. [`flat_espresso_bounded`] against the oracle's [`espresso_bounded`] —
//!    bit-identical covers, completions, and byte-identical traces, on
//!    unlimited and tightly bounded budgets alike. The corpus spans every stride rung of
//!    the flat engine: all-binary one-word domains of 4, 5 and 7 variables
//!    (the widths evaluation prices) plus multi-valued domains at 1-, 2-,
//!    3- (padded to 4), 4-, and 8-word strides (mixed part counts up to 70
//!    parts per variable), so the legacy engine's only remaining role —
//!    independent oracle — is exercised on exactly the domains the flat
//!    engine owns;
//! 3. the [`MinimizeCache`] view over a [`GlobalMinimizeCache`] — memo
//!    lookups, uncached lookups, and the legacy oracle must all agree.

// Tests are exempt from the panic-freedom policy; clippy's in-tests
// exemption misses integration-test helpers, so waive it explicitly.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use picola_logic::{
    cube_and_into, cube_cofactor_into, cube_consensus_into, cube_contains, cube_distance,
    cube_is_valid, flat_espresso_bounded, Budget, Cover, Cube, Domain, DomainBuilder, FlatDomain,
    GlobalMinimizeCache, MinimizeCache, MinimizeOptions, MinimizeScratch, Trace,
};
use picola_oracle::{espresso, espresso_bounded};
use proptest::prelude::*;

/// Strategy: a random cover over `nvars` binary variables with up to
/// `max_cubes` cubes, each literal drawn from {0, 1, -}.
fn binary_cover(nvars: usize, max_cubes: usize) -> impl Strategy<Value = Cover> {
    let cube = proptest::collection::vec(0u8..3, nvars);
    proptest::collection::vec(cube, 0..=max_cubes).prop_map(move |cubes| {
        let dom = Domain::binary(nvars);
        let text: Vec<String> = cubes
            .iter()
            .map(|c| {
                c.iter()
                    .map(|&l| match l {
                        0 => '0',
                        1 => '1',
                        _ => '-',
                    })
                    .collect()
            })
            .collect();
        Cover::parse(&dom, &text.join(" "))
    })
}

/// A mixed binary/multi-valued, multi-word domain (one 70-part variable
/// pushes the stride to two words) plus random cubes over it.
fn mv_domain() -> Domain {
    DomainBuilder::new()
        .multi("s", 70)
        .binary("a")
        .binary("b")
        .multi("t", 5)
        .build()
}

fn mv_cube(dom: &Domain) -> impl Strategy<Value = Cube> {
    let dom = dom.clone();
    let lits = (
        proptest::collection::vec(any::<bool>(), 70),
        0u8..3,
        0u8..3,
        proptest::collection::vec(any::<bool>(), 5),
    );
    lits.prop_map(move |(s, a, b, t)| {
        let mut c = Cube::full(&dom);
        // keep every literal non-empty so the cube stays valid
        if s.iter().any(|&x| x) {
            for (p, keep) in s.iter().enumerate() {
                if !keep {
                    c.clear_part(p);
                }
            }
        }
        if a < 2 {
            c.restrict_binary(&dom, 1, a == 1);
        }
        if b < 2 {
            c.restrict_binary(&dom, 2, b == 1);
        }
        if t.iter().any(|&x| x) {
            let off = dom.var(3).offset();
            for (p, keep) in t.iter().enumerate() {
                if !keep {
                    c.clear_part(off + p);
                }
            }
        }
        c
    })
}

/// A two-word domain whose binary variable `a` straddles the word boundary
/// (parts 63–64), so the popcount meet test must leave it to the span
/// walk.
fn straddle_domain() -> Domain {
    DomainBuilder::new()
        .multi("s", 63)
        .binary("a")
        .binaries("x", 20)
        .multi("t", 5)
        .build()
}

/// A three-word domain (131 parts), which the engine pads onto its
/// four-word rung, with a word-straddling binary variable (parts 63–64)
/// next to an in-word one.
fn three_word_mv_domain() -> Domain {
    DomainBuilder::new()
        .multi("s", 63)
        .binary("a")
        .binary("b")
        .multi("t", 64)
        .build()
}

/// A cube keeping part `p` when `picks[p] != 0`; a variable left with no
/// part is raised to full, so the cube stays valid.
fn cube_from_picks(dom: &Domain, picks: &[u8]) -> Cube {
    let mut c = Cube::full(dom);
    for v in 0..dom.num_vars() {
        let range = dom.var(v).part_range();
        if range.clone().any(|p| picks[p] != 0) {
            for p in range.filter(|&p| picks[p] == 0) {
                c.clear_part(p);
            }
        }
    }
    c
}

/// A one-word multi-valued domain (10 parts): the engine's one-word rung
/// with variables left to the span walk, which all-binary one-word domains
/// never reach.
fn one_word_mv_domain() -> Domain {
    DomainBuilder::new()
        .multi("s", 5)
        .binary("a")
        .multi("t", 3)
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

/// An eight-word mixed domain (504 parts): past the register-blocked
/// specializations, exercising the dynamic-stride fallback loop.
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

/// Strategy: a disjoint `(on, dc)` cover pair over an arbitrary MV domain.
///
/// Point enumeration is infeasible on the wide tiers (up to 504 parts), so
/// disjointness is structural instead: every on-cube restricts variable 0
/// to a subset of its low half and every dc-cube to a subset of its high
/// half, which no minterm can satisfy both of. Each cube additionally
/// restricts up to two other variables to 1–2 parts, keeping the unate
/// recursions shallow enough for the legacy oracle to keep up.
/// One generated cube: the var-0 parts to keep, plus up to two extra
/// `(variable, kept parts)` restrictions.
type CubePick = (Vec<usize>, Vec<(usize, Vec<usize>)>);

fn mv_engine_corpus(
    dom: Domain,
    max_on: usize,
    max_dc: usize,
) -> impl Strategy<Value = (Cover, Cover)> {
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

/// Strategy: a work limit in `0..12` for half the cases, no limit for the
/// other half, so the wide rungs see budget-degraded prefixes as well as
/// complete runs.
fn work_limit() -> impl Strategy<Value = Option<u64>> {
    (0u64..24).prop_map(|l| (l < 12).then_some(l))
}

/// Whether any minterm lies in both covers. Like the legacy espresso
/// property tests, the differential corpus keeps `on` and `dc` point
/// disjoint — overlapping sets are outside the minimizer's contract.
fn overlaps(on: &Cover, dc: &Cover) -> bool {
    Cover::enumerate_points(on.domain())
        .iter()
        .any(|pt| on.covers_point(pt) && dc.covers_point(pt))
}

/// Runs both engines on the same inputs under equal budgets and asserts
/// covers, completions, and traces agree byte for byte.
///
/// `PICOLA_ORACLE_ORDER=flat-first` runs the flat engine before the legacy
/// oracle (the default is legacy first); CI runs the suite once per order,
/// proving neither engine leaks state the other could depend on.
fn assert_engines_agree(on: &Cover, dc: &Cover, limit: Option<u64>) -> Result<(), TestCaseError> {
    let base = || match limit {
        Some(l) => Budget::with_work_limit(l),
        None => Budget::unlimited(),
    };
    let run_legacy = || {
        let trace = Trace::new();
        let budget = base().with_recorder(trace.recorder());
        let (f, c) = espresso_bounded(on, dc, &MinimizeOptions::default(), &budget);
        (f, c, trace)
    };
    let run_flat = || {
        let trace = Trace::new();
        let budget = base().with_recorder(trace.recorder());
        let mut scratch = MinimizeScratch::new();
        let (f, c) =
            flat_espresso_bounded(on, dc, &MinimizeOptions::default(), &budget, &mut scratch);
        (f, c, trace)
    };
    let flat_first =
        std::env::var("PICOLA_ORACLE_ORDER").is_ok_and(|v| v == "flat-first");
    let ((lf, lc, legacy_trace), (ff, fc, flat_trace)) = if flat_first {
        let flat = run_flat();
        (run_legacy(), flat)
    } else {
        (run_legacy(), run_flat())
    };

    prop_assert_eq!(&lf, &ff, "covers diverge (limit {:?})", limit);
    prop_assert_eq!(lc, fc, "completions diverge (limit {:?})", limit);
    prop_assert_eq!(
        legacy_trace.render(),
        flat_trace.render(),
        "traces diverge (limit {:?})",
        limit
    );
    Ok(())
}

/// The word kernels (`cube_*`) against the legacy [`Cube`] operations on
/// one pair of valid cubes. The consensus and cofactor kernels run the
/// same bodies as the engine's essentials and cofactor steps.
fn assert_kernels_mirror(dom: &Domain, a: &Cube, b: &Cube) -> Result<(), TestCaseError> {
    let fd = FlatDomain::new(dom);
    prop_assert_eq!(fd.words(), dom.words());

    prop_assert_eq!(cube_is_valid(&fd, a.words()), a.is_valid(dom));
    prop_assert_eq!(cube_contains(a.words(), b.words()), a.covers(b));
    prop_assert_eq!(cube_distance(&fd, a.words(), b.words()), a.distance(b, dom));

    let mut out = vec![0u64; fd.words()];
    cube_and_into(a.words(), b.words(), &mut out);
    let meet = a.and(b);
    prop_assert_eq!(out.as_slice(), meet.words());

    let legacy_cons = a.consensus(b, dom);
    let got = cube_consensus_into(&fd, a.words(), b.words(), &mut out);
    prop_assert_eq!(got, legacy_cons.is_some());
    if let Some(k) = legacy_cons {
        prop_assert_eq!(out.as_slice(), k.words());
    }

    let legacy_cof = a.cofactor(b, dom);
    let got = cube_cofactor_into(&fd, a.words(), b.words(), &mut out);
    prop_assert_eq!(got, legacy_cof.is_some());
    if let Some(k) = legacy_cof {
        prop_assert_eq!(out.as_slice(), k.words());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flat_espresso_is_bit_identical_to_legacy(
        on in binary_cover(5, 8),
        dc in binary_cover(5, 3),
        on7 in binary_cover(7, 10),
        dc7 in binary_cover(7, 3),
    ) {
        // five variables, then seven: large-tier evaluation prices
        // covers of up to eight
        for (on, dc) in [(on, dc), (on7, dc7)] {
            prop_assume!(!overlaps(&on, &dc));
            prop_assert_eq!(on.domain().words(), 1);
            assert_engines_agree(&on, &dc, None)?;
        }
    }

    #[test]
    fn flat_espresso_matches_legacy_under_tight_budgets(
        on in binary_cover(4, 6),
        dc in binary_cover(4, 2),
        limit in 0u64..12,
    ) {
        prop_assume!(!overlaps(&on, &dc));
        assert_engines_agree(&on, &dc, Some(limit))?;
    }

    #[test]
    fn generic_kernels_mirror_cube_ops_on_mixed_domains(
        (a, b) in {
            let dom = mv_domain();
            (mv_cube(&dom), mv_cube(&dom))
        },
        picks_a in proptest::collection::vec(0u8..3, 512),
        picks_b in proptest::collection::vec(0u8..3, 512),
    ) {
        assert_kernels_mirror(&mv_domain(), &a, &b)?;
        // binary variables across a word boundary, the padded stride, and
        // cubes that fill one and two 4-lane kernel blocks
        for dom in [
            straddle_domain(),
            three_word_mv_domain(),
            four_word_mv_domain(),
            eight_word_mv_domain(),
        ] {
            let (a, b) = (cube_from_picks(&dom, &picks_a), cube_from_picks(&dom, &picks_b));
            assert_kernels_mirror(&dom, &a, &b)?;
        }
    }

    #[test]
    fn cache_on_off_and_both_engines_agree(
        on in binary_cover(4, 6),
        dc in binary_cover(4, 2),
    ) {
        prop_assume!(!overlaps(&on, &dc));
        let memo = GlobalMinimizeCache::new();
        let mut cached = MinimizeCache::new();
        let mut uncached = MinimizeCache::new();
        let reference = cached.minimized_cube_count(&memo, &on, &dc);
        // the repeat lookup is a memo hit and must agree
        prop_assert_eq!(cached.minimized_cube_count(&memo, &on, &dc), reference);
        prop_assert_eq!(cached.hits(), 1);
        prop_assert_eq!(uncached.minimized_cube_count_uncached(&on, &dc), reference);
        prop_assert_eq!(espresso(&on, &dc).len(), reference);
    }

    #[test]
    fn flat_mv_engine_matches_legacy_one_word(
        (on, dc) in mv_engine_corpus(one_word_mv_domain(), 5, 2),
    ) {
        prop_assert_eq!(on.domain().words(), 1);
        assert_engines_agree(&on, &dc, None)?;
    }

    #[test]
    fn flat_mv_engine_matches_legacy_two_word(
        (on, dc) in mv_engine_corpus(mv_domain(), 5, 2),
    ) {
        prop_assert_eq!(on.domain().words(), 2);
        assert_engines_agree(&on, &dc, None)?;
    }

    #[test]
    fn flat_mv_engine_matches_legacy_under_tight_budgets(
        (on, dc) in mv_engine_corpus(mv_domain(), 4, 2),
        limit in 0u64..12,
    ) {
        // budget-degraded prefixes must agree too: same covers, same
        // completions, same trace — including limit 0 (scc'd on-set only)
        assert_engines_agree(&on, &dc, Some(limit))?;
    }
}

proptest! {
    // The wide tiers run the same differential check with a smaller case
    // count: the legacy oracle allocates per cube per pass, and 504-part
    // domains make that the dominant cost of the whole suite.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn flat_mv_engine_matches_legacy_three_word(
        (on, dc) in mv_engine_corpus(three_word_mv_domain(), 4, 2),
        limit in work_limit(),
    ) {
        prop_assert_eq!(on.domain().words(), 3);
        assert_engines_agree(&on, &dc, limit)?;
    }

    #[test]
    fn flat_mv_engine_matches_legacy_four_word(
        (on, dc) in mv_engine_corpus(four_word_mv_domain(), 4, 2),
        limit in work_limit(),
    ) {
        prop_assert_eq!(on.domain().words(), 4);
        assert_engines_agree(&on, &dc, limit)?;
    }

    #[test]
    fn flat_mv_engine_matches_legacy_eight_word(
        (on, dc) in mv_engine_corpus(eight_word_mv_domain(), 3, 1),
        limit in work_limit(),
    ) {
        prop_assert_eq!(on.domain().words(), 8);
        assert_engines_agree(&on, &dc, limit)?;
    }
}
