//! Property-based tests of the logic substrate against brute-force oracles.

// Tests are exempt from the panic-freedom policy; clippy's in-tests
// exemption misses integration-test helpers, so waive it explicitly.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use picola_logic::{
    complement, cover_sharp, equivalent, exact_minimize, implements, parse_pla, tautology,
    verify_equivalent, write_pla, Cover, Cube, Domain, DomainBuilder, Pla, Verdict,
};
use picola_oracle::{espresso, expand, irredundant, reduce};
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

/// Strategy: a random cover over a domain with one multi-valued variable and
/// two binary variables.
fn mv_cover(parts: usize, max_cubes: usize) -> impl Strategy<Value = Cover> {
    let lit = proptest::collection::vec(any::<bool>(), parts);
    let cube = (lit, 0u8..3, 0u8..3);
    proptest::collection::vec(cube, 0..=max_cubes).prop_map(move |cubes| {
        let dom = DomainBuilder::new()
            .multi("s", parts)
            .binary("a")
            .binary("b")
            .build();
        let built = cubes.into_iter().filter_map(|(mv, a, b)| {
            if mv.iter().all(|&x| !x) {
                return None;
            }
            let mut c = Cube::full(&dom);
            for (p, keep) in mv.iter().enumerate() {
                if !keep {
                    c.clear_part(p);
                }
            }
            if a < 2 {
                c.restrict_binary(&dom, 1, a == 1);
            }
            if b < 2 {
                c.restrict_binary(&dom, 2, b == 1);
            }
            Some(c)
        });
        Cover::from_cubes(&dom, built)
    })
}

fn brute_equal(f: &Cover, g: &Cover) -> bool {
    Cover::enumerate_points(f.domain())
        .iter()
        .all(|pt| f.covers_point(pt) == g.covers_point(pt))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Both complement tests also check that the result is containment-free:
    // the complement's merges sort without an scc pair loop, which is exact
    // only because no merge can produce a contained cube.
    #[test]
    fn complement_partitions_space(f in binary_cover(4, 6)) {
        let g = complement(&f);
        for pt in Cover::enumerate_points(f.domain()) {
            prop_assert_ne!(f.covers_point(&pt), g.covers_point(&pt));
        }
        let mut h = g.clone();
        h.scc();
        prop_assert_eq!(h.len(), g.len());
    }

    #[test]
    fn complement_partitions_mv_space(f in mv_cover(5, 6)) {
        let g = complement(&f);
        for pt in Cover::enumerate_points(f.domain()) {
            prop_assert_ne!(f.covers_point(&pt), g.covers_point(&pt));
        }
        let mut h = g.clone();
        h.scc();
        prop_assert_eq!(h.len(), g.len());
    }

    #[test]
    fn tautology_matches_brute_force(f in binary_cover(4, 6)) {
        let brute = Cover::enumerate_points(f.domain())
            .iter()
            .all(|pt| f.covers_point(pt));
        prop_assert_eq!(tautology(&f), brute);
    }

    #[test]
    fn equivalence_matches_brute_force(f in binary_cover(3, 4), g in binary_cover(3, 4)) {
        prop_assert_eq!(equivalent(&f, &g), brute_equal(&f, &g));
    }

    #[test]
    fn espresso_preserves_function(f in binary_cover(4, 7)) {
        let dc = Cover::empty(f.domain());
        let m = espresso(&f, &dc);
        prop_assert!(implements(&m, &f, &dc));
        prop_assert!(m.len() <= f.len().max(1));
    }

    #[test]
    fn espresso_preserves_mv_function(f in mv_cover(4, 6)) {
        let dc = Cover::empty(f.domain());
        let m = espresso(&f, &dc);
        prop_assert!(implements(&m, &f, &dc));
    }

    #[test]
    fn espresso_respects_dont_cares(on in binary_cover(4, 4), dc0 in binary_cover(4, 3)) {
        // Make dc disjoint from on by sharping brute-force points.
        let dom = on.domain().clone();
        let dc = Cover::from_cubes(&dom, dc0.iter().cloned());
        // Only meaningful when the sets do not overlap; skip otherwise.
        let overlap = Cover::enumerate_points(&dom)
            .iter()
            .any(|pt| on.covers_point(pt) && dc.covers_point(pt));
        prop_assume!(!overlap);
        let m = espresso(&on, &dc);
        prop_assert!(implements(&m, &on, &dc));
    }

    #[test]
    fn expand_is_sound(f in binary_cover(4, 5)) {
        prop_assume!(!f.is_empty());
        let off = complement(&f);
        let e = expand(&f, &off);
        // e covers f and intersects no off cube
        for c in f.iter() {
            prop_assert!(tautology(&e.cofactor(c)));
        }
        for c in e.iter() {
            for o in off.iter() {
                prop_assert!(!c.intersects(o, f.domain()));
            }
        }
    }

    #[test]
    fn reduce_then_expand_preserves(f in binary_cover(4, 5)) {
        prop_assume!(!f.is_empty());
        let dc = Cover::empty(f.domain());
        let r = reduce(&f, &dc);
        prop_assert!(implements(&r, &f, &dc));
        let ir = irredundant(&r, &dc);
        prop_assert!(implements(&ir, &f, &dc));
    }

    #[test]
    fn exact_is_no_worse_than_espresso(f in binary_cover(3, 5)) {
        let dc = Cover::empty(f.domain());
        let exact = exact_minimize(&f, &dc, 200_000);
        let heur = espresso(&f, &dc);
        prop_assert!(exact.cover().len() <= heur.len());
        prop_assert!(implements(exact.cover(), &f, &dc));
    }

    #[test]
    fn sharp_matches_brute_force(f in binary_cover(4, 5), g in binary_cover(4, 5)) {
        let s = cover_sharp(&f, &g);
        for pt in Cover::enumerate_points(f.domain()) {
            prop_assert_eq!(
                s.covers_point(&pt),
                f.covers_point(&pt) && !g.covers_point(&pt),
                "point {:?}", pt
            );
        }
    }

    #[test]
    fn verify_witnesses_are_genuine(f in binary_cover(4, 5), g in binary_cover(4, 5)) {
        match verify_equivalent(&f, &g) {
            Verdict::Equivalent => prop_assert!(equivalent(&f, &g)),
            Verdict::LeftOnly(p) => {
                prop_assert!(f.covers_point(&p) && !g.covers_point(&p));
            }
            Verdict::RightOnly(p) => {
                prop_assert!(!f.covers_point(&p) && g.covers_point(&p));
            }
        }
    }

    #[test]
    fn pla_roundtrip(f in binary_cover(4, 6)) {
        let dom = f.domain().clone();
        prop_assume!(!f.is_empty());
        // Lift the input cover into a PLA with one output.
        let mut pla = Pla::new(4, 1);
        let pdom = pla.domain.clone();
        for c in f.iter() {
            let mut q = Cube::full(&pdom);
            for v in 0..4 {
                for p in 0..2 {
                    if !c.has_part(dom.var(v).offset() + p) {
                        q.clear_part(pdom.var(v).offset() + p);
                    }
                }
            }
            pla.on.push(q);
        }
        let text = write_pla(&pla);
        let back = parse_pla(&text).unwrap();
        prop_assert!(equivalent(&pla.on, &back.on));
    }
}
