//! EXPAND: enlarge each cube of a cover into a prime implicant against an
//! explicit off-set, absorbing other cubes along the way.

use picola_logic::cover::Cover;
use picola_logic::cube::Cube;

/// Expands every cube of `f` to a prime with respect to the off-set `off`,
/// removing cubes that become covered by an expanded cube.
///
/// Each cube is grown one part at a time, in an order that favours parts
/// occurring in many not-yet-covered cubes of `f` (so that expansion covers
/// as much of the rest of the cover as possible). A part once rejected can
/// never become legal later — growing a cube only grows its intersection
/// with any off-cube — so a single pass per cube yields a maximal (prime)
/// cube.
///
/// The result covers `f` and intersects no cube of `off`.
pub fn expand(f: &Cover, off: &Cover) -> Cover {
    let dom = f.domain();
    assert_eq!(dom, off.domain(), "expand: domain mismatch");
    let mut cubes: Vec<Cube> = f.cubes().to_vec();
    // Smallest (most specific) cubes first: they benefit most from expansion.
    cubes.sort_by_key(|c| c.part_count());
    let n = cubes.len();
    let mut covered = vec![false; n];
    let mut result: Vec<Cube> = Vec::with_capacity(n);

    for i in 0..n {
        if covered[i] {
            continue;
        }
        let mut c = cubes[i].clone();

        // Weight each missing part by how many uncovered cubes admit it.
        let mut order: Vec<(usize, usize)> = (0..dom.total_parts())
            .filter(|&p| !c.has_part(p))
            .map(|p| {
                let w = (0..n)
                    .filter(|&j| j != i && !covered[j] && cubes[j].has_part(p))
                    .count();
                (p, w)
            })
            .collect();
        order.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

        for (p, _) in order {
            let mut candidate = c.clone();
            candidate.set_part(p);
            if off.iter().all(|o| !candidate.intersects(o, dom)) {
                c = candidate;
            }
        }

        for (j, cj) in cubes.iter().enumerate() {
            if j != i && !covered[j] && c.covers(cj) {
                covered[j] = true;
            }
        }
        result.push(c);
    }

    Cover::from_cubes(dom, result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use picola_logic::domain::Domain;
    use picola_logic::urp::{complement, tautology};

    #[test]
    fn expand_reaches_primes() {
        let dom = Domain::binary(3);
        // f = minterms of x0: should expand to the single cube 1--
        let on = Cover::parse(&dom, "100 101 110 111");
        let off = complement(&on);
        let e = expand(&on, &off);
        assert_eq!(e.len(), 1);
        assert_eq!(e.cubes()[0].render(&dom), "1 - -");
    }

    #[test]
    fn expand_never_touches_offset() {
        let dom = Domain::binary(4);
        let on = Cover::parse(&dom, "1100 0011 1111");
        let off = complement(&on);
        let e = expand(&on, &off);
        for c in e.iter() {
            for o in off.iter() {
                assert!(!c.intersects(o, &dom));
            }
        }
        // and still covers the on-set
        for c in on.iter() {
            assert!(e.iter().any(|x| x.covers(c)) || tautology(&e.cofactor(c)));
        }
    }

    #[test]
    fn expand_with_empty_offset_gives_universe() {
        let dom = Domain::binary(2);
        let on = Cover::parse(&dom, "10");
        let off = Cover::empty(&dom);
        let e = expand(&on, &off);
        assert_eq!(e.len(), 1);
        assert!(e.has_full_cube());
    }

    #[test]
    fn expand_absorbs_covered_cubes() {
        let dom = Domain::binary(3);
        let on = Cover::parse(&dom, "110 111 10- 100");
        let off = complement(&on);
        let e = expand(&on, &off);
        assert_eq!(e.len(), 1); // everything expands into 1--
    }
}
