//! REDUCE: shrink each cube to the smallest cube still covering the part of
//! the function no other cube covers, enabling EXPAND to escape local optima.

use picola_logic::cover::Cover;
use picola_logic::cube::Cube;
use picola_logic::urp::complement;

/// Reduces every cube of `f` in sequence (largest first): cube `c` is
/// replaced by `c ∩ supercube(¬((F ∖ c ∪ dc) cofactored by c))`, the smallest
/// cube covering the minterms of `c` that nothing else covers.
///
/// If a cube reduces to nothing (it was fully redundant) it is dropped.
/// The result still implements the same incompletely-specified function.
pub fn reduce(f: &Cover, dc: &Cover) -> Cover {
    let dom = f.domain();
    assert_eq!(dom, dc.domain(), "reduce: domain mismatch");
    let mut cubes: Vec<Cube> = f.cubes().to_vec();
    cubes.sort_by_key(|c| std::cmp::Reverse(c.part_count()));

    for i in 0..cubes.len() {
        let c = cubes[i].clone();
        let rest = Cover::from_cubes(
            dom,
            cubes
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, x)| x.clone())
                .chain(dc.iter().cloned()),
        );
        let g = rest.cofactor(&c);
        let h = complement(&g);
        match h.supercube() {
            None => {
                // c is entirely covered by the rest; mark for removal by
                // making it empty.
                cubes[i] = Cube::empty(dom);
            }
            Some(sc) => {
                let reduced = c.and(&sc);
                if reduced.is_valid(dom) {
                    cubes[i] = reduced;
                } else {
                    cubes[i] = Cube::empty(dom);
                }
            }
        }
    }

    Cover::from_cubes(dom, cubes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use picola_logic::domain::Domain;
    use picola_logic::equiv::implements;

    #[test]
    fn reduce_preserves_function() {
        let dom = Domain::binary(3);
        let on = Cover::parse(&dom, "11- 1-1 0-0");
        let dc = Cover::empty(&dom);
        let r = reduce(&on, &dc);
        assert!(implements(&r, &on, &dc));
    }

    #[test]
    fn reduce_shrinks_overlapping_cubes() {
        let dom = Domain::binary(2);
        // Two overlapping cubes covering everything: 1- and -- ; the second
        // should shrink (or the redundant part vanish).
        let on = Cover::parse(&dom, "1- --");
        let r = reduce(&on, &Cover::empty(&dom));
        assert!(implements(&r, &on, &Cover::empty(&dom)));
        let total: usize = r.part_count();
        assert!(total < on.part_count());
    }

    #[test]
    fn fully_redundant_cube_is_dropped() {
        let dom = Domain::binary(2);
        let on = Cover::parse(&dom, "-- 11");
        let r = reduce(&on, &Cover::empty(&dom));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn reduce_respects_dont_cares() {
        let dom = Domain::binary(2);
        let on = Cover::parse(&dom, "1-");
        let dc = Cover::parse(&dom, "01");
        let r = reduce(&on, &dc);
        // on-set minterms are 10 and 11; both must stay covered by r ∪ dc
        assert!(implements(&r, &on, &dc));
    }
}
