//! The sharp (#) operation: set difference of cubes and covers.

use crate::cover::Cover;
use crate::cube::Cube;
use crate::domain::Domain;
use crate::obs;

/// Computes `a # b`: a cover of exactly the minterms of `a` not in `b`,
/// using the disjoint sharp expansion (the result cubes are pairwise
/// disjoint).
///
/// Per non-full variable of `b` (in order), one result cube fixes that
/// variable to the part set `a ∖ b` while earlier variables stay restricted
/// to the intersection — the classic recursive decomposition.
pub fn cube_sharp(dom: &Domain, a: &Cube, b: &Cube) -> Vec<Cube> {
    obs::count(obs::Counter::CubeSharps, 1);
    if !a.intersects(b, dom) {
        return vec![a.clone()];
    }
    if b.covers(a) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut prefix = a.clone();
    for v in 0..dom.num_vars() {
        let var = dom.var(v);
        // parts of a in v that b does not admit
        let mut extra = Vec::new();
        for p in var.part_range() {
            if a.has_part(p) && !b.has_part(p) {
                extra.push(p);
            }
        }
        if !extra.is_empty() {
            let mut c = prefix.clone();
            for p in var.part_range() {
                c.clear_part(p);
            }
            for &p in &extra {
                c.set_part(p);
            }
            if c.is_valid(dom) {
                out.push(c);
            }
        }
        // restrict prefix to a ∩ b in v before moving on
        for p in var.part_range() {
            if !b.has_part(p) {
                prefix.clear_part(p);
            }
        }
    }
    out
}

/// Computes `f # g` for covers: the minterms of `f` not covered by `g`.
///
/// The result is reduced by single-cube containment but not fully
/// minimized; feed it to [`crate::flat_espresso`] if a small cover matters.
pub fn cover_sharp(f: &Cover, g: &Cover) -> Cover {
    let dom = f.domain();
    assert_eq!(dom, g.domain(), "sharp: domain mismatch");
    let mut current: Vec<Cube> = f.cubes().to_vec();
    for b in g.iter() {
        let mut next = Vec::new();
        for a in &current {
            next.extend(cube_sharp(dom, a, b));
        }
        current = next;
        if current.is_empty() {
            break;
        }
    }
    let mut out = Cover::from_cubes(dom, current);
    out.scc();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::DomainBuilder;
    use crate::urp::tautology;

    #[test]
    fn sharp_of_disjoint_cubes_is_identity() {
        let dom = Domain::binary(2);
        let f = Cover::parse(&dom, "1-");
        let g = Cover::parse(&dom, "0-");
        let s = cover_sharp(&f, &g);
        assert_eq!(s.cubes(), f.cubes());
    }

    #[test]
    fn sharp_of_covered_cube_is_empty() {
        let dom = Domain::binary(2);
        let f = Cover::parse(&dom, "11");
        let g = Cover::parse(&dom, "1-");
        assert!(cover_sharp(&f, &g).is_empty());
    }

    #[test]
    fn sharp_partitions_exactly() {
        let dom = Domain::binary(4);
        let f = Cover::parse(&dom, "1--- -1-- --11");
        let g = Cover::parse(&dom, "11-- --1-");
        let s = cover_sharp(&f, &g);
        for pt in Cover::enumerate_points(&dom) {
            let want = f.covers_point(&pt) && !g.covers_point(&pt);
            assert_eq!(s.covers_point(&pt), want, "point {pt:?}");
        }
    }

    #[test]
    fn universe_sharp_f_is_complement(){
        let dom = Domain::binary(3);
        let f = Cover::parse(&dom, "1-- -10");
        let s = cover_sharp(&Cover::universe(&dom), &f);
        assert!(tautology(&s.union(&f)));
        for pt in Cover::enumerate_points(&dom) {
            assert_ne!(s.covers_point(&pt), f.covers_point(&pt));
        }
    }

    #[test]
    fn sharp_on_multivalued_vars() {
        let dom = DomainBuilder::new().multi("s", 5).binary("x").build();
        let mut a = Cube::full(&dom);
        a.clear_part(4); // s in {0..3}
        let mut b = Cube::full(&dom);
        b.restrict(&dom, 0, 1);
        let pieces = cube_sharp(&dom, &a, &b);
        let cover = Cover::from_cubes(&dom, pieces);
        for pt in Cover::enumerate_points(&dom) {
            let fa = Cover::from_cubes(&dom, [a.clone()]).covers_point(&pt);
            let fb = Cover::from_cubes(&dom, [b.clone()]).covers_point(&pt);
            assert_eq!(cover.covers_point(&pt), fa && !fb, "{pt:?}");
        }
    }

    #[test]
    fn disjoint_sharp_pieces_do_not_overlap() {
        let dom = Domain::binary(3);
        let a = Cover::parse(&dom, "---").cubes()[0].clone();
        let b = Cover::parse(&dom, "101").cubes()[0].clone();
        let pieces = cube_sharp(&dom, &a, &b);
        for i in 0..pieces.len() {
            for j in (i + 1)..pieces.len() {
                assert!(!pieces[i].intersects(&pieces[j], &dom), "{i} {j}");
            }
        }
    }
}
