//! IRREDUNDANT: remove cubes covered by the rest of the cover plus the
//! don't-care set.

use picola_logic::cover::Cover;
use picola_logic::equiv::cover_covers_cube;

/// Returns an irredundant subset of `f`: no remaining cube is covered by the
/// union of the other remaining cubes and `dc`.
///
/// Cubes are examined smallest-first so that, among redundant cubes, the
/// small ones are discarded and the large ones kept.
pub fn irredundant(f: &Cover, dc: &Cover) -> Cover {
    let dom = f.domain();
    assert_eq!(dom, dc.domain(), "irredundant: domain mismatch");
    let mut cubes = f.cubes().to_vec();
    cubes.sort_by_key(|c| std::cmp::Reverse(c.part_count()));
    // `keep[i]` tracks cubes still in the cover.
    let mut keep = vec![true; cubes.len()];
    // Try to delete smallest-first (they are at the end after the sort).
    for i in (0..cubes.len()).rev() {
        let rest = Cover::from_cubes(
            dom,
            cubes
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i && keep[j])
                .map(|(_, c)| c.clone())
                .chain(dc.iter().cloned()),
        );
        if cover_covers_cube(&rest, &cubes[i]) {
            keep[i] = false;
        }
    }
    Cover::from_cubes(
        dom,
        cubes
            .into_iter()
            .zip(keep)
            .filter_map(|(c, k)| k.then_some(c)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use picola_logic::domain::Domain;
    use picola_logic::equiv::equivalent;

    #[test]
    fn removes_consensus_cube() {
        let dom = Domain::binary(3);
        let f = Cover::parse(&dom, "11- 0-1 -11");
        let g = irredundant(&f, &Cover::empty(&dom));
        assert_eq!(g.len(), 2);
        assert!(equivalent(&f, &g));
    }

    #[test]
    fn keeps_irredundant_cover_intact() {
        let dom = Domain::binary(3);
        let f = Cover::parse(&dom, "11- 00-");
        let g = irredundant(&f, &Cover::empty(&dom));
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn uses_dont_cares() {
        let dom = Domain::binary(2);
        // f = {11}, dc = {11}: the cube is covered by dc alone.
        let f = Cover::parse(&dom, "11");
        let dc = Cover::parse(&dom, "11");
        let g = irredundant(&f, &dc);
        assert!(g.is_empty());
    }

    #[test]
    fn prefers_keeping_larger_cubes() {
        let dom = Domain::binary(3);
        // 1-- covers 11- and 10-; smaller ones must go.
        let f = Cover::parse(&dom, "1-- 11- 10-");
        let g = irredundant(&f, &Cover::empty(&dom));
        assert_eq!(g.len(), 1);
        assert_eq!(g.cubes()[0].render(&dom), "1 - -");
    }
}
