//! LAST_GASP: ESPRESSO's escape from local minima.
//!
//! When the REDUCE/EXPAND/IRREDUNDANT loop stops improving, LAST_GASP
//! reduces each cube *individually* against the full cover (maximal
//! reduction, independent of processing order), expands those reduced cubes
//! against the off-set, and if any expansion covers two or more original
//! cubes, splices the newcomers in and lets IRREDUNDANT settle the result.

use crate::expand::expand;
use crate::irredundant::irredundant;
use picola_logic::cover::Cover;
use picola_logic::cube::Cube;
use picola_logic::urp::complement;

/// One LAST_GASP attempt. Returns `Some(better)` when a cheaper cover was
/// found, `None` when the local minimum survives.
pub fn last_gasp(f: &Cover, dc: &Cover, off: &Cover) -> Option<Cover> {
    let dom = f.domain();
    assert_eq!(dom, dc.domain(), "last_gasp: domain mismatch");
    if f.len() < 2 {
        return None;
    }

    // Maximal independent reduction of every cube.
    let mut reduced: Vec<Cube> = Vec::with_capacity(f.len());
    for (i, c) in f.iter().enumerate() {
        let rest = Cover::from_cubes(
            dom,
            f.iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, x)| x.clone())
                .chain(dc.iter().cloned()),
        );
        let g = rest.cofactor(c);
        let h = complement(&g);
        match h.supercube() {
            None => continue, // fully redundant cube: nothing essential left
            Some(sc) => {
                let r = c.and(&sc);
                if r.is_valid(dom) {
                    reduced.push(r);
                }
            }
        }
    }
    if reduced.is_empty() {
        return None;
    }

    // Expand the reduced cubes; keep those whose prime covers >= 2 of them.
    let reduced_cover = Cover::from_cubes(dom, reduced.clone());
    let expanded = expand(&reduced_cover, off);
    let useful: Vec<Cube> = expanded
        .iter()
        .filter(|p| reduced.iter().filter(|r| p.covers(r)).count() >= 2)
        .cloned()
        .collect();
    if useful.is_empty() {
        return None;
    }

    let mut candidate = f.clone();
    for c in useful {
        candidate.push(c);
    }
    let candidate = irredundant(&candidate, dc);
    if (candidate.len(), candidate.literal_cost()) < (f.len(), f.literal_cost()) {
        Some(candidate)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::espresso::espresso;
    use picola_logic::domain::Domain;
    use picola_logic::equiv::implements;

    #[test]
    fn gasp_preserves_the_function() {
        let dom = Domain::binary(4);
        let on = Cover::parse(&dom, "110- 1-01 0-11 -010 1110");
        let dc = Cover::empty(&dom);
        let off = complement(&on);
        let f = espresso(&on, &dc);
        if let Some(better) = last_gasp(&f, &dc, &off) {
            assert!(implements(&better, &on, &dc));
            assert!(better.len() <= f.len());
        }
    }

    #[test]
    fn gasp_on_tiny_covers_is_noop() {
        let dom = Domain::binary(2);
        let f = Cover::parse(&dom, "11");
        let off = complement(&f);
        assert!(last_gasp(&f, &Cover::empty(&dom), &off).is_none());
    }

    #[test]
    fn gasp_never_returns_a_worse_cover() {
        let dom = Domain::binary(4);
        for text in ["11-- --11 1-1- -1-1", "1100 0011 1111 10-0"] {
            let on = Cover::parse(&dom, text);
            let dc = Cover::empty(&dom);
            let off = complement(&on);
            let f = espresso(&on, &dc);
            if let Some(better) = last_gasp(&f, &dc, &off) {
                assert!(
                    (better.len(), better.literal_cost()) < (f.len(), f.literal_cost()),
                    "{text}"
                );
                assert!(implements(&better, &on, &dc));
            }
        }
    }
}
