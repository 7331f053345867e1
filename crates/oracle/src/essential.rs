//! Detection of essential primes.
//!
//! A prime `c` of an irredundant prime cover is *essential* when it covers a
//! minterm no other prime implicant of the function covers. ESPRESSO's test
//! avoids enumerating all primes: `c` is essential iff `c` is **not** covered
//! by `H ∪ DC`, where `H` collects, for every other cube `g` of the cover,
//! `g` itself (distance 0) or the consensus `cons(g, c)` (distance 1).

use picola_logic::cover::Cover;
use picola_logic::cube::Cube;
use picola_logic::equiv::cover_covers_cube;

fn essential_test_cover(f: &Cover, dc: &Cover, skip: usize) -> Cover {
    let dom = f.domain();
    let c = &f.cubes()[skip];
    let mut h: Vec<Cube> = Vec::new();
    for (j, g) in f.iter().enumerate() {
        if j == skip {
            continue;
        }
        match g.distance(c, dom) {
            0 => h.push(g.clone()),
            1 => {
                if let Some(k) = g.consensus(c, dom) {
                    h.push(k);
                }
            }
            _ => {}
        }
    }
    for g in dc.iter() {
        match g.distance(c, dom) {
            0 => h.push(g.clone()),
            1 => {
                if let Some(k) = g.consensus(c, dom) {
                    h.push(k);
                }
            }
            _ => {}
        }
    }
    Cover::from_cubes(dom, h)
}

/// Whether cube `f.cubes()[i]` is an essential prime of the function covered
/// by `f` with don't-care set `dc`.
pub fn is_essential(f: &Cover, dc: &Cover, i: usize) -> bool {
    let h = essential_test_cover(f, dc, i);
    !cover_covers_cube(&h, &f.cubes()[i])
}

/// Extracts the essential primes of `f` (assumed prime and irredundant
/// relative to `dc`).
pub fn essentials(f: &Cover, dc: &Cover) -> Cover {
    let dom = f.domain();
    assert_eq!(dom, dc.domain(), "essentials: domain mismatch");
    let picked = (0..f.len())
        .filter(|&i| is_essential(f, dc, i))
        .map(|i| f.cubes()[i].clone());
    Cover::from_cubes(dom, picked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::expand;
    use crate::irredundant::irredundant;
    use picola_logic::domain::Domain;
    use picola_logic::primes::all_primes;
    use picola_logic::urp::complement;

    /// Ground truth: `c` is essential iff some minterm of the on-set is
    /// covered by `c` and by no other prime of the full prime set.
    fn brute_essentials(on: &Cover, dc: &Cover) -> Vec<String> {
        let dom = on.domain();
        let primes = all_primes(on, dc);
        let mut out = Vec::new();
        for (i, p) in primes.iter().enumerate() {
            let others = Cover::from_cubes(
                dom,
                primes
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, c)| c.clone()),
            );
            let mut essential = false;
            for pt in Cover::enumerate_points(dom) {
                let single = Cover::from_cubes(dom, [p.clone()]);
                if on.covers_point(&pt) && single.covers_point(&pt) && !others.covers_point(&pt) {
                    essential = true;
                    break;
                }
            }
            if essential {
                out.push(p.render(dom));
            }
        }
        out.sort();
        out
    }

    fn check(on_text: &str, dc_text: &str, nvars: usize) {
        let dom = Domain::binary(nvars);
        let on = Cover::parse(&dom, on_text);
        let dc = if dc_text.is_empty() {
            Cover::empty(&dom)
        } else {
            Cover::parse(&dom, dc_text)
        };
        // Build a prime irredundant cover first (essentials assumes one).
        let off = complement(&on.union(&dc));
        let f = irredundant(&expand(&on, &off), &dc);
        let ess = essentials(&f, &dc);
        let mut got: Vec<String> = ess.iter().map(|c| c.render(&dom)).collect();
        got.sort();
        assert_eq!(got, brute_essentials(&on, &dc), "on={on_text} dc={dc_text}");
    }

    #[test]
    fn essentials_match_brute_force() {
        check("11- 0-1", "", 3);
        check("1-- -1- --1", "", 3);
        check("10 01", "", 2);
        check("110 011", "", 3);
        check("11- -11 1-1", "", 3); // cyclic-ish structure
    }

    #[test]
    fn essentials_with_dont_cares() {
        check("11", "10", 2);
        check("110 001", "111", 3);
    }

    #[test]
    fn all_cubes_essential_in_disjoint_cover() {
        let dom = Domain::binary(3);
        let f = Cover::parse(&dom, "11- 00-");
        let e = essentials(&f, &Cover::empty(&dom));
        assert_eq!(e.len(), 2);
    }
}
