//! The unate recursive paradigm: tautology checking and complementation.
//!
//! Both algorithms follow ESPRESSO's scheme: pick the *most binate* variable,
//! branch over its parts via the Shannon (cofactor) expansion, and recurse,
//! with cheap structural checks cutting most branches early. The
//! complement's merges cannot produce a contained cube (the proof is in
//! `compl_rec`), so they are sorted by descending part count and never
//! scanned for containment.

use std::cmp::Reverse;

use crate::cover::Cover;
use crate::cube::Cube;
use crate::domain::Domain;

/// Picks the most binate variable of a cube list: the variable whose literal
/// is non-full in the greatest number of cubes. Returns `None` when every
/// cube is full in every variable.
fn most_binate_var(dom: &Domain, cubes: &[Cube]) -> Option<usize> {
    let mut best: Option<(usize, usize, usize)> = None; // (count, -parts, var)
    for v in 0..dom.num_vars() {
        let count = cubes.iter().filter(|c| !c.var_is_full(dom, v)).count();
        if count == 0 {
            continue;
        }
        let parts = dom.var(v).parts();
        let better = match best {
            None => true,
            Some((bc, bp, _)) => count > bc || (count == bc && parts < bp),
        };
        if better {
            best = Some((count, parts, v));
        }
    }
    best.map(|(_, _, v)| v)
}

/// The cube selecting part `p` of variable `v` (full in every other
/// variable).
fn part_cube(dom: &Domain, v: usize, p: usize) -> Cube {
    let mut c = Cube::full(dom);
    c.restrict(dom, v, p);
    c
}

fn cofactor_list(dom: &Domain, cubes: &[Cube], p: &Cube) -> Vec<Cube> {
    cubes
        .iter()
        .filter_map(|c| c.cofactor(p, dom))
        .collect()
}

/// Whether the union over the cube list admits every part of every variable.
/// If not, some value column is all-zero and the cover cannot be a tautology.
fn or_all_is_full(dom: &Domain, cubes: &[Cube]) -> bool {
    let mut acc = Cube::empty(dom);
    for c in cubes {
        acc.or_assign(c);
        if acc.is_full(dom) {
            return true;
        }
    }
    acc.is_full(dom)
}

fn taut_rec(dom: &Domain, cubes: &[Cube]) -> bool {
    if cubes.iter().any(|c| c.is_full(dom)) {
        return true;
    }
    if cubes.is_empty() || !or_all_is_full(dom, cubes) {
        return false;
    }
    let v = match most_binate_var(dom, cubes) {
        Some(v) => v,
        // All cubes full in all vars and none is the full cube: impossible,
        // but be safe.
        None => return false,
    };
    for p in 0..dom.var(v).parts() {
        let pc = part_cube(dom, v, p);
        let branch = cofactor_list(dom, cubes, &pc);
        if !taut_rec(dom, &branch) {
            return false;
        }
    }
    true
}

/// Whether the cover is a tautology (covers every point of the domain).
///
/// # Examples
///
/// ```
/// use picola_logic::{Cover, Domain, tautology};
///
/// let dom = Domain::binary(2);
/// assert!(tautology(&Cover::parse(&dom, "1- 0-")));
/// assert!(!tautology(&Cover::parse(&dom, "1- 01")));
/// ```
pub fn tautology(f: &Cover) -> bool {
    taut_rec(f.domain(), f.cubes())
}

/// The complement of a single cube as a list of cubes (De Morgan expansion,
/// one cube per non-full variable).
pub fn cube_complement(dom: &Domain, c: &Cube) -> Vec<Cube> {
    let mut out = Vec::new();
    for v in 0..dom.num_vars() {
        if c.var_is_full(dom, v) {
            continue;
        }
        let mut k = Cube::full(dom);
        for p in dom.var(v).part_range() {
            if c.has_part(p) {
                k.clear_part(p);
            }
        }
        if k.is_valid(dom) {
            out.push(k);
        }
    }
    out
}

fn compl_rec(dom: &Domain, cubes: &[Cube]) -> Vec<Cube> {
    if cubes.is_empty() {
        return vec![Cube::full(dom)];
    }
    if cubes.iter().any(|c| c.is_full(dom)) {
        return Vec::new();
    }
    if cubes.len() == 1 {
        return cube_complement(dom, &cubes[0]);
    }
    let v = match most_binate_var(dom, cubes) {
        Some(v) => v,
        None => return Vec::new(), // every cube full everywhere: universe
    };
    let parts = dom.var(v).parts();
    let mut branch_results: Vec<Vec<Cube>> = Vec::with_capacity(parts);
    for p in 0..parts {
        let pc = part_cube(dom, v, p);
        let branch = cofactor_list(dom, cubes, &pc);
        branch_results.push(compl_rec(dom, &branch));
    }
    // Lift cubes common to all branches: they belong to the complement with
    // variable `v` left full, saving `parts` restricted copies.
    let mut out: Vec<Cube> = Vec::new();
    if let [first, rest @ ..] = branch_results.as_slice() {
        let mut lifted: Vec<Cube> = Vec::new();
        for c in first {
            if rest.iter().all(|b| b.contains(c)) {
                lifted.push(c.clone());
            }
        }
        for (p, branch) in branch_results.iter().enumerate() {
            let pc = part_cube(dom, v, p);
            for c in branch {
                if lifted.contains(c) {
                    continue;
                }
                // c has v full (see the proof below), so c ∧ {p} is valid.
                let r = c.and(&pc);
                debug_assert!(r.is_valid(dom), "complement: branch cube lacks its part");
                out.push(r);
            }
        }
        out.extend(lifted);
    }
    // No cube of this merge contains another, so a closing scc pass could
    // only reorder it; the stable descending part-count sort is that order.
    // * Each branch's input has v raised to full. The recursion never
    //   branches on a variable that every cube fills, and `cube_complement`
    //   skips full variables, so every cube of a branch result has v full.
    // * Base cases return containment-free lists (the full cube alone, or
    //   one cube per non-full variable), so by induction every merge does
    //   too.
    // * Cubes narrowed to parts p ≠ q are disjoint on v, and narrowing one
    //   branch's cubes to the same p keeps them containment-free.
    // * A lifted cube L has v full and a narrowed cube does not (a branching
    //   variable has at least two parts), so no narrowed cube holds L. If L
    //   held c ∧ {p}, it would hold c, and L and c are distinct cubes of
    //   branch p's containment-free result.
    // Covers hold only valid cubes and cofactors of valid cubes stay valid,
    // so this holds for every input.
    out.sort_by_key(|c| Reverse(c.part_count()));
    out
}

/// The complement of a cover, computed by the unate recursive paradigm with
/// branch lifting. Each merge is containment-free by construction and is
/// only sorted, never passed through single-cube containment.
///
/// The result is a (generally irredundant but not necessarily minimal) cover
/// of exactly the points not covered by `f`.
///
/// # Examples
///
/// ```
/// use picola_logic::{complement, tautology, Cover, Domain};
///
/// let dom = Domain::binary(3);
/// let f = Cover::parse(&dom, "1-- -1-");
/// let g = complement(&f);
/// // f ∪ g is a tautology and f ∩ g is empty
/// assert!(tautology(&f.union(&g)));
/// ```
pub fn complement(f: &Cover) -> Cover {
    let cubes = compl_rec(f.domain(), f.cubes());
    Cover::from_cubes(f.domain(), cubes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::DomainBuilder;

    #[test]
    fn tautology_trivial_cases() {
        let dom = Domain::binary(2);
        assert!(tautology(&Cover::universe(&dom)));
        assert!(!tautology(&Cover::empty(&dom)));
        assert!(!tautology(&Cover::parse(&dom, "1-")));
    }

    #[test]
    fn tautology_split_cover() {
        let dom = Domain::binary(3);
        assert!(tautology(&Cover::parse(&dom, "1-- 01- 001 000")));
        assert!(!tautology(&Cover::parse(&dom, "1-- 01- 001")));
    }

    #[test]
    fn tautology_multivalued() {
        let dom = DomainBuilder::new().multi("s", 3).binary("x").build();
        // cover: s in {0,1} plus s=2 (all x) => tautology
        let mut a = Cube::full(&dom);
        a.clear_part(2); // remove s=2
        let mut b = Cube::full(&dom);
        b.restrict(&dom, 0, 2);
        assert!(tautology(&Cover::from_cubes(&dom, [a.clone(), b])));
        assert!(!tautology(&Cover::from_cubes(&dom, [a])));
    }

    #[test]
    fn cube_complement_demorgan() {
        let dom = Domain::binary(2);
        let c = &Cover::parse(&dom, "10").cubes()[0].clone();
        let compl = cube_complement(&dom, c);
        // complement of x0 x1' = x0' + x1
        assert_eq!(compl.len(), 2);
        let g = Cover::from_cubes(&dom, compl);
        assert!(tautology(&Cover::parse(&dom, "10").union(&g)));
    }

    #[test]
    fn complement_roundtrip_exhaustive() {
        let dom = Domain::binary(3);
        for text in ["1--", "1-- -1- --1", "101 010", "0-- 1-1", "111"] {
            let f = Cover::parse(&dom, text);
            let g = complement(&f);
            for pt in Cover::enumerate_points(&dom) {
                assert_ne!(
                    f.covers_point(&pt),
                    g.covers_point(&pt),
                    "point {pt:?} of {text}"
                );
            }
        }
    }

    #[test]
    fn complement_of_empty_and_universe() {
        let dom = Domain::binary(2);
        assert!(complement(&Cover::empty(&dom)).has_full_cube());
        assert!(complement(&Cover::universe(&dom)).is_empty());
    }

    #[test]
    fn complement_multivalued_exhaustive() {
        let dom = DomainBuilder::new().multi("s", 4).binary("x").build();
        let mut a = Cube::full(&dom);
        a.restrict(&dom, 0, 1);
        let mut b = Cube::full(&dom);
        b.clear_part(0);
        b.clear_part(1); // s in {2,3}
        b.restrict_binary(&dom, 1, true);
        let f = Cover::from_cubes(&dom, [a, b]);
        let g = complement(&f);
        for pt in Cover::enumerate_points(&dom) {
            assert_ne!(f.covers_point(&pt), g.covers_point(&pt), "point {pt:?}");
        }
    }
}
