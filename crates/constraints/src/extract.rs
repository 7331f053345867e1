//! Face-constraint extraction from symbolic covers.
//!
//! The standard two-step encoding strategy first minimizes the symbolic
//! (multi-valued) representation; every minimized implicant whose
//! present-state literal spans several symbols becomes a face constraint
//! that, if satisfied by the encoding, keeps that implicant a single product
//! term in the Boolean domain.

use crate::constraint::GroupConstraint;
use crate::symbols::SymbolSet;
use picola_fsm::SymbolicCover;
use picola_logic::{
    flat_espresso_bounded, Budget, Completion, Cover, MinimizeOptions, MinimizeScratch,
};
use std::collections::BTreeMap;

/// How the symbolic cover is minimized before constraints are read off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExtractMethod {
    /// Full multi-valued ESPRESSO on the symbolic cover (the reference
    /// method; what NOVA-era flows run).
    #[default]
    Espresso,
    /// A single EXPAND/IRREDUNDANT pass — cheaper on very large machines,
    /// same flavour of constraints.
    Quick,
    /// Merge rows with identical input and output fields, taking the union
    /// of their state literals. No Boolean reasoning; fastest and fully
    /// deterministic.
    Merge,
}

/// Options for [`extract_constraints_with`].
#[derive(Debug, Clone, Default)]
pub struct ExtractOptions {
    /// Minimization method.
    pub method: ExtractMethod,
}

/// Extracts face constraints from `sc` with default options (full
/// multi-valued minimization).
pub fn extract_constraints(sc: &SymbolicCover) -> Vec<GroupConstraint> {
    extract_constraints_bounded(sc, &Budget::unlimited()).0
}

/// [`extract_constraints`] under `budget`. The minimization ticks
/// `espresso.iter`; when the budget runs out it stops early, and the
/// constraints are read off a less merged cover, so they may be fewer. The
/// second component says whether that happened.
pub fn extract_constraints_bounded(
    sc: &SymbolicCover,
    budget: &Budget,
) -> (Vec<GroupConstraint>, Completion) {
    extract_bounded(sc, &ExtractOptions::default(), budget)
}

/// Extracts face constraints from the symbolic cover.
///
/// Every implicant of the minimized cover whose present-state literal
/// contains at least two and fewer than all states yields a group
/// constraint; identical member sets are merged with their multiplicity
/// recorded as the constraint's weight. Constraints are returned largest
/// weight first, ties broken by smaller member count then member order, so
/// extraction is deterministic.
pub fn extract_constraints_with(
    sc: &SymbolicCover,
    opts: &ExtractOptions,
) -> Vec<GroupConstraint> {
    extract_bounded(sc, opts, &Budget::unlimited()).0
}

fn extract_bounded(
    sc: &SymbolicCover,
    opts: &ExtractOptions,
    budget: &Budget,
) -> (Vec<GroupConstraint>, Completion) {
    let n = sc.num_states;
    let sv = sc.state_var();
    let dom = &sc.domain;

    let espresso = |o: &MinimizeOptions| {
        flat_espresso_bounded(&sc.on, &sc.dc, o, budget, &mut MinimizeScratch::new())
    };
    let (minimized, completion): (Cover, Completion) = match opts.method {
        ExtractMethod::Espresso => espresso(&MinimizeOptions::default()),
        ExtractMethod::Quick => espresso(&MinimizeOptions {
            max_iterations: 0,
            use_essentials: false,
            ..MinimizeOptions::default()
        }),
        ExtractMethod::Merge => {
            // Group by all non-state variables: union the state literals.
            let mut groups: BTreeMap<Vec<u64>, SymbolSet> = BTreeMap::new();
            for c in sc.on.iter() {
                // Key: cube words with the state variable's parts cleared.
                let mut key = c.clone();
                key.raise_var(dom, sv);
                let entry = groups
                    .entry(key.words().to_vec())
                    .or_insert_with(|| SymbolSet::empty(n));
                for p in c.var_parts(dom, sv) {
                    entry.insert(p);
                }
            }
            let mut merged = Cover::empty(dom);
            for (key, states) in groups {
                // Rebuild a representative cube for counting purposes.
                let mut cube = picola_logic::Cube::full(dom);
                for (w, &bits) in key.iter().enumerate() {
                    for b in 0..64 {
                        if bits >> b & 1 == 0 {
                            let p = w * 64 + b;
                            if p < dom.total_parts() {
                                cube.clear_part(p);
                            }
                        }
                    }
                }
                for p in dom.var(sv).part_range() {
                    cube.clear_part(p);
                }
                for s in states.iter() {
                    cube.set_part(dom.var(sv).offset() + s);
                }
                merged.push(cube);
            }
            (merged, budget.completion())
        }
    };

    let mut by_members: BTreeMap<Vec<usize>, usize> = BTreeMap::new();
    for cube in minimized.iter() {
        let parts: Vec<usize> = cube.var_parts(dom, sv).collect();
        if parts.len() >= 2 && parts.len() < n {
            *by_members.entry(parts).or_insert(0) += 1;
        }
    }

    let mut out: Vec<GroupConstraint> = by_members
        .into_iter()
        .map(|(members, weight)| {
            let mut c = GroupConstraint::new(SymbolSet::from_members(n, members));
            c.set_weight(weight);
            c
        })
        .collect();
    out.sort_by(|a, b| {
        b.weight()
            .cmp(&a.weight())
            .then(a.len().cmp(&b.len()))
            .then(a.members().to_vec().cmp(&b.members().to_vec()))
    });
    (out, completion)
}

#[cfg(test)]
mod tests {
    use super::*;
    use picola_fsm::{parse_kiss, symbolic_cover};

    /// Two states always transitioning identically under input 1 — they
    /// should merge into one face constraint.
    const MERGEABLE: &str = "\
.i 1
.o 1
1 a c 1
1 b c 1
0 a a 0
0 b b 0
0 c a 0
1 c c 0
.e
";

    #[test]
    fn espresso_extraction_finds_mergeable_states() {
        let m = parse_kiss("t", MERGEABLE).unwrap();
        let sc = symbolic_cover(&m);
        let cs = extract_constraints(&sc);
        // a and b behave identically on input 1: the minimized cover keeps
        // one implicant with state literal {a, b}.
        assert!(
            cs.iter().any(|c| c.members().to_vec() == vec![0, 1]),
            "constraints: {cs:?}"
        );
    }

    #[test]
    fn merge_extraction_finds_the_same_group() {
        let m = parse_kiss("t", MERGEABLE).unwrap();
        let sc = symbolic_cover(&m);
        let opts = ExtractOptions {
            method: ExtractMethod::Merge,
        };
        let cs = extract_constraints_with(&sc, &opts);
        assert!(cs.iter().any(|c| c.members().to_vec() == vec![0, 1]));
    }

    #[test]
    fn extraction_is_deterministic() {
        let m = picola_fsm::benchmark_fsm("lion9").unwrap();
        let sc = symbolic_cover(&m);
        let a = extract_constraints(&sc);
        let b = extract_constraints(&sc);
        assert_eq!(a, b);
    }

    #[test]
    fn bounded_extraction_reports_a_cut_minimization() {
        let sc = symbolic_cover(&picola_fsm::benchmark_fsm("lion9").unwrap());
        let (full, done) = extract_constraints_bounded(&sc, &Budget::unlimited());
        assert!(done.is_complete());
        assert_eq!(full, extract_constraints(&sc));
        let _guard = picola_logic::chaos::arm("espresso.iter", 0);
        let (_, cut) = extract_constraints_bounded(&sc, &Budget::unlimited());
        assert!(!cut.is_complete());
    }

    #[test]
    fn trivial_literals_yield_no_constraints() {
        // Single-state literals only: no constraints.
        let text = ".i 1\n.o 1\n1 a b 1\n0 b a 1\n.e\n";
        let m = parse_kiss("t", text).unwrap();
        let sc = symbolic_cover(&m);
        let cs = extract_constraints(&sc);
        for c in &cs {
            assert!(c.len() >= 2);
            assert!(c.len() < 2usize.max(sc.num_states));
        }
    }

    #[test]
    fn quick_extraction_runs_on_a_suite_machine() {
        let m = picola_fsm::benchmark_fsm("bbara").unwrap();
        let sc = symbolic_cover(&m);
        let opts = ExtractOptions {
            method: ExtractMethod::Quick,
        };
        let cs = extract_constraints_with(&sc, &opts);
        assert!(!cs.is_empty());
        for c in &cs {
            assert!(c.len() >= 2 && c.len() < sc.num_states);
        }
    }
}
