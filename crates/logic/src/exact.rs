//! Exact two-level minimization (Quine–McCluskey style) for small functions.
//!
//! Generates all primes by iterated consensus, then solves the unate covering
//! problem over the on-set minterms by branch and bound. Exponential: use
//! only on functions with a small input space (the PICOLA constraint
//! functions, with `nv ≤ 8` code bits, qualify). Serves as a quality oracle
//! for the heuristic [`crate::flat_espresso`] in tests and ablations.
//!
//! Both phases are budget-bounded: prime generation ticks `"exact.primes"`
//! per consensus pair and the covering search ticks `"exact.node"` per
//! branch-and-bound node. Exhaustion never panics — the best (greedy or
//! partially-searched) cover found so far comes back as
//! [`ExactOutcome::Truncated`].

use crate::budget::Budget;
use crate::cover::Cover;
use crate::obs;
use crate::primes::all_primes_bounded;

/// Point-enumeration guard: domains with more total points than this are
/// refused (gracefully, via [`ExactOutcome::Truncated`]) rather than
/// enumerated, since the covering matrix alone would exhaust memory.
const MAX_EXACT_POINTS: u64 = 1 << 20;

/// Result of an exact minimization attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExactOutcome {
    /// A provably minimum cover was found.
    Minimum(Cover),
    /// The budget ran out (or the domain was too large to enumerate);
    /// the best valid cover found so far is returned.
    Truncated(Cover),
}

impl ExactOutcome {
    /// The cover, minimal or best-effort.
    pub fn cover(&self) -> &Cover {
        match self {
            ExactOutcome::Minimum(c) | ExactOutcome::Truncated(c) => c,
        }
    }

    /// `true` when the cover is provably minimum.
    pub fn is_minimum(&self) -> bool {
        matches!(self, ExactOutcome::Minimum(_))
    }
}

/// Exactly minimizes `(on, dc)` with a search budget of `max_nodes` work
/// units shared between prime generation and branch-and-bound search.
///
/// # Panics
///
/// Panics if the domains differ.
pub fn exact_minimize(on: &Cover, dc: &Cover, max_nodes: usize) -> ExactOutcome {
    exact_minimize_bounded(on, dc, &Budget::with_work_limit(max_nodes as u64))
}

/// Exactly minimizes `(on, dc)` under `budget`.
///
/// The returned cover always implements the function: prime generation
/// preserves coverage of the on-set even when truncated, and a greedy
/// selection provides a valid cover before the branch-and-bound search
/// refines it. Degradation costs minimality, never correctness.
///
/// # Panics
///
/// Panics if the domains differ.
pub fn exact_minimize_bounded(on: &Cover, dc: &Cover, budget: &Budget) -> ExactOutcome {
    let dom = on.domain();
    assert_eq!(dom, dc.domain(), "exact_minimize: domain mismatch");
    let span = obs::current_or(budget.recorder()).span("exact");
    let _cur = obs::enter(span.recorder());
    if on.is_empty() {
        return ExactOutcome::Minimum(Cover::empty(dom));
    }

    let fallback = || {
        let mut f = on.clone();
        f.scc();
        ExactOutcome::Truncated(f)
    };

    // Refuse to enumerate astronomically large domains.
    let total_points = (0..dom.num_vars())
        .map(|v| dom.var(v).parts() as u64)
        .try_fold(1u64, |acc, p| acc.checked_mul(p))
        .unwrap_or(u64::MAX);
    if total_points > MAX_EXACT_POINTS {
        return fallback();
    }

    let (primes, primes_complete) = all_primes_bounded(on, dc, budget);

    // Minterms of the on-set that must be covered.
    let points: Vec<Vec<usize>> = Cover::enumerate_points(dom)
        .into_iter()
        .filter(|pt| on.covers_point(pt))
        .collect();

    // Coverage matrix: per prime, the bit-set of points it covers.
    let cov: Vec<Vec<bool>> = primes
        .iter()
        .map(|p| {
            let single = Cover::from_cubes(dom, [p.clone()]);
            points.iter().map(|pt| single.covers_point(pt)).collect()
        })
        .collect();

    let npts = points.len();
    let nprimes = primes.len();

    // Greedy initial solution for an upper bound (and as the guaranteed
    // best-so-far under budget exhaustion). Runs unbudgeted: it is
    // polynomial and provides the degradation result itself.
    let mut best: Option<Vec<usize>> = {
        let mut chosen = Vec::new();
        let mut covered = vec![false; npts];
        let mut stuck = false;
        while covered.iter().any(|&c| !c) {
            let pick = (0..nprimes)
                .map(|i| {
                    let gain = (0..npts).filter(|&j| !covered[j] && cov[i][j]).count();
                    (i, gain)
                })
                .max_by_key(|&(_, g)| g)
                .filter(|&(_, g)| g > 0);
            let Some((bi, _)) = pick else {
                // No implicant covers a remaining point — only reachable if
                // prime generation returned an incomplete set, which it
                // never does for the on-set; bail out defensively.
                stuck = true;
                break;
            };
            chosen.push(bi);
            for j in 0..npts {
                if cov[bi][j] {
                    covered[j] = true;
                }
            }
        }
        if stuck {
            None
        } else {
            Some(chosen)
        }
    };
    if best.is_none() {
        return fallback();
    }

    fn search(
        cov: &[Vec<bool>],
        npts: usize,
        covered: &mut Vec<bool>,
        chosen: &mut Vec<usize>,
        newly: &mut Vec<usize>,
        best: &mut Option<Vec<usize>>,
        budget: &Budget,
    ) {
        if !budget.tick("exact.node", 1) {
            return;
        }
        // Find the first uncovered point; none left means a complete cover.
        let Some(j) = (0..npts).find(|&j| !covered[j]) else {
            if best.as_ref().is_none_or(|b| chosen.len() < b.len()) {
                *best = Some(chosen.clone());
            }
            return;
        };
        // At least one more prime is needed; prune if that cannot improve.
        if let Some(b) = best {
            if chosen.len() + 1 >= b.len() {
                return;
            }
        }
        // Branch over every prime covering point j. `newly` is one flat
        // stack shared by the whole recursion: each frame remembers where
        // its span starts and unwinds back to that mark, so branching
        // allocates nothing.
        for (i, row) in cov.iter().enumerate() {
            if !row[j] {
                continue;
            }
            let mark = newly.len();
            for k in 0..npts {
                if !covered[k] && row[k] {
                    covered[k] = true;
                    newly.push(k);
                }
            }
            chosen.push(i);
            search(cov, npts, covered, chosen, newly, best, budget);
            chosen.pop();
            while newly.len() > mark {
                if let Some(k) = newly.pop() {
                    covered[k] = false;
                }
            }
            if budget.is_exhausted() {
                return;
            }
        }
    }

    let mut covered = vec![false; npts];
    let mut chosen = Vec::new();
    let mut newly = Vec::new();
    search(
        &cov, npts, &mut covered, &mut chosen, &mut newly, &mut best, budget,
    );

    let Some(chosen) = best else {
        return fallback();
    };
    let cover = Cover::from_cubes(dom, chosen.iter().map(|&i| primes.cubes()[i].clone()));
    if primes_complete && !budget.is_exhausted() {
        ExactOutcome::Minimum(cover)
    } else {
        ExactOutcome::Truncated(cover)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::equiv::implements;
    use crate::flat::flat_espresso;

    #[test]
    fn exact_matches_known_minimum() {
        let dom = Domain::binary(3);
        let on = Cover::parse(&dom, "110 111 011");
        let out = exact_minimize(&on, &Cover::empty(&dom), 100_000);
        assert!(out.is_minimum(), "budget should suffice: {out:?}");
        assert_eq!(out.cover().len(), 2);
        assert!(implements(out.cover(), &on, &Cover::empty(&dom)));
    }

    #[test]
    fn exact_lower_bounds_espresso() {
        let dom = Domain::binary(4);
        for text in [
            "1100 0110 0011 1001",
            "1111 0000 1010",
            "1--- -1-- --1- ---1",
        ] {
            let on = Cover::parse(&dom, text);
            let dc = Cover::empty(&dom);
            let exact = exact_minimize(&on, &dc, 1_000_000);
            let heur = flat_espresso(&on, &dc);
            assert!(
                exact.cover().len() <= heur.len(),
                "exact {} > espresso {} on {text}",
                exact.cover().len(),
                heur.len()
            );
            assert!(implements(exact.cover(), &on, &dc));
        }
    }

    #[test]
    fn exact_uses_dont_cares() {
        let dom = Domain::binary(3);
        let on = Cover::parse(&dom, "111 100");
        let dc = Cover::parse(&dom, "110 101");
        let out = exact_minimize(&on, &dc, 100_000);
        assert_eq!(out.cover().len(), 1);
    }

    #[test]
    fn empty_function_minimizes_to_empty() {
        let dom = Domain::binary(2);
        let out = exact_minimize(&Cover::empty(&dom), &Cover::empty(&dom), 10);
        assert!(out.cover().is_empty());
    }

    #[test]
    fn exhausted_budget_truncates_but_stays_valid() {
        let dom = Domain::binary(4);
        let on = Cover::parse(&dom, "1100 0110 0011 1001 1111 0101");
        let dc = Cover::empty(&dom);
        for limit in [0u64, 1, 3, 10, 50] {
            let budget = Budget::with_work_limit(limit);
            let out = exact_minimize_bounded(&on, &dc, &budget);
            assert_eq!(
                out.is_minimum(),
                !budget.is_exhausted(),
                "minimality claim must match budget state at limit {limit}"
            );
            assert!(
                implements(out.cover(), &on, &dc),
                "limit {limit} produced an invalid cover"
            );
        }
        // A tiny limit certainly cannot finish the two phases.
        let tiny = Budget::with_work_limit(3);
        assert!(!exact_minimize_bounded(&on, &dc, &tiny).is_minimum());
    }

    #[test]
    fn injected_fault_at_primes_truncates() {
        let _guard = crate::chaos::arm("exact.primes", 0);
        let dom = Domain::binary(3);
        let on = Cover::parse(&dom, "110 111 011");
        let budget = Budget::unlimited();
        let out = exact_minimize_bounded(&on, &Cover::empty(&dom), &budget);
        assert!(!out.is_minimum());
        assert!(implements(out.cover(), &on, &Cover::empty(&dom)));
    }

    #[test]
    fn injected_fault_at_search_node_truncates() {
        let _guard = crate::chaos::arm("exact.node", 0);
        let dom = Domain::binary(3);
        let on = Cover::parse(&dom, "110 111 011");
        let out = exact_minimize_bounded(&on, &Cover::empty(&dom), &Budget::unlimited());
        assert!(!out.is_minimum());
        assert!(implements(out.cover(), &on, &Cover::empty(&dom)));
    }

    #[test]
    fn oversized_domain_is_refused_gracefully() {
        let dom = Domain::binary(24);
        let on = Cover::parse(&dom, "1-----------------------");
        let out = exact_minimize_bounded(&on, &Cover::empty(&dom), &Budget::unlimited());
        assert!(!out.is_minimum());
        assert!(implements(out.cover(), &on, &Cover::empty(&dom)));
    }
}
