//! The ESPRESSO heuristic two-level minimization loop.

use crate::essential::essentials;
use crate::expand::expand;
use crate::irredundant::irredundant;
use crate::reduce::reduce;
use picola_logic::budget::{Budget, Completion};
use picola_logic::cover::Cover;
use picola_logic::equiv::implements;
use picola_logic::obs;
use picola_logic::urp::complement;
use picola_logic::MinimizeOptions;

/// The cost espresso drives down: primarily the number of cubes, then the
/// literal count as tie-breaker.
fn cost(f: &Cover) -> (usize, usize) {
    (f.len(), f.literal_cost())
}

/// Minimizes the incompletely specified function with on-set `on` and
/// don't-care set `dc` using default options. See [`espresso_with`].
///
/// # Examples
///
/// ```
/// use picola_logic::{Cover, Domain};
/// use picola_oracle::espresso;
///
/// let dom = Domain::binary(3);
/// let on = Cover::parse(&dom, "110 111 011");
/// let min = espresso(&on, &Cover::empty(&dom));
/// assert_eq!(min.len(), 2); // 11- and -11
/// ```
pub fn espresso(on: &Cover, dc: &Cover) -> Cover {
    espresso_with(on, dc, &MinimizeOptions::default())
}

/// Minimizes `(on, dc)` with explicit options: EXPAND against the computed
/// off-set, IRREDUNDANT, one essential-prime extraction, then the
/// REDUCE → EXPAND → IRREDUNDANT loop until the cost stops improving.
///
/// The result is a prime, irredundant cover `f` with
/// `on ⊆ f ⊆ on ∪ dc` (verified by debug assertions when
/// `check_invariants` is set).
pub fn espresso_with(on: &Cover, dc: &Cover, opts: &MinimizeOptions) -> Cover {
    espresso_bounded(on, dc, opts, &Budget::unlimited()).0
}

/// Budget-aware [`espresso_with`]: polls `budget` once per main-loop
/// iteration (trigger point `"espresso.iter"`) and stops refining when it
/// runs out, returning the best cover found so far.
///
/// The returned cover always implements `(on, dc)` — even under immediate
/// exhaustion the on-set itself (made single-cube-containment-free) is
/// returned — so degradation costs quality, never correctness. The second
/// component is [`Budget::completion`] as of return.
pub fn espresso_bounded(
    on: &Cover,
    dc: &Cover,
    opts: &MinimizeOptions,
    budget: &Budget,
) -> (Cover, Completion) {
    let dom = on.domain();
    assert_eq!(dom, dc.domain(), "espresso: domain mismatch");
    let span = obs::current_or(budget.recorder()).span("espresso");
    let _cur = obs::enter(span.recorder());
    if on.is_empty() {
        return (Cover::empty(dom), budget.completion());
    }
    // The off-set complement below can itself be expensive, so honor a
    // budget that is already exhausted (or exhausts at entry) before it.
    // The degraded result keeps the scc pass (cheap, and callers' cube
    // counts under exhaustion stay comparable across releases).
    if !budget.tick("espresso.iter", 1) {
        let mut f = on.clone();
        f.scc();
        return (f, budget.completion());
    }
    let off = complement(&on.union(dc));
    if off.is_empty() {
        return (Cover::universe(dom), budget.completion());
    }

    let mut f = on.clone();
    f.scc();
    obs::count(obs::Counter::ExpandCalls, 1);
    f = expand(&f, &off);
    obs::count(obs::Counter::IrredundantCalls, 1);
    f = irredundant(&f, dc);
    if opts.check_invariants {
        debug_assert!(implements(&f, on, dc), "espresso: invariant lost after first pass");
    }

    // Essential primes never leave the cover; move them into the dc-set so
    // the loop optimizes only the remainder.
    let (ess, mut dc_aug) = if opts.use_essentials {
        let e = essentials(&f, dc);
        let remaining = Cover::from_cubes(
            dom,
            f.iter()
                .filter(|c| !e.iter().any(|x| x == *c))
                .cloned(),
        );
        f = remaining;
        (e.clone(), dc.union(&e))
    } else {
        (Cover::empty(dom), dc.clone())
    };
    dc_aug.scc();

    let mut best = cost(&f);
    let mut iterations = 0;
    'outer: loop {
        while iterations < opts.max_iterations {
            if !budget.tick("espresso.iter", 1) {
                break 'outer;
            }
            iterations += 1;
            obs::count(obs::Counter::EspressoIters, 1);
            if f.is_empty() {
                break 'outer;
            }
            obs::count(obs::Counter::ReduceCalls, 1);
            let reduced = reduce(&f, &dc_aug);
            obs::count(obs::Counter::ExpandCalls, 1);
            let expanded = expand(&reduced, &off);
            obs::count(obs::Counter::IrredundantCalls, 1);
            let candidate = irredundant(&expanded, &dc_aug);
            let c = cost(&candidate);
            if c < best {
                best = c;
                f = candidate;
            } else {
                break;
            }
        }
        if !opts.use_last_gasp || iterations >= opts.max_iterations || budget.is_exhausted() {
            break;
        }
        match crate::gasp::last_gasp(&f, &dc_aug, &off) {
            Some(better) => {
                best = cost(&better);
                f = better;
            }
            None => break,
        }
    }

    f.extend_with(&ess);
    f.scc();
    if opts.check_invariants {
        debug_assert!(implements(&f, on, dc), "espresso: result does not implement function");
    }
    (f, budget.completion())
}

#[cfg(test)]
mod tests {
    use super::*;
    use picola_logic::domain::{Domain, DomainBuilder};
    use picola_logic::cube::Cube;

    #[test]
    fn minimizes_classic_examples() {
        let dom = Domain::binary(3);
        // full cover of a tautology collapses to one cube
        let on = Cover::parse(&dom, "000 001 010 011 100 101 110 111");
        assert_eq!(espresso(&on, &Cover::empty(&dom)).len(), 1);
    }

    #[test]
    fn xor_stays_two_cubes() {
        let dom = Domain::binary(2);
        let on = Cover::parse(&dom, "10 01");
        assert_eq!(espresso(&on, &Cover::empty(&dom)).len(), 2);
    }

    #[test]
    fn uses_dont_cares_to_merge() {
        let dom = Domain::binary(3);
        // on = {111, 100}, dc = {110, 101}: minimises to single cube 1--
        let on = Cover::parse(&dom, "111 100");
        let dc = Cover::parse(&dom, "110 101");
        let m = espresso(&on, &dc);
        assert_eq!(m.len(), 1);
        assert_eq!(m.cubes()[0].render(&dom), "1 - -");
    }

    #[test]
    fn result_implements_function() {
        let dom = Domain::binary(4);
        let on = Cover::parse(&dom, "1100 0110 0011 1001 1111");
        let dc = Cover::parse(&dom, "0000");
        let m = espresso(&on, &dc);
        assert!(implements(&m, &on, &dc));
    }

    #[test]
    fn multivalued_minimization() {
        // f(s, x) over a 4-valued s: on-set = (s ∈ {0,1}) x + (s ∈ {2,3}) x
        // which is simply x.
        let dom = DomainBuilder::new().multi("s", 4).binary("x").build();
        let mut a = Cube::full(&dom);
        a.clear_part(2);
        a.clear_part(3);
        a.restrict_binary(&dom, 1, true);
        let mut b = Cube::full(&dom);
        b.clear_part(0);
        b.clear_part(1);
        b.restrict_binary(&dom, 1, true);
        let on = Cover::from_cubes(&dom, [a, b]);
        let m = espresso(&on, &Cover::empty(&dom));
        assert_eq!(m.len(), 1);
        assert!(m.cubes()[0].var_is_full(&dom, 0));
    }

    #[test]
    fn empty_and_universal_functions() {
        let dom = Domain::binary(2);
        assert!(espresso(&Cover::empty(&dom), &Cover::empty(&dom)).is_empty());
        let all = Cover::parse(&dom, "00 01 10 11");
        let m = espresso(&all, &Cover::empty(&dom));
        assert!(m.has_full_cube());
    }

    #[test]
    fn exhausted_budget_still_implements_function() {
        let dom = Domain::binary(4);
        let on = Cover::parse(&dom, "1100 0110 0011 1001 1111 0101");
        let dc = Cover::parse(&dom, "0000");
        // Work limit 0: exhausts on the entry tick, before any refinement.
        let budget = picola_logic::budget::Budget::with_work_limit(0);
        let (f, completion) = espresso_bounded(&on, &dc, &MinimizeOptions::default(), &budget);
        assert!(!completion.is_complete());
        assert!(implements(&f, &on, &dc));
    }

    #[test]
    fn tight_budget_degrades_mid_loop() {
        let dom = Domain::binary(4);
        let on = Cover::parse(&dom, "1100 0110 0011 1001 1111 0101");
        let dc = Cover::empty(&dom);
        // Allows the entry tick plus one loop iteration.
        let budget = picola_logic::budget::Budget::with_work_limit(2);
        let (f, completion) = espresso_bounded(&on, &dc, &MinimizeOptions::default(), &budget);
        assert!(implements(&f, &on, &dc));
        // Either the loop converged within budget or it degraded; both are
        // acceptable, but the cover must be valid regardless.
        let _ = completion;
    }

    #[test]
    fn unlimited_budget_matches_unbounded_result() {
        let dom = Domain::binary(3);
        let on = Cover::parse(&dom, "110 111 011");
        let budget = picola_logic::budget::Budget::unlimited();
        let (f, completion) =
            espresso_bounded(&on, &Cover::empty(&dom), &MinimizeOptions::default(), &budget);
        assert!(completion.is_complete());
        assert_eq!(f.len(), espresso(&on, &Cover::empty(&dom)).len());
    }

    #[test]
    fn no_essentials_option_still_valid() {
        let dom = Domain::binary(3);
        let on = Cover::parse(&dom, "110 111 011 001");
        let opts = MinimizeOptions {
            use_essentials: false,
            ..MinimizeOptions::default()
        };
        let m = espresso_with(&on, &Cover::empty(&dom), &opts);
        assert!(implements(&m, &on, &Cover::empty(&dom)));
        assert!(m.len() <= on.len());
    }
}
