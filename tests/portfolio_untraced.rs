//! Budget exhaustion mid-portfolio with **no recorder installed**.
//!
//! Every run here is untraced: no trace is created and no recorder is
//! attached to a budget or entered on a thread. The budget machinery —
//! work limits, graceful degradation, chaos injection — must not lean on
//! recorder state: exhaustion mid-portfolio still yields a best-so-far
//! outcome with `Completion::Degraded`, never a panic, never a `None`.

#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use picola::baselines::standard_portfolio;
use picola::constraints::extract_constraints;
use picola::core::{Budget, Completion, ExhaustReason};
use picola::fsm::{benchmark_fsm, symbolic_cover};
use picola::logic::{chaos, obs};
use std::sync::Mutex;

/// Global chaos plans are process-wide; every test here serializes so an
/// armed plan cannot leak into a concurrently running sibling.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    assert!(!obs::current().is_enabled(), "runs here are untraced");
    CHAOS_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn bbara_problem() -> (usize, Vec<picola::constraints::GroupConstraint>) {
    let fsm = benchmark_fsm("bbara").expect("bbara is in the suite");
    (fsm.num_states(), extract_constraints(&symbolic_cover(&fsm)))
}

#[test]
fn work_limit_exhaustion_mid_portfolio_degrades_untraced() {
    let _lock = lock();
    let (n, cs) = bbara_problem();
    // A one-unit work budget exhausts inside the first member's first
    // ticks: deterministic, no wall-clock dependence.
    let budget = Budget::with_work_limit(1);
    let outcome = standard_portfolio(0)
        .run(n, &cs, &budget)
        .expect("an exhausted portfolio still reports its best member");
    assert!(
        matches!(
            outcome.completion,
            Completion::Degraded {
                reason: ExhaustReason::WorkLimit,
                ..
            }
        ),
        "expected work-limit degradation, got {:?}",
        outcome.completion
    );
    // The winner is still a valid priced encoding.
    assert!(outcome.best().cost > 0);
}

#[test]
fn injected_exhaustion_mid_portfolio_degrades_untraced() {
    let _lock = lock();
    let (n, cs) = bbara_problem();
    // Fire the chaos fault partway into the annealing member; untraced,
    // the injection path must work exactly as it does under a trace. The
    // fault degrades that member privately — it must not poison the
    // portfolio's parent budget or the other members.
    let _guard = chaos::arm_global("anneal.move", 5);
    let budget = Budget::unlimited();
    let outcome = standard_portfolio(0)
        .run(n, &cs, &budget)
        .expect("an injected fault still leaves a best member");
    let anneal = outcome
        .members
        .iter()
        .find(|m| m.name == "anneal")
        .expect("anneal member present");
    assert!(
        matches!(
            anneal.completion,
            Completion::Degraded {
                reason: ExhaustReason::Injected,
                ..
            }
        ),
        "expected injected degradation in the anneal member, got {:?}",
        anneal.completion
    );
    // Every member still produced a full encoding.
    for m in &outcome.members {
        assert_eq!(m.encoding.num_symbols(), n, "{}", m.name);
    }
}

#[test]
fn degraded_and_complete_runs_price_identically_untraced() {
    let _lock = lock();
    let (n, cs) = bbara_problem();
    let unbounded = standard_portfolio(0)
        .run(n, &cs, &Budget::unlimited())
        .expect("unbounded run");
    assert!(unbounded.completion.is_complete());
    // A generous-but-finite work budget must reproduce the unbounded
    // winner bit-identically (determinism holds without a recorder).
    let bounded = standard_portfolio(0)
        .run(n, &cs, &Budget::with_work_limit(u64::MAX / 2))
        .expect("bounded run");
    assert_eq!(unbounded.best().name, bounded.best().name);
    assert_eq!(unbounded.best().cost, bounded.best().cost);
}
