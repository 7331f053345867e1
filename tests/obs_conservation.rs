//! Counter conservation: every work unit drained from a [`Budget`] must
//! appear in the attached trace (`Trace::total_work()` equals
//! `Budget::work_done()`), and every span must close — on clean runs, on
//! budget-degraded runs, and under every registered chaos trigger point,
//! sequential and parallel alike.

// Tests are exempt from the panic-freedom policy; clippy's in-tests
// exemption misses integration-test helpers, so waive it explicitly.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use picola::baselines::{standard_portfolio, AnnealingEncoder, EncLikeEncoder, NovaEncoder};
use picola::constraints::{Encoding, GroupConstraint, SymbolSet};
use picola::core::{chaos, Budget, Completion, Encoder, EncoderPortfolio, PicolaEncoder};
use picola::fsm::parse_kiss;
use picola::logic::{Counter, Trace};
use picola::sat::{ExactOracle, SatEncoder};
use picola::stassign::{assign_states_bounded, FlowOptions};
use std::sync::Mutex;

/// Serializes the tests in this binary: a global chaos plan armed by one
/// test must not leak faults into another running concurrently.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    CHAOS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

const MACHINE: &str = "\
.i 2
.o 1
.r s0
-0 s0 s0 0
01 s0 s1 0
11 s0 s2 1
-- s1 s3 1
0- s2 s0 0
1- s2 s3 1
-1 s3 s0 1
-0 s3 s1 0
.e
";

fn small_constraints() -> Vec<GroupConstraint> {
    [[0usize, 1], [2, 3], [4, 5]]
        .iter()
        .map(|g| GroupConstraint::new(SymbolSet::from_members(8, g.iter().copied())))
        .collect()
}

/// An instance whose natural seed is suboptimal, so the SAT member's
/// bound-tightening loop always issues real solver probes (and therefore
/// real `sat.conflict` ticks).
fn sat_constraints() -> Vec<GroupConstraint> {
    [&[0usize, 3, 5][..], &[1, 2], &[6, 7]]
        .iter()
        .map(|g| GroupConstraint::new(SymbolSet::from_members(8, g.iter().copied())))
        .collect()
}

/// Asserts the conservation contract for one traced run.
fn check(trace: &Trace, budget: &Budget, ctx: &str) {
    assert_eq!(
        trace.total_work(),
        budget.work_done(),
        "trace work != budget work: {ctx}"
    );
    assert_eq!(trace.open_spans(), 0, "unclosed spans: {ctx}");
    // Every minimization lookup is answered exactly once: from the memo or
    // by running the minimizer. Hits and misses must partition the calls.
    let snap = trace.snapshot();
    assert_eq!(
        snap.counter_total(Counter::MinimizeCacheHit)
            + snap.counter_total(Counter::MinimizeCacheMiss),
        snap.counter_total(Counter::MinimizeCalls),
        "cache hits + misses != minimize calls: {ctx}"
    );
}

/// Drives the full flow plus every baseline encoder under one traced
/// budget, so all registered trigger points that live under a budget are
/// exercised. Returns the trace for further assertions.
fn drive_traced(base: Budget, ctx: &str) -> Trace {
    let trace = Trace::new();
    let budget = base.with_recorder(trace.recorder());

    if let Ok(fsm) = parse_kiss("cons", MACHINE) {
        let r = assign_states_bounded(
            &fsm,
            &PicolaEncoder::default(),
            &FlowOptions::default(),
            &budget,
        );
        assert_eq!(r.encoding.num_symbols(), fsm.num_states());
    }
    let cs = small_constraints();
    for encoder in [
        &AnnealingEncoder::default() as &dyn Encoder,
        &NovaEncoder::i_hybrid(),
        &EncLikeEncoder::default(),
    ] {
        let (enc, _) = encoder.encode_bounded(8, &cs, &budget);
        assert_eq!(enc.num_symbols(), 8, "{}: {ctx}", encoder.name());
    }
    // The SAT member, on an instance that forces real solver probes.
    let (enc, _) = SatEncoder::default().encode_bounded(8, &sat_constraints(), &budget);
    assert_eq!(enc.num_symbols(), 8, "sat: {ctx}");

    check(&trace, &budget, ctx);
    trace
}

#[test]
fn unbounded_runs_conserve_work() {
    let _serial = lock();
    let trace = drive_traced(Budget::unlimited(), "unbounded");
    assert!(trace.total_work() > 0, "the flow must report work");
    assert_eq!(trace.snapshot().counter_total(Counter::FaultsInjected), 0);
}

#[test]
fn degraded_runs_conserve_work() {
    let _serial = lock();
    // Tiny work limits cut every stage short; the failing tick that trips
    // the limit still drains the pool, so it must also be recorded.
    for limit in [1u64, 2, 5, 50] {
        let trace = drive_traced(Budget::with_work_limit(limit), &format!("limit={limit}"));
        assert!(trace.total_work() > 0);
    }
}

#[test]
fn every_chaos_point_conserves_work_and_closes_spans() {
    let _serial = lock();
    for &point in chaos::TRIGGER_POINTS {
        for after in [0u64, 3] {
            let guard = chaos::arm(point, after);
            let trace = drive_traced(Budget::unlimited(), &format!("chaos {point}/{after}"));
            drop(guard);
            // A fault may or may not fire depending on whether this drive
            // reaches the point often enough; when it does, the injection
            // itself must be visible in the trace.
            let faults = trace.snapshot().counter_total(Counter::FaultsInjected);
            if point.starts_with("picola.") && after == 0 {
                assert!(faults > 0, "{point} must fire under the traced budget");
            }
        }
    }
}

#[test]
fn portfolio_chaos_sweep_conserves_work() {
    let _serial = lock();
    // Global plans reach the parallel portfolio workers; conservation must
    // hold even when ticks happen on threads the test never touches.
    let cs = small_constraints();
    for &point in chaos::TRIGGER_POINTS {
        let guard = chaos::arm_global(point, 2);
        let trace = Trace::new();
        let budget = Budget::unlimited().with_recorder(trace.recorder());
        let out = standard_portfolio(11)
            .with_threads(4)
            .run(8, &cs, &budget)
            .expect("non-empty portfolio");
        assert_eq!(out.best().encoding.num_symbols(), 8);
        drop(guard);
        check(&trace, &budget, &format!("portfolio chaos {point}"));
    }
}

#[test]
fn sat_oracle_conserves_work_even_when_exhausted() {
    let _serial = lock();
    // Only the SAT layer runs under this trace, so every budget work unit
    // must come from a decision or a conflict — the counters and the
    // drained pool reconcile exactly, complete and degraded alike.
    for limit in [1u64, 5, 50, u64::MAX] {
        let trace = Trace::new();
        let base = if limit == u64::MAX {
            Budget::unlimited()
        } else {
            Budget::with_work_limit(limit)
        };
        let budget = base.with_recorder(trace.recorder());
        let out = ExactOracle::default()
            .prove(8, &sat_constraints(), &budget)
            .expect("within the size guard");
        assert_eq!(out.encoding.num_symbols(), 8, "limit={limit}");
        if limit == u64::MAX {
            assert!(out.optimal, "unlimited budget must prove the optimum");
            assert!(out.completion.is_complete());
        }
        check(&trace, &budget, &format!("sat oracle limit={limit}"));
        let snap = trace.snapshot();
        assert_eq!(
            snap.counter_total(Counter::SatDecisions)
                + snap.counter_total(Counter::SatConflicts),
            budget.work_done(),
            "limit={limit}: sat ticks must account for all budget work"
        );
        assert!(
            snap.counter_total(Counter::SatDecisions) > 0,
            "limit={limit}: the loop must have probed"
        );
    }
}

/// An encoder that always panics, for proving spans close on the
/// panic-recovery path.
struct PanickingEncoder;

impl Encoder for PanickingEncoder {
    fn name(&self) -> &str {
        "boom"
    }

    fn encode(&self, _n: usize, _constraints: &[GroupConstraint]) -> Encoding {
        panic!("injected test panic")
    }

    fn encode_bounded(
        &self,
        _n: usize,
        _constraints: &[GroupConstraint],
        _budget: &Budget,
    ) -> (Encoding, Completion) {
        panic!("injected test panic")
    }
}

#[test]
fn panicking_member_still_closes_its_span() {
    let _serial = lock();
    let cs = small_constraints();
    let trace = Trace::new();
    let budget = Budget::unlimited().with_recorder(trace.recorder());
    let portfolio = EncoderPortfolio::new(vec![
        Box::new(PanickingEncoder),
        Box::new(PicolaEncoder::default()),
    ]);
    let out = portfolio
        .with_threads(2)
        .run(8, &cs, &budget)
        .expect("non-empty portfolio");
    assert_eq!(out.best().encoding.num_symbols(), 8, "survivor wins");
    assert_eq!(trace.snapshot().counter_total(Counter::PanicsCaught), 1);
    check(&trace, &budget, "panicking member");
}
