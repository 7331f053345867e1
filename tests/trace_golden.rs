//! Golden-trace snapshots: on a fixed Table 1 instance the obs layer must
//! emit a byte-identical span/counter tree no matter how many worker
//! threads run, because counters are bumped only on orchestrating threads
//! and span children are created in deterministic order.

// Tests are exempt from the panic-freedom policy; clippy's in-tests
// exemption misses integration-test helpers, so waive it explicitly.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use picola::baselines::standard_portfolio;
use picola::constraints::ExtractMethod;
use picola::core::{try_picola_encode_with, Budget, Completion, PicolaOptions};
use picola::fsm::benchmark_fsm;
use picola::logic::{Counter, Trace};
use picola::stassign::fsm_constraints;

/// Runs PICOLA on bbara (Table 1) with a recorder attached and returns the
/// rendered trace plus the recorded work total.
fn picola_trace(threads: usize) -> (String, u64) {
    let fsm = benchmark_fsm("bbara").expect("bbara is in the suite");
    let cs = fsm_constraints(&fsm, ExtractMethod::Quick);
    let trace = Trace::new();
    let budget = Budget::unlimited().with_recorder(trace.recorder());
    let opts = PicolaOptions {
        threads,
        ..PicolaOptions::default()
    };
    let r = try_picola_encode_with(fsm.num_states(), &cs, &opts, &budget).expect("valid input");
    assert!(matches!(r.completion, Completion::Complete));
    assert_eq!(trace.open_spans(), 0, "every span must be closed");
    (trace.render(), trace.total_work())
}

/// Races the standard portfolio on bbara with a recorder attached.
fn portfolio_trace(threads: usize) -> (String, u64) {
    let fsm = benchmark_fsm("bbara").expect("bbara is in the suite");
    let cs = fsm_constraints(&fsm, ExtractMethod::Quick);
    let trace = Trace::new();
    let budget = Budget::unlimited().with_recorder(trace.recorder());
    let out = standard_portfolio(7)
        .with_threads(threads)
        .run(fsm.num_states(), &cs, &budget)
        .expect("portfolio is non-empty");
    assert!(!out.members.is_empty());
    assert_eq!(trace.open_spans(), 0, "every span must be closed");
    (trace.render(), trace.total_work())
}

#[test]
fn picola_trace_is_identical_across_thread_counts() {
    let (t1, w1) = picola_trace(1);
    let (t4, w4) = picola_trace(4);
    assert_eq!(t1, t4, "span/counter tree must not depend on threads");
    assert_eq!(w1, w4, "recorded work must not depend on threads");
}

#[test]
fn picola_trace_has_the_expected_shape() {
    let fsm = benchmark_fsm("bbara").expect("bbara is in the suite");
    let cs = fsm_constraints(&fsm, ExtractMethod::Quick);
    let trace = Trace::new();
    let budget = Budget::unlimited().with_recorder(trace.recorder());
    let opts = PicolaOptions::default();
    let r = try_picola_encode_with(fsm.num_states(), &cs, &opts, &budget).expect("valid input");
    let nv = r.encoding.nv();

    let rendered = trace.render();
    assert!(rendered.starts_with("trace\n"), "root is 'trace'");
    assert!(rendered.contains("picola"), "missing picola span:\n{rendered}");
    assert!(rendered.contains("refine"), "missing refine span:\n{rendered}");
    for col in 0..nv {
        assert!(
            rendered.contains(&format!("column.{col}")),
            "missing column.{col} span:\n{rendered}"
        );
    }

    let snap = trace.snapshot();
    assert_eq!(
        snap.counter_total(Counter::ColumnsSolved),
        nv as u64,
        "one columns_solved bump per code column"
    );
    assert!(snap.counter_total(Counter::DichotomyEvals) > 0);
    assert!(snap.counter_total(Counter::WordOps) > 0);
    assert!(
        snap.counter_total(Counter::RefineAccepts) + snap.counter_total(Counter::RefineRejects) > 0,
        "refine must record its accept/reject tallies"
    );
    assert_eq!(
        snap.counter_total(Counter::RefineScratchReuse),
        snap.counter_total(Counter::RefineEvals),
        "the default (incremental) engine must serve every refine \
         evaluation from reused scratch"
    );
}

#[test]
fn repeated_runs_emit_the_same_trace() {
    let (a, _) = picola_trace(2);
    let (b, _) = picola_trace(2);
    assert_eq!(a, b, "same instance, same options → same trace bytes");
}

#[test]
fn portfolio_trace_is_identical_across_thread_counts() {
    let (t1, w1) = portfolio_trace(1);
    let (t4, w4) = portfolio_trace(4);
    assert_eq!(t1, t4, "member spans are pre-created in member order");
    assert_eq!(w1, w4);
}

#[test]
fn minimize_cache_counters_conserve_and_hit() {
    use picola::baselines::EncLikeEncoder;
    use picola::logic::obs;

    let fsm = benchmark_fsm("bbara").expect("bbara is in the suite");
    let cs = fsm_constraints(&fsm, ExtractMethod::Quick);
    let trace = Trace::new();
    {
        // ENC prices probes through Budget::unlimited() internally, so the
        // counters flow through the thread-local current recorder.
        let span = trace.recorder().span("enc-run");
        let _cur = obs::enter(span.recorder());
        let enc = EncLikeEncoder {
            max_evaluations: 60,
            ..EncLikeEncoder::default()
        };
        let (e, info) = enc.encode_detailed(fsm.num_states(), &cs);
        assert_eq!(e.num_symbols(), fsm.num_states());
        assert_eq!(
            trace.counter_total(Counter::MinimizeCacheHit),
            info.cache_hits,
            "run info must agree with the trace"
        );
        assert_eq!(
            trace.counter_total(Counter::MinimizeCacheMiss),
            info.cache_misses,
        );
    }
    assert_eq!(trace.open_spans(), 0);
    let calls = trace.counter_total(Counter::MinimizeCalls);
    let hits = trace.counter_total(Counter::MinimizeCacheHit);
    let misses = trace.counter_total(Counter::MinimizeCacheMiss);
    assert!(calls > 0, "ENC must price probes through the minimizer");
    assert_eq!(hits + misses, calls, "hits + misses must equal calls");
    assert!(hits > 0, "repeat constraint functions must hit the memo");
}

#[test]
fn portfolio_trace_nests_every_member() {
    let (rendered, _) = portfolio_trace(4);
    assert!(rendered.contains("portfolio"), "missing portfolio span");
    for name in standard_portfolio(7).names() {
        assert!(
            rendered.contains(&format!("member.{name}")),
            "missing member.{name} span:\n{rendered}"
        );
    }
}
