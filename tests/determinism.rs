//! Whole-stack determinism: the tables of the paper reproduction must come
//! out identical on every run and machine.

// Tests are exempt from the panic-freedom policy; clippy's in-tests
// exemption misses integration-test helpers, so waive it explicitly.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use picola::baselines::{standard_portfolio, AnnealingEncoder, EncLikeEncoder, NovaEncoder};
use picola::core::{picola_encode_with, Budget, Encoder, PicolaEncoder, PicolaOptions};
use picola::fsm::{benchmark_fsm, write_kiss};
use picola::stassign::{assign_states, fsm_constraints, FlowOptions, PicolaStateEncoder};

#[test]
fn suite_synthesis_is_stable() {
    for name in ["bbara", "keyb", "planet"] {
        let a = write_kiss(&benchmark_fsm(name).unwrap());
        let b = write_kiss(&benchmark_fsm(name).unwrap());
        assert_eq!(a, b, "{name} synthesis unstable");
    }
}

#[test]
fn constraint_extraction_is_stable() {
    let fsm = benchmark_fsm("donfile").unwrap();
    let a = fsm_constraints(&fsm, picola::constraints::ExtractMethod::Espresso);
    let b = fsm_constraints(&fsm, picola::constraints::ExtractMethod::Espresso);
    assert_eq!(a, b);
}

#[test]
fn every_encoder_is_deterministic() {
    let fsm = benchmark_fsm("ex3").unwrap();
    let n = fsm.num_states();
    let cs = fsm_constraints(&fsm, picola::constraints::ExtractMethod::Quick);
    let encoders: Vec<Box<dyn Encoder>> = vec![
        Box::<PicolaEncoder>::default(),
        Box::new(NovaEncoder::i_hybrid()),
        Box::new(EncLikeEncoder {
            max_evaluations: 200,
            ..EncLikeEncoder::default()
        }),
        Box::<AnnealingEncoder>::default(),
        Box::new(PicolaStateEncoder::for_fsm(&fsm)),
    ];
    for e in &encoders {
        let a = e.encode(n, &cs);
        let b = e.encode(n, &cs);
        assert_eq!(a, b, "{} not deterministic", e.name());
    }
}

#[test]
fn refine_is_identical_for_any_thread_count() {
    // The parallel refine loop evaluates candidates in fixed-size chunks
    // and applies the first improvement in enumeration order, so the
    // encoding must be bit-identical whether one thread or many do the
    // evaluating.
    for name in ["ex3", "donfile", "keyb"] {
        let fsm = benchmark_fsm(name).unwrap();
        let n = fsm.num_states();
        let cs = fsm_constraints(&fsm, picola::constraints::ExtractMethod::Quick);
        let with_threads = |threads: usize| {
            let opts = PicolaOptions {
                threads,
                ..PicolaOptions::default()
            };
            picola_encode_with(n, &cs, &opts).encoding
        };
        let sequential = with_threads(1);
        for threads in [2, 4, 7] {
            assert_eq!(
                sequential,
                with_threads(threads),
                "{name}: --threads {threads} diverged from --threads 1"
            );
        }
    }
}

#[test]
fn portfolio_is_identical_for_any_thread_count() {
    let fsm = benchmark_fsm("bbara").unwrap();
    let n = fsm.num_states();
    let cs = fsm_constraints(&fsm, picola::constraints::ExtractMethod::Quick);
    let run = |threads: usize| {
        let out = standard_portfolio(11)
            .with_threads(threads)
            .run(n, &cs, &Budget::unlimited())
            .unwrap();
        (
            out.winner,
            out.best().encoding.clone(),
            out.members
                .iter()
                .map(|m| (m.name.clone(), m.cost, m.satisfied))
                .collect::<Vec<_>>(),
        )
    };
    let sequential = run(1);
    assert_eq!(sequential, run(4));
    assert_eq!(sequential, run(5));
}

#[test]
fn tracing_does_not_perturb_encodings() {
    // The obs layer only observes: attaching a recorder to the budget must
    // leave every encoder's output (and the portfolio's winner) bit-
    // identical to an untraced run.
    use picola::baselines::standard_members;
    use picola::logic::Trace;

    let fsm = benchmark_fsm("ex3").unwrap();
    let n = fsm.num_states();
    let cs = fsm_constraints(&fsm, picola::constraints::ExtractMethod::Quick);

    for e in standard_members(123) {
        let (plain, _) = e.encode_bounded(n, &cs, &Budget::unlimited());
        let trace = Trace::new();
        let traced_budget = Budget::unlimited().with_recorder(trace.recorder());
        let (traced, _) = e.encode_bounded(n, &cs, &traced_budget);
        assert_eq!(plain, traced, "{}: tracing changed the encoding", e.name());
    }

    let plain = standard_portfolio(11)
        .with_threads(4)
        .run(n, &cs, &Budget::unlimited())
        .unwrap();
    let trace = Trace::new();
    let traced_budget = Budget::unlimited().with_recorder(trace.recorder());
    let traced = standard_portfolio(11)
        .with_threads(4)
        .run(n, &cs, &traced_budget)
        .unwrap();
    assert_eq!(plain.winner, traced.winner);
    assert_eq!(plain.best().encoding, traced.best().encoding);
}

#[test]
fn flow_sizes_are_stable() {
    let fsm = benchmark_fsm("s27").unwrap();
    let opts = FlowOptions::default();
    let a = assign_states(&fsm, &PicolaEncoder::default(), &opts);
    let b = assign_states(&fsm, &PicolaEncoder::default(), &opts);
    assert_eq!(a.size, b.size);
    assert_eq!(a.literals, b.literals);
    assert_eq!(a.encoding, b.encoding);
}
