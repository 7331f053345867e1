//! Cross-crate integration tests: KISS2 → constraints → encoding → encoded
//! machine → minimization, with behavioural equivalence checks against the
//! original state-transition table.

// Tests are exempt from the panic-freedom policy; clippy's in-tests
// exemption misses integration-test helpers, so waive it explicitly.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use picola::constraints::Encoding;
use picola::core::{evaluate_encoding, Encoder, PicolaEncoder};
use picola::fsm::{benchmark_fsm, parse_kiss, Fsm, Ternary};
use picola::logic::{flat_espresso, implements, Cover};
use picola::stassign::{assign_states, encode_machine, fsm_constraints, FlowOptions};

const SMALL: &str = "\
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

/// Looks up the row matching (state, input minterm); KISS2 benchmarks are
/// deterministic so at most one row matches.
fn lookup(fsm: &Fsm, state: usize, input: u32) -> Option<(Option<usize>, Vec<Ternary>)> {
    for t in fsm.transitions() {
        if t.from.is_some_and(|f| f != state) {
            continue;
        }
        let matches = t.input.iter().enumerate().all(|(b, lit)| match lit {
            Ternary::Zero => input >> b & 1 == 0,
            Ternary::One => input >> b & 1 == 1,
            Ternary::DontCare => true,
        });
        if matches {
            return Some((t.to, t.output.clone()));
        }
    }
    None
}

/// Evaluates a multi-output cover at (inputs, state code): returns the
/// asserted output parts.
fn eval_cover(cover: &Cover, ni: usize, nv: usize, input: u32, code: u32) -> Vec<bool> {
    let dom = cover.domain();
    let ov = dom.output_var().expect("output var");
    let nout = dom.var(ov).parts();
    let mut out = vec![false; nout];
    for cube in cover.iter() {
        let mut hit = true;
        for b in 0..ni {
            let v = (input >> b & 1) as usize;
            if !cube.has_part(dom.var(b).offset() + v) {
                hit = false;
                break;
            }
        }
        if hit {
            for b in 0..nv {
                let v = (code >> b & 1) as usize;
                if !cube.has_part(dom.var(ni + b).offset() + v) {
                    hit = false;
                    break;
                }
            }
        }
        if hit {
            for (o, flag) in out.iter_mut().enumerate() {
                if cube.has_part(dom.var(ov).offset() + o) {
                    *flag = true;
                }
            }
        }
    }
    out
}

/// The minimized encoded machine must agree with the symbolic machine on
/// every (state, input) pair the KISS table specifies.
fn check_behaviour(fsm: &Fsm, enc: &Encoding) {
    let em = encode_machine(fsm, enc);
    let minimized = flat_espresso(&em.on, &em.dc);
    assert!(
        implements(&minimized, &em.on, &em.dc),
        "{}: minimized cover out of bounds",
        fsm.name()
    );
    let ni = fsm.num_inputs();
    let nv = enc.nv();
    for state in 0..fsm.num_states() {
        for input in 0..1u32 << ni {
            let Some((to, outputs)) = lookup(fsm, state, input) else {
                continue;
            };
            let got = eval_cover(&minimized, ni, nv, input, enc.code(state));
            if let Some(next) = to {
                let want = enc.code(next);
                for (b, &bit) in got.iter().take(nv).enumerate() {
                    assert_eq!(
                        bit,
                        want >> b & 1 == 1,
                        "{}: state {state} input {input:b}: next-state bit {b}",
                        fsm.name()
                    );
                }
            }
            for (o, lit) in outputs.iter().enumerate() {
                match lit {
                    Ternary::One => assert!(
                        got[nv + o],
                        "{}: state {state} input {input:b}: output {o} should be 1",
                        fsm.name()
                    ),
                    Ternary::Zero => assert!(
                        !got[nv + o],
                        "{}: state {state} input {input:b}: output {o} should be 0",
                        fsm.name()
                    ),
                    Ternary::DontCare => {}
                }
            }
        }
    }
}

#[test]
fn encoded_small_machine_behaves_identically() {
    let fsm = parse_kiss("small", SMALL).unwrap();
    let constraints = fsm_constraints(&fsm, picola::constraints::ExtractMethod::Espresso);
    let enc = PicolaEncoder::default().encode(fsm.num_states(), &constraints);
    check_behaviour(&fsm, &enc);
}

#[test]
fn encoded_suite_machines_behave_identically() {
    for name in ["lion9", "s8", "ex5", "train11"] {
        let fsm = benchmark_fsm(name).unwrap();
        let constraints = fsm_constraints(&fsm, picola::constraints::ExtractMethod::Espresso);
        let enc = PicolaEncoder::default().encode(fsm.num_states(), &constraints);
        check_behaviour(&fsm, &enc);
    }
}

#[test]
fn natural_encoding_also_behaves_identically() {
    // Behaviour must hold for *any* valid encoding, not just PICOLA's.
    let fsm = parse_kiss("small", SMALL).unwrap();
    check_behaviour(&fsm, &Encoding::natural(fsm.num_states()));
}

#[test]
fn full_flow_reports_consistent_metrics() {
    let fsm = benchmark_fsm("bbara").unwrap();
    let r = assign_states(&fsm, &PicolaEncoder::default(), &FlowOptions::default());
    assert_eq!(r.encoding.num_symbols(), 10);
    assert_eq!(r.encoding.nv(), 4);
    assert!(r.size > 0 && r.literals >= r.size);
}

#[test]
fn picola_beats_or_matches_worst_case_encoders() {
    use picola::baselines::RandomEncoder;
    for name in ["bbara", "ex3", "keyb", "donfile"] {
        let fsm = benchmark_fsm(name).unwrap();
        let constraints = fsm_constraints(&fsm, picola::constraints::ExtractMethod::Quick);
        if constraints.is_empty() {
            continue;
        }
        let n = fsm.num_states();
        let picola = PicolaEncoder::default().encode(n, &constraints);
        let picola_cost = evaluate_encoding(&picola, &constraints).total_cubes;
        // median of a few random encodings
        let mut random_costs: Vec<usize> = (0..5)
            .map(|s| {
                let e = RandomEncoder { seed: s }.encode(n, &constraints);
                evaluate_encoding(&e, &constraints).total_cubes
            })
            .collect();
        random_costs.sort_unstable();
        assert!(
            picola_cost <= random_costs[2],
            "{name}: picola {picola_cost} worse than median random {}",
            random_costs[2]
        );
    }
}

#[test]
fn evaluation_estimate_bounds_the_exact_minimum() {
    use picola::core::{estimate_cubes, evaluate_encoding_with, EvalMinimizer};
    let fsm = benchmark_fsm("bbara").unwrap();
    let constraints = fsm_constraints(&fsm, picola::constraints::ExtractMethod::Quick);
    let enc = PicolaEncoder::default().encode(fsm.num_states(), &constraints);
    let est = estimate_cubes(&enc, &constraints);
    let exact = evaluate_encoding_with(
        &enc,
        &constraints,
        EvalMinimizer::Exact { max_nodes: 500_000 },
    )
    .total_cubes;
    assert!(est >= exact, "estimate {est} < exact {exact}");
}
