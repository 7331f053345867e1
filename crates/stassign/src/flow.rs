//! The end-to-end state-assignment flow.
//!
//! KISS2 machine → symbolic cover → multi-valued minimization → face
//! constraints → minimum-length encoding (PICOLA or a baseline) → encoded
//! binary cover → ESPRESSO → two-level size. This is the tool evaluated in
//! the paper's Table II.

use crate::encode_fsm::encode_machine;
use picola_constraints::{
    extract_constraints_with, Encoding, ExtractMethod, ExtractOptions, GroupConstraint,
};
use picola_core::{Budget, Completion, Encoder};
use picola_fsm::{symbolic_cover, Fsm};
use picola_logic::{flat_espresso_bounded, obs, Cover, MinimizeOptions, MinimizeScratch};
use std::time::{Duration, Instant};

/// Options for [`assign_states`].
#[derive(Debug, Clone)]
pub struct FlowOptions {
    /// How face constraints are extracted from the symbolic cover.
    pub extract: ExtractMethod,
    /// Minimization options for the final encoded cover.
    pub minimize: MinimizeOptions,
    /// Merge equivalent states before encoding
    /// ([`picola_fsm::minimize_states`]). Off by default — the paper's flow
    /// does not state-minimize, but NOVA-era pipelines often ran a
    /// state-reduction step first.
    pub minimize_states: bool,
}

impl Default for FlowOptions {
    fn default() -> Self {
        FlowOptions {
            extract: ExtractMethod::Espresso,
            minimize: MinimizeOptions {
                // The encoded covers are large; invariant checking doubles
                // the cost and the library tests cover correctness.
                check_invariants: false,
                ..MinimizeOptions::default()
            },
            minimize_states: false,
        }
    }
}

/// The result of one state assignment.
#[derive(Debug, Clone)]
pub struct StateAssignment {
    /// Name of the machine.
    pub fsm_name: String,
    /// Name of the encoder used.
    pub encoder_name: String,
    /// Number of face constraints extracted (non-trivial).
    pub num_constraints: usize,
    /// The state encoding chosen.
    pub encoding: Encoding,
    /// Two-level size of the minimized encoded machine, in product terms —
    /// the paper's Table II `size`.
    pub size: usize,
    /// Literal count of the minimized cover (secondary measure).
    pub literals: usize,
    /// The minimized encoded machine that `size` and `literals` measure
    /// (the best valid cover reached when the budget ran out) — what
    /// `picola assign` writes as its PLA.
    pub cover: Cover,
    /// Time spent extracting constraints.
    pub extract_time: Duration,
    /// Time spent encoding.
    pub encode_time: Duration,
    /// Time spent minimizing the encoded machine.
    pub minimize_time: Duration,
    /// Whether the flow ran to completion or was cut short by its
    /// [`Budget`] (the result is still a valid assignment either way).
    pub completion: Completion,
}

impl StateAssignment {
    /// Total flow time.
    pub fn total_time(&self) -> Duration {
        self.extract_time + self.encode_time + self.minimize_time
    }
}

/// Extracts the face constraints of `fsm` (convenience wrapper used by the
/// flow, the benches and the examples).
pub fn fsm_constraints(fsm: &Fsm, method: ExtractMethod) -> Vec<GroupConstraint> {
    let sc = symbolic_cover(fsm);
    extract_constraints_with(&sc, &ExtractOptions { method })
}

/// Runs the full state-assignment flow on `fsm` with the given encoder.
pub fn assign_states(fsm: &Fsm, encoder: &dyn Encoder, opts: &FlowOptions) -> StateAssignment {
    assign_states_bounded(fsm, encoder, opts, &Budget::unlimited())
}

/// [`assign_states`] under an execution [`Budget`] shared by the encoding
/// and minimization stages. An exhausted budget never aborts the flow: each
/// stage degrades to its best valid partial result and the returned
/// [`StateAssignment::completion`] records what happened.
pub fn assign_states_bounded(
    fsm: &Fsm,
    encoder: &dyn Encoder,
    opts: &FlowOptions,
    budget: &Budget,
) -> StateAssignment {
    let reduced;
    let fsm = if opts.minimize_states {
        reduced = picola_fsm::minimize_states(fsm);
        &reduced
    } else {
        fsm
    };
    // One span per flow stage; the stage recorder is installed as the
    // thread-local current one so everything beneath (PICOLA's own spans,
    // the final ESPRESSO span, deep counters) nests under its stage.
    let flow_span = obs::current_or(budget.recorder()).span("flow");
    let _flow_cur = obs::enter(flow_span.recorder());

    let t0 = Instant::now();
    let constraints = {
        let span = flow_span.recorder().span("extract");
        let _cur = obs::enter(span.recorder());
        fsm_constraints(fsm, opts.extract)
    };
    let extract_time = t0.elapsed();

    let t1 = Instant::now();
    let (encoding, encode_completion) = {
        let span = flow_span.recorder().span("encode");
        let _cur = obs::enter(span.recorder());
        encoder.encode_bounded(fsm.num_states(), &constraints, budget)
    };
    let encode_time = t1.elapsed();

    let t2 = Instant::now();
    let (minimized, minimize_completion) = {
        let span = flow_span.recorder().span("minimize");
        let _cur = obs::enter(span.recorder());
        let em = encode_machine(fsm, &encoding);
        let mut scratch = MinimizeScratch::new();
        flat_espresso_bounded(&em.on, &em.dc, &opts.minimize, budget, &mut scratch)
    };
    let minimize_time = t2.elapsed();

    StateAssignment {
        fsm_name: fsm.name().to_owned(),
        encoder_name: encoder.name().to_owned(),
        num_constraints: constraints.iter().filter(|c| !c.is_trivial()).count(),
        encoding,
        size: minimized.len(),
        literals: minimized.literal_cost(),
        cover: minimized,
        extract_time,
        encode_time,
        minimize_time,
        completion: encode_completion.and(minimize_completion),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picola_baselines::{NaturalEncoder, NovaEncoder};
    use picola_core::PicolaEncoder;
    use picola_fsm::{benchmark_fsm, parse_kiss};

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

    #[test]
    fn flow_produces_a_valid_assignment() {
        let m = parse_kiss("small", SMALL).unwrap();
        let r = assign_states(&m, &PicolaEncoder::default(), &FlowOptions::default());
        assert_eq!(r.encoding.num_symbols(), 4);
        assert_eq!(r.encoding.nv(), 2);
        assert!(r.size > 0);
        assert_eq!(r.encoder_name, "picola");
    }

    #[test]
    fn different_encoders_run_the_same_flow() {
        let m = parse_kiss("small", SMALL).unwrap();
        let opts = FlowOptions::default();
        let a = assign_states(&m, &PicolaEncoder::default(), &opts);
        let b = assign_states(&m, &NovaEncoder::i_hybrid(), &opts);
        let c = assign_states(&m, &NaturalEncoder, &opts);
        for r in [&a, &b, &c] {
            assert!(r.size > 0, "{}: empty implementation", r.encoder_name);
        }
    }

    #[test]
    fn flow_runs_on_a_suite_machine() {
        let m = benchmark_fsm("lion9").unwrap();
        let r = assign_states(&m, &PicolaEncoder::default(), &FlowOptions::default());
        assert_eq!(r.encoding.num_symbols(), 9);
        assert!(r.size > 0);
        assert!(r.num_constraints > 0);
    }

    #[test]
    fn state_minimization_option_shrinks_twin_heavy_machines() {
        // build a machine with two behaviourally identical states
        let text = "\
.i 1
.o 1
0 a b 0
1 a c 0
0 b a 1
1 b a 0
0 c a 1
1 c a 0
.e
";
        let m = parse_kiss("twins", text).unwrap();
        let opts = FlowOptions {
            minimize_states: true,
            ..FlowOptions::default()
        };
        let r = assign_states(&m, &PicolaEncoder::default(), &opts);
        assert_eq!(r.encoding.num_symbols(), 2, "b and c merge");
        let plain = assign_states(&m, &PicolaEncoder::default(), &FlowOptions::default());
        assert!(r.size <= plain.size);
    }

    #[test]
    fn bounded_flow_degrades_but_stays_valid() {
        let m = parse_kiss("small", SMALL).unwrap();
        let budget = Budget::with_work_limit(2);
        let r = assign_states_bounded(
            &m,
            &PicolaEncoder::default(),
            &FlowOptions::default(),
            &budget,
        );
        assert_eq!(r.encoding.num_symbols(), 4);
        assert!(r.size > 0, "degraded flow must still implement the machine");
        assert!(matches!(r.completion, Completion::Degraded { .. }));
        let full = assign_states(&m, &PicolaEncoder::default(), &FlowOptions::default());
        assert!(matches!(full.completion, Completion::Complete));
    }

    #[test]
    fn deterministic_sizes() {
        let m = parse_kiss("small", SMALL).unwrap();
        let a = assign_states(&m, &PicolaEncoder::default(), &FlowOptions::default());
        let b = assign_states(&m, &PicolaEncoder::default(), &FlowOptions::default());
        assert_eq!(a.size, b.size);
        assert_eq!(a.encoding, b.encoding);
    }
}
