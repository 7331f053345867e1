//! # picola — face-constrained encoding of symbols using minimum code length
//!
//! A Rust reproduction of *“An Algorithm for Face-Constrained Encoding of
//! Symbols Using Minimum Code Length”* (Martínez, Avedillo, Quintana,
//! Huertas — DATE 1999): the **PICOLA** column-based encoder for the partial
//! face-constrained encoding problem, together with every substrate it needs
//! — an ESPRESSO-style two-level/multi-valued logic minimizer, a KISS2 FSM
//! toolkit with a benchmark suite, the face-constraint machinery (enriched
//! constraint matrix, nv-compatibility, guide constraints), NOVA-style and
//! ENC-style baselines, and a complete state-assignment flow.
//!
//! This crate is a facade: it re-exports the workspace crates under stable
//! module names and hosts the runnable examples and cross-crate integration
//! tests.
//!
//! ## Quick start
//!
//! ```
//! use picola::constraints::{GroupConstraint, SymbolSet};
//! use picola::core::{evaluate_encoding, picola_encode};
//!
//! // Encode 8 symbols in 3 bits so that {0,1,2,3} and {4,5} are faces.
//! let n = 8;
//! let constraints = vec![
//!     GroupConstraint::new(SymbolSet::from_members(n, [0, 1, 2, 3])),
//!     GroupConstraint::new(SymbolSet::from_members(n, [4, 5])),
//! ];
//! let result = picola_encode(n, &constraints);
//! let eval = evaluate_encoding(&result.encoding, &constraints);
//! assert_eq!(eval.total_cubes, 2); // both faces embedded: one cube each
//! ```
//!
//! ## Where to look
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`logic`] | cubes, covers, ESPRESSO, exact minimization, PLA I/O |
//! | [`fsm`] | KISS2, FSM model, symbolic covers, benchmark suite |
//! | [`constraints`] | face constraints, encodings, constraint matrix, Theorem I |
//! | [`core`] | the PICOLA algorithm and encoding evaluation |
//! | [`baselines`] | NOVA-like, ENC-like, annealing, trivial encoders |
//! | [`stassign`] | the state-assignment tool (paper Table II) |
//! | [`server`] | the fault-tolerant encoding daemon (`picola serve`) |
//!
//! The experiment harness lives in the `picola-bench` crate
//! (`cargo run -p picola-bench --release --bin table1` / `table2` /
//! `ablation` / `sweep`).

#![warn(missing_docs)]

pub use picola_baselines as baselines;
pub use picola_constraints as constraints;
pub use picola_core as core;
pub use picola_fsm as fsm;
pub use picola_logic as logic;
pub use picola_sat as sat;
pub use picola_server as server;
pub use picola_stassign as stassign;

/// Convenient glob-import surface with the most used items.
pub mod prelude {
    pub use picola_baselines::{
        AnnealingEncoder, DichotomyEncoder, EncLikeEncoder, NaturalEncoder, NovaEncoder,
        RandomEncoder,
    };
    pub use picola_constraints::{
        extract_constraints, min_code_length, Encoding, GroupConstraint, SymbolSet,
    };
    pub use picola_core::{
        estimate_cubes, evaluate_encoding, picola_encode, picola_encode_with, CostModel, Encoder,
        PicolaEncoder, PicolaOptions,
    };
    pub use picola_fsm::{benchmark_fsm, parse_kiss, symbolic_cover, Fsm};
    pub use picola_logic::{flat_espresso, Cover, Cube, Domain, DomainBuilder};
    pub use picola_sat::{ExactOracle, SatEncoder};
    pub use picola_stassign::{assign_states, FlowOptions, PicolaStateEncoder};
}
