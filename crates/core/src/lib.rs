//! # picola-core — the PICOLA encoding algorithm
//!
//! The paper's contribution: a column-based algorithm for the *partial
//! face-constrained encoding problem* — encode `n` symbols in the minimum
//! `ceil(log2 n)` bits so that the face constraints are implemented with as
//! few product terms as possible, not merely satisfied-or-ignored.
//!
//! The driver ([`picola_encode`]) follows the paper's Figure 2:
//!
//! ```text
//! PICOLA() {
//!     get_constraint_matrix();
//!     for each column { Update_constraints(); Solve(); }
//! }
//! ```
//!
//! - [`solve::solve_column`] builds one column greedily under the
//!   valid-partial-encoding condition ([`validity::ValidityTracker`]),
//!   scoring flips by weighted satisfied seed dichotomies ([`cost::CostModel`]).
//! - [`classify::update_constraints`] detects constraints that became
//!   unsatisfiable (nv-compatibility, dimension bounds) and substitutes
//!   guide constraints over their intruder sets.
//! - [`eval::evaluate_encoding`] measures the result the way the paper's
//!   Table I does: total minimized cube count of the encoded constraint
//!   functions.
//!
//! ```
//! use picola_constraints::{GroupConstraint, SymbolSet};
//! use picola_core::{evaluate_encoding, picola_encode};
//!
//! let n = 8;
//! let constraints = vec![
//!     GroupConstraint::new(SymbolSet::from_members(n, [0, 1, 2])),
//!     GroupConstraint::new(SymbolSet::from_members(n, [4, 5])),
//! ];
//! let result = picola_encode(n, &constraints);
//! let eval = evaluate_encoding(&result.encoding, &constraints);
//! assert!(eval.total_cubes >= eval.evaluated); // one cube per constraint is the floor
//! ```

#![warn(missing_docs)]

pub mod classify;
pub mod cost;
pub mod engine;
pub mod error;
pub mod eval;
pub mod picola;
pub mod portfolio;
pub mod refine;
pub mod report;
pub mod solve;
pub mod store;
pub mod validity;

pub use classify::{geometry, update_constraints, ClassifyOutcome};
pub use cost::CostModel;
pub use engine::{EngineConfig, EngineHandle, Job, JobOutput};
pub use error::PicolaError;
pub use eval::{
    estimate_codes_cubes_with, estimate_cubes, estimate_cubes_with, evaluate_encoding,
    evaluate_encoding_cached, evaluate_encoding_with,
    greedy_codes_cubes, greedy_codes_cubes_into, greedy_constraint_cubes, ConstraintCost,
    CubesScratch, EncodingEvaluation, EvalContext, EvalMinimizer, EvalOptions,
};
pub use picola::{
    picola_encode, picola_encode_portfolio, picola_encode_with, try_picola_encode_portfolio,
    try_picola_encode_with, Encoder, PicolaEncoder, PicolaOptions, PicolaResult,
};
pub use portfolio::{EncoderPortfolio, MemberOutcome, PortfolioOutcome};
pub use refine::{CandCursor, CodeTable, RefineCand, RefineScratch};
pub use report::RunReport;
pub use solve::solve_column;
pub use store::{
    canonical_cover_bytes, canonical_job_bytes, cover_key, job_key, key_for, ResultStore, StoreKey,
    StoreStats, StoredResult,
};
pub use validity::ValidityTracker;

// Budgeting and fault injection live in picola-logic (the dependency root);
// re-export them here so encoder-level callers need only picola-core. The
// minimization cache rides along for the same reason.
pub use picola_logic::{
    chaos, Budget, CacheStats, Completion, ExhaustReason, GlobalMinimizeCache, MinimizeCache,
};
