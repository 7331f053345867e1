//! # picola-constraints — face-constraint machinery
//!
//! The constraint side of the PICOLA reproduction: symbol sets, group (face)
//! constraints and their seed dichotomies, binary encodings with supercube
//! and intruder analysis, the paper's enriched constraint matrix, the
//! nv-compatibility conditions used by `Classify()`, guide constraints via
//! Theorem I, and face-constraint extraction from symbolic covers by
//! multi-valued minimization.
//!
//! ```
//! use picola_constraints::{Encoding, GroupConstraint, SymbolSet};
//!
//! // Four symbols in two bits; {0, 1} must share a face.
//! let enc = Encoding::new(2, vec![0b00, 0b01, 0b10, 0b11])?;
//! let c = GroupConstraint::new(SymbolSet::from_members(4, [0, 1]));
//! assert!(enc.satisfies(c.members())); // face 0- holds exactly {0, 1}
//! # Ok::<(), picola_constraints::EncodingError>(())
//! ```

#![warn(missing_docs)]

pub mod compat;
pub mod constraint;
pub mod embed;
pub mod encoding;
pub mod extract;
pub mod matrix;
pub mod symbols;
pub mod theorem;

pub use compat::{nv_compatible, Geometry};
pub use embed::{embed_exact, minimal_embedding_length, EmbedOutcome};
pub use constraint::{ConstraintKind, Dichotomy, GroupConstraint};
pub use encoding::{CodeCube, Encoding, EncodingError};
pub use extract::{
    extract_constraints, extract_constraints_bounded, extract_constraints_with, ExtractMethod,
    ExtractOptions,
};
pub use matrix::{pack_column, ConstraintMatrix, ConstraintStatus, TrackedConstraint};
pub use picola_fsm::min_code_length;
pub use symbols::SymbolSet;
pub use theorem::{implements_constraint, theorem_i, FaceImplementation};
