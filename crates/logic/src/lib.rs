//! # picola-logic — two-level / multi-valued logic substrate
//!
//! The logic foundation of the PICOLA reproduction: positional-notation
//! cubes and covers over mixed binary/multi-valued domains, the unate
//! recursive paradigm (tautology, complement), an ESPRESSO-style heuristic
//! minimizer (EXPAND / IRREDUNDANT / REDUCE / essential primes), an exact
//! Quine–McCluskey-style minimizer for small functions, and PLA I/O.
//!
//! Multi-output functions are represented the classic way: the output field
//! is one extra multi-valued variable (see [`DomainBuilder::output`]), which
//! lets every algorithm treat multiple-output minimization uniformly.
//!
//! ## Quick start
//!
//! ```
//! use picola_logic::{espresso, Cover, Domain};
//!
//! let dom = Domain::binary(3);
//! let on = Cover::parse(&dom, "110 111 011");
//! let dc = Cover::empty(&dom);
//! let minimized = espresso(&on, &dc);
//! assert_eq!(minimized.len(), 2); // 11- and -11
//! ```
//!
//! ## Module map
//!
//! - [`domain`] / [`cube`] / [`cover`]: the cube algebra.
//! - [`urp`]: tautology and complementation.
//! - [`mod@expand`] / [`mod@irredundant`] / [`mod@reduce`] / [`essential`]: the ESPRESSO
//!   operators; [`espresso`](crate::espresso()) drives them.
//! - [`primes`] / [`exact`]: exact prime generation and covering.
//! - [`equiv`]: containment/equivalence checks.
//! - [`pla`]: Berkeley PLA text format.
//! - [`budget`] / [`chaos`]: execution budgets with graceful degradation and
//!   the deterministic fault-injection harness that tests them.
//! - [`obs`]: deterministic spans + counters (inert until a recorder is
//!   installed).
//! - [`flat`]: allocation-free flat cover kernels and the flat ESPRESSO
//!   engine ([`flat_espresso_bounded`]) covering every domain via a
//!   1/2/4-word specialization ladder over the cube stride.
//! - [`simd`]: the runtime-dispatched kernel backend beneath the flat
//!   engine — AVX2 / portable-wide / scalar word kernels selected by
//!   [`KernelBackend`] at run time (`PICOLA_SIMD`), bit-identical across
//!   backends, plus the 64-byte-aligned [`AlignedWords`] buffers.
//! - [`cache`]: the minimization memo ([`GlobalMinimizeCache`]), the
//!   per-caller [`MinimizeCache`] view over it, and the [`CoverEngine`]
//!   selector.
//! - [`sat`]: CNF formulas, DIMACS I/O, a self-contained CDCL solver, and
//!   the face-problem compiler behind the `picola-sat` exact oracle.
//! - [`binio`]: compact binary serialization primitives (varints,
//!   bounds-checked readers, versioned headers, FNV-1a digests) beneath
//!   the persistent artifact codecs and the content-addressed result
//!   store (DESIGN.md §18).

#![warn(missing_docs)]

pub mod binio;
pub mod bitset;
pub mod budget;
pub mod cache;
pub mod chaos;
pub mod cover;
pub mod cube;
pub mod domain;
pub mod equiv;
pub mod error;
pub mod espresso;
pub mod essential;
pub mod exact;
pub mod expand;
pub mod flat;
pub mod gasp;
pub mod irredundant;
pub mod measure;
pub mod mv_pla;
pub mod obs;
pub mod pla;
pub mod primes;
pub mod reduce;
pub mod sat;
pub mod sharp;
pub mod simd;
pub mod urp;
pub mod verify;

pub use binio::{fnv1a64, BinioError, ByteReader, ByteWriter, Fnv64};
pub use bitset::WordSet;
pub use budget::{Budget, Completion, ExhaustReason};
pub use cache::{
    CacheStats, CoverEngine, GlobalMinimizeCache, MinimizeCache, DEFAULT_CACHE_CAPACITY,
    DEFAULT_CACHE_SHARDS,
};
pub use cover::Cover;
pub use cube::Cube;
pub use domain::{Domain, DomainBuilder, Var, VarKind};
pub use equiv::{cover_contains, cover_covers_cube, equivalent, implements};
pub use error::{ParseLimits, ParsePlaError};
pub use espresso::{
    espresso, espresso_bounded, espresso_with, minimized_cube_count, MinimizeOptions,
};
pub use essential::essentials;
pub use exact::{exact_minimize, exact_minimize_bounded, ExactOutcome};
pub use expand::expand;
pub use flat::{
    cube_and_into, cube_cofactor_into, cube_consensus_into, cube_contains, cube_distance,
    cube_is_valid, flat_eligible, flat_espresso, flat_espresso_bounded, flat_espresso_with,
    FlatCover, FlatDomain, MinimizeScratch,
};
pub use gasp::last_gasp;
pub use irredundant::irredundant;
pub use measure::{cover_density, cover_minterms, cube_minterms};
pub use mv_pla::{parse_mv_pla, parse_mv_pla_with, write_mv_pla};
pub use obs::{Counter, Recorder, SpanSnapshot, Trace};
pub use pla::{parse_pla, parse_pla_with, write_pla, Pla, PlaType};
pub use primes::{all_primes, all_primes_bounded};
pub use reduce::reduce;
pub use sat::{Cnf, FaceCnf, FaceProblem, Lit, SatOutcome, SatParseError, SatStats, Solver};
pub use sharp::{cover_sharp, cube_sharp};
pub use simd::{
    avx2_active, selected_backend, set_backend_override, AlignedWords, KernelBackend,
};
pub use urp::{complement, cube_complement, tautology};
pub use verify::{
    find_point_in_difference, first_point_of, verify_equivalent, verify_implements, Point,
    Verdict,
};
