//! # picola-oracle — the independent ESPRESSO oracle
//!
//! The legacy `Vec<Cube>` ESPRESSO driver and the operators only it uses,
//! kept as the reference the flat engine
//! ([`picola_logic::flat_espresso_bounded`]) is tested against: every cube
//! owns its own word vector, and each pass clones, sorts and rebuilds them.
//! The flat engine mirrors this code pass for pass (same cube orderings,
//! branch variables, budget ticks, spans and counters), so the two must
//! return bit-identical covers, completions and traces on every domain.
//!
//! This crate is a `[dev-dependencies]` entry only: no release path links
//! it. It uses nothing but the public `picola-logic` API.
//!
//! - [`mod@espresso`]: the driver ([`espresso()`], [`espresso_with`],
//!   [`espresso_bounded`]).
//! - [`mod@expand`] / [`mod@irredundant`] / [`mod@reduce`] /
//!   [`essential`] / [`gasp`]: the ESPRESSO operators it drives.

#![warn(missing_docs)]

pub mod espresso;
pub mod essential;
pub mod expand;
pub mod gasp;
pub mod irredundant;
pub mod reduce;

pub use espresso::{espresso, espresso_bounded, espresso_with};
pub use essential::essentials;
pub use expand::expand;
pub use gasp::last_gasp;
pub use irredundant::irredundant;
pub use reduce::reduce;
