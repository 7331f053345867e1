//! Golden record of every portfolio member's codes.
//!
//! For each instance of two corpora, the fixture holds the encoding each
//! [`standard_members`] member returns, plus `NovaEncoder::io_hybrid` with
//! a fixed adjacency list: one line `<instance> <encoder> <code>...` per
//! pair. The corpora are the first 12 standard-tier instances of the bench
//! seed (the tier where the SAT member's `nv <= 5` guard lets it search)
//! and the first 8 large-tier instances of seed 114714 (the start of
//! perfbench's `portfolio_large` corpus). The encoders' objectives may be
//! evaluated however is fastest, but the search they drive must not move:
//! any change to a proposal, an accept decision or a tie-break shows up
//! here as a changed code.
//!
//! The adjacency weights are deliberately not integers, so `io_hybrid`'s
//! objective is an inexact `f64` sum and only a bit-identical evaluation
//! order reproduces its codes.

#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use picola::baselines::{standard_members, NovaEncoder};
use picola_bench::{corpus, generate_iter, Instance, Tier};
use std::fmt::Write as _;

const FIXTURE: &str = "tests/fixtures/portfolio_golden.txt";

/// Master seed of the member line-up (perfbench's default seed).
const SEED: u64 = 114_714;

/// The instances the fixture covers, in fixture order.
fn instances() -> Vec<Instance> {
    let mut all = corpus(12, 0x0001_C01A);
    all.extend(generate_iter(8, SEED, Tier::Large));
    all
}

/// A fixed next-state adjacency list over `n` symbols with non-integer
/// weights.
fn adjacency(n: usize) -> Vec<(usize, usize, f64)> {
    (0..n.min(6))
        .map(|i| (i, (i * 7 + 3) % n, 0.3 + 0.45 * i as f64))
        .filter(|&(i, j, _)| i != j)
        .collect()
}

/// The fixture lines of one instance, one per encoder.
fn render(inst: &Instance) -> String {
    let mut encoders = standard_members(SEED);
    encoders.push(Box::new(NovaEncoder::io_hybrid(adjacency(inst.n))));
    let mut out = String::new();
    for enc in &encoders {
        let codes = enc.encode(inst.n, &inst.constraints);
        write!(out, "{} {}", inst.name, enc.name()).unwrap();
        for s in 0..codes.num_symbols() {
            write!(out, " {}", codes.code(s)).unwrap();
        }
        out.push('\n');
    }
    out
}

#[test]
fn every_member_reproduces_the_fixture() {
    let text = std::fs::read_to_string(FIXTURE).expect("read fixture");
    let want: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
    let mut got = String::new();
    for inst in instances() {
        got.push_str(&render(&inst));
    }
    let got: Vec<&str> = got.lines().collect();
    assert_eq!(got.len(), want.len(), "fixture line count");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "member codes drifted");
    }
}
