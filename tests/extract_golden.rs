//! Golden record of face-constraint extraction on every suite row.
//!
//! For each `suite::BENCHMARKS` row the fixture holds
//! `extract_constraints(&symbolic_cover(&benchmark_fsm(row)))` in order:
//! one line per constraint with its weight and its members. The golden
//! tables only count constraints, and they extract machines with more than
//! 64 states with the quick method, so this is the test that pins the full
//! multi-valued ESPRESSO run on every row byte for byte, `scf` included.
//!
//! `scf` (121 states) takes seconds in release and far longer in a debug
//! build, so its case is `#[ignore]`d and run in release:
//!
//! ```sh
//! cargo test --release --test extract_golden -- --ignored
//! ```

#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use picola::constraints::extract_constraints;
use picola::fsm::{benchmark_fsm, symbolic_cover, BENCHMARKS};
use std::collections::BTreeMap;
use std::fmt::Write as _;

const FIXTURE: &str = "tests/fixtures/extract_golden.txt";

/// The fixture block of one row: `<row> <weight> <member>...` per
/// constraint, or `<row> -` when the row yields none.
fn render(row: &str) -> String {
    let fsm = benchmark_fsm(row).expect("suite row");
    let constraints = extract_constraints(&symbolic_cover(&fsm));
    if constraints.is_empty() {
        return format!("{row} -\n");
    }
    let mut out = String::new();
    for c in &constraints {
        write!(out, "{row} {}", c.weight()).unwrap();
        for m in c.members().iter() {
            write!(out, " {m}").unwrap();
        }
        out.push('\n');
    }
    out
}

/// Fixture blocks keyed by row name (comment lines skipped).
fn load() -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(FIXTURE).expect("read fixture");
    let mut blocks: BTreeMap<String, String> = BTreeMap::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let row = line.split(' ').next().unwrap_or_default();
        let block = blocks.entry(row.to_owned()).or_default();
        block.push_str(line);
        block.push('\n');
    }
    blocks
}

fn check(rows: &[&str]) {
    let blocks = load();
    for &row in rows {
        let want = blocks
            .get(row)
            .unwrap_or_else(|| panic!("{FIXTURE} has no block for {row}"));
        assert_eq!(&render(row), want, "{row}: extracted constraints drifted");
    }
}

#[test]
fn extraction_matches_the_fixture_on_every_suite_row_but_scf() {
    let rows: Vec<&str> = BENCHMARKS
        .iter()
        .map(|b| b.name)
        .filter(|&n| n != "scf")
        .collect();
    assert_eq!(rows.len(), 32);
    check(&rows);
}

#[test]
#[ignore = "full ESPRESSO on scf: run in release with --ignored"]
fn extraction_matches_the_fixture_on_scf() {
    check(&["scf"]);
}
