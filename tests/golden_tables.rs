//! Golden regression layer: the checked-in `results_table1.txt` /
//! `results_table2.txt` fixtures are re-derived live on the small
//! benchmarks. Any cost drift — a refine change, a kernel bug, a budget
//! regression — fails here with the fixture value next to the measured one.
//!
//! The fixtures are regenerated with `scripts/regen_tables.sh` on the flat
//! engine, the library's one minimizer (every minimization in the pipeline,
//! binary and multi-valued alike). `scripts/verify.sh` gates the same
//! invariant via `regen_tables.sh --check`, so a cost change in any flat
//! specialization rung shows up both here and in the fixture diff.
//!
//! Only the cost columns are compared; the timing columns are
//! machine-dependent by nature.

#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use picola_bench::{table1_row, table2_row, HarnessOptions};
use picola::fsm::benchmark_fsm;
use std::collections::HashMap;

/// Table 1 fixture row: constraints and per-encoder cube counts
/// (`None` = ENC budget exhausted, printed as `*`).
struct Golden1 {
    constraints: usize,
    nova: usize,
    enc: Option<usize>,
    picola: usize,
}

fn parse_table1_fixture() -> HashMap<String, Golden1> {
    let text = std::fs::read_to_string("results_table1.txt").expect("fixture present");
    let mut rows = HashMap::new();
    for line in text.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        // Data rows: name + 4 cost columns + 3 time columns.
        if fields.len() != 8 || fields[0] == "FSM" {
            continue;
        }
        let Ok(constraints) = fields[1].parse() else {
            continue;
        };
        rows.insert(
            fields[0].to_owned(),
            Golden1 {
                constraints,
                nova: fields[2].parse().expect("nova cubes"),
                enc: if fields[3] == "*" {
                    None
                } else {
                    Some(fields[3].parse().expect("enc cubes"))
                },
                picola: fields[4].parse().expect("picola cubes"),
            },
        );
    }
    assert!(rows.len() >= 20, "fixture parsed only {} rows", rows.len());
    rows
}

/// Table 2 fixture row: the three tools' two-level sizes.
struct Golden2 {
    ih: usize,
    ioh: usize,
    new_tool: usize,
}

fn parse_table2_fixture() -> HashMap<String, Golden2> {
    let text = std::fs::read_to_string("results_table2.txt").expect("fixture present");
    let mut rows = HashMap::new();
    for line in text.lines() {
        // `name ih.size ih.time | ioh.size ioh.time | new.size new.time`
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 9 || fields[3] != "|" || fields[6] != "|" {
            continue;
        }
        let (Ok(ih), Ok(ioh), Ok(new_tool)) =
            (fields[1].parse(), fields[4].parse(), fields[7].parse())
        else {
            continue;
        };
        rows.insert(fields[0].to_owned(), Golden2 { ih, ioh, new_tool });
    }
    assert!(rows.len() >= 15, "fixture parsed only {} rows", rows.len());
    rows
}

#[test]
fn table1_small_benchmarks_match_the_fixture() {
    let golden = parse_table1_fixture();
    let opts = HarnessOptions::default();
    for name in ["bbara", "dk14", "s8", "s27", "ex5", "lion9"] {
        let row = golden
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing from fixture"));
        let fsm = benchmark_fsm(name).unwrap();
        let live = table1_row(&fsm, &opts);
        assert_eq!(
            live.num_constraints, row.constraints,
            "{name}: constraint count drifted"
        );
        assert_eq!(live.nova_cubes, row.nova, "{name}: NOVA cubes drifted");
        assert_eq!(live.enc_cubes, row.enc, "{name}: ENC cubes drifted");
        assert_eq!(live.picola_cubes, row.picola, "{name}: PICOLA cubes drifted");
    }
}

#[test]
fn table2_small_benchmarks_match_the_fixture() {
    let golden = parse_table2_fixture();
    let opts = HarnessOptions::default();
    for name in ["s386", "s832"] {
        let row = golden
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing from fixture"));
        let fsm = benchmark_fsm(name).unwrap();
        let live = table2_row(&fsm, &opts);
        assert_eq!(live.nova_ih.size, row.ih, "{name}: nova-ih size drifted");
        assert_eq!(live.nova_ioh.size, row.ioh, "{name}: nova-ioh size drifted");
        assert_eq!(
            live.new_tool.size, row.new_tool,
            "{name}: new-tool size drifted"
        );
    }
}
