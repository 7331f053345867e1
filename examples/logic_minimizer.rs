//! Using the two-level logic substrate directly: read a PLA, minimize it
//! with the in-tree ESPRESSO, verify equivalence, and print the result —
//! the substrate is a usable standalone minimizer.
//!
//! ```text
//! cargo run --release --example logic_minimizer [path/to/file.pla]
//! ```

// Examples favour brevity over error plumbing; the panic-freedom policy
// applies to library and binary code, so waive it explicitly here.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use picola::logic::{
    complement, equivalent, exact_minimize, flat_espresso, implements, parse_pla, write_pla,
    ExactOutcome,
};

/// A redundant two-output function used when no file is given.
const DEFAULT_PLA: &str = "\
.i 4
.o 2
.type fd
1100 10
1101 10
1110 10
1111 10
0011 01
0111 01
1011 01
0000 1-
";

fn main() {
    let (name, text) = match std::env::args().nth(1) {
        Some(path) => {
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2);
            });
            (path, text)
        }
        None => ("builtin".to_owned(), DEFAULT_PLA.to_owned()),
    };
    let mut pla = parse_pla(&text).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    println!(
        "{name}: {} inputs, {} outputs, {} on-cubes, {} dc-cubes",
        pla.num_inputs(),
        pla.num_outputs(),
        pla.on.len(),
        pla.dc.len()
    );

    let minimized = flat_espresso(&pla.on, &pla.dc);
    assert!(
        implements(&minimized, &pla.on, &pla.dc),
        "minimized cover must implement the function"
    );
    println!(
        "espresso: {} -> {} cubes ({} literals)",
        pla.on.len(),
        minimized.len(),
        minimized.literal_cost()
    );

    // For small functions, confirm against the exact minimizer.
    if pla.num_inputs() <= 6 {
        match exact_minimize(&pla.on, &pla.dc, 500_000) {
            ExactOutcome::Minimum(exact) => {
                println!("exact minimum: {} cubes", exact.len());
                if pla.dc.is_empty() {
                    assert!(equivalent(&minimized, &exact));
                }
            }
            ExactOutcome::Truncated(best) => {
                println!("exact search hit its budget; best found: {} cubes", best.len())
            }
        }
    }

    let off = complement(&pla.on.union(&pla.dc));
    println!("off-set: {} cubes", off.len());

    pla.on = minimized;
    println!("\nminimized PLA:\n{}", write_pla(&pla));
}
