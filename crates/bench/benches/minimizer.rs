//! Criterion micro-benchmarks of the ESPRESSO substrate: complement,
//! tautology and the full minimization loop on representative covers,
//! including the multi-valued symbolic covers of suite machines.

// Benches are harness code: the in-tests clippy exemption does not reach
// bench targets, so the panic-freedom policy is waived explicitly here.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use criterion::{criterion_group, criterion_main, Criterion};
use picola_fsm::{benchmark_fsm, symbolic_cover};
use picola_logic::{complement, flat_espresso, tautology, Cover, Domain};
use std::hint::black_box;

/// A pseudo-random dense cover over `nvars` binary variables.
fn random_cover(nvars: usize, cubes: usize, seed: u64) -> Cover {
    let dom = Domain::binary(nvars);
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let text: Vec<String> = (0..cubes)
        .map(|_| {
            (0..nvars)
                .map(|_| match next() % 3 {
                    0 => '0',
                    1 => '1',
                    _ => '-',
                })
                .collect()
        })
        .collect();
    Cover::parse(&dom, &text.join(" "))
}

fn bench_urp(c: &mut Criterion) {
    let f8 = random_cover(8, 20, 1);
    let f12 = random_cover(12, 40, 2);
    c.bench_function("complement/8var-20cubes", |b| {
        b.iter(|| complement(black_box(&f8)))
    });
    c.bench_function("complement/12var-40cubes", |b| {
        b.iter(|| complement(black_box(&f12)))
    });
    c.bench_function("tautology/12var-40cubes", |b| {
        b.iter(|| tautology(black_box(&f12)))
    });
}

fn bench_espresso(c: &mut Criterion) {
    let f8 = random_cover(8, 20, 3);
    let dc8 = Cover::empty(f8.domain());
    c.bench_function("espresso/8var-20cubes", |b| {
        b.iter(|| flat_espresso(black_box(&f8), black_box(&dc8)))
    });

    // Multi-valued symbolic cover of a mid-size suite machine.
    let fsm = benchmark_fsm("keyb").expect("suite machine");
    let sc = symbolic_cover(&fsm);
    c.bench_function("espresso/symbolic-keyb", |b| {
        b.iter(|| flat_espresso(black_box(&sc.on), black_box(&sc.dc)))
    });
}

criterion_group!(benches, bench_urp, bench_espresso);
criterion_main!(benches);
