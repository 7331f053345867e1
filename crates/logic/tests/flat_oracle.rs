//! The flat ESPRESSO engine against the legacy `Vec<Cube>` driver in
//! `picola-oracle`, on fixed covers at every stride rung: one-word binary
//! and multi-valued domains, a full one-word binary domain (the last pair
//! at bits 62–63), two- and four-word binary domains, the dynamic-stride
//! fallback, and a three-word multi-valued domain padded onto the
//! four-word rung. Covers must be equal cube for cube. The randomized
//! counterpart, with budgets and traces, is `prop_flat_cover.rs`.

// Tests are exempt from the panic-freedom policy; clippy's in-tests
// exemption misses integration-test helpers, so waive it explicitly.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use picola_logic::{
    flat_espresso, Cover, Cube, Domain, DomainBuilder, GlobalMinimizeCache, MinimizeCache,
};
use picola_oracle::espresso;

fn cover_from_codes(dom: &Domain, nv: usize, codes: &[u32]) -> Cover {
    let mut c = Cover::empty(dom);
    for &code in codes {
        let mut cube = Cube::full(dom);
        for v in 0..nv {
            cube.restrict_binary(dom, v, code >> v & 1 != 0);
        }
        c.push(cube);
    }
    c
}

#[test]
fn flat_matches_legacy_on_minterm_covers() {
    let dom = Domain::binary(4);
    let on = cover_from_codes(&dom, 4, &[0, 1, 2, 3, 8, 9]);
    let dc = cover_from_codes(&dom, 4, &[10, 11]);
    let legacy = espresso(&on, &dc);
    let flat = flat_espresso(&on, &dc);
    assert_eq!(legacy, flat);
}

#[test]
fn flat_matches_legacy_on_multi_valued_domain() {
    // 5 + 3 + 2 parts in one word, multi-valued: the 1-word rung with
    // two variables left to the span walk.
    let dom = DomainBuilder::new()
        .multi("a", 5)
        .multi("b", 3)
        .binary("c")
        .build();
    assert_eq!(dom.words(), 1);
    let mut on = Cover::empty(&dom);
    for (a, b, c) in [
        (0, 0, false),
        (1, 0, false),
        (0, 1, false),
        (2, 2, true),
        (3, 2, true),
    ] {
        let mut cube = Cube::full(&dom);
        cube.restrict(&dom, 0, a);
        cube.restrict(&dom, 1, b);
        cube.restrict_binary(&dom, 2, c);
        on.push(cube);
    }
    let mut dc = Cover::empty(&dom);
    let mut d0 = Cube::full(&dom);
    d0.restrict(&dom, 0, 4);
    dc.push(d0);
    assert_eq!(espresso(&on, &dc), flat_espresso(&on, &dc));
}

fn sparse_binary_cover(dom: &Domain, nv: usize, extra: usize) -> (Cover, Cover) {
    let mut on = Cover::empty(dom);
    for code in 0..6u32 {
        let mut cube = Cube::full(dom);
        for v in 0..3.min(nv) {
            cube.restrict_binary(dom, v, code >> v & 1 != 0);
        }
        cube.restrict_binary(dom, extra, code % 2 == 0);
        on.push(cube);
    }
    let mut dc = Cover::empty(dom);
    let mut d = Cube::full(dom);
    d.restrict_binary(dom, extra, true);
    d.restrict_binary(dom, 0, true);
    dc.push(d);
    (on, dc)
}

#[test]
fn flat_matches_legacy_on_full_one_word_binary_domain() {
    // 32 binary vars fill the word: the last pair sits at bits 62–63.
    let dom = Domain::binary(32);
    assert_eq!(dom.words(), 1);
    assert_eq!(dom.total_parts(), 64);
    let (on, dc) = sparse_binary_cover(&dom, 32, 31);
    assert_eq!(espresso(&on, &dc), flat_espresso(&on, &dc));
}

#[test]
fn flat_matches_legacy_on_two_word_domain() {
    let dom = Domain::binary(33);
    assert_eq!(dom.words(), 2);
    let (on, dc) = sparse_binary_cover(&dom, 33, 32);
    assert_eq!(espresso(&on, &dc), flat_espresso(&on, &dc));
}

#[test]
fn flat_matches_legacy_on_four_word_domain() {
    let dom = Domain::binary(100);
    assert_eq!(dom.words(), 4);
    let (on, dc) = sparse_binary_cover(&dom, 100, 99);
    assert_eq!(espresso(&on, &dc), flat_espresso(&on, &dc));
}

#[test]
fn flat_matches_legacy_on_dynamic_stride_domain() {
    // 140 binary vars → 280 parts → 5 words: the DynW fallback rung.
    let dom = Domain::binary(140);
    assert_eq!(dom.words(), 5);
    let (on, dc) = sparse_binary_cover(&dom, 140, 139);
    assert_eq!(espresso(&on, &dc), flat_espresso(&on, &dc));
}

#[test]
fn flat_matches_legacy_on_multi_word_multi_valued_domain() {
    // A 9-part state variable plus 60 binary vars: 129 parts, 3 words,
    // mixed part widths — the shape face-constraint extraction produces.
    let dom = DomainBuilder::new().multi("s", 9).binaries("x", 60).build();
    assert_eq!(dom.words(), 3);
    let mut on = Cover::empty(&dom);
    for (s, x0) in [(0, false), (1, false), (2, true), (5, true), (8, false)] {
        let mut cube = Cube::full(&dom);
        cube.restrict(&dom, 0, s);
        cube.restrict_binary(&dom, 1, x0);
        cube.restrict_binary(&dom, 60, !x0);
        on.push(cube);
    }
    let mut dc = Cover::empty(&dom);
    let mut d = Cube::full(&dom);
    d.restrict(&dom, 0, 7);
    dc.push(d);
    assert_eq!(espresso(&on, &dc), flat_espresso(&on, &dc));
}

#[test]
fn engines_agree_on_multi_word_domains() {
    // 33 binary vars: two words, handled by the flat multi-word engine
    // behind the memo; the oracle is the independent reference.
    let dom = Domain::binary(33);
    let mut on = Cover::empty(&dom);
    let mut c0 = Cube::full(&dom);
    c0.restrict_binary(&dom, 0, false);
    let mut c1 = Cube::full(&dom);
    c1.restrict_binary(&dom, 0, true);
    on.push(c0);
    on.push(c1);
    let dc = Cover::empty(&dom);
    let memo = GlobalMinimizeCache::new();
    let mut cache = MinimizeCache::new();
    let f = cache.minimized_cube_count(&memo, &on, &dc);
    assert_eq!(f, espresso(&on, &dc).len());
    assert_eq!(f, 1);
}
