//! Fault-injection sweep over the whole pipeline.
//!
//! For every registered trigger point, arm a deterministic chaos plan and
//! drive the full state-assignment flow (KISS2 → constraints → PICOLA →
//! encoded machine → ESPRESSO) plus the standalone parsers and minimizers.
//! The contract under test: **no public API panics** — every injected fault
//! either surfaces as a parse error or degrades the run to a valid
//! best-so-far result.

// Tests are exempt from the panic-freedom policy; clippy's in-tests
// exemption misses integration-test helpers, so waive it explicitly.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use picola::baselines::{AnnealingEncoder, EncLikeEncoder, NovaEncoder};
use picola::constraints::{GroupConstraint, SymbolSet};
use picola::core::{chaos, Budget, Encoder, PicolaEncoder};
use picola::sat::SatEncoder;
use picola::fsm::parse_kiss;
use picola::logic::{
    exact_minimize_bounded, flat_espresso_bounded, parse_mv_pla, parse_pla, Cover, Domain,
    MinimizeOptions, MinimizeScratch,
};
use picola::stassign::{assign_states_bounded, FlowOptions};

const MACHINE: &str = "\
.i 2
.o 1
.r s0
-0 s0 s0 0
01 s0 s1 0
11 s0 s2 1
-- s1 s3 1
0- s2 s0 0
1- s2 s3 1
-1 s3 s0 1
-0 s3 s1 0
.e
";

const PLA: &str = "\
.i 3
.o 2
010 11
1-0 10
-11 01
.e
";

const MV_PLA: &str = "\
.mv 3 1 3 2
0 110 10
1 011 01
.e
";

/// Drives every fallible entry point once. Chaos may cut any of them short;
/// none may panic, and non-parser stages must still return usable results.
fn drive_everything() {
    // parsers: an injected fault surfaces as Err, not a panic
    let _ = parse_pla(PLA);
    let _ = parse_mv_pla(MV_PLA);
    // a kiss.parse fault surfaces as Err, which is the correct outcome
    if let Ok(fsm) = parse_kiss("chaos", MACHINE) {
        let budget = Budget::unlimited();
        let r = assign_states_bounded(
            &fsm,
            &PicolaEncoder::default(),
            &FlowOptions::default(),
            &budget,
        );
        assert_eq!(r.encoding.num_symbols(), fsm.num_states());
    }

    // baseline encoders (anneal.move / nova.place / nova.improve / enc.eval)
    let cs: Vec<GroupConstraint> = [[0usize, 1], [2, 3], [4, 5]]
        .iter()
        .map(|g| GroupConstraint::new(SymbolSet::from_members(8, g.iter().copied())))
        .collect();
    for encoder in [
        &AnnealingEncoder::default() as &dyn Encoder,
        &NovaEncoder::i_hybrid(),
        &EncLikeEncoder::default(),
    ] {
        let budget = Budget::unlimited();
        let (enc, _) = encoder.encode_bounded(8, &cs, &budget);
        assert_eq!(enc.num_symbols(), 8, "{} lost symbols", encoder.name());
    }

    // the SAT member (sat.conflict ticks once per decision and per
    // conflict). The groups are chosen so the natural seed is suboptimal —
    // the bound-tightening loop must actually probe, guaranteeing the
    // trigger point is reached; an injected fault mid-solve degrades to
    // the best-so-far witness, never a panic.
    let sat_cs: Vec<GroupConstraint> = [&[0usize, 3, 5][..], &[1, 2], &[6, 7]]
        .iter()
        .map(|g| GroupConstraint::new(SymbolSet::from_members(8, g.iter().copied())))
        .collect();
    let budget = Budget::unlimited();
    let (enc, _) = SatEncoder::default().encode_bounded(8, &sat_cs, &budget);
    assert_eq!(enc.num_symbols(), 8, "sat lost symbols");

    // standalone minimizers
    let dom = Domain::binary(4);
    let on = Cover::parse(&dom, "110- 0-11 10-0 -110");
    let dc = Cover::empty(&dom);
    let budget = Budget::unlimited();
    let (cover, _) = flat_espresso_bounded(
        &on,
        &dc,
        &MinimizeOptions::default(),
        &budget,
        &mut MinimizeScratch::new(),
    );
    assert!(!cover.is_empty(), "espresso must keep covering the on-set");
    let budget = Budget::unlimited();
    let out = exact_minimize_bounded(&on, &dc, &budget);
    assert!(!out.cover().is_empty());
}

#[test]
fn no_trigger_point_panics_the_pipeline() {
    for &point in chaos::TRIGGER_POINTS {
        for after in [0u64, 1, 3] {
            let guard = chaos::arm(point, after);
            drive_everything();
            drop(guard);
        }
    }
}

#[test]
fn armed_plans_actually_fire() {
    // Every trigger point must be reachable from the driver above —
    // otherwise the sweep silently tests nothing at that point. The memo
    // point (`cache.shard`) is reached through the ENC baseline's own
    // memo. The server-layer points (`server.*`) and the result-store
    // point (`store.io`) only fire on the daemon's job paths or
    // store-backed runs, which this single-process driver never enters;
    // tests/server_lifecycle.rs and the bench crate's store suite sweep
    // those and assert the same reachability property.
    for &point in chaos::TRIGGER_POINTS {
        if point.starts_with("server.") || point == "store.io" {
            continue;
        }
        let _guard = chaos::arm(point, 0);
        drive_everything();
        assert!(
            chaos::times_fired() > 0,
            "trigger point {point:?} was never reached"
        );
    }
}

#[test]
fn unarmed_runs_are_unaffected() {
    // No chaos plan armed: the same driver completes fully.
    drive_everything();
    let fsm = parse_kiss("chaos", MACHINE).unwrap();
    let budget = Budget::unlimited();
    let r = assign_states_bounded(
        &fsm,
        &PicolaEncoder::default(),
        &FlowOptions::default(),
        &budget,
    );
    assert!(r.completion.is_complete());
}
