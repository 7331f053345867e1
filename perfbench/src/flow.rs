//! `flow_fsm`: the paper's Table II flow, one caller on one thread.
//!
//! Each job is a suite-shaped FSM given as KISS2 text and runs the library
//! calls `picola assign` makes: parse → symbolic cover → constraint
//! extraction → PICOLA → encoded machine → flat ESPRESSO. No memo, store
//! or server is involved. The CLI's extra legacy re-minimization of the
//! same cover is not timed: this workload measures the library path.

use crate::metrics::{ms_per_job, traced_job, Counts, Metrics};
use crate::report::{end_to_end, per_layer, set_layer_ms, time_setup, Report, SETUP_REPS};
use crate::spans::{self_by_name, Spans};
use crate::stats::{passes_for, Failure, PassLog, Tally};
use picola::constraints::{extract_constraints, min_code_length, Encoding};
use picola::core::{try_picola_encode_with, Budget, PicolaOptions};
use picola::fsm::suite::BENCHMARKS;
use picola::fsm::{generate_fsm, parse_kiss, symbolic_cover, write_kiss, FsmSpec};
use picola::logic::{
    flat_espresso_bounded, verify_implements, Cover, MinimizeOptions, MinimizeScratch,
};
use picola::stassign::{encode_machine, FlowOptions};
use std::time::Instant;

/// The seed whose first variant of every row is `benchmark_fsm`'s machine.
pub const DEFAULT_SEED: u64 = 0;

/// Machines drawn per suite row. Many draws per row keep the pass total
/// and its tail steady from seed to seed; one draw per row swings ±15%.
const VARIANTS: u64 = 22;

/// Seconds one pass takes on the reference host (2 vCPU).
const NOMINAL_PASS_S: f64 = 15.0;

/// One job: a machine as KISS2 text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    name: String,
    kiss: String,
}

/// The job list: `VARIANTS` seeded draws of every suite row except `scf`,
/// whose extraction alone takes about 110 s.
pub fn jobs(seed: u64) -> Vec<Job> {
    let mut out = Vec::new();
    for v in 0..VARIANTS {
        for info in BENCHMARKS.iter().filter(|b| b.name != "scf") {
            let mut spec = FsmSpec::new(info.name, info.states, info.inputs, info.outputs);
            spec.max_rows = info.rows;
            spec.max_tested_bits = info.tested_bits;
            spec.seed ^= seed.wrapping_mul(VARIANTS).wrapping_add(v);
            out.push(Job {
                name: format!("{}.{v}", info.name),
                kiss: write_kiss(&generate_fsm(&spec)),
            });
        }
    }
    out
}

/// What one job produced, with what the answer check needs.
struct Output {
    n: usize,
    encoding: Encoding,
    minimized: Cover,
    on: Cover,
    dc: Cover,
    complete: bool,
}

fn run_job(job: &Job, spans: &mut Spans, minimize: &MinimizeOptions) -> Result<Output, String> {
    let budget = Budget::unlimited();
    let fsm = spans
        .time("fsm.parse", || parse_kiss(&job.name, &job.kiss))
        .map_err(|e| e.to_string())?;
    let sc = spans.time("fsm.symbolic", || symbolic_cover(&fsm));
    let constraints = spans.time("constraints.extract", || extract_constraints(&sc));
    let n = fsm.num_states();
    let picola = spans
        .time("core.picola", || {
            try_picola_encode_with(n, &constraints, &PicolaOptions::default(), &budget)
        })
        .map_err(|e| e.to_string())?;
    let em = spans.time("stassign.encode", || encode_machine(&fsm, &picola.encoding));
    let (minimized, completion) = spans.time("logic.flat", || {
        let mut scratch = MinimizeScratch::new();
        flat_espresso_bounded(&em.on, &em.dc, minimize, &budget, &mut scratch)
    });
    Ok(Output {
        n,
        complete: picola.completion.is_complete() && completion.is_complete(),
        encoding: picola.encoding,
        minimized,
        on: em.on,
        dc: em.dc,
    })
}

/// The answer a job must give on every pass.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Answer {
    codes: Vec<u32>,
    cubes: usize,
}

/// Checks one output; the first pass's answers become the reference the
/// later passes must repeat.
fn check(out: &Output, reference: Option<&Answer>) -> bool {
    let codes = out.encoding.codes().to_vec();
    if let Some(r) = reference {
        return r.codes == codes && r.cubes == out.minimized.len();
    }
    out.encoding.nv() == min_code_length(out.n)
        && Encoding::new(out.encoding.nv(), codes).is_ok()
        && verify_implements(&out.minimized, &out.on, &out.dc).is_ok()
}

struct Pass {
    wall_s: f64,
    latencies_ms: Vec<f64>,
    outputs: Vec<Result<Output, String>>,
}

fn pass(jobs: &[Job], spans: &mut Spans, mut counts: Option<&mut Counts>) -> Pass {
    let minimize = FlowOptions::default().minimize;
    let mut latencies_ms = Vec::with_capacity(jobs.len());
    let mut outputs = Vec::with_capacity(jobs.len());
    let start = Instant::now();
    for (i, job) in jobs.iter().enumerate() {
        let t = Instant::now();
        let out = traced_job(spans, counts.as_deref_mut(), i, |s| {
            run_job(job, s, &minimize)
        });
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        outputs.push(out);
    }
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        latencies_ms,
        outputs,
    }
}

/// Checks a pass outside its timed section, counts its outcomes, and fills
/// the reference answers on the first pass.
fn account(p: &Pass, reference: &mut Vec<Answer>, tally: &mut Tally) {
    let first = reference.is_empty();
    for (i, out) in p.outputs.iter().enumerate() {
        let outcome = match out {
            Err(_) => Some(Failure::Error),
            Ok(o) if !o.complete => Some(Failure::Degraded),
            Ok(o) if !check(o, reference.get(i)) => Some(Failure::CheckFailed),
            Ok(_) => None,
        };
        tally.record(outcome);
        if first {
            reference.push(match out {
                Ok(o) => Answer {
                    codes: o.encoding.codes().to_vec(),
                    cubes: o.minimized.len(),
                },
                Err(_) => Answer {
                    codes: Vec::new(),
                    cubes: 0,
                },
            });
        }
    }
}

/// Runs the workload.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Result<(Report, Option<Spans>), String> {
    let (jobs, setups) = time_setup(SETUP_REPS, || jobs(seed));
    // Warm-up: one small job, untimed, so lazy set-up is not billed.
    let _ = pass(&jobs[..1], &mut Spans::disabled(), None);

    let mut tally = Tally::default();
    let mut reference = Vec::new();
    let mut log = PassLog::new(jobs.len());
    let passes = if traced {
        1
    } else {
        passes_for(seconds, NOMINAL_PASS_S)
    };
    for _ in 0..passes {
        let p = pass(&jobs, &mut Spans::disabled(), None);
        log.record_pass(p.wall_s, &p.latencies_ms)?;
        account(&p, &mut reference, &mut tally);
    }
    let cubes_total: u64 = reference.iter().map(|a| a.cubes as u64).sum();
    let report = end_to_end(&log, tally, &setups, cubes_total);
    if !traced {
        return Ok((report, None));
    }

    let mut spans = Spans::enabled();
    let mut counts = Counts::default();
    let p = pass(&jobs, &mut spans, Some(&mut counts));
    let mut traced_log = PassLog::new(jobs.len());
    traced_log.record_pass(p.wall_s, &p.latencies_ms)?;
    let mut tally = report.tally;
    account(&p, &mut reference, &mut tally);

    let n = jobs.len();
    let mut m: Metrics = per_layer(log.jobs_per_s(), traced_log.jobs_per_s(), spans.spans());
    set_layer_ms(
        &mut m,
        spans.spans(),
        n,
        &[
            ("fsm.parse", "fsm.parse_ms"),
            ("fsm.symbolic", "fsm.symbolic_ms"),
            ("constraints.extract", "constraints.extract_ms"),
            ("stassign.encode", "stassign.encode_ms"),
            ("logic.flat", "logic.flat_ms"),
        ],
    );
    let by_name = self_by_name(spans.spans());
    let picola_ns = by_name.get("core.picola").copied().unwrap_or(0);
    m.set(
        "core.picola_ms",
        ms_per_job(picola_ns.saturating_sub(counts.refine_ns), n),
    );
    counts.fill(&mut m, n, by_name.get("logic.flat").copied().unwrap_or(0));
    let mut notes = report.notes;
    notes.push(format!(
        "traced pass: {} jobs at {:.3} jobs/s; untraced pass {:.3} jobs/s",
        n,
        traced_log.jobs_per_s(),
        log.jobs_per_s()
    ));
    Ok((
        Report {
            tally,
            metrics: m,
            notes,
        },
        Some(spans),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use picola::fsm::benchmark_fsm;

    #[test]
    fn default_seed_reproduces_the_suite() {
        let list = jobs(DEFAULT_SEED);
        let rows: Vec<_> = BENCHMARKS.iter().filter(|b| b.name != "scf").collect();
        assert_eq!(list.len(), rows.len() * VARIANTS as usize);
        for (job, info) in list.iter().zip(&rows) {
            let suite = benchmark_fsm(info.name).expect("suite row");
            assert_eq!(job.kiss, write_kiss(&suite), "{}", info.name);
        }
    }

    #[test]
    fn seeds_give_fixed_but_different_inputs() {
        assert_eq!(jobs(3), jobs(3));
        let (a, b) = (jobs(3), jobs(4));
        assert!(a.iter().zip(&b).all(|(x, y)| x.name == y.name));
        assert!(a.iter().zip(&b).any(|(x, y)| x.kiss != y.kiss));
    }

    #[test]
    fn a_job_passes_its_check_and_a_wrong_reference_fails_it() {
        let job = &jobs(DEFAULT_SEED)[0];
        let out = run_job(
            job,
            &mut Spans::disabled(),
            &FlowOptions::default().minimize,
        )
        .expect("runs");
        assert!(out.complete);
        assert!(check(&out, None));
        let good = Answer {
            codes: out.encoding.codes().to_vec(),
            cubes: out.minimized.len(),
        };
        assert!(check(&out, Some(&good)));
        let bad = Answer {
            cubes: good.cubes + 1,
            ..good
        };
        assert!(!check(&out, Some(&bad)));
    }

    #[test]
    fn errors_and_wrong_answers_count_as_failures() {
        let job = &jobs(DEFAULT_SEED)[0];
        let broken = Job {
            name: "broken".to_owned(),
            kiss: ".i 1\n.o 1\n0 a\n".to_owned(),
        };
        let p = pass(&[job.clone(), broken], &mut Spans::disabled(), None);
        let mut reference = Vec::new();
        let mut tally = Tally::default();
        account(&p, &mut reference, &mut tally);
        assert_eq!((tally.attempted, tally.errors, tally.failed()), (2, 1, 1));
        reference[0].cubes += 1;
        let mut tally = Tally::default();
        account(&p, &mut reference, &mut tally);
        assert_eq!((tally.check_failed, tally.errors), (1, 1));
    }
}
