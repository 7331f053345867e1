//! `portfolio_large`: the standard encoder portfolio on large-tier
//! instances, one caller on one thread (the CLI default).
//!
//! Each job runs `standard_portfolio(seed).run` and answers with the
//! winning encoding and its cost. No FSM parsing, extraction, store or
//! server is involved: this is the paper's algorithm (and its rivals) on
//! instances where it does real work.

use crate::metrics::{ms_per_job, traced_job, Counts, Metrics};
use crate::report::{end_to_end, per_layer, time_setup, Report, SETUP_REPS};
use crate::spans::{total_by_name, Spans};
use crate::stats::{passes_for, ratio, Failure, PassLog, Tally};
use picola::baselines::standard_portfolio;
use picola::constraints::{min_code_length, Encoding};
use picola::core::{Budget, EncoderPortfolio, PortfolioOutcome};
use picola::sat::exact_cost;
use picola_bench::corpus::{generate_iter, Instance, Tier};
use std::collections::BTreeMap;
use std::time::Instant;

/// The master seed of the large-tier corpus in `BENCH_pr10.json`.
pub const DEFAULT_SEED: u64 = 114_714;

/// Instances per pass: enough that the share of 65–128-symbol instances,
/// which dominate the pass time, varies little from seed to seed.
const INSTANCES: usize = 144;

/// Seconds one pass takes on the reference host (2 vCPU).
const NOMINAL_PASS_S: f64 = 15.0;

/// Portfolio members, in the portfolio's fixed order, as metric suffixes
/// (`baselines.*`, `sat.*` and `core.picola_ms` take their walls too).
const MEMBERS: [&str; 6] = ["picola", "nova-ih", "anneal", "dicho", "natural", "sat"];

/// The job list and the portfolio that runs it.
fn setup(seed: u64) -> (Vec<Instance>, EncoderPortfolio) {
    let instances = generate_iter(INSTANCES, seed, Tier::Large).collect();
    (instances, standard_portfolio(seed).with_threads(1))
}

/// The answer a job must give on every pass.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Answer {
    winner: String,
    codes: Vec<u32>,
    cost: usize,
}

fn answer(out: &PortfolioOutcome) -> Answer {
    let best = out.best();
    Answer {
        winner: best.name.clone(),
        codes: best.encoding.codes().to_vec(),
        cost: best.cost,
    }
}

/// The first pass's winners are re-validated at minimum code length and
/// re-costed exactly (the reported estimate may not undercut the exact
/// cost); later passes must repeat them.
fn check(inst: &Instance, out: &PortfolioOutcome, reference: Option<&Answer>) -> bool {
    let got = answer(out);
    if let Some(r) = reference {
        return *r == got;
    }
    let best = out.best();
    best.encoding.nv() == min_code_length(inst.n)
        && Encoding::new(best.encoding.nv(), got.codes.clone()).is_ok()
        && best.cost >= exact_cost(&best.encoding, &inst.constraints)
}

struct Pass {
    wall_s: f64,
    latencies_ms: Vec<f64>,
    outputs: Vec<Option<PortfolioOutcome>>,
}

fn pass(
    instances: &[Instance],
    portfolio: &EncoderPortfolio,
    spans: &mut Spans,
    mut counts: Option<&mut Counts>,
) -> Pass {
    let mut latencies_ms = Vec::with_capacity(instances.len());
    let mut outputs = Vec::with_capacity(instances.len());
    let start = Instant::now();
    for (i, inst) in instances.iter().enumerate() {
        let t = Instant::now();
        let out = traced_job(spans, counts.as_deref_mut(), i, |s| {
            s.time("core.portfolio", || {
                portfolio.run(inst.n, &inst.constraints, &Budget::unlimited())
            })
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

fn account(instances: &[Instance], p: &Pass, reference: &mut Vec<Answer>, tally: &mut Tally) {
    let first = reference.is_empty();
    for (i, (inst, out)) in instances.iter().zip(&p.outputs).enumerate() {
        let outcome = match out {
            None => Some(Failure::Error),
            Some(o) if !o.completion.is_complete() => Some(Failure::Degraded),
            Some(o) if !check(inst, o, reference.get(i)) => Some(Failure::CheckFailed),
            Some(_) => None,
        };
        tally.record(outcome);
        if first {
            reference.push(out.as_ref().map_or(
                Answer {
                    winner: String::new(),
                    codes: Vec::new(),
                    cost: 0,
                },
                answer,
            ));
        }
    }
}

/// Runs the workload.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Result<(Report, Option<Spans>), String> {
    let ((instances, portfolio), setups) = time_setup(SETUP_REPS, || setup(seed));
    let _ = pass(&instances[..1], &portfolio, &mut Spans::disabled(), None);

    let mut tally = Tally::default();
    let mut reference = Vec::new();
    let mut log = PassLog::new(instances.len());
    let passes = if traced {
        1
    } else {
        passes_for(seconds, NOMINAL_PASS_S)
    };
    for _ in 0..passes {
        let p = pass(&instances, &portfolio, &mut Spans::disabled(), None);
        log.record_pass(p.wall_s, &p.latencies_ms)?;
        account(&instances, &p, &mut reference, &mut tally);
    }
    let cubes_total: u64 = reference.iter().map(|a| a.cost as u64).sum();
    let report = end_to_end(&log, tally, &setups, cubes_total);
    if !traced {
        return Ok((report, None));
    }

    let mut spans = Spans::enabled();
    let mut counts = Counts::default();
    let p = pass(&instances, &portfolio, &mut spans, Some(&mut counts));
    let mut traced_log = PassLog::new(instances.len());
    traced_log.record_pass(p.wall_s, &p.latencies_ms)?;
    let mut tally = report.tally;
    account(&instances, &p, &mut reference, &mut tally);

    let n = instances.len();
    let mut m: Metrics = per_layer(log.jobs_per_s(), traced_log.jobs_per_s(), spans.spans());
    let mut member_ns: BTreeMap<&str, u64> = BTreeMap::new();
    let mut wins: BTreeMap<String, u64> = BTreeMap::new();
    let mut winner_ns = 0u64;
    for out in p.outputs.iter().flatten() {
        for member in &out.members {
            let ns = u64::try_from(member.wall.as_nanos()).unwrap_or(u64::MAX);
            if let Some(&name) = MEMBERS.iter().find(|&&m| m == member.name) {
                *member_ns.entry(name).or_insert(0) += ns;
            }
        }
        winner_ns += u64::try_from(out.best().wall.as_nanos()).unwrap_or(u64::MAX);
        *wins.entry(out.best().name.clone()).or_insert(0) += 1;
    }
    let members_ns: u64 = member_ns.values().sum();
    let portfolio_ns = total_by_name(spans.spans())
        .get("core.portfolio")
        .copied()
        .unwrap_or(0);
    let wall = |name: &str| member_ns.get(name).copied().unwrap_or(0);
    m.set(
        "core.picola_ms",
        ms_per_job(wall("picola").saturating_sub(counts.refine_ns), n),
    );
    m.set("baselines.nova_ms", ms_per_job(wall("nova-ih"), n));
    m.set("baselines.anneal_ms", ms_per_job(wall("anneal"), n));
    m.set("baselines.dicho_ms", ms_per_job(wall("dicho"), n));
    m.set("baselines.natural_ms", ms_per_job(wall("natural"), n));
    m.set("sat.member_ms", ms_per_job(wall("sat"), n));
    m.set(
        "sat.ns_per_conflict",
        ratio(wall("sat") as f64, counts.sat_conflicts as f64),
    );
    m.set(
        "core.portfolio.overhead_ms",
        ms_per_job(portfolio_ns.saturating_sub(members_ns), n),
    );
    m.set(
        "core.portfolio.useful_ratio",
        ratio(winner_ns as f64, members_ns as f64),
    );
    for name in MEMBERS {
        let metric = format!("core.portfolio.wins.{name}");
        m.set(&metric, wins.get(name).copied().unwrap_or(0) as f64);
    }
    counts.fill(&mut m, n, 0);
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

    #[test]
    fn default_seed_draws_the_bench_corpus() {
        let (instances, portfolio) = setup(DEFAULT_SEED);
        assert_eq!(instances.len(), INSTANCES);
        assert_eq!(instances[0].name, "large-00");
        let again: Vec<Instance> = generate_iter(INSTANCES, 114_714, Tier::Large).collect();
        assert_eq!(instances[5].constraints, again[5].constraints);
        assert_eq!(portfolio.names(), MEMBERS);
    }

    #[test]
    fn winners_pass_their_check_and_a_changed_answer_fails_it() {
        let (instances, portfolio) = setup(DEFAULT_SEED);
        let small = instances.iter().min_by_key(|i| i.n).expect("non-empty");
        let out = portfolio
            .run(small.n, &small.constraints, &Budget::unlimited())
            .expect("outcome");
        assert!(check(small, &out, None));
        let mut other = answer(&out);
        assert!(check(small, &out, Some(&other)));
        other.cost += 1;
        assert!(!check(small, &out, Some(&other)));
    }
}
