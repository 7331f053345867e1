//! JSON bench harness over the synthetic corpus.
//!
//! Races every member of the standard portfolio on each corpus instance —
//! individually on private budgets (attributing wall time and work units
//! per encoder), then as a portfolio sequentially and in parallel — plus
//! three comparisons, results cross-checked bit-identical:
//!
//! * the shared memo (`serve_ab`): an ENC-style job cold against a fresh
//!   global memo, then warm against the memo the cold run left behind —
//!   what a second request sees on a running `picola serve`;
//! * the optimality gap (`sat_ab`): on instances inside the SAT oracle's
//!   size guard (`nv <= 4`), the proven optimum vs every heuristic
//!   member's exact cost — the oracle's witness must re-cost bit-for-bit
//!   under the exact evaluator and no heuristic may beat it;
//! * the streaming store (`stream_ab`): the huge tier drawn lazily through
//!   the bounded pipeline three times — memoryless (no store), cold
//!   (fresh content-addressed store), warm (the store the cold leg left
//!   behind) — records asserted identical across all three legs, warm
//!   hit rate and cold-over-warm speedup reported, peak-live instances
//!   bounded (the pipeline fails itself on a lifetime leak).
//!
//! Writes one machine-readable JSON report (`bench_report.json` by
//! default, a name git ignores, so a bare run cannot overwrite a checked-in
//! `BENCH_*.json` that CI validates), including a deterministic
//! per-instance `metrics` block (the obs span / counter tree of the
//! sequential portfolio run), plus the warm leg's
//! stream records as a compact binary artifact (`--format bin`, the
//! default) or its JSON debug export (`--format json`) next to the report.
//! See README.md ("Reading the bench JSON") for the schema. Schema v11
//! dropped the legs that raced the deleted engine selectors (`refine`,
//! `eval_ab`, `enc_ab`, `mv_ab`); the checked-in `BENCH_pr4`–`pr10`
//! reports carry their last answers.
//!
//! `--tier huge` is stream-only: the per-instance suite is skipped
//! (`instances` is empty) and the report carries just the `stream` block —
//! thousands of generated instances, never materialized as a `Vec`.
//!
//! ```text
//! cargo run -p picola-bench --release --bin bench_json [-- --smoke]
//!     [--tier standard|large|huge] [--out PATH] [--threads N] [--seed N]
//!     [--instances N] [--stream-instances N] [--store DIR]
//!     [--format json|bin]
//! ```

use picola_baselines::{standard_members, standard_portfolio, EncLikeEncoder};
use picola_bench::artifact::{decode_records, encode_records, records_json, StreamRecord};
use picola_bench::corpus::{generate_iter, Instance, Tier};
use picola_bench::stream::{run_stream, StreamConfig, StreamReport};
use picola_constraints::{min_code_length, Encoding};
use picola_core::{
    estimate_cubes, Budget, EngineConfig, EngineHandle, EvalContext, EvalOptions,
    GlobalMinimizeCache,
};
use picola_logic::{SpanSnapshot, Trace};
use picola_sat::{exact_cost, ExactOracle};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// On-disk format of the stream-record artifact written next to the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArtifactFormat {
    /// Compact `picola_logic::binio` artifact — the hot-path default.
    Bin,
    /// The deterministic JSON debug export.
    Json,
}

struct Options {
    smoke: bool,
    tier: Tier,
    out: String,
    threads: usize,
    seed: u64,
    instances: usize,
    /// Instances the `stream_ab` leg draws through the pipeline.
    stream_instances: usize,
    /// Result-store directory for the stream leg (a temp dir when unset;
    /// either way the leg's subdirectory is cleared so cold is cold).
    store: Option<String>,
    format: ArtifactFormat,
}

impl Options {
    fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Options, String> {
        let mut opts = Options {
            smoke: false,
            tier: Tier::Standard,
            out: "bench_report.json".to_owned(),
            threads: 4,
            seed: 0x0001_C01A,
            instances: 0,
            stream_instances: 0,
            store: None,
            format: ArtifactFormat::Bin,
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--smoke" => opts.smoke = true,
                "--tier" => {
                    opts.tier = match it.next().ok_or("--tier needs a name")?.as_str() {
                        "standard" => Tier::Standard,
                        "large" => Tier::Large,
                        "huge" => Tier::Huge,
                        other => return Err(format!("unknown tier {other:?}")),
                    };
                }
                "--out" => opts.out = it.next().ok_or("--out needs a path")?,
                "--threads" => {
                    opts.threads = parse_num(&it.next().ok_or("--threads needs a count")?)?;
                }
                "--seed" => {
                    opts.seed = parse_num(&it.next().ok_or("--seed needs a number")?)? as u64;
                }
                "--instances" => {
                    opts.instances =
                        parse_num(&it.next().ok_or("--instances needs a count")?)?;
                }
                "--stream-instances" => {
                    opts.stream_instances =
                        parse_num(&it.next().ok_or("--stream-instances needs a count")?)?;
                }
                "--store" => opts.store = Some(it.next().ok_or("--store needs a directory")?),
                "--format" => {
                    opts.format = match it.next().ok_or("--format needs a name")?.as_str() {
                        "bin" => ArtifactFormat::Bin,
                        "json" => ArtifactFormat::Json,
                        other => return Err(format!("unknown format {other:?}")),
                    };
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if opts.instances == 0 {
            opts.instances = if opts.smoke {
                3
            } else if opts.tier == Tier::Large {
                8
            } else {
                12
            };
        }
        if opts.stream_instances == 0 {
            opts.stream_instances = if opts.smoke { 96 } else { 600 };
        }
        Ok(opts)
    }
}

fn parse_num(s: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("not a number: {s:?}"))
}

struct EncoderRow {
    name: String,
    wall: Duration,
    work: u64,
    cost: usize,
    satisfied: usize,
    complete: bool,
}

struct InstanceReport {
    inst: Instance,
    nontrivial: usize,
    encoders: Vec<EncoderRow>,
    winner: String,
    winning_cost: usize,
    parallel_matches: bool,
    seq_wall: Duration,
    par_wall: Duration,
    /// Span/counter tree of the sequential portfolio run (deterministic:
    /// created without a wall clock, so re-runs produce identical blocks).
    metrics: SpanSnapshot,
    metrics_work: u64,
    serve_ab: ServeAbReport,
    sat_ab: SatAbReport,
}

/// One heuristic member in the optimality-gap comparison.
struct SatGapRow {
    name: String,
    /// Exact Table I cost of the member's encoding (branch-and-bound
    /// minimizer, not the heuristic estimate in `EncoderRow::cost`).
    exact_cost: usize,
    /// `exact_cost - optimum`; always `>= 0` when the oracle is sound.
    gap: usize,
}

/// Optimality-gap report: the SAT oracle's proven optimum against every
/// portfolio member's exact cost. Instances outside the guard (`nv > 4`,
/// a forced non-minimum code length, or a probe that hits the
/// deterministic conflict cap before the final UNSAT proof) are emitted
/// as skipped — the bench never reports an unproven "optimum".
struct SatAbReport {
    skipped: bool,
    optimum: usize,
    /// UNSAT at `optimum - 1` was proven.
    proved: bool,
    /// The oracle's witness re-costs to exactly `optimum` under the
    /// independent exact evaluator.
    oracle_matches_exact: bool,
    /// `proved`, the cross-check, and `gap >= 0` for every member all hold.
    matches: bool,
    rounds: usize,
    conflicts: u64,
    wall_ns: u64,
    rows: Vec<SatGapRow>,
}

/// The `sat_ab` size guard: `nv <= 4` bounds the CNF size so most
/// standard-tier probes prove in milliseconds to seconds.
const SAT_AB_MAX_NV: usize = 4;

/// Deterministic per-probe conflict cap. Final UNSAT proofs grow
/// exponentially with symbol count on the hardest instances; conflicts
/// are machine-independent (the solver has no randomness or clock), so
/// the cap deterministically partitions the corpus into proved and
/// skipped instances — identical on every machine, unlike a timeout.
/// The hardest instance this cap admits needs ~45k conflicts in its
/// UNSAT step; the cap also bounds each pre-proof improvement probe, so
/// the whole leg stays within tens of seconds per instance.
const SAT_AB_CONFLICT_CAP: u64 = 50_000;

/// Runs the optimality-gap leg. The oracle is warm-started from the best
/// member encoding (fewest SAT rounds) on an unlimited budget under the
/// deterministic conflict cap; a capped, unproven run reports as skipped.
fn run_sat_ab(
    inst: &Instance,
    rows: &[EncoderRow],
    encodings: &[Encoding],
) -> Result<SatAbReport, String> {
    let skipped = SatAbReport {
        skipped: true,
        optimum: 0,
        proved: false,
        oracle_matches_exact: false,
        matches: true,
        rounds: 0,
        conflicts: 0,
        wall_ns: 0,
        rows: Vec::new(),
    };
    if inst.nv_override.is_some() || min_code_length(inst.n) > SAT_AB_MAX_NV {
        return Ok(skipped);
    }
    let costs: Vec<usize> = encodings
        .iter()
        .map(|e| exact_cost(e, &inst.constraints))
        .collect();
    let warm = costs
        .iter()
        .zip(encodings)
        .min_by_key(|(c, _)| **c)
        .map(|(_, e)| e);
    let oracle = ExactOracle {
        conflict_limit: Some(SAT_AB_CONFLICT_CAP),
        ..ExactOracle::default()
    };
    let t = Instant::now();
    let out = oracle
        .prove_from(inst.n, &inst.constraints, warm, &Budget::unlimited())
        .map_err(|e| format!("{}: sat A/B: {e}", inst.name))?;
    let wall_ns = t.elapsed().as_nanos() as u64;
    if !out.optimal {
        // The cap ended the loop before the UNSAT step: an honest skip,
        // not an "optimum" the report cannot back.
        return Ok(skipped);
    }
    let oracle_matches_exact = exact_cost(&out.encoding, &inst.constraints) == out.cost;
    let sound = costs.iter().all(|&c| c >= out.cost);
    let gap_rows: Vec<SatGapRow> = rows
        .iter()
        .zip(&costs)
        .map(|(r, &c)| SatGapRow {
            name: r.name.clone(),
            exact_cost: c,
            gap: c.saturating_sub(out.cost),
        })
        .collect();
    Ok(SatAbReport {
        skipped: false,
        optimum: out.cost,
        proved: out.optimal,
        oracle_matches_exact,
        matches: out.optimal && oracle_matches_exact && sound,
        rounds: out.rounds,
        conflicts: out.stats.conflicts,
        wall_ns,
        rows: gap_rows,
    })
}

/// Cold-vs-warm shared-cache ENC throughput: the daemon's cross-request
/// warmth measured without sockets. Cold runs against a fresh
/// [`GlobalMinimizeCache`]; warm re-runs the identical job through the
/// same global with a fresh per-run context — exactly what a second
/// `encode` request sees on a running `picola serve`.
struct ServeAbReport {
    cold_wall_ns: u64,
    warm_wall_ns: u64,
    /// Full-cost evaluations per leg (identical by determinism).
    work: u64,
    warm_hits: u64,
    warm_misses: u64,
    /// `warm_hits / (warm_hits + warm_misses)` — the fraction of warm-leg
    /// minimizations answered by entries the cold leg left behind.
    warm_hit_rate: f64,
    /// Cold and warm legs produced bit-identical encodings and costs.
    matches: bool,
    /// Cold wall over warm wall — ≥ 1 when warmth pays.
    speedup: f64,
}

/// Runs the cold/warm shared-cache A/B. Best-of-`AB_REPS` wall per leg;
/// each repetition uses its own fresh global so every cold leg is honestly
/// cold. Work and cost are asserted identical across repetitions.
fn run_serve_ab(inst: &Instance) -> Result<ServeAbReport, String> {
    const SERVE_AB_EVALS: usize = 120;
    const AB_REPS: usize = 3;
    let encoder = EncLikeEncoder {
        max_evaluations: SERVE_AB_EVALS,
        eval: EvalOptions::default(),
    };
    let mut best: Option<ServeAbReport> = None;
    for _ in 0..AB_REPS {
        let global = Arc::new(GlobalMinimizeCache::new());
        let budget = Budget::unlimited();

        let mut cold_ctx = EvalContext::with_global(Arc::clone(&global));
        let t = Instant::now();
        let (cold_enc, cold_info) =
            encoder.encode_detailed_in_context(inst.n, &inst.constraints, &budget, &mut cold_ctx);
        let cold_wall_ns = t.elapsed().as_nanos() as u64;

        let mut warm_ctx = EvalContext::with_global(Arc::clone(&global));
        let t = Instant::now();
        let (warm_enc, warm_info) =
            encoder.encode_detailed_in_context(inst.n, &inst.constraints, &budget, &mut warm_ctx);
        let warm_wall_ns = t.elapsed().as_nanos() as u64;

        let matches = cold_enc == warm_enc
            && cold_info.total_cubes == warm_info.total_cubes
            && cold_info.evaluations == warm_info.evaluations;
        let denom = (warm_info.cache_hits + warm_info.cache_misses).max(1);
        let rep = ServeAbReport {
            cold_wall_ns,
            warm_wall_ns,
            work: cold_info.evaluations as u64,
            warm_hits: warm_info.cache_hits,
            warm_misses: warm_info.cache_misses,
            warm_hit_rate: warm_info.cache_hits as f64 / denom as f64,
            matches,
            speedup: cold_wall_ns as f64 / warm_wall_ns.max(1) as f64,
        };
        if let Some(prev) = &best {
            if (prev.work, prev.warm_hits, prev.warm_misses)
                != (rep.work, rep.warm_hits, rep.warm_misses)
            {
                return Err(format!(
                    "{}: serve A/B: nondeterministic repetition (work {} vs {}, \
                     hits {} vs {})",
                    inst.name, prev.work, rep.work, prev.warm_hits, rep.warm_hits
                ));
            }
        }
        if !rep.matches {
            return Err(format!(
                "{}: serve A/B: warm leg diverged from cold — the shared cache \
                 changed a result",
                inst.name
            ));
        }
        if best
            .as_ref()
            .is_none_or(|p| rep.cold_wall_ns + rep.warm_wall_ns < p.cold_wall_ns + p.warm_wall_ns)
        {
            best = Some(rep);
        }
    }
    best.ok_or_else(|| "serve A/B: no repetitions ran".to_owned())
}

/// One leg of the streaming-store A/B.
struct StreamLeg {
    name: &'static str,
    wall_ms: f64,
    /// Engine work units spent (near zero on a fully warm leg).
    work: u64,
    peak_live: usize,
    store_hits: u64,
    store_misses: u64,
    hit_rate: f64,
}

/// The `stream_ab` leg: the huge tier drawn lazily through the bounded
/// pipeline, memoryless vs store-cold vs store-warm.
struct StreamAb {
    count: usize,
    threads: usize,
    depth: usize,
    live_bound: usize,
    /// Highest peak-live over the three legs (each already ≤ the bound —
    /// `run_stream` fails the run otherwise).
    peak_live: usize,
    legs: Vec<StreamLeg>,
    /// Records that differ (provenance flag aside) between any pair of
    /// legs — the store must never change a result.
    mismatches: usize,
    /// Warm-leg store hit rate.
    hit_rate: f64,
    /// Cold wall over warm wall — the store's payoff on a repeat run.
    speedup: f64,
    /// Warm-leg records, for the on-disk artifact.
    records: Vec<StreamRecord>,
}

fn stream_leg(name: &'static str, report: &StreamReport) -> StreamLeg {
    StreamLeg {
        name,
        wall_ms: report.wall.as_secs_f64() * 1000.0,
        work: report.work,
        peak_live: report.peak_live,
        store_hits: report.store.hits,
        store_misses: report.store.misses,
        hit_rate: report.hit_rate(),
    }
}

/// Everything about a record except where the answer came from.
fn stream_result_fields(r: &StreamRecord) -> (u64, u64, u64, u64, u64, u64, u64, u64) {
    (
        r.index,
        r.key,
        r.n,
        r.nv,
        r.codes_digest,
        r.total_cubes,
        r.satisfied,
        r.evaluated,
    )
}

/// Runs the stream A/B. Each leg gets a fresh engine (so warm measures
/// the *store*, not leftover memo warmth); the cold and warm legs share
/// one store directory that is cleared up front so cold is honestly cold.
fn run_stream_ab(opts: &Options) -> Result<StreamAb, String> {
    const STREAM_DEPTH: usize = 16;
    let store_root = match &opts.store {
        Some(dir) => std::path::PathBuf::from(dir),
        None => std::env::temp_dir().join(format!("picola-bench-{}", std::process::id())),
    };
    let ab_dir = store_root.join("stream-ab");
    let _ = std::fs::remove_dir_all(&ab_dir);
    let config = |store_dir| StreamConfig {
        count: opts.stream_instances,
        master_seed: opts.seed,
        tier: Tier::Huge,
        threads: opts.threads.max(1),
        depth: STREAM_DEPTH,
        store_dir,
        work_limit: None,
    };
    let run = |store_dir| run_stream(&EngineHandle::new(EngineConfig::default()), &config(store_dir));
    let memoryless = run(None)?;
    let cold = run(Some(ab_dir.clone()))?;
    let warm = run(Some(ab_dir.clone()))?;
    if opts.store.is_none() {
        let _ = std::fs::remove_dir_all(&store_root);
    }

    let mut mismatches = 0usize;
    for ((m, c), w) in memoryless
        .records
        .iter()
        .zip(&cold.records)
        .zip(&warm.records)
    {
        let reference = stream_result_fields(m);
        if stream_result_fields(c) != reference || stream_result_fields(w) != reference {
            mismatches += 1;
        }
    }
    let hit_rate = warm.hit_rate();
    let speedup =
        cold.wall.as_secs_f64() / warm.wall.as_secs_f64().max(1e-9);
    let peak_live = memoryless
        .peak_live
        .max(cold.peak_live)
        .max(warm.peak_live);
    let live_bound = warm.live_bound;
    let records = warm.records.clone();
    Ok(StreamAb {
        count: opts.stream_instances,
        threads: opts.threads.max(1),
        depth: STREAM_DEPTH,
        live_bound,
        peak_live,
        legs: vec![
            stream_leg("memoryless", &memoryless),
            stream_leg("cold", &cold),
            stream_leg("warm", &warm),
        ],
        mismatches,
        hit_rate,
        speedup,
        records,
    })
}

/// Writes the warm leg's records next to the report — compact binary by
/// default (round-trip verified in-process before the write), JSON debug
/// export with `--format json`.
fn write_records_artifact(ab: &StreamAb, opts: &Options) -> Result<String, String> {
    let stem = opts.out.strip_suffix(".json").unwrap_or(&opts.out);
    let path = match opts.format {
        ArtifactFormat::Bin => format!("{stem}.records.bin"),
        ArtifactFormat::Json => format!("{stem}.records.json"),
    };
    match opts.format {
        ArtifactFormat::Bin => {
            let bytes = encode_records(&ab.records);
            let back = decode_records(&bytes).map_err(|e| format!("artifact self-check: {e}"))?;
            if back != ab.records {
                return Err("artifact self-check: round-trip diverged".to_owned());
            }
            std::fs::write(&path, &bytes).map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        ArtifactFormat::Json => {
            std::fs::write(&path, records_json(&ab.records))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
    }
    Ok(path)
}

fn run_instance(inst: Instance, opts: &Options) -> Result<InstanceReport, String> {
    let nontrivial = inst.constraints.iter().filter(|c| !c.is_trivial()).count();

    let mut member_encodings = Vec::new();
    let encoders: Vec<EncoderRow> = standard_members(opts.seed)
        .iter()
        .map(|member| {
            let budget = Budget::unlimited();
            let t = Instant::now();
            let (enc, completion) =
                member.encode_bounded(inst.n, &inst.constraints, &budget);
            let wall = t.elapsed();
            let satisfied = inst
                .constraints
                .iter()
                .filter(|c| !c.is_trivial() && enc.satisfies(c.members()))
                .count();
            let row = EncoderRow {
                name: member.name().to_owned(),
                wall,
                work: budget.work_done(),
                cost: estimate_cubes(&enc, &inst.constraints),
                satisfied,
                complete: completion.is_complete(),
            };
            member_encodings.push(enc);
            row
        })
        .collect();

    let timed_portfolio = |threads: usize, budget: &Budget| {
        let p = standard_portfolio(opts.seed).with_threads(threads);
        let t = Instant::now();
        let out = p.run(inst.n, &inst.constraints, budget);
        (out, t.elapsed())
    };
    let trace = Trace::new();
    let seq_budget = Budget::unlimited().with_recorder(trace.recorder());
    let (seq, seq_wall) = timed_portfolio(1, &seq_budget);
    let (par, par_wall) = timed_portfolio(opts.threads, &Budget::unlimited());
    let (seq, par) = match (seq, par) {
        (Some(a), Some(b)) => (a, b),
        _ => return Err(format!("{}: portfolio produced no outcome", inst.name)),
    };

    let serve_ab = run_serve_ab(&inst)?;
    let sat_ab = run_sat_ab(&inst, &encoders, &member_encodings)?;

    Ok(InstanceReport {
        nontrivial,
        encoders,
        serve_ab,
        sat_ab,
        metrics: trace.snapshot(),
        metrics_work: trace.total_work(),
        winner: seq.best().name.clone(),
        winning_cost: seq.best().cost,
        parallel_matches: seq.best().cost == par.best().cost
            && seq.best().encoding == par.best().encoding,
        seq_wall,
        par_wall,
        inst,
    })
}

fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1000.0)
}

fn emit(reports: &[InstanceReport], stream: &StreamAb, opts: &Options) -> String {
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"schema\": \"picola-bench/bench_json/v11\",");
    let _ = writeln!(j, "  \"seed\": {},", opts.seed);
    let _ = writeln!(j, "  \"threads\": {},", opts.threads);
    let _ = writeln!(j, "  \"smoke\": {},", opts.smoke);
    let _ = writeln!(j, "  \"tier\": \"{}\",", opts.tier.name());
    let _ = writeln!(
        j,
        "  \"format\": \"{}\",",
        match opts.format {
            ArtifactFormat::Bin => "bin",
            ArtifactFormat::Json => "json",
        }
    );
    let _ = writeln!(j, "  \"instances\": [");
    for (ri, r) in reports.iter().enumerate() {
        let _ = writeln!(j, "    {{");
        let _ = writeln!(j, "      \"name\": \"{}\",", r.inst.name);
        let _ = writeln!(j, "      \"n\": {},", r.inst.n);
        let _ = match r.inst.nv_override {
            Some(nv) => writeln!(j, "      \"nv_override\": {nv},"),
            None => writeln!(j, "      \"nv_override\": null,"),
        };
        let _ = writeln!(j, "      \"constraints\": {},", r.inst.constraints.len());
        let _ = writeln!(j, "      \"nontrivial\": {},", r.nontrivial);
        let _ = writeln!(j, "      \"encoders\": [");
        for (ei, e) in r.encoders.iter().enumerate() {
            let _ = write!(
                j,
                "        {{\"name\": \"{}\", \"wall_ms\": {}, \"work\": {}, \
                 \"cost\": {}, \"satisfied\": {}, \"complete\": {}}}",
                e.name,
                ms(e.wall),
                e.work,
                e.cost,
                e.satisfied,
                e.complete
            );
            let _ = writeln!(j, "{}", if ei + 1 < r.encoders.len() { "," } else { "" });
        }
        let _ = writeln!(j, "      ],");
        let _ = writeln!(j, "      \"portfolio\": {{");
        let _ = writeln!(j, "        \"winner\": \"{}\",", r.winner);
        let _ = writeln!(j, "        \"winning_cost\": {},", r.winning_cost);
        let _ = writeln!(j, "        \"parallel_matches_sequential\": {},", r.parallel_matches);
        let _ = writeln!(j, "        \"sequential_wall_ms\": {},", ms(r.seq_wall));
        let _ = writeln!(j, "        \"parallel_wall_ms\": {}", ms(r.par_wall));
        let _ = writeln!(j, "      }},");
        let s = &r.serve_ab;
        let _ = writeln!(j, "      \"serve_ab\": {{");
        let _ = writeln!(j, "        \"cold_wall_ms\": {:.3},", s.cold_wall_ns as f64 / 1e6);
        let _ = writeln!(j, "        \"warm_wall_ms\": {:.3},", s.warm_wall_ns as f64 / 1e6);
        let _ = writeln!(j, "        \"work\": {},", s.work);
        let _ = writeln!(j, "        \"warm_hits\": {},", s.warm_hits);
        let _ = writeln!(j, "        \"warm_misses\": {},", s.warm_misses);
        let _ = writeln!(j, "        \"warm_hit_rate\": {:.4},", s.warm_hit_rate);
        let _ = writeln!(j, "        \"matches\": {},", s.matches);
        let _ = writeln!(j, "        \"speedup\": {:.3}", s.speedup);
        let _ = writeln!(j, "      }},");
        let sa = &r.sat_ab;
        let _ = writeln!(j, "      \"sat_ab\": {{");
        let _ = writeln!(j, "        \"skipped\": {},", sa.skipped);
        if !sa.skipped {
            let _ = writeln!(j, "        \"optimum\": {},", sa.optimum);
            let _ = writeln!(j, "        \"proved\": {},", sa.proved);
            let _ = writeln!(
                j,
                "        \"oracle_matches_exact\": {},",
                sa.oracle_matches_exact
            );
            let _ = writeln!(j, "        \"rounds\": {},", sa.rounds);
            let _ = writeln!(j, "        \"conflicts\": {},", sa.conflicts);
            let _ = writeln!(j, "        \"wall_ms\": {:.3},", sa.wall_ns as f64 / 1e6);
            let _ = writeln!(j, "        \"gaps\": [");
            for (gi, g) in sa.rows.iter().enumerate() {
                let _ = write!(
                    j,
                    "          {{\"name\": \"{}\", \"exact_cost\": {}, \"gap\": {}}}",
                    g.name, g.exact_cost, g.gap
                );
                let _ = writeln!(j, "{}", if gi + 1 < sa.rows.len() { "," } else { "" });
            }
            let _ = writeln!(j, "        ],");
        }
        let _ = writeln!(j, "        \"matches\": {}", sa.matches);
        let _ = writeln!(j, "      }},");
        let _ = writeln!(
            j,
            "      \"metrics\": {{\"total_work\": {}, \"spans\": {}}}",
            r.metrics_work,
            r.metrics.to_json()
        );
        let _ = write!(j, "    }}");
        let _ = writeln!(j, "{}", if ri + 1 < reports.len() { "," } else { "" });
    }
    let _ = writeln!(j, "  ],");

    // The streaming-store A/B: huge tier, bounded pipeline, three legs.
    let _ = writeln!(j, "  \"stream\": {{");
    let _ = writeln!(j, "    \"tier\": \"huge\",");
    let _ = writeln!(j, "    \"count\": {},", stream.count);
    let _ = writeln!(j, "    \"threads\": {},", stream.threads);
    let _ = writeln!(j, "    \"depth\": {},", stream.depth);
    let _ = writeln!(j, "    \"live_bound\": {},", stream.live_bound);
    let _ = writeln!(j, "    \"peak_live\": {},", stream.peak_live);
    let _ = writeln!(j, "    \"legs\": [");
    for (li, leg) in stream.legs.iter().enumerate() {
        let _ = write!(
            j,
            "      {{\"name\": \"{}\", \"wall_ms\": {:.3}, \"work\": {}, \
             \"peak_live\": {}, \"store_hits\": {}, \"store_misses\": {}, \
             \"hit_rate\": {:.4}}}",
            leg.name,
            leg.wall_ms,
            leg.work,
            leg.peak_live,
            leg.store_hits,
            leg.store_misses,
            leg.hit_rate
        );
        let _ = writeln!(j, "{}", if li + 1 < stream.legs.len() { "," } else { "" });
    }
    let _ = writeln!(j, "    ],");
    let _ = writeln!(j, "    \"mismatches\": {},", stream.mismatches);
    let _ = writeln!(j, "    \"hit_rate\": {:.4},", stream.hit_rate);
    let _ = writeln!(j, "    \"speedup\": {:.3}", stream.speedup);
    let _ = writeln!(j, "  }},");

    let names: Vec<&str> = reports
        .first()
        .map(|r| r.encoders.iter().map(|e| e.name.as_str()).collect())
        .unwrap_or_default();
    let _ = writeln!(j, "  \"totals\": {{");
    let _ = writeln!(j, "    \"encoders\": [");
    for (i, name) in names.iter().enumerate() {
        let cost: usize = reports.iter().map(|r| r.encoders[i].cost).sum();
        let work: u64 = reports.iter().map(|r| r.encoders[i].work).sum();
        let wall: Duration = reports.iter().map(|r| r.encoders[i].wall).sum();
        let wins = reports.iter().filter(|r| r.winner == *name).count();
        let _ = write!(
            j,
            "      {{\"name\": \"{name}\", \"total_cost\": {cost}, \
             \"total_work\": {work}, \"total_wall_ms\": {}, \"wins\": {wins}}}",
            ms(wall)
        );
        let _ = writeln!(j, "{}", if i + 1 < names.len() { "," } else { "" });
    }
    let _ = writeln!(j, "    ],");
    let seq: Duration = reports.iter().map(|r| r.seq_wall).sum();
    let par: Duration = reports.iter().map(|r| r.par_wall).sum();
    let _ = writeln!(j, "    \"portfolio_sequential_wall_ms\": {},", ms(seq));
    let _ = writeln!(j, "    \"portfolio_parallel_wall_ms\": {},", ms(par));
    let _ = writeln!(
        j,
        "    \"parallel_speedup\": {:.3},",
        seq.as_secs_f64() / par.as_secs_f64().max(1e-9)
    );
    let mismatches = reports.iter().filter(|r| !r.parallel_matches).count();
    let _ = writeln!(j, "    \"parallel_mismatches\": {mismatches},");
    // Cold-vs-warm shared-cache totals: the headline warmth numbers the
    // hit-rate gate in scripts/check_bench_metrics.py enforces.
    let cold_ms: f64 = reports.iter().map(|r| r.serve_ab.cold_wall_ns as f64 / 1e6).sum();
    let warm_ms: f64 = reports.iter().map(|r| r.serve_ab.warm_wall_ns as f64 / 1e6).sum();
    let warm_hits: u64 = reports.iter().map(|r| r.serve_ab.warm_hits).sum();
    let warm_misses: u64 = reports.iter().map(|r| r.serve_ab.warm_misses).sum();
    let serve_mismatches = reports.iter().filter(|r| !r.serve_ab.matches).count();
    let _ = writeln!(j, "    \"serve\": {{");
    let _ = writeln!(j, "      \"cold_wall_ms\": {cold_ms:.3},");
    let _ = writeln!(j, "      \"warm_wall_ms\": {warm_ms:.3},");
    let _ = writeln!(j, "      \"warm_hits\": {warm_hits},");
    let _ = writeln!(j, "      \"warm_misses\": {warm_misses},");
    let _ = writeln!(
        j,
        "      \"warm_hit_rate\": {:.4},",
        warm_hits as f64 / (warm_hits + warm_misses).max(1) as f64
    );
    let _ = writeln!(
        j,
        "      \"speedup\": {:.3},",
        cold_ms / warm_ms.max(1e-9)
    );
    let _ = writeln!(j, "      \"mismatches\": {serve_mismatches}");
    let _ = writeln!(j, "    }},");
    // Optimality-gap totals over the instances the SAT oracle checked:
    // per-encoder aggregate gap to the proven optimum, and the headline
    // mismatch count scripts/check_bench_metrics.py gates on.
    let checked: Vec<&SatAbReport> = reports
        .iter()
        .map(|r| &r.sat_ab)
        .filter(|s| !s.skipped)
        .collect();
    let sat_mismatches = reports.iter().filter(|r| !r.sat_ab.matches).count();
    let proved_count = checked.iter().filter(|s| s.proved).count();
    let _ = writeln!(j, "    \"sat\": {{");
    let _ = writeln!(j, "      \"checked\": {},", checked.len());
    let _ = writeln!(j, "      \"skipped\": {},", reports.len() - checked.len());
    let _ = writeln!(j, "      \"proved\": {proved_count},");
    let _ = writeln!(
        j,
        "      \"total_optimum\": {},",
        checked.iter().map(|s| s.optimum).sum::<usize>()
    );
    let _ = writeln!(
        j,
        "      \"total_conflicts\": {},",
        checked.iter().map(|s| s.conflicts).sum::<u64>()
    );
    let _ = writeln!(j, "      \"gaps\": [");
    for (i, name) in names.iter().enumerate() {
        let total_gap: usize = checked
            .iter()
            .filter_map(|s| s.rows.iter().find(|g| g.name == *name))
            .map(|g| g.gap)
            .sum();
        let total_cost: usize = checked
            .iter()
            .filter_map(|s| s.rows.iter().find(|g| g.name == *name))
            .map(|g| g.exact_cost)
            .sum();
        let _ = write!(
            j,
            "        {{\"name\": \"{name}\", \"total_exact_cost\": {total_cost}, \
             \"total_gap\": {total_gap}}}"
        );
        let _ = writeln!(j, "{}", if i + 1 < names.len() { "," } else { "" });
    }
    let _ = writeln!(j, "      ],");
    let _ = writeln!(j, "      \"mismatches\": {sat_mismatches}");
    let _ = writeln!(j, "    }}");
    let _ = writeln!(j, "  }}");
    let _ = writeln!(j, "}}");
    j
}

fn main() {
    let opts = match Options::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    let mut reports = Vec::new();
    // `--tier huge` is stream-only: the per-instance suite prices a dozen
    // instances in depth, the huge tier measures thousands in throughput.
    let instance_count = if opts.tier == Tier::Huge { 0 } else { opts.instances };
    for inst in generate_iter(instance_count, opts.seed, opts.tier) {
        let name = inst.name.clone();
        match run_instance(inst, &opts) {
            Ok(r) => {
                eprintln!(
                    "{name}: winner {} (cost {}), seq {} ms / par {} ms, \
                     serve warm {:.2}x @ {:.0}% hits{}",
                    r.winner,
                    r.winning_cost,
                    ms(r.seq_wall),
                    ms(r.par_wall),
                    r.serve_ab.speedup,
                    r.serve_ab.warm_hit_rate * 100.0,
                    if r.sat_ab.skipped {
                        ", sat skipped".to_owned()
                    } else {
                        format!(
                            ", sat optimum {} ({} rounds{})",
                            r.sat_ab.optimum,
                            r.sat_ab.rounds,
                            if r.sat_ab.matches { "" } else { ", MISMATCH" }
                        )
                    }
                );
                reports.push(r);
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }

    let stream = match run_stream_ab(&opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: stream A/B: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "stream_ab: {} instances, warm {:.2}x cold @ {:.0}% hits, \
         peak live {} / bound {}, {} mismatches",
        stream.count,
        stream.speedup,
        stream.hit_rate * 100.0,
        stream.peak_live,
        stream.live_bound,
        stream.mismatches
    );
    let artifact = match write_records_artifact(&stream, &opts) {
        Ok(path) => path,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    let json = emit(&reports, &stream, &opts);
    if let Err(e) = std::fs::write(&opts.out, &json) {
        eprintln!("error: cannot write {}: {e}", opts.out);
        std::process::exit(1);
    }
    eprintln!(
        "wrote {} ({} instances) and {artifact} ({} records)",
        opts.out,
        reports.len(),
        stream.records.len()
    );
}
