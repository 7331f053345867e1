//! Metric names, units, the counters read from the program's traces, and
//! the result line.

use crate::spans::Spans;
use crate::stats::{ratio, Tally};
use picola::logic::{obs, Counter, SpanSnapshot, Trace};
use std::fmt::Write as _;

/// End-to-end metrics of an untraced run, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("jobs_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_tail", "ms"),
    ("ok_frac", "ratio"),
    ("setup_s", "s"),
    ("cubes_total", "count"),
];

/// Per-layer metrics of a traced run, with their units. Every traced run
/// prints all of them; a layer a workload never enters reads 0.
///
/// `*_ms` is the layer's self time per job, counts are totals over the
/// traced pass, and ratios are useful outcomes over attempts.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fsm.parse_ms", "ms"),
    ("fsm.symbolic_ms", "ms"),
    ("logic.mv_pla.parse_ms", "ms"),
    ("constraints.extract_ms", "ms"),
    ("constraints.extract.espresso_iters", "count"),
    ("constraints.extract.scc_pairs", "count"),
    ("logic.flat_ms", "ms"),
    ("logic.flat.espresso_iters", "count"),
    ("logic.flat.ns_per_iter", "ns"),
    ("logic.flat.scc_prefilter_ratio", "ratio"),
    ("logic.simd.dispatches", "count"),
    ("logic.simd.wide_ratio", "ratio"),
    ("stassign.encode_ms", "ms"),
    ("core.picola_ms", "ms"),
    ("core.picola.dichotomy_evals", "count"),
    ("core.picola.guides_added", "count"),
    ("core.refine_ms", "ms"),
    ("core.refine.evals", "count"),
    ("core.refine.accept_ratio", "ratio"),
    ("core.refine.ns_per_eval", "ns"),
    ("baselines.nova_ms", "ms"),
    ("baselines.anneal_ms", "ms"),
    ("baselines.anneal.accept_ratio", "ratio"),
    ("baselines.dicho_ms", "ms"),
    ("baselines.natural_ms", "ms"),
    ("sat.member_ms", "ms"),
    ("sat.conflicts", "count"),
    ("sat.ns_per_conflict", "ns"),
    ("core.portfolio.overhead_ms", "ms"),
    ("core.portfolio.useful_ratio", "ratio"),
    ("core.portfolio.wins.picola", "count"),
    ("core.portfolio.wins.nova-ih", "count"),
    ("core.portfolio.wins.anneal", "count"),
    ("core.portfolio.wins.dicho", "count"),
    ("core.portfolio.wins.natural", "count"),
    ("core.portfolio.wins.sat", "count"),
    ("core.engine_ms", "ms"),
    ("core.eval_ms", "ms"),
    ("logic.cache.hits", "count"),
    ("logic.cache.misses", "count"),
    ("logic.cache.hit_ratio", "ratio"),
    ("core.store.lookup_ms", "ms"),
    ("core.store.insert_ms", "ms"),
    ("core.store.hit_ratio", "ratio"),
    ("core.store.corrupt", "count"),
    ("server.overhead_ms", "ms"),
    ("server.fresh_job_ms_p50", "ms"),
    ("server.repeat_job_ms_p50", "ms"),
    ("server.rejected", "count"),
    ("server.degraded", "count"),
    ("server.failed", "count"),
    ("server.retries", "count"),
    ("proc.peak_rss_mb", "MB"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_ratio", "ratio"),
];

/// A fixed, ordered set of named metrics, all starting at 0.
#[derive(Debug, Clone)]
pub struct Metrics {
    names: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
}

impl Metrics {
    /// Every metric of `names`, at 0.
    pub fn new(names: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics {
            names,
            values: vec![0.0; names.len()],
        }
    }

    fn index(&self, name: &str) -> usize {
        match self.names.iter().position(|&(n, _)| n == name) {
            Some(i) => i,
            None => unreachable!("metric {name} is not in the benchmark's list"),
        }
    }

    /// Sets a metric; non-finite values read 0.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self.index(name);
        self.values[i] = if value.is_finite() { value } else { 0.0 };
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` in list order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (&(name, unit), value)) in self.names.iter().zip(&self.values).enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// The run's last line of output.
pub fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed() == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed(),
        metrics.to_json()
    )
}

/// Milliseconds per job from a nanosecond total.
pub fn ms_per_job(total_ns: u64, jobs: usize) -> f64 {
    ratio(total_ns as f64 / 1e6, jobs as f64)
}

/// Counters and span walls read from the program's own `obs` traces, one
/// trace per job, summed over a traced pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// ESPRESSO iterations under the extraction layer.
    pub extract_iters: u64,
    /// Containment pairs under the extraction layer.
    pub extract_scc_pairs: u64,
    /// ESPRESSO iterations under direct `flat_espresso_bounded` calls.
    pub flat_iters: u64,
    /// Containment pairs under direct `flat_espresso_bounded` calls.
    pub flat_scc_pairs: u64,
    /// Of those, pairs the signature prefilter settled alone.
    pub flat_prefilter_rejects: u64,
    /// Kernel backend dispatches, every layer.
    pub dispatches: u64,
    /// Of those, resolved to the wide backend.
    pub wide: u64,
    /// Dichotomy evaluations in PICOLA's column solver.
    pub dicho_evals: u64,
    /// Guide constraints PICOLA added.
    pub guides: u64,
    /// Wall time of the program's `picola` spans (refine included).
    pub picola_ns: u64,
    /// Wall time of the program's `refine` spans.
    pub refine_ns: u64,
    /// Refine candidates evaluated.
    pub refine_evals: u64,
    /// Refine candidates applied.
    pub refine_accepts: u64,
    /// Annealing moves accepted.
    pub anneal_accepts: u64,
    /// Annealing moves rejected.
    pub anneal_rejects: u64,
    /// SAT conflicts.
    pub sat_conflicts: u64,
    /// Minimization memo hits.
    pub cache_hits: u64,
    /// Minimization memo misses.
    pub cache_misses: u64,
}

fn find_all<'a>(snap: &'a SpanSnapshot, name: &str, out: &mut Vec<&'a SpanSnapshot>) {
    if snap.name == name {
        out.push(snap);
        return;
    }
    for child in &snap.children {
        find_all(child, name, out);
    }
}

fn under(snap: &SpanSnapshot, name: &str, counter: Counter) -> u64 {
    let mut spans = Vec::new();
    find_all(snap, name, &mut spans);
    spans.iter().map(|s| s.counter_total(counter)).sum()
}

fn wall_of(snap: &SpanSnapshot, name: &str) -> u64 {
    let mut spans = Vec::new();
    find_all(snap, name, &mut spans);
    spans.iter().filter_map(|s| s.wall_ns).sum()
}

impl Counts {
    /// Adds one job's trace.
    pub fn add(&mut self, trace: &Trace) {
        let snap = trace.snapshot();
        self.extract_iters += under(&snap, "constraints.extract", Counter::EspressoIters);
        self.extract_scc_pairs += under(&snap, "constraints.extract", Counter::SccPairs);
        self.flat_iters += under(&snap, "logic.flat", Counter::EspressoIters);
        self.flat_scc_pairs += under(&snap, "logic.flat", Counter::SccPairs);
        self.flat_prefilter_rejects += under(&snap, "logic.flat", Counter::SccPrefilterRejects);
        // Backend counters are left out of snapshots; read them directly.
        self.dispatches += trace.counter_total(Counter::KernelDispatches);
        self.wide += trace.counter_total(Counter::KernelWideCalls);
        self.dicho_evals += snap.counter_total(Counter::DichotomyEvals);
        self.guides += snap.counter_total(Counter::GuidesAdded);
        self.picola_ns += wall_of(&snap, "picola");
        self.refine_ns += wall_of(&snap, "refine");
        self.refine_evals += snap.counter_total(Counter::RefineEvals);
        self.refine_accepts += snap.counter_total(Counter::RefineAccepts);
        self.anneal_accepts += snap.counter_total(Counter::AnnealAccepts);
        self.anneal_rejects += snap.counter_total(Counter::AnnealRejects);
        self.sat_conflicts += snap.counter_total(Counter::SatConflicts);
        self.cache_hits += snap.counter_total(Counter::MinimizeCacheHit);
        self.cache_misses += snap.counter_total(Counter::MinimizeCacheMiss);
    }

    /// Writes the counter-based per-layer metrics. `flat_self_ns` is the
    /// self time of the direct `flat_espresso_bounded` calls.
    pub fn fill(&self, m: &mut Metrics, jobs: usize, flat_self_ns: u64) {
        let f = |v: u64| v as f64;
        m.set("constraints.extract.espresso_iters", f(self.extract_iters));
        m.set("constraints.extract.scc_pairs", f(self.extract_scc_pairs));
        m.set("logic.flat.espresso_iters", f(self.flat_iters));
        m.set(
            "logic.flat.ns_per_iter",
            ratio(f(flat_self_ns), f(self.flat_iters)),
        );
        m.set(
            "logic.flat.scc_prefilter_ratio",
            ratio(f(self.flat_prefilter_rejects), f(self.flat_scc_pairs)),
        );
        m.set("logic.simd.dispatches", f(self.dispatches));
        m.set(
            "logic.simd.wide_ratio",
            ratio(f(self.wide), f(self.dispatches)),
        );
        m.set("core.picola.dichotomy_evals", f(self.dicho_evals));
        m.set("core.picola.guides_added", f(self.guides));
        m.set("core.refine_ms", ms_per_job(self.refine_ns, jobs));
        m.set("core.refine.evals", f(self.refine_evals));
        m.set(
            "core.refine.accept_ratio",
            ratio(f(self.refine_accepts), f(self.refine_evals)),
        );
        m.set(
            "core.refine.ns_per_eval",
            ratio(f(self.refine_ns), f(self.refine_evals)),
        );
        m.set(
            "baselines.anneal.accept_ratio",
            ratio(
                f(self.anneal_accepts),
                f(self.anneal_accepts + self.anneal_rejects),
            ),
        );
        m.set("sat.conflicts", f(self.sat_conflicts));
        m.set("logic.cache.hits", f(self.cache_hits));
        m.set("logic.cache.misses", f(self.cache_misses));
        m.set(
            "logic.cache.hit_ratio",
            ratio(f(self.cache_hits), f(self.cache_hits + self.cache_misses)),
        );
    }
}

/// Runs job `i` through `f`. With `counts`, the job runs inside a `job`
/// span and under a fresh wall-clock `obs` trace whose counters are added
/// to `counts`; without, it runs bare.
pub fn traced_job<T>(
    spans: &mut Spans,
    counts: Option<&mut Counts>,
    i: usize,
    f: impl FnOnce(&mut Spans) -> T,
) -> T {
    let Some(counts) = counts else {
        return f(spans);
    };
    let trace = Trace::with_wall_clock();
    let out = {
        let _current = obs::enter(trace.recorder());
        spans.set_job(i);
        let id = spans.open("job");
        let out = f(spans);
        spans.close(id);
        out
    };
    counts.add(&trace);
    out
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|&(n, _)| n)
            .collect();
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), before, "duplicate metric name");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_alphanumeric())
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    #[test]
    fn every_metric_is_declared_in_benchmark_json() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(json) = std::fs::read_to_string(manifest) else {
            return; // the benchmark directory copied on its own
        };
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"unit\": ").count();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json declares extra metrics"
        );
    }

    #[test]
    fn json_lists_every_metric_with_its_unit() {
        let mut m = Metrics::new(END_TO_END);
        m.set("jobs_per_s", 12.75);
        m.set("setup_s", f64::NAN);
        let json = m.to_json();
        assert!(json.contains("\"jobs_per_s\": {\"value\": 12.75, \"unit\": \"1/s\"}"));
        assert!(json.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert_eq!(json.matches("\"unit\"").count(), END_TO_END.len());
    }

    #[test]
    fn result_line_reports_failures() {
        let mut t = Tally::default();
        t.record(None);
        t.record(Some(crate::stats::Failure::Degraded));
        let line = result_line(&t, &Metrics::new(END_TO_END));
        assert!(line
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {"));
    }
}
