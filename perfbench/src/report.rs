//! What every workload reports: the end-to-end metrics of its passes and
//! the run-level part of a traced run.

use crate::metrics::{peak_rss_mb, Metrics, END_TO_END, PER_LAYER};
use crate::spans::{self_by_name, total_by_name, Span};
use crate::stats::{median, ratio, tail, PassLog, Tally};
use std::time::Instant;

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// A workload's result: outcome counts, metrics, and notes printed before
/// the result line.
#[derive(Debug)]
pub struct Report {
    /// Outcome counts over every attempted job.
    pub tally: Tally,
    /// End-to-end or per-layer metrics.
    pub metrics: Metrics,
    /// Extra lines for the reader (printed with a `# ` prefix).
    pub notes: Vec<String>,
}

/// Runs `setup` `reps` times and returns the last result with every
/// duration in seconds.
pub fn time_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    match last {
        Some(v) => (v, times),
        None => unreachable!("at least one set-up runs"),
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(log: &PassLog, tally: Tally, setups_s: &[f64], cubes_total: u64) -> Report {
    let mut m = Metrics::new(END_TO_END);
    let t = tail(log.latencies_ms());
    m.set("jobs_per_s", log.jobs_per_s());
    m.set("job_ms_p50", median(log.latencies_ms()));
    m.set("job_ms_tail", t.value);
    m.set("ok_frac", 1.0 - tally.failed_frac());
    m.set("setup_s", median(setups_s));
    m.set("cubes_total", cubes_total as f64);
    let notes = vec![
        format!(
            "job_ms_tail is p{} over {} samples ({} beyond it); {} whole passes of {} jobs",
            t.pct,
            t.samples,
            t.beyond,
            log.passes(),
            log.jobs() / log.passes().max(1)
        ),
        format!(
            "failed_frac {} (errors {}, rejected {}, degraded {}, check failures {}); ok_frac = 1 - failed_frac",
            tally.failed_frac(),
            tally.errors,
            tally.rejected,
            tally.degraded,
            tally.check_failed
        ),
    ];
    Report {
        tally,
        metrics: m,
        notes,
    }
}

/// A traced run's metrics, with the run-level ones filled in:
/// `trace.overhead_ratio` (traced over untraced throughput),
/// `trace.unattributed_ratio` (the share of job spans no layer span
/// covers) and the peak RSS.
pub fn per_layer(untraced_jobs_per_s: f64, traced_jobs_per_s: f64, spans: &[Span]) -> Metrics {
    let mut m = Metrics::new(PER_LAYER);
    m.set(
        "trace.overhead_ratio",
        ratio(traced_jobs_per_s, untraced_jobs_per_s),
    );
    let own = self_by_name(spans).get("job").copied().unwrap_or(0);
    let total = total_by_name(spans).get("job").copied().unwrap_or(0);
    m.set("trace.unattributed_ratio", ratio(own as f64, total as f64));
    m.set("proc.peak_rss_mb", peak_rss_mb());
    m
}

/// Self time per job, in ms, of each named layer span.
pub fn set_layer_ms(m: &mut Metrics, spans: &[Span], jobs: usize, layers: &[(&str, &str)]) {
    let by_name = self_by_name(spans);
    for &(span, metric) in layers {
        let ns = by_name.get(span).copied().unwrap_or(0);
        m.set(metric, crate::metrics::ms_per_job(ns, jobs));
    }
}
