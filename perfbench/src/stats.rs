//! Latency statistics, failure accounting and whole-pass throughput.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `pct` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], pct: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), pct) - 1]
}

/// 1-based nearest rank of the `pct` percentile among `n` samples, in
/// integers so that no rounding moves it.
fn rank(n: usize, pct: usize) -> usize {
    (pct * n).div_ceil(100).clamp(1, n.max(1))
}

/// Median of unsorted values (the mean of the two middle ones when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail latency the benchmark reports, and how it was chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile used: 99 or 90.
    pub pct: usize,
    /// Its value.
    pub value: f64,
    /// Samples it was taken over.
    pub samples: usize,
    /// Samples ranked beyond it.
    pub beyond: usize,
}

/// Samples a reported percentile must have beyond it.
const TAIL_MIN_BEYOND: usize = 10;

/// The highest of p99 and p90 that has at least ten samples beyond it.
/// When neither has (fewer than 100 samples), p90 is reported anyway and
/// `beyond` says how thin it is.
pub fn tail(samples: &[f64]) -> Tail {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let pick = |pct: usize| Tail {
        pct,
        value: percentile(&sorted, pct),
        samples: n,
        beyond: n - rank(n, pct).min(n),
    };
    let p99 = pick(99);
    if p99.beyond >= TAIL_MIN_BEYOND {
        p99
    } else {
        pick(90)
    }
}

/// Why a job counts as failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// The call returned an error (or the server answered `error`).
    Error,
    /// The server load-shed the job and every retry was refused too.
    Rejected,
    /// The answer came back degraded (a budget ran out).
    Degraded,
    /// The answer failed the benchmark's correctness check.
    CheckFailed,
}

/// Outcome counts over every attempted job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Jobs issued.
    pub attempted: u64,
    /// Jobs that errored.
    pub errors: u64,
    /// Jobs rejected after retries.
    pub rejected: u64,
    /// Jobs answered degraded.
    pub degraded: u64,
    /// Jobs whose answer failed a check.
    pub check_failed: u64,
}

impl Tally {
    /// Counts one job: `None` when it was answered and passed its checks.
    /// A job counts once, under its first failure.
    pub fn record(&mut self, outcome: Option<Failure>) {
        self.attempted += 1;
        match outcome {
            None => {}
            Some(Failure::Error) => self.errors += 1,
            Some(Failure::Rejected) => self.rejected += 1,
            Some(Failure::Degraded) => self.degraded += 1,
            Some(Failure::CheckFailed) => self.check_failed += 1,
        }
    }

    /// Jobs that failed for any reason.
    pub fn failed(&self) -> u64 {
        self.errors + self.rejected + self.degraded + self.check_failed
    }

    /// Failed jobs over attempted jobs.
    pub fn failed_frac(&self) -> f64 {
        ratio(self.failed() as f64, self.attempted as f64)
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// How many whole passes a run of `seconds` makes when one pass takes
/// `nominal_pass_s` on the reference host. The count is fixed by the
/// arguments alone, so a faster program does the same work in less time
/// and every run of a workload yields the same number of samples.
pub fn passes_for(seconds: u64, nominal_pass_s: f64) -> usize {
    ((seconds as f64 / nominal_pass_s).round() as usize).max(1)
}

/// Latencies and wall time of whole passes over one job list.
#[derive(Debug, Clone, Default)]
pub struct PassLog {
    jobs_per_pass: usize,
    walls_s: Vec<f64>,
    latencies_ms: Vec<f64>,
}

impl PassLog {
    /// An empty log for passes of `jobs_per_pass` jobs.
    pub fn new(jobs_per_pass: usize) -> PassLog {
        PassLog {
            jobs_per_pass,
            ..PassLog::default()
        }
    }

    /// Adds one pass.
    ///
    /// # Errors
    ///
    /// The pass is not whole: it answered a different number of jobs than
    /// the job list holds.
    pub fn record_pass(&mut self, wall_s: f64, latencies_ms: &[f64]) -> Result<(), String> {
        if latencies_ms.len() != self.jobs_per_pass {
            return Err(format!(
                "partial pass: {} of {} jobs answered",
                latencies_ms.len(),
                self.jobs_per_pass
            ));
        }
        self.walls_s.push(wall_s);
        self.latencies_ms.extend_from_slice(latencies_ms);
        Ok(())
    }

    /// Passes recorded.
    pub fn passes(&self) -> usize {
        self.walls_s.len()
    }

    /// Jobs answered over all passes.
    pub fn jobs(&self) -> usize {
        self.latencies_ms.len()
    }

    /// Jobs answered per second of pass wall time.
    pub fn jobs_per_s(&self) -> f64 {
        ratio(self.jobs() as f64, self.walls_s.iter().sum())
    }

    /// Every job latency, in ms.
    pub fn latencies_ms(&self) -> &[f64] {
        &self.latencies_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(10);
        assert_eq!(percentile(&v, 50), 5.0);
        assert_eq!(percentile(&v, 90), 9.0);
        assert_eq!(percentile(&v, 99), 10.0);
        assert_eq!(percentile(&v, 0), 1.0);
        assert_eq!(percentile(&[], 50), 0.0);
        // 0.99 * 300 is not exact in floating point; the rank must be 297.
        assert_eq!(percentile(&ramp(300), 99), 297.0);
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_p99_from_a_thousand_samples() {
        let t = tail(&ramp(1000));
        assert_eq!(t.pct, 99);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 1000);
    }

    #[test]
    fn tail_falls_back_to_p90_below_a_thousand_samples() {
        let t = tail(&ramp(999));
        assert_eq!(t.pct, 90);
        assert_eq!(t.value, 900.0);
        assert_eq!(t.beyond, 99);
        let t = tail(&ramp(100));
        assert_eq!((t.pct, t.value, t.beyond), (90, 90.0, 10));
    }

    #[test]
    fn thin_tails_still_report_p90() {
        let t = tail(&ramp(20));
        assert_eq!((t.pct, t.value, t.beyond), (90, 18.0, 2));
        let t = tail(&[]);
        assert_eq!((t.pct, t.value, t.samples), (90, 0.0, 0));
    }

    #[test]
    fn tail_ignores_sample_order() {
        let mut v = ramp(1000);
        v.reverse();
        assert_eq!(tail(&v).value, 990.0);
    }

    #[test]
    fn every_failure_kind_counts_once() {
        let mut t = Tally::default();
        for outcome in [
            None,
            Some(Failure::Error),
            Some(Failure::Rejected),
            Some(Failure::Degraded),
            Some(Failure::CheckFailed),
            None,
            None,
            None,
        ] {
            t.record(outcome);
        }
        assert_eq!(t.attempted, 8);
        assert_eq!(
            (t.errors, t.rejected, t.degraded, t.check_failed),
            (1, 1, 1, 1)
        );
        assert_eq!(t.failed(), 4);
        assert_eq!(t.failed_frac(), 0.5);
    }

    #[test]
    fn no_attempts_means_no_failure_fraction() {
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }

    #[test]
    fn pass_count_depends_only_on_the_arguments() {
        assert_eq!(passes_for(20, 10.0), 2);
        assert_eq!(passes_for(20, 7.5), 3);
        assert_eq!(passes_for(1, 10.0), 1);
        assert_eq!(passes_for(0, 10.0), 1);
    }

    #[test]
    fn throughput_counts_whole_passes_only() {
        let mut log = PassLog::new(4);
        log.record_pass(2.0, &[1.0, 2.0, 3.0, 4.0]).expect("whole");
        log.record_pass(2.0, &[1.0, 2.0, 3.0, 4.0]).expect("whole");
        assert!(log.record_pass(1.0, &[1.0, 2.0]).is_err());
        assert_eq!(log.passes(), 2);
        assert_eq!(log.jobs(), 8);
        assert_eq!(log.jobs_per_s(), 2.0);
        assert_eq!(log.latencies_ms().len(), 8);
    }
}
