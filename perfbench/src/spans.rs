//! Spans recorded by the benchmark around its calls into the program.
//!
//! Each span keeps its name, start, end, parent and job id in memory; the
//! list is written out when the run ends. A layer's self time is its
//! span's duration minus the part of that interval its child spans cover.
//! While a span is open, an `obs` span of the same name is entered too, so
//! the program's own counters land under the layer that caused them.

use picola::logic::obs;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder was made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index in the recorder's list.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer name.
    pub name: &'static str,
    /// The job the span belongs to.
    pub job: usize,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

/// In-memory span recorder. A disabled recorder records nothing and reads
/// no clock, so untraced runs pay only a branch per call.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    job: usize,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn disabled() -> Spans {
        Spans {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            job: 0,
        }
    }

    /// A recorder that keeps every span.
    pub fn enabled() -> Spans {
        Spans {
            enabled: true,
            ..Spans::disabled()
        }
    }

    /// Tags the spans opened from now on with `job`.
    pub fn set_job(&mut self, job: usize) {
        self.job = job;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one; close it with
    /// [`Spans::close`]. Returns `None` when disabled.
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            job: self.job,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Closes the span `open` returned, and any spans left open inside it.
    pub fn close(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let end = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = end;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`, with an `obs` span of the same
    /// name entered as the current recorder.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let obs_span = obs::current().span(name);
        let _current = obs::enter(obs_span.recorder());
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"job\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.job, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self time of every span, indexed like `spans`: its duration minus the
/// union of its children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let duration = s.end_ns.saturating_sub(s.start_ns);
            duration.saturating_sub(covered(s.start_ns, s.end_ns, kids))
        })
        .collect()
}

/// Length of the union of `intervals` inside `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Self time summed per span name.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

/// Total duration summed per span name.
pub fn total_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0) += s.end_ns.saturating_sub(s.start_ns);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            job: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, None, "job", 0, 100),
            span(1, Some(0), "a", 10, 30),
            span(2, Some(0), "b", 20, 50), // overlaps a: 10..50 counted once
            span(3, Some(0), "c", 60, 70),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30, 10]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span(0, None, "job", 100, 200),
            span(1, Some(0), "a", 50, 120),
            span(2, Some(0), "b", 190, 260),
        ];
        assert_eq!(self_times(&spans)[0], 70);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [
            span(0, None, "job", 0, 100),
            span(1, Some(0), "a", 0, 60),
            span(2, Some(1), "a.inner", 10, 50),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 40]);
        let by_name = self_by_name(&spans);
        assert_eq!(by_name["job"] + by_name["a"] + by_name["a.inner"], 100);
        assert_eq!(total_by_name(&spans)["a"], 60);
    }

    #[test]
    fn nested_recording_sets_parents_and_jobs() {
        let mut s = Spans::enabled();
        s.set_job(7);
        let job = s.open("job");
        let inner = s.time("layer", || 42);
        s.close(job);
        assert_eq!(inner, 42);
        let spans = s.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].job, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(s.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::disabled();
        let id = s.open("job");
        assert_eq!(s.time("layer", || 1), 1);
        s.close(id);
        assert!(s.spans().is_empty());
    }
}
