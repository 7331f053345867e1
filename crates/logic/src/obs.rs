//! Deterministic observability: hierarchical spans + monotonic counters.
//!
//! Every later performance PR needs to know *where the work goes* — how
//! many dichotomy evaluations a column took, how many cube sharps an
//! ESPRESSO pass burned, how often the refine loop accepted a flip. This
//! module records that as a tree of **spans** (one per pipeline phase:
//! extract → encode → per-column → refine → espresso), each carrying
//!
//! - a fixed registry of **monotonic counters** ([`Counter`]) bumped by
//!   the algorithms, and
//! - per-trigger-point **work totals** fed by [`crate::budget::Budget::tick`],
//!   so span "timing" is expressed in the same deterministic work units
//!   the budget clock is gated on.
//!
//! ## Determinism contract
//!
//! [`Trace::render`] never includes wall-clock time, and every counter is
//! bumped on the thread that *orchestrates* a phase (never inside
//! data-parallel evaluation workers), so the rendered span/counter tree is
//! byte-identical for any `--threads` setting. Wall time is collected only
//! when the trace is created with [`Trace::with_wall_clock`] and only
//! surfaces in [`Trace::to_json`].
//!
//! ## Recording model
//!
//! A [`Trace`] owns the root of the span tree and hands out [`Recorder`]
//! handles. A `Recorder` is either *disabled* (every operation is a no-op;
//! this is the [`Default`]) or scoped to one span. [`Recorder::span`]
//! opens a child span and returns a [`SpanGuard`] that closes it on drop —
//! including on unwind, which is how the chaos suite proves spans close on
//! every fault path.
//!
//! Deep call sites (the sharp operator, the containment prefilter) do not
//! take a recorder parameter; they report through a **thread-local current
//! recorder** installed by [`enter`] and bumped by [`count`]. Phase
//! drivers install their span's recorder on entry, so deep counts land in
//! the phase that caused them. [`Budget::tick`] routes its work through
//! the same thread-local (falling back to the recorder attached to the
//! budget), which makes counter conservation structural: every tick that
//! drains the shared work pool records the same amount into exactly one
//! span.
//!
//! ## Cost when untraced
//!
//! There is no compile-time switch. With no recorder installed, [`count`]
//! returns after one thread-local flag read and a disabled [`Recorder`]
//! after one `Option` check; every untraced run pays exactly that, and
//! DESIGN.md §11 has the measurement showing that compiling the layer out
//! would not pay.
//!
//! [`Budget::tick`]: crate::budget::Budget::tick

/// The fixed registry of monotonic counters.
///
/// Counters are cheap (`AtomicU64` slots indexed by discriminant) and
/// deliberately closed: adding one is a one-line enum change and keeps
/// renders/JSON stable across the whole workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Cube sharp (`#`) operations in `picola_logic::sharp`.
    CubeSharps,
    /// Main-loop iterations of the bounded ESPRESSO driver.
    EspressoIters,
    /// EXPAND operator invocations.
    ExpandCalls,
    /// REDUCE operator invocations.
    ReduceCalls,
    /// IRREDUNDANT operator invocations.
    IrredundantCalls,
    /// Ordered cube pairs examined by single-cube containment (`scc`).
    SccPairs,
    /// `scc` pairs rejected by the fold-OR signature prefilter alone
    /// (no full containment walk needed).
    SccPrefilterRejects,
    /// `u64` word operations in the packed constraint-matrix kernels
    /// (`pack_column` / `absorb_column`).
    WordOps,
    /// Encoding columns completed by the PICOLA column loop.
    ColumnsSolved,
    /// Guide constraints appended while classifying after a column.
    GuidesAdded,
    /// Candidate dichotomy gain evaluations inside `solve_column`.
    DichotomyEvals,
    /// Candidate flips evaluated by the PICOLA refine loop.
    RefineEvals,
    /// Refine flips accepted (first-improvement applications).
    RefineAccepts,
    /// Refine flips evaluated and rejected before an accept (or in a
    /// chunk that produced no improvement).
    RefineRejects,
    /// Simulated-annealing moves accepted.
    AnnealAccepts,
    /// Simulated-annealing moves rejected.
    AnnealRejects,
    /// Chaos faults that fired at a budget trigger point.
    FaultsInjected,
    /// Worker panics caught and isolated by the encoder portfolio.
    PanicsCaught,
    /// Minimized-cube-count requests routed through the memo layer
    /// ([`crate::cache::MinimizeCache`]). Always equals
    /// [`Counter::MinimizeCacheHit`] + [`Counter::MinimizeCacheMiss`] —
    /// the conservation rule the golden-trace suite enforces.
    MinimizeCalls,
    /// Minimization requests answered from the memo without running the
    /// minimizer (and without charging any budget work).
    MinimizeCacheHit,
    /// Minimization requests that ran the minimizer (cache disabled, cold
    /// entry, or capacity reached).
    MinimizeCacheMiss,
    /// Flat-engine runs dispatched to a kernel backend. The engine has one
    /// kernel set ([`crate::simd`]) and dispatches nothing, so nothing
    /// bumps this counter; it stays only because the benchmark's
    /// `logic.simd.dispatches` metric reads it.
    KernelDispatches,
    /// Dispatched runs resolved to a wide kernel backend. Like
    /// [`Counter::KernelDispatches`], never bumped; it stays only because
    /// the benchmark's `logic.simd.wide_ratio` metric reads it.
    KernelWideCalls,
    /// Branching decisions made by the CDCL SAT core
    /// ([`crate::sat::Solver`]). Together with [`Counter::SatConflicts`]
    /// this equals the work the solver charges to its budget at the
    /// `sat.conflict` trigger point — the conservation rule for SAT runs.
    SatDecisions,
    /// Implied assignments produced by unit propagation in the SAT core.
    SatPropagations,
    /// Conflicts analyzed (and, when the clause is non-trivial, learned
    /// from) by the SAT core.
    SatConflicts,
}

impl Counter {
    /// Every counter, in render order.
    pub const ALL: &'static [Counter] = &[
        Counter::CubeSharps,
        Counter::EspressoIters,
        Counter::ExpandCalls,
        Counter::ReduceCalls,
        Counter::IrredundantCalls,
        Counter::SccPairs,
        Counter::SccPrefilterRejects,
        Counter::WordOps,
        Counter::ColumnsSolved,
        Counter::GuidesAdded,
        Counter::DichotomyEvals,
        Counter::RefineEvals,
        Counter::RefineAccepts,
        Counter::RefineRejects,
        Counter::AnnealAccepts,
        Counter::AnnealRejects,
        Counter::FaultsInjected,
        Counter::PanicsCaught,
        Counter::MinimizeCalls,
        Counter::MinimizeCacheHit,
        Counter::MinimizeCacheMiss,
        Counter::KernelDispatches,
        Counter::KernelWideCalls,
        Counter::SatDecisions,
        Counter::SatPropagations,
        Counter::SatConflicts,
    ];

    /// The stable snake_case name used in renders and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Counter::CubeSharps => "cube_sharps",
            Counter::EspressoIters => "espresso_iters",
            Counter::ExpandCalls => "expand_calls",
            Counter::ReduceCalls => "reduce_calls",
            Counter::IrredundantCalls => "irredundant_calls",
            Counter::SccPairs => "scc_pairs",
            Counter::SccPrefilterRejects => "scc_prefilter_rejects",
            Counter::WordOps => "word_ops",
            Counter::ColumnsSolved => "columns_solved",
            Counter::GuidesAdded => "guides_added",
            Counter::DichotomyEvals => "dichotomy_evals",
            Counter::RefineEvals => "refine_evals",
            Counter::RefineAccepts => "refine_accepts",
            Counter::RefineRejects => "refine_rejects",
            Counter::AnnealAccepts => "anneal_accepts",
            Counter::AnnealRejects => "anneal_rejects",
            Counter::FaultsInjected => "faults_injected",
            Counter::PanicsCaught => "panics_caught",
            Counter::MinimizeCalls => "minimize_calls",
            Counter::MinimizeCacheHit => "minimize_cache_hit",
            Counter::MinimizeCacheMiss => "minimize_cache_miss",
            Counter::KernelDispatches => "kernel_dispatches",
            Counter::KernelWideCalls => "kernel_wide_calls",
            Counter::SatDecisions => "sat_decisions",
            Counter::SatPropagations => "sat_propagations",
            Counter::SatConflicts => "sat_conflicts",
        }
    }
}

/// Number of counter slots per span.
const NUM_COUNTERS: usize = Counter::ALL.len();

/// An immutable snapshot of one span, produced by [`Trace::snapshot`].
///
/// `work` and `counters` list only non-zero entries, in registry order, so
/// snapshots (and everything rendered from them) are deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Span name (`"picola"`, `"column.3"`, `"member.anneal"`, ...).
    pub name: String,
    /// Wall time in nanoseconds, present only for traces created with
    /// [`Trace::with_wall_clock`] (and excluded from [`Trace::render`]).
    pub wall_ns: Option<u64>,
    /// Non-zero work totals per budget trigger point. Points outside the
    /// chaos registry (tests, examples) aggregate under `"other"`.
    pub work: Vec<(&'static str, u64)>,
    /// Non-zero counters.
    pub counters: Vec<(&'static str, u64)>,
    /// Child spans in creation order.
    pub children: Vec<SpanSnapshot>,
}

impl SpanSnapshot {
    /// Total work units recorded in this span and every descendant.
    pub fn total_work(&self) -> u64 {
        let own: u64 = self.work.iter().map(|&(_, v)| v).sum();
        own + self.children.iter().map(SpanSnapshot::total_work).sum::<u64>()
    }

    /// Total of one counter over this span and every descendant.
    pub fn counter_total(&self, counter: Counter) -> u64 {
        let own = self
            .counters
            .iter()
            .find(|&&(n, _)| n == counter.name())
            .map_or(0, |&(_, v)| v);
        own + self
            .children
            .iter()
            .map(|c| c.counter_total(counter))
            .sum::<u64>()
    }

    /// This span (and descendants) as indented deterministic text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(0, &mut out);
        out
    }

    /// Renders this span (and descendants) as indented deterministic text.
    fn render_into(&self, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&self.name);
        if !self.work.is_empty() {
            out.push_str(" work[");
            for (i, (point, v)) in self.work.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                out.push_str(point);
                out.push('=');
                out.push_str(&v.to_string());
            }
            out.push(']');
        }
        if !self.counters.is_empty() {
            out.push_str(" counters[");
            for (i, (name, v)) in self.counters.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                out.push_str(name);
                out.push('=');
                out.push_str(&v.to_string());
            }
            out.push(']');
        }
        out.push('\n');
        for child in &self.children {
            child.render_into(depth + 1, out);
        }
    }

    /// Serializes this span (and descendants) as a JSON object.
    fn json_into(&self, out: &mut String) {
        out.push_str("{\"name\":\"");
        json_escape_into(&self.name, out);
        out.push('"');
        if let Some(ns) = self.wall_ns {
            out.push_str(&format!(",\"wall_ms\":{:.3}", ns as f64 / 1e6));
        }
        out.push_str(",\"work\":{");
        for (i, (point, v)) in self.work.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            json_escape_into(point, out);
            out.push_str(&format!("\":{v}"));
        }
        out.push_str("},\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{v}"));
        }
        out.push_str("},\"children\":[");
        for (i, child) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            child.json_into(out);
        }
        out.push_str("]}");
    }

    /// This span as a standalone JSON object string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.json_into(&mut out);
        out
    }
}

fn json_escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

mod imp {
    use super::{Counter, SpanSnapshot, NUM_COUNTERS};
    use crate::chaos;
    use std::cell::{Cell, RefCell};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Instant;

    /// One work slot per chaos trigger point, plus a trailing `"other"`
    /// slot for points outside the registry (tests, doc examples).
    const NUM_WORK_SLOTS: usize = chaos::TRIGGER_POINTS.len() + 1;

    fn work_slot(point: &str) -> usize {
        chaos::TRIGGER_POINTS
            .iter()
            .position(|&p| p == point)
            .unwrap_or(chaos::TRIGGER_POINTS.len())
    }

    fn work_slot_name(slot: usize) -> &'static str {
        chaos::TRIGGER_POINTS.get(slot).copied().unwrap_or("other")
    }

    /// Shared mutable state of one span in the tree.
    #[derive(Debug)]
    struct SpanCell {
        name: String,
        /// `true` between guard creation and guard drop. The root cell is
        /// never "open": it is the container, not a phase.
        open: AtomicBool,
        /// Whether drops should read the wall clock (trace-wide flag).
        wall: bool,
        /// Accumulated wall nanoseconds over all open/close cycles.
        wall_ns: AtomicU64,
        counters: [AtomicU64; NUM_COUNTERS],
        work: [AtomicU64; NUM_WORK_SLOTS],
        children: Mutex<Vec<Arc<SpanCell>>>,
    }

    impl SpanCell {
        fn new(name: &str, wall: bool, open: bool) -> SpanCell {
            SpanCell {
                name: name.to_owned(),
                open: AtomicBool::new(open),
                wall,
                wall_ns: AtomicU64::new(0),
                counters: std::array::from_fn(|_| AtomicU64::new(0)),
                work: std::array::from_fn(|_| AtomicU64::new(0)),
                children: Mutex::new(Vec::new()),
            }
        }

        fn snapshot(&self) -> SpanSnapshot {
            let work = self
                .work
                .iter()
                .enumerate()
                .filter_map(|(slot, v)| {
                    let v = v.load(Ordering::Relaxed);
                    (v != 0).then(|| (work_slot_name(slot), v))
                })
                .collect();
            let counters = Counter::ALL
                .iter()
                .filter_map(|&c| {
                    let v = self.counters[c as usize].load(Ordering::Relaxed);
                    (v != 0).then(|| (c.name(), v))
                })
                .collect();
            let children = match self.children.lock() {
                Ok(kids) => kids.iter().map(|k| k.snapshot()).collect(),
                Err(_) => Vec::new(),
            };
            SpanSnapshot {
                name: self.name.clone(),
                wall_ns: self.wall.then(|| self.wall_ns.load(Ordering::Relaxed)),
                work,
                counters,
                children,
            }
        }

        /// Total of one counter over this cell and every descendant, read
        /// straight from the atomics.
        fn counter_total(&self, counter: Counter) -> u64 {
            let own = self.counters[counter as usize].load(Ordering::Relaxed);
            let kids: u64 = match self.children.lock() {
                Ok(kids) => kids.iter().map(|k| k.counter_total(counter)).sum(),
                Err(_) => 0,
            };
            own + kids
        }

        fn open_spans(&self) -> usize {
            let own = usize::from(self.open.load(Ordering::Relaxed));
            let kids = match self.children.lock() {
                Ok(kids) => kids.iter().map(|k| k.open_spans()).sum(),
                Err(_) => 0,
            };
            own + kids
        }
    }

    /// The owner of a span tree. See the module docs for the model.
    #[derive(Debug)]
    pub struct Trace {
        root: Arc<SpanCell>,
        start: Option<Instant>,
    }

    impl Default for Trace {
        fn default() -> Self {
            Trace::new()
        }
    }

    impl Trace {
        /// A deterministic trace: work units and counters only, no wall
        /// clock anywhere. Use this in tests and anywhere renders are
        /// compared byte-for-byte.
        pub fn new() -> Trace {
            Trace {
                root: Arc::new(SpanCell::new("trace", false, false)),
                start: None,
            }
        }

        /// A trace that additionally samples wall time per span (surfaced
        /// only by [`Trace::to_json`], never by [`Trace::render`]).
        pub fn with_wall_clock() -> Trace {
            Trace {
                root: Arc::new(SpanCell::new("trace", true, false)),
                start: Some(Instant::now()),
            }
        }

        /// An enabled recorder scoped to the root span. Attach it to a
        /// [`crate::budget::Budget`] and/or pass it to phase drivers.
        pub fn recorder(&self) -> Recorder {
            Recorder {
                scope: Some(Arc::clone(&self.root)),
            }
        }

        /// Snapshots the whole tree (root included).
        pub fn snapshot(&self) -> SpanSnapshot {
            let mut snap = self.root.snapshot();
            if let Some(start) = self.start {
                snap.wall_ns = Some(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
            }
            snap
        }

        /// Deterministic indented text render of the span/counter tree.
        pub fn render(&self) -> String {
            let mut snap = self.snapshot();
            strip_wall(&mut snap);
            let mut out = String::new();
            snap.render_into(0, &mut out);
            out
        }

        /// The whole tree as a JSON object (includes `wall_ms` fields when
        /// the trace was created with [`Trace::with_wall_clock`]).
        pub fn to_json(&self) -> String {
            self.snapshot().to_json()
        }

        /// Total work units recorded across every span.
        pub fn total_work(&self) -> u64 {
            self.snapshot().total_work()
        }

        /// Total of one counter across every span, read from the span
        /// cells without building a snapshot.
        pub fn counter_total(&self, counter: Counter) -> u64 {
            self.root.counter_total(counter)
        }

        /// Number of spans currently open (guards not yet dropped). Zero
        /// once every phase has exited — including via unwind or a chaos
        /// fault — which the conservation suite asserts.
        pub fn open_spans(&self) -> usize {
            self.root.open_spans()
        }
    }

    fn strip_wall(snap: &mut SpanSnapshot) {
        snap.wall_ns = None;
        for child in &mut snap.children {
            strip_wall(child);
        }
    }

    /// A handle that records into one span — or nothing, when disabled.
    ///
    /// Cloning is cheap (an `Option<Arc>`), and the [`Default`] recorder
    /// is disabled, so plumbing a `Recorder` through existing structs
    /// costs nothing until a [`Trace`] hands out a live one.
    #[derive(Debug, Clone, Default)]
    pub struct Recorder {
        scope: Option<Arc<SpanCell>>,
    }

    impl Recorder {
        /// The no-op recorder.
        pub fn disabled() -> Recorder {
            Recorder { scope: None }
        }

        /// `true` when this recorder writes into a live trace.
        pub fn is_enabled(&self) -> bool {
            self.scope.is_some()
        }

        /// Adds `n` to `counter` on this recorder's span.
        pub fn add(&self, counter: Counter, n: u64) {
            if n == 0 {
                return;
            }
            if let Some(cell) = &self.scope {
                cell.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
            }
        }

        /// Records `amount` budget work units at `point` on this span.
        pub fn record_work(&self, point: &str, amount: u64) {
            if amount == 0 {
                return;
            }
            if let Some(cell) = &self.scope {
                cell.work[work_slot(point)].fetch_add(amount, Ordering::Relaxed);
            }
        }

        /// Opens a child span named `name`; the guard closes it on drop.
        /// On a disabled recorder this returns an inert guard.
        pub fn span(&self, name: &str) -> SpanGuard {
            let Some(parent) = &self.scope else {
                return SpanGuard {
                    cell: None,
                    start: None,
                };
            };
            let cell = Arc::new(SpanCell::new(name, parent.wall, true));
            if let Ok(mut kids) = parent.children.lock() {
                kids.push(Arc::clone(&cell));
            }
            let start = cell.wall.then(Instant::now);
            SpanGuard {
                cell: Some(cell),
                start,
            }
        }
    }

    /// Closes its span on drop (normal exit, early return, or unwind).
    #[derive(Debug)]
    pub struct SpanGuard {
        cell: Option<Arc<SpanCell>>,
        start: Option<Instant>,
    }

    impl SpanGuard {
        /// A recorder scoped to this guard's span (disabled for inert
        /// guards). Hand it to child phases or [`enter`] it.
        pub fn recorder(&self) -> Recorder {
            Recorder {
                scope: self.cell.clone(),
            }
        }
    }

    impl Drop for SpanGuard {
        fn drop(&mut self) {
            if let Some(cell) = &self.cell {
                if let Some(start) = self.start {
                    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    cell.wall_ns.fetch_add(ns, Ordering::Relaxed);
                }
                cell.open.store(false, Ordering::Relaxed);
            }
        }
    }

    thread_local! {
        /// Fast-path flag mirroring whether `TL_CURRENT` is enabled.
        static TL_ENABLED: Cell<bool> = const { Cell::new(false) };
        static TL_CURRENT: RefCell<Option<Recorder>> = const { RefCell::new(None) };
    }

    /// Restores the previously installed current recorder on drop.
    #[derive(Debug)]
    pub struct CurrentGuard {
        prev: Option<Recorder>,
        prev_enabled: bool,
    }

    impl Drop for CurrentGuard {
        fn drop(&mut self) {
            TL_ENABLED.with(|e| e.set(self.prev_enabled));
            let prev = self.prev.take();
            TL_CURRENT.with(|c| *c.borrow_mut() = prev);
        }
    }

    /// Installs `recorder` as this thread's current recorder until the
    /// returned guard drops. Phase drivers call this right after opening
    /// their span so deep [`count`]s and budget ticks attribute to it.
    pub fn enter(recorder: Recorder) -> CurrentGuard {
        let prev_enabled = TL_ENABLED.with(|e| e.replace(recorder.is_enabled()));
        let prev = TL_CURRENT.with(|c| c.borrow_mut().replace(recorder));
        CurrentGuard { prev, prev_enabled }
    }

    /// The current recorder installed on this thread (disabled if none).
    pub fn current() -> Recorder {
        if !TL_ENABLED.with(Cell::get) {
            return Recorder::disabled();
        }
        TL_CURRENT.with(|c| c.borrow().clone().unwrap_or_default())
    }

    /// The thread's current recorder if enabled, else a clone of
    /// `fallback`. The standard way for a phase to find its parent scope:
    /// the caller's entered span wins over the budget-attached recorder.
    pub fn current_or(fallback: &Recorder) -> Recorder {
        let cur = current();
        if cur.is_enabled() {
            cur
        } else {
            fallback.clone()
        }
    }

    /// Adds `n` to `counter` on the thread's current recorder (no-op when
    /// none is installed). The deep-call-site counting primitive.
    pub fn count(counter: Counter, n: u64) {
        if n == 0 || !TL_ENABLED.with(Cell::get) {
            return;
        }
        TL_CURRENT.with(|c| {
            if let Some(r) = &*c.borrow() {
                r.add(counter, n);
            }
        });
    }

    /// Like [`count`], but falls back to `fallback` when no current
    /// recorder is installed. Used by [`crate::budget::Budget::tick`].
    pub fn count_scoped(fallback: &Recorder, counter: Counter, n: u64) {
        if TL_ENABLED.with(Cell::get) {
            count(counter, n);
        } else {
            fallback.add(counter, n);
        }
    }

    /// Records budget work on the thread's current recorder, falling back
    /// to `fallback` (the budget-attached recorder). Exactly one span
    /// receives each tick's amount, which is what makes trace totals equal
    /// the budget pool by construction.
    ///
    /// Work from an *untraced* budget (disabled `fallback`) is never
    /// recorded, even when a span is active on this thread: such ticks
    /// drain a pool no trace observes, so attributing them to the current
    /// span would break the trace-total = pool-drained conservation law.
    pub fn record_work_scoped(fallback: &Recorder, point: &str, amount: u64) {
        if !fallback.is_enabled() {
            return;
        }
        if TL_ENABLED.with(Cell::get) {
            TL_CURRENT.with(|c| {
                if let Some(r) = &*c.borrow() {
                    r.record_work(point, amount);
                }
            });
        } else {
            fallback.record_work(point, amount);
        }
    }
}

pub use imp::{
    count, count_scoped, current, current_or, enter, record_work_scoped, CurrentGuard, Recorder,
    SpanGuard, Trace,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        r.add(Counter::CubeSharps, 5);
        r.record_work("espresso.iter", 5);
        let g = r.span("phantom");
        assert!(!g.recorder().is_enabled());
    }

    #[test]
    fn spans_nest_and_close() {
        let trace = Trace::new();
        let rec = trace.recorder();
        assert!(rec.is_enabled());
        {
            let outer = rec.span("outer");
            outer.recorder().add(Counter::ColumnsSolved, 2);
            {
                let inner = outer.recorder().span("inner");
                inner.recorder().record_work("picola.column", 7);
                assert_eq!(trace.open_spans(), 2);
            }
            assert_eq!(trace.open_spans(), 1);
        }
        assert_eq!(trace.open_spans(), 0);
        assert_eq!(trace.total_work(), 7);
        assert_eq!(trace.counter_total(Counter::ColumnsSolved), 2);
        let render = trace.render();
        assert_eq!(
            render,
            "trace\n  outer counters[columns_solved=2]\n    inner work[picola.column=7]\n"
        );
    }

    #[test]
    fn unknown_points_land_in_other() {
        let trace = Trace::new();
        trace.recorder().record_work("test.step", 3);
        let snap = trace.snapshot();
        assert_eq!(snap.work, vec![("other", 3)]);
        assert_eq!(trace.total_work(), 3);
    }

    #[test]
    fn thread_local_current_routes_counts() {
        let trace = Trace::new();
        let span = trace.recorder().span("phase");
        {
            let _cur = enter(span.recorder());
            count(Counter::CubeSharps, 4);
            // An untraced budget's work is dropped even inside a span …
            record_work_scoped(&Recorder::disabled(), "espresso.iter", 7);
            // … while a traced budget's work lands on the current span.
            record_work_scoped(&trace.recorder(), "espresso.iter", 2);
            assert!(current().is_enabled());
        }
        assert!(!current().is_enabled());
        count(Counter::CubeSharps, 100); // no current installed: dropped
        drop(span);
        assert_eq!(trace.counter_total(Counter::CubeSharps), 4);
        assert_eq!(trace.total_work(), 2);
    }

    #[test]
    fn current_guard_restores_previous() {
        let trace = Trace::new();
        let a = trace.recorder().span("a");
        let b = trace.recorder().span("b");
        let _cur_a = enter(a.recorder());
        {
            let _cur_b = enter(b.recorder());
            count(Counter::GuidesAdded, 1);
        }
        count(Counter::GuidesAdded, 1);
        drop(_cur_a);
        let snap = trace.snapshot();
        assert_eq!(snap.children.len(), 2);
        assert_eq!(snap.children[0].counter_total(Counter::GuidesAdded), 1);
        assert_eq!(snap.children[1].counter_total(Counter::GuidesAdded), 1);
    }

    #[test]
    fn render_excludes_wall_time_and_json_includes_it() {
        let trace = Trace::with_wall_clock();
        {
            let _span = trace.recorder().span("timed");
        }
        assert!(!trace.render().contains("wall"));
        assert!(trace.to_json().contains("\"wall_ms\":"));
        let plain = Trace::new();
        {
            let _span = plain.recorder().span("timed");
        }
        assert!(!plain.to_json().contains("wall_ms"));
    }

    #[test]
    fn json_shape_is_stable() {
        let trace = Trace::new();
        {
            let s = trace.recorder().span("phase");
            s.recorder().add(Counter::RefineAccepts, 1);
            s.recorder().record_work("picola.refine", 5);
        }
        assert_eq!(
            trace.to_json(),
            "{\"name\":\"trace\",\"work\":{},\"counters\":{},\"children\":[\
             {\"name\":\"phase\",\"work\":{\"picola.refine\":5},\
             \"counters\":{\"refine_accepts\":1},\"children\":[]}]}"
        );
    }

    #[test]
    fn counts_are_thread_safe() {
        let trace = Trace::new();
        let rec = trace.recorder();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let rec = rec.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        rec.add(Counter::WordOps, 1);
                        rec.record_work("enc.eval", 1);
                    }
                });
            }
        });
        assert_eq!(trace.counter_total(Counter::WordOps), 4000);
        assert_eq!(trace.total_work(), 4000);
    }
}
