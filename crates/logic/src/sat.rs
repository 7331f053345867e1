//! SAT substrate: CNF formulas, DIMACS I/O, a self-contained CDCL solver,
//! and a compiler from face-constrained encoding problems to CNF.
//!
//! This module gives the workspace an *independent* exact path: instead of
//! sharing cube algebra with the minimizers it is meant to check, it
//! reduces "is there an injective encoding whose constraint covers total at
//! most `bound` cubes?" to propositional satisfiability and decides it with
//! a small conflict-driven solver (two-literal watching, first-UIP clause
//! learning, phase saving, geometric restarts). No external solver is
//! involved, consistent with the vendored-dependencies policy.
//!
//! ## The reduction
//!
//! For a [`FaceProblem`] over `n` symbols in `nv` bits with constraint
//! groups `g_0..g_{m-1}`, [`FaceProblem::compile`] emits:
//!
//! - **code bits** `x[s][b]` — bit `b` of the vertex assigned to symbol
//!   `s`, with pairwise-difference auxiliaries enforcing injectivity;
//! - **cube slots** per group — each slot `j` has a selector `sel`, and
//!   per-bit `free`/`val` literals describing one cube of the group's
//!   cover; auxiliaries force every member's code inside some selected
//!   cube and every *non-member's* code outside every selected cube
//!   (unassigned vertices are don't-cares, exactly the Table I cost
//!   semantics);
//! - a **sequential-counter at-most-k** constraint (Sinz's LTSeq encoding,
//!   per "Yet Another Comparison of SAT Encodings for the At-Most-K
//!   Constraint") bounding the total number of selected cubes;
//! - **symmetry breaking**: hypercube automorphisms (bit complementation
//!   and bit permutation) act freely on solutions, so symbol 0 is pinned
//!   to the origin and symbol 1's bits are sorted; selected cube slots
//!   form a prefix within each group.
//!
//! The formula is satisfiable at bound `K` iff some injective encoding
//! admits per-group SOP covers totalling at most `K` cubes — i.e. iff the
//! exact Table I cost can be `<= K`. Iterating `K` downward to UNSAT
//! proves optima; `picola-sat` wraps that loop in an `ExactOracle`.
//!
//! ## Budgets and chaos
//!
//! [`Solver::solve`] charges one unit of work at the `sat.conflict`
//! trigger point for every branching decision and every conflict, so
//! exhaustion (or an injected fault) surfaces as [`SatOutcome::Unknown`]
//! promptly — the solver never hangs and never panics.

use crate::budget::Budget;
use crate::obs;
use std::fmt;
use std::fmt::Write as _;

/// The budget trigger point charged on every solver decision and conflict.
pub const SAT_TICK: &str = "sat.conflict";

/// Parse limit: maximum variable index accepted from DIMACS input.
const MAX_DIMACS_VARS: usize = 1 << 20;
/// Parse limit: maximum total literal count accepted from DIMACS input.
const MAX_DIMACS_LITS: usize = 1 << 23;

/// A propositional literal: variable index plus polarity, packed as
/// `var << 1 | negated`.
///
/// The packed order (variable-major, positive before negative) is also the
/// normalization order used by [`Cnf::add_clause`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of variable `var`.
    #[must_use]
    pub fn pos(var: usize) -> Lit {
        Lit((var as u32) << 1)
    }

    /// The negative literal of variable `var`.
    #[must_use]
    pub fn neg(var: usize) -> Lit {
        Lit(((var as u32) << 1) | 1)
    }

    /// The variable this literal mentions.
    #[must_use]
    pub fn var(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// `true` for a positive literal.
    #[must_use]
    pub fn is_pos(self) -> bool {
        self.0 & 1 == 0
    }

    /// The opposite-polarity literal of the same variable.
    #[must_use]
    pub fn negated(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// Dense index for watch lists (`2 * var + negated`).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The DIMACS spelling: 1-based variable, sign for polarity.
    #[must_use]
    pub fn to_dimacs(self) -> i64 {
        let v = self.var() as i64 + 1;
        if self.is_pos() {
            v
        } else {
            -v
        }
    }

    /// Parses a DIMACS literal (`None` for 0 or an out-of-range value).
    #[must_use]
    pub fn from_dimacs(x: i64) -> Option<Lit> {
        let v = x.unsigned_abs();
        if x == 0 || v > MAX_DIMACS_VARS as u64 {
            return None;
        }
        let var = (v - 1) as usize;
        Some(if x > 0 { Lit::pos(var) } else { Lit::neg(var) })
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_dimacs())
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_dimacs())
    }
}

/// Error from [`Cnf::parse_dimacs`]: offending line plus a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SatParseError {
    /// 1-based line number of the offending input line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for SatParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dimacs parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SatParseError {}

/// A CNF formula: a clause list over `num_vars` variables.
///
/// Clauses are normalized on insertion (sorted, duplicate literals
/// dropped, tautological clauses discarded), so two formulas built from
/// logically identical clause sets compare equal — the property the
/// DIMACS round-trip fuzzer leans on.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Cnf {
    num_vars: usize,
    clauses: Vec<Vec<Lit>>,
}

impl Cnf {
    /// An empty formula over zero variables.
    #[must_use]
    pub fn new() -> Cnf {
        Cnf::default()
    }

    /// Allocates a fresh variable and returns its index.
    pub fn new_var(&mut self) -> usize {
        let v = self.num_vars;
        self.num_vars += 1;
        v
    }

    /// Number of variables (highest mentioned index + 1).
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses.
    #[must_use]
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// The normalized clause list.
    #[must_use]
    pub fn clauses(&self) -> &[Vec<Lit>] {
        &self.clauses
    }

    /// Adds a clause (empty allowed: it makes the formula unsatisfiable).
    ///
    /// The clause is normalized: literals sorted and deduplicated, and a
    /// tautology (`x OR NOT x`) is silently dropped. Variables beyond the
    /// current count grow the formula.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        let mut c = lits.to_vec();
        c.sort_unstable();
        c.dedup();
        // After sorting by packed code, the two polarities of a variable
        // are adjacent — a tautological clause is always satisfied and
        // would only slow the solver down.
        if c.windows(2).any(|w| w[0].var() == w[1].var()) {
            return;
        }
        if let Some(last) = c.last() {
            if last.var() >= self.num_vars {
                self.num_vars = last.var() + 1;
            }
        }
        self.clauses.push(c);
    }

    /// Constrains at most `k` of `lits` to be true, using Sinz's
    /// sequential-counter (LTSeq) encoding: `O(n*k)` auxiliary variables
    /// and clauses, with full arc consistency under unit propagation.
    pub fn add_at_most_k(&mut self, lits: &[Lit], k: usize) {
        let n = lits.len();
        if k >= n {
            return;
        }
        if k == 0 {
            for &l in lits {
                self.add_clause(&[l.negated()]);
            }
            return;
        }
        // s[i][j]: "at least j+1 of lits[0..=i] are true" (i < n-1).
        let s: Vec<Vec<usize>> = (0..n - 1)
            .map(|_| (0..k).map(|_| self.new_var()).collect())
            .collect();
        self.add_clause(&[lits[0].negated(), Lit::pos(s[0][0])]);
        for &sj in s[0].iter().skip(1) {
            self.add_clause(&[Lit::neg(sj)]);
        }
        for i in 1..n - 1 {
            self.add_clause(&[lits[i].negated(), Lit::pos(s[i][0])]);
            self.add_clause(&[Lit::neg(s[i - 1][0]), Lit::pos(s[i][0])]);
            for j in 1..k {
                self.add_clause(&[
                    lits[i].negated(),
                    Lit::neg(s[i - 1][j - 1]),
                    Lit::pos(s[i][j]),
                ]);
                self.add_clause(&[Lit::neg(s[i - 1][j]), Lit::pos(s[i][j])]);
            }
            self.add_clause(&[lits[i].negated(), Lit::neg(s[i - 1][k - 1])]);
        }
        self.add_clause(&[lits[n - 1].negated(), Lit::neg(s[n - 2][k - 1])]);
    }

    /// Renders the formula in DIMACS CNF format.
    #[must_use]
    pub fn to_dimacs(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "p cnf {} {}", self.num_vars, self.clauses.len());
        for c in &self.clauses {
            for &l in c {
                let _ = write!(out, "{} ", l.to_dimacs());
            }
            let _ = writeln!(out, "0");
        }
        out
    }

    /// Parses DIMACS CNF text. Comment lines (`c ...`) and the problem
    /// line (`p cnf V C`) are accepted anywhere before the clauses they
    /// describe; clause literal lists may span lines and are terminated
    /// by `0`. Oversized inputs (more than 2^20 variables or 2^23
    /// literals) are rejected rather than allocated.
    pub fn parse_dimacs(text: &str) -> Result<Cnf, SatParseError> {
        let mut cnf = Cnf::new();
        let mut declared_vars: Option<usize> = None;
        let mut current: Vec<Lit> = Vec::new();
        let mut total_lits = 0usize;
        let mut last_line = 0usize;
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            last_line = lineno;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('c') || line.starts_with('%') {
                continue;
            }
            if let Some(rest) = line.strip_prefix('p') {
                let mut parts = rest.split_whitespace();
                if parts.next() != Some("cnf") {
                    return Err(SatParseError {
                        line: lineno,
                        message: "problem line is not 'p cnf V C'".into(),
                    });
                }
                let nv: usize = parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| SatParseError {
                        line: lineno,
                        message: "missing or invalid variable count".into(),
                    })?;
                if nv > MAX_DIMACS_VARS {
                    return Err(SatParseError {
                        line: lineno,
                        message: format!("variable count {nv} exceeds the parse limit"),
                    });
                }
                declared_vars = Some(nv);
                continue;
            }
            for tok in line.split_whitespace() {
                let x: i64 = tok.parse().map_err(|_| SatParseError {
                    line: lineno,
                    message: format!("invalid literal token {tok:?}"),
                })?;
                if x == 0 {
                    cnf.add_clause(&current);
                    current.clear();
                    continue;
                }
                let lit = Lit::from_dimacs(x).ok_or_else(|| SatParseError {
                    line: lineno,
                    message: format!("literal {x} outside the accepted range"),
                })?;
                total_lits += 1;
                if total_lits > MAX_DIMACS_LITS {
                    return Err(SatParseError {
                        line: lineno,
                        message: "literal count exceeds the parse limit".into(),
                    });
                }
                current.push(lit);
            }
        }
        if !current.is_empty() {
            return Err(SatParseError {
                line: last_line,
                message: "unterminated clause (missing trailing 0)".into(),
            });
        }
        if let Some(nv) = declared_vars {
            if nv > cnf.num_vars {
                cnf.num_vars = nv;
            }
        }
        Ok(cnf)
    }
}

/// Monotonic counters reported by [`Solver::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SatStats {
    /// Branching decisions made.
    pub decisions: u64,
    /// Implied assignments produced by unit propagation.
    pub propagations: u64,
    /// Conflicts analyzed.
    pub conflicts: u64,
    /// Clauses learned (conflicts whose first-UIP clause was recorded).
    pub learned: u64,
    /// Search restarts.
    pub restarts: u64,
}

impl SatStats {
    /// Accumulates another run's counters into this one.
    pub fn absorb(&mut self, other: SatStats) {
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.conflicts += other.conflicts;
        self.learned += other.learned;
        self.restarts += other.restarts;
    }
}

/// The result of a [`Solver::solve`] call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SatOutcome {
    /// Satisfiable; the model assigns every variable.
    Sat(Vec<bool>),
    /// Proven unsatisfiable.
    Unsat,
    /// Undecided: the budget ran out (or a chaos fault fired), or the
    /// solver's own conflict limit was reached.
    Unknown,
}

impl SatOutcome {
    /// `true` for [`SatOutcome::Sat`].
    #[must_use]
    pub fn is_sat(&self) -> bool {
        matches!(self, SatOutcome::Sat(_))
    }

    /// The model, when satisfiable.
    #[must_use]
    pub fn model(&self) -> Option<&[bool]> {
        match self {
            SatOutcome::Sat(m) => Some(m),
            _ => None,
        }
    }
}

/// A conflict-driven clause-learning SAT solver.
///
/// Deliberately small but honest CDCL: two-literal watches, first-UIP
/// learning, VSIDS-style variable activities, phase saving, and geometric
/// restarts. Deterministic — no randomization, no wall-clock reads — so
/// identical inputs give identical searches at any thread count.
pub struct Solver {
    clauses: Vec<Vec<Lit>>,
    watches: Vec<Vec<u32>>,
    /// Per-variable assignment: 0 unknown, 1 true, -1 false.
    assign: Vec<i8>,
    level: Vec<u32>,
    /// Reason clause index, or -1 for decisions / unit enqueues.
    reason: Vec<i32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    phase: Vec<bool>,
    seen: Vec<bool>,
    analyze_scratch: Vec<Lit>,
    /// Binary max-heap of candidate branch variables ordered by activity
    /// (ties break toward the lower index), with per-variable positions
    /// for decrease-key. Assigned variables are removed lazily on pop.
    order_heap: Vec<u32>,
    order_pos: Vec<i32>,
    stats: SatStats,
    conflict_limit: Option<u64>,
    root_conflict: bool,
}

/// Truth value of `l` under `assign` (0 unknown, 1 true, -1 false).
fn value_of(assign: &[i8], l: Lit) -> i8 {
    let a = assign.get(l.var()).copied().unwrap_or(0);
    if l.is_pos() {
        a
    } else {
        -a
    }
}

impl Solver {
    /// Builds a solver for `cnf`. Unit clauses are enqueued at the root
    /// level immediately; an empty clause (or contradictory units) makes
    /// the first [`Solver::solve`] return [`SatOutcome::Unsat`] outright.
    #[must_use]
    pub fn from_cnf(cnf: &Cnf) -> Solver {
        let nvars = cnf.num_vars();
        let mut s = Solver {
            clauses: Vec::with_capacity(cnf.num_clauses()),
            watches: vec![Vec::new(); 2 * nvars],
            assign: vec![0; nvars],
            level: vec![0; nvars],
            reason: vec![-1; nvars],
            trail: Vec::with_capacity(nvars),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: vec![0.0; nvars],
            var_inc: 1.0,
            phase: vec![false; nvars],
            seen: vec![false; nvars],
            analyze_scratch: Vec::new(),
            order_heap: (0..nvars as u32).collect(),
            order_pos: (0..nvars as i32).collect(),
            stats: SatStats::default(),
            conflict_limit: None,
            root_conflict: false,
        };
        for clause in cnf.clauses() {
            match clause.len() {
                0 => s.root_conflict = true,
                1 => {
                    if !s.enqueue(clause[0], -1) {
                        s.root_conflict = true;
                    }
                }
                _ => {
                    let ci = s.clauses.len() as u32;
                    s.watches[clause[0].index()].push(ci);
                    s.watches[clause[1].index()].push(ci);
                    s.clauses.push(clause.clone());
                }
            }
        }
        s
    }

    /// Caps the number of conflicts this solver will analyze before giving
    /// up with [`SatOutcome::Unknown`]. The cap is internal and
    /// deterministic: reaching it does **not** exhaust the external
    /// budget, so a portfolio member using it still reports `Complete`.
    pub fn set_conflict_limit(&mut self, limit: Option<u64>) {
        self.conflict_limit = limit;
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> SatStats {
        self.stats
    }

    /// Runs the CDCL search to completion, budget exhaustion, or the
    /// conflict limit. One unit of work is charged at [`SAT_TICK`] per
    /// decision and per conflict; a failed tick (exhaustion or an injected
    /// chaos fault) returns [`SatOutcome::Unknown`] immediately.
    pub fn solve(&mut self, budget: &Budget) -> SatOutcome {
        let span = obs::current_or(budget.recorder()).span("sat.solve");
        let _cur = obs::enter(span.recorder());
        let before = self.stats;
        let out = self.search(budget);
        obs::count(
            obs::Counter::SatDecisions,
            self.stats.decisions - before.decisions,
        );
        obs::count(
            obs::Counter::SatPropagations,
            self.stats.propagations - before.propagations,
        );
        obs::count(
            obs::Counter::SatConflicts,
            self.stats.conflicts - before.conflicts,
        );
        out
    }

    fn search(&mut self, budget: &Budget) -> SatOutcome {
        if self.root_conflict {
            return SatOutcome::Unsat;
        }
        let mut restart_limit: u64 = 128;
        let mut conflicts_at_restart: u64 = self.stats.conflicts;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                if !budget.tick(SAT_TICK, 1) {
                    return SatOutcome::Unknown;
                }
                if let Some(limit) = self.conflict_limit {
                    if self.stats.conflicts >= limit {
                        return SatOutcome::Unknown;
                    }
                }
                if self.trail_lim.is_empty() {
                    self.root_conflict = true;
                    return SatOutcome::Unsat;
                }
                let (learnt, blevel) = self.analyze(confl);
                self.cancel_until(blevel);
                self.record(learnt);
                self.var_inc /= 0.95;
                if self.stats.conflicts - conflicts_at_restart >= restart_limit {
                    conflicts_at_restart = self.stats.conflicts;
                    restart_limit = restart_limit.saturating_mul(2);
                    self.stats.restarts += 1;
                    self.cancel_until(0);
                }
            } else if let Some(v) = self.pick_branch_var() {
                self.stats.decisions += 1;
                if !budget.tick(SAT_TICK, 1) {
                    return SatOutcome::Unknown;
                }
                self.trail_lim.push(self.trail.len());
                let l = if self.phase[v] { Lit::pos(v) } else { Lit::neg(v) };
                let _ = self.enqueue(l, -1);
            } else {
                return SatOutcome::Sat(self.assign.iter().map(|&a| a == 1).collect());
            }
        }
    }

    fn enqueue(&mut self, l: Lit, reason: i32) -> bool {
        match value_of(&self.assign, l) {
            1 => true,
            -1 => false,
            _ => {
                let v = l.var();
                self.assign[v] = if l.is_pos() { 1 } else { -1 };
                self.level[v] = self.trail_lim.len() as u32;
                self.reason[v] = reason;
                self.trail.push(l);
                true
            }
        }
    }

    /// Unit propagation over the two-watch scheme; returns the conflicting
    /// clause index, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let fl = p.negated();
            let mut ws = std::mem::take(&mut self.watches[fl.index()]);
            let mut kept = 0usize;
            let mut i = 0usize;
            let mut conflict = None;
            while i < ws.len() {
                let ci = ws[i];
                i += 1;
                // Inspect the clause under disjoint field borrows; decide
                // what to do, then act after the borrow ends.
                enum Step {
                    Keep,
                    Moved(Lit),
                    Imply(Lit),
                    Conflict,
                }
                let step = {
                    let c = &mut self.clauses[ci as usize];
                    if c[0] == fl {
                        c.swap(0, 1);
                    }
                    if value_of(&self.assign, c[0]) == 1 {
                        Step::Keep
                    } else {
                        let mut found = usize::MAX;
                        for (k, &cand) in c.iter().enumerate().skip(2) {
                            if value_of(&self.assign, cand) != -1 {
                                found = k;
                                break;
                            }
                        }
                        if found != usize::MAX {
                            c.swap(1, found);
                            Step::Moved(c[1])
                        } else if value_of(&self.assign, c[0]) == 0 {
                            Step::Imply(c[0])
                        } else {
                            Step::Conflict
                        }
                    }
                };
                match step {
                    Step::Keep => {
                        ws[kept] = ci;
                        kept += 1;
                    }
                    Step::Moved(w) => {
                        self.watches[w.index()].push(ci);
                    }
                    Step::Imply(first) => {
                        self.stats.propagations += 1;
                        let _ = self.enqueue(first, ci as i32);
                        ws[kept] = ci;
                        kept += 1;
                    }
                    Step::Conflict => {
                        // Keep this and every unprocessed watch, stop
                        // propagating, and report the conflict.
                        ws[kept] = ci;
                        kept += 1;
                        while i < ws.len() {
                            ws[kept] = ws[i];
                            kept += 1;
                            i += 1;
                        }
                        conflict = Some(ci);
                    }
                }
            }
            // Moved watches only go to non-false literals, never to `fl`, so
            // its slot is still the empty `Vec` `take` left: put the list
            // back, allocation and all, instead of appending a copy.
            ws.truncate(kept);
            debug_assert!(
                self.watches[fl.index()].is_empty(),
                "watch pushed onto a false literal"
            );
            self.watches[fl.index()] = ws;
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
            }
        }
        None
    }

    /// First-UIP conflict analysis: returns the learned clause (asserting
    /// literal first, a backjump-level literal second) and the backtrack
    /// level.
    fn analyze(&mut self, conflict: u32) -> (Vec<Lit>, usize) {
        let mut learnt: Vec<Lit> = vec![Lit::pos(0)]; // slot 0: the UIP
        let current = self.trail_lim.len() as u32;
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut ci = conflict as i32;
        let mut index = self.trail.len();
        let mut scratch = std::mem::take(&mut self.analyze_scratch);
        loop {
            scratch.clear();
            if ci >= 0 {
                if let Some(c) = self.clauses.get(ci as usize) {
                    scratch.extend_from_slice(c);
                }
            }
            let start = usize::from(p.is_some());
            for &q in &scratch[start..] {
                let v = q.var();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump(v);
                    if self.level[v] >= current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk the trail backwards to the next marked literal.
            let mut next = None;
            while index > 0 {
                index -= 1;
                let l = self.trail[index];
                if self.seen[l.var()] {
                    next = Some(l);
                    break;
                }
            }
            let Some(pl) = next else { break };
            let v = pl.var();
            p = Some(pl);
            ci = self.reason[v];
            self.seen[v] = false;
            counter = counter.saturating_sub(1);
            if counter == 0 {
                break;
            }
        }
        self.analyze_scratch = scratch;
        if let Some(uip) = p {
            learnt[0] = uip.negated();
        } else {
            // Defensive: malformed analysis state; learn nothing useful
            // but stay consistent by backtracking one level.
            learnt.truncate(1);
            learnt[0] = Lit::pos(0);
        }
        // Backjump to the second-highest decision level in the clause and
        // put one literal of that level at slot 1 (the second watch).
        let mut blevel = 0u32;
        let mut pos = 1usize;
        for (k, &l) in learnt.iter().enumerate().skip(1) {
            if self.level[l.var()] > blevel {
                blevel = self.level[l.var()];
                pos = k;
            }
        }
        if learnt.len() > 1 {
            learnt.swap(1, pos);
        }
        for &l in &learnt {
            self.seen[l.var()] = false;
        }
        (learnt, blevel as usize)
    }

    fn cancel_until(&mut self, blevel: usize) {
        while self.trail_lim.len() > blevel {
            let lim = self.trail_lim.pop().unwrap_or(0);
            while self.trail.len() > lim {
                if let Some(l) = self.trail.pop() {
                    let v = l.var();
                    self.phase[v] = l.is_pos();
                    self.assign[v] = 0;
                    self.reason[v] = -1;
                    self.order_insert(v);
                }
            }
        }
        self.qhead = self.trail.len();
    }

    /// Installs a learned clause and asserts its first literal.
    fn record(&mut self, learnt: Vec<Lit>) {
        let Some(&l0) = learnt.first() else { return };
        if learnt.len() == 1 {
            let _ = self.enqueue(l0, -1);
        } else {
            self.stats.learned += 1;
            let ci = self.clauses.len() as u32;
            self.watches[learnt[0].index()].push(ci);
            self.watches[learnt[1].index()].push(ci);
            self.clauses.push(learnt);
            let _ = self.enqueue(l0, ci as i32);
        }
    }

    fn bump(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        let pos = self.order_pos[v];
        if pos >= 0 {
            self.sift_up(pos as usize);
        }
    }

    /// Heap priority: higher activity first, lower index on ties — the
    /// same order the original linear scan produced, at `O(log n)`.
    fn order_before(&self, a: u32, b: u32) -> bool {
        let (aa, ab) = (self.activity[a as usize], self.activity[b as usize]);
        aa > ab || (aa == ab && a < b)
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            let (v, pv) = (self.order_heap[i], self.order_heap[parent]);
            if !self.order_before(v, pv) {
                break;
            }
            self.order_heap.swap(i, parent);
            self.order_pos[v as usize] = parent as i32;
            self.order_pos[pv as usize] = i as i32;
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < self.order_heap.len() && self.order_before(self.order_heap[l], self.order_heap[best]) {
                best = l;
            }
            if r < self.order_heap.len() && self.order_before(self.order_heap[r], self.order_heap[best]) {
                best = r;
            }
            if best == i {
                break;
            }
            let (v, bv) = (self.order_heap[i], self.order_heap[best]);
            self.order_heap.swap(i, best);
            self.order_pos[v as usize] = best as i32;
            self.order_pos[bv as usize] = i as i32;
            i = best;
        }
    }

    fn order_insert(&mut self, v: usize) {
        if self.order_pos[v] >= 0 {
            return;
        }
        self.order_pos[v] = self.order_heap.len() as i32;
        self.order_heap.push(v as u32);
        self.sift_up(self.order_heap.len() - 1);
    }

    /// Highest-activity unassigned variable (lowest index breaks ties),
    /// or `None` when the assignment is total. Assigned entries are
    /// discarded lazily as they surface.
    fn pick_branch_var(&mut self) -> Option<usize> {
        while let Some(&top) = self.order_heap.first() {
            let v = top as usize;
            // Pop the root: move the last leaf up and restore the heap.
            self.order_pos[v] = -1;
            if let Some(last) = self.order_heap.pop() {
                if !self.order_heap.is_empty() {
                    self.order_heap[0] = last;
                    self.order_pos[last as usize] = 0;
                    self.sift_down(0);
                }
            }
            if self.assign[v] == 0 {
                return Some(v);
            }
        }
        None
    }
}

/// An untyped face-constrained encoding instance: `n` symbols to place
/// injectively on the `nv`-cube, with each `groups[c]` requiring an SOP
/// cover (member codes on, other symbols' codes off, unused vertices
/// don't-care).
///
/// This deliberately mirrors `GroupConstraint` without depending on the
/// constraints crate: the logic layer stays a leaf, and the typed
/// `ExactOracle` in `picola-sat` does the translation.
#[derive(Clone, Debug)]
pub struct FaceProblem {
    /// Number of symbols.
    pub n: usize,
    /// Code length in bits.
    pub nv: usize,
    /// Constraint groups as member-index lists (callers should pass only
    /// non-trivial groups; indices `>= n` are ignored defensively).
    pub groups: Vec<Vec<usize>>,
}

/// The compiled CNF for a [`FaceProblem`] at a specific cube bound, with
/// enough bookkeeping to decode models back into codes and covers.
#[derive(Clone, Debug)]
pub struct FaceCnf {
    /// The formula.
    pub cnf: Cnf,
    /// The bound it was compiled at.
    pub bound: usize,
    code: Vec<Vec<usize>>,
    sel: Vec<Vec<usize>>,
    free: Vec<Vec<Vec<usize>>>,
    val: Vec<Vec<Vec<usize>>>,
}

impl FaceProblem {
    /// Compiles the instance into CNF: satisfiable iff some injective
    /// encoding admits per-group covers totalling at most `bound` cubes.
    #[must_use]
    pub fn compile(&self, bound: usize) -> FaceCnf {
        let n = self.n;
        let nv = self.nv;
        let mut cnf = Cnf::new();
        let code: Vec<Vec<usize>> = (0..n)
            .map(|_| (0..nv).map(|_| cnf.new_var()).collect())
            .collect();
        let mut out = FaceCnf {
            cnf,
            bound,
            code,
            sel: Vec::new(),
            free: Vec::new(),
            val: Vec::new(),
        };
        // More symbols than vertices: no injective map exists.
        if nv >= usize::BITS as usize || n > (1usize << nv) {
            out.cnf.add_clause(&[]);
            return out;
        }
        // Symmetry breaking over the hypercube automorphism group:
        // complementation pins symbol 0 to the origin, bit permutation
        // then sorts symbol 1's bits into non-increasing order.
        if n > 0 {
            for b in 0..nv {
                out.cnf.add_clause(&[Lit::neg(out.code[0][b])]);
            }
        }
        if n > 1 {
            for b in 0..nv.saturating_sub(1) {
                out.cnf
                    .add_clause(&[Lit::pos(out.code[1][b]), Lit::neg(out.code[1][b + 1])]);
            }
        }
        // Injectivity: for every pair, some bit differs.
        for s in 0..n {
            for t in (s + 1)..n {
                let mut diff = Vec::with_capacity(nv);
                for b in 0..nv {
                    let d = out.cnf.new_var();
                    out.cnf.add_clause(&[
                        Lit::neg(d),
                        Lit::pos(out.code[s][b]),
                        Lit::pos(out.code[t][b]),
                    ]);
                    out.cnf.add_clause(&[
                        Lit::neg(d),
                        Lit::neg(out.code[s][b]),
                        Lit::neg(out.code[t][b]),
                    ]);
                    diff.push(Lit::pos(d));
                }
                out.cnf.add_clause(&diff);
            }
        }
        // Cube slots per group. A minimum cover never needs more cubes
        // than the group has members (singletons always work under
        // injectivity), nor more than the bound leaves after giving every
        // other group its mandatory first cube.
        let g_count = self.groups.len();
        let avail = (bound + 1).saturating_sub(g_count).max(1);
        let mut all_sel: Vec<Lit> = Vec::new();
        for g in &self.groups {
            let members: Vec<usize> = g.iter().copied().filter(|&s| s < n).collect();
            let m = members.len().max(1).min(avail);
            let mut sels = Vec::with_capacity(m);
            let mut frees = Vec::with_capacity(m);
            let mut vals = Vec::with_capacity(m);
            for j in 0..m {
                let sel = out.cnf.new_var();
                let free: Vec<usize> = (0..nv).map(|_| out.cnf.new_var()).collect();
                let val: Vec<usize> = (0..nv).map(|_| out.cnf.new_var()).collect();
                if j == 0 {
                    // Every (non-empty) group needs at least one cube.
                    if !members.is_empty() {
                        out.cnf.add_clause(&[Lit::pos(sel)]);
                    }
                } else {
                    // Selected slots form a prefix (slot-order symmetry).
                    out.cnf.add_clause(&[Lit::pos(sels[j - 1]), Lit::neg(sel)]);
                }
                // Exclusion: a selected cube contains no non-member code.
                // mm[b] asserts "bit b is fixed and symbol t differs there".
                for t in (0..n).filter(|t| !members.contains(t)) {
                    let mut mms = vec![Lit::neg(sel)];
                    for b in 0..nv {
                        let mm = out.cnf.new_var();
                        out.cnf.add_clause(&[Lit::neg(mm), Lit::neg(free[b])]);
                        out.cnf.add_clause(&[
                            Lit::neg(mm),
                            Lit::pos(out.code[t][b]),
                            Lit::pos(val[b]),
                        ]);
                        out.cnf.add_clause(&[
                            Lit::neg(mm),
                            Lit::neg(out.code[t][b]),
                            Lit::neg(val[b]),
                        ]);
                        mms.push(Lit::pos(mm));
                    }
                    out.cnf.add_clause(&mms);
                }
                all_sel.push(Lit::pos(sel));
                sels.push(sel);
                frees.push(free);
                vals.push(val);
            }
            // Coverage: each member's code lies inside some selected cube.
            // cov asserts "cube j is selected and matches s on every
            // fixed bit".
            for &s in &members {
                let mut covs = Vec::with_capacity(m);
                for j in 0..m {
                    let cov = out.cnf.new_var();
                    out.cnf.add_clause(&[Lit::neg(cov), Lit::pos(sels[j])]);
                    for b in 0..nv {
                        out.cnf.add_clause(&[
                            Lit::neg(cov),
                            Lit::pos(frees[j][b]),
                            Lit::neg(out.code[s][b]),
                            Lit::pos(vals[j][b]),
                        ]);
                        out.cnf.add_clause(&[
                            Lit::neg(cov),
                            Lit::pos(frees[j][b]),
                            Lit::pos(out.code[s][b]),
                            Lit::neg(vals[j][b]),
                        ]);
                    }
                    covs.push(Lit::pos(cov));
                }
                out.cnf.add_clause(&covs);
            }
            out.sel.push(sels);
            out.free.push(frees);
            out.val.push(vals);
        }
        out.cnf.add_at_most_k(&all_sel, bound);
        out
    }
}

impl FaceCnf {
    /// Decodes a model into the per-symbol codes.
    #[must_use]
    pub fn decode_codes(&self, model: &[bool]) -> Vec<u32> {
        self.code
            .iter()
            .map(|bits| {
                let mut c = 0u32;
                for (b, &v) in bits.iter().enumerate() {
                    if model.get(v).copied().unwrap_or(false) {
                        c |= 1 << b;
                    }
                }
                c
            })
            .collect()
    }

    /// Decodes a model into per-group covers: each selected cube as a
    /// `(fixed_mask, value)` pair — code `c` lies inside iff
    /// `c & fixed_mask == value`.
    #[must_use]
    pub fn decode_covers(&self, model: &[bool]) -> Vec<Vec<(u32, u32)>> {
        let on = |v: usize| model.get(v).copied().unwrap_or(false);
        self.sel
            .iter()
            .zip(self.free.iter().zip(&self.val))
            .map(|(sels, (frees, vals))| {
                let mut cubes = Vec::new();
                for (j, &sel) in sels.iter().enumerate() {
                    if !on(sel) {
                        continue;
                    }
                    let mut mask = 0u32;
                    let mut value = 0u32;
                    for b in 0..frees[j].len() {
                        if !on(frees[j][b]) {
                            mask |= 1 << b;
                            if on(vals[j][b]) {
                                value |= 1 << b;
                            }
                        }
                    }
                    cubes.push((mask, value));
                }
                cubes
            })
            .collect()
    }

    /// Total number of selected cubes in a model.
    #[must_use]
    pub fn selected_cubes(&self, model: &[bool]) -> usize {
        self.decode_covers(model).iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(cnf: &Cnf) -> SatOutcome {
        Solver::from_cnf(cnf).solve(&Budget::unlimited())
    }

    #[test]
    fn empty_formula_is_sat() {
        assert!(solve(&Cnf::new()).is_sat());
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut cnf = Cnf::new();
        cnf.add_clause(&[]);
        assert_eq!(solve(&cnf), SatOutcome::Unsat);
    }

    #[test]
    fn contradictory_units_are_unsat() {
        let mut cnf = Cnf::new();
        let v = cnf.new_var();
        cnf.add_clause(&[Lit::pos(v)]);
        cnf.add_clause(&[Lit::neg(v)]);
        assert_eq!(solve(&cnf), SatOutcome::Unsat);
    }

    #[test]
    fn simple_implication_chain_is_sat() {
        let mut cnf = Cnf::new();
        let vars: Vec<usize> = (0..8).map(|_| cnf.new_var()).collect();
        cnf.add_clause(&[Lit::pos(vars[0])]);
        for w in vars.windows(2) {
            cnf.add_clause(&[Lit::neg(w[0]), Lit::pos(w[1])]);
        }
        match solve(&cnf) {
            SatOutcome::Sat(model) => {
                for &v in &vars {
                    assert!(model[v], "chain forces every variable true");
                }
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // h indexes every pigeon's row
    fn pigeonhole_3_into_2_is_unsat() {
        // 3 pigeons, 2 holes: p[i][h], each pigeon somewhere, no hole shared.
        let mut cnf = Cnf::new();
        let p: Vec<Vec<usize>> = (0..3)
            .map(|_| (0..2).map(|_| cnf.new_var()).collect())
            .collect();
        for row in &p {
            cnf.add_clause(&[Lit::pos(row[0]), Lit::pos(row[1])]);
        }
        for h in 0..2 {
            for i in 0..3 {
                for j in (i + 1)..3 {
                    cnf.add_clause(&[Lit::neg(p[i][h]), Lit::neg(p[j][h])]);
                }
            }
        }
        assert_eq!(solve(&cnf), SatOutcome::Unsat);
    }

    #[test]
    fn at_most_k_counts_correctly() {
        for k in 0..=4usize {
            let mut cnf = Cnf::new();
            let vars: Vec<usize> = (0..4).map(|_| cnf.new_var()).collect();
            let lits: Vec<Lit> = vars.iter().map(|&v| Lit::pos(v)).collect();
            cnf.add_at_most_k(&lits, k);
            // Force exactly k+1 true when possible: must be UNSAT.
            if k < 4 {
                let mut over = cnf.clone();
                for &v in vars.iter().take(k + 1) {
                    over.add_clause(&[Lit::pos(v)]);
                }
                assert_eq!(solve(&over), SatOutcome::Unsat, "k={k}: k+1 true");
            }
            // Exactly k true must be SAT.
            let mut exact = cnf.clone();
            for (i, &v) in vars.iter().enumerate() {
                if i < k {
                    exact.add_clause(&[Lit::pos(v)]);
                } else {
                    exact.add_clause(&[Lit::neg(v)]);
                }
            }
            assert!(solve(&exact).is_sat(), "k={k}: exactly k true");
        }
    }

    #[test]
    fn dimacs_round_trip_is_identity() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        let b = cnf.new_var();
        let c = cnf.new_var();
        cnf.add_clause(&[Lit::pos(a), Lit::neg(b)]);
        cnf.add_clause(&[Lit::neg(a), Lit::pos(b), Lit::pos(c)]);
        cnf.add_clause(&[Lit::neg(c)]);
        let text = cnf.to_dimacs();
        let back = Cnf::parse_dimacs(&text).expect("round trip parses");
        assert_eq!(back, cnf);
    }

    #[test]
    fn dimacs_rejects_garbage() {
        assert!(Cnf::parse_dimacs("p cnf x y").is_err());
        assert!(Cnf::parse_dimacs("1 2 potato 0").is_err());
        assert!(Cnf::parse_dimacs("1 2 3").is_err(), "unterminated clause");
        assert!(Cnf::parse_dimacs("p cnf 99999999 1").is_err());
    }

    #[test]
    fn budget_exhaustion_returns_unknown() {
        // A formula with enough search that a zero-work budget cannot
        // finish: the first decision tick fails.
        let mut cnf = Cnf::new();
        let vars: Vec<usize> = (0..6).map(|_| cnf.new_var()).collect();
        for i in 0..vars.len() {
            for j in (i + 1)..vars.len() {
                cnf.add_clause(&[Lit::pos(vars[i]), Lit::pos(vars[j])]);
            }
        }
        let budget = Budget::with_work_limit(0);
        let mut solver = Solver::from_cnf(&cnf);
        assert_eq!(solver.solve(&budget), SatOutcome::Unknown);
        assert!(budget.is_exhausted());
    }

    #[test]
    fn chaos_fault_returns_unknown() {
        let _guard = crate::chaos::arm(SAT_TICK, 0);
        let mut cnf = Cnf::new();
        let v = cnf.new_var();
        let w = cnf.new_var();
        cnf.add_clause(&[Lit::pos(v), Lit::pos(w)]);
        let budget = Budget::unlimited();
        let mut solver = Solver::from_cnf(&cnf);
        assert_eq!(solver.solve(&budget), SatOutcome::Unknown);
        assert!(budget.is_exhausted(), "injected fault latches the budget");
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // h indexes every pigeon's row
    fn conflict_limit_returns_unknown_without_exhausting() {
        // Pigeonhole 4->3 needs more than one conflict.
        let mut cnf = Cnf::new();
        let p: Vec<Vec<usize>> = (0..4)
            .map(|_| (0..3).map(|_| cnf.new_var()).collect())
            .collect();
        for row in &p {
            let lits: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
            cnf.add_clause(&lits);
        }
        for h in 0..3 {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    cnf.add_clause(&[Lit::neg(p[i][h]), Lit::neg(p[j][h])]);
                }
            }
        }
        let budget = Budget::unlimited();
        let mut solver = Solver::from_cnf(&cnf);
        solver.set_conflict_limit(Some(1));
        assert_eq!(solver.solve(&budget), SatOutcome::Unknown);
        assert!(!budget.is_exhausted(), "internal cap leaves the budget alone");
    }

    #[test]
    fn face_problem_single_group_embeds_as_one_cube() {
        // 4 symbols on the 2-cube, group {0,1}: one cube suffices.
        let p = FaceProblem {
            n: 4,
            nv: 2,
            groups: vec![vec![0, 1]],
        };
        let fc = p.compile(1);
        let mut solver = Solver::from_cnf(&fc.cnf);
        match solver.solve(&Budget::unlimited()) {
            SatOutcome::Sat(model) => {
                let codes = fc.decode_codes(&model);
                let mut sorted = codes.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), 4, "codes are distinct: {codes:?}");
                let covers = fc.decode_covers(&model);
                assert_eq!(covers.len(), 1);
                assert_eq!(covers[0].len(), 1);
                let (mask, value) = covers[0][0];
                assert_eq!(codes[0] & mask, value);
                assert_eq!(codes[1] & mask, value);
                assert_ne!(codes[2] & mask, value);
                assert_ne!(codes[3] & mask, value);
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn face_problem_overfull_domain_is_unsat() {
        let p = FaceProblem {
            n: 5,
            nv: 2,
            groups: vec![],
        };
        let fc = p.compile(0);
        assert_eq!(solve(&fc.cnf), SatOutcome::Unsat);
    }

    #[test]
    fn face_problem_bound_below_group_count_is_unsat() {
        let p = FaceProblem {
            n: 8,
            nv: 3,
            groups: vec![vec![0, 1], vec![2, 3]],
        };
        assert_eq!(solve(&p.compile(1).cnf), SatOutcome::Unsat);
        assert!(solve(&p.compile(2).cnf).is_sat());
    }
}
