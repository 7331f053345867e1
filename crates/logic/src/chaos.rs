//! Deterministic fault injection for robustness tests.
//!
//! A *chaos plan* names one trigger point and a hit count; once armed (per
//! thread), the `n`-th time execution reaches that point the fault fires:
//! [`crate::budget::Budget::tick`] reports exhaustion with
//! [`crate::budget::ExhaustReason::Injected`], and the hardened parsers
//! return an injected parse error. Tests use this to drive every
//! degradation path deterministically — no timing dependence, no
//! hoping a tiny real budget happens to run out in the right place.
//!
//! The harness is compiled in unconditionally but designed for tests: the
//! disarmed fast path is a single thread-local flag read plus one relaxed
//! atomic load, and plans are thread-local so parallel test threads cannot
//! interfere. Production callers simply never arm a plan.
//!
//! Parallel-portfolio tests need faults that fire **inside worker
//! threads** the test did not create; [`arm_global`] installs a
//! process-wide plan for that. Global plans are a shared resource — tests
//! that arm one must serialize among themselves.
//!
//! ```
//! use picola_logic::budget::Budget;
//! use picola_logic::chaos;
//!
//! let _guard = chaos::arm("espresso.iter", 0);
//! let budget = Budget::unlimited();
//! assert!(!budget.tick("espresso.iter", 1)); // fault fires immediately
//! assert!(budget.is_exhausted());
//! ```

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Every trigger point registered across the workspace.
///
/// Algorithm points are reached through [`crate::budget::Budget::tick`];
/// parser points through [`fail_point`]. The cross-crate chaos test arms
/// each of these in turn and asserts that (a) the fault fires and (b) no
/// public API panics.
pub const TRIGGER_POINTS: &[&str] = &[
    // picola-logic
    "espresso.iter",
    "exact.primes",
    "exact.node",
    "pla.parse",
    "mvpla.parse",
    // picola-logic: CDCL SAT core (ticked on every decision and every
    // conflict, so both satisfiable and unsatisfiable searches are
    // budget-responsive and chaos-reachable)
    "sat.conflict",
    // picola-fsm
    "kiss.parse",
    // picola-core
    "picola.column",
    "picola.refine",
    // picola-baselines
    "anneal.move",
    "nova.place",
    "nova.improve",
    "enc.eval",
    // picola-logic: the minimization memo, per run or shared (shard
    // treated as poisoned — the lookup/insert is bypassed and the call
    // degrades to an honest miss)
    "cache.shard",
    // picola-server: job lifecycle faults (worker panic mid-job, socket
    // dropped mid-response, admission control reporting a full queue).
    // These fire through `fail_point`/`should_fire` in the server crate,
    // not through Budget::tick; tests/server_lifecycle.rs sweeps them.
    "server.worker",
    "server.socket",
    "server.queue",
    // picola-core: content-addressed result store I/O (a lookup or an
    // append to the store's log fails as if the disk did). A firing
    // lookup degrades to an honest counted miss and a firing insert is
    // skipped — results are recomputed, never invented. Swept in
    // tests/server_lifecycle.rs and the bench crate's store suite.
    "store.io",
];

struct Plan {
    point: &'static str,
    /// Hits remaining before the fault fires.
    countdown: Cell<u64>,
    /// Times the fault has fired.
    fired: Cell<u64>,
}

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static PLAN: RefCell<Option<Plan>> = const { RefCell::new(None) };
}

/// Process-wide plan for faults that must fire in worker threads the
/// arming test never sees (parallel portfolio members). Countdown and
/// fire count live under the mutex; the flag keeps the disarmed fast
/// path lock-free.
struct GlobalPlan {
    point: &'static str,
    countdown: u64,
    fired: u64,
}

static GLOBAL_ARMED: AtomicBool = AtomicBool::new(false);
static GLOBAL_PLAN: Mutex<Option<GlobalPlan>> = Mutex::new(None);

/// Disarms the active plan when dropped, so a panicking test cannot leak
/// chaos into the next test on the same thread (or, for global plans,
/// into other tests in the process).
#[must_use]
pub struct ChaosGuard {
    global: bool,
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        if self.global {
            disarm_global();
        } else {
            disarm();
        }
    }
}

/// Arms a plan on this thread: after `after` further hits of `point`, every
/// subsequent hit fires the fault. `after = 0` fires on the first hit.
///
/// `point` must be one of [`TRIGGER_POINTS`] — arming a name that no code
/// path reports would silently test nothing, so unknown names panic (this
/// is a test-only API).
#[allow(clippy::panic)] // documented contract: test-only API, fails loudly
pub fn arm(point: &str, after: u64) -> ChaosGuard {
    let point = lookup_point(point);
    PLAN.with(|p| {
        *p.borrow_mut() = Some(Plan {
            point,
            countdown: Cell::new(after),
            fired: Cell::new(0),
        });
    });
    ARMED.with(|a| a.set(true));
    ChaosGuard { global: false }
}

/// Arms a **process-wide** plan: after `after` further hits of `point` on
/// *any* thread, every subsequent hit fires the fault. Use this to inject
/// faults into parallel portfolio workers the test thread never touches.
///
/// Only one global plan exists per process; tests arming one must
/// serialize among themselves (a shared `Mutex` in the test module is the
/// usual pattern). Unknown points panic, as with [`arm`].
pub fn arm_global(point: &str, after: u64) -> ChaosGuard {
    let point = lookup_point(point);
    if let Ok(mut plan) = GLOBAL_PLAN.lock() {
        *plan = Some(GlobalPlan {
            point,
            countdown: after,
            fired: 0,
        });
    }
    GLOBAL_ARMED.store(true, Ordering::Relaxed);
    ChaosGuard { global: true }
}

#[allow(clippy::panic)] // documented contract: test-only API, fails loudly
fn lookup_point(point: &str) -> &'static str {
    TRIGGER_POINTS
        .iter()
        .find(|&&p| p == point)
        .unwrap_or_else(|| panic!("chaos::arm: unknown trigger point {point:?}"))
}

/// Disarms any active plan on this thread.
pub fn disarm() {
    ARMED.with(|a| a.set(false));
    PLAN.with(|p| *p.borrow_mut() = None);
}

/// Disarms the process-wide plan, if any.
pub fn disarm_global() {
    GLOBAL_ARMED.store(false, Ordering::Relaxed);
    if let Ok(mut plan) = GLOBAL_PLAN.lock() {
        *plan = None;
    }
}

/// Times the thread-local armed plan has fired (0 when disarmed).
pub fn times_fired() -> u64 {
    PLAN.with(|p| p.borrow().as_ref().map_or(0, |plan| plan.fired.get()))
}

/// Times the process-wide plan has fired, summed over all threads
/// (0 when disarmed).
pub fn global_times_fired() -> u64 {
    GLOBAL_PLAN
        .lock()
        .ok()
        .and_then(|plan| plan.as_ref().map(|p| p.fired))
        .unwrap_or(0)
}

/// Reports reaching `point`; returns `true` when the armed plan says the
/// fault fires here. Called by [`crate::budget::Budget::tick`] and by the
/// parser fail points; the disarmed fast path is one flag read.
pub fn should_fire(point: &str) -> bool {
    if ARMED.with(|a| a.get()) && local_should_fire(point) {
        return true;
    }
    GLOBAL_ARMED.load(Ordering::Relaxed) && global_should_fire(point)
}

fn local_should_fire(point: &str) -> bool {
    PLAN.with(|p| {
        let plan = p.borrow();
        let Some(plan) = plan.as_ref() else {
            return false;
        };
        if plan.point != point {
            return false;
        }
        let remaining = plan.countdown.get();
        if remaining > 0 {
            plan.countdown.set(remaining - 1);
            false
        } else {
            plan.fired.set(plan.fired.get() + 1);
            true
        }
    })
}

fn global_should_fire(point: &str) -> bool {
    let Ok(mut guard) = GLOBAL_PLAN.lock() else {
        // A poisoned plan mutex means a test thread panicked mid-update;
        // fail safe by never firing rather than propagating the panic.
        return false;
    };
    let Some(plan) = guard.as_mut() else {
        return false;
    };
    if plan.point != point {
        return false;
    }
    if plan.countdown > 0 {
        plan.countdown -= 1;
        false
    } else {
        plan.fired += 1;
        true
    }
}

/// Parser-side fail point: `Some(message)` when an armed plan fires at
/// `point`, to be surfaced as a parse error.
pub fn fail_point(point: &str) -> Option<String> {
    if should_fire(point) {
        Some(format!("injected fault at {point}"))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_never_fires() {
        disarm();
        assert!(!should_fire("espresso.iter"));
        assert_eq!(times_fired(), 0);
        assert!(fail_point("pla.parse").is_none());
    }

    #[test]
    fn fires_after_countdown_and_keeps_firing() {
        let _guard = arm("exact.node", 2);
        assert!(!should_fire("exact.node"));
        assert!(!should_fire("exact.node"));
        assert!(should_fire("exact.node"));
        assert!(should_fire("exact.node"), "keeps firing once triggered");
        assert_eq!(times_fired(), 2);
    }

    #[test]
    fn other_points_are_unaffected() {
        let _guard = arm("exact.node", 0);
        assert!(!should_fire("espresso.iter"));
        assert!(should_fire("exact.node"));
    }

    #[test]
    fn guard_disarms_on_drop() {
        {
            let _guard = arm("kiss.parse", 0);
            assert!(fail_point("kiss.parse").is_some());
        }
        assert!(fail_point("kiss.parse").is_none());
    }

    #[test]
    #[should_panic(expected = "unknown trigger point")]
    fn unknown_points_are_rejected() {
        let _ = arm("no.such.point", 0);
    }

    #[test]
    fn global_plans_fire_on_other_threads() {
        // Uses a trigger point no other test in this crate reaches, so
        // running in parallel with the thread-local tests is safe.
        {
            let _guard = arm_global("anneal.move", 1);
            let fired_elsewhere = std::thread::spawn(|| {
                let first = should_fire("anneal.move"); // consumes countdown
                let second = should_fire("anneal.move");
                (first, second)
            })
            .join()
            .unwrap_or((true, false));
            assert_eq!(fired_elsewhere, (false, true));
            assert!(should_fire("anneal.move"), "keeps firing on any thread");
            assert_eq!(global_times_fired(), 2);
            assert_eq!(times_fired(), 0, "thread-local plan stays empty");
        }
        assert!(!should_fire("anneal.move"), "guard disarms the global plan");
        assert_eq!(global_times_fired(), 0);
    }
}
