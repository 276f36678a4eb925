//! Panic isolation for serving workers, plus the test-only fault hook.
//!
//! The resilient serving engine ([`crate::serve::serve_resilient`]) runs
//! every query under [`std::panic::catch_unwind`]: a panicking query —
//! a bug in an index, a poisoned scratch buffer, an injected fault —
//! becomes a structured [`QueryError`] in that query's slot instead of a
//! process death.  The worker's searcher session is treated as poisoned
//! after a caught panic and rebuilt from the index before the next
//! query, so one bad query cannot corrupt its successors.
//!
//! [`FaultPlan`] is the test hook that drives the robustness suite:
//! it injects panics and delays at chosen query indices so release-mode
//! tests can prove the serving loop survives everything a query can
//! throw at it.  A default (empty) plan is free: the hot path checks one
//! `is_empty` flag.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// A structured per-query failure: the query's batch index plus the
/// panic message that killed it.
///
/// This is the serving loop's replacement for a process death: the
/// query's slot in the batch carries the error, every other query's
/// answer is unaffected, and the connection stays up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryError {
    /// Index of the query within its batch.
    pub index: usize,
    /// The panic payload, rendered (`&str`/`String` payloads verbatim,
    /// anything else as an opaque marker).
    pub message: String,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for QueryError {}

/// Renders a panic payload as a one-line message.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f` under `catch_unwind`, mapping a panic to its message.
///
/// The closure is wrapped in [`AssertUnwindSafe`]: the engine's contract
/// is that state touched by a panicking closure (the searcher session)
/// is discarded and rebuilt, which is exactly the discipline that makes
/// the assertion sound.
pub(crate) fn run_guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(panic_message)
}

/// Test-only fault injection: panics and delays at chosen query indices.
///
/// The plan is consulted by the resilient engine *inside* the unwind
/// guard, so an injected panic exercises the real isolation machinery
/// end to end — capture, searcher rebuild, structured error reporting.
/// Production callers pass [`FaultPlan::none`] (the default), which the
/// engine detects and skips with a single branch.
///
/// This type exists for the robustness test suite and benchmarks; it is
/// not a serving feature.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    panics: BTreeSet<usize>,
    delays: BTreeMap<usize, Duration>,
}

impl FaultPlan {
    /// The empty plan: no injected faults (the production value).
    pub fn none() -> Self {
        Self::default()
    }

    /// Injects a panic when the query at `index` runs.
    pub fn panic_on(mut self, index: usize) -> Self {
        self.panics.insert(index);
        self
    }

    /// Injects panics at every index in `indices`.
    pub fn panic_on_all(mut self, indices: impl IntoIterator<Item = usize>) -> Self {
        self.panics.extend(indices);
        self
    }

    /// Sleeps for `delay` before running the query at `index` (for
    /// deadline tests: a slow query that pushes the batch past its soft
    /// deadline).
    pub fn delay_on(mut self, index: usize, delay: Duration) -> Self {
        self.delays.insert(index, delay);
        self
    }

    /// True iff the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.panics.is_empty() && self.delays.is_empty()
    }

    /// Fires the faults planned for query `index`: sleeps through any
    /// planned delay, then panics if a panic is planned.  Called inside
    /// the unwind guard.
    pub(crate) fn fire(&self, index: usize) {
        if let Some(&delay) = self.delays.get(&index) {
            std::thread::sleep(delay);
        }
        if self.panics.contains(&index) {
            panic!("injected fault at query {index}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guarded_success_passes_value_through() {
        assert_eq!(run_guarded(|| 41 + 1), Ok(42));
    }

    #[test]
    fn guarded_panic_yields_message() {
        let err = run_guarded(|| -> u32 { panic!("boom {}", 7) }).unwrap_err();
        assert_eq!(err, "boom 7");
        let err = run_guarded(|| -> u32 { panic!("static str") }).unwrap_err();
        assert_eq!(err, "static str");
    }

    #[test]
    fn fault_plan_fires_only_planned_indices() {
        let plan = FaultPlan::none().panic_on(3).panic_on_all([5, 9]);
        assert!(!plan.is_empty());
        assert!(run_guarded(|| plan.fire(0)).is_ok());
        let err = run_guarded(|| plan.fire(3)).unwrap_err();
        assert!(err.contains("injected fault at query 3"), "{err}");
    }

    #[test]
    fn empty_plan_is_default() {
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn query_error_displays_index_and_message() {
        let e = QueryError { index: 4, message: "kaput".into() };
        assert_eq!(e.to_string(), "query 4 panicked: kaput");
    }
}
