//! The work-stealing batch scheduler behind every serving entry point.
//!
//! `steal_map` is the only code in the serving stack that splits a
//! batch across threads.  Workers claim the next `chunk` query indices
//! with one atomic add on a shared cursor and go back for more, so a
//! skewed batch — budgeted queries whose per-query cost varies wildly
//! (see "Cardinality of Balls in Permutation Spaces", Dinu & Zara, on
//! why candidate-set sizes spread so far) — cannot strand a worker idle
//! behind a statically assigned heavy share.  Each worker keeps one warm
//! [`crate::Searcher`] session, and results come back in query order
//! whichever worker served them.  Chunk 1 gives the best balance; a
//! chunk of `queries.div_ceil(threads)` is contiguous chunking.
//!
//! The strict entry points ([`crate::serve::query_batch`] and its
//! parallel and budgeted forms) serve each query plainly: a panicking
//! query takes the batch down, and the caller sees that query's own
//! panic.  [`serve_resilient`] serves each query through the robustness
//! layers, in order:
//!
//! 1. **deadline**: once the batch's soft deadline has passed, the
//!    request downgrades to its budgeted form at the batch's degrade
//!    fraction;
//! 2. **panic isolation** ([`super::isolate`]): the query (and any
//!    injected fault) runs under `catch_unwind`; a panic becomes
//!    [`Outcome::Failed`] and the worker's searcher is rebuilt;
//! 3. **determinism**: the scheduler's query-order merge makes the
//!    zero-fault, no-deadline path bit-identical to
//!    [`crate::serve::query_batch_parallel`] at any thread count and any
//!    chunk size.

use crate::api::{ApproxSearcher, ProximityIndex};
use crate::serve::deadline::{BatchReport, Outcome, ServeRequest};
use crate::serve::isolate::{run_guarded, FaultPlan, QueryError};
use crate::serve::{run_one, run_one_approx};
use std::borrow::Borrow;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Tuning and policy knobs for one resiliently served batch.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Worker threads (clamped to `[1, queries]`; `<= 1` runs inline).
    pub threads: usize,
    /// Soft deadline after which remaining queries degrade
    /// (`None` = never).
    pub soft_deadline: Option<Duration>,
    /// Scan fraction served once the deadline has expired.
    pub degrade_frac: f64,
    /// Query indices claimed per cursor bump.  1 (the default) gives
    /// the best balance; larger values trade balance for fewer atomic
    /// operations.  `queries.div_ceil(threads)` reproduces contiguous
    /// chunking.
    pub steal_chunk: usize,
}

impl Default for BatchOptions {
    fn default() -> Self {
        Self { threads: 1, soft_deadline: None, degrade_frac: 0.25, steal_chunk: 1 }
    }
}

impl BatchOptions {
    /// Default options at `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        Self { threads, ..Self::default() }
    }

    /// Sets the soft deadline.
    pub fn deadline(mut self, soft: Duration) -> Self {
        self.soft_deadline = Some(soft);
        self
    }

    /// Sets the degrade fraction.
    ///
    /// # Panics
    /// Panics if `frac` is outside `[0, 1]`.
    pub fn degrade(mut self, frac: f64) -> Self {
        // dplint: allow(panic-boundary, reason = "documented precondition on the
        // operator-facing builder, caught at configuration time — never reachable
        // from query traffic, which min-clamps frac in the protocol layer")
        assert!((0.0..=1.0).contains(&frac), "degrade frac must be in [0,1], got {frac}");
        self.degrade_frac = frac;
        self
    }

    /// Sets the steal-chunk size (0 is treated as 1).
    pub fn chunk(mut self, steal_chunk: usize) -> Self {
        self.steal_chunk = steal_chunk;
        self
    }
}

/// Serves every query of a batch with `serve(searcher, i, query)`, `i`
/// being the query's position in the batch, on `threads` work-stealing
/// workers and returns the results in query order.
///
/// The worker count is clamped to `[1, queries]`; one worker runs inline
/// without spawning.  Workers claim `chunk` indices (0 is treated as 1)
/// per cursor bump and keep one searcher each.  A panic in `serve` is
/// resumed on the caller's thread with its original payload.
pub(crate) fn steal_map<'i, P, Q, I, T, F>(
    index: &'i I,
    queries: &[Q],
    threads: usize,
    chunk: usize,
    serve: F,
) -> Vec<T>
where
    P: ?Sized,
    Q: Borrow<P> + Sync,
    I: ProximityIndex<P>,
    T: Send,
    F: Fn(&mut I::Searcher<'i>, usize, &P) -> T + Sync,
{
    let n = queries.len();
    let workers = threads.clamp(1, n.max(1));
    let chunk = chunk.max(1);
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut searcher = index.searcher();
        let mut out = Vec::new();
        loop {
            // ordering: Relaxed suffices — the cursor only partitions indices
            // into disjoint claims (the add is atomic at every ordering);
            // no other memory is published through it.  Results flow back
            // through the join handles, whose joins provide all the
            // happens-before edges the merge needs.
            let lo = cursor.fetch_add(chunk, Ordering::Relaxed);
            if lo >= n {
                return out;
            }
            let hi = n.min(lo + chunk);
            for (i, query) in (lo..hi).zip(&queries[lo..hi]) {
                out.push((i, serve(&mut searcher, i, query.borrow())));
            }
        }
    };

    let mut tagged = if workers == 1 {
        work()
    } else {
        crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(|_| work())).collect();
            let mut tagged = Vec::with_capacity(n);
            for handle in handles {
                // A worker panics only when `serve` does (the strict entry
                // points' contract) or the index cannot build a searcher:
                // re-raise it with the query's own payload.
                tagged.extend(handle.join().unwrap_or_else(|payload| resume_unwind(payload)));
            }
            tagged
        })
        .unwrap_or_else(|payload| resume_unwind(payload))
    };

    tagged.sort_unstable_by_key(|&(i, _)| i);
    debug_assert!(tagged.iter().enumerate().all(|(pos, &(i, _))| pos == i));
    // dplint: allow(panic-boundary, reason = "totality guard: the scheduler's own
    // contract is one result per query — a miscount is a bug in this function,
    // not servable input, and must not reach clients as a silent short batch")
    assert_eq!(tagged.len(), n, "every query must produce exactly one result");
    tagged.into_iter().map(|(_, result)| result).collect()
}

/// Serves a batch through work-stealing workers with panic isolation
/// and deadline-aware degradation; `request_of(i)` names each query's
/// request, so heterogeneous batches (mixed k-NN/range/budgets) are
/// first-class.
///
/// Outcomes are returned in query order.  With an empty [`FaultPlan`]
/// and no soft deadline every outcome is [`Outcome::Ok`] and the
/// responses are **bit-identical** to
/// [`crate::serve::query_batch_parallel`] /
/// [`crate::serve::query_batch_parallel_approx`] over the same
/// requests, at any thread count and chunk size — enforced by the
/// release-mode robustness suite.  Query-level failures never panic;
/// an index that cannot even build a searcher still does, because
/// nothing can be served without a session.
pub fn serve_resilient<'i, P, Q, I, RF>(
    index: &'i I,
    queries: &[Q],
    request_of: RF,
    options: &BatchOptions,
    faults: &FaultPlan,
) -> BatchReport<I::Dist>
where
    P: ?Sized,
    Q: Borrow<P> + Sync,
    I: ProximityIndex<P>,
    I::Searcher<'i>: ApproxSearcher<P>,
    RF: Fn(usize) -> ServeRequest<I::Dist> + Sync,
{
    let start = Instant::now();
    let deadline = options.soft_deadline.map(|soft| start + soft);
    let serve = |searcher: &mut I::Searcher<'i>, i: usize, query: &P| {
        let request = request_of(i);
        let degraded = deadline
            .is_some_and(|at| Instant::now() >= at)
            .then(|| request.degraded(options.degrade_frac));
        let attempt = run_guarded(|| {
            if !faults.is_empty() {
                faults.fire(i);
            }
            match (&degraded, request) {
                (Some(req), _) => run_one_approx(searcher, query, *req),
                (None, ServeRequest::Exact(req)) => run_one(searcher, query, req),
                (None, ServeRequest::Approx(req)) => run_one_approx(searcher, query, req),
            }
        });
        match (attempt, degraded) {
            (Ok(response), Some(req)) => Outcome::Degraded { response, frac: req.frac() },
            (Ok(response), None) => Outcome::Ok(response),
            (Err(message), _) => {
                // The session's scratch may be mid-mutation; discard it and
                // start the next query from a fresh cursor.
                *searcher = index.searcher();
                Outcome::Failed(QueryError { index: i, message })
            }
        }
    };
    let outcomes = steal_map(index, queries, options.threads, options.steal_chunk, serve);
    BatchReport { outcomes, elapsed: start.elapsed() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laesa::PivotSelection;
    use crate::serve::{query_batch_parallel, query_batch_parallel_approx, ApproxRequest, Request};
    use crate::DistPermIndex;
    use dp_metric::L2;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_points(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| (0..d).map(|_| rng.random::<f64>()).collect()).collect()
    }

    #[test]
    fn stealing_matches_contiguous_bit_for_bit() {
        let pts = random_points(300, 3, 1);
        let idx = DistPermIndex::build(L2, pts, 8, PivotSelection::MaxMin);
        let queries = random_points(29, 3, 2);
        let request = Request::Knn { k: 4 };
        let baseline = query_batch_parallel(&idx, &queries, request, 2);
        for threads in [1usize, 2, 5, 64] {
            for chunk in [1usize, 3, 29, 1000] {
                let report = serve_resilient(
                    &idx,
                    &queries,
                    |_| ServeRequest::Exact(request),
                    &BatchOptions::with_threads(threads).chunk(chunk),
                    &FaultPlan::none(),
                );
                assert_eq!(
                    report.ok_responses().expect("clean batch"),
                    baseline,
                    "threads={threads} chunk={chunk}"
                );
            }
        }
    }

    #[test]
    fn injected_panics_become_failed_outcomes() {
        let pts = random_points(200, 2, 3);
        let idx = DistPermIndex::build(L2, pts, 6, PivotSelection::MaxMin);
        let queries = random_points(17, 2, 4);
        let request = Request::Knn { k: 2 };
        let baseline = query_batch_parallel(&idx, &queries, request, 1);
        let faults = FaultPlan::none().panic_on_all([0, 7, 16]);
        for threads in [1usize, 3] {
            let report = serve_resilient(
                &idx,
                &queries,
                |_| ServeRequest::Exact(request),
                &BatchOptions::with_threads(threads),
                &faults,
            );
            assert_eq!(report.failed(), 3);
            for (i, outcome) in report.outcomes.iter().enumerate() {
                if [0, 7, 16].contains(&i) {
                    let err = outcome.error().expect("failed slot");
                    assert_eq!(err.index, i);
                    assert!(err.message.contains("injected fault"), "{err}");
                } else {
                    assert_eq!(outcome.response().expect("served"), &baseline[i], "query {i}");
                }
            }
        }
    }

    #[test]
    fn expired_deadline_degrades_every_query() {
        let pts = random_points(400, 3, 5);
        let idx = DistPermIndex::build(L2, pts, 8, PivotSelection::MaxMin);
        let queries = random_points(13, 3, 6);
        let request = Request::Knn { k: 3 };
        // The deadline has expired at dispatch: every query downgrades
        // to the budgeted path, deterministically.
        let options = BatchOptions::with_threads(2).deadline(Duration::ZERO).degrade(0.2);
        let report = serve_resilient(
            &idx,
            &queries,
            |_| ServeRequest::Exact(request),
            &options,
            &FaultPlan::none(),
        );
        assert_eq!(report.degraded(), queries.len());
        let expected =
            query_batch_parallel_approx(&idx, &queries, ApproxRequest::Knn { k: 3, frac: 0.2 }, 1);
        for (i, outcome) in report.outcomes.iter().enumerate() {
            match outcome {
                Outcome::Degraded { response, frac } => {
                    assert_eq!(*frac, 0.2);
                    assert_eq!(response, &expected[i], "query {i}");
                }
                other => panic!("query {i}: expected degraded, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_batch_yields_empty_report() {
        let pts = random_points(50, 2, 7);
        let idx = DistPermIndex::build(L2, pts, 4, PivotSelection::MaxMin);
        let queries: Vec<Vec<f64>> = Vec::new();
        let report = serve_resilient(
            &idx,
            &queries,
            |_| ServeRequest::Exact(Request::Knn { k: 1 }),
            &BatchOptions::with_threads(8),
            &FaultPlan::none(),
        );
        assert!(report.outcomes.is_empty());
        assert_eq!(report.ok_responses(), Some(Vec::new()));
    }

    #[test]
    fn heterogeneous_requests_serve_per_query() {
        let pts = random_points(150, 2, 8);
        let idx = DistPermIndex::build(L2, pts, 5, PivotSelection::MaxMin);
        let queries = random_points(6, 2, 9);
        let requests: Vec<ServeRequest<_>> = (0..queries.len())
            .map(|i| {
                if i % 2 == 0 {
                    ServeRequest::Exact(Request::Knn { k: 1 + i })
                } else {
                    ServeRequest::Approx(ApproxRequest::Knn { k: 2, frac: 0.3 })
                }
            })
            .collect();
        let report = serve_resilient(
            &idx,
            &queries,
            |i| requests[i],
            &BatchOptions::with_threads(3),
            &FaultPlan::none(),
        );
        for (i, outcome) in report.outcomes.iter().enumerate() {
            let (neighbors, stats) = outcome.response().expect("served");
            let (expected, expected_stats) = match requests[i] {
                ServeRequest::Exact(Request::Knn { k }) => idx.query_knn(&queries[i], k),
                ServeRequest::Approx(ApproxRequest::Knn { k, frac }) => {
                    use crate::api::ApproxIndex;
                    idx.query_knn_approx(&queries[i], k, frac)
                }
                _ => unreachable!(),
            };
            assert_eq!(neighbors, &expected, "query {i}");
            assert_eq!(stats, &expected_stats, "query {i}");
        }
    }

    #[test]
    #[should_panic(expected = "injected fault")]
    fn strict_stealing_wrapper_propagates_failures() {
        // A strict caller of the resilient engine has no isolation
        // surface: a failure in the engine must surface as a panic, not
        // silently drop a query.
        let pts = random_points(40, 2, 10);
        let idx = DistPermIndex::build(L2, pts, 4, PivotSelection::MaxMin);
        let queries = random_points(3, 2, 11);
        let report = serve_resilient(
            &idx,
            &queries,
            |_| ServeRequest::Exact(Request::Knn { k: 1 }),
            &BatchOptions::default(),
            &FaultPlan::none().panic_on(1),
        );
        // Simulate a strict caller's unwrap on a faulted report.
        if report.ok_responses().is_none() {
            let first = report.outcomes.iter().find_map(Outcome::error).expect("failed");
            panic!("{first}");
        }
    }
}
