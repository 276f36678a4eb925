//! The index paths: `distperm build` (build + save), the store load,
//! `distperm search --load` over a mixed query set, the single-query
//! costs of one searcher session, and the reference answers every
//! served answer is checked against.

use crate::report::Checks;
use crate::{FRAC, INDEX_K, KNN, THREADS};
use dp_datasets::VectorSet;
use dp_index::serve::{query_batch_parallel_approx, ApproxRequest, Response};
use dp_index::{ApproxSearcher, FlatDistPermIndex, LinearScan, Neighbor, PivotSelection, Searcher};
use dp_metric::{F64Dist, L2};
use dp_store::StoredIndex;
use std::fmt::Write as _;
use std::path::Path;

/// Queries per mix unit, and per serve batch: one exact 3-NN, six
/// budgeted 3-NN and one budgeted range query.
pub const MIX: usize = 8;

/// Which neighbours the range radius is sized to reach (before the
/// budget cuts the scan), so a budgeted range returns tens of points.
const RANGE_RANK: usize = 40;

/// Query classes of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Exact,
    Approx,
    Range,
}

impl Class {
    pub fn of(query: usize) -> Self {
        match query % MIX {
            0 => Class::Exact,
            7 => Class::Range,
            _ => Class::Approx,
        }
    }
}

/// The generated query set with its range radius and the answers the
/// freshly built index gives.
pub struct Traffic {
    pub queries: VectorSet,
    pub radius: f64,
    /// Reference answer per query, from the built (not loaded) index.
    pub answers: Vec<Response<F64Dist>>,
    /// Each query as one protocol line.
    pub lines: Vec<String>,
    /// Each query's expected `ok` reply payload (after `ok <i> `).
    pub replies: Vec<String>,
}

impl Traffic {
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Rows of one class among the first `queries`, with their positions.
    pub fn class_rows(&self, class: Class, queries: usize) -> (Vec<usize>, Vec<&[f64]>) {
        (0..queries).filter(|&i| Class::of(i) == class).map(|i| (i, self.queries.row(i))).unzip()
    }
}

/// Builds the index the way `distperm build --k 12 --threads 2` does.
pub fn build(points: VectorSet) -> FlatDistPermIndex<L2> {
    FlatDistPermIndex::build(L2, points, INDEX_K, PivotSelection::MaxMin, THREADS)
}

/// The `distperm build` path after load: build, then save the store.
/// Returns the store size in bytes.
pub fn build_and_save(points: VectorSet, path: &Path) -> (FlatDistPermIndex<L2>, u64) {
    let index = build(points);
    let bytes = dp_store::save_store(&index, path).expect("store file is writable");
    (index, bytes)
}

/// Unwraps a loaded store as the L2 index it was saved as.
pub fn as_l2(stored: StoredIndex) -> Option<FlatDistPermIndex<L2>> {
    match stored {
        StoredIndex::L2(index) => Some(index),
        _ => None,
    }
}

/// Median distance from the first few range-class queries to their
/// [`RANGE_RANK`]-th nearest point, by brute force.
fn range_radius(points: &VectorSet, queries: &VectorSet) -> f64 {
    use dp_metric::Metric;
    let sample: Vec<usize> =
        (0..queries.len()).filter(|&i| Class::of(i) == Class::Range).take(9).collect();
    let radii: Vec<f64> = sample
        .iter()
        .map(|&q| {
            let mut d: Vec<f64> =
                points.rows().map(|row| L2.distance(queries.row(q), row).get()).collect();
            let rank = RANGE_RANK.min(d.len()) - 1;
            *d.select_nth_unstable_by(rank, f64::total_cmp).1
        })
        .collect();
    crate::stats::median(&radii)
}

/// One query through one searcher session, as the serve session runs
/// it.
pub fn answer(
    session: &mut dp_index::FlatDistPermSearcher<'_, L2>,
    class: Class,
    query: &[f64],
    radius: f64,
) -> Response<F64Dist> {
    match class {
        Class::Exact => Searcher::knn(session, query, KNN),
        Class::Approx => ApproxSearcher::knn_approx(session, query, KNN, FRAC),
        Class::Range => ApproxSearcher::range_approx(session, query, F64Dist::new(radius), FRAC),
    }
}

/// The `ok` reply payload the serve session writes for `response`.
pub fn reply_payload(response: &Response<F64Dist>) -> String {
    let (neighbors, stats) = response;
    let mut s = format!("evals={}", stats.metric_evals);
    for n in neighbors {
        let _ = write!(s, " {}:{}", n.id, n.dist);
    }
    s
}

/// Generates the traffic for `index`: queries, the range radius, the
/// protocol lines and the reference answers.
pub fn traffic(index: &FlatDistPermIndex<L2>, queries: VectorSet) -> Traffic {
    let radius = range_radius(index.points(), &queries);
    let mut session = index.session();
    let answers: Vec<Response<F64Dist>> = (0..queries.len())
        .map(|i| answer(&mut session, Class::of(i), queries.row(i), radius))
        .collect();
    let lines =
        (0..queries.len()).map(|i| query_line(Class::of(i), queries.row(i), radius)).collect();
    let replies = answers.iter().map(reply_payload).collect();
    Traffic { queries, radius, answers, lines, replies }
}

/// One protocol query line.  `{}` prints the shortest decimal that
/// parses back to the same `f64`, so the server sees the exact query.
fn query_line(class: Class, point: &[f64], radius: f64) -> String {
    let mut s = match class {
        Class::Exact => format!("knn {KNN}"),
        Class::Approx => format!("knn {KNN} frac={FRAC}"),
        Class::Range => format!("range {radius} frac={FRAC}"),
    };
    for x in point {
        let _ = write!(s, " {x}");
    }
    s
}

/// Checks a sample of exact answers against a brute-force
/// [`LinearScan`].
pub fn check_against_linear_scan(
    checks: &mut Checks,
    points: &VectorSet,
    traffic: &Traffic,
    sample: usize,
) {
    let scan = LinearScan::new(L2, points.to_nested());
    for i in (0..traffic.len()).filter(|&i| Class::of(i) == Class::Exact).take(sample) {
        let brute: Vec<Neighbor<F64Dist>> = scan.knn(&traffic.queries.row(i).to_vec(), KNN);
        checks.check(brute == traffic.answers[i].0, || {
            format!("query {i}: exact answer differs from a linear scan")
        });
    }
}

/// The `distperm search --load` path over the first `queries` queries
/// of the mix: one `query_batch_parallel_approx` call per query class
/// (exact as the full budget).  Returns responses in query order.
pub fn search(
    index: &FlatDistPermIndex<L2>,
    traffic: &Traffic,
    queries: usize,
) -> Vec<Response<F64Dist>> {
    let mut out: Vec<Option<Response<F64Dist>>> = vec![None; queries];
    let radius = F64Dist::new(traffic.radius);
    for (class, request) in [
        (Class::Exact, ApproxRequest::Knn { k: KNN, frac: 1.0 }),
        (Class::Approx, ApproxRequest::Knn { k: KNN, frac: FRAC }),
        (Class::Range, ApproxRequest::Range { radius, frac: FRAC }),
    ] {
        let (ids, rows) = traffic.class_rows(class, queries);
        let responses = query_batch_parallel_approx(index, &rows, request, THREADS);
        for (i, r) in ids.into_iter().zip(responses) {
            out[i] = Some(r);
        }
    }
    out.into_iter().map(|r| r.expect("every query class was served")).collect()
}

/// Counts answers that differ from the reference.
pub fn mismatches(got: &[Response<F64Dist>], traffic: &Traffic) -> u64 {
    got.iter().zip(&traffic.answers).filter(|(a, b)| a != b).count() as u64
}
