//! Parallel batch-serving throughput over the flat distperm engine.
//!
//! Measures `serve::query_batch_parallel` on a [`FlatDistPermIndex`] at
//! 1 vs N worker threads — the ROADMAP's "thread-parallel query serving"
//! baseline.  Every serving entry point runs on one work-stealing
//! scheduler: one searcher session per worker, queries claimed one at a
//! time off a shared cursor, deterministic output; the property suite
//! guarantees every thread count returns bit-identical answers, so this
//! bench is purely about wall-clock.
//!
//! Record the baseline with:
//! `CRITERION_JSON=BENCH_serving.json cargo bench -p dp-bench --bench serving`
//!
//! Note: the speedup at N threads is bounded by the cores the machine
//! actually grants; on a single-core container all rows collapse to ~1×.

use criterion::{criterion_group, criterion_main, Criterion};
use dp_datasets::uniform_unit_cube_flat;
use dp_index::laesa::PivotSelection;
use dp_index::serve::{
    query_batch_parallel, serve_resilient, ApproxRequest, BatchOptions, FaultPlan, Request,
    ServeRequest,
};
use dp_index::FlatDistPermIndex;
use dp_metric::L2;
use std::hint::black_box;

const N: usize = 20_000;
const D: usize = 8;
const K: usize = 12;
const BATCH: usize = 64;

fn bench_serving(c: &mut Criterion) {
    let points = uniform_unit_cube_flat(N, D, 1);
    let queries = uniform_unit_cube_flat(BATCH, D, 2);
    let index = FlatDistPermIndex::build(L2, points, K, PivotSelection::MaxMin, 4);
    let rows: Vec<&[f64]> = queries.rows().collect();

    let mut group = c.benchmark_group(format!("serve_knn3_n{N}_batch{BATCH}"));
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_function(format!("threads_{threads}"), |b| {
            b.iter(|| {
                black_box(query_batch_parallel::<[f64], _, _>(
                    &index,
                    &rows,
                    Request::Knn { k: 3 },
                    threads,
                ))
            });
        });
    }
    group.finish();
}

/// Work-stealing vs contiguous chunking on a cost-skewed batch: one
/// query in eight carries a full scan budget, the rest are cheap.  Both
/// rows run the same scheduler through `BatchOptions::chunk`: chunk 1
/// steals one query per cursor bump, and chunk ⌈n/threads⌉ hands each
/// worker one contiguous run, which strands whole runs behind the
/// expensive queries.  Run single-threaded the two are equivalent, so
/// the gap only opens with real cores (see the single-core note above).
fn bench_serving_steal(c: &mut Criterion) {
    const STEAL_BATCH: usize = 128;
    const THREADS: usize = 4;
    let points = uniform_unit_cube_flat(N, D, 3);
    let queries = uniform_unit_cube_flat(STEAL_BATCH, D, 4);
    let index = FlatDistPermIndex::build(L2, points, K, PivotSelection::MaxMin, 4);
    let rows: Vec<&[f64]> = queries.rows().collect();
    // Skew: every eighth query scans the full database, the rest 2%.
    let request_of = |i: usize| {
        let frac = if i.is_multiple_of(8) { 1.0 } else { 0.02 };
        ServeRequest::Approx(ApproxRequest::Knn { k: 3, frac })
    };

    let mut group = c.benchmark_group(format!("serve_steal_skewed_batch{STEAL_BATCH}"));
    group.sample_size(10);
    // Contiguous chunking: one cursor bump claims a worker-sized run.
    let contiguous = STEAL_BATCH.div_ceil(THREADS);
    for (label, chunk) in [("stealing_chunk1", 1), ("contiguous", contiguous)] {
        let options = BatchOptions::with_threads(THREADS).chunk(chunk);
        group.bench_function(label, |b| {
            b.iter(|| {
                black_box(serve_resilient::<[f64], _, _, _>(
                    &index,
                    &rows,
                    request_of,
                    &options,
                    &FaultPlan::none(),
                ))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_serving, bench_serving_steal);
criterion_main!(benches);
