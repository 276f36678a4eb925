//! Streaming sharded counting vs the in-memory engine: time *and*
//! bounded-memory evidence on the survey's counting core.
//!
//! One cell = one k = 16 sharded survey (u128 keys) over uniform d = 2
//! points at n = 10⁵ and 10⁶, across shard sizes from aggressive
//! (16384 rows/shard) to lazy (262144), with `inmem` (shard-rows 0: the
//! whole database as one shard) as the reference row.  d = 2 keeps the
//! distinct count far below n, so the runs show the streaming trade
//! honestly: the counter's working set is one shard of keys plus a
//! frontier summary of one key and one `u64` occupancy per distinct
//! permutation, instead of all n keys.
//!
//! The `peak_kib_*` rows encode the measured high-water working set of
//! a [`ShardedCounter`] drive over the same keys — reported through the
//! benchmark's throughput column (KiB as "elements") rather than a
//! side-channel file, so the JSON baseline carries the memory story
//! next to the time story.
//!
//! Set `CRITERION_JSON=BENCH_sharded.json` to append machine-readable
//! medians; the committed baseline was recorded that way.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dp_core::{survey_database_flat_sharded, SurveyConfig};
use dp_datasets::vectors::uniform_unit_cube_flat;
use dp_metric::{L2Squared, TransposedSites};
use dp_permutation::compute::packed_keys_flat;
use dp_permutation::ShardedCounter;
use std::hint::black_box;

const DIM: usize = 2;
const K: usize = 16;
const SHARDS: [usize; 3] = [16_384, 65_536, 262_144];

/// High-water working set of the streaming counter in KiB: the shard
/// key buffer plus the peak frontier summary, priced at one `u128` key
/// and one `u64` occupancy per distinct permutation.
fn peak_working_set_kib(keys: &[u128], shard_rows: usize) -> u64 {
    let mut counter = ShardedCounter::<u128>::new(K, shard_rows);
    for &key in keys {
        counter.insert_key(key);
    }
    counter.flush();
    let buffered = shard_rows.min(keys.len()) * std::mem::size_of::<u128>();
    let entry_bytes = std::mem::size_of::<u128>() + std::mem::size_of::<u64>();
    let frontier = counter.peak_frontier_entries() * entry_bytes;
    ((buffered + frontier) / 1024) as u64
}

fn bench_sharded(c: &mut Criterion) {
    for n in [100_000usize, 1_000_000] {
        let db = uniform_unit_cube_flat(n, DIM, 1);
        let sites = uniform_unit_cube_flat(K, DIM, 2);
        let sites_t = TransposedSites::from_rows(sites.as_flat(), DIM);
        let cfg = SurveyConfig { ks: vec![K], ..Default::default() };
        let mut group = c.benchmark_group(format!("sharded_survey_n{n}_k{K}_d{DIM}"));
        group.sample_size(10);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function("inmem", |b| {
            b.iter(|| {
                black_box(
                    survey_database_flat_sharded(&L2Squared, &db, &cfg, 1, 0).per_k[0]
                        .report
                        .distinct,
                )
            });
        });
        for shard_rows in SHARDS {
            group.bench_function(format!("shard{shard_rows}"), |b| {
                b.iter(|| {
                    black_box(
                        survey_database_flat_sharded(&L2Squared, &db, &cfg, 1, shard_rows).per_k[0]
                            .report
                            .distinct,
                    )
                });
            });
        }
        // Memory rows: the measured peak working set, encoded as KiB in
        // the throughput column (the time per "iteration" is just the
        // counter drive and is not the statistic of interest).
        let keys: Vec<u128> = packed_keys_flat(&L2Squared, &sites_t, db.as_flat());
        let inmem_kib = (keys.len() * std::mem::size_of::<u128>() / 1024) as u64;
        group.throughput(Throughput::Elements(inmem_kib));
        group.bench_function("peak_kib_inmem", |b| b.iter(|| black_box(keys.len())));
        for shard_rows in SHARDS {
            let kib = peak_working_set_kib(&keys, shard_rows);
            group.throughput(Throughput::Elements(kib));
            group.bench_function(format!("peak_kib_shard{shard_rows}"), |b| {
                b.iter(|| black_box(peak_working_set_kib(&keys, shard_rows)));
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_sharded);
criterion_main!(benches);
