//! Streaming survey in bounded memory — the same report, a fraction of
//! the working set.
//!
//! By default the flat survey finalizes each worker's packed keys as
//! one shard.  `survey_database_flat_sharded` with a smaller
//! `shard_rows` bounds the shard instead: at most `shard_rows` keys are
//! buffered at once, and each full shard is radix-sorted, compacted to
//! its distinct keys and merged into a frontier summary holding one key
//! and one `u64` occupancy per *distinct* permutation.  Because merging
//! sorted multiset summaries is associative, the report — floats
//! included — is bit-identical to the one-shard engine; only the
//! working set changes.  This example runs both engines on the
//! same database, checks the reports render identically, and then
//! drives a [`ShardedCounter`] directly to show the measured high-water
//! working set next to the buffer-everything footprint.
//!
//! Run with: `cargo run --release --example sharded_survey`

use distance_permutations::core::survey_flat::survey_database_flat_sharded;
use distance_permutations::core::SurveyConfig;
use distance_permutations::datasets::vectors::uniform_unit_cube_flat;
use distance_permutations::metric::{TransposedSites, L2};
use distance_permutations::permutation::compute::packed_keys_flat;
use distance_permutations::permutation::ShardedCounter;

fn main() {
    let n = 200_000;
    let dim = 2;
    let k = 16;
    let shard_rows = 65_536;
    let db = uniform_unit_cube_flat(n, dim, 1);
    let config = SurveyConfig { ks: vec![k], seed: 7, rho_pairs: 10_000, reference: None };

    // shard_rows = 0 is one shard for the whole database; a smaller
    // value bounds the buffered keys without changing a single output
    // bit.
    let inmem = survey_database_flat_sharded(&L2, &db, &config, 1, 0);
    let sharded = survey_database_flat_sharded(&L2, &db, &config, 1, shard_rows);
    let (inmem_text, sharded_text) = (format!("{inmem}"), format!("{sharded}"));
    assert_eq!(inmem_text, sharded_text, "sharded survey must be bit-identical");
    println!("=== k = {k} survey of {n} uniform {dim}-D points (both engines agree) ===");
    println!("{inmem_text}");

    // The memory story, measured rather than asserted: drive the
    // streaming counter over the same keys and read its high-water mark.
    let sites = uniform_unit_cube_flat(k, dim, 2);
    let sites_t = TransposedSites::from_rows(sites.as_flat(), dim);
    let keys: Vec<u128> = packed_keys_flat(&L2, &sites_t, db.as_flat());
    let mut counter = ShardedCounter::<u128>::new(k, shard_rows);
    for &key in &keys {
        counter.insert_key(key);
    }
    counter.flush();
    let key_bytes = std::mem::size_of::<u128>();
    let entry_bytes = key_bytes + std::mem::size_of::<u64>();
    let buffered = shard_rows.min(keys.len()) * key_bytes;
    let frontier = counter.peak_frontier_entries() * entry_bytes;
    let summary = counter.finalize();
    println!("=== streaming counter working set (shard_rows = {shard_rows}) ===");
    println!("buffer-everything: {:>8} KiB ({n} keys)", keys.len() * key_bytes / 1024);
    println!(
        "sharded peak:      {:>8} KiB (one shard + {} distinct entries)",
        (buffered + frontier) / 1024,
        summary.distinct()
    );
}
