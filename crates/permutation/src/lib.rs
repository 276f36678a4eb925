//! # dp-permutation — distance-permutation machinery
//!
//! Implements the object at the centre of *Counting distance permutations*
//! (Skala, SISAP'08 / JDA 2009): given k fixed **sites** x₁…x_k in a metric
//! space, the **distance permutation** Π_y of a point y is the permutation
//! of site indices sorted by increasing distance from y, ties broken by
//! smaller site index (the paper's Definition, §1).
//!
//! ## The width-generic packed pipeline
//!
//! The flat engine's counting path never materialises a [`Permutation`]:
//! each database row becomes one **packed key** — a machine word whose
//! integer order is the permutations' lexicographic order
//! ([`key::PackedKey`], sealed over `u64` for k ≤ [`PACKED_MAX_K`] = 12
//! and `u128` for k ≤ [`WIDE_MAX_K`] = [`MAX_K`] = 32).  [`key`] holds
//! the encoding: 5-bit fields for k ≤ 25, the Lehmer rank
//! ([`lehmer::rank_items`]) for 26 ≤ k ≤ 32, since 32! < 2¹¹⁸.
//! Every stage is generic over that width and monomorphized once per
//! workload by [`for_packed_k!`], so the per-row loops carry no width
//! branches:
//!
//! 1. the batched kernels fuse ranking and packing per 4-row tile
//!    ([`compute::packed_keys_flat`] — one pairwise-halved compare
//!    schedule, dispatched to a constant-`k` instantiation so the whole
//!    accumulator tile is register-resident, folds each site's rank
//!    straight into the key lanes with no rank-array round-trip; tails
//!    of `n mod 4` rows run the same path on a padded tile);
//! 2. [`radix`] sorts the key buffer over its
//!    [`key::PackedKey::key_bits`] significant bits — LSD 12-bit-digit
//!    passes for `u64` (5 at k = 12), one MSD top-digit scatter plus
//!    per-bucket sorts for wide keys;
//! 3. [`counter::count_sorted_runs`] collapses the sorted runs into
//!    occupancies ([`counter::PackedPermutationCounter`] /
//!    [`counter::PackedCountSummary`] — the summary stores the distinct
//!    keys plus one `u64` occupancy each, never all n keys);
//! 4. [`encoding::PackedCodebook`] assigns lexicographic codebook ids
//!    straight off the sorted distinct keys — no hash table anywhere.
//!
//! Production counting runs steps 2–3 through one collector,
//! [`ShardedCounter`] ([`shard`]): it finalizes shards of at most
//! `shard_rows` keys and merges each shard's summary into a frontier
//! summary.  [`compute::collect_sharded_flat_parallel`] gives every
//! worker its own counter, its shard capped at the rows it scans, and
//! merges the worker summaries with the same merge — so one shard per
//! worker (`shard_rows = 0`, the default) and bounded shards
//! (`distperm count/survey --shard-rows`) are one code path.  Merging
//! sorted multiset summaries is associative, so the finalized summary —
//! and everything downstream of it, including the float Huffman/entropy
//! sums — is bit-identical to finalizing every key at once.
//!
//! The generic per-point path (strings, trees, any metric) counts
//! through the same packed counter: [`compute::collect_summary`] packs
//! each [`compute::DistPermComputer`] permutation into a key, and
//! [`compute::collect_summary_parallel`] merges per-worker summaries
//! with the flat engine's merge.  The stores ([`store`], [`huffman`])
//! build their codebook the same way.  So one counter and one codebook
//! serve every production path.
//!
//! The hash types ([`counter::PermutationCounter`],
//! [`encoding::Codebook`], [`counter::collect_counter`],
//! [`compute::collect_counter_flat`]) are on no production path: they
//! are the independent reference oracles the packed pipeline is pinned
//! bit-identical to (including floating-point Huffman/entropy sums) by
//! the equivalence suites.
//!
//! ## Everything else
//!
//! * [`Permutation`] — a compact, copyable permutation of up to
//!   [`MAX_K`] = 32 elements (the paper's experiments use k ≤ 12);
//! * [`compute::distance_permutation`] and the allocation-free
//!   [`compute::DistPermComputer`] for per-point scans, plus the batched
//!   flat-storage kernels [`compute::database_permutations_flat`] /
//!   [`compute::collect_counter_flat`] (site-transposed, block-resident,
//!   optionally parallel, bit-identical to the per-point path);
//! * [`lehmer`] — factorial-base ranking/unranking (k ≤ 33 fits in `u128`);
//! * [`permdist`] — Kendall tau, Spearman footrule and Spearman rho
//!   permutation distances (used by the `distperm`/iAESA index types for
//!   candidate ordering);
//! * [`encoding`] — bit-packed codes and the [`encoding::PackedCodebook`]
//!   realising the paper's storage claim: once only N distinct permutations
//!   occur, each element needs only ⌈log₂ N⌉ bits;
//! * [`store`] — random-access physical layouts: [`store::RawPermStore`]
//!   (k·⌈log₂ k⌉ bits/element) and [`store::PackedPermStore`]
//!   (⌈log₂ N⌉ bits/element, the paper's strategy);
//! * [`huffman`] — entropy coding of permutation streams, implementing
//!   §4's "more sophisticated structure may be possible" remark;
//! * [`prefix`] — truncated permutations ([`prefix::PrefixPermutation`])
//!   and the induced top-ℓ footrule, the practical CFN index form;
//! * [`bits`] — the LSB-first bit I/O under all the packed layouts;
//! * [`fxhash`] — a local FxHash-style hasher for the hash oracles and
//!   the off-path tallies (prefix orders, pivot selection).

#![forbid(unsafe_code)]

pub mod bits;
pub mod compute;
pub mod counter;
pub mod encoding;
pub mod fxhash;
pub mod huffman;
pub mod key;
pub mod lehmer;
pub mod perm;
pub mod permdist;
pub mod prefix;
pub mod radix;
pub mod shard;
pub mod store;

pub use compute::{
    collect_counter_flat, collect_counter_flat_parallel, collect_packed_flat,
    collect_packed_flat_parallel, collect_sharded_flat_parallel, collect_summary,
    collect_summary_parallel, database_permutations_flat, database_permutations_flat_parallel,
    distance_permutation, packed_keys_flat, DistPermComputer, PACKED_MAX_K, WIDE_MAX_K,
};
pub use counter::{
    count_sorted_runs, PackedCountSummary, PackedPermutationCounter, PermutationCounter,
};
pub use encoding::{Codebook, PackedCodebook};
pub use huffman::{HuffmanCode, HuffmanPermStore};
pub use key::{pack_perm, PackedKey};
pub use perm::{Permutation, PermutationError, MAX_K};
pub use prefix::{prefix_footrule, PrefixPermutation};
pub use radix::RadixSorter;
pub use shard::ShardedCounter;
pub use store::{PackedPermStore, RawPermStore};
