//! Counting distinct distance permutations.
//!
//! This is the measurement the paper's experiments perform: enumerate the
//! distance permutation of every database element and count the distinct
//! values (`sort | uniq | wc` over the SISAP `build-distperm-*` output, §5).
//! One counter implements it on every production path:
//!
//! * [`PackedPermutationCounter`] — inserts append a packed key (a
//!   [`PackedKey`] word — `u64` for k ≤ 12, `u128` up to k = 32;
//!   [`crate::key`] holds the encoding), [`finalize`] (radix-)sorts the
//!   buffer once and [`count_sorted_runs`] turns the sorted runs into
//!   occupancies.  No hashing anywhere.  The flat engine feeds it fused
//!   rank+pack keys through [`crate::shard::ShardedCounter`]; the generic
//!   per-point path (strings, trees, any [`Metric`]) feeds it packed
//!   [`Permutation`]s through [`crate::compute::collect_summary`], which
//!   [`count_distinct`] runs.
//!
//! The result is a [`PackedCountSummary`]: the distinct keys in
//! ascending order plus one `u64` occupancy each — O(distinct) memory,
//! so downstream consumers (the codebook, Huffman, the survey) never pay
//! for n again.
//!
//! [`PermutationCounter`] — an Fx-hashed multiset over materialised
//! [`Permutation`]s, with occupancy queries (Table 2's "about 10
//! database points per permutation") — is the independent reference the
//! packed pipeline is tested against: it shares no key packing, sorting
//! or summary code with it.  [`collect_counter`] fills one per point.
//!
//! [`finalize`]: PackedPermutationCounter::finalize

use crate::compute::{collect_summary, DistPermComputer};
use crate::fxhash::FxHashMap;
use crate::key::{decode_packed, pack_perm, PackedKey};
use crate::perm::{Permutation, MAX_K};
use crate::radix::RadixSorter;
use dp_metric::Metric;

/// Run lengths of consecutive equal values in a sorted (or at least
/// run-grouped) slice: `[3, 3, 3, 7, 9, 9]` → `[3, 1, 2]`.
///
/// The run scan under [`PackedPermutationCounter::finalize`], which
/// derives occupancies from it.
pub fn count_sorted_runs<T: PartialEq>(sorted: &[T]) -> Vec<u64> {
    let mut runs = Vec::new();
    let mut start = 0usize;
    for i in 1..sorted.len() {
        if sorted[i] != sorted[start] {
            runs.push((i - start) as u64);
            start = i;
        }
    }
    if start < sorted.len() {
        runs.push((sorted.len() - start) as u64);
    }
    runs
}

/// Accumulates distance permutations and distinct-count statistics.
#[derive(Debug, Clone, Default)]
pub struct PermutationCounter {
    counts: FxHashMap<Permutation, u64>,
    total: u64,
}

impl PermutationCounter {
    /// An empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one occurrence of `p`.
    pub fn insert(&mut self, p: Permutation) {
        *self.counts.entry(p).or_insert(0) += 1;
        self.total += 1;
    }

    /// Number of distinct permutations observed.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean occupancy: observations per distinct permutation.
    pub fn mean_occupancy(&self) -> f64 {
        if self.counts.is_empty() {
            0.0
        } else {
            self.total as f64 / self.counts.len() as f64
        }
    }

    /// Iterator over `(permutation, occurrence count)`.
    pub fn iter(&self) -> impl Iterator<Item = (&Permutation, &u64)> {
        self.counts.iter()
    }

    /// The observed permutations, sorted lexicographically — a stable order
    /// for codebook assignment and for diffing against other runs.
    pub fn sorted_permutations(&self) -> Vec<Permutation> {
        let mut v: Vec<Permutation> = self.counts.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// `(permutation, occurrence count)` pairs sorted lexicographically —
    /// the order a codebook built from [`Self::sorted_permutations`]
    /// assigns ids in, so mapping this to its counts *is* the frequency
    /// table the survey emits.  A plain comparison sort: as an oracle it
    /// shares no key packing or radix sorting with the code it checks.
    pub fn sorted_counts(&self) -> Vec<(Permutation, u64)> {
        let mut v: Vec<(Permutation, u64)> = self.counts.iter().map(|(&p, &c)| (p, c)).collect();
        v.sort_unstable_by_key(|&(p, _)| p);
        v
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: &PermutationCounter) {
        for (&p, &c) in other.counts.iter() {
            *self.counts.entry(p).or_insert(0) += c;
        }
        self.total += other.total;
    }

    /// Occupancy histogram: `histogram[i]` = number of permutations seen
    /// exactly `i+1` times (Fig 7's "cells the database happens to miss"
    /// analysis looks at the other side of this distribution).
    pub fn occupancy_histogram(&self) -> Vec<u64> {
        let max = self.counts.values().copied().max().unwrap_or(0) as usize;
        let mut hist = vec![0u64; max];
        for &c in self.counts.values() {
            hist[(c - 1) as usize] += 1;
        }
        hist
    }

    /// The most heavily occupied permutation and its count.
    pub fn mode(&self) -> Option<(Permutation, u64)> {
        self.counts.iter().map(|(&p, &c)| (p, c)).max_by_key(|&(p, c)| (c, std::cmp::Reverse(p)))
    }
}

/// Occurrence counter keyed on packed permutation keys (a [`PackedKey`]
/// word — `u64` for k ≤ 12, `u128` for k ≤ 32; see [`crate::key`] for
/// the encoding).
///
/// The counter behind every production count.  Inserts only append to a key
/// buffer (no hashing, no per-insert cache miss — crucial when most
/// permutations are distinct and a hash table would take a DRAM miss per
/// probe); distinct-counting happens once, in [`Self::finalize`], as a
/// cache-friendly sort + run scan.  Packing is injective, so the distinct
/// count equals the distinct count of the underlying permutations
/// exactly.
#[derive(Debug, Clone)]
pub struct PackedPermutationCounter<K: PackedKey = u64> {
    k: usize,
    keys: Vec<K>,
}

impl<K: PackedKey> PackedPermutationCounter<K> {
    /// An empty counter for permutations of length `k`.
    ///
    /// # Panics
    /// Panics if `k` exceeds the key width's capacity (`K::MAX_K`).
    pub fn new(k: usize) -> Self {
        assert!(
            k <= K::MAX_K,
            "k = {k} exceeds MAX_K = {} for {}-bit packed keys",
            K::MAX_K,
            K::BITS
        );
        Self { k, keys: Vec::new() }
    }

    /// Permutation length k.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Records one occurrence of a packed key (the [`pack_perm`]
    /// lexicographic layout: position `p` in group `k-1-p`).
    #[inline]
    pub fn insert_key(&mut self, key: K) {
        self.keys.push(key);
    }

    /// Records one occurrence of a permutation value.
    ///
    /// # Panics
    /// Panics if `p.len() != k`.
    pub fn insert(&mut self, p: &Permutation) {
        assert_eq!(p.len(), self.k, "permutation length mismatch");
        self.insert_key(pack_perm(p));
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.keys.len() as u64
    }

    /// Sorts the key buffer (radix over the [`PackedKey::key_bits`]
    /// significant bits)
    /// and produces the summary statistics.
    ///
    /// Allocates one scratch buffer; loops that finalize repeatedly
    /// should reuse a sorter through [`Self::finalize_with`].
    pub fn finalize(self) -> PackedCountSummary<K> {
        self.finalize_with(&mut RadixSorter::new())
    }

    /// [`Self::finalize`] through a caller-owned [`RadixSorter`], so
    /// repeated finalizes (every shard of a
    /// [`crate::shard::ShardedCounter`]) share one scratch buffer instead
    /// of reallocating.
    pub fn finalize_with(mut self, sorter: &mut RadixSorter<K>) -> PackedCountSummary<K> {
        sorter.sort_keys(&mut self.keys, K::key_bits(self.k));
        let total = self.keys.len() as u64;
        let occupancies = count_sorted_runs(&self.keys);
        // Compact the sorted buffer to its run starts in place: the
        // summary keeps one key per *distinct* permutation, never the
        // observation buffer.
        let mut pos = 0usize;
        for (i, &occ) in occupancies.iter().enumerate() {
            self.keys[i] = self.keys[pos];
            pos += occ as usize;
        }
        self.keys.truncate(occupancies.len());
        self.keys.shrink_to_fit();
        PackedCountSummary { k: self.k, keys: self.keys, occupancies, total }
    }

    /// Wraps an already-collected key buffer — a [`crate::shard`] shard,
    /// or the whole key buffer of a batched scan.
    ///
    /// # Panics
    /// Panics if `k` exceeds the key width's capacity.
    pub(crate) fn from_keys(k: usize, keys: Vec<K>) -> Self {
        let mut c = Self::new(k);
        c.keys = keys;
        c
    }
}

/// Finalized statistics of a [`PackedPermutationCounter`].
///
/// Holds one key per **distinct** permutation (ascending key order, which
/// the [`pack_perm`] layout makes lexicographic order) plus its occupancy
/// count and the observation total — `O(distinct)` memory, independent of
/// the database size.  [`PackedPermutationCounter::finalize`] builds one
/// from a key buffer; [`crate::shard::ShardedCounter`] builds one per
/// shard that way and merges them into its frontier, which is itself a
/// summary — identical, by construction, to finalizing every key at once.
#[derive(Debug, Clone)]
pub struct PackedCountSummary<K: PackedKey = u64> {
    pub(crate) k: usize,
    /// Distinct keys, strictly ascending.
    pub(crate) keys: Vec<K>,
    /// `occupancies[i]` ≥ 1 observations of `keys[i]`.
    pub(crate) occupancies: Vec<u64>,
    /// The sum of `occupancies`.
    pub(crate) total: u64,
}

impl<K: PackedKey> PackedCountSummary<K> {
    /// Number of distinct permutations observed.
    pub fn distinct(&self) -> usize {
        self.occupancies.len()
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean occupancy: observations per distinct permutation.
    pub fn mean_occupancy(&self) -> f64 {
        if self.occupancies.is_empty() {
            0.0
        } else {
            self.total() as f64 / self.distinct() as f64
        }
    }

    /// Permutation length k.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The distinct permutations, decoded, in lexicographic order —
    /// the same order as [`PermutationCounter::sorted_permutations`].
    pub fn permutations(&self) -> Vec<Permutation> {
        self.distinct_keys().map(|key| self.decode(key)).collect()
    }

    /// The distinct packed keys in ascending key order — one per
    /// occupancy entry.  The [`pack_perm`] layout makes this the
    /// lexicographic order of the decoded permutations.
    pub fn distinct_keys(&self) -> impl Iterator<Item = K> + '_ {
        self.keys.iter().copied()
    }

    /// Iterator over `(permutation, occurrence count)`, in
    /// lexicographic order.  The counterpart of
    /// [`PermutationCounter::iter`], recovering the occupancy
    /// distribution without re-hashing every observation.
    pub fn iter(&self) -> impl Iterator<Item = (Permutation, u64)> + '_ {
        self.keys
            .iter()
            .zip(self.occupancies.iter())
            .map(|(&key, &count)| (self.decode(key), count))
    }

    /// Occurrence counts ordered by the **lexicographic** rank of each
    /// distinct permutation — the order a codebook built from
    /// [`PermutationCounter::sorted_permutations`] assigns ids in, so a
    /// frequency table built from this vector is element-for-element
    /// identical to the hash oracle's [`PermutationCounter::sorted_counts`].
    ///
    /// The [`pack_perm`] layout puts position 0 in the most significant
    /// occupied group, so ascending key order *is* lexicographic order
    /// and the finalized occupancies are already this table — no second
    /// sort, no decode.
    pub fn lexicographic_counts(&self) -> Vec<u64> {
        self.occupancies.clone()
    }

    /// Expands into the hash oracle, a [`PermutationCounter`] with the
    /// same counts — for differential tests.
    pub fn unpack(&self) -> PermutationCounter {
        let mut out = PermutationCounter::new();
        for (p, count) in self.iter() {
            for _ in 0..count {
                out.insert(p);
            }
        }
        out
    }

    fn decode(&self, key: K) -> Permutation {
        decode_packed(key, self.k)
    }
}

/// A fixed-universe distinct counter over permutation *ranks*: a bitmap of
/// k! bits.
///
/// For small k (k ≤ 10, so k! ≤ 3,628,800 bits ≈ 450 KB) this is an exact
/// alternative to the hash-set counter with zero per-insert allocation and
/// perfect cache behaviour on dense universes — the ablation benchmark
/// `counting_strategies` compares the two.
#[derive(Debug, Clone)]
pub struct RankBitmap {
    k: usize,
    words: Vec<u64>,
    distinct: usize,
    total: u64,
}

impl RankBitmap {
    /// Creates a bitmap counter for permutations of length `k`.
    ///
    /// # Panics
    /// Panics if `k > 12` (12! bits = 57 MB is the sensible ceiling).
    pub fn new(k: usize) -> Self {
        assert!(k <= 12, "k = {k}: k! bitmap would exceed memory budget");
        let universe = crate::lehmer::factorial(k) as usize;
        Self { k, words: vec![0u64; universe.div_ceil(64)], distinct: 0, total: 0 }
    }

    /// Records one occurrence of `p`.
    ///
    /// # Panics
    /// Panics if `p.len() != k`.
    pub fn insert(&mut self, p: &Permutation) {
        assert_eq!(p.len(), self.k, "permutation length mismatch");
        let r = crate::lehmer::rank(p) as usize;
        let (word, bit) = (r / 64, r % 64);
        if self.words[word] & (1 << bit) == 0 {
            self.words[word] |= 1 << bit;
            self.distinct += 1;
        }
        self.total += 1;
    }

    /// Number of distinct permutations seen.
    pub fn distinct(&self) -> usize {
        self.distinct
    }

    /// Total insertions.
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// Counts the distinct distance permutations of `database` w.r.t. `sites`.
///
/// The headline operation of the paper: |{Π_y : y ∈ database}|, through
/// [`collect_summary`] at the key width fitting `sites.len()`.
///
/// # Panics
/// Panics if `sites.len() > MAX_K`.
pub fn count_distinct<P, M: Metric<P>>(metric: &M, sites: &[P], database: &[P]) -> usize {
    crate::for_packed_k!(
        sites.len(),
        K => collect_summary::<K, P, M>(metric, sites, database).distinct(),
        _ => panic!("k = {} exceeds MAX_K = {MAX_K}", sites.len()),
    )
}

/// Runs the full scan into a hash [`PermutationCounter`] — the
/// reference oracle for [`collect_summary`] (distinct count + occupancy).
pub fn collect_counter<P, M: Metric<P>>(
    metric: &M,
    sites: &[P],
    database: &[P],
) -> PermutationCounter {
    let mut computer = DistPermComputer::new(sites.len());
    let mut counter = PermutationCounter::new();
    for y in database {
        counter.insert(computer.compute(metric, sites, y));
    }
    counter
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_metric::L2;

    #[test]
    fn counter_basics() {
        let mut c = PermutationCounter::new();
        let a = Permutation::identity(3);
        let b = Permutation::from_slice(&[1, 0, 2]).unwrap();
        c.insert(a);
        c.insert(a);
        c.insert(b);
        assert_eq!(c.distinct(), 2);
        assert_eq!(c.total(), 3);
        assert!((c.mean_occupancy() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_counter() {
        let c = PermutationCounter::new();
        assert_eq!(c.distinct(), 0);
        assert_eq!(c.total(), 0);
        assert_eq!(c.mean_occupancy(), 0.0);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = PermutationCounter::new();
        let mut b = PermutationCounter::new();
        let p = Permutation::identity(2);
        let q = Permutation::from_slice(&[1, 0]).unwrap();
        a.insert(p);
        b.insert(p);
        b.insert(q);
        a.merge(&b);
        assert_eq!(a.distinct(), 2);
        assert_eq!(a.total(), 3);
        let pc = a.iter().find(|(x, _)| **x == p).map(|(_, c)| *c);
        assert_eq!(pc, Some(2));
    }

    #[test]
    fn one_dimensional_two_sites_yields_two_permutations() {
        // Sites at 0 and 1; the bisector is the midpoint 0.5: points left
        // of it see [0,1], points right see [1,0].
        let sites = vec![vec![0.0], vec![1.0]];
        let db: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 50.0 - 0.5]).collect();
        assert_eq!(count_distinct(&L2, &sites, &db), 2);
    }

    #[test]
    fn one_dimensional_count_bounded_by_theorem() {
        // N_{1,2}(k) = C(k,2) + 1. With k=4 sites on a line, at most 7.
        let sites: Vec<Vec<f64>> = vec![vec![0.0], vec![0.3], vec![0.55], vec![1.0]];
        let db: Vec<Vec<f64>> = (0..2000).map(|i| vec![i as f64 / 1000.0 - 0.5]).collect();
        let n = count_distinct(&L2, &sites, &db);
        assert!(n <= 7, "got {n} > C(4,2)+1");
        assert_eq!(n, 7, "a dense 1-D sweep should realise all cells");
    }

    #[test]
    fn occupancy_histogram_and_mode() {
        let mut c = PermutationCounter::new();
        let a = Permutation::identity(3);
        let b = Permutation::from_slice(&[1, 0, 2]).unwrap();
        let d = Permutation::from_slice(&[2, 1, 0]).unwrap();
        for _ in 0..3 {
            c.insert(a);
        }
        c.insert(b);
        c.insert(d);
        // Two permutations seen once, one seen three times.
        assert_eq!(c.occupancy_histogram(), vec![2, 0, 1]);
        assert_eq!(c.mode(), Some((a, 3)));
        let empty = PermutationCounter::new();
        assert!(empty.occupancy_histogram().is_empty());
        assert_eq!(empty.mode(), None);
    }

    #[test]
    fn rank_bitmap_matches_hash_counter() {
        let sites = vec![vec![0.0, 0.3], vec![0.9, 0.1], vec![0.5, 0.8], vec![0.2, 0.9]];
        let db: Vec<Vec<f64>> =
            (0..800).map(|i| vec![(i % 40) as f64 / 40.0, (i / 40) as f64 / 20.0]).collect();
        let counter = collect_counter(&L2, &sites, &db);
        let mut bitmap = RankBitmap::new(4);
        let mut computer = crate::compute::DistPermComputer::new(4);
        for y in &db {
            bitmap.insert(&computer.compute(&L2, &sites, y));
        }
        assert_eq!(bitmap.distinct(), counter.distinct());
        assert_eq!(bitmap.total(), counter.total());
    }

    #[test]
    fn rank_bitmap_counts_duplicates_once() {
        let mut bm = RankBitmap::new(3);
        let p = Permutation::identity(3);
        bm.insert(&p);
        bm.insert(&p);
        assert_eq!(bm.distinct(), 1);
        assert_eq!(bm.total(), 2);
    }

    #[test]
    #[should_panic(expected = "memory budget")]
    fn rank_bitmap_rejects_large_k() {
        let _ = RankBitmap::new(13);
    }

    #[test]
    fn packed_summary_iter_matches_hash_counter() {
        let mut packed = PackedPermutationCounter::<u64>::new(3);
        let mut hash = PermutationCounter::new();
        let perms = [
            Permutation::identity(3),
            Permutation::from_slice(&[1, 0, 2]).unwrap(),
            Permutation::from_slice(&[2, 1, 0]).unwrap(),
        ];
        for (i, p) in perms.iter().enumerate() {
            for _ in 0..=i {
                packed.insert(p);
                hash.insert(*p);
            }
        }
        let summary = packed.finalize();
        let mut pairs: Vec<(Permutation, u64)> = summary.iter().collect();
        pairs.sort_unstable();
        let mut expected: Vec<(Permutation, u64)> = hash.iter().map(|(&p, &c)| (p, c)).collect();
        expected.sort_unstable();
        assert_eq!(pairs, expected);
        // Counts align with the decoded permutations, not just the totals.
        assert_eq!(summary.iter().map(|(_, c)| c).sum::<u64>(), summary.total());
        assert!(PackedPermutationCounter::<u64>::new(2).finalize().iter().next().is_none());
    }

    #[test]
    fn lexicographic_counts_match_permutation_sorted_pairs() {
        // Fill a packed counter with an irregular multiset of k = 4
        // permutations covering every tie of first vs last position.
        let mut packed = PackedPermutationCounter::<u64>::new(4);
        let perms: Vec<Permutation> =
            [[0u8, 1, 2, 3], [0, 1, 3, 2], [3, 0, 1, 2], [1, 0, 2, 3], [3, 2, 1, 0], [0, 2, 1, 3]]
                .iter()
                .map(|s| Permutation::from_slice(s).unwrap())
                .collect();
        for (i, p) in perms.iter().enumerate() {
            for _ in 0..(7 - i) {
                packed.insert(p);
            }
        }
        let summary = packed.finalize();
        let mut pairs: Vec<(Permutation, u64)> = summary.iter().collect();
        pairs.sort_unstable_by_key(|&(p, _)| p);
        let expected: Vec<u64> = pairs.into_iter().map(|(_, c)| c).collect();
        assert_eq!(summary.lexicographic_counts(), expected);
    }

    #[test]
    fn sorted_permutations_is_sorted_and_complete() {
        let sites = vec![vec![0.0], vec![0.4], vec![1.0]];
        let db: Vec<Vec<f64>> = (0..500).map(|i| vec![i as f64 / 250.0 - 0.5]).collect();
        let counter = collect_counter(&L2, &sites, &db);
        let sorted = counter.sorted_permutations();
        assert_eq!(sorted.len(), counter.distinct());
        assert!(sorted.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn count_sorted_runs_examples() {
        assert_eq!(count_sorted_runs::<u64>(&[]), Vec::<u64>::new());
        assert_eq!(count_sorted_runs(&[5]), vec![1]);
        assert_eq!(count_sorted_runs(&[3, 3, 3, 7, 9, 9]), vec![3, 1, 2]);
        assert_eq!(count_sorted_runs(&[1, 2, 3]), vec![1, 1, 1]);
        assert_eq!(count_sorted_runs(&[4u8; 100]), vec![100]);
    }

    #[test]
    fn count_sorted_runs_matches_finalize_occupancies() {
        let mut keys: Vec<u64> = (0..500u64).map(|i| i.wrapping_mul(0x9E37) % 37).collect();
        keys.sort_unstable();
        let runs = count_sorted_runs(&keys);
        assert_eq!(runs.iter().sum::<u64>(), 500);
        assert_eq!(runs.len(), 37.min(keys.len()));
    }

    #[test]
    fn sorted_counts_matches_sorted_permutations_and_counts() {
        let sites = vec![vec![0.0, 0.3], vec![0.9, 0.1], vec![0.5, 0.8], vec![0.2, 0.9]];
        let db: Vec<Vec<f64>> =
            (0..900).map(|i| vec![(i % 30) as f64 / 30.0, (i / 30) as f64 / 30.0]).collect();
        let counter = collect_counter(&L2, &sites, &db);
        let pairs = counter.sorted_counts();
        let perms: Vec<Permutation> = pairs.iter().map(|&(p, _)| p).collect();
        assert_eq!(perms, counter.sorted_permutations());
        for (p, c) in &pairs {
            let direct = counter.iter().find(|(q, _)| *q == p).map(|(_, &c)| c);
            assert_eq!(direct, Some(*c));
        }
        assert!(PermutationCounter::new().sorted_counts().is_empty());
    }

    #[test]
    fn sorted_counts_mixed_lengths_fall_back_to_comparison_order() {
        let mut c = PermutationCounter::new();
        c.insert(Permutation::identity(3));
        c.insert(Permutation::identity(2));
        c.insert(Permutation::from_slice(&[1, 0]).unwrap());
        let pairs = c.sorted_counts();
        let perms: Vec<Permutation> = pairs.iter().map(|&(p, _)| p).collect();
        assert_eq!(perms, c.sorted_permutations());
    }

    #[test]
    fn packed_key_order_is_lexicographic() {
        // Integer order on pack_perm keys must equal Permutation order —
        // the invariant lexicographic_counts and the codebooks lean on.
        let k = 4usize;
        let mut perms: Vec<Permutation> = Vec::new();
        for a in 0..k as u8 {
            for b in 0..k as u8 {
                for c in 0..k as u8 {
                    for d in 0..k as u8 {
                        if let Ok(p) = Permutation::from_slice(&[a, b, c, d]) {
                            perms.push(p);
                        }
                    }
                }
            }
        }
        let mut by_perm = perms.clone();
        by_perm.sort_unstable();
        let mut by_key = perms;
        by_key.sort_unstable_by_key(pack_perm::<u64>);
        assert_eq!(by_perm, by_key);
    }

    #[test]
    fn wide_pack_decode_round_trips() {
        // k = 25 exercises fields strictly above bit 64.
        let items: Vec<u8> = (0..25u8).rev().collect();
        let p = Permutation::from_slice(&items).unwrap();
        let key: u128 = pack_perm(&p);
        assert!(key >> 64 != 0, "high word must be populated");
        assert_eq!(decode_packed(key, 25), p);
    }

    #[test]
    fn wide_packed_counter_matches_hash_counter() {
        // An irregular multiset of k = 20 permutations.
        let k = 20usize;
        let mut packed: PackedPermutationCounter<u128> = PackedPermutationCounter::new(k);
        let mut hash = PermutationCounter::new();
        let mut items: Vec<u8> = (0..k as u8).collect();
        for round in 0..600usize {
            // Deterministic Fisher–Yates from a splitmix-style stream.
            let mut state = round as u64 % 37;
            for i in (1..k).rev() {
                state = state.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x1234_5678);
                items.swap(i, (state >> 33) as usize % (i + 1));
            }
            let p = Permutation::from_slice(&items).unwrap();
            packed.insert(&p);
            hash.insert(p);
        }
        let summary = packed.finalize();
        assert_eq!(summary.distinct(), hash.distinct());
        assert_eq!(summary.total(), hash.total());
        assert_eq!(summary.mean_occupancy().to_bits(), hash.mean_occupancy().to_bits());
        // Lexicographic frequency tables agree element for element.
        let expected: Vec<u64> = hash.sorted_counts().into_iter().map(|(_, c)| c).collect();
        assert_eq!(summary.lexicographic_counts(), expected);
        // Decoded permutations agree with the hash counter's sorted set.
        let mut decoded = summary.permutations();
        decoded.sort_unstable();
        assert_eq!(decoded, hash.sorted_permutations());
    }
}
