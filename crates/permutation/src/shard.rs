//! The packed counting collector: packed permutation keys in, a
//! [`PackedCountSummary`] out, through shards of bounded size.
//!
//! [`ShardedCounter`] is the only packed collector behind `count` and
//! `survey`.  Inserts append to a shard of at most `shard_rows` keys.
//! Each full shard is finalized like an in-memory count —
//! [`PackedPermutationCounter::finalize_with`] radix-sorts it (scratch
//! reused across shards) and compacts it in place to distinct keys plus
//! occupancies — and merged into the **frontier**, the summary of
//! everything flushed so far.  One summary merge
//! (`PackedCountSummary::merge`) serves shard → frontier here and
//! worker → worker in [`crate::compute::collect_sharded_flat_parallel`].
//!
//! ## Memory contract
//!
//! A counter holds one shard of at most `shard_rows` keys (plus equal
//! radix scratch and one `u64` per distinct shard key while it is
//! finalized) and a frontier of one key plus one `u64` occupancy per
//! **distinct** permutation seen so far — 24 B at `u128`, 16 B at
//! `u64`.  A merge grows the frontier in place by the incoming
//! summary's length (the allocator may copy it once to grow it).
//! Sharding therefore saves memory only when distinct ≪ n, as in the
//! paper's measurements ("about 10 database points per permutation",
//! §5).  On mostly distinct data (uniform d = 8 at the survey's larger
//! k) the frontier reaches about n entries whatever the shard size, and
//! each extra shard only adds a merge pass.  So the parallel collector
//! caps each worker's shard at the rows that worker scans:
//! `shard_rows = 0` and every `shard_rows` at or above that count are
//! the same one-shard configuration.
//!
//! ## Equivalence
//!
//! Exact: merging the run-length summaries of sorted multisets, with
//! occupancies summed on equal keys, is the run-length scan of their
//! sorted union, wherever the shard and worker boundaries fall.  The
//! summary — keys, occupancies, total and every float derived from
//! them — is bit-for-bit the one [`PackedPermutationCounter::finalize`]
//! produces over all the keys at once (`tests/sharded_equivalence.rs`
//! pins this across shard sizes, widths and thread counts).
//!
//! [`PackedPermutationCounter::finalize`]: crate::counter::PackedPermutationCounter::finalize

use crate::counter::{PackedCountSummary, PackedPermutationCounter};
use crate::key::PackedKey;
use crate::radix::RadixSorter;

/// Bounded-shard occurrence counter over packed permutation keys.
///
/// Feed keys with [`Self::insert_key`], take the summary with
/// [`Self::finalize`].  See the [module docs](self) for the memory
/// contract and the equivalence argument.
#[derive(Debug, Clone)]
pub struct ShardedCounter<K: PackedKey = u64> {
    shard_rows: usize,
    /// Unsorted keys of the shard in flight — never exceeds `shard_rows`.
    buf: Vec<K>,
    /// Summary of everything flushed so far.
    frontier: PackedCountSummary<K>,
    sorter: RadixSorter<K>,
    peak_frontier: usize,
}

impl<K: PackedKey> ShardedCounter<K> {
    /// An empty counter for permutations of length `k`, flushing every
    /// `shard_rows` inserts.
    ///
    /// Nothing is allocated up front: each shard reserves its
    /// `shard_rows` keys when its first key arrives, so callers that
    /// know the stream length should cap `shard_rows` at it (the
    /// parallel collector does).
    ///
    /// # Panics
    /// Panics if `shard_rows` is 0 or `k` exceeds the key width's
    /// capacity (`K::MAX_K`).
    pub fn new(k: usize, shard_rows: usize) -> Self {
        assert!(shard_rows > 0, "shard_rows must be at least 1");
        assert!(
            k <= K::MAX_K,
            "k = {k} exceeds MAX_K = {} for {}-bit packed keys",
            K::MAX_K,
            K::BITS
        );
        Self {
            shard_rows,
            buf: Vec::new(),
            frontier: PackedCountSummary::empty(k),
            sorter: RadixSorter::new(),
            peak_frontier: 0,
        }
    }

    /// Permutation length k.
    pub fn k(&self) -> usize {
        self.frontier.k()
    }

    /// Total number of observations so far (flushed or buffered).
    pub fn total(&self) -> u64 {
        self.frontier.total() + self.buf.len() as u64
    }

    /// Records one occurrence of a packed key (the
    /// [`crate::pack_perm`] lexicographic layout), flushing the shard
    /// if this insert fills it.
    #[inline]
    pub fn insert_key(&mut self, key: K) {
        if self.buf.capacity() == 0 {
            self.buf.reserve_exact(self.shard_rows);
        }
        self.buf.push(key);
        if self.buf.len() == self.shard_rows {
            self.flush();
        }
    }

    /// Finalizes the in-flight shard and merges it into the frontier
    /// now, even if it is only partially full.  A no-op on an empty
    /// shard; [`Self::finalize`] calls this, so explicit calls are only
    /// needed to read an exact [`Self::peak_frontier_entries`]
    /// mid-stream.
    pub fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let shard = PackedPermutationCounter::from_keys(self.k(), std::mem::take(&mut self.buf))
            .finalize_with(&mut self.sorter);
        self.frontier.merge(shard);
        self.peak_frontier = self.peak_frontier.max(self.frontier.distinct());
    }

    /// Largest frontier length any flush has produced — with the shard
    /// size, the counter's whole memory story.
    pub fn peak_frontier_entries(&self) -> usize {
        self.peak_frontier
    }

    /// Flushes the tail shard and returns the frontier — identical to
    /// collecting every key in memory and finalizing.
    pub fn finalize(mut self) -> PackedCountSummary<K> {
        self.flush();
        self.frontier
    }
}

impl<K: PackedKey> PackedCountSummary<K> {
    /// The summary of no observations.
    pub(crate) fn empty(k: usize) -> Self {
        Self { k, keys: Vec::new(), occupancies: Vec::new(), total: 0 }
    }

    /// Merges `other` into `self`: the union of the distinct keys in
    /// ascending order, occupancies summed on equal keys, totals added.
    ///
    /// Works in place: the larger summary grows to hold both and is
    /// merged into from the back, so the merge allocates no second
    /// output buffer (and merging into an empty summary just moves
    /// `other` in).  The write cursor `w` never drops below the unread
    /// prefix `self[..i]` — each step lowers `w` by one and `i + j` by
    /// one or two — so no entry is overwritten before it is read.
    pub(crate) fn merge(&mut self, mut other: Self) {
        debug_assert_eq!(self.k, other.k, "merging summaries of different k");
        if self.keys.len() < other.keys.len() {
            std::mem::swap(self, &mut other);
        }
        self.total += other.total;
        let (mut i, mut j) = (self.keys.len(), other.keys.len());
        let mut w = i + j;
        self.keys.resize(w, K::ZERO);
        self.occupancies.resize(w, 0);
        while j > 0 {
            w -= 1;
            let (key, occupancy) = (other.keys[j - 1], other.occupancies[j - 1]);
            if i > 0 && self.keys[i - 1] >= key {
                i -= 1;
                self.keys[w] = self.keys[i];
                self.occupancies[w] = self.occupancies[i];
                if self.keys[i] == key {
                    self.occupancies[w] += occupancy;
                    j -= 1;
                }
            } else {
                self.keys[w] = key;
                self.occupancies[w] = occupancy;
                j -= 1;
            }
        }
        // `self[..i]` is already in place; close the gap equal keys left.
        let len = i + self.keys.len() - w;
        self.keys.copy_within(w.., i);
        self.occupancies.copy_within(w.., i);
        self.keys.truncate(len);
        self.occupancies.truncate(len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weyl_keys(n: usize, k: usize, salt: u64) -> Vec<u64> {
        // Pseudo-random valid packed permutations: rotate the identity by
        // a Weyl stream and swap two fields for irregular multiplicities.
        let mut items: Vec<u8> = (0..k as u8).collect();
        (0..n)
            .map(|i| {
                let s = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15 ^ salt) >> 7;
                items.rotate_left(s as usize % k.max(1));
                let p = crate::perm::Permutation::from_slice(&items).unwrap();
                crate::key::pack_perm::<u64>(&p)
            })
            .collect()
    }

    fn in_memory_summary(k: usize, keys: &[u64]) -> PackedCountSummary<u64> {
        let mut c = PackedPermutationCounter::<u64>::new(k);
        for &key in keys {
            c.insert_key(key);
        }
        c.finalize()
    }

    fn assert_same_summary(a: &PackedCountSummary<u64>, b: &PackedCountSummary<u64>, tag: &str) {
        assert_eq!(a.k(), b.k(), "{tag}: k");
        assert_eq!(a.distinct_keys().collect::<Vec<_>>(), b.distinct_keys().collect::<Vec<_>>());
        assert_eq!(a.lexicographic_counts(), b.lexicographic_counts(), "{tag}: occupancies");
        assert_eq!(a.total(), b.total(), "{tag}: total");
    }

    #[test]
    fn sharded_matches_in_memory_across_shard_sizes() {
        let k = 6;
        let n = 997; // prime: never a multiple of any shard size tested
        let keys = weyl_keys(n, k, 3);
        let expected = in_memory_summary(k, &keys);
        for shard_rows in [1usize, n - 1, n, n + 1, 64] {
            let mut sharded = ShardedCounter::<u64>::new(k, shard_rows);
            for &key in &keys {
                sharded.insert_key(key);
            }
            assert_eq!(sharded.total(), n as u64, "shard_rows = {shard_rows}");
            let summary = sharded.finalize();
            assert_same_summary(&summary, &expected, &format!("shard_rows = {shard_rows}"));
            assert_eq!(summary.mean_occupancy().to_bits(), expected.mean_occupancy().to_bits());
        }
    }

    #[test]
    fn frontier_is_bounded_by_distinct_count() {
        let k = 5;
        let keys = weyl_keys(5000, k, 9);
        let mut sharded = ShardedCounter::<u64>::new(k, 128);
        for &key in &keys {
            sharded.insert_key(key);
        }
        sharded.flush();
        let peak = sharded.peak_frontier_entries();
        let summary = sharded.finalize();
        // The frontier only ever grows toward the final distinct count.
        assert_eq!(peak, summary.distinct());
    }

    #[test]
    fn merge_with_an_empty_side_is_the_other_side() {
        let k = 5;
        let full = in_memory_summary(k, &weyl_keys(300, k, 4));
        let mut left = PackedCountSummary::<u64>::empty(k);
        left.merge(full.clone());
        assert_same_summary(&left, &full, "empty ⊕ full");
        let mut right = full.clone();
        right.merge(PackedCountSummary::empty(k));
        assert_same_summary(&right, &full, "full ⊕ empty");
        let mut none = PackedCountSummary::<u64>::empty(k);
        none.merge(PackedCountSummary::empty(k));
        assert_eq!((none.distinct(), none.total()), (0, 0));
    }

    #[test]
    fn merge_sums_equal_keys_and_interleaves_the_rest() {
        let k = 3;
        let mut a = in_memory_summary(k, &[1, 1, 5, 9, 9, 9]);
        let b = in_memory_summary(k, &[0, 1, 3, 5, 5, 12]);
        a.merge(b);
        assert_eq!(a.distinct_keys().collect::<Vec<_>>(), vec![0, 1, 3, 5, 9, 12]);
        assert_eq!(a.lexicographic_counts(), vec![1, 3, 1, 3, 3, 1]);
        assert_eq!(a.total(), 12);
        assert_eq!(a.lexicographic_counts().iter().sum::<u64>(), a.total());
    }

    #[test]
    fn merge_of_split_streams_is_the_summary_of_the_whole() {
        // Any cut of the stream, merged in either order, reproduces the
        // in-memory summary — the associativity both merge directions
        // lean on.
        let k = 6;
        let keys = weyl_keys(2000, k, 17);
        let expected = in_memory_summary(k, &keys);
        for cut in [0usize, 1, 999, 1999, 2000] {
            let (head, tail) = keys.split_at(cut);
            let mut forward = in_memory_summary(k, head);
            forward.merge(in_memory_summary(k, tail));
            assert_same_summary(&forward, &expected, &format!("cut = {cut}"));
            let mut backward = in_memory_summary(k, tail);
            backward.merge(in_memory_summary(k, head));
            assert_same_summary(&backward, &expected, &format!("cut = {cut}, reversed"));
        }
    }

    #[test]
    fn no_shard_memory_is_reserved_before_the_first_key() {
        // A shard size far beyond any real stream must not allocate up
        // front.
        let counter = ShardedCounter::<u128>::new(8, usize::MAX);
        let summary = counter.finalize();
        assert_eq!((summary.distinct(), summary.total()), (0, 0));
    }

    #[test]
    #[should_panic(expected = "shard_rows")]
    fn zero_shard_rows_rejected() {
        let _ = ShardedCounter::<u64>::new(4, 0);
    }
}
