//! Factorial-base (Lehmer code) ranking of permutations.
//!
//! `rank` maps a permutation of `0..k` to its index in lexicographic order
//! (`0 ..= k!-1`); `unrank` inverts it.  Since 34! < 2¹²⁸ < 35!, `u128`
//! ranks cover every permutation this crate can represent (k ≤ 32).
//!
//! The paper's storage discussion (§1, §4) contrasts ⌈log₂ k!⌉ bits for an
//! *unrestricted* permutation — exactly the size of this rank — with the
//! much smaller ⌈log₂ N_{d,p}(k)⌉ bits needed once the space's structure
//! limits the set of achievable permutations.

use crate::perm::{Permutation, MAX_K};

/// k! as u128.
///
/// # Panics
/// Panics if `k > 34` (35! overflows u128).
pub fn factorial(k: usize) -> u128 {
    assert!(k <= 34, "{k}! overflows u128");
    (1..=k as u128).product()
}

/// Lexicographic rank of `p` among all permutations of its length.
pub fn rank(p: &Permutation) -> u128 {
    rank_items(p.as_slice())
}

/// Lexicographic rank of the position-ordered elements `items`, a
/// permutation of `0..items.len()` with `len ≤ MAX_K`, in O(k).
///
/// Horner over the Lehmer digits, `rank = rank·(k−p) + digit`, where
/// position `p`'s digit counts the smaller elements not yet placed: the
/// popcount of the unused-element mask below `items[p]`.  This is the
/// packed-key encoder for k above the 5-bit field layout (see
/// [`crate::key`]).
#[inline]
pub fn rank_items(items: &[u8]) -> u128 {
    let k = items.len();
    debug_assert!(k <= MAX_K, "k = {k} exceeds MAX_K = {MAX_K}");
    let mut unused = (1u64 << k) - 1;
    let mut rank = 0u128;
    for (p, &e) in items.iter().enumerate() {
        let bit = 1u64 << e;
        rank = rank * (k - p) as u128 + u128::from((unused & (bit - 1)).count_ones());
        unused ^= bit;
    }
    rank
}

/// The permutation of `0..k` with lexicographic rank `r`.
///
/// # Panics
/// Panics if `k > MAX_K` or `r >= k!`.
pub fn unrank(k: usize, mut r: u128) -> Permutation {
    assert!(k <= MAX_K, "k = {k} exceeds MAX_K = {MAX_K}");
    assert!(r < factorial(k), "rank {r} out of range for k = {k}");
    let mut remaining: Vec<u8> = (0..k as u8).collect();
    let mut items = Vec::with_capacity(k);
    for i in 0..k {
        let f = factorial(k - 1 - i);
        let idx = (r / f) as usize;
        r %= f;
        items.push(remaining.remove(idx));
    }
    Permutation::from_slice(&items).expect("unrank produces a valid permutation")
}

/// Number of bits needed to store an arbitrary rank for k sites:
/// ⌈log₂ k!⌉.  This is the paper's baseline permutation storage cost.
pub fn rank_bits(k: usize) -> u32 {
    let f = factorial(k);
    if f <= 1 {
        0
    } else {
        128 - (f - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factorials() {
        assert_eq!(factorial(0), 1);
        assert_eq!(factorial(1), 1);
        assert_eq!(factorial(5), 120);
        assert_eq!(factorial(12), 479_001_600);
        // 34! is the largest supported.
        assert_eq!(factorial(34) / factorial(33), 34);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn factorial_35_rejected() {
        let _ = factorial(35);
    }

    #[test]
    fn identity_has_rank_zero() {
        for k in 0..=8 {
            assert_eq!(rank(&Permutation::identity(k)), 0);
        }
    }

    #[test]
    fn reverse_has_maximal_rank() {
        let rev = Permutation::from_slice(&[4, 3, 2, 1, 0]).unwrap();
        assert_eq!(rank(&rev), factorial(5) - 1);
    }

    #[test]
    fn rank_matches_lexicographic_enumeration() {
        for k in 0..=6usize {
            for (expected, p) in Permutation::all(k).enumerate() {
                assert_eq!(rank(&p), expected as u128, "k={k} perm={p}");
            }
        }
    }

    #[test]
    fn unrank_inverts_rank() {
        for k in [0, 1, 2, 5, 7] {
            for r in 0..factorial(k).min(500) {
                let p = unrank(k, r);
                assert_eq!(rank(&p), r, "k={k} r={r}");
            }
        }
    }

    #[test]
    fn rank_unrank_large_k() {
        // Spot-check k = 20 with a scattered set of ranks.
        let f = factorial(20);
        for r in [0u128, 1, 12345, f / 2, f - 1] {
            assert_eq!(rank(&unrank(20, r)), r);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unrank_out_of_range_rejected() {
        let _ = unrank(3, 6);
    }

    #[test]
    fn rank_bits_matches_log2_factorial() {
        assert_eq!(rank_bits(0), 0);
        assert_eq!(rank_bits(1), 0);
        assert_eq!(rank_bits(2), 1);
        assert_eq!(rank_bits(3), 3); // 6 values -> 3 bits
        assert_eq!(rank_bits(4), 5); // 24 -> 5 bits
        assert_eq!(rank_bits(12), 29); // 479001600 < 2^29
    }
}
