//! Width-generic packed permutation keys.
//!
//! The flat counting pipeline never materialises a [`crate::Permutation`]:
//! each database row becomes one integer **key**, and ascending key order
//! is the permutations' lexicographic order.  This module alone decides
//! how a permutation of length `k` becomes a key:
//!
//! * k ≤ [`FIELD_MAX_K`] = 25 — 5-bit fields, position `p` of Π in
//!   field `k-1-p` (bits `5(k-1-p)..5(k-p)`), so a key is read field by
//!   field ([`PackedKey::field`]);
//! * 26 ≤ k ≤ [`crate::perm::MAX_K`] = 32 — the permutation's
//!   lexicographic (Lehmer) rank, [`crate::lehmer::rank_items`].  That
//!   is the paper's ⌈log₂ k!⌉-bit storage cost (§1, §4): 32! < 2¹¹⁸, so
//!   every rank fits a `u128`.
//!
//! Both encodings are injective and monotone in lexicographic order, so
//! sorting and run-scanning keys counts permutations exactly, and the
//! sorted distinct keys are already in codebook order.  [`pack_perm`]
//! packs (the fused rank tile packs its rows through the same code) and
//! a crate-private decoder inverts it.
//!
//! [`PackedKey`] abstracts the key's machine word so the same
//! monomorphized kernels run at two widths:
//!
//! * `u64` — k ≤ 12 (`5·12 = 60 ≤ 64` bits), the historical fast path;
//! * `u128` — every other k ≤ 32.
//!
//! The trait is **sealed**: exactly these two widths exist, and every
//! consumer dispatches over them once per workload through
//! [`for_packed_k!`](crate::for_packed_k) so the per-row loops stay
//! branch-free.  Code outside this module must derive shifts and masks
//! through [`PackedKey::elem_shift`] / [`PackedKey::key_bits`] /
//! [`PackedKey::field`] rather than spelling the field width; dplint's
//! `key-width` pass requires a `// width:` proof comment at every
//! `BITS_PER_ELEM` call site to keep that discipline auditable.

use crate::lehmer;
use crate::perm::{Permutation, MAX_K};
use std::fmt::Debug;
use std::hash::Hash;
use std::ops::{BitAnd, BitOr, BitOrAssign, Shl, Shr};

mod sealed {
    /// Closed world: packed keys are exactly `u64` and `u128`.
    pub trait Sealed {}
    impl Sealed for u64 {}
    impl Sealed for u128 {}
}

/// Largest k whose key holds 5-bit fields: `⌊128 / 5⌋` = 25.  Longer
/// permutations are keyed by their Lehmer rank.
// width: 25 fields of 5 bits fill 125 of a u128's 128 bits.
pub const FIELD_MAX_K: usize = (u128::BITS / <u128 as PackedKey>::BITS_PER_ELEM) as usize;

/// An unsigned machine word holding a packed permutation key.
///
/// Implemented by `u64` (k ≤ 12) and `u128` (k ≤ 32) only — the trait
/// is sealed.  All bit arithmetic the pipeline needs is expressed
/// through this surface, so the radix sorter, counters, codebooks, and
/// the fused rank-tile packer are written once and monomorphized per
/// width.  Lehmer ranks enter and leave the word through its `u128`
/// conversions.
pub trait PackedKey:
    sealed::Sealed
    + Copy
    + Ord
    + Eq
    + Hash
    + Debug
    + Default
    + Send
    + Sync
    + 'static
    + Shl<u32, Output = Self>
    + Shr<u32, Output = Self>
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitOrAssign
    + Into<u128>
    + TryFrom<u128>
{
    /// Total bits in the word (64 or 128).
    const BITS: u32;

    /// Bits per permutation element in the field layout.  Five bits
    /// hold any site index below [`crate::perm::MAX_K`] = 32.
    // width: the 5-bit field is the definition of the packed layout; both
    // widths share it so field arithmetic is width-independent.
    const BITS_PER_ELEM: u32 = 5;

    /// Largest permutation length whose key fits this word (12 for
    /// `u64`, 32 = [`MAX_K`] for `u128`).
    const MAX_K: usize;

    /// The all-zero key (the empty permutation's packing).
    const ZERO: Self;

    /// Widens a permutation element (a site index `< 32`) into the word.
    fn from_elem(e: u8) -> Self;

    /// The low 64 bits of the word — digit and field extraction narrows
    /// through this so the scalar loops do 64-bit arithmetic at both
    /// widths.
    fn low64(self) -> u64;

    /// Bit offset of the field at position `pos`.
    #[inline]
    fn elem_shift(pos: usize) -> u32 {
        // width: positions map to fields at a fixed 5-bit stride.
        Self::BITS_PER_ELEM * pos as u32
    }

    /// Significant bits of a packed permutation of length `k` — the
    /// radix sorter's bound: `5k` in the field layout, ⌈log₂ k!⌉ for a
    /// Lehmer-rank key (98 bits at k = 28).
    #[inline]
    fn key_bits(k: usize) -> u32 {
        if k <= FIELD_MAX_K {
            // width: k fields of 5 bits each; positions above k are zero.
            Self::BITS_PER_ELEM * k as u32
        } else {
            lehmer::rank_bits(k)
        }
    }

    /// The element stored at field `pos` (the inverse of packing one
    /// field).  Meaningful for field-layout keys (k ≤ [`FIELD_MAX_K`]).
    #[inline]
    fn field(self, pos: usize) -> u8 {
        ((self >> Self::elem_shift(pos)).low64() & 0x1F) as u8
    }
}

impl PackedKey for u64 {
    const BITS: u32 = u64::BITS;
    // width: ⌊64 / 5⌋ = 12 fields fit a u64.
    const MAX_K: usize = (u64::BITS / Self::BITS_PER_ELEM) as usize;
    const ZERO: Self = 0;

    #[inline]
    fn from_elem(e: u8) -> Self {
        u64::from(e)
    }

    #[inline]
    fn low64(self) -> u64 {
        self
    }
}

impl PackedKey for u128 {
    const BITS: u32 = u128::BITS;
    // Fields up to FIELD_MAX_K, then Lehmer ranks below 32! < 2¹¹⁸.
    const MAX_K: usize = MAX_K;
    const ZERO: Self = 0;

    #[inline]
    fn from_elem(e: u8) -> Self {
        u128::from(e)
    }

    #[inline]
    fn low64(self) -> u64 {
        self as u64
    }
}

/// The key of the position-ordered elements `items` (a permutation of
/// `0..items.len()`, `len ≤ K::MAX_K`): fields for k ≤ [`FIELD_MAX_K`],
/// the Lehmer rank above.  The branch is on the length alone, so a
/// caller slicing a constant `k` compiles to one encoding.
#[inline]
pub(crate) fn pack_items<K: PackedKey>(items: &[u8]) -> K {
    if items.len() > FIELD_MAX_K {
        // Only u128 keys hold k > FIELD_MAX_K, and every rank fits them.
        return K::try_from(lehmer::rank_items(items)).ok().expect("rank keys are u128");
    }
    let mut key = K::ZERO;
    for &site in items {
        key = (key << K::elem_shift(1)) | K::from_elem(site);
    }
    key
}

/// Packs a permutation into its **lexicographic** key: ascending
/// integer order on keys of a fixed length coincides with
/// [`Permutation`]'s lexicographic order, at either [`PackedKey`] width.
/// For k ≤ [`FIELD_MAX_K`] position `p` lives in field `k-1-p`, so
/// position 0 occupies the most significant occupied field; above it
/// the key is the Lehmer rank.
///
/// Public so key-caching consumers (the flat index searcher) can derive
/// keys from stored permutations; panics are impossible for any valid
/// `Permutation` with `len() ≤ K::MAX_K` in debug (longer inputs
/// silently alias in release — callers dispatch widths first).
pub fn pack_perm<K: PackedKey>(p: &Permutation) -> K {
    debug_assert!(p.len() <= K::MAX_K, "permutation too long for this key width");
    pack_items(p.as_slice())
}

/// Inverse of [`pack_perm`] for a known length `k`.
pub(crate) fn decode_packed<K: PackedKey>(key: K, k: usize) -> Permutation {
    if k > FIELD_MAX_K {
        return lehmer::unrank(k, key.into());
    }
    let mut items = [0u8; MAX_K];
    for (pos, slot) in items[..k].iter_mut().enumerate() {
        *slot = key.field(k - 1 - pos);
    }
    Permutation::from_slice(&items[..k]).expect("packed key decodes to a permutation")
}

/// Dispatches a block of code over the packed-key width that fits `k`.
///
/// The first arm binds the chosen width to a caller-named type parameter
/// and runs once with `u64` (k ≤ 12) or `u128` (k ≤ 32 = [`MAX_K`]);
/// the `_` arm runs only for k > `MAX_K`, which no permutation has.
/// Each workload dispatches **once**, so the monomorphized kernels under
/// the arm contain no width branches:
///
/// ```
/// use dp_permutation::key::PackedKey;
/// let k = 16;
/// let max_k = dp_permutation::for_packed_k!(k, K => K::MAX_K, _ => usize::MAX);
/// assert_eq!(max_k, 32);
/// ```
#[macro_export]
macro_rules! for_packed_k {
    ($k:expr, $K:ident => $body:expr, _ => $fallback:expr $(,)?) => {{
        let for_packed_k: usize = $k;
        if for_packed_k <= <u64 as $crate::key::PackedKey>::MAX_K {
            #[allow(non_camel_case_types)]
            type $K = u64;
            $body
        } else if for_packed_k <= <u128 as $crate::key::PackedKey>::MAX_K {
            #[allow(non_camel_case_types)]
            type $K = u128;
            $body
        } else {
            $fallback
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_and_capacities() {
        assert_eq!(<u64 as PackedKey>::BITS, 64);
        assert_eq!(<u128 as PackedKey>::BITS, 128);
        assert_eq!(<u64 as PackedKey>::MAX_K, 12);
        assert_eq!(<u128 as PackedKey>::MAX_K, 32);
        assert_eq!(FIELD_MAX_K, 25);
        // width: 5·12 and 5·25 fit their words with < 5 bits to spare.
        assert!(<u64 as PackedKey>::key_bits(<u64 as PackedKey>::MAX_K) <= 64);
        assert_eq!(<u128 as PackedKey>::key_bits(FIELD_MAX_K), 125);
        // Above the fields the bound is ⌈log₂ k!⌉.
        assert_eq!(<u128 as PackedKey>::key_bits(28), 98);
        assert_eq!(<u128 as PackedKey>::key_bits(<u128 as PackedKey>::MAX_K), 118);
    }

    fn pack_fields<K: PackedKey>(fields: &[u8]) -> K {
        let mut key = K::ZERO;
        for (pos, &f) in fields.iter().enumerate() {
            key |= K::from_elem(f) << K::elem_shift(pos);
        }
        key
    }

    #[test]
    fn field_round_trips_u64() {
        let fields: Vec<u8> = (0..12u8).rev().collect();
        let key: u64 = pack_fields(&fields);
        for (pos, &f) in fields.iter().enumerate() {
            assert_eq!(key.field(pos), f, "pos {pos}");
        }
    }

    #[test]
    fn field_round_trips_u128_above_the_u64_boundary() {
        // Fields at positions 12..25 live strictly above bit 64.
        let fields: Vec<u8> = (0..25u8).map(|i| (i * 7) % 32).collect();
        let key: u128 = pack_fields(&fields);
        for (pos, &f) in fields.iter().enumerate() {
            assert_eq!(key.field(pos), f, "pos {pos}");
        }
        assert!(key >> 64 != 0, "test must exercise the high word");
    }

    #[test]
    fn low64_truncates() {
        let key: u128 = (1u128 << 100) | 0xABCD;
        assert_eq!(key.low64(), 0xABCD);
    }

    #[test]
    fn for_packed_k_selects_by_k() {
        for (k, expected_bits) in [(0, 64), (12, 64), (13, 128), (25, 128), (26, 128), (32, 128)] {
            let bits = for_packed_k!(k, K => K::BITS, _ => 0);
            assert_eq!(bits, expected_bits, "k = {k}");
        }
        assert_eq!(for_packed_k!(33, K => K::BITS, _ => 0), 0);
    }

    #[test]
    fn lehmer_keys_order_and_round_trip_above_the_fields() {
        // Random permutations at every Lehmer-keyed k: u128 key order is
        // Permutation order, and decode inverts pack.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for k in (FIELD_MAX_K + 1)..=MAX_K {
            let mut items: Vec<u8> = (0..k as u8).collect();
            let mut perms = Vec::new();
            for _ in 0..200 {
                for i in (1..k).rev() {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    items.swap(i, (state % (i as u64 + 1)) as usize);
                }
                perms.push(Permutation::from_slice(&items).unwrap());
            }
            // Near neighbours in lexicographic order: a shared long prefix.
            perms.push(Permutation::identity(k));
            let mut tail_swapped = Permutation::identity(k).as_slice().to_vec();
            tail_swapped.swap(k - 2, k - 1);
            perms.push(Permutation::from_slice(&tail_swapped).unwrap());
            for p in &perms {
                let key: u128 = pack_perm(p);
                assert_eq!(decode_packed(key, k), *p, "k = {k}");
            }
            let mut by_perm = perms.clone();
            by_perm.sort_unstable();
            let mut by_key = perms;
            by_key.sort_unstable_by_key(pack_perm::<u128>);
            assert_eq!(by_perm, by_key, "k = {k}");
        }
        let identity = Permutation::identity(MAX_K);
        assert_eq!(pack_perm::<u128>(&identity), 0);
        assert_eq!(decode_packed(0u128, MAX_K), identity);
        let reverse: Vec<u8> = (0..MAX_K as u8).rev().collect();
        let reverse = Permutation::from_slice(&reverse).unwrap();
        let top: u128 = pack_perm(&reverse);
        assert_eq!(top, lehmer::factorial(MAX_K) - 1);
        assert_eq!(128 - top.leading_zeros(), 118);
        assert_eq!(decode_packed(top, MAX_K), reverse);
    }
}
