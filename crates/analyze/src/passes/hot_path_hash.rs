//! `hot-path-hash` — no hash/tree containers in the counting, codebook
//! and storage modules.
//!
//! Every production count and survey (flat and generic per-point), every
//! codebook and both permutation stores run on radix-sorted packed keys
//! and the sorted-key `PackedCodebook`; the scoped modules are exactly
//! those.  A `HashMap` creeping back in costs the iteration-order
//! determinism and the cache behaviour the engine's speed and
//! bit-identity rest on.  The hash reference oracles live outside the
//! scope (`counter.rs`), except the `Codebook` interner in `encoding.rs`,
//! which keeps explicit waivers.

use crate::source::{Diagnostic, SourceFile};

pub const NAME: &str = "hot-path-hash";

const BANNED: &[&str] = &[
    "HashMap",
    "HashSet",
    "BTreeMap",
    "BTreeSet",
    "FxHashMap",
    "FxHashSet",
    "FxHasher",
    "FxBuildHasher",
];

pub fn check(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for tok in &file.code {
        if BANNED.iter().any(|b| tok.is_ident(b)) {
            file.finding(
                NAME,
                tok,
                true,
                format!(
                    "`{}` in a counting/codebook/storage module; these paths use \
                     sorted-run scans and packed codebooks — hash/tree containers were \
                     deliberately evicted (waive only for a reference oracle, with a \
                     reason)",
                    tok.text
                ),
                out,
            );
        }
    }
}
