//! # dp-analyze — `dplint`, the workspace invariant linter
//!
//! The property suites (`tests/survey_equivalence.rs`,
//! `tests/serve_robustness.rs`, …) enforce this workspace's contracts
//! *dynamically* — after a violation is already written.  `dplint`
//! rejects the violating **source pattern** instead, so a whole class of
//! regressions dies before a single test runs.  It is a hand-rolled
//! comment/string/raw-string-aware Rust tokenizer ([`lexer`]), a tiny
//! TOML-subset reader for manifests ([`manifest`]), a JSON validator
//! ([`jsonlint`]), and a pass framework ([`passes`]) with per-site
//! waivers and `file:line:col` diagnostics.
//!
//! ## The invariant catalogue
//!
//! * **`float-reassoc`** — *bit-identity.* Flat, nested, and parallel
//!   paths reproduce the paper's §5 counts and floating-point
//!   Huffman/entropy sums to the bit.  That survives only while every
//!   float accumulation has a source-visible order, so in the
//!   bit-identity modules `.sum()`/`.product()` must carry an explicit
//!   integer turbofish (proving exactness) and `mul_add` (fused
//!   rounding) is banned; float reductions are written as explicit
//!   sequential loops.
//! * **`hot-path-hash`** — *determinism and speed of the counting
//!   engine.*  The counting, codebook and storage modules run on
//!   radix-sorted packed keys instead of hash interning;
//!   `HashMap`-family containers must not creep back into them.
//! * **`panic-boundary`** — *protocol totality.* `distperm serve`
//!   contains garbage, panics, and overload as reply lines; inside
//!   `crates/index/src/serve/` only `isolate.rs` (the `catch_unwind`
//!   boundary) may panic outside `#[cfg(test)]`.
//! * **`atomic-ordering`** — every atomic `Ordering::*` use carries an
//!   adjacent `// ordering:` justification; memory-ordering bugs are the
//!   one class the deterministic property suites cannot surface.
//! * **`key-width`** — *the width-generic packed layout.* Field
//!   arithmetic on packed keys goes through
//!   `PackedKey::{elem_shift, key_bits, field}`; any raw `BITS_PER_ELEM`
//!   use must carry an adjacent `// width:` proof that its fields fit
//!   the key word — an off-by-one there corrupts one width while the
//!   other stays green.
//! * **`crate-hygiene`** — every crate root declares
//!   `#![forbid(unsafe_code)]` (the workspace has zero `unsafe`; frozen
//!   at the strongest level), and library code never prints to the
//!   console.
//! * **`vendored-deps`** — *the offline-build guarantee.* crates.io is
//!   unreachable in this environment; every manifest dependency must
//!   resolve to a workspace path or a stand-in under `vendor/`.
//! * **`bench-citations`** — every `BENCH_*.json` baseline the ROADMAP
//!   cites exists and parses as JSON lines (replaces the old bash/jq
//!   guard in `scripts/check.sh`, with real `file:line:col`
//!   diagnostics).
//!
//! ## Waivers
//!
//! A finding is silenced per site with
//!
//! ```text
//! // dplint: allow(<pass>, reason = "why this site is genuinely exempt")
//! ```
//!
//! on the offending line or the comment block directly above it.  A
//! waiver **without a reason is itself an error**, as is one naming an
//! unknown pass — the waiver log is part of the invariant documentation.
//!
//! ## Running
//!
//! `scripts/check.sh` runs the `dplint` binary over the whole workspace
//! (before clippy, so invariant findings surface first) and fails on any
//! finding; `cargo run -p dp-analyze --bin dplint` does the same by
//! hand.  The workspace is self-hostingly clean: `crates/analyze` is
//! scanned like every other crate.

#![forbid(unsafe_code)]

pub mod jsonlint;
pub mod lexer;
pub mod manifest;
pub mod passes;
pub mod source;
pub mod unused_pub;
pub mod workspace;

pub use source::{Diagnostic, SourceFile};
pub use workspace::Workspace;

/// Loads the workspace at `root` and runs every pass.
pub fn lint_workspace(root: &std::path::Path) -> std::io::Result<Vec<Diagnostic>> {
    let ws = workspace::load(root)?;
    Ok(passes::run_all(&ws))
}
