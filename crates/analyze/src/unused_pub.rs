//! `dplint --unused-pub` — an advisory report of public items that
//! nothing outside their own file uses.
//!
//! It lists every plain-`pub` `fn`, `struct`, `enum`, `trait`, `const`
//! and `type` defined in house code (the non-vendor members' `src/`
//! trees and the root `src/`) whose name appears in no non-test code of
//! any other scanned file.  The scanned files are the house sources plus
//! [`REFERENCE_DIRS`]: examples, the criterion benches and the
//! standalone benchmark package call the public API without being
//! workspace `src/` trees.
//!
//! What does not count as a use:
//!
//! - test code: `#[cfg(test)]`/`#[test]` regions, and the `tests/`
//!   directories, which are never scanned — so an item that only its
//!   tests call is reported;
//! - a `pub use` re-export, which publishes a name without using it.
//!   Private `use` imports do count: the compiler already rejects an
//!   unused one under `-D warnings`.
//!
//! Matching is by name, not by resolved path, so an item whose name is
//! also spelled elsewhere for something else is not reported.  The
//! report is advisory: it lists candidates for deletion and never fails
//! the gate.

use crate::lexer::TokenKind;
use crate::source::SourceFile;
use crate::workspace;
use std::collections::BTreeSet;
use std::fmt;
use std::io;
use std::path::Path;

/// Trees outside the workspace members' `src/` that use the public API.
pub const REFERENCE_DIRS: &[&str] = &["examples", "crates/bench/benches", "perfbench/src"];

/// The item kinds the report covers.
const ITEM_KEYWORDS: &[&str] = &["fn", "struct", "enum", "trait", "const", "type"];

/// Qualifiers that may sit between `pub` and the item keyword.
const QUALIFIERS: &[&str] = &["const", "unsafe", "async", "extern"];

/// One public item and where it is defined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PubItem {
    /// Workspace-relative path of the defining file.
    pub path: String,
    /// 1-based line of the item's name.
    pub line: u32,
    /// 1-based byte column of the item's name.
    pub col: u32,
    /// The item's name.
    pub name: String,
}

impl fmt::Display for PubItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{} {}", self.path, self.line, self.col, self.name)
    }
}

/// The plain-`pub` items `file` defines outside its test code.
fn pub_items(file: &SourceFile) -> Vec<PubItem> {
    let code = &file.code;
    let mut items = Vec::new();
    for (i, tok) in code.iter().enumerate() {
        // `pub(crate)` and friends are not public.
        if !tok.is_ident("pub") || code.get(i + 1).is_some_and(|t| t.is_punct(b'(')) {
            continue;
        }
        // `const` qualifies only `const fn`; alone it is the item keyword.
        let qualifier = |j: usize| {
            code.get(j).is_some_and(|t| {
                t.kind == TokenKind::Str || QUALIFIERS.iter().any(|q| t.is_ident(q))
            })
        };
        let mut j = i + 1;
        while qualifier(j)
            && (qualifier(j + 1) || code.get(j + 1).is_some_and(|t| t.is_ident("fn")))
        {
            j += 1;
        }
        let (Some(keyword), Some(name)) = (code.get(j), code.get(j + 1)) else { continue };
        let is_item = ITEM_KEYWORDS.iter().any(|k| keyword.is_ident(k));
        let named = name.kind == TokenKind::Ident && name.text != "_";
        if is_item && named && !file.in_test_code(name.line) {
            items.push(PubItem {
                path: file.rel_path.clone(),
                line: name.line,
                col: name.col,
                name: name.text.clone(),
            });
        }
    }
    items
}

/// Identifiers `file` uses in non-test code, `pub use` re-exports
/// excluded.
fn used_names(file: &SourceFile) -> BTreeSet<&str> {
    let code = &file.code;
    let mut names = BTreeSet::new();
    let mut i = 0;
    while i < code.len() {
        let tok = &code[i];
        if tok.is_ident("pub") {
            // Skip the visibility, then a whole `use …;` if one follows.
            let mut j = i + 1;
            if code.get(j).is_some_and(|t| t.is_punct(b'(')) {
                while code.get(j).is_some_and(|t| !t.is_punct(b')')) {
                    j += 1;
                }
                j += 1;
            }
            if code.get(j).is_some_and(|t| t.is_ident("use")) {
                while code.get(i).is_some_and(|t| !t.is_punct(b';')) {
                    i += 1;
                }
                continue;
            }
        }
        if tok.kind == TokenKind::Ident && !file.in_test_code(tok.line) {
            names.insert(tok.text.as_str());
        }
        i += 1;
    }
    names
}

/// The items defined in `defs` whose names no other file of `defs` or
/// `refs` uses, in path and line order.
pub fn unused(defs: &[SourceFile], refs: &[SourceFile]) -> Vec<PubItem> {
    let files: Vec<&SourceFile> = defs.iter().chain(refs).collect();
    let used: Vec<(&str, BTreeSet<&str>)> =
        files.iter().map(|f| (f.rel_path.as_str(), used_names(f))).collect();
    let mut out: Vec<PubItem> = defs
        .iter()
        .flat_map(pub_items)
        .filter(|item| {
            !used
                .iter()
                .any(|(path, names)| *path != item.path && names.contains(item.name.as_str()))
        })
        .collect();
    out.sort_by(|a, b| (a.path.as_str(), a.line, a.col).cmp(&(b.path.as_str(), b.line, b.col)));
    out
}

/// Loads the workspace at `root` plus [`REFERENCE_DIRS`] and reports
/// the unused public items of the house code.
pub fn report(root: &Path) -> io::Result<Vec<PubItem>> {
    let ws = workspace::load(root)?;
    let mut refs = Vec::new();
    for dir in REFERENCE_DIRS {
        refs.extend(workspace::load_dir(&ws.root, &ws.root.join(dir))?);
    }
    Ok(unused(&ws.files, &refs))
}
