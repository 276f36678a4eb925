//! Loads the workspace dplint scans: member manifests, every `.rs` file
//! under the members' `src/` trees, and the ROADMAP.
//!
//! `vendor/` members are deliberately split: their **manifests** are
//! audited (the offline-build guarantee covers them) but their sources
//! are not linted — they are API stand-ins for external crates, not
//! house code bound by the bit-identity and hygiene invariants.

use crate::manifest::{parse_manifest, Manifest};
use crate::source::SourceFile;
use std::io;
use std::path::{Path, PathBuf};

/// Everything the passes look at, loaded once.
pub struct Workspace {
    /// Absolute workspace root (directory holding the root `Cargo.toml`).
    pub root: PathBuf,
    /// Lexed house sources (members' `src/` trees plus the root `src/`).
    pub files: Vec<SourceFile>,
    /// Parsed manifests: root + every member, vendor included.
    pub manifests: Vec<Manifest>,
    /// Workspace-relative paths of non-vendor crate roots (`…/src/lib.rs`).
    pub lib_roots: Vec<String>,
    /// `ROADMAP.md` content, if present.
    pub roadmap: Option<String>,
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/")
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> =
        std::fs::read_dir(dir)?.collect::<io::Result<Vec<_>>>()?.into_iter().collect();
    entries.sort_by_key(std::fs::DirEntry::path);
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Loads the workspace rooted at `root` (must hold the root `Cargo.toml`).
pub fn load(root: &Path) -> io::Result<Workspace> {
    let root = root.canonicalize()?;
    let root_manifest_text = std::fs::read_to_string(root.join("Cargo.toml"))?;
    let root_manifest = parse_manifest("Cargo.toml", &root_manifest_text);
    if !root_manifest.is_workspace_root {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{} is not a workspace root", root.join("Cargo.toml").display()),
        ));
    }

    let mut manifests = Vec::new();
    let mut lib_roots = Vec::new();
    let mut src_dirs = vec![root.join("src")];
    // The root manifest is also the façade package with `src/lib.rs`.
    lib_roots.push("src/lib.rs".to_string());
    let members = root_manifest.members.clone();
    manifests.push(root_manifest);
    for member in &members {
        let dir = root.join(member);
        let manifest_path = dir.join("Cargo.toml");
        let text = std::fs::read_to_string(&manifest_path)?;
        manifests.push(parse_manifest(&rel(&root, &manifest_path), &text));
        if !member.starts_with("vendor/") {
            lib_roots.push(format!("{member}/src/lib.rs"));
            src_dirs.push(dir.join("src"));
        }
    }

    let mut files = Vec::new();
    for dir in &src_dirs {
        files.extend(load_dir(&root, dir)?);
    }

    let roadmap = std::fs::read_to_string(root.join("ROADMAP.md")).ok();
    Ok(Workspace { root, files, manifests, lib_roots, roadmap })
}

/// Lexes every `.rs` file under `dir` (none if it does not exist), with
/// paths relative to the workspace `root`.
pub fn load_dir(root: &Path, dir: &Path) -> io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    walk_rs(dir, &mut paths)?;
    paths
        .iter()
        .map(|path| Ok(SourceFile::parse(&rel(root, path), &std::fs::read_to_string(path)?)))
        .collect()
}

/// Walks upward from `start` to the nearest directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if parse_manifest("Cargo.toml", &text).is_workspace_root {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
