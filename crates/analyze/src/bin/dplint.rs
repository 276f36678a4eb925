//! `dplint` — run the workspace invariant passes and report findings.
//!
//! ```text
//! dplint [--root <dir>] [--list] [--unused-pub] [pass …]
//! ```
//!
//! With no arguments, lints the workspace containing the current
//! directory and prints one `file:line:col: [pass] message` line per
//! finding.  Naming passes restricts the report to those passes
//! (waiver-syntax errors always print).  Exit status: 0 clean, 1
//! findings, 2 usage or I/O errors.
//!
//! `--unused-pub` prints the advisory report of
//! [`dp_analyze::unused_pub`] instead, one `path:line:col name` line per
//! public item that nothing outside its own file uses, and exits 0
//! whatever it finds.

use dp_analyze::passes::PASS_NAMES;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: dplint [--root <dir>] [--list] [--unused-pub] [pass ...]";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut only: Vec<String> = Vec::new();
    let mut unused_pub = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage(),
            },
            "--list" => {
                for name in PASS_NAMES {
                    println!("{name}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--unused-pub" => unused_pub = true,
            pass if PASS_NAMES.contains(&pass) => only.push(pass.to_string()),
            other => {
                eprintln!("dplint: unknown pass or flag `{other}` (try --list)");
                return usage();
            }
        }
    }

    let root = match root {
        Some(root) => root,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(cwd) => cwd,
                Err(e) => {
                    eprintln!("dplint: cannot read current directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match dp_analyze::workspace::find_root(&cwd) {
                Some(root) => root,
                None => {
                    eprintln!("dplint: no workspace root above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    if unused_pub {
        return match dp_analyze::unused_pub::report(&root) {
            Ok(items) => {
                for item in &items {
                    println!("{item}");
                }
                eprintln!(
                    "dplint: {} public item{} used nowhere outside its own file (advisory)",
                    items.len(),
                    if items.len() == 1 { "" } else { "s" }
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("dplint: {e}");
                ExitCode::from(2)
            }
        };
    }

    let diagnostics = match dp_analyze::lint_workspace(&root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("dplint: {e}");
            return ExitCode::from(2);
        }
    };
    let mut findings = 0usize;
    for d in &diagnostics {
        // Waiver-syntax errors (pass "dplint") always print.
        if !only.is_empty() && d.pass != "dplint" && !only.iter().any(|p| p == d.pass) {
            continue;
        }
        println!("{d}");
        findings += 1;
    }
    if findings > 0 {
        eprintln!(
            "dplint: {findings} finding{} — fix the site or waive it with \
             `// dplint: allow(<pass>, reason = \"...\")`",
            if findings == 1 { "" } else { "s" }
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
