//! Smoke runs of every workload at tiny size: each emits exactly the
//! metrics `BENCHMARK.json` names, passes its output checks, and a
//! deliberately corrupted report or answer fails the run.

use std::collections::BTreeSet;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["survey_d2", "survey_d8", "serve_mixed"];

/// Metric names listed under `section` in the benchmark definition.
fn declared(section: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    names_after(body, "\"name\": \"")
}

/// Every quoted name following `marker` in `text`.
fn names_after(text: &str, marker: &str) -> BTreeSet<String> {
    text.split(marker)
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect()
}

struct Run {
    code: Option<i32>,
    result: String,
}

fn run(workload: &str, trace: u8, extra: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.5",
            "--trace",
            &trace.to_string(),
            "--tiny",
        ])
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let result = stdout.lines().last().unwrap_or_default().to_string();
    Run { code: out.status.code(), result }
}

/// Metric names in a result line.
fn emitted(result: &str) -> BTreeSet<String> {
    let metrics = &result[result.find("\"metrics\"").expect("metrics key")..];
    let chunks: Vec<&str> = metrics.split("{\"value\"").collect();
    // Each name ends the chunk before a `{"value"`; the last chunk has none.
    chunks[..chunks.len() - 1]
        .iter()
        .filter_map(|chunk| {
            let end = chunk.rfind("\": ")?;
            let start = chunk[..end].rfind('"')? + 1;
            Some(chunk[start..end].to_string())
        })
        .collect()
}

#[test]
fn every_workload_emits_every_declared_metric() {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let want = declared(section);
        for workload in WORKLOADS {
            let r = run(workload, trace, &[]);
            assert_eq!(r.code, Some(0), "{workload} trace {trace}: {}", r.result);
            assert!(r.result.starts_with("{\"correct\": true,"), "{workload}: {}", r.result);
            assert!(r.result.contains("\"failed\": 0,"), "{workload}: {}", r.result);
            assert_eq!(emitted(&r.result), want, "{workload} trace {trace}");
        }
    }
}

#[test]
fn corrupted_outputs_fail_the_run() {
    for (workload, what) in [("survey_d2", "report"), ("serve_mixed", "answer")] {
        let r = run(workload, 0, &["--corrupt", what]);
        assert_eq!(r.code, Some(1), "{workload} --corrupt {what}: {}", r.result);
        assert!(r.result.starts_with("{\"correct\": false,"), "{}", r.result);
        assert!(!r.result.contains("\"failed\": 0,"), "{}", r.result);
    }
}
