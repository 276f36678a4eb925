//! # perfbench — the repository benchmark
//!
//! Times the user paths of `distperm` through the library entry points
//! the CLI calls — `survey`, `count`, `build`, `search --load` and
//! `serve` — on generated inputs, checks every output, and prints one
//! JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload survey_d2 --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Each metric is a median over repetitions within the run.  The timed
//! phases run interleaved, and on a virtual machine whose host steals
//! CPU time the repetitions taken while it stole the most are set
//! aside (see `calm_median`); every run prints how much was stolen.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml` runs
//! every workload at tiny size and checks the metric names against
//! `BENCHMARK.json` and that corrupted outputs fail the run.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` is the separate traced run: it rebuilds each path from
//! the layers' public functions with a span around every call, reports
//! per-layer metrics, span coverage and tracing overhead, and writes the
//! spans to `perfbench/work/spans-<workload>-<seed>.jsonl`.
//!
//! Workloads (`--workload`), each with its seed as the only source of
//! inputs and 2 worker threads:
//!
//! - `survey_d2`: 10⁶ uniform points in [0,1]², few distinct
//!   permutations, so rank+pack dominates and the codebook/Huffman tail
//!   is nearly idle;
//! - `survey_d8`: 10⁶ uniform points in [0,1]⁸, nearly every point its
//!   own permutation at k ≥ 16, so distances, sorting, the tail, the
//!   k = 28 hash arm and the 184 MB parse do the work;
//! - `serve_mixed`: 5·10⁴ uniform points in [0,1]⁸ behind a stored
//!   `flatperm:12` index serving a mix of exact, budgeted and range
//!   queries in batches of eight.
//!
//! Every workload runs every path, so every metric is reported on every
//! workload; the survey workloads serve from an index over their first
//! 2·10⁴ points.  `--tiny` shrinks the inputs for smoke runs and
//! `--corrupt report|answer` damages one output before it is checked.
//! The exit code is non-zero when any check fails.

#![forbid(unsafe_code)]

mod index;
mod report;
mod serve;
mod stats;
mod survey;
mod trace;

use dp_datasets::sisap_io;
use dp_datasets::VectorSet;
use dp_index::serve::LineParser;
use dp_index::FlatDistPermIndex;
use dp_metric::L2;
use report::{Checks, Metrics};
use serve::Inject;
use stats::{median, percentile, repeat_for, timed};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;

/// Worker threads on every path.
pub const THREADS: usize = 2;
/// Site counts of the survey.
pub const SURVEY_KS: [usize; 6] = [4, 8, 12, 16, 20, 24];
/// Site count of the count path (beyond the packed widths: hash arm).
pub const COUNT_K: usize = 28;
/// Sites of the served `flatperm` index.
pub const INDEX_K: usize = 12;
/// Neighbours per k-NN query.
pub const KNN: usize = 3;
/// Scan budget of the budgeted queries.
pub const FRAC: f64 = 0.05;

/// Seed offset of the query set.
const QUERY_SEED: u64 = 0x517E_C0DE;
/// Batches per closed-loop session.
const CLOSED_BATCHES: usize = 128;
/// Least batches per open-loop session: ≥ 10 beyond its p95.
const OPEN_MIN_BATCHES: usize = 200;
/// Offered traffic per open-loop session, seconds.
const OPEN_SESSION_SECS: f64 = 1.0;
/// Open-loop offered rate as a share of the closed-loop capacity.
const OPEN_LOAD: f64 = 0.5;
/// Queries per batch in the stealing/parallel batch comparison.
const MIXED_BATCH: usize = 64;

/// One workload's inputs and how its run time is shared among phases.
struct Workload {
    name: &'static str,
    n: usize,
    dim: usize,
    /// Points behind the served index (a prefix of the database).
    index_n: usize,
    queries: usize,
    /// Whether set-up is the parse (surveys) or the store load (serve).
    parse_is_setup: bool,
    /// Shares of `--seconds`: survey, count, build, search, closed loop,
    /// open loop, set-up.
    shares: [f64; 7],
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "survey_d2",
        n: 1_000_000,
        dim: 2,
        index_n: 20_000,
        queries: 512,
        parse_is_setup: true,
        shares: [0.28, 0.14, 0.04, 0.1, 0.14, 0.24, 0.06],
    },
    Workload {
        name: "survey_d8",
        n: 1_000_000,
        dim: 8,
        index_n: 20_000,
        queries: 512,
        parse_is_setup: true,
        shares: [0.28, 0.14, 0.04, 0.1, 0.14, 0.24, 0.06],
    },
    Workload {
        name: "serve_mixed",
        n: 50_000,
        dim: 8,
        index_n: 50_000,
        queries: 512,
        parse_is_setup: false,
        shares: [0.04, 0.03, 0.08, 0.15, 0.19, 0.49, 0.02],
    },
];

struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    corrupt: Option<String>,
    /// Child mode: measure peak memory over the database file given.
    rss_probe: Option<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut tiny, mut corrupt) =
        (None, None, false, false, None);
    let mut rss_probe = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                };
            }
            "--tiny" => tiny = true,
            "--corrupt" => corrupt = Some(value()?),
            "--rss-probe" => rss_probe = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let name = workload.ok_or("missing --workload")?;
    let mut workload = WORKLOADS
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    if tiny {
        workload.n = if workload.parse_is_setup { 20_000 } else { 8_000 };
        workload.index_n = 4_000;
        workload.queries = 64;
    }
    if let Some(c) = &corrupt {
        if c != "report" && c != "answer" {
            return Err(format!("--corrupt takes report or answer, got `{c}`"));
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Options {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace,
        tiny,
        corrupt,
        rss_probe,
    })
}

/// The machine stamp: numbers compare only within one stamp.
fn machine_stamp(opts: &Options) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    let git = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "none (not a git checkout)".to_string(), |s| s.trim().to_string());
    let flags = env!("PERFBENCH_RUSTFLAGS");
    let target_cpu =
        flags.split_whitespace().find_map(|f| f.strip_prefix("target-cpu=")).unwrap_or("default");
    format!(
        "nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" git={git} target-cpu={target_cpu} threads={THREADS} seed={} workload={}",
        env!("PERFBENCH_RUSTC"),
        opts.seed,
        opts.workload.name
    )
}

/// Generated and built files of one run, removed when it ends.
struct Files {
    db: PathBuf,
    store: PathBuf,
    rebuilt: PathBuf,
}

impl Files {
    fn new(work: &Path, opts: &Options) -> Self {
        let stem = format!("{}-{}-{}", opts.workload.name, opts.seed, std::process::id());
        Self {
            db: work.join(format!("{stem}.vec")),
            store: work.join(format!("{stem}.dps")),
            rebuilt: work.join(format!("{stem}-rebuilt.dps")),
        }
    }
}

impl Drop for Files {
    fn drop(&mut self) {
        for path in [&self.db, &self.store, &self.rebuilt] {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Runs `distperm` in-process on `argv`.
fn cli(argv: &[String]) -> String {
    let mut out = Vec::new();
    match dp_cli::run(argv, &mut out) {
        Ok(()) => String::from_utf8(out).expect("distperm prints UTF-8"),
        Err(e) => format!("distperm failed: {e}"),
    }
}

/// Resets the peak-RSS watermark to the current resident size.
fn reset_peak_rss() {
    // Where the reset is refused, the watermark reads NaN below.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory since the last reset, MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Everything set up before the timed phases.
struct Prepared {
    db: VectorSet,
    points: VectorSet,
    index: FlatDistPermIndex<L2>,
    traffic: index::Traffic,
    store_bytes: u64,
    survey_ref: String,
    count_ref: String,
    file_bytes: u64,
}

/// Generates the inputs from the seed, takes the reference outputs,
/// and loads the database and the index built and saved from it.
fn prepare(opts: &Options, files: &Files, checks: &mut Checks) -> Prepared {
    let w = &opts.workload;
    let generated = dp_datasets::uniform_unit_cube_flat(w.n, w.dim, opts.seed);
    let mut file = std::fs::File::create(&files.db).expect("work directory is writable");
    sisap_io::write_vectors_flat(&mut file, &generated).expect("database file is writable");
    // Flush now, so the write-back of a file this size does not compete
    // with the timed phases.
    file.sync_all().expect("database file syncs");
    drop(file);
    let file_bytes = std::fs::metadata(&files.db).map_or(0, |m| m.len());
    let path = files.db.to_str().expect("work path is UTF-8");
    let survey_ref = cli(&survey::survey_argv(path));
    let count_ref = cli(&survey::count_argv(path));

    let db = sisap_io::read_vectors_file_flat(&files.db).expect("generated file parses");
    checks.check(db.as_flat() == generated.as_flat() && db.dim() == w.dim, || {
        "parsed database differs from the generated one".to_string()
    });
    drop(generated);

    let points = VectorSet::from_raw(w.dim, db.as_flat()[..w.index_n * w.dim].to_vec());
    let (built, store_bytes) = index::build_and_save(points.clone(), &files.store);
    let queries = dp_datasets::uniform_unit_cube_flat(w.queries, w.dim, opts.seed ^ QUERY_SEED);
    let traffic = index::traffic(&built, queries);
    index::check_against_linear_scan(checks, &points, &traffic, 16);
    drop(built);
    let stored = dp_store::load_store(&files.store).ok();
    let index = stored.and_then(index::as_l2).expect("the saved store loads back as an L2 index");
    Prepared { db, points, index, traffic, store_bytes, survey_ref, count_ref, file_bytes }
}

/// One set-up as a user pays it: the SISAP parse of the database file
/// (surveys) or `load_store` to a ready index (serve).  Seconds.
fn setup_once(opts: &Options, files: &Files) -> f64 {
    if opts.workload.parse_is_setup {
        timed(|| sisap_io::read_vectors_file_flat(&files.db).expect("database file parses")).1
    } else {
        timed(|| dp_store::load_store(&files.store).expect("store loads")).1
    }
}

/// Damages `text` when this is the repetition the smoke run corrupts.
fn maybe_corrupt(opts: &Options, what: &str, rep: usize, mut text: String) -> String {
    if rep == 0 && opts.corrupt.as_deref() == Some(what) {
        text.push('!');
    }
    text
}

fn inject(opts: &Options) -> Inject {
    if opts.corrupt.as_deref() == Some("answer") {
        Inject::Answer
    } else {
        Inject::None
    }
}

fn budget(opts: &Options, phase: usize) -> Duration {
    Duration::from_secs_f64(opts.seconds * opts.workload.shares[phase])
}

/// One closed-loop session; returns its capacity in batches/s.
fn closed_session(opts: &Options, p: &Prepared, checks: &mut Checks) -> f64 {
    let st = serve::closed_loop(&p.index, &p.traffic, CLOSED_BATCHES, inject(opts));
    checks.tally(st.sent, st.failed, || st.first_failure.clone().unwrap_or_default());
    CLOSED_BATCHES as f64 / st.wall
}

/// One open-loop session at `rate` batches/s.
fn open_session(p: &Prepared, batches: usize, rate: f64, checks: &mut Checks) -> serve::LoopStats {
    let st = serve::open_loop(&p.index, &p.traffic, batches, rate, Inject::None);
    checks.tally(st.sent, st.failed, || st.first_failure.clone().unwrap_or_default());
    st
}

/// CPU time the host has stolen from this virtual machine, and all CPU
/// time, in ticks (`/proc/stat`); `None` where the kernel does not say.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).map_while(|f| f.parse().ok()).collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Share of CPU time stolen by the host since `since`; 0 where unknown.
fn steal_since(since: Option<(u64, u64)>) -> f64 {
    match (since, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// The median over the calmer half of the repetitions: those during
/// which the host stole the least CPU time from this machine.  A
/// repetition slowed by another tenant measures the host, not the
/// program.
fn calm_median(values: &[f64], steal: &[f64]) -> (f64, usize) {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let calm: Vec<f64> = order[..values.len().div_ceil(2)].iter().map(|&i| values[i]).collect();
    (median(&calm), calm.len())
}

/// Peak resident memory of one pass over every timed path, measured
/// in a fresh copy of this program (`--rss-probe`) so the allocator's
/// history of earlier repetitions does not show in it.
fn probe_peak_rss(opts: &Options, files: &Files) -> Option<f64> {
    let mut cmd = std::process::Command::new(std::env::current_exe().ok()?);
    cmd.args([
        "--workload",
        opts.workload.name,
        "--seed",
        &opts.seed.to_string(),
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    cmd.arg("--rss-probe").arg(&files.db);
    if opts.tiny {
        cmd.arg("--tiny");
    }
    let out = cmd.stderr(std::process::Stdio::inherit()).output().ok()?;
    let stdout = String::from_utf8(out.stdout).ok()?;
    let peak = stdout.lines().find_map(|l| l.strip_prefix("peak_rss_mib "))?.parse::<f64>().ok()?;
    (out.status.success() && peak.is_finite()).then_some(peak)
}

/// The `--rss-probe` child: loads what the parent set up, resets the
/// peak watermark, runs each path once, and reads the peak.
fn rss_probe(opts: &Options, db_path: &Path) -> f64 {
    let w = &opts.workload;
    let db = sisap_io::read_vectors_file_flat(db_path).expect("database file parses");
    let store = dp_store::load_store(&db_path.with_extension("dps")).ok();
    let index = store.and_then(index::as_l2).expect("the saved store loads");
    let queries = dp_datasets::uniform_unit_cube_flat(w.queries, w.dim, opts.seed ^ QUERY_SEED);
    let traffic = index::traffic(&index, queries);
    let points = VectorSet::from_raw(w.dim, db.as_flat()[..w.index_n * w.dim].to_vec());
    let rebuilt = db_path.with_extension("probe.dps");
    reset_peak_rss();
    std::hint::black_box(survey::run_survey(&db, &survey::survey_config()));
    std::hint::black_box(survey::run_count(&db));
    drop(index::build_and_save(points, &rebuilt));
    let _ = std::fs::remove_file(&rebuilt);
    std::hint::black_box(index::search(&index, &traffic, traffic.len()));
    serve::closed_loop(&index, &traffic, CLOSED_BATCHES, Inject::None);
    peak_rss_mib()
}

/// Least repetitions of each timed phase of the end-to-end run: survey,
/// count, build, search, closed-loop session, open-loop session, set-up.
const MIN_REPS: [usize; 7] = [3, 3, 3, 5, 3, 3, 3];

/// The end-to-end run, tracing off.  The phases run interleaved, one
/// repetition each per round, until each has had its share of
/// `--seconds`: a transient slowdown of the machine then lands on one
/// repetition of several phases rather than on every repetition of one.
/// Each repetition records the CPU share the host stole meanwhile, and
/// each metric is taken over the calmer repetitions (see
/// [`calm_median`]).
fn end_to_end(
    opts: &Options,
    files: &Files,
    p: &Prepared,
    metrics: &mut Metrics,
    checks: &mut Checks,
) {
    let w = &opts.workload;
    let cfg = survey::survey_config();
    // Per phase: one value and one stolen share per repetition.
    let mut values: [Vec<f64>; 7] = Default::default();
    let mut steal: [Vec<f64>; 7] = Default::default();
    let mut sessions = Vec::new();
    let mut rates = Vec::new();
    let run_ticks = cpu_ticks();

    // Each open-loop session offers half the capacity of the latest
    // closed-loop sessions (phase 4 runs before phase 5 in every round),
    // so its load tracks the machine's speed.
    let mut capacity = Vec::new();
    let mut spent = [Duration::ZERO; 7];
    loop {
        let mut ran = false;
        for phase in 0..7 {
            let rep = values[phase].len();
            if rep >= MIN_REPS[phase] && spent[phase] >= budget(opts, phase) {
                continue;
            }
            ran = true;
            let ticks = cpu_ticks();
            let start = Instant::now();
            let value = match phase {
                0 => {
                    let ((text, report), secs) = timed(|| survey::run_survey(&p.db, &cfg));
                    checks.check(maybe_corrupt(opts, "report", rep, text) == p.survey_ref, || {
                        format!("survey rep {rep}: report differs from `distperm survey`")
                    });
                    if rep == 0 {
                        survey::check_survey_bounds(checks, &report, w.dim);
                    }
                    secs
                }
                1 => {
                    let ((text, report), secs) = timed(|| survey::run_count(&p.db));
                    checks.check(text == p.count_ref, || {
                        format!("count rep {rep}: report differs from `distperm count`")
                    });
                    if rep == 0 {
                        survey::check_count_bounds(checks, &report, COUNT_K, w.n, w.dim);
                    }
                    secs
                }
                2 => {
                    let points = p.points.clone();
                    let ((rebuilt, bytes), secs) =
                        timed(|| index::build_and_save(points, &files.rebuilt));
                    checks.check(
                        bytes == p.store_bytes && rebuilt.site_ids() == p.index.site_ids(),
                        || format!("build rep {rep}: rebuilt store differs"),
                    );
                    // Unlinked before write-back, the copy costs no disk I/O later.
                    let _ = std::fs::remove_file(&files.rebuilt);
                    secs
                }
                3 => {
                    let (mut got, secs) =
                        timed(|| index::search(&p.index, &p.traffic, p.traffic.len()));
                    if rep == 0 && inject(opts) == Inject::Answer {
                        got[0].0.clear();
                    }
                    let bad = index::mismatches(&got, &p.traffic);
                    checks.tally(got.len() as u64, bad, || {
                        format!("search --load: {bad} answers differ from the built index")
                    });
                    p.traffic.len() as f64 / secs
                }
                4 => {
                    let batches_per_s = closed_session(opts, p, checks);
                    capacity.push(batches_per_s);
                    batches_per_s * serve::BATCH as f64
                }
                5 => {
                    let rate = OPEN_LOAD * median(&capacity[capacity.len().saturating_sub(3)..]);
                    let batches = OPEN_MIN_BATCHES.max((rate * OPEN_SESSION_SECS) as usize);
                    sessions.push(open_session(p, batches, rate, checks));
                    rates.push(rate);
                    rate
                }
                _ => setup_once(opts, files),
            };
            spent[phase] += start.elapsed();
            values[phase].push(value);
            steal[phase].push(steal_since(ticks));
        }
        if !ran {
            break;
        }
    }
    let run_steal = steal_since(run_ticks);
    let peak = probe_peak_rss(opts, files);
    checks.check(peak.is_some(), || "the peak-memory probe failed".to_string());

    let calm = |phase: usize| calm_median(&values[phase], &steal[phase]);
    for (name, phase, unit) in [
        ("setup_s", 6, "s"),
        ("survey_s", 0, "s"),
        ("count_s", 1, "s"),
        ("build_s", 2, "s"),
        ("search_qps", 3, "queries/s"),
    ] {
        let (value, n) = calm(phase);
        metrics.push(name, value, unit, n);
    }
    metrics.push("store_bytes_per_point", p.store_bytes as f64 / w.index_n as f64, "B", 1);
    // Latency percentiles come from the one open-loop session the host
    // disturbed least (each session has ≥ 10 batches beyond its p95).
    let calmest = (0..sessions.len())
        .min_by(|&a, &b| steal[5][a].total_cmp(&steal[5][b]))
        .map(|i| &sessions[i].latency)
        .expect("at least one open-loop session ran");
    let p50_ms = 1e3 * percentile(calmest, 50.0);
    metrics.push("serve_p50_ms", p50_ms, "ms", calmest.len());
    let (qps, n) = calm(4);
    metrics.push("serve_qps", qps, "queries/s", n);
    metrics.push("peak_rss_mib", peak.unwrap_or(f64::NAN), "MiB", 1);

    let lag: Vec<f64> = sessions.iter().flat_map(|s| s.lag.iter().copied()).collect();
    let lag_p95_ms = 1e3 * percentile(&lag, 95.0);
    println!(
        "open loop: {:.1} batches/s offered ({:.0}% of closed-loop capacity), {} sessions of ≥ {OPEN_MIN_BATCHES} batches, generator lag p95 {lag_p95_ms:.3} ms",
        median(&rates),
        100.0 * OPEN_LOAD,
        sessions.len(),
    );
    // Not a gated metric: on a small virtual machine a batch that loses
    // one of its two CPUs to the host for a moment takes twice as long,
    // so the p95 flips between run and run with the host's load.
    println!(
        "serve latency p95 (reported, not gated): {:.3} ms over {} batches",
        1e3 * percentile(calmest, 95.0),
        calmest.len()
    );
    let shares: Vec<String> = steal[5].iter().map(|x| format!("{:.1}%", 100.0 * x)).collect();
    println!(
        "CPU stolen by the host: {:.1}% over the timed phases; per open-loop session {}",
        100.0 * run_steal,
        shares.join(" ")
    );
    if lag_p95_ms > 0.1 * p50_ms {
        println!("warning: the generator ran late; this run's serve latencies are not valid");
    }
}

/// The traced run: per-layer spans, coverage and overhead.
fn traced(
    opts: &Options,
    files: &Files,
    p: &Prepared,
    t: &mut Tracer,
    metrics: &mut Metrics,
    checks: &mut Checks,
) {
    let w = &opts.workload;
    let cfg = survey::survey_config();
    let mut parse_s = Vec::new();
    repeat_for(Duration::ZERO, 3, |rep| {
        let (parsed, id) = t.span("datasets.parse", rep as u64, |_| {
            sisap_io::read_vectors_file_flat(&files.db).expect("database file parses")
        });
        parse_s.push(t.secs(id));
        checks.check(parsed.as_flat() == p.db.as_flat(), || format!("parse rep {rep} differs"));
    });
    let parse = median(&parse_s);
    metrics.push("datasets.parse_s", parse, "s", parse_s.len());
    metrics.push(
        "datasets.parse_mib_per_s",
        p.file_bytes as f64 / f64::from(1 << 20) / parse,
        "MiB/s",
        parse_s.len(),
    );

    // Survey: traced reps, then untraced reps for the overhead.
    let mut phases = Vec::new();
    repeat_for(budget(opts, 0) / 2, 2, |rep| {
        let (text, ph) = survey::traced_survey(t, &p.db, &cfg, rep as u64);
        checks.check(maybe_corrupt(opts, "report", rep, text) == p.survey_ref, || {
            format!("traced survey rep {rep}: report differs from `distperm survey`")
        });
        phases.push(ph);
    });
    let mut untraced = Vec::new();
    let mut survey = None;
    repeat_for(budget(opts, 0) / 2, 2, |_| {
        let ((_, s), secs) = timed(|| survey::run_survey(&p.db, &cfg));
        untraced.push(secs);
        survey = Some(s);
    });
    let pick = |f: fn(&survey::Phases) -> f64| phases.iter().map(f).collect::<Vec<f64>>();
    metrics.median("datasets.rho_s", &pick(|x| x.rho), "s");
    metrics.median("permutation.collect_s", &pick(|x| x.collect), "s");
    metrics.median("permutation.finalize_s", &pick(|x| x.finalize), "s");
    metrics.median("permutation.huffman_s", &pick(|x| x.huffman), "s");
    metrics.median("cli.render_s", &pick(|x| x.render), "s");
    metrics.median("core.survey_residue_s", &pick(survey::Phases::residue), "s");
    metrics.median("trace.survey_coverage", &pick(|x| x.children() / x.root), "fraction");
    metrics.push(
        "trace.survey_overhead_s",
        median(&pick(|x| x.root)) - median(&untraced),
        "s",
        phases.len(),
    );

    let mut phases = Vec::new();
    repeat_for(budget(opts, 1) / 2, 2, |rep| {
        let (text, ph) = survey::traced_count(t, &p.db, rep as u64);
        checks.check(text == p.count_ref, || {
            format!("traced count rep {rep}: report differs from `distperm count`")
        });
        phases.push(ph);
    });
    let mut untraced = Vec::new();
    repeat_for(budget(opts, 1) / 2, 2, |_| untraced.push(timed(|| survey::run_count(&p.db)).1));
    let pick = |f: fn(&survey::Phases) -> f64| phases.iter().map(f).collect::<Vec<f64>>();
    metrics.median("permutation.hash_count_s", &pick(|x| x.hash_count), "s");
    metrics.median("core.count_residue_s", &pick(survey::Phases::residue), "s");
    metrics.median("trace.count_coverage", &pick(|x| x.children() / x.root), "fraction");
    metrics.push(
        "trace.count_overhead_s",
        median(&pick(|x| x.root)) - median(&untraced),
        "s",
        phases.len(),
    );

    let survey = survey.expect("surveyed at least once");
    survey::diagnostics(t, &p.db, &survey, metrics, checks);

    // Build and store layers.
    let mut times: [Vec<f64>; 5] = Default::default();
    let mut bytes = Vec::new();
    repeat_for(budget(opts, 2), 3, |rep| {
        let req = rep as u64;
        let points = p.points.clone();
        let (built, id) = t.span("index.build", req, |_| index::build(points));
        times[0].push(t.secs(id));
        let (image, id) = t.span("store.encode", req, |_| dp_store::store_to_bytes(&built));
        times[1].push(t.secs(id));
        let (saved, id) =
            t.span("store.save", req, |_| dp_store::save_store(&built, &files.rebuilt));
        times[2].push(t.secs(id));
        let (decoded, id) = t.span("store.decode", req, |_| dp_store::read_store(&image));
        times[3].push(t.secs(id));
        let (loaded, id) = t.span("store.load", req, |_| dp_store::load_store(&files.rebuilt));
        times[4].push(t.secs(id));
        let same = |s: Result<dp_store::StoredIndex, _>| {
            s.ok().and_then(index::as_l2).is_some_and(|i| i.site_ids() == built.site_ids())
        };
        checks
            .check(saved.ok() == Some(image.len() as u64) && same(decoded) && same(loaded), || {
                format!("store round trip rep {rep} failed")
            });
        let _ = std::fs::remove_file(&files.rebuilt);
        bytes.push(image.len() as f64);
    });
    for (name, v) in
        ["index.build_s", "store.encode_s", "store.save_s", "store.decode_s", "store.load_s"]
            .into_iter()
            .zip(&times)
    {
        metrics.median(name, v, "s");
    }
    metrics.push("store.bytes", median(&bytes), "B", 1);

    // Single-query costs through one searcher session of the loaded index.
    let mut session = p.index.session();
    let mut us: [Vec<f64>; 4] = Default::default();
    let mut evals: [Vec<f64>; 3] = Default::default();
    let (mut total_evals, mut neighbors) = (0u64, 0usize);
    let names = ["index.knn_exact", "index.knn_approx", "index.range"];
    for i in 0..p.traffic.len() {
        let q = p.traffic.queries.row(i);
        let class = index::Class::of(i);
        let slot = class as usize;
        let (_, id) = t.span("index.query_perm", i as u64, |_| session.query_permutation(q));
        us[0].push(1e6 * t.secs(id));
        let (got, id) = t.span(names[slot], i as u64, |_| {
            index::answer(&mut session, class, q, p.traffic.radius)
        });
        us[1 + slot].push(1e6 * t.secs(id));
        evals[slot].push(got.1.metric_evals as f64);
        total_evals += got.1.metric_evals;
        neighbors += got.0.len();
        checks.check(got == p.traffic.answers[i], || {
            format!("query {i}: loaded index answers differently from the built one")
        });
    }
    metrics.median("index.query_perm_us", &us[0], "us");
    metrics.median("index.knn_exact_us", &us[1], "us");
    metrics.median("index.knn_approx_us", &us[2], "us");
    metrics.median("index.range_us", &us[3], "us");
    metrics.median("index.evals_per_query.exact", &evals[0], "count");
    metrics.median("index.evals_per_query.approx", &evals[1], "count");
    metrics.median("index.evals_per_query.range", &evals[2], "count");
    metrics.push(
        "index.evals_per_neighbor",
        total_evals as f64 / neighbors.max(1) as f64,
        "ratio",
        1,
    );

    // Serve layer.
    let parser = LineParser::new(w.dim);
    let mut lines: Vec<&str> = vec!["begin b0"];
    lines.extend(p.traffic.lines.iter().map(String::as_str));
    lines.push("end");
    let mut parse_us = Vec::new();
    repeat_for(Duration::ZERO, 5, |rep| {
        let (ok, id) = t.span("serve.parse", rep as u64, |_| {
            lines.iter().filter(|l| parser.parse(l).is_ok()).count()
        });
        parse_us.push(1e6 * t.secs(id) / lines.len() as f64);
        checks.check(ok == lines.len(), || {
            format!("{} protocol lines failed to parse", lines.len() - ok)
        });
    });
    metrics.median("serve.parse_us", &parse_us, "us");

    let batch = MIXED_BATCH.min(p.traffic.len());
    let (mut stealing, mut parallel) = (Vec::new(), Vec::new());
    repeat_for(Duration::ZERO, 10, |rep| {
        let (got, id) = t.span("serve.stealing_batch", rep as u64, |_| {
            serve::stealing_batch(&p.index, &p.traffic, batch)
        });
        stealing.push(1e3 * t.secs(id));
        let bad = index::mismatches(&got, &p.traffic) + (batch - got.len()) as u64;
        checks.tally(batch as u64, bad, || format!("stealing batch: {bad} answers differ"));
        let (got, id) = t.span("serve.parallel_batch", rep as u64, |_| {
            index::search(&p.index, &p.traffic, batch)
        });
        parallel.push(1e3 * t.secs(id));
        let bad = index::mismatches(&got, &p.traffic);
        checks.tally(batch as u64, bad, || format!("parallel batch: {bad} answers differ"));
    });
    metrics.median("serve.stealing_batch_ms", &stealing, "ms");
    metrics.median("serve.parallel_batch_ms", &parallel, "ms");

    let capacity: Vec<f64> = (0..2).map(|_| closed_session(opts, p, checks)).collect();
    let rate = OPEN_LOAD * median(&capacity);
    let batches = OPEN_MIN_BATCHES.max((rate * OPEN_SESSION_SECS) as usize);
    let sessions: Vec<serve::LoopStats> =
        (0..2).map(|_| open_session(p, batches, rate, checks)).collect();
    let all = |f: fn(&serve::LoopStats) -> &Vec<f64>| {
        sessions.iter().flat_map(|s| f(s).iter().copied()).collect::<Vec<f64>>()
    };
    let latency = all(|s| &s.latency);
    metrics.push("serve.latency_p95_ms", 1e3 * percentile(&latency, 95.0), "ms", latency.len());
    let queue = all(|s| &s.queue_wait);
    metrics.push("serve.queue_wait_p50_ms", 1e3 * percentile(&queue, 50.0), "ms", queue.len());
    metrics.push("serve.queue_wait_p95_ms", 1e3 * percentile(&queue, 95.0), "ms", queue.len());
    metrics.median(
        "serve.batch_ms",
        &all(|s| &s.batch).iter().map(|x| 1e3 * x).collect::<Vec<_>>(),
        "ms",
    );
    metrics.median(
        "serve.write_us",
        &all(|s| &s.write).iter().map(|x| 1e6 * x).collect::<Vec<_>>(),
        "us",
    );
    let lag = all(|s| &s.lag);
    metrics.push("serve.gen_lag_ms", 1e3 * percentile(&lag, 95.0), "ms", lag.len());
    for (sid, s) in sessions.iter().enumerate() {
        for (b, &(start, end)) in s.spans.iter().enumerate() {
            t.record("serve.request", (sid << 32 | b) as u64, start, end);
        }
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload survey_d2|survey_d8|serve_mixed --seed <n> --seconds <s> --trace 0|1 [--tiny] [--corrupt report|answer]");
            std::process::exit(2);
        }
    };
    if let Some(db_path) = &opts.rss_probe {
        println!("peak_rss_mib {}", rss_probe(&opts, db_path));
        return;
    }
    let stamp = machine_stamp(&opts);
    println!("stamp: {stamp}");
    let work = Path::new(env!("CARGO_MANIFEST_DIR")).join("work");
    std::fs::create_dir_all(&work).expect("work directory can be created");
    let files = Files::new(&work, &opts);
    let mut tracer = Tracer::new();
    let mut metrics = Metrics::default();
    let mut checks = Checks::default();

    let (prepared, prep_secs) = timed(|| prepare(&opts, &files, &mut checks));
    println!("inputs generated and checked in {prep_secs:.2} s");
    let (_, run_secs) = timed(|| {
        if opts.trace {
            traced(&opts, &files, &prepared, &mut tracer, &mut metrics, &mut checks);
        } else {
            end_to_end(&opts, &files, &prepared, &mut metrics, &mut checks);
        }
    });
    drop(prepared);
    drop(files);
    if opts.trace {
        let path = work.join(format!("spans-{}-{}.jsonl", opts.workload.name, opts.seed));
        match tracer.write_jsonl(&path, &stamp) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => checks.check(false, || format!("writing spans: {e}")),
        }
    }

    for m in metrics.iter() {
        checks.check(m.value.is_finite(), || format!("metric {} was not measured", m.name));
    }
    println!(
        "measured for {run_secs:.2} s ({} mode)",
        if opts.trace { "traced" } else { "untraced" }
    );
    for m in metrics.iter() {
        println!("{:<32} {:>16.6} {:<10} (n = {})", m.name, m.value, m.unit, m.samples);
    }
    println!(
        "fail_frac = {:.6} ({} failed of {} attempted)",
        checks.fail_frac(),
        checks.failed,
        checks.attempted
    );
    for note in checks.notes() {
        println!("check failed: {note}");
    }
    println!("{}", report::result_line(&checks, &metrics));
    if checks.failed > 0 {
        std::process::exit(1);
    }
}
