//! The `distperm survey` and `distperm count` paths after load: the
//! untraced calls the CLI makes, their traced phase-by-phase
//! reconstruction from each layer's public functions, and the checks on
//! their output.

use crate::report::{Checks, Metrics};
use crate::trace::{SpanId, Tracer};
use crate::{COUNT_K, SURVEY_KS, THREADS};
use dp_core::dimension::min_euclidean_dimension;
use dp_core::survey::{naive_permutation_bits, KSurvey};
use dp_core::{count_permutations_flat_sharded, survey_database_flat_sharded};
use dp_core::{CountEngine, CountReport, DatabaseSurvey, SurveyConfig};
use dp_datasets::vectors::choose_distinct_indices;
use dp_datasets::VectorSet;
use dp_metric::{BatchDistance, TransposedSites, L2};
use dp_permutation::compute::{
    collect_counter_flat_parallel, collect_packed_flat_parallel, rank_distance_rows_packed,
    PACKED_MAX_K, WIDE_MAX_K,
};
use dp_permutation::encoding::element_bits;
use dp_permutation::huffman::entropy_bits;
use dp_permutation::{
    HuffmanCode, PackedCodebook, PackedKey, PermutationCounter, RadixSorter, ShardedCounter,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

/// The CLI's default site-selection seed (`--seed` unset).
const CLI_SEED: u64 = 0x5EED;

/// Rows per block in the phase-separated distance/rank diagnostics.
const DIAG_BLOCK_ROWS: usize = 4096;

/// Shard size of the streaming-counter diagnostic: 64 Ki keys, a
/// cache-sized shard.
const DIAG_SHARD_ROWS: usize = 1 << 16;

/// `distperm survey --ks 4,8,12,16,20,24 --threads 2` argv.
pub fn survey_argv(path: &str) -> Vec<String> {
    let ks: Vec<String> = SURVEY_KS.iter().map(usize::to_string).collect();
    ["survey", "--vectors", path, "--ks", &ks.join(","), "--threads", &THREADS.to_string()]
        .map(str::to_string)
        .to_vec()
}

/// `distperm count --k 28 --threads 2` argv.
pub fn count_argv(path: &str) -> Vec<String> {
    ["count", "--vectors", path, "--k", &COUNT_K.to_string(), "--threads", &THREADS.to_string()]
        .map(str::to_string)
        .to_vec()
}

/// The survey configuration the CLI builds from [`survey_argv`].
pub fn survey_config() -> SurveyConfig {
    SurveyConfig { ks: SURVEY_KS.to_vec(), seed: CLI_SEED, rho_pairs: 20_000, reference: None }
}

/// The survey text exactly as `distperm survey` prints it for a vector
/// database under L2.
pub fn render_survey(survey: &DatabaseSurvey, ks: &[usize]) -> String {
    let mut groups: Vec<(&'static str, Vec<String>)> = Vec::new();
    for &k in ks {
        let name = CountEngine::for_k(k).name();
        match groups.last_mut() {
            Some((n, list)) if *n == name => list.push(k.to_string()),
            _ => groups.push((name, vec![k.to_string()])),
        }
    }
    let engines: Vec<String> =
        groups.iter().map(|(name, list)| format!("{name} (k = {})", list.join(", "))).collect();
    format!("metric: L2\ncounting engines: {}\n{survey}", engines.join("; "))
}

/// The untraced survey path: the CLI's call plus rendering.
pub fn run_survey(db: &VectorSet, cfg: &SurveyConfig) -> (String, DatabaseSurvey) {
    let survey = survey_database_flat_sharded(&L2, db, cfg, THREADS, 0);
    (render_survey(&survey, &cfg.ks), survey)
}

/// Site ids `distperm count` draws for `k` sites over `n` points.
fn count_site_ids(n: usize, k: usize) -> Vec<usize> {
    choose_distinct_indices(n, k, &mut StdRng::seed_from_u64(CLI_SEED))
}

/// The count text exactly as `distperm count` prints it for a vector
/// database under L2.
pub fn render_count(db: &VectorSet, site_ids: &[usize], report: &CountReport) -> String {
    let (n, dim, k) = (db.len(), db.dim(), site_ids.len());
    let ids: Vec<String> = site_ids.iter().map(usize::to_string).collect();
    let mut s = String::new();
    let _ = writeln!(s, "database: n = {n}, metric = L2");
    let _ = writeln!(s, "sites (k = {k}): [{}]", ids.join(", "));
    let _ = writeln!(s, "counting engine: {}", CountEngine::for_k(k).name());
    let _ = writeln!(s, "distinct distance permutations: {}", report.distinct);
    let _ = writeln!(s, "mean occupancy: {:.2} elements/permutation", report.mean_occupancy);
    if k <= 20 {
        let fact: u128 = (1..=k as u128).product();
        let _ = writeln!(s, "k! ceiling: {fact}");
    }
    if let Some(max) = dp_theory::n_euclidean(dim as u32, k as u32) {
        let _ = writeln!(s, "Euclidean maximum N_{{{dim},2}}({k}): {max}");
    }
    let _ = writeln!(
        s,
        "min Euclidean dimension admitting this count: {}",
        min_euclidean_dimension(report.distinct, k as u32)
    );
    s
}

/// The untraced count path at k = [`COUNT_K`]: site draw, the CLI's
/// call, rendering.
pub fn run_count(db: &VectorSet) -> (String, CountReport) {
    let site_ids = count_site_ids(db.len(), COUNT_K);
    let sites = db.gather(&site_ids);
    let report = count_permutations_flat_sharded(&L2, &sites, db, THREADS, 0);
    (render_count(db, &site_ids, &report), report)
}

/// Checks one count against the paper's bounds: every point counted,
/// `distinct ≤ min(n, k!)` and `distinct ≤ N_{d,2}(k)`.
pub fn check_count_bounds(
    checks: &mut Checks,
    report: &CountReport,
    k: usize,
    n: usize,
    dim: usize,
) {
    checks.check(report.total == n as u64, || {
        format!("k = {k}: occupancies sum to {} != n = {n}", report.total)
    });
    let fact = (1..=k as u128).try_fold(1u128, u128::checked_mul).unwrap_or(u128::MAX);
    let cap = fact.min(n as u128);
    checks.check(report.distinct as u128 <= cap, || {
        format!("k = {k}: distinct {} > min(n, k!) = {cap}", report.distinct)
    });
    if let Some(bound) = dp_theory::n_euclidean(dim as u32, k as u32) {
        checks.check(report.distinct as u128 <= bound, || {
            format!("k = {k}: distinct {} > N_{{{dim},2}}({k}) = {bound}", report.distinct)
        });
    }
}

/// Every bound check on a survey.
pub fn check_survey_bounds(checks: &mut Checks, survey: &DatabaseSurvey, dim: usize) {
    for row in &survey.per_k {
        check_count_bounds(checks, &row.report, row.k, survey.n, dim);
    }
}

/// Phase seconds of one traced survey or count.
#[derive(Debug, Default, Clone)]
pub struct Phases {
    pub root: f64,
    pub rho: f64,
    pub collect: f64,
    pub finalize: f64,
    pub huffman: f64,
    pub hash_count: f64,
    pub render: f64,
}

impl Phases {
    fn read(t: &Tracer, root: SpanId) -> Self {
        let child = |name| t.child_secs(root, name);
        Self {
            root: t.secs(root),
            rho: child("datasets.rho"),
            collect: child("permutation.collect"),
            finalize: child("permutation.finalize"),
            huffman: child("permutation.huffman"),
            hash_count: child("permutation.hash_count"),
            render: child("cli.render"),
        }
    }

    /// Root time no child span covers.
    pub fn residue(&self) -> f64 {
        self.root - self.children()
    }

    pub fn children(&self) -> f64 {
        self.rho + self.collect + self.finalize + self.huffman + self.hash_count + self.render
    }
}

/// Radix scratch at both key widths, shared by every k of a survey as
/// in the CLI's engine.
#[derive(Default)]
struct Sorters {
    narrow: RadixSorter<u64>,
    wide: RadixSorter<u128>,
}

/// The traced survey: `survey_database_flat_sharded` (in-memory, 2
/// threads) rebuilt from the layers' public functions with a span
/// around each call.  Site gather/transpose and the per-k loop land in
/// the root span's residue.
pub fn traced_survey(
    t: &mut Tracer,
    db: &VectorSet,
    cfg: &SurveyConfig,
    req: u64,
) -> (String, Phases) {
    let (text, root) = t.span("core.survey", req, |t| {
        let (rho, _) = t.span("datasets.rho", req, |_| {
            dp_datasets::intrinsic_dimensionality_flat(
                &L2,
                db,
                cfg.rho_pairs,
                cfg.seed ^ 0x9E37_79B9,
            )
        });
        let mut sorters = Sorters::default();
        let mut per_k = Vec::with_capacity(cfg.ks.len());
        for (i, &k) in cfg.ks.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(i as u64));
            let site_ids = choose_distinct_indices(db.len(), k, &mut rng);
            let sites = db.gather(&site_ids);
            let sites_t = TransposedSites::from_rows(sites.as_flat(), db.dim());
            let (report, freqs) = if k <= PACKED_MAX_K {
                traced_packed::<u64>(t, db, &sites_t, &mut sorters.narrow, req)
            } else if k <= WIDE_MAX_K {
                traced_packed::<u128>(t, db, &sites_t, &mut sorters.wide, req)
            } else {
                let counter = traced_hash_count(t, db, &sites_t, req);
                (CountReport::from(&counter), hash_freqs(&counter))
            };
            let ((huffman_bits, entropy), _) = t.span("permutation.huffman", req, |_| {
                let code = HuffmanCode::from_frequencies(&freqs);
                (code.mean_bits(&freqs), entropy_bits(&freqs))
            });
            per_k.push(KSurvey {
                k,
                site_ids,
                naive_bits: naive_permutation_bits(k),
                raw_bits: k as u32 * element_bits(k),
                codebook_bits: element_bits(report.distinct),
                huffman_bits,
                entropy_bits: entropy,
                min_euclidean_dim: min_euclidean_dimension(report.distinct, k as u32),
                report,
            });
        }
        let survey = DatabaseSurvey { n: db.len(), rho, per_k, dimension_estimate: None };
        t.span("cli.render", req, |_| render_survey(&survey, &cfg.ks)).0
    });
    (text, Phases::read(t, root))
}

fn traced_packed<K: PackedKey>(
    t: &mut Tracer,
    db: &VectorSet,
    sites_t: &TransposedSites,
    sorter: &mut RadixSorter<K>,
    req: u64,
) -> (CountReport, Vec<u64>) {
    let (counter, _) = t.span("permutation.collect", req, |_| {
        collect_packed_flat_parallel::<K, _>(&L2, sites_t, db.as_flat(), THREADS)
    });
    let (summary, _) = t.span("permutation.finalize", req, |_| counter.finalize_with(sorter));
    (CountReport::from(&summary), summary.lexicographic_counts())
}

fn traced_hash_count(
    t: &mut Tracer,
    db: &VectorSet,
    sites_t: &TransposedSites,
    req: u64,
) -> PermutationCounter {
    t.span("permutation.hash_count", req, |_| {
        collect_counter_flat_parallel(&L2, sites_t, db.as_flat(), THREADS)
    })
    .0
}

/// A hash counter's occupancies in codebook (lexicographic) order.
fn hash_freqs(counter: &PermutationCounter) -> Vec<u64> {
    counter.sorted_counts().into_iter().map(|(_, c)| c).collect()
}

/// The traced count path at k = [`COUNT_K`].
pub fn traced_count(t: &mut Tracer, db: &VectorSet, req: u64) -> (String, Phases) {
    let (text, root) = t.span("core.count", req, |t| {
        let site_ids = count_site_ids(db.len(), COUNT_K);
        let sites = db.gather(&site_ids);
        let sites_t = TransposedSites::from_rows(sites.as_flat(), db.dim());
        let report = if COUNT_K <= PACKED_MAX_K {
            traced_count_packed::<u64>(t, db, &sites_t, req)
        } else if COUNT_K <= WIDE_MAX_K {
            traced_count_packed::<u128>(t, db, &sites_t, req)
        } else {
            CountReport::from(&traced_hash_count(t, db, &sites_t, req))
        };
        t.span("cli.render", req, |_| render_count(db, &site_ids, &report)).0
    });
    (text, Phases::read(t, root))
}

fn traced_count_packed<K: PackedKey>(
    t: &mut Tracer,
    db: &VectorSet,
    sites_t: &TransposedSites,
    req: u64,
) -> CountReport {
    let mut sorter = RadixSorter::<K>::new();
    traced_packed::<K>(t, db, sites_t, &mut sorter, req).0
}

/// Phase-separated diagnostics over every surveyed k: blocked
/// `batch_distances`, `rank_distance_rows_packed` on the distance
/// buffer, `RadixSorter::sort_keys` on the resulting keys, and a
/// `ShardedCounter` at a cache-sized shard whose summary feeds
/// `PackedCodebook::from_summary`.  The sharded summary is checked
/// against the survey's counts.
pub fn diagnostics(
    t: &mut Tracer,
    db: &VectorSet,
    survey: &DatabaseSurvey,
    metrics: &mut Metrics,
    checks: &mut Checks,
) {
    let mut acc = DiagTotals::default();
    for row in &survey.per_k {
        let sites = db.gather(&row.site_ids);
        let sites_t = TransposedSites::from_rows(sites.as_flat(), db.dim());
        let (distinct, occupancy_sum) = if row.k <= PACKED_MAX_K {
            diag_packed::<u64>(t, db, &sites_t, &mut acc)
        } else {
            diag_packed::<u128>(t, db, &sites_t, &mut acc)
        };
        checks.check(distinct == row.report.distinct && occupancy_sum == db.len() as u64, || {
            format!(
                "k = {}: sharded counter gives {distinct} distinct / {occupancy_sum} points",
                row.k
            )
        });
    }
    let n = db.len() as f64;
    let dim = db.dim() as f64;
    let k_sum: usize = survey.per_k.iter().map(|r| r.k).sum();
    let distinct_sum: usize = survey.per_k.iter().map(|r| r.report.distinct).sum();
    let rho_pairs = survey_config().rho_pairs as f64;
    // Every row is read once per k and every distance written once; the
    // sites stay cache-resident.
    let bytes = survey.per_k.iter().map(|r| 8.0 * n * (dim + r.k as f64)).sum::<f64>();
    metrics.push("metric.batch_distances_s", acc.distances, "s", 1);
    metrics.push("metric.distance_evals", n * k_sum as f64 + rho_pairs, "count", 1);
    metrics.push("metric.mib_moved_computed", bytes / f64::from(1 << 20), "MiB", 1);
    metrics.push("permutation.rank_pack_s", acc.rank_pack, "s", 1);
    metrics.push("permutation.sort_s", acc.sort, "s", 1);
    metrics.push("permutation.codebook_s", acc.codebook, "s", 1);
    metrics.push("permutation.distinct", distinct_sum as f64, "count", 1);
    metrics.push(
        "permutation.keys_per_distinct",
        n * survey.per_k.len() as f64 / distinct_sum.max(1) as f64,
        "ratio",
        1,
    );
    metrics.push("permutation.shard_peak_frontier", acc.peak_frontier as f64, "entries", 1);
    metrics.push("permutation.sharded_finalize_s", acc.sharded_finalize, "s", 1);
}

#[derive(Default)]
struct DiagTotals {
    distances: f64,
    rank_pack: f64,
    sort: f64,
    codebook: f64,
    sharded_finalize: f64,
    peak_frontier: usize,
}

fn diag_packed<K: PackedKey>(
    t: &mut Tracer,
    db: &VectorSet,
    sites_t: &TransposedSites,
    acc: &mut DiagTotals,
) -> (usize, u64) {
    let k = sites_t.k();
    let mut dists = vec![0.0f64; DIAG_BLOCK_ROWS * k];
    let mut keys: Vec<K> = Vec::with_capacity(db.len());
    for (block_no, block) in db.as_flat().chunks(DIAG_BLOCK_ROWS * db.dim()).enumerate() {
        let out = &mut dists[..block.len() / db.dim() * k];
        let req = block_no as u64;
        let (_, id) =
            t.span("metric.batch_distances", req, |_| L2.batch_distances(block, sites_t, out));
        acc.distances += t.secs(id);
        let (block_keys, id) =
            t.span("permutation.rank_pack", req, |_| rank_distance_rows_packed::<K>(out, k));
        acc.rank_pack += t.secs(id);
        keys.extend_from_slice(&block_keys);
    }
    let mut sharded = ShardedCounter::<K>::new(k, DIAG_SHARD_ROWS);
    for &key in &keys {
        sharded.insert_key(key);
    }
    let ((summary, peak), id) = t.span("permutation.sharded_finalize", k as u64, |_| {
        sharded.flush();
        let peak = sharded.peak_frontier_entries();
        (sharded.finalize(), peak)
    });
    acc.peak_frontier = acc.peak_frontier.max(peak);
    acc.sharded_finalize += t.secs(id);
    let mut sorter = RadixSorter::<K>::new();
    let (_, id) =
        t.span("permutation.sort", k as u64, |_| sorter.sort_keys(&mut keys, K::key_bits(k)));
    acc.sort += t.secs(id);
    let (codebook, id) =
        t.span("permutation.codebook", k as u64, |_| PackedCodebook::from_summary(&summary));
    acc.codebook += t.secs(id);
    std::hint::black_box(&codebook);
    (summary.distinct(), summary.lexicographic_counts().iter().sum())
}
