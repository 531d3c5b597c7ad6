//! Shared experiment plumbing: dataset preparation, workloads with the
//! paper's parameters, method runners and small statistics helpers.

use peanut_core::{
    Materialization, OfflineContext, OnlineEngine, Peanut, PeanutConfig, Variant, Workload,
};
use peanut_datasets::DatasetSpec;
use peanut_indsep::build_index;
use peanut_junction::{build_junction_tree, JunctionTree, QueryEngine, RootedTree};
use peanut_pgm::{BayesianNetwork, Scope, Size};
use peanut_workload::{mix, skewed_queries, uniform_queries, QuerySpec};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A dataset instantiated and ready for experiments.
pub struct Prepared {
    /// The generator spec (with the paper's reference numbers).
    pub spec: DatasetSpec,
    /// The synthetic network.
    pub bn: BayesianNetwork,
    /// Its junction tree (pivot = clique 0, the paper's "arbitrary node").
    pub tree: JunctionTree,
}

impl Prepared {
    /// Builds a dataset by spec.
    pub fn new(spec: DatasetSpec) -> Self {
        let bn = spec.build().expect("dataset generators are validated");
        let tree = build_junction_tree(&bn).expect("junction tree construction");
        Prepared { spec, bn, tree }
    }

    /// All eight datasets.
    pub fn all() -> Vec<Prepared> {
        peanut_datasets::all_datasets()
            .into_iter()
            .map(Prepared::new)
            .collect()
    }

    /// By name.
    pub fn by_name(name: &str) -> Prepared {
        Prepared::new(peanut_datasets::dataset(name).expect("known dataset"))
    }

    /// The budget unit `b_T`: total separator potential size.
    pub fn b_t(&self) -> Size {
        self.tree.total_separator_size().max(1)
    }

    /// The paper's *skewed* workload: `n` queries, sizes 1–5, variable
    /// probability ∝ distance from the pivot.
    pub fn skewed(&self, n: usize, seed: u64) -> Vec<Scope> {
        let rooted = RootedTree::new(&self.tree);
        skewed_queries(&self.tree, &rooted, n, QuerySpec::default(), seed)
    }

    /// The paper's *uniform* workload.
    pub fn uniform(&self, n: usize, seed: u64) -> Vec<Scope> {
        uniform_queries(self.bn.domain(), n, QuerySpec::default(), seed)
    }
}

/// `--quick` mode (env `PEANUT_QUICK=1` or argv flag): smaller query counts
/// so the whole suite runs in CI time.
pub fn is_quick() -> bool {
    std::env::args().any(|a| a == "--quick")
        || quick_env_enabled(std::env::var("PEANUT_QUICK").ok().as_deref())
}

/// Parses the `PEANUT_QUICK` value: unset, empty, `0`, `false`, `off` and
/// `no` (case-insensitive) mean a full run; anything else enables quick
/// mode. The mere *presence* of the variable must not count —
/// `PEANUT_QUICK=0` is how a caller explicitly asks for the full stream.
pub fn quick_env_enabled(value: Option<&str>) -> bool {
    match value {
        None => false,
        Some(v) => {
            let v = v.trim();
            !(v.is_empty()
                || v == "0"
                || v.eq_ignore_ascii_case("false")
                || v.eq_ignore_ascii_case("off")
                || v.eq_ignore_ascii_case("no"))
        }
    }
}

/// Query counts for the skewed experiments: (train, test).
pub fn skewed_counts() -> (usize, usize) {
    if is_quick() {
        (300, 150)
    } else {
        (2000, 1000)
    }
}

/// Query count for the uniform experiments (train = test, as in §5.1).
pub fn uniform_count() -> usize {
    if is_quick() {
        100
    } else {
        250
    }
}

/// Worker threads for the LRDP fan-out.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Worker-thread counts for the serving scaling sweeps. One flag drives
/// every serving bench (`query_serving`, `drift_serving`): set
/// `PEANUT_WORKERS="1,2,4,8"` (or a single count) to sweep explicit pool
/// sizes; unset (or unparsable) means `[0]` — one worker per available
/// core, the serving default.
pub fn worker_sweep() -> Vec<usize> {
    match std::env::var("PEANUT_WORKERS") {
        Ok(s) => {
            // all-or-nothing: a mistyped token must not silently shrink
            // the sweep to a different study than the one requested
            // (split always yields ≥1 token, and empty tokens fail to
            // parse, so the Ok list is never empty)
            match s
                .split(',')
                .map(|t| t.trim().parse())
                .collect::<Result<Vec<usize>, _>>()
            {
                Ok(v) => v,
                Err(_) => {
                    eprintln!(
                        "PEANUT_WORKERS={s:?} is not a comma-separated list of \
                         counts; using the per-core default"
                    );
                    vec![0]
                }
            }
        }
        Err(_) => vec![0],
    }
}

/// The directory bench artifacts (`.txt` logs, `.json` summaries) land
/// in. Overridable via `PEANUT_RESULTS_DIR`; defaults to the workspace's
/// `results/` regardless of the process working directory (cargo runs
/// benches from the package root, binaries from the caller's cwd).
pub fn results_dir() -> PathBuf {
    if let Ok(d) = std::env::var("PEANUT_RESULTS_DIR") {
        return PathBuf::from(d);
    }
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels under the workspace root")
        .join("results")
}

/// A machine-readable summary of one bench run: the ratio metrics the
/// bench also asserts on, written as flat JSON
/// (`results/bench_<name>.json`) so the CI regression guard
/// (`bench_check`) can compare them against committed floors without a
/// serde dependency.
pub struct BenchSummary {
    bench: String,
    metrics: Vec<(String, f64)>,
}

impl BenchSummary {
    /// A summary for the bench called `bench` (keys are namespaced as
    /// `<bench>.<metric>`).
    pub fn new(bench: &str) -> Self {
        BenchSummary {
            bench: bench.to_string(),
            metrics: Vec::new(),
        }
    }

    /// Records one metric.
    pub fn push(&mut self, metric: &str, value: f64) {
        self.metrics
            .push((format!("{}.{metric}", self.bench), value));
    }

    /// Writes `results/bench_<name>.json`, creating the directory if
    /// needed, and returns the path.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        self.write_to(&results_dir())
    }

    /// Like [`write`](Self::write) into an explicit directory.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("bench_{}.json", self.bench));
        let mut f = std::fs::File::create(&path)?;
        writeln!(f, "{{")?;
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            let comma = if i + 1 < self.metrics.len() { "," } else { "" };
            writeln!(f, "  \"{k}\": {v:.6}{comma}")?;
        }
        writeln!(f, "}}")?;
        Ok(path)
    }
}

/// True when `key` is a metric some *current* bench can emit.
///
/// `bench_check` fails any baseline floor whose key is not in this
/// registry: without it, renaming a metric silently orphans its floor —
/// the old key would simply never be measured again and the guard it
/// encoded would evaporate. Keep this list in sync with the
/// `BenchSummary::push` calls across `crates/bench/benches/`.
pub fn is_known_metric(key: &str) -> bool {
    const EXACT: &[&str] = &[
        "cold_start.rehydrate_speedup",
        "drift_serving.swap_improvement",
        "evidence_sessions.session_speedup",
        "multi_tenant_serving.shared_pool_speedup",
        "multi_tenant_serving.overload_p99_ratio",
        "potential_ops.product_speedup",
        "potential_ops.product_many_speedup",
        "potential_ops.marginalize_speedup",
        "potential_ops.divide_speedup",
    ];
    // per-worker-count families: `<prefix><N>` for any integer N
    const PER_WORKER: &[&str] = &[
        "query_serving.serving_speedup_cold_w",
        "query_serving.pool_vs_scoped_hot_w",
        "query_serving.overload_p99_ratio_w",
    ];
    EXACT.contains(&key)
        || PER_WORKER.iter().any(|p| {
            key.strip_prefix(p)
                .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
        })
}

/// Parses a flat `{"key": number, ...}` JSON file as written by
/// [`BenchSummary::write`] (and by hand for the committed baseline).
/// Deliberately minimal: objects of string→number pairs only.
pub fn read_metrics(path: &Path) -> std::io::Result<Vec<(String, f64)>> {
    let text = std::fs::read_to_string(path)?;
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let inner = text
        .trim()
        .strip_prefix('{')
        .and_then(|t| t.strip_suffix('}'))
        .ok_or_else(|| bad(format!("{}: not a JSON object", path.display())))?;
    let mut out = Vec::new();
    for pair in inner.split(',') {
        let pair = pair.trim();
        if pair.is_empty() {
            continue;
        }
        let (k, v) = pair
            .split_once(':')
            .ok_or_else(|| bad(format!("{}: malformed pair {pair:?}", path.display())))?;
        let key = k
            .trim()
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or_else(|| bad(format!("{}: unquoted key {k:?}", path.display())))?;
        let value: f64 = v
            .trim()
            .parse()
            .map_err(|_| bad(format!("{}: non-numeric value {v:?}", path.display())))?;
        out.push((key.to_string(), value));
    }
    Ok(out)
}

/// Builds a PEANUT/PEANUT+ materialization, returning it with the offline
/// wall-clock seconds.
pub fn run_offline(
    prepared: &Prepared,
    train: &[Scope],
    budget: Size,
    epsilon: f64,
    variant: Variant,
) -> (Materialization, f64) {
    let workload = Workload::from_queries(train.iter().cloned());
    let ctx = OfflineContext::new(&prepared.tree, &workload).expect("workload fits tree");
    let cfg = PeanutConfig {
        budget,
        epsilon,
        threads: threads(),
        variant,
    };
    let t0 = Instant::now();
    let mat = Peanut::offline(&ctx, &cfg);
    (mat, t0.elapsed().as_secs_f64())
}

/// Builds the INDSEP materialization for a block size, with build seconds.
pub fn run_indsep(prepared: &Prepared, block: Size) -> (Materialization, f64) {
    let rooted = RootedTree::new(&prepared.tree);
    let t0 = Instant::now();
    let idx = build_index(&prepared.tree, &rooted, block, None).expect("indsep build");
    (idx.materialization, t0.elapsed().as_secs_f64())
}

/// Evaluates a workload symbolically: total ops with the materialization
/// and total ops with the plain junction tree.
pub fn evaluate(prepared: &Prepared, mat: &Materialization, test: &[Scope]) -> (u128, u128) {
    let engine = QueryEngine::symbolic(&prepared.tree);
    let online = OnlineEngine::new(&engine, mat);
    let mut with: u128 = 0;
    let mut base: u128 = 0;
    for q in test {
        with += online.cost(q).expect("cost").ops as u128;
        base += online.baseline_cost(q).expect("cost").ops as u128;
    }
    (with, base)
}

/// Per-query savings percentages (0 when the shortcut set does not help).
pub fn savings_percent(prepared: &Prepared, mat: &Materialization, test: &[Scope]) -> Vec<f64> {
    let engine = QueryEngine::symbolic(&prepared.tree);
    let online = OnlineEngine::new(&engine, mat);
    test.iter()
        .map(|q| {
            let base = online.baseline_cost(q).expect("cost").ops as f64;
            let with = online.cost(q).expect("cost").ops as f64;
            if base > 0.0 {
                100.0 * (base - with) / base
            } else {
                0.0
            }
        })
        .collect()
}

/// Mixes two query pools: λ from `primary`, 1−λ from `secondary` (§5.3).
pub fn drifted(
    primary: &[Scope],
    secondary: &[Scope],
    lambda: f64,
    n: usize,
    seed: u64,
) -> Vec<Scope> {
    mix(primary, secondary, lambda, n, seed)
}

/// The INDSEP block-size candidates of §5.1.
pub fn indsep_blocks() -> Vec<Size> {
    vec![
        10, 20, 50, 100, 150, 500, 1000, 5_000, 50_000, 500_000, 5_000_000,
    ]
}

/// Mean of a sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Percentile of a sample (`p` in `0..=100`): the element at the rounded
/// linear position `p/100 · (n − 1)` — the quartile estimator of `fig5`,
/// not the nearest-rank one the latency reports use.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let rank = ((p / 100.0) * (v.len() as f64 - 1.0)).round() as usize;
    v[rank.min(v.len() - 1)]
}

/// Pearson correlation coefficient.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len() as f64;
    if n < 2.0 {
        return f64::NAN;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let (mut cov, mut vx, mut vy) = (0.0, 0.0, 0.0);
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    cov / (vx.sqrt() * vy.sqrt())
}

/// Formats a large number the way the paper prints its figures (`3.10x10+6`).
pub fn sci(x: f64) -> String {
    if x == 0.0 {
        return "0".into();
    }
    let exp = x.abs().log10().floor() as i32;
    let mant = x / 10f64.powi(exp);
    format!("{mant:.2}x10{exp:+}")
}

/// The `JunctionTree` type re-exported for binaries.
pub type Tree = JunctionTree;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_helpers() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let zs = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&xs, &zs) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn quick_env_parses_the_value_not_the_presence() {
        // the regression: PEANUT_QUICK=0 (or empty) used to enable quick
        // mode because only presence was checked
        assert!(!quick_env_enabled(None));
        assert!(!quick_env_enabled(Some("0")));
        assert!(!quick_env_enabled(Some("")));
        assert!(!quick_env_enabled(Some("  ")));
        assert!(!quick_env_enabled(Some("false")));
        assert!(!quick_env_enabled(Some("OFF")));
        assert!(!quick_env_enabled(Some("no")));
        assert!(quick_env_enabled(Some("1")));
        assert!(quick_env_enabled(Some("true")));
        assert!(quick_env_enabled(Some("yes")));
    }

    #[test]
    fn known_metric_registry_matches_bench_emissions() {
        for key in [
            "cold_start.rehydrate_speedup",
            "drift_serving.swap_improvement",
            "evidence_sessions.session_speedup",
            "multi_tenant_serving.shared_pool_speedup",
            "potential_ops.product_speedup",
            "potential_ops.product_many_speedup",
            "potential_ops.marginalize_speedup",
            "potential_ops.divide_speedup",
            "query_serving.serving_speedup_cold_w2",
            "query_serving.pool_vs_scoped_hot_w16",
            "query_serving.overload_p99_ratio_w2",
            "multi_tenant_serving.overload_p99_ratio",
        ] {
            assert!(is_known_metric(key), "{key} should be known");
        }
        for key in [
            "query_serving.serving_speedup_cold_w",   // no worker count
            "query_serving.serving_speedup_cold_w2x", // trailing garbage
            "query_serving.renamed_metric",
            "potential_ops.restrict_speedup", // not emitted
            "unknown_bench.anything",
            "",
        ] {
            assert!(!is_known_metric(key), "{key} should be unknown");
        }
    }

    #[test]
    fn worker_sweep_parses_the_flag() {
        // no flag set in the test environment: serving default
        if std::env::var("PEANUT_WORKERS").is_err() {
            assert_eq!(worker_sweep(), vec![0]);
        }
    }

    #[test]
    fn bench_summary_roundtrip() {
        let dir = std::env::temp_dir().join(format!("peanut-summary-{}", std::process::id()));
        let mut s = BenchSummary::new("demo");
        s.push("speedup", 1.5);
        s.push("floor", 0.25);
        let path = s.write_to(&dir).unwrap();
        assert_eq!(path.file_name().unwrap(), "bench_demo.json");
        let metrics = read_metrics(&path).unwrap();
        assert_eq!(
            metrics,
            vec![
                ("demo.speedup".to_string(), 1.5),
                ("demo.floor".to_string(), 0.25),
            ]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_metrics_rejects_garbage() {
        let dir = std::env::temp_dir().join(format!("peanut-badjson-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, "not json at all").unwrap();
        assert!(read_metrics(&path).is_err());
        std::fs::write(&path, "{\"k\": \"string\"}").unwrap();
        assert!(read_metrics(&path).is_err());
        std::fs::write(&path, "{}").unwrap();
        assert_eq!(read_metrics(&path).unwrap(), vec![]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sci_format() {
        assert_eq!(sci(3_100_000.0), "3.10x10+6");
        assert_eq!(sci(0.0), "0");
    }

    #[test]
    fn prepared_dataset_smoke() {
        let p = Prepared::by_name("Child");
        assert_eq!(p.bn.n_vars(), 20);
        assert!(p.b_t() > 0);
        let q = p.skewed(20, 1);
        assert_eq!(q.len(), 20);
        let (mat, secs) = run_offline(&p, &q, p.b_t() * 10, 6.0, Variant::PeanutPlus);
        assert!(secs >= 0.0);
        let test = p.skewed(10, 2);
        let (with, base) = evaluate(&p, &mat, &test);
        assert!(with <= base);
    }
}
