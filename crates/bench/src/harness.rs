//! Shared experiment plumbing: dataset preparation, workloads with the
//! paper's parameters, method runners and small statistics helpers.

use peanut_core::{
    Materialization, OfflineContext, OnlineEngine, Peanut, PeanutConfig, Variant, Workload,
};
use peanut_datasets::DatasetSpec;
use peanut_indsep::build_index;
use peanut_junction::{build_junction_tree, JunctionTree, QueryEngine, RootedTree};
use peanut_pgm::{BayesianNetwork, Scope, Size};
use peanut_workload::{skewed_queries, uniform_queries, QuerySpec};
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

/// `--quick` mode (the argv flag): smaller query counts so the whole
/// suite runs in CI time.
pub fn is_quick() -> bool {
    std::env::args().any(|a| a == "--quick")
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
            let base = online.baseline_cost(q).expect("cost").ops;
            saving_percent(base, online.cost(q).expect("cost").ops)
        })
        .collect()
}

/// The percent of `base` operations that a count of `with` saves (0 when
/// `base` is).
pub fn saving_percent(base: Size, with: Size) -> f64 {
    if base > 0 {
        100.0 * (base as f64 - with as f64) / base as f64
    } else {
        0.0
    }
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
