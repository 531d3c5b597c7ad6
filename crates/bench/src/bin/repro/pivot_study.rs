//! Extension experiment (the paper's §3.1/§6 future work): how much does
//! the pivot choice matter, for both plain query cost and the quality of
//! the PEANUT+ materialization?
//!
//! The paper fixes an arbitrary pivot and notes that optimizing the
//! materialization across pivot selections is open. Here we sweep a sample
//! of pivots on each dataset and report the spread of (a) plain JT workload
//! cost and (b) PEANUT+ savings — quantifying how much a pivot-aware
//! optimizer could gain.

use peanut_bench::harness::{is_quick, mean, savings_percent, skewed_counts, Prepared};
use peanut_core::{OfflineContext, Peanut, PeanutConfig, Workload};
use peanut_junction::{build_junction_tree, RootedTree};
use peanut_workload::{skewed_queries, QuerySpec};

pub fn run() {
    let (n_train, n_test) = skewed_counts();
    let n_pivots = if is_quick() { 3 } else { 6 };
    println!("Pivot study: spread of plain cost and PEANUT+ savings across pivot choices");
    println!(
        "{:<12} {:>14} {:>14} {:>12} {:>12}",
        "dataset", "plain min", "plain max", "savings min%", "savings max%"
    );
    for spec in peanut_datasets::all_datasets() {
        let bn = spec.build().expect("dataset");
        let base_tree = build_junction_tree(&bn).expect("tree");
        let n = base_tree.n_cliques();
        let pivots: Vec<usize> = (0..n_pivots).map(|i| i * n / n_pivots).collect();
        let mut plain: Vec<f64> = Vec::new();
        let mut savings: Vec<f64> = Vec::new();
        for &pivot in &pivots {
            let mut tree = build_junction_tree(&bn).expect("tree");
            tree.set_pivot(pivot);
            let rooted = RootedTree::new(&tree);
            // workload depends on the pivot (skew is depth-based)
            let train = skewed_queries(&tree, &rooted, n_train, QuerySpec::default(), 11);
            let test = skewed_queries(&tree, &rooted, n_test, QuerySpec::default(), 12);
            let engine = peanut_junction::QueryEngine::symbolic(&tree);
            let total: u128 = test
                .iter()
                .map(|q| engine.cost(q).expect("cost").ops as u128)
                .sum();
            plain.push(total as f64 / n_test as f64);

            let w = Workload::from_queries(train);
            let ctx = OfflineContext::new(&tree, &w).expect("ctx");
            let budget = tree.total_separator_size().saturating_mul(10_000);
            let mat = Peanut::offline(&ctx, &PeanutConfig::plus(budget).with_epsilon(1.2));
            // adapt the harness helper to this tree
            let p = Prepared {
                spec: spec.clone(),
                bn: bn.clone(),
                tree,
            };
            savings.push(mean(&savings_percent(&p, &mat, &test)));
        }
        let fmin = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let fmax = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "{:<12} {:>14.0} {:>14.0} {:>12.2} {:>12.2}",
            spec.name,
            fmin(&plain),
            fmax(&plain),
            fmin(&savings),
            fmax(&savings)
        );
    }
    println!("\n(large spreads = a pivot-aware materialization optimizer has headroom — the");
    println!(" open problem the paper sketches in its future work)");
}
