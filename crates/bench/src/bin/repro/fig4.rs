//! Figure 4 — materialized (actual) budget against target budget for
//! PEANUT at approximation levels ε ∈ {1.2, 6, 12} (log-log in the paper).
//!
//! Reproduces the paper's qualitative finding: the actual budget is far
//! below the target, and the gap widens as ε grows (coarser grids round
//! costs up more aggressively and leave more budget unused).

use peanut_bench::harness::{is_quick, run_offline, skewed_counts, Prepared};
use peanut_core::Variant;

pub fn run() {
    let (n_train, _) = skewed_counts();
    let targets: Vec<u64> = if is_quick() {
        vec![100, 10_000, 1_000_000]
    } else {
        vec![
            100,
            1_000,
            10_000,
            100_000,
            1_000_000,
            10_000_000,
            100_000_000,
        ]
    };
    println!("Figure 4: actual vs target budget for PEANUT at three eps levels");
    for name in ["Andes", "Hailfinder", "PathFinder"] {
        let p = Prepared::by_name(name);
        let train = p.skewed(n_train, 7);
        println!("{name}:");
        println!(
            "  {:>12} {:>14} {:>14} {:>14}",
            "target", "actual e=1.2", "actual e=6", "actual e=12"
        );
        for &target in &targets {
            let mut row = Vec::new();
            for eps in [1.2, 6.0, 12.0] {
                let (mat, _) = run_offline(&p, &train, target, eps, Variant::Peanut);
                row.push(mat.total_size());
            }
            println!(
                "  {:>12} {:>14} {:>14} {:>14}",
                target, row[0], row[1], row[2]
            );
        }
    }
}
