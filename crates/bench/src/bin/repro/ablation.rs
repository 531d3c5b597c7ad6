//! Ablation studies for two design choices of the method — not a paper
//! experiment (see "Deviations from the paper" in `ARCHITECTURE.md`):
//!
//! 1. **Workload-awareness** — the paper's central claim: compare PEANUT+
//!    trained on the true (skewed) workload against the same machinery
//!    trained on an uninformative uniform workload, evaluated on skewed
//!    test queries.
//! 2. **Grid resolution** — ε sweep of solution quality at fixed budget.

use peanut_bench::harness::{mean, run_offline, savings_percent, skewed_counts, Prepared};
use peanut_core::Variant;

pub fn run() {
    let (n_train, n_test) = skewed_counts();
    println!("Ablation 1: workload-aware vs workload-agnostic training (PEANUT+, K = b_T)");
    println!(
        "{:<12} {:>16} {:>18} {:>10}",
        "dataset", "aware mean %", "agnostic mean %", "delta"
    );
    for p in Prepared::all() {
        let train_skew = p.skewed(n_train, 11);
        let train_unif = p.uniform(n_train, 15);
        let test = p.skewed(n_test, 12);
        // a *contested* budget: with K = 10^4 b_T everything beneficial fits
        // either way and awareness cannot show; at K = b_T the methods must
        // choose, which is where the workload signal pays.
        let budget = p.b_t();
        let (aware, _) = run_offline(&p, &train_skew, budget, 1.2, Variant::PeanutPlus);
        let (agnostic, _) = run_offline(&p, &train_unif, budget, 1.2, Variant::PeanutPlus);
        let s_aware = mean(&savings_percent(&p, &aware, &test));
        let s_agn = mean(&savings_percent(&p, &agnostic, &test));
        println!(
            "{:<12} {:>16.2} {:>18.2} {:>+10.2}",
            p.spec.name,
            s_aware,
            s_agn,
            s_aware - s_agn
        );
    }

    println!("\nAblation 2: epsilon sweep at fixed budget (PEANUT+, K = 10 b_T, skewed)");
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>10}",
        "dataset", "e=1.05", "e=1.2", "e=6", "e=12"
    );
    for p in Prepared::all() {
        let train = p.skewed(n_train, 11);
        let test = p.skewed(n_test, 12);
        let budget = p.b_t().saturating_mul(10);
        let mut row = Vec::new();
        for eps in [1.05, 1.2, 6.0, 12.0] {
            let (mat, _) = run_offline(&p, &train, budget, eps, Variant::PeanutPlus);
            row.push(mean(&savings_percent(&p, &mat, &test)));
        }
        println!(
            "{:<12} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            p.spec.name, row[0], row[1], row[2], row[3]
        );
    }
}
