//! Table 3 — offline running times (seconds) for PEANUT (PEANUT+ in
//! parentheses) at ε ∈ {1.2, 6, 12} and INDSEP index construction.
//!
//! Matches the paper's setting: skewed training workload, budget `b_T / 10`
//! for PEANUT/PEANUT+, the smallest block size for INDSEP.

use peanut_bench::harness::{run_indsep, run_offline, skewed_counts, Prepared};
use peanut_core::Variant;

pub fn run() {
    let (n_train, _) = skewed_counts();
    println!("Table 3: offline running times in seconds, budget K = b_T/10");
    println!(
        "{:<12} {:>18} {:>18} {:>18} {:>10}",
        "dataset", "eps=1.2", "eps=6", "eps=12", "INDSEP"
    );
    for p in Prepared::all() {
        let train = p.skewed(n_train, 11);
        let budget = (p.b_t() / 10).max(1);
        let mut cols = Vec::new();
        for eps in [1.2, 6.0, 12.0] {
            let (_, t_peanut) = run_offline(&p, &train, budget, eps, Variant::Peanut);
            let (_, t_plus) = run_offline(&p, &train, budget, eps, Variant::PeanutPlus);
            cols.push(format!("{t_peanut:.3} ({t_plus:.3})"));
        }
        let (_, t_ind) = run_indsep(&p, 10);
        println!(
            "{:<12} {:>18} {:>18} {:>18} {:>10.4}",
            p.spec.name, cols[0], cols[1], cols[2], t_ind
        );
    }
}
