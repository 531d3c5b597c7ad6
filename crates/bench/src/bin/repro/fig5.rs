//! Figure 5 — distribution of cost-savings percentage against materialized
//! (actual) budget, for INDSEP (three block sizes) and PEANUT+ (three ε
//! levels), on the skewed workload.
//!
//! For INDSEP the paper picks the block sizes giving the minimum, median
//! and maximum materialized space among the §5.1 candidates; PEANUT+ runs
//! the three target budgets {b_T/10, 10·b_T, 10⁴·b_T}.

use peanut_bench::harness::{
    indsep_blocks, mean, percentile, run_indsep, run_offline, savings_percent, skewed_counts,
    Prepared,
};
use peanut_core::Variant;

fn print_dist(label: &str, budget: u64, savings: &[f64]) {
    println!(
        "    {label:<16} actual {:>12}  mean {:>6.2}%  p25 {:>6.2}%  median {:>6.2}%  p75 {:>6.2}%",
        budget,
        mean(savings),
        percentile(savings, 25.0),
        percentile(savings, 50.0),
        percentile(savings, 75.0),
    );
}

pub fn run() {
    let (n_train, n_test) = skewed_counts();
    println!("Figure 5: cost-savings distribution vs materialized budget (skewed workload)");
    for p in Prepared::all() {
        let train = p.skewed(n_train, 11);
        let test = p.skewed(n_test, 12);
        println!("{}:", p.spec.name);

        // INDSEP at min / median / max materialized space
        let mut ind: Vec<(u64, peanut_core::Materialization)> = indsep_blocks()
            .into_iter()
            .map(|b| {
                let (mat, _) = run_indsep(&p, b);
                (mat.total_size(), mat)
            })
            .collect();
        ind.sort_by_key(|(sz, _)| *sz);
        ind.dedup_by_key(|(sz, _)| *sz);
        let picks = [0, ind.len() / 2, ind.len() - 1];
        for &i in &picks {
            let (sz, mat) = &ind[i];
            let savings = savings_percent(&p, mat, &test);
            print_dist("INDSEP", *sz, &savings);
        }

        // PEANUT+ at the three targets for each eps
        for eps in [1.2, 6.0, 12.0] {
            for mult in [0.1f64, 10.0, 10_000.0] {
                let budget = ((p.b_t() as f64) * mult).max(1.0) as u64;
                let (mat, _) = run_offline(&p, &train, budget, eps, Variant::PeanutPlus);
                let savings = savings_percent(&p, &mat, &test);
                print_dist(&format!("PEANUT+ e={eps}"), mat.total_size(), &savings);
            }
        }
    }
}
