//! Figure 8 — robustness to workload drift, skewed-trained: average cost of
//! processing Q′ = λ·skewed + (1−λ)·uniform for JT, PEANUT and PEANUT+
//! materialized on the *skewed* workload (K = 10·b_T, ε = 1.2).

use peanut_bench::harness::{evaluate, run_offline, Prepared};
use peanut_core::Variant;
use peanut_workload::mix;

/// Shared by fig8/fig9: `primary_skewed` selects which workload trains the
/// materialization and anchors λ; the i-th λ's test mix is drawn with seed
/// `seed + i`.
pub fn run_drift(primary_skewed: bool, seed: u64) {
    let n_pool = 500;
    let n_test = 500;
    for p in Prepared::all() {
        let skew = p.skewed(n_pool, 41);
        let unif = p.uniform(n_pool, 42);
        let (train, other) = if primary_skewed {
            (&skew, &unif)
        } else {
            (&unif, &skew)
        };
        let budget = p.b_t().saturating_mul(10);
        let (pea, _) = run_offline(&p, train, budget, 1.2, Variant::Peanut);
        let (plus, _) = run_offline(&p, train, budget, 1.2, Variant::PeanutPlus);
        println!("{}:", p.spec.name);
        println!(
            "    {:>6} {:>16} {:>16} {:>16}",
            "lambda", "JT", "PEANUT", "PEANUT+"
        );
        for (i, lambda) in [0.0, 0.25, 0.5, 0.75, 1.0].into_iter().enumerate() {
            let test = mix(train, other, lambda, n_test, seed + i as u64);
            let (with_pea, base) = evaluate(&p, &pea, &test);
            let (with_plus, _) = evaluate(&p, &plus, &test);
            println!(
                "    {:>6.2} {:>16} {:>16} {:>16}",
                lambda,
                base / n_test as u128,
                with_pea / n_test as u128,
                with_plus / n_test as u128,
            );
        }
    }
}

pub fn run() {
    println!("Figure 8: robustness to drift, materialization trained on the SKEWED workload");
    println!("(avg cost of Q' = lambda*skewed + (1-lambda)*uniform)");
    run_drift(true, 100);
}
