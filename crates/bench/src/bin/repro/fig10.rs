//! Figure 10 — impact of the query-log size N_q used by the offline
//! optimization on the savings of PEANUT and PEANUT+ (ε = 6, K = 10·b_T,
//! test log of 1000 skewed queries). The paper finds the impact is minor.

use peanut_bench::harness::{is_quick, mean, run_offline, savings_percent, Prepared};
use peanut_core::Variant;

pub fn run() {
    println!("Figure 10: average cost savings (%) vs training-log size N_q");
    let n_test = if is_quick() { 200 } else { 1000 };
    let sizes: &[usize] = if is_quick() {
        &[50, 250]
    } else {
        &[50, 250, 500, 1000]
    };
    for p in Prepared::all() {
        let test = p.skewed(n_test, 77);
        let budget = p.b_t().saturating_mul(10);
        println!("{}:", p.spec.name);
        println!("    {:>6} {:>14} {:>14}", "N_q", "PEANUT %", "PEANUT+ %");
        for &nq in sizes {
            let train = p.skewed(nq, 76);
            let (pea, _) = run_offline(&p, &train, budget, 6.0, Variant::Peanut);
            let (plus, _) = run_offline(&p, &train, budget, 6.0, Variant::PeanutPlus);
            let s_pea = mean(&savings_percent(&p, &pea, &test));
            let s_plus = mean(&savings_percent(&p, &plus, &test));
            println!("    {:>6} {:>14.2} {:>14.2}", nq, s_pea, s_plus);
        }
    }
}
