//! Figure 9 — robustness to workload drift, uniform-trained: average cost
//! of Q′ = λ·uniform + (1−λ)·skewed for JT, PEANUT and PEANUT+ materialized
//! on the *uniform* workload (K = 10·b_T, ε = 1.2).

pub fn run() {
    println!("Figure 9: robustness to drift, materialization trained on the UNIFORM workload");
    println!("(avg cost of Q' = lambda*uniform + (1-lambda)*skewed)");
    super::fig8::run_drift(false, 200);
}
