//! Figure 7 — average query-processing cost by query size |q| for VE-5,
//! JT, INDSEP, PEANUT and PEANUT+ on the uniform workload, plus the
//! aggregate average each method prints in the paper's panels.
//!
//! Settings (§5.1): the same 250 uniform queries (sizes 1–5) are used for
//! optimization and evaluation; INDSEP block 10³; PEANUT/PEANUT+ target
//! budget 1000·b_T, ε = 1.2; VE-n with n = 5.

use peanut_bench::harness::{run_indsep, run_offline, uniform_count, Prepared};
use peanut_core::{OnlineEngine, Variant};
use peanut_junction::QueryEngine;
use peanut_ve::VeN;

pub fn run() {
    let n_q = uniform_count();
    println!("Figure 7: average query cost by |q| (uniform workload)");
    for p in Prepared::all() {
        let queries = p.uniform(n_q, 21);
        let weighted: Vec<(peanut_pgm::Scope, f64)> =
            queries.iter().map(|q| (q.clone(), 1.0)).collect();

        let ven = VeN::select(&p.bn, &weighted, 5);
        let (ind_mat, _) = run_indsep(&p, 1_000);
        let budget = p.b_t().saturating_mul(1_000);
        let (pea_mat, _) = run_offline(&p, &queries, budget, 1.2, Variant::Peanut);
        let (plus_mat, _) = run_offline(&p, &queries, budget, 1.2, Variant::PeanutPlus);

        let engine = QueryEngine::symbolic(&p.tree);
        let ind = OnlineEngine::new(&engine, &ind_mat);
        let pea = OnlineEngine::new(&engine, &pea_mat);
        let plus = OnlineEngine::new(&engine, &plus_mat);

        // cost rows per method, bucketed by |q|
        let mut buckets: Vec<Vec<[f64; 5]>> = vec![Vec::new(); 6];
        for q in &queries {
            let costs = [
                ven.cost(&p.bn, q) as f64,
                engine.cost(q).expect("jt").ops as f64,
                ind.cost(q).expect("indsep").ops as f64,
                pea.cost(q).expect("peanut").ops as f64,
                plus.cost(q).expect("plus").ops as f64,
            ];
            buckets[q.len().min(5)].push(costs);
        }
        println!("{}:", p.spec.name);
        println!(
            "    {:<6} {:>14} {:>14} {:>14} {:>14} {:>14}",
            "|q|", "VE-5", "JT", "INDSEP", "PEANUT", "PEANUT+"
        );
        let mut totals = [0.0f64; 5];
        let mut count = 0usize;
        for (size, rows) in buckets.iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            let mut avg = [0.0f64; 5];
            for row in rows {
                for (a, r) in avg.iter_mut().zip(row) {
                    *a += r;
                }
                for (t, r) in totals.iter_mut().zip(row) {
                    *t += r;
                }
            }
            count += rows.len();
            for a in &mut avg {
                *a /= rows.len() as f64;
            }
            println!(
                "    {:<6} {:>14.0} {:>14.0} {:>14.0} {:>14.0} {:>14.0}",
                size, avg[0], avg[1], avg[2], avg[3], avg[4]
            );
        }
        for t in &mut totals {
            *t /= count as f64;
        }
        println!(
            "    {:<6} {:>14} {:>14} {:>14} {:>14} {:>14}",
            "avg",
            peanut_bench::harness::sci(totals[0]),
            peanut_bench::harness::sci(totals[1]),
            peanut_bench::harness::sci(totals[2]),
            peanut_bench::harness::sci(totals[3]),
            peanut_bench::harness::sci(totals[4]),
        );
    }
}
