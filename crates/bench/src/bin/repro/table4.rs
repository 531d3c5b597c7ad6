//! Table 4 — materialization-phase statistics: disk space (MB) and time (s)
//! for VE-5, JT (construction + calibration), INDSEP, PEANUT and PEANUT+.
//!
//! Settings follow the uniform-workload experiment (§5.1): INDSEP block
//! size 10³, PEANUT/PEANUT+ target budget 1000·b_T, ε = 1.2, VE-n with
//! n = 5. Datasets whose calibration the paper could not finish (TPC-H,
//! Munin, Barley) are marked `NA` in the JT column here too: our pipeline
//! runs them in size-only mode exactly as the paper ran them uncalibrated.

use peanut_bench::harness::{run_indsep, run_offline, uniform_count, Prepared};
use peanut_core::Variant;
use peanut_junction::{NumericState, RootedTree};
use std::time::Instant;

const BYTES_PER_ENTRY: f64 = 8.0;

fn mb(entries: u64) -> f64 {
    entries as f64 * BYTES_PER_ENTRY / 1e6
}

pub fn run() {
    let n_q = uniform_count();
    println!("Table 4: materialization phase — disk space (MB) and time (seconds)");
    println!(
        "{:<12} | {:>10} {:>10} {:>10} {:>10} {:>10} | {:>9} {:>9} {:>9} {:>9} {:>9}",
        "dataset",
        "VE-5 MB",
        "JT MB",
        "INDSEP MB",
        "PEANUT MB",
        "PNUT+ MB",
        "VE-5 s",
        "JT s",
        "INDSEP s",
        "PEANUT s",
        "PNUT+ s"
    );
    for p in Prepared::all() {
        let train = p.uniform(n_q, 21);

        // VE-5
        let weighted: Vec<(peanut_pgm::Scope, f64)> =
            train.iter().map(|q| (q.clone(), 1.0)).collect();
        let t0 = Instant::now();
        let ven = peanut_ve::VeN::select(&p.bn, &weighted, 5);
        let ve_time = t0.elapsed().as_secs_f64();
        let ve_mb = mb(ven.total_size());

        // JT: clique + separator tables; calibration time when feasible
        let jt_entries: u64 = (0..p.tree.n_cliques())
            .map(|u| p.tree.clique_size(u))
            .chain((0..p.tree.edges().len()).map(|e| p.tree.separator_size(e)))
            .fold(0u64, u64::saturating_add);
        let (jt_mb, jt_time) = if p.spec.paper.calibratable {
            let rooted = RootedTree::new(&p.tree);
            let t0 = Instant::now();
            match NumericState::initialize(&p.tree, &p.bn) {
                Ok(mut ns) => match ns.calibrate(&p.tree, &rooted) {
                    Ok(()) => (
                        format!("{:.3}", mb(jt_entries)),
                        format!("{:.2}", t0.elapsed().as_secs_f64()),
                    ),
                    Err(_) => ("NA".into(), "NA".into()),
                },
                Err(_) => ("NA".into(), "NA".into()),
            }
        } else {
            (format!("{:.3}*", mb(jt_entries)), "NA".into())
        };

        // INDSEP, block 10^3
        let (ind_mat, ind_time) = run_indsep(&p, 1_000);
        // PEANUT / PEANUT+ at K = 1000 b_T, eps = 1.2
        let budget = p.b_t().saturating_mul(1_000);
        let (pea_mat, pea_time) = run_offline(&p, &train, budget, 1.2, Variant::Peanut);
        let (plus_mat, plus_time) = run_offline(&p, &train, budget, 1.2, Variant::PeanutPlus);

        println!(
            "{:<12} | {:>10.3} {:>10} {:>10.3} {:>10.3} {:>10.3} | {:>9.2} {:>9} {:>9.4} {:>9.2} {:>9.2}",
            p.spec.name,
            ve_mb,
            jt_mb,
            mb(ind_mat.total_size()),
            mb(pea_mat.total_size()),
            mb(plus_mat.total_size()),
            ve_time,
            jt_time,
            ind_time,
            pea_time,
            plus_time,
        );
    }
    println!("(* = stored uncalibrated, as in the paper: TPC-H, Munin, Barley)");
}
