//! Figure 3 — wall-clock running time against the operation-count cost
//! model, for queries processed with the standard junction-tree algorithm.
//! Reports the Pearson correlation per dataset (the paper finds ≈ 0.98–0.99
//! on Andes, Hailfinder and PathFinder).
//!
//! Two counts per query. The *paper* count is the one every answer is
//! charged: message passing toward `r_q`, the Steiner member closest to the
//! pivot. The engine runs its pass toward the member where that count is
//! smallest, so the time follows the *executed* count: the minimum over the
//! Steiner members `m` of the same tree rooted at `m`. Both correlations
//! are reported; the second is the one that tests the cost model.
//!
//! Each run is timed on an engine over a fresh clone of the calibrated
//! tables, made before the clock starts. A clone's message memo starts
//! empty, so no pass takes a message an earlier run or query filed: on one
//! shared engine the later runs would time memo hits, not the count.
//!
//! Queries whose intermediate tables exceed the dense-materialization cap
//! are skipped (these are the paper's ">1 minute" outliers); the count is
//! reported.

use peanut_bench::harness::{is_quick, pearson, Prepared};
use peanut_junction::QueryEngine;
use peanut_pgm::{PgmError, Scope};
use std::time::Instant;

pub fn run() {
    let n_queries = if is_quick() { 40 } else { 150 };
    println!("Figure 3: running time vs operation count (standard JT algorithm)");
    for name in ["Andes", "Hailfinder", "PathFinder"] {
        let p = Prepared::by_name(name);
        let engine = match QueryEngine::numeric(&p.tree, &p.bn) {
            Ok(e) => e,
            Err(e) => {
                println!("{name}: calibration infeasible ({e}); skipped");
                continue;
            }
        };
        let ns = engine.numeric_state().expect("a numeric engine");
        let queries = p.skewed(n_queries, 33);
        let mut ops_v = Vec::new();
        let mut executed_v = Vec::new();
        let mut time_v = Vec::new();
        let mut skipped = 0usize;
        for q in &queries {
            // best-of-3 wall time per query, each on a cold memo, to
            // suppress scheduler noise on the sub-millisecond ones
            let runs = (0..3).map(|_| {
                let cold = QueryEngine::from_calibrated(&p.tree, ns.clone());
                let t0 = Instant::now();
                let (_, cost) = cold.answer(q)?;
                Ok::<_, PgmError>((t0.elapsed().as_secs_f64(), cost.ops))
            });
            let Ok(runs) = runs.collect::<Result<Vec<_>, _>>() else {
                skipped += 1;
                continue;
            };
            let (dt, ops) = runs
                .into_iter()
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .unwrap_or_default();
            ops_v.push(ops as f64);
            executed_v.push(executed_ops(&engine, q).unwrap_or(ops) as f64);
            time_v.push(dt);
        }
        let r = pearson(&ops_v, &time_v);
        let r_executed = pearson(&executed_v, &time_v);
        println!(
            "{name:<12} queries {:>4}  skipped {skipped:>3}  Pearson correlation: {r:.3} \
             (paper count), {r_executed:.3} (executed count)",
            ops_v.len()
        );
        // a few sample rows (ops, seconds), like the scatter in the paper
        let mut idx: Vec<usize> = (0..ops_v.len()).collect();
        idx.sort_by(|&a, &b| executed_v[a].total_cmp(&executed_v[b]));
        for &i in idx.iter().step_by((idx.len() / 6).max(1)) {
            println!(
                "    ops {:>14.0}   executed {:>14.0}   time {:>10.6}s",
                ops_v[i], executed_v[i], time_v[i]
            );
        }
    }
}

/// The count of the pass the engine runs for an out-of-clique `q`: the
/// cheapest rooting of its plan (`None` in clique, where the two counts are
/// one marginalization).
fn executed_ops(engine: &QueryEngine<'_>, q: &Scope) -> Option<u64> {
    let rt = engine.reduced_for(q).ok()??;
    let d = engine.tree().domain();
    Some(rt.anatomy(q, d).cheapest_root(&rt, q, d).1)
}
