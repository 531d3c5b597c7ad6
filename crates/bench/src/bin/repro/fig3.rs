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
//! Queries whose intermediate tables exceed the dense-materialization cap
//! are skipped (these are the paper's ">1 minute" outliers); the count is
//! reported.

use peanut_bench::harness::{is_quick, pearson, Prepared};
use peanut_junction::{QueryEngine, QueryPlan, ReducedTree, RootedTree, SteinerTree};
use peanut_pgm::Scope;
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
        let queries = p.skewed(n_queries, 33);
        let mut ops_v = Vec::new();
        let mut executed_v = Vec::new();
        let mut time_v = Vec::new();
        let mut skipped = 0usize;
        for q in &queries {
            // best-of-3 wall time per query to suppress scheduler noise on
            // the sub-millisecond ones
            let mut best: Option<(f64, u64)> = None;
            let mut failed = false;
            for _ in 0..3 {
                let t0 = Instant::now();
                match engine.answer(q) {
                    Ok((_, cost)) => {
                        let dt = t0.elapsed().as_secs_f64();
                        if best.is_none_or(|(b, _)| dt < b) {
                            best = Some((dt, cost.ops));
                        }
                    }
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
            match (failed, best) {
                (false, Some((dt, ops))) => {
                    ops_v.push(ops as f64);
                    executed_v.push(executed_ops(&engine, q).unwrap_or(ops) as f64);
                    time_v.push(dt);
                }
                _ => skipped += 1,
            }
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
/// cheapest rooting of its Steiner tree (`None` in clique, where the two
/// counts are one marginalization).
fn executed_ops(engine: &QueryEngine<'_>, q: &Scope) -> Option<u64> {
    let QueryPlan::OutOfClique(st) = engine.plan(q).ok()? else {
        return None;
    };
    let tree = engine.tree();
    st.nodes()
        .iter()
        .map(|&m| {
            let rooted = RootedTree::rooted_at(tree, m);
            let members = SteinerTree::from_parts(st.nodes().to_vec(), m);
            ReducedTree::from_steiner(tree, &rooted, &members, None)
                .cost(q, tree.domain())
                .ops
        })
        .min()
}
