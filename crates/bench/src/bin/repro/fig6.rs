//! Figure 6 — average cost savings against the Steiner-tree diameter of
//! the query, for INDSEP, PEANUT and PEANUT+ (skewed workload; per query
//! the maximum savings over the considered budgets, as in the paper).

use peanut_bench::harness::{indsep_blocks, run_indsep, run_offline, skewed_counts, Prepared};
use peanut_core::{Materialization, OnlineEngine, Variant};
use peanut_junction::{QueryEngine, RootedTree, SteinerTree};
use std::collections::BTreeMap;

/// Per-diameter average of max savings (absolute operations) over configs.
fn series(
    p: &Prepared,
    mats: &[Materialization],
    test: &[peanut_pgm::Scope],
) -> BTreeMap<usize, f64> {
    let engine = QueryEngine::symbolic(&p.tree);
    let rooted = RootedTree::new(&p.tree);
    let mut acc: BTreeMap<usize, (f64, usize)> = BTreeMap::new();
    for q in test {
        let Ok(st) = SteinerTree::extract(&p.tree, &rooted, q) else {
            continue;
        };
        let diam = st.diameter(&rooted);
        let base = engine.cost(q).expect("cost").ops as f64;
        let mut best_savings = 0.0f64;
        for mat in mats {
            let online = OnlineEngine::new(&engine, mat);
            let with = online.cost(q).expect("cost").ops as f64;
            best_savings = best_savings.max(base - with);
        }
        let e = acc.entry(diam).or_insert((0.0, 0));
        e.0 += best_savings;
        e.1 += 1;
    }
    acc.into_iter()
        .map(|(d, (s, c))| (d, s / c as f64))
        .collect()
}

pub fn run() {
    let (n_train, n_test) = skewed_counts();
    println!("Figure 6: average cost savings vs Steiner-tree diameter (skewed workload)");
    for p in Prepared::all() {
        let train = p.skewed(n_train, 11);
        let test = p.skewed(n_test, 12);

        let ind_mats: Vec<Materialization> = [
            indsep_blocks()[0],
            indsep_blocks()[indsep_blocks().len() / 2],
            *indsep_blocks().last().expect("non-empty"),
        ]
        .iter()
        .map(|&b| run_indsep(&p, b).0)
        .collect();
        let peanut_mats: Vec<Materialization> = [0.1f64, 10.0, 10_000.0]
            .iter()
            .map(|&m| {
                run_offline(
                    &p,
                    &train,
                    ((p.b_t() as f64) * m).max(1.0) as u64,
                    1.2,
                    Variant::Peanut,
                )
                .0
            })
            .collect();
        let plus_mats: Vec<Materialization> = [0.1f64, 10.0, 10_000.0]
            .iter()
            .map(|&m| {
                run_offline(
                    &p,
                    &train,
                    ((p.b_t() as f64) * m).max(1.0) as u64,
                    1.2,
                    Variant::PeanutPlus,
                )
                .0
            })
            .collect();

        println!("{}:", p.spec.name);
        for (label, mats) in [
            ("INDSEP", &ind_mats),
            ("PEANUT", &peanut_mats),
            ("PEANUT+", &plus_mats),
        ] {
            let s = series(&p, mats, &test);
            let row: Vec<String> = s.iter().map(|(d, avg)| format!("d={d}:{avg:.1}")).collect();
            println!("    {label:<8} {}", row.join("  "));
        }
    }
}
