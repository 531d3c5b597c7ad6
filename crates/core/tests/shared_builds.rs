//! A selection's tables built together — one message memo across the
//! batch ([`region_joints`]) — are the tables built one at a time.
//!
//! The reference is the per-shortcut build: the shortcut's region alone
//! through `region_joints` — its subtree's pass toward `r_S` for `X_S`
//! over a fresh `Scratch` and memo, so nothing is shared. (A plan's
//! `answer` is no reference: it runs toward the member where the query's
//! count is smallest, which need not be `r_S`.) On generated networks and
//! fixtures, with PEANUT+ selections at several budgets (so regions nest
//! and overlap), every table must equal the reference entry by entry under
//! `f64::to_bits`, with the same scope, and be charged the same operations.

use peanut_core::{OfflineContext, Peanut, PeanutConfig, Shortcut, Workload};
use peanut_junction::{build_junction_tree, region_joints, QueryEngine};
use peanut_pgm::generate::{generate_network, DagConfig};
use peanut_pgm::{fixtures, BayesianNetwork, Potential, Scope, Size};
use proptest::test_runner::TestRng;

/// The one-at-a-time build.
fn reference(engine: &QueryEngine<'_>, s: &Shortcut) -> (Potential, Size) {
    let ns = engine.numeric_state().unwrap();
    let region = (s.nodes(), s.root(), s.scope());
    let mut built = region_joints(engine.tree(), engine.rooted(), ns, &[region]).unwrap();
    built.pop().unwrap()
}

fn bits(p: &Potential) -> Vec<u64> {
    p.values().iter().map(|v| v.to_bits()).collect()
}

fn networks() -> Vec<(String, BayesianNetwork)> {
    let mut nets = vec![
        ("figure1".to_string(), fixtures::figure1()),
        ("asia".to_string(), fixtures::asia()),
        ("chain14".to_string(), fixtures::chain(14, 3, 6)),
        ("btree15".to_string(), fixtures::binary_tree(15, 2)),
    ];
    for seed in 0..10u64 {
        let n = 12 + 2 * seed as usize;
        let cfg = DagConfig {
            n_nodes: n,
            n_edges: n - 1 + n / 3,
            max_in_degree: 3,
            window: 4,
            cardinalities: vec![2, 3],
        };
        if let Ok(bn) = generate_network(&cfg, seed) {
            nets.push((format!("generated{seed}"), bn));
        }
    }
    nets
}

#[test]
fn shared_builds_are_the_one_at_a_time_builds() {
    let (mut tables, mut nested, mut overlapping) = (0, 0, 0);
    for (seed, (name, bn)) in networks().into_iter().enumerate() {
        let mut rng = TestRng::seed_from_u64(seed as u64);
        let tree = build_junction_tree(&bn).unwrap();
        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let ns = engine.numeric_state().unwrap();
        let n = bn.domain().len() as u32;
        let queries: Vec<Scope> = (0..40)
            .map(|_| {
                let k = rng.sample(2..5usize);
                Scope::from_indices(&(0..k).map(|_| rng.sample(0..n)).collect::<Vec<_>>())
            })
            .collect();
        let ctx = OfflineContext::new(&tree, &Workload::from_queries(queries)).unwrap();
        // every budget's selection, and all of them as one batch
        let mut all: Vec<Shortcut> = Vec::new();
        for budget in [4, 32, 256, 4096] {
            let cfg = PeanutConfig::plus(budget);
            let (mat, ops) = Peanut::offline_numeric(&ctx, &cfg, ns).unwrap();
            let mut want_ops: Size = 0;
            for m in &mat.shortcuts {
                let (want, cost) = reference(&engine, &m.shortcut);
                let got = m.potential.as_ref().unwrap();
                assert_eq!(got.scope(), want.scope(), "{name} K={budget}");
                assert_eq!(
                    bits(got),
                    bits(&want),
                    "{name} K={budget} {:?}",
                    m.shortcut.nodes()
                );
                want_ops += cost;
            }
            assert_eq!(ops, want_ops, "{name} K={budget}: charged ops");
            all.extend(mat.shortcuts.into_iter().map(|m| m.shortcut));
        }
        let regions: Vec<_> = all
            .iter()
            .map(|s| (s.nodes(), s.root(), s.scope()))
            .collect();
        let built = region_joints(&tree, engine.rooted(), ns, &regions).unwrap();
        for (i, (s, (got, ops))) in all.iter().zip(&built).enumerate() {
            let (want, cost) = reference(&engine, s);
            assert_eq!(got.scope(), want.scope(), "{name} {:?}", s.nodes());
            assert_eq!(bits(got), bits(&want), "{name} {:?}", s.nodes());
            assert_eq!(*ops, cost, "{name} {:?}: charged ops", s.nodes());
            let inside =
                |a: &Shortcut, b: &Shortcut| a.nodes().iter().all(|&u| b.node_set().contains(u));
            for t in all[..i].iter().filter(|t| t.nodes() != s.nodes()) {
                overlapping += usize::from(s.overlaps(t));
                nested += usize::from(inside(s, t) || inside(t, s));
            }
            tables += 1;
        }
    }
    // the batches exercised what the memo is for
    assert!(tables >= 100, "{tables} tables");
    assert!(
        nested >= 20 && overlapping >= 50,
        "{nested} nested, {overlapping} overlapping pairs"
    );
}
