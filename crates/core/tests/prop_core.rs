//! Property tests for the materialization core on random networks.

use peanut_core::budp::budp;
use peanut_core::lrdp::lrdp_all_on;
use peanut_core::{
    BudgetGrid, Materialization, MaterializedShortcut, OfflineContext, OnlineEngine, Peanut,
    PeanutConfig, SequentialExecutor, Shortcut, Workload,
};
use peanut_junction::{build_junction_tree, QueryEngine, RootedTree};
use peanut_pgm::generate::{generate_network, DagConfig};
use peanut_pgm::{Scope, Var};
use proptest::prelude::*;

fn net_strategy() -> impl Strategy<Value = (u64, usize)> {
    (0u64..5_000, 6usize..14)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any connected clique subset yields a shortcut whose scope is exactly
    /// the union of its boundary separators, and whose size multiplies the
    /// scope cardinalities.
    #[test]
    fn shortcut_invariants((seed, n) in net_strategy(), pick in 0usize..100) {
        let cfg = DagConfig { n_nodes: n, n_edges: n - 1 + n / 3, max_in_degree: 3, window: 3, cardinalities: vec![2, 3] };
        let Ok(bn) = generate_network(&cfg, seed) else { return Ok(()) };
        let tree = build_junction_tree(&bn).unwrap();
        let rooted = RootedTree::new(&tree);
        // grow a connected region from a random start
        let start = pick % tree.n_cliques();
        let mut region = vec![start];
        let mut cursor = start;
        for _ in 0..(pick % 3) {
            if let Some(&c) = rooted.children(cursor).first() {
                region.push(c);
                cursor = c;
            }
        }
        let s = Shortcut::from_nodes(&tree, &rooted, region.clone()).unwrap();
        // scope == union of cut separator scopes
        let mut expect = Scope::empty();
        for &e in s.cut() {
            expect = expect.union(tree.separator(e));
        }
        prop_assert_eq!(s.scope(), &expect);
        let size: u64 = s.scope().iter().map(|v| tree.domain().card(v) as u64).product();
        prop_assert_eq!(s.size(), size);
        // frontier nodes are children of members, outside the region
        for d in s.frontier_set().iter() {
            prop_assert!(!s.nodes().contains(&d));
            prop_assert!(s.nodes().contains(&rooted.parent(d).unwrap()));
        }
    }

    /// PEANUT (BUDP) packings are node-disjoint, within budget (both in DP
    /// estimate and true size after repair), and online costs never exceed
    /// the plain-JT baseline.
    #[test]
    fn peanut_end_to_end((seed, n) in net_strategy(), k in 8u64..200) {
        let cfg = DagConfig { n_nodes: n, n_edges: n - 1 + n / 4, max_in_degree: 2, window: 3, cardinalities: vec![2] };
        let Ok(bn) = generate_network(&cfg, seed) else { return Ok(()) };
        let tree = build_junction_tree(&bn).unwrap();
        let queries: Vec<Scope> = (0..n as u32 - 1)
            .map(|a| Scope::from_iter([Var(a), Var((a + (n as u32 / 2)) % n as u32)]))
            .filter(|q| q.len() == 2)
            .collect();
        let w = Workload::from_queries(queries.clone());
        let ctx = OfflineContext::new(&tree, &w).unwrap();
        let grid = BudgetGrid::exact(k);
        let roots = lrdp_all_on(&ctx, &grid, &SequentialExecutor);
        let res = budp(&ctx, &grid, &roots);
        let est: u64 = res.shortcuts.iter().map(|s| s.dp_cost).sum();
        prop_assert!(est <= k);
        for (i, a) in res.shortcuts.iter().enumerate() {
            for b in &res.shortcuts[i + 1..] {
                prop_assert!(!a.shortcut.overlaps(&b.shortcut));
            }
        }
        // full method with repair
        let pc = PeanutConfig::disjoint(k).with_epsilon(1.0);
        let mat = Peanut::offline(&ctx, &pc);
        prop_assert!(mat.total_size() <= k);
        let engine = QueryEngine::symbolic(&tree);
        let online = OnlineEngine::new(&engine, &mat);
        for q in queries.iter().take(6) {
            let base = online.baseline_cost(q).unwrap().ops;
            let with = online.cost(q).unwrap().ops;
            prop_assert!(with <= base, "shortcut increased cost: {with} > {base}");
        }
    }

    /// The online engine preserves exact answers for arbitrary materialized
    /// shortcuts (numeric mode).
    #[test]
    fn online_answers_preserved((seed, n) in net_strategy(), k in 16u64..128) {
        let cfg = DagConfig { n_nodes: n, n_edges: n - 1, max_in_degree: 2, window: 2, cardinalities: vec![2] };
        let Ok(bn) = generate_network(&cfg, seed) else { return Ok(()) };
        let tree = build_junction_tree(&bn).unwrap();
        let queries: Vec<Scope> = (0..(n as u32).saturating_sub(3))
            .map(|a| Scope::from_iter([Var(a), Var(a + 3)]))
            .collect();
        if queries.is_empty() { return Ok(()); }
        let w = Workload::from_queries(queries.clone());
        let ctx = OfflineContext::new(&tree, &w).unwrap();
        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let cfg_p = PeanutConfig::plus(k).with_epsilon(1.0);
        let (mat, _) = Peanut::offline_numeric(&ctx, &cfg_p, engine.numeric_state().unwrap()).unwrap();
        let online = OnlineEngine::new(&engine, &mat);
        for q in queries.iter().take(4) {
            let (got, _) = online.answer(q).unwrap();
            let want = peanut_pgm::joint::marginal(&bn, q).unwrap();
            prop_assert!(got.max_abs_diff(&want).unwrap() < 1e-9);
        }
        let _: &Materialization = &mat;
        let _: Option<&MaterializedShortcut> = mat.shortcuts.first();
    }
}
