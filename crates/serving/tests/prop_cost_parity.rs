//! Differential property tests of the symbolic cost model: the `QueryCost`
//! reported by the plain JT path and by the shortcut-reduced path must
//! agree with an independently computed operation count over the (reduced)
//! Steiner tree, and the numeric kernels must report the identical ops —
//! guarding the stride-walk kernel rewrite against silent cost regressions.

use peanut_core::{Materialization, OfflineContext, OnlineEngine, Peanut, PeanutConfig, Workload};
use peanut_junction::cost::marginalization_ops;
use peanut_junction::{build_junction_tree, QueryEngine, QueryPlan, ReducedTree};
use peanut_pgm::generate::{generate_network, DagConfig};
use peanut_pgm::{table_size, Domain, Scope};
use peanut_workload::{uniform_queries, QuerySpec};
use proptest::prelude::*;

/// Independent re-derivation of the §5.1 cost model on a reduced tree:
/// recursive (rather than the engine's iterative post-order) accumulation
/// of `|table(U_v)| · (1 + #incoming) + |table(U_v)|` per node, built
/// directly on `table_size`.
fn reference_ops(rt: &ReducedTree, query: &Scope, domain: &Domain) -> u64 {
    fn visit(
        rt: &ReducedTree,
        u: usize,
        query: &Scope,
        domain: &Domain,
        total: &mut u64,
    ) -> (Scope, Scope) {
        // returns (message scope into the parent, query vars carried so far)
        let node_scope = rt.node(u).scope.clone();
        let mut product_scope = node_scope.clone();
        let mut carried = node_scope.intersect(query);
        let n_in = rt.children(u).len();
        for &c in rt.children(u) {
            let (m, carry) = visit(rt, c, query, domain, total);
            product_scope = product_scope.union(&m);
            carried = carried.union(&carry);
        }
        let t = table_size(&product_scope, domain);
        let is_root = u == rt.root();
        let factors = 1 + n_in + usize::from(!is_root); // + separator division
        *total = total
            .saturating_add(t.saturating_mul(factors as u64))
            .saturating_add(t);
        if is_root {
            (Scope::empty(), carried)
        } else {
            let p = rt.parent(u).expect("non-root");
            let sep = node_scope.intersect(rt.node(p).scope);
            (sep.union(&carried), carried)
        }
    }
    let mut total = 0u64;
    visit(rt, rt.root(), query, domain, &mut total);
    total
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Plain-JT and shortcut-path symbolic costs both equal the independent
    /// recomputation, in-clique queries are charged exactly
    /// `marginalization_ops`, and numeric execution reports the same ops.
    #[test]
    fn cost_model_parity(seed in 0u64..2_000, n in 5usize..11, budget in 0u64..200) {
        let cfg = DagConfig {
            n_nodes: n,
            n_edges: n - 1 + n / 4,
            max_in_degree: 2,
            window: 3,
            cardinalities: vec![2, 3],
        };
        let Ok(bn) = generate_network(&cfg, seed) else { return Ok(()) };
        let tree = build_junction_tree(&bn).unwrap();
        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let domain = tree.domain();

        let spec = QuerySpec { min_vars: 1, max_vars: 3 };
        let queries = uniform_queries(bn.domain(), 12, spec, seed ^ 0xc0c0);
        let mat = if budget == 0 {
            Materialization::default()
        } else {
            let ctx = OfflineContext::new(&tree, &Workload::from_queries(queries.clone())).unwrap();
            let (mat, _) = Peanut::offline_numeric(
                &ctx,
                &PeanutConfig::plus(budget).with_epsilon(1.0),
                engine.numeric_state().unwrap(),
            )
            .unwrap();
            mat
        };
        let online = OnlineEngine::new(&engine, &mat);

        for q in &queries {
            match engine.plan(q).unwrap() {
                QueryPlan::InClique(u) => {
                    let c = engine.cost(q).unwrap();
                    prop_assert_eq!(c.ops, marginalization_ops(tree.clique(u), domain));
                    prop_assert_eq!(c.messages, 0);
                }
                QueryPlan::OutOfClique(_) => {
                    // plain JT path vs independent recomputation
                    let plain_rt = engine.reduced_for(q).unwrap().expect("out-of-clique");
                    let plain = engine.cost(q).unwrap();
                    prop_assert_eq!(plain.ops, reference_ops(&plain_rt, q, domain));
                    // shortcut-reduced path vs independent recomputation
                    let with_mat = online.cost(q).unwrap();
                    if let Some(rt) = online.reduce(q).unwrap() {
                        prop_assert_eq!(with_mat.ops, reference_ops(&rt, q, domain));
                        prop_assert_eq!(with_mat.shortcuts_used, rt.shortcuts_used());
                    }
                    // the online engine never regresses past plain JT
                    prop_assert!(with_mat.ops <= plain.ops);
                }
            }
            // numeric execution must report the identical symbolic count
            let (_, c_num) = online.answer(q).unwrap();
            prop_assert_eq!(c_num.ops, online.cost(q).unwrap().ops);
        }
    }
}
