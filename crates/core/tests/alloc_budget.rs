//! Allocation guard: building a query plan copies no table, and running
//! it builds no product.
//!
//! A plan is a view over the arena and the materialization, so the bytes
//! allocated inside `ReducedTree::from_steiner(.., Some(ns))` and inside
//! `OnlineEngine::reduce` are bookkeeping (node lists, a Steiner bitset, a
//! few index vectors) — bounded by the number of nodes, independent of how
//! many table entries those nodes hold. This binary installs the
//! workspace's counting global allocator (`counting-alloc`) to keep it
//! that way: when plans still copied
//! their tables the same measurements read megabytes per query. Answering
//! is held to the same kind of line: a message is summed straight out of
//! its factors, so the bytes a query allocates follow its messages, not the
//! product tables the cost model counts. The offline selection is held to
//! a count of allocator calls: LRDP's walk reads flat per-clique columns
//! and its branch DP reuses flat tables, so a selection allocates per
//! tree node, not per query and per combined child.
//!
//! Run with `--nocapture` to see bytes/query and allocations/query.

use counting_alloc::{Allocs, CountingAlloc};
use peanut_core::{
    Materialization, MaterializedShortcut, OfflineContext, OnlineEngine, Peanut, PeanutConfig,
    Shortcut, Workload,
};
use peanut_junction::{build_junction_tree, QueryEngine, QueryPlan, ReducedTree};
use peanut_pgm::{fixtures, BayesianNetwork, Potential, Scope, Scratch};

/// Per-query ceiling on plan-construction bytes.
const BUDGET_BYTES: usize = 64 << 10;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The value of `f`, and the bytes and allocation calls it made on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (out, Allocs { calls, bytes }) = counting_alloc::counted(f);
    (out, bytes, calls)
}

/// Plan-construction cost of the chain `x0 → … → x7` at cardinality
/// `card`, for the end-to-end query `{x0, x7}` whose Steiner tree is the
/// whole path: `(Steiner table entries, from_steiner bytes, reduce bytes)`.
/// The materialization holds one hand-made shortcut over the interior of
/// the path (its table's contents are irrelevant to planning).
fn chain_plan_bytes(card: u32) -> (usize, usize, usize) {
    let bn = fixtures::chain(8, card, 5);
    let tree = build_junction_tree(&bn).unwrap();
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let (rooted, ns) = (engine.rooted(), engine.numeric_state().unwrap());
    let q = Scope::from_indices(&[0, 7]);
    let QueryPlan::OutOfClique(st) = engine.plan(&q).unwrap() else {
        panic!("end-to-end chain query is out-of-clique");
    };
    assert_eq!(st.len(), tree.n_cliques(), "Steiner tree spans the path");
    let steiner_entries: usize = st.nodes().iter().map(|&u| ns.clique_table(u).len()).sum();

    let (rt, build_bytes, _) = counted(|| ReducedTree::from_steiner(&tree, rooted, &st, Some(ns)));
    assert_eq!(rt.len(), st.len());
    drop(rt);

    // interior of the path: the cliques holding neither query variable
    let interior: Vec<usize> = (0..tree.n_cliques())
        .filter(|&u| q.is_disjoint_from(tree.clique(u)))
        .collect();
    let shortcut = Shortcut::from_nodes(&tree, rooted, interior).unwrap();
    let table = Potential::ones(shortcut.scope().clone(), tree.domain()).unwrap();
    let mat = Materialization::new(
        vec![MaterializedShortcut {
            ratio: 1.0,
            benefit: 1.0,
            potential: Some(table),
            shortcut,
        }],
        true,
    );
    let online = OnlineEngine::new(&engine, &mat);
    let (reduced, reduce_bytes, _) = counted(|| online.reduce(&q).unwrap());
    let reduced = reduced.expect("out-of-clique");
    assert_eq!(reduced.shortcuts_used(), 1, "the shortcut must be applied");
    (steiner_entries, build_bytes, reduce_bytes)
}

#[test]
fn plan_bytes_do_not_scale_with_table_size() {
    let (small_entries, small_build, small_reduce) = chain_plan_bytes(40);
    let (entries, build, reduce) = chain_plan_bytes(400);
    println!(
        "chain(8): {small_entries} entries -> from_steiner {small_build} B, reduce {small_reduce} B; \
         {entries} entries -> from_steiner {build} B, reduce {reduce} B"
    );
    assert!(
        entries >= 1_000_000,
        "Steiner tables hold {entries} entries"
    );
    assert!(build <= BUDGET_BYTES, "from_steiner allocated {build} B");
    assert!(reduce <= BUDGET_BYTES, "reduce allocated {reduce} B");
    // 100× the table entries, the same plan bytes
    assert_eq!(build, small_build, "from_steiner bytes grew with tables");
    assert_eq!(reduce, small_reduce, "reduce bytes grew with tables");
}

/// Mean allocation calls per `reduce` and the worst query's bytes, over
/// every variable pair of a dataset, under the PEANUT+ materialization
/// trained on those pairs.
fn dataset_reduce_allocs(name: &str, bn: &BayesianNetwork) -> (f64, usize) {
    let tree = build_junction_tree(bn).unwrap();
    let engine = QueryEngine::numeric(&tree, bn).unwrap();
    let n = bn.n_vars() as u32;
    let pairs: Vec<Scope> = (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| Scope::from_indices(&[a, b])))
        .collect();
    let ctx = OfflineContext::new(&tree, &Workload::from_queries(pairs.iter().cloned())).unwrap();
    let cfg = PeanutConfig::plus(tree.total_separator_size().max(1) * 10);
    let (mat, _) = Peanut::offline_numeric(&ctx, &cfg, engine.numeric_state().unwrap()).unwrap();
    let online = OnlineEngine::new(&engine, &mat);
    let (mut bytes, mut calls, mut worst) = (0usize, 0usize, 0usize);
    for q in &pairs {
        let (rt, b, c) = counted(|| online.reduce(q).unwrap());
        drop(rt);
        bytes += b;
        calls += c;
        worst = worst.max(b);
    }
    let per = |x: usize| x as f64 / pairs.len() as f64;
    println!(
        "{name}: reduce allocates {:.0} B and {:.1} calls per query (worst query {worst} B, {} queries)",
        per(bytes),
        per(calls),
        pairs.len()
    );
    assert!(
        worst <= BUDGET_BYTES,
        "{name}: a reduce allocated {worst} B"
    );
    (per(calls), worst)
}

#[test]
fn dataset_plans_stay_within_budget() {
    for name in ["Child", "TPC-H"] {
        let bn = peanut_datasets::dataset(name).unwrap().build().unwrap();
        let (calls, worst) = dataset_reduce_allocs(name, &bn);
        // one tree per plan, and a rejected candidate allocates nothing:
        // when each GWMIN survivor got a tree and a cost pass of its own
        // these read 62.1 / 96.5 calls and 25,654 / 45,145 B
        assert!(
            calls <= 40.0,
            "{name}: {calls:.1} allocator calls per reduce"
        );
        assert!(worst <= 16 << 10, "{name}: a reduce allocated {worst} B");
    }
}

/// Allocator calls of one symbolic PEANUT+ selection (`10·b_T`) trained on
/// every variable pair of a dataset.
fn dataset_selection_allocs(name: &str, bn: &BayesianNetwork) -> usize {
    let tree = build_junction_tree(bn).unwrap();
    let n = bn.n_vars() as u32;
    let pairs = (0..n).flat_map(|a| (a + 1..n).map(move |b| Scope::from_indices(&[a, b])));
    let w = Workload::from_queries(pairs);
    let ctx = OfflineContext::new(&tree, &w).unwrap();
    let cfg = PeanutConfig::plus(tree.total_separator_size().max(1) * 10);
    let (mat, _, calls) = counted(|| Peanut::offline(&ctx, &cfg));
    println!(
        "{name}: Peanut::offline made {calls} allocator calls ({} distinct queries, {} cliques, {} shortcuts)",
        w.len(),
        tree.n_cliques(),
        mat.shortcuts.len()
    );
    calls
}

#[test]
fn dataset_selection_stays_within_budget() {
    // LRDP's path walk reads the context's clique columns and its branch
    // DP keeps flat tables: when every step visited every query through
    // per-query rows and each combined child cost four fresh vectors these
    // read 6,041 / 109,213 / 31,922
    for (name, ceiling) in [("Child", 4_000), ("HeparII", 20_000), ("TPC-H", 14_000)] {
        let bn = peanut_datasets::dataset(name).unwrap().build().unwrap();
        let calls = dataset_selection_allocs(name, &bn);
        assert!(
            calls <= ceiling,
            "{name}: {calls} allocator calls per selection"
        );
    }
}

/// On the chain `x0 → … → x7` at cardinality 100 the end-to-end query
/// `{x0, x7}` multiplies every interior clique `{x_i, x_i+1}` with a message
/// that carries an end variable: a product of `T = 100³` entries per node.
/// Answering from a cold `Scratch` allocates the messages (`100²` entries)
/// and bookkeeping — a fraction of one product's `8·T` bytes.
#[test]
fn answering_never_materializes_the_product() {
    let card = 100u32;
    let bn = fixtures::chain(8, card, 5);
    let tree = build_junction_tree(&bn).unwrap();
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let q = Scope::from_indices(&[0, 7]);
    let rt = engine.reduced_for(&q).unwrap().expect("out-of-clique");
    let t = (card as usize).pow(3);
    assert!(t >= 1 << 16);
    let ((_, cost), bytes, calls) = counted(|| {
        rt.answer_in(&q, tree.domain(), &mut Scratch::new())
            .unwrap()
    });
    println!("chain(8) at {card}: products of {t} entries, answer_in allocated {bytes} B in {calls} calls");
    // an interior node is charged T·(1 + 2) + T: such products are in the plan
    assert!(cost.ops as usize >= 4 * t, "no product of {t} entries");
    assert!(
        bytes < 8 * t / 4,
        "answer_in allocated {bytes} B against products of {} B",
        8 * t
    );
}

/// A repeated scope runs the plan its first answer filed: on Child, under
/// the PEANUT+ materialization trained on every variable pair, one warm
/// `Scratch` answers every pair twice through `OnlineEngine::answer_in`.
/// The second pass takes every plan from the materialization's plan memo,
/// so per answer it allocates the plan's rebuilt view and the pass's own
/// bookkeeping, not a Steiner tree, a conflict graph, a contraction or a
/// re-hang: fewer allocator calls than the first pass, and fewer than the
/// same warm answers planned afresh (`reduce`, then
/// `ReducedTree::answer_in`).
#[test]
fn a_plan_memo_hit_allocates_less_than_planning() {
    let bn = peanut_datasets::dataset("Child").unwrap().build().unwrap();
    let tree = build_junction_tree(&bn).unwrap();
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let n = bn.n_vars() as u32;
    let pairs: Vec<Scope> = (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| Scope::from_indices(&[a, b])))
        .collect();
    let ctx = OfflineContext::new(&tree, &Workload::from_queries(pairs.iter().cloned())).unwrap();
    let cfg = PeanutConfig::plus(tree.total_separator_size().max(1) * 10);
    let (mat, _) = Peanut::offline_numeric(&ctx, &cfg, engine.numeric_state().unwrap()).unwrap();
    let online = OnlineEngine::new(&engine, &mat);
    let mut scratch = Scratch::new();
    let mut pass = |answer: &mut dyn FnMut(&Scope, &mut Scratch) -> Potential| {
        let mut calls = 0;
        for q in &pairs {
            let (p, _, c) = counted(|| answer(q, &mut scratch));
            scratch.recycle(p);
            calls += c;
        }
        calls as f64 / pairs.len() as f64
    };
    let first = pass(&mut |q, s| online.answer_in(q, s).unwrap().0);
    assert_eq!(
        (mat.plan_usage().filed, mat.plan_usage().taken),
        (pairs.len(), 0),
        "one plan per scope"
    );
    let hit = pass(&mut |q, s| online.answer_in(q, s).unwrap().0);
    assert_eq!(
        (mat.plan_usage().filed, mat.plan_usage().taken),
        (pairs.len(), pairs.len() as u64)
    );
    let planned = pass(&mut |q, s| match online.reduce(q).unwrap() {
        Some(rt) => rt.answer_in(q, tree.domain(), s).unwrap().0,
        None => engine.answer_in(q, s).unwrap().0,
    });
    println!(
        "Child: answer_in makes {first:.1} allocator calls per answer planning cold, \
         {hit:.1} on a plan-memo hit; reduce + answer_in, warm: {planned:.1} ({} pairs)",
        pairs.len()
    );
    assert!(
        hit < first && hit < planned,
        "{hit:.1} against {first:.1} / {planned:.1}"
    );
    assert!(hit <= 16.0, "{hit:.1} allocator calls per plan-memo hit");
}
