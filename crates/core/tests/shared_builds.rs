//! A selection's tables built together — every pass through the message
//! memo of the tables they are built from ([`region_joints`]) — are the
//! tables built one at a time over fresh tables.
//!
//! The reference is the per-shortcut build: the shortcut's region alone
//! through `region_joints` — its subtree's pass toward `r_S` for `X_S` —
//! over the same slab reattached (`NumericState::from_calibrated_slab`),
//! whose memo is empty, so nothing is shared. (A plan's `answer` is no
//! reference: it runs toward the member where the query's count is
//! smallest, which need not be `r_S`.) On generated networks and fixtures,
//! with PEANUT+ selections at several budgets (so regions nest and
//! overlap), and with a selection built after a query stream warmed the
//! memo, every table must equal the reference entry by entry under
//! `f64::to_bits`, with the same scope, and be charged the same operations.

use peanut_core::{OfflineContext, Peanut, PeanutConfig, Shortcut, Workload};
use peanut_junction::{build_junction_tree, region_joints, NumericState, QueryEngine};
use peanut_pgm::generate::{generate_network, DagConfig};
use peanut_pgm::{fixtures, BayesianNetwork, Potential, Scope, Size};
use proptest::test_runner::TestRng;

/// The one-at-a-time build, over fresh tables.
fn reference(engine: &QueryEngine<'_>, s: &Shortcut) -> (Potential, Size) {
    let slab = engine.numeric_state().unwrap().arena().slab();
    let ns = NumericState::from_calibrated_slab(engine.tree(), slab).unwrap();
    let region = (s.nodes(), s.root(), s.scope());
    let mut built = region_joints(engine.tree(), engine.rooted(), &ns, &[region]).unwrap();
    built.pop().unwrap()
}

/// Forty queries of 2–4 variables of `bn`.
fn queries(bn: &BayesianNetwork, rng: &mut TestRng) -> Vec<Scope> {
    let n = bn.domain().len() as u32;
    (0..40)
        .map(|_| {
            let k = rng.sample(2..5usize);
            Scope::from_indices(&(0..k).map(|_| rng.sample(0..n)).collect::<Vec<_>>())
        })
        .collect()
}

/// Asserts that `shortcuts`' tables, charged `ops` in all, are the
/// reference builds.
fn assert_cold(
    name: &str,
    engine: &QueryEngine<'_>,
    shortcuts: &[(&Shortcut, &Potential)],
    ops: Size,
) {
    let mut want_ops: Size = 0;
    for &(s, got) in shortcuts {
        let (want, cost) = reference(engine, s);
        assert_eq!(got.scope(), want.scope(), "{name} {:?}", s.nodes());
        assert_eq!(bits(got), bits(&want), "{name} {:?}", s.nodes());
        want_ops += cost;
    }
    assert_eq!(ops, want_ops, "{name}: charged ops");
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
        let workload = Workload::from_queries(queries(&bn, &mut rng));
        let ctx = OfflineContext::new(&tree, &workload).unwrap();
        // every budget's selection, and all of them as one batch
        let mut all: Vec<Shortcut> = Vec::new();
        for budget in [4, 32, 256, 4096] {
            let cfg = PeanutConfig::plus(budget);
            let (mat, ops) = Peanut::offline_numeric(&ctx, &cfg, ns).unwrap();
            let built: Vec<_> = mat
                .shortcuts
                .iter()
                .map(|m| (&m.shortcut, m.potential.as_ref().unwrap()))
                .collect();
            assert_cold(&format!("{name} K={budget}"), &engine, &built, ops);
            all.extend(mat.shortcuts.into_iter().map(|m| m.shortcut));
        }
        let regions: Vec<_> = all
            .iter()
            .map(|s| (s.nodes(), s.root(), s.scope()))
            .collect();
        let built = region_joints(&tree, engine.rooted(), ns, &regions).unwrap();
        for (i, (s, (got, ops))) in all.iter().zip(&built).enumerate() {
            assert_cold(&name, &engine, &[(s, got)], *ops);
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

/// A selection built over tables whose memo a query stream already filled,
/// so its passes may take the stream's messages, builds the reference
/// tables.
#[test]
fn a_selection_after_a_query_stream_is_the_cold_build() {
    let mut tables = 0;
    for (seed, (name, bn)) in networks().into_iter().enumerate() {
        let mut rng = TestRng::seed_from_u64(seed as u64);
        let tree = build_junction_tree(&bn).unwrap();
        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let queries = queries(&bn, &mut rng);
        for q in &queries {
            engine.answer(q).unwrap();
        }
        let warmed = engine.memo_usage().held;
        let ctx = OfflineContext::new(&tree, &Workload::from_queries(queries)).unwrap();
        let ns = engine.numeric_state().unwrap();
        let (mat, ops) = Peanut::offline_numeric(&ctx, &PeanutConfig::plus(256), ns).unwrap();
        let built: Vec<_> = mat
            .shortcuts
            .iter()
            .map(|m| (&m.shortcut, m.potential.as_ref().unwrap()))
            .collect();
        assert_cold(&name, &engine, &built, ops);
        assert!(warmed > 0, "{name}: test premise: a warm memo");
        tables += built.len();
    }
    assert!(tables >= 20, "{tables} tables");
}
