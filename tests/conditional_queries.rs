//! Integration tests of the conditional-query API (`P(targets | evidence)`)
//! through both the plain engine and the materialization-aware one.

use peanut::junction::{build_junction_tree, QueryEngine};
use peanut::materialize::{
    Materialization, OfflineContext, OnlineEngine, Peanut, PeanutConfig, Workload,
};
use peanut::pgm::{fixtures, joint, PgmError, Scope, Var};
use peanut::serving::{
    ServeOutcome, ServeRequest, ServingConfig, ServingEngine, ShardConfig, ShardedServingEngine,
    TenantId,
};

/// Brute-force conditional: P(t | e) from the full joint.
fn oracle_conditional(
    bn: &peanut::pgm::BayesianNetwork,
    targets: &Scope,
    evidence: &[(Var, u32)],
) -> peanut::pgm::Potential {
    let ev_scope = Scope::from_iter(evidence.iter().map(|&(v, _)| v));
    let q = targets.union(&ev_scope);
    let mut joint = joint::marginal(bn, &q).unwrap();
    for &(v, val) in evidence {
        joint = joint.restrict(v, val).unwrap();
    }
    joint.normalize();
    joint
}

#[test]
fn conditionals_match_brute_force() {
    let bn = fixtures::figure1();
    let tree = build_junction_tree(&bn).unwrap();
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let d = bn.domain();
    type Case = (&'static [&'static str], &'static [(&'static str, u32)]);
    let cases: [Case; 4] = [
        (&["l"], &[("a", 1)]),
        (&["a", "d"], &[("l", 0)]),
        (&["f"], &[("b", 1), ("i", 0)]),
        (&["h"], &[("a", 0), ("l", 1)]),
    ];
    for (t_names, e_names) in cases {
        let targets = Scope::from_iter(t_names.iter().map(|n| d.var(n).unwrap()));
        let evidence: Vec<(Var, u32)> = e_names
            .iter()
            .map(|&(n, v)| (d.var(n).unwrap(), v))
            .collect();
        let (got, cost) = engine.conditional(&targets, &evidence).unwrap();
        let want = oracle_conditional(&bn, &targets, &evidence);
        assert!(
            got.max_abs_diff(&want).unwrap() < 1e-9,
            "conditional {t_names:?} | {e_names:?}"
        );
        assert!((got.sum() - 1.0).abs() < 1e-9, "normalized");
        assert!(cost.ops > 0);
    }
}

#[test]
fn conditionals_through_materialization() {
    let bn = fixtures::figure1();
    let tree = build_junction_tree(&bn).unwrap();
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let d = bn.domain();

    let q = Scope::from_iter([
        d.var("b").unwrap(),
        d.var("i").unwrap(),
        d.var("f").unwrap(),
    ]);
    let w = Workload::from_queries(vec![q; 10]);
    let ctx = OfflineContext::new(&tree, &w).unwrap();
    let (mat, _) = Peanut::offline_numeric(
        &ctx,
        &PeanutConfig::plus(64).with_epsilon(1.0),
        engine.numeric_state().unwrap(),
    )
    .unwrap();
    let online = OnlineEngine::new(&engine, &mat);

    let targets = Scope::from_iter([d.var("b").unwrap(), d.var("f").unwrap()]);
    let evidence = vec![(d.var("i").unwrap(), 1u32)];
    let (got, _) = online.conditional(&targets, &evidence).unwrap();
    let want = oracle_conditional(&bn, &targets, &evidence);
    assert!(got.max_abs_diff(&want).unwrap() < 1e-9);
}

/// Evidence variables that fall *inside* a materialized shortcut's scope:
/// the joint is answered over `targets ∪ vars(evidence)`, so the shortcut
/// must carry the evidence variables through the reduced tree and the
/// restriction must happen on the correct axes of the shortcut-produced
/// joint.
#[test]
fn evidence_inside_shortcut_scope() {
    use peanut::junction::{NumericState, RootedTree};
    use peanut::materialize::{MaterializedShortcut, Shortcut};

    let bn = fixtures::figure1();
    let mut tree = build_junction_tree(&bn).unwrap();
    let d = bn.domain().clone();
    // root at clique {b,c} so the {e,g,h} clique sits deep in the tree
    let bc = Scope::from_iter([d.var("b").unwrap(), d.var("c").unwrap()]);
    let pivot = tree.cliques().iter().position(|c| *c == bc).unwrap();
    tree.set_pivot(pivot);
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let rooted = RootedTree::new(&tree);
    let mut ns = NumericState::initialize(&tree, &bn).unwrap();
    ns.calibrate(&tree, &rooted).unwrap();

    // materialize the shortcut over the {e,g,h} clique: scope {e, g}
    let egh = tree
        .cliques()
        .iter()
        .position(|c| {
            c.len() == 3 && c.contains(d.var("g").unwrap()) && c.contains(d.var("h").unwrap())
        })
        .unwrap();
    let s = Shortcut::from_nodes(&tree, &rooted, vec![egh]).unwrap();
    let (pot, _) = s.materialize(&tree, &rooted, &ns).unwrap();
    let shortcut_scope = s.scope().clone();
    assert!(shortcut_scope.contains(d.var("g").unwrap()), "test premise");
    let mat = peanut::materialize::Materialization::new(
        vec![MaterializedShortcut {
            ratio: 1.0,
            benefit: 1.0,
            potential: Some(pot),
            shortcut: s,
        }],
        false,
    );
    let online = OnlineEngine::new(&engine, &mat);

    // evidence on g (inside the shortcut scope), targets far away: the
    // joint query {b, i, f, g} is the one the shortcut accelerates
    let g = d.var("g").unwrap();
    let e_var = d.var("e").unwrap();
    type EvidenceCase<'a> = (Vec<&'a str>, Vec<(Var, u32)>);
    let cases: Vec<EvidenceCase> = vec![
        (vec!["b", "f"], vec![(g, 1)]),
        (vec!["b", "i"], vec![(g, 0)]),
        (vec!["b", "f"], vec![(g, 1), (e_var, 0)]), // both evidence vars in scope
        (vec!["i"], vec![(e_var, 1)]),
    ];
    let mut shortcut_hit = false;
    for (t_names, evidence) in cases {
        let targets = Scope::from_iter(t_names.iter().map(|n| d.var(n).unwrap()));
        let (got, cost) = online.conditional(&targets, &evidence).unwrap();
        let want = oracle_conditional(&bn, &targets, &evidence);
        assert!(
            got.max_abs_diff(&want).unwrap() < 1e-9,
            "conditional {t_names:?} | {evidence:?} through in-scope-evidence shortcut"
        );
        assert!((got.sum() - 1.0).abs() < 1e-9);
        // plain-engine must agree too
        let (plain, _) = engine.conditional(&targets, &evidence).unwrap();
        assert!(got.max_abs_diff(&plain).unwrap() < 1e-9);
        shortcut_hit |= cost.shortcuts_used > 0;
    }
    assert!(
        shortcut_hit,
        "at least one case must actually route through the shortcut"
    );
}

#[test]
fn overlapping_targets_and_evidence_rejected() {
    let bn = fixtures::sprinkler();
    let tree = build_junction_tree(&bn).unwrap();
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let targets = Scope::from_indices(&[0, 1]);
    let evidence = vec![(Var(1), 0u32)];
    assert!(engine.conditional(&targets, &evidence).is_err());
}

#[test]
fn impossible_evidence_is_an_error() {
    // P(wet=1) = 0 given sprinkler=0, rain=0 in the sprinkler network has a
    // deterministic CPT row; there is no distribution conditioned on a
    // zero-probability event, so the answer is a typed error, never NaNs.
    let bn = fixtures::sprinkler();
    let tree = build_junction_tree(&bn).unwrap();
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let targets = Scope::singleton(bn.domain().var("cloudy").unwrap());
    let evidence = sprinkler_impossible(&bn);
    assert_eq!(
        engine.conditional(&targets, &evidence).unwrap_err(),
        PgmError::ImpossibleEvidence(evidence)
    );
}

fn is_impossible<T>(r: Result<T, PgmError>) -> bool {
    matches!(r, Err(PgmError::ImpossibleEvidence(_)))
}

/// Sprinkler off, no rain, wet grass: probability zero in `sprinkler`.
fn sprinkler_impossible(bn: &peanut::pgm::BayesianNetwork) -> Vec<(Var, u32)> {
    let d = bn.domain();
    vec![
        (d.var("sprinkler").unwrap(), 0u32),
        (d.var("rain").unwrap(), 0u32),
        (d.var("wet").unwrap(), 1u32),
    ]
}

/// Zero-probability evidence fails closed at every door that takes
/// evidence, whether it is impossible under the model or contradicts
/// itself on one variable.
#[test]
fn impossible_evidence_fails_at_every_door() {
    let bn = fixtures::sprinkler();
    let tree = build_junction_tree(&bn).unwrap();
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let cloudy = Scope::singleton(bn.domain().var("cloudy").unwrap());
    let rain = bn.domain().var("rain").unwrap();
    let impossible = sprinkler_impossible(&bn);
    let contradiction = vec![(rain, 0u32), (rain, 1)];

    let train = Workload::from_queries(vec![Scope::from_indices(&[0, 3])]);
    let ctx = OfflineContext::new(&tree, &train).unwrap();
    let ns = engine.numeric_state().unwrap();
    let (mat, _) = Peanut::offline_numeric(&ctx, &PeanutConfig::plus(64), ns).unwrap();
    let online = OnlineEngine::new(&engine, &mat);
    for evidence in [&impossible, &contradiction] {
        assert!(is_impossible(engine.conditional(&cloudy, evidence)));
        assert!(is_impossible(online.conditional(&cloudy, evidence)));
    }

    let requests: Vec<ServeRequest> = [&impossible, &contradiction]
        .into_iter()
        .map(|e| ServeRequest::new(cloudy.clone(), e.clone()))
        .collect();
    let failed = |o: &ServeOutcome| matches!(o.failure(), Some(PgmError::ImpossibleEvidence(_)));
    let serving = ServingEngine::new(
        QueryEngine::numeric(&tree, &bn).unwrap(),
        mat,
        ServingConfig::default().with_workers(1),
    );
    let (answers, _) = serving.serve_batch(&requests);
    assert!(answers.iter().all(failed));
    assert!(is_impossible(serving.open_session(impossible.clone())));
    assert!(is_impossible(serving.open_session(contradiction.clone())));

    let mut sharded = ShardedServingEngine::new(ShardConfig::default().with_workers(1));
    sharded
        .register(
            TenantId(0),
            QueryEngine::numeric(&tree, &bn).unwrap(),
            Materialization::default(),
        )
        .unwrap();
    let mixed: Vec<_> = requests.into_iter().map(|r| (TenantId(0), r)).collect();
    let (answers, _) = sharded.serve_mixed(&mixed);
    assert!(answers.iter().all(failed));
}
