//! Invariants of the online engine across methods and datasets:
//! shortcut-reduced trees never lose query variables, never raise costs,
//! and report coherent statistics; and chains far deeper than any
//! dataset's tree answer like VE, with and without evidence.

use peanut::junction::{build_junction_tree, QueryEngine, RootedTree};
use peanut::materialize::{
    Materialization, OfflineContext, OnlineEngine, Peanut, PeanutConfig, Variant, Workload,
};
use peanut::pgm::{fixtures, BayesianNetwork, PgmError, Potential, Scope, Var};
use peanut::serving::{ServeRequest, ServingConfig, ServingEngine};
use peanut::ve::ve_answer;
use peanut::workload::{skewed_queries, QuerySpec};

fn methods_for(
    p: &peanut::datasets::DatasetSpec,
) -> (
    peanut::pgm::BayesianNetwork,
    peanut::junction::JunctionTree,
    Vec<(String, peanut::materialize::Materialization)>,
    Vec<Scope>,
) {
    let bn = p.build().unwrap();
    let tree = build_junction_tree(&bn).unwrap();
    let rooted = RootedTree::new(&tree);
    let train = skewed_queries(&tree, &rooted, 150, QuerySpec::default(), 31);
    let test = skewed_queries(&tree, &rooted, 60, QuerySpec::default(), 32);
    let budget = tree.total_separator_size().saturating_mul(100);
    let w = Workload::from_queries(train);
    let ctx = OfflineContext::new(&tree, &w).unwrap();
    let mut mats = Vec::new();
    for (name, variant) in [
        ("PEANUT", Variant::Peanut),
        ("PEANUT+", Variant::PeanutPlus),
    ] {
        let cfg = PeanutConfig {
            budget,
            epsilon: 1.2,
            threads: 2,
            variant,
        };
        mats.push((name.to_string(), Peanut::offline(&ctx, &cfg)));
    }
    let idx = peanut::indsep::build_index(&tree, &rooted, 1000, None).unwrap();
    mats.push(("INDSEP".to_string(), idx.materialization));
    (bn, tree, mats, test)
}

/// The reduced tree handed to message passing must still cover every query
/// variable with at least one node scope.
#[test]
fn reduced_trees_cover_query_variables() {
    for name in ["Child", "Hailfinder", "TPC-H", "Barley"] {
        let spec = peanut::datasets::dataset(name).unwrap();
        let (_bn, tree, mats, test) = methods_for(&spec);
        let engine = QueryEngine::symbolic(&tree);
        for (mname, mat) in &mats {
            let online = OnlineEngine::new(&engine, mat);
            for q in &test {
                if let Some(rt) = online.reduce(q).unwrap() {
                    for x in q.iter() {
                        let covered = rt.nodes().iter().any(|n| n.scope.contains(x));
                        assert!(covered, "{name}/{mname}: query var {x} lost");
                    }
                    // tree shape: exactly one root, parents consistent
                    let roots = (0..rt.len()).filter(|&i| rt.parent(i).is_none()).count();
                    assert_eq!(roots, 1, "{name}/{mname}: malformed reduced tree");
                }
            }
        }
    }
}

/// Shortcut counts reported in the query cost match the tree's bookkeeping
/// and shortcut usage only ever lowers the cost.
#[test]
fn shortcut_use_is_profitable_and_counted() {
    for name in ["Child", "TPC-H"] {
        let spec = peanut::datasets::dataset(name).unwrap();
        let (_bn, tree, mats, test) = methods_for(&spec);
        let engine = QueryEngine::symbolic(&tree);
        let mut any_used = false;
        for (mname, mat) in &mats {
            let online = OnlineEngine::new(&engine, mat);
            for q in &test {
                let base = online.baseline_cost(q).unwrap();
                let with = online.cost(q).unwrap();
                assert!(with.ops <= base.ops, "{name}/{mname}: cost rose");
                if with.shortcuts_used > 0 {
                    any_used = true;
                    assert!(
                        with.ops < base.ops,
                        "{name}/{mname}: shortcut counted but no strict gain"
                    );
                }
            }
        }
        assert!(any_used, "{name}: no method ever used a shortcut");
    }
}

/// `P(targets | evidence)` on a chain `x0 → … → x{n−1}`, by variable
/// elimination in the chain's order: each CPT is restricted to the
/// evidence and multiplied in, and the variable before it summed out
/// unless it is a target. This is the order VE's heuristics find on a
/// chain, without their search, whose cost grows with the cube of the
/// chain's length.
fn chain_conditional(bn: &BayesianNetwork, targets: &Scope, evidence: &[(Var, u32)]) -> Potential {
    let factor = |v: u32| {
        let cpt = bn.cpt(Var(v));
        evidence
            .iter()
            .filter(|(x, _)| cpt.scope().contains(*x))
            .fold(cpt.clone(), |p, &(x, value)| p.restrict(x, value).unwrap())
    };
    let eliminate = |joint: Potential, v: u32| match joint.scope().contains(Var(v)) {
        true if !targets.contains(Var(v)) => joint.sum_out(&Scope::singleton(Var(v))).unwrap(),
        _ => joint,
    };
    let last = bn.n_vars() as u32 - 1;
    let mut joint = factor(0);
    for v in 1..=last {
        joint = eliminate(joint.product(&factor(v)).unwrap(), v - 1);
    }
    let mut joint = eliminate(joint, last);
    joint.normalize();
    joint
}

/// Chains of diameter 398 and 1,198, far past the stand-ins' 34, do not
/// underflow: `P(x0, x_last)` is within 1e-12 of VE on both (`ve_answer`
/// on the shorter, [`chain_conditional`] on both), and a session pinning
/// every other variable of the shorter chain answers within 1e-9 of VE.
/// On the longer chain, pinning all 1,199 other variables drives `P(e)`
/// below the smallest double: the session reports impossible evidence,
/// and never a NaN.
#[test]
fn deep_chains_answer_like_ve() {
    for (n, card) in [(400u32, 4u32), (1200, 2)] {
        let bn = fixtures::chain(n as usize, card, 5);
        let tree = build_junction_tree(&bn).unwrap();
        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let serving =
            ServingEngine::new(engine, Materialization::default(), ServingConfig::default());
        let ends = Scope::from_indices(&[0, n - 1]);
        let (outcomes, _) = serving.serve_batch(&[ServeRequest::marginal(ends.clone())]);
        let got = &outcomes[0].served().expect("served").potential;
        let mut oracles = vec![chain_conditional(&bn, &ends, &[])];
        if n == 400 {
            oracles.push(ve_answer(&bn, &ends).unwrap().0);
        }
        for want in &oracles {
            let diff = got.max_abs_diff(want).unwrap();
            assert!(
                diff <= 1e-12,
                "chain({n}, {card}): P(x0, x_last) off by {diff}"
            );
        }

        if n == 400 {
            let evidence: Vec<(Var, u32)> = (0..n)
                .filter(|v| v % 2 == 1)
                .map(|v| (Var(v), (v * 7 / 3) % card))
                .collect();
            let session = serving.open_session(evidence.clone()).unwrap();
            let targets: Vec<Scope> = [(0, 398), (2, 4), (100, 300), (196, 198)]
                .into_iter()
                .map(|(a, b)| Scope::from_indices(&[a, b]))
                .collect();
            let (outcomes, _) = session.serve_batch(&targets);
            for (t, o) in targets.iter().zip(&outcomes) {
                let got = &o.served().expect("served").potential;
                let want = chain_conditional(&bn, t, &evidence);
                let diff = got.max_abs_diff(&want).unwrap();
                assert!(diff <= 1e-9, "chain(400): P({t} | 200 pins) off by {diff}");
            }
        } else {
            let evidence: Vec<(Var, u32)> = (1..n).map(|v| (Var(v), v % card)).collect();
            match serving.open_session(evidence) {
                Err(e) => assert!(matches!(e, PgmError::ImpossibleEvidence(_)), "{e}"),
                Ok(session) => {
                    let (outcomes, _) = session.serve_batch(&[Scope::from_indices(&[0])]);
                    let got = &outcomes[0].served().expect("served").potential;
                    assert!((got.sum() - 1.0).abs() < 1e-9, "{got:?}");
                }
            }
        }
    }
}
