//! Integration tests of stateful evidence sessions: differential checks
//! against the brute-force oracle, the per-query conditional API, and the
//! raw restricted engine, plus epoch-swap isolation for in-flight sessions.

use peanut::junction::{build_junction_tree, NumericState, QueryEngine};
use peanut::materialize::Materialization;
use peanut::pgm::{fixtures, joint, PgmError, Scope, Var};
use peanut::serving::{ServeOutcome, ServeRequest, ServingConfig, ServingEngine};
use std::collections::BTreeSet;

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

fn targets_for(n_vars: u32, ev: &[(Var, u32)]) -> Vec<Scope> {
    let pinned = Scope::from_iter(ev.iter().map(|&(v, _)| v));
    [1u32, 3]
        .into_iter()
        .flat_map(|span| (0..n_vars - span).map(move |a| Scope::from_indices(&[a, a + span])))
        .filter(|t| t.intersect(&pinned).is_empty())
        .collect()
}

#[test]
fn session_answers_match_brute_force_oracle() {
    let bn = fixtures::figure1();
    let tree = build_junction_tree(&bn).unwrap();
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let serving = ServingEngine::new(engine, Materialization::default(), ServingConfig::default());
    let d = bn.domain();
    let evidence = vec![(d.var("a").unwrap(), 1u32), (d.var("l").unwrap(), 0u32)];
    let session = serving.open_session(evidence.clone()).unwrap();

    let pinned = Scope::from_iter(evidence.iter().map(|&(v, _)| v));
    let targets: Vec<Scope> = ["b", "f", "h", "i"]
        .iter()
        .flat_map(|a| ["d", "e"].iter().map(move |b| (a, b)))
        .map(|(a, b)| Scope::from_iter([d.var(a).unwrap(), d.var(b).unwrap()]))
        .filter(|t| t.intersect(&pinned).is_empty())
        .collect();
    let (outcomes, _) = session.serve_batch(&targets);
    assert_eq!(outcomes.len(), targets.len());
    for (t, o) in targets.iter().zip(&outcomes) {
        let got = &o.served().expect("served").potential;
        let want = oracle_conditional(&bn, t, &evidence);
        assert!(
            got.max_abs_diff(&want).unwrap() < 1e-9,
            "session answer for {t} diverged from the joint oracle"
        );
        assert!((got.sum() - 1.0).abs() < 1e-9, "normalized");
    }
}

#[test]
fn session_bit_identical_to_direct_restricted_engine() {
    // on the tree route the session answers on the evidence-restricted,
    // re-calibrated tree — so against that engine the answers must be
    // bit-identical, not merely close. An engine rebuilt from its
    // calibrated slab holds no CPTs, so every target takes that route.
    let bn = fixtures::chain(16, 2, 41);
    let tree = build_junction_tree(&bn).unwrap();
    let calibrated = QueryEngine::numeric(&tree, &bn).unwrap();
    let slab = calibrated.numeric_state().unwrap().arena().slab();
    let engine = QueryEngine::from_calibrated(
        &tree,
        NumericState::from_calibrated_slab(&tree, slab).unwrap(),
    );
    let evidence = vec![(Var(15), 1u32), (Var(0), 0u32)];
    let restricted = engine.restricted_to_evidence(&evidence).unwrap();

    let serving = ServingEngine::new(engine, Materialization::default(), ServingConfig::default());
    let session = serving.open_session(evidence.clone()).unwrap();
    let targets = targets_for(16, &evidence);
    assert!(!targets.is_empty());
    let (outcomes, _) = session.serve_batch(&targets);
    assert_eq!(session.eliminated(), 0, "no CPTs, no elimination");
    for (t, o) in targets.iter().zip(&outcomes) {
        let got = &o.served().expect("served").potential;
        let (mut want, _) = restricted.answer(t).unwrap();
        want.normalize();
        assert_eq!(got.values().len(), want.values().len());
        for (x, y) in got.values().iter().zip(want.values()) {
            assert_eq!(x.to_bits(), y.to_bits(), "target {t}");
        }
    }
    // impossible evidence is still caught at open, by the restricted tree
    let d = fixtures::sprinkler();
    let sprinkler_tree = build_junction_tree(&d).unwrap();
    let slab_engine = |e: &QueryEngine<'_>| {
        let slab = e.numeric_state().unwrap().arena().slab();
        QueryEngine::from_calibrated(
            &sprinkler_tree,
            NumericState::from_calibrated_slab(&sprinkler_tree, slab).unwrap(),
        )
    };
    let full = QueryEngine::numeric(&sprinkler_tree, &d).unwrap();
    let serving = ServingEngine::new(
        slab_engine(&full),
        Materialization::default(),
        ServingConfig::default(),
    );
    let dv = |name: &str| d.domain().var(name).unwrap();
    let impossible = vec![(dv("sprinkler"), 0), (dv("rain"), 0), (dv("wet"), 1)];
    assert!(matches!(
        serving.open_session(impossible),
        Err(PgmError::ImpossibleEvidence(_))
    ));
}

/// On Hailfinder each target takes the route it prices cheaper: pruned
/// elimination answers within 1e-12 of the restricted, re-calibrated tree,
/// the tree route bit for bit, and both routes answer some target. Either
/// way the epoch's stats record the target at baseline cost.
#[test]
fn both_routes_match_the_restricted_engine_on_hailfinder() {
    let bn = peanut::datasets::dataset("Hailfinder")
        .unwrap()
        .build()
        .unwrap();
    let tree = build_junction_tree(&bn).unwrap();
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    // the stand-in's CPT entries are bounded away from zero, so every
    // assignment has positive probability
    let evidence: Vec<(Var, u32)> = [7u32, 23, 41]
        .into_iter()
        .map(|v| (Var(v), v % bn.domain().card(Var(v))))
        .collect();
    let restricted = engine.restricted_to_evidence(&evidence).unwrap();
    let pinned = Scope::from_iter(evidence.iter().map(|&(v, _)| v));
    let n = bn.n_vars() as u32;
    // distinct targets, so each is one computation
    let targets: BTreeSet<Scope> = (0..n)
        .flat_map(|a| {
            [
                Scope::from_indices(&[a]),
                Scope::from_indices(&[a, (a * 7 + 3) % n]),
            ]
        })
        .filter(|t| t.is_disjoint_from(&pinned))
        .collect();
    let targets: Vec<Scope> = targets.into_iter().collect();

    let serving = ServingEngine::new(engine, Materialization::default(), ServingConfig::default());
    let session = serving.open_session(evidence).unwrap();
    let (outcomes, _) = session.serve_batch(&targets);
    let (mut by_ve, mut by_tree) = (0, 0);
    for (t, o) in targets.iter().zip(&outcomes) {
        let served = o.served().expect("served");
        let (mut want, _) = restricted.answer(t).unwrap();
        want.normalize();
        let diff = served.potential.max_abs_diff(&want).unwrap();
        assert!(diff <= 1e-12, "target {t}: off by {diff}");
        if served.cost.ops < served.baseline_ops {
            by_ve += 1;
        } else {
            assert_eq!(served.cost.ops, served.baseline_ops, "target {t}");
            for (x, y) in served.potential.values().iter().zip(want.values()) {
                assert_eq!(x.to_bits(), y.to_bits(), "target {t}");
            }
            by_tree += 1;
        }
    }
    assert_eq!(session.eliminated(), by_ve);
    assert!(
        by_ve > 0 && by_tree > 0,
        "{by_ve} by VE, {by_tree} by the tree"
    );
    // the epoch's stats file every answer at its plain-tree count: the
    // materialization saved none of it
    let snap = serving.stats().snapshot();
    assert_eq!(snap.queries, targets.len() as u64);
    assert_eq!(snap.observed_ops, snap.baseline_ops);
}

#[test]
fn session_agrees_with_per_query_conditional_api() {
    let bn = fixtures::chain(14, 3, 9);
    let tree = build_junction_tree(&bn).unwrap();
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let serving = ServingEngine::new(engine, Materialization::default(), ServingConfig::default());
    let evidence = vec![(Var(13), 2u32)];
    let session = serving.open_session(evidence.clone()).unwrap();
    let targets = targets_for(14, &evidence);
    let (session_answers, _) = session.serve_batch(&targets);

    let requests: Vec<ServeRequest> = targets
        .iter()
        .map(|t| ServeRequest::new(t.clone(), evidence.clone()))
        .collect();
    let (per_query, _) = serving.serve_batch(&requests);
    assert!(per_query.iter().all(ServeOutcome::is_served));
    for ((t, s), p) in targets.iter().zip(&session_answers).zip(&per_query) {
        let s = &s.served().expect("served").potential;
        let p = &p.served().expect("served").potential;
        assert!(
            s.max_abs_diff(p).unwrap() < 1e-9,
            "session and per-query conditional disagree on {t}"
        );
    }
}

#[test]
fn publish_mid_session_keeps_open_sessions_on_their_epoch() {
    let bn = fixtures::chain(12, 2, 5);
    let tree = build_junction_tree(&bn).unwrap();
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let serving = ServingEngine::new(engine, Materialization::default(), ServingConfig::default());
    let evidence = vec![(Var(11), 1u32)];
    let targets = targets_for(12, &evidence);

    let session = serving.open_session(evidence.clone()).unwrap();
    assert_eq!(session.epoch(), 0);
    let (before, _) = session.serve_batch(&targets);

    // hot-publish a new epoch while the session is open
    let epoch = serving.publish(Materialization::default());
    assert_eq!(epoch, 1);
    assert_eq!(serving.epoch(), 1);

    // the in-flight session stays pinned to its open-time epoch, and its
    // answers are bitwise unchanged by the swap
    assert_eq!(session.epoch(), 0);
    let (after, _) = session.serve_batch(&targets);
    for (b, a) in before.iter().zip(&after) {
        let (b, a) = (b.served().expect("served"), a.served().expect("served"));
        assert_eq!(b.epoch, 0);
        assert_eq!(a.epoch, 0, "published epoch must not leak into the session");
        for (x, y) in b.potential.values().iter().zip(a.potential.values()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
    drop(session);

    // sessions opened after the swap serve the new epoch
    let fresh = serving.open_session(evidence).unwrap();
    assert_eq!(fresh.epoch(), 1);
    let out = fresh.serve_one(&targets[0]);
    assert_eq!(out.served().expect("served").epoch, 1);
}
