//! Integration tests of stateful evidence sessions: differential checks
//! against the brute-force oracle, the per-query conditional API, a plan
//! run directly and the raw restricted engine, plus epoch-swap isolation
//! for in-flight sessions.

use peanut::junction::{build_junction_tree, NumericState, QueryEngine};
use peanut::materialize::{FlatMaterialization, Materialization};
use peanut::pgm::{fixtures, joint, PgmError, Scope, Scratch, Var};
use peanut::serving::{ServeOutcome, ServeRequest, ServingConfig, ServingEngine};
use peanut::store::{rehydrate_engine, save, StoredEpoch};
use peanut::ve::{Pinned, VePlan};
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
fn session_bit_identical_to_direct_elimination() {
    // the session answers every target by pruned elimination on the CPTs
    // its engine's tables recover — so against a plan run directly on a
    // fresh pinning of that network the answers must be bit-identical, not
    // merely close; the evidence-restricted, re-calibrated tree agrees
    // within 1e-12
    let bn = fixtures::chain(16, 2, 41);
    let tree = build_junction_tree(&bn).unwrap();
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let evidence = vec![(Var(15), 1u32), (Var(0), 0u32)];
    let restricted = engine.restricted_to_evidence(&evidence).unwrap();
    let network = engine.numeric_state().unwrap().network(&tree).unwrap();
    let pinned = Pinned::new(&network, &evidence).unwrap();

    let serving = ServingEngine::new(engine, Materialization::default(), ServingConfig::default());
    let session = serving.open_session(evidence.clone()).unwrap();
    let targets: Vec<Scope> = (1..15).map(|v| Scope::from_indices(&[v])).collect();
    let (outcomes, _) = session.serve_batch(&targets);
    for (t, o) in targets.iter().zip(&outcomes) {
        let served = o.served().expect("served");
        assert!(served.work.eliminated, "target {t}");
        let plan = VePlan::new(&network, &pinned, t).unwrap();
        assert_eq!(served.cost.ops, plan.ops(), "target {t}");
        let (mut want, _) = plan.run(&network, &pinned, &mut Scratch::new()).unwrap();
        want.normalize();
        let got = &served.potential;
        assert_eq!(got.values().len(), want.values().len());
        for (x, y) in got.values().iter().zip(want.values()) {
            assert_eq!(x.to_bits(), y.to_bits(), "target {t}");
        }
        let (mut tree_answer, _) = restricted.answer(t).unwrap();
        tree_answer.normalize();
        assert!(
            got.max_abs_diff(&tree_answer).unwrap() <= 1e-12,
            "target {t}"
        );
    }
    // impossible evidence is caught at open on a slab engine too, by
    // elimination's P(e) over the CPTs its tables recover
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

/// On Hailfinder every target is answered by pruned elimination, within
/// 1e-12 of the restricted, re-calibrated tree, whichever of the two its
/// plan and the plain tree price cheaper; and the epoch's stats record
/// each target at baseline cost.
#[test]
fn elimination_matches_the_restricted_engine_on_hailfinder() {
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
    let mut tree_cheaper = 0;
    for (t, o) in targets.iter().zip(&outcomes) {
        let served = o.served().expect("served");
        assert!(served.work.eliminated, "target {t}");
        let (mut want, _) = restricted.answer(t).unwrap();
        want.normalize();
        let diff = served.potential.max_abs_diff(&want).unwrap();
        assert!(diff <= 1e-12, "target {t}: off by {diff}");
        tree_cheaper += usize::from(served.baseline_ops <= served.cost.ops);
    }
    assert!(
        tree_cheaper > 0,
        "some target the plain tree prices no dearer is eliminated too"
    );
    // the epoch's stats file every answer at its plain-tree count: the
    // materialization saved none of it
    let snap = serving.stats().snapshot();
    assert_eq!(snap.queries, targets.len() as u64);
    assert_eq!(snap.observed_ops, snap.baseline_ops);
}

/// An engine reattached from its calibrated slab — moved onto a layout
/// (`with_calibrated_slab`) or rehydrated from a store file
/// (`rehydrate_engine`) — recovers the CPTs its tables hold, so its
/// sessions eliminate too, and answer every target bit for bit as a
/// session on the engine the slab came from.
#[test]
fn a_session_on_a_reattached_slab_eliminates_as_its_source_does() {
    let bn = peanut::datasets::dataset("Hailfinder")
        .unwrap()
        .build()
        .unwrap();
    let tree = build_junction_tree(&bn).unwrap();
    let source = QueryEngine::numeric(&tree, &bn).unwrap();
    let slab = source.numeric_state().unwrap().arena().slab().to_vec();
    let moved = QueryEngine::symbolic(&tree)
        .with_calibrated_slab(slab.clone())
        .unwrap();
    let dir = std::env::temp_dir().join(format!("peanut-slab-session-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("epoch.pnut");
    let mat = Materialization::default();
    save(&path, &mat, &FlatMaterialization::pack(&mat), &slab).unwrap();
    let (rehydrated, _) =
        rehydrate_engine(&tree, &StoredEpoch::open(&path, true).unwrap()).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    let evidence: Vec<(Var, u32)> = [7u32, 23, 41].map(|v| (Var(v), 0)).into();
    let pinned = Scope::from_iter(evidence.iter().map(|&(v, _)| v));
    let n = bn.n_vars() as u32;
    let targets: Vec<Scope> = (0..n)
        .map(|a| Scope::from_indices(&[a, (a * 7 + 3) % n]))
        .filter(|t| t.is_disjoint_from(&pinned))
        .collect();
    let serve = |engine: QueryEngine<'_>| -> Vec<(bool, Vec<u64>)> {
        let serving =
            ServingEngine::new(engine, Materialization::default(), ServingConfig::default());
        let session = serving.open_session(evidence.clone()).unwrap();
        let (outcomes, _) = session.serve_batch(&targets);
        outcomes
            .iter()
            .map(|o| {
                let served = o.served().expect("served");
                let bits = served.potential.values().iter().map(|v| v.to_bits());
                (served.work.eliminated, bits.collect())
            })
            .collect()
    };
    let want = serve(source);
    assert!(want.iter().any(|(eliminated, _)| *eliminated));
    assert_eq!(serve(moved), want, "with_calibrated_slab");
    assert_eq!(serve(rehydrated), want, "rehydrate_engine");
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
