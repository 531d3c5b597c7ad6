//! Evidence sessions on Hailfinder answer from their pinning's factor
//! memo and the one their engine's network shares: a target's bits do not
//! depend on which targets the session served before it, on which
//! sessions the engine served before it, nor on how many workers served
//! its batch.

use peanut_core::Materialization;
use peanut_junction::{build_junction_tree, JunctionTree, QueryEngine};
use peanut_pgm::MemoUsage;
use peanut_pgm::{BayesianNetwork, Scope, Var};
use peanut_serving::{Answer, ServeOutcome, ServingConfig, ServingEngine};
use std::sync::Arc;

fn hailfinder() -> (BayesianNetwork, JunctionTree) {
    let bn = peanut_datasets::dataset("Hailfinder")
        .unwrap()
        .build()
        .unwrap();
    let tree = build_junction_tree(&bn).unwrap();
    (bn, tree)
}

fn serving<'t>(tree: &'t JunctionTree, bn: &BayesianNetwork, workers: usize) -> ServingEngine<'t> {
    ServingEngine::new(
        QueryEngine::numeric(tree, bn).unwrap(),
        Materialization::default(),
        ServingConfig::default().with_workers(workers),
    )
}

/// Three pinned variables (every assignment of the stand-in has positive
/// probability) and two-variable targets disjoint from them.
fn evidence_and_targets(bn: &BayesianNetwork) -> (Vec<(Var, u32)>, Vec<Scope>) {
    let evidence: Vec<(Var, u32)> = [7u32, 23, 41]
        .into_iter()
        .map(|v| (Var(v), v % bn.domain().card(Var(v))))
        .collect();
    let pinned = Scope::from_iter(evidence.iter().map(|&(v, _)| v));
    let n = bn.n_vars() as u32;
    let targets = (0..n)
        .step_by(2)
        .map(|a| Scope::from_indices(&[a, (a * 7 + 3) % n]))
        .filter(|t| t.len() == 2 && t.is_disjoint_from(&pinned))
        .collect();
    (evidence, targets)
}

/// The answers sent to elimination and the steps they took from the
/// factor memo, over the answers computed for `outcomes`: one that
/// coalesced duplicates share counts once.
fn tally(outcomes: &[ServeOutcome]) -> (u64, u64) {
    let mut computed: Vec<&Arc<Answer>> = Vec::new();
    for served in outcomes.iter().filter_map(ServeOutcome::served) {
        if !computed.iter().any(|a| Arc::ptr_eq(a, &served.answer)) {
            computed.push(&served.answer);
        }
    }
    let eliminated = computed.iter().filter(|a| a.work.eliminated).count();
    let taken = computed.iter().map(|a| a.work.factors_taken).sum();
    (eliminated as u64, taken)
}

fn bits(outcome: &ServeOutcome) -> Vec<u64> {
    let served = outcome.served().expect("served");
    served
        .potential
        .values()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// Each target of a session that served every target before it answers
/// the bits a fresh session gives it alone, in either order, though the
/// long sessions take steps that the single ones compute.
#[test]
fn a_target_answers_the_same_bits_whatever_the_session_served_before() {
    let (bn, tree) = hailfinder();
    let serving = serving(&tree, &bn, 1);
    let (evidence, targets) = evidence_and_targets(&bn);
    let (mut alone, mut alone_taken, mut eliminated) = (Vec::new(), 0, 0);
    for t in &targets {
        let session = serving.open_session(evidence.clone()).unwrap();
        let outcome = session.serve_one(t);
        alone.push(bits(&outcome));
        let (by_ve, taken) = tally(std::slice::from_ref(&outcome));
        eliminated += by_ve;
        alone_taken += taken;
    }
    assert!(
        eliminated > targets.len() as u64 / 2,
        "{eliminated} by elimination"
    );
    let order: Vec<usize> = (0..targets.len()).collect();
    for order in [order.clone(), order.into_iter().rev().collect()] {
        let session = serving.open_session(evidence.clone()).unwrap();
        let mut outcomes = Vec::new();
        for &i in &order {
            outcomes.push(session.serve_one(&targets[i]));
            assert_eq!(
                bits(outcomes.last().unwrap()),
                alone[i],
                "target {}",
                targets[i]
            );
        }
        let (by_ve, taken) = tally(&outcomes);
        assert_eq!(by_ve, eliminated);
        assert!(
            taken > alone_taken,
            "{taken} steps taken in one session, {alone_taken} in single ones"
        );
    }
}

/// A session batch served on four workers — whose targets race to file
/// the steps they share — answers bit for bit as on one.
#[test]
fn a_four_worker_session_batch_equals_a_one_worker_batch() {
    let (bn, tree) = hailfinder();
    let (evidence, targets) = evidence_and_targets(&bn);
    let batch: Vec<Scope> = targets
        .iter()
        .chain(targets.iter().rev())
        .cloned()
        .collect();
    let (mut answers, mut eliminated) = (Vec::new(), Vec::new());
    for workers in [1, 4] {
        let serving = serving(&tree, &bn, workers);
        let session = serving.open_session(evidence.clone()).unwrap();
        let (outcomes, _) = session.serve_batch(&batch);
        let (by_ve, taken) = tally(&outcomes);
        assert!(by_ve > 0 && taken > 0);
        eliminated.push(by_ve);
        answers.push(outcomes.iter().map(bits).collect::<Vec<_>>());
    }
    assert_eq!(eliminated[0], eliminated[1]);
    assert_eq!(answers[0], answers[1]);
}

/// Each target of a session answers the same bits on a fresh engine as on
/// one that served twelve sessions of other evidence before it — one of
/// them pinning the session's first variable to another value — on one
/// worker and on two, though there it takes steps those sessions filed in
/// the network's memo. An engine over a network built from the same
/// dataset shares nothing with it: its memo starts empty.
#[test]
fn a_target_answers_the_same_bits_whatever_sessions_the_engine_served_before() {
    let (bn, tree) = hailfinder();
    let (evidence, targets) = evidence_and_targets(&bn);
    let n = bn.n_vars() as u32;
    let card = |v: u32| bn.domain().card(Var(v));
    let (v, value) = evidence[0];
    let mut others: Vec<Vec<(Var, u32)>> = (0..11u32)
        .map(|k| {
            let pins = [(5 * k + 2) % n, (3 * k + 11) % n];
            pins.iter().map(|&p| (Var(p), k % card(p))).collect()
        })
        .collect();
    let mut moved = evidence.clone();
    moved[0] = (v, (value + 1) % card(v.0));
    others.push(moved);
    let served_as = |serving: &ServingEngine<'_>| {
        let session = serving.open_session(evidence.clone()).unwrap();
        let (outcomes, _) = session.serve_batch(&targets);
        let answers: Vec<Vec<u64>> = outcomes.iter().map(bits).collect();
        (answers, tally(&outcomes).1)
    };
    for workers in [1, 2] {
        let warm = serving(&tree, &bn, workers);
        for other in &others {
            let session = warm.open_session(other.clone()).unwrap();
            let pinned = Scope::from_iter(other.iter().map(|&(v, _)| v));
            let theirs: Vec<Scope> = targets
                .iter()
                .filter(|t| t.is_disjoint_from(&pinned))
                .cloned()
                .collect();
            let (outcomes, _) = session.serve_batch(&theirs);
            assert!(outcomes.iter().all(ServeOutcome::is_served));
        }
        assert!(warm.factor_memo_usage().filed > 0);
        let (after, warm_taken) = served_as(&warm);
        let fresh = serving(&tree, &bn, workers);
        assert_eq!(fresh.factor_memo_usage(), MemoUsage::default());
        let (alone, fresh_taken) = served_as(&fresh);
        assert_eq!(after, alone, "{workers} workers");
        assert!(
            warm_taken > fresh_taken,
            "{warm_taken} steps taken after other sessions, {fresh_taken} alone"
        );
    }
}
