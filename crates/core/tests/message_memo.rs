//! The engine's message memo never changes an answer.
//!
//! A numeric `QueryEngine` keeps the directed messages its passes send, a
//! `Materialization` those whose subtree holds one of its shortcuts, and
//! every later pass of a plan the engine extracted takes them instead of
//! recomputing them (`peanut_junction::reduced`, "The message memo").
//! The reference is a fresh engine per request: the same calibrated slab
//! reattached (`QueryEngine::from_calibrated`) under a clone of the
//! materialization, both memos empty, so its pass computes every message. On generated networks, under random
//! materializations — so plans include contracted ones — a stream of
//! 1–5-variable marginals and conditionals through one engine must answer
//! exactly as the fresh engines do: every entry equal under `f64::to_bits`,
//! the same `QueryCost`. The stream runs three times, under one
//! materialization, then another, then the first again — the engine's memo
//! outlives epochs, and a message of a subtree that held a shortcut under
//! one epoch must not be what a plain subtree of the next takes, while the
//! first materialization's memo is warm on its return. Two more cases
//! share the engine's tables between threads: two answering the stream,
//! and a selection's table builds racing one answering it; CI runs this
//! file under ThreadSanitizer too. A last case replays the all-pairs stream
//! of Child and TPC-H under PEANUT+, where warm contracted plans take the
//! messages their branches send into shortcuts and the messages of their
//! subtrees that hold one.

use peanut_core::{
    Materialization, MaterializedShortcut, OfflineContext, OnlineEngine, Peanut, PeanutConfig,
    Shortcut, Workload,
};
use peanut_junction::{build_junction_tree, JunctionTree, NumericState, QueryEngine};
use peanut_pgm::generate::{generate_network, DagConfig};
use peanut_pgm::{BayesianNetwork, MemoUsage, Potential, Scope, Var};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// One request: targets and evidence (empty: a marginal).
type Request = (Scope, Vec<(Var, u32)>);

fn generated(seed: u64, n: usize) -> Option<BayesianNetwork> {
    let cfg = DagConfig {
        n_nodes: n,
        n_edges: n - 1 + n / 3,
        max_in_degree: 3,
        window: 4,
        cardinalities: vec![2, 3, 4],
    };
    generate_network(&cfg, seed).ok()
}

/// Up to eight shortcuts over random connected regions, each with its
/// table built from `engine`'s calibrated tables, at random ratios.
fn random_materialization(engine: &QueryEngine<'_>, rng: &mut TestRng) -> Materialization {
    let (tree, rooted) = (engine.tree(), engine.rooted());
    let ns = engine.numeric_state().unwrap();
    let shortcuts = (0..rng.sample(1..9usize))
        .filter_map(|_| {
            let mut region = vec![rng.sample(0..tree.n_cliques())];
            for _ in 0..rng.sample(0..4usize) {
                let from = region[rng.sample(0..region.len())];
                let around = tree.neighbors(from);
                region.push(around[rng.sample(0..around.len())].0);
            }
            let shortcut = Shortcut::from_nodes(tree, rooted, region).ok()?;
            let (table, _) = shortcut.materialize(tree, rooted, ns).unwrap();
            let ratio = [0.5, 1.0, 2.0, 4.0][rng.sample(0..4usize)];
            Some(MaterializedShortcut {
                benefit: ratio * shortcut.size() as f64,
                ratio,
                potential: Some(table),
                shortcut,
            })
        })
        .collect();
    Materialization::new(shortcuts, true)
}

/// `count` requests of 1–5 target variables, a third of them conditioned
/// on one or two other variables.
fn stream(bn: &BayesianNetwork, count: usize, rng: &mut TestRng) -> Vec<Request> {
    let n = bn.n_vars() as u32;
    (0..count)
        .map(|_| {
            let picks: Vec<u32> = (0..rng.sample(1..6usize))
                .map(|_| rng.sample(0..n))
                .collect();
            let targets = Scope::from_indices(&picks);
            let mut evidence = Vec::new();
            if rng.sample(0..3u32) == 0 {
                for _ in 0..rng.sample(1..3usize) {
                    let v = Var(rng.sample(0..n));
                    if !targets.contains(v) && evidence.iter().all(|&(u, _)| u != v) {
                        evidence.push((v, rng.sample(0..bn.domain().card(v))));
                    }
                }
            }
            (targets, evidence)
        })
        .collect()
}

fn bits(p: &Potential) -> Vec<u64> {
    p.values().iter().map(|v| v.to_bits()).collect()
}

/// What `online` answers for `request`: the potential's bits, its cost.
fn answer(online: &OnlineEngine<'_, '_>, (targets, evidence): &Request) -> (Vec<u64>, String) {
    let (p, cost) = if evidence.is_empty() {
        online.answer(targets).unwrap()
    } else {
        online.conditional(targets, evidence).unwrap()
    };
    (bits(&p), format!("{cost:?}"))
}

/// The answer of an engine with an empty memo over `engine`'s tables,
/// under a clone of `mat`, whose memo is empty too.
fn fresh_answer(
    tree: &JunctionTree,
    engine: &QueryEngine<'_>,
    mat: &Materialization,
    request: &Request,
) -> (Vec<u64>, String) {
    let slab = engine.numeric_state().unwrap().arena().slab();
    let fresh = QueryEngine::from_calibrated(
        tree,
        NumericState::from_calibrated_slab(tree, slab).unwrap(),
    );
    let cold = mat.clone();
    assert_eq!((fresh.memo_usage().held, cold.memo_usage().held), (0, 0));
    answer(&OnlineEngine::new(&fresh, &cold), request)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn a_warm_engine_answers_as_a_fresh_one(seed in 0u64..10_000, n in 8usize..14) {
        let Some(bn) = generated(seed, n) else { return Ok(()) };
        let mut rng = TestRng::seed_from_u64(seed);
        let tree = build_junction_tree(&bn).unwrap();
        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let epochs = [random_materialization(&engine, &mut rng), random_materialization(&engine, &mut rng)];
        let requests = stream(&bn, 24, &mut rng);
        for (round, mat) in [&epochs[0], &epochs[1], &epochs[0]].into_iter().enumerate() {
            let online = OnlineEngine::new(&engine, mat);
            for request in &requests {
                let want = fresh_answer(&tree, &engine, mat, request);
                prop_assert_eq!(answer(&online, request), want, "round {}: {:?}", round, request);
            }
        }
        let MemoUsage { held, cap, .. } = engine.memo_usage();
        prop_assert!(held <= cap, "{} entries over a cap of {}", held, cap);
    }
}

/// Two threads answer one stream, in opposite orders, on one engine whose
/// memo starts empty: each answer is the fresh engine's. The network and
/// materialization are fixed so the premise holds — shortcuts are used,
/// and the memo files messages.
#[test]
fn two_threads_sharing_a_memo_answer_as_fresh_engines() {
    let (bn, seed) = (0..64u64)
        .find_map(|seed| Some((generated(seed, 14)?, seed)))
        .unwrap();
    let mut rng = TestRng::seed_from_u64(seed);
    let tree = build_junction_tree(&bn).unwrap();
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let mat = random_materialization(&engine, &mut rng);
    let requests = stream(&bn, 96, &mut rng);
    let want: Vec<_> = requests
        .iter()
        .map(|r| fresh_answer(&tree, &engine, &mat, r))
        .collect();
    let online = OnlineEngine::new(&engine, &mat);
    let contracted = requests
        .iter()
        .filter(|(t, _)| online.cost(t).unwrap().shortcuts_used > 0)
        .count();
    assert!(contracted > 0, "test premise: some plan is contracted");
    std::thread::scope(|s| {
        for reversed in [false, true] {
            let (online, requests, want) = (&online, &requests, &want);
            s.spawn(move || {
                let order: Vec<usize> = if reversed {
                    (0..requests.len()).rev().collect()
                } else {
                    (0..requests.len()).collect()
                };
                for i in order {
                    assert_eq!(answer(online, &requests[i]), want[i], "{:?}", requests[i]);
                }
            });
        }
    });
    let MemoUsage { held, cap, .. } = engine.memo_usage();
    assert!(0 < held && held <= cap, "{held} entries, cap {cap}");
}

/// A re-selection builds its tables over the engine's tables while another
/// thread answers the stream on them, as the lifecycle does on a serving
/// engine: both share the memo, and the tables, their charge and every
/// answer are what builds and answers over fresh tables give.
#[test]
fn a_selection_racing_queries_builds_and_answers_as_fresh_ones() {
    let (bn, seed) = (0..64u64)
        .find_map(|seed| Some((generated(seed, 14)?, seed)))
        .unwrap();
    let mut rng = TestRng::seed_from_u64(seed);
    let tree = build_junction_tree(&bn).unwrap();
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let slab = engine.numeric_state().unwrap().arena().slab();
    let fresh = || NumericState::from_calibrated_slab(&tree, slab).unwrap();
    let mat = random_materialization(&QueryEngine::from_calibrated(&tree, fresh()), &mut rng);
    let requests = stream(&bn, 96, &mut rng);
    let workload = Workload::from_queries(requests.iter().map(|(t, _)| t.clone()));
    let ctx = OfflineContext::new(&tree, &workload).unwrap();
    let cfg = PeanutConfig::plus(tree.total_separator_size() * 10);
    let (want_mat, want_ops) = Peanut::offline_numeric(&ctx, &cfg, &fresh()).unwrap();
    assert!(!want_mat.is_empty(), "test premise: tables to build");
    let want: Vec<_> = requests
        .iter()
        .map(|r| fresh_answer(&tree, &engine, &mat, r))
        .collect();
    let online = OnlineEngine::new(&engine, &mat);
    let (built, ops) = std::thread::scope(|s| {
        let selection =
            s.spawn(|| Peanut::offline_numeric(&ctx, &cfg, engine.numeric_state().unwrap()));
        for (request, want) in requests.iter().zip(&want) {
            assert_eq!(&answer(&online, request), want, "{request:?}");
        }
        selection.join().unwrap().unwrap()
    });
    assert_eq!(ops, want_ops, "charged ops");
    assert_eq!(built.len(), want_mat.len());
    for (got, want) in built.shortcuts.iter().zip(&want_mat.shortcuts) {
        assert_eq!(got.shortcut.nodes(), want.shortcut.nodes());
        let (got, want) = (
            got.potential.as_ref().unwrap(),
            want.potential.as_ref().unwrap(),
        );
        assert_eq!(got.scope(), want.scope());
        assert_eq!(bits(got), bits(want), "{:?}", want.scope());
    }
}

/// A real dataset's stream replayed: PEANUT+ at `10·b_T` selected on
/// every variable pair, then the pairs answered twice through one engine.
/// On the second pass the memos hold what the first filed — messages into
/// shortcuts among them in the engine's, messages of subtrees holding a
/// shortcut in the materialization's — and every eighth answer is checked
/// against a fresh engine over the same calibrated slab: the same bits,
/// the same cost.
#[test]
fn a_dataset_stream_replayed_answers_as_fresh_engines() {
    for name in ["Child", "TPC-H"] {
        let bn = peanut_datasets::dataset(name).unwrap().build().unwrap();
        let tree = build_junction_tree(&bn).unwrap();
        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let n = bn.n_vars() as u32;
        let pairs: Vec<Request> = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (Scope::from_indices(&[a, b]), Vec::new())))
            .collect();
        let workload = Workload::from_queries(pairs.iter().map(|(t, _)| t.clone()));
        let ctx = OfflineContext::new(&tree, &workload).unwrap();
        let cfg = PeanutConfig::plus(tree.total_separator_size() * 10);
        let ns = engine.numeric_state().unwrap();
        let (mat, _) = Peanut::offline_numeric(&ctx, &cfg, ns).unwrap();
        let online = OnlineEngine::new(&engine, &mat);
        for request in &pairs {
            answer(&online, request);
        }
        let filed = engine.memo_usage().held;
        assert!(filed > 0, "{name}: test premise: the first pass files");
        let filed = mat.memo_usage().held;
        assert!(
            filed > 0,
            "{name}: test premise: the first pass files shortcut-holding messages"
        );
        let mut contracted = 0;
        for (i, request) in pairs.iter().enumerate() {
            let got = answer(&online, request);
            if i % 8 == 0 {
                let want = fresh_answer(&tree, &engine, &mat, request);
                assert_eq!(got, want, "{name}: {request:?}");
                contracted += usize::from(online.cost(&request.0).unwrap().shortcuts_used > 0);
            }
        }
        assert!(
            contracted > 0,
            "{name}: test premise: some plan is contracted"
        );
    }
}
