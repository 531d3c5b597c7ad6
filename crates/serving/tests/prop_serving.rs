//! Differential property tests: the batched, multi-threaded serving engine
//! must agree with single-threaded variable elimination on random networks
//! and random query batches — including evidence-restricted queries and
//! batches answered through materialized shortcut potentials — and so must
//! every other door a request can come through.

mod common;

use common::{random_batch, train_mat, ve_conditional};
use peanut_core::{OnlineEngine, StatsSnapshot};
use peanut_junction::{build_junction_tree, QueryEngine};
use peanut_pgm::generate::{generate_network, DagConfig};
use peanut_pgm::{fixtures, BayesianNetwork, MemoUsage, Potential, Scope, Var};
use peanut_serving::{
    ServeOutcome, ServeRequest, ServingConfig, ServingEngine, ShardConfig, ShardedServingEngine,
    StoreConfig, TenantId,
};
use peanut_store::{rehydrate_engine, StoredEpoch};
use peanut_ve::ve_answer;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

fn small_dag(n: usize) -> DagConfig {
    DagConfig {
        n_nodes: n,
        n_edges: n - 1 + n / 3,
        max_in_degree: 3,
        window: 3,
        cardinalities: vec![2, 3],
    }
}

/// The oracle: `P(targets)` or `P(targets | evidence)` by variable
/// elimination.
fn ve_oracle(bn: &BayesianNetwork, q: &ServeRequest) -> Potential {
    if q.is_marginal() {
        ve_answer(bn, &q.targets).unwrap().0
    } else {
        ve_conditional(bn, &q.targets, &q.evidence)
    }
}

/// `q` answered by `online`, as a marginal or as a conditional.
fn answer_online(online: &OnlineEngine<'_, '_>, q: &ServeRequest) -> Potential {
    let answer = if q.is_marginal() {
        online.answer(&q.targets)
    } else {
        online.conditional(&q.targets, &q.evidence)
    };
    answer.unwrap().0
}

/// `n` requests drawn from `pool` with repeats, in random order.
fn random_stream(pool: &[ServeRequest], n: usize, rng: &mut TestRng) -> Vec<ServeRequest> {
    (0..n)
        .map(|_| pool[rng.sample(0..pool.len())].clone())
        .collect()
}

/// `items` cut into consecutive batches of 1–4.
fn random_batches<T>(items: &[T], rng: &mut TestRng) -> Vec<std::ops::Range<usize>> {
    let mut cuts = Vec::new();
    let mut at = 0;
    while at < items.len() {
        let end = (at + rng.sample(1..5usize)).min(items.len());
        cuts.push(at..end);
        at = end;
    }
    cuts
}

/// A store directory of its own for every case.
fn case_dir() -> std::path::PathBuf {
    static CASES: AtomicUsize = AtomicUsize::new(0);
    let case = CASES.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("peanut-doors-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One stream of random marginal and conditional requests, in random
/// order and with repeats, served through every door on one network and
/// one PEANUT+ materialization at a random budget: `OnlineEngine` on one
/// warm engine, `ServingEngine::serve_batch`, a two-tenant
/// `ShardedServingEngine` that holds one tenant in RAM and pages the other
/// through a store, `rehydrate_engine` on the persisted epoch, and one
/// `EvidenceSession` per distinct evidence assignment, on the engine and on
/// the rehydrated one. Each answer is VE's within 1e-9, and the tree
/// restricted to each assignment is calibrated within 1e-9.
fn check_every_door(seed: u64, n: usize, budget: u64) {
    let Ok(bn) = generate_network(&small_dag(n), seed) else {
        return;
    };
    let mut rng = TestRng::seed_from_u64(seed ^ 0xd005);
    let tree = build_junction_tree(&bn).unwrap();
    let pool = random_batch(&bn, 12, seed ^ 0xd0);
    let stream = random_stream(&pool, 24, &mut rng);
    let batches = random_batches(&stream, &mut rng);
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let marginals: Vec<ServeRequest> = pool
        .iter()
        .map(|q| ServeRequest::marginal(q.stat_scope()))
        .collect();
    let mat = train_mat(&tree, &engine, &marginals, budget);
    let close = |door: &str, q: &ServeRequest, got: &Potential, want: &Potential| {
        let diff = got.max_abs_diff(want).unwrap();
        assert!(
            diff < 1e-9,
            "seed {seed}, n {n}, budget {budget}: {door} off VE by {diff} on {q:?}"
        );
    };
    let served = |door: &str, q: &ServeRequest, o: &ServeOutcome| -> Potential {
        let Some(a) = o.served() else {
            panic!("seed {seed}, n {n}, budget {budget}: {door} did not serve {q:?}: {o:?}");
        };
        a.potential.clone()
    };
    let want: Vec<Potential> = stream.iter().map(|q| ve_oracle(&bn, q)).collect();

    // OnlineEngine, one engine for the whole stream
    let online = OnlineEngine::new(&engine, &mat);
    let mut first = Vec::new();
    for (q, want) in stream.iter().zip(&want) {
        let got = answer_online(&online, q);
        close("OnlineEngine", q, &got, want);
        first.push(got);
    }
    // the stream asked again: every answer runs the plan its scope filed
    let bits = |p: &Potential| p.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let MemoUsage {
        filed: held, taken, ..
    } = mat.plan_usage();
    for ((q, want), first) in stream.iter().zip(&want).zip(&first) {
        let got = answer_online(&online, q);
        close("OnlineEngine, filed plan", q, &got, want);
        assert_eq!(bits(&got), bits(first), "seed {seed}: filed plan on {q:?}");
    }
    assert_eq!(
        (mat.plan_usage().filed, mat.plan_usage().taken),
        (held, taken + stream.len() as u64),
        "seed {seed}: every repeat takes its plan"
    );

    // ServingEngine::serve_batch
    let serving = ServingEngine::new(
        QueryEngine::numeric(&tree, &bn).unwrap(),
        mat.clone(),
        ServingConfig::default()
            .with_workers(2)
            .with_cache_capacity(8),
    );
    for range in &batches {
        let (outcomes, _) = serving.serve_batch(&stream[range.clone()]);
        for ((q, o), want) in stream[range.clone()]
            .iter()
            .zip(&outcomes)
            .zip(&want[range.clone()])
        {
            close("serve_batch", q, &served("serve_batch", q, o), want);
        }
    }

    // a two-tenant fleet with one resident slot: tenant 1's requests
    // interleave with the stream, so both tenants fault in and page out
    let other = fixtures::chain(6, 2, seed);
    let other_tree = build_junction_tree(&other).unwrap();
    let other_engine = QueryEngine::numeric(&other_tree, &other).unwrap();
    let other_pool = random_batch(&other, 6, seed ^ 0x07);
    let other_mat = train_mat(&other_tree, &other_engine, &other_pool, budget);
    let dir = case_dir();
    let store = StoreConfig::new(&dir);
    let mut fleet =
        ShardedServingEngine::new(ShardConfig::default().with_workers(2).with_max_resident(1));
    fleet.set_store(store.clone());
    fleet
        .register(
            TenantId(0),
            QueryEngine::numeric(&tree, &bn).unwrap(),
            mat.clone(),
        )
        .unwrap();
    fleet
        .register(TenantId(1), other_engine, other_mat)
        .unwrap();
    let mut mixed: Vec<(TenantId, ServeRequest, Potential)> = Vec::new();
    for (q, want) in stream.iter().zip(&want) {
        if rng.sample(0..2u32) == 0 {
            let o = other_pool[rng.sample(0..other_pool.len())].clone();
            let w = ve_oracle(&other, &o);
            mixed.push((TenantId(1), o, w));
        }
        mixed.push((TenantId(0), q.clone(), want.clone()));
    }
    for range in random_batches(&mixed, &mut rng) {
        let arrivals: Vec<(TenantId, ServeRequest)> = mixed[range.clone()]
            .iter()
            .map(|(t, q, _)| (*t, q.clone()))
            .collect();
        let (outcomes, _) = fleet.serve_mixed(&arrivals);
        for ((_, q, want), o) in mixed[range].iter().zip(&outcomes) {
            close("serve_mixed", q, &served("serve_mixed", q, o), want);
        }
        assert!(fleet.resident_len() <= 1);
    }
    let paging = fleet.paging_stats();
    assert!(
        paging.faults > 0 && paging.page_outs > 0,
        "seed {seed}: {paging:?}"
    );

    // the persisted epoch, rehydrated
    let path = store.epoch_path(0, 0);
    assert!(path.exists(), "tenant 0 persisted at registration");
    let stored = StoredEpoch::open(&path, true).unwrap();
    let (rehydrated, stored_mat) = rehydrate_engine(&tree, &stored).unwrap();
    let online = OnlineEngine::new(&rehydrated, &stored_mat);
    for (q, want) in stream.iter().zip(&want) {
        close("rehydrate_engine", q, &answer_online(&online, q), want);
    }
    let _ = std::fs::remove_dir_all(&dir);

    // one session per distinct evidence assignment, on the engine and on
    // the rehydrated one
    let mut by_evidence: BTreeMap<Vec<(Var, u32)>, Vec<usize>> = BTreeMap::new();
    for (i, q) in stream.iter().enumerate().filter(|(_, q)| !q.is_marginal()) {
        by_evidence.entry(q.evidence.clone()).or_default().push(i);
    }
    let from_store = ServingEngine::new(rehydrated, stored_mat, ServingConfig::default());
    for (evidence, at) in by_evidence {
        let restricted = serving.engine().restricted_to_evidence(&evidence).unwrap();
        let drift = restricted
            .numeric_state()
            .unwrap()
            .local_consistency_error(restricted.tree())
            .unwrap();
        assert!(
            drift <= 1e-9,
            "seed {seed}: session calibrated within {drift}"
        );
        let targets: Vec<Scope> = at.iter().map(|&i| stream[i].targets.clone()).collect();
        for (door, engine) in [
            ("EvidenceSession", &serving),
            ("rehydrated session", &from_store),
        ] {
            let session = engine.open_session(evidence.clone()).unwrap();
            let (outcomes, _) = session.serve_batch(&targets);
            for (&i, o) in at.iter().zip(&outcomes) {
                close(door, &stream[i], &served(door, &stream[i], o), &want[i]);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every door answers one random stream as VE does.
    #[test]
    fn every_door_matches_ve(seed in 0u64..2_000, n in 4usize..10, budget in 0u64..256) {
        check_every_door(seed, n, budget);
    }

    /// Serving answers (numeric, multi-threaded, deduped, with shortcut
    /// materialization) match VE within 1e-9.
    #[test]
    fn serving_matches_single_threaded_ve(seed in 0u64..2_000, n in 4usize..10, budget in 0u64..256) {
        let Ok(bn) = generate_network(&small_dag(n), seed) else { return Ok(()) };
        let tree = build_junction_tree(&bn).unwrap();
        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let batch = random_batch(&bn, 20, seed ^ 0xba7c);

        // materialize shortcuts against the marginal part of the batch so
        // the shortcut-reduced path is exercised, not just plain JT
        let marginals: Vec<ServeRequest> =
            batch.iter().filter(|q| q.is_marginal()).cloned().collect();
        let mat = train_mat(&tree, &engine, &marginals, budget);

        let serving = ServingEngine::new(engine, mat, ServingConfig::default().with_workers(4));
        let (answers, stats) = serving.serve_batch(&batch);
        prop_assert_eq!(answers.len(), batch.len());
        prop_assert!(stats.unique as u64 <= stats.counters.requests);

        for (q, a) in batch.iter().zip(&answers) {
            let a = a.served().expect("batch query must succeed");
            let want = if q.is_marginal() {
                ve_answer(&bn, &q.targets).unwrap().0
            } else {
                ve_conditional(&bn, &q.targets, &q.evidence)
            };
            prop_assert!(
                a.potential.max_abs_diff(&want).unwrap() < 1e-9,
                "serving diverged from VE on {:?}", q
            );
        }
    }

    /// Over a random stream of batches — in-batch repeats, cache hits and
    /// evictions, conditionals beside the marginal on their joint scope,
    /// a failing request — the epoch's histogram and counters equal a
    /// recount over the served arrivals.
    #[test]
    fn stats_equal_a_per_arrival_recount(
        seed in 0u64..2_000,
        n in 4usize..9,
        picks in prop::collection::vec(0usize..64, 1..96),
        batch_len in 1usize..24,
        budget in 0u64..256,
    ) {
        let Ok(bn) = generate_network(&small_dag(n), seed) else { return Ok(()) };
        let tree = build_junction_tree(&bn).unwrap();
        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let mut pool = random_batch(&bn, 12, seed ^ 0x5eed);
        let joints: Vec<ServeRequest> = pool
            .iter()
            .filter(|q| !q.is_marginal())
            .map(|q| ServeRequest::marginal(q.stat_scope()))
            .collect();
        pool.extend(joints);
        let mat = train_mat(&tree, &engine, &pool, budget);
        pool.push(ServeRequest::marginal(Scope::from_indices(&[99])));
        let serving = ServingEngine::new(
            engine,
            mat,
            ServingConfig::default().with_workers(2).with_cache_capacity(6),
        );

        let stream: Vec<ServeRequest> = picks.iter().map(|&i| pool[i % pool.len()].clone()).collect();
        let mut counts: BTreeMap<Scope, u64> = BTreeMap::new();
        let mut want = StatsSnapshot::default();
        for batch in stream.chunks(batch_len) {
            let (outcomes, _) = serving.serve_batch(batch);
            for (q, o) in batch.iter().zip(&outcomes) {
                let Some(a) = o.served() else { continue };
                *counts.entry(q.stat_scope()).or_insert(0) += 1;
                let used = a.cost.shortcuts_used as u64;
                want += StatsSnapshot {
                    queries: 1,
                    shortcut_queries: u64::from(used > 0),
                    shortcuts_used: used,
                    observed_ops: a.cost.ops,
                    baseline_ops: a.baseline_ops,
                };
            }
        }
        let stats = serving.stats();
        prop_assert_eq!(stats.snapshot(), want);
        prop_assert_eq!(stats.scope_counts(), counts.into_iter().collect::<Vec<_>>());
    }
}
