//! Differential property tests: the batched, multi-threaded serving engine
//! must agree with single-threaded variable elimination on random networks
//! and random query batches — including evidence-restricted queries and
//! batches answered through materialized shortcut potentials.

mod common;

use common::{random_batch, train_mat, ve_conditional};
use peanut_core::StatsSnapshot;
use peanut_junction::{build_junction_tree, QueryEngine};
use peanut_pgm::generate::{generate_network, DagConfig};
use peanut_pgm::Scope;
use peanut_serving::{ServeRequest, ServingConfig, ServingEngine};
use peanut_ve::ve_answer;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn small_dag(n: usize) -> DagConfig {
    DagConfig {
        n_nodes: n,
        n_edges: n - 1 + n / 3,
        max_in_degree: 3,
        window: 3,
        cardinalities: vec![2, 3],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

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
        prop_assert!(stats.unique <= stats.queries);

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
