//! Differential property tests: the batched, multi-threaded serving engine
//! must agree with single-threaded variable elimination on random networks
//! and random query batches — including evidence-restricted queries and
//! batches answered through materialized shortcut potentials.

mod common;

use common::{random_batch, train_mat, ve_conditional};
use peanut_junction::{build_junction_tree, QueryEngine};
use peanut_pgm::generate::{generate_network, DagConfig};
use peanut_serving::{ServeRequest, ServingConfig, ServingEngine};
use peanut_ve::ve_answer;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Serving answers (numeric, multi-threaded, deduped, with shortcut
    /// materialization) match VE within 1e-9.
    #[test]
    fn serving_matches_single_threaded_ve(seed in 0u64..2_000, n in 4usize..10, budget in 0u64..256) {
        let cfg = DagConfig {
            n_nodes: n,
            n_edges: n - 1 + n / 3,
            max_in_degree: 3,
            window: 3,
            cardinalities: vec![2, 3],
        };
        let Ok(bn) = generate_network(&cfg, seed) else { return Ok(()) };
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
}
