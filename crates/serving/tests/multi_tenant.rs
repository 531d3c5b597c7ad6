//! Tenant-isolation guarantees of the sharded serving engine:
//!
//! * answers from a mixed-tenant batch are **byte-identical** to each
//!   tenant served alone on a single-threaded engine, and match a
//!   single-threaded VE oracle within 1e-9 — on random networks and
//!   random evidence-bearing batches;
//! * one tenant's epoch swap never invalidates another tenant's cache
//!   entries (and never changes its answers).

mod common;

use common::{random_batch, train_mat, ve_conditional};
use peanut_core::Materialization;
use peanut_junction::{build_junction_tree, QueryEngine};
use peanut_pgm::generate::{generate_network, DagConfig};
use peanut_pgm::{fixtures, Scope};
use peanut_serving::{
    ServeRequest, ServingConfig, ServingEngine, ShardConfig, ShardedServingEngine, TenantId,
};
use peanut_ve::ve_answer;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Interleave per-tenant batches (with evidence queries, in-batch
    /// duplicates and shared worker fan-out) and check, over a cold pass,
    /// a warm pass and a post-`publish` pass, every arrival against (a) the
    /// same tenant served alone on a single-threaded engine — answers
    /// byte-identical, and every per-tenant counter (`BatchStats`, the
    /// epoch's `WorkloadStats` snapshot and both scope histograms) equal —
    /// and (b) a VE oracle on that tenant's model — within 1e-9.
    #[test]
    fn mixed_batch_matches_each_tenant_alone(seed in 0u64..1_000, n in 5usize..9) {
        let cfg_a = DagConfig {
            n_nodes: n,
            n_edges: n - 1 + n / 3,
            max_in_degree: 3,
            window: 3,
            cardinalities: vec![2, 3],
        };
        let cfg_b = DagConfig { n_nodes: n + 2, ..cfg_a.clone() };
        let Ok(bn_a) = generate_network(&cfg_a, seed) else { return Ok(()) };
        let Ok(bn_b) = generate_network(&cfg_b, seed ^ 0xb) else { return Ok(()) };
        let bns = [bn_a, bn_b];
        let trees = [
            build_junction_tree(&bns[0]).unwrap(),
            build_junction_tree(&bns[1]).unwrap(),
        ];

        // per-tenant batches over each tenant's own model, with evidence
        // and one forced in-batch duplicate (so dedup has work to do)
        let batches: Vec<Vec<ServeRequest>> = bns
            .iter()
            .enumerate()
            .map(|(i, bn)| {
                let mut batch = random_batch(bn, 12, seed ^ (i as u64) << 8);
                batch.push(batch[0].clone());
                batch
            })
            .collect();

        // sharded engine with materialized shortcuts and shared workers,
        // and each tenant alone on a single-threaded engine
        let mut sharded = ShardedServingEngine::new(ShardConfig::default().with_workers(4));
        let mut alone: Vec<ServingEngine<'_>> = Vec::new();
        for (i, (tree, bn)) in trees.iter().zip(&bns).enumerate() {
            let engine = QueryEngine::numeric(tree, bn).unwrap();
            let mat = train_mat(tree, &engine, &batches[i], 128);
            sharded.register(TenantId(i as u32), engine, mat).unwrap();
            let engine = QueryEngine::numeric(tree, bn).unwrap();
            let mat = train_mat(tree, &engine, &batches[i], 128);
            alone.push(ServingEngine::new(engine, mat, ServingConfig::default().with_workers(1)));
        }

        // interleave the two tenants' arrivals round-robin
        let mixed: Vec<(TenantId, ServeRequest)> = batches[0]
            .iter()
            .zip(&batches[1])
            .flat_map(|(a, b)| {
                [(TenantId(0), a.clone()), (TenantId(1), b.clone())]
            })
            .collect();

        for pass in ["cold", "warm", "post-publish"] {
            if pass == "post-publish" {
                // the same swap on both sides: next epoch, fresh stats
                // window, every cached answer stale
                for (i, (tree, bn)) in trees.iter().zip(&bns).enumerate() {
                    let engine = QueryEngine::numeric(tree, bn).unwrap();
                    let tenant = sharded.tenant(TenantId(i as u32)).unwrap();
                    tenant.publish(train_mat(tree, &engine, &batches[i], 48));
                    alone[i].publish(train_mat(tree, &engine, &batches[i], 48));
                }
            }
            let (served, stats) = sharded.serve_mixed(&mixed);
            prop_assert_eq!(stats.arrivals, mixed.len());
            prop_assert_eq!(stats.per_tenant.len(), 2);

            // (a) byte-identical to each tenant served alone, and the
            // same accounting
            for (i, alone) in alone.iter().enumerate() {
                let tid = TenantId(i as u32);
                let (alone_answers, want) = alone.serve_batch(&batches[i]);
                let mixed_answers = served
                    .iter()
                    .zip(&mixed)
                    .filter(|(_, (t, _))| *t == tid)
                    .map(|(a, _)| a);
                for (m, a) in mixed_answers.zip(&alone_answers) {
                    let (m, a) = (m.served().unwrap(), a.served().unwrap());
                    prop_assert_eq!(m.potential.scope(), a.potential.scope());
                    let m_bits: Vec<u64> = m.potential.values().iter().map(|v| v.to_bits()).collect();
                    let a_bits: Vec<u64> = a.potential.values().iter().map(|v| v.to_bits()).collect();
                    prop_assert_eq!(
                        m_bits, a_bits,
                        "mixed-batch serving must be byte-identical to serving the tenant alone"
                    );
                    prop_assert_eq!(m.from_cache, a.from_cache, "{} pass", pass);
                    prop_assert_eq!(m.epoch, a.epoch, "{} pass", pass);
                }
                let (_, got) = stats.per_tenant.iter().find(|(t, _)| *t == tid).unwrap();
                prop_assert_eq!(
                    (got.queries, got.unique, got.cache_hits),
                    (want.queries, want.unique, want.cache_hits),
                    "{} pass, {}: queries/unique/cache_hits", pass, tid
                );
                prop_assert_eq!(
                    (got.epoch, got.total_ops, got.shortcuts_used),
                    (want.epoch, want.total_ops, want.shortcuts_used),
                    "{} pass, {}: epoch/total_ops/shortcuts_used", pass, tid
                );
                match pass {
                    "cold" => prop_assert!(want.unique < want.queries && want.cache_hits == 0),
                    "warm" => prop_assert_eq!(want.cache_hits, want.unique),
                    _ => prop_assert_eq!((want.cache_hits, want.epoch), (0, 1)),
                }
                let (got, want) = (sharded.tenant(tid).unwrap().stats(), alone.stats());
                prop_assert_eq!(got.snapshot(), want.snapshot(), "{} pass, {}", pass, tid);
                prop_assert_eq!(got.scope_counts(), want.scope_counts(), "{} pass, {}", pass, tid);
            }

            // (b) against the VE oracle on the owning tenant's model
            for ((tid, q), a) in mixed.iter().zip(&served) {
                let bn = &bns[tid.0 as usize];
                let a = a.served().unwrap();
                let want = if q.is_marginal() {
                    ve_answer(bn, &q.targets).unwrap().0
                } else {
                    ve_conditional(bn, &q.targets, &q.evidence)
                };
                prop_assert!(
                    a.potential.max_abs_diff(&want).unwrap() < 1e-9,
                    "tenant {} diverged from its own model's VE on {:?}",
                    tid,
                    q
                );
            }
        }
    }
}

/// One tenant's epoch swap must not invalidate (or change) another
/// tenant's cache entries: after tenant A publishes, tenant B's repeats
/// are still served zero-copy from B's cache at B's old epoch.
#[test]
fn epoch_swap_is_tenant_local() {
    let bns = [fixtures::figure1(), fixtures::sprinkler()];
    let trees = [
        build_junction_tree(&bns[0]).unwrap(),
        build_junction_tree(&bns[1]).unwrap(),
    ];
    let mut sharded = ShardedServingEngine::new(ShardConfig::default().with_workers(2));
    for (i, (tree, bn)) in trees.iter().zip(&bns).enumerate() {
        let engine = QueryEngine::numeric(tree, bn).unwrap();
        sharded
            .register(TenantId(i as u32), engine, Materialization::default())
            .unwrap();
    }
    let mixed: Vec<(TenantId, ServeRequest)> = (0..2u32)
        .flat_map(|t| {
            (0..3u32).map(move |v| {
                (
                    TenantId(t),
                    ServeRequest::marginal(Scope::from_indices(&[v, v + 1])),
                )
            })
        })
        .collect();
    let (first, _) = sharded.serve_mixed(&mixed);

    // tenant 0 swaps epochs twice; tenant 1 is never touched
    let tree = &trees[0];
    let engine = QueryEngine::numeric(tree, &bns[0]).unwrap();
    let mat = train_mat(
        tree,
        &engine,
        &mixed
            .iter()
            .filter(|(t, _)| *t == TenantId(0))
            .map(|(_, q)| q.clone())
            .collect::<Vec<_>>(),
        256,
    );
    sharded.tenant(TenantId(0)).unwrap().publish(mat);
    sharded
        .tenant(TenantId(0))
        .unwrap()
        .publish(Materialization::default());
    assert_eq!(sharded.tenant(TenantId(0)).unwrap().epoch(), 2);
    assert_eq!(sharded.tenant(TenantId(1)).unwrap().epoch(), 0);

    let (second, stats) = sharded.serve_mixed(&mixed);
    for ((tid, _), (a, b)) in mixed.iter().zip(first.iter().zip(&second)) {
        let (a, b) = (a.served().unwrap(), b.served().unwrap());
        if *tid == TenantId(1) {
            // B's entries survived both of A's swaps: zero-copy, old epoch
            assert!(
                std::sync::Arc::ptr_eq(&a.answer, &b.answer),
                "tenant 1's cache entry must survive tenant 0's swaps"
            );
            assert!(b.from_cache);
            assert_eq!(b.epoch, 0);
        } else {
            // A recomputes under its new epoch, same (materialization-
            // independent) distribution
            assert!(!b.from_cache);
            assert_eq!(b.epoch, 2);
            assert!(a.potential.max_abs_diff(&b.potential).unwrap() < 1e-12);
        }
    }
    let t1 = stats
        .per_tenant
        .iter()
        .find(|(t, _)| *t == TenantId(1))
        .map(|(_, b)| b)
        .unwrap();
    assert_eq!(t1.cache_hits, t1.unique, "tenant 1 must stay fully cached");
}
