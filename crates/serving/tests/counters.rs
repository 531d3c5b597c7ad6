//! `Counters` against an oracle that recounts what the calls returned:
//!
//! * one engine and one evidence session on it: the engine's counters
//!   moved by the arrivals, the failed arrivals, the cache hits (distinct
//!   cached answers per batch) and the sums over the fresh answers (the
//!   charge, the baseline, the shortcuts and the `Work` of each, counted
//!   once however many arrivals share it);
//! * a paging fleet with a store: the fleet's counters moved by the
//!   fault-ins (a touched tenant that was not resident) and page-outs
//!   (what brought the resident set back down), by the bytes of the files
//!   the fault-ins read and the publishes wrote, as the file system
//!   reports them, and by the arrivals of unknown tenants and of a failed
//!   fault-in as failed;
//! * the stats structs that show some of those counts (`BatchStats`,
//!   `MixedBatchStats`, `PagingStats`) against the `Counters` they read.

mod common;

use common::{random_batch, train_mat};
use peanut_core::sync::Arc;
use peanut_junction::{build_junction_tree, JunctionTree, QueryEngine};
use peanut_pgm::{fixtures, BayesianNetwork, Scope, Var};
use peanut_serving::{
    Answer, Counters, MixedBatchStats, ServeOutcome, ServeRequest, ServingConfig, ServingEngine,
    ShardConfig, ShardedServingEngine, StoreConfig, TenantId,
};

/// What the calls that returned `batches` counted, recounted from their
/// outcomes.
fn recount(batches: &[Vec<ServeOutcome>]) -> Counters {
    let mut want = Counters::default();
    for outcomes in batches {
        want.requests += outcomes.len() as u64;
        let (mut fresh, mut cached): (Vec<&Arc<Answer>>, Vec<&Arc<Answer>>) = Default::default();
        for o in outcomes {
            let Some(s) = o.served() else {
                want.failed += 1;
                continue;
            };
            let seen = if s.from_cache {
                &mut cached
            } else {
                &mut fresh
            };
            if !seen.iter().any(|a| Arc::ptr_eq(a, &s.answer)) {
                seen.push(&s.answer);
            }
        }
        want.cache_hits += cached.len() as u64;
        for a in fresh {
            want.computed += 1;
            want.ops += a.cost.ops;
            want.baseline_ops += a.baseline_ops;
            want.shortcuts_used += a.cost.shortcuts_used as u64;
            want.plans_taken += u64::from(a.work.plan_taken);
            want.eliminated += u64::from(a.work.eliminated);
            want.factors_taken += a.work.factors_taken;
            want.messages_taken += a.work.messages_taken;
            want.messages_computed += a.work.messages_computed;
            want.entries_walked += a.work.entries_walked;
            want.short_walked += a.work.short_walked;
            want.anatomies_walked += a.work.anatomies_walked;
        }
    }
    want
}

#[test]
fn an_engine_counts_its_batches_and_its_sessions() {
    let bn = fixtures::chain(10, 3, 7);
    let tree = build_junction_tree(&bn).unwrap();
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let mut batch = random_batch(&bn, 24, 5);
    let mat = train_mat(&tree, &engine, &batch, 4096);
    let serving = ServingEngine::new(engine, mat, ServingConfig::default().with_workers(2));
    // duplicates, and a request that fails
    batch.extend_from_within(..6);
    batch.push(ServeRequest::marginal(Scope::from_indices(&[99])));

    let before = serving.counters();
    let mut served = Vec::new();
    for _ in 0..2 {
        served.push(serving.serve_batch(&batch).0);
    }
    let session = serving.open_session(vec![(Var(9), 1)]).unwrap();
    let targets: Vec<Scope> = [&[0, 4][..], &[2], &[0, 4], &[7, 8], &[99]]
        .into_iter()
        .map(Scope::from_indices)
        .collect();
    served.push(vec![session.serve_one(&targets[1])]);
    served.push(session.serve_batch(&targets).0);

    let want = recount(&served);
    assert_eq!(serving.counters() - before, want);
    assert!(want.computed > 0 && want.cache_hits > 0 && want.failed > 0);
    assert!(want.shortcuts_used > 0, "the materialization answers");
    assert!(want.eliminated > 0, "the session answers by elimination");
}

/// The bytes of tenant `t`'s epoch file, as the file system reports them.
fn file_len(store: &StoreConfig, t: u32, epoch: u64) -> u64 {
    std::fs::metadata(store.epoch_path(t, epoch)).map_or(0, |m| m.len())
}

/// Runs `call`, which touches tenant `t` only, and adds to `want` what it
/// should fault in and page out: a fault-in of `t`'s newest file if `t` is
/// not resident, and the page-outs that bring the resident set back down.
fn paged<R>(
    fleet: &ShardedServingEngine<'_>,
    store: &StoreConfig,
    (t, newest): (u32, u64),
    want: &mut Counters,
    call: impl FnOnce() -> R,
) -> R {
    let resident = fleet.resident_len() as u64;
    let faulting = fleet.tenants().iter().all(|(id, _)| id.0 != t);
    if faulting {
        want.faults += 1;
        want.store_bytes_read += file_len(store, t, newest);
    }
    let out = call();
    want.page_outs += resident + u64::from(faulting) - fleet.resident_len() as u64;
    out
}

/// Three chain networks, their trees, and a batch of 8 requests for each.
type Tenants = (
    Vec<BayesianNetwork>,
    Vec<JunctionTree>,
    Vec<Vec<ServeRequest>>,
);

/// Three chain networks, one tenant each, with a batch of 8 requests per
/// tenant.
fn tenants() -> Tenants {
    let bns: Vec<BayesianNetwork> = (0..3)
        .map(|i| fixtures::chain(8 + i, 2, 13 + 2 * i as u64))
        .collect();
    let trees = bns
        .iter()
        .map(|bn| build_junction_tree(bn).unwrap())
        .collect();
    let batches = bns
        .iter()
        .enumerate()
        .map(|(i, bn)| random_batch(bn, 8, 71 + i as u64))
        .collect();
    (bns, trees, batches)
}

/// A fleet of the three tenants, each trained on its batch, paging to a
/// fresh store under `tag` with one resident slot.
fn paging_fleet<'t>(
    (bns, trees, batches): &'t Tenants,
    tag: &str,
) -> (ShardedServingEngine<'t>, StoreConfig) {
    let dir = std::env::temp_dir().join(format!("peanut-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = StoreConfig::new(&dir);
    let mut fleet =
        ShardedServingEngine::new(ShardConfig::default().with_workers(2).with_max_resident(1));
    fleet.set_store(store.clone());
    for (i, (tree, bn)) in trees.iter().zip(bns).enumerate() {
        let engine = QueryEngine::numeric(tree, bn).unwrap();
        let mat = train_mat(tree, &engine, &batches[i], 256);
        fleet.register(TenantId(i as u32), engine, mat).unwrap();
    }
    fleet.enforce_residency();
    (fleet, store)
}

#[test]
fn a_paging_fleet_counts_its_fault_ins_page_outs_and_store_traffic() {
    let tenants = tenants();
    let batches = &tenants.2;
    let (fleet, store) = paging_fleet(&tenants, "counters");
    let dir = store.dir.clone();

    let (before, paging_before) = (fleet.counters(), fleet.paging_stats());
    // the paging and store counts the calls should make
    let mut want = Counters::default();
    let mut newest = [0u64; 3];
    let mut served = Vec::new();
    // one tenant's batch and an unknown tenant's arrival
    let arrivals = |t: u32| -> Vec<(TenantId, ServeRequest)> {
        let mut arrivals: Vec<_> = batches[t as usize]
            .iter()
            .map(|q| (TenantId(t), q.clone()))
            .collect();
        arrivals.push((TenantId(9), batches[0][0].clone()));
        arrivals
    };
    for round in 0..3u32 {
        for t in 0..3u32 {
            let key = (t, newest[t as usize]);
            let (outcomes, _) = paged(&fleet, &store, key, &mut want, || {
                fleet.serve_mixed(&arrivals(t))
            });
            served.push(outcomes);
        }
        let t = round % 3;
        let key = (t, newest[t as usize]);
        let engine = paged(&fleet, &store, key, &mut want, || {
            fleet.tenant(TenantId(t)).unwrap()
        });
        newest[t as usize] = engine.publish((*engine.materialization()).clone());
        want.store_bytes_written += file_len(&store, t, newest[t as usize]);
    }
    // a parked tenant whose newest file is unreadable: its fault-in fails
    // and every arrival of it with it
    let parked = (0..3u32)
        .find(|&t| fleet.tenants().iter().all(|(id, _)| id.0 != t))
        .unwrap();
    std::fs::write(store.epoch_path(parked, newest[parked as usize]), b"torn").unwrap();
    let (outcomes, _) = fleet.serve_mixed(&arrivals(parked));
    assert!(outcomes.iter().all(|o| o.failure().is_some()));
    served.push(outcomes);

    let got = fleet.counters() - before;
    let recounted = recount(&served);
    let want = Counters {
        fault_nanos: got.fault_nanos,
        memo_resumed: got.memo_resumed,
        ..Counters {
            faults: want.faults,
            fault_errors: 1,
            page_outs: want.page_outs,
            store_bytes_read: want.store_bytes_read,
            store_bytes_written: want.store_bytes_written,
            ..recounted
        }
    };
    assert_eq!(got, want);
    let paging = fleet.paging_stats();
    assert_eq!(
        (paging.faults, paging.page_outs, paging.fault_errors),
        (
            paging_before.faults + want.faults,
            paging_before.page_outs + want.page_outs,
            1
        )
    );
    assert!(want.faults > 0 && want.page_outs > 0 && want.store_bytes_written > 0);
    assert!(
        recounted.failed > 12,
        "unknown tenants and a failed fault-in"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The counts a mixed batch's stats show beside its `Counters`.
fn views_agree(stats: &MixedBatchStats) {
    let per_tenant = stats.per_tenant.iter().map(|(_, b)| b);
    for b in per_tenant.clone() {
        assert_eq!(b.cache_hits as u64, b.counters.cache_hits);
    }
    let unique: usize = per_tenant.clone().map(|b| b.unique).sum();
    let cache_hits: usize = per_tenant.map(|b| b.cache_hits).sum();
    assert_eq!((stats.unique, stats.cache_hits), (unique, cache_hits));
    let c = &stats.counters;
    assert_eq!(
        (
            stats.cache_hits as u64,
            stats.faults as u64,
            stats.fault_wall
        ),
        (c.cache_hits, c.faults, c.fault_wall())
    );
}

#[test]
fn the_stats_structs_show_their_counters() {
    let tenants = tenants();
    let (fleet, store) = paging_fleet(&tenants, "views");
    // every tenant in each batch, the second pass from the caches
    let mixed: Vec<(TenantId, ServeRequest)> = (0..8)
        .flat_map(|k| (0..3u32).map(move |t| (t, k)))
        .map(|(t, k)| (TenantId(t), tenants.2[t as usize][k].clone()))
        .collect();
    let mut seen = Counters::default();
    for _ in 0..2 {
        let (_, stats) = fleet.serve_mixed(&mixed);
        assert_eq!(stats.per_tenant.len(), 3);
        views_agree(&stats);
        seen += stats.counters;
    }
    assert!(seen.cache_hits > 0 && seen.faults > 0 && seen.fault_nanos > 0);
    let (paging, counters) = (fleet.paging_stats(), fleet.counters());
    assert_eq!(
        (paging.faults, paging.page_outs, paging.fault_errors),
        (counters.faults, counters.page_outs, counters.fault_errors)
    );
    assert!(counters.page_outs > 0);
    let _ = std::fs::remove_dir_all(&store.dir);
}
