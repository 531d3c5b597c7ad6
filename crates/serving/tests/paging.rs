//! Cold-tenant paging guarantees of the store-backed sharded engine:
//!
//! * a fleet with a resident-set cap **smaller than its tenant count**
//!   serves a full mixed replay with zero errors, answers **bit-identical**
//!   to an uncapped (always-resident) fleet, and never ends a batch with
//!   more than `max_resident` tenants in RAM;
//! * a paged-out tenant faults back in on access, resuming its epoch
//!   sequence (publishes persist write-behind and survive a page-out);
//! * among the tenants one batch touched, eviction keeps those with the
//!   most arrivals in it;
//! * paging telemetry (faults, page-outs, fault wall time) is reported
//!   per batch and cumulatively;
//! * a failed write-behind persist is retried by the tenant's page-out;
//! * an epoch's message memo starts empty at a publish and at a fault-in,
//!   and a retired epoch's materialization keeps what it filed;
//! * a page-out parks the epoch's answer cache and observation window: a
//!   fault-in of the same epoch resumes both, bit for bit, while a
//!   fault-in of a newer epoch starts with an empty cache;
//! * a corrupt epoch file fails only its own tenant, and fails it closed.

mod common;

use common::{random_batch, train_mat};
use peanut_core::Materialization;
use peanut_junction::{build_junction_tree, JunctionTree, QueryEngine};
use peanut_pgm::{fixtures, BayesianNetwork, PgmError, Potential};
use peanut_serving::{
    ServeOutcome, ServeRequest, ShardConfig, ShardedServingEngine, StoreConfig, TenantId,
};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("peanut-paging-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fleet_models(n: usize) -> Vec<BayesianNetwork> {
    (0..n)
        .map(|i| fixtures::chain(8 + i % 3, 2, 13 + 2 * i as u64))
        .collect()
}

/// Registers `trees.len()` tenants, each with a trained materialization,
/// on a fleet configured with `store` and `max_resident`.
fn build_fleet<'a>(
    trees: &'a [JunctionTree],
    bns: &'a [BayesianNetwork],
    batches: &[Vec<ServeRequest>],
    store: Option<StoreConfig>,
    max_resident: usize,
) -> ShardedServingEngine<'a> {
    let mut fleet = ShardedServingEngine::new(
        ShardConfig::default()
            .with_workers(2)
            .with_max_resident(max_resident),
    );
    if let Some(store) = store {
        fleet.set_store(store);
    }
    for (i, (tree, bn)) in trees.iter().zip(bns).enumerate() {
        let engine = QueryEngine::numeric(tree, bn).unwrap();
        let mat = train_mat(tree, &engine, &batches[i], 256);
        fleet.register(TenantId(i as u32), engine, mat).unwrap();
    }
    fleet
}

/// The tentpole acceptance check: 6 tenants behind a resident cap of 2
/// drain a full mixed replay with zero errors and bit-identical answers
/// to an uncapped fleet, while the resident set stays bounded and cold
/// tenants actually cycle through the store.
#[test]
fn capped_fleet_replays_bit_identically_to_uncapped() {
    let bns = fleet_models(6);
    let trees: Vec<JunctionTree> = bns
        .iter()
        .map(|bn| build_junction_tree(bn).unwrap())
        .collect();
    let batches: Vec<Vec<ServeRequest>> = bns
        .iter()
        .enumerate()
        .map(|(i, bn)| random_batch(bn, 10, 41 + i as u64))
        .collect();

    let dir = temp_dir("replay");
    let capped = build_fleet(&trees, &bns, &batches, Some(StoreConfig::new(&dir)), 2);
    let uncapped = build_fleet(&trees, &bns, &batches, None, 0);

    // arrival stream sweeping through all tenants, several passes: every
    // pass past the first re-faults tenants the cap evicted
    let arrivals: Vec<(TenantId, ServeRequest)> = (0..3)
        .flat_map(|_| {
            batches
                .iter()
                .enumerate()
                .flat_map(|(t, qs)| qs.iter().map(move |q| (TenantId(t as u32), q.clone())))
        })
        .collect();

    let mut total_faults = 0usize;
    let mut total_page_outs = 0usize;
    for chunk in arrivals.chunks(15) {
        let (capped_answers, stats) = capped.serve_mixed(chunk);
        let (plain_answers, _) = uncapped.serve_mixed(chunk);
        assert!(
            stats.resident <= 2,
            "resident set must stay within the cap: {} > 2",
            stats.resident
        );
        total_faults += stats.faults;
        total_page_outs += stats.page_outs;
        for (i, (c, p)) in capped_answers.iter().zip(&plain_answers).enumerate() {
            let (c, p) = (
                c.served().expect("capped fleet must serve without errors"),
                p.served()
                    .expect("uncapped fleet must serve without errors"),
            );
            let c_bits: Vec<u64> = c.potential.values().iter().map(|v| v.to_bits()).collect();
            let p_bits: Vec<u64> = p.potential.values().iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                c_bits, p_bits,
                "arrival {i} ({}) must answer bit-identically through the page cycle",
                chunk[i].0
            );
            assert_eq!(c.cost.ops, p.cost.ops, "same reduced-tree computation");
        }
    }
    assert!(
        total_faults > 0 && total_page_outs > 0,
        "a 6-tenant sweep under a cap of 2 must actually page: \
         {total_faults} faults, {total_page_outs} page-outs"
    );
    let paging = capped.paging_stats();
    assert_eq!(paging.registered, 6);
    assert!(paging.resident <= 2);
    assert_eq!(paging.max_resident, 2);
    assert_eq!(paging.faults as usize, total_faults);
    assert_eq!(paging.page_outs as usize, total_page_outs);
    assert_eq!(paging.fault_errors, 0);
    assert!(paging.fault_wall > std::time::Duration::ZERO);
    assert_eq!(uncapped.paging_stats().faults, 0, "no store, no paging");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A publish on a resident tenant persists write-behind; after the tenant
/// is paged out, its next access faults the *published* epoch back in and
/// the epoch sequence resumes from there.
#[test]
fn publish_survives_a_page_out() {
    let bns = fleet_models(3);
    let trees: Vec<JunctionTree> = bns
        .iter()
        .map(|bn| build_junction_tree(bn).unwrap())
        .collect();
    let batches: Vec<Vec<ServeRequest>> = bns
        .iter()
        .enumerate()
        .map(|(i, bn)| random_batch(bn, 8, 7 + i as u64))
        .collect();
    let dir = temp_dir("publish");
    let fleet = build_fleet(&trees, &bns, &batches, Some(StoreConfig::new(&dir)), 1);

    // tenant 0: publish a fresh (empty) epoch while resident
    let t0 = fleet.tenant(TenantId(0)).unwrap();
    assert_eq!(t0.publish(Materialization::default()), 1);
    assert_eq!(
        t0.persisted_epoch(),
        Some(1),
        "publish persists write-behind"
    );
    assert_eq!(t0.persist_errors(), 0);
    drop(t0);

    // touching the other tenants under a cap of 1 evicts tenant 0
    fleet.tenant(TenantId(1)).unwrap();
    fleet.tenant(TenantId(2)).unwrap();
    assert!(fleet.resident_len() <= 1);

    // fault tenant 0 back in: it resumes at the published epoch, and the
    // next publish continues the sequence
    let t0 = fleet.tenant(TenantId(0)).unwrap();
    assert_eq!(
        t0.epoch(),
        1,
        "fault-in must pick the newest persisted epoch"
    );
    assert!(
        t0.materialization().is_empty(),
        "epoch 1 was the empty publish"
    );
    assert_eq!(t0.publish(Materialization::default()), 2);
    assert!(fleet.paging_stats().faults >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A write-behind persist that fails leaves the new epoch marked as not
/// on disk, and the tenant's next page-out writes it before dropping the
/// engine, so the fault-in resumes at that epoch.
#[test]
fn a_failed_persist_is_retried_at_page_out() {
    let bns = fleet_models(2);
    let trees: Vec<JunctionTree> = bns
        .iter()
        .map(|bn| build_junction_tree(bn).unwrap())
        .collect();
    let batches: Vec<Vec<ServeRequest>> = bns
        .iter()
        .enumerate()
        .map(|(i, bn)| random_batch(bn, 4, 31 + i as u64))
        .collect();
    let dir = temp_dir("retry");
    let store = StoreConfig::new(&dir);
    let fleet = build_fleet(&trees, &bns, &batches, Some(store.clone()), 1);
    let t0 = fleet.tenant(TenantId(0)).unwrap();
    assert_eq!(t0.persisted_epoch(), Some(0), "registration persists");

    // a regular file where the store directory was fails every write
    let aside = dir.with_extension("aside");
    std::fs::rename(&dir, &aside).unwrap();
    std::fs::write(&dir, b"not a directory").unwrap();
    assert_eq!(t0.publish(Materialization::default()), 1);
    assert_eq!(t0.persisted_epoch(), None, "epoch 1 is not on disk");
    assert_eq!(t0.persist_errors(), 1);
    std::fs::remove_file(&dir).unwrap();
    std::fs::rename(&aside, &dir).unwrap();

    // touching tenant 1 under a cap of 1 pages tenant 0 out
    fleet.tenant(TenantId(1)).unwrap();
    assert_eq!(fleet.resident_len(), 1);
    assert_eq!(fleet.paging_stats().fault_errors, 0);
    assert_eq!(t0.persisted_epoch(), Some(1), "the page-out wrote epoch 1");
    assert_eq!(store.latest_epoch(0).map(|(e, _)| e), Some(1));
    drop(t0);
    assert_eq!(fleet.tenant(TenantId(0)).unwrap().epoch(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The resident-only `tenants()` view and the by-id fault-in: a paged-out
/// tenant disappears from the fleet iteration but is transparently
/// rehydrated when addressed directly.
#[test]
fn tenants_view_tracks_residency() {
    let bns = fleet_models(4);
    let trees: Vec<JunctionTree> = bns
        .iter()
        .map(|bn| build_junction_tree(bn).unwrap())
        .collect();
    let batches: Vec<Vec<ServeRequest>> = bns
        .iter()
        .enumerate()
        .map(|(i, bn)| random_batch(bn, 8, 90 + i as u64))
        .collect();
    let dir = temp_dir("view");
    let fleet = build_fleet(&trees, &bns, &batches, Some(StoreConfig::new(&dir)), 2);
    assert_eq!(fleet.len(), 4);
    assert_eq!(fleet.tenants().len(), 4, "everyone starts resident");

    // one batch per tenant in id order leaves only the two most recent
    for (t, qs) in batches.iter().enumerate() {
        let batch: Vec<(TenantId, ServeRequest)> =
            qs.iter().map(|q| (TenantId(t as u32), q.clone())).collect();
        let (answers, _) = fleet.serve_mixed(&batch);
        assert!(answers.iter().all(ServeOutcome::is_served));
    }
    let resident: Vec<TenantId> = fleet.tenants().into_iter().map(|(id, _)| id).collect();
    assert_eq!(
        resident,
        vec![TenantId(2), TenantId(3)],
        "LRU must keep the two most recently served tenants"
    );
    // addressing a cold tenant faults it in (and re-enforces the cap)
    assert!(fleet.tenant(TenantId(0)).is_some());
    let resident: Vec<TenantId> = fleet.tenants().into_iter().map(|(id, _)| id).collect();
    assert!(resident.contains(&TenantId(0)));
    assert!(fleet.resident_len() <= 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A batch is served at once, so every tenant it touches is equally
/// recent; eviction then keeps the tenant with the most arrivals in it,
/// whichever registry position it holds. A later lone access by id is
/// newer than the batch and keeps its tenant. Answers stay bit-identical
/// to an uncapped fleet throughout.
#[test]
fn eviction_keeps_the_busiest_tenant_of_a_batch() {
    let bns = fleet_models(3);
    let trees: Vec<JunctionTree> = bns
        .iter()
        .map(|bn| build_junction_tree(bn).unwrap())
        .collect();
    let batches: Vec<Vec<ServeRequest>> = bns
        .iter()
        .enumerate()
        .map(|(i, bn)| random_batch(bn, 5, 61 + i as u64))
        .collect();
    let bits = |p: &Potential| p.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    // arrivals 5 / 1 / 2 for tenants 0 / 1 / 2, then with the ids reversed
    for (counts, busy) in [([5, 1, 2], TenantId(0)), ([2, 1, 5], TenantId(2))] {
        let dir = temp_dir(&format!("busy{}", busy.0));
        let capped = build_fleet(&trees, &bns, &batches, Some(StoreConfig::new(&dir)), 1);
        let uncapped = build_fleet(&trees, &bns, &batches, None, 0);
        // interleaved, so the busy tenant is neither first nor last to arrive
        let mixed: Vec<(TenantId, ServeRequest)> = (0..5)
            .flat_map(|k| (0..3).map(move |t| (k, t)))
            .filter(|&(k, t)| k < counts[t])
            .map(|(k, t)| (TenantId(t as u32), batches[t][k].clone()))
            .collect();
        let resident =
            || -> Vec<TenantId> { capped.tenants().into_iter().map(|(id, _)| id).collect() };
        let assert_uncapped_answers = |answers: &[ServeOutcome]| {
            for (c, p) in answers.iter().zip(&uncapped.serve_mixed(&mixed).0) {
                let (c, p) = (c.served().unwrap(), p.served().unwrap());
                assert_eq!(bits(&c.potential), bits(&p.potential));
                assert_eq!(c.cost.ops, p.cost.ops);
            }
        };

        let (answers, stats) = capped.serve_mixed(&mixed);
        assert_eq!((stats.arrivals, stats.page_outs), (8, 2));
        assert_eq!(resident(), vec![busy], "arrivals {counts:?}");
        assert_uncapped_answers(&answers);

        assert!(capped.tenant(TenantId(1)).is_some());
        assert_eq!(
            resident(),
            vec![TenantId(1)],
            "a lone access outranks the batch"
        );
        let (answers, stats) = capped.serve_mixed(&mixed);
        assert_eq!(stats.faults, 2);
        assert_eq!(resident(), vec![busy]);
        assert_uncapped_answers(&answers);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A paged-out tenant whose newest epoch file rotted fails closed: its
/// arrivals come back `Failed(CorruptStore)`, the failure is counted once,
/// and every other tenant of the same mixed batch answers exactly as in a
/// fleet whose store is intact.
#[test]
fn corrupt_epoch_file_fails_closed_through_serve_mixed() {
    let bns = fleet_models(4);
    let trees: Vec<JunctionTree> = bns
        .iter()
        .map(|bn| build_junction_tree(bn).unwrap())
        .collect();
    let batches: Vec<Vec<ServeRequest>> = bns
        .iter()
        .enumerate()
        .map(|(i, bn)| random_batch(bn, 8, 23 + i as u64))
        .collect();
    let (dir, twin_dir) = (temp_dir("corrupt"), temp_dir("corrupt-twin"));
    let store = StoreConfig::new(&dir);
    let fleet = build_fleet(&trees, &bns, &batches, Some(store.clone()), 2);
    let twin = build_fleet(&trees, &bns, &batches, Some(StoreConfig::new(&twin_dir)), 2);

    // one batch per tenant in id order pages tenants 0 and 1 out
    let mixed: Vec<(TenantId, ServeRequest)> = batches
        .iter()
        .enumerate()
        .flat_map(|(t, qs)| qs.iter().map(move |q| (TenantId(t as u32), q.clone())))
        .collect();
    for per_tenant in mixed.chunks(8) {
        for f in [&fleet, &twin] {
            assert!(f
                .serve_mixed(per_tenant)
                .0
                .iter()
                .all(ServeOutcome::is_served));
        }
    }
    assert!(fleet.tenants().iter().all(|(id, _)| id.0 >= 2));

    // bit rot in tenant 0's newest epoch, past the header
    let (_, path) = store.latest_epoch(0).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = 80 + (bytes.len() - 80) / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();

    let (answers, stats) = fleet.serve_mixed(&mixed);
    let (twin_answers, twin_stats) = twin.serve_mixed(&mixed);
    assert_eq!((stats.fault_errors, twin_stats.fault_errors), (1, 0));
    assert_eq!(fleet.paging_stats().fault_errors, 1);
    for (((tenant, _), got), want) in mixed.iter().zip(&answers).zip(&twin_answers) {
        if tenant.0 == 0 {
            assert!(
                matches!(got, ServeOutcome::Failed(PgmError::CorruptStore { .. })),
                "{tenant} must fail closed"
            );
            continue;
        }
        let (got, want) = (got.served().unwrap(), want.served().unwrap());
        let bits = |p: &Potential| p.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.potential), bits(&want.potential), "{tenant}");
        assert_eq!(got.cost.ops, want.cost.ops, "{tenant}");
    }
    for d in [dir, twin_dir] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

/// An epoch's message memo lives and dies with its materialization: a
/// publish starts the new epoch empty while the retired epoch's
/// materialization keeps what it filed, and a tenant paged out and
/// faulted back in starts empty too.
#[test]
fn an_epochs_message_memo_starts_empty_at_publish_and_fault_in() {
    let bns: Vec<BayesianNetwork> = (0..2).map(|i| fixtures::chain(12, 3, 5 + i)).collect();
    let trees: Vec<JunctionTree> = bns
        .iter()
        .map(|bn| build_junction_tree(bn).unwrap())
        .collect();
    let batches: Vec<Vec<ServeRequest>> = bns
        .iter()
        .enumerate()
        .map(|(i, bn)| random_batch(bn, 48, 29 + i as u64))
        .collect();
    let dir = temp_dir("memo");
    let fleet = build_fleet(&trees, &bns, &batches, Some(StoreConfig::new(&dir)), 1);
    let served = |batch: &[ServeRequest]| {
        let t0 = fleet.tenant(TenantId(0)).unwrap();
        let (outcomes, _) = t0.serve_batch(batch);
        assert!(outcomes.iter().all(|o| o.served().is_some()));
        t0
    };

    let t0 = served(&batches[0]);
    let retired = t0.materialization();
    let (held, _) = retired.memo_usage();
    assert!(
        held > 0,
        "test premise: the epoch files shortcut-holding messages"
    );
    t0.publish((*retired).clone());
    assert_eq!(
        t0.materialization().memo_usage().0,
        0,
        "a publish starts empty"
    );
    assert_eq!(
        retired.memo_usage().0,
        held,
        "the retired epoch keeps its own"
    );
    served(&batches[0]);
    assert!(
        t0.materialization().memo_usage().0 > 0,
        "the new epoch files"
    );
    drop(t0);

    // touching tenant 1 under a cap of 1 pages tenant 0 out
    fleet.tenant(TenantId(1)).unwrap();
    let faults = fleet.paging_stats().faults;
    let t0 = fleet.tenant(TenantId(0)).unwrap();
    assert_eq!(
        fleet.paging_stats().faults,
        faults + 1,
        "tenant 0 faulted in"
    );
    assert_eq!(t0.epoch(), 1);
    assert_eq!(
        t0.materialization().memo_usage().0,
        0,
        "a fault-in starts empty"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two tenants' models, trees and request batches.
fn two_tenants(
    seed: u64,
) -> (
    Vec<BayesianNetwork>,
    Vec<JunctionTree>,
    Vec<Vec<ServeRequest>>,
) {
    let bns = fleet_models(2);
    let trees = bns
        .iter()
        .map(|bn| build_junction_tree(bn).unwrap())
        .collect();
    let batches = bns
        .iter()
        .enumerate()
        .map(|(i, bn)| random_batch(bn, 12, seed + i as u64))
        .collect();
    (bns, trees, batches)
}

/// Tenant 0's batch as a mixed batch.
fn tenant0(batch: &[ServeRequest]) -> Vec<(TenantId, ServeRequest)> {
    batch.iter().map(|q| (TenantId(0), q.clone())).collect()
}

fn bits(o: &ServeOutcome) -> Vec<u64> {
    let served = o.served().expect("served");
    served
        .potential
        .values()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// A page-out parks the epoch's answer cache, and a fault-in that
/// rehydrates the same epoch resumes it: the repeated batch hits on every
/// unique request and answers with the very tables the first serve
/// computed.
#[test]
fn a_fault_in_of_the_same_epoch_resumes_its_answers() {
    let (bns, trees, batches) = two_tenants(71);
    let dir = temp_dir("resume");
    let fleet = build_fleet(&trees, &bns, &batches, Some(StoreConfig::new(&dir)), 1);
    let mixed = tenant0(&batches[0]);
    let (first, stats) = fleet.serve_mixed(&mixed);
    assert_eq!(stats.cache_hits, 0);

    // touching tenant 1 under a cap of 1 pages tenant 0 out
    fleet.tenant(TenantId(1)).unwrap();
    assert!(fleet.tenants().iter().all(|(id, _)| *id == TenantId(1)));

    let (again, stats) = fleet.serve_mixed(&mixed);
    assert_eq!(stats.faults, 1, "tenant 0 faulted in");
    assert_eq!(
        stats.cache_hits, stats.unique,
        "the parked answers hit after the fault-in"
    );
    assert_eq!(stats.total_ops, 0, "nothing was recomputed");
    for (a, b) in first.iter().zip(&again) {
        assert_eq!(bits(a), bits(b));
        let (a, b) = (a.served().unwrap(), b.served().unwrap());
        assert!(b.from_cache);
        assert_eq!((a.epoch, b.epoch), (0, 0));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A publish on an engine handle held across the page-out persists epoch
/// e+1, so the fault-in rehydrates e+1: the parked front of epoch e is
/// dropped, and the newer epoch starts with an empty cache.
#[test]
fn a_fault_in_of_a_newer_epoch_starts_its_cache_empty() {
    let (bns, trees, batches) = two_tenants(83);
    let dir = temp_dir("newer");
    let fleet = build_fleet(&trees, &bns, &batches, Some(StoreConfig::new(&dir)), 1);
    let mixed = tenant0(&batches[0]);
    let held = fleet.tenant(TenantId(0)).unwrap();
    let (first, _) = fleet.serve_mixed(&mixed);

    fleet.tenant(TenantId(1)).unwrap();
    assert_eq!(fleet.resident_len(), 1, "tenant 0 is paged out");
    let mat = (*held.materialization()).clone();
    assert_eq!(held.publish(mat), 1);
    assert_eq!(held.persisted_epoch(), Some(1), "epoch 1 is on disk");
    drop(held);

    let (again, stats) = fleet.serve_mixed(&mixed);
    assert_eq!(stats.faults, 1, "tenant 0 faulted in");
    assert_eq!(stats.cache_hits, 0, "epoch 0's answers are gone");
    assert_eq!(fleet.tenant(TenantId(0)).unwrap().epoch(), 1);
    for (a, b) in first.iter().zip(&again) {
        assert_eq!(bits(a), bits(b), "the same tables answer alike");
        let b = b.served().unwrap();
        assert!(!b.from_cache);
        assert_eq!(b.epoch, 1);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The observation window is parked with the cache: arrivals served
/// before a page-out still count once the same epoch faults back in, so
/// a controller tick that falls after the fault-in reads them.
#[test]
fn the_observation_window_survives_a_page_out() {
    let (bns, trees, batches) = two_tenants(97);
    let dir = temp_dir("window");
    let fleet = build_fleet(&trees, &bns, &batches, Some(StoreConfig::new(&dir)), 1);
    let mixed = tenant0(&batches[0]);
    let n = 2 * mixed.len() as u64;
    fleet.serve_mixed(&mixed);
    fleet.serve_mixed(&mixed);

    fleet.tenant(TenantId(1)).unwrap();
    assert!(fleet.tenants().iter().all(|(id, _)| *id == TenantId(1)));
    let faults = fleet.paging_stats().faults;
    let t0 = fleet.tenant(TenantId(0)).unwrap();
    assert_eq!(
        fleet.paging_stats().faults,
        faults + 1,
        "tenant 0 faulted in"
    );
    assert_eq!(t0.stats().snapshot().queries, n);
    let _ = std::fs::remove_dir_all(&dir);
}
