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
//! * a failed write-behind persist is retried by the tenant's page-out,
//!   and the tenant's failed-persist count survives the page cycle;
//! * a fault-in reads back only the epochs its own fleet saved, so a
//!   store directory an earlier fleet used changes no answer;
//! * an epoch's message memo starts empty at a publish and at a fault-in,
//!   and a retired epoch's materialization keeps what it filed;
//! * a page-out parks the epoch's answer cache and observation window: a
//!   fault-in of the same epoch resumes both, bit for bit, while a
//!   fault-in of a newer epoch starts with an empty cache;
//! * a page-out parks the calibrated tables' messages, trimmed to at most
//!   the entries it frees: a fault-in of the same epoch adopts exactly
//!   those and answers through them bit for bit, while a fault-in of a
//!   newer epoch starts with an empty memo;
//! * a page-out unlinks the tenant's epoch files older than its newest,
//!   so every paged tenant keeps one file however often it publishes;
//! * a corrupt epoch file fails only its own tenant, and fails it closed.

mod common;

use common::{random_batch, train_mat};
use peanut_core::Materialization;
use peanut_junction::{build_junction_tree, JunctionTree, QueryEngine};
use peanut_pgm::{fixtures, BayesianNetwork, PgmError, Potential};
use peanut_serving::{
    ServeOutcome, ServeRequest, ServingConfig, ServingEngine, ShardConfig, ShardedServingEngine,
    StoreConfig, TenantId,
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
/// engine, so the fault-in resumes at that epoch. The failure stays
/// counted: the count belongs to the tenant, not to one engine.
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
    assert!(store.epoch_path(0, 1).exists());
    drop(t0);
    let t0 = fleet.tenant(TenantId(0)).unwrap();
    assert_eq!(t0.epoch(), 1);
    assert_eq!(t0.persist_errors(), 1, "the count survives the page cycle");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store directory an earlier fleet saved epochs 0 to 3 of another
/// model in: a new fleet's tenant pages out and faults back in at its
/// own epoch 0, and answers bit for bit as before the page cycle, never
/// from the earlier fleet's tables.
#[test]
fn a_reused_store_directory_changes_no_answer() {
    let dir = temp_dir("reused");
    let store = StoreConfig::new(&dir);
    let other = fixtures::chain(9, 2, 3);
    let other_tree = build_junction_tree(&other).unwrap();
    {
        let earlier = fixtures::chain(8, 2, 1);
        let tree = build_junction_tree(&earlier).unwrap();
        let mut fleet = ShardedServingEngine::new(ShardConfig::default().with_workers(1));
        fleet.set_store(store.clone());
        let engine = QueryEngine::numeric(&tree, &earlier).unwrap();
        fleet
            .register(TenantId(0), engine, Materialization::default())
            .unwrap();
        let t0 = fleet.tenant(TenantId(0)).unwrap();
        for epoch in 1..=3 {
            assert_eq!(t0.publish(Materialization::default()), epoch);
        }
        assert!(store.epoch_path(0, 3).exists());
    }

    let bn = fixtures::chain(8, 2, 2);
    let tree = build_junction_tree(&bn).unwrap();
    // no answer cache, so every answer after the fault-in is computed
    // from the rehydrated tables
    let mut fleet = ShardedServingEngine::new(
        ShardConfig::default()
            .with_workers(1)
            .with_cache_capacity(0)
            .with_max_resident(1),
    );
    fleet.set_store(store);
    for (t, (tree, bn)) in [(&tree, &bn), (&other_tree, &other)]
        .into_iter()
        .enumerate()
    {
        let engine = QueryEngine::numeric(tree, bn).unwrap();
        fleet
            .register(TenantId(t as u32), engine, Materialization::default())
            .unwrap();
    }
    let mixed = tenant0(&random_batch(&bn, 12, 5));
    let (before, _) = fleet.serve_mixed(&mixed);
    fleet.tenant(TenantId(1)).unwrap();
    assert!(fleet.tenants().iter().all(|(id, _)| *id == TenantId(1)));

    let (after, stats) = fleet.serve_mixed(&mixed);
    assert_eq!((stats.faults, stats.fault_errors), (1, 0));
    for (a, b) in before.iter().zip(&after) {
        assert_eq!(bits(a), bits(b), "the tenant's own tables answer");
        assert_eq!(b.served().unwrap().epoch, 0);
    }
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
    let path = store.epoch_path(0, 0);
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

/// A publish on a handle held across the page-out brings a different
/// shortcut set than the one the front parked: the fault-in derives the
/// shortcuts whose node lists differ from the file, and answers bit for
/// bit like an always-resident engine serving that materialization.
#[test]
fn a_fault_in_derives_a_new_shortcut_set_from_the_file() {
    let (bns, trees, batches) = two_tenants(89);
    let dir = temp_dir("new-set");
    let fleet = build_fleet(&trees, &bns, &batches, Some(StoreConfig::new(&dir)), 1);
    let held = fleet.tenant(TenantId(0)).unwrap();
    let parked = held.materialization();
    fleet.tenant(TenantId(1)).unwrap();
    assert_eq!(fleet.resident_len(), 1, "tenant 0 is paged out");

    // another workload and budget select another shortcut set
    let resident = QueryEngine::numeric(&trees[0], &bns[0]).unwrap();
    let other = random_batch(&bns[0], 24, 5);
    let mat = train_mat(&trees[0], &resident, &other, 64);
    let nodes = |m: &Materialization| {
        m.shortcuts
            .iter()
            .map(|s| s.shortcut.nodes().to_vec())
            .collect::<Vec<_>>()
    };
    assert!(!mat.shortcuts.is_empty());
    assert_ne!(nodes(&mat), nodes(&parked), "the shortcut sets differ");
    assert_eq!(held.publish(mat.clone()), 1);
    drop(held);

    let mixed = tenant0(&batches[0]);
    let (got, stats) = fleet.serve_mixed(&mixed);
    assert_eq!(stats.faults, 1, "tenant 0 faulted in");
    let faulted = fleet.tenant(TenantId(0)).unwrap();
    assert_eq!(faulted.epoch(), 1);
    assert_eq!(nodes(&faulted.materialization()), nodes(&mat));
    let always = ServingEngine::new(resident, mat, ServingConfig::default().with_workers(1));
    let (want, _) = always.serve_batch(&batches[0]);
    for (a, b) in got.iter().zip(&want) {
        assert_eq!(bits(a), bits(b));
        let (a, b) = (a.served().unwrap(), b.served().unwrap());
        assert_eq!(a.cost.ops, b.cost.ops);
        assert_eq!(a.cost.shortcuts_used, b.cost.shortcuts_used);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The parked epoch's file, rewritten so that a shortcut's node list names
/// a clique the tree does not have and re-checksummed, passes `open`; the
/// fault-in checks the list against the tree instead of trusting the
/// structure the front kept, and the tenant's arrivals fail closed as
/// `CorruptStore` naming the file.
#[test]
fn an_out_of_range_clique_in_a_parked_file_fails_closed() {
    let (bns, trees, batches) = two_tenants(101);
    let dir = temp_dir("out-of-range");
    let store = StoreConfig::new(&dir);
    let fleet = build_fleet(&trees, &bns, &batches, Some(store.clone()), 1);
    assert!(!fleet
        .tenant(TenantId(0))
        .unwrap()
        .materialization()
        .shortcuts
        .is_empty());
    fleet.tenant(TenantId(1)).unwrap();
    assert_eq!(fleet.resident_len(), 1, "tenant 0 is paged out");

    // header words 5 and 6: arena slab length, shortcut count; the node
    // lists follow the slab and the n + 1 CSR offsets
    let path = store.epoch_path(0, 0);
    let mut bytes = std::fs::read(&path).unwrap();
    let word = |b: &[u8], w: usize| u64::from_le_bytes(b[w * 8..w * 8 + 8].try_into().unwrap());
    let first_node = 10 + word(&bytes, 5) as usize + word(&bytes, 6) as usize + 1;
    let bad = trees[0].n_cliques() as u64 + 5;
    bytes[first_node * 8..first_node * 8 + 8].copy_from_slice(&bad.to_le_bytes());
    let checksum = peanut_store::lane_checksum(&bytes[24..]);
    bytes[16..24].copy_from_slice(&checksum.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    let (answers, stats) = fleet.serve_mixed(&tenant0(&batches[0]));
    assert_eq!(stats.fault_errors, 1);
    let file = path.display().to_string();
    for a in &answers {
        assert!(
            matches!(a, ServeOutcome::Failed(PgmError::CorruptStore { path, detail })
                if *path == file && detail.contains(&format!("clique {bad}"))),
            "{a:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Set in the child [`under_file_size_limit`] starts.
#[cfg(target_os = "linux")]
const FILE_LIMIT_ENV: &str = "PEANUT_TEST_FILE_SIZE_LIMIT";

/// Runs this binary's test `name` again in a child whose file-size limit
/// is `blocks` 512-byte blocks, with `SIGXFSZ` ignored, so a write past the
/// limit fails with `EFBIG` instead of killing it. The child's output is
/// piped, so the limit never reaches a log file it would print to.
#[cfg(target_os = "linux")]
fn under_file_size_limit(name: &str, blocks: u64) {
    let exe = std::env::current_exe().unwrap();
    let script =
        format!("trap '' XFSZ; ulimit -f {blocks}; exec \"$0\" --exact {name} --nocapture");
    let out = std::process::Command::new("sh")
        .args(["-c", &script])
        .arg(&exe)
        .env(FILE_LIMIT_ENV, "1")
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{name} under the limit:\n{text}");
    assert!(text.contains("1 passed"), "{name} did not run:\n{text}");
}

/// The file-size limit of [`a_publish_past_the_disk_limit_keeps_serving_from_ram`].
#[cfg(target_os = "linux")]
const FLEET_LIMIT_BLOCKS: u64 = 64;

/// Tenant 0 of the short-write test: a chain whose every interval of
/// cliques is a materialized shortcut, so the published epoch's file is
/// several times the size of the calibrated slab alone.
#[cfg(target_os = "linux")]
fn every_interval(tree: &JunctionTree, engine: &QueryEngine<'_>) -> Materialization {
    use peanut_core::{MaterializedShortcut, Shortcut};
    let ns = engine.numeric_state().unwrap();
    let n = tree.n_cliques();
    let shortcuts = (0..n)
        .flat_map(|a| (a..n).map(move |b| (a, b)))
        .map(|(a, b)| {
            let shortcut = Shortcut::from_nodes(tree, engine.rooted(), (a..=b).collect()).unwrap();
            let potential = Some(shortcut.materialize(tree, engine.rooted(), ns).unwrap().0);
            MaterializedShortcut {
                ratio: 1.0,
                benefit: 1.0,
                potential,
                shortcut,
            }
        })
        .collect();
    Materialization::new(shortcuts, true)
}

/// ROADMAP item 8's short write, injected: under a file-size limit the
/// registration epochs save, and a publish whose file exceeds the limit
/// fails to persist (`EFBIG`). The tenant keeps serving that epoch from
/// RAM with answers equal to VE, the failure is counted once and the epoch
/// is not recorded as on disk; the page-out that follows cannot save it
/// either, so it fails, is counted, and the tenant stays resident.
#[cfg(target_os = "linux")]
#[test]
fn a_publish_past_the_disk_limit_keeps_serving_from_ram() {
    let bns = vec![fixtures::chain(8, 20, 5), fixtures::sprinkler()];
    let trees: Vec<JunctionTree> = bns
        .iter()
        .map(|bn| build_junction_tree(bn).unwrap())
        .collect();
    let limit = FLEET_LIMIT_BLOCKS * 512;
    if std::env::var_os(FILE_LIMIT_ENV).is_none() {
        // unlimited: the sizes the child relies on, so that a layout
        // change cannot void the test
        let dir = temp_dir("short-write-sizes");
        let store = StoreConfig::new(&dir);
        let size = |tenant: u32, mat: &Materialization, engine: &QueryEngine<'_>| {
            let slab = engine.numeric_state().unwrap().arena().slab();
            let flat = peanut_core::FlatMaterialization::pack(mat);
            let path = store.save_epoch(tenant, mat, &flat, slab).unwrap();
            std::fs::metadata(path).unwrap().len()
        };
        let engines: Vec<QueryEngine<'_>> = trees
            .iter()
            .zip(&bns)
            .map(|(tree, bn)| QueryEngine::numeric(tree, bn).unwrap())
            .collect();
        let empty = Materialization::default();
        let intervals = every_interval(&trees[0], &engines[0]);
        let sizes = [
            size(0, &empty, &engines[0]),
            size(1, &empty, &engines[1]),
            size(2, &intervals, &engines[0]),
        ];
        assert_eq!(sizes, [23_448, 248, 75_168]);
        assert!(sizes[0] < limit && sizes[1] < limit && sizes[2] > limit);
        let _ = std::fs::remove_dir_all(&dir);
        return under_file_size_limit(
            "a_publish_past_the_disk_limit_keeps_serving_from_ram",
            FLEET_LIMIT_BLOCKS,
        );
    }

    let dir = temp_dir("short-write");
    let store = StoreConfig::new(&dir);
    let mut fleet =
        ShardedServingEngine::new(ShardConfig::default().with_workers(1).with_max_resident(1));
    fleet.set_store(store.clone());
    for (i, (tree, bn)) in trees.iter().zip(&bns).enumerate() {
        let engine = QueryEngine::numeric(tree, bn).unwrap();
        fleet
            .register(TenantId(i as u32), engine, Materialization::default())
            .unwrap();
    }
    let t0 = fleet.tenant(TenantId(0)).unwrap();
    assert_eq!(t0.persisted_epoch(), Some(0), "registration saves");
    assert_eq!(fleet.resident_len(), 1, "tenant 1 is paged out");

    let intervals = every_interval(&trees[0], t0.engine());
    assert_eq!(t0.publish(intervals), 1);
    assert_eq!(t0.persist_errors(), 1);
    assert_eq!(t0.persisted_epoch(), None, "epoch 1 is not on disk");
    assert!(!store.epoch_path(0, 1).exists());
    let leftovers = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().path().extension() == Some("tmp".as_ref()))
        .count();
    assert_eq!(leftovers, 0, "the failed save removed its temp file");

    let batch = random_batch(&bns[0], 16, 9);
    let check = |outcomes: &[ServeOutcome]| {
        for (q, o) in batch.iter().zip(outcomes) {
            let served = o.served().expect("served from RAM");
            assert_eq!(served.epoch, 1);
            let want = common::ve_conditional(&bns[0], &q.targets, &q.evidence);
            assert!(served.potential.max_abs_diff(&want).unwrap() < 1e-9);
        }
    };
    let (outcomes, stats) = fleet.serve_mixed(&tenant0(&batch));
    check(&outcomes);
    assert!(stats.shortcuts_used > 0, "the published shortcuts answer");

    // tenant 1 faults in and tenant 0, the colder one, cannot be saved
    let (_, stats) = fleet.serve_mixed(&[(TenantId(1), batch[0].clone())]);
    assert_eq!(stats.fault_errors, 1, "the failed page-out is counted");
    assert_eq!(fleet.paging_stats().fault_errors, 1);
    assert!(fleet.tenants().iter().any(|(id, _)| *id == TenantId(0)));
    assert_eq!(t0.persist_errors(), 2);
    let (outcomes, _) = fleet.serve_mixed(&tenant0(&batch));
    check(&outcomes);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A page-out parks the calibrated tables' messages, trimmed to the
/// entries it frees (fewer than the memo held here), and a fault-in of the
/// same epoch adopts exactly them:
/// the same trim of an always-resident engine that served the same batch
/// holds as many entries. The next batch answers through them bit for bit
/// like a cold engine.
#[test]
fn a_fault_in_of_the_same_epoch_resumes_its_state_memo() {
    let bns: Vec<BayesianNetwork> = (0..2).map(|i| fixtures::chain(12, 3, 5 + i)).collect();
    let trees: Vec<JunctionTree> = bns
        .iter()
        .map(|bn| build_junction_tree(bn).unwrap())
        .collect();
    let batches: Vec<Vec<ServeRequest>> = bns
        .iter()
        .enumerate()
        .map(|(i, bn)| random_batch(bn, 96, 113 + i as u64))
        .collect();
    let dir = temp_dir("memo-resume");
    let fleet = build_fleet(&trees, &bns, &batches, Some(StoreConfig::new(&dir)), 1);
    let t0 = fleet.tenant(TenantId(0)).unwrap();
    let (first, _) = t0.serve_batch(&batches[0]);
    let (held, _) = t0.engine().memo_usage();
    assert!(held > 0, "test premise: the tables' memo filed messages");
    // what a page-out frees: the calibrated slab and the shortcut tables
    let slab = t0.engine().numeric_state().unwrap().arena().slab().len();
    let budget = slab + t0.materialization().total_size() as usize;
    drop(t0);

    // the same tables, selected on and serving the same batch, never paged
    let engine = QueryEngine::numeric(&trees[0], &bns[0]).unwrap();
    let mat = train_mat(&trees[0], &engine, &batches[0], 256);
    let resident = ServingEngine::new(engine, mat, ServingConfig::default().with_workers(1));
    let (want, _) = resident.serve_batch(&batches[0]);
    for (a, b) in first.iter().zip(&want) {
        assert_eq!(bits(a), bits(b));
    }
    assert_eq!(resident.engine().memo_usage().0, held);

    // touching tenant 1 under a cap of 1 pages tenant 0 out
    fleet.tenant(TenantId(1)).unwrap();
    let before = fleet.paging_stats();
    let t0 = fleet.tenant(TenantId(0)).unwrap();
    let after = fleet.paging_stats();
    assert_eq!(after.faults, before.faults + 1, "tenant 0 faulted in");
    assert_eq!(t0.epoch(), 0);
    let resumed = (after.memo_resumed - before.memo_resumed) as usize;
    assert!(resumed > 0, "test premise: the page-out parked messages");
    assert!(
        resumed <= budget,
        "{resumed} entries parked, {budget} freed"
    );
    assert!(resumed < held, "test premise: the trim drops messages");
    assert_eq!(t0.engine().memo_usage().0, resumed, "adopted as parked");
    let trimmed = resident.engine().take_memo(budget).unwrap();
    assert_eq!(trimmed.usage().0, resumed, "the trim is the resident one's");
    assert_eq!(
        t0.materialization().memo_usage().0,
        0,
        "the materialization's memo starts empty"
    );

    // a new batch, so nothing is cached: it answers through the resumed
    // messages as a cold engine answers without them
    let cold = ServingEngine::new(
        QueryEngine::numeric(&trees[0], &bns[0]).unwrap(),
        (*t0.materialization()).clone(),
        ServingConfig::default().with_workers(1),
    );
    let next = random_batch(&bns[0], 24, 7);
    let (got, _) = t0.serve_batch(&next);
    let (want, _) = cold.serve_batch(&next);
    for (a, b) in got.iter().zip(&want) {
        assert_eq!(bits(a), bits(b));
        let (a, b) = (a.served().unwrap(), b.served().unwrap());
        assert_eq!(a.cost.ops, b.cost.ops);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A publish on a handle held across the page-out makes the fault-in
/// rehydrate a newer epoch: the messages parked with epoch 0 are dropped
/// with its front, and the tables start with an empty memo.
#[test]
fn a_fault_in_of_a_newer_epoch_starts_its_state_memo_empty() {
    let (bns, trees, batches) = two_tenants(127);
    let dir = temp_dir("memo-newer");
    let fleet = build_fleet(&trees, &bns, &batches, Some(StoreConfig::new(&dir)), 1);
    let held = fleet.tenant(TenantId(0)).unwrap();
    held.serve_batch(&batches[0]);
    assert!(
        held.engine().memo_usage().0 > 0,
        "test premise: the tables' memo filed messages"
    );

    fleet.tenant(TenantId(1)).unwrap();
    assert_eq!(fleet.resident_len(), 1, "tenant 0 is paged out");
    let mat = (*held.materialization()).clone();
    assert_eq!(held.publish(mat), 1);
    drop(held);

    let before = fleet.paging_stats();
    let t0 = fleet.tenant(TenantId(0)).unwrap();
    let after = fleet.paging_stats();
    assert_eq!(after.faults, before.faults + 1, "tenant 0 faulted in");
    assert_eq!(t0.epoch(), 1);
    assert_eq!(after.memo_resumed, before.memo_resumed, "nothing resumed");
    assert_eq!(t0.engine().memo_usage().0, 0, "the tables' memo is empty");
    let _ = std::fs::remove_dir_all(&dir);
}

/// With the answer caches off, every repeated request of a capped fleet
/// is computed again, through the messages its page-outs parked and its
/// fault-ins resumed: it answers bit for bit, and at the same count, as
/// an uncapped fleet whose tenants never leave RAM.
#[test]
fn a_capped_fleet_answers_through_resumed_messages_like_an_uncapped_one() {
    let bns = fleet_models(4);
    let trees: Vec<JunctionTree> = bns
        .iter()
        .map(|bn| build_junction_tree(bn).unwrap())
        .collect();
    let batches: Vec<Vec<ServeRequest>> = bns
        .iter()
        .enumerate()
        .map(|(i, bn)| random_batch(bn, 12, 131 + i as u64))
        .collect();
    let dir = temp_dir("memo-replay");
    let uncached = |store: Option<StoreConfig>, max_resident: usize| {
        let mut fleet = ShardedServingEngine::new(
            ShardConfig::default()
                .with_workers(2)
                .with_cache_capacity(0)
                .with_max_resident(max_resident),
        );
        if let Some(store) = store {
            fleet.set_store(store);
        }
        for (i, (tree, bn)) in trees.iter().zip(&bns).enumerate() {
            let engine = QueryEngine::numeric(tree, bn).unwrap();
            let mat = train_mat(tree, &engine, &batches[i], 256);
            fleet.register(TenantId(i as u32), engine, mat).unwrap();
        }
        fleet
    };
    let capped = uncached(Some(StoreConfig::new(&dir)), 1);
    let uncapped = uncached(None, 0);
    for _ in 0..3 {
        for (t, batch) in batches.iter().enumerate() {
            let mixed: Vec<(TenantId, ServeRequest)> = batch
                .iter()
                .map(|q| (TenantId(t as u32), q.clone()))
                .collect();
            let (got, stats) = capped.serve_mixed(&mixed);
            let (want, _) = uncapped.serve_mixed(&mixed);
            assert_eq!(stats.cache_hits, 0, "caching is off");
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(bits(a), bits(b));
                let (a, b) = (a.served().unwrap(), b.served().unwrap());
                assert_eq!(a.cost.ops, b.cost.ops);
            }
        }
    }
    let paging = capped.paging_stats();
    assert!(paging.faults > 0 && paging.page_outs > 0);
    assert!(
        paging.memo_resumed > 0,
        "test premise: fault-ins resumed messages"
    );
    assert_eq!(paging.fault_errors, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `.pnut` files and leftover `.tmp` files of `tenant` in `dir`.
fn files_of(dir: &std::path::Path, tenant: u32) -> (usize, usize) {
    let prefix = format!("tenant{tenant}-");
    let mut counts = (0, 0);
    for entry in std::fs::read_dir(dir).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        if name.starts_with(&prefix) && name.ends_with(".pnut") {
            counts.0 += 1;
        } else if name.ends_with(".tmp") {
            counts.1 += 1;
        }
    }
    counts
}

/// Every publish saves a new epoch file; a page-out unlinks the tenant's
/// older ones. After several publishes and page cycles each tenant holds
/// exactly one `.pnut` file, its newest epoch's, and no `.tmp` file is
/// left.
#[test]
fn a_page_out_leaves_each_tenant_one_epoch_file() {
    let bns = fleet_models(3);
    let trees: Vec<JunctionTree> = bns
        .iter()
        .map(|bn| build_junction_tree(bn).unwrap())
        .collect();
    let batches: Vec<Vec<ServeRequest>> = bns
        .iter()
        .enumerate()
        .map(|(i, bn)| random_batch(bn, 8, 137 + i as u64))
        .collect();
    let dir = temp_dir("one-file");
    let store = StoreConfig::new(&dir);
    let fleet = build_fleet(&trees, &bns, &batches, Some(store.clone()), 1);
    for round in 0..3 {
        for t in 0..3u32 {
            let engine = fleet.tenant(TenantId(t)).unwrap();
            for _ in 0..=round {
                engine.publish((*engine.materialization()).clone());
            }
            let (outcomes, _) = fleet.serve_mixed(&tenant0(&batches[0]));
            assert!(outcomes.iter().all(ServeOutcome::is_served));
        }
    }
    // tenant 0 is resident; touching 1 and then 2 pages it and 1 out
    fleet.tenant(TenantId(1)).unwrap();
    fleet.tenant(TenantId(2)).unwrap();
    fleet.tenant(TenantId(0)).unwrap();
    assert!(fleet.paging_stats().page_outs > 0);
    for t in 0..3u32 {
        let engine = fleet.tenant(TenantId(t)).unwrap();
        assert_eq!(engine.epoch(), 6, "six publishes");
        assert_eq!(files_of(&dir, t), (1, 0), "tenant {t}");
        assert!(store.epoch_path(t, 6).exists());
        assert_eq!(engine.persist_errors(), 0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
