//! Model checking cold-tenant paging on the real sharded engine.
//!
//! A two-tenant `ShardedServingEngine` with a store in a temp directory
//! and a resident-set cap of 1 runs three calls at once:
//!
//! * a `serve_mixed` batch for tenant 0, which may fault it in;
//! * `tenant(1)`, which faults tenant 1 in and so pages tenant 0 out;
//! * a `publish` on an engine handle of tenant 0 taken before the race,
//!   so it may land before, during or after tenant 0's page-out.
//!
//! A page-out parks the epoch's answer cache and the calibrated tables'
//! messages, and a fault-in resumes them only when the file it rehydrated
//! is the parked epoch. Invariants:
//!
//! * the resident set is back within the cap once every call returned,
//!   and while calls overlap it exceeds the cap by at most the one slot a
//!   racing fault-in holds until its own call evicts;
//! * a paged-out tenant's newest epoch is on disk;
//! * once every call returned, tenant 0 serves the newest epoch on disk:
//!   a publish the page-out retired is served at the next access;
//! * a resumed cache holds only answers of the engine's own epoch: after
//!   the race, tenant 0 faults in and every answer it serves, cached or
//!   not, is stamped with the epoch it serves;
//! * the tables' memo is re-attached only with its epoch's front: when
//!   the fault-in after the race resumed messages, the engine holds
//!   exactly those, and its observation window is the parked one (every
//!   engine of tenant 0 that serves epoch 1 has counted an arrival by
//!   then, and a fresh window has not);
//! * every answer tenant 0 serves, during the race and after it, through
//!   resumed messages or not, is bit-identical to a cold engine's;
//! * the batch reports only the fault-ins and page-outs it made itself,
//!   at most one of each, whatever the pager does meanwhile.

#![cfg(not(feature = "mutation-lost-wakeup"))]

use peanut_check::{explore, Config};
use peanut_core::sync::{thread, Arc};
use peanut_core::Materialization;
use peanut_junction::{build_junction_tree, JunctionTree, QueryEngine};
use peanut_pgm::{fixtures, BayesianNetwork, Scope};
use peanut_serving::{
    ServeOutcome, ServeRequest, ServingConfig, ServingEngine, ShardConfig, ShardedServingEngine,
    StoreConfig, TenantId,
};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The bits of a served answer.
fn bits(outcome: &ServeOutcome) -> Vec<u64> {
    let served = outcome.served().expect("served");
    served
        .potential
        .values()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

#[test]
fn fault_in_page_out_and_publish_race_under_the_cap() {
    // plain data, shared by every schedule; everything holding a lock,
    // an atomic or a thread is built inside the body. A chain, so that
    // the request's pass over three-valued cliques files messages in the
    // tables' memo
    let bn: &'static BayesianNetwork = Box::leak(Box::new(fixtures::chain(6, 3, 5)));
    let tree: &'static JunctionTree = Box::leak(Box::new(build_junction_tree(bn).unwrap()));
    let dir = std::env::temp_dir().join(format!("peanut-paging-model-{}", std::process::id()));
    let store = StoreConfig::new(&dir);
    let schedule_dir = dir.clone();
    let q = ServeRequest::marginal(Scope::from_indices(&[0, 5]));
    // schedules whose last fault-in resumed a parked cache the final
    // serve hit, schedules whose last fault-in resumed parked messages,
    // and schedules that left tenant 0 serving an epoch older than the
    // newest on disk (plain std counters the scheduler does not see)
    static RESUMED: AtomicUsize = AtomicUsize::new(0);
    static MESSAGES: AtomicUsize = AtomicUsize::new(0);
    static STALE: AtomicUsize = AtomicUsize::new(0);
    let out = explore(&Config::with_preemption_bound(2), move || {
        // each schedule starts from an empty store
        let _ = std::fs::remove_dir_all(&schedule_dir);
        // what a cold engine answers, on one thread
        let cold = {
            let engine = QueryEngine::numeric(tree, bn).unwrap();
            let cfg = ServingConfig::default().with_workers(1);
            let serving = ServingEngine::new(engine, Materialization::default(), cfg);
            let (outcomes, _) = serving.serve_batch(std::slice::from_ref(&q));
            assert!(serving.engine().memo_usage().held > 0, "the request files");
            bits(&outcomes[0])
        };
        let mut fleet =
            ShardedServingEngine::new(ShardConfig::default().with_workers(1).with_max_resident(1));
        fleet.set_store(store.clone());
        for t in 0..2 {
            let engine = QueryEngine::numeric(tree, bn).unwrap();
            fleet
                .register(TenantId(t), engine, Materialization::default())
                .unwrap();
        }
        // taking tenant 0's handle pages tenant 1 out
        let held = fleet.tenant(TenantId(0)).unwrap();
        let fleet = Arc::new(fleet);
        assert_eq!(fleet.resident_len(), 1);

        let server = {
            let (fleet, q, cold) = (Arc::clone(&fleet), q.clone(), cold.clone());
            thread::spawn(move || {
                let (outcomes, stats) = fleet.serve_mixed(&[(TenantId(0), q)]);
                assert_eq!(bits(&outcomes[0]), cold);
                // the batch is charged only what it made: its one
                // tenant's fault-in, and the one page-out that brings
                // the fleet back under the cap
                assert!(
                    stats.faults <= 1 && stats.counters.page_outs <= 1,
                    "charged {} faults, {} page-outs",
                    stats.faults,
                    stats.counters.page_outs
                );
                assert!(fleet.resident_len() <= 2, "one racing fault-in at most");
            })
        };
        let pager = {
            let fleet = Arc::clone(&fleet);
            thread::spawn(move || {
                assert!(fleet.tenant(TenantId(1)).is_some());
                assert!(fleet.resident_len() <= 2, "one racing fault-in at most");
            })
        };
        assert_eq!(held.publish(Materialization::default()), 1);
        assert_eq!(held.persisted_epoch(), Some(1), "the publish persisted");
        // the handle's epoch 1 counts an arrival, parked or not
        let (outcomes, _) = held.serve_batch(std::slice::from_ref(&q));
        assert_eq!(bits(&outcomes[0]), cold);
        server.join().unwrap();
        pager.join().unwrap();

        assert!(fleet.resident_len() <= 1, "the cap holds once calls return");
        let resident: Vec<TenantId> = fleet.tenants().into_iter().map(|(id, _)| id).collect();
        for (t, newest) in [(0, 1), (1, 0)] {
            if !resident.contains(&TenantId(t)) {
                assert!(
                    store.epoch_path(t, newest).exists(),
                    "paged-out tenant#{t}'s newest epoch is on disk"
                );
            }
        }

        let before = fleet.counters();
        let t0 = fleet.tenant(TenantId(0)).unwrap();
        let after = fleet.counters();
        let faulted = after.faults > before.faults;
        let resumed = after.memo_resumed - before.memo_resumed;
        if faulted {
            assert_eq!(
                t0.engine().memo_usage().held as u64,
                resumed,
                "the tables hold exactly the messages resumed"
            );
            if resumed > 0 {
                assert!(
                    t0.stats().snapshot().queries > 0,
                    "messages re-attached without their epoch's front"
                );
                MESSAGES.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            assert_eq!(resumed, 0, "no fault-in, nothing resumed");
        }
        let (outcomes, stats) = fleet.serve_mixed(&[(TenantId(0), q.clone())]);
        assert_eq!(bits(&outcomes[0]), cold);
        let served = outcomes[0].served().expect("served");
        assert_eq!(
            served.epoch,
            t0.epoch(),
            "a cached answer of another epoch was served"
        );
        assert_eq!(stats.per_tenant[0].1.epoch, t0.epoch());
        if faulted && served.from_cache {
            RESUMED.fetch_add(1, Ordering::Relaxed);
        }
        if t0.epoch() < 1 {
            STALE.fetch_add(1, Ordering::Relaxed);
        }
        assert!(fleet.resident_len() <= 1);
    });
    let _ = std::fs::remove_dir_all(&dir);
    let report = out.assert_pass();
    assert!(report.complete, "bounded space must be fully enumerated");
    let (resumed, messages, stale) = (
        RESUMED.load(Ordering::Relaxed),
        MESSAGES.load(Ordering::Relaxed),
        STALE.load(Ordering::Relaxed),
    );
    assert!(resumed > 0, "some fault-in must resume a parked cache");
    assert!(messages > 0, "some fault-in must resume parked messages");
    assert_eq!(
        stale, 0,
        "tenant 0 served an epoch older than the store's newest"
    );
    println!(
        "paging race bound=2: {} interleavings ({resumed} resuming a parked cache, {messages} \
         resuming parked messages, {stale} with tenant 0 on an epoch older than the store's \
         newest), longest trail {} decisions",
        report.schedules, report.max_decisions
    );
}
