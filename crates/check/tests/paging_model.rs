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
//! A page-out parks the epoch's answer cache and a fault-in resumes it
//! only when the file it rehydrated is the parked epoch. Invariants:
//!
//! * the resident set is back within the cap once every call returned,
//!   and while calls overlap it exceeds the cap by at most the one slot a
//!   racing fault-in holds until its own call evicts;
//! * a paged-out tenant's newest epoch is on disk;
//! * once every call returned, tenant 0 serves the newest epoch on disk:
//!   a publish the page-out retired is served at the next access;
//! * a resumed cache holds only answers of the engine's own epoch: after
//!   the race, tenant 0 faults in and every answer it serves, cached or
//!   not, is stamped with the epoch it serves.

#![cfg(not(feature = "mutation-lost-wakeup"))]

use peanut_check::{explore, Config};
use peanut_core::sync::{thread, Arc};
use peanut_core::Materialization;
use peanut_junction::{build_junction_tree, JunctionTree, QueryEngine};
use peanut_pgm::{fixtures, BayesianNetwork, Scope};
use peanut_serving::{ServeRequest, ShardConfig, ShardedServingEngine, StoreConfig, TenantId};
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn fault_in_page_out_and_publish_race_under_the_cap() {
    // plain data, shared by every schedule; everything holding a lock,
    // an atomic or a thread is built inside the body
    let bn: &'static BayesianNetwork = Box::leak(Box::new(fixtures::sprinkler()));
    let tree: &'static JunctionTree = Box::leak(Box::new(build_junction_tree(bn).unwrap()));
    let dir = std::env::temp_dir().join(format!("peanut-paging-model-{}", std::process::id()));
    let store = StoreConfig::new(&dir);
    let schedule_dir = dir.clone();
    let q = ServeRequest::marginal(Scope::from_indices(&[0, 2]));
    // schedules whose last fault-in resumed a parked cache the final
    // serve hit, and schedules that left tenant 0 serving an epoch older
    // than the newest on disk (plain std counters the scheduler does not
    // see)
    static RESUMED: AtomicUsize = AtomicUsize::new(0);
    static STALE: AtomicUsize = AtomicUsize::new(0);
    let out = explore(&Config::with_preemption_bound(2), move || {
        // each schedule starts from an empty store
        let _ = std::fs::remove_dir_all(&schedule_dir);
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
            let (fleet, q) = (Arc::clone(&fleet), q.clone());
            thread::spawn(move || {
                let (outcomes, _) = fleet.serve_mixed(&[(TenantId(0), q)]);
                assert!(outcomes[0].is_served());
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

        let faults = fleet.paging_stats().faults;
        let t0 = fleet.tenant(TenantId(0)).unwrap();
        let faulted = fleet.paging_stats().faults > faults;
        let (outcomes, stats) = fleet.serve_mixed(&[(TenantId(0), q.clone())]);
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
    let (resumed, stale) = (
        RESUMED.load(Ordering::Relaxed),
        STALE.load(Ordering::Relaxed),
    );
    assert!(resumed > 0, "some fault-in must resume a parked cache");
    assert_eq!(
        stale, 0,
        "tenant 0 served an epoch older than the store's newest"
    );
    println!(
        "paging race bound=2: {} interleavings ({resumed} resuming a parked cache, {stale} with \
         tenant 0 on an epoch older than the store's newest), longest trail {} decisions",
        report.schedules, report.max_decisions
    );
}
