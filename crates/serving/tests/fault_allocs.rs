//! Allocation guard: a fault-in rebuilds only the tables.
//!
//! A page cycle changes no structure, so a fault-in of the parked epoch
//! rebuilds only what the store file holds: the calibrated slab and the
//! shortcut tables, each decoded once into the `Vec` that serves it. The
//! tree's rooting, its arena layout and the epoch's shortcut structures
//! are kept by the parked front. This binary installs the workspace's
//! counting global allocator (`counting-alloc`) and holds a same-epoch
//! fault-in to at most 60 % of the allocator calls of a cold
//! `StoredEpoch::open` + `rehydrate_engine` of the same file, which builds all of that structure from the tree; when
//! a fault-in was that cold rebuild, the two counts were about equal.
//!
//! Run with `--nocapture` to see both counts.

mod common;

use common::{random_batch, train_mat};
use counting_alloc::{counted, CountingAlloc};
use peanut_core::Materialization;
use peanut_junction::{build_junction_tree, QueryEngine};
use peanut_pgm::fixtures;
use peanut_pgm::generate::{generate_network, DagConfig};
use peanut_serving::{ShardConfig, ShardedServingEngine, TenantId};
use peanut_store::{rehydrate_engine, StoreConfig, StoredEpoch};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn a_same_epoch_fault_in_allocates_a_fraction_of_a_cold_rehydrate() {
    let bn = generate_network(&DagConfig::sparse_binary(124), 7).unwrap();
    let tree = build_junction_tree(&bn).unwrap();
    assert!(tree.n_cliques() >= 100, "{} cliques", tree.n_cliques());
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let budget = tree.total_separator_size() * 2;
    let mat = train_mat(&tree, &engine, &random_batch(&bn, 60, 7), budget);
    let n_shortcuts = mat.shortcuts.len();
    assert!(n_shortcuts >= 20, "{n_shortcuts} shortcuts");

    // tenant 0 is the network under test; tenant 1, a small one, takes
    // the one resident slot whenever tenant 0 is paged out
    let small = fixtures::sprinkler();
    let small_tree = build_junction_tree(&small).unwrap();
    let dir = std::env::temp_dir().join(format!("peanut-fault-allocs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = StoreConfig::new(&dir);
    let mut fleet =
        ShardedServingEngine::new(ShardConfig::default().with_workers(1).with_max_resident(1));
    fleet.set_store(store.clone());
    fleet.register(TenantId(0), engine, mat).unwrap();
    let small_engine = QueryEngine::numeric(&small_tree, &small).unwrap();
    fleet
        .register(TenantId(1), small_engine, Materialization::default())
        .unwrap();

    let cold = || {
        let stored = StoredEpoch::open(&store.epoch_path(0, 0), true).unwrap();
        rehydrate_engine(&tree, &stored).unwrap()
    };
    let cold_calls = counted(cold).1.calls;

    let mut faults = Vec::new();
    for _ in 0..3 {
        // tenant 1 in, tenant 0 out; then tenant 0 back, the same epoch
        fleet.tenant(TenantId(1)).unwrap();
        let faults_before = fleet.paging_stats().faults;
        let (tenant, allocs) = counted(|| fleet.tenant(TenantId(0)));
        let calls = allocs.calls;
        let tenant = tenant.expect("tenant 0 faults in");
        assert_eq!(fleet.paging_stats().faults, faults_before + 1);
        assert_eq!(tenant.epoch(), 0);
        assert_eq!(tenant.materialization().shortcuts.len(), n_shortcuts);
        faults.push(calls);
    }
    println!(
        "{} cliques, {n_shortcuts} shortcuts: same-epoch fault-in {faults:?} allocator calls, \
         cold open + rehydrate_engine {cold_calls}",
        tree.n_cliques()
    );
    assert!(
        faults.iter().all(|&f| f == faults[0]),
        "fault-in allocations vary over page cycles: {faults:?}"
    );
    assert!(
        faults[0] * 10 <= cold_calls * 6,
        "a fault-in made {} allocator calls, a cold rehydrate {cold_calls}",
        faults[0]
    );
    std::fs::remove_dir_all(&dir).ok();
}
