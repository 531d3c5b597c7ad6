//! Multi-tenant sharded serving, end to end: three Bayesian networks
//! behind one endpoint, one shared worker pool, one global
//! materialization budget.
//!
//! Each tenant is its own calibrated junction tree with its own
//! epoch-versioned materialization, observation stats and answer cache —
//! the sharded engine only shares the *workers*. Traffic is a single
//! interleaved arrival stream with Zipf-skewed per-tenant rates. A
//! [`FleetController`] watches all tenants at once and splits the global
//! budget across them by observed benefit (a greedy knapsack over
//! per-tenant candidate shortcut sets, weighted by traffic share). Each
//! tenant's benefit is read in its share of fleet traffic over a ring of
//! three windows, as a single engine's controller reads its own: when one
//! tenant's traffic spikes and stays up, the others' shares — and so
//! their benefit — halve, their rings decay, and the rebalance shifts
//! budget toward the spiking tenant. Only the re-allocated tenants' epochs
//! move; everyone else's caches stay warm.
//!
//! Run with: `cargo run --release --example multi_tenant`

use peanut::junction::{build_junction_tree, QueryEngine};
use peanut::materialize::Materialization;
use peanut::pgm::{fixtures, Scope};
use peanut::serving::{
    replay_mixed, FleetController, LifecycleConfig, ReplayConfig, ServeRequest, ShardConfig,
    ShardedServingEngine, TenantId,
};
use peanut::workload::{tenant_queries, zipf_weights, TenantTraffic};

const N_TENANTS: usize = 3;
const GLOBAL_BUDGET: u64 = 48;
const WINDOW: usize = 1200;

/// A tenant's query pool: long-range pair marginals over its own chain.
fn pool(n_vars: u32) -> Vec<Scope> {
    [5u32, 7]
        .into_iter()
        .flat_map(|span| (0..n_vars - span).map(move |a| Scope::from_indices(&[a, a + span])))
        .collect()
}

fn main() {
    // three distinct models — think three customers' risk networks
    let bns: Vec<_> = (0..N_TENANTS)
        .map(|t| fixtures::chain(22, 2, 31 + 7 * t as u64))
        .collect();
    let trees: Vec<_> = bns
        .iter()
        .map(|bn| build_junction_tree(bn).expect("junction tree"))
        .collect();
    let pools: Vec<Vec<Scope>> = bns.iter().map(|bn| pool(bn.n_vars() as u32)).collect();

    // register every tenant with an *empty* materialization: the fleet
    // controller bootstraps each allocation from observed traffic
    let mut sharded = ShardedServingEngine::new(ShardConfig::default());
    for (t, (tree, bn)) in trees.iter().zip(&bns).enumerate() {
        let engine = QueryEngine::numeric(tree, bn).expect("calibrates");
        sharded
            .register(TenantId(t as u32), engine, Materialization::default())
            .expect("fresh tenant id");
    }
    println!(
        "{} tenants registered behind one endpoint ({} shared workers)\n",
        sharded.len(),
        sharded.workers()
    );

    let mut ctl = FleetController::new(
        &sharded,
        LifecycleConfig::new(GLOBAL_BUDGET).with_min_window(600),
    );

    let serve_window = |weights: &[f64], seed: u64| {
        let tenants: Vec<TenantTraffic> = pools
            .iter()
            .zip(weights)
            .map(|(p, &w)| TenantTraffic::steady(w, p.clone()))
            .collect();
        let arrivals: Vec<(TenantId, ServeRequest)> = tenant_queries(&tenants, WINDOW, seed)
            .into_iter()
            .map(|(t, q)| (TenantId(t as u32), ServeRequest::marginal(q)))
            .collect();
        let cfg = ReplayConfig {
            batch_size: 100,
            ..ReplayConfig::default()
        };
        let (_, report) = replay_mixed(&sharded, &arrivals, None, &cfg);
        assert_eq!(report.errors, 0, "fleet serving must stay clean");
        report
    };
    let print_rebalance = |tag: &str, r: &peanut::serving::FleetRebalance| {
        println!(
            "{tag}: rebalanced {} arrivals -> {} of {GLOBAL_BUDGET} budget entries \
             allocated in {:.1?}",
            r.at_arrivals, r.total_size, r.selection
        );
        for a in &r.allocations {
            println!(
                "  {}: {:>4.0}% of traffic -> {:>2} shortcuts / {:>2} entries, \
                 expecting {:>4.1}% savings{}",
                a.tenant,
                100.0 * a.share,
                a.shortcuts,
                a.budget_used,
                100.0 * a.expected_savings,
                match a.published {
                    Some(e) => format!(", published epoch {e}"),
                    None => String::from(", allocation unchanged"),
                }
            );
        }
        println!();
    };

    // --- phase 1: a Zipf fleet — tenant#0 hot, tenant#2 cold ---
    let weights = zipf_weights(N_TENANTS, 1.0);
    serve_window(&weights, 17);
    let r1 = ctl
        .tick()
        .expect("fleet tick")
        .expect("first full window rebalances (fleet cold start)")
        .clone();
    print_rebalance("phase 1 (Zipf traffic)", &r1);

    // steady traffic: the controller holds, nobody's epoch churns
    serve_window(&weights, 18);
    assert!(ctl.tick().expect("fleet tick").is_none());
    println!("steady window: shares unchanged, controller holds (no republish)\n");

    // --- phase 2: the cold tenant spikes to the top of the fleet ---
    // sustained until the cooling tenants' rings (three windows) decay
    let mut spiked = weights.clone();
    spiked[N_TENANTS - 1] *= 10.0;
    let r2 = (19..22)
        .find_map(|seed| {
            serve_window(&spiked, seed);
            ctl.tick().expect("fleet tick").cloned()
        })
        .expect("the sustained share shift forces a rebalance");
    print_rebalance("phase 2 (tenant#2 spiked)", &r2);

    let alloc = |r: &peanut::serving::FleetRebalance, t: u32| {
        r.allocations
            .iter()
            .find(|a| a.tenant == TenantId(t))
            .map(|a| a.budget_used)
            .unwrap_or(0)
    };
    let (before, after) = (
        alloc(&r1, N_TENANTS as u32 - 1),
        alloc(&r2, N_TENANTS as u32 - 1),
    );
    assert!(
        after > before,
        "the spiking tenant must gain budget ({before} -> {after})"
    );
    println!("the spiking tenant's slice of the global budget grew {before} -> {after} entries;");
    println!("its cache entries from the old epoch die lazily, every other tenant stays warm —");
    println!("one endpoint, many trees, and the budget follows the traffic.");
}
