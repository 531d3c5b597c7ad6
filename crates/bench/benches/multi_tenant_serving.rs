//! Multi-tenant sharded serving acceptance program: N Bayesian networks
//! behind one endpoint, Zipf-skewed per-tenant arrival rates, one shared
//! worker pool.
//!
//! It prints and asserts the fleet acceptance numbers:
//!
//! * serving a recurring mixed arrival stream through the
//!   [`ShardedServingEngine`] beats `N` isolated per-tenant engines run
//!   sequentially (each arrival dispatched alone to its tenant's engine)
//!   by ≥ 1.1× throughput. The floor was 1.3× when the isolated baseline
//!   spawned scoped threads per single-query batch; the persistent-pool
//!   engine serves those on the spawn-free in-thread path (~10× faster
//!   baseline), so the margin on a 1-core host is now thin — the sharded
//!   win left is batching + dedup, not spawn amortization;
//! * the [`FleetController`] reallocates the global materialization budget
//!   toward a tenant whose traffic share doubles mid-run, and the total
//!   allocation never exceeds the global budget;
//! * under an open-loop mixed arrival stream offered at ~3× the fleet's
//!   measured capacity, per-tenant admission caps plus deadline shedding
//!   keep served-query sojourn p99 ≥ 1.5× lower than the unprotected FIFO
//!   baseline's (the `overload_p99_ratio` floor);
//! * zero batch errors throughout.
//!
//! `PEANUT_WORKERS=1,2,4` sweeps the shared pool, same flag as the other
//! serving benches; `--quick` shrinks the run for CI.

use peanut_bench::harness::{is_quick, worker_sweep};
use peanut_core::{Materialization, OfflineContext, Peanut, PeanutConfig, Workload};
use peanut_junction::{build_junction_tree, JunctionTree, QueryEngine};
use peanut_pgm::{fixtures, BayesianNetwork, Scope};
use peanut_serving::{
    replay_mixed, AdmissionConfig, FleetController, FleetRebalance, LifecycleConfig, ReplayConfig,
    ServeRequest, ServingConfig, ServingEngine, ShardConfig, ShardedServingEngine, TenantId,
};
use peanut_workload::{poisson_arrivals, tenant_queries, zipf_weights, TenantTraffic};
use std::time::{Duration, Instant};

const BATCH: usize = 128;

/// Closed-loop replay in [`BATCH`]-query slices.
fn closed_loop() -> ReplayConfig {
    ReplayConfig {
        batch_size: BATCH,
        ..ReplayConfig::default()
    }
}
/// Per-tenant training budget for the throughput study.
const TENANT_BUDGET: u64 = 1024;
/// Global budget the fleet controller splits across tenants. Shortcut
/// tables on these binary chains are small (a few entries each), so a
/// small budget is genuinely contended: the fleet's combined appetite is
/// several times larger, and the knapsack must choose whom to serve.
const GLOBAL_BUDGET: u64 = 64;

fn n_tenants() -> usize {
    if is_quick() {
        4
    } else {
        6
    }
}

fn n_arrivals() -> usize {
    if is_quick() {
        2048
    } else {
        4096
    }
}

/// Passes over the recurring arrival stream (first pass cold, the rest
/// steady-state — a server drains the same hot query pools wave after
/// wave).
const PASSES: usize = 3;

/// Long-range pairs over a band of a tenant's chain: a per-tenant query
/// pool whose shortcuts are useless for every other tenant.
fn band_pool(lo: u32, hi: u32) -> Vec<Scope> {
    [5u32, 7]
        .into_iter()
        .flat_map(|span| (lo..hi - span).map(move |a| Scope::from_indices(&[a, a + span])))
        .collect()
}

struct Setup {
    bns: Vec<BayesianNetwork>,
    trees: Vec<JunctionTree>,
    pools: Vec<Vec<Scope>>,
}

fn setup() -> Setup {
    // distinct models per tenant (different CPT seeds); equal sizes, so
    // the budget study measures traffic shares, not structural advantage
    let bns: Vec<BayesianNetwork> = (0..n_tenants())
        .map(|t| fixtures::chain(24, 2, 13 + 4 * t as u64))
        .collect();
    let trees: Vec<JunctionTree> = bns
        .iter()
        .map(|bn| build_junction_tree(bn).expect("tree"))
        .collect();
    let pools: Vec<Vec<Scope>> = bns
        .iter()
        .map(|bn| band_pool(0, bn.n_vars() as u32))
        .collect();
    Setup { bns, trees, pools }
}

fn trained_mat(tree: &JunctionTree, engine: &QueryEngine<'_>, pool: &[Scope]) -> Materialization {
    let w = Workload::from_queries(pool.iter().cloned());
    let ctx = OfflineContext::new(tree, &w).expect("context");
    Peanut::offline_numeric(
        &ctx,
        &PeanutConfig::plus(TENANT_BUDGET),
        engine.numeric_state().expect("numeric"),
    )
    .expect("materializes")
    .0
}

/// The fleet arrival stream: per-tenant steady pools, Zipf-skewed shares.
fn arrival_stream(
    setup: &Setup,
    weights: &[f64],
    n: usize,
    seed: u64,
) -> Vec<(TenantId, ServeRequest)> {
    let tenants: Vec<TenantTraffic> = setup
        .pools
        .iter()
        .zip(weights)
        .map(|(pool, &w)| TenantTraffic::steady(w, pool.clone()))
        .collect();
    tenant_queries(&tenants, n, seed)
        .into_iter()
        .map(|(t, q)| (TenantId(t as u32), ServeRequest::marginal(q)))
        .collect()
}

fn sharded_engine<'t>(setup: &'t Setup, workers: usize, trained: bool) -> ShardedServingEngine<'t> {
    let mut sharded = ShardedServingEngine::new(ShardConfig::default().with_workers(workers));
    for (t, (tree, bn)) in setup.trees.iter().zip(&setup.bns).enumerate() {
        let engine = QueryEngine::numeric(tree, bn).expect("calibrates");
        let mat = if trained {
            trained_mat(tree, &engine, &setup.pools[t])
        } else {
            Materialization::default()
        };
        sharded
            .register(TenantId(t as u32), engine, mat)
            .expect("fresh id");
    }
    sharded
}

/// The baseline deployment: one isolated engine per tenant, every arrival
/// of the mixed stream dispatched alone (an isolated engine never sees a
/// mixed wave, so there is nothing to batch across) — engines persist
/// across passes, caches warm exactly like the sharded engine's.
fn isolated_engines<'t>(setup: &'t Setup, workers: usize) -> Vec<ServingEngine<'t>> {
    setup
        .trees
        .iter()
        .zip(&setup.bns)
        .enumerate()
        .map(|(t, (tree, bn))| {
            let engine = QueryEngine::numeric(tree, bn).expect("calibrates");
            let mat = trained_mat(tree, &engine, &setup.pools[t]);
            ServingEngine::new(
                engine,
                mat,
                ServingConfig {
                    workers,
                    ..ServingConfig::default()
                },
            )
        })
        .collect()
}

fn main() {
    let setup = setup();
    let workers = *worker_sweep().first().expect("non-empty sweep");
    let weights = zipf_weights(n_tenants(), 1.0);
    let stream = arrival_stream(&setup, &weights, n_arrivals(), 99);

    // --- acceptance: shared pool vs N isolated engines, sequentially ---
    let sharded = sharded_engine(&setup, workers, true);
    let t0 = Instant::now();
    let mut mixed_errors = 0;
    for _ in 0..PASSES {
        let (_, report) = replay_mixed(&sharded, &stream, None, &closed_loop());
        mixed_errors += report.errors;
    }
    let mixed_wall = t0.elapsed();
    assert_eq!(mixed_errors, 0, "sharded serving must be error-free");
    let mixed_qps = (PASSES * stream.len()) as f64 / mixed_wall.as_secs_f64();

    let isolated = isolated_engines(&setup, workers);
    let t0 = Instant::now();
    let mut isolated_errors = 0;
    for _ in 0..PASSES {
        for (tid, q) in &stream {
            let (answers, _) = isolated[tid.0 as usize].serve_batch(std::slice::from_ref(q));
            isolated_errors += answers.iter().filter(|a| !a.is_served()).count();
        }
    }
    let isolated_wall = t0.elapsed();
    assert_eq!(isolated_errors, 0);
    let isolated_qps = (PASSES * stream.len()) as f64 / isolated_wall.as_secs_f64();

    let speedup = mixed_qps / isolated_qps;
    println!(
        "multi_tenant_serving/shared_pool_speedup           {speedup:.2}x  \
         (isolated sequential {isolated_qps:.0} q/s vs sharded {mixed_qps:.0} q/s, \
         {} tenants, {} workers, {} arrivals x {PASSES} passes)",
        n_tenants(),
        sharded.workers(),
        stream.len(),
    );
    // 1.1×, not the original 1.3×: the persistent pool removed the
    // per-batch spawns that made the isolated baseline slow (see the
    // module docs) — on a 1-core host ~1.2–1.9× is the observed band
    assert!(
        speedup >= 1.1,
        "shared-pool mixed-batch serving must beat sequential isolated engines ≥1.1x \
         (got {speedup:.2}x: {mixed_qps:.0} vs {isolated_qps:.0} q/s)"
    );

    // --- acceptance: fleet overload — per-tenant admission + deadline ---
    // the single-tenant saturation study lives in query_serving; here the
    // mixed stream (Zipf shares, one shared pool) is offered at ~3x the
    // fleet's measured closed-loop capacity. The FIFO baseline queues
    // every arrival and its served p99 grows with the backlog; the
    // protected run caps each tenant's backlog (so the hot tenant's flood
    // cannot monopolize the queue) and sheds queries whose wait blew the
    // deadline. Caching is off so recurring pool queries cost real
    // compute in both the capacity probe and the saturated runs.
    let overload_n = if is_quick() { 1024 } else { 2048 };
    let overload_stream = arrival_stream(&setup, &weights, overload_n, 0xaa);
    let fresh_uncached = || {
        let mut sharded = ShardedServingEngine::new(
            ShardConfig::default()
                .with_workers(workers)
                .with_cache_capacity(0),
        );
        for (t, (tree, bn)) in setup.trees.iter().zip(&setup.bns).enumerate() {
            let engine = QueryEngine::numeric(tree, bn).expect("calibrates");
            let mat = trained_mat(tree, &engine, &setup.pools[t]);
            sharded
                .register(TenantId(t as u32), engine, mat)
                .expect("fresh id");
        }
        sharded
    };
    let probe = fresh_uncached();
    let open_cfg = |admission: AdmissionConfig| ReplayConfig {
        batch_size: 32,
        admission,
        ..ReplayConfig::default()
    };
    let (_, capacity) = replay_mixed(
        &probe,
        &overload_stream,
        None,
        &open_cfg(AdmissionConfig::fifo()),
    );
    assert_eq!(capacity.errors, 0);
    let capacity_qps = capacity.throughput_qps;
    drop(probe);
    let schedule = poisson_arrivals(overload_stream.len(), 3.0 * capacity_qps, 0xfeed);
    let deadline = Duration::from_secs_f64(64.0 / capacity_qps);
    let (_, fifo) = replay_mixed(
        &fresh_uncached(),
        &overload_stream,
        Some(&schedule),
        &open_cfg(AdmissionConfig::fifo()),
    );
    let protected = AdmissionConfig {
        max_tenant_backlog: 64,
        ..AdmissionConfig::default().with_deadline(deadline)
    };
    let (_, shed) = replay_mixed(
        &fresh_uncached(),
        &overload_stream,
        Some(&schedule),
        &open_cfg(protected),
    );
    assert_eq!(fifo.errors + shed.errors, 0, "overload runs are error-free");
    assert_eq!(
        fifo.served,
        overload_stream.len(),
        "the FIFO baseline serves everything, just arbitrarily late"
    );
    let p99_ratio = fifo.sojourn_p99.as_secs_f64() / shed.sojourn_p99.as_secs_f64().max(1e-9);
    println!(
        "multi_tenant_serving/overload_p99_ratio            {p99_ratio:.2}x  \
         (fleet capacity {capacity_qps:.0} q/s, offered {:.0} q/s, deadline {deadline:.1?}: \
         fifo p99 {:.1?} all {} served; protected p99 {:.1?}, {} served + {} deadline-shed \
         + {} admission-shed, peak backlog {} vs {})",
        3.0 * capacity_qps,
        fifo.sojourn_p99,
        fifo.served,
        shed.sojourn_p99,
        shed.served,
        shed.shed_deadline,
        shed.shed_admission,
        fifo.peak_backlog,
        shed.peak_backlog,
    );
    assert!(
        p99_ratio >= 1.5,
        "per-tenant admission + deadline shedding must keep fleet served p99 \
         bounded under 3x offered load (got {p99_ratio:.2}x)"
    );

    // --- acceptance: the global budget follows a traffic spike ---
    let fleet = sharded_engine(&setup, workers, false);
    let mut ctl = FleetController::new(
        &fleet,
        LifecycleConfig::new(GLOBAL_BUDGET).with_min_window(512),
    );
    let spike_tenant = n_tenants() - 1; // the coldest tenant of the Zipf fleet
    let serve_phase = |weights: &[f64], seed: u64| {
        let phase = arrival_stream(&setup, weights, 1024, seed);
        let (_, report) = replay_mixed(&fleet, &phase, None, &closed_loop());
        assert_eq!(report.errors, 0, "fleet serving must be error-free");
    };
    serve_phase(&weights, 7);
    let r1 = ctl
        .tick()
        .expect("fleet tick")
        .expect("first window must rebalance")
        .clone();

    // the cold tenant's traffic spikes: its share roughly quadruples
    let mut spiked = weights.clone();
    spiked[spike_tenant] *= 8.0;
    serve_phase(&spiked, 8);
    let r2 = ctl
        .tick()
        .expect("fleet tick")
        .expect("share shift must rebalance")
        .clone();

    let alloc = |r: &FleetRebalance, t: usize| {
        r.allocations
            .iter()
            .find(|a| a.tenant == TenantId(t as u32))
            .map(|a| (a.share, a.budget_used))
            .unwrap_or((0.0, 0))
    };
    let (share_before, budget_before) = alloc(&r1, spike_tenant);
    let (share_after, budget_after) = alloc(&r2, spike_tenant);
    println!(
        "multi_tenant_serving/budget_reallocation           tenant#{spike_tenant} share \
         {:.0}% -> {:.0}%, allocation {budget_before} -> {budget_after} entries \
         (fleet total {} -> {} of {GLOBAL_BUDGET} budget)",
        100.0 * share_before,
        100.0 * share_after,
        r1.total_size,
        r2.total_size,
    );
    for r in [&r1, &r2] {
        assert!(
            r.total_size <= GLOBAL_BUDGET,
            "fleet allocation must respect the global budget"
        );
    }
    assert!(
        share_after > 2.0 * share_before,
        "test premise: the spike must double the tenant's share \
         ({share_before:.2} -> {share_after:.2})"
    );
    assert!(
        budget_after > budget_before,
        "the fleet controller must shift budget toward the spiking tenant \
         ({budget_before} -> {budget_after} entries)"
    );
}
