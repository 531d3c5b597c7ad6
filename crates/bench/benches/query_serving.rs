//! Serving-path acceptance program: batched concurrent query serving vs
//! the single-threaded per-query loop, on the same calibrated +
//! materialized tree and the same workload mix.
//!
//! It prints an explicit `serving_speedup_cold` line (batched throughput /
//! single-thread-loop throughput): the batched path must win through
//! in-batch coalescing and scratch reuse even on one core, and
//! additionally through the worker pool on multi-core hosts. A `steady`
//! line per swept worker count reports the same stream replayed on the
//! now-warm engine (the row the CI worker sweep archives).
//!
//! A second, open-loop, study saturates the engine: a Poisson arrival
//! process offers ~3× the measured closed-loop capacity, and served-query
//! sojourn p99 is compared between the unprotected FIFO baseline (backlog
//! grows without bound, every answer arrives arbitrarily late) and
//! deadline shedding (queries whose queueing wait blew the budget are
//! shed, keeping p99 near the deadline).
//!
//! Both ratios are asserted at two workers (`PEANUT_WORKERS=2`, what CI
//! runs): cold batched serving ≥ 2× the loop, FIFO p99 ≥ 2× the shed p99.

use peanut_bench::harness::{is_quick, worker_sweep};
use peanut_core::{OfflineContext, OnlineEngine, Peanut, PeanutConfig, Workload};
use peanut_junction::{build_junction_tree, JunctionTree, QueryEngine, RootedTree};
use peanut_pgm::{fixtures, BayesianNetwork};
use peanut_serving::{
    replay, AdmissionConfig, ReplayConfig, ServeRequest, ServingConfig, ServingEngine,
};
use peanut_workload::{poisson_arrivals, workload_queries, QuerySpec, WorkloadMix};
use std::time::{Duration, Instant};

const BATCH: usize = 128;
/// Dispatch quantum of the open-loop saturation study: small enough that
/// the deadline check runs often, large enough to keep the pool fed.
const OVERLOAD_BATCH: usize = 32;

/// Arrival count for the open-loop saturation study (longer than the
/// closed-loop stream: the FIFO collapse needs time to accumulate).
fn overload_n() -> usize {
    if is_quick() {
        1024
    } else {
        2048
    }
}

/// Stream length (`--quick` shrinks it so the CI bench-smoke job finishes
/// in minutes).
fn n_queries() -> usize {
    if is_quick() {
        256
    } else {
        512
    }
}

fn pool_size() -> usize {
    if is_quick() {
        48
    } else {
        96
    }
}

struct Setup {
    bn: BayesianNetwork,
    tree: JunctionTree,
}

fn setup() -> Setup {
    let bn = fixtures::chain(26, 2, 13);
    let tree = build_junction_tree(&bn).expect("tree");
    Setup { bn, tree }
}

fn queries_for(tree: &JunctionTree) -> Vec<ServeRequest> {
    let rooted = RootedTree::new(tree);
    let mix = WorkloadMix {
        spec: QuerySpec {
            min_vars: 1,
            max_vars: 4,
        },
        pool_size: pool_size(),
        ..WorkloadMix::default()
    };
    workload_queries(tree, &rooted, n_queries(), &mix, 99)
}

fn materialized_engine<'t>(
    setup: &'t Setup,
    queries: &[ServeRequest],
) -> (QueryEngine<'t>, peanut_core::Materialization) {
    let engine = QueryEngine::numeric(&setup.tree, &setup.bn).expect("calibrates");
    let train: Vec<peanut_pgm::Scope> = queries.iter().map(ServeRequest::stat_scope).collect();
    let ctx = OfflineContext::new(&setup.tree, &Workload::from_queries(train)).expect("context");
    let (mat, _) = Peanut::offline_numeric(
        &ctx,
        &PeanutConfig::plus(4096),
        engine.numeric_state().expect("numeric"),
    )
    .expect("materializes");
    (engine, mat)
}

/// The baseline a non-serving caller runs: one query at a time, in order,
/// no coalescing, no scratch carry-over.
fn single_thread_loop(online: &OnlineEngine<'_, '_>, queries: &[ServeRequest]) -> usize {
    let mut answered = 0;
    for q in queries {
        let ok = if q.is_marginal() {
            online.answer(&q.targets).is_ok()
        } else {
            online.conditional(&q.targets, &q.evidence).is_ok()
        };
        answered += usize::from(ok);
    }
    answered
}

fn main() {
    let setup = setup();
    let queries = queries_for(&setup.tree);
    let (engine, mat) = materialized_engine(&setup, &queries);
    let engine = std::sync::Arc::new(engine);
    let mat = std::sync::Arc::new(mat);
    let online = OnlineEngine::new(&engine, &mat);
    let closed = ReplayConfig {
        batch_size: BATCH,
        ..ReplayConfig::default()
    };

    // explicit acceptance measurement, cache-cold: a fresh engine drains
    // the full stream once vs the same stream through the per-query loop.
    // PEANUT_WORKERS=1,2,4 sweeps the pool size (the multi-core scaling
    // study); unset means one worker per core.
    let t = Instant::now();
    let answered = single_thread_loop(&online, &queries);
    let loop_time = t.elapsed();
    assert_eq!(answered, queries.len());
    let loop_qps = queries.len() as f64 / loop_time.as_secs_f64();
    for workers in worker_sweep() {
        let cold = ServingEngine::from_shared(
            engine.clone(),
            mat.clone(),
            ServingConfig {
                workers,
                ..ServingConfig::default()
            },
        );
        let (_, report) = replay(&cold, &queries, None, &closed);
        assert_eq!(report.errors, 0);
        let speedup = report.throughput_qps / loop_qps;
        println!(
            "query_serving/serving_speedup_cold_w{:<2}             {:.2}x  \
             (loop {:.0} q/s vs batched {:.0} q/s, {} workers, {} computed of {} queries, \
             p50 {:?} p99 {:?})",
            cold.workers(),
            speedup,
            loop_qps,
            report.throughput_qps,
            cold.workers(),
            report.computed(),
            report.queries,
            report.latency_p50,
            report.latency_p99,
        );
        if cold.workers() == 2 {
            assert!(
                speedup >= 2.0,
                "cold batched serving must beat the per-query loop ≥2x at 2 \
                 workers (got {speedup:.2}x)"
            );
        }
        // steady state: the engine (and its answer cache) persists across
        // arrival waves in a server, so the same stream again is served
        // warm
        let (_, steady) = replay(&cold, &queries, None, &closed);
        assert_eq!(steady.errors, 0);
        println!(
            "query_serving/steady_w{:<2}                           {:.0} q/s  \
             ({} queries in {:.2?}, {} cache hits of {} unique)",
            cold.workers(),
            steady.throughput_qps,
            steady.queries,
            steady.wall,
            steady.cache_hits,
            steady.unique,
        );
    }

    // --- open-loop saturation acceptance: deadline shedding vs FIFO ---
    // closed-loop replay can never overload the engine (the next batch is
    // offered only once the previous one finished), so first measure the
    // engine's drain capacity closed-loop, then offer ~3x that rate as a
    // Poisson arrival process. Under the unprotected FIFO baseline the
    // backlog grows without bound and queueing delay leaks into every
    // served query's sojourn; with a deadline the driver sheds queries
    // whose wait already blew the budget, spending the same capacity only
    // on answers a client is still waiting for. The acceptance metric is
    // the ratio fifo_p99 / shed_p99 of *served*-query sojourns.
    let overload_queries = {
        let rooted = RootedTree::new(&setup.tree);
        let mix = WorkloadMix {
            spec: QuerySpec {
                min_vars: 1,
                max_vars: 4,
            },
            pool_size: pool_size(),
            ..WorkloadMix::default()
        };
        workload_queries(&setup.tree, &rooted, overload_n(), &mix, 7)
    };
    let open_cfg = |admission: AdmissionConfig| ReplayConfig {
        batch_size: OVERLOAD_BATCH,
        admission,
        ..ReplayConfig::default()
    };
    for workers in worker_sweep() {
        // caching off: a repeated pool query must cost real compute, both
        // in the capacity measurement and under saturation
        let fresh = || {
            ServingEngine::from_shared(
                engine.clone(),
                mat.clone(),
                ServingConfig {
                    workers,
                    cache_capacity: 0,
                },
            )
        };
        let probe = fresh();
        let (_, capacity) = replay(
            &probe,
            &overload_queries,
            None,
            &open_cfg(AdmissionConfig::fifo()),
        );
        assert_eq!(capacity.errors, 0);
        let capacity_qps = capacity.throughput_qps;
        let n_workers = probe.workers();
        drop(probe);
        let schedule = poisson_arrivals(overload_queries.len(), 3.0 * capacity_qps, 0xbeef);
        let deadline = Duration::from_secs_f64(64.0 / capacity_qps);
        let (_, fifo) = replay(
            &fresh(),
            &overload_queries,
            Some(&schedule),
            &open_cfg(AdmissionConfig::fifo()),
        );
        let (_, shed) = replay(
            &fresh(),
            &overload_queries,
            Some(&schedule),
            &open_cfg(AdmissionConfig::default().with_deadline(deadline)),
        );
        assert_eq!(fifo.errors + shed.errors, 0, "overload runs are error-free");
        assert_eq!(
            fifo.served,
            overload_queries.len(),
            "the FIFO baseline serves everything, just arbitrarily late"
        );
        let ratio = fifo.sojourn_p99.as_secs_f64() / shed.sojourn_p99.as_secs_f64().max(1e-9);
        println!(
            "query_serving/overload_p99_ratio_w{:<2}              {ratio:.2}x  \
             (capacity {capacity_qps:.0} q/s, offered {:.0} q/s, deadline {deadline:.1?}: \
             fifo p99 {:.1?} all {} served; shed p99 {:.1?}, {} served + {} deadline-shed, \
             peak backlog {})",
            n_workers,
            3.0 * capacity_qps,
            fifo.sojourn_p99,
            fifo.served,
            shed.sojourn_p99,
            shed.served,
            shed.shed_deadline,
            shed.peak_backlog,
        );
        if n_workers == 2 {
            assert!(
                ratio >= 2.0,
                "deadline shedding must keep served p99 bounded while FIFO \
                 collapses under 3x offered load (got {ratio:.2}x)"
            );
        }
    }
}
