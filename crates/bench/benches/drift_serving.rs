//! Drift-aware serving acceptance program: a long query stream whose
//! distribution drifts away from the training workload (§5.3, Figures
//! 8–9), served by a [`ServingEngine`] with a
//! [`RematerializationController`] running on a background thread.
//!
//! It prints and asserts the lifecycle acceptance numbers:
//!
//! * serving is uninterrupted across the hot swap (zero batch errors);
//! * at least one re-materialization is published automatically;
//! * on the drifted regime, the mean per-query cost after the swap beats
//!   continuing with the stale epoch by ≥ 1.5×.
//!
//! `PEANUT_WORKERS=1,2,4` sweeps the worker-pool size, same flag as
//! `query_serving`.

use peanut_bench::harness::{is_quick, worker_sweep};
use peanut_core::{OfflineContext, Peanut, PeanutConfig, Workload};
use peanut_junction::{build_junction_tree, QueryEngine};
use peanut_pgm::{fixtures, BayesianNetwork, Scope};
use peanut_serving::{
    replay, LifecycleConfig, RematerializationController, ReplayConfig, ServeRequest,
    ServingConfig, ServingEngine,
};
use peanut_workload::{drifting_queries, DriftSchedule};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const BATCH: usize = 128;

/// Closed-loop replay in [`BATCH`]-query slices.
fn closed_loop() -> ReplayConfig {
    ReplayConfig {
        batch_size: BATCH,
        ..ReplayConfig::default()
    }
}
const DRIFT_AT: usize = 512;
const BUDGET: u64 = 4096;

/// Stream length (`--quick` shrinks it — together with a smaller
/// observation window — so the CI bench-smoke job stays fast).
fn n_queries() -> usize {
    if is_quick() {
        2048
    } else {
        4096
    }
}
/// Inter-batch arrival pacing of the live run: the drift study models a
/// server draining waves of traffic, not a tight replay loop — the gap is
/// what lets the background controller observe, re-select and publish
/// while the stream is still flowing.
const BATCH_GAP: Duration = Duration::from_millis(2);

/// Long-range pairs over a variable band: a regional workload whose
/// shortcuts are useless for the other region.
fn band_pool(lo: u32, hi: u32) -> Vec<Scope> {
    [6u32, 8]
        .into_iter()
        .flat_map(|span| (lo..hi - span).map(move |a| Scope::from_indices(&[a, a + span])))
        .collect()
}

struct Setup {
    bn: BayesianNetwork,
    tree: peanut_junction::JunctionTree,
    deep: Vec<Scope>,
    stream: Vec<ServeRequest>,
}

fn setup() -> Setup {
    let bn = fixtures::chain(32, 2, 13);
    let mut tree = build_junction_tree(&bn).expect("tree");
    // pivot mid-chain: the two arms are symmetric, both far enough from
    // the pivot for shortcut potentials to pay off equally — the drift
    // swings traffic from one arm to the other
    tree.set_pivot(tree.n_cliques() / 2);
    let deep = band_pool(21, 32);
    let shallow = band_pool(0, 11);
    // serve the training regime, then switch abruptly to the other region
    let schedule = DriftSchedule::Step {
        before: 1.0,
        after: 0.0,
        at: DRIFT_AT,
    };
    let stream: Vec<ServeRequest> = drifting_queries(&deep, &shallow, &schedule, n_queries(), 77)
        .into_iter()
        .map(ServeRequest::marginal)
        .collect();
    Setup {
        bn,
        tree,
        deep,
        stream,
    }
}

fn trained_engine<'t>(
    setup: &'t Setup,
) -> (QueryEngine<'t>, peanut_core::Materialization, Workload) {
    let engine = QueryEngine::numeric(&setup.tree, &setup.bn).expect("calibrates");
    let train_w = Workload::from_queries(setup.deep.iter().cloned());
    let ctx = OfflineContext::new(&setup.tree, &train_w).expect("context");
    let (mat, _) = Peanut::offline_numeric(
        &ctx,
        &PeanutConfig::plus(BUDGET),
        engine.numeric_state().expect("numeric"),
    )
    .expect("materializes");
    (engine, mat, train_w)
}

fn lifecycle_cfg() -> LifecycleConfig {
    // the ring of three windows must fill with drifted windows inside the
    // post-drift tail, so the quick stream uses a smaller observation
    // window
    LifecycleConfig::new(BUDGET).with_min_window(if is_quick() { 128 } else { 256 })
}

/// Drives the drifting stream with the controller on a background thread.
/// Returns per-batch (epoch, fresh ops, fresh computations, errors) plus
/// the number of swaps.
fn drive_with_lifecycle(
    serving: &ServingEngine<'_>,
    ctl: &mut RematerializationController<'_, '_>,
    stream: &[ServeRequest],
) -> (Vec<(u64, u64, usize, usize)>, usize) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let ctl_handle = s.spawn(|| {
            ctl.run(&stop, Duration::from_micros(500))
                .expect("controller must not fail")
        });
        let mut per_batch = Vec::new();
        for batch in stream.chunks(BATCH) {
            let (answers, stats) = serving.serve_batch(batch);
            let errors = answers.iter().filter(|a| !a.is_served()).count();
            per_batch.push((
                stats.epoch,
                stats.total_ops,
                stats.unique - stats.cache_hits,
                errors,
            ));
            std::thread::sleep(BATCH_GAP);
        }
        // ordering: advisory stop flag — the join on the next line is the
        // real barrier; the controller only needs to notice it eventually.
        stop.store(true, Ordering::Relaxed);
        let swaps = ctl_handle.join().expect("controller thread");
        (per_batch, swaps)
    })
}

fn main() {
    let setup = setup();
    let workers = *worker_sweep().first().expect("non-empty sweep");

    // --- acceptance run: lifecycle on, background controller ---
    let (engine, mat, train_w) = trained_engine(&setup);
    let serving = ServingEngine::new(
        engine,
        mat.clone(),
        ServingConfig {
            workers,
            ..ServingConfig::default()
        },
    );
    let mut ctl = RematerializationController::new(&serving, &train_w, lifecycle_cfg());
    let t0 = Instant::now();
    let (per_batch, swaps) = drive_with_lifecycle(&serving, &mut ctl, &setup.stream);
    let live_wall = t0.elapsed();

    let errors: usize = per_batch.iter().map(|b| b.3).sum();
    assert_eq!(errors, 0, "serving must be uninterrupted across the swap");
    assert!(
        swaps >= 1,
        "drift must trigger an automatic re-materialization"
    );

    // drifted regime only, split by the epoch each batch was served under
    let drift_batches = &per_batch[DRIFT_AT / BATCH..];
    let stale: Vec<_> = drift_batches.iter().filter(|b| b.0 == 0).collect();
    let fresh: Vec<_> = drift_batches.iter().filter(|b| b.0 >= 1).collect();
    assert!(
        !fresh.is_empty(),
        "the swap must land while the drifted regime is still being served"
    );
    let mean = |bs: &[&(u64, u64, usize, usize)]| -> f64 {
        let ops: u64 = bs.iter().map(|b| b.1).sum();
        let computed: usize = bs.iter().map(|b| b.2).sum();
        ops as f64 / computed.max(1) as f64
    };
    let fresh_cost = mean(&fresh);

    // --- control run: same drifted traffic, stale epoch kept forever ---
    let (engine2, mat2, _) = trained_engine(&setup);
    let stale_engine = ServingEngine::new(
        engine2,
        mat2,
        ServingConfig {
            workers,
            ..ServingConfig::default()
        },
    );
    let drift_tail = &setup.stream[DRIFT_AT..];
    let (_, stale_report) = replay(&stale_engine, drift_tail, None, &closed_loop());
    assert_eq!(stale_report.errors, 0);
    let stale_cost = stale_report.total_ops as f64 / stale_report.computed().max(1) as f64;

    let improvement = stale_cost / fresh_cost.max(1.0);
    println!(
        "drift_serving/swap_improvement                     {improvement:.2}x  \
         (stale {stale_cost:.0} ops/q vs post-swap {fresh_cost:.0} ops/q, \
         {swaps} swap(s), {} stale-epoch and {} fresh-epoch drifted batches, \
         {} workers, live run {live_wall:.2?})",
        stale.len(),
        fresh.len(),
        serving.workers(),
    );
    for ev in ctl.swaps() {
        println!(
            "drift_serving/swap@{:<6} epoch {} observed {:.1}% -> expected {:.1}% \
             ({} shortcuts, {} entries, selection {:.2?})",
            ev.at_arrivals,
            ev.epoch,
            100.0 * ev.observed_savings,
            100.0 * ev.new_reference_savings,
            ev.shortcuts,
            ev.total_size,
            ev.selection,
        );
    }
    assert!(
        improvement >= 1.5,
        "re-materialization must improve drifted-workload cost ≥1.5x \
         (got {improvement:.2}x: stale {stale_cost:.0} vs fresh {fresh_cost:.0})"
    );
}
