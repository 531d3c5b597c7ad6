//! The materialization lifecycle, end to end: a server whose traffic
//! migrates between two regions of the model, with a re-materialization
//! controller running on a background thread.
//!
//! The junction tree is pivoted mid-chain, so it has two symmetric arms —
//! think of them as two tenant regions of one deployed model. The engine
//! starts with a PEANUT+ materialization trained on region-A traffic. A
//! streaming λ-schedule then ramps arrivals over to region B (the λ-drift
//! of §5.3, Figures 8–9, as a live stream). The controller watches the
//! epoch's observed benefit collapse, re-runs the offline selection on the
//! *observed* query distribution, and hot-publishes the next epoch —
//! serving never pauses, and the new epoch starts with an answer cache of
//! its own.
//!
//! Run with: `cargo run --release --example serving_lifecycle`

use peanut::junction::{build_junction_tree, QueryEngine};
use peanut::materialize::{OfflineContext, Peanut, PeanutConfig, Workload};
use peanut::pgm::{fixtures, Scope};
use peanut::serving::{
    LifecycleConfig, RematerializationController, ServeRequest, ServingConfig, ServingEngine,
};
use peanut::workload::{DriftSchedule, DriftStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const BATCH: usize = 100;
const N_QUERIES: usize = 4000;
const BUDGET: u64 = 4096;

/// Long-range marginals over one arm of the chain: a regional workload
/// whose shortcut potentials are useless for the other arm.
fn region_pool(lo: u32, hi: u32) -> Vec<Scope> {
    [6u32, 8]
        .into_iter()
        .flat_map(|span| (lo..hi - span).map(move |a| Scope::from_indices(&[a, a + span])))
        .collect()
}

fn main() {
    let bn = fixtures::chain(32, 2, 13);
    let mut tree = build_junction_tree(&bn).expect("junction tree");
    // pivot mid-chain: two symmetric arms, both far enough from the pivot
    // for shortcut potentials to pay off equally
    tree.set_pivot(tree.n_cliques() / 2);
    let engine = QueryEngine::numeric(&tree, &bn).expect("calibrates");

    // finite per-region query pools, as in the paper's workload model
    let region_a = region_pool(21, 32);
    let region_b = region_pool(0, 11);

    let train_w = Workload::from_queries(region_a.iter().cloned());
    let ctx = OfflineContext::new(&tree, &train_w).expect("context");
    let (mat, _) = Peanut::offline_numeric(
        &ctx,
        &PeanutConfig::plus(BUDGET),
        engine.numeric_state().expect("numeric"),
    )
    .expect("materializes");
    println!(
        "epoch 0: trained on region-A traffic — {} shortcuts, {} entries",
        mat.len(),
        mat.total_size()
    );

    let serving = ServingEngine::new(engine, mat, ServingConfig::default());
    let mut ctl = RematerializationController::new(
        &serving,
        &train_w,
        LifecycleConfig::new(BUDGET).with_min_window(400),
    );
    println!(
        "reference savings of epoch 0 on its training distribution: {:.1}%\n",
        100.0 * ctl.reference_savings()
    );

    // the served stream ramps from pure region-A to pure region-B traffic
    let schedule = DriftSchedule::Linear {
        from: 1.0,
        to: 0.0,
        over: N_QUERIES / 2,
    };
    let stream: Vec<ServeRequest> = DriftStream::new(&region_a, &region_b, schedule, 7)
        .take(N_QUERIES)
        .map(ServeRequest::marginal)
        .collect();

    println!("  batch  lambda  epoch  window-savings  errors");
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let controller = s.spawn(|| {
            // background worker: observes, re-selects, publishes — the
            // serving thread below never waits on it
            ctl.run(&stop, Duration::from_micros(500))
                .expect("controller")
        });
        for (b, batch) in stream.chunks(BATCH).enumerate() {
            let (answers, stats) = serving.serve_batch(batch);
            let errors = answers.iter().filter(|a| !a.is_served()).count();
            assert_eq!(errors, 0, "serving must stay clean across swaps");
            if b % 5 == 0 {
                let lambda = 1.0 - ((b * BATCH) as f64 / (N_QUERIES / 2) as f64).min(1.0);
                println!(
                    "  {b:>5}  {lambda:>6.2}  {:>5}  {:>13.1}%  {errors:>6}",
                    stats.epoch,
                    100.0 * serving.stats().snapshot().observed_savings(),
                );
            }
            // arrival pacing: a server drains waves, not a tight loop
            std::thread::sleep(Duration::from_millis(2));
        }
        stop.store(true, Ordering::Relaxed);
        controller.join().expect("controller thread")
    });

    println!();
    if ctl.swaps().is_empty() {
        println!("no re-materialization was needed (traffic never drifted far enough)");
    }
    for ev in ctl.swaps() {
        println!(
            "swap -> epoch {}: after {} arrivals the epoch delivered {:.1}% \
             (was selected for {:.1}%); re-selected {} shortcuts / {} entries \
             from {} observed scopes in {:.1?}, expecting {:.1}%",
            ev.epoch,
            ev.at_arrivals,
            100.0 * ev.observed_savings,
            100.0 * ev.reference_savings,
            ev.shortcuts,
            ev.total_size,
            ev.distinct_scopes,
            ev.selection,
            100.0 * ev.new_reference_savings,
        );
    }
    println!(
        "\n{} observation window(s) closed, final epoch {}",
        ctl.windows(),
        serving.epoch()
    );
    // replay the drifted region once more against the final epoch: this is
    // what steady-state traffic looks like after the lifecycle converged
    let tail: Vec<ServeRequest> = region_b
        .iter()
        .cloned()
        .map(ServeRequest::marginal)
        .collect();
    serving.reset_stats();
    serving.serve_batch(&tail);
    let snap = serving.stats().snapshot();
    println!(
        "region-B traffic on the final epoch: {:.1}% savings, {:.0}% shortcut hit rate",
        100.0 * snap.observed_savings(),
        100.0 * snap.shortcut_hit_rate(),
    );
    println!("the migrated traffic is served by shortcuts selected from what was observed —");
    println!("the robustness gap of §5.3 closed at runtime, with no serving pause");
}
