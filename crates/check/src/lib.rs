//! Model-check harness for the serving stack's concurrency protocols.
//!
//! This crate compiles `peanut-core` and `peanut-serving` with the
//! `model-check` feature, which swaps the [`peanut_core::sync`] facade
//! from std-backed primitives to the instrumented shims of the vendored
//! [`interleave`] explorer. The real production code — the
//! [`WorkerPool`]'s
//! submit/park/claim/panic-reraise/join-on-drop protocol, and the epoch
//! swap the serving engines perform under an `RwLock` while waves drain —
//! then runs under a deterministic scheduler that enumerates thread
//! interleavings (preemption-bounded, CHESS-style) or samples them from a
//! replayable seed.
//!
//! The tests live in `tests/`:
//!
//! * `pool_model.rs` — exhaustively drives the pool protocol on small
//!   configurations and asserts every interleaving completes with the
//!   right counts (and prints how many interleavings that covered);
//! * `lane_model.rs` — the two priority lanes racing each other in the
//!   production shape: a re-selection thread blocked in
//!   `Executor::run_tasks` (remat lane) against `run_wave` (serving
//!   lane), the mid-wave yield, and panic re-raise on the remat waiter;
//! * `epoch_model.rs` — a distilled epoch-swap-during-wave: concurrent
//!   `publish` (write lock) against pool tasks taking epoch snapshots
//!   (read lock), asserting snapshots are never torn; then the real
//!   `ServingEngine::serve_batch` — the one serve pipeline, fanned out
//!   over two workers — racing a `publish`, asserting the batch is served
//!   whole under one epoch and older-epoch cache entries never serve;
//!   and a `WorkloadStats` snapshot racing a batch's `record`, asserting
//!   the window's totals are never torn;
//! * `paging_model.rs` — the real `ShardedServingEngine` with a store and
//!   a resident-set cap of 1: a mixed batch, a fault-in that pages the
//!   other tenant out, and a publish on a held engine race, asserting the
//!   cap holds once the calls return, a paged-out epoch is on disk, and a
//!   cache resumed at fault-in serves only answers of its engine's epoch;
//! * `mutation.rs` (feature `mutation-lost-wakeup`) — re-introduces a
//!   seeded lost-wakeup ordering bug in the pool's enqueue and proves the
//!   checker catches it as a deadlock, deterministically replayable by
//!   seed.
//!
//! Everything a model body touches must be constructed *inside* the body
//! closure (fresh pool, fresh locks per schedule) and be deterministic —
//! see the `interleave` crate docs for the full rules.

pub use interleave::{explore, explore_random, replay_plan, replay_seed, Config, Outcome};

use peanut_core::exec::Executor;
use peanut_core::sync::atomic::{AtomicUsize, Ordering};
use peanut_core::sync::{thread, Arc};
use peanut_serving::{Lane, WorkerPool};

/// Builds a pool with `workers` workers inside a model body, runs one
/// wave of `total` counting tasks, asserts each index ran exactly once,
/// and drops the pool (joining every worker). The smallest complete pass
/// through the submit/park/claim/join-on-drop protocol.
pub fn pool_counting_wave(workers: usize, total: usize) {
    let pool = WorkerPool::new(workers);
    let hits: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
    pool.run_wave(total, &|i, _scratch| {
        // ordering: every Relaxed below is a hit counter in a model run —
        // the scheduler is sequentially consistent anyway, and Relaxed
        // mirrors what production counters use.
        hits[i].fetch_add(1, Ordering::Relaxed);
    });
    for (i, h) in hits.iter().enumerate() {
        assert_eq!(
            h.load(Ordering::Relaxed),
            1,
            "task {i} must run exactly once"
        );
    }
    let stats = pool.stats();
    assert_eq!(stats.tasks, total as u64, "claimed-task count");
    assert_eq!(stats.waves, 1);
    assert_eq!(
        stats.lane_waves[Lane::Serving.index()],
        1,
        "run_wave rides the serving lane"
    );
    drop(pool); // join-on-drop: must complete under every interleaving
}

/// One full pass through the two-lane protocol inside a model body, in
/// the shape production has: a re-selection thread blocked in
/// [`Executor::run_tasks`] (remat lane) races a blocking serving wave for
/// the same workers, then the pool is dropped. Asserts both waves complete
/// with exact task counts on their own lanes under every interleaving —
/// the mid-wave lane yield (the advisory occupancy mask) may or may not
/// fire depending on the schedule, and must be invisible to completion
/// either way.
pub fn lane_roundtrip(workers: usize, serving_tasks: usize, remat_tasks: usize) {
    let pool = Arc::new(WorkerPool::new(workers));
    // ordering: every Relaxed below is a model-run hit counter; the
    // scheduler is sequentially consistent anyway.
    let reselect = {
        let pool = Arc::clone(&pool);
        thread::spawn(move || {
            let hits = AtomicUsize::new(0);
            pool.run_tasks(remat_tasks, &|_i| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(
                hits.load(Ordering::Relaxed),
                remat_tasks,
                "the remat wave must fully complete when run_tasks returns"
            );
        })
    };
    let sv_hits = AtomicUsize::new(0);
    pool.run_wave(serving_tasks, &|_i, _scratch| {
        sv_hits.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(
        sv_hits.load(Ordering::Relaxed),
        serving_tasks,
        "the serving wave must fully complete when run_wave returns"
    );
    reselect.join().unwrap();
    let stats = pool.stats();
    assert_eq!(stats.tasks, (serving_tasks + remat_tasks) as u64);
    assert_eq!(
        stats.lane_waves[Lane::Serving.index()],
        u64::from(serving_tasks > 0)
    );
    assert_eq!(
        stats.lane_waves[Lane::Remat.index()],
        u64::from(remat_tasks > 0)
    );
    drop(pool); // last Arc: join-on-drop under every interleaving
}
