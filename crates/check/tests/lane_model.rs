//! Model checking the pool's two priority lanes.
//!
//! Every test drives the *production* `WorkerPool` through the vendored
//! `interleave` scheduler in the shape production uses it: a re-selection
//! thread blocked in `Executor::run_tasks` (remat lane) racing
//! `run_wave` (serving lane) for the same workers. The properties pinned
//! down here:
//!
//! * both blocking submitters return under every interleaving, each wave
//!   counted on its own lane with exact task counts;
//! * the mid-wave lane yield (workers re-check the advisory occupancy
//!   mask between task claims) is invisible to completion — a yielded
//!   wave is always finished eventually, never lost or double-run;
//! * a task panic inside a remat wave is re-raised on the thread blocked
//!   in `run_tasks` — not on the serving submitter — and the pool
//!   survives it.

#![cfg(not(feature = "mutation-lost-wakeup"))]

use peanut_check::{explore, explore_random, Config};
use peanut_core::exec::Executor;
use peanut_core::sync::atomic::{AtomicUsize, Ordering};
use peanut_core::sync::{thread, Arc};
use peanut_serving::{Lane, WorkerPool};
use std::panic::{catch_unwind, AssertUnwindSafe};

#[test]
fn remat_waiter_racing_a_serving_wave_is_exhaustive_at_bound_2() {
    let out = explore(&Config::with_preemption_bound(2), || {
        peanut_check::lane_roundtrip(1, 1, 1);
    });
    let report = out.assert_pass();
    assert!(
        report.complete,
        "the bounded space must be fully enumerated"
    );
    assert!(
        report.schedules > 50,
        "suspiciously small interleaving space: {}",
        report.schedules
    );
    println!(
        "lane 1w serving-vs-remat bound=2: {} interleavings, longest trail {} decisions",
        report.schedules, report.max_decisions
    );
}

#[test]
fn one_worker_yields_a_two_task_remat_wave_mid_wave_at_bound_1() {
    // one worker, a two-task remat wave and a serving wave: in the
    // schedules where serving lands after the first remat claim, the
    // worker leaves the wave queued, serves, and returns to finish it
    let out = explore(&Config::with_preemption_bound(1), || {
        peanut_check::lane_roundtrip(1, 1, 2);
    });
    let report = out.assert_pass();
    assert!(report.complete);
    println!(
        "lane 1w/1s+2r bound=1: {} interleavings, longest trail {} decisions",
        report.schedules, report.max_decisions
    );
}

#[test]
fn panic_reraises_on_the_remat_waiter_under_every_interleaving() {
    let out = explore(&Config::with_preemption_bound(1), || {
        let pool = Arc::new(WorkerPool::new(1));
        let reselect = {
            let pool = Arc::clone(&pool);
            thread::spawn(move || {
                catch_unwind(AssertUnwindSafe(|| {
                    pool.run_tasks(1, &|_i| panic!("injected model panic"));
                }))
                .is_err()
            })
        };
        // the serving submitter races the panicking wave and must not
        // see its payload
        pool.run_wave(1, &|_i, _scratch| {});
        let blown = reselect.join().unwrap();
        assert!(blown, "the remat waiter must see the re-raised panic");
        assert_eq!(pool.stats().panics, 1);
        // the worker survived the unwind and still serves
        pool.run_wave(1, &|_i, _scratch| {});
        let stats = pool.stats();
        assert_eq!(stats.lane_waves[Lane::Serving.index()], 2);
        assert_eq!(stats.lane_waves[Lane::Remat.index()], 1);
    });
    let report = out.assert_pass();
    assert!(report.complete);
    println!(
        "lane remat panic-reraise bound=1: {} interleavings",
        report.schedules
    );
}

#[test]
fn random_sampling_covers_two_remat_waiters_and_a_serving_wave() {
    // two workers, two re-selection threads and a serving wave in flight
    // at once — the claim cursor, the lane-priority selection and the
    // mid-wave yield all interleave — too big to enumerate (two workers
    // under just two submitters are already ~60k schedules at bound 1):
    // seeded random sampling; any failure would report a replayable seed
    let out = explore_random(&Config::default(), 500, 0x5eed_1a9e_5eed_1a9e, || {
        let pool = Arc::new(WorkerPool::new(2));
        // ordering: model-run hit counters; sequentially consistent anyway.
        let hits = Arc::new(AtomicUsize::new(0));
        let waiters: Vec<_> = [2, 1]
            .into_iter()
            .map(|tasks| {
                let (pool, hits) = (Arc::clone(&pool), Arc::clone(&hits));
                thread::spawn(move || {
                    pool.run_tasks(tasks, &|_i| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                })
            })
            .collect();
        pool.run_wave(2, &|_i, _scratch| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!(hits.load(Ordering::Relaxed), 5, "every lane's tasks ran");
        let stats = pool.stats();
        assert_eq!(stats.tasks, 5);
        assert_eq!(stats.lane_waves[Lane::Serving.index()], 1);
        assert_eq!(stats.lane_waves[Lane::Remat.index()], 2);
    });
    let report = out.assert_pass();
    assert_eq!(report.schedules, 500);
    println!(
        "lane two-lane mix random: {} sampled schedules",
        report.schedules
    );
}
