//! Model checking the epoch-swap-during-wave protocol.
//!
//! The last case drives the real thing: `ServingEngine::serve_batch` —
//! the crate's one serve pipeline, wave path and result-slot protocol
//! included — against a concurrent `publish`. The first two check the
//! invariant it rests on in distilled form: the serving engines publish a new materialization epoch by taking the
//! epoch `RwLock` for writing while in-flight waves hold read-locked
//! snapshots. The invariant under test, distilled: a snapshot is never
//! *torn* — a reader must observe the epoch counter and the payload
//! published with it as one consistent pair, no matter where the
//! publisher's write is preempted.
//!
//! The state is a `RwLock<(u64, u64)>` where the second field must always
//! equal `epoch * 1000` — the stand-in for "the materialization tables
//! that belong to this epoch". The publisher bumps both under the write
//! lock; pool-wave tasks snapshot under the read lock and assert the
//! pairing.

#![cfg(not(feature = "mutation-lost-wakeup"))]

use peanut_check::{explore, Config};
use peanut_core::sync::{thread, Arc, RwLock};
use peanut_core::{Materialization, WorkloadStats};
use peanut_junction::cost::QueryCost;
use peanut_junction::{build_junction_tree, JunctionTree, QueryEngine};
use peanut_pgm::{fixtures, Scope};
use peanut_serving::{ServeRequest, ServingConfig, ServingEngine, WorkerPool};
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn epoch_swap_during_wave_never_tears_a_snapshot() {
    let out = explore(&Config::with_preemption_bound(2), || {
        let epoch: Arc<RwLock<(u64, u64)>> = Arc::new(RwLock::new((0, 0)));
        let pool = WorkerPool::new(1);

        let publisher = {
            let epoch = Arc::clone(&epoch);
            thread::spawn(move || {
                let mut g = epoch.write();
                g.0 += 1;
                // the preemption the bound buys us sits between these two
                // writes — only the write lock makes the pair atomic
                g.1 = g.0 * 1000;
            })
        };

        // a wave of snapshot-taking tasks races the publisher
        pool.run_wave(2, &|_i, _scratch| {
            let g = epoch.read();
            assert_eq!(g.1, g.0 * 1000, "torn epoch snapshot: {:?}", *g);
        });

        publisher.join().unwrap();
        let g = epoch.read();
        assert_eq!(*g, (1, 1000), "exactly one publish must have landed");
        drop(g);
        drop(pool);
    });
    let report = out.assert_pass();
    assert!(report.complete, "bounded space must be fully enumerated");
    println!(
        "epoch swap bound=2: {} interleavings, longest trail {} decisions",
        report.schedules, report.max_decisions
    );
}

#[test]
fn back_to_back_publishes_are_serialized_by_the_write_lock() {
    let out = explore(&Config::with_preemption_bound(1), || {
        let epoch: Arc<RwLock<(u64, u64)>> = Arc::new(RwLock::new((0, 0)));
        let spawn_publisher = |epoch: &Arc<RwLock<(u64, u64)>>| {
            let epoch = Arc::clone(epoch);
            thread::spawn(move || {
                let mut g = epoch.write();
                g.0 += 1;
                g.1 = g.0 * 1000;
            })
        };
        let a = spawn_publisher(&epoch);
        let b = spawn_publisher(&epoch);
        {
            let g = epoch.read();
            assert_eq!(g.1, g.0 * 1000, "torn epoch snapshot: {:?}", *g);
        }
        a.join().unwrap();
        b.join().unwrap();
        assert_eq!(*epoch.read(), (2, 2000), "both publishes must land once");
    });
    let report = out.assert_pass();
    assert!(report.complete);
    println!("double publish bound=1: {} interleavings", report.schedules);
}

/// The real pipeline against a concurrent publish: two workers and two
/// distinct requests, so the batch fans out as a pool wave and lands its
/// results through the per-index slot protocol, while a publisher swaps
/// the epoch somewhere in between. Whatever the interleaving, the batch
/// is served whole under the one epoch it snapshotted, and once the
/// publish has landed no answer of the older epoch is served again — by
/// construction, since the older epoch's answers live only in its
/// retired cache.
#[test]
fn serve_batch_races_publish_under_one_epoch_per_batch() {
    // plain data, shared by every schedule; everything holding a lock,
    // an atomic or a thread is built inside the body
    let bn = fixtures::sprinkler();
    let tree: &'static JunctionTree = Box::leak(Box::new(build_junction_tree(&bn).unwrap()));
    let batch = [
        ServeRequest::marginal(Scope::from_indices(&[0])),
        ServeRequest::marginal(Scope::from_indices(&[1, 2])),
    ];
    // how many schedules served the batch under each epoch (a plain std
    // counter the scheduler does not see)
    static UNDER: [AtomicUsize; 2] = [AtomicUsize::new(0), AtomicUsize::new(0)];
    let out = explore(&Config::with_preemption_bound(1), move || {
        let serving = Arc::new(ServingEngine::new(
            QueryEngine::numeric(tree, &bn).unwrap(),
            Materialization::default(),
            ServingConfig::default().with_workers(2),
        ));
        let publisher = {
            let serving = Arc::clone(&serving);
            thread::spawn(move || serving.publish(Materialization::default()))
        };

        let (outcomes, stats) = serving.serve_batch(&batch);
        assert_eq!((stats.unique, stats.cache_hits), (2, 0));
        for o in &outcomes {
            let a = o.served().expect("every outcome is Served");
            assert_eq!(a.epoch, stats.epoch, "answer epoch != batch epoch");
        }

        assert_eq!(publisher.join().unwrap(), 1);
        // a batch that snapshotted epoch 0 filed its answers in epoch 0's
        // cache, which the publish retired: the follow-ups miss and compute
        // under epoch 1; a batch on epoch 1 already filed them there (asked
        // one at a time, so the follow-up stays in-thread and adds no
        // interleavings)
        let raced = stats.epoch == 0;
        UNDER[stats.epoch as usize].fetch_add(1, Ordering::Relaxed);
        for q in &batch {
            let (after, warm) = serving.serve_batch(std::slice::from_ref(q));
            assert_eq!(warm.epoch, 1);
            assert_eq!(warm.cache_hits, usize::from(!raced));
            let a = after[0].served().expect("every outcome is Served");
            assert_eq!(a.epoch, 1, "an older epoch's answer was served");
        }
        drop(serving); // joins the pool under every interleaving
    });
    let report = out.assert_pass();
    assert!(report.complete, "bounded space must be fully enumerated");
    assert!(
        report.schedules > 50,
        "suspiciously small interleaving space: {}",
        report.schedules
    );
    let [old, new] = [0, 1].map(|e| UNDER[e].load(Ordering::Relaxed));
    assert!(
        old > 0 && new > 0,
        "the batch must land on both sides of the publish"
    );
    println!(
        "serve_batch vs publish bound=1: {} interleavings ({old} before the publish, {new} \
         after), longest trail {} decisions",
        report.schedules, report.max_decisions
    );
}

/// The observation window's totals are one value: a batch recorded by
/// [`WorkloadStats::record`] moves all of them under one lock, and
/// `snapshot` copies them under the same lock. Every batch below is
/// charged 7 ops and a plain-tree baseline of 10 per arrival, so a
/// snapshot that paired one batch's arrivals with another's operation
/// counts would break one of the two ratios.
#[test]
fn a_window_snapshot_is_never_torn() {
    let out = explore(&Config::with_preemption_bound(2), || {
        let stats = Arc::new(WorkloadStats::new());
        let recorder = {
            let stats = Arc::clone(&stats);
            thread::spawn(move || {
                let scope = Scope::from_indices(&[0]);
                let cost = QueryCost {
                    ops: 7,
                    messages: 0,
                    shortcuts_used: 1,
                };
                for n in [1, 2] {
                    stats.record([(0, &scope, &cost, 10, n)]);
                }
            })
        };
        for _ in 0..2 {
            let s = stats.snapshot();
            assert_eq!(s.observed_ops, 7 * s.queries, "torn snapshot: {s:?}");
            assert_eq!(s.baseline_ops, 10 * s.queries, "torn snapshot: {s:?}");
        }
        recorder.join().unwrap();
        assert_eq!(stats.snapshot().queries, 3);
    });
    let report = out.assert_pass();
    assert!(report.complete, "bounded space must be fully enumerated");
    println!(
        "window snapshot vs record bound=2: {} interleavings, longest trail {} decisions",
        report.schedules, report.max_decisions
    );
}
