//! Pool lifecycle coverage: the persistent worker pool must survive task
//! panics (subsequent batches still answer correctly vs the VE oracle),
//! join every worker on drop, and — regardless of worker count — produce
//! byte-identical answers to the sequential path.

use peanut_core::Materialization;
use peanut_junction::{build_junction_tree, QueryEngine};
use peanut_pgm::{fixtures, BayesianNetwork, Scope};
use peanut_serving::{ServeOutcome, ServeRequest, ServingConfig, ServingEngine, WorkerPool};
use peanut_ve::ve_answer;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

fn batch(bn: &BayesianNetwork) -> Vec<ServeRequest> {
    let n = bn.domain().len() as u32;
    (0..n)
        .flat_map(|a| {
            ((a + 1)..n.min(a + 3))
                .map(move |b| ServeRequest::marginal(Scope::from_indices(&[a, b])))
        })
        .collect()
}

/// A panicking wave on a pool shared with a serving engine must not
/// poison the pool: the next batches answer correctly vs the VE oracle.
#[test]
fn worker_panic_does_not_poison_the_pool() {
    let bn = fixtures::figure1();
    let tree = build_junction_tree(&bn).unwrap();
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let serving = ServingEngine::new(
        engine,
        Materialization::default(),
        // cache capacity 0: every batch must recompute through the pool
        ServingConfig::default()
            .with_workers(2)
            .with_cache_capacity(0),
    );
    let pool = Arc::clone(serving.pool());

    // a wave with a panicking task: the submitter sees the panic…
    let blown = catch_unwind(AssertUnwindSafe(|| {
        pool.run_wave(4, &|i, _scratch| {
            if i == 2 {
                panic!("injected task panic");
            }
        });
    }));
    assert!(blown.is_err(), "the submitting thread must see the panic");
    assert_eq!(pool.stats().panics, 1);

    // …and the pool keeps serving whole batches, correct vs the oracle
    let queries = batch(&bn);
    for _ in 0..3 {
        let (answers, stats) = serving.serve_batch(&queries);
        assert_eq!(stats.counters.requests, queries.len() as u64);
        for (q, a) in queries.iter().zip(&answers) {
            let a = a.served().expect("served after panic");
            let (mut want, _) = ve_answer(&bn, &q.targets).unwrap();
            want.normalize();
            assert!(a.potential.max_abs_diff(&want).unwrap() < 1e-9);
        }
    }
    assert!(pool.stats().tasks > 4, "post-panic waves must have run");
}

/// Dropping an engine (and its pool handle) joins every worker: no
/// thread keeps a reference to the pool's shared state alive.
#[test]
fn drop_joins_all_workers() {
    let bn = fixtures::sprinkler();
    let tree = build_junction_tree(&bn).unwrap();
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let serving = ServingEngine::new(
        engine,
        Materialization::default(),
        ServingConfig::default()
            .with_workers(3)
            .with_cache_capacity(0),
    );
    let weak = Arc::downgrade(serving.pool());
    let queries = batch(&bn);
    let (answers, _) = serving.serve_batch(&queries);
    assert!(answers.iter().all(ServeOutcome::is_served));
    drop(serving);
    // the engine held the last Arc<WorkerPool>; its drop joined the
    // workers, so nothing can be holding the pool anymore
    assert!(weak.upgrade().is_none(), "drop must join all workers");
}

/// One worker and two persistent workers must produce byte-identical
/// answers — the fan-out is a scheduling decision, never a numeric one.
#[test]
fn pool_answers_are_byte_identical_to_sequential() {
    let bn = fixtures::chain(14, 2, 13);
    let tree = build_junction_tree(&bn).unwrap();
    let queries = batch(&bn);
    let serve = |workers: usize| -> Vec<Vec<f64>> {
        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let serving = ServingEngine::new(
            engine,
            Materialization::default(),
            ServingConfig::default()
                .with_workers(workers)
                .with_cache_capacity(0),
        );
        let (answers, _) = serving.serve_batch(&queries);
        answers
            .iter()
            .map(|a| a.served().expect("served").potential.values().to_vec())
            .collect()
    };
    let sequential = serve(1);
    let pooled = serve(2);
    assert_eq!(
        sequential, pooled,
        "a fanned-out pool must be byte-identical to the sequential path"
    );
}

/// A 1-worker configuration never spawns a pool at all: the sequential
/// fast path answers in the calling thread.
#[test]
fn one_worker_engine_spawns_no_pool() {
    let bn = fixtures::sprinkler();
    let tree = build_junction_tree(&bn).unwrap();
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let serving = ServingEngine::new(
        engine,
        Materialization::default(),
        ServingConfig::default().with_workers(1),
    );
    serving.warm_pool(); // no-op for 1 worker
    let (answers, _) = serving.serve_batch(&batch(&bn));
    assert!(answers.iter().all(ServeOutcome::is_served));
    assert!(
        serving.pool_stats().is_none(),
        "sequential serving must not spawn workers"
    );
}

/// Dropping the pool while submitted waves are still queued behind the
/// running one must drain them, not abandon them: `Drop` only flips the
/// shutdown flag, and workers re-check it *before* looking for waves —
/// but every submitter is still parked inside `run_wave`, which must
/// return (wave complete) before the submitting thread can release its
/// handle. This drives that exact ordering from many submitters.
#[test]
fn drop_with_queued_waves_completes_them_first() {
    use peanut_core::sync::atomic::{AtomicUsize, Ordering};
    // one worker ⇒ waves genuinely queue; the counter is test-only
    // (ordering: wave completion inside `run_wave` is the real barrier
    // for every Relaxed access below)
    let pool = WorkerPool::new(1);
    let ran = AtomicUsize::new(0);
    std::thread::scope(|s| {
        // several submitters race their waves into the single-worker queue;
        // each run_wave blocks until its own wave fully completes
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..3 {
                    pool.run_wave(5, &|_i, _s| {
                        ran.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
    });
    // all submitters returned ⇒ every queued wave drained before drop
    assert_eq!(ran.load(Ordering::Relaxed), 4 * 3 * 5);
    let stats = pool.stats();
    drop(pool);
    assert_eq!(stats.waves, 12);
    assert_eq!(stats.tasks, 60);
}

/// A panic in the *last* task of a wave exercises the completion edge:
/// the panicking worker itself must still count the task done, wake the
/// submitter, and hand over the payload — there is no later task to
/// limp home on.
#[test]
fn panic_in_last_task_of_wave_still_completes_and_reraises() {
    let pool = WorkerPool::new(2);
    for total in [1usize, 2, 7] {
        let blown = catch_unwind(AssertUnwindSafe(|| {
            pool.run_wave(total, &|i, _scratch| {
                if i == total - 1 {
                    panic!("last task of {total} exploded");
                }
            });
        }));
        let payload = blown.expect_err("the submitter must see the panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains(&format!("last task of {total}")),
            "payload must be the task's own: {msg:?}"
        );
    }
    assert_eq!(pool.stats().panics, 3);
    // the pool survives all three edge panics
    pool.run_wave(4, &|_i, _s| {});
    assert_eq!(pool.stats().waves, 4);
}

/// Zero-task waves — directly and through the `Executor` impl — are
/// no-ops that neither wake a worker nor count a wave.
#[test]
fn zero_task_waves_are_no_ops_even_via_executor() {
    use peanut_core::Executor;
    let pool = WorkerPool::new(2);
    pool.run_wave(0, &|_i, _s| unreachable!("no tasks to run"));
    Executor::run_tasks(&pool, 0, &|_i| unreachable!("no tasks to run"));
    let stats = pool.stats();
    assert_eq!(stats.waves, 0, "empty waves must not count");
    assert_eq!(stats.tasks, 0);
    assert_eq!(stats.unparks, 0, "no worker may be woken for nothing");
    // and the pool still serves real waves afterwards
    pool.run_wave(3, &|_i, _s| {});
    assert_eq!(pool.stats().tasks, 3);
}

/// The pool amortizes its spawns: repeated batches reuse the same parked
/// workers, and the stats surface shows it.
#[test]
fn pool_spawns_once_across_batches() {
    let bn = fixtures::chain(12, 2, 7);
    let tree = build_junction_tree(&bn).unwrap();
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let serving = ServingEngine::new(
        engine,
        Materialization::default(),
        ServingConfig::default()
            .with_workers(2)
            .with_cache_capacity(0),
    );
    let queries = batch(&bn);
    for _ in 0..5 {
        let (answers, _) = serving.serve_batch(&queries);
        assert!(answers.iter().all(ServeOutcome::is_served));
    }
    let stats = serving.pool_stats().expect("pool spawned");
    assert_eq!(stats.workers, 2, "spawned once, sized by the config");
    assert_eq!(stats.waves, 5, "one wave per batch");
    assert_eq!(stats.tasks, 5 * queries.len() as u64);
}
