//! The persistent worker pool: long-lived workers, parked between waves,
//! draining a two-lane priority queue.
//!
//! A server draining *small hot batches* — a few queries per wave,
//! thousands of waves per second — cannot afford a thread spawn/join per
//! wave. A [`WorkerPool`] moves that cost to construction time:
//!
//! * `workers` OS threads are spawned **once** (per engine, or shared
//!   across the shards of a sharded engine) and live until the pool drops;
//! * between waves the workers are **parked** on a condvar — zero CPU,
//!   woken in microseconds instead of re-spawned in tens of them;
//! * a wave is a batch of independent index-identified tasks pushed onto
//!   one of two [`Lane`]s; workers claim task indices from the front
//!   wave of the highest-priority non-empty lane work-stealing-style
//!   (an atomic cursor, no per-task queue nodes);
//! * each worker owns a [`Scratch`] that persists across tasks *and*
//!   waves, so steady-state serving performs no transient allocation;
//! * a panicking task is **isolated**: the worker catches the unwind,
//!   replaces its scratch, and keeps serving; the panic is re-raised on
//!   the thread that waits for the wave, so the pool is never poisoned
//!   and subsequent waves are unaffected;
//! * dropping the pool signals shutdown, **drains every queued wave**
//!   and joins every worker.
//!
//! # Priority lanes
//!
//! A strict-FIFO queue would let an off-path re-materialization wave
//! head-of-line block every serving wave behind it, so waves carry a
//! [`Lane`]:
//!
//! * [`Lane::Serving`] — query traffic ([`run_wave`](WorkerPool::run_wave));
//!   always served first;
//! * [`Lane::Remat`] — the lifecycle controllers' off-path re-selection
//!   fan-outs (the pool's [`Executor`] impl).
//!
//! Priority is strict *between* lanes and FIFO *within* a lane, enforced
//! at **task granularity**: a worker draining a re-selection wave
//! re-checks an advisory lane-occupancy mask between tasks and yields to
//! fresher serving work, so a queued serving wave waits for at most one
//! in-flight re-selection task per worker — never for a whole
//! re-selection wave. The remat lane can be starved by a saturated
//! serving lane; that is the intended overload behavior (shed
//! re-selection, never queries).
//!
//! Both submission paths **block** the submitting thread until the wave
//! completes — the task closure is borrowed from its stack — and must
//! **not** be called from inside a pool task (a 1-worker pool would
//! deadlock waiting for itself).
//!
//! [`PoolStats`] exposes the pool's telemetry: tasks run, waves served
//! (total and per lane) and park/unpark counts. [`PoolStats::delta_since`]
//! isolates one measurement window from pool-lifetime totals.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use peanut_core::exec::{Executor, SequentialExecutor};
use peanut_core::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use peanut_core::sync::thread::{self, JoinHandle};
use peanut_core::sync::{Arc, Condvar, Mutex, OnceLock};
use peanut_pgm::Scratch;
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Priority lane of a submitted wave. Order is priority: lower-indexed
/// lanes are always drained first, and workers yield mid-wave (between
/// tasks) to strictly higher lanes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lane {
    /// Query traffic — the latency-sensitive lane, always served first.
    #[default]
    Serving,
    /// Off-path re-materialization (lifecycle/fleet re-selection fan-out);
    /// starved under overload.
    Remat,
}

impl Lane {
    /// Number of lanes.
    pub const COUNT: usize = 2;

    /// Queue index; `0` is the highest priority.
    pub const fn index(self) -> usize {
        match self {
            Lane::Serving => 0,
            Lane::Remat => 1,
        }
    }
}

/// A point-in-time snapshot of a pool's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads spawned — once, at construction. This is the whole
    /// spawn bill; a spawn-per-batch design pays `workers` per wave.
    pub workers: usize,
    /// Waves submitted, all lanes.
    pub waves: u64,
    /// Waves submitted per [`Lane`] (indexed by [`Lane::index`]).
    pub lane_waves: [u64; Lane::COUNT],
    /// Tasks executed across all waves.
    pub tasks: u64,
    /// Times a worker parked (blocked on the work condvar).
    pub parks: u64,
    /// Times a parked worker was woken.
    pub unparks: u64,
    /// Tasks that panicked (isolated; re-raised on the waiter).
    pub panics: u64,
}

impl PoolStats {
    /// The counter deltas accumulated since `earlier` (an older snapshot
    /// of the **same** pool): what happened in the window between the two
    /// snapshots. Replay reports use this so a steady-state measurement
    /// is not conflated with warmup (or with every replay that ran before
    /// it on the same engine) — the counters themselves are
    /// pool-lifetime totals.
    pub fn delta_since(&self, earlier: &PoolStats) -> PoolStats {
        let mut lane_waves = [0u64; Lane::COUNT];
        for (d, (now, was)) in lane_waves
            .iter_mut()
            .zip(self.lane_waves.iter().zip(earlier.lane_waves.iter()))
        {
            *d = now.saturating_sub(*was);
        }
        PoolStats {
            workers: self.workers,
            waves: self.waves.saturating_sub(earlier.waves),
            lane_waves,
            tasks: self.tasks.saturating_sub(earlier.tasks),
            parks: self.parks.saturating_sub(earlier.parks),
            unparks: self.unparks.saturating_sub(earlier.unparks),
            panics: self.panics.saturating_sub(earlier.panics),
        }
    }
}

/// The lazily spawned pool slot shared by [`ServingEngine`] and
/// [`ShardedServingEngine`]: one place for the spawn-on-first-use,
/// warm-up, and offline-executor-selection rules, so the two engines
/// cannot drift apart.
///
/// [`ServingEngine`]: crate::engine::ServingEngine
/// [`ShardedServingEngine`]: crate::shard::ShardedServingEngine
#[derive(Default)]
pub(crate) struct PoolCell {
    cell: OnceLock<Arc<WorkerPool>>,
}

impl PoolCell {
    pub(crate) fn new() -> Self {
        PoolCell::default()
    }

    /// The pool, spawning `workers` threads on first use.
    pub(crate) fn get_or_spawn(&self, workers: usize) -> &Arc<WorkerPool> {
        self.cell.get_or_init(|| Arc::new(WorkerPool::new(workers)))
    }

    /// Telemetry, if the pool has been spawned.
    pub(crate) fn stats(&self) -> Option<PoolStats> {
        self.cell.get().map(|p| p.stats())
    }

    /// Whether batches fan out onto the pool at all: a single worker
    /// serves in the calling thread.
    pub(crate) fn fans_out(workers: usize) -> bool {
        workers > 1
    }

    /// Pre-spawns the pool so the first fanned-out batch does not pay
    /// thread-spawn latency in-band. A no-op when batches never fan out.
    pub(crate) fn warm(&self, workers: usize) {
        if Self::fans_out(workers) {
            self.get_or_spawn(workers);
        }
    }

    /// Executor for off-path offline work (lifecycle/fleet re-selection):
    /// the persistent pool — its [`Executor`] impl rides [`Lane::Remat`],
    /// so a re-selection wave can never head-of-line block serving waves
    /// — when batches fan out, the calling thread otherwise.
    pub(crate) fn offline_exec(&self, workers: usize) -> &dyn Executor {
        if Self::fans_out(workers) {
            &**self.get_or_spawn(workers)
        } else {
            &SequentialExecutor
        }
    }
}

/// Lifetime-erased pointer to a wave's task closure. A raw pointer (not a
/// transmuted `&'static`) because the `Wave` can stay reachable — front of
/// the queue, or in a worker's `Arc` clone — after `run_wave` returns and
/// the closure is destroyed; a retained reference would then be dangling,
/// a retained raw pointer is merely unused.
struct TaskPtr(*const (dyn Fn(usize, &mut Scratch) + Sync));

// SAFETY: the pointee is `Sync` (callable from many threads through a
// shared reference), and `run_wave_on` guarantees it stays alive for every
// dereference (see `worker_loop`).
unsafe impl Send for TaskPtr {}
// SAFETY: a shared `&TaskPtr` only hands out copies of the pointer; the
// one use of one, calling the pointee, needs only a shared reference to a
// `Sync` closure, kept alive by `run_wave_on` as for `Send` above.
unsafe impl Sync for TaskPtr {}

/// One submitted wave: a task closure plus claim/completion state.
struct Wave {
    task: TaskPtr,
    lane: Lane,
    total: usize,
    next: AtomicUsize,
    done: Mutex<usize>,
    complete: Condvar,
    panics: AtomicUsize,
    first_panic: Mutex<Option<Box<dyn Any + Send>>>,
}

struct Queue {
    /// One FIFO per lane, indexed by [`Lane::index`] (0 = highest
    /// priority).
    lanes: [VecDeque<Arc<Wave>>; Lane::COUNT],
    shutdown: bool,
}

impl Queue {
    /// The front wave of the highest-priority non-empty lane.
    fn front(&self) -> Option<&Arc<Wave>> {
        self.lanes.iter().find_map(|l| l.front())
    }
}

struct Shared {
    queue: Mutex<Queue>,
    work_ready: Condvar,
    /// Advisory bitmask of non-empty lanes (bit = [`Lane::index`]),
    /// mutated only under the queue mutex. Workers read it lock-free
    /// between tasks to decide whether to yield a lower-priority wave; a
    /// stale read merely delays that yield by one task.
    nonempty: AtomicUsize,
    waves: AtomicU64,
    lane_waves: [AtomicU64; Lane::COUNT],
    tasks: AtomicU64,
    parks: AtomicU64,
    unparks: AtomicU64,
    panics: AtomicU64,
}

impl Shared {
    /// Whether a lane strictly higher-priority than `lane` has queued
    /// work. Always false for the top lane.
    fn higher_ready(&self, lane: Lane) -> bool {
        // ordering: advisory preemption hint only — the authoritative
        // queue state is re-read under the mutex when the worker actually
        // re-selects; a stale read delays the yield by at most one task.
        self.nonempty.load(Ordering::Relaxed) & ((1 << lane.index()) - 1) != 0
    }
}

/// Blocks until `wave` completes, then re-raises its first panic.
fn wait_wave(wave: &Wave) {
    let mut done = wave.done.lock();
    while *done < wave.total {
        done = wave.complete.wait(done);
    }
    drop(done);
    // ordering: the `done` mutex above synchronizes the wave's
    // completion; this flag only routes control flow afterwards.
    if wave.panics.load(Ordering::Relaxed) > 0 {
        let payload = wave
            .first_panic
            .lock()
            .take()
            .unwrap_or_else(|| Box::new("pool task panicked"));
        resume_unwind(payload);
    }
}

/// A fixed-size pool of persistent, parked worker threads. See the module
/// docs for the design.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    workers: usize,
}

impl WorkerPool {
    /// Spawns `workers` (clamped to ≥ 1) threads, immediately parked.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                lanes: [VecDeque::new(), VecDeque::new()],
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            nonempty: AtomicUsize::new(0),
            waves: AtomicU64::new(0),
            lane_waves: [AtomicU64::new(0), AtomicU64::new(0)],
            tasks: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            unparks: AtomicU64::new(0),
            panics: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                #[expect(
                    clippy::expect_used,
                    reason = "construction-time only; a failed OS spawn leaves no pool to serve with"
                )]
                thread::Builder::new()
                    .name(format!("peanut-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles: Mutex::new(handles),
            workers,
        }
    }

    /// The number of persistent workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Snapshot of the pool's counters.
    pub fn stats(&self) -> PoolStats {
        // ordering: every counter load below is independent telemetry;
        // the snapshot is advisory (tests assert window-scale
        // totals after joins), so Relaxed suffices throughout.
        let mut lane_waves = [0u64; Lane::COUNT];
        for (out, ctr) in lane_waves.iter_mut().zip(self.shared.lane_waves.iter()) {
            *out = ctr.load(Ordering::Relaxed);
        }
        PoolStats {
            workers: self.workers,
            waves: self.shared.waves.load(Ordering::Relaxed),
            lane_waves,
            tasks: self.shared.tasks.load(Ordering::Relaxed),
            parks: self.shared.parks.load(Ordering::Relaxed),
            unparks: self.shared.unparks.load(Ordering::Relaxed),
            panics: self.shared.panics.load(Ordering::Relaxed),
        }
    }

    /// Pushes a wave onto its lane and wakes the workers.
    fn enqueue(&self, wave: &Arc<Wave>) {
        // Seeded concurrency mutation (see the feature docs in
        // Cargo.toml): notifying *before* the enqueue lets a parked worker
        // wake, re-check a still-empty queue and re-park, after which the
        // push below is never signalled — the lost wakeup the model
        // checker's mutation test must catch as a deadlock.
        #[cfg(feature = "mutation-lost-wakeup")]
        self.shared.work_ready.notify_all();
        {
            let mut q = self.shared.queue.lock();
            q.lanes[wave.lane.index()].push_back(Arc::clone(wave));
            // ordering: advisory lane-occupancy hint, mutated under the
            // queue mutex it mirrors; see `Shared::nonempty`.
            self.shared
                .nonempty
                .fetch_or(1 << wave.lane.index(), Ordering::Relaxed);
        }
        #[cfg(not(feature = "mutation-lost-wakeup"))]
        self.shared.work_ready.notify_all();
        // ordering: telemetry counters, read only by `stats()` snapshots
        // — both fetch_adds below.
        self.shared.waves.fetch_add(1, Ordering::Relaxed);
        self.shared.lane_waves[wave.lane.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Runs `task(i, scratch)` for every `i in 0..total` on the pool's
    /// workers, on [`Lane::Serving`], and blocks until all of them have
    /// completed. Each worker passes its own long-lived [`Scratch`].
    /// Concurrent waves (from other threads) queue FIFO within the lane.
    ///
    /// If any task panicked, the first panic payload is re-raised here —
    /// on the submitting thread — *after* the wave has fully completed;
    /// the workers themselves survive and keep serving later waves.
    ///
    /// Must not be called from inside a pool task (see the module docs).
    pub fn run_wave(&self, total: usize, task: &(dyn Fn(usize, &mut Scratch) + Sync)) {
        self.run_wave_on(Lane::Serving, total, task);
    }

    /// Like [`run_wave`](Self::run_wave) on an explicit [`Lane`].
    fn run_wave_on(&self, lane: Lane, total: usize, task: &(dyn Fn(usize, &mut Scratch) + Sync)) {
        if total == 0 {
            return;
        }
        // Lifetime erasure with both sides of the cast spelled out, so the
        // only thing this transmute can do is extend the trait object's
        // lifetime bound (`&'a dyn` and `*const dyn + 'static` share the
        // same fat-pointer layout; rustc rejects a plain `as` cast here
        // precisely because it refuses to extend trait-object lifetimes).
        // The invariant that makes the erased `'a` sound — every
        // dereference happens before this function returns — is stated at
        // the dereference in `worker_loop` and discharged by the
        // completion wait below.
        //
        // SAFETY: reference-to-pointer of the identical pointee type;
        // only the lifetime bound changes, and `worker_loop` keeps every
        // dereference inside `'a`.
        let task = unsafe {
            std::mem::transmute::<
                &(dyn Fn(usize, &mut Scratch) + Sync),
                *const (dyn Fn(usize, &mut Scratch) + Sync + 'static),
            >(task)
        };
        let wave = Arc::new(Wave {
            task: TaskPtr(task),
            lane,
            total,
            next: AtomicUsize::new(0),
            done: Mutex::new(0),
            complete: Condvar::new(),
            panics: AtomicUsize::new(0),
            first_panic: Mutex::new(None),
        });
        self.enqueue(&wave);
        wait_wave(&wave);
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock();
            q.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for h in self.handles.lock().drain(..) {
            #[expect(
                clippy::expect_used,
                reason = "shutdown only, and unreachable: the worker loop confines task panics \
                          with `catch_unwind`"
            )]
            h.join().expect("pool worker joined");
        }
    }
}

/// The serving pool doubles as the offline phase's executor, so a
/// lifecycle re-materialization's LRDP roots reuse the already-parked
/// serving workers — on [`Lane::Remat`], where they can never head-of-line
/// block serving waves.
impl Executor for WorkerPool {
    fn run_tasks(&self, total: usize, task: &(dyn Fn(usize) + Sync)) {
        self.run_wave_on(Lane::Remat, total, &|i, _scratch| task(i));
    }
}

fn worker_loop(shared: &Shared) {
    let mut scratch = Scratch::new();
    loop {
        // take (a handle on) the front wave of the highest-priority
        // non-empty lane, or park until one arrives. On shutdown, keep
        // draining until every lane is empty — queued waves must complete
        // before the pool joins.
        let wave = {
            let mut q = shared.queue.lock();
            loop {
                if let Some(w) = q.front() {
                    break Arc::clone(w);
                }
                if q.shutdown {
                    return;
                }
                // ordering: park/unpark are telemetry counters guarded by
                // the queue mutex anyway; Relaxed is plenty.
                shared.parks.fetch_add(1, Ordering::Relaxed);
                q = shared.work_ready.wait(q);
                shared.unparks.fetch_add(1, Ordering::Relaxed);
            }
        };

        // claim and run tasks until the wave is exhausted — or until a
        // strictly higher-priority lane has work, in which case leave the
        // wave queued and re-select from the top
        let mut preempted = false;
        loop {
            if shared.higher_ready(wave.lane) {
                preempted = true;
                break;
            }
            // ordering: pure work-claiming counter — uniqueness of the
            // handed-out index is all that matters; the task's results are
            // published through the `done` mutex, not through this atomic.
            let i = wave.next.fetch_add(1, Ordering::Relaxed);
            if i >= wave.total {
                break;
            }
            // ordering: telemetry counter, read only by `stats()`.
            shared.tasks.fetch_add(1, Ordering::Relaxed);
            // SAFETY: the closure is borrowed from the submitting thread's
            // stack. `i` was claimed (`< total`) and is not yet counted in
            // `done`, so the blocking submitter is still inside
            // `run_wave_on` waiting on the completion condvar and the
            // pointee outlives this dereference.
            let run = || unsafe { (*wave.task.0)(i, &mut scratch) };
            if catch_unwind(AssertUnwindSafe(run))
                .map_err(|payload| {
                    // ordering: both flags are re-read only after the wave
                    // completes (synchronized by the `done` mutex below).
                    wave.panics.fetch_add(1, Ordering::Relaxed);
                    shared.panics.fetch_add(1, Ordering::Relaxed);
                    let mut first = wave.first_panic.lock();
                    first.get_or_insert(payload);
                })
                .is_err()
            {
                // the scratch may hold a half-recycled buffer from the
                // unwound task; replace it rather than reason about it
                scratch = Scratch::new();
            }
            let mut done = wave.done.lock();
            *done += 1;
            if *done == wave.total {
                wave.complete.notify_all();
            }
        }
        if preempted {
            // the yielded wave stays at the front of its lane; this (or
            // another) worker returns to it once higher lanes drain
            continue;
        }

        // the wave is exhausted: pop it so later waves reach the front
        // (first exhausted-finder wins; ptr_eq keeps a racing pop from
        // removing a *newer* wave)
        let mut q = shared.queue.lock();
        let lane_q = &mut q.lanes[wave.lane.index()];
        if lane_q.front().is_some_and(|w| Arc::ptr_eq(w, &wave)) {
            lane_q.pop_front();
            if lane_q.is_empty() {
                // ordering: advisory lane-occupancy hint, mutated under
                // the queue mutex it mirrors; see `Shared::nonempty`.
                shared
                    .nonempty
                    .fetch_and(!(1 << wave.lane.index()), Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peanut_core::sync::atomic::AtomicUsize;

    #[test]
    fn wave_runs_every_task_once() {
        let pool = WorkerPool::new(3);
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        pool.run_wave(hits.len(), &|i, _s| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        let stats = pool.stats();
        assert_eq!(stats.workers, 3);
        assert_eq!(stats.waves, 1);
        assert_eq!(stats.lane_waves, [1, 0]);
        assert_eq!(stats.tasks, 64);
        assert_eq!(stats.panics, 0);
    }

    #[test]
    fn workers_park_between_waves() {
        let pool = WorkerPool::new(2);
        let parked = || {
            let s = pool.stats();
            s.parks.saturating_sub(s.unparks)
        };
        for _ in 0..5 {
            // submit only into an idle pool, so every wave has to unpark
            while parked() < 2 {
                std::thread::yield_now();
            }
            pool.run_wave(8, &|_i, _s| {});
        }
        let stats = pool.stats();
        assert_eq!(stats.waves, 5);
        assert_eq!(stats.tasks, 40);
        assert!(
            stats.parks >= stats.waves,
            "workers must park between waves: {stats:?}"
        );
    }

    #[test]
    fn panicking_task_does_not_poison_the_pool() {
        let pool = WorkerPool::new(2);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.run_wave(8, &|i, _s| {
                if i == 3 {
                    panic!("task 3 exploded");
                }
            });
        }));
        assert!(err.is_err(), "the submitter must see the panic");
        assert_eq!(pool.stats().panics, 1);
        // the pool keeps serving: all workers survived the unwind
        let hits = AtomicUsize::new(0);
        pool.run_wave(16, &|_i, _s| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool = WorkerPool::new(4);
        pool.run_wave(4, &|_i, _s| {});
        let alive = Arc::downgrade(&pool.shared);
        drop(pool);
        // every worker held an Arc<Shared>; none left ⇒ all joined
        assert!(
            alive.upgrade().is_none(),
            "drop must join every worker thread"
        );
    }

    #[test]
    fn concurrent_waves_from_many_threads() {
        let pool = WorkerPool::new(3);
        let total = AtomicUsize::new(0);
        thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10 {
                        pool.run_wave(7, &|_i, _s| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 10 * 7);
        assert_eq!(pool.stats().tasks, 4 * 10 * 7);
    }

    #[test]
    fn executor_impl_covers_every_index_on_the_remat_lane() {
        let pool = WorkerPool::new(2);
        let out = Mutex::new(Vec::new());
        Executor::run_tasks(&pool, 19, &|i| out.lock().push(i));
        let mut v = out.into_inner();
        v.sort_unstable();
        assert_eq!(v, (0..19).collect::<Vec<_>>());
        assert_eq!(pool.stats().lane_waves, [0, 1]);
    }

    #[test]
    fn empty_wave_is_a_no_op() {
        let pool = WorkerPool::new(2);
        pool.run_wave(0, &|_i, _s| panic!("no tasks"));
        assert_eq!(pool.stats().waves, 0);
    }

    #[test]
    fn remat_waiter_reraises_task_panic() {
        // a re-selection thread blocked in `run_tasks` (remat lane) races
        // a serving wave: the panic surfaces on the remat waiter only
        let pool = WorkerPool::new(2);
        thread::scope(|s| {
            let remat = s.spawn(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    Executor::run_tasks(&pool, 4, &|i| {
                        if i == 2 {
                            panic!("task 2 exploded");
                        }
                    });
                }))
            });
            pool.run_wave(4, &|_i, _s| {});
            let waited = remat.join().expect("the waiter caught the unwind");
            assert!(waited.is_err(), "the remat waiter must see the panic");
        });
        assert_eq!(pool.stats().panics, 1);
        // the pool survives, exactly like the serving path
        pool.run_wave(4, &|_i, _s| {});
        let stats = pool.stats();
        assert_eq!(stats.lane_waves[Lane::Serving.index()], 2);
        assert_eq!(stats.lane_waves[Lane::Remat.index()], 1);
        assert_eq!(stats.tasks, 12);
    }

    #[test]
    fn serving_preempts_a_queued_background_backlog() {
        // one worker, wedged inside task 0 of a two-task re-selection
        // wave, with a second re-selection wave queued behind it. A
        // serving wave submitted after both must run as soon as the wedge
        // lifts: before the rest of the yielded wave (mid-wave yield) and
        // before the queued one (lane priority).
        let pool = WorkerPool::new(1);
        let started = AtomicUsize::new(0);
        let release = AtomicUsize::new(0);
        let order = Mutex::new(Vec::new());
        let submitted = |lane: Lane| pool.stats().lane_waves[lane.index()];
        thread::scope(|s| {
            s.spawn(|| {
                Executor::run_tasks(&pool, 2, &|i| {
                    if i == 0 {
                        started.fetch_add(1, Ordering::Relaxed);
                        while release.load(Ordering::Relaxed) == 0 {
                            std::thread::yield_now();
                        }
                    }
                    order.lock().push(["wedge", "yielded"][i]);
                });
            });
            while started.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            // the worker is inside the wedge; queue remat, then serving
            s.spawn(|| Executor::run_tasks(&pool, 1, &|_i| order.lock().push("remat")));
            while submitted(Lane::Remat) < 2 {
                std::thread::yield_now();
            }
            s.spawn(|| pool.run_wave(1, &|_i, _s| order.lock().push("serving")));
            while submitted(Lane::Serving) < 1 {
                std::thread::yield_now();
            }
            release.store(1, Ordering::Relaxed);
        });
        assert_eq!(
            *order.lock(),
            vec!["wedge", "serving", "yielded", "remat"],
            "the serving lane must jump ahead of both re-selection waves"
        );
        let stats = pool.stats();
        assert_eq!(stats.lane_waves[Lane::Serving.index()], 1);
        assert_eq!(stats.lane_waves[Lane::Remat.index()], 2);
        assert_eq!(stats.tasks, 4);
    }

    #[test]
    fn stats_delta_isolates_a_window() {
        let pool = WorkerPool::new(2);
        pool.run_wave(8, &|_i, _s| {});
        let warmup = pool.stats();
        pool.run_wave(8, &|_i, _s| {});
        Executor::run_tasks(&pool, 3, &|_i| {});
        let delta = pool.stats().delta_since(&warmup);
        assert_eq!(delta.workers, 2);
        assert_eq!(delta.waves, 2);
        assert_eq!(delta.tasks, 11);
        assert_eq!(delta.lane_waves[Lane::Serving.index()], 1);
        assert_eq!(delta.lane_waves[Lane::Remat.index()], 1);
        // saturating: a foreign (older-pool) snapshot never underflows
        let zero = pool.stats().delta_since(&pool.stats());
        assert_eq!(zero.waves, 0);
        assert_eq!(zero.tasks, 0);
    }
}
