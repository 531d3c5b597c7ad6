//! Pluggable fan-out for the offline phase.
//!
//! The LRDP roots (and the numeric materialization of the chosen tables)
//! are embarrassingly parallel; *where* those tasks run is a deployment
//! decision, not an algorithmic one. An [`Executor`] abstracts it:
//!
//! * [`SequentialExecutor`] — every task on the calling thread;
//! * [`ScopedExecutor`] — spawn-per-call scoped threads, the historical
//!   design driven by [`PeanutConfig::threads`](crate::PeanutConfig);
//! * the serving tier's persistent `WorkerPool` implements the same trait,
//!   so a lifecycle re-materialization reuses the already-parked serving
//!   workers instead of spawning a fresh set per re-selection. The pool
//!   routes `run_tasks` waves onto its *re-materialization* priority
//!   lane, so offline fan-out riding this seam can never head-of-line
//!   block the pool's serving-lane query waves — the barrier contract
//!   below is unchanged, only the queueing discipline behind it differs.

use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::thread;

/// Runs a batch of independent, index-identified tasks.
pub trait Executor: Sync {
    /// Runs `task(i)` for every `i in 0..total`, potentially in parallel.
    /// Must not return before every task has completed — callers rely on
    /// that barrier to keep borrows inside `task` alive exactly long
    /// enough.
    fn run_tasks(&self, total: usize, task: &(dyn Fn(usize) + Sync));
}

impl<E: Executor + ?Sized> Executor for &E {
    fn run_tasks(&self, total: usize, task: &(dyn Fn(usize) + Sync)) {
        (**self).run_tasks(total, task)
    }
}

/// Runs every task on the calling thread, in index order.
#[derive(Clone, Copy, Debug, Default)]
pub struct SequentialExecutor;

impl Executor for SequentialExecutor {
    fn run_tasks(&self, total: usize, task: &(dyn Fn(usize) + Sync)) {
        for i in 0..total {
            task(i);
        }
    }
}

/// Spawns up to `threads` scoped threads *per call* which claim task
/// indices work-stealing-style. One thread (or one task) degenerates to
/// the sequential path.
#[derive(Clone, Copy, Debug)]
pub struct ScopedExecutor {
    /// Scoped threads spawned per `run_tasks` call (clamped to ≥ 1).
    pub threads: usize,
}

impl ScopedExecutor {
    /// An executor spawning `threads` scoped threads per call.
    pub fn new(threads: usize) -> Self {
        ScopedExecutor {
            threads: threads.max(1),
        }
    }
}

impl Executor for ScopedExecutor {
    fn run_tasks(&self, total: usize, task: &(dyn Fn(usize) + Sync)) {
        let n = self.threads.min(total);
        if n <= 1 {
            return SequentialExecutor.run_tasks(total, task);
        }
        let next = AtomicUsize::new(0);
        thread::scope(|s| {
            for _ in 0..n {
                s.spawn(|| loop {
                    // ordering: pure work-claiming counter — each index must
                    // be handed out once, but no other memory is published
                    // through it (the scope join is the barrier), so Relaxed
                    // suffices.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    task(i);
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Mutex;

    fn collect(exec: &dyn Executor, total: usize) -> Vec<usize> {
        let out = Mutex::new(Vec::new());
        exec.run_tasks(total, &|i| out.lock().push(i));
        let mut v = out.into_inner();
        v.sort_unstable();
        v
    }

    #[test]
    fn executors_cover_every_task_exactly_once() {
        let want: Vec<usize> = (0..37).collect();
        assert_eq!(collect(&SequentialExecutor, 37), want);
        assert_eq!(collect(&ScopedExecutor::new(1), 37), want);
        assert_eq!(collect(&ScopedExecutor::new(4), 37), want);
        // blanket &E impl
        assert_eq!(collect(&&ScopedExecutor::new(2), 37), want);
    }

    #[test]
    fn zero_tasks_are_fine() {
        assert!(collect(&SequentialExecutor, 0).is_empty());
        assert!(collect(&ScopedExecutor::new(8), 0).is_empty());
    }
}
