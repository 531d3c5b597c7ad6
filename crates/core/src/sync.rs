//! Synchronization facade: the one place the PEANUT crates get their
//! concurrency primitives from.
//!
//! Everything concurrent in `peanut-core` and `peanut-serving` — the worker
//! pool, the epoch-versioned engine state, the stats accumulators, the
//! scoped executors — imports `Mutex`, `Condvar`, `RwLock`, atomics and
//! thread spawn/join from here instead of `std::sync` / `std::thread`.
//! Normally these are thin std-backed wrappers (zero-cost: the only change
//! from raw `std` is the non-poisoning API below). Under the `model-check`
//! feature they swap to the instrumented shims of the vendored
//! `interleave` model checker (`vendor/interleave`, only compiled into
//! the dependency graph when the feature is on), which turn every lock,
//! wait, notify,
//! atomic access and spawn into a scheduling decision point so the
//! `peanut-check` crate can exhaustively enumerate interleavings of the
//! pool and epoch-swap protocols. The feature is enabled only by
//! `peanut-check`; tier-1 builds never compile the instrumentation.
//!
//! ## Non-poisoning API
//!
//! `Mutex::lock` returns the guard directly, `Condvar::wait` takes and
//! returns a guard, `RwLock::read`/`write` return guards — no `LockResult`.
//! The serving protocols confine panics at the task boundary
//! (`catch_unwind` in the pool) and never rely on lock poisoning to detect
//! them; a poisoned std lock is recovered via `PoisonError::into_inner`.
//! This keeps `unwrap`/`expect` off the serving hot paths, whose files
//! deny them.
//!
//! `Arc`, `Weak` and `OnceLock` are re-exported from `std` unconditionally:
//! they are not blocking primitives, and the model checker does not need to
//! instrument them (an `OnceLock::set` race is still *observed* by the
//! checker through the surrounding lock/atomic decision points).

pub use std::sync::{Arc, OnceLock, Weak};

#[cfg(feature = "model-check")]
pub use interleave::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(not(feature = "model-check"))]
pub use std_impl::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Atomic types. Std-backed normally; every access is a model decision
/// point under `model-check`. The `Ordering` re-export is the std enum in
/// both configurations.
pub mod atomic {
    #[cfg(feature = "model-check")]
    pub use interleave::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

    #[cfg(not(feature = "model-check"))]
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
}

/// Thread spawn/join. Std-backed normally; spawns become scheduler-
/// controlled threads under `model-check`. `scope` is always the std
/// scoped-thread API (uninstrumented — see `interleave::thread`).
pub mod thread {
    #[cfg(feature = "model-check")]
    pub use interleave::thread::{
        available_parallelism, scope, sleep, spawn, yield_now, Builder, JoinHandle, Result, Scope,
        ScopedJoinHandle,
    };

    #[cfg(not(feature = "model-check"))]
    pub use std::thread::{
        available_parallelism, scope, sleep, spawn, yield_now, Builder, JoinHandle, Result, Scope,
        ScopedJoinHandle,
    };
}

/// The std-backed side of the facade: `std::sync` primitives behind the
/// same non-poisoning API the `interleave` shims expose.
#[cfg(not(feature = "model-check"))]
mod std_impl {
    use std::ops::{Deref, DerefMut};
    use std::sync::PoisonError;

    /// Mutual-exclusion lock (std-backed, non-poisoning API).
    #[derive(Debug, Default)]
    pub struct Mutex<T> {
        inner: std::sync::Mutex<T>,
    }

    /// Guard for [`Mutex`]; releases on drop.
    pub struct MutexGuard<'a, T> {
        inner: std::sync::MutexGuard<'a, T>,
    }

    impl<T> Mutex<T> {
        /// Creates a new unlocked mutex.
        pub const fn new(value: T) -> Self {
            Mutex {
                inner: std::sync::Mutex::new(value),
            }
        }

        /// Acquires the lock, blocking until it is free.
        pub fn lock(&self) -> MutexGuard<'_, T> {
            MutexGuard {
                inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
            }
        }

        /// Consumes the mutex, returning the protected value.
        pub fn into_inner(self) -> T {
            self.inner
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
        }
    }

    impl<T> Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.inner
        }
    }

    /// Condition variable (std-backed).
    #[derive(Debug, Default)]
    pub struct Condvar {
        inner: std::sync::Condvar,
    }

    impl Condvar {
        /// Creates a new condition variable.
        pub const fn new() -> Self {
            Condvar {
                inner: std::sync::Condvar::new(),
            }
        }

        /// Atomically releases the guard's mutex and waits for a
        /// notification, re-acquiring the mutex before returning. Like the
        /// std primitive it wraps, this may wake spuriously — callers loop
        /// on their predicate.
        pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
            MutexGuard {
                inner: self
                    .inner
                    .wait(guard.inner)
                    .unwrap_or_else(PoisonError::into_inner),
            }
        }

        /// Wakes all current waiters.
        pub fn notify_all(&self) {
            self.inner.notify_all();
        }

        /// Wakes one waiter.
        pub fn notify_one(&self) {
            self.inner.notify_one();
        }
    }

    /// Reader-writer lock (std-backed, non-poisoning API).
    #[derive(Debug, Default)]
    pub struct RwLock<T> {
        inner: std::sync::RwLock<T>,
    }

    /// Shared-read guard for [`RwLock`].
    pub struct RwLockReadGuard<'a, T> {
        inner: std::sync::RwLockReadGuard<'a, T>,
    }

    /// Exclusive-write guard for [`RwLock`].
    pub struct RwLockWriteGuard<'a, T> {
        inner: std::sync::RwLockWriteGuard<'a, T>,
    }

    impl<T> RwLock<T> {
        /// Creates a new unlocked lock.
        pub const fn new(value: T) -> Self {
            RwLock {
                inner: std::sync::RwLock::new(value),
            }
        }

        /// Acquires shared read access.
        pub fn read(&self) -> RwLockReadGuard<'_, T> {
            RwLockReadGuard {
                inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
            }
        }

        /// Acquires exclusive write access.
        pub fn write(&self) -> RwLockWriteGuard<'_, T> {
            RwLockWriteGuard {
                inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
            }
        }

        /// Consumes the lock, returning the protected value.
        pub fn into_inner(self) -> T {
            self.inner
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
        }
    }

    impl<T> Deref for RwLockReadGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T> Deref for RwLockWriteGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T> DerefMut for RwLockWriteGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.inner
        }
    }
}

#[cfg(test)]
mod tests {
    use super::atomic::{AtomicUsize, Ordering};
    use super::{Arc, Condvar, Mutex, RwLock};

    #[test]
    fn mutex_round_trips_without_lockresult() {
        let m = Mutex::new(1usize);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn condvar_handshake() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = super::thread::spawn(move || {
            let (flag, cv) = &*p2;
            *flag.lock() = true;
            cv.notify_one();
        });
        let (flag, cv) = &*pair;
        let mut g = flag.lock();
        while !*g {
            g = cv.wait(g);
        }
        drop(g);
        h.join().unwrap();
    }

    #[test]
    fn rwlock_and_atomics() {
        let rw = RwLock::new(7usize);
        assert_eq!(*rw.read(), 7);
        *rw.write() = 8;
        assert_eq!(rw.into_inner(), 8);
        let a = AtomicUsize::new(0);
        // ordering: test-only counter, no ordering requirement.
        a.fetch_add(3, Ordering::Relaxed);
        assert_eq!(a.load(Ordering::Relaxed), 3);
    }
}
