//! The batched serving engine.
//!
//! A [`ServingEngine`] wraps one calibrated
//! [`QueryEngine`] plus an **epoch-versioned,
//! hot-swappable** [`Materialization`] and
//! answers *batches* of typed [`ServeRequest`]s — targets plus pinned
//! evidence, the one request shape every serving surface accepts:
//!
//! 1. duplicate requests inside a batch are coalesced and computed once
//!    (workloads sample pools with replacement, so real batches repeat);
//!    the coalescing key is the whole request, so the same targets under
//!    different evidence are — correctly — different computations. Each
//!    arrival is hashed once, with the engine's keyed hasher; the dedup
//!    map, the answer cache and the epoch's scope histogram all file
//!    under that hash and compare the request itself on a match
//!    ([`peanut_core::request`] says how a request hashes);
//! 2. the unique queries are claimed work-stealing-style by `workers`
//!    **persistent** pool threads ([`WorkerPool`]), parked between batches;
//! 3. every worker owns a [`Scratch`](peanut_pgm::Scratch), so all
//!    intermediate tables of a query are recycled into the next one, and
//!    the scratches survive across batches too.
//!
//! The engine itself only resolves a batch to its epoch snapshot; the
//! steps above are the crate's one serve pipeline (`pipeline.rs`), shared
//! with the sharded engine and evidence sessions.
//!
//! Answers come back in batch order as [`Served`] handles around
//! `Arc<Answer>` — the warm path (cross-batch cache hits, in-batch
//! duplicates) never copies a table.
//!
//! # Epochs
//!
//! The materialization is not fixed at construction: [`publish`]
//! (`ServingEngine::publish`) atomically swaps in a new one, stamped with
//! the next epoch, while batches keep draining. An epoch is one value —
//! the materialization, its observation accumulator and its answer cache
//! — swapped whole under the write lock, so serving never pauses. A batch
//! serves, caches and observes under the one epoch it took at arrival, so
//! a cached answer is always of the epoch whose cache holds it; every
//! answer also carries its epoch. The [`WorkloadStats`] accumulator starts
//! empty with each epoch. Workers write nothing into it: after the wave
//! the pipeline records every answered unique request once, weighted by
//! its arrivals (fresh, duplicate and cached alike), so the lifecycle
//! layer can watch the epoch's *observed* benefit decay under workload
//! drift. A fleet's page-out parks an epoch's cache and accumulator, with
//! the most valuable messages of its tables' memo, and the engine a
//! fault-in rebuilds for that same epoch resumes them (`shard.rs`). What
//! is on disk is the tenant's, not the epoch's: one record of the newest
//! epoch saved, shared by every engine built for the tenant.
//!
//! [`publish`]: ServingEngine::publish

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use crate::overload::ServeOutcome;
use crate::pipeline::{fan_out, BatchRun, Target};
use crate::pool::{PoolCell, PoolStats, WorkerPool};
use peanut_core::exec::Executor;
use peanut_core::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use peanut_core::sync::{thread, Arc, Mutex, RwLock};
use peanut_core::{
    ByHash, FlatMaterialization, Materialization, ServeRequest, Shortcut, WorkloadStats,
};
use peanut_junction::cost::QueryCost;
use peanut_junction::{MessageMemo, QueryEngine};
use peanut_pgm::{PgmError, Potential, Size};
use peanut_store::StoreConfig;
use std::collections::VecDeque;
use std::hash::RandomState;
use std::ops::Deref;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A served answer: the distribution plus execution telemetry. Shared
/// behind `Arc` between in-batch duplicates, the answer cache, and repeat
/// arrivals in later batches — it is immutable once computed.
#[derive(Clone, Debug)]
pub struct Answer {
    /// `P(scope)` or `P(targets | evidence)`.
    pub potential: Potential,
    /// Operation-count telemetry of the (possibly shared) computation.
    pub cost: QueryCost,
    /// Operation count the plain (shortcut-free) junction tree would have
    /// charged for the same query — the baseline the epoch's observed
    /// benefit is measured against.
    pub baseline_ops: Size,
    /// Materialization epoch this answer was computed under.
    pub epoch: u64,
    /// Time spent computing this answer when it was first computed —
    /// shared by every arrival that reuses the computation.
    pub service_time: Duration,
}

/// One arrival's view of an answer: a zero-copy handle plus per-arrival
/// provenance. Dereferences to [`Answer`].
#[derive(Clone, Debug)]
pub struct Served {
    /// The shared answer.
    pub answer: Arc<Answer>,
    /// True when the answer came from the cross-batch answer cache (the
    /// arrival did no computation at all).
    pub from_cache: bool,
}

impl Served {
    /// Per-arrival latency: zero for cache hits, the shared computation
    /// time otherwise (in-batch duplicates wait on one computation).
    pub fn latency(&self) -> Duration {
        if self.from_cache {
            Duration::ZERO
        } else {
            self.answer.service_time
        }
    }
}

impl Deref for Served {
    type Target = Answer;

    fn deref(&self) -> &Answer {
        &self.answer
    }
}

/// Per-batch aggregate telemetry.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchStats {
    /// Queries submitted.
    pub queries: usize,
    /// Unique queries after in-batch coalescing.
    pub unique: usize,
    /// Unique queries served from the cross-batch answer cache.
    pub cache_hits: usize,
    /// Materialization epoch the batch was served under.
    pub epoch: u64,
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
    /// Summed operation count over freshly computed queries.
    pub total_ops: u64,
    /// Summed shortcut uses over freshly computed queries.
    pub shortcuts_used: usize,
}

/// Serving knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServingConfig {
    /// Worker threads; `0` means one per available core.
    pub workers: usize,
    /// Capacity of the cross-batch answer cache (FIFO eviction); `0`
    /// disables caching. Workloads in the paper's model (Def. 3.3) are
    /// distributions over a finite query pool, so repeated queries dominate
    /// steady-state traffic.
    pub cache_capacity: usize,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            workers: 0,
            cache_capacity: 4096,
        }
    }
}

impl ServingConfig {
    /// Sets the worker-thread count (chainable). `0` means one per core.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the answer-cache capacity (chainable). `0` disables caching.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// `workers` resolved (one per available core when `0`). Engines call
    /// this once: each `available_parallelism` call re-reads the affinity
    /// mask and the cgroup quota.
    pub(crate) fn resolved(mut self) -> Self {
        if self.workers == 0 {
            self.workers = thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
        }
        self
    }
}

/// Bounded FIFO map of fully computed answers, filed under each request's
/// keyed hash (the one [`BatchRun`] computed at push). A cache belongs to
/// one epoch ([`EpochState`]): a publish swaps in an empty one, so every
/// entry is an answer of the epoch that owns the cache. Every entry keeps
/// its request, compared on lookup, so a request whose hash collides with
/// a cached one misses instead of reading its answer. Nothing leaves the
/// map but the oldest entry on eviction, so the queue and the map hold the
/// same hashes.
pub(crate) struct AnswerCache {
    map: ByHash<(ServeRequest, Arc<Answer>)>,
    /// Hashes in insertion order, oldest first.
    order: VecDeque<u64>,
    capacity: usize,
}

impl AnswerCache {
    /// An empty cache holding at most `capacity` answers.
    fn new(capacity: usize) -> Self {
        AnswerCache {
            map: ByHash::default(),
            order: VecDeque::new(),
            capacity,
        }
    }

    /// The answer cached for request `q` under its hash `h`.
    pub(crate) fn lookup(&self, h: u64, q: &ServeRequest) -> Option<Arc<Answer>> {
        let (req, answer) = self.map.get(&h)?;
        (req == q).then(|| Arc::clone(answer))
    }

    /// Admits `a` for request `q` under its hash `h`, evicting the oldest
    /// entries past capacity. A slot already filled keeps its answer —
    /// whichever request it is for: a colliding request then stays
    /// uncached.
    pub(crate) fn insert(&mut self, h: u64, q: ServeRequest, a: Arc<Answer>) {
        if self.map.contains_key(&h) {
            return;
        }
        while self.map.len() >= self.capacity {
            let Some(oldest) = self.order.pop_front() else {
                return;
            };
            self.map.remove(&oldest);
        }
        self.order.push_back(h);
        self.map.insert(h, (q, a));
    }
}

/// One epoch, swapped as a unit by [`ServingEngine::publish`]: the
/// materialization, the accumulator observing traffic served under it
/// and the answer cache of its answers (`None` when caching is off).
struct EpochState {
    mat: Arc<Materialization>,
    stats: Arc<WorkloadStats>,
    cache: Option<Arc<Mutex<AnswerCache>>>,
}

impl EpochState {
    /// A fresh epoch serving `mat`: an accumulator filing under `hasher`
    /// (so the pipeline's request hashes are its histogram keys) and an
    /// empty cache of `cache_capacity` answers.
    fn new(mat: Materialization, hasher: &RandomState, cache_capacity: usize) -> Self {
        EpochState {
            mat: Arc::new(mat),
            stats: Arc::new(WorkloadStats::with_hasher(hasher.clone())),
            cache: (cache_capacity > 0)
                .then(|| Arc::new(Mutex::new(AnswerCache::new(cache_capacity)))),
        }
    }
}

/// What a page-out keeps of an epoch, its **front**: the epoch number,
/// its observation window and its answer cache. Both file under the
/// engine's keyed hasher, which the window carries. With the front it
/// keeps the structure a page cycle cannot change: the engine without its
/// tables (the tree's rooting and arena layout,
/// [`QueryEngine::without_tables`]) and the epoch's shortcut structures.
/// The tables (the calibrated slab, the shortcut tables) are not part of
/// it: the store file holds them, and the tenant's record, parked with the
/// front, says which file that is. Of the messages sent over the
/// calibrated tables it keeps at most as many entries as dropping the
/// tables frees, those saving the most walk per entry
/// ([`QueryEngine::take_memo`]); the materialization's memo is dropped. A
/// fault-in rebuilds only the tables on the kept structure, and resumes
/// the front and its messages when it rehydrates this same epoch
/// ([`ServingEngine::resume`]).
pub(crate) struct ParkedEpoch<'t> {
    epoch: u64,
    stats: Arc<WorkloadStats>,
    cache: Option<Arc<Mutex<AnswerCache>>>,
    /// The calibrated tables' messages, trimmed; a resume takes them.
    memo: Option<MessageMemo>,
    store: Arc<EngineStore>,
    frame: QueryEngine<'t>,
    /// The parked epoch's shortcuts, in its order; a fault-in takes them.
    shortcuts: Vec<Shortcut>,
}

impl<'t> ParkedEpoch<'t> {
    /// The file a fault-in rehydrates: the newest epoch the tenant's
    /// record holds, the parked one or one a retired handle published.
    pub(crate) fn path(&self) -> PathBuf {
        // a page-out parks only once the record holds an epoch
        let epoch = self.store.newest().unwrap_or(self.epoch);
        self.store.cfg.epoch_path(self.store.tenant, epoch)
    }

    /// The structure a rehydrate builds on: the table-less engine, and the
    /// parked shortcut structures, handed over (a second call gets none).
    pub(crate) fn take_structure(&mut self) -> (&QueryEngine<'t>, Vec<Shortcut>) {
        (&self.frame, std::mem::take(&mut self.shortcuts))
    }
}

/// A tenant's one record of what it has on disk, shared by every engine
/// built for the tenant: where its epochs are saved, the newest one saved,
/// the oldest one not yet removed and the store writes that failed.
struct EngineStore {
    cfg: StoreConfig,
    tenant: u32,
    /// One past the newest epoch durably saved (after the rename and the
    /// directory sync); `0` while none is. Only grows.
    saved: AtomicU64,
    /// Every epoch below this one has no file: removed, or never saved
    /// by this record (the epoch served when the record was attached).
    /// Only grows.
    kept_from: AtomicU64,
    /// Persists, and removals of old epochs, that failed (telemetry; the
    /// epoch keeps serving from RAM, the old file stays until the next
    /// page-out).
    errors: AtomicUsize,
}

impl EngineStore {
    /// The newest epoch durably saved, if any.
    fn newest(&self) -> Option<u64> {
        // ordering: Acquire pairs with the AcqRel in `persist_current`.
        self.saved.load(Ordering::Acquire).checked_sub(1)
    }

    /// Unlinks the files of the epochs older than the newest one saved,
    /// from the oldest not yet removed up, without listing the directory.
    /// No fault-in opens them: a fault-in opens the newest. A file already
    /// gone is fine; a failed unlink is counted in `errors` and retried at
    /// the next call. Callers hold the tenant's shard write lock, which a
    /// fault-in also takes, so two calls never race.
    fn remove_older(&self) {
        let Some(newest) = self.newest() else {
            return;
        };
        // ordering: the shard's write lock orders every call; Relaxed
        // suffices for a counter only this path moves.
        let mut low = self.kept_from.load(Ordering::Relaxed);
        while low < newest {
            match std::fs::remove_file(self.cfg.epoch_path(self.tenant, low)) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    // ordering: telemetry counter only.
                    self.errors.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                _ => low += 1,
            }
        }
        // ordering: see the load above.
        self.kept_from.store(low, Ordering::Relaxed);
    }
}

/// Batched concurrent query processor over a calibrated tree and a
/// hot-swappable, epoch-versioned materialization.
///
/// ```
/// use peanut_core::Materialization;
/// use peanut_junction::{build_junction_tree, QueryEngine};
/// use peanut_pgm::{fixtures, Scope};
/// use peanut_serving::{ServeRequest, ServingConfig, ServingEngine};
///
/// let bn = fixtures::sprinkler();
/// let tree = build_junction_tree(&bn).unwrap();
/// let engine = QueryEngine::numeric(&tree, &bn).unwrap();
/// let serving = ServingEngine::new(engine, Materialization::default(), ServingConfig::default());
///
/// let batch = [ServeRequest::marginal(Scope::from_indices(&[0]))];
/// let (outcomes, stats) = serving.serve_batch(&batch);
/// assert!(outcomes[0].is_served());
/// assert_eq!(stats.unique, 1);
/// ```
pub struct ServingEngine<'t> {
    engine: Arc<QueryEngine<'t>>,
    state: RwLock<EpochState>,
    cfg: ServingConfig,
    /// The one keyed hasher of this engine: every request it serves is
    /// hashed with it once, and the answer cache and every epoch's
    /// accumulator file under that hash.
    hasher: RandomState,
    /// Persistent workers, spawned lazily on the first batch that fans
    /// out. Engines that only ever serve sequentially never spawn a
    /// thread.
    pool: PoolCell,
    /// The tenant's on-disk record, if persistence is attached
    /// ([`set_store`](Self::set_store)).
    store: Option<Arc<EngineStore>>,
}

impl<'t> ServingEngine<'t> {
    /// Takes ownership of a (calibrated) query engine and an initial
    /// materialization (served as whatever epoch it is stamped with,
    /// 0 for a freshly selected one).
    pub fn new(engine: QueryEngine<'t>, mat: Materialization, cfg: ServingConfig) -> Self {
        let cfg = cfg.resolved();
        let hasher = RandomState::new();
        let state = EpochState::new(mat, &hasher, cfg.cache_capacity);
        Self::with_state(engine, state, cfg, hasher)
    }

    /// An engine serving the rehydrated `mat` on the record `parked`
    /// carries, resuming `parked` when it is the front of `mat`'s own
    /// epoch: every answer in the cache is then an answer of that epoch,
    /// filed under the hashes this engine computes, and every parked
    /// message one sent over the tables `engine` rehydrated from that
    /// epoch's file, bit for bit; `engine` adopts them. Any other front is
    /// dropped, as a publish drops it, and its messages with it.
    pub(crate) fn resume(
        mut engine: QueryEngine<'t>,
        mat: Materialization,
        cfg: ServingConfig,
        parked: &mut ParkedEpoch<'t>,
    ) -> Self {
        let mut serving = if mat.epoch == parked.epoch {
            if let Some(memo) = parked.memo.take() {
                engine.adopt_memo(memo);
            }
            let state = EpochState {
                mat: Arc::new(mat),
                stats: Arc::clone(&parked.stats),
                cache: parked.cache.clone(),
            };
            Self::with_state(engine, state, cfg.resolved(), parked.stats.hasher().clone())
        } else {
            Self::new(engine, mat, cfg)
        };
        serving.store = Some(Arc::clone(&parked.store));
        serving
    }

    /// An engine serving `state`, whose accumulator files under `hasher`.
    fn with_state(
        engine: QueryEngine<'t>,
        state: EpochState,
        cfg: ServingConfig,
        hasher: RandomState,
    ) -> Self {
        ServingEngine {
            engine: Arc::new(engine),
            state: RwLock::new(state),
            cfg,
            hasher,
            pool: PoolCell::new(),
            store: None,
        }
    }

    /// The served epoch's front and the tenant's record, for a page-out to
    /// park, once the record holds the served epoch (saved here if not).
    /// It shares the window and the cache, so a batch still draining on
    /// this engine files into the parked ones. The tables' messages move
    /// to the front, trimmed to the entries of the calibrated slab and the
    /// shortcut tables that dropping this engine frees; a batch still
    /// draining here files into an emptied memo, which the front never
    /// sees. The tenant's epoch files older than the record's newest are
    /// unlinked ([`EngineStore::remove_older`]): the caller holds the
    /// tenant's shard write lock.
    pub(crate) fn park(&self) -> Result<ParkedEpoch<'t>, PgmError> {
        let store = Arc::clone(self.record()?);
        if self.persisted_epoch().is_none() {
            self.persist_current()?;
        }
        store.remove_older();
        let state = self.state.read();
        let slab = self
            .engine
            .numeric_state()
            .map_or(0, |ns| ns.arena().slab().len());
        let shortcut_tables = usize::try_from(state.mat.total_size()).unwrap_or(usize::MAX);
        Ok(ParkedEpoch {
            epoch: state.mat.epoch,
            stats: Arc::clone(&state.stats),
            cache: state.cache.clone(),
            memo: self.engine.take_memo(slab.saturating_add(shortcut_tables)),
            store,
            frame: self.engine.without_tables(),
            shortcuts: state
                .mat
                .shortcuts
                .iter()
                .map(|s| s.shortcut.clone())
                .collect(),
        })
    }

    /// Whether the tenant's record holds a newer epoch than this engine
    /// serves: another engine of the tenant published and saved it.
    pub(crate) fn is_stale(&self) -> bool {
        self.store.as_ref().and_then(|s| s.newest()) > Some(self.epoch())
    }

    /// Attaches epoch persistence: every [`publish`](Self::publish) (and
    /// explicit [`persist_current`](Self::persist_current) call) writes
    /// the epoch's store file for `tenant` under `cfg.dir`. Persistence
    /// on publish is write-behind and best-effort — a failed write bumps
    /// [`persist_errors`](Self::persist_errors) and the epoch keeps
    /// serving from RAM.
    pub fn set_store(&mut self, cfg: StoreConfig, tenant: u32) {
        self.store = Some(Arc::new(EngineStore {
            cfg,
            tenant,
            saved: AtomicU64::new(0),
            kept_from: AtomicU64::new(self.epoch()),
            errors: AtomicUsize::new(0),
        }));
    }

    /// The tenant's record, or the error of an engine without a store.
    fn record(&self) -> Result<&Arc<EngineStore>, PgmError> {
        self.store.as_ref().ok_or_else(|| PgmError::StoreIo {
            path: "<unconfigured>".into(),
            msg: "engine has no store attached".into(),
        })
    }

    /// The served epoch if the tenant's record holds it or a newer epoch,
    /// `None` while it does not (or no store is attached).
    pub fn persisted_epoch(&self) -> Option<u64> {
        let epoch = self.epoch();
        (self.store.as_ref()?.newest()? >= epoch).then_some(epoch)
    }

    /// The tenant's store writes that failed — persists, and page-outs'
    /// removals of old epoch files — on this engine and on every engine
    /// built for the tenant before it.
    pub fn persist_errors(&self) -> usize {
        // ordering: telemetry counter, advisory read.
        self.store
            .as_ref()
            .map_or(0, |s| s.errors.load(Ordering::Relaxed))
    }

    /// Persists the currently served epoch to the attached store,
    /// returning the epoch written. Errors are typed ([`PgmError`]) and
    /// also counted in [`persist_errors`](Self::persist_errors).
    pub fn persist_current(&self) -> Result<u64, PgmError> {
        let store = self.record()?;
        let mat = self.materialization();
        let Some(ns) = self.engine.numeric_state() else {
            // ordering: telemetry counter only.
            store.errors.fetch_add(1, Ordering::Relaxed);
            return Err(PgmError::StoreIo {
                path: store
                    .cfg
                    .epoch_path(store.tenant, mat.epoch)
                    .display()
                    .to_string(),
                msg: "symbolic engine has no calibrated slab to persist".into(),
            });
        };
        let flat = FlatMaterialization::pack(&mat);
        match store
            .cfg
            .save_epoch(store.tenant, &mat, &flat, ns.arena().slab())
        {
            Ok(_) => {
                // ordering: AcqRel pairs with the Acquire in `newest` — the
                // rename above happens-before any reader of this epoch.
                let _ = store
                    .saved
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |saved| {
                        Some(saved.max(mat.epoch + 1))
                    });
                Ok(mat.epoch)
            }
            Err(e) => {
                // ordering: telemetry counter only.
                store.errors.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// The engine's persistent worker pool, spawning it on first use
    /// (sized by [`workers`](Self::workers)).
    pub fn pool(&self) -> &Arc<WorkerPool> {
        self.pool.get_or_spawn(self.workers())
    }

    /// Pool telemetry, if the pool has been spawned (an engine that has
    /// only served sequentially has none).
    pub fn pool_stats(&self) -> Option<PoolStats> {
        self.pool.stats()
    }

    /// Pre-spawns the worker pool so the first fanned-out batch does not
    /// pay thread-spawn latency in-band. A no-op for engines that would
    /// never fan out (one worker).
    pub fn warm_pool(&self) {
        self.pool.warm(self.workers());
    }

    /// Executor for off-path offline work (lifecycle re-selection): the
    /// persistent pool's re-materialization lane when this engine fans
    /// out — serving-lane waves preempt it between tasks, so a
    /// re-selection can never head-of-line block query traffic — the
    /// calling thread otherwise.
    pub(crate) fn offline_exec(&self) -> &dyn Executor {
        self.pool.offline_exec(self.workers())
    }

    /// The wrapped query engine.
    pub fn engine(&self) -> &QueryEngine<'t> {
        &self.engine
    }

    /// Snapshot of the currently served materialization.
    pub fn materialization(&self) -> Arc<Materialization> {
        Arc::clone(&self.state.read().mat)
    }

    /// The epoch currently being served.
    pub fn epoch(&self) -> u64 {
        self.state.read().mat.epoch
    }

    /// The current epoch's observation accumulator (per-scope arrivals,
    /// shortcut hit rates, observed vs baseline cost). Reset on every
    /// [`publish`](Self::publish).
    pub fn stats(&self) -> Arc<WorkloadStats> {
        Arc::clone(&self.state.read().stats)
    }

    /// Atomically publishes a new materialization as the next epoch and
    /// returns that epoch. Serving never pauses: in-flight batches finish
    /// on the snapshot they took and file their answers in the retired
    /// epoch's cache, while the new epoch starts with an empty cache and a
    /// fresh observation accumulator.
    pub fn publish(&self, mat: Materialization) -> u64 {
        let (epoch, retired) = {
            let mut state = self.state.write();
            let epoch = state.mat.epoch + 1;
            let next =
                EpochState::new(mat.with_epoch(epoch), &self.hasher, self.cfg.cache_capacity);
            (epoch, std::mem::replace(&mut *state, next))
        };
        // the retired epoch's cache is freed outside the write lock
        drop(retired);
        if self.store.is_some() {
            // write-behind: failures are counted (persist_errors) and the
            // epoch serves from RAM regardless
            let _ = self.persist_current();
        }
        epoch
    }

    /// The current epoch's flat pack: every dense shortcut table in one
    /// relocatable slab, stamped with the served epoch. Packed on demand
    /// from one atomic snapshot of the served materialization.
    pub fn flat_materialization(&self) -> Arc<FlatMaterialization> {
        Arc::new(FlatMaterialization::pack(&self.materialization()))
    }

    /// Starts a fresh observation window for the current epoch without
    /// changing the materialization, returning the retired accumulator.
    /// The lifecycle controller rolls the window after every decision so
    /// drift detection always looks at *recent* traffic instead of a
    /// forever-cumulative average that dilutes a distribution change.
    /// (Batches already in flight keep recording into the retired window;
    /// the next window only misses those stragglers.)
    pub fn reset_stats(&self) -> Arc<WorkloadStats> {
        let fresh = Arc::new(WorkloadStats::with_hasher(self.hasher.clone()));
        std::mem::replace(&mut self.state.write().stats, fresh)
    }

    /// What a batch arriving now is served against: the shared engine and
    /// the served epoch's materialization, observation accumulator and
    /// answer cache, taken atomically. The sharded engine takes one
    /// per routed shard up front so a whole mixed batch is served under
    /// one epoch per tenant.
    pub(crate) fn target(&self) -> Target<'t> {
        let state = self.state.read();
        Target {
            engine: Arc::clone(&self.engine),
            mat: Arc::clone(&state.mat),
            stats: Arc::clone(&state.stats),
            cache: state.cache.clone(),
            session: None,
        }
    }

    /// Serves `batch` against `target` on this engine's workers: plan one
    /// run, fan out, finish. Outcomes come back in submission order.
    pub(crate) fn serve_on(
        &self,
        target: Target<'_>,
        batch: &[ServeRequest],
    ) -> (Vec<ServeOutcome>, BatchStats) {
        let start = Instant::now();
        let mut run = BatchRun::new(target, batch.len());
        let assign: Vec<usize> = batch.iter().map(|q| run.push(q)).collect();
        run.probe();
        let work = run.work();
        let computed = fan_out(&self.pool, self.workers(), work.len(), |w, scratch| {
            run.compute(work[w], scratch)
        });
        let mut bstats = run.finish(computed.into_iter());
        let outcomes = assign.into_iter().map(|u| run.outcome(u)).collect();
        bstats.wall = start.elapsed();
        (outcomes, bstats)
    }

    /// The worker count a batch will actually use (before capping by batch
    /// size).
    pub fn workers(&self) -> usize {
        self.cfg.workers
    }

    /// Answers a batch of [`ServeRequest`]s. Outcomes come back in
    /// submission order; duplicate requests share one computation (and its
    /// telemetry). The whole batch is served under one epoch snapshot — a
    /// concurrent [`publish`](Self::publish) affects only later batches.
    /// This path never sheds, so every outcome is [`ServeOutcome::Served`]
    /// or [`ServeOutcome::Failed`].
    pub fn serve_batch(&self, batch: &[ServeRequest]) -> (Vec<ServeOutcome>, BatchStats) {
        self.serve_on(self.target(), batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peanut_junction::build_junction_tree;
    use peanut_pgm::{fixtures, joint, Scope, Var};

    fn queries(bn: &peanut_pgm::BayesianNetwork) -> Vec<ServeRequest> {
        let d = bn.domain();
        let n = d.len() as u32;
        let mut qs: Vec<ServeRequest> = (0..n)
            .flat_map(|a| {
                ((a + 1)..n.min(a + 3))
                    .map(move |b| ServeRequest::marginal(Scope::from_indices(&[a, b])))
            })
            .collect();
        qs.push(ServeRequest::new(
            Scope::from_indices(&[0]),
            vec![(Var(n - 1), 0)],
        ));
        // force duplicates
        let dup = qs[0].clone();
        qs.push(dup);
        qs
    }

    #[test]
    fn batch_answers_match_sequential_engine() {
        let bn = fixtures::figure1();
        let tree = build_junction_tree(&bn).unwrap();
        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let serving = ServingEngine::new(
            engine,
            Materialization::default(),
            ServingConfig::default().with_workers(3),
        );
        let batch = queries(&bn);
        let (answers, stats) = serving.serve_batch(&batch);
        assert_eq!(answers.len(), batch.len());
        assert_eq!(stats.queries, batch.len());
        assert_eq!(stats.epoch, 0);
        assert!(stats.unique < batch.len(), "duplicate must coalesce");
        for (q, o) in batch.iter().zip(&answers) {
            let a = o.served().expect("served");
            assert_eq!(a.epoch, 0);
            if q.is_marginal() {
                let want = joint::marginal(&bn, &q.targets).unwrap();
                assert!(a.potential.max_abs_diff(&want).unwrap() < 1e-9);
            } else {
                assert_eq!(a.potential.scope(), &q.targets);
                assert!((a.potential.sum() - 1.0).abs() < 1e-9);
            }
            assert!(a.cost.ops > 0);
            assert!(a.baseline_ops >= a.cost.ops);
        }
    }

    /// A selection fanned out on the serving pool's re-materialization
    /// lane, whose root tasks all read one offline context, is the
    /// selection the scoped executor makes, bit for bit.
    #[test]
    fn offline_selection_on_the_pool_matches_the_scoped_executor() {
        use peanut_core::exec::ScopedExecutor;
        use peanut_core::{OfflineContext, Peanut, PeanutConfig, Workload};
        use peanut_pgm::generate::{generate_network, DagConfig};
        let cfg = DagConfig {
            n_nodes: 16,
            n_edges: 20,
            max_in_degree: 3,
            window: 3,
            cardinalities: vec![2, 3],
        };
        let bn = generate_network(&cfg, 7).unwrap();
        let tree = build_junction_tree(&bn).unwrap();
        assert!(tree.n_cliques() >= 4, "the root fan-out needs 4 cliques");
        let n = bn.n_vars() as u32;
        let pairs = (0..n).flat_map(|a| (a + 1..n).map(move |b| Scope::from_indices(&[a, b])));
        let ctx = OfflineContext::new(&tree, &Workload::from_queries(pairs)).unwrap();
        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let serving = ServingEngine::new(
            engine,
            Materialization::default(),
            ServingConfig::default().with_workers(3),
        );
        for pcfg in [
            PeanutConfig::plus(tree.total_separator_size() * 10),
            PeanutConfig::disjoint(tree.total_separator_size() * 10),
        ] {
            let on_pool = Peanut::offline_with(&ctx, &pcfg, serving.offline_exec());
            let scoped = Peanut::offline_with(&ctx, &pcfg, &ScopedExecutor::new(1));
            assert!(!scoped.shortcuts.is_empty());
            assert_eq!(on_pool.shortcuts.len(), scoped.shortcuts.len());
            for (a, b) in on_pool.shortcuts.iter().zip(&scoped.shortcuts) {
                assert_eq!(a.shortcut.nodes(), b.shortcut.nodes());
                assert_eq!(a.benefit.to_bits(), b.benefit.to_bits());
                assert_eq!(a.ratio.to_bits(), b.ratio.to_bits());
            }
        }
    }

    /// `workers: 0` is resolved once, when an engine is built: the stored
    /// configuration holds the core count, so no batch asks the OS again.
    #[test]
    fn zero_workers_resolve_once_at_construction() {
        let bn = fixtures::sprinkler();
        let tree = build_junction_tree(&bn).unwrap();
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let serving = ServingEngine::new(engine, Materialization::default(), Default::default());
        assert_eq!(serving.cfg.workers, cores);
        let fleet = crate::ShardedServingEngine::new(crate::ShardConfig::default());
        assert_eq!(fleet.workers(), cores);
        assert_eq!(
            ServingConfig::default().with_workers(3).resolved().workers,
            3
        );
    }

    /// Evidence listed twice is the same request — one cache key through
    /// `ServeRequest::new`, the same bits however it was built — and two
    /// values for one variable fail as impossible evidence.
    #[test]
    fn repeated_evidence_is_served_like_the_single_pair() {
        let bn = fixtures::figure1();
        let tree = build_junction_tree(&bn).unwrap();
        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let serving =
            ServingEngine::new(engine, Materialization::default(), ServingConfig::default());
        let d = bn.domain();
        let (a, l) = (d.var("a").unwrap(), Scope::singleton(d.var("l").unwrap()));
        let batch = vec![
            ServeRequest::new(l.clone(), vec![(a, 1)]),
            ServeRequest::new(l.clone(), vec![(a, 1), (a, 1)]),
            ServeRequest {
                targets: l.clone(),
                evidence: vec![(a, 1), (a, 1)],
            },
            ServeRequest::new(l, vec![(a, 1), (a, 0)]),
        ];
        let (answers, stats) = serving.serve_batch(&batch);
        assert_eq!(stats.unique, 3, "the canonical form coalesces");
        let bits = |o: &ServeOutcome| -> Vec<u64> {
            let p = &o.served().expect("served").potential;
            p.values().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&answers[0]), bits(&answers[1]));
        assert_eq!(bits(&answers[0]), bits(&answers[2]));
        assert!(matches!(
            answers[3].failure(),
            Some(PgmError::ImpossibleEvidence(_))
        ));
    }

    #[test]
    fn errors_are_reported_per_query() {
        let bn = fixtures::sprinkler();
        let tree = build_junction_tree(&bn).unwrap();
        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let serving =
            ServingEngine::new(engine, Materialization::default(), ServingConfig::default());
        let batch = vec![
            ServeRequest::marginal(Scope::from_indices(&[0])),
            // overlapping targets/evidence is rejected per-query
            ServeRequest::new(Scope::from_indices(&[1]), vec![(Var(1), 0)]),
        ];
        let (answers, _) = serving.serve_batch(&batch);
        assert!(answers[0].is_served());
        assert!(answers[1].failure().is_some());
    }

    #[test]
    fn cache_serves_repeated_batches_zero_copy() {
        let bn = fixtures::figure1();
        let tree = build_junction_tree(&bn).unwrap();
        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let serving =
            ServingEngine::new(engine, Materialization::default(), ServingConfig::default());
        let batch = queries(&bn);
        let (first, s1) = serving.serve_batch(&batch);
        assert_eq!(s1.cache_hits, 0);
        let (second, s2) = serving.serve_batch(&batch);
        assert_eq!(s2.cache_hits, s2.unique, "second pass fully cached");
        assert_eq!(s2.total_ops, 0, "cache hits charge no fresh ops");
        for (a, b) in first.iter().zip(&second) {
            let (a, b) = (a.served().unwrap(), b.served().unwrap());
            // the warm path must share the first pass's table, not copy it
            assert!(
                Arc::ptr_eq(&a.answer, &b.answer),
                "cache hit must be zero-copy"
            );
            assert!(b.from_cache);
            assert_eq!(b.latency(), Duration::ZERO);
        }
    }

    /// Entries in the served epoch's answer cache.
    fn cached(serving: &ServingEngine<'_>) -> usize {
        let state = serving.state.read();
        state.cache.as_ref().map_or(0, |c| c.lock().map.len())
    }

    #[test]
    fn cache_eviction_respects_capacity() {
        let bn = fixtures::sprinkler();
        let tree = build_junction_tree(&bn).unwrap();
        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let serving = ServingEngine::new(
            engine,
            Materialization::default(),
            ServingConfig::default().with_cache_capacity(2),
        );
        let qs: Vec<ServeRequest> = (0..4u32)
            .map(|i| ServeRequest::marginal(Scope::from_indices(&[i])))
            .collect();
        serving.serve_batch(&qs);
        let n = cached(&serving);
        assert!(n <= 2, "capacity bound violated: {n}");
    }

    /// A batch that took its snapshot before a publish is served, cached
    /// and observed under the retired epoch: its answers land in the
    /// retired cache only, and the new epoch's cache stays empty.
    #[test]
    fn a_pre_publish_run_files_only_in_the_retired_cache() {
        let bn = fixtures::sprinkler();
        let tree = build_junction_tree(&bn).unwrap();
        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let serving =
            ServingEngine::new(engine, Materialization::default(), ServingConfig::default());
        let batch = [
            ServeRequest::marginal(Scope::from_indices(&[0, 2])),
            ServeRequest::marginal(Scope::from_indices(&[1])),
        ];
        let before = serving.target();
        let retired = before.cache.clone().expect("caching is on");
        assert_eq!(serving.publish(Materialization::default()), 1);

        let (answers, stats) = serving.serve_on(before, &batch);
        assert_eq!((stats.epoch, stats.cache_hits), (0, 0));
        assert!(answers.iter().all(|o| o.served().unwrap().epoch == 0));
        assert_eq!(retired.lock().map.len(), 2, "filed in the retired cache");
        assert_eq!(cached(&serving), 0, "the new epoch's cache is untouched");

        let (answers, stats) = serving.serve_batch(&batch);
        assert_eq!((stats.epoch, stats.cache_hits), (1, 0));
        assert!(answers.iter().all(|o| o.served().unwrap().epoch == 1));
        assert_eq!(cached(&serving), 2);
    }

    /// Two different requests filed under one hash: neither reads the
    /// other's entry, and a colliding insert does not displace a live
    /// answer.
    #[test]
    fn colliding_requests_only_ever_miss() {
        let bn = fixtures::sprinkler();
        let tree = build_junction_tree(&bn).unwrap();
        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let serving =
            ServingEngine::new(engine, Materialization::default(), ServingConfig::default());
        let a = ServeRequest::marginal(Scope::from_indices(&[0]));
        let b = ServeRequest::marginal(Scope::from_indices(&[1]));
        let (answers, _) = serving.serve_batch(&[a.clone(), b.clone()]);
        let answer = |u: usize| Arc::clone(&answers[u].served().unwrap().answer);
        const H: u64 = 7;
        let mut cache = AnswerCache::new(4);
        cache.insert(H, a.clone(), answer(0));
        assert!(cache.lookup(H, &b).is_none());
        cache.insert(H, b.clone(), answer(1));
        let hit = cache.lookup(H, &a).expect("a keeps its slot");
        assert_eq!(hit.potential.scope(), &a.targets);
        assert!(cache.lookup(H, &b).is_none());
        assert_eq!((cache.map.len(), cache.order.len()), (1, 1));
    }

    #[test]
    fn cache_map_stays_within_capacity_across_publishes() {
        let bn = fixtures::sprinkler();
        let tree = build_junction_tree(&bn).unwrap();
        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let serving = ServingEngine::new(
            engine,
            Materialization::default(),
            ServingConfig::default().with_cache_capacity(4),
        );
        // six distinct requests, two more than the cache holds
        let batch: Vec<ServeRequest> = [&[0][..], &[1], &[2], &[3], &[0, 1], &[2, 3]]
            .into_iter()
            .map(|s| ServeRequest::marginal(Scope::from_indices(s)))
            .collect();
        for _ in 0..20 {
            serving.serve_batch(&batch);
            assert_eq!(cached(&serving), 4, "a full cache holds its capacity");
            serving.publish(Materialization::default());
            assert_eq!(cached(&serving), 0, "a publish swaps in an empty cache");
        }
    }

    #[test]
    fn publish_bumps_epoch_and_swaps_in_an_empty_cache() {
        let bn = fixtures::figure1();
        let tree = build_junction_tree(&bn).unwrap();
        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let serving =
            ServingEngine::new(engine, Materialization::default(), ServingConfig::default());
        let batch = queries(&bn);
        let (first, _) = serving.serve_batch(&batch);
        assert_eq!(serving.epoch(), 0);

        let epoch = serving.publish(Materialization::default());
        assert_eq!(epoch, 1);
        assert_eq!(serving.epoch(), 1);
        // epoch 0's answers went with its cache
        let (second, s2) = serving.serve_batch(&batch);
        assert_eq!(s2.cache_hits, 0, "pre-swap answers must not hit");
        for (a, b) in first.iter().zip(&second) {
            let (a, b) = (a.served().unwrap(), b.served().unwrap());
            assert_eq!(a.epoch, 0);
            assert_eq!(b.epoch, 1);
            assert!(!b.from_cache);
            assert_eq!(a.potential.values(), b.potential.values());
        }
        // third pass hits the epoch-1 entries
        let (_, s3) = serving.serve_batch(&batch);
        assert_eq!(s3.cache_hits, s3.unique);
    }

    #[test]
    fn publish_packs_flat_slab_atomically() {
        use peanut_core::Shortcut;
        use peanut_junction::{NumericState, RootedTree};
        let bn = fixtures::figure1();
        let tree = build_junction_tree(&bn).unwrap();
        let rooted = RootedTree::new(&tree);
        let mut ns = NumericState::initialize(&tree, &bn).unwrap();
        ns.calibrate(&tree, &rooted).unwrap();
        let s = Shortcut::from_nodes(&tree, &rooted, vec![0]).unwrap();
        let (pot, _) = s.materialize(&tree, &rooted, &ns).unwrap();
        let mat = Materialization::new(
            vec![peanut_core::MaterializedShortcut {
                ratio: 1.0,
                benefit: 1.0,
                potential: Some(pot.clone()),
                shortcut: s,
            }],
            false,
        );

        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let serving =
            ServingEngine::new(engine, Materialization::default(), ServingConfig::default());
        assert!(serving.flat_materialization().is_empty());

        let epoch = serving.publish(mat);
        let flat = serving.flat_materialization();
        // the pack carries the published epoch and the exact table bytes —
        // the relocatable artifact a per-epoch store would persist
        assert_eq!(flat.epoch(), epoch);
        assert_eq!(flat.len(), 1);
        assert_eq!(flat.span(0), Some((0, pot.len())));
        for (a, b) in flat.slab().iter().zip(pot.values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn stats_weigh_arrivals_not_computations() {
        let bn = fixtures::sprinkler();
        let tree = build_junction_tree(&bn).unwrap();
        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let serving =
            ServingEngine::new(engine, Materialization::default(), ServingConfig::default());
        let q = ServeRequest::marginal(Scope::from_indices(&[0, 3]));
        let batch = vec![q.clone(), q.clone(), q.clone()];
        serving.serve_batch(&batch); // 1 computation, 3 arrivals
        serving.serve_batch(&batch); // 1 cache hit, 3 arrivals
        let snap = serving.stats().snapshot();
        assert_eq!(snap.queries, 6, "stats must count arrivals");
        let counts = serving.stats().scope_counts();
        assert_eq!(counts.len(), 1);
        assert_eq!(counts[0].1, 6);
        // publish resets the accumulator for the new epoch
        serving.publish(Materialization::default());
        assert_eq!(serving.stats().snapshot().queries, 0);
    }

    #[test]
    fn empty_batch_is_fine() {
        let bn = fixtures::sprinkler();
        let tree = build_junction_tree(&bn).unwrap();
        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let serving =
            ServingEngine::new(engine, Materialization::default(), ServingConfig::default());
        let (answers, stats) = serving.serve_batch(&[]);
        assert!(answers.is_empty());
        assert_eq!(stats.queries, 0);
    }
}
