//! Multi-tenant sharded serving: one engine, many trees, shared workers.
//!
//! A [`ShardedServingEngine`] is a registry of tenants — each a calibrated
//! [`QueryEngine`] with its own
//! epoch-versioned [`Materialization`],
//! per-epoch [`WorkloadStats`](peanut_core::WorkloadStats) accumulator and
//! answer cache (the per-tree epoch state of the lifecycle layer, made the
//! unit of sharding) — behind **one** worker pool.
//!
//! [`serve_mixed`](ShardedServingEngine::serve_mixed) accepts a batch of
//! `(TenantId, ServeRequest)` arrivals, the traffic shape a fleet endpoint
//! drains:
//!
//! 1. arrivals are routed to their shard and deduplicated **per tenant**
//!    (two tenants asking the same request are different computations over
//!    different models — answers never cross shards);
//! 2. each shard's unique queries probe the answer cache of that shard's
//!    served epoch (one lock scope per shard, exactly as in single-tenant
//!    serving);
//! 3. the remaining work items of *all* shards are flattened into one list
//!    and claimed work-stealing-style by the shared pool — a worker serves
//!    whatever tenant's query comes next, reusing one
//!    [`Scratch`](peanut_pgm::Scratch) across tenants, so a traffic spike
//!    on one tenant soaks up the whole pool instead of its private slice.
//!
//! Per-tenant epoch state stays fully isolated: a
//! [`publish`](crate::ServingEngine::publish) on one tenant bumps only that
//! tenant's epoch and swaps in an empty cache for that tenant only.
//!
//! # Cold-tenant paging
//!
//! With a [`StoreConfig`] attached ([`set_store`](ShardedServingEngine::set_store))
//! and [`max_resident`](ShardConfig::max_resident) set, the registry becomes
//! an LRU **resident set**: registration persists each tenant's epoch to the
//! store, and after every mixed batch the least-recently-used tenants beyond
//! the cap are paged out. A batch is served at once, so every tenant it
//! touched is equally recent; among those the tenant with fewer arrivals
//! in the batch is the colder one, and a full tie goes to registry order.
//! Under skewed traffic, where nearly every batch touches every tenant,
//! this keeps the busy tenants resident.
//!
//! A page-out drops the tenant's **tables** — the calibrated slab and the
//! shortcut tables, which the store file holds, and the materialization's
//! message memo — and parks its epoch's **front**: the epoch number, the
//! answer cache (at most [`cache_capacity`](ServingConfig::cache_capacity)
//! answers) and the observation window, both filed under the engine's
//! keyed hasher, with the tenant's one record of what it has on disk,
//! shared by every engine built for the tenant. The front also keeps the
//! structure no page cycle changes: the tree's rooting and arena layout
//! (shared, not copied) and the epoch's shortcut structures, without
//! their tables. Of the calibrated tables' message memo it keeps at most
//! as many entries as the dropped tables held, the messages that save the
//! most walk per entry ([`QueryEngine::take_memo`]). The page-out also
//! unlinks the tenant's epoch files older than the newest one its record
//! holds, which no fault-in opens, so a store directory holds one file
//! per paged tenant however often it publishes.
//!
//! A paged-out tenant's next arrival faults it back in by rehydrating the
//! newest epoch the record holds (one file read, no directory listing, no
//! calibration, no selection DP). The fault-in rebuilds only the tables,
//! each decoded once from the file into the `Vec` that serves it; a
//! persisted shortcut whose node list is the kept one's at its position
//! is taken from the front, every other one is derived from the file and
//! validated against the tree. The tenant answers bit-identically to an
//! always-resident fleet. When the file is the parked epoch, the engine
//! resumes the front: the epoch's answers hit again, its window keeps the
//! arrivals served before the page-out, and its calibrated tables —
//! bit-identical to the ones the parked messages were sent over — adopt
//! those messages (counted in [`PagingStats::memo_resumed`]). A newer one
//! (a publish on an engine handle held across the page-out) drops the
//! front and its messages, as a publish drops them, and starts with empty
//! memos; a resident engine older than its record is rebuilt the same way
//! at its next access.
//! Fault/page-out telemetry lands in
//! [`MixedBatchStats`] per batch and in [`PagingStats`] cumulatively.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use crate::engine::{BatchStats, ParkedEpoch, ServingConfig, ServingEngine};
use crate::overload::ServeOutcome;
use crate::pipeline::{fan_out, BatchRun};
use crate::pool::{PoolCell, PoolStats, WorkerPool};
use peanut_core::exec::Executor;
use peanut_core::sync::atomic::{AtomicU64, Ordering};
use peanut_core::sync::{Arc, RwLock};
use peanut_core::{Materialization, ServeRequest};
use peanut_junction::QueryEngine;
use peanut_pgm::PgmError;
use peanut_store::{StoreConfig, StoredEpoch};
use std::time::{Duration, Instant};

/// Identifies one tenant (one model) of a sharded engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

/// Fleet-level serving knobs: the serving options every tenant engine
/// inherits, plus the resident-set cap.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardConfig {
    /// Per-tenant serving options. `workers` sizes the **shared** pool
    /// (`0` means one per core); tenant engines themselves run one worker.
    pub serving: ServingConfig,
    /// Resident-set cap: at most this many tenants keep an engine in RAM;
    /// the least-recently-used beyond it are paged out to the store after
    /// each batch — among tenants last touched by the same batch, those
    /// with fewer arrivals in it first, then in registry order. `0`
    /// (default) disables paging. Takes effect only with a store attached
    /// ([`set_store`](ShardedServingEngine::set_store)).
    pub max_resident: usize,
}

impl ShardConfig {
    /// Sets the shared worker-thread count (chainable). `0` means one per
    /// core.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.serving.workers = workers;
        self
    }

    /// Sets the per-tenant answer-cache capacity (chainable).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.serving.cache_capacity = capacity;
        self
    }

    /// Sets the resident-set cap (chainable). `0` disables paging.
    pub fn with_max_resident(mut self, max_resident: usize) -> Self {
        self.max_resident = max_resident;
        self
    }
}

/// Fleet-level telemetry of one mixed batch.
#[derive(Clone, Debug, Default)]
pub struct MixedBatchStats {
    /// Arrivals submitted.
    pub arrivals: usize,
    /// Arrivals rejected because their tenant is not registered.
    pub unknown_tenant: usize,
    /// Unique `(tenant, query)` computations after per-tenant coalescing.
    pub unique: usize,
    /// Unique queries served from a shard's answer cache.
    pub cache_hits: usize,
    /// Summed operation count over freshly computed queries, all shards.
    pub total_ops: u64,
    /// Summed shortcut uses over freshly computed queries, all shards.
    pub shortcuts_used: usize,
    /// Wall-clock time of the whole mixed batch.
    pub wall: Duration,
    /// Tenants faulted in from the store during this batch.
    pub faults: usize,
    /// Fault-ins that failed (all of the tenant's arrivals errored), and
    /// page-outs after the batch whose persist failed (the tenant stayed
    /// resident).
    pub fault_errors: usize,
    /// Tenants paged out at the end of this batch.
    pub page_outs: usize,
    /// Tenants resident after this batch (and its evictions).
    pub resident: usize,
    /// Wall-clock time spent faulting tenants in during this batch.
    pub fault_wall: Duration,
    /// Per-tenant breakdown (only tenants with arrivals in this batch),
    /// in registry order. `wall` on the entries is the whole batch's.
    pub per_tenant: Vec<(TenantId, BatchStats)>,
}

/// Cumulative paging telemetry of a sharded engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct PagingStats {
    /// Registered tenants.
    pub registered: usize,
    /// Tenants currently holding an engine in RAM.
    pub resident: usize,
    /// The configured resident-set cap (`0` = unlimited).
    pub max_resident: usize,
    /// Tenants faulted in from the store since construction.
    pub faults: u64,
    /// Fault-ins that failed, and page-outs whose persist failed (the
    /// tenant stayed resident).
    pub fault_errors: u64,
    /// Tenants paged out since construction.
    pub page_outs: u64,
    /// Table entries of the message memos fault-ins resumed since
    /// construction: what the page-outs parked of the calibrated tables'
    /// messages, for the fault-ins that rehydrated the parked epoch.
    pub memo_resumed: u64,
    /// Total wall-clock time spent faulting tenants in.
    pub fault_wall: Duration,
}

struct TenantShard<'t> {
    id: TenantId,
    /// The engine while resident, its epoch's front while paged out.
    resident: RwLock<Residency<'t>>,
    /// [`stamp`] of the last access: its fleet-clock tick, then the
    /// arrivals it brought. The smallest stamp is evicted first.
    last_used: AtomicU64,
}

/// What a tenant holds in RAM.
enum Residency<'t> {
    /// The whole engine.
    Resident(Arc<ServingEngine<'t>>),
    /// Paged out: the tables are in the store only, and the epoch's front
    /// waits for the next fault-in (boxed: it is many times the size of
    /// the resident handle).
    Parked(Box<ParkedEpoch<'t>>),
}

impl<'t> Residency<'t> {
    /// The engine, if resident.
    fn engine(&self) -> Option<&Arc<ServingEngine<'t>>> {
        match self {
            Residency::Resident(engine) => Some(engine),
            Residency::Parked(_) => None,
        }
    }
}

/// An eviction-order stamp: the fleet-clock `tick` of an access in the
/// high 32 bits, the arrivals it brought (saturating) in the low 32. As a
/// `u64` it orders by tick, then by arrivals; the tick field holds 2³²
/// batches and lone accesses before it wraps.
fn stamp(tick: u64, arrivals: usize) -> u64 {
    (tick << 32) | u64::from(u32::try_from(arrivals).unwrap_or(u32::MAX))
}

/// A registry of per-tenant serving engines sharing one worker pool.
///
/// ```
/// use peanut_core::Materialization;
/// use peanut_junction::{build_junction_tree, QueryEngine};
/// use peanut_pgm::{fixtures, Scope};
/// use peanut_serving::{ServeRequest, ShardConfig, ShardedServingEngine, TenantId};
///
/// let bn = fixtures::sprinkler();
/// let tree = build_junction_tree(&bn).unwrap();
/// let mut fleet = ShardedServingEngine::new(ShardConfig::default());
/// fleet
///     .register(
///         TenantId(0),
///         QueryEngine::numeric(&tree, &bn).unwrap(),
///         Materialization::default(),
///     )
///     .unwrap();
///
/// let arrivals = [(TenantId(0), ServeRequest::marginal(Scope::from_indices(&[1])))];
/// let (outcomes, stats) = fleet.serve_mixed(&arrivals);
/// assert!(outcomes[0].is_served());
/// assert_eq!(stats.per_tenant.len(), 1);
/// ```
pub struct ShardedServingEngine<'t> {
    /// Sorted by id, so a tenant's slot is a binary search.
    shards: Vec<TenantShard<'t>>,
    cfg: ShardConfig,
    /// The **one** persistent pool every shard's fresh work fans out on,
    /// spawned lazily on the first mixed batch that needs it.
    pool: PoolCell,
    /// Epoch persistence + paging backend; `None` keeps every tenant
    /// resident forever (the pre-store behavior).
    store: Option<StoreConfig>,
    /// Logical fleet clock, feeding `last_used`: one tick per mixed batch
    /// (shared by every tenant it routes to, whose stamps then order by
    /// their arrivals in it) and one per lone [`tenant`](Self::tenant)
    /// access.
    clock: AtomicU64,
    faults: AtomicU64,
    fault_errors: AtomicU64,
    page_outs: AtomicU64,
    memo_resumed: AtomicU64,
    fault_nanos: AtomicU64,
}

impl<'t> ShardedServingEngine<'t> {
    /// An empty registry.
    pub fn new(cfg: ShardConfig) -> Self {
        ShardedServingEngine {
            shards: Vec::new(),
            cfg: ShardConfig {
                serving: cfg.serving.resolved(),
                ..cfg
            },
            pool: PoolCell::new(),
            store: None,
            clock: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            fault_errors: AtomicU64::new(0),
            page_outs: AtomicU64::new(0),
            memo_resumed: AtomicU64::new(0),
            fault_nanos: AtomicU64::new(0),
        }
    }

    /// Attaches epoch persistence and enables paging: tenants registered
    /// from here on persist their epoch on registration and on every
    /// publish, and — with [`ShardConfig::max_resident`] set — cold
    /// tenants page out to `cfg.dir` after each batch. Attach before
    /// registering tenants.
    pub fn set_store(&mut self, cfg: StoreConfig) {
        self.store = Some(cfg);
    }

    /// The attached store configuration, if any.
    pub fn store(&self) -> Option<&StoreConfig> {
        self.store.as_ref()
    }

    /// The fleet's shared persistent worker pool, spawning it on first
    /// use (sized by [`workers`](Self::workers)).
    pub fn pool(&self) -> &Arc<WorkerPool> {
        self.pool.get_or_spawn(self.workers())
    }

    /// Shared-pool telemetry, if the pool has been spawned.
    pub fn pool_stats(&self) -> Option<PoolStats> {
        self.pool.stats()
    }

    /// Pre-spawns the shared pool so the first fanned-out mixed batch
    /// does not pay thread-spawn latency in-band. A no-op when mixed
    /// batches would never fan out.
    pub fn warm_pool(&self) {
        self.pool.warm(self.workers());
    }

    /// Executor for off-path fleet work (candidate re-selection): the
    /// shared pool's re-materialization lane when mixed batches fan out
    /// (so a fleet re-selection never head-of-line blocks serving waves),
    /// the calling thread otherwise.
    pub(crate) fn offline_exec(&self) -> &dyn Executor {
        self.pool.offline_exec(self.workers())
    }

    /// Registers a tenant: a calibrated engine plus its initial
    /// materialization. Fails when the id is already taken. The tenant's
    /// private engine is configured with one worker — batch fan-out belongs
    /// to the shared pool, not the shard.
    ///
    /// With a store attached, registration also persists the tenant's
    /// initial epoch (so it can be paged out before its first publish);
    /// a failed write fails the registration loudly. Persistence needs a
    /// calibrated slab, so store-backed fleets require numeric engines.
    pub fn register(
        &mut self,
        id: TenantId,
        engine: QueryEngine<'t>,
        mat: Materialization,
    ) -> Result<(), PgmError> {
        // keep the registry sorted by id so every fleet-level iteration
        // (controller ticks, telemetry) is deterministic
        let Err(at) = self.shards.binary_search_by_key(&id, |s| s.id) else {
            return Err(PgmError::DuplicateTenant(id.0));
        };
        let mut serving = ServingEngine::new(engine, mat, self.tenant_config());
        if let Some(store) = &self.store {
            serving.set_store(store.clone(), id.0);
            serving.persist_current()?;
        }
        self.shards.insert(
            at,
            TenantShard {
                id,
                resident: RwLock::new(Residency::Resident(Arc::new(serving))),
                // ordering: registration happens under `&mut self`.
                last_used: AtomicU64::new(stamp(self.clock.load(Ordering::Relaxed), 0)),
            },
        );
        Ok(())
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True when no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The registry slot of tenant `id`, if registered.
    fn slot(&self, id: TenantId) -> Option<usize> {
        self.shards.binary_search_by_key(&id, |s| s.id).ok()
    }

    /// The per-tenant serving engine (epoch state, stats, cache — and
    /// [`publish`](ServingEngine::publish) for tenant-local swaps),
    /// faulting it in from the store when paged out. `None` for unknown
    /// tenants — and for paged-out tenants whose fault-in failed (counted
    /// in [`PagingStats::fault_errors`]).
    pub fn tenant(&self, id: TenantId) -> Option<Arc<ServingEngine<'t>>> {
        let slot = self.slot(id)?;
        self.touch(slot, self.tick(), 1);
        let engine = self.shard_engine(slot).ok()?;
        self.enforce_residency();
        Some(engine)
    }

    /// All **resident** tenants with their engines, in id order. Paged-out
    /// tenants are skipped — fleet-level iteration (controller ticks,
    /// telemetry) works the hot set, not the archive; ask for a cold
    /// tenant by id ([`tenant`](Self::tenant)) to fault it in. A skipped
    /// tenant holds only its parked epoch front: at most
    /// [`cache_capacity`](ServingConfig::cache_capacity) answers, its
    /// observation window, which keeps the arrivals it counted until the
    /// tenant is resident again, and messages of at most as many entries
    /// as its dropped tables held.
    pub fn tenants(&self) -> Vec<(TenantId, Arc<ServingEngine<'t>>)> {
        self.shards
            .iter()
            .filter_map(|s| s.resident.read().engine().map(|e| (s.id, Arc::clone(e))))
            .collect()
    }

    /// Tenants currently holding an engine in RAM.
    pub fn resident_len(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| s.resident.read().engine().is_some())
            .count()
    }

    /// Cumulative paging telemetry.
    pub fn paging_stats(&self) -> PagingStats {
        // ordering: telemetry counters, advisory reads.
        let faults = self.faults.load(Ordering::Relaxed);
        let fault_errors = self.fault_errors.load(Ordering::Relaxed);
        let page_outs = self.page_outs.load(Ordering::Relaxed);
        let memo_resumed = self.memo_resumed.load(Ordering::Relaxed);
        // ordering: same — advisory read of the fault wall-time counter.
        let fault_wall = Duration::from_nanos(self.fault_nanos.load(Ordering::Relaxed));
        PagingStats {
            registered: self.shards.len(),
            resident: self.resident_len(),
            max_resident: self.cfg.max_resident,
            faults,
            fault_errors,
            page_outs,
            memo_resumed,
            fault_wall,
        }
    }

    /// The per-tenant engine configuration: shards inherit the fleet's
    /// cache capacity but always run one worker — batch fan-out belongs
    /// to the shared pool, not the shard.
    fn tenant_config(&self) -> ServingConfig {
        self.cfg.serving.with_workers(1)
    }

    /// Advances the fleet clock by one tick and returns the new value.
    fn tick(&self) -> u64 {
        // ordering: the clock only orders LRU eviction; ties are benign.
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Records an access to `slot` at clock value `tick` that brought
    /// `arrivals` arrivals.
    fn touch(&self, slot: usize, tick: u64, arrivals: usize) {
        // ordering: advisory recency stamp read by the evictor; a stale
        // read evicts a slightly-warmer tenant, never corrupts state.
        self.shards[slot]
            .last_used
            .store(stamp(tick, arrivals), Ordering::Relaxed);
    }

    /// The engine of `slot`, faulting it in from the store when paged out
    /// or older than the tenant's record (a publish on a handle a page-out
    /// retired). Fault-ins and their wall time land in the paging counters.
    fn shard_engine(&self, slot: usize) -> Result<Arc<ServingEngine<'t>>, PgmError> {
        let shard = &self.shards[slot];
        if let Some(engine) = shard.resident.read().engine().filter(|e| !e.is_stale()) {
            return Ok(Arc::clone(engine));
        }
        let mut resident = shard.resident.write();
        // double-check: another thread may have faulted it in while we
        // waited for the write lock
        let mut retired;
        let parked: &mut ParkedEpoch<'t> = match &mut *resident {
            Residency::Resident(engine) if !engine.is_stale() => return Ok(Arc::clone(engine)),
            Residency::Resident(engine) => {
                retired = engine.park()?;
                &mut retired
            }
            Residency::Parked(parked) => parked,
        };
        let t0 = Instant::now();
        let faulted = self.fault_in(parked);
        // ordering: telemetry counters only.
        self.fault_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        match faulted {
            Ok(engine) => {
                // ordering: telemetry counter only.
                self.faults.fetch_add(1, Ordering::Relaxed);
                *resident = Residency::Resident(Arc::clone(&engine));
                Ok(engine)
            }
            Err(e) => {
                // ordering: telemetry counter only.
                self.fault_errors.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Rehydrates the newest epoch the tenant's record, carried by the
    /// `parked` front, holds. Only the tables are rebuilt: the file's
    /// calibrated slab and shortcut tables move onto the structure the
    /// front kept — the rooting, the arena layout and the parked epoch's
    /// shortcut structures, which the file's node lists are checked
    /// against ([`StoredEpoch::rehydrate`]) — with no calibration pass and
    /// no selection DP. The front, and the calibrated tables' messages it
    /// parked, are resumed when the file is its epoch
    /// ([`ServingEngine::resume`]); the entries resumed land in
    /// [`PagingStats::memo_resumed`]. A failed fault-in leaves it parked;
    /// its shortcut structures are then derived from the file next time.
    fn fault_in(&self, parked: &mut ParkedEpoch<'t>) -> Result<Arc<ServingEngine<'t>>, PgmError> {
        let stored = StoredEpoch::open(&parked.path(), true)?;
        let (frame, kept) = parked.take_structure();
        let (engine, mat) = stored.rehydrate(frame, kept)?;
        let serving = ServingEngine::resume(engine, mat, self.tenant_config(), parked);
        // ordering: telemetry counter only.
        self.memo_resumed
            .fetch_add(serving.engine().memo_usage().0 as u64, Ordering::Relaxed);
        Ok(Arc::new(serving))
    }

    /// Pages `slot` out: saves its current epoch unless the tenant's
    /// record holds it, then drops the engine's tables and parks its
    /// epoch's front with the record ([`ParkedEpoch`]), and the calibrated
    /// tables' messages trimmed to the entries the dropped tables held.
    /// Returns whether the slot was resident. Publishes already persist
    /// write-behind, so the common page-out writes nothing: it swaps the
    /// engine `Arc` for the front, which shares the epoch's cache and
    /// window. Under the same write lock it unlinks the tenant's epoch
    /// files older than the record's newest; a failed unlink is counted in
    /// [`ServingEngine::persist_errors`], never as a fault error.
    fn page_out(&self, slot: usize) -> Result<bool, PgmError> {
        let shard = &self.shards[slot];
        let mut resident = shard.resident.write();
        let Residency::Resident(engine) = &*resident else {
            return Ok(false);
        };
        *resident = Residency::Parked(Box::new(engine.park()?));
        // ordering: telemetry counter only.
        self.page_outs.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }

    /// Evicts least-recently-used tenants until the resident set fits
    /// [`ShardConfig::max_resident`]: the smallest stamp first — the
    /// oldest tick, then the fewest arrivals under it, then registry
    /// order. A no-op without a store or a cap. A
    /// tenant whose persist fails stays resident (never drop the only
    /// copy); the error is counted in [`PagingStats::fault_errors`].
    pub fn enforce_residency(&self) {
        if self.store.is_none() || self.cfg.max_resident == 0 {
            return;
        }
        let mut skip: Vec<usize> = Vec::new();
        while self.resident_len() > self.cfg.max_resident {
            let coldest = self
                .shards
                .iter()
                .enumerate()
                .filter(|(slot, s)| !skip.contains(slot) && s.resident.read().engine().is_some())
                // ordering: advisory recency stamp; see `touch`.
                .min_by_key(|(_, s)| s.last_used.load(Ordering::Relaxed));
            let Some((slot, _)) = coldest else { break };
            if self.page_out(slot).is_err() {
                // ordering: telemetry counter only.
                self.fault_errors.fetch_add(1, Ordering::Relaxed);
                skip.push(slot);
            }
        }
    }

    /// The worker count a mixed batch will actually use (before capping by
    /// the amount of fresh work).
    pub fn workers(&self) -> usize {
        self.cfg.serving.workers
    }

    /// Answers a mixed batch of `(tenant, request)` arrivals. Outcomes
    /// come back in submission order (unknown tenants and fault failures
    /// are [`ServeOutcome::Failed`], never a batch error). Duplicates
    /// coalesce *within* a tenant only; every shard keeps its own cache
    /// and epoch. All shards' fresh work is served by one shared pool.
    pub fn serve_mixed(
        &self,
        batch: &[(TenantId, ServeRequest)],
    ) -> (Vec<ServeOutcome>, MixedBatchStats) {
        let start = Instant::now();
        let mut mstats = MixedBatchStats {
            arrivals: batch.len(),
            ..MixedBatchStats::default()
        };
        if batch.is_empty() {
            return (Vec::new(), mstats);
        }
        let paging0 = self.paging_stats();
        let now = self.tick();

        // --- route arrivals to shards ---
        // assign[i] = (shard slot, unique index within the shard's run),
        // the unique index filled in once the shard has a run
        let mut arrivals = vec![0usize; self.shards.len()];
        let mut assign: Vec<Option<(usize, usize)>> = batch
            .iter()
            .map(|(tid, _)| {
                let slot = self.slot(*tid);
                match slot {
                    Some(slot) => arrivals[slot] += 1,
                    None => mstats.unknown_tenant += 1,
                }
                slot.map(|slot| (slot, 0))
            })
            .collect();

        // --- one run per routed shard, faulting paged-out tenants in ---
        // A failed fault-in errors every arrival of that tenant, never the
        // batch: the other shards keep serving. Each run takes its shard's
        // epoch snapshot up front, so the whole mixed batch is served under
        // one epoch per tenant.
        let mut routed: Vec<Option<Result<BatchRun<'_, 't>, PgmError>>> = arrivals
            .iter()
            .enumerate()
            .map(|(slot, &n)| {
                (n > 0).then(|| {
                    self.touch(slot, now, n);
                    let engine = self.shard_engine(slot)?;
                    Ok(BatchRun::new(engine.target(), n))
                })
            })
            .collect();

        // --- per-tenant dedup, then one cache probe per shard ---
        for ((_, q), a) in batch.iter().zip(&mut assign) {
            if let Some((slot, u)) = a {
                if let Some(Ok(run)) = &mut routed[*slot] {
                    *u = run.push(q);
                }
            }
        }
        for run in routed.iter_mut().flatten().flatten() {
            run.probe();
        }

        // --- shared-pool fan-out over all shards' fresh work ---
        // flattened into one list, so a worker serves whatever tenant's
        // query comes next, reusing one scratch across tenants
        let work: Vec<(&BatchRun<'_, 't>, usize)> = routed
            .iter()
            .flatten()
            .flatten()
            .flat_map(|run| run.work().iter().map(move |&u| (run, u)))
            .collect();
        let computed = fan_out(&self.pool, self.workers(), work.len(), |w, scratch| {
            let (run, u) = work[w];
            run.compute(u, scratch)
        });

        // --- per-shard admission, telemetry and arrival accounting ---
        let mut computed = computed.into_iter();
        for (shard, r) in self.shards.iter().zip(&mut routed) {
            let Some(Ok(run)) = r else { continue };
            let fresh = run.work().len();
            let bstats = run.finish(computed.by_ref().take(fresh));
            mstats.unique += bstats.unique;
            mstats.cache_hits += bstats.cache_hits;
            mstats.total_ops = mstats.total_ops.saturating_add(bstats.total_ops);
            mstats.shortcuts_used += bstats.shortcuts_used;
            mstats.per_tenant.push((shard.id, bstats));
        }

        // --- fan back out in arrival order ---
        let answers: Vec<ServeOutcome> = batch
            .iter()
            .zip(assign)
            .map(|((tid, _), a)| {
                // an assigned arrival's shard is routed, so only unknown
                // tenants fall through to `None`
                match a.and_then(|(slot, u)| Some((routed[slot].as_ref()?, u))) {
                    None => ServeOutcome::Failed(PgmError::UnknownTenant(tid.0)),
                    Some((Err(e), _)) => ServeOutcome::Failed(e.clone()),
                    Some((Ok(run), u)) => run.outcome(u),
                }
            })
            .collect();
        mstats.wall = start.elapsed();
        for (_, bstats) in &mut mstats.per_tenant {
            bstats.wall = mstats.wall;
        }

        // --- paging: evict past the cap, attribute this batch's activity ---
        self.enforce_residency();
        let paging1 = self.paging_stats();
        mstats.faults = paging1.faults.saturating_sub(paging0.faults) as usize;
        mstats.fault_errors = paging1.fault_errors.saturating_sub(paging0.fault_errors) as usize;
        mstats.page_outs = paging1.page_outs.saturating_sub(paging0.page_outs) as usize;
        mstats.fault_wall = paging1.fault_wall.saturating_sub(paging0.fault_wall);
        mstats.resident = paging1.resident;
        (answers, mstats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peanut_junction::build_junction_tree;
    use peanut_pgm::{fixtures, joint, Scope};
    use std::collections::HashMap;

    fn two_tenant_engine<'a>(
        trees: &'a [peanut_junction::JunctionTree],
        bns: &'a [peanut_pgm::BayesianNetwork],
        cfg: ShardConfig,
    ) -> ShardedServingEngine<'a> {
        let mut sharded = ShardedServingEngine::new(cfg);
        for (i, (tree, bn)) in trees.iter().zip(bns).enumerate() {
            let engine = QueryEngine::numeric(tree, bn).unwrap();
            sharded
                .register(TenantId(i as u32), engine, Materialization::default())
                .unwrap();
        }
        sharded
    }

    fn fixtures_pair() -> (
        Vec<peanut_pgm::BayesianNetwork>,
        Vec<peanut_junction::JunctionTree>,
    ) {
        let bns = vec![fixtures::figure1(), fixtures::sprinkler()];
        let trees = bns
            .iter()
            .map(|bn| build_junction_tree(bn).unwrap())
            .collect();
        (bns, trees)
    }

    #[test]
    fn mixed_batch_routes_to_the_right_model() {
        let (bns, trees) = fixtures_pair();
        let sharded = two_tenant_engine(&trees, &bns, ShardConfig::default().with_workers(3));
        // the same scope asked of both tenants must answer from each
        // tenant's own model
        let s = Scope::from_indices(&[0, 2]);
        let batch = vec![
            (TenantId(0), ServeRequest::marginal(s.clone())),
            (TenantId(1), ServeRequest::marginal(s.clone())),
            (TenantId(0), ServeRequest::marginal(s.clone())),
        ];
        let (answers, stats) = sharded.serve_mixed(&batch);
        assert_eq!(stats.arrivals, 3);
        assert_eq!(stats.unique, 2, "dedup is per tenant, never across");
        assert_eq!(stats.per_tenant.len(), 2);
        for (i, bn) in bns.iter().enumerate() {
            let want = joint::marginal(bn, &s).unwrap();
            let got = answers[i].served().unwrap();
            assert!(got.potential.max_abs_diff(&want).unwrap() < 1e-9);
        }
        // arrivals 0 and 2 are the same tenant's duplicate: shared Arc
        let (a0, a2) = (answers[0].served().unwrap(), answers[2].served().unwrap());
        assert!(Arc::ptr_eq(&a0.answer, &a2.answer));
        // different tenants must never share an answer
        let a1 = answers[1].served().unwrap();
        assert!(!Arc::ptr_eq(&a0.answer, &a1.answer));
    }

    #[test]
    fn unknown_tenant_errors_per_arrival() {
        let (bns, trees) = fixtures_pair();
        let sharded = two_tenant_engine(&trees, &bns, ShardConfig::default());
        let batch = vec![
            (
                TenantId(0),
                ServeRequest::marginal(Scope::from_indices(&[0])),
            ),
            (
                TenantId(9),
                ServeRequest::marginal(Scope::from_indices(&[0])),
            ),
        ];
        let (answers, stats) = sharded.serve_mixed(&batch);
        assert!(answers[0].is_served());
        assert_eq!(answers[1].failure(), Some(&PgmError::UnknownTenant(9)));
        assert_eq!(stats.unknown_tenant, 1);
        assert_eq!(stats.unique, 1);
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let (bns, trees) = fixtures_pair();
        let mut sharded = ShardedServingEngine::new(ShardConfig::default());
        let e1 = QueryEngine::numeric(&trees[0], &bns[0]).unwrap();
        let e2 = QueryEngine::numeric(&trees[0], &bns[0]).unwrap();
        sharded
            .register(TenantId(7), e1, Materialization::default())
            .unwrap();
        assert_eq!(
            sharded.register(TenantId(7), e2, Materialization::default()),
            Err(PgmError::DuplicateTenant(7))
        );
        assert_eq!(sharded.len(), 1);
    }

    #[test]
    fn per_tenant_caches_are_isolated_across_publish() {
        let (bns, trees) = fixtures_pair();
        let sharded = two_tenant_engine(&trees, &bns, ShardConfig::default());
        let batch: Vec<(TenantId, ServeRequest)> = (0..2u32)
            .flat_map(|t| {
                vec![
                    (
                        TenantId(t),
                        ServeRequest::marginal(Scope::from_indices(&[0, 1])),
                    ),
                    (
                        TenantId(t),
                        ServeRequest::marginal(Scope::from_indices(&[2])),
                    ),
                ]
            })
            .collect();
        let (first, _) = sharded.serve_mixed(&batch);
        // swap tenant 0 only
        let epoch = sharded
            .tenant(TenantId(0))
            .unwrap()
            .publish(Materialization::default());
        assert_eq!(epoch, 1);
        assert_eq!(sharded.tenant(TenantId(1)).unwrap().epoch(), 0);

        let (second, stats) = sharded.serve_mixed(&batch);
        let by_tenant: HashMap<TenantId, BatchStats> = stats.per_tenant.iter().cloned().collect();
        // tenant 0: the new epoch's cache starts empty, so everything is
        // recomputed under epoch 1
        let t0 = &by_tenant[&TenantId(0)];
        assert_eq!(t0.cache_hits, 0);
        // tenant 1: untouched, fully cached, zero-copy
        let t1 = &by_tenant[&TenantId(1)];
        assert_eq!(t1.cache_hits, t1.unique);
        for (i, (tid, _)) in batch.iter().enumerate() {
            let (a, b) = (first[i].served().unwrap(), second[i].served().unwrap());
            if *tid == TenantId(1) {
                assert!(Arc::ptr_eq(&a.answer, &b.answer), "tenant 1 must stay warm");
                assert_eq!(b.epoch, 0);
            } else {
                assert!(!b.from_cache);
                assert_eq!(b.epoch, 1);
                assert_eq!(a.potential.values(), b.potential.values());
            }
        }
    }

    #[test]
    fn empty_batch_and_empty_registry_are_fine() {
        let sharded = ShardedServingEngine::new(ShardConfig::default());
        assert!(sharded.is_empty());
        let (answers, stats) = sharded.serve_mixed(&[]);
        assert!(answers.is_empty());
        assert_eq!(stats.arrivals, 0);
        let (answers, stats) = sharded.serve_mixed(&[(
            TenantId(0),
            ServeRequest::marginal(Scope::from_indices(&[0])),
        )]);
        assert_eq!(answers[0].failure(), Some(&PgmError::UnknownTenant(0)));
        assert_eq!(stats.unknown_tenant, 1);
    }

    #[test]
    fn stats_accumulate_per_tenant() {
        let (bns, trees) = fixtures_pair();
        let sharded = two_tenant_engine(&trees, &bns, ShardConfig::default());
        let q = ServeRequest::marginal(Scope::from_indices(&[0, 1]));
        let batch = vec![
            (TenantId(0), q.clone()),
            (TenantId(0), q.clone()),
            (TenantId(1), q.clone()),
        ];
        sharded.serve_mixed(&batch);
        sharded.serve_mixed(&batch); // warm pass: cache hits still count
        let s0 = sharded.tenant(TenantId(0)).unwrap().stats().snapshot();
        let s1 = sharded.tenant(TenantId(1)).unwrap().stats().snapshot();
        assert_eq!(s0.queries, 4, "tenant 0 saw 2 arrivals per batch");
        assert_eq!(s1.queries, 2, "tenant 1 saw 1 arrival per batch");
    }
}
