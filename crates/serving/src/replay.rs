//! Workload replay: stream a query mix through a [`ServingEngine`] batch by
//! batch and measure what a load test would — throughput, latency
//! percentiles, operation counts, shortcut hit rates. [`replay_mixed`]
//! drives a multi-tenant arrival stream through a
//! [`ShardedServingEngine`] the same way.
//!
//! The closed-loop drivers above offer the next batch only once the
//! previous one completed, so they measure service time and can never
//! overload the engine. [`replay_open_loop`] / [`replay_open_loop_mixed`]
//! instead replay a **timed arrival schedule** (for example
//! [`poisson_arrivals`]) against a backlog the engine drains as fast as
//! it can: when offered load exceeds capacity the backlog grows, sojourn
//! times (queueing + service) explode, and the overload controls of
//! [`AdmissionConfig`] — admission
//! caps and deadline shedding — are what keep served-query p99 bounded.
//! That is the regime the saturation benches measure.
//!
//! All drivers pre-warm the engine's persistent worker pool before the
//! timed run, so the one-time thread spawn is charged to setup (as it
//! would be in a real server's boot) rather than to the first batch's
//! latency.

use crate::engine::{BatchStats, ServingEngine};
use crate::overload::{AdmissionConfig, ServeOutcome, ShedReason};
use crate::pool::PoolStats;
use crate::shard::{ShardedServingEngine, TenantId};
use peanut_core::ServeRequest;
use peanut_junction::{JunctionTree, RootedTree};
use peanut_workload::{skewed_queries, uniform_queries, with_evidence, QuerySpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Replay knobs.
#[derive(Clone, Copy, Debug)]
pub struct ReplayConfig {
    /// Queries per batch (the arrival buffer a server would drain at once).
    pub batch_size: usize,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig { batch_size: 64 }
    }
}

/// Aggregate report of one replay run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayReport {
    /// Queries replayed.
    pub queries: usize,
    /// Batches served.
    pub batches: usize,
    /// Queries that returned an error.
    pub errors: usize,
    /// Unique computations after in-batch coalescing.
    pub unique: usize,
    /// Unique queries served from the cross-batch answer cache.
    pub cache_hits: usize,
    /// Cache entries found stale after an epoch swap and lazily dropped.
    pub stale_hits: usize,
    /// Materialization epochs observed: (first batch, last batch). They
    /// differ when a re-materialization was published mid-replay.
    pub epochs: (u64, u64),
    /// End-to-end wall-clock time.
    pub wall: Duration,
    /// Queries per second over the whole run.
    pub throughput_qps: f64,
    /// Median per-query service time (cache hits count as zero, in-batch
    /// duplicates share their computation's time).
    pub latency_p50: Duration,
    /// 95th-percentile per-query service time.
    pub latency_p95: Duration,
    /// 99th-percentile per-query service time.
    pub latency_p99: Duration,
    /// Summed operation count (cost-model ops) over unique computations.
    pub total_ops: u64,
    /// Summed shortcut uses over unique computations.
    pub shortcuts_used: usize,
    /// Tenants faulted in from the store over the run (mixed replays on a
    /// paging fleet; zero otherwise).
    pub faults: usize,
    /// Tenants paged out over the run.
    pub page_outs: usize,
    /// Peak resident tenants observed at any batch end.
    pub max_resident: usize,
    /// Total wall-clock time spent faulting tenants in.
    pub fault_wall: Duration,
    /// Worker-pool activity **attributable to this replay**: the pool's
    /// counter deltas over the run window ([`PoolStats::delta_since`]),
    /// not pool-lifetime totals — so warmup, and every earlier replay on
    /// the same engine, are excluded. All-zero when the engine never
    /// fanned out onto a pool.
    pub pool: PoolStats,
}

impl ReplayReport {
    /// Unique queries actually computed (cache hits excluded).
    pub fn computed(&self) -> usize {
        self.unique.saturating_sub(self.cache_hits)
    }

    /// Mean operation count per freshly computed unique query — the
    /// cost-model figure the drift experiments compare across epochs.
    pub fn mean_ops_per_computed(&self) -> f64 {
        if self.computed() == 0 {
            return 0.0;
        }
        self.total_ops as f64 / self.computed() as f64
    }
}

/// The shared closed-loop drive: offers `items` in `batch_size` chunks,
/// the next only once the previous one completed. `serve` answers one
/// chunk and returns the counters every engine reports; what only its
/// engine reports (epochs, paging) it folds into the report itself.
/// `pool_stats` reads the engine's (already warmed) pool, so the report
/// carries the run window's deltas.
fn closed_loop_drive<T>(
    items: &[T],
    cfg: &ReplayConfig,
    pool_stats: &dyn Fn() -> Option<PoolStats>,
    mut serve: impl FnMut(&[T], &mut ReplayReport) -> (Vec<ServeOutcome>, BatchStats),
) -> ReplayReport {
    let pool_before = pool_stats().unwrap_or_default();
    let start = Instant::now();
    let mut report = ReplayReport {
        queries: items.len(),
        ..ReplayReport::default()
    };
    let mut latencies: Vec<Duration> = Vec::with_capacity(items.len());
    for batch in items.chunks(cfg.batch_size.max(1)) {
        let (answers, stats) = serve(batch, &mut report);
        report.batches += 1;
        report.unique += stats.unique;
        report.cache_hits += stats.cache_hits;
        report.stale_hits += stats.stale_hits;
        report.total_ops = report.total_ops.saturating_add(stats.total_ops);
        report.shortcuts_used += stats.shortcuts_used;
        for a in &answers {
            match a.served() {
                Some(served) => latencies.push(served.latency()),
                None => report.errors += 1,
            }
        }
    }
    report.wall = start.elapsed();
    report.pool = pool_stats().unwrap_or_default().delta_since(&pool_before);
    if report.wall.as_secs_f64() > 0.0 {
        report.throughput_qps = report.queries as f64 / report.wall.as_secs_f64();
    }
    latencies.sort_unstable();
    report.latency_p50 = percentile(&latencies, 0.50);
    report.latency_p95 = percentile(&latencies, 0.95);
    report.latency_p99 = percentile(&latencies, 0.99);
    report
}

/// Streams `queries` through `engine` in batches and aggregates telemetry.
pub fn replay(
    engine: &ServingEngine<'_>,
    queries: &[ServeRequest],
    cfg: &ReplayConfig,
) -> ReplayReport {
    engine.warm_pool();
    let pool_stats = || engine.pool_stats();
    closed_loop_drive(queries, cfg, &pool_stats, |batch, report| {
        let (answers, stats) = engine.serve_batch(batch);
        if report.batches == 0 {
            report.epochs.0 = stats.epoch;
        }
        report.epochs.1 = stats.epoch;
        (answers, stats)
    })
}

/// Streams a multi-tenant arrival stream through a sharded engine in
/// mixed batches (the buffer a fleet endpoint drains at once) and
/// aggregates fleet-level telemetry. `epochs` reports the min/max epoch
/// observed across all tenants and batches.
pub fn replay_mixed(
    engine: &ShardedServingEngine<'_>,
    arrivals: &[(TenantId, ServeRequest)],
    cfg: &ReplayConfig,
) -> ReplayReport {
    engine.warm_pool();
    let pool_stats = || engine.pool_stats();
    let mut epochs: Option<(u64, u64)> = None;
    let mut report = closed_loop_drive(arrivals, cfg, &pool_stats, |batch, report| {
        let (answers, stats) = engine.serve_mixed(batch);
        report.faults += stats.faults;
        report.page_outs += stats.page_outs;
        report.max_resident = report.max_resident.max(stats.resident);
        report.fault_wall += stats.fault_wall;
        for (_, b) in &stats.per_tenant {
            let (lo, hi) = epochs.get_or_insert((b.epoch, b.epoch));
            *lo = (*lo).min(b.epoch);
            *hi = (*hi).max(b.epoch);
        }
        let totals = BatchStats {
            unique: stats.unique,
            cache_hits: stats.cache_hits,
            stale_hits: stats.stale_hits,
            total_ops: stats.total_ops,
            shortcuts_used: stats.shortcuts_used,
            ..BatchStats::default()
        };
        (answers, totals)
    });
    report.epochs = epochs.unwrap_or_default();
    report
}

/// Nearest-rank percentile of a **sorted** latency list.
fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The clock an open-loop replay runs against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReplayClock {
    /// Real time: arrivals in the future are waited out with a sleep,
    /// sojourns are measured with [`Instant`]. What the benches use.
    #[default]
    Wall,
    /// Deterministic simulated time: serving a dispatched query advances
    /// the clock by exactly `per_query`, and nothing else advances it
    /// except idle jumps to the next arrival. Admission and shedding
    /// decisions become a pure function of (schedule, config), which is
    /// what the shedding-determinism tests pin down.
    Virtual {
        /// Simulated service time charged per dispatched query.
        per_query: Duration,
    },
}

/// Knobs for the open-loop drivers.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoopConfig {
    /// Most queries dispatched per wave — the drain quantum; the backlog
    /// beyond it waits for the next wave.
    pub max_batch: usize,
    /// Overload controls (admission caps, deadline). The default is the
    /// unprotected FIFO baseline.
    pub admission: AdmissionConfig,
    /// Wall or virtual time (see [`ReplayClock`]).
    pub clock: ReplayClock,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            max_batch: 64,
            admission: AdmissionConfig::default(),
            clock: ReplayClock::Wall,
        }
    }
}

/// Aggregate report of one open-loop replay. Per-query resolutions come
/// back alongside it as [`ServeOutcome`]s.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpenLoopReport {
    /// Queries offered by the arrival schedule.
    pub offered: usize,
    /// Queries served to completion.
    pub served: usize,
    /// Queries that reached the engine and returned an error.
    pub errors: usize,
    /// Queries shed at dispatch with a blown deadline.
    pub shed_deadline: usize,
    /// Queries refused at arrival by an admission cap.
    pub shed_admission: usize,
    /// Dispatch waves driven.
    pub batches: usize,
    /// Peak backlog length observed right after an admission round.
    pub peak_backlog: usize,
    /// Clock time from first arrival to last completion (simulated time
    /// under [`ReplayClock::Virtual`], real time under `Wall`).
    pub duration: Duration,
    /// Served queries per clock second.
    pub throughput_qps: f64,
    /// Median served-query sojourn (queueing + service — *not* the
    /// closed-loop service time; this is what a client actually waits).
    pub sojourn_p50: Duration,
    /// 95th-percentile served-query sojourn.
    pub sojourn_p95: Duration,
    /// 99th-percentile served-query sojourn — the figure shedding keeps
    /// bounded while the FIFO baseline's grows with the backlog.
    pub sojourn_p99: Duration,
    /// Worker-pool counter deltas attributable to this replay
    /// ([`PoolStats::delta_since`]); all-zero without a pool.
    pub pool: PoolStats,
}

/// A Poisson arrival process: `n` absolute arrival offsets with
/// exponential inter-arrival times at rate `qps`, deterministic in
/// `seed`. The canonical open-loop schedule — offered load is `qps`
/// regardless of how fast the engine drains.
pub fn poisson_arrivals(n: usize, qps: f64, seed: u64) -> Vec<Duration> {
    assert!(qps > 0.0, "arrival rate must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            // inverse-CDF exponential; gen_range(0.0..1.0) excludes 1.0,
            // so the log argument stays positive
            let u: f64 = rng.gen_range(0.0..1.0);
            t += -(1.0 - u).ln() / qps;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// What one dispatched wave's serve call returns.
type BatchResults = Vec<ServeOutcome>;

/// Clock state for one open-loop drive.
enum ClockState {
    Wall(Instant),
    Virtual { now: Duration, per_query: Duration },
}

impl ClockState {
    fn start(clock: ReplayClock) -> Self {
        match clock {
            ReplayClock::Wall => ClockState::Wall(Instant::now()),
            ReplayClock::Virtual { per_query } => ClockState::Virtual {
                now: Duration::ZERO,
                per_query,
            },
        }
    }

    fn now(&self) -> Duration {
        match self {
            ClockState::Wall(start) => start.elapsed(),
            ClockState::Virtual { now, .. } => *now,
        }
    }

    /// Idle with an empty backlog: jump (or sleep) to the next arrival.
    fn advance_to(&mut self, t: Duration) {
        match self {
            ClockState::Wall(start) => {
                let elapsed = start.elapsed();
                if t > elapsed {
                    std::thread::sleep(t - elapsed);
                }
            }
            ClockState::Virtual { now, .. } => *now = (*now).max(t),
        }
    }

    /// Charge the service time of a dispatched wave.
    fn charge(&mut self, dispatched: usize) {
        if let ClockState::Virtual { now, per_query } = self {
            *now += *per_query * dispatched as u32;
        }
    }
}

/// The shared open-loop drive: admission at arrival, deadline shedding
/// at dispatch, `serve` for the actual compute. `tenant_of` returns the
/// arriving tenant where per-tenant caps apply (mixed replays);
/// `pool_stats` is read as in [`closed_loop_drive`].
fn open_loop_drive(
    n: usize,
    schedule: &[Duration],
    cfg: &OpenLoopConfig,
    pool_stats: &dyn Fn() -> Option<PoolStats>,
    tenant_of: &dyn Fn(usize) -> Option<TenantId>,
    serve: &mut dyn FnMut(&[usize]) -> BatchResults,
) -> (Vec<ServeOutcome>, OpenLoopReport) {
    let pool_before = pool_stats().unwrap_or_default();
    assert_eq!(n, schedule.len(), "one arrival offset per query");
    assert!(
        schedule.windows(2).all(|w| w[0] <= w[1]),
        "arrival schedule must be sorted"
    );
    let max_batch = cfg.max_batch.max(1);
    let mut outcomes: Vec<Option<ServeOutcome>> = (0..n).map(|_| None).collect();
    let mut report = OpenLoopReport {
        offered: n,
        ..OpenLoopReport::default()
    };
    let mut clock = ClockState::start(cfg.clock);
    let mut backlog: VecDeque<(usize, Duration)> = VecDeque::new();
    let mut tenant_load: HashMap<u32, usize> = HashMap::new();
    let mut sojourns: Vec<Duration> = Vec::with_capacity(n);
    let mut next = 0usize;
    while next < n || !backlog.is_empty() {
        let now = clock.now();
        // admit every due arrival, refusing over admission caps
        while next < n && schedule[next] <= now {
            let tenant = tenant_of(next);
            let cap = cfg.admission.max_backlog;
            let tcap = cfg.admission.max_tenant_backlog;
            let tload = tenant
                .map(|t| *tenant_load.entry(t.0).or_default())
                .unwrap_or(0);
            if cap > 0 && backlog.len() >= cap {
                outcomes[next] = Some(ServeOutcome::Shed(ShedReason::AdmissionLimit {
                    tenant: None,
                    backlog: backlog.len(),
                    limit: cap,
                }));
                report.shed_admission += 1;
            } else if tenant.is_some() && tcap > 0 && tload >= tcap {
                outcomes[next] = Some(ServeOutcome::Shed(ShedReason::AdmissionLimit {
                    tenant,
                    backlog: tload,
                    limit: tcap,
                }));
                report.shed_admission += 1;
            } else {
                backlog.push_back((next, schedule[next]));
                if let Some(t) = tenant {
                    *tenant_load.entry(t.0).or_default() += 1;
                }
            }
            next += 1;
        }
        report.peak_backlog = report.peak_backlog.max(backlog.len());
        if backlog.is_empty() {
            if next < n {
                clock.advance_to(schedule[next]);
            }
            continue;
        }
        // dispatch a wave, shedding queries whose budget queueing already
        // blew — serving them would waste capacity on abandoned answers
        let mut wave: Vec<(usize, Duration)> = Vec::with_capacity(max_batch.min(backlog.len()));
        while wave.len() < max_batch {
            let (i, arrived) = match backlog.pop_front() {
                Some(entry) => entry,
                None => break,
            };
            if let Some(t) = tenant_of(i) {
                if let Some(load) = tenant_load.get_mut(&t.0) {
                    *load = load.saturating_sub(1);
                }
            }
            if let Some(deadline) = cfg.admission.deadline {
                let waited = now.saturating_sub(arrived);
                if waited > deadline {
                    outcomes[i] = Some(ServeOutcome::Shed(ShedReason::DeadlineBlown {
                        waited,
                        deadline,
                    }));
                    report.shed_deadline += 1;
                    continue;
                }
            }
            wave.push((i, arrived));
        }
        if wave.is_empty() {
            continue;
        }
        let indices: Vec<usize> = wave.iter().map(|&(i, _)| i).collect();
        let results = serve(&indices);
        clock.charge(wave.len());
        let done = clock.now();
        report.batches += 1;
        for ((i, arrived), r) in wave.into_iter().zip(results) {
            match &r {
                ServeOutcome::Served(_) => {
                    sojourns.push(done.saturating_sub(arrived));
                    report.served += 1;
                }
                ServeOutcome::Failed(_) => report.errors += 1,
                // the engine itself never sheds — only this driver does —
                // but a pass-through keeps the outcome types honest
                ServeOutcome::Shed(_) => report.shed_deadline += 1,
            }
            outcomes[i] = Some(r);
        }
    }
    report.duration = clock.now();
    report.pool = pool_stats().unwrap_or_default().delta_since(&pool_before);
    if report.duration.as_secs_f64() > 0.0 {
        report.throughput_qps = report.served as f64 / report.duration.as_secs_f64();
    }
    sojourns.sort_unstable();
    report.sojourn_p50 = percentile(&sojourns, 0.50);
    report.sojourn_p95 = percentile(&sojourns, 0.95);
    report.sojourn_p99 = percentile(&sojourns, 0.99);
    let outcomes = outcomes
        .into_iter()
        .map(|o| o.expect("every offered query resolves to exactly one outcome"))
        .collect();
    (outcomes, report)
}

/// Replays `queries` against `engine` on a timed arrival `schedule`
/// (absolute offsets, sorted — see [`poisson_arrivals`]), applying the
/// overload controls in `cfg.admission`. Returns one [`ServeOutcome`]
/// per offered query plus the aggregate report; served-query sojourns
/// include queueing delay, which is what distinguishes this driver from
/// the closed-loop [`replay`].
pub fn replay_open_loop(
    engine: &ServingEngine<'_>,
    queries: &[ServeRequest],
    schedule: &[Duration],
    cfg: &OpenLoopConfig,
) -> (Vec<ServeOutcome>, OpenLoopReport) {
    engine.warm_pool();
    let mut batch: Vec<ServeRequest> = Vec::new();
    open_loop_drive(
        queries.len(),
        schedule,
        cfg,
        &|| engine.pool_stats(),
        &|_| None,
        &mut |indices: &[usize]| {
            batch.clear();
            batch.extend(indices.iter().map(|&i| queries[i].clone()));
            let (answers, _) = engine.serve_batch(&batch);
            answers
        },
    )
}

/// The multi-tenant open-loop driver: like [`replay_open_loop`] over a
/// mixed `(TenantId, ServeRequest)` arrival stream, with
/// [`max_tenant_backlog`](AdmissionConfig::max_tenant_backlog) enforced
/// per arriving tenant so one tenant's burst cannot monopolize the
/// backlog.
pub fn replay_open_loop_mixed(
    engine: &ShardedServingEngine<'_>,
    arrivals: &[(TenantId, ServeRequest)],
    schedule: &[Duration],
    cfg: &OpenLoopConfig,
) -> (Vec<ServeOutcome>, OpenLoopReport) {
    engine.warm_pool();
    let mut batch: Vec<(TenantId, ServeRequest)> = Vec::new();
    open_loop_drive(
        arrivals.len(),
        schedule,
        cfg,
        &|| engine.pool_stats(),
        &|i| Some(arrivals[i].0),
        &mut |indices: &[usize]| {
            batch.clear();
            batch.extend(indices.iter().map(|&i| arrivals[i].clone()));
            let (answers, _) = engine.serve_mixed(&batch);
            answers
        },
    )
}

/// Shape of a sampled serving workload (see [`workload_queries`]).
#[derive(Clone, Copy, Debug)]
pub struct WorkloadMix {
    /// Per-query variable-count spec.
    pub spec: QuerySpec,
    /// Fraction of the pool drawn from the paper's skewed sampler (the
    /// rest is uniform).
    pub skew_fraction: f64,
    /// Fraction of pool queries turned into evidence-conditioned ones.
    pub evidence_fraction: f64,
    /// Number of distinct queries in the pool.
    pub pool_size: usize,
}

impl Default for WorkloadMix {
    fn default() -> Self {
        WorkloadMix {
            spec: QuerySpec::default(),
            skew_fraction: 0.7,
            evidence_fraction: 0.25,
            pool_size: 64,
        }
    }
}

/// Samples a serving workload following the paper's workload model
/// (Def. 3.3: a distribution over a *finite* query pool): draws up to
/// `mix.pool_size` **distinct** requests (duplicate generator draws are
/// removed) — a skewed/uniform blend with a fraction turned into
/// evidence-conditioned requests — then samples `n` arrivals from the
/// pool with replacement. Repeated arrivals are what batch coalescing and
/// the answer cache exploit. Deterministic in `seed`.
pub fn workload_queries(
    tree: &JunctionTree,
    rooted: &RootedTree,
    n: usize,
    mix: &WorkloadMix,
    seed: u64,
) -> Vec<ServeRequest> {
    assert!(
        (0.0..=1.0).contains(&mix.skew_fraction),
        "fraction in [0, 1]"
    );
    let pool_size = mix.pool_size.clamp(1, n.max(1));
    let n_skewed = (pool_size as f64 * mix.skew_fraction).round() as usize;
    let mut scopes = skewed_queries(tree, rooted, n_skewed, mix.spec, seed);
    scopes.extend(uniform_queries(
        tree.domain(),
        pool_size - n_skewed.min(pool_size),
        mix.spec,
        seed ^ 0x5eed,
    ));
    let mut seen = std::collections::HashSet::new();
    let pool: Vec<ServeRequest> =
        with_evidence(tree.domain(), &scopes, mix.evidence_fraction, seed ^ 0xe71d)
            .into_iter()
            .filter(|q| seen.insert(q.clone()))
            .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xa881);
    (0..n)
        .map(|_| pool[rng.gen_range(0..pool.len())].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ServingConfig, ServingEngine};
    use peanut_core::Materialization;
    use peanut_junction::{build_junction_tree, QueryEngine};
    use peanut_pgm::fixtures;

    #[test]
    fn replay_reports_consistent_counts() {
        let bn = fixtures::chain(10, 2, 7);
        let tree = build_junction_tree(&bn).unwrap();
        let rooted = RootedTree::new(&tree);
        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let serving =
            ServingEngine::new(engine, Materialization::default(), ServingConfig::default());
        let mix = WorkloadMix {
            skew_fraction: 0.5,
            evidence_fraction: 0.3,
            pool_size: 24,
            ..WorkloadMix::default()
        };
        let queries = workload_queries(&tree, &rooted, 100, &mix, 17);
        assert_eq!(queries.len(), 100);
        let report = replay(&serving, &queries, &ReplayConfig { batch_size: 32 });
        assert_eq!(report.queries, 100);
        assert_eq!(report.batches, 4);
        assert_eq!(report.errors, 0);
        assert!(report.unique <= 100);
        assert!(
            report.unique < 100,
            "pool sampling must repeat queries: {} unique",
            report.unique
        );
        assert!(report.throughput_qps > 0.0);
        assert!(report.latency_p50 <= report.latency_p95);
        assert!(report.latency_p95 <= report.latency_p99);
        assert!(report.total_ops > 0);
    }

    #[test]
    fn replay_mixed_aggregates_across_tenants() {
        use crate::shard::{ShardConfig, ShardedServingEngine, TenantId};
        let bn_a = fixtures::chain(10, 2, 7);
        let bn_b = fixtures::chain(12, 2, 9);
        let tree_a = build_junction_tree(&bn_a).unwrap();
        let tree_b = build_junction_tree(&bn_b).unwrap();
        let mut sharded = ShardedServingEngine::new(ShardConfig::default());
        sharded
            .register(
                TenantId(0),
                QueryEngine::numeric(&tree_a, &bn_a).unwrap(),
                Materialization::default(),
            )
            .unwrap();
        sharded
            .register(
                TenantId(1),
                QueryEngine::numeric(&tree_b, &bn_b).unwrap(),
                Materialization::default(),
            )
            .unwrap();
        let rooted_a = RootedTree::new(&tree_a);
        let mix = WorkloadMix {
            pool_size: 12,
            evidence_fraction: 0.0,
            ..WorkloadMix::default()
        };
        let arrivals: Vec<(TenantId, ServeRequest)> =
            workload_queries(&tree_a, &rooted_a, 60, &mix, 3)
                .into_iter()
                .enumerate()
                .map(|(i, q)| (TenantId((i % 2) as u32), q))
                .collect();
        let report = replay_mixed(&sharded, &arrivals, &ReplayConfig { batch_size: 20 });
        assert_eq!(report.queries, 60);
        assert_eq!(report.batches, 3);
        assert_eq!(report.errors, 0);
        assert_eq!(report.epochs, (0, 0));
        assert!(report.unique <= 60);
        assert!(report.total_ops > 0);
        // a second pass over the same stream is served from the caches
        let warm = replay_mixed(&sharded, &arrivals, &ReplayConfig { batch_size: 20 });
        assert_eq!(warm.cache_hits, warm.unique);
        assert_eq!(warm.total_ops, 0);
    }

    #[test]
    fn workload_queries_deterministic() {
        let bn = fixtures::chain(12, 2, 3);
        let tree = build_junction_tree(&bn).unwrap();
        let rooted = RootedTree::new(&tree);
        let mix = WorkloadMix {
            evidence_fraction: 0.4,
            pool_size: 16,
            ..WorkloadMix::default()
        };
        let a = workload_queries(&tree, &rooted, 50, &mix, 5);
        let b = workload_queries(&tree, &rooted, 50, &mix, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn percentile_nearest_rank() {
        let ms: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile(&ms, 0.50), Duration::from_millis(50));
        assert_eq!(percentile(&ms, 0.99), Duration::from_millis(99));
        assert_eq!(percentile(&[], 0.5), Duration::ZERO);
    }
}
