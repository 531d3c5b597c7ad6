//! Workload replay: stream a query mix through a [`ServingEngine`] (or,
//! with [`replay_mixed`], a multi-tenant arrival stream through a
//! [`ShardedServingEngine`]) and measure what a load test would —
//! throughput, service and sojourn percentiles, operation counts,
//! shortcut hit rates, shed counts.
//!
//! There is one drive, over an **arrival schedule**. Every offered query
//! becomes due at its arrival offset, joins a backlog subject to the
//! admission caps of [`AdmissionConfig`], and is dispatched from the
//! front of that backlog in waves of at most
//! [`batch_size`](ReplayConfig::batch_size), after deadline shedding.
//!
//! * **Closed loop** (`schedule = None`): every arrival is due at time
//!   zero, so under the default [`AdmissionConfig::fifo`] the backlog is
//!   the whole stream and it drains in consecutive `batch_size` slices,
//!   the next only once the previous one completed. The engine can never
//!   be overloaded; [`latency_p50`](ReplayReport::latency_p50) & co. are
//!   pure service time.
//! * **Open loop** (a timed schedule, for example
//!   `peanut_workload::poisson_arrivals`):
//!   arrivals come on their own clock. When offered load exceeds capacity
//!   the backlog grows, sojourn times (queueing + service) explode, and
//!   the overload controls — admission caps and deadline shedding — are
//!   what keep served-query p99 bounded. That is the regime
//!   `tests/overload.rs` pins on the virtual clock.
//!
//! Both replay functions pre-warm the engine's persistent worker pool
//! before the timed run, so the one-time thread spawn is charged to setup
//! (as it would be in a real server's boot) rather than to the first
//! batch's latency.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use crate::counters::Counters;
use crate::engine::ServingEngine;
use crate::overload::{AdmissionConfig, ServeOutcome, ShedReason};
use crate::pool::PoolStats;
use crate::shard::{ShardedServingEngine, TenantId};
use peanut_core::ServeRequest;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// The clock a replay runs against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReplayClock {
    /// Real time: arrivals in the future are waited out with a sleep,
    /// sojourns are measured with [`Instant`].
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

/// Replay knobs.
#[derive(Clone, Copy, Debug)]
pub struct ReplayConfig {
    /// Most queries dispatched per wave — the arrival buffer a server
    /// would drain at once; the backlog beyond it waits for the next wave.
    pub batch_size: usize,
    /// Overload controls (admission caps, deadline). The default is the
    /// unprotected FIFO baseline.
    pub admission: AdmissionConfig,
    /// Wall or virtual time (see [`ReplayClock`]).
    pub clock: ReplayClock,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            batch_size: 64,
            admission: AdmissionConfig::default(),
            clock: ReplayClock::Wall,
        }
    }
}

/// Aggregate report of one replay run. Per-query resolutions come back
/// alongside it as [`ServeOutcome`]s.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayReport {
    /// Queries offered by the arrival schedule.
    pub queries: usize,
    /// Queries served to completion.
    pub served: usize,
    /// Queries that reached the engine and returned an error.
    pub errors: usize,
    /// Queries shed at dispatch with a blown deadline.
    pub shed_deadline: usize,
    /// Queries refused at arrival by an admission cap.
    pub shed_admission: usize,
    /// Dispatch waves served.
    pub batches: usize,
    /// Peak backlog length observed right after an admission round (the
    /// whole stream in a closed loop).
    pub peak_backlog: usize,
    /// Materialization epochs observed: (first batch, last batch) on one
    /// engine, (min, max) across tenants and batches on a fleet. They
    /// differ when a re-materialization was published mid-replay.
    pub epochs: (u64, u64),
    /// Clock time from first arrival to last completion (simulated time
    /// under [`ReplayClock::Virtual`], real time under `Wall`).
    pub wall: Duration,
    /// Served queries per clock second.
    pub throughput_qps: f64,
    /// Median per-query service time (cache hits count as zero, in-batch
    /// duplicates share their computation's time).
    pub latency_p50: Duration,
    /// 99th-percentile per-query service time.
    pub latency_p99: Duration,
    /// 99th-percentile served-query sojourn (queueing + service — what a
    /// client actually waits; in a closed loop, the time since the replay
    /// began) — the figure shedding keeps bounded while the FIFO
    /// baseline's grows with the backlog.
    pub sojourn_p99: Duration,
    /// What the dispatched waves counted, summed: answers computed and
    /// cached, their operations and shortcut uses, and on a paging fleet
    /// the fault-ins and page-outs the waves made.
    pub counters: Counters,
    /// Peak resident tenants observed at any batch end.
    pub max_resident: usize,
    /// Worker-pool activity **attributable to this replay**: the pool's
    /// counter deltas over the run window ([`PoolStats::delta_since`]),
    /// not pool-lifetime totals — so warmup, and every earlier replay on
    /// the same engine, are excluded. All-zero when the engine never
    /// fanned out onto a pool.
    pub pool: PoolStats,
}

impl ReplayReport {
    /// Unique queries answered after in-batch coalescing: computed or
    /// served from the cross-batch answer cache.
    pub fn unique(&self) -> usize {
        self.computed() + self.counters.cache_hits as usize
    }

    /// Unique queries actually computed (cache hits excluded).
    pub fn computed(&self) -> usize {
        self.counters.computed as usize
    }
}

/// Clock state for one drive.
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

/// The one drive: admission at arrival, deadline shedding at dispatch,
/// `serve` for the actual compute. `schedule` holds one sorted arrival
/// offset per item; `None` makes every item due at time zero (the closed
/// loop). `tenant_of` names the arriving tenant where per-tenant caps
/// apply (mixed replays). `serve` answers one wave and returns the
/// wave's [`Counters`]; what only its engine reports (epochs, residency)
/// it folds into the report itself. `pool_stats` reads the
/// engine's (already warmed) pool, so the report carries the run window's
/// deltas.
fn drive<T: Clone>(
    items: &[T],
    schedule: Option<&[Duration]>,
    cfg: &ReplayConfig,
    pool_stats: &dyn Fn() -> Option<PoolStats>,
    tenant_of: &dyn Fn(&T) -> Option<TenantId>,
    mut serve: impl FnMut(&[T], &mut ReplayReport) -> (Vec<ServeOutcome>, Counters),
) -> (Vec<ServeOutcome>, ReplayReport) {
    let n = items.len();
    if let Some(schedule) = schedule {
        assert_eq!(n, schedule.len(), "one arrival offset per query");
        assert!(
            schedule.windows(2).all(|w| w[0] <= w[1]),
            "arrival schedule must be sorted"
        );
    }
    let arrival = |i: usize| schedule.map_or(Duration::ZERO, |s| s[i]);
    let batch_size = cfg.batch_size.max(1);
    let cap = cfg.admission.max_backlog;
    let tcap = cfg.admission.max_tenant_backlog;
    // per-tenant load is tracked only under a per-tenant cap
    let capped_tenant = |i: usize| if tcap > 0 { tenant_of(&items[i]) } else { None };
    let pool_before = pool_stats().unwrap_or_default();
    let mut outcomes: Vec<Option<ServeOutcome>> = (0..n).map(|_| None).collect();
    let mut report = ReplayReport {
        queries: n,
        ..ReplayReport::default()
    };
    let mut clock = ClockState::start(cfg.clock);
    let mut backlog: VecDeque<usize> = VecDeque::new();
    let mut tenant_load: HashMap<u32, usize> = HashMap::new();
    let mut latencies: Vec<Duration> = Vec::with_capacity(n);
    let mut sojourns: Vec<Duration> = Vec::with_capacity(n);
    let mut wave: Vec<usize> = Vec::with_capacity(batch_size.min(n));
    let mut gathered: Vec<T> = Vec::new();
    let mut next = 0usize;
    while next < n || !backlog.is_empty() {
        let now = clock.now();
        // admit every due arrival, refusing over admission caps
        while next < n && arrival(next) <= now {
            let tenant = capped_tenant(next);
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
            } else if tenant.is_some() && tload >= tcap {
                outcomes[next] = Some(ServeOutcome::Shed(ShedReason::AdmissionLimit {
                    tenant,
                    backlog: tload,
                    limit: tcap,
                }));
                report.shed_admission += 1;
            } else {
                backlog.push_back(next);
                if let Some(t) = tenant {
                    *tenant_load.entry(t.0).or_default() += 1;
                }
            }
            next += 1;
        }
        report.peak_backlog = report.peak_backlog.max(backlog.len());
        if backlog.is_empty() {
            if next < n {
                clock.advance_to(arrival(next));
            }
            continue;
        }
        // dispatch a wave, shedding queries whose budget queueing already
        // blew — serving them would waste capacity on abandoned answers
        wave.clear();
        while wave.len() < batch_size {
            let Some(i) = backlog.pop_front() else {
                break;
            };
            if let Some(t) = capped_tenant(i) {
                if let Some(load) = tenant_load.get_mut(&t.0) {
                    *load = load.saturating_sub(1);
                }
            }
            if let Some(deadline) = cfg.admission.deadline {
                let waited = now.saturating_sub(arrival(i));
                if waited > deadline {
                    outcomes[i] = Some(ServeOutcome::Shed(ShedReason::DeadlineBlown {
                        waited,
                        deadline,
                    }));
                    report.shed_deadline += 1;
                    continue;
                }
            }
            wave.push(i);
        }
        let (Some(&lo), Some(&hi)) = (wave.first(), wave.last()) else {
            continue;
        };
        // a wave nothing was shed out of is one slice of the stream and is
        // served in place; a gapped one is gathered first
        let (results, counters) = if hi - lo + 1 == wave.len() {
            serve(&items[lo..=hi], &mut report)
        } else {
            gathered.clear();
            gathered.extend(wave.iter().map(|&i| items[i].clone()));
            serve(&gathered, &mut report)
        };
        clock.charge(wave.len());
        let done = clock.now();
        report.batches += 1;
        report.counters += counters;
        for (&i, r) in wave.iter().zip(results) {
            match &r {
                ServeOutcome::Served(served) => {
                    latencies.push(served.latency());
                    sojourns.push(done.saturating_sub(arrival(i)));
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
    report.wall = clock.now();
    report.pool = pool_stats().unwrap_or_default().delta_since(&pool_before);
    if report.wall.as_secs_f64() > 0.0 {
        report.throughput_qps = report.served as f64 / report.wall.as_secs_f64();
    }
    latencies.sort_unstable();
    report.latency_p50 = percentile(&latencies, 0.50);
    report.latency_p99 = percentile(&latencies, 0.99);
    sojourns.sort_unstable();
    report.sojourn_p99 = percentile(&sojourns, 0.99);
    assert!(
        outcomes.iter().all(Option::is_some),
        "every offered query resolves to exactly one outcome"
    );
    (outcomes.into_iter().flatten().collect(), report)
}

/// Nearest-rank percentile of a **sorted** latency list.
fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Replays `queries` against `engine`: closed loop when `schedule` is
/// `None`, otherwise on the timed arrival `schedule` (absolute offsets,
/// sorted — e.g. `peanut_workload::poisson_arrivals`), applying the
/// overload controls in `cfg.admission`. Returns one [`ServeOutcome`] per
/// offered query plus the aggregate report.
pub fn replay(
    engine: &ServingEngine<'_>,
    queries: &[ServeRequest],
    schedule: Option<&[Duration]>,
    cfg: &ReplayConfig,
) -> (Vec<ServeOutcome>, ReplayReport) {
    engine.warm_pool();
    drive(
        queries,
        schedule,
        cfg,
        &|| engine.pool_stats(),
        &|_| None,
        |batch, report| {
            let (answers, stats) = engine.serve_batch(batch);
            if report.batches == 0 {
                report.epochs.0 = stats.epoch;
            }
            report.epochs.1 = stats.epoch;
            (answers, stats.counters)
        },
    )
}

/// The multi-tenant replay: like [`replay`] over a mixed
/// `(TenantId, ServeRequest)` arrival stream served in mixed batches (the
/// buffer a fleet endpoint drains at once), with
/// [`max_tenant_backlog`](AdmissionConfig::max_tenant_backlog) enforced
/// per arriving tenant so one tenant's burst cannot monopolize the
/// backlog. `epochs` reports the min/max epoch observed across all
/// tenants and batches.
pub fn replay_mixed(
    engine: &ShardedServingEngine<'_>,
    arrivals: &[(TenantId, ServeRequest)],
    schedule: Option<&[Duration]>,
    cfg: &ReplayConfig,
) -> (Vec<ServeOutcome>, ReplayReport) {
    engine.warm_pool();
    let mut epochs: Option<(u64, u64)> = None;
    let (outcomes, mut report) = drive(
        arrivals,
        schedule,
        cfg,
        &|| engine.pool_stats(),
        &|(tenant, _)| Some(*tenant),
        |batch, report| {
            let (answers, stats) = engine.serve_mixed(batch);
            report.max_resident = report.max_resident.max(stats.resident);
            for (_, b) in &stats.per_tenant {
                let (lo, hi) = epochs.get_or_insert((b.epoch, b.epoch));
                *lo = (*lo).min(b.epoch);
                *hi = (*hi).max(b.epoch);
            }
            (answers, stats.counters)
        },
    );
    report.epochs = epochs.unwrap_or_default();
    (outcomes, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ServingConfig, ServingEngine};
    use peanut_core::{
        Materialization, OfflineContext, OnlineEngine, Peanut, PeanutConfig, Workload,
    };
    use peanut_junction::{build_junction_tree, QueryEngine, RootedTree};
    use peanut_pgm::fixtures;
    use peanut_workload::{workload_queries, QuerySpec, WorkloadMix};

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
        let cfg = ReplayConfig {
            batch_size: 32,
            ..ReplayConfig::default()
        };
        let (outcomes, report) = replay(&serving, &queries, None, &cfg);
        assert_eq!(outcomes.len(), 100);
        assert_eq!(report.queries, 100);
        assert_eq!(report.errors, 0);
        // the closed loop's counters are a pure function of the seeded
        // stream: 4 slices of 32, pool sampling repeats queries
        assert_eq!(report.batches, 4);
        assert_eq!(report.unique(), 57);
        assert_eq!(report.counters.cache_hits, 34);
        assert_eq!(report.counters.ops, 5100);
        assert_eq!(report.counters.shortcuts_used, 0);
        assert_eq!(report.epochs, (0, 0));
        assert_eq!(
            (
                report.counters.faults,
                report.counters.page_outs,
                report.max_resident
            ),
            (0, 0, 0)
        );
        assert_eq!(report.counters.fault_wall(), Duration::ZERO);
        assert!(report.throughput_qps > 0.0);
        assert!(report.latency_p50 <= report.latency_p99);
    }

    /// What batched serving saves over a caller's per-query loop, in the
    /// paper's unit: the same 256-request stream charges the loop one
    /// computation per request and a cold engine one per *unique, uncached*
    /// request — in-batch coalescing plus the cross-batch answer cache.
    #[test]
    fn cold_batch_charges_a_fraction_of_the_loops_operations() {
        let bn = fixtures::chain(26, 2, 13);
        let tree = build_junction_tree(&bn).unwrap();
        let rooted = RootedTree::new(&tree);
        let mix = WorkloadMix {
            spec: QuerySpec {
                min_vars: 1,
                max_vars: 4,
            },
            pool_size: 48,
            ..WorkloadMix::default()
        };
        let queries = workload_queries(&tree, &rooted, 256, &mix, 99);
        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let train = queries.iter().map(ServeRequest::stat_scope);
        let ctx = OfflineContext::new(&tree, &Workload::from_queries(train)).unwrap();
        let (mat, _) = Peanut::offline_numeric(
            &ctx,
            &PeanutConfig::plus(4096),
            engine.numeric_state().unwrap(),
        )
        .unwrap();

        let online = OnlineEngine::new(&engine, &mat);
        let loop_ops: u64 = queries
            .iter()
            .map(|q| {
                let (_, cost) = if q.is_marginal() {
                    online.answer(&q.targets).unwrap()
                } else {
                    online.conditional(&q.targets, &q.evidence).unwrap()
                };
                cost.ops
            })
            .sum();

        let cfg = ReplayConfig {
            batch_size: 128,
            ..ReplayConfig::default()
        };
        for _ in 0..2 {
            let engine = QueryEngine::numeric(&tree, &bn).unwrap();
            let cold = ServingEngine::new(engine, mat.clone(), ServingConfig::default());
            let (_, report) = replay(&cold, &queries, None, &cfg);
            assert_eq!((report.served, report.errors), (256, 0));
            assert_eq!((report.unique(), report.counters.cache_hits), (87, 41));
            assert_eq!(report.computed(), 46);
            assert_eq!((loop_ops, report.counters.ops), (78_300, 13_452));
            // 5.82×; the claim is "at least half the loop's work is saved"
            assert!(loop_ops >= 2 * report.counters.ops);
        }
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
        let cfg = ReplayConfig {
            batch_size: 20,
            ..ReplayConfig::default()
        };
        let (_, report) = replay_mixed(&sharded, &arrivals, None, &cfg);
        assert_eq!(report.queries, 60);
        assert_eq!(report.errors, 0);
        assert_eq!(report.batches, 3);
        assert_eq!(report.unique(), 38);
        assert_eq!(report.counters.cache_hits, 17);
        assert_eq!(report.counters.ops, 3764);
        assert_eq!(report.counters.shortcuts_used, 0);
        assert_eq!(report.epochs, (0, 0));
        // no store: both tenants stay resident, nothing pages
        assert_eq!(
            (
                report.counters.faults,
                report.counters.page_outs,
                report.max_resident
            ),
            (0, 0, 2)
        );
        assert_eq!(report.counters.fault_wall(), Duration::ZERO);
        // a second pass over the same stream is served from the caches
        let (_, warm) = replay_mixed(&sharded, &arrivals, None, &cfg);
        assert_eq!(
            (warm.batches, warm.unique(), warm.counters.cache_hits),
            (3, 38, 38)
        );
        assert_eq!(warm.counters.ops, 0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let ms: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile(&ms, 0.50), Duration::from_millis(50));
        assert_eq!(percentile(&ms, 0.99), Duration::from_millis(99));
        assert_eq!(percentile(&[], 0.5), Duration::ZERO);
    }
}
