//! Overload-control coverage: shedding determinism on the virtual clock
//! (same arrival schedule + seed ⇒ the same set of shed queries),
//! admission-cap semantics (global and per-tenant), bounded sojourns
//! under saturation with deadline shedding vs the FIFO baseline (one
//! engine, and a Zipf fleet with per-tenant caps), and
//! lane-starvation freedom (saturating re-selection work never stalls a
//! serving-lane batch beyond its deadline).

use peanut_core::Materialization;
use peanut_junction::{build_junction_tree, JunctionTree, QueryEngine, RootedTree};
use peanut_pgm::{fixtures, BayesianNetwork, Scope};
use peanut_serving::{
    replay, replay_mixed, AdmissionConfig, Lane, ReplayClock, ReplayConfig, ServeOutcome,
    ServeRequest, ServingConfig, ServingEngine, ShardConfig, ShardedServingEngine, ShedReason,
    TenantId, WorkerPool,
};
use peanut_workload::{
    poisson_arrivals, tenant_queries, workload_queries, zipf_weights, TenantTraffic, WorkloadMix,
};
use std::time::{Duration, Instant};

fn fixture() -> (BayesianNetwork, JunctionTree) {
    let bn = fixtures::chain(12, 2, 7);
    let tree = build_junction_tree(&bn).unwrap();
    (bn, tree)
}

fn queries(tree: &JunctionTree, n: usize, seed: u64) -> Vec<ServeRequest> {
    let rooted = RootedTree::new(tree);
    let mix = WorkloadMix {
        pool_size: 32,
        evidence_fraction: 0.2,
        ..WorkloadMix::default()
    };
    workload_queries(tree, &rooted, n, &mix, seed)
}

fn shed_indices(outcomes: &[ServeOutcome]) -> Vec<usize> {
    outcomes
        .iter()
        .enumerate()
        .filter(|(_, o)| o.is_shed())
        .map(|(i, _)| i)
        .collect()
}

/// A saturated virtual-clock replay: offered load is twice the simulated
/// service capacity, so the FIFO backlog grows without bound.
fn saturated_cfg(admission: AdmissionConfig) -> ReplayConfig {
    ReplayConfig {
        batch_size: 16,
        admission,
        clock: ReplayClock::Virtual {
            per_query: Duration::from_millis(1), // capacity: 1000 q/s
        },
    }
}

/// Same arrival schedule + same seed ⇒ the same set of shed queries —
/// shedding decisions on the virtual clock are a pure function of
/// (schedule, config), not of wall-clock jitter.
#[test]
fn shedding_is_deterministic_on_the_virtual_clock() {
    let (bn, tree) = fixture();
    let qs = queries(&tree, 400, 11);
    let schedule = poisson_arrivals(qs.len(), 2000.0, 42); // 2× capacity
    let cfg = saturated_cfg(AdmissionConfig::default().with_deadline(Duration::from_millis(8)));
    let run = || {
        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let serving = ServingEngine::new(
            engine,
            Materialization::default(),
            ServingConfig::default().with_workers(1),
        );
        replay(&serving, &qs, Some(&schedule), &cfg)
    };
    let (outcomes_a, report_a) = run();
    let (outcomes_b, report_b) = run();
    assert!(
        report_a.shed_deadline > 0,
        "a 2× saturated run must shed: {report_a:?}"
    );
    assert_eq!(shed_indices(&outcomes_a), shed_indices(&outcomes_b));
    assert_eq!(report_a.served, report_b.served);
    assert_eq!(report_a.shed_deadline, report_b.shed_deadline);
    assert_eq!(report_a.shed_admission, report_b.shed_admission);
    assert_eq!(report_a.batches, report_b.batches);
    assert_eq!(report_a.sojourn_p99, report_b.sojourn_p99);
    // and the schedule itself is deterministic in its seed
    assert_eq!(schedule, poisson_arrivals(qs.len(), 2000.0, 42));
}

/// Under saturation, deadline shedding keeps served-query p99 bounded
/// near the budget while the FIFO baseline's p99 grows with the backlog
/// — and every offered query resolves to exactly one typed outcome.
#[test]
fn deadline_shedding_bounds_p99_where_fifo_collapses() {
    let (bn, tree) = fixture();
    let qs = queries(&tree, 600, 7);
    let schedule = poisson_arrivals(qs.len(), 2000.0, 13); // 2× capacity
    let deadline = Duration::from_millis(10);
    let run = |admission: AdmissionConfig| {
        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let serving = ServingEngine::new(
            engine,
            Materialization::default(),
            ServingConfig::default().with_workers(1),
        );
        replay(&serving, &qs, Some(&schedule), &saturated_cfg(admission))
    };
    let (fifo_outcomes, fifo) = run(AdmissionConfig::fifo());
    let (shed_outcomes, shed) = run(AdmissionConfig::default().with_deadline(deadline));

    // FIFO serves everything, however late; shedding trades lateness for
    // typed Shed outcomes
    assert_eq!(fifo.shed_deadline + fifo.shed_admission, 0);
    assert_eq!(fifo.served + fifo.errors, qs.len());
    assert!(shed.shed_deadline > 0, "saturation must shed: {shed:?}");
    assert_eq!(
        shed.served + shed.errors + shed.shed_deadline + shed.shed_admission,
        qs.len()
    );
    for outcomes in [&fifo_outcomes, &shed_outcomes] {
        assert_eq!(outcomes.len(), qs.len());
    }
    for o in &shed_outcomes {
        if let Some(ShedReason::DeadlineBlown {
            waited,
            deadline: d,
        }) = o.shed_reason()
        {
            assert!(waited > d, "only blown budgets may be shed");
        }
    }

    // the acceptance shape: shedding bounds p99, FIFO does not. A wave
    // that started within budget may finish up to batch_size service
    // quanta later, so the bound is deadline + one full wave.
    let wave = Duration::from_millis(16); // batch_size × per_query
    assert!(
        shed.sojourn_p99 <= deadline + wave,
        "shed p99 must stay near the budget: {:?}",
        shed.sojourn_p99
    );
    assert!(
        fifo.sojourn_p99 >= 2 * shed.sojourn_p99,
        "FIFO p99 ({:?}) must visibly exceed the shed p99 ({:?}) under 2× load",
        fifo.sojourn_p99,
        shed.sojourn_p99
    );
}

/// A global backlog cap refuses arrivals at entry with a typed
/// `AdmissionLimit { tenant: None, .. }` outcome, and the backlog never
/// exceeds the cap.
#[test]
fn global_admission_cap_bounds_the_backlog() {
    let (bn, tree) = fixture();
    let qs = queries(&tree, 400, 3);
    let schedule = poisson_arrivals(qs.len(), 3000.0, 5); // 3× capacity
    let cap = 24;
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let serving = ServingEngine::new(
        engine,
        Materialization::default(),
        ServingConfig::default().with_workers(1),
    );
    let cfg = saturated_cfg(AdmissionConfig::default().with_max_backlog(cap));
    let (outcomes, report) = replay(&serving, &qs, Some(&schedule), &cfg);
    assert!(report.shed_admission > 0, "3× load must refuse arrivals");
    assert!(
        report.peak_backlog <= cap,
        "the cap is a hard bound: peak {} vs cap {cap}",
        report.peak_backlog
    );
    for o in &outcomes {
        if let Some(reason) = o.shed_reason() {
            match reason {
                ShedReason::AdmissionLimit {
                    tenant,
                    backlog,
                    limit,
                } => {
                    assert!(tenant.is_none(), "global cap sheds without a tenant");
                    assert_eq!(*limit, cap);
                    assert!(*backlog >= cap);
                }
                other => panic!("only admission sheds configured, got {other:?}"),
            }
        }
    }
}

/// Per-tenant admission isolates a flooding tenant: its arrivals are
/// refused against its own cap while the quiet tenant keeps being
/// admitted and served.
#[test]
fn per_tenant_admission_isolates_a_flooding_tenant() {
    let (bn, tree) = fixture();
    let hot = TenantId(0);
    let quiet = TenantId(1);
    let mut sharded = ShardedServingEngine::new(ShardConfig::default().with_workers(1));
    for id in [hot, quiet] {
        sharded
            .register(
                id,
                QueryEngine::numeric(&tree, &bn).unwrap(),
                Materialization::default(),
            )
            .unwrap();
    }
    // 9 of 10 arrivals are the flooding tenant's
    let qs = queries(&tree, 500, 19);
    let arrivals: Vec<(TenantId, ServeRequest)> = qs
        .into_iter()
        .enumerate()
        .map(|(i, q)| (if i % 10 == 9 { quiet } else { hot }, q))
        .collect();
    let schedule = poisson_arrivals(arrivals.len(), 3000.0, 23);
    let cfg = saturated_cfg(AdmissionConfig::default().with_max_tenant_backlog(8));
    let (outcomes, report) = replay_mixed(&sharded, &arrivals, Some(&schedule), &cfg);
    assert!(report.shed_admission > 0, "the flood must hit the cap");
    let shed_of = |t: TenantId| {
        outcomes
            .iter()
            .filter(|o| {
                matches!(
                    o.shed_reason(),
                    Some(ShedReason::AdmissionLimit { tenant: Some(x), .. }) if *x == t
                )
            })
            .count()
    };
    let served_of = |t: TenantId| {
        outcomes
            .iter()
            .zip(&arrivals)
            .filter(|(o, (at, _))| *at == t && o.is_served())
            .count()
    };
    assert!(
        shed_of(hot) > 4 * shed_of(quiet).max(1),
        "the flooding tenant must absorb the sheds: hot {} vs quiet {}",
        shed_of(hot),
        shed_of(quiet)
    );
    assert!(
        served_of(quiet) > 0,
        "the quiet tenant must keep being served through the flood"
    );
}

/// The fleet shape of the same claim: four tenants with Zipf(1.0) shares
/// behind one pool, offered 3× the simulated capacity. The unprotected
/// FIFO serves everything arbitrarily late; a per-tenant backlog cap (so
/// the hot tenant's flood cannot monopolize the queue) plus a deadline
/// keep served p99 bounded. On the virtual clock every figure is a pure
/// function of (stream, schedule, config), so they are pinned exactly.
#[test]
fn fleet_protection_bounds_p99_where_fifo_collapses() {
    const TENANTS: usize = 4;
    let bns: Vec<BayesianNetwork> = (0..TENANTS)
        .map(|t| fixtures::chain(24, 2, 13 + 4 * t as u64))
        .collect();
    let trees: Vec<JunctionTree> = bns
        .iter()
        .map(|bn| build_junction_tree(bn).unwrap())
        .collect();
    // per-tenant pools of long-range pairs, Zipf-skewed arrival shares
    let pool: Vec<Scope> = [5u32, 7]
        .into_iter()
        .flat_map(|span| (0..24 - span).map(move |a| Scope::from_indices(&[a, a + span])))
        .collect();
    let traffic: Vec<TenantTraffic> = zipf_weights(TENANTS, 1.0)
        .into_iter()
        .map(|w| TenantTraffic::steady(w, pool.clone()))
        .collect();
    let arrivals: Vec<(TenantId, ServeRequest)> = tenant_queries(&traffic, 1024, 0xaa)
        .into_iter()
        .map(|(t, q)| (TenantId(t as u32), ServeRequest::marginal(q)))
        .collect();
    let schedule = poisson_arrivals(arrivals.len(), 3000.0, 0xfeed);
    let run = |admission: AdmissionConfig| {
        let mut fleet = ShardedServingEngine::new(
            ShardConfig::default()
                .with_workers(1)
                .with_cache_capacity(0),
        );
        for (t, (tree, bn)) in trees.iter().zip(&bns).enumerate() {
            let engine = QueryEngine::numeric(tree, bn).unwrap();
            fleet
                .register(TenantId(t as u32), engine, Materialization::default())
                .unwrap();
        }
        let cfg = ReplayConfig {
            batch_size: 32,
            ..saturated_cfg(admission)
        };
        replay_mixed(&fleet, &arrivals, Some(&schedule), &cfg).1
    };
    let protected = AdmissionConfig::default()
        .with_max_tenant_backlog(64)
        .with_deadline(Duration::from_millis(64));
    for _ in 0..2 {
        let (fifo, shed) = (run(AdmissionConfig::fifo()), run(protected));
        assert_eq!(fifo.errors + shed.errors, 0);
        assert_eq!(
            (fifo.served, fifo.shed_deadline, fifo.shed_admission),
            (1024, 0, 0)
        );
        assert_eq!(
            (shed.served, shed.shed_deadline, shed.shed_admission),
            (420, 414, 190)
        );
        assert_eq!(fifo.sojourn_p99, Duration::from_nanos(684_159_825));
        assert_eq!(shed.sojourn_p99, Duration::from_nanos(95_891_920));
        // 7.13×; the claim is ≥ 1.5×
        assert!(2 * fifo.sojourn_p99 >= 3 * shed.sojourn_p99);
    }
}

/// Saturating background work never stalls a serving-lane batch beyond
/// its deadline: a re-selection thread keeps the re-materialization lane
/// full (`Executor::run_tasks`, the only traffic below the serving lane),
/// and workers yield its waves between tasks, so a serving wave waits for
/// at most one in-flight task per worker — not for the whole backlog.
#[test]
fn background_saturation_does_not_starve_the_serving_lane() {
    use peanut_core::exec::Executor;
    use std::sync::atomic::{AtomicUsize, Ordering};

    let pool = WorkerPool::new(2);
    let bg_started = AtomicUsize::new(0);
    let bg_done = AtomicUsize::new(0);
    const BG_WAVES: usize = 8;
    const BG_TASKS: usize = 16;
    let bg_task_ms = 10u64;
    std::thread::scope(|s| {
        // ~1.28s of background work (640ms per worker), wave after wave
        s.spawn(|| {
            for _ in 0..BG_WAVES {
                pool.run_tasks(BG_TASKS, &|_i| {
                    bg_started.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(bg_task_ms));
                    bg_done.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        // both workers are inside background tasks
        while bg_started.load(Ordering::Relaxed) < 2 {
            std::thread::yield_now();
        }

        // a serving wave submitted into the saturated pool must complete
        // within a small multiple of one background task, not the backlog
        let start = Instant::now();
        pool.run_wave(8, &|_i, _s| {});
        let elapsed = start.elapsed();
        let background_left = BG_WAVES * BG_TASKS - bg_done.load(Ordering::Relaxed);
        assert!(
            elapsed < Duration::from_millis(250),
            "serving wave stalled {elapsed:?} behind the background backlog"
        );
        assert!(
            background_left > 0,
            "the background backlog must still be pending when serving returns"
        );
    });

    // nothing is lost: the yielded background waves still ran to completion
    assert_eq!(bg_done.load(Ordering::Relaxed), BG_WAVES * BG_TASKS);
    let stats = pool.stats();
    assert_eq!(stats.lane_waves[Lane::Serving.index()], 1);
    assert_eq!(stats.lane_waves[Lane::Remat.index()], BG_WAVES as u64);
    assert_eq!(stats.tasks, (BG_WAVES * BG_TASKS + 8) as u64);
}

/// The FIFO baseline on the same shape: with no overload controls and no
/// virtual clock, the open-loop driver on an idle engine serves
/// everything — sanity that the wall-clock path works end to end.
#[test]
fn wall_clock_open_loop_serves_everything_below_capacity() {
    let (bn, tree) = fixture();
    let qs = queries(&tree, 64, 29);
    // all arrivals immediately due: one saturated burst, drained closed-loop
    let schedule = vec![Duration::ZERO; qs.len()];
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let serving = ServingEngine::new(
        engine,
        Materialization::default(),
        ServingConfig::default().with_workers(2),
    );
    let cfg = ReplayConfig {
        batch_size: 16,
        admission: AdmissionConfig::fifo(),
        clock: ReplayClock::Wall,
    };
    let (outcomes, report) = replay(&serving, &qs, Some(&schedule), &cfg);
    assert_eq!(report.served, qs.len());
    assert_eq!(
        report.shed_deadline + report.shed_admission + report.errors,
        0
    );
    assert!(outcomes.iter().all(ServeOutcome::is_served));
    assert_eq!(report.batches, 4);
    assert!(report.wall > Duration::ZERO);
    assert!(
        report.pool.tasks > 0,
        "a 2-worker engine must have fanned out onto the pool: {:?}",
        report.pool
    );
}
