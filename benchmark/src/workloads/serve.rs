//! `serve_repeat` and `serve_distinct`: one `ServingEngine` on HeparII,
//! driven two opposite ways.
//!
//! * `serve_repeat` is a **closed loop**, one client: the next batch of 64
//!   is offered when the previous one returned. A 1024-request pool (fits
//!   the 4096-entry answer cache) drawn with Zipf(1.1) popularity — after
//!   the first thousand computations every request is a dedup or cache
//!   hit, so the hit path, the cache lock and the fan-back do the work.
//! * `serve_distinct` is an **open loop**: Poisson arrivals at three fixed
//!   rates, every request different from every other (a property of the
//!   generated stream — the cache and dedup stay configured exactly as in
//!   `serve_repeat` and simply never hit). Sojourn is measured from the
//!   instant a request was due. A short all-distinct closed-loop phase
//!   reports the capacity the rates were frozen from — and the end-to-end
//!   metrics, because the open-loop sojourns are too noisy to bound; the
//!   three rates are driven in the traced run.

use super::{keep_sampled, potential_of, with_serving, Tally};
use crate::gen::{
    distinct_requests, poisson_schedule, skewed, stratified_split, sub_seed, zipf_draws,
};
use crate::micro;
use crate::oracle::{strided, CheckSample};
use crate::runner::{Call, Rep, Traced, Workload};
use crate::spec::{BATCH, LANES, RATES_QPS, SOJOURN_LIMIT_MS, WORKERS};
use crate::stats::{median, spread, Tail};
use crate::steady::QuietCpu;
use crate::trace::Tracer;
use peanut_core::OnlineEngine;
use peanut_junction::JunctionTree;
use peanut_pgm::{Potential, Scope, Scratch};
use peanut_serving::{ServeOutcome, ServeRequest, ServingEngine};
use peanut_workload::QuerySpec;
use std::time::{Duration, Instant};

const DATASET: &str = "HeparII";
/// 1–3-variable requests: HeparII's 4–5-variable joints cost a
/// millisecond each, which would leave too few arrivals per second for a
/// p99 at three rates inside the run budget.
const SPEC: QuerySpec = QuerySpec {
    min_vars: 1,
    max_vars: 3,
};
const TRAIN: usize = 2000;
const EVIDENCE_FRACTION: f64 = 0.25;
/// Answers checked against the oracle per repetition.
const CHECKS: usize = 96;

fn training(tree: &JunctionTree, seed: u64) -> Vec<Scope> {
    skewed(tree, TRAIN, SPEC, sub_seed(seed, "train"))
}

/// Replays the batch's freshly computed requests on a bare
/// `OnlineEngine`, single-threaded, and returns the wall that took.
fn bare_replay(
    serving: &ServingEngine<'_>,
    batch: &[ServeRequest],
    fresh: &[usize],
    scratch: &mut Scratch,
) -> Duration {
    let mat = serving.materialization();
    let online = OnlineEngine::new(serving.engine(), &mat);
    let t = Instant::now();
    for &i in fresh {
        let req = &batch[i];
        let answer = if req.is_marginal() {
            online.answer_traced_in(&req.targets, scratch)
        } else {
            online.conditional_traced_in(&req.targets, &req.evidence, scratch)
        };
        if let Ok(a) = answer {
            scratch.recycle(a.potential);
        }
    }
    t.elapsed()
}

/// Framework tax per request of one batch: its wall minus the bare replay
/// spread over the `workers` that shared it.
fn tax_us_per_req(
    batch_wall: Duration,
    bare: Duration,
    computed: usize,
    requests: usize,
    workers: usize,
) -> f64 {
    let lanes = computed.clamp(1, workers) as f64;
    (batch_wall.as_secs_f64() - bare.as_secs_f64() / lanes) * 1e6 / requests as f64
}

// ---------------------------------------------------------------------------
// serve_repeat
// ---------------------------------------------------------------------------

const POOL: usize = 1024;
const ZIPF: f64 = 1.1;
/// Arrivals of the pre-built stream (2048 batches); a repetition replays
/// it [`PASSES`] times, ≈ 1.3 M arrivals, and the run reports each of the
/// 2048 batches at its quietest over every pass of every repetition. (A
/// short phase repeated more often: a cache-hit batch takes 11, 13, 14.7
/// or 18 µs depending on what the host is doing to the vCPU, for seconds
/// at a time.)
const STREAM: usize = 2048 * BATCH;
const PASSES: usize = 10;
const TRACE_BATCHES: usize = 512;

/// `serve_repeat` with its generated inputs.
pub struct ServeRepeat {
    train: Vec<Scope>,
    /// The distinct request pool, most popular first.
    pub pool: Vec<ServeRequest>,
    /// Pool indices of the arrival stream.
    pub draws: Vec<u32>,
    stream: Vec<ServeRequest>,
    /// Oracle references for a strided sample of the pool.
    sample: CheckSample,
}

impl ServeRepeat {
    /// Generates the inputs for `seed`.
    pub fn new(seed: u64) -> Self {
        let model = crate::fixture::build_model(DATASET, &mut Default::default());
        let pool = distinct_requests(
            &model.tree,
            POOL,
            SPEC,
            EVIDENCE_FRACTION,
            sub_seed(seed, "pool"),
        );
        let draws = zipf_draws(POOL, ZIPF, STREAM, sub_seed(seed, "zipf"));
        let stream = draws.iter().map(|&i| pool[i as usize].clone()).collect();
        let sample = CheckSample::build(&model.bn, &pool, strided(POOL, CHECKS), CHECKS);
        ServeRepeat {
            train: training(&model.tree, seed),
            pool,
            draws,
            stream,
            sample,
        }
    }

    /// Serves the sampled pool entries once more — cache hits, so these
    /// are the very answers the timed phase handed out — and counts the
    /// wrong ones.
    fn check(&self, serving: &ServingEngine<'_>) -> u64 {
        let asked: Vec<ServeRequest> = self
            .sample
            .positions()
            .map(|i| self.pool[i].clone())
            .collect();
        let (outcomes, _) = serving.serve_batch(&asked);
        let kept: Vec<(usize, Potential)> = self
            .sample
            .positions()
            .zip(&outcomes)
            .filter_map(|(i, o)| Some((i, potential_of(o)?.clone())))
            .collect();
        self.sample.mismatches(&kept, 0..POOL)
    }
}

impl Workload for ServeRepeat {
    fn rep(&self, _index: usize) -> Rep {
        let t_setup = Instant::now();
        with_serving(DATASET, &self.train, LANES, |up| {
            let serving = up.serving;
            let mut tally = Tally::default();
            // warm-up: compute and cache the whole pool — the steady state
            // being measured — then an eighth of the stream, all hits by
            // now. (While the warm-up left the pool's tail to the first
            // timed pass, those few hundred batches of 100 µs and more sat
            // right at the 99th percentile of the 12 µs cache-hit batches,
            // and the p99 flipped between the two kinds from run to run.)
            // The pool is asked one request per call, which the engine
            // answers in the caller's thread: asked in batches, set-up time
            // followed how well the sandbox happened to run two threads in
            // parallel (0.55 s, then 0.71 s twenty minutes later).
            for request in &self.pool {
                let (outcomes, stats) = serving.serve_batch(std::slice::from_ref(request));
                tally.batch(&outcomes, stats.unique, stats.cache_hits);
            }
            for batch in self.stream[..STREAM / 8].chunks(BATCH) {
                let (outcomes, stats) = serving.serve_batch(batch);
                tally.batch(&outcomes, stats.unique, stats.cache_hits);
            }
            let setup_s = t_setup.elapsed().as_secs_f64();

            let quiet_cpu = QuietCpu::pick();
            let mut calls = Vec::with_capacity(PASSES * STREAM / BATCH);
            for _ in 0..PASSES {
                for batch in self.stream.chunks(BATCH) {
                    let t = Instant::now();
                    let (outcomes, stats) = serving.serve_batch(batch);
                    calls.push(Call::since(t, batch.len()));
                    tally.batch(&outcomes, stats.unique, stats.cache_hits);
                }
            }
            drop(quiet_cpu);
            Rep {
                // every pass asks the same batches of a cache that holds
                // the whole pool: batch `i` of any pass is the same work
                period: STREAM / BATCH,
                setup_s,
                calls,
                attempted: tally.requests + self.sample.refs.len() as u64,
                failed: tally.failed + self.check(serving),
                ops: tally.ops,
                baseline_ops: tally.baseline_ops,
                counts: tally.layer_metrics(),
            }
        })
    }

    fn nominal_rep_s(&self) -> f64 {
        1.0
    }

    fn traced(&self) -> Traced {
        with_serving(DATASET, &self.train, LANES, |up| {
            let prefix = &self.stream[..TRACE_BATCHES * BATCH];
            // untraced passes, each on a cold engine like the traced one
            let untraced: Vec<f64> = (0..2)
                .map(|_| {
                    with_serving(DATASET, &self.train, LANES, |cold| {
                        let t = Instant::now();
                        for batch in prefix.chunks(BATCH) {
                            cold.serving.serve_batch(batch);
                        }
                        t.elapsed().as_secs_f64()
                    })
                })
                .collect();

            let serving = up.serving;
            let mut tracer = Tracer::new();
            let mut tally = Tally::default();
            let mut scratch = Scratch::new();
            let mut batch_us = Vec::with_capacity(TRACE_BATCHES);
            let mut computed: Vec<(usize, Duration, Vec<usize>)> = Vec::new();
            let mut traced_s = 0.0;
            for (b, batch) in prefix.chunks(BATCH).enumerate() {
                let ((outcomes, stats), span) =
                    tracer.time("serving.serve_batch", None, b as u64, || {
                        serving.serve_batch(batch)
                    });
                let wall = Duration::from_nanos(tracer.duration_ns(span));
                traced_s += wall.as_secs_f64();
                batch_us.push(wall.as_nanos() as f64 / 1e3);
                let fresh = tally.batch(&outcomes, stats.unique, stats.cache_hits);
                if !fresh.is_empty() {
                    computed.push((b, wall, fresh));
                }
            }
            // the bare-answer replays run in a pass of their own, so that
            // they do not disturb the batches they are compared with
            let taxes: Vec<f64> = computed
                .iter()
                .map(|(b, wall, fresh)| {
                    let batch = &prefix[b * BATCH..(b + 1) * BATCH];
                    let (bare, _) = tracer.time("core.bare_answer_replay", None, *b as u64, || {
                        bare_replay(serving, batch, fresh, &mut scratch)
                    });
                    tax_us_per_req(*wall, bare, fresh.len(), batch.len(), LANES)
                })
                .collect();
            // the hit path alone: the first batch again, by now all cached
            let hot = &prefix[..BATCH];
            let hit_ns: Vec<f64> = (0..2000)
                .map(|_| {
                    let t = Instant::now();
                    let (outcomes, _) = serving.serve_batch(hot);
                    let dt = t.elapsed().as_nanos() as f64;
                    assert!(outcomes.iter().all(ServeOutcome::is_served));
                    dt / BATCH as f64
                })
                .collect();

            let mut layer = up.layer_metrics();
            layer.extend(tally.layer_metrics());
            layer.extend([
                ("serving.batch_us_p50", median(&batch_us)),
                ("serving.framework_tax_us_per_req", median(&taxes)),
                ("serving.hit_path_ns_per_req", median(&hit_ns)),
                (
                    "bench.trace_overhead_frac",
                    traced_s / median(&untraced) - 1.0,
                ),
                ("bench.spread_max", spread(&untraced)),
            ]);
            Traced {
                layer,
                tracer,
                attempted: tally.requests + 2 * prefix.len() as u64,
                failed: tally.failed + self.check(serving),
            }
        })
    }
}

// ---------------------------------------------------------------------------
// serve_distinct
// ---------------------------------------------------------------------------

/// Distinct requests served before the clock starts.
const WARM: usize = 512;
/// Distinct requests of the closed-loop capacity phase (32 batches): a
/// short phase repeated more often, because how well the sandbox runs two
/// threads in parallel changes from second to second and every batch needs
/// one repetition that caught it at its best.
const CAPACITY: usize = 2048;
/// Arrivals per rate.
const ARRIVALS: usize = 1500;
/// Capacity batches the traced run serves on two workers and replays bare
/// for the framework tax.
const TAX_BATCHES: usize = 24;

/// One open-loop phase's inputs.
pub struct Phase {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests in arrival order (FIFO admission: a dispatched batch is a
    /// contiguous slice).
    pub requests: Vec<ServeRequest>,
    /// Due instant of each request, from the start of the phase.
    pub schedule: Vec<Duration>,
    sample: CheckSample,
}

/// What one open-loop phase measured.
#[derive(Default)]
struct PhaseResult {
    sojourn_us: Vec<f64>,
    queue_wait_us: Vec<f64>,
    sched_lag_us: Vec<f64>,
    batch_us: Vec<f64>,
    peak_backlog: usize,
    /// Mean backlog at dispatch over the third and the fourth quarter of
    /// the phase.
    backlog_q3: f64,
    backlog_q4: f64,
    tally: Tally,
    mismatches: u64,
    wall_s: f64,
}

impl PhaseResult {
    fn growing_backlog(&self) -> bool {
        self.backlog_q4 > 2.0 * self.backlog_q3 + BATCH as f64
    }

    fn failed(&self) -> u64 {
        self.tally.failed + self.mismatches
    }
}

/// Drives one open-loop phase on the calling thread: admit every due
/// arrival, dispatch up to [`BATCH`] from the front of the backlog, sleep
/// when idle. With `tracer`, records a queue and a serve_batch span per
/// dispatched batch.
fn drive_open_loop(
    serving: &ServingEngine<'_>,
    phase: &Phase,
    mut tracer: Option<&mut Tracer>,
) -> PhaseResult {
    let n = phase.requests.len();
    let mut out = PhaseResult::default();
    let mut kept: Vec<(usize, Potential)> = Vec::new();
    let mut sampled = phase.sample.positions().peekable();
    let horizon = phase.schedule[n - 1].as_secs_f64();
    let (mut q3, mut q4) = ((0.0f64, 0u32), (0.0f64, 0u32));
    let (mut admitted, mut dispatched) = (0usize, 0usize);
    let start = Instant::now();
    while dispatched < n {
        let now = start.elapsed();
        while admitted < n && phase.schedule[admitted] <= now {
            out.sched_lag_us
                .push((now - phase.schedule[admitted]).as_nanos() as f64 / 1e3);
            admitted += 1;
        }
        let backlog = admitted - dispatched;
        if backlog == 0 {
            std::thread::sleep(phase.schedule[admitted].saturating_sub(start.elapsed()));
            continue;
        }
        out.peak_backlog = out.peak_backlog.max(backlog);
        let at = now.as_secs_f64() / horizon;
        if (0.5..0.75).contains(&at) {
            q3 = (q3.0 + backlog as f64, q3.1 + 1);
        } else if at >= 0.75 {
            q4 = (q4.0 + backlog as f64, q4.1 + 1);
        }
        let range = dispatched..dispatched + backlog.min(BATCH);
        let batch = &phase.requests[range.clone()];
        let t_dispatch = Instant::now();
        let (outcomes, stats) = serving.serve_batch(batch);
        let t_done = Instant::now();
        let done = t_done - start;
        if let Some(tr) = tracer.as_deref_mut() {
            let id = range.start as u64;
            let due = start + phase.schedule[range.start];
            tr.record("serving.queue", due.min(t_dispatch), t_dispatch, None, id);
            tr.record("serving.serve_batch", t_dispatch, t_done, None, id);
        }
        out.batch_us
            .push((t_done - t_dispatch).as_nanos() as f64 / 1e3);
        for i in range.clone() {
            let due = phase.schedule[i];
            out.sojourn_us
                .push(done.saturating_sub(due).as_nanos() as f64 / 1e3);
            out.queue_wait_us
                .push((t_dispatch - start).saturating_sub(due).as_nanos() as f64 / 1e3);
        }
        keep_sampled(&mut sampled, range.start, &outcomes, &mut kept);
        out.tally.batch(&outcomes, stats.unique, stats.cache_hits);
        dispatched = range.end;
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out.backlog_q3 = q3.0 / f64::from(q3.1.max(1));
    out.backlog_q4 = q4.0 / f64::from(q4.1.max(1));
    out.mismatches = phase.sample.mismatches(&kept, 0..n);
    out
}

/// `serve_distinct` with its generated inputs.
pub struct ServeDistinct {
    train: Vec<Scope>,
    warm: Vec<ServeRequest>,
    /// The closed-loop capacity phase's requests.
    pub capacity: Vec<ServeRequest>,
    capacity_sample: CheckSample,
    /// The three open-loop phases, slowest rate first.
    pub phases: Vec<Phase>,
}

impl ServeDistinct {
    /// Generates the inputs for `seed`.
    pub fn new(seed: u64) -> Self {
        let model = crate::fixture::build_model(DATASET, &mut Default::default());
        let per_phase = [ARRIVALS; RATES_QPS.len()];
        let total = WARM + CAPACITY + per_phase.iter().sum::<usize>();
        // one draw of distinct requests for everything, dealt into the
        // phases: no request of one phase can repeat in another, and every
        // phase gets the same cost profile
        let pool = distinct_requests(
            &model.tree,
            2 * total,
            SPEC,
            EVIDENCE_FRACTION,
            sub_seed(seed, "distinct"),
        );
        let mut sizes = vec![WARM, CAPACITY];
        sizes.extend(&per_phase);
        let mut parts = stratified_split(&model.tree, pool, &sizes, sub_seed(seed, "deal"));
        let mut phases = Vec::new();
        for (k, (&rate, &n)) in RATES_QPS.iter().zip(&per_phase).enumerate().rev() {
            let requests = parts.pop().expect("one part per phase");
            let schedule =
                poisson_schedule(n, rate, sub_seed(seed, "arrivals").wrapping_add(k as u64));
            let checks = CHECKS / RATES_QPS.len();
            let sample = CheckSample::build(&model.bn, &requests, strided(n, checks), checks);
            phases.push(Phase {
                rate,
                requests,
                schedule,
                sample,
            });
        }
        phases.reverse();
        let capacity = parts.pop().expect("capacity part");
        let warm = parts.pop().expect("warm-up part");
        let capacity_sample =
            CheckSample::build(&model.bn, &capacity, strided(CAPACITY, CHECKS), CHECKS);
        ServeDistinct {
            train: training(&model.tree, seed),
            warm,
            capacity,
            capacity_sample,
            phases,
        }
    }

    /// Every request of the workload, for the no-duplicates test.
    pub fn all_requests(&self) -> impl Iterator<Item = &ServeRequest> {
        self.warm
            .iter()
            .chain(&self.capacity)
            .chain(self.phases.iter().flat_map(|p| &p.requests))
    }

    fn warm_up(&self, serving: &ServingEngine<'_>, tally: &mut Tally) {
        for batch in self.warm.chunks(BATCH) {
            let (outcomes, stats) = serving.serve_batch(batch);
            tally.batch(&outcomes, stats.unique, stats.cache_hits);
        }
    }

    /// The closed-loop capacity phase: every distinct request once, in
    /// batches. Returns the wall of each batch and the number of sampled
    /// answers that were wrong.
    fn run_capacity(&self, serving: &ServingEngine<'_>, tally: &mut Tally) -> (Vec<Call>, u64) {
        let mut calls = Vec::with_capacity(CAPACITY / BATCH);
        let mut kept: Vec<(usize, Potential)> = Vec::new();
        let mut sampled = self.capacity_sample.positions().peekable();
        for (b, batch) in self.capacity.chunks(BATCH).enumerate() {
            let t = Instant::now();
            let (outcomes, stats) = serving.serve_batch(batch);
            calls.push(Call::since(t, batch.len()));
            tally.batch(&outcomes, stats.unique, stats.cache_hits);
            keep_sampled(&mut sampled, b * BATCH, &outcomes, &mut kept);
        }
        (calls, self.capacity_sample.mismatches(&kept, 0..CAPACITY))
    }
}

impl Workload for ServeDistinct {
    fn rep(&self, _index: usize) -> Rep {
        let t_setup = Instant::now();
        with_serving(DATASET, &self.train, LANES, |up| {
            let serving = up.serving;
            let mut tally = Tally::default();
            self.warm_up(serving, &mut tally);
            let setup_s = t_setup.elapsed().as_secs_f64();

            // The untraced repetition is the closed-loop capacity phase:
            // the open-loop sojourns do not repeat within any bound this
            // benchmark may set (ten runs: p50 at r1 ±19 %, p99 ±69 % — a
            // queueing tail over 1500 arrivals, on a dispatcher that flips
            // between in-thread and two-worker service), so they are
            // per-layer metrics of the traced run, which drives all three
            // rates.
            let mut timed = Tally::default();
            let quiet_cpu = QuietCpu::pick();
            let (calls, wrong) = self.run_capacity(serving, &mut timed);
            drop(quiet_cpu);
            Rep {
                period: 0,
                setup_s,
                calls,
                attempted: tally.requests + timed.requests + self.capacity_sample.refs.len() as u64,
                failed: tally.failed + timed.failed + wrong,
                ops: tally.ops + timed.ops,
                baseline_ops: tally.baseline_ops + timed.baseline_ops,
                counts: vec![
                    ("serving.cache_hit_frac", timed.cache_hit_frac()),
                    ("serving.dedup_frac", timed.dedup_frac()),
                ],
            }
        })
    }

    fn nominal_rep_s(&self) -> f64 {
        1.75
    }

    fn traced(&self) -> Traced {
        with_serving(DATASET, &self.train, WORKERS, |up| {
            let serving = up.serving;
            let mut tally = Tally::default();
            self.warm_up(serving, &mut tally);

            // tracing off: the three rates, as in an untraced repetition
            let results: Vec<PhaseResult> = self
                .phases
                .iter()
                .map(|p| drive_open_loop(serving, p, None))
                .collect();
            let tails: Vec<Tail> = results
                .iter()
                .map(|r| Tail::of(&mut r.sojourn_us.clone()))
                .collect();
            let max_rate = results
                .iter()
                .zip(&tails)
                .zip(&self.phases)
                .filter(|((r, t), _)| {
                    t.tail / 1e3 <= SOJOURN_LIMIT_MS && r.failed() == 0 && !r.growing_backlog()
                })
                .map(|(_, p)| p.rate)
                .fold(0.0, f64::max);

            // tracing on: the middle rate again, on a cold engine so that
            // nothing is cached, with queue and serve_batch spans
            let mut tracer = Tracer::new();
            let traced_mid = with_serving(DATASET, &self.train, WORKERS, |cold| {
                self.warm_up(cold.serving, &mut Tally::default());
                drive_open_loop(cold.serving, &self.phases[1], Some(&mut tracer))
            });

            // framework tax on closed-loop batches of the capacity phase
            let mut scratch = Scratch::new();
            let mut taxes = Vec::new();
            let mut cap_tally = Tally::default();
            for (b, batch) in self.capacity.chunks(BATCH).take(TAX_BATCHES).enumerate() {
                let id = (1u64 << 32) + b as u64;
                let ((outcomes, stats), span) =
                    tracer.time("serving.serve_batch", None, id, || {
                        serving.serve_batch(batch)
                    });
                let wall = Duration::from_nanos(tracer.duration_ns(span));
                let fresh = cap_tally.batch(&outcomes, stats.unique, stats.cache_hits);
                let (bare, _) = tracer.time("core.bare_answer_replay", None, id, || {
                    bare_replay(serving, batch, &fresh, &mut scratch)
                });
                taxes.push(tax_us_per_req(
                    wall,
                    bare,
                    fresh.len(),
                    batch.len(),
                    WORKERS,
                ));
            }

            let mut seen = Tally::default();
            let mut failed = tally.failed + cap_tally.failed + traced_mid.failed();
            let mut attempted = tally.requests + cap_tally.requests + traced_mid.tally.requests;
            for r in &results {
                failed += r.failed();
                attempted += r.tally.requests;
                seen.requests += r.tally.requests;
                seen.unique += r.tally.unique;
                seen.cache_hits += r.tally.cache_hits;
                seen.shed += r.tally.shed;
            }
            let all_batches: Vec<f64> = results.iter().flat_map(|r| r.batch_us.clone()).collect();
            let lag: Vec<f64> = results
                .iter()
                .flat_map(|r| r.sched_lag_us.clone())
                .collect();
            let p99 = |xs: &[f64]| Tail::of(&mut xs.to_vec()).tail;
            let top = &results[2];
            let mut layer = up.layer_metrics();
            layer.extend([
                ("serving.cache_hit_frac", seen.cache_hit_frac()),
                ("serving.dedup_frac", seen.dedup_frac()),
                ("serving.batch_us_p50", median(&all_batches)),
                ("serving.framework_tax_us_per_req", median(&taxes)),
                ("serving.queue_wait_ms_p99", p99(&top.queue_wait_us) / 1e3),
                ("serving.peak_backlog", top.peak_backlog as f64),
                (
                    "serving.shed_frac",
                    seen.shed as f64 / seen.requests.max(1) as f64,
                ),
                ("serving.sojourn_ms_p50.r2", tails[1].p50 / 1e3),
                ("serving.sojourn_ms_p99.r1", tails[0].tail / 1e3),
                ("serving.sojourn_ms_p99.r2", tails[1].tail / 1e3),
                ("serving.sojourn_ms_p99.r3", tails[2].tail / 1e3),
                ("serving.max_rate_qps", max_rate),
                ("bench.sched_lag_ms_p99", p99(&lag) / 1e3),
                (
                    "bench.trace_overhead_frac",
                    traced_mid.batch_us.iter().sum::<f64>()
                        / results[1].batch_us.iter().sum::<f64>()
                        - 1.0,
                ),
                (
                    "bench.spread_max",
                    spread(&[results[1].wall_s, traced_mid.wall_s]),
                ),
            ]);
            layer.extend(micro::pool_waves());
            Traced {
                layer,
                tracer,
                attempted,
                failed,
            }
        })
    }
}
