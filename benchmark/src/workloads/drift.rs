//! `drift_remat`: a closed-loop `serve_batch` stream that steps between
//! three regimes — queries over the variables of one of three connected
//! regions of the junction tree — while a `RematerializationController` is
//! ticked at fixed arrival counts. Shortcuts selected for one region are
//! useless in the next, so every step decays the observed benefit and the
//! controller re-selects and publishes: offline selection and `publish`
//! are on the clock beside the read path (re-selection runs on the `Remat`
//! lane of the pool that is serving), and every publish invalidates the
//! answer cache by epoch.
//!
//! The client ticks the controller itself, every [`TICK_EVERY`] arrivals,
//! and waits for the tick: what each observation window holds — and
//! therefore every swap decision, every selected shortcut and every
//! operation count — is the same in every run. (A free-running helper
//! thread was tried first: a closed-loop client serving cache hits
//! outruns a 60 ms re-selection by tens of thousands of arrivals, and the
//! number of swaps then varied from run to run.)

use super::{keep_sampled, with_serving, Tally};
use crate::gen::sub_seed;
use crate::oracle::{strided, CheckSample};
use crate::runner::{Call, Rep, Traced, Workload};
use crate::spec::{BATCH, LANES};
use crate::stats::{median, spread, Tail};
use crate::steady::QuietCpu;
use crate::trace::Tracer;
use peanut_junction::{JunctionTree, QueryEngine, RootedTree};
use peanut_pgm::{Potential, Scope, Var};
use peanut_serving::{LifecycleConfig, RematerializationController, ServeRequest, ServingEngine};
use peanut_workload::QuerySpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::time::Instant;

/// TPC-H: one of the two datasets on which a 10·b_T materialization saves
/// operations at all (HeparII, which the other serving workloads use,
/// saves 0.02 %), and the one where it also saves time.
const DATASET: &str = "TPC-H";
const REGIONS: usize = 3;
const SPEC: QuerySpec = QuerySpec {
    min_vars: 1,
    max_vars: 2,
};
const TRAIN: usize = 2000;
/// Distinct scopes per regime (fewer if the side has fewer).
const POOL: usize = 1024;
/// Arrivals per regime (256 batches). (Half as long, the ring of windows
/// the controller re-selects on comes to hold all three regions, one
/// selection covers them all, and nothing decays again.)
const REGIME: usize = 256 * BATCH;
/// Cycles through the regions in a repetition: 27 regimes, 26 of them
/// entered by a step. Every regime draws its arrivals afresh. (While the
/// nine cycles replayed one drawn cycle, the slow batches of a repetition
/// — the few after each step and each publish, 3.5 % of all, where the
/// 99th percentile sits on a slope that doubles from p98.5 to p99 — were
/// nine copies of three regimes' worth, and the p99 moved by 23 % from seed
/// to seed against 4 % between runs of one seed.)
const CYCLES: usize = 9;
/// Scopes whose plain-junction-tree cost exceeds this are left out of the
/// pools: right after a step the stale shortcuts are useless and every
/// request runs at plain cost, and TPC-H's heaviest pairs then build
/// tables of a hundred megabytes whose page faults drown the controller.
const MAX_PLAIN_OPS: u64 = 1_000_000;
const CYCLE: usize = REGIONS * REGIME;
/// The controller is asked to tick every this many arrivals.
const TICK_EVERY: usize = 16 * BATCH;
/// Observation-window size of the controller.
const WINDOW: u64 = 2048;
const CHECKS: usize = 96;
/// The traced run serves this many cycles of the stream.
const TRACE_CYCLES: usize = 3;

/// One tick of the controller, as seen from outside.
struct Tick {
    start: Instant,
    end: Instant,
    swapped: bool,
    /// Index of the first batch served after the tick.
    at_batch: usize,
}

/// `drift_remat` with its generated inputs.
pub struct DriftRemat {
    train: Vec<Scope>,
    /// The distinct requests, region by region.
    pub requests: Vec<ServeRequest>,
    /// The drifting arrival stream, as indices into `requests`.
    pub stream: Vec<u32>,
    /// Oracle references for a strided sample of the first cycle.
    sample: CheckSample,
}

/// Cuts the tree into [`REGIONS`] connected parts of about equal clique
/// count (peeling off the subtree whose size is closest to an equal share,
/// one part at a time) and returns, per part, the variables that live in
/// that part only. A query over one part's variables has its Steiner tree
/// inside the part, so a shortcut selected for one part can never serve
/// another.
fn regions(tree: &JunctionTree) -> Vec<Vec<Var>> {
    let rooted = RootedTree::new(tree);
    let n = tree.n_cliques();
    let mut part_of: Vec<Option<usize>> = vec![None; n];
    for part in 0..REGIONS - 1 {
        let free = part_of.iter().filter(|p| p.is_none()).count();
        let share = free / (REGIONS - part);
        let remaining = |u: usize| {
            rooted
                .subtree_nodes(u)
                .iter()
                .filter(|&&w| part_of[w].is_none())
                .count()
        };
        let cut = (0..n)
            .filter(|&u| u != rooted.root() && part_of[u].is_none())
            .min_by_key(|&u| remaining(u).abs_diff(share))
            .expect("more cliques than regions");
        for &w in rooted.subtree_nodes(cut) {
            part_of[w].get_or_insert(part);
        }
    }
    let mut vars = vec![Vec::new(); REGIONS];
    for v in tree.domain().all_vars() {
        let mut homes = tree
            .cliques_with(v)
            .map(|u| part_of[u].unwrap_or(REGIONS - 1));
        let first = homes.next().expect("every variable is in a clique");
        if homes.all(|h| h == first) {
            vars[first].push(v);
        }
    }
    vars
}

/// Up to `n` distinct scopes of [`SPEC`] variables drawn uniformly from one
/// region's variables.
fn regional_pool(region: &[Var], n: usize, seed: u64) -> Vec<Scope> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(n);
    for _ in 0..n * 64 {
        if pool.len() == n {
            break;
        }
        let k = rng
            .gen_range(SPEC.min_vars..=SPEC.max_vars)
            .min(region.len());
        let scope = Scope::from_iter((0..k).map(|_| region[rng.gen_range(0..region.len())]));
        if seen.insert(scope.clone()) {
            pool.push(scope);
        }
    }
    pool
}

impl DriftRemat {
    /// Generates the inputs for `seed`.
    pub fn new(seed: u64) -> Self {
        let model = crate::fixture::build_model(DATASET, &mut Default::default());
        let symbolic = QueryEngine::symbolic(&model.tree);
        let pools: Vec<Vec<Scope>> = regions(&model.tree)
            .iter()
            .enumerate()
            .map(|(r, vars)| {
                let mut pool =
                    regional_pool(vars, POOL, sub_seed(seed, "pool").wrapping_add(r as u64));
                pool.retain(|q| symbolic.cost(q).is_ok_and(|c| c.ops <= MAX_PLAIN_OPS));
                pool
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, "train"));
        let train: Vec<Scope> = (0..TRAIN)
            .map(|_| pools[0][rng.gen_range(0..pools[0].len())].clone())
            .collect();
        let mut first = [0usize; REGIONS];
        for r in 1..REGIONS {
            first[r] = first[r - 1] + pools[r - 1].len();
        }
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, "stream"));
        let stream: Vec<u32> = (0..CYCLES * CYCLE)
            .map(|i| {
                let r = (i / REGIME) % REGIONS;
                (first[r] + rng.gen_range(0..pools[r].len())) as u32
            })
            .collect();
        let requests: Vec<ServeRequest> = pools
            .into_iter()
            .flatten()
            .map(ServeRequest::marginal)
            .collect();
        let first_cycle: Vec<ServeRequest> = stream[..CYCLE]
            .iter()
            .map(|&i| requests[i as usize].clone())
            .collect();
        let sample = CheckSample::build(&model.bn, &first_cycle, strided(CYCLE, CHECKS), CHECKS);
        DriftRemat {
            train,
            requests,
            stream,
            sample,
        }
    }

    /// The stream's batches, assembled one at a time.
    fn batches(&self, cycles: usize) -> impl Iterator<Item = Vec<ServeRequest>> + '_ {
        self.stream[..cycles * CYCLE].chunks(BATCH).map(|chunk| {
            chunk
                .iter()
                .map(|&i| self.requests[i as usize].clone())
                .collect()
        })
    }

    /// Serves the first `cycles` cycles of the stream, ticking the
    /// controller every [`TICK_EVERY`] arrivals; keeps the sampled answers
    /// of the first cycle. Returns the ticks and, per batch, `(start, end)`.
    fn serve(
        &self,
        serving: &ServingEngine<'_>,
        ctl: &mut RematerializationController<'_, '_>,
        cycles: usize,
        tally: &mut Tally,
        kept: &mut Vec<(usize, Potential)>,
    ) -> (Vec<Tick>, Vec<(Instant, Instant)>) {
        let mut ticks = Vec::new();
        let mut batches = Vec::with_capacity(cycles * CYCLE / BATCH);
        let mut sampled = self.sample.positions().peekable();
        for (b, batch) in self.batches(cycles).enumerate() {
            let first = b * BATCH;
            if first % TICK_EVERY == 0 && first > 0 {
                let start = Instant::now();
                let result = ctl.tick();
                let end = Instant::now();
                tally.failed += u64::from(result.is_err());
                ticks.push(Tick {
                    start,
                    end,
                    swapped: matches!(result, Ok(Some(_))),
                    at_batch: b,
                });
            }
            let t0 = Instant::now();
            let (outcomes, stats) = serving.serve_batch(&batch);
            batches.push((t0, Instant::now()));
            tally.batch(&outcomes, stats.unique, stats.cache_hits);
            keep_sampled(&mut sampled, first, &outcomes, kept);
        }
        (ticks, batches)
    }
}

fn lifecycle(serving: &ServingEngine<'_>) -> LifecycleConfig {
    LifecycleConfig::new(crate::fixture::budget(serving.engine().tree())).with_min_window(WINDOW)
}

impl Workload for DriftRemat {
    fn rep(&self, _index: usize) -> Rep {
        let t_setup = Instant::now();
        with_serving(DATASET, &self.train, LANES, |up| {
            let serving = up.serving;
            // warm-up on the training regime, then a fresh observation
            // window so the controller starts from the timed stream
            for batch in self.batches(1).take(REGIME / 2 / BATCH) {
                serving.serve_batch(&batch);
            }
            serving.reset_stats();
            let mut ctl =
                RematerializationController::new(serving, up.training, lifecycle(serving));
            let setup_s = t_setup.elapsed().as_secs_f64();

            let quiet_cpu = QuietCpu::pick();
            let mut tally = Tally::default();
            let mut kept = Vec::new();
            let (ticks, batches) = self.serve(serving, &mut ctl, CYCLES, &mut tally, &mut kept);
            drop(quiet_cpu);
            let swaps = ctl.swaps().len();
            // in the order made: a tick sits before the batch it precedes
            let mut calls = Vec::with_capacity(batches.len() + ticks.len());
            let mut ticks = ticks.iter().peekable();
            for (b, (start, end)) in batches.iter().enumerate() {
                if let Some(t) = ticks.next_if(|t| t.at_batch == b) {
                    calls.push(Call::between(t.start, t.end, 0));
                }
                calls.push(Call::between(*start, *end, BATCH));
            }
            Rep {
                period: 0,
                setup_s,
                calls,
                attempted: tally.requests + self.sample.refs.len() as u64,
                failed: tally.failed + self.sample.mismatches(&kept, 0..CYCLE),
                ops: tally.ops,
                baseline_ops: tally.baseline_ops,
                counts: vec![("serving.swaps", swaps as f64)],
            }
        })
    }

    fn nominal_rep_s(&self) -> f64 {
        0.9
    }

    fn traced(&self) -> Traced {
        let run = |tracer: Option<&mut Tracer>| {
            with_serving(DATASET, &self.train, LANES, |up| {
                let serving = up.serving;
                let mut ctl =
                    RematerializationController::new(serving, up.training, lifecycle(serving));
                let mut tally = Tally::default();
                let mut kept = Vec::new();
                let (ticks, batches) =
                    self.serve(serving, &mut ctl, TRACE_CYCLES, &mut tally, &mut kept);
                let wall: f64 = batches.iter().map(|(a, b)| (*b - *a).as_secs_f64()).sum();
                // the serving-side cost of a swap: the tick interval right
                // after it refills the answer cache, stale by epoch
                let mut during = Vec::new();
                let mut batch_us = Vec::new();
                let per_tick = TICK_EVERY / BATCH;
                for (i, (a, b)) in batches.iter().enumerate() {
                    let us = (*b - *a).as_nanos() as f64 / 1e3;
                    batch_us.push(us);
                    if ticks
                        .iter()
                        .any(|t| t.swapped && (t.at_batch..t.at_batch + per_tick).contains(&i))
                    {
                        during.push(us);
                    }
                }
                let remat_ms: Vec<f64> = ticks
                    .iter()
                    .filter(|t| t.swapped)
                    .map(|t| (t.end - t.start).as_secs_f64() * 1e3)
                    .collect();
                if let Some(tracer) = tracer {
                    for (i, (a, b)) in batches.iter().enumerate() {
                        tracer.record("serving.serve_batch", *a, *b, None, i as u64);
                    }
                    for (i, t) in ticks.iter().enumerate() {
                        let name = if t.swapped {
                            "serving.remat_tick_swapped"
                        } else {
                            "serving.remat_tick"
                        };
                        tracer.record(name, t.start, t.end, None, i as u64);
                    }
                }
                // publish on its own: the current materialization again
                let publish_us: Vec<f64> = (0..20)
                    .map(|_| {
                        let mat = (*serving.materialization()).clone();
                        let t = Instant::now();
                        serving.publish(mat);
                        t.elapsed().as_nanos() as f64 / 1e3
                    })
                    .collect();
                let swap_selection_ms: Vec<f64> = ctl
                    .swaps()
                    .iter()
                    .map(|e| e.selection.as_secs_f64() * 1e3)
                    .collect();
                let mut layer = up.layer_metrics();
                layer.extend(tally.layer_metrics());
                // on this workload the selection that matters is the one
                // the controller ran while serving
                if !swap_selection_ms.is_empty() {
                    layer.retain(|(n, _)| *n != "core.select_ms");
                    layer.push(("core.select_ms", median(&swap_selection_ms)));
                }
                layer.extend([
                    ("serving.batch_us_p50", median(&batch_us)),
                    ("serving.remat_ms_p50", median(&remat_ms)),
                    (
                        "serving.query_us_p99_during_remat",
                        Tail::of(&mut during).tail,
                    ),
                    ("serving.publish_us_p50", median(&publish_us)),
                    ("serving.swaps", ctl.swaps().len() as f64),
                ]);
                let failed = tally.failed + self.sample.mismatches(&kept, 0..CYCLE);
                (layer, wall, tally.requests, failed)
            })
        };
        let untraced: Vec<f64> = (0..2).map(|_| run(None).1).collect();
        let mut tracer = Tracer::new();
        let (mut layer, traced_s, requests, failed) = run(Some(&mut tracer));
        layer.extend([
            (
                "bench.trace_overhead_frac",
                traced_s / median(&untraced) - 1.0,
            ),
            ("bench.spread_max", spread(&untraced)),
        ]);
        Traced {
            layer,
            tracer,
            attempted: 3 * requests,
            failed,
        }
    }
}
