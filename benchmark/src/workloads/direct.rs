//! `direct_small` and `direct_large`: one thread through
//! `OnlineEngine::answer_in`, no serving layer. The two share every line
//! and differ only in their inputs — which is the point: Child is
//! plan-bound (Steiner extraction, reduced-tree build and shortcut
//! substitution dominate tiny tables), TPC-H is kernel-bound with a heavy
//! tail. A change that helps one regime must not move the other.

use crate::fixture::{build_model, calibrate, select, StageTimes};
use crate::gen::{skewed, sub_seed};
use crate::micro;
use crate::oracle::{matches, reference, strided, sums_to_one, CheckSample};
use crate::runner::{Call, Rep, Traced, Workload};
use crate::spec::LANES;
use crate::stats::{median, spread};
use crate::steady::QuietCpu;
use crate::trace::Tracer;
use peanut_core::OnlineEngine;
use peanut_junction::{QueryEngine, QueryPlan, ReducedTree};
use peanut_pgm::{BayesianNetwork, Potential, Scope, Scratch};
use peanut_serving::ServeRequest;
use peanut_workload::QuerySpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::time::Instant;

/// Which workload-independent probe a direct workload's traced run hosts.
#[derive(Clone, Copy)]
enum HomeProbe {
    /// The paper's symbolic ops-saved table.
    PaperOps,
    /// Lane kernels against the stream roofline.
    LaneKernels,
}

/// The fixed shape of a direct workload.
pub struct DirectCfg {
    dataset: &'static str,
    min_vars: usize,
    max_vars: usize,
    /// Training queries the offline selection sees: enough of them that
    /// which shortcuts get selected no longer depends on the seed (with
    /// 2000, Child's per-query time varied by ±25 % across seeds through
    /// the size of the selected set alone).
    train: usize,
    /// Test queries per timed repetition; `None` asks every scope of
    /// exactly `max_vars` variables once, in a seeded order. A sample of a
    /// heavy-tailed population is dominated by whichever heavy queries it
    /// happens to hold (on TPC-H, throughput, p99 and peak memory swung by
    /// ±30 % with the seed); the whole population is not.
    test: Option<usize>,
    /// Besides the strided sample of [`CHECKS`] answers every repetition
    /// keeps and checks, also check every distinct test query against the
    /// oracle once per run (cheap networks only).
    check_all: bool,
    /// Queries of the traced prefix.
    trace_prefix: usize,
    /// Queries of the plain-junction-tree reference pass (a prefix of the
    /// traced prefix; the plain tree is several times slower on TPC-H).
    plain_prefix: usize,
    probe: HomeProbe,
    /// See [`Workload::nominal_rep_s`].
    nominal_rep_s: f64,
}

/// Answers of the timed phase kept and checked per repetition.
const CHECKS: usize = 96;

/// Child, paper-skewed 1–5-variable queries.
pub const SMALL: DirectCfg = DirectCfg {
    dataset: "Child",
    min_vars: 1,
    max_vars: 5,
    train: 20_000,
    test: Some(8000),
    check_all: true,
    trace_prefix: 4000,
    plain_prefix: 2000,
    probe: HomeProbe::PaperOps,
    nominal_rep_s: 0.75,
};

/// TPC-H, two-variable queries. (Three-variable queries build products of
/// hundreds of megabytes, and the page-fault churn of mapping and
/// unmapping them made identical repetitions differ by 2×; one-variable
/// queries are all in-clique and, at half the stream, put the median on
/// the boundary between the two kinds — see README.)
pub const LARGE: DirectCfg = DirectCfg {
    dataset: "TPC-H",
    min_vars: 2,
    max_vars: 2,
    train: 20_000,
    test: None,
    check_all: false,
    trace_prefix: 160,
    plain_prefix: 48,
    probe: HomeProbe::LaneKernels,
    nominal_rep_s: 2.0,
};

/// Every scope of exactly `k` of the `n_vars` variables, shuffled.
fn every_scope(n_vars: usize, k: usize, seed: u64) -> Vec<Scope> {
    let mut scopes = Vec::new();
    let mut pick: Vec<u32> = (0..k as u32).collect();
    loop {
        scopes.push(Scope::from_indices(&pick));
        // next k-combination in lexicographic order
        let Some(i) = (0..k).rev().find(|&i| pick[i] as usize != i + n_vars - k) else {
            break;
        };
        pick[i] += 1;
        for j in i + 1..k {
            pick[j] = pick[j - 1] + 1;
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..scopes.len()).rev() {
        scopes.swap(i, rng.gen_range(0..i + 1));
    }
    scopes
}

/// A direct workload with its generated inputs.
pub struct Direct {
    cfg: &'static DirectCfg,
    seed: u64,
    /// Training scopes for the offline selection.
    pub train: Vec<Scope>,
    /// The test stream (marginal requests), answered in order.
    pub test: Vec<ServeRequest>,
    /// Oracle references for a fixed set of stream positions.
    sample: CheckSample,
    /// Σ plain-junction-tree ops of the stream (symbolic, exact).
    baseline_ops: u128,
}

impl Direct {
    /// Generates the inputs for `seed`.
    pub fn new(cfg: &'static DirectCfg, seed: u64) -> Direct {
        let model = build_model(cfg.dataset, &mut StageTimes::default());
        let spec = QuerySpec {
            min_vars: cfg.min_vars,
            max_vars: cfg.max_vars,
        };
        let train = skewed(&model.tree, cfg.train, spec, sub_seed(seed, "train"));
        let symbolic = QueryEngine::symbolic(&model.tree);
        let plain_ops = |q: &Scope| symbolic.cost(q).expect("query fits the tree").ops;
        let test: Vec<ServeRequest> = match cfg.test {
            Some(n) => skewed(&model.tree, n, spec, sub_seed(seed, "test")),
            None => every_scope(
                model.tree.domain().len(),
                cfg.max_vars,
                sub_seed(seed, "test"),
            ),
        }
        .into_iter()
        .map(ServeRequest::marginal)
        .collect();
        let sample = CheckSample::build(&model.bn, &test, strided(test.len(), CHECKS * 2), CHECKS);
        let baseline_ops = test.iter().map(|q| u128::from(plain_ops(&q.targets))).sum();
        Direct {
            cfg,
            seed,
            train,
            test,
            sample,
            baseline_ops,
        }
    }

    /// Number of oracle references held.
    pub fn checks(&self) -> usize {
        self.sample.refs.len()
    }

    /// Checks every distinct test query against the oracle, one at a time
    /// (nothing is retained: on Child the references of all ~15 k distinct
    /// queries would dwarf the program's own memory). Returns
    /// `(checked, wrong)`.
    fn check_every_distinct(
        &self,
        bn: &BayesianNetwork,
        online: &OnlineEngine<'_, '_>,
    ) -> (u64, u64) {
        let mut seen = HashSet::new();
        let mut scratch = Scratch::new();
        let (mut checked, mut wrong) = (0u64, 0u64);
        for q in self.test.iter().filter(|q| seen.insert(*q)) {
            checked += 1;
            let ok = match (online.answer_in(&q.targets, &mut scratch), reference(bn, q)) {
                (Ok((got, _)), Some(want)) => {
                    let ok = sums_to_one(&got) && matches(&got, &want);
                    scratch.recycle(got);
                    ok
                }
                _ => false,
            };
            wrong += u64::from(!ok);
        }
        (checked, wrong)
    }
}

impl Workload for Direct {
    fn rep(&self, index: usize) -> Rep {
        let t_setup = Instant::now();
        let mut times = StageTimes::default();
        let model = build_model(self.cfg.dataset, &mut times);
        let engine = calibrate(&model, &mut times);
        let (mat, _) = select(&engine, &self.train, LANES, &mut times);
        let online = OnlineEngine::new(&engine, &mat);
        let mut scratch = Scratch::new();
        // warm-up: fill the scratch pool and fault pages — on a prefix, or
        // on the whole stream when it is a whole population asked once
        // (its heaviest tables then already sit in the scratch pool, and
        // the timed pass measures kernels rather than first-touch faults)
        let warm = match self.cfg.test {
            Some(n) => n / 8,
            None => self.test.len(),
        };
        for q in &self.test[..warm] {
            if let Ok((p, _)) = online.answer_in(&q.targets, &mut scratch) {
                scratch.recycle(p);
            }
        }
        let setup_s = t_setup.elapsed().as_secs_f64();

        let quiet_cpu = QuietCpu::pick();
        let mut calls = Vec::with_capacity(self.test.len());
        let mut kept: Vec<(usize, Potential)> = Vec::with_capacity(self.sample.refs.len());
        let mut sampled = self.sample.positions().peekable();
        let (mut ops, mut failed) = (0u128, 0u64);
        let (mut used, mut hit) = (0u64, 0u64);
        for (i, q) in self.test.iter().enumerate() {
            let t = Instant::now();
            let r = online.answer_in(&q.targets, &mut scratch);
            calls.push(Call::since(t, 1));
            let keep = sampled.next_if_eq(&i).is_some();
            match r {
                Ok((p, cost)) => {
                    ops += u128::from(cost.ops);
                    used += cost.shortcuts_used as u64;
                    hit += u64::from(cost.shortcuts_used > 0);
                    if !sums_to_one(&p) {
                        failed += 1;
                    }
                    if keep {
                        kept.push((i, p));
                    } else {
                        scratch.recycle(p);
                    }
                }
                // counted, never skipped: the small-scope spec is what
                // keeps TableTooLarge from happening
                Err(_) => failed += 1,
            }
        }
        drop(quiet_cpu);
        let n = self.test.len();
        failed += self.sample.mismatches(&kept, 0..n);
        let mut attempted = (n + self.sample.refs.len()) as u64;
        if self.cfg.check_all && index == 0 {
            let (checked, wrong) = self.check_every_distinct(&model.bn, &online);
            attempted += checked;
            failed += wrong;
        }
        Rep {
            period: 0,
            setup_s,
            calls,
            attempted,
            failed,
            ops,
            baseline_ops: self.baseline_ops,
            counts: vec![
                ("core.shortcut_hit_frac", hit as f64 / n as f64),
                ("core.shortcuts_used_per_query", used as f64 / n as f64),
                ("core.shortcuts_selected", mat.len() as f64),
                ("core.materialized_entries", mat.total_size() as f64),
            ],
        }
    }

    fn nominal_rep_s(&self) -> f64 {
        self.cfg.nominal_rep_s
    }

    fn traced(&self) -> Traced {
        let mut times = StageTimes::default();
        let model = build_model(self.cfg.dataset, &mut times);
        let engine = calibrate(&model, &mut times);
        let (mat, _) = select(&engine, &self.train, LANES, &mut times);
        let online = OnlineEngine::new(&engine, &mat);
        let ns = engine.numeric_state().expect("calibrated engine");
        let (tree, rooted, domain) = (engine.tree(), engine.rooted(), engine.tree().domain());
        let prefix = &self.test[..self.cfg.trace_prefix.min(self.test.len())];
        let mut scratch = Scratch::new();
        let mut failed = 0u64;

        // untraced passes over the prefix (the first doubles as warm-up)
        let mut untraced_walls = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            for q in prefix {
                match online.answer_in(&q.targets, &mut scratch) {
                    Ok((p, _)) => scratch.recycle(p),
                    Err(_) => failed += 1,
                }
            }
            untraced_walls.push(t.elapsed().as_secs_f64());
        }
        let untraced = &untraced_walls[1..];

        // traced pass: request = core.reduce + pgm.kernels
        let mut tracer = Tracer::new();
        let (mut ops, mut used, mut hit) = (0u128, 0u64, 0u64);
        let mut traced_ns = 0u64;
        let mut reduce_ids = Vec::with_capacity(prefix.len());
        for (i, q) in prefix.iter().enumerate() {
            let id = i as u64;
            let q = &q.targets;
            let req = tracer.open("request", None, id);
            let (reduced, reduce_id) =
                tracer.time("core.reduce", Some(req), id, || online.reduce(q));
            let (answer, _) = tracer.time("pgm.kernels", Some(req), id, || match &reduced {
                Ok(Some(rt)) => rt.answer_in(q, domain, &mut scratch),
                // in-clique (or an error, which the engine reports itself)
                _ => engine.answer_in(q, &mut scratch),
            });
            drop(reduced);
            tracer.close(req);
            traced_ns += tracer.duration_ns(req);
            reduce_ids.push(reduce_id);
            match answer {
                Ok((p, cost)) => {
                    ops += u128::from(cost.ops);
                    used += cost.shortcuts_used as u64;
                    hit += u64::from(cost.shortcuts_used > 0);
                    scratch.recycle(p);
                }
                Err(_) => failed += 1,
            }
        }
        // the two junction stages inside reduce cannot be bracketed from
        // outside, so they are replayed in a pass of their own (which keeps
        // the request pass above shaped exactly like the untraced one) and
        // recorded as children of the reduce span they belong to
        for (i, q) in prefix.iter().enumerate() {
            let parent = Some(reduce_ids[i]);
            let (plan, _) = tracer.time("junction.plan", parent, i as u64, || {
                engine.plan(&q.targets)
            });
            if let Ok(QueryPlan::OutOfClique(st)) = &plan {
                tracer.time("junction.reduced_build", parent, i as u64, || {
                    ReducedTree::from_steiner(tree, rooted, st, Some(ns))
                });
            }
        }

        // plain-tree reference on a prefix of the same queries
        let plain_prefix = &prefix[..self.cfg.plain_prefix.min(prefix.len())];
        let mut plain_us = Vec::with_capacity(plain_prefix.len());
        let (mut plain_s, mut online_s) = (0.0f64, 0.0f64);
        for q in plain_prefix {
            let t = Instant::now();
            let plain = engine.answer_in(&q.targets, &mut scratch);
            let plain_dt = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let with = online.answer_in(&q.targets, &mut scratch);
            let online_dt = t.elapsed().as_secs_f64();
            // a query the plain tree cannot answer (table limit) has no
            // reference time; it is left out of both sums
            if let (Ok((a, _)), Ok((b, _))) = (plain, with) {
                plain_us.push(plain_dt * 1e6);
                plain_s += plain_dt;
                online_s += online_dt;
                scratch.recycle(a);
                scratch.recycle(b);
            }
        }

        let st = tracer.self_times();
        let n = prefix.len();
        let kernel_ns = st.get("pgm.kernels").map_or(0, |t| t.self_ns);
        let mut layer = times.layer_metrics();
        layer.extend([
            ("junction.slab_entries", ns.arena().slab().len() as f64),
            ("core.shortcuts_selected", mat.len() as f64),
            ("core.materialized_entries", mat.total_size() as f64),
            (
                "junction.steiner_us_per_query",
                tracer.self_us_per(&st, "junction.plan", n),
            ),
            (
                "junction.reduced_build_us_per_query",
                tracer.self_us_per(&st, "junction.reduced_build", n),
            ),
            (
                "core.shortcut_reduce_us_per_query",
                tracer.self_us_per(&st, "core.reduce", n),
            ),
            (
                "pgm.kernel_us_per_query",
                tracer.self_us_per(&st, "pgm.kernels", n),
            ),
            ("pgm.ns_per_op", kernel_ns as f64 / ops.max(1) as f64),
            ("core.shortcut_hit_frac", hit as f64 / n as f64),
            ("core.shortcuts_used_per_query", used as f64 / n as f64),
            ("junction.plain_query_us_p50", median(&plain_us)),
            (
                "core.time_saved_frac",
                1.0 - online_s / plain_s.max(f64::MIN_POSITIVE),
            ),
            (
                "bench.trace_overhead_frac",
                traced_ns as f64 / 1e9 / median(untraced) - 1.0,
            ),
            ("bench.spread_max", spread(untraced)),
        ]);
        layer.extend(match self.cfg.probe {
            HomeProbe::PaperOps => micro::paper_ops_saved(self.seed),
            HomeProbe::LaneKernels => micro::lane_kernels(),
        });
        Traced {
            layer,
            tracer,
            attempted: (4 * n + 2 * plain_prefix.len()) as u64,
            failed,
        }
    }
}
