//! `fleet_paging`: eight tenants (HeparII / Child / Hailfinder trees, each
//! with its own traffic) on `ShardedServingEngine::serve_mixed`, three
//! resident slots, the store in a directory of the run's own. Tenant
//! popularity is Zipf(1.0), so nearly every batch of 64 touches tenants
//! that are paged out: the store is read (open + verify + rehydrate on
//! fault-in) and written (write-behind persist on the scheduled publishes,
//! page-out) on the serving path. A gain for reads that costs writes, or
//! the reverse, shows here. Closed loop, one client.

use super::{keep_sampled, Tally};
use crate::fixture::{build_model, calibrate, select, Model, StageTimes};
use crate::gen::{distinct_requests, skewed, stratified_split, sub_seed, zipf_draws};
use crate::oracle::{reference, strided, CheckSample};
use crate::runner::{Call, Rep, Traced, Workload};
use crate::spec::{BATCH, LANES};
use crate::stats::{median, spread};
use crate::steady::QuietCpu;
use crate::trace::Tracer;
use peanut_core::Materialization;
use peanut_junction::QueryEngine;
use peanut_pgm::{Potential, Scope};
use peanut_serving::{ServeRequest, ShardConfig, ShardedServingEngine, StoreConfig, TenantId};
use peanut_store::{rehydrate_engine, StoredEpoch};
use peanut_workload::{uniform_queries, QuerySpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const DATASETS: [&str; 3] = ["HeparII", "Child", "Hailfinder"];
const TENANTS: usize = 8;
const MAX_RESIDENT: usize = 3;
const TENANT_ZIPF: f64 = 1.0;
/// 1–3-variable requests keep Hailfinder's heavy joints out, so the store
/// — not one tenant's kernels — sets the batch time.
const SPEC: QuerySpec = QuerySpec {
    min_vars: 1,
    max_vars: 3,
};
const TRAIN: usize = 1000;
/// Requests whose joint costs more than this on the plain tree are left
/// out: one Hailfinder outlier's intermediate table would set the
/// process's peak memory (56 to 124 MB across ten seeds without a cap, 39
/// to 51 MB with one of a million operations — an 8 MB table in a 45 MB
/// process — and 28 to 34 MB with this one).
const MAX_PLAIN_OPS: u64 = 250_000;
/// Distinct requests each tenant draws from.
const POOL: usize = 256;
/// Arrivals per repetition (80 batches).
const ARRIVALS: usize = 80 * BATCH;
/// A tenant's alternate materialization is published every this many
/// arrivals, tenants in turn — seven publishes per repetition.
const PUBLISH_EVERY: usize = ARRIVALS / TENANTS;
const CHECKS: usize = 96;

fn dataset_of(tenant: usize) -> usize {
    tenant % DATASETS.len()
}

/// `fleet_paging` with its generated inputs.
pub struct FleetPaging {
    /// Per tenant: the training scopes of its initial and of its
    /// alternate (re-selected) materialization.
    train: Vec<[Vec<Scope>; 2]>,
    /// The mixed arrival stream.
    pub stream: Vec<(TenantId, ServeRequest)>,
    sample: CheckSample,
    scratch_dir: PathBuf,
    /// Distinguishes the store directories of one process's repetitions.
    runs: AtomicUsize,
}

/// One call into the fleet: a `serve_mixed` batch or a scheduled publish.
struct FleetCall {
    start: Instant,
    end: Instant,
    /// A batch's `(tenants faulted in, time that took)`; `None` = a publish.
    batch: Option<(usize, Duration)>,
}

impl FleetCall {
    fn wall_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Seconds spent inside the `serve_mixed` calls.
fn batch_wall_s(calls: &[FleetCall]) -> f64 {
    calls
        .iter()
        .filter(|c| c.batch.is_some())
        .map(FleetCall::wall_s)
        .sum()
}

/// Per-tenant set-up products that outlive the fleet's registration.
struct Prepared {
    /// `[initial, alternate]` materializations per tenant.
    mats: Vec<[Materialization; 2]>,
    times: StageTimes,
}

impl FleetPaging {
    /// Generates the inputs for `seed`; store files go under `scratch_dir`.
    pub fn new(seed: u64, scratch_dir: &Path) -> Self {
        let models: Vec<Model> = DATASETS
            .iter()
            .map(|d| build_model(d, &mut StageTimes::default()))
            .collect();
        let mut train = Vec::new();
        let mut pools = Vec::new();
        for t in 0..TENANTS {
            let tree = &models[dataset_of(t)].tree;
            let tag = |what: &str| sub_seed(seed, &format!("{what}-{t}"));
            train.push([
                skewed(tree, TRAIN, SPEC, tag("train")),
                uniform_queries(tree.domain(), TRAIN, SPEC, tag("retrain")),
            ]);
            let symbolic = QueryEngine::symbolic(tree);
            let mut candidates = distinct_requests(tree, 6 * POOL, SPEC, 0.25, tag("pool"));
            candidates.retain(|r| {
                symbolic
                    .cost(&r.stat_scope())
                    .is_ok_and(|c| c.ops <= MAX_PLAIN_OPS)
            });
            // a part of the candidates, evenly over their cost ranks
            pools.push(
                stratified_split(tree, candidates, &[POOL], tag("deal"))
                    .pop()
                    .expect("one part"),
            );
        }
        let tenants = zipf_draws(TENANTS, TENANT_ZIPF, ARRIVALS, sub_seed(seed, "tenants"));
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, "requests"));
        let stream: Vec<(TenantId, ServeRequest)> = tenants
            .iter()
            .map(|&t| {
                let pool = &pools[t as usize];
                (TenantId(t), pool[rng.gen_range(0..pool.len())].clone())
            })
            .collect();
        let mut sample = CheckSample {
            refs: Vec::new(),
            skipped: 0,
        };
        for i in strided(ARRIVALS, CHECKS) {
            let (tenant, req) = &stream[i];
            match reference(&models[dataset_of(tenant.0 as usize)].bn, req) {
                Some(p) => sample.refs.push((i, p)),
                None => sample.skipped += 1,
            }
        }
        FleetPaging {
            train,
            stream,
            sample,
            scratch_dir: scratch_dir.to_path_buf(),
            runs: AtomicUsize::new(0),
        }
    }

    fn store_dir(&self) -> PathBuf {
        // ordering: a counter that only has to hand out distinct numbers.
        let run = self.runs.fetch_add(1, Ordering::Relaxed);
        self.scratch_dir
            .join(format!("store-{}-{run}", std::process::id()))
    }

    /// Calibrates every tenant, selects both of its materializations and
    /// registers it on a fleet backed by `dir`; then `f`.
    fn with_fleet<R>(
        &self,
        dir: &Path,
        f: impl FnOnce(&ShardedServingEngine<'_>, &Prepared, &[Model]) -> R,
    ) -> R {
        let mut times = StageTimes::default();
        let models: Vec<Model> = DATASETS
            .iter()
            .map(|d| build_model(d, &mut times))
            .collect();
        let mut fleet = ShardedServingEngine::new(
            ShardConfig::default()
                .with_workers(LANES)
                .with_max_resident(MAX_RESIDENT),
        );
        fleet.set_store(StoreConfig::new(dir));
        let mut mats = Vec::with_capacity(TENANTS);
        for t in 0..TENANTS {
            let engine = calibrate(&models[dataset_of(t)], &mut times);
            let (initial, _) = select(&engine, &self.train[t][0], LANES, &mut times);
            let (alternate, _) = select(&engine, &self.train[t][1], LANES, &mut times);
            fleet
                .register(TenantId(t as u32), engine, initial.clone())
                .expect("fresh tenant id, writable store");
            mats.push([initial, alternate]);
        }
        fleet.warm_pool();
        fleet.enforce_residency();
        let out = f(&fleet, &Prepared { mats, times }, &models);
        drop(fleet);
        // best effort: the directory is the run's own
        let _ = std::fs::remove_dir_all(dir);
        out
    }

    /// Serves `stream[range]` in batches, publishing on schedule; returns
    /// the calls it made, in order.
    fn serve(
        &self,
        fleet: &ShardedServingEngine<'_>,
        prepared: &Prepared,
        range: std::ops::Range<usize>,
        tally: &mut Tally,
        kept: &mut Vec<(usize, Potential)>,
    ) -> Vec<FleetCall> {
        let mut calls = Vec::with_capacity(range.len() / BATCH + TENANTS);
        let mut sampled = self
            .sample
            .positions()
            .skip_while(|&i| i < range.start)
            .peekable();
        for (b, batch) in self.stream[range.clone()].chunks(BATCH).enumerate() {
            let first = range.start + b * BATCH;
            if first % PUBLISH_EVERY == 0 && first > 0 {
                // the scheduled publish of a re-selected materialization:
                // tenants in turn, alternating between their two
                let turn = first / PUBLISH_EVERY - 1;
                let tenant = turn % TENANTS;
                let which = 1 - (turn / TENANTS) % 2;
                let start = Instant::now();
                match fleet.tenant(TenantId(tenant as u32)) {
                    Some(engine) => {
                        engine.publish(prepared.mats[tenant][which].clone());
                    }
                    None => tally.failed += 1,
                }
                calls.push(FleetCall {
                    start,
                    end: Instant::now(),
                    batch: None,
                });
            }
            let start = Instant::now();
            let (outcomes, stats) = fleet.serve_mixed(batch);
            calls.push(FleetCall {
                start,
                end: Instant::now(),
                batch: Some((stats.faults, stats.fault_wall)),
            });
            tally.batch(&outcomes, stats.unique, stats.cache_hits);
            keep_sampled(&mut sampled, first, &outcomes, kept);
        }
        calls
    }
}

impl Workload for FleetPaging {
    fn rep(&self, _index: usize) -> Rep {
        let t_setup = Instant::now();
        self.with_fleet(&self.store_dir(), |fleet, prepared, _| {
            // warm-up: one eighth of the stream (no publish falls in it)
            self.serve(
                fleet,
                prepared,
                0..ARRIVALS / 8,
                &mut Tally::default(),
                &mut Vec::new(),
            );
            let setup_s = t_setup.elapsed().as_secs_f64();

            let before = fleet.paging_stats();
            let quiet_cpu = QuietCpu::pick();
            let mut tally = Tally::default();
            let mut kept = Vec::new();
            let made = self.serve(fleet, prepared, 0..ARRIVALS, &mut tally, &mut kept);
            drop(quiet_cpu);
            let after = fleet.paging_stats();
            let publishes = made.iter().filter(|c| c.batch.is_none()).count();
            Rep {
                period: 0,
                setup_s,
                calls: made
                    .iter()
                    .map(|c| Call::between(c.start, c.end, c.batch.map_or(0, |_| BATCH)))
                    .collect(),
                attempted: tally.requests + self.sample.refs.len() as u64,
                failed: tally.failed
                    + self.sample.mismatches(&kept, 0..ARRIVALS)
                    + (after.fault_errors - before.fault_errors),
                ops: tally.ops,
                baseline_ops: tally.baseline_ops,
                counts: vec![
                    ("store.faults", (after.faults - before.faults) as f64),
                    (
                        "store.page_outs",
                        (after.page_outs - before.page_outs) as f64,
                    ),
                    ("serving.swaps", publishes as f64),
                ],
            }
        })
    }

    fn nominal_rep_s(&self) -> f64 {
        2.0
    }

    fn traced(&self) -> Traced {
        // the first half of the stream: three scheduled publishes fall in it
        let range = 0..ARRIVALS / 2;
        let untraced: Vec<f64> = (0..2)
            .map(|_| {
                self.with_fleet(&self.store_dir(), |fleet, prepared, _| {
                    let made = self.serve(
                        fleet,
                        prepared,
                        range.clone(),
                        &mut Tally::default(),
                        &mut Vec::new(),
                    );
                    batch_wall_s(&made)
                })
            })
            .collect();

        let dir = self.store_dir();
        self.with_fleet(&dir, |fleet, prepared, models| {
            let mut tracer = Tracer::new();
            let mut tally = Tally::default();
            let mut kept = Vec::new();
            let (mut batch_us, mut fault_us, mut publish_us) = (Vec::new(), Vec::new(), Vec::new());
            let made = self.serve(fleet, prepared, range.clone(), &mut tally, &mut kept);
            let traced_s = batch_wall_s(&made);
            // spans are recorded after the fact, from the calls' Instants
            for (k, call) in made.iter().enumerate() {
                let us = call.wall_s() * 1e6;
                match call.batch {
                    Some((faults, fault_wall)) => {
                        tracer.record("serving.serve_mixed", call.start, call.end, None, k as u64);
                        batch_us.push(us);
                        if faults > 0 {
                            fault_us.push(fault_wall.as_secs_f64() * 1e6 / faults as f64);
                        }
                    }
                    None => {
                        tracer.record("serving.publish", call.start, call.end, None, k as u64);
                        publish_us.push(us);
                    }
                }
            }
            let paging = fleet.paging_stats();

            // bytes per epoch, computed from the files the run wrote
            let sizes: Vec<f64> = std::fs::read_dir(&dir)
                .map(|entries| {
                    entries
                        .flatten()
                        .filter_map(|e| e.metadata().ok())
                        .map(|m| m.len() as f64)
                        .collect()
                })
                .unwrap_or_default();

            // the store codec on its own: save, open (checksum verified),
            // rehydrate — every tenant's current epoch, three times each
            let micro = StoreConfig::new(dir.join("micro"));
            let (mut save_us, mut open_us, mut rehydrate_us) = (Vec::new(), Vec::new(), Vec::new());
            for round in 0..3u64 {
                for t in 0..TENANTS {
                    let id = (round << 8) + t as u64;
                    let Some(engine) = fleet.tenant(TenantId(t as u32)) else {
                        tally.failed += 1;
                        continue;
                    };
                    let (mat, flat) = (engine.materialization(), engine.flat_materialization());
                    let slab = engine
                        .engine()
                        .numeric_state()
                        .expect("numeric tenant")
                        .arena()
                        .slab();
                    let (saved, s) = tracer.time("store.save", None, id, || {
                        micro.save_epoch(t as u32, &mat, &flat, slab)
                    });
                    save_us.push(tracer.duration_ns(s) as f64 / 1e3);
                    let Ok(path) = saved else {
                        tally.failed += 1;
                        continue;
                    };
                    let (stored, s) =
                        tracer.time("store.open", None, id, || StoredEpoch::open(&path, true));
                    open_us.push(tracer.duration_ns(s) as f64 / 1e3);
                    let Ok(stored) = stored else {
                        tally.failed += 1;
                        continue;
                    };
                    let tree = &models[dataset_of(t)].tree;
                    let (rehydrated, s) = tracer.time("store.rehydrate", None, id, || {
                        rehydrate_engine(tree, &stored)
                    });
                    rehydrate_us.push(tracer.duration_ns(s) as f64 / 1e3);
                    if rehydrated.is_err() {
                        tally.failed += 1;
                    }
                }
            }

            let mut layer = prepared.times.layer_metrics();
            layer.extend([
                (
                    "core.shortcuts_selected",
                    prepared.mats.iter().map(|m| m[0].len()).sum::<usize>() as f64,
                ),
                (
                    "core.materialized_entries",
                    prepared.mats.iter().map(|m| m[0].total_size()).sum::<u64>() as f64,
                ),
                ("serving.batch_us_p50", median(&batch_us)),
                ("serving.publish_us_p50", median(&publish_us)),
                ("serving.swaps", publish_us.len() as f64),
                ("store.save_us_p50", median(&save_us)),
                ("store.open_us_p50", median(&open_us)),
                ("store.rehydrate_us_p50", median(&rehydrate_us)),
                ("store.fault_in_us_p50", median(&fault_us)),
                ("store.faults", paging.faults as f64),
                ("store.page_outs", paging.page_outs as f64),
                (
                    "store.bytes_per_epoch",
                    sizes.iter().sum::<f64>() / sizes.len().max(1) as f64,
                ),
                (
                    "bench.trace_overhead_frac",
                    traced_s / median(&untraced) - 1.0,
                ),
                ("bench.spread_max", spread(&untraced)),
            ]);
            layer.extend(tally.layer_metrics());
            Traced {
                layer,
                tracer,
                attempted: tally.requests + 2 * range.len() as u64,
                failed: tally.failed
                    + self.sample.mismatches(&kept, range.clone())
                    + paging.fault_errors,
            }
        })
    }
}
