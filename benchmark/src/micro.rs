//! Workload-independent layer probes. Each is reported by one "home"
//! workload's traced run (and reads 0 on the others), so the seven traced
//! runs together cover every layer once:
//!
//! * lane kernels against the stream roofline — `direct_large`;
//! * the paper's symbolic ops-saved table — `direct_small`;
//! * bare pool waves — `serve_distinct`.

use crate::gen::{skewed, sub_seed};
use crate::spec::{PAPER_DATASETS, WORKERS};
use crate::stats::median;
use peanut_core::{OfflineContext, OnlineEngine, Peanut, PeanutConfig, Workload};
use peanut_junction::{build_junction_tree, QueryEngine};
use peanut_pgm::{Domain, Potential, Scope, Scratch, Var};
use peanut_serving::WorkerPool;
use peanut_workload::QuerySpec;
use std::hint::black_box;
use std::time::Instant;

/// Entries of the microkernel table: 64³ `f64`s = 2 MiB, larger than L1
/// and L2-resident at best, like the heavy tables of `direct_large`.
const MICRO_CARD: u32 = 64;
const MICRO_ITERS: usize = 15;

/// Median nanoseconds per entry of `f` over [`MICRO_ITERS`] runs on a table
/// of `entries` entries (one discarded warm-up run).
fn ns_per_entry(entries: usize, mut f: impl FnMut()) -> f64 {
    f();
    let runs: Vec<f64> = (0..MICRO_ITERS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / entries as f64
        })
        .collect();
    median(&runs)
}

/// The three lane kernels on a 2 MiB table and the roofline they are read
/// against: a plain sum over an equal-size `f64` slab. Bytes moved are
/// computed, not measured: each kernel reads the 8-byte entries of the big
/// table once (`marginalize` writes 64² entries, `product` and `divide`
/// write a table of equal size).
pub fn lane_kernels() -> Vec<(&'static str, f64)> {
    let domain = Domain::uniform(3, MICRO_CARD).expect("three variables");
    let full = domain.full_scope();
    let n = (MICRO_CARD as usize).pow(3);
    let fill = |scope: Scope| {
        let mut p = Potential::ones(scope, &domain).expect("fits");
        for (i, v) in p.values_mut().iter_mut().enumerate() {
            // positive, non-constant entries: divide never sees a zero
            *v = 1.0 + (i % 17) as f64 / 16.0;
        }
        p
    };
    let big = fill(full.clone());
    let keep = Scope::from_iter([Var(0), Var(2)]);
    let middle = fill(Scope::singleton(Var(1)));
    let sep = fill(Scope::from_iter([Var(0), Var(1)]));
    let slab: Vec<f64> = big.values().to_vec();
    let mut scratch = Scratch::new();
    let marginalize = ns_per_entry(n, || {
        let out = big.marginalize_in(&keep, &mut scratch).expect("sub-scope");
        scratch.recycle(black_box(out));
    });
    let product = ns_per_entry(n, || {
        let out = big.product_in(&middle, &mut scratch).expect("fits");
        scratch.recycle(black_box(out));
    });
    let divide = ns_per_entry(n, || {
        let out = big.divide_in(&sep, &mut scratch).expect("sub-scope");
        scratch.recycle(black_box(out));
    });
    let stream = ns_per_entry(n, || {
        black_box(black_box(&slab).iter().sum::<f64>());
    });
    vec![
        ("pgm.marginalize_ns_per_entry", marginalize),
        ("pgm.product_ns_per_entry", product),
        ("pgm.divide_ns_per_entry", divide),
        ("pgm.stream_ns_per_entry", stream),
    ]
}

/// Metric name of the paper row for `dataset`.
fn paper_metric(dataset: &str) -> &'static str {
    crate::spec::PER_LAYER
        .iter()
        .map(|m| m.name)
        .find(|n| n.strip_prefix("core.paper_ops_saved_frac.") == Some(dataset))
        .expect("every paper dataset has a registered metric")
}

/// The paper's own metric on all eight datasets in symbolic mode: PEANUT+
/// at 10·b_T, ε = 1.2, 300 skewed training and 150 test queries. An exact
/// count: a performance change that silently alters *which* shortcuts get
/// picked moves these.
pub fn paper_ops_saved(seed: u64) -> Vec<(&'static str, f64)> {
    PAPER_DATASETS
        .iter()
        .map(|&name| {
            let spec = peanut_datasets::dataset(name).expect("paper dataset");
            let bn = spec.build().expect("validated generator");
            let tree = build_junction_tree(&bn).expect("junction tree");
            let qs = QuerySpec::default();
            let train = skewed(&tree, 300, qs, sub_seed(seed, "paper-train"));
            let test = skewed(&tree, 150, qs, sub_seed(seed, "paper-test"));
            let workload = Workload::from_queries(train);
            let ctx = OfflineContext::new(&tree, &workload).expect("queries fit");
            let cfg = PeanutConfig::plus(crate::fixture::budget(&tree)).with_threads(WORKERS);
            let mat = Peanut::offline(&ctx, &cfg);
            let engine = QueryEngine::symbolic(&tree);
            let online = OnlineEngine::new(&engine, &mat);
            let (mut with, mut base) = (0u128, 0u128);
            for q in &test {
                with += u128::from(online.cost(q).expect("symbolic cost").ops);
                base += u128::from(online.baseline_cost(q).expect("symbolic cost").ops);
            }
            (paper_metric(name), 1.0 - with as f64 / base.max(1) as f64)
        })
        .collect()
}

/// Bare wave dispatch: `WorkerPool::run_wave` of [`WORKERS`] no-op tasks,
/// median wall per wave, and how many worker unparks a wave costs.
pub fn pool_waves() -> Vec<(&'static str, f64)> {
    const WAVES: usize = 2000;
    let pool = WorkerPool::new(WORKERS);
    let noop = |_: usize, _: &mut Scratch| {};
    for _ in 0..200 {
        pool.run_wave(WORKERS, &noop);
    }
    let before = pool.stats();
    let walls: Vec<f64> = (0..WAVES)
        .map(|_| {
            let t = Instant::now();
            pool.run_wave(WORKERS, &noop);
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    let delta = pool.stats().delta_since(&before);
    vec![
        ("serving.pool_wave_us_p50", median(&walls)),
        (
            "serving.pool_unparks_per_wave",
            delta.unparks as f64 / delta.waves.max(1) as f64,
        ),
    ]
}
