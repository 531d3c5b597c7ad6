//! The set-up stages every workload shares, each timed on its own so the
//! traced run can say where `setup_s` goes: dataset network →
//! `build_junction_tree` → calibration → offline selection (PEANUT+ at
//! 10·b_T, ε = 1.2 — the paper's default operating point).

use peanut_core::{Materialization, OfflineContext, Peanut, PeanutConfig, Workload};
use peanut_junction::{build_junction_tree, JunctionTree, NumericState, QueryEngine, RootedTree};
use peanut_pgm::{BayesianNetwork, Scope, Size};
use std::time::{Duration, Instant};

/// A dataset network and its junction tree.
pub struct Model {
    /// The synthetic stand-in network for the paper dataset.
    pub bn: BayesianNetwork,
    /// Its junction tree (pivot = clique 0).
    pub tree: JunctionTree,
}

/// Wall time of each set-up stage, accumulated over the models a workload
/// brings up.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimes {
    /// Network generation + `build_junction_tree`.
    pub build: Duration,
    /// `NumericState::initialize` + `calibrate`.
    pub calibrate: Duration,
    /// `OfflineContext::new`.
    pub context: Duration,
    /// `Peanut::offline_numeric`.
    pub select: Duration,
}

impl StageTimes {
    /// The four stages as per-layer metrics, milliseconds.
    pub fn layer_metrics(&self) -> Vec<(&'static str, f64)> {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        vec![
            ("junction.build_ms", ms(self.build)),
            ("junction.calibrate_ms", ms(self.calibrate)),
            ("core.context_ms", ms(self.context)),
            ("core.select_ms", ms(self.select)),
        ]
    }
}

/// Generates the dataset's network and builds its junction tree.
pub fn build_model(dataset: &str, times: &mut StageTimes) -> Model {
    let t = Instant::now();
    let spec = peanut_datasets::dataset(dataset).expect("a paper dataset name");
    let bn = spec.build().expect("dataset generators are validated");
    let tree = build_junction_tree(&bn).expect("junction tree construction");
    times.build += t.elapsed();
    Model { bn, tree }
}

/// Initializes and calibrates dense potentials over the model's tree.
pub fn calibrate<'t>(model: &'t Model, times: &mut StageTimes) -> QueryEngine<'t> {
    let t = Instant::now();
    let rooted = RootedTree::new(&model.tree);
    let mut ns = NumericState::initialize(&model.tree, &model.bn).expect("tables fit");
    ns.calibrate(&model.tree, &rooted).expect("calibration");
    let engine = QueryEngine::from_calibrated(&model.tree, ns);
    times.calibrate += t.elapsed();
    engine
}

/// The paper's budget unit times ten: `10·b_T`.
pub fn budget(tree: &JunctionTree) -> Size {
    tree.total_separator_size().max(1) * 10
}

/// Offline PEANUT+ selection on `train`, with numeric tables, on
/// `threads` threads.
pub fn select(
    engine: &QueryEngine<'_>,
    train: &[Scope],
    threads: usize,
    times: &mut StageTimes,
) -> (Materialization, Workload) {
    let tree = engine.tree();
    let t = Instant::now();
    let workload = Workload::from_queries(train.iter().cloned());
    let ctx = OfflineContext::new(tree, &workload).expect("training queries fit the tree");
    times.context += t.elapsed();
    let t = Instant::now();
    let cfg = PeanutConfig::plus(budget(tree)).with_threads(threads);
    let numeric = engine.numeric_state().expect("calibrated engine");
    let (mat, _) = Peanut::offline_numeric(&ctx, &cfg, numeric).expect("shortcut tables fit");
    times.select += t.elapsed();
    (mat, workload)
}

/// Peak resident set of this process in MB (`VmHWM` of
/// `/proc/self/status`); 0 where the file is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Brings the process allocator to the state of a long-running server
/// before anything is measured. glibc starts with a 128 KiB mmap
/// threshold and raises it only as large blocks are freed, so a fresh
/// process serves its first few thousand large tables through
/// mmap/munmap and page faults, and the same 500 TPC-H queries take
/// anywhere from 1.7 s to 4.7 s depending on how far the adaptation got.
/// Freeing one block just under the 32 MiB ceiling moves the threshold
/// there at once (and the trim threshold to twice that) — the steady state
/// every long-lived process reaches, reached before the clock starts.
pub fn settle_allocator() {
    const BLOCK: usize = (32 << 20) - (64 << 10);
    // zeroed, so the pages are never touched: the block must not count
    // towards the peak resident set the run reports
    let block = vec![0u8; BLOCK];
    drop(std::hint::black_box(block));
}
