//! The seven workloads. [`build`] maps a `--workload` name to its
//! generated inputs; the helpers here are shared by the serving families.

pub mod direct;
pub mod drift;
pub mod fleet;
pub mod serve;
pub mod sessions;

use crate::fixture::{build_model, calibrate, select, StageTimes};
use crate::oracle::sums_to_one;
use crate::runner::Workload;
use peanut_core::Workload as TrainingWorkload;
use peanut_pgm::Scope;
use peanut_serving::{Answer, ServeOutcome, ServingConfig, ServingEngine};
use std::path::Path;
use std::sync::Arc;

/// Generates the inputs of the named workload for `seed`. `scratch_dir`
/// is where a workload that needs files (the store) may create them.
pub fn build(name: &str, seed: u64, scratch_dir: &Path) -> Option<Box<dyn Workload>> {
    Some(match name {
        "direct_small" => Box::new(direct::Direct::new(&direct::SMALL, seed)),
        "direct_large" => Box::new(direct::Direct::new(&direct::LARGE, seed)),
        "serve_repeat" => Box::new(serve::ServeRepeat::new(seed)),
        "serve_distinct" => Box::new(serve::ServeDistinct::new(seed)),
        "fleet_paging" => Box::new(fleet::FleetPaging::new(seed, scratch_dir)),
        "evidence_sessions" => Box::new(sessions::EvidenceSessions::new(seed)),
        "drift_remat" => Box::new(drift::DriftRemat::new(seed)),
        _ => return None,
    })
}

/// A serving engine brought up on one dataset, with what its set-up cost.
pub(crate) struct Up<'a, 't> {
    pub serving: &'a ServingEngine<'t>,
    pub times: StageTimes,
    /// The workload the initial materialization was selected on.
    pub training: &'a TrainingWorkload,
}

impl Up<'_, '_> {
    /// The set-up and selection figures every serving traced run reports.
    pub fn layer_metrics(&self) -> Vec<(&'static str, f64)> {
        let mat = self.serving.materialization();
        let slab = self
            .serving
            .engine()
            .numeric_state()
            .map_or(0, |ns| ns.arena().slab().len());
        let mut layer = self.times.layer_metrics();
        layer.extend([
            ("junction.slab_entries", slab as f64),
            ("core.shortcuts_selected", mat.len() as f64),
            ("core.materialized_entries", mat.total_size() as f64),
        ]);
        layer
    }
}

/// Network → tree → calibration → selection → `ServingEngine` with
/// `workers` persistent workers already spawned; then `f`.
pub(crate) fn with_serving<R>(
    dataset: &str,
    train: &[Scope],
    workers: usize,
    f: impl FnOnce(&Up<'_, '_>) -> R,
) -> R {
    let mut times = StageTimes::default();
    let model = build_model(dataset, &mut times);
    let engine = calibrate(&model, &mut times);
    let (mat, training) = select(&engine, train, workers, &mut times);
    let serving = ServingEngine::new(engine, mat, ServingConfig::default().with_workers(workers));
    serving.warm_pool();
    f(&Up {
        serving: &serving,
        times,
        training: &training,
    })
}

/// Running totals over served batches: failures, and — over the answers
/// that were freshly computed — mass checks, operation counts and shortcut
/// use.
#[derive(Clone, Debug, Default)]
pub(crate) struct Tally {
    pub requests: u64,
    /// Failed or shed requests, plus computed answers whose mass is not 1.
    pub failed: u64,
    /// Requests shed (a subset of `failed`).
    pub shed: u64,
    /// Unique requests after in-batch coalescing.
    pub unique: u64,
    /// Unique requests served from the answer cache.
    pub cache_hits: u64,
    /// Answers freshly computed.
    pub computed: u64,
    pub ops: u128,
    pub baseline_ops: u128,
    pub shortcut_hit: u64,
    pub shortcuts_used: u64,
}

impl Tally {
    /// Adds one batch's outcomes. Returns the batch positions of the
    /// freshly computed unique answers.
    pub fn batch(
        &mut self,
        outcomes: &[ServeOutcome],
        unique: usize,
        cache_hits: usize,
    ) -> Vec<usize> {
        self.requests += outcomes.len() as u64;
        self.unique += unique as u64;
        self.cache_hits += cache_hits as u64;
        let mut fresh: Vec<(usize, &Arc<Answer>)> = Vec::new();
        for (i, o) in outcomes.iter().enumerate() {
            match o {
                ServeOutcome::Served(s) if s.from_cache => {}
                // in-batch duplicates share one computation (one Arc)
                ServeOutcome::Served(s) => {
                    if !fresh.iter().any(|(_, a)| Arc::ptr_eq(a, &s.answer)) {
                        fresh.push((i, &s.answer));
                    }
                }
                ServeOutcome::Shed(_) => {
                    self.shed += 1;
                    self.failed += 1;
                }
                ServeOutcome::Failed(_) => self.failed += 1,
            }
        }
        for (_, a) in &fresh {
            self.computed += 1;
            self.ops += u128::from(a.cost.ops);
            self.baseline_ops += u128::from(a.baseline_ops);
            self.shortcuts_used += a.cost.shortcuts_used as u64;
            self.shortcut_hit += u64::from(a.cost.shortcuts_used > 0);
            if !sums_to_one(&a.potential) {
                self.failed += 1;
            }
        }
        fresh.into_iter().map(|(i, _)| i).collect()
    }

    pub fn cache_hit_frac(&self) -> f64 {
        self.cache_hits as f64 / self.unique.max(1) as f64
    }

    pub fn dedup_frac(&self) -> f64 {
        1.0 - self.unique as f64 / self.requests.max(1) as f64
    }

    /// The exact-count per-layer figures.
    pub fn layer_metrics(&self) -> Vec<(&'static str, f64)> {
        let n = self.computed.max(1) as f64;
        vec![
            ("serving.cache_hit_frac", self.cache_hit_frac()),
            ("serving.dedup_frac", self.dedup_frac()),
            ("core.shortcut_hit_frac", self.shortcut_hit as f64 / n),
            (
                "core.shortcuts_used_per_query",
                self.shortcuts_used as f64 / n,
            ),
        ]
    }
}

/// Keeps the answers at the sampled positions among one call's outcomes:
/// `outcomes[k]` answers stream position `first + k`, and `sampled` yields
/// the check sample's positions in ascending order.
pub(crate) fn keep_sampled(
    sampled: &mut std::iter::Peekable<impl Iterator<Item = usize>>,
    first: usize,
    outcomes: &[ServeOutcome],
    kept: &mut Vec<(usize, peanut_pgm::Potential)>,
) {
    for (k, o) in outcomes.iter().enumerate() {
        if sampled.next_if_eq(&(first + k)).is_some() {
            if let Some(p) = potential_of(o) {
                kept.push((first + k, p.clone()));
            }
        }
    }
}

/// The potential of a served outcome, if it was served.
pub(crate) fn potential_of(o: &ServeOutcome) -> Option<&peanut_pgm::Potential> {
    o.served().map(|s| &s.answer.potential)
}
