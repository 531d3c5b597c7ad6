//! Runtime workload statistics: the observation side of the
//! epoch-versioned materialization lifecycle.
//!
//! A [`WorkloadStats`] accumulator rides along with one materialization
//! epoch and records, for every answered query, the scope that was asked,
//! the operation count actually charged (with the epoch's shortcuts), the
//! operation count the plain junction tree would have charged, and whether
//! any shortcut fired. From those the lifecycle layer derives the
//! *observed benefit* of the epoch — directly comparable to the training
//! benefit the offline phase optimized (Def. 3.3) — and an empirical
//! [`Workload`] over the *served* distribution to retrain against when the
//! observed benefit decays (the λ-drift of §5.3, Figures 8–9).
//!
//! Observation has one site: the serve pipeline records each answered
//! unique request once per batch, with its arrival multiplicity
//! ([`WorkloadStats::record_n`]), after the workers' wave has drained. All
//! counters are lock-free except the per-scope histogram, which takes a
//! short mutex per record; the accumulator is shared across concurrent
//! batches and sessions behind an `Arc`.

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::Mutex;
use crate::workload::Workload;
use peanut_junction::cost::QueryCost;
use peanut_pgm::{Scope, Size};
use std::collections::HashMap;

// ordering: every atomic below is an independent monotone counter; readers
// only need window-scale accuracy (see `StatsSnapshot`), and the per-scope
// histogram is separately mutex-protected, so all accesses are Relaxed.

/// Concurrent accumulator of per-epoch serving observations.
#[derive(Debug, Default)]
pub struct WorkloadStats {
    queries: AtomicU64,
    shortcut_queries: AtomicU64,
    shortcuts_used: AtomicU64,
    observed_ops: AtomicU64,
    baseline_ops: AtomicU64,
    scopes: Mutex<HashMap<Scope, u64>>,
}

/// A consistent-enough point-in-time copy of the counters (individual loads
/// are relaxed; the lifecycle layer only needs window-scale accuracy).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Queries recorded (arrival-weighted, not distinct).
    pub queries: u64,
    /// Recorded queries answered using at least one shortcut potential.
    pub shortcut_queries: u64,
    /// Total shortcut potentials exploited across recorded queries.
    pub shortcuts_used: u64,
    /// Total operation count charged with the epoch's materialization.
    pub observed_ops: u64,
    /// Total operation count the plain junction tree would have charged.
    pub baseline_ops: u64,
}

impl StatsSnapshot {
    /// Observed benefit of the epoch: the fraction of baseline operations
    /// the materialization saved on the recorded traffic
    /// (`1 − observed/baseline`). Zero when nothing was recorded.
    pub fn observed_savings(&self) -> f64 {
        if self.baseline_ops == 0 {
            return 0.0;
        }
        1.0 - self.observed_ops as f64 / self.baseline_ops as f64
    }

    /// Fraction of recorded queries that exploited at least one shortcut.
    pub fn shortcut_hit_rate(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        self.shortcut_queries as f64 / self.queries as f64
    }
}

impl std::ops::AddAssign for StatsSnapshot {
    /// Merges another window's counters into this one (saturating) — how a
    /// ring of observation windows becomes one long-horizon snapshot.
    fn add_assign(&mut self, other: StatsSnapshot) {
        self.queries = self.queries.saturating_add(other.queries);
        self.shortcut_queries = self.shortcut_queries.saturating_add(other.shortcut_queries);
        self.shortcuts_used = self.shortcuts_used.saturating_add(other.shortcuts_used);
        self.observed_ops = self.observed_ops.saturating_add(other.observed_ops);
        self.baseline_ops = self.baseline_ops.saturating_add(other.baseline_ops);
    }
}

impl WorkloadStats {
    /// A fresh, empty accumulator.
    pub fn new() -> Self {
        WorkloadStats::default()
    }

    /// Records `n` arrivals of one answered query: its scope, the cost
    /// actually charged, and the plain-junction-tree cost of the same
    /// query. Identical arrivals that shared one computation (in-batch
    /// duplicates, answer cache hits) weigh the observed distribution like
    /// `n` separate arrivals would.
    pub fn record_n(&self, scope: &Scope, cost: &QueryCost, baseline_ops: Size, n: u64) {
        if n == 0 {
            return;
        }
        self.queries.fetch_add(n, Ordering::Relaxed);
        if cost.shortcuts_used > 0 {
            self.shortcut_queries.fetch_add(n, Ordering::Relaxed);
            self.shortcuts_used.fetch_add(
                (cost.shortcuts_used as u64).saturating_mul(n),
                Ordering::Relaxed,
            );
        }
        self.observed_ops
            .fetch_add(cost.ops.saturating_mul(n), Ordering::Relaxed);
        self.baseline_ops
            .fetch_add(baseline_ops.saturating_mul(n), Ordering::Relaxed);
        let mut scopes = self.scopes.lock();
        *scopes.entry(scope.clone()).or_insert(0) += n;
    }

    /// Point-in-time copy of the aggregate counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            queries: self.queries.load(Ordering::Relaxed),
            shortcut_queries: self.shortcut_queries.load(Ordering::Relaxed),
            shortcuts_used: self.shortcuts_used.load(Ordering::Relaxed),
            observed_ops: self.observed_ops.load(Ordering::Relaxed),
            baseline_ops: self.baseline_ops.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct scopes recorded so far.
    pub fn distinct_scopes(&self) -> usize {
        self.scopes.lock().len()
    }

    /// The *observed* workload: the recorded scope frequencies as an
    /// empirical distribution (Def. 3.3), ready to retrain the offline
    /// selection against. Deterministic: entries come out sorted by scope.
    pub fn observed_workload(&self) -> Workload {
        let scopes = self.scopes.lock();
        Workload::from_counts(scopes.iter().map(|(s, &c)| (s.clone(), c)))
    }

    /// The raw `(scope, arrivals)` histogram, sorted by scope.
    pub fn scope_counts(&self) -> Vec<(Scope, u64)> {
        let scopes = self.scopes.lock();
        let mut v: Vec<(Scope, u64)> = scopes.iter().map(|(s, &c)| (s.clone(), c)).collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(ops: u64, shortcuts: usize) -> QueryCost {
        QueryCost {
            ops,
            messages: 0,
            shortcuts_used: shortcuts,
        }
    }

    #[test]
    fn savings_and_hit_rate() {
        let stats = WorkloadStats::new();
        let a = Scope::from_indices(&[0, 1]);
        let b = Scope::from_indices(&[2]);
        stats.record_n(&a, &cost(25, 1), 100, 1);
        stats.record_n(&b, &cost(50, 0), 50, 1);
        let s = stats.snapshot();
        assert_eq!(s.queries, 2);
        assert_eq!(s.observed_ops, 75);
        assert_eq!(s.baseline_ops, 150);
        assert!((s.observed_savings() - 0.5).abs() < 1e-12);
        assert!((s.shortcut_hit_rate() - 0.5).abs() < 1e-12);
        // merging two windows adds every counter
        let mut two = s;
        two += s;
        assert_eq!(
            two,
            StatsSnapshot {
                queries: 4,
                shortcut_queries: 2,
                shortcuts_used: 2,
                observed_ops: 150,
                baseline_ops: 300,
            }
        );
        assert_eq!(two.observed_savings(), s.observed_savings());
    }

    #[test]
    fn multiplicity_weighs_the_distribution() {
        let stats = WorkloadStats::new();
        let a = Scope::from_indices(&[0]);
        let b = Scope::from_indices(&[1]);
        stats.record_n(&a, &cost(10, 0), 20, 3);
        stats.record_n(&b, &cost(10, 0), 20, 1);
        let w = stats.observed_workload();
        assert_eq!(w.len(), 2);
        let wa = w.entries().iter().find(|e| e.query == a).unwrap().weight;
        assert!((wa - 0.75).abs() < 1e-12);
        assert_eq!(stats.snapshot().observed_ops, 40);
    }

    #[test]
    fn empty_stats_are_benign() {
        let stats = WorkloadStats::new();
        let s = stats.snapshot();
        assert_eq!(s.observed_savings(), 0.0);
        assert_eq!(s.shortcut_hit_rate(), 0.0);
        assert!(stats.observed_workload().is_empty());
        assert_eq!(stats.distinct_scopes(), 0);
    }

    #[test]
    fn concurrent_recording_totals_add_up() {
        let stats = WorkloadStats::new();
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let stats = &stats;
                s.spawn(move || {
                    let scope = Scope::from_indices(&[t]);
                    for _ in 0..100 {
                        stats.record_n(&scope, &cost(7, 1), 10, 1);
                    }
                });
            }
        });
        let s = stats.snapshot();
        assert_eq!(s.queries, 400);
        assert_eq!(s.observed_ops, 2800);
        assert_eq!(stats.distinct_scopes(), 4);
    }
}
