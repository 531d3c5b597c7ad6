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
//! Observation has one site: the serve pipeline records a batch's answered
//! unique requests in **one call** per batch ([`WorkloadStats::record`]),
//! each with its arrival multiplicity, after the workers' wave has drained.
//! The call takes the accumulator's one mutex once and adds the batch to
//! the histogram and to the window's totals under it; the totals saturate,
//! like [`StatsSnapshot`]'s `+=`. [`snapshot`](WorkloadStats::snapshot)
//! copies the totals under the same lock, so it never pairs one batch's
//! arrivals with another's operation counts. The accumulator is shared
//! across concurrent batches and sessions behind an `Arc`.
//!
//! The histogram files each scope under its hash by the accumulator's
//! keyed [`hasher`](WorkloadStats::hasher), which the pipeline already
//! computed for the request (a marginal hashes as its target scope; see
//! [`request`](crate::request)). A scope already filed is found by that
//! `u64` and compared, never cloned; two scopes under one hash keep
//! separate, exact counts.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use crate::request::ByHash;
use crate::sync::Mutex;
use crate::workload::Workload;
use peanut_junction::cost::QueryCost;
use peanut_pgm::{Scope, Size};
use std::collections::hash_map::Entry;
use std::hash::RandomState;

/// Concurrent accumulator of per-epoch serving observations.
#[derive(Debug, Default)]
pub struct WorkloadStats {
    hasher: RandomState,
    scopes: Mutex<Histogram>,
}

/// Arrivals per scope, filed by the scope's keyed hash, and the window's
/// totals.
#[derive(Debug, Default)]
struct Histogram {
    totals: StatsSnapshot,
    by_hash: ByHash<(Scope, u64)>,
    /// Scopes whose hash slot holds a different scope, each with its own
    /// count.
    collided: Vec<(u64, Scope, u64)>,
}

impl Histogram {
    fn add(&mut self, h: u64, scope: &Scope, n: u64) {
        let count = match self.by_hash.entry(h) {
            Entry::Occupied(e) if e.get().0 == *scope => &mut e.into_mut().1,
            Entry::Vacant(e) => &mut e.insert((scope.clone(), 0)).1,
            // a different scope holds this hash: count this one beside it
            Entry::Occupied(_) => {
                let c = &mut self.collided;
                let i = match c.iter().position(|(ch, s, _)| *ch == h && s == scope) {
                    Some(i) => i,
                    None => {
                        c.push((h, scope.clone(), 0));
                        c.len() - 1
                    }
                };
                &mut c[i].2
            }
        };
        *count = count.saturating_add(n);
    }

    fn iter(&self) -> impl Iterator<Item = (&Scope, u64)> {
        let filed = self.by_hash.values().map(|(s, c)| (s, *c));
        filed.chain(self.collided.iter().map(|(_, s, c)| (s, *c)))
    }
}

/// The window's totals at one point in time: the sum of whole batches.
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

/// One answered request as [`WorkloadStats::record`] takes it: its scope's
/// hash under the accumulator's [`hasher`](WorkloadStats::hasher), the
/// scope, the cost actually charged, the plain-junction-tree cost of the
/// same query, and its arrivals.
pub type Record<'a> = (u64, &'a Scope, &'a QueryCost, Size, u64);

impl WorkloadStats {
    /// A fresh, empty accumulator with a hasher of its own.
    pub fn new() -> Self {
        WorkloadStats::default()
    }

    /// A fresh, empty accumulator that files scopes with `hasher` — the
    /// one its serving engine hashes requests with.
    pub fn with_hasher(hasher: RandomState) -> Self {
        WorkloadStats {
            hasher,
            ..WorkloadStats::default()
        }
    }

    /// The keyed hasher the histogram files scopes under.
    pub fn hasher(&self) -> &RandomState {
        &self.hasher
    }

    /// Records one batch's answered requests. Identical arrivals that
    /// shared one computation (in-batch duplicates, answer cache hits)
    /// come as one record and weigh the observed distribution like that
    /// many separate arrivals would. Takes the lock once; every total
    /// saturates at `u64::MAX`.
    pub fn record<'a>(&self, records: impl IntoIterator<Item = Record<'a>>) {
        let mut scopes = self.scopes.lock();
        for (h, scope, cost, baseline_ops, n) in records {
            if n == 0 {
                continue;
            }
            let shortcuts = cost.shortcuts_used as u64;
            scopes.totals += StatsSnapshot {
                queries: n,
                shortcut_queries: if shortcuts > 0 { n } else { 0 },
                shortcuts_used: shortcuts.saturating_mul(n),
                observed_ops: cost.ops.saturating_mul(n),
                baseline_ops: baseline_ops.saturating_mul(n),
            };
            scopes.add(h, scope, n);
        }
    }

    /// Point-in-time copy of the window's totals, taken under the lock
    /// [`record`](Self::record) holds for a whole batch.
    pub fn snapshot(&self) -> StatsSnapshot {
        self.scopes.lock().totals
    }

    /// Number of distinct scopes recorded so far.
    pub fn distinct_scopes(&self) -> usize {
        let scopes = self.scopes.lock();
        scopes.by_hash.len() + scopes.collided.len()
    }

    /// The *observed* workload: the recorded scope frequencies as an
    /// empirical distribution (Def. 3.3), ready to retrain the offline
    /// selection against. Deterministic: entries come out sorted by scope.
    pub fn observed_workload(&self) -> Workload {
        let scopes = self.scopes.lock();
        Workload::from_counts(scopes.iter().map(|(s, c)| (s.clone(), c)))
    }

    /// The raw `(scope, arrivals)` histogram, sorted by scope.
    pub fn scope_counts(&self) -> Vec<(Scope, u64)> {
        let scopes = self.scopes.lock();
        let mut v: Vec<(Scope, u64)> = scopes.iter().map(|(s, c)| (s.clone(), c)).collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn cost(ops: u64, shortcuts: usize) -> QueryCost {
        QueryCost {
            ops,
            messages: 0,
            shortcuts_used: shortcuts,
        }
    }

    /// Records `n` arrivals of one query as a batch of its own, hashed by
    /// the accumulator's hasher.
    fn record_n(stats: &WorkloadStats, scope: &Scope, cost: &QueryCost, baseline: Size, n: u64) {
        let h = stats.hasher().hash_one(scope);
        stats.record([(h, scope, cost, baseline, n)]);
    }

    #[test]
    fn savings_and_hit_rate() {
        let stats = WorkloadStats::new();
        let a = Scope::from_indices(&[0, 1]);
        let b = Scope::from_indices(&[2]);
        record_n(&stats, &a, &cost(25, 1), 100, 1);
        record_n(&stats, &b, &cost(50, 0), 50, 1);
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
        record_n(&stats, &a, &cost(10, 0), 20, 3);
        record_n(&stats, &b, &cost(10, 0), 20, 1);
        let w = stats.observed_workload();
        assert_eq!(w.len(), 2);
        let wa = w.entries().iter().find(|e| e.query == a).unwrap().weight;
        assert!((wa - 0.75).abs() < 1e-12);
        assert_eq!(stats.snapshot().observed_ops, 40);
    }

    /// A plan whose count overflows is charged `Size::MAX`; a second such
    /// record keeps every counter at `u64::MAX` instead of wrapping it
    /// back to `u64::MAX − 1` — within one batch and across batches.
    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let stats = WorkloadStats::new();
        let a = Scope::from_indices(&[0]);
        let h = stats.hasher().hash_one(&a);
        let huge = cost(Size::MAX, 1);
        stats.record([(h, &a, &huge, Size::MAX, 1), (h, &a, &huge, Size::MAX, 1)]);
        record_n(&stats, &a, &huge, Size::MAX, 1);
        let s = stats.snapshot();
        assert_eq!((s.observed_ops, s.baseline_ops), (u64::MAX, u64::MAX));
        assert_eq!(s.queries, 3);
        assert_eq!(stats.scope_counts(), vec![(a, 3)]);
    }

    /// Two different scopes filed under one hash keep separate, exact
    /// counts, and a repeat finds its own slot whichever of the two it is.
    #[test]
    fn colliding_scopes_keep_exact_counts() {
        let stats = WorkloadStats::new();
        let (a, b, c) = (
            Scope::from_indices(&[0]),
            Scope::from_indices(&[1]),
            Scope::from_indices(&[2]),
        );
        let k = cost(1, 0);
        stats.record([(7, &a, &k, 1, 2), (7, &b, &k, 1, 3), (7, &c, &k, 1, 1)]);
        stats.record([(7, &b, &k, 1, 1), (7, &a, &k, 1, 1), (7, &c, &k, 1, 0)]);
        assert_eq!(stats.scope_counts(), vec![(a, 3), (b, 4), (c, 1)]);
        assert_eq!(stats.distinct_scopes(), 3);
        assert_eq!(stats.snapshot().queries, 8);
        let w = stats.observed_workload();
        assert_eq!(w.len(), 3);
        assert!((w.entries()[1].weight - 0.5).abs() < 1e-12);
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
                        record_n(stats, &scope, &cost(7, 1), 10, 1);
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
