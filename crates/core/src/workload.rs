//! Query workloads: the `Q` of the optimization problems.

use peanut_pgm::Scope;
use std::collections::HashMap;

/// One distinct query with its empirical probability.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadEntry {
    /// The query variables.
    pub query: Scope,
    /// `Pr_Q(q)` — estimated from frequencies (Def. 3.3).
    pub weight: f64,
}

/// A query log summarized into distinct queries with empirical
/// probabilities, as used by the benefit definition (Def. 3.3).
#[derive(Clone, Debug, Default)]
pub struct Workload {
    entries: Vec<WorkloadEntry>,
}

impl Workload {
    /// Builds a workload from a raw query log; duplicate queries are merged
    /// and weights normalized to probabilities.
    pub fn from_queries<I: IntoIterator<Item = Scope>>(queries: I) -> Self {
        Workload::from_counts(queries.into_iter().map(|q| (q, 1)))
    }

    /// Builds a workload from `(query, arrivals)` counts — an observed
    /// histogram, or several of them chained: counts of the same query are
    /// summed and the totals normalized to probabilities (Def. 3.3).
    /// Deterministic: entries come out sorted by scope.
    pub fn from_counts<I: IntoIterator<Item = (Scope, u64)>>(counts: I) -> Self {
        let mut merged: HashMap<Scope, u64> = HashMap::new();
        let mut total = 0u64;
        for (q, c) in counts {
            *merged.entry(q).or_insert(0) += c;
            total += c;
        }
        let mut entries: Vec<WorkloadEntry> = merged
            .into_iter()
            .map(|(query, c)| WorkloadEntry {
                query,
                weight: c as f64 / total.max(1) as f64,
            })
            .collect();
        entries.sort_by(|a, b| a.query.cmp(&b.query));
        Workload { entries }
    }

    /// The distinct queries with probabilities.
    #[inline]
    pub fn entries(&self) -> &[WorkloadEntry] {
        &self.entries
    }

    /// Number of distinct queries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the workload is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequencies_become_probabilities() {
        let a = Scope::from_indices(&[0, 1]);
        let b = Scope::from_indices(&[2]);
        let w = Workload::from_queries([a.clone(), b.clone(), a.clone(), a.clone()]);
        assert_eq!(w.len(), 2);
        let ea = w.entries().iter().find(|e| e.query == a).unwrap();
        let eb = w.entries().iter().find(|e| e.query == b).unwrap();
        assert!((ea.weight - 0.75).abs() < 1e-12);
        assert!((eb.weight - 0.25).abs() < 1e-12);
    }

    #[test]
    fn counts_of_the_same_query_are_summed() {
        let (a, b) = (Scope::from_indices(&[0, 1]), Scope::from_indices(&[2]));
        let w = Workload::from_counts([(b.clone(), 1), (a.clone(), 2), (a.clone(), 1)]);
        let want = Workload::from_queries([a.clone(), b, a.clone(), a]);
        assert_eq!(w.entries(), want.entries());
        assert!(Workload::from_counts([]).is_empty());
    }

    #[test]
    fn empty_workload() {
        let w = Workload::from_queries(std::iter::empty());
        assert!(w.is_empty());
    }
}
