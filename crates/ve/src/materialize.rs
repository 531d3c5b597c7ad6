//! VE-n: workload-aware materialization of `n` marginal tables for the
//! variable-elimination engine.
//!
//! Candidates are the distinct query scopes of the workload (the marginals
//! the ICDE'21 method caches are exactly the tables that let covered queries
//! skip elimination). Selection is greedy by marginal expected savings,
//! re-evaluated after each pick — a substitution for \[4\]'s DP (listed
//! under "Deviations from the paper" in `ARCHITECTURE.md`).

use crate::elimination::{ve_answer, ve_cost};
use peanut_pgm::{table_size, BayesianNetwork, PgmError, Potential, Scope, Size};

/// A materialized marginal for VE-n.
#[derive(Clone, Debug)]
pub struct VeMaterialization {
    /// Scope `A` of the cached marginal `P(A)`.
    pub scope: Scope,
    /// Table size `μ(A)`.
    pub size: Size,
    /// Dense table (numeric mode only).
    pub potential: Option<Potential>,
}

/// The VE-n method: `n` cached marginals plus the plain VE fallback.
#[derive(Clone, Debug)]
pub struct VeN {
    materialized: Vec<VeMaterialization>,
}

impl VeN {
    /// Chooses `n` marginals for the given weighted workload
    /// (`(query, weight)` pairs, weights need not be normalized).
    pub fn select(bn: &BayesianNetwork, workload: &[(Scope, f64)], n: usize) -> Self {
        let domain = bn.domain();
        // distinct candidate scopes
        let mut candidates: Vec<Scope> = Vec::new();
        for (q, _) in workload {
            if !candidates.contains(q) {
                candidates.push(q.clone());
            }
        }
        // baseline cost per distinct query
        let mut current: Vec<(Scope, f64, Size)> = Vec::new();
        for (q, w) in workload {
            match current.iter_mut().find(|(s, _, _)| s == q) {
                Some((_, weight, _)) => *weight += w,
                None => current.push((q.clone(), *w, ve_cost(bn, q).ops)),
            }
        }
        let mut chosen: Vec<VeMaterialization> = Vec::new();
        for _ in 0..n {
            let mut best: Option<(f64, usize)> = None;
            for (ci, cand) in candidates.iter().enumerate() {
                if chosen.iter().any(|m| &m.scope == cand) {
                    continue;
                }
                let size = table_size(cand, domain);
                let gain: f64 = current
                    .iter()
                    .filter(|(q, _, _)| q.is_subset_of(cand))
                    .map(|(_, w, cost)| w * (cost.saturating_sub(size)) as f64)
                    .sum();
                if gain > 0.0 && best.is_none_or(|(bg, _)| gain > bg) {
                    best = Some((gain, ci));
                }
            }
            let Some((_, ci)) = best else { break };
            let scope = candidates[ci].clone();
            let size = table_size(&scope, domain);
            // update residual costs of covered queries
            for (q, _, cost) in &mut current {
                if q.is_subset_of(&scope) {
                    *cost = (*cost).min(size);
                }
            }
            chosen.push(VeMaterialization {
                scope,
                size,
                potential: None,
            });
        }
        VeN {
            materialized: chosen,
        }
    }

    /// Fills in the dense tables for the chosen marginals.
    pub fn materialize_numeric(&mut self, bn: &BayesianNetwork) -> Result<Size, PgmError> {
        let mut ops = 0u64;
        for m in &mut self.materialized {
            let (pot, c) = ve_answer(bn, &m.scope)?;
            m.potential = Some(pot);
            ops = ops.saturating_add(c);
        }
        Ok(ops)
    }

    /// The chosen marginals.
    pub fn materialized(&self) -> &[VeMaterialization] {
        &self.materialized
    }

    /// Total cached table entries (the method's disk space).
    pub fn total_size(&self) -> Size {
        self.materialized
            .iter()
            .fold(0u64, |a, m| a.saturating_add(m.size))
    }

    /// Operation count of answering `query` with VE-n: marginalization from
    /// the smallest covering cached table, or a full elimination.
    pub fn cost(&self, bn: &BayesianNetwork, query: &Scope) -> Size {
        match self.best_cover(query) {
            Some(m) => m.size,
            None => ve_cost(bn, query).ops,
        }
    }

    /// Numeric answer plus cost.
    pub fn answer(
        &self,
        bn: &BayesianNetwork,
        query: &Scope,
    ) -> Result<(Potential, Size), PgmError> {
        match self.best_cover(query) {
            Some(m) => {
                let pot = m
                    .potential
                    .as_ref()
                    .ok_or_else(|| PgmError::UnknownName("VE-n tables not materialized".into()))?;
                Ok((pot.marginalize(query)?, m.size))
            }
            None => ve_answer(bn, query),
        }
    }

    fn best_cover(&self, query: &Scope) -> Option<&VeMaterialization> {
        self.materialized
            .iter()
            .filter(|m| query.is_subset_of(&m.scope))
            .min_by_key(|m| m.size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peanut_pgm::{fixtures, joint};

    fn workload(bn: &BayesianNetwork) -> Vec<(Scope, f64)> {
        let n = bn.n_vars() as u32;
        (0..n - 1)
            .map(|a| (Scope::from_indices(&[a, a + 1]), 1.0))
            .collect()
    }

    #[test]
    fn selects_at_most_n() {
        let bn = fixtures::figure1();
        let w = workload(&bn);
        for n in [0usize, 1, 3, 5, 100] {
            let ven = VeN::select(&bn, &w, n);
            assert!(ven.materialized().len() <= n);
        }
    }

    #[test]
    fn covered_queries_get_cheap() {
        let bn = fixtures::figure1();
        let w = workload(&bn);
        let ven = VeN::select(&bn, &w, 5);
        assert!(!ven.materialized().is_empty());
        let mut improved = 0;
        for (q, _) in &w {
            let with = ven.cost(&bn, q);
            let without = ve_cost(&bn, q).ops;
            assert!(with <= without);
            if with < without {
                improved += 1;
            }
        }
        assert!(improved >= 5, "only {improved} queries improved");
    }

    #[test]
    fn answers_exact_with_and_without_cover() {
        let bn = fixtures::asia();
        let w = workload(&bn);
        let mut ven = VeN::select(&bn, &w, 3);
        ven.materialize_numeric(&bn).unwrap();
        // covered query
        let q = ven.materialized()[0].scope.clone();
        let (got, _) = ven.answer(&bn, &q).unwrap();
        let want = joint::marginal(&bn, &q).unwrap();
        assert!(got.max_abs_diff(&want).unwrap() < 1e-9);
        // uncovered query falls back to plain VE
        let q2 = Scope::from_indices(&[0, 4, 7]);
        let (got2, _) = ven.answer(&bn, &q2).unwrap();
        let want2 = joint::marginal(&bn, &q2).unwrap();
        assert!(got2.max_abs_diff(&want2).unwrap() < 1e-9);
    }

    #[test]
    fn zero_n_is_plain_ve() {
        let bn = fixtures::sprinkler();
        let w = workload(&bn);
        let ven = VeN::select(&bn, &w, 0);
        assert!(ven.materialized().is_empty());
        let q = Scope::from_indices(&[0, 3]);
        assert_eq!(ven.cost(&bn, &q), ve_cost(&bn, &q).ops);
    }

    #[test]
    fn greedy_prefers_heavier_queries() {
        let bn = fixtures::figure1();
        // one very frequent query, several rare ones
        let heavy = Scope::from_indices(&[0, 9]);
        let mut w = vec![(heavy.clone(), 100.0)];
        w.extend((1..6u32).map(|a| (Scope::from_indices(&[a, a + 2]), 0.01)));
        let ven = VeN::select(&bn, &w, 1);
        assert_eq!(ven.materialized().len(), 1);
        assert!(heavy.is_subset_of(&ven.materialized()[0].scope));
    }
}
