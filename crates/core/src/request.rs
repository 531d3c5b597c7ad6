//! The unified serving request: one typed `(targets, evidence)` pair for
//! every serving surface.
//!
//! Before this type, evidence-conditioned traffic rode along as ad-hoc
//! `(Scope, Vec<(Var, u32)>)` tuples from the workload generators while
//! batch inputs were a separate query enum — invisible to each other, to
//! the answer cache, and to workload observation. A [`ServeRequest`] is
//! the single canonical form: hashable (so in-batch dedup and the
//! cross-batch answer cache key on the *evidence context* as well as the
//! targets), and canonicalized at construction (evidence sorted by
//! variable, a repeated pair kept once) so order-insensitive duplicates
//! coalesce.

use peanut_pgm::{Scope, Var};

/// One query as submitted to a serving engine: target variables plus a
/// (possibly empty) pinned evidence assignment. Empty evidence means a
/// plain marginal query `P(targets)`; otherwise `P(targets | evidence)`.
///
/// Construct via [`ServeRequest::marginal`] or [`ServeRequest::new`] —
/// the latter sorts the evidence by variable and drops repeated pairs so
/// structurally equal requests compare, hash and cache identically
/// regardless of how the client listed the evidence.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ServeRequest {
    /// Target variables of the distribution being asked for.
    pub targets: Scope,
    /// Evidence assignments, sorted by variable, each pair once, and
    /// disjoint from the targets (overlap is rejected per-request at serve
    /// time, not here). Two values for one variable stay: that is a
    /// contradiction, answered with an all-zero table.
    pub evidence: Vec<(Var, u32)>,
}

impl ServeRequest {
    /// A plain marginal request `P(targets)`.
    pub fn marginal(targets: Scope) -> Self {
        ServeRequest {
            targets,
            evidence: Vec::new(),
        }
    }

    /// A request with evidence, canonicalized: the evidence list is sorted
    /// by variable and a pair listed twice is kept once, so equal requests
    /// coalesce under dedup and cache keys.
    pub fn new(targets: Scope, mut evidence: Vec<(Var, u32)>) -> Self {
        evidence.sort_unstable();
        evidence.dedup();
        ServeRequest { targets, evidence }
    }

    /// Whether this is a plain marginal (no evidence).
    pub fn is_marginal(&self) -> bool {
        self.evidence.is_empty()
    }

    /// The evidence variables as a scope (empty for marginals).
    pub fn evidence_scope(&self) -> Scope {
        Scope::from_iter(self.evidence.iter().map(|&(v, _)| v))
    }

    /// The scope the workload model reasons about: the targets themselves
    /// for marginals, the joint `targets ∪ vars(evidence)` scope for
    /// conditional requests — that is the scope the per-query engine
    /// answers, and the one materialization selection optimizes for.
    pub fn stat_scope(&self) -> Scope {
        if self.evidence.is_empty() {
            self.targets.clone()
        } else {
            self.targets.union(&self.evidence_scope())
        }
    }
}

impl From<Scope> for ServeRequest {
    fn from(targets: Scope) -> Self {
        ServeRequest::marginal(targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn construction_canonicalizes_evidence_order() {
        let t = Scope::from_indices(&[0, 1]);
        let a = ServeRequest::new(t.clone(), vec![(Var(5), 1), (Var(2), 0)]);
        let b = ServeRequest::new(t.clone(), vec![(Var(2), 0), (Var(5), 1)]);
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a.clone());
        assert!(set.contains(&b), "hash must see through evidence order");
        assert!(!a.is_marginal());
        assert_eq!(a.evidence_scope(), Scope::from_indices(&[2, 5]));
        assert_eq!(a.stat_scope(), Scope::from_indices(&[0, 1, 2, 5]));
        // a pair listed twice is the same request; two values for one
        // variable are not folded
        let twice = ServeRequest::new(t.clone(), vec![(Var(5), 1), (Var(2), 0), (Var(5), 1)]);
        assert_eq!(twice, a);
        assert!(set.contains(&twice));
        let clash = ServeRequest::new(t, vec![(Var(5), 1), (Var(5), 0)]);
        assert_eq!(clash.evidence, vec![(Var(5), 0), (Var(5), 1)]);
    }

    #[test]
    fn marginal_requests_pass_targets_through() {
        let t = Scope::from_indices(&[3, 7]);
        let m = ServeRequest::marginal(t.clone());
        assert!(m.is_marginal());
        assert_eq!(m.stat_scope(), t);
        assert!(m.evidence_scope().is_empty());
        let via_from: ServeRequest = t.clone().into();
        assert_eq!(via_from, m);
    }
}
