//! The unified serving request: one typed `(targets, evidence)` pair for
//! every serving surface.
//!
//! Before this type, evidence-conditioned traffic rode along as ad-hoc
//! `(Scope, Vec<(Var, u32)>)` tuples from the workload generators while
//! batch inputs were a separate query enum — invisible to each other, to
//! the answer cache, and to workload observation. A [`ServeRequest`] is
//! the single canonical form, canonicalized at construction (evidence
//! sorted by variable, a repeated pair kept once) so order-insensitive
//! duplicates coalesce.
//!
//! # How a request hashes
//!
//! The serve pipeline hashes each arrival **once**, with the engine's keyed
//! [`RandomState`](std::hash::RandomState) (SipHash: requests are client
//! input, and the key keeps collisions out of a client's reach), and files
//! the request under that `u64` everywhere it is looked up: the in-batch
//! dedup map, the answer cache and its eviction queue ([`ByHash`] maps,
//! whose [`PassThrough`] hasher uses the key as the hash). The hash covers
//! the *evidence context* as well as the targets. A marginal hashes
//! exactly as its target scope, so the same `u64` is also its key in the
//! epoch's scope histogram ([`WorkloadStats`](crate::WorkloadStats)).
//! Every such map compares the request (or scope) itself on a hash match:
//! a collision costs a recomputation, never a wrong answer.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use peanut_pgm::{Scope, Var};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// One query as submitted to a serving engine: target variables plus a
/// (possibly empty) pinned evidence assignment. Empty evidence means a
/// plain marginal query `P(targets)`; otherwise `P(targets | evidence)`.
///
/// Construct via [`ServeRequest::marginal`] or [`ServeRequest::new`] —
/// the latter sorts the evidence by variable and drops repeated pairs so
/// structurally equal requests compare, hash and cache identically
/// regardless of how the client listed the evidence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeRequest {
    /// Target variables of the distribution being asked for.
    pub targets: Scope,
    /// Evidence assignments, sorted by variable, each pair once, and
    /// disjoint from the targets (overlap is rejected per-request at serve
    /// time, not here). Two values for one variable stay: that is a
    /// contradiction, failed at serve time as
    /// [`PgmError::ImpossibleEvidence`](peanut_pgm::PgmError::ImpossibleEvidence).
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

/// A marginal hashes as its target scope alone, a conditional as its
/// targets followed by its evidence (module docs). Consistent with the
/// derived `Eq`: equal requests feed the hasher the same values.
impl Hash for ServeRequest {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.targets.hash(state);
        if !self.evidence.is_empty() {
            self.evidence.hash(state);
        }
    }
}

impl From<Scope> for ServeRequest {
    fn from(targets: Scope) -> Self {
        ServeRequest::marginal(targets)
    }
}

/// A [`Hasher`] for maps keyed by a `u64` that already *is* a keyed hash
/// (a request's or a scope's, under one
/// [`RandomState`](std::hash::RandomState)): it passes the key
/// through instead of hashing it again.
#[derive(Clone, Copy, Debug, Default)]
pub struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }

    /// Only `u64` keys are filed through this hasher; any other input is
    /// folded in rather than rejected.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }
}

/// A map keyed by precomputed keyed hashes. Its values hold what the hash
/// stands for, so a lookup can compare it and treat a collision as a miss.
pub type ByHash<V> = HashMap<u64, V, BuildHasherDefault<PassThrough>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, RandomState};

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

    /// The histogram files a marginal under its request hash: under one
    /// keyed hasher the two are the same `u64`. A conditional on the same
    /// targets hashes differently.
    #[test]
    fn a_marginal_hashes_as_its_target_scope() {
        let rs = RandomState::new();
        let t = Scope::from_indices(&[3, 7]);
        let m = ServeRequest::marginal(t.clone());
        assert_eq!(rs.hash_one(&m), rs.hash_one(&t));
        let c = ServeRequest::new(t.clone(), vec![(Var(1), 0)]);
        assert_ne!(rs.hash_one(&c), rs.hash_one(&t));
        assert_ne!(rs.hash_one(&c), rs.hash_one(c.stat_scope()));
        // the pass-through map uses the key itself as the hash
        let mut h = PassThrough::default();
        0xfeed_u64.hash(&mut h);
        assert_eq!(h.finish(), 0xfeed);
    }
}
