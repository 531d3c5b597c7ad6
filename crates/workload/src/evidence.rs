//! Deterministic attachment of evidence to sampled query scopes.
//!
//! The paper's workloads are pure marginal queries; a serving system also
//! sees evidence-conditioned traffic (`P(targets | evidence)`). This module
//! turns a fraction of sampled scopes into conditional queries by splitting
//! off some variables as evidence with uniformly drawn values — seeded and
//! reproducible, like every other generator in this crate. Queries come out
//! as typed [`ServeRequest`]s, the unified form every serving surface
//! accepts.

use peanut_core::ServeRequest;
use peanut_pgm::{Domain, Scope, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Converts `fraction` of the given scopes into conditional queries.
///
/// A selected scope with at least two variables is split: between one
/// variable and all-but-one become evidence (values drawn uniformly from the
/// variable's domain), the rest stay targets. Scopes left unselected — and
/// all single-variable scopes — pass through as plain marginal requests.
pub fn with_evidence(
    domain: &Domain,
    scopes: &[Scope],
    fraction: f64,
    seed: u64,
) -> Vec<ServeRequest> {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "fraction must be in [0, 1]"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    scopes
        .iter()
        .map(|q| {
            if q.len() < 2 || rng.gen_range(0.0..1.0) >= fraction {
                return ServeRequest::marginal(q.clone());
            }
            let n_evidence = rng.gen_range(1..q.len());
            // Fisher–Yates with the seeded stream, then split the shuffle
            let mut vars: Vec<Var> = q.iter().collect();
            for i in (1..vars.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                vars.swap(i, j);
            }
            let evidence: Vec<(Var, u32)> = vars[..n_evidence]
                .iter()
                .map(|&v| (v, rng.gen_range(0..domain.card(v))))
                .collect();
            let targets = Scope::from_iter(vars[n_evidence..].iter().copied());
            ServeRequest::new(targets, evidence)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use peanut_pgm::fixtures;

    fn scopes() -> Vec<Scope> {
        (0..8u32)
            .map(|i| Scope::from_indices(&[i % 4, (i + 1) % 4 + 4, (i + 2) % 3 + 8]))
            .collect()
    }

    #[test]
    fn deterministic_in_seed() {
        let bn = fixtures::chain(12, 3, 5);
        let a = with_evidence(bn.domain(), &scopes(), 0.5, 1);
        let b = with_evidence(bn.domain(), &scopes(), 0.5, 1);
        let c = with_evidence(bn.domain(), &scopes(), 0.5, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn split_preserves_variables_and_values_in_range() {
        let bn = fixtures::chain(12, 3, 5);
        let d = bn.domain();
        let qs = scopes();
        for (orig, req) in qs.iter().zip(with_evidence(d, &qs, 1.0, 9)) {
            let ev_scope = req.evidence_scope();
            assert!(req.targets.is_disjoint_from(&ev_scope));
            assert_eq!(&req.stat_scope(), orig);
            assert!(!req.targets.is_empty());
            assert!(!req.is_marginal());
            for &(v, val) in &req.evidence {
                assert!(val < d.card(v));
            }
        }
    }

    #[test]
    fn zero_fraction_passes_through() {
        let bn = fixtures::chain(12, 3, 5);
        for (orig, req) in scopes()
            .iter()
            .zip(with_evidence(bn.domain(), &scopes(), 0.0, 3))
        {
            assert_eq!(&req.targets, orig);
            assert!(req.is_marginal());
        }
    }
}
