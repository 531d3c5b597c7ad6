//! The variable-elimination engine, in symbolic (size-only) and numeric
//! modes.
//!
//! Eliminating a variable `x` gathers all factors mentioning `x` and sums
//! `x` out of their product over the scope union `U`. Following the
//! workspace-wide cost model, this charges `|table(U)| · k + |table(U)|`
//! operations for `k` gathered factors; the final combination onto the
//! query scope is charged the same way. The numeric engine never stores
//! the product table: each step is one fused product → marginalize pass.

use peanut_pgm::{
    product_marginalize_views, table_size, BayesianNetwork, Domain, PgmError, Potential, Scope,
    Size, TableRef, Var,
};

/// Result of planning a VE run symbolically.
#[derive(Clone, Debug)]
pub struct EliminationRun {
    /// Elimination order used (non-query variables only).
    pub order: Vec<Var>,
    /// Total operation count.
    pub ops: Size,
    /// Size of the largest intermediate table.
    pub peak_table: Size,
}

fn ops_of(scope: &Scope, k: usize, domain: &Domain) -> Size {
    let t = table_size(scope, domain);
    t.saturating_mul(k as u64).saturating_add(t)
}

/// Picks the next variable to eliminate: min-fill over the interaction
/// graph induced by the current factor scopes (ties: smaller product table,
/// then variable index).
fn next_to_eliminate(scopes: &[Scope], candidates: &[Var], domain: &Domain) -> Var {
    let mut best: Option<(usize, Size, Var)> = None;
    for &x in candidates {
        // neighborhood of x = union of scopes containing x, minus x
        let mut nbrs = Scope::empty();
        let mut k = 0usize;
        for s in scopes.iter().filter(|s| s.contains(x)) {
            nbrs = nbrs.union(s);
            k += 1;
        }
        if k == 0 {
            return x; // free elimination
        }
        let table = table_size(&nbrs, domain);
        // fill proxy: resulting scope size (cheap and monotone with fill)
        let fill = nbrs.len();
        let key = (fill, table, x);
        if best.is_none_or(|b| key < b) {
            best = Some(key);
        }
    }
    best.expect("non-empty candidates").2
}

/// Symbolic VE: the operation count of answering `P(query)` without
/// materialized marginals.
pub fn ve_cost(bn: &BayesianNetwork, query: &Scope) -> EliminationRun {
    let domain = bn.domain();
    let mut scopes: Vec<Scope> = bn.cpts().map(|c| c.scope().clone()).collect();
    let mut remaining: Vec<Var> = domain.all_vars().filter(|v| !query.contains(*v)).collect();
    let mut ops: Size = 0;
    let mut peak: Size = 0;
    let mut order = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let x = next_to_eliminate(&scopes, &remaining, domain);
        remaining.retain(|&v| v != x);
        order.push(x);
        let (with_x, rest): (Vec<Scope>, Vec<Scope>) =
            scopes.into_iter().partition(|s| s.contains(x));
        scopes = rest;
        if with_x.is_empty() {
            continue;
        }
        let mut u = union_of(&with_x);
        ops = ops.saturating_add(ops_of(&u, with_x.len(), domain));
        peak = peak.max(table_size(&u, domain));
        u.remove(x);
        scopes.push(u);
    }
    // final combination onto the query
    if !scopes.is_empty() {
        let u = union_of(&scopes);
        ops = ops.saturating_add(ops_of(&u, scopes.len(), domain));
        peak = peak.max(table_size(&u, domain));
    }
    EliminationRun {
        order,
        ops,
        peak_table: peak,
    }
}

/// Numeric VE: the joint `P(query)` plus the identical operation count.
pub fn ve_answer(bn: &BayesianNetwork, query: &Scope) -> Result<(Potential, Size), PgmError> {
    let domain = bn.domain();
    let mut scratch = peanut_pgm::Scratch::new();
    let mut factors: Vec<Potential> = bn.cpts().cloned().collect();
    let mut remaining: Vec<Var> = domain.all_vars().filter(|v| !query.contains(*v)).collect();
    let mut ops: Size = 0;
    while !remaining.is_empty() {
        let scopes: Vec<Scope> = factors.iter().map(|f| f.scope().clone()).collect();
        let x = next_to_eliminate(&scopes, &remaining, domain);
        remaining.retain(|&v| v != x);
        let (with_x, rest): (Vec<Potential>, Vec<Potential>) =
            factors.into_iter().partition(|f| f.scope().contains(x));
        factors = rest;
        if with_x.is_empty() {
            continue;
        }
        // the product over `u` is charged, summed out in one pass, never stored
        let u = union_of(with_x.iter().map(Potential::scope));
        ops = ops.saturating_add(ops_of(&u, with_x.len(), domain));
        let views: Vec<TableRef<'_>> = with_x.iter().map(Potential::view).collect();
        let keep = u.minus(&Scope::singleton(x));
        factors.push(product_marginalize_views(&views, &keep, &mut scratch)?);
        for spent in with_x {
            scratch.recycle(spent);
        }
    }
    let u = union_of(factors.iter().map(Potential::scope));
    ops = ops.saturating_add(ops_of(&u, factors.len(), domain));
    let views: Vec<TableRef<'_>> = factors.iter().map(Potential::view).collect();
    Ok((product_marginalize_views(&views, query, &mut scratch)?, ops))
}

/// The scope of the product of factors over `scopes`.
fn union_of<'a>(scopes: impl IntoIterator<Item = &'a Scope>) -> Scope {
    scopes.into_iter().fold(Scope::empty(), |u, s| u.union(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use peanut_pgm::{fixtures, joint};

    #[test]
    fn ve_matches_brute_force() {
        for bn in [fixtures::sprinkler(), fixtures::asia(), fixtures::figure1()] {
            let n = bn.n_vars() as u32;
            for a in 0..n {
                for b in (a + 1)..n.min(a + 4) {
                    let q = Scope::from_indices(&[a, b]);
                    let (got, ops) = ve_answer(&bn, &q).unwrap();
                    let want = joint::marginal(&bn, &q).unwrap();
                    assert!(got.max_abs_diff(&want).unwrap() < 1e-9);
                    assert!(ops > 0);
                }
            }
        }
    }

    #[test]
    fn symbolic_cost_equals_numeric_ops() {
        let bn = fixtures::figure1();
        for pair in [[0u32, 9], [2, 5], [1, 7], [3, 8]] {
            let q = Scope::from_indices(&pair);
            let run = ve_cost(&bn, &q);
            let (_, ops) = ve_answer(&bn, &q).unwrap();
            assert_eq!(run.ops, ops, "query {pair:?}");
        }
    }

    #[test]
    fn elimination_order_covers_non_query_vars() {
        let bn = fixtures::asia();
        let q = Scope::from_indices(&[0, 7]);
        let run = ve_cost(&bn, &q);
        assert_eq!(run.order.len(), bn.n_vars() - 2);
        assert!(run.order.iter().all(|v| !q.contains(*v)));
        assert!(run.peak_table >= 2);
    }

    #[test]
    fn full_joint_query_eliminates_nothing() {
        let bn = fixtures::sprinkler();
        let q = bn.domain().full_scope();
        let run = ve_cost(&bn, &q);
        assert!(run.order.is_empty());
        let (got, _) = ve_answer(&bn, &q).unwrap();
        let want = joint::joint_table(&bn).unwrap();
        assert!(got.max_abs_diff(&want).unwrap() < 1e-9);
    }
}
