//! The operation-count cost model shared by all methods (paper §5.1).
//!
//! Processing a node `v` of a (possibly shortcut-reduced) Steiner tree
//! multiplies its potential with the incoming messages over
//! `U_v = scope(v) ∪ ⋃ scope(incoming messages)` and marginalizes the
//! product onto the outgoing target. We charge
//!
//! ```text
//! ops(v) = |table(U_v)| · (1 + #incoming)   // multiplications
//!        + |table(U_v)|                      // marginalization pass
//! ```
//!
//! That is the paper's count, not the bytes touched: numeric message
//! passing (`ReducedTree::answer_in`) sums each entry of the product into
//! the message as it is multiplied, so the table over `U_v` is never
//! stored, and the division by the parent separator — the `+1` incoming
//! factor of a non-root — runs over the message. The count still visits
//! every entry of `U_v`, and the paper validates exactly this style of
//! counting against wall-clock time (Figure 3, Pearson ≈ 0.99).
//!
//! Nor is it the count of the pass that runs. A query is charged toward
//! its Steiner root `r_q`, as the paper roots it, and everything that reads
//! the charge — plan pricing, baselines, savings, serving stats — reads
//! that count, a fold over the plan's `QueryAnatomy`. `answer_in` runs its
//! pass toward the member where the same count is smallest (`#incoming` is
//! a node's degree whatever the root; only what each product carries
//! moves), the anatomy's `cheapest_root`, so wall time follows that
//! executed count; `repro fig3` reports the correlation against both.

use peanut_pgm::{table_size, Domain, Scope, Size};

/// Operations charged for computing one message (or the final answer) at a
/// node whose product table spans `product_scope`, with `n_incoming`
/// incoming messages.
pub fn node_ops(product_scope: &Scope, n_incoming: usize, domain: &Domain) -> Size {
    node_ops_of_size(table_size(product_scope, domain), n_incoming)
}

/// [`node_ops`] for a product table already sized at `t` entries.
pub fn node_ops_of_size(t: Size, n_incoming: usize) -> Size {
    t.saturating_mul(1 + n_incoming as u64).saturating_add(t)
}

/// Operations charged for answering an in-clique query by marginalizing a
/// clique (or shortcut) potential of scope `scope`.
pub fn marginalization_ops(scope: &Scope, domain: &Domain) -> Size {
    table_size(scope, domain)
}

/// Probability-weighted mean operation count of a workload distribution
/// under a per-query cost function.
///
/// This is the quantity the offline phase optimizes (the expectation in
/// Def. 3.3) recomputed on an arbitrary distribution — in particular on the
/// *observed* serving distribution, where comparing it between the current
/// materialization and the plain tree gives the epoch's expected benefit
/// after drift. Queries the cost function cannot price (`None`) are skipped
/// and the remaining weights renormalized; returns 0 when nothing is
/// priceable.
pub fn expected_ops<F>(queries: &[(Scope, f64)], mut cost: F) -> f64
where
    F: FnMut(&Scope) -> Option<Size>,
{
    let mut total = 0.0f64;
    let mut mass = 0.0f64;
    for (q, w) in queries {
        if *w <= 0.0 {
            continue;
        }
        if let Some(ops) = cost(q) {
            total += *w * ops as f64;
            mass += *w;
        }
    }
    if mass > 0.0 {
        total / mass
    } else {
        0.0
    }
}

/// Accumulated cost of processing one query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryCost {
    /// Total operation count.
    pub ops: Size,
    /// The plan's edge count, the paper's message count: every message,
    /// whether the pass computed it or took it from the memo.
    pub messages: usize,
    /// Number of shortcut potentials exploited.
    pub shortcuts_used: usize,
}

impl QueryCost {
    /// Cost of an in-clique query: one marginalization of the clique table
    /// of scope `clique` — no message, no shortcut.
    pub fn in_clique(clique: &Scope, domain: &Domain) -> Self {
        QueryCost {
            ops: marginalization_ops(clique, domain),
            messages: 0,
            shortcuts_used: 0,
        }
    }

    /// Adds the cost of one processed node.
    pub fn add_node(&mut self, ops: Size) {
        self.ops = self.ops.saturating_add(ops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peanut_pgm::Domain;

    #[test]
    fn node_ops_formula() {
        let d = Domain::uniform(3, 2).unwrap();
        let s = d.full_scope(); // table of 8
        assert_eq!(node_ops(&s, 0, &d), 8 + 8);
        assert_eq!(node_ops(&s, 2, &d), 8 * 3 + 8);
    }

    #[test]
    fn marginalization_is_table_size() {
        let d = Domain::uniform(4, 3).unwrap();
        assert_eq!(marginalization_ops(&d.full_scope(), &d), 81);
    }

    #[test]
    fn expected_ops_weights_and_renormalizes() {
        let a = Scope::from_indices(&[0]);
        let b = Scope::from_indices(&[1]);
        let c = Scope::from_indices(&[2]);
        let entries = vec![(a, 0.5), (b, 0.25), (c, 0.25)];
        // all priceable: plain expectation
        let e = expected_ops(&entries, |q| Some(100 * (q.vars()[0].0 as u64 + 1)));
        assert!((e - (0.5 * 100.0 + 0.25 * 200.0 + 0.25 * 300.0)).abs() < 1e-9);
        // one unpriceable query: weights renormalize over the rest
        let e = expected_ops(&entries, |q| {
            (q.vars()[0].0 != 2).then(|| 100 * (q.vars()[0].0 as u64 + 1))
        });
        assert!((e - (0.5 * 100.0 + 0.25 * 200.0) / 0.75).abs() < 1e-9);
        // nothing priceable
        assert_eq!(expected_ops(&entries, |_| None), 0.0);
        assert_eq!(expected_ops(&[], |_| Some(1)), 0.0);
    }

    #[test]
    fn query_cost_saturates() {
        let mut c = QueryCost::default();
        c.add_node(u64::MAX - 1);
        c.add_node(100);
        assert_eq!(c.ops, u64::MAX);
    }
}
