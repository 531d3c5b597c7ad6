//! PEANUT+ (§4.6): relax the node-disjointness constraint of MOSP with a
//! ratio-greedy packing over *all* LRDP candidates.
//!
//! PEANUT's optimal packing is disjoint and often leaves budget unused;
//! PEANUT+ instead pools every single-root optimal shortcut produced by
//! LRDP (all roots × all grid budgets), sorts by benefit-to-size ratio, and
//! greedily materializes — overlaps allowed — until the budget is filled.
//! The online phase then resolves per-query conflicts with GWMIN.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use crate::lrdp::{RootTables, ShortcutSolution};
use peanut_pgm::Size;

/// The PEANUT+ greedy packing: candidates (across all roots and budgets)
/// chosen by decreasing `B(S, Q) / μ(S)` until `Σ μ(S) > budget` would hold.
///
/// Candidates with non-positive true benefit are discarded; identical node
/// sets are deduplicated (LRDP already dedups within a root; across roots,
/// node sets are distinct by construction because the root is part of the
/// set). Unlike PEANUT, the **true** sizes are charged against the budget,
/// so the actual materialized space is controlled exactly (this is why the
/// paper compares PEANUT+ and INDSEP "at parity budget").
pub fn greedy_pack(roots: &[RootTables], budget: Size) -> Vec<ShortcutSolution> {
    let mut pool: Vec<&ShortcutSolution> = roots
        .iter()
        .flat_map(|rt| rt.solutions.iter())
        .filter(|s| s.true_benefit > 0.0 && s.shortcut.size() <= budget)
        .collect();
    pool.sort_by(|a, b| {
        let ra = a.true_benefit / a.shortcut.size() as f64;
        let rb = b.true_benefit / b.shortcut.size() as f64;
        rb.total_cmp(&ra)
            .then_with(|| a.shortcut.nodes().cmp(b.shortcut.nodes()))
    });
    let mut used: Size = 0;
    let mut chosen: Vec<ShortcutSolution> = Vec::new();
    for cand in pool {
        let sz = cand.shortcut.size();
        if used.saturating_add(sz) > budget {
            continue; // skip and keep scanning — fill the budget greedily
        }
        if chosen
            .iter()
            .any(|c| c.shortcut.nodes() == cand.shortcut.nodes())
        {
            continue;
        }
        used += sz;
        chosen.push(cand.clone());
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::OfflineContext;
    use crate::exec::SequentialExecutor;
    use crate::grid::BudgetGrid;
    use crate::lrdp::lrdp_all_on;
    use crate::workload::Workload;
    use peanut_junction::build_junction_tree;
    use peanut_pgm::{fixtures, Scope};

    fn setup(
        n: usize,
    ) -> (
        peanut_pgm::BayesianNetwork,
        peanut_junction::JunctionTree,
        Vec<Scope>,
    ) {
        let bn = fixtures::chain(n, 2, 5);
        let tree = build_junction_tree(&bn).unwrap();
        let queries: Vec<Scope> = (0..(n as u32 - 3))
            .map(|a| Scope::from_indices(&[a, a + 3]))
            .collect();
        (bn, tree, queries)
    }

    #[test]
    fn budget_respected_exactly() {
        let (_bn, tree, queries) = setup(12);
        let w = Workload::from_queries(queries);
        let ctx = OfflineContext::new(&tree, &w).unwrap();
        let grid = BudgetGrid::exact(64);
        let roots = lrdp_all_on(&ctx, &grid, &SequentialExecutor);
        for budget in [0u64, 2, 4, 8, 16, 64] {
            let chosen = greedy_pack(&roots, budget);
            let total: u64 = chosen.iter().map(|s| s.shortcut.size()).sum();
            assert!(total <= budget, "total {total} > budget {budget}");
        }
    }

    #[test]
    fn monotone_in_budget() {
        let (_bn, tree, queries) = setup(12);
        let w = Workload::from_queries(queries);
        let ctx = OfflineContext::new(&tree, &w).unwrap();
        let grid = BudgetGrid::exact(64);
        let roots = lrdp_all_on(&ctx, &grid, &SequentialExecutor);
        let mut prev = 0.0;
        for budget in [2u64, 4, 8, 16, 32, 64] {
            let chosen = greedy_pack(&roots, budget);
            let total: f64 = chosen.iter().map(|s| s.true_benefit).sum();
            assert!(total >= prev - 1e-9);
            prev = total;
        }
    }

    #[test]
    fn overlaps_allowed_and_dedup_holds() {
        let (_bn, tree, queries) = setup(14);
        let w = Workload::from_queries(queries);
        let ctx = OfflineContext::new(&tree, &w).unwrap();
        let grid = BudgetGrid::exact(128);
        let roots = lrdp_all_on(&ctx, &grid, &SequentialExecutor);
        let chosen = greedy_pack(&roots, 128);
        // no duplicates
        for (i, a) in chosen.iter().enumerate() {
            for b in &chosen[i + 1..] {
                assert_ne!(a.shortcut.nodes(), b.shortcut.nodes());
            }
        }
        // with a generous budget on a chain, PEANUT+ typically picks
        // overlapping regions — just assert it picked more than one
        assert!(chosen.len() > 1, "expected several candidates");
    }
}
