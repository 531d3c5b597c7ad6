//! BUDP — the bottom-up dynamic program for the **multiple optimal shortcut
//! potentials** problem (MOSP, Algorithms 3–4).
//!
//! Preprocessing runs LRDP at every clique; BUDP then computes, bottom-up
//! over the pivot-rooted tree,
//!
//! ```text
//! H[v][c] = the best total benefit of a node-disjoint packing of shortcut
//!           potentials inside subtree(v) with total (DP-estimated) cost ≤ c
//! ```
//!
//! by comparing the paper's two cases at every node: (i) no shortcut rooted
//! at `v` — knapsack-combine the children's packings; (ii) a shortcut
//! `S[v, c′]` rooted at `v` — its benefit plus the best packing allocation
//! over the frontier `D(S[v, c′])` (the subtrees hanging below the
//! shortcut). Budgets live on the same grid as LRDP; costs round up, so the
//! returned packing's estimated cost never exceeds `K`.

use crate::context::OfflineContext;
use crate::grid::{BudgetGrid, Compose};
use crate::lrdp::{Combine, RootTables, ShortcutSolution};
use peanut_junction::RootedTree;

/// The packing chosen by BUDP.
#[derive(Clone, Debug, Default)]
pub struct BudpResult {
    /// Chosen node-disjoint shortcuts.
    pub shortcuts: Vec<ShortcutSolution>,
    /// `H[pivot][K]` — the DP's additive benefit estimate of the packing.
    pub dp_benefit: f64,
}

#[derive(Clone, Copy, Debug)]
enum NodeChoice {
    /// Case (i): combine children packings.
    Children,
    /// Case (ii): shortcut `sol` rooted here plus frontier packings with
    /// remaining budget index `rem`.
    Shortcut { sol: usize, rem: usize },
}

/// Runs BUDP given the per-root LRDP tables (`roots[v]` must be the LRDP
/// output rooted at clique `v`).
pub fn budp(ctx: &OfflineContext, grid: &BudgetGrid, roots: &[RootTables]) -> BudpResult {
    let rooted = ctx.rooted();
    let n = ctx.tree().n_cliques();
    let m = grid.len();
    debug_assert_eq!(roots.len(), n);

    let mut d = Decisions {
        rooted,
        grid,
        roots,
        h: vec![Vec::new(); n],
        choice: vec![Vec::new(); n],
        child_combines: (0..n).map(|_| None).collect(),
    };

    // bottom-up over the pivot-rooted DFS order
    let order: Vec<usize> = rooted.dfs_order().to_vec();
    for &v in order.iter().rev() {
        let kids = rooted.children(v);
        let mut table = vec![0.0f64; m];
        let mut ch = vec![NodeChoice::Children; m];

        // case (i): children packings
        if !kids.is_empty() {
            let comb = packings_over(&d.h, kids, grid);
            table.copy_from_slice(&comb.free);
            d.child_combines[v] = Some(comb);
        }

        // case (ii): a shortcut rooted at v plus frontier packings
        for (si, sol) in roots[v].solutions.iter().enumerate() {
            if sol.dp_benefit <= 0.0 {
                continue;
            }
            let alloc = sol.min_index;
            let frontier: Vec<usize> = sol.shortcut.frontier_set().iter().collect();
            let fcomb = packings_over(&d.h, &frontier, grid);
            for ci in alloc..m {
                let remaining = grid.value(ci) - grid.value(alloc);
                let rem = grid
                    .round_down(remaining)
                    .expect("grid contains 0, so round_down(≥0) exists");
                let cand = sol.dp_benefit + fcomb.free[rem];
                if cand > table[ci] {
                    table[ci] = cand;
                    ch[ci] = NodeChoice::Shortcut { sol: si, rem };
                }
            }
        }

        // monotone by construction? case (ii) entries may dip below a
        // previous index's value after a better earlier alternative; enforce
        // prefix max, inheriting choices.
        for ci in 1..m {
            if table[ci - 1] > table[ci] {
                table[ci] = table[ci - 1];
                ch[ci] = ch[ci - 1];
            }
        }
        d.h[v] = table;
        d.choice[v] = ch;
    }

    // reconstruction from the pivot at the full budget
    let pivot = rooted.root();
    let mut result = BudpResult {
        shortcuts: Vec::new(),
        dp_benefit: d.h[pivot][m - 1],
    };
    d.collect(pivot, m - 1, &mut result.shortcuts);
    result
}

/// The best packings over the disjoint subtrees rooted at `nodes`, per
/// budget split: a knapsack of their final `h` tables.
fn packings_over(h: &[Vec<f64>], nodes: &[usize], grid: &BudgetGrid) -> Combine {
    Combine::run(nodes.iter().map(|&d| h[d].as_slice()), grid, Compose::Add)
}

/// BUDP's decisions: the final tables, each node's choice per budget and
/// its children's combine. A chosen shortcut's frontier combine is not
/// kept: reconstruction visits a handful of them, and recomputes each from
/// the same final `h` tables it was built from.
struct Decisions<'r> {
    rooted: &'r RootedTree,
    grid: &'r BudgetGrid,
    roots: &'r [RootTables],
    h: Vec<Vec<f64>>,
    choice: Vec<Vec<NodeChoice>>,
    child_combines: Vec<Option<Combine>>,
}

impl Decisions<'_> {
    /// The shortcuts of the packing chosen for subtree(`v`) at grid index
    /// `ci`.
    fn collect(&self, v: usize, ci: usize, out: &mut Vec<ShortcutSolution>) {
        if self.h[v][ci] <= 0.0 {
            return; // nothing materialized in this subtree
        }
        match self.choice[v][ci] {
            NodeChoice::Children => {
                let Some(comb) = &self.child_combines[v] else {
                    return;
                };
                for (c, ci_c) in comb.backtrack(false, ci, self.rooted.children(v)) {
                    self.collect(c, ci_c, out);
                }
            }
            NodeChoice::Shortcut { sol, rem } => {
                let sol = &self.roots[v].solutions[sol];
                out.push(sol.clone());
                let frontier: Vec<usize> = sol.shortcut.frontier_set().iter().collect();
                let fcomb = packings_over(&self.h, &frontier, self.grid);
                for (d, ci_d) in fcomb.backtrack(false, rem, &frontier) {
                    self.collect(d, ci_d, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::SequentialExecutor;
    use crate::lrdp::lrdp_all_on;
    use crate::workload::Workload;
    use peanut_junction::build_junction_tree;
    use peanut_pgm::{fixtures, Scope};

    fn run(
        bn: &peanut_pgm::BayesianNetwork,
        queries: Vec<Scope>,
        k: u64,
    ) -> (BudpResult, peanut_junction::JunctionTree) {
        let tree = build_junction_tree(bn).unwrap();
        let w = Workload::from_queries(queries);
        let ctx = OfflineContext::new(&tree, &w).unwrap();
        let grid = BudgetGrid::exact(k);
        let roots = lrdp_all_on(&ctx, &grid, &SequentialExecutor);
        let res = budp(&ctx, &grid, &roots);
        (res, tree)
    }

    #[test]
    fn packing_is_node_disjoint() {
        let bn = fixtures::binary_tree(15, 3);
        let queries: Vec<Scope> = (0..14u32)
            .map(|a| Scope::from_indices(&[a, a + 1]))
            .chain((0..12u32).map(|a| Scope::from_indices(&[a, a + 3])))
            .collect();
        let (res, _) = run(&bn, queries, 48);
        for (i, a) in res.shortcuts.iter().enumerate() {
            for b in &res.shortcuts[i + 1..] {
                assert!(
                    !a.shortcut.overlaps(&b.shortcut),
                    "BUDP returned overlapping shortcuts"
                );
            }
        }
    }

    #[test]
    fn estimated_cost_within_budget() {
        let bn = fixtures::chain(10, 2, 1);
        let queries: Vec<Scope> = (0..8u32)
            .map(|a| Scope::from_indices(&[a, a + 2]))
            .collect();
        for k in [4u64, 8, 16, 32] {
            let (res, _) = run(&bn, queries.clone(), k);
            let est: u64 = res.shortcuts.iter().map(|s| s.dp_cost).sum();
            assert!(est <= k, "estimate {est} exceeds budget {k}");
        }
    }

    #[test]
    fn packing_beats_or_matches_best_single() {
        let bn = fixtures::chain(12, 2, 9);
        let queries: Vec<Scope> = (0..10u32)
            .map(|a| Scope::from_indices(&[a, a + 1]))
            .chain([Scope::from_indices(&[0, 11]), Scope::from_indices(&[2, 9])])
            .collect();
        let tree = build_junction_tree(&bn).unwrap();
        let w = Workload::from_queries(queries);
        let ctx = OfflineContext::new(&tree, &w).unwrap();
        let grid = BudgetGrid::exact(32);
        let roots = lrdp_all_on(&ctx, &grid, &SequentialExecutor);
        let res = budp(&ctx, &grid, &roots);
        let best_single = roots
            .iter()
            .filter_map(|rt| rt.dp_value.last().copied())
            .filter(|v| v.is_finite())
            .fold(0.0f64, f64::max);
        assert!(
            res.dp_benefit >= best_single - 1e-9,
            "packing {} < best single {}",
            res.dp_benefit,
            best_single
        );
    }

    #[test]
    fn zero_budget_materializes_nothing() {
        let bn = fixtures::chain(8, 2, 2);
        let queries = vec![Scope::from_indices(&[0, 7])];
        let (res, _) = run(&bn, queries, 0);
        assert!(res.shortcuts.is_empty());
        assert_eq!(res.dp_benefit, 0.0);
    }

    #[test]
    fn larger_budget_never_hurts() {
        let bn = fixtures::binary_tree(15, 11);
        let queries: Vec<Scope> = (0..13u32).map(|a| Scope::from_indices(&[a, 14])).collect();
        let mut prev = 0.0;
        for k in [2u64, 4, 8, 16, 32, 64] {
            let (res, _) = run(&bn, queries.clone(), k);
            assert!(
                res.dp_benefit >= prev - 1e-9,
                "benefit decreased from {prev} to {} at K={k}",
                res.dp_benefit
            );
            prev = res.dp_benefit;
        }
    }
}
