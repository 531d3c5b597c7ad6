//! The assembled PEANUT / PEANUT+ methods (§4.5–4.6): offline
//! materialization selection (plus optional numeric materialization of the
//! chosen tables) producing a [`Materialization`] for the online engine.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use crate::budp::budp;
use crate::context::OfflineContext;
use crate::exec::{Executor, ScopedExecutor};
use crate::grid::BudgetGrid;
use crate::lrdp::{lrdp_all_on, ShortcutSolution};
use crate::online::{Materialization, MaterializedShortcut};
use crate::plus::greedy_pack;
use peanut_junction::{region_joints, NumericState};
use peanut_pgm::{PgmError, Size};

/// Which packing strategy to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Node-disjoint optimal packing (LRDP + BUDP).
    Peanut,
    /// Ratio-greedy packing with overlaps (LRDP + greedy), the paper's
    /// best-performing method.
    PeanutPlus,
}

/// Offline configuration.
#[derive(Clone, Debug)]
pub struct PeanutConfig {
    /// Space budget `K` (table entries).
    pub budget: Size,
    /// Grid parameter `ε` of §4.4; values `≤ 1` select the exact
    /// pseudo-polynomial grid `{0..K}` (only sensible for tiny budgets).
    pub epsilon: f64,
    /// Worker threads for the per-root LRDP fan-out.
    pub threads: usize,
    /// PEANUT or PEANUT+.
    pub variant: Variant,
}

impl PeanutConfig {
    /// PEANUT+ at the paper's default approximation (`ε = 1.2`).
    pub fn plus(budget: Size) -> Self {
        PeanutConfig {
            budget,
            epsilon: 1.2,
            threads: 1,
            variant: Variant::PeanutPlus,
        }
    }

    /// PEANUT (disjoint packing) at `ε = 1.2`.
    pub fn disjoint(budget: Size) -> Self {
        PeanutConfig {
            budget,
            epsilon: 1.2,
            threads: 1,
            variant: Variant::Peanut,
        }
    }

    /// Sets the approximation level.
    ///
    /// # Panics
    ///
    /// On a non-finite `eps`: a NaN would select the exact grid, whose
    /// `K + 1` points per node a serving-sized budget cannot afford.
    pub fn with_epsilon(mut self, eps: f64) -> Self {
        assert!(
            eps.is_finite(),
            "grid parameter ε must be finite, got {eps}"
        );
        self.epsilon = eps;
        self
    }

    /// Sets the thread count for the root fan-out.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    fn grid(&self) -> BudgetGrid {
        if self.epsilon > 1.0 {
            BudgetGrid::geometric(self.budget, self.epsilon)
        } else {
            BudgetGrid::exact(self.budget)
        }
    }
}

/// The PEANUT method: offline selection (and optional numeric
/// materialization) of shortcut potentials.
pub struct Peanut;

impl Peanut {
    /// Runs the offline phase in symbolic mode: selects the shortcut
    /// potentials but materializes no numeric tables (the mode used for
    /// datasets whose calibration is infeasible, and for all cost-only
    /// experiments).
    pub fn offline(ctx: &OfflineContext, cfg: &PeanutConfig) -> Materialization {
        Self::offline_with(ctx, cfg, &ScopedExecutor::new(cfg.threads))
    }

    /// Like [`offline`](Self::offline), but fans the per-root LRDP out on
    /// the given [`Executor`] instead of spawning `cfg.threads` scoped
    /// threads — the serving tier passes its persistent worker pool here so
    /// a lifecycle re-selection reuses already-parked workers.
    pub fn offline_with(
        ctx: &OfflineContext,
        cfg: &PeanutConfig,
        exec: &dyn Executor,
    ) -> Materialization {
        let grid = cfg.grid();
        let roots = lrdp_all_on(ctx, &grid, exec);
        let chosen: Vec<ShortcutSolution> = match cfg.variant {
            Variant::PeanutPlus => greedy_pack(&roots, cfg.budget),
            Variant::Peanut => {
                let packing = budp(ctx, &grid, &roots).shortcuts;
                repair_to_budget(packing, cfg.budget)
            }
        };
        let mut shortcuts: Vec<MaterializedShortcut> = chosen
            .into_iter()
            .map(|sol| MaterializedShortcut {
                ratio: sol.true_benefit / sol.shortcut.size().max(1) as f64,
                benefit: sol.true_benefit,
                potential: None,
                shortcut: sol.shortcut,
            })
            .collect();
        shortcuts.sort_by(|a, b| b.ratio.total_cmp(&a.ratio));
        Materialization::new(shortcuts, cfg.variant == Variant::PeanutPlus)
    }

    /// Runs the offline phase and materializes the chosen tables from a
    /// calibrated tree. Returns the materialization and the total operation
    /// count spent building the tables.
    pub fn offline_numeric(
        ctx: &OfflineContext,
        cfg: &PeanutConfig,
        numeric: &NumericState,
    ) -> Result<(Materialization, Size), PgmError> {
        Self::offline_numeric_with(ctx, cfg, numeric, &ScopedExecutor::new(cfg.threads))
    }

    /// Like [`offline_numeric`](Self::offline_numeric), but the per-root
    /// LRDP fan-out runs on the given [`Executor`]. The chosen tables are
    /// built together on the calling thread ([`region_joints`]): nested
    /// regions share most of their messages, and each is computed once.
    pub fn offline_numeric_with(
        ctx: &OfflineContext,
        cfg: &PeanutConfig,
        numeric: &NumericState,
        exec: &dyn Executor,
    ) -> Result<(Materialization, Size), PgmError> {
        let mut mat = Self::offline_with(ctx, cfg, exec);
        let regions: Vec<_> = mat
            .shortcuts
            .iter()
            .map(|m| (m.shortcut.nodes(), m.shortcut.root(), m.shortcut.scope()))
            .collect();
        let built = region_joints(ctx.tree(), ctx.rooted(), numeric, &regions)?;
        let mut ops: Size = 0;
        for (m, (table, cost)) in mat.shortcuts.iter_mut().zip(built) {
            m.potential = Some(table);
            ops = ops.saturating_add(cost);
        }
        Ok((mat, ops))
    }
}

/// BUDP packs against DP-estimated (additive, grid-rounded) costs; the true
/// `μ(S)` of merged-branch shortcuts can differ. Enforce the budget on true
/// sizes by keeping shortcuts in decreasing benefit/size order (a deviation,
/// listed in `ARCHITECTURE.md`: the paper does not address the estimate/true
/// gap; dropping lowest-ratio items is the conservative repair).
fn repair_to_budget(mut packing: Vec<ShortcutSolution>, budget: Size) -> Vec<ShortcutSolution> {
    packing.sort_by(|a, b| {
        let ra = a.true_benefit / a.shortcut.size().max(1) as f64;
        let rb = b.true_benefit / b.shortcut.size().max(1) as f64;
        rb.total_cmp(&ra)
    });
    let mut used: Size = 0;
    let mut kept = Vec::with_capacity(packing.len());
    for sol in packing {
        let sz = sol.shortcut.size();
        if sol.true_benefit <= 0.0 {
            continue;
        }
        if used.saturating_add(sz) <= budget {
            used += sz;
            kept.push(sol);
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::OnlineEngine;
    use crate::workload::Workload;
    use peanut_junction::{build_junction_tree, QueryEngine};
    use peanut_pgm::{fixtures, joint, Scope};

    fn chain_workload(n: usize) -> (peanut_pgm::BayesianNetwork, Vec<Scope>) {
        let bn = fixtures::chain(n, 2, 13);
        let queries: Vec<Scope> = (0..(n as u32 - 4))
            .map(|a| Scope::from_indices(&[a, a + 4]))
            .collect();
        (bn, queries)
    }

    #[test]
    fn peanut_plus_reduces_workload_cost() {
        let (bn, queries) = chain_workload(14);
        let tree = build_junction_tree(&bn).unwrap();
        let w = Workload::from_queries(queries.clone());
        let ctx = OfflineContext::new(&tree, &w).unwrap();
        let cfg = PeanutConfig::plus(200).with_epsilon(1.0);
        let mat = Peanut::offline(&ctx, &cfg);
        assert!(!mat.is_empty());
        assert!(mat.total_size() <= 200);

        let engine = QueryEngine::symbolic(&tree);
        let online = OnlineEngine::new(&engine, &mat);
        let mut base_total = 0u64;
        let mut mat_total = 0u64;
        for q in &queries {
            base_total += online.baseline_cost(q).unwrap().ops;
            mat_total += online.cost(q).unwrap().ops;
        }
        assert!(
            mat_total < base_total,
            "materialization should cut workload cost: {mat_total} vs {base_total}"
        );
    }

    #[test]
    fn peanut_disjoint_within_budget_and_disjoint() {
        let (bn, queries) = chain_workload(12);
        let tree = build_junction_tree(&bn).unwrap();
        let w = Workload::from_queries(queries);
        let ctx = OfflineContext::new(&tree, &w).unwrap();
        let cfg = PeanutConfig::disjoint(64).with_epsilon(1.0);
        let mat = Peanut::offline(&ctx, &cfg);
        assert!(mat.total_size() <= 64);
        for (i, a) in mat.shortcuts.iter().enumerate() {
            for b in &mat.shortcuts[i + 1..] {
                assert!(!a.shortcut.overlaps(&b.shortcut));
            }
        }
    }

    #[test]
    fn numeric_materialization_preserves_answers() {
        let (bn, queries) = chain_workload(10);
        let tree = build_junction_tree(&bn).unwrap();
        let w = Workload::from_queries(queries.clone());
        let ctx = OfflineContext::new(&tree, &w).unwrap();
        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let ns = engine.numeric_state().unwrap();
        let cfg = PeanutConfig::plus(128).with_epsilon(1.0);
        let (mat, build_ops) = Peanut::offline_numeric(&ctx, &cfg, ns).unwrap();
        assert!(build_ops > 0 || mat.is_empty());
        let online = OnlineEngine::new(&engine, &mat);
        for q in queries.iter().take(6) {
            let (got, cost) = online.answer(q).unwrap();
            let want = joint::marginal(&bn, q).unwrap();
            assert!(got.max_abs_diff(&want).unwrap() < 1e-9, "answer drift");
            let base = online.baseline_cost(q).unwrap();
            assert!(cost.ops <= base.ops);
        }
    }

    #[test]
    fn zero_budget_gives_empty_materialization() {
        let (bn, queries) = chain_workload(10);
        let tree = build_junction_tree(&bn).unwrap();
        let w = Workload::from_queries(queries);
        let ctx = OfflineContext::new(&tree, &w).unwrap();
        for variant in [Variant::Peanut, Variant::PeanutPlus] {
            let cfg = PeanutConfig {
                budget: 0,
                epsilon: 1.0,
                threads: 1,
                variant,
            };
            let mat = Peanut::offline(&ctx, &cfg);
            assert!(mat.is_empty());
        }
    }

    #[test]
    fn epsilon_trades_quality() {
        let (bn, queries) = chain_workload(16);
        let tree = build_junction_tree(&bn).unwrap();
        let w = Workload::from_queries(queries.clone());
        let ctx = OfflineContext::new(&tree, &w).unwrap();
        let engine = QueryEngine::symbolic(&tree);
        let mut costs = Vec::new();
        for eps in [1.0, 6.0] {
            let cfg = PeanutConfig::plus(512).with_epsilon(eps);
            let mat = Peanut::offline(&ctx, &cfg);
            let online = OnlineEngine::new(&engine, &mat);
            let total: u64 = queries.iter().map(|q| online.cost(q).unwrap().ops).sum();
            costs.push(total);
        }
        // finer grid should never be (meaningfully) worse
        assert!(
            costs[0] <= costs[1] + costs[1] / 10,
            "eps=1 cost {} vs eps=6 cost {}",
            costs[0],
            costs[1]
        );
    }

    /// A NaN ε would select the exact grid, K + 1 points per node: refused
    /// where it is set, by name, as are infinities; ε ≤ 1 stays the exact
    /// grid.
    #[test]
    fn non_finite_epsilon_is_refused() {
        for eps in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let set = std::panic::catch_unwind(|| PeanutConfig::plus(28_000).with_epsilon(eps));
            let msg = set.expect_err("a non-finite ε must panic");
            let msg = msg.downcast_ref::<String>().expect("a formatted message");
            assert!(msg.contains('ε') && msg.contains(&eps.to_string()), "{msg}");
        }
        let cfg = PeanutConfig::plus(4).with_epsilon(0.5);
        assert_eq!(cfg.grid(), BudgetGrid::exact(4));
    }

    #[test]
    fn parallel_fanout_matches_serial() {
        let (bn, queries) = chain_workload(12);
        let tree = build_junction_tree(&bn).unwrap();
        let w = Workload::from_queries(queries);
        let ctx = OfflineContext::new(&tree, &w).unwrap();
        let cfg1 = PeanutConfig::plus(100).with_epsilon(1.0).with_threads(1);
        let cfg4 = PeanutConfig::plus(100).with_epsilon(1.0).with_threads(4);
        let m1 = Peanut::offline(&ctx, &cfg1);
        let m4 = Peanut::offline(&ctx, &cfg4);
        assert_eq!(m1.len(), m4.len());
        for (a, b) in m1.shortcuts.iter().zip(&m4.shortcuts) {
            assert_eq!(a.shortcut.nodes(), b.shortcut.nodes());
        }
    }
}
