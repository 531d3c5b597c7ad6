//! The online component (§4.5–4.6), shared by every materialization-based
//! method (PEANUT, PEANUT+, INDSEP): given a query, detect the useful
//! materialized shortcut potentials, shrink the Steiner tree with them, and
//! run (or cost) message passing on the reduced tree.
//!
//! A plan is a view over the arena and the materialization; nothing is
//! copied until a kernel writes. [`OnlineEngine::reduce`] extracts the
//! Steiner tree once, plans it as a [`ReducedTree`] of borrowed clique and
//! separator tables, and prices each candidate shortcut on a replacement
//! built from `&rt` that borrows the shortcut's scope and table — a
//! rejected candidate costs a few index vectors, an accepted one becomes
//! the plan. The plan borrows the engine and the materialization
//! (`ReducedTree<'e>`), so it cannot outlive either.

use crate::context::{delta, query_info_of};
use crate::gwmin::gwmin;
use crate::shortcut::Shortcut;
use crate::stats::WorkloadStats;
use peanut_junction::cost::{marginalization_ops, QueryCost};
use peanut_junction::{NodeLabel, QueryEngine, QueryPlan, ReducedTree, SteinerTree};
use peanut_pgm::{PgmError, Potential, Scope, Scratch, Size};

/// A shortcut potential chosen for materialization.
#[derive(Clone, Debug)]
pub struct MaterializedShortcut {
    /// The shortcut (subtree, cut, scope `X_S`, size `μ(S)`).
    pub shortcut: Shortcut,
    /// The dense table `P(X_S)` (numeric mode only).
    pub potential: Option<Potential>,
    /// Workload benefit `B(S, Q)` at materialization time.
    pub benefit: f64,
    /// Benefit-to-size ratio, the weight used by the online conflict graph.
    pub ratio: f64,
}

/// The outcome of an offline phase: the set of materialized shortcut
/// potentials.
#[derive(Clone, Debug, Default)]
pub struct Materialization {
    /// Materialized shortcuts, in decreasing ratio order.
    pub shortcuts: Vec<MaterializedShortcut>,
    /// Whether shortcuts may overlap (PEANUT+ / INDSEP) — if so, the online
    /// phase must run GWMIN on the per-query conflict graph.
    pub overlapping: bool,
    /// Lifecycle version of this artifact. A freshly selected
    /// materialization is epoch 0; a serving stack that hot-swaps
    /// materializations stamps each published artifact with the next epoch
    /// so downstream caches can tell stale answers from current ones.
    pub epoch: u64,
}

impl Materialization {
    /// Stamps the lifecycle epoch (builder-style).
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }
    /// The *actual budget*: total materialized table entries
    /// (Σ μ(S), the y-axis of the paper's Figure 4).
    pub fn total_size(&self) -> Size {
        self.shortcuts
            .iter()
            .fold(0u64, |a, s| a.saturating_add(s.shortcut.size()))
    }

    /// Number of materialized shortcut potentials.
    pub fn len(&self) -> usize {
        self.shortcuts.len()
    }

    /// True when nothing is materialized.
    pub fn is_empty(&self) -> bool {
        self.shortcuts.is_empty()
    }
}

/// An answer traced with the baseline it is measured against: what the
/// plain (un-shortcut) junction tree would have charged for the same query.
/// The gap between the two is the *observed benefit* the lifecycle layer
/// watches for drift.
#[derive(Clone, Debug)]
pub struct TracedAnswer {
    /// `P(query)` (or `P(targets | evidence)`).
    pub potential: Potential,
    /// Cost actually charged, shortcuts included.
    pub cost: QueryCost,
    /// Operation count of the same query on the plain junction tree.
    pub baseline_ops: Size,
}

/// Query processor that exploits a [`Materialization`].
pub struct OnlineEngine<'e, 't> {
    engine: &'e QueryEngine<'t>,
    mat: &'e Materialization,
    stats: Option<&'e WorkloadStats>,
}

impl<'e, 't> OnlineEngine<'e, 't> {
    /// Wraps a query engine (symbolic or numeric) with a materialization.
    pub fn new(engine: &'e QueryEngine<'t>, mat: &'e Materialization) -> Self {
        OnlineEngine {
            engine,
            mat,
            stats: None,
        }
    }

    /// Like [`new`](Self::new), but every answered query is also recorded
    /// into `stats` (scope, charged cost, plain-JT baseline) — the feed of
    /// the epoch lifecycle's drift detector.
    pub fn with_stats(
        engine: &'e QueryEngine<'t>,
        mat: &'e Materialization,
        stats: &'e WorkloadStats,
    ) -> Self {
        OnlineEngine {
            engine,
            mat,
            stats: Some(stats),
        }
    }

    /// The underlying engine.
    pub fn engine(&self) -> &QueryEngine<'t> {
        self.engine
    }

    /// The materialization this engine answers through.
    pub fn materialization(&self) -> &Materialization {
        self.mat
    }

    /// Builds the shortcut-reduced plan for an out-of-clique query — a view
    /// over the engine's tables and the materialization's; `None` for
    /// in-clique queries.
    pub fn reduce(&self, query: &Scope) -> Result<Option<ReducedTree<'e>>, PgmError> {
        Ok(self.reduce_traced(query, false)?.0)
    }

    /// [`reduce`](Self::reduce), optionally also returning the baseline
    /// operation count of the *unreduced* plan (the plain-JT cost). The
    /// baseline falls out of the reduction for free when shortcuts are
    /// considered, so tracing adds no work on the materialized path.
    fn reduce_traced(
        &self,
        query: &Scope,
        want_baseline: bool,
    ) -> Result<(Option<ReducedTree<'e>>, Size), PgmError> {
        let (engine, mat) = (self.engine, self.mat);
        let (tree, rooted, domain) = (engine.tree(), engine.rooted(), engine.tree().domain());
        let st = match engine.plan(query)? {
            QueryPlan::InClique(u) => {
                let baseline = if want_baseline {
                    marginalization_ops(tree.clique(u), domain)
                } else {
                    0
                };
                return Ok((None, baseline));
            }
            QueryPlan::OutOfClique(st) => st,
        };
        let mut rt = ReducedTree::from_steiner(tree, rooted, &st, engine.numeric_state());
        let baseline = if want_baseline || !mat.is_empty() {
            rt.cost(query, domain).ops
        } else {
            0
        };
        // apply replacements in decreasing ratio order, keeping only those
        // that strictly reduce the operation count
        let mut cost = baseline;
        for i in self.applicable(query, &st) {
            let ms = &mat.shortcuts[i];
            let region: Vec<usize> = (0..rt.len())
                .filter(|&k| match rt.node(k).label {
                    NodeLabel::Clique(u) => ms.shortcut.node_set().contains(u),
                    NodeLabel::Shortcut(_) => false,
                })
                .collect();
            if region.is_empty() || region.len() == rt.len() {
                continue;
            }
            let table = ms.potential.as_ref().map(Potential::view);
            let candidate = rt.replace_region(&region, ms.shortcut.scope(), table, i)?;
            let new_cost = candidate.cost(query, domain).ops;
            if new_cost < cost {
                rt = candidate;
                cost = new_cost;
            }
        }
        Ok((Some(rt), baseline))
    }

    /// The shortcuts worth trying on a query with Steiner tree `st`, in
    /// decreasing ratio order: the useful ones (Def. 3.1), thinned to a
    /// conflict-free set by GWMIN when shortcuts may overlap.
    fn applicable(&self, query: &Scope, st: &SteinerTree) -> Vec<usize> {
        let shortcuts = &self.mat.shortcuts;
        if shortcuts.is_empty() {
            return Vec::new();
        }
        let (tree, rooted) = (self.engine.tree(), self.engine.rooted());
        let qi = query_info_of(tree, rooted, query, 1.0, st);
        let useful: Vec<usize> = (0..shortcuts.len())
            .filter(|&i| delta(tree, rooted, &shortcuts[i].shortcut, &qi))
            .collect();
        let mut order = if self.mat.overlapping {
            let weights: Vec<f64> = useful.iter().map(|&i| shortcuts[i].ratio).collect();
            let overlap = |i: usize, j: usize| {
                i != j && shortcuts[i].shortcut.overlaps(&shortcuts[j].shortcut)
            };
            let adj: Vec<Vec<usize>> = useful
                .iter()
                .map(|&i| {
                    (0..useful.len())
                        .filter(|&jj| overlap(i, useful[jj]))
                        .collect()
                })
                .collect();
            gwmin(&weights, &adj)
                .into_iter()
                .map(|k| useful[k])
                .collect()
        } else {
            useful
        };
        order.sort_by(|&a, &b| {
            shortcuts[b]
                .ratio
                .total_cmp(&shortcuts[a].ratio)
                .then(a.cmp(&b))
        });
        order
    }

    /// Operation count for answering `query` with the materialization.
    pub fn cost(&self, query: &Scope) -> Result<QueryCost, PgmError> {
        match self.reduce(query)? {
            None => self.engine.cost(query),
            Some(rt) => Ok(rt.cost(query, self.engine.tree().domain())),
        }
    }

    /// Numeric answer plus cost (requires a numeric engine and materialized
    /// tables).
    pub fn answer(&self, query: &Scope) -> Result<(Potential, QueryCost), PgmError> {
        self.answer_in(query, &mut Scratch::new())
    }

    /// [`answer`](Self::answer) with caller-provided kernel scratch.
    pub fn answer_in(
        &self,
        query: &Scope,
        scratch: &mut Scratch,
    ) -> Result<(Potential, QueryCost), PgmError> {
        if self.stats.is_some() {
            let t = self.answer_traced_in(query, scratch)?;
            return Ok((t.potential, t.cost));
        }
        match self.reduce(query)? {
            None => self.engine.answer_in(query, scratch),
            Some(rt) => rt.answer_in(query, self.engine.tree().domain(), scratch),
        }
    }

    /// Numeric answer together with the plain-JT baseline cost of the same
    /// query. When the engine carries a [`WorkloadStats`] accumulator
    /// (see [`with_stats`](Self::with_stats)) the observation is recorded.
    pub fn answer_traced_in(
        &self,
        query: &Scope,
        scratch: &mut Scratch,
    ) -> Result<TracedAnswer, PgmError> {
        let (rt, baseline_ops) = self.reduce_traced(query, true)?;
        let (potential, cost) = match rt {
            None => self.engine.answer_in(query, scratch)?,
            Some(rt) => rt.answer_in(query, self.engine.tree().domain(), scratch)?,
        };
        if let Some(stats) = self.stats {
            stats.record(query, &cost, baseline_ops);
        }
        Ok(TracedAnswer {
            potential,
            cost,
            baseline_ops,
        })
    }

    /// Conditional distribution `P(targets | evidence)` answered through the
    /// materialization (§3.1 joint→conditional reduction).
    pub fn conditional(
        &self,
        targets: &Scope,
        evidence: &[(peanut_pgm::Var, u32)],
    ) -> Result<(Potential, QueryCost), PgmError> {
        self.conditional_in(targets, evidence, &mut Scratch::new())
    }

    /// [`conditional`](Self::conditional) with caller-provided kernel
    /// scratch.
    pub fn conditional_in(
        &self,
        targets: &Scope,
        evidence: &[(peanut_pgm::Var, u32)],
        scratch: &mut Scratch,
    ) -> Result<(Potential, QueryCost), PgmError> {
        peanut_junction::query::conditional_from_joint(targets, evidence, scratch, |q, s| {
            self.answer_in(q, s)
        })
    }

    /// [`conditional_in`](Self::conditional_in) traced with the plain-JT
    /// baseline of the underlying joint query (the scope the workload model
    /// and the drift detector reason about).
    pub fn conditional_traced_in(
        &self,
        targets: &Scope,
        evidence: &[(peanut_pgm::Var, u32)],
        scratch: &mut Scratch,
    ) -> Result<TracedAnswer, PgmError> {
        let mut baseline_ops: Size = 0;
        let (potential, cost) =
            peanut_junction::query::conditional_from_joint(targets, evidence, scratch, |q, s| {
                let t = self.answer_traced_in(q, s)?;
                baseline_ops = t.baseline_ops;
                Ok((t.potential, t.cost))
            })?;
        Ok(TracedAnswer {
            potential,
            cost,
            baseline_ops,
        })
    }

    /// Cost of answering with the *plain* junction tree (for savings
    /// percentages).
    pub fn baseline_cost(&self, query: &Scope) -> Result<QueryCost, PgmError> {
        self.engine.cost(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::OfflineContext;
    use crate::workload::Workload;
    use peanut_junction::{build_junction_tree, NumericState, RootedTree};
    use peanut_pgm::{fixtures, joint};

    /// Hand-materialize one shortcut on the Figure-1 tree and check the
    /// online engine uses it correctly.
    #[test]
    fn online_engine_applies_useful_shortcut() {
        let bn = fixtures::figure1();
        let mut tree = build_junction_tree(&bn).unwrap();
        let d = bn.domain().clone();
        let bc = Scope::from_iter([d.var("b").unwrap(), d.var("c").unwrap()]);
        let pivot = tree.cliques().iter().position(|c| *c == bc).unwrap();
        tree.set_pivot(pivot);
        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let rooted = RootedTree::new(&tree);
        let mut ns = NumericState::initialize(&tree, &bn).unwrap();
        ns.calibrate(&tree, &rooted).unwrap();

        // shortcut over {egh}: scope {e, g}
        let egh = tree
            .cliques()
            .iter()
            .position(|c| {
                c.len() == 3 && c.contains(d.var("g").unwrap()) && c.contains(d.var("h").unwrap())
            })
            .unwrap();
        let s = Shortcut::from_nodes(&tree, &rooted, vec![egh]).unwrap();
        let (pot, _) = s.materialize(&tree, &rooted, &ns).unwrap();
        let benefit = 1.0;
        let mat = Materialization {
            shortcuts: vec![MaterializedShortcut {
                ratio: benefit / s.size() as f64,
                benefit,
                potential: Some(pot),
                shortcut: s,
            }],
            overlapping: false,
            epoch: 0,
        };
        let online = OnlineEngine::new(&engine, &mat);

        let q = Scope::from_iter([
            d.var("b").unwrap(),
            d.var("i").unwrap(),
            d.var("f").unwrap(),
        ]);
        let base = online.baseline_cost(&q).unwrap();
        let (got, with) = online.answer(&q).unwrap();
        let want = joint::marginal(&bn, &q).unwrap();
        assert!(got.max_abs_diff(&want).unwrap() < 1e-9);
        assert!(with.ops < base.ops, "shortcut must reduce cost");
        assert_eq!(with.shortcuts_used, 1);
    }

    /// A shortcut that would lose a query variable must not be applied.
    #[test]
    fn lossy_shortcut_not_applied() {
        let bn = fixtures::figure1();
        let mut tree = build_junction_tree(&bn).unwrap();
        let d = bn.domain().clone();
        let bc = Scope::from_iter([d.var("b").unwrap(), d.var("c").unwrap()]);
        let pivot = tree.cliques().iter().position(|c| *c == bc).unwrap();
        tree.set_pivot(pivot);
        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let rooted = RootedTree::new(&tree);
        let mut ns = NumericState::initialize(&tree, &bn).unwrap();
        ns.calibrate(&tree, &rooted).unwrap();

        // shortcut over {ce, ef, egh}: scope {c, e, g} — loses f
        let names: Vec<usize> = ["ce", "ef", "egh"]
            .iter()
            .map(|n| {
                let sc = Scope::from_iter(n.chars().map(|ch| d.var(&ch.to_string()).unwrap()));
                tree.cliques().iter().position(|c| *c == sc).unwrap()
            })
            .collect();
        let s = Shortcut::from_nodes(&tree, &rooted, names).unwrap();
        let (pot, _) = s.materialize(&tree, &rooted, &ns).unwrap();
        let mat = Materialization {
            shortcuts: vec![MaterializedShortcut {
                ratio: 1.0,
                benefit: 1.0,
                potential: Some(pot),
                shortcut: s,
            }],
            overlapping: false,
            epoch: 0,
        };
        let online = OnlineEngine::new(&engine, &mat);
        let q = Scope::from_iter([
            d.var("b").unwrap(),
            d.var("i").unwrap(),
            d.var("f").unwrap(),
        ]);
        let (got, cost) = online.answer(&q).unwrap();
        let want = joint::marginal(&bn, &q).unwrap();
        assert!(got.max_abs_diff(&want).unwrap() < 1e-9);
        assert_eq!(cost.shortcuts_used, 0, "lossy shortcut must be skipped");
    }

    /// Empty materialization behaves exactly like the plain engine.
    #[test]
    fn empty_materialization_is_plain_jt() {
        let bn = fixtures::asia();
        let tree = build_junction_tree(&bn).unwrap();
        let engine = QueryEngine::symbolic(&tree);
        let mat = Materialization::default();
        let online = OnlineEngine::new(&engine, &mat);
        for pair in [[0u32, 7], [1, 6], [2, 4]] {
            let q = Scope::from_indices(&pair);
            assert_eq!(online.cost(&q).unwrap().ops, engine.cost(&q).unwrap().ops);
        }
        let _ = OfflineContext::new(
            &tree,
            &Workload::from_queries([Scope::from_indices(&[0, 7])]),
        )
        .unwrap();
    }
}
