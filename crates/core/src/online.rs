//! The online component (§4.5–4.6), shared by every materialization-based
//! method (PEANUT, PEANUT+, INDSEP): given a query, detect the useful
//! materialized shortcut potentials, shrink the Steiner tree with them, and
//! run (or cost) message passing on the reduced tree.
//!
//! Every entry point — `answer*`, `conditional*`,
//! [`reduce`](OnlineEngine::reduce), [`cost`](OnlineEngine::cost) — goes
//! through one private planning routine, `planned`: it extracts the Steiner
//! tree once (the only call of `QueryEngine::plan`), answers "in clique
//! `u`" or plans the tree as a [`ReducedTree`] of borrowed clique and
//! separator tables, and prices each candidate shortcut on a replacement
//! built from `&rt` that borrows the shortcut's scope and table — a
//! rejected candidate costs a few index vectors, an accepted one becomes
//! the plan. The unreduced plan is priced once, when there is a candidate
//! to compare it with; that count is also the plain-tree baseline a traced
//! answer reports, so tracing costs no pass of its own.
//!
//! A plan is a view over the arena and the materialization; nothing is
//! copied until a kernel writes, and it cannot outlive either
//! (`ReducedTree<'e>`). The engine holds no accumulator: what was answered
//! is observed by the serve pipeline, not here.

use crate::context::{delta, query_info_of};
use crate::gwmin::gwmin;
use crate::shortcut::Shortcut;
use peanut_junction::cost::QueryCost;
use peanut_junction::tree::CliqueId;
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

/// What [`OnlineEngine::planned`] hands every entry point.
enum Planned<'e> {
    /// Every query variable lies in this clique: one marginalization.
    InClique(CliqueId),
    /// The plan, shortcut-reduced where that pays, and the operation count
    /// of the *unreduced* plan when shortcuts were priced against it. With
    /// `None` nothing was priced and the plan's own cost is the baseline.
    Tree(ReducedTree<'e>, Option<Size>),
}

/// Query processor that exploits a [`Materialization`].
pub struct OnlineEngine<'e, 't> {
    engine: &'e QueryEngine<'t>,
    mat: &'e Materialization,
}

impl<'e, 't> OnlineEngine<'e, 't> {
    /// Wraps a query engine (symbolic or numeric) with a materialization.
    pub fn new(engine: &'e QueryEngine<'t>, mat: &'e Materialization) -> Self {
        OnlineEngine { engine, mat }
    }

    /// The one planning routine (§4.5–4.6): one Steiner-tree extraction,
    /// then the applicable shortcuts substituted in decreasing ratio order,
    /// keeping only those that strictly reduce the operation count.
    fn planned(&self, query: &Scope) -> Result<Planned<'e>, PgmError> {
        let (engine, mat) = (self.engine, self.mat);
        let (tree, rooted, domain) = (engine.tree(), engine.rooted(), engine.tree().domain());
        let st = match engine.plan(query)? {
            QueryPlan::InClique(u) => return Ok(Planned::InClique(u)),
            QueryPlan::OutOfClique(st) => st,
        };
        let mut rt = ReducedTree::from_steiner(tree, rooted, &st, engine.numeric_state());
        let order = self.applicable(query, &st);
        let unreduced = (!order.is_empty()).then(|| rt.cost(query, domain).ops);
        let mut cost = unreduced.unwrap_or(0);
        for i in order {
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
        Ok(Planned::Tree(rt, unreduced))
    }

    /// Builds the shortcut-reduced plan for an out-of-clique query — a view
    /// over the engine's tables and the materialization's; `None` for
    /// in-clique queries.
    pub fn reduce(&self, query: &Scope) -> Result<Option<ReducedTree<'e>>, PgmError> {
        Ok(match self.planned(query)? {
            Planned::InClique(_) => None,
            Planned::Tree(rt, _) => Some(rt),
        })
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
        let tree = self.engine.tree();
        Ok(match self.planned(query)? {
            Planned::InClique(u) => QueryCost::in_clique(tree.clique(u), tree.domain()),
            Planned::Tree(rt, _) => rt.cost(query, tree.domain()),
        })
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
        let t = self.answer_traced_in(query, scratch)?;
        Ok((t.potential, t.cost))
    }

    /// Numeric answer together with the plain-JT baseline cost of the same
    /// query: the unreduced plan's count where shortcuts were priced
    /// against it, the answer's own charged cost otherwise (the two are
    /// equal on a plan nothing was substituted into).
    pub fn answer_traced_in(
        &self,
        query: &Scope,
        scratch: &mut Scratch,
    ) -> Result<TracedAnswer, PgmError> {
        let tree = self.engine.tree();
        let ((potential, cost), unreduced) = match self.planned(query)? {
            Planned::InClique(u) => {
                let ns = self.engine.numeric_state();
                let table = ns.ok_or(PgmError::SymbolicEngine)?.clique_table(u);
                let cost = QueryCost::in_clique(tree.clique(u), tree.domain());
                ((table.marginalize_in(query, scratch)?, cost), None)
            }
            Planned::Tree(rt, unreduced) => {
                (rt.answer_in(query, tree.domain(), scratch)?, unreduced)
            }
        };
        Ok(TracedAnswer {
            potential,
            cost,
            baseline_ops: unreduced.unwrap_or(cost.ops),
        })
    }

    /// Conditional distribution `P(targets | evidence)` answered through the
    /// materialization (§3.1 joint→conditional reduction).
    pub fn conditional(
        &self,
        targets: &Scope,
        evidence: &[(peanut_pgm::Var, u32)],
    ) -> Result<(Potential, QueryCost), PgmError> {
        let t = self.conditional_traced_in(targets, evidence, &mut Scratch::new())?;
        Ok((t.potential, t.cost))
    }

    /// [`conditional`](Self::conditional) with caller-provided kernel
    /// scratch, traced with the plain-JT baseline of the underlying joint
    /// query (the scope the workload model and the drift detector reason
    /// about).
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
    use peanut_junction::build_junction_tree;
    use peanut_pgm::{fixtures, joint, BayesianNetwork};

    /// The Figure-1 network and a numeric engine on its tree — the path
    /// abd–bc–ce–ef–egh–gil — pivoted at `{b,c}` (leaked: tests only).
    fn figure1() -> (BayesianNetwork, QueryEngine<'static>) {
        let bn = fixtures::figure1();
        let mut tree = build_junction_tree(&bn).unwrap();
        let bc = named(&bn, "bc");
        let pivot = tree.cliques().iter().position(|c| *c == bc).unwrap();
        tree.set_pivot(pivot);
        let engine = QueryEngine::numeric(Box::leak(Box::new(tree)), &bn).unwrap();
        (bn, engine)
    }

    /// The scope of one-letter variable names, e.g. `"egh"`.
    fn named(bn: &BayesianNetwork, names: &str) -> Scope {
        let var = |c: char| bn.domain().var(&c.to_string()).unwrap();
        Scope::from_iter(names.chars().map(var))
    }

    /// Hand-materializes the shortcut over the named cliques.
    fn materialized(
        bn: &BayesianNetwork,
        engine: &QueryEngine<'_>,
        cliques: &[&str],
        benefit: f64,
    ) -> MaterializedShortcut {
        let (tree, rooted) = (engine.tree(), engine.rooted());
        let id = |n: &&str| tree.cliques().iter().position(|c| *c == named(bn, n));
        let nodes = cliques.iter().map(|n| id(n).unwrap()).collect();
        let s = Shortcut::from_nodes(tree, rooted, nodes).unwrap();
        let (pot, _) = s
            .materialize(tree, rooted, engine.numeric_state().unwrap())
            .unwrap();
        MaterializedShortcut {
            ratio: benefit / s.size() as f64,
            benefit,
            potential: Some(pot),
            shortcut: s,
        }
    }

    /// Hand-materialize one shortcut on the Figure-1 tree and check the
    /// online engine uses it correctly.
    #[test]
    fn online_engine_applies_useful_shortcut() {
        let (bn, engine) = figure1();
        let mat = Materialization {
            // scope {e, g}
            shortcuts: vec![materialized(&bn, &engine, &["egh"], 1.0)],
            overlapping: false,
            epoch: 0,
        };
        let online = OnlineEngine::new(&engine, &mat);

        let q = named(&bn, "bif");
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
        let (bn, engine) = figure1();
        let mat = Materialization {
            // scope {c, e, g} — loses f
            shortcuts: vec![materialized(&bn, &engine, &["ce", "ef", "egh"], 1.0)],
            overlapping: false,
            epoch: 0,
        };
        let online = OnlineEngine::new(&engine, &mat);
        let q = named(&bn, "bif");
        let (got, cost) = online.answer(&q).unwrap();
        let want = joint::marginal(&bn, &q).unwrap();
        assert!(got.max_abs_diff(&want).unwrap() < 1e-9);
        assert_eq!(cost.shortcuts_used, 0, "lossy shortcut must be skipped");
    }

    /// Every door runs the same plan: on each 1–3-variable scope of the
    /// Figure-1 tree, under three hand-built shortcuts that overlap
    /// pairwise, the traced baseline is the plain tree's cost and
    /// `answer_in`, `answer_traced_in` and `reduce` + `ReducedTree::answer_in`
    /// agree to the bit and in cost.
    #[test]
    fn every_entry_point_runs_the_same_plan() {
        let (bn, engine) = figure1();
        let d = bn.domain();
        // {egh} ⊂ {ef, egh} share egh; {ef, egh} and {ce, ef} share ef
        let mat = Materialization {
            shortcuts: vec![
                materialized(&bn, &engine, &["egh"], 2.0),
                materialized(&bn, &engine, &["ef", "egh"], 3.0),
                materialized(&bn, &engine, &["ce", "ef"], 1.0),
            ],
            overlapping: true,
            epoch: 0,
        };
        let online = OnlineEngine::new(&engine, &mat);

        let n = d.len() as u32;
        let mut scratch = Scratch::new();
        let (mut in_clique, mut shortcut_hits) = (0, 0);
        for a in 0..n {
            for b in a..n {
                for c in b..n {
                    let q = Scope::from_indices(&[a, b, c]); // dedups to 1–3 vars
                    let (plain, cost) = online.answer_in(&q, &mut scratch).unwrap();
                    let traced = online.answer_traced_in(&q, &mut scratch).unwrap();
                    assert_eq!(
                        traced.baseline_ops,
                        online.baseline_cost(&q).unwrap().ops,
                        "baseline of {q}"
                    );
                    assert_eq!(traced.cost, cost, "cost of {q}");
                    assert_eq!(online.cost(&q).unwrap(), cost, "symbolic cost of {q}");
                    let bits = |p: &Potential| -> Vec<u64> {
                        p.values().iter().map(|v| v.to_bits()).collect()
                    };
                    assert_eq!(bits(&traced.potential), bits(&plain), "traced {q}");
                    match online.reduce(&q).unwrap() {
                        None => {
                            in_clique += 1;
                            assert_eq!((cost.messages, cost.shortcuts_used), (0, 0));
                        }
                        Some(rt) => {
                            let (p, c) = rt.answer_in(&q, d, &mut scratch).unwrap();
                            assert_eq!(c, cost, "reduced cost of {q}");
                            assert_eq!(bits(&p), bits(&plain), "reduced {q}");
                        }
                    }
                    shortcut_hits += usize::from(cost.shortcuts_used > 0);
                    let want = joint::marginal(&bn, &q).unwrap();
                    assert!(plain.max_abs_diff(&want).unwrap() < 1e-9, "answer of {q}");
                }
            }
        }
        assert!(in_clique > 0 && shortcut_hits > 0, "test premise");
    }

    /// Evidence listed twice is one pin — through a shortcut-reduced plan
    /// too — and two values for one variable leave an all-zero answer.
    #[test]
    fn repeated_evidence_answers_like_the_single_pair() {
        let (bn, engine) = figure1();
        let mat = Materialization {
            shortcuts: vec![materialized(&bn, &engine, &["egh"], 1.0)],
            overlapping: false,
            epoch: 0,
        };
        let online = OnlineEngine::new(&engine, &mat);
        let (targets, i) = (named(&bn, "bf"), bn.domain().var("i").unwrap());
        let (once, cost) = online.conditional(&targets, &[(i, 1)]).unwrap();
        let (twice, cost_twice) = online.conditional(&targets, &[(i, 1), (i, 1)]).unwrap();
        assert_eq!(cost.shortcuts_used, 1, "test premise");
        assert_eq!(cost, cost_twice);
        assert_eq!(once.scope(), twice.scope());
        let bits = |p: &Potential| p.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&once), bits(&twice));
        let (none, _) = online.conditional(&targets, &[(i, 0), (i, 1)]).unwrap();
        assert!(none.values().iter().all(|&v| v == 0.0));
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
