//! The online component (§4.5–4.6), shared by every materialization-based
//! method (PEANUT, PEANUT+, INDSEP): given a query, detect the useful
//! materialized shortcut potentials, shrink the Steiner tree with them, and
//! run (or cost) message passing on the reduced tree.
//!
//! Every entry point — `answer*`, `conditional*`,
//! [`reduce`](OnlineEngine::reduce), [`cost`](OnlineEngine::cost) — that
//! plans goes through one private planning routine, `planned`: it extracts
//! the Steiner tree once, answers "in clique `u`" or plans the tree as a
//! [`ReducedTree`] of borrowed clique and separator tables, and builds at
//! most one more tree, the one that runs. The answer doors (`answer*`,
//! and `conditional*` through the joint they answer) first ask the
//! materialization's **plan memo** (`plans`): a scope answered before runs
//! the plan filed then — hung from its cheapest root, with the count and
//! baseline it reported — rebuilt over the same tables, so it skips
//! `planned`, the count toward `r_q` and the re-hang; a scope not held is
//! planned, hung, run and filed. `reduce` and `cost` always plan afresh,
//! the reference the memo is tested against. An answer takes and files
//! messages of plain subtrees in the memo of the engine's calibrated
//! tables, which outlives every epoch — a branch sending into a shortcut
//! included, whose message is the one a plain plan sends into the
//! shortcut's region, so a contracted plan and the plain tree share it.
//! A contracted plan carries the materialization's own memo too, and
//! takes and files there every message whose subtree holds a shortcut:
//! those are made of the epoch's shortcut tables, so they live and die
//! with the epoch ([`Materialization`]; `peanut_junction::reduced`, "The
//! message memo").
//! The unreduced plan is always priced, node by node, once
//! ([`ReducedTree::anatomy`]); its count is the plain-tree baseline a
//! traced answer reports, so tracing costs no pass of its own. Usefulness
//! is word operations between the shortcut's bitsets and the query's
//! [`SteinerCover`], and a useful shortcut is priced *in place* on that
//! anatomy — a substitution changes what its own region is charged and
//! nothing else (`substituted`) — so a rejected candidate costs no
//! allocation. The price is local: a shortcut lowers the exact count iff
//! its node is charged less than the region it removes, whatever else was
//! accepted, and only one that lowers it is accepted. So the useful
//! shortcuts are priced until one pays, and when none does the plan is the
//! unreduced one: GWMIN, the ratio sort and the contraction are skipped,
//! and the same anatomy goes on to the cheapest-root walk and the pass —
//! one anatomy an answer. Otherwise GWMIN
//! thins the useful shortcuts over the materialization's conflict rows
//! (laid out once per materialization, the useful set GWMIN's live
//! vertices), the survivors are accepted in decreasing ratio order while
//! they pay, and the accepted ones are contracted together
//! ([`ReducedTree::contract`]) into a plan that prices itself once more.
//! A re-hang from the cheapest root recounts the anatomy's held counts on
//! the path it turns around, in place, and a memo hit runs on the shape
//! it was filed as: no anatomy.
//!
//! A plan is a view over the arena and the materialization; nothing is
//! copied until a kernel writes, and it cannot outlive either
//! (`ReducedTree<'e>`). The engine holds no accumulator: what was answered
//! is observed by the serve pipeline, not here.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use crate::context::SteinerCover;
use crate::gwmin::{gwmin_rows, ConflictRows};
use crate::plans::{FiledPlan, PlanMemo};
use crate::shortcut::Shortcut;
use crate::util::BitSet;
use peanut_junction::cost::{node_ops_of_size, QueryCost};
use peanut_junction::tree::CliqueId;
use peanut_junction::{
    MessageMemo, NodeLabel, PassRows, PlanShape, QueryAnatomy, QueryEngine, QueryPlan, ReducedTree,
    SteinerTree,
};
use peanut_pgm::{Domain, MemoUsage, PgmError, Potential, Scope, Scratch, Size, Work};
use std::sync::OnceLock;

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
/// potentials, and two memos of what answering over them computed.
///
/// * The **message memo** keeps every message a contracted plan sends from
///   a subtree that holds a shortcut node (`peanut_junction::reduced`, "The
///   message memo"), keyed by the cliques and the shortcuts' positions
///   here. So it must be read only by plans over the tables its shortcuts
///   were built from — the calibrated tables and these shortcut tables — or
///   a bit-identical copy (a clone, a slab reattached, a rehydrated epoch).
/// * The **plan memo** keeps, per exact query scope, the plan the answer
///   doors ran, hung from its cheapest root, with the count and baseline it
///   reports (`plans` module docs); a repeat runs it without planning.
///   [`reduce`](OnlineEngine::reduce) and [`cost`](OnlineEngine::cost)
///   always plan afresh.
///
/// Both live and die with this value: [`new`](Self::new), [`Default`] and
/// a clone start empty, so a published epoch and a faulted-in one start
/// empty, and a retired or paged-out one drops them. A caller that edits
/// `shortcuts` after answering builds a new `Materialization` rather than
/// reusing this one; a filed plan naming a shortcut no longer held is
/// planned afresh, never indexed.
///
/// The shortcuts' conflict graph, GWMIN's bit rows, is laid out once, by
/// the first plan that thins shortcuts, and kept with each row's node set:
/// a plan whose useful shortcuts do not all match theirs lays out its own.
#[derive(Clone, Debug, Default)]
pub struct Materialization {
    /// Materialized shortcuts, in decreasing ratio order.
    pub shortcuts: Vec<MaterializedShortcut>,
    /// Whether the method that selected the shortcuts lets them share
    /// cliques (PEANUT+ / INDSEP). Metadata — stored, reported, carried
    /// across epochs: the online phase lays out the conflict graph from
    /// the shortcuts themselves, so a wrong value here cannot make it
    /// substitute two shortcuts over one clique.
    pub overlapping: bool,
    /// Lifecycle version of this artifact. A freshly selected
    /// materialization is epoch 0; a serving stack that hot-swaps
    /// materializations stamps each published artifact with the next epoch
    /// so downstream caches can tell stale answers from current ones.
    pub epoch: u64,
    /// Messages of subtrees holding a shortcut (type docs).
    memo: MessageMemo,
    /// The plans the answer doors ran, by query scope (type docs).
    plans: PlanMemo,
    /// The shortcuts' conflict graph (type docs).
    conflicts: OnceLock<Conflicts>,
}

impl Materialization {
    /// Materializes `shortcuts` (decreasing ratio order) as epoch 0, with
    /// empty memos.
    pub fn new(shortcuts: Vec<MaterializedShortcut>, overlapping: bool) -> Self {
        Materialization {
            shortcuts,
            overlapping,
            epoch: 0,
            memo: MessageMemo::new(),
            plans: PlanMemo::new(),
            conflicts: OnceLock::new(),
        }
    }

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

    /// What the message memo holds: messages, their table entries against
    /// its cap, and the messages passes took.
    pub fn memo_usage(&self) -> MemoUsage {
        self.memo.usage()
    }

    /// What the plan memo holds: plans, their bytes against its cap, and
    /// the answers that ran a filed plan instead of planning.
    pub fn plan_usage(&self) -> MemoUsage {
        self.plans.usage()
    }

    /// The shortcuts' conflict graph, if it fits the `useful` shortcuts as
    /// they are now; else `None`, and the caller lays out its own.
    fn conflicts(&self, useful: &[usize]) -> Option<&Conflicts> {
        let conflicts = self
            .conflicts
            .get_or_init(|| Conflicts::new(&self.shortcuts));
        let fits = |&i: &usize| {
            let now = self.shortcuts[i].shortcut.node_set();
            conflicts.sets.get(i) == Some(now)
        };
        useful.iter().all(fits).then_some(conflicts)
    }
}

/// Which shortcuts share a clique ([`Shortcut::overlaps`]), as GWMIN's bit
/// rows, with the node sets they were laid out from: a row counts only
/// for a shortcut whose node set is still the one it was built from, so a
/// `shortcuts` vector edited after answering never puts a stale edge into
/// a plan.
#[derive(Clone, Debug)]
struct Conflicts {
    rows: ConflictRows,
    sets: Vec<BitSet>,
}

impl Conflicts {
    fn new(shortcuts: &[MaterializedShortcut]) -> Self {
        let overlap = |i: usize, j: usize| shortcuts[i].shortcut.overlaps(&shortcuts[j].shortcut);
        Conflicts {
            rows: ConflictRows::new(shortcuts.len(), overlap),
            sets: shortcuts
                .iter()
                .map(|ms| ms.shortcut.node_set().clone())
                .collect(),
        }
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
    /// Cost actually charged, shortcuts included: the paper's count.
    pub cost: QueryCost,
    /// Operation count of the same query on the plain junction tree.
    pub baseline_ops: Size,
    /// What the answer's own pass executed: messages computed and taken,
    /// product entries walked, whether its plan came from the plan memo
    /// (and, for a session's answer by elimination, the factor-memo steps
    /// it took). Unlike `cost`, it moves with what the memos hold.
    pub work: Work,
}

/// What [`OnlineEngine::planned`] hands every entry point that plans.
enum Planned<'e> {
    /// Every query variable lies in this clique: one marginalization.
    InClique(CliqueId),
    /// The plan, shortcut-reduced where that pays, its anatomy toward
    /// `r_q`, the unreduced plan's count (the plain-tree baseline), and the
    /// anatomies planning built: 1, or 2 for a reduced plan.
    Tree {
        plan: ReducedTree<'e>,
        anatomy: QueryAnatomy,
        baseline_ops: Size,
        anatomies: u64,
    },
}

/// What an answer door runs.
enum Runnable<'e> {
    /// Every query variable lies in this clique: one marginalization.
    InClique(CliqueId),
    /// The plan hung from its cheapest root, what its pass reads of that
    /// rooting, the count toward `r_q` it reports, and the plain-tree
    /// baseline.
    Tree {
        plan: ReducedTree<'e>,
        rows: Rows,
        cost: QueryCost,
        baseline_ops: Size,
    },
}

/// What a runnable plan's pass reads ([`PassRows`]).
enum Rows {
    /// The anatomy planning built, hung with the plan, and the anatomies
    /// planning built.
    Fresh(QueryAnatomy, u64),
    /// The shape the plan was filed as.
    Filed(PlanShape),
}

impl Runnable<'_> {
    /// What the plan memo keeps of it; `None` for a plan whose shape
    /// cannot name its held variables (`ReducedTree::shape`).
    fn filed(&self, query: &Scope) -> Option<FiledPlan> {
        Some(match self {
            Runnable::InClique(u) => FiledPlan::InClique(*u),
            Runnable::Tree {
                plan,
                rows,
                cost,
                baseline_ops,
            } => FiledPlan::Tree {
                shape: match rows {
                    Rows::Fresh(anatomy, _) => plan.shape(anatomy, query)?,
                    Rows::Filed(shape) => shape.clone(),
                },
                cost: *cost,
                baseline_ops: *baseline_ops,
            },
        })
    }
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
    /// the unreduced plan and its anatomy, the useful shortcuts priced in
    /// place on it, then the shortcuts GWMIN keeps substituted in
    /// decreasing ratio order, keeping only those that strictly reduce the
    /// operation count. Sums are exact (`u128`) and compared as charged —
    /// saturated to [`Size`] — so a plan whose count saturates is weighed
    /// as a full pass over each candidate tree would weigh it.
    ///
    /// A price is local: a shortcut lowers the exact count iff its node is
    /// charged less than the region it removes, whatever else was accepted
    /// (`substituted`), and one that does not lower it is never accepted,
    /// saturated or not. So the useful shortcuts are priced until one pays;
    /// when none does, no survivor of GWMIN would, and the plan is the
    /// unreduced one — GWMIN, the sort and the contraction are skipped, and
    /// its one anatomy goes on to the hang and the pass. Once one pays, the
    /// loop runs over GWMIN's picks, pricing those not priced yet.
    fn planned(&self, query: &Scope) -> Result<Planned<'e>, PgmError> {
        let (engine, mat) = (self.engine, self.mat);
        let domain = engine.tree().domain();
        let st = match engine.plan(query)? {
            QueryPlan::InClique(u) => return Ok(Planned::InClique(u)),
            QueryPlan::OutOfClique(st) => st,
        };
        let ns = engine.numeric_state();
        let rt = ReducedTree::from_steiner(engine.tree(), engine.rooted(), &st, ns);
        let anatomy = rt.anatomy(query, domain);
        let unreduced: u128 = (0..rt.len()).map(|u| u128::from(anatomy.charge(u))).sum();
        let baseline_ops = saturated(unreduced);
        // each useful shortcut's count, substituted alone: priced until one
        // pays, the rest when GWMIN keeps them
        let useful = self.useful(query, &st);
        let price = |i: usize| {
            let s = &mat.shortcuts[i].shortcut;
            substituted(&rt, query, domain, &anatomy, unreduced, s)
        };
        let mut prices: Vec<Option<Option<u128>>> = vec![None; useful.len()];
        let mut pays = false;
        for (at, &i) in useful.iter().enumerate() {
            let priced = price(i);
            prices[at] = Some(priced);
            if priced.is_some_and(|priced| priced < unreduced) {
                pays = true;
                break;
            }
        }
        let (mut cost, mut region_of, mut accepted) = (unreduced, Vec::new(), Vec::new());
        // no survivor of GWMIN pays when no useful shortcut does
        if pays {
            region_of.resize(rt.len(), None);
            for i in self.thinned(&useful) {
                let ms = &mat.shortcuts[i];
                // `useful` is ascending, and GWMIN picks from it
                let priced = useful.binary_search(&i).ok().and_then(|at| prices[at]);
                let Some(price) = priced.unwrap_or_else(|| price(i)) else {
                    continue;
                };
                // the regions GWMIN keeps share no clique: the price moves by
                // what this one saves on the unreduced plan
                let new_cost = cost + price - unreduced;
                if saturated(new_cost) < saturated(cost) {
                    for k in (0..rt.len()).filter(|&k| in_region(&rt, &ms.shortcut, k)) {
                        region_of[k] = Some(accepted.len());
                    }
                    let table = ms.potential.as_ref().map(Potential::view);
                    accepted.push((ms.shortcut.scope(), table, i));
                    cost = new_cost;
                }
            }
        }
        if accepted.is_empty() {
            return Ok(Planned::Tree {
                plan: rt,
                anatomy,
                baseline_ops,
                anatomies: 1,
            });
        }
        let rt = rt
            .contract(&region_of, &accepted)?
            .with_shortcut_memo(&mat.memo);
        let anatomy = rt.anatomy(query, domain);
        debug_assert_eq!(anatomy.cost().ops, saturated(cost), "price of {query}");
        Ok(Planned::Tree {
            plan: rt,
            anatomy,
            baseline_ops,
            anatomies: 2,
        })
    }

    /// Builds the shortcut-reduced plan for an out-of-clique query — a view
    /// over the engine's tables and the materialization's; `None` for
    /// in-clique queries.
    pub fn reduce(&self, query: &Scope) -> Result<Option<ReducedTree<'e>>, PgmError> {
        Ok(match self.planned(query)? {
            Planned::InClique(_) => None,
            Planned::Tree { plan, .. } => Some(plan),
        })
    }

    /// The shortcuts useful (Def. 3.1) to a query with Steiner tree `st`,
    /// ascending.
    fn useful(&self, query: &Scope, st: &SteinerTree) -> Vec<usize> {
        let shortcuts = &self.mat.shortcuts;
        if shortcuts.is_empty() {
            return Vec::new();
        }
        let cover = SteinerCover::new(self.engine.tree(), query, st);
        let mut useful = Vec::with_capacity(shortcuts.len());
        useful
            .extend((0..shortcuts.len()).filter(|&i| cover.useful(&shortcuts[i].shortcut, query)));
        useful
    }

    /// The `useful` shortcuts worth trying, in decreasing ratio order:
    /// thinned by GWMIN to a set no two of which share a clique. GWMIN runs
    /// on the materialization's conflict rows, `useful` its live vertices;
    /// the conflicts come from the shortcuts' own clique sets, whatever the
    /// materialization says about overlap, and without an edge GWMIN keeps
    /// every vertex.
    fn thinned(&self, useful: &[usize]) -> Vec<usize> {
        let shortcuts = &self.mat.shortcuts;
        if useful.is_empty() {
            return Vec::new();
        }
        let laid_out;
        let conflicts = match self.mat.conflicts(useful) {
            Some(conflicts) => conflicts,
            None => {
                laid_out = Conflicts::new(shortcuts);
                &laid_out
            }
        };
        // the live set: on the stack up to 256 shortcuts
        let (mut words, mut wide) = ([0u64; 4], Vec::new());
        let stride = conflicts.rows.stride();
        let alive = match words.get_mut(..stride) {
            Some(alive) => alive,
            None => {
                wide.resize(stride, 0);
                &mut wide[..]
            }
        };
        for &i in useful {
            alive[i / 64] |= 1 << (i % 64);
        }
        let mut order = gwmin_rows(|i| shortcuts[i].ratio, &conflicts.rows, alive);
        order.sort_by(|&a, &b| {
            shortcuts[b]
                .ratio
                .total_cmp(&shortcuts[a].ratio)
                .then(a.cmp(&b))
        });
        order
    }

    /// The shortcuts worth trying on a query with Steiner tree `st`: the
    /// useful ones, thinned (`thinned`).
    #[cfg(test)]
    fn applicable(&self, query: &Scope, st: &SteinerTree) -> Vec<usize> {
        self.thinned(&self.useful(query, st))
    }

    /// Operation count for answering `query` with the materialization.
    pub fn cost(&self, query: &Scope) -> Result<QueryCost, PgmError> {
        let tree = self.engine.tree();
        Ok(match self.planned(query)? {
            Planned::InClique(u) => QueryCost::in_clique(tree.clique(u), tree.domain()),
            Planned::Tree { anatomy, .. } => anatomy.cost(),
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
    ///
    /// The plan comes from the materialization's plan memo when it holds
    /// one for this exact scope; otherwise it is planned, hung from its
    /// cheapest root, run, and — once the answer succeeded — filed. The
    /// answer's [`work`](TracedAnswer::work) says which, with what its
    /// pass executed; an answer inside one clique computes one message,
    /// walking the clique's table.
    pub fn answer_traced_in(
        &self,
        query: &Scope,
        scratch: &mut Scratch,
    ) -> Result<TracedAnswer, PgmError> {
        let tree = self.engine.tree();
        let (run, taken) = match self.mat.plans.recall(query, |plan| self.rebuilt(plan)) {
            Some(run) => (run, true),
            None => (self.runnable(query)?, false),
        };
        let (potential, cost, baseline_ops, mut work) = match &run {
            Runnable::InClique(u) => {
                let ns = self.engine.numeric_state();
                let table = ns.ok_or(PgmError::SymbolicEngine)?.clique_table(*u);
                let cost = QueryCost::in_clique(tree.clique(*u), tree.domain());
                let work = Work {
                    messages_computed: 1,
                    entries_walked: table.len() as Size,
                    ..Work::default()
                };
                (table.marginalize_in(query, scratch)?, cost, cost.ops, work)
            }
            Runnable::Tree {
                plan,
                rows,
                cost,
                baseline_ops,
            } => {
                let domain = tree.domain();
                let (potential, work) = match rows {
                    Rows::Fresh(anatomy, anatomies) => {
                        let (potential, work) = plan.run_in(query, anatomy, domain, scratch)?;
                        (
                            potential,
                            Work {
                                anatomies_walked: *anatomies,
                                ..work
                            },
                        )
                    }
                    Rows::Filed(shape) => plan.run_in(query, shape, domain, scratch)?,
                };
                (potential, *cost, *baseline_ops, work)
            }
        };
        if !taken {
            if let Some(filed) = run.filed(query) {
                self.mat.plans.file(query, filed);
            }
        }
        work.plan_taken = taken;
        Ok(TracedAnswer {
            potential,
            cost,
            baseline_ops,
            work,
        })
    }

    /// The plan for `query`, planned now and hung from its cheapest root
    /// (`ReducedTree::hung_cheapest`) with the anatomy planning built, with
    /// the count toward `r_q` and the baseline it reports.
    fn runnable(&self, query: &Scope) -> Result<Runnable<'e>, PgmError> {
        Ok(match self.planned(query)? {
            Planned::InClique(u) => Runnable::InClique(u),
            Planned::Tree {
                plan,
                anatomy,
                baseline_ops,
                anatomies,
            } => {
                let domain = self.engine.tree().domain();
                let (plan, anatomy, cost) = plan.hung_cheapest(anatomy, query, domain);
                let rows = Rows::Fresh(anatomy, anatomies);
                Runnable::Tree {
                    plan,
                    rows,
                    cost,
                    baseline_ops,
                }
            }
        })
    }

    /// A filed plan rebuilt over the engine's and the materialization's
    /// tables, with the shape its pass reads; `None` when it does not fit
    /// them — a clique the tree lacks, or a shortcut no longer held — and
    /// the scope is planned afresh.
    fn rebuilt(&self, plan: &FiledPlan) -> Option<Runnable<'e>> {
        let (engine, mat) = (self.engine, self.mat);
        let tree = engine.tree();
        match plan {
            FiledPlan::InClique(u) => (*u < tree.n_cliques()).then_some(Runnable::InClique(*u)),
            FiledPlan::Tree {
                shape,
                cost,
                baseline_ops,
            } => {
                let lent = |i: usize| {
                    let ms = mat.shortcuts.get(i)?;
                    Some((
                        ms.shortcut.scope(),
                        ms.potential.as_ref().map(Potential::view),
                    ))
                };
                let ns = engine.numeric_state();
                let rt = ReducedTree::from_shape(tree, engine.rooted(), shape, ns, lent)?;
                let rt = if rt.shortcuts_used() > 0 {
                    rt.with_shortcut_memo(&mat.memo)
                } else {
                    rt
                };
                Some(Runnable::Tree {
                    plan: rt,
                    rows: Rows::Filed(shape.clone()),
                    cost: *cost,
                    baseline_ops: *baseline_ops,
                })
            }
        }
    }

    /// Conditional distribution `P(targets | evidence)` answered through the
    /// materialization (§3.1 joint→conditional reduction); evidence of
    /// probability zero fails with [`PgmError::ImpossibleEvidence`].
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
        let (mut baseline_ops, mut work) = (0, Work::default());
        let (potential, cost) =
            peanut_junction::query::conditional_from_joint(targets, evidence, scratch, |q, s| {
                let t = self.answer_traced_in(q, s)?;
                (baseline_ops, work) = (t.baseline_ops, t.work);
                Ok((t.potential, t.cost))
            })?;
        Ok(TracedAnswer {
            potential,
            cost,
            baseline_ops,
            work,
        })
    }

    /// Cost of answering with the *plain* junction tree (for savings
    /// percentages).
    pub fn baseline_cost(&self, query: &Scope) -> Result<QueryCost, PgmError> {
        self.engine.cost(query)
    }
}

/// What a plan whose nodes' charges sum to `exact` is charged: the
/// saturating sum [`ReducedTree::cost`] reports.
fn saturated(exact: u128) -> Size {
    Size::try_from(exact).unwrap_or(Size::MAX)
}

/// True when node `k` of `rt` is a clique of `s`.
fn in_region(rt: &ReducedTree<'_>, s: &Shortcut, k: usize) -> bool {
    matches!(rt.node(k).label, NodeLabel::Clique(u) if s.node_set().contains(u))
}

/// The exact operation count of the plan that charges `cost` once the
/// cliques of `s` are contracted into its shortcut node, priced on the
/// unreduced plan `rt` — whose nodes are its Steiner tree's cliques in
/// ascending id order — and its [`anatomy`](ReducedTree::anatomy); `None`
/// when `s` covers no node of `rt` or all of them. The region's nodes are
/// found from the shortcut's cliques, each by a search of `rt`'s.
///
/// Locality: by running intersection and condition 3 of usefulness a query
/// variable held in a region clique is in `X_S`, and one in `X_S` is held in
/// a region clique (its shallowest clique lies in `V(S)` or above `r_S`,
/// which then holds it too) — so the shortcut node carries exactly what the
/// region's top carried, and no flag and no child count outside the region
/// moves. GWMIN's survivors share no clique, so this stays true of the
/// regions still to be priced after others were accepted: the new count is
/// `cost − Σ ops[region] + ops(shortcut node)`.
fn substituted(
    rt: &ReducedTree<'_>,
    query: &Scope,
    domain: &Domain,
    anatomy: &QueryAnatomy,
    cost: u128,
    s: &Shortcut,
) -> Option<u128> {
    let clique = |node: &peanut_junction::reduced::RNode<'_>| match node.label {
        NodeLabel::Clique(u) => u,
        NodeLabel::Shortcut(_) => usize::MAX,
    };
    let inside = |k: usize| in_region(rt, s, k);
    let (mut size, mut removed, mut n_in, mut top) = (0, 0u128, 0, rt.root());
    let region =
        (s.node_set().iter()).filter_map(|c| rt.nodes().binary_search_by_key(&c, clique).ok());
    for u in region {
        size += 1;
        removed += u128::from(anatomy.charge(u));
        n_in += rt.children(u).iter().filter(|&&c| !inside(c)).count();
        if !rt.parent(u).is_some_and(inside) {
            top = u;
        }
    }
    if size == 0 || size == rt.len() {
        return None;
    }
    // μ(S) · Π card(carried ∖ X_S), over the outside children plus the
    // separator division of a non-root
    let t = anatomy.carried(top, s.size(), s.scope(), query, domain);
    let node = node_ops_of_size(t, n_in + usize::from(top != rt.root()));
    Some(cost - removed + u128::from(node))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::OfflineContext;
    use crate::workload::Workload;
    use peanut_junction::{build_junction_tree, JunctionTree};
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
        // scope {e, g}
        let mat = Materialization::new(vec![materialized(&bn, &engine, &["egh"], 1.0)], false);
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
        // scope {c, e, g} — loses f
        let shortcuts = vec![materialized(&bn, &engine, &["ce", "ef", "egh"], 1.0)];
        let mat = Materialization::new(shortcuts, false);
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
        let mat = Materialization::new(
            vec![
                materialized(&bn, &engine, &["egh"], 2.0),
                materialized(&bn, &engine, &["ef", "egh"], 3.0),
                materialized(&bn, &engine, &["ce", "ef"], 1.0),
            ],
            true,
        );
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

    /// The planning loop `planned` replaced, kept as its reference: every
    /// applicable shortcut gets a candidate tree — the plan so far with the
    /// shortcut's region contracted — and a full cost pass. On the way it holds the in-place
    /// price of each candidate, taken on the unreduced plan, to that pass.
    /// Returns the plan and how many candidates were priced and accepted.
    fn sequential_plan<'e>(
        online: &OnlineEngine<'e, '_>,
        query: &Scope,
    ) -> Option<(ReducedTree<'e>, usize, usize)> {
        let (engine, mat) = (online.engine, online.mat);
        let (tree, domain) = (engine.tree(), engine.tree().domain());
        let QueryPlan::OutOfClique(st) = engine.plan(query).unwrap() else {
            return None;
        };
        let unreduced =
            ReducedTree::from_steiner(tree, engine.rooted(), &st, engine.numeric_state());
        let anatomy = unreduced.anatomy(query, domain);
        let mut exact: u128 = (0..unreduced.len())
            .map(|u| u128::from(anatomy.charge(u)))
            .sum();
        let mut rt = unreduced.clone();
        let mut cost = rt.cost(query, domain).ops;
        assert_eq!(saturated(exact), cost);
        let (mut priced, mut accepted) = (0, 0);
        for i in online.applicable(query, &st) {
            let ms = &mat.shortcuts[i];
            let in_place = substituted(&unreduced, query, domain, &anatomy, exact, &ms.shortcut);
            let region_of: Vec<Option<usize>> = (0..rt.len())
                .map(|k| in_region(&rt, &ms.shortcut, k).then_some(0))
                .collect();
            let size = region_of.iter().flatten().count();
            if size == 0 || size == rt.len() {
                assert_eq!(
                    in_place, None,
                    "{query}: shortcut {i} covers nothing or all"
                );
                continue;
            }
            let table = ms.potential.as_ref().map(Potential::view);
            let shortcut = [(ms.shortcut.scope(), table, i)];
            let candidate = rt.contract(&region_of, &shortcut).unwrap();
            let new_cost = candidate.cost(query, domain).ops;
            let in_place = in_place.expect("a proper region has a price");
            assert_eq!(
                saturated(in_place),
                new_cost,
                "{query}: price of shortcut {i} after {accepted} substitutions"
            );
            priced += 1;
            if new_cost < cost {
                (rt, cost, exact) = (candidate, new_cost, in_place);
                accepted += 1;
            }
        }
        Some((rt, priced, accepted))
    }

    /// Whether a useful shortcut pays on `query`'s unreduced plan, priced
    /// in place; `None` for an in-clique query.
    fn a_useful_shortcut_pays(online: &OnlineEngine<'_, '_>, query: &Scope) -> Option<bool> {
        let (engine, mat) = (online.engine, online.mat);
        let domain = engine.tree().domain();
        let QueryPlan::OutOfClique(st) = engine.plan(query).unwrap() else {
            return None;
        };
        let rt = ReducedTree::from_steiner(engine.tree(), engine.rooted(), &st, None);
        let anatomy = rt.anatomy(query, domain);
        let unreduced: u128 = (0..rt.len()).map(|u| u128::from(anatomy.charge(u))).sum();
        let price = |i: usize| {
            let s = &mat.shortcuts[i].shortcut;
            substituted(&rt, query, domain, &anatomy, unreduced, s)
        };
        let useful = online.useful(query, &st);
        Some(
            useful
                .into_iter()
                .any(|i| price(i).is_some_and(|p| p < unreduced)),
        )
    }

    /// `planned` builds the tree the sequential loop arrives at.
    fn assert_plans_as_reference(online: &OnlineEngine<'_, '_>, query: &Scope) -> (usize, usize) {
        let got = online.reduce(query).unwrap();
        let Some((want, priced, accepted)) = sequential_plan(online, query) else {
            assert!(got.is_none(), "{query}: in-clique");
            return (0, 0);
        };
        let got = got.expect("out-of-clique");
        assert_eq!(got.len(), want.len(), "{query}: nodes");
        assert_eq!(got.root(), want.root(), "{query}: root");
        assert_eq!(got.shortcuts_used(), want.shortcuts_used(), "{query}");
        for k in 0..got.len() {
            assert_eq!(
                got.node(k).label,
                want.node(k).label,
                "{query}: label of {k}"
            );
            assert_eq!(got.parent(k), want.parent(k), "{query}: parent of {k}");
            assert_eq!(
                got.children(k),
                want.children(k),
                "{query}: children of {k}"
            );
            assert!(
                std::ptr::eq(got.node(k).scope, want.node(k).scope),
                "{query}: scope of {k}"
            );
        }
        let domain = online.engine.tree().domain();
        assert_eq!(
            online.cost(query).unwrap(),
            want.cost(query, domain),
            "{query}"
        );
        (priced, accepted)
    }

    /// The locality claim: for every query and every applicable shortcut
    /// the in-place price is the full pass over the candidate tree — before
    /// and after other substitutions were accepted — and the one
    /// contraction is the tree the sequential loop builds. Generated trees
    /// under random pivots, pools of shortcuts over random connected regions
    /// (overlapping, nested, with tied ratios), either value of the flag.
    #[test]
    fn in_place_prices_and_one_contraction_match_the_sequential_loop() {
        use peanut_pgm::generate::{generate_network, DagConfig};
        use proptest::test_runner::TestRng;
        let (mut priced, mut accepted, mut plans_with_two) = (0, 0, 0);
        let (mut none_pays, mut one_pays) = (0, 0);
        for seed in 0..48u64 {
            let n = 10 + seed as usize % 10;
            let cfg = DagConfig {
                n_nodes: n,
                n_edges: n - 1 + n / 5,
                max_in_degree: 2,
                window: 3,
                cardinalities: vec![2, 3, 4],
            };
            let Ok(bn) = generate_network(&cfg, seed) else {
                continue;
            };
            let mut rng = TestRng::seed_from_u64(seed);
            let mut tree = build_junction_tree(&bn).unwrap();
            tree.set_pivot(rng.sample(0..tree.n_cliques()));
            let engine = QueryEngine::symbolic(&tree);
            let shortcuts = (0..rng.sample(2..12usize))
                .map(|_| {
                    let mut region = vec![rng.sample(0..tree.n_cliques())];
                    for _ in 0..rng.sample(0..5usize) {
                        let from = region[rng.sample(0..region.len())];
                        let around = tree.neighbors(from);
                        region.push(around[rng.sample(0..around.len())].0);
                    }
                    let shortcut = Shortcut::from_nodes(&tree, engine.rooted(), region).unwrap();
                    let ratio = [0.5, 1.0, 1.0, 2.0, 4.0][rng.sample(0..5usize)];
                    MaterializedShortcut {
                        benefit: ratio * shortcut.size() as f64,
                        ratio,
                        potential: None,
                        shortcut,
                    }
                })
                .collect();
            let mat = Materialization::new(shortcuts, seed % 2 == 0);
            let online = OnlineEngine::new(&engine, &mat);
            for _ in 0..24 {
                let k = rng.sample(1..6usize);
                let picks: Vec<u32> = (0..k).map(|_| rng.sample(0..n as u32)).collect();
                let q = Scope::from_indices(&picks);
                let (p, a) = assert_plans_as_reference(&online, &q);
                priced += p;
                accepted += a;
                plans_with_two += usize::from(a >= 2);
                match a_useful_shortcut_pays(&online, &q) {
                    Some(false) => none_pays += 1,
                    Some(true) => one_pays += 1,
                    None => {}
                }
            }
        }
        let seen = [
            priced,
            accepted,
            priced - accepted,
            plans_with_two,
            none_pays,
            one_pays,
        ];
        assert!(seen.iter().all(|&c| c >= 50), "coverage {seen:?}");
    }

    /// A materialization whose flag says "disjoint" over shortcuts that
    /// share a clique — hand-built, or merged from two pools — plans and
    /// answers as the same shortcuts honestly flagged: the conflict graph
    /// comes from the shortcuts. (Trusting the flag, the second
    /// substitution replaced what was left of its region by a node of its
    /// full scope: a count for a plan no engine can run.)
    #[test]
    fn the_overlapping_flag_does_not_steer_the_planner() {
        let bn = fixtures::chain(12, 3, 5);
        let tree = build_junction_tree(&bn).unwrap();
        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let over = |vars: [u32; 4], benefit: f64| {
            let has = |pair: &[u32]| {
                tree.cliques()
                    .iter()
                    .position(|c| *c == Scope::from_indices(pair))
            };
            let nodes = vars.windows(2).map(|pair| has(pair).unwrap()).collect();
            let s = Shortcut::from_nodes(&tree, engine.rooted(), nodes).unwrap();
            let ns = engine.numeric_state().unwrap();
            let (pot, _) = s.materialize(&tree, engine.rooted(), ns).unwrap();
            MaterializedShortcut {
                ratio: benefit / s.size() as f64,
                benefit,
                potential: Some(pot),
                shortcut: s,
            }
        };
        // {x3x4, x4x5, x5x6} and {x5x6, x6x7, x7x8} share x5x6
        let shortcuts = vec![over([3, 4, 5, 6], 9.0), over([5, 6, 7, 8], 3.0)];
        assert!(shortcuts[0].shortcut.overlaps(&shortcuts[1].shortcut));
        let q = Scope::from_indices(&[0, 11]);
        let want = joint::marginal(&bn, &q).unwrap();
        let mut costs = Vec::new();
        for overlapping in [true, false] {
            let mat = Materialization::new(shortcuts.clone(), overlapping);
            let online = OnlineEngine::new(&engine, &mat);
            let (got, cost) = online.answer(&q).unwrap();
            assert!(
                got.max_abs_diff(&want).unwrap() < 1e-9,
                "flag {overlapping}"
            );
            assert_eq!(online.cost(&q).unwrap(), cost, "flag {overlapping}");
            assert_eq!(cost.shortcuts_used, 1, "flag {overlapping}");
            assert!(cost.ops < online.baseline_cost(&q).unwrap().ops);
            costs.push(cost);
        }
        assert_eq!(costs[0], costs[1]);
    }

    /// A plan whose count saturates is weighed as the sequential loop
    /// weighed it: sums are exact and compared as charged, so a substitution
    /// that leaves another saturated node in the plan is not an improvement
    /// (`u64::MAX` is not below `u64::MAX`) and is declined, and one that
    /// removes every saturated node is taken.
    #[test]
    fn a_saturated_count_plans_as_the_sequential_loop() {
        let big = 1 << 22;
        let cards = [2, 2, 2, 2, 2, 2, big, big, big, big, big, big];
        let names: Vec<String> = (0..cards.len()).map(|i| format!("v{i}")).collect();
        let domain = Domain::from_pairs(names.iter().map(String::as_str).zip(cards)).unwrap();
        // the path {0,1} – {1,6,7,8,2} – {2,3} – {3,9,10,11,4} – {4,5}: the
        // second and fourth cliques hold 2⁶⁸ entries each
        let cliques = [
            &[0, 1][..],
            &[1, 6, 7, 8, 2],
            &[2, 3],
            &[3, 9, 10, 11, 4],
            &[4, 5],
        ];
        let cliques = cliques.iter().map(|c| Scope::from_indices(c)).collect();
        let tree = JunctionTree::from_cliques(domain, cliques).unwrap();
        let engine = QueryEngine::symbolic(&tree);
        let over = |nodes: Vec<usize>, ratio: f64| {
            let shortcut = Shortcut::from_nodes(&tree, engine.rooted(), nodes).unwrap();
            MaterializedShortcut {
                benefit: ratio,
                ratio,
                potential: None,
                shortcut,
            }
        };
        let q = Scope::from_indices(&[0, 5]);
        assert_eq!(engine.cost(&q).unwrap().ops, Size::MAX, "test premise");
        for (shortcuts, used) in [
            (vec![over(vec![1], 2.0), over(vec![3], 1.0)], 0),
            (vec![over(vec![1, 2, 3], 1.0)], 1),
            (vec![over(vec![1, 2, 3], 4.0), over(vec![1], 1.0)], 1),
        ] {
            let mat = Materialization::new(shortcuts, true);
            let online = OnlineEngine::new(&engine, &mat);
            let (priced, accepted) = assert_plans_as_reference(&online, &q);
            assert!(priced >= 1 && accepted == used);
            let cost = online.cost(&q).unwrap();
            assert_eq!(cost.shortcuts_used, used);
            assert_eq!(cost.ops == Size::MAX, used == 0);
        }
    }

    /// Evidence listed twice is one pin — through a shortcut-reduced plan
    /// too — and two values for one variable are impossible evidence.
    #[test]
    fn repeated_evidence_answers_like_the_single_pair() {
        let (bn, engine) = figure1();
        let mat = Materialization::new(vec![materialized(&bn, &engine, &["egh"], 1.0)], false);
        let online = OnlineEngine::new(&engine, &mat);
        let (targets, i) = (named(&bn, "bf"), bn.domain().var("i").unwrap());
        let (once, cost) = online.conditional(&targets, &[(i, 1)]).unwrap();
        let (twice, cost_twice) = online.conditional(&targets, &[(i, 1), (i, 1)]).unwrap();
        assert_eq!(cost.shortcuts_used, 1, "test premise");
        assert_eq!(cost, cost_twice);
        assert_eq!(once.scope(), twice.scope());
        let bits = |p: &Potential| p.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&once), bits(&twice));
        assert!(matches!(
            online.conditional(&targets, &[(i, 0), (i, 1)]),
            Err(PgmError::ImpossibleEvidence(_))
        ));
    }

    /// A numeric engine on a generated network under a random pivot, a
    /// pool of materialized shortcuts over random connected regions
    /// (overlapping, nested, tied ratios), and a stream of requests — `(targets,
    /// evidence)`, one to four targets, a third with one evidence variable
    /// — whose joint scopes repeat, so marginals and conditionals share
    /// plans. `None` when the generator declines the seed.
    #[allow(clippy::type_complexity)]
    fn generated(
        seed: u64,
    ) -> Option<(
        BayesianNetwork,
        QueryEngine<'static>,
        Vec<MaterializedShortcut>,
        Vec<(Scope, Vec<(peanut_pgm::Var, u32)>)>,
    )> {
        use peanut_pgm::generate::{generate_network, DagConfig};
        use proptest::test_runner::TestRng;
        let n = 9 + seed as usize % 6;
        let cfg = DagConfig {
            n_nodes: n,
            n_edges: n - 1 + n / 5,
            max_in_degree: 2,
            window: 3,
            cardinalities: vec![2, 3],
        };
        let bn = generate_network(&cfg, seed).ok()?;
        let mut rng = TestRng::seed_from_u64(seed);
        let mut tree = build_junction_tree(&bn).unwrap();
        tree.set_pivot(rng.sample(0..tree.n_cliques()));
        let tree: &'static JunctionTree = Box::leak(Box::new(tree));
        let engine = QueryEngine::numeric(tree, &bn).unwrap();
        let shortcuts = (0..rng.sample(2..9usize))
            .map(|_| {
                let mut region = vec![rng.sample(0..tree.n_cliques())];
                for _ in 0..rng.sample(0..4usize) {
                    let from = region[rng.sample(0..region.len())];
                    let around = tree.neighbors(from);
                    region.push(around[rng.sample(0..around.len())].0);
                }
                let shortcut = Shortcut::from_nodes(tree, engine.rooted(), region).unwrap();
                let ns = engine.numeric_state().unwrap();
                let (table, _) = shortcut.materialize(tree, engine.rooted(), ns).unwrap();
                let ratio = [0.5, 1.0, 1.0, 2.0][rng.sample(0..4usize)];
                MaterializedShortcut {
                    benefit: ratio * shortcut.size() as f64,
                    ratio,
                    potential: Some(table),
                    shortcut,
                }
            })
            .collect();
        let scopes: Vec<Scope> = (0..12)
            .map(|_| {
                let k = rng.sample(1..5usize);
                Scope::from_indices(&(0..k).map(|_| rng.sample(0..n as u32)).collect::<Vec<_>>())
            })
            .collect();
        let requests = (0..36)
            .map(|_| {
                let joint = &scopes[rng.sample(0..scopes.len())];
                match joint.vars() {
                    [evidence, targets @ ..] if !targets.is_empty() && rng.sample(0..3u32) == 0 => {
                        let value = rng.sample(0..bn.domain().card(*evidence));
                        (
                            Scope::from_iter(targets.iter().copied()),
                            vec![(*evidence, value)],
                        )
                    }
                    _ => (joint.clone(), Vec::new()),
                }
            })
            .collect();
        Some((bn, engine, shortcuts, requests))
    }

    /// One request through the traced doors.
    fn traced(
        online: &OnlineEngine<'_, '_>,
        (targets, evidence): &(Scope, Vec<(peanut_pgm::Var, u32)>),
    ) -> Result<TracedAnswer, PgmError> {
        let mut scratch = Scratch::new();
        if evidence.is_empty() {
            online.answer_traced_in(targets, &mut scratch)
        } else {
            online.conditional_traced_in(targets, evidence, &mut scratch)
        }
    }

    /// The same request answered by the plain tree, the oracle.
    fn plain(
        engine: &QueryEngine<'_>,
        (targets, evidence): &(Scope, Vec<(peanut_pgm::Var, u32)>),
    ) -> Result<Potential, PgmError> {
        if evidence.is_empty() {
            engine.answer(targets).map(|(p, _)| p)
        } else {
            engine.conditional(targets, evidence).map(|(p, _)| p)
        }
    }

    fn bits(p: &Potential) -> Vec<u64> {
        p.values().iter().map(|v| v.to_bits()).collect()
    }

    /// The plan memo changes no answer. On generated trees under
    /// overlapping shortcut pools, each request asked a second time runs the
    /// plan its joint scope filed, and answers as a materialization with the
    /// same shortcuts that never answered: the same bits, `QueryCost` and
    /// baseline — marginals, conditionals (whose joint may be a marginal's
    /// scope) and in-clique scopes alike. A memo at its bound files nothing
    /// more and answers the same; and a `shortcuts` vector truncated after
    /// answering drops every plan naming a shortcut it lost, which is
    /// planned afresh: nothing panics, and every answer matches the plain
    /// tree.
    #[test]
    fn a_filed_plan_answers_as_a_fresh_plan() {
        let (mut tree_hits, mut clique_hits, mut conditional_hits, mut shortcut_hits) =
            (0, 0, 0, 0);
        let mut truncated_hits = 0;
        for seed in 0..32u64 {
            let Some((_bn, engine, shortcuts, requests)) = generated(seed) else {
                continue;
            };
            let mut mat = Materialization::new(shortcuts.clone(), true);
            let full = Materialization {
                plans: PlanMemo::with_cap(0),
                ..Materialization::new(shortcuts.clone(), true)
            };
            let online = OnlineEngine::new(&engine, &mat);
            let at_bound = OnlineEngine::new(&engine, &full);
            for r in &requests {
                let MemoUsage {
                    filed: before,
                    taken,
                    ..
                } = mat.plan_usage();
                let got = traced(&online, r);
                let hit = mat.plan_usage().taken > taken;
                let fresh_mat = Materialization::new(shortcuts.clone(), true);
                let want = traced(&OnlineEngine::new(&engine, &fresh_mat), r);
                let bounded = traced(&at_bound, r);
                for (got, door) in [(got, "memo"), (bounded, "bound")] {
                    match (&got, &want) {
                        (Ok(got), Ok(want)) => {
                            assert_eq!(bits(&got.potential), bits(&want.potential), "{door} {r:?}");
                            assert_eq!(got.cost, want.cost, "{door} {r:?}");
                            assert_eq!(got.baseline_ops, want.baseline_ops, "{door} {r:?}");
                        }
                        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                        _ => panic!("{door} {r:?}: {got:?} against {want:?}"),
                    }
                }
                assert_eq!(
                    (full.plan_usage().filed, full.plan_usage().taken),
                    (0, 0),
                    "a full memo files nothing"
                );
                if hit {
                    let cost = want.as_ref().unwrap().cost;
                    tree_hits += usize::from(cost.messages > 0);
                    clique_hits += usize::from(cost.messages == 0);
                    shortcut_hits += usize::from(cost.shortcuts_used > 0);
                    conditional_hits += usize::from(!r.1.is_empty());
                } else {
                    assert!(mat.plan_usage().filed <= before + 1);
                }
            }
            let held = mat.plan_usage().filed;
            assert!(mat.plans.usage().held <= mat.plans.usage().cap);

            // drop the shortcuts past the first: plans that ran one of them
            // are planned afresh, the rest run as filed
            mat.shortcuts.truncate(1);
            let online = OnlineEngine::new(&engine, &mat);
            let taken = mat.plan_usage().taken;
            for r in &requests {
                match (traced(&online, r), plain(&engine, r)) {
                    (Ok(got), Ok(want)) => {
                        let diff = got.potential.max_abs_diff(&want).unwrap();
                        assert!(diff < 1e-9, "truncated {r:?}: {diff}");
                        assert!(got.cost.shortcuts_used <= 1);
                    }
                    (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                    (got, want) => panic!("truncated {r:?}: {got:?} against {want:?}"),
                }
            }
            truncated_hits += (mat.plan_usage().taken - taken) as usize;
            assert!(mat.plan_usage().filed >= held);
        }
        let seen = [
            tree_hits,
            clique_hits,
            conditional_hits,
            shortcut_hits,
            truncated_hits,
        ];
        assert!(seen.iter().all(|&c| c >= 100), "coverage {seen:?}");
    }

    /// The conflict rows a materialization laid out are not read for
    /// shortcuts edited after planning: with the vector reversed, every
    /// count is the one a fresh materialization of the reversed vector
    /// plans.
    #[test]
    fn edited_shortcuts_never_read_stale_conflict_rows() {
        let mut reduced = 0;
        for seed in 0..32u64 {
            let Some((_bn, engine, shortcuts, requests)) = generated(seed) else {
                continue;
            };
            let mut mat = Materialization::new(shortcuts, true);
            let joint = |r: &(Scope, Vec<(peanut_pgm::Var, u32)>)| {
                Scope::from_iter(r.0.iter().chain(r.1.iter().map(|&(v, _)| v)))
            };
            let joints: Vec<Scope> = requests.iter().map(joint).collect();
            for q in &joints {
                let _ = OnlineEngine::new(&engine, &mat).cost(q);
            }
            mat.shortcuts.reverse();
            let fresh = Materialization::new(mat.shortcuts.clone(), true);
            let (edited, fresh) = (
                OnlineEngine::new(&engine, &mat),
                OnlineEngine::new(&engine, &fresh),
            );
            for q in &joints {
                match (edited.cost(q), fresh.cost(q)) {
                    (Ok(got), Ok(want)) => {
                        assert_eq!(got, want, "{q}");
                        reduced += usize::from(want.shortcuts_used > 0);
                    }
                    (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                    (got, want) => panic!("{q}: {got:?} against {want:?}"),
                }
            }
        }
        assert!(reduced >= 100, "coverage {reduced}");
    }

    /// A filed plan carries what its pass reads: on the generated pools of
    /// [`a_filed_plan_answers_as_a_fresh_plan`], every plan a hit rebuilds
    /// reads, node by node, the table size and held query variables of a
    /// fresh anatomy of the rebuilt plan.
    #[test]
    fn a_filed_plan_reads_as_a_fresh_anatomy() {
        let (mut hits, mut shortcut_hits, mut rehung_hits) = (0, 0, 0);
        for seed in 0..32u64 {
            let Some((_bn, engine, shortcuts, requests)) = generated(seed) else {
                continue;
            };
            let mat = Materialization::new(shortcuts, true);
            let online = OnlineEngine::new(&engine, &mat);
            let domain = engine.tree().domain();
            for r in &requests {
                if traced(&online, r).is_err() {
                    continue;
                }
                let joint = Scope::from_iter(r.0.iter().chain(r.1.iter().map(|&(v, _)| v)));
                let Some(Runnable::Tree { plan, rows, .. }) =
                    mat.plans.recall(&joint, |filed| online.rebuilt(filed))
                else {
                    continue;
                };
                let Rows::Filed(shape) = rows else {
                    panic!("{joint}: a rebuilt plan reads its shape");
                };
                let fresh = plan.anatomy(&joint, domain);
                for u in 0..plan.len() {
                    assert_eq!(shape.size(u), fresh.size(u), "{joint}: size of {u}");
                    for i in 0..joint.len() {
                        let (filed, want) = (shape.holds(u, i), fresh.holds(u, i));
                        assert_eq!(filed, want, "{joint}: node {u}, variable {i}");
                    }
                }
                hits += 1;
                shortcut_hits += usize::from(plan.shortcuts_used() > 0);
                let plain = online.reduce(&joint).unwrap().expect("out of clique");
                rehung_hits += usize::from(plan.root() != plain.root());
            }
        }
        let seen = [hits, shortcut_hits, rehung_hits];
        assert!(seen.iter().all(|&c| c >= 30), "coverage {seen:?}");
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
