//! High-level query API over a junction tree: the plain **JT** method of the
//! paper's evaluation (no extra materialization).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use crate::arena::{ArenaLayout, TreeArena};
use crate::calibrate::NumericState;
use crate::cost::QueryCost;
use crate::memo::MessageMemo;
use crate::reduced::ReducedTree;
use crate::rooted::RootedTree;
use crate::steiner::SteinerTree;
use crate::tree::{CliqueId, JunctionTree};
use peanut_pgm::{BayesianNetwork, PgmError, Potential, Scope, Scratch, Var};
use std::sync::Arc;

/// How a query will be processed.
#[derive(Clone, Debug)]
pub enum QueryPlan {
    /// All query variables lie in one clique: direct marginalization.
    InClique(CliqueId),
    /// Out-of-clique: message passing over the Steiner tree.
    OutOfClique(SteinerTree),
}

/// A junction tree prepared for query answering.
///
/// Holds the rooted view and (optionally) the calibrated dense potentials.
/// Without potentials the engine runs in *symbolic* mode: it computes exact
/// operation counts but cannot produce numeric answers (this is how the
/// paper evaluates the datasets whose calibration is infeasible).
///
/// The rooting and the tables' arena layout are what a tree fixes, so they
/// sit behind `Arc`s: an engine rebuilt from this one
/// ([`with_calibrated_slab`](Self::with_calibrated_slab), evidence
/// restriction) shares them instead of recomputing them, and so does one
/// rebuilt from a table-less copy ([`without_tables`](Self::without_tables)).
///
/// The calibrated tables carry a bounded memo of the directed messages
/// every numeric pass over them sends (`crate::reduced`, "The message
/// memo"), so an engine's answers share messages for as long as it lives.
/// An engine restricted to evidence or rebuilt from a slab starts with an
/// empty one, unless it adopts the memo a page-out took from an engine
/// over the same tables ([`adopt_memo`](Self::adopt_memo)).
pub struct QueryEngine<'t> {
    tree: &'t JunctionTree,
    rooted: Arc<RootedTree>,
    numeric: Option<NumericState>,
    /// The arena layout a table-less copy of a numeric engine keeps
    /// ([`without_tables`](Self::without_tables)); `None` otherwise, a
    /// numeric engine's layout being its tables'.
    layout: Option<Arc<ArenaLayout>>,
}

impl<'t> QueryEngine<'t> {
    /// Symbolic engine (size-only).
    pub fn symbolic(tree: &'t JunctionTree) -> Self {
        Self::rooted_with(tree, None)
    }

    /// Numeric engine: initializes and calibrates dense potentials.
    pub fn numeric(tree: &'t JunctionTree, bn: &BayesianNetwork) -> Result<Self, PgmError> {
        let rooted = RootedTree::new(tree);
        let mut ns = NumericState::initialize(tree, bn)?;
        ns.calibrate(tree, &rooted)?;
        Ok(QueryEngine {
            tree,
            rooted: Arc::new(rooted),
            numeric: Some(ns),
            layout: None,
        })
    }

    /// Numeric engine over an **already calibrated** state. Skips
    /// initialization and the two Hugin passes entirely; the caller vouches
    /// that `ns` holds this tree's calibrated tables (e.g. a persisted arena
    /// slab reattached via [`NumericState::from_calibrated_slab`]).
    pub fn from_calibrated(tree: &'t JunctionTree, ns: NumericState) -> Self {
        debug_assert!(ns.is_calibrated(), "rehydration requires calibrated state");
        Self::rooted_with(tree, Some(ns))
    }

    /// `tree` rooted at its pivot, holding `numeric`.
    fn rooted_with(tree: &'t JunctionTree, numeric: Option<NumericState>) -> Self {
        QueryEngine {
            tree,
            rooted: Arc::new(RootedTree::new(tree)),
            numeric,
            layout: None,
        }
    }

    /// This engine without its tables: a symbolic engine over the same tree
    /// that shares the rooting and keeps the tables' arena layout, so
    /// [`with_calibrated_slab`](Self::with_calibrated_slab) on it rebuilds
    /// only the tables. Copies nothing.
    pub fn without_tables(&self) -> QueryEngine<'t> {
        QueryEngine {
            tree: self.tree,
            rooted: Arc::clone(&self.rooted),
            numeric: None,
            layout: self.layout_handle().cloned(),
        }
    }

    /// The store rehydration path: a numeric engine over this engine's tree
    /// holding `slab` — moved in, not copied — as its calibrated tables,
    /// with an empty message memo. It shares this engine's rooting and
    /// arena layout; only an engine that never had tables lays the arena
    /// out, from the tree. The caller vouches that `slab` is calibrated; a
    /// slab whose length does not fit the layout fails with
    /// [`PgmError::CorruptStore`].
    pub fn with_calibrated_slab(&self, slab: Vec<f64>) -> Result<QueryEngine<'t>, PgmError> {
        let layout = match self.layout_handle() {
            Some(layout) => Arc::clone(layout),
            None => Arc::new(ArenaLayout::of(self.tree)?),
        };
        let arena = TreeArena::with_slab(layout, slab)?;
        Ok(QueryEngine {
            tree: self.tree,
            rooted: Arc::clone(&self.rooted),
            numeric: Some(NumericState::calibrated(arena)),
            layout: None,
        })
    }

    /// The arena layout of this engine's tables, or of the tables it had.
    fn layout_handle(&self) -> Option<&Arc<ArenaLayout>> {
        match &self.numeric {
            Some(ns) => Some(ns.arena().layout()),
            None => self.layout.as_ref(),
        }
    }

    /// The underlying tree (the full `'t` borrow, so callers can retain it
    /// past this engine — e.g. to rebuild the engine after a page-out).
    #[inline]
    pub fn tree(&self) -> &'t JunctionTree {
        self.tree
    }

    /// The rooted view (at the tree's pivot).
    #[inline]
    pub fn rooted(&self) -> &RootedTree {
        &self.rooted
    }

    /// Calibrated potentials, when running numerically.
    #[inline]
    pub fn numeric_state(&self) -> Option<&NumericState> {
        self.numeric.as_ref()
    }

    /// The table entries the message memo holds, and the most it may hold:
    /// one constant for every table set (`(0, 0)` when symbolic).
    pub fn memo_usage(&self) -> (usize, usize) {
        self.numeric.as_ref().map_or((0, 0), |ns| ns.memo().usage())
    }

    /// The messages of this engine's tables, moved out into a memo that
    /// keeps at most `budget` entries of them: by decreasing product
    /// entries walked per entry held, ties by key, each while it fits
    /// (`crate::memo`). This engine's memo is left empty, and a pass still
    /// running on it files there. `None` when symbolic.
    pub fn take_memo(&self, budget: usize) -> Option<MessageMemo> {
        Some(self.numeric.as_ref()?.memo().take_trimmed(budget))
    }

    /// Makes `memo` the message memo of this engine's tables, moving it
    /// in; a symbolic engine drops it. The caller vouches that its
    /// messages were sent over tables bit-identical to these — a page
    /// cycle's fault-in adopts the memo [`take_memo`](Self::take_memo)
    /// took at page-out only when it rehydrates the file of that same
    /// epoch.
    pub fn adopt_memo(&mut self, memo: MessageMemo) {
        if let Some(ns) = &mut self.numeric {
            ns.adopt_memo(memo);
        }
    }

    /// Classifies a query (paper §3.1): in-clique vs out-of-clique.
    pub fn plan(&self, query: &Scope) -> Result<QueryPlan, PgmError> {
        let st = SteinerTree::extract(self.tree, &self.rooted, query)?;
        if st.len() == 1 {
            Ok(QueryPlan::InClique(st.root()))
        } else {
            Ok(QueryPlan::OutOfClique(st))
        }
    }

    /// The reduced tree a query would be processed on (`None` for in-clique
    /// queries): a view borrowing this engine's tree and calibrated tables,
    /// whose answers go through their message memo.
    pub fn reduced_for(&self, query: &Scope) -> Result<Option<ReducedTree<'_>>, PgmError> {
        match self.plan(query)? {
            QueryPlan::InClique(_) => Ok(None),
            QueryPlan::OutOfClique(st) => Ok(Some(ReducedTree::from_steiner(
                self.tree,
                &self.rooted,
                &st,
                self.numeric.as_ref(),
            ))),
        }
    }

    /// Operation count of answering `query` with the plain junction-tree
    /// algorithm (no shortcut potentials).
    pub fn cost(&self, query: &Scope) -> Result<QueryCost, PgmError> {
        match self.plan(query)? {
            QueryPlan::InClique(u) => Ok(QueryCost::in_clique(
                self.tree.clique(u),
                self.tree.domain(),
            )),
            QueryPlan::OutOfClique(st) => {
                let rt = ReducedTree::from_steiner(self.tree, &self.rooted, &st, None);
                Ok(rt.cost(query, self.tree.domain()))
            }
        }
    }

    /// Numeric answer `P(query)` plus its cost — [`cost`](Self::cost)'s, the
    /// count toward `r_q`, though an out-of-clique pass runs toward the
    /// Steiner member where that count is smallest
    /// ([`ReducedTree::answer_in`]), through the message memo. Requires
    /// numeric mode.
    pub fn answer(&self, query: &Scope) -> Result<(Potential, QueryCost), PgmError> {
        self.answer_in(query, &mut Scratch::new())
    }

    /// [`answer`](Self::answer) with caller-provided kernel scratch (the
    /// buffer-reuse path serving workers run on).
    pub fn answer_in(
        &self,
        query: &Scope,
        scratch: &mut Scratch,
    ) -> Result<(Potential, QueryCost), PgmError> {
        let ns = self.numeric.as_ref().ok_or(PgmError::SymbolicEngine)?;
        match self.plan(query)? {
            QueryPlan::InClique(u) => {
                let pot = ns.clique_table(u).marginalize_in(query, scratch)?;
                let cost = QueryCost::in_clique(self.tree.clique(u), self.tree.domain());
                Ok((pot, cost))
            }
            QueryPlan::OutOfClique(st) => {
                let rt = ReducedTree::from_steiner(self.tree, &self.rooted, &st, Some(ns));
                rt.answer_in(query, self.tree.domain(), scratch)
            }
        }
    }

    /// An evidence-restricted engine over the same tree: clique tables of
    /// the result hold `P(X_u, e)` ([`NumericState::with_evidence`]), so a
    /// marginal answered on it and normalized is `P(targets | e)` — without
    /// ever forming the joint over `targets ∪ vars(evidence)`. The two
    /// recalibration passes are paid here, once; a stream of queries under
    /// the same pinned evidence then runs as plain marginals: each charged
    /// its plain count toward `r_q`, each pass run toward its cheapest
    /// Steiner member. The restricted tables' message memo starts empty:
    /// none of this engine's messages holds for them. Requires numeric
    /// mode; evidence of probability zero fails with
    /// [`PgmError::ImpossibleEvidence`].
    pub fn restricted_to_evidence(
        &self,
        evidence: &[(Var, u32)],
    ) -> Result<QueryEngine<'t>, PgmError> {
        let ns = self.numeric.as_ref().ok_or(PgmError::SymbolicEngine)?;
        let restricted = ns.with_evidence(self.tree, &self.rooted, evidence)?;
        Ok(QueryEngine {
            tree: self.tree,
            rooted: Arc::clone(&self.rooted),
            numeric: Some(restricted),
            layout: None,
        })
    }

    /// Conditional distribution `P(targets | evidence)` via the paper's
    /// §3.1 reduction: answer the joint over `targets ∪ vars(evidence)`,
    /// restrict it to the evidence values and renormalize. Evidence of
    /// probability zero — the restricted joint sums to 0, or two pairs
    /// give one variable two values — fails with
    /// [`PgmError::ImpossibleEvidence`].
    pub fn conditional(
        &self,
        targets: &Scope,
        evidence: &[(Var, u32)],
    ) -> Result<(Potential, QueryCost), PgmError> {
        conditional_from_joint(targets, evidence, &mut Scratch::new(), |q, s| {
            self.answer_in(q, s)
        })
    }
}

/// Shared implementation of the joint→conditional reduction, reused by the
/// materialization-aware online engine. The scratch is threaded through the
/// joint computation and the evidence restrictions, and every intermediate
/// (the joint, each partial restriction) is recycled into it.
pub fn conditional_from_joint<F>(
    targets: &Scope,
    evidence: &[(Var, u32)],
    scratch: &mut Scratch,
    answer_joint: F,
) -> Result<(Potential, QueryCost), PgmError>
where
    F: FnOnce(&Scope, &mut Scratch) -> Result<(Potential, QueryCost), PgmError>,
{
    let ev_scope = Scope::from_iter(evidence.iter().map(|&(v, _)| v));
    if !ev_scope.is_disjoint_from(targets) {
        return Err(PgmError::ScopeNotContained {
            sub: ev_scope.to_string(),
            sup: format!("targets {targets} must not overlap evidence"),
        });
    }
    let q = targets.union(&ev_scope);
    let (joint, cost) = answer_joint(&q, scratch)?;
    // every pair is checked, also one that repeats a variable and so never
    // reaches a restriction
    for &(var, value) in evidence {
        match joint.card_of(var) {
            Some(card) if value >= card => {
                return Err(PgmError::ValueOutOfRange { var, value, card })
            }
            _ => {}
        }
    }
    let mut restricted = joint;
    let mut contradicted = false;
    for (i, &(v, value)) in evidence.iter().enumerate() {
        // a variable pinned before: the same value again changes nothing,
        // another one leaves no consistent entry
        if let Some(&(_, pinned)) = evidence[..i].iter().find(|&&(u, _)| u == v) {
            contradicted |= pinned != value;
            continue;
        }
        let next = restricted.restrict_in(v, value, scratch)?;
        scratch.recycle(restricted);
        restricted = next;
    }
    // the restricted joint sums to P(evidence): nothing to condition on
    // when that is zero
    if contradicted || restricted.normalize() <= 0.0 {
        scratch.recycle(restricted);
        return Err(PgmError::ImpossibleEvidence(evidence.to_vec()));
    }
    Ok((restricted, cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_junction_tree;
    use peanut_pgm::{fixtures, joint};

    #[test]
    fn in_clique_and_out_of_clique_plans() {
        let bn = fixtures::figure1();
        let tree = build_junction_tree(&bn).unwrap();
        let eng = QueryEngine::symbolic(&tree);
        let d = bn.domain();
        let q_in = Scope::from_iter([d.var("g").unwrap(), d.var("h").unwrap()]);
        let q_out = Scope::from_iter([d.var("a").unwrap(), d.var("l").unwrap()]);
        assert!(matches!(eng.plan(&q_in).unwrap(), QueryPlan::InClique(_)));
        assert!(matches!(
            eng.plan(&q_out).unwrap(),
            QueryPlan::OutOfClique(_)
        ));
        assert!(eng.reduced_for(&q_in).unwrap().is_none());
        assert!(eng.reduced_for(&q_out).unwrap().is_some());
    }

    #[test]
    fn every_pairwise_marginal_matches_brute_force() {
        for bn in [fixtures::figure1(), fixtures::asia(), fixtures::sprinkler()] {
            let tree = build_junction_tree(&bn).unwrap();
            let eng = QueryEngine::numeric(&tree, &bn).unwrap();
            let d = bn.domain();
            let n = d.len() as u32;
            for a in 0..n {
                for b in (a + 1)..n {
                    let q = Scope::from_indices(&[a, b]);
                    let (got, _) = eng.answer(&q).unwrap();
                    let want = joint::marginal(&bn, &q).unwrap();
                    assert!(
                        got.max_abs_diff(&want).unwrap() < 1e-9,
                        "query {{x{a},x{b}}}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_variable_queries_are_in_clique() {
        let bn = fixtures::figure1();
        let tree = build_junction_tree(&bn).unwrap();
        let eng = QueryEngine::numeric(&tree, &bn).unwrap();
        for v in bn.domain().all_vars() {
            let q = Scope::singleton(v);
            assert!(matches!(eng.plan(&q).unwrap(), QueryPlan::InClique(_)));
            let (got, cost) = eng.answer(&q).unwrap();
            let want = joint::marginal(&bn, &q).unwrap();
            assert!(got.max_abs_diff(&want).unwrap() < 1e-9);
            assert_eq!(cost.messages, 0);
        }
    }

    #[test]
    fn symbolic_cost_agrees_with_numeric_cost() {
        let bn = fixtures::figure1();
        let tree = build_junction_tree(&bn).unwrap();
        let sym = QueryEngine::symbolic(&tree);
        let num = QueryEngine::numeric(&tree, &bn).unwrap();
        let d = bn.domain();
        for pair in [["a", "l"], ["d", "f"], ["b", "h"], ["f", "l"]] {
            let q = Scope::from_iter(pair.iter().map(|n| d.var(n).unwrap()));
            let c_sym = sym.cost(&q).unwrap();
            let (_, c_num) = num.answer(&q).unwrap();
            assert_eq!(c_sym.ops, c_num.ops);
        }
    }

    #[test]
    fn rehydrated_engine_answers_bit_identically() {
        let bn = fixtures::figure1();
        let tree = build_junction_tree(&bn).unwrap();
        let fresh = QueryEngine::numeric(&tree, &bn).unwrap();
        let slab = fresh.numeric_state().unwrap().arena().slab().to_vec();
        let rehydrated = QueryEngine::from_calibrated(
            &tree,
            NumericState::from_calibrated_slab(&tree, &slab).unwrap(),
        );
        let d = bn.domain();
        let n = d.len() as u32;
        for a in 0..n {
            for b in (a + 1)..n {
                let q = Scope::from_indices(&[a, b]);
                let (x, cx) = fresh.answer(&q).unwrap();
                let (y, cy) = rehydrated.answer(&q).unwrap();
                assert_eq!(cx.ops, cy.ops);
                for (xa, ya) in x.values().iter().zip(y.values()) {
                    assert_eq!(xa.to_bits(), ya.to_bits(), "query {{x{a},x{b}}}");
                }
            }
        }
    }

    #[test]
    fn restricted_engine_agrees_with_per_query_conditionals() {
        let bn = fixtures::figure1();
        let tree = build_junction_tree(&bn).unwrap();
        let eng = QueryEngine::numeric(&tree, &bn).unwrap();
        let d = bn.domain();
        let evidence = vec![(d.var("a").unwrap(), 1u32), (d.var("i").unwrap(), 0u32)];
        let restricted = eng.restricted_to_evidence(&evidence).unwrap();
        // the second oracle: the recalibrated tree is consistent again
        let ns = restricted.numeric_state().unwrap();
        assert!(ns.local_consistency_error(&tree).unwrap() <= 1e-9);
        for pair in [["b", "f"], ["d", "l"], ["g", "h"], ["c", "e"]] {
            let targets = Scope::from_iter(pair.iter().map(|n| d.var(n).unwrap()));
            let (mut got, _) = restricted.answer(&targets).unwrap();
            got.normalize();
            let (want, _) = eng.conditional(&targets, &evidence).unwrap();
            assert!(
                got.max_abs_diff(&want).unwrap() < 1e-9,
                "P({pair:?} | e) via restricted tree"
            );
            assert!((got.sum() - 1.0).abs() < 1e-9);
        }
        // symbolic engines cannot restrict
        assert!(matches!(
            QueryEngine::symbolic(&tree).restricted_to_evidence(&evidence),
            Err(PgmError::SymbolicEngine)
        ));
    }

    #[test]
    fn repeated_evidence_is_one_pin_and_a_contradiction_is_an_error() {
        let bn = fixtures::figure1();
        let tree = build_junction_tree(&bn).unwrap();
        let eng = QueryEngine::numeric(&tree, &bn).unwrap();
        let d = bn.domain();
        let (a, l) = (d.var("a").unwrap(), Scope::singleton(d.var("l").unwrap()));
        let (once, cost) = eng.conditional(&l, &[(a, 1)]).unwrap();
        let (twice, cost_twice) = eng.conditional(&l, &[(a, 1), (a, 1)]).unwrap();
        assert_eq!(cost, cost_twice);
        assert_eq!(once.scope(), twice.scope());
        let bits = |p: &Potential| p.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&once), bits(&twice));
        // the restricted-tree door answers the same list, to rounding
        let restricted = eng.restricted_to_evidence(&[(a, 1), (a, 1)]).unwrap();
        let (mut via_tree, _) = restricted.answer(&l).unwrap();
        via_tree.normalize();
        assert!(via_tree.max_abs_diff(&once).unwrap() < 1e-12);
        // two values for one variable: nothing is consistent with both,
        // at either door
        let contradiction = vec![(a, 0), (a, 1)];
        assert_eq!(
            eng.conditional(&l, &contradiction).unwrap_err(),
            PgmError::ImpossibleEvidence(contradiction.clone())
        );
        assert_eq!(
            eng.restricted_to_evidence(&contradiction).err(),
            Some(PgmError::ImpossibleEvidence(contradiction))
        );
        // a repeat does not excuse a bad value
        assert!(matches!(
            eng.conditional(&l, &[(a, 1), (a, 9)]),
            Err(PgmError::ValueOutOfRange { .. })
        ));
    }

    #[test]
    fn symbolic_engine_cannot_answer() {
        let bn = fixtures::sprinkler();
        let tree = build_junction_tree(&bn).unwrap();
        let eng = QueryEngine::symbolic(&tree);
        let q = Scope::from_indices(&[0]);
        assert!(matches!(eng.answer(&q), Err(PgmError::SymbolicEngine)));
        assert_eq!(eng.memo_usage(), (0, 0));
    }

    fn bits(p: &Potential) -> Vec<u64> {
        p.values().iter().map(|v| v.to_bits()).collect()
    }

    /// Every pair and triple of consecutive variables of `bn`.
    fn scopes(bn: &BayesianNetwork) -> Vec<Scope> {
        let n = bn.n_vars() as u32;
        let pairs = (0..n).flat_map(|a| (a + 1..n).map(move |b| Scope::from_indices(&[a, b])));
        let triples = (0..n.saturating_sub(2)).map(|a| Scope::from_indices(&[a, a + 1, a + 2]));
        pairs.chain(triples).collect()
    }

    /// An engine over `engine`'s tables whose memo is empty.
    fn cold<'t>(engine: &QueryEngine<'t>) -> QueryEngine<'t> {
        let slab = engine.numeric_state().unwrap().arena().slab();
        let ns = NumericState::from_calibrated_slab(engine.tree(), slab).unwrap();
        QueryEngine::from_calibrated(engine.tree(), ns)
    }

    /// The memo belongs to the tables: an engine warmed by a stream answers
    /// as cold engines over the same tables do, and the session it opens
    /// starts with an empty memo and answers bit for bit as the session a
    /// cold engine opens.
    #[test]
    fn a_warm_engine_and_its_sessions_answer_as_cold_ones() {
        let bn = fixtures::chain(10, 3, 4);
        let tree = build_junction_tree(&bn).unwrap();
        let warm = QueryEngine::numeric(&tree, &bn).unwrap();
        let scopes = scopes(&bn);
        for q in &scopes {
            warm.answer(q).unwrap();
        }
        let (held, cap) = warm.memo_usage();
        assert!(0 < held && held <= cap, "{held} entries, cap {cap}");
        for q in &scopes {
            let (got, cost) = warm.answer(q).unwrap();
            let (want, want_cost) = cold(&warm).answer(q).unwrap();
            assert_eq!(bits(&got), bits(&want), "{q}");
            assert_eq!(cost, want_cost, "{q}");
        }
        let evidence = [(Var(9), 1), (Var(3), 0)];
        let session = warm.restricted_to_evidence(&evidence).unwrap();
        let reference = cold(&warm).restricted_to_evidence(&evidence).unwrap();
        assert_eq!(session.memo_usage().0, 0);
        for q in &scopes {
            let (got, _) = session.answer(q).unwrap();
            let (want, _) = reference.answer(q).unwrap();
            assert_eq!(bits(&got), bits(&want), "{q} | e");
        }
    }

    /// The cliques on `u`'s side of the edge to `p`, in a plan's post-order:
    /// children last to first, `u` last.
    fn post_order(tree: &JunctionTree, u: usize, p: usize, out: &mut Vec<u32>) {
        let mut children: Vec<usize> = tree.neighbors(u).iter().map(|&(c, _)| c).collect();
        children.sort_unstable();
        for &c in children.iter().rev().filter(|&&c| c != p) {
            post_order(tree, c, u, out);
        }
        out.push(u as u32);
    }

    /// Every plan over a state's tables reads its memo, and no plan over
    /// other tables does. A constant table planted under every key a pass
    /// for `{x0, x7}` could look up changes what the engine's door, the
    /// plans `from_steiner` builds (the Steiner tree, every clique, and
    /// every clique rooted at a far leaf) and `region_joints` answer for
    /// it; a clone of the state, a copy reattached from its slab and the
    /// state restricted to evidence answer as clean tables do.
    #[test]
    fn every_plan_over_the_tables_and_no_other_reads_the_memo() {
        use crate::reduced::region_joints;
        let bn = fixtures::chain(8, 3, 5);
        let tree = build_junction_tree(&bn).unwrap();
        let d = bn.domain();
        let clean = QueryEngine::numeric(&tree, &bn).unwrap();
        let planted = cold(&clean);
        let ns = planted.numeric_state().unwrap();
        let q = Scope::from_indices(&[0, 7]);
        for &(a, b) in tree.edges() {
            for (u, p) in [(a, b), (b, a)] {
                for held in [&[][..], &[0], &[7], &[0, 7]] {
                    let sep = tree.clique(u).intersect(tree.clique(p));
                    let scope = sep.union(&Scope::from_indices(held));
                    let table = Potential::filled(scope, d, 0.5).unwrap();
                    let mut members = Vec::new();
                    post_order(&tree, u, p, &mut members);
                    let mut key = vec![p as u32, members.len() as u32];
                    key.extend(members);
                    key.extend(held);
                    ns.memo().plant(key, table);
                }
            }
        }
        let want = bits(&clean.answer(&q).unwrap().0);
        assert_ne!(
            bits(&planted.answer(&q).unwrap().0),
            want,
            "the engine's door"
        );
        let answer = |rt: &ReducedTree<'_>| bits(&rt.answer(&q, d).unwrap().0);
        let st = SteinerTree::extract(&tree, planted.rooted(), &q).unwrap();
        let rt = ReducedTree::from_steiner(&tree, planted.rooted(), &st, Some(ns));
        assert_ne!(answer(&rt), want, "the Steiner tree");
        let all: Vec<usize> = (0..tree.n_cliques()).collect();
        let far = (0..tree.n_cliques())
            .find(|&u| u != tree.pivot() && tree.neighbors(u).len() == 1)
            .unwrap();
        for (rooted, root) in [
            (planted.rooted().clone(), tree.pivot()),
            (RootedTree::rooted_at(&tree, far), far),
        ] {
            let rt = ReducedTree::from_members(&tree, &rooted, &all, root, Some(ns));
            assert_ne!(answer(&rt), want, "every clique, rooted at {root}");
            let region = [(&all[..], root, &q)];
            let built = region_joints(&tree, &rooted, ns, &region).unwrap();
            let clean_ns = clean.numeric_state().unwrap();
            let clean_built = region_joints(&tree, &rooted, clean_ns, &region).unwrap();
            assert_ne!(
                bits(&built[0].0),
                bits(&clean_built[0].0),
                "a region at {root}"
            );
        }

        let clone = QueryEngine::from_calibrated(&tree, ns.clone());
        assert_eq!(bits(&clone.answer(&q).unwrap().0), want, "a clone");
        assert_eq!(
            bits(&cold(&planted).answer(&q).unwrap().0),
            want,
            "a slab copy"
        );
        let evidence = [(Var(3), 1)];
        let session = planted.restricted_to_evidence(&evidence).unwrap();
        let reference = clean.restricted_to_evidence(&evidence).unwrap();
        assert_eq!(
            bits(&session.answer(&q).unwrap().0),
            bits(&reference.answer(&q).unwrap().0),
            "tables restricted to evidence"
        );
    }

    /// A stream that would file more than the cap leaves the memo within
    /// it, answering as tables with room to spare do.
    #[test]
    fn the_memo_holds_no_more_than_its_cap() {
        let bn = fixtures::chain(12, 4, 2);
        let tree = build_junction_tree(&bn).unwrap();
        let roomy = QueryEngine::numeric(&tree, &bn).unwrap();
        let slab = roomy.numeric_state().unwrap().arena().slab();
        let ns = NumericState::from_calibrated_slab(&tree, slab).unwrap();
        let tight = QueryEngine::from_calibrated(&tree, ns.with_memo_cap(100));
        for q in scopes(&bn) {
            let (got, _) = tight.answer(&q).unwrap();
            let (want, _) = roomy.answer(&q).unwrap();
            assert_eq!(bits(&got), bits(&want), "{q}");
        }
        let (held, cap) = tight.memo_usage();
        assert!(
            0 < held && held <= cap && cap == 100,
            "{held} entries, cap {cap}"
        );
        let (filed, cap) = roomy.memo_usage();
        assert!(100 < filed && filed <= cap, "{filed} entries, cap {cap}");
    }

    /// The memo starts empty wherever tables are made. Messages filed over
    /// initialized tables are gone once `calibrate` changes them, so the
    /// calibrated state answers as a cold one; a clone of warm tables and
    /// the tables restricted to evidence hold nothing. Every one of them,
    /// and an engine over a tree of another size, has the same cap.
    #[test]
    fn calibrating_or_copying_the_tables_empties_the_memo() {
        let bn = fixtures::chain(10, 3, 4);
        let tree = build_junction_tree(&bn).unwrap();
        let rooted = RootedTree::new(&tree);
        let mut ns = NumericState::initialize(&tree, &bn).unwrap();
        let scopes = scopes(&bn);
        for q in &scopes {
            let st = SteinerTree::extract(&tree, &rooted, q).unwrap();
            let rt = ReducedTree::from_steiner(&tree, &rooted, &st, Some(&ns));
            if rt.len() > 1 {
                rt.answer(q, tree.domain()).unwrap();
            }
        }
        assert!(
            ns.memo().usage().0 > 0,
            "test premise: uncalibrated messages"
        );
        ns.calibrate(&tree, &rooted).unwrap();
        let warm = QueryEngine::from_calibrated(&tree, ns);
        assert_eq!(warm.memo_usage().0, 0);
        for q in &scopes {
            let (got, cost) = warm.answer(q).unwrap();
            let (want, want_cost) = cold(&warm).answer(q).unwrap();
            assert_eq!(bits(&got), bits(&want), "{q}");
            assert_eq!(cost, want_cost, "{q}");
        }
        assert!(warm.memo_usage().0 > 0, "test premise: a warm memo");
        let cap = 1 << 20;
        let copy = QueryEngine::from_calibrated(&tree, warm.numeric_state().unwrap().clone());
        assert_eq!(copy.memo_usage(), (0, cap));
        let session = warm.restricted_to_evidence(&[(Var(4), 2)]).unwrap();
        assert_eq!(session.memo_usage(), (0, cap));
        assert_eq!(warm.memo_usage().1, cap);
        assert_eq!(cold(&warm).memo_usage(), (0, cap));
        // one bound whatever the slab
        let other_bn = fixtures::chain(6, 2, 3);
        let other_tree = build_junction_tree(&other_bn).unwrap();
        let other = QueryEngine::numeric(&other_tree, &other_bn).unwrap();
        let slab_len = |e: &QueryEngine<'_>| e.numeric_state().unwrap().arena().slab().len();
        assert_ne!(slab_len(&other), slab_len(&warm), "test premise");
        assert_eq!(other.memo_usage().1, cap);
    }
}
