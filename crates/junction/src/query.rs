//! High-level query API over a junction tree: the plain **JT** method of the
//! paper's evaluation (no extra materialization).

use crate::calibrate::NumericState;
use crate::cost::QueryCost;
use crate::memo::MessageMemo;
use crate::reduced::ReducedTree;
use crate::rooted::RootedTree;
use crate::steiner::SteinerTree;
use crate::tree::{CliqueId, JunctionTree};
use peanut_pgm::{BayesianNetwork, PgmError, Potential, Scope, Scratch, Var};

/// How a query will be processed: over its Steiner tree `T`, or — for
/// [`QueryEngine::plan_reduced`] — that tree and its plan.
#[derive(Clone, Debug)]
pub enum QueryPlan<T = SteinerTree> {
    /// All query variables lie in one clique: direct marginalization.
    InClique(CliqueId),
    /// Out-of-clique: message passing over a Steiner tree.
    OutOfClique(T),
}

/// A junction tree prepared for query answering.
///
/// Owns the rooted view and (optionally) the calibrated dense potentials.
/// Without potentials the engine runs in *symbolic* mode: it computes exact
/// operation counts but cannot produce numeric answers (this is how the
/// paper evaluates the datasets whose calibration is infeasible).
///
/// A numeric engine also keeps the directed messages its answers send, for
/// its lifetime, in a bounded memo (`crate::reduced`, "The message memo").
/// The memo belongs to the calibrated tables: an engine restricted to
/// evidence or rebuilt from a slab starts with an empty one.
pub struct QueryEngine<'t> {
    tree: &'t JunctionTree,
    rooted: RootedTree,
    numeric: Option<NumericState>,
    memo: MessageMemo,
}

impl<'t> QueryEngine<'t> {
    /// An engine over `numeric`'s tables (none: symbolic), with an empty
    /// message memo sized to them.
    fn over(tree: &'t JunctionTree, rooted: RootedTree, numeric: Option<NumericState>) -> Self {
        let slab = numeric.as_ref().map_or(0, |ns| ns.arena().slab().len());
        QueryEngine {
            tree,
            rooted,
            numeric,
            memo: MessageMemo::new(slab),
        }
    }

    /// Symbolic engine (size-only).
    pub fn symbolic(tree: &'t JunctionTree) -> Self {
        Self::over(tree, RootedTree::new(tree), None)
    }

    /// Numeric engine: initializes and calibrates dense potentials.
    pub fn numeric(tree: &'t JunctionTree, bn: &BayesianNetwork) -> Result<Self, PgmError> {
        let rooted = RootedTree::new(tree);
        let mut ns = NumericState::initialize(tree, bn)?;
        ns.calibrate(tree, &rooted)?;
        Ok(Self::over(tree, rooted, Some(ns)))
    }

    /// Numeric engine over an **already calibrated** state — the store
    /// rehydration path. Skips initialization and the two Hugin passes
    /// entirely; the caller vouches that `ns` holds this tree's calibrated
    /// tables (e.g. a persisted arena slab reattached via
    /// [`NumericState::from_calibrated_slab`]).
    pub fn from_calibrated(tree: &'t JunctionTree, ns: NumericState) -> Self {
        debug_assert!(ns.is_calibrated(), "rehydration requires calibrated state");
        Self::over(tree, RootedTree::new(tree), Some(ns))
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
    /// a fixed multiple of the calibrated slab (`(0, 0)` when symbolic).
    pub fn memo_usage(&self) -> (usize, usize) {
        self.memo.usage()
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

    /// [`plan`](Self::plan), with an out-of-clique query's Steiner tree
    /// planned as [`reduced_for`](Self::reduced_for) plans it — except that
    /// this plan is the engine's own, bound to `query` and the engine's
    /// message memo: answering `query` on it, or on a contraction of it,
    /// takes and files messages there (`crate::reduced`, "The message
    /// memo"). This engine's doors run these plans, and the online phase
    /// shrinks them with shortcut potentials before running them.
    pub fn plan_reduced(
        &self,
        query: &Scope,
    ) -> Result<QueryPlan<(SteinerTree, ReducedTree<'_>)>, PgmError> {
        Ok(match self.plan(query)? {
            QueryPlan::InClique(u) => QueryPlan::InClique(u),
            QueryPlan::OutOfClique(st) => {
                let ns = self.numeric.as_ref();
                let rt = ReducedTree::from_steiner(self.tree, &self.rooted, &st, ns);
                // a symbolic plan never answers: nothing to bind
                let rt = match ns {
                    Some(_) => rt.with_memo(&self.memo, query),
                    None => rt,
                };
                QueryPlan::OutOfClique((st, rt))
            }
        })
    }

    /// The reduced tree a query would be processed on (`None` for in-clique
    /// queries): a view borrowing this engine's tree and calibrated tables,
    /// which runs without the message memo.
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
        match self.plan_reduced(query)? {
            QueryPlan::InClique(u) => {
                let pot = ns.clique_table(u).marginalize_in(query, scratch)?;
                let cost = QueryCost::in_clique(self.tree.clique(u), self.tree.domain());
                Ok((pot, cost))
            }
            QueryPlan::OutOfClique((_, rt)) => rt.answer_in(query, self.tree.domain(), scratch),
        }
    }

    /// An evidence-restricted engine over the same tree: clique tables of
    /// the result hold `P(X_u, e)` ([`NumericState::with_evidence`]), so a
    /// marginal answered on it and normalized is `P(targets | e)` — without
    /// ever forming the joint over `targets ∪ vars(evidence)`. The two
    /// recalibration passes are paid here, once; a stream of queries under
    /// the same pinned evidence then runs as plain marginals: each charged
    /// its plain count toward `r_q`, each pass run toward its cheapest
    /// Steiner member. The restricted engine's message memo starts empty:
    /// none of this engine's messages holds for its tables. Requires
    /// numeric mode.
    pub fn restricted_to_evidence(
        &self,
        evidence: &[(Var, u32)],
    ) -> Result<QueryEngine<'t>, PgmError> {
        let ns = self.numeric.as_ref().ok_or(PgmError::SymbolicEngine)?;
        let restricted = ns.with_evidence(self.tree, &self.rooted, evidence)?;
        Ok(Self::over(self.tree, self.rooted.clone(), Some(restricted)))
    }

    /// Conditional distribution `P(targets | evidence)` via the paper's
    /// §3.1 reduction: answer the joint over `targets ∪ vars(evidence)`,
    /// restrict it to the evidence values and renormalize.
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
        // another one leaves no consistent entry — an all-zero answer, as
        // on a tree the evidence was absorbed into
        if let Some(&(_, pinned)) = evidence[..i].iter().find(|&&(u, _)| u == v) {
            contradicted |= pinned != value;
            continue;
        }
        let next = restricted.restrict_in(v, value, scratch)?;
        scratch.recycle(restricted);
        restricted = next;
    }
    if contradicted {
        restricted.values_mut().fill(0.0);
    }
    restricted.normalize();
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
    fn repeated_evidence_is_one_pin_and_a_contradiction_is_all_zero() {
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
        // two values for one variable: nothing is consistent with both
        let (none, _) = eng.conditional(&l, &[(a, 0), (a, 1)]).unwrap();
        assert_eq!(none.scope(), &l);
        assert!(none.values().iter().all(|&v| v == 0.0));
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

    /// Only a plan bound to its own query reads the memo, and nothing else
    /// fills it. A constant table planted under every key a pass for
    /// `{x0, x7}` could look up changes what the engine answers for it;
    /// the same plan answered for `{x0}`, the plans `reduced_for` and
    /// `from_steiner` build (one over members that are no Steiner tree) and
    /// `region_joints` answer as on a clean engine, and file nothing.
    #[test]
    fn only_a_bound_plan_reads_the_memo() {
        use crate::reduced::region_joints;
        let bn = fixtures::chain(8, 3, 5);
        let tree = build_junction_tree(&bn).unwrap();
        let d = bn.domain();
        let clean = QueryEngine::numeric(&tree, &bn).unwrap();
        let planted = cold(&clean);
        let (q, x0) = (Scope::from_indices(&[0, 7]), Scope::from_indices(&[0]));
        for &(a, b) in tree.edges() {
            for (u, p) in [(a, b), (b, a)] {
                for held in [&[][..], &[0], &[7], &[0, 7]] {
                    let sep = tree.clique(u).intersect(tree.clique(p));
                    let scope = sep.union(&Scope::from_indices(held));
                    let table = Potential::filled(scope, d, 0.5).unwrap();
                    let mut key = vec![u as u32, p as u32];
                    key.extend(held);
                    planted.memo.plant(key, table);
                }
            }
        }
        let (got, _) = planted.answer(&q).unwrap();
        let (want, _) = clean.answer(&q).unwrap();
        assert_ne!(
            bits(&got),
            bits(&want),
            "the bound plan takes what was planted"
        );

        let filled = planted.memo_usage();
        let QueryPlan::OutOfClique((st, bound)) = planted.plan_reduced(&q).unwrap() else {
            panic!("{q} is out of clique");
        };
        let clean_plan = clean.reduced_for(&q).unwrap().unwrap();
        let answer = |rt: &ReducedTree<'_>, q: &Scope| bits(&rt.answer(q, d).unwrap().0);
        assert_eq!(answer(&bound, &x0), answer(&clean_plan, &x0));
        let unbound = planted.reduced_for(&q).unwrap().unwrap();
        assert_eq!(answer(&unbound, &q), bits(&want));
        let (ns, rooted) = (planted.numeric_state(), planted.rooted());
        let everything = SteinerTree::from_parts((0..tree.n_cliques()).collect(), tree.pivot());
        for members in [&st, &everything] {
            let external = ReducedTree::from_steiner(&tree, rooted, members, ns);
            let reference =
                ReducedTree::from_steiner(&tree, rooted, members, clean.numeric_state());
            assert_eq!(answer(&external, &q), answer(&reference, &q));
        }
        let all: Vec<usize> = (0..tree.n_cliques()).collect();
        let region = [(&all[..], tree.pivot(), &q)];
        let built = region_joints(&tree, rooted, ns.unwrap(), &region).unwrap();
        let want_built = region_joints(&tree, rooted, clean.numeric_state().unwrap(), &region);
        assert_eq!(bits(&built[0].0), bits(&want_built.unwrap()[0].0));
        assert_eq!(planted.memo_usage(), filled, "only the bound plan files");
    }

    /// A stream that would file more than the cap leaves the memo within
    /// it, answering as an engine with room to spare does.
    #[test]
    fn the_memo_holds_no_more_than_its_cap() {
        let bn = fixtures::chain(12, 4, 2);
        let tree = build_junction_tree(&bn).unwrap();
        let roomy = QueryEngine::numeric(&tree, &bn).unwrap();
        let mut tight = cold(&roomy);
        tight.memo = MessageMemo::with_cap(100);
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
}
