//! Hugin calibration: after a collect and a distribute pass, every clique
//! potential equals the joint marginal of its scope and every separator
//! potential equals the joint marginal of the separator.
//!
//! Numeric tables live in a [`TreeArena`]: one contiguous `f64` slab with
//! per-table spans, written in place by the span kernels. Calibrating
//! therefore produces a single relocatable buffer — see [`crate::arena`].

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use crate::arena::{ArenaLayout, TreeArena};
use crate::memo::MessageMemo;
use crate::rooted::RootedTree;
use crate::tree::{CliqueId, EdgeId, JunctionTree};
use peanut_pgm::{
    divide_views, mul_assign_bcast, product_onto, BayesianNetwork, NetworkBuilder, PgmError, Scope,
    Scratch, TableRef, Var,
};
use std::sync::{Arc, OnceLock};

/// What tables made from a network keep of it: each variable's parents,
/// and the network with its CPTs recovered from the calibrated tables, made
/// on first use ([`NumericState::network`]).
#[derive(Debug)]
struct KeptNetwork {
    parents: Vec<Vec<Var>>,
    recovered: OnceLock<Option<Arc<BayesianNetwork>>>,
}

/// Dense clique and separator potentials attached to a junction tree,
/// stored as spans of one flat arena slab, with the message memo every
/// numeric pass over them shares (`crate::memo`).
///
/// Creation fails with [`PgmError::TableTooLarge`] when any clique exceeds
/// the dense-materialization limit; callers then fall back to the symbolic
/// (size-only) pipeline, exactly as the paper runs TPC-H, Munin and Barley
/// uncalibrated.
///
/// Tables made from a network ([`initialize`](Self::initialize)) keep its
/// parent lists, in one `Arc` that every clone shares, and recover its
/// CPTs from the calibrated tables on first use ([`network`](Self::network)),
/// so an engine over them can answer from the CPTs directly (pruned
/// variable elimination: `peanut_ve::VePlan`). Tables reattached from a
/// slab, or restricted to evidence, have none.
#[derive(Clone, Debug)]
pub struct NumericState {
    arena: TreeArena,
    calibrated: bool,
    /// What these tables keep of the network they were initialized from.
    network: Option<Arc<KeptNetwork>>,
    /// Messages of these tables; empty wherever the tables are made, a
    /// clone's included, until a page cycle's fault-in adopts the ones
    /// sent over the same tables ([`adopt_memo`](Self::adopt_memo)).
    memo: MessageMemo,
}

impl NumericState {
    /// Initializes clique tables as the product of their assigned CPTs
    /// (expanded onto the full clique scope) and separator tables as
    /// all-ones, multiplying CPTs directly into the arena spans.
    pub fn initialize(tree: &JunctionTree, bn: &BayesianNetwork) -> Result<Self, PgmError> {
        let mut scratch = Scratch::new();
        let mut arena = TreeArena::zeroed(tree)?;
        for u in 0..tree.n_cliques() {
            let factors: Vec<TableRef<'_>> = tree
                .assigned_factors(u)
                .iter()
                .map(|&v| bn.cpt(v).view())
                .collect();
            let (scope, cards, values) = arena.clique_mut(u);
            product_onto(scope, cards, values, &factors, &mut scratch)?;
        }
        for e in 0..tree.edges().len() {
            arena.separator_values_mut(e).fill(1.0);
        }
        Ok(NumericState {
            memo: MessageMemo::new(),
            arena,
            calibrated: false,
            network: Some(Arc::new(KeptNetwork {
                parents: bn
                    .domain()
                    .all_vars()
                    .map(|v| bn.parents(v).to_vec())
                    .collect(),
                recovered: OnceLock::new(),
            })),
        })
    }

    /// Runs the two Hugin passes (collect toward the pivot, then distribute
    /// back), and empties the message memo. Idempotent once calibrated.
    pub fn calibrate(&mut self, tree: &JunctionTree, rooted: &RootedTree) -> Result<(), PgmError> {
        self.memo = MessageMemo::new();
        let mut scratch = Scratch::new();
        // collect: children before parents
        // (a node has a parent edge exactly when it has a parent)
        let order: Vec<CliqueId> = rooted.dfs_order().to_vec();
        for &u in order.iter().rev() {
            let Some((p, e)) = rooted.parent(u).zip(rooted.parent_edge(u)) else {
                continue;
            };
            self.pass_message(tree, u, p, e, &mut scratch)?;
        }
        // distribute: parents before children
        for &u in &order {
            for &c in rooted.children(u) {
                if let Some(e) = rooted.parent_edge(c) {
                    self.pass_message(tree, u, c, e, &mut scratch)?;
                }
            }
        }
        self.calibrated = true;
        Ok(())
    }

    /// Hugin absorption `from → to` over edge `e`:
    /// `m = marginalize(ψ_from, sep)`, `ψ_to *= m / φ_e`, `φ_e = m`.
    ///
    /// `ψ_to` is updated in place in its slab span; only the message and the
    /// update quotient are transient tables (recycled through the scratch
    /// pool).
    fn pass_message(
        &mut self,
        tree: &JunctionTree,
        from: CliqueId,
        to: CliqueId,
        e: EdgeId,
        scratch: &mut Scratch,
    ) -> Result<(), PgmError> {
        let m = self
            .arena
            .clique(from)
            .marginalize_in(tree.separator(e), scratch)?;
        let update = divide_views(m.view(), self.arena.separator(e), scratch)?;
        let (scope, cards, values) = self.arena.clique_mut(to);
        mul_assign_bcast(scope, cards, values, update.view(), scratch)?;
        self.arena
            .separator_values_mut(e)
            .copy_from_slice(m.values());
        scratch.recycle(update);
        scratch.recycle(m);
        Ok(())
    }

    /// Absorbs an evidence assignment into a **copy** of this state and
    /// returns it re-calibrated: every clique table of the result holds the
    /// restricted joint `P(X_u, e)` (and every separator `P(sep, e)`).
    ///
    /// This is the Hugin evidence-entry step: for each `(var, value)` pair
    /// the entries inconsistent with `value` are zeroed in *one* clique
    /// containing `var`, then the two calibration passes propagate the
    /// restriction through the whole tree. The caller pays two full passes
    /// **once** per evidence context — the seam the serving layer's
    /// evidence sessions amortize a pinned-evidence query stream over —
    /// after which marginals of the restricted state are plain
    /// single-table or Steiner-tree work, never a joint over
    /// `targets ∪ vars(evidence)`.
    ///
    /// Impossible evidence (probability zero under the model, or two pairs
    /// contradicting each other on one variable) fails with
    /// [`PgmError::ImpossibleEvidence`], as on the per-query conditional
    /// path: the propagated tables would hold no mass to condition on.
    /// Unknown variables and out-of-range values fail with
    /// [`PgmError::UnknownVar`] / [`PgmError::ValueOutOfRange`].
    pub fn with_evidence(
        &self,
        tree: &JunctionTree,
        rooted: &RootedTree,
        evidence: &[(Var, u32)],
    ) -> Result<NumericState, PgmError> {
        let domain = tree.domain();
        for &(v, value) in evidence {
            if (v.0 as usize) >= domain.len() {
                return Err(PgmError::UnknownVar(v));
            }
            let card = domain.card(v);
            if value >= card {
                return Err(PgmError::ValueOutOfRange {
                    var: v,
                    value,
                    card,
                });
            }
        }
        // the restricted tables hold `P(X_u, e)`: no CPT is read off them
        let mut restricted = NumericState {
            network: None,
            ..self.clone()
        };
        for &(v, value) in evidence {
            // the running-intersection property guarantees some clique
            // contains every domain variable the factor assignment touched;
            // zeroing in exactly one clique is the standard likelihood entry
            let u = (0..tree.n_cliques())
                .find(|&u| tree.clique(u).contains(v))
                .ok_or(PgmError::UnknownVar(v))?;
            let (scope, cards, values) = restricted.arena.clique_mut(u);
            let axis = scope.position(v).ok_or(PgmError::UnknownVar(v))?;
            // row-major, last variable fastest: the kept entries for
            // `v = value` form one `inner`-wide slice per `block`
            let inner: usize = cards[axis + 1..].iter().map(|&c| c as usize).product();
            let keep = value as usize * inner;
            let block = inner * cards[axis] as usize;
            for chunk in values.chunks_mut(block) {
                chunk[..keep].fill(0.0);
                chunk[keep + inner..].fill(0.0);
            }
        }
        restricted.calibrate(tree, rooted)?;
        // every calibrated clique of the (connected) tree sums to P(e)
        if restricted.clique_table(0).values().iter().sum::<f64>() <= 0.0 {
            return Err(PgmError::ImpossibleEvidence(evidence.to_vec()));
        }
        Ok(restricted)
    }

    /// Reattaches an already-calibrated value slab to a freshly laid-out
    /// arena — no CPT products, no Hugin passes, one `memcpy` of `slab`.
    /// The slab must come from a tree with the identical layout (same
    /// cliques, same domain); a length mismatch fails with
    /// [`PgmError::CorruptStore`] rather than attaching values to the wrong
    /// spans. A rebuild that already has a layout moves its slab onto it
    /// ([`QueryEngine::with_calibrated_slab`](crate::QueryEngine::with_calibrated_slab)).
    pub fn from_calibrated_slab(tree: &JunctionTree, slab: &[f64]) -> Result<Self, PgmError> {
        let layout = Arc::new(ArenaLayout::of(tree)?);
        Ok(Self::calibrated(TreeArena::with_slab(
            layout,
            slab.to_vec(),
        )?))
    }

    /// Calibrated tables held in `arena`, with an empty memo and no
    /// network.
    pub(crate) fn calibrated(arena: TreeArena) -> Self {
        NumericState {
            memo: MessageMemo::new(),
            arena,
            calibrated: true,
            network: None,
        }
    }

    /// The network these tables were initialized from, its CPTs recovered
    /// from the calibrated tables, once for every clone: `P(v | pa(v))` is
    /// the family's marginal, read off the clique its CPT was assigned to,
    /// divided by the parents' — the CPT up to rounding. `None` for tables
    /// reattached from a slab or restricted to evidence, before
    /// calibration, and where a parent configuration has probability zero
    /// (its CPT row is not in the tables).
    pub fn network(&self, tree: &JunctionTree) -> Option<Arc<BayesianNetwork>> {
        let kept = self.network.as_ref().filter(|_| self.calibrated)?;
        kept.recovered
            .get_or_init(|| self.recover(tree, &kept.parents).ok().map(Arc::new))
            .clone()
    }

    fn recover(
        &self,
        tree: &JunctionTree,
        parents: &[Vec<Var>],
    ) -> Result<BayesianNetwork, PgmError> {
        let domain = tree.domain();
        let mut network = NetworkBuilder::new();
        for v in domain.all_vars() {
            network.try_var(domain.name(v), domain.card(v))?;
        }
        let mut scratch = Scratch::new();
        for u in 0..tree.n_cliques() {
            for &v in tree.assigned_factors(u) {
                let above = &parents[v.index()];
                let mut family = Scope::from_iter(above.iter().copied());
                family.insert(v);
                let joint = self.clique_table(u).marginalize_in(&family, &mut scratch)?;
                let below =
                    joint.marginalize_in(&Scope::from_iter(above.iter().copied()), &mut scratch)?;
                let cpt = divide_views(joint.view(), below.view(), &mut scratch)?;
                scratch.recycle(joint);
                scratch.recycle(below);
                network.cpt_potential(v, above, cpt)?;
            }
        }
        // a parent configuration of probability zero leaves an all-zero
        // row, which fails the builder's normalization check
        network.build()
    }

    /// True once [`calibrate`](Self::calibrate) has run.
    #[inline]
    pub fn is_calibrated(&self) -> bool {
        self.calibrated
    }

    /// The flat storage arena holding every table.
    #[inline]
    pub fn arena(&self) -> &TreeArena {
        &self.arena
    }

    /// The message memo of these tables.
    #[inline]
    pub(crate) fn memo(&self) -> &MessageMemo {
        &self.memo
    }

    /// Makes `memo` the memo of these tables. The caller vouches that its
    /// messages were sent over tables bit-identical to these (`crate::memo`).
    pub(crate) fn adopt_memo(&mut self, memo: MessageMemo) {
        self.memo = memo;
    }

    /// These tables with an empty memo of `cap` entries, for tests that
    /// overrun it.
    #[cfg(test)]
    pub(crate) fn with_memo_cap(mut self, cap: usize) -> Self {
        self.memo = MessageMemo::with_cap(cap);
        self
    }

    /// Calibrated clique table (the joint marginal `P(X_u)`) as a borrowed
    /// view into the arena slab.
    #[inline]
    pub fn clique_table(&self, u: CliqueId) -> TableRef<'_> {
        self.arena.clique(u)
    }

    /// Calibrated separator table (the joint marginal of the separator) as
    /// a borrowed view into the arena slab.
    #[inline]
    pub fn separator_table(&self, e: EdgeId) -> TableRef<'_> {
        self.arena.separator(e)
    }

    /// Maximum disagreement between adjacent cliques on their separator
    /// marginal — zero (up to float error) iff calibrated; NaN when a
    /// compared entry is NaN.
    pub fn local_consistency_error(&self, tree: &JunctionTree) -> Result<f64, PgmError> {
        let mut scratch = Scratch::new();
        let mut worst = 0.0f64;
        for (e, &(u, v)) in tree.edges().iter().enumerate() {
            let sep = tree.separator(e);
            let mu = self.arena.clique(u).marginalize_in(sep, &mut scratch)?;
            let mv = self.arena.clique(v).marginalize_in(sep, &mut scratch)?;
            let phi = self.arena.separator(e).to_potential();
            for diff in [mu.max_abs_diff(&mv)?, mu.max_abs_diff(&phi)?] {
                // `f64::max` would drop it
                if diff.is_nan() {
                    return Ok(f64::NAN);
                }
                worst = worst.max(diff);
            }
        }
        Ok(worst)
    }
}

/// The pre-arena numeric state — per-node `Vec<f64>` tables driven by the
/// legacy append-based kernels — kept as the differential baseline. The
/// calibration differential suite runs both implementations over the same
/// tree and asserts every table is byte-identical.
#[cfg(any(test, feature = "legacy-kernels"))]
pub mod legacy_state {
    use super::*;
    use peanut_pgm::potential::legacy as lk;
    use peanut_pgm::Potential;

    /// Per-node owned potentials, original layout and kernels.
    #[derive(Clone, Debug)]
    pub struct LegacyNumericState {
        clique_pots: Vec<Potential>,
        sep_pots: Vec<Potential>,
    }

    impl LegacyNumericState {
        /// Original initialization: ones potential times assigned CPTs.
        pub fn initialize(tree: &JunctionTree, bn: &BayesianNetwork) -> Result<Self, PgmError> {
            let mut scratch = Scratch::new();
            let mut clique_pots = Vec::with_capacity(tree.n_cliques());
            for u in 0..tree.n_cliques() {
                let mut factors: Vec<&Potential> = Vec::new();
                let ones = Potential::ones(tree.clique(u).clone(), tree.domain())?;
                factors.push(&ones);
                for &v in tree.assigned_factors(u) {
                    factors.push(bn.cpt(v));
                }
                clique_pots.push(lk::product_many_in(&factors, &mut scratch)?);
                scratch.recycle(ones);
            }
            let sep_pots = (0..tree.edges().len())
                .map(|e| Potential::ones(tree.separator(e).clone(), tree.domain()))
                .collect::<Result<_, _>>()?;
            Ok(LegacyNumericState {
                clique_pots,
                sep_pots,
            })
        }

        /// Original Hugin passes over the owned tables.
        pub fn calibrate(
            &mut self,
            tree: &JunctionTree,
            rooted: &RootedTree,
        ) -> Result<(), PgmError> {
            let mut scratch = Scratch::new();
            let order: Vec<CliqueId> = rooted.dfs_order().to_vec();
            for &u in order.iter().rev() {
                let Some((p, e)) = rooted.parent(u).zip(rooted.parent_edge(u)) else {
                    continue;
                };
                self.pass_message(tree, u, p, e, &mut scratch)?;
            }
            for &u in &order {
                for &c in rooted.children(u) {
                    if let Some(e) = rooted.parent_edge(c) {
                        self.pass_message(tree, u, c, e, &mut scratch)?;
                    }
                }
            }
            Ok(())
        }

        fn pass_message(
            &mut self,
            tree: &JunctionTree,
            from: CliqueId,
            to: CliqueId,
            e: EdgeId,
            scratch: &mut Scratch,
        ) -> Result<(), PgmError> {
            let m = lk::marginalize_in(&self.clique_pots[from], tree.separator(e), scratch)?;
            let update = lk::divide_in(&m, &self.sep_pots[e], scratch)?;
            let new_to = lk::product_in(&self.clique_pots[to], &update, scratch)?;
            scratch.recycle(std::mem::replace(&mut self.clique_pots[to], new_to));
            scratch.recycle(update);
            scratch.recycle(std::mem::replace(&mut self.sep_pots[e], m));
            Ok(())
        }

        /// Calibrated clique potential.
        #[inline]
        pub fn clique_potential(&self, u: CliqueId) -> &Potential {
            &self.clique_pots[u]
        }

        /// Calibrated separator potential.
        #[inline]
        pub fn separator_potential(&self, e: EdgeId) -> &Potential {
            &self.sep_pots[e]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_junction_tree;
    use peanut_pgm::{fixtures, joint};

    fn calibrated(bn: &peanut_pgm::BayesianNetwork) -> (JunctionTree, RootedTree, NumericState) {
        let tree = build_junction_tree(bn).unwrap();
        let rooted = RootedTree::new(&tree);
        let mut st = NumericState::initialize(&tree, bn).unwrap();
        st.calibrate(&tree, &rooted).unwrap();
        (tree, rooted, st)
    }

    #[test]
    fn calibration_reaches_local_consistency() {
        for bn in [
            fixtures::sprinkler(),
            fixtures::asia(),
            fixtures::figure1(),
            fixtures::chain(8, 3, 4),
            fixtures::binary_tree(15, 9),
        ] {
            let (tree, _, st) = calibrated(&bn);
            assert!(st.local_consistency_error(&tree).unwrap() < 1e-9);
        }
    }

    /// A NaN clique table is not consistent, whatever its neighbours hold.
    #[test]
    fn a_nan_clique_table_is_inconsistent() {
        let (tree, _, mut st) = calibrated(&fixtures::asia());
        for u in [0, tree.n_cliques() - 1] {
            let mut poisoned = st.clone();
            poisoned.arena.clique_mut(u).2.fill(f64::NAN);
            let err = poisoned.local_consistency_error(&tree).unwrap();
            assert!(err.is_nan(), "clique {u}: {err}");
        }
        st.arena.clique_mut(0).2[0] = f64::NAN;
        assert!(st.local_consistency_error(&tree).unwrap().is_nan());
    }

    #[test]
    fn clique_potentials_equal_joint_marginals() {
        for bn in [fixtures::sprinkler(), fixtures::asia(), fixtures::figure1()] {
            let (tree, _, st) = calibrated(&bn);
            for u in 0..tree.n_cliques() {
                let oracle = joint::marginal(&bn, tree.clique(u)).unwrap();
                let got = st.clique_table(u).to_potential();
                assert!(
                    got.max_abs_diff(&oracle).unwrap() < 1e-9,
                    "clique {u} mismatch"
                );
            }
        }
    }

    #[test]
    fn separator_potentials_equal_joint_marginals() {
        let bn = fixtures::figure1();
        let (tree, _, st) = calibrated(&bn);
        for e in 0..tree.edges().len() {
            let oracle = joint::marginal(&bn, tree.separator(e)).unwrap();
            let got = st.separator_table(e).to_potential();
            assert!(got.max_abs_diff(&oracle).unwrap() < 1e-9);
        }
    }

    #[test]
    fn calibration_independent_of_pivot() {
        let bn = fixtures::figure1();
        let tree = build_junction_tree(&bn).unwrap();
        for pivot in [0, tree.n_cliques() - 1] {
            let rooted = RootedTree::rooted_at(&tree, pivot);
            let mut st = NumericState::initialize(&tree, &bn).unwrap();
            st.calibrate(&tree, &rooted).unwrap();
            let oracle = joint::marginal(&bn, tree.clique(0)).unwrap();
            let got = st.clique_table(0).to_potential();
            assert!(got.max_abs_diff(&oracle).unwrap() < 1e-9);
        }
    }

    #[test]
    fn calibrated_slab_reattaches_bit_identically() {
        let bn = fixtures::figure1();
        let (tree, _, st) = calibrated(&bn);
        let re = NumericState::from_calibrated_slab(&tree, st.arena().slab()).unwrap();
        assert!(re.is_calibrated());
        for (a, b) in re.arena().slab().iter().zip(st.arena().slab()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(re.local_consistency_error(&tree).unwrap() < 1e-9);
        // a slab from a different tree (wrong length) fails loudly
        let other = build_junction_tree(&fixtures::sprinkler()).unwrap();
        assert!(matches!(
            NumericState::from_calibrated_slab(&other, st.arena().slab()),
            Err(PgmError::CorruptStore { .. })
        ));
    }

    #[test]
    fn evidence_absorption_matches_restricted_joints() {
        use peanut_pgm::Var;
        let bn = fixtures::figure1();
        let (tree, rooted, st) = calibrated(&bn);
        let d = bn.domain();
        let evidence = vec![(d.var("a").unwrap(), 1u32), (d.var("l").unwrap(), 0u32)];
        let re = st.with_evidence(&tree, &rooted, &evidence).unwrap();
        assert!(re.is_calibrated());
        // every clique table must equal the joint over clique ∪ evidence,
        // restricted to the evidence values (i.e. P(X_u, e))
        for u in 0..tree.n_cliques() {
            let clique = tree.clique(u);
            let ev_scope = peanut_pgm::Scope::from_iter(evidence.iter().map(|&(v, _)| v));
            let mut oracle = joint::marginal(&bn, &clique.union(&ev_scope)).unwrap();
            let mut got = re.clique_table(u).to_potential();
            let mass = got.sum();
            for &(v, val) in &evidence {
                if oracle.scope().contains(v) {
                    oracle = oracle.restrict(v, val).unwrap();
                }
                if got.scope().contains(v) {
                    got = got.restrict(v, val).unwrap();
                }
            }
            assert!(
                got.max_abs_diff(&oracle).unwrap() < 1e-9,
                "clique {u} restricted mismatch"
            );
            // all mass sits on the evidence-consistent entries
            assert!((got.sum() - mass).abs() < 1e-12, "clique {u} stray mass");
        }
        // contradictory evidence on one variable leaves no mass
        let contradiction = [(d.var("a").unwrap(), 0), (d.var("a").unwrap(), 1)];
        assert!(matches!(
            st.with_evidence(&tree, &rooted, &contradiction),
            Err(PgmError::ImpossibleEvidence(e)) if e == contradiction
        ));
        // validation failures are typed
        assert!(matches!(
            st.with_evidence(&tree, &rooted, &[(Var(9999), 0)]),
            Err(PgmError::UnknownVar(_))
        ));
        let a = d.var("a").unwrap();
        assert!(matches!(
            st.with_evidence(&tree, &rooted, &[(a, d.card(a))]),
            Err(PgmError::ValueOutOfRange { .. })
        ));
    }

    #[test]
    fn evidence_absorption_is_deterministic_bitwise() {
        let bn = fixtures::chain(10, 2, 7);
        let (tree, rooted, st) = calibrated(&bn);
        let d = bn.domain();
        let evidence: Vec<_> = d.all_vars().take(2).map(|v| (v, 1u32)).collect();
        let x = st.with_evidence(&tree, &rooted, &evidence).unwrap();
        let y = st.with_evidence(&tree, &rooted, &evidence).unwrap();
        for (a, b) in x.arena().slab().iter().zip(y.arena().slab()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // the source state is untouched (the absorption copies)
        assert!(st.local_consistency_error(&tree).unwrap() < 1e-9);
        let total: f64 = st.clique_table(0).to_potential().sum();
        assert!((total - 1.0).abs() < 1e-9, "prior tables still normalized");
    }

    /// The network is recovered from the calibrated tables: the same
    /// structure, each CPT within rounding of the original; tables that do
    /// not hold the prior (uncalibrated, restricted, reattached) recover
    /// none.
    #[test]
    fn the_network_is_recovered_from_calibrated_tables() {
        for bn in [
            fixtures::sprinkler(),
            fixtures::figure1(),
            fixtures::chain(8, 3, 4),
        ] {
            let (tree, rooted, st) = calibrated(&bn);
            let got = st.network(&tree).unwrap();
            assert!(Arc::ptr_eq(&got, &st.clone().network(&tree).unwrap()));
            for v in bn.domain().all_vars() {
                assert_eq!(got.parents(v), bn.parents(v));
                let diff = got.cpt(v).max_abs_diff(bn.cpt(v)).unwrap();
                assert!(diff < 1e-12, "CPT of {v:?} off by {diff}");
            }
            let fresh = NumericState::initialize(&tree, &bn).unwrap();
            assert!(fresh.network(&tree).is_none());
            let pinned = [(Var(0), 1)];
            let restricted = st.with_evidence(&tree, &rooted, &pinned).unwrap();
            assert!(restricted.network(&tree).is_none());
            let slab = NumericState::from_calibrated_slab(&tree, st.arena().slab()).unwrap();
            assert!(slab.network(&tree).is_none());
        }
    }

    #[test]
    fn uninitialized_state_not_calibrated() {
        let bn = fixtures::sprinkler();
        let tree = build_junction_tree(&bn).unwrap();
        let st = NumericState::initialize(&tree, &bn).unwrap();
        assert!(!st.is_calibrated());
    }

    /// The tentpole differential: arena calibration must be **byte
    /// identical** to the pre-arena per-node layout, end to end — after
    /// initialization and after full calibration, on every clique and
    /// separator table.
    #[test]
    fn arena_calibration_bit_identical_to_legacy() {
        use super::legacy_state::LegacyNumericState;
        for bn in [
            fixtures::sprinkler(),
            fixtures::asia(),
            fixtures::figure1(),
            fixtures::chain(8, 3, 4),
            fixtures::binary_tree(15, 9),
        ] {
            let tree = build_junction_tree(&bn).unwrap();
            let rooted = RootedTree::new(&tree);
            let mut st = NumericState::initialize(&tree, &bn).unwrap();
            let mut old = LegacyNumericState::initialize(&tree, &bn).unwrap();
            let check = |st: &NumericState, old: &LegacyNumericState, phase: &str| {
                for u in 0..tree.n_cliques() {
                    let new_vals = st.clique_table(u).values();
                    let old_vals = old.clique_potential(u).values();
                    assert_eq!(new_vals.len(), old_vals.len());
                    for (i, (a, b)) in new_vals.iter().zip(old_vals).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{phase}: clique {u} entry {i}: arena {a:?} vs legacy {b:?}"
                        );
                    }
                }
                for e in 0..tree.edges().len() {
                    let new_vals = st.separator_table(e).values();
                    let old_vals = old.separator_potential(e).values();
                    for (a, b) in new_vals.iter().zip(old_vals) {
                        assert_eq!(a.to_bits(), b.to_bits(), "{phase}: separator {e}");
                    }
                }
            };
            check(&st, &old, "post-init");
            st.calibrate(&tree, &rooted).unwrap();
            old.calibrate(&tree, &rooted).unwrap();
            check(&st, &old, "post-calibration");
        }
    }
}
