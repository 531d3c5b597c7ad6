//! Shortcut potentials (paper §3.2).
//!
//! A shortcut potential `S` is identified by a connected subtree `T_S ⊆ T`;
//! it is the joint distribution of the variables in the separators that cut
//! `T_S` out of `T` (its scope `X_S`), and materializing it costs
//! `μ(S) = ∏_{x ∈ X_S} α(x)` table entries.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use crate::util::BitSet;
use peanut_junction::{region_joints, JunctionTree, NumericState, RootedTree};
use peanut_pgm::{PgmError, Potential, Scope, Size};

/// A shortcut potential: subtree, cut, scope and size (§3.2).
#[derive(Clone, Debug)]
pub struct Shortcut {
    /// `V(S)`: member cliques, ascending id.
    nodes: Vec<usize>,
    /// Membership bitset over clique ids.
    node_set: BitSet,
    /// `r_S`: the member closest to the pivot.
    root: usize,
    /// `D(S)`: the cliques outside `V(S)` whose parent is inside, as a
    /// bitset — the lower ends of the downward cut edges.
    frontier_set: BitSet,
    /// `cut(S)`: edge ids with exactly one endpoint in `V(S)`.
    cut: Vec<usize>,
    /// `X_S`: union of the cut separators' scopes.
    scope: Scope,
    /// `μ(S) = ∏_{x ∈ X_S} α(x)`.
    size: Size,
}

impl Shortcut {
    /// Builds a shortcut from its member cliques, validating connectivity
    /// and computing cut, scope and size.
    pub fn from_nodes(
        tree: &JunctionTree,
        rooted: &RootedTree,
        mut nodes: Vec<usize>,
    ) -> Result<Self, PgmError> {
        nodes.sort_unstable();
        nodes.dedup();
        if nodes.is_empty() {
            let detail = "empty shortcut subtree".into();
            return Err(PgmError::InvalidRegion { detail });
        }
        let node_set = BitSet::from_members(tree.n_cliques(), nodes.iter().copied());
        // connectivity + root: exactly one member whose parent is not a
        // member (or which is the global root)
        let mut tops = nodes
            .iter()
            .copied()
            .filter(|&u| rooted.parent(u).is_none_or(|p| !node_set.contains(p)));
        let (Some(root), None) = (tops.next(), tops.next()) else {
            let detail = format!(
                "shortcut subtree is not connected ({} components)",
                2 + tops.count()
            );
            return Err(PgmError::InvalidRegion { detail });
        };

        // cut: the root's parent edge plus every member-to-nonmember child
        // edge, whose lower ends are D(S)
        let mut cut = Vec::new();
        let mut frontier_set = BitSet::new(tree.n_cliques());
        let mut scope = Scope::empty();
        if let Some(e) = rooted.parent_edge(root) {
            cut.push(e);
            scope = scope.union(tree.separator(e));
        }
        for &u in &nodes {
            for &(w, e) in tree.neighbors(u) {
                if rooted.parent(w) == Some(u) && !node_set.contains(w) {
                    frontier_set.insert(w);
                    cut.push(e);
                    scope = scope.union(tree.separator(e));
                }
            }
        }
        cut.sort_unstable();
        let size = peanut_pgm::table_size(&scope, tree.domain());
        Ok(Shortcut {
            nodes,
            node_set,
            root,
            frontier_set,
            cut,
            scope,
            size,
        })
    }

    /// `V(S)`, ascending clique ids.
    #[inline]
    pub fn nodes(&self) -> &[usize] {
        &self.nodes
    }

    /// Membership bitset.
    #[inline]
    pub fn node_set(&self) -> &BitSet {
        &self.node_set
    }

    /// The frontier `D(S)` as a bitset: a query's Steiner tree leaves `V(S)`
    /// downward exactly through these cliques, which is what usefulness
    /// (Def. 3.1) tests.
    #[inline]
    pub fn frontier_set(&self) -> &BitSet {
        &self.frontier_set
    }

    /// `r_S`.
    #[inline]
    pub fn root(&self) -> usize {
        self.root
    }

    /// `cut(S)` edge ids.
    #[inline]
    pub fn cut(&self) -> &[usize] {
        &self.cut
    }

    /// `X_S`.
    #[inline]
    pub fn scope(&self) -> &Scope {
        &self.scope
    }

    /// `μ(S)`.
    #[inline]
    pub fn size(&self) -> Size {
        self.size
    }

    /// True when the two shortcuts share a clique (used by PEANUT+'s
    /// conflict graph).
    pub fn overlaps(&self, other: &Shortcut) -> bool {
        self.node_set.intersects(&other.node_set)
    }

    /// Materializes the joint `P(X_S)` from a calibrated tree by message
    /// passing inside `T_S`, returning the table and the operation count of
    /// computing it (charged to the offline phase) — the one-region case of
    /// [`region_joints`], which builds several shortcuts' tables at once.
    pub fn materialize(
        &self,
        tree: &JunctionTree,
        rooted: &RootedTree,
        numeric: &NumericState,
    ) -> Result<(Potential, Size), PgmError> {
        let region = (self.nodes.as_slice(), self.root, &self.scope);
        let mut built = region_joints(tree, rooted, numeric, &[region])?;
        #[expect(clippy::expect_used, reason = "one region in, one table out")]
        Ok(built.pop().expect("the region's table"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peanut_junction::build_junction_tree;
    use peanut_pgm::{fixtures, joint};

    fn fig1() -> (peanut_pgm::BayesianNetwork, JunctionTree, RootedTree) {
        let bn = fixtures::figure1();
        let mut tree = build_junction_tree(&bn).unwrap();
        // root at the clique containing b and c, as in the paper's Figure 2
        let d = bn.domain();
        let bc = Scope::from_iter([d.var("b").unwrap(), d.var("c").unwrap()]);
        let pivot = tree.cliques().iter().position(|c| *c == bc).unwrap();
        tree.set_pivot(pivot);
        let rooted = RootedTree::new(&tree);
        (bn, tree, rooted)
    }

    fn clique_named(tree: &JunctionTree, d: &peanut_pgm::Domain, names: &[&str]) -> usize {
        let sc = Scope::from_iter(names.iter().map(|n| d.var(n).unwrap()));
        tree.cliques().iter().position(|c| *c == sc).unwrap()
    }

    #[test]
    fn paper_figure2_shortcut() {
        // The paper's Figure 2 shortcut is the subtree {egh, ce} with scope
        // {c, e, g} in *their* tree (where both ef and egh hang off ce). In
        // our tree egh hangs off ef (an equally valid MST), so the analogous
        // connected region is {ce, ef, egh}; its cut is bc–ce (over c) and
        // egh–gil (over g) — the e-separators are internal — giving scope
        // {c, g} and size 4.
        let (bn, tree, rooted) = fig1();
        let d = bn.domain();
        let region = vec![
            clique_named(&tree, d, &["c", "e"]),
            clique_named(&tree, d, &["e", "f"]),
            clique_named(&tree, d, &["e", "g", "h"]),
        ];
        let s = Shortcut::from_nodes(&tree, &rooted, region).unwrap();
        let expect = Scope::from_iter([d.var("c").unwrap(), d.var("g").unwrap()]);
        assert_eq!(s.scope(), &expect);
        assert_eq!(s.size(), 4);
        assert_eq!(s.cut().len(), 2);

        // the two-clique region {ce, ef} reproduces a three-separator cut:
        // bc–ce (c), ef–egh (e) ⇒ scope {c, e}
        let region2 = vec![
            clique_named(&tree, d, &["c", "e"]),
            clique_named(&tree, d, &["e", "f"]),
        ];
        let s2 = Shortcut::from_nodes(&tree, &rooted, region2).unwrap();
        let expect2 = Scope::from_iter([d.var("c").unwrap(), d.var("e").unwrap()]);
        assert_eq!(s2.scope(), &expect2);
    }

    #[test]
    fn disconnected_nodes_rejected() {
        let (bn, tree, rooted) = fig1();
        let d = bn.domain();
        let nodes = vec![
            clique_named(&tree, d, &["a", "b", "d"]),
            clique_named(&tree, d, &["g", "i", "l"]),
        ];
        for nodes in [nodes, vec![]] {
            let err = Shortcut::from_nodes(&tree, &rooted, nodes);
            assert!(matches!(err, Err(PgmError::InvalidRegion { .. })));
        }
    }

    #[test]
    fn whole_tree_shortcut_has_empty_scope() {
        let (_, tree, rooted) = fig1();
        let all: Vec<usize> = (0..tree.n_cliques()).collect();
        let s = Shortcut::from_nodes(&tree, &rooted, all).unwrap();
        assert!(s.scope().is_empty());
        assert_eq!(s.size(), 1);
        assert!(s.cut().is_empty());
        assert!(s.frontier_set().is_empty());
    }

    #[test]
    fn materialized_table_is_brute_force_marginal() {
        let (bn, tree, rooted) = fig1();
        let d = bn.domain();
        let mut ns = NumericState::initialize(&tree, &bn).unwrap();
        ns.calibrate(&tree, &rooted).unwrap();
        let region = vec![
            clique_named(&tree, d, &["c", "e"]),
            clique_named(&tree, d, &["e", "f"]),
            clique_named(&tree, d, &["e", "g", "h"]),
        ];
        let s = Shortcut::from_nodes(&tree, &rooted, region).unwrap();
        let (pot, ops) = s.materialize(&tree, &rooted, &ns).unwrap();
        let want = joint::marginal(&bn, s.scope()).unwrap();
        assert!(pot.max_abs_diff(&want).unwrap() < 1e-9);
        assert!(ops > 0);
    }

    #[test]
    fn overlap_and_frontier() {
        let (bn, tree, rooted) = fig1();
        let d = bn.domain();
        let ce = clique_named(&tree, d, &["c", "e"]);
        let ef = clique_named(&tree, d, &["e", "f"]);
        let egh = clique_named(&tree, d, &["e", "g", "h"]);
        let gil = clique_named(&tree, d, &["g", "i", "l"]);
        let s1 = Shortcut::from_nodes(&tree, &rooted, vec![ce, ef]).unwrap();
        let s2 = Shortcut::from_nodes(&tree, &rooted, vec![ef, egh]).unwrap();
        let s3 = Shortcut::from_nodes(&tree, &rooted, vec![gil]).unwrap();
        assert!(s1.overlaps(&s2));
        assert!(!s1.overlaps(&s3));
        // frontier of {ce, ef}: children outside = egh
        assert_eq!(s1.frontier_set().iter().collect::<Vec<_>>(), vec![egh]);
    }
}
