//! Steiner-tree extraction for out-of-clique queries.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use crate::rooted::RootedTree;
use crate::tree::{CliqueId, JunctionTree};
use peanut_pgm::{PgmError, Scope, Var};

/// The minimal subtree of the junction tree connecting a covering clique for
/// every query variable, rooted at the node closest to the global pivot
/// (`r_q` in the paper).
///
/// Covering-clique choice: for each query variable we pick the containing
/// clique closest to the pivot (ties broken by clique id) — a deterministic
/// heuristic that favors small trees (listed under "Deviations from the
/// paper" in `ARCHITECTURE.md`). Both that choice and the in-clique test
/// read the [`RootedTree`]'s per-variable index — the cliques holding each
/// variable as bits, and its shallowest holder — rather than scanning the
/// cliques.
#[derive(Clone, Debug)]
pub struct SteinerTree {
    /// Member cliques, ascending id.
    nodes: Vec<CliqueId>,
    /// The Steiner root `r_q`: the member closest to the pivot.
    root: CliqueId,
}

impl SteinerTree {
    /// Extracts the Steiner tree for `query` (assumed out-of-clique or not —
    /// a single covering clique simply yields a one-node tree).
    pub fn extract(
        tree: &JunctionTree,
        rooted: &RootedTree,
        query: &Scope,
    ) -> Result<Self, PgmError> {
        if query.is_empty() {
            return Err(PgmError::UnknownName("empty query".into()));
        }
        // single covering clique? (in-clique query): the cliques holding
        // every query variable, the least (size, id) of them
        let mut inside: Option<(u64, CliqueId)> = None;
        for w in 0..rooted.words() {
            let mut word = query
                .iter()
                .fold(u64::MAX, |word, x| word & rooted.holders(x, w));
            while word != 0 {
                let u = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let key = (tree.clique_size(u), u);
                if inside.is_none_or(|least| key < least) {
                    inside = Some(key);
                }
            }
        }
        if let Some((_, u)) = inside {
            return Ok(SteinerTree {
                nodes: vec![u],
                root: u,
            });
        }
        // per-variable covering cliques, nearest the pivot
        let mut nodes: Vec<CliqueId> = Vec::with_capacity(2 * query.len());
        for v in query.iter() {
            nodes.push(rooted.shallowest(v).ok_or(PgmError::UnknownVar(v))?);
        }
        nodes.sort_unstable();
        nodes.dedup();

        // r_q = LCA of all terminals; Steiner nodes = union of paths to it,
        // each walked up until it meets a member (few: a linear search)
        let terminals = nodes.len();
        let mut root = nodes[0];
        for &t in &nodes[1..] {
            root = rooted.lca(root, t);
        }
        for k in 0..terminals {
            let mut u = nodes[k];
            #[expect(
                clippy::expect_used,
                reason = "`root` is the terminals' LCA, an ancestor of `t`: the walk up from \
                          `t` meets it before the pivot"
            )]
            while u != root {
                u = rooted.parent(u).expect("root is an ancestor");
                if nodes.contains(&u) {
                    break;
                }
                nodes.push(u);
            }
        }
        nodes.sort_unstable();
        Ok(SteinerTree { nodes, root })
    }

    /// Member cliques, ascending id.
    #[inline]
    pub fn nodes(&self) -> &[CliqueId] {
        &self.nodes
    }

    /// The Steiner root `r_q`.
    #[inline]
    pub fn root(&self) -> CliqueId {
        self.root
    }

    /// Number of member cliques.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for a single-clique (in-clique) tree.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, u: CliqueId) -> bool {
        self.nodes.binary_search(&u).is_ok()
    }

    /// Leaves of the Steiner tree (members none of whose Steiner children
    /// exist).
    pub fn leaves(&self, rooted: &RootedTree) -> Vec<CliqueId> {
        self.nodes
            .iter()
            .copied()
            .filter(|&u| u != self.root && rooted.children(u).iter().all(|&c| !self.contains(c)))
            .collect()
    }

    /// Diameter (in edges) of the Steiner tree — the x-axis of the paper's
    /// Figure 6.
    pub fn diameter(&self, rooted: &RootedTree) -> usize {
        // longest downward chain within the Steiner tree from each node,
        // combined pairwise at every internal node
        if self.nodes.len() <= 1 {
            return 0;
        }
        let mut height: std::collections::HashMap<CliqueId, usize> =
            std::collections::HashMap::new();
        let mut best = 0usize;
        // process nodes deepest-first so children are done before parents
        let mut by_depth = self.nodes.clone();
        by_depth.sort_by_key(|&u| std::cmp::Reverse(rooted.depth(u)));
        for &u in &by_depth {
            let mut child_heights: Vec<usize> = rooted
                .children(u)
                .iter()
                .filter(|&&c| self.contains(c))
                .map(|&c| height[&c] + 1)
                .collect();
            child_heights.sort_unstable_by(|a, b| b.cmp(a));
            let h = child_heights.first().copied().unwrap_or(0);
            let through = match child_heights.len() {
                0 => 0,
                1 => child_heights[0],
                _ => child_heights[0] + child_heights[1],
            };
            best = best.max(through);
            height.insert(u, h);
        }
        best
    }
}

/// Depth of a variable: the depth of its shallowest containing clique.
/// Drives the paper's *skewed* workload (probability ∝ distance from pivot).
pub fn var_depth(rooted: &RootedTree, v: Var) -> Option<usize> {
    rooted.shallowest(v).map(|u| rooted.depth(u))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_junction_tree;
    use peanut_pgm::fixtures;

    fn fig1() -> (peanut_pgm::BayesianNetwork, JunctionTree, RootedTree) {
        let bn = fixtures::figure1();
        let mut tree = build_junction_tree(&bn).unwrap();
        // pick the clique {b,c} as pivot, matching the paper's Figure 2
        let d = bn.domain().clone();
        let bc = Scope::from_iter([d.var("b").unwrap(), d.var("c").unwrap()]);
        let pivot = tree.cliques().iter().position(|c| *c == bc).unwrap();
        tree.set_pivot(pivot);
        let rooted = RootedTree::new(&tree);
        (bn, tree, rooted)
    }

    fn clique_named(tree: &JunctionTree, d: &peanut_pgm::Domain, names: &[&str]) -> CliqueId {
        let sc = Scope::from_iter(names.iter().map(|n| d.var(n).unwrap()));
        tree.cliques().iter().position(|c| *c == sc).unwrap()
    }

    #[test]
    fn in_clique_query_single_node() {
        let (bn, tree, rooted) = fig1();
        let d = bn.domain();
        let q = Scope::from_iter([d.var("g").unwrap(), d.var("h").unwrap()]);
        let st = SteinerTree::extract(&tree, &rooted, &q).unwrap();
        assert_eq!(st.len(), 1);
        assert_eq!(st.root(), st.nodes()[0]);
        assert_eq!(st.nodes()[0], clique_named(&tree, d, &["e", "g", "h"]));
    }

    #[test]
    fn paper_example_query_bif() {
        // q = {b, i, f} from Figure 2: Steiner tree spans bc, ce, ef, egh, gil
        let (bn, tree, rooted) = fig1();
        let d = bn.domain();
        let q = Scope::from_iter([
            d.var("b").unwrap(),
            d.var("i").unwrap(),
            d.var("f").unwrap(),
        ]);
        let st = SteinerTree::extract(&tree, &rooted, &q).unwrap();
        let expect: Vec<CliqueId> = [
            clique_named(&tree, d, &["b", "c"]),
            clique_named(&tree, d, &["c", "e"]),
            clique_named(&tree, d, &["e", "f"]),
            clique_named(&tree, d, &["e", "g", "h"]),
            clique_named(&tree, d, &["g", "i", "l"]),
        ]
        .into_iter()
        .collect();
        let mut expect_sorted = expect.clone();
        expect_sorted.sort_unstable();
        assert_eq!(st.nodes(), expect_sorted.as_slice());
        // pivot bc is in the tree ⇒ r_q = bc
        assert_eq!(st.root(), clique_named(&tree, d, &["b", "c"]));
        // In our tree egh hangs off ef (valid MST tie-break), so the Steiner
        // tree is the path bc–ce–ef–egh–gil and gil is its only leaf.
        assert_eq!(
            st.leaves(&rooted),
            vec![clique_named(&tree, d, &["g", "i", "l"])]
        );
    }

    #[test]
    fn diameter_of_example() {
        let (bn, tree, rooted) = fig1();
        let d = bn.domain();
        let q = Scope::from_iter([
            d.var("b").unwrap(),
            d.var("i").unwrap(),
            d.var("f").unwrap(),
        ]);
        let st = SteinerTree::extract(&tree, &rooted, &q).unwrap();
        // path tree bc–ce–ef–egh–gil ⇒ diameter 4
        assert_eq!(st.diameter(&rooted), 4);
    }

    /// The extraction's first half as it scanned the cliques — every
    /// clique for the in-clique test, every clique again per query
    /// variable — kept as the reference of the index: the covering clique,
    /// or the terminals before they are sorted.
    fn scanned(
        tree: &JunctionTree,
        rooted: &RootedTree,
        query: &Scope,
    ) -> Result<Result<CliqueId, Vec<CliqueId>>, PgmError> {
        if let Some(u) = (0..tree.n_cliques())
            .filter(|&u| query.is_subset_of(tree.clique(u)))
            .min_by_key(|&u| (tree.clique_size(u), u))
        {
            return Ok(Ok(u));
        }
        let mut terminals = Vec::new();
        for v in query.iter() {
            let u = tree
                .cliques_with(v)
                .min_by_key(|&u| (rooted.depth(u), u))
                .ok_or(PgmError::UnknownVar(v))?;
            terminals.push(u);
        }
        Ok(Err(terminals))
    }

    /// The index decides as the scan did: on generated trees under random
    /// pivots, for every scope of one to three variables and for scopes
    /// holding a variable outside the domain, the same in-clique decision
    /// and clique, the same members and root, the same error.
    #[test]
    fn steiner_index_matches_the_scan() {
        use peanut_pgm::generate::{generate_network, DagConfig};
        use proptest::test_runner::TestRng;
        let (mut in_clique, mut out_of_clique, mut errors) = (0, 0, 0);
        for seed in 0..24u64 {
            let n = 8 + seed as usize % 9;
            let cfg = DagConfig {
                n_nodes: n,
                n_edges: n - 1 + n / 4,
                max_in_degree: 3,
                window: 4,
                cardinalities: vec![2, 3, 4],
            };
            let Ok(bn) = generate_network(&cfg, seed) else {
                continue;
            };
            let mut rng = TestRng::seed_from_u64(seed);
            let mut tree = build_junction_tree(&bn).unwrap();
            tree.set_pivot(rng.sample(0..tree.n_cliques()));
            let rooted = RootedTree::new(&tree);
            let n = n as u32;
            let mut scopes = Vec::new();
            for a in 0..n {
                for b in a..n {
                    for c in b..n {
                        scopes.push(Scope::from_indices(&[a, b, c]));
                    }
                }
                scopes.push(Scope::from_indices(&[a, n + a]));
            }
            scopes.push(Scope::from_indices(&[n]));
            for q in &scopes {
                let got = SteinerTree::extract(&tree, &rooted, q);
                match (scanned(&tree, &rooted, q), got) {
                    (Ok(Ok(u)), Ok(st)) => {
                        assert_eq!((st.nodes(), st.root()), (&[u][..], u), "{q}");
                        in_clique += 1;
                    }
                    (Ok(Err(terminals)), Ok(st)) => {
                        let mut root = terminals[0];
                        for &t in &terminals[1..] {
                            root = rooted.lca(root, t);
                        }
                        let mut members: Vec<CliqueId> = Vec::new();
                        for &t in &terminals {
                            let mut u = t;
                            while !members.contains(&u) {
                                members.push(u);
                                if u == root {
                                    break;
                                }
                                u = rooted.parent(u).unwrap();
                            }
                        }
                        members.sort_unstable();
                        assert!(st.len() > 1, "{q}: out of clique");
                        assert_eq!((st.nodes(), st.root()), (&members[..], root), "{q}");
                        out_of_clique += 1;
                    }
                    (Err(want), Err(got)) => {
                        assert_eq!(got.to_string(), want.to_string(), "{q}");
                        errors += 1;
                    }
                    (want, got) => panic!("{q}: {got:?} against {want:?}"),
                }
            }
        }
        let seen = [in_clique, out_of_clique, errors];
        assert!(seen.iter().all(|&c| c >= 100), "coverage {seen:?}");
    }

    #[test]
    fn empty_query_rejected() {
        let (_, tree, rooted) = fig1();
        assert!(SteinerTree::extract(&tree, &rooted, &Scope::empty()).is_err());
    }

    #[test]
    fn var_depths_increase_down_the_tree() {
        let (bn, _, rooted) = fig1();
        let d = bn.domain();
        let depth_b = var_depth(&rooted, d.var("b").unwrap()).unwrap();
        let depth_l = var_depth(&rooted, d.var("l").unwrap()).unwrap();
        assert_eq!(depth_b, 0);
        assert!(depth_l >= 2);
    }

    #[test]
    fn steiner_nodes_connected() {
        let bn = fixtures::asia();
        let tree = build_junction_tree(&bn).unwrap();
        let rooted = RootedTree::new(&tree);
        for q_vars in [[0u32, 7], [1, 6], [2, 5]] {
            let q = Scope::from_indices(&q_vars);
            let st = SteinerTree::extract(&tree, &rooted, &q).unwrap();
            // every non-root member's parent is a member
            for &u in st.nodes() {
                if u != st.root() {
                    assert!(st.contains(rooted.parent(u).unwrap()));
                }
            }
        }
    }
}
