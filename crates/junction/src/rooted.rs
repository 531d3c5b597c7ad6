//! Rooted view of a junction tree: parents, depths, DFS order, subtree
//! scopes — the coordinate system for Steiner trees and both DP algorithms.

use crate::tree::{CliqueId, EdgeId, JunctionTree};
use peanut_pgm::{Scope, Var};

/// A junction tree rooted at a pivot clique.
///
/// Precomputes everything the query engine and the offline DPs consult per
/// node: parent, connecting edge, depth, children, a left-to-right DFS
/// numbering (the order LRDP visits nodes), and the subtree variable scope
/// `X_{T_v}` used by the benefit definition (Def. 3.2) — and, per
/// variable, the cliques that hold it and the shallowest of them, which
/// Steiner extraction reads instead of scanning the cliques.
#[derive(Clone, Debug)]
pub struct RootedTree {
    root: CliqueId,
    parent: Vec<Option<CliqueId>>,
    parent_edge: Vec<Option<EdgeId>>,
    children: Vec<Vec<CliqueId>>,
    depth: Vec<usize>,
    /// Nodes in DFS (pre-order, children in ascending id) order.
    dfs_order: Vec<CliqueId>,
    /// Position of each node in `dfs_order`.
    dfs_pos: Vec<usize>,
    /// Union of clique scopes in the subtree rooted at each node.
    subtree_scope: Vec<Scope>,
    /// Nodes of each subtree, contiguous in `dfs_order` starting at the node.
    subtree_size: Vec<usize>,
    /// Per variable, `words` words of bits: the cliques that hold it.
    holders: Vec<u64>,
    words: usize,
    /// Per variable, its shallowest holder: the least depth, then the
    /// least id (`None`: no clique holds it).
    shallowest: Vec<Option<CliqueId>>,
}

impl RootedTree {
    /// Roots `tree` at its pivot.
    pub fn new(tree: &JunctionTree) -> Self {
        Self::rooted_at(tree, tree.pivot())
    }

    /// Roots `tree` at an arbitrary clique.
    pub fn rooted_at(tree: &JunctionTree, root: CliqueId) -> Self {
        let n = tree.n_cliques();
        let mut parent = vec![None; n];
        let mut parent_edge = vec![None; n];
        let mut children: Vec<Vec<CliqueId>> = vec![Vec::new(); n];
        let mut depth = vec![0usize; n];
        let mut dfs_order = Vec::with_capacity(n);
        let mut visited = vec![false; n];

        // iterative DFS, visiting children in ascending clique id for
        // deterministic left-to-right semantics
        let mut stack = vec![root];
        visited[root] = true;
        while let Some(u) = stack.pop() {
            dfs_order.push(u);
            let mut nbrs: Vec<(CliqueId, EdgeId)> = tree
                .neighbors(u)
                .iter()
                .copied()
                .filter(|&(v, _)| !visited[v])
                .collect();
            nbrs.sort_unstable();
            for &(v, e) in &nbrs {
                visited[v] = true;
                parent[v] = Some(u);
                parent_edge[v] = Some(e);
                depth[v] = depth[u] + 1;
                children[u].push(v);
            }
            // push in reverse so the smallest id is popped (visited) first
            for &(v, _) in nbrs.iter().rev() {
                stack.push(v);
            }
        }
        debug_assert_eq!(dfs_order.len(), n, "tree must be connected");

        let mut dfs_pos = vec![0usize; n];
        for (i, &u) in dfs_order.iter().enumerate() {
            dfs_pos[u] = i;
        }

        // post-order accumulation of subtree scopes and sizes
        let mut subtree_scope: Vec<Scope> = (0..n).map(|u| tree.clique(u).clone()).collect();
        let mut subtree_size = vec![1usize; n];
        for &u in dfs_order.iter().rev() {
            if let Some(p) = parent[u] {
                let s = subtree_scope[u].clone();
                subtree_scope[p] = subtree_scope[p].union(&s);
                subtree_size[p] += subtree_size[u];
            }
        }

        // the variables' holders, by ascending clique id
        let words = n.div_ceil(64);
        let n_vars = tree.domain().len();
        let mut holders = vec![0u64; n_vars * words];
        let mut shallowest: Vec<Option<CliqueId>> = vec![None; n_vars];
        for u in 0..n {
            for x in tree.clique(u).iter() {
                let Some(least) = shallowest.get_mut(x.index()) else {
                    continue;
                };
                holders[x.index() * words + u / 64] |= 1 << (u % 64);
                if least.is_none_or(|l| depth[u] < depth[l]) {
                    *least = Some(u);
                }
            }
        }

        RootedTree {
            root,
            parent,
            parent_edge,
            children,
            depth,
            dfs_order,
            dfs_pos,
            subtree_scope,
            subtree_size,
            holders,
            words,
            shallowest,
        }
    }

    /// The root (pivot) clique.
    #[inline]
    pub fn root(&self) -> CliqueId {
        self.root
    }

    /// Parent of a node (`None` for the root).
    #[inline]
    pub fn parent(&self, u: CliqueId) -> Option<CliqueId> {
        self.parent[u]
    }

    /// Edge id connecting a node to its parent.
    #[inline]
    pub fn parent_edge(&self, u: CliqueId) -> Option<EdgeId> {
        self.parent_edge[u]
    }

    /// Children of a node, ascending id.
    #[inline]
    pub fn children(&self, u: CliqueId) -> &[CliqueId] {
        &self.children[u]
    }

    /// Depth of a node (root has depth 0).
    #[inline]
    pub fn depth(&self, u: CliqueId) -> usize {
        self.depth[u]
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Always false (a rooted tree has at least its root).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Nodes in DFS pre-order (the "left-to-right" order of LRDP).
    #[inline]
    pub fn dfs_order(&self) -> &[CliqueId] {
        &self.dfs_order
    }

    /// Position of a node in the DFS order.
    #[inline]
    pub fn dfs_pos(&self, u: CliqueId) -> usize {
        self.dfs_pos[u]
    }

    /// Union of clique scopes in the subtree rooted at `u` (`X_{T_u}`).
    #[inline]
    pub fn subtree_scope(&self, u: CliqueId) -> &Scope {
        &self.subtree_scope[u]
    }

    /// Number of nodes in the subtree rooted at `u`.
    #[inline]
    pub fn subtree_size(&self, u: CliqueId) -> usize {
        self.subtree_size[u]
    }

    /// Nodes of the subtree rooted at `u` (contiguous slice of the DFS
    /// order).
    pub fn subtree_nodes(&self, u: CliqueId) -> &[CliqueId] {
        let start = self.dfs_pos[u];
        &self.dfs_order[start..start + self.subtree_size[u]]
    }

    /// Bit words over clique ids, per variable in [`holders`](Self::holders).
    #[inline]
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// Word `w` of the cliques holding `x`, bit `u % 64` of word `u / 64`
    /// for clique `u`; 0 for a variable outside the tree's domain.
    #[inline]
    pub(crate) fn holders(&self, x: Var, w: usize) -> u64 {
        self.holders
            .get(x.index() * self.words + w)
            .copied()
            .unwrap_or(0)
    }

    /// The shallowest clique holding `x`: the least depth, then the least
    /// id; `None` when no clique holds it.
    #[inline]
    pub(crate) fn shallowest(&self, x: Var) -> Option<CliqueId> {
        self.shallowest.get(x.index()).copied().flatten()
    }

    /// Lowest common ancestor by depth walking (trees here are small; no
    /// need for binary lifting).
    pub fn lca(&self, mut a: CliqueId, mut b: CliqueId) -> CliqueId {
        while self.depth[a] > self.depth[b] {
            a = self.parent[a].expect("deeper node has parent");
        }
        while self.depth[b] > self.depth[a] {
            b = self.parent[b].expect("deeper node has parent");
        }
        while a != b {
            a = self.parent[a].expect("non-root");
            b = self.parent[b].expect("non-root");
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peanut_pgm::Domain;

    /// Path tree 0-1-2-3 plus branch 1-4.
    fn tree() -> JunctionTree {
        let domain = Domain::uniform(6, 2).unwrap();
        let cliques = vec![
            Scope::from_indices(&[0, 1]),
            Scope::from_indices(&[1, 2]),
            Scope::from_indices(&[2, 3]),
            Scope::from_indices(&[3, 4]),
            Scope::from_indices(&[2, 5]),
        ];
        JunctionTree::from_cliques(domain, cliques).unwrap()
    }

    #[test]
    fn parents_and_depths() {
        let t = tree();
        let r = RootedTree::rooted_at(&t, 0);
        assert_eq!(r.root(), 0);
        assert_eq!(r.parent(0), None);
        assert_eq!(r.parent(1), Some(0));
        assert_eq!(r.parent(2), Some(1));
        assert_eq!(r.parent(3), Some(2));
        assert_eq!(r.parent(4), Some(1));
        assert_eq!(r.depth(3), 3);
        assert_eq!(r.depth(4), 2);
        assert!(r.children(3).is_empty());
        assert!(r.children(4).is_empty());
        assert!(!r.children(1).is_empty());
    }

    #[test]
    fn dfs_order_left_to_right() {
        let t = tree();
        let r = RootedTree::rooted_at(&t, 0);
        assert_eq!(r.dfs_order(), &[0, 1, 2, 3, 4]);
        for (i, &u) in r.dfs_order().iter().enumerate() {
            assert_eq!(r.dfs_pos(u), i);
        }
    }

    #[test]
    fn subtree_scopes_accumulate() {
        let t = tree();
        let r = RootedTree::rooted_at(&t, 0);
        assert_eq!(r.subtree_scope(2), &Scope::from_indices(&[2, 3, 4]));
        assert_eq!(r.subtree_scope(1), &Scope::from_indices(&[1, 2, 3, 4, 5]));
        assert_eq!(r.subtree_scope(0).len(), 6);
        assert_eq!(r.subtree_size(1), 4);
        assert_eq!(r.subtree_nodes(1), &[1, 2, 3, 4]);
    }

    #[test]
    fn lca_and_paths() {
        let t = tree();
        let r = RootedTree::rooted_at(&t, 0);
        assert_eq!(r.lca(3, 4), 1);
        assert_eq!(r.lca(3, 2), 2);
        assert_eq!(r.lca(0, 4), 0);
        assert!(r.subtree_nodes(1).contains(&3));
        assert!(!r.subtree_nodes(2).contains(&4));
        assert!(r.subtree_nodes(2).contains(&2));
    }

    #[test]
    fn rerooting_changes_structure() {
        let t = tree();
        let r = RootedTree::rooted_at(&t, 3);
        assert_eq!(r.parent(3), None);
        assert_eq!(r.parent(2), Some(3));
        assert_eq!(r.parent(0), Some(1));
        assert_eq!(r.depth(4), 3);
    }
}
