//! The reduced tree: the structure message passing actually runs on.
//!
//! A [`ReducedTree`] is a query *plan*: the query's Steiner tree, in which
//! connected regions of nodes may have been replaced by a single *shortcut*
//! node (the materialization layer picks the replacements). A plan is a
//! view over the arena and the materialization; nothing is copied until a
//! kernel writes: every node borrows its scope from the junction tree or the
//! shortcut, and its tables as [`TableRef`]s into the calibrated arena slab
//! or the materialized potential. Building a plan and pricing it node by
//! node ([`ReducedTree::node_costs`], what a caller weighs substitutions
//! with) allocate a few index vectors sized by the node count, never by the
//! tables; [`ReducedTree::contract`] builds the one tree with every chosen
//! region replaced. A `ReducedTree<'a>` outlives neither the engine nor the
//! materialization it was planned against.
//!
//! Message passing — both numeric and size-only — is implemented once,
//! here, for all methods (plain JT, PEANUT, PEANUT+, INDSEP), which keeps
//! the cost accounting strictly comparable across them. The two share the
//! per-node charge ([`crate::cost`], on the size of the node's product);
//! the numeric pass never builds that product: each message is one fused
//! product→marginalize pass over the node's factors, divided by the parent
//! separator afterwards, over the message's entries.

use crate::calibrate::NumericState;
use crate::cost::{node_ops_of_size, QueryCost};
use crate::rooted::RootedTree;
use crate::steiner::SteinerTree;
use crate::tree::{CliqueId, JunctionTree};
use peanut_pgm::{
    divide_views, product_marginalize_views, table_size, Domain, PgmError, Potential, Scope,
    Scratch, Size, TableRef,
};

/// Provenance of a reduced-tree node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeLabel {
    /// An original junction-tree clique.
    Clique(CliqueId),
    /// A materialized shortcut potential (caller-assigned id).
    Shortcut(usize),
}

/// One node of a reduced tree: borrowed scope and tables plus tree links.
#[derive(Clone, Copy, Debug)]
pub struct RNode<'a> {
    /// Variable scope of the node's potential.
    pub scope: &'a Scope,
    /// Provenance.
    pub label: NodeLabel,
    /// Dense potential (numeric mode only).
    potential: Option<TableRef<'a>>,
    /// Separator potential on the edge toward the parent (numeric mode
    /// only; `None` for the root).
    sep_to_parent: Option<TableRef<'a>>,
    parent: Option<usize>,
    /// This node's span of [`ReducedTree::child_list`].
    children: (usize, usize),
}

/// A rooted tree of borrowed potentials over which one query is answered.
#[derive(Clone, Debug)]
pub struct ReducedTree<'a> {
    nodes: Vec<RNode<'a>>,
    root: usize,
    shortcuts_used: usize,
    /// Every node's children, ascending, back to back (see
    /// [`RNode::children`]).
    child_list: Vec<usize>,
    /// Post-order of the nodes: every subtree contiguous, a node's child
    /// subtrees last child first, the root last. Computed once per tree.
    order: Vec<usize>,
}

impl<'a> ReducedTree<'a> {
    /// Plans a Steiner tree: one node per member clique, each borrowing its
    /// scope from `tree` and — when `numeric` is given, which must be
    /// calibrated — its clique and parent-separator tables from the arena.
    /// No table is copied.
    pub fn from_steiner(
        tree: &'a JunctionTree,
        rooted: &RootedTree,
        st: &SteinerTree,
        numeric: Option<&'a NumericState>,
    ) -> Self {
        let ids = st.nodes();
        // lint:allow(hot_panic) — Steiner invariant: the root and every
        // non-root member's parent are members
        let index_of = |u: CliqueId| ids.binary_search(&u).expect("steiner member");
        let nodes = ids
            .iter()
            .map(|&u| {
                let up = if u == st.root() {
                    None
                } else {
                    rooted.parent(u).zip(rooted.parent_edge(u))
                };
                RNode {
                    scope: tree.clique(u),
                    label: NodeLabel::Clique(u),
                    potential: numeric.map(|ns| ns.clique_table(u)),
                    sep_to_parent: numeric.zip(up).map(|(ns, (_, e))| ns.separator_table(e)),
                    parent: up.map(|(p, _)| index_of(p)),
                    children: (0, 0),
                }
            })
            .collect();
        Self::linked(nodes, index_of(st.root()), 0)
    }

    /// Completes a tree from its nodes' parent pointers: child lists
    /// (ascending node index) and the post-order.
    fn linked(mut nodes: Vec<RNode<'a>>, root: usize, shortcuts_used: usize) -> Self {
        let n = nodes.len();
        // counting sort of the non-root nodes by parent: count children,
        // lay the spans out, then fill them in ascending node order
        let mut count = vec![0usize; n];
        for node in &nodes {
            if let Some(p) = node.parent {
                count[p] += 1;
            }
        }
        let mut end = 0;
        for (node, &c) in nodes.iter_mut().zip(&count) {
            node.children = (end, end); // grows as the children arrive
            end += c;
        }
        let mut child_list = vec![0usize; end];
        for i in 0..n {
            if let Some(p) = nodes[i].parent {
                child_list[nodes[p].children.1] = i;
                nodes[p].children.1 += 1;
            }
        }
        // a pre-order that descends into the first child first, reversed
        let mut order = Vec::with_capacity(n);
        let mut stack = vec![root];
        while let Some(u) = stack.pop() {
            order.push(u);
            let (lo, hi) = nodes[u].children;
            stack.extend(child_list[lo..hi].iter().rev());
        }
        order.reverse();
        debug_assert_eq!(order.len(), n, "every node hangs off the root");
        ReducedTree {
            nodes,
            root,
            shortcuts_used,
            child_list,
            order,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tree has no nodes (never constructed that way).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Root node index.
    #[inline]
    pub fn root(&self) -> usize {
        self.root
    }

    /// Node access.
    #[inline]
    pub fn node(&self, i: usize) -> &RNode<'a> {
        &self.nodes[i]
    }

    /// All nodes.
    #[inline]
    pub fn nodes(&self) -> &[RNode<'a>] {
        &self.nodes
    }

    /// Children of node `i`, ascending.
    #[inline]
    pub fn children(&self, i: usize) -> &[usize] {
        let (lo, hi) = self.nodes[i].children;
        &self.child_list[lo..hi]
    }

    /// Parent of node `i`.
    #[inline]
    pub fn parent(&self, i: usize) -> Option<usize> {
        self.nodes[i].parent
    }

    /// Number of shortcut replacements applied so far.
    #[inline]
    pub fn shortcuts_used(&self) -> usize {
        self.shortcuts_used
    }

    /// The tree with the connected region `region` (node indices) replaced
    /// by a single shortcut node of scope `scope` — the one-region case of
    /// [`contract`](Self::contract), which see; `self` is left as it is.
    pub fn replace_region(
        &self,
        region: &[usize],
        scope: &'a Scope,
        potential: Option<TableRef<'a>>,
        shortcut_id: usize,
    ) -> Result<ReducedTree<'a>, PgmError> {
        let mut region_of = vec![None; self.nodes.len()];
        for &i in region {
            region_of[i] = Some(0);
        }
        self.contract(&region_of, &[(scope, potential, shortcut_id)])
    }

    /// The tree with every region replaced by one shortcut node, in a single
    /// build: `region_of[i]` names the region node `i` belongs to (`None`:
    /// the node is kept), and region `j` — which must be connected, i.e.
    /// have exactly one node whose parent is outside it — becomes a node of
    /// scope, table view (numeric mode) and shortcut id `shortcuts[j]`.
    /// `self` is left as it is.
    ///
    /// * neighbors of a region are re-attached to its node and keep their
    ///   original edge separators (they are cut separators of the
    ///   shortcut), and the node takes over the separator above the
    ///   region's top;
    /// * if a region contains the root, its node becomes the root and the
    ///   tree's answer is computed from the shortcut's joint.
    ///
    /// Kept nodes keep their relative order and the shortcut nodes follow
    /// in the order of `shortcuts` — the tree that replacing the regions one
    /// at a time, in that order, arrives at. Each kept node record
    /// (borrowed scope, table views) is copied once.
    pub fn contract(
        &self,
        region_of: &[Option<usize>],
        shortcuts: &[(&'a Scope, Option<TableRef<'a>>, usize)],
    ) -> Result<ReducedTree<'a>, PgmError> {
        let n = self.nodes.len();
        if region_of.len() != n || region_of.iter().flatten().any(|&j| j >= shortcuts.len()) {
            let detail = format!(
                "labels for {} nodes and {} shortcuts on a tree of {n}",
                region_of.len(),
                shortcuts.len()
            );
            return Err(PgmError::InvalidRegion { detail });
        }
        let kept = region_of.iter().filter(|r| r.is_none()).count();
        // kept nodes move down over the removed ones; region `j` maps to the
        // `j`-th node after them
        let mut next = 0;
        let new_index: Vec<usize> = region_of
            .iter()
            .map(|r| match r {
                Some(j) => kept + j,
                None => {
                    next += 1;
                    next - 1
                }
            })
            .collect();
        let moved = |node: &RNode<'a>| RNode {
            parent: node.parent.map(|p| new_index[p]),
            ..*node
        };
        let mut nodes = Vec::with_capacity(kept + shortcuts.len());
        nodes.extend(
            (0..n)
                .filter(|&i| region_of[i].is_none())
                .map(|i| moved(&self.nodes[i])),
        );
        for (j, &(scope, potential, shortcut_id)) in shortcuts.iter().enumerate() {
            let inside = |i: usize| region_of[i] == Some(j);
            // topmost region node: the one whose parent is outside (or absent)
            let mut tops =
                (0..n).filter(|&i| inside(i) && !self.nodes[i].parent.is_some_and(inside));
            let (Some(top), None) = (tops.next(), tops.next()) else {
                let size = (0..n).filter(|&i| inside(i)).count();
                let detail = format!("{size} nodes, empty or not connected");
                return Err(PgmError::InvalidRegion { detail });
            };
            nodes.push(RNode {
                scope,
                label: NodeLabel::Shortcut(shortcut_id),
                potential,
                ..moved(&self.nodes[top])
            });
        }
        let root = new_index[self.root];
        Ok(Self::linked(
            nodes,
            root,
            self.shortcuts_used + shortcuts.len(),
        ))
    }

    /// The structural pass [`cost`](Self::cost) and
    /// [`answer_in`](Self::answer_in) share: flag `u * query.len() + i` says
    /// whether node `u`'s subtree holds the `i`-th query variable.
    fn carried(&self, query: &Scope) -> Vec<bool> {
        let k = query.len();
        let mut held = vec![false; self.nodes.len() * k];
        for &u in &self.order {
            let n = &self.nodes[u];
            for (i, x) in query.iter().enumerate() {
                held[u * k + i] |= n.scope.contains(x);
                // children precede parents, so `u`'s flags are final here
                if let Some(p) = n.parent {
                    held[p * k + i] |= held[u * k + i];
                }
            }
        }
        held
    }

    /// What node `u` is charged (paper §5.1), given [`carried`](Self::carried)'s
    /// flags: its product spans its own scope plus the query variables
    /// carried up from below (the separator part of every incoming message
    /// already lies inside the node's scope), so it is sized by walking the
    /// query against the scope — no scope is materialized, and no table.
    fn node_cost(&self, u: usize, query: &Scope, held: &[bool], domain: &Domain) -> Size {
        let n = &self.nodes[u];
        let mut t = table_size(n.scope, domain);
        for (i, x) in query.iter().enumerate() {
            if held[u * query.len() + i] && !n.scope.contains(x) {
                t = t.saturating_mul(u64::from(domain.card(x)));
            }
        }
        // +1 incoming factor for a non-root's separator division
        let n_in = self.children(u).len() + usize::from(u != self.root);
        node_ops_of_size(t, n_in)
    }

    /// The pricing pass, node by node: `(held, ops)` where `ops[u]` is what
    /// node `u` is charged for `query` — [`cost`](Self::cost) is their
    /// saturating sum — and flag `held[u * query.len() + i]` says whether
    /// `u`'s subtree holds the `i`-th query variable, i.e. whether `u`'s
    /// product carries it. Whoever weighs a substitution reprices the nodes
    /// it touches from these and leaves the rest of the sum alone.
    pub fn node_costs(&self, query: &Scope, domain: &Domain) -> (Vec<bool>, Vec<Size>) {
        let held = self.carried(query);
        let ops = (0..self.nodes.len())
            .map(|u| self.node_cost(u, query, &held, domain))
            .collect();
        (held, ops)
    }

    /// Size-only message passing: the operation count of answering `query`
    /// on this tree under the cost model of [`crate::cost`].
    pub fn cost(&self, query: &Scope, domain: &Domain) -> QueryCost {
        let held = self.carried(query);
        let mut cost = QueryCost {
            shortcuts_used: self.shortcuts_used,
            messages: self.nodes.len() - 1,
            ops: 0,
        };
        for u in 0..self.nodes.len() {
            cost.add_node(self.node_cost(u, query, &held, domain));
        }
        cost
    }

    /// Numeric message passing: the joint `P(query)` plus the identical
    /// operation count, on a calibrated tree.
    pub fn answer(
        &self,
        query: &Scope,
        domain: &Domain,
    ) -> Result<(Potential, QueryCost), PgmError> {
        self.answer_in(query, domain, &mut Scratch::new())
    }

    /// [`answer`](Self::answer) with caller-provided kernel scratch:
    /// consumed messages are recycled into `scratch`, so a worker answering
    /// a stream of queries stops allocating after warm-up. The view kernels
    /// read the borrowed tables in place.
    ///
    /// A node's message is its potential times the incoming messages,
    /// summed onto what goes up, in one fused pass that never builds the
    /// product; the division by the parent separator then runs on the
    /// message — the separator lies inside the message's scope, so dividing
    /// after the sum is the same quantity over far fewer entries. The cost
    /// charged is still the paper's count on the product's size.
    pub fn answer_in(
        &self,
        query: &Scope,
        domain: &Domain,
        scratch: &mut Scratch,
    ) -> Result<(Potential, QueryCost), PgmError> {
        let held = self.carried(query);
        let mut cost = QueryCost {
            shortcuts_used: self.shortcuts_used,
            messages: self.nodes.len() - 1,
            ops: 0,
        };
        // the post-order keeps subtrees contiguous and runs a node's children
        // last to first, so its incoming messages are the top of this stack,
        // the first child's uppermost
        let mut messages: Vec<Potential> = Vec::new();
        for &u in &self.order {
            let n = &self.nodes[u];
            cost.add_node(self.node_cost(u, query, &held, domain));
            // what goes up: the separator with the parent plus the query
            // variables held below — from the root, the answer itself
            let target = match n.parent {
                Some(p) => {
                    let sep = n.scope.iter().filter(|&x| self.nodes[p].scope.contains(x));
                    let below = (0..query.len()).filter(|i| held[u * query.len() + i]);
                    Scope::from_iter(sep.chain(below.map(|i| query.vars()[i])))
                }
                None => query.clone(),
            };
            let first = messages.len() - self.children(u).len();
            let mut factors = vec![n.potential.ok_or(PgmError::SymbolicEngine)?];
            factors.extend(messages[first..].iter().rev().map(Potential::view));
            let mut message = product_marginalize_views(&factors, &target, scratch)?;
            for spent in messages.drain(first..).rev() {
                scratch.recycle(spent);
            }
            if let Some(sep) = n.sep_to_parent {
                let divided = divide_views(message.view(), sep, scratch)?;
                scratch.recycle(std::mem::replace(&mut message, divided));
            }
            messages.push(message);
        }
        // lint:allow(hot_panic) — a tree has a root, and it closes the post-order
        Ok((messages.pop().expect("the root's answer"), cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_junction_tree;
    use peanut_pgm::{fixtures, joint};

    fn setup(
        bn: &peanut_pgm::BayesianNetwork,
        pivot: Option<usize>,
    ) -> (JunctionTree, RootedTree, NumericState) {
        let mut tree = build_junction_tree(bn).unwrap();
        if let Some(p) = pivot {
            tree.set_pivot(p);
        }
        let rooted = RootedTree::new(&tree);
        let mut ns = NumericState::initialize(&tree, bn).unwrap();
        ns.calibrate(&tree, &rooted).unwrap();
        (tree, rooted, ns)
    }

    #[test]
    fn answers_match_brute_force() {
        let bn = fixtures::figure1();
        let (tree, rooted, ns) = setup(&bn, None);
        let d = bn.domain();
        let queries = [
            vec!["b", "i", "f"],
            vec!["a", "l"],
            vec!["d", "h"],
            vec!["a", "e", "l"],
            vec!["f", "g"],
        ];
        for names in queries {
            let q = Scope::from_iter(names.iter().map(|n| d.var(n).unwrap()));
            let st = SteinerTree::extract(&tree, &rooted, &q).unwrap();
            let rt = ReducedTree::from_steiner(&tree, &rooted, &st, Some(&ns));
            let (got, cost) = rt.answer(&q, d).unwrap();
            let want = joint::marginal(&bn, &q).unwrap();
            assert!(
                got.max_abs_diff(&want).unwrap() < 1e-9,
                "query {names:?} mismatch"
            );
            assert!(cost.ops > 0);
            assert_eq!(cost.messages, rt.len() - 1);
        }
    }

    #[test]
    fn cost_matches_between_numeric_and_symbolic() {
        let bn = fixtures::asia();
        let (tree, rooted, ns) = setup(&bn, None);
        let d = bn.domain();
        for pair in [[0u32, 7], [1, 6], [0, 5]] {
            let q = Scope::from_indices(&pair);
            let st = SteinerTree::extract(&tree, &rooted, &q).unwrap();
            let rt_num = ReducedTree::from_steiner(&tree, &rooted, &st, Some(&ns));
            let rt_sym = ReducedTree::from_steiner(&tree, &rooted, &st, None);
            let (_, c_num) = rt_num.answer(&q, d).unwrap();
            let c_sym = rt_sym.cost(&q, d);
            assert_eq!(c_num.ops, c_sym.ops);
            assert_eq!(c_num.messages, c_sym.messages);
        }
    }

    #[test]
    fn replace_region_with_its_own_marginal_preserves_answer() {
        // Simulate a shortcut: replace a connected region by the joint of
        // its cut separators, computed by brute force from the network.
        let bn = fixtures::figure1();
        let (tree, rooted, ns) = setup(&bn, None);
        let d = bn.domain();
        let q = Scope::from_iter([d.var("b").unwrap(), d.var("l").unwrap()]);
        let st = SteinerTree::extract(&tree, &rooted, &q).unwrap();
        let rt = ReducedTree::from_steiner(&tree, &rooted, &st, Some(&ns));
        assert!(rt.len() >= 4, "need an interior region; got {}", rt.len());

        // pick an interior region: a non-root, non-leaf node
        let interior = (0..rt.len())
            .find(|&i| i != rt.root() && !rt.children(i).is_empty())
            .expect("interior node exists");
        // cut scope: union of separators to parent and to children
        let p = rt.parent(interior).unwrap();
        let mut cut_scope = rt.node(interior).scope.intersect(rt.node(p).scope);
        for &c in rt.children(interior) {
            cut_scope = cut_scope.union(&rt.node(c).scope.intersect(rt.node(interior).scope));
        }
        let shortcut_pot = joint::marginal(&bn, &cut_scope).unwrap();
        let (want, base_cost) = rt.answer(&q, d).unwrap();
        let rt2 = rt
            .replace_region(&[interior], &cut_scope, Some(shortcut_pot.view()), 0)
            .unwrap();
        let (got, red_cost) = rt2.answer(&q, d).unwrap();
        assert!(got.max_abs_diff(&want).unwrap() < 1e-9);
        assert_eq!(red_cost.shortcuts_used, 1);
        // same number of nodes here (single node swapped), so messages equal
        assert_eq!(red_cost.messages, base_cost.messages);
    }

    #[test]
    fn replace_multi_node_region_containing_root() {
        let bn = fixtures::figure1();
        let (tree, rooted, ns) = setup(&bn, None);
        let d = bn.domain();
        let q = Scope::from_iter([d.var("a").unwrap(), d.var("l").unwrap()]);
        let st = SteinerTree::extract(&tree, &rooted, &q).unwrap();
        let rt = ReducedTree::from_steiner(&tree, &rooted, &st, Some(&ns));
        let (want, _) = rt.answer(&q, d).unwrap();

        // region = root + its first child (connected, contains r_q)
        let root = rt.root();
        let child = rt.children(root).first().copied().expect("root has child");
        let region = vec![root, child];
        // cut scope: separators from the region to the outside, plus any
        // query variables inside the region (they must survive)
        let mut cut_scope = Scope::empty();
        for &i in &region {
            for &c in rt.children(i) {
                if !region.contains(&c) {
                    cut_scope = cut_scope.union(&rt.node(c).scope.intersect(rt.node(i).scope));
                }
            }
        }
        for &i in &region {
            cut_scope = cut_scope.union(&rt.node(i).scope.intersect(&q));
        }
        let pot = joint::marginal(&bn, &cut_scope).unwrap();
        let rt2 = rt
            .replace_region(&region, &cut_scope, Some(pot.view()), 3)
            .unwrap();
        assert_eq!(rt2.root(), rt2.len() - 1, "the shortcut node is the root");
        let (got, cost) = rt2.answer(&q, d).unwrap();
        assert!(got.max_abs_diff(&want).unwrap() < 1e-9);
        assert_eq!(cost.shortcuts_used, 1);
    }

    #[test]
    fn disconnected_region_rejected() {
        let bn = fixtures::chain(7, 2, 0);
        let (tree, rooted, ns) = setup(&bn, None);
        let q = Scope::from_indices(&[0, 6]);
        let st = SteinerTree::extract(&tree, &rooted, &q).unwrap();
        let rt = ReducedTree::from_steiner(&tree, &rooted, &st, Some(&ns));
        assert!(rt.len() >= 5);
        // two nodes that are not adjacent
        let a = rt.root();
        let grandchild = rt.children(rt.children(a)[0])[0];
        let empty = Scope::empty();
        let err = rt.replace_region(&[a, grandchild], &empty, None, 0);
        assert!(matches!(err, Err(PgmError::InvalidRegion { .. })));
        let err = rt.replace_region(&[], &empty, None, 0);
        assert!(matches!(err, Err(PgmError::InvalidRegion { .. })));
    }

    /// Every field of two trees: node records (label, links, which scope
    /// and which tables they borrow), root, child lists, post-order.
    fn assert_same_tree(got: &ReducedTree<'_>, want: &ReducedTree<'_>) {
        assert_eq!(got.len(), want.len());
        let at = |t: Option<TableRef<'_>>| t.map(|t| t.values().as_ptr());
        for (i, (g, w)) in got.nodes.iter().zip(&want.nodes).enumerate() {
            assert_eq!(g.label, w.label, "label of {i}");
            assert_eq!(g.parent, w.parent, "parent of {i}");
            assert_eq!(got.children(i), want.children(i), "children of {i}");
            assert!(std::ptr::eq(g.scope, w.scope), "scope of {i}");
            assert_eq!(at(g.potential), at(w.potential), "table of {i}");
            assert_eq!(at(g.sep_to_parent), at(w.sep_to_parent), "separator of {i}");
        }
        assert_eq!(got.root, want.root);
        assert_eq!(got.shortcuts_used, want.shortcuts_used);
        assert_eq!(got.child_list, want.child_list);
        assert_eq!(got.order, want.order);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// One contraction of several disjoint regions is the tree that
        /// `replace_region`, one region at a time in the same order, arrives
        /// at — field by field — on generated trees and random regions (the
        /// root's, single nodes, whole subtrees, everything).
        #[test]
        fn contraction_is_the_sequential_chain(seed in 0u64..10_000, n in 8usize..18) {
            use peanut_pgm::generate::{generate_network, DagConfig};
            use proptest::test_runner::TestRng;
            let cfg = DagConfig {
                n_nodes: n,
                n_edges: n - 1 + n / 4,
                max_in_degree: 2,
                window: 3,
                cardinalities: vec![2],
            };
            let Ok(bn) = generate_network(&cfg, seed) else { return Ok(()) };
            let mut rng = TestRng::seed_from_u64(seed);
            let (tree, rooted, ns) = setup(&bn, None);
            let picks: Vec<u32> = (0..4).map(|_| rng.sample(0..n as u32)).collect();
            let q = Scope::from_indices(&picks);
            let st = SteinerTree::extract(&tree, &rooted, &q).unwrap();
            let rt = ReducedTree::from_steiner(&tree, &rooted, &st, Some(&ns));

            // up to three disjoint connected regions, grown along tree edges
            let mut region_of = vec![None; rt.len()];
            let mut shortcuts = Vec::new();
            for j in 0..rng.sample(1..4usize) {
                let free: Vec<usize> = (0..rt.len()).filter(|&i| region_of[i].is_none()).collect();
                if free.is_empty() {
                    break;
                }
                let mut region = vec![free[rng.sample(0..free.len())]];
                region_of[region[0]] = Some(j);
                for _ in 0..rng.sample(0..rt.len()) {
                    let from = region[rng.sample(0..region.len())];
                    let around: Vec<usize> = rt.children(from).iter().copied().chain(rt.parent(from)).collect();
                    let next = around[rng.sample(0..around.len())];
                    if region_of[next].is_none() {
                        region_of[next] = Some(j);
                        region.push(next);
                    }
                }
                // any scope and table will do: contraction only places them
                let u = j % tree.n_cliques();
                shortcuts.push((tree.clique(u), Some(ns.clique_table(u)), 10 + j));
            }

            let mut chain = rt.clone();
            for (j, &(scope, table, id)) in shortcuts.iter().enumerate() {
                let member = |label: NodeLabel| {
                    (0..rt.len()).any(|i| region_of[i] == Some(j) && rt.nodes[i].label == label)
                };
                let region: Vec<usize> = (0..chain.len()).filter(|&k| member(chain.nodes[k].label)).collect();
                chain = chain.replace_region(&region, scope, table, id).unwrap();
            }
            assert_same_tree(&rt.contract(&region_of, &shortcuts).unwrap(), &chain);
        }
    }

    /// A region label without a shortcut to stand for it, or labels for
    /// another tree's nodes, are refused like a disconnected region.
    #[test]
    fn contraction_rejects_labels_that_do_not_fit() {
        let bn = fixtures::chain(7, 2, 0);
        let (tree, rooted, _) = setup(&bn, None);
        let q = Scope::from_indices(&[0, 6]);
        let st = SteinerTree::extract(&tree, &rooted, &q).unwrap();
        let rt = ReducedTree::from_steiner(&tree, &rooted, &st, None);
        let mut region_of = vec![None; rt.len()];
        region_of[0] = Some(1);
        let one = [(tree.clique(0), None, 0)];
        for labels in [&region_of[..], &region_of[1..]] {
            let err = rt.contract(labels, &one);
            assert!(matches!(err, Err(PgmError::InvalidRegion { .. })));
        }
    }

    #[test]
    fn symbolic_tree_cannot_answer() {
        let bn = fixtures::asia();
        let (tree, rooted, _) = setup(&bn, None);
        let q = Scope::from_indices(&[0, 7]);
        let st = SteinerTree::extract(&tree, &rooted, &q).unwrap();
        let rt = ReducedTree::from_steiner(&tree, &rooted, &st, None);
        let err = rt.answer(&q, bn.domain());
        assert!(matches!(err, Err(PgmError::SymbolicEngine)));
    }

    /// The post-order keeps every subtree contiguous with a node's children
    /// last to first — what lets `answer_in` keep its messages on a stack.
    #[test]
    fn post_order_is_contiguous_and_child_ordered() {
        let bn = fixtures::figure1();
        let (tree, rooted, _) = setup(&bn, None);
        let d = bn.domain();
        let q = Scope::from_iter(["a", "f", "h", "l"].iter().map(|n| d.var(n).unwrap()));
        let st = SteinerTree::extract(&tree, &rooted, &q).unwrap();
        let rt = ReducedTree::from_steiner(&tree, &rooted, &st, None);
        assert_eq!(rt.order.len(), rt.len());
        assert_eq!(*rt.order.last().unwrap(), rt.root());
        let pos = |u: usize| rt.order.iter().position(|&v| v == u).unwrap();
        fn size(rt: &ReducedTree<'_>, u: usize) -> usize {
            1 + rt.children(u).iter().map(|&c| size(rt, c)).sum::<usize>()
        }
        for u in 0..rt.len() {
            // u's subtree occupies the `size` positions ending at u, its
            // children's subtrees last child first
            let mut at = pos(u) + 1 - size(&rt, u);
            for &c in rt.children(u).iter().rev() {
                at += size(&rt, c);
                assert_eq!(pos(c) + 1, at, "child {c} of {u}");
            }
            assert!(rt.children(u).windows(2).all(|w| w[0] < w[1]));
        }
    }
}
