//! The reduced tree: the structure message passing actually runs on.
//!
//! A [`ReducedTree`] is a query *plan*: the query's Steiner tree, in which
//! connected regions of nodes may have been replaced by a single *shortcut*
//! node (the materialization layer picks the replacements). A plan is a
//! view over the arena and the materialization; nothing is copied until a
//! kernel writes: every node borrows its scope from the junction tree or the
//! shortcut, and its tables as [`TableRef`]s into the calibrated arena slab
//! or the materialized potential. Building a plan and pricing it node by
//! node ([`ReducedTree::anatomy`], the [`QueryAnatomy`] a caller weighs
//! substitutions with) allocate a few index vectors sized by the node
//! count, never by the tables; [`ReducedTree::contract`] builds the one
//! tree with every chosen region replaced. A `ReducedTree<'a>` outlives
//! neither the engine nor the materialization it was planned against.
//!
//! Message passing — both numeric and size-only — is implemented once,
//! here, for all methods (plain JT, PEANUT, PEANUT+, INDSEP), which keeps
//! the cost accounting strictly comparable across them. The two share the
//! per-node charge ([`crate::cost`], on the size of the node's product)
//! and one structural walk per query that counts, per node, the query
//! variables its subtree holds; the numeric pass never builds that
//! product: each message is one fused product→marginalize pass over the
//! node's factors, divided by the parent separator afterwards, over the
//! message's entries. The same numeric pass builds the joint of a region
//! ([`region_joints`]), and every pass over one state's tables shares its
//! message memo ("The message memo" below).
//!
//! # Where a query's pass runs to
//!
//! A plan is rooted at `r_q`, the member closest to the pivot, and charged
//! there: [`ReducedTree::cost`] and the [`QueryCost`] every answer reports
//! are the paper's count toward `r_q`. The answer does not depend on the
//! root, and every query variable widens each product on its way to it, so
//! [`ReducedTree::answer_in`] runs its pass toward the member where that
//! count is smallest. Every node's incoming-factor count is its degree
//! whatever the root, so moving the root across one edge `u → c` changes
//! only what `u` and `c` are charged — `u` then carries the query variables
//! held outside `c`'s subtree — and one pre-order walk over the counts
//! prices every rooting. A tie keeps `r_q`, so an answer whose count does
//! not strictly fall is the pass toward `r_q`, bit for bit; otherwise the
//! plan is re-hung from the cheaper member (the parent links on the path
//! between the two roots turn around, each edge's separator going to the
//! endpoint that is now the child). [`region_joints`] keeps each region's
//! own root.
//!
//! # The message memo
//!
//! The calibrated tables a plan borrows come with a memo of the directed
//! messages sent over them (`crate::memo`), and every numeric pass takes
//! and files messages there: the engine's doors, the online phase's
//! contracted plans, a caller's [`ReducedTree::from_steiner`] plan and
//! [`region_joints`]. A plan whose shortcut nodes borrow a
//! materialization's tables may carry that materialization's memo too
//! ([`ReducedTree::with_shortcut_memo`]), which keeps the messages whose
//! sending subtree holds a shortcut node. A pass looks up every non-root
//! node top-down, by the clique at the far end of its junction-tree edge,
//! the subtree's members in post-order — cliques, and shortcut nodes by
//! their tagged ids — and the query variables held below: a node whose
//! subtree holds a shortcut in the materialization's memo, then, under
//! that memo's lock released, a node whose subtree holds only cliques in
//! the tables' memo. Every ancestor of a node of the first kind is of that
//! kind, so each lock is taken once and never while the other is held.
//! Every node records its edge: a clique its own, a shortcut node the one
//! above its region's top, and re-hanging a plan turns the edges on the
//! path around with their separators. Under a clique the far end is the
//! parent. Under a shortcut it is a clique of the shortcut's region, and
//! the message is the one a plan without that shortcut sends there:
//! running intersection makes the sender's scope meet the shortcut's scope
//! in that edge's separator, whose table the sender keeps — the same
//! target, factors and division. A sender whose scope meets the shortcut's
//! in more than that separator is computed. A message found is taken, and
//! its whole subtree is skipped. A message not found is computed; if its
//! subtree's kernels walked enough product entries per message entry and
//! its memo has room, a copy is filed there once the pass is done. A plan
//! that carries no materialization memo computes every message whose
//! subtree holds a shortcut. The key names every clique and shortcut a
//! message is made of, so a taken message is bit for bit the one the pass
//! would compute on any plan over the same tables (the memo module's
//! docs). A plan's root message, the answer or a region's table, is never
//! filed. The charge is untouched: a taken message is still counted in
//! `QueryCost.ops`.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use crate::calibrate::NumericState;
use crate::cost::{node_ops_of_size, QueryCost};
use crate::memo::{self, MessageMemo};
use crate::rooted::RootedTree;
use crate::steiner::SteinerTree;
use crate::tree::{CliqueId, JunctionTree};
use peanut_pgm::{
    div_assign_bcast, product_marginalize_views, table_size, Domain, PgmError, Potential, Scope,
    Scratch, Size, TableRef,
};
use std::sync::Arc;

/// Provenance of a reduced-tree node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
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
    /// The junction-tree edge toward the parent, as its cliques on this
    /// side and on the parent's side (the root: its own clique twice) — for
    /// a shortcut node, the edge above its top clique.
    edge: (u32, u32),
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
    /// The message memo of the calibrated tables the plan borrows (none: a
    /// size-only plan; module docs, "The message memo").
    memo: Option<&'a MessageMemo>,
    /// The memo of the materialization the shortcut nodes' tables come
    /// from, for messages whose subtree holds one (none: those are
    /// computed).
    shortcut_memo: Option<&'a MessageMemo>,
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
        Self::from_members(tree, rooted, st.nodes(), st.root(), numeric)
    }

    /// [`from_steiner`](Self::from_steiner) over the connected subtree
    /// `ids` (ascending) whose member closest to the pivot is `root`.
    pub(crate) fn from_members(
        tree: &'a JunctionTree,
        rooted: &RootedTree,
        ids: &[CliqueId],
        root: CliqueId,
        numeric: Option<&'a NumericState>,
    ) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "Steiner invariant: the root and every non-root member's parent are members"
        )]
        let index_of = |u: CliqueId| ids.binary_search(&u).expect("steiner member");
        let nodes = ids
            .iter()
            .map(|&u| {
                let up = if u == root {
                    None
                } else {
                    rooted.parent(u).zip(rooted.parent_edge(u))
                };
                RNode {
                    scope: tree.clique(u),
                    label: NodeLabel::Clique(u),
                    potential: numeric.map(|ns| ns.clique_table(u)),
                    sep_to_parent: numeric.zip(up).map(|(ns, (_, e))| ns.separator_table(e)),
                    edge: (u as u32, up.map_or(u, |(p, _)| p) as u32),
                    parent: up.map(|(p, _)| index_of(p)),
                    children: (0, 0),
                }
            })
            .collect();
        let memos = (numeric.map(NumericState::memo), None);
        Self::linked(nodes, index_of(root), 0, memos)
    }

    /// Completes a tree from its nodes' parent pointers: child lists
    /// (ascending node index) and the post-order. `memos` are the tables'
    /// and the materialization's.
    fn linked(
        mut nodes: Vec<RNode<'a>>,
        root: usize,
        shortcuts_used: usize,
        (memo, shortcut_memo): (Option<&'a MessageMemo>, Option<&'a MessageMemo>),
    ) -> Self {
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
            memo,
            shortcut_memo,
        }
    }

    /// The plan with its shortcut nodes' messages, and every message whose
    /// subtree holds one, taken from and filed in `memo`: the memo of the
    /// materialization whose tables the shortcut nodes borrow, which no
    /// plan over other shortcut tables may read (module docs, "The message
    /// memo"). A re-hung or further contracted plan keeps it.
    pub fn with_shortcut_memo(mut self, memo: &'a MessageMemo) -> Self {
        self.shortcut_memo = Some(memo);
        self
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

    /// Incoming factors of node `u`'s product: one message per child, and
    /// a non-root's separator division — its degree, whatever the root.
    #[inline]
    fn degree(&self, u: usize) -> usize {
        self.children(u).len() + usize::from(self.nodes[u].parent.is_some())
    }

    /// The same plan hung from node `root`: the parent links on the path
    /// from `root` up to the current root turn around, and each edge's
    /// separator and its junction-tree edge, turned around, go to the
    /// endpoint that is now the child. Every node keeps its index, scope,
    /// label and table.
    fn rehung(&self, root: usize) -> ReducedTree<'a> {
        let mut nodes = self.nodes.clone();
        let near = nodes[root].edge.0;
        let (mut below, mut u) = ((None, None, (near, near)), root);
        loop {
            let node = &mut nodes[u];
            let up = (node.parent, node.sep_to_parent, node.edge);
            (node.parent, node.sep_to_parent, node.edge) = below;
            let Some(p) = up.0 else { break };
            let (near, far) = up.2;
            below = (Some(u), up.1, (far, near));
            u = p;
        }
        Self::linked(nodes, root, self.shortcuts_used, self.memos())
    }

    /// The tables' memo and the materialization's.
    fn memos(&self) -> (Option<&'a MessageMemo>, Option<&'a MessageMemo>) {
        (self.memo, self.shortcut_memo)
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
    ///   shortcut) and junction-tree edges, and the node takes over the
    ///   separator and the edge above the region's top;
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
        let used = self.shortcuts_used + shortcuts.len();
        Ok(Self::linked(nodes, root, used, self.memos()))
    }

    /// The pricing pass, node by node: what each node is charged for
    /// `query` toward this plan's root and what its product carries.
    /// Whoever weighs a substitution reprices the nodes it touches from it
    /// and leaves the rest of the sum alone.
    pub fn anatomy(&self, query: &Scope, domain: &Domain) -> QueryAnatomy {
        QueryAnatomy::new(self, query, domain)
    }

    /// Size-only message passing: the operation count of answering `query`
    /// on this tree under the cost model of [`crate::cost`] — the paper's
    /// count, toward this plan's root `r_q`.
    pub fn cost(&self, query: &Scope, domain: &Domain) -> QueryCost {
        self.anatomy(query, domain).cost()
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
    /// The pass runs toward the member where the paper's count is smallest
    /// (module docs, "Where a query's pass runs to"); the cost reported is
    /// the count toward `r_q`, [`cost`](Self::cost)'s, whichever root ran.
    /// The pass takes and files messages in the memo of the tables the
    /// plan borrows (module docs, "The message memo"); a size-only plan
    /// fails with [`PgmError::SymbolicEngine`].
    ///
    /// A node's message is its potential times the incoming messages,
    /// summed onto what goes up, in one fused pass that never builds the
    /// product; the division by the parent separator then runs on the
    /// message, in its own buffer — the separator lies inside the message's
    /// scope, so dividing after the sum is the same quantity over far fewer
    /// entries. The cost charged is still the paper's count on the
    /// product's size.
    pub fn answer_in(
        &self,
        query: &Scope,
        domain: &Domain,
        scratch: &mut Scratch,
    ) -> Result<(Potential, QueryCost), PgmError> {
        let memo = self.memo.ok_or(PgmError::SymbolicEngine)?;
        let mut anatomy = self.anatomy(query, domain);
        let cost = anatomy.cost();
        let (root, _) = anatomy.cheapest_root(self, query, domain);
        let rehung;
        let plan = if root == self.root {
            self
        } else {
            rehung = self.rehung(root);
            anatomy.recount(&rehung, query);
            &rehung
        };
        Ok((plan.pass(memo, query, &anatomy, domain, scratch)?, cost))
    }

    /// The numeric pass toward this plan's root that
    /// [`answer_in`](Self::answer_in) and [`region_joints`] share, given
    /// the counts of this rooting, through `memo`.
    fn pass(
        &self,
        memo: &MessageMemo,
        query: &Scope,
        anatomy: &QueryAnatomy,
        domain: &Domain,
        scratch: &mut Scratch,
    ) -> Result<Potential, PgmError> {
        let mut recall = Recall::new(self, memo, query, anatomy, domain);
        // the post-order keeps subtrees contiguous and runs a node's children
        // last to first, so its incoming messages are the top of this stack,
        // the first child's uppermost
        let mut messages: Vec<Sent> = Vec::new();
        // one factor list for the pass, emptied and lent to each node
        let mut spare: Vec<TableRef<'static>> = Vec::new();
        for &u in &self.order {
            let n = &self.nodes[u];
            match &recall.slots[u].step {
                Step::Send => {}
                Step::Known(message) => {
                    messages.push(Sent::Taken(Arc::clone(message)));
                    continue;
                }
                Step::Skip => continue,
            }
            // what goes up: the separator with the parent plus the query
            // variables held below — from the root, the answer itself
            let target = match n.parent {
                Some(p) => {
                    let sep = n.scope.iter().filter(|&x| self.nodes[p].scope.contains(x));
                    let below = (0..query.len()).filter(|&i| anatomy.holds(u, i));
                    Scope::from_iter(sep.chain(below.map(|i| query.vars()[i])))
                }
                None => query.clone(),
            };
            let first = messages.len() - self.children(u).len();
            let mut message = {
                let mut factors = relent(std::mem::take(&mut spare));
                factors.push(n.potential.ok_or(PgmError::SymbolicEngine)?);
                factors.extend(messages[first..].iter().rev().map(Sent::view));
                let message = product_marginalize_views(&factors, &target, scratch);
                spare = relent(factors);
                message?
            };
            for spent in messages.drain(first..).rev() {
                if let Sent::Fresh(spent) = spent {
                    scratch.recycle(spent);
                }
            }
            // the root closes the post-order, and its message is the answer
            if u == self.root {
                recall.file();
                return Ok(message);
            }
            if let Some(sep) = n.sep_to_parent {
                let (scope, cards, values) = message.parts_mut();
                div_assign_bcast(scope, cards, values, sep, scratch)?;
            }
            recall.keep(u, &message);
            messages.push(Sent::Fresh(message));
        }
        #[expect(clippy::unreachable, reason = "a tree has a root, and it closes the post-order")]
        {
            unreachable!("the root's answer")
        }
    }
}

/// `factors` emptied, on the same allocation, as a list of views of any
/// lifetime: the in-place `collect` of an emptied vector keeps its buffer.
fn relent<'b>(mut factors: Vec<TableRef<'_>>) -> Vec<TableRef<'b>> {
    factors.clear();
    factors.into_iter().map_while(|_| None).collect()
}

/// One query's structural walk over a plan (paper §5.1), in one buffer:
/// row `u` holds node `u`'s table size, its charge toward the plan's root,
/// its price once [`cheapest_root`](Self::cheapest_root) ran, and per
/// query variable how many nodes of `u`'s subtree hold it.
#[derive(Debug)]
pub struct QueryAnatomy {
    /// Words per row: [`HELD`] plus one count per query variable.
    width: usize,
    rows: Vec<Size>,
    shortcuts_used: usize,
}

/// Word offsets within a [`QueryAnatomy`] row.
const SIZE: usize = 0;
const CHARGE: usize = 1;
const PRICE: usize = 2;
const HELD: usize = 3;

impl QueryAnatomy {
    /// Counts, sizes and charges every node of `plan` for `query`.
    fn new(plan: &ReducedTree<'_>, query: &Scope, domain: &Domain) -> QueryAnatomy {
        let width = HELD + query.len();
        let mut anatomy = QueryAnatomy {
            width,
            rows: vec![0; plan.len() * width],
            shortcuts_used: plan.shortcuts_used,
        };
        anatomy.recount(plan, query);
        for (u, node) in plan.nodes.iter().enumerate() {
            let size = table_size(node.scope, domain);
            let product = anatomy.carried(u, size, node.scope, query, domain);
            anatomy.rows[u * width + SIZE] = size;
            anatomy.rows[u * width + CHARGE] = node_ops_of_size(product, plan.degree(u));
        }
        anatomy
    }

    /// What answering on the plan is charged: the charges' saturating sum,
    /// one message per edge.
    pub fn cost(&self) -> QueryCost {
        let n = self.rows.len() / self.width;
        QueryCost {
            ops: (0..n).fold(0, |ops: Size, u| ops.saturating_add(self.charge(u))),
            messages: n - 1,
            shortcuts_used: self.shortcuts_used,
        }
    }

    /// Entries of node `u`'s product, given its table of `size` entries
    /// over `scope`: times each query variable held below that `scope`
    /// lacks (an incoming separator already lies inside it). No table.
    pub fn carried(
        &self,
        u: usize,
        size: Size,
        scope: &Scope,
        query: &Scope,
        domain: &Domain,
    ) -> Size {
        let mut product = size;
        for (i, x) in query.iter().enumerate() {
            if self.holds(u, i) && !scope.contains(x) {
                product = product.saturating_mul(u64::from(domain.card(x)));
            }
        }
        product
    }

    /// Counts the query variables each node's subtree holds under `plan`'s
    /// rooting — the plan counted, or the same nodes re-hung; sizes,
    /// charges and prices stay.
    fn recount(&mut self, plan: &ReducedTree<'_>, query: &Scope) {
        let width = self.width;
        for row in self.rows.chunks_exact_mut(width) {
            row[HELD..].fill(0);
        }
        // children precede parents, so `u`'s counts are whole here
        for &u in &plan.order {
            let node = &plan.nodes[u];
            for (i, x) in query.iter().enumerate() {
                let held = self.rows[u * width + HELD + i] + Size::from(node.scope.contains(x));
                self.rows[u * width + HELD + i] = held;
                if let Some(p) = node.parent {
                    self.rows[p * width + HELD + i] += held;
                }
            }
        }
    }

    /// Entries of node `u`'s table.
    #[inline]
    fn size(&self, u: usize) -> Size {
        self.rows[u * self.width + SIZE]
    }

    /// Whether node `u`'s subtree holds the `i`-th query variable.
    #[inline]
    fn holds(&self, u: usize, i: usize) -> bool {
        self.rows[u * self.width + HELD + i] > 0
    }

    /// What node `u` is charged toward the plan's root.
    #[inline]
    pub fn charge(&self, u: usize) -> Size {
        self.rows[u * self.width + CHARGE]
    }

    /// The node of `plan` a pass for `query` is cheapest toward and that
    /// pass's count, the executed count, every rooting priced in one
    /// pre-order walk: the first cheapest in pre-order, which starts at the
    /// plan's root, so a tie keeps it.
    ///
    /// Toward `m`, nodes off the path from the plan's root to `m` keep
    /// their charges; a node `u` on it is charged as if its product carried
    /// the query variables held outside the subtree of its successor on the
    /// path, and `m` as if it carried every one. With `rest(m)` the price
    /// toward `m` less `m`'s own charge there, a child `c` of `u` has
    /// `rest(c) = rest(u) − charge(c) + across(u, c)`, `across` being `u`'s
    /// charge with the root past `c`: the walk carries `rest` down in the
    /// `PRICE` words and leaves each node's price there.
    pub fn cheapest_root(
        &mut self,
        plan: &ReducedTree<'_>,
        query: &Scope,
        domain: &Domain,
    ) -> (usize, Size) {
        let ops = self.cost().ops;
        let (width, rows) = (self.width, &mut self.rows);
        // the root's counts: everything the plan holds
        let total = plan.root * width + HELD;
        rows[plan.root * width + PRICE] = ops.saturating_sub(rows[plan.root * width + CHARGE]);
        let mut best = (ops, plan.root);
        for &u in plan.order.iter().rev() {
            let (node, children) = (&plan.nodes[u], plan.children(u));
            let size = rows[u * width + SIZE];
            // `u`'s product as the root, and across the edge to each child,
            // built up in the child's `PRICE` word
            let mut as_root = size;
            for &c in children {
                rows[c * width + PRICE] = size;
            }
            for (i, x) in query.iter().enumerate() {
                let held = rows[total + i];
                if held == 0 || node.scope.contains(x) {
                    continue;
                }
                let card = u64::from(domain.card(x));
                as_root = as_root.saturating_mul(card);
                for &c in children {
                    if rows[c * width + HELD + i] < held {
                        rows[c * width + PRICE] = rows[c * width + PRICE].saturating_mul(card);
                    }
                }
            }
            let (degree, rest) = (plan.degree(u), rows[u * width + PRICE]);
            for &c in children {
                let across = node_ops_of_size(rows[c * width + PRICE], degree);
                let kept = rest.saturating_sub(rows[c * width + CHARGE]);
                rows[c * width + PRICE] = kept.saturating_add(across);
            }
            let price = rest.saturating_add(node_ops_of_size(as_root, degree));
            rows[u * width + PRICE] = price;
            if price < best.0 {
                best = (price, u);
            }
        }
        (best.1, best.0)
    }

    /// The count of a pass toward node `u`, once
    /// [`cheapest_root`](Self::cheapest_root) ran.
    #[cfg(test)]
    fn price(&self, u: usize) -> Size {
        self.rows[u * self.width + PRICE]
    }
}

/// The joint `P(X_S)` of each region over a calibrated tree, with the
/// operations charged for building it. A region is `(members, root,
/// scope)`: a connected subtree of the rooted tree (member cliques
/// ascending), its member closest to the pivot, and the scope `X_S` of the
/// separators that cut it out. Its table is the answer to `X_S` on the
/// region's own plan — rooted at `root`, so no division above it — and it
/// is charged the whole plan, as [`ReducedTree::cost`] prices it.
///
/// The regions share one kernel scratch, and every pass takes and files
/// messages in `numeric`'s memo (module docs, "The message memo"): a later
/// region takes what an earlier one, an earlier selection or a query over
/// the same tables filed. A region's root message, the table itself, is
/// never filed. Each table is copied out at its exact size.
pub fn region_joints(
    tree: &JunctionTree,
    rooted: &RootedTree,
    numeric: &NumericState,
    regions: &[(&[CliqueId], CliqueId, &Scope)],
) -> Result<Vec<(Potential, Size)>, PgmError> {
    let mut scratch = Scratch::new();
    regions
        .iter()
        .map(|&(members, root, scope)| {
            let closed = members.windows(2).all(|w| w[0] < w[1])
                && members.binary_search(&root).is_ok()
                && members.iter().all(|&u| {
                    u == root
                        || rooted
                            .parent(u)
                            .is_some_and(|p| members.binary_search(&p).is_ok())
                });
            if !closed {
                let detail = format!("{} cliques under {root}, not a subtree", members.len());
                return Err(PgmError::InvalidRegion { detail });
            }
            let plan = ReducedTree::from_members(tree, rooted, members, root, Some(numeric));
            let anatomy = plan.anatomy(scope, tree.domain());
            let joint = plan.pass(numeric.memo(), scope, &anatomy, tree.domain(), &mut scratch)?;
            // the kernel may have written into a larger pooled buffer, and
            // the table outlives the call (a whole epoch): keep a copy that
            // holds only its entries
            let table = joint.clone();
            scratch.recycle(joint);
            Ok((table, anatomy.cost().ops))
        })
        .collect()
}

/// What a numeric pass does at a node.
#[derive(Clone)]
enum Step {
    /// Compute the node's message and send it.
    Send,
    /// Take this message from the memo: its whole subtree is known.
    Known(Arc<Potential>),
    /// Nothing: an ancestor's message was taken.
    Skip,
}

/// A message on a pass's stack.
enum Sent {
    /// Computed by this pass, recycled once consumed.
    Fresh(Potential),
    /// Taken from the memo.
    Taken(Arc<Potential>),
}

impl Sent {
    #[inline]
    fn view(&self) -> TableRef<'_> {
        match self {
            Sent::Fresh(message) => message.view(),
            Sent::Taken(message) => message.view(),
        }
    }
}

/// One pass's dealings with the memos (module docs, "The message memo"):
/// what it does at each node, and the copies it files once done.
struct Recall<'m> {
    slots: Vec<Slot>,
    /// The keys of the nodes whose messages a memo may file, back to back.
    keys: Vec<u32>,
    /// Where messages go, indexed by [`Slot::plain`]: those of subtrees
    /// holding a shortcut to the materialization's memo — when the plan
    /// holds a shortcut and carries it — and those of plain subtrees to
    /// the tables'.
    owners: [Option<Owner<'m>>; 2],
}

/// A memo as one pass deals with it.
struct Owner<'m> {
    memo: &'m MessageMemo,
    /// What to file: keys, copies of the messages, and what their
    /// subtrees walked.
    filing: Vec<(Box<[u32]>, Potential, Size)>,
    /// Entries the memo has room for, less what is to be filed.
    room: usize,
}

/// One node of a pass.
#[derive(Clone)]
struct Slot {
    step: Step,
    /// Nodes in the node's subtree.
    size: usize,
    /// Product entries the kernels of the node's subtree walk.
    walked: Size,
    /// Whether the node's subtree holds only cliques.
    plain: bool,
    /// The node's key in [`Recall::keys`], when a memo may file its
    /// message.
    key: Option<(usize, usize)>,
}

impl<'m> Recall<'m> {
    /// Decides, before a pass over `plan` for `query`, what the pass does
    /// at each node: everything the memos hold is taken.
    fn new(
        plan: &ReducedTree<'m>,
        memo: &'m MessageMemo,
        query: &Scope,
        anatomy: &QueryAnatomy,
        domain: &Domain,
    ) -> Self {
        let slot = Slot {
            step: Step::Send,
            size: 1,
            walked: 0,
            plain: true,
            key: None,
        };
        let mut slots = vec![slot; plan.len()];
        // children precede parents: each subtree's size, what its kernels
        // walk, and whether it holds only cliques
        for &u in &plan.order {
            let node = &plan.nodes[u];
            let product = anatomy.carried(u, anatomy.size(u), node.scope, query, domain);
            let slot = &mut slots[u];
            slot.walked = slot.walked.saturating_add(product);
            slot.plain &= matches!(node.label, NodeLabel::Clique(_));
            let (size, walked, plain) = (slot.size, slot.walked, slot.plain);
            if let Some(p) = node.parent {
                let up = &mut slots[p];
                up.size += size;
                up.walked = up.walked.saturating_add(walked);
                up.plain &= plain;
            }
        }
        let mut recall = Recall {
            slots,
            keys: Vec::new(),
            owners: [None, None],
        };
        // every ancestor of a node whose subtree holds a shortcut holds it
        // too, so those nodes are decided first, top-down, and the plain
        // subtrees hanging off them after: one memo locked at a time
        let holds_shortcut = !recall.slots[plan.root].plain;
        if let Some(shortcut_memo) = plan.shortcut_memo.filter(|_| holds_shortcut) {
            recall.owners[0] = Some(recall.look_up(plan, query, anatomy, shortcut_memo, false));
        }
        recall.owners[1] = Some(recall.look_up(plan, query, anatomy, memo, true));
        recall
    }

    /// Decides the nodes whose subtree holds only cliques (`plain`), or
    /// those whose subtree holds a shortcut, through `memo` locked once:
    /// top-down, so a taken message skips its subtree unlooked-at. Returns
    /// `memo` as the pass files in it.
    fn look_up(
        &mut self,
        plan: &ReducedTree<'_>,
        query: &Scope,
        anatomy: &QueryAnatomy,
        memo: &'m MessageMemo,
        plain: bool,
    ) -> Owner<'m> {
        // a poisoned memo is a miss everywhere, and files nothing
        let shelf = memo.open();
        let room = shelf.as_ref().map_or(0, |shelf| shelf.room);
        let tagged = |v: &usize| match plan.nodes[*v].label {
            NodeLabel::Clique(c) => c,
            NodeLabel::Shortcut(i) => memo::SHORTCUT_TAG | i,
        };
        for (at, &u) in plan.order.iter().enumerate().rev() {
            if self.slots[u].plain != plain {
                continue;
            }
            let Some(p) = plan.nodes[u].parent else {
                continue; // the root's message is the answer
            };
            if !matches!(self.slots[p].step, Step::Send) {
                self.slots[u].step = Step::Skip;
                continue;
            }
            let Some(shelf) = &shelf else { continue };
            // the message goes to the clique at the far end of the edge: the
            // parent, or one in a shortcut's region. Under a shortcut it is
            // the message sent there when the shortcut's scope meets the
            // sender in just that edge's separator, as running intersection
            // gives any shortcut cut out of the tree; otherwise it is computed
            let (node, up) = (&plan.nodes[u], &plan.nodes[p]);
            let far = node.edge.1 as usize;
            let cut = node.scope.iter().filter(|&x| up.scope.contains(x));
            match up.label {
                NodeLabel::Clique(parent) => debug_assert_eq!(parent, far),
                NodeLabel::Shortcut(_)
                    if node.sep_to_parent.is_some_and(|t| t.scope().iter().eq(cut)) => {}
                NodeLabel::Shortcut(_) => continue,
            }
            // the subtree is the span of the post-order ending at `u`
            let members = plan.order[at + 1 - self.slots[u].size..=at].iter();
            let held = (0..query.len()).filter(|&i| anatomy.holds(u, i));
            let start = self.keys.len();
            let held = held.map(|i| query.vars()[i]);
            memo::push_key(&mut self.keys, far, members.map(tagged), held);
            match shelf.get(&self.keys[start..]) {
                Some(message) => self.slots[u].step = Step::Known(message),
                None => self.slots[u].key = Some((start, self.keys.len())),
            }
        }
        Owner {
            memo,
            filing: Vec::new(),
            room,
        }
    }

    /// Node `u`'s message was computed: a copy is to be filed in its owner
    /// if its key may be, the owner has room and the subtree walked enough
    /// for it.
    fn keep(&mut self, u: usize, message: &Potential) {
        let Slot {
            walked, key, plain, ..
        } = self.slots[u];
        let (Some((start, end)), Some(owner)) = (key, &mut self.owners[usize::from(plain)]) else {
            return;
        };
        let entries = message.len();
        if entries <= owner.room && memo::admits(walked, entries) {
            owner.room -= entries;
            // a copy at its exact size: the message's own buffer may be a
            // larger pooled one, and goes back to the scratch
            owner
                .filing
                .push((self.keys[start..end].into(), message.clone(), walked));
        }
    }

    /// Files what the pass kept, in one memo at a time.
    fn file(self) {
        for owner in self.owners.into_iter().flatten() {
            if !owner.filing.is_empty() {
                owner.memo.file(owner.filing);
            }
        }
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
        let shortcut = [(&cut_scope, Some(shortcut_pot.view()), 0)];
        let rt2 = rt
            .contract(&one_region(&rt, &[interior]), &shortcut)
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
        let shortcut = [(&cut_scope, Some(pot.view()), 3)];
        let rt2 = rt.contract(&one_region(&rt, &region), &shortcut).unwrap();
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
        let shortcut = [(&empty, None, 0)];
        let err = rt.contract(&one_region(&rt, &[a, grandchild]), &shortcut);
        assert!(matches!(err, Err(PgmError::InvalidRegion { .. })));
        let err = rt.contract(&one_region(&rt, &[]), &shortcut);
        assert!(matches!(err, Err(PgmError::InvalidRegion { .. })));
    }

    /// Labels for [`ReducedTree::contract`] that put `region`'s nodes of
    /// `rt` in region 0 and keep the rest.
    fn one_region(rt: &ReducedTree<'_>, region: &[usize]) -> Vec<Option<usize>> {
        let mut region_of = vec![None; rt.len()];
        for &i in region {
            region_of[i] = Some(0);
        }
        region_of
    }

    /// Every field of two trees: node records (label, links, which scope
    /// and which tables they borrow, the edge above), root, child lists,
    /// post-order.
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
            assert_eq!(g.edge, w.edge, "edge of {i}");
        }
        assert_eq!(got.root, want.root);
        assert_eq!(got.shortcuts_used, want.shortcuts_used);
        assert_eq!(got.child_list, want.child_list);
        assert_eq!(got.order, want.order);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// One contraction of several disjoint regions is the tree that
        /// contracting one region at a time, in the same order, arrives
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
                chain = chain.contract(&one_region(&chain, &region), &[(scope, table, id)]).unwrap();
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

    /// The scope `X_S` of the separators that cut `members` out of the tree.
    fn cut_scope(
        tree: &JunctionTree,
        rooted: &RootedTree,
        members: &[usize],
        root: usize,
    ) -> Scope {
        let up = rooted.parent_edge(root).into_iter();
        let down = members
            .iter()
            .flat_map(|&u| rooted.children(u))
            .filter(|w| !members.contains(w));
        let edges = up.chain(down.map(|&w| rooted.parent_edge(w).unwrap()));
        edges.fold(Scope::empty(), |s, e| s.union(tree.separator(e)))
    }

    /// The kernels a pass for `region` over `ns` runs — the nodes the memo
    /// leaves it to compute — and the table it builds.
    fn build(
        tree: &JunctionTree,
        rooted: &RootedTree,
        ns: &NumericState,
        (members, root, scope): &(Vec<usize>, usize, Scope),
    ) -> (usize, Potential) {
        let d = tree.domain();
        let plan = ReducedTree::from_members(tree, rooted, members, *root, Some(ns));
        let anatomy = plan.anatomy(scope, d);
        let recall = Recall::new(&plan, ns.memo(), scope, &anatomy, d);
        let sends = recall.slots.iter().filter(|s| matches!(s.step, Step::Send));
        let kernels = sends.count();
        let table = plan.pass(ns.memo(), scope, &anatomy, d, &mut Scratch::new());
        (kernels, table.unwrap())
    }

    /// The memo fires exactly where the key says it may: over tables that
    /// built `T = S ∪ {parent(r_S)}`, `S` costs one kernel — its own root's;
    /// over tables that built `S`, `T` costs two — its root's and `r_S`'s,
    /// which was `S`'s root and so never filed. The same cliques asked for
    /// one more variable share nothing that carries it. Every table is the
    /// one a build of its region alone over fresh tables computes, bit for
    /// bit, and the fresh tables — clones — never share a memo.
    #[test]
    fn memo_reuses_every_message_below_a_shared_root() {
        let bn = fixtures::chain(9, 3, 4);
        let (tree, rooted, ns) = setup(&bn, Some(2));
        let assert_own = |(members, root, scope): &(Vec<usize>, usize, Scope), got: &Potential| {
            let region = [(&members[..], *root, scope)];
            let alone = region_joints(&tree, &rooted, &ns.clone(), &region).unwrap();
            let want = &alone[0].0;
            assert_eq!(got.scope(), want.scope());
            assert_eq!(bits(got), bits(want));
        };
        let mut checked = 0;
        for r in 0..tree.n_cliques() {
            let Some(p) = rooted.parent(r) else { continue };
            // r with two levels below it, and the same under r's parent
            let below = |u: usize| rooted.depth(u) <= rooted.depth(r) + 2;
            let mut s: Vec<usize> = rooted
                .subtree_nodes(r)
                .iter()
                .copied()
                .filter(|&u| below(u))
                .collect();
            if s.len() < 3 {
                continue;
            }
            s.sort_unstable();
            let mut t = s.clone();
            t.push(p);
            t.sort_unstable();
            let s = (s.clone(), r, cut_scope(&tree, &rooted, &s, r));
            let t = (t.clone(), p, cut_scope(&tree, &rooted, &t, p));
            let t_first = ns.clone();
            let (kernels, t_table) = build(&tree, &rooted, &t_first, &t);
            assert_eq!(kernels, t.0.len(), "T alone under {p}");
            let (kernels, s_table) = build(&tree, &rooted, &t_first, &s);
            assert_eq!(kernels, 1, "S after T under {p}");
            assert_own(&t, &t_table);
            assert_own(&s, &s_table);
            let s_first = ns.clone();
            let (kernels, s_table) = build(&tree, &rooted, &s_first, &s);
            assert_eq!(kernels, s.0.len(), "S alone under {p}");
            let (kernels, t_table) = build(&tree, &rooted, &s_first, &t);
            assert_eq!(kernels, 2, "T after S under {p}");
            assert_own(&s, &s_table);
            assert_own(&t, &t_table);
            // a variable below r_S that X_S lacks: held in one key, not the other
            let r_scope = tree.clique(r);
            let mut deep = s.0.iter().flat_map(|&u| tree.clique(u).iter());
            let x = deep
                .find(|&x| !r_scope.contains(x) && !s.2.contains(x))
                .unwrap();
            let wider = (s.0.clone(), r, s.2.union(&Scope::from_iter([x])));
            let (_, wider_table) = build(&tree, &rooted, &s_first, &wider);
            assert_own(&wider, &wider_table);
            checked += 1;
        }
        assert!(checked >= 3, "{checked} nested pairs");
        assert_eq!(ns.memo().usage().0, 0, "no clone filed into the source");
        // a region that is no subtree is refused, not planned: its root
        // outside it, its members out of order, a member off the pivot's
        // side of its root
        let empty = Scope::empty();
        let pivot = tree.pivot();
        let child = rooted.children(pivot)[0];
        let bad: [(&[usize], usize, &Scope); 3] = [
            (&[child], pivot, &empty),
            (&[child, pivot], child, &empty),
            (&[pivot.min(child), pivot.max(child)], child, &empty),
        ];
        for region in bad {
            let err = region_joints(&tree, &rooted, &ns, &[region]);
            assert!(
                matches!(err, Err(PgmError::InvalidRegion { .. })),
                "{region:?}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// The key is exact on any plan over the tables. On generated
        /// networks, over initialized tables — where a subtree free of query
        /// variables still sends a message other than ones — and over
        /// calibrated ones, queries answered on their Steiner trees, on
        /// those grown by a neighbouring clique and on every clique, and
        /// builds of random regions, all through one memo, answer and build
        /// as each does over a clone of the tables, bit for bit.
        #[test]
        fn any_plan_over_the_tables_takes_only_its_own_messages(seed in 0u64..10_000, n in 8usize..13) {
            use peanut_pgm::generate::{generate_network, DagConfig};
            use proptest::test_runner::TestRng;
            let cfg = DagConfig {
                n_nodes: n,
                n_edges: n - 1 + n / 3,
                max_in_degree: 3,
                window: 4,
                cardinalities: vec![2, 3],
            };
            let Ok(bn) = generate_network(&cfg, seed) else { return Ok(()) };
            let mut rng = TestRng::seed_from_u64(seed);
            let (tree, rooted, calibrated) = setup(&bn, None);
            let initialized = NumericState::initialize(&tree, &bn).unwrap();
            let (d, all) = (bn.domain(), (0..tree.n_cliques()).collect::<Vec<_>>());
            for ns in [&initialized, &calibrated] {
                for _ in 0..12 {
                    let picks: Vec<u32> = (0..rng.sample(2..5usize)).map(|_| rng.sample(0..n as u32)).collect();
                    let q = Scope::from_indices(&picks);
                    let st = SteinerTree::extract(&tree, &rooted, &q).unwrap();
                    let at = st.nodes()[rng.sample(0..st.len())];
                    let next = tree.neighbors(at)[rng.sample(0..tree.neighbors(at).len())].0;
                    let mut grown = st.nodes().to_vec();
                    if !grown.contains(&next) {
                        grown.push(next);
                        grown.sort_unstable();
                    }
                    let top = |m: &[usize]| *m.iter().min_by_key(|&&u| rooted.depth(u)).unwrap();
                    for members in [st.nodes(), &grown[..], &all[..]] {
                        let answer = |ns: &NumericState| {
                            let plan = ReducedTree::from_members(&tree, &rooted, members, top(members), Some(ns));
                            bits(&plan.answer(&q, d).unwrap().0)
                        };
                        proptest::prop_assert_eq!(answer(ns), answer(&ns.clone()), "{} on {:?}", q, members);
                    }
                    let r = rng.sample(0..tree.n_cliques());
                    let deep = rooted.depth(r) + rng.sample(0..3usize);
                    let mut region: Vec<usize> = rooted.subtree_nodes(r).iter().copied().filter(|&u| rooted.depth(u) <= deep).collect();
                    region.sort_unstable();
                    let scope = cut_scope(&tree, &rooted, &region, r).union(&q);
                    let regions = [(&region[..], r, &scope)];
                    let built = region_joints(&tree, &rooted, ns, &regions).unwrap();
                    let want = region_joints(&tree, &rooted, &ns.clone(), &regions).unwrap();
                    proptest::prop_assert_eq!(bits(&built[0].0), bits(&want[0].0), "{:?} for {}", region, scope);
                }
            }
        }
    }

    /// The pass toward `plan`'s own root over `ns`'s memo: per node, the
    /// message the memo gives it (none: computed or skipped), and the
    /// answer.
    fn pass_taking(
        plan: &ReducedTree<'_>,
        ns: &NumericState,
        q: &Scope,
        d: &Domain,
    ) -> (Vec<Option<Arc<Potential>>>, Potential) {
        let anatomy = plan.anatomy(q, d);
        let recall = Recall::new(plan, ns.memo(), q, &anatomy, d);
        let taken = recall.slots.iter().map(|slot| match &slot.step {
            Step::Known(message) => Some(Arc::clone(message)),
            Step::Send | Step::Skip => None,
        });
        let taken = taken.collect();
        let answer = plan.pass(ns.memo(), q, &anatomy, d, &mut Scratch::new());
        (taken, answer.unwrap())
    }

    /// What `ns`'s memo holds for the message node `i` of the plain plan
    /// `plain` sends its parent, under the key the memo module documents.
    fn filed(
        ns: &NumericState,
        plain: &ReducedTree<'_>,
        i: usize,
        q: &Scope,
    ) -> Option<Arc<Potential>> {
        let key = documented_key(plain, plain, &[], i, q);
        ns.memo().open().unwrap().get(&key)
    }

    /// The senders into the shortcut node of `contracted` — `plain` with
    /// one region contracted, both hung from the same clique — and where
    /// each sits in `plain`: every plain sender.
    fn senders_into_shortcut(
        plain: &ReducedTree<'_>,
        contracted: &ReducedTree<'_>,
    ) -> Vec<(usize, usize)> {
        let s = (0..contracted.len())
            .find(|&v| matches!(contracted.nodes[v].label, NodeLabel::Shortcut(_)))
            .unwrap();
        let plain_of = |v: usize| {
            let label = contracted.nodes[v].label;
            (0..plain.len())
                .find(|&w| plain.nodes[w].label == label)
                .unwrap()
        };
        let only_cliques = |c: usize| {
            let inside = |v: usize| {
                std::iter::successors(Some(v), |&w| contracted.parent(w)).any(|w| w == c)
            };
            (0..contracted.len())
                .filter(|&v| inside(v))
                .all(|v| matches!(contracted.nodes[v].label, NodeLabel::Clique(_)))
        };
        let children = contracted.children(s).iter().copied();
        children
            .filter(|&c| only_cliques(c))
            .map(|c| (c, plain_of(c)))
            .collect()
    }

    /// Checks, each time through a fresh memo (a clone's), that a message
    /// into a shortcut is the plain plan's: after `plain` runs, each sender
    /// into the shortcut of `contracted` takes exactly what `plain` filed
    /// for it under its plain key, and after `contracted` runs, `plain`
    /// takes what `contracted` filed there. Either way every answer is a
    /// clone's, bit for bit. Returns how many senders were taken in each
    /// order.
    fn check_shortcut_senders(
        ns: &NumericState,
        plain: &ReducedTree<'_>,
        contracted: &ReducedTree<'_>,
        q: &Scope,
        d: &Domain,
    ) -> [usize; 2] {
        let senders = senders_into_shortcut(plain, contracted);
        let alone = |plan: &ReducedTree<'_>| bits(&pass_taking(plan, &ns.clone(), q, d).1);
        let want = [alone(plain), alone(contracted)];
        let mut taken = [0; 2];
        for (k, (first, then)) in [(plain, contracted), (contracted, plain)]
            .into_iter()
            .enumerate()
        {
            let tables = ns.clone();
            let (_, first_answer) = pass_taking(first, &tables, q, d);
            let (got, then_answer) = pass_taking(then, &tables, q, d);
            for &(c, p) in &senders {
                let at = [c, p][k];
                match (filed(&tables, plain, p, q), &got[at]) {
                    (Some(want), Some(got)) => {
                        assert!(Arc::ptr_eq(&want, got), "{q}: sender {at}");
                        taken[k] += 1;
                    }
                    (None, None) => {}
                    (want, got) => {
                        let (filed, took) = (want.is_some(), got.is_some());
                        panic!("{q}: sender {at}: filed {filed}, taken {took}");
                    }
                }
            }
            assert_eq!(bits(&first_answer), want[k], "{q}");
            assert_eq!(bits(&then_answer), want[1 - k], "{q}");
        }
        taken
    }

    /// A message into a shortcut is a plain message. On a chain and on
    /// Figure 1, for every interior region of one or two nodes contracted
    /// into its shortcut, hung from the plan's root and from each leaf,
    /// the senders into the shortcut take what the plain plan filed under
    /// its key, and the plain plan takes what they filed — each by the key
    /// of the clique at the far end of the edge. A shortcut whose scope
    /// meets a sender in more than that edge's separator leaves the sender
    /// to compute its message.
    #[test]
    fn a_message_into_a_shortcut_is_the_plain_plans() {
        let (mut taken, mut rehung_taken, mut wide_filed) = ([0; 2], [0; 2], 0);
        for (bn, names) in [
            (fixtures::chain(9, 3, 4), vec!["x0", "x8"]),
            (fixtures::figure1(), vec!["a", "l"]),
            (fixtures::figure1(), vec!["b", "i", "f"]),
        ] {
            let (tree, rooted, ns) = setup(&bn, None);
            let d = bn.domain();
            let q = Scope::from_iter(names.iter().map(|n| d.var(n).unwrap()));
            let st = SteinerTree::extract(&tree, &rooted, &q).unwrap();
            let plain = ReducedTree::from_steiner(&tree, &rooted, &st, Some(&ns));
            let interior =
                (0..plain.len()).filter(|&i| i != plain.root() && !plain.children(i).is_empty());
            let regions = interior.flat_map(|i| {
                let up = plain.parent(i).filter(|&p| p != plain.root());
                [vec![i]].into_iter().chain(up.map(|p| vec![i, p]))
            });
            for region in regions.collect::<Vec<_>>() {
                let (scope, table) = cut_out(&bn, &plain, &region, &q);
                let shortcut = [(&scope, Some(table.view()), 0)];
                let contracted = plain
                    .contract(&one_region(&plain, &region), &shortcut)
                    .unwrap();
                let [a, b] = check_shortcut_senders(&ns, &plain, &contracted, &q, d);
                taken = [taken[0] + a, taken[1] + b];
                let leaves = (0..plain.len())
                    .filter(|&i| plain.children(i).is_empty() && !region.contains(&i));
                for leaf in leaves {
                    let label = plain.nodes[leaf].label;
                    let there = (0..contracted.len())
                        .find(|&v| contracted.nodes[v].label == label)
                        .unwrap();
                    let [a, b] = check_shortcut_senders(
                        &ns,
                        &plain.rehung(leaf),
                        &contracted.rehung(there),
                        &q,
                        d,
                    );
                    rehung_taken = [rehung_taken[0] + a, rehung_taken[1] + b];
                }
                // a scope that also holds a sender's own variable
                for (c, p) in senders_into_shortcut(&plain, &contracted) {
                    let node = &contracted.nodes[c];
                    let sep = node.sep_to_parent.unwrap().scope();
                    let Some(x) = node.scope.iter().find(|&x| !sep.contains(x)) else {
                        continue;
                    };
                    let wide = scope.union(&Scope::from_iter([x]));
                    let table = joint::marginal(&bn, &wide).unwrap();
                    let shortcut = [(&wide, Some(table.view()), 0)];
                    let contracted = plain
                        .contract(&one_region(&plain, &region), &shortcut)
                        .unwrap();
                    let tables = ns.clone();
                    let (_, want) = pass_taking(&contracted, &ns.clone(), &q, d);
                    pass_taking(&plain, &tables, &q, d);
                    let (got, answer) = pass_taking(&contracted, &tables, &q, d);
                    assert!(got[c].is_none(), "{q}: sender {c} under a wider scope");
                    wide_filed += usize::from(filed(&tables, &plain, p, &q).is_some());
                    assert_eq!(bits(&answer), bits(&want), "{q}");
                }
            }
        }
        assert!(taken.iter().all(|&n| n > 0), "{taken:?}");
        assert!(rehung_taken.iter().all(|&n| n > 0), "{rehung_taken:?}");
        assert!(
            wide_filed > 0,
            "a plain message left untaken under a wider scope"
        );
    }

    /// The key the memo module documents for the message node `u` of
    /// `plan` sends — `plain` itself, or `plain` with `regions[i]`
    /// contracted into shortcut `i`, both hung from one clique: the clique
    /// at the far end of `u`'s junction-tree edge, read off `plain`, then
    /// the members of `u`'s subtree in `plan`'s post-order, a shortcut
    /// node's id with bit 31 set, then the query variables they hold.
    fn documented_key(
        plain: &ReducedTree<'_>,
        plan: &ReducedTree<'_>,
        regions: &[Vec<usize>],
        u: usize,
        q: &Scope,
    ) -> Vec<u32> {
        let label = plan.nodes[u].label;
        let top = match label {
            NodeLabel::Clique(_) => (0..plain.len())
                .find(|&w| plain.nodes[w].label == label)
                .unwrap(),
            NodeLabel::Shortcut(i) => {
                let inside = |w: usize| regions[i].contains(&w);
                *regions[i]
                    .iter()
                    .find(|&&w| !plain.parent(w).is_some_and(inside))
                    .unwrap()
            }
        };
        let NodeLabel::Clique(far) = plain.nodes[plain.parent(top).unwrap()].label else {
            panic!("a plain plan");
        };
        let below = |v: usize| std::iter::successors(Some(v), |&w| plan.parent(w)).any(|w| w == u);
        let members: Vec<usize> = plan.order.iter().copied().filter(|&v| below(v)).collect();
        let id = |v: usize| match plan.nodes[v].label {
            NodeLabel::Clique(c) => c,
            NodeLabel::Shortcut(i) => 1 << 31 | i,
        };
        let scopes = || members.iter().map(|&v| plan.nodes[v].scope);
        let held = q
            .iter()
            .filter(|&x| scopes().any(|scope| scope.contains(x)));
        let mut key = Vec::new();
        memo::push_key(&mut key, far, members.iter().map(|&v| id(v)), held);
        key
    }

    /// Whether node `u`'s subtree in `plan` holds only cliques.
    fn holds_only_cliques(plan: &ReducedTree<'_>, u: usize) -> bool {
        (0..plan.len())
            .filter(|&v| std::iter::successors(Some(v), |&w| plan.parent(w)).any(|w| w == u))
            .all(|v| matches!(plan.nodes[v].label, NodeLabel::Clique(_)))
    }

    /// Whether a pass from empty memos files the message non-root node `u`
    /// of `plan` sends, as the module documents: into a clique, or into a
    /// shortcut whose scope meets it in just its separator's, and with its
    /// subtree's kernels walking enough product entries per message entry.
    fn is_filed(plan: &ReducedTree<'_>, u: usize, q: &Scope, d: &Domain) -> bool {
        let (node, up) = (&plan.nodes[u], &plan.nodes[plan.parent(u).unwrap()]);
        let cut = node.scope.intersect(up.scope);
        if matches!(up.label, NodeLabel::Shortcut(_)) && node.sep_to_parent.unwrap().scope() != &cut
        {
            return false;
        }
        let anatomy = plan.anatomy(q, d);
        let below = |v: usize| std::iter::successors(Some(v), |&w| plan.parent(w)).any(|w| w == u);
        let subtree: Vec<usize> = (0..plan.len()).filter(|&v| below(v)).collect();
        let walked = subtree.iter().fold(0, |walked: Size, &v| {
            let scope = plan.nodes[v].scope;
            walked + anatomy.carried(v, table_size(scope, d), scope, q, d)
        });
        let held = q
            .iter()
            .filter(|&x| subtree.iter().any(|&v| plan.nodes[v].scope.contains(x)));
        let target = cut.union(&Scope::from_iter(held));
        memo::admits(walked, table_size(&target, d) as usize)
    }

    /// Checks the materialization's memo on `contracted` — `plain` with
    /// `regions` contracted into shortcuts `0, 1, …`, both hung from one
    /// clique — over a clone of `ns`:
    /// * after one pass, every shortcut-holding sender's message is in the
    ///   plan's materialization memo under its documented key exactly when
    ///   the module says it is filed, and never in the tables' memo;
    /// * a second pass takes exactly the topmost messages either memo
    ///   holds, the same `Arc`s, and answers as a pass over a clone's
    ///   empty memos, bit for bit;
    /// * the plan carrying another, empty, memo takes no shortcut-holding
    ///   message, and answers the same.
    ///
    /// Returns how many shortcut-holding messages were filed and taken.
    fn check_materialization_memo(
        ns: &NumericState,
        plain: &ReducedTree<'_>,
        contracted: &ReducedTree<'_>,
        regions: &[Vec<usize>],
        q: &Scope,
        d: &Domain,
    ) -> [usize; 2] {
        let cold = MessageMemo::new();
        let (_, alone) = pass_taking(
            &contracted.clone().with_shortcut_memo(&cold),
            &ns.clone(),
            q,
            d,
        );
        let want = bits(&alone);
        let (memo, tables) = (MessageMemo::new(), ns.clone());
        let plan = contracted.clone().with_shortcut_memo(&memo);
        let (_, first) = pass_taking(&plan, &tables, q, d);
        assert_eq!(bits(&first), want, "{q}");
        let mut filed = 0;
        let mut held = vec![None; plan.len()];
        for u in (0..plan.len()).filter(|&u| u != plan.root()) {
            let key = documented_key(plain, &plan, regions, u, q);
            let in_tables = tables.memo().open().unwrap().get(&key);
            if holds_only_cliques(&plan, u) {
                held[u] = in_tables;
                continue;
            }
            assert!(in_tables.is_none(), "{q}: sender {u} in the tables' memo");
            held[u] = memo.open().unwrap().get(&key);
            assert_eq!(
                held[u].is_some(),
                is_filed(&plan, u, q, d),
                "{q}: sender {u}"
            );
            filed += usize::from(held[u].is_some());
        }
        let (got, second) = pass_taking(&plan, &tables, q, d);
        let mut taken = 0;
        for u in 0..plan.len() {
            let mut above = std::iter::successors(plan.parent(u), |&w| plan.parent(w));
            let topmost = !above.any(|w| held[w].is_some());
            match (&held[u], &got[u]) {
                (Some(want), Some(got)) if topmost => {
                    assert!(Arc::ptr_eq(want, got), "{q}: sender {u}");
                    taken += usize::from(!holds_only_cliques(&plan, u));
                }
                (_, None) if !topmost || held[u].is_none() => {}
                (want, got) => {
                    let (held, took) = (want.is_some(), got.is_some());
                    panic!("{q}: sender {u}: held {held}, taken {took}, topmost {topmost}");
                }
            }
        }
        assert_eq!(bits(&second), want, "{q}");
        let other = MessageMemo::new();
        let (got, answer) = pass_taking(
            &contracted.clone().with_shortcut_memo(&other),
            &tables,
            q,
            d,
        );
        for (u, got) in got.iter().enumerate() {
            assert!(
                got.is_none() || holds_only_cliques(&plan, u),
                "{q}: sender {u} from another memo"
            );
        }
        assert_eq!(bits(&answer), want, "{q}");
        [filed, taken]
    }

    /// `plain` with `regions[i]` contracted into shortcut `i` of scope and
    /// table `tables[i]` — every region, or `only` the one.
    fn contracted_with<'a>(
        plain: &ReducedTree<'a>,
        regions: &[Vec<usize>],
        tables: &'a [(Scope, Potential)],
        only: Option<usize>,
    ) -> ReducedTree<'a> {
        let mut region_of = vec![None; plain.len()];
        let mut shortcuts = Vec::new();
        for (i, region) in regions.iter().enumerate() {
            if only.is_none_or(|k| k == i) {
                region
                    .iter()
                    .for_each(|&w| region_of[w] = Some(shortcuts.len()));
                shortcuts.push((&tables[i].0, Some(tables[i].1.view()), i));
            }
        }
        plain.contract(&region_of, &shortcuts).unwrap()
    }

    /// A message whose subtree holds a shortcut is memoized with the
    /// materialization the shortcut comes from. On a chain and on Figure 1,
    /// with one interior region contracted and with two, hung from the
    /// plan's root and from each leaf, `check_materialization_memo` holds.
    /// A sender holding one shortcut into the other takes what the plan
    /// with only the first filed for it, unless the other's scope meets it
    /// in more than its separator: then it is computed.
    #[test]
    fn a_message_holding_a_shortcut_is_filed_with_its_materialization() {
        let (mut filed, mut rehung_filed, mut shared, mut wide_filed) = ([0; 2], [0; 2], 0, 0);
        for (bn, names) in [
            (fixtures::chain(9, 3, 4), vec!["x0", "x8"]),
            (fixtures::figure1(), vec!["a", "l"]),
            (fixtures::figure1(), vec!["b", "i", "f"]),
        ] {
            let (tree, rooted, ns) = setup(&bn, None);
            let d = bn.domain();
            let q = Scope::from_iter(names.iter().map(|n| d.var(n).unwrap()));
            let st = SteinerTree::extract(&tree, &rooted, &q).unwrap();
            let plain = ReducedTree::from_steiner(&tree, &rooted, &st, Some(&ns));
            let interior: Vec<usize> = (0..plain.len())
                .filter(|&i| i != plain.root() && !plain.children(i).is_empty())
                .collect();
            let ones = interior.iter().map(|&i| vec![vec![i]]);
            let twos = interior.iter().flat_map(|&i| {
                interior
                    .iter()
                    .filter(move |&&j| j > i)
                    .map(move |&j| vec![vec![i], vec![j]])
            });
            for regions in ones.chain(twos).collect::<Vec<_>>() {
                let tables: Vec<(Scope, Potential)> = regions
                    .iter()
                    .map(|r| cut_out(&bn, &plain, r, &q))
                    .collect();
                let contracted = contracted_with(&plain, &regions, &tables, None);
                let [f, t] = check_materialization_memo(&ns, &plain, &contracted, &regions, &q, d);
                let k = regions.len() - 1;
                filed[k] += f;
                assert_eq!(t > 0, f > 0, "{q}: {regions:?}");
                let leaves = (0..plain.len()).filter(|&i| {
                    plain.children(i).is_empty() && !regions.iter().any(|r| r.contains(&i))
                });
                for leaf in leaves {
                    let label = plain.nodes[leaf].label;
                    let there = (0..contracted.len())
                        .find(|&v| contracted.nodes[v].label == label)
                        .unwrap();
                    let [f, t] = check_materialization_memo(
                        &ns,
                        &plain.rehung(leaf),
                        &contracted.rehung(there),
                        &regions,
                        &q,
                        d,
                    );
                    rehung_filed[k] += f;
                    assert_eq!(t > 0, f > 0, "{q}: {regions:?} from {leaf}");
                }
                // a sender holding one shortcut into the other, after the
                // plan with only the first ran over the same memos
                let into = |c: usize| match contracted.nodes[contracted.parent(c)?].label {
                    NodeLabel::Shortcut(i) if !holds_only_cliques(&contracted, c) => Some(i),
                    _ => None,
                };
                for (c, i) in (0..contracted.len()).filter_map(|c| Some((c, into(c)?))) {
                    let node = &contracted.nodes[c];
                    let sep = node.sep_to_parent.unwrap().scope();
                    let key = documented_key(&plain, &contracted, &regions, c, &q);
                    let wider = node.scope.iter().find(|&x| !sep.contains(x)).map(|x| {
                        let mut wider = tables.clone();
                        let scope = wider[i].0.union(&Scope::from_iter([x]));
                        wider[i] = (scope.clone(), joint::marginal(&bn, &scope).unwrap());
                        wider
                    });
                    let wide = wider.iter().map(|wider| (wider, true));
                    for (tables, wide) in std::iter::once((&tables, false)).chain(wide) {
                        let (memo, state) = (MessageMemo::new(), ns.clone());
                        let first = contracted_with(&plain, &regions, tables, Some(1 - i))
                            .with_shortcut_memo(&memo);
                        pass_taking(&first, &state, &q, d);
                        let held = memo.open().unwrap().get(&key);
                        let both = contracted_with(&plain, &regions, tables, None);
                        let (_, want) = pass_taking(
                            &both.clone().with_shortcut_memo(&MessageMemo::new()),
                            &ns.clone(),
                            &q,
                            d,
                        );
                        let (got, answer) =
                            pass_taking(&both.with_shortcut_memo(&memo), &state, &q, d);
                        assert_eq!(bits(&answer), bits(&want), "{q}");
                        match (held, &got[c]) {
                            (Some(_), None) if wide => wide_filed += 1,
                            (Some(held), Some(got)) if !wide => {
                                assert!(Arc::ptr_eq(&held, got), "{q}: sender {c}");
                                shared += 1;
                            }
                            (None, None) => {}
                            (held, got) => {
                                let (held, took) = (held.is_some(), got.is_some());
                                panic!("{q}: sender {c}, wide {wide}: held {held}, taken {took}");
                            }
                        }
                    }
                }
            }
        }
        assert!(filed.iter().all(|&n| n > 0), "{filed:?}");
        assert!(rehung_filed.iter().all(|&n| n > 0), "{rehung_filed:?}");
        assert!(
            shared > 0,
            "no shortcut-holding message shared across plans"
        );
        assert!(
            wide_filed > 0,
            "no filed message left untaken under a wider scope"
        );
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

    fn bits(p: &Potential) -> Vec<u64> {
        p.values().iter().map(|v| v.to_bits()).collect()
    }

    /// The numeric pass toward `plan`'s own root, every message computed:
    /// a memo with no room neither holds nor files one.
    fn pass_at_root(plan: &ReducedTree<'_>, q: &Scope, d: &Domain) -> Potential {
        let anatomy = plan.anatomy(q, d);
        let memo = MessageMemo::with_cap(0);
        plan.pass(&memo, q, &anatomy, d, &mut Scratch::new())
            .unwrap()
    }

    /// Checks every rooting of `plan` for `q` against the root choice, and
    /// returns whether the pass moved off `r_q`:
    /// * the plan re-hung from each member `m` is charged the price the
    ///   walk gave `m`, and `r_q`'s price is the plan's count;
    /// * the chosen root's price is the minimum, returned as the executed
    ///   count, and a tie keeps `r_q`;
    /// * on a plain plan, that count is the least over the members `m` of
    ///   the count of the plan `from_steiner` builds rooted at `m`;
    /// * the anatomy folds to the plan's cost;
    /// * every rooting answers within 1e-12 of the pass toward `r_q`, which
    ///   is within 1e-9 of the network's joint;
    /// * `answer_in` reports the count toward `r_q`, and is the pass toward
    ///   `r_q` bit for bit when the count does not strictly fall.
    fn check_rootings(
        bn: &peanut_pgm::BayesianNetwork,
        tree: &JunctionTree,
        plan: &ReducedTree<'_>,
        q: &Scope,
    ) -> bool {
        let d = bn.domain();
        let mut anatomy = plan.anatomy(q, d);
        assert_eq!(anatomy.cost(), plan.cost(q, d), "{q}");
        let (chosen, executed) = anatomy.cheapest_root(plan, q, d);
        let prices: Vec<Size> = (0..plan.len()).map(|m| anatomy.price(m)).collect();
        let at_root = pass_at_root(plan, q, d);
        let want = joint::marginal(bn, q).unwrap();
        assert!(at_root.max_abs_diff(&want).unwrap() < 1e-9, "{q} at r_q");
        for (m, &price) in prices.iter().enumerate() {
            let hung = plan.rehung(m);
            assert_eq!(hung.root(), m);
            assert_eq!(hung.cost(q, d).ops, price, "{q} toward {m}");
            let diff = pass_at_root(&hung, q, d).max_abs_diff(&at_root).unwrap();
            assert!(diff < 1e-12, "{q} toward {m}: off by {diff}");
        }
        let cost = plan.cost(q, d);
        assert_eq!(prices[plan.root()], cost.ops);
        let least = *prices.iter().min().unwrap();
        assert_eq!(prices[chosen], least, "{q}: {prices:?}");
        assert_eq!(executed, least, "{q}");
        let clique = |node: &RNode<'_>| match node.label {
            NodeLabel::Clique(c) => Some(c),
            NodeLabel::Shortcut(_) => None,
        };
        if let Some(members) = plan.nodes.iter().map(clique).collect::<Option<Vec<_>>>() {
            let toward = |m: CliqueId| {
                let rooted = RootedTree::rooted_at(tree, m);
                ReducedTree::from_members(tree, &rooted, &members, m, None)
                    .cost(q, d)
                    .ops
            };
            let brute = members.iter().map(|&m| toward(m)).min();
            assert_eq!(Some(executed), brute, "{q}: executed count");
        }
        if prices[plan.root()] == least {
            assert_eq!(chosen, plan.root(), "{q}: a tie moved the root");
        }
        let (got, got_cost) = plan.answer_in(q, d, &mut Scratch::new()).unwrap();
        assert_eq!(got_cost, cost);
        assert!(got.max_abs_diff(&want).unwrap() < 1e-9);
        if chosen == plan.root() {
            assert_eq!(bits(&got), bits(&at_root), "{q}");
        }
        chosen != plan.root()
    }

    /// A shortcut for the connected region `region` of `plan`: the scope
    /// of the separators that cut it out plus the query variables inside
    /// it, and that scope's table from the network's joint.
    fn cut_out(
        bn: &peanut_pgm::BayesianNetwork,
        plan: &ReducedTree<'_>,
        region: &[usize],
        q: &Scope,
    ) -> (Scope, Potential) {
        let mut scope = Scope::empty();
        for &i in region {
            let node = plan.node(i).scope;
            let outside = plan.children(i).iter().copied().chain(plan.parent(i));
            for j in outside.filter(|j| !region.contains(j)) {
                scope = scope.union(&node.intersect(plan.node(j).scope));
            }
            scope = scope.union(&node.intersect(q));
        }
        let table = joint::marginal(bn, &scope).unwrap();
        (scope, table)
    }

    /// A re-hung plan is the plan `from_steiner` builds over the same
    /// members rooted there, field by field: same links, same separators.
    #[test]
    fn rehung_plan_is_the_plan_rooted_there() {
        for (bn, names) in [
            (fixtures::figure1(), vec!["b", "i", "f"]),
            (fixtures::figure1(), vec!["a", "f", "h", "l"]),
            (fixtures::asia(), vec!["visit_asia", "bronchitis"]),
        ] {
            let (tree, rooted, ns) = setup(&bn, None);
            let q = Scope::from_iter(names.iter().map(|n| bn.domain().var(n).unwrap()));
            let st = SteinerTree::extract(&tree, &rooted, &q).unwrap();
            let rt = ReducedTree::from_steiner(&tree, &rooted, &st, Some(&ns));
            assert!(rt.len() >= 3, "{names:?}");
            for (m, &u) in st.nodes().iter().enumerate() {
                let there = RootedTree::rooted_at(&tree, u);
                let want = ReducedTree::from_members(&tree, &there, st.nodes(), u, Some(&ns));
                assert_same_tree(&rt.rehung(m), &want);
            }
        }
    }

    /// Over every pair and triple of Figure 1's variables on the plain
    /// tree: the root choice holds up to every rooting, and some answers
    /// do move off `r_q`.
    #[test]
    fn answers_run_toward_the_cheapest_root() {
        let bn = fixtures::figure1();
        let (tree, rooted, ns) = setup(&bn, None);
        let n = bn.n_vars() as u32;
        let (mut checked, mut moved) = (0, 0);
        for a in 0..n {
            for b in a + 1..n {
                for q in [
                    Scope::from_indices(&[a, b]),
                    Scope::from_indices(&[a, b, (a + b + 1) % n]),
                ] {
                    let st = SteinerTree::extract(&tree, &rooted, &q).unwrap();
                    let rt = ReducedTree::from_steiner(&tree, &rooted, &st, Some(&ns));
                    moved += usize::from(check_rootings(&bn, &tree, &rt, &q));
                    checked += 1;
                }
            }
        }
        assert!(moved > 0 && moved < checked, "{moved} of {checked} moved");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// On generated networks, 2–5-variable queries, plain plans and
        /// plans with a region contracted into a shortcut: the root the
        /// walk picks is the brute-force minimum over every member, each
        /// price is the re-hung plan's own count, and every rooting gives
        /// the same answer.
        #[test]
        fn cheapest_root_is_the_brute_force_minimum(seed in 0u64..10_000, n in 7usize..11) {
            use peanut_pgm::generate::{generate_network, DagConfig};
            use proptest::test_runner::TestRng;
            let cfg = DagConfig {
                n_nodes: n,
                n_edges: n - 1 + n / 3,
                max_in_degree: 3,
                window: 3,
                cardinalities: vec![2, 3],
            };
            let Ok(bn) = generate_network(&cfg, seed) else { return Ok(()) };
            let mut rng = TestRng::seed_from_u64(seed);
            let (tree, rooted, ns) = setup(&bn, None);
            let picks: Vec<u32> = (0..rng.sample(2..6usize)).map(|_| rng.sample(0..n as u32)).collect();
            let q = Scope::from_indices(&picks);
            let st = SteinerTree::extract(&tree, &rooted, &q).unwrap();
            let rt = ReducedTree::from_steiner(&tree, &rooted, &st, Some(&ns));
            check_rootings(&bn, &tree, &rt, &q);
            if rt.len() < 3 {
                return Ok(());
            }
            // a connected region short of the whole plan, grown from a
            // random node along tree edges
            let mut region = vec![rng.sample(0..rt.len())];
            for _ in 0..rng.sample(0..rt.len() - 1) {
                let from = region[rng.sample(0..region.len())];
                let around: Vec<usize> = rt.children(from).iter().copied().chain(rt.parent(from)).collect();
                let next = around[rng.sample(0..around.len())];
                if !region.contains(&next) && region.len() + 1 < rt.len() {
                    region.push(next);
                }
            }
            let (scope, table) = cut_out(&bn, &rt, &region, &q);
            let shortcut = [(&scope, Some(table.view()), 0)];
            let contracted = rt.contract(&one_region(&rt, &region), &shortcut).unwrap();
            check_rootings(&bn, &tree, &contracted, &q);
        }
    }
}
