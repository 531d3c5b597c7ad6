//! LRDP — the left-to-right (depth-first) dynamic program for the
//! **single optimal shortcut potential** problem (SOSP, Algorithms 1–2).
//!
//! ## Formulation
//!
//! For a root `r_S`, the paper's candidate space is: shortcut subtrees
//! `V(S) ∋ r_S` contained in `subtree(r_S)`. Every candidate is identified
//! by a non-empty *antichain of explicit cut edges* `{(v, π_v)}` — no chosen
//! edge an ancestor of another — with `V(S)` the union of the paths
//! `path(π_v, r_S)`. Algorithm 1 values a candidate through the per-branch
//! quantities `b_Q(v)` / `c(v)` — the true benefit (Def. 3.3) and true size
//! `μ` of the single-path shortcut `S_v = path(π_v, r_S)` — composing
//! benefits additively and costs multiplicatively across branches (see the
//! faithfulness notes). The forward/backward passes of the paper's
//! pseudocode compute the optimum of that valuation; we implement the
//! equivalent post-order branch DP, which is clearer and has the same
//! `O(n·K²)` complexity (over the budget grid, `O(n·|G|²)`).
//!
//! ## Pass 1 reads columns
//!
//! Pass 1 walks every root's subtree depth-first and reads `(b_Q, c)` of
//! the path from the root to each node: `n` roots × `O(n)` pushes, pops and
//! reads. When every step visited every distinct query through that
//! query's own rows (binary searches, one counter vector per query), pass
//! 1 was 75–88 % of a selection. The [`OfflineContext`] lays the workload
//! out by clique instead, so a step costs one streaming pass over `|Q|`
//! contributions plus work in the pushed clique's members:
//!
//! * one `n × |Q|` array of Def. 3.2's contributions, clique-major, so a
//!   push or pop adds the pushed clique's column to the per-query sums in
//!   one streaming pass;
//! * per clique, three rows of query bits — the queries whose (multi-node)
//!   Steiner tree holds it, those with a Steiner child there, those with
//!   two or more — and, per holding query, the positions of the query's
//!   variables the clique contains. A step updates the path counters of
//!   the pushed clique's members, and finds the queries its parent now
//!   branches off the path for with word operations on three rows;
//! * a read visits only the queries on the path that branch at an internal
//!   path node or at the top, found word by word from the live counters'
//!   bits and the top's branch row; it checks each one's variable slots
//!   against the per-slot cover counts (how many of the query's Steiner
//!   cliques hold the variable) and weighs its sum by the query's weight
//!   `Pr_Q(q)`, both read from the columns, not from any per-query record.
//!
//! The bits cannot move: each query's sum takes the same `± contrib` terms
//! in the same push/pop order, every counter reaches the same value, and a
//! read adds its terms `w_q · Σ contrib` in ascending query order — the
//! order the row form summed them in, skipping only terms it skipped. A
//! test keeps the row form, built from the workload on its own, as the
//! reference and compares every read by bits.
//!
//! ## Faithfulness notes
//!
//! Summarized under "Deviations from the paper" in `ARCHITECTURE.md`; the
//! substance is here.
//!
//! * Benefits of merged branches are additive *estimates* (shared path
//!   nodes re-counted). Costs of merged branches compose **multiplicatively**
//!   (`μ(S₁∪S₂) ≤ μ(S₁)·μ(S₂)`, exact when the branch cut scopes are
//!   disjoint) — the reading consistent with the paper's own NP-hardness
//!   reduction (`e^{Σw} = Πe^w`) and with Figure 4's actual ≤ target
//!   budgets; a literal additive Σc(v) would under-estimate merged sizes by
//!   orders of magnitude. Reconstructed solutions get their **true** `μ(S)`
//!   and true benefit recomputed; multiplicative composition guarantees
//!   `true μ(S) ≤` the DP estimate, so budgets are never exceeded.
//! * Costs round **up** to grid points, so a solution's additive estimate
//!   never exceeds the budget it was returned for.
//! * Like the paper's edge-indexed tables, candidates never include a leaf
//!   clique of the junction tree in `V(S)` (there is no edge below a leaf to
//!   cut).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use crate::context::OfflineContext;
use crate::exec::Executor;
use crate::grid::{BudgetGrid, Compose};
use crate::shortcut::Shortcut;
use crate::sync::OnceLock;
use crate::util::{ones, BitSet};
use peanut_junction::RootedTree;
use peanut_pgm::{Size, Var};
use std::collections::HashMap;

/// A reconstructed SOSP solution.
#[derive(Clone, Debug)]
pub struct ShortcutSolution {
    /// The shortcut with its true cut/scope/size.
    pub shortcut: Shortcut,
    /// The DP's additive benefit estimate.
    pub dp_benefit: f64,
    /// The DP's additive cost estimate (grid value it was charged).
    pub dp_cost: Size,
    /// True workload benefit `B(S, Q)` (Def. 3.3).
    pub true_benefit: f64,
    /// Smallest grid index at which this solution is optimal.
    pub min_index: usize,
}

/// LRDP output for one root: the optimal shortcut per budget grid point.
#[derive(Clone, Debug)]
pub struct RootTables {
    /// `r_S`.
    pub root: usize,
    /// `P[r_S, c]` per grid index (`NEG_INFINITY` = no candidate fits).
    pub dp_value: Vec<f64>,
    /// Unique reconstructed solutions.
    pub solutions: Vec<ShortcutSolution>,
    /// Grid index → index into `solutions`.
    pub per_budget: Vec<Option<usize>>,
}

/// Runs LRDP for every clique as `r_S` on the given [`Executor`] (the roots
/// are independent): a [`ScopedExecutor`](crate::ScopedExecutor) spawns
/// threads per call, the serving tier's persistent worker pool lends its
/// own. Tiny trees skip the fan-out entirely — the DP per root is cheaper
/// than any dispatch. Output is deterministic (sorted by root) regardless
/// of task completion order.
pub fn lrdp_all_on(
    ctx: &OfflineContext,
    grid: &BudgetGrid,
    exec: &dyn Executor,
) -> Vec<RootTables> {
    let n = ctx.tree().n_cliques();
    if n < 4 {
        return (0..n).map(|r| lrdp(ctx, r, grid)).collect();
    }
    // each task owns slot `r`: no result lock, and the output is already
    // in root order — no reassembly sort
    let slots: Vec<OnceLock<RootTables>> = (0..n).map(|_| OnceLock::new()).collect();
    exec.run_tasks(n, &|r| {
        let tables = lrdp(ctx, r, grid);
        assert!(slots[r].set(tables).is_ok(), "executor runs each root once");
    });
    #[expect(clippy::expect_used, reason = "`run_tasks` returns once every task ran")]
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("executor ran every root"))
        .collect()
}

/// Runs LRDP rooted at `r_s` over the given budget grid.
pub fn lrdp(ctx: &OfflineContext, r_s: usize, grid: &BudgetGrid) -> RootTables {
    let m = grid.len();
    if ctx.rooted().children(r_s).is_empty() {
        // leaf root: no candidate has an edge to cut below r_s
        return RootTables {
            root: r_s,
            dp_value: vec![f64::NEG_INFINITY; m],
            solutions: Vec::new(),
            per_budget: vec![None; m],
        };
    }
    let (cut_val, cut_cost_idx) = path_values(ctx, r_s, grid);
    select(ctx, r_s, grid, &cut_val, &cut_cost_idx)
}

/// Pass 1: `b_Q(w)` and the grid index of `c(w)` for every node `w` below
/// `r_s`, at `w`'s position in r_s's stretch of the DFS order (r_s's own
/// slot stays empty).
fn path_values(
    ctx: &OfflineContext,
    r_s: usize,
    grid: &BudgetGrid,
) -> (Vec<f64>, Vec<Option<usize>>) {
    let rooted = ctx.rooted();
    let len = rooted.subtree_nodes(r_s).len();
    let base = rooted.dfs_pos(r_s);
    let at = |w: usize| rooted.dfs_pos(w) - base;
    let mut cut_val = vec![0.0f64; len];
    let mut cut_cost_idx: Vec<Option<usize>> = vec![None; len];
    let mut state = PathState::new(ctx);
    state.push(r_s);
    // iterative DFS carrying an explicit stack of (node, next-child)
    let mut stack: Vec<(usize, usize)> = vec![(r_s, 0)];
    while let Some(&mut (u, ref mut next)) = stack.last_mut() {
        let kids = rooted.children(u);
        if *next < kids.len() {
            let w = kids[*next];
            *next += 1;
            // path currently ends at u = π_w: value/cost of S_w
            let (val, cost) = state.read();
            cut_val[at(w)] = val;
            cut_cost_idx[at(w)] = grid.round_up(cost);
            state.push(w);
            stack.push((w, 0));
        } else {
            state.pop(u);
            stack.pop();
        }
    }
    (cut_val, cut_cost_idx)
}

/// Pass 2 and reconstruction over pass 1's path values: the best antichain
/// of cuts per grid point, and the shortcut each one spans.
fn select(
    ctx: &OfflineContext,
    r_s: usize,
    grid: &BudgetGrid,
    cut_val: &[f64],
    cut_cost_idx: &[Option<usize>],
) -> RootTables {
    let rooted = ctx.rooted();
    let m = grid.len();
    let len = cut_val.len();
    // per-node state lives at the node's position in r_s's stretch of the
    // DFS order, `m` cells per node
    let base = rooted.dfs_pos(r_s);
    let at = |w: usize| rooted.dfs_pos(w) - base;

    // ---- pass 2: post-order branch DP ---------------------------------
    // D[w][ci]: best additive value of w's branch decision within budget
    // grid[ci]; NEG_INFINITY when infeasible. r_s's own cells stay unused.
    let mut d = vec![f64::NEG_INFINITY; len * m];
    let mut choice = vec![Choice::None; len * m];
    let mut combines: Vec<Option<Combine>> = (0..len).map(|_| None).collect();

    for (i, &w) in rooted.subtree_nodes(r_s).iter().enumerate().skip(1).rev() {
        let kids = rooted.children(w);
        // w's children sit after w in the DFS order: already final
        let (head, below) = d.split_at_mut((i + 1) * m);
        let table = &mut head[i * m..];
        let ch = &mut choice[i * m..][..m];
        // option 1: explicit cut at (w, π_w)
        if let Some(start) = cut_cost_idx[i] {
            let val = cut_val[i];
            for ci in start..m {
                if val > table[ci] {
                    table[ci] = val;
                    ch[ci] = Choice::Cut;
                }
            }
        }
        // option 2: extend into w — requires ≥1 explicit cut deeper
        if !kids.is_empty() {
            let child_tables = kids.iter().map(|&c| &below[(at(c) - i - 1) * m..][..m]);
            let comb = Combine::run(child_tables, grid, Compose::Mul);
            for ci in 0..m {
                if comb.req[ci] > table[ci] {
                    table[ci] = comb.req[ci];
                    ch[ci] = Choice::Extend;
                }
            }
            combines[i] = Some(comb);
        }
    }

    // ---- top level: combine r_s's children, at least one explicit cut --
    let kids = rooted.children(r_s);
    let top = Combine::run(
        kids.iter().map(|&c| &d[at(c) * m..][..m]),
        grid,
        Compose::Mul,
    );
    let dp_value = top.req.clone();

    // ---- reconstruction ------------------------------------------------
    let decisions = Decisions {
        rooted,
        base,
        m,
        choice,
        combines,
    };
    let mut solutions: Vec<ShortcutSolution> = Vec::new();
    let mut per_budget: Vec<Option<usize>> = vec![None; m];
    let mut seen: HashMap<Vec<usize>, usize> = HashMap::new();
    for ci in 0..m {
        if !dp_value[ci].is_finite() || dp_value[ci] <= 0.0 {
            continue;
        }
        let mut cut_nodes: Vec<usize> = Vec::new();
        let taken = top.backtrack(true, ci, kids);
        for (w, ci_w) in taken {
            decisions.collect_cuts(w, ci_w, &mut cut_nodes);
        }
        if cut_nodes.is_empty() {
            continue;
        }
        cut_nodes.sort_unstable();
        let idx = match seen.get(&cut_nodes) {
            Some(&i) => i,
            None => {
                // V(S) = union of paths from each cut node's parent to r_s
                let mut members: Vec<usize> = Vec::new();
                let mut marked = vec![false; ctx.tree().n_cliques()];
                for &cn in &cut_nodes {
                    #[expect(
                        clippy::expect_used,
                        reason = "cut nodes are strict descendants of r_s"
                    )]
                    let mut u = rooted.parent(cn).expect("cut node below r_s");
                    #[expect(clippy::expect_used, reason = "the walk up stops at r_s")]
                    loop {
                        if marked[u] {
                            break;
                        }
                        marked[u] = true;
                        members.push(u);
                        if u == r_s {
                            break;
                        }
                        u = rooted.parent(u).expect("within subtree");
                    }
                }
                #[expect(clippy::expect_used, reason = "paths up to one root are connected")]
                let shortcut = Shortcut::from_nodes(ctx.tree(), rooted, members)
                    .expect("reconstructed member set is connected");
                let true_benefit = ctx.benefit(&shortcut);
                let i = solutions.len();
                solutions.push(ShortcutSolution {
                    shortcut,
                    dp_benefit: dp_value[ci],
                    dp_cost: grid.value(ci),
                    true_benefit,
                    min_index: ci,
                });
                seen.insert(cut_nodes.clone(), i);
                i
            }
        };
        per_budget[ci] = Some(idx);
    }

    RootTables {
        root: r_s,
        dp_value,
        solutions,
        per_budget,
    }
}

/// Pass 2's decisions for the nodes below r_s, each at its position in
/// r_s's stretch of the DFS order (`base` is r_s's).
struct Decisions<'r> {
    rooted: &'r RootedTree,
    base: usize,
    m: usize,
    choice: Vec<Choice>,
    combines: Vec<Option<Combine>>,
}

impl Decisions<'_> {
    /// The explicit cut nodes of `w`'s branch decision at grid index `ci`.
    fn collect_cuts(&self, w: usize, ci: usize, out: &mut Vec<usize>) {
        let i = self.rooted.dfs_pos(w) - self.base;
        match (self.choice[i * self.m + ci], &self.combines[i]) {
            (Choice::Cut, _) => out.push(w),
            (Choice::Extend, Some(comb)) => {
                for (c, ci_c) in comb.backtrack(true, ci, self.rooted.children(w)) {
                    self.collect_cuts(c, ci_c, out);
                }
            }
            #[expect(clippy::unreachable, reason = "backtracking follows feasible cells only")]
            _ => unreachable!("backtrack reached an infeasible state"),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Choice {
    None,
    Cut,
    Extend,
}

/// Backpointer of one combine-layer cell.
#[derive(Clone, Copy, Debug, PartialEq)]
enum CombPtr {
    /// Impossible state.
    Dead,
    /// Value inherited from the previous grid index (prefix max).
    Inherit,
    /// Child skipped (value from previous layer, same index).
    Skip,
    /// Child taken with the given allocations.
    Take { prev_ci: usize, child_ci: usize },
}

/// Knapsack combination of children branch tables over the budget grid with
/// round-up cost addition. Shared with BUDP (crate-internal).
pub(crate) struct Combine {
    /// Best value, any number of children taken.
    pub(crate) free: Vec<f64>,
    /// Best value, at least one child taken.
    pub(crate) req: Vec<f64>,
    /// Per child layer `k`, its `m` backpointers at `k · m`.
    free_ptr: Vec<CombPtr>,
    req_ptr: Vec<CombPtr>,
}

impl Combine {
    /// Combines the children's tables, each `grid.len()` long, in order.
    ///
    /// A child's scan starts at its first finite entry: every entry before
    /// it is one the pairing loop would skip anyway. Children's tables are
    /// prefix-maxed, so that is where a child's budget first buys anything.
    #[allow(clippy::needless_range_loop)] // prev_ci indexes `free` and feeds grid.combined
    pub(crate) fn run<'a>(
        children: impl IntoIterator<Item = &'a [f64]>,
        grid: &BudgetGrid,
        mode: Compose,
    ) -> Combine {
        let m = grid.len();
        let children = children.into_iter();
        let mut free = vec![0.0f64; m];
        let mut req = vec![f64::NEG_INFINITY; m];
        // the next layer's values, swapped with the current one per child
        let mut nf = vec![0.0f64; m];
        let mut nr = vec![0.0f64; m];
        let mut free_ptr: Vec<CombPtr> = Vec::with_capacity(children.size_hint().0 * m);
        let mut req_ptr: Vec<CombPtr> = Vec::with_capacity(children.size_hint().0 * m);
        for table in children {
            nf.copy_from_slice(&free);
            nr.copy_from_slice(&req);
            let layer = free_ptr.len();
            free_ptr.resize(layer + m, CombPtr::Skip);
            req_ptr.extend(req.iter().map(|v| {
                if v.is_finite() {
                    CombPtr::Skip
                } else {
                    CombPtr::Dead
                }
            }));
            let (pf, pr) = (&mut free_ptr[layer..], &mut req_ptr[layer..]);
            let first = table.iter().position(|v| v.is_finite()).unwrap_or(m);
            for prev_ci in 0..m {
                if !free[prev_ci].is_finite() {
                    continue;
                }
                let mut combined = grid.combined(prev_ci, mode);
                for (child_ci, &cv) in table.iter().enumerate().skip(first) {
                    if !cv.is_finite() {
                        continue;
                    }
                    let Some(t) = combined.with(child_ci) else {
                        break; // larger child_ci only grows the combination
                    };
                    let cand = free[prev_ci] + cv;
                    if cand > nf[t] {
                        nf[t] = cand;
                        pf[t] = CombPtr::Take { prev_ci, child_ci };
                    }
                    if cand > nr[t] {
                        nr[t] = cand;
                        pr[t] = CombPtr::Take { prev_ci, child_ci };
                    }
                }
            }
            // prefix max to keep tables monotone
            for ci in 1..m {
                if nf[ci - 1] > nf[ci] {
                    nf[ci] = nf[ci - 1];
                    pf[ci] = CombPtr::Inherit;
                }
                if nr[ci - 1] > nr[ci] {
                    nr[ci] = nr[ci - 1];
                    pr[ci] = CombPtr::Inherit;
                }
            }
            std::mem::swap(&mut free, &mut nf);
            std::mem::swap(&mut req, &mut nr);
        }
        Combine {
            free,
            req,
            free_ptr,
            req_ptr,
        }
    }

    /// Recovers the taken children (with their budget allocations) for the
    /// final state at grid index `ci` in the `req` (or `free`) table.
    pub(crate) fn backtrack(
        &self,
        want_req: bool,
        mut ci: usize,
        kids: &[usize],
    ) -> Vec<(usize, usize)> {
        let m = self.free.len();
        let mut taken = Vec::new();
        let mut in_req = want_req;
        let mut k = kids.len();
        while k > 0 {
            let layer = if in_req {
                &self.req_ptr
            } else {
                &self.free_ptr
            };
            match layer[(k - 1) * m + ci] {
                #[expect(
                    clippy::unreachable,
                    reason = "a feasible cell never points at a dead one"
                )]
                CombPtr::Dead => unreachable!("backtrack entered an infeasible cell"),
                CombPtr::Inherit => {
                    ci -= 1;
                }
                CombPtr::Skip => {
                    k -= 1;
                }
                CombPtr::Take { prev_ci, child_ci } => {
                    taken.push((kids[k - 1], child_ci));
                    ci = prev_ci;
                    in_req = false; // the remaining prefix may be anything
                    k -= 1;
                }
            }
        }
        taken
    }
}

// ---------------------------------------------------------------------
// Incremental path state: b_Q(v) and c(v) for the path ending at the top
// of the DFS stack, over the context's clique columns.
// ---------------------------------------------------------------------

struct PathState<'c> {
    ctx: &'c OfflineContext<'c>,
    /// Per distinct query: Σ_{u∈path} contrib(u, q).
    sum_contrib: Vec<f64>,
    /// Per distinct query: |path ∩ T_q|.
    cnt_i: Vec<u32>,
    /// The queries with `cnt_i > 0`.
    on_path: BitSet,
    /// Per distinct query: # internal path nodes with an off-path T_q child.
    cnt_b: Vec<u32>,
    /// The queries with `cnt_b > 0`.
    branched: BitSet,
    /// Per query-variable slot: # (path ∩ T_q) cliques containing the var.
    var_in_i: Vec<u32>,
    /// Per variable: # current cut separators containing it.
    cut_cnt: Vec<u32>,
    /// The variables with `cut_cnt > 0`: `X_S` of the current path.
    in_cut: BitSet,
    path: Vec<usize>,
}

/// Adds `step` to `cnt[k]` and keeps `live` = `{k : cnt[k] > 0}`.
#[inline]
fn bump(cnt: &mut [u32], live: &mut BitSet, k: usize, step: i32) {
    cnt[k] = cnt[k].wrapping_add_signed(step);
    if cnt[k] == 0 {
        live.remove(k);
    } else {
        live.insert(k);
    }
}

impl<'c> PathState<'c> {
    fn new(ctx: &'c OfflineContext<'c>) -> Self {
        let cols = ctx.columns();
        let nq = cols.n_queries();
        let n_vars = ctx.tree().domain().len();
        PathState {
            sum_contrib: vec![0.0; nq],
            cnt_i: vec![0; nq],
            on_path: BitSet::new(nq),
            cnt_b: vec![0; nq],
            branched: BitSet::new(nq),
            var_in_i: vec![0; cols.n_slots()],
            cut_cnt: vec![0; n_vars],
            in_cut: BitSet::new(n_vars),
            path: Vec::new(),
            ctx,
        }
    }

    fn apply(&mut self, u: usize, sign: i64) {
        let ctx = self.ctx;
        let (rooted, cols) = (ctx.rooted(), ctx.columns());
        let step = sign as i32;
        // one streaming pass over u's column: each query's sum takes the
        // same `± contrib` it always did
        let s = sign as f64;
        for (acc, &c) in self.sum_contrib.iter_mut().zip(cols.contrib_column(u)) {
            *acc += s * c;
        }
        let parent_on_path = self.path.last().copied();
        if let Some(p) = parent_on_path {
            // p becomes (or stops being) an internal path node: it counts
            // for q when q's Steiner tree has a child of p off the path —
            // two or more Steiner children, or one that is not u
            let rows = cols
                .branches(p)
                .iter()
                .zip(cols.forks(p))
                .zip(cols.holds(u));
            let off_path = rows.map(|((&b, &f), &h)| f | (b & !h));
            for k in ones(off_path) {
                bump(&mut self.cnt_b, &mut self.branched, k, step);
            }
        }
        for (k, held) in cols.members(u) {
            bump(&mut self.cnt_i, &mut self.on_path, k, step);
            for &slot in held {
                let c = &mut self.var_in_i[slot as usize];
                *c = c.wrapping_add_signed(step);
            }
        }
        // cut-scope bookkeeping
        let tree = ctx.tree();
        if parent_on_path.is_some() {
            // edge (parent, u) becomes internal (or external again on pop)
            #[expect(clippy::expect_used, reason = "a node with a parent on the path has one")]
            let e = rooted.parent_edge(u).expect("u below r_s");
            for x in tree.separator(e).iter() {
                bump(&mut self.cut_cnt, &mut self.in_cut, x.index(), -step);
            }
        } else if let Some(e) = rooted.parent_edge(u) {
            // r_s's own upward separator joins the cut
            for x in tree.separator(e).iter() {
                bump(&mut self.cut_cnt, &mut self.in_cut, x.index(), step);
            }
        }
        for &w in rooted.children(u) {
            #[expect(clippy::expect_used, reason = "a child hangs off its parent edge")]
            let e = rooted.parent_edge(w).expect("child edge");
            for x in tree.separator(e).iter() {
                bump(&mut self.cut_cnt, &mut self.in_cut, x.index(), step);
            }
        }
    }

    fn push(&mut self, u: usize) {
        self.apply(u, 1);
        self.path.push(u);
    }

    fn pop(&mut self, u: usize) {
        let popped = self.path.pop();
        debug_assert_eq!(popped, Some(u));
        self.apply(u, -1);
    }

    /// `(b_Q, c)` of the shortcut whose subtree is the current path.
    fn read(&self) -> (f64, Size) {
        let ctx = self.ctx;
        let cols = ctx.columns();
        #[expect(clippy::expect_used, reason = "read only between a push and its pop")]
        let top = *self.path.last().expect("path non-empty");
        // cost: μ over variables present in any cut separator
        let mut cost: Size = 1;
        for x in self.in_cut.iter() {
            cost = cost.saturating_mul(ctx.tree().domain().card(Var(x as u32)) as u64);
        }
        // benefit: Σ_q w_q δ(path, q) Σ_{u∈path} contrib(u, q), over the
        // queries on the path that branch at an internal path node or at
        // the top, in ascending query order
        let mut val = 0.0;
        let rows = self.on_path.words().iter().zip(self.branched.words());
        let candidates = rows
            .zip(cols.branches(top))
            .map(|((&on, &b), &t)| on & (b | t));
        for k in ones(candidates) {
            let covered = cols.slots(k).all(|slot| {
                let (x, cnt_q) = cols.cover(slot);
                self.cut_cnt[x.index()] > 0 || cnt_q > self.var_in_i[slot]
            });
            if covered {
                val += cols.weight(k) * self.sum_contrib[k];
            }
        }
        (val, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ScopedExecutor, SequentialExecutor};
    use crate::workload::Workload;
    use peanut_junction::{build_junction_tree, JunctionTree, SteinerTree};
    use peanut_pgm::generate::{generate_network, DagConfig};
    use peanut_pgm::{fixtures, Scope};
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// One distinct query in row form, built from the workload on its own:
    /// its Steiner membership, and per variable how many Steiner cliques
    /// hold it.
    struct Row {
        scope: Scope,
        weight: f64,
        steiner: BitSet,
        var_cover: Vec<(Var, u32)>,
        single_node: bool,
    }

    /// The path state in row form — every step visits every distinct query
    /// — kept as the reference the column form must equal bit for bit.
    struct RowPath<'c, 't> {
        ctx: &'c OfflineContext<'t>,
        queries: Vec<Row>,
        /// Per query, per clique: number of Steiner children.
        q_children: Vec<Vec<u32>>,
        cnt_i: Vec<u32>,
        cnt_b: Vec<u32>,
        sum_contrib: Vec<f64>,
        var_in_i: Vec<Vec<u32>>,
        cut_cnt: Vec<u32>,
        path: Vec<usize>,
    }

    impl<'c, 't> RowPath<'c, 't> {
        fn new(ctx: &'c OfflineContext<'t>, workload: &Workload) -> Self {
            let (tree, rooted) = (ctx.tree(), ctx.rooted());
            let queries: Vec<Row> = workload
                .entries()
                .iter()
                .map(|entry| {
                    let st = SteinerTree::extract(tree, rooted, &entry.query).unwrap();
                    let var_cover = entry
                        .query
                        .iter()
                        .map(|x| {
                            let held = st.nodes().iter().filter(|&&u| tree.clique(u).contains(x));
                            (x, held.count() as u32)
                        })
                        .collect();
                    Row {
                        scope: entry.query.clone(),
                        weight: entry.weight,
                        steiner: BitSet::from_members(tree.n_cliques(), st.nodes().iter().copied()),
                        var_cover,
                        single_node: st.len() == 1,
                    }
                })
                .collect();
            let nq = queries.len();
            let q_children = queries
                .iter()
                .map(|qi| {
                    let mut ch = vec![0u32; tree.n_cliques()];
                    for w in qi.steiner.iter() {
                        if let Some(p) = rooted.parent(w).filter(|&p| qi.steiner.contains(p)) {
                            ch[p] += 1;
                        }
                    }
                    ch
                })
                .collect();
            RowPath {
                q_children,
                cnt_i: vec![0; nq],
                cnt_b: vec![0; nq],
                sum_contrib: vec![0.0; nq],
                var_in_i: queries
                    .iter()
                    .map(|qi| vec![0u32; qi.scope.len()])
                    .collect(),
                cut_cnt: vec![0; tree.domain().len()],
                path: Vec::new(),
                queries,
                ctx,
            }
        }

        fn apply(&mut self, u: usize, sign: i64) {
            let ctx = self.ctx;
            let rooted = ctx.rooted();
            let parent_on_path = self.path.last().copied();
            for (k, qi) in self.queries.iter().enumerate() {
                let in_q_u = qi.steiner.contains(u);
                if let Some(p) = parent_on_path {
                    if qi.steiner.contains(p) {
                        let off_path_children = self.q_children[k][p] - u32::from(in_q_u);
                        if off_path_children > 0 {
                            self.cnt_b[k] = self.cnt_b[k].wrapping_add_signed(sign as i32);
                        }
                    }
                }
                if in_q_u {
                    self.cnt_i[k] = self.cnt_i[k].wrapping_add_signed(sign as i32);
                    for (j, x) in qi.scope.iter().enumerate() {
                        if ctx.tree().clique(u).contains(x) {
                            self.var_in_i[k][j] =
                                self.var_in_i[k][j].wrapping_add_signed(sign as i32);
                        }
                    }
                }
                self.sum_contrib[k] += sign as f64 * ctx.contrib(u, k);
            }
            if parent_on_path.is_some() {
                let e = rooted.parent_edge(u).unwrap();
                for x in ctx.tree().separator(e).iter() {
                    self.cut_cnt[x.index()] =
                        self.cut_cnt[x.index()].wrapping_add_signed(-sign as i32);
                }
            } else if let Some(e) = rooted.parent_edge(u) {
                for x in ctx.tree().separator(e).iter() {
                    self.cut_cnt[x.index()] =
                        self.cut_cnt[x.index()].wrapping_add_signed(sign as i32);
                }
            }
            for &w in rooted.children(u) {
                let e = rooted.parent_edge(w).unwrap();
                for x in ctx.tree().separator(e).iter() {
                    self.cut_cnt[x.index()] =
                        self.cut_cnt[x.index()].wrapping_add_signed(sign as i32);
                }
            }
        }

        fn push(&mut self, u: usize) {
            self.apply(u, 1);
            self.path.push(u);
        }

        fn pop(&mut self, u: usize) {
            assert_eq!(self.path.pop(), Some(u));
            self.apply(u, -1);
        }

        fn read(&self) -> (f64, Size) {
            let ctx = self.ctx;
            let top = *self.path.last().unwrap();
            let mut cost: Size = 1;
            for (xi, &cnt) in self.cut_cnt.iter().enumerate() {
                if cnt > 0 {
                    cost = cost.saturating_mul(ctx.tree().domain().card(Var(xi as u32)) as u64);
                }
            }
            let mut val = 0.0;
            for (k, qi) in self.queries.iter().enumerate() {
                if qi.single_node || self.cnt_i[k] == 0 {
                    continue;
                }
                let cond_b =
                    self.cnt_b[k] > 0 || (qi.steiner.contains(top) && self.q_children[k][top] > 0);
                if !cond_b {
                    continue;
                }
                let mut covered = true;
                for (j, (x, cnt_q)) in qi.var_cover.iter().enumerate() {
                    let in_xs = self.cut_cnt[x.index()] > 0;
                    let outside = *cnt_q > self.var_in_i[k][j];
                    if !in_xs && !outside {
                        covered = false;
                        break;
                    }
                }
                if covered {
                    val += qi.weight * self.sum_contrib[k];
                }
            }
            (val, cost)
        }
    }

    /// Pass 1 in row form, with the column form walked alongside and
    /// compared at every read, `b_Q` by bits. Returns the row form's values
    /// and the number of reads.
    fn row_path_values(
        ctx: &OfflineContext,
        workload: &Workload,
        r_s: usize,
        grid: &BudgetGrid,
    ) -> (Vec<f64>, Vec<Option<usize>>, usize) {
        let rooted = ctx.rooted();
        let base = rooted.dfs_pos(r_s);
        let len = rooted.subtree_nodes(r_s).len();
        let (mut cut_val, mut cut_cost_idx) = (vec![0.0f64; len], vec![None; len]);
        let (mut row, mut col) = (RowPath::new(ctx, workload), PathState::new(ctx));
        row.push(r_s);
        col.push(r_s);
        let mut reads = 0;
        let mut stack: Vec<(usize, usize)> = vec![(r_s, 0)];
        while let Some(&mut (u, ref mut next)) = stack.last_mut() {
            let kids = rooted.children(u);
            if *next < kids.len() {
                let w = kids[*next];
                *next += 1;
                let (val, cost) = row.read();
                let (col_val, col_cost) = col.read();
                assert_eq!(
                    (col_val.to_bits(), col_cost),
                    (val.to_bits(), cost),
                    "root {r_s}, path {:?} + {w}: column read {col_val} vs row read {val}",
                    row.path
                );
                reads += 1;
                cut_val[rooted.dfs_pos(w) - base] = val;
                cut_cost_idx[rooted.dfs_pos(w) - base] = grid.round_up(cost);
                row.push(w);
                col.push(w);
                stack.push((w, 0));
            } else {
                row.pop(u);
                col.pop(u);
                stack.pop();
            }
        }
        (cut_val, cut_cost_idx, reads)
    }

    /// Every field of two roots' tables, f64s by bits.
    fn assert_same_tables(got: &RootTables, want: &RootTables) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let r = want.root;
        assert_eq!(got.root, r);
        assert_eq!(
            bits(&got.dp_value),
            bits(&want.dp_value),
            "root {r} dp_value"
        );
        assert_eq!(got.per_budget, want.per_budget, "root {r} per_budget");
        assert_eq!(got.solutions.len(), want.solutions.len(), "root {r}");
        for (g, w) in got.solutions.iter().zip(&want.solutions) {
            assert_eq!(g.shortcut.nodes(), w.shortcut.nodes(), "root {r}");
            assert_eq!(g.dp_benefit.to_bits(), w.dp_benefit.to_bits(), "root {r}");
            assert_eq!(g.dp_cost, w.dp_cost, "root {r}");
            assert_eq!(
                g.true_benefit.to_bits(),
                w.true_benefit.to_bits(),
                "root {r}"
            );
            assert_eq!(g.min_index, w.min_index, "root {r}");
        }
    }

    /// A generated network's junction tree under a random pivot, and a
    /// workload of 1–5-variable queries: some drawn from one clique
    /// (in-clique), some repeated, some with zero arrivals.
    fn random_case(seed: u64, n: usize) -> Option<(JunctionTree, Workload)> {
        let cfg = DagConfig {
            n_nodes: n,
            n_edges: n - 1 + n / 3,
            max_in_degree: 3,
            window: 3,
            cardinalities: vec![2, 3],
        };
        let bn = generate_network(&cfg, seed).ok()?;
        let mut rng = TestRng::seed_from_u64(seed);
        let mut tree = build_junction_tree(&bn).unwrap();
        tree.set_pivot(rng.sample(0..tree.n_cliques()));
        let mut counts: Vec<(Scope, u64)> = Vec::new();
        for i in 0..24 {
            let picks: Vec<u32> = if i % 4 == 0 {
                let clique = tree.clique(rng.sample(0..tree.n_cliques()));
                let held: Vec<u32> = clique.iter().map(|v| v.index() as u32).collect();
                (0..rng.sample(1..held.len() + 1))
                    .map(|_| held[rng.sample(0..held.len())])
                    .collect()
            } else {
                (0..rng.sample(1..6usize))
                    .map(|_| rng.sample(0..n as u32))
                    .collect()
            };
            let q = Scope::from_indices(&picks);
            counts.push((q.clone(), rng.sample(0..4u64)));
            if i % 5 == 0 {
                counts.push((q, rng.sample(1..3u64)));
            }
        }
        Some((tree, Workload::from_counts(counts)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The column path state reads what the row form reads at every
        /// step, and every root's tables built on either are the same, on
        /// exact and geometric grids.
        #[test]
        fn column_path_state_is_the_row_state(seed in 0u64..5_000, n in 6usize..16, k in 4u64..400) {
            let Some((tree, w)) = random_case(seed, n) else { return Ok(()) };
            let ctx = OfflineContext::new(&tree, &w).unwrap();
            for grid in [BudgetGrid::exact(k.min(96)), BudgetGrid::geometric(k * 8, 1.3)] {
                for r_s in 0..tree.n_cliques() {
                    let got = lrdp(&ctx, r_s, &grid);
                    if ctx.rooted().children(r_s).is_empty() {
                        prop_assert!(got.solutions.is_empty());
                        continue;
                    }
                    let (val, cost, reads) = row_path_values(&ctx, &w, r_s, &grid);
                    prop_assert_eq!(reads + 1, ctx.rooted().subtree_nodes(r_s).len());
                    assert_same_tables(&got, &select(&ctx, r_s, &grid, &val, &cost));
                }
            }
        }
    }

    /// `free`, `req` and one layer of pointers per child for each.
    type ReferenceCombine = (Vec<f64>, Vec<f64>, Vec<Vec<CombPtr>>, Vec<Vec<CombPtr>>);

    /// The combine as it was before each child's scan started at its first
    /// finite entry: one fresh layer of values and pointers per child.
    #[allow(clippy::needless_range_loop)] // prev_ci indexes `free` and feeds grid.combined
    fn reference_combine(
        children: &[&[f64]],
        grid: &BudgetGrid,
        mode: Compose,
    ) -> ReferenceCombine {
        let m = grid.len();
        let mut free = vec![0.0f64; m];
        let mut req = vec![f64::NEG_INFINITY; m];
        let (mut free_ptr, mut req_ptr) = (Vec::new(), Vec::new());
        for table in children {
            let mut nf = free.clone();
            let mut nr = req.clone();
            let mut pf = vec![CombPtr::Skip; m];
            let mut pr: Vec<CombPtr> = req
                .iter()
                .map(|v| {
                    if v.is_finite() {
                        CombPtr::Skip
                    } else {
                        CombPtr::Dead
                    }
                })
                .collect();
            for prev_ci in 0..m {
                if !free[prev_ci].is_finite() {
                    continue;
                }
                let mut combined = grid.combined(prev_ci, mode);
                for (child_ci, &cv) in table.iter().enumerate() {
                    if !cv.is_finite() {
                        continue;
                    }
                    let Some(t) = combined.with(child_ci) else {
                        break;
                    };
                    let cand = free[prev_ci] + cv;
                    if cand > nf[t] {
                        nf[t] = cand;
                        pf[t] = CombPtr::Take { prev_ci, child_ci };
                    }
                    if cand > nr[t] {
                        nr[t] = cand;
                        pr[t] = CombPtr::Take { prev_ci, child_ci };
                    }
                }
            }
            for ci in 1..m {
                if nf[ci - 1] > nf[ci] {
                    nf[ci] = nf[ci - 1];
                    pf[ci] = CombPtr::Inherit;
                }
                if nr[ci - 1] > nr[ci] {
                    nr[ci] = nr[ci - 1];
                    pr[ci] = CombPtr::Inherit;
                }
            }
            free = nf;
            req = nr;
            free_ptr.push(pf);
            req_ptr.push(pr);
        }
        (free, req, free_ptr, req_ptr)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The combine with the skip and flat layers against the reference
        /// on random prefix-maxed tables — some all −∞, some finite from
        /// index 0, ties included — in both composition modes.
        #[test]
        fn combine_skip_is_the_full_scan(seed in 0u64..1_000_000, kids in 0usize..5, k in 2u64..5_000) {
            let mut rng = TestRng::seed_from_u64(seed);
            let grid = if seed % 3 == 0 {
                BudgetGrid::exact(k.min(64))
            } else {
                BudgetGrid::geometric(k, 1.2 + (seed % 5) as f64 * 0.2)
            };
            let m = grid.len();
            let tables: Vec<Vec<f64>> = (0..kids)
                .map(|c| {
                    let first = match (seed + c as u64) % 4 {
                        0 => m,
                        1 => 0,
                        _ => rng.sample(0..m + 1),
                    };
                    let mut v = f64::NEG_INFINITY;
                    (0..m)
                        .map(|ci| {
                            if ci == first {
                                v = rng.sample(0..4u32) as f64;
                            } else if ci > first {
                                v += rng.sample(0..3u32) as f64 * 0.5;
                            }
                            v
                        })
                        .collect()
                })
                .collect();
            let children: Vec<&[f64]> = tables.iter().map(Vec::as_slice).collect();
            for mode in [Compose::Add, Compose::Mul] {
                let got = Combine::run(children.iter().copied(), &grid, mode);
                let (free, req, free_ptr, req_ptr) = reference_combine(&children, &grid, mode);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&got.free), bits(&free));
                prop_assert_eq!(bits(&got.req), bits(&req));
                prop_assert_eq!(got.free_ptr, free_ptr.concat());
                prop_assert_eq!(got.req_ptr, req_ptr.concat());
            }
        }
    }

    /// One context read by many root tasks at once gives every root the
    /// tables a single thread gives it, bit for bit.
    #[test]
    fn root_tasks_share_one_context() {
        let bn = peanut_datasets::dataset("HeparII")
            .unwrap()
            .build()
            .unwrap();
        let tree = build_junction_tree(&bn).unwrap();
        let n = bn.n_vars() as u32;
        let pairs = (0..n).flat_map(|a| (a + 1..n).map(move |b| Scope::from_indices(&[a, b])));
        let ctx = OfflineContext::new(&tree, &Workload::from_queries(pairs)).unwrap();
        let grid = BudgetGrid::geometric(tree.total_separator_size() * 10, 1.2);
        let one = lrdp_all_on(&ctx, &grid, &SequentialExecutor);
        let four = lrdp_all_on(&ctx, &grid, &ScopedExecutor::new(4));
        assert_eq!(one.len(), tree.n_cliques());
        assert_eq!(four.len(), one.len());
        for (g, w) in four.iter().zip(&one) {
            assert_same_tables(g, w);
        }
        assert!(one.iter().any(|rt| !rt.solutions.is_empty()));
    }

    fn chain_setup(n: usize) -> (peanut_pgm::BayesianNetwork, peanut_junction::JunctionTree) {
        let bn = fixtures::chain(n, 2, 7);
        let tree = build_junction_tree(&bn).unwrap();
        (bn, tree)
    }

    #[test]
    fn leaf_root_yields_nothing() {
        let (_bn, tree) = chain_setup(5);
        let q = Scope::from_indices(&[0, 4]);
        let w = Workload::from_queries([q]);
        let ctx = OfflineContext::new(&tree, &w).unwrap();
        let grid = BudgetGrid::exact(64);
        // find a leaf of the rooted tree
        let leaf = (0..tree.n_cliques())
            .find(|&u| ctx.rooted().children(u).is_empty())
            .unwrap();
        let rt = lrdp(&ctx, leaf, &grid);
        assert!(rt.solutions.is_empty());
        assert!(rt.per_budget.iter().all(Option::is_none));
    }

    #[test]
    fn chain_shortcut_found_and_fits_budget() {
        // chain of 8 binary vars → path junction tree of 7 cliques; a query
        // on the endpoints makes interior segment shortcuts useful. Rooted
        // at the pivot itself a shortcut would lose x0 (only clique 0 holds
        // it), so we root LRDP at the interior clique 1.
        let (_bn, tree) = chain_setup(8);
        let q = Scope::from_indices(&[0, 7]);
        let w = Workload::from_queries([q]);
        let ctx = OfflineContext::new(&tree, &w).unwrap();
        let grid = BudgetGrid::exact(64);
        let rt = lrdp(&ctx, 1, &grid);
        let last = rt.per_budget.last().unwrap().expect("solution at K");
        let sol = &rt.solutions[last];
        assert!(sol.true_benefit > 0.0);
        assert!(sol.shortcut.size() <= 64);
        // on a path junction tree the additive estimate is exact
        assert!((sol.dp_benefit - sol.true_benefit).abs() < 1e-9);
        // the pivot-rooted run must find nothing that keeps x0
        let rt0 = lrdp(&ctx, tree.pivot(), &grid);
        assert!(rt0
            .solutions
            .iter()
            .all(|s| s.true_benefit == 0.0 || s.dp_benefit == 0.0 || s.true_benefit > 0.0));
    }

    #[test]
    fn in_clique_only_workload_yields_no_benefit() {
        // every query fits one clique => delta = 0 everywhere => the DP
        // finds nothing with positive benefit at any root
        let bn = fixtures::chain(8, 2, 4);
        let tree = build_junction_tree(&bn).unwrap();
        let queries: Vec<Scope> = (0..7u32)
            .map(|a| Scope::from_indices(&[a, a + 1]))
            .collect();
        let w = Workload::from_queries(queries);
        let ctx = OfflineContext::new(&tree, &w).unwrap();
        let grid = BudgetGrid::exact(64);
        for r_s in 0..tree.n_cliques() {
            let rt = lrdp(&ctx, r_s, &grid);
            assert!(
                rt.solutions.iter().all(|s| s.true_benefit == 0.0),
                "in-clique workload produced a positive-benefit shortcut"
            );
            assert!(rt.per_budget.iter().all(Option::is_none));
        }
    }

    #[test]
    fn single_query_benefit_matches_definition() {
        // LRDP's dp_benefit for chain (single-branch) solutions equals
        // B(S, Q) computed directly from Defs. 3.2-3.3.
        let bn = fixtures::chain(7, 2, 2);
        let tree = build_junction_tree(&bn).unwrap();
        let q = Scope::from_indices(&[0, 6]);
        let w = Workload::from_queries([q]);
        let ctx = OfflineContext::new(&tree, &w).unwrap();
        let grid = BudgetGrid::exact(64);
        let rt = lrdp(&ctx, 1, &grid);
        assert!(!rt.solutions.is_empty());
        for sol in &rt.solutions {
            let direct = ctx.benefit(&sol.shortcut);
            assert!(
                (sol.dp_benefit - direct).abs() < 1e-9,
                "dp {} vs direct {direct}",
                sol.dp_benefit
            );
        }
    }

    #[test]
    fn dp_matches_exhaustive_antichain_enumeration() {
        // On small trees, enumerate every explicit-cut antichain and check
        // the DP's additive optimum at every budget.
        for (bn_name, bn) in [
            ("chain6", fixtures::chain(6, 2, 3)),
            ("btree7", fixtures::binary_tree(7, 5)),
            ("fig1", fixtures::figure1()),
        ] {
            let tree = build_junction_tree(&bn).unwrap();
            let d = bn.domain();
            let n = d.len() as u32;
            // small mixed workload
            let queries: Vec<Scope> = (0..n)
                .flat_map(|a| ((a + 1)..n).map(move |b| Scope::from_indices(&[a, b])))
                .take(12)
                .collect();
            let w = Workload::from_queries(queries);
            let ctx = OfflineContext::new(&tree, &w).unwrap();
            let grid = BudgetGrid::exact(40);
            let rooted = ctx.rooted();
            for r_s in 0..tree.n_cliques() {
                let rt = lrdp(&ctx, r_s, &grid);
                let brute = exhaustive_antichains(&ctx, r_s, &grid);
                for (ci, &bf) in brute.iter().enumerate() {
                    let dp = rt.dp_value[ci];
                    let close = (dp.is_infinite() && bf.is_infinite()) || (dp - bf).abs() < 1e-6;
                    assert!(
                        close,
                        "{bn_name} root {r_s} budget {}: dp={dp} brute={bf}",
                        grid.value(ci)
                    );
                }
                let _ = rooted;
            }
        }
    }

    /// Brute force over explicit-cut antichains with the same additive
    /// valuation the DP optimizes.
    fn exhaustive_antichains(ctx: &OfflineContext, r_s: usize, grid: &BudgetGrid) -> Vec<f64> {
        let rooted = ctx.rooted();
        let m = grid.len();
        let mut best = vec![f64::NEG_INFINITY; m];
        // collect candidate cut nodes: strict descendants of r_s
        let nodes: Vec<usize> = rooted
            .subtree_nodes(r_s)
            .iter()
            .copied()
            .filter(|&u| u != r_s)
            .collect();
        // path value/cost of S_u = path(π_u, r_s), computed directly
        let mut val = HashMap::new();
        let mut cost = HashMap::new();
        for &u in &nodes {
            let mut at = rooted.parent(u).unwrap();
            let mut members = vec![at];
            while at != r_s {
                at = rooted.parent(at).unwrap();
                members.push(at);
            }
            let s = Shortcut::from_nodes(ctx.tree(), rooted, members).unwrap();
            val.insert(u, ctx.benefit(&s));
            cost.insert(u, s.size());
        }
        // enumerate subsets that form antichains
        let k = nodes.len();
        assert!(k <= 16, "test trees must stay small");
        'subsets: for mask in 1u32..(1 << k) {
            let chosen: Vec<usize> = (0..k)
                .filter(|i| mask >> i & 1 == 1)
                .map(|i| nodes[i])
                .collect();
            for (a_i, &a) in chosen.iter().enumerate() {
                for &b in &chosen[a_i + 1..] {
                    let below = |a: usize, b: usize| rooted.subtree_nodes(a).contains(&b);
                    if below(a, b) || below(b, a) {
                        continue 'subsets;
                    }
                }
            }
            let total_v: f64 = chosen.iter().map(|u| val[u]).sum();
            // grid-rounded additive cost, mirroring the DP's rounding
            let mut idx = 0usize;
            for u in &chosen {
                let Some(cu) = grid.round_up(cost[u]) else {
                    continue 'subsets;
                };
                match grid.combine_mul(idx, cu) {
                    Some(t) => idx = t,
                    None => continue 'subsets,
                }
            }
            for slot in best.iter_mut().skip(idx) {
                if total_v > *slot {
                    *slot = total_v;
                }
            }
        }
        best
    }
}
