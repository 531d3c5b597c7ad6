//! Offline precomputation shared by LRDP, BUDP and PEANUT+: per-node
//! benefit contributions (Def. 3.2), usefulness (Def. 3.1) and benefit
//! (Def. 3.3).
//!
//! Per query the context keeps what the usefulness test reads: the scope
//! and its [`SteinerCover`], the input the online phase builds too. What
//! LRDP's path walk reads at every step is laid out by clique instead
//! (`Columns`): the contributions of one clique to every query, the
//! queries whose Steiner tree holds it, and each query's weight and cover
//! counts.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use crate::shortcut::Shortcut;
use crate::util::{ones, BitSet};
use crate::workload::Workload;
use peanut_junction::{JunctionTree, RootedTree, SteinerTree};
use peanut_pgm::{PgmError, Scope, Size, Var};

/// The query's half of usefulness (Def. 3.1) as bit rows over clique ids,
/// laid out once per query in one vector: row 0 is `V(T_q) ∖ {r_q}`, row
/// `1 + i` is `cover_x` of the `i`-th query variable `x` — the Steiner
/// cliques holding it. A shortcut brings the other half ([`Shortcut::node_set`],
/// [`Shortcut::frontier_set`], `X_S`), and [`useful`](Self::useful) is word
/// operations between the two.
#[derive(Clone, Debug)]
pub struct SteinerCover {
    rows: Vec<u64>,
    stride: usize,
}

impl SteinerCover {
    /// Lays out the rows for `query`, whose Steiner tree is `st`.
    pub fn new(tree: &JunctionTree, query: &Scope, st: &SteinerTree) -> Self {
        let stride = tree.n_cliques().div_ceil(64);
        let mut rows = vec![0u64; (1 + query.len()) * stride];
        for &u in st.nodes() {
            let (word, bit) = (u / 64, 1u64 << (u % 64));
            if u != st.root() {
                rows[word] |= bit;
            }
            for (i, x) in query.iter().enumerate() {
                if tree.clique(u).contains(x) {
                    rows[(1 + i) * stride + word] |= bit;
                }
            }
        }
        SteinerCover { rows, stride }
    }

    fn row(&self, r: usize) -> &[u64] {
        &self.rows[r * self.stride..][..self.stride]
    }

    /// Whether Steiner clique `u` holds the `i`-th query variable.
    fn holds(&self, i: usize, u: usize) -> bool {
        self.row(1 + i)[u / 64] >> (u % 64) & 1 == 1
    }

    /// How many Steiner cliques hold the `i`-th query variable.
    fn count(&self, i: usize) -> u32 {
        self.row(1 + i).iter().map(|w| w.count_ones()).sum()
    }

    /// Usefulness `δ_S(q)` (Def. 3.1) of `s` for the `query` these rows
    /// were laid out for, in an operational form (listed under "Deviations
    /// from the paper" in `ARCHITECTURE.md`):
    ///
    /// 1. `I = V(S) ∩ V(T_q)` is non-empty;
    /// 2. some Steiner node outside `I` has its (Steiner-)parent inside `I`
    ///    — equivalently, conditions (i)/(ii) of the paper: at least two cut
    ///    separators lie on some leaf→`r_q` path when `r_q ∉ V(S)`, at least
    ///    one when `r_q ∈ V(S)`;
    /// 3. no query variable is lost: each query variable is either in the
    ///    shortcut scope `X_S` or covered by a Steiner clique outside `I`.
    ///
    /// Condition 2 is `D(S) ∩ (V(T_q) ∖ {r_q}) ≠ ∅`: a Steiner node outside
    /// `V(S)` with its parent inside is a member of `D(S)`, and it is not
    /// `r_q`, whose parent is no Steiner node. It implies condition 1 (that
    /// parent is in both trees) and fails on a one-node Steiner tree.
    /// Condition 3 is, per query variable, `x ∈ X_S ∨ cover_x ⊄ V(S)`.
    pub fn useful(&self, s: &Shortcut, query: &Scope) -> bool {
        let (inside, frontier) = (s.node_set().words(), s.frontier_set().words());
        let leaves_below = frontier.iter().zip(self.row(0)).any(|(d, t)| d & t != 0);
        leaves_below
            && query.iter().enumerate().all(|(i, x)| {
                let cover = self.row(1 + i);
                s.scope().contains(x) || cover.iter().zip(inside).any(|(c, v)| c & !v != 0)
            })
    }
}

/// Everything the offline algorithms need, computed once per
/// (tree, workload) pair.
pub struct OfflineContext<'t> {
    tree: &'t JunctionTree,
    rooted: RootedTree,
    /// Per distinct query, in workload order: the usefulness input.
    queries: Vec<(Scope, SteinerCover)>,
    columns: Columns,
}

/// What Def. 3.2's per-node contributions are made of, once per tree:
/// `μ(u)` per clique, and per variable `x` the cliques `u` whose subtree
/// holds it (`x ∈ X_{T_u}`).
struct Contributions {
    mu: Vec<Size>,
    held_below: Vec<BitSet>,
}

impl Contributions {
    fn new(tree: &JunctionTree, rooted: &RootedTree) -> Self {
        let n = tree.n_cliques();
        let mut held_below = vec![BitSet::new(n); tree.domain().len()];
        for u in 0..n {
            for x in rooted.subtree_scope(u).iter() {
                held_below[x.index()].insert(u);
            }
        }
        Contributions {
            mu: (0..n).map(|u| tree.clique_size(u)).collect(),
            held_below,
        }
    }

    /// `μ(u) · Π_{x ∈ X_{T_u} ∩ q} α(x)` for every clique `u`, each product
    /// taken in query order.
    fn column(&self, tree: &JunctionTree, query: &Scope, col: &mut [f64]) {
        for (c, &m) in col.iter_mut().zip(&self.mu) {
            *c = m as f64;
        }
        for x in query.iter() {
            let card = tree.domain().card(x) as f64;
            for u in self.held_below[x.index()].iter() {
                col[u] *= card;
            }
        }
    }
}

/// The workload read clique by clique: what LRDP's path walk reads when it
/// pushes or pops a clique and when it reads at one, laid out so that a
/// step touches that clique's entries and no per-query row. Query `k` is
/// the `k`-th workload entry; its variable *slots* are its positions `j` in
/// the flat `(k, j)` order over every query's scope.
///
/// A clique's *members* are the queries whose Steiner tree holds it and has
/// more than one node (an in-clique query never counts in a path value).
pub(crate) struct Columns {
    n_queries: usize,
    /// Words per clique row of query bits.
    words: usize,
    /// `contrib(u, q_k)` at `u · |Q| + k`.
    contrib: Vec<f64>,
    /// `Pr_Q(q_k)` at `k`.
    weight: Vec<f64>,
    /// Clique rows of query bits: bit `k` of `holds` is set when `q_k` is a
    /// member, of `branches` when it is one with a Steiner child at the
    /// clique, of `forks` when it has two or more.
    holds: Vec<u64>,
    branches: Vec<u64>,
    forks: Vec<u64>,
    /// Clique `u`'s members, in ascending query order, are members
    /// `member_start[u]..member_start[u + 1]`; member `i` holds the slots
    /// `held[held_start[i]..held_start[i + 1]]`, those of its query's
    /// variables the clique contains.
    member_start: Vec<u32>,
    held_start: Vec<u32>,
    held: Vec<u32>,
    /// Query `k`'s slots are `var_start[k]..var_start[k + 1]`.
    var_start: Vec<u32>,
    /// Per slot: its variable and how many Steiner cliques of its query
    /// hold it.
    cover: Vec<(Var, u32)>,
}

impl Columns {
    /// Lays out the workload's queries, each with its Steiner tree and
    /// cover, clique by clique.
    fn new(
        tree: &JunctionTree,
        rooted: &RootedTree,
        workload: &Workload,
        steiner: &[SteinerTree],
        queries: &[(Scope, SteinerCover)],
    ) -> Self {
        let (n, nq) = (tree.n_cliques(), queries.len());
        let words = nq.div_ceil(64);
        let mut var_start = Vec::with_capacity(nq + 1);
        let mut cover = Vec::new();
        for (scope, sc) in queries {
            var_start.push(cover.len() as u32);
            cover.extend(scope.iter().enumerate().map(|(i, x)| (x, sc.count(i))));
        }
        var_start.push(cover.len() as u32);
        // Def. 3.2 a column per query, eight queries at a time so that each
        // clique's row is written in whole cache lines
        const BLOCK: usize = 8;
        let contributions = Contributions::new(tree, rooted);
        let mut contrib = vec![0.0; n * nq];
        let mut block = vec![0.0; BLOCK * n];
        for (b0, chunk) in queries.chunks(BLOCK).enumerate() {
            for (col, (scope, _)) in block.chunks_exact_mut(n.max(1)).zip(chunk) {
                contributions.column(tree, scope, col);
            }
            for u in 0..n {
                let row = &mut contrib[u * nq + b0 * BLOCK..][..chunk.len()];
                for (b, c) in row.iter_mut().enumerate() {
                    *c = block[b * n + u];
                }
            }
        }
        let mut holds = vec![0u64; n * words];
        let mut branches = vec![0u64; n * words];
        let mut forks = vec![0u64; n * words];
        for (k, st) in steiner.iter().enumerate().filter(|(_, st)| st.len() > 1) {
            let (word, bit) = (k / 64, 1u64 << (k % 64));
            for &w in st.nodes() {
                holds[w * words + word] |= bit;
                // a Steiner node whose parent is one is that parent's
                // Steiner child: the first marks a branch, the second a fork
                if let Some(p) = rooted.parent(w).filter(|&p| st.contains(p)) {
                    let at = p * words + word;
                    if branches[at] & bit == 0 {
                        branches[at] |= bit;
                    } else {
                        forks[at] |= bit;
                    }
                }
            }
        }
        let (mut member_start, mut held_start, mut held) = (vec![0u32], vec![0u32], Vec::new());
        for u in 0..n {
            for k in ones(holds[u * words..][..words].iter().copied()) {
                let (scope, sc) = &queries[k];
                let slots = (0..scope.len()).filter(|&j| sc.holds(j, u));
                held.extend(slots.map(|j| var_start[k] + j as u32));
                held_start.push(held.len() as u32);
            }
            member_start.push(held_start.len() as u32 - 1);
        }
        Columns {
            n_queries: nq,
            words,
            contrib,
            weight: workload.entries().iter().map(|e| e.weight).collect(),
            holds,
            branches,
            forks,
            member_start,
            held_start,
            held,
            var_start,
            cover,
        }
    }

    /// Number of distinct queries.
    #[inline]
    pub(crate) fn n_queries(&self) -> usize {
        self.n_queries
    }

    /// Number of query-variable slots.
    #[inline]
    pub(crate) fn n_slots(&self) -> usize {
        self.cover.len()
    }

    /// `contrib(u, q_k)` for every `k`, in query order.
    #[inline]
    pub(crate) fn contrib_column(&self, u: usize) -> &[f64] {
        &self.contrib[u * self.n_queries..][..self.n_queries]
    }

    /// `Pr_Q(q_k)`.
    #[inline]
    pub(crate) fn weight(&self, k: usize) -> f64 {
        self.weight[k]
    }

    /// Bit `k` set when `q_k` is a member of clique `u`.
    #[inline]
    pub(crate) fn holds(&self, u: usize) -> &[u64] {
        &self.holds[u * self.words..][..self.words]
    }

    /// Bit `k` set when `q_k` has a Steiner child at clique `u`.
    #[inline]
    pub(crate) fn branches(&self, u: usize) -> &[u64] {
        &self.branches[u * self.words..][..self.words]
    }

    /// Bit `k` set when `q_k` has two or more Steiner children at `u`.
    #[inline]
    pub(crate) fn forks(&self, u: usize) -> &[u64] {
        &self.forks[u * self.words..][..self.words]
    }

    /// Clique `u`'s members, in ascending query order, each with the
    /// slots of its query's variables that `u` contains.
    pub(crate) fn members(&self, u: usize) -> impl Iterator<Item = (usize, &[u32])> {
        let span = self.member_start[u] as usize..self.member_start[u + 1] as usize;
        let held =
            span.map(|i| &self.held[self.held_start[i] as usize..self.held_start[i + 1] as usize]);
        ones(self.holds(u).iter().copied()).zip(held)
    }

    /// Query `k`'s slots, one per variable of its scope, in scope order.
    #[inline]
    pub(crate) fn slots(&self, k: usize) -> std::ops::Range<usize> {
        self.var_start[k] as usize..self.var_start[k + 1] as usize
    }

    /// Slot `slot`'s variable and how many Steiner cliques of its query
    /// hold it.
    #[inline]
    pub(crate) fn cover(&self, slot: usize) -> (Var, u32) {
        self.cover[slot]
    }
}

impl<'t> OfflineContext<'t> {
    /// Builds the context: extracts one Steiner tree per distinct query and
    /// lays the workload out clique by clique.
    pub fn new(tree: &'t JunctionTree, workload: &Workload) -> Result<Self, PgmError> {
        let rooted = RootedTree::new(tree);
        let entries = workload.entries();
        let steiner = entries
            .iter()
            .map(|entry| SteinerTree::extract(tree, &rooted, &entry.query))
            .collect::<Result<Vec<_>, _>>()?;
        let queries: Vec<_> = entries
            .iter()
            .zip(&steiner)
            .map(|(entry, st)| {
                (
                    entry.query.clone(),
                    SteinerCover::new(tree, &entry.query, st),
                )
            })
            .collect();
        let columns = Columns::new(tree, &rooted, workload, &steiner, &queries);
        Ok(OfflineContext {
            tree,
            rooted,
            queries,
            columns,
        })
    }

    /// The junction tree.
    #[inline]
    pub fn tree(&self) -> &'t JunctionTree {
        self.tree
    }

    /// The pivot-rooted view.
    #[inline]
    pub fn rooted(&self) -> &RootedTree {
        &self.rooted
    }

    /// The per-node benefit contribution of Def. 3.2 for the `k`-th
    /// distinct query `q`: `μ(u) · Π_{w ∈ X_{T_u} ∩ q} α(w)`. Stored
    /// clique-major when the context was built, so the contributions of one
    /// clique to every query are one contiguous run.
    #[inline]
    pub fn contrib(&self, u: usize, k: usize) -> f64 {
        self.columns.contrib_column(u)[k]
    }

    /// The workload laid out clique by clique, for LRDP's path walk.
    #[inline]
    pub(crate) fn columns(&self) -> &Columns {
        &self.columns
    }

    /// `B(S, Q)` (Def. 3.3): the workload-weighted benefit, each query's
    /// `B(S, q)` (Def. 3.2) zero unless [`SteinerCover::useful`].
    pub fn benefit(&self, s: &Shortcut) -> f64 {
        self.queries
            .iter()
            .enumerate()
            .map(|(k, (scope, cover))| {
                let b = if cover.useful(s, scope) {
                    s.nodes().iter().map(|&u| self.contrib(u, k)).sum()
                } else {
                    0.0
                };
                self.columns.weight(k) * b
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peanut_junction::build_junction_tree;
    use peanut_pgm::fixtures;

    fn fig1_ctx() -> (
        peanut_pgm::BayesianNetwork,
        JunctionTree,
        Vec<(String, usize)>,
    ) {
        let bn = fixtures::figure1();
        let mut tree = build_junction_tree(&bn).unwrap();
        let d = bn.domain().clone();
        let bc = Scope::from_iter([d.var("b").unwrap(), d.var("c").unwrap()]);
        let pivot = tree.cliques().iter().position(|c| *c == bc).unwrap();
        tree.set_pivot(pivot);
        let names = tree
            .cliques()
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let n: String = c.iter().map(|v| d.name(v).to_string()).collect();
                (n, i)
            })
            .collect();
        (bn, tree, names)
    }

    fn id(names: &[(String, usize)], n: &str) -> usize {
        names.iter().find(|(s, _)| s == n).unwrap().1
    }

    /// Def. 3.1 by walking the Steiner members and counting, per query
    /// variable, the covering cliques inside `V(S)` — the form
    /// [`SteinerCover::useful`] replaced, kept as its reference. It reads
    /// the Steiner tree `st` of `query` and nothing the cover laid out.
    fn delta_by_walking(
        tree: &JunctionTree,
        rooted: &RootedTree,
        s: &Shortcut,
        query: &Scope,
        st: &SteinerTree,
    ) -> bool {
        let members = st.nodes();
        let steiner = BitSet::from_members(tree.n_cliques(), members.iter().copied());
        if st.len() == 1 || !s.node_set().intersects(&steiner) {
            return false;
        }
        let below_edge = members.iter().any(|&w| {
            !s.node_set().contains(w)
                && rooted
                    .parent(w)
                    .is_some_and(|p| s.node_set().contains(p) && steiner.contains(p))
        });
        let holding = |x: Var| members.iter().filter(move |&&u| tree.clique(u).contains(x));
        below_edge
            && query.iter().all(|x| {
                let inside = holding(x).filter(|&&u| s.node_set().contains(u)).count();
                s.scope().contains(x) || holding(x).count() != inside
            })
    }

    /// Usefulness of `s` for the context's `k`-th query, read through the
    /// test the context's benefit runs.
    fn useful(ctx: &OfflineContext, s: &Shortcut, k: usize) -> bool {
        let (scope, cover) = &ctx.queries[k];
        cover.useful(s, scope)
    }

    /// The bit form of δ against the member-walking form, on generated
    /// trees under random pivots × random connected regions × random
    /// 1–5-variable queries, with the shapes the bit form could get wrong
    /// counted: regions above `r_q`, regions holding the pivot, one-clique
    /// regions, the whole tree, in-clique queries.
    #[test]
    fn bit_delta_agrees_with_member_walk() {
        use peanut_pgm::generate::{generate_network, DagConfig};
        use proptest::test_runner::TestRng;
        let (mut useful, mut useless, mut in_clique) = (0, 0, 0);
        let (mut above_root, mut with_pivot, mut single, mut whole) = (0, 0, 0, 0);
        for seed in 0..40u64 {
            let n = 8 + seed as usize % 9;
            let cfg = DagConfig {
                n_nodes: n,
                n_edges: n - 1 + n / 4,
                max_in_degree: 3,
                window: 3,
                cardinalities: vec![2, 3],
            };
            let Ok(bn) = generate_network(&cfg, seed) else {
                continue;
            };
            let mut rng = TestRng::seed_from_u64(seed);
            let mut tree = build_junction_tree(&bn).unwrap();
            let n_cliques = tree.n_cliques();
            tree.set_pivot(rng.sample(0..n_cliques));
            let rooted = RootedTree::new(&tree);
            let queries: Vec<(Scope, SteinerTree)> = (0..16)
                .map(|_| {
                    let k = rng.sample(1..6usize);
                    let picks: Vec<u32> = (0..k).map(|_| rng.sample(0..n as u32)).collect();
                    let q = Scope::from_indices(&picks);
                    let st = SteinerTree::extract(&tree, &rooted, &q).unwrap();
                    (q, st)
                })
                .collect();
            for round in 0..16 {
                // grow a connected region from a random clique, every fourth
                // from the pivot; round 0 is one clique, round 1 the tree
                let start = match round % 4 {
                    3 => tree.pivot(),
                    _ => rng.sample(0..n_cliques),
                };
                let steps = if round == 0 {
                    0
                } else {
                    rng.sample(0..n_cliques)
                };
                let mut region = vec![start];
                for _ in 0..steps {
                    let from = region[rng.sample(0..region.len())];
                    let (next, _) = tree.neighbors(from)[rng.sample(0..tree.neighbors(from).len())];
                    if !region.contains(&next) {
                        region.push(next);
                    }
                }
                if round == 1 {
                    region = (0..n_cliques).collect();
                }
                let s = Shortcut::from_nodes(&tree, &rooted, region.clone()).unwrap();
                single += usize::from(s.nodes().len() == 1);
                whole += usize::from(s.nodes().len() == n_cliques);
                with_pivot += usize::from(s.node_set().contains(tree.pivot()));
                for (q, st) in &queries {
                    let got = SteinerCover::new(&tree, q, st).useful(&s, q);
                    assert_eq!(
                        got,
                        delta_by_walking(&tree, &rooted, &s, q, st),
                        "seed {seed}, region {region:?}, query {q}"
                    );
                    *(if got { &mut useful } else { &mut useless }) += 1;
                    in_clique += usize::from(st.len() == 1);
                    let r_q = st.root();
                    above_root += usize::from(
                        s.node_set().contains(r_q) && rooted.depth(s.root()) < rooted.depth(r_q),
                    );
                }
            }
        }
        let seen = [
            useful, useless, in_clique, above_root, with_pivot, single, whole,
        ];
        assert!(seen.iter().all(|&c| c >= 20), "coverage {seen:?}");
    }

    #[test]
    fn paper_example_usefulness() {
        // Figure 2: query q = {b, i, f}; shortcut over the region between
        // bc and gil. In our tree the connected analogue of the paper's
        // shaded subtree is {ce, ef, egh} (scope {c, e, g}).
        let (bn, tree, names) = fig1_ctx();
        let d = bn.domain();
        let q = Scope::from_iter([
            d.var("b").unwrap(),
            d.var("i").unwrap(),
            d.var("f").unwrap(),
        ]);
        let w = Workload::from_queries([q]);
        let ctx = OfflineContext::new(&tree, &w).unwrap();
        let region = vec![id(&names, "ce"), id(&names, "ef"), id(&names, "egh")];
        let s = Shortcut::from_nodes(&tree, ctx.rooted(), region).unwrap();
        // f ∈ {e,f} is inside the region and NOT in X_S = {c,e,g} ⇒ not
        // useful for this query (f would be lost)!
        assert!(!useful(&ctx, &s, 0));

        // The region {ce, egh} is not connected in our tree (egh hangs off
        // ef), but {egh} alone is: scope {e, g}; f is outside it, b outside,
        // i covered by gil outside ⇒ useful.
        let s2 = Shortcut::from_nodes(&tree, ctx.rooted(), vec![id(&names, "egh")]).unwrap();
        assert!(useful(&ctx, &s2, 0));
        assert!(ctx.benefit(&s2) > 0.0);
    }

    #[test]
    fn in_clique_queries_have_no_useful_shortcut() {
        let (bn, tree, names) = fig1_ctx();
        let d = bn.domain();
        let q = Scope::from_iter([d.var("g").unwrap(), d.var("h").unwrap()]);
        let w = Workload::from_queries([q]);
        let ctx = OfflineContext::new(&tree, &w).unwrap();
        let s = Shortcut::from_nodes(&tree, ctx.rooted(), vec![id(&names, "egh")]).unwrap();
        assert!(!useful(&ctx, &s, 0));
        assert_eq!(ctx.benefit(&s), 0.0);
    }

    #[test]
    fn region_not_touching_steiner_tree_useless() {
        let (bn, tree, names) = fig1_ctx();
        let d = bn.domain();
        // query within the bc–abd side
        let q = Scope::from_iter([d.var("a").unwrap(), d.var("c").unwrap()]);
        let w = Workload::from_queries([q]);
        let ctx = OfflineContext::new(&tree, &w).unwrap();
        let s = Shortcut::from_nodes(&tree, ctx.rooted(), vec![id(&names, "egh")]).unwrap();
        assert!(!useful(&ctx, &s, 0));
    }

    #[test]
    fn benefit_weights_by_query_probability() {
        let (bn, tree, names) = fig1_ctx();
        let d = bn.domain();
        let q1 = Scope::from_iter([d.var("b").unwrap(), d.var("l").unwrap()]);
        // q1 three times, q2 once
        let q2 = Scope::from_iter([d.var("c").unwrap(), d.var("l").unwrap()]);
        let w_skew = Workload::from_queries([q1.clone(), q1.clone(), q1.clone(), q2.clone()]);
        let w_flat = Workload::from_queries([q1.clone(), q2.clone()]);
        let ctx_skew = OfflineContext::new(&tree, &w_skew).unwrap();
        let ctx_flat = OfflineContext::new(&tree, &w_flat).unwrap();
        let s = Shortcut::from_nodes(&tree, ctx_skew.rooted(), vec![id(&names, "egh")]).unwrap();
        // both queries benefit identically per-query; weighting shouldn't
        // change the total when each query's B(S, q) is equal
        let b_skew = ctx_skew.benefit(&s);
        let b_flat = ctx_flat.benefit(&s);
        // B(S, q) of one query is the benefit of a workload of it alone
        let alone = |q: &Scope| {
            let w = Workload::from_queries([q.clone()]);
            OfflineContext::new(&tree, &w).unwrap().benefit(&s)
        };
        let (b1, b2) = (alone(&q1), alone(&q2));
        assert!((b_flat - (0.5 * b1 + 0.5 * b2)).abs() < 1e-9);
        assert!((b_skew - (0.75 * b1 + 0.25 * b2)).abs() < 1e-9);
    }

    /// The stored contribution is Def. 3.2 computed on the spot, the form
    /// every LRDP node visit used to run — bit for bit, for every (query,
    /// clique) pair on generated trees under random pivots and the
    /// fixtures.
    #[test]
    fn stored_contrib_is_the_definition() {
        use peanut_pgm::generate::{generate_network, DagConfig};
        use proptest::test_runner::TestRng;
        let by_definition = |ctx: &OfflineContext, u: usize, q: &Scope| {
            let sub = ctx.rooted().subtree_scope(u);
            let mut f = ctx.tree().clique_size(u) as f64;
            for x in q.iter() {
                if sub.contains(x) {
                    f *= ctx.tree().domain().card(x) as f64;
                }
            }
            f
        };
        let mut nets = vec![
            fixtures::figure1(),
            fixtures::asia(),
            fixtures::chain(9, 3, 2),
        ];
        for seed in 0..12u64 {
            let n = 8 + seed as usize;
            let cfg = DagConfig {
                n_nodes: n,
                n_edges: n - 1 + n / 3,
                max_in_degree: 3,
                window: 4,
                cardinalities: vec![2, 3, 4],
            };
            nets.extend(generate_network(&cfg, seed));
        }
        let mut pairs = 0;
        for (seed, bn) in nets.iter().enumerate() {
            let mut rng = TestRng::seed_from_u64(seed as u64);
            let mut tree = build_junction_tree(bn).unwrap();
            tree.set_pivot(rng.sample(0..tree.n_cliques()));
            let n = bn.domain().len() as u32;
            let queries: Vec<Scope> = (0..12)
                .map(|_| {
                    let picks: Vec<u32> = (0..rng.sample(1..5usize))
                        .map(|_| rng.sample(0..n))
                        .collect();
                    Scope::from_indices(&picks)
                })
                .collect();
            let w = Workload::from_queries(queries);
            let ctx = OfflineContext::new(&tree, &w).unwrap();
            for (k, entry) in w.entries().iter().enumerate() {
                for u in 0..tree.n_cliques() {
                    let want = by_definition(&ctx, u, &entry.query);
                    assert_eq!(
                        ctx.contrib(u, k).to_bits(),
                        want.to_bits(),
                        "clique {u}, {}",
                        entry.query
                    );
                    pairs += 1;
                }
            }
        }
        assert!(pairs > 1_000, "{pairs} pairs");
    }

    #[test]
    fn contrib_multiplies_query_cardinalities_below() {
        let (bn, tree, names) = fig1_ctx();
        let d = bn.domain();
        // query {i, l}: in-clique in gil ⇒ contrib of egh counts α(i)·α(l)
        // because both are in the subtree scope of egh? gil is below egh.
        let q = Scope::from_iter([d.var("i").unwrap(), d.var("l").unwrap()]);
        let w = Workload::from_queries([q]);
        let ctx = OfflineContext::new(&tree, &w).unwrap();
        let egh = id(&names, "egh");
        let c = ctx.contrib(egh, 0);
        // μ(egh) = 8, α(i) = α(l) = 2 ⇒ 32
        assert_eq!(c, 32.0);
        // a clique with no query vars below contributes just μ
        let abd = id(&names, "abd");
        assert_eq!(ctx.contrib(abd, 0), 8.0);
    }
}
