//! Offline precomputation shared by LRDP, BUDP and PEANUT+: per-query
//! Steiner information, per-node benefit contributions, usefulness
//! (Def. 3.1) and benefit (Defs. 3.2–3.3).

use crate::shortcut::Shortcut;
use crate::util::BitSet;
use crate::workload::Workload;
use peanut_junction::{JunctionTree, RootedTree, SteinerTree};
use peanut_pgm::{PgmError, Scope, Size, Var};

/// Precomputed Steiner data for one distinct workload query.
#[derive(Clone, Debug)]
pub struct QueryInfo {
    /// The query variables.
    pub scope: Scope,
    /// `Pr_Q(q)`.
    pub weight: f64,
    /// Steiner-tree membership over clique ids.
    pub steiner: BitSet,
    /// `r_q`: Steiner node closest to the pivot.
    pub root: usize,
    /// Steiner members, ascending (for iteration).
    pub members: Vec<usize>,
    /// Per query variable: how many Steiner cliques contain it.
    pub var_cover: Vec<(Var, u32)>,
    /// True when the query is in-clique (single Steiner node).
    pub single_node: bool,
    /// Per clique: number of Steiner children (0 for non-members).
    q_children: Vec<u8>,
}

impl QueryInfo {
    /// Number of Steiner-tree children of clique `u` within this query's
    /// Steiner tree.
    #[inline]
    pub fn steiner_children(&self, u: usize) -> u32 {
        self.q_children[u] as u32
    }
}

/// Everything the offline algorithms need, computed once per
/// (tree, workload) pair.
pub struct OfflineContext<'t> {
    tree: &'t JunctionTree,
    rooted: RootedTree,
    queries: Vec<QueryInfo>,
    /// `μ(u)` per clique.
    mu: Vec<Size>,
}

/// Builds the per-query Steiner information used by the usefulness and
/// benefit computations (offline: one per distinct workload query).
pub fn build_query_info(
    tree: &JunctionTree,
    rooted: &RootedTree,
    query: &Scope,
    weight: f64,
) -> Result<QueryInfo, PgmError> {
    let st = SteinerTree::extract(tree, rooted, query)?;
    Ok(query_info_of(tree, rooted, query, weight, &st))
}

/// [`build_query_info`] over an already extracted Steiner tree `st` of
/// `query` — the online engine extracts it once, to plan, and reuses it
/// here.
pub fn query_info_of(
    tree: &JunctionTree,
    rooted: &RootedTree,
    query: &Scope,
    weight: f64,
    st: &SteinerTree,
) -> QueryInfo {
    let steiner = BitSet::from_members(tree.n_cliques(), st.nodes().iter().copied());
    let var_cover = query
        .iter()
        .map(|x| {
            let cnt = st
                .nodes()
                .iter()
                .filter(|&&u| tree.clique(u).contains(x))
                .count() as u32;
            (x, cnt)
        })
        .collect();
    let mut q_children = vec![0u8; tree.n_cliques()];
    for &w in st.nodes() {
        if w != st.root() {
            let p = rooted.parent(w).expect("steiner non-root has parent");
            q_children[p] = q_children[p].saturating_add(1);
        }
    }
    QueryInfo {
        scope: query.clone(),
        weight,
        members: st.nodes().to_vec(),
        root: st.root(),
        single_node: st.len() == 1,
        steiner,
        var_cover,
        q_children,
    }
}

/// Usefulness `δ_S(q)` (Def. 3.1) as a free function so the online engine
/// can evaluate it for fresh queries; see
/// [`OfflineContext::delta`] for the condition derivation.
pub fn delta(tree: &JunctionTree, rooted: &RootedTree, s: &Shortcut, qi: &QueryInfo) -> bool {
    if qi.single_node {
        return false;
    }
    if !s.node_set().intersects(&qi.steiner) {
        return false;
    }
    let below_edge = qi.members.iter().any(|&w| {
        !s.node_set().contains(w)
            && rooted
                .parent(w)
                .is_some_and(|p| s.node_set().contains(p) && qi.steiner.contains(p))
    });
    if !below_edge {
        return false;
    }
    for &(x, cnt_q) in &qi.var_cover {
        if s.scope().contains(x) {
            continue;
        }
        let cnt_in_i = qi
            .members
            .iter()
            .filter(|&&u| s.node_set().contains(u) && tree.clique(u).contains(x))
            .count() as u32;
        if cnt_q == cnt_in_i {
            return false;
        }
    }
    true
}

impl<'t> OfflineContext<'t> {
    /// Builds the context: extracts one Steiner tree per distinct query.
    pub fn new(tree: &'t JunctionTree, workload: &Workload) -> Result<Self, PgmError> {
        let rooted = RootedTree::new(tree);
        let queries = workload
            .entries()
            .iter()
            .map(|entry| build_query_info(tree, &rooted, &entry.query, entry.weight))
            .collect::<Result<Vec<_>, _>>()?;
        let mu = (0..tree.n_cliques()).map(|u| tree.clique_size(u)).collect();
        Ok(OfflineContext {
            tree,
            rooted,
            queries,
            mu,
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

    /// The distinct queries.
    #[inline]
    pub fn queries(&self) -> &[QueryInfo] {
        &self.queries
    }

    /// `μ(u)`.
    #[inline]
    pub fn mu(&self, u: usize) -> Size {
        self.mu[u]
    }

    /// The per-node benefit contribution of Def. 3.2:
    /// `μ(u) · Π_{w ∈ X_{T_u} ∩ q} α(w)`.
    pub fn contrib(&self, u: usize, qi: &QueryInfo) -> f64 {
        let sub = self.rooted.subtree_scope(u);
        let mut f = self.mu[u] as f64;
        for x in qi.scope.iter() {
            if sub.contains(x) {
                f *= self.tree.domain().card(x) as f64;
            }
        }
        f
    }

    /// Usefulness `δ_S(q)` (Def. 3.1), in an operational form (listed under
    /// "Deviations from the paper" in `ARCHITECTURE.md`):
    ///
    /// 1. `I = V(S) ∩ V(T_q)` is non-empty;
    /// 2. some Steiner node outside `I` has its (Steiner-)parent inside `I`
    ///    — equivalently, conditions (i)/(ii) of the paper: at least two cut
    ///    separators lie on some leaf→`r_q` path when `r_q ∉ V(S)`, at least
    ///    one when `r_q ∈ V(S)`;
    /// 3. no query variable is lost: each query variable is either in the
    ///    shortcut scope `X_S` or covered by a Steiner clique outside `I`.
    pub fn delta(&self, s: &Shortcut, qi: &QueryInfo) -> bool {
        delta(self.tree, &self.rooted, s, qi)
    }

    /// `B(S, q)` (Def. 3.2).
    pub fn benefit_for_query(&self, s: &Shortcut, qi: &QueryInfo) -> f64 {
        if !self.delta(s, qi) {
            return 0.0;
        }
        s.nodes().iter().map(|&u| self.contrib(u, qi)).sum()
    }

    /// `B(S, Q)` (Def. 3.3): the workload-weighted benefit.
    pub fn benefit(&self, s: &Shortcut) -> f64 {
        self.queries
            .iter()
            .map(|qi| qi.weight * self.benefit_for_query(s, qi))
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
        let qi = &ctx.queries()[0];
        // f ∈ {e,f} is inside the region and NOT in X_S = {c,e,g} ⇒ not
        // useful for this query (f would be lost)!
        assert!(!ctx.delta(&s, qi));

        // The region {ce, egh} is not connected in our tree (egh hangs off
        // ef), but {egh} alone is: scope {e, g}; f is outside it, b outside,
        // i covered by gil outside ⇒ useful.
        let s2 = Shortcut::from_nodes(&tree, ctx.rooted(), vec![id(&names, "egh")]).unwrap();
        assert!(ctx.delta(&s2, qi));
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
        assert!(!ctx.delta(&s, &ctx.queries()[0]));
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
        assert!(!ctx.delta(&s, &ctx.queries()[0]));
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
        let qi1 = ctx_flat.queries().iter().find(|qi| qi.scope == q1).unwrap();
        let qi2 = ctx_flat.queries().iter().find(|qi| qi.scope == q2).unwrap();
        let b1 = ctx_flat.benefit_for_query(&s, qi1);
        let b2 = ctx_flat.benefit_for_query(&s, qi2);
        assert!((b_flat - (0.5 * b1 + 0.5 * b2)).abs() < 1e-9);
        assert!((b_skew - (0.75 * b1 + 0.25 * b2)).abs() < 1e-9);
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
        let qi = &ctx.queries()[0];
        let c = ctx.contrib(egh, qi);
        // μ(egh) = 8, α(i) = α(l) = 2 ⇒ 32
        assert_eq!(c, 32.0);
        // a clique with no query vars below contributes just μ
        let abd = id(&names, "abd");
        assert_eq!(ctx.contrib(abd, qi), 8.0);
    }
}
