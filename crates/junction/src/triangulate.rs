//! Min-fill triangulation and maximal-clique extraction.

use crate::moral::MoralGraph;
use peanut_pgm::{Domain, Scope, Var};
use std::collections::BTreeSet;

/// Result of triangulating a moral graph.
#[derive(Clone, Debug)]
pub struct Triangulation {
    /// Elimination order used.
    pub order: Vec<Var>,
    /// Fill-in edges added by the elimination.
    pub fill_ins: Vec<(Var, Var)>,
    /// Maximal cliques of the triangulated graph.
    pub cliques: Vec<Scope>,
}

/// Triangulates `g` with the classic **min-fill** greedy heuristic
/// (ties broken by smaller resulting table size, then variable index) and
/// returns the maximal cliques.
///
/// Min-fill repeatedly eliminates the vertex whose elimination adds the
/// fewest fill-in edges; each elimination's `{v} ∪ neighbors(v)` is a clique
/// candidate. Candidates contained in other candidates are dropped, yielding
/// exactly the maximal cliques of the triangulated graph.
pub fn triangulate(g: &MoralGraph, domain: &Domain) -> Triangulation {
    let n = g.n_vars();
    let mut adj: Vec<BTreeSet<Var>> = (0..n).map(|i| g.neighbors(Var(i as u32)).clone()).collect();
    let mut alive: Vec<bool> = vec![true; n];
    let mut order = Vec::with_capacity(n);
    let mut fill_ins = Vec::new();
    let mut candidates: Vec<Scope> = Vec::with_capacity(n);

    for _ in 0..n {
        // pick the alive vertex with minimum fill-in count
        let mut best: Option<(usize, u64, u32)> = None; // (fill, table, idx)
        for i in 0..n {
            if !alive[i] {
                continue;
            }
            let v = Var(i as u32);
            let nbrs: Vec<Var> = adj[i].iter().copied().collect();
            let mut fill = 0usize;
            for (a_i, &a) in nbrs.iter().enumerate() {
                for &b in &nbrs[a_i + 1..] {
                    if !adj[a.index()].contains(&b) {
                        fill += 1;
                    }
                }
            }
            let mut table: u64 = domain.card(v) as u64;
            for &u in &nbrs {
                table = table.saturating_mul(domain.card(u) as u64);
            }
            let key = (fill, table, i as u32);
            if best.is_none_or(|b| key < (b.0, b.1, b.2)) {
                best = Some(key);
            }
        }
        let (_, _, vi) = best.expect("an alive vertex exists");
        let v = Var(vi);
        let nbrs: Vec<Var> = adj[v.index()].iter().copied().collect();

        // record clique candidate
        let mut clique = Scope::from_iter(nbrs.iter().copied());
        clique.insert(v);
        candidates.push(clique);

        // connect the neighborhood (fill-ins)
        for (a_i, &a) in nbrs.iter().enumerate() {
            for &b in &nbrs[a_i + 1..] {
                if adj[a.index()].insert(b) {
                    adj[b.index()].insert(a);
                    fill_ins.push((a, b));
                }
            }
        }
        // remove v
        for &u in &nbrs {
            adj[u.index()].remove(&v);
        }
        adj[v.index()].clear();
        alive[v.index()] = false;
        order.push(v);
    }

    // keep only maximal candidates (first occurrence wins for duplicates)
    let mut cliques: Vec<Scope> = Vec::with_capacity(candidates.len());
    'outer: for (i, c) in candidates.iter().enumerate() {
        for (j, other) in candidates.iter().enumerate() {
            if i == j || !c.is_subset_of(other) {
                continue;
            }
            if c != other || i > j {
                continue 'outer; // strict subset, or later duplicate
            }
        }
        cliques.push(c.clone());
    }

    Triangulation {
        order,
        fill_ins,
        cliques,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peanut_pgm::fixtures;
    use peanut_pgm::BayesianNetwork;

    /// True when `order` is a *perfect elimination order* for the graph obtained
    /// from `g` plus `fill_ins` — i.e. the filled graph is chordal.
    fn is_chordal_completion(g: &MoralGraph, t: &Triangulation) -> bool {
        let n = g.n_vars();
        let mut adj: Vec<BTreeSet<Var>> =
            (0..n).map(|i| g.neighbors(Var(i as u32)).clone()).collect();
        for &(a, b) in &t.fill_ins {
            adj[a.index()].insert(b);
            adj[b.index()].insert(a);
        }
        let mut eliminated = vec![false; n];
        for &v in &t.order {
            let later: Vec<Var> = adj[v.index()]
                .iter()
                .copied()
                .filter(|u| !eliminated[u.index()])
                .collect();
            for (i, &a) in later.iter().enumerate() {
                for &b in &later[i + 1..] {
                    if !adj[a.index()].contains(&b) {
                        return false;
                    }
                }
            }
            eliminated[v.index()] = true;
        }
        true
    }

    fn tri_of(bn: &BayesianNetwork) -> (MoralGraph, Triangulation) {
        let g = MoralGraph::from_network(bn);
        let t = triangulate(&g, bn.domain());
        (g, t)
    }

    #[test]
    fn figure1_cliques_match_paper() {
        let bn = fixtures::figure1();
        let (_, t) = tri_of(&bn);
        let d = bn.domain();
        let expect = [
            vec!["a", "b", "d"],
            vec!["b", "c"],
            vec!["c", "e"],
            vec!["e", "f"],
            vec!["e", "g", "h"],
            vec!["g", "i", "l"],
        ];
        assert_eq!(t.cliques.len(), expect.len());
        for names in expect {
            let sc = Scope::from_iter(names.iter().map(|n| d.var(n).unwrap()));
            assert!(
                t.cliques.contains(&sc),
                "missing clique {names:?}; got {:?}",
                t.cliques
            );
        }
    }

    #[test]
    fn elimination_is_chordal_completion() {
        for bn in [
            fixtures::figure1(),
            fixtures::sprinkler(),
            fixtures::asia(),
            fixtures::binary_tree(15, 4),
        ] {
            let (g, t) = tri_of(&bn);
            assert!(is_chordal_completion(&g, &t));
            assert_eq!(t.order.len(), bn.n_vars());
        }
    }

    #[test]
    fn families_covered_by_some_clique() {
        for bn in [
            fixtures::figure1(),
            fixtures::asia(),
            fixtures::chain(8, 2, 5),
        ] {
            let (_, t) = tri_of(&bn);
            for v in bn.domain().all_vars() {
                let fam = bn.family(v);
                assert!(
                    t.cliques.iter().any(|c| fam.is_subset_of(c)),
                    "family of {v} not covered"
                );
            }
        }
    }

    #[test]
    fn cliques_are_maximal() {
        for bn in [fixtures::figure1(), fixtures::asia()] {
            let (_, t) = tri_of(&bn);
            for (i, a) in t.cliques.iter().enumerate() {
                for (j, b) in t.cliques.iter().enumerate() {
                    if i != j {
                        assert!(!a.is_subset_of(b), "{a} ⊆ {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn chain_cliques_are_adjacent_pairs() {
        let bn = fixtures::chain(6, 2, 0);
        let (_, t) = tri_of(&bn);
        assert_eq!(t.cliques.len(), 5);
        assert!(t.fill_ins.is_empty());
        for c in &t.cliques {
            assert_eq!(c.len(), 2);
        }
    }
}
