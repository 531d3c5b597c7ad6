//! Moralization: the undirected graph obtained by "marrying" the parents of
//! every variable and dropping edge directions.

use peanut_pgm::{BayesianNetwork, Var};
use std::collections::BTreeSet;

/// Undirected graph over the variables of a network, stored as sorted
/// adjacency sets (the triangulation step inserts fill-in edges, so cheap
/// ordered insertion matters more than raw lookup speed).
#[derive(Clone, Debug)]
pub struct MoralGraph {
    adj: Vec<BTreeSet<Var>>,
}

impl MoralGraph {
    /// Moralizes a Bayesian network: for every family `{v} ∪ parents(v)`,
    /// all pairs become adjacent.
    pub fn from_network(bn: &BayesianNetwork) -> Self {
        let mut g = MoralGraph {
            adj: vec![BTreeSet::new(); bn.n_vars()],
        };
        for v in bn.domain().all_vars() {
            let fam: Vec<Var> = bn.family(v).iter().collect();
            for (i, &a) in fam.iter().enumerate() {
                for &b in &fam[i + 1..] {
                    g.add_edge(a, b);
                }
            }
        }
        g
    }

    /// An empty graph over `n` variables (for tests).
    pub fn empty(n: usize) -> Self {
        MoralGraph {
            adj: vec![BTreeSet::new(); n],
        }
    }

    /// Inserts an undirected edge.
    pub fn add_edge(&mut self, a: Var, b: Var) {
        if a != b {
            self.adj[a.index()].insert(b);
            self.adj[b.index()].insert(a);
        }
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    pub fn n_edges(&self) -> usize {
        self.adj.iter().map(BTreeSet::len).sum::<usize>() / 2
    }

    /// Neighbors of a variable.
    pub fn neighbors(&self, v: Var) -> &BTreeSet<Var> {
        &self.adj[v.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peanut_pgm::fixtures;

    impl MoralGraph {
        /// Adjacency test.
        fn has_edge(&self, a: Var, b: Var) -> bool {
            self.neighbors(a).contains(&b)
        }
    }

    #[test]
    fn sprinkler_moralization_marries_parents() {
        let bn = fixtures::sprinkler();
        let g = MoralGraph::from_network(&bn);
        let d = bn.domain();
        let s = d.var("sprinkler").unwrap();
        let r = d.var("rain").unwrap();
        let w = d.var("wet").unwrap();
        let c = d.var("cloudy").unwrap();
        // original edges kept
        assert!(g.has_edge(c, s));
        assert!(g.has_edge(c, r));
        assert!(g.has_edge(s, w));
        assert!(g.has_edge(r, w));
        // parents of `wet` married
        assert!(g.has_edge(s, r));
        assert_eq!(g.n_edges(), 5);
    }

    #[test]
    fn figure1_moral_edges() {
        let bn = fixtures::figure1();
        let g = MoralGraph::from_network(&bn);
        let d = bn.domain();
        // h's parents {e, g} married; l's parents {g, i} married;
        // d's parents {a, b} married.
        assert!(g.has_edge(d.var("e").unwrap(), d.var("g").unwrap()));
        assert!(g.has_edge(d.var("g").unwrap(), d.var("i").unwrap()));
        assert!(g.has_edge(d.var("a").unwrap(), d.var("b").unwrap()));
        // 11 directed edges; marriages a–b (new), e–g and g–i (already
        // present as directed edges) ⇒ 12 undirected edges.
        assert_eq!(g.n_edges(), 12);
    }

    #[test]
    fn self_loops_ignored() {
        let mut g = MoralGraph::empty(2);
        g.add_edge(Var(0), Var(0));
        assert_eq!(g.n_edges(), 0);
    }
}
