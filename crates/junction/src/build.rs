//! End-to-end junction-tree construction from a Bayesian network.

use crate::moral::MoralGraph;
use crate::tree::JunctionTree;
use crate::triangulate::triangulate;
use peanut_pgm::{BayesianNetwork, PgmError};

/// Builds the junction tree of a network: moralization → min-fill
/// triangulation → maximal cliques → maximum-spanning clique tree → CPT
/// factor assignment (each family to the smallest covering clique).
///
/// The pivot defaults to clique `0`; callers may re-root with
/// [`JunctionTree::set_pivot`]. The paper treats the pivot as arbitrary
/// (§3.1).
pub fn build_junction_tree(bn: &BayesianNetwork) -> Result<JunctionTree, PgmError> {
    let moral = MoralGraph::from_network(bn);
    let tri = triangulate(&moral, bn.domain());
    let mut tree = JunctionTree::from_cliques(bn.domain().clone(), tri.cliques)?;

    // family preservation: assign each CPT to the smallest covering clique
    for v in bn.domain().all_vars() {
        let fam = bn.family(v);
        let target = (0..tree.n_cliques())
            .filter(|&u| fam.is_subset_of(tree.clique(u)))
            .min_by_key(|&u| (tree.clique_size(u), u))
            .ok_or(PgmError::BadCptScope { var: v })?;
        tree.assign_factor(target, v, bn.parents(v));
    }
    Ok(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use peanut_pgm::fixtures;

    #[test]
    fn figure1_tree_matches_paper() {
        let bn = fixtures::figure1();
        let t = build_junction_tree(&bn).unwrap();
        assert_eq!(t.n_cliques(), 6);
        assert_eq!(t.edges().len(), 5);
        let d = bn.domain();
        // The separator multiset of Figure 1(b) is {b}, {c}, {e}, {e}, {g}.
        // (The exact tree topology may differ from the figure by maximum-
        // spanning-tree tie-breaking; any such tree is a valid junction tree
        // with the same separators.)
        let mut seps: Vec<String> = (0..t.edges().len())
            .map(|e| {
                let sc = t.separator(e);
                sc.iter()
                    .map(|v| d.name(v).to_string())
                    .collect::<Vec<_>>()
                    .join("")
            })
            .collect();
        seps.sort();
        assert_eq!(seps, vec!["b", "c", "e", "e", "g"]);
        assert_eq!(t.treewidth(), 2);
        t.check_running_intersection().unwrap();
    }

    #[test]
    fn every_factor_assigned_exactly_once() {
        for bn in [
            fixtures::figure1(),
            fixtures::sprinkler(),
            fixtures::asia(),
            fixtures::chain(9, 3, 2),
            fixtures::binary_tree(15, 1),
        ] {
            let t = build_junction_tree(&bn).unwrap();
            let mut seen = vec![0usize; bn.n_vars()];
            for u in 0..t.n_cliques() {
                for &v in t.assigned_factors(u) {
                    // family must fit the clique
                    assert!(bn.family(v).is_subset_of(t.clique(u)));
                    seen[v.index()] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "assignment counts {seen:?}");
        }
    }

    #[test]
    fn running_intersection_on_random_networks() {
        use peanut_pgm::generate::{generate_network, DagConfig};
        for seed in 0..10 {
            let cfg = DagConfig {
                n_nodes: 25,
                n_edges: 35,
                max_in_degree: 3,
                window: 5,
                cardinalities: vec![2, 3],
            };
            let bn = generate_network(&cfg, seed).unwrap();
            let t = build_junction_tree(&bn).unwrap();
            t.check_running_intersection().unwrap();
        }
    }

    #[test]
    fn chain_tree_is_path_with_unit_separators() {
        let bn = fixtures::chain(7, 2, 0);
        let t = build_junction_tree(&bn).unwrap();
        assert_eq!(t.n_cliques(), 6);
        assert_eq!(t.diameter(), 5);
        for e in 0..t.edges().len() {
            assert_eq!(t.separator(e).len(), 1);
        }
    }
}
