//! The hierarchical INDSEP index: recursive partitioning of the junction
//! tree, one shortcut potential per index node, bounded by the block size.

use crate::partition::kundu_misra;
use peanut_core::{Materialization, MaterializedShortcut, Shortcut};
use peanut_junction::{JunctionTree, NumericState, RootedTree};
use peanut_pgm::{PgmError, Size};

/// One node of the hierarchical index.
#[derive(Clone, Debug)]
pub struct IndexNode {
    /// Hierarchy level (1 = partitions of the clique tree).
    pub level: usize,
    /// Base cliques covered by this index node (a connected subtree).
    pub cliques: Vec<usize>,
    /// The node's shortcut potential (absent for the all-covering root,
    /// whose cut is empty).
    pub shortcut: Option<Shortcut>,
    /// Whether the shortcut fits the block size and was materialized.
    pub materialized: bool,
}

/// The assembled index plus the derived materialization for the shared
/// online engine.
#[derive(Clone, Debug)]
pub struct IndsepIndex {
    /// Index nodes, all levels (level 1 first).
    pub nodes: Vec<IndexNode>,
    /// Shortcut potentials that fit the block size, ready for the online
    /// engine (overlapping: the hierarchy nests).
    pub materialization: Materialization,
    /// Index nodes whose shortcut exceeded the block size (handled by the
    /// original system with a multi-level approximation; we skip them and
    /// report the count).
    pub skipped_oversize: usize,
    /// Number of hierarchy levels built.
    pub levels: usize,
}

/// Builds the INDSEP index with the given disk-block size (in table
/// entries). Shortcut tables are materialized numerically when `numeric` is
/// given (calibrated state), size-only otherwise.
pub fn build_index(
    tree: &JunctionTree,
    rooted: &RootedTree,
    block: Size,
    numeric: Option<&NumericState>,
) -> Result<IndsepIndex, PgmError> {
    let n = tree.n_cliques();
    // level-0 tree: the clique tree itself
    let mut parent: Vec<Option<usize>> = (0..n).map(|v| rooted.parent(v)).collect();
    let mut weights: Vec<Size> = (0..n).map(|v| tree.clique_size(v)).collect();
    // base-clique coverage per current-level node
    let mut coverage: Vec<Vec<usize>> = (0..n).map(|v| vec![v]).collect();

    let mut nodes: Vec<IndexNode> = Vec::new();
    let mut skipped = 0usize;
    let mut level = 0usize;
    const MAX_LEVELS: usize = 32;

    while coverage.len() > 1 && level < MAX_LEVELS {
        level += 1;
        let part = kundu_misra(&parent, &weights, block);
        let k = part.iter().copied().max().expect("non-empty") + 1;
        // quotient: coverage, parents, weights of the new level
        let mut new_cov: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (v, &p) in part.iter().enumerate() {
            new_cov[p].extend_from_slice(&coverage[v]);
        }
        let mut new_parent: Vec<Option<usize>> = vec![None; k];
        for (v, &pv) in parent.iter().enumerate() {
            if let Some(pv) = pv {
                if part[v] != part[pv] {
                    new_parent[part[v]] = Some(part[pv]);
                }
            }
        }
        let mut new_weights: Vec<Size> = vec![1; k];
        for (p, cov) in new_cov.iter_mut().enumerate() {
            cov.sort_unstable();
            let shortcut = Shortcut::from_nodes(tree, rooted, cov.clone())?;
            let fits = shortcut.size() <= block && !shortcut.cut().is_empty();
            new_weights[p] = shortcut.size().max(1);
            if !fits && !shortcut.cut().is_empty() {
                skipped += 1;
            }
            nodes.push(IndexNode {
                level,
                cliques: cov.clone(),
                materialized: fits,
                shortcut: if shortcut.cut().is_empty() {
                    None
                } else {
                    Some(shortcut)
                },
            });
        }
        // no progress (every node already its own part and still > 1):
        // collapse everything into a single root part next round by lifting
        // the block size — the hierarchy must terminate with one root.
        if k == coverage.len() && k > 1 && level >= 2 {
            let all: Vec<usize> = (0..n).collect();
            let shortcut = Shortcut::from_nodes(tree, rooted, all.clone())?;
            nodes.push(IndexNode {
                level: level + 1,
                cliques: all,
                shortcut: None,
                materialized: false,
            });
            let _ = shortcut;
            break;
        }
        parent = new_parent;
        weights = new_weights;
        coverage = new_cov;
        if coverage.len() == 1 {
            break;
        }
    }

    // dedup identical regions across levels (a part that survives
    // unchanged up the hierarchy would otherwise materialize twice)
    let mut shortcuts: Vec<MaterializedShortcut> = Vec::new();
    let mut seen: Vec<&[usize]> = Vec::new();
    for node in &nodes {
        let (Some(shortcut), true) = (&node.shortcut, node.materialized) else {
            continue;
        };
        if seen.contains(&node.cliques.as_slice()) {
            continue;
        }
        seen.push(node.cliques.as_slice());
        // workload-agnostic weight: the clique mass the shortcut can skip
        let mass: f64 = shortcut
            .nodes()
            .iter()
            .map(|&u| tree.clique_size(u) as f64)
            .sum();
        let potential = match numeric {
            Some(ns) => Some(shortcut.materialize(tree, rooted, ns)?.0),
            None => None,
        };
        shortcuts.push(MaterializedShortcut {
            ratio: mass / shortcut.size().max(1) as f64,
            benefit: mass,
            potential,
            shortcut: shortcut.clone(),
        });
    }
    shortcuts.sort_by(|a, b| b.ratio.partial_cmp(&a.ratio).expect("finite"));

    Ok(IndsepIndex {
        nodes,
        materialization: Materialization::new(shortcuts, true),
        skipped_oversize: skipped,
        levels: level,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use peanut_core::OnlineEngine;
    use peanut_junction::{build_junction_tree, QueryEngine};
    use peanut_pgm::{fixtures, joint, Scope};

    fn setup(bn: &peanut_pgm::BayesianNetwork) -> (JunctionTree, RootedTree) {
        let tree = build_junction_tree(bn).unwrap();
        let rooted = RootedTree::new(&tree);
        (tree, rooted)
    }

    #[test]
    fn hierarchy_covers_and_nests() {
        let bn = fixtures::chain(16, 2, 3);
        let (tree, rooted) = setup(&bn);
        let idx = build_index(&tree, &rooted, 8, None).unwrap();
        assert!(idx.levels >= 1);
        // every level partitions the cliques exactly
        for lvl in 1..=idx.levels {
            let mut covered: Vec<usize> = idx
                .nodes
                .iter()
                .filter(|n| n.level == lvl)
                .flat_map(|n| n.cliques.iter().copied())
                .collect();
            covered.sort_unstable();
            if covered.is_empty() {
                continue; // terminal pseudo-level
            }
            assert_eq!(covered, (0..tree.n_cliques()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn materialized_shortcuts_fit_block() {
        let bn = fixtures::binary_tree(31, 4);
        let (tree, rooted) = setup(&bn);
        for block in [4u64, 16, 64] {
            let idx = build_index(&tree, &rooted, block, None).unwrap();
            for ms in &idx.materialization.shortcuts {
                assert!(ms.shortcut.size() <= block);
            }
        }
    }

    #[test]
    fn larger_blocks_fewer_partitions() {
        let bn = fixtures::chain(20, 2, 9);
        let (tree, rooted) = setup(&bn);
        let small = build_index(&tree, &rooted, 6, None).unwrap();
        let big = build_index(&tree, &rooted, 1000, None).unwrap();
        let level1 = |idx: &IndsepIndex| idx.nodes.iter().filter(|n| n.level == 1).count();
        assert!(level1(&small) > level1(&big));
        assert_eq!(level1(&big), 1);
    }

    #[test]
    fn indsep_answers_remain_exact() {
        let bn = fixtures::figure1();
        let (tree, rooted) = setup(&bn);
        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let idx = build_index(&tree, &rooted, 16, engine.numeric_state()).unwrap();
        let online = OnlineEngine::new(&engine, &idx.materialization);
        let d = bn.domain();
        for pair in [["a", "l"], ["d", "f"], ["b", "h"], ["f", "l"], ["a", "i"]] {
            let q = Scope::from_iter(pair.iter().map(|n| d.var(n).unwrap()));
            let (got, cost) = online.answer(&q).unwrap();
            let want = joint::marginal(&bn, &q).unwrap();
            assert!(got.max_abs_diff(&want).unwrap() < 1e-9, "query {pair:?}");
            let base = online.baseline_cost(&q).unwrap();
            assert!(cost.ops <= base.ops);
        }
    }

    #[test]
    fn indsep_saves_on_long_chains() {
        let bn = fixtures::chain(24, 2, 8);
        let (tree, rooted) = setup(&bn);
        let engine = QueryEngine::symbolic(&tree);
        let idx = build_index(&tree, &rooted, 16, None).unwrap();
        assert!(!idx.materialization.is_empty());
        let online = OnlineEngine::new(&engine, &idx.materialization);
        let q = Scope::from_indices(&[0, 23]);
        let base = online.baseline_cost(&q).unwrap().ops;
        let with = online.cost(&q).unwrap().ops;
        assert!(
            with < base,
            "INDSEP should prune the long chain: {with} vs {base}"
        );
    }

    #[test]
    fn tiny_block_skips_oversize() {
        let bn = fixtures::figure1();
        let (tree, rooted) = setup(&bn);
        let idx = build_index(&tree, &rooted, 1, None).unwrap();
        // nothing fits one entry, everything oversize or cutless
        assert!(idx.materialization.is_empty());
    }
}
