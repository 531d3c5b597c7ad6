//! Seeded random-network generation.
//!
//! The paper evaluates on eight published Bayesian networks whose model
//! files are not available in this offline environment. Instead (see
//! "Deviations from the paper" in `ARCHITECTURE.md`), `peanut-datasets`
//! instantiates the generator below
//! with per-dataset parameters matched to the paper's Table 1 (node count,
//! edge count, max in-degree, approximate parameter count).
//!
//! The **locality window** is the knob that shapes the junction tree: parents
//! are drawn only from the `window` most recent nodes in the topological
//! order. A small window yields chain-like models (small treewidth, large
//! junction-tree diameter, like Child or TPC-H); a larger window yields
//! denser, more entangled models (larger treewidth, like Andes or Munin).

use crate::error::PgmError;
use crate::network::BayesianNetwork;
use crate::sampling::random_cpt;
use crate::{Domain, NetworkBuilder, Result, Var};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Configuration of the locality-window DAG generator.
#[derive(Clone, Debug)]
pub struct DagConfig {
    /// Number of variables.
    pub n_nodes: usize,
    /// Number of directed edges (must satisfy the window/in-degree bounds).
    pub n_edges: usize,
    /// Maximum in-degree of any node.
    pub max_in_degree: usize,
    /// Parents of node `i` are drawn from `[i - window, i)`.
    pub window: usize,
    /// Cardinalities are sampled uniformly from this non-empty list.
    pub cardinalities: Vec<u32>,
}

impl DagConfig {
    /// A reasonable default for tests: sparse, binary, chain-biased.
    pub fn sparse_binary(n_nodes: usize) -> Self {
        DagConfig {
            n_nodes,
            n_edges: n_nodes.saturating_sub(1) + n_nodes / 4,
            max_in_degree: 3,
            window: 4,
            cardinalities: vec![2],
        }
    }

    fn validate(&self) -> Result<()> {
        if self.n_nodes == 0 {
            return Err(PgmError::InfeasibleGenerator("n_nodes = 0".into()));
        }
        if self.cardinalities.is_empty() || self.cardinalities.contains(&0) {
            return Err(PgmError::InfeasibleGenerator(
                "cardinality list empty or contains 0".into(),
            ));
        }
        if self.max_in_degree == 0 && self.n_edges > 0 {
            return Err(PgmError::InfeasibleGenerator(
                "edges requested with max_in_degree = 0".into(),
            ));
        }
        // capacity: node i can host min(i, window, max_in_degree) parents
        let capacity: usize = (0..self.n_nodes)
            .map(|i| i.min(self.window).min(self.max_in_degree))
            .sum();
        if self.n_edges > capacity {
            return Err(PgmError::InfeasibleGenerator(format!(
                "{} edges requested but capacity is {capacity}",
                self.n_edges
            )));
        }
        if self.n_nodes > 1 && self.n_edges + 1 < self.n_nodes {
            // we still allow forests, but most paper datasets are connected;
            // the caller decides. No error here.
        }
        Ok(())
    }
}

/// Generates the DAG structure only: `parents[i]` for every node, under the
/// locality-window model. Deterministic in `seed`.
pub fn generate_dag(cfg: &DagConfig, seed: u64) -> Result<Vec<Vec<Var>>> {
    cfg.validate()?;
    let mut rng = StdRng::seed_from_u64(seed);
    let n = cfg.n_nodes;
    let mut parents: Vec<Vec<Var>> = vec![Vec::new(); n];
    let mut placed = 0usize;

    // First pass: one parent per non-root node (keeps the model connected)
    // as long as the edge budget allows.
    for (i, ps) in parents.iter_mut().enumerate().skip(1) {
        if placed == cfg.n_edges {
            break;
        }
        let lo = i.saturating_sub(cfg.window);
        let p = rng.gen_range(lo..i);
        ps.push(Var(p as u32));
        placed += 1;
    }

    // Second pass: fill the remaining edges over nodes with remaining
    // capacity. Extra parents are chosen to mimic the *converging families*
    // of real networks (several co-parents explaining one child):
    //
    // 1. prefer a **childless node near the first parent** — such co-parents
    //    appear in few other cliques, so the moralized family becomes a fat
    //    clique with a thin boundary (exactly the regions shortcut
    //    potentials exploit, and the dominant pattern in the diagnostic
    //    networks of the paper's benchmark);
    // 2. otherwise walk the **ancestor chain** of the first parent, whose
    //    moral edges already exist (keeps the graph near-chordal);
    // 3. otherwise fall back to the plain window.
    const FAMILY_SPREAD: usize = 1;
    let mut has_child = vec![false; n];
    for ps in &parents {
        for p in ps {
            has_child[p.index()] = true;
        }
    }
    let mut open: Vec<usize> = (1..n)
        .filter(|&i| parents[i].len() < i.min(cfg.window).min(cfg.max_in_degree))
        .collect();
    while placed < cfg.n_edges {
        if open.is_empty() {
            return Err(PgmError::InfeasibleGenerator(
                "ran out of capacity while placing edges".into(),
            ));
        }
        let slot = rng.gen_range(0..open.len());
        let i = open[slot];
        let lo = i.saturating_sub(cfg.window);
        let p1 = parents[i].first().map(|v| v.index());

        // 1. childless co-parent near p1
        let mut picked: Option<usize> = p1.and_then(|p1| {
            let fam_lo = p1.saturating_sub(FAMILY_SPREAD).max(lo);
            let fam_hi = (p1 + FAMILY_SPREAD + 1).min(i);
            (fam_lo..fam_hi)
                .filter(|&c| !has_child[c] && !parents[i].contains(&Var(c as u32)))
                .collect::<Vec<_>>()
                .choose(&mut rng)
                .copied()
        });
        // 2. ancestor chain of p1
        if picked.is_none() {
            let mut cursor = p1;
            while let Some(a) = cursor {
                if a >= lo && !parents[i].contains(&Var(a as u32)) {
                    picked = Some(a);
                    break;
                }
                cursor = parents[a].first().map(|v| v.index());
            }
        }
        // 3. anywhere in the window
        if picked.is_none() {
            picked = (lo..i)
                .filter(|&p| !parents[i].contains(&Var(p as u32)))
                .collect::<Vec<_>>()
                .choose(&mut rng)
                .copied();
        }
        match picked {
            Some(p) => {
                parents[i].push(Var(p as u32));
                has_child[p] = true;
                placed += 1;
                if parents[i].len() >= i.min(cfg.window).min(cfg.max_in_degree) {
                    open.swap_remove(slot);
                }
            }
            None => {
                open.swap_remove(slot);
            }
        }
    }
    Ok(parents)
}

/// Generates a full network: locality-window DAG plus random CPTs.
/// Deterministic in `seed`.
pub fn generate_network(cfg: &DagConfig, seed: u64) -> Result<BayesianNetwork> {
    let parents = generate_dag(cfg, seed)?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut domain = Domain::new();
    for i in 0..cfg.n_nodes {
        let card = *cfg.cardinalities.choose(&mut rng).expect("non-empty");
        domain.add(&format!("x{i}"), card)?;
    }
    let mut b = NetworkBuilder::new();
    for i in 0..cfg.n_nodes {
        b.try_var(&format!("x{i}"), domain.card(Var(i as u32)))?;
    }
    for (i, ps) in parents.iter().enumerate() {
        let child = Var(i as u32);
        let table = random_cpt(b.domain(), child, ps, &mut rng)?;
        b.cpt_potential(child, ps, table)?;
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_shape() {
        let cfg = DagConfig {
            n_nodes: 30,
            n_edges: 45,
            max_in_degree: 4,
            window: 6,
            cardinalities: vec![2, 3],
        };
        let bn = generate_network(&cfg, 42).unwrap();
        assert_eq!(bn.n_vars(), 30);
        assert_eq!(bn.n_edges(), 45);
        assert!(bn.max_in_degree() <= 4);
        bn.validate_cpts().unwrap();
        // window respected
        for (p, c) in bn.edges() {
            assert!(p < c);
            assert!(c.index() - p.index() <= 6);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let cfg = DagConfig::sparse_binary(20);
        let a = generate_network(&cfg, 7).unwrap();
        let b = generate_network(&cfg, 7).unwrap();
        let c = generate_network(&cfg, 8).unwrap();
        let ea: Vec<_> = a.edges().collect();
        let eb: Vec<_> = b.edges().collect();
        let ec: Vec<_> = c.edges().collect();
        assert_eq!(ea, eb);
        assert_ne!(ea, ec);
        // CPT values identical too
        for v in a.domain().all_vars() {
            assert_eq!(a.cpt(v).values(), b.cpt(v).values());
        }
    }

    #[test]
    fn infeasible_configs_rejected() {
        let cfg = DagConfig {
            n_nodes: 5,
            n_edges: 100,
            max_in_degree: 2,
            window: 2,
            cardinalities: vec![2],
        };
        assert!(matches!(
            generate_dag(&cfg, 1),
            Err(PgmError::InfeasibleGenerator(_))
        ));
        let cfg = DagConfig {
            n_nodes: 0,
            n_edges: 0,
            max_in_degree: 0,
            window: 0,
            cardinalities: vec![2],
        };
        assert!(generate_dag(&cfg, 1).is_err());
        let cfg = DagConfig {
            n_nodes: 3,
            n_edges: 1,
            max_in_degree: 1,
            window: 1,
            cardinalities: vec![],
        };
        assert!(generate_dag(&cfg, 1).is_err());
    }

    #[test]
    fn small_window_gives_path_like_graphs() {
        let cfg = DagConfig {
            n_nodes: 40,
            n_edges: 39,
            max_in_degree: 1,
            window: 1,
            cardinalities: vec![2],
        };
        let bn = generate_network(&cfg, 3).unwrap();
        // a pure chain: every non-root has exactly its predecessor as parent
        for (p, c) in bn.edges() {
            assert_eq!(p.index() + 1, c.index());
        }
    }
}
