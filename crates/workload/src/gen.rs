//! Skewed and uniform query samplers.

use peanut_junction::steiner::var_depth;
use peanut_junction::{JunctionTree, RootedTree};
use peanut_pgm::{Domain, Scope, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shared sampling parameters: query sizes are drawn uniformly from
/// `min_vars..=max_vars` (the paper uses 1–5 variables).
#[derive(Clone, Copy, Debug)]
pub struct QuerySpec {
    /// Minimum number of variables per query.
    pub min_vars: usize,
    /// Maximum number of variables per query.
    pub max_vars: usize,
}

impl Default for QuerySpec {
    fn default() -> Self {
        QuerySpec {
            min_vars: 1,
            max_vars: 5,
        }
    }
}

/// Samples one query by drawing distinct variables from a categorical
/// distribution given by `weights`.
fn sample_query<R: Rng>(weights: &[f64], spec: QuerySpec, rng: &mut R) -> Scope {
    let n = weights.len();
    let total: f64 = weights.iter().sum();
    let size = rng
        .gen_range(spec.min_vars..=spec.max_vars.min(n).max(spec.min_vars))
        .min(n);
    let mut chosen: Vec<Var> = Vec::with_capacity(size);
    let mut guard = 0usize;
    while chosen.len() < size && guard < 10_000 {
        guard += 1;
        let mut t = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
        let mut pick = n - 1;
        for (i, &w) in weights.iter().enumerate() {
            if t < w {
                pick = i;
                break;
            }
            t -= w;
        }
        let v = Var(pick as u32);
        if !chosen.contains(&v) {
            chosen.push(v);
        }
    }
    Scope::from_iter(chosen)
}

/// The paper's **skewed** workload: variables weighted by their distance
/// from the pivot (depth of the shallowest containing clique). Falls back
/// to uniform weights when every variable sits at the pivot.
pub fn skewed_queries(
    tree: &JunctionTree,
    rooted: &RootedTree,
    n_queries: usize,
    spec: QuerySpec,
    seed: u64,
) -> Vec<Scope> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut weights: Vec<f64> = tree
        .domain()
        .all_vars()
        .map(|v| var_depth(rooted, v).unwrap_or(0) as f64)
        .collect();
    if weights.iter().all(|&w| w == 0.0) {
        weights.fill(1.0);
    }
    (0..n_queries)
        .map(|_| sample_query(&weights, spec, &mut rng))
        .collect()
}

/// The paper's **uniform** workload: variables sampled uniformly.
pub fn uniform_queries(
    domain: &Domain,
    n_queries: usize,
    spec: QuerySpec,
    seed: u64,
) -> Vec<Scope> {
    let mut rng = StdRng::seed_from_u64(seed);
    let weights = vec![1.0; domain.len()];
    (0..n_queries)
        .map(|_| sample_query(&weights, spec, &mut rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use peanut_junction::build_junction_tree;
    use peanut_pgm::fixtures;

    #[test]
    fn sizes_within_spec() {
        let bn = fixtures::chain(20, 2, 3);
        let tree = build_junction_tree(&bn).unwrap();
        let rooted = RootedTree::new(&tree);
        let spec = QuerySpec {
            min_vars: 2,
            max_vars: 4,
        };
        for q in skewed_queries(&tree, &rooted, 200, spec, 1) {
            assert!(q.len() >= 2 && q.len() <= 4);
        }
        for q in uniform_queries(bn.domain(), 200, spec, 2) {
            assert!(q.len() >= 2 && q.len() <= 4);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let bn = fixtures::chain(10, 2, 3);
        let tree = build_junction_tree(&bn).unwrap();
        let rooted = RootedTree::new(&tree);
        let a = skewed_queries(&tree, &rooted, 50, QuerySpec::default(), 9);
        let b = skewed_queries(&tree, &rooted, 50, QuerySpec::default(), 9);
        let c = skewed_queries(&tree, &rooted, 50, QuerySpec::default(), 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn skew_prefers_deep_variables() {
        // on a long chain rooted at one end, deep (high-index) variables
        // must be sampled far more often than shallow ones
        let bn = fixtures::chain(30, 2, 5);
        let tree = build_junction_tree(&bn).unwrap();
        let rooted = RootedTree::new(&tree);
        let queries = skewed_queries(&tree, &rooted, 2000, QuerySpec::default(), 11);
        let mut counts = vec![0usize; 30];
        for q in &queries {
            for v in q.iter() {
                counts[v.index()] += 1;
            }
        }
        let shallow: usize = counts[..10].iter().sum();
        let deep: usize = counts[20..].iter().sum();
        assert!(
            deep > shallow * 2,
            "deep {deep} should dominate shallow {shallow}"
        );
    }

    #[test]
    fn uniform_covers_all_variables() {
        let bn = fixtures::chain(12, 2, 1);
        let queries = uniform_queries(bn.domain(), 600, QuerySpec::default(), 4);
        let mut seen = [false; 12];
        for q in &queries {
            for v in q.iter() {
                seen[v.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn single_variable_domain() {
        let bn = fixtures::chain(1, 3, 0);
        let queries = uniform_queries(bn.domain(), 10, QuerySpec::default(), 0);
        for q in queries {
            assert_eq!(q.len(), 1);
        }
    }
}
