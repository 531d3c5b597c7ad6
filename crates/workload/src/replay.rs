//! What a replay is fed: a finite request pool sampled with replacement
//! ([`workload_queries`]) and open-loop arrival schedules
//! ([`poisson_arrivals`]) — the inputs of `peanut-serving`'s replay
//! drivers.

use crate::evidence::with_evidence;
use crate::gen::{skewed_queries, uniform_queries, QuerySpec};
use peanut_core::ServeRequest;
use peanut_junction::{JunctionTree, RootedTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// A Poisson arrival process: `n` absolute arrival offsets with
/// exponential inter-arrival times at rate `qps`, deterministic in
/// `seed`. The canonical open-loop schedule — offered load is `qps`
/// regardless of how fast the engine drains.
pub fn poisson_arrivals(n: usize, qps: f64, seed: u64) -> Vec<Duration> {
    assert!(qps > 0.0, "arrival rate must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            // inverse-CDF exponential; gen_range(0.0..1.0) excludes 1.0,
            // so the log argument stays positive
            let u: f64 = rng.gen_range(0.0..1.0);
            t += -(1.0 - u).ln() / qps;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// Shape of a sampled serving workload (see [`workload_queries`]).
#[derive(Clone, Copy, Debug)]
pub struct WorkloadMix {
    /// Per-query variable-count spec.
    pub spec: QuerySpec,
    /// Fraction of the pool drawn from the paper's skewed sampler (the
    /// rest is uniform).
    pub skew_fraction: f64,
    /// Fraction of pool queries turned into evidence-conditioned ones.
    pub evidence_fraction: f64,
    /// Number of distinct queries in the pool.
    pub pool_size: usize,
}

impl Default for WorkloadMix {
    fn default() -> Self {
        WorkloadMix {
            spec: QuerySpec::default(),
            skew_fraction: 0.7,
            evidence_fraction: 0.25,
            pool_size: 64,
        }
    }
}

/// Samples a serving workload following the paper's workload model
/// (Def. 3.3: a distribution over a *finite* query pool): draws up to
/// `mix.pool_size` **distinct** requests (duplicate generator draws are
/// removed) — a skewed/uniform blend with a fraction turned into
/// evidence-conditioned requests — then samples `n` arrivals from the
/// pool with replacement. Repeated arrivals are what batch coalescing and
/// the answer cache exploit. Deterministic in `seed`.
pub fn workload_queries(
    tree: &JunctionTree,
    rooted: &RootedTree,
    n: usize,
    mix: &WorkloadMix,
    seed: u64,
) -> Vec<ServeRequest> {
    assert!(
        (0.0..=1.0).contains(&mix.skew_fraction),
        "fraction in [0, 1]"
    );
    let pool_size = mix.pool_size.clamp(1, n.max(1));
    let n_skewed = (pool_size as f64 * mix.skew_fraction).round() as usize;
    let mut scopes = skewed_queries(tree, rooted, n_skewed, mix.spec, seed);
    scopes.extend(uniform_queries(
        tree.domain(),
        pool_size - n_skewed.min(pool_size),
        mix.spec,
        seed ^ 0x5eed,
    ));
    let mut seen = std::collections::HashSet::new();
    let pool: Vec<ServeRequest> =
        with_evidence(tree.domain(), &scopes, mix.evidence_fraction, seed ^ 0xe71d)
            .into_iter()
            .filter(|q| seen.insert(q.clone()))
            .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xa881);
    (0..n)
        .map(|_| pool[rng.gen_range(0..pool.len())].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use peanut_junction::build_junction_tree;
    use peanut_pgm::fixtures;

    #[test]
    fn workload_queries_deterministic() {
        let bn = fixtures::chain(12, 2, 3);
        let tree = build_junction_tree(&bn).unwrap();
        let rooted = RootedTree::new(&tree);
        let mix = WorkloadMix {
            evidence_fraction: 0.4,
            pool_size: 16,
            ..WorkloadMix::default()
        };
        let a = workload_queries(&tree, &rooted, 50, &mix, 5);
        let b = workload_queries(&tree, &rooted, 50, &mix, 5);
        assert_eq!(a, b);
    }
}
