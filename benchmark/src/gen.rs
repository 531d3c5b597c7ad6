//! Seed → inputs. Everything the program under test receives is generated
//! here from `--seed`; the same seed gives the same inputs, and neither
//! the seed nor a workload name ever crosses into the program (the
//! networks themselves are the fixed paper datasets of `peanut-datasets`).

use peanut_junction::{JunctionTree, QueryEngine, RootedTree};
use peanut_pgm::sampling::ancestral_sample;
use peanut_pgm::{BayesianNetwork, Scope, Var};
use peanut_serving::ServeRequest;
use peanut_workload::{skewed_queries, uniform_queries, with_evidence, QuerySpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::time::Duration;

/// Derives an independent sub-seed for one named input stream, so adding a
/// stream never shifts the draws of another (FNV-1a over the tag, mixed
/// with the run seed by one splitmix64 round).
pub fn sub_seed(seed: u64, tag: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tag.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut z = seed ^ h;
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `n` scopes from the paper's skewed sampler (variable probability ∝
/// distance from the pivot).
pub fn skewed(tree: &JunctionTree, n: usize, spec: QuerySpec, seed: u64) -> Vec<Scope> {
    let rooted = RootedTree::new(tree);
    skewed_queries(tree, &rooted, n, spec, seed)
}

/// `n` **distinct** serving requests: a 70/30 skewed/uniform blend with
/// `evidence_fraction` of them evidence-conditioned, drawn in rounds until
/// `n` different ones exist. Distinctness is a property of the returned
/// inputs — the workloads that need cache and dedup to miss rely on it,
/// not on a configuration switch.
pub fn distinct_requests(
    tree: &JunctionTree,
    n: usize,
    spec: QuerySpec,
    evidence_fraction: f64,
    seed: u64,
) -> Vec<ServeRequest> {
    let rooted = RootedTree::new(tree);
    let mut seen: HashSet<ServeRequest> = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    for round in 0u64.. {
        assert!(
            round < 64,
            "query space too small for {n} distinct requests"
        );
        let want = (n - out.len()) * 2 + 64;
        let n_skewed = want * 7 / 10;
        let mut scopes = skewed_queries(
            tree,
            &rooted,
            n_skewed,
            spec,
            sub_seed(seed, "skewed").wrapping_add(round),
        );
        scopes.extend(uniform_queries(
            tree.domain(),
            want - n_skewed,
            spec,
            sub_seed(seed, "uniform").wrapping_add(round),
        ));
        let reqs = with_evidence(
            tree.domain(),
            &scopes,
            evidence_fraction,
            sub_seed(seed, "evidence").wrapping_add(round),
        );
        // interleave the two samplers deterministically so a prefix of the
        // output has the same blend as the whole
        let mut order: Vec<usize> = (0..reqs.len()).collect();
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, "order").wrapping_add(round));
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        for i in order {
            if out.len() < n && seen.insert(reqs[i].clone()) {
                out.push(reqs[i].clone());
            }
        }
        if out.len() == n {
            break;
        }
    }
    out
}

/// Deals `pool` into disjoint parts of the given sizes whose **cost
/// profiles match**: the pool is ranked by the plain-junction-tree cost of
/// each request's joint, a systematic sample of `sizes.sum()` ranks is
/// taken, and consecutive ranks go to the parts in proportion to their
/// sizes; each part is then shuffled. Request costs are heavy-tailed (on
/// HeparII the mean is twice the median), and a plain random thousand of
/// them has a mean service time — and with it every queueing figure — that
/// swings by ±10 % with the seed; a stratified thousand does not.
pub fn stratified_split(
    tree: &JunctionTree,
    pool: Vec<ServeRequest>,
    sizes: &[usize],
    seed: u64,
) -> Vec<Vec<ServeRequest>> {
    let total: usize = sizes.iter().sum();
    assert!(
        pool.len() >= total,
        "pool of {} for {total} requests",
        pool.len()
    );
    let symbolic = QueryEngine::symbolic(tree);
    let mut ranked: Vec<(u64, ServeRequest)> = pool
        .into_iter()
        .map(|r| {
            let ops = symbolic.cost(&r.stat_scope()).map_or(u64::MAX, |c| c.ops);
            (ops, r)
        })
        .collect();
    // the request itself breaks cost ties, so the ranking is total
    ranked.sort_by(|a, b| {
        a.0.cmp(&b.0)
            .then_with(|| format!("{:?}", a.1).cmp(&format!("{:?}", b.1)))
    });
    let n = ranked.len();
    let mut parts: Vec<Vec<ServeRequest>> = sizes.iter().map(|&s| Vec::with_capacity(s)).collect();
    // owed[p]: how far part p is behind its proportional share
    let mut owed = vec![0.0f64; sizes.len()];
    for j in 0..total {
        let (_, request) = &ranked[j * n / total];
        for (o, &s) in owed.iter_mut().zip(sizes) {
            *o += s as f64 / total as f64;
        }
        let p = (0..sizes.len())
            .filter(|&p| parts[p].len() < sizes[p])
            .max_by(|&a, &b| owed[a].total_cmp(&owed[b]).then(b.cmp(&a)))
            .expect("a part still has room");
        owed[p] -= 1.0;
        parts[p].push(request.clone());
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for part in &mut parts {
        for i in (1..part.len()).rev() {
            part.swap(i, rng.gen_range(0..i + 1));
        }
    }
    parts
}

/// `n` draws of an index in `0..items` with Zipf popularity: item `i` has
/// weight `1 / (i + 1)^exponent`.
pub fn zipf_draws(items: usize, exponent: f64, n: usize, seed: u64) -> Vec<u32> {
    assert!(items > 0, "zipf over an empty pool");
    let mut cumulative = Vec::with_capacity(items);
    let mut total = 0.0f64;
    for i in 0..items {
        total += 1.0 / ((i + 1) as f64).powf(exponent);
        cumulative.push(total);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let t = rng.gen_range(0.0..total);
            cumulative.partition_point(|&c| c <= t).min(items - 1) as u32
        })
        .collect()
}

/// A Poisson arrival process: `n` absolute due times with exponential
/// gaps at rate `qps`.
pub fn poisson_schedule(n: usize, qps: f64, seed: u64) -> Vec<Duration> {
    assert!(qps > 0.0, "arrival rate must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            // gen_range excludes 1.0, so the log argument stays positive
            let u: f64 = rng.gen_range(0.0..1.0);
            t += -(1.0 - u).ln() / qps;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// `n` evidence contexts of `min_vars..=max_vars` pinned variables each,
/// taken from ancestral samples of the network — so every context has
/// positive probability and no session answers the all-zero table of
/// contradictory evidence.
pub fn consistent_evidence(
    bn: &BayesianNetwork,
    n: usize,
    min_vars: usize,
    max_vars: usize,
    seed: u64,
) -> Vec<Vec<(Var, u32)>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let vars: Vec<Var> = bn.domain().all_vars().collect();
    (0..n)
        .map(|_| {
            let sample = ancestral_sample(bn, &mut rng);
            let k = rng.gen_range(min_vars..=max_vars).min(vars.len());
            let mut pool = vars.clone();
            for i in 0..k {
                let j = rng.gen_range(i..pool.len());
                pool.swap(i, j);
            }
            let mut ev: Vec<(Var, u32)> =
                pool[..k].iter().map(|&v| (v, sample[v.index()])).collect();
            ev.sort_unstable();
            ev
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_differ_by_tag_and_seed() {
        assert_eq!(sub_seed(1, "a"), sub_seed(1, "a"));
        assert_ne!(sub_seed(1, "a"), sub_seed(1, "b"));
        assert_ne!(sub_seed(1, "a"), sub_seed(2, "a"));
    }

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_range() {
        let draws = zipf_draws(16, 1.1, 20_000, 3);
        assert!(draws.iter().all(|&d| d < 16));
        let first = draws.iter().filter(|&&d| d == 0).count();
        let last = draws.iter().filter(|&&d| d == 15).count();
        assert!(first > 8 * last, "rank 0 ({first}) vs rank 15 ({last})");
        assert_eq!(draws, zipf_draws(16, 1.1, 20_000, 3));
    }

    #[test]
    fn poisson_schedule_is_sorted_with_the_asked_rate() {
        let s = poisson_schedule(10_000, 2000.0, 9);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        let rate = s.len() as f64 / s.last().unwrap().as_secs_f64();
        assert!((rate / 2000.0 - 1.0).abs() < 0.05, "rate {rate}");
    }
}
