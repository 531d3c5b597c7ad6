//! Multi-tenant traffic: interleaved per-tenant query streams with
//! skewed arrival rates and independent drift schedules.
//!
//! A fleet endpoint serves many models at once; the traffic it drains is a
//! single arrival stream where each arrival belongs to one tenant. This
//! module models that stream: every tenant has a relative arrival
//! **weight** (Zipf-skewed fleets are the interesting case — a few hot
//! tenants, a long cold tail) and its own [`DriftSchedule`] evolving over
//! *its own* arrivals, so one tenant's regime change never moves another
//! tenant's distribution.

use crate::drift::{DriftSchedule, DriftStream};
use peanut_pgm::Scope;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One tenant's traffic model inside a fleet stream.
#[derive(Clone, Debug)]
pub struct TenantTraffic {
    /// Relative arrival rate (any positive number; normalized fleet-wide).
    pub weight: f64,
    /// Primary query pool (the tenant's training distribution).
    pub primary: Vec<Scope>,
    /// Secondary pool the tenant drifts toward.
    pub secondary: Vec<Scope>,
    /// How the tenant's λ evolves over **its own** arrival count.
    pub schedule: DriftSchedule,
}

impl TenantTraffic {
    /// A tenant that never drifts: all arrivals from one pool.
    pub fn steady(weight: f64, pool: Vec<Scope>) -> Self {
        TenantTraffic {
            weight,
            secondary: pool.clone(),
            primary: pool,
            schedule: DriftSchedule::Constant(1.0),
        }
    }
}

/// Zipf-like arrival weights for `n` tenants: tenant `i` gets weight
/// `1 / (i + 1)^exponent`, normalized to sum to one. `exponent = 0` is a
/// uniform fleet; the paper-style skew of real fleets sits around 1.
pub fn zipf_weights(n: usize, exponent: f64) -> Vec<f64> {
    assert!(n > 0, "a fleet needs at least one tenant");
    assert!(exponent >= 0.0, "exponent must be non-negative");
    let raw: Vec<f64> = (0..n)
        .map(|i| 1.0 / ((i + 1) as f64).powf(exponent))
        .collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / total).collect()
}

/// A lazily drawn fleet arrival stream: each arrival picks a tenant with
/// probability proportional to its weight, then draws the next query of
/// that tenant's own [`DriftStream`] (so per-tenant drift progresses with
/// the tenant's arrivals, independently of fleet interleaving).
/// Deterministic in `seed`; unbounded, so callers `take(n)`.
pub struct TenantStream<'a> {
    streams: Vec<DriftStream<'a>>,
    cumulative: Vec<f64>,
    rng: StdRng,
}

impl<'a> TenantStream<'a> {
    /// Builds a stream over a fleet. Panics when the fleet is empty, a
    /// weight is non-positive, or a tenant's pools/schedule are invalid
    /// (see [`DriftStream::new`]).
    pub fn new(tenants: &'a [TenantTraffic], seed: u64) -> Self {
        assert!(!tenants.is_empty(), "a fleet needs at least one tenant");
        let mut cumulative = Vec::with_capacity(tenants.len());
        let mut acc = 0.0;
        for t in tenants {
            assert!(t.weight > 0.0, "tenant weights must be positive");
            acc += t.weight;
            cumulative.push(acc);
        }
        // independent per-tenant randomness: tenant i's query draws are a
        // function of (seed, i), not of how the fleet interleaves
        let streams = tenants
            .iter()
            .enumerate()
            .map(|(i, t)| {
                DriftStream::new(
                    &t.primary,
                    &t.secondary,
                    t.schedule.clone(),
                    seed ^ splitmix(i as u64),
                )
            })
            .collect();
        TenantStream {
            streams,
            cumulative,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

/// A tiny splitmix-style scramble so per-tenant seeds differ in more than
/// one bit.
fn splitmix(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Iterator for TenantStream<'_> {
    type Item = (usize, Scope);

    fn next(&mut self) -> Option<(usize, Scope)> {
        let total = *self.cumulative.last().expect("non-empty fleet");
        let x = self.rng.gen_range(0.0..total);
        let i = self.cumulative.partition_point(|&c| c <= x);
        let i = i.min(self.streams.len() - 1);
        let q = self.streams[i].next().expect("drift streams are unbounded");
        Some((i, q))
    }
}

/// Draws the first `n` arrivals of a [`TenantStream`] as
/// `(tenant index, query)` pairs.
pub fn tenant_queries(tenants: &[TenantTraffic], n: usize, seed: u64) -> Vec<(usize, Scope)> {
    TenantStream::new(tenants, seed).take(n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(lo: u32, hi: u32) -> Vec<Scope> {
        (lo..hi).map(|i| Scope::from_indices(&[i])).collect()
    }

    #[test]
    fn zipf_weights_normalize_and_skew() {
        let w = zipf_weights(4, 1.0);
        assert_eq!(w.len(), 4);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(w[0] > w[1] && w[1] > w[2] && w[2] > w[3]);
        let flat = zipf_weights(3, 0.0);
        assert!((flat[0] - flat[2]).abs() < 1e-12, "exponent 0 is uniform");
    }

    #[test]
    fn arrivals_follow_the_weights() {
        let tenants = vec![
            TenantTraffic::steady(3.0, pool(0, 4)),
            TenantTraffic::steady(1.0, pool(10, 14)),
        ];
        let arrivals = tenant_queries(&tenants, 4000, 11);
        let hot = arrivals.iter().filter(|(t, _)| *t == 0).count();
        assert!(
            (2700..3300).contains(&hot),
            "hot tenant should get ~75% of arrivals, got {hot}"
        );
        // queries route to the owning tenant's pool
        for (t, q) in &arrivals {
            let v = q.vars()[0].0;
            if *t == 0 {
                assert!(v < 4);
            } else {
                assert!((10..14).contains(&v));
            }
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let tenants = vec![
            TenantTraffic::steady(1.0, pool(0, 3)),
            TenantTraffic::steady(2.0, pool(5, 9)),
        ];
        assert_eq!(
            tenant_queries(&tenants, 200, 7),
            tenant_queries(&tenants, 200, 7)
        );
        assert_ne!(
            tenant_queries(&tenants, 200, 7),
            tenant_queries(&tenants, 200, 8)
        );
    }

    #[test]
    fn per_tenant_drift_is_independent_of_interleaving() {
        // tenant 0 steps to its secondary pool after 50 of *its own*
        // arrivals, regardless of how many tenant-1 arrivals interleave
        let tenants = vec![
            TenantTraffic {
                weight: 1.0,
                primary: pool(0, 3),
                secondary: pool(20, 23),
                schedule: DriftSchedule::Step {
                    before: 1.0,
                    after: 0.0,
                    at: 50,
                },
            },
            TenantTraffic::steady(4.0, pool(10, 13)),
        ];
        let arrivals = tenant_queries(&tenants, 2000, 3);
        let t0: Vec<&Scope> = arrivals
            .iter()
            .filter(|(t, _)| *t == 0)
            .map(|(_, q)| q)
            .collect();
        assert!(t0.len() > 100, "tenant 0 must appear: {}", t0.len());
        assert!(t0[..50].iter().all(|q| q.vars()[0].0 < 3));
        assert!(t0[50..].iter().all(|q| q.vars()[0].0 >= 20));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_panics() {
        let tenants = vec![TenantTraffic::steady(0.0, pool(0, 2))];
        TenantStream::new(&tenants, 0);
    }
}
