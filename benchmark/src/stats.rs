//! Sample statistics: nearest-rank percentiles, medians, spreads.

/// Nearest-rank percentile of an ascending-sorted sample (`p` in `0..=1`);
/// 0 for an empty sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sorts a sample ascending (all values must be finite).
pub fn sort(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
}

/// Median of a sample (nearest rank); 0 for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    sort(&mut v);
    percentile_sorted(&v, 0.5)
}

/// `(max - min) / median` of a sample; 0 when the median is 0.
pub fn spread(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let med = median(xs);
    if med == 0.0 {
        return 0.0;
    }
    let (lo, hi) = xs
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    (hi - lo) / med
}

/// A latency sample summarized the way the metrics guide asks: the median
/// and the highest percentile that still has ten samples beyond it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Tail {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail value: p99 when `n >= 1000`, else the percentile named by
    /// `tail_p`.
    pub tail: f64,
    /// Which percentile `tail` is (0.99 when the sample supports it).
    pub tail_p: f64,
}

/// The tail percentile a sample of `n` supports: p99 needs a thousand
/// samples to leave ten beyond it; a smaller sample reports the highest
/// percentile that does.
fn tail_percentile(n: usize) -> f64 {
    if n >= 1000 {
        0.99
    } else if n > 10 {
        (n - 10) as f64 / n as f64
    } else {
        1.0
    }
}

impl Tail {
    /// Summarizes `xs` (sorted in place).
    pub fn of(xs: &mut [f64]) -> Tail {
        sort(xs);
        let tail_p = tail_percentile(xs.len());
        Tail {
            n: xs.len(),
            p50: percentile_sorted(xs, 0.5),
            tail: percentile_sorted(xs, tail_p),
            tail_p,
        }
    }

    /// Summarizes `(value, weight)` samples (sorted in place): a percentile
    /// is the smallest value at which the cumulative weight reaches that
    /// share of the total. A batched call is one sample weighted by the
    /// requests it carried — each of them waited for the whole call — while
    /// the percentile the sample supports is decided by the number of
    /// calls, which is the number of independent measurements.
    pub fn weighted(samples: &mut [(f64, u32)]) -> Tail {
        samples.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite sample"));
        let total: f64 = samples.iter().map(|&(_, w)| f64::from(w)).sum();
        let at = |p: f64| {
            let mut seen = 0.0;
            for &(x, w) in samples.iter() {
                seen += f64::from(w);
                if seen >= p * total {
                    return x;
                }
            }
            samples.last().map_or(0.0, |&(x, _)| x)
        };
        let tail_p = tail_percentile(samples.len());
        Tail {
            n: samples.len(),
            p50: at(0.5),
            tail: at(tail_p),
            tail_p,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&xs, 0.0), 1.0);
        assert_eq!(percentile_sorted(&xs, 0.5), 2.0);
        assert_eq!(percentile_sorted(&xs, 1.0), 4.0);
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn weighted_tail_counts_every_request_of_a_call() {
        // one single-request call and one call that carried 31 requests
        let t = Tail::weighted(&mut [(900.0, 31), (100.0, 1)]);
        assert_eq!((t.n, t.p50, t.tail), (2, 900.0, 900.0));
        // equal weights reduce to the plain nearest-rank percentiles
        let mut plain: Vec<f64> = (0..2000).map(f64::from).collect();
        let mut same: Vec<(f64, u32)> = plain.iter().map(|&x| (x, 64)).collect();
        assert_eq!(Tail::weighted(&mut same), Tail::of(&mut plain));
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread(&[9.0, 10.0, 12.0]), 0.3);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
        assert_eq!(spread(&[]), 0.0);
    }

    #[test]
    fn tail_names_the_percentile_it_can_support() {
        let mut big: Vec<f64> = (0..2000).map(f64::from).collect();
        let t = Tail::of(&mut big);
        assert_eq!((t.n, t.tail_p), (2000, 0.99));
        assert_eq!(t.tail, 1979.0);
        let mut small: Vec<f64> = (0..100).map(f64::from).collect();
        let t = Tail::of(&mut small);
        assert_eq!(t.tail_p, 0.9);
        assert_eq!(t.tail, 89.0);
    }
}
