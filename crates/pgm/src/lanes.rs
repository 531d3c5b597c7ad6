//! Elementwise `f64` lane primitives for the stride-walk kernels.
//!
//! Each helper is one plain loop over equal-length slices, left to the
//! compiler to vectorize. None ever reorders an accumulation chain — each
//! output slot sees exactly the per-element IEEE operation sequence the
//! scalar kernels used, so results are bitwise identical to the `legacy`
//! reference kernels. The differential suites assert this with
//! `f64::to_bits`.
//!
//! Division follows the Hugin convention `0 / 0 = 0` ([`hugin`]).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

/// `dst[i] = a[i] * b[i]`.
pub(crate) fn mul(dst: &mut [f64], a: &[f64], b: &[f64]) {
    debug_assert!(dst.len() == a.len() && dst.len() == b.len());
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d = x * y;
    }
}

/// `dst[i] = a[i] * s` (broadcast multiply).
pub(crate) fn mul_scalar(dst: &mut [f64], a: &[f64], s: f64) {
    debug_assert_eq!(dst.len(), a.len());
    for (d, &x) in dst.iter_mut().zip(a) {
        *d = x * s;
    }
}

/// `dst[i] *= a[i]`.
pub(crate) fn mul_assign(dst: &mut [f64], a: &[f64]) {
    debug_assert_eq!(dst.len(), a.len());
    for (d, &x) in dst.iter_mut().zip(a) {
        *d *= x;
    }
}

/// `dst[i] *= s`.
pub(crate) fn mul_assign_scalar(dst: &mut [f64], s: f64) {
    for d in dst {
        *d *= s;
    }
}

/// `dst[i] += a[i]`.
pub(crate) fn add_assign(dst: &mut [f64], a: &[f64]) {
    debug_assert_eq!(dst.len(), a.len());
    for (d, &x) in dst.iter_mut().zip(a) {
        *d += x;
    }
}

/// `dst[i] = hugin(dst[i], den[i])` where `hugin(0, 0) = 0`. In-place:
/// the divide kernel appends the numerator run (one memcpy) and divides in
/// the slab, instead of zero-filling a buffer it would fully overwrite.
/// That zero-fill is measured: the indexed-write form over a recycled
/// buffer cost `direct_large` 13 % throughput (ROADMAP, "Closed").
pub(crate) fn div_assign(dst: &mut [f64], den: &[f64]) {
    debug_assert_eq!(dst.len(), den.len());
    for (q, &d) in dst.iter_mut().zip(den) {
        *q = hugin(*q, d);
    }
}

/// The scalar Hugin division: `0 / 0 = 0`, anything else is IEEE.
#[inline(always)]
pub(crate) fn hugin(n: f64, d: f64) -> f64 {
    if d == 0.0 && n == 0.0 {
        0.0
    } else {
        n / d
    }
}

/// Strictly sequential sum of a run — the same fold `iter().sum()` performs.
/// Never unrolled: reassociating a single accumulation chain changes bits.
#[inline]
pub(crate) fn seq_sum(run: &[f64]) -> f64 {
    run.iter().sum()
}

/// Adds `N` consecutive equal-length runs of `block` onto `N` independent
/// accumulators: `out[k] = acc[k] + Σ_j block[k·run_len + j]`, each chain
/// strictly sequential in `j` (and free to go on in a later call).
///
/// This is the marginalization fast path: when consecutive source runs feed
/// consecutive target slots, the runs are processed in lock-step, which
/// breaks the floating-point add latency chain (`N` independent chains in
/// flight) *without* reordering any single chain — each output slot still
/// accumulates in exactly the legacy order, so the result is bit-identical.
pub(crate) fn sum_runs<const N: usize>(
    mut acc: [f64; N],
    block: &[f64],
    run_len: usize,
) -> [f64; N] {
    debug_assert_eq!(block.len(), N * run_len);
    let runs: [&[f64]; N] = std::array::from_fn(|k| &block[k * run_len..(k + 1) * run_len]);
    for j in 0..run_len {
        for (sum, run) in acc.iter_mut().zip(runs) {
            *sum += run[j];
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, salt: u64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let x = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt;
                ((x >> 11) as f64 / (1u64 << 53) as f64) + 0.001
            })
            .collect()
    }

    #[test]
    fn mul_matches_scalar_including_tails() {
        for n in [0, 1, 3, 4, 5, 8, 13] {
            let a = seq(n, 1);
            let b = seq(n, 2);
            let mut dst = vec![0.0; n];
            mul(&mut dst, &a, &b);
            for i in 0..n {
                assert_eq!(dst[i].to_bits(), (a[i] * b[i]).to_bits());
            }
        }
    }

    #[test]
    fn mul_scalar_and_assign_match() {
        for n in [1, 4, 7, 16, 21] {
            let a = seq(n, 3);
            let s = 1.7;
            let mut d1 = vec![0.0; n];
            mul_scalar(&mut d1, &a, s);
            let mut d2 = a.clone();
            mul_assign_scalar(&mut d2, s);
            let mut d3 = vec![1.0; n];
            mul_assign(&mut d3, &a);
            for i in 0..n {
                assert_eq!(d1[i].to_bits(), (a[i] * s).to_bits());
                assert_eq!(d2[i].to_bits(), (a[i] * s).to_bits());
                assert_eq!(d3[i].to_bits(), (1.0f64 * a[i]).to_bits());
            }
        }
    }

    #[test]
    fn add_assign_matches_scalar() {
        for n in [2, 4, 6, 11] {
            let a = seq(n, 4);
            let b = seq(n, 5);
            let mut dst = b.clone();
            add_assign(&mut dst, &a);
            for i in 0..n {
                assert_eq!(dst[i].to_bits(), (b[i] + a[i]).to_bits());
            }
        }
    }

    #[test]
    fn div_zero_cells_follow_hugin_convention() {
        // one full 4-block plus a tail, with 0/0, x/0, 0/x, -0.0/0.0 cells
        let num = [0.0, 2.0, 0.0, 5.0, -0.0, 3.0, 0.0];
        let den = [0.0, 0.0, 4.0, 2.5, 0.0, 3.0, 0.0];
        let mut dst = num;
        div_assign(&mut dst, &den);
        assert_eq!(dst[0].to_bits(), 0.0f64.to_bits()); // 0/0 -> +0.0
        assert!(dst[1].is_infinite()); // x/0 surfaces as inf (modelling error)
        assert_eq!(dst[2], 0.0);
        assert_eq!(dst[3], 2.0);
        assert_eq!(dst[4].to_bits(), 0.0f64.to_bits()); // -0.0/0.0 -> +0.0
        assert_eq!(dst[5], 1.0);
        assert_eq!(dst[6].to_bits(), 0.0f64.to_bits()); // 0/0 in the tail
                                                        // broadcast (scalar) denominators go through `hugin` directly:
                                                        // zero and negative-zero denominators are both the 0/0 case
        assert_eq!(hugin(0.0, 0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(hugin(-0.0, 0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(hugin(0.0, -0.0).to_bits(), 0.0f64.to_bits());
        assert!(hugin(2.0, 0.0).is_infinite());
        assert!(hugin(2.0, -0.0).is_infinite());
    }

    #[test]
    fn sum_4_runs_is_bitwise_sequential_per_lane() {
        for run_len in [1, 2, 3, 5, 9] {
            let block = seq(4 * run_len, 6);
            let got = sum_runs([0.0; 4], &block, run_len);
            // three chains carried over from a first call
            let carried = sum_runs([got[1], got[2], got[3]], &block[..3 * run_len], run_len);
            for k in 0..4 {
                let run = &block[k * run_len..(k + 1) * run_len];
                let want: f64 = run.iter().sum();
                assert_eq!(got[k].to_bits(), want.to_bits(), "lane {k}");
                if k < 3 {
                    let want = run.iter().fold(got[k + 1], |a, &v| a + v);
                    assert_eq!(carried[k].to_bits(), want.to_bits(), "carried lane {k}");
                }
            }
        }
    }

    #[test]
    fn seq_sum_matches_iter_sum() {
        let xs = seq(17, 7);
        assert_eq!(seq_sum(&xs).to_bits(), xs.iter().sum::<f64>().to_bits());
    }
}
