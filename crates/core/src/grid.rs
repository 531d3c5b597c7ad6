//! Budget grids: the admissible-budget sets both DPs run over.
//!
//! The exact pseudo-polynomial algorithms iterate over every budget in
//! `{0, …, K}`; since the paper's budgets reach `10⁴·b_T ≈ 10⁸`, the
//! experiments (theirs and ours) use the strongly-polynomial variant of
//! §4.4: a geometric grid `{0, ⌊ε⌋, ⌊ε²⌋, …, K}`. The DPs here are written
//! against an arbitrary sorted grid, so `ε → 1` with a small `K` recovers
//! the exact algorithm (used by the tests that compare against exhaustive
//! enumeration).
//!
//! Rounding discipline: *costs round up* to the next grid point when states
//! are combined, so a DP state at grid value `g` never under-reports its
//! true (additively-estimated) cost — the returned materialization can only
//! under-fill the budget, never exceed it. This conservatism is what
//! produces the actual-vs-target budget gap of the paper's Figure 4.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use peanut_pgm::Size;

/// A sorted set of admissible budget values, always containing `0` and `K`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BudgetGrid {
    values: Vec<Size>,
}

impl BudgetGrid {
    /// The exact grid `{0, 1, …, k}` — pseudo-polynomial; use only for small
    /// `k` (tests, tiny trees).
    pub fn exact(k: Size) -> Self {
        BudgetGrid {
            values: (0..=k).collect(),
        }
    }

    /// The geometric grid `{0, 1, ⌊ε⌋, ⌊ε²⌋, …, k}` of §4.4. Requires
    /// `eps > 1`; duplicate floors are deduplicated.
    pub fn geometric(k: Size, eps: f64) -> Self {
        assert!(eps > 1.0, "geometric grid needs eps > 1");
        let mut values = vec![0u64];
        if k >= 1 {
            let mut x = 1.0f64;
            loop {
                let v = x.floor() as Size;
                if v >= k {
                    break;
                }
                #[expect(clippy::expect_used, reason = "`values` starts with 0")]
                if v > *values.last().expect("non-empty") {
                    values.push(v);
                }
                x *= eps;
                if !x.is_finite() {
                    break;
                }
            }
            values.push(k);
        }
        BudgetGrid { values }
    }

    /// Grid points, ascending.
    #[inline]
    pub fn values(&self) -> &[Size] {
        &self.values
    }

    /// Number of grid points.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Grids always contain 0.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The budget value at a grid index.
    #[inline]
    pub fn value(&self, i: usize) -> Size {
        self.values[i]
    }

    /// The maximum budget `K`.
    #[inline]
    pub fn max(&self) -> Size {
        #[expect(clippy::expect_used, reason = "every constructor pushes 0")]
        *self.values.last().expect("grid non-empty")
    }

    /// Largest index whose value is `≤ c` (round down).
    pub fn round_down(&self, c: Size) -> Option<usize> {
        match self.values.binary_search(&c) {
            Ok(i) => Some(i),
            Err(0) => None,
            Err(i) => Some(i - 1),
        }
    }

    /// Smallest index whose value is `≥ c` (round up); `None` when `c > K`.
    pub fn round_up(&self, c: Size) -> Option<usize> {
        match self.values.binary_search(&c) {
            Ok(i) => Some(i),
            Err(i) if i < self.values.len() => Some(i),
            Err(_) => None,
        }
    }

    /// Index for the combined cost of two grid points (round up), `None`
    /// when the sum exceeds `K`. Used for packing *separate* shortcut
    /// potentials, whose storage adds.
    pub fn combine(&self, i: usize, j: usize) -> Option<usize> {
        self.round_up(self.values[i].saturating_add(self.values[j]))
    }

    /// Index for the *multiplicative* combination of two grid points (round
    /// up), `None` when the product exceeds `K`. Used when merging branches
    /// of a single shortcut: table sizes are products over scope unions, so
    /// `μ(S₁∪S₂) ≤ μ(S₁)·μ(S₂)` — multiplying is the conservative
    /// composition (this is also why the paper's NP-hardness reduction maps
    /// tree-knapsack weights through `e^w`, and why the §4.4 geometric grid
    /// is the natural one: it is uniform in log space, where this
    /// combination is index addition). Zero-valued points are treated as
    /// cost 1 (no table is smaller than one entry).
    pub fn combine_mul(&self, i: usize, j: usize) -> Option<usize> {
        self.round_up(self.values[i].max(1).saturating_mul(self.values[j].max(1)))
    }

    /// [`combine`](Self::combine) (`Add`) or [`combine_mul`](Self::combine_mul)
    /// (`Mul`) of `i` with a `j` that only grows from call to call, without
    /// a search: both combinations grow with `j` and are at least
    /// `values[i]`, so their round-up index is found by a cursor that
    /// starts at `i` and only moves forward.
    pub(crate) fn combined(&self, i: usize, mode: Compose) -> Combined<'_> {
        Combined {
            values: &self.values,
            base: self.values[i],
            mode,
            at: i,
        }
    }
}

/// How branch/packing costs compose: multiplicative within a single
/// shortcut (scope unions), additive across disjoint shortcuts (storage).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Compose {
    /// Storage of separate tables adds.
    Add,
    /// Scope unions multiply table sizes.
    Mul,
}

/// The cursor of [`BudgetGrid::combined`].
pub(crate) struct Combined<'g> {
    values: &'g [Size],
    base: Size,
    mode: Compose,
    at: usize,
}

impl Combined<'_> {
    /// The grid index of the base point combined with point `j`, `None`
    /// past `K`; `j` must not be smaller than at the previous call.
    #[inline]
    pub(crate) fn with(&mut self, j: usize) -> Option<usize> {
        let want = match self.mode {
            Compose::Add => self.base.saturating_add(self.values[j]),
            Compose::Mul => self.base.max(1).saturating_mul(self.values[j].max(1)),
        };
        while self.values.get(self.at).is_some_and(|&v| v < want) {
            self.at += 1;
        }
        (self.at < self.values.len()).then_some(self.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_grid() {
        let g = BudgetGrid::exact(5);
        assert_eq!(g.values(), &[0, 1, 2, 3, 4, 5]);
        assert_eq!(g.max(), 5);
    }

    #[test]
    fn geometric_grid_shape() {
        let g = BudgetGrid::geometric(1000, 2.0);
        // {0, 1, 2, 4, 8, ..., 512, 1000}
        assert_eq!(g.values()[0], 0);
        assert_eq!(g.max(), 1000);
        for w in g.values().windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(g.len() < 15);
    }

    #[test]
    fn geometric_eps_close_to_one_is_dense_for_small_k() {
        let g = BudgetGrid::geometric(10, 1.0001);
        assert_eq!(g.values(), &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
    }

    #[test]
    fn rounding() {
        let g = BudgetGrid::geometric(100, 2.0); // 0,1,2,4,...,64,100
        assert_eq!(g.round_down(3), Some(g.round_up(2).unwrap()));
        assert_eq!(g.value(g.round_down(3).unwrap()), 2);
        assert_eq!(g.value(g.round_up(3).unwrap()), 4);
        assert_eq!(g.round_up(101), None);
        assert_eq!(g.round_down(0), Some(0));
        assert_eq!(g.round_up(0), Some(0));
    }

    #[test]
    fn combine_rounds_up_and_respects_k() {
        let g = BudgetGrid::geometric(100, 2.0);
        let i2 = g.round_up(2).unwrap();
        let i4 = g.round_up(4).unwrap();
        // 2 + 4 = 6 → rounds up to 8
        assert_eq!(g.value(g.combine(i2, i4).unwrap()), 8);
        let i64 = g.round_up(64).unwrap();
        assert_eq!(g.combine(i64, i64), None); // 128 > 100
                                               // 64 + 2 = 66 → 100
        assert_eq!(g.value(g.combine(i64, i2).unwrap()), 100);
    }

    #[test]
    fn combine_mul_rounds_up_and_respects_k() {
        let g = BudgetGrid::geometric(1000, 2.0); // 0,1,2,4,...,512,1000
        let i4 = g.round_up(4).unwrap();
        let i8 = g.round_up(8).unwrap();
        assert_eq!(g.value(g.combine_mul(i4, i8).unwrap()), 32);
        // zero treated as one
        assert_eq!(g.value(g.combine_mul(0, i8).unwrap()), 8);
        let i512 = g.round_up(512).unwrap();
        assert_eq!(g.combine_mul(i512, i4), None); // 2048 > 1000
                                                   // 512 * 1 = 512 fine
        let i1 = g.round_up(1).unwrap();
        assert_eq!(g.value(g.combine_mul(i512, i1).unwrap()), 512);
    }

    #[test]
    fn zero_budget_grid() {
        let g = BudgetGrid::geometric(0, 1.5);
        assert_eq!(g.values(), &[0]);
        let g = BudgetGrid::exact(0);
        assert_eq!(g.values(), &[0]);
    }

    /// The cursor is the binary search it replaces: for every base point,
    /// over every point in ascending order and over every third one (the DP
    /// skips infeasible points), on geometric and small exact grids.
    #[test]
    fn cursor_equals_combine_for_every_pair() {
        let mut grids: Vec<BudgetGrid> = [0, 1, 2, 5, 40].map(BudgetGrid::exact).to_vec();
        for eps in [1.2, 2.0] {
            for k in [0, 1, 2, 10_000, 100_000_000] {
                grids.push(BudgetGrid::geometric(k, eps));
            }
        }
        for g in &grids {
            for i in 0..g.len() {
                for step in [1, 3] {
                    let mut add = g.combined(i, Compose::Add);
                    let mut mul = g.combined(i, Compose::Mul);
                    for j in (0..g.len()).step_by(step) {
                        assert_eq!(add.with(j), g.combine(i, j), "{:?} + at {i}, {j}", g.max());
                        assert_eq!(
                            mul.with(j),
                            g.combine_mul(i, j),
                            "{:?} × at {i}, {j}",
                            g.max()
                        );
                    }
                }
            }
        }
    }
}
