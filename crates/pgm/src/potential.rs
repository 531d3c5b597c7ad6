//! Dense factor tables over discrete variables.
//!
//! A [`Potential`] maps every configuration of its [`Scope`] to a
//! non-negative real. The junction-tree algorithm is, at its heart, a
//! sequence of potential products, marginalizations and divisions; this
//! module implements those with one kind of *stride walk*: the walked
//! table's axes, innermost first, as rows `[card, step in operand 0, …]`,
//! where an axis on which every operand's step carries on from the row
//! inside it (outer step = inner step × inner card) is folded into that
//! row. Every kernel then runs a tight contiguous (or broadcast) loop
//! along the first row and steps an odometer (`odometer_step`) over
//! the rest — no per-entry index recomputation, no hashing, no per-entry
//! function calls. One routine builds every walk's rows (`push_axis`).
//!
//! The kernels operate on *views* ([`TableRef`]: a scope, cardinalities and
//! a value slice) rather than owned tables, so the same code runs over a
//! `Potential`'s own buffer or over a span of a contiguous arena slab (the
//! flat junction-tree layout in `peanut-junction`). The in-place entry
//! points [`product_onto`], [`mul_assign_bcast`] and [`div_assign_bcast`]
//! take a `&mut [f64]` destination directly and share one run loop
//! (`bcast_runs`); a product is a copy of its first factor with each later
//! one multiplied in, an owned product `product_onto` into a pooled buffer,
//! an owned quotient a copy divided in place. Every inner run is unit-stride
//! or broadcast (`Scratch::plan_walk`) and executes as an elementwise slice
//! loop of `crate::lanes`, bit-identical to the scalar walk. Query-time
//! message passing uses none of the three-step product → divide →
//! marginalize sequence: [`product_marginalize_views`] sums a product onto
//! its target without storing it, bit-identical to the two kernels it
//! replaces.
//!
//! Every kernel also comes in an `_in` variant taking a [`Scratch`]: a
//! caller-owned bundle of the walk's rows, odometer state and recycled
//! value buffers. Serving workers and calibration passes thread one
//! `Scratch` through thousands of factor operations: once it is warm a
//! kernel allocates nothing but its result's own scope and cardinalities.
//! The plain methods delegate to the `_in` forms with a fresh (empty,
//! allocation-free) scratch.
//!
//! Alongside the dense representation, [`table_size`] computes the *symbolic*
//! size of a table over a scope. The paper's cost model (§5.1) and its
//! handling of datasets whose calibration is infeasible (TPC-H, Munin,
//! Barley) only ever need sizes, so everything above this layer can run in a
//! size-only mode that never allocates tables.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use crate::domain::Domain;
use crate::error::PgmError;
use crate::lanes;
use crate::scope::Scope;
use crate::var::Var;
use crate::Result;

/// Symbolic table size (number of entries); saturates at `u64::MAX`.
pub type Size = u64;

/// Number of entries of a table over `scope`, saturating on overflow.
pub fn table_size(scope: &Scope, domain: &Domain) -> Size {
    scope
        .iter()
        .fold(1u64, |acc, v| acc.saturating_mul(domain.card(v) as u64))
}

/// Hard cap on dense materialization: tables beyond this must use the
/// size-only pipeline (mirrors the paper running TPC-H/Munin/Barley
/// uncalibrated).
pub const MAX_DENSE_ENTRIES: u64 = 1 << 26;

/// A dense non-negative real-valued table over the configurations of a
/// sorted variable scope.
///
/// Values are stored row-major with the *last* scope variable varying
/// fastest. The potential is self-contained: it carries the cardinalities of
/// its scope so factor algebra never needs the [`Domain`].
#[derive(Clone, Debug, PartialEq)]
pub struct Potential {
    scope: Scope,
    cards: Vec<u32>,
    values: Vec<f64>,
}

impl Potential {
    /// Builds a potential from explicit values.
    ///
    /// `cards` must align with the scope's sorted variable order and the
    /// value vector length must equal the product of cardinalities.
    pub fn new(scope: Scope, cards: Vec<u32>, values: Vec<f64>) -> Result<Self> {
        if cards.len() != scope.len() {
            return Err(PgmError::BadCptScope {
                var: scope.vars().first().copied().unwrap_or(Var(0)),
            });
        }
        let expected = checked_len(&cards)?;
        if values.len() as u64 != expected {
            return Err(PgmError::TableTooLarge {
                entries: values.len() as u64,
                limit: expected,
            });
        }
        Ok(Potential {
            scope,
            cards,
            values,
        })
    }

    /// Builds a potential over `scope`, reading cardinalities from `domain`,
    /// filled with `fill`.
    pub fn filled(scope: Scope, domain: &Domain, fill: f64) -> Result<Self> {
        let cards = domain.cards_of(&scope);
        let n = checked_len(&cards)?;
        Ok(Potential {
            scope,
            cards,
            values: vec![fill; n as usize],
        })
    }

    /// All-ones potential (multiplicative identity over its scope).
    pub fn ones(scope: Scope, domain: &Domain) -> Result<Self> {
        Self::filled(scope, domain, 1.0)
    }

    /// All-zeros potential (additive identity over its scope).
    pub fn zeros(scope: Scope, domain: &Domain) -> Result<Self> {
        Self::filled(scope, domain, 0.0)
    }

    /// The scalar potential (empty scope) holding `value`.
    pub fn scalar(value: f64) -> Self {
        Potential {
            scope: Scope::empty(),
            cards: Vec::new(),
            values: vec![value],
        }
    }

    /// The potential's scope.
    #[inline]
    pub fn scope(&self) -> &Scope {
        &self.scope
    }

    /// Cardinalities aligned with the scope order.
    #[inline]
    pub fn cards(&self) -> &[u32] {
        &self.cards
    }

    /// Raw values, row-major, last scope variable fastest.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable raw values.
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Scope, cardinalities and mutable values, for the in-place kernels.
    #[inline]
    pub fn parts_mut(&mut self) -> (&Scope, &[u32], &mut [f64]) {
        (&self.scope, &self.cards, &mut self.values)
    }

    /// A borrowed view of this table (the form the kernels operate on).
    #[inline]
    pub fn view(&self) -> TableRef<'_> {
        TableRef {
            scope: &self.scope,
            cards: &self.cards,
            values: &self.values,
        }
    }

    /// Number of table entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True for the (impossible) zero-entry table; kept for lint symmetry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Cardinality of a scope variable.
    pub fn card_of(&self, v: Var) -> Option<u32> {
        self.scope.position(v).map(|p| self.cards[p])
    }

    /// Row-major strides aligned with the scope order.
    pub fn strides(&self) -> Vec<u64> {
        strides_of(&self.cards)
    }

    /// Linear index of a full assignment (aligned with the scope order).
    pub fn index_of(&self, assignment: &[u32]) -> usize {
        debug_assert_eq!(assignment.len(), self.cards.len());
        let strides = self.strides();
        assignment
            .iter()
            .zip(&strides)
            .map(|(&a, &s)| a as u64 * s)
            .sum::<u64>() as usize
    }

    /// The assignment encoded by a linear index.
    pub fn assignment_of(&self, mut idx: usize) -> Vec<u32> {
        let mut out = vec![0u32; self.cards.len()];
        for (k, &c) in self.cards.iter().enumerate().rev() {
            out[k] = (idx % c as usize) as u32;
            idx /= c as usize;
        }
        out
    }

    /// Value at a full assignment.
    pub fn get(&self, assignment: &[u32]) -> f64 {
        self.values[self.index_of(assignment)]
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Scales all entries so they sum to one and returns the sum it
    /// divided by. No-op on an all-zero table (the returned sum is 0). A
    /// sum so small that its inverse overflows (a subnormal) divides each
    /// entry instead of multiplying by the inverse.
    pub fn normalize(&mut self) -> f64 {
        let s = self.sum();
        if s > 0.0 {
            let inv = 1.0 / s;
            if inv.is_finite() {
                for v in &mut self.values {
                    *v *= inv;
                }
            } else {
                for v in &mut self.values {
                    *v /= s;
                }
            }
        }
        s
    }

    /// Pointwise product of any number of factors.
    ///
    /// The result scope is the union of all input scopes; shared variables
    /// must agree on cardinality. With an empty input list this is the scalar
    /// `1`.
    pub fn product_many(factors: &[&Potential]) -> Result<Potential> {
        Self::product_many_in(factors, &mut Scratch::new())
    }

    /// [`product_many`](Self::product_many) with caller-provided scratch
    /// buffers (odometer state + recycled value storage).
    pub fn product_many_in(factors: &[&Potential], scratch: &mut Scratch) -> Result<Potential> {
        let views: Vec<TableRef<'_>> = factors.iter().map(|f| f.view()).collect();
        let (scope, cards, total) = product_axes(&views)?;
        let mut values = scratch.take_buf(total);
        product_onto(&scope, &cards, &mut values, &views, scratch)?;
        Ok(Potential {
            scope,
            cards,
            values,
        })
    }

    /// Pointwise product with another factor.
    pub fn product(&self, other: &Potential) -> Result<Potential> {
        Potential::product_many(&[self, other])
    }

    /// [`product`](Self::product) with caller-provided scratch.
    pub fn product_in(&self, other: &Potential, scratch: &mut Scratch) -> Result<Potential> {
        Potential::product_many_in(&[self, other], scratch)
    }

    /// Marginalizes (sums) the potential onto `keep ∩ scope`.
    pub fn marginalize(&self, keep: &Scope) -> Result<Potential> {
        self.marginalize_in(keep, &mut Scratch::new())
    }

    /// [`marginalize`](Self::marginalize) with caller-provided scratch.
    ///
    /// Walks the *source* table in row-major order (contiguous reads) while
    /// tracking the target offset through the stride walk; runs whose target
    /// step is 0 collapse into a register accumulation, runs whose target
    /// step is 1 become a contiguous add.
    pub fn marginalize_in(&self, keep: &Scope, scratch: &mut Scratch) -> Result<Potential> {
        self.view().marginalize_in(keep, scratch)
    }

    /// Sums out the given variables: `marginalize(scope \ vars)`.
    pub fn sum_out(&self, vars: &Scope) -> Result<Potential> {
        self.marginalize(&self.scope.minus(vars))
    }

    /// Pointwise division by a factor whose scope is contained in `self`'s,
    /// with the Hugin convention `0 / 0 = 0`.
    pub fn divide(&self, other: &Potential) -> Result<Potential> {
        self.divide_in(other, &mut Scratch::new())
    }

    /// [`divide`](Self::divide) with caller-provided scratch.
    pub fn divide_in(&self, other: &Potential, scratch: &mut Scratch) -> Result<Potential> {
        divide_views(self.view(), other.view(), scratch)
    }

    /// Fixes `var = value`, dropping the variable from the scope (evidence
    /// restriction).
    pub fn restrict(&self, var: Var, value: u32) -> Result<Potential> {
        self.restrict_in(var, value, &mut Scratch::new())
    }

    /// [`restrict`](Self::restrict) with caller-provided scratch.
    pub fn restrict_in(&self, var: Var, value: u32, scratch: &mut Scratch) -> Result<Potential> {
        restrict_view(self.view(), var, value, scratch)
    }

    /// Largest absolute difference between two same-scope potentials; NaN
    /// when either holds a NaN entry.
    pub fn max_abs_diff(&self, other: &Potential) -> Result<f64> {
        if self.scope != other.scope {
            return Err(PgmError::ScopeNotContained {
                sub: other.scope.to_string(),
                sup: self.scope.to_string(),
            });
        }
        // `f64::max` would drop a NaN difference; here it wins and stays
        Ok(self
            .values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a - b).abs())
            .fold(
                0.0,
                |worst, d| if d > worst || d.is_nan() { d } else { worst },
            ))
    }
}

/// A borrowed dense table: a scope, its cardinalities and a row-major value
/// slice. This is what the kernels actually consume, so the same code path
/// serves owned [`Potential`]s and spans of a contiguous arena slab (the
/// flat junction-tree layout).
#[derive(Clone, Copy, Debug)]
pub struct TableRef<'a> {
    scope: &'a Scope,
    cards: &'a [u32],
    values: &'a [f64],
}

impl<'a> TableRef<'a> {
    /// Wraps borrowed parts as a table view. `cards` must align with the
    /// scope order and `values.len()` must equal the product of `cards`.
    pub fn new(scope: &'a Scope, cards: &'a [u32], values: &'a [f64]) -> Self {
        debug_assert_eq!(cards.len(), scope.len());
        debug_assert_eq!(
            values.len() as u64,
            cards.iter().fold(1u64, |n, &c| n * c as u64)
        );
        TableRef {
            scope,
            cards,
            values,
        }
    }

    /// The view's scope.
    #[inline]
    pub fn scope(&self) -> &'a Scope {
        self.scope
    }

    /// Cardinalities aligned with the scope order.
    #[inline]
    pub fn cards(&self) -> &'a [u32] {
        self.cards
    }

    /// Raw values, row-major, last scope variable fastest.
    #[inline]
    pub fn values(&self) -> &'a [f64] {
        self.values
    }

    /// Number of table entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True for a zero-entry view.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Cardinality of a scope variable.
    pub fn card_of(&self, v: Var) -> Option<u32> {
        self.scope.position(v).map(|p| self.cards[p])
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Copies the view into an owned [`Potential`].
    pub fn to_potential(&self) -> Potential {
        Potential {
            scope: self.scope.clone(),
            cards: self.cards.to_vec(),
            values: self.values.to_vec(),
        }
    }

    /// Marginalizes (sums) the view onto `keep ∩ scope`.
    ///
    /// Source runs whose target step is 0 and whose consecutive runs feed
    /// consecutive target slots are processed four runs at a time with four
    /// independent accumulator chains (`lanes::sum_runs`) — same bits,
    /// no cross-run add latency chain.
    pub fn marginalize_in(&self, keep: &Scope, scratch: &mut Scratch) -> Result<Potential> {
        let target_scope = self.scope.intersect(keep);
        let mut t_cards = Vec::with_capacity(target_scope.len());
        cards_within(&target_scope, self.scope, self.cards, &mut t_cards);
        let total = checked_len(&t_cards)?;
        // the source in row-major order; the one operand is the target
        scratch.plan_walk(self.scope, self.cards, &[(&target_scope, &t_cards[..])])?;
        let mut values = scratch.take_buf(total as usize);
        let src = self.values;
        let (inner, st) = (scratch.rows[0] as usize, scratch.rows[1]);
        if st == 0 && scratch.rows.get(3) == Some(&1) {
            // Fast path: the row outside the inner run advances the target
            // by 1, so its sweep maps consecutive source runs to
            // consecutive target slots — sum four runs in lock-step.
            let sweep = scratch.rows[2] as usize * inner;
            scratch.walk(2, |pos, bases| {
                let mut t = bases[0] as usize;
                let mut quads = src[pos..pos + sweep].chunks_exact(4 * inner);
                for quad in &mut quads {
                    let sums = lanes::sum_runs([0.0; 4], quad, inner);
                    for (slot, sum) in values[t..t + 4].iter_mut().zip(sums) {
                        *slot += sum;
                    }
                    t += 4;
                }
                for run in quads.remainder().chunks_exact(inner) {
                    values[t] += lanes::seq_sum(run);
                    t += 1;
                }
            });
        } else {
            scratch.walk(1, |pos, bases| {
                let (run, t) = (&src[pos..pos + inner], bases[0] as usize);
                if st == 0 {
                    values[t] += lanes::seq_sum(run);
                } else {
                    lanes::add_assign(&mut values[t..t + inner], run);
                }
            });
        }
        Ok(Potential {
            scope: target_scope,
            cards: t_cards,
            values,
        })
    }
}

/// Writes the pointwise product of `factors` into `dst`, a row-major table
/// over (`scope`, `cards`). Every factor scope must be contained in `scope`
/// and agree with `cards` on shared variables. `dst.len()` must equal the
/// product of `cards`. With no factors, `dst` is filled with ones.
///
/// This is the slab entry point: arena calibration multiplies CPTs directly
/// into a clique's span with no intermediate allocation.
pub fn product_onto(
    scope: &Scope,
    cards: &[u32],
    dst: &mut [f64],
    factors: &[TableRef<'_>],
    scratch: &mut Scratch,
) -> Result<()> {
    debug_assert_eq!(
        dst.len() as u64,
        cards.iter().fold(1u64, |n, &c| n * c as u64)
    );
    let Some((first, rest)) = factors.split_first() else {
        dst.fill(1.0);
        return Ok(());
    };
    // copy the first factor, then one multiply-assign pass per later
    // factor: each entry sees the same left-to-right product chain the
    // per-entry walk computed
    bcast_runs(
        scope,
        cards,
        dst,
        *first,
        scratch,
        <[f64]>::fill,
        <[f64]>::copy_from_slice,
    )?;
    for f in rest {
        mul_assign_bcast(scope, cards, dst, *f, scratch)?;
    }
    Ok(())
}

/// Multiplies view `f` into `dst` pointwise over (`scope`, `cards`):
/// `dst[i] *= f[project(i)]`. The in-place form arena calibration uses for
/// the Hugin absorption `ψ_to *= m / φ_e` — the clique span is updated in
/// the slab, no replacement table is allocated.
pub fn mul_assign_bcast(
    scope: &Scope,
    cards: &[u32],
    dst: &mut [f64],
    f: TableRef<'_>,
    scratch: &mut Scratch,
) -> Result<()> {
    bcast_runs(
        scope,
        cards,
        dst,
        f,
        scratch,
        lanes::mul_assign_scalar,
        lanes::mul_assign,
    )
}

/// Divides `dst` pointwise by view `den` over (`scope`, `cards`), with the
/// Hugin convention `0 / 0 = 0`: `dst[i] /= den[project(i)]`. The in-place
/// form message passing uses to divide a message by its parent separator
/// in the message's own buffer.
pub fn div_assign_bcast(
    scope: &Scope,
    cards: &[u32],
    dst: &mut [f64],
    den: TableRef<'_>,
    scratch: &mut Scratch,
) -> Result<()> {
    let scalar = |run: &mut [f64], d: f64| {
        if d == 0.0 {
            // rare: a zero (or negative-zero) broadcast denominator needs
            // the Hugin 0/0 guard on every cell
            run.iter_mut().for_each(|q| *q = lanes::hugin(*q, d));
        } else {
            // hoisting the d == 0.0 test off the hot path leaves a pure
            // division stream (bitwise: hugin(v, d) = v / d whenever d != 0)
            run.iter_mut().for_each(|q| *q /= d);
        }
    };
    bcast_runs(scope, cards, dst, den, scratch, scalar, lanes::div_assign)
}

/// The one run loop of the elementwise kernels: walks `dst`, a table over
/// (`scope`, `cards`), inner run by inner run against view `f`, whose
/// scope `scope` contains. A run over which `f` holds still (inner step 0)
/// goes to `scalar` with that one entry; one that reads an equal-length
/// run of `f` (inner step 1) goes to `zip`. Those are the only two shapes
/// [`Scratch::plan_walk`] plans for a contained operand.
fn bcast_runs(
    scope: &Scope,
    cards: &[u32],
    dst: &mut [f64],
    f: TableRef<'_>,
    scratch: &mut Scratch,
    scalar: impl Fn(&mut [f64], f64),
    zip: impl Fn(&mut [f64], &[f64]),
) -> Result<()> {
    scratch.plan_walk(scope, cards, &[(f.scope, f.cards)])?;
    let (a, len, step) = (f.values, scratch.rows[0] as usize, scratch.rows[1]);
    scratch.walk(1, |pos, bases| {
        let (out, o) = (&mut dst[pos..pos + len], bases[0] as usize);
        if step == 0 {
            scalar(out, a[o]);
        } else {
            zip(out, &a[o..o + len]);
        }
    });
    Ok(())
}

/// Pointwise division `num / den` with the Hugin convention `0 / 0 = 0`;
/// `den`'s scope must be contained in `num`'s: a copy of `num` divided by
/// [`div_assign_bcast`].
pub fn divide_views(
    num: TableRef<'_>,
    den: TableRef<'_>,
    scratch: &mut Scratch,
) -> Result<Potential> {
    let mut values = scratch.take_buf_empty(num.values.len());
    values.extend_from_slice(num.values);
    div_assign_bcast(num.scope, num.cards, &mut values, den, scratch)?;
    Ok(Potential {
        scope: num.scope.clone(),
        cards: num.cards.to_vec(),
        values,
    })
}

/// The product of `factors` marginalized onto `keep`, in one pass: **bit
/// for bit** what [`Potential::product_many`] followed by
/// [`TableRef::marginalize_in`] returns, without the product table.
///
/// The product is never stored, so the order it is visited in is free as
/// long as every result slot sees its additions in the two-pass order: a
/// trailing stretch of summed-out axes as one chain, summed from zero and
/// added to the slot's total once per stretch (what the marginalization's
/// coalesced walk does), anything else entry by entry. Entries are the
/// factors' multiplied left to right, as the product kernel does. Two
/// walks keep that order, and one predicate of the product's axes
/// (`short_runs`) picks between them:
///
/// * **The short-run walk** takes a product of 2 or 3 factors, at most
///   2¹⁶ entries, whose innermost iterating axis has fewer than 16
///   values: the small messages of networks with cards of 2–4, where no
///   run is long enough to pay for a loop's set-up. It walks the product
///   in its own row-major order, through a table of each factor's and the
///   result's offsets over an inner block of at most 64 entries, laid out
///   once per call (`ShortWalk`).
/// * **The run kernel** takes every other shape. It goes by result slot:
///   for a block of neighbouring slots it walks the summed-out axes in
///   row-major order, computes products a run at a time and carries the
///   block's chains side by side, each sequential (`FusedPlan`). On
///   long runs its loops vectorize and the walk's gathers do not: timed
///   alone on products whose innermost axis has 110 values (TPC-H's
///   widest), the walk took 1.6–2.4 ns/entry where the run kernel took
///   0.8–1.2. Hence the innermost axis's card in the rule.
///
/// The product's size is still checked: a query whose product exceeds the
/// dense limit fails with the same `TableTooLarge`.
pub fn product_marginalize_views(
    factors: &[TableRef<'_>],
    keep: &Scope,
    scratch: &mut Scratch,
) -> Result<Potential> {
    match factors {
        [] => return Ok(Potential::scalar(1.0)),
        [f] => return f.marginalize_in(keep, scratch),
        _ => {}
    }
    // the product is never built, but one over the dense limit is refused;
    // its scope and cardinalities live in the scratch, and the result's
    // are a recycled result's allocations
    let (mut target_scope, mut t_cards) = scratch.take_axes();
    let Scratch {
        axes: scope,
        axis_cards: cards,
        ..
    } = scratch;
    let entries = product_axes_into(factors, scope, cards)?;
    target_scope.assign_intersection(scope, keep);
    cards_within(&target_scope, scope, cards, &mut t_cards);
    let total = checked_len(&t_cards)? as usize;
    if short_runs(factors.len(), entries, cards) {
        let mut values = scratch.take_buf(total);
        let Scratch {
            rows,
            cursors,
            digits,
            bases,
            axes: scope,
            axis_cards: cards,
            short_walked,
            ..
        } = scratch;
        let target = (&target_scope, &t_cards[..]);
        let walk = ShortWalk::new(
            (scope, cards),
            target,
            factors,
            rows,
            cursors,
            digits,
            bases,
        );
        let fs = |i: usize| factors[i].values;
        match factors.len() {
            2 => walk.sweep([fs(0), fs(1)], &mut values, rows, digits, bases),
            _ => walk.sweep([fs(0), fs(1), fs(2)], &mut values, rows, digits, bases),
        }
        *short_walked += entries as Size;
        return Ok(Potential {
            scope: target_scope,
            cards: t_cards,
            values,
        });
    }
    let mut values = scratch.take_buf_empty(total);

    let Scratch {
        cursors,
        digits,
        bases,
        work,
        fused: plan,
        axes: scope,
        axis_cards: cards,
        ..
    } = scratch;
    plan.build(scope, cards, &target_scope, factors, cursors);
    let (k, w) = (factors.len(), plan.width);
    digits.clear();
    digits.resize(plan.n_axes(), 0);
    bases.clear();
    bases.resize(2 * k, 0);
    let runs = 4 * RUN_CHUNK.min(plan.group[0] as usize);
    work.resize(2 * plan.block + plan.block.max(runs), 0.0);
    let (k_digits, digits) = digits.split_at_mut(plan.kept.len() / w - 1);
    let (k_bases, bases) = bases.split_at_mut(k);
    let mut at = 0; // along the innermost kept axis
    let mut more = true;
    while more {
        let n = plan.next_block(&mut at, &mut more, k_digits, k_bases);
        let (totals, rest) = work.split_at_mut(n);
        plan.sum_slots(factors, totals, rest, digits, bases);
        // onto +0.0, as the two-pass form adds onto its zeroed table
        values.extend(totals.iter().map(|&sum| 0.0 + sum));
    }
    debug_assert_eq!(values.len(), total);
    Ok(Potential {
        scope: target_scope,
        cards: t_cards,
        values,
    })
}

/// Result slots [`product_marginalize_views`] sums side by side at most.
const WIDE_LANES: usize = 128;

/// Entries of a product run it computes at a time along a summed-out run:
/// four lock-step runs of this length are 16 KiB, so the only part of the
/// product that ever exists sits in L1.
const RUN_CHUNK: usize = 512;

/// A run this long pays for the set-up of the loop over it.
const LONG_RUN: u64 = 16;

/// Entries of a product the short-run walk takes at most.
const SHORT_PRODUCT: usize = 1 << 16;

/// Entries of the short-run walk's inner block at most.
const SHORT_BLOCK: u64 = 64;

/// Words per entry of the short-run walk's table, and the result's.
const TABLE_WIDTH: usize = 4;
const TABLE_LAST: usize = TABLE_WIDTH - 1;

/// Whether [`product_marginalize_views`] sends the product of `k` factors,
/// `entries` long over axes of `cards`, to the short-run walk: 2 or 3
/// factors, a small product, and an innermost iterating axis too short
/// for a run. The one dispatch rule between the two walks.
fn short_runs(k: usize, entries: usize, cards: &[u32]) -> bool {
    let innermost = cards.iter().rev().find(|&&card| card > 1);
    (2..=3).contains(&k)
        && entries <= SHORT_PRODUCT
        && innermost.is_none_or(|&card| u64::from(card) < LONG_RUN)
}

/// The short-run walk of [`product_marginalize_views`], planned per call in
/// storage a [`Scratch`] keeps: the product in its own row-major order, an
/// inner block (at most [`SHORT_BLOCK`] entries) through a table of
/// offsets, the axes outside it by an odometer. The table is laid out by
/// expanding the block's rows ([`block_table`]): the words an odometer
/// stepped once per entry would write, at a few stores an entry. Both live in
/// `Scratch::rows`: the rows, `[card, step in factor 0, …, step in factor
/// k-1, step in the result]`, innermost first and folded by `push_axis` —
/// the block's, then from `outer` on those outside it — and from `table`
/// on, per block entry in row-major order, its offset in each factor (at
/// most three) and, fourth, in the result. The block holds the innermost
/// rows that fit whole, then the largest part of the next row that fits
/// and divides its card.
///
/// Per result slot the additions come in the two-pass order. The chain of
/// trailing summed-out axes (`chain` entries of a block, over `blocks`
/// blocks) is summed from zero and added to its slot once; with no such
/// axes, `chain` is 1 and every entry is added on its own.
struct ShortWalk {
    /// Where the rows outside the block, and the table, start.
    outer: usize,
    table: usize,
    /// Entries of a block one chain spans, and blocks it spans.
    chain: usize,
    blocks: u64,
}

impl ShortWalk {
    /// Plans the walk of the product of `factors` over (`scope`, `cards`)
    /// summed onto `target` (a scope and its cardinalities) into `rows`,
    /// with the walk's cursors, and sets the odometer over the rows outside
    /// the block (`digits`, `bases`) at its start.
    fn new(
        (scope, cards): (&Scope, &[u32]),
        target: (&Scope, &[u32]),
        factors: &[TableRef<'_>],
        rows: &mut Vec<u64>,
        cursors: &mut Vec<(usize, u64)>,
        digits: &mut Vec<u64>,
        bases: &mut Vec<u64>,
    ) -> Self {
        let k = factors.len();
        let w = k + 2;
        // every axis a row, one split in two, and the table
        rows.clear();
        rows.reserve((cards.len() + 1) * w + TABLE_WIDTH * SHORT_BLOCK as usize);
        cursors.clear();
        cursors.extend(factors.iter().map(|f| (f.scope.len(), 1)));
        cursors.push((target.0.len(), 1));
        let operands = || {
            let factors = factors.iter().map(|f| (f.scope, f.cards));
            factors.chain(std::iter::once(target))
        };
        for (&v, &card) in scope.vars().iter().zip(cards).rev() {
            push_axis(rows, v, card, operands(), cursors);
        }
        // the block: the rows that fit whole, then the largest part of the
        // next that fits, its outer part the first row outside
        let mut len = 1;
        let inside = rows.chunks_exact(w).take_while(|row| {
            let fits = len * row[0] <= SHORT_BLOCK;
            len *= if fits { row[0] } else { 1 };
            fits
        });
        let mut outer = inside.count() * w;
        let split = rows
            .get(outer)
            .and_then(|&card| (2..=SHORT_BLOCK / len).rev().find(|&part| card % part == 0));
        if let Some(part) = split {
            // the row twice over: its inner part, then its outer one
            let at = outer;
            rows.extend_from_within(at..at + w);
            rows[at..].rotate_right(w);
            rows[at] = part;
            rows[at + w] /= part;
            rows[at + w + 1..at + 2 * w]
                .iter_mut()
                .for_each(|step| *step *= part);
            outer += w;
            len *= part;
        }
        // the chain: the rows, from the innermost, along which the result
        // holds still
        let still = rows.chunks_exact(w).take_while(|row| row[w - 1] == 0);
        let chain: u64 = still.map(|row| row[0]).product();
        // the block's offsets, and the odometer over the rows outside it
        let table = rows.len();
        block_table(rows, outer, k);
        digits.clear();
        digits.resize((table - outer) / w, 0);
        bases.clear();
        bases.resize(k + 1, 0);
        ShortWalk {
            outer,
            table,
            chain: chain.min(len) as usize,
            blocks: (chain / len).max(1),
        }
    }

    /// Adds the product of the `K` factors' values `fs` onto `values`, the
    /// result (zeros), block by block; `rows` are the walk's, `digits`
    /// and `bases` the odometer over those outside the block, at its start.
    fn sweep<const K: usize>(
        &self,
        fs: [&[f64]; K],
        values: &mut [f64],
        rows: &[u64],
        digits: &mut [u64],
        bases: &mut [u64],
    ) {
        let w = K + 2;
        let (outer, table) = (&rows[self.outer..self.table], &rows[self.table..]);
        let (mut acc, mut left) = (0.0, self.blocks);
        loop {
            let at: [&[f64]; K] = std::array::from_fn(|i| &fs[i][bases[i] as usize..]);
            let out = &mut values[bases[K] as usize..];
            // left to right, as the product kernel multiplies
            let entry =
                |e: &[u64]| (1..K).fold(at[0][e[0] as usize], |p, i| p * at[i][e[i] as usize]);
            if self.blocks > 1 {
                // one chain over `blocks` blocks, into the slot at the base
                let entries = table.chunks_exact(TABLE_WIDTH);
                acc = entries.fold(acc, |sum, e| sum + entry(e));
                left -= 1;
                if left == 0 {
                    out[0] += acc;
                    (acc, left) = (0.0, self.blocks);
                }
            } else if self.chain == 1 {
                for e in table.chunks_exact(TABLE_WIDTH) {
                    out[e[TABLE_LAST] as usize] += entry(e);
                }
            } else {
                for link in table.chunks_exact(TABLE_WIDTH * self.chain) {
                    let sum = (link.chunks_exact(TABLE_WIDTH)).fold(0.0, |sum, e| sum + entry(e));
                    out[link[TABLE_LAST] as usize] += sum;
                }
            }
            if !odometer_step(outer, w, digits, bases) {
                return;
            }
        }
    }
}

/// Appends to `rows` the short-run walk's table over its first `outer`
/// words — the block's rows, `[card, step in factor 0, …, step in factor
/// k-1, step in the result]` each, innermost first —: per block entry in
/// row-major order, its offset in each of the `k` factors, zeros up to
/// [`TABLE_LAST`], and its offset in the result. The first entry is all
/// zeros; each row, from the innermost out, repeats the entries so far
/// once per further value of its own, shifted by its steps — the order an
/// odometer over the rows visits them in, without stepping one per entry.
fn block_table(rows: &mut Vec<u64>, outer: usize, k: usize) {
    let (w, table) = (k + 2, rows.len());
    rows.extend_from_slice(&[0; TABLE_WIDTH]);
    for at in (0..outer).step_by(w) {
        let card = rows[at];
        let step: [u64; TABLE_WIDTH] = std::array::from_fn(|i| match i {
            _ if i < k => rows[at + 1 + i],
            TABLE_LAST => rows[at + w - 1],
            _ => 0,
        });
        let so_far = rows.len() - table;
        for value in 1..card {
            for e in (table..table + so_far).step_by(TABLE_WIDTH) {
                let entry: [u64; TABLE_WIDTH] =
                    std::array::from_fn(|i| rows[e + i] + value * step[i]);
                rows.extend_from_slice(&entry);
            }
        }
    }
}

/// The iteration plan of [`product_marginalize_views`]'s run kernel — for
/// products with a long innermost run, more than 3 factors or more than
/// 2¹⁶ entries, the shapes the short-run walk leaves (long runs are where
/// its vectorized loops beat the walk's gathers about twice over) —
/// rebuilt per call in storage a [`Scratch`] keeps. The product's non-unit
/// axes fall in three parts — `kept` (result axes), `group` (the
/// summed-out axes after the last kept one: one add chain per result slot
/// and `upper` position) and `upper` (the summed-out axes before it) —
/// each coalesced on its own and stored innermost axis first, one row
/// `[card, step in factor 0, …, step in factor k-1]` per axis. `kept` and
/// `group` always have a first row, a unit one if need be.
#[derive(Debug, Default)]
struct FusedPlan {
    /// Row length: one more than the number of factors.
    width: usize,
    kept: Vec<u64>,
    upper: Vec<u64>,
    group: Vec<u64>,
    /// The direction product runs are computed in, the one that is long
    /// and, if there is a choice, contiguous: across the slots of a block,
    /// or else, four slots in lock-step, along the inner run of `group`.
    across: bool,
    /// Whether a block stays within one row of the innermost kept axis:
    /// where that row is long and every factor steps by 0 or 1 along it.
    /// Otherwise `across` is for a short inner run, and any run of slots.
    one_row: bool,
    /// Result slots per block at most.
    block: usize,
    /// Per factor (`block` apart), where each slot of the current block
    /// starts in it.
    offsets: Vec<u64>,
    /// Per factor, the step between those offsets where they have one: the
    /// block lies in one row of the innermost kept axis, or they are all
    /// the same (0) or consecutive (1).
    regular: Vec<Option<usize>>,
}

impl FusedPlan {
    /// Plans the product of `factors` over (`scope`, `cards`) summed onto
    /// `target`, with the walk's own cursors (`Scratch::cursors`). Kept out
    /// of the kernel's body: inlined, it cost the summing loops 6 % on
    /// TPC-H's plain-tree queries (a scratch A/B of `answer_in`).
    #[inline(never)]
    fn build(
        &mut self,
        scope: &Scope,
        cards: &[u32],
        target: &Scope,
        factors: &[TableRef<'_>],
        cursors: &mut Vec<(usize, u64)>,
    ) {
        let w = factors.len() + 1;
        self.width = w;
        self.kept.clear();
        self.upper.clear();
        self.group.clear();
        cursors.clear();
        cursors.extend(factors.iter().map(|f| (f.scope.len(), 1)));
        let operands = || factors.iter().map(|f| (f.scope, f.cards));
        let mut kept_left = target.len();
        // still after the last kept axis (one that iterates: not a unit one)
        let mut trailing = true;
        for (&v, &card) in scope.vars().iter().zip(cards).rev() {
            let is_kept = kept_left > 0 && target.vars()[kept_left - 1] == v;
            kept_left -= usize::from(is_kept);
            trailing &= !(is_kept && card > 1);
            let part = if is_kept {
                &mut self.kept
            } else if trailing {
                &mut self.group
            } else {
                &mut self.upper
            };
            push_axis(part, v, card, operands(), cursors);
        }
        if self.group.is_empty() {
            // nothing is summed out after the last kept axis: every entry is
            // added to its slot on its own, i.e. one chain over all of `upper`
            // (moved over, not swapped: each keeps its own warm capacity)
            self.group.append(&mut self.upper);
        }
        for part in [&mut self.kept, &mut self.group] {
            if part.is_empty() {
                part.push(1);
                part.resize(w, 0);
            }
        }
        self.one_row = self.kept[0] >= LONG_RUN && self.kept[1..w].iter().all(|&step| step <= 1);
        self.across = self.one_row || self.group[0] < LONG_RUN;
        self.block = if self.across { WIDE_LANES } else { 4 };
        self.offsets.resize(factors.len() * self.block, 0);
    }

    /// Lays out the next block of result slots in `offsets` and `regular`,
    /// and returns how many. `at` is the position along the innermost kept
    /// axis, `digits` and `bases` the odometer over the kept axes outside
    /// it; `more` turns false with the last slot.
    fn next_block(
        &mut self,
        at: &mut u64,
        more: &mut bool,
        digits: &mut [u64],
        bases: &mut [u64],
    ) -> usize {
        let (block, one_row) = (self.block, self.one_row);
        let (lane, kept_outer) = self.kept.split_at(self.width);
        let (mut n, mut rows) = (0, 0);
        while *more && n < block {
            let take = (lane[0] - *at).min((block - n) as u64) as usize;
            for ((offsets, &base), &step) in (self.offsets.chunks_exact_mut(block))
                .zip(bases.iter())
                .zip(&lane[1..])
            {
                for (offset, i) in offsets[n..n + take].iter_mut().zip(*at..) {
                    *offset = base + i * step;
                }
            }
            n += take;
            rows += 1;
            *at += take as u64;
            if *at == lane[0] {
                *at = 0;
                *more = odometer_step(kept_outer, self.width, digits, bases);
                if one_row {
                    break;
                }
            }
        }
        self.regular.clear();
        if rows == 1 {
            self.regular
                .extend(lane[1..].iter().map(|&step| Some(step as usize)));
        } else {
            self.regular
                .extend(self.offsets.chunks_exact(block).map(|offsets| {
                    let (offsets, first) = (&offsets[..n], offsets[0]);
                    if offsets.iter().all(|&o| o == first) {
                        Some(0)
                    } else if offsets.iter().zip(first..).all(|(&o, unit)| o == unit) {
                        Some(1)
                    } else {
                        None
                    }
                }));
        }
        n
    }

    /// Odometer digits the three parts need: every row but the two first.
    fn n_axes(&self) -> usize {
        (self.kept.len() + self.upper.len() + self.group.len()) / self.width - 2
    }

    /// The totals of the `totals.len()` result slots of the current block:
    /// for each slot, over the positions of `upper`, the sum of one
    /// sequential chain over `group`. `work` is working space, `digits` are
    /// `upper`'s then `group`'s, and `bases` the factors' offsets along the
    /// two; they come back zero.
    fn sum_slots(
        &self,
        factors: &[TableRef<'_>],
        totals: &mut [f64],
        work: &mut [f64],
        digits: &mut [u64],
        bases: &mut [u64],
    ) {
        let w = self.width;
        let n = totals.len();
        let (run, group_outer) = self.group.split_at(w);
        let (len, steps) = (run[0] as usize, &run[1..]);
        let (u_digits, g_digits) = digits.split_at_mut(self.upper.len() / w);
        let (chain, runs) = work.split_at_mut(n);
        let slots = |op: usize| &self.offsets[op * self.block..op * self.block + n];
        // with nothing in `upper` a slot's one chain is its total
        let two_level = !self.upper.is_empty();
        totals.fill(0.0);
        loop {
            let sums = if two_level {
                chain.fill(0.0);
                &mut *chain
            } else {
                &mut *totals
            };
            loop {
                if self.across {
                    let products = &mut runs[..n];
                    for j in 0..len as u64 {
                        product_run(products, factors, |op| {
                            let start = bases[op] + j * steps[op];
                            match self.regular[op] {
                                Some(step) => (slots(op)[0] + start, Stride::Step(step)),
                                None => (start, Stride::Offsets(slots(op))),
                            }
                        });
                        lanes::add_assign(sums, products);
                    }
                } else {
                    for j0 in (0..len).step_by(RUN_CHUNK) {
                        let m = RUN_CHUNK.min(len - j0);
                        for (lane, run) in runs[..n * m].chunks_exact_mut(m).enumerate() {
                            product_run(run, factors, |op| {
                                let start = slots(op)[lane] + bases[op] + j0 as u64 * steps[op];
                                (start, Stride::Step(steps[op] as usize))
                            });
                        }
                        match n {
                            4 => add_runs::<4>(sums, runs, m),
                            3 => add_runs::<3>(sums, runs, m),
                            2 => add_runs::<2>(sums, runs, m),
                            _ => add_runs::<1>(sums, runs, m),
                        }
                    }
                }
                if !odometer_step(group_outer, w, g_digits, bases) {
                    break;
                }
            }
            if !two_level {
                break;
            }
            for (sum, &chain) in totals.iter_mut().zip(chain.iter()) {
                *sum += chain;
            }
            if !odometer_step(&self.upper, w, u_digits, bases) {
                break;
            }
        }
    }
}

/// Carries the `N` chains of `chain` on over `N` runs of `run_len` entries
/// laid back to back in `runs`, in lock-step.
fn add_runs<const N: usize>(chain: &mut [f64], runs: &[f64], run_len: usize) {
    let carried = std::array::from_fn(|lane| chain[lane]);
    let sums = lanes::sum_runs::<N>(carried, &runs[..N * run_len], run_len);
    chain.copy_from_slice(&sums);
}

/// How the entries of one factor that a product run multiplies lie in it.
#[derive(Clone, Copy)]
enum Stride<'a> {
    /// A fixed distance apart: 0 is one entry for the whole run.
    Step(usize),
    /// At these offsets from the run's start.
    Offsets(&'a [u64]),
}

/// A run of the product: `out[j] = Π_i factors[i][entry j of factor i]`,
/// multiplied left to right, where `at(i)` says where factor `i`'s entries
/// start and how they lie.
fn product_run<'a>(
    out: &mut [f64],
    factors: &[TableRef<'_>],
    at: impl Fn(usize) -> (u64, Stride<'a>),
) {
    let n = out.len();
    // the first two factors in one pass where both runs are plain
    let ((oa, stride_a), (ob, stride_b)) = (at(0), at(1));
    let (a, b) = (
        &factors[0].values[oa as usize..],
        &factors[1].values[ob as usize..],
    );
    let done = match (stride_a, stride_b) {
        (Stride::Step(1), Stride::Step(0)) => {
            lanes::mul_scalar(out, &a[..n], b[0]);
            2
        }
        (Stride::Step(0), Stride::Step(1)) => {
            lanes::mul_scalar(out, &b[..n], a[0]);
            2
        }
        (Stride::Step(1), Stride::Step(1)) => {
            lanes::mul(out, &a[..n], &b[..n]);
            2
        }
        _ => 0,
    };
    for (i, f) in factors.iter().enumerate().skip(done) {
        let (start, stride) = at(i);
        let (a, o) = (f.values, start as usize);
        match (i, stride) {
            (0, Stride::Step(0)) => out.fill(a[o]),
            (0, Stride::Step(1)) => out.copy_from_slice(&a[o..o + n]),
            (0, Stride::Step(step)) => {
                for (j, slot) in out.iter_mut().enumerate() {
                    *slot = a[o + j * step];
                }
            }
            (0, Stride::Offsets(offsets)) => {
                for (slot, &off) in out.iter_mut().zip(offsets) {
                    *slot = a[o + off as usize];
                }
            }
            (_, Stride::Step(0)) => lanes::mul_assign_scalar(out, a[o]),
            (_, Stride::Step(1)) => lanes::mul_assign(out, &a[o..o + n]),
            (_, Stride::Step(step)) => {
                for (j, slot) in out.iter_mut().enumerate() {
                    *slot *= a[o + j * step];
                }
            }
            (_, Stride::Offsets(offsets)) => {
                for (slot, &off) in out.iter_mut().zip(offsets) {
                    *slot *= a[o + off as usize];
                }
            }
        }
    }
}

/// Pushes the row `[card, step per operand…]` of the axis of `v` onto
/// `rows`: a walk's rows, innermost first, built outwards. Each operand's
/// step is read off its cursor — `(axes of its scope not yet placed,
/// stride of the next)` — which moves on if `v` is that next axis. The row
/// is folded into the one inside it where it iterates nothing (card 1) or
/// carries that row on: every step is the inside step times the inside
/// card. The one merge rule of every walk in this module.
fn push_axis<'a>(
    rows: &mut Vec<u64>,
    v: Var,
    card: u32,
    operands: impl Iterator<Item = (&'a Scope, &'a [u32])>,
    cursors: &mut [(usize, u64)],
) {
    let (w, card) = (cursors.len() + 1, card as u64);
    rows.push(card);
    for ((scope, cards), (left, stride)) in operands.zip(cursors) {
        if *left > 0 && scope.vars()[*left - 1] == v {
            rows.push(*stride);
            *stride *= cards[*left - 1] as u64;
            *left -= 1;
        } else {
            rows.push(0);
        }
    }
    let n = rows.len();
    let fold = card == 1 || {
        n >= 2 * w && {
            let (inside, row) = rows[n - 2 * w..].split_at(w);
            (row[1..].iter().zip(&inside[1..])).all(|(&s, &i)| s == i * inside[0])
        }
    };
    if fold {
        rows.truncate(n - w);
        if card != 1 {
            rows[n - 2 * w] *= card;
        }
    }
}

/// Steps an odometer over `rows` (innermost first, `[card, step per
/// operand…]` each, `width` long) to its next position, moving the operand
/// offsets `bases` along; `false` once the rows are exhausted, with
/// `digits` and `bases` back where they started.
fn odometer_step(rows: &[u64], width: usize, digits: &mut [u64], bases: &mut [u64]) -> bool {
    for (row, digit) in rows.chunks_exact(width).zip(digits) {
        *digit += 1;
        for (base, step) in bases.iter_mut().zip(&row[1..]) {
            *base += step;
        }
        if *digit < row[0] {
            return true;
        }
        *digit = 0;
        for (base, step) in bases.iter_mut().zip(&row[1..]) {
            *base -= step * row[0];
        }
    }
    false
}

/// Evidence restriction on a view: fixes `var = value` and drops the axis.
fn restrict_view(
    p: TableRef<'_>,
    var: Var,
    value: u32,
    scratch: &mut Scratch,
) -> Result<Potential> {
    let axis = p.scope.position(var).ok_or(PgmError::UnknownVar(var))?;
    let card = p.cards[axis];
    if value >= card {
        return Err(PgmError::ValueOutOfRange { var, value, card });
    }
    let mut scope = p.scope.clone();
    scope.remove(var);
    let mut cards = p.cards.to_vec();
    cards.remove(axis);
    let stride: u64 = p.cards[axis + 1..].iter().map(|&c| c as u64).product();
    let mut values = scratch.take_buf_empty(p.values.len() / card as usize);
    // outer: blocks above the axis; inner: contiguous run below it
    let inner = stride as usize;
    let block = inner * card as usize;
    let base = value as u64 * stride;
    let mut start = base as usize;
    while start < p.values.len() {
        values.extend_from_slice(&p.values[start..start + inner]);
        start += block;
    }
    Potential::new(scope, cards, values)
}

/// The cardinalities of `sub`'s variables, read off (`scope`, `cards`),
/// into `out`.
fn cards_within(sub: &Scope, scope: &Scope, cards: &[u32], out: &mut Vec<u32>) {
    out.clear();
    let kept = scope.iter().zip(cards).filter(|(v, _)| sub.contains(*v));
    out.extend(kept.map(|(_, &c)| c));
}

fn checked_len(cards: &[u32]) -> Result<u64> {
    let mut n: u64 = 1;
    for &c in cards {
        n = n.saturating_mul(c as u64);
        if n > MAX_DENSE_ENTRIES {
            return Err(PgmError::TableTooLarge {
                entries: n,
                limit: MAX_DENSE_ENTRIES,
            });
        }
    }
    Ok(n)
}

fn strides_of(cards: &[u32]) -> Vec<u64> {
    let mut strides = vec![1u64; cards.len()];
    for i in (0..cards.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * cards[i + 1] as u64;
    }
    strides
}

/// The table the product of `factors` spans: the union of their scopes, its
/// cardinalities (shared variables must agree) and its — checked — length.
fn product_axes(factors: &[TableRef<'_>]) -> Result<(Scope, Vec<u32>, usize)> {
    let (mut scope, mut cards) = (Scope::empty(), Vec::new());
    let total = product_axes_into(factors, &mut scope, &mut cards)?;
    Ok((scope, cards, total))
}

/// [`product_axes`] into `scope` and `cards`, on their allocations; returns
/// the length.
fn product_axes_into(
    factors: &[TableRef<'_>],
    scope: &mut Scope,
    cards: &mut Vec<u32>,
) -> Result<usize> {
    scope.assign_union(factors.iter().map(|f| f.scope));
    resolve_cards(scope, factors, cards)?;
    Ok(checked_len(cards)? as usize)
}

fn resolve_cards(scope: &Scope, factors: &[TableRef<'_>], cards: &mut Vec<u32>) -> Result<()> {
    cards.clear();
    cards.reserve(scope.len());
    for v in scope.iter() {
        let mut seen = factors.iter().filter_map(|f| f.card_of(v));
        // a variable of the factors' union is some factor's
        let left = seen.next().ok_or(PgmError::UnknownVar(v))?;
        if let Some(right) = seen.find(|&c| c != left) {
            return Err(PgmError::CardinalityMismatch {
                var: v,
                left,
                right,
            });
        }
        cards.push(left);
    }
    Ok(())
}

/// Recycled buffers a [`Scratch`] keeps at most, of each kind.
const POOLED: usize = 32;

/// Reusable scratch state for the stride-walk kernels.
///
/// Holds the current walk's rows and the odometer stepping them, the fused
/// kernel's run plan and working space, a count of the entries its
/// short-run walk summed, and pools of recycled results' buffers: their
/// values, and their scopes and cardinalities.
/// One `Scratch` is single-threaded state: give each worker its own.
/// Creating one is free (no allocation until first use), so the non-`_in`
/// kernel methods just instantiate a fresh one per call.
#[derive(Debug, Default)]
pub struct Scratch {
    /// The walk of an elementwise kernel or a marginalization: rows
    /// `[card, step per operand…]`, innermost first, the first one the
    /// inner run (`plan_walk`); or the fused kernel's short-run walk.
    rows: Vec<u64>,
    /// Per operand, while a walk is planned: axes not yet placed, stride
    /// of the next (`push_axis`).
    cursors: Vec<(usize, u64)>,
    digits: Vec<u64>,
    bases: Vec<u64>,
    /// Slot totals, chains and product runs of the fused kernel: a few KiB.
    work: Vec<f64>,
    fused: FusedPlan,
    /// Product entries the short-run walk has summed through this scratch.
    short_walked: Size,
    /// The fused kernel's product: its scope and cardinalities.
    axes: Scope,
    axis_cards: Vec<u32>,
    pool: Vec<Vec<f64>>,
    /// Recycled results' scopes and cardinalities, which the fused
    /// kernel's results are filled into.
    scopes: Vec<(Scope, Vec<u32>)>,
}

impl Scratch {
    /// An empty scratch (allocates nothing).
    pub fn new() -> Self {
        Scratch::default()
    }

    /// Product entries [`product_marginalize_views`] has summed through
    /// this scratch by its short-run walk, ever: the difference across a
    /// pass is [`Work::short_walked`](crate::Work::short_walked).
    pub fn short_walked(&self) -> Size {
        self.short_walked
    }

    /// Plans the walk of the table over (`scope`, `cards`) in row-major
    /// order into `rows`, one step column per operand (a scope contained in
    /// `scope`, and its cardinalities); a unit row where nothing iterates.
    ///
    /// Every operand's step along the inner run is 0 or 1, which is why the
    /// kernels have no strided arm. Both scopes are sorted, so the first
    /// axis that iterates (card > 1) is either absent from the operand
    /// (step 0) or the operand's innermost axis with an iterating card, all
    /// of its axes below being unit axes (step 1); folding only widens the
    /// run, never changes its steps. Operand cards must agree with `cards`.
    fn plan_walk(
        &mut self,
        scope: &Scope,
        cards: &[u32],
        operands: &[(&Scope, &[u32])],
    ) -> Result<()> {
        let (rows, cursors) = (&mut self.rows, &mut self.cursors);
        rows.clear();
        cursors.clear();
        cursors.extend(operands.iter().map(|(s, _)| (s.len(), 1)));
        for (&v, &card) in scope.vars().iter().zip(cards).rev() {
            push_axis(rows, v, card, operands.iter().copied(), cursors);
        }
        // a cursor stops for good at a variable `scope` lacks
        for (&(sub, _), &(left, _)) in operands.iter().zip(cursors.iter()) {
            if left > 0 {
                return Err(PgmError::ScopeNotContained {
                    sub: sub.to_string(),
                    sup: scope.to_string(),
                });
            }
        }
        if rows.is_empty() {
            rows.push(1);
            rows.resize(operands.len() + 1, 0);
        }
        debug_assert!(rows[1..=operands.len()].iter().all(|&step| step <= 1));
        Ok(())
    }

    /// Steps an odometer over the rows [`plan_walk`](Self::plan_walk) left
    /// from row `from` outwards, calling `visit` at every position, in
    /// row-major order, with the walked table's offset and the operands'.
    fn walk(&mut self, from: usize, mut visit: impl FnMut(usize, &[u64])) {
        let w = self.cursors.len() + 1;
        let (inside, rows) = self.rows.split_at(from * w);
        let step: u64 = inside.iter().step_by(w).product();
        self.digits.clear();
        self.digits.resize(rows.len() / w, 0);
        self.bases.clear();
        self.bases.resize(w - 1, 0);
        let mut pos = 0;
        loop {
            visit(pos, &self.bases);
            pos += step as usize;
            if !odometer_step(rows, w, &mut self.digits, &mut self.bases) {
                return;
            }
        }
    }

    /// Returns a potential's value buffer to the pool so a later kernel call
    /// can reuse the allocation. Call this on intermediates (messages,
    /// superseded clique tables) once they are dead.
    pub fn recycle(&mut self, p: Potential) {
        if p.values.capacity() > 0 && self.pool.len() < POOLED {
            self.pool.push(p.values);
        }
        if p.scope.capacity() > 0 && p.cards.capacity() > 0 && self.scopes.len() < POOLED {
            self.scopes.push((p.scope, p.cards));
        }
    }

    /// A recycled result's scope and cardinalities (whatever they hold),
    /// for a kernel to fill; new empty ones when none is pooled.
    fn take_axes(&mut self) -> (Scope, Vec<u32>) {
        self.scopes.pop().unwrap_or_default()
    }

    /// Picks the pooled buffer that best fits `len` entries: the smallest
    /// one whose capacity suffices, else the largest available (it will
    /// grow). Best-fit keeps a tiny result from capturing — and carrying
    /// out of the kernel layer — a huge recycled allocation.
    fn pick_buf(&mut self, len: usize) -> Option<Vec<f64>> {
        let mut best: Option<usize> = None;
        for (i, v) in self.pool.iter().enumerate() {
            let better = match best {
                None => true,
                Some(b) => {
                    let (c, bc) = (v.capacity(), self.pool[b].capacity());
                    if c >= len {
                        bc < len || c < bc
                    } else {
                        bc < len && c > bc
                    }
                }
            };
            if better {
                best = Some(i);
            }
        }
        best.map(|i| {
            let mut v = self.pool.swap_remove(i);
            v.clear();
            v
        })
    }

    /// A zero-filled buffer of `len` entries, reusing pooled storage.
    fn take_buf(&mut self, len: usize) -> Vec<f64> {
        match self.pick_buf(len) {
            Some(mut v) => {
                v.resize(len, 0.0);
                v
            }
            None => vec![0.0; len],
        }
    }

    /// An empty buffer with at least `capacity` reserved, reusing pooled
    /// storage (for kernels that append rather than index).
    fn take_buf_empty(&mut self, capacity: usize) -> Vec<f64> {
        match self.pick_buf(capacity) {
            Some(mut v) => {
                v.reserve(capacity);
                v
            }
            None => Vec::with_capacity(capacity),
        }
    }
}

/// The pre-arena kernels, preserved as the differential baseline
/// (`potential/legacy.rs`).
#[cfg(any(test, feature = "legacy-kernels"))]
// a test reference, never on a serving path: the hot-path deny stops here
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
pub mod legacy;

#[cfg(test)]
mod tests {
    use super::*;

    fn dom() -> Domain {
        Domain::from_pairs([("a", 2), ("b", 3), ("c", 2)]).unwrap()
    }

    fn pot(d: &Domain, ix: &[u32], vals: &[f64]) -> Potential {
        let scope = Scope::from_indices(ix);
        let cards = d.cards_of(&scope);
        Potential::new(scope, cards, vals.to_vec()).unwrap()
    }

    #[test]
    fn scalar_and_ones() {
        let d = dom();
        let s = Potential::scalar(3.5);
        assert_eq!(s.len(), 1);
        assert_eq!(s.sum(), 3.5);
        let o = Potential::ones(Scope::from_indices(&[0, 1]), &d).unwrap();
        assert_eq!(o.len(), 6);
        assert_eq!(o.sum(), 6.0);
    }

    #[test]
    fn index_round_trip() {
        let d = dom();
        let p = Potential::zeros(Scope::from_indices(&[0, 1, 2]), &d).unwrap();
        for idx in 0..p.len() {
            let asg = p.assignment_of(idx);
            assert_eq!(p.index_of(&asg), idx);
        }
    }

    #[test]
    fn product_disjoint_scopes() {
        let d = dom();
        // f(a) = [1, 2], g(c) = [10, 100]
        let f = pot(&d, &[0], &[1.0, 2.0]);
        let g = pot(&d, &[2], &[10.0, 100.0]);
        let fg = f.product(&g).unwrap();
        assert_eq!(fg.scope(), &Scope::from_indices(&[0, 2]));
        // row-major: (a=0,c=0),(a=0,c=1),(a=1,c=0),(a=1,c=1)
        assert_eq!(fg.values(), &[10.0, 100.0, 20.0, 200.0]);
    }

    #[test]
    fn product_shared_var() {
        let d = dom();
        let f = pot(&d, &[0, 1], &[1., 2., 3., 4., 5., 6.]); // f(a,b)
        let g = pot(&d, &[1], &[10., 20., 30.]); // g(b)
        let fg = f.product(&g).unwrap();
        assert_eq!(fg.scope(), f.scope());
        assert_eq!(fg.values(), &[10., 40., 90., 40., 100., 180.]);
    }

    #[test]
    fn product_empty_list_is_scalar_one() {
        let p = Potential::product_many(&[]).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.values()[0], 1.0);
    }

    #[test]
    fn product_card_mismatch_rejected() {
        let f = Potential::new(Scope::from_indices(&[1]), vec![2], vec![1., 2.]).unwrap();
        let g = Potential::new(Scope::from_indices(&[1]), vec![3], vec![1., 2., 3.]).unwrap();
        assert!(matches!(
            f.product(&g),
            Err(PgmError::CardinalityMismatch { .. })
        ));
    }

    #[test]
    fn marginalize_sums_axis() {
        let d = dom();
        let f = pot(&d, &[0, 1], &[1., 2., 3., 4., 5., 6.]); // f(a,b)
        let fa = f.marginalize(&Scope::from_indices(&[0])).unwrap();
        assert_eq!(fa.values(), &[6.0, 15.0]);
        let fb = f.marginalize(&Scope::from_indices(&[1])).unwrap();
        assert_eq!(fb.values(), &[5.0, 7.0, 9.0]);
        let f_none = f.marginalize(&Scope::empty()).unwrap();
        assert_eq!(f_none.values(), &[21.0]);
    }

    #[test]
    fn marginalize_keep_extraneous_vars_ignored() {
        let d = dom();
        let f = pot(&d, &[0], &[1., 2.]);
        let m = f.marginalize(&Scope::from_indices(&[0, 2])).unwrap();
        assert_eq!(m.scope(), &Scope::from_indices(&[0]));
        assert_eq!(m.values(), &[1.0, 2.0]);
    }

    #[test]
    fn sum_out_complements_marginalize() {
        let d = dom();
        let f = pot(&d, &[0, 1], &[1., 2., 3., 4., 5., 6.]);
        let s = f.sum_out(&Scope::from_indices(&[1])).unwrap();
        let m = f.marginalize(&Scope::from_indices(&[0])).unwrap();
        assert_eq!(s, m);
    }

    #[test]
    fn divide_with_zero_convention() {
        let d = dom();
        let f = pot(&d, &[0, 1], &[1., 2., 3., 0., 5., 6.]);
        let g = pot(&d, &[1], &[1., 0., 3.]);
        let h = f.divide(&g).unwrap();
        // b=1 column: 0/0 = 0 by convention (entry (a=0,b=1) is 2/0 -> inf? no:
        // convention applies only to 0/0; 2/0 is a modelling error we surface
        // as inf, which tests must never trigger in calibrated trees).
        assert_eq!(h.values()[0], 1.0);
        assert_eq!(h.values()[2], 1.0);
        assert_eq!(h.values()[3], 0.0); // 0/1? index 3 = (a=1,b=0) -> 0/1 = 0
        assert!(h.values()[1].is_infinite()); // 2/0
    }

    #[test]
    fn divide_zero_cells_match_legacy_bitwise() {
        // Zero-cell sweep of the Hugin convention across kernel generations:
        // 0/0, x/0 (inf error path), 0/x and negative zeros, on runs long
        // enough to cover full 4-lanes plus a scalar tail.
        let d = Domain::from_pairs([("a", 3), ("b", 5)]).unwrap();
        let scope_ab = Scope::from_indices(&[0, 1]);
        let scope_b = Scope::from_indices(&[1]);
        let num = Potential::new(
            scope_ab.clone(),
            d.cards_of(&scope_ab),
            vec![
                0.0, 2.0, 0.0, -0.0, 1.0, //
                0.5, 0.0, 3.0, 0.0, -0.0, //
                0.0, 0.0, 0.0, 7.0, 2.0,
            ],
        )
        .unwrap();
        // same-scope division (unit-stride lane path)
        let den_full = Potential::new(
            scope_ab.clone(),
            d.cards_of(&scope_ab),
            vec![
                0.0, 0.0, 4.0, 0.0, -0.0, //
                2.0, 0.0, 0.0, 5.0, 0.0, //
                -0.0, 1.0, 0.0, 0.0, 4.0,
            ],
        )
        .unwrap();
        // broadcast division (scalar-denominator lane path)
        let den_b = Potential::new(
            scope_b.clone(),
            d.cards_of(&scope_b),
            vec![0.0, 2.0, 0.0, -0.0, 1.0],
        )
        .unwrap();
        let mut s = Scratch::new();
        for den in [&den_full, &den_b] {
            let got = num.divide_in(den, &mut s).unwrap();
            let want = legacy::divide_in(&num, den, &mut s).unwrap();
            for (g, w) in got.values().iter().zip(want.values()) {
                assert_eq!(g.to_bits(), w.to_bits());
            }
            // 0/0 cells are exactly +0.0, never NaN
            for (&n, i) in num.values().iter().zip(0..) {
                let dv = if den.len() == num.len() {
                    den.values()[i]
                } else {
                    den.values()[i % 5]
                };
                if n == 0.0 && dv == 0.0 {
                    assert_eq!(got.values()[i].to_bits(), 0.0f64.to_bits());
                }
            }
            assert!(!got.values().iter().any(|v| v.is_nan()));
        }
        // x/0 with x != 0 still surfaces as inf in both generations
        let inf_new = num.divide(&den_b).unwrap();
        assert!(inf_new.values().iter().any(|v| v.is_infinite()));
    }

    #[test]
    fn divide_scope_violation() {
        let d = dom();
        let f = pot(&d, &[1], &[1., 2., 3.]);
        let g = pot(&d, &[0, 1], &[1.; 6]);
        assert!(matches!(
            f.divide(&g),
            Err(PgmError::ScopeNotContained { .. })
        ));
    }

    #[test]
    fn restrict_drops_axis() {
        let d = dom();
        let f = pot(&d, &[0, 1], &[1., 2., 3., 4., 5., 6.]);
        let f0 = f.restrict(Var(0), 0).unwrap();
        assert_eq!(f0.scope(), &Scope::from_indices(&[1]));
        assert_eq!(f0.values(), &[1., 2., 3.]);
        let f1 = f.restrict(Var(1), 2).unwrap();
        assert_eq!(f1.values(), &[3., 6.]);
        assert!(f.restrict(Var(1), 9).is_err());
        assert!(f.restrict(Var(2), 0).is_err());
    }

    #[test]
    fn normalize_scales_to_one() {
        let d = dom();
        let mut f = pot(&d, &[1], &[1., 1., 2.]);
        f.normalize();
        assert!((f.sum() - 1.0).abs() < 1e-12);
        assert_eq!(f.values()[2], 0.5);
        let mut z = pot(&d, &[0], &[0., 0.]);
        z.normalize(); // must not NaN
        assert_eq!(z.values(), &[0., 0.]);
    }

    /// A subnormal sum, whose inverse overflows to infinity, still
    /// normalizes to a distribution, not to `[NaN, inf]`.
    #[test]
    fn normalize_by_a_subnormal_sum_stays_finite() {
        let d = dom();
        let tiny = f64::from_bits(1);
        let mut f = pot(&d, &[0], &[0., tiny]);
        assert_eq!(f.normalize(), tiny);
        assert_eq!(f.values(), &[0., 1.]);
        let mut g = pot(&d, &[0], &[tiny, 2. * tiny]);
        g.normalize();
        assert_eq!(g.values(), &[1. / 3., 2. / 3.]);
    }

    #[test]
    fn table_size_saturates() {
        let mut dm = Domain::new();
        for i in 0..16 {
            dm.add(&format!("v{i}"), 1 << 16).unwrap();
        }
        let sc = dm.full_scope();
        assert_eq!(table_size(&sc, &dm), u64::MAX);
    }

    #[test]
    fn dense_limit_enforced() {
        let mut dm = Domain::new();
        for i in 0..8 {
            dm.add(&format!("v{i}"), 1000).unwrap();
        }
        let sc = dm.full_scope();
        assert!(matches!(
            Potential::zeros(sc, &dm),
            Err(PgmError::TableTooLarge { .. })
        ));
    }

    #[test]
    fn product_associativity_and_commutativity() {
        let d = dom();
        let f = pot(&d, &[0], &[0.5, 1.5]);
        let g = pot(&d, &[1], &[1., 2., 3.]);
        let h = pot(&d, &[0, 2], &[1., 2., 3., 4.]);
        let p1 = f.product(&g).unwrap().product(&h).unwrap();
        let p2 = h.product(&g).unwrap().product(&f).unwrap();
        assert!(p1.max_abs_diff(&p2).unwrap() < 1e-12);
        let p3 = Potential::product_many(&[&f, &g, &h]).unwrap();
        assert!(p1.max_abs_diff(&p3).unwrap() < 1e-12);
    }

    /// A NaN entry on either side, first or last, is a difference no
    /// bound passes.
    #[test]
    fn max_abs_diff_sees_a_nan_entry() {
        let d = dom();
        let f = pot(&d, &[1], &[1., 2., 3.]);
        for i in [0, 2] {
            let mut g = f.clone();
            g.values_mut()[i] = f64::NAN;
            assert!(f.max_abs_diff(&g).unwrap().is_nan(), "entry {i}");
            assert!(g.max_abs_diff(&f).unwrap().is_nan(), "entry {i}");
        }
        assert_eq!(f.max_abs_diff(&f).unwrap(), 0.0);
    }

    #[test]
    fn marginalization_commutes_with_product_for_disjoint() {
        // (f * g) marginalized onto f's scope == f * sum(g) when scopes are
        // disjoint.
        let d = dom();
        let f = pot(&d, &[0], &[0.25, 0.75]);
        let g = pot(&d, &[1], &[0.2, 0.3, 0.5]);
        let fg = f.product(&g).unwrap();
        let m = fg.marginalize(f.scope()).unwrap();
        assert!((m.values()[0] - 0.25).abs() < 1e-12);
        assert!((m.values()[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn product_onto_matches_product_many() {
        let d = dom();
        let f = pot(&d, &[0], &[0.5, 1.5]);
        let g = pot(&d, &[1], &[1., 2., 3.]);
        let h = pot(&d, &[0, 2], &[1., 2., 3., 4.]);
        let mut s = Scratch::new();
        let want = Potential::product_many_in(&[&f, &g, &h], &mut s).unwrap();
        let mut dst = vec![0.0; want.len()];
        product_onto(
            want.scope(),
            want.cards(),
            &mut dst,
            &[f.view(), g.view(), h.view()],
            &mut s,
        )
        .unwrap();
        for (a, b) in dst.iter().zip(want.values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // no factors: multiplicative identity
        let mut ones = vec![0.0; 6];
        product_onto(
            &Scope::from_indices(&[0, 1]),
            &d.cards_of(&Scope::from_indices(&[0, 1])),
            &mut ones,
            &[],
            &mut s,
        )
        .unwrap();
        assert!(ones.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn mul_assign_bcast_matches_product() {
        let d = dom();
        let f = pot(&d, &[0, 1], &[1., 2., 3., 4., 5., 6.]);
        let g = pot(&d, &[1], &[10., 20., 30.]);
        let mut s = Scratch::new();
        let want = f.product_in(&g, &mut s).unwrap();
        let mut dst = f.values().to_vec();
        mul_assign_bcast(f.scope(), f.cards(), &mut dst, g.view(), &mut s).unwrap();
        for (a, b) in dst.iter().zip(want.values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn product_onto_rejects_uncontained_factor() {
        let d = dom();
        let f = pot(&d, &[0, 1], &[1.; 6]);
        let mut dst = vec![0.0; 2];
        let scope_a = Scope::from_indices(&[0]);
        let err = product_onto(&scope_a, &[2], &mut dst, &[f.view()], &mut Scratch::new());
        assert!(matches!(err, Err(PgmError::ScopeNotContained { .. })));
    }

    #[test]
    fn view_round_trip_is_bitwise() {
        let d = dom();
        let f = pot(&d, &[0, 1], &[1., 2., 3., 4., 5., 6.]);
        let v = f.view();
        assert_eq!(v.len(), 6);
        assert_eq!(v.sum(), f.sum());
        assert_eq!(v.card_of(Var(1)), Some(3));
        let back = v.to_potential();
        assert_eq!(back, f);
    }

    /// The odometer the short-run walk's table was laid out with, one step
    /// an entry: the reference [`block_table`] replaced.
    fn block_table_by_odometer(rows: &[u64], outer: usize, k: usize) -> Vec<u64> {
        let w = k + 2;
        let (mut digits, mut bases) = (vec![0; outer / w], vec![0; k + 1]);
        let mut table = Vec::new();
        loop {
            let entry: [u64; TABLE_WIDTH] = std::array::from_fn(|i| match i {
                _ if i < k => bases[i],
                TABLE_LAST => bases[k],
                _ => 0,
            });
            table.extend_from_slice(&entry);
            if !odometer_step(&rows[..outer], w, &mut digits, &mut bases) {
                return table;
            }
        }
    }

    proptest::proptest! {
        /// `block_table` writes the words the odometer wrote, and leaves the
        /// rows before them alone: blocks of one to six rows of 1–4 values
        /// (at most 64 entries), 2 or 3 factors, any steps, up to two rows
        /// outside the block after them. The default case count, or
        /// `PROPTEST_CASES`.
        #[test]
        fn short_walk_table_matches_the_odometer(
            k in 2usize..=3,
            cards in proptest::collection::vec(1u64..=4, 1..=6),
            steps in proptest::collection::vec(0u64..1000, 32),
            outside in 0usize..3,
        ) {
            let mut rows = Vec::new();
            let mut len = 1;
            for (r, &card) in cards.iter().enumerate() {
                if len * card > SHORT_BLOCK {
                    break;
                }
                len *= card;
                rows.push(card);
                rows.extend((0..=k).map(|i| steps[r * 4 + i]));
            }
            let outer = rows.len();
            for r in 0..outside {
                rows.push(2);
                rows.extend((0..=k).map(|i| steps[24 + r * 4 + i]));
            }
            let want = block_table_by_odometer(&rows, outer, k);
            let mut got = rows.clone();
            block_table(&mut got, outer, k);
            proptest::prop_assert_eq!(&got[..rows.len()], &rows[..]);
            proptest::prop_assert_eq!(&got[rows.len()..], &want[..]);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The invariant the elementwise kernels' two run shapes rest on:
        /// along the inner run every contained operand steps by 0 or 1,
        /// unit axes (card 1) anywhere in the scope included.
        #[test]
        fn plan_walk_gives_every_operand_an_inner_step_of_at_most_one(
            cards in proptest::collection::vec(1u32..=4, 8),
            in_scope in proptest::collection::vec(proptest::bool::ANY, 8),
            masks in proptest::collection::vec(proptest::collection::vec(proptest::bool::ANY, 8), 1..=3),
        ) {
            let pick = |mask: &[bool]| {
                Scope::from_iter((0..8).filter(|&i| in_scope[i] && mask[i]).map(|i| Var(i as u32)))
            };
            let cards_of = |s: &Scope| s.iter().map(|v| cards[v.0 as usize]).collect::<Vec<_>>();
            let scope = pick(&[true; 8]);
            let subs: Vec<_> = masks.iter().map(|m| pick(m)).map(|s| (cards_of(&s), s)).collect();
            let operands: Vec<_> = subs.iter().map(|(c, s)| (s, &c[..])).collect();
            let mut scratch = Scratch::new();
            scratch.plan_walk(&scope, &cards_of(&scope), &operands).unwrap();
            let steps = &scratch.rows[1..=operands.len()];
            proptest::prop_assert!(steps.iter().all(|&step| step <= 1), "{scope} {steps:?}");
        }
    }
}
