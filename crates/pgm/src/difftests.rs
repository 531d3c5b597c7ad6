//! Differential suite: arena/lane kernels vs the pre-refactor legacy
//! kernels, asserted **bitwise** (`f64::to_bits`).
//!
//! The flat-arena refactor rewrote every stride-walk kernel (lane-based
//! inner loops, preallocated destination slices, pass-based k-factor
//! product). All of those rewrites were chosen to be bit-identical to the
//! original append-based walks — same per-entry multiplication order, same
//! sequential accumulation per output slot, same Hugin `0/0 = 0` cells.
//! This module proves it against [`crate::potential::legacy`] over random
//! scopes and cardinalities (2..=4, so inner runs routinely have
//! non-multiple-of-4 lengths and exercise the scalar lane tails), plus the
//! singleton/empty-scope and zero-cell edge cases.

use crate::domain::Domain;
use crate::potential::{
    div_assign_bcast, divide_views, legacy, mul_assign_bcast, product_marginalize_views,
    product_onto, Potential, Scratch,
};
use crate::scope::Scope;
use crate::var::Var;
use proptest::prelude::*;

/// A domain of `n` variables with cardinalities in 2..=4 (odd cards give
/// tail lanes).
fn domain_strategy(n: usize) -> impl Strategy<Value = Domain> {
    domain_from(2, n)
}

/// The same with cardinalities in `least..=4`: from 1, unit axes turn up.
fn domain_from(least: u32, n: usize) -> impl Strategy<Value = Domain> {
    prop::collection::vec(least..=4, n).prop_map(|cards| {
        let mut d = Domain::new();
        for (i, c) in cards.into_iter().enumerate() {
            d.add(&format!("v{i}"), c).unwrap();
        }
        d
    })
}

/// A random sub-scope of an `n`-variable domain (possibly empty).
fn scope_strategy(n: usize) -> impl Strategy<Value = Scope> {
    prop::collection::vec(prop::bool::ANY, n).prop_map(|mask| {
        Scope::from_iter(
            mask.iter()
                .enumerate()
                .filter(|(_, &m)| m)
                .map(|(i, _)| Var(i as u32)),
        )
    })
}

/// Deterministic pseudo-random table; every 7th entry is forced to `0.0`
/// and every 11th to `-0.0` so the divide differential hits the Hugin
/// zero-cell convention (and its sign edge) constantly.
fn potential_with_zeros(d: &Domain, scope: Scope, seed: u64) -> Potential {
    let mut p = Potential::zeros(scope, d).unwrap();
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    for (i, v) in p.values_mut().iter_mut().enumerate() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *v = if i % 7 == 3 {
            0.0
        } else if i % 11 == 5 {
            -0.0
        } else {
            0.1 + (state % 1000) as f64 / 1000.0
        };
    }
    p
}

fn assert_bit_identical(got: &Potential, want: &Potential) {
    assert_eq!(got.scope(), want.scope());
    assert_eq!(got.cards(), want.cards());
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.values().iter().zip(want.values()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "entry {i} differs: new {g:?} vs legacy {w:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// k-factor product: new pass-based kernel vs legacy per-entry walk.
    #[test]
    fn product_bit_identical(
        d in domain_strategy(6),
        scopes in prop::collection::vec(scope_strategy(6), 1..=4),
        seed in 0u64..10_000,
    ) {
        let pots: Vec<Potential> = scopes
            .into_iter()
            .enumerate()
            .map(|(i, s)| potential_with_zeros(&d, s, seed + i as u64))
            .collect();
        let refs: Vec<&Potential> = pots.iter().collect();
        let mut s1 = Scratch::new();
        let mut s2 = Scratch::new();
        let got = Potential::product_many_in(&refs, &mut s1).unwrap();
        let want = legacy::product_many_in(&refs, &mut s2).unwrap();
        assert_bit_identical(&got, &want);
    }

    /// product_onto writes the same bits into a preallocated span (the
    /// arena slab path).
    #[test]
    fn product_onto_bit_identical(
        d in domain_strategy(6),
        scopes in prop::collection::vec(scope_strategy(6), 1..=4),
        seed in 0u64..10_000,
    ) {
        let pots: Vec<Potential> = scopes
            .into_iter()
            .enumerate()
            .map(|(i, s)| potential_with_zeros(&d, s, seed + i as u64))
            .collect();
        let refs: Vec<&Potential> = pots.iter().collect();
        let mut s = Scratch::new();
        let want = legacy::product_many_in(&refs, &mut s).unwrap();
        let views: Vec<_> = pots.iter().map(|p| p.view()).collect();
        let mut dst = vec![f64::NAN; want.len()]; // poison: every slot must be written
        product_onto(want.scope(), want.cards(), &mut dst, &views, &mut s).unwrap();
        for (g, w) in dst.iter().zip(want.values()) {
            prop_assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    /// The fused kernel is the two-pass form, bit for bit: same multiply
    /// chain per entry, same additions per result slot in the same order.
    #[test]
    fn fused_bit_identical(
        d in domain_from(1, 6),
        scopes in prop::collection::vec(scope_strategy(6), 1..=4),
        keep in scope_strategy(6),
        seed in 0u64..10_000,
    ) {
        let pots: Vec<Potential> = scopes
            .into_iter()
            .enumerate()
            .map(|(i, s)| potential_with_zeros(&d, s, seed + i as u64))
            .collect();
        let views: Vec<_> = pots.iter().map(Potential::view).collect();
        let refs: Vec<&Potential> = pots.iter().collect();
        let mut s1 = Scratch::new();
        let mut s2 = Scratch::new();
        let got = product_marginalize_views(&views, &keep, &mut s1).unwrap();
        let product = Potential::product_many_in(&refs, &mut s2).unwrap();
        let want = product.marginalize_in(&keep, &mut s2).unwrap();
        prop_assert_eq!(got.scope(), &product.scope().intersect(&keep));
        assert_bit_identical(&got, &want);
    }

    /// The one reorder message passing makes: dividing by a separator whose
    /// scope lies inside the target commutes with the sum. On calibrated-style
    /// tables (the separator is the table's own marginal, so it is zero only
    /// where the table is) sum-then-divide and divide-then-sum agree to
    /// rounding, and exactly — `0.0` — on the Hugin `0/0` cells.
    #[test]
    fn division_commutes_with_the_sum(
        d in domain_strategy(6),
        rest in scope_strategy(6),
        target in scope_strategy(6),
        sep_mask in scope_strategy(6),
        seed in 0u64..10_000,
    ) {
        let sep = target.intersect(&sep_mask);
        let scope = rest.union(&target);
        // a table that vanishes wherever a factor over the separator does
        let table = potential_with_zeros(&d, scope.clone(), seed)
            .product(&potential_with_zeros(&d, sep.clone(), seed + 1))
            .unwrap();
        let phi = table.marginalize(&sep).unwrap();
        let divide_then_sum = table.divide(&phi).unwrap().marginalize(&target).unwrap();
        let sum_then_divide = table.marginalize(&target).unwrap().divide(&phi).unwrap();
        prop_assert_eq!(sum_then_divide.scope(), divide_then_sum.scope());
        // the denominator of every result slot, and the entries summed into it
        let den = Potential::ones(target, &d).unwrap().product(&phi).unwrap();
        let summed = (table.len() / den.len()) as f64;
        for ((&a, &b), &den) in (sum_then_divide.values().iter())
            .zip(divide_then_sum.values())
            .zip(den.values())
        {
            if den == 0.0 {
                prop_assert_eq!(a.to_bits(), 0.0f64.to_bits());
                prop_assert_eq!(b.to_bits(), 0.0f64.to_bits());
            } else {
                prop_assert!((a - b).abs() <= 4.0 * summed * f64::EPSILON * a.max(b), "{a} vs {b}");
            }
        }
    }

    /// Marginalization: block-4 accumulator path + lane adds vs scalar walk.
    #[test]
    fn marginalize_bit_identical(
        d in domain_strategy(7),
        s in scope_strategy(7),
        keep in scope_strategy(7),
        seed in 0u64..10_000,
    ) {
        let f = potential_with_zeros(&d, s, seed);
        let mut s1 = Scratch::new();
        let mut s2 = Scratch::new();
        let got = f.marginalize_in(&keep, &mut s1).unwrap();
        let want = legacy::marginalize_in(&f, &keep, &mut s2).unwrap();
        assert_bit_identical(&got, &want);
    }

    /// Division incl. Hugin 0/0 cells and negative zeros: num = f·g has a
    /// zero exactly where g does, so zero-cell divides occur constantly.
    #[test]
    fn divide_bit_identical(
        d in domain_strategy(6),
        s1 in scope_strategy(6),
        s2 in scope_strategy(6),
        seed in 0u64..10_000,
    ) {
        let f = potential_with_zeros(&d, s1, seed);
        let g = potential_with_zeros(&d, s2, seed + 3);
        let num = f.product(&g).unwrap();
        let mut sc1 = Scratch::new();
        let mut sc2 = Scratch::new();
        let got = num.divide_in(&g, &mut sc1).unwrap();
        let want = legacy::divide_in(&num, &g, &mut sc2).unwrap();
        assert_bit_identical(&got, &want);
        prop_assert!(!got.values().iter().any(|v| v.is_nan()));
    }

    /// The in-place division writes the same bits into the numerator's own
    /// buffer, on the same cases.
    #[test]
    fn div_assign_bcast_bit_identical(
        d in domain_strategy(6),
        s1 in scope_strategy(6),
        s2 in scope_strategy(6),
        seed in 0u64..10_000,
    ) {
        let f = potential_with_zeros(&d, s1, seed);
        let g = potential_with_zeros(&d, s2, seed + 3);
        let mut got = f.product(&g).unwrap();
        let mut s = Scratch::new();
        let want = legacy::divide_in(&got, &g, &mut s).unwrap();
        let (scope, cards, values) = got.parts_mut();
        div_assign_bcast(scope, cards, values, g.view(), &mut s).unwrap();
        assert_bit_identical(&got, &want);
    }

    /// The in-place multiply writes the legacy two-factor product's bits
    /// into the first factor's own buffer, zero and negative-zero entries
    /// on both sides included.
    #[test]
    fn mul_assign_bcast_bit_identical(
        d in domain_from(1, 6),
        s1 in scope_strategy(6),
        s2 in scope_strategy(6),
        seed in 0u64..10_000,
    ) {
        let g = potential_with_zeros(&d, s2.clone(), seed + 3);
        let mut got = potential_with_zeros(&d, s1.union(&s2), seed);
        let mut s = Scratch::new();
        let want = legacy::product_in(&got, &g, &mut s).unwrap();
        let (scope, cards, values) = got.parts_mut();
        mul_assign_bcast(scope, cards, values, g.view(), &mut s).unwrap();
        assert_bit_identical(&got, &want);
    }

    /// Evidence restriction slices the same bytes.
    #[test]
    fn restrict_bit_identical(
        d in domain_strategy(5),
        s in scope_strategy(5),
        seed in 0u64..10_000,
        which in 0usize..5,
        val in 0u32..4,
    ) {
        prop_assume!(!s.is_empty());
        let f = potential_with_zeros(&d, s.clone(), seed);
        let v = s.vars()[which % s.len()];
        let value = val % d.card(v);
        let mut s1 = Scratch::new();
        let mut s2 = Scratch::new();
        let got = f.restrict_in(v, value, &mut s1).unwrap();
        let want = legacy::restrict_in(&f, v, value, &mut s2).unwrap();
        assert_bit_identical(&got, &want);
    }
}

/// The legacy two-pass form of [`product_marginalize_views`]: the product
/// table, then its marginal.
fn legacy_two_pass(factors: &[&Potential], keep: &Scope) -> Potential {
    let mut s = Scratch::new();
    let product = legacy::product_many_in(factors, &mut s).unwrap();
    legacy::marginalize_in(&product, keep, &mut s).unwrap()
}

proptest! {
    /// The fused kernel's short-run walk against the legacy two-pass form,
    /// bit for bit, with the run kernel on the shapes beside it: 2–5
    /// factors over six variables, the innermost's card 1–4 or 15–17 (both
    /// sides of the walk's rule), the others 1–4 (unit kept axes inside
    /// summed chains, chains longer than the walk's 64-entry block),
    /// `0.0` and `-0.0` cells throughout, any target, the empty one too.
    /// The default case count, or `PROPTEST_CASES`.
    #[test]
    fn short_walk_bit_identical(
        cards in prop::collection::vec(1u32..=4, 5),
        inner in 0usize..7,
        scopes in prop::collection::vec(scope_strategy(6), 2..=5),
        keep in scope_strategy(6),
        seed in 0u64..10_000,
    ) {
        let mut d = Domain::new();
        let inner = [1, 2, 3, 4, 15, 16, 17][inner];
        for (i, c) in cards.into_iter().chain([inner]).enumerate() {
            d.add(&format!("v{i}"), c).unwrap();
        }
        let pots: Vec<Potential> = scopes
            .into_iter()
            .enumerate()
            .map(|(i, s)| potential_with_zeros(&d, s, seed + i as u64))
            .collect();
        let views: Vec<_> = pots.iter().map(Potential::view).collect();
        let refs: Vec<&Potential> = pots.iter().collect();
        let got = product_marginalize_views(&views, &keep, &mut Scratch::new()).unwrap();
        assert_bit_identical(&got, &legacy_two_pass(&refs, &keep));
    }
}

/// The short-run walk on chosen shapes, each checked against the legacy
/// two-pass form bit for bit and for the walk it takes: the innermost
/// card on both sides of the rule (15; 16 and 17), a summed chain longer
/// than the 64-entry block, unit kept axes inside a chain, a block that
/// takes part of an axis, an empty target, four factors and a product
/// over 2¹⁶ entries.
#[test]
fn short_walk_shapes_bit_identical() {
    let d = Domain::from_pairs([
        ("a", 3),
        ("b", 40),
        ("u", 1),
        ("c", 2),
        ("e", 2),
        ("f", 2),
        ("g", 2),
        ("h", 2),
        ("i", 2),
        ("j", 15),
        ("k", 16),
        ("l", 17),
        ("m", 300),
    ])
    .unwrap();
    let table = |ix: &[u32], seed| potential_with_zeros(&d, Scope::from_indices(ix), seed);
    let (a, b, u, c, e, f, g, h, i, j, k, l, m) = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12);
    let wide = table(&[c, e, f, g, h, i], 1); // folds into one row of 64
    let (ac, ae, fg, hi) = (
        table(&[a, c], 2),
        table(&[a, e], 3),
        table(&[f, g], 4),
        table(&[h, i], 5),
    );
    let (uc, ui) = (table(&[u, c, e], 6), table(&[a, u, i], 7));
    let (aj, ak, al, bj, bk, bl) = (
        table(&[a, j], 8),
        table(&[a, k], 9),
        table(&[a, l], 10),
        table(&[b, j], 11),
        table(&[b, k], 12),
        table(&[b, l], 13),
    );
    let (ab, bc, ce) = (table(&[a, b], 14), table(&[b, c], 15), table(&[c, e], 16));
    let (bm, mj) = (table(&[b, m], 17), table(&[m, j], 18));
    type Case<'a> = (&'a [&'a Potential], &'a [u32], bool);
    let cases: [Case; 14] = [
        (&[&aj, &bj], &[a, b], true),         // innermost card 15: the walk
        (&[&ak, &bk], &[a, b], false),        // 16: the run kernel
        (&[&al, &bl], &[a, b], false),        // 17
        (&[&aj, &bj], &[a], true),            // a chain of 600 over 10 blocks
        (&[&ac, &wide, &fg], &[a], true),     // a chain of 64 per slot
        (&[&ac, &wide], &[], true),           // one chain, the empty target
        (&[&uc, &ui, &ac], &[u, a], true),    // a unit kept axis in the chain
        (&[&uc, &ui], &[a, u, c], true),      // entry by entry, unit axis kept
        (&[&ab, &bc, &ce], &[a, e], true),    // a block of 2 · 2 · 10 of 40
        (&[&ab, &bc, &ce], &[b], true),       // summed both sides of the slot
        (&[&ac, &ae, &fg, &hi], &[a], false), // four factors
        (&[&ac, &ae, &fg], &[c, f], true),    // three, entry by entry
        (&[&bm, &mj], &[b], false),           // 180,000 entries: over 2¹⁶
        (&[&ab, &aj], &[b, j], true),         // slots from a block's rows
    ];
    for (n, (factors, keep, short)) in cases.into_iter().enumerate() {
        let views: Vec<_> = factors.iter().map(|f| f.view()).collect();
        let keep = Scope::from_indices(keep);
        let mut s = Scratch::new();
        let got = product_marginalize_views(&views, &keep, &mut s).unwrap();
        assert_bit_identical(&got, &legacy_two_pass(factors, &keep));
        let entries: usize = Potential::product_many(factors).unwrap().len();
        let want = if short { entries as u64 } else { 0 };
        assert_eq!(s.short_walked(), want, "case {n}: the walk taken");
    }
}

/// The fused kernel on shapes the random 2..=4 cardinalities never reach:
/// summed-out runs longer than one chunk, rows of result slots wider than
/// one block, blocks that span rows, and an empty target.
#[test]
fn fused_long_runs_and_wide_rows_bit_identical() {
    let d = Domain::from_pairs([("a", 5), ("b", 1300), ("c", 3), ("e", 150)]).unwrap();
    let table = |ix: &[u32], seed| potential_with_zeros(&d, Scope::from_indices(ix), seed);
    let (ab, b, ac, bc, ce, ae) = (
        table(&[0, 1], 1),
        table(&[1], 2),
        table(&[0, 2], 3),
        table(&[1, 2], 4),
        table(&[2, 3], 5),
        table(&[0, 3], 6),
    );
    let cases: [(&[&Potential], &[u32]); 8] = [
        (&[&ab, &b], &[0]),          // five chains of 1300, four in lock-step
        (&[&ab, &b], &[1]),          // a row of 1300 slots, block by block
        (&[&ab, &b], &[]),           // one chain over everything
        (&[&ac, &bc], &[0, 2]),      // blocks of four slots across rows of three
        (&[&bc, &ce], &[1, 3]),      // short runs under rows of 150
        (&[&ac, &ce], &[0, 2, 3]),   // nothing summed out
        (&[&ac, &ce, &ae], &[0]),    // three factors, a chain per slot
        (&[&ab, &bc, &ae], &[1, 3]), // three factors across slots
    ];
    for (factors, keep) in cases {
        let views: Vec<_> = factors.iter().map(|f| f.view()).collect();
        let keep = Scope::from_indices(keep);
        let mut s = Scratch::new();
        let got = product_marginalize_views(&views, &keep, &mut s).unwrap();
        let product = Potential::product_many_in(factors, &mut s).unwrap();
        let want = product.marginalize_in(&keep, &mut s).unwrap();
        assert_bit_identical(&got, &want);
    }
}

/// The in-place division on hand-picked denominators: one broadcast over
/// each inner run (step 0), one read contiguously (step 1) and one read in
/// runs with a jump between them, each holding `0.0` and `-0.0` under
/// zero, negative-zero and non-zero numerators. Bit for bit what the
/// legacy kernel and `divide_views` return.
#[test]
fn div_assign_bcast_on_zero_denominators_bit_identical() {
    let d = Domain::from_pairs([("a", 3), ("b", 3), ("c", 2)]).unwrap();
    let table = |ix: &[u32], values: Vec<f64>| {
        let scope = Scope::from_indices(ix);
        Potential::new(scope.clone(), d.cards_of(&scope), values).unwrap()
    };
    let num = table(
        &[0, 1, 2],
        (0..18)
            .map(|i| match i % 4 {
                0 => 0.0,
                1 => -0.0,
                2 => 1.5 + i as f64,
                _ => -0.25 * i as f64,
            })
            .collect(),
    );
    let dens = [
        table(&[0], vec![0.0, -0.0, 2.0]),
        table(&[1, 2], vec![0.0, -0.0, 3.0, 0.0, 0.5, -0.0]),
        table(&[0, 2], vec![-0.0, 0.0, 4.0, 0.0, -0.0, 0.75]),
    ];
    let mut s = Scratch::new();
    for den in &dens {
        let want = legacy::divide_in(&num, den, &mut s).unwrap();
        let quotient = divide_views(num.view(), den.view(), &mut s).unwrap();
        assert_bit_identical(&quotient, &want);
        let mut got = num.clone();
        let (scope, cards, values) = got.parts_mut();
        div_assign_bcast(scope, cards, values, den.view(), &mut s).unwrap();
        assert_bit_identical(&got, &want);
    }
}

#[test]
fn scalar_and_singleton_edges_bit_identical() {
    let mut d = Domain::new();
    d.add("a", 3).unwrap();
    let mut s1 = Scratch::new();
    let mut s2 = Scratch::new();

    // empty factor list → scalar one
    let got = Potential::product_many_in(&[], &mut s1).unwrap();
    let want = legacy::product_many_in(&[], &mut s2).unwrap();
    assert_bit_identical(&got, &want);

    // scalar × scalar and scalar × singleton
    let sc = Potential::scalar(2.5);
    let single = Potential::new(Scope::from_indices(&[0]), vec![3], vec![0.0, -0.0, 4.0]).unwrap();
    for pair in [[&sc, &sc], [&sc, &single], [&single, &single]] {
        let got = Potential::product_many_in(&pair, &mut s1).unwrap();
        let want = legacy::product_many_in(&pair, &mut s2).unwrap();
        assert_bit_identical(&got, &want);
    }

    // marginalize a singleton to the empty scope, and a scalar to anything
    let got = single.marginalize_in(&Scope::empty(), &mut s1).unwrap();
    let want = legacy::marginalize_in(&single, &Scope::empty(), &mut s2).unwrap();
    assert_bit_identical(&got, &want);
    let got = sc
        .marginalize_in(&Scope::from_indices(&[0]), &mut s1)
        .unwrap();
    let want = legacy::marginalize_in(&sc, &Scope::from_indices(&[0]), &mut s2).unwrap();
    assert_bit_identical(&got, &want);

    // scalar / scalar with the 0/0 cell
    let z = Potential::scalar(0.0);
    let got = z.divide_in(&Potential::scalar(0.0), &mut s1).unwrap();
    let want = legacy::divide_in(&z, &Potential::scalar(0.0), &mut s2).unwrap();
    assert_bit_identical(&got, &want);
    assert_eq!(got.values()[0].to_bits(), 0.0f64.to_bits());
}
