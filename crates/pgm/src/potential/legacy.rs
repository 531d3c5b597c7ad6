//! The pre-arena kernels, preserved as the differential baseline.
//!
//! These are the append-based stride-walk implementations exactly as they
//! shipped before the flat-arena refactor: no lane primitives, `Vec::push`
//! and `extend` instead of preallocated slice writes. The differential
//! suites run the new kernels against them and assert bitwise identity
//! (`f64::to_bits`). Compiled only for this crate's own tests and under the
//! `legacy-kernels` feature (enabled by the differential suites in the
//! junction, bench and umbrella crates).

use super::*;

/// For each axis of the `result` scope, the stride of that variable inside
/// the table over (`f_scope`, `f_cards`) — zero when the table does not
/// mention it. Errors if `f_scope` is not contained in `result`.
fn steps_of(result: &Scope, f_scope: &Scope, f_cards: &[u32]) -> Result<Vec<u64>> {
    if !f_scope.is_subset_of(result) {
        return Err(PgmError::ScopeNotContained {
            sub: f_scope.to_string(),
            sup: result.to_string(),
        });
    }
    let f_strides = strides_of(f_cards);
    Ok(result
        .iter()
        .map(|v| match f_scope.position(v) {
            Some(p) => f_strides[p],
            None => 0,
        })
        .collect())
}

/// A precomputed stride walk: the row-major iteration space of a table,
/// with axes coalesced wherever every tracked operand's stride is
/// compatible, split into outer odometer axes and one inner run.
///
/// For each operand `op`, visiting result entry `i` (row-major) touches
/// operand offset `base(outer digits) + j · inner_steps[op]` where `j` is
/// the position inside the current inner run.
struct Walk {
    /// Coalesced outer axis cardinalities (outer → inner).
    outer_cards: Vec<u64>,
    /// Per-operand steps along the outer axes: `outer_steps[op][ax]`.
    outer_steps: Vec<Vec<u64>>,
    /// Length of the innermost coalesced run.
    inner_len: usize,
    /// Per-operand step along the inner run.
    inner_steps: Vec<u64>,
}

impl Walk {
    /// Plans the walk over a table with axis cardinalities `cards`, tracking
    /// one offset per operand; `op_steps[op][axis]` is the operand's stride
    /// along each result axis (0 = broadcast).
    fn plan(cards: &[u32], op_steps: &[Vec<u64>]) -> Walk {
        let k = op_steps.len();
        let mut gcards: Vec<u64> = Vec::with_capacity(cards.len());
        let mut gsteps: Vec<Vec<u64>> = vec![Vec::with_capacity(cards.len()); k];
        for (ax, &card32) in cards.iter().enumerate() {
            let card = card32 as u64;
            if card == 1 {
                continue; // unit axes contribute nothing to iteration
            }
            let mergeable = !gcards.is_empty()
                && (0..k)
                    .all(|op| *gsteps[op].last().expect("group open") == op_steps[op][ax] * card);
            if mergeable {
                *gcards.last_mut().expect("group open") *= card;
                for op in 0..k {
                    *gsteps[op].last_mut().expect("group open") = op_steps[op][ax];
                }
            } else {
                gcards.push(card);
                for op in 0..k {
                    gsteps[op].push(op_steps[op][ax]);
                }
            }
        }
        match gcards.pop() {
            Some(inner) => Walk {
                inner_len: inner as usize,
                inner_steps: gsteps
                    .iter_mut()
                    .map(|s| s.pop().expect("aligned"))
                    .collect(),
                outer_cards: gcards,
                outer_steps: gsteps,
            },
            None => Walk {
                inner_len: 1,
                inner_steps: vec![0; k],
                outer_cards: Vec::new(),
                outer_steps: vec![Vec::new(); k],
            },
        }
    }

    /// Invokes `f(run_start, operand_bases)` once per inner run, in
    /// row-major order; `run_start` advances by `inner_len` per call.
    #[inline]
    fn for_each_run(&self, scratch: &mut Scratch, mut f: impl FnMut(usize, &[u64])) {
        let n_outer = self.outer_cards.len();
        let k = self.inner_steps.len();
        scratch.digits.clear();
        scratch.digits.resize(n_outer, 0);
        scratch.bases.clear();
        scratch.bases.resize(k, 0);
        let digits = &mut scratch.digits;
        let bases = &mut scratch.bases;
        let mut pos = 0usize;
        'runs: loop {
            f(pos, bases);
            pos += self.inner_len;
            for ax in (0..n_outer).rev() {
                digits[ax] += 1;
                for (op, base) in bases.iter_mut().enumerate() {
                    *base += self.outer_steps[op][ax];
                }
                if digits[ax] < self.outer_cards[ax] {
                    continue 'runs;
                }
                digits[ax] = 0;
                for (op, base) in bases.iter_mut().enumerate() {
                    *base -= self.outer_steps[op][ax] * self.outer_cards[ax];
                }
            }
            return;
        }
    }
}

/// Original `product_many_in`: append-based stride walk.
pub fn product_many_in(factors: &[&Potential], scratch: &mut Scratch) -> Result<Potential> {
    let mut scope = Scope::empty();
    for f in factors {
        scope = scope.union(&f.scope);
    }
    let views: Vec<TableRef<'_>> = factors.iter().map(|f| f.view()).collect();
    let mut cards = Vec::new();
    resolve_cards(&scope, &views, &mut cards)?;
    let total = checked_len(&cards)?;
    let steps: Vec<Vec<u64>> = factors
        .iter()
        .map(|f| steps_of(&scope, &f.scope, &f.cards))
        .collect::<Result<_>>()?;
    let walk = Walk::plan(&cards, &steps);
    // the walk visits runs in row-major order covering every output
    // entry exactly once, so the kernels append (no zero-fill pass)
    let mut values = scratch.take_buf_empty(total as usize);

    match factors.len() {
        0 => values.resize(total as usize, 1.0),
        1 => {
            let a = &factors[0].values;
            let sa = walk.inner_steps[0];
            walk.for_each_run(scratch, |_, bases| {
                let mut oa = bases[0] as usize;
                if sa == 1 {
                    values.extend_from_slice(&a[oa..oa + walk.inner_len]);
                } else {
                    for _ in 0..walk.inner_len {
                        values.push(a[oa]);
                        oa += sa as usize;
                    }
                }
            });
        }
        2 => {
            let a = &factors[0].values;
            let b = &factors[1].values;
            let (sa, sb) = (walk.inner_steps[0], walk.inner_steps[1]);
            walk.for_each_run(scratch, |_, bases| {
                let (mut oa, mut ob) = (bases[0] as usize, bases[1] as usize);
                match (sa, sb) {
                    (1, 0) => {
                        let s = b[ob];
                        values.extend(a[oa..oa + walk.inner_len].iter().map(|&x| x * s));
                    }
                    (0, 1) => {
                        let s = a[oa];
                        values.extend(b[ob..ob + walk.inner_len].iter().map(|&x| x * s));
                    }
                    (1, 1) => {
                        values.extend(
                            a[oa..oa + walk.inner_len]
                                .iter()
                                .zip(&b[ob..ob + walk.inner_len])
                                .map(|(&x, &y)| x * y),
                        );
                    }
                    _ => {
                        for _ in 0..walk.inner_len {
                            values.push(a[oa] * b[ob]);
                            oa += sa as usize;
                            ob += sb as usize;
                        }
                    }
                }
            });
        }
        _ => {
            walk.for_each_run(scratch, |_, bases| {
                for i in 0..walk.inner_len {
                    let mut prod = 1.0;
                    for (f, (&base, &step)) in
                        factors.iter().zip(bases.iter().zip(&walk.inner_steps))
                    {
                        prod *= f.values[(base + i as u64 * step) as usize];
                    }
                    values.push(prod);
                }
            });
        }
    }
    debug_assert_eq!(values.len() as u64, total);
    Ok(Potential {
        scope,
        cards,
        values,
    })
}

/// Original two-factor product.
pub fn product_in(a: &Potential, b: &Potential, scratch: &mut Scratch) -> Result<Potential> {
    product_many_in(&[a, b], scratch)
}

/// Original `marginalize_in`: scalar accumulation chains only.
pub fn marginalize_in(p: &Potential, keep: &Scope, scratch: &mut Scratch) -> Result<Potential> {
    let target_scope = p.scope.intersect(keep);
    let positions: Vec<usize> = p
        .scope
        .iter()
        .enumerate()
        .filter(|(_, v)| target_scope.contains(*v))
        .map(|(i, _)| i)
        .collect();
    let t_cards: Vec<u32> = positions.iter().map(|&i| p.cards[i]).collect();
    let total = checked_len(&t_cards)?;
    let t_strides = strides_of(&t_cards);
    // step of each source axis within the target table (0 when summed out)
    let mut steps = vec![0u64; p.scope.len()];
    for (t_axis, &s_axis) in positions.iter().enumerate() {
        steps[s_axis] = t_strides[t_axis];
    }
    let walk = Walk::plan(&p.cards, std::slice::from_ref(&steps));
    let mut values = scratch.take_buf(total as usize);
    let src = &p.values;
    let st = walk.inner_steps[0];
    walk.for_each_run(scratch, |src_pos, bases| {
        let run = &src[src_pos..src_pos + walk.inner_len];
        let mut t = bases[0] as usize;
        match st {
            0 => {
                values[t] += run.iter().sum::<f64>();
            }
            1 => {
                for (slot, &v) in values[t..t + walk.inner_len].iter_mut().zip(run) {
                    *slot += v;
                }
            }
            _ => {
                for &v in run {
                    values[t] += v;
                    t += st as usize;
                }
            }
        }
    });
    Ok(Potential {
        scope: target_scope,
        cards: t_cards,
        values,
    })
}

/// Original `divide_in`: append-based, scalar Hugin division.
pub fn divide_in(p: &Potential, other: &Potential, scratch: &mut Scratch) -> Result<Potential> {
    if !other.scope.is_subset_of(&p.scope) {
        return Err(PgmError::ScopeNotContained {
            sub: other.scope.to_string(),
            sup: p.scope.to_string(),
        });
    }
    let steps = steps_of(&p.scope, &other.scope, &other.cards)?;
    let walk = Walk::plan(&p.cards, std::slice::from_ref(&steps));
    let mut values = scratch.take_buf_empty(p.values.len());
    let src = &p.values;
    let div = &other.values;
    let st = walk.inner_steps[0];
    walk.for_each_run(scratch, |pos, bases| {
        let run = &src[pos..pos + walk.inner_len];
        let mut o = bases[0] as usize;
        if st == 0 {
            let d = div[o];
            values.extend(
                run.iter()
                    .map(|&v| if d == 0.0 && v == 0.0 { 0.0 } else { v / d }),
            );
        } else {
            for &v in run {
                let d = div[o];
                values.push(if d == 0.0 && v == 0.0 { 0.0 } else { v / d });
                o += st as usize;
            }
        }
    });
    Ok(Potential {
        scope: p.scope.clone(),
        cards: p.cards.clone(),
        values,
    })
}

/// Original `restrict_in`: block-strided contiguous copies.
pub fn restrict_in(
    p: &Potential,
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
    let mut cards = p.cards.clone();
    cards.remove(axis);
    let strides = p.strides();
    let stride = strides[axis];
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
