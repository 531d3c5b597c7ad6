//! Pruned variable elimination for one query under pinned evidence,
//! planned once and run without copying a CPT.
//!
//! `P(targets, e)` only involves the ancestral set of `targets ∪ vars(e)`:
//! every other CPT sums out to 1 (barren nodes, Darwiche's *Dynamic
//! Jointrees*), so a [`VePlan`] multiplies only the CPTs of that set — each
//! family with the evidence variables sliced out ([`Pinned`]) — and
//! eliminates the rest of the set, as *Query the model*'s VE-n baseline
//! does for a query.
//!
//! The elimination order is min-degree, then the smaller table, then the
//! lower variable index, kept incrementally over neighbour bitsets: only
//! the neighbours of an eliminated variable are re-keyed. Each step is one
//! fused product → marginalize pass ([`product_marginalize_views`]) over
//! borrowed tables, charged with the workspace operation model: a product
//! over `U` of `k` factors costs `|table(U)| · k + |table(U)|`, and so does
//! the final combination onto the targets.
//!
//! This module shares no code with [`ve_answer`](crate::ve_answer) and
//! [`ve_cost`](crate::ve_cost), which stay the tests' independent oracle.

use peanut_pgm::{
    product_marginalize_views, BayesianNetwork, PgmError, Potential, Scope, Scratch, Size,
    TableRef, Var,
};

/// Bits per bitset word.
const WORD: usize = 64;

/// Words a bitset over `n` items takes.
fn words_for(n: usize) -> usize {
    n.div_ceil(WORD)
}

fn set(bits: &mut [u64], i: usize) {
    bits[i / WORD] |= 1 << (i % WORD);
}

fn clear(bits: &mut [u64], i: usize) {
    bits[i / WORD] &= !(1 << (i % WORD));
}

fn has(bits: &[u64], i: usize) -> bool {
    bits[i / WORD] >> (i % WORD) & 1 == 1
}

/// The set bits of `bits`, ascending.
fn ones(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        let mut left = word;
        std::iter::from_fn(move || {
            (left != 0).then(|| {
                let b = left.trailing_zeros() as usize;
                left &= left - 1;
                w * WORD + b
            })
        })
    })
}

/// A network pinned to one evidence assignment: each variable's parents
/// as a bitset, and the CPT of every family that holds an evidence
/// variable, sliced to the evidence values (the evidence variables leave
/// its scope). Made once per assignment; every [`VePlan`] under it borrows
/// the sliced tables and the network's other CPTs.
#[derive(Clone, Debug)]
pub struct Pinned {
    /// Words per variable bitset.
    words: usize,
    /// `words` words per variable: its parents.
    parents: Vec<u64>,
    /// The evidence variables.
    pinned: Vec<u64>,
    /// Per variable, its CPT sliced to the evidence where its family holds
    /// an evidence variable.
    sliced: Vec<Option<Potential>>,
}

impl Pinned {
    /// Pins `evidence` on `bn`. Unknown variables and out-of-range values
    /// fail with [`PgmError::UnknownVar`] / [`PgmError::ValueOutOfRange`];
    /// two values for one variable fail with
    /// [`PgmError::ImpossibleEvidence`]. A zero-probability assignment is
    /// not detected here: [`probability`](Self::probability) is `0` then.
    pub fn new(bn: &BayesianNetwork, evidence: &[(Var, u32)]) -> Result<Self, PgmError> {
        let domain = bn.domain();
        let n = domain.len();
        for &(v, value) in evidence {
            let card = domain.try_card(v)?;
            if value >= card {
                return Err(PgmError::ValueOutOfRange {
                    var: v,
                    value,
                    card,
                });
            }
        }
        let mut sorted = evidence.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(PgmError::ImpossibleEvidence(evidence.to_vec()));
        }
        let words = words_for(n);
        let mut pinned = vec![0; words];
        for &(v, _) in &sorted {
            set(&mut pinned, v.index());
        }
        let mut parents = vec![0; n * words];
        let mut sliced = Vec::with_capacity(n);
        let mut scratch = Scratch::new();
        for v in domain.all_vars() {
            for p in bn.parents(v) {
                set(&mut parents[v.index() * words..][..words], p.index());
            }
            let cpt = bn.cpt(v);
            let mut slice: Option<Potential> = None;
            for &u in cpt.scope().vars() {
                if !has(&pinned, u.index()) {
                    continue;
                }
                let value = sorted[sorted.partition_point(|&(w, _)| w < u)].1;
                let next = match &slice {
                    Some(p) => p.restrict_in(u, value, &mut scratch)?,
                    None => cpt.restrict_in(u, value, &mut scratch)?,
                };
                if let Some(spent) = slice.replace(next) {
                    scratch.recycle(spent);
                }
            }
            sliced.push(slice);
        }
        Ok(Pinned {
            words,
            parents,
            pinned,
            sliced,
        })
    }

    /// True when `v` is an evidence variable.
    pub fn is_pinned(&self, v: Var) -> bool {
        v.index() < self.sliced.len() && has(&self.pinned, v.index())
    }

    /// `P(e)`: every variable of the evidence's ancestral set eliminated.
    pub fn probability(
        &self,
        bn: &BayesianNetwork,
        scratch: &mut Scratch,
    ) -> Result<f64, PgmError> {
        let joint = VePlan::new(bn, self, &Scope::empty())?.run(bn, self, scratch)?;
        Ok(joint.values()[0])
    }

    /// The factor of `v`: its sliced CPT, or the network's.
    fn factor<'a>(&'a self, bn: &'a BayesianNetwork, v: Var) -> TableRef<'a> {
        self.sliced[v.index()]
            .as_ref()
            .unwrap_or_else(|| bn.cpt(v))
            .view()
    }
}

/// What a step multiplies in.
#[derive(Clone, Copy, Debug)]
enum Input {
    /// A variable's factor ([`Pinned::factor`]).
    Cpt(Var),
    /// The table an earlier step made.
    Made(usize),
}

/// One fused product → marginalize pass.
#[derive(Clone, Debug)]
struct Step {
    /// Its inputs end here in [`VePlan::inputs`] (they start where the
    /// previous step's end).
    end: usize,
    /// The scope it sums onto.
    keep: Scope,
}

/// A pruned variable-elimination plan for `P(targets, e)`: the steps, each
/// one fused pass over borrowed tables, and the operations they are
/// charged (module docs). Plan it with the network and the [`Pinned`]
/// evidence it is [`run`](Self::run) with.
#[derive(Clone, Debug)]
pub struct VePlan {
    steps: Vec<Step>,
    inputs: Vec<Input>,
    ops: Size,
}

impl VePlan {
    /// Plans `P(targets, e)` over the ancestral set of `targets ∪ vars(e)`.
    /// A target outside the network fails with [`PgmError::UnknownVar`];
    /// a pinned target with [`PgmError::ScopeNotContained`] (the plan's
    /// answer has no evidence variable in its scope).
    pub fn new(bn: &BayesianNetwork, pinned: &Pinned, targets: &Scope) -> Result<Self, PgmError> {
        let domain = bn.domain();
        let n = domain.len();
        let w = pinned.words;
        let mut wanted = vec![0u64; w];
        for t in targets {
            domain.try_card(t)?;
            if pinned.is_pinned(t) {
                return Err(PgmError::ScopeNotContained {
                    sub: targets.to_string(),
                    sup: "the unpinned variables".to_string(),
                });
            }
            set(&mut wanted, t.index());
        }
        // the ancestral set, closed over the parent bitsets
        let mut ancestral = wanted.clone();
        for (a, p) in ancestral.iter_mut().zip(&pinned.pinned) {
            *a |= p;
        }
        let mut stack: Vec<usize> = ones(&ancestral).collect();
        while let Some(v) = stack.pop() {
            for (i, &parents) in pinned.parents[v * w..][..w].iter().enumerate() {
                let mut fresh = parents & !ancestral[i];
                ancestral[i] |= fresh;
                while fresh != 0 {
                    stack.push(i * WORD + fresh.trailing_zeros() as usize);
                    fresh &= fresh - 1;
                }
            }
        }

        // the free variables of the set, renumbered densely (ascending, so
        // local order is variable order)
        let mut locals: Vec<Var> = Vec::new();
        let mut local_of = vec![u32::MAX; n];
        for v in ones(&ancestral) {
            if !has(&pinned.pinned, v) {
                local_of[v] = locals.len() as u32;
                locals.push(Var(v as u32));
            }
        }
        let m = locals.len();
        let lw = words_for(m).max(1);
        let cards: Vec<Size> = locals.iter().map(|&v| Size::from(domain.card(v))).collect();
        let size_of = |bits: &[u64], extra: Option<usize>| -> Size {
            ones(bits)
                .chain(extra)
                .fold(1, |t: Size, i| t.saturating_mul(cards[i]))
        };

        // factors: one per variable of the set, then one per step; each a
        // local-scope bitset of `lw` words
        let mut scopes: Vec<u64> = Vec::new();
        let mut factor_input: Vec<Input> = Vec::new();
        let mut live: Vec<usize> = Vec::new();
        for v in ones(&ancestral) {
            let f = factor_input.len();
            factor_input.push(Input::Cpt(Var(v as u32)));
            scopes.resize((f + 1) * lw, 0);
            for u in pinned.factor(bn, Var(v as u32)).scope() {
                set(&mut scopes[f * lw..][..lw], local_of[u.index()] as usize);
            }
            live.push(f);
        }

        // neighbour bitsets of the interaction graph, and each candidate's
        // key: (degree, table over it and its neighbours)
        let mut nbrs = vec![0u64; m * lw];
        for &f in &live {
            for i in ones(&scopes[f * lw..][..lw]) {
                for (x, s) in nbrs[i * lw..][..lw].iter_mut().zip(&scopes[f * lw..][..lw]) {
                    *x |= s;
                }
            }
        }
        for i in 0..m {
            clear(&mut nbrs[i * lw..][..lw], i);
        }
        let key = |nbrs: &[u64], i: usize| -> (u32, Size) {
            let row = &nbrs[i * lw..][..lw];
            (
                row.iter().map(|x| x.count_ones()).sum(),
                size_of(row, Some(i)),
            )
        };
        let mut candidates: Vec<usize> = (0..m)
            .filter(|&i| !has(&wanted, locals[i].index()))
            .collect();
        let mut keys: Vec<(u32, Size)> = (0..m).map(|i| key(&nbrs, i)).collect();

        let mut plan = VePlan {
            steps: Vec::with_capacity(candidates.len() + 1),
            inputs: Vec::new(),
            ops: 0,
        };
        let mut row = vec![0u64; lw];
        // min key, ties to the lower index
        while let Some((at, &x)) = candidates
            .iter()
            .enumerate()
            .min_by_key(|&(_, &i)| (keys[i], i))
        {
            candidates.swap_remove(at);
            row.copy_from_slice(&nbrs[x * lw..][..lw]);
            // gather every live factor over x
            let mut k = 0usize;
            live.retain(|&f| {
                let over_x = has(&scopes[f * lw..][..lw], x);
                if over_x {
                    plan.inputs.push(factor_input[f]);
                    k += 1;
                }
                !over_x
            });
            let table = size_of(&row, Some(x));
            plan.charge(table, k);
            let made = Input::Made(plan.steps.len());
            plan.steps.push(Step {
                end: plan.inputs.len(),
                keep: Scope::from_iter(ones(&row).map(|i| locals[i])),
            });
            let f = factor_input.len();
            factor_input.push(made);
            scopes.extend_from_slice(&row);
            live.push(f);
            // x's neighbours become each other's, and lose x
            for y in ones(&row) {
                let ny = &mut nbrs[y * lw..][..lw];
                for (a, b) in ny.iter_mut().zip(&row) {
                    *a |= b;
                }
                clear(ny, y);
                clear(ny, x);
                keys[y] = key(&nbrs, y);
            }
        }

        // the final combination onto the targets
        row.fill(0);
        for &f in &live {
            for (a, b) in row.iter_mut().zip(&scopes[f * lw..][..lw]) {
                *a |= b;
            }
            plan.inputs.push(factor_input[f]);
        }
        plan.charge(size_of(&row, None), live.len());
        plan.steps.push(Step {
            end: plan.inputs.len(),
            keep: targets.clone(),
        });
        Ok(plan)
    }

    /// Charges one product over a table of `table` entries of `k` factors.
    fn charge(&mut self, table: Size, k: usize) {
        let ops = table.saturating_mul(k as Size).saturating_add(table);
        self.ops = self.ops.saturating_add(ops);
    }

    /// The operations the plan is charged.
    pub fn ops(&self) -> Size {
        self.ops
    }

    /// The variables it eliminates (one step each; the final combination
    /// is not counted).
    #[cfg(test)]
    fn eliminations(&self) -> usize {
        self.steps.len() - 1
    }

    /// Runs the plan: `P(targets, e)`, unnormalized, over the sorted
    /// targets. `bn` and `pinned` must be the ones it was planned with.
    /// Intermediate tables are recycled into `scratch` as soon as the step
    /// that reads them has run.
    pub fn run(
        &self,
        bn: &BayesianNetwork,
        pinned: &Pinned,
        scratch: &mut Scratch,
    ) -> Result<Potential, PgmError> {
        let mut made: Vec<Option<Potential>> = Vec::with_capacity(self.steps.len());
        let mut start = 0;
        for step in &self.steps {
            let inputs = &self.inputs[start..step.end];
            start = step.end;
            let views: Vec<TableRef<'_>> = inputs
                .iter()
                .map(|&input| match input {
                    Input::Cpt(v) => pinned.factor(bn, v),
                    Input::Made(i) => made[i]
                        .as_ref()
                        .expect("a step's table is read by one later step")
                        .view(),
                })
                .collect();
            let out = product_marginalize_views(&views, &step.keep, scratch)?;
            drop(views);
            for &input in inputs {
                if let Input::Made(i) = input {
                    if let Some(spent) = made[i].take() {
                        scratch.recycle(spent);
                    }
                }
            }
            made.push(Some(out));
        }
        Ok(made
            .pop()
            .flatten()
            .unwrap_or_else(|| Potential::scalar(1.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peanut_pgm::{fixtures, joint};

    /// `P(targets, e)` by enumerating the full joint.
    fn enumerated(bn: &BayesianNetwork, targets: &Scope, evidence: &[(Var, u32)]) -> Potential {
        let pins = Scope::from_iter(evidence.iter().map(|&(v, _)| v));
        let mut p = joint::marginal(bn, &targets.union(&pins)).unwrap();
        for &(v, value) in evidence {
            p = p.restrict(v, value).unwrap();
        }
        p
    }

    fn assert_matches(bn: &BayesianNetwork, targets: &Scope, evidence: &[(Var, u32)]) {
        let pinned = Pinned::new(bn, evidence).unwrap();
        let plan = VePlan::new(bn, &pinned, targets).unwrap();
        let got = plan.run(bn, &pinned, &mut Scratch::new()).unwrap();
        let want = enumerated(bn, targets, evidence);
        let diff = got.max_abs_diff(&want).unwrap();
        assert!(diff < 1e-12, "P({targets}, {evidence:?}) off by {diff}");
        assert!(plan.ops() > 0);
    }

    #[test]
    fn matches_enumeration_without_evidence() {
        for bn in [
            fixtures::figure1(),
            fixtures::sprinkler(),
            fixtures::chain(9, 3, 4),
        ] {
            let n = bn.n_vars() as u32;
            for a in 0..n {
                assert_matches(&bn, &Scope::from_indices(&[a]), &[]);
                for b in (a + 1)..n {
                    assert_matches(&bn, &Scope::from_indices(&[a, b]), &[]);
                }
            }
            assert_matches(&bn, &bn.domain().full_scope(), &[]);
        }
    }

    #[test]
    fn matches_enumeration_with_evidence() {
        for bn in [
            fixtures::figure1(),
            fixtures::sprinkler(),
            fixtures::chain(9, 3, 4),
        ] {
            let n = bn.n_vars() as u32;
            for e in 0..n {
                // one pin, or two (the middle variable pins one)
                for other in [e, n - 1 - e] {
                    let mut evidence = vec![(Var(e), 1)];
                    if other != e {
                        evidence.push((Var(other), 0));
                    }
                    let pins = Scope::from_iter(evidence.iter().map(|&(v, _)| v));
                    for a in (0..n).filter(|&a| !pins.contains(Var(a))) {
                        assert_matches(&bn, &Scope::from_indices(&[a]), &evidence);
                        for b in (a + 1..n).filter(|&b| !pins.contains(Var(b))) {
                            assert_matches(&bn, &Scope::from_indices(&[a, b]), &evidence);
                        }
                    }
                    assert_matches(&bn, &Scope::empty(), &evidence);
                }
            }
        }
    }

    #[test]
    fn probability_of_evidence_is_enumerated() {
        let bn = fixtures::sprinkler();
        let d = bn.domain();
        let wet = d.var("wet").unwrap();
        let rain = d.var("rain").unwrap();
        for evidence in [vec![(wet, 1)], vec![(wet, 0), (rain, 1)]] {
            let pinned = Pinned::new(&bn, &evidence).unwrap();
            let got = pinned.probability(&bn, &mut Scratch::new()).unwrap();
            let want = enumerated(&bn, &Scope::empty(), &evidence).values()[0];
            assert!((got - want).abs() < 1e-15, "{got} vs {want}");
        }
        // sprinkler off, rain off, grass wet: zero under the model
        let none = [(d.var("sprinkler").unwrap(), 0), (rain, 0), (wet, 1)];
        let pinned = Pinned::new(&bn, &none).unwrap();
        assert_eq!(pinned.probability(&bn, &mut Scratch::new()).unwrap(), 0.0);
    }

    /// Barren variables are pruned: on a chain, `P(x0)` touches one CPT,
    /// and evidence downstream pulls in only its ancestors.
    #[test]
    fn only_the_ancestral_set_is_planned() {
        let bn = fixtures::chain(12, 2, 3);
        let none = Pinned::new(&bn, &[]).unwrap();
        let first = VePlan::new(&bn, &none, &Scope::from_indices(&[0])).unwrap();
        assert_eq!((first.eliminations(), first.ops()), (0, 4));
        let pinned = Pinned::new(&bn, &[(Var(5), 1)]).unwrap();
        let plan = VePlan::new(&bn, &pinned, &Scope::from_indices(&[2])).unwrap();
        // x0, x1, x3, x4 are summed out; x6..x11 are never touched
        assert_eq!(plan.eliminations(), 4);
    }

    #[test]
    fn bad_inputs_fail_typed() {
        let bn = fixtures::sprinkler();
        assert!(matches!(
            Pinned::new(&bn, &[(Var(99), 0)]),
            Err(PgmError::UnknownVar(_))
        ));
        assert!(matches!(
            Pinned::new(&bn, &[(Var(0), 7)]),
            Err(PgmError::ValueOutOfRange { .. })
        ));
        assert!(matches!(
            Pinned::new(&bn, &[(Var(1), 0), (Var(1), 1)]),
            Err(PgmError::ImpossibleEvidence(_))
        ));
        // a repeated pair is one pin
        let pinned = Pinned::new(&bn, &[(Var(1), 0), (Var(1), 0)]).unwrap();
        assert!(pinned.is_pinned(Var(1)) && !pinned.is_pinned(Var(0)));
        assert!(matches!(
            VePlan::new(&bn, &pinned, &Scope::from_indices(&[1])),
            Err(PgmError::ScopeNotContained { .. })
        ));
        assert!(matches!(
            VePlan::new(&bn, &pinned, &Scope::from_indices(&[42])),
            Err(PgmError::UnknownVar(_))
        ));
    }

    #[test]
    fn runs_are_deterministic_bitwise() {
        let bn = fixtures::figure1();
        let pinned = Pinned::new(&bn, &[(Var(0), 1), (Var(9), 0)]).unwrap();
        let targets = Scope::from_indices(&[3, 6]);
        let plan = VePlan::new(&bn, &pinned, &targets).unwrap();
        let mut scratch = Scratch::new();
        let a = plan.run(&bn, &pinned, &mut scratch).unwrap();
        let b = plan.run(&bn, &pinned, &mut scratch).unwrap();
        let replanned = VePlan::new(&bn, &pinned, &targets).unwrap();
        let c = replanned.run(&bn, &pinned, &mut Scratch::new()).unwrap();
        let bits = |p: &Potential| p.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
        assert_eq!(bits(&a), bits(&c));
    }
}
