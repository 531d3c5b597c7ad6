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
//! lower variable index. The planner sizes its buffers once, from the
//! ancestral set, so a plan costs the same few allocations whatever its
//! length: every scope is a bitset row over the set's free variables, and
//! each variable keeps the set of live factors over it, so no step scans
//! the live factors. Each candidate's key is packed into one `u128`, and
//! only the neighbours of an eliminated variable are re-keyed; the next
//! variable is the least key. With no key recomputed, a scan of the
//! packed keys finds it faster than a binary heap did on the plans of
//! the six datasets timed, whose ancestral sets are at most a few
//! hundred variables. Each step is one fused product →
//! marginalize pass ([`product_marginalize_views`]) over borrowed tables,
//! charged with the workspace operation model: a product over `U` of `k`
//! factors costs `|table(U)| · k + |table(U)|`, and so does the final
//! combination onto the targets.
//!
//! # The factor memos
//!
//! The factors a plan's eliminations make are filed in two memos. Each
//! step but the final combination is filed under its key — its inputs in
//! the plan's order, each a CPT's variable or the tagged memo id of a
//! filed factor, then the scope it sums onto — and a later run of any
//! plan that reaches a step of that key takes the filed table instead of
//! computing it. A step that reads a table neither memo holds is neither
//! looked up nor filed.
//!
//! * A step whose every input is an unsliced CPT or a factor of the
//!   network's memo makes the same table under every evidence assignment,
//!   so it goes to the network's [`FactorMemo`], which every pinning of
//!   one network shares (*Dynamic Jointrees*: these factors do not depend
//!   on the evidence).
//! * A step that reads a sliced CPT, or a factor the pinning's own memo
//!   filed, is valid for this one evidence assignment: it goes to the
//!   pinning's own memo.
//!
//! A factor's id carries its memo's tag, so an id of one memo never names
//! a factor of the other inside a key. By induction on the key a taken
//! table is bit for bit the one the step would compute: a CPT input of a
//! network key names one unsliced CPT of the network, one of a pinning's
//! key one table of the pinning, a tagged id one table its memo holds, and
//! the kernel's result depends only on its ordered inputs and the kept
//! scope. So a network memo is valid for exactly one network: whoever
//! holds it keeps it beside that network's CPTs, and never hands it to a
//! pinning of another network.
//!
//! Each memo is an [`ExactMemo`], whose module states the cache
//! discipline; each is bounded by `FACTOR_ENTRIES` (2¹⁸) table entries,
//! and admits every step that fits. It is locked for each lookup and each
//! filing, never across a kernel call. A plan is charged [`VePlan::ops`]
//! whatever it takes from the memos, as the junction tree's message memos
//! leave the paper's count alone.
//!
//! This module shares no code with [`ve_answer`](crate::ve_answer) and
//! [`ve_cost`](crate::ve_cost), which stay the tests' independent oracle.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use peanut_pgm::memo::Weigh;
use peanut_pgm::{
    product_marginalize_views, BayesianNetwork, ExactMemo, MemoUsage, PgmError, Potential, Scope,
    Scratch, Size, TableRef, Var, Work,
};
use std::sync::Arc;

/// A factor memo holds at most this many table entries: 2 MiB of values.
const FACTOR_ENTRIES: usize = 1 << 18;

/// Set on a key input that is a filed factor's id; variable indices stay
/// below it.
const FILED: u32 = 1 << 31;

/// The tag of a pinning's own memo, set on the ids it hands out; a
/// network memo's ids, at most its bound, stay below it.
const OWN: u32 = 1 << 30;

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

/// The lowest set bit of `bits`.
fn first(bits: &[u64]) -> Option<usize> {
    ones(bits).next()
}

/// The set bits of `bits`, ascending.
fn ones(bits: &[u64]) -> Ones<'_> {
    Ones {
        words: bits,
        at: 0,
        left: bits.first().copied().unwrap_or(0),
    }
}

/// The iterator of [`ones`].
struct Ones<'a> {
    words: &'a [u64],
    /// The word `left` was read from.
    at: usize,
    /// Its bits not yet yielded.
    left: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.left == 0 {
            self.at += 1;
            self.left = *self.words.get(self.at)?;
        }
        let b = self.left.trailing_zeros() as usize;
        self.left &= self.left - 1;
        Some(self.at * WORD + b)
    }

    // exact, so that a `Scope` refilled from a row reserves once
    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.words.get(self.at + 1..).unwrap_or_default();
        let n = rest
            .iter()
            .fold(self.left.count_ones(), |n, w| n + w.count_ones()) as usize;
        (n, Some(n))
    }
}

/// A network pinned to one evidence assignment: each variable's parents
/// as a bitset, the CPT of every family that holds an evidence variable,
/// sliced to the evidence values (the evidence variables leave its scope),
/// the network's factor memo and the pinning's own (module docs). Made
/// once per assignment; every [`VePlan`] under it borrows the sliced
/// tables and the network's other CPTs. A clone shares the network's memo;
/// its own starts empty, with the same bound.
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
    /// The steps over unsliced CPTs, shared by every pinning of the network.
    network: Arc<FactorMemo>,
    /// The steps that read a sliced CPT.
    own: FactorMemo,
}

impl Pinned {
    /// Pins `evidence` on `bn`, with empty factor memos: the network's
    /// is this pinning's alone. Unknown variables and out-of-range values
    /// fail with [`PgmError::UnknownVar`] / [`PgmError::ValueOutOfRange`];
    /// two values for one variable fail with
    /// [`PgmError::ImpossibleEvidence`]. A zero-probability assignment is
    /// not detected here: [`probability`](Self::probability) is `0` then.
    pub fn new(bn: &BayesianNetwork, evidence: &[(Var, u32)]) -> Result<Self, PgmError> {
        Self::sharing(bn, evidence, &Arc::default())
    }

    /// [`new`](Self::new), sharing `network` — the memo of `bn`'s steps
    /// over unsliced CPTs — with every other pinning of `bn`, and an empty
    /// memo of its own. `network` must be `bn`'s alone (module docs).
    pub fn sharing(
        bn: &BayesianNetwork,
        evidence: &[(Var, u32)],
        network: &Arc<FactorMemo>,
    ) -> Result<Self, PgmError> {
        Self::pin(
            bn,
            evidence,
            Arc::clone(network),
            FactorMemo::with(OWN, FACTOR_ENTRIES),
        )
    }

    /// [`sharing`](Self::sharing) `network`, with `own` as its own memo.
    fn pin(
        bn: &BayesianNetwork,
        evidence: &[(Var, u32)],
        network: Arc<FactorMemo>,
        own: FactorMemo,
    ) -> Result<Self, PgmError> {
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
            network,
            own,
        })
    }

    /// True when `v` is an evidence variable.
    pub fn is_pinned(&self, v: Var) -> bool {
        v.index() < self.sliced.len() && has(&self.pinned, v.index())
    }

    /// The network's memo, which other pinnings may share, and this
    /// pinning's own.
    pub fn memos(&self) -> (&FactorMemo, &FactorMemo) {
        (&self.network, &self.own)
    }

    /// `P(e)`: every variable of the evidence's ancestral set eliminated.
    /// Its steps are filed in the memos like any plan's.
    pub fn probability(
        &self,
        bn: &BayesianNetwork,
        scratch: &mut Scratch,
    ) -> Result<f64, PgmError> {
        let (joint, _) = VePlan::new(bn, self, &Scope::empty())?.run(bn, self, scratch)?;
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

/// The factors plans made, filed by key (module docs, "The factor
/// memos"): one network's steps over unsliced CPTs, shared by its
/// pinnings ([`Pinned::sharing`]), or one pinning's own. The default is an
/// empty network memo bounded by `FACTOR_ENTRIES`.
#[derive(Clone, Debug)]
pub struct FactorMemo {
    /// Set on every id it hands out.
    tag: u32,
    memo: ExactMemo<u32, Factor>,
}

/// A filed factor: its tagged id, and its table.
struct Factor(u32, Arc<Potential>);

impl Weigh<u32> for Factor {
    fn weight(&self, _: &[u32]) -> usize {
        self.1.len()
    }
}

impl Default for FactorMemo {
    fn default() -> Self {
        Self::with(0, FACTOR_ENTRIES)
    }
}

impl FactorMemo {
    /// An empty memo tagging its ids with `tag`, holding at most `cap`
    /// entries.
    fn with(tag: u32, cap: usize) -> Self {
        FactorMemo {
            tag,
            memo: ExactMemo::new(cap),
        }
    }

    /// What the memo holds.
    pub fn usage(&self) -> MemoUsage {
        self.memo.usage()
    }

    /// The table filed under `key`, counted as taken.
    fn take(&self, key: &[u32]) -> Option<Made> {
        self.memo.take(key, |Factor(id, table)| {
            Some(Made::Filed(*id, Arc::clone(table)))
        })
    }

    /// Files `table` under `key` if it fits; a key another run filed since
    /// the lookup keeps the table filed first, bit for bit this one.
    fn file(&self, key: &[u32], table: Potential) -> Made {
        let Some(mut shelf) = self.memo.open() else {
            return Made::Own(table);
        };
        // at most `cap` factors of one entry or more, far below the tags
        let id = shelf.filed() as u32 | self.tag;
        match shelf.file(key, Factor(id, Arc::new(table))) {
            Ok(Factor(id, held)) => Made::Filed(*id, Arc::clone(held)),
            Err(Factor(_, table)) => Made::Own(Arc::unwrap_or_clone(table)),
        }
    }
}

/// A table a run made or took, until the step that reads it.
enum Made {
    /// Computed by this run and filed nowhere: recycled once read.
    Own(Potential),
    /// Filed in a memo under this tagged id: held there, never recycled.
    Filed(u32, Arc<Potential>),
    /// Read by its step.
    Spent,
}

impl Made {
    fn table(&self) -> Option<&Potential> {
        match self {
            Made::Own(p) => Some(p),
            Made::Filed(_, p) => Some(p),
            Made::Spent => None,
        }
    }
}

/// What a step multiplies in.
#[derive(Clone, Copy, Debug)]
#[cfg_attr(test, derive(PartialEq, Eq))]
enum Input {
    /// A variable's factor ([`Pinned::factor`]).
    Cpt(Var),
    /// The table an earlier step made.
    Made(usize),
}

/// One fused product → marginalize pass; the scope it sums onto is its
/// row of [`VePlan::keeps`].
#[derive(Clone, Copy, Debug)]
#[cfg_attr(test, derive(PartialEq, Eq))]
struct Step {
    /// Its inputs end here in [`VePlan::inputs`] (they start where the
    /// previous step's end).
    end: usize,
    /// Entries of the product it sums.
    product: Size,
}

/// A pruned variable-elimination plan for `P(targets, e)`: the steps, each
/// one fused pass over borrowed tables, and the operations they are
/// charged (module docs). Plan it with the network and the [`Pinned`]
/// evidence it is [`run`](Self::run) with.
#[derive(Clone, Debug)]
#[cfg_attr(test, derive(PartialEq, Eq))]
pub struct VePlan {
    /// The free variables of the ancestral set, ascending: bit `i` of a
    /// row of `keeps` is `locals[i]`.
    locals: Vec<Var>,
    /// Words per row of `keeps`.
    words: usize,
    /// `words` words per step: the scope it sums onto (the last step's,
    /// the targets).
    keeps: Vec<u64>,
    steps: Vec<Step>,
    inputs: Vec<Input>,
    ops: Size,
}

/// No slot: a variable eliminated, or never queued.
const NONE: u32 = u32::MAX;

/// The variables left to eliminate: their keys ([`key_of`]), unordered,
/// and each variable's slot among them.
struct Queue {
    keys: Vec<u128>,
    /// Per local variable, the index of its key in `keys`, or [`NONE`].
    slot: Vec<u32>,
}

impl Queue {
    fn push(&mut self, key: u128) {
        self.slot[var_of(key)] = self.keys.len() as u32;
        self.keys.push(key);
    }

    /// The least key, taken out.
    fn pop(&mut self) -> Option<u128> {
        let (at, &top) = self.keys.iter().enumerate().min_by_key(|&(_, &k)| k)?;
        self.keys.swap_remove(at);
        if let Some(&moved) = self.keys.get(at) {
            self.slot[var_of(moved)] = at as u32;
        }
        self.slot[var_of(top)] = NONE;
        Some(top)
    }

    fn queued(&self, i: usize) -> bool {
        self.slot[i] != NONE
    }

    /// Replaces the key of a queued variable.
    fn rekey(&mut self, key: u128) {
        self.keys[self.slot[var_of(key)] as usize] = key;
    }
}

/// Charges to `ops` one product over a table of `table` entries of `k`
/// factors.
fn charge(ops: &mut Size, table: Size, k: usize) {
    *ops = ops.saturating_add(table.saturating_mul(k as Size).saturating_add(table));
}

/// The entries of a table over the variables of `row`, and `extra`.
fn size_of(cards: &[u64], row: &[u64], extra: Option<usize>) -> Size {
    // saturating: `min(product, Size::MAX)` in any order
    let mut t: Size = extra.map_or(1, |i| cards[i]);
    for i in ones(row) {
        t = t.saturating_mul(cards[i]);
    }
    t
}

/// The elimination key of local variable `i`, whose neighbours are `row`:
/// its degree, then the entries of the table over it and them, then `i`,
/// packed from the high bits down, so that the least key is the variable
/// eliminated next.
fn key_of(cards: &[u64], row: &[u64], i: usize) -> u128 {
    let degree: u32 = row.iter().map(|x| x.count_ones()).sum();
    u128::from(degree) << 96 | u128::from(size_of(cards, row, Some(i))) << 32 | i as u128
}

/// The variable of a key.
fn var_of(key: u128) -> usize {
    key as u32 as usize
}

/// The table entries of a key.
fn table_of(key: u128) -> Size {
    (key >> 32) as Size
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
        // bitsets over the network: the ancestral set; the variables whose
        // parents are left to visit, then the free variables of the set;
        // per word, the free variables below it
        let mut sets = vec![0u64; 3 * w];
        let (ancestral, rest) = sets.split_at_mut(w);
        let (todo, below) = rest.split_at_mut(w);
        for t in targets {
            domain.try_card(t)?;
            if pinned.is_pinned(t) {
                return Err(PgmError::ScopeNotContained {
                    sub: targets.to_string(),
                    sup: "the unpinned variables".to_string(),
                });
            }
            set(todo, t.index());
        }
        for (t, p) in todo.iter_mut().zip(&pinned.pinned) {
            *t |= p;
        }
        ancestral.copy_from_slice(todo);
        while let Some(v) = first(todo) {
            clear(todo, v);
            for ((a, t), &parents) in ancestral
                .iter_mut()
                .zip(todo.iter_mut())
                .zip(&pinned.parents[v * w..][..w])
            {
                let fresh = parents & !*a;
                *a |= fresh;
                *t |= fresh;
            }
        }
        let free = todo;
        let mut m = 0;
        for ((f, b), (&a, &p)) in free
            .iter_mut()
            .zip(below.iter_mut())
            .zip(ancestral.iter().zip(&pinned.pinned))
        {
            *f = a & !p;
            *b = m as u64;
            m += f.count_ones() as usize;
        }
        let (free, below) = (&*free, &*below);
        // the free variables, renumbered densely in variable order
        let local = |v: Var| {
            let (word, bit) = (v.index() / WORD, v.index() % WORD);
            below[word] as usize + (free[word] & ((1 << bit) - 1)).count_ones() as usize
        };
        let mut locals = Vec::with_capacity(m);
        locals.extend(ones(free).map(|v| Var(v as u32)));

        // factors: one per variable of the set, with the variable's index
        // for id; then one per step, with id `n` + the step's index
        let eliminated = m - targets.len();
        let factors = n + eliminated;
        let lw = words_for(m).max(1);
        let fw = words_for(factors);
        let cpts: usize = ancestral.iter().map(|a| a.count_ones() as usize).sum();
        let mut keeps = vec![0; (eliminated + 1) * lw];
        let mut steps = Vec::with_capacity(eliminated + 1);
        // each factor is read by exactly one step
        let mut inputs = Vec::with_capacity(cpts + eliminated);
        let mut ops: Size = 0;
        let input = |g: usize| {
            if g < n {
                Input::Cpt(Var(g as u32))
            } else {
                Input::Made(g - n)
            }
        };
        // per local variable: its cardinality, its neighbours in the
        // interaction graph, and the live factors over it; then the live
        // factors
        let mut buf = vec![0u64; m + m * lw + m * fw + fw];
        let (cards, rest) = buf.split_at_mut(m);
        let (nbrs, rest) = rest.split_at_mut(m * lw);
        let (over, alive) = rest.split_at_mut(m * fw);
        for (c, &v) in cards.iter_mut().zip(&locals) {
            *c = Size::from(domain.card(v));
        }
        // the last row of `keeps` holds each factor's scope in turn
        let (made, last) = keeps.split_at_mut(eliminated * lw);
        for v in ones(ancestral) {
            set(alive, v);
            last.fill(0);
            for u in pinned.factor(bn, Var(v as u32)).scope() {
                set(last, local(u));
            }
            for i in ones(last) {
                set(&mut over[i * fw..][..fw], v);
                for (x, s) in nbrs[i * lw..][..lw].iter_mut().zip(&*last) {
                    *x |= s;
                }
            }
        }
        let mut queue = Queue {
            keys: Vec::with_capacity(eliminated),
            slot: vec![0; m],
        };
        for t in targets {
            queue.slot[local(t)] = NONE;
        }
        for i in 0..m {
            let row = &mut nbrs[i * lw..][..lw];
            clear(row, i);
            if queue.queued(i) {
                queue.push(key_of(cards, row, i));
            }
        }

        // min key, ties to the lower index
        while let Some(key) = queue.pop() {
            let (x, s) = (var_of(key), steps.len());
            let row = &mut made[s * lw..][..lw];
            row.copy_from_slice(&nbrs[x * lw..][..lw]);
            let row = &*row;
            // the live factors over x, ascending, are its inputs
            let start = inputs.len();
            for (i, (&o, a)) in over[x * fw..][..fw]
                .iter()
                .zip(alive.iter_mut())
                .enumerate()
            {
                let mut live = o & *a;
                *a &= !o;
                while live != 0 {
                    inputs.push(input(i * WORD + live.trailing_zeros() as usize));
                    live &= live - 1;
                }
            }
            // the table over x and its neighbours
            let table = table_of(key);
            charge(&mut ops, table, inputs.len() - start);
            steps.push(Step {
                end: inputs.len(),
                product: table,
            });
            set(alive, n + s);
            // x's neighbours hold the step's factor, become each other's,
            // and lose x
            for y in ones(row) {
                set(&mut over[y * fw..][..fw], n + s);
                let ny = &mut nbrs[y * lw..][..lw];
                for (a, b) in ny.iter_mut().zip(row) {
                    *a |= b;
                }
                clear(ny, y);
                clear(ny, x);
                if queue.queued(y) {
                    queue.rekey(key_of(cards, ny, y));
                }
            }
        }

        // the final combination onto the targets
        last.fill(0);
        let start = inputs.len();
        for g in ones(alive) {
            inputs.push(input(g));
            if g < n {
                for u in pinned.factor(bn, Var(g as u32)).scope() {
                    set(last, local(u));
                }
            } else {
                for (a, b) in last.iter_mut().zip(&made[(g - n) * lw..][..lw]) {
                    *a |= b;
                }
            }
        }
        let product = size_of(cards, last, None);
        last.fill(0);
        for t in targets {
            set(last, local(t));
        }
        charge(&mut ops, product, inputs.len() - start);
        steps.push(Step {
            end: inputs.len(),
            product,
        });
        Ok(VePlan {
            locals,
            words: lw,
            keeps,
            steps,
            inputs,
            ops,
        })
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

    /// The scope step `s` sums onto, ascending.
    fn kept(&self, s: usize) -> impl Iterator<Item = Var> + '_ {
        ones(&self.keeps[s * self.words..][..self.words]).map(|i| self.locals[i])
    }

    /// Runs the plan: `P(targets, e)`, unnormalized, over the sorted
    /// targets, and what the run executed — eliminated, the steps it took
    /// from the memo and the product entries of those it computed. `bn`
    /// and `pinned` must be the ones it was planned with.
    /// Each step but the last is taken from `pinned`'s memos where it is
    /// filed, and filed there once computed while it fits (module docs,
    /// "The factor memos"); filed tables are held by their memo, not
    /// recycled. Any other intermediate table is recycled into `scratch`
    /// as soon as the step that reads it has run. A plan that reads a
    /// table twice fails with [`PgmError::InvalidPlan`].
    pub fn run(
        &self,
        bn: &BayesianNetwork,
        pinned: &Pinned,
        scratch: &mut Scratch,
    ) -> Result<(Potential, Work), PgmError> {
        let mut work = Work {
            eliminated: true,
            ..Work::default()
        };
        let short_walked = scratch.short_walked();
        let Some((last, steps)) = self.steps.split_last() else {
            return Ok((Potential::scalar(1.0), work));
        };
        let mut made: Vec<Made> = Vec::with_capacity(steps.len());
        // no step's key is longer: its inputs, then its kept scope
        let mut key: Vec<u32> = Vec::with_capacity(1 + self.inputs.len() + self.locals.len());
        let mut keep = Scope::empty();
        let mut start = 0;
        for (s, step) in steps.iter().enumerate() {
            let inputs = &self.inputs[start..step.end];
            start = step.end;
            keep.refill(self.kept(s));
            let memo = Self::key(pinned, inputs, &made, &keep, &mut key);
            let out = match memo.and_then(|m| m.take(&key)) {
                Some(taken) => {
                    work.factors_taken += 1;
                    taken
                }
                None => {
                    work.entries_walked = work.entries_walked.saturating_add(step.product);
                    let out = Self::compute(bn, pinned, inputs, &made, &keep, scratch)?;
                    match memo {
                        Some(m) => m.file(&key, out),
                        None => Made::Own(out),
                    }
                }
            };
            Self::spend(inputs, &mut made, scratch);
            made.push(out);
        }
        let inputs = &self.inputs[start..last.end];
        keep.refill(self.kept(steps.len()));
        let out = Self::compute(bn, pinned, inputs, &made, &keep, scratch)?;
        Self::spend(inputs, &mut made, scratch);
        work.entries_walked = work.entries_walked.saturating_add(last.product);
        work.short_walked = scratch.short_walked() - short_walked;
        Ok((out, work))
    }

    /// One fused product → marginalize pass over `inputs` onto `keep`.
    fn compute(
        bn: &BayesianNetwork,
        pinned: &Pinned,
        inputs: &[Input],
        made: &[Made],
        keep: &Scope,
        scratch: &mut Scratch,
    ) -> Result<Potential, PgmError> {
        let views = inputs
            .iter()
            .map(|&input| match input {
                Input::Cpt(v) => Ok(pinned.factor(bn, v)),
                Input::Made(i) => made
                    .get(i)
                    .and_then(Made::table)
                    .map(Potential::view)
                    .ok_or_else(|| PgmError::InvalidPlan {
                        detail: format!("step {i}'s table is read but not held"),
                    }),
            })
            .collect::<Result<Vec<TableRef<'_>>, PgmError>>()?;
        product_marginalize_views(&views, keep, scratch)
    }

    /// Marks the tables `inputs` read as spent, recycling those this run
    /// owns into `scratch`.
    fn spend(inputs: &[Input], made: &mut [Made], scratch: &mut Scratch) {
        for &input in inputs {
            if let Input::Made(i) = input {
                if let Some(Made::Own(spent)) =
                    made.get_mut(i).map(|m| std::mem::replace(m, Made::Spent))
                {
                    scratch.recycle(spent);
                }
            }
        }
    }

    /// Writes into `key` the memo key of a step over `inputs` onto `keep`
    /// (module docs), and returns the memo of `pinned` it goes to, when
    /// every input is a CPT or a filed factor: the network's when each
    /// input is an unsliced CPT or one of its factors, else the pinning's
    /// own. `None` otherwise.
    fn key<'p>(
        pinned: &'p Pinned,
        inputs: &[Input],
        made: &[Made],
        keep: &Scope,
        key: &mut Vec<u32>,
    ) -> Option<&'p FactorMemo> {
        key.clear();
        key.push(inputs.len() as u32);
        let mut shared = true;
        for &input in inputs {
            key.push(match input {
                Input::Cpt(v) => {
                    shared &= pinned.sliced[v.index()].is_none();
                    v.0
                }
                Input::Made(i) => match made.get(i) {
                    Some(Made::Filed(id, _)) => {
                        shared &= id & OWN == 0;
                        id | FILED
                    }
                    _ => return None,
                },
            });
        }
        key.extend(keep.iter().map(|v| v.0));
        Some(if shared { &pinned.network } else { &pinned.own })
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
        let got = plan.run(bn, &pinned, &mut Scratch::new()).unwrap().0;
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
        let a = plan.run(&bn, &pinned, &mut scratch).unwrap().0;
        let b = plan.run(&bn, &pinned, &mut scratch).unwrap().0;
        let replanned = VePlan::new(&bn, &pinned, &targets).unwrap();
        let c = replanned.run(&bn, &pinned, &mut Scratch::new()).unwrap().0;
        let bits = |p: &Potential| p.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
        assert_eq!(bits(&a), bits(&c));
    }

    fn bits(p: &Potential) -> Vec<u64> {
        p.values().iter().map(|v| v.to_bits()).collect()
    }

    impl Pinned {
        /// The steps runs took from both memos.
        fn factors_taken(&self) -> u64 {
            self.network.usage().taken + self.own.usage().taken
        }

        /// What both memos hold, summed.
        fn memo_usage(&self) -> MemoUsage {
            let (a, b) = (self.network.usage(), self.own.usage());
            MemoUsage {
                filed: a.filed + b.filed,
                held: a.held + b.held,
                cap: a.cap + b.cap,
                taken: a.taken + b.taken,
            }
        }
    }

    /// The steps of `plan` but the last whose inputs are all unsliced CPTs
    /// of `pinned` or such steps: those the network's memo files.
    fn network_steps(plan: &VePlan, pinned: &Pinned) -> usize {
        let mut shared: Vec<bool> = Vec::new();
        let mut start = 0;
        for step in &plan.steps[..plan.steps.len() - 1] {
            let inputs = &plan.inputs[start..step.end];
            start = step.end;
            shared.push(inputs.iter().all(|&input| match input {
                Input::Cpt(v) => pinned.sliced[v.index()].is_none(),
                Input::Made(i) => shared[i],
            }));
        }
        shared.iter().filter(|&&s| s).count()
    }

    /// A second run of one plan under one pinning takes every step but
    /// the final combination, and answers bit for bit as the first.
    #[test]
    fn a_second_run_takes_every_step_from_the_memo() {
        let bn = fixtures::figure1();
        let pinned = Pinned::new(&bn, &[(Var(0), 1), (Var(9), 0)]).unwrap();
        let plan = VePlan::new(&bn, &pinned, &Scope::from_indices(&[3, 6])).unwrap();
        assert!(plan.eliminations() > 0);
        let mut scratch = Scratch::new();
        let first = plan.run(&bn, &pinned, &mut scratch).unwrap().0;
        assert_eq!(pinned.factors_taken(), 0);
        let filed = pinned.memo_usage().held;
        assert!(filed > 0);
        let second = plan.run(&bn, &pinned, &mut scratch).unwrap().0;
        assert_eq!(pinned.factors_taken(), plan.eliminations() as u64);
        assert_eq!(pinned.memo_usage().held, filed, "nothing filed twice");
        assert_eq!(bits(&first), bits(&second));
    }

    /// On a chain pinned at x8, the plans for x5 and for x6 both start by
    /// summing out x0, x1, …: the second plan takes those steps, and its
    /// answer is the one a fresh pinning computes.
    #[test]
    fn a_plan_takes_a_step_another_target_ran() {
        let bn = fixtures::chain(12, 3, 7);
        let evidence = [(Var(8), 2)];
        let pinned = Pinned::new(&bn, &evidence).unwrap();
        let mut scratch = Scratch::new();
        let five = VePlan::new(&bn, &pinned, &Scope::from_indices(&[5])).unwrap();
        five.run(&bn, &pinned, &mut scratch).unwrap();
        assert_eq!(pinned.factors_taken(), 0);
        let six = VePlan::new(&bn, &pinned, &Scope::from_indices(&[6])).unwrap();
        let got = six.run(&bn, &pinned, &mut scratch).unwrap().0;
        assert!(pinned.factors_taken() >= 4, "x0..x3 are shared");
        assert!(pinned.factors_taken() < six.eliminations() as u64);
        let fresh = Pinned::new(&bn, &evidence).unwrap();
        let want = six.run(&bn, &fresh, &mut Scratch::new()).unwrap().0;
        assert_eq!(bits(&got), bits(&want));
        // the open's P(e) check files its steps for the targets too
        let checked = Pinned::new(&bn, &evidence).unwrap();
        checked.probability(&bn, &mut scratch).unwrap();
        let again = six.run(&bn, &checked, &mut scratch).unwrap().0;
        assert!(checked.factors_taken() > 0);
        assert_eq!(bits(&again), bits(&want));
    }

    /// With wet pinned, both `P(sprinkler, e)` and `P(rain, e)` first sum
    /// cloudy out of its three families, then combine that factor with
    /// wet's sliced CPT — the same ordered inputs, kept onto sprinkler in
    /// one plan and onto rain in the other. Only the first step is taken.
    #[test]
    fn a_step_onto_another_scope_is_not_taken() {
        let bn = fixtures::sprinkler();
        let evidence = [(Var(3), 1)];
        let pinned = Pinned::new(&bn, &evidence).unwrap();
        let mut scratch = Scratch::new();
        for target in [1, 2] {
            let plan = VePlan::new(&bn, &pinned, &Scope::from_indices(&[target])).unwrap();
            let got = plan.run(&bn, &pinned, &mut scratch).unwrap().0;
            let fresh = Pinned::new(&bn, &evidence).unwrap();
            let want = plan.run(&bn, &fresh, &mut scratch).unwrap().0;
            assert_eq!(got.scope(), &Scope::from_indices(&[target]));
            assert_eq!(bits(&got), bits(&want));
        }
        assert_eq!(pinned.factors_taken(), 1);
    }

    /// A key names each input: a CPT by its variable, a filed factor by
    /// its tagged id — the network's id 0 and the pinning's own id 0 are
    /// two inputs — the two kept apart by the `FILED` tag; a step that
    /// reads an unfiled table has no key. A step over unsliced CPTs and
    /// the network's factors goes to the network's memo, any other to the
    /// pinning's own.
    #[test]
    fn keys_name_every_input() {
        // x2 pinned: its CPT is sliced, x0's and x1's are not
        let bn = fixtures::chain(3, 2, 1);
        let pinned = Pinned::new(&bn, &[(Var(2), 0)]).unwrap();
        let table = || Arc::new(Potential::scalar(1.0));
        let made = [
            Made::Filed(0, table()),
            Made::Filed(1, table()),
            Made::Own(Potential::scalar(1.0)),
            Made::Filed(OWN, table()),
        ];
        let keep = Scope::from_indices(&[1]);
        let key = |inputs: &[Input]| {
            let mut key = Vec::new();
            let memo = VePlan::key(&pinned, inputs, &made, &keep, &mut key)?;
            Some((key, std::ptr::eq(memo, &*pinned.network)))
        };
        let keys = [
            key(&[Input::Cpt(Var(0)), Input::Made(0)]),
            key(&[Input::Cpt(Var(0)), Input::Made(1)]),
            key(&[Input::Cpt(Var(0)), Input::Cpt(Var(1))]),
            key(&[Input::Made(0), Input::Cpt(Var(0))]),
            key(&[Input::Cpt(Var(0)), Input::Made(3)]),
            key(&[Input::Cpt(Var(2)), Input::Made(0)]),
        ];
        let network: Vec<bool> = keys.iter().flatten().map(|&(_, n)| n).collect();
        assert_eq!(network, [true, true, true, true, false, false]);
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(key(&[Input::Cpt(Var(0)), Input::Made(2)]), None);
    }

    /// A clone shares the network's memo, and its own starts empty with
    /// the same bound: on a chain pinned at x8, its first run for x5 takes
    /// the steps summing out x0..x4 and computes those over x8's CPT.
    #[test]
    fn a_cloned_pinning_starts_with_an_empty_memo() {
        let bn = fixtures::chain(12, 3, 7);
        let pinned = Pinned::new(&bn, &[(Var(8), 2)]).unwrap();
        let plan = VePlan::new(&bn, &pinned, &Scope::from_indices(&[5])).unwrap();
        let mut scratch = Scratch::new();
        let want = plan.run(&bn, &pinned, &mut scratch).unwrap().0;
        plan.run(&bn, &pinned, &mut scratch).unwrap();
        let (network, own) = pinned.memos();
        assert!(network.usage().filed > 0 && own.usage().filed > 0);
        let clone = pinned.clone();
        assert!(std::ptr::eq(clone.memos().0, network), "one network memo");
        let usage = clone.memos().1.usage();
        assert_eq!(
            (usage.filed, usage.held, usage.taken, usage.cap),
            (0, 0, 0, FACTOR_ENTRIES)
        );
        let taken = network.usage().taken;
        let got = plan.run(&bn, &clone, &mut scratch).unwrap().0;
        assert_eq!(
            network.usage().taken - taken,
            network.usage().filed as u64,
            "the network's steps are taken"
        );
        assert_eq!(clone.memos().1.usage().taken, 0, "its own are computed");
        assert_eq!(clone.memos().1.usage().filed, own.usage().filed);
        assert_eq!(bits(&got), bits(&want));
    }

    /// One network memo serves pinnings of other evidence values: after
    /// plans under `x8 = 2`, a pinning at `x8 = 0` sharing the memo answers
    /// bit for bit what one with a fresh network memo does, taking the
    /// steps below x8 and filing nothing new there. The network's memo
    /// files only the steps over unsliced CPTs. A pinning of another
    /// network built from the same dataset starts with a memo of its own.
    #[test]
    fn pinnings_share_only_the_steps_over_unsliced_cpts() {
        let bn = fixtures::chain(12, 3, 7);
        let targets: Vec<Scope> = [&[5u32][..], &[6], &[10], &[11], &[3, 10], &[0, 9]]
            .iter()
            .map(|t| Scope::from_indices(t))
            .collect();
        let network = Arc::new(FactorMemo::default());
        let mut scratch = Scratch::new();
        let two = Pinned::sharing(&bn, &[(Var(8), 2)], &network).unwrap();
        for t in &targets {
            let plan = VePlan::new(&bn, &two, t).unwrap();
            plan.run(&bn, &two, &mut scratch).unwrap();
        }
        assert!(network.usage().filed > 0 && two.memos().1.usage().filed > 0);
        let (filed, taken) = (network.usage().filed, network.usage().taken);
        let zero = Pinned::sharing(&bn, &[(Var(8), 0)], &network).unwrap();
        for t in &targets {
            let plan = VePlan::new(&bn, &zero, t).unwrap();
            let got = plan.run(&bn, &zero, &mut scratch).unwrap().0;
            let fresh = Pinned::new(&bn, &[(Var(8), 0)]).unwrap();
            let want = plan.run(&bn, &fresh, &mut scratch).unwrap().0;
            assert_eq!(bits(&got), bits(&want), "{t}");
            let usage = fresh.memos().0.usage();
            assert_eq!(usage.filed, network_steps(&plan, &fresh), "{t}");
        }
        assert_eq!(network.usage().filed, filed, "nothing new is shared");
        assert!(network.usage().taken > taken, "the steps below x8 are");
        let other = fixtures::chain(12, 3, 7);
        let elsewhere = Pinned::new(&other, &[(Var(8), 0)]).unwrap();
        assert!(!std::ptr::eq(elsewhere.memos().0, &*network));
        assert_eq!(elsewhere.memos().0.usage().filed, 0);
    }

    /// Memos at their bounds file nothing more, and what a bounded
    /// pinning answers is bit for bit what an unbounded one does; bounds
    /// of 0 file nothing at all.
    #[test]
    fn a_full_memo_files_nothing_more() {
        let bn = fixtures::chain(12, 3, 7);
        let evidence = [(Var(8), 2), (Var(2), 0)];
        let unbounded = Pinned::new(&bn, &evidence).unwrap();
        let mut scratch = Scratch::new();
        let plans: Vec<VePlan> = [[5u32, 6], [0, 11], [3, 9], [4, 7]]
            .iter()
            .map(|t| VePlan::new(&bn, &unbounded, &Scope::from_indices(t)).unwrap())
            .collect();
        let want: Vec<Vec<u64>> = plans
            .iter()
            .map(|p| bits(&p.run(&bn, &unbounded, &mut scratch).unwrap().0))
            .collect();
        let first = Pinned::new(&bn, &evidence).unwrap();
        plans[0].run(&bn, &first, &mut scratch).unwrap();
        let (network, own) = first.memos();
        let caps = [network.usage().held, own.usage().held];
        assert!(caps.iter().all(|&c| c > 0));
        assert!(caps[0] + caps[1] < unbounded.memo_usage().held);
        for bounds in [[0, 0], caps] {
            let bounded = Pinned::pin(
                &bn,
                &evidence,
                Arc::new(FactorMemo::with(0, bounds[0])),
                FactorMemo::with(OWN, bounds[1]),
            )
            .unwrap();
            for _ in 0..2 {
                for (plan, want) in plans.iter().zip(&want) {
                    let got = plan.run(&bn, &bounded, &mut scratch).unwrap().0;
                    assert_eq!(&bits(&got), want);
                    let (network, own) = bounded.memos();
                    for (usage, bound) in [network.usage(), own.usage()].iter().zip(bounds) {
                        assert_eq!((usage.held, usage.cap), (bound, bound));
                    }
                }
            }
            if bounds == [0, 0] {
                assert_eq!(bounded.factors_taken(), 0);
            } else {
                // only the first plan's steps are held, and its repeat
                // takes them
                assert!(bounded.factors_taken() >= plans[0].eliminations() as u64);
            }
        }
    }

    /// The planner before per-variable factor sets and packed keys, kept
    /// as the reference its replacement must match decision for decision:
    /// every live factor rescanned per step, the least key found over
    /// (degree, table) pairs, each kept scope built on its own. It writes the
    /// plan's layout of today.
    fn reference(
        bn: &BayesianNetwork,
        pinned: &Pinned,
        targets: &Scope,
    ) -> Result<VePlan, PgmError> {
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
        let (mut steps, mut inputs, mut keeps, mut ops) = (Vec::new(), Vec::new(), Vec::new(), 0);
        let mut row = vec![0u64; lw];
        while let Some((at, &x)) = candidates
            .iter()
            .enumerate()
            .min_by_key(|&(_, &i)| (keys[i], i))
        {
            candidates.swap_remove(at);
            row.copy_from_slice(&nbrs[x * lw..][..lw]);
            let mut k = 0usize;
            live.retain(|&f| {
                let over_x = has(&scopes[f * lw..][..lw], x);
                if over_x {
                    inputs.push(factor_input[f]);
                    k += 1;
                }
                !over_x
            });
            let table = size_of(&row, Some(x));
            charge(&mut ops, table, k);
            let made = Input::Made(steps.len());
            steps.push(Step {
                end: inputs.len(),
                product: table,
            });
            keeps.extend_from_slice(&row);
            let f = factor_input.len();
            factor_input.push(made);
            scopes.extend_from_slice(&row);
            live.push(f);
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
        row.fill(0);
        for &f in &live {
            for (a, b) in row.iter_mut().zip(&scopes[f * lw..][..lw]) {
                *a |= b;
            }
            inputs.push(factor_input[f]);
        }
        let product = size_of(&row, None);
        charge(&mut ops, product, live.len());
        steps.push(Step {
            end: inputs.len(),
            product,
        });
        row.fill(0);
        for t in targets {
            set(&mut row, local_of[t.index()] as usize);
        }
        keeps.extend_from_slice(&row);
        Ok(VePlan {
            locals,
            words: lw,
            keeps,
            steps,
            inputs,
            ops,
        })
    }

    /// On every dataset, seeded 1–3-variable targets (and none, the
    /// `P(e)` check's plan) under 0–3 pinned variables: the planner makes
    /// the reference's plan — its steps, inputs in order, kept scopes,
    /// products and ops — and `Pinned::probability` is the reference
    /// plan's, bit for bit.
    #[test]
    fn the_planner_decides_as_the_reference() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |below: usize| {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % below as u64) as usize
        };
        let (mut checked, mut eliminations, mut widest) = (0, 0, 0);
        for spec in peanut_datasets::all_datasets() {
            let bn = spec.build().unwrap();
            let n = bn.n_vars();
            for _ in 0..24 {
                let mut evidence = Vec::new();
                for _ in 0..next(4) {
                    let v = Var(next(n) as u32);
                    evidence.push((v, next(bn.domain().card(v) as usize) as u32));
                }
                evidence.sort_unstable_by_key(|&(v, _)| v);
                evidence.dedup_by_key(|&mut (v, _)| v);
                let pinned = Pinned::new(&bn, &evidence).unwrap();
                let mut targets = Scope::empty();
                for _ in 0..1 + next(3) {
                    let v = Var(next(n) as u32);
                    if !pinned.is_pinned(v) {
                        targets.insert(v);
                    }
                }
                for t in [&targets, &Scope::empty()] {
                    let plan = VePlan::new(&bn, &pinned, t).unwrap();
                    let want = reference(&bn, &pinned, t).unwrap();
                    // the same free variables, steps, inputs in order, kept
                    // rows, products and ops
                    assert_eq!(plan, want, "{} {t} | {evidence:?}", spec.name);
                    checked += 1;
                    eliminations += plan.eliminations();
                    widest = widest.max(plan.eliminations());
                }
                let got = pinned.probability(&bn, &mut Scratch::new()).unwrap();
                let fresh = Pinned::new(&bn, &evidence).unwrap();
                let plan = reference(&bn, &fresh, &Scope::empty()).unwrap();
                let want = plan.run(&bn, &fresh, &mut Scratch::new()).unwrap().0;
                assert_eq!(
                    got.to_bits(),
                    want.values()[0].to_bits(),
                    "{} {evidence:?}",
                    spec.name
                );
            }
        }
        assert_eq!(checked, 8 * 24 * 2);
        // thousands of steps, and plans whose rows span two words
        assert!(
            eliminations > 5_000 && widest > WORD,
            "{eliminations}, {widest}"
        );
    }

    /// A malformed plan fails typed instead of panicking.
    #[test]
    fn a_plan_that_reads_a_table_twice_fails_typed() {
        let bn = fixtures::chain(3, 2, 1);
        let pinned = Pinned::new(&bn, &[]).unwrap();
        // every step sums onto x1
        let plan = VePlan {
            locals: vec![Var(0), Var(1), Var(2)],
            words: 1,
            keeps: vec![0b010; 3],
            steps: vec![
                Step { end: 2, product: 0 },
                Step { end: 3, product: 0 },
                Step { end: 4, product: 0 },
            ],
            inputs: vec![
                Input::Cpt(Var(0)),
                Input::Cpt(Var(1)),
                Input::Made(0),
                Input::Made(0),
            ],
            ops: 0,
        };
        assert!(matches!(
            plan.run(&bn, &pinned, &mut Scratch::new()),
            Err(PgmError::InvalidPlan { .. })
        ));
    }
}
