//! Stateful evidence sessions: pin an evidence assignment once, then
//! stream marginal queries `P(targets | e)` under it.
//!
//! The per-query conditional path answers `P(targets | e)` by computing a
//! *joint* marginal over `targets ∪ vars(e)` and restricting — every query
//! re-pays the evidence: the Steiner tree spans the evidence variables, so
//! a distant context inflates every single answer. Real conditioned
//! traffic is session-shaped (one observed context, many queries — the
//! pattern Darwiche's *Dynamic Jointrees* exploits), and
//! [`ServingEngine::open_session`] amortizes it.
//!
//! # One route: pruned elimination
//!
//! Opening a session pins the evidence on the network's CPTs, which the
//! engine's calibrated tables recover once for all sessions from the
//! families the tree records ([`NumericState::network`]), also when the
//! tables were reattached from a store slab: the families that hold an
//! evidence variable are sliced to its value ([`Pinned`]), and
//! `P(e) > 0` is checked by eliminating every variable. No tree is
//! cloned or recalibrated.
//!
//! Every target is then answered by pruned variable elimination
//! ([`VePlan`]) over the ancestral set of `targets ∪ vars(e)` — barren
//! variables never enter — and charged the plan's count, in operations of
//! the workspace model. A target that names an evidence variable is
//! eliminated over its free variables and multiplied by a point mass at
//! the pinned values, so its answer keeps the target's scope. Every answer
//! says so in its work ([`Answer::work`](crate::Answer::work)'s
//! `eliminated`). A joint that sums to zero — `P(e) > 0` at open, yet
//! every entry of the target's joint underflowing — fails with
//! [`PgmError::ImpossibleEvidence`], as the per-query conditional path
//! does.
//!
//! Each answer also reports the junction tree's count for its targets
//! without shortcuts (its `baseline_ops`). Elimination answers on the
//! model alone, without shortcuts either — materialized shortcut potentials hold prior-joint
//! marginals, which are simply wrong under an evidence restriction. What
//! the session records is per-target-scope arrivals at that baseline —
//! the materialization saved none of it, so the lifecycle's observed
//! savings must not count elimination's — while each answer reports the
//! plan's count. The *restricted* scopes are what the lifecycle layer's
//! re-selection trains on (it reads the scope counts only).
//!
//! # The factor memos
//!
//! Each step of a plan — one variable summed out of the product of its
//! inputs — is filed under its ordered inputs and kept scope, and a later
//! plan that reaches a step of that key takes the filed table instead of
//! running the kernel (`peanut_ve::plan`, "The factor memos"). A step
//! whose inputs are the network's unsliced CPTs, or factors made from
//! them alone, makes the same table under every evidence assignment: it
//! is filed in the one [`FactorMemo`] of the engine's recovered network,
//! which every session on the engine shares. A step that reads a sliced
//! CPT is filed in the session's own memo. The open's `P(e)` check
//! eliminates every ancestor of the evidence, so its steps are filed
//! first; targets then share whatever sub-eliminations their plans have
//! in common with it, with each other, and — the evidence-free ones —
//! with every earlier session's targets.
//!
//! A taken table is bit for bit the one the step would compute, so a
//! target answers the same bits whichever sessions and targets the engine
//! served before it, and on any number of workers. An answer is still
//! charged its plan's full count ([`VePlan::ops`]), so the reported
//! operations do not depend on what the memos hold. Each memo is bounded
//! by one entry count and never evicts. The network's lives as long as
//! the engine, whose tables, and so whose recovered CPTs, never change; a
//! fleet's fault-in builds a new engine, and with it a new network and an
//! empty memo. The session's own memo is dropped with the session. Each
//! answer's work counts the steps it took from either (`factors_taken`).
//!
//! # Epoch-swap semantics
//!
//! A session snapshots its epoch (and that epoch's stats accumulator) and
//! the engine it prices on at open, and owns its pinned CPTs outright, so
//! a concurrent [`publish`](ServingEngine::publish) never touches an
//! in-flight session: its answers keep their open-time epoch tag until
//! the session is dropped. Sessions opened after the swap see the new
//! epoch. Session queries fan out on the engine's serving-priority worker
//! lane.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use crate::engine::{BatchStats, ServingEngine};
use crate::overload::ServeOutcome;
use crate::pipeline::Target;
use peanut_core::sync::Arc;
use peanut_core::{ServeRequest, TracedAnswer};
use peanut_junction::cost::QueryCost;
use peanut_junction::QueryEngine;
use peanut_pgm::{BayesianNetwork, PgmError, Potential, Scope, Scratch, Var};
use peanut_ve::{Pinned, VePlan};

#[cfg(doc)]
use {peanut_junction::NumericState, peanut_ve::FactorMemo};

/// One open evidence session: the evidence pinned on the network's CPTs,
/// the engine it prices on, and the epoch snapshot it was opened under.
/// Created by [`ServingEngine::open_session`]; closing is just dropping it.
pub struct EvidenceSession<'s, 't> {
    serving: &'s ServingEngine<'t>,
    /// What every batch of this session is served against: the open-time
    /// engine, whose tree prices each target's baseline, the
    /// epoch's materialization, of which only the epoch is read (its
    /// shortcut tables hold prior-joint marginals, invalid under the
    /// evidence), and the [`Door`]. The stats are the open-time epoch's
    /// accumulator; a publish mid-session retires it, and this session
    /// keeps feeding the retired window (exactly like an in-flight batch
    /// would) and hashing its requests with that accumulator's hasher, the
    /// engine's. No answer cache; duplicate targets of a batch coalesce
    /// onto one computation, and every answer is normalized into
    /// `P(· | evidence)`.
    target: Target<'t>,
    /// The target's door, which every answer of the session goes through.
    door: Arc<Door>,
}

/// How a session answers a target (module docs, "One route: pruned
/// elimination"). Shared by the workers of a batch.
pub(crate) struct Door {
    /// The network recovered from the engine's tables, and the evidence
    /// pinned on it.
    pinned: (Arc<BayesianNetwork>, Pinned),
    /// The pinned assignment, sorted by variable, each pair once.
    evidence: Vec<(Var, u32)>,
}

impl Door {
    /// `P(targets | e)` by pruned elimination, with the plan's count, the
    /// count of `engine`'s tree without shortcuts, and what the plan
    /// executed. A target's evidence variables hold a point mass at their
    /// pinned values. A joint that sums to zero — `P(e) > 0` at open, yet
    /// every entry underflowing — fails with
    /// [`PgmError::ImpossibleEvidence`], as the conditional door does.
    pub(crate) fn answer(
        &self,
        engine: &QueryEngine<'_>,
        targets: &Scope,
        scratch: &mut Scratch,
    ) -> Result<TracedAnswer, PgmError> {
        let baseline_ops = engine.cost(targets)?.ops;
        let (bn, pinned) = &self.pinned;
        // the evidence's pairs the targets name, in variable order
        let (at, values): (Vec<Var>, Vec<u32>) = self
            .evidence
            .iter()
            .filter(|&&(v, _)| targets.contains(v))
            .copied()
            .unzip();
        let at = Scope::from_iter(at);
        let plan = VePlan::new(bn, pinned, &targets.minus(&at))?;
        let (free, work) = plan.run(bn, pinned, scratch)?;
        let mut potential = if at.is_empty() {
            free
        } else {
            // the pinned targets: a point mass at their evidence values
            let mut mass = Potential::zeros(at, bn.domain())?;
            let i = mass.index_of(&values);
            mass.values_mut()[i] = 1.0;
            let joint = free.product_in(&mass, scratch)?;
            scratch.recycle(free);
            joint
        };
        // the joint sums to P(e): nothing to condition on when every entry
        // underflowed to zero
        if potential.normalize() <= 0.0 {
            return Err(PgmError::ImpossibleEvidence(self.evidence.clone()));
        }
        let cost = QueryCost {
            ops: plan.ops(),
            ..QueryCost::default()
        };
        Ok(TracedAnswer {
            potential,
            cost,
            baseline_ops,
            work,
        })
    }
}

impl<'t> ServingEngine<'t> {
    /// Opens an evidence session: pins `evidence` on the CPTs the engine's
    /// calibrated tables recover and checks `P(e) > 0` by elimination, so
    /// the marginal stream served through [`EvidenceSession::serve_batch`]
    /// never re-pays the evidence. Evidence of probability zero (under the
    /// model, or two values for one variable) fails closed with
    /// [`PgmError::ImpossibleEvidence`], as do unknown variables and
    /// out-of-range values with their own errors, and an engine whose
    /// tables recover no network (a symbolic one, or one over a tree that
    /// records no families) with [`PgmError::SymbolicEngine`].
    pub fn open_session(
        &self,
        mut evidence: Vec<(Var, u32)>,
    ) -> Result<EvidenceSession<'_, 't>, PgmError> {
        evidence.sort_unstable();
        evidence.dedup();
        let snapshot = self.target();
        let (bn, factors) = self.network().ok_or(PgmError::SymbolicEngine)?;
        let pinned = Pinned::sharing(bn, &evidence, factors)?;
        let p = pinned.probability(bn, &mut Scratch::new())?;
        if p.is_nan() || p <= 0.0 {
            return Err(PgmError::ImpossibleEvidence(evidence));
        }
        let door = Arc::new(Door {
            pinned: (Arc::clone(bn), pinned),
            evidence,
        });
        Ok(EvidenceSession {
            serving: self,
            target: Target {
                cache: None,
                session: Some(Arc::clone(&door)),
                ..snapshot
            },
            door,
        })
    }
}

impl<'s, 't> EvidenceSession<'s, 't> {
    /// The pinned evidence assignment (sorted by variable, each pair once).
    pub fn evidence(&self) -> &[(Var, u32)] {
        &self.door.evidence
    }

    /// The materialization epoch this session was opened under; every
    /// answer it produces carries this tag, across concurrent publishes.
    pub fn epoch(&self) -> u64 {
        self.target.mat.epoch
    }

    /// Serves one marginal `P(targets | evidence)` under the pinned
    /// context.
    pub fn serve_one(&self, targets: &Scope) -> ServeOutcome {
        let (mut outcomes, _) = self.serve_batch(std::slice::from_ref(targets));
        #[expect(
            clippy::expect_used,
            reason = "serve_batch returns one outcome per target by construction"
        )]
        outcomes.pop().expect("one outcome per target")
    }

    /// Serves a batch of marginal target scopes under the pinned
    /// evidence, in submission order. Each answer is the normalized
    /// `P(targets | evidence)`, by pruned elimination on the pinned CPTs
    /// — no joint over `targets ∪ vars(e)` is ever formed on the tree,
    /// which is where the amortization over the per-query conditional path
    /// comes from. Fans out on the engine's serving-priority lane.
    pub fn serve_batch(&self, targets: &[Scope]) -> (Vec<ServeOutcome>, BatchStats) {
        // target scopes recorded by the run are the *restricted* scopes —
        // the distribution re-selection should price under for this
        // traffic
        let requests: Vec<ServeRequest> = targets
            .iter()
            .map(|t| ServeRequest::marginal(t.clone()))
            .collect();
        self.serving.serve_on(self.target.clone(), &requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServingConfig;
    use peanut_core::{Materialization, ServeRequest};
    use peanut_junction::build_junction_tree;
    use peanut_pgm::{fixtures, joint};

    fn serving_for(bn: &peanut_pgm::BayesianNetwork) -> ServingEngine<'static> {
        // leak the tree for 'static; tests only — the engines borrow it
        let tree = Box::leak(Box::new(build_junction_tree(bn).unwrap()));
        let engine = QueryEngine::numeric(tree, bn).unwrap();
        ServingEngine::new(engine, Materialization::default(), ServingConfig::default())
    }

    #[test]
    fn session_matches_per_query_conditional_path() {
        let bn = fixtures::chain(10, 2, 3);
        let serving = serving_for(&bn);
        let evidence = vec![(Var(9), 1), (Var(8), 0)];
        let session = serving.open_session(evidence.clone()).unwrap();
        assert_eq!(
            session.evidence(),
            &[(Var(8), 0), (Var(9), 1)],
            "evidence is canonicalized"
        );
        let targets: Vec<Scope> = (0..4u32)
            .map(|i| Scope::from_indices(&[i, i + 1]))
            .collect();
        let (outcomes, bstats) = session.serve_batch(&targets);
        assert_eq!(bstats.counters.requests, targets.len() as u64);
        let requests: Vec<ServeRequest> = targets
            .iter()
            .map(|t| ServeRequest::new(t.clone(), evidence.clone()))
            .collect();
        let (per_query, _) = serving.serve_batch(&requests);
        for (s, p) in outcomes.iter().zip(&per_query) {
            let (s, p) = (s.served().unwrap(), p.served().unwrap());
            assert!((s.potential.sum() - 1.0).abs() < 1e-12);
            let diff = s.potential.max_abs_diff(&p.potential).unwrap();
            assert!(
                diff < 1e-9,
                "session diverged from conditional path: {diff}"
            );
        }
    }

    #[test]
    fn session_rejects_bad_and_contradictory_evidence() {
        let bn = fixtures::sprinkler();
        let serving = serving_for(&bn);
        assert!(serving.open_session(vec![(Var(99), 0)]).is_err());
        // same variable pinned to two values: a contradiction, no session
        assert!(matches!(
            serving.open_session(vec![(Var(1), 0), (Var(1), 1)]),
            Err(PgmError::ImpossibleEvidence(_))
        ));
    }

    #[test]
    fn repeated_evidence_opens_the_same_session() {
        let bn = fixtures::figure1();
        let serving = serving_for(&bn);
        let d = bn.domain();
        let (a, l) = (d.var("a").unwrap(), Scope::singleton(d.var("l").unwrap()));
        let once = serving.open_session(vec![(a, 1)]).unwrap();
        let twice = serving.open_session(vec![(a, 1), (a, 1)]).unwrap();
        assert_eq!(twice.evidence(), once.evidence());
        let bits = |s: &EvidenceSession<'_, '_>| -> Vec<u64> {
            let answer = s.serve_one(&l);
            let p = &answer.served().expect("served").potential;
            p.values().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&once), bits(&twice));
    }

    #[test]
    fn session_records_restricted_scopes() {
        let bn = fixtures::chain(8, 2, 3);
        let serving = serving_for(&bn);
        let session = serving.open_session(vec![(Var(7), 1)]).unwrap();
        let t = Scope::from_indices(&[0, 1]);
        let (o, _) = session.serve_batch(&[t.clone(), t.clone()]);
        assert!(o.iter().all(ServeOutcome::is_served));
        let stats = serving.stats();
        let snap = stats.snapshot();
        assert_eq!(snap.queries, 2);
        // the recorded scope is the *restricted* target scope, not the
        // joint targets∪evidence scope the per-query path would log
        let counts = stats.scope_counts();
        assert_eq!(counts, vec![(t, 2)]);
    }

    /// `x0 → x1 → x2 → x3 → x4`, `P(x1 = 0 | x0) = ¾`, and
    /// `P(x2 = 1 | x1)` the least subnormal, 2⁻¹⁰⁷⁴; `x3` and `x4` copy
    /// their parents. Under `x2 = 1`, `P(e)` rounds to that subnormal, but
    /// `P(x0, e)` is under half of it in each entry and rounds to zero.
    fn underflowing_chain() -> (peanut_pgm::BayesianNetwork, Vec<Var>) {
        let tiny = f64::from_bits(1);
        let mut b = peanut_pgm::NetworkBuilder::new();
        let x: Vec<Var> = (0..5).map(|i| b.var(&format!("x{i}"), 2)).collect();
        b.cpt(x[0], &[], &[&[0.5, 0.5]]).unwrap();
        b.cpt(x[1], &[x[0]], &[&[0.75, 0.25], &[0.75, 0.25]])
            .unwrap();
        b.cpt(x[2], &[x[1]], &[&[1.0, tiny], &[1.0, tiny]]).unwrap();
        let copy: &[&[f64]] = &[&[1.0, 0.0], &[0.0, 1.0]];
        b.cpt(x[3], &[x[0]], copy).unwrap();
        b.cpt(x[4], &[x[3]], copy).unwrap();
        (b.build().unwrap(), x)
    }

    /// A target whose joint with the evidence underflows to zero in every
    /// entry, though `P(e)` does not, fails closed with
    /// [`PgmError::ImpossibleEvidence`], as the conditional door does,
    /// instead of serving a table of zeros; so does one that also names
    /// the evidence variable. A target of the evidence variable alone is
    /// its point mass.
    #[test]
    fn an_underflowing_joint_fails_closed() {
        let (bn, x) = underflowing_chain();
        let serving = serving_for(&bn);
        let session = serving.open_session(vec![(x[2], 1)]).unwrap();
        for t in [
            Scope::singleton(x[0]),
            Scope::from_iter([x[0], x[4]]),
            Scope::from_iter([x[0], x[2]]),
        ] {
            let outcome = session.serve_one(&t);
            assert!(
                matches!(outcome.failure(), Some(PgmError::ImpossibleEvidence(_))),
                "{t}: {outcome:?}"
            );
        }
        let outcome = session.serve_one(&Scope::singleton(x[2]));
        assert_eq!(
            outcome.served().expect("served").potential.values(),
            [0.0, 1.0]
        );
    }

    /// `x0 → x1 → x2` with `x1 ≡ 0` and `P(x2 = 1 | x1)` the least
    /// subnormal: the tables hold no row of `x2`'s CPT at `x1 = 1`, yet
    /// recover a network, and a session opens on every assignment that
    /// elimination on the model's own CPTs gives positive probability —
    /// `x2 = 1` included, under which the restricted, re-calibrated tree
    /// underflows to zero — and on no other. Under `x2 = 1` elimination
    /// answers `P(x1 | e)` = [1, 0].
    #[test]
    fn a_deterministic_cpt_opens_wherever_the_model_gives_evidence_mass() {
        let tiny = f64::from_bits(1);
        let mut b = peanut_pgm::NetworkBuilder::new();
        let x: Vec<Var> = (0..3).map(|i| b.var(&format!("x{i}"), 2)).collect();
        b.cpt(x[0], &[], &[&[0.5, 0.5]]).unwrap();
        b.cpt(x[1], &[x[0]], &[&[1.0, 0.0], &[1.0, 0.0]]).unwrap();
        b.cpt(x[2], &[x[1]], &[&[1.0, tiny], &[1.0, tiny]]).unwrap();
        let bn = b.build().unwrap();
        let serving = serving_for(&bn);
        let engine = serving.engine();
        let tables = engine.numeric_state().unwrap();
        assert!(tables.network(engine.tree()).is_some());
        let pairs = (0..3).flat_map(|i| (i..3).flat_map(move |j| (0..4).map(move |k| (i, j, k))));
        for (i, j, k) in pairs {
            let evidence = vec![(x[i], k & 1), (x[j], k >> 1)];
            let pinned = Pinned::new(&bn, &evidence);
            let p = pinned.map_or(0.0, |p| p.probability(&bn, &mut Scratch::new()).unwrap());
            match serving.open_session(evidence.clone()) {
                Ok(_) => assert!(p > 0.0, "{evidence:?} opened at P(e) = {p}"),
                Err(PgmError::ImpossibleEvidence(_)) => {
                    assert!(p <= 0.0, "{evidence:?} refused at P(e) = {p}")
                }
                Err(e) => panic!("{evidence:?}: {e}"),
            }
        }
        let session = serving.open_session(vec![(x[2], 1)]).unwrap();
        let outcome = session.serve_one(&Scope::singleton(x[1]));
        let served = outcome.served().expect("served");
        assert!(served.work.eliminated);
        let want = Potential::new(Scope::singleton(x[1]), vec![2], vec![1.0, 0.0]).unwrap();
        assert!(served.potential.max_abs_diff(&want).unwrap() <= 1e-12);
    }

    /// Summed over the answers two Hailfinder sessions of different
    /// evidence computed, the steps they say they took from the factor
    /// memos are the two pinnings' own takes and the engine's network memo's
    /// takes, of which each session has some; every answer says it was
    /// eliminated.
    #[test]
    fn summed_work_equals_the_factor_memos_takes() {
        let bn = peanut_datasets::dataset("Hailfinder")
            .unwrap()
            .build()
            .unwrap();
        let serving = serving_for(&bn);
        let n = bn.n_vars() as u32;
        for pins in [[7u32, 23, 41], [7, 30, 52]] {
            let evidence: Vec<(Var, u32)> = pins.map(|v| (Var(v), 0)).into();
            let session = serving.open_session(evidence).unwrap();
            let pinned = &session.door.pinned.1;
            let own = pinned.memos().1;
            let before = (own.usage().taken, serving.factor_memo_usage().taken);
            let mut targets: Vec<Scope> = (0..n)
                .map(|a| Scope::from_indices(&[a, (a * 7 + 3) % n]))
                .filter(|t| t.len() == 2 && !t.iter().any(|v| pinned.is_pinned(v)))
                .collect();
            targets.sort_unstable();
            targets.dedup();
            // each target twice: duplicates coalesce onto one computation
            let batch: Vec<Scope> = targets.iter().chain(&targets).cloned().collect();
            let (outcomes, _) = session.serve_batch(&batch);
            let mut computed: Vec<&Arc<crate::Answer>> = Vec::new();
            for served in outcomes.iter().map(|o| o.served().expect("served")) {
                if !computed.iter().any(|a| Arc::ptr_eq(a, &served.answer)) {
                    computed.push(&served.answer);
                }
            }
            assert_eq!(computed.len(), targets.len());
            let taken: u64 = computed.iter().map(|a| a.work.factors_taken).sum();
            let shared = serving.factor_memo_usage().taken - before.1;
            assert_eq!(taken, own.usage().taken - before.0 + shared);
            assert!(taken > 0 && shared > 0);
            for a in computed {
                assert!(a.work.eliminated, "{a:?}");
            }
        }
    }

    #[test]
    fn errors_are_per_target_not_per_session() {
        let bn = fixtures::sprinkler();
        let serving = serving_for(&bn);
        let session = serving.open_session(vec![(Var(0), 1)]).unwrap();
        // a target overlapping the pinned evidence is answerable (the
        // evidence variable holds a point mass), so the interesting
        // failure is an unknown variable
        let (o, _) =
            session.serve_batch(&[Scope::from_indices(&[0, 1]), Scope::from_indices(&[99])]);
        assert!(o[0].is_served());
        assert!(o[1].failure().is_some());
    }

    /// A target that names an evidence variable is eliminated over its
    /// free variables: its answer keeps the target's scope, holds a point
    /// mass at the pinned value, and the free part is `P(free | e)` by
    /// enumeration of the joint.
    #[test]
    fn a_target_naming_evidence_holds_a_point_mass_there() {
        let bn = fixtures::figure1();
        let serving = serving_for(&bn);
        let d = bn.domain();
        let var = |name: &str| d.var(name).unwrap();
        let evidence = vec![(var("a"), 1), (var("l"), 0)];
        let session = serving.open_session(evidence.clone()).unwrap();
        for names in [&["a", "d"][..], &["b", "e", "l"], &["a", "l"]] {
            let t = Scope::from_iter(names.iter().map(|n| var(n)));
            let outcome = session.serve_one(&t);
            let served = outcome.served().expect("served");
            assert!(served.work.eliminated, "{t}");
            let mut got = served.potential.clone();
            assert_eq!(got.scope(), &t);
            let pinned_at = |i: usize| {
                let assignment = got.assignment_of(i);
                let mut pairs = t.iter().zip(assignment);
                pairs.all(|(v, x)| evidence.iter().all(|&(e, value)| e != v || value == x))
            };
            for (i, &p) in got.values().iter().enumerate() {
                assert!(pinned_at(i) || p == 0.0, "{t}: mass off the evidence");
            }
            let ev_scope = Scope::from_iter(evidence.iter().map(|&(v, _)| v));
            for &(v, value) in evidence.iter().filter(|&&(v, _)| t.contains(v)) {
                got = got.restrict(v, value).unwrap();
            }
            let free = t.minus(&ev_scope);
            let mut want = joint::marginal(&bn, &free.union(&ev_scope)).unwrap();
            for &(v, value) in &evidence {
                want = want.restrict(v, value).unwrap();
            }
            want.normalize();
            let diff = got.max_abs_diff(&want).unwrap();
            assert!(diff <= 1e-9, "{t}: off by {diff}");
        }
    }
}
