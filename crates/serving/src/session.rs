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
//! # Two routes, one price list
//!
//! Opening a session pins the evidence on the network's CPTs, which the
//! calibrated tables recover once for all sessions
//! ([`NumericState::network`]): the families that hold an evidence
//! variable are sliced to its value ([`Pinned`]), and `P(e) > 0` is
//! checked by eliminating every variable. No tree is cloned.
//! Each target is then priced both ways, in operations of the workspace
//! model:
//!
//! * **pruned variable elimination** ([`VePlan`]) over the ancestral set
//!   of `targets ∪ vars(e)` — barren variables never enter;
//! * **the restricted tree**: the plain tree's count for the targets, the
//!   baseline every answer reports. That tree is the shared one with the
//!   evidence absorbed and the two Hugin passes re-run
//!   ([`QueryEngine::restricted_to_evidence`]); its answers are message
//!   passes over the targets' Steiner tree toward the member where the
//!   paper's count is smallest (`peanut_junction::reduced`, "Where a
//!   query's pass runs to").
//!
//! The cheaper route answers; a tie goes to the tree. There is no ns/op
//! constant and no knob. The restricted tree is built lazily, once per
//! session: the first time a target prices it cheaper, when
//! [`EvidenceSession::engine`] is called, or at open when the engine holds
//! no CPTs (tables reattached from a slab, or a network with a parent
//! configuration of probability zero), which is then also where impossible
//! evidence is caught. A target that names an evidence variable
//! always takes the tree, whose answer keeps that variable in its scope.
//! [`EvidenceSession::eliminated`] counts the answers sent to elimination.
//!
//! Both routes answer on the *plain* model, without shortcuts:
//! materialized shortcut potentials hold prior-joint marginals, which are
//! simply wrong under an evidence restriction. What the session records
//! instead is per-target-scope arrivals at baseline cost, whichever route
//! answered — the materialization saved none of it, so the lifecycle's
//! observed savings must not count elimination's — while each answer
//! reports the count of the route that ran. The *restricted* scopes are
//! what the lifecycle layer's re-selection trains on (it reads the scope
//! counts only).
//!
//! The restricted tables carry their own message memo
//! (`peanut_junction::reduced`, "The message memo"), empty when built: the
//! memo belongs to the tables it was filled from, and the serving engine's
//! holds messages of the unrestricted ones, none of which is a message of
//! the session's. Within the session, a query takes what earlier queries of
//! the same session filed, bit for bit what it would compute; the memo is
//! dropped with the session.
//!
//! # Epoch-swap semantics
//!
//! A session snapshots its epoch (and that epoch's stats accumulator) and
//! the engine it prices on at open, and owns its pinned CPTs and its
//! restricted tree outright, so a concurrent
//! [`publish`](ServingEngine::publish) never touches an in-flight
//! session: its answers keep their open-time epoch tag until the session
//! is dropped. Sessions opened after the swap see the new epoch. Session
//! queries fan out on the engine's serving-priority worker lane.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use crate::engine::{BatchStats, ServingEngine};
use crate::overload::ServeOutcome;
use crate::pipeline::Target;
use peanut_core::sync::atomic::{AtomicU64, Ordering};
use peanut_core::sync::{Arc, OnceLock};
use peanut_core::{Materialization, OnlineEngine, ServeRequest, TracedAnswer};
use peanut_junction::cost::QueryCost;
use peanut_junction::QueryEngine;
use peanut_pgm::{BayesianNetwork, PgmError, Scope, Scratch, Var};
use peanut_ve::{Pinned, VePlan};

#[cfg(doc)]
use peanut_junction::NumericState;

/// One open evidence session: the evidence pinned on the network's CPTs,
/// the engine it prices on, and the epoch snapshot it was opened under.
/// Created by [`ServingEngine::open_session`]; closing is just dropping it.
pub struct EvidenceSession<'s, 't> {
    serving: &'s ServingEngine<'t>,
    /// What every batch of this session is served against: the open-time
    /// engine and [`Door`]. The materialization is empty (shortcut tables
    /// hold prior-joint marginals, invalid under the restriction) and only
    /// carries the open-time epoch; its plan memo serves the restricted
    /// tree. The stats are the open-time epoch's accumulator; a publish
    /// mid-session retires it, and this session keeps feeding the retired
    /// window (exactly like an in-flight batch would) and hashing its
    /// requests with that accumulator's hasher, the engine's. No answer
    /// cache; duplicate targets of a batch coalesce onto one computation,
    /// and every answer is normalized into `P(· | evidence)`.
    target: Target<'t>,
    /// The target's door, which every answer of the session goes through.
    door: Arc<Door<'t>>,
}

/// How a session answers a target (module docs, "Two routes, one price
/// list"). Shared by the workers of a batch.
pub(crate) struct Door<'t> {
    /// The serving engine at open: the tree every target is priced on.
    plain: Arc<QueryEngine<'t>>,
    /// The network and the evidence pinned on it; `None` when the engine
    /// holds no CPTs.
    pinned: Option<(Arc<BayesianNetwork>, Pinned)>,
    /// The pinned assignment, sorted by variable, each pair once.
    evidence: Vec<(Var, u32)>,
    /// The evidence-restricted, re-calibrated tree, built on first need.
    restricted: OnceLock<Restricted<'t>>,
    /// Answers sent to pruned variable elimination.
    eliminated: AtomicU64,
}

/// The restricted tree, or why it could not be built: then a table-less
/// copy of the plain engine stands in, and every target the tree would
/// answer fails with the build's error.
struct Restricted<'t> {
    engine: QueryEngine<'t>,
    failed: Option<PgmError>,
}

impl<'t> Door<'t> {
    fn restricted(&self) -> &Restricted<'t> {
        self.restricted
            .get_or_init(|| match self.plain.restricted_to_evidence(&self.evidence) {
                Ok(engine) => Restricted {
                    engine,
                    failed: None,
                },
                Err(e) => Restricted {
                    engine: self.plain.without_tables(),
                    failed: Some(e),
                },
            })
    }

    /// `P(targets | e)` by the cheaper route, with the charged count and
    /// the plain tree's.
    pub(crate) fn answer(
        &self,
        mat: &Materialization,
        targets: &Scope,
        scratch: &mut Scratch,
    ) -> Result<TracedAnswer, PgmError> {
        let baseline_ops = self.plain.cost(targets)?.ops;
        if let Some((bn, pinned)) = &self.pinned {
            if !targets.iter().any(|v| pinned.is_pinned(v)) {
                let plan = VePlan::new(bn, pinned, targets)?;
                if plan.ops() < baseline_ops {
                    let mut potential = plan.run(bn, pinned, scratch)?;
                    // open checked P(e) > 0, so the joint has mass
                    potential.normalize();
                    // ordering: a tally read once the batch is back; Relaxed
                    self.eliminated.fetch_add(1, Ordering::Relaxed);
                    return Ok(TracedAnswer {
                        potential,
                        cost: QueryCost {
                            ops: plan.ops(),
                            messages: 0,
                            shortcuts_used: 0,
                        },
                        baseline_ops,
                    });
                }
            }
        }
        let restricted = self.restricted();
        if let Some(e) = &restricted.failed {
            return Err(e.clone());
        }
        let online = OnlineEngine::new(&restricted.engine, mat);
        let mut traced = online.answer_traced_in(targets, scratch)?;
        traced.potential.normalize();
        Ok(traced)
    }
}

impl<'t> ServingEngine<'t> {
    /// Opens an evidence session: pins `evidence` on the network's CPTs
    /// and checks `P(e) > 0`, so the marginal stream served through
    /// [`EvidenceSession::serve_batch`] never re-pays the evidence; where
    /// the engine holds no CPTs, absorbs it into a session-local clone of
    /// the calibrated tree and re-propagates instead. Evidence of
    /// probability zero (under the model, or two values for one variable)
    /// fails closed with [`PgmError::ImpossibleEvidence`], as do unknown
    /// variables and out-of-range values with their own errors, and a
    /// symbolic engine with [`PgmError::SymbolicEngine`].
    pub fn open_session(
        &self,
        mut evidence: Vec<(Var, u32)>,
    ) -> Result<EvidenceSession<'_, 't>, PgmError> {
        evidence.sort_unstable();
        evidence.dedup();
        let snapshot = self.target();
        let plain = Arc::clone(&snapshot.engine);
        let network = plain
            .numeric_state()
            .and_then(|ns| ns.network(plain.tree()));
        let (pinned, restricted) = match network {
            Some(bn) => {
                let pinned = Pinned::new(&bn, &evidence)?;
                let p = pinned.probability(&bn, &mut Scratch::new())?;
                if p.is_nan() || p <= 0.0 {
                    return Err(PgmError::ImpossibleEvidence(evidence));
                }
                (Some((bn, pinned)), OnceLock::new())
            }
            None => {
                let engine = plain.restricted_to_evidence(&evidence)?;
                let failed = None;
                (None, OnceLock::from(Restricted { engine, failed }))
            }
        };
        let door = Arc::new(Door {
            plain,
            pinned,
            evidence,
            restricted,
            eliminated: AtomicU64::new(0),
        });
        Ok(EvidenceSession {
            serving: self,
            target: Target {
                mat: Arc::new(Materialization::default().with_epoch(snapshot.mat.epoch)),
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

    /// The session-local restricted engine (for diagnostics/tests), built
    /// here if no target has needed it yet. Should that build fail — the
    /// tree's `P(e)` underflowing where elimination's did not — this is a
    /// table-less engine over the tree, and the targets the tree would
    /// answer fail with the build's error.
    pub fn engine(&self) -> &QueryEngine<'t> {
        &self.door.restricted().engine
    }

    /// The answers this session sent to pruned variable elimination, of
    /// every target it computed (coalesced duplicates count once).
    pub fn eliminated(&self) -> u64 {
        // ordering: a tally; the batches that fed it have returned
        self.door.eliminated.load(Ordering::Relaxed)
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
    /// `P(targets | evidence)`, by pruned elimination or on the
    /// session-local restricted tree, whichever the target prices cheaper
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
    use peanut_core::ServeRequest;
    use peanut_junction::build_junction_tree;
    use peanut_pgm::fixtures;

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
        assert_eq!(bstats.queries, targets.len());
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

    #[test]
    fn errors_are_per_target_not_per_session() {
        let bn = fixtures::sprinkler();
        let serving = serving_for(&bn);
        let session = serving.open_session(vec![(Var(0), 1)]).unwrap();
        // a target overlapping the pinned evidence is answerable on the
        // restricted tree (it is just a variable of the tree), so the
        // interesting failure is an unknown variable
        let (o, _) = session.serve_batch(&[Scope::from_indices(&[1]), Scope::from_indices(&[99])]);
        assert!(o[0].is_served());
        assert!(o[1].failure().is_some());
    }
}
