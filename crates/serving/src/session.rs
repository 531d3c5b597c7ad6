//! Stateful evidence sessions: pin an evidence assignment once, then
//! stream marginal queries against a session-local restricted engine.
//!
//! The per-query conditional path answers `P(targets | e)` by computing a
//! *joint* marginal over `targets ∪ vars(e)` and restricting — every query
//! re-pays the evidence: the Steiner tree spans the evidence variables, so
//! a distant context inflates every single answer. Real conditioned
//! traffic is session-shaped (one observed context, many queries — the
//! pattern Darwiche's *Dynamic Jointrees* exploits), and
//! [`ServingEngine::open_session`] amortizes it: the engine absorbs the
//! evidence into a clone of the calibrated tree **once**
//! ([`QueryEngine::restricted_to_evidence`]), re-calibrates, and every
//! subsequent query is a plain marginal over just its targets — a
//! message pass over its Steiner tree toward the member where the paper's
//! count is smallest, charged the count toward `r_q` like any answer
//! (`peanut_junction::reduced`, "Where a query's pass runs to").
//!
//! Sessions deliberately answer on the *plain* restricted tree, without
//! shortcuts: materialized shortcut potentials hold prior-joint marginals,
//! which are simply wrong under an evidence restriction. What the session
//! records instead is per-target-scope arrivals at baseline cost: the
//! *restricted* scopes are what the lifecycle layer's re-selection trains
//! on (it reads the scope counts only).
//!
//! The restricted tables carry their own message memo
//! (`peanut_junction::reduced`, "The message memo"), empty at open: the
//! memo belongs to the tables it was filled from, and the serving engine's
//! holds messages of the unrestricted ones, none of which is a message of
//! the session's. Within the session, a query takes what earlier queries of
//! the same session filed, bit for bit what it would compute; the memo is
//! dropped with the session.
//!
//! # Epoch-swap semantics
//!
//! A session snapshots its epoch (and that epoch's stats accumulator) at
//! open and owns its restricted tree outright, so a concurrent
//! [`publish`](ServingEngine::publish) never touches an in-flight
//! session: its answers keep their open-time epoch tag until the session
//! is dropped. Sessions opened after the swap see the new epoch. Session
//! queries fan out on the engine's serving-priority worker lane.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use crate::engine::{BatchStats, ServingEngine};
use crate::overload::ServeOutcome;
use crate::pipeline::Target;
use peanut_core::sync::Arc;
use peanut_core::{Materialization, ServeRequest};
use peanut_junction::QueryEngine;
use peanut_pgm::{PgmError, Scope, Var};

/// One open evidence session: an owned evidence-restricted, re-calibrated
/// engine plus the epoch snapshot it was opened under. Created by
/// [`ServingEngine::open_session`]; closing is just dropping it.
pub struct EvidenceSession<'s, 't> {
    serving: &'s ServingEngine<'t>,
    /// What every batch of this session is served against. The engine is
    /// session-local: the shared tree with the evidence absorbed and
    /// messages re-propagated, paid once at open. The materialization is
    /// empty (shortcut tables hold prior-joint marginals, invalid under
    /// the restriction) and only carries the open-time epoch. The stats
    /// are the open-time epoch's accumulator; a publish mid-session
    /// retires it, and this session keeps feeding the retired window
    /// (exactly like an in-flight batch would) and hashing its requests
    /// with that accumulator's hasher, the engine's. No answer cache;
    /// duplicate targets of a batch coalesce onto one computation, and
    /// every answer is normalized into `P(· | evidence)`.
    target: Target<'t>,
    evidence: Vec<(Var, u32)>,
}

impl<'t> ServingEngine<'t> {
    /// Opens an evidence session: absorbs `evidence` into a session-local
    /// clone of the calibrated tree and re-propagates **once**, so the
    /// marginal stream served through [`EvidenceSession::serve_batch`]
    /// never re-pays the evidence. Contradictory evidence is not an error
    /// (the restricted tables are all-zero and every answer sums to 0);
    /// unknown variables and out-of-range values are.
    pub fn open_session(
        &self,
        mut evidence: Vec<(Var, u32)>,
    ) -> Result<EvidenceSession<'_, 't>, PgmError> {
        evidence.sort_unstable();
        evidence.dedup();
        let local = self.engine().restricted_to_evidence(&evidence)?;
        let snapshot = self.target();
        Ok(EvidenceSession {
            serving: self,
            target: Target {
                engine: Arc::new(local),
                mat: Arc::new(Materialization::default().with_epoch(snapshot.mat.epoch)),
                stats: snapshot.stats,
                cache: None,
                normalize: true,
            },
            evidence,
        })
    }
}

impl<'s, 't> EvidenceSession<'s, 't> {
    /// The pinned evidence assignment (sorted by variable, each pair once).
    pub fn evidence(&self) -> &[(Var, u32)] {
        &self.evidence
    }

    /// The materialization epoch this session was opened under; every
    /// answer it produces carries this tag, across concurrent publishes.
    pub fn epoch(&self) -> u64 {
        self.target.mat.epoch
    }

    /// The session-local restricted engine (for diagnostics/tests).
    pub fn engine(&self) -> &QueryEngine<'t> {
        &self.target.engine
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
    /// `P(targets | evidence)` computed on the session-local restricted
    /// tree — no joint over `targets ∪ vars(e)` is ever formed, which is
    /// where the amortization over the per-query conditional path comes
    /// from. Fans out on the engine's serving-priority lane.
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
    fn session_rejects_bad_evidence_but_not_contradictions() {
        let bn = fixtures::sprinkler();
        let serving = serving_for(&bn);
        assert!(serving.open_session(vec![(Var(99), 0)]).is_err());
        // same variable pinned to two values: a contradiction, served as
        // all-zero tables rather than an error (Hugin semantics)
        let s = serving
            .open_session(vec![(Var(1), 0), (Var(1), 1)])
            .unwrap();
        let a = s.serve_one(&Scope::from_indices(&[2]));
        assert_eq!(a.served().unwrap().potential.sum(), 0.0);
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
