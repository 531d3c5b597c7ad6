//! The one serve pipeline behind every serving surface.
//!
//! [`ServingEngine::serve_batch`], [`ShardedServingEngine::serve_mixed`]
//! and [`EvidenceSession::serve_batch`] differ only in how a request
//! *resolves* to a [`Target`] — the engine, the epoch's materialization
//! and stats accumulator, and the answer cache (or none) it is served
//! against. Everything after that is the same and lives here, once:
//!
//! 1. a [`BatchRun`] hashes each arrival once, with the hasher of the
//!    target's stats accumulator (for an engine, its one keyed hasher),
//!    coalesces one target's arrivals into unique requests by that hash
//!    ([`push`](BatchRun::push)), and probes the target's answer cache
//!    under one lock with the same hashes ([`probe`](BatchRun::probe));
//! 2. [`fan_out`] computes what is left — in the calling thread for a
//!    single task or a single worker, as one serving-lane wave of the
//!    persistent [`WorkerPool`](crate::pool::WorkerPool) otherwise;
//! 3. [`finish`](BatchRun::finish) admits the fresh answers to the cache,
//!    folds them into the run's [`Counters`](crate::Counters) — which
//!    `push` and `probe` already counted the arrivals and cache hits into
//!    — builds the [`BatchStats`] from them, and — the one place an
//!    observation is recorded — enters every
//!    answered unique request into the epoch's [`WorkloadStats`] once,
//!    weighted by its arrivals, in one call: one histogram lock per
//!    batch, a marginal filed under the hash it was pushed with, a
//!    conditional under its joint scope's;
//!    [`outcome`](BatchRun::outcome) hands every arrival a zero-copy handle
//!    on its (possibly shared) answer.
//!
//! [`ServingEngine::serve_batch`]: crate::engine::ServingEngine::serve_batch
//! [`ShardedServingEngine::serve_mixed`]: crate::shard::ShardedServingEngine::serve_mixed
//! [`EvidenceSession::serve_batch`]: crate::session::EvidenceSession::serve_batch

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use crate::counters::Counters;
use crate::engine::{Answer, AnswerCache, BatchStats, Served};
use crate::overload::ServeOutcome;
use crate::pool::PoolCell;
use crate::session::Door;
use peanut_core::sync::{Arc, Mutex, OnceLock};
use peanut_core::{ByHash, Materialization, OnlineEngine, ServeRequest, WorkloadStats};
use peanut_junction::cost::QueryCost;
use peanut_junction::QueryEngine;
use peanut_pgm::{PgmError, Scope, Scratch};
use std::collections::hash_map::Entry;
use std::hash::BuildHasher;
use std::time::Instant;

/// One unique request's computation: shared by every arrival that
/// coalesced onto it, and by the cache.
type Computed = Result<Arc<Answer>, PgmError>;

/// What a batch is served against: one epoch snapshot of one engine.
/// Every answer of a run carries `mat.epoch`.
#[derive(Clone)]
pub(crate) struct Target<'t> {
    pub(crate) engine: Arc<QueryEngine<'t>>,
    pub(crate) mat: Arc<Materialization>,
    pub(crate) stats: Arc<WorkloadStats>,
    /// The epoch's cross-batch answer cache; `None` serves uncached.
    pub(crate) cache: Option<Arc<Mutex<AnswerCache>>>,
    /// An evidence session's door: set, every request is a target the door
    /// answers as `P(targets | e)`.
    pub(crate) session: Option<Arc<Door>>,
}

/// One target's share of a batch, from arrivals to outcomes.
pub(crate) struct BatchRun<'a, 't> {
    target: Target<'t>,
    /// The first unique filed under each request hash.
    first_of: ByHash<usize>,
    uniques: Vec<&'a ServeRequest>,
    /// Each unique's request hash, under the target accumulator's hasher.
    hashes: Vec<u64>,
    /// Arrivals per unique request.
    uses: Vec<u64>,
    results: Vec<Option<Computed>>,
    from_cache: Vec<bool>,
    /// Unique indices the cache did not answer.
    work: Vec<usize>,
    counters: Counters,
}

impl<'a, 't> BatchRun<'a, 't> {
    /// An empty run against `target`, sized for `arrivals` requests.
    pub(crate) fn new(target: Target<'t>, arrivals: usize) -> Self {
        BatchRun {
            first_of: ByHash::with_capacity_and_hasher(arrivals, Default::default()),
            uniques: Vec::with_capacity(arrivals),
            hashes: Vec::with_capacity(arrivals),
            uses: Vec::with_capacity(arrivals),
            results: Vec::new(),
            from_cache: Vec::new(),
            work: Vec::new(),
            counters: Counters::default(),
            target,
        }
    }

    /// Adds one arrival and returns the index of the unique request it
    /// is served by. The coalescing key is the whole request, so the same
    /// targets under different evidence are different computations; it is
    /// hashed here, once per arrival.
    pub(crate) fn push(&mut self, req: &'a ServeRequest) -> usize {
        let h = self.target.stats.hasher().hash_one(req);
        self.push_hashed(req, h)
    }

    /// [`push`](Self::push) with the request's hash `h` given. An arrival
    /// whose hash is filed under a *different* request (a collision) opens
    /// a unique of its own: a recomputation, never a shared answer.
    fn push_hashed(&mut self, req: &'a ServeRequest, h: u64) -> usize {
        self.counters.requests += 1;
        let next = self.uniques.len();
        let u = match self.first_of.entry(h) {
            Entry::Occupied(e) if self.uniques[*e.get()] == req => *e.get(),
            Entry::Occupied(_) => next,
            Entry::Vacant(e) => *e.insert(next),
        };
        if u == next {
            self.uniques.push(req);
            self.hashes.push(h);
            self.uses.push(0);
        }
        self.uses[u] += 1;
        u
    }

    /// Probes the epoch's answer cache for every unique request under one
    /// lock scope (only `Arc` clones happen inside): repeats are served
    /// from memory, the rest becomes [`work`](Self::work).
    pub(crate) fn probe(&mut self) {
        let n = self.uniques.len();
        self.results.resize_with(n, || None);
        self.from_cache.resize(n, false);
        let Some(cache) = &self.target.cache else {
            self.work.extend(0..n);
            return;
        };
        let cache = cache.lock();
        for (u, (q, &h)) in self.uniques.iter().zip(&self.hashes).enumerate() {
            match cache.lookup(h, q) {
                Some(hit) => {
                    self.results[u] = Some(Ok(hit));
                    self.from_cache[u] = true;
                    self.counters.cache_hits += 1;
                }
                None => self.work.push(u),
            }
        }
    }

    /// The unique indices that need computing.
    pub(crate) fn work(&self) -> &[usize] {
        &self.work
    }

    /// Computes unique request `u` — the paper's online routine (Steiner
    /// tree, shortcut substitution, reduce) through an [`OnlineEngine`],
    /// or a session's door. Touches no shared state but the memos: workers
    /// of one wave never contend otherwise.
    pub(crate) fn compute(&self, u: usize, scratch: &mut Scratch) -> Computed {
        let t = Instant::now();
        let online = OnlineEngine::new(&self.target.engine, &self.target.mat);
        let req = self.uniques[u];
        let traced = if let Some(door) = &self.target.session {
            door.answer(&self.target.engine, &req.targets, scratch)?
        } else if req.is_marginal() {
            online.answer_traced_in(&req.targets, scratch)?
        } else {
            online.conditional_traced_in(&req.targets, &req.evidence, scratch)?
        };
        Ok(Arc::new(Answer {
            potential: traced.potential,
            cost: traced.cost,
            baseline_ops: traced.baseline_ops,
            work: traced.work,
            epoch: self.target.mat.epoch,
            service_time: t.elapsed(),
        }))
    }

    /// Takes the computed answers (one per [`work`](Self::work) entry, in
    /// order), counts them — the one place an answer is folded into
    /// [`Counters`](crate::Counters) — admits them to the cache, and
    /// records the batch into the epoch's stats. Returns the run's stats;
    /// `wall` is the caller's to set.
    pub(crate) fn finish(&mut self, computed: impl Iterator<Item = Computed>) -> BatchStats {
        let counters = &mut self.counters;
        for (&u, r) in self.work.iter().zip(computed) {
            match &r {
                Ok(a) => counters.add_answer(&a.cost, a.baseline_ops, &a.work),
                Err(_) => counters.failed += self.uses[u],
            }
            self.results[u] = Some(r);
        }
        if let Some(cache) = &self.target.cache {
            // zero-copy admission: the cache shares the arrivals' Arc
            let fresh: Vec<(u64, ServeRequest, Arc<Answer>)> = self
                .work
                .iter()
                .filter_map(|&u| match &self.results[u] {
                    Some(Ok(a)) => Some((self.hashes[u], self.uniques[u].clone(), Arc::clone(a))),
                    _ => None,
                })
                .collect();
            if !fresh.is_empty() {
                let mut cache = cache.lock();
                for (h, q, a) in fresh {
                    cache.insert(h, q, a);
                }
            }
        }
        // every answered unique — computed or cached — is observed here,
        // once, with its full multiplicity: the epoch's stats weigh
        // arrivals, not computations, and a failed request is not observed.
        // A marginal is filed under its request hash (it hashes as its
        // targets); a conditional under its joint scope, hashed once here.
        let stats = &self.target.stats;
        let answered = |u: usize| match &self.results[u] {
            Some(Ok(a)) => Some(a),
            _ => None,
        };
        let uniques = 0..self.uniques.len();
        let joints: Vec<(usize, u64, Scope)> = uniques
            .clone()
            .filter(|&u| !self.uniques[u].is_marginal() && answered(u).is_some())
            .map(|u| {
                let joint = self.uniques[u].stat_scope();
                (u, stats.hasher().hash_one(&joint), joint)
            })
            .collect();
        let marginals = uniques
            .filter(|&u| self.uniques[u].is_marginal())
            .map(|u| (u, self.hashes[u], &self.uniques[u].targets));
        let observed = marginals.chain(joints.iter().map(|(u, h, s)| (*u, *h, s)));
        // a session's answers are filed at their plain-tree count: the
        // epoch's materialization served none of them, so they show none of
        // its savings (empty for any other target)
        let unsaved: Vec<QueryCost> = match &self.target.session {
            Some(_) => (0..self.uniques.len())
                .map(|u| {
                    answered(u).map_or_else(QueryCost::default, |a| QueryCost {
                        ops: a.baseline_ops,
                        ..a.cost
                    })
                })
                .collect(),
            None => Vec::new(),
        };
        stats.record(observed.filter_map(|(u, h, scope)| {
            let a = answered(u)?;
            let cost = unsaved.get(u).unwrap_or(&a.cost);
            Some((h, scope, cost, a.baseline_ops, self.uses[u]))
        }));
        BatchStats {
            unique: self.uniques.len(),
            cache_hits: self.counters.cache_hits as usize,
            epoch: self.target.mat.epoch,
            counters: self.counters,
            ..BatchStats::default()
        }
    }

    /// The outcome of an arrival served by unique request `u`: a
    /// zero-copy handle on the shared answer (errors are cloned; they
    /// carry no tables). Call after [`finish`](Self::finish).
    pub(crate) fn outcome(&self, u: usize) -> ServeOutcome {
        #[expect(
            clippy::expect_used,
            reason = "invariant: `probe` answers every unique from the cache or lists it in \
                      `work`, and `finish` fills those"
        )]
        match self.results[u].as_ref().expect("finished run") {
            Ok(a) => ServeOutcome::Served(Served {
                answer: Arc::clone(a),
                from_cache: self.from_cache[u],
            }),
            Err(e) => ServeOutcome::Failed(e.clone()),
        }
    }
}

/// Runs `task(i, scratch)` for every `i in 0..n` and returns the results
/// in index order. One task, or one worker, runs in the calling thread —
/// no fan-out overhead for small or warm batches, and an engine that only
/// ever serves that way never spawns a thread. Anything else is one wave
/// on the pool's serving lane (the highest priority — a queued
/// re-materialization wave is preempted between tasks), with the parked
/// workers' scratches persisting across batches. `run_wave` re-raises a
/// task panic here after the wave drains, so a poisoned batch never
/// poisons the pool.
pub(crate) fn fan_out<R: Send + Sync>(
    pool: &PoolCell,
    workers: usize,
    n: usize,
    task: impl Fn(usize, &mut Scratch) -> R + Sync,
) -> Vec<R> {
    if workers <= 1 || n <= 1 {
        let mut scratch = Scratch::new();
        return (0..n).map(|i| task(i, &mut scratch)).collect();
    }
    // each task owns slot `i`, so results land lock-free instead of
    // contending on one mutex
    let slots: Vec<OnceLock<R>> = (0..n).map(|_| OnceLock::new()).collect();
    pool.get_or_spawn(workers).run_wave(n, &|i, scratch| {
        assert!(
            slots[i].set(task(i, scratch)).is_ok(),
            "wave claims each index once"
        );
    });
    #[expect(
        clippy::expect_used,
        reason = "protocol invariant: run_wave does not return before every claimed index has \
                  completed, and the model-check suite drives exactly that protocol"
    )]
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("completed wave ran every task"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::BatchRun;
    use crate::engine::{Served, ServingConfig, ServingEngine};
    use crate::overload::ServeOutcome;
    use peanut_core::sync::Arc;
    use peanut_core::{
        Materialization, MaterializedShortcut, ServeRequest, Shortcut, StatsSnapshot,
    };
    use peanut_junction::{build_junction_tree, QueryEngine};
    use peanut_pgm::{fixtures, Scope, Scratch, Var};

    /// A Figure-1 engine serving one hand-built shortcut (over the clique
    /// `{e,g,h}`), so the exact counts below include shortcut hits.
    fn figure1_serving() -> ServingEngine<'static> {
        let bn = fixtures::figure1();
        // leak the tree for 'static; tests only — the engine borrows it
        let tree = Box::leak(Box::new(build_junction_tree(&bn).unwrap()));
        let engine = QueryEngine::numeric(tree, &bn).unwrap();
        let egh = Scope::from_indices(&[4, 6, 7]);
        let egh = tree.cliques().iter().position(|c| *c == egh).unwrap();
        let s = Shortcut::from_nodes(tree, engine.rooted(), vec![egh]).unwrap();
        let (pot, _) = s
            .materialize(tree, engine.rooted(), engine.numeric_state().unwrap())
            .unwrap();
        let mat = Materialization::new(
            vec![MaterializedShortcut {
                ratio: 1.0,
                benefit: 1.0,
                potential: Some(pot),
                shortcut: s,
            }],
            false,
        );
        ServingEngine::new(engine, mat, ServingConfig::default().with_workers(2))
    }

    /// One batch holding a fresh unique used 3×, a cached unique used 2×,
    /// a conditional used 2×, the marginal on the conditional's joint scope
    /// used 2× and a failing request: the epoch's stats hold every
    /// *arrival* of every answered request exactly once, nothing of the
    /// failed one, and one histogram entry for the joint scope whichever
    /// door filed it.
    #[test]
    fn a_batch_is_observed_once_per_arrival() {
        let serving = figure1_serving();
        let fresh = ServeRequest::marginal(Scope::from_indices(&[1, 5, 8])); // {b,f,i}
        let cached = ServeRequest::marginal(Scope::from_indices(&[0, 9])); // {a,l}
        let cond = ServeRequest::new(Scope::from_indices(&[3]), vec![(Var(8), 1)]); // d | i
        let joint = ServeRequest::marginal(Scope::from_indices(&[3, 8])); // {d,i}
        let failing = ServeRequest::marginal(Scope::from_indices(&[99]));
        assert_eq!(cond.stat_scope(), joint.targets);
        serving.serve_batch(std::slice::from_ref(&cached));
        serving.reset_stats(); // a fresh window; the answer cache stays warm

        let batch = [
            &fresh, &cached, &cond, &failing, &joint, &fresh, &cond, &cached, &fresh, &joint,
        ]
        .map(Clone::clone);
        let (outcomes, bstats) = serving.serve_batch(&batch);
        assert_eq!(
            (bstats.counters.requests, bstats.unique, bstats.cache_hits),
            (10, 5, 1)
        );
        assert!(outcomes[3].failure().is_some());
        let of = |i: usize| outcomes[i].served().expect("served");
        let (f, c, k, j) = (of(0), of(1), of(2), of(4));
        assert!(!f.from_cache && c.from_cache && !k.from_cache && !j.from_cache);
        assert_eq!(f.cost.shortcuts_used, 1, "test premise: the shortcut fires");

        let stats = serving.stats();
        let uses = [(f, 3u64), (c, 2), (k, 2), (j, 2)];
        let total = |v: fn(&Served) -> u64| uses.iter().map(|&(a, n)| n * v(a)).sum::<u64>();
        assert_eq!(
            stats.snapshot(),
            StatsSnapshot {
                queries: 9,
                shortcut_queries: total(|a| u64::from(a.cost.shortcuts_used > 0)),
                shortcuts_used: total(|a| a.cost.shortcuts_used as u64),
                observed_ops: total(|a| a.cost.ops),
                baseline_ops: total(|a| a.baseline_ops),
            }
        );
        assert_eq!(
            stats.scope_counts(),
            vec![
                (cached.targets.clone(), 2),
                (fresh.targets.clone(), 3),
                // the conditional's joint {d, i} and the marginal on it
                (joint.targets.clone(), 4),
            ]
        );
    }

    /// Serves `batch` the way `serve_on` does, on the calling thread, but
    /// files each request under the hash given beside it.
    fn serve_hashed(
        serving: &ServingEngine<'_>,
        batch: &[(ServeRequest, u64)],
    ) -> Vec<ServeOutcome> {
        let mut run = BatchRun::new(serving.target(), batch.len());
        let assign: Vec<usize> = batch.iter().map(|(q, h)| run.push_hashed(q, *h)).collect();
        run.probe();
        let mut scratch = Scratch::new();
        let computed: Vec<_> = run
            .work()
            .iter()
            .map(|&u| run.compute(u, &mut scratch))
            .collect();
        run.finish(computed.into_iter());
        assign.into_iter().map(|u| run.outcome(u)).collect()
    }

    /// Two different requests under one hash neither coalesce in a batch
    /// nor read each other's cache entry, and the histogram keeps their
    /// scopes apart with exact counts.
    #[test]
    fn colliding_requests_neither_coalesce_nor_share_an_answer() {
        let serving = figure1_serving();
        let a = ServeRequest::marginal(Scope::from_indices(&[0, 9]));
        let b = ServeRequest::marginal(Scope::from_indices(&[1, 5]));
        let (want, _) = serving.serve_batch(&[a.clone(), b.clone()]);
        let bits = |o: &ServeOutcome| -> Vec<u64> {
            let p = &o.served().expect("served").potential;
            p.values().iter().map(|v| v.to_bits()).collect()
        };
        serving.reset_stats();
        let batch = [&a, &b, &a, &b].map(|q| (q.clone(), 7));
        for pass in 0..2 {
            let got = serve_hashed(&serving, &batch);
            for (o, w) in got.iter().zip([&want[0], &want[1], &want[0], &want[1]]) {
                assert_eq!(bits(o), bits(w), "pass {pass}: an answer crossed over");
            }
            let from_cache: Vec<bool> =
                got.iter().map(|o| o.served().unwrap().from_cache).collect();
            // a holds the hash's slot from the first pass on; b never reads it
            let a_cached = pass == 1;
            assert_eq!(from_cache, [a_cached, false, a_cached, false]);
        }
        let counts = serving.stats().scope_counts();
        assert_eq!(counts, vec![(a.targets.clone(), 4), (b.targets.clone(), 4)]);
    }

    /// The same accounting through an evidence session (no cache):
    /// duplicate targets coalesce onto one shared answer, every served
    /// target is one arrival under its restricted scope, and the failed one
    /// is not observed.
    #[test]
    fn a_session_batch_is_observed_once_per_arrival() {
        let serving = figure1_serving();
        let session = serving.open_session(vec![(Var(8), 1)]).unwrap();
        let (t1, t2) = (Scope::from_indices(&[1, 5]), Scope::from_indices(&[3]));
        let bad = Scope::from_indices(&[99]);
        let batch = [&t1, &t2, &bad, &t1, &t2, &t1].map(Clone::clone);
        let (outcomes, bstats) = session.serve_batch(&batch);
        assert_eq!(
            (bstats.counters.requests, bstats.unique, bstats.cache_hits),
            (6, 3, 0)
        );
        assert!(outcomes[2].failure().is_some());
        let (a1, a2) = (outcomes[0].served().unwrap(), outcomes[1].served().unwrap());
        for (i, first) in [(3, a1), (4, a2), (5, a1)] {
            let dup = outcomes[i].served().unwrap();
            assert!(Arc::ptr_eq(&dup.answer, &first.answer), "arrival {i}");
        }

        let stats = serving.stats();
        assert_eq!(
            stats.snapshot(),
            StatsSnapshot {
                queries: 5,
                shortcut_queries: 0,
                shortcuts_used: 0,
                observed_ops: 3 * a1.baseline_ops + 2 * a2.baseline_ops,
                baseline_ops: 3 * a1.baseline_ops + 2 * a2.baseline_ops,
            }
        );
        assert_eq!(stats.scope_counts(), vec![(t1, 3), (t2, 2)]);
    }
}
