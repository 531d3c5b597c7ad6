//! `evidence_sessions`: Hailfinder, stateful evidence sessions. Each
//! session pins 2–3 evidence variables (`open_session`: restrict +
//! re-calibrate once), answers one target marginal (`serve_one` — the
//! "first answer"), then streams the remaining 31 through
//! `EvidenceSession::serve_batch`. Calibration is per-request work here
//! and set-up everywhere else, and the session path is the third copy of
//! the serve pipeline. Closed loop, one client.

use super::{keep_sampled, with_serving, Tally};
use crate::gen::{consistent_evidence, skewed, sub_seed};
use crate::oracle::{strided, CheckSample};
use crate::runner::{Call, Rep, Traced, Workload};
use crate::spec::LANES;
use crate::stats::{median, spread};
use crate::steady::QuietCpu;
use crate::trace::Tracer;
use peanut_junction::QueryEngine;
use peanut_pgm::{Potential, Scope, Var};
use peanut_serving::{ServeRequest, ServingEngine};
use peanut_workload::QuerySpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const DATASET: &str = "Hailfinder";
const TRAIN: usize = 2000;
/// Sessions per repetition.
const SESSIONS: usize = 100;
/// Target marginals per session.
const TARGETS: usize = 32;
/// Plain-junction-tree cost range of a target scope, operations.
const TARGET_OPS: std::ops::RangeInclusive<u64> = 100_000..=2_000_000;
const CHECKS: usize = 96;
const TRACE_SESSIONS: usize = 50;

/// One session's inputs.
pub struct SessionInput {
    /// The pinned evidence (consistent: it has positive probability).
    pub evidence: Vec<(Var, u32)>,
    /// The target scopes, all disjoint from the evidence.
    pub targets: Vec<Scope>,
}

/// `evidence_sessions` with its generated inputs.
pub struct EvidenceSessions {
    train: Vec<Scope>,
    /// The sessions, in serving order.
    pub sessions: Vec<SessionInput>,
    /// Oracle references; positions index the flattened
    /// `session * TARGETS + target` list.
    sample: CheckSample,
}

impl EvidenceSessions {
    /// Generates the inputs for `seed`.
    pub fn new(seed: u64) -> Self {
        let model = crate::fixture::build_model(DATASET, &mut Default::default());
        let train = skewed(
            &model.tree,
            TRAIN,
            QuerySpec::default(),
            sub_seed(seed, "train"),
        );
        // Targets come from the whole population of two- and
        // three-variable scopes whose plain cost is within
        // [`TARGET_OPS`], so their cost profile does not depend on the
        // seed. The floor matters as much as the cap: a wave of 31
        // 50 µs tasks is over before the second worker's virtual CPU has
        // been woken, and its wall then measures the host's wake-up
        // latency (1.5 to 3.5 ms for the same batch, run to run).
        let symbolic = QueryEngine::symbolic(&model.tree);
        let vars: Vec<Var> = model.bn.domain().all_vars().collect();
        let mut pool: Vec<Scope> = Vec::new();
        for (i, &a) in vars.iter().enumerate() {
            for (j, &b) in vars.iter().enumerate().skip(i + 1) {
                pool.push(Scope::from_iter([a, b]));
                pool.extend(vars[j + 1..].iter().map(|&c| Scope::from_iter([a, b, c])));
            }
        }
        pool.retain(|q| symbolic.cost(q).is_ok_and(|c| TARGET_OPS.contains(&c.ops)));
        let contexts = consistent_evidence(&model.bn, SESSIONS, 2, 3, sub_seed(seed, "evidence"));
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, "assign"));
        let sessions: Vec<SessionInput> = contexts
            .into_iter()
            .map(|evidence| {
                let pinned = Scope::from_iter(evidence.iter().map(|&(v, _)| v));
                let mut targets = Vec::with_capacity(TARGETS);
                while targets.len() < TARGETS {
                    let t = &pool[rng.gen_range(0..pool.len())];
                    if t.is_disjoint_from(&pinned) {
                        targets.push(t.clone());
                    }
                }
                SessionInput { evidence, targets }
            })
            .collect();
        let flat: Vec<ServeRequest> = sessions
            .iter()
            .flat_map(|s| {
                s.targets
                    .iter()
                    .map(|t| ServeRequest::new(t.clone(), s.evidence.clone()))
            })
            .collect();
        let sample = CheckSample::build(&model.bn, &flat, strided(flat.len(), CHECKS), CHECKS);
        EvidenceSessions {
            train,
            sessions,
            sample,
        }
    }

    /// Serves `sessions` in order; pushes two calls per session: opening
    /// it up to its first answer (what the session's first request waited),
    /// and the batch that carried the other 31.
    fn serve(
        &self,
        serving: &ServingEngine<'_>,
        sessions: &[SessionInput],
        tally: &mut Tally,
        calls: &mut Vec<Call>,
        kept: &mut Vec<(usize, Potential)>,
    ) {
        let mut sampled = self.sample.positions().peekable();
        for (s, input) in sessions.iter().enumerate() {
            let t = Instant::now();
            let session = match serving.open_session(input.evidence.clone()) {
                Ok(session) => session,
                Err(_) => {
                    tally.requests += TARGETS as u64;
                    tally.failed += TARGETS as u64;
                    continue;
                }
            };
            let first = session.serve_one(&input.targets[0]);
            calls.push(Call::since(t, 1));
            let t = Instant::now();
            let (mut outcomes, _) = session.serve_batch(&input.targets[1..]);
            calls.push(Call::since(t, outcomes.len()));
            outcomes.insert(0, first);
            tally.batch(&outcomes, outcomes.len(), 0);
            keep_sampled(&mut sampled, s * TARGETS, &outcomes, kept);
        }
    }
}

impl Workload for EvidenceSessions {
    fn rep(&self, _index: usize) -> Rep {
        let t_setup = Instant::now();
        with_serving(DATASET, &self.train, LANES, |up| {
            let serving = up.serving;
            self.serve(
                serving,
                &self.sessions[..SESSIONS / 8],
                &mut Tally::default(),
                &mut Vec::new(),
                &mut Vec::new(),
            );
            let setup_s = t_setup.elapsed().as_secs_f64();

            let quiet_cpu = QuietCpu::pick();
            let mut tally = Tally::default();
            let mut calls = Vec::with_capacity(2 * SESSIONS);
            let mut kept = Vec::new();
            self.serve(serving, &self.sessions, &mut tally, &mut calls, &mut kept);
            drop(quiet_cpu);
            let n = SESSIONS * TARGETS;
            Rep {
                period: 0,
                setup_s,
                calls,
                attempted: tally.requests + self.sample.refs.len() as u64,
                failed: tally.failed + self.sample.mismatches(&kept, 0..n),
                ops: tally.ops,
                baseline_ops: tally.baseline_ops,
                counts: Vec::new(),
            }
        })
    }

    fn nominal_rep_s(&self) -> f64 {
        1.45
    }

    fn traced(&self) -> Traced {
        with_serving(DATASET, &self.train, LANES, |up| {
            let serving = up.serving;
            let prefix = &self.sessions[..TRACE_SESSIONS];
            let mut tally = Tally::default();
            let mut kept = Vec::new();
            // untraced passes (the first is warm-up), each the time spent
            // inside the three calls of every session
            let untraced: Vec<f64> = (0..3)
                .map(|_| {
                    kept.clear();
                    let mut calls = Vec::new();
                    self.serve(serving, prefix, &mut tally, &mut calls, &mut kept);
                    calls.iter().map(|c| c.us).sum::<f64>() / 1e6
                })
                .collect();
            let untraced = &untraced[1..];

            let mut tracer = Tracer::new();
            let (mut open_us, mut restrict_us, mut tax_us, mut query_us, mut batch_us) =
                (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
            let mut traced_s = 0.0;
            let mut opens = Vec::with_capacity(prefix.len());
            for (s, input) in prefix.iter().enumerate() {
                let id = s as u64;
                let req = tracer.open("request", None, id);
                let (session, open) = tracer.time("serving.open_session", Some(req), id, || {
                    serving.open_session(input.evidence.clone())
                });
                let Ok(session) = session else {
                    tally.failed += TARGETS as u64;
                    tracer.close(req);
                    continue;
                };
                let (first, first_span) =
                    tracer.time("serving.session_first_answer", Some(req), id, || {
                        session.serve_one(&input.targets[0])
                    });
                let ((mut outcomes, _), batch) =
                    tracer.time("serving.session_batch", Some(req), id, || {
                        session.serve_batch(&input.targets[1..])
                    });
                tracer.close(req);
                outcomes.insert(0, first);
                tally.batch(&outcomes, outcomes.len(), 0);
                let us = |span| tracer.duration_ns(span) as f64 / 1e3;
                // like the untraced sum: the time inside the three calls
                traced_s += (us(open) + us(first_span) + us(batch)) / 1e6;
                open_us.push(us(open) + us(first_span));
                batch_us.push(us(batch));
                query_us.push(us(batch) / (TARGETS - 1) as f64);
                opens.push((s, open));
            }
            // the junction stage inside open_session, replayed in a pass of
            // its own and recorded as a child of the open span
            for (s, open) in opens {
                let (restricted, restrict) =
                    tracer.time("junction.restrict", Some(open), s as u64, || {
                        serving.engine().restricted_to_evidence(&prefix[s].evidence)
                    });
                drop(restricted);
                let us = |span| tracer.duration_ns(span) as f64 / 1e3;
                restrict_us.push(us(restrict));
                tax_us.push(us(open) - us(restrict));
            }

            let mut layer = up.layer_metrics();
            layer.extend([
                ("junction.restrict_us", median(&restrict_us)),
                ("serving.session_open_us_p50", median(&open_us)),
                ("serving.session_query_us_p50", median(&query_us)),
                ("serving.session_tax_us", median(&tax_us)),
                ("serving.batch_us_p50", median(&batch_us)),
                (
                    "bench.trace_overhead_frac",
                    traced_s / median(untraced) - 1.0,
                ),
                ("bench.spread_max", spread(untraced)),
            ]);
            Traced {
                layer,
                tracer,
                attempted: tally.requests,
                failed: tally.failed + self.sample.mismatches(&kept, 0..TRACE_SESSIONS * TARGETS),
            }
        })
    }
}
