//! Fixtures shared by the serving integration tests (each test file is its
//! own crate and uses a subset, hence the `dead_code` allowance).
#![allow(dead_code)]

use peanut_core::{Materialization, OfflineContext, Peanut, PeanutConfig, Workload};
use peanut_junction::{JunctionTree, QueryEngine};
use peanut_pgm::{BayesianNetwork, Potential, Scope, Var};
use peanut_serving::ServeRequest;
use peanut_ve::ve_answer;
use peanut_workload::{uniform_queries, with_evidence, QuerySpec};

/// Oracle: `P(targets | evidence)` via single-threaded VE.
pub fn ve_conditional(bn: &BayesianNetwork, targets: &Scope, evidence: &[(Var, u32)]) -> Potential {
    let ev_scope = Scope::from_iter(evidence.iter().map(|&(v, _)| v));
    let q = targets.union(&ev_scope);
    let (mut joint, _) = ve_answer(bn, &q).unwrap();
    for &(v, val) in evidence {
        joint = joint.restrict(v, val).unwrap();
    }
    joint.normalize();
    joint
}

pub fn random_batch(bn: &BayesianNetwork, n: usize, seed: u64) -> Vec<ServeRequest> {
    let spec = QuerySpec {
        min_vars: 1,
        max_vars: 4,
    };
    let scopes = uniform_queries(bn.domain(), n, spec, seed);
    with_evidence(bn.domain(), &scopes, 0.4, seed ^ 0xf00d)
}

pub fn train_mat(
    tree: &JunctionTree,
    engine: &QueryEngine<'_>,
    batch: &[ServeRequest],
    budget: u64,
) -> Materialization {
    let train: Vec<Scope> = batch.iter().map(|q| q.stat_scope()).collect();
    if train.is_empty() || budget == 0 {
        return Materialization::default();
    }
    let ctx = OfflineContext::new(tree, &Workload::from_queries(train)).unwrap();
    Peanut::offline_numeric(
        &ctx,
        &PeanutConfig::plus(budget).with_epsilon(1.0),
        engine.numeric_state().unwrap(),
    )
    .unwrap()
    .0
}
