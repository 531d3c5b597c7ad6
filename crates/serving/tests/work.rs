//! Every answer carries the work its own pass ran (`Answer::work`), and
//! the memos count their takes on their own (`MemoUsage::taken`): summed
//! over the answers computed between two reads of the memos, the two
//! agree. The factor memo's half is a unit test of `session.rs`, which
//! reaches a session's pinning.

mod common;

use common::train_mat;
use peanut_junction::{build_junction_tree, QueryEngine, RootedTree};
use peanut_serving::{Answer, ServeRequest, ServingConfig, ServingEngine};
use peanut_workload::{skewed_queries, with_evidence, QuerySpec};
use std::sync::Arc;

/// The messages taken from both message memos, and the plans taken from
/// the plan memo, as the memos count them.
fn memo_takes(serving: &ServingEngine<'_>) -> (u64, u64) {
    let mat = serving.materialization();
    let messages = serving.engine().memo_usage().taken + mat.memo_usage().taken;
    (messages, mat.plan_usage().taken)
}

/// A seeded Child stream — skewed 1–3-variable scopes, so scopes repeat
/// across batches and messages across scopes, a quarter with evidence —
/// served by one worker over a PEANUT+ materialization: the messages and
/// plans the computed answers say they took are the memos' takes.
#[test]
fn summed_work_equals_the_message_and_plan_memos_takes() {
    let bn = peanut_datasets::dataset("Child").unwrap().build().unwrap();
    let tree = build_junction_tree(&bn).unwrap();
    let rooted = RootedTree::new(&tree);
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let spec = QuerySpec {
        min_vars: 1,
        max_vars: 3,
    };
    let train: Vec<ServeRequest> = skewed_queries(&tree, &rooted, 500, spec, 1)
        .into_iter()
        .map(ServeRequest::marginal)
        .collect();
    let mat = train_mat(&tree, &engine, &train, tree.total_separator_size() * 10);
    assert!(!mat.is_empty(), "a materialization to take messages from");
    let scopes = skewed_queries(&tree, &rooted, 2048, spec, 2);
    let stream = with_evidence(tree.domain(), &scopes, 0.25, 3);
    let serving = ServingEngine::new(engine, mat, ServingConfig::default().with_workers(1));

    let (before, mat_before) = (memo_takes(&serving), serving.materialization().memo_usage());
    let (mut messages, mut plans, mut computed) = (0, 0, 0);
    for batch in stream.chunks(64) {
        let (outcomes, _) = serving.serve_batch(batch);
        // arrivals that coalesced onto one computation share its answer
        let mut fresh: Vec<&Arc<Answer>> = Vec::new();
        for served in outcomes.iter().map(|o| o.served().expect("served")) {
            if !served.from_cache && !fresh.iter().any(|a| Arc::ptr_eq(a, &served.answer)) {
                fresh.push(&served.answer);
            }
        }
        for answer in fresh {
            messages += answer.work.messages_taken;
            plans += u64::from(answer.work.plan_taken);
            computed += 1;
            assert!(answer.work.messages_computed > 0, "{answer:?}");
        }
    }
    let after = memo_takes(&serving);
    assert_eq!((messages, plans), (after.0 - before.0, after.1 - before.1));
    let mat_took = serving.materialization().memo_usage().taken - mat_before.taken;
    assert!(
        messages > mat_took && mat_took > 0 && plans > 0,
        "{messages} messages ({mat_took} from the materialization), {plans} plans \
         taken by {computed} answers"
    );
}
