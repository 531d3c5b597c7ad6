//! The work ledger: exact counts of what two serving shapes do, one
//! repetition each, with nothing timed — so two runs of one build write
//! the same bytes, and a change that moves the work moves the file.
//!
//! * `fleet_paging`: 8 tenants over HeparII / Child / Hailfinder behind 3
//!   resident slots of a store-backed `ShardedServingEngine` on one
//!   worker; tenant popularity Zipf(1.0), batches of 64 arrivals drawn
//!   from each tenant's pool of 1–3-variable requests, a quarter of them
//!   with evidence; each tenant's alternate materialization published in
//!   turn, seven times per repetition.
//! * `direct_small`: Child, paper-skewed 1–5-variable queries answered one
//!   at a time by `OnlineEngine::answer_in`.
//!
//! Each is rebuilt from `peanut_datasets` and `peanut_workload`, seeded,
//! in the benchmark's shape, not its exact stream. Both run a warm-up of
//! an eighth of the stream, then one repetition of the whole stream, over
//! which a row sums: requests, answers computed, operations charged and
//! their plain-tree baseline, cache hits, faults, page-outs, the memo
//! entries held when it ends (calibrated tables and materializations, of
//! the engines resident then), the memo entries fault-ins resumed, and the
//! store bytes fault-ins read.
//!
//! `repro ledger` prints the ledger and writes it to `LEDGER.json`;
//! `--quick` shrinks every stream and writes `LEDGER.quick.json`, the file
//! `tests/work_ledger.rs` regenerates and compares byte for byte.

use peanut_bench::harness::{is_quick, Prepared};
use peanut_core::{Materialization, OfflineContext, OnlineEngine, Peanut, PeanutConfig, Workload};
use peanut_junction::{JunctionTree, QueryEngine, RootedTree};
use peanut_pgm::{Scope, Scratch};
use peanut_serving::{
    Answer, ServeOutcome, ServeRequest, ShardConfig, ShardedServingEngine, StoreConfig, TenantId,
};
use peanut_workload::{
    skewed_queries, tenant_queries, uniform_queries, with_evidence, zipf_weights, QuerySpec,
    TenantTraffic,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::path::Path;

const SEED: u64 = 1;
const DATASETS: [&str; 3] = ["HeparII", "Child", "Hailfinder"];
const TENANTS: usize = 8;
const MAX_RESIDENT: usize = 3;
const BATCH: usize = 64;
const FLEET_SPEC: QuerySpec = QuerySpec {
    min_vars: 1,
    max_vars: 3,
};
/// A pool request whose plain-tree count is above this is left out, as
/// the benchmark leaves out Hailfinder's heaviest joints.
const MAX_PLAIN_OPS: u64 = 250_000;

/// One shape's sums over its repetition.
#[derive(Default)]
struct Row {
    requests: u64,
    failed: u64,
    computed: u64,
    ops: u128,
    baseline_ops: u128,
    cache_hits: u64,
    faults: u64,
    page_outs: u64,
    state_memo_entries: u64,
    mat_memo_entries: u64,
    memo_resumed: u64,
    store_bytes_read: u64,
}

impl Row {
    /// Adds one batch's outcomes: a computed answer counts once however
    /// many arrivals share it.
    fn served(&mut self, outcomes: &[ServeOutcome], cache_hits: usize) {
        self.requests += outcomes.len() as u64;
        self.cache_hits += cache_hits as u64;
        let mut fresh: Vec<&Answer> = Vec::new();
        for o in outcomes {
            match o.served() {
                Some(s) if !s.from_cache => {
                    if !fresh.iter().any(|&a| std::ptr::eq(a, &*s.answer)) {
                        fresh.push(&*s.answer);
                    }
                }
                Some(_) => {}
                None => self.failed += 1,
            }
        }
        for a in fresh {
            self.computed += 1;
            self.ops += u128::from(a.cost.ops);
            self.baseline_ops += u128::from(a.baseline_ops);
        }
    }

    fn json(&self, shape: &str) -> String {
        let mut out = format!("    {{\n      \"shape\": \"{shape}\",\n      \"seed\": {SEED}");
        let fields: [(&str, u128); 12] = [
            ("requests", self.requests.into()),
            ("failed", self.failed.into()),
            ("answers_computed", self.computed.into()),
            ("ops", self.ops),
            ("baseline_ops", self.baseline_ops),
            ("cache_hits", self.cache_hits.into()),
            ("faults", self.faults.into()),
            ("page_outs", self.page_outs.into()),
            ("state_memo_entries", self.state_memo_entries.into()),
            ("mat_memo_entries", self.mat_memo_entries.into()),
            ("memo_entries_resumed", self.memo_resumed.into()),
            ("store_bytes_read", self.store_bytes_read.into()),
        ];
        for (name, value) in fields {
            let _ = write!(out, ",\n      \"{name}\": {value}");
        }
        out + "\n    }"
    }
}

/// PEANUT+ at 10·b_T, ε = 1.2, on one thread, with numeric tables.
fn select(tree: &JunctionTree, engine: &QueryEngine<'_>, train: &[Scope]) -> Materialization {
    let workload = Workload::from_queries(train.iter().cloned());
    let ctx = OfflineContext::new(tree, &workload).expect("training queries fit the tree");
    let cfg = PeanutConfig::plus(tree.total_separator_size().max(1) * 10);
    let numeric = engine.numeric_state().expect("calibrated engine");
    Peanut::offline_numeric(&ctx, &cfg, numeric)
        .expect("shortcut tables fit")
        .0
}

/// A seed per tenant and stream.
fn seed_of(tenant: usize, stream: u64) -> u64 {
    SEED * 1_000 + tenant as u64 * 10 + stream
}

fn fleet_paging(quick: bool, store_dir: &Path) -> Row {
    let (train, pool, batches) = if quick {
        (150, 64, 16)
    } else {
        (1000, 256, 80)
    };
    let models: Vec<Prepared> = DATASETS.iter().map(|d| Prepared::by_name(d)).collect();
    let tree_of = |t: usize| &models[t % DATASETS.len()].tree;

    // per tenant: its two materializations, and its pool of requests
    // keyed by their scope
    let mut mats = Vec::new();
    let mut traffic = Vec::new();
    let mut requests: Vec<HashMap<Scope, ServeRequest>> = Vec::new();
    let mut engines = Vec::new();
    let weights = zipf_weights(TENANTS, 1.0);
    for t in 0..TENANTS {
        let (tree, bn) = (tree_of(t), &models[t % DATASETS.len()].bn);
        let engine = QueryEngine::numeric(tree, bn).expect("tables fit");
        let rooted = RootedTree::new(tree);
        let skewed = skewed_queries(tree, &rooted, train, FLEET_SPEC, seed_of(t, 0));
        let uniform = uniform_queries(tree.domain(), train, FLEET_SPEC, seed_of(t, 1));
        mats.push([
            select(tree, &engine, &skewed),
            select(tree, &engine, &uniform),
        ]);
        let symbolic = QueryEngine::symbolic(tree);
        let mut seen = HashSet::new();
        let scopes: Vec<Scope> =
            uniform_queries(tree.domain(), 2 * pool, FLEET_SPEC, seed_of(t, 2))
                .into_iter()
                .filter(|q| seen.insert(q.clone()))
                .take(pool)
                .collect();
        let pool: HashMap<Scope, ServeRequest> = scopes
            .iter()
            .cloned()
            .zip(with_evidence(tree.domain(), &scopes, 0.25, seed_of(t, 3)))
            .filter(|(_, r)| {
                symbolic
                    .cost(&r.stat_scope())
                    .is_ok_and(|c| c.ops <= MAX_PLAIN_OPS)
            })
            .collect();
        // the kept scopes, in the order they were drawn
        let kept: Vec<Scope> = scopes
            .into_iter()
            .filter(|q| pool.contains_key(q))
            .collect();
        traffic.push(TenantTraffic::steady(weights[t], kept));
        requests.push(pool);
        engines.push(engine);
    }
    let arrivals: Vec<(TenantId, ServeRequest)> =
        tenant_queries(&traffic, batches * BATCH, seed_of(0, 4))
            .into_iter()
            .map(|(t, q)| (TenantId(t as u32), requests[t][&q].clone()))
            .collect();

    let _ = std::fs::remove_dir_all(store_dir);
    let store = StoreConfig::new(store_dir);
    let mut fleet = ShardedServingEngine::new(
        ShardConfig::default()
            .with_workers(1)
            .with_max_resident(MAX_RESIDENT),
    );
    fleet.set_store(store.clone());
    // the size of every epoch file a tenant saved, and its newest epoch
    let mut sizes: BTreeMap<(usize, u64), u64> = BTreeMap::new();
    let mut newest = vec![0u64; TENANTS];
    let size = |t: usize, epoch: u64| {
        std::fs::metadata(store.epoch_path(t as u32, epoch)).map_or(0, |m| m.len())
    };
    for (t, engine) in engines.into_iter().enumerate() {
        fleet
            .register(TenantId(t as u32), engine, mats[t][0].clone())
            .expect("fresh tenant id, writable store");
        sizes.insert((t, 0), size(t, 0));
    }
    fleet.enforce_residency();

    let publish_every = (batches / TENANTS).max(1);
    // a fault-in reads the newest file of a tenant that is touched while
    // not resident: counted before each call, and checked against the
    // fleet's own count of fault-ins
    let reads = |row: &mut Row, touched: &[TenantId], newest: &[u64], sizes: &BTreeMap<_, _>| {
        let resident: Vec<TenantId> = fleet.tenants().into_iter().map(|(id, _)| id).collect();
        let mut seen = HashSet::new();
        for id in touched
            .iter()
            .filter(|&&id| seen.insert(id) && !resident.contains(&id))
        {
            let t = id.0 as usize;
            row.faults += 1;
            row.store_bytes_read += sizes[&(t, newest[t])];
        }
    };
    let mut serve = |row: &mut Row, range: std::ops::Range<usize>| {
        for b in range {
            if b % publish_every == 0 && b > 0 {
                // tenants in turn, alternating between their two
                let turn = b / publish_every - 1;
                let t = turn % TENANTS;
                let which = 1 - (turn / TENANTS) % 2;
                let id = TenantId(t as u32);
                reads(row, &[id], &newest, &sizes);
                let engine = fleet.tenant(id).expect("tenant faults in");
                newest[t] = engine.publish(mats[t][which].clone());
                sizes.insert((t, newest[t]), size(t, newest[t]));
            }
            let batch = &arrivals[b * BATCH..(b + 1) * BATCH];
            let touched: Vec<TenantId> = batch.iter().map(|(id, _)| *id).collect();
            reads(row, &touched, &newest, &sizes);
            let (outcomes, stats) = fleet.serve_mixed(batch);
            row.served(&outcomes, stats.cache_hits);
        }
    };
    // warm-up: an eighth of the stream, before any publish
    serve(&mut Row::default(), 0..batches / 8);
    let mut row = Row::default();
    let before = fleet.paging_stats();
    serve(&mut row, 0..batches);
    let after = fleet.paging_stats();
    assert_eq!(
        row.faults,
        after.faults - before.faults,
        "every fault-in read"
    );
    row.page_outs = after.page_outs - before.page_outs;
    row.memo_resumed = after.memo_resumed - before.memo_resumed;
    assert_eq!(after.fault_errors, 0, "no fault-in failed");
    for (_, engine) in fleet.tenants() {
        row.state_memo_entries += engine.engine().memo_usage().0 as u64;
        row.mat_memo_entries += engine.materialization().memo_usage().0 as u64;
    }
    drop(fleet);
    let _ = std::fs::remove_dir_all(store_dir);
    row
}

fn direct_small(quick: bool) -> Row {
    let (train, test) = if quick {
        (2_000, 1_000)
    } else {
        (20_000, 8_000)
    };
    let spec = QuerySpec {
        min_vars: 1,
        max_vars: 5,
    };
    let child = Prepared::by_name("Child");
    let tree = &child.tree;
    let rooted = RootedTree::new(tree);
    let engine = QueryEngine::numeric(tree, &child.bn).expect("tables fit");
    let mat = select(
        tree,
        &engine,
        &skewed_queries(tree, &rooted, train, spec, seed_of(0, 5)),
    );
    let online = OnlineEngine::new(&engine, &mat);
    let symbolic = QueryEngine::symbolic(tree);
    let stream = skewed_queries(tree, &rooted, test, spec, seed_of(0, 6));
    let mut scratch = Scratch::new();
    let mut row = Row::default();
    let mut answer = |row: &mut Row, q: &Scope| match online.answer_in(q, &mut scratch) {
        Ok((p, cost)) => {
            row.computed += 1;
            row.ops += u128::from(cost.ops);
            row.baseline_ops += u128::from(symbolic.cost(q).expect("query fits").ops);
            scratch.recycle(p);
        }
        Err(_) => row.failed += 1,
    };
    for q in &stream[..test / 8] {
        answer(&mut Row::default(), q);
    }
    for q in &stream {
        row.requests += 1;
        answer(&mut row, q);
    }
    row.state_memo_entries = engine.memo_usage().0 as u64;
    row.mat_memo_entries = mat.memo_usage().0 as u64;
    row
}

pub fn run() {
    let quick = is_quick();
    let store_dir = std::env::temp_dir().join(format!("peanut-ledger-{}", std::process::id()));
    let rows = [
        fleet_paging(quick, &store_dir).json("fleet_paging"),
        direct_small(quick).json("direct_small"),
    ];
    let ledger = format!(
        "{{\n  \"quick\": {quick},\n  \"rows\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    print!("{ledger}");
    let file = if quick {
        "LEDGER.quick.json"
    } else {
        "LEDGER.json"
    };
    std::fs::write(file, &ledger).unwrap_or_else(|e| panic!("write {file}: {e}"));
}
