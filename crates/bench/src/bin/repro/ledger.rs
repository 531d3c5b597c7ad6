//! The work ledger: exact counts of what five of the benchmark's shapes
//! do, one repetition each, with nothing timed — so two runs of one build
//! write the same bytes, and a change that moves the work moves the file.
//!
//! * `fleet_paging`: 8 tenants over HeparII / Child / Hailfinder behind 3
//!   resident slots of a store-backed `ShardedServingEngine` on one
//!   worker; tenant popularity Zipf(1.0), batches of 64 arrivals drawn
//!   from each tenant's pool of 1–3-variable requests, a quarter of them
//!   with evidence; each tenant's alternate materialization published in
//!   turn, seven times per repetition.
//! * `direct_small`: Child, paper-skewed 1–5-variable queries answered one
//!   at a time by `OnlineEngine::answer_in`.
//! * `direct_large`: TPC-H, every 2-variable scope answered once by
//!   `OnlineEngine::answer_in`.
//! * `serve_distinct`: HeparII behind one `ServingEngine` on one worker,
//!   distinct 1–3-variable requests, a quarter of them with evidence, in
//!   batches of 64.
//! * `evidence_sessions`: Hailfinder behind one `ServingEngine` on one
//!   worker; each session pins 2–3 variables at the values of one
//!   ancestral sample, answers its first target (`serve_one`) and then the
//!   other 31 in one batch, its targets drawn from the two- and
//!   three-variable scopes whose plain cost is 100 k–2 M operations.
//!
//! Each is rebuilt from `peanut_datasets` and `peanut_workload`, seeded,
//! in the benchmark's shape, not its exact stream. Each runs a warm-up —
//! an eighth of the stream; `direct_large` the whole stream;
//! `serve_distinct` a quarter as many distinct requests of its own — then
//! one repetition of the whole stream, over which a row sums: requests,
//! answers computed, operations charged and their plain-tree baseline,
//! cache hits, faults, page-outs, the memo entries held when it ends
//! (calibrated tables and materializations, of the engines resident then),
//! the memo entries fault-ins resumed, the store bytes fault-ins read, the
//! plans the materializations' plan memos hold when it ends, the
//! answers that ran a filed plan (`plans_taken`), and the answers evidence
//! sessions sent to pruned variable elimination (`eliminated`, read from
//! `EvidenceSession::eliminated`; 0 on every shape without sessions). On
//! `fleet_paging` the
//! latter counts the materializations resident at a batch or publish,
//! watched until the next one: a tenant faulted in and paged out inside
//! one batch is not seen.
//!
//! `repro ledger` prints the ledger and writes it to `LEDGER.json`;
//! `--quick` shrinks every stream and writes `LEDGER.quick.json`, the file
//! `tests/work_ledger.rs` regenerates and compares byte for byte.

use peanut_bench::harness::{is_quick, Prepared};
use peanut_core::{Materialization, OfflineContext, OnlineEngine, Peanut, PeanutConfig, Workload};
use peanut_junction::{JunctionTree, QueryEngine, RootedTree};
use peanut_pgm::sampling::ancestral_sample;
use peanut_pgm::{Scope, Scratch, Var};
use peanut_serving::{
    Answer, ServeOutcome, ServeRequest, ServingConfig, ServingEngine, ShardConfig,
    ShardedServingEngine, StoreConfig, TenantId,
};
use peanut_workload::{
    skewed_queries, tenant_queries, uniform_queries, with_evidence, zipf_weights, QuerySpec,
    TenantTraffic,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

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
    plans_held: u64,
    plans_taken: u64,
    eliminated: u64,
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
        let fields: [(&str, u128); 15] = [
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
            ("plans_held", self.plans_held.into()),
            ("plans_taken", self.plans_taken.into()),
            ("eliminated", self.eliminated.into()),
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

/// The plan-memo hits of a fleet's materializations (module docs): those
/// resident at one boundary of the stream are held to the next, and one
/// first seen at a boundary was made since the last, so every hit it took
/// counts.
#[derive(Default)]
struct PlanWatch {
    held: Vec<(Arc<Materialization>, u64)>,
    taken: u64,
}

impl PlanWatch {
    fn boundary(&mut self, fleet: &ShardedServingEngine<'_>) {
        let before = std::mem::take(&mut self.held);
        for (mat, at) in &before {
            self.taken += mat.plan_usage().1 - at;
        }
        for (_, engine) in fleet.tenants() {
            let mat = engine.materialization();
            let (_, taken) = mat.plan_usage();
            if !before.iter().any(|(seen, _)| Arc::ptr_eq(seen, &mat)) {
                self.taken += taken;
            }
            self.held.push((mat, taken));
        }
    }
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
    let mut watch = PlanWatch::default();
    let mut serve = |row: &mut Row, watch: &mut PlanWatch, range: std::ops::Range<usize>| {
        for b in range {
            watch.boundary(&fleet);
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
                watch.boundary(&fleet);
            }
            let batch = &arrivals[b * BATCH..(b + 1) * BATCH];
            let touched: Vec<TenantId> = batch.iter().map(|(id, _)| *id).collect();
            reads(row, &touched, &newest, &sizes);
            let (outcomes, stats) = fleet.serve_mixed(batch);
            row.served(&outcomes, stats.cache_hits);
        }
    };
    // warm-up: an eighth of the stream, before any publish
    serve(&mut Row::default(), &mut watch, 0..batches / 8);
    watch.boundary(&fleet);
    watch.taken = 0;
    let mut row = Row::default();
    let before = fleet.paging_stats();
    serve(&mut row, &mut watch, 0..batches);
    watch.boundary(&fleet);
    row.plans_taken = watch.taken;
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
        let mat = engine.materialization();
        row.state_memo_entries += engine.engine().memo_usage().0 as u64;
        row.mat_memo_entries += mat.memo_usage().0 as u64;
        row.plans_held += mat.plan_usage().0 as u64;
    }
    drop(watch);
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
    let (tree, rooted) = (&child.tree, RootedTree::new(&child.tree));
    let train = skewed_queries(tree, &rooted, train, spec, seed_of(0, 5));
    let stream = skewed_queries(tree, &rooted, test, spec, seed_of(0, 6));
    direct(&child, &train, &stream, test / 8)
}

fn direct_large(quick: bool) -> Row {
    let (train, every) = if quick { (2_000, 8) } else { (20_000, 1) };
    let spec = QuerySpec {
        min_vars: 2,
        max_vars: 2,
    };
    let tpch = Prepared::by_name("TPC-H");
    let (tree, rooted) = (&tpch.tree, RootedTree::new(&tpch.tree));
    let train = skewed_queries(tree, &rooted, train, spec, seed_of(0, 11));
    // every pair, in order (`--quick`: every eighth)
    let n = tree.domain().len() as u32;
    let stream: Vec<Scope> = (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| Scope::from_indices(&[a, b])))
        .step_by(every)
        .collect();
    direct(&tpch, &train, &stream, stream.len())
}

/// A direct shape: `stream` answered one at a time over the
/// materialization selected for `train`, after a warm-up over its first
/// `warm` queries.
fn direct(model: &Prepared, train: &[Scope], stream: &[Scope], warm: usize) -> Row {
    let tree = &model.tree;
    let engine = QueryEngine::numeric(tree, &model.bn).expect("tables fit");
    let mat = select(tree, &engine, train);
    let online = OnlineEngine::new(&engine, &mat);
    let symbolic = QueryEngine::symbolic(tree);
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
    for q in &stream[..warm] {
        answer(&mut Row::default(), q);
    }
    let (_, taken) = mat.plan_usage();
    for q in stream {
        row.requests += 1;
        answer(&mut row, q);
    }
    row.state_memo_entries = engine.memo_usage().0 as u64;
    row.mat_memo_entries = mat.memo_usage().0 as u64;
    (row.plans_held, row.plans_taken) = (mat.plan_usage().0 as u64, mat.plan_usage().1 - taken);
    row
}

fn serve_distinct(quick: bool) -> Row {
    let (train, n) = if quick { (500, 512) } else { (2_000, 2_048) };
    let hepar = Prepared::by_name("HeparII");
    let (tree, rooted) = (&hepar.tree, RootedTree::new(&hepar.tree));
    let engine = QueryEngine::numeric(tree, &hepar.bn).expect("tables fit");
    let train = skewed_queries(tree, &rooted, train, FLEET_SPEC, seed_of(0, 7));
    let mat = select(tree, &engine, &train);
    // distinct requests over seven skewed scopes in ten and three uniform,
    // a quarter with evidence: the warm-up's, then the repetition's
    let total = n + n / 4;
    let mut skewed = skewed_queries(tree, &rooted, 2 * total, FLEET_SPEC, seed_of(0, 8));
    let mut uniform = uniform_queries(tree.domain(), 2 * total, FLEET_SPEC, seed_of(0, 9));
    let scopes: Vec<Scope> = (0..2 * total)
        .filter_map(|i| {
            if i % 10 < 7 {
                skewed.pop()
            } else {
                uniform.pop()
            }
        })
        .collect();
    let mut seen = HashSet::new();
    let requests: Vec<ServeRequest> = with_evidence(tree.domain(), &scopes, 0.25, seed_of(0, 10))
        .into_iter()
        .filter(|r| seen.insert(r.clone()))
        .take(total)
        .collect();
    assert_eq!(requests.len(), total, "enough distinct requests");
    let serving = ServingEngine::new(engine, mat, ServingConfig::default().with_workers(1));
    let (warm, stream) = requests.split_at(n / 4);
    for batch in warm.chunks(BATCH) {
        serving.serve_batch(batch);
    }
    let mat = serving.materialization();
    let (_, taken) = mat.plan_usage();
    let mut row = Row::default();
    for batch in stream.chunks(BATCH) {
        let (outcomes, stats) = serving.serve_batch(batch);
        row.served(&outcomes, stats.cache_hits);
    }
    row.state_memo_entries = serving.engine().memo_usage().0 as u64;
    row.mat_memo_entries = mat.memo_usage().0 as u64;
    (row.plans_held, row.plans_taken) = (mat.plan_usage().0 as u64, mat.plan_usage().1 - taken);
    row
}

/// One session's evidence and targets.
type Session = (Vec<(Var, u32)>, Vec<Scope>);

fn evidence_sessions(quick: bool) -> Row {
    const TARGETS: usize = 32;
    const TARGET_OPS: std::ops::RangeInclusive<u64> = 100_000..=2_000_000;
    let sessions = if quick { 16 } else { 100 };
    let hail = Prepared::by_name("Hailfinder");
    let (tree, bn) = (&hail.tree, &hail.bn);
    let symbolic = QueryEngine::symbolic(tree);
    let vars: Vec<Var> = tree.domain().all_vars().collect();
    let mut pool: Vec<Scope> = Vec::new();
    for (i, &a) in vars.iter().enumerate() {
        for (j, &b) in vars.iter().enumerate().skip(i + 1) {
            pool.push(Scope::from_iter([a, b]));
            pool.extend(vars[j + 1..].iter().map(|&c| Scope::from_iter([a, b, c])));
        }
    }
    pool.retain(|q| symbolic.cost(q).is_ok_and(|c| TARGET_OPS.contains(&c.ops)));
    // the warm-up's sessions, then the repetition's
    let mut rng = StdRng::seed_from_u64(seed_of(0, 12));
    let inputs: Vec<Session> = (0..sessions + sessions / 8)
        .map(|_| {
            let sample = ancestral_sample(bn, &mut rng);
            let k = rng.gen_range(2..=3);
            let mut pinned = Scope::empty();
            while pinned.len() < k {
                pinned.insert(vars[rng.gen_range(0..vars.len())]);
            }
            let evidence = pinned.iter().map(|v| (v, sample[v.index()])).collect();
            let mut targets = Vec::with_capacity(TARGETS);
            while targets.len() < TARGETS {
                let t = &pool[rng.gen_range(0..pool.len())];
                if t.is_disjoint_from(&pinned) {
                    targets.push(t.clone());
                }
            }
            (evidence, targets)
        })
        .collect();
    let engine = QueryEngine::numeric(tree, bn).expect("tables fit");
    let serving = ServingEngine::new(
        engine,
        Materialization::default(),
        ServingConfig::default().with_workers(1),
    );
    let serve = |row: &mut Row, inputs: &[Session]| {
        for (evidence, targets) in inputs {
            let Ok(session) = serving.open_session(evidence.clone()) else {
                row.requests += TARGETS as u64;
                row.failed += TARGETS as u64;
                continue;
            };
            let first = session.serve_one(&targets[0]);
            row.served(std::slice::from_ref(&first), 0);
            let (outcomes, stats) = session.serve_batch(&targets[1..]);
            row.served(&outcomes, stats.cache_hits);
            row.eliminated += session.eliminated();
        }
    };
    let (warm, stream) = inputs.split_at(sessions / 8);
    serve(&mut Row::default(), warm);
    let mut row = Row::default();
    serve(&mut row, stream);
    let mat = serving.materialization();
    row.state_memo_entries = serving.engine().memo_usage().0 as u64;
    row.mat_memo_entries = mat.memo_usage().0 as u64;
    (row.plans_held, row.plans_taken) = (mat.plan_usage().0 as u64, mat.plan_usage().1);
    row
}

pub fn run() {
    let quick = is_quick();
    let store_dir = std::env::temp_dir().join(format!("peanut-ledger-{}", std::process::id()));
    let rows = [
        fleet_paging(quick, &store_dir).json("fleet_paging"),
        direct_small(quick).json("direct_small"),
        direct_large(quick).json("direct_large"),
        serve_distinct(quick).json("serve_distinct"),
        evidence_sessions(quick).json("evidence_sessions"),
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
