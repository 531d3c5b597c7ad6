//! The work ledger: exact counts of what seven of the benchmark's shapes
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
//! * `serve_repeat`: HeparII behind one `ServingEngine` on one worker, a
//!   pool of 1024 distinct 1–3-variable requests (a quarter with evidence)
//!   drawn with Zipf(1.1) popularity, in batches of 64: after the pool's
//!   first computations nearly every arrival is a dedup or cache hit.
//! * `serve_distinct`: HeparII behind one `ServingEngine` on one worker,
//!   distinct 1–3-variable requests, a quarter of them with evidence, in
//!   batches of 64.
//! * `evidence_sessions`: Hailfinder behind one `ServingEngine` on one
//!   worker; each session pins 2–3 variables at the values of one
//!   ancestral sample, answers its first target (`serve_one`) and then the
//!   other 31 in one batch, its targets drawn from the two- and
//!   three-variable scopes whose plain cost is 100 k–2 M operations.
//! * `drift_remat`: TPC-H behind one `ServingEngine` on one worker, a
//!   stream that steps between three regions of the tree every 32 batches
//!   of 64 (three cycles; `--quick` one), each regime drawing 1–2-variable
//!   scopes of plain cost up to 1 M operations from its region's pool,
//!   with a `RematerializationController` (windows of 256 arrivals)
//!   ticked every 2 batches, so each step decays the benefit and the
//!   controller re-selects and publishes.
//!
//! Each is rebuilt from `peanut_datasets` and `peanut_workload`, seeded,
//! in the benchmark's shape, not its exact stream. Each runs a warm-up —
//! an eighth of the stream; `direct_large` the whole stream;
//! `serve_distinct` a quarter as many distinct requests of its own;
//! `drift_remat` half a regime of the training region, before the
//! controller starts — then one repetition of the whole stream.
//!
//! A row is two snapshots subtracted: the engine's
//! `peanut_serving::Counters` after the repetition minus before it (the
//! direct shapes fold each answer into a value of their own, as the
//! serving engines do). That gives requests, failed arrivals, answers
//! computed, operations charged and their plain-tree baseline, cache hits,
//! faults, page-outs, the memo entries fault-ins resumed, the store bytes
//! fault-ins read and persists wrote, and the summed `Work` of the answers
//! computed: the answers that ran a filed plan (`plans_taken`), the
//! session answers sent to pruned variable elimination (`eliminated`), the
//! elimination steps taken from the factor memos (`factors_taken`), the
//! messages passes took from the message memos (`messages_taken`), the
//! messages they computed, answers included (`messages_computed`), the
//! product entries their kernels walked (`entries_walked`), of those the
//! entries the fused kernel's short-run walk summed (`short_walked`), and
//! the query anatomies the answers built (`anatomies_walked`: one for a
//! plan planned now, two for a shortcut-reduced one, none for a filed
//! plan).
//! Beside them stand four gauges read when the repetition ends, each from
//! a memo's `MemoUsage`, over the engines resident then: the entries the
//! calibrated tables' and the materializations' message memos hold, the
//! entries of the factor memo an engine's evidence sessions share, and the
//! plans the plan memos hold. Last, the allocator calls the repetition made
//! on the ledger's thread (`alloc_calls`; `counting_alloc::counted`, which
//! `repro` can read because it installs `CountingAlloc`): every shape
//! serves on that one thread.
//!
//! Beside the rows, the `paper` section holds the paper's own metric
//! (Figure 5's setting): per dataset, method (PEANUT, PEANUT+) and budget
//! (b_T/10, 10·b_T and 10⁴·b_T at ε = 1.2, one thread), the entries
//! the materialization selected for the skewed training stream holds,
//! and, over the skewed test stream, each query's ops saved against the
//! plain tree — the count the paper charges (toward `r_q`) and the count
//! its pass executes (toward its cheapest root) — as a mean and
//! quartiles, in percent; and where a query's charge lies, as the mean of
//! its three shares (`QueryAnatomy::shares`, in percent): the cliques
//! that hold a query variable, the inflation of carried query variables,
//! and the cliques free of them, the only share a shortcut can replace.
//! Two fields weigh the selection against its use: the share of the
//! entries materialized held by shortcuts that no test query's plan
//! contains (`entries_untaken_pct`), and on the training stream, in
//! expected ops per query, the benefit the selection modeled (`Σ B(S, Q)`)
//! beside the one it realized: the mean plain-tree count less the mean
//! charged count (`train_benefit`). Last, per test query, the most any
//! materialization saves it under an unlimited budget, in percent of its
//! plain count (`ceiling_ops_saved_pct`): the least `OnlineEngine::cost`
//! over every region LRDP can express inside the query's Steiner tree,
//! each materialized alone, and over the set of them no two of which share
//! a clique whose savings alone sum highest, priced together. It depends
//! on the dataset alone, so each of a dataset's entries repeats it. A
//! region reaching outside the Steiner tree contracts the same cliques of
//! the plan under another scope, and is not tried.
//! `--quick` keeps the rows' three datasets at 10·b_T.
//!
//! `repro ledger` prints the ledger and writes it to `LEDGER.json`;
//! `--quick` shrinks every stream and writes `LEDGER.quick.json`, the file
//! `tests/work_ledger.rs` regenerates and compares byte for byte. Every
//! column but `alloc_calls` is the same in every build; debug assertions
//! allocate, so the committed `LEDGER.json` holds a release build's
//! count and `LEDGER.quick.json` the test profile's.

use counting_alloc::counted;
use peanut_bench::harness::{
    is_quick, mean, percentile, saving_percent, savings_percent, skewed_counts, Prepared,
};
use peanut_core::{
    Materialization, MaterializedShortcut, OfflineContext, OnlineEngine, Peanut, PeanutConfig,
    Shortcut, Workload,
};
use peanut_junction::{JunctionTree, NodeLabel, QueryEngine, QueryPlan, RootedTree, SteinerTree};
use peanut_pgm::sampling::ancestral_sample;
use peanut_pgm::{MemoUsage, Scope, Scratch, Size, Var};
use peanut_serving::{
    Counters, LifecycleConfig, RematerializationController, ServeRequest, ServingConfig,
    ServingEngine, ShardConfig, ShardedServingEngine, StoreConfig, TenantId,
};
use peanut_workload::{
    skewed_queries, tenant_queries, uniform_queries, with_evidence, zipf_weights, QuerySpec,
    TenantTraffic,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
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

/// What `counters` counted over `run`, a snapshot after it minus one
/// before, and the allocator calls `run` made on this thread.
fn repetition(counters: impl Fn() -> Counters, run: impl FnOnce()) -> (Counters, u64) {
    let before = counters();
    let ((), allocs) = counted(run);
    (counters() - before, allocs.calls as u64)
}

/// The memo gauges, in column order: the entries the calibrated tables'
/// message memo, the materialization's and the factor memo hold, and the
/// plans the materialization's plan memo holds.
type Gauges = [u64; 4];

fn gauges(engine: &QueryEngine<'_>, mat: &Materialization, factors: MemoUsage) -> Gauges {
    let held = [engine.memo_usage(), mat.memo_usage(), factors].map(|m| m.held as u64);
    [held[0], held[1], held[2], mat.plan_usage().filed as u64]
}

fn serving_gauges(serving: &ServingEngine<'_>) -> Gauges {
    let mat = serving.materialization();
    gauges(serving.engine(), &mat, serving.factor_memo_usage())
}

/// One row: the repetition's counts and the gauges, in column order.
fn json(shape: &str, c: &Counters, gauges: Gauges, alloc_calls: u64) -> String {
    let [state, mat, factor, plans] = gauges;
    let mut out = format!("    {{\n      \"shape\": \"{shape}\",\n      \"seed\": {SEED}");
    let fields: [(&str, u64); 24] = [
        ("requests", c.requests),
        ("failed", c.failed),
        ("answers_computed", c.computed),
        ("ops", c.ops),
        ("baseline_ops", c.baseline_ops),
        ("cache_hits", c.cache_hits),
        ("faults", c.faults),
        ("page_outs", c.page_outs),
        ("state_memo_entries", state),
        ("mat_memo_entries", mat),
        ("factor_memo_entries", factor),
        ("memo_entries_resumed", c.memo_resumed),
        ("store_bytes_read", c.store_bytes_read),
        ("store_bytes_written", c.store_bytes_written),
        ("plans_held", plans),
        ("plans_taken", c.plans_taken),
        ("eliminated", c.eliminated),
        ("factors_taken", c.factors_taken),
        ("messages_taken", c.messages_taken),
        ("messages_computed", c.messages_computed),
        ("entries_walked", c.entries_walked),
        ("short_walked", c.short_walked),
        ("anatomies_walked", c.anatomies_walked),
        ("alloc_calls", alloc_calls),
    ];
    for (name, value) in fields {
        let _ = write!(out, ",\n      \"{name}\": {value}");
    }
    out + "\n    }"
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

fn fleet_paging(quick: bool, store_dir: &Path) -> String {
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
    let mut fleet = ShardedServingEngine::new(
        ShardConfig::default()
            .with_workers(1)
            .with_max_resident(MAX_RESIDENT),
    );
    fleet.set_store(StoreConfig::new(store_dir));
    for (t, engine) in engines.into_iter().enumerate() {
        fleet
            .register(TenantId(t as u32), engine, mats[t][0].clone())
            .expect("fresh tenant id, writable store");
    }
    fleet.enforce_residency();

    let publish_every = (batches / TENANTS).max(1);
    let serve = |range: std::ops::Range<usize>| {
        for b in range {
            if b % publish_every == 0 && b > 0 {
                // tenants in turn, alternating between their two
                let turn = b / publish_every - 1;
                let t = turn % TENANTS;
                let engine = fleet.tenant(TenantId(t as u32)).expect("tenant faults in");
                engine.publish(mats[t][1 - (turn / TENANTS) % 2].clone());
            }
            fleet.serve_mixed(&arrivals[b * BATCH..(b + 1) * BATCH]);
        }
    };
    // warm-up: an eighth of the stream, before any publish
    serve(0..batches / 8);
    let (counters, allocs) = repetition(|| fleet.counters(), || serve(0..batches));
    let held = (fleet.tenants().into_iter()).fold([0; 4], |sum, (_, engine)| {
        let gauges = serving_gauges(&engine);
        std::array::from_fn(|i| sum[i] + gauges[i])
    });
    drop(fleet);
    let _ = std::fs::remove_dir_all(store_dir);
    json("fleet_paging", &counters, held, allocs)
}

fn direct_small(quick: bool) -> String {
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
    direct("direct_small", &child, &train, &stream, test / 8)
}

fn direct_large(quick: bool) -> String {
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
    direct("direct_large", &tpch, &train, &stream, stream.len())
}

/// A direct shape: `stream` answered one at a time over the
/// materialization selected for `train`, after a warm-up over its first
/// `warm` queries; each answer is folded into the row's counts here.
fn direct(shape: &str, model: &Prepared, train: &[Scope], stream: &[Scope], warm: usize) -> String {
    let tree = &model.tree;
    let engine = QueryEngine::numeric(tree, &model.bn).expect("tables fit");
    let mat = select(tree, &engine, train);
    let online = OnlineEngine::new(&engine, &mat);
    let mut scratch = Scratch::new();
    let mut answer = |c: &mut Counters, q: &Scope| {
        c.requests += 1;
        match online.answer_traced_in(q, &mut scratch) {
            Ok(t) => {
                c.add_answer(&t.cost, t.baseline_ops, &t.work);
                scratch.recycle(t.potential);
            }
            Err(_) => c.failed += 1,
        }
    };
    for q in &stream[..warm] {
        answer(&mut Counters::default(), q);
    }
    let mut counters = Counters::default();
    let ((), allocs) = counted(|| stream.iter().for_each(|q| answer(&mut counters, q)));
    let gauges = gauges(&engine, &mat, MemoUsage::default());
    json(shape, &counters, gauges, allocs.calls as u64)
}

/// One repetition of `serving` answering `stream` in batches, as a row.
fn batched(shape: &str, serving: &ServingEngine<'_>, stream: &[ServeRequest]) -> String {
    let (counters, allocs) = repetition(
        || serving.counters(),
        || {
            for batch in stream.chunks(BATCH) {
                serving.serve_batch(batch);
            }
        },
    );
    json(shape, &counters, serving_gauges(serving), allocs)
}

/// `total` distinct HeparII-shaped requests: seven skewed scopes in ten
/// and three uniform, a quarter with evidence, drawn with the three seeds.
fn distinct_requests(
    tree: &JunctionTree,
    rooted: &RootedTree,
    total: usize,
    [skewed_seed, uniform_seed, evidence_seed]: [u64; 3],
) -> Vec<ServeRequest> {
    let mut skewed = skewed_queries(tree, rooted, 2 * total, FLEET_SPEC, skewed_seed);
    let mut uniform = uniform_queries(tree.domain(), 2 * total, FLEET_SPEC, uniform_seed);
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
    let requests: Vec<ServeRequest> = with_evidence(tree.domain(), &scopes, 0.25, evidence_seed)
        .into_iter()
        .filter(|r| seen.insert(r.clone()))
        .take(total)
        .collect();
    assert_eq!(requests.len(), total, "enough distinct requests");
    requests
}

fn serve_repeat(quick: bool) -> String {
    const POOL: usize = 1024;
    let (train, batches) = if quick { (500, 32) } else { (2_000, 256) };
    let hepar = Prepared::by_name("HeparII");
    let (tree, rooted) = (&hepar.tree, RootedTree::new(&hepar.tree));
    let engine = QueryEngine::numeric(tree, &hepar.bn).expect("tables fit");
    let train = skewed_queries(tree, &rooted, train, FLEET_SPEC, seed_of(0, 13));
    let mat = select(tree, &engine, &train);
    let pool = distinct_requests(tree, &rooted, POOL, [14, 15, 16].map(|s| seed_of(0, s)));
    // Zipf(1.1) popularity over the pool, most popular first
    let mut cumulative = zipf_weights(POOL, 1.1);
    for i in 1..POOL {
        cumulative[i] += cumulative[i - 1];
    }
    let mut rng = StdRng::seed_from_u64(seed_of(0, 17));
    let arrivals: Vec<ServeRequest> = (0..batches * BATCH)
        .map(|_| {
            let t = rng.gen_range(0.0..cumulative[POOL - 1]);
            pool[cumulative.partition_point(|&c| c <= t).min(POOL - 1)].clone()
        })
        .collect();
    let serving = ServingEngine::new(engine, mat, ServingConfig::default().with_workers(1));
    let (warm, stream) = arrivals.split_at(batches / 8 * BATCH);
    for batch in warm.chunks(BATCH) {
        serving.serve_batch(batch);
    }
    batched("serve_repeat", &serving, stream)
}

fn serve_distinct(quick: bool) -> String {
    let (train, n) = if quick { (500, 512) } else { (2_000, 2_048) };
    let hepar = Prepared::by_name("HeparII");
    let (tree, rooted) = (&hepar.tree, RootedTree::new(&hepar.tree));
    let engine = QueryEngine::numeric(tree, &hepar.bn).expect("tables fit");
    let train = skewed_queries(tree, &rooted, train, FLEET_SPEC, seed_of(0, 7));
    let mat = select(tree, &engine, &train);
    // distinct requests: the warm-up's, then the repetition's
    let requests = distinct_requests(tree, &rooted, n + n / 4, [8, 9, 10].map(|s| seed_of(0, s)));
    let serving = ServingEngine::new(engine, mat, ServingConfig::default().with_workers(1));
    let (warm, stream) = requests.split_at(n / 4);
    for batch in warm.chunks(BATCH) {
        serving.serve_batch(batch);
    }
    batched("serve_distinct", &serving, stream)
}

/// One session's evidence and targets.
type Session = (Vec<(Var, u32)>, Vec<Scope>);

fn evidence_sessions(quick: bool) -> String {
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
    let serve = |inputs: &[Session]| {
        for (evidence, targets) in inputs {
            let session = serving
                .open_session(evidence.clone())
                .expect("an ancestral sample's values are possible evidence");
            session.serve_one(&targets[0]);
            session.serve_batch(&targets[1..]);
        }
    };
    let (warm, stream) = inputs.split_at(sessions / 8);
    serve(warm);
    let (counters, allocs) = repetition(|| serving.counters(), || serve(stream));
    json(
        "evidence_sessions",
        &counters,
        serving_gauges(&serving),
        allocs,
    )
}

/// The `drift_remat` stream's three regions: the tree cut into connected
/// parts of about equal clique count (the subtree closest to an equal
/// share of the cliques left, peeled off one part at a time), each with
/// the variables that live in it only, so a shortcut selected for one
/// region never serves another.
fn regions(tree: &JunctionTree) -> Vec<Vec<Var>> {
    const REGIONS: usize = 3;
    let rooted = RootedTree::new(tree);
    let n = tree.n_cliques();
    let mut part_of = vec![REGIONS - 1; n];
    let mut cut = vec![false; n];
    for part in 0..REGIONS - 1 {
        let left = |u: usize| rooted.subtree_nodes(u).iter().filter(|&&w| !cut[w]).count();
        let share = cut.iter().filter(|&&c| !c).count() / (REGIONS - part);
        let root = (0..n)
            .filter(|&u| u != rooted.root() && !cut[u])
            .min_by_key(|&u| left(u).abs_diff(share))
            .expect("more cliques than regions");
        for &w in rooted.subtree_nodes(root) {
            if !cut[w] {
                (part_of[w], cut[w]) = (part, true);
            }
        }
    }
    let mut vars = vec![Vec::new(); REGIONS];
    for v in tree.domain().all_vars() {
        let mut homes = tree.cliques_with(v).map(|u| part_of[u]);
        let first = homes.next().expect("every variable is in a clique");
        if homes.all(|h| h == first) {
            vars[first].push(v);
        }
    }
    vars
}

fn drift_remat(quick: bool) -> String {
    const MAX_PLAIN_OPS: u64 = 1_000_000;
    const POOL: usize = 256;
    const REGIME: usize = 32 * BATCH;
    const TICK_EVERY: usize = 2 * BATCH;
    const WINDOW: u64 = 256;
    let cycles = if quick { 1 } else { 3 };
    let tpch = Prepared::by_name("TPC-H");
    let tree = &tpch.tree;
    let symbolic = QueryEngine::symbolic(tree);
    let spec = QuerySpec {
        min_vars: 1,
        max_vars: 2,
    };
    // per region, its distinct 1–2-variable scopes of bounded plain cost
    let pools: Vec<Vec<Scope>> = regions(tree)
        .iter()
        .enumerate()
        .map(|(r, vars)| {
            let mut rng = StdRng::seed_from_u64(seed_of(r, 18));
            let mut seen = HashSet::new();
            (0..POOL * 64)
                .map(|_| {
                    let k = rng.gen_range(spec.min_vars..=spec.max_vars).min(vars.len());
                    Scope::from_iter((0..k).map(|_| vars[rng.gen_range(0..vars.len())]))
                })
                .filter(|q| seen.insert(q.clone()))
                .take(POOL)
                .filter(|q| symbolic.cost(q).is_ok_and(|c| c.ops <= MAX_PLAIN_OPS))
                .collect()
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed_of(0, 19));
    let train: Vec<Scope> = (0..2_000)
        .map(|_| pools[0][rng.gen_range(0..pools[0].len())].clone())
        .collect();
    // regime after regime, the regions in turn
    let arrivals: Vec<ServeRequest> = (0..cycles * pools.len() * REGIME)
        .map(|i| {
            let pool = &pools[(i / REGIME) % pools.len()];
            ServeRequest::marginal(pool[rng.gen_range(0..pool.len())].clone())
        })
        .collect();
    let engine = QueryEngine::numeric(tree, &tpch.bn).expect("tables fit");
    let mat = select(tree, &engine, &train);
    let serving = ServingEngine::new(engine, mat, ServingConfig::default().with_workers(1));
    // warm-up: half a regime of the training region, then a fresh
    // observation window for the controller
    for batch in arrivals[..REGIME / 2].chunks(BATCH) {
        serving.serve_batch(batch);
    }
    serving.reset_stats();
    let budget = tree.total_separator_size().max(1) * 10;
    let mut controller = RematerializationController::new(
        &serving,
        &Workload::from_queries(train),
        LifecycleConfig::new(budget).with_min_window(WINDOW),
    );
    let (counters, allocs) = repetition(
        || serving.counters(),
        || {
            for (b, batch) in arrivals.chunks(BATCH).enumerate() {
                if b > 0 && (b * BATCH) % TICK_EVERY == 0 {
                    controller.tick().expect("re-selection fits");
                }
                serving.serve_batch(batch);
            }
        },
    );
    json("drift_remat", &counters, serving_gauges(&serving), allocs)
}

/// The count of `query`'s pass under `online`, toward its cheapest root,
/// and the shares of its charge toward `r_q` in percent (`[held, carried,
/// free]`, `QueryAnatomy::shares`; an in-clique answer's is all held).
/// Marks in `taken` the shortcuts its plan contains.
fn executed(
    online: &OnlineEngine<'_, '_>,
    tree: &JunctionTree,
    query: &Scope,
    taken: &mut [bool],
) -> (Size, [f64; 3]) {
    let domain = tree.domain();
    let Some(plan) = online.reduce(query).expect("skewed queries fit the tree") else {
        return (
            online.cost(query).expect("in-clique cost").ops,
            [100.0, 0.0, 0.0],
        );
    };
    for node in plan.nodes() {
        if let NodeLabel::Shortcut(i) = node.label {
            taken[i] = true;
        }
    }
    let mut anatomy = plan.anatomy(query, domain);
    let (shares, charge) = (anatomy.shares(&plan, query), anatomy.cost().ops);
    let pct = shares.map(|share| 100.0 * share as f64 / charge.max(1) as f64);
    (anatomy.cheapest_root(&plan, query, domain).1, pct)
}

/// The connected sets of `st`'s cliques whose top is `u`, `u` first.
fn hung_from(rooted: &RootedTree, st: &SteinerTree, u: usize) -> Vec<Vec<usize>> {
    let mut sets = vec![vec![u]];
    for &c in rooted.children(u).iter().filter(|&&c| st.contains(c)) {
        let below = hung_from(rooted, st, c);
        let grown: Vec<Vec<usize>> = (sets.iter())
            .flat_map(|set| below.iter().map(move |b| [&set[..], b].concat()))
            .collect();
        sets.extend(grown);
    }
    sets
}

/// The regions LRDP can express inside `st` (`lrdp.rs`): connected sets
/// of its cliques, top first, whose lowest members each have a child in
/// the tree to cut — so no member is a leaf of the tree; short of all of
/// `st`, which no plan contracts.
fn steiner_regions(rooted: &RootedTree, st: &SteinerTree) -> Vec<Vec<usize>> {
    (st.nodes().iter())
        .flat_map(|&u| hung_from(rooted, st, u))
        .filter(|set| set.len() < st.len())
        .filter(|set| set.iter().all(|&v| !rooted.children(v).is_empty()))
        .collect()
}

/// A region that saves a query ops alone: its cliques (top first), its
/// shortcut, and the ops saved.
struct Saving {
    set: Vec<usize>,
    shortcut: Shortcut,
    saved: Size,
}

/// Per test query, in percent of its plain count, the most a
/// materialization saves it under an unlimited budget: the least
/// `OnlineEngine::cost` over every region LRDP can express inside the
/// query's Steiner tree, each materialized alone, and over the best set of
/// them no two of which share a clique (GWMIN keeps such a set whole).
fn ceiling(engine: &QueryEngine<'_>, test: &[Scope]) -> Vec<f64> {
    let (tree, rooted) = (engine.tree(), engine.rooted());
    let cost = |shortcuts: Vec<Shortcut>, q: &Scope| {
        let shortcuts = (shortcuts.into_iter())
            .map(|shortcut| MaterializedShortcut {
                shortcut,
                potential: None,
                benefit: 1.0,
                ratio: 1.0,
            })
            .collect();
        let mat = Materialization::new(shortcuts, false);
        let online = OnlineEngine::new(engine, &mat);
        online.cost(q).expect("test queries fit the tree").ops
    };
    let saving = |q: &Scope| {
        let base = cost(Vec::new(), q);
        let plan = engine.plan(q).expect("test queries fit the tree");
        let QueryPlan::OutOfClique(st) = plan else {
            return 0.0;
        };
        let mut saves = Vec::new();
        for set in steiner_regions(rooted, &st) {
            let shortcut = Shortcut::from_nodes(tree, rooted, set.clone()).expect("connected");
            let ops = cost(vec![shortcut.clone()], q);
            if ops < base {
                let saved = base - ops;
                saves.push(Saving {
                    set,
                    shortcut,
                    saved,
                });
            }
        }
        let alone = saves.iter().map(|s| base - s.saved).min().unwrap_or(base);
        let together = packed(rooted, &st, &saves);
        let best = if together.len() > 1 {
            alone.min(cost(together, q))
        } else {
            alone
        };
        saving_percent(base, best)
    };
    test.iter().map(saving).collect()
}

/// The shortcuts of the disjoint regions of `saves` (regions of `st`)
/// whose savings sum highest; the planner prices them together again. One
/// pass bottom up: a clique's subtree either keeps it out of every region,
/// or holds one of the regions hung from it.
fn packed(rooted: &RootedTree, st: &SteinerTree, saves: &[Saving]) -> Vec<Shortcut> {
    let kids = |v: usize| (rooted.children(v).iter().copied()).filter(|&c| st.contains(c));
    let below = |set: &[usize]| {
        let kids = set.iter().flat_map(move |&v| kids(v));
        kids.filter(|c| !set.contains(c)).collect::<Vec<_>>()
    };
    // per clique, the best sum in its subtree, and the region hung from it
    let (mut best, mut chosen) = (vec![0; rooted.len()], vec![None; rooted.len()]);
    let mut order = st.nodes().to_vec();
    order.sort_by_key(|&u| std::cmp::Reverse(rooted.depth(u)));
    for u in order {
        best[u] = kids(u).map(|c| best[c]).sum::<Size>();
        for (i, s) in saves.iter().enumerate().filter(|(_, s)| s.set[0] == u) {
            let with = s.saved + below(&s.set).iter().map(|&c| best[c]).sum::<Size>();
            if with > best[u] {
                (best[u], chosen[u]) = (with, Some(i));
            }
        }
    }
    let (mut set, mut stack) = (Vec::new(), vec![st.root()]);
    while let Some(u) = stack.pop() {
        match chosen[u] {
            Some(i) => {
                set.push(saves[i].shortcut.clone());
                stack.extend(below(&saves[i].set));
            }
            None => stack.extend(kids(u)),
        }
    }
    set
}

/// Per-query percentages as `{mean, p25, p50, p75}`.
fn spread(pct: &[f64]) -> String {
    format!(
        "{{\"mean\": {:.4}, \"p25\": {:.4}, \"p50\": {:.4}, \"p75\": {:.4}}}",
        mean(pct),
        percentile(pct, 25.0),
        percentile(pct, 50.0),
        percentile(pct, 75.0)
    )
}

/// The `paper` section's entries (module docs): `repro fig5`'s streams,
/// and its per-query savings for the count the paper charges.
fn paper(quick: bool) -> Vec<String> {
    const BUDGETS: [(&str, f64); 3] = [("b_T/10", 0.1), ("10*b_T", 10.0), ("10^4*b_T", 10_000.0)];
    type Method = (&'static str, fn(Size) -> PeanutConfig);
    const METHODS: [Method; 2] = [
        ("PEANUT", PeanutConfig::disjoint),
        ("PEANUT+", PeanutConfig::plus),
    ];
    let (models, budgets) = if quick {
        let models = DATASETS.iter().map(|d| Prepared::by_name(d)).collect();
        (models, &BUDGETS[1..2])
    } else {
        (Prepared::all(), &BUDGETS[..])
    };
    let (n_train, n_test) = skewed_counts();
    let mut entries = Vec::new();
    for model in models {
        let tree = &model.tree;
        let train = model.skewed(n_train, 11);
        let workload = Workload::from_queries(train.iter().cloned());
        let ctx = OfflineContext::new(tree, &workload).expect("training queries fit the tree");
        let test = model.skewed(n_test, 12);
        let engine = QueryEngine::symbolic(tree);
        let ceiling = spread(&ceiling(&engine, &test));
        let none = Materialization::default();
        let plain = OnlineEngine::new(&engine, &none);
        let base: Vec<Size> = test
            .iter()
            .map(|q| executed(&plain, tree, q, &mut []).0)
            .collect();
        // the training stream's summed count under `online`, exact
        let charged = |online: &OnlineEngine<'_, '_>| -> u128 {
            let cost = |q| u128::from(online.cost(q).expect("training queries fit").ops);
            train.iter().map(cost).sum()
        };
        let train_base = charged(&plain);
        for (method, config) in METHODS {
            for &(label, times) in budgets {
                let budget = ((model.b_t() as f64) * times).max(1.0) as Size;
                let mat = Peanut::offline(&ctx, &config(budget));
                let online = OnlineEngine::new(&engine, &mat);
                let (mut run, mut shares) = (Vec::new(), [Vec::new(), Vec::new(), Vec::new()]);
                let mut taken = vec![false; mat.len()];
                for (q, &b) in test.iter().zip(&base) {
                    let (ops, pct) = executed(&online, tree, q, &mut taken);
                    run.push(saving_percent(b, ops));
                    shares.iter_mut().zip(pct).for_each(|(s, p)| s.push(p));
                }
                let untaken: Size = (mat.shortcuts.iter().zip(&taken))
                    .filter(|(_, &t)| !t)
                    .map(|(s, _)| s.shortcut.size())
                    .sum();
                let modeled: f64 = mat.shortcuts.iter().map(|s| s.benefit).sum();
                let realized = (train_base - charged(&online)) as f64 / train.len() as f64;
                entries.push(format!(
                    "    {{\"dataset\": \"{}\", \"method\": \"{method}\", \"budget\": \"{label}\", \
                     \"budget_entries\": {budget}, \"entries_materialized\": {},\n      \
                     \"paper_ops_saved_pct\": {},\n      \"executed_ops_saved_pct\": {},\n      \
                     \"charge_shares_pct\": {{\"held\": {:.4}, \"carried\": {:.4}, \"free\": {:.4}}},\n      \
                     \"entries_untaken_pct\": {:.4}, \
                     \"train_benefit\": {{\"modeled\": {modeled:.4e}, \"realized\": {realized:.4e}}},\n      \
                     \"ceiling_ops_saved_pct\": {ceiling}}}",
                    model.spec.name,
                    mat.total_size(),
                    spread(&savings_percent(&model, &mat, &test)),
                    spread(&run),
                    mean(&shares[0]),
                    mean(&shares[1]),
                    mean(&shares[2]),
                    100.0 * untaken as f64 / mat.total_size().max(1) as f64,
                ));
            }
        }
    }
    entries
}

pub fn run() {
    let quick = is_quick();
    let store_dir = std::env::temp_dir().join(format!("peanut-ledger-{}", std::process::id()));
    let rows = [
        fleet_paging(quick, &store_dir),
        direct_small(quick),
        direct_large(quick),
        serve_repeat(quick),
        serve_distinct(quick),
        evidence_sessions(quick),
        drift_remat(quick),
    ];
    let ledger = format!(
        "{{\n  \"quick\": {quick},\n  \"rows\": [\n{}\n  ],\n  \"paper\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
        paper(quick).join(",\n")
    );
    print!("{ledger}");
    let file = if quick {
        "LEDGER.quick.json"
    } else {
        "LEDGER.json"
    };
    std::fs::write(file, &ledger).unwrap_or_else(|e| panic!("write {file}: {e}"));
}
