//! The registry: every workload and metric the benchmark can emit, with
//! unit, direction and regression bound. `BENCHMARK.json` at the repository
//! root must list exactly these (a test asserts it), and `--list` prints
//! them, so names in the contract file and in code cannot drift apart.

/// One named workload and the reason it exists.
pub struct WorkloadSpec {
    /// Name accepted by `--workload`.
    pub name: &'static str,
    /// One line: which layer does most of the work, and what a gain or a
    /// regression on this workload means.
    pub why: &'static str,
}

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, operation ratio).
    Lower,
    /// Larger is better (throughput, hit fractions).
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
pub struct MetricSpec {
    /// Metric name; per-layer names are prefixed with their layer.
    pub name: &'static str,
    /// Unit of the reported value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// What the number is and — for per-layer metrics — which end-to-end
    /// metric it should move, on which workload.
    pub note: &'static str,
}

/// Worker threads where the pool itself is the subject: the open-loop
/// phases, the framework tax and the wave probes of `serve_distinct`'s
/// traced run (the sandbox has two cores).
pub const WORKERS: usize = 2;
/// Worker threads of everything else — every end-to-end timed phase, its
/// set-up, and the traced runs that attribute its time: one, which the
/// serving engines run on the calling thread. On this host a wave on two
/// workers takes as long as the hypervisor takes to run the second vCPU:
/// ten runs of one seed, alternating with one-worker runs of the same
/// binary, spread (inter-quartile range ÷ median of `throughput_qps`) by
/// 0.22 / 0.21 / 0.06 on `serve_distinct` / `evidence_sessions` /
/// `fleet_paging` with two workers and by 0.03 / 0.03 / 0.02 with one,
/// while delivering 1.75 / 1.5 / 1.6 times the throughput at the median.
pub const LANES: usize = 1;
/// Requests per `serve_batch` / `serve_mixed` call, and the open-loop
/// dispatch quantum.
pub const BATCH: usize = 64;
/// The three fixed offered rates of `serve_distinct`, requests per second.
/// Frozen from one measurement on the build host: ≈ 30 / 60 / 90 % of the
/// all-distinct closed-loop capacity (≈ 3000 requests/s) the same workload
/// reports as `throughput_qps` (see README, "how the three rates were
/// frozen").
pub const RATES_QPS: [f64; 3] = [900.0, 1800.0, 2700.0];
/// Sojourn limit (p99) a rate must meet to count towards
/// `serving.max_rate_qps`.
pub const SOJOURN_LIMIT_MS: f64 = 20.0;

/// The seven workloads.
pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "direct_small",
        why: "Child, 1-5-var queries through OnlineEngine::answer_in: plan-bound, tiny tables; a plan cache or cheaper reduce shows only here",
    },
    WorkloadSpec {
        name: "direct_large",
        why: "TPC-H, every 2-var query once, single thread: kernel/memory-bound with a heavy tail where shortcuts buy wall-clock; kernel and layout work shows here",
    },
    WorkloadSpec {
        name: "serve_repeat",
        why: "HeparII closed loop, 1024-request Zipf pool that fits the answer cache: dedup and cache-hit path do the work; framework tax and lock contention show",
    },
    WorkloadSpec {
        name: "serve_distinct",
        why: "HeparII, every request distinct so cache and dedup never hit: one-lane capacity end to end (compute, framework); two-worker open loop at three fixed rates in the traced run (dispatch, queueing)",
    },
    WorkloadSpec {
        name: "fleet_paging",
        why: "8 tenants over 3 resident slots on serve_mixed with scheduled publishes: the store is read (fault-in) and written (persist, page-out) on the serving path",
    },
    WorkloadSpec {
        name: "evidence_sessions",
        why: "Hailfinder evidence sessions: calibration is per-request work here and set-up everywhere else; third copy of the serve pipeline",
    },
    WorkloadSpec {
        name: "drift_remat",
        why: "TPC-H closed loop on a stream that steps between three regions of the tree, the re-materialization controller ticking at fixed arrival counts: offline selection and publish are on the clock",
    },
];

/// Names of the eight paper datasets, as used in
/// `core.paper_ops_saved_frac.<name>`.
pub const PAPER_DATASETS: [&str; 8] = [
    "Child",
    "HeparII",
    "Andes",
    "Hailfinder",
    "TPC-H",
    "Munin",
    "PathFinder",
    "Barley",
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    note: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        note,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    note: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        note,
    }
}

use Better::{Higher, Lower};

/// What a user of the system feels. Every workload reports every one of
/// these (the driver's contract), so each is defined on all seven.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25,
        "everything before the timed phase: generate network, build_junction_tree, calibrate, offline selection, engine/pool/store bring-up, warm-up pass"),
    e2e("throughput_qps", "1/s", Higher, 0.25,
        "requests completed / time inside the calls that carried them (each call the shortest of its repetitions), closed loop at the stated request count"),
    e2e("query_us_p50", "us", Lower, 0.25,
        "per-request latency as the caller sees it: wall of the call, or of the batch that carried the request (each call the shortest of its repetitions)"),
    e2e("query_us_p99", "us", Lower, 0.25,
        "same, 99th percentile"),
    e2e("peak_rss_mb", "MB", Lower, 0.25,
        "VmHWM of the workload's process when its first repetition ends (one process per workload)"),
    e2e("ops_ratio", "ratio", Lower, 0.05,
        "sum cost.ops / sum baseline_ops over computed requests = 1 - ops_saved_frac, the paper's metric; an exact count"),
];

/// Single-layer metrics, all taken in the traced run by timing public
/// calls from this package. A workload a metric does not apply to
/// reports it as 0.
pub const PER_LAYER: &[MetricSpec] = &[
    // --- pgm ---
    layer("pgm.kernel_us_per_query", "us", Lower,
        "ReducedTree::answer_in / TableRef::marginalize_in on an already-built plan -> query_us_p50, throughput_qps on direct_large; ~no effect on direct_small"),
    layer("pgm.ns_per_op", "ns", Lower,
        "kernel time / QueryCost.ops -> same as above; cost-model fidelity"),
    layer("pgm.marginalize_ns_per_entry", "ns", Lower,
        "marginalize_in microkernel on a 2 MiB table -> pgm.kernel_us_per_query; via calibration -> setup_s (direct_large)"),
    layer("pgm.product_ns_per_entry", "ns", Lower,
        "product_in microkernel -> pgm.kernel_us_per_query (direct_large)"),
    layer("pgm.divide_ns_per_entry", "ns", Lower,
        "divide_in microkernel -> pgm.kernel_us_per_query (direct_large)"),
    layer("pgm.stream_ns_per_entry", "ns", Lower,
        "plain sum over an equal-size f64 slab: the roofline the three kernels are read against (direct_large)"),
    // --- junction ---
    layer("junction.build_ms", "ms", Lower,
        "build_junction_tree -> setup_s (all)"),
    layer("junction.calibrate_ms", "ms", Lower,
        "NumericState::initialize + calibrate -> setup_s (all)"),
    layer("junction.restrict_us", "us", Lower,
        "QueryEngine::restricted_to_evidence -> serving.session_open_us_p50 on evidence_sessions"),
    layer("junction.steiner_us_per_query", "us", Lower,
        "QueryEngine::plan -> query_us_p50 on direct_small, tail on direct_large"),
    layer("junction.reduced_build_us_per_query", "us", Lower,
        "ReducedTree::from_steiner (clones tables) -> query_us_p50 on direct_small, tail on direct_large"),
    layer("junction.plain_query_us_p50", "us", Lower,
        "QueryEngine::answer_in, the no-materialization reference (direct_*)"),
    layer("junction.slab_entries", "count", Lower,
        "f64 entries of the calibrated arena slab -> peak_rss_mb, store.bytes_per_epoch"),
    // --- core ---
    layer("core.context_ms", "ms", Lower,
        "OfflineContext::new -> setup_s; serving.remat_ms_p50 on drift_remat"),
    layer("core.select_ms", "ms", Lower,
        "Peanut::offline_numeric -> setup_s; serving.remat_ms_p50 on drift_remat"),
    layer("core.shortcut_reduce_us_per_query", "us", Lower,
        "self time of OnlineEngine::reduce minus the two junction spans -> query_us_p50 on direct_small"),
    layer("core.shortcut_hit_frac", "ratio", Higher,
        "computed requests that used >= 1 shortcut (exact count) -> ops_ratio"),
    layer("core.shortcuts_used_per_query", "count", Higher,
        "shortcuts substituted per computed request (exact count) -> ops_ratio"),
    layer("core.shortcuts_selected", "count", Higher,
        "shortcut potentials in the materialization (exact count) -> ops_ratio"),
    layer("core.materialized_entries", "count", Lower,
        "total table entries materialized (exact count) -> peak_rss_mb, store.bytes_per_epoch"),
    layer("core.time_saved_frac", "ratio", Higher,
        "1 - online wall / plain wall on the same queries; read beside 1 - ops_ratio = cost-model fidelity (direct_*)"),
    layer("core.paper_ops_saved_frac.Child", "ratio", Higher,
        "symbolic PEANUT+ savings, 300 train / 150 test, 10 b_T: pins which shortcuts get picked (direct_small)"),
    layer("core.paper_ops_saved_frac.HeparII", "ratio", Higher, "same, HeparII"),
    layer("core.paper_ops_saved_frac.Andes", "ratio", Higher, "same, Andes"),
    layer("core.paper_ops_saved_frac.Hailfinder", "ratio", Higher, "same, Hailfinder"),
    layer("core.paper_ops_saved_frac.TPC-H", "ratio", Higher, "same, TPC-H"),
    layer("core.paper_ops_saved_frac.Munin", "ratio", Higher, "same, Munin"),
    layer("core.paper_ops_saved_frac.PathFinder", "ratio", Higher, "same, PathFinder"),
    layer("core.paper_ops_saved_frac.Barley", "ratio", Higher, "same, Barley"),
    // --- serving ---
    layer("serving.batch_us_p50", "us", Lower,
        "wall of one serve_batch / serve_mixed / session batch call -> query_us_p50 on the serving workloads"),
    layer("serving.framework_tax_us_per_req", "us", Lower,
        "(batch wall - bare OnlineEngine replay of the batch's computed uniques / workers) / requests -> query_us_p50 on serve_distinct, throughput_qps on serve_repeat"),
    layer("serving.hit_path_ns_per_req", "ns", Lower,
        "a batch of only cached requests, per request -> throughput_qps on serve_repeat"),
    layer("serving.cache_hit_frac", "ratio", Higher,
        "unique requests served from the answer cache -> throughput_qps on serve_repeat; must read 0 on serve_distinct"),
    layer("serving.dedup_frac", "ratio", Higher,
        "arrivals coalesced inside a batch -> throughput_qps on serve_repeat; must read 0 on serve_distinct"),
    layer("serving.pool_wave_us_p50", "us", Lower,
        "WorkerPool::run_wave of no-op tasks -> serving.sojourn_ms_p99.r1 (serve_distinct)"),
    layer("serving.pool_unparks_per_wave", "count", Lower,
        "PoolStats unparks delta / waves -> serving.sojourn_ms_p99.r1 (serve_distinct)"),
    layer("serving.queue_wait_ms_p99", "ms", Lower,
        "due instant -> dispatch, at r3 -> serving.sojourn_ms_p99.r3, serving.max_rate_qps (serve_distinct)"),
    layer("serving.peak_backlog", "count", Lower,
        "largest backlog seen at r3 -> serving.sojourn_ms_p99.r3 (serve_distinct)"),
    layer("serving.shed_frac", "ratio", Lower,
        "requests shed / offered (FIFO admission sheds nothing; must read 0)"),
    layer("serving.sojourn_ms_p50.r2", "ms", Lower,
        "open-loop sojourn from the due instant at rate r2 (serve_distinct); user-visible"),
    layer("serving.sojourn_ms_p99.r1", "ms", Lower,
        "same, p99 at r1 (serve_distinct); user-visible"),
    layer("serving.sojourn_ms_p99.r2", "ms", Lower,
        "same, p99 at r2 (serve_distinct); user-visible"),
    layer("serving.sojourn_ms_p99.r3", "ms", Lower,
        "same, p99 at r3: rises first as utilisation grows (serve_distinct); user-visible"),
    layer("serving.max_rate_qps", "1/s", Higher,
        "highest of r1..r3 with p99 sojourn <= 20 ms, nothing failed and no growing backlog (serve_distinct); user-visible"),
    layer("serving.session_open_us_p50", "us", Lower,
        "open_session(evidence) -> first answer returned (evidence_sessions); user-visible"),
    layer("serving.session_query_us_p50", "us", Lower,
        "EvidenceSession::serve_batch wall / targets -> query_us_p50 on evidence_sessions"),
    layer("serving.session_tax_us", "us", Lower,
        "open_session - restricted_to_evidence -> serving.session_open_us_p50 (evidence_sessions)"),
    layer("serving.remat_ms_p50", "ms", Lower,
        "RematerializationController::tick start -> publish returned, over ticks that swapped (drift_remat); user-visible"),
    layer("serving.publish_us_p50", "us", Lower,
        "ServingEngine::publish -> query_us_p99 on drift_remat, fleet_paging"),
    layer("serving.query_us_p99_during_remat", "us", Lower,
        "batch latency in the tick interval after a swap, while the answer cache refills under the new epoch -> query_us_p99 on drift_remat"),
    layer("serving.swaps", "count", Lower,
        "epochs published during the run (exact; identical in every run) -> drift_remat, fleet_paging"),
    // --- store ---
    layer("store.save_us_p50", "us", Lower,
        "StoreConfig::save_epoch -> query_us_p99 on fleet_paging (sandbox page cache, not a device)"),
    layer("store.open_us_p50", "us", Lower,
        "StoredEpoch::open with the checksum verified -> store.fault_in_us_p50"),
    layer("store.rehydrate_us_p50", "us", Lower,
        "rehydrate_engine -> store.fault_in_us_p50"),
    layer("store.fault_in_us_p50", "us", Lower,
        "fault_wall / faults -> query_us_p99, throughput_qps on fleet_paging"),
    layer("store.faults", "count", Lower,
        "tenant fault-ins (exact count) -> throughput_qps on fleet_paging; 0 elsewhere"),
    layer("store.page_outs", "count", Lower,
        "tenant page-outs (exact count) -> throughput_qps on fleet_paging; 0 elsewhere"),
    layer("store.bytes_per_epoch", "B", Lower,
        "mean size of a persisted epoch file, computed from the files written"),
    // --- bench ---
    layer("bench.trace_overhead_frac", "ratio", Lower,
        "traced / untraced wall of the same request prefix - 1"),
    layer("bench.sched_lag_ms_p99", "ms", Lower,
        "how late the open-loop generator admitted an arrival (serve_distinct)"),
    layer("bench.spread_max", "ratio", Lower,
        "largest (max - min) / median over the untraced passes of this traced run"),
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Prints every workload and metric name with its unit (`--list`).
pub fn print_list() {
    println!("workloads:");
    for w in WORKLOADS {
        println!("  {:<18} {}", w.name, w.why);
    }
    println!("end-to-end metrics (name, unit, better, bound):");
    for m in END_TO_END {
        println!(
            "  {:<40} {:<6} {:<7} {:<5} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.unwrap_or(0.0),
            m.note
        );
    }
    println!("per-layer metrics (name, unit, better):");
    for m in PER_LAYER {
        println!(
            "  {:<40} {:<6} {:<7} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.note
        );
    }
}
