#![warn(missing_docs)]
//! # peanut-serving
//!
//! Batched concurrent query serving over a calibrated, materialized
//! junction tree — the layer between the paper's single-query online phase
//! (§4.5–4.6) and the ROADMAP's multi-user serving north star.
//!
//! Every serving surface below — [`ServingEngine::serve_batch`],
//! [`ShardedServingEngine::serve_mixed`], [`EvidenceSession::serve_batch`]
//! — is one routine behind a different resolver: the entry point decides
//! what a batch is served against (engine, epoch snapshot, answer cache or
//! none), and the private `pipeline` module does the rest exactly once —
//! a `BatchRun` per target (dedup, one cache-lock probe, cache admit,
//! `BatchStats`, the one record of the batch into the epoch's stats) and
//! one `fan_out`
//! (in-thread for a single task or worker, a serving-lane pool wave
//! otherwise).
//!
//! * [`engine`] — [`ServingEngine`]: owns a calibrated
//!   [`QueryEngine`](peanut_junction::QueryEngine) and a
//!   [`Materialization`](peanut_core::Materialization) behind `Arc`, accepts
//!   batches of marginal and evidence-conditioned queries, coalesces
//!   duplicates, and fans the unique work out across a worker pool. Each
//!   worker runs the shortcut-aware online engine on the stride-walk kernel
//!   path with its own [`Scratch`](peanut_pgm::Scratch), so steady-state
//!   serving performs no transient allocation.
//! * [`pool`] — the concurrency backbone: a persistent [`WorkerPool`] of
//!   long-lived workers, spawned once per engine (or shared across a
//!   sharded engine's shards), parked between waves on a condvar-fronted
//!   two-[`Lane`] priority queue (serving > re-materialization), with
//!   per-task panic isolation and drain-then-join shutdown. Batches are
//!   submitted blocking (`run_wave`); the pool doubles as the
//!   [`Executor`](peanut_core::Executor) the lifecycle's off-path
//!   re-selections run on — routed to [`Lane::Remat`] so they can never
//!   head-of-line block query traffic — and surfaces [`PoolStats`]
//!   (wave, task and park counters).
//! * [`session`](mod@session) — stateful evidence sessions: an
//!   [`EvidenceSession`] pins an evidence assignment once
//!   ([`ServingEngine::open_session`]) on the network's CPTs — slicing the
//!   families that hold an evidence variable and checking `P(e) > 0` —
//!   then answers each target marginal `P(t | e)` by pruned variable
//!   elimination over the ancestral set of `t ∪ vars(e)`
//!   (`peanut_ve::VePlan`); a target's evidence variables hold a point
//!   mass at their pinned values. The factors eliminations make are
//!   filed — evidence-free steps in one memo every session on the engine
//!   shares, the others in the session's own — so a target takes, bit for
//!   bit, every step an earlier target (or the open's `P(e)` check), or an
//!   earlier session's evidence-free step, already ran. The
//!   evidence cost the per-query conditional path re-pays on every
//!   request is paid once.
//!   Sessions snapshot their epoch at open (publish-isolated), fan out on
//!   the serving-priority lane, and record the *restricted* target
//!   scopes into the epoch's
//!   [`WorkloadStats`](peanut_core::WorkloadStats), which is what
//!   re-selection trains on.
//! * [`shard`] — multi-tenant sharded serving: a
//!   [`ShardedServingEngine`] registry of
//!   tenants (each a calibrated tree with its own epoch-versioned
//!   materialization, stats and answer cache) that fans mixed
//!   `(TenantId, ServeRequest)` batches across one shared worker pool,
//!   with per-tenant dedup and fully isolated epoch state. With a
//!   [`StoreConfig`] attached, the registry doubles as an LRU resident
//!   set: cold tenants page out to epoch files and fault back
//!   in on their next arrival (`peanut-store`).
//! * [`counters`](mod@counters) — [`Counters`], the one counted value:
//!   arrivals, failures, answers computed and cached with their charged
//!   and baseline operations, shortcut uses and summed
//!   [`Work`](peanut_pgm::Work), fault-ins, page-outs and store bytes.
//!   `BatchRun::finish` folds the answers in, the paging calls their
//!   fault-ins and page-outs, a tenant's store record its file traffic;
//!   [`ServingEngine::counters`] and [`ShardedServingEngine::counters`]
//!   return the cumulative value, so a delta is two snapshots subtracted.
//! * [`replay`](mod@replay) — the workload-replay driver: [`replay()`]
//!   streams `peanut_workload` query mixes through an engine and reports
//!   throughput, service and sojourn percentiles; [`replay_mixed`] does
//!   the same for multi-tenant arrival streams. Without a schedule the
//!   loop is closed (the next batch once the previous one completed);
//!   with a timed arrival schedule it is open, so sojourn percentiles
//!   reflect queueing under saturation.
//! * [`overload`] — production overload behavior for the open-loop path:
//!   per-tenant admission control and deadline-aware shedding, every
//!   offered query resolving to a typed [`ServeOutcome`] (served / shed
//!   with a [`ShedReason`] / failed) — never a silent error.
//! * [`lifecycle`] — the epoch lifecycle: a
//!   [`RematerializationController`]
//!   watches the observed benefit of the served epoch across a ring of
//!   observation windows, re-runs the offline selection on the observed
//!   distribution when the workload drifts, and hot-publishes the next
//!   epoch without pausing serving. A
//!   [`FleetController`] applies the same rule to every tenant of the
//!   sharded engine, reading each tenant's benefit in its share of fleet
//!   traffic, and splits one global budget across tenants by observed
//!   benefit (greedy knapsack over candidate shortcut sets).

pub mod counters;
pub mod engine;
pub mod lifecycle;
pub mod overload;
mod pipeline;
// `pool` is the audited exception to the workspace `unsafe_code` deny.
#[allow(unsafe_code)]
pub mod pool;
pub mod replay;
pub mod session;
pub mod shard;

pub use counters::Counters;
pub use engine::{Answer, BatchStats, Served, ServingConfig, ServingEngine};
pub use lifecycle::{
    expected_savings, FleetController, FleetRebalance, LifecycleConfig,
    RematerializationController, SwapEvent, TenantAllocation,
};
pub use overload::{AdmissionConfig, ServeOutcome, ShedReason};
pub use peanut_core::ServeRequest;
pub use peanut_store::StoreConfig;
pub use pool::{Lane, PoolStats, WorkerPool};
pub use replay::{replay, replay_mixed, ReplayClock, ReplayConfig, ReplayReport};
pub use session::EvidenceSession;
pub use shard::{MixedBatchStats, PagingStats, ShardConfig, ShardedServingEngine, TenantId};
