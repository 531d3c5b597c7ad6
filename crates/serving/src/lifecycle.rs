//! The materialization lifecycle: drift-aware hot re-materialization.
//!
//! The offline phase optimizes a materialization for the *training*
//! workload (Def. 3.3); the paper's robustness experiments (§5.3,
//! Figures 8–9) show the benefit eroding as served traffic drifts away
//! from that distribution. A [`RematerializationController`] closes the
//! loop at serving time:
//!
//! 1. it watches the current epoch's [`WorkloadStats`] (fed by the serve
//!    pipeline, once per answered request and batch) across a small **ring
//!    of observation windows**, comparing the *observed* benefit against the
//!    epoch's *reference* benefit — the savings the selection promised on
//!    the distribution it was trained on. A swap needs both horizons to
//!    decay: the most recent window (short horizon) *and* the aggregate of
//!    the whole ring (long horizon), so a one-window traffic blip never
//!    triggers a re-selection;
//! 2. when the benefit decays below half of the reference, it re-runs
//!    the offline selection (PEANUT+ at the paper's ε = 1.2) on the
//!    **observed** query distribution accumulated over the ring (the
//!    windows' scope counts through [`Workload::from_counts`], the one way
//!    counts become a workload) — on the controller's thread, while
//!    serving keeps draining batches;
//! 3. if the new artifact's expected benefit (recomputed with the cost
//!    model on the observed distribution) beats what the stale epoch is
//!    delivering, it [`publish`](ServingEngine::publish)es the new epoch.
//!    The swap is one exchange of the whole epoch state: no serving
//!    pause, and the new epoch starts with an empty answer cache of its
//!    own.
//!
//! A [`FleetController`] lifts the same loop to a
//! [`ShardedServingEngine`]: it ticks *all* tenants at once and splits one
//! **global** materialization budget across them by observed benefit — a
//! greedy knapsack over the per-tenant candidate shortcut sets, each
//! candidate priced with the cost model ([`expected_ops`]) on that
//! tenant's observed distribution and weighted by the tenant's share of
//! fleet traffic. When a tenant's traffic spikes, its candidates' weighted
//! benefit grows and the knapsack shifts budget toward it on the next
//! rebalance. Every rebalance re-runs the candidate DP of each tenant
//! that saw traffic.
//!
//! Everything both controllers decide is a deterministic function of the
//! recorded arrivals and their configuration, so a replay of the same
//! drift schedule with the same seeds and the same `tick()` cadence
//! produces the same swap points and the same selected shortcut sets.

use crate::engine::ServingEngine;
use crate::shard::{ShardedServingEngine, TenantId};
use peanut_core::exec::Executor;
use peanut_core::sync::atomic::{AtomicBool, Ordering};
use peanut_core::sync::{thread, Arc};
use peanut_core::{
    Materialization, OfflineContext, OnlineEngine, Peanut, PeanutConfig, StatsSnapshot, Workload,
    WorkloadStats,
};
use peanut_junction::cost::expected_ops;
use peanut_junction::QueryEngine;
use peanut_pgm::{PgmError, Scope, Size};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};

/// Savings at or below this are "no benefit", for both controllers: an
/// epoch whose reference is under the floor is not drift-checked (there is
/// nothing to decay), a candidate selection must promise more than the
/// floor to be published, and a fleet tenant under it keeps an empty
/// allocation.
const MIN_SAVINGS: f64 = 0.01;
/// An epoch (or a fleet tenant's allocation) has decayed when the observed
/// savings drop below this fraction of the savings it was selected for.
const DECAY_THRESHOLD: f64 = 0.5;
/// Closed windows the controller keeps (short- vs long-horizon
/// comparison). A swap requires the ring to be full and *both* the latest
/// window and the ring aggregate to be decayed, so a single anomalous
/// window cannot trigger a re-selection.
const WINDOW_RING: usize = 3;
/// The fleet rebalances when the tenants' traffic shares move by at least
/// this much (L1 distance between consecutive share vectors) — the signal
/// that follows a tenant's traffic spike.
const SHARE_DRIFT: f64 = 0.25;

/// What a lifecycle controller is told: how much traffic a decision needs
/// and how much space a selection may use. Everything else — PEANUT+ at
/// ε = 1.2, a ring of three windows, a swap at half the promised benefit —
/// is fixed.
#[derive(Clone, Debug)]
pub struct LifecycleConfig {
    /// Arrivals an observation window must hold before a decision is
    /// taken: per engine for a [`RematerializationController`] (detection
    /// judges the most recent `min_window`-or-more arrivals against the
    /// ring aggregate — a forever-cumulative average would dilute a drift
    /// signal with pre-drift history), summed over the tenants for a
    /// [`FleetController`].
    pub min_window: u64,
    /// Space budget `K` for re-selection (table entries); the **global**
    /// budget a [`FleetController`] splits across its tenants.
    pub budget: Size,
}

impl LifecycleConfig {
    /// A window of 512 arrivals around a budget.
    pub fn new(budget: Size) -> Self {
        LifecycleConfig {
            min_window: 512,
            budget,
        }
    }

    /// Sets the observation-window size (chainable, like every `with_*`
    /// knob on the serving configs).
    pub fn with_min_window(mut self, min_window: u64) -> Self {
        self.min_window = min_window;
        self
    }
}

/// One published re-materialization, as observed by the controller.
#[derive(Clone, Debug)]
pub struct SwapEvent {
    /// The epoch that was published.
    pub epoch: u64,
    /// Arrivals across the ring of windows that informed the decision.
    pub at_arrivals: u64,
    /// Observed savings of the retired epoch over the ring (long horizon).
    pub observed_savings: f64,
    /// Reference savings the retired epoch was selected for.
    pub reference_savings: f64,
    /// Expected savings of the new epoch on the observed distribution
    /// (this becomes the new reference).
    pub new_reference_savings: f64,
    /// Distinct scopes in the observed workload the selection ran on.
    pub distinct_scopes: usize,
    /// Shortcut potentials in the new materialization.
    pub shortcuts: usize,
    /// Total table entries of the new materialization.
    pub total_size: Size,
    /// Wall-clock time of the re-selection (runs off the serving path).
    pub selection: Duration,
}

/// Expected savings of `mat` over the plain junction tree on a workload
/// distribution, recomputed with the symbolic cost model — the benefit
/// definition (Def. 3.3) evaluated on arbitrary (e.g. observed) traffic.
pub fn expected_savings(
    engine: &QueryEngine<'_>,
    mat: &Materialization,
    entries: &[(Scope, f64)],
) -> f64 {
    let plain = Materialization::default();
    savings_of(
        mean_query_ops(engine, mat, entries),
        mean_query_ops(engine, &plain, entries),
    )
}

/// The fraction of `base_ops` (mean operation count on the plain tree)
/// that answering at `with_ops` saves; zero when there is no baseline.
fn savings_of(with_ops: f64, base_ops: f64) -> f64 {
    if base_ops > 0.0 {
        1.0 - with_ops / base_ops
    } else {
        0.0
    }
}

/// Probability-weighted mean operation count of `entries` answered through
/// `mat` (symbolic cost model); through the empty materialization this is
/// the plain junction tree's.
fn mean_query_ops(
    engine: &QueryEngine<'_>,
    mat: &Materialization,
    entries: &[(Scope, f64)],
) -> f64 {
    let online = OnlineEngine::new(engine, mat);
    expected_ops(entries, |q| online.cost(q).ok().map(|c| c.ops))
}

fn workload_entries(w: &Workload) -> Vec<(Scope, f64)> {
    w.entries()
        .iter()
        .map(|e| (e.query.clone(), e.weight))
        .collect()
}

/// Runs the offline selection — PEANUT+ at the paper's ε = 1.2
/// ([`PeanutConfig::plus`]) — on an observed workload, numeric when the
/// engine is calibrated, symbolic otherwise. The LRDP fan-out runs on
/// `exec` — the serving tier's persistent worker pool when the engine fans
/// out, so a re-selection reuses parked workers instead of spawning its
/// own. The pool routes this work to its re-materialization lane, where
/// concurrent serving-lane waves preempt it between tasks: a
/// drift-triggered re-selection stretches (it yields the workers to
/// queries) instead of stalling the query path. The chosen tables are
/// built together on the calling thread, sharing the messages their
/// regions have in common.
fn reselect(
    engine: &QueryEngine<'_>,
    observed: &Workload,
    budget: Size,
    exec: &dyn Executor,
) -> Result<Materialization, PgmError> {
    let ctx = OfflineContext::new(engine.tree(), observed)?;
    let pcfg = PeanutConfig::plus(budget);
    Ok(match engine.numeric_state() {
        Some(ns) => Peanut::offline_numeric_with(&ctx, &pcfg, ns, exec)?.0,
        None => Peanut::offline_with(&ctx, &pcfg, exec),
    })
}

/// Watches a [`ServingEngine`]'s observed benefit and hot-swaps the
/// materialization when the workload drifts.
pub struct RematerializationController<'s, 't> {
    serving: &'s ServingEngine<'t>,
    cfg: LifecycleConfig,
    reference_savings: f64,
    /// The last [`WINDOW_RING`] closed observation windows, oldest first.
    /// Each is a retired accumulator (in-flight stragglers may still top
    /// one up right after it is retired; the ring only needs window-scale
    /// accuracy).
    ring: VecDeque<Arc<WorkloadStats>>,
    swaps: Vec<SwapEvent>,
    /// Observation windows closed so far (decisions taken, swaps or not).
    windows: u64,
    /// Consecutive re-selections that produced nothing publishable.
    declined: u32,
    /// Decayed windows to sit out before attempting re-selection again
    /// (linear backoff after declines: permanently unhelpable traffic
    /// must not re-run the offline DP every single window).
    backoff: u32,
}

impl<'s, 't> RematerializationController<'s, 't> {
    /// Wraps a serving engine. `training` is the workload the *current*
    /// materialization was selected on; its expected savings become the
    /// reference the observed benefit is compared against.
    pub fn new(serving: &'s ServingEngine<'t>, training: &Workload, cfg: LifecycleConfig) -> Self {
        let reference_savings = expected_savings(
            serving.engine(),
            &serving.materialization(),
            &workload_entries(training),
        );
        RematerializationController {
            serving,
            cfg,
            reference_savings,
            ring: VecDeque::new(),
            swaps: Vec::new(),
            windows: 0,
            declined: 0,
            backoff: 0,
        }
    }

    /// The reference savings the current epoch is held against.
    pub fn reference_savings(&self) -> f64 {
        self.reference_savings
    }

    /// Every swap published so far.
    pub fn swaps(&self) -> &[SwapEvent] {
        &self.swaps
    }

    /// Observation windows closed so far (every decision, swap or not).
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Aggregate counters over the ring of closed windows (long horizon).
    fn ring_snapshot(&self) -> StatsSnapshot {
        let mut agg = StatsSnapshot::default();
        for w in &self.ring {
            agg += w.snapshot();
        }
        agg
    }

    /// The observed workload accumulated over the whole ring: per-scope
    /// arrival counts of every closed window, merged — the distribution a
    /// re-selection trains on.
    fn ring_workload(&self) -> Workload {
        Workload::from_counts(self.ring.iter().flat_map(|w| w.scope_counts()))
    }

    /// One decision round: when the current observation window has filled,
    /// close it into the ring and compare the short- and long-horizon
    /// observed benefit against the reference. If both horizons are
    /// decayed (or an empty materialization cold-starts), re-run the
    /// offline selection on the ring's observed distribution and publish
    /// the next epoch. Returns the swap event when a swap happened.
    ///
    /// Deterministic: the decision depends only on the recorded arrivals
    /// and the configuration, never on wall-clock time.
    pub fn tick(&mut self) -> Result<Option<SwapEvent>, PgmError> {
        let snap = self.serving.stats().snapshot();
        if snap.queries < self.cfg.min_window {
            return Ok(None);
        }
        // the window closes either way: detection must judge recent
        // traffic, not a forever average diluted by old regimes
        self.windows += 1;
        let retired = self.serving.reset_stats();
        let short = retired.snapshot().observed_savings();
        self.ring.push_back(retired);
        if self.ring.len() > WINDOW_RING {
            self.ring.pop_front();
        }

        let long_snap = self.ring_snapshot();
        let long = long_snap.observed_savings();
        let has_reference = self.reference_savings > MIN_SAVINGS;
        let short_decayed = has_reference && short < DECAY_THRESHOLD * self.reference_savings;
        // both horizons must agree, and the ring must be full: a single
        // anomalous window inside otherwise-healthy traffic changes the
        // aggregate too little to trip the long horizon
        let decayed = short_decayed
            && self.ring.len() == WINDOW_RING
            && long < DECAY_THRESHOLD * self.reference_savings;
        // cold-start bootstrap: an *empty* materialization gets a first
        // selection from observed traffic as soon as a window fills, without
        // waiting for the ring — there is no healthy history to protect
        let cold_start =
            self.serving.materialization().is_empty() && self.reference_savings <= MIN_SAVINGS;
        if !decayed && !cold_start {
            if !short_decayed {
                // a healthy window clears any decline backoff: if traffic
                // shifts again, the next decay deserves a fresh attempt
                self.declined = 0;
                self.backoff = 0;
            }
            return Ok(None);
        }
        if self.backoff > 0 {
            // recent re-selections found nothing publishable for traffic
            // like this; sit this window out instead of re-running the
            // offline DP on what is almost surely the same distribution
            self.backoff -= 1;
            return Ok(None);
        }

        // Re-select on the distribution observed across the ring — off the
        // serving path: batches keep draining on other threads while the
        // DP runs here.
        let observed_workload = self.ring_workload();
        if observed_workload.is_empty() {
            return Ok(None);
        }
        let engine = self.serving.engine();
        let exec = self.serving.offline_exec();
        let t0 = Instant::now();
        let mat = reselect(engine, &observed_workload, self.cfg.budget, exec)?;
        let selection = t0.elapsed();

        // Publish only when the candidate's expected benefit on the
        // observed traffic beats both the floor and what the stale epoch
        // is still delivering.
        let entries = workload_entries(&observed_workload);
        let new_reference = expected_savings(engine, &mat, &entries);
        if new_reference <= MIN_SAVINGS || new_reference <= long {
            self.declined += 1;
            self.backoff = self.declined.min(16);
            return Ok(None);
        }
        let (shortcuts, total_size) = (mat.len(), mat.total_size());
        let epoch = self.serving.publish(mat);
        let event = SwapEvent {
            epoch,
            at_arrivals: long_snap.queries,
            observed_savings: long,
            reference_savings: self.reference_savings,
            new_reference_savings: new_reference,
            distinct_scopes: observed_workload.len(),
            shortcuts,
            total_size,
            selection,
        };
        self.reference_savings = new_reference;
        self.declined = 0;
        self.backoff = 0;
        // pre-swap windows describe the retired epoch; the new epoch's
        // drift detection must start from its own observations
        self.ring.clear();
        self.swaps.push(event.clone());
        Ok(Some(event))
    }

    /// Drives [`tick`](Self::tick) on an interval until `stop` is raised —
    /// meant for a dedicated background thread next to the serving loop.
    /// Returns the swaps published during the run.
    pub fn run(&mut self, stop: &AtomicBool, poll: Duration) -> Result<usize, PgmError> {
        let before = self.swaps.len();
        // ordering: advisory stop flag polled once per tick; a one-tick-
        // late observation is inherent to polling, so Relaxed suffices.
        while !stop.load(Ordering::Relaxed) {
            self.tick()?;
            thread::sleep(poll);
        }
        Ok(self.swaps.len() - before)
    }
}

// ---------------------------------------------------------------------------
// Fleet-level lifecycle: one global budget across all tenants
// ---------------------------------------------------------------------------

/// One tenant's share of a fleet rebalance.
#[derive(Clone, Debug)]
pub struct TenantAllocation {
    /// The tenant.
    pub tenant: TenantId,
    /// Its share of fleet arrivals in the deciding window.
    pub share: f64,
    /// Shortcut potentials allocated to it.
    pub shortcuts: usize,
    /// Table entries of its allocation (its slice of the global budget).
    pub budget_used: Size,
    /// Expected savings of the allocation on the tenant's observed
    /// distribution (the tenant's new reference).
    pub expected_savings: f64,
    /// The epoch published for this tenant, when its materialization
    /// actually changed (`None` = the allocation was already being served).
    pub published: Option<u64>,
}

/// One fleet rebalance: the global budget re-split across tenants.
#[derive(Clone, Debug)]
pub struct FleetRebalance {
    /// Fleet arrivals in the window that triggered the decision.
    pub at_arrivals: u64,
    /// Total table entries materialized fleet-wide (≤ the global budget):
    /// the fresh allocations of this rebalance plus the standing
    /// allocations of tenants that saw no traffic this window.
    pub total_size: Size,
    /// Per-tenant outcome, in registry (id) order.
    pub allocations: Vec<TenantAllocation>,
    /// Wall-clock time of candidate generation + knapsack (off the
    /// serving path).
    pub selection: Duration,
}

/// Ticks every tenant of a [`ShardedServingEngine`] and splits a global
/// materialization budget ([`LifecycleConfig::budget`]) across them by
/// observed benefit, once [`LifecycleConfig::min_window`] arrivals have
/// come in fleet-wide.
pub struct FleetController<'s, 't> {
    sharded: &'s ShardedServingEngine<'t>,
    cfg: LifecycleConfig,
    /// Traffic shares at the last rebalance, in registry order.
    last_shares: Option<Vec<(TenantId, f64)>>,
    /// Expected savings each tenant's current allocation promised.
    references: HashMap<TenantId, f64>,
    /// Table entries each tenant's materialization held when a tick last
    /// saw it resident — what a tenant paged out since then still serves
    /// from the store, and still owes the global budget.
    allocated: HashMap<TenantId, Size>,
    rebalances: Vec<FleetRebalance>,
}

/// L1 distance between two traffic-share vectors, joined by tenant id: a
/// tenant on one side only (paging changes the resident set between
/// ticks) moves by its whole share.
fn share_l1(prev: &[(TenantId, f64)], now: &[(TenantId, f64)]) -> f64 {
    let mut moved: BTreeMap<TenantId, f64> = prev.iter().copied().collect();
    for &(id, share) in now {
        *moved.entry(id).or_insert(0.0) -= share;
    }
    moved.values().map(|d| d.abs()).sum()
}

impl<'s, 't> FleetController<'s, 't> {
    /// Wraps a sharded engine. Tenants' current materializations are
    /// treated as unreferenced (first filled window always rebalances),
    /// which doubles as the fleet's cold start.
    pub fn new(sharded: &'s ShardedServingEngine<'t>, cfg: LifecycleConfig) -> Self {
        FleetController {
            sharded,
            cfg,
            last_shares: None,
            references: HashMap::new(),
            allocated: HashMap::new(),
            rebalances: Vec::new(),
        }
    }

    /// Every rebalance taken so far.
    pub fn rebalances(&self) -> &[FleetRebalance] {
        &self.rebalances
    }

    /// One fleet decision round. When the fleet-wide window has filled,
    /// decide whether a rebalance is warranted (first window, a 25% traffic
    /// share shift, or a tenant's observed benefit decaying); if so,
    /// generate per-tenant candidate shortcut
    /// sets at the full global budget, split the budget with a greedy
    /// knapsack on benefit-per-entry (weighted by traffic share), and
    /// publish every tenant whose allocation changed. Rolls every tenant's
    /// observation window after any decision.
    ///
    /// Deterministic: tenants are visited in registry order and every
    /// decision depends only on recorded arrivals and configuration.
    pub fn tick(&mut self) -> Result<Option<&FleetRebalance>, PgmError> {
        // fleet snapshot, registry order (resident tenants only: a fleet
        // with paging ticks its hot set; paged-out tenants have no traffic
        // to observe and keep serving their persisted allocation, at the
        // size remembered from the last tick that saw them)
        let mut tenants: Vec<(TenantId, Arc<ServingEngine<'t>>, StatsSnapshot)> = Vec::new();
        let mut total: u64 = 0;
        for (id, eng) in self.sharded.tenants() {
            let snap = eng.stats().snapshot();
            total += snap.queries;
            self.allocated
                .insert(id, eng.materialization().total_size());
            tenants.push((id, eng, snap));
        }
        if total < self.cfg.min_window.max(1) {
            return Ok(None);
        }
        let shares: Vec<(TenantId, f64)> = tenants
            .iter()
            .map(|(id, _, s)| (*id, s.queries as f64 / total as f64))
            .collect();

        let share_shift = self
            .last_shares
            .as_ref()
            .is_none_or(|prev| share_l1(prev, &shares) >= SHARE_DRIFT);
        let decayed = tenants.iter().any(|(id, _, s)| {
            let reference = self.references.get(id).copied().unwrap_or(0.0);
            s.queries > 0
                && reference > MIN_SAVINGS
                && s.observed_savings() < DECAY_THRESHOLD * reference
        });
        // cold start = traffic on a tenant the controller has never
        // allocated for; a tenant whose last allocation came out *empty*
        // (sub-floor benefit, recorded in `references`) is not cold —
        // re-running the fleet DP every window for unhelpable traffic
        // would be pure churn
        let cold = tenants.iter().any(|(id, eng, s)| {
            s.queries > 0 && eng.materialization().is_empty() && !self.references.contains_key(id)
        });
        if !share_shift && !decayed && !cold {
            self.roll_windows();
            return Ok(None);
        }

        // --- per-tenant candidates at the full global budget ---
        struct Candidate<'tt> {
            tenant: TenantId,
            engine: Arc<ServingEngine<'tt>>,
            share: f64,
            entries: Vec<(Scope, f64)>,
            pool: Vec<peanut_core::MaterializedShortcut>,
            overlapping: bool,
            selected: Vec<usize>,
            /// Mean per-query ops of the currently selected subset.
            current_ops: f64,
            base_ops: f64,
        }
        let exec = self.sharded.offline_exec();
        let t0 = Instant::now();
        let mut candidates: Vec<Candidate<'t>> = Vec::new();
        for ((id, eng, snap), (_, share)) in tenants.iter().zip(&shares) {
            if snap.queries == 0 {
                continue;
            }
            let observed = eng.stats().observed_workload();
            if observed.is_empty() {
                continue;
            }
            // candidate generation is the expensive half of a rebalance:
            // one full-budget offline DP per tenant
            let cand_mat = reselect(eng.engine(), &observed, self.cfg.budget, exec)?;
            let entries = workload_entries(&observed);
            let base_ops = mean_query_ops(eng.engine(), &Materialization::default(), &entries);
            candidates.push(Candidate {
                tenant: *id,
                engine: Arc::clone(eng),
                share: *share,
                entries,
                pool: cand_mat.shortcuts,
                overlapping: cand_mat.overlapping,
                selected: Vec::new(),
                // nothing selected yet: the tenant answers on the plain tree
                current_ops: base_ops,
                base_ops,
            });
        }

        // Tenants that saw no traffic this window — resident or paged out
        // — keep serving whatever they were last allocated; that standing
        // allocation is charged against the global budget up front, so the
        // knapsack only spends what is actually free fleet-wide.
        let rebalanced: HashSet<TenantId> = candidates.iter().map(|c| c.tenant).collect();
        let reserved: Size = self
            .allocated
            .iter()
            .filter(|(id, _)| !rebalanced.contains(id))
            .fold(0u64, |a, (_, &size)| a.saturating_add(size));

        // Pricing a trial subset only needs the symbolic cost model, so
        // trials carry no dense tables (the knapsack would otherwise deep-
        // clone every already-selected potential per evaluation).
        let price = |c: &Candidate<'t>, si: usize| -> (f64, f64) {
            let trial = Materialization::new(
                c.selected
                    .iter()
                    .chain(std::iter::once(&si))
                    .map(|&i| {
                        let s = &c.pool[i];
                        peanut_core::MaterializedShortcut {
                            shortcut: s.shortcut.clone(),
                            potential: None,
                            benefit: s.benefit,
                            ratio: s.ratio,
                        }
                    })
                    .collect(),
                c.overlapping,
            );
            let ops = mean_query_ops(c.engine.engine(), &trial, &c.entries);
            // ops saved per fleet arrival
            (c.share * (c.current_ops - ops), ops)
        };

        // --- greedy knapsack: best weighted benefit per table entry ---
        // Adding a shortcut to tenant T only changes T's marginal deltas,
        // so cached (delta, ops) pairs are re-priced per round only for
        // the tenant that was just extended.
        let mut used: Size = reserved;
        let mut deltas: Vec<Vec<Option<(f64, f64)>>> = candidates
            .iter()
            .map(|c| (0..c.pool.len()).map(|si| Some(price(c, si))).collect())
            .collect();
        loop {
            // (candidate idx, shortcut idx, ratio, new mean ops)
            let mut best: Option<(usize, usize, f64, f64)> = None;
            for (ci, c) in candidates.iter().enumerate() {
                for (si, s) in c.pool.iter().enumerate() {
                    if c.selected.contains(&si) {
                        continue;
                    }
                    let size = s.shortcut.size();
                    if size == 0 || used.saturating_add(size) > self.cfg.budget {
                        continue;
                    }
                    let (delta, ops) = deltas[ci][si].expect("unselected pairs stay priced");
                    if delta <= 0.0 {
                        continue;
                    }
                    let ratio = delta / size as f64;
                    if best.is_none_or(|(_, _, r, _)| ratio > r) {
                        best = Some((ci, si, ratio, ops));
                    }
                }
            }
            let Some((ci, si, _, ops)) = best else { break };
            used = used.saturating_add(candidates[ci].pool[si].shortcut.size());
            candidates[ci].selected.push(si);
            candidates[ci].current_ops = ops;
            deltas[ci][si] = None;
            let extended = &candidates[ci];
            for (other, slot) in deltas[ci].iter_mut().enumerate() {
                if slot.is_some() {
                    *slot = Some(price(extended, other));
                }
            }
        }

        // --- build, publish-if-changed, record ---
        let mut allocations = Vec::with_capacity(candidates.len());
        for c in &candidates {
            let mut savings = savings_of(c.current_ops, c.base_ops);
            let mut shortcuts: Vec<peanut_core::MaterializedShortcut> =
                c.selected.iter().map(|&i| c.pool[i].clone()).collect();
            if savings <= MIN_SAVINGS && !shortcuts.is_empty() {
                // sub-floor benefit is "no benefit": the tenant keeps an
                // empty allocation and its entries return to the pool
                // (spendable at the *next* rebalance)
                used = used.saturating_sub(
                    shortcuts
                        .iter()
                        .fold(0u64, |a, s| a.saturating_add(s.shortcut.size())),
                );
                shortcuts.clear();
                savings = 0.0;
            }
            // keep the online phase's invariant: decreasing ratio order
            shortcuts.sort_by(|a, b| b.ratio.total_cmp(&a.ratio));
            let mat = Materialization::new(shortcuts, c.overlapping);
            let current = c.engine.materialization();
            let published = if fingerprint(&mat) == fingerprint(&current) {
                None
            } else {
                Some(c.engine.publish(mat.clone()))
            };
            self.references.insert(c.tenant, savings);
            self.allocated.insert(c.tenant, mat.total_size());
            allocations.push(TenantAllocation {
                tenant: c.tenant,
                share: c.share,
                shortcuts: mat.len(),
                budget_used: mat.total_size(),
                expected_savings: savings,
                published,
            });
        }
        let rebalance = FleetRebalance {
            at_arrivals: total,
            total_size: used,
            allocations,
            selection: t0.elapsed(),
        };
        self.last_shares = Some(shares);
        self.roll_windows();
        self.rebalances.push(rebalance);
        Ok(self.rebalances.last())
    }

    /// Starts a fresh observation window on every tenant.
    fn roll_windows(&self) {
        for (_, eng) in self.sharded.tenants() {
            eng.reset_stats();
        }
    }
}

/// Order-insensitive identity of a materialization: the node sets and
/// sizes of its shortcuts. Used to skip republishing an unchanged
/// allocation (which would only churn the tenant's answer cache).
fn fingerprint(mat: &Materialization) -> Vec<(Vec<usize>, Size)> {
    let mut fp: Vec<(Vec<usize>, Size)> = mat
        .shortcuts
        .iter()
        .map(|s| (s.shortcut.nodes().to_vec(), s.shortcut.size()))
        .collect();
    fp.sort();
    fp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServingConfig;
    use crate::overload::ServeOutcome;
    use crate::shard::ShardConfig;
    use peanut_core::ServeRequest;
    use peanut_junction::build_junction_tree;
    use peanut_pgm::{fixtures, Var};

    fn pair_queries(lo: u32, hi: u32, span: u32) -> Vec<ServeRequest> {
        (lo..hi.saturating_sub(span))
            .map(|a| ServeRequest::marginal(Scope::from_indices(&[a, a + span])))
            .collect()
    }

    /// A calibrated chain of `n` binary variables. The tree is leaked for
    /// `'static` (tests only): the engines borrow it.
    fn chain_engine(n: usize, seed: u64) -> QueryEngine<'static> {
        let bn = fixtures::chain(n, 2, seed);
        let tree = Box::leak(Box::new(build_junction_tree(&bn).unwrap()));
        QueryEngine::numeric(tree, &bn).unwrap()
    }

    /// The PEANUT+ selection (budget 512, ε = 1) trained on `train`, with
    /// the training workload it was selected for.
    fn train_on(engine: &QueryEngine<'_>, train: &[ServeRequest]) -> (Materialization, Workload) {
        let train_w = Workload::from_queries(train.iter().map(|q| q.stat_scope()));
        let ctx = OfflineContext::new(engine.tree(), &train_w).unwrap();
        let (mat, _) = Peanut::offline_numeric(
            &ctx,
            &PeanutConfig::plus(512).with_epsilon(1.0),
            engine.numeric_state().unwrap(),
        )
        .unwrap();
        (mat, train_w)
    }

    /// A one-worker fleet of unmaterialized tenants `0..`, one per engine.
    fn fleet_of(engines: Vec<QueryEngine<'static>>) -> ShardedServingEngine<'static> {
        let mut sharded = ShardedServingEngine::new(ShardConfig::default().with_workers(1));
        for (i, engine) in engines.into_iter().enumerate() {
            sharded
                .register(TenantId(i as u32), engine, Materialization::default())
                .unwrap();
        }
        sharded
    }

    /// Two 18-variable chain tenants with different CPTs.
    fn two_tenant_fleet() -> ShardedServingEngine<'static> {
        fleet_of(vec![chain_engine(18, 13), chain_engine(18, 29)])
    }

    /// Serves `a` arrivals to tenant 0 and `b` to tenant 1 of a
    /// [`two_tenant_fleet`], cycling the chains' long-range pairs.
    fn serve_split(fleet: &ShardedServingEngine<'_>, a: usize, b: usize) {
        let pool = pair_queries(0, 18, 7);
        let arrivals = |t: u32, n: usize| {
            let cycle = pool.iter().cycle().take(n);
            cycle.map(move |q| (TenantId(t), q.clone()))
        };
        let batch: Vec<_> = arrivals(0, a).chain(arrivals(1, b)).collect();
        let (answers, _) = fleet.serve_mixed(&batch);
        assert!(answers.iter().all(ServeOutcome::is_served));
    }

    /// Drive a chain-network engine from a training regime into a fully
    /// drifted one and check the controller swaps exactly once, improving
    /// the served cost.
    #[test]
    fn controller_swaps_on_drift() {
        let engine = chain_engine(20, 13);
        // train on deep long-range pairs
        let train: Vec<ServeRequest> = pair_queries(10, 20, 5);
        let (mat, train_w) = train_on(&engine, &train);
        assert!(!mat.is_empty(), "test premise: training selects shortcuts");

        let serving = ServingEngine::new(engine, mat, ServingConfig::default().with_workers(1));
        let mut ctl = RematerializationController::new(
            &serving,
            &train_w,
            LifecycleConfig::new(512).with_min_window(32),
        );
        assert!(ctl.reference_savings() > 0.0);

        // serve the training regime: no swap
        for _ in 0..16 {
            serving.serve_batch(&train);
            assert!(ctl.tick().unwrap().is_none(), "no drift yet");
        }
        assert_eq!(serving.epoch(), 0);

        // full drift to shallow pairs the training shortcuts don't cover;
        // the ring must fill with decayed windows before the controller
        // reacts, so drive plenty
        let drifted: Vec<ServeRequest> = pair_queries(0, 10, 5);
        let mut swapped = None;
        for _ in 0..40 {
            serving.serve_batch(&drifted);
            if let Some(ev) = ctl.tick().unwrap() {
                swapped = Some(ev);
                break;
            }
        }
        let ev = swapped.expect("controller must react to full drift");
        assert_eq!(ev.epoch, 1);
        assert_eq!(serving.epoch(), 1);
        assert!(ev.new_reference_savings > ev.observed_savings);
        assert!(ev.shortcuts > 0);

        // the fresh epoch now covers the drifted traffic
        let stats = serving.stats();
        serving.serve_batch(&drifted);
        assert!(
            stats.snapshot().observed_savings() > ev.observed_savings,
            "post-swap savings must improve on the stale epoch"
        );
        // and the controller settles: same traffic, no further swap
        for _ in 0..8 {
            serving.serve_batch(&drifted);
            assert!(ctl.tick().unwrap().is_none(), "stable after the swap");
        }
    }

    /// An engine started without any materialization bootstraps one from
    /// observed traffic — without waiting for the ring to fill.
    #[test]
    fn controller_bootstraps_cold_start() {
        let serving = ServingEngine::new(
            chain_engine(16, 13),
            Materialization::default(),
            ServingConfig::default().with_workers(1),
        );
        let mut ctl = RematerializationController::new(
            &serving,
            &Workload::default(),
            LifecycleConfig::new(512).with_min_window(16),
        );
        let traffic = pair_queries(0, 16, 6);
        let mut swapped = false;
        let mut batches = 0;
        for _ in 0..6 {
            serving.serve_batch(&traffic);
            batches += 1;
            if ctl.tick().unwrap().is_some() {
                swapped = true;
                break;
            }
        }
        assert!(swapped, "cold start must materialize from observations");
        assert!(
            batches <= 2,
            "bootstrap must not wait for the ring: took {batches} batches"
        );
        assert!(!serving.materialization().is_empty());
        assert_eq!(serving.epoch(), 1);
    }

    /// Traffic no materialization can help (in-clique queries, zero
    /// headroom) decays the benefit but must never publish — and the
    /// decline backoff must keep closing windows without getting stuck.
    #[test]
    fn controller_declines_unhelpable_traffic() {
        let engine = chain_engine(14, 13);
        let train: Vec<ServeRequest> = pair_queries(0, 14, 5);
        let (mat, train_w) = train_on(&engine, &train);
        let serving = ServingEngine::new(engine, mat, ServingConfig::default());
        let mut ctl = RematerializationController::new(
            &serving,
            &train_w,
            LifecycleConfig::new(512).with_min_window(8),
        );
        assert!(ctl.reference_savings() > 0.0, "test premise");
        // single-variable in-clique queries: cost == baseline, always
        let flat: Vec<ServeRequest> = (0..14u32)
            .map(|v| ServeRequest::marginal(Scope::from_indices(&[v])))
            .collect();
        for _ in 0..12 {
            serving.serve_batch(&flat);
            assert!(ctl.tick().unwrap().is_none(), "nothing publishable");
        }
        assert!(ctl.swaps().is_empty());
        assert_eq!(serving.epoch(), 0);
        assert!(
            ctl.windows() >= 10,
            "windows must keep closing: {}",
            ctl.windows()
        );
    }

    /// A window of traffic the current epoch already serves well must not
    /// trigger a swap.
    #[test]
    fn controller_holds_without_drift() {
        let engine = chain_engine(14, 13);
        let train: Vec<ServeRequest> = pair_queries(0, 14, 5);
        let (mat, train_w) = train_on(&engine, &train);
        let serving = ServingEngine::new(engine, mat, ServingConfig::default());
        let mut ctl = RematerializationController::new(
            &serving,
            &train_w,
            LifecycleConfig::new(512).with_min_window(16),
        );
        for _ in 0..6 {
            serving.serve_batch(&train);
            assert!(ctl.tick().unwrap().is_none());
        }
        assert_eq!(serving.epoch(), 0);
        assert!(ctl.swaps().is_empty());
    }

    /// The ring satellite: a *one-window* traffic blip inside otherwise
    /// healthy traffic must not trigger a swap — the long horizon holds —
    /// while the same blip sustained across the ring does.
    #[test]
    fn one_window_blip_does_not_swap() {
        let engine = chain_engine(20, 13);
        let train: Vec<ServeRequest> = pair_queries(10, 20, 5);
        let (mat, train_w) = train_on(&engine, &train);
        assert!(!mat.is_empty(), "test premise");
        let serving = ServingEngine::new(engine, mat, ServingConfig::default().with_workers(1));
        let mut ctl = RematerializationController::new(
            &serving,
            &train_w,
            LifecycleConfig::new(512).with_min_window(8),
        );
        // one batch = one observation window (5 queries < 2×min_window)
        let blip: Vec<ServeRequest> = pair_queries(0, 10, 5)
            .into_iter()
            .flat_map(|q| [q.clone(), q])
            .collect();
        let healthy: Vec<ServeRequest> =
            train.iter().flat_map(|q| [q.clone(), q.clone()]).collect();

        // healthy history fills the ring
        for _ in 0..4 {
            serving.serve_batch(&healthy);
            assert!(ctl.tick().unwrap().is_none());
        }
        assert!(ctl.windows() >= 3, "ring must be full of healthy windows");
        // exactly one decayed window (the blip)…
        serving.serve_batch(&blip);
        assert!(
            ctl.tick().unwrap().is_none(),
            "a one-window blip must not swap"
        );
        // …then traffic recovers: still no swap, ever
        for _ in 0..6 {
            serving.serve_batch(&healthy);
            assert!(ctl.tick().unwrap().is_none());
        }
        assert_eq!(serving.epoch(), 0, "blip must not have published");
        assert!(ctl.swaps().is_empty());

        // control: the same traffic *sustained* does swap once the ring
        // fills with decayed windows
        let mut swapped = false;
        for _ in 0..10 {
            serving.serve_batch(&blip);
            if ctl.tick().unwrap().is_some() {
                swapped = true;
                break;
            }
        }
        assert!(swapped, "sustained drift must still swap");
        assert_eq!(serving.epoch(), 1);
    }

    /// Fleet controller: the global budget follows traffic shares — when a
    /// tenant's share of fleet arrivals doubles, its allocation grows on
    /// the next rebalance (and the total stays within the global budget).
    #[test]
    fn fleet_budget_follows_traffic_spike() {
        let sharded = two_tenant_fleet();
        let global_budget = 192;
        let mut ctl = FleetController::new(
            &sharded,
            LifecycleConfig::new(global_budget).with_min_window(64),
        );

        // phase 1: tenant 0 dominates (75% of traffic)
        serve_split(&sharded, 60, 20);
        let r1 = ctl
            .tick()
            .unwrap()
            .expect("first window rebalances")
            .clone();
        assert!(r1.total_size <= global_budget);
        let alloc = |r: &FleetRebalance, t: u32| {
            r.allocations
                .iter()
                .find(|a| a.tenant == TenantId(t))
                .map(|a| a.budget_used)
                .unwrap_or(0)
        };
        let t1_before = alloc(&r1, 1);

        // phase 2: tenant 1 spikes to 75% — its share more than doubles
        serve_split(&sharded, 20, 60);
        let r2 = ctl.tick().unwrap().expect("share shift rebalances").clone();
        assert!(r2.total_size <= global_budget);
        let t1_after = alloc(&r2, 1);
        assert!(
            t1_after > t1_before,
            "spiking tenant must gain budget: {t1_before} -> {t1_after}"
        );
        assert!(
            alloc(&r2, 0) < alloc(&r1, 0),
            "the cooling tenant must cede budget"
        );
        // published epochs moved the spiking tenant forward
        assert!(sharded.tenant(TenantId(1)).unwrap().epoch() >= 1);
    }

    /// A tenant that goes idle keeps serving its standing allocation;
    /// the next rebalance must charge that allocation against the global
    /// budget, so the fleet-wide materialized size never exceeds it.
    #[test]
    fn fleet_reserves_idle_tenants_allocation() {
        let sharded = two_tenant_fleet();
        let global_budget = 48;
        let mut ctl = FleetController::new(
            &sharded,
            LifecycleConfig::new(global_budget).with_min_window(32),
        );
        let fleet_size = |sharded: &ShardedServingEngine<'_>| -> u64 {
            sharded
                .tenants()
                .into_iter()
                .map(|(_, e)| e.materialization().total_size())
                .sum()
        };

        // window 1: both tenants active, both allocated
        serve_split(&sharded, 40, 40);
        ctl.tick().unwrap().expect("first window rebalances");
        let idle_alloc = sharded
            .tenant(TenantId(1))
            .unwrap()
            .materialization()
            .total_size();
        assert!(idle_alloc > 0, "test premise: tenant 1 got an allocation");
        assert!(fleet_size(&sharded) <= global_budget);

        // window 2: tenant 1 goes fully idle; the share shift rebalances
        // tenant 0 only — tenant 1's standing allocation is reserved
        serve_split(&sharded, 80, 0);
        let r2 = ctl.tick().unwrap().expect("share shift rebalances").clone();
        assert!(
            r2.allocations.iter().all(|a| a.tenant == TenantId(0)),
            "only the active tenant is re-allocated"
        );
        assert!(r2.total_size <= global_budget);
        assert!(
            fleet_size(&sharded) <= global_budget,
            "idle tenant's standing allocation must count against the budget: \
             fleet {} > budget {global_budget}",
            fleet_size(&sharded)
        );
        assert_eq!(
            sharded
                .tenant(TenantId(1))
                .unwrap()
                .materialization()
                .total_size(),
            idle_alloc,
            "the idle tenant's allocation must be untouched"
        );
    }

    /// The same invariant under paging: a tenant that was allocated, went
    /// idle and was paged out still serves that allocation once it faults
    /// back in, so later rebalances must keep charging it — with one
    /// resident slot the controller only ever sees the tenant being served.
    #[test]
    fn fleet_reserves_paged_out_tenants_allocation() {
        let dir = std::env::temp_dir().join(format!("peanut-fleet-paged-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ShardConfig::default().with_workers(1).with_max_resident(1);
        let mut sharded = ShardedServingEngine::new(cfg);
        sharded.set_store(peanut_store::StoreConfig::new(&dir));
        for (t, seed) in [13, 29, 31].into_iter().enumerate() {
            sharded
                .register(
                    TenantId(t as u32),
                    chain_engine(18, seed),
                    Materialization::default(),
                )
                .unwrap();
        }
        let global_budget = 48;
        let mut ctl = FleetController::new(
            &sharded,
            LifecycleConfig::new(global_budget).with_min_window(32),
        );

        // one window per tenant, in turn: serving the next tenant pages
        // the previous one out before the controller ticks
        let pool = pair_queries(0, 18, 7);
        let mut allocated = Vec::new();
        for t in 0..3u32 {
            let batch: Vec<_> = pool
                .iter()
                .cycle()
                .take(40)
                .map(|q| (TenantId(t), q.clone()))
                .collect();
            let (answers, _) = sharded.serve_mixed(&batch);
            assert!(answers.iter().all(ServeOutcome::is_served));
            assert_eq!(sharded.resident_len(), 1);
            let r = ctl.tick().unwrap().expect("share shift rebalances");
            assert!(
                r.allocations.iter().all(|a| a.tenant == TenantId(t)),
                "only the resident tenant is re-allocated"
            );
            assert!(r.total_size <= global_budget);
            allocated.push(r.allocations.iter().map(|a| a.budget_used).sum::<Size>());
        }
        assert!(
            allocated[0] > global_budget / 3,
            "test premise: one tenant's appetite contends for the budget: {allocated:?}"
        );

        // what the fleet serves once everyone has faulted back in
        let served: Vec<Size> = (0..3u32)
            .map(|t| {
                let tenant = sharded.tenant(TenantId(t)).expect("faults in");
                tenant.materialization().total_size()
            })
            .collect();
        assert_eq!(served, allocated, "paging must not change an allocation");
        assert!(
            served.iter().sum::<Size>() <= global_budget,
            "paged-out tenants' allocations must count against the budget: \
             fleet {served:?} > budget {global_budget}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Evidence-aware selection: identical logical traffic recorded
    /// through the per-query conditional path (joint `targets ∪ evidence`
    /// scopes) versus through an evidence session (scopes restricted to
    /// the targets) trains the re-selection on *different* observed
    /// distributions — and the offline DP picks a different shortcut set.
    #[test]
    fn evidence_sessions_change_reselection() {
        let serving = ServingEngine::new(
            chain_engine(20, 13),
            Materialization::default(),
            ServingConfig::default().with_workers(1),
        );
        let evidence = vec![(Var(19), 1u32)];
        let targets: Vec<Scope> = (0..10u32)
            .map(|a| Scope::from_indices(&[a, a + 5]))
            .collect();

        // (a) per-query conditional path: every arrival re-attaches the
        // evidence, so the recorded scope is the joint over the Steiner
        // tree reaching the evidence variable
        let conds: Vec<ServeRequest> = targets
            .iter()
            .map(|t| ServeRequest::new(t.clone(), evidence.clone()))
            .collect();
        for _ in 0..8 {
            let (answers, _) = serving.serve_batch(&conds);
            assert!(answers.iter().all(ServeOutcome::is_served));
        }
        let joint_counts = serving.stats().scope_counts();
        assert!(
            joint_counts.iter().all(|(s, _)| s.contains(Var(19))),
            "test premise: every conditional ran on a joint reaching the evidence"
        );
        let joint_w = serving.stats().observed_workload();
        serving.reset_stats();

        // (b) session path: the evidence is pinned once and the recorded
        // scopes are the bare targets under the restricted distribution
        let session = serving.open_session(evidence).unwrap();
        for _ in 0..8 {
            let (answers, _) = session.serve_batch(&targets);
            assert!(answers.iter().all(ServeOutcome::is_served));
        }
        drop(session);
        let restricted_counts = serving.stats().scope_counts();
        assert_eq!(
            restricted_counts,
            targets.iter().map(|t| (t.clone(), 8)).collect::<Vec<_>>(),
            "test premise: the session served the bare targets, each batch once"
        );
        let restricted_w = serving.stats().observed_workload();

        assert_ne!(
            joint_counts, restricted_counts,
            "the two serving paths must observe different distributions"
        );

        // same budget, same engine, same DP — only the observed
        // distribution differs, and the chosen shortcut set moves with it
        let exec = serving.offline_exec();
        let mat_joint = reselect(serving.engine(), &joint_w, 512, exec).unwrap();
        let mat_restricted = reselect(serving.engine(), &restricted_w, 512, exec).unwrap();
        assert!(
            !mat_joint.is_empty() || !mat_restricted.is_empty(),
            "test premise: at least one distribution selects shortcuts"
        );
        assert_ne!(
            fingerprint(&mat_joint),
            fingerprint(&mat_restricted),
            "evidence-aware recording must change the selected shortcut set"
        );
    }

    /// A steady fleet (shares stable, no decay) must not rebalance again.
    #[test]
    fn fleet_holds_when_stable() {
        let sharded = fleet_of(vec![chain_engine(16, 13)]);
        let mut ctl = FleetController::new(&sharded, LifecycleConfig::new(512).with_min_window(32));
        let pool = pair_queries(0, 16, 6);
        let batch: Vec<(TenantId, ServeRequest)> =
            pool.iter().map(|q| (TenantId(0), q.clone())).collect();
        for _ in 0..4 {
            sharded.serve_mixed(&batch);
        }
        assert!(ctl.tick().unwrap().is_some(), "cold start rebalances");
        let epoch_after_first = sharded.tenant(TenantId(0)).unwrap().epoch();
        for _ in 0..8 {
            sharded.serve_mixed(&batch);
            let _ = ctl.tick().unwrap();
        }
        assert_eq!(
            sharded.tenant(TenantId(0)).unwrap().epoch(),
            epoch_after_first,
            "stable traffic must not republish"
        );
        assert_eq!(ctl.rebalances().len(), 1);
    }

    /// The share shift joins the two windows by tenant id: paging changes
    /// the resident set between ticks, and a positional comparison would
    /// read a swapped-in tenant as no movement at all.
    #[test]
    fn share_shift_joins_tenants_by_id() {
        let t = |id: u32, share: f64| (TenantId(id), share);
        // equal sets: the positional L1
        let l1 = share_l1(&[t(0, 0.75), t(1, 0.25)], &[t(0, 0.25), t(1, 0.75)]);
        assert_eq!(l1, 1.0);
        assert_eq!(
            share_l1(&[t(0, 0.5), t(1, 0.5)], &[t(0, 0.5), t(1, 0.5)]),
            0.0
        );
        // tenant 0 paged out, tenant 2 paged in: half the traffic moved
        // out and half moved in (positionally: 0)
        assert_eq!(
            share_l1(&[t(0, 0.5), t(1, 0.5)], &[t(1, 0.5), t(2, 0.5)]),
            1.0
        );
        // a shrunken resident set: the leaver's share counts too
        let l1 = share_l1(
            &[t(0, 0.25), t(1, 0.25), t(2, 0.5)],
            &[t(0, 0.5), t(1, 0.5)],
        );
        assert_eq!(l1, 1.0);
        assert_eq!(share_l1(&[t(1, 1.0)], &[t(0, 0.5), t(1, 0.5)]), 1.0);
    }
}
