//! The materialization lifecycle: drift-aware hot re-materialization.
//!
//! The offline phase optimizes a materialization for the *training*
//! workload (Def. 3.3); the paper's robustness experiments (§5.3,
//! Figures 8–9) show the benefit eroding as served traffic drifts away
//! from that distribution. A [`RematerializationController`] closes the
//! loop at serving time:
//!
//! 1. it watches the current epoch's [`WorkloadStats`] (fed by the serve
//!    pipeline) across a **ring of observation windows**, comparing the
//!    *observed* benefit against the *reference* — the savings the
//!    selection promised on its training distribution. A swap needs the
//!    most recent window (short horizon) *and* the whole ring's aggregate
//!    (long horizon) to decay, so a one-window blip never triggers one;
//! 2. below half of the reference, it re-runs the offline selection
//!    (PEANUT+ at the paper's ε = 1.2) on the **observed** distribution
//!    accumulated over the ring (scope counts through
//!    [`Workload::from_counts`]) on the controller's thread, while serving
//!    keeps draining batches;
//! 3. if the new artifact's expected benefit on the observed distribution
//!    beats what the stale epoch delivers, it
//!    [`publish`](ServingEngine::publish)es the new epoch: one exchange of
//!    the whole epoch state, no serving pause, a fresh answer cache.
//!
//! A [`FleetController`] runs the same rule per tenant of a
//! [`ShardedServingEngine`], with savings read in **traffic units**: a
//! window's observed savings × the tenant's share of the fleet arrivals
//! that closed it, against share × expected savings at the last
//! selection. An engine's share is exactly 1; a tenant whose share halves
//! decays, which is what rebalances the fleet when another tenant's
//! traffic spikes. When any ring is due, one **global** budget is split
//! across the tenants by a greedy knapsack over their candidate shortcut
//! sets, each priced with the cost model ([`expected_ops`]) on the
//! tenant's observed distribution and weighted by its traffic share.
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
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// Savings at or below this are "no benefit": a ring whose reference is
/// under the floor is not drift-checked (nothing to decay), and a
/// selection must promise more to be published or allocated.
const MIN_SAVINGS: f64 = 0.01;
/// A ring has decayed when the observed savings drop below this fraction
/// of the savings its last selection promised.
const DECAY_THRESHOLD: f64 = 0.5;
/// Closed windows a ring keeps (short- vs long-horizon comparison).
const WINDOW_RING: usize = 3;

/// What a lifecycle controller is told: how much traffic a decision needs
/// and how much space a selection may use. Everything else — PEANUT+ at
/// ε = 1.2, a ring of three windows, a swap at half the promised benefit —
/// is fixed.
#[derive(Clone, Debug)]
pub struct LifecycleConfig {
    /// Arrivals an observation window must hold before a decision is
    /// taken (at least one): per engine for a
    /// [`RematerializationController`] (a forever-cumulative average would
    /// dilute a drift signal with pre-drift history), summed over the
    /// tenants for a [`FleetController`].
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
/// `exec`, the serving pool's re-materialization lane, where serving-lane
/// waves preempt it between tasks: a re-selection stretches instead of
/// stalling the query path. The chosen tables are built together on the
/// calling thread, sharing the messages their regions have in common.
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

/// The one decision rule of both controllers, held once per engine and
/// once per fleet tenant: a ring of the last [`WINDOW_RING`] closed
/// windows judged in traffic units (module doc) against the last
/// selection's reference, a cold start, and a backoff after declines.
#[derive(Default)]
struct DecayRing {
    /// Closed windows, oldest first: the retired accumulator (in-flight
    /// stragglers may still top it up; the ring only needs window-scale
    /// accuracy), its arrivals, and the arrivals that closed it — its own
    /// for an engine, the whole fleet's for a tenant.
    ring: VecDeque<(Arc<WorkloadStats>, u64, u64)>,
    /// Traffic share × expected savings at the last selection.
    reference: f64,
    /// Windows closed so far (decisions taken, re-selections or not).
    windows: u64,
    /// Consecutive re-selections that produced nothing publishable.
    declined: u32,
    /// Due windows to sit out before re-selecting again (linear backoff:
    /// unhelpable traffic must not re-run the offline DP every window).
    backoff: u32,
}

impl DecayRing {
    /// Closes a window that held `arrivals` of the `closed_by` that filled
    /// it. A re-selection is due when the window (short horizon) and the
    /// full ring's aggregate (long horizon) have both decayed — one
    /// anomalous window moves the aggregate too little — or, with no
    /// reference to protect, when the window saw traffic and `cold` (an
    /// empty materialization, or a fleet that never rebalanced). Returns
    /// the ring aggregate when one is due and no backoff sits it out.
    fn close(
        &mut self,
        stats: Arc<WorkloadStats>,
        arrivals: u64,
        closed_by: u64,
        cold: bool,
    ) -> Option<StatsSnapshot> {
        self.windows += 1;
        let short = stats.snapshot().observed_savings() * (arrivals as f64 / closed_by as f64);
        self.ring.push_back((stats, arrivals, closed_by));
        if self.ring.len() > WINDOW_RING {
            self.ring.pop_front();
        }
        let (long, share) = self.long();
        let threshold = DECAY_THRESHOLD * self.reference;
        let has_reference = self.reference > MIN_SAVINGS;
        let short_decayed = has_reference && short < threshold;
        let decayed = short_decayed
            && self.ring.len() == WINDOW_RING
            && long.observed_savings() * share < threshold;
        let cold_start = cold && arrivals > 0 && !has_reference;
        if !decayed && !cold_start {
            if !short_decayed {
                // a healthy window clears any decline backoff: if traffic
                // shifts again, the next decay deserves a fresh attempt
                self.declined = 0;
                self.backoff = 0;
            }
            return None;
        }
        if self.backoff > 0 {
            // recent re-selections found nothing publishable for traffic
            // like this; sit this window out instead of re-running the
            // offline DP on what is almost surely the same distribution
            self.backoff -= 1;
            return None;
        }
        Some(long)
    }

    /// Aggregate counters over the ring (long horizon) and the ring's
    /// share of the arrivals that closed its windows.
    fn long(&self) -> (StatsSnapshot, f64) {
        let (mut agg, mut arrivals, mut closed_by) = (StatsSnapshot::default(), 0u64, 0u64);
        for (stats, n, of) in &self.ring {
            agg += stats.snapshot();
            (arrivals, closed_by) = (arrivals + n, closed_by + of);
        }
        (agg, arrivals as f64 / closed_by as f64)
    }

    /// The observed workload accumulated over the whole ring: per-scope
    /// arrival counts of every closed window, merged — the distribution a
    /// re-selection trains on.
    fn workload(&self) -> Workload {
        Workload::from_counts(self.ring.iter().flat_map(|(w, ..)| w.scope_counts()))
    }

    /// A re-selection found nothing publishable: back off linearly.
    fn decline(&mut self) {
        self.declined += 1;
        self.backoff = self.declined.min(16);
    }

    /// A selection now serves `reference` (traffic units); the windows
    /// before it describe what it replaced, so drift detection starts over
    /// from its own observations.
    fn select(&mut self, reference: f64) {
        self.reference = reference;
        self.declined = 0;
        self.backoff = 0;
        self.ring.clear();
    }
}

/// Watches a [`ServingEngine`]'s observed benefit and hot-swaps the
/// materialization when the workload drifts.
pub struct RematerializationController<'s, 't> {
    serving: &'s ServingEngine<'t>,
    cfg: LifecycleConfig,
    /// The engine's decision; its share of its own arrivals is always 1.
    decay: DecayRing,
    swaps: Vec<SwapEvent>,
}

impl<'s, 't> RematerializationController<'s, 't> {
    /// Wraps a serving engine. `training` is the workload the *current*
    /// materialization was selected on; its expected savings become the
    /// reference the observed benefit is compared against.
    pub fn new(serving: &'s ServingEngine<'t>, training: &Workload, cfg: LifecycleConfig) -> Self {
        let reference = expected_savings(
            serving.engine(),
            &serving.materialization(),
            &workload_entries(training),
        );
        let decay = DecayRing {
            reference,
            ..DecayRing::default()
        };
        RematerializationController {
            serving,
            cfg,
            decay,
            swaps: Vec::new(),
        }
    }

    /// The reference savings the current epoch is held against.
    pub fn reference_savings(&self) -> f64 {
        self.decay.reference
    }

    /// Every swap published so far.
    pub fn swaps(&self) -> &[SwapEvent] {
        &self.swaps
    }

    /// Observation windows closed so far (every decision, swap or not).
    pub fn windows(&self) -> u64 {
        self.decay.windows
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
        let arrivals = self.serving.stats().snapshot().queries;
        if arrivals < self.cfg.min_window.max(1) {
            return Ok(None);
        }
        // the window closes either way: detection must judge recent
        // traffic, not a forever average diluted by old regimes
        let cold = self.serving.materialization().is_empty();
        let retired = self.serving.reset_stats();
        let Some(long_snap) = self.decay.close(retired, arrivals, arrivals, cold) else {
            return Ok(None);
        };
        let long = long_snap.observed_savings();

        // Re-select on the distribution observed across the ring (never
        // empty: its latest window holds arrivals) — off the serving path:
        // batches keep draining on other threads while the DP runs here.
        let observed_workload = self.decay.workload();
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
            self.decay.decline();
            return Ok(None);
        }
        let (shortcuts, total_size) = (mat.len(), mat.total_size());
        let epoch = self.serving.publish(mat);
        let event = SwapEvent {
            epoch,
            at_arrivals: long_snap.queries,
            observed_savings: long,
            reference_savings: self.decay.reference,
            new_reference_savings: new_reference,
            distinct_scopes: observed_workload.len(),
            shortcuts,
            total_size,
            selection,
        };
        self.decay.select(new_reference);
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

// --- Fleet-level lifecycle: one global budget across all tenants ---

/// One tenant's share of a fleet rebalance.
#[derive(Clone, Debug)]
pub struct TenantAllocation {
    /// The tenant.
    pub tenant: TenantId,
    /// Its share of fleet arrivals over the windows it was selected on.
    pub share: f64,
    /// Shortcut potentials allocated to it.
    pub shortcuts: usize,
    /// Table entries of its allocation (its slice of the global budget).
    pub budget_used: Size,
    /// Expected savings of the allocation on the tenant's observed
    /// distribution (times `share`, the tenant's new reference).
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
    /// allocations of tenants that saw no traffic since their last one.
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
/// come in fleet-wide and some tenant's ring is due.
pub struct FleetController<'s, 't> {
    sharded: &'s ShardedServingEngine<'t>,
    cfg: LifecycleConfig,
    /// Each tenant's decision, and the table entries its materialization
    /// held when a tick last saw it resident — what a paged-out tenant
    /// still serves from the store, and owes the global budget.
    tenants: BTreeMap<TenantId, (DecayRing, Size)>,
    rebalances: Vec<FleetRebalance>,
}

impl<'s, 't> FleetController<'s, 't> {
    /// Wraps a sharded engine. Tenants' current materializations are
    /// treated as unreferenced (the first filled window always
    /// rebalances), which doubles as the fleet's cold start.
    pub fn new(sharded: &'s ShardedServingEngine<'t>, cfg: LifecycleConfig) -> Self {
        FleetController {
            sharded,
            cfg,
            tenants: BTreeMap::new(),
            rebalances: Vec::new(),
        }
    }

    /// Every rebalance taken so far.
    pub fn rebalances(&self) -> &[FleetRebalance] {
        &self.rebalances
    }

    /// One fleet decision round. When the fleet-wide window has filled,
    /// every resident tenant closes its window into its ring. When any
    /// ring is due, generate per-tenant candidate shortcut sets at the full
    /// global budget, split the budget with a greedy knapsack on weighted
    /// benefit per entry, and publish every tenant whose allocation
    /// changed. An empty allocation counts as a declined re-selection.
    ///
    /// Deterministic: tenants are visited in registry order and every
    /// decision depends only on recorded arrivals and configuration.
    pub fn tick(&mut self) -> Result<Option<&FleetRebalance>, PgmError> {
        // resident tenants only, registry order: a paged-out tenant's window
        // is parked with its epoch, and its arrivals count at the first tick
        // that finds it resident again; until then it keeps the allocation
        // remembered for it
        let resident = self.sharded.tenants();
        let mut arrivals = Vec::with_capacity(resident.len());
        for (id, eng) in &resident {
            arrivals.push(eng.stats().snapshot().queries);
            self.tenants.entry(*id).or_default().1 = eng.materialization().total_size();
        }
        let total: u64 = arrivals.iter().sum();
        if total < self.cfg.min_window.max(1) {
            return Ok(None);
        }
        let first = self.rebalances.is_empty();
        let mut due = false;
        for ((id, eng), &n) in resident.iter().zip(&arrivals) {
            let ring = &mut self.tenants.get_mut(id).expect("entered above").0;
            let cold = first || eng.materialization().is_empty();
            due |= ring.close(eng.reset_stats(), n, total, cold).is_some();
        }
        if !due {
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
        for (id, eng) in &resident {
            let ring = &mut self.tenants.get_mut(id).expect("entered above").0;
            let observed = ring.workload();
            if observed.is_empty() {
                // no traffic since its last selection: a share of 0 has
                // nothing to decay, and its standing allocation stays
                ring.select(0.0);
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
                share: ring.long().1,
                entries,
                pool: cand_mat.shortcuts,
                overlapping: cand_mat.overlapping,
                selected: Vec::new(),
                // nothing selected yet: the tenant answers on the plain tree
                current_ops: base_ops,
                base_ops,
            });
        }

        // Tenants without candidates — idle or paged out — keep serving
        // whatever they were last allocated; that standing allocation is
        // charged against the global budget up front, so the knapsack only
        // spends what is actually free fleet-wide.
        let reserved: Size = self
            .tenants
            .iter()
            .filter(|(id, _)| !candidates.iter().any(|c| c.tenant == **id))
            .fold(0u64, |a, (_, &(_, size))| a.saturating_add(size));

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
            // keep the online phase's invariant: decreasing ratio order
            shortcuts.sort_by(|a, b| b.ratio.total_cmp(&a.ratio));
            let mut mat = Materialization::new(shortcuts, c.overlapping);
            if savings <= MIN_SAVINGS {
                // sub-floor benefit is "no benefit": the tenant keeps an
                // empty allocation and its entries return to the pool
                // (spendable at the *next* rebalance)
                used = used.saturating_sub(mat.total_size());
                mat = Materialization::new(Vec::new(), c.overlapping);
                savings = 0.0;
            }
            let (ring, allocated) = self.tenants.get_mut(&c.tenant).expect("entered above");
            *allocated = mat.total_size();
            if mat.is_empty() {
                // nothing worth its entries: a decline, as for an engine
                ring.decline();
            } else {
                ring.select(c.share * savings);
            }
            allocations.push(TenantAllocation {
                tenant: c.tenant,
                share: c.share,
                shortcuts: mat.len(),
                budget_used: mat.total_size(),
                expected_savings: savings,
                published: (fingerprint(&mat) != fingerprint(&c.engine.materialization()))
                    .then(|| c.engine.publish(mat)),
            });
        }
        self.rebalances.push(FleetRebalance {
            at_arrivals: total,
            total_size: used,
            allocations,
            selection: t0.elapsed(),
        });
        Ok(self.rebalances.last())
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

        // phase 2: tenant 1 spikes to 75% — its share more than doubles,
        // and tenant 0's ring decays once the spike fills it
        let r2 = (0..WINDOW_RING)
            .find_map(|_| {
                serve_split(&sharded, 20, 60);
                ctl.tick().unwrap().cloned()
            })
            .expect("share shift rebalances");
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

        // windows 2..: tenant 1 goes fully idle; once its ring decays the
        // fleet rebalances tenant 0 only — tenant 1's standing allocation
        // is reserved
        let r2 = (0..WINDOW_RING)
            .find_map(|_| {
                serve_split(&sharded, 80, 0);
                ctl.tick().unwrap().cloned()
            })
            .expect("share shift rebalances");
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

    /// With `min_window` 0 an idle engine still closes no window: an
    /// empty window would take a ring slot from real traffic.
    #[test]
    fn idle_engine_closes_no_window_at_min_window_zero() {
        let serving = ServingEngine::new(
            chain_engine(8, 13),
            Materialization::default(),
            ServingConfig::default().with_workers(1),
        );
        let mut ctl = RematerializationController::new(
            &serving,
            &Workload::default(),
            LifecycleConfig::new(64).with_min_window(0),
        );
        for _ in 0..4 {
            assert!(ctl.tick().unwrap().is_none());
        }
        assert_eq!(ctl.windows(), 0);
    }

    /// The fleet's ring: one spiked window between steady ones moves
    /// every tenant's share but decays no ring's long horizon, so nothing
    /// is rebalanced or republished.
    #[test]
    fn fleet_one_window_blip_does_not_rebalance() {
        let sharded = two_tenant_fleet();
        let mut ctl = FleetController::new(&sharded, LifecycleConfig::new(192).with_min_window(64));
        serve_split(&sharded, 40, 40);
        ctl.tick().unwrap().expect("first window rebalances");
        let epochs = |s: &ShardedServingEngine<'_>| -> Vec<u64> {
            s.tenants().iter().map(|(_, e)| e.epoch()).collect()
        };
        let before = epochs(&sharded);
        for split in [(40, 40), (40, 40), (10, 70), (40, 40), (40, 40), (40, 40)] {
            serve_split(&sharded, split.0, split.1);
            assert!(
                ctl.tick().unwrap().is_none(),
                "{split:?} must not rebalance"
            );
        }
        assert_eq!(ctl.rebalances().len(), 1);
        assert_eq!(epochs(&sharded), before, "a blip must not republish");
    }

    /// The fleet version of `controller_declines_unhelpable_traffic`: a
    /// tenant whose allocation comes out empty is a declined re-selection,
    /// retried with the engine's linear backoff, never published.
    #[test]
    fn fleet_declines_unhelpable_traffic() {
        let sharded = fleet_of(vec![chain_engine(14, 13)]);
        let mut ctl = FleetController::new(&sharded, LifecycleConfig::new(512).with_min_window(8));
        // single-variable in-clique queries: cost == baseline, always
        let flat: Vec<(TenantId, ServeRequest)> = (0..14u32)
            .map(|v| {
                (
                    TenantId(0),
                    ServeRequest::marginal(Scope::from_indices(&[v])),
                )
            })
            .collect();
        for _ in 0..12 {
            sharded.serve_mixed(&flat);
            if let Some(r) = ctl.tick().unwrap() {
                assert!(r.allocations.iter().all(|a| a.published.is_none()));
            }
        }
        assert_eq!(ctl.tenants[&TenantId(0)].0.windows, 12);
        // attempts at windows 1, 3, 6 and 10: one more window sat out
        // after each decline
        assert_eq!(ctl.rebalances().len(), 4);
        let tenant = sharded.tenant(TenantId(0)).unwrap();
        assert_eq!(tenant.epoch(), 0);
        assert!(tenant.materialization().is_empty());
    }
}
