//! # peanut-core
//!
//! The paper's contribution: **workload-aware materialization of junction
//! trees** (PEANUT and PEANUT+, Ciaperoni et al., EDBT 2022).
//!
//! * [`workload`] — query logs with empirical probabilities (Def. 3.3);
//! * [`shortcut`] — shortcut potentials: subtree, cut separators, scope
//!   `X_S`, size `μ(S)`, numeric materialization;
//! * [`context`] — the offline precomputation shared by both DPs: per-query
//!   Steiner covers, per-node benefit contributions, usefulness (Def. 3.1)
//!   and benefit (Defs. 3.2–3.3);
//! * [`grid`] — budget grids: the exact pseudo-polynomial range and the
//!   strongly-polynomial geometric grid `{0, ⌊ε⌋, ⌊ε²⌋, …, K}` (§4.4);
//! * [`lrdp`] — the left-to-right DP for the single-optimal-shortcut problem
//!   SOSP (Algorithms 1–2);
//! * [`budp`] — the bottom-up DP for the multiple-optimal-shortcuts problem
//!   MOSP (Algorithms 3–4);
//! * [`plus`] — PEANUT+: ratio-greedy packing with overlaps (§4.6);
//! * [`gwmin`] — the GWMIN greedy maximum-weight-independent-set routine
//!   used by the PEANUT+ online phase;
//! * [`online`] — the online engine shared by every method: detect useful
//!   shortcuts, shrink the Steiner tree, run (or cost) the reduced tree;
//! * [`peanut`] — the assembled PEANUT / PEANUT+ methods;
//! * [`request`] — [`ServeRequest`], the unified typed serving request
//!   (targets plus pinned evidence) every serving surface converges on;
//! * [`stats`] — runtime workload observation (per-scope arrivals, shortcut
//!   hit rates, observed vs training benefit) feeding the epoch-versioned
//!   serving lifecycle;
//! * [`sync`] — the synchronization facade every concurrent component
//!   imports its primitives from: std-backed normally, swapped for the
//!   vendored `interleave` model-checking shims under the `model-check`
//!   feature.

pub mod budp;
pub mod context;
pub mod exec;
pub mod flat;
pub mod grid;
pub mod gwmin;
pub mod lrdp;
pub mod online;
pub mod peanut;
mod plans;
pub mod plus;
pub mod request;
pub mod shortcut;
pub mod stats;
pub mod sync;
pub mod util;
pub mod workload;

pub use context::OfflineContext;
pub use exec::{Executor, ScopedExecutor, SequentialExecutor};
pub use flat::FlatMaterialization;
pub use grid::BudgetGrid;
pub use online::{Materialization, MaterializedShortcut, OnlineEngine, TracedAnswer};
pub use peanut::{Peanut, PeanutConfig, Variant};
pub use request::{ByHash, PassThrough, ServeRequest};
pub use shortcut::Shortcut;
pub use stats::{StatsSnapshot, WorkloadStats};
pub use workload::Workload;
