//! # peanut-ve
//!
//! Variable elimination and the **VE-n** baseline: workload-aware
//! materialization for the variable-elimination inference method (Aslay et
//! al., ICDE 2021 — reference \[4\] of the paper).
//!
//! The engine ([`elimination`]) answers joint-probability queries by
//! eliminating non-query variables in min-fill order, with the same
//! operation-count model as the junction-tree engine so that Figure 7's
//! cross-method comparison is apples-to-apples.
//!
//! The baseline ([`materialize`]) selects `n` marginal tables to cache,
//! greedily maximizing expected workload savings. This is a
//! simplification of \[4\]'s dynamic program (listed under "Deviations
//! from the paper" in `ARCHITECTURE.md`): the candidate space (query-covering marginals) and the cost model are the
//! same; only the selection rule is greedy.

pub mod elimination;
pub mod materialize;

pub use elimination::{ve_answer, ve_cost, EliminationRun};
pub use materialize::{VeMaterialization, VeN};
