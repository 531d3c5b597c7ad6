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
//! A [`VePlan`] ([`plan`]) is the serving form: pruned to the ancestral
//! set of one query's targets and evidence, planned with an incremental
//! min-degree rule, and run over borrowed CPTs. Evidence sessions answer
//! every target by it, and share the factors of its evidence-free steps
//! through one [`FactorMemo`] per network.
//!
//! The baseline ([`materialize`]) selects `n` marginal tables to cache,
//! greedily maximizing expected workload savings. This is a
//! simplification of \[4\]'s dynamic program (listed under "Deviations
//! from the paper" in `ARCHITECTURE.md`): the candidate space (query-covering marginals) and the cost model are the
//! same; only the selection rule is greedy.

pub mod elimination;
pub mod materialize;
pub mod plan;

pub use elimination::{ve_answer, ve_cost, EliminationRun};
pub use materialize::{VeMaterialization, VeN};
pub use plan::{FactorMemo, Pinned, VePlan};
