//! # peanut-indsep
//!
//! The **INDSEP** baseline of Kanagal & Deshpande (SIGMOD 2009), as used in
//! the paper's evaluation: a hierarchical index over the junction tree built
//! by recursive tree partitioning (Kundu–Misra), where every index node
//! materializes the shortcut potential of its subtree — provided it fits the
//! disk-block size.
//!
//! INDSEP is *workload-agnostic*: which potentials exist depends only on the
//! tree structure and the block size. Query processing reuses the shared
//! online engine of `peanut-core` (conflict graph + GWMIN over the — nested,
//! hence overlapping — index shortcuts), so operation counts are strictly
//! comparable with PEANUT/PEANUT+. That is a substitution (listed under
//! "Deviations from the paper" in `ARCHITECTURE.md`): the original is a
//! disk-based recursive processor; the comparison metric, message-passing
//! operations saved by shortcut potentials, is preserved.

pub mod index;
pub mod partition;

pub use index::{build_index, IndexNode, IndsepIndex};
pub use partition::kundu_misra;
