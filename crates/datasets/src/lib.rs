//! # peanut-datasets
//!
//! Synthetic stand-ins for the paper's eight benchmark Bayesian networks.
//!
//! The original model files (bnlearn repository + the TPC-H network of
//! Tzoumas et al.) are not available in this offline environment, so — the
//! first of the "Deviations from the paper" in `ARCHITECTURE.md` — each
//! dataset is generated by
//! the locality-window DAG generator of `peanut-pgm`, parameterized to match
//! the paper's Table 1 (nodes, edges, max in-degree, ≈ parameter count) and
//! tuned so the resulting junction trees land near Table 2 (cliques,
//! diameter, treewidth). Every generator is seeded and deterministic.
//!
//! What the PEANUT/INDSEP/VE computations consume is the junction-tree
//! *shape* — clique/separator scopes and cardinalities — not the numeric CPT
//! entries, so matching these statistics exercises the same code paths and
//! cost regimes as the originals.

pub mod spec;

pub use spec::{all_datasets, dataset, DatasetSpec, PaperStats};
