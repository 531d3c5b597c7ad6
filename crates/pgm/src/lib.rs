//! # peanut-pgm
//!
//! Discrete probabilistic-graphical-model substrate for the PEANUT
//! reproduction (Ciaperoni et al., *Workload-Aware Materialization of
//! Junction Trees*, EDBT 2022).
//!
//! This crate provides everything the junction-tree and materialization
//! layers depend on:
//!
//! * [`Var`], [`Domain`], [`Scope`] — typed variables, cardinalities, and
//!   sorted variable sets with merge-join set algebra;
//! * [`Potential`] — dense factor tables over a scope with product,
//!   marginalization, division, normalization and evidence restriction;
//! * [`table_size`] — the *symbolic* size of a table over a scope, used by
//!   the size-only (uncalibrated) evaluation mode that mirrors how the paper
//!   handles TPC-H, Munin and Barley;
//! * [`BayesianNetwork`] — a directed acyclic model with one CPT per
//!   variable, validation, topological utilities and ancestral sampling;
//! * [`joint`] — brute-force joint/marginal computation used as the test
//!   oracle throughout the workspace;
//! * [`generate`] — seeded random-network generators (locality-window DAGs)
//!   that the `peanut-datasets` crate parameterizes to match the paper's
//!   Table 1 statistics;
//! * [`fixtures`] — small hand-built networks, including the running example
//!   of the paper's Figure 1;
//! * [`io`] — plain-text model serialization, so users can export the
//!   synthetic datasets or import their own networks;
//! * [`memo`] — the one bounded, never-evicting cache every memo of the
//!   workspace holds ([`ExactMemo`]), and [`Work`], what one answer's pass
//!   executed.

#[cfg(test)]
mod difftests;
pub mod domain;
pub mod error;
pub mod fixtures;
pub mod generate;
pub mod io;
pub mod joint;
mod lanes;
pub mod memo;
pub mod network;
pub mod potential;
pub mod sampling;
pub mod scope;
pub mod var;

pub use domain::Domain;
pub use error::PgmError;
pub use memo::{ExactMemo, MemoUsage, Work};
pub use network::{BayesianNetwork, NetworkBuilder};
pub use potential::{
    div_assign_bcast, divide_views, mul_assign_bcast, product_marginalize_views, product_onto,
    table_size, Potential, Scratch, Size, TableRef,
};
pub use scope::Scope;
pub use var::Var;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, PgmError>;
