//! # peanut-junction
//!
//! Junction-tree substrate for the PEANUT reproduction: everything between a
//! [`BayesianNetwork`](peanut_pgm::BayesianNetwork) and an answered
//! inference query.
//!
//! Pipeline (paper §3.1):
//!
//! 1. [`moral`] — moralization (marry parents, drop directions);
//! 2. [`triangulate`] — min-fill elimination, fill-in edges, maximal cliques;
//! 3. [`tree`] — clique-graph formation and maximum-spanning-tree extraction
//!    (Kruskal), separators, running-intersection validation;
//! 4. [`build`] — factor assignment and end-to-end construction;
//! 5. [`calibrate`] — Hugin two-phase calibration so that clique potentials
//!    coincide with joint marginals;
//! 6. [`steiner`] / [`reduced`] / [`query`] — Steiner-tree extraction for
//!    out-of-clique queries and message passing toward the pivot, in both
//!    *numeric* (dense tables) and *symbolic* (operation counts only) modes.
//!
//! The symbolic mode mirrors how the paper evaluates TPC-H, Munin and Barley,
//! whose calibration is infeasible: all comparison metrics are operation
//! counts, which depend only on scopes and cardinalities.

pub mod arena;
pub mod build;
pub mod calibrate;
pub mod cost;
mod memo;
pub mod moral;
pub mod query;
pub mod reduced;
pub mod rooted;
pub mod steiner;
pub mod tree;
pub mod triangulate;

pub use arena::TreeArena;
pub use build::build_junction_tree;
pub use calibrate::NumericState;
pub use memo::MessageMemo;
pub use query::{QueryEngine, QueryPlan};
pub use reduced::{region_joints, NodeLabel, PassRows, PlanShape, QueryAnatomy, ReducedTree};
pub use rooted::RootedTree;
pub use steiner::SteinerTree;
pub use tree::JunctionTree;
