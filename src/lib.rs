//! # peanut
//!
//! Umbrella crate of the PEANUT reproduction (*Workload-Aware
//! Materialization of Junction Trees*, EDBT 2022): re-exports the public API
//! of every workspace crate so examples and downstream users need a single
//! dependency.
//!
//! ```
//! use peanut::pgm::fixtures;
//!
//! let bn = fixtures::sprinkler();
//! assert_eq!(bn.n_vars(), 4);
//! ```
//!
//! End to end — build a junction tree, run the paper's offline shortcut
//! selection on a training workload, and serve a batch over the
//! materialized tree:
//!
//! ```
//! use peanut::junction::{build_junction_tree, QueryEngine};
//! use peanut::materialize::{OfflineContext, Peanut, PeanutConfig, Workload};
//! use peanut::pgm::{fixtures, Scope};
//! use peanut::serving::{ServeRequest, ServingConfig, ServingEngine};
//!
//! let bn = fixtures::sprinkler();
//! let tree = build_junction_tree(&bn).unwrap();
//! let engine = QueryEngine::numeric(&tree, &bn).unwrap();
//!
//! // train on the query we are about to serve
//! let train = Scope::from_indices(&[0, 3]);
//! let workload = Workload::from_queries([train.clone()]);
//! let ctx = OfflineContext::new(&tree, &workload).unwrap();
//! let (mat, _report) = Peanut::offline_numeric(
//!     &ctx,
//!     &PeanutConfig::plus(4096),
//!     engine.numeric_state().expect("calibrated"),
//! )
//! .unwrap();
//!
//! let serving = ServingEngine::new(engine, mat, ServingConfig::default());
//! let (answers, _stats) = serving.serve_batch(&[ServeRequest::marginal(train)]);
//! assert!(answers[0].is_served());
//! ```

pub use peanut_core as materialize;
pub use peanut_datasets as datasets;
pub use peanut_indsep as indsep;
pub use peanut_junction as junction;
pub use peanut_pgm as pgm;
pub use peanut_serving as serving;
pub use peanut_store as store;
pub use peanut_ve as ve;
pub use peanut_workload as workload;
