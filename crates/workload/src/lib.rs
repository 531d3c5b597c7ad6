//! # peanut-workload
//!
//! Query-workload generation following the paper's §5.1:
//!
//! * **skewed** — variables sampled with probability proportional to their
//!   distance from the junction-tree pivot (deep variables queried more,
//!   producing long Steiner trees);
//! * **uniform** — variables sampled uniformly at random;
//! * **drift** — the λ-mixtures used by the robustness experiments
//!   (Figures 8–9), plus streaming λ-schedules (constant, linear or step
//!   drift over a served query stream) for the re-materialization
//!   lifecycle;
//! * **tenants** — multi-tenant fleet traffic: interleaved per-tenant
//!   streams with Zipf-skewed arrival rates and independent per-tenant
//!   drift schedules, the input of the sharded serving layer;
//! * **replay** — what a replay driver is fed: a finite request pool
//!   (skewed / uniform blend, a fraction evidence-conditioned) sampled with
//!   replacement, and Poisson arrival schedules for open-loop runs.
//!
//! Marginal queries are plain [`peanut_pgm::Scope`]s; evidence-conditioned
//! traffic comes out as typed `peanut_core::ServeRequest`s. Consumers
//! aggregate them into a `peanut_core::Workload` with empirical frequencies.

pub mod drift;
pub mod evidence;
pub mod gen;
pub mod replay;
pub mod tenants;

pub use drift::{drifting_queries, mix, DriftSchedule, DriftStream};
pub use evidence::with_evidence;
pub use gen::{skewed_queries, uniform_queries, QuerySpec};
pub use replay::{poisson_arrivals, workload_queries, WorkloadMix};
pub use tenants::{tenant_queries, zipf_weights, TenantStream, TenantTraffic};
