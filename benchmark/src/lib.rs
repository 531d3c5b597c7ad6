#![forbid(unsafe_code)]
//! # peanut-benchmark
//!
//! The repository's benchmark: seven named workloads, absolute end-to-end
//! metrics, and a traced run that attributes time to each layer
//! (`pgm`, `junction`, `core`, `serving`, `store`). It lives outside the
//! repository's workspace and measures every layer **from outside**, by
//! timing calls into public functions; it claims no gain — it is the
//! instrument later claims are measured with. See `README.md` for the
//! metric tables, the workload rationale and how to read the output.
//!
//! Layout:
//!
//! * [`spec`] — the single registry of workload and metric names, units,
//!   directions and bounds (`--list` prints it; a test pins it to
//!   `BENCHMARK.json`);
//! * [`gen`] — seed → inputs (requests, arrival schedules); the program
//!   under test only ever sees these generated values;
//! * [`fixture`] — the timed set-up stages shared by the workloads
//!   (network → junction tree → calibration → offline selection);
//! * [`oracle`] — the correctness gate (variable elimination);
//! * [`trace`] — in-memory spans and self-time attribution;
//! * [`workloads`] — one module per workload family;
//! * [`micro`] — workload-independent layer probes (lane kernels vs the
//!   stream roofline, pool waves, store codec, the paper's ops-saved
//!   table);
//! * [`runner`] — repetition, aggregation, and the result line;
//! * [`steady`] — keeps a single-threaded timed phase on the quieter vCPU.

pub mod fixture;
pub mod gen;
pub mod micro;
pub mod oracle;
pub mod runner;
pub mod spec;
pub mod stats;
pub mod steady;
pub mod trace;
pub mod workloads;
