//! # peanut-bench
//!
//! The reproduction harness: the `repro` binary holds one experiment per
//! paper table/figure (`src/bin/repro/<name>.rs`) over the shared plumbing
//! in [`harness`]. `repro <name>` prints one experiment, `repro --list`
//! names them, and a bare `repro` runs them all into `results/<name>.txt`.
//!
//! | experiment | reproduces |
//! |----------|------------|
//! | `table1` | Table 1 — Bayesian-network summary statistics |
//! | `table2` | Table 2 — junction-tree summary statistics |
//! | `table3` | Table 3 — offline running times (PEANUT / PEANUT+ / INDSEP) |
//! | `table4` | Table 4 — materialization phase: disk space and time |
//! | `fig3`   | Figure 3 — running time vs operation count (Pearson r) |
//! | `fig4`   | Figure 4 — actual vs target budget across ε |
//! | `fig5`   | Figure 5 — cost-savings distribution vs materialized budget |
//! | `fig6`   | Figure 6 — savings vs Steiner-tree diameter |
//! | `fig7`   | Figure 7 — per-method average query cost (uniform workload) |
//! | `fig8`   | Figure 8 — robustness to drift (skewed-trained) |
//! | `fig9`   | Figure 9 — robustness to drift (uniform-trained) |
//! | `fig10`  | Figure 10 — impact of the query-log size |
//! | `ablation` | beyond the paper — workload-awareness and ε ablations |
//! | `pivot_study` | beyond the paper (§6 future work) — sensitivity to the pivot |
//! | `ledger` | beyond the paper — exact work counts of two serving shapes (`LEDGER.json`) |
//!
//! The paper experiments are operation counts on the symbolic engine
//! (`fig3` alone runs numeric queries). `ledger` alone drives the serving
//! stack and the store, counting what they do and timing nothing. What a
//! serving phase *costs* is timed by the repository benchmark
//! (`benchmark/`); what the serving stack *claims* is asserted exactly by
//! tier-1 tests in `crates/serving` (README, "Acceptance ratios").

pub mod harness;
