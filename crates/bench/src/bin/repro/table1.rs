//! Table 1 — summary statistics of the Bayesian networks: ours (synthetic,
//! matched by construction) against the paper's originals.

use peanut_bench::harness::Prepared;

pub fn run() {
    println!("Table 1: summary statistics of Bayesian networks (ours vs paper)");
    println!(
        "{:<12} {:>7} {:>7} {:>12} {:>14} {:>10} {:>12}",
        "dataset", "nodes", "edges", "params", "params(paper)", "max-in", "max-in(ppr)"
    );
    for p in Prepared::all() {
        println!(
            "{:<12} {:>7} {:>7} {:>12} {:>14} {:>10} {:>12}",
            p.spec.name,
            p.bn.n_vars(),
            p.bn.n_edges(),
            p.bn.n_parameters(),
            p.spec.paper.parameters,
            p.bn.max_in_degree(),
            p.spec.paper.max_in_degree,
        );
    }
}
