//! Table 2 — summary statistics of the junction trees: ours against the
//! paper's.

use peanut_bench::harness::Prepared;

pub fn run() {
    println!("Table 2: summary statistics of junction trees (ours vs paper)");
    println!(
        "{:<12} {:>9} {:>12} {:>9} {:>12} {:>10} {:>13}",
        "dataset", "cliques", "cliq(paper)", "diameter", "diam(paper)", "treewidth", "tw(paper)"
    );
    for p in Prepared::all() {
        println!(
            "{:<12} {:>9} {:>12} {:>9} {:>12} {:>10} {:>13}",
            p.spec.name,
            p.tree.n_cliques(),
            p.spec.paper.cliques,
            p.tree.diameter(),
            p.spec.paper.diameter,
            p.tree.treewidth(),
            p.spec.paper.treewidth,
        );
    }
}
