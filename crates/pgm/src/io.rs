//! Plain-text model serialization (a BIF-inspired format).
//!
//! Lets users export the synthetic benchmark networks and import their own
//! models (e.g. bnlearn networks converted offline). The format is
//! line-oriented and diff-friendly:
//!
//! ```text
//! network my_model
//! variable rain 2
//! variable wet 2
//! cpt rain |
//! 0.8 0.2
//! cpt wet | rain
//! 0.9 0.1
//! 0.2 0.8
//! end
//! ```
//!
//! `cpt <child> | <parents…>` is followed by one row per parent assignment
//! (listed order, last parent varying fastest), each row a distribution over
//! the child's values — the same layout [`NetworkBuilder::cpt`] accepts.

use crate::error::PgmError;
use crate::network::{BayesianNetwork, NetworkBuilder};
use crate::var::Var;
use crate::Result;
use std::io::{BufRead, Write};

/// Serializes a network to the text format.
pub fn write_network<W: Write>(
    bn: &BayesianNetwork,
    name: &str,
    out: &mut W,
) -> std::io::Result<()> {
    writeln!(out, "network {name}")?;
    let d = bn.domain();
    for v in d.all_vars() {
        writeln!(out, "variable {} {}", d.name(v), d.card(v))?;
    }
    for v in d.all_vars() {
        let parents = bn.parents(v);
        let pnames: Vec<&str> = parents.iter().map(|&p| d.name(p)).collect();
        writeln!(out, "cpt {} | {}", d.name(v), pnames.join(" "))?;
        // rows over listed parent order, last fastest; read entries from the
        // sorted-scope potential by assembling full assignments
        let cpt = bn.cpt(v);
        let scope = cpt.scope();
        let child_card = d.card(v);
        let parent_cards: Vec<u32> = parents.iter().map(|&p| d.card(p)).collect();
        let n_rows: usize = parent_cards.iter().product::<u32>().max(1) as usize;
        let mut passign = vec![0u32; parents.len()];
        for _ in 0..n_rows {
            let mut row = Vec::with_capacity(child_card as usize);
            for val in 0..child_card {
                let full: Vec<u32> = scope
                    .iter()
                    .map(|sv| {
                        if sv == v {
                            val
                        } else {
                            let pos = parents.iter().position(|&pp| pp == sv).expect("parent");
                            passign[pos]
                        }
                    })
                    .collect();
                row.push(format!("{}", cpt.get(&full)));
            }
            writeln!(out, "{}", row.join(" "))?;
            for ax in (0..parents.len()).rev() {
                passign[ax] += 1;
                if passign[ax] < parent_cards[ax] {
                    break;
                }
                passign[ax] = 0;
            }
        }
    }
    writeln!(out, "end")
}

/// Parses a network from the text format.
pub fn read_network<R: BufRead>(input: &mut R) -> Result<BayesianNetwork> {
    let mut lines = Vec::new();
    for l in input.lines() {
        let l = l.map_err(|e| PgmError::UnknownName(format!("io error: {e}")))?;
        let t = l.trim().to_string();
        if !t.is_empty() && !t.starts_with('#') {
            lines.push(t);
        }
    }
    let mut it = lines.into_iter().peekable();
    let header = it
        .next()
        .ok_or_else(|| PgmError::UnknownName("empty model file".into()))?;
    if !header.starts_with("network ") {
        return Err(PgmError::UnknownName(format!(
            "expected 'network <name>', got {header:?}"
        )));
    }

    let mut b = NetworkBuilder::new();
    // variables
    while it.peek().is_some_and(|l| l.starts_with("variable ")) {
        let line = it.next().expect("peeked");
        let mut parts = line.split_whitespace();
        let _kw = parts.next();
        let name = parts
            .next()
            .ok_or_else(|| PgmError::UnknownName("variable line missing name".into()))?;
        let card: u32 = parts
            .next()
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| PgmError::UnknownName(format!("bad cardinality on {line:?}")))?;
        b.try_var(name, card)?;
    }
    // CPTs
    loop {
        let Some(line) = it.next() else {
            return Err(PgmError::UnknownName("missing 'end'".into()));
        };
        if line == "end" {
            break;
        }
        let Some(rest) = line.strip_prefix("cpt ") else {
            return Err(PgmError::UnknownName(format!(
                "expected 'cpt', got {line:?}"
            )));
        };
        let (child_name, parent_part) = rest
            .split_once('|')
            .ok_or_else(|| PgmError::UnknownName(format!("cpt line missing '|': {line:?}")))?;
        let child = b.domain().var(child_name.trim())?;
        let parents: Vec<Var> = parent_part
            .split_whitespace()
            .map(|n| b.domain().var(n))
            .collect::<Result<_>>()?;
        // the row count is a product of cardinalities the file chose:
        // never allocate for it, and refuse one the file cannot hold
        let n_rows = b.cpt_rows(child, &parents)?;
        if n_rows > it.len() {
            return Err(PgmError::UnknownName(format!(
                "cpt {child_name}: expected {n_rows} rows"
            )));
        }
        let rows: Vec<Vec<f64>> = it
            .by_ref()
            .take(n_rows)
            .map(|row_line| {
                row_line
                    .split_whitespace()
                    .map(|t| {
                        t.parse::<f64>()
                            .map_err(|_| PgmError::UnknownName(format!("bad number {t:?}")))
                    })
                    .collect()
            })
            .collect::<Result<_>>()?;
        let row_refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        b.cpt(child, &parents, &row_refs)?;
    }
    b.build()
}

/// Saves a network to a file.
pub fn save_to_path(bn: &BayesianNetwork, name: &str, path: &std::path::Path) -> Result<()> {
    let mut f = std::io::BufWriter::new(
        std::fs::File::create(path)
            .map_err(|e| PgmError::UnknownName(format!("create {path:?}: {e}")))?,
    );
    write_network(bn, name, &mut f).map_err(|e| PgmError::UnknownName(format!("write: {e}")))
}

/// Loads a network from a file.
pub fn load_from_path(path: &std::path::Path) -> Result<BayesianNetwork> {
    let f = std::fs::File::open(path)
        .map_err(|e| PgmError::UnknownName(format!("open {path:?}: {e}")))?;
    read_network(&mut std::io::BufReader::new(f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::joint;

    fn round_trip(bn: &BayesianNetwork) -> BayesianNetwork {
        let mut buf = Vec::new();
        write_network(bn, "t", &mut buf).unwrap();
        read_network(&mut std::io::Cursor::new(buf)).unwrap()
    }

    #[test]
    fn round_trips_preserve_distribution() {
        for bn in [
            fixtures::sprinkler(),
            fixtures::asia(),
            fixtures::figure1(),
            fixtures::chain(6, 3, 9),
        ] {
            let back = round_trip(&bn);
            assert_eq!(back.n_vars(), bn.n_vars());
            assert_eq!(back.n_edges(), bn.n_edges());
            let ja = joint::joint_table(&bn).unwrap();
            let jb = joint::joint_table(&back).unwrap();
            assert!(ja.max_abs_diff(&jb).unwrap() < 1e-9);
        }
    }

    #[test]
    fn names_and_cards_preserved() {
        let bn = fixtures::asia();
        let back = round_trip(&bn);
        for v in bn.domain().all_vars() {
            assert_eq!(bn.domain().name(v), back.domain().name(v));
            assert_eq!(bn.domain().card(v), back.domain().card(v));
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n# a comment\nnetwork t\nvariable a 2\n\ncpt a |\n0.25 0.75\nend\n";
        let bn = read_network(&mut std::io::Cursor::new(text)).unwrap();
        assert_eq!(bn.n_vars(), 1);
        assert!((bn.cpt(crate::Var(0)).values()[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn malformed_inputs_rejected() {
        // a row count no file could hold: 4^31 rows from one repeated
        // parent, 4^32 (overflows `usize`), (2^32 - 1)^2 from two variables
        let repeated = |n: usize| {
            format!(
                "network t\nvariable x 2\nvariable p 4\ncpt x | {}\n0.5 0.5\nend",
                "p ".repeat(n)
            )
        };
        let huge_cards = "network t\nvariable a 4294967295\nvariable b 4294967295\n\
                          variable x 2\ncpt x | a b\n0.5 0.5\nend";
        for text in [
            "",                                               // empty
            "nonsense",                                       // bad header
            "network t\nvariable a two\nend",                 // bad cardinality
            "network t\nvariable a 2\ncpt a |\n0.5 0.6\nend", // unnormalized
            "network t\nvariable a 2\ncpt b |\n1 0\nend",     // unknown var
            "network t\nvariable a 2\ncpt a |\nend",          // missing row
            "network t\nvariable a 2\ncpt a |\n0.5 0.5",      // missing end
            &repeated(31),
            &repeated(32),
            huge_cards,
            "network t\nvariable a 2\ncpt a |\nnan nan\nend", // not numbers
            "network t\nvariable a 2\ncpt a |\ninf -inf\nend", // not finite
            "network t\nvariable a 2\ncpt a |\n-0.5 1.5\nend", // sums to 1, negative
        ] {
            assert!(
                read_network(&mut std::io::Cursor::new(text)).is_err(),
                "accepted malformed input {text:?}"
            );
        }
    }

    #[test]
    fn file_round_trip() {
        let bn = fixtures::sprinkler();
        let dir = std::env::temp_dir().join("peanut_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sprinkler.pnet");
        save_to_path(&bn, "sprinkler", &path).unwrap();
        let back = load_from_path(&path).unwrap();
        let ja = joint::joint_table(&bn).unwrap();
        let jb = joint::joint_table(&back).unwrap();
        assert!(ja.max_abs_diff(&jb).unwrap() < 1e-9);
        std::fs::remove_file(&path).ok();
    }
}
