//! `pgm::io` fails closed on hostile model files. Each case writes a
//! fixture with `write_network`, then replaces, inserts or drops a few
//! tokens, each drawn from the format's keywords and from numbers at the
//! edges of what a cardinality or a probability can be. `read_network`
//! must never panic: it returns a typed error, or a network that writes
//! back to text that reads back to the same network.

use peanut_pgm::io::{read_network, write_network};
use peanut_pgm::{fixtures, BayesianNetwork, PgmError};
use proptest::prelude::*;

/// Tokens a mutation writes: the format's keywords and separators,
/// variable names the fixtures use, and numbers at the edges.
const TOKENS: &[&str] = &[
    "0",
    "1",
    "2",
    "-1",
    "0.5",
    "1e308",
    "4294967295",
    "4294967296",
    "18446744073709551616",
    "NaN",
    "inf",
    "-inf",
    "|",
    "#",
    "cpt",
    "variable",
    "network",
    "end",
    "x0",
    "x1",
    "asia",
    "a",
];

fn models() -> [BayesianNetwork; 4] {
    [
        fixtures::asia(),
        fixtures::sprinkler(),
        fixtures::figure1(),
        fixtures::chain(4, 3, 7),
    ]
}

fn write(bn: &BayesianNetwork) -> String {
    let mut buf = Vec::new();
    write_network(bn, "fuzzed", &mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

fn read(text: &str) -> Result<BayesianNetwork, PgmError> {
    read_network(&mut std::io::Cursor::new(text))
}

/// Applies one token edit to `lines`: `op` 0 replaces, 1 inserts, 2
/// drops the token at position `at` (taken modulo the tokens there are)
/// with `TOKENS[token]`.
fn edit(lines: &mut [Vec<String>], op: u32, at: u64, token: usize) {
    let line = &mut lines[(at % lines.len() as u64) as usize];
    let pos = (at >> 32) as usize % (line.len() + 1);
    let token = TOKENS[token].to_string();
    match (op, pos < line.len()) {
        (0, true) => line[pos] = token,
        (2, true) => {
            line.remove(pos);
        }
        _ => line.insert(pos, token),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A mutated model file parses to a network that round-trips, or
    /// fails with a typed error; it never panics.
    #[test]
    fn mutated_model_files_fail_closed(
        model in 0usize..4,
        edits in prop::collection::vec((0u32..3, 0u64..u64::MAX, 0usize..TOKENS.len()), 1..4),
    ) {
        let text = write(&models()[model]);
        let mut lines: Vec<Vec<String>> = text
            .lines()
            .map(|l| l.split_whitespace().map(str::to_string).collect())
            .collect();
        for &(op, at, token) in &edits {
            edit(&mut lines, op, at, token);
        }
        let mutated: String = lines.iter().map(|l| l.join(" ") + "\n").collect();
        if let Ok(bn) = read(&mutated) {
            let again = write(&bn);
            let back = read(&again);
            prop_assert!(back.is_ok(), "a parsed network must read back: {back:?}");
            prop_assert_eq!(write(&back.unwrap()), again);
        }
    }
}
