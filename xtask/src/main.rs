//! Repo automation. `cargo xtask lint` runs the concurrency-hygiene
//! static analysis pass over every Rust source in the workspace — see
//! [`lint`] for the rules. Exits non-zero on any violation, so CI can
//! gate on it. `cargo xtask loc [ROOT]` prints the non-test lines of Rust
//! per crate — see [`loc`] for what counts.

use std::process::ExitCode;

mod lint;
mod loc;

const USAGE: &str = "usage: cargo xtask lint | cargo xtask loc [ROOT]";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint::run(),
        Some("loc") => loc::run(args.next().map(Into::into)),
        Some(other) => {
            eprintln!("unknown xtask `{other}`\n{USAGE}");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}
