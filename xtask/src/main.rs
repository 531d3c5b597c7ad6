//! Repo automation. `cargo xtask lint` runs the concurrency-hygiene
//! static analysis pass over every Rust source in the workspace — see
//! [`lint`] for the rules. Exits non-zero on any violation, so CI can
//! gate on it.

use std::process::ExitCode;

mod lint;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint::run(),
        Some(other) => {
            eprintln!("unknown xtask `{other}`\nusage: cargo xtask lint");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo xtask lint");
            ExitCode::FAILURE
        }
    }
}
