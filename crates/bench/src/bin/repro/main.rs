//! The reproduction's one executable: every table/figure experiment of
//! the paper behind one dispatch table.
//!
//! ```text
//! repro <name> [--quick]   one experiment, in-process, on stdout
//! repro --list             the experiment names
//! repro [--quick]          every experiment, each teed into results/<name>.txt
//! ```
//!
//! Usage: `cargo run --release -p peanut-bench --bin repro [-- table3 --quick]`

use std::fs;
use std::path::Path;
use std::process::{Command, ExitCode};

mod ablation;
mod fig10;
mod fig3;
mod fig4;
mod fig5;
mod fig6;
mod fig7;
mod fig8;
mod fig9;
mod ledger;
mod pivot_study;
mod table1;
mod table2;
mod table3;
mod table4;

/// Every experiment, in the order the bare run executes them.
const EXPERIMENTS: [(&str, fn()); 15] = [
    ("table1", table1::run),
    ("table2", table2::run),
    ("table3", table3::run),
    ("table4", table4::run),
    ("fig3", fig3::run),
    ("fig4", fig4::run),
    ("fig5", fig5::run),
    ("fig6", fig6::run),
    ("fig7", fig7::run),
    ("fig8", fig8::run),
    ("fig9", fig9::run),
    ("fig10", fig10::run),
    ("ablation", ablation::run),
    ("pivot_study", pivot_study::run),
    ("ledger", ledger::run),
];

fn names() -> [&'static str; 15] {
    EXPERIMENTS.map(|(name, _)| name)
}

/// Runs every experiment as a child `exe <name> [--quick]` (a `println!`
/// can only be captured across a process boundary) and writes its stdout
/// to `dir/<name>.txt`. A failed child leaves the previous result file
/// alone and the run continues; returns the names that failed.
fn run_all(exe: &Path, dir: &Path, quick: bool) -> Vec<&'static str> {
    fs::create_dir_all(dir).expect("create results dir");
    let mut failed = Vec::new();
    for name in names() {
        eprintln!("== running {name} ==");
        let mut cmd = Command::new(exe);
        cmd.arg(name);
        if quick {
            cmd.arg("--quick");
        }
        let out = cmd.output().unwrap_or_else(|e| panic!("spawn {name}: {e}"));
        if !out.status.success() {
            eprintln!("{name} FAILED: {}", String::from_utf8_lossy(&out.stderr));
            failed.push(name);
            continue;
        }
        let path = dir.join(format!("{name}.txt"));
        fs::write(&path, &out.stdout).expect("write result");
        eprintln!("   -> {} ({} bytes)", path.display(), out.stdout.len());
    }
    failed
}

/// An unknown experiment or a stray argument: the names on stderr, exit 2.
fn usage() -> ExitCode {
    eprintln!("usage: repro [<experiment> | --list] [--quick]; experiments:");
    eprintln!("{}", names().join("\n"));
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let quick = peanut_bench::harness::is_quick();
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--quick")
        .collect();
    match args.as_slice() {
        [] => {
            let exe = std::env::current_exe().expect("current exe");
            let failed = run_all(&exe, Path::new("results"), quick);
            if !failed.is_empty() {
                eprintln!("FAILED: {}", failed.join(" "));
                return ExitCode::FAILURE;
            }
            eprintln!("done; see results/*.txt");
        }
        [flag] if flag == "--list" => println!("{}", names().join("\n")),
        [name] => match EXPERIMENTS.iter().find(|(n, _)| n == name) {
            Some((_, run)) => run(),
            None => return usage(),
        },
        _ => return usage(),
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_table_matches_the_documented_experiments() {
        let mut unique = names().to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 15, "duplicate experiment name");
        // the rows of the `| experiment | reproduces |` table in src/lib.rs
        let documented: Vec<&str> = include_str!("../../lib.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("//! | `")?.split('`').next())
            .collect();
        assert_eq!(names().to_vec(), documented);
    }

    /// `true` and `false` stand in for the child: the bare run must
    /// iterate exactly the dispatch table, keep a failed experiment's
    /// previous result, and report every failure.
    #[cfg(unix)]
    #[test]
    fn bare_run_keeps_old_results_of_failed_experiments() {
        let dir = std::env::temp_dir().join(format!("peanut-repro-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let kept = dir.join("table1.txt");
        fs::write(&kept, "previous run").unwrap();

        assert_eq!(run_all(Path::new("false"), &dir, true), names());
        assert_eq!(fs::read_to_string(&kept).unwrap(), "previous run");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);

        assert!(run_all(Path::new("true"), &dir, true).is_empty());
        assert_eq!(fs::read_to_string(&kept).unwrap(), "");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), names().len());
        fs::remove_dir_all(&dir).unwrap();
    }
}
