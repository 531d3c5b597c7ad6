//! Command line of the benchmark.
//!
//! ```text
//! peanut-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! peanut-benchmark --all [--traced] [--seed <n>] [--seconds <s>] [--workload <name>]
//! peanut-benchmark --list
//! ```
//!
//! The first form is what the driver runs: one workload in one process
//! (so `peak_rss_mb` is that workload's), the result object on the last
//! line of standard output. `--all` runs every workload that way, one
//! child process each, and merges the results into `<out>/metrics.json`.

use peanut_benchmark::runner::{check_host, run_traced, run_untraced};
use peanut_benchmark::{fixture, spec, workloads};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    all: bool,
    list: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        all: false,
        list: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => args.trace = true,
            "--all" => args.all = true,
            "--list" => args.list = true,
            "--out" => args.out = PathBuf::from(value("--out")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Runs one workload in this process and prints its result line last.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let spec = spec::workload(name).ok_or(format!("unknown workload {name} (see --list)"))?;
    let nproc = check_host()?;
    eprintln!(
        "workload {} seed {} seconds {} trace {} nproc {nproc}",
        spec.name, args.seed, args.seconds, args.trace
    );
    fixture::settle_allocator();
    let workload = workloads::build(spec.name, args.seed, &args.out)
        .ok_or(format!("workload {name} is registered but not built"))?;
    eprintln!(
        "inputs generated, peak rss {:.0} MB",
        fixture::peak_rss_mb()
    );
    let outcome = if args.trace {
        run_traced(spec.name, workload.as_ref(), &args.out)
    } else {
        run_untraced(spec.name, workload.as_ref(), args.seconds)
    };
    outcome.print_table();
    if let Err(e) = outcome.write_json(&args.out, args.trace) {
        eprintln!("warning: could not write the metrics file: {e}");
    }
    println!("{}", outcome.result_line());
    Ok(outcome.correct)
}

/// First line of a command's standard output, or "unknown".
fn probe(program: &str, argv: &[&str]) -> String {
    Command::new(program)
        .args(argv)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Runs every (or the selected) workload, one child process each, and
/// merges the per-workload files into `<out>/metrics.json`.
fn run_all(args: &Args) -> Result<bool, String> {
    let nproc = check_host()?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![
            spec::workload(w)
                .ok_or(format!("unknown workload {w}"))?
                .name,
        ],
        None => spec::WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let modes: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let mut all_correct = true;
    let mut sections = Vec::new();
    for name in names {
        for &traced in modes {
            let status = Command::new(&exe)
                .args(["--workload", name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&args.out)
                .status()
                .map_err(|e| format!("spawning {name}: {e}"))?;
            all_correct &= status.success();
            let suffix = if traced { ".traced" } else { "" };
            let file = args.out.join(format!("{name}{suffix}.json"));
            match std::fs::read_to_string(&file) {
                Ok(body) => sections.push(format!("\"{name}{suffix}\": {}", body.trim_end())),
                Err(e) => {
                    all_correct = false;
                    eprintln!("{name}: no metrics file ({e})");
                }
            }
        }
    }
    let merged = format!(
        "{{\"nproc\": {nproc}, \"rustc\": \"{}\", \"commit\": \"{}\", \"seed\": {}, \"seconds\": {}, \"runs\": {{\n{}\n}}}}\n",
        probe("rustc", &["--version"]),
        probe("git", &["rev-parse", "HEAD"]),
        args.seed,
        args.seconds,
        sections.join(",\n")
    );
    write_file(&args.out.join("metrics.json"), &merged)?;
    eprintln!("wrote {}", args.out.join("metrics.json").display());
    Ok(all_correct)
}

fn write_file(path: &Path, body: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, body).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        spec::print_list();
        return ExitCode::SUCCESS;
    }
    let result = if args.all {
        run_all(&args)
    } else {
        match &args.workload {
            Some(name) => run_one(name, &args),
            None => Err("give --workload <name>, --all or --list".into()),
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        // the result line was printed with "correct": false; a wrong
        // answer must also fail the command
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
