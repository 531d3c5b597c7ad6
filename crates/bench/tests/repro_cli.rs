//! The `repro` binary's exit status is what CI and scripts read: an
//! unknown experiment must not look like a successful run.

use std::process::Command;

#[test]
fn unknown_experiment_exits_non_zero_and_names_the_known_ones() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("no_such_experiment")
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing ran");
    let listed = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--list")
        .output()
        .expect("spawn repro");
    assert!(listed.status.success());
    let names = String::from_utf8(listed.stdout).expect("utf-8");
    assert_eq!(names.lines().count(), 15);
    assert!(String::from_utf8_lossy(&out.stderr).ends_with(&names));
}
