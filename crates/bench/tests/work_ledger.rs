//! The work ledger is exact: `repro ledger --quick` writes the committed
//! `LEDGER.quick.json` byte for byte. A change that moves the work one of
//! its shapes does — requests computed, operations, cache hits, faults,
//! page-outs, memo entries held or resumed, store bytes read, allocator
//! calls — fails this check until the file is regenerated (`cargo run -p
//! peanut-bench --bin repro -- ledger --quick` at the repository root: the
//! test profile's build, whose debug assertions allocate) and the
//! difference is explained.

use std::process::Command;

#[test]
fn the_quick_ledger_is_the_committed_one() {
    let dir = std::env::temp_dir().join(format!("peanut-work-ledger-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["ledger", "--quick"])
        .current_dir(&dir)
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = std::fs::read(dir.join("LEDGER.quick.json")).unwrap();
    assert_eq!(written, out.stdout, "the file is what was printed");
    let committed = include_bytes!("../../../LEDGER.quick.json");
    assert!(
        written == committed,
        "LEDGER.quick.json differs from the committed ledger:\n{}",
        String::from_utf8_lossy(&written)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
