//! The concurrency-hygiene lint pass: line-oriented source analysis that
//! enforces the repo's unsafe/ordering/panic discipline, and that the
//! documents its comments cite exist. Six rules:
//!
//! * **R1 — unsafe allowlist.** The `unsafe` keyword may appear only in
//!   the files listed in [`UNSAFE_ALLOWLIST`] (today: the worker pool's
//!   lifetime-erasure site and the allocation-guard test's counting
//!   allocator). Anywhere
//!   else it is a violation even though the crate roots already
//!   `#![forbid(unsafe_code)]` — the lint is the layer that catches a root
//!   attribute being dropped together with the unsafe block it guarded.
//! * **R2 — `SAFETY:` comments.** Inside allowlisted files, every line
//!   containing `unsafe` must carry a `SAFETY:` comment on the same line
//!   or within the [`SAFETY_WINDOW`] lines above it.
//! * **R3 — atomic ordering justifications.** Every atomic
//!   `Ordering::{Relaxed,Acquire,Release,AcqRel,SeqCst}` site must carry
//!   an `ordering:` comment on the same line or within the
//!   [`ORDERING_WINDOW`] lines above — or be covered by an earlier
//!   blanket comment (one containing both `ordering:` and the word
//!   `below`) in the same file. `use` declarations and `cmp::Ordering`
//!   variants are not sites.
//! * **R4 — no panics on serving hot paths.** Files in [`HOT_PATHS`] may
//!   not call `.unwrap()` / `.expect(` / `panic!(` / `unreachable!(` /
//!   `todo!(` / `unimplemented!(` outside `#[cfg(test)]` code. A
//!   deliberate exception is spelled `// lint:allow(hot_panic) — reason`
//!   on the line or within [`ORDERING_WINDOW`] lines above. `assert!`
//!   family macros stay allowed: invariant checks are wanted on hot
//!   paths, limping on with a violated invariant is not.
//! * **R5 — crate-root attributes.** Every crate root must open with
//!   `#![forbid(unsafe_code)]`, except `peanut-serving`'s, which carries
//!   `#![deny(unsafe_code)]` + `#![deny(unsafe_op_in_unsafe_fn)]` and
//!   scopes its single `#[allow(unsafe_code)]` to the audited `pool`
//!   module.
//! * **R6 — cited documents exist.** A back-ticked `*.md` path in a `//!`
//!   or `///` comment must name a file of the repository: by its path from
//!   the root, or — a bare file name — by the name of any `.md` file in
//!   it. A doc comment that defers to a document nobody wrote is worse
//!   than no pointer.
//!
//! The analysis is deliberately lexical (comment-stripped line scans, no
//! syn): it must keep working on any Rust the workspace grows, never
//! needs a parser update, and the few constructs it cannot see through
//! (a `//` inside a string literal) don't occur in lint-relevant
//! positions. The scanner is a pure function over `(path, content)` so
//! the unit tests below feed it synthetic violations directly.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Files allowed to contain `unsafe` (R1), all subject to R2: the worker
/// pool's lifetime-erasure site and the counting `GlobalAlloc`s of the
/// plan and kernel allocation-guard tests.
const UNSAFE_ALLOWLIST: &[&str] = &[
    "crates/serving/src/pool.rs",
    "crates/core/tests/alloc_budget.rs",
    "crates/pgm/tests/kernel_allocs.rs",
];

/// Serving hot-path files subject to R4: the serving tier, the request
/// hashing and the observation site every batch runs, the query path
/// under every request it answers (plan, reduce, message passing and the
/// kernels it runs on), the evidence absorption and recalibration every
/// session open runs, the selection a controller tick runs while its caller
/// waits, and the store a fault-in opens and rehydrates from inside
/// `serve_mixed`.
const HOT_PATHS: &[&str] = &[
    "crates/serving/src/pool.rs",
    "crates/serving/src/engine.rs",
    "crates/serving/src/shard.rs",
    "crates/serving/src/pipeline.rs",
    "crates/serving/src/session.rs",
    "crates/serving/src/overload.rs",
    "crates/serving/src/replay.rs",
    "crates/core/src/request.rs",
    "crates/core/src/stats.rs",
    "crates/core/src/online.rs",
    "crates/core/src/context.rs",
    "crates/core/src/lrdp.rs",
    "crates/core/src/peanut.rs",
    "crates/core/src/plus.rs",
    "crates/core/src/grid.rs",
    "crates/core/src/gwmin.rs",
    "crates/core/src/shortcut.rs",
    "crates/junction/src/steiner.rs",
    "crates/junction/src/reduced.rs",
    "crates/junction/src/memo.rs",
    "crates/junction/src/calibrate.rs",
    "crates/junction/src/query.rs",
    "crates/pgm/src/potential.rs",
    "crates/pgm/src/lanes.rs",
    "crates/store/src/lib.rs",
];

/// Panicking constructs forbidden on hot paths (R4).
const HOT_PANIC_PATTERNS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

/// Atomic memory-ordering variants that constitute an R3 site.
const ATOMIC_ORDERINGS: &[&str] = &[
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
];

/// How many lines above an `unsafe` token a `SAFETY:` comment may sit.
const SAFETY_WINDOW: usize = 8;

/// How many lines above a site an `ordering:` / `lint:allow` comment may sit.
const ORDERING_WINDOW: usize = 3;

/// Files exempt from scanning: the linter's own source necessarily
/// contains every forbidden token as *data* (rule tables and test
/// fixtures), which a lexical scanner cannot tell from code.
const SKIP_FILES: &[&str] = &["xtask/src/lint.rs"];

/// Directory names never descended into.
const SKIP_DIR_NAMES: &[&str] = &["target", ".git"];

/// Vendored third-party crates exempt from the lint (not our code).
/// `vendor/interleave` is deliberately NOT here: the model checker is
/// first-party and held to the same discipline.
const SKIP_DIR_PATHS: &[&str] = &["vendor/rand", "vendor/proptest"];

pub struct Violation {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// The code portion of a line: everything before a `//` comment opener.
fn code_part(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Word-boundary containment: `needle` not embedded in a larger identifier.
fn contains_word(hay: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(i) = hay[from..].find(needle) {
        let at = from + i;
        let before = hay[..at].chars().next_back();
        let after = hay[at + needle.len()..].chars().next();
        let is_word = |c: char| c.is_alphanumeric() || c == '_';
        if !before.is_some_and(is_word) && !after.is_some_and(is_word) {
            return true;
        }
        from = at + needle.len();
    }
    false
}

/// True if the line at `end` or the lines above it carry `marker`.
/// Comment, blank, and attribute lines never consume the window — a
/// multi-line justification block counts as one annotation — but at most
/// `window` lines of *code* may sit between the marker and the site.
fn window_has(lines: &[&str], end: usize, window: usize, marker: &str) -> bool {
    if lines[end].contains(marker) {
        return true;
    }
    let mut code_between = 0;
    for line in lines[..end].iter().rev() {
        if line.contains(marker) {
            return true;
        }
        let t = line.trim_start();
        let is_free =
            t.is_empty() || t.starts_with("//") || t.starts_with("#[") || t.starts_with("#!");
        if !is_free {
            code_between += 1;
            if code_between >= window {
                return false;
            }
        }
    }
    false
}

/// Whether this path is a crate root the R5 attribute rules apply to.
fn crate_root_kind(path: &str) -> Option<&'static str> {
    // this root scopes an `#[allow(unsafe_code)]` to one audited module,
    // so it carries the deny pair instead of the forbid
    if path == "crates/serving/src/lib.rs" {
        return Some("deny-pair");
    }
    let is_root = path == "src/lib.rs"
        || path == "xtask/src/main.rs"
        || (path.starts_with("crates/") && path.ends_with("/src/lib.rs"))
        || (path.starts_with("vendor/") && path.ends_with("/src/lib.rs"));
    is_root.then_some("forbid")
}

/// The back-ticked `*.md` paths a doc-comment line cites (R6). Only a
/// token made of path characters counts: `*.md` or `BENCH_<pr>.md` is a
/// pattern, not a citation.
fn cited_md_paths(line: &str) -> impl Iterator<Item = &str> {
    let t = line.trim_start();
    let doc = if t.starts_with("//!") || t.starts_with("///") {
        t
    } else {
        ""
    };
    let is_path_char = |c: char| c.is_ascii_alphanumeric() || "_-./".contains(c);
    // odd-numbered pieces of a split on back-ticks sit between a pair
    doc.split('`')
        .skip(1)
        .step_by(2)
        .filter(move |tok| tok.ends_with(".md") && tok.chars().all(is_path_char))
}

/// Whether a cited path names one of the repository's `.md` files: by
/// path from the root, or (no directory part) by file name.
fn md_resolves(cited: &str, md_files: &[String]) -> bool {
    md_files
        .iter()
        .any(|f| f == cited || (!cited.contains('/') && f.rsplit('/').next() == Some(cited)))
}

/// Scan one file. Pure function over `(repo-relative path, content)` and
/// the repo-relative paths of the repository's `.md` files (for R6).
pub fn scan(path: &str, content: &str, md_files: &[String]) -> Vec<Violation> {
    let mut out = Vec::new();
    if SKIP_FILES.contains(&path) {
        return out;
    }
    let lines: Vec<&str> = content.lines().collect();
    let unsafe_allowed = UNSAFE_ALLOWLIST.contains(&path);
    let hot_path = HOT_PATHS.contains(&path);
    // R3 documents production memory-ordering choices: library code only.
    // Integration tests, examples and benches use atomics as plain test
    // counters, and `#[cfg(test)]` modules are skipped below for the
    // same reason.
    let ordering_checked = path.starts_with("src/") || path.contains("/src/");
    let mut ordering_blanket = false;
    let mut in_cfg_test = false;
    let mut prev_site_covered = false;

    for (idx, raw) in lines.iter().enumerate() {
        let n = idx + 1;
        let code = code_part(raw);

        if raw.contains("ordering:") && raw.contains("below") {
            ordering_blanket = true;
        }
        // a top-level (unindented) `#[cfg(test)]` starts the test module:
        // R4 stops applying — tests are where panics belong
        if raw.starts_with("#[cfg(test)]") {
            in_cfg_test = true;
        }

        // R1 / R2: the unsafe keyword
        if contains_word(code, "unsafe") {
            if !unsafe_allowed {
                out.push(Violation {
                    file: path.to_string(),
                    line: n,
                    rule: "R1/unsafe-allowlist",
                    msg: format!(
                        "`unsafe` outside the allowlist ({})",
                        UNSAFE_ALLOWLIST.join(", ")
                    ),
                });
            } else if !window_has(&lines, idx, SAFETY_WINDOW, "SAFETY:") {
                out.push(Violation {
                    file: path.to_string(),
                    line: n,
                    rule: "R2/safety-comment",
                    msg: format!(
                        "`unsafe` without a `SAFETY:` comment within {SAFETY_WINDOW} lines"
                    ),
                });
            }
        }

        // R3: atomic ordering sites need a justification comment
        let is_use = code.trim_start().starts_with("use ");
        let is_site = !is_use && ATOMIC_ORDERINGS.iter().any(|ord| code.contains(ord));
        if is_site && ordering_checked && !in_cfg_test && !ordering_blanket {
            // one comment covers an unbroken run of sites (e.g. a stats
            // snapshot loading five counters on consecutive lines)
            let covered =
                prev_site_covered || window_has(&lines, idx, ORDERING_WINDOW, "ordering:");
            if !covered {
                out.push(Violation {
                    file: path.to_string(),
                    line: n,
                    rule: "R3/ordering-comment",
                    msg: format!(
                        "atomic `Ordering` site without an `ordering:` justification within \
                         {ORDERING_WINDOW} code lines (or a blanket `ordering: ... below` above)"
                    ),
                });
            }
            prev_site_covered = covered;
        } else if !is_site {
            prev_site_covered = false;
        }

        // R6: a doc comment may only cite documents that exist
        for cited in cited_md_paths(raw) {
            if !md_resolves(cited, md_files) {
                out.push(Violation {
                    file: path.to_string(),
                    line: n,
                    rule: "R6/dangling-doc-reference",
                    msg: format!(
                        "doc comment cites `{cited}`, which is not a file of this repository"
                    ),
                });
            }
        }

        // R4: no panicking constructs on serving hot paths
        if hot_path && !in_cfg_test {
            for pat in HOT_PANIC_PATTERNS {
                if code.contains(pat)
                    && !window_has(&lines, idx, ORDERING_WINDOW, "lint:allow(hot_panic)")
                {
                    out.push(Violation {
                        file: path.to_string(),
                        line: n,
                        rule: "R4/hot-path-panic",
                        msg: format!(
                            "`{pat}` on a serving hot path — handle the error or annotate \
                             `// lint:allow(hot_panic) — reason`"
                        ),
                    });
                    break;
                }
            }
        }
    }

    // R5: crate-root attributes
    match crate_root_kind(path) {
        Some("deny-pair") => {
            for attr in ["#![deny(unsafe_code)]", "#![deny(unsafe_op_in_unsafe_fn)]"] {
                if !content.contains(attr) {
                    out.push(Violation {
                        file: path.to_string(),
                        line: 1,
                        rule: "R5/crate-root",
                        msg: format!("this crate root must carry `{attr}`"),
                    });
                }
            }
        }
        Some(_) if !content.contains("#![forbid(unsafe_code)]") => {
            out.push(Violation {
                file: path.to_string(),
                line: 1,
                rule: "R5/crate-root",
                msg: "crate root must carry `#![forbid(unsafe_code)]`".to_string(),
            });
        }
        _ => {}
    }

    out
}

/// Collect every file with extension `ext` (`".rs"`, `".md"`) under `root`,
/// skipping build output and third-party vendor trees. Returned paths are
/// repo-relative.
fn collect_files(root: &Path, ext: &str) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = match std::fs::read_dir(&dir) {
            Ok(e) => e,
            Err(_) => continue,
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let rel = path.strip_prefix(root).unwrap_or(&path);
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if SKIP_DIR_NAMES.contains(&name.as_ref()) {
                    continue;
                }
                let rel_str = rel.to_string_lossy().replace('\\', "/");
                if SKIP_DIR_PATHS.contains(&rel_str.as_str()) {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(ext) {
                out.push(rel.to_path_buf());
            }
        }
    }
    out.sort();
    out
}

/// Repo root: the xtask crate lives one level below it.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask sits inside the repo")
        .to_path_buf()
}

/// Repo-relative, `/`-separated form of a collected path.
fn rel_str(rel: &Path) -> String {
    rel.to_string_lossy().replace('\\', "/")
}

/// Every violation in the repository under `root`, and the number of
/// `.rs` files scanned.
fn scan_repo(root: &Path) -> Result<(Vec<Violation>, usize), String> {
    let md_files: Vec<String> = collect_files(root, ".md")
        .iter()
        .map(|p| rel_str(p))
        .collect();
    let files = collect_files(root, ".rs");
    let mut violations = Vec::new();
    for rel in &files {
        let path = rel_str(rel);
        let content = std::fs::read_to_string(root.join(rel))
            .map_err(|e| format!("cannot read {path}: {e}"))?;
        violations.extend(scan(&path, &content, &md_files));
    }
    Ok((violations, files.len()))
}

/// Run the full pass; prints violations and returns the exit code.
pub fn run() -> ExitCode {
    let (violations, n_files) = match scan_repo(&repo_root()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for v in &violations {
        eprintln!("{v}");
    }
    if violations.is_empty() {
        println!(
            "xtask lint: {n_files} files clean (unsafe allowlist, SAFETY:, ordering:, hot-path panics, crate-root attributes, cited documents)"
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "xtask lint: {} violation(s) in {n_files} files",
            violations.len()
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(path: &str, content: &str) -> Vec<&'static str> {
        let md_files = [
            "ARCHITECTURE.md".to_string(),
            "benchmark/README.md".to_string(),
        ];
        scan(path, content, &md_files)
            .into_iter()
            .map(|v| v.rule)
            .collect()
    }

    #[test]
    fn unsafe_outside_allowlist_is_flagged() {
        let src = "fn f() {\n    let x = unsafe { *p };\n}\n";
        assert_eq!(
            rules("crates/core/src/exec.rs", src),
            ["R1/unsafe-allowlist"]
        );
        // ...even when a comment tries to look like a justification
        let src = "// SAFETY: trust me\nlet x = unsafe { *p };\n";
        assert_eq!(
            rules("crates/junction/src/tree.rs", src),
            ["R1/unsafe-allowlist"]
        );
    }

    #[test]
    fn unsafe_in_allowlisted_file_needs_a_safety_comment() {
        let bare = "fn f() {\n    let x = unsafe { *p };\n}\n";
        assert_eq!(
            rules("crates/serving/src/pool.rs", bare),
            ["R2/safety-comment"]
        );

        let documented = "// SAFETY: p outlives the wave; see run_wave.\nlet x = unsafe { *p };\n";
        assert!(rules("crates/serving/src/pool.rs", documented).is_empty());

        // the window is bounded in *code* lines: 9 statements between the
        // comment and the site push it out of range…
        let far = format!(
            "// SAFETY: too far away\n{}let x = unsafe {{ *p }};\n",
            "let a = 1;\n".repeat(9)
        );
        assert_eq!(
            rules("crates/serving/src/pool.rs", &far),
            ["R2/safety-comment"]
        );

        // …but comment and blank lines are free: a multi-line SAFETY block
        // over a handful of statements still counts
        let block = format!(
            "// SAFETY: a long explanation\n// spanning several lines\n\n{}let x = unsafe {{ *p }};\n",
            "let a = 1;\n".repeat(7)
        );
        assert!(rules("crates/serving/src/pool.rs", &block).is_empty());
    }

    #[test]
    fn unsafe_inside_identifiers_or_comments_is_not_a_site() {
        let src = "#![forbid(unsafe_code)]\n#![deny(unsafe_op_in_unsafe_fn)]\n// unsafe is discussed here only\n";
        assert!(rules("crates/core/src/exec.rs", src).is_empty());
    }

    #[test]
    fn atomic_ordering_needs_justification() {
        let bare = "fn f(a: &AtomicUsize) {\n    a.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert_eq!(
            rules("crates/core/src/stats.rs", bare),
            ["R3/ordering-comment"]
        );

        let same_line = "a.fetch_add(1, Ordering::Relaxed); // ordering: counter only\n";
        assert!(rules("crates/core/src/stats.rs", same_line).is_empty());

        let above =
            "// ordering: monotone counter, no synchronization.\na.store(1, Ordering::SeqCst);\n";
        assert!(rules("crates/core/src/stats.rs", above).is_empty());
    }

    #[test]
    fn ordering_rule_covers_production_code_only() {
        let bare = "fn f(a: &AtomicUsize) {\n    a.fetch_add(1, Ordering::Relaxed);\n}\n";
        // integration tests, benches and examples use atomics as plain
        // test counters — no justification mandated there
        assert!(rules("crates/serving/tests/pool.rs", bare).is_empty());
        assert!(rules("examples/lifecycle.rs", bare).is_empty());
        // ...and neither do `#[cfg(test)]` modules inside src files
        let in_tests = format!("#[cfg(test)]\nmod tests {{\n{bare}}}\n");
        assert!(rules("crates/core/src/stats.rs", &in_tests).is_empty());
    }

    #[test]
    fn one_comment_covers_an_unbroken_run_of_sites() {
        let run = "// ordering: independent telemetry counters, advisory reads.\n\
                   PoolStats {\n\
                       waves: s.waves.load(Ordering::Relaxed),\n\
                       tasks: s.tasks.load(Ordering::Relaxed),\n\
                       parks: s.parks.load(Ordering::Relaxed),\n\
                       unparks: s.unparks.load(Ordering::Relaxed),\n\
                       panics: s.panics.load(Ordering::Relaxed),\n\
                   }\n";
        assert!(rules("crates/serving/src/pool.rs", run).is_empty());

        // a non-site code line breaks the run: coverage does not leak past it
        let broken = "// ordering: covers only the first site.\n\
                      a.load(Ordering::Relaxed);\n\
                      let x = compute();\n\
                      let y = frobnicate(x);\n\
                      let z = munge(y);\n\
                      b.load(Ordering::Relaxed);\n";
        assert_eq!(
            rules("crates/core/src/stats.rs", broken),
            ["R3/ordering-comment"]
        );
    }

    #[test]
    fn ordering_blanket_comment_covers_the_rest_of_the_file() {
        let src = "// ordering: every atomic below is an independent counter.\n\n\n\n\n\
                   a.fetch_add(1, Ordering::Relaxed);\nb.load(Ordering::Acquire);\n";
        assert!(rules("crates/core/src/stats.rs", src).is_empty());
    }

    #[test]
    fn use_lines_and_cmp_ordering_are_not_sites() {
        let src = "use std::sync::atomic::Ordering::Relaxed;\n\
                   fn c(a: i32, b: i32) -> std::cmp::Ordering { a.cmp(&b) }\n\
                   let _ = std::cmp::Ordering::Less;\n";
        assert!(rules("crates/core/src/exec.rs", src).is_empty());
    }

    #[test]
    fn hot_path_panics_are_flagged_and_escapable() {
        let bare = "fn serve() {\n    let v = m.get(&k).unwrap();\n}\n";
        assert_eq!(
            rules("crates/serving/src/engine.rs", bare),
            ["R4/hot-path-panic"]
        );

        let escaped = "// lint:allow(hot_panic) — construction-time only, not per-query.\n\
                       let v = m.get(&k).expect(\"present\");\n";
        assert!(rules("crates/serving/src/engine.rs", escaped).is_empty());

        // the same code off the hot path is fine
        assert!(rules("crates/core/src/exec.rs", bare).is_empty());

        // and test modules inside hot-path files are exempt
        let tests = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        assert!(rules("crates/serving/src/shard.rs", tests).is_empty());
    }

    #[test]
    fn every_hot_panic_pattern_is_caught() {
        for pat in [
            "x.unwrap();",
            "x.expect(\"y\");",
            "panic!(\"y\");",
            "unreachable!();",
            "todo!();",
            "unimplemented!();",
        ] {
            let src = format!("fn f() {{ {pat} }}\n");
            assert_eq!(
                rules("crates/serving/src/pool.rs", &src),
                ["R4/hot-path-panic"],
                "pattern {pat} must be caught"
            );
        }
        // assert! stays allowed: invariants are wanted on hot paths
        let src = "fn f() { assert!(x > 0); assert_eq!(a, b); }\n";
        assert!(rules("crates/serving/src/pool.rs", src).is_empty());
    }

    #[test]
    fn crate_roots_must_pin_their_unsafe_stance() {
        assert_eq!(
            rules("crates/core/src/lib.rs", "//! docs\n"),
            ["R5/crate-root"]
        );
        assert!(rules(
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\n//! docs\n"
        )
        .is_empty());

        // serving needs the deny pair (forbid would reject the scoped
        // `#[allow(unsafe_code)]` on its audited module)
        assert_eq!(
            rules("crates/serving/src/lib.rs", "#![deny(unsafe_code)]\n"),
            ["R5/crate-root"]
        );
        let ok = "#![deny(unsafe_code)]\n#![deny(unsafe_op_in_unsafe_fn)]\n";
        assert!(rules("crates/serving/src/lib.rs", ok).is_empty());
        // every other root, the store's included, takes the forbid
        assert_eq!(rules("crates/store/src/lib.rs", ok), ["R5/crate-root"]);
        assert!(rules("crates/store/src/lib.rs", "#![forbid(unsafe_code)]\n").is_empty());

        // non-root files carry no attribute obligation
        assert!(rules("crates/core/src/exec.rs", "//! docs\n").is_empty());
    }

    #[test]
    fn doc_comments_may_only_cite_documents_that_exist() {
        let dangling = "/// heuristic documented in `DESIGN.md` §5.4\nfn f() {}\n";
        assert_eq!(
            rules("crates/junction/src/steiner.rs", dangling),
            ["R6/dangling-doc-reference"]
        );
        // by path from the root, or a bare name by the name of any file
        let valid = "//! see `ARCHITECTURE.md`, `benchmark/README.md` and `README.md`\n";
        assert!(rules("crates/core/src/exec.rs", valid).is_empty());
        // a path is not searched for below the root
        let misplaced = "//! see `docs/README.md`\n";
        assert_eq!(
            rules("crates/core/src/exec.rs", misplaced),
            ["R6/dangling-doc-reference"]
        );
        // patterns, plain comments and code are not citations
        let not_cited = "/// every `*.md` file\n// see `DESIGN.md`\nlet s = \"`DESIGN.md`\";\n";
        assert!(rules("crates/core/src/exec.rs", not_cited).is_empty());
    }

    #[test]
    fn the_repo_itself_is_clean() {
        // the real pass over the real tree: the lint gate must hold on
        // every commit, so its own test suite enforces it too
        let (all, _) = scan_repo(&repo_root()).expect("readable source");
        let rendered: Vec<String> = all.iter().map(|v| v.to_string()).collect();
        assert!(
            all.is_empty(),
            "repo lint violations:\n{}",
            rendered.join("\n")
        );
    }

    #[test]
    fn walker_skips_third_party_vendor_but_not_interleave() {
        let files = collect_files(&repo_root(), ".rs");
        let paths: Vec<String> = files.iter().map(|p| rel_str(p)).collect();
        assert!(paths.iter().any(|p| p.starts_with("vendor/interleave/")));
        assert!(!paths
            .iter()
            .any(|p| p.starts_with("vendor/rand/") || p.starts_with("vendor/proptest/")));
        assert!(paths.contains(&"crates/serving/src/pool.rs".to_string()));
    }
}
