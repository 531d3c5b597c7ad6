//! The concurrency-hygiene lint pass: line-oriented source analysis for
//! the rules no compiler checks (the root `Cargo.toml`'s lint table and
//! each hot-path file's clippy deny cover `unsafe`, `SAFETY:` comments and
//! panics). Three rules:
//!
//! * **R1 — unsafe allowlist.** The `unsafe` keyword may appear only in
//!   the files listed in [`UNSAFE_ALLOWLIST`]. The compiler already
//!   rejects `unsafe` without an `#[allow(unsafe_code)]`; this rule also
//!   covers `benchmark/`, a workspace the lint table does not reach, and
//!   keeps the audited files in one list. An entry that names no file, or
//!   a file without the word `unsafe`, is itself a violation, so the list
//!   cannot outlive the code it audits.
//! * **R3 — atomic ordering justifications.** Every atomic
//!   `Ordering::{Relaxed,Acquire,Release,AcqRel,SeqCst}` site must carry
//!   an `ordering:` comment on the same line or within the
//!   [`ORDERING_WINDOW`] lines above — or be covered by an earlier
//!   blanket comment (one containing both `ordering:` and the word
//!   `below`) in the same file. `use` declarations and `cmp::Ordering`
//!   variants are not sites.
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

/// Files allowed to contain `unsafe` (R1): the worker pool's
/// lifetime-erasure site and the counting `GlobalAlloc` of the
/// allocation-guard tests.
const UNSAFE_ALLOWLIST: &[&str] = &[
    "crates/serving/src/pool.rs",
    "crates/counting-alloc/src/lib.rs",
];

/// Atomic memory-ordering variants that constitute an R3 site.
const ATOMIC_ORDERINGS: &[&str] = &[
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
];

/// How many lines above a site an `ordering:` comment may sit.
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
        // a top-level (unindented) `#[cfg(test)]` starts the test module
        if raw.starts_with("#[cfg(test)]") {
            in_cfg_test = true;
        }

        // R1: the unsafe keyword
        if !unsafe_allowed && contains_word(code, "unsafe") {
            out.push(Violation {
                file: path.to_string(),
                line: n,
                rule: "R1/unsafe-allowlist",
                msg: format!(
                    "`unsafe` outside the allowlist ({})",
                    UNSAFE_ALLOWLIST.join(", ")
                ),
            });
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
    }

    out
}

/// Collect every file with extension `ext` (`".rs"`, `".md"`) under `root`,
/// skipping build output and third-party vendor trees. Returned paths are
/// repo-relative.
pub(crate) fn collect_files(root: &Path, ext: &str) -> Vec<PathBuf> {
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
pub(crate) fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask sits inside the repo")
        .to_path_buf()
}

/// Repo-relative, `/`-separated form of a collected path.
pub(crate) fn rel_str(rel: &Path) -> String {
    rel.to_string_lossy().replace('\\', "/")
}

/// The entries of `allowlist` that are stale (R1): `read` gives no file
/// for them, or a file without the word `unsafe` in its code.
fn stale_allowlist(allowlist: &[&str], read: impl Fn(&str) -> Option<String>) -> Vec<Violation> {
    let stale = |path: &str| {
        read(path).is_none_or(|content| {
            !content
                .lines()
                .any(|line| contains_word(code_part(line), "unsafe"))
        })
    };
    allowlist
        .iter()
        .filter(|path| stale(path))
        .map(|path| Violation {
            file: path.to_string(),
            line: 0,
            rule: "R1/unsafe-allowlist",
            msg: "allowlisted, but no such file holds `unsafe`: remove the entry".into(),
        })
        .collect()
}

/// Every violation in the repository under `root`, and the number of
/// `.rs` files scanned.
fn scan_repo(root: &Path) -> Result<(Vec<Violation>, usize), String> {
    let md_files: Vec<String> = collect_files(root, ".md")
        .iter()
        .map(|p| rel_str(p))
        .collect();
    let files = collect_files(root, ".rs");
    let mut violations = stale_allowlist(UNSAFE_ALLOWLIST, |path| {
        std::fs::read_to_string(root.join(path)).ok()
    });
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
            "xtask lint: {n_files} files clean (unsafe allowlist, ordering: comments, cited documents)"
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
    fn a_stale_allowlist_entry_is_flagged() {
        let read = |path: &str| match path {
            "crates/a/src/pool.rs" => Some("let x = unsafe { *p };\n".to_string()),
            "crates/a/tests/allocs.rs" => Some("// unsafe was here\nfn f() {}\n".to_string()),
            _ => None,
        };
        let allowlist = [
            "crates/a/src/pool.rs",
            "crates/a/tests/allocs.rs",
            "crates/a/tests/gone.rs",
        ];
        let stale: Vec<String> = stale_allowlist(&allowlist, read)
            .into_iter()
            .map(|v| format!("{} {}", v.rule, v.file))
            .collect();
        assert_eq!(
            stale,
            [
                "R1/unsafe-allowlist crates/a/tests/allocs.rs",
                "R1/unsafe-allowlist crates/a/tests/gone.rs"
            ]
        );
    }

    #[test]
    fn unsafe_inside_identifiers_or_comments_is_not_a_site() {
        let src = "#![allow(unsafe_code)]\n#![deny(unsafe_op_in_unsafe_fn)]\n// unsafe is discussed here only\n";
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
