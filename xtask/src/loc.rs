//! `cargo xtask loc [ROOT]`: the lines of Rust each crate ships, so that
//! every change measures its net change in non-test lines one way. Over
//! `crates/*/src` and `src/` (the umbrella crate, `peanut`) of the
//! repository — or of the checkout at `ROOT` — a line counts when it is
//! not blank, not only a comment, and not test code. Test code is
//!
//! * every item under a `#[cfg(test)]` attribute: an inline `mod tests {
//!   … }` to its closing brace, a test-only helper, a `mod name;`
//!   declaration;
//! * and the file such a declaration includes (`crates/pgm/src/difftests.rs`).
//!
//! An item under `#[cfg(any(test, …))]` also builds outside tests, and
//! counts. Like the lint pass it is lexical: braces are matched outside
//! string and character literals, and a block comment counts as comment
//! only from a line that opens it. It prints one line per crate and the
//! total, and fails only when a file cannot be read.

use crate::lint::{collect_files, rel_str};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The lines of `content` that are neither blank, nor comment, nor test
/// code, and the modules it declares under `#[cfg(test)]` (`mod name;`).
pub fn count(content: &str) -> (usize, Vec<String>) {
    let (mut lines, mut test_mods) = (0, Vec::new());
    // `Some(depth)` while inside a `#[cfg(test)]` item: the braces open so
    // far, `None` before its first brace
    let mut test_item: Option<Option<usize>> = None;
    let mut in_block_comment = false;
    for line in content.lines() {
        let t = line.trim();
        if in_block_comment {
            in_block_comment = !t.contains("*/");
            continue;
        }
        if t.starts_with("/*") {
            in_block_comment = !t.contains("*/");
            continue;
        }
        if t.is_empty() || t.starts_with("//") {
            continue;
        }
        if t.starts_with("#[cfg(test)]") {
            test_item = Some(None);
            continue;
        }
        let Some(depth) = test_item else {
            lines += 1;
            continue;
        };
        let code = code_of(t);
        let (open, close) = (code.matches('{').count(), code.matches('}').count());
        test_item = match depth {
            // attributes between `#[cfg(test)]` and its item
            None if code.starts_with("#[") => Some(None),
            None if open == 0 => {
                if let Some(name) = declared_mod(&code) {
                    test_mods.push(name.to_string());
                }
                (!code.ends_with(';')).then_some(None)
            }
            None => (open > close).then_some(Some(open - close)),
            Some(d) => (d + open > close).then(|| Some(d + open - close)),
        };
    }
    (lines, test_mods)
}

/// The line's code: a trailing `//` comment cut off, and string and
/// character literals blanked, so that only the code's braces remain.
fn code_of(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                while let Some(s) = chars.next() {
                    match s {
                        '\\' => {
                            chars.next();
                        }
                        '"' => break,
                        _ => {}
                    }
                }
                out.push_str("\"\"");
            }
            // a character literal of a brace; a lifetime passes through
            '\'' if matches!(chars.peek(), Some('{' | '}')) => {
                chars.next();
                out.push_str("' '");
                chars.next_if_eq(&'\'');
            }
            '/' if chars.peek() == Some(&'/') => break,
            _ => out.push(c),
        }
    }
    out.trim_end().to_string()
}

/// `name` of a `mod name;` or `pub mod name;` line.
fn declared_mod(code: &str) -> Option<&str> {
    let rest = code.strip_prefix("pub ").unwrap_or(code);
    let name = rest.strip_prefix("mod ")?.strip_suffix(';')?.trim();
    name.chars()
        .all(|c| c.is_alphanumeric() || c == '_')
        .then_some(name)
}

/// The file module `name`, declared in `file`, lives in.
fn mod_file(src: &Path, file: &Path, name: &str) -> PathBuf {
    let dir = file.parent().unwrap_or(Path::new(""));
    let stem = file.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    let dir = if matches!(stem, "lib" | "main" | "mod") {
        dir.to_path_buf()
    } else {
        dir.join(stem)
    };
    let flat = dir.join(format!("{name}.rs"));
    if src.join(&flat).exists() {
        flat
    } else {
        dir.join(name).join("mod.rs")
    }
}

/// Non-test lines per crate under `root`: each `crates/<name>/src`, and
/// `src` as `peanut`.
fn per_crate(root: &Path) -> Result<BTreeMap<String, usize>, String> {
    let mut srcs = vec![("peanut".to_string(), root.join("src"))];
    let crates = std::fs::read_dir(root.join("crates")).map_err(|e| format!("crates/: {e}"))?;
    for entry in crates.flatten() {
        let src = entry.path().join("src");
        if src.is_dir() {
            srcs.push((entry.file_name().to_string_lossy().into_owned(), src));
        }
    }
    let mut out = BTreeMap::new();
    for (name, src) in srcs {
        let files = collect_files(&src, ".rs");
        let mut counted = Vec::new();
        let mut test_files = Vec::new();
        for file in &files {
            let content = std::fs::read_to_string(src.join(file))
                .map_err(|e| format!("{}: {e}", src.join(file).display()))?;
            let (lines, test_mods) = count(&content);
            counted.push((file, lines));
            test_files.extend(test_mods.iter().map(|m| mod_file(&src, file, m)));
        }
        let total = counted
            .into_iter()
            .filter(|(file, _)| !test_files.iter().any(|t| rel_str(t) == rel_str(file)))
            .map(|(_, lines)| lines)
            .sum();
        out.insert(name, total);
    }
    Ok(out)
}

/// Prints the count of the repository, or of the checkout at `root`.
pub fn run(root: Option<PathBuf>) -> ExitCode {
    let root = root.unwrap_or_else(crate::lint::repo_root);
    match per_crate(&root) {
        Ok(counts) => {
            for (name, lines) in &counts {
                println!("{name:<16} {lines:>7}");
            }
            println!("{:<16} {:>7}", "total", counts.values().sum::<usize>());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blank_comment_and_test_lines_do_not_count() {
        let src = "//! docs\n\
                   use a::b;\n\
                   \n\
                   /// doc\n\
                   fn f() {\n    g(); // trailing\n}\n\
                   /* block\n   still block */\n\
                   #[cfg(test)]\n\
                   mod tests {\n    #[test]\n    fn t() {\n        let s = \"}\";\n    }\n}\n";
        assert_eq!(count(src), (4, vec![]));
    }

    #[test]
    fn a_test_only_helper_ends_at_its_closing_brace() {
        let src = "struct A;\n\
                   impl A {\n\
                   \x20   #[cfg(test)]\n\
                   \x20   #[inline]\n\
                   \x20   fn helper(&self) -> char {\n        '}'\n    }\n\
                   \x20   fn shipped(&self) {}\n\
                   }\n";
        assert_eq!(
            count(src).0,
            4,
            "struct, impl, shipped and the closing brace"
        );
    }

    #[test]
    fn a_test_only_module_declaration_names_its_file() {
        let src = "#[cfg(test)]\nmod difftests;\npub mod domain;\n#[cfg(any(test, feature = \"x\"))]\nfn both() {}\n";
        assert_eq!(count(src), (3, vec!["difftests".to_string()]));
        let src = Path::new("crates/pgm/src");
        assert_eq!(
            mod_file(src, Path::new("lib.rs"), "difftests"),
            Path::new("difftests/mod.rs"),
            "no flat file under this root: the directory form"
        );
        assert_eq!(
            mod_file(src, Path::new("potential.rs"), "kernels"),
            Path::new("potential/kernels/mod.rs")
        );
    }

    #[test]
    fn the_repo_counts_every_crate() {
        let counts = per_crate(&crate::lint::repo_root()).unwrap();
        assert!(counts.len() >= 10, "{counts:?}");
        assert!(counts.values().all(|&n| n > 0), "{counts:?}");
    }
}
