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
//! only from a line that opens it.
//!
//! Beside the lines it counts each library's public items: the items its
//! users can name from the crate root ([`public_items`]). An item counts
//! when it is declared `pub` — not `pub(crate)` or any other restricted
//! form — at the level of a module reachable from `lib.rs` through `pub
//! mod` declarations, or inside an `impl` block there; and each name a
//! reachable module's `pub use` re-exports counts, unless it comes from a
//! `pub mod` of the same file, whose items count where they are declared.
//! Items under `#[cfg(test)]` or `#[doc(hidden)]` do not count, nor do
//! fields, variants and trait members; both arms of a `cfg` alternative
//! do. It prints one line per crate and the totals, and fails only when a
//! file cannot be read.

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

/// What an open brace of [`public_items`]'s walk belongs to.
#[derive(Clone, Copy, PartialEq)]
enum Block {
    /// An inline module, public or not.
    Module(bool),
    /// An `impl` block.
    Impl,
    /// Anything else: a body, an initializer, a type's fields.
    Other,
}

/// The public items `content`, a module file whose own module is
/// reachable from its crate's root, declares (module docs), and the `pub
/// mod name;` declarations at its reachable levels, whose files hold more.
pub fn public_items(content: &str) -> (usize, Vec<String>) {
    let lines: Vec<String> = content.lines().map(code_of).collect();
    // the file's `pub mod`s: a `pub use` of their items counts nothing
    let pub_mods: Vec<&str> = lines
        .iter()
        .filter_map(|l| l.trim().strip_prefix("pub mod "))
        .map(|rest| {
            rest.split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .next()
                .unwrap_or("")
        })
        .collect();
    let (mut items, mut files) = (0, Vec::new());
    let mut blocks: Vec<Block> = Vec::new();
    // the kind of the next block to open, once its header is read
    let mut pending: Option<Block> = None;
    // `Some(depth)` while skipping an item under `#[cfg(test)]` or
    // `#[doc(hidden)]`: the blocks open before it
    let mut skipping: Option<usize> = None;
    let mut hide_next = false;
    // a `pub use` spanning lines, until its `;`
    let mut re_export: Option<String> = None;
    let mut in_block_comment = false;
    for (line, raw) in lines.iter().zip(content.lines()) {
        let t = line.trim();
        let raw = raw.trim();
        if in_block_comment {
            in_block_comment = !raw.contains("*/");
            continue;
        }
        if raw.starts_with("/*") {
            in_block_comment = !raw.contains("*/");
            continue;
        }
        if t.is_empty() {
            continue;
        }
        if let Some(text) = &mut re_export {
            text.push_str(t);
            if t.ends_with(';') {
                items += re_exported(text, &pub_mods);
                re_export = None;
            }
            continue;
        }
        let reachable = skipping.is_none()
            && blocks
                .iter()
                .all(|b| !matches!(b, Block::Module(false) | Block::Other));
        if skipping.is_none() && (t.starts_with("#[cfg(test)]") || t.starts_with("#[doc(hidden)]"))
        {
            hide_next = true;
        }
        if hide_next && !t.starts_with("#[") {
            hide_next = false;
            skipping = Some(blocks.len());
        }
        if reachable && skipping.is_none() && !t.starts_with("#[") {
            let kind = item_kind(t);
            if let Some(rest) = t.strip_prefix("pub ") {
                match kind {
                    Some("use") => {
                        let text = rest.to_string();
                        if t.ends_with(';') {
                            items += re_exported(&text, &pub_mods);
                        } else {
                            re_export = Some(text);
                        }
                    }
                    Some("mod") if t.ends_with(';') => {
                        items += 1;
                        files.extend(declared_mod(t).map(str::to_string));
                    }
                    Some(_) => items += 1,
                    None => {}
                }
            }
            pending = match kind {
                Some("mod") => Some(Block::Module(t.starts_with("pub "))),
                Some("impl") => Some(Block::Impl),
                _ => None,
            };
        }
        for c in t.chars() {
            match c {
                '{' => blocks.push(pending.take().unwrap_or(Block::Other)),
                '}' => {
                    blocks.pop();
                }
                ';' if pending.is_some() && blocks.is_empty() => pending = None,
                _ => {}
            }
        }
        if skipping
            .is_some_and(|depth| blocks.len() <= depth && (t.ends_with('}') || t.ends_with(';')))
        {
            skipping = None;
        }
    }
    (items, files)
}

/// The item keyword a line opens with, after `pub ` and qualifiers:
/// `"fn"`, `"struct"`, `"mod"`, `"use"`, `"impl"` and so on — the first
/// keyword among its first words not followed by another (`const fn` is
/// a function); `None` for any other line.
fn item_kind(line: &str) -> Option<&'static str> {
    const KINDS: [&str; 12] = [
        "fn",
        "struct",
        "enum",
        "union",
        "trait",
        "type",
        "const",
        "static",
        "mod",
        "use",
        "impl",
        "macro_rules!",
    ];
    let kind = |word: &str| {
        let word = word.split(['<', '(', '{', ':']).next().unwrap_or("");
        KINDS.iter().find(|&&k| k == word).copied()
    };
    let kinds: Vec<Option<&'static str>> = line
        .split_whitespace()
        .take(5)
        .map(kind)
        .chain([None])
        .collect();
    kinds
        .windows(2)
        .find_map(|pair| pair[0].filter(|_| pair[1].is_none()))
}

/// The names a `pub use` statement (its text after `pub `) re-exports:
/// one per path leaf, none when its path starts at one of `pub_mods`.
fn re_exported(text: &str, pub_mods: &[&str]) -> usize {
    let path = text.trim_start_matches("use ").trim_end_matches(';').trim();
    let first = path.split("::").next().unwrap_or("");
    let first = first.strip_prefix("self::").unwrap_or(first);
    if pub_mods.contains(&first) {
        return 0;
    }
    match path.find('{') {
        None => 1,
        Some(open) => path[open..]
            .split([',', '{', '}'])
            .filter(|leaf| !leaf.trim().is_empty() && !leaf.trim().ends_with("::"))
            .count(),
    }
}

/// The public items of the library whose source root is `src`: its
/// `lib.rs` and the files of its reachable `pub mod`s (0 without a
/// `lib.rs`).
fn crate_items(src: &Path) -> Result<usize, String> {
    let mut total = 0;
    let mut queue = vec![PathBuf::from("lib.rs")];
    while let Some(file) = queue.pop() {
        let path = src.join(&file);
        if !path.exists() {
            continue;
        }
        let content =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let (items, mods) = public_items(&content);
        total += items;
        queue.extend(mods.iter().map(|m| mod_file(src, &file, m)));
    }
    Ok(total)
}

/// Non-test lines and public items per crate under `root`: each
/// `crates/<name>/src`, and `src` as `peanut`.
fn per_crate(root: &Path) -> Result<BTreeMap<String, (usize, usize)>, String> {
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
        out.insert(name, (total, crate_items(&src)?));
    }
    Ok(out)
}

/// Prints the count of the repository, or of the checkout at `root`.
pub fn run(root: Option<PathBuf>) -> ExitCode {
    let root = root.unwrap_or_else(crate::lint::repo_root);
    match per_crate(&root) {
        Ok(counts) => {
            println!("{:<16} {:>7} {:>7}", "crate", "lines", "items");
            for (name, (lines, items)) in &counts {
                println!("{name:<16} {lines:>7} {items:>7}");
            }
            let lines = counts.values().map(|c| c.0).sum::<usize>();
            let items = counts.values().map(|c| c.1).sum::<usize>();
            println!("{:<16} {lines:>7} {items:>7}", "total");
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
        assert!(counts.values().all(|&(n, _)| n > 0), "{counts:?}");
        assert!(counts["pgm"].1 > 0 && counts["peanut"].1 > 0, "{counts:?}");
    }

    /// The fixture's public items: `f`, `S` and its method `m`, the trait
    /// `T`, the pub modules `file` (whose file is named), `inner` and
    /// `inner::deep`, `inner::g`, `Deep`, and the two names re-exported
    /// from the private `hidden`. Not counted: restricted, private and test-only
    /// items, a `#[doc(hidden)]` one, fields, trait members, what lies
    /// inside a private module or a function body, and a re-export from
    /// a `pub mod` of the same file.
    #[test]
    fn public_items_are_the_ones_a_user_can_name() {
        let src = "//! docs\n\
                   pub mod file;\n\
                   mod hidden;\n\
                   pub use hidden::{A, b::B};\n\
                   pub use inner::g;\n\
                   pub fn f(\n    x: u32,\n) -> u32 {\n    x\n}\n\
                   pub(crate) fn restricted() {}\n\
                   fn private() { pub struct InBody; }\n\
                   #[doc(hidden)]\n\
                   pub fn undocumented() {}\n\
                   pub struct S {\n    pub field: u32,\n}\n\
                   impl S {\n    pub fn m(&self) {}\n    fn n(&self) {}\n}\n\
                   pub trait T {\n    fn t(&self);\n}\n\
                   pub mod inner {\n    pub fn g() {}\n    pub mod deep {\n        pub struct Deep;\n    }\n}\n\
                   mod private_mod {\n    pub fn unreachable() {}\n}\n\
                   #[cfg(test)]\n\
                   mod tests {\n    pub fn helper() {}\n}\n";
        let (items, files) = public_items(src);
        assert_eq!(files, vec!["file".to_string()]);
        // f, S, m, T, file, inner, g, deep, Deep, A, B
        assert_eq!(items, 11);
    }
}
