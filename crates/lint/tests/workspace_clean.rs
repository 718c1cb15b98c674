//! The gate itself, as a test: the real workspace must be lint-clean.
//! This is the same analysis `make lint` runs — keeping it in the test
//! suite means `cargo test --workspace` already enforces the
//! determinism & robustness contracts.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

#[test]
fn the_workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = pm_lint::analyze_root(&root).expect("workspace readable");
    let rendered: Vec<String> = findings
        .iter()
        .map(|f| format!("{}:{} {} {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(
        findings.is_empty(),
        "the workspace violates the determinism/robustness contracts:\n{}",
        rendered.join("\n")
    );
}

/// The suppression debt may only shrink: each rule's count of valid
/// `lint:allow` markers over the scanned workspace must stay at or
/// below the ceiling recorded here (rules not listed allow none).
/// Lower a ceiling when a PR burns markers down; raising one needs the
/// same review as the marker it admits.
#[test]
fn allow_markers_only_ratchet_down() {
    const CEILINGS: [(&str, usize); 2] = [("panic", 7), ("unordered-map", 5)];
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let counts = pm_lint::allow_marker_counts(&root).expect("workspace readable");
    let over: Vec<String> = counts
        .iter()
        .filter(|(rule, n)| {
            let ceiling = CEILINGS.iter().find(|(r, _)| r == *rule);
            **n > ceiling.map_or(0, |c| c.1)
        })
        .map(|(rule, n)| format!("{rule}: {n}"))
        .collect();
    assert!(
        over.is_empty(),
        "lint:allow markers above their ceilings: {}",
        over.join(", ")
    );
}

/// The fully-`pub` API surface may only shrink. Counted by
/// `scripts/loc.sh`'s rule: a non-test line (see [`non_test_lines`]) of
/// a `src/` file that opens with `pub fn|struct|enum|trait|type|const`,
/// across `crates/*/src` and the root package's `src/`. Lower the
/// ceiling when a PR shrinks the surface; raising it needs the same
/// review as the items it admits.
#[test]
fn public_items_only_ratchet_down() {
    const CEILING: usize = 752;
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut dirs = vec![root.join("src")];
    for krate in fs::read_dir(root.join("crates")).expect("crates/ readable") {
        dirs.push(krate.expect("crates/ entry").path().join("src"));
    }
    let mut count = 0;
    while let Some(dir) = dirs.pop() {
        // `crates/vendor` holds packages, not a `src/` of its own.
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for path in entries.map(|e| e.expect("dir entry").path()) {
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let src = fs::read_to_string(&path).expect("source readable");
                count += non_test_lines(&src)
                    .into_iter()
                    .filter(|l| opens_pub_item(l))
                    .count();
            }
        }
    }
    assert!(
        count <= CEILING,
        "{count} fully-pub items, above the ceiling of {CEILING}"
    );
}

/// A fully-`pub` fn, method included, that no other file uses is
/// surface nobody uses: narrow it, make it test-only, or delete it. A
/// finding is a non-test `pub fn` of a `src/` file whose name is among
/// the [`used_names`] of no other `.rs` file under `crates/`, `src/`,
/// `tests/`, `examples/` and `perfbench/src` (the benchmark only calls;
/// the vendored crates and the lint fixtures neither define nor call).
/// A name counts as used only in code, not in a comment or a literal,
/// and not where a `let` or `fn` binds it: a local variable or another
/// type's fn of the same name is not a caller. The count may only
/// shrink, and it is down to zero: any finding fails. A fn of an
/// `impl T` block with no `self` receiver is called by path, so for it
/// only `T::name` in another file counts (see [`dead_pub_fns`]).
/// Blind spot: methods still match by name, so a dead method whose
/// name another file also calls (`len`, a same-named method elsewhere)
/// is not found.
#[test]
fn pub_fns_have_outside_callers() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let skip = ["crates/vendor", "crates/lint/fixtures"].map(|d| root.join(d));
    let mut dirs: Vec<_> = ["crates", "src", "tests", "examples", "perfbench/src"]
        .iter()
        .map(|d| root.join(d))
        .collect();
    let mut files = Vec::new();
    while let Some(dir) = dirs.pop() {
        for path in fs::read_dir(&dir)
            .expect("dir readable")
            .map(|e| e.expect("dir entry").path())
        {
            if skip.contains(&path) || path.ends_with("target") {
                continue;
            }
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let src = fs::read_to_string(&path).expect("source readable");
                let name = path.strip_prefix(&root).unwrap_or(&path).display();
                files.push((name.to_string(), src));
            }
        }
    }
    let found = dead_pub_fns(&files);
    assert!(
        found.is_empty(),
        "pub fns no other file uses:\n{}",
        found.join("\n")
    );
}

/// `path: name` of each non-test `pub fn` of a `src/` file (outside
/// `perfbench/`) that no other file uses. A method (a fn whose first
/// parameter is a `self` receiver) or a free fn is used where another
/// file's [`used_names`] hold its name. A fn of an `impl T` block that
/// takes no receiver is called by path, so it is used only where
/// another file's code writes `T::name`: another type's `new` is not a
/// caller.
fn dead_pub_fns(files: &[(String, String)]) -> Vec<String> {
    let used: Vec<BTreeSet<String>> = files.iter().map(|(_, src)| used_names(src)).collect();
    let code: Vec<String> = files
        .iter()
        .map(|(_, src)| pm_lint::lexer::scrub(src).chars.into_iter().collect())
        .collect();
    let mut found = Vec::new();
    for (i, (path, src)) in files.iter().enumerate() {
        if path.starts_with("perfbench") || !path.split('/').any(|c| c == "src") {
            continue;
        }
        let lines = non_test_lines(src);
        // (indent, type) of the `impl` block the scan is inside.
        let mut owner: Option<(usize, String)> = None;
        for (k, line) in lines.iter().enumerate() {
            let text = line.trim_start();
            let indent = line.len() - text.len();
            if text.starts_with("impl ") || text.starts_with("impl<") {
                owner = Some((indent, impl_type(text)));
            } else if text.starts_with('}') && owner.as_ref().is_some_and(|o| o.0 == indent) {
                owner = None;
            }
            let Some(rest) = text.strip_prefix("pub fn ") else {
                continue;
            };
            let name = rest
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .next()
                .unwrap_or_default();
            let others = (0..files.len()).filter(|&j| j != i);
            let is_used = match &owner {
                Some((_, ty)) if !takes_self(&lines[k..]) => {
                    let path = format!("{ty}::{name}");
                    others.into_iter().any(|j| writes_path(&code[j], &path))
                }
                _ => others.into_iter().any(|j| used[j].contains(name)),
            };
            if !is_used {
                found.push(format!("{path}: {name}"));
            }
        }
    }
    found
}

/// The type an `impl` header line implements for: `T` of `impl T {`,
/// `impl<G> T<G> {` and `impl Trait for a::T {`.
fn impl_type(header: &str) -> String {
    let mut rest = &header["impl".len()..];
    if rest.starts_with('<') {
        // Skip the impl's generics; the `>` of a `->` closes nothing.
        let (mut depth, mut prev) = (0, ' ');
        for (at, c) in rest.char_indices() {
            match c {
                '<' => depth += 1,
                '>' if prev != '-' => depth -= 1,
                _ => {}
            }
            prev = c;
            if depth == 0 {
                rest = &rest[at + 1..];
                break;
            }
        }
    }
    let rest = rest.rsplit(" for ").next().unwrap_or(rest).trim_start();
    let path = rest
        .split(|c: char| c == '<' || c == '{' || c.is_whitespace())
        .next()
        .unwrap_or_default();
    path.rsplit("::").next().unwrap_or(path).to_string()
}

/// True when the fn whose signature starts at `lines[0]` (and may run
/// over several lines, up to its body's `{` or a `;`) takes a `self`
/// receiver as its first parameter.
fn takes_self(lines: &[&str]) -> bool {
    let mut sig = String::new();
    for line in lines {
        sig.push_str(line);
        sig.push(' ');
        if line.contains('{') || line.contains(';') {
            break;
        }
    }
    // The parameter list opens at the first `(` outside the fn's
    // generics (whose bounds may hold `Fn(..)`).
    let (mut depth, mut prev) = (0, ' ');
    let open = sig.char_indices().find(|&(_, c)| {
        match c {
            '<' => depth += 1,
            '>' if prev != '-' => depth -= 1,
            _ => {}
        }
        prev = c;
        c == '(' && depth == 0
    });
    let Some((at, _)) = open else {
        return false;
    };
    let first = sig[at + 1..].split([',', ')']).next().unwrap_or_default();
    let pattern = first.split(':').next().unwrap_or_default();
    pattern
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .any(|w| w == "self")
}

/// True when the scrubbed `code` writes `path` (`T::name`) as a whole
/// path, not as the tail of a longer name.
fn writes_path(code: &str, path: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices(path).any(|(at, _)| {
        let before = code[..at].chars().next_back();
        let after = code[at + path.len()..].chars().next();
        !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
    })
}

/// The identifiers `src` uses: the words of its code as
/// `pm_lint::lexer::scrub` leaves it (comments and literals blanked),
/// less each word a `let`, `let mut` or `fn` binds. A name the file
/// binds that way is its own local or fn wherever it stands bare, so
/// for such a name only a method or path use (`.name`, `::name`)
/// counts.
fn used_names(src: &str) -> BTreeSet<String> {
    let code: Vec<char> = pm_lint::lexer::scrub(src).chars;
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    // (word, bound here, after `.` or `::`)
    let mut words: Vec<(String, bool, bool)> = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if !is_ident(code[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < code.len() && is_ident(code[i]) {
            i += 1;
        }
        let word: String = code[start..i].iter().collect();
        let before: String = code[..start]
            .iter()
            .rev()
            .skip_while(|c| c.is_whitespace())
            .take(2)
            .collect();
        let qualified = before.starts_with('.') || before == "::";
        let n = words.len();
        let prev = |k: usize| (n >= k).then(|| words[n - k].0.as_str());
        let bound = matches!(
            (prev(2), prev(1)),
            (_, Some("let" | "fn")) | (Some("let"), Some("mut"))
        );
        words.push((word, bound, qualified));
    }
    let bound: BTreeSet<&str> = words.iter().filter(|w| w.1).map(|w| w.0.as_str()).collect();
    words
        .iter()
        .filter(|(word, binding, qualified)| {
            !binding && (*qualified || !bound.contains(word.as_str()))
        })
        .map(|(word, _, _)| word.clone())
        .collect()
}

/// The shape that hid `OccupancyDist::cdf`: its only other "uses" were
/// local variables named `cdf` (bound, then read), a doc comment, a
/// string and a free fn of the same name. None is a caller, so the fn
/// is found; a method call in a third file clears it.
#[test]
fn dead_pub_fns_look_past_bindings_comments_and_literals() {
    let dist = "\
pub struct OccupancyDist;
impl OccupancyDist {
    pub fn cdf(&self, x: f64) -> f64 { x }
    pub fn mean(&self) -> f64 { 0.0 }
}
";
    let ci = "\
//! Reads the occupancy `cdf`.
fn interval(d: &OccupancyDist) -> f64 {
    let cdf = d.mean();
    let mut width = cdf * 2.0;
    width += \"cdf\".len() as f64;
    width
}
fn cdf(x: f64) -> f64 { x }
";
    let files = |extra: &str| {
        vec![
            ("crates/stats/src/dist.rs".to_string(), dist.to_string()),
            ("crates/stats/src/psc_ci.rs".to_string(), ci.to_string()),
            ("crates/core/src/asn.rs".to_string(), extra.to_string()),
        ]
    };
    let asn = "fn share(n: u64) -> u64 { let cdf = n; cdf }";
    assert_eq!(dead_pub_fns(&files(asn)), ["crates/stats/src/dist.rs: cdf"]);
    let caller = "fn tail(d: &OccupancyDist) -> f64 { 1.0 - d.cdf(3.0) }";
    assert!(dead_pub_fns(&files(caller)).is_empty());
    let names = used_names(ci);
    assert!(names.contains("mean") && names.contains("len"));
    // Bound here, so a bare read is the local's.
    assert!(!names.contains("cdf") && !names.contains("width"));
    assert!(used_names("let cdf = d.cdf(1.0);").contains("cdf"));

    // The shape that hid `CpNode::new`: a fn with no receiver, whose
    // signature runs over several lines, is called by path, so
    // another type's `new` and a bare `new` word are not callers of
    // it. The multi-line method beside it still counts by name.
    let node = "\
pub struct Node;
impl Node {
    pub fn new(
        seed: u64,
    ) -> Node { Node }
    pub fn role(
        &self,
    ) -> u64 { 0 }
}
";
    let files = |extra: &str| {
        vec![
            ("crates/psc/src/cp.rs".to_string(), node.to_string()),
            ("crates/psc/src/ts.rs".to_string(), extra.to_string()),
        ]
    };
    let others = "fn f(n: &Node) -> u64 { let t = Table::new(); let new = 1; n.role() + new }";
    assert_eq!(dead_pub_fns(&files(others)), ["crates/psc/src/cp.rs: new"]);
    let caller = "fn g() -> u64 { crate::cp::Node::new(1).role() }";
    assert!(dead_pub_fns(&files(caller)).is_empty());
    assert!(!takes_self(&[
        "    pub fn new(",
        "        seed: u64,",
        "    ) -> Node {"
    ]));
    assert!(takes_self(&[
        "    pub fn role(",
        "        &self,",
        "    ) -> u64 {"
    ]));
    assert!(takes_self(&[
        "pub fn map<F: Fn(u8) -> u8>(&'a mut self, f: F) {"
    ]));
    assert_eq!(impl_type("impl<G: Group> Table<G> {"), "Table");
    assert_eq!(impl_type("impl fmt::Display for crate::cp::Node {"), "Node");
}

/// The `unsafe` keyword may only shrink too: the lane kernels in
/// `crates/crypto/src/lanes.rs` share one `unsafe` block, entered after
/// one runtime feature check, the SHA-256 compression kernel in
/// `crates/crypto/src/sha_ni.rs` has the other, and no other code has
/// any. The ceiling rose from one to two with that second sanctioned
/// kernel: every Fiat–Shamir transcript, proof-batch weight and table
/// hash runs through it, and hashing was a quarter to a third of a
/// verified PSC round on the scalar code. Counted on
/// the lexer's scrubbed text (comments and literals blanked, so
/// `unsafe_code` lint names and prose do not count) over every scanned
/// file outside `target/`, the vendored crates and the lint fixtures.
#[test]
fn unsafe_blocks_only_ratchet_down() {
    const CEILING: usize = 2;
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let skip = ["target", "crates/vendor", "crates/lint/fixtures"].map(|d| root.join(d));
    let (mut dirs, mut found, mut total) = (vec![root.clone()], Vec::new(), 0);
    while let Some(dir) = dirs.pop() {
        for path in fs::read_dir(&dir)
            .expect("dir readable")
            .map(|e| e.expect("dir entry").path())
        {
            let hidden = path
                .file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with('.'));
            if hidden || skip.contains(&path) || path.ends_with("target") {
                continue;
            }
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let src = fs::read_to_string(&path).expect("source readable");
                let code: String = pm_lint::lexer::scrub(&src).chars.into_iter().collect();
                let words = code.split(|c: char| !(c.is_alphanumeric() || c == '_'));
                let n = words.filter(|w| *w == "unsafe").count();
                if n > 0 {
                    found.push(format!(
                        "{}: {n}",
                        path.strip_prefix(&root).unwrap_or(&path).display()
                    ));
                }
                total += n;
            }
        }
    }
    assert!(
        total <= CEILING,
        "{total} `unsafe` keywords, above the ceiling of {CEILING}: {}",
        found.join(", ")
    );
    assert!(
        total > 0,
        "the kernels' blocks were not found: is the scan looking?"
    );
}

fn opens_pub_item(line: &str) -> bool {
    let rest = line.trim_start_matches([' ', '\t']);
    ["fn", "struct", "enum", "trait", "type", "const"]
        .iter()
        .any(|kw| rest.starts_with(&format!("pub {kw} ")))
}

/// The lines of a `src/` file that are not test code, by the rule
/// `scripts/loc.sh` counts with: a line is test code when it lies inside
/// an item (a `mod`, `fn`, `use`, statement, ...) whose attribute line
/// starts with `#[cfg(test)]`, from that line to the `}` that brings the
/// item's brace depth back to zero, or to its `;` when the item has no
/// body. A comment that mentions `#[cfg(test)]` cuts nothing.
fn non_test_lines(src: &str) -> Vec<&str> {
    let mut kept = Vec::new();
    // (brace depth, paren/bracket depth) inside the current test item.
    let mut item: Option<(i32, i32)> = None;
    for line in src.lines() {
        let text = match item {
            Some(_) => line,
            None => match line
                .trim_start_matches([' ', '\t'])
                .strip_prefix("#[cfg(test)]")
            {
                Some(rest) => rest,
                None => {
                    kept.push(line);
                    continue;
                }
            },
        };
        let (depth, nest) = item.get_or_insert((0, 0));
        if item_ends(text, depth, nest) {
            item = None;
        }
    }
    kept
}

/// Scans one line of a test item; true when the item ends on it. A `;`
/// ends an item only outside braces and brackets, so `[u8; 4]` in a
/// signature does not.
fn item_ends(text: &str, depth: &mut i32, nest: &mut i32) -> bool {
    for c in text.chars() {
        match c {
            '{' => *depth += 1,
            '}' => {
                *depth -= 1;
                if *depth == 0 {
                    return true;
                }
            }
            '(' | '[' => *nest += 1,
            ')' | ']' => *nest -= 1,
            ';' if *depth == 0 && *nest == 0 => return true,
            _ => {}
        }
    }
    false
}

#[test]
fn non_test_lines_follow_cfg_test_items() {
    let src = "\
//! Mentions `#[cfg(test)]` in a doc comment.
use std::fmt;
#[cfg(test)]
use std::cell::Cell;
pub fn a() {}
    #[cfg(test)]
    fn counted(x: [u8; 4]) -> usize {
        x.len()
    }
#[cfg(test)]
pub(crate) mod ops {
    pub fn tick() {}
}
pub fn b() {
    #[cfg(test)]
    ops::tick();
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {}
}
";
    assert_eq!(
        non_test_lines(src),
        [
            "//! Mentions `#[cfg(test)]` in a doc comment.",
            "use std::fmt;",
            "pub fn a() {}",
            "pub fn b() {",
            "}",
        ]
    );
}
