//! The gate itself, as a test: the real workspace must be lint-clean.
//! This is the same analysis `make lint` runs — keeping it in the test
//! suite means `cargo test --workspace` already enforces the
//! determinism & robustness contracts.

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
    const CEILINGS: [(&str, usize); 2] = [("panic", 10), ("unordered-map", 6)];
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
