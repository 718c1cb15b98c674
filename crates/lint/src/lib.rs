//! `pm-lint` — workspace static analysis for the determinism &
//! robustness contracts.
//!
//! Every guarantee this reproduction makes — bit-identical transcripts
//! across thread and shard counts, grouping-independent ground truth,
//! abort-don't-panic rounds — is dynamic by nature: a test has to get
//! lucky enough to exercise a violation. This crate turns the
//! contracts into a machine-checked gate that runs on every source
//! file of the workspace, with no dependencies (not even `syn`): a
//! hand-rolled lexer ([`lexer`]) blanks comments and literals, and a
//! token scan ([`rules`]) drives seven cross-file rules:
//!
//! 1. **entropy** — `thread_rng`, `from_entropy`, `SystemTime::now`,
//!    and `Instant::now` are forbidden everywhere the analyzer scans
//!    (`crates/vendor` is excluded — vendored code is not ours). One
//!    structural sanction:
//!    `crates/obs/src/clock.rs` may read the wall clock — it is the
//!    single clock site feeding the profiling plane, which is excluded
//!    from every transcript.
//! 2. **unordered-map** — `HashMap`/`HashSet` in the protocol/report
//!    crates (`psc`, `privcount`, `net`, `study`, `core`) must be
//!    converted to ordered containers or carry a justification marker:
//!    an unordered iteration feeding a transcript or report is exactly
//!    the class of bug the shard-invariance suites exist to catch.
//! 3. **seed-label** — every literal or format-string label passed to
//!    `derive_seed` across the workspace is collected into a registry;
//!    two distinct call sites sharing one (normalized) label alias two
//!    logically independent RNG streams and fail the gate.
//! 4. **panic** — `.unwrap()`, `.expect(…)`, and `panic!`-family
//!    macros in protocol round paths (`psc`, `privcount`, `net`,
//!    `study`) must carry a justification marker or be converted to
//!    the threaded `Result`/`RoundDisposition` flow.
//! 5. **obs-readback** — the protocol crates (`psc`, `privcount`,
//!    `net`) must never call `read_snapshot` or `read_counter`:
//!    protocol code writes metrics, it does not branch on them — a
//!    readback would let observability feed back into transcripts.
//! 6. **raw-socket** — `std::net` (`TcpListener`, `TcpStream`,
//!    `UdpSocket`) is forbidden everywhere the analyzer scans, test
//!    regions included: real I/O anywhere else would silently escape
//!    the deterministic fault and schedule machinery. One structural
//!    sanction, mirroring the clock: `crates/net/src/wire.rs` — the
//!    socket-backed wire fabric — is the single file allowed to open
//!    sockets.
//! 7. **unsafe-code** — the `unsafe` keyword and `std::arch` /
//!    `core::arch` paths are forbidden everywhere the analyzer scans,
//!    test regions included. Two structural sanctions:
//!    `crates/crypto/src/lanes.rs` — the AVX-512 IFMA lane kernel — and
//!    `crates/crypto/src/sha_ni.rs` — the SHA-256 kernel on the x86 SHA
//!    extensions — hold the workspace's two `unsafe` blocks, one each,
//!    the kernel call after runtime CPU feature detection.
//!
//! Suppression is explicit and audited: `// lint:allow(<rule>)
//! <reason>` on the offending line or the line above, with the reason
//! mandatory (see [`rules`] for the grammar). Test code
//! (`#[cfg(test)]` regions, `tests/`, `benches/`) is exempt from rules
//! 2–5 but not from rules 1, 6 and 7.
//!
//! The `pm-lint` binary prints findings as `file:line rule message`,
//! exports machine-readable JSON via `--json PATH`, and exits nonzero
//! on any unallowed finding. Its own test suite runs the analyzer over
//! `fixtures/` (a mini-workspace of seeded violations, asserting each
//! is reported exactly once) and over the real workspace (asserting it
//! is clean, and that the per-rule count of allow markers never
//! exceeds its recorded ceiling) — the gate cannot rot silently.

pub mod lexer;
pub mod rules;

pub use rules::Finding;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories never scanned, relative to the analyzed root.
const EXCLUDED_PREFIXES: [&str; 3] = ["target/", "crates/vendor/", "crates/lint/fixtures/"];

/// Collects every `.rs` file under `root` (sorted, exclusions applied)
/// as root-relative `/`-separated paths.
fn collect_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut stack = vec![root.to_path_buf()];
    let mut files = Vec::new();
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            let rel = relative(root, &path);
            if path.is_dir() {
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if name.starts_with('.') {
                    continue;
                }
                if EXCLUDED_PREFIXES
                    .iter()
                    .any(|p| rel == p.trim_end_matches('/') || rel.starts_with(p))
                {
                    continue;
                }
                stack.push(path);
            } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// One pass over every source file under `root`: the sorted findings
/// and the number of valid `lint:allow` markers per rule.
fn scan_root(root: &Path) -> io::Result<(Vec<Finding>, BTreeMap<String, usize>)> {
    let mut findings = Vec::new();
    let mut seed_labels = Vec::new();
    let mut markers = BTreeMap::new();
    for path in collect_sources(root)? {
        let rel = relative(root, &path);
        let src = fs::read_to_string(&path)?;
        let scrubbed = lexer::scrub(&src);
        let report = rules::analyze_file(&rel, &scrubbed);
        findings.extend(report.findings);
        seed_labels.extend(report.seed_labels);
        for rule in report.allow_markers {
            *markers.entry(rule).or_insert(0) += 1;
        }
    }
    findings.extend(rules::seed_registry_findings(&seed_labels));
    findings.sort();
    findings.dedup();
    Ok((findings, markers))
}

/// Analyzes every source file under `root` and returns the sorted
/// findings (file, line, rule).
pub fn analyze_root(root: &Path) -> io::Result<Vec<Finding>> {
    Ok(scan_root(root)?.0)
}

/// Counts the valid `lint:allow(<rule>)` markers under `root`, per
/// rule — the suppression debt the workspace test ratchets down.
pub fn allow_marker_counts(root: &Path) -> io::Result<BTreeMap<String, usize>> {
    Ok(scan_root(root)?.1)
}

/// Renders findings as a JSON document (hand-rolled — the gate stays
/// dependency-free).
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!(
            "\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"",
            json_escape(&f.file),
            f.line,
            f.rule,
            json_escape(&f.message)
        ));
        out.push('}');
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!("],\n  \"total\": {}\n}}\n", findings.len()));
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_quotes_and_newlines() {
        let f = vec![Finding {
            file: "a.rs".into(),
            line: 3,
            rule: rules::RULE_ENTROPY,
            message: "say \"hi\"\nback".into(),
        }];
        let j = render_json(&f);
        assert!(j.contains("\\\"hi\\\""));
        assert!(j.contains("\\n"));
        assert!(j.contains("\"total\": 1"));
    }

    #[test]
    fn empty_findings_render_as_empty_array() {
        let j = render_json(&[]);
        assert!(j.contains("\"findings\": []"));
        assert!(j.contains("\"total\": 0"));
    }
}
