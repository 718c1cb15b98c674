//! The seven contract rules, the allow-marker grammar, and the
//! `#[cfg(test)]` region detector.
//!
//! Rules operate on a [`Scrubbed`] file (comments and literals already
//! blanked, see [`crate::lexer`]) plus the file's path relative to the
//! workspace root — path prefixes decide which rules apply where:
//!
//! | rule            | scope                                                      |
//! |-----------------|------------------------------------------------------------|
//! | `entropy`       | everywhere scanned (vendor is never scanned)               |
//! | `unordered-map` | `src/` of `psc`, `privcount`, `net`, `study`, `core`       |
//! | `seed-label`    | everywhere scanned, minus `tests/`/`benches/` directories  |
//! | `panic`         | `src/` of `psc`, `privcount`, `net`, `study`               |
//! | `obs-readback`  | `src/` of `psc`, `privcount`, `net`                        |
//! | `raw-socket`    | everywhere scanned                                         |
//! | `unsafe-code`   | everywhere scanned, minus `lanes.rs` and `sha_ni.rs`       |
//!
//! Three rules carry structural sanctions. The `entropy` rule permits
//! `Instant::now` and `SystemTime::now` in `crates/obs/src/clock.rs` —
//! the *only* wall-clock read site in the workspace, feeding the
//! profiling plane that is excluded from every transcript. The
//! `raw-socket` rule permits `std::net` / `TcpListener` / `TcpStream` /
//! `UdpSocket` in `crates/net/src/wire.rs` — the *only* socket site in
//! the workspace, so every byte that leaves a process is carried by the
//! one audited wire backend behind the `Fabric` trait. The
//! `unsafe-code` rule permits the `unsafe` keyword and `std::arch` /
//! `core::arch` paths in two files: `crates/crypto/src/lanes.rs`, the
//! AVX-512 IFMA lane kernel, and `crates/crypto/src/sha_ni.rs`, the
//! SHA-extensions compression kernel — the *only* SIMD kernels in the
//! workspace, each of whose one `unsafe` block calls its kernel after
//! runtime CPU feature detection. No `lint:allow` marker
//! is involved in any sanction; any other file reading the clock,
//! opening a socket or writing `unsafe` still fails the gate.
//!
//! `obs-readback` forbids the protocol crates from *reading* the
//! metrics registry (`read_snapshot` / `read_counter`): protocol code
//! may only write counters, never branch on them — a readback would
//! let observability feed back into transcripts.
//!
//! `unordered-map`, `seed-label`, and `panic` additionally skip
//! `#[cfg(test)]` / `#[test]` regions: tests may unwrap and hash
//! freely. The `entropy` rule applies inside tests too — a test that
//! reads the clock or the OS entropy pool is nondeterministic in
//! exactly the way the contract forbids.
//!
//! A finding is suppressed by a marker comment on the same line or the
//! line directly above:
//!
//! ```text
//! // lint:allow(<rule>) <reason>
//! ```
//!
//! The reason is mandatory; a marker without one (or naming an unknown
//! rule) is itself reported under the `allow-marker` rule and does not
//! suppress anything — the gate cannot be waved through silently.

use crate::lexer::Scrubbed;

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Path relative to the analyzed root, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule identifier (`entropy`, `unordered-map`, `seed-label`,
    /// `panic`, `obs-readback`, `raw-socket`, `unsafe-code`, or
    /// `allow-marker`).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

/// Rule names.
pub const RULE_ENTROPY: &str = "entropy";
pub const RULE_UNORDERED: &str = "unordered-map";
pub const RULE_SEED: &str = "seed-label";
pub const RULE_PANIC: &str = "panic";
pub const RULE_OBS: &str = "obs-readback";
pub const RULE_SOCKET: &str = "raw-socket";
pub const RULE_UNSAFE: &str = "unsafe-code";
pub const RULE_MARKER: &str = "allow-marker";

const KNOWN_RULES: [&str; 7] = [
    RULE_ENTROPY,
    RULE_UNORDERED,
    RULE_SEED,
    RULE_PANIC,
    RULE_OBS,
    RULE_SOCKET,
    RULE_UNSAFE,
];

/// A `derive_seed` label collected for the cross-file registry.
#[derive(Debug, Clone)]
pub struct SeedLabel {
    /// Normalized label: every `{…}` placeholder collapsed to `{}`.
    pub label: String,
    pub file: String,
    pub line: u32,
    /// Whether the call site carries a valid `lint:allow(seed-label)`.
    pub allowed: bool,
}

/// A parsed allow marker (valid or not).
#[derive(Debug, Clone)]
struct Marker {
    line: u32,
    rule: String,
    valid: bool,
}

/// Everything rule evaluation produced for one file.
pub struct FileReport {
    pub findings: Vec<Finding>,
    pub seed_labels: Vec<SeedLabel>,
    /// The rule named by each valid allow marker in the file, in
    /// source order (the workspace ratchet counts these).
    pub allow_markers: Vec<String>,
}

fn in_unordered_scope(rel: &str) -> bool {
    const CRATES: [&str; 5] = [
        "crates/psc/src/",
        "crates/privcount/src/",
        "crates/net/src/",
        "crates/study/src/",
        "crates/core/src/",
    ];
    CRATES.iter().any(|p| rel.starts_with(p))
}

fn in_panic_scope(rel: &str) -> bool {
    const CRATES: [&str; 4] = [
        "crates/psc/src/",
        "crates/privcount/src/",
        "crates/net/src/",
        "crates/study/src/",
    ];
    CRATES.iter().any(|p| rel.starts_with(p))
}

fn in_obs_readback_scope(rel: &str) -> bool {
    const CRATES: [&str; 3] = [
        "crates/psc/src/",
        "crates/privcount/src/",
        "crates/net/src/",
    ];
    CRATES.iter().any(|p| rel.starts_with(p))
}

/// The one file structurally sanctioned to read the wall clock: the
/// observability crate's clock module, which confines every
/// `Instant::now` in the workspace behind the profiling plane.
fn is_sanctioned_clock(rel: &str) -> bool {
    rel == "crates/obs/src/clock.rs"
}

/// The one file structurally sanctioned to open sockets: the net
/// crate's wire backend, which confines every `std::net` use in the
/// workspace behind the `Fabric` trait.
fn is_sanctioned_socket(rel: &str) -> bool {
    rel == "crates/net/src/wire.rs"
}

/// The two files structurally sanctioned to write `unsafe` and reach
/// into `std::arch`: the crypto crate's lane kernel and its SHA-256
/// kernel, each of whose single `unsafe` block runs after runtime CPU
/// feature detection.
fn is_sanctioned_unsafe(rel: &str) -> bool {
    rel == "crates/crypto/src/lanes.rs" || rel == "crates/crypto/src/sha_ni.rs"
}

fn in_tests_dir(rel: &str) -> bool {
    rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.starts_with("benches/")
        || rel.contains("/benches/")
}

/// Parses the allow markers out of a file's comments; invalid markers
/// are reported as findings.
fn parse_markers(rel: &str, scrubbed: &Scrubbed, findings: &mut Vec<Finding>) -> Vec<Marker> {
    let mut markers = Vec::new();
    for comment in &scrubbed.comments {
        for (off, text_line) in comment.text.split('\n').enumerate() {
            let line = comment.line + off as u32;
            let trimmed = text_line.trim_start_matches(['*', ' ', '\t']);
            let Some(rest) = trimmed.strip_prefix("lint:allow(") else {
                continue;
            };
            let Some(close) = rest.find(')') else {
                findings.push(Finding {
                    file: rel.to_string(),
                    line,
                    rule: RULE_MARKER,
                    message: "unclosed lint:allow(…) marker".to_string(),
                });
                continue;
            };
            let rule = rest[..close].trim().to_string();
            let reason = rest[close + 1..].trim();
            let mut valid = true;
            if !KNOWN_RULES.contains(&rule.as_str()) {
                findings.push(Finding {
                    file: rel.to_string(),
                    line,
                    rule: RULE_MARKER,
                    message: format!("lint:allow names unknown rule `{rule}`"),
                });
                valid = false;
            }
            if reason.is_empty() {
                findings.push(Finding {
                    file: rel.to_string(),
                    line,
                    rule: RULE_MARKER,
                    message: format!("lint:allow({rule}) without a justification"),
                });
                valid = false;
            }
            markers.push(Marker { line, rule, valid });
        }
    }
    markers
}

/// `#[cfg(test)]` / `#[test]` item regions as (start, end) line ranges.
fn test_regions(scrubbed: &Scrubbed) -> Vec<(u32, u32)> {
    let chars = &scrubbed.chars;
    let n = chars.len();
    let mut regions = Vec::new();
    for attr in ["#[cfg(test)]", "#[test]"] {
        let pat: Vec<char> = attr.chars().collect();
        let mut i = 0usize;
        while i + pat.len() <= n {
            if chars[i..i + pat.len()] != pat[..] {
                i += 1;
                continue;
            }
            let start_line = scrubbed.line_at(i);
            let mut j = i + pat.len();
            // Skip whitespace and any further attributes.
            loop {
                while j < n && chars[j].is_whitespace() {
                    j += 1;
                }
                if j < n && chars[j] == '#' {
                    while j < n && chars[j] != ']' {
                        j += 1;
                    }
                    j += 1;
                } else {
                    break;
                }
            }
            // The item body: first `{` brace-matched, or a `;` item.
            while j < n && chars[j] != '{' && chars[j] != ';' {
                j += 1;
            }
            let end = if j < n && chars[j] == '{' {
                let mut depth = 0i32;
                let mut k = j;
                while k < n {
                    match chars[k] {
                        '{' => depth += 1,
                        '}' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                k
            } else {
                j
            };
            regions.push((start_line, scrubbed.line_at(end.min(n.saturating_sub(1)))));
            i += pat.len();
        }
    }
    regions
}

fn in_region(regions: &[(u32, u32)], line: u32) -> bool {
    regions.iter().any(|(a, b)| line >= *a && line <= *b)
}

/// Collapses `{…}` format placeholders to `{}` (with `{{` / `}}`
/// escapes preserved as literal braces) so `"day{d}"` and
/// `"day{}"` register as the same label.
fn normalize_label(raw: &str) -> String {
    let chars: Vec<char> = raw.chars().collect();
    let mut out = String::with_capacity(raw.len());
    let mut i = 0usize;
    while i < chars.len() {
        match chars[i] {
            '{' if chars.get(i + 1) == Some(&'{') => {
                out.push('{');
                i += 2;
            }
            '}' if chars.get(i + 1) == Some(&'}') => {
                out.push('}');
                i += 2;
            }
            '{' => {
                while i < chars.len() && chars[i] != '}' {
                    i += 1;
                }
                i += 1;
                out.push_str("{}");
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    out
}

struct Ident {
    text: String,
    start: usize,
    end: usize,
    line: u32,
}

fn idents(scrubbed: &Scrubbed) -> Vec<Ident> {
    let chars = &scrubbed.chars;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            out.push(Ident {
                text: chars[start..i].iter().collect(),
                start,
                end: i,
                line: scrubbed.line_at(start),
            });
        } else {
            i += 1;
        }
    }
    out
}

fn next_nonws(chars: &[char], mut i: usize) -> Option<(usize, char)> {
    while i < chars.len() {
        if !chars[i].is_whitespace() {
            return Some((i, chars[i]));
        }
        i += 1;
    }
    None
}

fn prev_nonws(chars: &[char], i: usize) -> Option<char> {
    let mut j = i;
    while j > 0 {
        j -= 1;
        if !chars[j].is_whitespace() {
            return Some(chars[j]);
        }
    }
    None
}

/// True when the next tokens after `end` spell `:: now`.
fn followed_by_colons_now(chars: &[char], end: usize) -> bool {
    let Some((i, c)) = next_nonws(chars, end) else {
        return false;
    };
    if c != ':' || chars.get(i + 1) != Some(&':') {
        return false;
    }
    let Some((j, c2)) = next_nonws(chars, i + 2) else {
        return false;
    };
    if !(c2.is_alphabetic() || c2 == '_') {
        return false;
    }
    let mut k = j;
    while k < chars.len() && (chars[k].is_alphanumeric() || chars[k] == '_') {
        k += 1;
    }
    chars[j..k].iter().collect::<String>() == "now"
}

/// True when the tokens before `start` spell `<root> ::` for one of
/// `roots` — e.g. the ident at `start` is the `net` of a `std::net`
/// path.
fn preceded_by_path(chars: &[char], start: usize, roots: &[&str]) -> bool {
    let mut j = start;
    // Expect `::` immediately before (whitespace-tolerant).
    while j > 0 && chars[j - 1].is_whitespace() {
        j -= 1;
    }
    if j < 2 || chars[j - 1] != ':' || chars[j - 2] != ':' {
        return false;
    }
    j -= 2;
    while j > 0 && chars[j - 1].is_whitespace() {
        j -= 1;
    }
    let end = j;
    while j > 0 && (chars[j - 1].is_alphanumeric() || chars[j - 1] == '_') {
        j -= 1;
    }
    roots.contains(&chars[j..end].iter().collect::<String>().as_str())
}

/// Runs every rule against one scrubbed file.
pub fn analyze_file(rel: &str, scrubbed: &Scrubbed) -> FileReport {
    let mut findings = Vec::new();
    let markers = parse_markers(rel, scrubbed, &mut findings);
    let regions = test_regions(scrubbed);
    let tests_dir = in_tests_dir(rel);
    let allowed = |rule: &str, line: u32| {
        markers
            .iter()
            .any(|m| m.valid && m.rule == rule && (m.line == line || m.line + 1 == line))
    };
    let mut seed_labels = Vec::new();

    for tok in idents(scrubbed) {
        let chars = &scrubbed.chars;
        match tok.text.as_str() {
            // Rule 1: entropy / wall-clock ban.
            "thread_rng" | "from_entropy" if !allowed(RULE_ENTROPY, tok.line) => {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: tok.line,
                    rule: RULE_ENTROPY,
                    message: format!(
                        "`{}` draws OS entropy; every RNG must be seeded through \
                         derive_seed so runs replay bit-identically",
                        tok.text
                    ),
                });
            }
            "SystemTime" | "Instant"
                if followed_by_colons_now(chars, tok.end)
                    && !is_sanctioned_clock(rel)
                    && !allowed(RULE_ENTROPY, tok.line) =>
            {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: tok.line,
                    rule: RULE_ENTROPY,
                    message: format!(
                        "`{}::now` reads the wall clock; simulated time must come \
                         from the event stream, not the host",
                        tok.text
                    ),
                });
            }
            // Rule 2: unordered iteration hazard.
            "HashMap" | "HashSet"
                if in_unordered_scope(rel)
                    && !tests_dir
                    && !in_region(&regions, tok.line)
                    && !allowed(RULE_UNORDERED, tok.line) =>
            {
                let line_text = scrubbed.line_text(tok.line);
                let t = line_text.trim_start();
                if t.starts_with("use ") || t.starts_with("pub use ") {
                    continue; // imports are not hazards; usage sites are.
                }
                findings.push(Finding {
                    file: rel.to_string(),
                    line: tok.line,
                    rule: RULE_UNORDERED,
                    message: format!(
                        "`{}` in a protocol/report crate: iteration order is \
                         unspecified — use BTreeMap/BTreeSet (or sorted iteration) \
                         or justify with `lint:allow(unordered-map) <reason>`",
                        tok.text
                    ),
                });
            }
            // Rule 3: derive_seed label registry (collection pass).
            "derive_seed" => {
                if tests_dir || in_region(&regions, tok.line) {
                    continue;
                }
                let Some((open, c)) = next_nonws(chars, tok.end) else {
                    continue;
                };
                if c != '(' {
                    continue;
                }
                let mut depth = 0i32;
                let mut close = open;
                while close < chars.len() {
                    match chars[close] {
                        '(' => depth += 1,
                        ')' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    close += 1;
                }
                if let Some(lit) = scrubbed
                    .strings
                    .iter()
                    .find(|s| s.start > open && s.end <= close)
                {
                    seed_labels.push(SeedLabel {
                        label: normalize_label(&lit.text),
                        file: rel.to_string(),
                        line: tok.line,
                        allowed: allowed(RULE_SEED, tok.line),
                    });
                }
            }
            // Rule 4: panic budget.
            "unwrap" | "expect"
                if in_panic_scope(rel)
                    && !tests_dir
                    && !in_region(&regions, tok.line)
                    && prev_nonws(chars, tok.start) == Some('.')
                    && matches!(next_nonws(chars, tok.end), Some((_, '(')))
                    && !allowed(RULE_PANIC, tok.line) =>
            {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: tok.line,
                    rule: RULE_PANIC,
                    message: format!(
                        "`.{}()` on a protocol path: thread the error through the \
                         Result/RoundDisposition flow, or justify with \
                         `lint:allow(panic) <reason>`",
                        tok.text
                    ),
                });
            }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if in_panic_scope(rel)
                    && !tests_dir
                    && !in_region(&regions, tok.line)
                    && matches!(next_nonws(chars, tok.end), Some((_, '!')))
                    && !allowed(RULE_PANIC, tok.line) =>
            {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: tok.line,
                    rule: RULE_PANIC,
                    message: format!(
                        "`{}!` on a protocol path: abort the round via the error \
                         flow, or justify with `lint:allow(panic) <reason>`",
                        tok.text
                    ),
                });
            }
            // Rule 5: metrics-registry readback ban in protocol crates.
            "read_snapshot" | "read_counter"
                if in_obs_readback_scope(rel)
                    && !tests_dir
                    && !in_region(&regions, tok.line)
                    && !allowed(RULE_OBS, tok.line) =>
            {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: tok.line,
                    rule: RULE_OBS,
                    message: format!(
                        "`{}` reads the metrics registry from a protocol crate: \
                         protocol code may only write counters, never branch on \
                         them — readback lets observability feed back into \
                         transcripts",
                        tok.text
                    ),
                });
            }
            // Rule 6: raw sockets confined to the wire backend.
            "TcpListener" | "TcpStream" | "UdpSocket"
                if !is_sanctioned_socket(rel) && !allowed(RULE_SOCKET, tok.line) =>
            {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: tok.line,
                    rule: RULE_SOCKET,
                    message: format!(
                        "`{}` outside crates/net/src/wire.rs: every byte that \
                         leaves a process must go through the audited wire \
                         backend behind the Fabric trait",
                        tok.text
                    ),
                });
            }
            "net"
                if preceded_by_path(chars, tok.start, &["std"])
                    && !is_sanctioned_socket(rel)
                    && !allowed(RULE_SOCKET, tok.line) =>
            {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: tok.line,
                    rule: RULE_SOCKET,
                    message: "`std::net` outside crates/net/src/wire.rs: every byte \
                              that leaves a process must go through the audited wire \
                              backend behind the Fabric trait"
                        .to_string(),
                });
            }
            // Rule 7: `unsafe` and raw SIMD confined to the two kernels.
            "unsafe" if !is_sanctioned_unsafe(rel) && !allowed(RULE_UNSAFE, tok.line) => {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: tok.line,
                    rule: RULE_UNSAFE,
                    message: "`unsafe` outside crates/crypto/src/lanes.rs and \
                              crates/crypto/src/sha_ni.rs: the workspace's two unsafe \
                              blocks are those kernels' calls after runtime feature \
                              detection"
                        .to_string(),
                });
            }
            "arch"
                if preceded_by_path(chars, tok.start, &["std", "core"])
                    && !is_sanctioned_unsafe(rel)
                    && !allowed(RULE_UNSAFE, tok.line) =>
            {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: tok.line,
                    rule: RULE_UNSAFE,
                    message: "`std::arch`/`core::arch` outside crates/crypto/src/lanes.rs \
                              and crates/crypto/src/sha_ni.rs: target-specific \
                              intrinsics live in the two audited kernels"
                        .to_string(),
                });
            }
            _ => {}
        }
    }

    let allow_markers = markers
        .into_iter()
        .filter(|m| m.valid)
        .map(|m| m.rule)
        .collect();
    FileReport {
        findings,
        seed_labels,
        allow_markers,
    }
}

/// The cross-file pass: every normalized label used at more than one
/// (non-allowed) call site aliases two logically independent RNG
/// streams and is reported at each site.
pub fn seed_registry_findings(labels: &[SeedLabel]) -> Vec<Finding> {
    let mut by_label: std::collections::BTreeMap<&str, Vec<&SeedLabel>> =
        std::collections::BTreeMap::new();
    for l in labels {
        by_label.entry(l.label.as_str()).or_default().push(l);
    }
    let mut findings = Vec::new();
    for (label, sites) in by_label {
        if sites.len() < 2 {
            continue;
        }
        for site in &sites {
            if site.allowed {
                continue;
            }
            let other = sites
                .iter()
                .find(|s| s.file != site.file || s.line != site.line)
                .map(|s| format!("{}:{}", s.file, s.line))
                .unwrap_or_default();
            findings.push(Finding {
                file: site.file.clone(),
                line: site.line,
                rule: RULE_SEED,
                message: format!(
                    "derive_seed label `{label}` is also used at {other}; duplicate \
                     labels alias two logically independent RNG streams — make every \
                     label unique"
                ),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scrub;

    #[test]
    fn normalize_collapses_placeholders() {
        assert_eq!(normalize_label("day{d}"), "day{}");
        assert_eq!(normalize_label("day{}"), "day{}");
        assert_eq!(normalize_label("net/day{d}/x{i}"), "net/day{}/x{}");
        assert_eq!(normalize_label("lit {{brace}}"), "lit {brace}");
        assert_eq!(normalize_label("plain"), "plain");
    }

    #[test]
    fn cfg_test_regions_cover_the_module() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let s = scrub(src);
        let r = test_regions(&s);
        assert_eq!(r.len(), 1);
        assert!(in_region(&r, 3));
        assert!(in_region(&r, 4));
        assert!(!in_region(&r, 1));
        assert!(!in_region(&r, 6));
    }

    #[test]
    fn marker_without_reason_is_reported_and_inert() {
        let src = "// lint:allow(panic)\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let s = scrub(src);
        let rep = analyze_file("crates/psc/src/x.rs", &s);
        let rules: Vec<&str> = rep.findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&RULE_MARKER));
        assert!(rules.contains(&RULE_PANIC));
    }

    #[test]
    fn valid_marker_suppresses_same_and_next_line() {
        let src = "// lint:allow(panic) infallible by construction\n\
                   fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let s = scrub(src);
        let rep = analyze_file("crates/psc/src/x.rs", &s);
        assert!(rep.findings.is_empty(), "{:?}", rep.findings);
    }

    #[test]
    fn unknown_rule_marker_is_reported() {
        let src = "// lint:allow(hashbrown) because\nfn f() {}\n";
        let s = scrub(src);
        let rep = analyze_file("crates/psc/src/x.rs", &s);
        assert_eq!(rep.findings.len(), 1);
        assert_eq!(rep.findings[0].rule, RULE_MARKER);
    }

    #[test]
    fn use_lines_are_not_unordered_findings() {
        let src = "use std::collections::HashMap;\nfn f() { let _: HashMap<u8, u8>; }\n";
        let s = scrub(src);
        let rep = analyze_file("crates/net/src/x.rs", &s);
        assert_eq!(rep.findings.len(), 1);
        assert_eq!(rep.findings[0].line, 2);
    }

    #[test]
    fn seed_labels_are_collected_and_deduped() {
        let a = scrub("fn a(s: u64) -> u64 { derive_seed(s, \"net/day{d}\") }\n");
        let b = scrub("fn b(s: u64) -> u64 { derive_seed(s, &format!(\"net/day{x}\")) }\n");
        let ra = analyze_file("crates/torsim/src/a.rs", &a);
        let rb = analyze_file("crates/torsim/src/b.rs", &b);
        let mut labels = ra.seed_labels;
        labels.extend(rb.seed_labels);
        assert_eq!(labels.len(), 2);
        let dups = seed_registry_findings(&labels);
        assert_eq!(dups.len(), 2);
        assert!(dups[0].message.contains("net/day{}"));
    }

    #[test]
    fn entropy_applies_even_in_test_regions() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let _ = rand::thread_rng(); }\n}\n";
        let s = scrub(src);
        let rep = analyze_file("crates/torsim/src/x.rs", &s);
        assert_eq!(rep.findings.len(), 1);
        assert_eq!(rep.findings[0].rule, RULE_ENTROPY);
    }

    #[test]
    fn raw_sockets_flag_everywhere_but_the_wire_backend() {
        let src = "use std::net::TcpListener;\nfn f() { let _ = TcpStream::connect(\"x\"); }\n";
        let s = scrub(src);
        // Two idents on line 1 (`net`, `TcpListener`), one on line 2.
        let rep = analyze_file("crates/psc/src/x.rs", &s);
        assert_eq!(rep.findings.len(), 3, "{:?}", rep.findings);
        assert!(rep.findings.iter().all(|f| f.rule == RULE_SOCKET));
        // The sanctioned wire backend is exempt, structurally.
        let rep = analyze_file("crates/net/src/wire.rs", &s);
        assert!(rep.findings.is_empty(), "{:?}", rep.findings);
    }

    #[test]
    fn raw_socket_applies_in_test_regions_and_honors_markers() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let _ = std::net::UdpSocket::bind(\"x\"); }\n}\n";
        let s = scrub(src);
        let rep = analyze_file("crates/torsim/src/x.rs", &s);
        assert_eq!(rep.findings.len(), 2, "{:?}", rep.findings); // `net` + `UdpSocket`
        assert!(rep.findings.iter().all(|f| f.rule == RULE_SOCKET));
        let allowed = "// lint:allow(raw-socket) test double for the wire backend\n\
                       fn f() { let _ = TcpListener::bind(\"x\"); }\n";
        let rep = analyze_file("crates/torsim/src/x.rs", &scrub(allowed));
        assert!(rep.findings.is_empty(), "{:?}", rep.findings);
    }

    #[test]
    fn non_std_net_idents_do_not_flag() {
        // `net` not preceded by `std::` (e.g. the pm_net crate path)
        // is not a socket use.
        let src = "use pm_net::transport::Switchboard;\nfn f(net: u8) -> u8 { net }\n";
        let s = scrub(src);
        let rep = analyze_file("crates/psc/src/x.rs", &s);
        assert!(rep.findings.is_empty(), "{:?}", rep.findings);
    }

    #[test]
    fn unsafe_and_arch_flag_everywhere_but_the_lane_kernel() {
        let src = "use std::arch::x86_64::__m512i;\n\
                   fn f() -> u8 { unsafe { g() } }\n\
                   fn h() { let _ = core::arch::x86_64::_rdtsc; }\n";
        let s = scrub(src);
        let rep = analyze_file("crates/psc/src/x.rs", &s);
        let lines: Vec<u32> = rep.findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, [1, 2, 3], "{:?}", rep.findings);
        assert!(rep.findings.iter().all(|f| f.rule == RULE_UNSAFE));
        // The two sanctioned kernels are exempt, structurally; the
        // SHA-256 module beside them, which calls one, is not.
        for kernel in ["crates/crypto/src/lanes.rs", "crates/crypto/src/sha_ni.rs"] {
            let rep = analyze_file(kernel, &s);
            assert!(rep.findings.is_empty(), "{kernel}: {:?}", rep.findings);
        }
        let rep = analyze_file("crates/crypto/src/sha256.rs", &s);
        assert_eq!(rep.findings.len(), 3, "{:?}", rep.findings);
    }

    #[test]
    fn unsafe_applies_in_test_regions_and_spares_lookalikes() {
        let src = "#[cfg(test)]\nmod tests {\n    unsafe fn t() {}\n}\n";
        let rep = analyze_file("crates/crypto/src/x.rs", &scrub(src));
        assert_eq!(rep.findings.len(), 1, "{:?}", rep.findings);
        assert_eq!(rep.findings[0].rule, RULE_UNSAFE);
        // The lint name, an `arch` of another path, and the word in a
        // comment or string are not uses.
        let src = "#![deny(unsafe_code)]\n// unsafe\nfn f(arch: u8) -> u8 { my::arch::x(arch) }\n\
                   const S: &str = \"unsafe std::arch\";\n";
        let rep = analyze_file("crates/crypto/src/x.rs", &scrub(src));
        assert!(rep.findings.is_empty(), "{:?}", rep.findings);
    }

    #[test]
    fn instant_now_flags_but_bare_instant_does_not() {
        let src = "fn f(i: Instant) -> Instant { i }\nfn g() { let _ = Instant::now(); }\n";
        let s = scrub(src);
        let rep = analyze_file("crates/torsim/src/x.rs", &s);
        assert_eq!(rep.findings.len(), 1);
        assert_eq!(rep.findings[0].line, 2);
    }
}
