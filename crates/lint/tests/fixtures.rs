//! The gate's self-test: every violation seeded under `fixtures/`
//! must be reported exactly once, and nothing else may fire — if the
//! analyzer rots (a lexer regression swallowing a rule, a scope check
//! excluding too much), this suite fails instead of the gate silently
//! passing everything.

use std::path::Path;

fn fixture_findings() -> Vec<pm_lint::Finding> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    pm_lint::analyze_root(&root).expect("fixtures readable")
}

#[test]
fn every_seeded_violation_is_reported_exactly_once() {
    let found: Vec<(String, u32, &str)> = fixture_findings()
        .into_iter()
        .map(|f| (f.file, f.line, f.rule))
        .collect();
    let expected: Vec<(String, u32, &str)> = [
        ("crates/obs/src/bad_profile.rs", 6, "entropy"),
        ("crates/privcount/src/bad_maps.rs", 7, "unordered-map"),
        ("crates/privcount/src/bad_maps.rs", 10, "unordered-map"),
        ("crates/privcount/src/bad_maps.rs", 11, "unordered-map"),
        ("crates/privcount/src/bad_maps.rs", 19, "allow-marker"),
        ("crates/privcount/src/bad_maps.rs", 22, "allow-marker"),
        ("crates/psc/src/bad_panics.rs", 4, "panic"),
        ("crates/psc/src/bad_panics.rs", 5, "panic"),
        ("crates/psc/src/bad_panics.rs", 7, "panic"),
        ("crates/psc/src/bad_panics.rs", 10, "panic"),
        ("crates/psc/src/bad_readback.rs", 5, "obs-readback"),
        ("crates/psc/src/bad_readback.rs", 7, "obs-readback"),
        ("crates/psc/src/bad_sockets.rs", 4, "raw-socket"),
        ("crates/psc/src/bad_sockets.rs", 4, "raw-socket"),
        ("crates/psc/src/bad_sockets.rs", 7, "raw-socket"),
        ("crates/psc/src/bad_unsafe.rs", 4, "unsafe-code"),
        ("crates/psc/src/bad_unsafe.rs", 7, "unsafe-code"),
        ("crates/psc/src/bad_unsafe.rs", 24, "unsafe-code"),
        ("crates/psc/src/bad_unsafe.rs", 24, "unsafe-code"),
        ("crates/torsim/src/bad_entropy.rs", 4, "entropy"),
        ("crates/torsim/src/bad_entropy.rs", 9, "entropy"),
        ("crates/torsim/src/bad_entropy.rs", 10, "entropy"),
        ("crates/torsim/src/bad_entropy.rs", 15, "entropy"),
        ("crates/torsim/src/bad_seeds.rs", 4, "seed-label"),
        ("crates/torsim/src/bad_seeds.rs", 8, "seed-label"),
    ]
    .into_iter()
    .map(|(f, l, r)| (f.to_string(), l, r))
    .collect();
    assert_eq!(found, expected);
}

#[test]
fn sanctioned_clock_produces_no_findings() {
    // `crates/obs/src/clock.rs` is the one file allowed to read the
    // wall clock; the identical calls in `bad_profile.rs` fire.
    let noise: Vec<_> = fixture_findings()
        .into_iter()
        .filter(|f| f.file.ends_with("clock.rs"))
        .collect();
    assert!(noise.is_empty(), "{noise:#?}");
}

#[test]
fn sanctioned_wire_backend_produces_no_findings() {
    // `crates/net/src/wire.rs` is the one file allowed to open raw
    // std sockets; identical calls in `bad_sockets.rs` fire.
    let noise: Vec<_> = fixture_findings()
        .into_iter()
        .filter(|f| f.file.ends_with("net/src/wire.rs"))
        .collect();
    assert!(noise.is_empty(), "{noise:#?}");
}

#[test]
fn sanctioned_lane_kernel_produces_no_findings() {
    // `crates/crypto/src/lanes.rs` is the one file allowed `unsafe` and
    // `std::arch`; the same uses in `bad_unsafe.rs` fire.
    let noise: Vec<_> = fixture_findings()
        .into_iter()
        .filter(|f| f.file.ends_with("crypto/src/lanes.rs"))
        .collect();
    assert!(noise.is_empty(), "{noise:#?}");
}

#[test]
fn lexer_edge_cases_produce_no_findings() {
    let noise: Vec<_> = fixture_findings()
        .into_iter()
        .filter(|f| f.file.contains("lexer_edges"))
        .collect();
    assert!(noise.is_empty(), "{noise:#?}");
}

#[test]
fn duplicate_seed_labels_name_each_other() {
    let seeds: Vec<_> = fixture_findings()
        .into_iter()
        .filter(|f| f.rule == "seed-label")
        .collect();
    assert_eq!(seeds.len(), 2);
    // Each site points at the other, under the normalized label.
    assert!(seeds[0].message.contains("net/day{}"));
    assert!(seeds[0].message.contains("bad_seeds.rs:8"));
    assert!(seeds[1].message.contains("bad_seeds.rs:4"));
}

#[test]
fn json_export_round_trips_the_count() {
    let findings = fixture_findings();
    let json = pm_lint::render_json(&findings);
    assert!(json.contains(&format!("\"total\": {}", findings.len())));
    assert!(json.contains("\"rule\": \"entropy\""));
    assert!(json.contains("\"rule\": \"panic\""));
    assert!(json.contains("\"rule\": \"obs-readback\""));
    assert!(json.contains("\"rule\": \"raw-socket\""));
    assert!(json.contains("\"rule\": \"unsafe-code\""));
}
