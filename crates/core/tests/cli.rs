//! The `experiments` binary's exit codes. Every malformed command line
//! exits 2 with the problem and the usage line on stderr — never a
//! panic (exit 101); the parser is `torstudy::cli`, shared with the
//! `campaign` binary (`crates/study/tests/cli.rs`). A well-formed one
//! exits 0 with a report however little volume its scale leaves.

use std::process::Command;
use torstudy::Deployment;

#[test]
fn usage_errors_exit_2_without_panicking() {
    let cases: [&[&str]; 9] = [
        &["--scale"],         // missing value
        &["--json"],          // missing value, last argument
        &["--only"],          // missing value, the binary's own flag
        &["--only", "T1,t4"], // unknown id (ids are case-sensitive)
        &["--seed", "x"],     // malformed integer
        &["--scale", "abc"],  // malformed float
        &["--scale", "2"],    // out of (0, 1]
        &["--scale", "0"],    // out of (0, 1]
        &["--no-such-flag"],  // unknown argument
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("spawn experiments");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: ran anyway");
    }
}

#[test]
fn unknown_only_id_is_named_with_the_known_ones() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--only", "T1,t4"])
        .output()
        .expect("spawn experiments");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"t4\""), "{stderr}");
    assert!(stderr.contains("T1,F1,F2"), "{stderr}");
}

#[test]
fn tiny_scale_is_a_report_not_a_panic() {
    // At 2e-5 noise swamps T7's success count; its two "of successes"
    // ratios used to panic in `Estimate::ratio` (exit 101).
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--scale", "2e-5", "--seed", "2018", "--only", "T7", "-q"])
        .output()
        .expect("spawn experiments");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stdout.contains("== T7"), "{stdout}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// The banner is the deployment's own `Display`, which counts the
/// relays and reads the party constants: the binary prints no counts
/// of its own that could drift from them.
#[test]
fn deployment_banner_counts_come_from_the_deployment() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--scale", "2e-5", "--seed", "2018", "--only", "T1"])
        .output()
        .expect("spawn experiments");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let banner = stderr
        .lines()
        .find_map(|l| l.strip_prefix("# deployment: "))
        .unwrap_or_else(|| panic!("no deployment banner in {stderr}"));
    assert_eq!(banner, Deployment::at_scale(2e-5, 2018).to_string());
    assert!(
        banner.starts_with("16 relays, 1 TS, 3 SKs, 3 CPs; "),
        "{banner}"
    );
}
