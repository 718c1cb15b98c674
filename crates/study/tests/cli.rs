//! The `campaign` binary's usage errors: every malformed command line
//! exits 2 with the problem and the usage line on stderr — never a
//! panic (exit 101) — and a failed export exits 1 naming the path. The
//! parser is `torstudy::cli`, shared with the `experiments` binary
//! (`crates/core/tests/cli.rs`).

use std::process::{Command, Output};

fn campaign(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(args)
        .output()
        .expect("spawn campaign")
}

#[test]
fn usage_errors_exit_2_without_panicking() {
    let cases: [&[&str]; 10] = [
        &["--days"],             // missing value
        &["--json"],             // missing value, last argument
        &["--days", "x"],        // malformed integer
        &["--days", "0"],        // below 1
        &["--scale", "abc"],     // malformed float
        &["--scale", "2"],       // out of (0, 1]
        &["--scale", "0"],       // out of (0, 1]
        &["--attack", "bribe"],  // unknown attack
        &["--fabric", "pigeon"], // unknown fabric
        &["--no-such-flag"],     // unknown argument
    ];
    for args in cases {
        let out = campaign(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: campaign"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: ran anyway");
    }
}

#[test]
fn failed_export_exits_1_naming_the_path() {
    let path = "/nonexistent-dir/campaign.json";
    let out = campaign(&["--days", "7", "--scale", "2e-4", "-q", "--json", path]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(path), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
