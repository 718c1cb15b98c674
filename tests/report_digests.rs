//! Report digest ledgers: one committed line `id scale seed digest` per
//! report, so a refactor's "reports are byte-identical" is a test and
//! not a hand-run `cmp` against a parent-built binary. A registry
//! report's digest is FNV-1a-64 of `render_text() + "\n" +
//! render_csv() + "\n"`, and each point's `reports_json` document gets
//! one `json` line of its own; a campaign's covers its text, CSV and JSON
//! renderings (the §3.1 budget line, the anomaly channel and the
//! metrics block included). A mismatch names the report that moved,
//! and `tests/golden_reports.rs` keeps the human-readable snapshot that
//! shows *what* moved.
//!
//! To regenerate after an *intentional* output change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --release --test report_digests
//! ```

use pm_study::{Campaign, CampaignAttack, CampaignConfig};
use torstudy::deployment::Deployment;
use torstudy::report::reports_json;
use torstudy::runner::run_some;

const GOLDEN_PATH: &str = "tests/golden/report_digests.txt";
const CAMPAIGN_GOLDEN_PATH: &str = "tests/golden/campaign_digests.txt";
const JSON_GOLDEN_PATH: &str = "tests/golden/report_json_digests.txt";
const PSC_GOLDEN_PATH: &str = "tests/golden/psc_report_digests.txt";
/// The PrivCount entries of a Tor day plus the two PSC-free extras.
const IDS: [&str; 10] = ["T1", "F1", "F2", "F3", "T4", "F4", "T7", "T8", "X1", "X2"];
const POINTS: [(f64, u64); 3] = [(2e-3, 2018), (2e-3, 7), (2e-2, 2018)];
/// The PSC-heavy ids, at one small point so their ledger stays at
/// seconds in a release run.
const PSC_IDS: [&str; 4] = ["T2", "T3", "T5", "T6"];
const PSC_POINT: (f64, u64) = (2e-4, 2018);

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x100000001b3)
    })
}

/// The per-report ledger and the per-point `reports_json` ledger for
/// `ids` at each of `points`.
fn ledger(ids: &[&str], points: &[(f64, u64)]) -> (String, String) {
    let (mut out, mut json) = (String::new(), String::new());
    for &(scale, seed) in points {
        // Shard count pinned for provenance, as in golden_reports.rs.
        let dep = Deployment::at_scale(scale, seed).with_shards(4);
        let reports = run_some(&dep, ids);
        assert_eq!(reports.len(), ids.len());
        for r in &reports {
            let rendered = format!("{}\n{}\n", r.render_text(), r.render_csv());
            let digest = fnv1a64(rendered.as_bytes());
            out.push_str(&format!("{} {scale:e} {seed} {digest:016x}\n", r.id));
        }
        let digest = fnv1a64(reports_json(&reports).as_bytes());
        json.push_str(&format!("json {scale:e} {seed} {digest:016x}\n"));
    }
    (out, json)
}

/// The full 17-day calendar honest on two seeds, and the 7-day one
/// honest and under every attack of the scenario suite.
fn campaign_ledger() -> String {
    let scale = 2e-4;
    let mut runs: Vec<(u64, u64, CampaignAttack)> = vec![
        (17, 2018, CampaignAttack::None),
        (17, 7, CampaignAttack::None),
        (7, 2018, CampaignAttack::None),
    ];
    runs.extend(CampaignAttack::ALL.map(|a| (7, 2018, a)));
    let mut out = String::new();
    for (days, seed, attack) in runs {
        let cfg = CampaignConfig::new(days, scale, seed).with_attack(attack);
        let report = Campaign::new(cfg).run(2);
        let rendered = format!(
            "{}\n{}\n{}",
            report.render_text(),
            report.render_csv(),
            report.render_json()
        );
        let digest = fnv1a64(rendered.as_bytes());
        let id = format!("campaign-{days}d-{}", attack.name());
        out.push_str(&format!("{id} {scale:e} {seed} {digest:016x}\n"));
    }
    out
}

#[test]
fn report_digests_match_committed_ledger() {
    let (reports, json) = ledger(&IDS, &POINTS);
    check(GOLDEN_PATH, reports);
    check(JSON_GOLDEN_PATH, json);
}

#[test]
fn psc_report_digests_match_committed_ledger() {
    let (reports, json) = ledger(&PSC_IDS, &[PSC_POINT]);
    check(PSC_GOLDEN_PATH, reports + &json);
}

#[test]
fn campaign_digests_match_committed_ledger() {
    check(CAMPAIGN_GOLDEN_PATH, campaign_ledger());
}

/// Compares a generated ledger with the committed one at `golden`
/// (relative to the package root), or rewrites it under
/// `UPDATE_GOLDEN`.
fn check(golden: &str, got: String) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(golden);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write digest ledger");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .expect("missing digest ledger; run with UPDATE_GOLDEN=1 to create it");
    if want != got {
        let moved: Vec<String> = want
            .lines()
            .zip(got.lines())
            .filter(|(w, g)| w != g)
            .map(|(w, g)| format!("  want: {w}\n  got:  {g}"))
            .collect();
        panic!(
            "{golden}: {} of {} committed lines moved ({} generated):\n{}\n\
             (if the change is intentional, regenerate with UPDATE_GOLDEN=1)",
            moved.len(),
            want.lines().count(),
            got.lines().count(),
            moved.join("\n")
        );
    }
}
